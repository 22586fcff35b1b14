//! The CI perf-regression gate: comparing `reproduce --json-out` runs.
//!
//! Two modes, both consuming the JSONL perf records `reproduce table2
//! --json-out` writes:
//!
//! * [`compare`] — baseline vs current. Count fields (`traces`, `unique`,
//!   `transitions`, `max_row`, `concepts`, and the mined FA's
//!   `mined_states` / `mined_transitions`) and the reference-FA choice
//!   are compared at zero tolerance: any drift is a correctness
//!   regression and fails the gate outright. Wall time (the summed
//!   `build_ms`) is compared against a percentage tolerance, so noisy CI
//!   runners don't flake the gate.
//! * [`diff`] — determinism check between two runs of the same seed at
//!   different worker counts. Timing (`build_ms`) and the obs deltas are
//!   stripped, `pipeline_snapshot` records are ignored, and everything
//!   left must be byte-identical.

use cable_obs::json::Value;
use cable_obs::parse_jsonl;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Fields of a `table2_spec` record that must never drift between runs
/// of the same seed — a change here is a correctness regression, not a
/// perf one. The mined FA's size guards the learner: a faster learner
/// must mine the same automaton.
const COUNT_FIELDS: [&str; 7] = [
    "traces",
    "unique",
    "transitions",
    "max_row",
    "concepts",
    "mined_states",
    "mined_transitions",
];

/// Record fields [`diff`] strips before comparing: everything that
/// legitimately varies between runs of the same seed. (`store_bytes`
/// and `journal_bytes` are *not* here — the store encoding is
/// deterministic, so size drift is a real difference.)
const TIMING_FIELDS: [&str; 9] = [
    "build_ms",
    "prepare_ms",
    "ingest_us_per_trace",
    "obs",
    "profile",
    "duration_ns",
    "ts_ms",
    "uptime_ns",
    "trace",
];

/// Record types [`diff`] ignores wholesale: observability side-channels
/// whose timing content varies run to run by design.
const IGNORED_RECORDS: [&str; 6] = [
    "pipeline_snapshot",
    "wide_event",
    "profile_snapshot",
    "trace_export",
    "trace_attribution",
    "trace_slowest",
];

/// Loads a JSONL perf-record file written by `reproduce --json-out`.
///
/// # Errors
///
/// Fails if the file cannot be read or any line is not valid JSON.
pub fn load(path: impl AsRef<Path>) -> io::Result<Vec<Value>> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    parse_jsonl(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// The outcome of a [`compare`] run.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Human-readable gate failures; empty means the gate passes.
    pub failures: Vec<String>,
    /// Summed `build_ms` over the baseline's spec records.
    pub baseline_total_ms: f64,
    /// Summed `build_ms` over the current run's spec records.
    pub current_total_ms: f64,
}

impl CompareReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report for the CI log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "total build time: baseline {:.2} ms, current {:.2} ms ({:+.1}%)\n",
            self.baseline_total_ms,
            self.current_total_ms,
            if self.baseline_total_ms > 0.0 {
                (self.current_total_ms - self.baseline_total_ms) / self.baseline_total_ms * 100.0
            } else {
                0.0
            }
        ));
        if self.passed() {
            out.push_str("perf gate: PASS\n");
        } else {
            for f in &self.failures {
                out.push_str(&format!("FAIL: {f}\n"));
            }
        }
        out
    }
}

/// Indexes the `table2_spec` records of a run by specification name.
fn spec_records(records: &[Value]) -> BTreeMap<&str, &Value> {
    records
        .iter()
        .filter(|r| r.get("record").and_then(Value::as_str) == Some("table2_spec"))
        .filter_map(|r| r.get("spec").and_then(Value::as_str).map(|name| (name, r)))
        .collect()
}

/// Compares a current perf run against a committed baseline.
///
/// Count fields and the reference-FA choice fail on any drift; total
/// wall time fails when the current run is more than `tolerance_percent`
/// slower than the baseline.
pub fn compare(baseline: &[Value], current: &[Value], tolerance_percent: f64) -> CompareReport {
    let base = spec_records(baseline);
    let cur = spec_records(current);
    let mut failures = Vec::new();
    if base.is_empty() {
        failures.push("baseline has no table2_spec records".to_owned());
    }
    for name in base.keys() {
        if !cur.contains_key(name) {
            failures.push(format!("spec {name} missing from current run"));
        }
    }
    for name in cur.keys() {
        if !base.contains_key(name) {
            failures.push(format!("spec {name} absent from baseline"));
        }
    }
    for (name, b) in &base {
        let Some(c) = cur.get(name) else { continue };
        for field in COUNT_FIELDS {
            let bv = b.get(field).and_then(Value::as_u64);
            let cv = c.get(field).and_then(Value::as_u64);
            if bv != cv {
                failures.push(format!(
                    "spec {name}: {field} drifted {} -> {} (counts are compared at zero tolerance)",
                    fmt_count(bv),
                    fmt_count(cv)
                ));
            }
        }
        let br = b.get("reference").and_then(Value::as_str);
        let cr = c.get("reference").and_then(Value::as_str);
        if br != cr {
            failures.push(format!(
                "spec {name}: reference FA changed {br:?} -> {cr:?}"
            ));
        }
    }
    let baseline_total_ms = total_build_ms(&base);
    let current_total_ms = total_build_ms(&cur);
    let limit = baseline_total_ms * (1.0 + tolerance_percent / 100.0);
    if baseline_total_ms > 0.0 && current_total_ms > limit {
        failures.push(format!(
            "total build time regressed: {current_total_ms:.2} ms > {baseline_total_ms:.2} ms \
             + {tolerance_percent}% tolerance ({limit:.2} ms)"
        ));
    }
    CompareReport {
        failures,
        baseline_total_ms,
        current_total_ms,
    }
}

fn fmt_count(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "missing".into())
}

fn total_build_ms(specs: &BTreeMap<&str, &Value>) -> f64 {
    specs
        .values()
        .filter_map(|r| r.get("build_ms").and_then(Value::as_f64))
        .sum()
}

/// Strips the fields that legitimately vary between runs (timing, obs
/// deltas) from a record, leaving the deterministic payload.
fn strip_timing(record: &Value) -> Value {
    match record {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Checks two perf runs for bit-identical deterministic output.
///
/// `pipeline_snapshot`, `wide_event`, and `profile_snapshot` records are
/// ignored and timing fields stripped; every remaining record must match
/// its counterpart exactly. Returns a human-readable description of each
/// difference; empty means the runs are identical.
pub fn diff(a: &[Value], b: &[Value]) -> Vec<String> {
    let keep = |records: &[Value]| -> Vec<Value> {
        records
            .iter()
            .filter(|r| {
                !r.get("record")
                    .and_then(Value::as_str)
                    .is_some_and(|kind| IGNORED_RECORDS.contains(&kind))
            })
            .map(strip_timing)
            .collect()
    };
    let a = keep(a);
    let b = keep(b);
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!("record counts differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        if ra != rb {
            let name = ra
                .get("spec")
                .and_then(Value::as_str)
                .map(|s| format!("spec {s}"))
                .unwrap_or_else(|| format!("record {i}"));
            out.push(format!("{name} differs:\n  a: {ra}\n  b: {rb}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, concepts: u64, build_ms: f64) -> Value {
        Value::object([
            ("record", Value::from("table2_spec")),
            ("seed", Value::from(2003u64)),
            ("spec", Value::from(name)),
            ("traces", Value::from(70u64)),
            ("unique", Value::from(12u64)),
            ("reference", Value::from("mined")),
            ("transitions", Value::from(9u64)),
            ("max_row", Value::from(7u64)),
            ("concepts", Value::from(concepts)),
            ("mined_states", Value::from(9u64)),
            ("mined_transitions", Value::from(14u64)),
            ("prepare_ms", Value::from(build_ms * 10.0)),
            ("build_ms", Value::from(build_ms)),
            ("obs", Value::object([("counters", Value::object([]))])),
        ])
    }

    fn snapshot() -> Value {
        Value::object([
            ("record", Value::from("pipeline_snapshot")),
            ("snapshot", Value::object([])),
        ])
    }

    #[test]
    fn identical_runs_pass_at_zero_tolerance() {
        let run = vec![spec("A", 20, 1.0), spec("B", 31, 2.0), snapshot()];
        let report = compare(&run, &run, 0.0);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.baseline_total_ms, 3.0);
    }

    #[test]
    fn count_drift_fails_regardless_of_tolerance() {
        let base = vec![spec("A", 20, 1.0)];
        let cur = vec![spec("A", 21, 1.0)];
        let report = compare(&base, &cur, 1000.0);
        assert!(!report.passed());
        assert!(report.failures[0].contains("concepts drifted 20 -> 21"));
    }

    #[test]
    fn mined_fa_drift_fails_regardless_of_tolerance() {
        let base = vec![spec("A", 20, 1.0)];
        let mut cur = spec("A", 20, 1.0);
        if let Value::Object(fields) = &mut cur {
            fields.insert("mined_transitions".into(), Value::from(15u64));
        }
        let report = compare(&base, &[cur], 1000.0);
        assert!(!report.passed());
        assert!(report.failures[0].contains("mined_transitions drifted 14 -> 15"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = vec![spec("A", 20, 10.0)];
        let cur = vec![spec("A", 20, 12.0)];
        assert!(compare(&base, &cur, 25.0).passed());
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let base = vec![spec("A", 20, 10.0)];
        let cur = vec![spec("A", 20, 13.0)];
        let report = compare(&base, &cur, 25.0);
        assert!(!report.passed());
        assert!(report.failures[0].contains("regressed"));
    }

    #[test]
    fn speedups_always_pass() {
        let base = vec![spec("A", 20, 10.0)];
        let cur = vec![spec("A", 20, 1.0)];
        assert!(compare(&base, &cur, 0.0).passed());
    }

    #[test]
    fn missing_and_extra_specs_fail() {
        let base = vec![spec("A", 20, 1.0), spec("B", 30, 1.0)];
        let cur = vec![spec("A", 20, 1.0), spec("C", 5, 1.0)];
        let report = compare(&base, &cur, 25.0);
        let text = report.failures.join("\n");
        assert!(text.contains("spec B missing from current run"), "{text}");
        assert!(text.contains("spec C absent from baseline"), "{text}");
    }

    #[test]
    fn diff_ignores_timing_and_snapshots() {
        let a = vec![spec("A", 20, 1.0), snapshot()];
        let b = vec![spec("A", 20, 99.0)]; // different timing, no snapshot
        assert!(diff(&a, &b).is_empty());
    }

    #[test]
    fn diff_ignores_wide_events_and_profile_snapshots() {
        // A stray wide event or profiler tick in one run's record stream
        // (they normally go to their own files) must not break the
        // determinism gate: both are wall-clock artifacts, not payload.
        let event = Value::object([
            ("record", Value::from("wide_event")),
            ("seq", Value::from(1u64)),
            ("kind", Value::from("ingest_batch")),
        ]);
        let tick = Value::object([
            ("record", Value::from("profile_snapshot")),
            ("seq", Value::from(1u64)),
        ]);
        let a = vec![spec("A", 20, 1.0), event, tick];
        let b = vec![spec("A", 20, 1.0)];
        assert!(diff(&a, &b).is_empty());
        assert!(diff(&b, &a).is_empty());
    }

    #[test]
    fn diff_reports_payload_differences() {
        let a = vec![spec("A", 20, 1.0)];
        let b = vec![spec("A", 21, 1.0)];
        let d = diff(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("spec A differs"), "{}", d[0]);
    }

    #[test]
    fn load_round_trips_a_sink_file() {
        let dir = std::env::temp_dir().join("cable-bench-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("records-{}.jsonl", std::process::id()));
        let sink = cable_obs::JsonlSink::create(&path).unwrap();
        let records = vec![spec("A", 20, 1.0), snapshot()];
        for r in &records {
            sink.write(r).unwrap();
        }
        drop(sink);
        assert_eq!(load(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }
}
