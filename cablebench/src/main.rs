//! The Cable benchmark.
//!
//! ```text
//! cablebench --workload mine|mutants|serve_hot|serve_evict|all
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric, taken from the
//! benchmark's own spans around its calls into each crate. Each run
//! checks its outputs outside the timed region. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed. `--workload all` runs each workload `BENCHMARK.json` gates,
//! in a process of its own. See README.md for the workloads and metrics.

mod batch;
mod cpu;
mod serve;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::{exit, Command};

/// Seed used when none is given; the committed Table 2 rows are at it.
const DEFAULT_SEED: u64 = batch::BASELINE_SEED;

/// The workloads this benchmark can run.
const WORKLOADS: [&str; 4] = ["mine", "mutants", "serve_hot", "serve_evict"];

/// Every end-to-end metric and its unit: what a `--trace 0` run prints.
/// Besides set-up (wall clock) and peak memory, each is CPU time, which
/// leaves out the host's steal, and every time is divided by the host's
/// slowdown (see `cpu`).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_cpu_ms_p50", "ms"),
    ("req_cpu_ms_p90", "ms"),
    ("write_cpu_ms_p90", "ms"),
    ("read_cpu_ms_p90", "ms"),
    ("req_per_cpu_s", "1/s"),
];

/// Every per-layer metric and its unit: what a `--trace 1` run prints.
/// A layer a workload does not load reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("workload.generate_ms", "ms"),
    ("strauss.front_ms", "ms"),
    ("learn.mine_ms", "ms"),
    ("learn.mine_share", "ratio"),
    ("select.ms", "ms"),
    ("select.sessions_built", "count"),
    ("select.useful_ratio", "ratio"),
    ("core.session_build_ms", "ms"),
    ("fa.sweep_ms", "ms"),
    ("fca.lattice_ms", "ms"),
    ("fca.concepts", "count"),
    ("mutate.generate_ms", "ms"),
    ("mutate.survivor_ratio", "ratio"),
    ("fa.equivalent_ms", "ms"),
    ("core.expert_ms", "ms"),
    ("http.connect_ms_p50", "ms"),
    ("http.connect_ms_p99", "ms"),
    ("api.handle_ms.create", "ms"),
    ("api.handle_ms.ingest", "ms"),
    ("api.handle_ms.label", "ms"),
    ("api.handle_ms.lattice", "ms"),
    ("api.handle_ms.concepts", "ms"),
    ("api.handle_ms.focus", "ms"),
    ("api.handle_ms.digest", "ms"),
    ("core.focus_ms", "ms"),
    ("store.ingest_ms", "ms"),
    ("store.label_ms", "ms"),
    ("store.reopen_ms", "ms"),
    ("store.replayed_per_reopen", "count"),
    ("manager.hit_ratio", "ratio"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The repository checkout the benchmark was built from.
    pub root: PathBuf,
    /// Scratch space inside the checkout, removed after the run.
    pub work_dir: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` of `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (passes for batch workloads, requests for serve).
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Vec<span::Span>,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Context worth printing (sample counts and bases).
    pub info: Vec<String>,
}

impl Report {
    /// A run that could not get going at all.
    pub fn broken(problem: String) -> Report {
        Report {
            attempted: 1,
            failed: 1,
            problems: vec![problem],
            ..Report::default()
        }
    }
}

/// Peak resident set (VmHWM) of process `pid`, or of this process, in
/// MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("cablebench: {msg}");
    eprintln!(
        "usage: cablebench --workload {}|all [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    exit(2);
}

/// Prints self time by span name, largest first, to standard error.
fn print_self_times(spans: &[span::Span]) {
    let own = span::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += own[&s.id];
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    eprintln!("cablebench: self time by span (ms, calls):");
    for (name, (ns, calls)) in rows {
        eprintln!("  {name:<24} {:>12.3} {calls:>8}", ns as f64 / 1e6);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The workloads `BENCHMARK.json` at the repository root gates, in its
/// order.
fn gated_workloads(root: &std::path::Path) -> Result<Vec<String>, String> {
    use cable::obs::json::Value;
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let names: Vec<String> = v
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    match names.iter().find(|n| !WORKLOADS.contains(&n.as_str())) {
        Some(unknown) => Err(format!("{}: unknown workload {unknown}", path.display())),
        None if names.is_empty() => Err(format!("{}: no workloads", path.display())),
        None => Ok(names),
    }
}

/// Runs `--workload all`: each workload `BENCHMARK.json` gates, in a
/// process of its own, so peak memory and set-up are each workload's
/// own.
fn run_all(root: &std::path::Path, args: &[String]) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&e.to_string()));
    let workloads = gated_workloads(root).unwrap_or_else(|e| usage(&e));
    let mut ok = true;
    for w in &workloads {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        println!("== {w}");
        let status = Command::new(&exe)
            .args(["--workload", w.as_str()])
            .args(&child_args)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    exit(if ok { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(cpu::PROBE_FLAG) {
        println!("{}", cpu::probe());
        return;
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace is 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    if workload == "all" {
        run_all(&root, &args);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let scratch = root.join(".cablebench-work");
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        work_dir: scratch.join(format!("{workload}-{}", std::process::id())),
        root,
    };
    // The batch workloads run the cable-par pool at width 1: a pass is
    // dominated by two specs, and at width 2 its time depends on
    // whether they land on one worker.
    cable::par::configure(1);
    let report = match workload.as_str() {
        "mine" => batch::mine(&cfg),
        "mutants" => batch::mutants(&cfg),
        "serve_hot" => serve::run(&cfg, serve::Mode::Hot),
        _ => serve::run(&cfg, serve::Mode::Evict),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut problems = report.problems.clone();

    // The metrics this kind of run reports, in the declared order.
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value = report.metrics.iter().find(|m| m.name == name).map(|m| {
            debug_assert_eq!(m.unit, unit, "{name}");
            m.value
        });
        let value = match (value, name) {
            (Some(v), _) => v,
            (None, "trace.spans") => report.spans.len() as f64,
            // A layer this workload does not load.
            (None, _) if trace => 0.0,
            (None, _) => {
                problems.push(format!("{name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
        metrics.push((name, value, unit));
    }
    if trace && !report.spans.is_empty() {
        let _ = std::fs::create_dir_all(&scratch);
        let path = scratch.join(format!("trace-{workload}-{seed}.jsonl"));
        match span::write_jsonl(&path, &report.spans) {
            Ok(()) => eprintln!(
                "cablebench: {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cablebench: writing {}: {e}", path.display()),
        }
    }
    if trace {
        print_self_times(&report.spans);
    }
    for line in &report.info {
        eprintln!("cablebench: {workload}: {line}");
    }
    for p in &problems {
        eprintln!("cablebench: {workload}: CHECK FAILED: {p}");
    }
    println!(
        "{workload} seed {seed} ({}, {} s):",
        if trace { "traced" } else { "untraced" },
        seconds
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let correct = problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    exit(if correct { 0 } else { 1 });
}
