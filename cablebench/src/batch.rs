//! The batch workloads: `mine` (the pipeline every `reproduce` table
//! starts with) and `mutants` (the mutation matrix).
//!
//! An untraced pass calls the public entry point itself
//! (`cable_bench::prepare` per registry spec, `cable_bench::mutation_matrix`).
//! A traced pass makes the same sequence of public calls one level
//! down, so the benchmark can put a span around each layer; the
//! self-tests check that both produce identical outputs, and a traced run
//! checks it on every pass. In a traced run every pass runs twice on the
//! same inputs, untraced then traced, and the paired difference is the
//! tracing overhead.
//!
//! One part of a traced pass is work the program does not do:
//! `CableSession::from_parts` groups the traces into classes a second
//! time, which `CableSession::new` does once. Its span,
//! [`BENCH_ONLY`], is left out of every layer figure, of the coverage
//! and of the overhead.

use crate::span::{covered, Span, Tracer};
use crate::stats::{self, Ratio};
use crate::{Metric, Report, RunConfig};
use cable::fa::{templates, Fa};
use cable::fca::{ConceptLattice, Context};
use cable::learn::Pta;
use cable::session::{strategy, CableSession};
use cable::specs::{families::family_specs, SpecDef};
use cable::strauss::Miner;
use cable::trace::{Trace, TraceSet, Vocab};
use cable::util::rng::derive_seed;
use cable_bench::{extract_scenarios, MutationRow, PreparedSpec, ReferenceFaChoice};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

/// Surviving mutants drawn per protocol family in one `mutants` pass:
/// enough that a pass takes about half a second.
pub const MUTANTS_PER_FAMILY: usize = 1000;

/// Seed whose Table 2 rows are committed in `BENCH_baseline.json`.
pub const BASELINE_SEED: u64 = 2003;

/// Expert and Baseline labeling totals over the 17 specs at
/// [`BASELINE_SEED`].
const EXPERT_BASELINE_TOTALS: (usize, usize) = (157, 916);

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 1001;

/// Spans that only group others; every other span but [`BENCH_ONLY`]
/// names a layer and counts towards a pass's coverage.
const WRAPPERS: [&str; 3] = ["pass", "spec", "family"];

/// The span around `CableSession::from_parts` in a traced session
/// build: work the benchmark adds, not the program's.
const BENCH_ONLY: &str = "bench.reassemble";

/// Seed of pass `k`: the workload seed itself, then a fixed derived
/// sequence, so no pass can reuse another pass's mined FA or lattice.
fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_seed(seed, k)
    }
}

/// Set-up of a batch run, timed in process: `build` makes what the first
/// pass needs before it starts (the spec registry for `mine`, the
/// protocol families for `mutants`). Repeated; the median is reported,
/// with the last build.
fn setup<T>(build: impl Fn() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = Some(std::hint::black_box(build()));
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("set-up ran");
    (median, built.expect("set-up ran"))
}

/// Per-pass counts a traced pass gathers at its call boundaries.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sessions_built: u64,
    specs: u64,
    concepts: u64,
    candidates: u64,
    survivors: u64,
}

/// What the timed loop of a batch run collected.
struct Passes {
    walls: Vec<f64>,
    /// CPU seconds of each untraced pass.
    cpus: Vec<f64>,
    /// The host's slowdown before each pass (`cpu::slowdown`).
    slowdowns: Vec<f64>,
    overhead_pct: Vec<f64>,
    spans: Vec<Span>,
    counts: Vec<Counts>,
    notes: Vec<String>,
    failed: u64,
}

/// Nanoseconds of [`BENCH_ONLY`] spans in `spans`.
fn bench_only_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == BENCH_ONLY)
        .map(Span::dur)
        .sum()
}

/// The timed loop: runs passes until `seconds` of pass time is spent.
/// `pass` runs one pass (traced or not) and returns its output; `check`
/// verifies an output outside the timed region. In a traced run the
/// traced pass's `fingerprint` must equal the untraced pass's.
fn run_passes<T, F: PartialEq + Debug>(
    cfg: &RunConfig,
    origin: Instant,
    mut pass: impl FnMut(u64, &mut Tracer, &mut Counts) -> T,
    fingerprint: impl Fn(&T) -> F,
    mut check: impl FnMut(u64, &T) -> Vec<String>,
) -> Passes {
    let mut out = Passes {
        walls: Vec::new(),
        cpus: Vec::new(),
        slowdowns: Vec::new(),
        overhead_pct: Vec::new(),
        spans: Vec::new(),
        counts: Vec::new(),
        notes: Vec::new(),
        failed: 0,
    };
    let mut measured = 0.0;
    let mut k = 0u64;
    while measured < cfg.seconds || out.walls.len() < 3 {
        let seed = pass_seed(cfg.seed, k);
        let mut off = Tracer::new(false, origin, 0);
        let mut counts = Counts::default();
        out.slowdowns.push(crate::cpu::slowdown());
        let start = Instant::now();
        let cpu = crate::cpu::process_s();
        let result = pass(seed, &mut off, &mut counts);
        out.cpus.push(crate::cpu::process_s() - cpu);
        let wall = start.elapsed().as_secs_f64();
        measured += wall;
        out.walls.push(wall);
        let mut problems = check(k, &result);
        let untraced = fingerprint(&result);
        drop(result);
        if cfg.trace {
            let mut tracer = Tracer::new(true, origin, (k + 1) << 32);
            tracer.set_group(k);
            let mut counts = Counts::default();
            let start = Instant::now();
            let open = tracer.begin("pass");
            let traced = pass(seed, &mut tracer, &mut counts);
            tracer.end(open);
            let traced_wall = start.elapsed().as_secs_f64();
            let spans = tracer.take();
            let program_wall = traced_wall - bench_only_ns(&spans) as f64 / 1e9;
            out.overhead_pct.push(100.0 * (program_wall - wall) / wall);
            problems.extend(check(k, &traced));
            let traced = fingerprint(&traced);
            if traced != untraced {
                problems.push(format!(
                    "pass {k}: traced output {traced:?} differs from untraced {untraced:?}"
                ));
            }
            out.spans.extend(spans);
            out.counts.push(counts);
        }
        if !problems.is_empty() {
            out.failed += 1;
            out.notes.extend(problems);
        }
        k += 1;
    }
    out
}

/// Milliseconds per pass spent in spans named `name`, less the
/// [`BENCH_ONLY`] spans directly inside them, median over the traced
/// passes.
fn layer_ms(spans: &[Span], passes: u64, name: &str) -> f64 {
    let mut per_pass: BTreeMap<u64, f64> = (0..passes).map(|g| (g, 0.0)).collect();
    let named: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.id)
        .collect();
    for s in spans {
        let ms = s.dur() as f64 / 1e6;
        if s.name == name {
            *per_pass.entry(s.group).or_default() += ms;
        } else if s.name == BENCH_ONLY && s.parent.is_some_and(|p| named.contains(&p)) {
            *per_pass.entry(s.group).or_default() -= ms;
        }
    }
    let v: Vec<f64> = per_pass.into_values().collect();
    stats::median(&v).unwrap_or(0.0)
}

/// A pass's wall time in ns, less its [`BENCH_ONLY`] spans.
fn program_ns(pass: &Span, group: &[&Span]) -> u64 {
    let extra: u64 = group
        .iter()
        .filter(|s| s.name == BENCH_ONLY)
        .map(|s| s.dur())
        .sum();
    pass.dur().saturating_sub(extra).max(1)
}

/// The smallest share of a pass's wall time covered by layer spans.
/// [`BENCH_ONLY`] time counts on neither side.
fn min_coverage_pct(spans: &[Span]) -> f64 {
    let mut by_group: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_group.entry(s.group).or_default().push(s);
    }
    by_group
        .values()
        .filter_map(|group| {
            let pass = group.iter().find(|s| s.name == "pass")?;
            let layers: Vec<&Span> = group
                .iter()
                .copied()
                .filter(|s| !WRAPPERS.contains(&s.name) && s.name != BENCH_ONLY)
                .collect();
            // The bench-only spans never overlap each other, so the part
            // of them under a layer span is a plain sum.
            let extra_covered: u64 = group
                .iter()
                .filter(|s| s.name == BENCH_ONLY)
                .map(|s| covered(s, &layers))
                .sum();
            let layer_ns = covered(pass, &layers) - extra_covered;
            Some(100.0 * layer_ns as f64 / program_ns(pass, group) as f64)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics of a batch run, from the CPU time of its
/// untraced passes. A batch pass is the one request its user makes, so
/// the request-cost metrics report the pass (a run has too few passes
/// for a tail percentile), and throughput counts passes per CPU second.
/// The figure is the mean over the passes, not the median: each pass
/// has inputs of its own, a `mine` pass costs up to three times another
/// at the same host speed, and the mean of a run's passes varies less
/// from run to run than their median. Times are divided by the host's
/// `slowdown`.
fn end_to_end(setup_s: f64, cpus: &[f64], slowdown: f64) -> Vec<Metric> {
    let pass_cpu_s = stats::mean(cpus).expect("at least three passes") / slowdown;
    let ms = pass_cpu_s * 1e3;
    vec![
        Metric::new("setup_s", setup_s / slowdown, "s"),
        Metric::new("pass_cpu_s", pass_cpu_s, "s"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(None), "MiB"),
        Metric::new("req_cpu_ms_p50", ms, "ms"),
        Metric::new("req_cpu_ms_p90", ms, "ms"),
        Metric::new("write_cpu_ms_p90", ms, "ms"),
        Metric::new("read_cpu_ms_p90", ms, "ms"),
        Metric::new("req_per_cpu_s", 1.0 / pass_cpu_s, "1/s"),
    ]
}

/// Per-layer metrics common to both batch workloads.
fn batch_layers(p: &Passes, specs_per_pass: u64) -> Vec<Metric> {
    let n = p.counts.len() as u64;
    let sum = |f: fn(&Counts) -> u64| p.counts.iter().map(f).sum::<u64>();
    let med = |f: fn(&Counts) -> u64| {
        let v: Vec<f64> = p.counts.iter().map(|c| f(c) as f64).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let mine_share: Vec<f64> = (0..n)
        .filter_map(|g| {
            let group: Vec<&Span> = p.spans.iter().filter(|s| s.group == g).collect();
            let pass = group.iter().find(|s| s.name == "pass")?;
            let mine: u64 = group
                .iter()
                .filter(|s| s.name == "learn.mine")
                .map(|s| s.dur())
                .sum();
            Some(mine as f64 / program_ns(pass, &group) as f64)
        })
        .collect();
    let ms = |name: &str| layer_ms(&p.spans, n, name);
    let useful: Ratio = stats::useful_ratio(specs_per_pass * n, sum(|c| c.sessions_built));
    let survivors = stats::survivor_ratio(sum(|c| c.survivors), sum(|c| c.candidates));
    vec![
        Metric::new("workload.generate_ms", ms("workload.generate"), "ms"),
        Metric::new("strauss.front_ms", ms("strauss.front"), "ms"),
        Metric::new("learn.mine_ms", ms("learn.mine"), "ms"),
        Metric::new(
            "learn.mine_share",
            stats::median(&mine_share).unwrap_or(0.0),
            "ratio",
        ),
        Metric::new("select.ms", ms("select"), "ms"),
        Metric::new("select.sessions_built", med(|c| c.sessions_built), "count"),
        Metric::new("select.useful_ratio", useful.value(), "ratio"),
        Metric::new("core.session_build_ms", ms("core.session_build"), "ms"),
        Metric::new("fa.sweep_ms", ms("fa.sweep"), "ms"),
        Metric::new("fca.lattice_ms", ms("fca.lattice"), "ms"),
        Metric::new("fca.concepts", med(|c| c.concepts), "count"),
        Metric::new("mutate.generate_ms", ms("mutate.generate"), "ms"),
        Metric::new("mutate.survivor_ratio", survivors.value(), "ratio"),
        Metric::new("fa.equivalent_ms", ms("fa.equivalent"), "ms"),
        Metric::new("core.expert_ms", ms("core.expert"), "ms"),
        Metric::new(
            "trace.overhead_pct",
            stats::median(&p.overhead_pct).unwrap_or(0.0),
            "%",
        ),
        Metric::new("trace.coverage_pct", min_coverage_pct(&p.spans), "%"),
        Metric::new("trace.passes", n as f64, "count"),
    ]
}

// ----------------------------------------------------------------------
// mine
// ----------------------------------------------------------------------

/// One `mine` pass: the pipeline for all registry specs.
fn mine_pass(
    registry: &cable::specs::Registry,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<PreparedSpec> {
    registry
        .iter()
        .map(|spec| {
            if tracer.enabled() {
                let open = tracer.begin("spec");
                let p = prepare_traced(spec, seed, tracer, counts);
                tracer.end(open);
                p
            } else {
                cable_bench::prepare(spec, seed)
            }
        })
        .collect()
}

/// `cable_bench::prepare`, call for call, with a span around each
/// layer: workload generation, the Strauss front end, the sk-strings
/// learner, and reference-FA selection (oracle, candidates, and the
/// candidate loop of session builds and well-formedness checks).
fn prepare_traced(
    spec: &SpecDef,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> PreparedSpec {
    let mut vocab = Vocab::new();
    let workload = tracer.time("workload.generate", || spec.generate(seed, &mut vocab));
    let miner = Miner::new(spec.seeds());
    let scenarios = tracer.time("strauss.front", || {
        extract_scenarios(spec, &workload, &vocab)
    });
    let mined_fa = tracer.time("learn.mine", || miner.back.mine_set(&scenarios));

    let select = tracer.begin("select");
    let oracle = spec.oracle(&mut vocab);
    let scenario_list: Vec<Trace> = scenarios.iter().map(|(_, t)| t.clone()).collect();
    let alphabet = templates::distinct_event_pats(&scenario_list);
    let mut candidates: Vec<(ReferenceFaChoice, Fa)> = Vec::new();
    let mined_is_small = mined_fa.transition_count() <= 3 * alphabet.len().max(1);
    let unordered = (
        ReferenceFaChoice::Unordered,
        templates::unordered(&alphabet),
    );
    let mined = (ReferenceFaChoice::Mined, mined_fa.clone());
    let seed_orders = alphabet.iter().map(|pat| {
        (
            ReferenceFaChoice::SeedOrder(vocab.op_name(pat.op).to_owned()),
            templates::seed_order(&alphabet, pat),
        )
    });
    if mined_is_small {
        candidates.push(mined);
        candidates.push(unordered);
        candidates.extend(seed_orders);
    } else {
        candidates.push(unordered);
        candidates.extend(seed_orders);
        candidates.push(mined);
    }
    candidates.push((ReferenceFaChoice::Exact, Pta::build(&scenario_list).to_fa()));
    let mut chosen = None;
    for (choice, fa) in candidates {
        let session = build_session(&scenarios, &fa, tracer, counts);
        counts.sessions_built += 1;
        let well_formed = tracer.time("core.well_formed", || {
            session.is_well_formed_for(|t| oracle.label(t))
        });
        if well_formed {
            chosen = Some((choice, session));
            break;
        }
    }
    tracer.end(select);
    counts.specs += 1;
    let (reference, session) = chosen.expect("the exact PTA reference is always well-formed");
    PreparedSpec {
        name: spec.name().to_owned(),
        vocab,
        workload,
        scenarios,
        mined_fa,
        session,
        reference,
        oracle,
        miner,
    }
}

/// `CableSession::new`, split at its public seams so the executed-
/// transition sweep and the Godin lattice build get spans of their own.
/// The `core.session_build` span includes copying the traces and FA in,
/// as the callers of `CableSession::new` do. `from_parts` then assembles
/// the session, grouping the traces a second time; that runs in a
/// [`BENCH_ONLY`] span of its own.
fn build_session(
    traces: &TraceSet,
    fa: &Fa,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> CableSession {
    let open = tracer.begin("core.session_build");
    let (traces, fa) = (traces.clone(), fa.clone());
    let classes = traces.identical_classes();
    let representatives: Vec<&Trace> = classes
        .iter()
        .map(|class| traces.trace(class.representative))
        .collect();
    let rows = tracer.time("fa.sweep", || {
        fa.executed_transitions_batch(&representatives)
    });
    let mut context = Context::new(classes.len(), fa.transition_count());
    for (c, executed) in rows.iter().enumerate() {
        for a in executed.iter() {
            context.add(c, a);
        }
    }
    let lattice = tracer.time("fca.lattice", || ConceptLattice::build(&context));
    counts.concepts += lattice.len() as u64;
    tracer.end(open);
    tracer.time(BENCH_ONLY, || {
        CableSession::from_parts(traces, fa, context, lattice)
            .expect("parts built from the session's own traces and FA")
    })
}

/// Checks every `mine` pass: each mined FA accepts every scenario and
/// each chosen session is well-formed for the oracle.
fn check_mine_pass(prepared: &[PreparedSpec]) -> Vec<String> {
    let mut problems = Vec::new();
    for p in prepared {
        if let Some((_, t)) = p.scenarios.iter().find(|(_, t)| !p.mined_fa.accepts(t)) {
            problems.push(format!(
                "mine: {}: mined FA rejects scenario {}",
                p.name,
                t.display(&p.vocab)
            ));
        }
        if !p.session.is_well_formed_for(|t| p.oracle.label(t)) {
            problems.push(format!(
                "mine: {}: chosen session is not well-formed",
                p.name
            ));
        }
    }
    problems
}

/// One Table 2 row as the baseline records it.
type Table2Key = (usize, String, usize, usize, usize);

/// A prepared spec's Table 2 row: unique traces, reference choice,
/// transitions, largest context row, concepts.
fn table2_row(p: &PreparedSpec) -> Table2Key {
    (
        p.session.classes().len(),
        p.reference.name(),
        p.session.reference_fa().transition_count(),
        p.session.context().max_row_size(),
        p.session.lattice().len(),
    )
}

/// What a traced `mine` pass must reproduce: each spec's Table 2 row.
fn mine_fingerprint(prepared: &[PreparedSpec]) -> Vec<(String, Table2Key)> {
    prepared
        .iter()
        .map(|p| (p.name.clone(), table2_row(p)))
        .collect()
}

/// The committed `table2_spec` rows at [`BASELINE_SEED`], by spec name.
fn baseline_rows(root: &std::path::Path) -> Result<BTreeMap<String, Table2Key>, String> {
    use cable::obs::json::Value;
    let path = root.join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Value::parse(line).map_err(|e| format!("BENCH_baseline.json: {e}"))?;
        if v.get("record").and_then(Value::as_str) != Some("table2_spec")
            || v.get("seed").and_then(Value::as_u64) != Some(BASELINE_SEED)
        {
            continue;
        }
        let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX) as usize;
        let name = v
            .get("spec")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let reference = v.get("reference").and_then(Value::as_str).unwrap_or("");
        rows.insert(
            name,
            (
                num("unique"),
                reference.to_owned(),
                num("transitions"),
                num("max_row"),
                num("concepts"),
            ),
        );
    }
    Ok(rows)
}

/// The golden check at [`BASELINE_SEED`]: Table 2 rows equal the
/// committed records, and Expert/Baseline totals are 157/916.
fn check_golden(root: &std::path::Path, prepared: &[PreparedSpec]) -> Vec<String> {
    let expected = match baseline_rows(root) {
        Ok(rows) => rows,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    if expected.len() != prepared.len() {
        problems.push(format!(
            "mine: baseline has {} table2_spec rows at seed {BASELINE_SEED}, the registry {}",
            expected.len(),
            prepared.len()
        ));
    }
    let (mut expert_total, mut baseline_total) = (0, 0);
    for p in prepared {
        let got = table2_row(p);
        if expected.get(&p.name) != Some(&got) {
            problems.push(format!(
                "mine: {} row {got:?} differs from the baseline {:?}",
                p.name,
                expected.get(&p.name)
            ));
        }
        baseline_total += strategy::baseline(&p.session).total();
        let label = |t: &Trace| p.oracle.label(t).to_owned();
        match strategy::expert(&mut p.session.clone(), &label) {
            Some(cost) => expert_total += cost.total(),
            None => problems.push(format!("mine: {}: Expert cannot reach the oracle", p.name)),
        }
    }
    if (expert_total, baseline_total) != EXPERT_BASELINE_TOTALS {
        problems.push(format!(
            "mine: Expert/Baseline totals {expert_total}/{baseline_total}, expected {}/{}",
            EXPERT_BASELINE_TOTALS.0, EXPERT_BASELINE_TOTALS.1
        ));
    }
    problems
}

/// The `mine` workload.
pub fn mine(cfg: &RunConfig) -> Report {
    let origin = Instant::now();
    let (setup_s, registry) = setup(cable::specs::registry);
    let mut golden = Vec::new();
    let mut passes = run_passes(
        cfg,
        origin,
        |seed, tracer, counts| mine_pass(&registry, seed, tracer, counts),
        |prepared| mine_fingerprint(prepared),
        |k, prepared| {
            if k == 0 && cfg.seed == BASELINE_SEED {
                golden.extend(check_golden(&cfg.root, prepared));
            }
            check_mine_pass(prepared)
        },
    );
    if cfg.seed != BASELINE_SEED {
        // Every run checks the committed rows, on an untimed pass when
        // its own first pass is not at the baseline seed.
        let mut off = Tracer::new(false, origin, 0);
        let prepared = mine_pass(&registry, BASELINE_SEED, &mut off, &mut Counts::default());
        golden = check_golden(&cfg.root, &prepared);
    }
    if !golden.is_empty() {
        passes.failed += 1;
        passes.notes.extend(golden);
    }
    finish(cfg, setup_s, passes, registry.len() as u64)
}

// ----------------------------------------------------------------------
// mutants
// ----------------------------------------------------------------------

/// One `mutants` pass: the mutation matrix.
fn mutants_pass(seed: u64, tracer: &mut Tracer, counts: &mut Counts) -> (Vec<MutationRow>, usize) {
    if !tracer.enabled() {
        let (rows, summary) = cable_bench::mutation_matrix(seed, MUTANTS_PER_FAMILY);
        return (rows, summary.equivalent_survivors);
    }
    matrix_traced(seed, MUTANTS_PER_FAMILY, tracer, counts)
}

/// What a traced `mutants` pass must reproduce: the row set and the
/// equivalent-survivor count.
fn mutants_fingerprint((rows, equivalent): &(Vec<MutationRow>, usize)) -> (u64, usize, usize) {
    (rows_digest(rows), rows.len(), *equivalent)
}

/// `cable_bench::mutation_matrix`, call for call, with a span around
/// each layer: mutant generation, the family corpus, each mutant's
/// session build and Expert run, and the survivors' equivalence
/// re-check. Returns the rows and the equivalent-survivor count.
fn matrix_traced(
    seed: u64,
    per_family: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<MutationRow>, usize) {
    let mut rows = Vec::new();
    let mut equivalent_survivors = 0;
    for (fam_idx, spec) in family_specs().iter().enumerate() {
        let family = tracer.begin("family");
        let mut vocab = Vocab::new();
        let truth = spec.ground_truth(&mut vocab);
        let (muts, stats) = tracer.time("mutate.generate", || {
            cable::mutate::mutants_with_stats(
                &truth,
                &mut vocab,
                derive_seed(seed, fam_idx as u64),
                per_family,
            )
        });
        counts.candidates += stats.candidates;
        counts.survivors += muts.len() as u64;
        let workload = tracer.time("workload.generate", || spec.generate(seed, &mut vocab));
        let scenarios = tracer.time("strauss.front", || {
            extract_scenarios(spec, &workload, &vocab)
        });
        let oracle = spec.oracle(&mut vocab);
        for (index, m) in muts.iter().enumerate() {
            let mut session = build_session(&scenarios, &m.fa, tracer, counts);
            let label = |t: &Trace| oracle.label(t).to_owned();
            let baseline = tracer.time("core.baseline", || strategy::baseline(&session).total());
            let expert = tracer.time("core.expert", || {
                strategy::expert(&mut session, &label).map(|c| c.total())
            });
            let row = tracer.begin("bench.row");
            rows.push(MutationRow {
                family: spec.name().to_owned(),
                mutant: index,
                kind: m.kind.name(),
                description: m.description.clone(),
                witness: m.witness_trace.display(&vocab).to_string(),
                witness_len: m.witness.len(),
                parent_accepts_witness: m.parent_accepts_witness,
                traces: scenarios.len(),
                unique: session.classes().len(),
                transitions: m.fa.transition_count(),
                concepts: session.lattice().len(),
                baseline,
                expert,
                saved: expert.map(|e| baseline.saturating_sub(e)),
            });
            drop(session);
            tracer.end(row);
        }
        equivalent_survivors += tracer.time("fa.equivalent", || {
            muts.iter().filter(|m| truth.equivalent(&m.fa)).count()
        });
        tracer.end(family);
    }
    (rows, equivalent_survivors)
}

/// A digest of a row set, to compare two runs of the matrix.
fn rows_digest(rows: &[MutationRow]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for r in rows {
        format!("{r:?}").hash(&mut h);
    }
    h.finish()
}

/// The `mutants` workload.
pub fn mutants(cfg: &RunConfig) -> Report {
    let origin = Instant::now();
    let (setup_s, _) = setup(family_specs);
    let mut first = None;
    let mut passes = run_passes(
        cfg,
        origin,
        mutants_pass,
        mutants_fingerprint,
        |k, (rows, equivalent)| {
            let mut problems = Vec::new();
            if *equivalent != 0 {
                problems.push(format!(
                    "mutants: pass {k}: {equivalent} equivalent survivors"
                ));
            }
            if rows.len() != 3 * MUTANTS_PER_FAMILY {
                problems.push(format!("mutants: pass {k}: {} rows", rows.len()));
            }
            if k == 0 && first.is_none() {
                first = Some(rows_digest(rows));
            }
            problems
        },
    );
    // The row set must repeat: recompute the first pass, untimed.
    let (rows, _) = cable_bench::mutation_matrix(cfg.seed, MUTANTS_PER_FAMILY);
    if Some(rows_digest(&rows)) != first {
        passes.failed += 1;
        passes
            .notes
            .push("mutants: the first pass's rows differ between two runs".into());
    }
    finish(cfg, setup_s, passes, 0)
}

fn finish(cfg: &RunConfig, setup_s: f64, passes: Passes, specs_per_pass: u64) -> Report {
    let slowdown = stats::median(&passes.slowdowns).expect("at least three passes");
    let metrics = if cfg.trace {
        let mut m = batch_layers(&passes, specs_per_pass);
        m.push(Metric::new(
            "fail_ratio",
            stats::fail_ratio(passes.walls.len() as u64, passes.failed).value(),
            "ratio",
        ));
        m
    } else {
        end_to_end(setup_s, &passes.cpus, slowdown)
    };
    Report {
        attempted: passes.walls.len() as u64,
        failed: passes.failed,
        metrics,
        spans: passes.spans,
        problems: passes.notes,
        info: vec![
            format!("{} passes, cpu s: {}", passes.cpus.len(), shown(&passes.cpus)),
            format!("wall s (ungated): {}", shown(&passes.walls)),
            format!(
                "host slowdown {slowdown:.4} (median of {}); set-up {setup_s:.9} s before dividing by it",
                passes.slowdowns.len()
            ),
        ],
    }
}

/// Seconds to three decimals, space-separated.
fn shown(seconds: &[f64]) -> String {
    let shown: Vec<String> = seconds.iter().map(|s| format!("{s:.3}")).collect();
    shown.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_prepare_matches_prepare() {
        let origin = Instant::now();
        let registry = cable::specs::registry();
        let mut tracer = Tracer::new(true, origin, 0);
        let mut counts = Counts::default();
        for spec in registry.iter() {
            let a = cable_bench::prepare(spec, 11);
            let b = prepare_traced(spec, 11, &mut tracer, &mut counts);
            assert_eq!(a.reference, b.reference, "{}", a.name);
            assert_eq!(format!("{:?}", a.mined_fa), format!("{:?}", b.mined_fa));
            assert_eq!(a.scenarios.len(), b.scenarios.len());
            let concepts = |p: &PreparedSpec| {
                p.session
                    .lattice()
                    .iter()
                    .map(|(_, c)| format!("{:?}/{:?}", c.extent, c.intent))
                    .collect::<Vec<_>>()
            };
            assert_eq!(concepts(&a), concepts(&b), "{}", a.name);
        }
        assert_eq!(counts.specs, 17);
        assert!(counts.sessions_built >= 17);
        let spans = tracer.take();
        for name in [
            "workload.generate",
            "strauss.front",
            "learn.mine",
            "select",
            "fca.lattice",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "{name}");
        }
    }

    #[test]
    fn traced_matrix_matches_the_matrix() {
        let (rows, summary) = cable_bench::mutation_matrix(7, 5);
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        let mut counts = Counts::default();
        let (traced, equivalent) = matrix_traced(7, 5, &mut tracer, &mut counts);
        assert_eq!(rows_digest(&rows), rows_digest(&traced));
        assert_eq!(equivalent, summary.equivalent_survivors);
        assert_eq!(counts.survivors, 15);
        assert_eq!(counts.candidates, summary.candidates);
    }

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn bench_only_time_is_left_out_of_layers_and_coverage() {
        // pass [0,100) ⊃ select [10,70) ⊃ core.session_build [10,40),
        // bench.reassemble [40,60) under select, and one more
        // bench.reassemble [80,90) under no layer; learn.mine [0,10).
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "learn.mine", 0, 10),
            span(3, Some(1), "select", 10, 70),
            span(4, Some(3), "core.session_build", 10, 40),
            span(5, Some(3), BENCH_ONLY, 40, 60),
            span(6, Some(1), BENCH_ONLY, 80, 90),
        ];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(layer_ms(&spans, 1, "select"), (60.0 - 20.0) / 1e6));
        assert!(close(layer_ms(&spans, 1, "core.session_build"), 30.0 / 1e6));
        // The program's pass is 100 - 30 = 70; layers cover 70 - 20 = 50.
        let group: Vec<&Span> = spans.iter().collect();
        assert_eq!(program_ns(&spans[0], &group), 70);
        assert!((min_coverage_pct(&spans) - 100.0 * 50.0 / 70.0).abs() < 1e-9);
        assert_eq!(bench_only_ns(&spans), 30);
    }

    #[test]
    fn pass_seeds_start_at_the_workload_seed_and_never_repeat() {
        assert_eq!(pass_seed(2003, 0), 2003);
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|k| pass_seed(2003, k)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(pass_seed(9, 3), pass_seed(9, 3));
    }
}
