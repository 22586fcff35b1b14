//! The incremental sk-strings learner against the restart learner it
//! replaced, kept here verbatim as a test oracle.
//!
//! The oracle recomputes every state's k-string distribution each round,
//! takes the first pair from the equal-top-set buckets or else from a
//! full pairwise subset scan, merges it by rebuilding the transition
//! table, and restarts. The learner under test must mine a `CountedFa`
//! equal to the oracle's — same states, same transitions in the same
//! order, same counts — on every registry specification and on seeded
//! random corpora.

use cable_fa::EventPat;
use cable_learn::{CountedFa, Pta, SkStrings};
use cable_trace::{Event, Trace, Var, Vocab};
use cable_util::rng::{derive_seed, seeded, Rng, SmallRng};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// The `(k, s%)` settings of the learner sweep (§2.1 step 1b).
const SETTINGS: [(usize, f64); 5] = [(1, 50.0), (2, 50.0), (2, 100.0), (3, 100.0), (4, 100.0)];

// ---------------------------------------------------------------------
// The restart learner (oracle).
// ---------------------------------------------------------------------

/// The counted automaton of the restart learner: a flat transition
/// list, renumbered on every merge.
#[derive(Debug, Clone)]
struct OracleFa {
    n_states: usize,
    start: usize,
    transitions: Vec<(usize, EventPat, usize, u64)>,
    accept_counts: Vec<u64>,
}

type Dist = HashMap<Vec<EventPat>, f64>;

impl OracleFa {
    fn from_counted(fa: &CountedFa) -> OracleFa {
        OracleFa {
            n_states: fa.state_count(),
            start: fa.start(),
            transitions: fa.transitions().to_vec(),
            accept_counts: (0..fa.state_count()).map(|s| fa.accept_count(s)).collect(),
        }
    }

    fn into_counted(self) -> CountedFa {
        CountedFa::new(
            self.n_states,
            self.start,
            self.transitions,
            self.accept_counts,
        )
    }

    fn total_out(&self, s: usize) -> u64 {
        self.accept_counts[s]
            + self
                .transitions
                .iter()
                .filter(|(src, _, _, _)| *src == s)
                .map(|(_, _, _, c)| c)
                .sum::<u64>()
    }

    fn outgoing(&self, s: usize) -> impl Iterator<Item = &(usize, EventPat, usize, u64)> {
        self.transitions
            .iter()
            .filter(move |(src, _, _, _)| *src == s)
    }

    fn merge(&self, a: usize, b: usize) -> OracleFa {
        assert!(a != b, "cannot merge a state with itself");
        assert!(a < self.n_states && b < self.n_states, "state out of range");
        let (keep, drop) = if a < b { (a, b) } else { (b, a) };
        let remap = |s: usize| {
            if s == drop {
                keep
            } else if s > drop {
                s - 1
            } else {
                s
            }
        };
        let mut merged: HashMap<(usize, EventPat, usize), u64> = HashMap::new();
        let mut order: Vec<(usize, EventPat, usize)> = Vec::new();
        for (src, pat, dst, count) in &self.transitions {
            let key = (remap(*src), pat.clone(), remap(*dst));
            match merged.get_mut(&key) {
                Some(c) => *c += count,
                None => {
                    merged.insert(key.clone(), *count);
                    order.push(key);
                }
            }
        }
        let transitions = order
            .into_iter()
            .map(|key| {
                let count = merged[&key];
                (key.0, key.1, key.2, count)
            })
            .collect();
        let mut accept_counts = Vec::with_capacity(self.n_states - 1);
        for s in 0..self.n_states {
            if s == drop {
                continue;
            }
            let mut c = self.accept_counts[s];
            if s == keep {
                c += self.accept_counts[drop];
            }
            accept_counts.push(c);
        }
        OracleFa {
            n_states: self.n_states - 1,
            start: remap(self.start),
            transitions,
            accept_counts,
        }
    }

    #[allow(clippy::map_entry)]
    fn k_strings_memo(&self, s: usize, k: usize, memo: &mut HashMap<(usize, usize), Dist>) -> Dist {
        if let Some(d) = memo.get(&(s, k)) {
            return d.clone();
        }
        let mut dist: Dist = HashMap::new();
        let total = self.total_out(s);
        if total == 0 {
            dist.insert(Vec::new(), 1.0);
            memo.insert((s, k), dist.clone());
            return dist;
        }
        let stop_p = self.accept_counts[s] as f64 / total as f64;
        if stop_p > 0.0 {
            dist.insert(Vec::new(), stop_p);
        }
        if k > 0 {
            let outgoing: Vec<(EventPat, usize, u64)> = self
                .outgoing(s)
                .map(|(_, p, d, c)| (p.clone(), *d, *c))
                .collect();
            for (pat, dst, count) in outgoing {
                let p = count as f64 / total as f64;
                let sub = self.k_strings_memo(dst, k - 1, memo);
                for (string, sp) in sub {
                    let mut key = Vec::with_capacity(string.len() + 1);
                    key.push(pat.clone());
                    key.extend(string);
                    *dist.entry(key).or_insert(0.0) += p * sp;
                }
            }
        } else {
            *dist.entry(Vec::new()).or_insert(0.0) += 1.0 - stop_p;
        }
        memo.insert((s, k), dist.clone());
        dist
    }

    fn k_strings_all(&self, k: usize) -> Vec<Dist> {
        let mut memo: HashMap<(usize, usize), Dist> = HashMap::new();
        (0..self.n_states)
            .map(|s| self.k_strings_memo(s, k, &mut memo))
            .collect()
    }
}

fn top_strings(dist: &Dist, s_percent: f64) -> Vec<Vec<EventPat>> {
    let mut entries: Vec<(&Vec<EventPat>, f64)> = dist.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("probabilities are not NaN")
            .then_with(|| a.0.cmp(b.0))
    });
    let threshold = s_percent / 100.0;
    let mut cum = 0.0;
    let mut out = Vec::new();
    for (string, p) in entries {
        out.push(string.clone());
        cum += p;
        if cum >= threshold {
            break;
        }
    }
    out
}

/// Which pass of the oracle found a merge pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Bucket,
    Scan,
}

fn find_equivalent_pair(fa: &OracleFa, k: usize, s_percent: f64) -> Option<(usize, usize, Path)> {
    let n = fa.state_count();
    let dists = fa.k_strings_all(k);
    let keys: Vec<HashSet<&Vec<EventPat>>> = dists.iter().map(|d| d.keys().collect()).collect();
    let tops: Vec<Vec<Vec<EventPat>>> = (0..n).map(|s| top_strings(&dists[s], s_percent)).collect();
    let mut buckets: HashMap<Vec<Vec<EventPat>>, usize> = HashMap::new();
    for (s, top) in tops.iter().enumerate() {
        let mut sorted = top.clone();
        sorted.sort();
        if let Some(&other) = buckets.get(&sorted) {
            return Some((other, s, Path::Bucket));
        }
        buckets.insert(sorted, s);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if tops[a].iter().all(|s| keys[b].contains(s))
                && tops[b].iter().all(|s| keys[a].contains(s))
            {
                return Some((a, b, Path::Scan));
            }
        }
    }
    None
}

impl OracleFa {
    fn state_count(&self) -> usize {
        self.n_states
    }
}

/// Bucket and scan merges of one oracle run.
#[derive(Debug, Default, Clone, Copy)]
struct Paths {
    bucket: usize,
    scan: usize,
}

impl std::ops::AddAssign for Paths {
    fn add_assign(&mut self, other: Paths) {
        self.bucket += other.bucket;
        self.scan += other.scan;
    }
}

/// The restart learner: merge the first equivalent pair, renumber,
/// restart.
fn oracle_learn(traces: &[Trace], k: usize, s_percent: f64) -> (CountedFa, Paths) {
    let mut fa = OracleFa::from_counted(&Pta::build(traces).to_counted());
    let mut paths = Paths::default();
    while let Some((a, b, path)) = find_equivalent_pair(&fa, k, s_percent) {
        match path {
            Path::Bucket => paths.bucket += 1,
            Path::Scan => paths.scan += 1,
        }
        fa = fa.merge(a, b);
    }
    (fa.into_counted(), paths)
}

// ---------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------

/// The scenario corpus a registry spec mines from at `seed`: the front
/// end's extractions, less the uninteresting ones (as the table
/// pipeline does).
fn scenario_corpus(spec: &cable_specs::SpecDef, seed: u64) -> Vec<Trace> {
    let mut vocab = Vocab::new();
    let workload = spec.generate(seed, &mut vocab);
    cable_strauss::FrontEnd::new(spec.seeds())
        .extract_all(&workload, &vocab)
        .iter()
        .map(|(_, t)| t.clone())
        .filter(|t| spec.is_interesting(t, &vocab))
        .collect()
}

/// A random corpus over a three-letter alphabet: traces share one of a
/// few prefixes and then wander, so the PTA has shared trunks whose
/// merged states grow parallel same-label edges. One trace in eight is
/// empty, so the root can stop.
fn random_corpus(rng: &mut SmallRng, vocab: &mut Vocab) -> Vec<Trace> {
    let letters = 3usize;
    let prefixes: Vec<Vec<usize>> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            (0..rng.gen_range(1usize..4))
                .map(|_| rng.gen_range(0..letters))
                .collect()
        })
        .collect();
    let n = rng.gen_range(4usize..24);
    (0..n)
        .map(|_| {
            let mut ops = prefixes[rng.gen_range(0..prefixes.len())].clone();
            for _ in 0..rng.gen_range(0usize..7) {
                ops.push(rng.gen_range(0..letters));
            }
            if rng.gen_range(0usize..8) == 0 {
                ops.clear();
            }
            Trace::new(
                ops.iter()
                    .map(|&i| Event::on_var(vocab.op(&format!("op{i}")), Var(0)))
                    .collect(),
            )
        })
        .collect()
}

/// Parallel same-label edges of a counted automaton: transitions that
/// share a source and a label with an earlier one (but not its target).
fn parallel_edges(fa: &CountedFa) -> usize {
    let mut seen: HashSet<(usize, &EventPat)> = HashSet::new();
    fa.transitions()
        .iter()
        .filter(|(src, pat, _, _)| !seen.insert((*src, pat)))
        .count()
}

fn assert_same(traces: &[Trace], k: usize, s_percent: f64, what: &str) -> (Paths, usize) {
    let (expected, paths) = oracle_learn(traces, k, s_percent);
    let got = SkStrings { k, s_percent }.learn_counted(traces);
    assert_eq!(got, expected, "{what} (k={k}, s={s_percent})");
    (paths, parallel_edges(&got))
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// 2003 and 8191, plus ten seeds derived from 2003.
fn registry_seeds() -> Vec<u64> {
    let mut seeds = vec![2003, 8191];
    seeds.extend((0..10).map(|k| derive_seed(2003, k)));
    seeds
}

/// Every registry spec's scenario corpus at every seed, built once and
/// shared by the per-setting tests.
fn registry_corpora() -> &'static [(String, Vec<Trace>)] {
    static CORPORA: OnceLock<Vec<(String, Vec<Trace>)>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let registry = cable_specs::registry();
        let mut corpora = Vec::new();
        for seed in registry_seeds() {
            for spec in registry.iter() {
                let what = format!("{} at seed {seed}", spec.name());
                corpora.push((what, scenario_corpus(spec, seed)));
            }
        }
        corpora
    })
}

fn registry_matches_the_oracle(setting: usize) -> Paths {
    let (k, s) = SETTINGS[setting];
    let mut paths = Paths::default();
    for (what, corpus) in registry_corpora() {
        paths += assert_same(corpus, k, s, what).0;
    }
    paths
}

#[test]
fn registry_specs_mine_the_oracle_fa_at_k1_s50() {
    let paths = registry_matches_the_oracle(0);
    assert!(paths.bucket > 0 && paths.scan > 0, "{paths:?}");
}

#[test]
fn registry_specs_mine_the_oracle_fa_at_k2_s50() {
    let paths = registry_matches_the_oracle(1);
    assert!(paths.bucket > 0 && paths.scan > 0, "{paths:?}");
}

#[test]
fn registry_specs_mine_the_oracle_fa_at_k2_s100() {
    assert!(registry_matches_the_oracle(2).bucket > 0);
}

#[test]
fn registry_specs_mine_the_oracle_fa_at_k3_s100() {
    assert!(registry_matches_the_oracle(3).bucket > 0);
}

#[test]
fn registry_specs_mine_the_oracle_fa_at_k4_s100() {
    assert!(registry_matches_the_oracle(4).bucket > 0);
}

#[test]
fn random_corpora_mine_the_oracle_fa() {
    let mut paths = Paths::default();
    let mut most_parallel = 0;
    for case in 0..200u64 {
        let mut rng = seeded(derive_seed(8191, case));
        let mut vocab = Vocab::new();
        let corpus = random_corpus(&mut rng, &mut vocab);
        for (k, s) in SETTINGS {
            let (p, parallel) = assert_same(&corpus, k, s, &format!("random case {case}"));
            paths += p;
            most_parallel = most_parallel.max(parallel);
        }
    }
    // Parallel same-label edges are what make the f64 summation order
    // of a distribution matter; the corpus must produce them.
    assert!(most_parallel >= 3, "at most {most_parallel} parallel edges");
    assert!(paths.bucket > 0 && paths.scan > 0, "{paths:?}");
}

#[test]
fn scan_merges_are_counted() {
    let registry = cable_specs::registry();
    let spec = registry.spec("RegionsBig").expect("known spec");
    let corpus = scenario_corpus(spec, 2003);
    let counter = |name: &str| cable_obs::registry().snapshot().counter(name).unwrap_or(0);
    let before = counter("learn.sk.scan_merges");
    let (_, paths) = oracle_learn(&corpus, 2, 50.0);
    let _ = SkStrings::default().learn_counted(&corpus);
    assert!(paths.scan > 0, "{paths:?}");
    // Counters are process-wide and other tests learn concurrently, so
    // only a lower bound holds.
    assert!(counter("learn.sk.scan_merges") - before >= paths.scan as u64);
}
