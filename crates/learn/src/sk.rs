//! The sk-strings learner of Raman & Patrick.
//!
//! Starting from the PTA, repeatedly merge pairs of states whose
//! *stochastic k-strings* agree: the top `s`% most probable strings of
//! length ≤ `k` producible from one state must all be producible from the
//! other, and vice versa (the "AND" acceptance criterion). Merging stops
//! at a fixpoint.
//!
//! Larger `k` and `s` make finer distinctions (less merging, bigger FA);
//! the paper exploits exactly this dial when choosing reference FAs for
//! clustering (§2.1 step 1b).
//!
//! # Incremental merging
//!
//! The learner keeps every state's k-string distributions (at each depth
//! `0..=k`), its top set, and the buckets of states with equal top sets
//! across merges. States keep their PTA ids; a merge folds the higher id
//! into the lower, rewrites the edges that touch the dropped state, and
//! then recomputes only what can have changed: the distributions, top
//! sets and bucket places of the states within `k` backward steps of the
//! survivor. Each transition carries the smallest PTA transition index
//! among the edges collapsed into it, and out-lists stay sorted by it, so
//! probabilities are summed in the same order as in the flat transition
//! table of a [`CountedFa`]. The mined automaton is therefore the one the
//! plain algorithm — recompute everything, merge the first equivalent
//! pair in state order, renumber, restart — produces, bit for bit
//! (DESIGN.md §5, "Incremental sk-strings", gives the invariants).

use crate::counted::CountedFa;
use crate::pta::Pta;
use cable_fa::{EventPat, Fa};
use cable_obs::{CounterHandle, HistogramHandle, Span};
use cable_trace::Trace;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Wall-clock cost of `learn_counted` calls.
static SK_NS: HistogramHandle = HistogramHandle::new("learn.sk_ns");
/// State merges.
static MERGES: CounterHandle = CounterHandle::new("learn.sk.merges");
/// Merges whose pair came from the equal-top-set buckets.
static BUCKET_MERGES: CounterHandle = CounterHandle::new("learn.sk.bucket_merges");
/// Merges whose pair came from the pairwise subset scan.
static SCAN_MERGES: CounterHandle = CounterHandle::new("learn.sk.scan_merges");
/// State distributions (re)computed: every state once, then the
/// neighbourhood of each merge.
static RECOMPUTES: CounterHandle = CounterHandle::new("learn.sk.recomputes");
/// Pairs tested by the subset scan.
static PAIR_CHECKS: CounterHandle = CounterHandle::new("learn.sk.pair_checks");

/// Configuration of the sk-strings learner.
///
/// # Examples
///
/// ```
/// use cable_learn::SkStrings;
/// let fine = SkStrings { k: 3, s_percent: 100.0 };
/// let coarse = SkStrings::default(); // k = 2, s = 50%
/// assert!(fine.k > coarse.k);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkStrings {
    /// Maximum string length considered.
    pub k: usize,
    /// Probability mass (0–100] that the compared string sets must cover.
    pub s_percent: f64,
}

impl Default for SkStrings {
    /// `k = 2`, `s = 50%` — a mid-granularity setting that merges loop
    /// bodies but keeps call-order distinctions.
    fn default() -> Self {
        SkStrings {
            k: 2,
            s_percent: 50.0,
        }
    }
}

impl SkStrings {
    /// Learns an automaton from traces, returning the merged
    /// counted automaton (with frequencies, for coring).
    ///
    /// Agglomerative merging to a fixpoint. Each round takes the pair
    /// `(smallest, second-smallest)` of the equal-top-set bucket whose
    /// second-smallest state is smallest; if every top set is distinct,
    /// the first pair in state order that passes the mutual subset test.
    /// The higher state folds into the lower, and only the states within
    /// `k` backward steps of the survivor are recomputed.
    pub fn learn_counted(&self, traces: &[Trace]) -> CountedFa {
        let _span = Span::enter("learn.sk", &SK_NS);
        let mut learner = Learner::new(&Pta::build(traces).to_counted(), *self);
        while let Some((keep, drop, from_bucket)) = learner.equivalent_pair() {
            if from_bucket {
                learner.tally.bucket_merges += 1;
            } else {
                learner.tally.scan_merges += 1;
            }
            learner.merge(keep, drop);
        }
        let tally = learner.tally;
        MERGES.get().add(tally.bucket_merges + tally.scan_merges);
        BUCKET_MERGES.get().add(tally.bucket_merges);
        SCAN_MERGES.get().add(tally.scan_merges);
        RECOMPUTES.get().add(tally.recomputes);
        PAIR_CHECKS.get().add(tally.pair_checks);
        learner.into_counted()
    }

    /// Learns an automaton from traces.
    pub fn learn(&self, traces: &[Trace]) -> Fa {
        self.learn_counted(traces).to_fa()
    }
}

/// An interned k-string; [`EPSILON`] is the empty string.
type StrId = u32;

/// The empty k-string.
const EPSILON: StrId = 0;

/// Interned k-strings over interned labels. A non-empty string is its
/// first label consed onto the id of its tail, so one representation
/// serves every `k`, and equal strings have equal ids.
#[derive(Debug)]
struct Strings {
    /// `(first label, tail)` of each string, by id (slot 0 is ε).
    parts: Vec<(u32, StrId)>,
    ids: HashMap<(u32, StrId), StrId>,
}

impl Strings {
    fn new() -> Strings {
        Strings {
            parts: vec![(u32::MAX, EPSILON)],
            ids: HashMap::new(),
        }
    }

    /// The string `label · tail`.
    fn cons(&mut self, label: u32, tail: StrId) -> StrId {
        let parts = &mut self.parts;
        *self.ids.entry((label, tail)).or_insert_with(|| {
            parts.push((label, tail));
            StrId::try_from(parts.len() - 1).expect("fewer than 2^32 k-strings")
        })
    }

    /// Lexicographic order on label sequences (a proper prefix sorts
    /// first). Labels are numbered in `EventPat` order, so this is the
    /// order of the strings as `Vec<EventPat>`.
    fn cmp(&self, mut a: StrId, mut b: StrId) -> Ordering {
        loop {
            if a == b {
                return Ordering::Equal;
            }
            if a == EPSILON {
                return Ordering::Less;
            }
            if b == EPSILON {
                return Ordering::Greater;
            }
            let (la, ta) = self.parts[a as usize];
            let (lb, tb) = self.parts[b as usize];
            if la != lb {
                return la.cmp(&lb);
            }
            a = ta;
            b = tb;
        }
    }
}

/// A k-string distribution: `(string, probability)`, sorted by string id.
type Dist = Vec<(StrId, f64)>;

/// A transition out of a state.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// The smallest PTA transition index among the edges collapsed into
    /// this one: the edge's position in the flat transition order.
    seq: usize,
    label: u32,
    dst: usize,
    count: u64,
}

/// Per-call tallies, added to the process counters once at the end.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    bucket_merges: u64,
    scan_merges: u64,
    recomputes: u64,
    pair_checks: u64,
}

/// The learner's state between merges. States are PTA ids; a merged-away
/// state is dead and owns nothing.
#[derive(Debug)]
struct Learner {
    config: SkStrings,
    /// Label id → pattern, ascending (ids follow `EventPat` order).
    pats: Vec<EventPat>,
    alive: Vec<bool>,
    accept: Vec<u64>,
    /// End-of-trace count plus outgoing edge counts.
    total: Vec<u64>,
    /// Out-edges, sorted by `seq`.
    out: Vec<Vec<Edge>>,
    /// Distinct live predecessors, sorted.
    preds: Vec<Vec<usize>>,
    /// `dists[d][s]`: the depth-`d` k-string distribution of `s`.
    dists: Vec<Vec<Dist>>,
    /// The top-`s`% strings of each state's depth-`k` distribution,
    /// sorted by id (the state's bucket key).
    tops: Vec<Vec<StrId>>,
    /// Live states by top set.
    buckets: HashMap<Vec<StrId>, BTreeSet<usize>>,
    /// `(second, first)` smallest members of every bucket with two or
    /// more: the first entry is the bucket pass's pair.
    ready: BTreeSet<(usize, usize)>,
    strings: Strings,
    /// Scratch for [`Learner::distribution`]: position + 1 of each
    /// string in the distribution being built, 0 if absent (ε, which
    /// only the stop probability adds, keeps 0).
    slot: Vec<u32>,
    tally: Tally,
}

impl Learner {
    fn new(pta: &CountedFa, config: SkStrings) -> Learner {
        let n = pta.state_count();
        let mut pats: Vec<EventPat> = pta.transitions().iter().map(|t| t.1.clone()).collect();
        pats.sort();
        pats.dedup();
        let mut out = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut total: Vec<u64> = (0..n).map(|s| pta.accept_count(s)).collect();
        for (seq, (src, pat, dst, count)) in pta.transitions().iter().enumerate() {
            let label = pats.binary_search(pat).expect("interned label");
            let label = u32::try_from(label).expect("fewer than 2^32 labels");
            out[*src].push(Edge {
                seq,
                label,
                dst: *dst,
                count: *count,
            });
            preds[*dst].push(*src);
            total[*src] += count;
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        let mut learner = Learner {
            config,
            pats,
            alive: vec![true; n],
            accept: (0..n).map(|s| pta.accept_count(s)).collect(),
            total,
            out,
            preds,
            dists: vec![vec![Vec::new(); n]; config.k + 1],
            tops: vec![Vec::new(); n],
            buckets: HashMap::new(),
            ready: BTreeSet::new(),
            strings: Strings::new(),
            slot: vec![0],
            tally: Tally::default(),
        };
        let all: Vec<(usize, usize)> = (0..n).map(|s| (s, 0)).collect();
        learner.refresh(&all);
        learner
    }

    /// The next pair to merge, `(keep, drop, from_bucket)` with
    /// `keep < drop`, or `None` at the fixpoint.
    fn equivalent_pair(&mut self) -> Option<(usize, usize, bool)> {
        if let Some(&(second, first)) = self.ready.first() {
            return Some((first, second, true));
        }
        let live: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
        let k = self.config.k;
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                self.tally.pair_checks += 1;
                if covers(&self.dists[k][b], &self.tops[a])
                    && covers(&self.dists[k][a], &self.tops[b])
                {
                    return Some((a, b, false));
                }
            }
        }
        None
    }

    /// Folds `drop` into `keep` (`keep < drop`): edges into `drop` now
    /// enter `keep`, `drop`'s edges leave `keep`, and parallel edges with
    /// the same label and target collapse into the earliest, summing
    /// counts. Then recomputes `keep`'s backward `k`-neighbourhood.
    fn merge(&mut self, keep: usize, drop: usize) {
        debug_assert!(keep < drop && self.alive[keep] && self.alive[drop]);
        self.leave_bucket(drop);
        self.alive[drop] = false;
        for dists in &mut self.dists {
            dists[drop] = Vec::new();
        }
        let drop_preds = std::mem::take(&mut self.preds[drop]);
        let drop_out = std::mem::take(&mut self.out[drop]);
        let redirect = |e: &mut Edge| {
            if e.dst == drop {
                e.dst = keep;
            }
        };
        for &p in &drop_preds {
            if p != drop && p != keep {
                self.out[p].iter_mut().for_each(redirect);
                collapse(&mut self.out[p]);
            }
        }
        let mut succs: Vec<usize> = drop_out.iter().map(|e| e.dst).collect();
        succs.sort_unstable();
        succs.dedup();
        for x in succs {
            if x != drop && x != keep {
                let preds = &mut self.preds[x];
                preds.retain(|&p| p != drop);
                if let Err(at) = preds.binary_search(&keep) {
                    preds.insert(at, keep);
                }
            }
        }
        let mut merged = std::mem::take(&mut self.out[keep]);
        merged.extend(drop_out);
        merged.sort_by_key(|e| e.seq);
        merged.iter_mut().for_each(redirect);
        collapse(&mut merged);
        self.out[keep] = merged;
        let mut preds = std::mem::take(&mut self.preds[keep]);
        preds.extend(drop_preds);
        for p in &mut preds {
            if *p == drop {
                *p = keep;
            }
        }
        preds.sort_unstable();
        preds.dedup();
        self.preds[keep] = preds;
        self.accept[keep] += self.accept[drop];
        self.total[keep] += self.total[drop];

        let mut region = vec![(keep, 0)];
        let mut seen = vec![false; self.alive.len()];
        seen[keep] = true;
        let mut frontier = 0;
        for depth in 1..=self.config.k {
            let end = region.len();
            for i in frontier..end {
                for &p in &self.preds[region[i].0] {
                    if !std::mem::replace(&mut seen[p], true) {
                        region.push((p, depth));
                    }
                }
            }
            frontier = end;
        }
        self.refresh(&region);
    }

    /// Recomputes the distributions, top sets and buckets of `region`:
    /// `(state, backward distance to the change)`. A state's depth-`d`
    /// distribution only depends on states within `d` forward steps, so
    /// depths below its distance are still current.
    fn refresh(&mut self, region: &[(usize, usize)]) {
        for d in 0..=self.config.k {
            for &(s, distance) in region {
                if distance <= d {
                    let dist = self.distribution(s, d);
                    self.dists[d][s] = dist;
                }
            }
        }
        for &(s, _) in region {
            self.leave_bucket(s);
            let top = top_set(
                &self.dists[self.config.k][s],
                self.config.s_percent,
                &self.strings,
            );
            self.join_bucket(s, top);
        }
        self.tally.recomputes += region.len() as u64;
    }

    /// The depth-`d` k-string distribution of `s`: each string of up to
    /// `d` labels with the probability of producing it (stopping early
    /// contributes the stop probability to the shorter string, and at
    /// depth 0 all remaining mass goes to ε, so it sums to 1). Reads the
    /// depth-`d - 1` distributions of the successors.
    fn distribution(&mut self, s: usize, d: usize) -> Dist {
        let total = self.total[s];
        if total == 0 {
            // A dead state produces nothing; treat as stopping.
            return vec![(EPSILON, 1.0)];
        }
        let stop_p = self.accept[s] as f64 / total as f64;
        let mut dist: Dist = Vec::new();
        if stop_p > 0.0 {
            dist.push((EPSILON, stop_p));
        }
        if d == 0 {
            match dist.first_mut() {
                Some(eps) => eps.1 += 1.0 - stop_p,
                None => dist.push((EPSILON, 1.0 - stop_p)),
            }
            return dist;
        }
        // Per string, contributions add up in edge order.
        for e in &self.out[s] {
            let p = e.count as f64 / total as f64;
            for &(tail, sp) in &self.dists[d - 1][e.dst] {
                let string = self.strings.cons(e.label, tail);
                if self.slot.len() <= string as usize {
                    self.slot.resize(self.strings.parts.len(), 0);
                }
                match self.slot[string as usize] {
                    0 => {
                        dist.push((string, p * sp));
                        self.slot[string as usize] = dist.len() as u32;
                    }
                    at => dist[at as usize - 1].1 += p * sp,
                }
            }
        }
        for &(string, _) in &dist {
            self.slot[string as usize] = 0;
        }
        dist.sort_unstable_by_key(|&(string, _)| string);
        dist
    }

    fn leave_bucket(&mut self, s: usize) {
        let top = std::mem::take(&mut self.tops[s]);
        if top.is_empty() {
            return;
        }
        let members = self.buckets.get_mut(&top).expect("state is in its bucket");
        if let Some(entry) = ready_entry(members) {
            self.ready.remove(&entry);
        }
        members.remove(&s);
        if let Some(entry) = ready_entry(members) {
            self.ready.insert(entry);
        }
        if members.is_empty() {
            self.buckets.remove(&top);
        }
    }

    fn join_bucket(&mut self, s: usize, top: Vec<StrId>) {
        let members = self.buckets.entry(top.clone()).or_default();
        if let Some(entry) = ready_entry(members) {
            self.ready.remove(&entry);
        }
        members.insert(s);
        if let Some(entry) = ready_entry(members) {
            self.ready.insert(entry);
        }
        self.tops[s] = top;
    }

    /// The merged automaton: live states renumbered densely in id order,
    /// transitions in `seq` order.
    fn into_counted(self) -> CountedFa {
        let mut dense = vec![usize::MAX; self.alive.len()];
        let live: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
        for (i, &s) in live.iter().enumerate() {
            dense[s] = i;
        }
        let mut edges: Vec<(usize, Edge)> = live
            .iter()
            .flat_map(|&s| self.out[s].iter().map(move |e| (s, *e)))
            .collect();
        edges.sort_by_key(|(_, e)| e.seq);
        let transitions = edges
            .into_iter()
            .map(|(s, e)| {
                (
                    dense[s],
                    self.pats[e.label as usize].clone(),
                    dense[e.dst],
                    e.count,
                )
            })
            .collect();
        let accept = live.iter().map(|&s| self.accept[s]).collect();
        CountedFa::new(live.len(), dense[0], transitions, accept)
    }
}

/// Collapses edges with the same label and target into the earliest
/// (smallest `seq`), summing counts. `edges` is sorted by `seq`.
fn collapse(edges: &mut Vec<Edge>) {
    let mut kept: Vec<Edge> = Vec::with_capacity(edges.len());
    for e in edges.drain(..) {
        match kept
            .iter_mut()
            .find(|k| k.label == e.label && k.dst == e.dst)
        {
            Some(k) => k.count += e.count,
            None => kept.push(e),
        }
    }
    *edges = kept;
}

/// Whether every string of `top` has positive probability in `dist`.
fn covers(dist: &Dist, top: &[StrId]) -> bool {
    top.iter()
        .all(|s| dist.binary_search_by_key(s, |&(string, _)| string).is_ok())
}

/// A bucket's entry in `Learner::ready`: its `(second, first)` smallest
/// members, if it has two.
fn ready_entry(members: &BTreeSet<usize>) -> Option<(usize, usize)> {
    let mut it = members.iter().copied();
    let first = it.next()?;
    Some((it.next()?, first))
}

/// The top-`s`% strings of a distribution: the smallest prefix of its
/// strings, by descending probability and then ascending string, whose
/// cumulative mass reaches `s_percent`/100. Returned sorted by id.
fn top_set(dist: &Dist, s_percent: f64, strings: &Strings) -> Vec<StrId> {
    let mut entries = dist.clone();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("probabilities are not NaN")
            .then_with(|| strings.cmp(a.0, b.0))
    });
    let threshold = s_percent / 100.0;
    let mut cum = 0.0;
    let mut out = Vec::new();
    for (string, p) in entries {
        out.push(string);
        cum += p;
        if cum >= threshold {
            break;
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_trace::{Trace, Vocab};

    fn traces(texts: &[&str], v: &mut Vocab) -> Vec<Trace> {
        texts.iter().map(|t| Trace::parse(t, v).unwrap()).collect()
    }

    fn learner(texts: &[&str], v: &mut Vocab, k: usize, s_percent: f64) -> Learner {
        let pta = Pta::build(&traces(texts, v)).to_counted();
        Learner::new(&pta, SkStrings { k, s_percent })
    }

    impl Learner {
        /// A string as its labels.
        fn labels(&self, mut string: StrId) -> Vec<EventPat> {
            let mut out = Vec::new();
            while string != EPSILON {
                let (label, tail) = self.strings.parts[string as usize];
                out.push(self.pats[label as usize].clone());
                string = tail;
            }
            out
        }

        /// The depth-`d` distribution of `s` keyed by label sequences.
        fn dist_of(&self, s: usize, d: usize) -> HashMap<Vec<EventPat>, f64> {
            self.dists[d][s]
                .iter()
                .map(|&(string, p)| (self.labels(string), p))
                .collect()
        }
    }

    fn pat(text: &str, v: &mut Vocab) -> EventPat {
        EventPat::exact(&Trace::parse(text, v).unwrap().events()[0])
    }

    #[test]
    fn learns_a_loop() {
        let mut v = Vocab::new();
        let ts = traces(
            &[
                "open(X) close(X)",
                "open(X) read(X) close(X)",
                "open(X) read(X) read(X) close(X)",
            ],
            &mut v,
        );
        let fa = SkStrings::default().learn(&ts);
        // Training traces still accepted.
        for t in &ts {
            assert!(fa.accepts(t), "training trace rejected");
        }
        // Generalisation: more reads.
        let more =
            Trace::parse("open(X) read(X) read(X) read(X) read(X) close(X)", &mut v).unwrap();
        assert!(fa.accepts(&more));
        // But not garbage.
        let garbage = Trace::parse("read(X) open(X)", &mut v).unwrap();
        assert!(!fa.accepts(&garbage));
        // And the FA is smaller than the PTA (7 nodes).
        assert!(fa.state_count() < 7);
    }

    #[test]
    fn full_s_and_large_k_learn_exactly_on_distinct_traces() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) b(X)", "c(X) d(X)"], &mut v);
        let fa = SkStrings {
            k: 4,
            s_percent: 100.0,
        }
        .learn(&ts);
        for t in &ts {
            assert!(fa.accepts(t));
        }
        // No cross-contamination between the two branches.
        assert!(!fa.accepts(&Trace::parse("a(X) d(X)", &mut v).unwrap()));
        assert!(!fa.accepts(&Trace::parse("c(X) b(X)", &mut v).unwrap()));
    }

    #[test]
    fn merges_identical_suffixes() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) z(X)", "b(X) z(X)"], &mut v);
        let fa = SkStrings {
            k: 2,
            s_percent: 100.0,
        }
        .learn(&ts);
        // The two post-a / post-b states have identical k-strings {z}, so
        // they merge: 4 states instead of the PTA's 5.
        assert!(fa.state_count() <= 4);
        for t in &ts {
            assert!(fa.accepts(t));
        }
    }

    #[test]
    fn empty_training_set() {
        let fa = SkStrings::default().learn(&[]);
        assert_eq!(fa.state_count(), 1);
        assert!(!fa.accepts(&Trace::empty()));
    }

    #[test]
    fn single_trace_stays_linear() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) b(X) c(X)"], &mut v);
        let fa = SkStrings::default().learn(&ts);
        assert!(fa.accepts(&ts[0]));
        assert!(!fa.accepts(&Trace::parse("a(X) b(X)", &mut v).unwrap()));
    }

    #[test]
    fn k_strings_distribution_sums_to_one() {
        let mut v = Vocab::new();
        let l = learner(&["a(X) b(X)", "a(X) c(X)", "a(X)"], &mut v, 3, 50.0);
        for s in 0..l.alive.len() {
            for d in 0..=3 {
                let total: f64 = l.dists[d][s].iter().map(|&(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9, "state {s} depth {d}: {total}");
            }
        }
    }

    #[test]
    fn k_strings_probabilities() {
        let mut v = Vocab::new();
        let texts = ["a(X) b(X)", "a(X) b(X)", "a(X) c(X)", "a(X)"];
        let l = learner(&texts, &mut v, 1, 50.0);
        // From the after-a state (1): stop 1/4, b 2/4, c 1/4.
        let dist = l.dist_of(1, 1);
        assert!((dist[&vec![pat("b(X)", &mut v)]] - 0.5).abs() < 1e-9);
        assert!((dist[&vec![pat("c(X)", &mut v)]] - 0.25).abs() < 1e-9);
        assert!((dist[&Vec::new()] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn top_set_takes_probability_prefix() {
        let mut v = Vocab::new();
        let texts = ["a(X) b(X)", "a(X) b(X)", "a(X) c(X)", "a(X)"];
        // From state 1, 50% mass is covered by {b} alone.
        let l = learner(&texts, &mut v, 1, 50.0);
        let top: Vec<Vec<EventPat>> = l.tops[1].iter().map(|&s| l.labels(s)).collect();
        assert_eq!(top, vec![vec![pat("b(X)", &mut v)]]);
        // 100% needs all three strings.
        let l = learner(&texts, &mut v, 1, 100.0);
        assert_eq!(l.tops[1].len(), 3);
    }

    #[test]
    fn top_set_breaks_probability_ties_by_string_order() {
        let mut v = Vocab::new();
        // From the root: a and b at 1/2 each; 50% takes the smaller one.
        let l = learner(&["b(X)", "a(X)"], &mut v, 1, 50.0);
        let top: Vec<Vec<EventPat>> = l.tops[0].iter().map(|&s| l.labels(s)).collect();
        let (a, b) = (pat("a(X)", &mut v), pat("b(X)", &mut v));
        assert_eq!(top, vec![vec![a.clone().min(b)]]);
    }

    #[test]
    fn interned_strings_compare_as_label_sequences() {
        let mut strings = Strings::new();
        let a = strings.cons(0, EPSILON);
        let b = strings.cons(1, EPSILON);
        let ab = strings.cons(0, b);
        let ba = strings.cons(1, a);
        assert_eq!(strings.cons(0, b), ab, "interning is canonical");
        let mut order = vec![ba, b, ab, EPSILON, a];
        order.sort_by(|&x, &y| strings.cmp(x, y));
        assert_eq!(order, vec![EPSILON, a, ab, b, ba]);
    }

    #[test]
    fn merging_collapses_parallel_edges_into_the_earliest() {
        let mut v = Vocab::new();
        // root -a-> 1 -b-> 2 ; root -c-> 3 -b-> 4
        let mut l = learner(&["a(X) b(X)", "c(X) b(X)"], &mut v, 2, 100.0);
        l.merge(1, 3);
        let seqs: Vec<usize> = l.out[1].iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3], "two b-edges, different targets");
        l.merge(2, 4);
        assert_eq!(l.out[1].len(), 1);
        assert_eq!((l.out[1][0].seq, l.out[1][0].count), (2, 2));
        assert_eq!(l.preds[2], vec![1]);
        let fa = l.into_counted();
        assert_eq!(fa.state_count(), 3);
        assert_eq!(fa.accept_count(2), 2);
    }
}
