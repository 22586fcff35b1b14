//! Frequency-annotated automata and state merging.
//!
//! Both merging learners (sk-strings and k-tails) produce a
//! [`CountedFa`]: a nondeterministic automaton whose transitions carry
//! traversal counts and whose states carry end-of-trace counts. Merging
//! two states renumbers the automaton, sums the counts of collapsed
//! parallel edges, and keeps nondeterminism (distinct destinations for
//! the same label stay distinct). k-tails merges through
//! [`CountedFa::merge`]; sk-strings merges in place in its own
//! incremental form and ends with the automaton the same merges would
//! give here.

use cable_fa::{EventPat, Fa, FaBuilder, TransLabel};
use std::collections::HashMap;

/// A nondeterministic automaton with traversal frequencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedFa {
    n_states: usize,
    start: usize,
    /// `(src, label, dst, count)`, deduplicated on `(src, label, dst)`.
    transitions: Vec<(usize, EventPat, usize, u64)>,
    /// Per-state end-of-trace counts; a state is accepting iff positive.
    accept_counts: Vec<u64>,
}

impl CountedFa {
    /// Creates a counted automaton.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `accept_counts` has the
    /// wrong length.
    pub fn new(
        n_states: usize,
        start: usize,
        transitions: Vec<(usize, EventPat, usize, u64)>,
        accept_counts: Vec<u64>,
    ) -> Self {
        assert_eq!(accept_counts.len(), n_states, "accept_counts length");
        assert!(start < n_states, "start out of range");
        for (s, _, d, _) in &transitions {
            assert!(*s < n_states && *d < n_states, "transition out of range");
        }
        CountedFa {
            n_states,
            start,
            transitions,
            accept_counts,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The transitions as `(src, label, dst, count)`.
    pub fn transitions(&self) -> &[(usize, EventPat, usize, u64)] {
        &self.transitions
    }

    /// End-of-trace count of a state.
    pub fn accept_count(&self, s: usize) -> u64 {
        self.accept_counts[s]
    }

    /// Tests whether a state is accepting.
    pub fn is_accept(&self, s: usize) -> bool {
        self.accept_counts[s] > 0
    }

    /// Total outgoing traversal count of a state, including end-of-trace
    /// stops. This is the denominator for transition probabilities.
    pub fn total_out(&self, s: usize) -> u64 {
        self.accept_counts[s]
            + self
                .transitions
                .iter()
                .filter(|(src, _, _, _)| *src == s)
                .map(|(_, _, _, c)| c)
                .sum::<u64>()
    }

    /// The outgoing transitions of a state.
    pub fn outgoing(&self, s: usize) -> impl Iterator<Item = &(usize, EventPat, usize, u64)> {
        self.transitions
            .iter()
            .filter(move |(src, _, _, _)| *src == s)
    }

    /// Merges two states (the lower index survives), collapsing parallel
    /// edges by summing their counts. Returns the renumbered automaton.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn merge(&self, a: usize, b: usize) -> CountedFa {
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
        CountedFa {
            n_states: self.n_states - 1,
            start: remap(self.start),
            transitions,
            accept_counts,
        }
    }

    /// Converts to a plain [`Fa`] (dropping counts).
    pub fn to_fa(&self) -> Fa {
        let mut b = FaBuilder::new();
        let states = b.states(self.n_states);
        b.start(states[self.start]);
        for (s, &count) in self.accept_counts.iter().enumerate() {
            if count > 0 {
                b.accept(states[s]);
            }
        }
        for (src, pat, dst, _) in &self.transitions {
            b.transition(states[*src], TransLabel::Pat(pat.clone()), states[*dst]);
        }
        b.build()
    }

    /// Converts to a plain [`Fa`], dropping transitions with traversal
    /// count below `min_count` and trimming dead states. This is the
    /// paper's "coring" (§6): the naive error-removal mechanism of the
    /// original Strauss.
    pub fn to_fa_cored(&self, min_count: u64) -> Fa {
        let mut b = FaBuilder::new();
        let states = b.states(self.n_states);
        b.start(states[self.start]);
        for (s, &count) in self.accept_counts.iter().enumerate() {
            if count > 0 {
                b.accept(states[s]);
            }
        }
        for (src, pat, dst, count) in &self.transitions {
            if *count >= min_count {
                b.transition(states[*src], TransLabel::Pat(pat.clone()), states[*dst]);
            }
        }
        b.build().trim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pta::Pta;
    use cable_trace::{Trace, Vocab};

    fn counted(texts: &[&str], v: &mut Vocab) -> CountedFa {
        let ts: Vec<Trace> = texts.iter().map(|t| Trace::parse(t, v).unwrap()).collect();
        Pta::build(&ts).to_counted()
    }

    #[test]
    fn merge_sums_counts_and_collapses_edges() {
        let mut v = Vocab::new();
        // root -a-> 1 -b-> 2 ; root -c-> 3 -b-> 4
        let c = counted(&["a(X) b(X)", "c(X) b(X)"], &mut v);
        assert_eq!(c.state_count(), 5);
        // Merge states 1 and 3 (after-a and after-c).
        let m = c.merge(1, 3);
        assert_eq!(m.state_count(), 4);
        // Two b-edges from merged state remain separate (different dsts).
        assert_eq!(m.outgoing(1).count(), 2);
        // Now merge the two leaves: b-edges collapse, counts sum.
        let leaves: Vec<usize> = (0..m.state_count()).filter(|&s| m.is_accept(s)).collect();
        let m2 = m.merge(leaves[0], leaves[1]);
        assert_eq!(m2.outgoing(1).count(), 1);
        let (_, _, _, count) = m2.outgoing(1).next().unwrap();
        assert_eq!(*count, 2);
        assert_eq!(m2.accept_count(leaves[0]), 2);
    }

    #[test]
    fn merge_preserves_language_union() {
        let mut v = Vocab::new();
        let c = counted(&["a(X) b(X)", "c(X) b(X)"], &mut v);
        let m = c.merge(1, 3);
        let fa = m.to_fa();
        for text in ["a(X) b(X)", "c(X) b(X)"] {
            assert!(fa.accepts(&Trace::parse(text, &mut v).unwrap()));
        }
    }

    #[test]
    fn coring_drops_rare_transitions() {
        let mut v = Vocab::new();
        let c = counted(&["a(X) b(X)", "a(X) b(X)", "a(X) b(X)", "c(X)"], &mut v);
        let cored = c.to_fa_cored(2);
        assert!(cored.accepts(&Trace::parse("a(X) b(X)", &mut v).unwrap()));
        assert!(!cored.accepts(&Trace::parse("c(X)", &mut v).unwrap()));
    }

    #[test]
    #[should_panic(expected = "cannot merge a state with itself")]
    fn merge_rejects_self() {
        let mut v = Vocab::new();
        let c = counted(&["a(X)"], &mut v);
        let _ = c.merge(0, 0);
    }
}
