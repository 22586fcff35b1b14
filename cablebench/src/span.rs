//! The benchmark's own spans, recorded around its calls into each
//! crate's public functions.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent), and a group: one id per pass or per request, so
//! every span of one pass or request can be collected together. Spans
//! stay in memory until the run ends and are then written out as JSON
//! lines. A span's self time is its duration minus the part of its
//! interval that its children cover; children may overlap each other
//! (work on other threads), so the covered part is a union of
//! intervals, not a sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span open on the same tracer when this one began.
    pub parent: Option<u64>,
    /// The pass or request this span belongs to.
    pub group: u64,
    /// The layer boundary, e.g. `learn.mine`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// The span's wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, Option<u64>, u64)>,
    group: u64,
    spans: Vec<Span>,
}

/// A handle to an open span; pass it back to [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<u64>);

impl Tracer {
    /// A tracer whose span ids start at `id_base` (give each thread its
    /// own range), timing from `origin`.
    pub fn new(enabled: bool, origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            next_id: id_base,
            open: Vec::new(),
            group: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group (pass or request id) of spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|o| o.0);
        let start = self.now();
        self.open.push((id, name, parent, start));
        Open(Some(id))
    }

    /// Closes the span `open`, which must be the innermost open one.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        let (top, name, parent, start) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close innermost first");
        self.spans.push(Span {
            id,
            parent,
            group: self.group,
            name,
            start,
            end,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The closed spans, moving them out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The part of `outer`'s interval covered by `inner` spans, clipped to
/// `outer`.
pub fn covered(outer: &Span, inner: &[&Span]) -> u64 {
    let clipped: Vec<(u64, u64)> = inner
        .iter()
        .map(|s| (s.start.max(outer.start), s.end.min(outer.end)))
        .collect();
    union_len(&clipped)
}

/// Each span's self time: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur() - covered(s, kids))
        })
        .collect()
}

/// Writes spans as JSON lines (times in µs since the run's origin).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.group,
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (20, 25)]), 15);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(5, 15), (0, 10), (10, 12)]), 15);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&[(4, 4)]), 0);
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 40);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 40);
        // Self times partition the root's wall time.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_overlapping_children() {
        // Two children on other threads overlap in [30,40); one runs
        // past the parent's end and is clipped.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 20, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        let parent = &spans[0];
        let kids: Vec<&Span> = spans[1..].iter().collect();
        assert_eq!(covered(parent, &kids), 50);
    }

    #[test]
    fn tracer_records_parents_and_groups() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        t.set_group(7);
        let outer = t.begin("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.group == 7 && s.id >= 100));
        assert!(outer.start <= inner.start && inner.end <= outer.end);

        let mut off = Tracer::new(false, Instant::now(), 0);
        let o = off.begin("x");
        off.end(o);
        assert!(off.take().is_empty());
    }
}
