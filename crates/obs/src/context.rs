//! Request-scoped trace context: causal ids for recorder events.
//!
//! The flight recorder ([`crate::recorder`]) stamps *when* things
//! happened, one lane per thread. This module stamps *why*: every event
//! recorded while a request is active carries the originating 128-bit
//! trace id, its own span id, and its parent span id — so a request's
//! spans can be reassembled into one causal tree even when the work
//! crossed `cable-par` workers via work stealing.
//!
//! # Model
//!
//! * A [`TraceCtx`] is minted per HTTP request (`obs::http`), seeded
//!   from the drill seed and a request sequence number so ids are
//!   reproducible run to run.
//! * [`begin_request`] installs the context on the handling thread and
//!   opens the **root span**; every `recorder::begin`/`end` on that
//!   thread then maintains a frame stack here, minting deterministic
//!   child span ids and, at span close, appending a [`SpanRec`] to the
//!   request's collector.
//! * Crossing threads is explicit: [`capture`] snapshots the current
//!   context into a cloneable [`TraceHandle`]; the receiving worker
//!   calls [`TraceHandle::adopt`] with a deterministic task tag (e.g.
//!   the chunk index), which swaps the worker's *entire* frame stack in
//!   and restores it on drop — a stolen task can never leak spans into
//!   whatever request the worker was touching before.
//!
//! # Deterministic span ids
//!
//! Child ids are minted structurally, not from a clock or a global
//! counter: `child = mix(parent_span_id, k)` where `k` is the parent's
//! per-frame child sequence number. A [`capture`] draws the next number
//! of that sequence too, on the submitting thread, and keys its task
//! spans as `mix(reserved_id, tag)` with the caller-supplied adopt tag
//! (chunk index) — so two fan-outs under one span never share ids.
//! Chunk boundaries depend only on input length, so the same request
//! produces the same span ids under `CABLE_PAR=1` and `CABLE_PAR=8` —
//! which is what lets the determinism gate cover attribution.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans kept per request before the collector starts counting drops.
pub const MAX_SPANS_PER_TRACE: usize = 4096;

/// Tag space for `par_map` chunk tasks (`CHUNK_TAG | chunk_index`).
pub const CHUNK_TAG: u64 = 0x8000_0000_0000_0000;
/// Tag for `scope().spawn` tasks (each spawn captures its own key).
pub const SPAWN_TAG: u64 = 0x4000_0000_0000_0000;
/// Tag for the synthetic accept-queue wait span under the request root.
pub const QUEUE_TAG: u64 = 0x2000_0000_0000_0001;

/// SplitMix64 finaliser over `a ⊕ rotated b`: the deterministic child
/// span id mint. Mirrors `cable_util::rng::derive_seed` (this crate is
/// dependency-free, so the mixing is restated here).
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A causal context: 128-bit trace id plus the current span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// High half of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low half of the 128-bit trace id.
    pub trace_lo: u64,
    /// The span this context denotes (the request root at mint time).
    pub span_id: u64,
}

impl TraceCtx {
    /// Mints the context for request number `seq` under `seed`. Pure:
    /// the same (seed, seq) pair always yields the same ids, so drill
    /// traces are addressable run to run.
    pub fn mint(seed: u64, seq: u64) -> TraceCtx {
        let hi = mix(seed, seq);
        let lo = mix(hi, !seq);
        TraceCtx {
            trace_hi: hi,
            trace_lo: lo,
            span_id: mix(lo, seq),
        }
    }

    /// The 128-bit trace id as 32 lowercase hex digits.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }
}

/// Parses a 32-hex-digit trace id back into its halves.
pub fn parse_trace_hex(s: &str) -> Option<(u64, u64)> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let hi = u64::from_str_radix(&s[..16], 16).ok()?;
    let lo = u64::from_str_radix(&s[16..], 16).ok()?;
    Some((hi, lo))
}

/// One closed span, as collected into a request's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (the recorder event name).
    pub name: &'static str,
    /// This span's id.
    pub span: u64,
    /// Parent span id (`0` only for the request root).
    pub parent: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
}

/// The per-request span sink, shared across every thread that worked on
/// the request.
#[derive(Debug)]
struct Collector {
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

impl Collector {
    fn new() -> Arc<Collector> {
        Arc::new(Collector {
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    fn push(&self, rec: SpanRec) {
        let mut spans = self.spans.lock().expect("trace collector poisoned");
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One open span on the active context's frame stack.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    span: u64,
    parent: u64,
    start_ns: u64,
    /// Children minted so far under this frame.
    child_seq: u64,
}

/// The thread's active trace state (the whole stack swaps on adopt).
#[derive(Debug)]
struct TraceState {
    trace_hi: u64,
    trace_lo: u64,
    /// Parent id for top-level spans (0 at the request root).
    base_parent: u64,
    /// Id of the first top-level span; later ones derive from it.
    base_key: u64,
    /// Top-level spans opened so far.
    base_seq: u64,
    frames: Vec<Frame>,
    collector: Arc<Collector>,
}

thread_local! {
    static STATE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// The ids stamped onto one recorder event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventIds {
    pub trace_hi: u64,
    pub trace_lo: u64,
    pub span: u64,
    pub parent: u64,
}

/// Mints the id of the next child of the innermost open frame (or the
/// next top-level span when no frame is open), advancing that frame's
/// child sequence. Returns `(child id, parent id)`.
fn next_child(state: &mut TraceState) -> (u64, u64) {
    match state.frames.last_mut() {
        Some(top) => {
            top.child_seq += 1;
            (mix(top.span, top.child_seq), top.span)
        }
        None => {
            let span = if state.base_seq == 0 {
                state.base_key
            } else {
                mix(state.base_key, state.base_seq)
            };
            state.base_seq += 1;
            (span, state.base_parent)
        }
    }
}

/// Called by `recorder::push` on a `Begin`: mints the child span id,
/// pushes the frame, and returns the ids for the event. Zeroes when no
/// context is active on this thread.
pub(crate) fn on_begin(name: &'static str, ts_ns: u64) -> EventIds {
    STATE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return EventIds::default();
        };
        let (span, parent) = next_child(state);
        state.frames.push(Frame {
            name,
            span,
            parent,
            start_ns: ts_ns,
            child_seq: 0,
        });
        EventIds {
            trace_hi: state.trace_hi,
            trace_lo: state.trace_lo,
            span,
            parent,
        }
    })
}

/// Called by `recorder::push` on an `End`: pops the matching frame,
/// appends the closed span to the request collector, and returns the
/// popped span's ids. An `End` whose `Begin` predates the context (or
/// was never recorded) leaves the stack alone and stamps current ids.
pub(crate) fn on_end(name: &'static str, ts_ns: u64) -> EventIds {
    STATE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return EventIds::default();
        };
        if state.frames.last().map(|f| f.name) == Some(name) {
            let frame = state.frames.pop().expect("just matched");
            state.collector.push(SpanRec {
                name: frame.name,
                span: frame.span,
                parent: frame.parent,
                start_ns: frame.start_ns,
                end_ns: ts_ns,
            });
            EventIds {
                trace_hi: state.trace_hi,
                trace_lo: state.trace_lo,
                span: frame.span,
                parent: frame.parent,
            }
        } else {
            current_ids(state)
        }
    })
}

/// Called by `recorder::push` on `Instant`/`Counter` events: stamps the
/// innermost open span's ids without touching the stack.
pub(crate) fn on_mark() -> EventIds {
    STATE.with(|s| match s.borrow().as_ref() {
        Some(state) => current_ids(state),
        None => EventIds::default(),
    })
}

fn current_ids(state: &TraceState) -> EventIds {
    let (span, parent) = match state.frames.last() {
        Some(top) => (top.span, top.parent),
        None => (0, state.base_parent),
    };
    EventIds {
        trace_hi: state.trace_hi,
        trace_lo: state.trace_lo,
        span,
        parent,
    }
}

/// The trace id active on this thread, if a request context is
/// installed (wide events use this to tag their records).
pub fn active() -> Option<TraceCtx> {
    STATE.with(|s| {
        s.borrow().as_ref().map(|state| TraceCtx {
            trace_hi: state.trace_hi,
            trace_lo: state.trace_lo,
            span_id: state.frames.last().map(|f| f.span).unwrap_or(0),
        })
    })
}

/// Everything collected for one finished request.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The request's minted context (root span id included).
    pub ctx: TraceCtx,
    /// Every closed span, in close order, root last.
    pub spans: Vec<SpanRec>,
    /// Spans lost to the per-request cap.
    pub dropped: u64,
}

impl FinishedTrace {
    /// Wall time of the request root span (including the synthetic
    /// accept-queue wait), microseconds. Zero when nothing was
    /// collected.
    pub fn wall_us(&self) -> u64 {
        self.spans
            .iter()
            .find(|s| s.span == self.ctx.span_id)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) / 1_000)
            .unwrap_or(0)
    }
}

/// Installs `ctx` on this thread and opens the request root span; the
/// returned guard's [`RequestGuard::finish`] closes the root and yields
/// the collected tree. `queue_wait_ns` (time the connection sat in the
/// bounded accept queue) widens the root span backwards and lands as a
/// synthetic `wait.queue` child, so queueing is part of request wall
/// time without the recorder having to pair events across lanes.
///
/// While the flight recorder is off this is a no-op guard.
pub fn begin_request(ctx: TraceCtx, name: &'static str, queue_wait_ns: u64) -> RequestGuard {
    if !crate::recorder::recording() {
        return RequestGuard {
            ctx,
            name,
            queue_wait_ns,
            active: false,
            _not_send: PhantomData,
        };
    }
    STATE.with(|s| {
        *s.borrow_mut() = Some(TraceState {
            trace_hi: ctx.trace_hi,
            trace_lo: ctx.trace_lo,
            base_parent: 0,
            base_key: ctx.span_id,
            base_seq: 0,
            frames: Vec::new(),
            collector: Collector::new(),
        });
    });
    crate::recorder::begin(name);
    RequestGuard {
        ctx,
        name,
        queue_wait_ns,
        active: true,
        _not_send: PhantomData,
    }
}

/// Closes the request root span on drop; [`RequestGuard::finish`]
/// additionally returns the collected span tree. `!Send`: the guard
/// owns this thread's context slot.
pub struct RequestGuard {
    ctx: TraceCtx,
    name: &'static str,
    queue_wait_ns: u64,
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl RequestGuard {
    /// Closes the root span, uninstalls the context, and returns the
    /// request's span tree (empty when the recorder was off).
    pub fn finish(mut self) -> FinishedTrace {
        self.close()
    }

    fn close(&mut self) -> FinishedTrace {
        if !self.active {
            return FinishedTrace {
                ctx: self.ctx,
                spans: Vec::new(),
                dropped: 0,
            };
        }
        self.active = false;
        crate::recorder::end(self.name);
        let state = STATE.with(|s| s.borrow_mut().take());
        let Some(state) = state else {
            return FinishedTrace {
                ctx: self.ctx,
                spans: Vec::new(),
                dropped: 0,
            };
        };
        let mut spans = state
            .collector
            .spans
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default();
        let dropped = state.collector.dropped.load(Ordering::Relaxed);
        if self.queue_wait_ns > 0 {
            if let Some(root) = spans.iter_mut().find(|s| s.span == self.ctx.span_id) {
                let handled_start = root.start_ns;
                root.start_ns = handled_start.saturating_sub(self.queue_wait_ns);
                let start = root.start_ns;
                spans.push(SpanRec {
                    name: "wait.queue",
                    span: mix(self.ctx.span_id, QUEUE_TAG),
                    parent: self.ctx.span_id,
                    start_ns: start,
                    end_ns: handled_start,
                });
            }
        }
        FinishedTrace {
            ctx: self.ctx,
            spans,
            dropped,
        }
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if self.active {
            let _ = self.close();
        }
    }
}

/// A cloneable snapshot of the current context, for handing work to
/// another thread. Captures the innermost open span as the parent the
/// adopted task's spans will attach to.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace_hi: u64,
    trace_lo: u64,
    parent_span: u64,
    /// This capture's own key: a child id of `parent_span` reserved at
    /// capture time, so successive captures under one span never share
    /// task ids.
    key: u64,
    collector: Arc<Collector>,
}

/// Snapshots the context active on this thread, or `None` outside a
/// request. Call on the *submitting* thread, before moving the task:
/// each call reserves the next child id of the innermost open span as
/// the handle's key, so ids stay a pure function of program order.
pub fn capture() -> Option<TraceHandle> {
    STATE.with(|s| {
        s.borrow_mut().as_mut().map(|state| {
            let (key, parent_span) = next_child(state);
            TraceHandle {
                trace_hi: state.trace_hi,
                trace_lo: state.trace_lo,
                parent_span,
                key,
                collector: state.collector.clone(),
            }
        })
    })
}

impl TraceHandle {
    /// Installs this context on the current thread for the guard's
    /// lifetime, swapping out (and on drop restoring) whatever context
    /// the thread had — a worker mid-steal can never interleave two
    /// requests' frames. `tag` must be deterministic for the task
    /// (chunk index): the task's top-level spans get ids derived from
    /// `mix(key, tag)` regardless of which worker runs it.
    pub fn adopt(&self, tag: u64) -> AdoptGuard {
        let saved = STATE.with(|s| {
            s.borrow_mut().replace(TraceState {
                trace_hi: self.trace_hi,
                trace_lo: self.trace_lo,
                base_parent: self.parent_span,
                base_key: mix(self.key, tag),
                base_seq: 0,
                frames: Vec::new(),
                collector: self.collector.clone(),
            })
        });
        AdoptGuard {
            saved,
            _not_send: PhantomData,
        }
    }
}

/// Restores the thread's previous context on drop.
pub struct AdoptGuard {
    saved: Option<TraceState>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let saved = self.saved.take();
        STATE.with(|s| *s.borrow_mut() = saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the frame hooks directly (no recorder), so these tests
    /// cannot race other tests over the global recording flag.
    fn install(ctx: TraceCtx) -> Arc<Collector> {
        let collector = Collector::new();
        STATE.with(|s| {
            *s.borrow_mut() = Some(TraceState {
                trace_hi: ctx.trace_hi,
                trace_lo: ctx.trace_lo,
                base_parent: 0,
                base_key: ctx.span_id,
                base_seq: 0,
                frames: Vec::new(),
                collector: collector.clone(),
            });
        });
        collector
    }

    fn uninstall() {
        STATE.with(|s| *s.borrow_mut() = None);
    }

    #[test]
    fn mint_is_deterministic_and_distinct() {
        let a = TraceCtx::mint(42, 7);
        let b = TraceCtx::mint(42, 7);
        let c = TraceCtx::mint(42, 8);
        assert_eq!(a, b);
        assert_ne!(a.trace_hex(), c.trace_hex());
        assert_eq!(a.trace_hex().len(), 32);
        assert_eq!(
            parse_trace_hex(&a.trace_hex()),
            Some((a.trace_hi, a.trace_lo))
        );
        assert_eq!(parse_trace_hex("xyz"), None);
    }

    #[test]
    fn frames_chain_parent_ids_and_collect_on_close() {
        let ctx = TraceCtx::mint(1, 1);
        let collector = install(ctx);
        let root = on_begin("req", 10);
        assert_eq!(root.span, ctx.span_id);
        assert_eq!(root.parent, 0);
        let child = on_begin("work", 20);
        assert_eq!(child.parent, ctx.span_id);
        assert_eq!(child.span, mix(ctx.span_id, 1));
        let grand = on_begin("inner", 30);
        assert_eq!(grand.parent, child.span);
        on_end("inner", 40);
        on_end("work", 50);
        on_end("req", 60);
        uninstall();
        let spans = collector.spans.lock().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[2].name, "req");
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn sibling_spans_get_distinct_ids() {
        let ctx = TraceCtx::mint(2, 2);
        let _collector = install(ctx);
        on_begin("req", 0);
        let a = on_begin("step", 1);
        on_end("step", 2);
        let b = on_begin("step", 3);
        on_end("step", 4);
        uninstall();
        assert_ne!(a.span, b.span, "siblings share a name, not an id");
        assert_eq!(a.parent, b.parent);
    }

    #[test]
    fn unmatched_end_leaves_the_stack_alone() {
        let ctx = TraceCtx::mint(3, 3);
        let collector = install(ctx);
        on_begin("req", 0);
        let ids = on_end("never-begun", 5);
        assert_eq!(ids.span, ctx.span_id, "stamps the open frame");
        assert_eq!(collector.spans.lock().unwrap().len(), 0);
        let ids = on_mark();
        assert_eq!(ids.span, ctx.span_id);
        uninstall();
    }

    #[test]
    fn adopt_swaps_and_restores_the_whole_stack() {
        let ctx = TraceCtx::mint(4, 4);
        let _collector = install(ctx);
        on_begin("req", 0);
        let handle = capture().expect("context active");
        {
            let _adopted = handle.adopt(CHUNK_TAG);
            // The adopted state starts empty: a begin here is a
            // top-level span parented to the captured span, keyed by
            // the child id the capture reserved.
            let ids = on_begin("chunk", 10);
            assert_eq!(ids.parent, ctx.span_id);
            assert_eq!(ids.span, mix(mix(ctx.span_id, 1), CHUNK_TAG));
            on_end("chunk", 20);
        }
        // Restored: the original frame is back on top.
        let ids = on_mark();
        assert_eq!(ids.span, ctx.span_id);
        uninstall();
    }

    #[test]
    fn adopt_tags_make_task_ids_independent_of_execution_order() {
        let ctx = TraceCtx::mint(5, 5);
        let _collector = install(ctx);
        on_begin("req", 0);
        let handle = capture().unwrap();
        uninstall();

        let run = |tags: &[u64]| -> Vec<u64> {
            tags.iter()
                .map(|&t| {
                    let _g = handle.adopt(CHUNK_TAG | t);
                    let ids = on_begin("chunk", 0);
                    on_end("chunk", 1);
                    ids.span
                })
                .collect()
        };
        let forward = run(&[0, 1, 2]);
        let mut reversed = run(&[2, 1, 0]);
        reversed.reverse();
        assert_eq!(forward, reversed, "ids depend on the tag, not the order");
    }

    #[test]
    fn successive_captures_under_one_span_get_distinct_task_ids() {
        let ctx = TraceCtx::mint(7, 7);
        let _collector = install(ctx);
        on_begin("req", 0);
        let chunk_id = |handle: &TraceHandle| {
            let _g = handle.adopt(CHUNK_TAG);
            let ids = on_begin("chunk", 1);
            on_end("chunk", 2);
            ids.span
        };
        let first = chunk_id(&capture().unwrap());
        let second = chunk_id(&capture().unwrap());
        // A span opened after the captures skips their reserved ids.
        let sibling = on_begin("step", 3);
        uninstall();
        assert_ne!(first, second, "chunk 0 of two fan-outs share an id");
        assert_eq!(sibling.span, mix(ctx.span_id, 3));
    }

    #[test]
    fn capture_without_context_is_none() {
        uninstall();
        assert!(capture().is_none());
        assert!(active().is_none());
        let ids = on_begin("orphan", 0);
        assert_eq!(ids.span, 0);
        assert_eq!(ids.trace_lo, 0);
        let ids = on_end("orphan", 1);
        assert_eq!(ids.span, 0);
    }

    #[test]
    fn collector_caps_and_counts_drops() {
        let ctx = TraceCtx::mint(6, 6);
        let collector = install(ctx);
        on_begin("req", 0);
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            on_begin("s", 1);
            on_end("s", 2);
        }
        uninstall();
        assert_eq!(collector.spans.lock().unwrap().len(), MAX_SPANS_PER_TRACE);
        assert_eq!(collector.dropped.load(Ordering::Relaxed), 10);
    }
}
