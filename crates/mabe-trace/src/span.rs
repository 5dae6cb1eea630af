//! RAII spans and the thread-local context stack.
//!
//! Context propagation rules:
//!
//! 1. [`Span::root`] starts a new trace; [`Span::child`] nests under
//!    the thread's current span (falling back to a root when there is
//!    none), so straight-line call chains need no explicit plumbing.
//! 2. Crossing a thread (or any other boundary the stack can't see),
//!    capture [`current_ctx`] on one side and re-enter with
//!    [`Span::follow`] on the other.
//! 3. [`event`] attaches to whichever span is innermost on the calling
//!    thread — this is how the fault injector, retry loop, and WAL
//!    report into spans they never opened.

use std::cell::RefCell;
use std::fmt::{self, Write as _};

use crate::ctx::TraceCtx;
use crate::event::TraceEvent;
use crate::recorder::{self, SpanRecord};

/// Events one span retains before dropping the excess (counted by
/// [`crate::FlightRecorder::dropped_events`]).
const MAX_EVENTS_PER_SPAN: usize = 1024;

/// Spare buffers of each kind one thread keeps: at least the deepest
/// span nesting a served operation reaches, so a warmed operation opens
/// every span from the pool.
const MAX_SPARES: usize = 16;

/// Largest detail capacity worth pooling, in bytes.
const MAX_SPARE_DETAIL: usize = 128;

/// Largest event capacity worth pooling. A pooled buffer keeps its
/// capacity through every span it serves and the ring slot it rests
/// in, so a span that logged a burst (a revocation's re-encryptions)
/// gives its buffer back to the allocator instead: the ring never pins
/// more than its slots times this many events.
const MAX_SPARE_EVENTS: usize = 16;

struct LiveSpan {
    ctx: TraceCtx,
    name: &'static str,
    detail: String,
    start_us: u64,
    error: Option<String>,
    events: Vec<(u64, TraceEvent)>,
}

/// Cleared buffers taken from the records this thread's commits
/// displaced from the ring, for the next spans it opens.
struct Spares {
    details: Vec<String>,
    events: Vec<Vec<(u64, TraceEvent)>>,
}

thread_local! {
    static STACK: RefCell<Vec<LiveSpan>> = const { RefCell::new(Vec::new()) };
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            details: Vec::new(),
            events: Vec::new(),
        })
    };
}

/// A detail and an events buffer for a new span: pooled ones when the
/// thread has them, empty (unallocated) ones otherwise.
fn spare_buffers() -> (String, Vec<(u64, TraceEvent)>) {
    SPARES
        .try_with(|spares| {
            let mut spares = spares.borrow_mut();
            (
                spares.details.pop().unwrap_or_default(),
                spares.events.pop().unwrap_or_default(),
            )
        })
        .unwrap_or_default()
}

/// Pools a displaced record's detail and events buffers, cleared, so
/// the span that reuses them starts as empty as a fresh one. The error
/// message is dropped: failures are rare and their text never pooled.
fn recycle(record: SpanRecord) {
    let SpanRecord {
        mut detail,
        mut events,
        ..
    } = record;
    detail.clear();
    events.clear();
    let _ = SPARES.try_with(|spares| {
        let mut spares = spares.borrow_mut();
        let keep_detail = (1..=MAX_SPARE_DETAIL).contains(&detail.capacity());
        if keep_detail && spares.details.len() < MAX_SPARES {
            spares.details.push(detail);
        }
        let keep_events = (1..=MAX_SPARE_EVENTS).contains(&events.capacity());
        if keep_events && spares.events.len() < MAX_SPARES {
            spares.events.push(events);
        }
    });
}

/// An open span. Dropping it commits the span (and any still-open
/// descendants, innermost first) to the flight recorder.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    /// `None` when tracing was disabled at creation: the guard is then
    /// a pure no-op.
    ctx: Option<TraceCtx>,
}

impl Span {
    /// Starts a new trace with this span as its root.
    pub fn root(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { ctx: None };
        }
        Span::open(name, None)
    }

    /// Starts a span under the thread's current span, or a new root
    /// when no span is active.
    pub fn child(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { ctx: None };
        }
        let parent = current_ctx();
        Span::open(name, parent)
    }

    /// Continues `parent`'s trace on this thread (explicit
    /// propagation across a boundary the thread-local stack can't
    /// follow).
    pub fn follow(parent: TraceCtx, name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { ctx: None };
        }
        Span::open(name, Some(parent))
    }

    fn open(name: &'static str, parent: Option<TraceCtx>) -> Span {
        let rec = recorder::global();
        let span_id = rec.alloc_span_id();
        let ctx = match parent {
            Some(p) => p.child_of(span_id),
            None => TraceCtx {
                trace_id: rec.alloc_trace_id(),
                span_id,
                parent_id: TraceCtx::NO_PARENT,
            },
        };
        let (detail, events) = spare_buffers();
        STACK.with(|stack| {
            stack.borrow_mut().push(LiveSpan {
                ctx,
                name,
                detail,
                start_us: recorder::now_us(),
                error: None,
                events,
            });
        });
        if let Some(sink) = crate::sink::sink() {
            sink.on_open(&ctx, name);
        }
        Span { ctx: Some(ctx) }
    }

    /// This span's context, for explicit propagation. `None` when the
    /// span was opened with tracing disabled.
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.ctx
    }

    /// Attaches a free-form qualifier (record name, uid, attribute)
    /// shown by both exporters. Formatted only if the span is live,
    /// into the span's own (pooled) buffer.
    pub fn detail(self, detail: impl fmt::Display) -> Self {
        if let Some(ctx) = self.ctx {
            // Formatted with the stack unborrowed: a `Display` impl may
            // itself consult the tracing API.
            let mut buf = with_live(ctx, |l| std::mem::take(&mut l.detail)).unwrap_or_default();
            buf.clear();
            let _ = write!(buf, "{detail}");
            with_live(ctx, |l| l.detail = buf);
        }
        self
    }

    /// Marks the span failed with `msg` (kept alongside its events in
    /// the record).
    pub fn fail(&self, msg: impl Into<String>) {
        if let Some(ctx) = self.ctx {
            let msg = msg.into();
            with_live(ctx, |l| l.error = Some(msg));
        }
    }
}

/// Runs `f` on the open span `ctx` names on this thread's stack.
fn with_live<R>(ctx: TraceCtx, f: impl FnOnce(&mut LiveSpan) -> R) -> Option<R> {
    STACK.with(|stack| {
        stack
            .borrow_mut()
            .iter_mut()
            .rev()
            .find(|l| l.ctx.span_id == ctx.span_id)
            .map(f)
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx else { return };
        let end_us = recorder::now_us();
        STACK.with(|stack| {
            let Some(pos) = stack
                .borrow()
                .iter()
                .rposition(|l| l.ctx.span_id == ctx.span_id)
            else {
                return;
            };
            // Close this span and any descendants whose guards were
            // leaked (e.g. by a panic unwinding past them), innermost
            // first. Each is popped before it commits, so the sink runs
            // with no borrow of the stack held.
            while stack.borrow().len() > pos {
                let live = stack
                    .borrow_mut()
                    .pop()
                    .expect("the stack is longer than pos");
                commit(live, end_us);
            }
        });
    }
}

fn commit(live: LiveSpan, end_us: u64) {
    let record = SpanRecord {
        seq: 0,
        ctx: live.ctx,
        name: live.name,
        detail: live.detail,
        start_us: live.start_us,
        dur_us: end_us.saturating_sub(live.start_us),
        error: live.error,
        events: live.events,
    };
    if let Some(sink) = crate::sink::sink() {
        sink.on_close(&record);
    }
    if let Some(displaced) = recorder::global().commit(record) {
        recycle(displaced);
    }
}

/// The innermost active span's context on this thread, if any.
pub fn current_ctx() -> Option<TraceCtx> {
    if !crate::enabled() {
        return None;
    }
    STACK.with(|stack| stack.borrow().last().map(|l| l.ctx))
}

/// Attaches `ev` to the innermost active span on this thread. A no-op
/// (one relaxed atomic load) when tracing is disabled, and silently
/// dropped when no span is active — instrumented leaf code never needs
/// to know whether anyone above it is tracing.
#[inline]
pub fn event(ev: TraceEvent) {
    if !crate::enabled() {
        return;
    }
    STACK.with(|stack| {
        if let Some(live) = stack.borrow_mut().last_mut() {
            if live.events.len() < MAX_EVENTS_PER_SPAN {
                live.events.push((recorder::now_us(), ev));
            } else {
                recorder::global().note_dropped_event();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mine(spans: &[SpanRecord], trace_id: u64) -> Vec<SpanRecord> {
        spans
            .iter()
            .filter(|s| s.ctx.trace_id == trace_id)
            .cloned()
            .collect()
    }

    #[test]
    fn children_nest_under_the_active_span() {
        let root = Span::root("outer");
        let root_ctx = root.ctx().unwrap();
        {
            let mid = Span::child("mid");
            let mid_ctx = mid.ctx().unwrap();
            assert_eq!(mid_ctx.trace_id, root_ctx.trace_id);
            assert_eq!(mid_ctx.parent_id, root_ctx.span_id);
            let leaf = Span::child("leaf");
            assert_eq!(leaf.ctx().unwrap().parent_id, mid_ctx.span_id);
        }
        drop(root);
        let spans = mine(&crate::snapshot(), root_ctx.trace_id);
        assert_eq!(spans.len(), 3);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"mid"));
        assert!(names.contains(&"leaf"));
    }

    #[test]
    fn events_attach_to_the_innermost_span() {
        let root = Span::root("with_events");
        let trace = root.ctx().unwrap().trace_id;
        event(TraceEvent::Note {
            what: "on root".into(),
        });
        {
            let _child = Span::child("inner").detail("d");
            event(TraceEvent::RetryAttempt {
                op: "t",
                attempt: 1,
            });
        }
        drop(root);
        let spans = mine(&crate::snapshot(), trace);
        let root_rec = spans.iter().find(|s| s.name == "with_events").unwrap();
        let child_rec = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(root_rec.events_of("note").len(), 1);
        assert_eq!(child_rec.events_of("retry_attempt").len(), 1);
        assert_eq!(child_rec.detail, "d");
        assert!(root_rec.events_of("retry_attempt").is_empty());
    }

    #[test]
    fn follow_continues_a_trace_across_threads() {
        let root = Span::root("spawner");
        let ctx = root.ctx().unwrap();
        let handle = std::thread::spawn(move || {
            let worker = Span::follow(ctx, "worker");
            let got = worker.ctx().unwrap();
            assert_eq!(got.trace_id, ctx.trace_id);
            assert_eq!(got.parent_id, ctx.span_id);
            got
        });
        let worker_ctx = handle.join().unwrap();
        drop(root);
        let spans = mine(&crate::snapshot(), ctx.trace_id);
        assert!(spans.iter().any(|s| s.ctx == worker_ctx));
    }

    #[test]
    fn closing_a_span_closes_its_leaked_descendants_innermost_first() {
        let root = Span::root("leaky_root");
        let trace = root.ctx().unwrap().trace_id;
        std::mem::forget(Span::child("leaked_mid"));
        std::mem::forget(Span::child("leaked_leaf"));
        drop(root);
        assert!(current_ctx().is_none(), "the stack is empty again");
        let names: Vec<&str> = mine(&crate::snapshot(), trace)
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["leaked_leaf", "leaked_mid", "leaky_root"]);
    }

    #[test]
    fn a_recycled_record_never_carries_a_previous_spans_detail_error_or_events() {
        // Wrap the ring with spans that set all three, so every later
        // span on this thread opens on a pooled buffer.
        for i in 0..crate::DEFAULT_CAPACITY + 64 {
            let span = Span::root("dirty").detail(format_args!("stale detail {i}"));
            event(TraceEvent::Note {
                what: "stale event".into(),
            });
            span.fail("stale error");
        }
        let pooled = SPARES.with(|s| {
            let s = s.borrow();
            (s.details.len(), s.events.len())
        });
        assert!(pooled.0 > 0 && pooled.1 > 0, "the wrap refilled the pool");

        let clean = Span::root("clean");
        let clean_trace = clean.ctx().unwrap().trace_id;
        drop(clean);
        let own = Span::root("own").detail("mine");
        let own_trace = own.ctx().unwrap().trace_id;
        event(TraceEvent::Note {
            what: "own event".into(),
        });
        drop(own);

        let spans = crate::snapshot();
        let clean = &mine(&spans, clean_trace)[0];
        assert_eq!(clean.detail, "");
        assert_eq!(clean.error, None);
        assert!(clean.events.is_empty());
        let own = &mine(&spans, own_trace)[0];
        assert_eq!(own.detail, "mine");
        assert_eq!(own.error, None);
        assert_eq!(
            own.events
                .iter()
                .map(|(_, e)| e.clone())
                .collect::<Vec<_>>(),
            [TraceEvent::Note {
                what: "own event".into()
            }]
        );
    }

    #[test]
    fn failed_spans_keep_their_error() {
        let span = Span::root("failing");
        let trace = span.ctx().unwrap().trace_id;
        span.fail("deliberate");
        drop(span);
        let spans = mine(&crate::snapshot(), trace);
        assert_eq!(spans[0].error.as_deref(), Some("deliberate"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Runs in its own process-global recorder alongside the other
        // tests, so only flip the flag briefly and count by trace id.
        crate::set_enabled(false);
        let span = Span::root("invisible");
        assert!(span.ctx().is_none());
        event(TraceEvent::Note { what: "x".into() });
        assert!(current_ctx().is_none());
        drop(span);
        crate::set_enabled(true);
        assert!(!crate::snapshot().iter().any(|s| s.name == "invisible"));
    }
}
