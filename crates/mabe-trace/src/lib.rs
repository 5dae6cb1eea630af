//! # mabe-trace
//!
//! Causal tracing for the MA-ABAC workspace. Where `mabe-telemetry`
//! answers *how often* and *how long*, this crate answers *what led to
//! what*: every paper operation (grant, publish, read, revoke, sync,
//! recover) opens a [`Span`] carrying an explicit [`TraceCtx`]
//! (trace id + span id + parent), child operations nest under it, and
//! the fault/retry/WAL layers attach typed [`TraceEvent`]s — fault
//! injected, retry attempt N, backoff, journal append/sync, revocation
//! phase transition, replay — to whichever span is active on the
//! thread.
//!
//! Completed spans land in a lock-free bounded ring buffer (the
//! [`FlightRecorder`]): writers claim a slot with one atomic
//! fetch-add and never block each other; old spans are overwritten
//! once the ring wraps, so the recorder always holds the *last N*
//! spans — exactly what a post-mortem needs.
//!
//! Two exporters read the ring:
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`tree_json`] — a self-describing parent/child span forest.
//!
//! On a chaos or crash-sweep assertion failure (via the
//! [`FailureDump`] panic guard) or a `DurableSystem` journal poison,
//! the recorder dumps the last N spans to a `trace_<seed>_<case>.json`
//! artifact so a red CI log comes with a readable causal history.
//!
//! ## Cost when disabled
//!
//! Span creation and event emission first check one relaxed atomic
//! flag; after [`set_enabled`]`(false)` instrumentation reduces to
//! that single load (the same guarantee `mabe-telemetry` makes).
//! Compiling with the `noop` feature removes even the load.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ctx;
pub mod dump;
pub mod event;
pub mod export;
pub mod recorder;
pub mod sink;
pub mod span;

pub use ctx::TraceCtx;
pub use dump::{artifact_json, dump_if_configured, dump_to, FailureDump};
pub use event::TraceEvent;
pub use export::{chrome_trace, tree_json};
pub use recorder::{FlightRecorder, SpanRecord, DEFAULT_CAPACITY};
pub use sink::{install_sink, sink_installed, SpanSink};
pub use span::{current_ctx, event, Span};

/// Attaches a structured op-boundary attribute
/// ([`TraceEvent::OpAttr`]) to the innermost active span. The
/// wide-event pipeline (`mabe-events`) folds these into the enclosing
/// operation's record; without an active span (or with tracing
/// disabled) this is a cheap no-op, like [`event()`].
#[inline]
pub fn op_attr(key: &'static str, value: impl Into<String>) {
    if !enabled() {
        return;
    }
    event(TraceEvent::OpAttr {
        key,
        value: value.into(),
    });
}

/// Whether the global flight recorder is currently capturing.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        recorder::global().is_enabled()
    }
}

/// Turns capturing on or off process-wide. Spans opened while enabled
/// still commit when they drop; spans and events started while
/// disabled are dropped at the single-atomic-load fast path.
pub fn set_enabled(on: bool) {
    recorder::global().set_enabled(on);
}

/// Every span currently held by the global flight recorder, oldest
/// first.
pub fn snapshot() -> Vec<SpanRecord> {
    recorder::global().snapshot()
}

/// The most recent `n` spans held by the global flight recorder,
/// oldest first.
pub fn recent(n: usize) -> Vec<SpanRecord> {
    recorder::global().recent(n)
}
