//! Assembles wide events from span closes, with **no new call sites**
//! in instrumented code: everything is folded out of the spans and
//! typed events the workspace already records.
//!
//! The trick is that spans close innermost-first, so by the time the
//! *outermost* op span of a trace closes, every descendant has already
//! closed and folded its contribution upward. The folded stats ride a
//! per-thread stack that mirrors the thread's open spans:
//!
//! * at open, a span pushes a frame noting whether it is an *op* span
//!   and whether an op span encloses it. The first op span of a chain
//!   is the top-level operation; any deeper one (`cloud.read` nested
//!   inside `durable.read`) is a delegation, not a second operation;
//! * at close, the span folds its own events, then what its children
//!   folded into its frame. The outermost op finalizes an
//!   [`OpCandidate`] and hands it to the pipeline; any other span folds
//!   into its parent's frame, one slot down the stack.
//!
//! A span whose parent is on another thread (opened with
//! [`mabe_trace::Span::follow`]) cannot reach that frame, so it parks
//! its stats in a map shared by all threads, keyed by trace and parent
//! span, which the parent absorbs at its close after its local
//! children. Its own op-ness is judged on its thread alone: an op span
//! with no op span below it on its thread's stack is a top-level
//! operation. The workspace follows a trace only into plain spans (a
//! revocation's re-encryption helpers), so no operation is counted
//! twice. The map is touched only while something is parked, so a
//! single-threaded operation takes no lock and allocates nothing here. Closing a trace's root drops whatever it left parked,
//! and the map is capped; when full, the entry of the smallest trace id
//! (the oldest, since trace ids are allocated monotonically) is
//! evicted, deterministically.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mabe_trace::{AttrValue, SpanRecord, SpanSink, TraceCtx, TraceEvent};

use crate::record::op_kind;

/// Parked entries (cross-thread children waiting for their parent) the
/// assembler holds before evicting the oldest.
const PARKED_CAP: usize = 4096;

/// Stats folded from closed spans, on their way up to the op span that
/// absorbs them.
#[derive(Clone, Debug, Default)]
struct Folded {
    retries: u32,
    gave_up: bool,
    fault_points: Vec<String>,
    wal_bytes: u64,
    /// The checkpoint the op paid for, if one ran inside it: its kind
    /// (`delta` or `full`) and the bytes it wrote.
    checkpoint: Option<(&'static str, u64)>,
    /// The op attributes a wide event carries. A span's own attributes
    /// are applied with override semantics *before* its children's fill
    /// in the gaps; other keys are not folded.
    authority: Option<AttrValue>,
    uid: Option<AttrValue>,
    key_version_observed: Option<AttrValue>,
    key_version_served: Option<AttrValue>,
}

impl Folded {
    fn attr(&mut self, key: &str) -> Option<&mut Option<AttrValue>> {
        match key {
            "authority" => Some(&mut self.authority),
            "uid" => Some(&mut self.uid),
            "key_version_observed" => Some(&mut self.key_version_observed),
            "key_version_served" => Some(&mut self.key_version_served),
            _ => None,
        }
    }

    /// Folds one of the span's own events (later attributes with the
    /// same key override earlier ones).
    fn own(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::RetryAttempt { .. } => self.retries += 1,
            TraceEvent::RetryGaveUp { .. } => self.gave_up = true,
            TraceEvent::FaultInjected { point, kind, .. } => {
                self.fault_points.push(format!("{point}:{kind}"));
            }
            TraceEvent::JournalAppend { bytes, .. } => self.wal_bytes += bytes,
            TraceEvent::CheckpointWritten { kind, bytes, .. } => {
                self.checkpoint = Some((kind, *bytes));
            }
            TraceEvent::OpAttr { key, value } => {
                if let Some(slot) = self.attr(key) {
                    *slot = Some(value.clone());
                }
            }
            _ => {}
        }
    }

    /// Absorbs a closed child's stats: counters add, attributes fill
    /// only where this span didn't set its own.
    fn absorb(&mut self, child: Folded) {
        self.retries += child.retries;
        self.gave_up |= child.gave_up;
        self.fault_points.extend(child.fault_points);
        self.wal_bytes += child.wal_bytes;
        self.checkpoint = self.checkpoint.or(child.checkpoint);
        let fill = |slot: &mut Option<AttrValue>, value: Option<AttrValue>| {
            if slot.is_none() {
                *slot = value;
            }
        };
        fill(&mut self.authority, child.authority);
        fill(&mut self.uid, child.uid);
        fill(&mut self.key_version_observed, child.key_version_observed);
        fill(&mut self.key_version_served, child.key_version_served);
    }
}

/// An attribute as text (a number renders decimal).
fn text(value: AttrValue) -> Arc<str> {
    match value {
        AttrValue::Text(s) => s,
        AttrValue::U64(n) => n.to_string().into(),
    }
}

/// An attribute as a number (text that does not parse is dropped).
fn number(value: AttrValue) -> Option<u64> {
    match value {
        AttrValue::U64(n) => Some(n),
        AttrValue::Text(s) => s.parse().ok(),
    }
}

/// One open span, as the assembler tracks it on its thread.
struct Frame {
    /// The assembler the frame belongs to (a thread may feed several).
    owner: u64,
    span_id: u64,
    /// An op span with no op span around it: it emits at its close.
    emits: bool,
    /// Whether it or a span around it is an op span.
    in_op: bool,
    /// What its closed children folded into it.
    children: Folded,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Ids that tell assemblers apart on a shared frame stack.
static NEXT_ASSEMBLER: AtomicU64 = AtomicU64::new(1);

/// One finalized top-level operation, before the keep/drop decision.
#[derive(Clone, Debug)]
pub struct OpCandidate {
    /// Trace the operation ran under.
    pub trace_id: u64,
    /// The outermost op span's id.
    pub span_id: u64,
    /// Op kind (one of [`crate::record::OP_KINDS`]).
    pub kind: &'static str,
    /// The op span's free-form detail.
    pub detail: String,
    /// The op span's error, if it failed.
    pub error: Option<String>,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
    /// `authority` op attribute.
    pub authority: Option<Arc<str>>,
    /// `uid` op attribute.
    pub uid: Option<Arc<str>>,
    /// `key_version_observed` op attribute.
    pub key_version_observed: Option<u64>,
    /// `key_version_served` op attribute.
    pub key_version_served: Option<u64>,
    /// Retry attempts folded from the whole subtree.
    pub retries: u32,
    /// Whether any retry loop in the subtree exhausted its budget.
    pub gave_up: bool,
    /// Fault points that fired in the subtree, as `point:kind`.
    pub fault_points: Vec<String>,
    /// WAL bytes appended in the subtree.
    pub wal_bytes: u64,
    /// Kind of the checkpoint written in the subtree (`delta` or
    /// `full`), if any.
    pub checkpoint: Option<&'static str>,
    /// Bytes that checkpoint wrote (0 without one).
    pub checkpoint_bytes: u64,
}

/// The span sink: folds closes up the span stack and emits an
/// [`OpCandidate`] per top-level op via the installed callback.
pub struct Assembler {
    id: u64,
    /// Stats of cross-thread children, by `(trace id, parent span id)`.
    parked: Mutex<BTreeMap<(u64, u64), Folded>>,
    /// Entries in `parked`, read without its lock.
    parked_len: AtomicUsize,
    evicted: AtomicU64,
    emit: Box<dyn Fn(OpCandidate) + Send + Sync>,
}

impl std::fmt::Debug for Assembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assembler")
            .field("parked", &self.parked_len.load(Ordering::Relaxed))
            .field("evicted", &self.evicted.load(Ordering::Relaxed))
            .finish()
    }
}

impl Assembler {
    /// An assembler delivering finalized ops to `emit`. The callback
    /// runs on the thread closing the span, outside the assembler's
    /// locks; it must not open spans (sinks never re-enter tracing).
    pub fn new(emit: impl Fn(OpCandidate) + Send + Sync + 'static) -> Self {
        Assembler {
            id: NEXT_ASSEMBLER.fetch_add(1, Ordering::Relaxed),
            parked: Mutex::new(BTreeMap::new()),
            parked_len: AtomicUsize::new(0),
            evicted: AtomicU64::new(0),
            emit: Box::new(emit),
        }
    }

    /// Parked entries dropped because the map was full (forensics: a
    /// nonzero count means some cross-thread work lost attribution).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Runs `f` over the parked map and republishes its size.
    fn with_parked<T>(&self, f: impl FnOnce(&mut BTreeMap<(u64, u64), Folded>) -> T) -> T {
        let mut parked = self.parked.lock().expect("assembler parked map");
        let out = f(&mut parked);
        self.parked_len.store(parked.len(), Ordering::Relaxed);
        out
    }

    /// Parks a closed span's stats for a parent on another thread.
    fn park(&self, trace_id: u64, parent_id: u64, folded: Folded) {
        self.with_parked(|parked| {
            let key = (trace_id, parent_id);
            if !parked.contains_key(&key) && parked.len() >= PARKED_CAP {
                parked.pop_first();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            parked.entry(key).or_default().absorb(folded);
        });
    }

    fn finalize(record: &SpanRecord, kind: &'static str, folded: Folded) -> OpCandidate {
        OpCandidate {
            trace_id: record.ctx.trace_id,
            span_id: record.ctx.span_id,
            kind,
            detail: record.detail.clone(),
            error: record.error.clone(),
            start_us: record.start_us,
            latency_us: record.dur_us,
            authority: folded.authority.map(text),
            uid: folded.uid.map(text),
            key_version_observed: folded.key_version_observed.and_then(number),
            key_version_served: folded.key_version_served.and_then(number),
            retries: folded.retries,
            gave_up: folded.gave_up,
            fault_points: folded.fault_points,
            wal_bytes: folded.wal_bytes,
            checkpoint: folded.checkpoint.map(|(kind, _)| kind),
            checkpoint_bytes: folded.checkpoint.map_or(0, |(_, bytes)| bytes),
        }
    }
}

impl SpanSink for Assembler {
    fn on_open(&self, ctx: &TraceCtx, name: &'static str) {
        let op = op_kind(name).is_some();
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let parent = frames.iter().rev().find(|f| f.owner == self.id);
            // A parent off this thread's stack (on another thread, or
            // opened before this assembler was installed) encloses no op.
            let enclosed = parent.is_some_and(|p| p.span_id == ctx.parent_id && p.in_op);
            frames.push(Frame {
                owner: self.id,
                span_id: ctx.span_id,
                emits: op && !enclosed,
                in_op: op || enclosed,
                children: Folded::default(),
            });
        });
    }

    fn on_close(&self, record: &SpanRecord) {
        let ctx = record.ctx;
        let frame = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let pos = frames
                .iter()
                .rposition(|f| f.owner == self.id && f.span_id == ctx.span_id)?;
            Some(frames.remove(pos))
        });
        // A span this assembler never saw open (it was installed after)
        // folds like a plain one.
        let (emits, children) = frame.map_or((false, Folded::default()), |f| (f.emits, f.children));
        let mut folded = Folded::default();
        for (_, ev) in &record.events {
            folded.own(ev);
        }
        folded.absorb(children);
        if self.parked_len.load(Ordering::Relaxed) > 0 {
            let remote = self.with_parked(|parked| {
                let remote = parked.remove(&(ctx.trace_id, ctx.span_id));
                if ctx.parent_id == TraceCtx::NO_PARENT {
                    // The trace is over: drop what it left parked.
                    parked.retain(|(trace, _), _| *trace != ctx.trace_id);
                }
                remote
            });
            if let Some(remote) = remote {
                folded.absorb(remote);
            }
        }
        if emits {
            let kind = op_kind(record.name).expect("an emitting frame is an op span");
            (self.emit)(Self::finalize(record, kind, folded));
            return;
        }
        if ctx.parent_id == TraceCtx::NO_PARENT {
            return;
        }
        let unclaimed = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            match frames.iter_mut().rev().find(|f| f.owner == self.id) {
                Some(parent) if parent.span_id == ctx.parent_id => {
                    parent.children.absorb(folded);
                    None
                }
                _ => Some(folded),
            }
        });
        if let Some(folded) = unclaimed {
            self.park(ctx.trace_id, ctx.parent_id, folded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx(trace_id: u64, span_id: u64, parent_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            span_id,
            parent_id,
        }
    }

    fn rec(
        c: TraceCtx,
        name: &'static str,
        dur_us: u64,
        error: Option<&str>,
        events: Vec<TraceEvent>,
    ) -> SpanRecord {
        SpanRecord {
            seq: 0,
            ctx: c,
            name,
            detail: String::new(),
            start_us: 0,
            dur_us,
            error: error.map(str::to_owned),
            events: events.into_iter().map(|e| (0, e)).collect(),
        }
    }

    fn collecting() -> (Assembler, Arc<Mutex<Vec<OpCandidate>>>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink_out = out.clone();
        let asm = Assembler::new(move |c| sink_out.lock().unwrap().push(c));
        (asm, out)
    }

    #[test]
    fn nested_op_spans_emit_exactly_one_event() {
        let (asm, out) = collecting();
        // durable.read (span 1, root) wraps cloud.read (span 2).
        asm.on_open(&ctx(1, 1, TraceCtx::NO_PARENT), "durable.read");
        asm.on_open(&ctx(1, 2, 1), "cloud.read");
        // Inner closes first, carrying the op attributes and a retry.
        asm.on_close(&rec(
            ctx(1, 2, 1),
            "cloud.read",
            500,
            None,
            vec![
                TraceEvent::OpAttr {
                    key: "uid",
                    value: "alice".into(),
                },
                TraceEvent::RetryAttempt {
                    op: "read",
                    attempt: 1,
                },
                TraceEvent::CheckpointWritten {
                    generation: 3,
                    kind: "delta",
                    bytes: 512,
                },
            ],
        ));
        assert!(out.lock().unwrap().is_empty(), "nested op must not emit");
        asm.on_close(&rec(
            ctx(1, 1, TraceCtx::NO_PARENT),
            "durable.read",
            900,
            None,
            vec![TraceEvent::JournalAppend {
                object: "wal-1".into(),
                bytes: 64,
            }],
        ));
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 1, "exactly one wide event per top-level op");
        let op = &got[0];
        assert_eq!(op.kind, "read");
        assert_eq!(op.latency_us, 900, "outermost span's latency wins");
        assert_eq!(op.uid.as_deref(), Some("alice"));
        assert_eq!(op.retries, 1);
        assert_eq!(op.wal_bytes, 64);
        assert_eq!((op.checkpoint, op.checkpoint_bytes), (Some("delta"), 512));
    }

    #[test]
    fn plain_children_fold_stats_into_the_op() {
        let (asm, out) = collecting();
        asm.on_open(&ctx(2, 1, TraceCtx::NO_PARENT), "cloud.revoke");
        // server.fetch child hits a fault and retries twice.
        asm.on_close(&rec(
            ctx(2, 2, 1),
            "server.fetch",
            100,
            None,
            vec![
                TraceEvent::FaultInjected {
                    point: "revoke.update",
                    kind: "authority_down",
                    hit: 1,
                },
                TraceEvent::RetryAttempt {
                    op: "revoke",
                    attempt: 1,
                },
                TraceEvent::RetryAttempt {
                    op: "revoke",
                    attempt: 2,
                },
            ],
        ));
        asm.on_close(&rec(
            ctx(2, 1, TraceCtx::NO_PARENT),
            "cloud.revoke",
            300,
            Some("gave up"),
            vec![TraceEvent::RetryGaveUp {
                op: "revoke",
                attempts: 3,
            }],
        ));
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].retries, 2);
        assert!(got[0].gave_up);
        assert_eq!(
            got[0].fault_points,
            vec!["revoke.update:authority_down".to_owned()]
        );
        assert_eq!(got[0].error.as_deref(), Some("gave up"));
    }

    #[test]
    fn own_attrs_override_children_and_numbers_parse() {
        let (asm, out) = collecting();
        asm.on_open(&ctx(3, 1, TraceCtx::NO_PARENT), "durable.read");
        asm.on_close(&rec(
            ctx(3, 2, 1),
            "upgrade",
            10,
            None,
            vec![
                TraceEvent::OpAttr {
                    key: "key_version_observed",
                    value: "1".into(),
                },
                TraceEvent::OpAttr {
                    key: "authority",
                    value: "child-says".into(),
                },
            ],
        ));
        asm.on_close(&rec(
            ctx(3, 1, TraceCtx::NO_PARENT),
            "durable.read",
            50,
            None,
            vec![
                TraceEvent::OpAttr {
                    key: "authority",
                    value: "own-wins".into(),
                },
                // Later same-key attr on the same span overrides.
                TraceEvent::OpAttr {
                    key: "key_version_served",
                    value: "1".into(),
                },
                TraceEvent::OpAttr {
                    key: "key_version_served",
                    value: "2".into(),
                },
            ],
        ));
        let got = out.lock().unwrap();
        assert_eq!(got[0].authority.as_deref(), Some("own-wins"));
        assert_eq!(got[0].key_version_observed, Some(1));
        assert_eq!(got[0].key_version_served, Some(2));
    }

    #[test]
    fn sequential_ops_in_one_trace_each_emit() {
        let (asm, out) = collecting();
        asm.on_open(&ctx(4, 1, TraceCtx::NO_PARENT), "cloud.recover");
        asm.on_close(&rec(
            ctx(4, 1, TraceCtx::NO_PARENT),
            "cloud.recover",
            5,
            None,
            vec![],
        ));
        asm.on_open(&ctx(5, 2, TraceCtx::NO_PARENT), "cloud.lazy_drain");
        asm.on_close(&rec(
            ctx(5, 2, TraceCtx::NO_PARENT),
            "cloud.lazy_drain",
            7,
            None,
            vec![],
        ));
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, "recovery");
        assert_eq!(got[1].kind, "lazy_drain");
    }

    #[test]
    fn traces_without_ops_are_ignored_and_roots_drop_state() {
        let (asm, out) = collecting();
        asm.on_open(&ctx(6, 1, TraceCtx::NO_PARENT), "bench.scope");
        asm.on_close(&rec(
            ctx(6, 1, TraceCtx::NO_PARENT),
            "bench.scope",
            5,
            None,
            vec![],
        ));
        assert!(out.lock().unwrap().is_empty());
        // A cross-thread child parks; its trace's root close drops it.
        asm.on_open(&ctx(7, 2, TraceCtx::NO_PARENT), "cloud.grant");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                asm.on_open(&ctx(7, 3, 9), "cloud.reencrypt.worker");
                asm.on_close(&rec(
                    ctx(7, 3, 9),
                    "cloud.reencrypt.worker",
                    1,
                    None,
                    vec![],
                ));
            });
        });
        assert_eq!(asm.parked_len.load(Ordering::Relaxed), 1);
        asm.on_close(&rec(
            ctx(7, 2, TraceCtx::NO_PARENT),
            "cloud.grant",
            5,
            None,
            vec![],
        ));
        assert_eq!(out.lock().unwrap().len(), 1);
        assert_eq!(
            asm.parked_len.load(Ordering::Relaxed),
            0,
            "root close drops trace state"
        );
        FRAMES.with(|f| assert!(f.borrow().iter().all(|f| f.owner != asm.id)));
    }

    #[test]
    fn cross_thread_children_fold_into_their_parent() {
        let (asm, out) = collecting();
        asm.on_open(&ctx(8, 1, TraceCtx::NO_PARENT), "cloud.revoke");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                asm.on_open(&ctx(8, 2, 1), "cloud.reencrypt.worker");
                asm.on_close(&rec(
                    ctx(8, 2, 1),
                    "cloud.reencrypt.worker",
                    3,
                    None,
                    vec![TraceEvent::RetryAttempt {
                        op: "prepare",
                        attempt: 1,
                    }],
                ));
            });
        });
        asm.on_close(&rec(
            ctx(8, 1, TraceCtx::NO_PARENT),
            "cloud.revoke",
            9,
            None,
            vec![],
        ));
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].retries, 1, "the helper's retry reached the op");
    }

    #[test]
    fn a_full_parked_map_evicts_the_oldest_trace() {
        let (asm, _out) = collecting();
        // Children whose parents live on another thread, one per trace.
        for tid in 1..=(PARKED_CAP as u64 + 3) {
            asm.on_open(&ctx(tid, 2, 1), "cloud.reencrypt.worker");
            asm.on_close(&rec(
                ctx(tid, 2, 1),
                "cloud.reencrypt.worker",
                1,
                None,
                vec![],
            ));
        }
        assert_eq!(asm.evicted(), 3);
        let parked = asm.parked.lock().unwrap();
        assert!(!parked.contains_key(&(1, 1)), "oldest trace evicted first");
        assert!(parked.contains_key(&(4, 1)));
    }
}
