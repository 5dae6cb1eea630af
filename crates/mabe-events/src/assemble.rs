//! Assembles wide events from span closes, with **no new call sites**
//! in instrumented code: everything is folded out of the spans and
//! typed events the workspace already records.
//!
//! The trick is that spans close innermost-first, so by the time the
//! *outermost* op span of a trace closes, every descendant has already
//! closed and folded its contribution upward. The assembler keeps, per
//! live trace:
//!
//! * `op_stack` — span ids of currently-open *op* spans (pushed at
//!   open). The stack's first element is the top-level operation; any
//!   deeper op span (`cloud.read` nested inside `durable.read`) is a
//!   delegation, not a second operation.
//! * `pending` — stats folded from already-closed spans, keyed by the
//!   parent span id they are waiting to merge into.
//!
//! At each span close: fold the span's own events with whatever its
//! children parked under its id; if the span is the outermost op,
//! finalize a [`OpCandidate`] and hand it to the pipeline; if it is a
//! nested op or a plain span, park the folded stats under its parent.
//! Closing a trace's root drops the trace's state. Every step is O(1)
//! in the size of the trace — no tree walks, no buffering of whole
//! traces.
//!
//! State is sharded by trace id and capped per shard; when a shard is
//! full the trace with the smallest id (the oldest, since trace ids
//! are allocated monotonically) is evicted, deterministically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mabe_trace::{SpanRecord, SpanSink, TraceCtx, TraceEvent};

use crate::record::op_kind;

/// Trace-state shards (trace ids are sequential, so modulo spreads
/// concurrent traces across locks).
const SHARDS: usize = 16;

/// Live traces one shard tracks before evicting the oldest.
const PER_SHARD_CAP: usize = 256;

/// Stats folded from closed spans, parked under the parent span id
/// that will absorb them.
#[derive(Clone, Debug, Default)]
struct Folded {
    retries: u32,
    gave_up: bool,
    fault_points: Vec<String>,
    wal_bytes: u64,
    /// The checkpoint the op paid for, if one ran inside it: its kind
    /// (`delta` or `full`) and the bytes it wrote.
    checkpoint: Option<(&'static str, u64)>,
    /// Op attributes, first-writer-wins at merge time (a span's own
    /// attributes are applied with override semantics *before* its
    /// children's fill in the gaps).
    attrs: Vec<(&'static str, String)>,
}

impl Folded {
    fn set_attr(&mut self, key: &'static str, value: String) {
        match self.attrs.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.attrs.push((key, value)),
        }
    }

    fn fill_attr(&mut self, key: &'static str, value: String) {
        if !self.attrs.iter().any(|(k, _)| *k == key) {
            self.attrs.push((key, value));
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
        for (k, v) in child.attrs {
            self.fill_attr(k, v);
        }
    }

    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Default)]
struct TraceState {
    /// Open op-span ids, outermost first.
    op_stack: Vec<u64>,
    /// Folded stats from closed spans, keyed by the parent span id
    /// they merge into when that parent closes.
    pending: HashMap<u64, Folded>,
}

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
    pub authority: Option<String>,
    /// `uid` op attribute.
    pub uid: Option<String>,
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

/// The span sink: folds closes into per-trace state and emits an
/// [`OpCandidate`] per top-level op via the installed callback.
pub struct Assembler {
    shards: Vec<Mutex<HashMap<u64, TraceState>>>,
    evicted: AtomicU64,
    emit: Box<dyn Fn(OpCandidate) + Send + Sync>,
}

impl std::fmt::Debug for Assembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assembler")
            .field("shards", &self.shards.len())
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
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            evicted: AtomicU64::new(0),
            emit: Box::new(emit),
        }
    }

    /// Traces dropped because their shard was full (forensics: a
    /// nonzero count means some long-lived traces lost attribution).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn shard(&self, trace_id: u64) -> &Mutex<HashMap<u64, TraceState>> {
        &self.shards[(trace_id % SHARDS as u64) as usize]
    }

    /// Folds a record's own events, then merges what its children
    /// parked under its id.
    fn fold(record: &SpanRecord, state: &mut TraceState) -> Folded {
        let mut folded = Folded::default();
        for (_, ev) in &record.events {
            match ev {
                TraceEvent::RetryAttempt { .. } => folded.retries += 1,
                TraceEvent::RetryGaveUp { .. } => folded.gave_up = true,
                TraceEvent::FaultInjected { point, kind, .. } => {
                    folded.fault_points.push(format!("{point}:{kind}"));
                }
                TraceEvent::JournalAppend { bytes, .. } => folded.wal_bytes += bytes,
                TraceEvent::CheckpointWritten { kind, bytes, .. } => {
                    folded.checkpoint = Some((kind, *bytes));
                }
                TraceEvent::OpAttr { key, value } => folded.set_attr(key, value.clone()),
                _ => {}
            }
        }
        if let Some(children) = state.pending.remove(&record.ctx.span_id) {
            folded.absorb(children);
        }
        folded
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
            authority: folded.attr("authority").map(str::to_owned),
            uid: folded.attr("uid").map(str::to_owned),
            key_version_observed: folded
                .attr("key_version_observed")
                .and_then(|v| v.parse().ok()),
            key_version_served: folded
                .attr("key_version_served")
                .and_then(|v| v.parse().ok()),
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
        if op_kind(name).is_none() {
            return; // plain spans cost nothing at open
        }
        let mut shard = self.shard(ctx.trace_id).lock().expect("assembler shard");
        if !shard.contains_key(&ctx.trace_id) && shard.len() >= PER_SHARD_CAP {
            // Deterministic eviction: the smallest trace id is the
            // oldest trace (ids are allocated monotonically).
            if let Some(oldest) = shard.keys().min().copied() {
                shard.remove(&oldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard
            .entry(ctx.trace_id)
            .or_default()
            .op_stack
            .push(ctx.span_id);
    }

    fn on_close(&self, record: &SpanRecord) {
        let candidate = {
            let mut shard = self
                .shard(record.ctx.trace_id)
                .lock()
                .expect("assembler shard");
            let Some(state) = shard.get_mut(&record.ctx.trace_id) else {
                return; // trace never opened an op span (or was evicted)
            };
            let span_id = record.ctx.span_id;
            let folded = Self::fold(record, state);
            let candidate = match state.op_stack.iter().position(|id| *id == span_id) {
                Some(0) => {
                    state.op_stack.remove(0);
                    op_kind(record.name).map(|kind| Self::finalize(record, kind, folded))
                }
                Some(pos) => {
                    // A nested op (durable.read wrapping cloud.read):
                    // a delegation, folded upward instead of emitted.
                    state.op_stack.remove(pos);
                    state
                        .pending
                        .entry(record.ctx.parent_id)
                        .or_default()
                        .absorb(folded);
                    None
                }
                None => {
                    state
                        .pending
                        .entry(record.ctx.parent_id)
                        .or_default()
                        .absorb(folded);
                    None
                }
            };
            if record.ctx.parent_id == TraceCtx::NO_PARENT {
                shard.remove(&record.ctx.trace_id);
            }
            candidate
        };
        if let Some(candidate) = candidate {
            (self.emit)(candidate);
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
        // Op trace: root close must clear the shard entry.
        asm.on_open(&ctx(7, 2, TraceCtx::NO_PARENT), "cloud.grant");
        asm.on_close(&rec(
            ctx(7, 2, TraceCtx::NO_PARENT),
            "cloud.grant",
            5,
            None,
            vec![],
        ));
        let shard = asm.shard(7).lock().unwrap();
        assert!(!shard.contains_key(&7), "root close drops trace state");
    }

    #[test]
    fn full_shards_evict_the_oldest_trace() {
        let (asm, _out) = collecting();
        // Fill one shard (trace ids all ≡ 0 mod SHARDS) past its cap.
        for i in 0..(PER_SHARD_CAP as u64 + 3) {
            let tid = i * SHARDS as u64;
            asm.on_open(&ctx(tid, i + 1, TraceCtx::NO_PARENT), "cloud.read");
        }
        assert_eq!(asm.evicted(), 3);
        let shard = asm.shard(0).lock().unwrap();
        assert!(!shard.contains_key(&0), "oldest trace evicted first");
        assert!(shard.contains_key(&(3 * SHARDS as u64)));
    }
}
