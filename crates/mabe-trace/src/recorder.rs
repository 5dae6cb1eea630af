//! The flight recorder: a bounded ring of completed spans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ctx::TraceCtx;
use crate::event::TraceEvent;

/// Spans the default global recorder retains.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span as the recorder keeps it.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Commit order (monotone across the process); survives ring
    /// wrap-around so exports stay chronologically sorted.
    pub seq: u64,
    /// The span's identity in its trace tree.
    pub ctx: TraceCtx,
    /// Operation name (static so hot paths never allocate for it).
    pub name: &'static str,
    /// Free-form qualifier (record name, uid, attribute, …).
    pub detail: String,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Error message if the span was failed.
    pub error: Option<String>,
    /// Timed events attached while the span was live.
    pub events: Vec<(u64, TraceEvent)>,
}

impl SpanRecord {
    /// Events of one kind label, in order.
    pub fn events_of(&self, kind: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|(_, e)| e.kind() == kind)
            .map(|(_, e)| e)
            .collect()
    }
}

/// A lock-free bounded ring buffer of the last N completed spans.
///
/// Writers claim a slot with a single `fetch_add` on the head counter,
/// then store into that slot under its own (uncontended) mutex — two
/// commits only touch the same lock when they are exactly `capacity`
/// commits apart. Readers snapshot by walking every slot; a snapshot
/// taken during heavy writing sees each slot's last fully-committed
/// span, never a torn one.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    next_span_id: AtomicU64,
    next_trace_id: AtomicU64,
    head: AtomicU64,
    dropped_events: AtomicU64,
    slots: Box<[Mutex<Option<SpanRecord>>]>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRecorder {
            enabled: AtomicBool::new(true),
            next_span_id: AtomicU64::new(1),
            next_trace_id: AtomicU64::new(1),
            head: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
            slots,
        }
    }

    /// Whether the recorder is capturing.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns capturing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Spans the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans committed over the recorder's lifetime.
    pub fn committed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans overwritten by ring wrap-around.
    pub fn dropped_spans(&self) -> u64 {
        self.committed().saturating_sub(self.slots.len() as u64)
    }

    /// Events dropped because a span hit its per-span event cap.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events.load(Ordering::Relaxed)
    }

    pub(crate) fn note_dropped_event(&self) {
        self.dropped_events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn alloc_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Commits one completed span into the ring, returning the record
    /// it displaced once the ring has wrapped (its buffers are the
    /// committing thread's to reuse).
    pub fn commit(&self, mut record: SpanRecord) -> Option<SpanRecord> {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.lock().expect("recorder slot poisoned").replace(record)
    }

    /// Every retained span, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("recorder slot poisoned").clone())
            .collect();
        spans.sort_by_key(|s| s.seq);
        spans
    }

    /// The most recent `n` retained spans, oldest first. This is the
    /// direct accessor live consumers (the `/tracez` endpoint, tests)
    /// use — no `MABE_TRACE_DIR` file round-trip required.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let mut spans = self.snapshot();
        if spans.len() > n {
            spans.drain(..spans.len() - n);
        }
        spans
    }

    /// Empties the ring (ids and counters keep advancing). Benches and
    /// examples use this to start a clean capture; tests sharing the
    /// global recorder should filter by trace id instead.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().expect("recorder slot poisoned") = None;
        }
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide flight recorder.
pub fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

/// Microseconds since the first trace activity in this process.
pub(crate) fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, trace: u64, span: u64) -> SpanRecord {
        SpanRecord {
            seq: 0,
            ctx: TraceCtx {
                trace_id: trace,
                span_id: span,
                parent_id: TraceCtx::NO_PARENT,
            },
            name,
            detail: String::new(),
            start_us: 0,
            dur_us: 1,
            error: None,
            events: Vec::new(),
        }
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_spans() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.commit(record("op", 1, i + 1));
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.first().unwrap().seq, 6, "oldest surviving commit");
        assert_eq!(spans.last().unwrap().seq, 9);
        assert_eq!(rec.committed(), 10);
        assert_eq!(rec.dropped_spans(), 6);
    }

    #[test]
    fn concurrent_commits_all_land() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(1024));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        rec.commit(record("op", t + 1, t * 100 + i + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.committed(), 800);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 800);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "snapshot is sorted");
    }

    #[test]
    fn recent_returns_the_tail_oldest_first() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..6 {
            rec.commit(record("op", 1, i + 1));
        }
        let tail = rec.recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert_eq!(tail[1].seq, 5);
        assert_eq!(rec.recent(100).len(), 6, "n past the ring is clamped");
        assert!(rec.recent(0).is_empty());
    }

    #[test]
    fn clear_empties_without_resetting_seq() {
        let rec = FlightRecorder::with_capacity(8);
        rec.commit(record("a", 1, 1));
        rec.clear();
        assert!(rec.snapshot().is_empty());
        rec.commit(record("b", 1, 2));
        assert_eq!(rec.snapshot()[0].seq, 1);
    }
}
