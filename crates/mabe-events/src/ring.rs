//! A bounded ring of kept wide events, mirroring the flight
//! recorder's slot discipline: writers claim a slot with one atomic
//! `fetch_add` and only touch that slot's (uncontended) mutex, so two
//! commits contend only when they are exactly `capacity` commits
//! apart. Readers snapshot slot-by-slot and never see a torn record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::record::WideEvent;

/// Kept events the default pipeline retains.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The bounded kept-event ring.
#[derive(Debug)]
pub struct EventRing {
    head: AtomicU64,
    slots: Box<[Mutex<Option<WideEvent>>]>,
}

impl EventRing {
    /// A ring retaining the last `capacity` kept events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Kept events committed over the ring's lifetime.
    pub fn committed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Kept events overwritten by wrap-around.
    pub fn dropped(&self) -> u64 {
        self.committed().saturating_sub(self.slots.len() as u64)
    }

    /// Commits one kept event.
    pub fn commit(&self, event: WideEvent) {
        let slot_seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(slot_seq % self.slots.len() as u64) as usize];
        *slot.lock().expect("event ring slot poisoned") = Some(event);
    }

    /// Every retained event, oldest first (by emission seq).
    pub fn snapshot(&self) -> Vec<WideEvent> {
        let mut events: Vec<WideEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("event ring slot poisoned").clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The most recent `n` retained events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<WideEvent> {
        let mut events = self.snapshot();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }

    /// Empties the ring (the head keeps advancing). Benches and tests
    /// use this to start a clean capture.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().expect("event ring slot poisoned") = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{KeepReason, Outcome};

    fn ev(seq: u64) -> WideEvent {
        WideEvent {
            seq,
            trace_id: 1,
            span_id: seq,
            kind: "read",
            detail: String::new(),
            outcome: Outcome::Ok,
            start_us: 0,
            latency_us: 1,
            authority: None,
            uid: None,
            key_version_observed: None,
            key_version_served: None,
            retries: 0,
            fault_points: Vec::new(),
            wal_bytes: 0,
            checkpoint: None,
            checkpoint_bytes: 0,
            kept: KeepReason::Sampled,
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10 {
            ring.commit(ev(i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(events.first().unwrap().seq, 6);
        assert_eq!(events.last().unwrap().seq, 9);
        assert_eq!(ring.committed(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.recent(2).len(), 2);
        assert_eq!(ring.recent(2)[0].seq, 8);
    }

    #[test]
    fn concurrent_commits_all_land() {
        let ring = std::sync::Arc::new(EventRing::with_capacity(1024));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        ring.commit(ev(t * 50 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.committed(), 400);
        assert_eq!(ring.snapshot().len(), 400);
    }
}
