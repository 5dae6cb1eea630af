//! Checkpoint-driven compaction: seal the history recorded since the
//! last checkpoint, snapshot the live state, swap the manifest to a
//! fresh single-segment generation that also counts the new seal, and
//! garbage-collect everything the new generation supersedes. Seals are
//! never superseded: the sweep deletes only strays numbered at or above
//! the committed count.
//!
//! The crash-point map (each step is independently killable and the
//! sweep schedules crashes at every one):
//!
//! ```text
//! consult store.compact      crash → old generation fully intact
//! consult store.seal         crash/ENOSPC → old generation intact
//! put+sync seal.<s>          crash → stray seal.<s>, old gen intact;
//!                                    the next checkpoint overwrites it
//! put+sync snapshot-<g+1>    crash → stray snapshot, old gen intact
//! swap manifest (commit)     crash/tear → surviving slot wins
//! put+sync wal.<g+1>.0       crash → committed; missing segment = empty
//! consult store.compact,     crash → committed; strays swept by the
//!   delete stale objects              next successful compaction
//! ```
//!
//! (`s` is the committed seal count; a checkpoint with nothing to seal
//! skips both seal steps.)
//!
//! Failures are classified by whether the caller's in-memory state may
//! have diverged from the committed on-disk state: anything *before*
//! the manifest swap leaves the old generation authoritative and the
//! error clean ([`CheckpointFailure::dirty`] = false — the journal must
//! **not** be poisoned, which is what lets a full disk degrade to
//! read-only instead of killing the system); anything at or after the
//! swap is ambiguous (the swap's sync may have landed without its ack)
//! and poisons.

use std::fmt;

use mabe_faults::FaultKind;

use crate::manifest::{Manifest, SegmentEntry};
use crate::segment::{segment_name, SEG_MAGIC};
use crate::storage::{store_points, Storage, StoreError};
use crate::wal::{crashed, encode_seal, encode_snapshot, seal_name, snap_name, Wal};

/// A failed checkpoint, classified for the group-commit layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointFailure {
    /// What went wrong.
    pub error: StoreError,
    /// True if the on-disk commit may disagree with the caller's
    /// in-memory bookkeeping (the manifest swap was attempted): the
    /// journal must be poisoned. False means the failure was clean —
    /// the old generation is still fully authoritative and writing may
    /// resume once the cause (e.g. a full disk) clears.
    pub dirty: bool,
}

impl fmt::Display for CheckpointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint failed ({}): {}",
            if self.dirty { "dirty" } else { "clean" },
            self.error
        )
    }
}

impl std::error::Error for CheckpointFailure {}

fn clean(error: StoreError) -> CheckpointFailure {
    CheckpointFailure {
        error,
        dirty: false,
    }
}

fn dirty(error: StoreError) -> CheckpointFailure {
    CheckpointFailure { error, dirty: true }
}

/// The clean failure an injected lifecycle fault at `point` means, if
/// any.
fn lifecycle_fault<S: Storage>(store: &S, point: &'static str) -> Option<CheckpointFailure> {
    match store.lifecycle_faults().and_then(|i| i.decide(point)) {
        Some(FaultKind::Crash) => Some(clean(crashed(point))),
        Some(FaultKind::NoSpace) => Some(clean(StoreError::NoSpace { point })),
        Some(FaultKind::StorageError) => Some(clean(StoreError::Transient { point })),
        _ => None,
    }
}

impl<S: Storage> Wal<S> {
    /// Checkpoints: writes `seal_payload` (if any) as the next seal and
    /// `snapshot_payload` as generation `g+1`, swaps the manifest to a
    /// fresh single-segment generation counting the new seal (the
    /// commit point), creates the new active segment, and collects
    /// every superseded object — including strays left behind by
    /// earlier crashed compactions.
    pub fn checkpoint(
        &mut self,
        snapshot_payload: &[u8],
        seal_payload: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        if let Some(failure) = lifecycle_fault(&self.store, store_points::COMPACT) {
            return Err(failure);
        }
        let reclaimable = self.live_log_bytes();
        let next_gen = self.manifest.generation + 1;

        // Everything up to the swap fails clean: the old generation
        // stays authoritative, and a stray seal or snapshot is harmless
        // (the next checkpoint overwrites the seal; the next successful
        // compaction's sweep collects either).
        let mut seals = self.manifest.seals;
        if let Some(payload) = seal_payload {
            if let Some(failure) = lifecycle_fault(&self.store, store_points::SEAL) {
                return Err(failure);
            }
            let seal = seal_name(seals);
            self.store
                .put(&seal, &encode_seal(payload))
                .map_err(clean)?;
            self.store.sync(&seal).map_err(clean)?;
            seals += 1;
        }
        let snap = snap_name(next_gen);
        self.store
            .put(&snap, &encode_snapshot(snapshot_payload))
            .map_err(clean)?;
        self.store.sync(&snap).map_err(clean)?;

        let next = Manifest {
            seq: self.manifest.seq + 1,
            generation: next_gen,
            seals,
            segments: vec![SegmentEntry { seq: 0, bytes: 0 }],
        };
        self.swap_manifest(next).map_err(dirty)?;

        let seg = segment_name(next_gen, 0);
        self.store.put(&seg, SEG_MAGIC).map_err(dirty)?;
        self.store.sync(&seg).map_err(dirty)?;
        self.cold_bytes = 0;
        self.active_bytes = SEG_MAGIC.len();

        self.collect_stale().map_err(dirty)?;

        let registry = mabe_telemetry::global();
        registry.counter("mabe_snapshots_written_total", &[]).inc();
        registry
            .counter("mabe_wal_bytes_reclaimed_total", &[])
            .add(reclaimable as u64);
        registry.gauge("mabe_wal_segments_live", &[]).set(1);
        mabe_trace::event(mabe_trace::TraceEvent::CheckpointWritten {
            generation: next_gen,
        });
        Ok(())
    }

    /// Deletes every object the current manifest supersedes: segments
    /// of other generations, snapshots other than the committed one,
    /// and stray seals numbered at or above the committed count.
    /// Committed seals, quarantined and manifest objects are never
    /// touched. Consults the compaction fault point before each delete,
    /// so the sweep can crash mid-GC.
    fn collect_stale(&mut self) -> Result<(), StoreError> {
        let point = store_points::COMPACT;
        let generation = self.manifest.generation;
        let seals = self.manifest.seals;
        let stale: Vec<String> = self
            .store
            .list()
            .into_iter()
            .filter(|name| {
                if let Some(seg) = parse_segment_gen(name) {
                    return seg != generation;
                }
                if let Some(snap) = parse_snapshot_gen(name) {
                    return generation > 0 && snap != generation;
                }
                if let Some(seal) = parse_seal_number(name) {
                    return seal >= seals;
                }
                false
            })
            .collect();
        for name in stale {
            if let Some(FaultKind::Crash) =
                self.store.lifecycle_faults().and_then(|i| i.decide(point))
            {
                return Err(crashed(point));
            }
            // Best-effort: a stale object that refuses to die is
            // harmless, the manifest no longer names it.
            let _ = self.store.delete(&name);
        }
        Ok(())
    }
}

/// Generation of a `wal.<gen>.<seq>` object name, if it is one.
fn parse_segment_gen(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal.")?;
    let (gen, seq) = rest.split_once('.')?;
    seq.parse::<u64>().ok()?;
    gen.parse().ok()
}

/// Generation of a `snapshot-<gen>` object name, if it is one.
fn parse_snapshot_gen(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.parse().ok()
}

/// Number of a `seal.<n>` object name, if it is one.
fn parse_seal_number(name: &str) -> Option<u64> {
    name.strip_prefix("seal.")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDisk;

    fn fresh() -> Wal<SimDisk> {
        Wal::open(SimDisk::unfaulted()).expect("fresh open").0
    }

    #[test]
    fn compaction_collects_every_cold_segment_and_bounds_live_bytes() {
        let mut wal = fresh();
        wal.set_segment_budget(64);
        for i in 0..20u8 {
            wal.append(&[i; 32]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments_live() > 3);
        let before = wal.live_log_bytes();
        wal.checkpoint(b"STATE", None).unwrap();
        assert_eq!(wal.segments_live(), 1);
        assert!(wal.live_log_bytes() < before);
        // Only the fresh segment, the manifest slots, and the snapshot
        // remain on disk.
        let names = wal.store().list();
        assert!(names.iter().any(|n| n == "wal.1.0"));
        assert!(!names.iter().any(|n| n.starts_with("wal.0.")));
    }

    #[test]
    fn a_full_disk_fails_the_checkpoint_clean() {
        let mut wal = fresh();
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal.store_mut().injector_mut().schedule(
            store_points::COMPACT,
            1,
            mabe_faults::FaultKind::NoSpace,
        );
        let failure = wal.checkpoint(b"SNAP", None).unwrap_err();
        assert!(!failure.dirty, "pre-swap ENOSPC must not poison");
        assert!(matches!(failure.error, StoreError::NoSpace { .. }));
        // The log is still fully usable.
        wal.append(b"more").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"SNAP", None).unwrap();
        assert_eq!(wal.generation(), 1);
    }

    #[test]
    fn organic_enospc_on_the_snapshot_write_fails_clean() {
        let mut wal = fresh();
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        let used = wal.store().live_bytes();
        wal.store_mut().set_capacity(Some(used + 16));
        let failure = wal.checkpoint(&[0; 64], None).unwrap_err();
        assert!(!failure.dirty);
        assert!(matches!(failure.error, StoreError::NoSpace { .. }));
        // Lifting the pressure lets the same checkpoint through.
        wal.store_mut().set_capacity(None);
        wal.checkpoint(&[0; 64], None).unwrap();
    }

    #[test]
    fn a_fault_at_the_seal_point_fails_clean_before_any_write() {
        for kind in [FaultKind::Crash, FaultKind::NoSpace] {
            let mut wal = fresh();
            wal.append(b"op").unwrap();
            wal.sync().unwrap();
            wal.store_mut()
                .injector_mut()
                .schedule(store_points::SEAL, 1, kind);
            let failure = wal.checkpoint(b"SNAP", Some(b"SEAL")).unwrap_err();
            assert!(!failure.dirty, "{kind:?} at the seal must not poison");
            assert!(!wal.store().list().iter().any(|n| n.starts_with("seal.")));
            assert_eq!((wal.generation(), wal.seals()), (0, 0));
            // The log is untouched and the retry goes through.
            wal.checkpoint(b"SNAP", Some(b"SEAL")).unwrap();
            assert_eq!((wal.generation(), wal.seals()), (1, 1));
        }
    }

    #[test]
    fn a_seal_synced_before_a_crashed_swap_is_a_stray_the_next_checkpoint_replaces() {
        let mut wal = fresh();
        wal.checkpoint(b"STATE-1", Some(b"SEAL-0")).unwrap();
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        // PUT hit 1 is seal.1, hit 2 the snapshot: die once the seal
        // is synced but before the swap could commit it.
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::PUT, 2, FaultKind::Crash);
        let failure = wal.checkpoint(b"STATE-2", Some(b"STRAY")).unwrap_err();
        assert!(!failure.dirty);
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        assert!(
            disk.durable_bytes("seal.1").is_some(),
            "the stray is durable"
        );

        // Reopen ignores the stray: the manifest counts one seal.
        let (mut wal, r) = Wal::open(disk).expect("reopen");
        assert_eq!((wal.generation(), wal.seals()), (1, 1));
        assert_eq!(r.seals, vec![b"SEAL-0".to_vec()]);
        assert_eq!(r.records, vec![b"op".to_vec()]);

        // The next successful checkpoint overwrites it…
        wal.checkpoint(b"STATE-2", Some(b"SEAL-1")).unwrap();
        let (mut wal, r) = Wal::open(wal.into_store()).expect("reopen");
        assert_eq!(r.seals, vec![b"SEAL-0".to_vec(), b"SEAL-1".to_vec()]);

        // …and one with nothing to seal deletes a stray instead.
        let injector = wal.store_mut().injector_mut();
        injector.arm();
        injector.schedule(store_points::PUT, 2, FaultKind::Crash);
        assert!(wal.checkpoint(b"STATE-3", Some(b"STRAY")).is_err());
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        let (mut wal, _) = Wal::open(disk).expect("reopen");
        assert!(wal.store().list().iter().any(|n| n == "seal.2"));
        wal.checkpoint(b"STATE-3", None).unwrap();
        assert!(!wal.store().list().iter().any(|n| n == "seal.2"));

        // Committed seals survive every sweep.
        for _ in 0..3 {
            wal.collect_stale().unwrap();
        }
        let (_, r) = Wal::open(wal.into_store()).expect("reopen");
        assert_eq!(r.seals, vec![b"SEAL-0".to_vec(), b"SEAL-1".to_vec()]);
    }

    #[test]
    fn crash_mid_gc_leaves_a_committed_generation_and_strays_get_swept() {
        let mut wal = fresh();
        wal.set_segment_budget(64);
        for i in 0..8u8 {
            wal.append(&[i; 32]).unwrap();
        }
        wal.sync().unwrap();
        // Hit 1 is the entry consult; hit 2 is the first delete.
        wal.store_mut().injector_mut().schedule(
            store_points::COMPACT,
            2,
            mabe_faults::FaultKind::Crash,
        );
        let failure = wal.checkpoint(b"STATE", None).unwrap_err();
        assert!(matches!(failure.error, StoreError::Crashed { .. }));
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        // Strays from the crashed GC are still on disk…
        assert!(disk.list().iter().any(|n| n.starts_with("wal.0.")));
        let (mut wal, r) = Wal::open(disk).expect("reopen");
        assert_eq!(wal.generation(), 1);
        assert_eq!(r.snapshot.as_deref(), Some(&b"STATE"[..]));
        assert!(r.records.is_empty());
        // …until the next successful compaction sweeps them.
        wal.append(b"next").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"STATE-2", None).unwrap();
        let names = wal.store().list();
        assert!(!names.iter().any(|n| n.starts_with("wal.0.")));
        assert!(!names.iter().any(|n| n == "snapshot-1"));
    }
}
