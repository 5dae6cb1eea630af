//! Checkpoint-driven compaction: seal the history recorded since the
//! last checkpoint, write the new generation's state — a full snapshot,
//! or a delta of the change since the previous generation — swap the
//! manifest to a fresh single-segment generation that also counts the
//! new seal, and garbage-collect everything the new generation
//! supersedes. Seals are never superseded: the sweep deletes only
//! strays numbered at or above the committed count.
//!
//! The crash-point map (each step is independently killable and the
//! sweep schedules crashes at every one):
//!
//! ```text
//! consult store.compact      crash → old generation fully intact
//! read back live segments    (delta-or-full only) crash → old gen
//!                                    intact; rot or a read error → full
//! consult store.seal         crash/ENOSPC → old generation intact
//! put+sync seal.<s>          crash → stray seal.<s>, old gen intact;
//!                                    the next checkpoint overwrites it
//! full:  put+sync snapshot-<g+1>   crash → stray snapshot, old gen intact
//! delta: consult store.delta       crash/ENOSPC → old generation intact
//!        put+sync delta-<g+1>      crash → stray delta, old gen intact
//! swap manifest (commit)     crash/tear → surviving slot wins
//! put+sync wal.<g+1>.0       crash → committed; reopen creates the
//!                                    missing segment, empty
//! consult store.compact,     crash → committed; strays swept by the
//!   delete stale objects              next successful compaction
//! ```
//!
//! (`s` is the committed seal count; a checkpoint with nothing to seal
//! skips both seal steps.) A full checkpoint makes `g+1` the new base,
//! and its sweep deletes the old base snapshot and its deltas; a delta
//! checkpoint keeps the base, and its sweep deletes only the superseded
//! segments (and strays).
//!
//! Whether a checkpoint is a delta is decided here, in
//! [`Wal::checkpoint_delta_or_full`], with fixed constants; the caller
//! only forces a full one by calling [`Wal::checkpoint`].
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
use crate::segment::{segment_name, verify_frames, SEG_MAGIC};
use crate::storage::{store_points, Storage, StoreError};
use crate::wal::{
    crashed, delta_name, encode_delta, encode_seal, encode_snapshot, seal_name, snap_name,
    verify_cold, Wal,
};

/// Most deltas one base snapshot carries: once this many are live, the
/// next checkpoint is full.
pub const MAX_DELTAS: u64 = 32;

/// What a checkpoint wrote as the new generation's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckpointKind {
    /// `delta-<g>`: the change since the previous generation, applied
    /// on top of the base snapshot.
    Delta,
    /// `snapshot-<g>`: the whole state, the new base.
    Full,
}

impl CheckpointKind {
    /// Stable lowercase label (`delta` or `full`).
    pub fn label(self) -> &'static str {
        match self {
            CheckpointKind::Delta => "delta",
            CheckpointKind::Full => "full",
        }
    }
}

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

/// Bytes `magic ‖ crc32` add to a snapshot, delta or seal payload.
const OBJECT_FRAMING: usize = 12;

impl<S: Storage> Wal<S> {
    /// Checkpoints in full: writes `seal_payload` (if any) as the next
    /// seal and `snapshot_payload` as generation `g+1`'s snapshot — the
    /// new base — swaps the manifest to a fresh single-segment
    /// generation counting the new seal (the commit point), creates the
    /// new active segment, and collects every superseded object,
    /// including the old base, its deltas, and strays left behind by
    /// earlier crashed compactions.
    pub fn checkpoint(
        &mut self,
        snapshot_payload: &[u8],
        seal_payload: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        if let Some(failure) = lifecycle_fault(&self.store, store_points::COMPACT) {
            return Err(failure);
        }
        self.commit(CheckpointKind::Full, snapshot_payload, seal_payload)
    }

    /// Checkpoints at the cost of the change when the rule allows. The
    /// live segments are read back and their records handed to `delta`,
    /// which folds them into a delta payload (`None` if it cannot); that
    /// payload becomes `delta-<g+1>`. Otherwise `full()` builds the
    /// snapshot payload and the checkpoint is [`Wal::checkpoint`]'s. The
    /// rule, with fixed constants — the checkpoint is full when:
    ///
    /// * there is no base snapshot yet (generation 0);
    /// * [`MAX_DELTAS`] deltas are already live;
    /// * a live segment fails its checksum or length on read-back, or
    ///   the read fails short of a crash;
    /// * the live deltas plus this one would outweigh the base snapshot.
    ///
    /// Either kind seals `seal_payload` and advances the generation by
    /// one. Failures classify as [`Wal::checkpoint`]'s.
    pub fn checkpoint_delta_or_full(
        &mut self,
        seal_payload: Option<&[u8]>,
        delta: impl FnOnce(Vec<Vec<u8>>) -> Option<Vec<u8>>,
        full: impl FnOnce() -> Vec<u8>,
    ) -> Result<CheckpointKind, CheckpointFailure> {
        if let Some(failure) = lifecycle_fault(&self.store, store_points::COMPACT) {
            return Err(failure);
        }
        // Bytes the delta may take before the deltas outweigh the base.
        let room = self
            .base_bytes
            .saturating_sub(self.delta_bytes + OBJECT_FRAMING);
        let delta = if self.manifest.base == 0 || self.manifest.deltas() >= MAX_DELTAS || room == 0
        {
            None
        } else {
            match self.read_back_live() {
                Ok(records) => records.and_then(delta),
                // The process died reading; any other read failure
                // leaves the full checkpoint, which reads nothing.
                Err(error @ StoreError::Crashed { .. }) => return Err(clean(error)),
                Err(_) => None,
            }
        };
        match delta.filter(|payload| payload.len() <= room) {
            Some(payload) => self
                .commit(CheckpointKind::Delta, &payload, seal_payload)
                .map(|()| CheckpointKind::Delta),
            None => self
                .commit(CheckpointKind::Full, &full(), seal_payload)
                .map(|()| CheckpointKind::Full),
        }
    }

    /// Every record of the live segments, read back from storage;
    /// `None` if a segment is missing, has the wrong length or fails a
    /// checksum (the checkpoint then goes full). Read errors propagate.
    fn read_back_live(&mut self) -> Result<Option<Vec<Vec<u8>>>, StoreError> {
        let generation = self.manifest.generation;
        let segments = self.manifest.segments.clone();
        let (active, cold) = segments.split_last().expect("manifest never empty");
        let mut records = Vec::new();
        for entry in cold {
            let segment = self.store.read(&segment_name(generation, entry.seq))?;
            match verify_cold(segment, entry) {
                Ok(mut recs) => records.append(&mut recs),
                Err(_) => return Ok(None),
            }
        }
        // The active segment holds exactly what was appended to it.
        let segment = self.store.read(&segment_name(generation, active.seq))?;
        match segment.filter(|bytes| bytes.len() == self.active_bytes) {
            Some(bytes) => match verify_frames(&bytes) {
                Ok(mut recs) => records.append(&mut recs),
                Err(_) => return Ok(None),
            },
            None => return Ok(None),
        }
        Ok(Some(records))
    }

    /// Writes the seal and the state object, swaps the manifest to
    /// generation `g+1` and collects what it supersedes.
    fn commit(
        &mut self,
        kind: CheckpointKind,
        state_payload: &[u8],
        seal_payload: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        let reclaimable = self.live_log_bytes();
        let next_gen = self.manifest.generation + 1;
        let (seals, written, state_bytes, base) =
            match self.write_next(kind, state_payload, seal_payload) {
                Ok(wrote) => wrote,
                Err(failure) => {
                    self.strays_possible = true;
                    return Err(failure);
                }
            };

        let next = Manifest {
            seq: self.manifest.seq + 1,
            generation: next_gen,
            base,
            seals,
            segments: vec![SegmentEntry { seq: 0, bytes: 0 }],
        };
        let superseded = superseded(&self.manifest, kind);
        self.swap_manifest(next).map_err(dirty)?;
        match kind {
            CheckpointKind::Full => {
                self.base_bytes = state_bytes;
                self.delta_bytes = 0;
            }
            CheckpointKind::Delta => self.delta_bytes += state_bytes,
        }

        let seg = segment_name(next_gen, 0);
        self.store.put(&seg, SEG_MAGIC).map_err(dirty)?;
        self.store.sync(&seg).map_err(dirty)?;
        self.cold_bytes = 0;
        self.active_bytes = SEG_MAGIC.len();

        self.collect_stale(&superseded).map_err(dirty)?;

        let registry = mabe_telemetry::global();
        registry.counter(checkpoint_counter(kind), &[]).inc();
        registry
            .counter("mabe_wal_bytes_reclaimed_total", &[])
            .add(reclaimable as u64);
        registry.gauge("mabe_wal_segments_live", &[]).set(1);
        mabe_trace::event(mabe_trace::TraceEvent::CheckpointWritten {
            generation: next_gen,
            kind: kind.label(),
            bytes: written as u64,
        });
        Ok(())
    }

    /// Writes and syncs the next generation's seal (if any) and state
    /// object, returning the seal count, the bytes written, the state
    /// object's framed size and the base the next manifest names.
    ///
    /// Everything up to the swap fails clean: the old generation stays
    /// authoritative, and a stray seal, snapshot or delta is harmless
    /// (the next checkpoint overwrites the seal; the next successful
    /// compaction's sweep collects any of them).
    fn write_next(
        &mut self,
        kind: CheckpointKind,
        state_payload: &[u8],
        seal_payload: Option<&[u8]>,
    ) -> Result<(u64, usize, usize, u64), CheckpointFailure> {
        let next_gen = self.manifest.generation + 1;
        let mut seals = self.manifest.seals;
        let mut written = 0;
        if let Some(payload) = seal_payload {
            if let Some(failure) = lifecycle_fault(&self.store, store_points::SEAL) {
                return Err(failure);
            }
            let seal = seal_name(seals);
            let framed = encode_seal(payload);
            self.store.put(&seal, &framed).map_err(clean)?;
            self.store.sync(&seal).map_err(clean)?;
            written += framed.len();
            seals += 1;
        }
        let (name, framed, base) = match kind {
            CheckpointKind::Full => (
                snap_name(next_gen),
                encode_snapshot(state_payload),
                next_gen,
            ),
            CheckpointKind::Delta => {
                if let Some(failure) = lifecycle_fault(&self.store, store_points::DELTA) {
                    return Err(failure);
                }
                let base = self.manifest.base;
                (delta_name(next_gen), encode_delta(state_payload), base)
            }
        };
        self.store.put(&name, &framed).map_err(clean)?;
        self.store.sync(&name).map_err(clean)?;
        written += framed.len();
        Ok((seals, written, framed.len(), base))
    }

    /// Deletes every object the current manifest supersedes: segments
    /// of other generations, snapshots other than the base, deltas
    /// outside `(base, generation]`, and stray seals numbered at or
    /// above the committed count. Committed seals, quarantined and
    /// manifest objects are never touched. Consults the compaction
    /// fault point before each delete, so the sweep can crash mid-GC.
    ///
    /// The names are those the manifest transition `superseded`, unless
    /// a stray may exist: a crash before a swap or a clean checkpoint
    /// failure can leave one, so after an open (which may follow such a
    /// crash) and after a clean failure the next sweep lists the store
    /// once. Committed seals accumulate, so a sweep that listed every
    /// time would cost more with every checkpoint.
    fn collect_stale(&mut self, superseded: &[String]) -> Result<(), StoreError> {
        let point = store_points::COMPACT;
        let manifest = &self.manifest;
        let stale: Vec<String> = if self.strays_possible {
            let listed = self.store.list();
            listed
                .into_iter()
                .filter(|n| is_stale(n, manifest))
                .collect()
        } else {
            superseded.to_vec()
        };
        self.strays_possible = false;
        for name in stale {
            if let Some(FaultKind::Crash) =
                self.store.lifecycle_faults().and_then(|i| i.decide(point))
            {
                return Err(crashed(point));
            }
            // Best-effort: a stale object that refuses to die is
            // harmless, the manifest no longer names it. It is a stray
            // now, for the next sweep to find by listing.
            if self.store.delete(&name).is_err() {
                self.strays_possible = true;
            }
        }
        Ok(())
    }
}

/// Whether `manifest` supersedes the object `name`.
fn is_stale(name: &str, manifest: &Manifest) -> bool {
    let Manifest {
        generation,
        base,
        seals,
        ..
    } = *manifest;
    if let Some(seg) = parse_segment_gen(name) {
        return seg != generation;
    }
    if let Some(snap) = parse_generation(name, "snapshot-") {
        return generation > 0 && snap != base;
    }
    if let Some(delta) = parse_generation(name, "delta-") {
        return delta <= base || delta > generation;
    }
    if let Some(seal) = parse_generation(name, "seal.") {
        return seal >= seals;
    }
    false
}

/// The objects a `kind` checkpoint from `old` supersedes, in name order
/// (the order a listing sweep deletes them in): every segment `old`
/// lists and, for a full checkpoint (a new base), the old base snapshot
/// and its deltas.
fn superseded(old: &Manifest, kind: CheckpointKind) -> Vec<String> {
    let mut names: Vec<String> = old
        .segments
        .iter()
        .map(|entry| segment_name(old.generation, entry.seq))
        .collect();
    if kind == CheckpointKind::Full {
        if old.base > 0 {
            names.push(snap_name(old.base));
        }
        names.extend((old.base + 1..=old.generation).map(delta_name));
    }
    names.sort();
    names
}

/// The counter of written checkpoints of `kind`: full snapshots keep
/// the family they always had.
pub(crate) fn checkpoint_counter(kind: CheckpointKind) -> &'static str {
    match kind {
        CheckpointKind::Full => "mabe_snapshots_written_total",
        CheckpointKind::Delta => "mabe_deltas_written_total",
    }
}

/// Generation of a `wal.<gen>.<seq>` object name, if it is one.
fn parse_segment_gen(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal.")?;
    let (gen, seq) = rest.split_once('.')?;
    seq.parse::<u64>().ok()?;
    gen.parse().ok()
}

/// The number after `prefix` in a `snapshot-<g>`, `delta-<g>` or
/// `seal.<n>` object name, if `name` is one.
fn parse_generation(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
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

        // Committed seals survive every sweep, listing ones included.
        for _ in 0..3 {
            wal.strays_possible = true;
            wal.collect_stale(&[]).unwrap();
        }
        let (_, r) = Wal::open(wal.into_store()).expect("reopen");
        assert_eq!(r.seals, vec![b"SEAL-0".to_vec(), b"SEAL-1".to_vec()]);
    }

    /// A store that counts the work asked of it: every call, plus every
    /// name a listing returns.
    #[derive(Default)]
    struct Metered {
        disk: SimDisk,
        work: std::cell::Cell<u64>,
        listings: std::cell::Cell<u64>,
    }

    impl Metered {
        fn tick(&self, n: u64) {
            self.work.set(self.work.get() + n);
        }
    }

    impl Storage for Metered {
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.tick(1);
            self.disk.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.tick(1);
            self.disk.sync(name)
        }
        fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.tick(1);
            self.disk.put(name, bytes)
        }
        fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
            self.tick(1);
            self.disk.read(name)
        }
        fn delete(&mut self, name: &str) -> Result<(), StoreError> {
            self.tick(1);
            self.disk.delete(name)
        }
        fn list(&self) -> Vec<String> {
            let names = self.disk.list();
            self.tick(1 + names.len() as u64);
            self.listings.set(self.listings.get() + 1);
            names
        }
    }

    #[test]
    fn storage_work_per_checkpoint_stays_flat_as_seals_accumulate() {
        let mut wal = Wal::open(Metered::default()).expect("fresh open").0;
        let checkpoint = |wal: &mut Wal<Metered>, i: u64| {
            wal.append(&i.to_be_bytes()).unwrap();
            wal.sync().unwrap();
            let before = wal.store().work.get();
            // Full every 8th, deltas between: both kinds sweep.
            let kind = wal
                .checkpoint_delta_or_full(
                    Some(b"SEAL"),
                    |records| (!i.is_multiple_of(8)).then(|| records.concat()),
                    || vec![7; 4096],
                )
                .unwrap();
            (kind, wal.store().work.get() - before)
        };
        // The first sweep after an open lists the store once.
        checkpoint(&mut wal, 0);
        let listings = wal.store().listings.get();
        let costs: Vec<_> = (1..2_000).map(|i| checkpoint(&mut wal, i)).collect();
        assert_eq!(wal.seals(), 2_000, "every checkpoint committed a seal");
        assert_eq!(
            wal.store().listings.get(),
            listings,
            "no sweep listed again"
        );
        // The schedule repeats every 8 checkpoints, and so does the cost.
        for (i, cost) in costs.iter().enumerate().skip(8) {
            assert_eq!(*cost, costs[i - 8], "checkpoint {} costs more", i + 1);
        }
        assert!(costs[..8].iter().any(|(k, _)| *k == CheckpointKind::Full));
        assert!(costs[..8].iter().any(|(k, _)| *k == CheckpointKind::Delta));
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

    /// A log with a 256-byte base snapshot at generation 1 and one
    /// journaled record.
    fn based() -> Wal<SimDisk> {
        let mut wal = fresh();
        wal.checkpoint(&[9; 256], None).unwrap();
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal
    }

    /// The delta-or-full checkpoint whose delta is `payload` (`None`:
    /// the fold fails), returning what it wrote.
    fn auto(wal: &mut Wal<SimDisk>, payload: Option<&[u8]>) -> CheckpointKind {
        let delta = |_| payload.map(<[u8]>::to_vec);
        wal.checkpoint_delta_or_full(Some(b"SEAL"), delta, || b"FULL".to_vec())
            .unwrap()
    }

    fn names(wal: &Wal<SimDisk>, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = wal
            .store()
            .list()
            .into_iter()
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_delta_reads_back_the_live_segments_and_reopens_on_its_base() {
        let mut wal = based();
        wal.set_segment_budget(64);
        for i in 0..6u8 {
            wal.append(&[i; 24]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments_live() > 1);
        let mut seen = Vec::new();
        let kind = wal
            .checkpoint_delta_or_full(
                None,
                |records| {
                    seen = records;
                    Some(b"DELTA".to_vec())
                },
                || unreachable!("the rule picks the delta"),
            )
            .unwrap();
        assert_eq!(kind, CheckpointKind::Delta);
        let mut want = vec![b"op".to_vec()];
        want.extend((0..6u8).map(|i| vec![i; 24]));
        assert_eq!(seen, want, "every live record, cold and active, in order");
        assert_eq!((wal.generation(), wal.manifest.base), (2, 1));
        // The delta checkpoint collected the old segments, not the base.
        assert_eq!(names(&wal, "snapshot-"), ["snapshot-1"]);
        assert_eq!(names(&wal, "delta-"), ["delta-2"]);
        assert_eq!(names(&wal, "wal."), ["wal.2.0"]);
        let (_, r) = Wal::open(wal.into_store()).unwrap();
        assert_eq!(r.snapshot, Some(vec![9; 256]));
        assert_eq!(r.deltas, vec![b"DELTA".to_vec()]);
        assert_eq!((r.report.generation, r.report.deltas), (2, 1));
    }

    #[test]
    fn the_rule_goes_full_without_a_base_past_the_base_bytes_or_on_a_failed_fold() {
        // No base yet.
        let mut wal = fresh();
        assert_eq!(auto(&mut wal, Some(b"D")), CheckpointKind::Full);
        assert_eq!(wal.manifest.base, 1);

        // Deltas that together would outweigh the 268-byte base.
        let mut wal = based();
        assert_eq!(auto(&mut wal, Some(&[1; 120])), CheckpointKind::Delta);
        assert_eq!(auto(&mut wal, Some(&[2; 120])), CheckpointKind::Delta);
        assert_eq!(auto(&mut wal, Some(&[3; 120])), CheckpointKind::Full);
        assert_eq!((wal.generation(), wal.manifest.base), (4, 4));
        // The full checkpoint deleted the old base and its deltas.
        assert_eq!(names(&wal, "snapshot-"), ["snapshot-4"]);
        assert!(names(&wal, "delta-").is_empty());
        assert_eq!(wal.seals(), 3, "both kinds seal");

        // A fold that cannot build the delta.
        let mut wal = based();
        assert_eq!(auto(&mut wal, None), CheckpointKind::Full);
    }

    #[test]
    fn the_rule_goes_full_once_max_deltas_are_live() {
        let mut wal = fresh();
        wal.checkpoint(&[0; 4096], None).unwrap();
        for _ in 0..MAX_DELTAS {
            assert_eq!(auto(&mut wal, Some(b"D")), CheckpointKind::Delta);
        }
        assert_eq!(names(&wal, "delta-").len(), MAX_DELTAS as usize);
        assert_eq!(auto(&mut wal, Some(b"D")), CheckpointKind::Full);
        assert_eq!(wal.generation(), MAX_DELTAS + 2);
        assert!(names(&wal, "delta-").is_empty());
    }

    #[test]
    fn a_segment_that_fails_its_checksum_on_read_back_makes_the_checkpoint_full() {
        let mut wal = based();
        let mut bytes = wal.store().durable_bytes("wal.1.0").unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        wal.store_mut().set_durable("wal.1.0", bytes);
        let kind = wal
            .checkpoint_delta_or_full(
                None,
                |_| unreachable!("no fold over a rotted log"),
                || b"FULL".to_vec(),
            )
            .unwrap();
        assert_eq!(kind, CheckpointKind::Full);
        let (_, r) = Wal::open(wal.into_store()).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"FULL"[..]));

        // A read that fails short of a crash goes full too; a crash
        // fails the checkpoint clean.
        let mut wal = based();
        let injector = wal.store_mut().injector_mut();
        injector.schedule(store_points::READ, 1, FaultKind::StorageError);
        assert_eq!(auto(&mut wal, Some(b"D")), CheckpointKind::Full);
        let mut wal = based();
        let injector = wal.store_mut().injector_mut();
        injector.schedule(store_points::READ, 1, FaultKind::Crash);
        let failure = wal
            .checkpoint_delta_or_full(None, |_| Some(b"D".to_vec()), || b"FULL".to_vec())
            .unwrap_err();
        assert!(!failure.dirty);
        assert_eq!(wal.generation(), 1);
    }

    #[test]
    fn a_fault_at_the_delta_point_fails_clean_and_a_stray_delta_is_swept() {
        for kind in [FaultKind::Crash, FaultKind::NoSpace] {
            let mut wal = based();
            wal.store_mut()
                .injector_mut()
                .schedule(store_points::DELTA, 1, kind);
            let failure = wal
                .checkpoint_delta_or_full(None, |_| Some(b"D".to_vec()), || unreachable!())
                .unwrap_err();
            assert!(!failure.dirty, "{kind:?} at the delta must not poison");
            assert!(names(&wal, "delta-").is_empty());
            assert_eq!(wal.generation(), 1);
            assert_eq!(auto(&mut wal, Some(b"D")), CheckpointKind::Delta);
        }

        // A delta synced before a crashed swap is a stray: reopen
        // ignores it, and the next full checkpoint deletes it.
        let mut wal = based();
        // Die once the delta's sync is durable, before the swap.
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::SYNC_POST, 1, FaultKind::Crash);
        let failure = wal
            .checkpoint_delta_or_full(None, |_| Some(b"STRAY".to_vec()), || unreachable!())
            .unwrap_err();
        assert!(!failure.dirty);
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        assert!(
            disk.durable_bytes("delta-2").is_some(),
            "the stray is durable"
        );
        let (mut wal, r) = Wal::open(disk).unwrap();
        assert!(r.deltas.is_empty());
        assert_eq!(r.records, vec![b"op".to_vec()]);
        wal.checkpoint(b"FULL", None).unwrap();
        assert!(names(&wal, "delta-").is_empty());
    }
}
