//! Segmented write-ahead log with checkpointed snapshots and a managed
//! lifecycle (rotation, compaction, scrubbing).
//!
//! On-disk layout (object families in a [`Storage`]):
//!
//! * `manifest.0` / `manifest.1` — dual-slot segment manifest (see
//!   [`crate::manifest`]). Swapping the stale slot (put + sync) is the
//!   atomic commit point of both rotation and checkpointing; the
//!   surviving slot makes a torn swap harmless.
//! * `wal.<gen>.<seq>` — log segments (see [`crate::segment`]): magic
//!   plus records framed as `u32 len ‖ u32 crc32(payload) ‖ payload`.
//!   The highest seq listed by the manifest is the *active* segment;
//!   appends land there until the segment budget rolls it.
//! * `snapshot-<g>` — `b"MSNP0001" ‖ u32 crc32(payload) ‖ payload`, the
//!   live state as of generation `g`'s full checkpoint. The manifest's
//!   `base` names the one that is live (none at generation 0).
//! * `delta-<g>` — `b"MDLT0001" ‖ u32 crc32(payload) ‖ payload`, what a
//!   delta checkpoint to generation `g` wrote instead of a snapshot: the
//!   change since generation `g-1`, which the caller applies on top of
//!   the base snapshot and the deltas before it. One is live for each
//!   generation in `(base, generation]`.
//! * `seal.<n>` — `b"MSEL0001" ‖ u32 crc32(payload) ‖ payload`, the
//!   append-only history a checkpoint moved out of its snapshot (the
//!   durable layer seals the audit entries recorded since the previous
//!   checkpoint). Each is written once, synced before the manifest swap
//!   that commits it, and never superseded: the manifest counts the
//!   committed seals, and compaction only deletes strays numbered at or
//!   above that count.
//! * `quarantine.<name>` — corrupt objects preserved by the scrubber
//!   for forensics; never replayed, never garbage-collected.
//!
//! Recovery decodes both manifest slots and trusts the valid one with
//! the highest swap sequence. It then loads the base snapshot and every
//! live delta in order (each checksum must verify — a committed
//! checkpoint is never silently abandoned for an older one), every
//! committed seal in order (each must be present and verify), and
//! replays every live segment in order.
//! Cold segments (all but the last) were synced before any manifest
//! swap referenced a successor, so they must verify *strictly*: a bad
//! frame there is bit rot for the scrubber, not a tear, and recovery
//! fails typed rather than silently dropping committed records. Only
//! the active segment may have a torn tail (or be missing entirely —
//! the crash window between a swap and the new segment's creation,
//! after which recovery creates it), and only its tail is dropped.

use std::fmt;
use std::sync::Arc;

use mabe_faults::FaultKind;
use mabe_telemetry::{Counter, Resolved};

use crate::compact::{checkpoint_counter, CheckpointKind};
use crate::crc::crc32;
use crate::manifest::{legacy_format, slot_name, Manifest, SegmentEntry};
use crate::segment::{frame, parse_frames, segment_name, verify_frames, SEG_MAGIC};
use crate::storage::{store_points, Storage, StoreError};

const SNAP_MAGIC: &[u8; 8] = b"MSNP0001";
const DELTA_MAGIC: &[u8; 8] = b"MDLT0001";
const SEAL_MAGIC: &[u8; 8] = b"MSEL0001";

/// Rotation keeps this many bytes of slack free: when the backend is
/// too full to afford a new segment plus a manifest swap, the active
/// segment simply grows past its budget instead of failing the append.
const ROTATE_HEADROOM: usize = 1024;

pub(crate) fn snap_name(generation: u64) -> String {
    format!("snapshot-{generation}")
}

/// Name of the delta a checkpoint to `generation` wrote.
pub(crate) fn delta_name(generation: u64) -> String {
    format!("delta-{generation}")
}

/// Name of the `n`-th audit seal (0-based).
pub(crate) fn seal_name(n: u64) -> String {
    format!("seal.{n}")
}

/// A crash return: the simulated process dies at `point` — noted on
/// the active trace span before the typed error propagates.
pub(crate) fn crashed(point: &'static str) -> StoreError {
    mabe_trace::event(mabe_trace::TraceEvent::CrashInjected { point });
    StoreError::Crashed { point }
}

/// What [`Wal::open`] found and salvaged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The committed generation recovery started from.
    pub generation: u64,
    /// Live segments the manifest listed.
    pub segments: usize,
    /// Whether a checkpoint snapshot was loaded.
    pub had_snapshot: bool,
    /// Snapshot payload size in bytes.
    pub snapshot_bytes: usize,
    /// Deltas loaded on top of the snapshot.
    pub deltas: usize,
    /// Committed seals loaded.
    pub seals: usize,
    /// Intact records recovered from the log.
    pub records: usize,
    /// Total payload bytes across recovered records.
    pub record_bytes: usize,
    /// Bytes dropped from the active segment's tail (torn frames).
    pub dropped_bytes: usize,
}

/// What [`Wal::open`] recovered from the committed generation.
#[derive(Debug)]
pub struct Recovered {
    /// The base snapshot payload (`None` for generation 0).
    pub snapshot: Option<Vec<u8>>,
    /// Every live delta's payload, in generation order: apply them to
    /// the snapshot before the records.
    pub deltas: Vec<Vec<u8>>,
    /// Every committed seal's payload, in seal order.
    pub seals: Vec<Vec<u8>>,
    /// Every intact record logged since the checkpoint, in order.
    pub records: Vec<Vec<u8>>,
    /// The salvage report.
    pub report: RecoveryReport,
}

/// A failed [`Wal::open`]: the error **plus the backing store**, handed
/// back so callers can salvage the surviving bytes — inspect them,
/// disarm a fault injector, and reopen — instead of losing the disk with
/// the error.
pub struct WalOpenError<S> {
    /// What went wrong.
    pub error: StoreError,
    /// The store `open` was called with, unchanged beyond any reads and
    /// first-time initialisation writes already performed.
    pub store: S,
}

impl<S> fmt::Debug for WalOpenError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalOpenError")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<S> fmt::Display for WalOpenError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl<S> std::error::Error for WalOpenError<S> {}

/// Byte counts [`Wal::open`] measured for the in-memory bookkeeping.
#[derive(Default)]
struct OpenBytes {
    active: usize,
    cold: usize,
    base: usize,
    deltas: usize,
}

/// The records of a cold segment read back as `segment`: it was sealed
/// at `entry.bytes` and synced before any swap named a successor, so it
/// must be present, exactly that long, and verify frame by frame.
pub(crate) fn verify_cold(
    segment: Option<Vec<u8>>,
    entry: &SegmentEntry,
) -> Result<Vec<Vec<u8>>, StoreError> {
    let segment = segment.ok_or(StoreError::Missing("cold wal segment"))?;
    if segment.len() as u64 != entry.bytes {
        return Err(StoreError::Corrupt("cold wal segment length"));
    }
    verify_frames(&segment)
}

/// The write-ahead log over a [`Storage`] backend.
#[derive(Debug)]
pub struct Wal<S: Storage> {
    pub(crate) store: S,
    pub(crate) manifest: Manifest,
    /// The active segment's name, kept beside the manifest it follows
    /// and shared with the journal events that name it.
    active: Arc<str>,
    /// Bytes in the active segment (magic included).
    pub(crate) active_bytes: usize,
    /// Bytes across sealed (cold) segments.
    pub(crate) cold_bytes: usize,
    /// Framed bytes of the base snapshot (0 at generation 0).
    pub(crate) base_bytes: usize,
    /// Framed bytes of the live deltas together.
    pub(crate) delta_bytes: usize,
    /// Rotate the active segment once it exceeds this many bytes.
    pub(crate) segment_budget: usize,
    /// Whether the store may hold an object no manifest transition
    /// accounts for (after an open, which may follow a crash, and after
    /// a clean checkpoint failure): the next sweep lists the store.
    pub(crate) strays_possible: bool,
}

/// Default per-segment byte budget: generous enough that unit-scale
/// workloads never rotate (preserving their storage fault-point hit
/// sequences) while still bounding any single recovery read.
pub const DEFAULT_SEGMENT_BUDGET: usize = 256 << 10;

/// Name of `manifest`'s active (highest-seq) segment.
fn active_name(manifest: &Manifest) -> Arc<str> {
    segment_name(
        manifest.generation,
        manifest.segments.last().expect("never empty").seq,
    )
    .into()
}

impl<S: Storage> Wal<S> {
    /// Opens (or initialises) the log in `store`, returning the
    /// checkpoint snapshot payload (if any), every committed seal, every
    /// intact record since the checkpoint, and a salvage report.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Corrupt`] if both manifest slots are invalid
    ///   beside committed objects, the base snapshot, a live delta or a
    ///   committed seal fails its checksum, or a *cold* segment fails
    ///   strict verification — recovery never falls back past a
    ///   committed checkpoint, never returns a shorter seal history, and
    ///   never silently drops committed records.
    /// * [`StoreError::Missing`] if the manifest names a snapshot, delta,
    ///   seal or cold segment the store no longer has.
    /// * [`StoreError::Format`] if the manifest was written in an
    ///   earlier layout (before seals, or before deltas).
    /// * Any backend error (including injected ones) from the reads and
    ///   the first-time initialisation writes.
    ///
    /// Every error arrives wrapped in a [`WalOpenError`] carrying the
    /// store back to the caller.
    pub fn open(mut store: S) -> Result<(Self, Recovered), WalOpenError<S>> {
        match Self::open_inner(&mut store) {
            Ok((manifest, bytes, recovered)) => Ok((
                Wal {
                    store,
                    active: active_name(&manifest),
                    manifest,
                    active_bytes: bytes.active,
                    cold_bytes: bytes.cold,
                    base_bytes: bytes.base,
                    delta_bytes: bytes.deltas,
                    segment_budget: DEFAULT_SEGMENT_BUDGET,
                    strays_possible: true,
                },
                recovered,
            )),
            Err(error) => Err(WalOpenError { error, store }),
        }
    }

    fn open_inner(store: &mut S) -> Result<(Manifest, OpenBytes, Recovered), StoreError> {
        let slots = [store.read(&slot_name(0))?, store.read(&slot_name(1))?];
        let manifest = slots
            .iter()
            .filter_map(|s| s.as_deref().and_then(Manifest::decode))
            .max_by_key(|m| m.seq);
        let manifest = match manifest {
            Some(m) => m,
            None => {
                // One format, no shim: a store written before seals is
                // named, never read, and keeps every byte.
                if let Some(format) = slots.iter().flatten().find_map(|s| legacy_format(s)) {
                    return Err(StoreError::Format(format));
                }
                // No valid slot. Alongside nothing but (torn) manifest
                // slots this is a crash during first-time init — nothing
                // was ever acknowledged, so reinitializing is safe. Next
                // to committed objects it is bit rot on both slots, and
                // falling back to a fresh log could resurrect
                // pre-checkpoint state, so that stays a typed error.
                if !store
                    .list()
                    .iter()
                    .all(|name| name.starts_with("manifest."))
                {
                    return Err(StoreError::Corrupt("manifest"));
                }
                let m = Manifest {
                    seq: 1,
                    generation: 0,
                    base: 0,
                    seals: 0,
                    segments: vec![SegmentEntry { seq: 0, bytes: 0 }],
                };
                let slot = slot_name(m.slot());
                store.put(&slot, &m.encode())?;
                store.sync(&slot)?;
                let seg = segment_name(0, 0);
                store.put(&seg, SEG_MAGIC)?;
                store.sync(&seg)?;
                m
            }
        };

        let mut bytes = OpenBytes::default();
        let snapshot = if manifest.generation == 0 {
            None
        } else {
            let framed = store
                .read(&snap_name(manifest.base))?
                .ok_or(StoreError::Missing("committed snapshot"))?;
            bytes.base = framed.len();
            Some(decode_snapshot(&framed)?)
        };
        let deltas = (manifest.base + 1..=manifest.generation)
            .map(|g| {
                let framed = store
                    .read(&delta_name(g))?
                    .ok_or(StoreError::Missing("committed delta"))?;
                bytes.deltas += framed.len();
                decode_delta(&framed)
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Seals are never superseded, so each committed one must be
        // present and intact: a missing or rotted seal fails typed
        // rather than opening with a shorter history.
        let seals = (0..manifest.seals)
            .map(|n| {
                let framed = store
                    .read(&seal_name(n))?
                    .ok_or(StoreError::Missing("committed seal"))?;
                decode_seal(&framed)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut records = Vec::new();
        let mut dropped_bytes = 0;
        bytes.active = SEG_MAGIC.len();
        let last = manifest.segments.last().expect("manifest never empty").seq;
        for entry in &manifest.segments {
            let name = segment_name(manifest.generation, entry.seq);
            let segment = store.read(&name)?;
            if entry.seq == last {
                // The active segment: may be missing or torn short of
                // its magic (crash between the swap announcing it and
                // its creation — the swap already carries everything),
                // or have a torn tail to drop. A missing or torn one is
                // created here, so that later appends land after its
                // magic.
                let segment = match segment {
                    Some(segment) if segment.len() >= SEG_MAGIC.len() => segment,
                    _ => {
                        store.put(&name, SEG_MAGIC)?;
                        store.sync(&name)?;
                        SEG_MAGIC.to_vec()
                    }
                };
                let (mut recs, dropped) = parse_frames(&segment)?;
                records.append(&mut recs);
                dropped_bytes = dropped;
                bytes.active = (segment.len() - dropped).max(SEG_MAGIC.len());
                if dropped > 0 {
                    // Heal: truncate the torn tail so post-recovery
                    // appends frame cleanly after the intact prefix. A
                    // crash mid-heal just re-runs this on next open.
                    store.put(&name, &segment[..segment.len() - dropped])?;
                    store.sync(&name)?;
                }
            } else {
                // Cold segments were sealed at a recorded length and
                // fully synced before the manifest ever referenced a
                // successor: anything wrong here — wrong length (a
                // truncation CRC framing alone cannot see), bad frame,
                // missing object — is bit rot, surfaced typed for the
                // scrubber to repair.
                let mut recs = verify_cold(segment, entry)?;
                bytes.cold += entry.bytes as usize;
                records.append(&mut recs);
            }
        }

        let report = RecoveryReport {
            generation: manifest.generation,
            segments: manifest.segments.len(),
            had_snapshot: snapshot.is_some(),
            snapshot_bytes: snapshot.as_ref().map_or(0, Vec::len),
            deltas: deltas.len(),
            seals: seals.len(),
            records: records.len(),
            record_bytes: records.iter().map(Vec::len).sum(),
            dropped_bytes,
        };
        let registry = mabe_telemetry::global();
        registry
            .counter("mabe_wal_records_replayed_total", &[])
            .add(report.records as u64);
        // Both checkpoint kinds export from the first open on.
        for kind in [CheckpointKind::Full, CheckpointKind::Delta] {
            registry.counter(checkpoint_counter(kind), &[]);
        }
        registry
            .gauge("mabe_wal_segments_live", &[])
            .set(manifest.segments.len() as i64);
        mabe_trace::event(mabe_trace::TraceEvent::WalReplayed {
            generation: manifest.generation,
            records: report.records as u64,
            dropped_bytes: report.dropped_bytes as u64,
        });

        Ok((
            manifest,
            bytes,
            Recovered {
                snapshot,
                deltas,
                seals,
                records,
                report,
            },
        ))
    }

    /// Appends one record (framed and checksummed), rotating the active
    /// segment first if it is over budget. Not durable until
    /// [`Wal::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_framed(&frame(payload))
    }

    /// [`Wal::append`] for a record already framed (header and CRC
    /// filled in, as [`crate::FrameBatch::framed`] builds it).
    pub(crate) fn append_framed(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        if self.active_bytes + frame.len() > self.segment_budget
            && self.active_bytes > SEG_MAGIC.len()
        {
            self.rotate()?;
        }
        self.store.append(&self.active, frame)?;
        self.active_bytes += frame.len();
        static APPENDS: Resolved<Counter> = Resolved::new("mabe_wal_appends_total", &[]);
        static BYTES: Resolved<Counter> = Resolved::new("mabe_wal_bytes_total", &[]);
        APPENDS.get().inc();
        BYTES.get().add(frame.len() as u64);
        mabe_trace::event(mabe_trace::TraceEvent::JournalAppend {
            object: Arc::clone(&self.active),
            bytes: frame.len() as u64,
        });
        Ok(())
    }

    /// Durably flushes the active segment.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.store.sync(&self.active)?;
        mabe_trace::event(mabe_trace::TraceEvent::JournalSync {
            object: Arc::clone(&self.active),
        });
        Ok(())
    }

    /// Seals the active segment and opens the next one: sync the old,
    /// swap the manifest to announce the new seq (the commit point),
    /// create the new segment. A crash anywhere leaves a recoverable
    /// log — after the swap, recovery treats the missing new segment as
    /// empty.
    ///
    /// Skipped gracefully (the active segment keeps growing past its
    /// budget) when the backend is too full to afford the new objects
    /// or an injected `NoSpace` says the rotation itself would ENOSPC:
    /// over-budget beats failing an append that still fits.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let point = store_points::ROTATE;
        match self.store.lifecycle_faults().and_then(|i| i.decide(point)) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::NoSpace) => return Ok(()),
            _ => {}
        }
        if let Some(usage) = self.store.usage() {
            if usage.free() < ROTATE_HEADROOM {
                return Ok(());
            }
        }
        let active = Arc::clone(&self.active);
        self.store.sync(&active)?;
        let next_seq = self.manifest.segments.last().expect("never empty").seq + 1;
        let mut next = self.manifest.clone();
        next.seq += 1;
        // Seal the outgoing active segment at its synced length — the
        // recorded length is what catches frame-boundary truncation.
        next.segments.last_mut().expect("never empty").bytes = self.active_bytes as u64;
        next.segments.push(SegmentEntry {
            seq: next_seq,
            bytes: 0,
        });
        self.swap_manifest(next)?;
        let new_name = Arc::clone(&self.active);
        self.store.put(&new_name, SEG_MAGIC)?;
        self.store.sync(&new_name)?;
        self.cold_bytes += self.active_bytes;
        self.active_bytes = SEG_MAGIC.len();
        let registry = mabe_telemetry::global();
        registry.counter("mabe_wal_rotations_total", &[]).inc();
        registry
            .gauge("mabe_wal_segments_live", &[])
            .set(self.manifest.segments.len() as i64);
        Ok(())
    }

    /// Writes `next` to the stale manifest slot and syncs it — the
    /// atomic commit point. On success the in-memory manifest follows.
    pub(crate) fn swap_manifest(&mut self, next: Manifest) -> Result<(), StoreError> {
        let point = store_points::MANIFEST_SWAP;
        let encoded = next.encode();
        let slot = slot_name(next.slot());
        match self.store.lifecycle_faults().and_then(|i| i.decide(point)) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::ManifestTorn) => {
                // The swap tears: a seeded strict prefix of the new
                // slot reaches durable media, then the process dies.
                // The prefix fails its checksum on reopen, so recovery
                // falls back to the surviving slot.
                let n = self
                    .store
                    .lifecycle_faults()
                    .map(|i| i.partial_len(encoded.len()))
                    .unwrap_or(0);
                let _ = self.store.put(&slot, &encoded[..n]);
                let _ = self.store.sync(&slot);
                return Err(crashed(point));
            }
            _ => {}
        }
        self.store.put(&slot, &encoded)?;
        self.store.sync(&slot)?;
        self.active = active_name(&next);
        self.manifest = next;
        Ok(())
    }

    /// The committed generation.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Live segments (cold + active) the manifest currently lists.
    pub fn segments_live(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Committed seals the manifest currently counts.
    pub fn seals(&self) -> u64 {
        self.manifest.seals
    }

    /// Bytes the live log occupies on disk (cold + active segments,
    /// snapshot excluded) — what compaction can reclaim plus the
    /// irreducible active tail.
    pub fn live_log_bytes(&self) -> usize {
        self.cold_bytes + self.active_bytes
    }

    /// Rotate the active segment once it grows past `budget` bytes
    /// (default [`DEFAULT_SEGMENT_BUDGET`]).
    pub fn set_segment_budget(&mut self, budget: usize) {
        self.segment_budget = budget.max(SEG_MAGIC.len() + 1);
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The backing store, mutably.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the log, handing back the backing store (the crash sweep
    /// uses this to reopen from the surviving bytes).
    pub fn into_store(self) -> S {
        self.store
    }
}

/// `magic ‖ u32 crc32(payload) ‖ payload` — the framing snapshots,
/// deltas and seals share.
fn encode_checksummed(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(12 + payload.len());
    framed.extend_from_slice(magic);
    framed.extend_from_slice(&crc32(payload).to_be_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// The payload of an [`encode_checksummed`] frame whose magic and
/// checksum verify; otherwise `Corrupt(header)` or `Corrupt(checksum)`.
fn decode_checksummed(
    magic: &[u8; 8],
    framed: &[u8],
    [header, checksum]: [&'static str; 2],
) -> Result<Vec<u8>, StoreError> {
    if framed.len() < 12 || &framed[..8] != magic {
        return Err(StoreError::Corrupt(header));
    }
    let want = u32::from_be_bytes(framed[8..12].try_into().expect("4 bytes"));
    let payload = &framed[12..];
    if crc32(payload) != want {
        return Err(StoreError::Corrupt(checksum));
    }
    Ok(payload.to_vec())
}

pub(crate) fn encode_snapshot(payload: &[u8]) -> Vec<u8> {
    encode_checksummed(SNAP_MAGIC, payload)
}

pub(crate) fn decode_snapshot(framed: &[u8]) -> Result<Vec<u8>, StoreError> {
    decode_checksummed(SNAP_MAGIC, framed, ["snapshot header", "snapshot checksum"])
}

pub(crate) fn encode_delta(payload: &[u8]) -> Vec<u8> {
    encode_checksummed(DELTA_MAGIC, payload)
}

pub(crate) fn decode_delta(framed: &[u8]) -> Result<Vec<u8>, StoreError> {
    decode_checksummed(DELTA_MAGIC, framed, ["delta header", "delta checksum"])
}

pub(crate) fn encode_seal(payload: &[u8]) -> Vec<u8> {
    encode_checksummed(SEAL_MAGIC, payload)
}

pub(crate) fn decode_seal(framed: &[u8]) -> Result<Vec<u8>, StoreError> {
    decode_checksummed(SEAL_MAGIC, framed, ["seal header", "seal checksum"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDisk;
    use mabe_faults::FaultKind;

    #[allow(clippy::type_complexity)]
    fn reopen(disk: SimDisk) -> (Wal<SimDisk>, Option<Vec<u8>>, Vec<Vec<u8>>, RecoveryReport) {
        let (wal, r) = Wal::open(disk).expect("clean open");
        (wal, r.snapshot, r.records, r.report)
    }

    #[test]
    fn fresh_open_is_empty_generation_zero() {
        let (wal, snapshot, records, report) = reopen(SimDisk::unfaulted());
        assert_eq!(wal.generation(), 0);
        assert_eq!(wal.segments_live(), 1);
        assert!(snapshot.is_none());
        assert!(records.is_empty());
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn torn_initialization_reopens_fresh_but_torn_committed_manifest_stays_fatal() {
        // Crash during the very first manifest sync: the slot exists
        // with zero durable bytes and nothing was ever committed, so
        // reopening must reinitialize, not error.
        let disk = SimDisk::new(mabe_faults::FaultInjector::new(
            mabe_faults::FaultPlan::new(3).at(store_points::SYNC, 1, FaultKind::Crash),
        ));
        let failure = Wal::open(disk).unwrap_err();
        let mut disk = failure.store;
        disk.crash();
        disk.injector_mut().disarm();
        let (wal, snapshot, records, _) = reopen(disk);
        assert_eq!(wal.generation(), 0);
        assert!(snapshot.is_none());
        assert!(records.is_empty());

        // A partial flush of that first sync leaves a nonzero strict
        // prefix of the slot durable — it fails its checksum, nothing
        // was committed, still a fresh reopen.
        let disk = SimDisk::new(mabe_faults::FaultInjector::new(
            mabe_faults::FaultPlan::new(3).at(store_points::SYNC, 1, FaultKind::PartialFlush),
        ));
        let failure = Wal::open(disk).unwrap_err();
        let mut disk = failure.store;
        disk.crash();
        disk.injector_mut().disarm();
        let (wal, snapshot, records, _) = reopen(disk);
        assert_eq!(wal.generation(), 0);
        assert!(snapshot.is_none());
        assert!(records.is_empty());

        // But invalid slots NEXT TO committed objects are bit rot on a
        // committed manifest: falling back to a fresh log could
        // resurrect pre-checkpoint state, so it must stay typed.
        let mut disk = SimDisk::unfaulted();
        disk.set_durable("manifest.1", b"rotted".to_vec());
        disk.set_durable("snapshot-1", b"anything".to_vec());
        assert!(matches!(
            Wal::open(disk).map(|_| ()).map_err(|f| f.error),
            Err(StoreError::Corrupt("manifest"))
        ));
    }

    #[test]
    fn synced_records_survive_a_crash() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        wal.append(b"unsynced").unwrap();
        let mut disk = wal.into_store();
        disk.crash();
        let (_, snapshot, records, report) = reopen(disk);
        assert!(snapshot.is_none());
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(report.records, 2);
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn checkpoint_rolls_generation_and_clears_log() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"pre").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"STATE-1", None).unwrap();
        assert_eq!(wal.generation(), 1);
        wal.append(b"post").unwrap();
        wal.sync().unwrap();
        let mut disk = wal.into_store();
        disk.crash();
        let (wal, snapshot, records, report) = reopen(disk);
        assert_eq!(wal.generation(), 1);
        assert_eq!(snapshot.as_deref(), Some(&b"STATE-1"[..]));
        assert_eq!(records, vec![b"post".to_vec()]);
        assert!(report.had_snapshot);
        // Old generation's objects were collected.
        assert!(!wal.store().list().iter().any(|n| n == "wal.0.0"));
    }

    #[test]
    fn crash_before_manifest_swap_keeps_old_generation() {
        // The snapshot put+sync succeed, then the swap's put crashes:
        // recovery must still see generation 0 with the full log.
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::PUT, 2, FaultKind::Crash);
        assert!(wal.checkpoint(b"STATE", None).is_err());
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        let (wal, snapshot, records, _) = reopen(disk);
        assert_eq!(wal.generation(), 0);
        assert!(snapshot.is_none());
        assert_eq!(records, vec![b"op".to_vec()]);
    }

    #[test]
    fn crash_after_manifest_swap_uses_new_snapshot() {
        // The swap lands but the fresh segment's creation crashes:
        // recovery sees the new generation with a missing (= empty)
        // active segment.
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::PUT, 3, FaultKind::Crash);
        assert!(wal.checkpoint(b"STATE", None).is_err());
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        let (wal, snapshot, records, _) = reopen(disk);
        assert_eq!(wal.generation(), 1);
        assert_eq!(snapshot.as_deref(), Some(&b"STATE"[..]));
        assert!(records.is_empty());
    }

    #[test]
    fn a_missing_or_torn_active_segment_is_created_so_later_appends_reopen() {
        for kind in [FaultKind::Crash, FaultKind::TornWrite] {
            let (mut wal, ..) = reopen(SimDisk::unfaulted());
            wal.append(b"op").unwrap();
            wal.sync().unwrap();
            // PUT hit 3 is the new generation's segment, after the swap.
            wal.store_mut()
                .injector_mut()
                .schedule(store_points::PUT, 3, kind);
            assert!(wal.checkpoint(b"STATE", None).is_err());
            let mut disk = wal.into_store();
            disk.crash();
            disk.injector_mut().disarm();
            assert!(disk
                .durable_bytes("wal.1.0")
                .is_none_or(|b| b.len() < SEG_MAGIC.len()));
            let (mut wal, ..) = reopen(disk);
            wal.append(b"after").unwrap();
            wal.sync().unwrap();
            let mut disk = wal.into_store();
            disk.crash();
            let (_, snapshot, records, _) = reopen(disk);
            assert_eq!(snapshot.as_deref(), Some(&b"STATE"[..]), "{kind:?}");
            assert_eq!(records, vec![b"after".to_vec()], "{kind:?}");
        }
    }

    #[test]
    fn torn_append_drops_only_the_tail_record() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"intact-1").unwrap();
        wal.append(b"intact-2").unwrap();
        wal.sync().unwrap();
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::APPEND, 1, FaultKind::TornWrite);
        assert!(matches!(
            wal.append(b"torn-record-payload"),
            Err(StoreError::Crashed { .. })
        ));
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        let (_, _, records, report) = reopen(disk);
        assert_eq!(records, vec![b"intact-1".to_vec(), b"intact-2".to_vec()]);
        assert_eq!(report.records, 2);
    }

    #[test]
    fn torn_tail_is_healed_so_later_appends_recover() {
        // Reopen after a torn append, keep writing, crash again: the
        // healed log must recover both the pre-tear and post-reopen
        // records (the tear must not poison the byte stream).
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"before").unwrap();
        wal.sync().unwrap();
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::APPEND, 1, FaultKind::TornWrite);
        assert!(wal.append(b"torn-record-payload").is_err());
        let mut disk = wal.into_store();
        disk.crash();
        disk.injector_mut().disarm();
        let (mut wal, _, records, report) = reopen(disk);
        assert_eq!(records, vec![b"before".to_vec()]);
        assert!(report.dropped_bytes > 0);
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        let mut disk = wal.into_store();
        disk.crash();
        let (_, _, records, report) = reopen(disk);
        assert_eq!(records, vec![b"before".to_vec(), b"after".to_vec()]);
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn appends_past_the_budget_rotate_into_new_segments() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.set_segment_budget(64);
        for i in 0..10u8 {
            wal.append(&[i; 24]).unwrap();
        }
        wal.sync().unwrap();
        assert!(
            wal.segments_live() > 1,
            "a 64-byte budget must rotate under 10×32-byte frames"
        );
        assert!(wal.active_bytes <= 64 + 32, "active segment stays bounded");
        let mut disk = wal.into_store();
        disk.crash();
        let (wal, _, records, report) = reopen(disk);
        assert_eq!(report.segments, wal.segments_live());
        assert_eq!(records.len(), 10, "rotation loses nothing");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 24]);
        }
    }

    #[test]
    fn crash_mid_rotation_loses_nothing_synced() {
        // Crash at the rotation point itself, then at the manifest
        // swap: in both cases every synced record survives reopen.
        for (point, kind) in [
            (store_points::ROTATE, FaultKind::Crash),
            (store_points::MANIFEST_SWAP, FaultKind::Crash),
            (store_points::MANIFEST_SWAP, FaultKind::ManifestTorn),
        ] {
            let (mut wal, ..) = reopen(SimDisk::unfaulted());
            wal.set_segment_budget(64);
            wal.append(&[1; 48]).unwrap();
            wal.sync().unwrap();
            wal.store_mut().injector_mut().schedule(point, 1, kind);
            let err = wal.append(&[2; 48]).unwrap_err();
            assert!(matches!(err, StoreError::Crashed { .. }), "{point}");
            let mut disk = wal.into_store();
            disk.crash();
            disk.injector_mut().disarm();
            let (_, _, records, _) = reopen(disk);
            assert_eq!(records, vec![vec![1; 48]], "synced record survives {point}");
        }
    }

    #[test]
    fn no_space_at_rotation_grows_the_active_segment_instead() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.set_segment_budget(64);
        wal.store_mut()
            .injector_mut()
            .schedule(store_points::ROTATE, 1, FaultKind::NoSpace);
        for i in 0..4u8 {
            wal.append(&[i; 48]).unwrap();
        }
        wal.sync().unwrap();
        // The first rotation was skipped (ENOSPC), a later one landed.
        assert!(wal.segments_live() >= 2);
        let (_, _, records, _) = reopen(wal.into_store());
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error_not_a_fallback() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"pre").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"COMMITTED", None).unwrap();
        let mut disk = wal.into_store();
        let mut snap = disk.durable_bytes("snapshot-1").unwrap().to_vec();
        let last = snap.len() - 1;
        snap[last] ^= 0x40;
        disk.set_durable("snapshot-1", snap);
        match Wal::open(disk) {
            Err(failure) => {
                assert!(matches!(
                    failure.error,
                    StoreError::Corrupt("snapshot checksum")
                ));
                // The store comes back with the failure — nothing lost.
                assert!(failure.store.durable_bytes("snapshot-1").is_some());
            }
            Ok(_) => panic!("corrupt snapshot opened cleanly"),
        }
    }

    #[test]
    fn cold_segment_bit_rot_is_a_typed_error() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.set_segment_budget(64);
        for i in 0..6u8 {
            wal.append(&[i; 32]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments_live() > 1);
        let cold = segment_name(0, 0);
        let mut disk = wal.into_store();
        let mut bytes = disk.durable_bytes(&cold).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        disk.set_durable(&cold, bytes);
        assert!(matches!(
            Wal::open(disk).map(|_| ()).map_err(|f| f.error),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_field_is_treated_as_torn_tail() {
        let (mut wal, ..) = reopen(SimDisk::unfaulted());
        wal.append(b"good").unwrap();
        wal.sync().unwrap();
        let mut disk = wal.into_store();
        let mut log = disk.durable_bytes("wal.0.0").unwrap().to_vec();
        let mut frame = (u32::MAX).to_be_bytes().to_vec();
        frame.extend_from_slice(&[0; 4]);
        log.extend_from_slice(&frame);
        disk.set_durable("wal.0.0", log);
        let (_, _, records, report) = reopen(disk);
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(report.dropped_bytes, 8);
    }
}
