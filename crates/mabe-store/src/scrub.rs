//! The scrubber: background CRC re-verification of cold segments, the
//! base snapshot, every live delta and every committed seal.
//!
//! Cold segments, the base snapshot, the deltas and the seals are
//! exactly the bytes recovery *cannot* tolerate rot in (see
//! [`crate::wal`]), so the scrubber walks them while the process is
//! healthy and reports anything that no longer verifies. Repair is the
//! caller's job — the durable layer quarantines the rotted objects,
//! supersedes rotted segments, snapshots or deltas with a full
//! checkpoint built from the authoritative in-memory state, and
//! rewrites a rotted seal in place ([`Wal::rewrite_seal`]), since no
//! checkpoint ever supersedes a seal. The scrubber itself never deletes
//! anything.

use mabe_faults::FaultKind;

use crate::segment::{segment_name, verify_frames};
use crate::storage::{store_points, Storage, StoreError};
use crate::wal::{
    crashed, decode_delta, decode_seal, decode_snapshot, delta_name, encode_seal, seal_name,
    snap_name, Wal,
};

/// What one scrub pass found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Cold segments whose checksums were re-verified.
    pub segments_checked: usize,
    /// Intact frames verified across those segments.
    pub frames_checked: u64,
    /// Whether the base snapshot (if any) still verifies.
    pub snapshot_ok: bool,
    /// Live deltas re-verified (a rotted one is in `corrupt`).
    pub deltas_checked: usize,
    /// Committed seals re-verified.
    pub seals_checked: usize,
    /// Numbers of the committed seals that failed (their names are in
    /// `corrupt` too); each needs a rewrite, not a checkpoint.
    pub corrupt_seals: Vec<u64>,
    /// Objects that failed verification (rotted, torn, or missing) and
    /// need repair.
    pub corrupt: Vec<String>,
}

impl ScrubReport {
    /// True if everything checked out.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

impl<S: Storage> Wal<S> {
    /// Re-verifies every cold segment, the base snapshot, every live
    /// delta and every committed seal, without touching the active
    /// segment (its tail may legitimately be in flight). Read-only:
    /// repair is [`Wal::quarantine`] plus a full checkpoint or
    /// [`Wal::rewrite_seal`], driven by the caller.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let point = store_points::SCRUB;
        if let Some(FaultKind::Crash) = self.store.lifecycle_faults().and_then(|i| i.decide(point))
        {
            return Err(crashed(point));
        }
        let mut report = ScrubReport {
            snapshot_ok: true,
            ..ScrubReport::default()
        };
        let generation = self.manifest.generation;
        let cold: Vec<_> = self
            .manifest
            .segments
            .iter()
            .copied()
            .take(self.manifest.segments.len().saturating_sub(1))
            .collect();
        for entry in cold {
            let name = segment_name(generation, entry.seq);
            let ok = match self.store.read(&name)? {
                Some(bytes) if bytes.len() as u64 == entry.bytes => match verify_frames(&bytes) {
                    Ok(records) => {
                        report.frames_checked += records.len() as u64;
                        true
                    }
                    Err(_) => false,
                },
                // Wrong length (frame-boundary truncation) or missing.
                _ => false,
            };
            report.segments_checked += 1;
            if !ok {
                report.corrupt.push(name);
            }
        }
        if generation > 0 {
            let name = snap_name(self.manifest.base);
            report.snapshot_ok = match self.store.read(&name)? {
                Some(bytes) => decode_snapshot(&bytes).is_ok(),
                None => false,
            };
            if !report.snapshot_ok {
                report.corrupt.push(name);
            }
        }
        for g in self.manifest.base + 1..=generation {
            let name = delta_name(g);
            let ok = self
                .store
                .read(&name)?
                .is_some_and(|bytes| decode_delta(&bytes).is_ok());
            report.deltas_checked += 1;
            if !ok {
                report.corrupt.push(name);
            }
        }
        for n in 0..self.manifest.seals {
            let name = seal_name(n);
            let ok = self
                .store
                .read(&name)?
                .is_some_and(|bytes| decode_seal(&bytes).is_ok());
            report.seals_checked += 1;
            if !ok {
                report.corrupt_seals.push(n);
                report.corrupt.push(name);
            }
        }
        let registry = mabe_telemetry::global();
        registry
            .counter("mabe_wal_scrub_frames_checked_total", &[])
            .add(report.frames_checked);
        registry.counter("mabe_wal_scrub_passes_total", &[]).inc();
        if !report.clean() {
            registry
                .counter("mabe_wal_scrub_corrupt_objects_total", &[])
                .add(report.corrupt.len() as u64);
        }
        Ok(report)
    }

    /// Rewrites committed seal `n` with `payload` — the repair for a
    /// seal the scrubber found rotted or missing. The caller rebuilds
    /// the payload from its authoritative in-memory history, so the
    /// rewrite is byte-identical to the seal first written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Missing`] if seal `n` is not committed; any
    /// backend error from the put or sync.
    pub fn rewrite_seal(&mut self, n: u64, payload: &[u8]) -> Result<(), StoreError> {
        if n >= self.manifest.seals {
            return Err(StoreError::Missing("committed seal"));
        }
        let name = seal_name(n);
        self.store.put(&name, &encode_seal(payload))?;
        self.store.sync(&name)
    }

    /// Preserves `names` under `quarantine.<name>` for forensics. The
    /// copies are never replayed and compaction never collects them.
    pub fn quarantine(&mut self, names: &[String]) -> Result<(), StoreError> {
        for name in names {
            if let Some(bytes) = self.store.read(name)? {
                let copy = format!("quarantine.{name}");
                self.store.put(&copy, &bytes)?;
                self.store.sync(&copy)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDisk;

    fn multi_segment_wal() -> Wal<SimDisk> {
        let mut wal = Wal::open(SimDisk::unfaulted()).expect("fresh open").0;
        wal.set_segment_budget(64);
        for i in 0..8u8 {
            wal.append(&[i; 32]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments_live() > 2);
        wal
    }

    #[test]
    fn a_clean_log_scrubs_clean() {
        let mut wal = multi_segment_wal();
        let report = wal.scrub().unwrap();
        assert!(report.clean());
        assert_eq!(report.segments_checked, wal.segments_live() - 1);
        assert!(report.frames_checked > 0);
        assert!(report.snapshot_ok);
    }

    #[test]
    fn bit_rot_in_a_cold_segment_is_reported_not_repaired() {
        let mut wal = multi_segment_wal();
        let cold = segment_name(0, 0);
        let mut bytes = wal.store().durable_bytes(&cold).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        wal.store_mut().set_durable(&cold, bytes.clone());
        let report = wal.scrub().unwrap();
        assert_eq!(report.corrupt, vec![cold.clone()]);
        // Scrub is read-only: the rotted bytes are untouched.
        assert_eq!(wal.store().durable_bytes(&cold).unwrap(), &bytes[..]);
        // Quarantine preserves a copy; checkpointing then supersedes
        // the rot entirely (state comes from memory, not the log).
        wal.quarantine(&report.corrupt).unwrap();
        wal.checkpoint(b"AUTHORITATIVE", None).unwrap();
        let names = wal.store().list();
        assert!(names.iter().any(|n| n == "quarantine.wal.0.0"));
        assert!(!names.iter().any(|n| n == "wal.0.0"));
        // The healed log reopens cleanly, quarantine intact.
        let (mut wal, r) = Wal::open(wal.into_store()).expect("reopen");
        assert_eq!(r.snapshot.as_deref(), Some(&b"AUTHORITATIVE"[..]));
        assert!(wal.scrub().unwrap().clean());
    }

    #[test]
    fn a_rotted_snapshot_fails_the_scrub() {
        let mut wal = Wal::open(SimDisk::unfaulted()).expect("fresh open").0;
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"SNAP", None).unwrap();
        let mut bytes = wal.store().durable_bytes("snapshot-1").unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        wal.store_mut().set_durable("snapshot-1", bytes);
        let report = wal.scrub().unwrap();
        assert!(!report.snapshot_ok);
        assert_eq!(report.corrupt, vec!["snapshot-1".to_string()]);
    }

    #[test]
    fn a_rotted_seal_is_reported_and_rewritten_in_place() {
        let mut wal = Wal::open(SimDisk::unfaulted()).expect("fresh open").0;
        wal.checkpoint(b"SNAP-1", Some(b"SEAL-0")).unwrap();
        wal.checkpoint(b"SNAP-2", Some(b"SEAL-1")).unwrap();
        let good = wal.store().durable_bytes("seal.0").unwrap().to_vec();
        let mut rotted = good.clone();
        rotted[13] ^= 0x02;
        wal.store_mut().set_durable("seal.0", rotted);
        let report = wal.scrub().unwrap();
        assert_eq!(report.seals_checked, 2);
        assert_eq!(report.corrupt_seals, vec![0]);
        assert_eq!(report.corrupt, vec!["seal.0".to_string()]);

        // A checkpoint does not heal it: seals are never superseded.
        wal.checkpoint(b"SNAP-3", None).unwrap();
        assert_eq!(wal.scrub().unwrap().corrupt_seals, vec![0]);
        // A rewrite from the authoritative payload does, byte for byte.
        wal.quarantine(&report.corrupt).unwrap();
        wal.rewrite_seal(0, b"SEAL-0").unwrap();
        assert_eq!(wal.store().durable_bytes("seal.0").unwrap(), &good[..]);
        assert!(wal.scrub().unwrap().clean());
        assert!(wal.store().list().iter().any(|n| n == "quarantine.seal.0"));
        // Only committed seals can be rewritten.
        assert_eq!(
            wal.rewrite_seal(2, b"NOPE"),
            Err(StoreError::Missing("committed seal"))
        );
        let (_, r) = Wal::open(wal.into_store()).expect("reopen");
        assert_eq!(r.seals, vec![b"SEAL-0".to_vec(), b"SEAL-1".to_vec()]);
    }

    #[test]
    fn scheduled_crash_at_the_scrub_point_propagates_typed() {
        let mut wal = multi_segment_wal();
        wal.store_mut().injector_mut().schedule(
            store_points::SCRUB,
            1,
            mabe_faults::FaultKind::Crash,
        );
        assert_eq!(
            wal.scrub().unwrap_err(),
            StoreError::Crashed {
                point: store_points::SCRUB
            }
        );
    }
}
