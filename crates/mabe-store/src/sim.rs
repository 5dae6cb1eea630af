//! The deterministic, fault-injected in-memory disk.

use std::collections::BTreeMap;

use mabe_faults::{FaultInjector, FaultKind};

use crate::storage::{store_points, Storage, StorageUsage, StoreError};

/// One simulated object: the bytes that survived the last flush plus the
/// live (page-cache) view that a crash discards.
#[derive(Clone, Debug, Default)]
struct SimObject {
    durable: Vec<u8>,
    shadow: Vec<u8>,
    /// A put replaced the live view since the last flush or crash.
    /// Until then the live view only grew by appends, so `durable` is a
    /// prefix of it and a flush copies just the new tail.
    rewritten: bool,
}

impl SimObject {
    /// Makes the live view durable: the appended tail only, unless a
    /// put replaced the object since the last flush.
    fn flush(&mut self) {
        if self.rewritten {
            self.durable.clone_from(&self.shadow);
        } else {
            debug_assert!(self.shadow.starts_with(&self.durable));
            let flushed = self.durable.len();
            self.durable.extend_from_slice(&self.shadow[flushed..]);
        }
        self.rewritten = false;
    }

    /// Drops the live view's unflushed bytes (power loss).
    fn revert(&mut self) {
        self.shadow.clone_from(&self.durable);
        self.rewritten = false;
    }

    /// Replaces the live view (a put).
    fn replace(&mut self, bytes: &[u8]) {
        self.shadow.clear();
        self.shadow.extend_from_slice(bytes);
        self.rewritten = true;
    }
}

/// An in-memory [`Storage`] backend whose failure behaviour is driven by
/// a seeded [`FaultInjector`], so every torn write and mid-fsync crash is
/// replayable from a seed.
///
/// Fault semantics at each [`store_points`] point:
///
/// * `Crash` — the operation dies before doing anything durable (at
///   [`store_points::SYNC_POST`]: *after* durability, losing only the
///   acknowledgement).
/// * `TornWrite` (append/put) — a seeded strict prefix of the new bytes
///   reaches durable media, then the process dies.
/// * `PartialFlush` (sync) — a seeded strict prefix of the dirty bytes is
///   flushed, then the process dies.
/// * `Corrupt` (append/put) — the write succeeds but one seeded bit of
///   the written bytes rots.
/// * `ReadCorrupt` (read) — the returned copy has one bit flipped; the
///   stored bytes are untouched.
/// * `StorageError` — the operation fails transiently.
/// * `NoSpace` (append/put) — the write fails with ENOSPC before touching
///   anything; the process keeps running.
///
/// A capacity set via [`SimDisk::set_capacity`] makes ENOSPC organic too:
/// any append/put that would push live bytes past it fails with
/// [`StoreError::NoSpace`] without writing, and deletes reclaim space.
///
/// After any `Crashed` error the harness calls [`SimDisk::crash`], which
/// drops every object's unflushed bytes — exactly what power loss does to
/// a page cache.
///
/// A sync copies only the bytes appended since the object's last flush,
/// so committing to a long active segment costs its new record, not the
/// segment. A put still replaces an object whole, and the sync after it
/// copies it whole. `crates/mabe-store/tests/sim_differential.rs` holds
/// this against a model that copies every object whole on every sync.
#[derive(Debug, Default)]
pub struct SimDisk {
    objects: BTreeMap<String, SimObject>,
    faults: FaultInjector,
    capacity: Option<usize>,
}

impl SimDisk {
    /// A disk driven by `faults`.
    pub fn new(faults: FaultInjector) -> Self {
        SimDisk {
            objects: BTreeMap::new(),
            faults,
            capacity: None,
        }
    }

    /// A disk that never fails (the production stand-in).
    pub fn unfaulted() -> Self {
        SimDisk::default()
    }

    /// Simulates power loss: every object's unflushed bytes vanish.
    pub fn crash(&mut self) {
        for obj in self.objects.values_mut() {
            obj.revert();
        }
    }

    /// The driving injector.
    pub fn injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// The driving injector, mutably (disarm/re-arm between phases).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Durable (post-crash) bytes of `name`, for tests and fuzzing.
    pub fn durable_bytes(&self, name: &str) -> Option<&[u8]> {
        self.objects.get(name).map(|o| o.durable.as_slice())
    }

    /// Overwrites `name`'s durable and live bytes directly — the fuzz
    /// corpus uses this to plant corrupted on-disk states.
    pub fn set_durable(&mut self, name: &str, bytes: Vec<u8>) {
        let obj = self.object(name);
        obj.shadow.clone_from(&bytes);
        obj.durable = bytes;
        obj.rewritten = false;
    }

    /// Total durable bytes across all objects.
    pub fn total_durable_bytes(&self) -> usize {
        self.objects.values().map(|o| o.durable.len()).sum()
    }

    /// Caps the disk at `capacity` live bytes (`None` = unbounded).
    /// Writes that would exceed the cap fail with
    /// [`StoreError::NoSpace`] before touching anything.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Live bytes the disk currently holds (per object, the larger of
    /// its durable and page-cache extents — what a real filesystem
    /// would have allocated).
    pub fn live_bytes(&self) -> usize {
        self.objects
            .values()
            .map(|o| o.durable.len().max(o.shadow.len()))
            .sum()
    }

    /// True if growing `name` by `grow` (append) or replacing it with
    /// `new_len` bytes (put) would blow the capacity.
    fn would_overflow(&self, name: &str, new_object_len: usize) -> bool {
        let Some(cap) = self.capacity else {
            return false;
        };
        let current = self
            .objects
            .get(name)
            .map(|o| o.durable.len().max(o.shadow.len()))
            .unwrap_or(0);
        self.live_bytes() - current + new_object_len > cap
    }

    /// The object `name`, created empty if absent. An existing object
    /// is found without allocating its name.
    fn object(&mut self, name: &str) -> &mut SimObject {
        if !self.objects.contains_key(name) {
            self.objects.insert(name.to_owned(), SimObject::default());
        }
        self.objects.get_mut(name).expect("just inserted")
    }

    /// Counts a virtual delay against telemetry, like the cloud layer.
    fn count_delay(&self, point: &'static str) {
        mabe_telemetry::global()
            .counter("mabe_fault_delay_us_total", &[("point", point)])
            .add(self.faults.delay_us());
    }
}

/// A crash return: the simulated process dies at `point` — noted on
/// the active trace span before the typed error propagates.
fn crashed(point: &'static str) -> StoreError {
    mabe_trace::event(mabe_trace::TraceEvent::CrashInjected { point });
    StoreError::Crashed { point }
}

impl Storage for SimDisk {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let point = store_points::APPEND;
        let grown = self
            .objects
            .get(name)
            .map(|o| o.durable.len().max(o.shadow.len() + bytes.len()))
            .unwrap_or(bytes.len());
        if self.would_overflow(name, grown) {
            return Err(StoreError::NoSpace { point });
        }
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::NoSpace) => return Err(StoreError::NoSpace { point }),
            Some(FaultKind::TornWrite) => {
                // The OS had flushed part of this write when power failed:
                // a strict prefix lands durably, the rest never existed.
                let n = self.faults.partial_len(bytes.len());
                let obj = self.object(name);
                obj.durable.extend_from_slice(&bytes[..n]);
                obj.revert();
                return Err(crashed(point));
            }
            Some(FaultKind::Corrupt) => {
                let mut rotted = bytes.to_vec();
                self.faults.corrupt_bytes(&mut rotted);
                self.object(name).shadow.extend_from_slice(&rotted);
                return Ok(());
            }
            Some(FaultKind::Delay) => self.count_delay(point),
            _ => {}
        }
        self.object(name).shadow.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        let point = store_points::SYNC;
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::PartialFlush) => {
                // Power failed mid-fsync: a strict prefix of the dirty
                // bytes made it to media.
                if let Some(obj) = self.objects.get_mut(name) {
                    let dirty = obj.shadow.len().saturating_sub(obj.durable.len());
                    let n = self.faults.partial_len(dirty);
                    let keep = obj.durable.len() + n;
                    obj.shadow.truncate(keep);
                    obj.durable.clone_from(&obj.shadow);
                    obj.rewritten = false;
                }
                return Err(crashed(point));
            }
            Some(FaultKind::Delay) => self.count_delay(point),
            _ => {}
        }
        if let Some(obj) = self.objects.get_mut(name) {
            obj.flush();
        }
        let post = store_points::SYNC_POST;
        if let Some(FaultKind::Crash) = self.faults.decide(post) {
            // The flush completed but the ack was lost.
            return Err(crashed(post));
        }
        Ok(())
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let point = store_points::PUT;
        let replaced = self
            .objects
            .get(name)
            .map(|o| o.durable.len().max(bytes.len()))
            .unwrap_or(bytes.len());
        if self.would_overflow(name, replaced) {
            return Err(StoreError::NoSpace { point });
        }
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::NoSpace) => return Err(StoreError::NoSpace { point }),
            Some(FaultKind::TornWrite) => {
                let n = self.faults.partial_len(bytes.len());
                let obj = self.object(name);
                obj.durable.clear();
                obj.durable.extend_from_slice(&bytes[..n]);
                obj.revert();
                return Err(crashed(point));
            }
            Some(FaultKind::Corrupt) => {
                let mut rotted = bytes.to_vec();
                self.faults.corrupt_bytes(&mut rotted);
                self.object(name).replace(&rotted);
                return Ok(());
            }
            Some(FaultKind::Delay) => self.count_delay(point),
            _ => {}
        }
        self.object(name).replace(bytes);
        Ok(())
    }

    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let point = store_points::READ;
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(crashed(point)),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::ReadCorrupt) => {
                let mut copy = match self.objects.get(name) {
                    Some(obj) => obj.shadow.clone(),
                    None => return Ok(None),
                };
                self.faults.corrupt_bytes(&mut copy);
                return Ok(Some(copy));
            }
            Some(FaultKind::Delay) => self.count_delay(point),
            _ => {}
        }
        Ok(self.objects.get(name).map(|o| o.shadow.clone()))
    }

    fn delete(&mut self, name: &str) -> Result<(), StoreError> {
        self.objects.remove(name);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    fn usage(&self) -> Option<StorageUsage> {
        self.capacity.map(|capacity| StorageUsage {
            used: self.live_bytes(),
            capacity,
        })
    }

    fn lifecycle_faults(&self) -> Option<&FaultInjector> {
        Some(&self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mabe_faults::FaultPlan;

    #[test]
    fn unsynced_bytes_die_in_a_crash() {
        let mut disk = SimDisk::unfaulted();
        disk.append("log", b"durable").unwrap();
        disk.sync("log").unwrap();
        disk.append("log", b" volatile").unwrap();
        assert_eq!(disk.read("log").unwrap().unwrap(), b"durable volatile");
        disk.crash();
        assert_eq!(disk.read("log").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn torn_write_leaves_a_strict_durable_prefix() {
        let mut disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::APPEND,
            2,
            FaultKind::TornWrite,
        )));
        disk.append("log", b"head.").unwrap();
        disk.sync("log").unwrap();
        let err = disk.append("log", b"0123456789").unwrap_err();
        assert_eq!(
            err,
            StoreError::Crashed {
                point: store_points::APPEND
            }
        );
        disk.crash();
        let bytes = disk.read("log").unwrap().unwrap();
        assert!(bytes.starts_with(b"head."));
        assert!(
            bytes.len() < b"head.0123456789".len(),
            "tear must lose at least one byte"
        );
        assert_eq!(&bytes[..], &b"head.0123456789"[..bytes.len()]);
    }

    #[test]
    fn partial_flush_tears_only_the_dirty_suffix() {
        let mut disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::SYNC,
            2,
            FaultKind::PartialFlush,
        )));
        disk.append("log", b"committed;").unwrap();
        disk.sync("log").unwrap();
        disk.append("log", b"pending").unwrap();
        assert!(matches!(disk.sync("log"), Err(StoreError::Crashed { .. })));
        disk.crash();
        let bytes = disk.read("log").unwrap().unwrap();
        assert!(bytes.starts_with(b"committed;"));
        assert!(bytes.len() < b"committed;pending".len());
    }

    #[test]
    fn read_corrupt_flips_one_bit_without_touching_disk() {
        let mut disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::READ,
            1,
            FaultKind::ReadCorrupt,
        )));
        disk.put("obj", b"stable bytes").unwrap();
        disk.sync("obj").unwrap();
        let rotted = disk.read("obj").unwrap().unwrap();
        assert_ne!(rotted, b"stable bytes");
        let clean = disk.read("obj").unwrap().unwrap();
        assert_eq!(clean, b"stable bytes");
    }

    #[test]
    fn crash_after_sync_is_durable_but_unacked() {
        let mut disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::SYNC_POST,
            1,
            FaultKind::Crash,
        )));
        disk.append("log", b"acked?").unwrap();
        let err = disk.sync("log").unwrap_err();
        assert_eq!(
            err,
            StoreError::Crashed {
                point: store_points::SYNC_POST
            }
        );
        disk.crash();
        assert_eq!(disk.read("log").unwrap().unwrap(), b"acked?");
    }

    #[test]
    fn capacity_cap_fails_with_enospc_and_deletes_reclaim() {
        let mut disk = SimDisk::unfaulted();
        disk.set_capacity(Some(10));
        disk.append("a", b"123456").unwrap();
        assert_eq!(
            disk.append("a", b"78901").unwrap_err(),
            StoreError::NoSpace {
                point: store_points::APPEND
            }
        );
        // The failed write touched nothing.
        assert_eq!(disk.read("a").unwrap().unwrap(), b"123456");
        assert_eq!(disk.usage().unwrap().free(), 4);
        // Replacing an object in place is judged on the net size.
        disk.put("a", b"0123456789").unwrap();
        assert_eq!(
            disk.put("b", b"x").unwrap_err(),
            StoreError::NoSpace {
                point: store_points::PUT
            }
        );
        disk.delete("a").unwrap();
        disk.put("b", b"x").unwrap();
    }

    #[test]
    fn injected_no_space_fails_without_writing() {
        let mut disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::APPEND,
            2,
            FaultKind::NoSpace,
        )));
        disk.append("log", b"fits").unwrap();
        assert_eq!(
            disk.append("log", b"enospc").unwrap_err(),
            StoreError::NoSpace {
                point: store_points::APPEND
            }
        );
        assert_eq!(disk.read("log").unwrap().unwrap(), b"fits");
        // Not a crash: the process keeps running and later writes work.
        disk.append("log", b"+more").unwrap();
    }

    #[test]
    fn put_then_crash_without_sync_keeps_old_contents() {
        let mut disk = SimDisk::unfaulted();
        disk.put("ptr", b"old").unwrap();
        disk.sync("ptr").unwrap();
        disk.put("ptr", b"new").unwrap();
        disk.crash();
        assert_eq!(disk.read("ptr").unwrap().unwrap(), b"old");
    }
}
