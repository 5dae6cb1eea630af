//! `SimDisk`'s tail flush against a disk that copies whole objects.
//!
//! A sync copies only the bytes appended since an object's last flush.
//! This drives `SimDisk` and a reference model beside it — the simulated
//! disk as it was written before the tail flush, copying every object
//! whole on every sync — through the same seeded appends, puts, syncs,
//! deletes and crashes, each side with its own injector built from the
//! same fault plan, so both see the same faults at the same hits. After
//! every step both must report the same outcome and hold the same
//! durable and live bytes for every object. The plan fires every fault
//! kind the tail flush interacts with: torn writes, partial flushes,
//! corruption, ENOSPC and a crash after a completed flush.

use std::collections::{BTreeMap, BTreeSet};

use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::{store_points, SimDisk, Storage, StoreError};

/// The reference: every sync copies the whole live view.
#[derive(Default)]
struct Object {
    durable: Vec<u8>,
    shadow: Vec<u8>,
}

struct WholeCopyDisk {
    objects: BTreeMap<String, Object>,
    faults: FaultInjector,
}

impl WholeCopyDisk {
    fn object(&mut self, name: &str) -> &mut Object {
        self.objects.entry(name.to_owned()).or_default()
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let point = store_points::APPEND;
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(StoreError::Crashed { point }),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::NoSpace) => return Err(StoreError::NoSpace { point }),
            Some(FaultKind::TornWrite) => {
                let n = self.faults.partial_len(bytes.len());
                let obj = self.object(name);
                obj.durable.extend_from_slice(&bytes[..n]);
                obj.shadow = obj.durable.clone();
                return Err(StoreError::Crashed { point });
            }
            Some(FaultKind::Corrupt) => {
                let mut rotted = bytes.to_vec();
                self.faults.corrupt_bytes(&mut rotted);
                self.object(name).shadow.extend_from_slice(&rotted);
                return Ok(());
            }
            _ => {}
        }
        self.object(name).shadow.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        let point = store_points::SYNC;
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(StoreError::Crashed { point }),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::PartialFlush) => {
                if let Some(obj) = self.objects.get_mut(name) {
                    let dirty = obj.shadow.len().saturating_sub(obj.durable.len());
                    let n = self.faults.partial_len(dirty);
                    let keep = obj.durable.len() + n;
                    obj.durable = obj.shadow[..keep.min(obj.shadow.len())].to_vec();
                    obj.shadow = obj.durable.clone();
                }
                return Err(StoreError::Crashed { point });
            }
            _ => {}
        }
        if let Some(obj) = self.objects.get_mut(name) {
            obj.durable = obj.shadow.clone();
        }
        let post = store_points::SYNC_POST;
        if let Some(FaultKind::Crash) = self.faults.decide(post) {
            return Err(StoreError::Crashed { point: post });
        }
        Ok(())
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let point = store_points::PUT;
        match self.faults.decide(point) {
            Some(FaultKind::Crash) => return Err(StoreError::Crashed { point }),
            Some(FaultKind::StorageError) => return Err(StoreError::Transient { point }),
            Some(FaultKind::NoSpace) => return Err(StoreError::NoSpace { point }),
            Some(FaultKind::TornWrite) => {
                let n = self.faults.partial_len(bytes.len());
                let obj = self.object(name);
                obj.durable = bytes[..n].to_vec();
                obj.shadow = obj.durable.clone();
                return Err(StoreError::Crashed { point });
            }
            Some(FaultKind::Corrupt) => {
                let mut rotted = bytes.to_vec();
                self.faults.corrupt_bytes(&mut rotted);
                self.object(name).shadow = rotted;
                return Ok(());
            }
            _ => {}
        }
        self.object(name).shadow = bytes.to_vec();
        Ok(())
    }

    fn crash(&mut self) {
        for obj in self.objects.values_mut() {
            obj.shadow = obj.durable.clone();
        }
    }
}

fn plan(seed: u64) -> FaultPlan {
    use store_points::{APPEND, PUT, SYNC, SYNC_POST};
    FaultPlan::new(seed)
        .rate(APPEND, FaultKind::TornWrite, 0.02)
        .rate(APPEND, FaultKind::Corrupt, 0.03)
        .rate(APPEND, FaultKind::NoSpace, 0.03)
        .rate(PUT, FaultKind::TornWrite, 0.03)
        .rate(PUT, FaultKind::Corrupt, 0.03)
        .rate(PUT, FaultKind::NoSpace, 0.03)
        .rate(SYNC, FaultKind::PartialFlush, 0.03)
        .rate(SYNC_POST, FaultKind::Crash, 0.03)
}

/// A small deterministic generator for the op stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

const NAMES: [&str; 3] = ["wal.0.0", "wal.0.1", "seal.0"];

const SEEDS: u64 = 48;
const STEPS: usize = 400;

#[test]
fn the_tail_flush_matches_whole_object_copies_under_every_fault() {
    let mut fired = BTreeSet::new();
    for seed in 1..=SEEDS {
        let mut disk = SimDisk::new(FaultInjector::new(plan(seed)));
        let mut model = WholeCopyDisk {
            objects: BTreeMap::new(),
            faults: FaultInjector::new(plan(seed)),
        };
        let mut ops = Lcg(seed);
        for step in 0..STEPS {
            let name = NAMES[ops.below(NAMES.len() as u64) as usize];
            let len = ops.below(48) as usize;
            let bytes: Vec<u8> = (0..len).map(|i| (step + i) as u8).collect();
            let (got, want) = match ops.below(10) {
                0..=3 => (disk.append(name, &bytes), model.append(name, &bytes)),
                4..=6 => (disk.sync(name), model.sync(name)),
                7 => (disk.put(name, &bytes), model.put(name, &bytes)),
                8 => {
                    disk.crash();
                    model.crash();
                    (Ok(()), Ok(()))
                }
                _ => {
                    let deleted = disk.delete(name);
                    model.objects.remove(name);
                    (deleted, Ok(()))
                }
            };
            assert_eq!(got, want, "seed {seed} step {step}: outcome");
            if matches!(got, Err(StoreError::Crashed { .. })) {
                disk.crash();
                model.crash();
            }
            assert_eq!(
                disk.list(),
                model.objects.keys().cloned().collect::<Vec<_>>(),
                "seed {seed} step {step}: objects"
            );
            for (name, obj) in &model.objects {
                assert_eq!(
                    disk.durable_bytes(name),
                    Some(obj.durable.as_slice()),
                    "seed {seed} step {step}: durable bytes of {name}"
                );
                assert_eq!(
                    disk.read(name).unwrap().as_deref(),
                    Some(obj.shadow.as_slice()),
                    "seed {seed} step {step}: live bytes of {name}"
                );
            }
        }
        fired.extend(
            disk.injector()
                .log()
                .iter()
                .map(|f| (f.point, f.kind.label())),
        );
    }
    for want in [
        (store_points::APPEND, FaultKind::TornWrite),
        (store_points::PUT, FaultKind::TornWrite),
        (store_points::SYNC, FaultKind::PartialFlush),
        (store_points::APPEND, FaultKind::Corrupt),
        (store_points::PUT, FaultKind::Corrupt),
        (store_points::APPEND, FaultKind::NoSpace),
        (store_points::SYNC_POST, FaultKind::Crash),
    ] {
        assert!(
            fired.contains(&(want.0, want.1.label())),
            "{} never fired at {}",
            want.1.label(),
            want.0
        );
    }
}
