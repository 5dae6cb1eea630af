//! What a checkpoint costs at a given store size: a durable store of
//! two-authority records under a full checkpoint, and one fixed change
//! run against it — a publish, a replacement and reads, [`CHANGE_OPS`]
//! journaled ops in all, the last of which cuts an automatic
//! checkpoint. The `compaction` bench times that checkpoint against a
//! full one; `tests/delta_checkpoints.rs` pins its bytes.

use std::time::{Duration, Instant};

use mabe_cloud::DurableSystem;
use mabe_core::{OwnerId, Uid};
use mabe_store::SimDisk;

/// Journaled ops between automatic checkpoints in a [`RecordStore`],
/// and so the length of [`RecordStore::change`].
pub const CHANGE_OPS: usize = 64;

const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";

/// A durable store of records that one reader may read.
pub struct RecordStore {
    /// The store.
    pub ds: DurableSystem<SimDisk>,
    owner: OwnerId,
    reader: Uid,
    records: usize,
}

impl RecordStore {
    /// A store holding `records` records (at least one) under a full
    /// checkpoint, which from then on checkpoints automatically every
    /// [`CHANGE_OPS`] journaled ops.
    ///
    /// # Panics
    ///
    /// If a set-up operation fails.
    pub fn new(records: usize, seed: u64) -> Self {
        let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), seed).expect("a fresh store opens");
        ds.set_checkpoint_interval(usize::MAX);
        ds.set_wal_budget(usize::MAX);
        ds.add_authority("MedOrg", &["Doctor"]).expect("setup");
        ds.add_authority("Trial", &["Researcher"]).expect("setup");
        let owner = ds.add_owner("hospital").expect("setup");
        let reader = ds.add_user("reader").expect("setup");
        ds.grant(&reader, &["Doctor@MedOrg", "Researcher@Trial"])
            .expect("setup");
        let store = RecordStore {
            ds,
            owner,
            reader,
            records: records.max(1),
        };
        for record in 0..store.records {
            store.publish(record);
        }
        store.ds.checkpoint().expect("a full checkpoint");
        store.ds.set_checkpoint_interval(CHANGE_OPS);
        store
    }

    fn publish(&self, record: usize) {
        let name = format!("r{record:05}");
        self.ds
            .publish(&self.owner, &name, &[("body", name.as_bytes(), POLICY)])
            .expect("publish");
    }

    fn read(&self, record: usize) {
        let name = format!("r{record:05}");
        self.ds
            .read(&self.reader, &self.owner, &name, "body")
            .expect("read");
    }

    /// Runs the change: a new record, a replacement of record 0, and
    /// reads of record 0 up to [`CHANGE_OPS`] ops, the last of which
    /// cuts the automatic checkpoint. Returns that last read's wall
    /// time, checkpoint included.
    ///
    /// # Panics
    ///
    /// If an operation fails, or the change does not end in exactly one
    /// checkpoint.
    pub fn change(&self) -> Duration {
        let generation = self.ds.generation();
        self.publish(self.records);
        self.publish(0);
        for _ in 0..CHANGE_OPS - 3 {
            self.read(0);
        }
        assert_eq!(self.ds.generation(), generation, "checkpointed early");
        let start = Instant::now();
        self.read(0);
        let elapsed = start.elapsed();
        assert_eq!(self.ds.generation(), generation + 1, "no checkpoint");
        elapsed
    }

    /// Durable bytes of the object `name` (0 if absent).
    pub fn object_bytes(&self, name: &str) -> usize {
        self.ds.storage().durable_bytes(name).map_or(0, <[u8]>::len)
    }
}
