//! The storage contract the WAL runs over.

use std::fmt;

use mabe_faults::FaultInjector;

/// Named fault points a [`Storage`] backend consults, mirroring the
/// `fault_points` convention in `mabe-cloud`.
pub mod store_points {
    /// Appending bytes to an object (`TornWrite` tears here).
    pub const APPEND: &str = "store.append";
    /// Flushing an object's dirty bytes (`PartialFlush` tears here).
    pub const SYNC: &str = "store.sync";
    /// Just after a flush durably completed — a crash here loses the
    /// acknowledgement but not the bytes (at-least-once territory).
    pub const SYNC_POST: &str = "store.sync.post";
    /// Reading an object (`ReadCorrupt` bit-rots the returned copy).
    pub const READ: &str = "store.read";
    /// Replacing an object wholesale (snapshot and manifest writes).
    pub const PUT: &str = "store.put";
    /// Sealing the active WAL segment and opening the next one
    /// (`Crash` dies mid-rotation; `NoSpace` skips the rotation).
    pub const ROTATE: &str = "store.rotate";
    /// Checkpoint-driven compaction: snapshot or delta write and the
    /// garbage collection of superseded objects (`Crash` dies pre-swap
    /// or mid-GC; `NoSpace` aborts the compaction cleanly).
    pub const COMPACT: &str = "store.compact";
    /// The background scrub pass re-verifying cold-segment, snapshot,
    /// delta and seal checksums.
    pub const SCRUB: &str = "store.scrub";
    /// A checkpoint's audit seal write, consulted before the seal's put
    /// (`Crash` dies with the old generation intact; `NoSpace` fails
    /// the checkpoint cleanly).
    pub const SEAL: &str = "store.seal";
    /// A delta checkpoint's object write, consulted before the delta's
    /// put (`Crash` dies with the old generation intact; `NoSpace` fails
    /// the checkpoint cleanly).
    pub const DELTA: &str = "store.delta";
    /// Atomically swapping the segment manifest (`ManifestTorn` tears
    /// the slot being written; the surviving slot must recover).
    pub const MANIFEST_SWAP: &str = "store.manifest_swap";
}

/// A storage operation's failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The process died at this fault point; whatever the backend had
    /// already made durable survives, everything else is gone.
    Crashed {
        /// The fault point that crashed.
        point: &'static str,
    },
    /// A transient backend failure; the operation may be retried.
    Transient {
        /// The fault point that failed.
        point: &'static str,
    },
    /// Durable bytes failed validation (bad checksum, bad pointer). Not
    /// retryable: the caller must decide how much state to give up.
    Corrupt(&'static str),
    /// An object required for recovery is missing.
    Missing(&'static str),
    /// An object is intact but in an on-disk format this version does
    /// not read (named here). There is no migration: the caller gets
    /// the storage back untouched.
    Format(&'static str),
    /// The backend is out of space (ENOSPC): nothing was written. The
    /// caller should degrade to read-only and reclaim via compaction —
    /// this is the one write failure that never poisons a journal.
    NoSpace {
        /// The fault point that hit the full disk.
        point: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Crashed { point } => write!(f, "crashed at {point}"),
            StoreError::Transient { point } => write!(f, "transient storage failure at {point}"),
            StoreError::Corrupt(what) => write!(f, "corrupt storage: {what}"),
            StoreError::Missing(what) => write!(f, "missing storage object: {what}"),
            StoreError::Format(what) => write!(f, "unsupported on-disk format: {what}"),
            StoreError::NoSpace { point } => write!(f, "storage out of space at {point}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// How full a capacity-bounded backend is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageUsage {
    /// Live bytes currently occupying the store.
    pub used: usize,
    /// Total capacity in bytes.
    pub capacity: usize,
}

impl StorageUsage {
    /// Bytes still writable before the store is full.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }
}

/// A minimal object store: named byte objects with append, whole-object
/// replace, and an explicit durability barrier.
///
/// Writes (`append`, `put`, `delete`) land in a volatile buffer that a
/// crash discards; [`Storage::sync`] moves an object's buffered bytes to
/// durable media. Reads observe the live (buffered) view, like a process
/// reading through the OS page cache.
pub trait Storage {
    /// Appends `bytes` to `name`, creating the object if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Durably flushes `name`'s buffered bytes.
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;

    /// Replaces `name`'s contents with `bytes` (buffered until synced).
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads `name`'s live contents (`None` if the object is absent).
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Removes `name` (both buffered and durable state).
    fn delete(&mut self, name: &str) -> Result<(), StoreError>;

    /// Names of all live objects.
    fn list(&self) -> Vec<String>;

    /// Capacity accounting, if this backend is capacity-bounded
    /// (`None` = unbounded). The WAL's degradation gate polls this.
    fn usage(&self) -> Option<StorageUsage> {
        None
    }

    /// The fault injector consulted at the log-lifecycle points
    /// ([`store_points::ROTATE`], [`store_points::COMPACT`],
    /// [`store_points::SEAL`], [`store_points::DELTA`],
    /// [`store_points::SCRUB`], [`store_points::MANIFEST_SWAP`]), if
    /// this backend carries one. Production backends return `None` and
    /// the lifecycle runs unfaulted.
    fn lifecycle_faults(&self) -> Option<&FaultInjector> {
        None
    }
}
