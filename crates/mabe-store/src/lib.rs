//! Durable persistence for the MA-ABAC deployment.
//!
//! The paper's revocation protocol (§V) assumes the cloud side never
//! forgets which version keys and update keys have been committed. This
//! crate provides that durability layer for the simulated deployment:
//!
//! * [`Storage`] — a minimal object store contract (append / sync / put /
//!   read / delete) over named byte objects.
//! * [`SimDisk`] — the deterministic in-memory backend. Every operation
//!   consults a [`mabe_faults::FaultInjector`] at named fault points
//!   ([`store_points`]), so torn writes, partial flushes, bit rot, read
//!   errors, and crashes before/after sync are all seeded and replayable.
//!   A sync copies only the bytes appended since the last one.
//! * [`Wal`] — a segmented, length-prefixed, CRC32-checksummed
//!   write-ahead log: `wal.<gen>.<seq>` segments capped by a byte budget,
//!   a dual-slot atomically-swapped manifest naming the live set,
//!   generation-numbered checkpoints — a base snapshot plus the deltas
//!   written on top of it — and append-only `seal.<n>` objects holding
//!   the history each checkpoint moved out of its state. Recovery drops at most the torn tail of the *active*
//!   segment, requires cold segments and committed seals to verify
//!   strictly, and never falls back past a committed checkpoint.
//! * Lifecycle management on the [`Wal`]: rotation (automatic, budget
//!   driven), checkpoint-driven compaction with clean/dirty failure
//!   classification ([`CheckpointFailure`] — a full disk fails clean and
//!   must not poison), the one delta-or-full rule ([`CheckpointKind`],
//!   [`MAX_DELTAS`]), a sweep that deletes exactly what each manifest
//!   transition superseded (listing the store only when a stray may
//!   exist), and a [`ScrubReport`]-producing scrubber that
//!   re-verifies cold segments, the base snapshot, the deltas and the
//!   seals.
//! * The typed keyspace — [`Schema`] tables (order-preserving key
//!   codecs, [`define_table!`]), [`Frame`]-batch journaling, a
//!   [`Keyspace`] of ordered rows with prefix range scans, and
//!   [`TypedStore`]: the frame-batch journal over the [`Wal`], with
//!   per-table checkpoint sections, deltas folded from the journal, and
//!   group commit (concurrent
//!   writers stage batches and the elected leader appends every staged
//!   batch under a single sync, so N concurrent journal writes cost one
//!   disk flush instead of N), whose reopen folds both into one
//!   [`Keyspace`]. A batch encodes once, straight into its framed WAL
//!   record ([`FrameBatch`]), and staging copies it into buffers the
//!   group commit reuses, so a warmed commit allocates nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod crc;
mod manifest;
mod schema;
mod scrub;
mod segment;
mod sim;
mod storage;
mod typed;
mod wal;

pub use compact::{CheckpointFailure, CheckpointKind, MAX_DELTAS};
pub use crc::crc32;
pub use manifest::{Manifest, SegmentEntry};
pub use schema::{
    decode_frames, encode_frames, key_str, key_u64, ByteReader, Frame, FrameBatch, FrameOp, Schema,
    SchemaError, FRAME_RECORD_MARKER, KEYSPACE_SNAPSHOT_MAGIC,
};
pub use scrub::ScrubReport;
pub use sim::SimDisk;
pub use storage::{store_points, Storage, StorageUsage, StoreError};
pub use typed::{Keyspace, StoreRef, TypedOpen, TypedOpenError, TypedStore};
pub use wal::{Recovered, RecoveryReport, Wal, WalOpenError, DEFAULT_SEGMENT_BUDGET};
