//! The typed keyspace: an in-memory table set ([`Keyspace`]) plus a
//! frame-batch journal over the segmented WAL ([`TypedStore`]).
//!
//! A [`Keyspace`] is the pure state: ordered rows per table, mutated by
//! applying [`Frame`]s and snapshotted as per-table checkpoint sections.
//! A [`TypedStore`] is the journal beside it: callers stage one frame
//! batch per logical operation ([`TypedStore::stage_frames`]), make it
//! durable through group commit ([`TypedStore::commit`]), and
//! checkpoint, each time beside an optional seal of append-only
//! history: either a per-table snapshot they assemble themselves
//! ([`TypedStore::checkpoint_keyspace`]), or, when the store's rule
//! allows, a delta folded from the journal itself
//! ([`TypedStore::checkpoint_delta_or_full`]). The store never holds
//! rows.
//!
//! [`TypedStore::open`] folds the base snapshot, every delta after it
//! and every frame batch logged after those into one [`Keyspace`] and
//! hands it to the caller together with the committed seal payloads, in
//! order. Every record and every delta must be a frame batch and every
//! snapshot a `MTKS0001` image; anything else fails typed, with the
//! storage handed back.
//!
//! # Group commit
//!
//! Many threads journal concurrently against one [`Wal`]: each writer
//! **stages** its batch (cheap, in memory) and then **commits** its
//! sequence number. The first committer to find the log idle becomes
//! the *leader*: it drains every staged batch, appends them in staging
//! order, and issues **one** `sync` for all of them. Followers whose
//! batches rode along just observe the durable watermark advance and
//! return, so N concurrent journal writes cost one disk sync instead of
//! N. A checkpoint leads the same way, flushing whatever is staged
//! before it writes the snapshot.
//!
//! * `commit(seq)` returns `Ok` only once every batch staged at or
//!   before `seq` is durable (append **and** sync succeeded).
//! * Staging order is append order. Callers that need WAL order to
//!   match in-memory apply order (the durable system's replay
//!   invariant) must stage under the same lock that serializes their
//!   state mutation.
//! * A failed flush poisons the store permanently: the leader parks the
//!   error and every current and future commit returns a clone of it.
//!   Acked-implies-durable must never be weakened by retrying a
//!   half-appended batch.
//! * Single-threaded use (stage, then commit, with nothing else staged)
//!   is exactly one `append` + one `sync` per batch, and a checkpoint
//!   with nothing staged syncs nothing before the snapshot: the same
//!   storage fault-point hit sequence as the bare [`Wal`], so seeded
//!   crash sweeps replay unchanged.
//!
//! Batched appends run on the leader's thread, so their
//! `JournalAppend` trace events attach to the leader's active span;
//! followers' causal trees record only their own staging context.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::compact::{CheckpointFailure, CheckpointKind};
use crate::schema::{
    decode_frames, encode_frames, ByteReader, Frame, FrameOp, Schema, SchemaError,
    KEYSPACE_SNAPSHOT_MAGIC,
};
use crate::scrub::ScrubReport;
use crate::storage::{Storage, StoreError};
use crate::wal::{Recovered, RecoveryReport, Wal, WalOpenError};

/// Decoded rows of table `T` in key order — what a prefix range scan
/// returns.
pub type Rows<T> = Vec<(<T as Schema>::Key, <T as Schema>::Value)>;

/// One table's in-memory state: ordered rows plus the debug name the
/// snapshot sections carry.
#[derive(Clone, Debug, Default)]
struct TableData {
    name: String,
    rows: BTreeMap<Vec<u8>, Vec<u8>>,
}

/// An ordered, schema-addressed table set: the image a checkpoint
/// writes and reopen folds.
///
/// All row access is by encoded key, so iteration order is the codec's
/// lexicographic order and `range` is a prefix scan.
#[derive(Clone, Debug, Default)]
pub struct Keyspace {
    tables: BTreeMap<u16, TableData>,
}

impl Keyspace {
    /// An empty keyspace.
    pub fn new() -> Self {
        Keyspace::default()
    }

    /// Registers table `T` (so snapshots carry its name even while it
    /// is empty). Idempotent.
    pub fn register<T: Schema>(&mut self) {
        let entry = self.tables.entry(T::ID).or_default();
        if entry.name.is_empty() {
            entry.name = T::NAME.to_owned();
        }
    }

    /// The decoded row at `key` in table `T`, if present.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] if the stored value bytes do not decode.
    pub fn get<T: Schema>(&self, key: &T::Key) -> Result<Option<T::Value>, SchemaError> {
        let kb = T::key_bytes(key);
        match self.tables.get(&T::ID).and_then(|t| t.rows.get(&kb)) {
            Some(v) => Ok(Some(T::decode_value(v)?)),
            None => Ok(None),
        }
    }

    /// Whether table `T` has a row at `key`.
    pub fn contains<T: Schema>(&self, key: &T::Key) -> bool {
        let kb = T::key_bytes(key);
        self.tables
            .get(&T::ID)
            .is_some_and(|t| t.rows.contains_key(&kb))
    }

    /// Inserts or replaces a row in table `T` (in-memory only — journal
    /// it as a [`Frame`] through [`TypedStore::stage_frames`]).
    pub fn put<T: Schema>(&mut self, key: &T::Key, value: &T::Value) {
        let kb = T::key_bytes(key);
        let vb = T::value_bytes(value);
        let entry = self.tables.entry(T::ID).or_default();
        if entry.name.is_empty() {
            entry.name = T::NAME.to_owned();
        }
        entry.rows.insert(kb, vb);
    }

    /// Removes a row from table `T` (in-memory only). Returns whether
    /// the row existed.
    pub fn delete<T: Schema>(&mut self, key: &T::Key) -> bool {
        let kb = T::key_bytes(key);
        self.tables
            .get_mut(&T::ID)
            .is_some_and(|t| t.rows.remove(&kb).is_some())
    }

    /// Every row of table `T` whose encoded key starts with `prefix`,
    /// decoded, in key order. Build prefixes from the same key
    /// component encoders ([`crate::key_str`] / [`crate::key_u64`]) —
    /// component boundaries guarantee a prefix never matches a sibling
    /// (`enc("a")` is not a byte prefix of `enc("ab")`).
    ///
    /// # Errors
    ///
    /// [`SchemaError`] if any matched row fails to decode.
    pub fn range<T: Schema>(&self, prefix: &[u8]) -> Result<Rows<T>, SchemaError> {
        self.range_raw(T::ID, prefix)
            .into_iter()
            .map(|(k, v)| Ok((T::decode_key(&k)?, T::decode_value(&v)?)))
            .collect()
    }

    /// Raw-bytes form of [`Keyspace::range`].
    pub fn range_raw(&self, table: u16, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let Some(t) = self.tables.get(&table) else {
            return Vec::new();
        };
        t.rows
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of rows in table `table` (0 if absent).
    pub fn rows(&self, table: u16) -> usize {
        self.tables.get(&table).map_or(0, |t| t.rows.len())
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }

    /// Applies a frame batch in order: puts insert/replace, deletes
    /// remove (deleting an absent row is a no-op, so replay is
    /// idempotent at batch granularity).
    pub fn apply(&mut self, frames: &[Frame]) {
        for frame in frames {
            let entry = self.tables.entry(frame.table).or_default();
            match frame.op {
                FrameOp::Put => {
                    entry.rows.insert(frame.key.clone(), frame.value.clone());
                }
                FrameOp::Delete => {
                    entry.rows.remove(&frame.key);
                }
            }
        }
    }

    /// Encodes the per-table checkpoint snapshot: magic, table count,
    /// then each table (id, name, row count, rows) in id order with
    /// rows in key order — byte-stable for identical contents.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(KEYSPACE_SNAPSHOT_MAGIC);
        out.extend_from_slice(&(self.tables.len() as u32).to_be_bytes());
        for (id, table) in &self.tables {
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(&(table.name.len() as u16).to_be_bytes());
            out.extend_from_slice(table.name.as_bytes());
            out.extend_from_slice(&(table.rows.len() as u64).to_be_bytes());
            for (k, v) in &table.rows {
                out.extend_from_slice(&(k.len() as u32).to_be_bytes());
                out.extend_from_slice(k);
                out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                out.extend_from_slice(v);
            }
        }
        out
    }

    /// Decodes a snapshot produced by [`Keyspace::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// [`SchemaError`] (offset-carrying where applicable) on truncated
    /// or malformed input.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Keyspace, SchemaError> {
        let mut r = ByteReader::new(bytes);
        if r.take(8)? != KEYSPACE_SNAPSHOT_MAGIC {
            return Err(SchemaError::BadMagic);
        }
        let table_count = r.u32()? as usize;
        if table_count > u16::MAX as usize + 1 {
            return Err(SchemaError::Malformed("implausible table count"));
        }
        let mut tables = BTreeMap::new();
        for _ in 0..table_count {
            let id = r.u16()?;
            let name_len = r.u16()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| SchemaError::Malformed("table name not utf-8"))?;
            let row_count = r.u64()?;
            // Each row costs at least 8 framing bytes.
            if row_count > (r.remaining() as u64) / 8 + 1 {
                return Err(SchemaError::Malformed("implausible row count"));
            }
            let mut rows = BTreeMap::new();
            for _ in 0..row_count {
                let k = r.len_bytes()?.to_vec();
                let v = r.len_bytes()?.to_vec();
                rows.insert(k, v);
            }
            if tables.insert(id, TableData { name, rows }).is_some() {
                return Err(SchemaError::Malformed("duplicate table id"));
            }
        }
        r.expect_exhausted()?;
        Ok(Keyspace { tables })
    }
}

/// What [`TypedStore::open`] recovered.
#[derive(Debug)]
pub struct TypedOpen {
    /// The base snapshot with every delta and every later frame batch
    /// applied in order — the committed state, owned by the caller.
    pub keyspace: Keyspace,
    /// Every committed seal's payload, in seal order — the history the
    /// checkpoints moved out of their snapshots.
    pub seals: Vec<Vec<u8>>,
    /// How many frame batches were replayed on top of the checkpoint.
    pub records: usize,
    /// The underlying WAL recovery report.
    pub report: RecoveryReport,
}

/// Why [`TypedStore::open`] failed.
#[derive(Debug)]
pub enum TypedOpenError<S> {
    /// The underlying WAL failed to open (store handed back inside).
    Wal(WalOpenError<S>),
    /// A CRC-intact record did not decode as a frame batch — a writer
    /// bug, a foreign format, or an incompatible future one — reported
    /// with the record's index in the replayed log (and, where one
    /// applies, the offending offset inside it). The backing store is
    /// handed back for forensics.
    Record {
        /// Index of the record within the replayed (post-checkpoint)
        /// log.
        index: usize,
        /// The decode failure.
        error: SchemaError,
        /// The backing store, handed back untouched for repair.
        store: S,
    },
    /// The checkpoint did not decode: its base snapshot is not a
    /// per-table snapshot ([`SchemaError::BadMagic`] for any other
    /// format), or one of its deltas is not a frame batch. The backing
    /// store is handed back for forensics.
    Snapshot {
        /// The decode failure.
        error: SchemaError,
        /// The backing store, handed back untouched for repair.
        store: S,
    },
}

impl<S> fmt::Display for TypedOpenError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedOpenError::Wal(e) => write!(f, "{e}"),
            TypedOpenError::Record { index, error, .. } => {
                write!(f, "frame record {index} rejected: {error}")
            }
            TypedOpenError::Snapshot { error, .. } => {
                write!(f, "typed snapshot rejected: {error}")
            }
        }
    }
}

/// A generation's delta: the last frame per `(table, key)` across its
/// frame-batch `records`, minus the `absorbed` tables, with `closing`
/// on top, in `(table, key)` order. `None` if a record is not a frame
/// batch.
fn fold_delta(records: &[Vec<u8>], absorbed: &[u16], closing: &[Frame]) -> Option<Vec<u8>> {
    let mut last = BTreeMap::new();
    for record in records {
        for frame in decode_frames(record).ok()? {
            if !absorbed.contains(&frame.table) {
                last.insert((frame.table, frame.key.clone()), frame);
            }
        }
    }
    for frame in closing {
        last.insert((frame.table, frame.key.clone()), frame.clone());
    }
    Some(encode_frames(&last.into_values().collect::<Vec<_>>()))
}

/// Locks tolerating poison: a panicked writer thread must not wedge
/// the whole log (the parked `failure`, not lock poison, is the
/// correctness signal here).
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Group-commit state, guarded apart from the [`Wal`] so staging never
/// blocks behind an in-flight disk sync.
#[derive(Debug, Default)]
struct GroupState {
    /// Encoded batches staged but not yet handed to a leader, in stage
    /// order. Their sequence numbers run contiguously up to `next_seq`.
    pending: Vec<Vec<u8>>,
    /// Sequence number the next staged batch will get.
    next_seq: u64,
    /// Every batch with `seq < durable_seq` is durable.
    durable_seq: u64,
    /// A leader is appending and syncing a batch.
    committing: bool,
    /// First dirty failure; permanent (the store is poisoned).
    failure: Option<StoreError>,
}

/// The frame-batch journal over the segmented WAL: batches are staged
/// and group-committed (acked ⇒ durable), checkpoints write per-table
/// snapshot sections, and reopen folds both back into a [`Keyspace`].
#[derive(Debug)]
pub struct TypedStore<S: Storage> {
    /// The log's counters, copied under its lock wherever the log
    /// changes them (open, and the end of each lead), so reading one
    /// never waits on the log.
    generation: AtomicU64,
    segments_live: AtomicUsize,
    live_log_bytes: AtomicUsize,
    wal: Mutex<Wal<S>>,
    state: Mutex<GroupState>,
    cv: Condvar,
}

/// Read access to the backing store through the log's lock (derefs to
/// `S`, held for the duration of the borrow).
pub struct StoreRef<'a, S: Storage>(MutexGuard<'a, Wal<S>>);

impl<S: Storage> std::ops::Deref for StoreRef<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        self.0.store()
    }
}

impl<S: Storage> TypedStore<S> {
    /// Opens the store: decodes the base snapshot (if any), applies
    /// every delta after it and then every frame batch logged after
    /// those, in order, returning the folded [`Keyspace`] and the
    /// committed seals in [`TypedOpen`].
    ///
    /// # Errors
    ///
    /// [`TypedOpenError`] — WAL-level failure (a missing or rotted
    /// delta or committed seal among them), a snapshot that is not a
    /// well-formed per-table snapshot, a delta or a record that is not a
    /// well-formed frame batch.
    pub fn open(store: S) -> Result<(Self, TypedOpen), TypedOpenError<S>> {
        let (
            wal,
            Recovered {
                snapshot,
                deltas,
                seals,
                records,
                report,
            },
        ) = Wal::open(store).map_err(TypedOpenError::Wal)?;
        // The raw snapshot and delta bytes drop as soon as they are
        // decoded.
        let checkpoint = snapshot
            .map_or_else(|| Ok(Keyspace::new()), |b| Keyspace::decode_snapshot(&b))
            .and_then(|mut keyspace| {
                for delta in deltas {
                    keyspace.apply(&decode_frames(&delta)?);
                }
                Ok(keyspace)
            });
        let mut keyspace = match checkpoint {
            Ok(keyspace) => keyspace,
            Err(error) => {
                return Err(TypedOpenError::Snapshot {
                    error,
                    store: wal.into_store(),
                })
            }
        };
        let replayed = records.len();
        for (index, payload) in records.into_iter().enumerate() {
            match decode_frames(&payload) {
                Ok(frames) => keyspace.apply(&frames),
                Err(error) => {
                    return Err(TypedOpenError::Record {
                        index,
                        error,
                        store: wal.into_store(),
                    })
                }
            }
        }
        let store = TypedStore {
            generation: AtomicU64::new(wal.generation()),
            segments_live: AtomicUsize::new(wal.segments_live()),
            live_log_bytes: AtomicUsize::new(wal.live_log_bytes()),
            wal: Mutex::new(wal),
            state: Mutex::default(),
            cv: Condvar::new(),
        };
        Ok((
            store,
            TypedOpen {
                keyspace,
                seals,
                records: replayed,
                report,
            },
        ))
    }

    /// Stages a frame batch as one WAL record and returns its commit
    /// sequence. Callers serialize their own apply order: stage under
    /// the same lock that mutates state, then [`TypedStore::commit`]
    /// outside it.
    pub fn stage_frames(&self, frames: &[Frame]) -> u64 {
        let payload = encode_frames(frames);
        let mut st = lock_ok(&self.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(payload);
        seq
    }

    /// Blocks until every batch staged at or before `seq` is durable,
    /// leading the flush if no other is in flight.
    ///
    /// # Errors
    ///
    /// The first storage error any flush hit — permanently, for every
    /// later commit (the store is poisoned).
    pub fn commit(&self, seq: u64) -> Result<(), StoreError> {
        self.lead(
            |st| st.durable_seq > seq,
            |_, flushed| {
                let registry = mabe_telemetry::global();
                registry.counter("mabe_wal_group_commits_total", &[]).inc();
                registry
                    .counter("mabe_wal_group_batched_records_total", &[])
                    .add(flushed as u64);
                Ok(())
            },
        )
        .map(drop)
        .map_err(|failure| failure.error)
    }

    /// Flushes anything still staged, then checkpoints a caller-assembled
    /// keyspace image as a per-table snapshot, committing `seal` (if
    /// any) as the next seal with the same manifest swap, and truncates
    /// the log (see [`Wal::checkpoint`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointFailure`], classified: a *dirty* one (the staged
    /// flush died, or the manifest swap was attempted and its outcome is
    /// ambiguous) poisons the store permanently; a *clean* one (e.g.
    /// ENOSPC on the snapshot write, strictly before the swap) leaves
    /// the old generation authoritative and the store fully usable, so
    /// the caller may retry once the cause clears.
    pub fn checkpoint_keyspace(
        &self,
        ks: &Keyspace,
        seal: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        let snapshot = ks.encode_snapshot();
        self.lead(|_| false, |wal, _| wal.checkpoint(&snapshot, seal))
            .map(drop)
    }

    /// Flushes anything still staged, then checkpoints at the cost of
    /// the change when the store's rule allows (see
    /// [`Wal::checkpoint_delta_or_full`]): the delta is the last frame
    /// per `(table, key)` the live segments hold, read back from
    /// storage, leaving out the `absorbed` tables (whose rows `seal`
    /// takes over) and ending with the `closing` frames. When the rule
    /// picks a full checkpoint, `full()` builds the keyspace and the
    /// `closing` frames are applied to it before it is snapshotted.
    /// Either way `seal` (if any) commits as the next seal.
    ///
    /// # Errors
    ///
    /// [`CheckpointFailure`], classified as for
    /// [`TypedStore::checkpoint_keyspace`].
    pub fn checkpoint_delta_or_full(
        &self,
        absorbed: &[u16],
        closing: &[Frame],
        seal: Option<&[u8]>,
        full: impl FnOnce() -> Keyspace,
    ) -> Result<CheckpointKind, CheckpointFailure> {
        let delta = |records: Vec<Vec<u8>>| fold_delta(&records, absorbed, closing);
        let full = || {
            let mut ks = full();
            ks.apply(closing);
            ks.encode_snapshot()
        };
        self.lead(
            |_| false,
            |wal, _| wal.checkpoint_delta_or_full(seal, delta, full),
        )
        .map(|kind| kind.expect("a checkpoint always leads"))
    }

    /// Waits until no flush is in flight, then leads one: appends every
    /// staged batch in stage order under one sync (none when nothing is
    /// staged) and runs `then` with the log and the number of batches
    /// flushed, both under the log's lock. Returns `None` without
    /// leading once `done` holds. A failed flush is dirty; `then`
    /// classifies its own failures. A dirty failure poisons the store;
    /// after a clean one the flushed batches are durable.
    fn lead<T>(
        &self,
        done: impl Fn(&GroupState) -> bool,
        then: impl FnOnce(&mut Wal<S>, usize) -> Result<T, CheckpointFailure>,
    ) -> Result<Option<T>, CheckpointFailure> {
        let mut st = lock_ok(&self.state);
        loop {
            if let Some(error) = &st.failure {
                return Err(CheckpointFailure {
                    error: error.clone(),
                    dirty: true,
                });
            }
            if done(&st) {
                return Ok(None);
            }
            if !st.committing {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.committing = true;
        let batch = std::mem::take(&mut st.pending);
        let batch_end = st.next_seq;
        drop(st);

        let result = {
            let mut wal = lock_ok(&self.wal);
            let result = batch
                .iter()
                .try_for_each(|payload| wal.append(payload))
                .and_then(|()| if batch.is_empty() { Ok(()) } else { wal.sync() })
                .map_err(|error| CheckpointFailure { error, dirty: true })
                .and_then(|()| then(&mut wal, batch.len()));
            self.note_log(&wal);
            result
        };

        let mut st = lock_ok(&self.state);
        st.committing = false;
        match &result {
            Err(failure) if failure.dirty => st.failure = Some(failure.error.clone()),
            _ => st.durable_seq = st.durable_seq.max(batch_end),
        }
        self.cv.notify_all();
        result.map(Some)
    }

    /// Copies the log's counters out; the caller holds the log's lock.
    fn note_log(&self, wal: &Wal<S>) {
        self.generation.store(wal.generation(), Ordering::Relaxed);
        self.segments_live
            .store(wal.segments_live(), Ordering::Relaxed);
        self.live_log_bytes
            .store(wal.live_log_bytes(), Ordering::Relaxed);
    }

    /// One scrub pass over cold segments (see [`Wal::scrub`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the scrub could not run.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        lock_ok(&self.wal).scrub()
    }

    /// Quarantines `names` for forensics (see [`Wal::quarantine`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the move failed.
    pub fn quarantine(&self, names: &[String]) -> Result<(), StoreError> {
        lock_ok(&self.wal).quarantine(names)
    }

    /// Rewrites committed seal `n` with `payload` (the scrub repair).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if seal `n` is not committed or the write failed.
    pub fn rewrite_seal(&self, n: u64, payload: &[u8]) -> Result<(), StoreError> {
        lock_ok(&self.wal).rewrite_seal(n, payload)
    }

    /// Live log bytes (cold + active segments, snapshot excluded), as
    /// of the last flush or checkpoint. Never waits on the log.
    pub fn live_log_bytes(&self) -> usize {
        self.live_log_bytes.load(Ordering::Relaxed)
    }

    /// Live segments the manifest currently lists. Never waits on the
    /// log.
    pub fn segments_live(&self) -> usize {
        self.segments_live.load(Ordering::Relaxed)
    }

    /// Sets the per-segment rotation budget (see
    /// [`Wal::set_segment_budget`]).
    pub fn set_segment_budget(&self, budget: usize) {
        lock_ok(&self.wal).set_segment_budget(budget)
    }

    /// The committed generation. Never waits on the log.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The backing store, through the log's lock: no flush, checkpoint
    /// or other call that takes the log may run on this thread while
    /// the guard lives.
    pub fn storage(&self) -> StoreRef<'_, S> {
        StoreRef(lock_ok(&self.wal))
    }

    /// The backing store, mutably (exclusive access — no locking).
    pub fn store_mut(&mut self) -> &mut S {
        self.wal
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .store_mut()
    }

    /// Consumes the store, handing back the backing storage.
    pub fn into_store(self) -> S {
        self.wal
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::define_table;
    use crate::schema::{key_str, key_u64};
    use crate::sim::SimDisk;
    use crate::storage::store_points;
    use mabe_faults::{FaultInjector, FaultKind, FaultPlan};

    define_table!(
        /// Users keyed by uid.
        Users: 1, "users",
        key(uid: str)
    );

    define_table!(
        /// Grants keyed by (uid, attribute).
        Grants: 2, "grants",
        key(uid: str, attr: str)
    );

    define_table!(
        /// Versioned components keyed by (authority, object, version).
        Components: 3, "components",
        key(aid: str, object: str, version: u64)
    );

    fn fresh() -> TypedStore<SimDisk> {
        TypedStore::open(SimDisk::unfaulted())
            .expect("fresh open")
            .0
    }

    /// Stages one batch and blocks until it is durable.
    fn journal(ts: &TypedStore<SimDisk>, frames: &[Frame]) {
        let seq = ts.stage_frames(frames);
        ts.commit(seq).unwrap();
    }

    fn reopen(ts: TypedStore<SimDisk>) -> TypedOpen {
        let mut disk = ts.into_store();
        disk.crash();
        TypedStore::open(disk).unwrap().1
    }

    /// A one-frame batch whose `Users` row holds `value`.
    fn batch(value: &[u8]) -> Vec<Frame> {
        vec![Frame::put::<Users>(
            &(format!("{value:?}"),),
            &value.to_vec(),
        )]
    }

    /// Storage hits of `APPEND` and `SYNC` so far.
    fn hits(disk: &SimDisk) -> [u64; 2] {
        [store_points::APPEND, store_points::SYNC].map(|point| disk.injector().hits(point))
    }

    #[test]
    fn single_threaded_commit_is_one_append_one_sync_per_batch() {
        let ts = fresh();
        let [appends, syncs] = hits(&ts.storage());
        journal(&ts, &batch(b"one"));
        journal(&ts, &batch(b"two"));
        // The bare Wal's storage hit sequence: seeded crash sweeps that
        // count fault-point hits replay unchanged.
        assert_eq!(hits(&ts.storage()), [appends + 2, syncs + 2]);
        let records = Wal::open(ts.into_store()).unwrap().1.records;
        assert_eq!(records, [b"one", b"two"].map(|v| encode_frames(&batch(v))));
    }

    #[test]
    fn staged_batches_commit_under_one_sync() {
        let ts = fresh();
        let [_, syncs] = hits(&ts.storage());
        let seqs = [b"a", b"b", b"c"].map(|v| ts.stage_frames(&batch(v)));
        // Committing the *last* staged batch flushes all three.
        ts.commit(seqs[2]).unwrap();
        assert_eq!(hits(&ts.storage())[1], syncs + 1);
        // Earlier sequences are already durable: no further disk work.
        ts.commit(seqs[0]).unwrap();
        ts.commit(seqs[1]).unwrap();
        assert_eq!(hits(&ts.storage())[1], syncs + 1);
        let records = Wal::open(ts.into_store()).unwrap().1.records;
        assert_eq!(
            records,
            [b"a", b"b", b"c"].map(|v| encode_frames(&batch(v)))
        );
    }

    #[test]
    fn concurrent_committers_batch_and_preserve_stage_order() {
        let ts = fresh();
        let [_, syncs] = hits(&ts.storage());
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let ts = &ts;
                s.spawn(move || {
                    for i in 0..16u8 {
                        journal(ts, &batch(&[t, i]));
                    }
                });
            }
        });
        let syncs = hits(&ts.storage())[1] - syncs;
        assert!(syncs <= 128, "never more syncs than batches: {syncs}");
        let records = Wal::open(ts.into_store()).unwrap().1.records;
        assert_eq!(records.len(), 128, "every committed batch is durable");
        let values: Vec<Vec<u8>> = records
            .iter()
            .map(|r| decode_frames(r).unwrap().remove(0).value)
            .collect();
        // Per-thread stage order is preserved in the log.
        for t in 0..8u8 {
            let order: Vec<u8> = values.iter().filter(|v| v[0] == t).map(|v| v[1]).collect();
            assert_eq!(order, (0..16u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_failed_flush_poisons_every_commit_and_checkpoint() {
        // Open syncs twice (pointer + fresh log); the first commit's
        // sync is hit 3.
        let plan = FaultPlan::new(5).at(store_points::SYNC, 3, FaultKind::Crash);
        let ts = TypedStore::open(SimDisk::new(FaultInjector::new(plan)))
            .expect("open survives")
            .0;
        let err = ts.commit(ts.stage_frames(&batch(b"doomed"))).unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        // Permanently poisoned: even brand-new batches fail, with the
        // *original* error.
        ts.storage().injector().disarm();
        let later = ts.stage_frames(&batch(b"later"));
        assert_eq!(ts.commit(later).unwrap_err(), err);
        let failure = ts.checkpoint_keyspace(&Keyspace::new(), None).unwrap_err();
        assert_eq!(failure.error, err);
        assert!(failure.dirty, "a poisoned store reports dirty");
    }

    #[test]
    fn a_clean_checkpoint_failure_leaves_the_store_usable() {
        let mut ts = fresh();
        journal(&ts, &batch(b"op"));
        ts.store_mut()
            .injector_mut()
            .schedule(store_points::COMPACT, 1, FaultKind::NoSpace);
        // ENOSPC strictly before the manifest swap fails clean…
        let image = Keyspace::new();
        let failure = ts.checkpoint_keyspace(&image, None).unwrap_err();
        assert!(matches!(failure.error, StoreError::NoSpace { .. }));
        assert!(!failure.dirty);
        // …so the store is NOT poisoned: writes and a retried
        // checkpoint both go through.
        journal(&ts, &batch(b"more"));
        ts.checkpoint_keyspace(&image, None).unwrap();
        assert_eq!(ts.generation(), 1);
    }

    #[test]
    fn checkpoint_flushes_staged_batches_and_rolls_generation() {
        let ts = fresh();
        journal(&ts, &batch(b"durable"));
        let [appends, _] = hits(&ts.storage());
        let _staged = ts.stage_frames(&batch(b"staged-only"));
        let mut image = Keyspace::new();
        image.register::<Users>();
        ts.checkpoint_keyspace(&image, None).unwrap();
        assert_eq!(ts.generation(), 1);
        assert_eq!(hits(&ts.storage())[0], appends + 1, "the staged batch");
        let (_, r) = Wal::open(ts.into_store()).unwrap();
        assert_eq!(r.snapshot, Some(image.encode_snapshot()));
        assert!(r.records.is_empty(), "fresh generation starts empty");
    }

    /// With nothing staged, a checkpoint syncs nothing before the
    /// snapshot: it hits storage exactly as the bare log's checkpoint
    /// does and leaves the same bytes.
    #[test]
    fn a_checkpoint_with_nothing_staged_matches_the_bare_log() {
        let image = Keyspace::new();
        let ts = fresh();
        journal(&ts, &batch(b"op"));
        let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
        wal.append(&encode_frames(&batch(b"op"))).unwrap();
        wal.sync().unwrap();
        let before = (hits(&ts.storage()), hits(wal.store()));
        ts.checkpoint_keyspace(&image, Some(b"SEAL")).unwrap();
        wal.checkpoint(&image.encode_snapshot(), Some(b"SEAL"))
            .unwrap();
        let typed = ts.into_store();
        let bare = wal.into_store();
        let delta = |now: [u64; 2], then: [u64; 2]| [now[0] - then[0], now[1] - then[1]];
        assert_eq!(delta(hits(&typed), before.0), delta(hits(&bare), before.1));
        let objects = |disk: &SimDisk| {
            disk.list()
                .into_iter()
                .map(|name| (disk.durable_bytes(&name).map(<[u8]>::to_vec), name))
                .collect::<Vec<_>>()
        };
        assert_eq!(objects(&typed), objects(&bare));
    }

    /// A delta holds the last frame per row of the journal since the
    /// previous checkpoint — deletes included, the absorbed table left
    /// out, the closing rows on top — and reopen applies it to the base.
    #[test]
    fn a_delta_folds_the_journal_and_reopens_on_the_base() {
        let ts = fresh();
        journal(&ts, &batch(b"kept"));
        journal(&ts, &batch(b"deleted"));
        let full = || {
            let mut image = Keyspace::new();
            image.put::<Users>(&(format!("{:?}", b"kept"),), &b"kept".to_vec());
            image.put::<Users>(&(format!("{:?}", b"deleted"),), &b"deleted".to_vec());
            image
        };
        let kind = ts.checkpoint_delta_or_full(&[], &[], None, full).unwrap();
        assert_eq!(kind, CheckpointKind::Full, "no base yet");
        let grant = |attr: &str| (("u".to_owned(), attr.to_owned()), Vec::new());
        for frames in [
            vec![Frame::put::<Grants>(&grant("a").0, &grant("a").1)],
            vec![Frame::put::<Users>(&("u".into(),), &b"first".to_vec())],
            vec![Frame::put::<Users>(&("u".into(),), &b"last".to_vec())],
            vec![Frame::delete::<Users>(&(format!("{:?}", b"deleted"),))],
        ] {
            journal(&ts, &frames);
        }
        let closing = [Frame::put::<Users>(&("closing".into(),), &b"c".to_vec())];
        let kind = ts
            .checkpoint_delta_or_full(&[Grants::ID], &closing, None, || unreachable!())
            .unwrap();
        assert_eq!(kind, CheckpointKind::Delta);
        let delta = ts.storage().durable_bytes("delta-2").unwrap().to_vec();
        let frames = decode_frames(&delta[12..]).unwrap();
        assert_eq!(
            frames,
            vec![
                Frame::delete::<Users>(&(format!("{:?}", b"deleted"),)),
                Frame::put::<Users>(&("closing".into(),), &b"c".to_vec()),
                Frame::put::<Users>(&("u".into(),), &b"last".to_vec()),
            ]
        );
        let open = reopen(ts);
        assert_eq!((open.report.deltas, open.records), (1, 0));
        assert_eq!(open.keyspace.rows(Grants::ID), 0, "the absorbed table");
        assert_eq!(
            open.keyspace.get::<Users>(&("u".into(),)).unwrap(),
            Some(b"last".to_vec())
        );
        assert!(!open
            .keyspace
            .contains::<Users>(&(format!("{:?}", b"deleted"),)));
        assert!(open
            .keyspace
            .contains::<Users>(&(format!("{:?}", b"kept"),)));
    }

    #[test]
    fn put_get_delete_survive_reopen() {
        let ts = fresh();
        journal(
            &ts,
            &[Frame::put::<Users>(&("u1".into(),), &b"alice".to_vec())],
        );
        journal(
            &ts,
            &[Frame::put::<Users>(&("u2".into(),), &b"bob".to_vec())],
        );
        journal(&ts, &[Frame::delete::<Users>(&("u1".into(),))]);
        let open = reopen(ts);
        assert_eq!(open.records, 3);
        assert_eq!(open.keyspace.get::<Users>(&("u1".into(),)).unwrap(), None);
        assert_eq!(
            open.keyspace.get::<Users>(&("u2".into(),)).unwrap(),
            Some(b"bob".to_vec())
        );
    }

    #[test]
    fn checkpoint_snapshots_by_table_and_reopen_uses_it() {
        let ts = fresh();
        let mut image = Keyspace::new();
        for frames in [
            vec![Frame::put::<Users>(&("u".into(),), &b"x".to_vec())],
            vec![Frame::put::<Grants>(
                &("u".into(), "a@org".into()),
                &Vec::new(),
            )],
        ] {
            journal(&ts, &frames);
            image.apply(&frames);
        }
        ts.checkpoint_keyspace(&image, Some(b"HISTORY")).unwrap();
        journal(
            &ts,
            &[Frame::put::<Grants>(
                &("u".into(), "b@org".into()),
                &Vec::new(),
            )],
        );
        let open = reopen(ts);
        assert!(open.report.had_snapshot);
        assert_eq!(open.seals, vec![b"HISTORY".to_vec()]);
        assert_eq!(open.records, 1, "only the post-checkpoint record");
        assert_eq!(open.keyspace.rows(Grants::ID), 2);
        assert_eq!(open.keyspace.rows(Users::ID), 1);
    }

    #[test]
    fn range_scans_respect_component_prefix_boundaries() {
        let ts = fresh();
        for (aid, object, version) in [
            ("a", "obj", 1u64),
            ("a", "obj", 2),
            ("a", "other", 1),
            ("ab", "obj", 1),
            ("b", "obj", 9),
        ] {
            journal(
                &ts,
                &[Frame::put::<Components>(
                    &(aid.into(), object.into(), version),
                    &version.to_be_bytes().to_vec(),
                )],
            );
        }
        let ks = reopen(ts).keyspace;
        // Prefix = authority "a": matches exactly the three "a" rows,
        // never authority "ab".
        let mut prefix = Vec::new();
        key_str(&mut prefix, "a");
        let hits = ks.range::<Components>(&prefix).unwrap();
        let keys: Vec<(String, String, u64)> = hits.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), "obj".into(), 1),
                ("a".into(), "obj".into(), 2),
                ("a".into(), "other".into(), 1),
            ]
        );
        // Prefix = (authority, object): version order is numeric.
        let mut prefix = Vec::new();
        key_str(&mut prefix, "a");
        key_str(&mut prefix, "obj");
        let versions: Vec<u64> = ks
            .range::<Components>(&prefix)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k.2)
            .collect();
        assert_eq!(versions, vec![1, 2]);
        // A full-key prefix including the u64 matches exactly one row.
        key_u64(&mut prefix, 2);
        assert_eq!(ks.range::<Components>(&prefix).unwrap().len(), 1);
    }

    #[test]
    fn keyspace_snapshot_roundtrips_and_rejects_damage() {
        let mut ks = Keyspace::new();
        ks.register::<Users>();
        ks.put::<Grants>(&("u".into(), "a".into()), &b"g".to_vec());
        ks.put::<Components>(&("x".into(), "y".into(), 3), &Vec::new());
        let snap = ks.encode_snapshot();
        assert!(snap.starts_with(KEYSPACE_SNAPSHOT_MAGIC));
        let back = Keyspace::decode_snapshot(&snap).unwrap();
        assert_eq!(back.encode_snapshot(), snap, "byte-stable roundtrip");
        assert_eq!(back.rows(Users::ID), 0, "registered empty table kept");
        for cut in 0..snap.len() {
            assert!(
                Keyspace::decode_snapshot(&snap[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
        let mut bad = snap.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Keyspace::decode_snapshot(&bad),
            Err(SchemaError::BadMagic)
        ));
    }
}
