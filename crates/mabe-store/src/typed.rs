//! The typed keyspace: an in-memory table set ([`Keyspace`]) plus a
//! frame-batch journal over the segmented WAL ([`TypedStore`]).
//!
//! A [`Keyspace`] is the pure state: ordered rows per table, mutated by
//! applying [`Frame`]s and snapshotted as per-table checkpoint sections.
//! A [`TypedStore`] is the journal beside it: callers stage one frame
//! batch per logical operation ([`TypedStore::stage_frames`]), make it
//! durable through group commit ([`TypedStore::commit`]), and write
//! per-table snapshots they assemble themselves, each beside an optional
//! seal of append-only history ([`TypedStore::checkpoint_keyspace`]).
//! The store never holds rows.
//!
//! [`TypedStore::open`] folds the checkpoint snapshot and every frame
//! batch logged after it into one [`Keyspace`] and hands it to the
//! caller together with the committed seal payloads, in order. Every
//! record must be a frame batch and every snapshot a `MTKS0001` image;
//! anything else fails typed, with the storage handed back.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{PoisonError, RwLock};

use crate::compact::CheckpointFailure;
use crate::group::{GroupWal, StoreRef};
use crate::schema::{
    decode_frames, encode_frames, ByteReader, Frame, FrameOp, Schema, SchemaError,
    KEYSPACE_SNAPSHOT_MAGIC,
};
use crate::scrub::ScrubReport;
use crate::storage::{Storage, StoreError};
use crate::wal::{Recovered, RecoveryReport, WalOpenError};

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

/// An ordered, schema-addressed table set.
///
/// All row access is by encoded key, so iteration order is the codec's
/// lexicographic order and `range` is a prefix scan. The keyspace is
/// internally locked: reads take a shared lock, mutations an exclusive
/// one. Callers that must keep mutation order aligned with journal
/// order (the durable replay invariant) serialize externally.
#[derive(Debug, Default)]
pub struct Keyspace {
    tables: RwLock<BTreeMap<u16, TableData>>,
}

impl Clone for Keyspace {
    fn clone(&self) -> Self {
        Keyspace {
            tables: RwLock::new(
                self.tables
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Keyspace {
    /// An empty keyspace.
    pub fn new() -> Self {
        Keyspace::default()
    }

    fn read_tables(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<u16, TableData>> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_tables(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<u16, TableData>> {
        self.tables.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers table `T` (so snapshots carry its name even while it
    /// is empty). Idempotent.
    pub fn register<T: Schema>(&self) {
        let mut tables = self.write_tables();
        let entry = tables.entry(T::ID).or_default();
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
        match self.read_tables().get(&T::ID).and_then(|t| t.rows.get(&kb)) {
            Some(v) => Ok(Some(T::decode_value(v)?)),
            None => Ok(None),
        }
    }

    /// The raw value bytes at `key` in table `table`, if present.
    pub fn get_raw(&self, table: u16, key: &[u8]) -> Option<Vec<u8>> {
        self.read_tables()
            .get(&table)
            .and_then(|t| t.rows.get(key))
            .cloned()
    }

    /// Whether table `T` has a row at `key`.
    pub fn contains<T: Schema>(&self, key: &T::Key) -> bool {
        let kb = T::key_bytes(key);
        self.read_tables()
            .get(&T::ID)
            .is_some_and(|t| t.rows.contains_key(&kb))
    }

    /// Inserts or replaces a row in table `T` (in-memory only — journal
    /// it as a [`Frame`] through [`TypedStore::stage_frames`]).
    pub fn put<T: Schema>(&self, key: &T::Key, value: &T::Value) {
        let kb = T::key_bytes(key);
        let vb = T::value_bytes(value);
        let mut tables = self.write_tables();
        let entry = tables.entry(T::ID).or_default();
        if entry.name.is_empty() {
            entry.name = T::NAME.to_owned();
        }
        entry.rows.insert(kb, vb);
    }

    /// Removes a row from table `T` (in-memory only). Returns whether
    /// the row existed.
    pub fn delete<T: Schema>(&self, key: &T::Key) -> bool {
        let kb = T::key_bytes(key);
        self.write_tables()
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
        let tables = self.read_tables();
        let Some(t) = tables.get(&table) else {
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
        self.read_tables().get(&table).map_or(0, |t| t.rows.len())
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.read_tables().values().map(|t| t.rows.len()).sum()
    }

    /// Applies a frame batch in order: puts insert/replace, deletes
    /// remove (deleting an absent row is a no-op, so replay is
    /// idempotent at batch granularity).
    pub fn apply(&self, frames: &[Frame]) {
        let mut tables = self.write_tables();
        for frame in frames {
            let entry = tables.entry(frame.table).or_default();
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

    /// Drops every row and table.
    pub fn clear(&self) {
        self.write_tables().clear();
    }

    /// Encodes the per-table checkpoint snapshot: magic, table count,
    /// then each table (id, name, row count, rows) in id order with
    /// rows in key order — byte-stable for identical contents.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let tables = self.read_tables();
        let mut out = Vec::new();
        out.extend_from_slice(KEYSPACE_SNAPSHOT_MAGIC);
        out.extend_from_slice(&(tables.len() as u32).to_be_bytes());
        for (id, table) in tables.iter() {
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
        Ok(Keyspace {
            tables: RwLock::new(tables),
        })
    }
}

/// What [`TypedStore::open`] recovered.
#[derive(Debug)]
pub struct TypedOpen {
    /// The checkpoint snapshot with every later frame batch applied in
    /// log order — the committed state, owned by the caller.
    pub keyspace: Keyspace,
    /// Every committed seal's payload, in seal order — the history the
    /// checkpoints moved out of their snapshots.
    pub seals: Vec<Vec<u8>>,
    /// How many frame batches were replayed on top of the snapshot.
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
    /// The checkpoint snapshot did not decode as a per-table snapshot
    /// ([`SchemaError::BadMagic`] for any other format). The backing
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

/// The frame-batch journal over the segmented WAL: batches are staged
/// and group-committed (acked ⇒ durable), checkpoints write per-table
/// snapshot sections, and reopen folds both back into a [`Keyspace`].
#[derive(Debug)]
pub struct TypedStore<S: Storage> {
    wal: GroupWal<S>,
}

impl<S: Storage> TypedStore<S> {
    /// Opens the store: decodes the checkpoint snapshot (if any) and
    /// applies every frame batch logged after it, in order, returning
    /// the folded [`Keyspace`] and the committed seals in [`TypedOpen`].
    ///
    /// # Errors
    ///
    /// [`TypedOpenError`] — WAL-level failure (a missing or rotted
    /// committed seal among them), a snapshot that is not a well-formed
    /// per-table snapshot, or a record that is not a well-formed frame
    /// batch.
    pub fn open(store: S) -> Result<(Self, TypedOpen), TypedOpenError<S>> {
        let (
            wal,
            Recovered {
                snapshot,
                seals,
                records,
                report,
            },
        ) = GroupWal::open(store).map_err(TypedOpenError::Wal)?;
        // The raw snapshot bytes drop as soon as they are decoded.
        let keyspace = match snapshot {
            None => Keyspace::new(),
            Some(bytes) => match Keyspace::decode_snapshot(&bytes) {
                Ok(keyspace) => keyspace,
                Err(error) => {
                    return Err(TypedOpenError::Snapshot {
                        error,
                        store: wal.into_store(),
                    })
                }
            },
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
        Ok((
            TypedStore { wal },
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
        self.wal.stage(&encode_frames(frames))
    }

    /// Blocks until every record staged at or before `seq` is durable.
    ///
    /// # Errors
    ///
    /// The poisoning [`StoreError`] (see [`GroupWal::commit`]).
    pub fn commit(&self, seq: u64) -> Result<(), StoreError> {
        self.wal.commit(seq)
    }

    /// Checkpoints a caller-assembled keyspace image as a per-table
    /// snapshot, committing `seal` (if any) as the next seal with the
    /// same manifest swap, and truncates the log (see
    /// [`GroupWal::checkpoint`] for failure classification).
    ///
    /// # Errors
    ///
    /// [`CheckpointFailure`] — `dirty` poisons, clean leaves the old
    /// generation authoritative.
    pub fn checkpoint_keyspace(
        &self,
        ks: &Keyspace,
        seal: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        self.wal.checkpoint(&ks.encode_snapshot(), seal)
    }

    /// One scrub pass over cold segments (see [`GroupWal::scrub`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the scrub could not run.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        self.wal.scrub()
    }

    /// Quarantines `names` for forensics.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the move failed.
    pub fn quarantine(&self, names: &[String]) -> Result<(), StoreError> {
        self.wal.quarantine(names)
    }

    /// Rewrites committed seal `n` with `payload` (the scrub repair).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if seal `n` is not committed or the write failed.
    pub fn rewrite_seal(&self, n: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.wal.rewrite_seal(n, payload)
    }

    /// Live log bytes (cold + active segments).
    pub fn live_log_bytes(&self) -> usize {
        self.wal.live_log_bytes()
    }

    /// Live segment count.
    pub fn segments_live(&self) -> usize {
        self.wal.segments_live()
    }

    /// Sets the per-segment rotation budget.
    pub fn set_segment_budget(&self, budget: usize) {
        self.wal.set_segment_budget(budget)
    }

    /// The committed generation.
    pub fn generation(&self) -> u64 {
        self.wal.generation()
    }

    /// The backing store, through the log's lock.
    pub fn storage(&self) -> StoreRef<'_, S> {
        self.wal.storage()
    }

    /// The backing store, mutably (exclusive access).
    pub fn store_mut(&mut self) -> &mut S {
        self.wal.store_mut()
    }

    /// Consumes the store, handing back the backing storage.
    pub fn into_store(self) -> S {
        self.wal.into_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::define_table;
    use crate::schema::{key_str, key_u64};
    use crate::sim::SimDisk;

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
        let image = Keyspace::new();
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
        let ks = Keyspace::new();
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
