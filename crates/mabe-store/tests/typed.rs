//! Typed-keyspace integration coverage: per-table torn-write / bit-rot
//! / truncation fuzz over frame-batch records, a seeded range-scan
//! property test (shuffled inserts must yield codec order and clean
//! prefix boundaries), and per-table checkpoint snapshot damage.
//!
//! The WAL already guarantees that damaged records are dropped or
//! rejected at CRC granularity; these tests pin the layer above — a
//! damaged *typed* log must recover to a frame-batch **prefix** (never
//! half a batch, never a phantom row) and decode failures past the CRC
//! must stay typed with offsets.

use mabe_store::{
    define_table, key_str, key_u64, Frame, Keyspace, Schema, SchemaError, SimDisk, TypedOpenError,
    TypedStore,
};

define_table!(
    /// Per-user rows keyed by uid.
    Users: 1, "users",
    key(uid: str)
);

define_table!(
    /// Grant rows keyed by (uid, attribute).
    Grants: 2, "grants",
    key(uid: str, attr: str)
);

define_table!(
    /// Component index rows keyed by (authority, object, component).
    Components: 3, "components",
    key(aid: str, object: str, component: u64)
);

const ACTIVE_OBJ: &str = "wal.0.0";

/// The operations the seeded log contains, in order: one frame batch
/// per logical op, mixing all three tables.
fn seeded_ops() -> Vec<Vec<Frame>> {
    vec![
        vec![Frame::put::<Users>(&("alice".into(),), &b"pk-a".to_vec())],
        vec![
            Frame::put::<Grants>(&("alice".into(), "dept@org".into()), &Vec::new()),
            Frame::put::<Grants>(&("alice".into(), "role@org".into()), &Vec::new()),
        ],
        vec![Frame::put::<Components>(
            &("org".into(), "report".into(), 0),
            &b"ct-v1".to_vec(),
        )],
        vec![
            Frame::delete::<Grants>(&("alice".into(), "role@org".into())),
            Frame::put::<Components>(&("org".into(), "report".into(), 0), &b"ct-v2".to_vec()),
        ],
    ]
}

/// Stages one batch and blocks until it is durable.
fn journal(ts: &TypedStore<SimDisk>, frames: &[Frame]) {
    let seq = ts.stage_frames(frames);
    ts.commit(seq).unwrap();
}

/// A synced generation-0 typed log holding [`seeded_ops`].
fn seeded_disk() -> SimDisk {
    let (ts, _) = TypedStore::open(SimDisk::unfaulted()).unwrap();
    for frames in seeded_ops() {
        journal(&ts, &frames);
    }
    ts.into_store()
}

/// The keyspace state after applying the first `n` seeded ops.
fn state_after(n: usize) -> Keyspace {
    let mut ks = Keyspace::new();
    for frames in seeded_ops().iter().take(n) {
        ks.apply(frames);
    }
    ks
}

fn damaged(obj: &str, bytes: Vec<u8>) -> SimDisk {
    let mut disk = seeded_disk();
    disk.set_durable(obj, bytes);
    disk
}

/// Asserts `ks` holds exactly the state of some op-prefix of the seeded
/// log, returning the prefix length.
fn assert_op_prefix(ks: &Keyspace, context: &str) -> usize {
    let want_ops = seeded_ops().len();
    for n in (0..=want_ops).rev() {
        let want = state_after(n);
        let tables = [Users::ID, Grants::ID, Components::ID];
        let matches = tables
            .iter()
            .all(|&t| ks.range_raw(t, &[]) == want.range_raw(t, &[]));
        if matches {
            return n;
        }
    }
    panic!("{context}: recovered state is not any op-prefix of the seeded log");
}

#[test]
fn bit_flip_every_position_recovers_a_frame_batch_prefix() {
    let log = seeded_disk().durable_bytes(ACTIVE_OBJ).unwrap().to_vec();
    for bit in 0..log.len() * 8 {
        let mut flipped = log.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match TypedStore::open(damaged(ACTIVE_OBJ, flipped)) {
            Ok((_, open)) => {
                let n = assert_op_prefix(&open.keyspace, &format!("bit {bit}"));
                assert!(
                    n == seeded_ops().len() || open.report.dropped_bytes > 0,
                    "bit {bit}: ops lost without reported damage"
                );
            }
            // Header flips fail at the WAL layer; payload flips that
            // survive CRC are astronomically impossible, so any other
            // decode failure would be a Record error — none expected.
            Err(TypedOpenError::Wal(failure)) => {
                assert!(bit < 64, "bit {bit}: spurious WAL error {failure:?}");
            }
            Err(other) => panic!("bit {bit}: unexpected typed error {other}"),
        }
    }
}

#[test]
fn truncate_every_offset_drops_whole_trailing_batches_only() {
    let log = seeded_disk().durable_bytes(ACTIVE_OBJ).unwrap().to_vec();
    for cut in 0..=log.len() {
        let (_, open) = TypedStore::open(damaged(ACTIVE_OBJ, log[..cut].to_vec()))
            .expect("active-segment truncation is always recoverable");
        let n = assert_op_prefix(&open.keyspace, &format!("cut {cut}"));
        assert_eq!(
            open.records, n,
            "cut {cut}: record count must equal surviving op count (no torn batch)"
        );
    }
}

#[test]
fn torn_multi_frame_batch_is_all_or_nothing() {
    // The 4th op is a two-frame batch (delete + put). Truncate inside
    // its payload region: either the whole batch survives or neither
    // frame applied — a grant delete must never land without its
    // paired component update.
    let log = seeded_disk().durable_bytes(ACTIVE_OBJ).unwrap().to_vec();
    for cut in 0..=log.len() {
        let (_, open) = TypedStore::open(damaged(ACTIVE_OBJ, log[..cut].to_vec())).unwrap();
        let ks = &open.keyspace;
        let role_gone = !ks.contains::<Grants>(&("alice".into(), "role@org".into()));
        let component = ks
            .get::<Components>(&("org".into(), "report".into(), 0))
            .unwrap();
        if role_gone && component.is_some() {
            assert_eq!(
                component,
                Some(b"ct-v2".to_vec()),
                "cut {cut}: delete applied without its paired put"
            );
        }
    }
}

#[test]
fn rotted_frame_record_decode_failures_are_typed_with_offsets() {
    // Forge rot that *passes* CRC: write a record that carries the
    // frame marker but is internally malformed, via the raw WAL. The
    // typed layer must reject it as a Record error carrying index and
    // offset — never a panic, never a generic corruption string.
    use mabe_store::{Wal, FRAME_RECORD_MARKER};
    /// A bare log holding `records`, each appended and synced.
    fn raw_log(records: &[&[u8]]) -> SimDisk {
        let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
        for record in records {
            wal.append(record).unwrap();
            wal.sync().unwrap();
        }
        wal.into_store()
    }
    let good = {
        let frames = [Frame::put::<Users>(&("u".into(),), &b"v".to_vec())];
        mabe_store::encode_frames(&frames)
    };
    // Marker + implausible count.
    let disk = raw_log(&[&good, &[FRAME_RECORD_MARKER, 0xFF, 0xFF, 0xFF, 0xFF]]);
    match TypedStore::open(disk) {
        Err(TypedOpenError::Record { index, error, .. }) => {
            assert_eq!(index, 1, "first record is fine, second is rot");
            assert!(matches!(
                error,
                SchemaError::Malformed(_) | SchemaError::Truncated { .. }
            ));
        }
        other => panic!("malformed marker record accepted: {other:?}"),
    }

    // Truncation inside an otherwise valid frame record reports the
    // offset where bytes ran out.
    match TypedStore::open(raw_log(&[&good[..good.len() - 1]])) {
        Err(TypedOpenError::Record {
            index: 0, error, ..
        }) => match error {
            SchemaError::Truncated { offset } => assert!(offset < good.len()),
            other => panic!("expected offset-carrying truncation, got {other:?}"),
        },
        other => panic!("truncated frame record accepted: {other:?}"),
    }

    // A record in any other format (here a pre-keyspace tagged record)
    // is not a frame batch: rejected at its index, never skipped.
    match TypedStore::open(raw_log(&[&good, &[4, 0, 5, b'a', b'l', b'i', b'c', b'e']])) {
        Err(TypedOpenError::Record {
            index: 1,
            error: SchemaError::Malformed("not a frame record"),
            ..
        }) => {}
        other => panic!("tagged record accepted: {other:?}"),
    }

    // Likewise a snapshot that is not a per-table snapshot.
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    wal.checkpoint(b"LEGACY-SNAP", None).unwrap();
    match TypedStore::open(wal.into_store()) {
        Err(TypedOpenError::Snapshot {
            error: SchemaError::BadMagic,
            ..
        }) => {}
        other => panic!("foreign snapshot accepted: {other:?}"),
    }
}

#[test]
fn per_table_snapshot_bit_rot_never_resurrects_or_invents_rows() {
    // Checkpoint, then write one post-checkpoint op; damage the
    // snapshot object at every byte. Open must fail typed (WAL CRC) —
    // and if the typed decoder ever sees the bytes, its failure is
    // typed too.
    fn gen1_disk() -> SimDisk {
        let (ts, open) = TypedStore::open(seeded_disk()).unwrap();
        ts.checkpoint_keyspace(&open.keyspace, None).unwrap();
        journal(
            &ts,
            &[Frame::put::<Users>(&("bob".into(),), &b"pk-b".to_vec())],
        );
        ts.into_store()
    }
    let disk = gen1_disk();
    let snap_obj = format!("snapshot-{}", 1);
    let snap = disk.durable_bytes(&snap_obj).unwrap().to_vec();
    for pos in 0..snap.len() {
        let mut flipped = snap.clone();
        flipped[pos] ^= 0x01;
        let mut d = gen1_disk();
        d.set_durable(&snap_obj, flipped);
        match TypedStore::open(d) {
            Err(TypedOpenError::Wal(failure)) => {
                assert!(
                    matches!(failure.error, mabe_store::StoreError::Corrupt(_)),
                    "pos {pos}: {:?}",
                    failure.error
                );
            }
            Err(TypedOpenError::Snapshot { .. }) => {}
            Err(other) => panic!("pos {pos}: unexpected {other}"),
            Ok(_) => panic!("pos {pos}: damaged snapshot opened cleanly"),
        }
    }
    // Undamaged control: full state, snapshot plus the one tail record.
    let (_, open) = TypedStore::open(disk).unwrap();
    assert!(open.report.had_snapshot);
    assert_eq!(open.records, 1);
    assert_eq!(
        open.keyspace.get::<Users>(&("bob".into(),)).unwrap(),
        Some(b"pk-b".to_vec())
    );
    let expected = state_after(seeded_ops().len());
    assert_eq!(
        open.keyspace.range_raw(Grants::ID, &[]),
        expected.range_raw(Grants::ID, &[])
    );
}

/// Deterministic xorshift64* — mabe-store has no RNG dependency, and
/// the property test must be seeded anyway.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[test]
fn range_scan_property_shuffled_inserts_yield_codec_order_and_tight_prefixes() {
    // Key universe chosen to attack the encoding's weak spots: empty
    // components, embedded NULs, keys where one string is a prefix of
    // another, and numeric components whose little-endian order would
    // differ from big-endian.
    let aids = ["", "a", "a\0", "aa", "ab", "b"];
    let objects = ["", "o", "o\0o", "oo"];
    let components = [0u64, 1, 255, 256, u64::MAX];
    let mut universe = Vec::new();
    for aid in &aids {
        for object in &objects {
            for &component in &components {
                universe.push(((*aid).to_owned(), (*object).to_owned(), component));
            }
        }
    }
    let mut expected = universe.clone();
    expected.sort();

    for seed in [0x1u64, 0xdead_beef, 0x5eed_cafe_f00d] {
        let mut shuffled = universe.clone();
        XorShift(seed).shuffle(&mut shuffled);
        let mut ks = Keyspace::new();
        for key in &shuffled {
            ks.put::<Components>(key, &format!("{key:?}").into_bytes());
        }
        // Property 1: full iteration is exactly tuple order, regardless
        // of insertion order.
        let got: Vec<_> = ks
            .range::<Components>(&[])
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, expected, "seed {seed:#x}: iteration order");

        // Property 2: every 1- and 2-component prefix returns exactly
        // the tuples matching componentwise — boundaries are tight
        // ("a" never bleeds into "aa" or "ab").
        for aid in &aids {
            let mut prefix = Vec::new();
            key_str(&mut prefix, aid);
            let got: Vec<_> = ks
                .range::<Components>(&prefix)
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let want: Vec<_> = expected.iter().filter(|k| k.0 == *aid).cloned().collect();
            assert_eq!(got, want, "seed {seed:#x}: prefix aid={aid:?}");
            for object in &objects {
                let mut prefix2 = prefix.clone();
                key_str(&mut prefix2, object);
                let got: Vec<_> = ks
                    .range::<Components>(&prefix2)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let want: Vec<_> = expected
                    .iter()
                    .filter(|k| k.0 == *aid && k.1 == *object)
                    .cloned()
                    .collect();
                assert_eq!(got, want, "seed {seed:#x}: prefix ({aid:?},{object:?})");
            }
        }

        // Property 3: a full-key prefix (all three components) matches
        // exactly one row.
        for key in expected.iter().step_by(17) {
            let mut prefix = Vec::new();
            key_str(&mut prefix, &key.0);
            key_str(&mut prefix, &key.1);
            key_u64(&mut prefix, key.2);
            assert_eq!(
                ks.range::<Components>(&prefix).unwrap().len(),
                1,
                "seed {seed:#x}: full-key prefix {key:?}"
            );
        }
    }
}
