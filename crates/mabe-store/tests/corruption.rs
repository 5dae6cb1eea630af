//! Corruption fuzz corpus for the segmented WAL codec.
//!
//! Every test here drives [`Wal::open`] over systematically damaged
//! on-disk bytes: single-bit flips at every position, truncation at
//! every byte offset — in the active segment, across cold segment
//! boundaries, inside the manifest slots, inside committed seals and
//! inside live deltas — plus checksum-breaking snapshot damage. Recovery must never panic,
//! must drop at most the suffix starting at the first damaged frame of
//! the *active* segment (cold-segment and seal damage is typed, for the
//! scrubber), must never open with a shorter seal history, and must
//! never resurrect pre-checkpoint state.

use mabe_store::{crc32, SimDisk, Storage, StoreError, Wal};

const ACTIVE_OBJ: &str = "wal.0.0";
const RECORDS: &[&[u8]] = &[
    b"alpha",
    b"beta-record",
    b"gamma gamma gamma",
    b"d",
    b"epsilon epsilon epsilon epsilon",
];

/// A synced generation-0 log holding [`RECORDS`] in one segment.
fn seeded_disk() -> SimDisk {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    for r in RECORDS {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    wal.into_store()
}

/// A seeded disk with `obj` replaced by `bytes` (manifest, snapshot,
/// and every other object stay intact and valid).
fn damaged(base: fn() -> SimDisk, obj: &str, bytes: Vec<u8>) -> SimDisk {
    let mut disk = base();
    disk.set_durable(obj, bytes);
    disk
}

#[test]
fn bit_flip_every_position_never_panics_and_only_drops_a_suffix() {
    let log = seeded_disk().durable_bytes(ACTIVE_OBJ).unwrap().to_vec();
    for bit in 0..log.len() * 8 {
        let mut flipped = log.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match Wal::open(damaged(seeded_disk, ACTIVE_OBJ, flipped)) {
            Ok((_, r)) => {
                let (records, report) = (r.records, r.report);
                assert!(r.snapshot.is_none());
                assert!(
                    records.len() <= RECORDS.len(),
                    "bit {bit}: phantom record appeared"
                );
                // Everything recovered must be an unmodified prefix —
                // a flip inside record i can only take out i..end.
                for (i, rec) in records.iter().enumerate() {
                    if *rec != RECORDS[i] {
                        // The flip landed inside this record's payload
                        // but we recovered it anyway? Only possible if
                        // the CRC also matched — astronomically
                        // impossible for a single-bit flip.
                        panic!("bit {bit}: record {i} silently corrupted");
                    }
                }
                assert!(
                    records.len() == RECORDS.len() || report.dropped_bytes > 0,
                    "bit {bit}: records lost without reported damage"
                );
            }
            // Flips inside the 8-byte magic are corruption, typed.
            Err(failure) => match failure.error {
                StoreError::Corrupt(_) => assert!(bit < 64, "bit {bit}: spurious header error"),
                other => panic!("bit {bit}: unexpected error {other:?}"),
            },
        }
    }
}

#[test]
fn truncate_every_offset_drops_at_most_the_last_partial_record() {
    let log = seeded_disk().durable_bytes(ACTIVE_OBJ).unwrap().to_vec();
    // Frame boundaries: offsets at which a whole number of records ends.
    let mut boundaries = vec![8usize];
    for r in RECORDS {
        boundaries.push(boundaries.last().unwrap() + 8 + r.len());
    }
    for cut in 0..=log.len() {
        let (_, r) = Wal::open(damaged(seeded_disk, ACTIVE_OBJ, log[..cut].to_vec()))
            .expect("truncation of the active segment is always recoverable");
        let (records, report) = (r.records, r.report);
        let whole = boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .count()
            .saturating_sub(1);
        assert_eq!(
            records.len(),
            whole,
            "cut {cut}: every record fully before the cut must survive, none after"
        );
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.as_slice(), RECORDS[i], "cut {cut}: record {i} mutated");
        }
        if cut >= 8 {
            assert_eq!(report.dropped_bytes, cut - boundaries[whole], "cut {cut}");
        }
    }
}

/// A synced multi-segment generation-0 log (tiny budget forces
/// rotation), for damage across segment boundaries.
fn multi_segment_disk() -> SimDisk {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    wal.set_segment_budget(64);
    for r in RECORDS {
        wal.append(r).unwrap();
    }
    for r in RECORDS {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    assert!(wal.segments_live() > 1, "budget must force rotation");
    wal.into_store()
}

#[test]
fn damage_across_segment_boundaries_never_panics_or_fabricates_records() {
    let disk = multi_segment_disk();
    let segments: Vec<String> = disk
        .list()
        .into_iter()
        .filter(|n| n.starts_with("wal.0."))
        .collect();
    assert!(segments.len() > 1);
    for seg in &segments {
        let bytes = disk.durable_bytes(seg).unwrap().to_vec();
        // Flip one bit per byte, and truncate at every offset: cheap
        // full coverage of header, frame boundary, and payload bytes.
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            check_damaged_open(seg, flipped, pos);
            check_damaged_open(seg, bytes[..pos].to_vec(), pos);
        }
        // A missing segment: fine for the active one (the crash window
        // between swap and creation), typed for a cold one.
        let active = segments
            .iter()
            .filter_map(|n| n.rsplit('.').next()?.parse::<u64>().ok())
            .max()
            .unwrap();
        let is_active = *seg == format!("wal.0.{active}");
        let mut gone = multi_segment_disk();
        gone.delete(seg).unwrap();
        match Wal::open(gone) {
            Ok(_) => assert!(is_active, "{seg}: cold segment vanished silently"),
            Err(failure) => {
                assert!(!is_active, "{seg}: missing active segment must be fine");
                assert!(
                    matches!(failure.error, StoreError::Missing(_)),
                    "{seg}: {:?}",
                    failure.error
                );
            }
        }
    }
}

fn check_damaged_open(seg: &str, bytes: Vec<u8>, pos: usize) {
    match Wal::open(damaged(multi_segment_disk, seg, bytes)) {
        Ok((_, r)) => {
            let records = r.records;
            // Whatever survives must be an unmodified prefix of the
            // written sequence (two passes over RECORDS).
            let written: Vec<&[u8]> = RECORDS.iter().chain(RECORDS.iter()).copied().collect();
            assert!(records.len() <= written.len(), "{seg} pos {pos}: phantom");
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.as_slice(), written[i], "{seg} pos {pos}: mutated");
            }
        }
        Err(failure) => assert!(
            matches!(
                failure.error,
                StoreError::Corrupt(_) | StoreError::Missing(_)
            ),
            "{seg} pos {pos}: untyped error {:?}",
            failure.error
        ),
    }
}

#[test]
fn manifest_damage_falls_back_or_fails_typed_never_panics() {
    // Generation-0, single swap: only manifest.1 exists. Any damage to
    // it beside committed objects must be a typed error (no fallback
    // slot, and reinitialising could resurrect nothing — but the log
    // has acked records, so recovery must refuse).
    let base = seeded_disk();
    let slot = base.durable_bytes("manifest.1").unwrap().to_vec();
    for pos in 0..slot.len() {
        let mut flipped = slot.clone();
        flipped[pos] ^= 0x40;
        match Wal::open(damaged(seeded_disk, "manifest.1", flipped)) {
            Err(failure) => assert!(
                matches!(failure.error, StoreError::Corrupt("manifest")),
                "pos {pos}: {:?}",
                failure.error
            ),
            Ok(_) => panic!("pos {pos}: single-bit-damaged manifest decoded"),
        }
        match Wal::open(damaged(seeded_disk, "manifest.1", slot[..pos].to_vec())) {
            Err(failure) => assert!(
                matches!(failure.error, StoreError::Corrupt("manifest")),
                "cut {pos}: {:?}",
                failure.error
            ),
            Ok(_) => panic!("cut {pos}: truncated manifest decoded"),
        }
    }

    // After a rotation both slots exist: damaging either one must fall
    // back to the surviving slot — records acked before that slot's
    // swap all survive, and nothing is fabricated.
    let multi = multi_segment_disk();
    for name in ["manifest.0", "manifest.1"] {
        let bytes = multi.durable_bytes(name).unwrap().to_vec();
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x04;
            let records = Wal::open(damaged(multi_segment_disk, name, flipped))
                .unwrap_or_else(|f| panic!("{name} pos {pos}: {:?} (surviving slot!)", f.error))
                .1
                .records;
            let written: Vec<&[u8]> = RECORDS.iter().chain(RECORDS.iter()).copied().collect();
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.as_slice(), written[i], "{name} pos {pos}");
            }
        }
    }
}

/// A generation-1 disk: checkpointed state plus one post-checkpoint
/// record.
fn gen1_disk() -> SimDisk {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    wal.append(b"old-secret-grant").unwrap();
    wal.sync().unwrap();
    wal.checkpoint(b"NEW-STATE", None).unwrap();
    wal.append(b"post-checkpoint").unwrap();
    wal.sync().unwrap();
    wal.into_store()
}

#[test]
fn post_checkpoint_damage_never_resurrects_pre_checkpoint_state() {
    let disk = gen1_disk();
    let snap = disk.durable_bytes("snapshot-1").unwrap().to_vec();

    // Damage every byte of the snapshot: open must fail typed.
    for pos in 0..snap.len() {
        let mut flipped = snap.clone();
        flipped[pos] ^= 0x01;
        match Wal::open(damaged(gen1_disk, "snapshot-1", flipped)) {
            Err(failure) => {
                assert!(
                    matches!(failure.error, StoreError::Corrupt(_)),
                    "pos {pos}: unexpected error {:?}",
                    failure.error
                );
            }
            Ok((_, r)) => {
                assert_eq!(r.snapshot.as_deref(), Some(&b"NEW-STATE"[..]), "pos {pos}");
                assert!(
                    !r.records.iter().any(|r| r == b"old-secret-grant"),
                    "pos {pos}"
                );
                panic!("pos {pos}: damaged snapshot opened cleanly");
            }
        }
    }

    // Delete the generation-1 active segment entirely: that is the
    // crash window between swap and creation — state is the snapshot
    // alone, never the old records.
    let mut d = gen1_disk();
    d.delete("wal.1.0").unwrap();
    let (_, r) = Wal::open(d).unwrap();
    assert_eq!(r.snapshot.as_deref(), Some(&b"NEW-STATE"[..]));
    assert!(r.records.is_empty());

    // A missing snapshot for a committed generation is a typed error,
    // not a silent fallback.
    let mut d = gen1_disk();
    d.delete("snapshot-1").unwrap();
    assert!(matches!(
        Wal::open(d).map(|_| ()).map_err(|f| f.error),
        Err(StoreError::Missing("committed snapshot"))
    ));
}

const SEALS: &[&[u8]] = &[
    b"history up to the first checkpoint",
    b"and up to the second",
];

/// A generation-2 disk: two checkpoints, each committing one seal of
/// [`SEALS`], plus one post-checkpoint record.
fn sealed_disk() -> SimDisk {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    for seal in SEALS {
        wal.append(b"op").unwrap();
        wal.sync().unwrap();
        wal.checkpoint(b"STATE", Some(seal)).unwrap();
    }
    wal.append(b"post-checkpoint").unwrap();
    wal.sync().unwrap();
    wal.into_store()
}

/// Opens `disk`, which must fail typed: a committed seal is never
/// dropped, shortened or replaced by a damaged copy.
fn assert_seal_damage_fails_typed(disk: SimDisk, ctx: &str) {
    match Wal::open(disk) {
        Err(failure) => assert!(
            matches!(
                failure.error,
                StoreError::Corrupt(_) | StoreError::Missing(_)
            ),
            "{ctx}: untyped error {:?}",
            failure.error
        ),
        Ok((_, r)) => panic!("{ctx}: opened with seals {:?}", r.seals),
    }
}

#[test]
fn committed_seals_open_in_order_and_any_damage_to_one_fails_typed() {
    let (wal, r) = Wal::open(sealed_disk()).unwrap();
    assert_eq!((wal.generation(), wal.seals()), (2, 2));
    assert_eq!(
        r.seals,
        SEALS.iter().map(|s| s.to_vec()).collect::<Vec<_>>()
    );
    assert_eq!(r.records, vec![b"post-checkpoint".to_vec()]);

    for name in ["seal.0", "seal.1"] {
        let bytes = sealed_disk().durable_bytes(name).unwrap().to_vec();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let ctx = format!("{name} pos {pos} bit {bit}");
                assert_seal_damage_fails_typed(damaged(sealed_disk, name, flipped), &ctx);
            }
            let ctx = format!("{name} cut {pos}");
            assert_seal_damage_fails_typed(damaged(sealed_disk, name, bytes[..pos].to_vec()), &ctx);
        }
        let mut gone = sealed_disk();
        gone.delete(name).unwrap();
        assert!(matches!(
            Wal::open(gone).map(|_| ()).map_err(|f| f.error),
            Err(StoreError::Missing("committed seal"))
        ));
    }
}

/// The newest manifest slot of [`sealed_disk`]: the one the second
/// checkpoint's swap wrote.
fn newest_slot(disk: &SimDisk) -> &'static str {
    let seq = |name| {
        u64::from_be_bytes(
            disk.durable_bytes(name).unwrap()[12..20]
                .try_into()
                .unwrap(),
        )
    };
    if seq("manifest.0") > seq("manifest.1") {
        "manifest.0"
    } else {
        "manifest.1"
    }
}

#[test]
fn damage_to_the_manifest_seal_count_never_opens_a_shorter_history() {
    let disk = sealed_disk();
    let slot = newest_slot(&disk);
    let bytes = disk.durable_bytes(slot).unwrap().to_vec();
    // The count is the fourth u64 of the payload (after seq,
    // generation and base), past the 12-byte frame header.
    let count = 12 + 24..12 + 32;
    assert_eq!(
        u64::from_be_bytes(bytes[count.clone()].try_into().unwrap()),
        2
    );
    for pos in count.clone() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            // The checksum fails, so recovery falls back to the older
            // slot, whose snapshot the second checkpoint collected.
            assert_seal_damage_fails_typed(
                damaged(sealed_disk, slot, flipped),
                &format!("count byte {pos} bit {bit}"),
            );
        }
        let cut = bytes[..pos].to_vec();
        assert_seal_damage_fails_typed(damaged(sealed_disk, slot, cut), &format!("cut {pos}"));
    }
    // A count forged past the written seals, checksum and all, names a
    // seal the store never had.
    let mut forged = bytes.clone();
    forged[count].copy_from_slice(&3u64.to_be_bytes());
    let crc = crc32(&forged[12..]);
    forged[8..12].copy_from_slice(&crc.to_be_bytes());
    assert!(matches!(
        Wal::open(damaged(sealed_disk, slot, forged))
            .map(|_| ())
            .map_err(|f| f.error),
        Err(StoreError::Missing("committed seal"))
    ));
}

#[test]
fn a_pre_seal_manifest_fails_typed_naming_its_format_and_keeps_the_store() {
    // The MMAN0001 layout: seq, generation, segment count, segments —
    // no seal count.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_be_bytes());
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&[0; 16]);
    assert_earlier_manifest_fails_typed(b"MMAN0001", &payload);
}

#[test]
fn a_pre_delta_manifest_fails_typed_naming_its_format_and_keeps_the_store() {
    // The MMAN0002 layout: seq, generation, seal count, segment count,
    // segments — no base generation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_be_bytes());
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&[0; 16]);
    assert_earlier_manifest_fails_typed(b"MMAN0002", &payload);
}

/// A store whose only manifest slot is `magic ‖ crc ‖ payload` fails to
/// open with a format error naming the magic, and keeps every byte.
fn assert_earlier_manifest_fails_typed(magic: &[u8; 8], payload: &[u8]) {
    let mut slot = magic.to_vec();
    slot.extend_from_slice(&crc32(payload).to_be_bytes());
    slot.extend_from_slice(payload);
    let mut disk = SimDisk::unfaulted();
    disk.set_durable("manifest.1", slot.clone());
    disk.set_durable("wal.0.0", b"MSEG0001".to_vec());
    let failure = Wal::open(disk).map(|_| ()).unwrap_err();
    let name = std::str::from_utf8(magic).unwrap();
    assert!(
        matches!(failure.error, StoreError::Format(f) if f.contains(name)),
        "got {:?}",
        failure.error
    );
    assert_eq!(failure.store.durable_bytes("manifest.1"), Some(&slot[..]));
    assert_eq!(failure.store.list(), vec!["manifest.1", "wal.0.0"]);
}

#[test]
fn manifest_slot_garbage_fuzz_never_panics() {
    for len in 0..16usize {
        for fill in [0x00u8, 0x01, 0x7f, 0xff] {
            let mut d = SimDisk::unfaulted();
            d.set_durable("manifest.0", vec![fill; len]);
            // Garbage beside nothing: Err or fresh-open both fine.
            let _ = Wal::open(d);
            let mut d = seeded_disk();
            d.set_durable("manifest.0", vec![fill; len]);
            // Garbage in the stale slot beside a valid one: must open.
            let records = Wal::open(d).expect("valid slot wins").1.records;
            assert_eq!(records.len(), RECORDS.len());
        }
    }
}

#[test]
fn wal_telemetry_families_export_in_json_and_prometheus() {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    wal.set_segment_budget(64);
    for i in 0..8u8 {
        wal.append(&[i; 32]).unwrap();
    }
    wal.sync().unwrap();
    wal.scrub().unwrap();
    wal.checkpoint(b"SNAP", None).unwrap();
    wal.append(b"replayed-later").unwrap();
    wal.sync().unwrap();
    let mut disk = wal.into_store();
    disk.crash();
    let _ = Wal::open(disk).unwrap();

    let json = mabe_telemetry::global().snapshot_json();
    let prom = mabe_telemetry::global().prometheus();
    for family in [
        "mabe_wal_appends_total",
        "mabe_wal_bytes_total",
        "mabe_wal_records_replayed_total",
        "mabe_snapshots_written_total",
        "mabe_deltas_written_total",
        "mabe_wal_rotations_total",
        "mabe_wal_bytes_reclaimed_total",
        "mabe_wal_scrub_frames_checked_total",
        "mabe_wal_scrub_passes_total",
        "mabe_wal_segments_live",
    ] {
        assert!(json.contains(family), "{family} missing from JSON export");
        assert!(
            prom.contains(family),
            "{family} missing from Prometheus export"
        );
    }
}

/// A log with a full checkpoint, two delta checkpoints on top of it and
/// one record after them.
fn delta_disk() -> SimDisk {
    let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
    wal.checkpoint(&[7; 256], None).unwrap();
    for delta in [b"DELTA-2", b"DELTA-3"] {
        wal.append(b"journaled").unwrap();
        wal.sync().unwrap();
        let kind = wal
            .checkpoint_delta_or_full(None, |_| Some(delta.to_vec()), || unreachable!())
            .unwrap();
        assert_eq!(kind, mabe_store::CheckpointKind::Delta);
    }
    wal.append(b"post-delta").unwrap();
    wal.sync().unwrap();
    wal.into_store()
}

/// Damage to a live delta never opens: a committed checkpoint is never
/// abandoned for an older one, so flips and cuts fail typed as
/// corruption, and a deleted delta as missing.
#[test]
fn damage_to_a_delta_fails_typed() {
    let (wal, r) = Wal::open(delta_disk()).unwrap();
    assert_eq!(wal.generation(), 3);
    assert_eq!(r.snapshot, Some(vec![7; 256]));
    assert_eq!(r.deltas, vec![b"DELTA-2".to_vec(), b"DELTA-3".to_vec()]);
    assert_eq!(r.records, vec![b"post-delta".to_vec()]);

    for name in ["delta-2", "delta-3"] {
        let bytes = delta_disk().durable_bytes(name).unwrap().to_vec();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let error = Wal::open(damaged(delta_disk, name, flipped)).map(|_| ());
                assert!(
                    matches!(error.map_err(|f| f.error), Err(StoreError::Corrupt(_))),
                    "{name} pos {pos} bit {bit}"
                );
            }
            let cut = bytes[..pos].to_vec();
            let error = Wal::open(damaged(delta_disk, name, cut)).map(|_| ());
            assert!(
                matches!(error.map_err(|f| f.error), Err(StoreError::Corrupt(_))),
                "{name} cut {pos}"
            );
        }
        let mut gone = delta_disk();
        gone.delete(name).unwrap();
        assert!(matches!(
            Wal::open(gone).map(|_| ()).map_err(|f| f.error),
            Err(StoreError::Missing("committed delta"))
        ));
    }
}
