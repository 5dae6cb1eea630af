//! Audit seals: checkpoints cost the live state, not the history.
//!
//! Every audited read appends one hash-chained entry. A checkpoint seals
//! the entries recorded since the previous one into an append-only
//! `seal.<n>` object and keeps only the audit counters, the sealed-entry
//! count and the chain head in the state it writes, a full snapshot or
//! a delta. These tests drive one `DurableSystem<SimDisk>` through
//! nothing but denied reads — the cheapest audited op — and check that
//! neither kind of state grows however long the trail grows, that each
//! seal holds exactly the entries since the checkpoint before it, and
//! that a rotted seal is repaired by a scrub without changing the
//! replayed chain.

use mabe_cloud::{DurableSystem, OpenError};
use mabe_core::{OwnerId, Uid};
use mabe_store::{crc32, SimDisk, Storage, StoreError};

/// One user holding nothing the one record's policy needs, so every
/// read of it is denied, and audited.
fn denied_reader_world(seed: u64) -> (DurableSystem<SimDisk>, Uid, OwnerId) {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), seed).expect("fresh store opens");
    ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let nurse = ds.add_user("nurse").unwrap();
    ds.grant(&nurse, &["Nurse@MedOrg"]).unwrap();
    ds.publish(
        &owner,
        "chart",
        &[("diagnosis", b"doctors only".as_slice(), "Doctor@MedOrg")],
    )
    .unwrap();
    (ds, nurse, owner)
}

/// One automatic checkpoint, as seen right after the read that cut it:
/// the state object it wrote (`snapshot-<g>` or `delta-<g>`) and its
/// length, and the audit trail's length.
struct Cut {
    object: &'static str,
    state_len: usize,
    audit_len: usize,
}

/// Runs `n` denied reads, recording every checkpoint they trigger.
fn denied_reads(
    ds: &DurableSystem<SimDisk>,
    nurse: &Uid,
    owner: &OwnerId,
    n: usize,
    cuts: &mut Vec<Cut>,
) {
    for _ in 0..n {
        let generation = ds.generation();
        assert!(ds.read(nurse, owner, "chart", "diagnosis").is_err());
        let cut = ds.generation();
        if cut != generation {
            let disk = ds.storage();
            let (object, bytes) = ["snapshot", "delta"]
                .into_iter()
                .find_map(|object| {
                    let name = format!("{object}-{cut}");
                    disk.durable_bytes(&name).map(|bytes| (object, bytes))
                })
                .expect("committed");
            cuts.push(Cut {
                object,
                state_len: bytes.len(),
                audit_len: ds.audit().entries().len(),
            });
        }
    }
}

/// The entries of seal `name`: `MSEL0001 ‖ u32 crc32(payload) ‖
/// payload`, the payload a `u32` count of length-prefixed entries. Each
/// entry starts with its `u64` index and ends with its 32-byte digest.
fn seal_entries(disk: &SimDisk, name: &str) -> Vec<(u64, [u8; 32])> {
    let bytes = disk.durable_bytes(name).expect("seal present");
    assert_eq!(&bytes[..8], b"MSEL0001");
    let payload = &bytes[12..];
    assert_eq!(crc32(payload).to_be_bytes(), bytes[8..12]);
    let u32_at = |at: usize| u32::from_be_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4;
    let entries = (0..u32_at(0))
        .map(|_| {
            let len = u32_at(at);
            let entry = &payload[at + 4..at + 4 + len];
            at += 4 + len;
            (
                u64::from_be_bytes(entry[..8].try_into().unwrap()),
                entry[len - 32..].try_into().unwrap(),
            )
        })
        .collect();
    assert_eq!(at, payload.len(), "{name}: trailing bytes");
    entries
}

#[test]
fn a_checkpoint_costs_the_live_state_not_the_audit_history() {
    let (ds, nurse, owner) = denied_reader_world(0x5ea1);
    let mut cuts = Vec::new();
    denied_reads(&ds, &nurse, &owner, 200, &mut cuts);
    let early = cuts.len();
    denied_reads(&ds, &nurse, &owner, 2_000, &mut cuts);
    assert!(
        early >= 2 && cuts.len() >= early + 20,
        "{} checkpoints",
        cuts.len()
    );

    // The trail grew by 2,000 entries; neither the snapshots nor the
    // deltas grew at all, and both kinds were cut.
    for object in ["snapshot", "delta"] {
        let lens: Vec<usize> = cuts
            .iter()
            .filter(|cut| cut.object == object)
            .map(|cut| cut.state_len)
            .collect();
        assert!(lens.len() >= 2, "{} {object} checkpoints", lens.len());
        assert!(
            lens.iter().all(|len| *len == lens[0]),
            "{object}s: {lens:?}"
        );
    }
    let [.., before_last, last] = &cuts[..] else {
        unreachable!("checked above");
    };

    // The newest seal holds exactly the entries since the checkpoint
    // before it, byte-identical to the live chain's digests.
    let newest = format!("seal.{}", ds.generation() - 1);
    let sealed = seal_entries(&ds.storage(), &newest);
    let live = ds.audit();
    let want: Vec<(u64, [u8; 32])> = live.entries()[before_last.audit_len..last.audit_len]
        .iter()
        .map(|e| (e.index, e.digest))
        .collect();
    assert!(!want.is_empty());
    assert_eq!(sealed, want);
}

/// A fresh disk holding `disk`'s durable bytes.
fn copy_disk(disk: &SimDisk) -> SimDisk {
    let mut copy = SimDisk::unfaulted();
    for name in disk.list() {
        copy.set_durable(&name, disk.durable_bytes(&name).unwrap().to_vec());
    }
    copy
}

#[test]
fn scrub_rewrites_a_rotted_seal_and_the_reopened_chain_is_unchanged() {
    let (mut ds, nurse, owner) = denied_reader_world(0x5ea2);
    let mut cuts = Vec::new();
    denied_reads(&ds, &nurse, &owner, 200, &mut cuts);
    assert!(ds.generation() >= 3, "at least three seals");
    let before = ds.audit().clone();

    let good = ds.storage().durable_bytes("seal.1").unwrap().to_vec();
    let mut rotted = good.clone();
    rotted[good.len() / 2] ^= 0x10;
    ds.storage_mut().set_durable("seal.1", rotted);

    // Unrepaired, the store refuses to open: never a shorter chain.
    let failure = DurableSystem::open(copy_disk(&ds.storage()), 1).unwrap_err();
    assert!(
        matches!(
            failure.error,
            OpenError::Store(StoreError::Corrupt("seal checksum"))
        ),
        "got {}",
        failure.error
    );

    // The scrub quarantines the rot and rewrites the seal from memory,
    // byte for byte; no checkpoint is cut, since none could heal it.
    let generation = ds.generation();
    let report = ds.scrub().unwrap();
    assert_eq!(report.corrupt, vec!["seal.1".to_string()]);
    assert_eq!(ds.generation(), generation);
    assert_eq!(ds.storage().durable_bytes("seal.1").unwrap(), &good[..]);
    assert!(ds.storage().list().iter().any(|n| n == "quarantine.seal.1"));
    assert!(ds.scrub().unwrap().clean());
    assert!(!ds.poisoned());

    let mut disk = ds.into_storage();
    disk.crash();
    let (reopened, report) = DurableSystem::open(disk, 2).expect("the repaired store opens");
    assert_eq!(report.wal.seals as u64, generation);
    assert!(reopened.audit().verify());
    assert_eq!(*reopened.audit(), before);
}
