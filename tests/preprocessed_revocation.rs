//! Preprocessed revocation writes the bytes the paper's equations give.
//!
//! A revocation re-encrypts every affected component under one update
//! key, so its worklist preprocesses `UK1`'s Miller lines and a
//! fixed-base table per `PK_x / P̃K_x` ratio once (`UpdateTables`).
//! This test runs one revocation that affects more components than both
//! break-evens, eagerly with 1, 2 and 4 re-encryption workers (prepare
//! spread over threads, apply in worklist order), lazily followed by a
//! drain, and lazily followed by read-triggered upgrades, which take
//! their step's tables from the step-table cache from the step's second
//! upgrade on. It checks every re-encrypted component byte for byte
//! against the unpreprocessed reference computed from its
//! pre-revocation ciphertext: `C · e(UK1, C')` by a full pairing, and
//! `C_i · UI_x` with `UI_x` from a variable-base multiplication.
//!
//! The owner (its `β` and every `s`) and the update key come out of the
//! store itself: the test opens the durable state with `TypedStore`
//! and decodes the `owners`, `owner_secrets` and `lazy_archive` rows.

use std::collections::BTreeMap;

use mabe_cloud::DurableSystem;
use mabe_core::{
    Ciphertext, CiphertextId, DataOwner, EncryptionRecord, OwnerId, UpdateKey, WireCodec,
    FIXED_BASE_BREAK_EVEN, LINES_BREAK_EVEN,
};
use mabe_math::{pairing, G1Affine, G1};
use mabe_policy::AuthorityId;
use mabe_store::{ByteReader, SimDisk, Storage, TypedStore};

const SEED: u64 = 0x0b5e_55ed;

/// Table ids of the cloud's keyspace catalog (`mabe_cloud::tables`).
const OWNERS_TABLE: u16 = 3;
const LAZY_ARCHIVE_TABLE: u16 = 14;
const OWNER_SECRETS_TABLE: u16 = 16;

/// Records per policy. Every record has a row for `Doctor@Med`, so the
/// revocation's worklist holds all of them; `Nurse@Med` labels exactly
/// the fixed-base break-even and `Admin@Med` stays below it.
const DOCTOR_ONLY: usize = 8;
const DOCTOR_OR_NURSE: usize = FIXED_BASE_BREAK_EVEN;
const DOCTOR_OR_ADMIN: usize = 2;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Eager { workers: usize },
    Lazy,
    ReadUpgrade,
}

/// `(record, label)` → the component's key ciphertext.
type Components = BTreeMap<(String, String), Ciphertext>;

fn components(ds: &DurableSystem<SimDisk>, owner: &OwnerId, records: &[String]) -> Components {
    let mut out = BTreeMap::new();
    for record in records {
        let envelope = ds
            .system()
            .server()
            .fetch(owner, record)
            .expect("record stored");
        for component in &envelope.components {
            out.insert(
                (record.clone(), component.label.clone()),
                component.key_ct.clone(),
            );
        }
    }
    out
}

/// `C̃ = C · e(UK1, C')` and `C̃_i = C_i · UI_{ρ(i)}` (Eq. 2), with no
/// preprocessing anywhere: a full pairing, and `UI_x` from
/// `update_info_for` without tables, which multiplies variable-base.
fn reference(ct: &Ciphertext, uk: &UpdateKey, owner: &DataOwner) -> Ciphertext {
    let ui = owner
        .update_info_for(ct.id, &uk.aid, uk.from_version, uk.to_version)
        .expect("owner kept the ciphertext");
    let mut out = ct.clone();
    out.c = ct.c.mul(&pairing(&uk.uk1, &ct.c_prime));
    for i in ct.access.rows_for_authority(&uk.aid) {
        let delta = ui.items[&ct.access.rho()[i]];
        out.c_i[i] = G1Affine::from(G1::from(ct.c_i[i]).add_mixed(&delta));
    }
    out.versions.insert(uk.aid.clone(), uk.to_version);
    out
}

fn run(mode: Mode) {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), SEED).expect("fresh store opens");
    let med: AuthorityId = ds
        .add_authority("Med", &["Doctor", "Nurse", "Admin"])
        .unwrap();
    ds.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let alice = ds.add_user("alice").unwrap();
    let bob = ds.add_user("bob").unwrap();
    ds.grant(&alice, &["Doctor@Med", "Researcher@Trial"])
        .unwrap();
    ds.grant(&bob, &["Doctor@Med", "Researcher@Trial"]).unwrap();

    let policies = [
        (DOCTOR_ONLY, "Doctor@Med AND Researcher@Trial"),
        (
            DOCTOR_OR_NURSE,
            "(Doctor@Med OR Nurse@Med) AND Researcher@Trial",
        ),
        (
            DOCTOR_OR_ADMIN,
            "(Doctor@Med OR Admin@Med) AND Researcher@Trial",
        ),
    ];
    let mut records = Vec::new();
    for (count, policy) in policies {
        for _ in 0..count {
            let record = format!("r{}", records.len());
            let payload = record.as_bytes();
            ds.publish(&owner, &record, &[("body", payload, policy)])
                .unwrap();
            records.push(record);
        }
    }
    let before = components(&ds, &owner, &records);

    match mode {
        Mode::Eager { workers } => ds.system().set_reencrypt_workers(workers),
        Mode::Lazy | Mode::ReadUpgrade => ds.system().set_lazy_revocation(true),
    }
    ds.revoke(&alice, "Doctor@Med").unwrap();
    match mode {
        Mode::Eager { .. } => {}
        Mode::Lazy => {
            assert_eq!(ds.system().lazy_queue_depth(), 1);
            assert_eq!(ds.drain_lazy().unwrap(), 1);
        }
        Mode::ReadUpgrade => {
            for record in &records {
                assert_eq!(
                    ds.read(&bob, &owner, record, "body").unwrap(),
                    record.as_bytes()
                );
            }
            assert_eq!(
                ds.system().cache_stats().step_table_builds,
                1,
                "the upgrades cached one set for their step"
            );
        }
    }
    let after = components(&ds, &owner, &records);

    // The owner and the update key, decoded from a copy of the
    // committed state.
    let (_, opened) = TypedStore::open(durable_copy(&ds.storage())).expect("store reopens");
    let owner_rows = opened.keyspace.range_raw(OWNERS_TABLE, &[]);
    let [(_, owner_bytes)] = owner_rows.as_slice() else {
        panic!("one owner row, found {}", owner_rows.len());
    };
    let mut data_owner = DataOwner::from_wire_bytes(owner_bytes).expect("owner row decodes");
    // Each secret row is keyed `(owner, ciphertext id)`.
    for (key, value) in opened.keyspace.range_raw(OWNER_SECRETS_TABLE, &[]) {
        let mut key = ByteReader::new(&key);
        assert_eq!(key.str_component().unwrap(), owner.as_str());
        let id = CiphertextId(key.u64().unwrap());
        let record = EncryptionRecord::from_wire_bytes(&value).expect("secret row decodes");
        data_owner.adopt_record(id, record.s, record.attributes);
    }
    let archive: Vec<UpdateKey> = opened
        .keyspace
        .range_raw(LAZY_ARCHIVE_TABLE, &[])
        .iter()
        .map(|(_, value)| UpdateKey::from_wire_bytes(value).expect("archive row decodes"))
        .collect();
    let [uk] = archive.as_slice() else {
        panic!("one archived update key, found {}", archive.len());
    };
    assert_eq!((&uk.aid, &uk.owner), (&med, &owner));

    // This worklist passes both break-evens for the real key and owner.
    let ids: Vec<_> = before.values().map(|ct| ct.id).collect();
    assert!(ids.len() >= LINES_BREAK_EVEN);
    let tables = data_owner.update_tables(uk, &ids);
    assert!(tables.has_lines(), "{mode:?}: lines are built");
    assert_eq!(
        tables.ratio_tables(),
        2,
        "{mode:?}: Doctor and Nurse tables"
    );

    assert_eq!(after.len(), records.len());
    for (key, ct) in &before {
        let expect = reference(ct, uk, &data_owner);
        assert_eq!(
            after[key].to_wire_bytes(),
            expect.to_wire_bytes(),
            "{mode:?}: component {key:?} differs from the unpreprocessed reference"
        );
        assert_ne!(after[key].c, ct.c, "{mode:?}: {key:?} was re-encrypted");
    }
    assert_eq!(
        ds.read(&bob, &owner, "r0", "body").unwrap(),
        b"r0",
        "{mode:?}: a remaining holder still reads"
    );
}

/// A fresh disk holding `disk`'s durable bytes.
fn durable_copy(disk: &SimDisk) -> SimDisk {
    let mut out = SimDisk::unfaulted();
    for name in disk.list() {
        let bytes = disk.durable_bytes(&name).expect("listed object").to_vec();
        out.set_durable(&name, bytes);
    }
    out
}

#[test]
fn eager_single_worker_reencrypts_byte_identically() {
    run(Mode::Eager { workers: 1 });
}

#[test]
fn eager_two_workers_reencrypt_byte_identically() {
    run(Mode::Eager { workers: 2 });
}

#[test]
fn eager_four_workers_reencrypt_byte_identically() {
    run(Mode::Eager { workers: 4 });
}

#[test]
fn lazy_drain_reencrypts_byte_identically() {
    run(Mode::Lazy);
}

#[test]
fn read_upgrades_with_cached_step_tables_reencrypt_byte_identically() {
    run(Mode::ReadUpgrade);
}
