//! Pins the on-disk bytes of a seeded `DurableSystem<SimDisk>` script.
//!
//! The script touches every journaled mutator — authorities, owners,
//! users, grants, publishes, an offline user synced across an eager
//! revocation, a user-level revocation at one authority, a lazy
//! revocation plus its drain, an allowed and a denied read — then cuts a
//! checkpoint (a snapshot plus the seal of every audit entry so far),
//! journals one more publish, and lets one automatic checkpoint fire (a
//! delta of that publish and a read on top of the snapshot). At each
//! stage the sha256 of every durable object must equal the constants
//! below, and at the end so must the committed owner row and each of the
//! owner's per-ciphertext secret rows.
//!
//! A refactor of the cloud layer must leave these bytes alone. A change
//! to the on-disk format updates the constants and says why in its
//! change notes; the assertion message prints the new table.

use mabe_cloud::DurableSystem;
use mabe_crypto::sha256::Sha256;
use mabe_store::{ByteReader, SimDisk, Storage, TypedStore};

const SEED: u64 = 0x6a_b7e5;

/// Object name → sha256 (hex) after the script, before the checkpoint.
const BEFORE_CHECKPOINT: &[(&str, &str)] = &[
    (
        "manifest.1",
        "dd911cfa946a4eb323c38f5582541521ccb27351a99a26b1cac1108ae6924789",
    ),
    (
        "wal.0.0",
        "d2aa13366d0df6d7916fa3f52c1131e41127ec35a2bb79550932173a46deed3d",
    ),
];

/// Object name → sha256 (hex) after the checkpoint and the tail publish.
const AFTER_CHECKPOINT: &[(&str, &str)] = &[
    (
        "manifest.0",
        "786aca7908d7e9ea750d706f147b49cd52c95f208792174cd8a26be4d0157228",
    ),
    (
        "manifest.1",
        "dd911cfa946a4eb323c38f5582541521ccb27351a99a26b1cac1108ae6924789",
    ),
    (
        "seal.0",
        "7aab91df8144e4b89dd2ca73221cee08765c48556225bf75fdefa084b651e3d2",
    ),
    (
        "snapshot-1",
        "6d61b5b9ee7e8307cb99a031efd2f85a362d90ec15df1c2518cf37cc2da73de3",
    ),
    (
        "wal.1.0",
        "4476f6fafcc27f5076f28029a0a5e89cf1bda4f5a0158c77dcad3bec1343aa28",
    ),
];

/// Object name → sha256 (hex) after the automatic checkpoint.
const AFTER_DELTA: &[(&str, &str)] = &[
    (
        "delta-2",
        "2d5da8d6fbc09e05f2fa3165f8853efe774b09114ea26affb323a08cf5355005",
    ),
    (
        "manifest.0",
        "786aca7908d7e9ea750d706f147b49cd52c95f208792174cd8a26be4d0157228",
    ),
    (
        "manifest.1",
        "ca1869d845b1ae42a73b6556ab263d6ad88f9f2809d22cbbfce40ebb059f41bf",
    ),
    (
        "seal.0",
        "7aab91df8144e4b89dd2ca73221cee08765c48556225bf75fdefa084b651e3d2",
    ),
    (
        "seal.1",
        "25b41d80172df58095a109780058ed6aaa66fe2c4328dac941095c402841b4e6",
    ),
    (
        "snapshot-1",
        "6d61b5b9ee7e8307cb99a031efd2f85a362d90ec15df1c2518cf37cc2da73de3",
    ),
    (
        "wal.2.0",
        "d81f4f0695b27167fb34050e8e9242c39f2607884650885ee28ef884826f34c5",
    ),
];

/// Row → sha256 (hex) of the committed owner row and secret rows.
const OWNER_ROWS: &[(&str, &str)] = &[
    (
        "owners/hospital",
        "4294fce68720f53fd01847b87767b19a880b217663c9c6c5da3ea68a91c8842a",
    ),
    (
        "owner_secrets/hospital/1",
        "f806fb291527b913dace152cc634e8ec48b0663c847442181d5dd2bd8745e55f",
    ),
    (
        "owner_secrets/hospital/2",
        "7a4b547836d39064bc8fb908c44c338ecaf3f6ce595273defeb07ef5ba593f7a",
    ),
    (
        "owner_secrets/hospital/3",
        "ef7fcfa59e2228b1d25bc5d607b2e21ec776c8bfe6e5352fe1ea2f5906024746",
    ),
    (
        "owner_secrets/hospital/4",
        "a733590ffe2d7a5ef4b2f964288b25118d6834658ea90b4c847f1875d5cc7223",
    ),
];

/// Table ids of the cloud's keyspace catalog (`mabe_cloud::tables`).
const OWNERS_TABLE: u16 = 3;
const OWNER_SECRETS_TABLE: u16 = 16;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every object's durable bytes, hashed, in name order.
fn object_hashes(ds: &DurableSystem<SimDisk>) -> Vec<(String, String)> {
    let disk = ds.storage();
    let mut names = disk.list();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = disk.durable_bytes(&name).unwrap_or_default();
            let digest = hex(&Sha256::digest(bytes));
            (name, digest)
        })
        .collect()
}

/// The committed owner and secret rows, hashed, in key order: opened
/// from a copy of the durable bytes.
fn owner_row_hashes(ds: &DurableSystem<SimDisk>) -> Vec<(String, String)> {
    let disk = ds.storage();
    let mut copy = SimDisk::unfaulted();
    for name in disk.list() {
        copy.set_durable(
            &name,
            disk.durable_bytes(&name).unwrap_or_default().to_vec(),
        );
    }
    drop(disk);
    let (_, opened) = TypedStore::open(copy).expect("the store reopens");
    let mut rows = Vec::new();
    for (table, name) in [
        (OWNERS_TABLE, "owners"),
        (OWNER_SECRETS_TABLE, "owner_secrets"),
    ] {
        for (key, value) in opened.keyspace.range_raw(table, &[]) {
            let mut key = ByteReader::new(&key);
            let mut row = format!("{name}/{}", key.str_component().unwrap());
            if table == OWNER_SECRETS_TABLE {
                row += &format!("/{}", key.u64().unwrap());
            }
            rows.push((row, hex(&Sha256::digest(&value))));
        }
    }
    rows
}

fn assert_pinned(stage: &str, got: &[(String, String)], want: &[(&str, &str)]) {
    let got_ref: Vec<(&str, &str)> = got.iter().map(|(n, h)| (n.as_str(), h.as_str())).collect();
    let table: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", \"{h}\"),\n"))
        .collect();
    assert_eq!(
        got_ref, want,
        "{stage}: durable object bytes changed; the table now reads:\n{table}"
    );
}

#[test]
fn seeded_script_keeps_every_durable_object_byte_identical() {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), SEED).expect("fresh store opens");
    ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    let trial = ds.add_authority("Trial", &["Researcher"]).unwrap();
    let hospital = ds.add_owner("hospital").unwrap();
    let alice = ds.add_user("alice").unwrap();
    let bob = ds.add_user("bob").unwrap();
    let carol = ds.add_user("carol").unwrap();
    ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    ds.grant(&bob, &["Doctor@MedOrg", "Nurse@MedOrg"]).unwrap();
    ds.grant(&carol, &["Researcher@Trial"]).unwrap();
    ds.publish(
        &hospital,
        "chart",
        &[
            ("diagnosis", b"doctors only".as_slice(), "Doctor@MedOrg"),
            (
                "notes",
                b"ward or study".as_slice(),
                "Nurse@MedOrg OR Researcher@Trial",
            ),
        ],
    )
    .unwrap();
    ds.publish(
        &hospital,
        "study",
        &[("data", b"trial data".as_slice(), "Researcher@Trial")],
    )
    .unwrap();

    // An offline holder rides out an eager revocation, then syncs.
    ds.set_offline(&bob).unwrap();
    ds.revoke(&alice, "Doctor@MedOrg").unwrap();
    ds.sync_user(&bob).unwrap();

    // A user-level revocation at one authority.
    ds.revoke_user_at(&carol, &trial).unwrap();

    // A lazy revocation, then its drain.
    ds.system().set_lazy_revocation(true);
    ds.revoke(&bob, "Nurse@MedOrg").unwrap();
    assert_eq!(ds.system().lazy_queue_depth(), 1);
    assert_eq!(ds.drain_lazy().unwrap(), 1);
    ds.system().set_lazy_revocation(false);

    // One allowed and one denied read.
    assert_eq!(
        ds.read(&bob, &hospital, "chart", "diagnosis").unwrap(),
        b"doctors only"
    );
    assert!(ds.read(&alice, &hospital, "chart", "diagnosis").is_err());

    assert_pinned("before checkpoint", &object_hashes(&ds), BEFORE_CHECKPOINT);

    ds.checkpoint().unwrap();
    ds.publish(
        &hospital,
        "tail",
        &[("memo", b"after the checkpoint".as_slice(), "Doctor@MedOrg")],
    )
    .unwrap();

    assert_pinned("after checkpoint", &object_hashes(&ds), AFTER_CHECKPOINT);

    // The next journaled op cuts an automatic checkpoint: a delta.
    ds.set_checkpoint_interval(1);
    assert_eq!(
        ds.read(&bob, &hospital, "tail", "memo").unwrap(),
        b"after the checkpoint"
    );
    assert_eq!(ds.generation(), 2);
    assert_pinned("after delta", &object_hashes(&ds), AFTER_DELTA);
    assert_pinned("owner rows", &owner_row_hashes(&ds), OWNER_ROWS);
    assert!(ds.audit().verify());
}
