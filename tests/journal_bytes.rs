//! Pins the on-disk bytes of a seeded `DurableSystem<SimDisk>` script.
//!
//! The script touches every journaled mutator — authorities, owners,
//! users, grants, publishes, an offline user synced across an eager
//! revocation, a user-level revocation at one authority, a lazy
//! revocation plus its drain, an allowed and a denied read — then cuts a
//! checkpoint (a snapshot plus the seal of every audit entry so far) and
//! journals one more publish. Before and after the checkpoint, the
//! sha256 of every durable object must equal the constants below.
//!
//! A refactor of the cloud layer must leave these bytes alone. A change
//! to the on-disk format updates the constants and says why in its
//! change notes; the assertion message prints the new table.

use mabe_cloud::DurableSystem;
use mabe_crypto::sha256::Sha256;
use mabe_store::{SimDisk, Storage};

const SEED: u64 = 0x6a_b7e5;

/// Object name → sha256 (hex) after the script, before the checkpoint.
const BEFORE_CHECKPOINT: &[(&str, &str)] = &[
    (
        "manifest.1",
        "a1af1b323f0e8b03b19a6bbca71da0b361b4f36894f470c66c0197b138b1805c",
    ),
    (
        "wal.0.0",
        "b494b8cdda8d8f7ac80af87c9af047adf3b63c7a2ee53e3c7d5afd46c5a71a8e",
    ),
];

/// Object name → sha256 (hex) after the checkpoint and the tail publish.
const AFTER_CHECKPOINT: &[(&str, &str)] = &[
    (
        "manifest.0",
        "a258f25c7eca1ce6b7d0b317e2c35a8b5119c2e50bef488f415f74b1821b8dfc",
    ),
    (
        "manifest.1",
        "a1af1b323f0e8b03b19a6bbca71da0b361b4f36894f470c66c0197b138b1805c",
    ),
    (
        "seal.0",
        "7aab91df8144e4b89dd2ca73221cee08765c48556225bf75fdefa084b651e3d2",
    ),
    (
        "snapshot-1",
        "f0217b6ceeddd521056a3de5f654ded53a9d9b73c7f439566255b31376fb96ee",
    ),
    (
        "wal.1.0",
        "08af40418b6b68b5b008a7f9206ef32dd4448d93622bfbda33e939dfb9fae918",
    ),
];

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
    assert!(ds.audit().verify());
}
