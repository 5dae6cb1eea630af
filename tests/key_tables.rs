//! A reader's key-side tables in the cloud system. A cold read pairs
//! `K*`, the reader's key-side sum under the record's policy, from Miller
//! lines the reader keeps per owner and policy: the first cold read under
//! a policy builds them, every later one evaluates them while `K*` stays
//! put, and a key update that moves `K*` gets them replaced at the next
//! read, never evaluated. Every read returns the published bytes or is
//! denied, and costs the serving decrypt's 2 pairings and 2 MSMs.

use mabe::cloud::CloudSystem;
use mabe::core::{OwnerId, Uid};
use mabe_telemetry::measure;

const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";
const OTHER_POLICY: &str = "Doctor@MedOrg OR Researcher@Trial";

/// Two authorities, one owner, and readers granted Doctor@MedOrg and
/// Researcher@Trial.
fn world(seed: u64, readers: &[&str]) -> (CloudSystem, OwnerId, Vec<Uid>) {
    let sys = CloudSystem::new(seed);
    sys.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    sys.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = sys.add_owner("hospital").unwrap();
    let uids = readers
        .iter()
        .map(|name| {
            let uid = sys.add_user(name).unwrap();
            sys.grant(&uid, &["Doctor@MedOrg", "Researcher@Trial"])
                .unwrap();
            uid
        })
        .collect();
    (sys, owner, uids)
}

fn publish(sys: &CloudSystem, owner: &OwnerId, record: &str, policy: &str) {
    sys.publish(owner, record, &[("x", record.as_bytes(), policy)])
        .unwrap();
}

/// Reads `record` as `uid`: the published bytes, in 2 pairings and 2
/// MSMs when it misses the content-key cache.
fn read(sys: &CloudSystem, owner: &OwnerId, uid: &Uid, record: &str) {
    let misses = sys.cache_stats().content_misses;
    let (bytes, ops) = measure(|| sys.read(uid, owner, record, "x").unwrap());
    assert_eq!(bytes, record.as_bytes());
    if sys.cache_stats().content_misses > misses {
        assert_eq!((ops.pairings, ops.msms), (2, 2), "cold read of {record}");
    }
}

fn builds(sys: &CloudSystem) -> u64 {
    sys.cache_stats().key_table_builds
}

#[test]
fn reads_under_one_policy_build_one_table_per_reader_and_policy() {
    let (sys, owner, uids) = world(0x7ab1e, &["alice", "bob"]);
    let [alice, bob] = [&uids[0], &uids[1]];
    let records: Vec<String> = (0..6).map(|n| format!("r{n}")).collect();
    for record in &records {
        publish(&sys, &owner, record, POLICY);
    }
    for record in &records {
        read(&sys, &owner, alice, record);
    }
    assert_eq!(builds(&sys), 1, "six cold reads under one policy");
    assert_eq!(sys.cache_stats().content_misses, 6);

    // Content-key hits never reach the decrypt.
    for record in &records {
        read(&sys, &owner, alice, record);
    }
    assert_eq!(builds(&sys), 1);

    // Tables are per reader and per policy.
    for record in &records[..3] {
        read(&sys, &owner, bob, record);
    }
    assert_eq!(builds(&sys), 2, "bob's K* is his own");
    for record in ["o0", "o1"] {
        publish(&sys, &owner, record, OTHER_POLICY);
        read(&sys, &owner, alice, record);
    }
    assert_eq!(builds(&sys), 3, "one more for alice's other policy");

    // A republished record keeps its policy, and so the table.
    sys.publish(&owner, "r0", &[("x", b"r0".as_slice(), POLICY)])
        .unwrap();
    read(&sys, &owner, alice, "r0");
    assert_eq!(builds(&sys), 3);
}

#[test]
fn a_revocation_at_an_involved_authority_rebuilds_and_denies_the_revoked_reader() {
    let (sys, owner, uids) = world(0x7ab1f, &["alice", "bob", "carol"]);
    let [alice, bob, carol] = [&uids[0], &uids[1], &uids[2]];
    for record in ["r0", "r1", "r2", "r3"] {
        publish(&sys, &owner, record, POLICY);
    }
    for uid in [alice, carol] {
        read(&sys, &owner, uid, "r0");
    }
    assert_eq!(builds(&sys), 2);

    // Revoking carol's Doctor@MedOrg re-keys MedOrg: alice's key update
    // moves her K*, so her next cold read replaces her table.
    sys.revoke(carol, "Doctor@MedOrg").unwrap();
    read(&sys, &owner, alice, "r1");
    assert_eq!(builds(&sys), 3, "alice's pre-revocation table is replaced");
    read(&sys, &owner, alice, "r2");
    read(&sys, &owner, alice, "r0");
    assert_eq!(builds(&sys), 3, "the replacement serves the new version");

    // The revoked reader is denied, her old table notwithstanding, and
    // a denial builds nothing.
    for record in ["r0", "r3"] {
        assert!(sys.read(carol, &owner, record, "x").is_err());
    }
    assert_eq!(builds(&sys), 3);

    // Bob never read before the revocation: his first cold read builds
    // at the new version.
    read(&sys, &owner, bob, "r3");
    assert_eq!(builds(&sys), 4);
}
