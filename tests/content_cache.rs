//! The content-key cache against the cold path it short-cuts. A read
//! that hits the cache is one AEAD open under the component's kept
//! content key, taken before the reader's keys are looked at. So each
//! hit must return what a cold `open_component` with the reader's
//! current keys returns, cost no group operation, die with the reader's
//! revocation, and never hand out wrong bytes while revocations race
//! the reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use mabe::cloud::CloudSystem;
use mabe::core::{open_component, Error, OwnerId, Uid};
use mabe::policy::AuthorityId;
use mabe_telemetry::measure;

/// `(record, label, policy, payload)` of every published component.
const COMPONENTS: [(&str, &str, &str, &[u8]); 4] = [
    ("chart", "dx", "Doctor@MedOrg", b"doctors only"),
    (
        "chart",
        "notes",
        "Doctor@MedOrg OR Nurse@MedOrg",
        b"ward notes",
    ),
    (
        "study",
        "data",
        "Researcher@Trial AND (Doctor@MedOrg OR Nurse@MedOrg)",
        b"trial data",
    ),
    ("study", "summary", "Researcher@Trial", b"trial summary"),
];

/// The seeded two-authority world: a hospital's two records, and
/// readers holding different mixes of MedOrg's and Trial's attributes.
struct World {
    sys: CloudSystem,
    owner: OwnerId,
    /// alice (Doctor, Researcher), bob (Nurse, Researcher) and carol
    /// (Doctor, Nurse).
    readers: [Uid; 3],
    med: AuthorityId,
}

fn world(seed: u64) -> World {
    let sys = CloudSystem::new(seed);
    let med = sys.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    sys.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = sys.add_owner("hospital").unwrap();
    let readers = ["alice", "bob", "carol"].map(|name| sys.add_user(name).unwrap());
    let [alice, bob, carol] = &readers;
    sys.grant(alice, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    sys.grant(bob, &["Nurse@MedOrg", "Researcher@Trial"])
        .unwrap();
    sys.grant(carol, &["Doctor@MedOrg", "Nurse@MedOrg"])
        .unwrap();
    for record in ["chart", "study"] {
        let components: Vec<(&str, &[u8], &str)> = COMPONENTS
            .iter()
            .filter(|(r, ..)| *r == record)
            .map(|&(_, label, policy, payload)| (label, payload, policy))
            .collect();
        sys.publish(&owner, record, &components).unwrap();
    }
    World {
        sys,
        owner,
        readers,
        med,
    }
}

impl World {
    /// What a cold `open_component` of the stored component returns with
    /// `uid`'s current keys.
    fn cold_open(&self, uid: &Uid, record: &str, label: &str) -> Result<Vec<u8>, Error> {
        let envelope = self.sys.server().fetch(&self.owner, record).unwrap();
        let (pk, keys) = self.sys.user_keys(uid, &self.owner).unwrap();
        open_component(envelope.component(label).unwrap(), &pk, &keys)
    }

    /// Reads every component as every reader twice, and checks that
    /// each second read of a readable component is a hit that returns
    /// the cold open's bytes with no group operation. The cold open
    /// follows the first read, which upgrades a component a lazy
    /// revocation left behind. Returns how many components were
    /// readable.
    fn check_every_hit(&self, step: &str) -> usize {
        let mut readable = 0;
        for uid in &self.readers {
            for (record, label, _, payload) in COMPONENTS {
                let first = self.sys.read(uid, &self.owner, record, label);
                let cold = self.cold_open(uid, record, label);
                let before = self.sys.cache_stats();
                let (second, ops) = measure(|| self.sys.read(uid, &self.owner, record, label));
                let after = self.sys.cache_stats();
                let at = format!("{step}: {uid} reading {record}/{label}");
                match cold {
                    Ok(bytes) => {
                        readable += 1;
                        assert_eq!(bytes, payload, "{at}");
                        assert_eq!(first.unwrap(), bytes, "{at}: the miss");
                        assert_eq!(second.unwrap(), bytes, "{at}: the hit");
                        assert_eq!(after.content_hits, before.content_hits + 1, "{at}");
                        assert_eq!(after.content_misses, before.content_misses, "{at}");
                        assert_eq!(
                            (ops.pairings, ops.g1_muls, ops.gt_pows),
                            (0, 0, 0),
                            "{at}: a hit costs no group operation"
                        );
                    }
                    Err(_) => {
                        assert!(first.is_err(), "{at}: denied cold, served warm");
                        assert!(second.is_err(), "{at}: denied cold, served warm");
                    }
                }
            }
        }
        readable
    }
}

#[test]
fn every_hit_returns_what_a_cold_open_returns_and_costs_no_group_operation() {
    let w = world(0xc0de);
    // alice reads all 4, bob all but dx, carol dx and notes.
    assert_eq!(w.check_every_hit("published"), 4 + 3 + 2);

    // A revocation re-encrypts the MedOrg components: the hits that
    // follow are under the re-encrypted ciphertexts and the keys the
    // readers hold now.
    let [alice, ..] = &w.readers;
    w.sys.revoke(alice, "Doctor@MedOrg").unwrap();
    assert_eq!(w.sys.authority_version(&w.med), Some(2));
    assert_eq!(w.check_every_hit("after an eager revocation"), 1 + 3 + 2);

    w.sys.set_lazy_revocation(true);
    let [_, bob, _] = &w.readers;
    w.sys.revoke(bob, "Nurse@MedOrg").unwrap();
    assert_eq!(w.check_every_hit("after a lazy revocation"), 1 + 1 + 2);
}

#[test]
fn a_reader_whose_entry_was_warm_is_denied_right_after_its_revocation() {
    for lazy in [false, true] {
        let w = world(0xdead + u64::from(lazy));
        w.sys.set_lazy_revocation(lazy);
        let [alice, bob, carol] = &w.readers;
        for uid in [alice, carol] {
            for _ in 0..2 {
                w.sys.read(uid, &w.owner, "chart", "dx").unwrap();
            }
        }
        assert_eq!(w.sys.cache_stats().content_hits, 2, "lazy {lazy}: warm");

        w.sys.revoke(alice, "Doctor@MedOrg").unwrap();
        let denied = w.sys.read(alice, &w.owner, "chart", "dx");
        assert!(denied.is_err(), "lazy {lazy}: served {denied:?}");
        assert_eq!(
            w.sys.read(carol, &w.owner, "chart", "dx").unwrap(),
            b"doctors only",
            "lazy {lazy}: a live holder still reads"
        );

        // The same for a warm entry under the other authority alone.
        for _ in 0..2 {
            w.sys.read(bob, &w.owner, "study", "summary").unwrap();
        }
        w.sys.revoke(bob, "Researcher@Trial").unwrap();
        let denied = w.sys.read(bob, &w.owner, "study", "summary");
        assert!(denied.is_err(), "lazy {lazy}: served {denied:?}");
    }
}

#[test]
fn a_snapshot_fetched_before_an_eager_reencryption_keeps_its_old_parts() {
    let w = world(0x5a9);
    let server = w.sys.server();
    let held = server.fetch(&w.owner, "chart").unwrap();
    let again = server.fetch(&w.owner, "chart").unwrap();
    assert!(Arc::ptr_eq(&held, &again), "fetches share one envelope");
    let before: Vec<_> = held.components.iter().map(|c| c.key_ct.clone()).collect();

    let [alice, _, carol] = &w.readers;
    w.sys.revoke(alice, "Doctor@MedOrg").unwrap();
    let served = server.fetch(&w.owner, "chart").unwrap();
    assert!(!Arc::ptr_eq(&held, &served), "a new envelope was written");
    for ((old, kept), new) in before.iter().zip(&held.components).zip(&served.components) {
        let label = &kept.label;
        assert_eq!(&kept.key_ct, old, "{label}: the snapshot changed");
        assert_eq!(old.versions[&w.med], 1, "{label}");
        assert_eq!(new.key_ct.versions[&w.med], 2, "{label}");
        assert_ne!(new.key_ct.c, old.c, "{label}: C was not re-encrypted");
        assert_ne!(new.key_ct.c_i, old.c_i, "{label}: no C_i re-encrypted");
        assert_eq!(new.key_ct.c_prime, old.c_prime, "{label}: C' moved");
        assert_eq!(new.sealed, kept.sealed, "{label}: the payload moved");
    }

    // A live holder's current keys open what the server serves, not the
    // stale snapshot.
    let (pk, keys) = w.sys.user_keys(carol, &w.owner).unwrap();
    let fresh = served.component("dx").unwrap();
    assert_eq!(open_component(fresh, &pk, &keys).unwrap(), b"doctors only");
    let stale = held.component("dx").unwrap();
    assert!(matches!(
        open_component(stale, &pk, &keys),
        Err(Error::VersionMismatch { .. })
    ));
}

#[test]
fn reads_racing_revocations_never_return_wrong_bytes() {
    const REVOCATIONS: usize = 3;
    for lazy in [false, true] {
        let w = &world(0x7ace + u64::from(lazy));
        w.sys.set_lazy_revocation(lazy);
        // Each revocation at MedOrg takes one of these Doctors off.
        let cohort: Vec<Uid> = (0..REVOCATIONS)
            .map(|i| {
                let uid = w.sys.add_user(&format!("doctor-{i}")).unwrap();
                w.sys.grant(&uid, &["Doctor@MedOrg"]).unwrap();
                uid
            })
            .collect();
        let [_, _, carol] = &w.readers;
        let done = AtomicBool::new(false);
        let served = AtomicU64::new(0);
        let start = Barrier::new(1 + cohort.len() + 1);
        std::thread::scope(|scope| {
            // The live holder warms and re-reads both MedOrg components.
            scope.spawn(|| {
                start.wait();
                let mut rounds = 0;
                while !done.load(Ordering::Acquire) || rounds < 2 {
                    for (record, label, _, payload) in &COMPONENTS[..2] {
                        let bytes = w.sys.read(carol, &w.owner, record, label);
                        assert_eq!(bytes.unwrap(), *payload, "lazy {lazy}: {record}/{label}");
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    rounds += 1;
                }
            });
            // Each doctor about to be revoked reads too: a success must
            // carry the right bytes.
            for uid in &cohort {
                let (done, start, served) = (&done, &start, &served);
                scope.spawn(move || {
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        if let Ok(bytes) = w.sys.read(uid, &w.owner, "chart", "dx") {
                            assert_eq!(bytes, b"doctors only", "lazy {lazy}: {uid}");
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            start.wait();
            let outcomes: Vec<_> = cohort
                .iter()
                .map(|uid| {
                    let revoked = w.sys.revoke(uid, "Doctor@MedOrg");
                    (revoked, w.sys.read(uid, &w.owner, "chart", "dx"))
                })
                .collect();
            // Released before any check, so a failed check cannot leave
            // the readers spinning.
            done.store(true, Ordering::Release);
            for (uid, (revoked, read)) in cohort.iter().zip(outcomes) {
                revoked.unwrap();
                assert!(
                    read.is_err(),
                    "lazy {lazy}: {uid} read after its revocation"
                );
            }
        });
        assert!(served.load(Ordering::Relaxed) > 0, "lazy {lazy}");
        assert_eq!(
            w.sys.authority_version(&w.med),
            Some(1 + REVOCATIONS as u64)
        );
        assert!(w.sys.audit().verify());
    }
}
