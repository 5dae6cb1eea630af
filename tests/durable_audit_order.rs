//! Durable audit order across revocation.
//!
//! Reader threads loop `DurableSystem::read` over records whose policy
//! is one attribute while the main thread revokes four holders of it,
//! two eagerly and two lazily, then drains the lazy queue. Once a
//! user's `Revoked` entry is in the audit chain, no later entry may
//! record an allowed read by that user, and the chain must verify.
//!
//! The order holds because a durable read decides and audits under the
//! op lock, which a revocation's begin also takes: a read lands wholly
//! before the `Revoked` entry or wholly after the re-key. Optimistic
//! durable reads must keep it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mabe_cloud::{AuditEvent, DurableSystem};
use mabe_core::Uid;
use mabe_store::SimDisk;

const SEEDS: [u64; 4] = [0xa0d1, 0xa0d2, 0xa0d3, 0xa0d4];
const ATTRIBUTE: &str = "A@Org";
const RECORDS: usize = 4;
const VICTIMS: usize = 4;

fn record(i: usize) -> String {
    format!("rec-{i}")
}

fn payload(i: usize) -> Vec<u8> {
    format!("secret-{i}").into_bytes()
}

/// Runs the readers against the four revocations at `seed` and checks
/// the audit chain they leave.
fn no_allowed_read_follows_a_revocation(seed: u64) {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), seed).expect("fresh store opens");
    ds.add_authority("Org", &["A"]).unwrap();
    let owner = ds.add_owner("owner").unwrap();
    let holders: Vec<Uid> = (0..=VICTIMS)
        .map(|i| {
            let uid = ds.add_user(&format!("holder-{i}")).unwrap();
            ds.grant(&uid, &[ATTRIBUTE]).unwrap();
            uid
        })
        .collect();
    for i in 0..RECORDS {
        ds.publish(&owner, &record(i), &[("f", &payload(i)[..], ATTRIBUTE)])
            .unwrap();
    }

    let stop = AtomicBool::new(false);
    let wrong = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for uid in &holders {
            let (ds, owner, stop, wrong) = (&ds, &owner, &stop, &wrong);
            scope.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::SeqCst) {
                    let r = i % RECORDS;
                    if ds
                        .read(uid, owner, &record(r), "f")
                        .is_ok_and(|data| data != payload(r))
                    {
                        wrong.fetch_add(1, Ordering::SeqCst);
                    }
                    i += 1;
                }
            });
        }
        for (k, victim) in holders[..VICTIMS].iter().enumerate() {
            ds.system().set_lazy_revocation(k >= VICTIMS / 2);
            ds.revoke(victim, ATTRIBUTE).unwrap();
            assert!(
                ds.read(victim, &owner, &record(k % RECORDS), "f").is_err(),
                "seed {seed:#x}: {victim} read right after its revocation"
            );
        }
        assert_eq!(ds.drain_lazy().unwrap(), VICTIMS / 2);
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        wrong.load(Ordering::SeqCst),
        0,
        "seed {seed:#x}: wrong plaintext"
    );

    let audit = ds.audit();
    assert!(audit.verify(), "seed {seed:#x}: the audit chain breaks");
    let mut revoked = BTreeSet::new();
    let mut denied = 0;
    for entry in audit.entries() {
        match &entry.event {
            AuditEvent::Revoked {
                uid, attributes, ..
            } if attributes.iter().any(|a| a == ATTRIBUTE) => {
                revoked.insert(uid.clone());
            }
            AuditEvent::Read { uid, allowed, .. } if revoked.contains(uid) => {
                assert!(
                    !allowed,
                    "seed {seed:#x}: entry {} allows a read by {uid} after its revocation",
                    entry.index
                );
                denied += 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        revoked.len(),
        VICTIMS,
        "seed {seed:#x}: revocations audited"
    );
    assert!(
        denied >= VICTIMS,
        "seed {seed:#x}: {denied} denied reads by revoked users"
    );
}

#[test]
fn no_durable_read_is_allowed_after_its_users_revocation_entry() {
    for seed in SEEDS {
        no_allowed_read_follows_a_revocation(seed);
    }
}
