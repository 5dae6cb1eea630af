//! Chaos suite: randomized, seeded fault schedules over the full
//! protocol lifecycle.
//!
//! Each scenario builds a two-authority world, then runs grants, reads,
//! publishes, outages, and revocations with a seeded [`FaultPlan`]
//! injecting drops, delays, corruption, duplicates, storage errors, and
//! mid-revocation crashes. After the schedule the injector is disarmed
//! and the system is driven to convergence ([`CloudSystem::recover`] +
//! [`CloudSystem::sync_user`] for everyone). The security and
//! consistency invariants must then hold regardless of what the faults
//! did:
//!
//! 1. no revocation is left pending and the audit journal is closed;
//! 2. a revoked attribute/user never decrypts post-convergence;
//! 3. non-revoked holders (including users offline through the
//!    revocation) still read everything their attributes allow;
//! 4. wire byte accounting stays exact (`sent == delivered + lost`);
//! 5. every stored envelope round-trips through its wire bytes, and
//!    corrupted bytes are rejected without panicking.
//!
//! Every seed runs twice: once eager and once with lazy revocation,
//! where the schedule additionally crashes the deferred-queue paths
//! (`cloud.lazy_enqueue`, `cloud.lazy_drain`, `cloud.read_upgrade`) and
//! convergence must also drain the pending-upgrade queue.
//!
//! Seeds are fixed so failures reproduce; set `RANDOM_SEED=<u64>` to run
//! one extra exploratory schedule (CI logs the seed on failure).

use mabe_cloud::{fault_points, CloudError, CloudSystem};
use mabe_core::{DataEnvelope, OwnerId, Uid, WireCodec};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_policy::AuthorityId;

struct World {
    sys: CloudSystem,
    med: AuthorityId,
    trial: AuthorityId,
    hospital: OwnerId,
    alice: Uid,
    bob: Uid,
    carol: Uid,
    dave: Uid,
}

/// Builds the world fault-free, then arms the seeded fault plan. With
/// `lazy` the revocations defer their re-encryption onto the pending
/// queue, and the schedule additionally crashes the enqueue/drain/
/// read-upgrade paths.
fn chaotic_world(seed: u64, lazy: bool) -> World {
    let mut sys = CloudSystem::new(seed);
    let med = sys.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    let trial = sys
        .add_authority("Trial", &["Researcher", "Sponsor"])
        .unwrap();
    let hospital = sys.add_owner("hospital").unwrap();
    let alice = sys.add_user("alice").unwrap();
    let bob = sys.add_user("bob").unwrap();
    let carol = sys.add_user("carol").unwrap();
    let dave = sys.add_user("dave").unwrap();
    sys.grant(&alice, &["Doctor@MedOrg"]).unwrap();
    sys.grant(&bob, &["Doctor@MedOrg", "Nurse@MedOrg"]).unwrap();
    sys.grant(&carol, &["Researcher@Trial"]).unwrap();
    sys.grant(&dave, &["Researcher@Trial", "Nurse@MedOrg"])
        .unwrap();
    sys.publish(
        &hospital,
        "med",
        &[("m", b"diagnosis".as_slice(), "Doctor@MedOrg")],
    )
    .unwrap();
    sys.publish(
        &hospital,
        "nursing",
        &[("n", b"charts".as_slice(), "Nurse@MedOrg")],
    )
    .unwrap();
    sys.publish(
        &hospital,
        "trial",
        &[("t", b"cohort".as_slice(), "Researcher@Trial")],
    )
    .unwrap();

    // Seeded chaos: transient wire faults everywhere, crashes focused on
    // the multi-step revocation path, all bounded by a budget so every
    // schedule eventually quiesces.
    let plan = FaultPlan::new(seed)
        .rate_all(FaultKind::Drop, 0.08)
        .rate_all(FaultKind::Delay, 0.10)
        .rate_all(FaultKind::Duplicate, 0.05)
        .rate(fault_points::READ_FETCH, FaultKind::Corrupt, 0.10)
        .rate(fault_points::PUBLISH_STORE, FaultKind::StorageError, 0.10)
        .rate(fault_points::REVOKE_UPDATE_DELIVER, FaultKind::Crash, 0.20)
        .rate(fault_points::REVOKE_REENCRYPT, FaultKind::Crash, 0.20)
        .rate(fault_points::REVOKE_FRESH_KEY, FaultKind::Drop, 0.25)
        .rate(fault_points::LAZY_ENQUEUE, FaultKind::Crash, 0.20)
        .rate(fault_points::LAZY_DRAIN, FaultKind::Crash, 0.20)
        .rate(fault_points::READ_UPGRADE, FaultKind::StorageError, 0.10)
        .delay_us(750)
        .budget(48);
    sys.set_lazy_revocation(lazy);
    *sys.faults_mut() = FaultInjector::new(plan);

    World {
        sys,
        med,
        trial,
        hospital,
        alice,
        bob,
        carol,
        dave,
    }
}

/// Retries `revoke` until the authority's `ReKey` has happened — after
/// that point the revocation intent is journaled and convergence is the
/// recovery machinery's job, which is exactly what this suite tests.
fn revoke_until_begun(
    w: &mut World,
    aid: AuthorityId,
    f: impl Fn(&mut CloudSystem) -> Result<(), CloudError>,
) {
    let before = w.sys.authority_version(&aid).unwrap();
    for _ in 0..64 {
        let _ = f(&mut w.sys);
        if w.sys.authority_version(&aid).unwrap() > before {
            return;
        }
    }
    // Unreachable in practice (the fault budget drains first), but keeps
    // the test honest instead of spinning forever.
    w.sys.faults_mut().disarm();
    f(&mut w.sys).expect("revocation with faults disarmed");
    w.sys.faults_mut().arm();
}

/// One full chaos schedule followed by convergence and invariant checks.
fn run_scenario(seed: u64, lazy: bool) {
    // On any assertion failure below, dump the flight recorder to
    // `trace_<seed>_chaos.json` and the wide-event ring to
    // `events_<seed>_chaos.jsonl` (both under `MABE_TRACE_DIR`, or
    // `target/trace-artifacts`) before the panic propagates — the
    // events index the failure, the trace holds the span-level
    // forensics, joined on `trace_id`.
    let _forensics = mabe_trace::FailureDump::new(seed, "chaos");
    let _events = mabe_events::EventsDump::new(seed, "chaos");
    let mut w = chaotic_world(seed, lazy);

    // Background traffic while faults are live: every outcome is
    // tolerated here, the contract is "no panic, exact accounting".
    for _ in 0..3 {
        let _ = w.sys.read(&w.alice, &w.hospital, "med", "m");
        let _ = w.sys.read(&w.bob, &w.hospital, "nursing", "n");
        let _ = w.sys.read(&w.carol, &w.hospital, "trial", "t");
        let _ = w.sys.read(&w.dave, &w.hospital, "trial", "t");
    }

    // An authority outage: control plane blocked, reads unaffected.
    w.sys.set_authority_down(&w.med);
    assert!(
        w.sys.grant(&w.alice, &["Nurse@MedOrg"]).is_err(),
        "seed {seed}: grant succeeded against a downed authority"
    );
    let _ = w.sys.read(&w.bob, &w.hospital, "med", "m");
    w.sys.set_authority_up(&w.med);

    // Bob goes offline and stays offline through both revocations; his
    // update keys must queue and replay on sync without loss.
    w.sys.set_offline(&w.bob);

    let alice = w.alice.clone();
    let med = w.med.clone();
    revoke_until_begun(&mut w, med, |sys| sys.revoke(&alice, "Doctor@MedOrg"));

    let dave = w.dave.clone();
    let trial = w.trial.clone();
    revoke_until_begun(&mut w, trial.clone(), |sys| {
        sys.revoke_user_at(&dave, &trial)
    });

    // More traffic (and a publish) racing the possibly-stalled
    // revocations.
    let _ = w.sys.publish(
        &w.hospital,
        "late",
        &[("l", b"post-revocation".as_slice(), "Nurse@MedOrg")],
    );
    for _ in 0..2 {
        let _ = w.sys.read(&w.carol, &w.hospital, "trial", "t");
        let _ = w.sys.read(&w.alice, &w.hospital, "med", "m");
    }
    // Opportunistic drains racing the fault schedule: a crashed drain
    // must release its claim and leave the queue intact for retry.
    let _ = w.sys.drain_lazy();
    let _ = w.sys.drain_lazy();

    // ---- convergence ----
    w.sys.faults_mut().disarm();
    for _ in 0..8 {
        if !w.sys.needs_recovery() {
            break;
        }
        w.sys.recover().expect("recover with faults disarmed");
    }
    assert!(
        !w.sys.needs_recovery(),
        "seed {seed}: revocations still pending after recovery: {:?}",
        w.sys.pending_revocations()
    );
    while w.sys.lazy_queue_depth() > 0 {
        let drained = w.sys.drain_lazy().expect("drain_lazy with faults disarmed");
        assert!(drained > 0, "seed {seed}: lazy queue stuck");
    }
    assert!(
        w.sys.audit().incomplete_revocations().is_empty(),
        "seed {seed}: audit journal shows incomplete revocations"
    );

    for uid in [&w.alice, &w.bob, &w.carol, &w.dave] {
        w.sys.sync_user(uid).expect("fault-free sync");
    }

    // The "late" publish may have lost the coin toss against the fault
    // budget; republish fault-free so the post-convergence reads below
    // are deterministic.
    if w.sys.read(&w.bob, &w.hospital, "late", "l").is_err() {
        w.sys
            .publish(
                &w.hospital,
                "late",
                &[("l", b"post-revocation".as_slice(), "Nurse@MedOrg")],
            )
            .expect("fault-free republish");
    }

    // ---- invariant 2: revoked access is gone, everywhere, forever ----
    assert!(
        w.sys.read(&w.alice, &w.hospital, "med", "m").is_err(),
        "seed {seed}: alice decrypts with a revoked attribute"
    );
    assert!(
        w.sys.read(&w.dave, &w.hospital, "trial", "t").is_err(),
        "seed {seed}: dave decrypts after user revocation at Trial"
    );

    // ---- invariant 3: everyone else still reads what they should ----
    assert_eq!(
        w.sys.read(&w.bob, &w.hospital, "med", "m").unwrap(),
        b"diagnosis",
        "seed {seed}: bob (offline through revocation) lost access"
    );
    assert_eq!(
        w.sys.read(&w.bob, &w.hospital, "nursing", "n").unwrap(),
        b"charts",
        "seed {seed}: bob's untouched nursing access broke"
    );
    assert_eq!(
        w.sys.read(&w.carol, &w.hospital, "trial", "t").unwrap(),
        b"cohort",
        "seed {seed}: carol (never revoked) lost Trial access"
    );
    assert_eq!(
        w.sys.read(&w.dave, &w.hospital, "nursing", "n").unwrap(),
        b"charts",
        "seed {seed}: dave's untouched MedOrg attributes must survive"
    );
    assert_eq!(
        w.sys.read(&w.bob, &w.hospital, "late", "l").unwrap(),
        b"post-revocation",
        "seed {seed}: post-revocation publish unreadable after convergence"
    );

    // A second sync must be a no-op (no stale keys parked anywhere).
    for uid in [&w.alice, &w.bob, &w.carol, &w.dave] {
        w.sys.sync_user(uid).expect("idempotent resync");
    }
    assert!(
        w.sys.read(&w.alice, &w.hospital, "med", "m").is_err(),
        "seed {seed}: alice regained revoked access after a resync"
    );

    // ---- invariant 4: exact byte accounting under faults ----
    let report = w.sys.wire().delivery_report();
    assert_eq!(
        report.bytes_sent,
        report.bytes_delivered + report.bytes_lost,
        "seed {seed}: wire byte accounting drifted"
    );
    assert!(
        report.sent >= report.delivered,
        "seed {seed}: delivered {} messages out of {} sent",
        report.delivered,
        report.sent
    );

    // ---- invariant 5: persistence survives, corruption never panics ----
    // Each stored envelope round-trips through the wire bytes a
    // `Records` row holds.
    let server = w.sys.server();
    let stored: Vec<Vec<u8>> = ["med", "nursing", "trial", "late"]
        .into_iter()
        .filter_map(|record| server.fetch(&w.hospital, record))
        .map(|envelope| {
            let bytes = envelope.to_wire_bytes();
            assert_eq!(
                DataEnvelope::from_wire_bytes(&bytes).as_ref(),
                Ok(&envelope),
                "seed {seed}: an envelope failed to round-trip"
            );
            bytes
        })
        .collect();
    assert_eq!(stored.len(), server.record_count());
    // Seeded bit flips across those bytes: decode must return, never
    // panic (xorshift so each seed corrupts different offsets).
    let mut x = seed | 1;
    for _ in 0..64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut corrupted = stored[(x >> 32) as usize % stored.len()].clone();
        let pos = (x as usize) % corrupted.len();
        corrupted[pos] ^= 1 << (x % 8);
        let _ = DataEnvelope::from_wire_bytes(&corrupted);
    }
}

macro_rules! chaos_seed {
    ($($name:ident: $seed:expr => $lazy:expr,)*) => {
        $(
            #[test]
            fn $name() {
                run_scenario($seed, $lazy);
            }
        )*
    };
}

chaos_seed! {
    chaos_seed_0x01: 0x01 => false,
    chaos_seed_0x2a: 0x2a => false,
    chaos_seed_0x6b: 0x6b => false,
    chaos_seed_0xd3: 0xd3 => false,
    chaos_seed_1337: 1337 => false,
    chaos_seed_4242: 4242 => false,
    chaos_seed_9001: 9001 => false,
    chaos_seed_31415: 31415 => false,
    lazy_chaos_seed_0x01: 0x01 => true,
    lazy_chaos_seed_0x2a: 0x2a => true,
    lazy_chaos_seed_0x6b: 0x6b => true,
    lazy_chaos_seed_0xd3: 0xd3 => true,
    lazy_chaos_seed_1337: 1337 => true,
    lazy_chaos_seed_4242: 4242 => true,
    lazy_chaos_seed_9001: 9001 => true,
    lazy_chaos_seed_31415: 31415 => true,
}

/// Exploratory schedule: `RANDOM_SEED=<u64> cargo test -p mabe-cloud
/// --test chaos`. CI runs one of these per build and logs the seed so a
/// failure is reproducible by pinning it above.
#[test]
fn chaos_random_seed_from_env() {
    let Ok(raw) = std::env::var("RANDOM_SEED") else {
        return;
    };
    let seed: u64 = raw.parse().expect("RANDOM_SEED must be a u64");
    eprintln!("chaos: running exploratory schedule with seed {seed}");
    run_scenario(seed, false);
    run_scenario(seed, true);
}

/// The telemetry families promised in DESIGN.md §failure-model show up
/// in both export formats after a faulty run.
#[test]
fn chaos_exports_fault_telemetry() {
    // Deterministic faults so every family is guaranteed to increment:
    // a dropped fetch (retries), and a crash mid-re-encryption that
    // recover() rolls forward (faults injected + revocations recovered).
    let plan = FaultPlan::new(99)
        .at(fault_points::READ_FETCH, 1, FaultKind::Drop)
        .at(fault_points::REVOKE_REENCRYPT, 1, FaultKind::Crash);
    let mut sys = CloudSystem::with_faults(99, FaultInjector::new(plan));
    sys.add_authority("MedOrg", &["Doctor"]).unwrap();
    let owner = sys.add_owner("hospital").unwrap();
    let alice = sys.add_user("alice").unwrap();
    let bob = sys.add_user("bob").unwrap();
    sys.grant(&alice, &["Doctor@MedOrg"]).unwrap();
    sys.grant(&bob, &["Doctor@MedOrg"]).unwrap();
    sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
        .unwrap();
    sys.read(&alice, &owner, "r", "x").unwrap(); // retried past the drop
    let _ = sys.revoke(&alice, "Doctor@MedOrg"); // crashes mid-phase-3
    sys.faults_mut().disarm();
    while sys.needs_recovery() {
        sys.recover().unwrap();
    }
    let json = sys.metrics_snapshot();
    let prom = sys.metrics_prometheus();
    for family in [
        "mabe_faults_injected_total",
        "mabe_retries_total",
        "mabe_revocations_recovered_total",
    ] {
        assert!(json.contains(family), "{family} missing from JSON export");
        assert!(
            prom.contains(family),
            "{family} missing from Prometheus export"
        );
    }
}
