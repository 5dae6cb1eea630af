//! Chaos harness: drives the full protocol lifecycle under seeded fault
//! schedules and reports convergence plus fault/retry/recovery counts.
//!
//! One row per seed: the scenario injects drops, delays, duplicates,
//! corruption, storage errors, disk-full rejections, torn manifests,
//! and mid-revocation crashes while users
//! read, publish, go offline, and get revoked; then faults are disarmed
//! and the system is driven to convergence. Any violated invariant (a
//! revoked attribute that still decrypts, a pending revocation after
//! recovery, drifting wire byte accounting) aborts with a non-zero exit
//! so CI fails loudly with the seed in the output.
//!
//! Every seed runs twice — eager and lazy revocation — so the deferred
//! queue paths (`cloud.lazy_enqueue`, `cloud.lazy_drain`,
//! `cloud.read_upgrade`) take the same beating as the eager ones.
//!
//! Usage: `chaos [seeds]` (default 8, sequential from the base seed).
//! `RANDOM_SEED=<u64>` overrides the base seed (default 1) for
//! exploratory runs — the seed is always printed, so every failure is
//! reproducible by pinning it.

use mabe_cloud::{fault_points, CloudSystem};
use mabe_core::{DataEnvelope, WireCodec};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};

struct Outcome {
    injected: u64,
    crashes: u64,
    recovered: usize,
    drained: usize,
    retried: u64,
    dropped: u64,
    bytes_sent: usize,
    bytes_lost: usize,
}

fn run_scenario(seed: u64, lazy: bool) -> Result<Outcome, String> {
    let mut sys = CloudSystem::new(seed);
    let med = sys
        .add_authority("MedOrg", &["Doctor", "Nurse"])
        .map_err(|e| e.to_string())?;
    let hospital = sys.add_owner("hospital").map_err(|e| e.to_string())?;
    let alice = sys.add_user("alice").map_err(|e| e.to_string())?;
    let bob = sys.add_user("bob").map_err(|e| e.to_string())?;
    sys.grant(&alice, &["Doctor@MedOrg"])
        .map_err(|e| e.to_string())?;
    sys.grant(&bob, &["Doctor@MedOrg", "Nurse@MedOrg"])
        .map_err(|e| e.to_string())?;
    sys.publish(
        &hospital,
        "med",
        &[("m", b"diagnosis".as_slice(), "Doctor@MedOrg")],
    )
    .map_err(|e| e.to_string())?;

    let plan = FaultPlan::new(seed)
        .rate_all(FaultKind::Drop, 0.08)
        .rate_all(FaultKind::Delay, 0.10)
        .rate_all(FaultKind::Duplicate, 0.05)
        .rate(fault_points::READ_FETCH, FaultKind::Corrupt, 0.10)
        .rate(fault_points::PUBLISH_STORE, FaultKind::StorageError, 0.10)
        .rate(fault_points::PUBLISH_STORE, FaultKind::NoSpace, 0.05)
        .rate(fault_points::READ_FETCH, FaultKind::ManifestTorn, 0.05)
        .rate(fault_points::REVOKE_UPDATE_DELIVER, FaultKind::Crash, 0.20)
        .rate(fault_points::REVOKE_REENCRYPT, FaultKind::Crash, 0.20)
        .rate(fault_points::LAZY_ENQUEUE, FaultKind::Crash, 0.20)
        .rate(fault_points::LAZY_DRAIN, FaultKind::Crash, 0.20)
        .rate(fault_points::READ_UPGRADE, FaultKind::StorageError, 0.10)
        .delay_us(750)
        .budget(48);
    sys.set_lazy_revocation(lazy);
    *sys.faults_mut() = FaultInjector::new(plan);

    sys.set_offline(&bob);
    for _ in 0..4 {
        let _ = sys.read(&alice, &hospital, "med", "m");
    }
    // Retry the revocation until the authority's ReKey lands; past that
    // point convergence is the recovery machinery's responsibility.
    let before = sys.authority_version(&med).expect("authority exists");
    for _ in 0..64 {
        let _ = sys.revoke(&alice, "Doctor@MedOrg");
        if sys.authority_version(&med).expect("authority exists") > before {
            break;
        }
    }
    let _ = sys.publish(
        &hospital,
        "late",
        &[("l", b"post".as_slice(), "Nurse@MedOrg")],
    );

    // A crashed drain must release its claim and keep the queue intact.
    let mut drained = sys.drain_lazy().unwrap_or(0);

    sys.faults_mut().disarm();
    let mut recovered = 0;
    for _ in 0..8 {
        if !sys.needs_recovery() {
            break;
        }
        recovered += sys.recover().map_err(|e| e.to_string())?;
    }
    if sys.needs_recovery() {
        return Err(format!(
            "revocations still pending: {:?}",
            sys.pending_revocations()
        ));
    }
    while sys.lazy_queue_depth() > 0 {
        let n = sys.drain_lazy().map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("lazy queue stuck after faults disarmed".into());
        }
        drained += n;
    }
    sys.sync_user(&bob).map_err(|e| e.to_string())?;
    if sys.read(&alice, &hospital, "med", "m").is_ok() {
        return Err("revoked attribute still decrypts".into());
    }
    if sys.read(&bob, &hospital, "med", "m").is_err() {
        return Err("non-revoked offline holder lost access".into());
    }
    let report = sys.wire().delivery_report();
    if report.bytes_sent != report.bytes_delivered + report.bytes_lost {
        return Err("wire byte accounting drifted".into());
    }
    // Each stored envelope round-trips through the wire bytes a
    // `Records` row holds.
    for record in ["med", "late"] {
        if let Some(envelope) = sys.server().fetch(&hospital, record) {
            if DataEnvelope::from_wire_bytes(&envelope.to_wire_bytes()).as_ref() != Ok(&envelope) {
                return Err(format!("envelope {record} failed to round-trip"));
            }
        }
    }
    Ok(Outcome {
        injected: sys.faults().injected_total(),
        crashes: sys.faults().injected(FaultKind::Crash),
        recovered,
        drained,
        retried: report.retried,
        dropped: report.dropped,
        bytes_sent: report.bytes_sent,
        bytes_lost: report.bytes_lost,
    })
}

fn main() {
    let count: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .filter(|&n| (1..=1024).contains(&n))
        .unwrap_or(8);
    let base: u64 = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    eprintln!("# chaos: {count} seeded schedules starting at seed {base} (eager + lazy each)");
    println!("seed\tlazy\tinjected\tcrashes\trecovered\tdrained\tretried\tdropped\tbytes_sent\tbytes_lost");

    let mut failures = 0u32;
    for seed in base..base.saturating_add(count) {
        for lazy in [false, true] {
            match run_scenario(seed, lazy) {
                Ok(o) => println!(
                    "{seed}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    lazy as u8,
                    o.injected,
                    o.crashes,
                    o.recovered,
                    o.drained,
                    o.retried,
                    o.dropped,
                    o.bytes_sent,
                    o.bytes_lost
                ),
                Err(why) => {
                    eprintln!("chaos: seed {seed} (lazy={lazy}) FAILED: {why}");
                    failures += 1;
                }
            }
        }
    }
    mabe_bench::metrics::emit("chaos");
    if failures > 0 {
        eprintln!("chaos: {failures} seed(s) failed");
        std::process::exit(1);
    }
}
