//! The re-encryption width changes nothing anyone can observe.
//!
//! Eager revocation and recovery prepare their re-encryptions (the
//! owner's `UI` and the server's `e(UK1, C')`) on up to
//! `set_reencrypt_workers` threads, and apply them on the revoking
//! thread in worklist order. Every fault point, wire message, audit entry
//! and journaled byte comes from the apply, so a seeded run must leave
//! the same durable objects (by sha256), the same audit chain and the
//! same wire transcript at width 1 and at width 4:
//!
//! * under the chaos suite's transient faults, for fixed seeds and
//!   `RANDOM_SEED`;
//! * when the process dies inside a revocation's worklist (a crash at a
//!   mid-worklist hit of `REVOKE_REENCRYPT`) and the reopened store
//!   recovers.
//!
//! Every revocation's worklist is longer than one prepare chunk, so the
//! helpers prepare one chunk while the revoking thread applies another.
//! A revocation also counts the same pairings and G1 multiplications on
//! the revoking thread at widths 1, 2 and 4: the helpers' counts are
//! absorbed into the caller's.

use mabe_cloud::{fault_points, AuditEntry, CloudSystem, DurableSystem, Transmission};
use mabe_core::{OwnerId, Uid};
use mabe_crypto::sha256::Sha256;
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::{SimDisk, Storage};

const WORLD_SEED: u64 = 0xd1_5c0;
/// Records under `Med`: more than one prepare chunk (32) per revocation.
const RECORDS: usize = 36;
const WIDTHS: [usize; 2] = [1, 4];

/// What a run leaves for anyone to observe.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    objects: Vec<(String, String)>,
    audit: Vec<AuditEntry>,
    wire: Vec<Transmission>,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn observe(ds: &DurableSystem<SimDisk>) -> Observed {
    let disk = ds.storage();
    let mut names = disk.list();
    names.sort();
    let objects = names
        .into_iter()
        .map(|name| {
            let bytes = disk.durable_bytes(&name).unwrap_or_default();
            (name, hex(&Sha256::digest(bytes)))
        })
        .collect();
    Observed {
        objects,
        audit: ds.audit().entries().to_vec(),
        wire: ds.system().wire().log(),
    }
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

/// The world every run starts from, built fault-free once: two
/// authorities, one owner, four users and [`RECORDS`] records whose
/// policies all involve `Med`, a quarter of them `Trial` too.
fn world() -> SimDisk {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), WORLD_SEED).expect("fresh store");
    ds.add_authority("Med", &["Doctor", "Nurse"]).unwrap();
    ds.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    for (user, attrs) in [
        ("alice", &["Doctor@Med", "Researcher@Trial"][..]),
        ("bob", &["Doctor@Med", "Nurse@Med", "Researcher@Trial"]),
        ("carol", &["Nurse@Med"]),
        ("dave", &["Doctor@Med"]),
    ] {
        let uid = ds.add_user(user).unwrap();
        ds.grant(&uid, attrs).unwrap();
    }
    for i in 0..RECORDS {
        let policy = match i % 4 {
            0 => "Doctor@Med",
            1 => "Doctor@Med OR Nurse@Med",
            2 => "Nurse@Med",
            _ => "(Doctor@Med OR Nurse@Med) AND Researcher@Trial",
        };
        let record = format!("r{i}");
        ds.publish(&owner, &record, &[("x", record.as_bytes(), policy)])
            .unwrap();
    }
    let disk = durable_copy(&ds.storage());
    disk
}

/// Two eager revocations (one attribute, one whole user), a lazy one
/// with its drain, and reads around them. Faults may fail any step;
/// the script goes on regardless.
fn script(ds: &DurableSystem<SimDisk>) {
    let owner = OwnerId::new("hospital");
    let [alice, bob, carol, dave] = ["alice", "bob", "carol", "dave"].map(Uid::new);
    let _ = ds.revoke(&alice, "Doctor@Med");
    for i in 0..4 {
        let _ = ds.read(&bob, &owner, &format!("r{i}"), "x");
    }
    let _ = ds.revoke_user_at(&carol, &mabe_policy::AuthorityId::new("Med"));
    ds.system().set_lazy_revocation(true);
    let _ = ds.revoke(&dave, "Doctor@Med");
    let _ = ds.read(&bob, &owner, "r5", "x");
    let _ = ds.drain_lazy();
    ds.system().set_lazy_revocation(false);
    let _ = ds.read(&alice, &owner, "r0", "x");
}

/// The chaos suite's transient faults, budget-bounded.
fn chaos(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultPlan::new(seed)
            .rate_all(FaultKind::Drop, 0.08)
            .rate_all(FaultKind::Duplicate, 0.05)
            .rate(fault_points::REVOKE_FRESH_KEY, FaultKind::Drop, 0.25)
            .rate(fault_points::READ_UPGRADE, FaultKind::StorageError, 0.10)
            .budget(48),
    )
}

/// Runs the script at `width` under `faults` over a copy of `base`,
/// then clears the faults and converges whatever they left behind.
fn chaos_run(base: &SimDisk, seed: u64, width: usize) -> Observed {
    let (mut ds, _) =
        DurableSystem::open_with_faults(durable_copy(base), seed, chaos(seed)).expect("reopens");
    ds.system().set_reencrypt_workers(width);
    script(&ds);
    ds.faults_mut().disarm();
    while ds.needs_recovery() {
        ds.recover().expect("recovery converges without faults");
    }
    ds.drain_lazy().expect("drain converges without faults");
    observe(&ds)
}

fn seeds() -> Vec<u64> {
    let mut seeds = vec![1, 42, 31415];
    if let Some(seed) = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        seeds.push(seed);
    }
    seeds
}

#[test]
fn chaos_runs_are_byte_identical_at_every_width() {
    let base = world();
    for seed in seeds() {
        let runs: Vec<Observed> = WIDTHS.iter().map(|&w| chaos_run(&base, seed, w)).collect();
        assert!(
            runs[0].wire.len() > RECORDS,
            "seed {seed}: the script re-encrypted"
        );
        for (width, run) in WIDTHS.iter().zip(&runs).skip(1) {
            assert_eq!(
                run, &runs[0],
                "seed {seed}: width {width} differs from width 1"
            );
        }
    }
}

/// Dies at a mid-worklist `REVOKE_REENCRYPT` hit of the first
/// revocation, then reopens (which recovers) and finishes the script.
fn crash_run(base: &SimDisk, width: usize) -> Observed {
    let crash = FaultInjector::new(FaultPlan::new(7).at(
        fault_points::REVOKE_REENCRYPT,
        RECORDS as u64 / 2,
        FaultKind::Crash,
    ));
    let (ds, _) = DurableSystem::open_with_faults(durable_copy(base), 7, crash).expect("reopens");
    ds.system().set_reencrypt_workers(width);
    let crashed = ds.revoke(&Uid::new("alice"), "Doctor@Med");
    assert!(crashed.is_err(), "the crash fired mid-worklist");
    let mut disk = ds.into_storage();
    disk.crash();
    let (ds, report) = DurableSystem::open(disk, 7).expect("reopens after the crash");
    assert!(!ds.needs_recovery(), "{report:?}");
    ds.system().set_reencrypt_workers(width);
    script(&ds);
    observe(&ds)
}

#[test]
fn a_crash_inside_a_worklist_recovers_byte_identically_at_every_width() {
    let base = world();
    let runs: Vec<Observed> = WIDTHS.iter().map(|&w| crash_run(&base, w)).collect();
    for (width, run) in WIDTHS.iter().zip(&runs).skip(1) {
        assert_eq!(run, &runs[0], "width {width} differs from width 1");
    }
}

#[test]
fn a_revocation_counts_the_same_ops_on_the_revoking_thread_at_every_width() {
    let counts: Vec<(u64, u64)> = [1, 2, 4]
        .into_iter()
        .map(|width| {
            let sys = CloudSystem::new(WORLD_SEED);
            sys.set_reencrypt_workers(width);
            sys.add_authority("Med", &["Doctor"]).unwrap();
            let owner = sys.add_owner("hospital").unwrap();
            let victim = sys.add_user("victim").unwrap();
            sys.grant(&victim, &["Doctor@Med"]).unwrap();
            for i in 0..RECORDS {
                sys.publish(
                    &owner,
                    &format!("r{i}"),
                    &[("x", b"v".as_slice(), "Doctor@Med")],
                )
                .unwrap();
            }
            let (revoked, ops) = mabe_telemetry::measure(|| sys.revoke(&victim, "Doctor@Med"));
            revoked.unwrap();
            assert_eq!(
                ops.pairings, RECORDS as u64,
                "width {width}: one pairing per re-encrypted component"
            );
            (ops.pairings, ops.g1_muls)
        })
        .collect();
    assert!(counts.iter().all(|c| *c == counts[0]), "{counts:?}");
}
