//! A served operation records its metrics through handles resolved
//! once.
//!
//! The cloud server answers every user's downloads, so what a read
//! spends on its own instrumentation is paid on every request. Each
//! per-operation series (span counters and histograms, wire, WAL and
//! group-commit counters, the crypto-op mirror, wide-event counters and
//! the SLO gauge) is looked up in the registry at its first use and
//! recorded lock-free after. Once each path has run, a hot read, a
//! cold read and a publish make no registry lookup at all on the
//! calling thread.
//!
//! This file holds one test, so its process runs nothing else: the
//! first use of every series is the warm-up's. Automatic checkpoints
//! are off, since a checkpoint is maintenance rather than part of the
//! operation that happens to trigger it, and the wide-event sampler
//! keeps every event, so which keep reasons have been seen depends only
//! on the operations run.

use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;
use mabe_telemetry::count_lookups;

const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";

#[test]
fn warmed_reads_and_publishes_make_no_registry_lookup() {
    mabe_events::global().set_keep_1_in(1);
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0x100c).unwrap();
    ds.set_checkpoint_interval(usize::MAX);
    ds.set_wal_budget(usize::MAX);
    ds.add_authority("MedOrg", &["Doctor"]).unwrap();
    ds.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let alice = ds.add_user("alice").unwrap();
    ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    let publish = |record: &str| {
        ds.publish(&owner, record, &[("data", record.as_bytes(), POLICY)])
            .unwrap()
    };
    let read = |record: &str| {
        assert_eq!(
            ds.read(&alice, &owner, record, "data").unwrap(),
            record.as_bytes()
        );
    };

    // Warm-up: enough publishes for the owner's prepared key tables and
    // enough first reads for the reader's prepared lines, each read
    // once cold and once hot.
    for n in 0..6 {
        publish(&format!("warm-{n}"));
    }
    for n in 0..4 {
        read(&format!("warm-{n}"));
        read(&format!("warm-{n}"));
    }

    let ((), hot) = count_lookups(|| read("warm-0"));
    let ((), cold) = count_lookups(|| read("warm-5"));
    let ((), published) = count_lookups(|| publish("late"));
    assert_eq!(
        (hot, cold, published),
        (0, 0, 0),
        "registry lookups in a hot read, a cold read and a publish"
    );
}
