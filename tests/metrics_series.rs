//! The `/metrics` series set is part of the observability contract.
//!
//! Dashboards and alerts select Prometheus series by name and labels,
//! so a change to how a metric is recorded must not add, drop or
//! rename one. This file holds one test, so it runs in a process of
//! its own and the global registry holds only its scenario: one fixed
//! `DurableSystem<SimDisk>` run touching every operation the cloud
//! serves. The sorted `name{labels}` set it leaves, values and `le`
//! buckets ignored, must equal the list below.

use mabe_cloud::{fault_points, DurableSystem};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::SimDisk;

/// The series set the scenario leaves behind.
const EXPECTED: &[&str] = &[
    "mabe_apply_update_latency_us_count",
    "mabe_apply_update_latency_us_sum",
    "mabe_apply_update_total",
    "mabe_cache_evictions_total{cache=\"chain\"}",
    "mabe_cache_evictions_total{cache=\"content\"}",
    "mabe_cache_hits_total{cache=\"chain\"}",
    "mabe_cache_hits_total{cache=\"content\"}",
    "mabe_cache_misses_total{cache=\"chain\"}",
    "mabe_cache_misses_total{cache=\"content\"}",
    "mabe_crypto_ops_total{op=\"g1_mul\"}",
    "mabe_crypto_ops_total{op=\"gt_pow\"}",
    "mabe_crypto_ops_total{op=\"hash_to_curve\"}",
    "mabe_crypto_ops_total{op=\"hash_to_field\"}",
    "mabe_crypto_ops_total{op=\"msm\"}",
    "mabe_crypto_ops_total{op=\"pairing\"}",
    "mabe_decrypt_latency_us_count{variant=\"fast\"}",
    "mabe_decrypt_latency_us_sum{variant=\"fast\"}",
    "mabe_decrypt_total{variant=\"fast\"}",
    "mabe_deltas_written_total",
    "mabe_encrypt_latency_us_count",
    "mabe_encrypt_latency_us_sum",
    "mabe_encrypt_total",
    "mabe_events_emitted_total",
    "mabe_events_kept_total{reason=\"error\"}",
    "mabe_events_kept_total{reason=\"retried\"}",
    "mabe_events_kept_total{reason=\"sampled\"}",
    "mabe_faults_injected_total{kind=\"drop\",point=\"read.fetch\"}",
    "mabe_keygen_latency_us_count",
    "mabe_keygen_latency_us_sum",
    "mabe_keygen_total",
    "mabe_lazy_drained_components_total",
    "mabe_lazy_queue_depth",
    "mabe_lazy_queue_depth{authority=\"MedOrg\"}",
    "mabe_lazy_queue_depth{authority=\"Trial\"}",
    "mabe_lazy_staleness_ms_count",
    "mabe_lazy_staleness_ms_count{authority=\"MedOrg\"}",
    "mabe_lazy_staleness_ms_sum",
    "mabe_lazy_staleness_ms_sum{authority=\"MedOrg\"}",
    "mabe_recovery_duration_ms_count",
    "mabe_recovery_duration_ms_sum",
    "mabe_reencrypt_latency_us_count",
    "mabe_reencrypt_latency_us_sum",
    "mabe_reencrypt_total",
    "mabe_retries_total{op=\"read.fetch\"}",
    "mabe_retry_backoff_us_total{op=\"read.fetch\"}",
    "mabe_revocation_e2e_latency_us_count",
    "mabe_revocation_e2e_latency_us_sum",
    "mabe_revocation_e2e_total",
    "mabe_server_op_latency_us_count{op=\"fetch\"}",
    "mabe_server_op_latency_us_count{op=\"reencrypt\"}",
    "mabe_server_op_latency_us_count{op=\"store\"}",
    "mabe_server_op_latency_us_sum{op=\"fetch\"}",
    "mabe_server_op_latency_us_sum{op=\"reencrypt\"}",
    "mabe_server_op_latency_us_sum{op=\"store\"}",
    "mabe_server_op_total{op=\"fetch\"}",
    "mabe_server_op_total{op=\"reencrypt\"}",
    "mabe_server_op_total{op=\"store\"}",
    "mabe_setup_latency_us_count",
    "mabe_setup_latency_us_sum",
    "mabe_setup_total",
    "mabe_slo_error_budget_remaining{kind=\"grant\"}",
    "mabe_slo_error_budget_remaining{kind=\"lazy_drain\"}",
    "mabe_slo_error_budget_remaining{kind=\"publish\"}",
    "mabe_slo_error_budget_remaining{kind=\"read\"}",
    "mabe_slo_error_budget_remaining{kind=\"recovery\"}",
    "mabe_slo_error_budget_remaining{kind=\"revoke\"}",
    "mabe_snapshots_written_total",
    "mabe_system_op_latency_us_count{op=\"publish\"}",
    "mabe_system_op_latency_us_count{op=\"read\"}",
    "mabe_system_op_latency_us_sum{op=\"publish\"}",
    "mabe_system_op_latency_us_sum{op=\"read\"}",
    "mabe_system_op_total{op=\"publish\"}",
    "mabe_system_op_total{op=\"read\"}",
    "mabe_update_key_latency_us_count",
    "mabe_update_key_latency_us_sum",
    "mabe_update_key_total",
    "mabe_wal_appends_total",
    "mabe_wal_bytes_reclaimed_total",
    "mabe_wal_bytes_total",
    "mabe_wal_group_batched_records_total",
    "mabe_wal_group_commits_total",
    "mabe_wal_records_replayed_total",
    "mabe_wal_segments_live",
    "mabe_wire_bytes_total{pair=\"authority_owner\"}",
    "mabe_wire_bytes_total{pair=\"authority_user\"}",
    "mabe_wire_bytes_total{pair=\"ca\"}",
    "mabe_wire_bytes_total{pair=\"server_owner\"}",
    "mabe_wire_bytes_total{pair=\"server_user\"}",
    "mabe_wire_delivery_total{disposition=\"dropped\"}",
    "mabe_wire_delivery_total{disposition=\"retransmit\"}",
    "mabe_wire_messages_total{pair=\"authority_owner\"}",
    "mabe_wire_messages_total{pair=\"authority_user\"}",
    "mabe_wire_messages_total{pair=\"ca\"}",
    "mabe_wire_messages_total{pair=\"server_owner\"}",
    "mabe_wire_messages_total{pair=\"server_user\"}",
];

/// `name{labels}` of every exported series, sorted: each counter and
/// gauge line, and each histogram's `_sum` and `_count` (its `_bucket`
/// lines depend on the values recorded).
fn series(prometheus: &str) -> Vec<String> {
    let mut out: Vec<String> = prometheus
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' ').map(|(series, _)| series))
        .filter(|series| !series.contains("_bucket{") && !series.ends_with("_bucket"))
        .map(str::to_owned)
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn a_fixed_scenario_exports_the_same_series_set() {
    // Keep every wide event: the kept-reason series then depend only
    // on the scenario, not on the sampler's draws.
    mabe_events::global().set_keep_1_in(1);
    let faults = FaultInjector::new(FaultPlan::new(0x5e71));
    let (ds, _) = DurableSystem::open_with_faults(SimDisk::unfaulted(), 0x5e71, faults).unwrap();
    ds.set_checkpoint_interval(usize::MAX);
    ds.set_wal_budget(usize::MAX);

    let med = ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
    ds.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| ds.add_user(n).unwrap());
    ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    ds.grant(&bob, &["Doctor@MedOrg", "Nurse@MedOrg"]).unwrap();
    ds.grant(&carol, &["Nurse@MedOrg", "Researcher@Trial"])
        .unwrap();
    ds.publish(
        &owner,
        "chart",
        &[
            ("dx", b"doctors only".as_slice(), "Doctor@MedOrg"),
            ("notes", b"ward", "Nurse@MedOrg OR Researcher@Trial"),
        ],
    )
    .unwrap();

    // A cold read, then the same read hot.
    for _ in 0..2 {
        assert_eq!(
            ds.read(&alice, &owner, "chart", "dx").unwrap(),
            b"doctors only"
        );
    }
    assert_eq!(ds.read(&carol, &owner, "chart", "notes").unwrap(), b"ward");

    // One dropped download, retried.
    ds.system()
        .faults()
        .schedule(fault_points::READ_FETCH, 1, FaultKind::Drop);
    assert_eq!(
        ds.read(&bob, &owner, "chart", "dx").unwrap(),
        b"doctors only"
    );

    // An eager revocation while carol is offline, then her sync.
    ds.set_offline(&carol).unwrap();
    ds.revoke(&alice, "Doctor@MedOrg").unwrap();
    assert!(ds.read(&alice, &owner, "chart", "dx").is_err());
    ds.sync_user(&carol).unwrap();
    assert_eq!(ds.read(&carol, &owner, "chart", "notes").unwrap(), b"ward");

    // A lazy revocation and its drain.
    ds.system().set_lazy_revocation(true);
    ds.revoke_user_at(&bob, &med).unwrap();
    assert_eq!(ds.drain_lazy().unwrap(), 1);
    assert_eq!(ds.read(&carol, &owner, "chart", "notes").unwrap(), b"ward");

    ds.checkpoint().unwrap();

    let got = series(&ds.system().metrics_prometheus());
    if got != EXPECTED {
        let missing: Vec<&&str> = EXPECTED
            .iter()
            .filter(|s| !got.iter().any(|g| g == **s))
            .collect();
        let extra: Vec<&String> = got
            .iter()
            .filter(|g| !EXPECTED.contains(&g.as_str()))
            .collect();
        panic!(
            "the /metrics series set moved\nmissing: {missing:#?}\nextra: {extra:#?}\n\
             full set:\n{}",
            got.iter()
                .map(|s| format!("    {s:?},"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
