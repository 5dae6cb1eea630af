//! Durable operations keep their observability.
//!
//! Each `DurableSystem::revoke` and `revoke_user_at` emits exactly one
//! `revoke` wide event naming the revoked user and the authority, and
//! records exactly one end-to-end revocation latency sample. The
//! who-revoked-whom trail is what accountable multi-authority access
//! control audits, so a durable revocation must carry the same fields
//! as an in-memory one. Every durable mutator also marks its span
//! failed when it errors.

use std::sync::Mutex;

use mabe_cloud::{fault_points, DurableSystem};
use mabe_events::{Outcome, WideEvent};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::SimDisk;

/// The telemetry registry and the event ring are process-wide: the
/// tests here take turns so one's revocations never land in another's
/// counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn e2e_samples() -> u64 {
    mabe_telemetry::global()
        .counter("mabe_revocation_e2e_total", &[])
        .get()
}

fn revoke_events(detail: &str) -> Vec<WideEvent> {
    mabe_events::global()
        .ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == "revoke" && e.detail == detail)
        .collect()
}

fn assert_one_event(detail: &str, uid: &str, authority: &str) {
    let events = revoke_events(detail);
    assert_eq!(events.len(), 1, "{detail}: {events:?}");
    let event = &events[0];
    assert_eq!(event.outcome, Outcome::Ok, "{detail}");
    assert_eq!(event.uid.as_deref(), Some(uid), "{detail}: uid");
    assert_eq!(
        event.authority.as_deref(),
        Some(authority),
        "{detail}: authority"
    );
}

#[test]
fn durable_revocations_emit_one_wide_event_with_uid_and_authority() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Keep every event: the revocations below are fast and OK, which
    // the tail sampler would otherwise thin out.
    mabe_events::global().set_keep_1_in(1);
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0xe7e).unwrap();
    let aid = ds.add_authority("AuditOrg", &["Doctor", "Nurse"]).unwrap();
    let clinic = ds.add_owner("clinic").unwrap();
    let alice = ds.add_user("alice-audited").unwrap();
    let bob = ds.add_user("bob-audited").unwrap();
    ds.grant(&alice, &["Doctor@AuditOrg"]).unwrap();
    ds.grant(&bob, &["Doctor@AuditOrg", "Nurse@AuditOrg"])
        .unwrap();
    ds.publish(
        &clinic,
        "chart",
        &[("notes", b"doctors only".as_slice(), "Doctor@AuditOrg")],
    )
    .unwrap();

    let before = e2e_samples();
    ds.revoke(&alice, "Doctor@AuditOrg").unwrap();
    assert_eq!(e2e_samples(), before + 1, "one latency sample per revoke");
    assert_one_event("alice-audited Doctor@AuditOrg", "alice-audited", "AuditOrg");

    let before = e2e_samples();
    ds.revoke_user_at(&bob, &aid).unwrap();
    assert_eq!(
        e2e_samples(),
        before + 1,
        "one latency sample per revoke_user_at"
    );
    assert_one_event("bob-audited @AuditOrg", "bob-audited", "AuditOrg");
}

#[test]
fn a_failed_durable_sync_marks_its_span_failed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::new(3).at(fault_points::SYNC_DELIVER, 1, FaultKind::Crash);
    let (ds, _) =
        DurableSystem::open_with_faults(SimDisk::unfaulted(), 0x5c, FaultInjector::new(plan))
            .unwrap();
    ds.add_authority("SyncOrg", &["Doctor"]).unwrap();
    ds.add_owner("ward").unwrap();
    let carol = ds.add_user("carol-synced").unwrap();
    let dave = ds.add_user("dave-synced").unwrap();
    ds.grant(&carol, &["Doctor@SyncOrg"]).unwrap();
    ds.grant(&dave, &["Doctor@SyncOrg"]).unwrap();
    // Dave is offline through a revocation, so his sync has an update
    // key to deliver — and the delivery crashes.
    ds.set_offline(&dave).unwrap();
    ds.revoke(&carol, "Doctor@SyncOrg").unwrap();
    let err = ds.sync_user(&dave).unwrap_err();

    let span = mabe_trace::snapshot()
        .into_iter()
        .rev()
        .find(|s| s.name == "durable.sync_user" && s.detail == "dave-synced")
        .expect("durable.sync_user span recorded");
    assert_eq!(span.error, Some(err.to_string()));
}
