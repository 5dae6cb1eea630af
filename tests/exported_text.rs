//! The exported trace and wide-event text of one fixed scenario.
//!
//! One faulted `DurableSystem<SimDisk>` run (dropped and duplicated
//! messages, an eager revocation, a denied read, a checkpoint) renders
//! its flight recorder as Chrome `trace_event` JSON and as the span
//! forest, and its wide events as the `/eventz` body. Each is compared
//! with the text checked in under `tests/golden/exported_text/`, after
//! stripping what a run cannot repeat: times, durations and the
//! process-wide trace, span and sequence ids. The tail sampler's `slow`
//! and `sampled` keep reasons are folded into one, since which of the
//! two an OK op gets depends on its latency.
//!
//! So a change to how spans, events and attributes are stored (typed
//! values, recycled buffers) moves no byte an operator or a tool reads.
//! After an intended format change, regenerate the files with
//! `MABE_BLESS=1 cargo test --test exported_text` and review the diff.
//!
//! This file holds one test, so its process records nothing else.

use std::path::PathBuf;

use mabe_cloud::{fault_points, DurableSystem};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::SimDisk;

const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";

/// Replaces the number after each `"key":` with `_`.
fn strip_numbers(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_owned();
    for key in keys {
        let pattern = format!("\"{key}\":");
        let mut result = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(at) = rest.find(&pattern) {
            let end = at + pattern.len();
            result.push_str(&rest[..end]);
            rest = &rest[end..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if digits > 0 {
                result.push('_');
                rest = &rest[digits..];
            }
        }
        result.push_str(rest);
        out = result;
    }
    out
}

fn compare(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/exported_text")
        .join(name);
    if std::env::var_os("MABE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with MABE_BLESS=1)", path.display()));
    if want != got {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "{name} differs from {} at line {}:\n  want: {}\n  got:  {}",
            path.display(),
            line + 1,
            want.lines().nth(line).unwrap_or("<end>"),
            got.lines().nth(line).unwrap_or("<end>"),
        );
    }
}

#[test]
fn a_fixed_faulted_scenario_exports_the_checked_in_text() {
    mabe_events::global().set_keep_1_in(1);
    let faults = FaultInjector::new(FaultPlan::new(0x7e47));
    faults.schedule(fault_points::READ_FETCH, 2, FaultKind::Drop);
    faults.schedule(fault_points::GRANT_DELIVER, 2, FaultKind::Duplicate);
    faults.schedule(fault_points::REVOKE_UPDATE_DELIVER, 1, FaultKind::Drop);
    mabe_trace::recorder::global().clear();
    mabe_events::global().reset();

    let (ds, _) = DurableSystem::open_with_faults(SimDisk::unfaulted(), 0x7e47, faults).unwrap();
    ds.system().set_reencrypt_workers(1);
    ds.set_checkpoint_interval(usize::MAX);
    ds.add_authority("MedOrg", &["Doctor"]).unwrap();
    ds.add_authority("Trial", &["Researcher"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let alice = ds.add_user("alice").unwrap();
    let bob = ds.add_user("bob").unwrap();
    ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    ds.grant(&bob, &["Doctor@MedOrg", "Researcher@Trial"])
        .unwrap();
    for record in ["chart", "labs"] {
        ds.publish(&owner, record, &[("data", record.as_bytes(), POLICY)])
            .unwrap();
    }
    for _ in 0..2 {
        for record in ["chart", "labs"] {
            assert_eq!(
                ds.read(&alice, &owner, record, "data").unwrap(),
                record.as_bytes()
            );
        }
    }
    ds.revoke(&bob, "Doctor@MedOrg").unwrap();
    assert!(ds.read(&bob, &owner, "chart", "data").is_err());
    assert_eq!(ds.read(&alice, &owner, "labs", "data").unwrap(), b"labs");
    ds.checkpoint().unwrap();
    assert_eq!(ds.read(&alice, &owner, "chart", "data").unwrap(), b"chart");

    let spans = mabe_trace::snapshot();
    let times_and_ids = [
        "ts",
        "dur",
        "tid",
        "trace_id",
        "span_id",
        "parent_id",
        "start_us",
        "dur_us",
        "t_us",
    ];
    compare(
        "chrome_trace.json",
        &strip_numbers(&mabe_trace::chrome_trace(&spans), &times_and_ids),
    );
    compare(
        "tree.json",
        &strip_numbers(&mabe_trace::tree_json(&spans), &times_and_ids),
    );
    let eventz = mabe_events::global()
        .eventz_json(None, None, usize::MAX)
        .replace("\"kept\":\"slow\"", "\"kept\":\"ok\"")
        .replace("\"kept\":\"sampled\"", "\"kept\":\"ok\"");
    compare(
        "eventz.json",
        &strip_numbers(
            &eventz,
            &["seq", "trace_id", "span_id", "start_us", "latency_us"],
        ),
    );
}
