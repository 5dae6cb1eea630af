//! Failure-forensics acceptance tests for the causal tracer.
//!
//! The headline scenario from the tracing design: a revocation hits an
//! injected `AuthorityDown` outage, the retry loop absorbs it, the
//! intent reaches the journal, and the proxy re-encryption runs — and
//! the whole episode must land in the flight recorder as **one** causal
//! span tree whose events tell that story in order. Companion tests
//! check the Chrome `trace_event` export is well-formed JSON and that a
//! poisoned [`DurableSystem`] dumps a forensics artifact when
//! `MABE_TRACE_DIR` is set.

use std::collections::BTreeSet;

use mabe_cloud::{fault_points, DurableSystem};
use mabe_faults::{FaultInjector, FaultKind, FaultPlan};
use mabe_store::{store_points, SimDisk};
use mabe_trace::{SpanRecord, TraceCtx, TraceEvent};

const SEED: u64 = 0xF0_55;

/// A minimal world: one authority, one owner, two doctors, one record
/// readable by doctors. Authority names are per-test so concurrent
/// tests can tell their spans apart in the shared flight recorder.
fn doctor_world(
    authority: &str,
    faults: FaultInjector,
) -> (DurableSystem<SimDisk>, mabe_core::Uid) {
    let (ds, _) =
        DurableSystem::open_with_faults(SimDisk::unfaulted(), SEED, faults).expect("fresh open");
    let doctor = format!("Doctor@{authority}");
    ds.add_authority(authority, &["Doctor", "Nurse"]).unwrap();
    let owner = ds.add_owner("hospital").unwrap();
    let alice = ds.add_user("alice").unwrap();
    let bob = ds.add_user("bob").unwrap();
    ds.grant(&alice, &[&doctor]).unwrap();
    ds.grant(&bob, &[&doctor]).unwrap();
    ds.publish(
        &owner,
        "rec",
        &[("diagnosis", b"doctors only".as_slice(), doctor.as_str())],
    )
    .unwrap();
    (ds, bob)
}

/// All spans of one trace, sorted by commit order.
fn trace_of(spans: &[SpanRecord], trace_id: u64) -> Vec<&SpanRecord> {
    spans
        .iter()
        .filter(|s| s.ctx.trace_id == trace_id)
        .collect()
}

#[test]
fn revocation_under_outage_is_one_causal_tree() {
    let authority = "TraceOrg";
    let plan = FaultPlan::new(SEED).at(fault_points::REVOKE_REKEY, 1, FaultKind::AuthorityDown);
    let (ds, bob) = doctor_world(authority, FaultInjector::new(plan));

    // The outage fires on the first rekey precheck; the retry policy
    // absorbs it and the revocation completes.
    ds.revoke(&bob, &format!("Doctor@{authority}"))
        .expect("retry should absorb the injected outage");

    let spans = mabe_trace::snapshot();
    let root = spans
        .iter()
        .filter(|s| s.name == "durable.revoke" && s.detail.contains(authority))
        .max_by_key(|s| s.seq)
        .expect("durable.revoke span recorded");
    let trace = trace_of(&spans, root.ctx.trace_id);

    // Exactly one root, and it is the durable revoke itself: the fault,
    // the retries, the journal write and the re-encryption all happened
    // *under* one causal ancestor, not as disconnected traces.
    let roots: Vec<_> = trace.iter().filter(|s| s.ctx.is_root()).collect();
    assert_eq!(
        roots.len(),
        1,
        "seed {SEED}: revocation trace has {} roots: {roots:?}",
        roots.len()
    );
    assert_eq!(roots[0].ctx.span_id, root.ctx.span_id);

    // Well-formed tree: every non-root parent id resolves inside the
    // same trace (nothing was evicted or mis-threaded).
    let ids: BTreeSet<u64> = trace.iter().map(|s| s.ctx.span_id).collect();
    for s in &trace {
        assert!(
            s.ctx.is_root() || ids.contains(&s.ctx.parent_id),
            "seed {SEED}: span {} (id {}) has dangling parent {}",
            s.name,
            s.ctx.span_id,
            s.ctx.parent_id
        );
        assert_ne!(s.ctx.parent_id, s.ctx.span_id, "self-parented span");
    }

    // The story, in typed events on that tree.
    let events: Vec<&TraceEvent> = trace
        .iter()
        .flat_map(|s| s.events.iter().map(|(_, e)| e))
        .collect();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::FaultInjected {
                point: "revoke.rekey",
                kind: "authority_down",
                ..
            }
        )),
        "seed {SEED}: no authority_down fault event at revoke.rekey in {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::RetryAttempt {
                op: "revoke.rekey",
                ..
            }
        )),
        "seed {SEED}: no retry attempt recorded for revoke.rekey in {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Backoff {
                op: "revoke.rekey",
                ..
            }
        )),
        "seed {SEED}: no backoff recorded for revoke.rekey"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::JournalAppend { .. })),
        "seed {SEED}: revocation intent never reached the journal"
    );
    for stage in ["begun", "key_delivery", "re_encryption", "complete"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::RevocationPhase { stage: s } if *s == stage)),
            "seed {SEED}: missing revocation phase {stage:?} in {events:?}"
        );
    }

    // The proxy re-encryption ran as a *descendant span* of the revoke.
    assert!(
        trace.iter().any(|s| s.name == "cloud.reencrypt"),
        "seed {SEED}: no cloud.reencrypt span under the revocation"
    );
}

#[test]
fn parallel_reencryption_workers_join_the_revocation_tree() {
    let authority = "ParallelOrg";
    let (ds, bob) = doctor_world(authority, FaultInjector::none());
    let doctor = format!("Doctor@{authority}");
    // A second owner with several records so phase 2 has a worklist
    // worth fanning out (the single-record owner stays sequential —
    // the pool clamps to the worklist size).
    let clinic = ds.add_owner("clinic").unwrap();
    for i in 0..6 {
        ds.publish(
            &clinic,
            &format!("chart-{i}"),
            &[("notes", b"doctors only".as_slice(), doctor.as_str())],
        )
        .unwrap();
    }
    ds.system().set_reencrypt_workers(4);

    ds.revoke(&bob, &doctor).expect("revocation completes");

    let spans = mabe_trace::snapshot();
    let root = spans
        .iter()
        .filter(|s| s.name == "durable.revoke" && s.detail.contains(authority))
        .max_by_key(|s| s.seq)
        .expect("durable.revoke span recorded");
    let trace = trace_of(&spans, root.ctx.trace_id);

    // Still exactly one root: the worker threads attached to the
    // revocation via follow-from instead of opening their own traces.
    let roots: Vec<_> = trace.iter().filter(|s| s.ctx.is_root()).collect();
    assert_eq!(
        roots.len(),
        1,
        "parallel re-encryption split the revocation into {} traces",
        roots.len()
    );
    assert_eq!(roots[0].ctx.span_id, root.ctx.span_id);

    // No orphans anywhere in the tree: every parent id resolves to a
    // span of the same trace (workers included).
    let ids: BTreeSet<u64> = trace.iter().map(|s| s.ctx.span_id).collect();
    for s in &trace {
        assert!(
            s.ctx.is_root() || ids.contains(&s.ctx.parent_id),
            "span {} (id {}) has dangling parent {}",
            s.name,
            s.ctx.span_id,
            s.ctx.parent_id
        );
    }

    // The pool really ran: worker spans exist, each follows from the
    // re-encryption phase span of *this* revocation.
    let workers: Vec<_> = trace
        .iter()
        .filter(|s| s.name == "cloud.reencrypt.worker")
        .collect();
    assert!(
        workers.len() >= 2,
        "expected a real fan-out, got {} worker spans",
        workers.len()
    );
    let by_id: std::collections::BTreeMap<u64, &&SpanRecord> =
        trace.iter().map(|s| (s.ctx.span_id, s)).collect();
    for w in &workers {
        let parent = by_id
            .get(&w.ctx.parent_id)
            .expect("worker parent is in the same trace");
        assert_eq!(
            parent.name, "cloud.reencrypt_phase",
            "worker follows from the phase span, not {}",
            parent.name
        );
    }

    // Workers only prepare. Every per-component re-encrypt span is an
    // apply, which runs on the revoking thread in worklist order: each
    // sits directly below this revocation's phase span, never below a
    // worker.
    let reencrypts: Vec<_> = trace
        .iter()
        .filter(|s| s.name == "cloud.reencrypt")
        .collect();
    assert_eq!(
        reencrypts.len(),
        7,
        "one re-encrypt span per affected component"
    );
    for r in &reencrypts {
        let parent = by_id
            .get(&r.ctx.parent_id)
            .expect("re-encrypt parent is in the same trace");
        assert_eq!(
            parent.name, "cloud.reencrypt_phase",
            "a re-encrypt span sits below {}, not the phase",
            parent.name
        );
    }
}

#[test]
fn chrome_trace_export_of_a_live_run_is_well_formed() {
    let authority = "ChromeOrg";
    let (ds, bob) = doctor_world(authority, FaultInjector::none());
    ds.revoke(&bob, &format!("Doctor@{authority}")).unwrap();

    let spans = mabe_trace::snapshot();
    let chrome = mabe_trace::chrome_trace(&spans);
    assert_well_formed_json(&chrome);
    assert!(chrome.starts_with('[') && chrome.trim_end().ends_with(']'));
    assert!(chrome.contains("\"ph\":\"X\""), "no complete events");
    assert!(chrome.contains("durable.revoke"));

    let tree = mabe_trace::tree_json(&spans);
    assert_well_formed_json(&tree);
    assert!(tree.contains("\"format\":\"mabe-trace/v1\""));
}

#[test]
fn poisoned_durable_system_dumps_a_forensics_artifact() {
    let dir = std::env::temp_dir().join(format!("mabe-trace-poison-{}", std::process::id()));
    // Set before the poison fires; `dump_if_configured` reads it at
    // dump time. Nothing else in this binary poisons, so the only
    // artifact that can appear here is ours.
    std::env::set_var(mabe_trace::dump::DIR_ENV, &dir);

    let authority = "PoisonOrg";
    let (mut ds, bob) = doctor_world(authority, FaultInjector::none());
    ds.storage_mut()
        .injector_mut()
        .schedule(store_points::APPEND, 1, FaultKind::Crash);
    ds.revoke(&bob, &format!("Doctor@{authority}"))
        .expect_err("journal write was scheduled to crash");
    assert!(ds.poisoned());

    // The case name is sanitized into the filename: "store.append"
    // becomes "store_append".
    let expected = dir.join(format!(
        "trace_{SEED}_poison_{}.json",
        store_points::APPEND.replace('.', "_")
    ));
    let body = std::fs::read_to_string(&expected)
        .unwrap_or_else(|e| panic!("missing poison artifact {}: {e}", expected.display()));
    assert!(body.contains("\"format\":\"mabe-trace-artifact/v1\""));
    assert!(body.contains(&format!("\"seed\":{SEED}")));
    assert_well_formed_json(&body);
    std::env::remove_var(mabe_trace::dump::DIR_ENV);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_ctx_child_links_back_to_parent() {
    let parent = TraceCtx {
        trace_id: 7,
        span_id: 40,
        parent_id: TraceCtx::NO_PARENT,
    };
    let child = parent.child_of(41);
    assert_eq!(child.trace_id, 7);
    assert_eq!(child.parent_id, 40);
    assert!(parent.is_root() && !child.is_root());
}

/// A string-aware structural JSON check: balanced brackets outside
/// strings, valid escapes inside, nothing trailing. Not a full parser —
/// enough to catch the classic hand-rolled-JSON failures (unescaped
/// quotes, truncation, bracket mismatch).
fn assert_well_formed_json(s: &str) {
    let mut stack = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                assert!(
                    matches!(c, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                    "invalid escape \\{c}"
                );
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            } else {
                assert!(c >= ' ', "raw control character {c:?} inside JSON string");
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => stack.push(c),
            ']' => assert_eq!(stack.pop(), Some('['), "bracket mismatch"),
            '}' => assert_eq!(stack.pop(), Some('{'), "brace mismatch"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(stack.is_empty(), "unclosed brackets: {stack:?}");
}
