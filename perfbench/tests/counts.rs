//! The benchmark's per-layer counts repeat exactly for a seed, agree
//! between the traced and the untraced run, and match the scheme's cost
//! model. Run with `cargo test --release` from this package: pairings in
//! a debug build are slow.

use std::sync::Mutex;

use perfbench::counts::Counts;
use perfbench::plan::{Kind, Plan, Workload};
use perfbench::{run, traced};

/// The program's metric registry is process-wide, so tests that read it
/// run one at a time.
static REGISTRY: Mutex<()> = Mutex::new(());

/// A brief plan: two blocks, or five for `churn_lazy` so that it drains.
fn brief(workload: Workload) -> Plan {
    let blocks = if workload == Workload::ChurnLazy {
        5
    } else {
        2
    };
    Plan::new(workload, 20120618, blocks * workload.block())
}

#[test]
fn per_layer_counts_repeat_exactly_and_match_the_untraced_run() {
    let _lock = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let plan = brief(workload);
        let first = traced::trace_ops(&plan).expect("checks pass");
        let second = traced::trace_ops(&plan).expect("checks pass");
        assert_eq!(
            first.counts_by_kind(),
            second.counts_by_kind(),
            "{}: per-kind counts differ between two runs of one seed",
            workload.name()
        );
        let untraced = run::run(&plan, 1, 1).expect("checks pass");
        assert_eq!(
            first.total(),
            untraced.counts,
            "{}: traced and untraced counts differ",
            workload.name()
        );
        let by_kind = first.counts_by_kind();
        let read = by_kind[Kind::Read.index()];
        assert!(
            read.commits > 0 && read.wal_bytes > 0,
            "{}",
            workload.name()
        );
        assert!(read.events > 0, "{}", workload.name());
        if workload == Workload::ChurnLazy {
            assert!(by_kind[Kind::Drain.index()].drained > 0);
        }
    }
}

#[test]
fn a_cold_5x5_read_costs_55_pairings_and_a_hot_hit_costs_none() {
    let _lock = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let per_read = |workload: Workload| -> (Counts, usize) {
        let traced = traced::trace_ops(&brief(workload)).expect("checks pass");
        (
            traced.counts_by_kind()[Kind::Read.index()],
            traced.attempted_by_kind()[Kind::Read.index()],
        )
    };

    // n_A + 2·|I| with n_A = 5 authorities and |I| = 25 attributes.
    let (cold, reads) = per_read(Workload::Cold5x5);
    assert_eq!(cold.pairings, 55 * reads as u64);
    assert_eq!(cold.content_misses, reads as u64);
    assert_eq!(cold.content_hits, 0);

    let (hot, reads) = per_read(Workload::HotZipf);
    assert_eq!(hot.content_hits, reads as u64);
    assert_eq!(hot.content_misses, 0);
    assert_eq!(hot.pairings, 0);
}
