//! A delta checkpoint costs the change, not the live state.
//!
//! Two two-authority stores, one of 64 records and one of 1,000, each
//! cut a full checkpoint and then run the same change: a publish, a
//! replacement and 62 reads, whose last op cuts an automatic checkpoint.
//! That checkpoint is a delta of what the change journaled, so it is
//! the same size at both store sizes, while the full snapshots differ
//! by more than 10×. Measured in bytes, so it repeats exactly.

use mabe_bench::checkpoints::RecordStore;

/// `(snapshot bytes, delta bytes)` of a store of `records` records.
fn checkpoint_bytes(records: usize) -> (usize, usize) {
    let store = RecordStore::new(records, 0xde17a);
    let base = store.ds.generation();
    store.change();
    let generation = store.ds.generation();
    assert_eq!(generation, base + 1);
    let delta = store.object_bytes(&format!("delta-{generation}"));
    assert!(delta > 0, "{records} records: the change cut no delta");
    (store.object_bytes(&format!("snapshot-{base}")), delta)
}

#[test]
fn a_delta_costs_the_change_at_64_and_at_1000_records() {
    let (small_snapshot, small_delta) = checkpoint_bytes(64);
    let (large_snapshot, large_delta) = checkpoint_bytes(1_000);
    let (lo, hi) = (small_delta.min(large_delta), small_delta.max(large_delta));
    assert!(
        hi * 10 <= lo * 11,
        "deltas of {small_delta} and {large_delta} bytes differ by more than 10%"
    );
    assert!(
        large_snapshot >= 10 * small_snapshot,
        "snapshots of {small_snapshot} and {large_snapshot} bytes"
    );
    assert!(large_delta * 10 < large_snapshot);
}
