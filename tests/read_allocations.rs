//! A warmed hot read allocates only what it keeps.
//!
//! The cloud server answers every user's downloads, so whatever a
//! served read spends beyond its AEAD open is paid on every request. A
//! counting global allocator counts the heap allocations one warmed,
//! traced `DurableSystem::read` makes on the calling thread (reallocs
//! included). What remains are the allocations that outlive the call:
//!
//! 1. the plaintext `Vec<u8>` the read returns;
//! 2. to 5. the four strings of the `AuditEvent::Read` entry (reader,
//!    owner, record, component), which the live audit chain keeps;
//! 6. the copy of the op span's detail that the kept wide event carries
//!    in the `/eventz` ring (the span's own detail stays in the flight
//!    recorder).
//!
//! Everything else is reused. Spans open on detail and event buffers
//! recycled from the records they displace from the flight recorder,
//! op attributes are typed (the reader's uid is shared, not copied),
//! the wide-event assembler folds on a per-thread stack, the record
//! lookup borrows its owner and name, the content-key lookup's key is
//! the reader's and the owner's shared ids, the wire transcript
//! overwrites its oldest entry in place, the audit digest streams the
//! entry's text, and the journal batch encodes into buffers the op
//! state and the group commit keep. An occasional read also grows a
//! buffer by doubling (the audit log's entries, the simulated disk's
//! segment), so the bound is checked on the median of several reads.
//!
//! A warmed cold read (a content-key miss by a reader whose `PK_UID`
//! lines and key-side table for the policy are built) is bounded too:
//! it shares the reader's keys for the owner instead of cloning them,
//! and keeps no table it did not build.
//!
//! This file holds one test, so its process runs nothing else.
//! Automatic checkpoints are off, since a checkpoint is maintenance
//! rather than part of the read that happens to trigger it, and the
//! wide-event sampler keeps every event, as in `metric_lookups.rs`. The
//! warm-up wraps every ring a read writes to (spans, kept events and
//! the wire transcript), so the measured reads run in steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;

/// Counts allocations on threads that switched counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; counting only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning how many allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get)
}

const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";

/// Hot reads measured; the median is checked.
const MEASURED: usize = 9;

/// The most a warmed hot read may allocate.
const MAX_HOT_READ_ALLOCATIONS: u64 = 10;

/// The most a warmed cold read may allocate.
const MAX_COLD_READ_ALLOCATIONS: u64 = 33;

#[test]
fn a_warmed_hot_read_allocates_only_what_it_keeps() {
    mabe_events::global().set_keep_1_in(1);
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0xa110c).unwrap();
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

    // Warm-up: enough publishes and first reads for the prepared key
    // tables and lines, then enough hot reads to wrap the flight
    // recorder, the kept-event ring and the wire transcript.
    for n in 0..6 {
        publish(&format!("warm-{n}"));
    }
    for n in 0..4 {
        read(&format!("warm-{n}"));
    }
    let wrap = mabe_trace::DEFAULT_CAPACITY
        .max(mabe_events::EventsConfig::default().ring_capacity)
        .max(mabe_cloud::TRANSCRIPT_CAPACITY);
    for i in 0..wrap + 64 {
        read(&format!("warm-{}", i % 4));
    }

    let names: Vec<String> = (0..MEASURED).map(|i| format!("warm-{}", i % 4)).collect();
    let mut hot: Vec<u64> = names
        .iter()
        .map(|name| allocations(|| read(name)))
        .collect();
    let cold_names: Vec<String> = (0..MEASURED).map(|i| format!("cold-{i}")).collect();
    for name in &cold_names {
        publish(name);
    }
    let mut cold: Vec<u64> = cold_names
        .iter()
        .map(|name| allocations(|| read(name)))
        .collect();
    let published = allocations(|| publish("late"));
    println!("hot reads: {hot:?}; cold reads: {cold:?}; a publish: {published}");
    let median = |counts: &mut Vec<u64>| {
        counts.sort_unstable();
        counts[MEASURED / 2]
    };
    let hot_median = median(&mut hot);
    assert!(
        hot_median <= MAX_HOT_READ_ALLOCATIONS,
        "a warmed hot read made {hot_median} allocations (median of {hot:?})"
    );
    let cold_median = median(&mut cold);
    assert!(
        cold_median <= MAX_COLD_READ_ALLOCATIONS,
        "a warmed cold read made {cold_median} allocations (median of {cold:?})"
    );
}
