//! Compaction bench: the cost side of the log lifecycle.
//!
//! Three measurements over a [`DurableSystem`] on a [`SimDisk`]:
//!
//! 1. **Reopen latency vs. segment count** — with checkpointing off and
//!    a tiny segment budget, the journal is grown until it spans the
//!    target number of segments, power-cycled, and `open` timed (best
//!    of a few trials, same as the `recovery` bench). One TSV row per
//!    target.
//! 2. **Reclaim throughput** — a bloated multi-segment log is
//!    checkpointed once; reported as superseded bytes GC'd per second
//!    of wall-clock compaction.
//! 3. **Read p99 under active compaction** — a writer thread churns
//!    filler appends and checkpoints in a loop while the main thread
//!    samples read latency; the p50/p99 quantify how much the
//!    maintenance machinery steals from the read path.
//! 4. **Delta vs. full checkpoint** (printed, not gated) — at 64 and at
//!    1,000 records, the read whose automatic checkpoint writes the
//!    delta of a fixed 64-op change ([`RecordStore::change`]), and an
//!    explicit full checkpoint right after it, each with the bytes it
//!    wrote.
//!
//! Usage: `compaction [segment-targets...]` (default 4 16 48).
//! `RANDOM_SEED=<u64>` overrides the world seed (default 42). With
//! `MABE_METRICS_DIR` set the results are also dumped as
//! `BENCH_compaction.json` for the perf gate.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mabe_bench::checkpoints::RecordStore;
use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;

const SEGMENT_BUDGET: usize = 1024;
const REOPEN_TRIALS: usize = 3;
const READ_SAMPLES: usize = 400;

struct ReopenRow {
    segments: usize,
    live_bytes: usize,
    reopen_ms: f64,
}

struct ReclaimRow {
    bytes_reclaimed: usize,
    compact_ms: f64,
    mb_per_s: f64,
}

struct CheckpointRow {
    records: usize,
    delta_ms: f64,
    delta_bytes: usize,
    full_ms: f64,
    full_bytes: usize,
}

struct ReadRow {
    samples: usize,
    checkpoints: u64,
    p50_us: f64,
    p99_us: f64,
}

/// A small durable world with rotation pressure: tiny segments, no
/// auto-checkpointing, and one user whose offline toggles make cheap
/// journaled filler.
fn world(seed: u64) -> (DurableSystem<SimDisk>, mabe_core::Uid, mabe_core::OwnerId) {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), seed).expect("fresh open never fails");
    ds.set_segment_budget(SEGMENT_BUDGET);
    ds.set_checkpoint_interval(usize::MAX);
    ds.set_wal_budget(usize::MAX);
    ds.add_authority("MedOrg", &["Doctor"]).expect("setup");
    let owner = ds.add_owner("hospital").expect("setup");
    let alice = ds.add_user("alice").expect("setup");
    ds.grant(&alice, &["Doctor@MedOrg"]).expect("setup");
    ds.publish(
        &owner,
        "rec",
        &[("f", b"payload".as_slice(), "Doctor@MedOrg")],
    )
    .expect("setup");
    (ds, alice, owner)
}

fn fill_to_segments(ds: &DurableSystem<SimDisk>, alice: &mabe_core::Uid, segments: usize) {
    while ds.segments_live() < segments {
        ds.set_offline(alice).expect("filler");
    }
}

fn measure_reopen(target: usize, seed: u64) -> ReopenRow {
    let (ds, alice, _) = world(seed);
    fill_to_segments(&ds, &alice, target);
    let segments = ds.segments_live();
    let live_bytes = ds.live_log_bytes();
    let mut disk = ds.into_storage();

    let mut best_ms = f64::INFINITY;
    for trial in 0..REOPEN_TRIALS {
        disk.crash();
        let start = Instant::now();
        let (reopened, _) = DurableSystem::open(disk, seed ^ (trial as u64 + 1)).expect("reopen");
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        disk = reopened.into_storage();
    }
    ReopenRow {
        segments,
        live_bytes,
        reopen_ms: best_ms,
    }
}

fn measure_reclaim(seed: u64) -> ReclaimRow {
    let (ds, alice, _) = world(seed);
    fill_to_segments(&ds, &alice, 48);
    let before = ds.live_log_bytes();
    let start = Instant::now();
    ds.checkpoint().expect("compaction");
    let compact_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes_reclaimed = before.saturating_sub(ds.live_log_bytes());
    ReclaimRow {
        bytes_reclaimed,
        compact_ms,
        mb_per_s: if compact_ms > 0.0 {
            (bytes_reclaimed as f64 / 1e6) / (compact_ms / 1e3)
        } else {
            f64::INFINITY
        },
    }
}

fn measure_reads_under_compaction(seed: u64) -> ReadRow {
    let (ds, alice, owner) = world(seed);
    fill_to_segments(&ds, &alice, 16);
    let ds = Arc::new(ds);
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: keep the log lifecycle genuinely busy — refill a few
    // segments, compact, repeat — until the reader is done sampling.
    let churn = {
        let ds = Arc::clone(&ds);
        let alice = alice.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checkpoints = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..64 {
                    let _ = ds.set_offline(&alice);
                }
                if ds.checkpoint().is_ok() {
                    checkpoints += 1;
                }
            }
            checkpoints
        })
    };

    let mut samples_us = Vec::with_capacity(READ_SAMPLES);
    for _ in 0..READ_SAMPLES {
        let start = Instant::now();
        ds.read(&alice, &owner, "rec", "f").expect("read");
        samples_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stop.store(true, Ordering::Relaxed);
    let checkpoints = churn.join().expect("churn thread");

    samples_us.sort_by(|a, b| a.total_cmp(b));
    let quantile = |q: f64| samples_us[((samples_us.len() - 1) as f64 * q) as usize];
    ReadRow {
        samples: samples_us.len(),
        checkpoints,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
    }
}

fn measure_checkpoints(records: usize, seed: u64) -> CheckpointRow {
    let store = RecordStore::new(records, seed);
    let delta = store.change();
    let generation = store.ds.generation();
    // Read before the full checkpoint collects it.
    let delta_bytes = store.object_bytes(&format!("delta-{generation}"));
    let start = Instant::now();
    store.ds.checkpoint().expect("full checkpoint");
    let full = start.elapsed();
    CheckpointRow {
        records,
        delta_ms: delta.as_secs_f64() * 1e3,
        delta_bytes,
        full_ms: full.as_secs_f64() * 1e3,
        full_bytes: store.object_bytes(&format!("snapshot-{}", generation + 1)),
    }
}

fn emit_json(reopens: &[ReopenRow], reclaim: &ReclaimRow, reads: &ReadRow) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let rows: Vec<String> = reopens
        .iter()
        .map(|r| {
            format!(
                "{{\"segments\": {}, \"live_bytes\": {}, \"reopen_ms\": {:.3}}}",
                r.segments, r.live_bytes, r.reopen_ms
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"bench\": \"compaction\",\n\"reopen\": [\n{}\n],\n\
         \"reclaim\": {{\"bytes_reclaimed\": {}, \"compact_ms\": {:.3}, \"mb_per_s\": {:.3}}},\n\
         \"read_under_compaction\": {{\"samples\": {}, \"checkpoints\": {}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}}}\n}}\n",
        rows.join(",\n"),
        reclaim.bytes_reclaimed,
        reclaim.compact_ms,
        reclaim.mb_per_s,
        reads.samples,
        reads.checkpoints,
        reads.p50_us,
        reads.p99_us
    );
    let path = std::path::Path::new(&dir).join("BENCH_compaction.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_compaction.json failed: {e}"),
    }
}

fn main() {
    let targets: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![4, 16, 48]
        } else {
            args
        }
    };
    let seed: u64 = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("# compaction: log-lifecycle costs, seed {seed}");

    println!("segments\tlive_bytes\treopen_ms");
    let mut reopens = Vec::with_capacity(targets.len());
    for target in targets {
        let row = measure_reopen(target, seed);
        println!("{}\t{}\t{:.3}", row.segments, row.live_bytes, row.reopen_ms);
        reopens.push(row);
    }

    let reclaim = measure_reclaim(seed);
    println!(
        "reclaim\t{} bytes\t{:.3} ms\t{:.3} MB/s",
        reclaim.bytes_reclaimed, reclaim.compact_ms, reclaim.mb_per_s
    );

    let reads = measure_reads_under_compaction(seed);
    println!(
        "reads_under_compaction\t{} samples\t{} checkpoints\tp50 {:.1} us\tp99 {:.1} us",
        reads.samples, reads.checkpoints, reads.p50_us, reads.p99_us
    );

    println!("records\tdelta_ms\tdelta_bytes\tfull_ms\tfull_bytes");
    for records in [64, 1_000] {
        let row = measure_checkpoints(records, seed);
        println!(
            "{}\t{:.3}\t{}\t{:.3}\t{}",
            row.records, row.delta_ms, row.delta_bytes, row.full_ms, row.full_bytes
        );
    }

    emit_json(&reopens, &reclaim, &reads);
    mabe_bench::metrics::emit("compaction");
    mabe_obs::profiler::emit("compaction");
}
