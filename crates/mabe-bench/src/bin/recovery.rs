//! Recovery bench: reopen latency and replay throughput vs. WAL length.
//!
//! For each workload size the harness builds a durable world on a
//! [`SimDisk`] with checkpointing disabled — neither the op count nor
//! the WAL byte budget triggers one, so the whole history lives in the
//! journal — power-cycles it, and times `DurableSystem::open` —
//! snapshot decode, record replay, audit-chain verification, and
//! stalled-revocation recovery, end to end. One TSV row per size; the
//! reopen is repeated a few times and the best run reported, since the
//! point is the cost of replay, not allocator noise.
//!
//! Usage: `recovery [ops...]` (default sizes 8 32 128).
//! `RANDOM_SEED=<u64>` overrides the world seed (default 42). With
//! `MABE_METRICS_DIR` set the rows are also dumped as
//! `BENCH_recovery.json` alongside the standard registry snapshot.

use std::io::Write as _;
use std::time::Instant;

use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;

const REOPEN_TRIALS: usize = 3;

struct Row {
    ops: usize,
    records: usize,
    wal_bytes: usize,
    reopen_ms: f64,
    replay_per_s: f64,
}

/// Builds a world whose journal holds `ops` operations past setup: a
/// steady publish stream with periodic audited reads and a
/// revoke/re-grant churn every eighth op, so replay exercises every
/// record type including re-keys and proxy re-encryption.
fn build(ops: usize, seed: u64) -> DurableSystem<SimDisk> {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), seed).expect("fresh open never fails");
    ds.set_checkpoint_interval(usize::MAX);
    ds.set_wal_budget(usize::MAX);
    ds.add_authority("MedOrg", &["Doctor", "Nurse"])
        .expect("setup");
    let owner = ds.add_owner("hospital").expect("setup");
    let alice = ds.add_user("alice").expect("setup");
    let bob = ds.add_user("bob").expect("setup");
    ds.grant(&alice, &["Doctor@MedOrg"]).expect("setup");
    ds.grant(&bob, &["Nurse@MedOrg"]).expect("setup");

    for i in 0..ops {
        match i % 8 {
            7 => {
                ds.revoke(&alice, "Doctor@MedOrg").expect("revoke");
                ds.grant(&alice, &["Doctor@MedOrg"]).expect("re-grant");
            }
            3 => {
                // Audited read of an earlier record; journals one entry.
                let _ = ds.read(&bob, &owner, &format!("rec-{}", i - 3), "f");
            }
            _ => {
                ds.publish(
                    &owner,
                    &format!("rec-{i}"),
                    &[("f", b"payload".as_slice(), "Doctor@MedOrg OR Nurse@MedOrg")],
                )
                .expect("publish");
            }
        }
    }
    ds
}

fn measure(ops: usize, seed: u64) -> Row {
    let ds = build(ops, seed);
    let mut disk = ds.into_storage();

    let mut best_ms = f64::INFINITY;
    let mut records = 0;
    let mut wal_bytes = 0;
    for trial in 0..REOPEN_TRIALS {
        disk.crash();
        let start = Instant::now();
        let (reopened, report) =
            DurableSystem::open(disk, seed ^ (trial as u64 + 1)).expect("reopen");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(elapsed);
        records = report.records_replayed;
        wal_bytes = report.wal.record_bytes;
        disk = reopened.into_storage();
    }

    Row {
        ops,
        records,
        wal_bytes,
        reopen_ms: best_ms,
        replay_per_s: if best_ms > 0.0 {
            records as f64 / (best_ms / 1e3)
        } else {
            f64::INFINITY
        },
    }
}

fn emit_json(rows: &[Row]) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"ops\": {}, \"records\": {}, \"wal_bytes\": {}, \
                 \"reopen_ms\": {:.3}, \"replay_records_per_s\": {:.1}}}",
                r.ops, r.records, r.wal_bytes, r.reopen_ms, r.replay_per_s
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"bench\": \"recovery\",\n\"rows\": [\n{}\n]}}\n",
        body.join(",\n")
    );
    let path = std::path::Path::new(&dir).join("BENCH_recovery.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_recovery.json failed: {e}"),
    }
}

fn main() {
    let sizes: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![8, 32, 128]
        } else {
            args
        }
    };
    let seed: u64 = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("# recovery: reopen latency vs WAL length, seed {seed}");
    println!("ops\trecords\twal_bytes\treopen_ms\treplay_records_per_s");

    let mut rows = Vec::with_capacity(sizes.len());
    for ops in sizes {
        let row = measure(ops, seed);
        println!(
            "{}\t{}\t{}\t{:.3}\t{:.1}",
            row.ops, row.records, row.wal_bytes, row.reopen_ms, row.replay_per_s
        );
        rows.push(row);
    }
    emit_json(&rows);
    mabe_bench::metrics::emit("recovery");
    mabe_obs::profiler::emit("recovery");
}
