//! Lazy-revocation bench: eager vs deferred re-encryption under a
//! revocation storm with live readers.
//!
//! For each component count, the same storm (a cohort revoked
//! back-to-back while reader threads loop over every record) runs
//! [`STORMS`] times eager and [`STORMS`] times lazy, and each row pools
//! its storms' samples into three numbers:
//!
//! - `revoke_ack_ms` — mean time for `revoke()` to return. Eager pays
//!   the full proxy re-encryption inline, so it scales with the
//!   component count; lazy acks after the immediate phase (version
//!   bump, update-key journal, key delivery) and must not scale.
//! - `reader_p99_ms` — 99th-percentile read latency during the storm
//!   window. Eager reads are consistency-first: one that lands mid-pass
//!   waits out the whole inline re-encryption behind the key-delivery
//!   barrier, so the tail scales with the component count. Lazy reads
//!   pay at most one read-triggered component upgrade, independent of
//!   the storm size.
//! - `convergence_ms` — storm start until every ciphertext is current
//!   (eager: last ack + recovery; lazy: + queue drain, where stacked
//!   revocations compose into one batched pass per component).
//!
//! Each side is judged on its own numbers, never as a ratio to the
//! other, so neither gets better by the other getting worse: the
//! baseline gates the lazy reader p99, the lazy ack and the eager ack
//! at the largest size. The run asserts the lazy mode's properties:
//! its ack and its reader p99 do not scale with the component count
//! (each ≤3x across a 6x size spread, against eager's roughly linear
//! growth). One storm at the small size gives a few hundred reads, so
//! its p99 rests on three or four samples; pooling [`STORMS`] storms
//! gives it ten or more.
//!
//! Usage: `revocation_lazy [max_components]` (default 144; the small
//! size is max/6). With `MABE_METRICS_DIR` set the rows are dumped as
//! `BENCH_revocation_lazy.json` alongside the registry snapshot.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use mabe_cloud::CloudSystem;

const COHORT: usize = 3;
const READERS: usize = 2;
/// Storms pooled into each row.
const STORMS: usize = 3;

struct Row {
    mode: &'static str,
    components: usize,
    revoke_ack_ms: f64,
    reader_p50_ms: f64,
    reader_p99_ms: f64,
    reads: usize,
    convergence_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What one storm measured.
struct Storm {
    acks_ms: Vec<f64>,
    reads_ms: Vec<f64>,
    convergence_ms: f64,
}

/// [`STORMS`] storms of one mode and size, pooled: the mean ack over
/// every revoke, read percentiles over every read, and the median
/// convergence.
fn measure(lazy: bool, components: usize) -> Row {
    let storms: Vec<Storm> = (0..STORMS).map(|_| storm(lazy, components)).collect();
    let acks: Vec<f64> = storms.iter().flat_map(|s| s.acks_ms.clone()).collect();
    let mut lat: Vec<f64> = storms.iter().flat_map(|s| s.reads_ms.clone()).collect();
    lat.sort_by(f64::total_cmp);
    let mut convergence: Vec<f64> = storms.iter().map(|s| s.convergence_ms).collect();
    convergence.sort_by(f64::total_cmp);
    let top: Vec<String> = lat
        .iter()
        .rev()
        .take(8)
        .map(|v| format!("{v:.1}"))
        .collect();
    eprintln!("# tail lazy={lazy} n={components}: [{}]", top.join(", "));
    Row {
        mode: if lazy { "lazy" } else { "eager" },
        components,
        revoke_ack_ms: acks.iter().sum::<f64>() / acks.len() as f64,
        reader_p50_ms: percentile(&lat, 0.50),
        reader_p99_ms: percentile(&lat, 0.99),
        reads: lat.len(),
        convergence_ms: convergence[convergence.len() / 2],
    }
}

/// One storm: `COHORT` holders revoked back-to-back while `READERS`
/// threads loop reads over every record. Readers sample latency only
/// inside the storm window (first revoke until convergence), so the
/// percentiles measure exactly the availability hit of each mode.
fn storm(lazy: bool, components: usize) -> Storm {
    let sys = Arc::new(CloudSystem::new(
        0x1a2e_0000 + components as u64 * 2 + lazy as u64,
    ));
    sys.set_lazy_revocation(lazy);
    sys.add_authority("Org", &["A"]).expect("fresh authority");
    let owner = sys.add_owner("owner").expect("fresh owner");
    let bob = sys.add_user("bob").expect("fresh user");
    sys.grant(&bob, &["A@Org"]).expect("grant");
    let cohort: Vec<_> = (0..COHORT)
        .map(|i| {
            let uid = sys.add_user(&format!("victim-{i}")).expect("fresh user");
            sys.grant(&uid, &["A@Org"]).expect("grant");
            uid
        })
        .collect();
    for i in 0..components {
        sys.publish(
            &owner,
            &format!("rec-{i}"),
            &[("f", b"payload".as_slice(), "A@Org")],
        )
        .expect("publish");
    }
    // Warm pass so the storm-window samples only measure the storm.
    for i in 0..components {
        sys.read(&bob, &owner, &format!("rec-{i}"), "f")
            .expect("warm read");
    }

    let stop = AtomicBool::new(false);
    let samples = Mutex::new(Vec::<f64>::new());
    let mut acks_ms = Vec::with_capacity(COHORT);
    let started = Instant::now();
    let mut convergence_ms = 0.0;

    thread::scope(|s| {
        for t in 0..READERS {
            let sys = Arc::clone(&sys);
            let (owner, bob) = (owner.clone(), bob.clone());
            let (stop, samples) = (&stop, &samples);
            s.spawn(move || {
                let mut local = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let r = i % components;
                    i += 1;
                    let start = Instant::now();
                    sys.read(&bob, &owner, &format!("rec-{r}"), "f")
                        .expect("live reader never errors");
                    local.push(start.elapsed().as_secs_f64() * 1e3);
                }
                samples.lock().unwrap().extend(local);
            });
        }

        for uid in &cohort {
            let start = Instant::now();
            sys.revoke(uid, "A@Org").expect("revoke");
            acks_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        while sys.needs_recovery() {
            sys.recover().expect("recover");
        }
        while sys.lazy_queue_depth() > 0 {
            assert!(sys.drain_lazy().expect("drain") > 0, "queue stuck");
        }
        convergence_ms = started.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
    });

    Storm {
        acks_ms,
        reads_ms: samples.into_inner().unwrap(),
        convergence_ms,
    }
}

struct Summary {
    lazy_ack_scaling: f64,
    lazy_reader_p99_scaling: f64,
}

fn emit_json(rows: &[Row], s: &Summary) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"mode\": \"{}\", \"components\": {}, \"revoke_ack_ms\": {:.3}, \
                 \"reader_p50_ms\": {:.3}, \"reader_p99_ms\": {:.3}, \"reads\": {}, \
                 \"convergence_ms\": {:.3}}}",
                r.mode,
                r.components,
                r.revoke_ack_ms,
                r.reader_p50_ms,
                r.reader_p99_ms,
                r.reads,
                r.convergence_ms
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"bench\": \"revocation_lazy\",\n\"cohort\": {COHORT},\n\
         \"storms\": {STORMS},\n\"lazy_ack_scaling\": {:.3},\n\
         \"lazy_reader_p99_scaling\": {:.3},\n\"rows\": [\n{}\n]}}\n",
        s.lazy_ack_scaling,
        s.lazy_reader_p99_scaling,
        body.join(",\n")
    );
    let path = std::path::Path::new(&dir).join("BENCH_revocation_lazy.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_revocation_lazy.json failed: {e}"),
    }
}

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .filter(|&n| n >= 12)
        .unwrap_or(144);
    let small = max / 6;

    eprintln!("# revocation_lazy: cohort {COHORT}, {READERS} readers, components {small}/{max}");
    println!(
        "mode\tcomponents\trevoke_ack_ms\treader_p50_ms\treader_p99_ms\treads\tconvergence_ms"
    );

    let mut rows = Vec::new();
    for components in [small, max] {
        for lazy in [false, true] {
            let row = measure(lazy, components);
            println!(
                "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{}\t{:.3}",
                row.mode,
                row.components,
                row.revoke_ack_ms,
                row.reader_p50_ms,
                row.reader_p99_ms,
                row.reads,
                row.convergence_ms
            );
            rows.push(row);
        }
    }

    let find = |mode: &str, components: usize| {
        rows.iter()
            .find(|r| r.mode == mode && r.components == components)
            .expect("row measured")
    };
    let summary = Summary {
        lazy_ack_scaling: find("lazy", max).revoke_ack_ms
            / find("lazy", small).revoke_ack_ms.max(1e-9),
        lazy_reader_p99_scaling: find("lazy", max).reader_p99_ms
            / find("lazy", small).reader_p99_ms.max(1e-9),
    };
    eprintln!(
        "# lazy over a 6x size spread: ack {:.2}x, reader p99 {:.2}x",
        summary.lazy_ack_scaling, summary.lazy_reader_p99_scaling
    );

    assert!(
        summary.lazy_ack_scaling <= 3.0,
        "lazy revoke ack must not scale with component count \
         (got {:.2}x across a 6x size spread)",
        summary.lazy_ack_scaling
    );
    assert!(
        summary.lazy_reader_p99_scaling <= 3.0,
        "lazy reader p99 must not scale with component count \
         (got {:.2}x across a 6x size spread)",
        summary.lazy_reader_p99_scaling
    );
    emit_json(&rows, &summary);
    mabe_bench::metrics::emit("revocation_lazy");
    mabe_obs::profiler::emit("revocation_lazy");
}
