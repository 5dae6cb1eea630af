//! Parallel proxy re-encryption bench: the wall-clock speedup of one
//! revocation whose re-encryptions are prepared on `N` threads instead
//! of one.
//!
//! `N` is `min(available_parallelism, 4)`, and at least 2. Each round
//! builds the same world twice (same seed, `components` records under
//! one attribute), revokes its only holder once at width 1 and once at
//! width `N`, in alternating order, and times each `revoke()`. The
//! gated `wall_speedup` is the median over rounds of the per-round
//! ratio `wall_ms_1 / wall_ms_n`, so a slow spell of the host moves
//! both sides of a ratio alike. Apply stays on the revoking thread, in
//! worklist order, at any width; only the prepare (`UI` and
//! `e(UK1, C')`) spreads.
//!
//! A shared VM does not always deliver the cores it reports: when its
//! other vCPUs run someone else's work, `N` threads of pure pairings
//! finish no sooner than one. So each round also times the same
//! pairings on 1 and on `N` threads (`host_speedup`), and the run
//! asserts that the revocation reaches at least [`MIN_EFFICIENCY`] of
//! what the host delivered: `median(wall_speedup / host_speedup)`.
//! Serialized re-encryption reads about 1 / `N` there on any host. A
//! 1-core host reports the rounds and skips the assertion
//! (`"gated": false`).
//!
//! Usage: `revocation_parallel [components]` (default 96). With
//! `MABE_METRICS_DIR` set the summary and the rounds are dumped as
//! `BENCH_revocation_parallel.json` alongside the registry snapshot.

use std::io::Write as _;
use std::time::Instant;

use mabe_cloud::CloudSystem;

/// Interleaved rounds; each measures width 1 and width `N` once.
const ROUNDS: usize = 7;

/// Fraction of the host's own `N`-thread speedup the revocation must
/// reach. Its serial part (the step's tables, the in-order applies, key
/// delivery) keeps it under 1.
const MIN_EFFICIENCY: f64 = 0.7;

/// Pairings per thread in the host probe.
const PROBE_PAIRINGS: usize = 8;

struct Round {
    wall_ms_1: f64,
    wall_ms_n: f64,
    host_speedup: f64,
}

impl Round {
    fn speedup(&self) -> f64 {
        self.wall_ms_1 / self.wall_ms_n
    }
}

/// The host's wall-clock speedup on `workers` threads right now: the
/// time of `workers × PROBE_PAIRINGS` pairings on one thread over the
/// time of the same pairings spread over `workers` threads.
fn host_speedup(workers: usize) -> f64 {
    let g = mabe_math::G1Affine::generator();
    let run = |n: usize| {
        for _ in 0..n {
            std::hint::black_box(mabe_math::pairing(&g, &g));
        }
    };
    let start = Instant::now();
    run(workers * PROBE_PAIRINGS);
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| run(PROBE_PAIRINGS));
        }
        run(PROBE_PAIRINGS);
    });
    one / start.elapsed().as_secs_f64()
}

/// Builds a fresh world (one seed for every measurement, so the
/// workload is identical), revokes the only holder at `workers`, and
/// checks that every component re-encrypted exactly once.
fn measure(components: usize, workers: usize) -> f64 {
    let sys = CloudSystem::new(0x5eed_0001);
    sys.set_reencrypt_workers(workers);
    sys.add_authority("Org", &["A"]).expect("fresh authority");
    let owner = sys.add_owner("owner").expect("fresh owner");
    let victim = sys.add_user("victim").expect("fresh user");
    sys.grant(&victim, &["A@Org"]).expect("managed attribute");
    for i in 0..components {
        sys.publish(
            &owner,
            &format!("rec-{i}"),
            &[("f", b"payload".as_slice(), "A@Org")],
        )
        .expect("publish");
    }

    mabe_trace::recorder::global().clear();
    let start = Instant::now();
    sys.revoke(&victim, "A@Org").expect("revoke succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let reencrypts = mabe_trace::snapshot()
        .iter()
        .filter(|s| s.name == "cloud.reencrypt")
        .count();
    assert_eq!(
        reencrypts, components,
        "every component re-encrypts exactly once"
    );
    wall_ms
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn emit_json(doc: &str) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join("BENCH_revocation_parallel.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_revocation_parallel.json failed: {e}"),
    }
}

fn main() {
    let components: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(96);
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = hw_threads.clamp(2, 4);
    let gated = hw_threads >= workers;
    mabe_trace::set_enabled(true);

    eprintln!(
        "# revocation_parallel: {components} components, {hw_threads} hw threads, \
         width 1 vs {workers}, {ROUNDS} interleaved rounds"
    );
    println!("round\twall_ms_1\twall_ms_{workers}\tspeedup\thost_speedup");
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let host_speedup = host_speedup(workers);
        let (wall_ms_1, wall_ms_n) = if round % 2 == 0 {
            let one = measure(components, 1);
            (one, measure(components, workers))
        } else {
            let n = measure(components, workers);
            (measure(components, 1), n)
        };
        let r = Round {
            wall_ms_1,
            wall_ms_n,
            host_speedup,
        };
        println!(
            "{round}\t{wall_ms_1:.3}\t{wall_ms_n:.3}\t{:.3}\t{host_speedup:.3}",
            r.speedup()
        );
        rounds.push(r);
    }

    let wall_ms_1 = median(&mut rounds.iter().map(|r| r.wall_ms_1).collect::<Vec<_>>());
    let wall_ms_n = median(&mut rounds.iter().map(|r| r.wall_ms_n).collect::<Vec<_>>());
    let speedup = median(&mut rounds.iter().map(Round::speedup).collect::<Vec<_>>());
    let host = median(&mut rounds.iter().map(|r| r.host_speedup).collect::<Vec<_>>());
    let efficiency = median(
        &mut rounds
            .iter()
            .map(|r| r.speedup() / r.host_speedup)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "# median wall {wall_ms_1:.3} ms at width 1, {wall_ms_n:.3} ms at width {workers}: \
         {speedup:.3}x; the host gave {host:.3}x, efficiency {efficiency:.3}"
    );

    let body: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"wall_ms_1\": {:.3}, \"wall_ms_n\": {:.3}, \"speedup\": {:.3}, \
                 \"host_speedup\": {:.3}}}",
                r.wall_ms_1,
                r.wall_ms_n,
                r.speedup(),
                r.host_speedup
            )
        })
        .collect();
    emit_json(&format!(
        "{{\n\"bench\": \"revocation_parallel\",\n\"components\": {components},\n\
         \"hw_threads\": {hw_threads},\n\"workers\": {workers},\n\"gated\": {gated},\n\
         \"wall_ms_1\": {wall_ms_1:.3},\n\"wall_ms_n\": {wall_ms_n:.3},\n\
         \"wall_speedup\": {speedup:.3},\n\"host_speedup\": {host:.3},\n\
         \"efficiency\": {efficiency:.3},\n\"rounds\": [\n{}\n]}}\n",
        body.join(",\n")
    ));
    if gated {
        assert!(
            efficiency >= MIN_EFFICIENCY,
            "re-encryption at width {workers} must reach {MIN_EFFICIENCY} of the host's \
             own {workers}-thread speedup (got {speedup:.3}x against {host:.3}x, \
             efficiency {efficiency:.3})"
        );
    } else {
        eprintln!("# 1-core host: speedup reported, not gated");
    }
    mabe_bench::metrics::emit("revocation_parallel");
    mabe_obs::profiler::emit("revocation_parallel");
}
