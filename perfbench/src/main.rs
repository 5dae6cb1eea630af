//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints a report, then, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! after the same seeded run is made untraced in a child process for
//! reference. A failed output check exits with code 1 and prints no
//! result.

use std::process::ExitCode;

use perfbench::plan::{Kind, Plan, Workload};
use perfbench::run::{self, E2e};
use perfbench::stats::median;
use perfbench::traced::{self, Reference};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens of the crashed store per untraced run; `reopen_s` is their
/// median.
const REOPENS: usize = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Prints the result line, with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, unless a metric is not a finite
/// number (or, for end-to-end metrics, not positive).
fn emit(
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
    positive: bool,
) -> ExitCode {
    if let Some((name, value, _)) = metrics
        .iter()
        .find(|(_, v, _)| !v.is_finite() || (positive && *v <= 0.0))
    {
        eprintln!("perfbench: metric {name} is {value}");
        return ExitCode::from(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn print_e2e(args: &Args, plan: &Plan, e2e: &E2e) {
    println!(
        "perfbench {} seed={} seconds={} ops={} program_seed={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        plan.ops.len(),
        plan.program_seed
    );
    println!("kind     attempted  failed     p50_ms     p90_ms");
    for kind in Kind::ALL {
        let attempted = e2e.attempted(kind);
        if attempted > 0 {
            println!(
                "{:8} {:9} {:7} {:10.4} {:10.4}",
                kind.name(),
                attempted,
                e2e.failed(kind),
                e2e.latency_ms(kind, 0.5).unwrap_or(0.0),
                e2e.latency_ms(kind, 0.9).unwrap_or(0.0)
            );
        }
    }
    println!(
        "failed reads of replaced records (known stale content-key defect): {}",
        e2e.replaced_failures
    );
    println!(
        "reopen of the crashed store: median {:.4} s over {} reopens",
        median(&e2e.reopen_s).unwrap_or(0.0),
        e2e.reopen_s.len()
    );
    println!(
        "times at the reference speed: host slowdown median {:.3} over {} kernel runs; timed calls {:.3} s at reference speed, {:.3} s wall",
        e2e.slowdown,
        e2e.kernel_runs,
        e2e.timed_s(),
        e2e.wall_s()
    );
    println!(
        "checks passed: read bytes, revocation probes, audit chain, crash + reopen envelopes, post-reopen decrypts"
    );
    println!("{}", Reference::from_e2e(e2e).to_line());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(
        args.workload,
        args.seed,
        args.workload.ops_for(args.seconds),
    );
    let attempted = plan.ops.len();
    if args.trace {
        let reference = match traced::reference(args.workload, args.seed, args.seconds) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: untraced reference run failed: {e}");
                return ExitCode::from(1);
            }
        };
        match traced::run(&plan, &reference) {
            Ok(report) => {
                print!("{}", report.table);
                emit(attempted, report.failed, &report.metrics, false)
            }
            Err(v) => {
                eprintln!("perfbench: check failed: {v}");
                ExitCode::from(1)
            }
        }
    } else {
        match run::run(&plan, SETUPS, REOPENS) {
            Ok(e2e) => {
                print_e2e(&args, &plan, &e2e);
                let metrics: Vec<(String, f64, &str)> = e2e
                    .metrics()
                    .into_iter()
                    .map(|(n, v, u)| (n.to_owned(), v, u))
                    .collect();
                let failed = Kind::ALL.iter().map(|k| e2e.failed(*k)).sum();
                emit(attempted, failed, &metrics, true)
            }
            Err(v) => {
                eprintln!("perfbench: check failed: {v}");
                ExitCode::from(1)
            }
        }
    }
}
