//! The untraced run: set-up, the timed phase, the checks after it, and
//! the end-to-end metrics.

use std::time::Instant;

use crate::counts::Counts;
use crate::plan::{Kind, Plan};
use crate::speed::Speed;
use crate::stats::{median, quantile};
use crate::world::{Outcome, Violation, World};

/// One timed program call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// The op's kind.
    pub kind: Kind,
    /// Seconds the call took at the reference speed.
    pub seconds: f64,
    /// Seconds of wall time the call took.
    pub wall_s: f64,
    /// Whether it succeeded.
    pub ok: bool,
}

/// Everything an untraced run measured. Times are at the reference
/// speed ([`crate::speed`]) unless named wall time.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// The timed calls, in op order.
    pub calls: Vec<Call>,
    /// Failed reads of replaced records (the known stale-key defect).
    pub replaced_failures: usize,
    /// Counts over the timed phase.
    pub counts: Counts,
    /// Seconds each reopen of the crashed end-of-run store took. Their
    /// median is a per-layer metric, not an end-to-end one: a reopen is
    /// one long call, and the host's speed changes inside it where the
    /// kernel runs at its edges cannot see.
    pub reopen_s: Vec<f64>,
    /// Durable store bytes per live user payload byte at the end, taken
    /// at a checkpoint.
    pub store_ratio: f64,
    /// Peak resident set of this process, MiB.
    pub peak_rss_mb: f64,
    /// The host's median slowdown over the run's kernel runs.
    pub slowdown: f64,
    /// Kernel runs made.
    pub kernel_runs: usize,
}

/// Builds the world `setups` times (timing each, keeping the last),
/// runs the timed phase, then crashes and reopens the store `reopens`
/// times. The reference kernel ([`crate::speed`]) runs between program
/// calls.
///
/// # Errors
///
/// Any output check that fails.
pub fn run(plan: &Plan, setups: usize, reopens: usize) -> Result<E2e, Violation> {
    let mut speed = Speed::default();
    let mut setup = Vec::new();
    let mut world = None;
    for _ in 0..setups.max(1) {
        drop(world.take());
        speed.measure();
        let start = Instant::now();
        let built = World::build(plan, &mut || speed.tick())?;
        setup.push((start, Instant::now()));
        world = Some(built);
    }
    speed.measure();
    let mut world = world.expect("built at least once");
    let mut timed = Vec::with_capacity(plan.ops.len());
    let mut replaced_failures = 0;
    let before = Counts::capture(&world.sys);
    for op in &plan.ops {
        speed.tick();
        let start = Instant::now();
        let result = world.call(op);
        let end = Instant::now();
        let ok = match world.check(op, result)? {
            Outcome::Ok => true,
            Outcome::Failed { replaced } => {
                replaced_failures += usize::from(replaced);
                false
            }
        };
        timed.push((op.kind(), start, end, ok));
    }
    speed.measure();
    let counts = Counts::capture(&world.sys).since(&before);
    let user_bytes = world.user_bytes();
    let reopened = world.crash_and_reopen(reopens, plan.program_seed, &mut || speed.tick())?;
    let calls = timed
        .into_iter()
        .map(|(kind, start, end, ok)| Call {
            kind,
            seconds: speed.seconds(start, end),
            wall_s: (end - start).as_secs_f64(),
            ok,
        })
        .collect();
    let at_reference = |spans: &[(Instant, Instant)]| -> Vec<f64> {
        spans.iter().map(|&(s, e)| speed.seconds(s, e)).collect()
    };
    Ok(E2e {
        setup_s: at_reference(&setup),
        calls,
        replaced_failures,
        counts,
        reopen_s: at_reference(&reopened.spans),
        store_ratio: reopened.checkpointed_bytes as f64 / user_bytes as f64,
        peak_rss_mb: peak_rss_mb(),
        slowdown: speed.median_slowdown(),
        kernel_runs: speed.count(),
    })
}

impl E2e {
    /// Ops attempted of `kind`.
    pub fn attempted(&self, kind: Kind) -> usize {
        self.calls.iter().filter(|c| c.kind == kind).count()
    }

    /// Failed ops of `kind`.
    pub fn failed(&self, kind: Kind) -> usize {
        self.calls
            .iter()
            .filter(|c| c.kind == kind && !c.ok)
            .count()
    }

    /// Wall time of the timed calls, in seconds, without the checks and
    /// kernel runs between them.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().map(|c| c.wall_s).sum()
    }

    /// The timed calls' seconds at the reference speed.
    pub fn timed_s(&self) -> f64 {
        self.calls.iter().map(|c| c.seconds).sum()
    }

    /// Successful client ops per second of call time (drain and probe
    /// time counts; they are not client ops).
    pub fn ok_ops_per_s(&self) -> Option<f64> {
        let ok = self
            .calls
            .iter()
            .filter(|c| c.ok && c.kind.is_client())
            .count();
        let seconds = self.timed_s();
        (seconds > 0.0).then(|| ok as f64 / seconds)
    }

    /// The `q`-quantile latency of `kind` in ms, over the whole run. A
    /// failed op ranks slower than every success, and a quantile that
    /// falls on one reports the whole timed phase: a failure misses
    /// every latency limit.
    pub fn latency_ms(&self, kind: Kind, q: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .calls
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| if c.ok { c.seconds } else { f64::INFINITY })
            .collect();
        let s = quantile(&latencies, q)?;
        Some(if s.is_finite() { s } else { self.timed_s() } * 1e3)
    }

    /// The end-to-end metrics `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
        vec![
            ("setup_s", or_zero(median(&self.setup_s)), "s"),
            ("ok_ops_per_s", or_zero(self.ok_ops_per_s()), "1/s"),
            (
                "read_p50_ms",
                or_zero(self.latency_ms(Kind::Read, 0.5)),
                "ms",
            ),
            (
                "read_p90_ms",
                or_zero(self.latency_ms(Kind::Read, 0.9)),
                "ms",
            ),
            (
                "publish_p50_ms",
                or_zero(self.latency_ms(Kind::Publish, 0.5)),
                "ms",
            ),
            ("store_bytes_per_user_byte", self.store_ratio, "ratio"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where procfs
/// is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
