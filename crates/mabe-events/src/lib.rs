//! `mabe-events` — wide events, tail-based sampling, and SLO burn
//! rates for the simulated deployment.
//!
//! A *wide event* is one flat structured record per **top-level
//! operation** (grant, publish, read, read_outsourced, revoke, lazy
//! drain batch, recovery): kind, outcome, latency, authority, uid,
//! key versions observed/served, retries, fault points hit, WAL bytes
//! appended, and the `mabe-trace` trace id to join forensics on.
//! Records are assembled *at span close* from the spans and typed
//! events the workspace already emits — instrumented code gains no new
//! call sites, only optional [`mabe_trace::op_attr`] annotations at op
//! boundaries.
//!
//! The pipeline, in order:
//!
//! 1. [`Assembler`] (a [`mabe_trace::SpanSink`]) folds span closes
//!    into one [`OpCandidate`] per top-level op, on a per-thread stack
//!    of frames: a single-threaded op takes no lock and, once warmed,
//!    allocates only its candidate's detail;
//! 2. the [`SloEngine`] counts every op (kept or not) against its
//!    kind's objective in virtual-time burn-rate windows;
//! 3. the tail sampler decides keep/drop *after* outcome and latency
//!    are known — errors, retried/faulted ops, and p99-slow ops are
//!    always kept, the OK-fast majority is sampled 1-in-N by a seeded
//!    deterministic generator;
//! 4. kept events land in a bounded in-memory [`EventRing`] served by
//!    `/eventz`, and can be spilled to `events_<seed>_<case>.jsonl`
//!    for forensics ([`dump_if_configured`], [`EventsDump`]).
//!
//! Everything is deterministic under a fixed seed and op sequence:
//! two identical chaos runs keep identical event sets and compute
//! identical burn rates, so tests can assert on observability output.
//!
//! Call [`install`] once (the cloud layer does this in its
//! constructors) and the pipeline rides every traced operation;
//! [`set_enabled`] is the kill switch benches use to price the
//! overhead.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod assemble;
pub mod dump;
pub mod record;
pub mod ring;
pub mod sampler;
pub mod slo;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use mabe_telemetry::{Counter, Resolved, ResolvedFamily};

pub use assemble::{Assembler, OpCandidate};
pub use dump::{dump_if_configured, dump_to, EventsDump};
pub use record::{op_kind, KeepReason, Outcome, WideEvent, OP_KINDS};
pub use ring::EventRing;
pub use sampler::{Sampler, TailEstimator, DEFAULT_KEEP_1_IN};
pub use slo::{SloEngine, SloSpec, SloStatus, DEFAULT_OBJECTIVES, FAST_BURN_THRESHOLD};

/// The global pipeline's sampler seed.
pub const DEFAULT_SEED: u64 = 0x6d61_6265; // "mabe"

static EMITTED: Resolved<Counter> = Resolved::new("mabe_events_emitted_total", &[]);

/// `mabe_events_kept_total{reason}`, indexed by [`KeepReason`].
static KEPT: ResolvedFamily<Counter, 4> = ResolvedFamily::new("mabe_events_kept_total", "reason");

/// Pipeline construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EventsConfig {
    /// Sampler seed (same seed + same op sequence = same kept set).
    pub seed: u64,
    /// Keep 1 in N OK-fast ops (0 or 1 keeps everything).
    pub keep_1_in: u32,
    /// Kept events the ring retains.
    pub ring_capacity: usize,
}

impl Default for EventsConfig {
    fn default() -> Self {
        EventsConfig {
            seed: DEFAULT_SEED,
            keep_1_in: DEFAULT_KEEP_1_IN,
            ring_capacity: ring::DEFAULT_CAPACITY,
        }
    }
}

/// The wide-event pipeline: sampler + ring + SLO engine.
#[derive(Debug)]
pub struct EventPipeline {
    enabled: AtomicBool,
    seq: AtomicU64,
    kept: AtomicU64,
    ring: EventRing,
    sampler: Sampler,
    estimator: TailEstimator,
    slo: SloEngine,
}

impl EventPipeline {
    /// A pipeline with the given knobs (the global one uses
    /// [`EventsConfig::default`]).
    pub fn new(config: EventsConfig) -> Self {
        EventPipeline {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            ring: EventRing::with_capacity(config.ring_capacity),
            sampler: Sampler::new(config.seed, config.keep_1_in),
            estimator: TailEstimator::new(),
            slo: SloEngine::new(DEFAULT_OBJECTIVES),
        }
    }

    /// Whether the pipeline is processing ops.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns processing on/off (off = ops pass through untouched; the
    /// benches' "disabled" mode).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Ops that reached the pipeline (kept or not).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Ops the tail sampler kept.
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// The kept-event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The SLO engine.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Reconfigures the OK-fast keep rate in place (0 or 1 keeps
    /// everything). Benches flip the installed pipeline between
    /// sampled and keep-all without reinstalling the sink.
    pub fn set_keep_1_in(&self, keep_1_in: u32) {
        self.sampler.set_keep_1_in(keep_1_in);
    }

    /// Ingests one finalized op: SLO accounting, then the tail-based
    /// keep/drop decision. Called by the assembler at span close.
    pub fn ingest(&self, op: OpCandidate) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let is_error = op.error.is_some();
        self.slo.record(op.kind, op.latency_us, is_error);
        EMITTED.get().inc();

        // Tail-based decision: outcome and latency are known now.
        // Decide against the estimate *before* recording this op into
        // it, so an op never compares against itself.
        let kept = if is_error {
            Some(KeepReason::Error)
        } else if op.retries > 0 || op.gave_up || !op.fault_points.is_empty() {
            Some(KeepReason::Retried)
        } else if self.estimator.is_slow(op.kind, op.latency_us) {
            Some(KeepReason::Slow)
        } else if self.sampler.keep() {
            Some(KeepReason::Sampled)
        } else {
            None
        };
        self.estimator.record(op.kind, op.latency_us);
        let Some(kept) = kept else { return };
        self.kept.fetch_add(1, Ordering::Relaxed);
        KEPT.get(kept as usize, kept.label()).inc();
        self.ring.commit(WideEvent {
            seq,
            trace_id: op.trace_id,
            span_id: op.span_id,
            kind: op.kind,
            detail: op.detail,
            outcome: match op.error {
                Some(e) => Outcome::Error(e),
                None => Outcome::Ok,
            },
            start_us: op.start_us,
            latency_us: op.latency_us,
            authority: op.authority,
            uid: op.uid,
            key_version_observed: op.key_version_observed,
            key_version_served: op.key_version_served,
            retries: op.retries,
            fault_points: op.fault_points,
            wal_bytes: op.wal_bytes,
            checkpoint: op.checkpoint,
            checkpoint_bytes: op.checkpoint_bytes,
            kept,
        });
    }

    /// The `/eventz` JSON body: the most recent `n` kept events
    /// matching the filters, oldest first.
    pub fn eventz_json(&self, kind: Option<&str>, outcome: Option<&str>, n: usize) -> String {
        let mut events: Vec<WideEvent> = self
            .ring
            .snapshot()
            .into_iter()
            .filter(|e| kind.is_none_or(|k| e.kind == k))
            .filter(|e| outcome.is_none_or(|o| e.outcome.label() == o))
            .collect();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        let rows = events
            .iter()
            .map(WideEvent::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"format\":\"mabe-eventz/v1\",\"emitted\":{},\"kept\":{},\
             \"ring_dropped\":{},\"events\":[{rows}]}}\n",
            self.emitted(),
            self.kept(),
            self.ring.dropped(),
        )
    }

    /// Rewinds the pipeline to its post-construction state: empty
    /// ring, seed-reset sampler, cold estimator, zeroed SLO windows
    /// and counters. Benches and determinism tests replay against
    /// this.
    pub fn reset(&self) {
        self.seq.store(0, Ordering::Relaxed);
        self.kept.store(0, Ordering::Relaxed);
        self.ring.clear();
        self.sampler.reset();
        self.estimator.reset();
        self.slo.reset();
    }
}

static PIPELINE: OnceLock<EventPipeline> = OnceLock::new();

/// The process-global pipeline (created on first use with
/// [`EventsConfig::default`]).
pub fn global() -> &'static EventPipeline {
    PIPELINE.get_or_init(|| EventPipeline::new(EventsConfig::default()))
}

/// Installs the global pipeline as the trace sink. Idempotent — every
/// `CloudSystem`/`DurableSystem` constructor calls this, the first
/// call wins. Returns whether this call performed the installation.
pub fn install() -> bool {
    let _ = global();
    mabe_trace::install_sink(Box::new(Assembler::new(|op| global().ingest(op))))
}

/// Kill switch on the global pipeline (benches price the "disabled"
/// configuration with this; the sink stays installed).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global pipeline is processing ops.
pub fn enabled() -> bool {
    global().is_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: &'static str, latency_us: u64, error: Option<&str>, retries: u32) -> OpCandidate {
        OpCandidate {
            trace_id: 1,
            span_id: 1,
            kind,
            detail: String::new(),
            error: error.map(str::to_owned),
            start_us: 0,
            latency_us,
            authority: None,
            uid: None,
            key_version_observed: None,
            key_version_served: None,
            retries,
            gave_up: false,
            fault_points: Vec::new(),
            wal_bytes: 0,
            checkpoint: None,
            checkpoint_bytes: 0,
        }
    }

    #[test]
    fn errors_retries_and_samples_are_kept_with_reasons() {
        let p = EventPipeline::new(EventsConfig {
            seed: 9,
            keep_1_in: 0, // keep-all so the sampled path is exercised
            ring_capacity: 64,
        });
        p.ingest(op("read", 10, Some("denied"), 0));
        p.ingest(op("read", 10, None, 2));
        p.ingest(op("read", 10, None, 0));
        assert_eq!(p.emitted(), 3);
        assert_eq!(p.kept(), 3);
        let events = p.ring().snapshot();
        assert_eq!(events[0].kept, KeepReason::Error);
        assert_eq!(events[1].kept, KeepReason::Retried);
        assert_eq!(events[2].kept, KeepReason::Sampled);
    }

    #[test]
    fn sampling_drops_the_ok_fast_majority_deterministically() {
        let run = |seed| {
            let p = EventPipeline::new(EventsConfig {
                seed,
                keep_1_in: 8,
                ring_capacity: 4096,
            });
            for i in 0..1000 {
                p.ingest(op("read", 10 + (i % 3), None, 0));
            }
            (
                p.kept(),
                p.ring()
                    .snapshot()
                    .iter()
                    .map(|e| e.seq)
                    .collect::<Vec<_>>(),
            )
        };
        let (kept_a, seqs_a) = run(42);
        let (kept_b, seqs_b) = run(42);
        let (_, seqs_c) = run(43);
        assert_eq!(seqs_a, seqs_b, "same seed keeps the same events");
        assert_eq!(kept_a, kept_b, "same seed keeps the same count");
        assert_ne!(seqs_a, seqs_c, "different seeds diverge");
        assert!(kept_a > 60 && kept_a < 350, "~1/8 kept, got {kept_a}/1000");
    }

    #[test]
    fn disabled_pipeline_ignores_ops() {
        let p = EventPipeline::new(EventsConfig {
            seed: 1,
            keep_1_in: 0,
            ring_capacity: 8,
        });
        p.set_enabled(false);
        p.ingest(op("read", 10, Some("x"), 0));
        assert_eq!(p.emitted(), 0);
        assert!(p.ring().snapshot().is_empty());
        p.set_enabled(true);
        p.ingest(op("read", 10, Some("x"), 0));
        assert_eq!(p.emitted(), 1);
    }

    #[test]
    fn eventz_filters_by_kind_outcome_and_bounds_n() {
        let p = EventPipeline::new(EventsConfig {
            seed: 1,
            keep_1_in: 0,
            ring_capacity: 64,
        });
        p.ingest(op("read", 10, None, 0));
        p.ingest(op("read", 10, Some("denied"), 0));
        p.ingest(op("grant", 10, None, 0));
        let all = p.eventz_json(None, None, 10);
        assert!(all.contains("\"format\":\"mabe-eventz/v1\""));
        assert_eq!(all.matches("\"seq\":").count(), 3);
        let errors = p.eventz_json(None, Some("error"), 10);
        assert_eq!(errors.matches("\"seq\":").count(), 1);
        assert!(errors.contains("\"error\":\"denied\""));
        let grants = p.eventz_json(Some("grant"), None, 10);
        assert_eq!(grants.matches("\"seq\":").count(), 1);
        let bounded = p.eventz_json(None, None, 1);
        assert_eq!(bounded.matches("\"seq\":").count(), 1);
        assert!(bounded.contains("\"kind\":\"grant\""), "most recent wins");
    }

    #[test]
    fn reset_restores_replayability() {
        let p = EventPipeline::new(EventsConfig {
            seed: 77,
            keep_1_in: 4,
            ring_capacity: 4096,
        });
        let drive = |p: &EventPipeline| {
            for i in 0..300 {
                p.ingest(op("publish", 20 + (i % 5), None, 0));
            }
            p.ring()
                .snapshot()
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>()
        };
        let first = drive(&p);
        p.reset();
        assert_eq!(p.emitted(), 0);
        assert_eq!(p.kept(), 0);
        let second = drive(&p);
        assert_eq!(first, second, "reset + identical sequence replays");
    }

    #[test]
    fn install_is_idempotent() {
        let first = install();
        let second = install();
        assert!(!second, "second install must be a no-op");
        let _ = first; // whether we won depends on test ordering
        assert!(mabe_trace::sink_installed());
    }
}
