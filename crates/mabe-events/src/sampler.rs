//! Tail-based sampling: the keep/drop decision is made *after* an
//! operation completes, when its outcome and latency are known.
//!
//! Policy (in priority order):
//!
//! 1. errors are always kept;
//! 2. ops that retried or hit a fault point are always kept;
//! 3. ops at or beyond the per-kind p99 latency estimate are always
//!    kept;
//! 4. the remaining OK-fast majority is probabilistically sampled by a
//!    **seeded** xorshift generator — so two runs with the same seed
//!    and the same operation sequence keep byte-identical event sets,
//!    which is what lets chaos replays diff their spill files.
//!
//! The p99 estimate comes from per-kind power-of-two latency
//! histograms: an op is "slow" when its latency lands in a strictly
//! higher bucket than the bucket holding the 99th percentile of
//! everything recorded for that kind so far. The estimate needs
//! [`MIN_SAMPLES`] recorded ops before it fires — with fewer, nothing
//! is slow yet (a cold process must not keep-all by accident).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::record::OP_KINDS;

/// Default keep rate for OK-fast ops: 1 in `N`.
pub const DEFAULT_KEEP_1_IN: u32 = 8;

/// Recorded ops of one kind before the p99 estimate starts classifying
/// anything as slow.
pub const MIN_SAMPLES: u64 = 128;

/// Power-of-two latency buckets (bucket `i` holds `[2^(i-1), 2^i)` µs,
/// bucket 0 holds zero).
const BUCKETS: usize = 64;

/// The seeded probabilistic half of the sampler.
#[derive(Debug)]
pub struct Sampler {
    seed: u64,
    state: Mutex<u64>,
    keep_1_in: AtomicU32,
}

impl Sampler {
    /// A sampler keeping 1 in `keep_1_in` OK-fast ops, deterministic
    /// for a given `seed` and call sequence. `keep_1_in == 0` keeps
    /// everything; `1` also keeps everything.
    pub fn new(seed: u64, keep_1_in: u32) -> Self {
        Sampler {
            seed,
            state: Mutex::new(seed.max(1)),
            keep_1_in: AtomicU32::new(keep_1_in),
        }
    }

    /// The configured keep rate (1 in N; 0 = keep all).
    pub fn keep_1_in(&self) -> u32 {
        self.keep_1_in.load(Ordering::Relaxed)
    }

    /// Reconfigures the keep rate in place — benches price sampled vs
    /// keep-all against the one installed global pipeline.
    pub fn set_keep_1_in(&self, keep_1_in: u32) {
        self.keep_1_in.store(keep_1_in, Ordering::Relaxed);
    }

    /// The next keep decision. Advances the generator exactly once per
    /// call, so decision `k` depends only on the seed and `k`.
    pub fn keep(&self) -> bool {
        if self.keep_1_in() <= 1 {
            return true;
        }
        let mut state = self.state.lock().expect("sampler state");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.is_multiple_of(u64::from(self.keep_1_in()))
    }

    /// Rewinds the generator to its seed (benches/tests replaying a
    /// run in-process).
    pub fn reset(&self) {
        *self.state.lock().expect("sampler state") = self.seed.max(1);
    }
}

fn bucket_of(latency_us: u64) -> usize {
    (64 - latency_us.leading_zeros()) as usize
}

/// Per-kind streaming latency histograms backing the p99-slow rule.
#[derive(Debug)]
pub struct TailEstimator {
    counts: Vec<[AtomicU64; BUCKETS]>,
}

impl Default for TailEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl TailEstimator {
    /// Fresh estimator covering every kind in
    /// [`OP_KINDS`].
    pub fn new() -> Self {
        TailEstimator {
            counts: (0..OP_KINDS.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    fn kind_index(kind: &str) -> Option<usize> {
        OP_KINDS.iter().position(|k| *k == kind)
    }

    /// Whether `latency_us` is in the slow tail for `kind`, given what
    /// was recorded *before* this op (decide-then-record keeps an op
    /// from comparing against itself).
    pub fn is_slow(&self, kind: &str, latency_us: u64) -> bool {
        let Some(idx) = Self::kind_index(kind) else {
            return false;
        };
        let counts = &self.counts[idx];
        let total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total < MIN_SAMPLES {
            return false;
        }
        let p99_rank = total - total / 100; // ceil-ish 99th percentile rank
        let mut cum = 0u64;
        let mut p99_bucket = BUCKETS - 1;
        for (b, c) in counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= p99_rank {
                p99_bucket = b;
                break;
            }
        }
        bucket_of(latency_us) > p99_bucket
    }

    /// Records one op's latency for future estimates.
    pub fn record(&self, kind: &str, latency_us: u64) {
        if let Some(idx) = Self::kind_index(kind) {
            self.counts[idx][bucket_of(latency_us)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zeroes every histogram (benches/tests).
    pub fn reset(&self) {
        for kind in &self.counts {
            for c in kind {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let a = Sampler::new(42, 8);
        let b = Sampler::new(42, 8);
        let da: Vec<bool> = (0..1000).map(|_| a.keep()).collect();
        let db: Vec<bool> = (0..1000).map(|_| b.keep()).collect();
        assert_eq!(da, db);
        let kept = da.iter().filter(|k| **k).count();
        assert!(kept > 50 && kept < 350, "~1/8 keep rate, got {kept}/1000");
    }

    #[test]
    fn different_seeds_diverge_and_reset_replays() {
        let a = Sampler::new(1, 8);
        let c = Sampler::new(2, 8);
        let da: Vec<bool> = (0..256).map(|_| a.keep()).collect();
        let dc: Vec<bool> = (0..256).map(|_| c.keep()).collect();
        assert_ne!(da, dc);
        a.reset();
        let replay: Vec<bool> = (0..256).map(|_| a.keep()).collect();
        assert_eq!(da, replay);
    }

    #[test]
    fn keep_all_modes() {
        assert!(Sampler::new(7, 0).keep());
        assert!(Sampler::new(7, 1).keep());
    }

    #[test]
    fn p99_fires_only_after_min_samples_and_only_for_the_tail() {
        let est = TailEstimator::new();
        // Below MIN_SAMPLES nothing is slow, however extreme.
        assert!(!est.is_slow("read", u64::MAX / 2));
        for _ in 0..(MIN_SAMPLES * 2) {
            est.record("read", 100);
        }
        assert!(!est.is_slow("read", 100), "the body is not slow");
        assert!(!est.is_slow("read", 120), "same bucket is not slow");
        assert!(est.is_slow("read", 10_000), "100x the body is slow");
        // Other kinds have their own histograms.
        assert!(!est.is_slow("revoke", 10_000));
        est.reset();
        assert!(!est.is_slow("read", 10_000));
    }

    #[test]
    fn unknown_kinds_never_classify() {
        let est = TailEstimator::new();
        est.record("nope", 1);
        assert!(!est.is_slow("nope", u64::MAX / 2));
    }
}
