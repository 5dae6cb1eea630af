//! Host speed, and times at the reference speed.
//!
//! On a shared VM the same work can take twice as long in one minute as
//! in the next, with no CPU steal to show for it: the core is shared
//! with other tenants. So the benchmark times a fixed kernel of its own,
//! independent of the program, between program calls, and reports every
//! time at the reference speed: each stretch of a timed call counts its
//! wall time divided by the host's slowdown, the median of the kernel
//! runs nearest to it. A change to the program moves these times; a
//! change in the host's speed, which moves the kernel too, mostly does
//! not.

use std::time::{Duration, Instant};

use crate::stats::median;

/// The BLS12-381 base-field modulus, little-endian limbs.
const P: [u64; 6] = [
    0xb9fe_ffff_ffff_aaab,
    0x1eab_fffe_b153_ffff,
    0x6730_d2a0_f6b0_f624,
    0x6477_4b84_f385_12bf,
    0x4b1b_a7b6_434b_acd7,
    0x1a01_11ea_397f_e69a,
];
/// `-P^-1 mod 2^64`.
const P_INV: u64 = 0x89f3_fffc_fffc_fffd;

/// One Montgomery multiplication (CIOS). The result is not fully
/// reduced: only its timing matters.
#[inline(always)]
fn mont_mul(a: &[u64; 6], b: &[u64; 6]) -> [u64; 6] {
    let mut t = [0u64; 8];
    for &bi in b {
        let mut carry = 0u64;
        for j in 0..6 {
            let x = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + u128::from(carry);
            t[j] = x as u64;
            carry = (x >> 64) as u64;
        }
        let x = u128::from(t[6]) + u128::from(carry);
        t[6] = x as u64;
        t[7] = (x >> 64) as u64;
        let m = t[0].wrapping_mul(P_INV);
        let mut carry = ((u128::from(t[0]) + u128::from(m) * u128::from(P[0])) >> 64) as u64;
        for j in 1..6 {
            let x = u128::from(t[j]) + u128::from(m) * u128::from(P[j]) + u128::from(carry);
            t[j - 1] = x as u64;
            carry = (x >> 64) as u64;
        }
        let x = u128::from(t[6]) + u128::from(carry);
        t[5] = x as u64;
        t[6] = t[7] + (x >> 64) as u64;
    }
    [t[0], t[1], t[2], t[3], t[4], t[5]]
}

/// The reference kernel: a chain of 10,000 Montgomery multiplications
/// modulo the BLS12-381 base-field prime, the arithmetic under pairings
/// and group exponentiations. Calls that are mostly field arithmetic
/// slow with it on a shared host. Calls that hash and copy bytes, such
/// as `hot_zipf`'s cache hits, slow less, but over five seeds it still
/// followed them more closely than a kernel that allocates and hashes
/// 1 KiB buffers.
fn kernel() {
    let mut a = std::hint::black_box([1, 2, 3, 4, 5, 6]);
    let b = std::hint::black_box([7, 8, 9, 10, 11, 12]);
    for _ in 0..10_000 {
        a = mont_mul(&a, &b);
    }
    std::hint::black_box(a);
}

/// Seconds one kernel run takes at the reference speed: about its
/// fastest on a 2-vCPU Xeon VM (Sapphire Rapids class, shared host).
const KERNEL_REFERENCE_S: f64 = 0.47e-3;

/// Least time between two kernel runs made by [`Speed::tick`].
const PERIOD: Duration = Duration::from_millis(20);
/// Kernel runs on each side of a stretch whose slowdowns set its
/// slowdown.
const NEAREST: usize = 2;

/// One kernel run: when it ran and the host's slowdown it measured.
#[derive(Clone, Copy, Debug)]
struct Reading {
    start: Instant,
    end: Instant,
    slowdown: f64,
}

/// Kernel runs taken between the timed calls of one run.
#[derive(Default)]
pub struct Speed {
    readings: Vec<Reading>,
}

impl Speed {
    /// Runs the kernel now. Call it between timed calls only.
    pub fn measure(&mut self) {
        let start = Instant::now();
        kernel();
        let end = Instant::now();
        self.readings.push(Reading {
            start,
            end,
            slowdown: (end - start).as_secs_f64() / KERNEL_REFERENCE_S,
        });
    }

    /// Runs the kernel if [`PERIOD`] has passed since it last ran.
    pub fn tick(&mut self) {
        if self
            .readings
            .last()
            .is_none_or(|r| r.end.elapsed() >= PERIOD)
        {
            self.measure();
        }
    }

    /// Seconds `[start, end]` takes at the reference speed. Kernel runs
    /// inside it are left out; every stretch between them counts its
    /// wall time over the median slowdown of the [`NEAREST`] runs before
    /// and after it. Measure once after the last timed call.
    pub fn seconds(&self, start: Instant, end: Instant) -> f64 {
        let mut i = self.readings.partition_point(|r| r.start < start);
        let mut from = start;
        let mut total = 0.0;
        while i < self.readings.len() && self.readings[i].start < end {
            total += (self.readings[i].start - from).as_secs_f64() / self.slowdown_before(i);
            from = self.readings[i].end;
            i += 1;
        }
        total + end.saturating_duration_since(from).as_secs_f64() / self.slowdown_before(i)
    }

    /// The slowdown of the stretch just before reading `i`.
    fn slowdown_before(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(NEAREST);
        let hi = (i + NEAREST).min(self.readings.len());
        let near: Vec<f64> = self.readings[lo..hi].iter().map(|r| r.slowdown).collect();
        median(&near).unwrap_or(1.0)
    }

    /// Kernel runs so far.
    pub fn count(&self) -> usize {
        self.readings.len()
    }

    /// The median slowdown over every kernel run (1 without any).
    pub fn median_slowdown(&self) -> f64 {
        let all: Vec<f64> = self.readings.iter().map(|r| r.slowdown).collect();
        median(&all).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(t0: Instant, start_ms: u64, end_ms: u64, slowdown: f64) -> Reading {
        Reading {
            start: t0 + Duration::from_millis(start_ms),
            end: t0 + Duration::from_millis(end_ms),
            slowdown,
        }
    }

    #[test]
    fn stretches_count_at_the_nearest_slowdown_and_kernel_runs_not_at_all() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let speed = Speed {
            readings: vec![
                reading(t0, 0, 1, 2.0),
                reading(t0, 11, 12, 2.0),
                reading(t0, 22, 23, 2.0),
                reading(t0, 33, 34, 2.0),
            ],
        };
        // A call between two kernel runs, at half speed.
        assert!((speed.seconds(ms(1), ms(11)) - 0.005).abs() < 1e-12);
        // A set-up that spans kernel runs: 30 ms of wall time, 2 of them
        // in the kernel.
        assert!((speed.seconds(ms(1), ms(33)) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn one_slow_reading_does_not_set_a_stretch() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let speed = Speed {
            readings: vec![
                reading(t0, 0, 1, 1.0),
                reading(t0, 11, 12, 1.0),
                reading(t0, 22, 23, 9.0),
                reading(t0, 33, 34, 1.0),
            ],
        };
        assert!((speed.seconds(ms(12), ms(22)) - 0.010).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_measurable_work() {
        let mut speed = Speed::default();
        speed.measure();
        let once = speed.readings[0].end - speed.readings[0].start;
        assert!(once > Duration::from_micros(10), "the kernel took {once:?}");
    }
}
