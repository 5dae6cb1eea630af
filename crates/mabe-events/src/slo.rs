//! The SLO engine: per-op-kind objectives, windowed good/bad
//! counting, and multi-window burn rates — all in **virtual time**.
//!
//! An operation is *good* when it succeeds within its kind's latency
//! objective, *bad* otherwise. Counts land in two ring-bucketed
//! windows per kind — a fast 5-minute-equivalent and a slow
//! 1-hour-equivalent — and the burn rate of a window is
//!
//! ```text
//! burn = (bad / (good + bad)) / error_budget
//! ```
//!
//! where the error budget is `1 − target` (so a 99.9% target burning
//! at rate 1.0 exhausts its budget exactly at the window horizon; the
//! Google SRE fast-burn page threshold of ~14.4 means "at this pace
//! the monthly budget is gone in under two days"). A kind whose fast
//! window burns at or beyond [`FAST_BURN_THRESHOLD`] is *tripped*;
//! `mabe-obs` surfaces that as a soft `/readyz` degradation.
//!
//! **Virtual time.** The engine's clock never reads the wall: it
//! advances by each recorded op's latency plus explicit
//! [`SloEngine::advance`] calls. Two identical seeded runs therefore
//! place every op in the same bucket and compute bit-identical burn
//! rates — chaos tests assert trip *and* clear deterministically,
//! with window roll-off driven by `advance` instead of `sleep`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mabe_telemetry::{Gauge, ResolvedFamily};

use crate::record::OP_KINDS;

/// `mabe_slo_error_budget_remaining{kind}`, indexed like [`OP_KINDS`].
static BUDGET_REMAINING: ResolvedFamily<Gauge, { OP_KINDS.len() }> =
    ResolvedFamily::new("mabe_slo_error_budget_remaining", "kind");

/// Fast window horizon: 5 virtual minutes.
pub const FAST_WINDOW_US: u64 = 5 * 60 * 1_000_000;

/// Slow window horizon: 1 virtual hour.
pub const SLOW_WINDOW_US: u64 = 60 * 60 * 1_000_000;

/// Fast-window burn rate at which a kind trips (the classic
/// multi-window paging threshold).
pub const FAST_BURN_THRESHOLD: f64 = 14.4;

/// One op kind's objective, declared in code.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// The op kind this objective covers.
    pub kind: &'static str,
    /// Latency objective in microseconds: slower-than-this successes
    /// count against the budget too.
    pub latency_objective_us: u64,
    /// Success target in parts-per-million (999_000 = 99.9%). The
    /// error budget is the ppm remainder.
    pub target_ppm: u32,
}

impl SloSpec {
    fn budget_fraction(&self) -> f64 {
        f64::from(1_000_000 - self.target_ppm.min(999_999)) / 1e6
    }
}

/// The in-code objective declarations, one per op kind. Latency
/// objectives are sized for the simulated deployment's pairing-bound
/// costs (reads run a handful of pairings; revocations re-encrypt).
pub const DEFAULT_OBJECTIVES: &[SloSpec] = &[
    SloSpec {
        kind: "grant",
        latency_objective_us: 500_000,
        target_ppm: 999_000,
    },
    SloSpec {
        kind: "publish",
        latency_objective_us: 500_000,
        target_ppm: 999_000,
    },
    SloSpec {
        kind: "read",
        latency_objective_us: 250_000,
        target_ppm: 999_000,
    },
    SloSpec {
        kind: "read_outsourced",
        latency_objective_us: 250_000,
        target_ppm: 999_000,
    },
    SloSpec {
        kind: "revoke",
        latency_objective_us: 5_000_000,
        target_ppm: 990_000,
    },
    SloSpec {
        kind: "lazy_drain",
        latency_objective_us: 10_000_000,
        target_ppm: 990_000,
    },
    SloSpec {
        kind: "recovery",
        latency_objective_us: 30_000_000,
        target_ppm: 990_000,
    },
];

#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    epoch: u64,
    good: u64,
    bad: u64,
}

#[derive(Debug)]
struct Window {
    width_us: u64,
    buckets: Vec<Bucket>,
}

impl Window {
    fn new(horizon_us: u64, buckets: usize) -> Self {
        Window {
            width_us: horizon_us / buckets as u64,
            buckets: vec![Bucket::default(); buckets],
        }
    }

    fn record(&mut self, now_us: u64, good: bool) {
        let epoch = now_us / self.width_us;
        let n = self.buckets.len() as u64;
        let bucket = &mut self.buckets[(epoch % n) as usize];
        if bucket.epoch != epoch {
            *bucket = Bucket {
                epoch,
                good: 0,
                bad: 0,
            };
        }
        if good {
            bucket.good += 1;
        } else {
            bucket.bad += 1;
        }
    }

    /// `(good, bad)` within the horizon ending at `now_us`.
    fn totals(&self, now_us: u64) -> (u64, u64) {
        let epoch = now_us / self.width_us;
        let n = self.buckets.len() as u64;
        let oldest = epoch.saturating_sub(n - 1);
        self.buckets
            .iter()
            .filter(|b| b.epoch >= oldest && b.epoch <= epoch)
            .fold((0, 0), |(g, b2), b| (g + b.good, b2 + b.bad))
    }
}

#[derive(Debug)]
struct KindState {
    spec: SloSpec,
    fast: Window,
    slow: Window,
    good_total: u64,
    bad_total: u64,
}

/// One kind's reportable status (the `/sloz` row).
#[derive(Clone, Debug)]
pub struct SloStatus {
    /// The objective this row reports on.
    pub spec: SloSpec,
    /// `(good, bad)` in the fast window.
    pub fast: (u64, u64),
    /// `(good, bad)` in the slow window.
    pub slow: (u64, u64),
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Whether the fast window is at or beyond
    /// [`FAST_BURN_THRESHOLD`].
    pub tripped: bool,
    /// Budget remaining in the slow window, parts-per-million of the
    /// full budget (0 when overspent).
    pub budget_remaining_ppm: u64,
    /// Lifetime good/bad counts (no window).
    pub totals: (u64, u64),
}

fn burn(good: u64, bad: u64, budget_fraction: f64) -> f64 {
    let total = good + bad;
    if total == 0 || budget_fraction <= 0.0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget_fraction
}

/// The engine: objectives + windows + the virtual clock.
#[derive(Debug)]
pub struct SloEngine {
    virtual_now_us: AtomicU64,
    kinds: Vec<Mutex<KindState>>,
    /// Per [`OP_KINDS`] entry, the index in `kinds` of its objective.
    by_kind: [Option<usize>; OP_KINDS.len()],
}

impl SloEngine {
    /// An engine over `specs` (typically [`DEFAULT_OBJECTIVES`]).
    pub fn new(specs: &[SloSpec]) -> Self {
        SloEngine {
            virtual_now_us: AtomicU64::new(0),
            by_kind: std::array::from_fn(|k| specs.iter().position(|s| s.kind == OP_KINDS[k])),
            kinds: specs
                .iter()
                .map(|spec| {
                    Mutex::new(KindState {
                        spec: *spec,
                        fast: Window::new(FAST_WINDOW_US, 30),
                        slow: Window::new(SLOW_WINDOW_US, 60),
                        good_total: 0,
                        bad_total: 0,
                    })
                })
                .collect(),
        }
    }

    /// The virtual clock, microseconds.
    pub fn virtual_now_us(&self) -> u64 {
        self.virtual_now_us.load(Ordering::Relaxed)
    }

    /// Advances the virtual clock (tests roll windows with this; the
    /// pipeline advances it by each op's latency).
    pub fn advance(&self, us: u64) {
        self.virtual_now_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one completed op: classifies good/bad against the
    /// kind's objective, advances the virtual clock by the op's
    /// latency, and refreshes the kind's
    /// `mabe_slo_error_budget_remaining` gauge.
    pub fn record(&self, kind: &str, latency_us: u64, is_error: bool) {
        let Some(k) = OP_KINDS.iter().position(|known| *known == kind) else {
            return;
        };
        let Some(state) = self.by_kind[k].map(|i| &self.kinds[i]) else {
            return;
        };
        let now = self
            .virtual_now_us
            .fetch_add(latency_us, Ordering::Relaxed)
            .saturating_add(latency_us);
        let remaining_ppm = {
            let mut st = state.lock().expect("slo kind state");
            let good = !is_error && latency_us <= st.spec.latency_objective_us;
            st.fast.record(now, good);
            st.slow.record(now, good);
            if good {
                st.good_total += 1;
            } else {
                st.bad_total += 1;
            }
            let (sg, sb) = st.slow.totals(now);
            let slow_burn = burn(sg, sb, st.spec.budget_fraction());
            ((1.0 - slow_burn).max(0.0) * 1e6) as u64
        };
        BUDGET_REMAINING
            .get(k, OP_KINDS[k])
            .set(remaining_ppm as i64);
    }

    /// Every kind's current status, in [`OP_KINDS`] order.
    pub fn statuses(&self) -> Vec<SloStatus> {
        let now = self.virtual_now_us();
        self.kinds
            .iter()
            .map(|state| {
                let st = state.lock().expect("slo kind state");
                let fast = st.fast.totals(now);
                let slow = st.slow.totals(now);
                let fast_burn = burn(fast.0, fast.1, st.spec.budget_fraction());
                let slow_burn = burn(slow.0, slow.1, st.spec.budget_fraction());
                SloStatus {
                    spec: st.spec,
                    fast,
                    slow,
                    fast_burn,
                    slow_burn,
                    tripped: fast_burn >= FAST_BURN_THRESHOLD,
                    budget_remaining_ppm: ((1.0 - slow_burn).max(0.0) * 1e6) as u64,
                    totals: (st.good_total, st.bad_total),
                }
            })
            .collect()
    }

    /// Whether any kind's fast window is currently tripped — the
    /// `/readyz` soft-degradation signal.
    pub fn any_fast_tripped(&self) -> bool {
        self.statuses().iter().any(|s| s.tripped)
    }

    /// The `/sloz` JSON body.
    pub fn to_json(&self) -> String {
        let rows = self
            .statuses()
            .iter()
            .map(|s| {
                format!(
                    "{{\"kind\":\"{}\",\"latency_objective_us\":{},\"target_ppm\":{},\
                     \"fast\":{{\"good\":{},\"bad\":{},\"burn\":{:.3}}},\
                     \"slow\":{{\"good\":{},\"bad\":{},\"burn\":{:.3}}},\
                     \"tripped\":{},\"budget_remaining_ppm\":{},\
                     \"total_good\":{},\"total_bad\":{}}}",
                    s.spec.kind,
                    s.spec.latency_objective_us,
                    s.spec.target_ppm,
                    s.fast.0,
                    s.fast.1,
                    s.fast_burn,
                    s.slow.0,
                    s.slow.1,
                    s.slow_burn,
                    s.tripped,
                    s.budget_remaining_ppm,
                    s.totals.0,
                    s.totals.1,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"format\":\"mabe-sloz/v1\",\"virtual_now_us\":{},\
             \"fast_window_us\":{FAST_WINDOW_US},\"slow_window_us\":{SLOW_WINDOW_US},\
             \"fast_burn_threshold\":{FAST_BURN_THRESHOLD},\"objectives\":[{rows}]}}\n",
            self.virtual_now_us(),
        )
    }

    /// Zeroes every window, total, and the virtual clock
    /// (benches/tests).
    pub fn reset(&self) {
        self.virtual_now_us.store(0, Ordering::Relaxed);
        for state in &self.kinds {
            let mut st = state.lock().expect("slo kind state");
            let spec = st.spec;
            *st = KindState {
                spec,
                fast: Window::new(FAST_WINDOW_US, 30),
                slow: Window::new(SLOW_WINDOW_US, 60),
                good_total: 0,
                bad_total: 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SloEngine {
        SloEngine::new(DEFAULT_OBJECTIVES)
    }

    fn status_of<'a>(statuses: &'a [SloStatus], kind: &str) -> &'a SloStatus {
        statuses.iter().find(|s| s.spec.kind == kind).unwrap()
    }

    #[test]
    fn good_ops_keep_burn_at_zero_and_budget_full() {
        let slo = engine();
        for _ in 0..100 {
            slo.record("read", 1_000, false);
        }
        let statuses = slo.statuses();
        let read = status_of(&statuses, "read");
        assert_eq!(read.fast, (100, 0));
        assert_eq!(read.fast_burn, 0.0);
        assert!(!read.tripped);
        assert_eq!(read.budget_remaining_ppm, 1_000_000);
    }

    #[test]
    fn errors_and_latency_misses_both_burn() {
        let slo = engine();
        slo.record("read", 1_000, true); // error
        slo.record("read", 10_000_000, false); // objective miss
        slo.record("read", 1_000, false); // good
        let statuses = slo.statuses();
        let read = status_of(&statuses, "read");
        assert_eq!(read.fast, (1, 2));
        assert!(read.fast_burn > 600.0, "2/3 bad over a 0.1% budget");
        assert!(read.tripped);
        assert_eq!(read.budget_remaining_ppm, 0);
    }

    #[test]
    fn trip_then_clear_deterministically_in_virtual_time() {
        let slo = engine();
        // A storm: 20 errors trips the fast window immediately.
        for _ in 0..20 {
            slo.record("read", 1_000, true);
        }
        assert!(status_of(&slo.statuses(), "read").tripped);
        assert!(slo.any_fast_tripped());
        // Recovery: healthy traffic while the clock rolls the fast
        // window past the storm.
        for _ in 0..50 {
            slo.record("read", 1_000, false);
            slo.advance(FAST_WINDOW_US / 40);
        }
        let read_status = &slo.statuses();
        let read = status_of(read_status, "read");
        assert!(!read.tripped, "fast burn {:.1}", read.fast_burn);
        // The slow window still remembers the storm.
        assert!(read.slow.1 > 0);
        assert!(!slo.any_fast_tripped());
    }

    #[test]
    fn identical_sequences_produce_identical_json() {
        let a = engine();
        let b = engine();
        for i in 0..500u64 {
            let err = i % 97 == 0;
            a.record("read", 500 + i, err);
            b.record("read", 500 + i, err);
            a.advance(10_000);
            b.advance(10_000);
        }
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn sloz_json_is_self_describing() {
        let slo = engine();
        slo.record("revoke", 1_000, false);
        let json = slo.to_json();
        assert!(json.contains("\"format\":\"mabe-sloz/v1\""));
        assert!(json.contains("\"kind\":\"revoke\""));
        assert!(json.contains("\"fast_burn_threshold\":14.4"));
        assert!(json.contains("\"virtual_now_us\":1000"));
    }

    #[test]
    fn budget_gauge_exports_per_kind() {
        let slo = engine();
        slo.record("publish", 1_000, false);
        let prom = mabe_telemetry::global().prometheus();
        assert!(
            prom.contains("mabe_slo_error_budget_remaining{kind=\"publish\"} 1000000"),
            "gauge missing: {prom}"
        );
    }

    #[test]
    fn reset_clears_windows_totals_and_clock() {
        let slo = engine();
        for _ in 0..10 {
            slo.record("read", 1_000, true);
        }
        slo.reset();
        assert_eq!(slo.virtual_now_us(), 0);
        let statuses = slo.statuses();
        let read = status_of(&statuses, "read");
        assert_eq!(read.fast, (0, 0));
        assert_eq!(read.totals, (0, 0));
        assert!(!read.tripped);
    }
}
