//! The metrics registry: named, labelled counters, gauges and
//! histograms, discoverable for export.
//!
//! Instrument lookup by name builds a key and takes a short-lived
//! `RwLock` on the name→handle map; the handles themselves are
//! `Arc`-shared atomics. A per-operation site therefore records through
//! a [`Resolved`] (or [`ResolvedFamily`]) handle, looked up at the
//! site's first use and lock-free after; the by-name
//! [`Registry::counter`], [`Registry::gauge`] and
//! [`Registry::histogram`] calls are for one-off and bench use. Each
//! thread counts the by-name lookups it makes ([`count_lookups`]), so a
//! test can pin a hot path at zero. Each handle carries its registry's
//! enable flag: recording while disabled is one relaxed atomic load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::histogram::Histogram;

/// A metric identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, e.g. `mabe_encrypt_latency_us`.
    pub name: String,
    /// Label pairs, kept sorted for deterministic export.
    pub labels: BTreeMap<String, String>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        Key {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

#[inline]
fn recording(enabled: &AtomicBool) -> bool {
    enabled.load(Ordering::Relaxed)
}

/// A monotonically increasing counter handle.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if recording(&self.enabled) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down).
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if recording(&self.enabled) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if recording(&self.enabled) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram handle.
#[derive(Clone, Debug)]
pub struct HistogramHandle {
    value: Arc<Histogram>,
    enabled: Arc<AtomicBool>,
}

impl HistogramHandle {
    /// Records one observation (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if recording(&self.enabled) {
            self.value.record(value);
        }
    }

    /// Access to the underlying histogram (for snapshots and merging).
    pub fn inner(&self) -> &Histogram {
        &self.value
    }
}

/// Holds every registered instrument.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    counters: RwLock<BTreeMap<Key, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<Key, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
}

thread_local! {
    static LOOKUPS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` and returns its result along with the by-name registry
/// lookups it made **on this thread** (any registry's `counter`,
/// `gauge` or `histogram` call), the way [`crate::measure`] counts
/// crypto operations.
pub fn count_lookups<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LOOKUPS.with(Cell::get);
    let result = f();
    (result, LOOKUPS.with(Cell::get) - before)
}

fn intern<T: Default>(map: &RwLock<BTreeMap<Key, Arc<T>>>, key: Key) -> Arc<T> {
    LOOKUPS.with(|n| n.set(n.get() + 1));
    if let Some(existing) = map.read().expect("registry lock").get(&key) {
        return Arc::clone(existing);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(key).or_default())
}

impl Registry {
    /// A fresh registry with telemetry enabled.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
        }
    }

    /// Whether this registry is currently recording.
    pub fn is_enabled(&self) -> bool {
        recording(&self.enabled)
    }

    /// Turns recording on or off. Handles stay valid either way;
    /// records made while disabled are dropped.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            value: intern(&self.counters, Key::new(name, labels)),
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            value: intern(&self.gauges, Key::new(name, labels)),
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle {
            value: intern(&self.histograms, Key::new(name, labels)),
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// All counters with their current values, sorted by key.
    pub fn counters(&self) -> Vec<(Key, u64)> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// All gauges with their current values, sorted by key.
    pub fn gauges(&self) -> Vec<(Key, i64)> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// All histograms as snapshots, sorted by key.
    pub fn histograms(&self) -> Vec<(Key, crate::histogram::HistogramSnapshot)> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Zeroes every instrument without dropping handles already held
    /// by callers (handles stay live and keep recording).
    pub fn reset(&self) {
        for c in self.counters.read().expect("registry lock").values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().expect("registry lock").values() {
            g.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.read().expect("registry lock").values() {
            h.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A handle kind the registry hands out by name ([`Counter`], [`Gauge`]).
pub trait Instrument: Sized {
    /// Returns (registering on first use) `name{labels}` in `registry`.
    fn lookup(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> Self;
}

impl Instrument for Counter {
    fn lookup(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> Self {
        registry.counter(name, labels)
    }
}

impl Instrument for Gauge {
    fn lookup(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> Self {
        registry.gauge(name, labels)
    }
}

/// One series of the global registry with its name and labels fixed at
/// compile time, held in a `static` at the site that records it. The
/// first [`get`](Self::get) looks it up (registering it, as a by-name
/// call would at that moment); every later one is a load.
#[derive(Debug)]
pub struct Resolved<T> {
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    handle: OnceLock<T>,
}

impl<T: Instrument> Resolved<T> {
    /// The series `name{labels}`, not yet looked up.
    pub const fn new(name: &'static str, labels: &'static [(&'static str, &'static str)]) -> Self {
        Resolved {
            name,
            labels,
            handle: OnceLock::new(),
        }
    }

    /// The handle, looked up on first use.
    #[inline]
    pub fn get(&self) -> &T {
        self.handle
            .get_or_init(|| T::lookup(global(), self.name, self.labels))
    }
}

/// The series of one metric name whose one label takes `N` values fixed
/// at compile time, one [`Resolved`]-style handle each, indexed like the
/// enum that names the values. Each value's series is registered at its
/// own first use.
#[derive(Debug)]
pub struct ResolvedFamily<T, const N: usize> {
    name: &'static str,
    label: &'static str,
    handles: [OnceLock<T>; N],
}

impl<T: Instrument, const N: usize> ResolvedFamily<T, N> {
    /// The family `name{label=…}`, no value looked up yet.
    pub const fn new(name: &'static str, label: &'static str) -> Self {
        ResolvedFamily {
            name,
            label,
            handles: [const { OnceLock::new() }; N],
        }
    }

    /// The handle of value number `index`, `name{label=value}`, looked
    /// up on first use. `value` must be the same for each `index`.
    #[inline]
    pub fn get(&self, index: usize, value: &'static str) -> &T {
        self.handles[index].get_or_init(|| T::lookup(global(), self.name, &[(self.label, value)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_alias_by_key() {
        let r = Registry::new();
        let a = r.counter("hits", &[("route", "store")]);
        let b = r.counter("hits", &[("route", "store")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = r.counter("hits", &[("route", "fetch")]);
        assert_eq!(other.get(), 0);
        assert_eq!(r.counters().len(), 2);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("n", &[]);
        c.inc();
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter("x", &[("a", "1"), ("b", "2")]);
        let b = r.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn resolved_handles_look_up_once_and_alias_the_by_name_series() {
        static ONE: Resolved<Counter> = Resolved::new("resolved_once_total", &[("k", "v")]);
        static FAMILY: ResolvedFamily<Gauge, 2> = ResolvedFamily::new("resolved_family", "side");
        let ((), first) = count_lookups(|| {
            ONE.get().inc();
            FAMILY.get(1, "right").set(5);
        });
        assert_eq!(first, 2, "each series is looked up at its first use");
        let ((), later) = count_lookups(|| {
            ONE.get().add(2);
            FAMILY.get(1, "right").add(1);
        });
        assert_eq!(later, 0, "and never again");
        assert_eq!(
            global().counter("resolved_once_total", &[("k", "v")]).get(),
            3
        );
        assert_eq!(
            global()
                .gauge("resolved_family", &[("side", "right")])
                .get(),
            6
        );
        let left = global()
            .gauges()
            .into_iter()
            .any(|(key, _)| key.labels.get("side").map(String::as_str) == Some("left"));
        assert!(!left, "an unused value is never registered");
    }

    #[test]
    fn disabling_drops_records_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("toggle_total", &[]);
        let h = r.histogram("toggle_latency_us", &[]);
        c.inc();
        h.record(10);
        r.set_enabled(false);
        assert!(!r.is_enabled());
        c.inc();
        h.record(10);
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 2);
        assert_eq!(h.inner().count(), 1);
    }
}
