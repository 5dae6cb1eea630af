//! Span-style latency timers.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop and records the elapsed microseconds into a histogram named
//! `<name>_latency_us` in the global registry, alongside a
//! `<name>_total` invocation counter. Spans are used around every
//! scheme operation (setup, keygen, encrypt, decrypt, re-encrypt,
//! update-key) and every cloud endpoint.
//!
//! Each of those sites starts its span [`on`](Span::on) a static
//! [`SpanMetric`], whose two series are looked up at the site's first
//! use and never again. [`Span::with_labels`], [`Span::start`] and
//! [`time`] look both series up by name on every call, for one-off and
//! bench use.

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::{Counter, HistogramHandle};

/// The `<name>_total` counter and `<name>_latency_us` histogram of one
/// span site, held in a `static` there and looked up at its first
/// [`Span::on`].
#[derive(Debug)]
pub struct SpanMetric {
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    handles: OnceLock<(Counter, HistogramHandle)>,
}

impl SpanMetric {
    /// The series of span `name` with `labels`, not yet looked up.
    pub const fn new(name: &'static str, labels: &'static [(&'static str, &'static str)]) -> Self {
        SpanMetric {
            name,
            labels,
            handles: OnceLock::new(),
        }
    }
}

/// Looks up span `name`'s counter and histogram by name.
fn lookup(name: &str, labels: &[(&str, &str)]) -> (Counter, HistogramHandle) {
    let registry = crate::registry::global();
    (
        registry.counter(&format!("{name}_total"), labels),
        registry.histogram(&format!("{name}_latency_us"), labels),
    )
}

/// Measures one operation from construction to drop.
#[derive(Debug)]
pub struct Span {
    histogram: Cow<'static, HistogramHandle>,
    start: Instant,
}

impl Span {
    /// Starts a span on a site's static series.
    #[inline]
    pub fn on(metric: &'static SpanMetric) -> Self {
        let (total, histogram) = metric
            .handles
            .get_or_init(|| lookup(metric.name, metric.labels));
        Span::begin(total, Cow::Borrowed(histogram))
    }

    /// Starts a span for operation `name` with extra labels, looking
    /// both series up by name.
    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> Self {
        let (total, histogram) = lookup(name, labels);
        Span::begin(&total, Cow::Owned(histogram))
    }

    /// Starts an unlabelled span for operation `name`, looking both
    /// series up by name.
    pub fn start(name: &str) -> Self {
        Span::with_labels(name, &[])
    }

    fn begin(total: &Counter, histogram: Cow<'static, HistogramHandle>) -> Self {
        total.inc();
        Span {
            histogram,
            start: Instant::now(),
        }
    }

    /// Elapsed time so far, in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_us());
    }
}

/// Times `f` as a span named `name`, returning `f`'s result.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _span = Span::start(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let registry = crate::registry::global();
        let before = registry
            .histogram("span_test_op_latency_us", &[])
            .inner()
            .count();
        time("span_test_op", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let hist = registry.histogram("span_test_op_latency_us", &[]);
        assert_eq!(hist.inner().count(), before + 1);
        // 1 ms sleep must land at ≥ 1000 µs.
        assert!(hist.inner().sum() >= 1000);
        assert!(registry.counter("span_test_op_total", &[]).get() >= 1);
    }

    #[test]
    fn a_static_span_looks_up_at_its_first_use_only() {
        static METRIC: SpanMetric = SpanMetric::new("span_static_op", &[("kind", "s")]);
        let registry = crate::registry::global();
        let (_, first) = crate::registry::count_lookups(|| drop(Span::on(&METRIC)));
        assert_eq!(first, 2, "its counter and histogram");
        let (_, later) = crate::registry::count_lookups(|| drop(Span::on(&METRIC)));
        assert_eq!(later, 0);
        let by_name = Span::with_labels("span_static_op", &[("kind", "s")]);
        drop(by_name);
        assert_eq!(
            registry
                .counter("span_static_op_total", &[("kind", "s")])
                .get(),
            3
        );
        assert_eq!(
            registry
                .histogram("span_static_op_latency_us", &[("kind", "s")])
                .inner()
                .count(),
            3,
            "both constructors record into the same series"
        );
    }

    #[test]
    fn labelled_spans_split_series() {
        {
            let _a = Span::with_labels("span_label_op", &[("kind", "a")]);
        }
        {
            let _b = Span::with_labels("span_label_op", &[("kind", "b")]);
        }
        let registry = crate::registry::global();
        assert_eq!(
            registry
                .histogram("span_label_op_latency_us", &[("kind", "a")])
                .inner()
                .count(),
            1
        );
        assert_eq!(
            registry
                .histogram("span_label_op_latency_us", &[("kind", "b")])
                .inner()
                .count(),
            1
        );
    }
}
