//! # mabe-telemetry
//!
//! Zero-dependency observability for the MA-ABAC workspace:
//!
//! - a process-wide [`registry::Registry`] of named, labelled counters,
//!   gauges and log₂-bucketed latency [`histogram::Histogram`]s with
//!   p50/p95/p99 estimation, exportable as a JSON snapshot or in
//!   Prometheus text exposition format;
//! - [`ops`] — thread-local crypto operation accounting (pairings, G₁
//!   and G_T exponentiations, hash-to-group), the hooks `mabe-math`
//!   calls so tests can assert the paper's operation-count formulas
//!   (e.g. decryption = `n_A + 2|I|` pairings);
//! - [`span`] — RAII timers recording operation latency histograms for
//!   every scheme and cloud-server operation.
//!
//! A per-operation site records through handles it resolves once
//! ([`Resolved`], [`ResolvedFamily`], [`SpanMetric`]); looking a series
//! up by name is for one-off and bench use.
//!
//! ## Cost when disabled
//!
//! Every record path first checks one relaxed atomic flag; after
//! [`set_enabled`]`(false)` instrumentation reduces to that single
//! load.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod histogram;
pub mod ops;
pub mod registry;
pub mod span;

pub use histogram::{Histogram, HistogramSnapshot};
pub use ops::{absorb, measure, record, CryptoOp, OpSnapshot};
pub use registry::{
    count_lookups, global, Counter, Gauge, HistogramHandle, Instrument, Registry, Resolved,
    ResolvedFamily,
};
pub use span::{time, Span, SpanMetric};

/// Whether the global registry is currently recording.
#[inline]
pub fn enabled() -> bool {
    registry::global().is_enabled()
}

/// Turns recording on or off process-wide (the global registry).
/// Handles stay valid either way; records made while disabled are
/// dropped.
pub fn set_enabled(on: bool) {
    registry::global().set_enabled(on);
}
