//! # mabe-bench
//!
//! Benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (§VI):
//!
//! | Artifact | Binary | Module |
//! |---|---|---|
//! | Table I (scalability) | `table1` | [`tables::table1`] |
//! | Table II (component sizes) | `table2` | [`tables::table2`] |
//! | Table III (storage overhead) | `table3` | [`tables::table3`] |
//! | Table IV (communication cost) | `table4` | [`tables::table4`] |
//! | Fig. 3(a)/(b) (time vs #authorities) | `fig3` | [`figures::fig3`] |
//! | Fig. 4(a)/(b) (time vs #attrs/authority) | `fig4` | [`figures::fig4`] |
//!
//! Criterion micro-benchmarks for the pairing substrate and both schemes
//! live in `benches/`. Trials default to the paper's 20; set
//! `MABE_TRIALS` to override.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoints;
pub mod figures;
pub mod metrics;
pub mod tables;
pub mod throughput;
pub mod timing;
pub mod workload;

pub use figures::{fig3, fig4, Series};
pub use tables::{table1, table2, table3, table4};
pub use workload::{LewkoWorld, OurWorld, Shape};
