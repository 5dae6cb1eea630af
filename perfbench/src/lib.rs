//! Seeded end-to-end benchmark of the durable MA-ABAC cloud store.
//!
//! One client thread drives `DurableSystem<SimDisk>` through a fixed op
//! sequence generated from a seed ([`plan`]), checks every output
//! ([`world`]), and reports end-to-end metrics ([`run`]) at a reference
//! host speed ([`speed`]); a traced mode splits each op kind across the
//! program's layers ([`traced`]).

pub mod counts;
pub mod plan;
pub mod run;
pub mod speed;
pub mod stats;
pub mod traced;
pub mod world;
