//! # mabe-cloud
//!
//! Simulated multi-authority cloud-storage deployment for the MA-ABAC
//! reproduction of Yang & Jia (ICDCS 2012): the five entities of the
//! paper's Fig. 1 — certificate authority, attribute authorities, data
//! owners, users, and the semi-trusted cloud server — exchanging keys and
//! ciphertexts over a byte-accounted wire.
//!
//! * [`wire`] — message transport with the paper's size accounting; the
//!   source of the Table IV communication-cost numbers.
//! * [`server`] — the honest-but-curious server: stores envelopes, serves
//!   anyone, re-encrypts on revocation without ever decrypting.
//! * [`system`] — [`CloudSystem`], the orchestrating shell over three
//!   layered modules: the **directory** (identities and registries),
//!   the **control plane** (grant / revoke / key delivery / recovery,
//!   serialized per authority shard), and the **data plane** (publish /
//!   read / re-encrypt, all `&self`). Operations are retry-wrapped with
//!   named fault points for seeded chaos testing (`mabe-faults`).
//! * [`recovery`] — the journaled two-phase revocation state machine
//!   that [`CloudSystem::recover`] rolls forward after a crash.
//! * [`persist`] — [`DurableSystem`], the write-ahead-logged wrapper:
//!   every acknowledged mutation journals to a `mabe-store` WAL before
//!   returning, state checkpoints into snapshots, and
//!   [`DurableSystem::open`] replays whatever bytes survived a crash.
//!
//! This crate substitutes for the authors' physical testbed: entities are
//! in-process actors, and "network cost" is the serialized size of what
//! they exchange (documented in `DESIGN.md` §3).
//!
//! # Examples
//!
//! ```
//! use mabe_cloud::CloudSystem;
//!
//! let sys = CloudSystem::new(7);
//! sys.add_authority("MedOrg", &["Doctor"])?;
//! let owner = sys.add_owner("hospital")?;
//! let alice = sys.add_user("alice")?;
//! sys.grant(&alice, &["Doctor@MedOrg"])?;
//! sys.publish(&owner, "patient-1", &[("diagnosis", b"flu".as_slice(), "Doctor@MedOrg")])?;
//! assert_eq!(sys.read(&alice, &owner, "patient-1", "diagnosis")?, b"flu");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub(crate) mod cache;
pub(crate) mod control;
pub(crate) mod data;
pub(crate) mod directory;
pub(crate) mod lazy;
pub mod persist;
pub mod recovery;
pub mod server;
pub mod system;
pub(crate) mod tables;
pub mod wire;

pub use audit::{AuditEntry, AuditEvent, AuditLoadError, AuditLog};
pub use cache::CacheStats;
pub use lazy::DEFAULT_LAZY_CAPACITY;
pub use persist::{
    DurableSystem, LazyDrainHandle, MaintenanceHandle, OpenError, OpenFailure, OpenReport,
    DEFAULT_DEGRADE_HEADROOM, DEGRADED_POINT, POISONED_POINT,
};
pub use recovery::{PendingRevocation, RevocationStage};
pub use server::CloudServer;
pub use system::{fault_points, CloudError, CloudSystem, StorageReport};
pub use wire::{DeliveryReport, Disposition, Endpoint, PairClass, Transmission, Wire};
