//! End-to-end orchestration of the five-entity deployment (paper Fig. 1).
//!
//! [`CloudSystem`] is a thin shell over three layered modules — the
//! directory (identities and registries), the control plane (grant /
//! revoke / key delivery / recovery, serialized per authority shard),
//! and the data plane (publish / read / re-encrypt) — routing every key
//! and ciphertext through the byte-accounted [`Wire`] so the paper's
//! storage and communication experiments fall out of ordinary
//! operation.
//!
//! Every public operation takes `&self`: shared state lives behind the
//! lock hierarchy documented in DESIGN.md §12, so concurrent readers,
//! a live revocation, and chaos bookkeeping coexist on one system.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use mabe_core::{Error, OwnerId, Uid, UpdateKey, UserSecretKey, ZP_BYTES};
use mabe_faults::{FaultInjector, FaultKind, RetryError, RetryPolicy};
use mabe_policy::{AuthorityId, ParsePolicyError};

use crate::audit::AuditLog;
use crate::control::ControlPlane;
use crate::data::DataPlane;
use crate::directory::Directory;
use crate::server::CloudServer;
use crate::wire::{Disposition, Endpoint, Wire};

/// Named fault points the system consults its [`FaultInjector`] at.
///
/// Chaos plans reference these constants when scheduling faults
/// (`FaultPlan::at(fault_points::REVOKE_REENCRYPT, 1, FaultKind::Crash)`),
/// so the instrumented sites and the test schedules cannot drift apart.
pub mod fault_points {
    /// Authority-side `KeyGen` during an attribute grant.
    pub const GRANT_KEYGEN: &str = "grant.keygen";
    /// Secret-key delivery from an authority to the granted user.
    pub const GRANT_DELIVER: &str = "grant.deliver";
    /// Owner upload of a sealed record to the server.
    pub const PUBLISH_STORE: &str = "publish.store";
    /// Server-to-user component download on a read.
    pub const READ_FETCH: &str = "read.fetch";
    /// The authority's `ReKey` step at the start of a revocation.
    pub const REVOKE_REKEY: &str = "revoke.rekey";
    /// Delivery of fresh (attribute-reduced) keys to the revoked user.
    pub const REVOKE_FRESH_KEY: &str = "revoke.fresh_key";
    /// Update-key delivery to a non-revoked holder.
    pub const REVOKE_UPDATE_DELIVER: &str = "revoke.update_deliver";
    /// Update-key delivery to a data owner.
    pub const REVOKE_OWNER_UPDATE: &str = "revoke.owner_update";
    /// Server-side proxy re-encryption of one affected ciphertext.
    pub const REVOKE_REENCRYPT: &str = "revoke.reencrypt";
    /// Composed update-key delivery when an offline user syncs.
    pub const SYNC_DELIVER: &str = "sync.deliver";
    /// Parking a lazy revocation's re-encryption work on the
    /// pending-upgrade queue (immediate phase of a lazy revoke).
    pub const LAZY_ENQUEUE: &str = "cloud.lazy_enqueue";
    /// One component upgrade performed by the lazy drain (background
    /// worker or inline backpressure drain).
    pub const LAZY_DRAIN: &str = "cloud.lazy_drain";
    /// A read-triggered upgrade: a stale component is re-encrypted in
    /// place before being served.
    pub const READ_UPGRADE: &str = "cloud.read_upgrade";
}

/// Errors from system-level operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CloudError {
    /// An underlying scheme operation failed.
    Core(Error),
    /// A policy string did not parse.
    Parse(ParsePolicyError),
    /// No such authority in the system.
    UnknownAuthority(AuthorityId),
    /// No such record on the server.
    UnknownRecord(String),
    /// No such component label within the record.
    UnknownComponent(String),
    /// Entity lookup failed.
    UnknownEntity(String),
    /// The authority exists but is unreachable (administratively down or
    /// an injected outage). Transient: retrying may succeed.
    AuthorityUnavailable(AuthorityId),
    /// A storage-layer operation failed. Transient.
    Storage(&'static str),
    /// The backing store is out of space: the durable system has
    /// degraded to read-only. Reads keep serving; mutations fail fast
    /// with this error until compaction (or an operator) reclaims
    /// space, at which point writes resume automatically. Transient.
    StoreFull {
        /// The fault point (or gate) that observed the full disk.
        point: &'static str,
    },
    /// A transmission was lost in transit (dropped or corrupted) and the
    /// retry budget has not yet absorbed it. Transient.
    Lost {
        /// The fault point where the loss occurred.
        point: &'static str,
    },
    /// A simulated crash fired mid-operation. Fatal for the current call;
    /// journaled state lets [`CloudSystem::recover`] roll forward.
    Crashed {
        /// The fault point where the crash fired.
        point: &'static str,
    },
    /// A transient error persisted through every allowed retry.
    RetriesExhausted {
        /// The operation (fault point) that kept failing.
        op: &'static str,
        /// Attempts performed, including the first.
        attempts: u32,
        /// The last transient error observed.
        last: Box<CloudError>,
    },
}

impl CloudError {
    /// Whether retrying the failed operation could help.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CloudError::AuthorityUnavailable(_)
                | CloudError::Storage(_)
                | CloudError::StoreFull { .. }
                | CloudError::Lost { .. }
        )
    }

    /// Collapses a [`RetryError`] into a `CloudError`, wrapping exhausted
    /// retries with the operation name and attempt count.
    fn from_retry(op: &'static str, err: RetryError<CloudError>) -> CloudError {
        match err {
            RetryError::Fatal(e) => e,
            RetryError::GaveUp { attempts, last }
            | RetryError::DeadlineExceeded { attempts, last } => CloudError::RetriesExhausted {
                op,
                attempts,
                last: Box::new(last),
            },
        }
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Core(e) => write!(f, "{e}"),
            CloudError::Parse(e) => write!(f, "{e}"),
            CloudError::UnknownAuthority(a) => write!(f, "unknown authority {a}"),
            CloudError::UnknownRecord(r) => write!(f, "unknown record {r}"),
            CloudError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            CloudError::UnknownEntity(e) => write!(f, "unknown entity {e}"),
            CloudError::AuthorityUnavailable(a) => write!(f, "authority {a} unavailable"),
            CloudError::Storage(p) => write!(f, "storage error at {p}"),
            CloudError::StoreFull { point } => {
                write!(
                    f,
                    "storage out of space at {point}: writes degraded to read-only"
                )
            }
            CloudError::Lost { point } => write!(f, "transmission lost at {point}"),
            CloudError::Crashed { point } => write!(f, "crashed at {point}"),
            CloudError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for CloudError {}

/// Applies an update key, treating "the key already advanced to (or past)
/// the target version" as success — the idempotency that makes replayed
/// deliveries during crash recovery harmless.
pub(crate) fn apply_update_tolerant(
    key: &mut UserSecretKey,
    uk: &UpdateKey,
) -> Result<(), CloudError> {
    match key.apply_update(uk) {
        Ok(()) => Ok(()),
        Err(Error::VersionMismatch { found, .. }) if found >= uk.to_version => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Runs `op` under a span named `span`, marked failed on error.
pub(crate) fn traced<T>(
    span: &'static str,
    detail: String,
    op: impl FnOnce() -> Result<T, CloudError>,
) -> Result<T, CloudError> {
    let trace = mabe_trace::Span::child(span).detail(detail);
    let result = op();
    if let Err(e) = &result {
        trace.fail(e.to_string());
    }
    result
}

impl From<Error> for CloudError {
    fn from(e: Error) -> Self {
        CloudError::Core(e)
    }
}

impl From<ParsePolicyError> for CloudError {
    fn from(e: ParsePolicyError) -> Self {
        CloudError::Parse(e)
    }
}

/// Paper-accounted storage overhead per entity class (Table III).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StorageReport {
    /// Bytes per attribute authority.
    pub authorities: BTreeMap<AuthorityId, usize>,
    /// Bytes per owner.
    pub owners: BTreeMap<OwnerId, usize>,
    /// Bytes per user.
    pub users: BTreeMap<Uid, usize>,
    /// Bytes on the server.
    pub server: usize,
}

/// An [`RngCore`] view over a mutex-guarded RNG: each draw takes the
/// lock, so `&self` call sites share one deterministic stream without
/// holding it across unrelated work.
pub(crate) struct LockedRng<'a>(pub(crate) &'a Mutex<StdRng>);

impl RngCore for LockedRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.lock().next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.lock().next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.lock().fill_bytes(dest)
    }
}

/// The complete simulated deployment, layered as directory / control
/// plane / data plane (see the module docs and DESIGN.md §12).
#[derive(Debug)]
pub struct CloudSystem {
    /// Crypto randomness. A leaf lock: taken per draw, never while
    /// calling back into another layer.
    pub(crate) rng: Mutex<StdRng>,
    pub(crate) directory: Directory,
    pub(crate) control: ControlPlane,
    pub(crate) data: DataPlane,
    pub(crate) wire: Wire,
    pub(crate) audit: Mutex<AuditLog>,
    pub(crate) faults: FaultInjector,
    /// Every instrumented operation runs under the default policy.
    pub(crate) retry: RetryPolicy,
    /// Jitter draws come from a dedicated stream so fault schedules never
    /// perturb the crypto determinism of `rng`.
    pub(crate) retry_rng: Mutex<StdRng>,
    /// Lazy-revocation machinery: the pending-upgrade queue, the
    /// server-held update-key archive, and the drain claim set.
    pub(crate) lazy: crate::lazy::LazyState,
    /// Hot-key caches: decrypted content keys and composed update-key
    /// chains, invalidated by revocation's version bump (see
    /// [`crate::cache`]).
    pub(crate) cache: crate::cache::SystemCaches,
}

impl CloudSystem {
    /// Creates an empty system with a deterministic RNG seed and no fault
    /// injection (the production configuration).
    pub fn new(seed: u64) -> Self {
        Self::with_faults(seed, FaultInjector::none())
    }

    /// Creates a system whose instrumented operations consult `faults` —
    /// the entry point for seeded chaos runs.
    pub fn with_faults(seed: u64, faults: FaultInjector) -> Self {
        // The wide-event pipeline rides the trace sink; installing it
        // here keeps every deployment observable with no extra setup.
        mabe_events::install();
        CloudSystem {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            directory: Directory::new(),
            control: ControlPlane::new(),
            data: DataPlane::new(),
            wire: Wire::new(),
            audit: Mutex::new(AuditLog::new()),
            faults,
            retry: RetryPolicy::default(),
            retry_rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)),
            lazy: crate::lazy::LazyState::new(),
            cache: crate::cache::SystemCaches::new(),
        }
    }

    /// Cumulative hot-key cache statistics (content-key and update-key
    /// chain hits, misses, evictions).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Sends one message through the wire under the retry policy,
    /// consulting the fault injector at `point` on every attempt.
    ///
    /// Drops and corruptions burn bandwidth (the lossy transmission is
    /// still byte-accounted) and are retried with backoff; successful
    /// retries are logged as [`Disposition::Retransmit`] so the delivery
    /// report keeps exact counts. Injected duplicates deliver twice.
    /// Storage errors and authority outages at a transmit point are
    /// treated as transient unavailability of the receiving end.
    ///
    /// # Errors
    ///
    /// [`CloudError::Crashed`] on an injected crash,
    /// [`CloudError::RetriesExhausted`] when transient faults outlast the
    /// retry budget.
    pub(crate) fn transmit(
        &self,
        point: &'static str,
        from: Endpoint,
        to: Endpoint,
        what: &str,
        bytes: usize,
    ) -> Result<(), CloudError> {
        self.retry
            .run(
                &mut LockedRng(&self.retry_rng),
                point,
                |attempt| {
                    let ok = if attempt > 1 {
                        Disposition::Retransmit
                    } else {
                        Disposition::Delivered
                    };
                    let send = |disposition| {
                        self.wire
                            .send_with(from.clone(), to.clone(), what, bytes, disposition)
                    };
                    match self.faults.decide(point) {
                        Some(FaultKind::Drop) => {
                            send(Disposition::Dropped);
                            Err(CloudError::Lost { point })
                        }
                        Some(FaultKind::Corrupt) => {
                            send(Disposition::Corrupted);
                            Err(CloudError::Lost { point })
                        }
                        Some(FaultKind::Duplicate) => {
                            send(ok);
                            send(Disposition::Duplicate);
                            Ok(())
                        }
                        kind => {
                            self.local_fault(point, kind, None)?;
                            send(ok);
                            Ok(())
                        }
                    }
                },
                CloudError::is_transient,
            )
            .map_err(|e| CloudError::from_retry(point, e))
    }

    /// Consults the fault injector at a local (non-wire) operation point
    /// under the retry policy.
    pub(crate) fn local_op(
        &self,
        point: &'static str,
        aid: Option<&AuthorityId>,
    ) -> Result<(), CloudError> {
        self.retry
            .run(
                &mut LockedRng(&self.retry_rng),
                point,
                |_| self.local_fault(point, self.faults.decide(point), aid),
                CloudError::is_transient,
            )
            .map_err(|e| CloudError::from_retry(point, e))
    }

    /// What an injected fault means off the wire (and for a transmission
    /// that never left): drop/duplicate/corrupt kinds are meaningless
    /// there and ignored, and an authority outage names `aid` when the
    /// point has one.
    fn local_fault(
        &self,
        point: &'static str,
        kind: Option<FaultKind>,
        aid: Option<&AuthorityId>,
    ) -> Result<(), CloudError> {
        match kind {
            Some(FaultKind::Crash) => Err(CloudError::Crashed { point }),
            // The disk-level kinds only shape byte survival inside
            // mabe-store; on a cloud op they degrade to a transient
            // storage error.
            Some(
                FaultKind::StorageError
                | FaultKind::TornWrite
                | FaultKind::PartialFlush
                | FaultKind::ReadCorrupt
                | FaultKind::ManifestTorn,
            ) => Err(CloudError::Storage(point)),
            Some(FaultKind::NoSpace) => Err(CloudError::StoreFull { point }),
            Some(FaultKind::AuthorityDown) => Err(match aid {
                Some(a) => CloudError::AuthorityUnavailable(a.clone()),
                None => CloudError::Lost { point },
            }),
            Some(FaultKind::Delay) => {
                mabe_telemetry::global()
                    .counter("mabe_fault_delay_us_total", &[("point", point)])
                    .add(self.faults.delay_us());
                Ok(())
            }
            Some(FaultKind::Drop | FaultKind::Duplicate | FaultKind::Corrupt) | None => Ok(()),
        }
    }

    /// The byte-accounted transport log.
    pub fn wire(&self) -> &Wire {
        &self.wire
    }

    /// The tamper-evident audit trail of every system operation.
    ///
    /// Returns a lock guard dereferencing to the [`AuditLog`]; method
    /// calls work as before (`sys.audit().verify()`), comparisons need
    /// an explicit `&*`.
    pub fn audit(&self) -> impl std::ops::Deref<Target = AuditLog> + '_ {
        self.audit.lock()
    }

    /// Resets communication accounting (e.g. between experiment phases).
    pub fn reset_wire(&self) {
        self.wire.reset();
    }

    /// The fault injector (inspect the injection log, hit counters,
    /// arm/disarm mid-run — all interior-mutable).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Replaces the fault injector wholesale (e.g. a fresh chaos plan).
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// JSON snapshot of the global telemetry registry: crypto-op
    /// counters, per-pair wire bytes, and latency histograms
    /// (encrypt/decrypt/re-encrypt, server ops, revocation end-to-end).
    pub fn metrics_snapshot(&self) -> String {
        mabe_telemetry::global().snapshot_json()
    }

    /// Prometheus text exposition of the same registry.
    pub fn metrics_prometheus(&self) -> String {
        mabe_telemetry::global().prometheus()
    }

    /// The cloud server.
    pub fn server(&self) -> &CloudServer {
        &self.data.server
    }

    /// Current key version of an authority.
    pub fn authority_version(&self, aid: &AuthorityId) -> Option<u64> {
        self.control
            .shard(aid)
            .map(|shard| shard.state.lock().authority.version())
    }

    /// Every installed authority shard with its current liveness
    /// (`true` = serving, `false` = marked down). This is the view the
    /// observability plane's `/readyz` probes scrape, so it takes each
    /// shard lock only long enough to read the `down` flag.
    pub fn authority_liveness(&self) -> Vec<(AuthorityId, bool)> {
        self.control
            .shards
            .read()
            .iter()
            .map(|(aid, shard)| (aid.clone(), !shard.state.lock().down))
            .collect()
    }

    /// Paper-accounted storage overhead per entity (Table III).
    pub fn storage_report(&self) -> StorageReport {
        let authorities = self
            .control
            .shards
            .read()
            .keys()
            .map(|aid| (aid.clone(), ZP_BYTES))
            .collect();
        let owners = self
            .directory
            .owners
            .read()
            .iter()
            .map(|(id, o)| (id.clone(), o.storage_size()))
            .collect();
        let users = self
            .directory
            .users
            .read()
            .users
            .iter()
            .map(|(uid, s)| {
                (
                    uid.clone(),
                    s.keys.values().map(UserSecretKey::wire_size).sum(),
                )
            })
            .collect();
        StorageReport {
            authorities,
            owners,
            users,
            server: self.data.server.storage_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::PairClass;

    /// Populates the paper's running example in an existing system: a
    /// medical authority and a clinical-trial authority, one hospital
    /// owner, three users.
    fn medical_world(sys: &CloudSystem) -> (Uid, Uid, Uid, OwnerId) {
        sys.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        sys.add_authority("Trial", &["Researcher", "Sponsor"])
            .unwrap();
        let owner = sys.add_owner("hospital").unwrap();
        let alice = sys.add_user("alice").unwrap();
        let bob = sys.add_user("bob").unwrap();
        let carol = sys.add_user("carol").unwrap();
        sys.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
            .unwrap();
        sys.grant(&bob, &["Doctor@MedOrg", "Sponsor@Trial"])
            .unwrap();
        sys.grant(&carol, &["Nurse@MedOrg", "Researcher@Trial"])
            .unwrap();
        (alice, bob, carol, owner)
    }

    fn medical_system() -> (CloudSystem, Uid, Uid, Uid, OwnerId) {
        let sys = CloudSystem::new(42);
        let (alice, bob, carol, owner) = medical_world(&sys);
        (sys, alice, bob, carol, owner)
    }

    #[test]
    fn end_to_end_publish_and_read() {
        let (sys, alice, bob, carol, owner) = medical_system();
        sys.publish(
            &owner,
            "patient-7",
            &[
                ("diagnosis", b"flu".as_slice(), "Doctor@MedOrg"),
                (
                    "trial-data",
                    b"cohort A".as_slice(),
                    "Doctor@MedOrg AND Researcher@Trial",
                ),
            ],
        )
        .unwrap();

        // Alice (Doctor+Researcher) reads both.
        assert_eq!(
            sys.read(&alice, &owner, "patient-7", "diagnosis").unwrap(),
            b"flu"
        );
        assert_eq!(
            sys.read(&alice, &owner, "patient-7", "trial-data").unwrap(),
            b"cohort A"
        );
        // Bob (Doctor+Sponsor) reads diagnosis only.
        assert_eq!(
            sys.read(&bob, &owner, "patient-7", "diagnosis").unwrap(),
            b"flu"
        );
        assert!(sys.read(&bob, &owner, "patient-7", "trial-data").is_err());
        // Carol (Nurse+Researcher) reads neither.
        assert!(sys.read(&carol, &owner, "patient-7", "diagnosis").is_err());
        assert!(sys.read(&carol, &owner, "patient-7", "trial-data").is_err());
    }

    #[test]
    fn revocation_lifecycle_through_the_system() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "rec",
            &[("x", b"secret".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        assert_eq!(sys.read(&alice, &owner, "rec", "x").unwrap(), b"secret");
        assert_eq!(sys.read(&bob, &owner, "rec", "x").unwrap(), b"secret");

        // Revoke Alice's Doctor attribute.
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(2));

        // Alice can no longer read; Bob still can (keys auto-updated).
        assert!(sys.read(&alice, &owner, "rec", "x").is_err());
        assert_eq!(sys.read(&bob, &owner, "rec", "x").unwrap(), b"secret");

        // New publications under the new version behave the same.
        sys.publish(
            &owner,
            "rec2",
            &[("y", b"fresh".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        assert!(sys.read(&alice, &owner, "rec2", "y").is_err());
        assert_eq!(sys.read(&bob, &owner, "rec2", "y").unwrap(), b"fresh");

        // A user who joins after the revocation can read the old record.
        let dave = sys.add_user("dave").unwrap();
        sys.grant(&dave, &["Doctor@MedOrg"]).unwrap();
        assert_eq!(sys.read(&dave, &owner, "rec", "x").unwrap(), b"secret");
    }

    #[test]
    fn republished_record_is_read_fresh_not_from_a_stale_content_key() {
        let (sys, alice, _bob, _carol, owner) = medical_system();
        let publish = |data: &[u8]| {
            sys.publish(&owner, "rec", &[("x", data, "Doctor@MedOrg")])
                .unwrap()
        };
        let read = || sys.read(&alice, &owner, "rec", "x").unwrap();
        publish(b"first");
        assert_eq!(read(), b"first");
        assert_eq!(read(), b"first");
        let warm = sys.cache_stats();
        assert_eq!((warm.content_hits, warm.content_misses), (1, 1));

        // Same address, policy and key versions; a new ciphertext and
        // content key.
        publish(b"second");
        assert_eq!(read(), b"second");
        assert_eq!(read(), b"second");
        let after = sys.cache_stats();
        assert_eq!((after.content_hits, after.content_misses), (2, 2));
    }

    #[test]
    fn late_owner_gets_keys_flowing() {
        let (sys, alice, _bob, _carol, _owner) = medical_system();
        let clinic = sys.add_owner("clinic").unwrap();
        sys.publish(
            &clinic,
            "c-rec",
            &[("n", b"note".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        assert_eq!(sys.read(&alice, &clinic, "c-rec", "n").unwrap(), b"note");
    }

    #[test]
    fn wire_accounting_accumulates_per_pair() {
        let (sys, alice, _bob, _carol, owner) = medical_system();
        sys.publish(&owner, "r", &[("x", b"d".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        sys.read(&alice, &owner, "r", "x").unwrap();
        let report = sys.wire().report();
        assert!(report[&PairClass::AuthorityUser] > 0, "secret keys flowed");
        assert!(report[&PairClass::AuthorityOwner] > 0, "public keys flowed");
        assert!(report[&PairClass::ServerOwner] > 0, "upload flowed");
        assert!(report[&PairClass::ServerUser] > 0, "download flowed");
    }

    #[test]
    fn storage_report_covers_all_entities() {
        let (sys, _alice, _bob, _carol, owner) = medical_system();
        let report = sys.storage_report();
        assert_eq!(report.authorities.len(), 2);
        // Authority stores only its version key.
        assert!(report.authorities.values().all(|&b| b == ZP_BYTES));
        assert!(report.owners[&owner] > 0);
        assert_eq!(report.users.len(), 3);
        assert!(report.users.values().all(|&b| b > 0));
    }

    #[test]
    fn unknown_lookups_error() {
        let (sys, alice, _bob, _carol, owner) = medical_system();
        assert!(matches!(
            sys.read(&alice, &owner, "nope", "x"),
            Err(CloudError::UnknownRecord(_))
        ));
        sys.publish(&owner, "r", &[("x", b"d".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        assert!(matches!(
            sys.read(&alice, &owner, "r", "nope"),
            Err(CloudError::UnknownComponent(_))
        ));
        assert!(matches!(
            sys.grant(&Uid::new("ghost"), &["Doctor@MedOrg"]),
            Err(CloudError::Core(Error::UnknownUser(_)))
        ));
        assert!(matches!(
            sys.revoke(&alice, "Doctor@Nowhere"),
            Err(CloudError::UnknownAuthority(_))
        ));
        assert!(matches!(
            sys.publish(&owner, "bad", &[("x", b"d".as_slice(), "not a policy !!")]),
            Err(CloudError::Parse(_))
        ));
    }

    #[test]
    fn revocation_reencrypts_every_owners_ciphertexts() {
        let (sys, alice, bob, _carol, hospital) = medical_system();
        let clinic = sys.add_owner("clinic").unwrap();
        sys.publish(
            &hospital,
            "h-rec",
            &[("x", b"h".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        sys.publish(&clinic, "c-rec", &[("x", b"c".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        assert!(sys.read(&alice, &hospital, "h-rec", "x").is_ok());
        assert!(sys.read(&alice, &clinic, "c-rec", "x").is_ok());

        // One revocation at MedOrg must re-encrypt records of BOTH
        // owners (per-owner update keys, per-owner update info).
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert!(sys.read(&alice, &hospital, "h-rec", "x").is_err());
        assert!(sys.read(&alice, &clinic, "c-rec", "x").is_err());
        assert_eq!(sys.read(&bob, &hospital, "h-rec", "x").unwrap(), b"h");
        assert_eq!(sys.read(&bob, &clinic, "c-rec", "x").unwrap(), b"c");
    }

    #[test]
    fn outsourced_read_matches_direct_read() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "r",
            &[(
                "x",
                b"outsource me".as_slice(),
                "Doctor@MedOrg AND Researcher@Trial",
            )],
        )
        .unwrap();
        assert_eq!(sys.read(&alice, &owner, "r", "x").unwrap(), b"outsource me");
        assert_eq!(
            sys.read_outsourced(&alice, &owner, "r", "x").unwrap(),
            b"outsource me"
        );
        // Unauthorized user fails identically on both paths.
        assert!(sys.read(&bob, &owner, "r", "x").is_err());
        assert!(sys.read_outsourced(&bob, &owner, "r", "x").is_err());
        // The outsourced path also survives a revocation + key update.
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert!(sys.read_outsourced(&alice, &owner, "r", "x").is_err());
    }

    #[test]
    fn audit_trail_records_lifecycle() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        let _ = sys.read(&alice, &owner, "r", "x");
        let _ = sys.read(&bob, &owner, "r", "x");
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        let _ = sys.read(&alice, &owner, "r", "x"); // denied

        let audit = sys.audit();
        assert!(audit.verify(), "hash chain intact");
        // 2 AAs + 1 owner + 3 users + 3 grants + 1 publish + 3 reads +
        // 3 for the revocation (begun + revoked + completed) = 16.
        assert_eq!(audit.entries().len(), 16);
        assert!(audit.incomplete_revocations().is_empty());
        assert_eq!(audit.denials().count(), 1);
        assert!(audit.for_user("alice").count() >= 4);
        // The denial is alice's post-revocation read.
        let denial = audit.denials().next().unwrap();
        assert!(denial.event.to_string().contains("alice"));
    }

    #[test]
    fn user_level_revocation() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "r",
            &[
                ("med", b"m".as_slice(), "Doctor@MedOrg"),
                ("trial", b"t".as_slice(), "Researcher@Trial"),
            ],
        )
        .unwrap();
        assert!(sys.read(&alice, &owner, "r", "med").is_ok());
        assert!(sys.read(&alice, &owner, "r", "trial").is_ok());

        // Wipe Alice everywhere in one call: MedOrg and Trial each bump
        // exactly once regardless of how many attributes she held.
        sys.revoke_user(&alice).unwrap();
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(2));
        assert_eq!(sys.authority_version(&AuthorityId::new("Trial")), Some(2));
        assert!(sys.read(&alice, &owner, "r", "med").is_err());
        assert!(sys.read(&alice, &owner, "r", "trial").is_err());
        // Bob unaffected.
        assert!(sys.read(&bob, &owner, "r", "med").is_ok());
        // Re-revoking an attribute-less user fails.
        assert!(
            sys.revoke_user(&alice).is_ok(),
            "no-op: no authorities involved"
        );
        assert!(sys
            .revoke_user_at(&alice, &AuthorityId::new("MedOrg"))
            .is_err());
    }

    #[test]
    fn offline_user_catches_up_with_queued_update_keys() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        assert!(sys.read(&bob, &owner, "r", "x").is_ok());

        // Bob goes offline; two revocations happen (two version bumps).
        sys.set_offline(&bob);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        let dave = sys.add_user("dave").unwrap();
        sys.grant(&dave, &["Doctor@MedOrg"]).unwrap();
        sys.revoke(&dave, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(3));

        // Bob's keys are two versions stale: reads fail cleanly.
        assert!(sys.read(&bob, &owner, "r", "x").is_err());

        // Coming back online replays the queued UK chain in order.
        sys.sync_user(&bob).unwrap();
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");

        // Syncing an already-synced user is a no-op.
        sys.sync_user(&bob).unwrap();
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");
    }

    #[test]
    fn metrics_exports_cover_the_lifecycle() {
        let (sys, alice, _bob, _carol, owner) = medical_system();
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        sys.read(&alice, &owner, "r", "x").unwrap();
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();

        let json = sys.metrics_snapshot();
        for series in [
            "mabe_encrypt_latency_us",
            "mabe_decrypt_latency_us",
            "mabe_reencrypt_latency_us",
            "mabe_revocation_e2e_latency_us",
            "mabe_system_op_latency_us",
            "mabe_server_op_latency_us",
            "mabe_wire_bytes_total",
            "mabe_crypto_ops_total",
        ] {
            assert!(
                json.contains(series),
                "JSON snapshot missing {series}: {json}"
            );
        }

        let prom = sys.metrics_prometheus();
        assert!(prom.contains("# TYPE mabe_wire_bytes_total counter"));
        assert!(prom.contains("# TYPE mabe_revocation_e2e_latency_us histogram"));
        assert!(prom.contains(r#"pair="authority_user""#));
    }

    #[test]
    fn multiple_revocations_chain_versions() {
        let (sys, alice, bob, carol, owner) = medical_system();
        sys.publish(
            &owner,
            "r",
            &[("x", b"v".as_slice(), "Nurse@MedOrg OR Doctor@MedOrg")],
        )
        .unwrap();
        assert_eq!(sys.read(&carol, &owner, "r", "x").unwrap(), b"v");

        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        sys.revoke(&carol, "Nurse@MedOrg").unwrap();
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(3));

        // Bob still reads after two re-encryptions.
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");
        // Carol lost access.
        assert!(sys.read(&carol, &owner, "r", "x").is_err());
    }

    #[test]
    fn authority_outage_blocks_control_plane_not_reads() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        let med = AuthorityId::new("MedOrg");
        sys.set_authority_down(&med);
        assert!(sys.authority_is_down(&med));
        // Control-plane operations against the downed authority fail...
        assert!(matches!(
            sys.revoke(&alice, "Doctor@MedOrg"),
            Err(CloudError::AuthorityUnavailable(_))
        ));
        assert!(matches!(
            sys.grant(&bob, &["Nurse@MedOrg"]),
            Err(CloudError::AuthorityUnavailable(_))
        ));
        // ...but the data plane still serves the last consistent version.
        assert_eq!(sys.read(&alice, &owner, "r", "x").unwrap(), b"v");
        // Back up, the revocation goes through.
        sys.set_authority_up(&med);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert!(sys.read(&alice, &owner, "r", "x").is_err());
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");
    }

    #[test]
    fn crash_mid_reencryption_recovers_forward() {
        use mabe_faults::FaultPlan;
        let plan = FaultPlan::new(11).at(fault_points::REVOKE_REENCRYPT, 1, FaultKind::Crash);
        let sys = CloudSystem::with_faults(42, FaultInjector::new(plan));
        let (alice, bob, _carol, owner) = medical_world(&sys);
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();

        let err = sys.revoke(&alice, "Doctor@MedOrg").unwrap_err();
        assert!(matches!(err, CloudError::Crashed { .. }), "got {err}");
        assert!(sys.needs_recovery());
        assert_eq!(sys.audit().incomplete_revocations().len(), 1);
        assert_eq!(sys.pending_revocations().len(), 1);

        // The scheduled crash fired once; recovery rolls the journaled
        // revocation forward to convergence.
        assert_eq!(sys.recover().unwrap(), 1);
        assert!(!sys.needs_recovery());
        assert!(sys.audit().incomplete_revocations().is_empty());
        assert!(sys.audit().verify());
        assert!(
            sys.read(&alice, &owner, "r", "x").is_err(),
            "revoked stays revoked after recovery"
        );
        assert_eq!(
            sys.read(&bob, &owner, "r", "x").unwrap(),
            b"v",
            "holder converged"
        );
        assert!(sys
            .metrics_snapshot()
            .contains("mabe_revocations_recovered_total"));
    }

    #[test]
    fn crash_during_key_delivery_is_resumable_and_idempotent() {
        use mabe_faults::FaultPlan;
        // Crash on the very first holder update-key delivery.
        let plan = FaultPlan::new(3).at(fault_points::REVOKE_UPDATE_DELIVER, 1, FaultKind::Crash);
        let sys = CloudSystem::with_faults(42, FaultInjector::new(plan));
        let (alice, bob, carol, owner) = medical_world(&sys);
        sys.publish(
            &owner,
            "r",
            &[("x", b"v".as_slice(), "Nurse@MedOrg OR Doctor@MedOrg")],
        )
        .unwrap();

        assert!(sys.revoke(&alice, "Doctor@MedOrg").is_err());
        assert!(sys.needs_recovery());
        // recover() twice: the second call must be a clean no-op.
        assert_eq!(sys.recover().unwrap(), 1);
        assert_eq!(sys.recover().unwrap(), 0);
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");
        assert_eq!(sys.read(&carol, &owner, "r", "x").unwrap(), b"v");
        assert!(sys.read(&alice, &owner, "r", "x").is_err());
    }

    #[test]
    fn a_new_revocation_first_drives_a_stalled_one() {
        use mabe_faults::FaultPlan;
        let plan = FaultPlan::new(7).at(fault_points::REVOKE_REENCRYPT, 1, FaultKind::Crash);
        let sys = CloudSystem::with_faults(42, FaultInjector::new(plan));
        let (alice, bob, carol, owner) = medical_world(&sys);
        sys.publish(
            &owner,
            "r",
            &[("x", b"v".as_slice(), "Nurse@MedOrg OR Doctor@MedOrg")],
        )
        .unwrap();
        assert!(sys.revoke(&alice, "Doctor@MedOrg").is_err());
        assert!(sys.needs_recovery());
        // Versions chain: revoking carol at the same authority first
        // rolls the stalled revocation forward, then re-keys.
        sys.revoke(&carol, "Nurse@MedOrg").unwrap();
        assert!(!sys.needs_recovery());
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(3));
        assert_eq!(sys.read(&bob, &owner, "r", "x").unwrap(), b"v");
        assert!(sys.read(&alice, &owner, "r", "x").is_err());
        assert!(sys.read(&carol, &owner, "r", "x").is_err());
    }

    #[test]
    fn transient_drops_are_retried_transparently() {
        use mabe_faults::FaultPlan;
        let plan = FaultPlan::new(5)
            .rate(fault_points::READ_FETCH, FaultKind::Drop, 0.4)
            .budget(6);
        let sys = CloudSystem::with_faults(42, FaultInjector::new(plan));
        let (alice, _bob, _carol, owner) = medical_world(&sys);
        sys.publish(&owner, "r", &[("x", b"v".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        for _ in 0..8 {
            assert_eq!(sys.read(&alice, &owner, "r", "x").unwrap(), b"v");
        }
        let report = sys.wire().delivery_report();
        assert!(report.dropped > 0, "some fetches were dropped: {report:?}");
        // Every read succeeded, so each drop burst ended in a delivered
        // retransmission (consecutive drops within one operation share
        // one final retransmit).
        assert!(
            report.retried > 0 && report.retried <= report.dropped,
            "drops ended in retransmissions: {report:?}"
        );
        assert_eq!(
            report.bytes_sent,
            report.bytes_delivered + report.bytes_lost
        );
        assert!(sys.faults().injected(FaultKind::Drop) > 0);
    }

    #[test]
    fn syncing_an_offline_revoked_user_does_not_resurrect_stale_keys() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "r",
            &[
                ("med", b"m".as_slice(), "Doctor@MedOrg"),
                ("trial", b"t".as_slice(), "Sponsor@Trial"),
            ],
        )
        .unwrap();
        assert!(sys.read(&bob, &owner, "r", "med").is_ok());

        sys.set_offline(&bob);
        // A revocation bob misses queues an update key (v1 -> v2)...
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        // ...then bob himself is revoked at MedOrg while still offline:
        // fresh reduced keys (already at v3) are delivered eagerly.
        sys.revoke(&bob, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.authority_version(&AuthorityId::new("MedOrg")), Some(3));

        // The old failure mode: sync replayed the stale v1->v2 update
        // onto the fresh v3 key and died with VersionMismatch.
        sys.sync_user(&bob).unwrap();
        assert!(
            sys.read(&bob, &owner, "r", "med").is_err(),
            "revoked attribute stays revoked after sync"
        );
        assert_eq!(
            sys.read(&bob, &owner, "r", "trial").unwrap(),
            b"t",
            "unrelated authority unaffected"
        );
        // Syncing again is a no-op.
        sys.sync_user(&bob).unwrap();
    }

    #[test]
    fn parallel_reencryption_matches_sequential_results() {
        // Same seed, same world: one system re-encrypts sequentially,
        // the other with a 4-worker pool. Access control must agree.
        let run = |workers: usize| {
            let sys = CloudSystem::new(42);
            let (alice, bob, _carol, owner) = medical_world(&sys);
            for i in 0..6 {
                sys.publish(
                    &owner,
                    &format!("rec-{i}"),
                    &[("x", b"v".as_slice(), "Doctor@MedOrg")],
                )
                .unwrap();
            }
            sys.set_reencrypt_workers(workers);
            sys.revoke(&alice, "Doctor@MedOrg").unwrap();
            let alice_reads: Vec<bool> = (0..6)
                .map(|i| sys.read(&alice, &owner, &format!("rec-{i}"), "x").is_ok())
                .collect();
            let bob_reads: Vec<bool> = (0..6)
                .map(|i| sys.read(&bob, &owner, &format!("rec-{i}"), "x").is_ok())
                .collect();
            (alice_reads, bob_reads)
        };
        let (a1, b1) = run(1);
        let (a4, b4) = run(4);
        assert!(a1.iter().all(|ok| !ok), "revoked reader locked out");
        assert!(b1.iter().all(|ok| *ok), "holder keeps access");
        assert_eq!(a1, a4);
        assert_eq!(b1, b4);
    }
}
