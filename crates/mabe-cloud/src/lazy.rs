//! Lazy revocation: the pending-upgrade queue, the server-held
//! update-key archive, read-triggered upgrade, and the drain machinery.
//!
//! The paper's revocation (§V-C) is *eager*: one `revoke()` re-encrypts
//! every affected ciphertext component before returning, which at large
//! component counts is a stop-the-world event. What makes laziness safe
//! is that re-encryption was never the security boundary — the version
//! check inside [`mabe_core::open_component`] already denies a revoked
//! user the moment the authority re-keys and fresh reduced keys reach
//! the revoked user. Server-side ciphertext upgrades only matter for
//! *availability* (non-revoked holders whose keys already advanced) and
//! for hygiene (an adversary holding pre-revocation keys must not find
//! pre-revocation ciphertexts), so they can be deferred, batched, and
//! resumed — as long as **no stale component is ever served without
//! being upgraded first**.
//!
//! The machine has three parts:
//!
//! * **The update-key archive** — every revocation (eager *or* lazy)
//!   parks its per-owner [`UpdateKey`]s here, keyed by
//!   `(authority, owner, from_version)`. Consecutive keys compose
//!   ([`UpdateKey::compose`]), so a component stale by `n` versions is
//!   upgraded in **one** re-encryption pass regardless of `n`. This is
//!   the "server-held update key" of the read-triggered path.
//! * **The pending-upgrade queue** — one entry per deferred revocation,
//!   keyed by the global revocation journal id. Enqueue (the defer
//!   step) and drain completion go through the drivers'
//!   [`Journal`](crate::control::Journal), so under
//!   [`crate::DurableSystem`] an acked lazy revoke survives a crash and
//!   [`crate::DurableSystem::open`] replays it back into the queue.
//! * **The drain** — the only drain loop, shared by both systems:
//!   [`CloudSystem::drain_lazy_batch`] claims the oldest un-claimed
//!   authority (so multiple workers never contend on one authority's
//!   worklist), composes all of its pending revocations into a single
//!   update pass, walks [`crate::CloudServer::affected_ciphertexts`]
//!   outside the op lock until no component is left below the target
//!   version, then completes the claim under it. The worklist is
//!   version-keyed and therefore idempotent: crash, replay, and racing
//!   read-triggered upgrades all just shrink the next pass. Revokes
//!   apply backpressure through the same loop.
//!
//! Reads never take a shard lock to decide staleness — the archive
//! alone answers "is this component behind?", which keeps the read path
//! concurrent with the control plane (DESIGN.md §12 lock ordering: the
//! lazy queue/archive locks sit below shard state and above the
//! directory/server leaves).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use mabe_core::{CiphertextId, Error, OwnerId, RevocationEvent, UpdateKey, WithTables};
use mabe_policy::AuthorityId;

use crate::audit::AuditEvent;
use crate::control::{Journal, Step, Unjournaled};
use crate::data::{Prepared, WorkItem};
use crate::recovery::PendingRevocation;
use crate::server::RecordKey;
use crate::system::{fault_points, traced, CloudError, CloudSystem};

/// Default bound on queued pending-upgrade batches before new revokes
/// feel backpressure (they drain a batch inline instead of enqueueing
/// unboundedly).
pub const DEFAULT_LAZY_CAPACITY: usize = 64;

/// How many times a backpressured revoke yields waiting for another
/// worker's in-flight drain before proceeding anyway (the capacity is a
/// soft bound — work is never dropped).
const BACKPRESSURE_SPINS: usize = 100;

/// One deferred revocation awaiting server-side re-encryption.
#[derive(Clone, Debug)]
pub(crate) struct PendingUpgrade {
    pub(crate) aid: AuthorityId,
    pub(crate) from_version: u64,
    pub(crate) to_version: u64,
    /// When the batch was parked (staleness metric; not persisted —
    /// replayed entries restart the clock).
    pub(crate) enqueued: Instant,
}

/// Lazy-revocation state hanging off [`CloudSystem`].
#[derive(Debug)]
pub(crate) struct LazyState {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    /// Deferred revocations keyed by the global revocation journal id.
    pub(crate) queue: Mutex<BTreeMap<u64, PendingUpgrade>>,
    /// Server-held update keys keyed by `(authority, owner,
    /// from_version)`; consecutive entries compose into arbitrary-span
    /// upgrades. Populated by **every** revocation, eager or lazy.
    pub(crate) archive: RwLock<BTreeMap<(AuthorityId, OwnerId, u64), UpdateKey>>,
    /// Authorities currently claimed by a drain worker.
    draining: Mutex<BTreeSet<AuthorityId>>,
}

impl LazyState {
    pub(crate) fn new() -> Self {
        LazyState {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_LAZY_CAPACITY),
            queue: Mutex::new(BTreeMap::new()),
            archive: RwLock::new(BTreeMap::new()),
            draining: Mutex::new(BTreeSet::new()),
        }
    }
}

/// A claimed slice of the pending-upgrade queue: every queued
/// revocation of one authority, composed into a single
/// `from_version..to_version` upgrade pass. The holder must call
/// [`CloudSystem::release_claim`] when done (success or failure).
#[derive(Clone, Debug)]
struct LazyClaim {
    aid: AuthorityId,
    from_version: u64,
    to_version: u64,
    /// `(journal id, to_version, enqueued)` per claimed entry, in id
    /// order.
    entries: Vec<(u64, u64, Instant)>,
}

impl CloudSystem {
    /// Refreshes the queue-depth gauges: the unlabeled total (the
    /// pre-existing series, kept for baseline compatibility) plus one
    /// `authority`-labeled series per known authority — zeroed when an
    /// authority has nothing queued, so a drained authority's series
    /// falls back to 0 instead of freezing at its last depth. Durable
    /// open calls it once replay has refilled the queue.
    pub(crate) fn refresh_queue_gauges(&self) {
        let per_aid: BTreeMap<AuthorityId, i64> = {
            let queue = self.lazy.queue.lock();
            let mut per_aid = BTreeMap::new();
            for p in queue.values() {
                *per_aid.entry(p.aid.clone()).or_insert(0) += 1;
            }
            per_aid
        };
        let telemetry = mabe_telemetry::global();
        telemetry
            .gauge("mabe_lazy_queue_depth", &[])
            .set(per_aid.values().sum());
        let aids: Vec<AuthorityId> = self.control.shards.read().keys().cloned().collect();
        for aid in aids {
            let depth = per_aid.get(&aid).copied().unwrap_or(0);
            telemetry
                .gauge("mabe_lazy_queue_depth", &[("authority", &aid.to_string())])
                .set(depth);
        }
    }

    /// Switches revocation between eager (the paper's inline
    /// re-encryption, the default) and lazy (re-encryption parked on
    /// the pending-upgrade queue).
    /// Either mode may be toggled at any time — queued work from lazy
    /// revocations keeps draining after a switch back to eager.
    pub fn set_lazy_revocation(&self, enabled: bool) {
        self.lazy.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether revocations currently defer re-encryption.
    pub fn lazy_revocation_enabled(&self) -> bool {
        self.lazy.enabled.load(Ordering::Relaxed)
    }

    /// Bounds the pending-upgrade queue: a revoke arriving with the
    /// queue at capacity drains a batch inline (backpressure) instead
    /// of enqueueing unboundedly. The bound is soft — work is never
    /// dropped.
    pub fn set_lazy_capacity(&self, capacity: usize) {
        self.lazy.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// The configured queue bound.
    pub fn lazy_capacity(&self) -> usize {
        self.lazy.capacity.load(Ordering::Relaxed)
    }

    /// How many deferred revocations are awaiting drain.
    pub fn lazy_queue_depth(&self) -> usize {
        self.lazy.queue.lock().len()
    }

    /// Parks every per-owner update key of a revocation in the archive.
    /// Called for **every** revocation (eager or lazy) at begin time,
    /// so read-triggered upgrade can heal any component that somehow
    /// stayed behind (e.g. a publish that raced the eager worklist).
    pub(crate) fn archive_update_keys(&self, event: &RevocationEvent) {
        let mut archive = self.lazy.archive.write();
        for (owner_id, uk) in &event.update_keys {
            archive.insert(
                (event.aid.clone(), owner_id.clone(), event.from_version),
                uk.clone(),
            );
        }
    }

    /// Composes archived update keys for `(aid, owner)` starting at
    /// `from` into one key spanning to the newest archived version.
    /// `None` if the archive holds no key at `from` (the component is
    /// current, or the revocation predates this process and was fully
    /// converged before checkpointing).
    pub(crate) fn chain_from(
        &self,
        aid: &AuthorityId,
        owner: &OwnerId,
        from: u64,
    ) -> Option<UpdateKey> {
        // Chain cache: a composed span is reusable only while it still
        // reaches the archive head — two map probes validate that (the
        // span still starts at an archived link, and no newer link
        // extends past its end). Revocation also purges the cache on
        // every bump, so this guard is belt-and-braces.
        if let Some(chain) = self.cache.get_chain(aid.as_str(), owner.as_str(), from) {
            let archive = self.lazy.archive.read();
            if archive.contains_key(&(aid.clone(), owner.clone(), from))
                && !archive.contains_key(&(aid.clone(), owner.clone(), chain.to_version))
            {
                return Some(chain);
            }
        }
        let links: Vec<UpdateKey> = {
            let archive = self.lazy.archive.read();
            let mut links = Vec::new();
            let mut v = from;
            while let Some(uk) = archive.get(&(aid.clone(), owner.clone(), v)) {
                v = uk.to_version;
                links.push(uk.clone());
            }
            links
        };
        let mut iter = links.into_iter();
        let mut uk = iter.next()?;
        for next in iter {
            uk = uk.compose(&next).ok()?;
        }
        self.cache
            .insert_chain(aid.as_str(), owner.as_str(), from, uk.clone());
        Some(uk)
    }

    /// The subset of a component's per-authority versions the archive
    /// knows how to advance — non-empty means the component is stale
    /// and must be upgraded before it is served.
    pub(crate) fn stale_versions(
        &self,
        owner: &OwnerId,
        versions: &BTreeMap<AuthorityId, u64>,
    ) -> Vec<(AuthorityId, u64)> {
        let archive = self.lazy.archive.read();
        if archive.is_empty() {
            return Vec::new();
        }
        versions
            .iter()
            .filter(|(aid, v)| archive.contains_key(&((*aid).clone(), owner.clone(), **v)))
            .map(|(aid, v)| (aid.clone(), *v))
            .collect()
    }

    /// Upgrades one stored component from `from` to the newest archived
    /// version at `aid`: composed update key + owner-produced update
    /// info + server-side proxy re-encryption, with the step's tables
    /// from the step-table cache once the step has had
    /// [`mabe_core::LINES_BREAK_EVEN`] single upgrades. A concurrent
    /// upgrader that took the component past the chain's target wins the
    /// race, which is success; one that took it only part of the way
    /// leaves a newer version, and the upgrade goes on from there.
    pub(crate) fn upgrade_one(
        &self,
        aid: &AuthorityId,
        owner_id: &OwnerId,
        mut from: u64,
        record_key: &RecordKey,
        label: &str,
        ct_id: CiphertextId,
    ) -> Result<(), CloudError> {
        while let Some(uk) = self.chain_from(aid, owner_id, from) {
            let tables = self.single_upgrade_tables(owner_id, &uk);
            let mut waited = false;
            let ui = loop {
                let result = {
                    let owners = self.directory.owners.read();
                    let owner = owners
                        .get(owner_id)
                        .ok_or_else(|| CloudError::Core(Error::UnknownOwner(owner_id.clone())))?;
                    let aid = WithTables::new(aid, tables.as_deref());
                    owner.update_info_for(ct_id, aid, from, uk.to_version)
                };
                match result {
                    Ok(ui) => break ui,
                    // The owner's attribute-key history hasn't reached
                    // the chain target yet: the revocation that
                    // archived this update key is still in its
                    // immediate phase (which applies owner update keys
                    // before acknowledging). Wait it out behind the
                    // shard lock and retry once — histories only grow,
                    // so one barrier is enough.
                    Err(Error::MissingAuthorityKey(_)) if !waited => {
                        waited = true;
                        self.key_delivery_barrier(aid);
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            let with_tables = WithTables::new(&uk, tables.as_deref());
            let refresh =
                self.data
                    .server
                    .prepare_reencryption(record_key, label, with_tables, &ui);
            let prepared = Prepared { ui, refresh };
            match self.reencrypt_at_server(&uk, record_key, label, prepared) {
                Err(CloudError::Core(Error::VersionMismatch { found, .. })) if found > from => {
                    from = found;
                }
                result => return result,
            }
        }
        Ok(())
    }

    /// Parks a journaled revocation's re-encryption work on the
    /// pending-upgrade queue (the deferred half of a lazy revoke). The
    /// [`fault_points::LAZY_ENQUEUE`] point is consulted first, so an
    /// injected crash leaves the revocation in flight for eager
    /// roll-forward instead of half-enqueued.
    pub(crate) fn enqueue_lazy(&self, pending: &PendingRevocation) -> Result<(), CloudError> {
        let aid = pending.event.aid.clone();
        self.local_op(fault_points::LAZY_ENQUEUE, Some(&aid))?;
        {
            let mut queue = self.lazy.queue.lock();
            queue.insert(
                pending.id,
                PendingUpgrade {
                    aid,
                    from_version: pending.event.from_version,
                    to_version: pending.event.to_version,
                    enqueued: Instant::now(),
                },
            );
        }
        self.refresh_queue_gauges();
        mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase { stage: "deferred" });
        Ok(())
    }

    /// Claims every queued entry of the oldest un-claimed authority.
    /// `None` when the queue is empty or every queued authority is
    /// already claimed by another worker.
    fn claim_next(&self) -> Option<LazyClaim> {
        let queue = self.lazy.queue.lock();
        let mut draining = self.lazy.draining.lock();
        let aid = queue
            .values()
            .map(|p| &p.aid)
            .find(|aid| !draining.contains(*aid))?
            .clone();
        draining.insert(aid.clone());
        let mut claim = LazyClaim {
            aid,
            from_version: u64::MAX,
            to_version: 0,
            entries: Vec::new(),
        };
        for (id, p) in queue.iter().filter(|(_, p)| p.aid == claim.aid) {
            claim.from_version = claim.from_version.min(p.from_version);
            claim.to_version = claim.to_version.max(p.to_version);
            claim.entries.push((*id, p.to_version, p.enqueued));
        }
        Some(claim)
    }

    /// Releases a drain claim (success or failure) so another worker —
    /// or a retry — can pick the authority back up.
    fn release_claim(&self, aid: &AuthorityId) {
        self.lazy.draining.lock().remove(aid);
    }

    /// The component-upgrade half of a drain: walks
    /// [`crate::CloudServer::affected_ciphertexts`] for every version
    /// the claim spans until a full pass finds nothing stale, upgrading
    /// each `(owner, version)` group through its composed archive chain
    /// with the worklist driver on this thread, each apply at the
    /// [`fault_points::LAZY_DRAIN`] point. Carries **no** bookkeeping:
    /// it runs outside the op lock, and the claim completes under it.
    fn drain_claim_components(&self, claim: &LazyClaim) -> Result<u64, CloudError> {
        traced("cloud.lazy_drain", format!("@{}", claim.aid), || {
            mabe_trace::op_attr("authority", claim.aid.to_string());
            mabe_trace::op_attr("key_version_observed", claim.from_version.to_string());
            mabe_trace::op_attr("key_version_served", claim.to_version.to_string());
            let mut drained = 0u64;
            loop {
                let mut pass = 0u64;
                for v in claim.from_version..claim.to_version {
                    let owners: Vec<OwnerId> = {
                        let archive = self.lazy.archive.read();
                        archive
                            .keys()
                            .filter(|(aid, _, from)| aid == &claim.aid && *from == v)
                            .map(|(_, owner, _)| owner.clone())
                            .collect()
                    };
                    for owner_id in owners {
                        let affected = self
                            .data
                            .server
                            .affected_ciphertexts(&owner_id, &claim.aid, v);
                        if affected.is_empty() {
                            continue;
                        }
                        let Some(uk) = self.chain_from(&claim.aid, &owner_id, v) else {
                            continue;
                        };
                        // One preprocessing per (owner, from-version)
                        // group, for the chain its upgrades compose: the
                        // set single upgrades cached for this step, or a
                        // fresh one over the group.
                        let tables = self.cache.step_tables(&uk).or_else(|| {
                            self.update_tables(&owner_id, &uk, &affected).map(Arc::new)
                        });
                        let uk = WithTables::new(&uk, tables.as_deref());
                        self.drive_worklist(uk, &affected, 1, |item, prepared| {
                            self.local_op(fault_points::LAZY_DRAIN, Some(&claim.aid))?;
                            self.drain_one(uk.value, item, prepared)?;
                            pass += 1;
                            Ok(())
                        })?;
                    }
                }
                if pass == 0 {
                    break;
                }
                drained += pass;
            }
            if drained > 0 {
                mabe_telemetry::global()
                    .counter("mabe_lazy_drained_components_total", &[])
                    .add(drained);
            }
            Ok(drained)
        })
    }

    /// Applies one prepared drain item under `uk`'s group step. The
    /// cases the prepared step cannot finish go through
    /// [`Self::upgrade_one`], as a single upgrade would: an owner whose
    /// key history has not reached the chain's target yet (it waits
    /// that out), and a component a reader moved part of the way (it
    /// continues from there). A component republished since the
    /// worklist was taken is left to the next pass.
    fn drain_one(
        &self,
        uk: &UpdateKey,
        (record_key, label, ct_id): &WorkItem,
        prepared: Result<Prepared, Error>,
    ) -> Result<(), CloudError> {
        let (aid, owner, from) = (&uk.aid, &uk.owner, uk.from_version);
        let prepared = match prepared {
            Ok(prepared) => prepared,
            Err(Error::MissingAuthorityKey(_)) => {
                return self.upgrade_one(aid, owner, from, record_key, label, *ct_id);
            }
            Err(e) => return Err(e.into()),
        };
        match self.reencrypt_at_server(uk, record_key, label, prepared) {
            Err(CloudError::Core(Error::VersionMismatch { found, .. })) if found > from => {
                self.upgrade_one(aid, owner, found, record_key, label, *ct_id)
            }
            Err(CloudError::Core(Error::CiphertextMismatch { .. })) => Ok(()),
            result => result,
        }
    }

    /// Completes a drained claim: removes its entries from the queue,
    /// records per-batch staleness, and audits one
    /// [`AuditEvent::RevocationConverged`] per revocation in journal-id
    /// order. Returns the ids actually completed (entries another
    /// worker already removed are skipped).
    fn complete_claim(&self, claim: &LazyClaim) -> Vec<u64> {
        let ids = {
            let mut queue = self.lazy.queue.lock();
            let mut ids = Vec::new();
            let telemetry = mabe_telemetry::global();
            let aid_label = claim.aid.to_string();
            for (id, to_version, enqueued) in &claim.entries {
                if queue.remove(id).is_some() {
                    ids.push((*id, *to_version));
                    let staleness_ms = enqueued.elapsed().as_millis() as u64;
                    telemetry
                        .histogram("mabe_lazy_staleness_ms", &[])
                        .record(staleness_ms);
                    telemetry
                        .histogram("mabe_lazy_staleness_ms", &[("authority", &aid_label)])
                        .record(staleness_ms);
                }
            }
            ids
        };
        self.refresh_queue_gauges();
        if !ids.is_empty() {
            let mut audit = self.audit.lock();
            for (_, to_version) in &ids {
                audit.record(AuditEvent::RevocationConverged {
                    aid: claim.aid.to_string(),
                    version: *to_version,
                });
            }
            drop(audit);
            mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase { stage: "converged" });
        }
        ids.into_iter().map(|(id, _)| id).collect()
    }

    /// Claims and drains one authority's pending batch to convergence.
    /// Returns the revocation journal ids that converged — empty when
    /// the queue is empty or every queued authority is claimed by
    /// another worker. On failure the claim is released with the queue
    /// intact, so a retry resumes (component upgrades already performed
    /// stay done — the worklist is version-keyed).
    ///
    /// # Errors
    ///
    /// Propagates unrecovered injected faults and upgrade failures.
    pub fn drain_lazy_batch(&self) -> Result<Vec<u64>, CloudError> {
        self.drain_batch_via(&Unjournaled)
    }

    /// [`Self::drain_lazy_batch`], journaled through `j`: component
    /// upgrades run outside the op lock, and the claim completes (and
    /// its drain step is journaled) under it.
    pub(crate) fn drain_batch_via<J: Journal>(&self, j: &J) -> Result<Vec<u64>, CloudError> {
        if !j.may_drain()? {
            return Ok(Vec::new());
        }
        let Some(claim) = self.claim_next() else {
            return Ok(Vec::new());
        };
        let result = self.drain_claim_components(&claim).and_then(|_| {
            let mut op = j.lock();
            let ids = self.complete_claim(&claim);
            if !ids.is_empty() {
                let aid = &claim.aid;
                j.step(&mut op, Step::Drained { ids: &ids, aid })?;
            }
            Ok(ids)
        });
        self.release_claim(&claim.aid);
        result
    }

    /// Drains the entire pending-upgrade queue (every authority, every
    /// batch). Returns how many deferred revocations converged.
    ///
    /// # Errors
    ///
    /// Propagates the first failing batch; earlier batches stay
    /// converged and the failing one stays queued.
    pub fn drain_lazy(&self) -> Result<usize, CloudError> {
        self.drain_all_via(&Unjournaled)
    }

    /// [`Self::drain_lazy`], journaled through `j`.
    pub(crate) fn drain_all_via<J: Journal>(&self, j: &J) -> Result<usize, CloudError> {
        let mut converged = 0;
        loop {
            let ids = self.drain_batch_via(j)?;
            if ids.is_empty() {
                return Ok(converged);
            }
            converged += ids.len();
        }
    }

    /// Backpressure gate for new revokes, run before the op lock: while
    /// the queue sits at capacity, drain a batch inline (the revoker
    /// pays the drain latency — work is never dropped), each batch
    /// completing under the op lock. If every batch is claimed by other
    /// workers, yields a bounded number of times and then proceeds
    /// (soft bound).
    pub(crate) fn lazy_backpressure<J: Journal>(&self, j: &J) -> Result<(), CloudError> {
        if !self.lazy_revocation_enabled() {
            return Ok(());
        }
        let mut spins = 0;
        while self.lazy_queue_depth() >= self.lazy_capacity() {
            mabe_telemetry::global()
                .counter("mabe_lazy_backpressure_total", &[])
                .inc();
            if !self.drain_batch_via(j)?.is_empty() {
                continue;
            }
            spins += 1;
            if spins >= BACKPRESSURE_SPINS {
                return Ok(());
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEvent;
    use mabe_core::{Uid, WireCodec};

    fn medical_system() -> (CloudSystem, Uid, Uid, Uid, OwnerId) {
        let sys = CloudSystem::new(42);
        sys.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        sys.add_authority("Trial", &["Researcher", "Sponsor"])
            .unwrap();
        let owner = sys.add_owner("hospital").unwrap();
        let alice = sys.add_user("alice").unwrap();
        let bob = sys.add_user("bob").unwrap();
        let carol = sys.add_user("carol").unwrap();
        sys.grant(&alice, &["Doctor@MedOrg"]).unwrap();
        sys.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        sys.grant(&carol, &["Nurse@MedOrg"]).unwrap();
        (sys, alice, bob, carol, owner)
    }

    fn converged_events(sys: &CloudSystem) -> usize {
        sys.audit()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, AuditEvent::RevocationConverged { .. }))
            .count()
    }

    #[test]
    fn lazy_revoke_defers_then_drains_to_convergence() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "rec-a",
            &[("x", b"aaa".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        sys.publish(
            &owner,
            "rec-b",
            &[("y", b"bbb".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();

        // The ack is security-complete: queue parked, audit closed by
        // the Deferred event, revoked reader denied immediately.
        assert_eq!(sys.lazy_queue_depth(), 1);
        assert!(sys.audit().incomplete_revocations().is_empty());
        assert!(sys.read(&alice, &owner, "rec-a", "x").is_err());
        // A non-revoked holder reads *through* the staleness: the read
        // upgrades the component in place before serving.
        assert_eq!(sys.read(&bob, &owner, "rec-b", "y").unwrap(), b"bbb");

        let converged = sys.drain_lazy().unwrap();
        assert_eq!(converged, 1);
        assert_eq!(sys.lazy_queue_depth(), 0);
        let aid = mabe_policy::AuthorityId::new("MedOrg");
        assert!(sys
            .server()
            .affected_ciphertexts(&owner, &aid, 1)
            .is_empty());
        assert_eq!(converged_events(&sys), 1);
        assert!(sys.audit().verify());
        // Still denied after convergence, still readable for bob.
        assert!(sys.read(&alice, &owner, "rec-a", "x").is_err());
        assert_eq!(sys.read(&bob, &owner, "rec-a", "x").unwrap(), b"aaa");
    }

    #[test]
    fn stacked_revocations_compose_into_one_batch() {
        let (sys, alice, bob, carol, owner) = medical_system();
        sys.publish(
            &owner,
            "ward",
            &[("note", b"rounds".as_slice(), "Nurse@MedOrg")],
        )
        .unwrap();
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        sys.revoke(&bob, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.lazy_queue_depth(), 2);

        // One claim covers both pending revocations of the authority:
        // the component jumps v1 → v3 through a composed chain.
        let ids = sys.drain_lazy_batch().unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(sys.lazy_queue_depth(), 0);
        assert_eq!(
            sys.authority_version(&mabe_policy::AuthorityId::new("MedOrg")),
            Some(3)
        );
        assert_eq!(converged_events(&sys), 2);
        assert_eq!(sys.read(&carol, &owner, "ward", "note").unwrap(), b"rounds");
        assert!(sys.audit().verify());
    }

    #[test]
    fn backpressure_drains_inline_at_capacity() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(&owner, "rec", &[("x", b"sec".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        sys.set_lazy_revocation(true);
        sys.set_lazy_capacity(1);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.lazy_queue_depth(), 1);
        // The queue is full: this revoke pays for a drain before it
        // enqueues — nothing is dropped, depth never exceeds capacity.
        sys.revoke(&bob, "Doctor@MedOrg").unwrap();
        assert_eq!(sys.lazy_queue_depth(), 1);
        assert_eq!(converged_events(&sys), 1);
        sys.drain_lazy().unwrap();
        assert_eq!(converged_events(&sys), 2);
        assert!(sys.audit().verify());
    }

    #[test]
    fn chain_composes_across_archived_versions() {
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(&owner, "rec", &[("x", b"sec".as_slice(), "Doctor@MedOrg")])
            .unwrap();
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        sys.revoke(&bob, "Doctor@MedOrg").unwrap();
        let aid = mabe_policy::AuthorityId::new("MedOrg");
        let uk = sys.chain_from(&aid, &owner, 1).expect("archived chain");
        assert_eq!(uk.from_version, 1);
        assert_eq!(uk.to_version, 3);
        assert!(sys.chain_from(&aid, &owner, 3).is_none());
    }

    /// Two readers upgrade one stale component: the first takes it one
    /// version ahead, a revocation lands, and the second — which fetched
    /// the component before the first upgrade — composes a longer chain
    /// from the old version. It must continue from where the first
    /// upgrader stopped instead of failing the read.
    #[test]
    fn an_upgrader_overtaken_part_way_continues_from_the_new_version() {
        let (sys, alice, bob, carol, owner) = medical_system();
        sys.publish(&owner, "rec", &[("x", b"sec".as_slice(), "Nurse@MedOrg")])
            .unwrap();
        let aid = mabe_policy::AuthorityId::new("MedOrg");
        let ct_id = sys.server().fetch(&owner, "rec").unwrap().components[0]
            .key_ct
            .id;
        let record_key = (owner.clone(), "rec".to_owned());
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        // The first reader's upgrade: v1 → v2.
        sys.upgrade_one(&aid, &owner, 1, &record_key, "x", ct_id)
            .unwrap();
        sys.revoke(&bob, "Doctor@MedOrg").unwrap();
        // The second reader still holds the v1 fetch: its chain spans
        // v1 → v3, but the component now sits at v2.
        sys.upgrade_one(&aid, &owner, 1, &record_key, "x", ct_id)
            .unwrap();
        let component = &sys.server().fetch(&owner, "rec").unwrap().components[0];
        assert_eq!(component.key_ct.versions[&aid], 3);
        assert_eq!(sys.read(&carol, &owner, "rec", "x").unwrap(), b"sec");
    }

    #[test]
    fn read_upgrade_heals_a_component_the_eager_worklist_missed() {
        // Regression for the publish/revoke race: a publish that sealed
        // at the pre-bump version and stored after the eager worklist's
        // last pass used to stay stale forever. Simulate the straggler
        // by sealing with a pre-revocation snapshot of the owner.
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "rec-a",
            &[("x", b"aaa".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        let stale_owner_bytes = sys
            .directory
            .owners
            .read()
            .get(&owner)
            .unwrap()
            .to_wire_bytes();
        sys.revoke(&alice, "Doctor@MedOrg").unwrap(); // eager

        // Rebuild the pre-revocation owner, seal a record with it (at
        // the old version), and store it — the raced publish.
        let mut stale_owner = mabe_core::DataOwner::from_wire_bytes(&stale_owner_bytes).unwrap();
        let policy = mabe_policy::parse("Doctor@MedOrg").unwrap();
        let envelope = mabe_core::seal_envelope(
            &mut stale_owner,
            &[("y", b"bbb".as_slice(), &policy)],
            &mut *sys.rng.lock(),
        )
        .unwrap();
        sys.server().store(owner.clone(), "rec-b", envelope);
        // Swap the stale owner in, then advance it with the archived
        // update key so its history spans both versions (exactly the
        // state the real owner is in after the immediate phase).
        let aid = mabe_policy::AuthorityId::new("MedOrg");
        let uk = sys.chain_from(&aid, &owner, 1).expect("archived");
        stale_owner.apply_update_key(&uk).unwrap();
        sys.directory
            .owners
            .write()
            .insert(owner.clone(), stale_owner);

        assert_eq!(
            sys.server().affected_ciphertexts(&owner, &aid, 1).len(),
            1,
            "precondition: the straggler is stale"
        );
        // A plain read heals it before serving.
        assert_eq!(sys.read(&bob, &owner, "rec-b", "y").unwrap(), b"bbb");
        assert!(sys
            .server()
            .affected_ciphertexts(&owner, &aid, 1)
            .is_empty());
        // And the revoked user is still denied on the healed component.
        assert!(sys.read(&alice, &owner, "rec-b", "y").is_err());
    }

    #[test]
    fn publish_heals_its_own_straggler_inline() {
        // Same race, healed at the publish side: once the archive holds
        // the update key, a publish that stored stale components fixes
        // them before returning.
        let (sys, alice, bob, _carol, owner) = medical_system();
        sys.publish(
            &owner,
            "rec-a",
            &[("x", b"aaa".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        // Owner history already spans v1..v2 (immediate phase), so a
        // fresh publish seals at v2 — but a *stale* stored envelope from
        // the race window is healed by the next publish's sweep too.
        sys.publish(
            &owner,
            "rec-c",
            &[("z", b"ccc".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        let aid = mabe_policy::AuthorityId::new("MedOrg");
        // rec-c sealed post-bump; only rec-a (pre-revocation) awaits the
        // queue. Reading rec-c needs no upgrade.
        assert_eq!(sys.read(&bob, &owner, "rec-c", "z").unwrap(), b"ccc");
        sys.drain_lazy().unwrap();
        assert!(sys
            .server()
            .affected_ciphertexts(&owner, &aid, 1)
            .is_empty());
    }
}
