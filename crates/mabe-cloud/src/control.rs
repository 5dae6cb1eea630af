//! Control plane: grant, revoke, key delivery, and recovery,
//! serialized **per authority shard**.
//!
//! Every authority lives in its own [`AuthorityShard`]: the master
//! keys, the version chain, the availability flag, and the journaled
//! in-flight revocations against it all sit behind one shard mutex.
//! Versions chain per authority (paper §V), so revocations at one
//! authority must serialize — the shard lock *is* that serialization —
//! while revocations at different authorities proceed concurrently.
//!
//! The revocation protocol (§V-C) has one driver here: parse → lazy
//! backpressure → shard → precheck → ReKey → begin → drive or defer,
//! and [`CloudSystem::recover`] reuses its drive step. Drivers take a
//! [`Journal`]: [`Unjournaled`] in memory, or the
//! [`DurableSystem`](crate::DurableSystem) itself, which holds its op
//! lock across the operation and journals each step.
//!
//! Lock ordering (see DESIGN.md §12): op lock (durable only) → `shards`
//! map read lock → one shard's `state` → `users` / `owners` → leaves. A
//! shard lock is never taken while holding `users` or `owners`, and no
//! operation takes two shard locks at once (cross-authority operations
//! lock shards one after another).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use mabe_core::{
    AttributeAuthority, Error, OwnerId, RevocationEvent, Uid, UpdateKey, UserSecretKey,
};
use mabe_policy::{Attribute, AuthorityId};

use crate::audit::AuditEvent;
use crate::recovery::{PendingRevocation, RevocationStage};
use crate::system::{apply_update_tolerant, fault_points, CloudError, CloudSystem};
use crate::wire::Endpoint;

/// Everything serialized under one authority's shard lock.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) authority: AttributeAuthority,
    /// Administratively (or chaos-) downed: control-plane operations
    /// against this authority fail fast; reads are unaffected.
    pub(crate) down: bool,
    /// Journaled revocations against this authority that have not yet
    /// converged, keyed by the global journal id.
    pub(crate) in_flight: BTreeMap<u64, PendingRevocation>,
}

/// One authority's slice of the control plane.
#[derive(Debug)]
pub(crate) struct AuthorityShard {
    pub(crate) state: Mutex<ShardState>,
}

impl AuthorityShard {
    fn new(authority: AttributeAuthority) -> Self {
        AuthorityShard {
            state: Mutex::new(ShardState {
                authority,
                down: false,
                in_flight: BTreeMap::new(),
            }),
        }
    }
}

/// The sharded control plane: one shard per authority plus the global
/// revocation journal counter.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    pub(crate) shards: RwLock<BTreeMap<AuthorityId, Arc<AuthorityShard>>>,
    pub(crate) next_revocation: AtomicU64,
}

impl ControlPlane {
    pub(crate) fn new() -> Self {
        ControlPlane {
            shards: RwLock::new(BTreeMap::new()),
            next_revocation: AtomicU64::new(0),
        }
    }

    /// A cheap, clonable handle on one authority's shard.
    pub(crate) fn shard(&self, aid: &AuthorityId) -> Option<Arc<AuthorityShard>> {
        self.shards.read().get(aid).cloned()
    }

    /// Installs an authority in a shard of its own. Callers guarantee
    /// the AID is new (the CA registers it once; hydration checks each
    /// row's key).
    pub(crate) fn insert_authority(&self, aa: AttributeAuthority) {
        let aid = aa.aid().clone();
        self.shards
            .write()
            .insert(aid, Arc::new(AuthorityShard::new(aa)));
    }
}

/// A control-plane step a durable deployment journals, named by what
/// just completed; each maps to one `tables::frames_*` batch.
pub(crate) enum Step<'a> {
    /// A revocation was re-keyed and parked in its (still locked) shard.
    Begun { st: &'a ShardState, id: u64 },
    /// A revocation in its (still locked) shard was driven to
    /// completion, or `deferred` with its re-encryption queued.
    Finished {
        st: &'a ShardState,
        id: u64,
        deferred: bool,
    },
    /// A drained lazy batch converged these revocations.
    Drained {
        ids: &'a [u64],
        aid: &'a AuthorityId,
    },
}

/// Where the revoke, recover and lazy-drain drivers journal.
pub(crate) trait Journal {
    /// What one operation holds while it runs: the durable op lock.
    type Op<'a>
    where
        Self: 'a;

    /// Serializes one journaled operation. Drivers take it after lazy
    /// backpressure and before any shard lock.
    fn lock(&self) -> Self::Op<'_>;

    /// Journals a step that just completed, under the op lock. A begin
    /// step is durable before any key delivery starts.
    fn step<'j>(&'j self, op: &mut Self::Op<'j>, step: Step<'_>) -> Result<(), CloudError>;

    /// Whether a lazy drain may claim work now.
    fn may_drain(&self) -> Result<bool, CloudError> {
        Ok(true)
    }
}

/// The in-memory deployment's journal: every step is a no-op.
pub(crate) struct Unjournaled;

impl Journal for Unjournaled {
    type Op<'a> = ();

    fn lock(&self) {}

    fn step(&self, _: &mut (), _: Step<'_>) -> Result<(), CloudError> {
        Ok(())
    }
}

/// What a revocation strips from a user.
#[derive(Clone, Copy)]
pub(crate) enum Revoke<'a> {
    /// One attribute ([`CloudSystem::revoke`]).
    Attribute(&'a str),
    /// Everything held at one authority ([`CloudSystem::revoke_user_at`]).
    UserAt(&'a AuthorityId),
}

/// How a begun revocation finishes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Finish {
    /// Re-encrypt inline: an eager revocation.
    Drive,
    /// Re-encrypt inline, rolling a stalled revocation forward.
    Recover,
    /// Park re-encryption on the lazy queue.
    Defer,
}

impl CloudSystem {
    /// Grants attributes to a user: the relevant authorities record the
    /// grant and issue secret keys scoped to every owner.
    ///
    /// Key generation and delivery run under the retry policy at the
    /// [`fault_points::GRANT_KEYGEN`] / [`fault_points::GRANT_DELIVER`]
    /// fault points; a downed authority fails fast with
    /// [`CloudError::AuthorityUnavailable`].
    ///
    /// # Errors
    ///
    /// Fails on unknown user/authority/attribute, downed authorities, or
    /// unrecovered injected faults.
    pub fn grant(&self, uid: &Uid, attributes: &[&str]) -> Result<(), CloudError> {
        let _trace = mabe_trace::Span::child("cloud.grant").detail(uid.to_string());
        mabe_trace::op_attr("uid", uid.to_string());
        let pk = {
            let users = self.directory.users.read();
            users
                .users
                .get(uid)
                .ok_or_else(|| CloudError::Core(Error::UnknownUser(uid.clone())))?
                .pk
                .clone()
        };
        let mut by_authority: BTreeMap<AuthorityId, Vec<Attribute>> = BTreeMap::new();
        for raw in attributes {
            let attr: Attribute = raw
                .parse()
                .map_err(|_| CloudError::UnknownEntity(format!("attribute {raw}")))?;
            by_authority
                .entry(attr.authority().clone())
                .or_default()
                .push(attr);
        }
        for (aid, attrs) in by_authority {
            mabe_trace::op_attr("authority", aid.to_string());
            let shard = self
                .control
                .shard(&aid)
                .ok_or_else(|| CloudError::UnknownAuthority(aid.clone()))?;
            let mut st = shard.state.lock();
            if st.down {
                return Err(CloudError::AuthorityUnavailable(aid.clone()));
            }
            self.local_op(fault_points::GRANT_KEYGEN, Some(&aid))?;
            st.authority.grant(&pk, attrs.iter().cloned())?;
            self.directory
                .users
                .write()
                .grants
                .get_mut(uid)
                .expect("user exists")
                .extend(attrs.iter().cloned());
            let owner_ids: Vec<OwnerId> = self.directory.owners.read().keys().cloned().collect();
            for owner_id in owner_ids {
                let key = st.authority.keygen(uid, &owner_id)?;
                self.transmit(
                    fault_points::GRANT_DELIVER,
                    Endpoint::Authority(aid.clone()),
                    Endpoint::User(uid.clone()),
                    "user secret key",
                    key.wire_size(),
                )?;
                self.directory
                    .users
                    .write()
                    .users
                    .get_mut(uid)
                    .expect("checked above")
                    .keys
                    .insert((owner_id, aid.clone()), key);
            }
        }
        self.audit.lock().record(AuditEvent::Granted {
            uid: uid.to_string(),
            attributes: attributes.iter().map(|a| a.to_string()).collect(),
        });
        Ok(())
    }

    /// Revokes one attribute from one user, running the full two-phase
    /// protocol: the authority re-keys, the intent is journaled to the
    /// audit log, then fresh keys flow to the revoked user, update keys
    /// to every other holder and every owner, and the server
    /// re-encrypts every affected ciphertext.
    ///
    /// The entire revocation runs under the authority's shard lock:
    /// revocations at one authority serialize (versions chain), while
    /// grants, reads, and revocations at other authorities proceed.
    ///
    /// A crash mid-flight leaves a journaled [`PendingRevocation`] that
    /// [`Self::recover`] rolls forward; every step is idempotent under
    /// replay.
    ///
    /// With lazy revocation enabled ([`Self::set_lazy_revocation`]) only
    /// the immediate phase runs inline — version bump, audit journal,
    /// key delivery, owner key updates — and server-side re-encryption
    /// is parked on the pending-upgrade queue.
    /// The version check already denies the revoked user at that point;
    /// queued components are healed by [`Self::drain_lazy`] workers or
    /// read-triggered upgrade, whichever reaches them first.
    ///
    /// # Errors
    ///
    /// Unknown user/authority, the user not holding the attribute, a
    /// downed authority, or an unrecovered injected fault.
    pub fn revoke(&self, uid: &Uid, attribute: &str) -> Result<(), CloudError> {
        self.revoke_via(&Unjournaled, uid, Revoke::Attribute(attribute))
    }

    /// User-level revocation at one authority: strips all of the user's
    /// attributes from that domain in a single version bump. Same
    /// two-phase, crash-safe, shard-serialized machinery as
    /// [`Self::revoke`].
    ///
    /// # Errors
    ///
    /// Unknown user/authority, no attributes held there, a downed
    /// authority, or an unrecovered injected fault.
    pub fn revoke_user_at(&self, uid: &Uid, aid: &AuthorityId) -> Result<(), CloudError> {
        self.revoke_via(&Unjournaled, uid, Revoke::UserAt(aid))
    }

    /// Full user-level revocation: runs [`Self::revoke_user_at`] against
    /// every authority where the user currently holds attributes.
    ///
    /// # Errors
    ///
    /// Unknown user; propagates per-authority failures.
    pub fn revoke_user(&self, uid: &Uid) -> Result<(), CloudError> {
        self.revoke_user_with(uid, |aid| self.revoke_user_at(uid, aid))
    }

    /// Runs `revoke_at` against every authority where `uid` currently
    /// holds attributes, in authority order.
    pub(crate) fn revoke_user_with(
        &self,
        uid: &Uid,
        revoke_at: impl FnMut(&AuthorityId) -> Result<(), CloudError>,
    ) -> Result<(), CloudError> {
        let involved: BTreeSet<AuthorityId> = self
            .directory
            .users
            .read()
            .grants
            .get(uid)
            .ok_or_else(|| CloudError::Core(Error::UnknownUser(uid.clone())))?
            .iter()
            .map(|a| a.authority().clone())
            .collect();
        involved.iter().try_for_each(revoke_at)
    }

    /// The one revocation driver, journaled through `j`: parse → lazy
    /// backpressure → op lock → shard lock → precheck → ReKey → begin
    /// → drive (eager) or defer (lazy). The precheck fails fast on a
    /// downed authority, consults [`fault_points::REVOKE_REKEY`], and
    /// drives any in-flight predecessor to completion first (versions
    /// chain).
    pub(crate) fn revoke_via<J: Journal>(
        &self,
        j: &J,
        uid: &Uid,
        what: Revoke<'_>,
    ) -> Result<(), CloudError> {
        // End-to-end revocation latency: ReKey at the authority through
        // the last server-side re-encryption (eager) or enqueue (lazy).
        let _e2e = mabe_telemetry::Span::start("mabe_revocation_e2e");
        let (_trace, attr, aid) = match what {
            Revoke::Attribute(attribute) => {
                let trace =
                    mabe_trace::Span::child("cloud.revoke").detail(format!("{uid} {attribute}"));
                let attr: Attribute = attribute
                    .parse()
                    .map_err(|_| CloudError::UnknownEntity(format!("attribute {attribute}")))?;
                let aid = attr.authority().clone();
                (trace, Some(attr), aid)
            }
            Revoke::UserAt(aid) => {
                let trace =
                    mabe_trace::Span::child("cloud.revoke_user_at").detail(format!("{uid} @{aid}"));
                (trace, None, aid.clone())
            }
        };
        mabe_trace::op_attr("uid", uid.to_string());
        mabe_trace::op_attr("authority", aid.to_string());
        self.lazy_backpressure(j)?;
        let mut op = j.lock();
        let shard = self
            .control
            .shard(&aid)
            .ok_or_else(|| CloudError::UnknownAuthority(aid.clone()))?;
        let mut st = shard.state.lock();
        if st.down {
            return Err(CloudError::AuthorityUnavailable(aid));
        }
        self.local_op(fault_points::REVOKE_REKEY, Some(&aid))?;
        let stalled: Vec<u64> = st.in_flight.keys().copied().collect();
        for id in stalled {
            self.finish_in_shard(j, &mut op, &mut st, id, Finish::Recover)?;
        }
        let event = match &attr {
            Some(attr) => st
                .authority
                .revoke_attribute(uid, attr, &mut *self.rng.lock())?,
            None => st.authority.revoke_user(uid, &mut *self.rng.lock())?,
        };
        let id = self.begin_in_shard(&mut st, event);
        j.step(&mut op, Step::Begun { st: &st, id })?;
        let how = if self.lazy_revocation_enabled() {
            Finish::Defer
        } else {
            Finish::Drive
        };
        self.finish_in_shard(j, &mut op, &mut st, id, how)
    }

    /// Journals the intent of a revocation (audit `RevocationBegun` +
    /// `Revoked`), removes the revoked grants, purges now-stale queued
    /// update keys for the revoked user at that authority, and parks the
    /// event in the shard as a [`PendingRevocation`]. Returns the
    /// journal id (globally unique across shards).
    pub(crate) fn begin_in_shard(&self, st: &mut ShardState, event: RevocationEvent) -> u64 {
        let id = self.control.next_revocation.fetch_add(1, Ordering::SeqCst);
        let aid = event.aid.clone();
        let uid = event.revoked_uid.clone();
        {
            let mut audit = self.audit.lock();
            audit.record(AuditEvent::RevocationBegun {
                uid: uid.to_string(),
                aid: aid.to_string(),
                from_version: event.from_version,
                to_version: event.to_version,
            });
            audit.record(AuditEvent::Revoked {
                uid: uid.to_string(),
                attributes: event
                    .revoked_attributes
                    .iter()
                    .map(|a| a.to_string())
                    .collect(),
                aid: aid.to_string(),
                new_version: event.to_version,
            });
        }
        {
            let mut users = self.directory.users.write();
            if let Some(granted) = users.grants.get_mut(&uid) {
                for attr in &event.revoked_attributes {
                    granted.remove(attr);
                }
            }
            // Update keys still queued for the revoked user at this
            // authority are superseded by the fresh reduced keys (already
            // at the new version): replaying them on sync would only
            // fail. Purge them so an offline revoked user syncs cleanly.
            if let Some(queue) = users.pending_updates.get_mut(&uid) {
                let before = queue.len();
                queue.retain(|(_, uk)| uk.aid != aid);
                let purged = (before - queue.len()) as u64;
                if purged > 0 {
                    mabe_telemetry::global()
                        .counter("mabe_stale_update_keys_dropped_total", &[("op", "revoke")])
                        .add(purged);
                }
            }
        }
        // Park the per-owner update keys server-side regardless of mode:
        // the archive is what lets read-triggered upgrade (and the lazy
        // drain) advance any component that stayed behind.
        self.archive_update_keys(&event);
        // The version bump makes every cached content key and composed
        // update-key chain touching this authority stale; drop them
        // before any post-revocation read can be served.
        self.cache.invalidate_authority(&aid);
        mabe_trace::op_attr("key_version_observed", event.from_version.to_string());
        mabe_trace::op_attr("key_version_served", event.to_version.to_string());
        st.in_flight.insert(id, PendingRevocation::new(id, event));
        mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase { stage: "begun" });
        id
    }

    /// Runs a begun revocation (in its locked shard) past begin and
    /// journals the outcome. Drive and recover re-encrypt inline and
    /// audit `RevocationCompleted` (recover adds `RevocationRecovered`);
    /// defer parks re-encryption on the lazy queue and audits
    /// `RevocationDeferred`, the security-complete point. On failure the
    /// pending entry is re-parked with its checkpoints intact, so a
    /// later drive resumes; recovery always drives eagerly. A crash
    /// before the journal step replays the revocation as in flight.
    fn finish_in_shard<'j, J: Journal>(
        &self,
        j: &'j J,
        op: &mut J::Op<'j>,
        st: &mut ShardState,
        id: u64,
        how: Finish,
    ) -> Result<(), CloudError> {
        if let Some(mut pending) = st.in_flight.remove(&id) {
            if let Err(e) = self.run_phases(&mut pending, how == Finish::Defer) {
                st.in_flight.insert(id, pending);
                return Err(e);
            }
            let aid = pending.event.aid.to_string();
            let version = pending.event.to_version;
            if how == Finish::Defer {
                let deferred = AuditEvent::RevocationDeferred { aid, version };
                self.audit.lock().record(deferred);
            } else {
                let completed = AuditEvent::RevocationCompleted {
                    aid: aid.clone(),
                    version,
                };
                self.audit.lock().record(completed);
                mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase { stage: "complete" });
                if how == Finish::Recover {
                    let recovered = AuditEvent::RevocationRecovered { aid, version };
                    self.audit.lock().record(recovered);
                    mabe_telemetry::global()
                        .counter("mabe_revocations_recovered_total", &[])
                        .inc();
                    mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase {
                        stage: "recovered",
                    });
                }
            }
        }
        let deferred = how == Finish::Defer;
        j.step(op, Step::Finished { st, id, deferred })
    }

    /// The phases past begin: key delivery (once per revocation), owner
    /// key updates, then re-encryption — inline, or parked on the lazy
    /// queue. Owners update their attribute-key history inline even in
    /// lazy mode: update_info_for needs history at both ends of a span,
    /// so deferring it would leave read-triggered upgrade keyless.
    fn run_phases(&self, pending: &mut PendingRevocation, lazy: bool) -> Result<(), CloudError> {
        if pending.stage == RevocationStage::KeyDelivery {
            mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase {
                stage: "key_delivery",
            });
            self.deliver_keys(pending)?;
            pending.stage = RevocationStage::ReEncryption;
        }
        if lazy {
            self.update_owners(pending)?;
            return self.enqueue_lazy(pending);
        }
        mabe_trace::event(mabe_trace::TraceEvent::RevocationPhase {
            stage: "re_encryption",
        });
        self.update_owners(pending)?;
        self.reencrypt_phase(pending)
    }

    /// Phase 1: fresh reduced keys to the revoked user (delivered eagerly
    /// even if offline — the old keys must die), then update keys to
    /// every other holder (queued for offline holders). Checkpointed per
    /// holder; key application is version-tolerant, so replays after a
    /// crash are no-ops.
    fn deliver_keys(&self, pending: &mut PendingRevocation) -> Result<(), CloudError> {
        let _trace =
            mabe_trace::Span::child("cloud.deliver_keys").detail(format!("@{}", pending.event.aid));
        let aid = pending.event.aid.clone();
        let uid = pending.event.revoked_uid.clone();
        if !pending.fresh_keys_delivered {
            if self.directory.users.read().users.contains_key(&uid) {
                let fresh: Vec<(OwnerId, UserSecretKey)> = pending
                    .event
                    .revoked_user_keys
                    .iter()
                    .map(|(o, k)| (o.clone(), k.clone()))
                    .collect();
                for (owner_id, key) in fresh {
                    self.transmit(
                        fault_points::REVOKE_FRESH_KEY,
                        Endpoint::Authority(aid.clone()),
                        Endpoint::User(uid.clone()),
                        "re-issued secret key",
                        key.wire_size(),
                    )?;
                    self.directory
                        .users
                        .write()
                        .users
                        .get_mut(&uid)
                        .expect("checked above")
                        .keys
                        .insert((owner_id, aid.clone()), key);
                }
            }
            pending.fresh_keys_delivered = true;
        }
        // Everyone still granted anything at this authority, in uid
        // order.
        let holders: Vec<Uid> = {
            let users = self.directory.users.read();
            users
                .holders_of_authority(&aid)
                .into_iter()
                .filter(|holder| *holder != uid)
                .collect()
        };
        for holder in holders {
            if pending.delivered_holders.contains(&holder) {
                continue;
            }
            if self.directory.users.read().offline.contains(&holder) {
                let mut users = self.directory.users.write();
                let queue = users.pending_updates.entry(holder.clone()).or_default();
                for (owner_id, uk) in &pending.event.update_keys {
                    queue.push((owner_id.clone(), uk.clone()));
                }
                drop(users);
                pending.delivered_holders.insert(holder);
                continue;
            }
            let slots: Vec<(OwnerId, UpdateKey)> = {
                let users = self.directory.users.read();
                pending
                    .event
                    .update_keys
                    .iter()
                    .filter(|(owner_id, _)| {
                        users.users.get(&holder).is_some_and(|s| {
                            s.keys.contains_key(&((*owner_id).clone(), aid.clone()))
                        })
                    })
                    .map(|(o, uk)| (o.clone(), uk.clone()))
                    .collect()
            };
            for (owner_id, uk) in slots {
                self.transmit(
                    fault_points::REVOKE_UPDATE_DELIVER,
                    Endpoint::Authority(aid.clone()),
                    Endpoint::User(holder.clone()),
                    "update key",
                    uk.wire_size(),
                )?;
                let mut users = self.directory.users.write();
                let state = users.users.get_mut(&holder).expect("holder exists");
                let key = state
                    .keys
                    .get_mut(&(owner_id, aid.clone()))
                    .expect("filtered above");
                apply_update_tolerant(key, &uk)?;
            }
            pending.delivered_holders.insert(holder);
        }
        Ok(())
    }

    /// Rolls every journaled in-flight revocation forward to completion
    /// (crash recovery), across all shards in global journal order.
    /// Returns how many revocations converged. Partial progress is
    /// retained on failure, so calling `recover` again after clearing
    /// the fault continues where it stopped.
    ///
    /// # Errors
    ///
    /// Propagates the first fault that still blocks convergence.
    pub fn recover(&self) -> Result<usize, CloudError> {
        self.recover_via(&Unjournaled)
    }

    /// [`Self::recover`], journaling each completion through `j`.
    pub(crate) fn recover_via<J: Journal>(&self, j: &J) -> Result<usize, CloudError> {
        let _trace = mabe_trace::Span::child("cloud.recover");
        let mut op = j.lock();
        let mut work: Vec<(u64, Arc<AuthorityShard>)> = Vec::new();
        for shard in self.control.shards.read().values() {
            let st = shard.state.lock();
            for id in st.in_flight.keys() {
                work.push((*id, Arc::clone(shard)));
            }
        }
        work.sort_by_key(|(id, _)| *id);
        let mut completed = 0;
        for (id, shard) in work {
            let mut st = shard.state.lock();
            self.finish_in_shard(j, &mut op, &mut st, id, Finish::Recover)?;
            completed += 1;
        }
        Ok(completed)
    }

    /// Whether any revocation is journaled but not yet converged.
    pub fn needs_recovery(&self) -> bool {
        self.control
            .shards
            .read()
            .values()
            .any(|s| !s.state.lock().in_flight.is_empty())
    }

    /// Progress summaries of every in-flight revocation, in global
    /// journal order.
    pub fn pending_revocations(&self) -> Vec<String> {
        let mut entries: Vec<(u64, String)> = Vec::new();
        for shard in self.control.shards.read().values() {
            let st = shard.state.lock();
            for (id, p) in st.in_flight.iter() {
                entries.push((*id, p.progress()));
            }
        }
        entries.sort_by_key(|(id, _)| *id);
        entries.into_iter().map(|(_, p)| p).collect()
    }

    /// Marks an authority unreachable: grants and revocations against it
    /// fail with [`CloudError::AuthorityUnavailable`], while reads keep
    /// serving the last consistent version (graceful degradation).
    pub fn set_authority_down(&self, aid: &AuthorityId) {
        if let Some(shard) = self.control.shard(aid) {
            shard.state.lock().down = true;
        }
    }

    /// Brings a downed authority back.
    pub fn set_authority_up(&self, aid: &AuthorityId) {
        if let Some(shard) = self.control.shard(aid) {
            shard.state.lock().down = false;
        }
    }

    /// Whether an authority is currently marked down.
    pub fn authority_is_down(&self, aid: &AuthorityId) -> bool {
        self.control
            .shard(aid)
            .is_some_and(|shard| shard.state.lock().down)
    }

    /// Brings a user back online and replays any queued update keys.
    /// Consecutive updates per `(owner, authority)` are **composed**
    /// into one compact key first ([`mabe_core::UpdateKey::compose`]),
    /// so a user offline through `n` revocations downloads one update
    /// key per authority, not `n`.
    ///
    /// Queued updates the user's key has already moved past — e.g. the
    /// fresh reduced keys delivered when the user was revoked while
    /// offline land at the *new* version — are dropped, not replayed, so
    /// syncing never resurrects stale key material. Delivery runs at the
    /// [`fault_points::SYNC_DELIVER`] fault point; on failure the
    /// undelivered remainder is re-queued so a later sync resumes.
    ///
    /// # Errors
    ///
    /// Propagates key-update failures (e.g. corrupted queues) and
    /// unrecovered injected faults.
    pub fn sync_user(&self, uid: &Uid) -> Result<(), CloudError> {
        let _trace = mabe_trace::Span::child("cloud.sync_user").detail(uid.to_string());
        let (queue, versions) = {
            let mut users = self.directory.users.write();
            users.offline.remove(uid);
            let Some(queue) = users.pending_updates.remove(uid) else {
                return Ok(());
            };
            let versions: BTreeMap<(OwnerId, AuthorityId), u64> = users
                .users
                .get(uid)
                .ok_or_else(|| CloudError::Core(Error::UnknownUser(uid.clone())))?
                .keys
                .iter()
                .map(|(slot, key)| (slot.clone(), key.version))
                .collect();
            (queue, versions)
        };
        // Compact chains per (owner, authority), dropping entries the
        // key has already advanced past.
        let mut compacted: BTreeMap<(OwnerId, AuthorityId), UpdateKey> = BTreeMap::new();
        let mut stale = 0u64;
        for (owner_id, uk) in queue {
            let slot = (owner_id, uk.aid.clone());
            let current = versions.get(&slot).copied().unwrap_or(0);
            if uk.from_version < current {
                stale += 1;
                continue;
            }
            match compacted.remove(&slot) {
                Some(prev) => {
                    compacted.insert(slot, prev.compose(&uk)?);
                }
                None => {
                    compacted.insert(slot, uk);
                }
            }
        }
        if stale > 0 {
            mabe_telemetry::global()
                .counter("mabe_stale_update_keys_dropped_total", &[("op", "sync")])
                .add(stale);
        }
        let work: Vec<((OwnerId, AuthorityId), UpdateKey)> = compacted.into_iter().collect();
        for (i, (slot, uk)) in work.iter().enumerate() {
            if let Err(e) = self.transmit(
                fault_points::SYNC_DELIVER,
                Endpoint::Authority(slot.1.clone()),
                Endpoint::User(uid.clone()),
                "composed deferred update key",
                uk.wire_size(),
            ) {
                // Crash-safety: re-queue the undelivered remainder so the
                // next sync picks up exactly where this one stopped.
                let requeue: Vec<(OwnerId, UpdateKey)> = work[i..]
                    .iter()
                    .map(|((owner_id, _), uk)| (owner_id.clone(), uk.clone()))
                    .collect();
                self.directory
                    .users
                    .write()
                    .pending_updates
                    .insert(uid.clone(), requeue);
                return Err(e);
            }
            let mut users = self.directory.users.write();
            let state = users.users.get_mut(uid).expect("checked above");
            if let Some(key) = state.keys.get_mut(slot) {
                apply_update_tolerant(key, uk)?;
            }
        }
        Ok(())
    }
}
