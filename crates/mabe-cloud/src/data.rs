//! Data plane: publish, read, outsourced read, and proxy
//! re-encryption.
//!
//! Every data-plane entry point takes `&self`: the ciphertext store is
//! the already-concurrent [`CloudServer`] behind an `Arc`, and reader
//! state (user keys) is shared out of the directory under a short read
//! lock, one reference-count bump per owner's key set. Reads therefore
//! proceed while a revocation holds an authority shard — they serve the
//! last consistent version, exactly the graceful degradation the
//! paper's semi-trusted-server model wants.
//!
//! Both reads run one loop, [`CloudSystem::serve_read`]: fetch →
//! read-triggered upgrade → cache lookup → key view → open → bounded
//! retry → audit. The fetch is the server's shared snapshot of the
//! record, never a copy. Only the lookup and open steps differ and are
//! passed in as an [`OpenStep`]: [`LocalOpen`] (content-key cache, then
//! `decrypt_fast` on a miss, with the reader's `PK_UID` lines once it
//! has taken [`mabe_core::LINES_BREAK_EVEN`] cache misses and the
//! key-side table it keeps for the record's owner and policy) for
//! [`CloudSystem::read`], [`OutsourcedOpen`] (transform key plus
//! `server_transform`) for [`CloudSystem::read_outsourced`]. A
//! content-key hit is one AEAD open: it takes no key view.
//!
//! Every re-encryption worklist (the eager phase, recovery and the lazy
//! drain) runs through one driver, [`CloudSystem::drive_worklist`]. It
//! splits `ReEncrypt` in two: prepare computes the owner's `UI` and the
//! server's `e(UK1, C')` with no lock but read locks held, spread over
//! up to [`CloudSystem::set_reencrypt_workers`] threads; apply consults
//! the fault point, sends the wire message and multiplies under the
//! server's write lock, on the calling thread in worklist order. Each
//! helper joins the revocation's causal tree via
//! [`mabe_trace::Span::follow`], so the forensics invariant (one tree,
//! no orphan spans) survives the parallelism. A single read-triggered
//! upgrade takes its step's tables from the step-table cache.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, Deref};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mabe_core::{
    content_key, open_component_with_kem, open_component_with_key, seal_envelope, CiphertextId,
    DataEnvelope, Error, OwnerId, Refresh, SealedComponent, Uid, UpdateInfo, UpdateKey,
    UpdateTables, UserPublicKey, UserSecretKey, WithTables, LINES_BREAK_EVEN,
};
use mabe_math::FixedPairing;
use mabe_policy::{parse, AuthorityId, Policy};
use mabe_telemetry::SpanMetric;

use crate::audit::AuditEvent;
use crate::cache::{ContentCacheKey, ContentEntry, StepUse};
use crate::directory::OwnerKeys;
use crate::recovery::PendingRevocation;
use crate::server::{CloudServer, RecordKey};
use crate::system::{fault_points, CloudError, CloudSystem};
use crate::wire::Endpoint;

static PUBLISH_OP: SpanMetric = SpanMetric::new("mabe_system_op", &[("op", "publish")]);
static READ_OP: SpanMetric = SpanMetric::new("mabe_system_op", &[("op", "read")]);
static READ_OUTSOURCED_OP: SpanMetric =
    SpanMetric::new("mabe_system_op", &[("op", "read_outsourced")]);

/// How many times a reader whose key view and component straddle a
/// concurrent revocation — the key lagging its delivery, or ahead of a
/// component the read upgraded just before the bump — waits out the
/// immediate phase and goes round again before giving up. Each pass
/// absorbs one version bump that landed mid-read, so this only binds
/// under a revocation storm denser than the reader's own retry loop —
/// a revoked user burns the budget and is then denied deterministically.
const MAX_READ_BARRIERS: usize = 8;

/// Components per chunk when the worklist driver spreads prepare over
/// helpers: the chunk being applied and the one being prepared are all
/// that is held, so however long a worklist is, memory holds at most
/// twice this many update infos and refreshes.
const PREPARE_CHUNK: usize = 32;

/// Worklist length from which the driver spreads prepare over helper
/// threads. Spawning and joining a scoped helper took 53–82 µs, against
/// 0.36–0.47 ms to prepare one component (a pairing from `UK1`'s lines
/// plus a fixed-base `UI`; 96-component revocations, 2-vCPU x86-64 VM):
/// spawn ÷ per-item cost is 0.1–0.2, so a helper pays for itself with
/// the first component it takes off the calling thread, and two
/// components are the smallest worklist that hands it one.
const SPAWN_BREAK_EVEN: usize = 2;

/// One component a re-encryption worklist advances: its record, its
/// label, and the ciphertext id the component index listed for it.
pub(crate) type WorkItem = (RecordKey, String, CiphertextId);

/// One component's re-encryption, prepared off every write lock: the
/// owner's update information, and the server's refresh `e(UK1, C')`
/// or the error its checks met.
pub(crate) struct Prepared {
    pub(crate) ui: UpdateInfo,
    pub(crate) refresh: Result<Refresh, Error>,
}

/// A reader's keys for one owner's records, a snapshot shared with the
/// directory, with its `PK_UID` lines if they are built.
struct KeyView {
    pk: UserPublicKey,
    keys: Arc<OwnerKeys>,
    lines: Option<Arc<FixedPairing>>,
}

/// One component as a read holds it: the server's shared snapshot of
/// its record and the component's place in it.
struct Fetched {
    envelope: Arc<DataEnvelope>,
    index: usize,
}

impl Deref for Fetched {
    type Target = SealedComponent;

    fn deref(&self) -> &SealedComponent {
        &self.envelope.components[self.index]
    }
}

/// Who reads which component.
struct ReadAt<'a> {
    uid: &'a Uid,
    owner: &'a OwnerId,
    record: &'a str,
    label: &'a str,
}

/// The steps of a read that differ between [`CloudSystem::read`] and
/// [`CloudSystem::read_outsourced`]; [`CloudSystem::serve_read`] runs
/// the loop around them.
trait OpenStep {
    /// What a pass that [`Self::lookup`] could not serve hands on to
    /// [`Self::open`].
    type Miss;

    /// The reader's download of the component: once per read, ahead of
    /// any upgrade.
    fn download(
        &mut self,
        _sys: &CloudSystem,
        _at: &ReadAt<'_>,
        _component: &SealedComponent,
    ) -> Result<(), CloudError> {
        Ok(())
    }

    /// Serves the component without the reader's keys if it can, once
    /// per pass, after the read-triggered upgrade: `Break` ends the pass
    /// with its outcome, `Continue` goes on to the key view and
    /// [`Self::open`].
    fn lookup(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
    ) -> ControlFlow<Result<Vec<u8>, Error>, Self::Miss>;

    /// Runs between a missed lookup and the key-view clone: the window
    /// in which a revocation landing puts the reader's key ahead of the
    /// component. Serving paths do nothing here; the race tests land
    /// revocations in it.
    fn before_key_view(&mut self, _sys: &CloudSystem) {}

    /// Opens `component` with the reader's key view.
    fn open(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
        view: &KeyView,
        miss: Self::Miss,
    ) -> Result<Vec<u8>, Error>;
}

/// [`CloudSystem::read`]'s open step: the user downloads the component
/// and decrypts it through the content-key cache.
struct LocalOpen;

impl OpenStep for LocalOpen {
    /// The pass's cache key and the generations its insert is guarded
    /// by.
    type Miss = (ContentCacheKey, Vec<(String, u64)>);

    fn download(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
    ) -> Result<(), CloudError> {
        // Reads are server-side only: they keep working while
        // authorities are down (graceful degradation at the last
        // consistent version), and transient download faults are
        // retried at READ_FETCH.
        sys.transmit(
            fault_points::READ_FETCH,
            Endpoint::Server,
            Endpoint::User(at.uid.clone()),
            format_args!("component {}/{}", at.record, at.label),
            component.stored_size(),
        )
    }

    fn lookup(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
    ) -> ControlFlow<Result<Vec<u8>, Error>, Self::Miss> {
        // Hot-key cache: the component's content key per (reader,
        // owner, ciphertext id), served only at the label and exact
        // version vector it was derived at. A hit skips the key view and
        // the CP-ABE work entirely; republishing the record changes the
        // ciphertext id and any re-encryption changes the version
        // vector, either way a miss, so stale hits are structurally
        // impossible, and a revocation purges its authority's entries
        // before it is acknowledged.
        let cache_key = ContentCacheKey {
            uid: at.uid.clone(),
            owner: at.owner.clone(),
            ciphertext: component.key_ct.id,
        };
        let versions = &component.key_ct.versions;
        match sys
            .cache
            .get_content(&cache_key, &component.label, versions)
        {
            Some(key) => ControlFlow::Break(open_component_with_key(component, &key)),
            // Snapshotted before the key view, so a revocation's bump
            // anywhere from here to the insert drops the insert.
            None => {
                ControlFlow::Continue((cache_key, sys.cache.generation_snapshot(versions.keys())))
            }
        }
    }

    fn open(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
        view: &KeyView,
        (cache_key, snapshot): Self::Miss,
    ) -> Result<Vec<u8>, Error> {
        let lines = match &view.lines {
            Some(lines) => Some(Arc::clone(lines)),
            None => sys.count_cold_read(at.uid),
        };
        let pk = WithTables::new(&view.pk, lines.as_deref());
        let policy = component.key_ct.access.policy();
        let kept = sys.key_table(at.uid, at.owner, policy);
        let keys = WithTables::new(&*view.keys, kept.as_deref());
        let (kem, built) = mabe_core::decrypt_fast(&component.key_ct, pk, keys)?;
        if let Some(built) = built {
            sys.install_key_table(at.uid, at.owner, policy, built);
        }
        let key = content_key(&kem, &component.label);
        let out = open_component_with_key(component, &key);
        if out.is_ok() {
            let entry = ContentEntry {
                key,
                label: component.label.clone(),
                versions: component.key_ct.versions.clone(),
            };
            sys.cache.insert_content_if(&snapshot, cache_key, entry);
        }
        out
    }
}

/// [`CloudSystem::read_outsourced`]'s open step: the user sends a
/// blinded transform key, the server runs all pairings, and the user
/// finishes with one `G_T` exponentiation.
struct OutsourcedOpen;

impl OpenStep for OutsourcedOpen {
    type Miss = ();

    /// Nothing is cached: every pass transforms.
    fn lookup(
        &mut self,
        _sys: &CloudSystem,
        _at: &ReadAt<'_>,
        _component: &SealedComponent,
    ) -> ControlFlow<Result<Vec<u8>, Error>> {
        ControlFlow::Continue(())
    }

    fn open(
        &mut self,
        sys: &CloudSystem,
        at: &ReadAt<'_>,
        component: &SealedComponent,
        view: &KeyView,
        (): (),
    ) -> Result<Vec<u8>, Error> {
        let (tk, rk) = mabe_core::make_transform_key(&view.pk, &view.keys, &mut *sys.rng.lock())?;
        // The blinded key travels to the server (same element count as
        // the underlying secret keys plus the blinded PK).
        let keys = &view.keys;
        let tk_bytes: usize =
            keys.values().map(UserSecretKey::wire_size).sum::<usize>() + mabe_core::G_BYTES;
        sys.wire.send(
            Endpoint::User(at.uid.clone()),
            Endpoint::Server,
            "transform key",
            tk_bytes,
        );
        let token = mabe_core::server_transform(&component.key_ct, &tk)?;
        // Only the 128-byte token comes back — not the ciphertext.
        sys.wire.send(
            Endpoint::Server,
            Endpoint::User(at.uid.clone()),
            format!("transform token {}/{}", at.record, at.label),
            mabe_core::GT_BYTES + component.sealed.len() + component.nonce.len(),
        );
        let kem = mabe_core::client_recover(&component.key_ct, &token, &rk);
        open_component_with_kem(component, &kem)
    }
}

/// The data plane: the shared ciphertext store plus the re-encryption
/// fan-out width.
#[derive(Debug)]
pub(crate) struct DataPlane {
    pub(crate) server: Arc<CloudServer>,
    /// Threads that prepare an eager worklist's re-encryptions, the
    /// calling thread included; the machine's parallelism by default.
    pub(crate) reencrypt_workers: AtomicUsize,
}

impl DataPlane {
    pub(crate) fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        DataPlane {
            server: Arc::new(CloudServer::new()),
            reencrypt_workers: AtomicUsize::new(cores),
        }
    }
}

impl CloudSystem {
    /// Publishes a record: each `(label, data, policy)` component is
    /// sealed (fresh content key, CP-ABE-wrapped) and uploaded.
    ///
    /// # Errors
    ///
    /// Fails on unknown owner, bad policy, or encryption errors.
    pub fn publish(
        &self,
        owner_id: &OwnerId,
        record: &str,
        components: &[(&str, &[u8], &str)],
    ) -> Result<(), CloudError> {
        let _span = mabe_telemetry::Span::on(&PUBLISH_OP);
        let _trace = mabe_trace::Span::child("cloud.publish").detail(record);
        mabe_trace::op_attr("uid", owner_id.as_str());
        if !self.directory.owners.read().contains_key(owner_id) {
            return Err(CloudError::Core(Error::UnknownOwner(owner_id.clone())));
        }
        let policies: Vec<Policy> = components
            .iter()
            .map(|(_, _, p)| parse(p))
            .collect::<Result<_, _>>()?;
        let specs: Vec<(&str, &[u8], &Policy)> = components
            .iter()
            .zip(policies.iter())
            .map(|((label, data, _), policy)| (*label, *data, policy))
            .collect();
        let envelope = {
            let mut owners = self.directory.owners.write();
            let owner = owners.get_mut(owner_id).expect("checked above");
            seal_envelope(owner, &specs, &mut *self.rng.lock())?
        };
        let ids: Vec<CiphertextId> = envelope.components.iter().map(|c| c.key_ct.id).collect();
        // The upload consults PUBLISH_STORE: transient storage errors and
        // drops are retried; a crash aborts *before* the store, so a
        // failed publish never leaves a half-written record.
        let uploaded = self
            .transmit(
                fault_points::PUBLISH_STORE,
                Endpoint::Owner(owner_id.clone()),
                Endpoint::Server,
                format_args!("record {record}"),
                envelope.stored_size(),
            )
            .and_then(|()| {
                self.data
                    .server
                    .store(owner_id.clone(), record, envelope)
                    .map_err(CloudError::from)
            });
        if let Err(e) = uploaded {
            // Nothing reached the server or the journal: the owner drops
            // the records it adopted when it sealed.
            if let Some(owner) = self.directory.owners.write().get_mut(owner_id) {
                owner.forget_records(&ids);
            }
            return Err(e);
        }
        // A publish whose seal raced a revocation may have landed at the
        // pre-bump version *after* the eager worklist stopped looking.
        // Heal inline from the update-key archive, best-effort: anything
        // this misses is still caught by read-triggered upgrade or the
        // lazy drain, and a fault mid-heal must not fail the (already
        // stored and audited-as-stored) publish.
        self.heal_stale_components(owner_id, record);
        self.audit.lock().record(AuditEvent::Published {
            owner: owner_id.to_string(),
            record: record.to_owned(),
            components: components.iter().map(|(l, _, _)| (*l).to_owned()).collect(),
        });
        Ok(())
    }

    /// A user downloads one component of a record and decrypts it.
    ///
    /// Takes `&self`: concurrent readers share the server and clone
    /// their key view out of the directory, so reads race neither each
    /// other nor the control plane.
    ///
    /// # Errors
    ///
    /// Unknown record/component, or any decryption error (unsatisfied
    /// policy, missing authority key, stale versions).
    pub fn read(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
    ) -> Result<Vec<u8>, CloudError> {
        let _span = mabe_telemetry::Span::on(&READ_OP);
        let _trace = mabe_trace::Span::child("cloud.read").detail(format_args!("{record}/{label}"));
        self.serve_read(uid, owner_id, record, label, &mut LocalOpen)
    }

    /// Like [`Self::read`], but decryption is outsourced: the user sends
    /// a blinded transform key, the **server** runs all pairings and
    /// returns a token, and the user finishes with one `G_T`
    /// exponentiation (the DAC-MACS-style extension in
    /// `mabe_core::outsource`). The server learns nothing: the token
    /// carries the user's `1/z` blinding.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::read`].
    pub fn read_outsourced(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
    ) -> Result<Vec<u8>, CloudError> {
        let _span = mabe_telemetry::Span::on(&READ_OUTSOURCED_OP);
        let _trace = mabe_trace::Span::child("cloud.read_outsourced")
            .detail(format_args!("{record}/{label}"));
        self.serve_read(uid, owner_id, record, label, &mut OutsourcedOpen)
    }

    /// The one read loop: fetch → read-triggered upgrade → lookup → key
    /// view → open → bounded retry, then one audit record of the
    /// outcome. A lookup that serves the pass skips the key view.
    /// Failures before the policy decision (unknown user, record or
    /// component; a lost download; a failed upgrade) return unaudited.
    fn serve_read(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
        step: &mut impl OpenStep,
    ) -> Result<Vec<u8>, CloudError> {
        let at = &ReadAt {
            uid,
            owner: owner_id,
            record,
            label,
        };
        mabe_trace::op_attr("uid", at.uid.shared());
        if !self.directory.users.read().users.contains_key(at.uid) {
            return Err(CloudError::Core(Error::UnknownUser(at.uid.clone())));
        }
        let mut barriers = 0;
        let result = loop {
            let mut component = self.fetch_component(at.owner, at.record, at.label)?;
            if barriers == 0 {
                if let Some(v) = component.key_ct.versions.values().max() {
                    mabe_trace::op_attr("key_version_observed", v);
                }
                step.download(self, at, &component)?;
            }
            // Read-triggered upgrade: a component the archive can still
            // advance is never served stale — hot objects converge ahead
            // of the lazy drain, and an adversary holding pre-revocation
            // keys never finds a matching pre-revocation ciphertext.
            if self.upgrade_before_serve(at.owner, at.record, at.label, &component)? {
                component = self.fetch_component(at.owner, at.record, at.label)?;
            }
            if let Some(v) = component.key_ct.versions.values().max() {
                // Last iteration wins: the version actually served.
                mabe_trace::op_attr("key_version_served", v);
            }
            let served = match step.lookup(self, at, &component) {
                ControlFlow::Break(hit) => hit,
                ControlFlow::Continue(miss) => {
                    step.before_key_view(self);
                    let view = self.key_view(at.uid, at.owner);
                    step.open(self, at, &component, &view, miss)
                }
            };
            match served {
                // The key view and the component straddle a revocation
                // at `authority`: the key lags a bump whose delivery is
                // still in flight, or a bump landed between the upgrade
                // and the key-view clone and the key is ahead. Wait out
                // the immediate phase and go round again: the next pass
                // clones the delivered key or upgrades the component to
                // it. A live holder catches up; a revoked user's key
                // never does and falls through to denial.
                Err(Error::VersionMismatch { authority, .. }) if barriers < MAX_READ_BARRIERS => {
                    barriers += 1;
                    self.key_delivery_barrier(&authority);
                }
                result => break result,
            }
        };
        self.audit.lock().record(AuditEvent::Read {
            uid: at.uid.to_string(),
            owner: at.owner.to_string(),
            record: at.record.to_owned(),
            component: at.label.to_owned(),
            allowed: result.is_ok(),
        });
        Ok(result?)
    }

    /// One stored component, in the server's snapshot of its record.
    fn fetch_component(
        &self,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
    ) -> Result<Fetched, CloudError> {
        let envelope = self
            .data
            .server
            .fetch(owner_id, record)
            .ok_or_else(|| CloudError::UnknownRecord(record.to_owned()))?;
        let index = envelope
            .components
            .iter()
            .position(|c| c.label == label)
            .ok_or_else(|| CloudError::UnknownComponent(label.to_owned()))?;
        Ok(Fetched { envelope, index })
    }

    /// The keys `uid` holds for `owner_id`'s records, as a read that
    /// misses the content-key cache opens with them: its public key and
    /// its secret key at each authority. `None` for an unknown user.
    pub fn user_keys(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
    ) -> Option<(UserPublicKey, BTreeMap<AuthorityId, UserSecretKey>)> {
        let KeyView { pk, keys, .. } = self.try_key_view(uid, owner_id)?;
        Some((pk, Arc::unwrap_or_clone(keys)))
    }

    /// A reader's key view for one owner's records.
    fn key_view(&self, uid: &Uid, owner_id: &OwnerId) -> KeyView {
        self.try_key_view(uid, owner_id)
            .expect("reader checked before the loop")
    }

    /// A user's key view for one owner's records, under a short read
    /// lock.
    fn try_key_view(&self, uid: &Uid, owner_id: &OwnerId) -> Option<KeyView> {
        let users = self.directory.users.read();
        let state = users.users.get(uid)?;
        Some(KeyView {
            pk: state.pk.clone(),
            keys: state.owner_keys(owner_id),
            lines: state.lines.get().cloned(),
        })
    }

    /// The key-side table `uid` keeps for reads of `owner_id`'s records
    /// under `policy`, if any; `decrypt_fast` checks its base.
    fn key_table(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        policy: &Policy,
    ) -> Option<Arc<FixedPairing>> {
        let users = self.directory.users.read();
        users.users.get(uid)?.key_table(owner_id, policy)
    }

    /// Keeps the key-side table a read of `owner_id`'s records under
    /// `policy` built with the directory unlocked, in place of the slot's
    /// old one: only a table at exactly the next read's `K*` is ever
    /// evaluated, so a key update, re-grant or revocation needs no
    /// invalidation, and a concurrent read's install is as good.
    fn install_key_table(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        policy: &Policy,
        built: FixedPairing,
    ) {
        let users = self.directory.users.read();
        if let Some(state) = users.users.get(uid) {
            state.install_key_table(owner_id, policy, Arc::new(built));
            self.cache.count_key_table_build();
        }
    }

    /// Counts one content-key cache miss of `uid`'s reads. At the
    /// [`LINES_BREAK_EVEN`]-th it builds the user's `PK_UID` lines with
    /// the directory unlocked and installs them; a concurrent builder's
    /// copy loses the install and is dropped. Returns the installed
    /// lines, if any.
    fn count_cold_read(&self, uid: &Uid) -> Option<Arc<FixedPairing>> {
        let pk = {
            let users = self.directory.users.read();
            let state = users.users.get(uid)?;
            if let Some(lines) = state.lines.get() {
                return Some(Arc::clone(lines));
            }
            if state.cold_reads.fetch_add(1, Ordering::Relaxed) + 1 < LINES_BREAK_EVEN {
                return None;
            }
            state.pk.pk
        };
        let built = Arc::new(FixedPairing::new(&pk));
        let users = self.directory.users.read();
        let state = users.users.get(uid)?;
        Some(Arc::clone(state.lines.get_or_init(|| built)))
    }

    /// Waits out any in-flight revocation at `aid`. The immediate phase
    /// (version bump, key delivery) runs entirely under the authority's
    /// shard lock, so acquiring and dropping it is a happens-after
    /// barrier: once it returns, the directory holds every key this
    /// reader was owed by the revocation that outran its key clone.
    /// Only the mismatch-retry path pays this — the hot read path still
    /// takes no shard lock.
    pub(crate) fn key_delivery_barrier(&self, aid: &AuthorityId) {
        if let Some(shard) = self.control.shard(aid) {
            drop(shard.state.lock());
        }
    }

    /// Sets how many threads prepare an eager revocation's (or a
    /// recovery's) re-encryptions: the calling thread plus `workers - 1`
    /// scoped helpers. The default is
    /// [`std::thread::available_parallelism`]. Any width gives the same
    /// bytes, audit entries and wire transcript, fault schedules
    /// included: prepare consults no fault point and no randomness, and
    /// every apply runs on the calling thread in worklist order. `1`
    /// prepares on the calling thread alone.
    pub fn set_reencrypt_workers(&self, workers: usize) {
        self.data
            .reencrypt_workers
            .store(workers.max(1), Ordering::Relaxed);
    }

    /// The configured re-encryption width.
    pub fn reencrypt_workers(&self) -> usize {
        self.data.reencrypt_workers.load(Ordering::Relaxed)
    }

    /// Owners apply their update keys (checkpointed per owner in the
    /// pending entry). Runs in the *immediate* phase of both eager and
    /// lazy revocation: [`mabe_core::DataOwner::update_info_for`] needs
    /// attribute-key history at both ends of a version span, so owner
    /// histories must advance before any deferred or read-triggered
    /// upgrade can produce update info.
    pub(crate) fn update_owners(&self, pending: &mut PendingRevocation) -> Result<(), CloudError> {
        let aid = pending.event.aid.clone();
        let owner_ids: Vec<OwnerId> = self.directory.owners.read().keys().cloned().collect();
        for owner_id in owner_ids {
            let Some(uk) = pending.event.update_keys.get(&owner_id).cloned() else {
                continue;
            };
            if pending.updated_owners.contains(&owner_id) {
                continue;
            }
            self.transmit(
                fault_points::REVOKE_OWNER_UPDATE,
                Endpoint::Authority(aid.clone()),
                Endpoint::Owner(owner_id.clone()),
                "update key",
                uk.wire_size(),
            )?;
            {
                let mut owners = self.directory.owners.write();
                let owner = owners.get_mut(&owner_id).expect("owner exists");
                match owner.apply_update_key(&uk) {
                    Ok(()) => {}
                    Err(Error::VersionMismatch { found, .. }) if found >= uk.to_version => {}
                    Err(e) => return Err(e.into()),
                }
            }
            pending.updated_owners.insert(owner_id.clone());
        }
        Ok(())
    }

    /// Phase 2 (eager): the server re-encrypts every affected
    /// ciphertext. The worklist comes from
    /// [`CloudServer::affected_ciphertexts`], which only returns
    /// components still at the old version — replaying a half-finished
    /// phase naturally skips what is already done (and is what makes a
    /// parallel run idempotent too: workers that already advanced a
    /// component before a failure simply shrink the next worklist).
    ///
    /// The worklist is re-taken until a pass finds nothing: a publish
    /// racing this revocation may seal at the pre-bump version and
    /// store *after* the first snapshot, and a single-shot worklist
    /// would strand it stale forever.
    ///
    /// Each owner's step is preprocessed once, from its first worklist
    /// ([`DataOwner::update_tables`](mabe_core::DataOwner::update_tables)),
    /// and every pass and every helper evaluates against those tables.
    /// A component republished since its worklist was taken is left to
    /// the next pass, which lists it under its new ciphertext if it is
    /// still behind.
    pub(crate) fn reencrypt_phase(
        &self,
        pending: &mut PendingRevocation,
    ) -> Result<(), CloudError> {
        let _trace = mabe_trace::Span::child("cloud.reencrypt_phase")
            .detail(format_args!("@{}", pending.event.aid));
        let aid = pending.event.aid.clone();
        let from = pending.event.from_version;
        let width = self.reencrypt_workers();
        let owner_ids: Vec<OwnerId> = self.directory.owners.read().keys().cloned().collect();
        for owner_id in owner_ids {
            let Some(uk) = pending.event.update_keys.get(&owner_id).cloned() else {
                continue;
            };
            let mut tables = None;
            loop {
                let affected = self.data.server.affected_ciphertexts(&owner_id, &aid, from);
                if affected.is_empty() {
                    break;
                }
                let tables =
                    &*tables.get_or_insert_with(|| self.update_tables(&owner_id, &uk, &affected));
                let uk = WithTables::new(&uk, tables.as_ref());
                self.drive_worklist(uk, &affected, width, |item, prepared| {
                    self.apply_phase_item(uk.value, item, prepared)
                })?;
            }
        }
        Ok(())
    }

    /// One apply of the eager phase: the component's `cloud.reencrypt`
    /// span, the [`fault_points::REVOKE_REENCRYPT`] point, then the
    /// upload and the server's apply. A component republished since its
    /// worklist was taken fails the apply with
    /// [`Error::CiphertextMismatch`] and is left to the next pass.
    fn apply_phase_item(
        &self,
        uk: &UpdateKey,
        (record_key, label, _): &WorkItem,
        prepared: Result<Prepared, Error>,
    ) -> Result<(), CloudError> {
        let _trace = mabe_trace::Span::child("cloud.reencrypt")
            .detail(format_args!("{}/{}/{label}", record_key.0, record_key.1));
        self.local_op(fault_points::REVOKE_REENCRYPT, None)?;
        match self.reencrypt_at_server(uk, record_key, label, prepared?) {
            Err(CloudError::Core(Error::CiphertextMismatch { .. })) => Ok(()),
            result => result,
        }
    }

    /// The owner's [`UpdateTables`] for `uk`'s step over a worklist, or
    /// `None` if the owner is gone (the per-component calls then fail
    /// as they would without tables).
    pub(crate) fn update_tables(
        &self,
        owner_id: &OwnerId,
        uk: &UpdateKey,
        worklist: &[(RecordKey, String, CiphertextId)],
    ) -> Option<UpdateTables> {
        let ids: Vec<CiphertextId> = worklist.iter().map(|(_, _, id)| *id).collect();
        let owners = self.directory.owners.read();
        Some(owners.get(owner_id)?.update_tables(uk, &ids))
    }

    /// The one re-encryption worklist driver, for the eager phase,
    /// recovery and the lazy drain. It prepares each item of `items`
    /// under `uk`'s step and hands it to `apply` on the calling thread,
    /// in worklist order. Prepare consults no fault point, draws no
    /// randomness, and touches neither the wire nor the audit log, so
    /// everything those see happens in `apply`, in the order a width of
    /// 1 gives; an item's prepare error reaches `apply` in its turn.
    ///
    /// The worklist goes in chunks of [`PREPARE_CHUNK`]: `width - 1`
    /// helpers prepare the next chunk while the calling thread applies
    /// the current one, and the calling thread then joins in. At width
    /// 1, or below [`SPAWN_BREAK_EVEN`] items, the calling thread
    /// prepares alone, a chunk at a time, so every width prepares the
    /// same items.
    pub(crate) fn drive_worklist(
        &self,
        uk: WithTables<'_, UpdateKey>,
        items: &[WorkItem],
        width: usize,
        mut apply: impl FnMut(&WorkItem, Result<Prepared, Error>) -> Result<(), CloudError>,
    ) -> Result<(), CloudError> {
        let helpers = if items.len() < SPAWN_BREAK_EVEN {
            0
        } else {
            width.clamp(1, items.len()) - 1
        };
        let mut chunks = items.chunks(PREPARE_CHUNK);
        let Some(first) = chunks.next() else {
            return Ok(());
        };
        let (mut prepared, ()) = self.prepare_beside(uk, first, helpers, || ());
        let mut current = first;
        for next in chunks {
            let apply_current = || {
                current
                    .iter()
                    .zip(prepared)
                    .try_for_each(|(item, p)| apply(item, p))
            };
            let (next_prepared, applied) = self.prepare_beside(uk, next, helpers, apply_current);
            applied?;
            (current, prepared) = (next, next_prepared);
        }
        current
            .iter()
            .zip(prepared)
            .try_for_each(|(item, p)| apply(item, p))
    }

    /// Prepares `chunk` on `helpers` scoped threads while the calling
    /// thread runs `meanwhile`, after which the calling thread takes
    /// what is left of the chunk. Returns the chunk prepared, in its
    /// order, and `meanwhile`'s result. Helpers take only read locks
    /// (`directory.owners`, the server's records), never a shard lock or
    /// the op lock. Each opens a `cloud.reencrypt.worker` span that
    /// follows from the caller's span, and the caller absorbs the
    /// crypto operations each one counted.
    fn prepare_beside<T>(
        &self,
        uk: WithTables<'_, UpdateKey>,
        chunk: &[WorkItem],
        helpers: usize,
        meanwhile: impl FnOnce() -> T,
    ) -> (Vec<Result<Prepared, Error>>, T) {
        // Hands out indices only: results come back through `join`.
        let next = AtomicUsize::new(0);
        let take = || {
            let mut share = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = chunk.get(i) else {
                    return share;
                };
                share.push((i, self.prepare_item(uk, item)));
            }
        };
        let parent = mabe_trace::current_ctx();
        let mut slots: Vec<Option<Result<Prepared, Error>>> = Vec::new();
        slots.resize_with(chunk.len(), || None);
        let out = std::thread::scope(|scope| {
            let take = &take;
            let handles: Vec<_> = (1..=helpers.min(chunk.len()))
                .map(|w| {
                    scope.spawn(move || {
                        let _span = parent.map(|ctx| {
                            mabe_trace::Span::follow(ctx, "cloud.reencrypt.worker")
                                .detail(format_args!("worker {w}"))
                        });
                        mabe_telemetry::measure(take)
                    })
                })
                .collect();
            let out = meanwhile();
            let mut shares = vec![take()];
            for handle in handles {
                match handle.join() {
                    Ok((share, ops)) => {
                        mabe_telemetry::absorb(&ops);
                        shares.push(share);
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            for (i, prepared) in shares.into_iter().flatten() {
                slots[i] = Some(prepared);
            }
            out
        });
        let prepared = slots
            .into_iter()
            .map(|slot| slot.expect("every item of the chunk was prepared once"))
            .collect();
        (prepared, out)
    }

    /// Prepares one item: the owner's `UI` for its ciphertext under
    /// `uk`'s step, then the server's refresh from `C'`. Reads only
    /// `C'`, `UK1` and what the owner needs for `UI`.
    fn prepare_item(
        &self,
        uk: WithTables<'_, UpdateKey>,
        (record_key, label, ct_id): &WorkItem,
    ) -> Result<Prepared, Error> {
        let step = uk.value;
        let ui = {
            let owners = self.directory.owners.read();
            let owner = owners
                .get(&step.owner)
                .ok_or_else(|| Error::UnknownOwner(step.owner.clone()))?;
            let aid = WithTables::new(&step.aid, uk.tables);
            owner.update_info_for(*ct_id, aid, step.from_version, step.to_version)?
        };
        let refresh = self
            .data
            .server
            .prepare_reencryption(record_key, label, uk, &ui);
        Ok(Prepared { ui, refresh })
    }

    /// ReEncrypt at the server for one prepared component: the owner
    /// sends the update key plus the ciphertext's update info, and the
    /// server applies the refresh. Losing the race to a concurrent
    /// upgrader — the component already at or past the key's target
    /// version — is success.
    pub(crate) fn reencrypt_at_server(
        &self,
        uk: &UpdateKey,
        record_key: &RecordKey,
        label: &str,
        prepared: Prepared,
    ) -> Result<(), CloudError> {
        self.wire.send(
            Endpoint::Owner(uk.owner.clone()),
            Endpoint::Server,
            "update key + update info",
            uk.wire_size() + prepared.ui.wire_size(),
        );
        let applied = prepared.refresh.and_then(|refresh| {
            self.data
                .server
                .apply_reencryption(record_key, label, uk, &prepared.ui, &refresh)
        });
        match applied {
            Ok(()) => Ok(()),
            Err(Error::VersionMismatch { found, .. }) if found >= uk.to_version => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The cached [`UpdateTables`] of `uk`'s exact step, for one single
    /// upgrade. Counts the upgrade; at the step's [`LINES_BREAK_EVEN`]-th
    /// it builds the set with no cache lock held, over the step's
    /// remaining worklist, so the break-evens of
    /// [`DataOwner::update_tables`](mabe_core::DataOwner::update_tables)
    /// decide what is built, and installs it. A concurrent builder's
    /// copy, or one the authority's next bump overtook, is dropped.
    /// Derived state: never journaled, and it counts no operation.
    pub(crate) fn single_upgrade_tables(
        &self,
        owner_id: &OwnerId,
        uk: &UpdateKey,
    ) -> Option<Arc<UpdateTables>> {
        let generation = match self.cache.count_step_upgrade(uk) {
            StepUse::Cached(tables) => return Some(tables),
            StepUse::Counted => return None,
            StepUse::Build(generation) => generation,
        };
        let worklist = self
            .data
            .server
            .affected_ciphertexts(owner_id, &uk.aid, uk.from_version);
        let tables = self
            .update_tables(owner_id, uk, &worklist)
            .filter(|t| t.has_lines() || t.ratio_tables() > 0)?;
        self.cache.install_step_tables(uk, generation, tables)
    }

    /// If the archive can advance any of a component's per-authority
    /// versions, the component must not be served as-is. How it becomes
    /// current depends on the revocation mode:
    ///
    /// - **eager** (consistency-first): a stale-but-advanceable
    ///   component normally means an inline re-encryption pass is
    ///   mid-flight under the authority's shard lock. The reader waits
    ///   it out behind [`Self::key_delivery_barrier`] — when the lock
    ///   drops the worklist has already advanced this component — so
    ///   reads observe whole revocations, never a half-applied one.
    /// - **lazy** (availability-first): the reader upgrades the
    ///   component in place via the archived update-key chain (at the
    ///   [`fault_points::READ_UPGRADE`] point) — hot objects converge
    ///   ahead of the drain, and an adversary holding pre-revocation
    ///   keys never finds a matching pre-revocation ciphertext.
    ///
    /// A component still stale after the eager barrier (a crashed
    /// revocation left it behind, or a fresh bump landed between the
    /// barrier and the re-fetch) falls through to the same in-place
    /// upgrade, so eager mode keeps the read-triggered heal.
    ///
    /// Returns `true` if the stored component changed so the caller
    /// re-fetches. Read-triggered upgrades are deliberately unjournaled
    /// and unaudited: they are a pure server-side cache warm — the
    /// durable queue still owns convergence, and audit streams must not
    /// depend on which replica's reads ran first.
    fn upgrade_before_serve(
        &self,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
        component: &SealedComponent,
    ) -> Result<bool, CloudError> {
        let mut stale = self.stale_versions(owner_id, &component.key_ct.versions);
        if stale.is_empty() {
            return Ok(false);
        }
        let _trace =
            mabe_trace::Span::child("cloud.read_upgrade").detail(format_args!("{record}/{label}"));
        let mut ct_id = component.key_ct.id;
        if !self.lazy_revocation_enabled() {
            for (aid, _) in &stale {
                self.key_delivery_barrier(aid);
            }
            let component = self.fetch_component(owner_id, record, label)?;
            stale = self.stale_versions(owner_id, &component.key_ct.versions);
            if stale.is_empty() {
                return Ok(true);
            }
            ct_id = component.key_ct.id;
        }
        self.local_op(fault_points::READ_UPGRADE, None)?;
        let record_key = (owner_id.clone(), record.to_owned());
        let telemetry = mabe_telemetry::global();
        for (aid, v) in &stale {
            self.upgrade_one(aid, owner_id, *v, &record_key, label, ct_id)?;
            // The wide event for the enclosing read carries the (last)
            // authority whose stale component this read healed.
            mabe_trace::op_attr("authority", aid.as_str());
            telemetry
                .counter(
                    "mabe_read_upgrades_total",
                    &[("authority", &aid.to_string())],
                )
                .inc();
        }
        // The unlabeled total keeps its original meaning (upgrade
        // passes, not per-authority component upgrades) so existing
        // baselines and dashboards stay comparable.
        telemetry.counter("mabe_read_upgrades_total", &[]).inc();
        Ok(true)
    }

    /// Post-store half of the publish/revoke race fix: upgrades any
    /// just-stored component the archive can already advance.
    /// Best-effort by design — no fault point, no audit, errors
    /// swallowed — because the publish has already succeeded and the
    /// drain / read-upgrade paths will converge whatever this misses.
    fn heal_stale_components(&self, owner_id: &OwnerId, record: &str) {
        if self.lazy.archive.read().is_empty() {
            return;
        }
        let Some(envelope) = self.data.server.fetch(owner_id, record) else {
            return;
        };
        let record_key = (owner_id.clone(), record.to_owned());
        for component in &envelope.components {
            for (aid, v) in self.stale_versions(owner_id, &component.key_ct.versions) {
                let label = &component.label;
                let _ =
                    self.upgrade_one(&aid, owner_id, v, &record_key, label, component.key_ct.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens like [`LocalOpen`], but lands one revocation in the window
    /// between the upgrade and the key-view clone on each of the first
    /// `storm.len()` passes.
    struct RevokeInWindow {
        storm: Vec<Uid>,
    }

    impl OpenStep for RevokeInWindow {
        type Miss = <LocalOpen as OpenStep>::Miss;

        fn download(
            &mut self,
            sys: &CloudSystem,
            at: &ReadAt<'_>,
            component: &SealedComponent,
        ) -> Result<(), CloudError> {
            LocalOpen.download(sys, at, component)
        }

        fn lookup(
            &mut self,
            sys: &CloudSystem,
            at: &ReadAt<'_>,
            component: &SealedComponent,
        ) -> ControlFlow<Result<Vec<u8>, Error>, Self::Miss> {
            LocalOpen.lookup(sys, at, component)
        }

        fn before_key_view(&mut self, sys: &CloudSystem) {
            if let Some(uid) = self.storm.pop() {
                sys.revoke(&uid, "Doctor@MedOrg").unwrap();
            }
        }

        fn open(
            &mut self,
            sys: &CloudSystem,
            at: &ReadAt<'_>,
            component: &SealedComponent,
            view: &KeyView,
            miss: Self::Miss,
        ) -> Result<Vec<u8>, Error> {
            LocalOpen.open(sys, at, component, view, miss)
        }
    }

    /// The lazy-storm reader race, made deterministic: each revocation
    /// landing between the read-triggered upgrade and the key-view clone
    /// puts the live reader's key one version ahead of the component it
    /// just upgraded. A single refetch absorbs one such bump, not two;
    /// the bounded barrier loop absorbs every bump up to its budget.
    #[test]
    fn revocations_landing_between_upgrade_and_key_view_never_fail_a_live_reader() {
        let sys = CloudSystem::new(0x5ace);
        let aid = sys.add_authority("MedOrg", &["Doctor"]).unwrap();
        let owner = sys.add_owner("hospital").unwrap();
        let bob = sys.add_user("bob").unwrap();
        sys.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        let mut cohort: Vec<Uid> = (0..4)
            .map(|i| {
                let uid = sys.add_user(&format!("mallory-{i}")).unwrap();
                sys.grant(&uid, &["Doctor@MedOrg"]).unwrap();
                uid
            })
            .collect();
        sys.publish(
            &owner,
            "chart",
            &[("x", b"ward chart".as_slice(), "Doctor@MedOrg")],
        )
        .unwrap();
        sys.set_lazy_revocation(true);
        // A deferred revocation leaves the chart stale, so the read
        // upgrades it before cloning its key view.
        sys.revoke(&cohort.remove(0), "Doctor@MedOrg").unwrap();

        let mut step = RevokeInWindow { storm: cohort };
        let served = sys.serve_read(&bob, &owner, "chart", "x", &mut step);
        assert_eq!(served.unwrap(), b"ward chart");
        assert!(
            step.storm.is_empty(),
            "every revocation landed in the window"
        );
        assert_eq!(sys.authority_version(&aid), Some(5));
        assert_eq!(sys.read(&bob, &owner, "chart", "x").unwrap(), b"ward chart");
        assert!(sys.audit().verify());
    }

    /// A record republished between prepare and apply: the apply fails
    /// with a typed error and leaves the component alone, and the next
    /// pass lists the republished component under its new ciphertext.
    #[test]
    fn a_component_republished_between_prepare_and_apply_is_left_to_the_next_pass() {
        use mabe_core::WireCodec;

        let sys = CloudSystem::new(0xc7_1d);
        let aid = sys.add_authority("MedOrg", &["Doctor"]).unwrap();
        let owner = sys.add_owner("hospital").unwrap();
        let [alice, bob] = ["alice", "bob"].map(|n| sys.add_user(n).unwrap());
        for uid in [&alice, &bob] {
            sys.grant(uid, &["Doctor@MedOrg"]).unwrap();
        }
        for record in ["r0", "r1"] {
            sys.publish(&owner, record, &[("x", b"v1".as_slice(), "Doctor@MedOrg")])
                .unwrap();
        }
        // The owner as it stands before the bump seals at v1, like a
        // publish that raced the revocation.
        let stale_owner = sys.directory.owners.read()[&owner].to_wire_bytes();
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        let uk = sys.chain_from(&aid, &owner, 1).expect("archived");

        let worklist = sys.data.server.affected_ciphertexts(&owner, &aid, 1);
        assert_eq!(worklist.len(), 2);
        let prepared: Vec<_> = worklist
            .iter()
            .map(|item| sys.prepare_item(WithTables::from(&uk), item))
            .collect();

        let mut raced = mabe_core::DataOwner::from_wire_bytes(&stale_owner).unwrap();
        let policy = parse("Doctor@MedOrg").unwrap();
        let envelope = mabe_core::seal_envelope(
            &mut raced,
            &[("x", b"v2".as_slice(), &policy)],
            &mut *sys.rng.lock(),
        )
        .unwrap();
        let republished = envelope.components[0].key_ct.id;
        let s = raced.encryption_secret(republished).unwrap();
        let attributes = vec!["Doctor@MedOrg".parse().unwrap()];
        sys.directory
            .owners
            .write()
            .get_mut(&owner)
            .unwrap()
            .adopt_record(republished, s, attributes);
        sys.data
            .server
            .store(owner.clone(), "r0", envelope.clone())
            .unwrap();

        let (r0, r0_prepared) = (&worklist[0], &prepared[0]);
        let refresh = r0_prepared.as_ref().unwrap().refresh.as_ref().unwrap();
        let applied = sys.data.server.apply_reencryption(
            &r0.0,
            &r0.1,
            &uk,
            &r0_prepared.as_ref().unwrap().ui,
            refresh,
        );
        assert_eq!(
            applied,
            Err(Error::CiphertextMismatch {
                expected: r0.2,
                found: republished
            })
        );
        let stored = sys.data.server.fetch(&owner, "r0").unwrap();
        assert_eq!(
            stored.components[0].key_ct.to_wire_bytes(),
            envelope.components[0].key_ct.to_wire_bytes(),
            "a rejected apply changes nothing"
        );

        // The eager apply leaves it to the next pass; r1 goes through.
        for (item, prepared) in worklist.iter().zip(prepared) {
            sys.apply_phase_item(&uk, item, prepared).unwrap();
        }
        let next = sys.data.server.affected_ciphertexts(&owner, &aid, 1);
        assert_eq!(next, vec![(r0.0.clone(), r0.1.clone(), republished)]);
        let uk_ref = WithTables::from(&uk);
        sys.drive_worklist(uk_ref, &next, 2, |item, prepared| {
            sys.apply_phase_item(&uk, item, prepared)
        })
        .unwrap();
        assert!(sys
            .data
            .server
            .affected_ciphertexts(&owner, &aid, 1)
            .is_empty());
        assert_eq!(sys.read(&bob, &owner, "r0", "x").unwrap(), b"v2");
        assert_eq!(sys.read(&bob, &owner, "r1", "x").unwrap(), b"v1");
        assert!(sys.read(&alice, &owner, "r0", "x").is_err());
    }
}
