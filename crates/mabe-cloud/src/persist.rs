//! Durable persistence for the deployment: a typed keyspace journal
//! with per-table snapshots and deltas over [`mabe_store`].
//!
//! [`DurableSystem`] wraps a [`CloudSystem`] so that every acknowledged
//! state mutation is journaled to an append-only, checksummed write-ahead
//! log **before** the call returns (`acked ⇒ durable`), and the state is
//! periodically checkpointed into a new generation — a per-table
//! snapshot of the live system, or a delta of what the journal changed
//! since the last checkpoint — beside an append-only seal of the audit
//! entries recorded since then. [`DurableSystem::open`]
//! rebuilds the system from whatever bytes survived a crash: it loads
//! the committed checkpoint (the base snapshot and its deltas) and the
//! seals, replays the WAL tail, re-verifies
//! the audit hash chain, and rolls every journaled in-flight revocation
//! forward — the paper's requirement that committed version keys and
//! update keys are never forgotten (§V).
//!
//! # Journal format
//!
//! Each WAL record is one logical operation's **frame batch**: the
//! `(table, op, key, value)` rows of the typed keyspace the operation
//! changed, read back from the live state *after* the mutation applied.
//! Replay is pure row application — fold the deltas and batches over
//! the per-table snapshot and hydrate a [`CloudSystem`] from the
//! resulting keyspace. No per-record reinterpretation, no RNG coupling:
//! sampled secrets travel inside the journaled rows. Every batch also
//! carries the [`AuditLog`] entries recorded since the previous batch
//! (an audit watermark under the op lock), so the replayed hash chain
//! is byte-identical — [`DurableSystem::open`] rejects the store if it
//! does not verify.
//!
//! A checkpoint never rewrites that history. Its state keeps only the
//! audit counters, the sealed-entry count and the chain head; the
//! entries recorded since the previous checkpoint go into one seal
//! object, committed by the same manifest swap and never collected.
//! Reopen rebuilds the chain from the seals, then the WAL tail, and
//! cross-checks count and head against the checkpoint. So a checkpoint
//! never costs every audit row ever written.
//!
//! # Checkpoints that cost the change
//!
//! An automatic checkpoint (every 64 journaled ops, or past the WAL
//! byte budget) lets the store choose: by default it writes a *delta* —
//! the last frame per row the journal holds since the previous
//! checkpoint, read back from the live segments, plus the closing audit
//! rows — and takes no `CloudSystem` lock but the audit lock. The store
//! writes a full snapshot instead when its fixed rule says the deltas
//! would outweigh one ([`mabe_store::MAX_DELTAS`], the base snapshot's
//! bytes, a segment that fails its checksum on read-back). An explicit
//! [`DurableSystem::checkpoint`] and a scrub repair are always full.
//!
//! A delta persists exactly what the journal holds. A lazy read's
//! in-place component upgrade is deliberately not journaled, so it
//! reaches disk at the next drain or full checkpoint; a crash before
//! then reopens the component at its older version, which the queue or
//! the update-key archive converges again, as a crash before any
//! checkpoint always could.
//!
//! Frame batches, per-table snapshots, deltas and seals are the only
//! on-disk format: a store holding any other record or snapshot (such
//! as one written before the typed keyspace existed) fails to open with
//! a typed [`OpenError::Frame`] or [`OpenError::Keyspace`], one written
//! before seals or before deltas with [`StoreError::Format`], one whose
//! ciphertexts were
//! shared under an older LSSS construction with [`OpenError::Lsss`],
//! and the storage is handed back untouched.
//!
//! Revocation, recovery and the lazy drain have one implementation, in
//! the control plane (`control.rs`, `lazy.rs`), and this handle passes
//! itself as their journal: each driver takes the op lock before any
//! shard lock and journals its begin, defer, drive and drain-completion
//! steps under it. The begin batch lands *after* the begin parks the
//! in-flight [`PendingRevocation`](crate::PendingRevocation) but
//! **before** any delivery starts, so a crash at any later point
//! replays into an in-flight revocation that recovery drives to
//! completion.
//!
//! # Concurrency and group commit
//!
//! Every mutating operation takes `&self`: appliers serialize on one
//! *op lock* that covers the in-memory mutation **and** the staging of
//! the frame batch, so WAL order always equals apply order equals
//! audit order. The expensive part — the disk sync — happens *outside*
//! that lock through the typed store's group commit: concurrent
//! committers batch their staged records under a single sync, so N
//! parallel journaled ops cost one disk flush instead of N. The
//! control-plane steps are the exception: each must be durable before
//! the next state transition, so they commit with the op lock held.
//!
//! RNG streams, wire accounting and authority up/down flags are
//! runtime-only: each incarnation gets a fresh seed, and crypto secrets
//! travel inside the journaled objects, never through the new RNG.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use mabe_core::{Error, OwnerId, Uid};
use mabe_faults::FaultInjector;
use mabe_policy::lsss::CONSTRUCTION;
use mabe_policy::AuthorityId;
use mabe_store::{
    Frame, RecoveryReport, Schema, SchemaError, ScrubReport, Storage, StoreError, StoreRef,
    TypedOpen, TypedOpenError, TypedStore, DEFAULT_SEGMENT_BUDGET,
};

use crate::audit::{AuditLoadError, AuditLog};
use crate::control::{Journal, Revoke, Step};
use crate::system::{traced, CloudError, CloudSystem};
use crate::tables;

/// Fault-point name reported once a durable system has poisoned itself
/// after a journal-write failure.
pub const POISONED_POINT: &str = "store.poisoned";

/// Fault-point name reported by the disk-full pre-flight gate while the
/// system is degraded to read-only.
pub const DEGRADED_POINT: &str = "store.degraded";

/// Default free-space floor (bytes) below which mutations degrade to
/// read-only instead of risking a mid-journal ENOSPC.
pub const DEFAULT_DEGRADE_HEADROOM: usize = 4096;

// ---------------------------------------------------------------------
// Open errors / report
// ---------------------------------------------------------------------

/// Why [`DurableSystem::open`] rejected the surviving bytes.
#[derive(Debug)]
pub enum OpenError {
    /// The backing store failed (corrupt pointer, checksum-failed
    /// committed snapshot, injected I/O fault).
    Store(StoreError),
    /// A keyspace row failed validation.
    Snapshot(Error),
    /// The checkpoint did not decode: its base snapshot is not a
    /// per-table keyspace snapshot ([`SchemaError::BadMagic`] for any
    /// other format), a delta is not a frame batch, or a row key did not
    /// decode.
    Keyspace(SchemaError),
    /// The audit trail (the seals, then the journal tail) was tampered
    /// with or reordered, or the seals disagree with the snapshot's
    /// sealed-entry count and chain head.
    Audit(AuditLoadError),
    /// WAL record `index` survived the checksum but is not a
    /// well-formed frame batch (the error carries the offending byte
    /// offset where one applies).
    Frame {
        /// Zero-based position among the replayed records.
        index: usize,
        /// The decode failure.
        error: SchemaError,
    },
    /// The replayed audit hash chain failed verification.
    AuditChain,
    /// The store's ciphertexts were shared under another LSSS
    /// construction than [`CONSTRUCTION`], the one this build rebuilds
    /// their matrices with: it holds an owner or a record but no `lsss`
    /// marker (a store written before the marker), or a marker naming
    /// another construction. Every read of such a ciphertext would fail
    /// authentication, so the store does not open.
    Lsss {
        /// The construction the store names, if any.
        found: Option<String>,
    },
    /// Rolling journaled in-flight revocations forward failed.
    Recovery(Box<CloudError>),
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Store(e) => write!(f, "store: {e}"),
            OpenError::Snapshot(e) => write!(f, "snapshot: {e}"),
            OpenError::Keyspace(e) => write!(f, "typed keyspace: {e}"),
            OpenError::Audit(e) => write!(f, "audit trail: {e}"),
            OpenError::Frame { index, error } => {
                write!(f, "frame record {index}: {error}")
            }
            OpenError::AuditChain => write!(f, "replayed audit chain failed verification"),
            OpenError::Lsss { found: Some(c) } => write!(
                f,
                "LSSS construction: the store's ciphertexts were shared under \"{c}\", \
                 this build reads \"{CONSTRUCTION}\""
            ),
            OpenError::Lsss { found: None } => write!(
                f,
                "LSSS construction: the store holds owners or records but no construction \
                 marker, so they predate \"{CONSTRUCTION}\""
            ),
            OpenError::Recovery(e) => write!(f, "recovering in-flight revocations: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

/// A failed [`DurableSystem::open`]: the error **plus the backing
/// store**, handed back so the surviving bytes are never lost — the
/// caller can inspect them, disarm an injector, and reopen.
pub struct OpenFailure<S> {
    /// What went wrong.
    pub error: OpenError,
    /// The storage `open` was called with.
    pub storage: S,
}

impl<S> fmt::Debug for OpenFailure<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpenFailure")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<S> fmt::Display for OpenFailure<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl<S> std::error::Error for OpenFailure<S> {}

/// What [`DurableSystem::open`] found and rebuilt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenReport {
    /// Low-level WAL recovery details (generation, salvage, drops).
    pub wal: RecoveryReport,
    /// Journal records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// In-flight revocations rolled forward to completion during open.
    pub revocations_recovered: usize,
    /// Wall-clock open latency in milliseconds.
    pub duration_ms: u64,
}

// ---------------------------------------------------------------------
// DurableSystem
// ---------------------------------------------------------------------

/// Journaling bookkeeping serialized under the op lock.
#[derive(Debug)]
pub(crate) struct OpState {
    ops_since_checkpoint: usize,
    checkpoint_interval: usize,
    /// Live log bytes (cold + active segments) above which the next
    /// `maybe_checkpoint` compacts regardless of the op count — the
    /// knob that keeps disk usage bounded under journal-heavy loads.
    wal_budget: usize,
    /// Audit watermark: how many audit entries are already journaled
    /// (or sealed). Every staged batch appends the rows recorded since,
    /// so the seals plus the on-disk `audit` table stay a contiguous
    /// prefix of the live chain.
    journaled_audit: usize,
    /// Where each committed seal's entries end: seal `k` holds entries
    /// `seal_ends[k-1]..seal_ends[k]` (from 0 for `k = 0`). Kept in
    /// memory so a rotted seal is rewritten without trusting its own
    /// header.
    seal_ends: Vec<usize>,
}

impl OpState {
    /// Audit entries the committed seals hold.
    fn sealed(&self) -> usize {
        self.seal_ends.last().copied().unwrap_or(0)
    }
}

/// A [`CloudSystem`] whose every acknowledged mutation is journaled as
/// a typed frame batch to a write-ahead log and periodically
/// checkpointed as a per-table snapshot or a delta, over any
/// [`Storage`] backend.
///
/// Every operation takes `&self`: appliers serialize on an internal op
/// lock (in-memory mutation plus journal staging), while the disk syncs
/// batch across threads through the typed store's group commit.
#[derive(Debug)]
pub struct DurableSystem<S: Storage> {
    sys: CloudSystem,
    ts: TypedStore<S>,
    seed: u64,
    /// Serializes apply + stage so WAL order == apply order == audit
    /// order. Ordered *above* every `CloudSystem` lock; commits happen
    /// outside it whenever write-ahead semantics allow.
    op: Mutex<OpState>,
    poisoned: AtomicBool,
    /// Set while the store is too full to accept mutations safely:
    /// writes fail fast with [`CloudError::StoreFull`], reads keep
    /// serving, and the flag clears itself the moment compaction (or an
    /// operator) restores headroom. Orthogonal to `poisoned` — a full
    /// disk is an environmental condition, not a consistency violation.
    degraded: AtomicBool,
    /// Free-space floor (bytes) enforced by the pre-flight gate.
    degrade_headroom: AtomicUsize,
}

fn store_to_cloud(e: StoreError) -> CloudError {
    match e {
        StoreError::Crashed { point } => CloudError::Crashed { point },
        StoreError::Transient { point } => CloudError::Storage(point),
        StoreError::NoSpace { point } => CloudError::StoreFull { point },
        StoreError::Corrupt(what) | StoreError::Missing(what) | StoreError::Format(what) => {
            CloudError::Storage(what)
        }
    }
}

fn store_point(e: &StoreError) -> &'static str {
    match e {
        StoreError::Crashed { point }
        | StoreError::Transient { point }
        | StoreError::NoSpace { point } => point,
        StoreError::Corrupt(what) | StoreError::Missing(what) | StoreError::Format(what) => what,
    }
}

impl<S: Storage> DurableSystem<S> {
    /// Opens (or initialises) a durable system over `storage` with no
    /// fault injection on the cloud operations.
    ///
    /// # Errors
    ///
    /// Any [`OpenError`]; the storage is always handed back inside the
    /// [`OpenFailure`].
    pub fn open(storage: S, seed: u64) -> Result<(Self, OpenReport), OpenFailure<S>> {
        Self::open_with_faults(storage, seed, FaultInjector::none())
    }

    /// Opens a durable system whose cloud-level operations consult
    /// `faults`. The injector is installed only **after** snapshot
    /// restore, replay and recovery complete — reopening is always
    /// performed against a quiesced system, the way a restarted process
    /// replays its log before serving traffic.
    ///
    /// # Errors
    ///
    /// Any [`OpenError`]; the storage is always handed back inside the
    /// [`OpenFailure`].
    pub fn open_with_faults(
        storage: S,
        seed: u64,
        faults: FaultInjector,
    ) -> Result<(Self, OpenReport), OpenFailure<S>> {
        let start = Instant::now();
        // Root span over the whole open: the WAL's replay event and
        // recovery's drive spans all land in one causal tree.
        let _trace = mabe_trace::Span::root("durable.open");
        let (ts, open) = match TypedStore::open(storage) {
            Ok(parts) => parts,
            Err(e) => {
                let (error, storage) = match e {
                    TypedOpenError::Wal(failure) => {
                        (OpenError::Store(failure.error), failure.store)
                    }
                    TypedOpenError::Record {
                        index,
                        error,
                        store,
                    } => (OpenError::Frame { index, error }, store),
                    TypedOpenError::Snapshot { error, store } => {
                        (OpenError::Keyspace(error), store)
                    }
                };
                return Err(OpenFailure { error, storage });
            }
        };
        let TypedOpen {
            keyspace,
            seals,
            records: records_replayed,
            report,
        } = open;
        let hydrated = tables::hydrate(&keyspace, &seals, seed);
        // The keyspace and seals were only the replay vehicle: the live
        // system of record is the in-memory `CloudSystem`, and every full
        // checkpoint walks it again. Drop the replayed
        // bytes instead of keeping a second copy of the world resident.
        drop((keyspace, seals));
        let (mut sys, seal_ends) = match hydrated {
            Ok(parts) => parts,
            Err(error) => {
                return Err(OpenFailure {
                    error,
                    storage: ts.into_store(),
                })
            }
        };
        if !sys.audit.lock().verify() {
            return Err(OpenFailure {
                error: OpenError::AuditChain,
                storage: ts.into_store(),
            });
        }
        sys.faults = faults;
        let journaled_audit = sys.audit.lock().entries().len();
        let durable = DurableSystem {
            sys,
            ts,
            seed,
            op: Mutex::new(OpState {
                ops_since_checkpoint: records_replayed,
                checkpoint_interval: 64,
                wal_budget: 4 * DEFAULT_SEGMENT_BUDGET,
                journaled_audit,
                seal_ends,
            }),
            poisoned: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            degrade_headroom: AtomicUsize::new(DEFAULT_DEGRADE_HEADROOM),
        };
        let revocations_recovered = match durable.recover() {
            Ok(n) => n,
            Err(e) => {
                return Err(OpenFailure {
                    error: OpenError::Recovery(Box::new(e)),
                    storage: durable.ts.into_store(),
                })
            }
        };
        // Recovery only drives *in-flight* revocations; deferred ones
        // replayed onto the lazy queue stay queued (acked ⇒ durable) for
        // the drain workers or read-triggered upgrade to converge.
        durable.sys.refresh_queue_gauges();
        let duration_ms = start.elapsed().as_millis() as u64;
        mabe_telemetry::global()
            .histogram("mabe_recovery_duration_ms", &[])
            .record(duration_ms);
        Ok((
            durable,
            OpenReport {
                wal: report,
                records_replayed,
                revocations_recovered,
                duration_ms,
            },
        ))
    }

    fn check_poisoned(&self) -> Result<(), CloudError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(CloudError::Crashed {
                point: POISONED_POINT,
            });
        }
        Ok(())
    }

    /// Pre-flight disk-full gate, consulted by every mutator *before*
    /// it touches memory. Because in-memory state mutates ahead of
    /// journaling, an ENOSPC discovered mid-journal would force a
    /// poison; refusing up front keeps a full disk an environmental
    /// (retryable) condition instead of a consistency violation. The
    /// gate re-evaluates real usage on every call, so reclaimed space —
    /// a compaction, an operator delete, a raised quota — lifts the
    /// degradation automatically.
    fn check_writable(&self) -> Result<(), CloudError> {
        let free = match self.ts.storage().usage() {
            // Unmetered backends never degrade.
            None => {
                self.clear_degraded();
                return Ok(());
            }
            Some(usage) => usage.free(),
        };
        if free < self.degrade_headroom.load(Ordering::SeqCst) {
            self.enter_degraded();
            Err(CloudError::StoreFull {
                point: DEGRADED_POINT,
            })
        } else {
            self.clear_degraded();
            Ok(())
        }
    }

    fn enter_degraded(&self) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            mabe_telemetry::global()
                .gauge("mabe_store_degraded", &[])
                .set(1);
        }
    }

    fn clear_degraded(&self) {
        if self.degraded.swap(false, Ordering::SeqCst) {
            mabe_telemetry::global()
                .gauge("mabe_store_degraded", &[])
                .set(0);
        }
    }

    /// Marks the handle poisoned after a journal failure: in-memory
    /// state may now be ahead of the log, so no further mutation is
    /// accepted; reopen from storage instead. The poison is recorded on
    /// the active span and, when `MABE_TRACE_DIR` is set, the flight
    /// recorder and the wide-event ring are dumped there — exactly when
    /// forensics matter.
    fn poison(&self, e: &StoreError) {
        self.poisoned.store(true, Ordering::SeqCst);
        let point = store_point(e);
        mabe_trace::event(mabe_trace::TraceEvent::Poisoned { point });
        mabe_trace::dump_if_configured(self.seed, &format!("poison_{point}"));
        mabe_events::dump_if_configured(self.seed, &format!("poison_{point}"));
    }

    /// Blocks until everything staged at or before `seq` is durable —
    /// the group-commit rendezvous. Called *without* the op lock
    /// whenever possible so concurrent committers batch under one sync.
    fn commit(&self, seq: u64) -> Result<(), CloudError> {
        match self.ts.commit(seq) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poison(&e);
                Err(store_to_cloud(e))
            }
        }
    }

    /// Stages one operation's frame batch under the op lock, returning
    /// the sequence for the caller to commit after releasing it. The
    /// audit rows recorded since the last batch ride along (the
    /// watermark), so the journaled `audit` table stays a contiguous
    /// prefix of the live chain.
    fn stage_frames_locked(&self, op: &mut OpState, mut frames: Vec<Frame>) -> u64 {
        tables::emit_audit(&self.sys, &mut op.journaled_audit, &mut frames);
        op.ops_since_checkpoint += 1;
        self.ts.stage_frames(&frames)
    }

    fn maybe_checkpoint(&self) -> Result<(), CloudError> {
        let mut op = self.op.lock();
        self.maybe_checkpoint_locked(&mut op)
    }

    fn maybe_checkpoint_locked(&self, op: &mut OpState) -> Result<(), CloudError> {
        if op.ops_since_checkpoint >= op.checkpoint_interval
            || self.ts.live_log_bytes() >= op.wal_budget
        {
            match self.checkpoint_locked(op, false) {
                Ok(()) => {}
                // The triggering op itself succeeded (it is durable and
                // applied); a full disk only means compaction could not
                // run yet. Degrade quietly instead of failing the ack —
                // the next mutation hits the pre-flight gate.
                Err(CloudError::StoreFull { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Seals the audit entries recorded since the last seal, commits the
    /// next generation's state and truncates the WAL, with the op lock
    /// held (no shard lock may be held — a full state's encoding takes
    /// them). With `full` the state is a whole snapshot of the live
    /// system; otherwise the store's rule picks, and a delta folds what
    /// the journal holds and takes no lock but the audit lock.
    ///
    /// Failure handling follows the store's clean/dirty classification:
    /// a *dirty* failure (the manifest swap's outcome is ambiguous, or a
    /// staged flush died) poisons the handle; a *clean* one leaves the
    /// committed generation authoritative and the handle fully usable —
    /// a clean ENOSPC additionally flips the read-only degradation flag.
    fn checkpoint_locked(&self, op: &mut OpState, full: bool) -> Result<(), CloudError> {
        let close = tables::close_audit(&self.sys, op.sealed());
        let seal = close.seal.as_deref();
        let committed = if full {
            let mut keyspace = tables::live_state(&self.sys);
            keyspace.apply(&close.closing);
            self.ts.checkpoint_keyspace(&keyspace, seal)
        } else {
            self.ts
                .checkpoint_delta_or_full(&[tables::Audit::ID], &close.closing, seal, || {
                    tables::live_state(&self.sys)
                })
                .map(drop)
        };
        match committed {
            Ok(()) => {
                op.ops_since_checkpoint = 0;
                if seal.is_some() {
                    op.seal_ends.push(close.sealed);
                }
                // The seals now carry every audit entry up to
                // `close.sealed`; anything recorded since rides the next
                // staged batch.
                op.journaled_audit = op.journaled_audit.max(close.sealed);
                // Compaction just reclaimed every superseded segment:
                // re-evaluate the disk-full degradation right away.
                let _ = self.check_writable();
                Ok(())
            }
            Err(failure) => {
                if failure.dirty {
                    self.poison(&failure.error);
                } else if matches!(failure.error, StoreError::NoSpace { .. }) {
                    self.enter_degraded();
                }
                Err(store_to_cloud(failure.error))
            }
        }
    }

    /// Forces a full checkpoint: the whole system state is written as
    /// the next generation's snapshot (the new base), the manifest swaps
    /// to a fresh single-segment generation, and every superseded
    /// object — the old base and its deltas included — is collected.
    /// Deliberately *not* gated on the disk-full flag — a successful
    /// compaction is exactly what lifts it.
    ///
    /// # Errors
    ///
    /// [`CloudError::Crashed`] / [`CloudError::Storage`] /
    /// [`CloudError::StoreFull`] mapped from the store failure; only
    /// dirty failures poison the handle.
    pub fn checkpoint(&self) -> Result<(), CloudError> {
        self.check_poisoned()?;
        let mut op = self.op.lock();
        self.checkpoint_locked(&mut op, true)
    }

    /// Sets how many journaled ops accumulate before an automatic
    /// checkpoint.
    pub fn set_checkpoint_interval(&self, interval: usize) {
        self.op.lock().checkpoint_interval = interval.max(1);
    }

    /// Sets the live-log byte budget above which `maybe_checkpoint`
    /// compacts regardless of the op count.
    pub fn set_wal_budget(&self, bytes: usize) {
        self.op.lock().wal_budget = bytes.max(1);
    }

    /// Sets the free-space floor (bytes) below which mutations degrade
    /// to read-only.
    pub fn set_degrade_headroom(&self, bytes: usize) {
        self.degrade_headroom.store(bytes, Ordering::SeqCst);
    }

    /// Whether the disk-full gate has degraded this handle to read-only
    /// (as of its last evaluation). Reads still serve; mutations fail
    /// fast with [`CloudError::StoreFull`] until space is reclaimed.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Runs one scrubber pass: re-verifies every cold segment, the base
    /// snapshot, every live delta and every committed seal. Rot is
    /// *repaired*, not fatal — the corrupt objects are quarantined for
    /// forensics, a rotted seal is rewritten byte-identically from the
    /// in-memory chain (no checkpoint ever supersedes a seal), and
    /// rotted segments, snapshots or deltas are superseded by a fresh
    /// full checkpoint cut from the authoritative in-memory state.
    ///
    /// # Errors
    ///
    /// A failed scrub read, or a failed repair (quarantine, seal
    /// rewrite, checkpoint); repair failures dump the flight recorder
    /// when `MABE_TRACE_DIR` is set, since the log is rotting *and*
    /// cannot be rewritten — the forensics may be all that survives.
    pub fn scrub(&self) -> Result<ScrubReport, CloudError> {
        self.check_poisoned()?;
        let _trace = mabe_trace::Span::child("durable.scrub");
        let mut op = self.op.lock();
        let report = self.ts.scrub().map_err(store_to_cloud)?;
        if !report.clean() {
            // Everything corrupt that is not a seal is a segment, the
            // base snapshot or a delta, which only a full checkpoint
            // supersedes.
            let superseded = report.corrupt.len() > report.corrupt_seals.len();
            let repaired = self
                .ts
                .quarantine(&report.corrupt)
                .map_err(store_to_cloud)
                .and_then(|()| self.rewrite_seals(&op, &report.corrupt_seals))
                .and_then(|()| {
                    if superseded {
                        self.checkpoint_locked(&mut op, true)
                    } else {
                        Ok(())
                    }
                });
            match repaired {
                Ok(()) => {
                    mabe_telemetry::global()
                        .counter("mabe_wal_scrub_repairs_total", &[])
                        .inc();
                }
                Err(e) => {
                    mabe_trace::dump_if_configured(self.seed, "scrub_repair_failed");
                    return Err(e);
                }
            }
        }
        Ok(report)
    }

    /// Rewrites each of `seals` from the in-memory chain, over the
    /// entry range it was sealed with — byte-identical to the seal the
    /// checkpoint wrote, since both come from [`tables::seal_payload`].
    fn rewrite_seals(&self, op: &OpState, seals: &[u64]) -> Result<(), CloudError> {
        let audit = self.sys.audit.lock();
        for &n in seals {
            let k = n as usize;
            let start = k.checked_sub(1).map_or(0, |prev| op.seal_ends[prev]);
            let payload = tables::seal_payload(&audit.entries()[start..op.seal_ends[k]]);
            self.ts.rewrite_seal(n, &payload).map_err(store_to_cloud)?;
        }
        Ok(())
    }

    /// The skeleton every journaled mutator shares: the poison and
    /// disk-full gates, then `apply` (which journals) and an
    /// opportunistic checkpoint under the op's span.
    fn journaled<T>(
        &self,
        span: &'static str,
        detail: String,
        apply: impl FnOnce() -> Result<T, CloudError>,
    ) -> Result<T, CloudError> {
        self.check_poisoned()?;
        self.check_writable()?;
        traced(span, detail, || {
            let out = apply()?;
            self.maybe_checkpoint()?;
            Ok(out)
        })
    }

    /// A journaled mutator whose whole batch is known once it applied:
    /// `apply` runs under the op lock, the batch `frames` reads back
    /// from the live state is staged there too, and the commit waits
    /// outside the lock so concurrent committers share one sync.
    fn mutate<T>(
        &self,
        span: &'static str,
        detail: String,
        apply: impl FnOnce() -> Result<T, CloudError>,
        frames: impl FnOnce(&T) -> Vec<Frame>,
    ) -> Result<T, CloudError> {
        self.journaled(span, detail, || {
            let (out, seq) = {
                let mut op = self.op.lock();
                let out = apply()?;
                let seq = self.stage_frames_locked(&mut op, frames(&out));
                (out, seq)
            };
            self.commit(seq)?;
            Ok(out)
        })
    }

    /// Registers an attribute authority (durably).
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::add_authority`], plus journal
    /// failures.
    pub fn add_authority(
        &self,
        name: &str,
        attribute_names: &[&str],
    ) -> Result<AuthorityId, CloudError> {
        self.mutate(
            "durable.add_authority",
            name.to_owned(),
            || self.sys.add_authority(name, attribute_names),
            |aid| tables::frames_authority_added(&self.sys, aid),
        )
    }

    /// Registers a data owner (durably).
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::add_owner`], plus journal
    /// failures.
    pub fn add_owner(&self, name: &str) -> Result<OwnerId, CloudError> {
        self.mutate(
            "durable.add_owner",
            name.to_owned(),
            || self.sys.add_owner(name),
            |id| tables::frames_owner_added(&self.sys, id),
        )
    }

    /// Registers a user (durably).
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::add_user`], plus journal
    /// failures.
    pub fn add_user(&self, name: &str) -> Result<Uid, CloudError> {
        self.mutate(
            "durable.add_user",
            name.to_owned(),
            || self.sys.add_user(name),
            |uid| tables::frames_user_added(&self.sys, uid),
        )
    }

    /// Grants attributes to a user (durably).
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::grant`], plus journal failures.
    pub fn grant(&self, uid: &Uid, attributes: &[&str]) -> Result<(), CloudError> {
        self.mutate(
            "durable.grant",
            uid.to_string(),
            || self.sys.grant(uid, attributes),
            |()| tables::frames_granted(&self.sys, uid),
        )
    }

    /// Publishes a record (durably): the sealed envelope's row and the
    /// owner's refreshed row (retained encryption secrets included) are
    /// journaled so replay restores both the server copy and the
    /// owner's ability to re-encrypt it.
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::publish`], plus journal failures.
    pub fn publish(
        &self,
        owner_id: &OwnerId,
        record: &str,
        components: &[(&str, &[u8], &str)],
    ) -> Result<(), CloudError> {
        self.mutate(
            "durable.publish",
            format!("{owner_id}/{record}"),
            || self.sys.publish(owner_id, record, components),
            |()| tables::frames_published(&self.sys, owner_id, record),
        )
    }

    /// A user reads one component ([`CloudSystem::read`]); the audited
    /// outcome (allowed or denied) is journaled so the replayed audit
    /// trail matches the live one.
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::read`]; journal failures take
    /// precedence over the read result.
    pub fn read(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
    ) -> Result<Vec<u8>, CloudError> {
        self.audited_read("durable.read", format!("{record}/{label}"), || {
            self.sys.read(uid, owner_id, record, label)
        })
    }

    /// Outsourced-decryption read ([`CloudSystem::read_outsourced`]),
    /// with the same audit journaling as [`Self::read`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::read_outsourced`]; journal
    /// failures take precedence.
    pub fn read_outsourced(
        &self,
        uid: &Uid,
        owner_id: &OwnerId,
        record: &str,
        label: &str,
    ) -> Result<Vec<u8>, CloudError> {
        self.audited_read(
            "durable.read_outsourced",
            format!("{record}/{label}"),
            || self.sys.read_outsourced(uid, owner_id, record, label),
        )
    }

    /// Runs one read under the op lock and journals an audit-only frame
    /// batch iff the call reached the audit log (failures before the
    /// policy decision — unknown record, lost download — are not
    /// audited and not journaled). Reads do not journal server-side
    /// component upgrades: `LazyArchive` rows are never consumed, so a
    /// replayed-stale component self-heals on the next read or drain.
    /// A delta checkpoint carries only what the journal holds, so such
    /// an upgrade reaches disk at the next drain or full checkpoint. The
    /// commit waits outside the op lock.
    fn audited_read(
        &self,
        span: &'static str,
        detail: String,
        read: impl FnOnce() -> Result<Vec<u8>, CloudError>,
    ) -> Result<Vec<u8>, CloudError> {
        self.check_poisoned()?;
        traced(span, detail, || {
            let (result, seq) = {
                let mut op = self.op.lock();
                let before = self.sys.audit.lock().entries().len();
                let result = read();
                if self.sys.audit.lock().entries().len() == before {
                    return result;
                }
                // Disk-full degradation: reads must keep serving and
                // must never poison the handle, so while the store is
                // out of headroom the audit rows stay in memory only.
                // The watermark does *not* advance — the dropped rows
                // ride the next successful batch, keeping the journaled
                // audit chain a contiguous prefix of the live one (the
                // dropped records are counted; replay after a crash
                // simply lacks the tail).
                if self.check_writable().is_err() {
                    mabe_telemetry::global()
                        .counter("mabe_read_audit_records_dropped_total", &[])
                        .inc();
                    return result;
                }
                (result, self.stage_frames_locked(&mut op, Vec::new()))
            };
            self.commit(seq)?;
            self.maybe_checkpoint()?;
            result
        })
    }

    /// Marks a user offline (durably).
    ///
    /// # Errors
    ///
    /// Journal failures only.
    pub fn set_offline(&self, uid: &Uid) -> Result<(), CloudError> {
        self.mutate(
            "durable.set_offline",
            uid.to_string(),
            || {
                self.sys.set_offline(uid);
                Ok(())
            },
            |()| tables::frames_offline(&self.sys, uid),
        )
    }

    /// Brings an offline user back and replays its queued update keys
    /// (durably). The sync is journaled only once it fully succeeds; a
    /// crash mid-sync therefore replays to the pre-sync state with the
    /// queue intact, and the composed reapplication converges to the
    /// same key versions (at-least-once delivery, idempotent
    /// application).
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::sync_user`], plus journal
    /// failures.
    pub fn sync_user(&self, uid: &Uid) -> Result<(), CloudError> {
        self.mutate(
            "durable.sync_user",
            uid.to_string(),
            || self.sys.sync_user(uid),
            |()| tables::frames_synced(&self.sys, uid),
        )
    }

    /// Revokes one attribute from one user (durably), through the
    /// control plane's one revocation driver with this handle as its
    /// journal: the begin batch — the re-keyed authority, dropped
    /// grants, archived update keys and the parked
    /// [`PendingRevocation`](crate::PendingRevocation) — is journaled
    /// and synced **before** any key delivery, so a crash at any point
    /// of the two-phase protocol replays into an in-flight revocation
    /// that recovery completes.
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::revoke`], plus journal failures.
    pub fn revoke(&self, uid: &Uid, attribute: &str) -> Result<(), CloudError> {
        self.journaled("durable.revoke", format!("{uid} {attribute}"), || {
            self.sys.revoke_via(self, uid, Revoke::Attribute(attribute))
        })
    }

    /// User-level revocation at one authority (durably); see
    /// [`CloudSystem::revoke_user_at`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudSystem::revoke_user_at`], plus journal
    /// failures.
    pub fn revoke_user_at(&self, uid: &Uid, aid: &AuthorityId) -> Result<(), CloudError> {
        self.journaled("durable.revoke_user_at", format!("{uid} @{aid}"), || {
            self.sys.revoke_via(self, uid, Revoke::UserAt(aid))
        })
    }

    /// Full user-level revocation across every authority where the user
    /// holds attributes (durably); see [`CloudSystem::revoke_user`].
    ///
    /// # Errors
    ///
    /// Unknown user; propagates per-authority failures.
    pub fn revoke_user(&self, uid: &Uid) -> Result<(), CloudError> {
        self.check_poisoned()?;
        self.sys
            .revoke_user_with(uid, |aid| self.revoke_user_at(uid, aid))
    }

    /// Rolls every journaled in-flight revocation forward, journaling
    /// each completion. Returns how many converged.
    ///
    /// # Errors
    ///
    /// Propagates the first fault that still blocks convergence.
    pub fn recover(&self) -> Result<usize, CloudError> {
        self.check_poisoned()?;
        traced("durable.recover", String::new(), || {
            self.sys.recover_via(self)
        })
    }

    /// Claims and drains one authority's pending lazy batch to
    /// convergence, journaling the completion (`LazyDrained`) so replay
    /// converges the same revocations. Component upgrades run **outside**
    /// the op lock — reads and other ops proceed during a drain; only
    /// the completion record serializes with the journal. In degraded
    /// (read-only) mode this is a clean no-op: the queue is preserved
    /// and read-triggered upgrade keeps serving fresh bytes.
    ///
    /// # Errors
    ///
    /// Poisoned handle, journal failures, or unrecovered drain faults
    /// (the claim is released and the queue kept intact for retry).
    pub fn drain_lazy_batch(&self) -> Result<Vec<u64>, CloudError> {
        self.sys.drain_batch_via(self)
    }

    /// Drains the entire lazy pending-upgrade queue durably. Returns
    /// how many deferred revocations converged.
    ///
    /// # Errors
    ///
    /// Propagates the first failing batch; earlier batches stay
    /// converged and journaled.
    pub fn drain_lazy(&self) -> Result<usize, CloudError> {
        self.sys.drain_all_via(self)
    }

    /// Read access to the wrapped system (audit trail, server, wire
    /// accounting, storage report, versions).
    pub fn system(&self) -> &CloudSystem {
        &self.sys
    }

    /// The tamper-evident audit trail (a lock guard dereferencing to
    /// the [`AuditLog`]).
    pub fn audit(&self) -> impl std::ops::Deref<Target = AuditLog> + '_ {
        self.sys.audit()
    }

    /// Whether any revocation is journaled but not yet converged.
    pub fn needs_recovery(&self) -> bool {
        self.sys.needs_recovery()
    }

    /// Whether a journal-write failure has poisoned this handle (reopen
    /// from storage to continue).
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Mutable access to the **cloud-level** fault injector (the store
    /// has its own, owned by the backend).
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        self.sys.faults_mut()
    }

    /// The committed checkpoint generation. Never waits on the log.
    pub fn generation(&self) -> u64 {
        self.ts.generation()
    }

    /// Segments the committed manifest currently lists. Never waits on
    /// the log.
    pub fn segments_live(&self) -> usize {
        self.ts.segments_live()
    }

    /// Live log bytes (cold + active segments, snapshot excluded), as of
    /// the last flush or checkpoint. Never waits on the log.
    pub fn live_log_bytes(&self) -> usize {
        self.ts.live_log_bytes()
    }

    /// Sets the per-segment rotation budget on the underlying log.
    pub fn set_segment_budget(&self, bytes: usize) {
        self.ts.set_segment_budget(bytes);
    }

    /// Read access to the backing store: a guard dereferencing to `S`
    /// that holds the log's lock while it lives, so no mutator, read or
    /// checkpoint of this system may run on the same thread until it
    /// drops. The log counters above stay safe to read.
    pub fn storage(&self) -> StoreRef<'_, S> {
        self.ts.storage()
    }

    /// Mutable access to the backing store (e.g. to arm a simulated
    /// disk's injector mid-run).
    pub fn storage_mut(&mut self) -> &mut S {
        self.ts.store_mut()
    }

    /// Consumes the system, returning the backing store — the crash
    /// sweep's "power cut": drop everything in memory, keep the disk.
    pub fn into_storage(self) -> S {
        self.ts.into_store()
    }
}

/// The durable journal of the control plane's drivers: the op lock is
/// held from before the shard lock to the end of the operation, and
/// each step's frame batch is staged and committed under it.
impl<S: Storage> Journal for DurableSystem<S> {
    type Op<'a>
        = MutexGuard<'a, OpState>
    where
        Self: 'a;

    fn lock(&self) -> Self::Op<'_> {
        self.op.lock()
    }

    fn step<'j>(&'j self, op: &mut Self::Op<'j>, step: Step<'_>) -> Result<(), CloudError> {
        let drained = matches!(step, Step::Drained { .. });
        let frames = match step {
            Step::Begun { st, id } => tables::frames_revocation_begun(&self.sys, st, id),
            Step::Finished { st, id, deferred } => {
                tables::frames_revocation_finished(&self.sys, st, id, deferred)
            }
            Step::Drained { ids, aid } => tables::frames_lazy_drained(&self.sys, ids, aid),
        };
        // Committed with the op lock held: each step must be durable
        // before the next state transition (the begin, before any key
        // delivery).
        let seq = self.stage_frames_locked(op, frames);
        self.commit(seq)?;
        // A drain completes outside every shard lock, so it may
        // checkpoint; revocations checkpoint once their shard is free.
        if drained {
            self.maybe_checkpoint_locked(op)?;
        }
        Ok(())
    }

    fn may_drain(&self) -> Result<bool, CloudError> {
        self.check_poisoned()?;
        Ok(!self.degraded())
    }
}

impl<S: Storage + Send + Sync + 'static> DurableSystem<S> {
    /// Spawns the background maintenance loop: every `period` it runs
    /// one scrubber pass (repairing any rot it finds) and an
    /// opportunistic checkpoint check, until the returned handle is
    /// stopped or dropped. Maintenance failures are absorbed — the
    /// foreground path already owns poisoning and degradation — and the
    /// loop parks itself permanently if the handle poisons.
    pub fn spawn_maintenance(self: &Arc<Self>, period: Duration) -> MaintenanceHandle {
        let workers = Workers::spawn(1, |stop| {
            let sys = Arc::clone(self);
            move || {
                while !stop.load(Ordering::SeqCst) {
                    nap(&stop, period);
                    if stop.load(Ordering::SeqCst) || sys.poisoned() {
                        break;
                    }
                    let _ = sys.scrub();
                    let _ = sys.maybe_checkpoint();
                }
            }
        });
        MaintenanceHandle { workers }
    }

    /// Spawns the bounded lazy-drain worker pool: `workers` threads
    /// each repeatedly claim and drain one authority's pending batch
    /// (journaling completions) and sleep `period` when the queue is
    /// empty or a fault blocks a batch (the claim is released, so the
    /// next tick retries). Workers park permanently if the handle
    /// poisons; drain errors are absorbed — foreground revokes apply
    /// backpressure and reads self-heal regardless.
    pub fn spawn_lazy_drain(self: &Arc<Self>, workers: usize, period: Duration) -> LazyDrainHandle {
        let workers = Workers::spawn(workers.max(1), |stop| {
            let sys = Arc::clone(self);
            move || {
                while !stop.load(Ordering::SeqCst) && !sys.poisoned() {
                    // Keep draining while there is claimable work; idle
                    // (or transiently faulted), sleep.
                    if !sys.drain_lazy_batch().is_ok_and(|ids| !ids.is_empty()) {
                        nap(&stop, period);
                    }
                }
            }
        });
        LazyDrainHandle { workers }
    }
}

/// Sleeps `period` in short slices, so a stop request cuts it short.
fn nap(stop: &AtomicBool, period: Duration) {
    let mut slept = Duration::ZERO;
    while slept < period && !stop.load(Ordering::SeqCst) {
        let slice = (period - slept).min(Duration::from_millis(20));
        std::thread::sleep(slice);
        slept += slice;
    }
}

/// Background threads sharing one stop flag; stopped and joined on
/// drop.
#[derive(Debug)]
struct Workers {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    /// Spawns `n` threads, each running the loop `body` builds around
    /// the shared stop flag.
    fn spawn<F>(n: usize, body: impl Fn(Arc<AtomicBool>) -> F) -> Self
    where
        F: FnOnce() + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| std::thread::spawn(body(Arc::clone(&stop))))
            .collect();
        Workers { stop, threads }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Stops the background maintenance loop when explicitly
/// [`stopped`](MaintenanceHandle::stop) or dropped.
#[derive(Debug)]
pub struct MaintenanceHandle {
    workers: Workers,
}

impl MaintenanceHandle {
    /// Signals the loop to exit and joins it.
    pub fn stop(self) {
        drop(self.workers);
    }
}

/// Stops the lazy-drain worker pool when explicitly
/// [`stopped`](LazyDrainHandle::stop) or dropped.
#[derive(Debug)]
pub struct LazyDrainHandle {
    workers: Workers,
}

impl LazyDrainHandle {
    /// Signals every worker to exit and joins them.
    pub fn stop(self) {
        drop(self.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEvent;
    use crate::system::fault_points;
    use mabe_faults::{FaultKind, FaultPlan};
    use mabe_store::{store_points, CheckpointKind, FrameOp, Keyspace, SimDisk, Wal};
    use std::collections::BTreeSet;

    const DOC_POLICY: &str = "Doctor@MedOrg";
    const SHARED_POLICY: &str = "Doctor@MedOrg OR Nurse@MedOrg";

    /// Builds a world exercising **every** journal record type: authority
    /// and owner setup, two users, grants, two publishes, an offline
    /// user riding out a revocation, a sync, and an allowed plus a
    /// denied read.
    fn full_world(
        ds: DurableSystem<SimDisk>,
    ) -> (DurableSystem<SimDisk>, Uid, Uid, OwnerId, AuthorityId) {
        let aid = ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let alice = ds.add_user("alice").unwrap();
        let bob = ds.add_user("bob").unwrap();
        ds.grant(&alice, &["Doctor@MedOrg"]).unwrap();
        ds.grant(&bob, &["Nurse@MedOrg"]).unwrap();
        ds.publish(
            &owner,
            "rec-doc",
            &[("diagnosis", b"doctors only".as_slice(), DOC_POLICY)],
        )
        .unwrap();
        ds.publish(
            &owner,
            "rec-shared",
            &[("note", b"ward note".as_slice(), SHARED_POLICY)],
        )
        .unwrap();
        ds.set_offline(&bob).unwrap();
        ds.revoke(&alice, "Doctor@MedOrg").unwrap();
        ds.sync_user(&bob).unwrap();
        assert_eq!(
            ds.read(&bob, &owner, "rec-shared", "note").unwrap(),
            b"ward note"
        );
        // Alice was revoked: the denied read is audited (allowed=false).
        assert!(ds.read(&alice, &owner, "rec-doc", "diagnosis").is_err());
        (ds, alice, bob, owner, aid)
    }

    fn open_fresh(seed: u64) -> DurableSystem<SimDisk> {
        DurableSystem::open(SimDisk::unfaulted(), seed).unwrap().0
    }

    #[test]
    fn reopen_after_crash_restores_state_and_audit_chain() {
        let (ds, alice, bob, owner, aid) = full_world(open_fresh(42));
        let expected_audit = ds.audit().clone();
        let expected_version = ds.system().authority_version(&aid);
        assert!(!ds.needs_recovery());

        let mut disk = ds.into_storage();
        disk.crash(); // drop anything unsynced — acked ops must survive

        let (ds2, report) = DurableSystem::open(disk, 9999).unwrap();
        assert!(report.records_replayed >= 12, "all ops journaled");
        assert_eq!(report.revocations_recovered, 0);
        assert_eq!(
            &*ds2.audit(),
            &expected_audit,
            "replayed audit chain identical"
        );
        assert_eq!(ds2.system().authority_version(&aid), expected_version);
        assert!(!ds2.needs_recovery());

        // Paper invariants hold in the reopened incarnation: the
        // non-revoked user still decrypts, the revoked one never does.
        assert_eq!(
            ds2.read(&bob, &owner, "rec-shared", "note").unwrap(),
            b"ward note"
        );
        assert!(ds2.read(&alice, &owner, "rec-doc", "diagnosis").is_err());
    }

    #[test]
    fn checkpoint_compacts_and_reopen_replays_only_the_tail() {
        let (ds, _, bob, owner, _) = full_world(open_fresh(7));
        ds.checkpoint().unwrap();
        let generation = ds.generation();
        assert!(generation >= 1);
        // One post-checkpoint op rides in the new generation's log.
        ds.publish(
            &owner,
            "rec-late",
            &[("x", b"tail".as_slice(), SHARED_POLICY)],
        )
        .unwrap();
        let expected_audit = ds.audit().clone();

        let mut disk = ds.into_storage();
        disk.crash();
        let (ds2, report) = DurableSystem::open(disk, 1).unwrap();
        assert!(report.wal.had_snapshot);
        assert_eq!(report.records_replayed, 1, "only the tail replays");
        assert_eq!(ds2.generation(), generation);
        assert_eq!(&*ds2.audit(), &expected_audit);
        assert_eq!(ds2.read(&bob, &owner, "rec-late", "x").unwrap(), b"tail");
    }

    /// A small lazy-mode world: two authorities, two publishes, lazy
    /// revocation enabled, one revoke deferred onto the queue.
    fn lazy_world(ds: DurableSystem<SimDisk>) -> (DurableSystem<SimDisk>, Uid, Uid, OwnerId) {
        ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let alice = ds.add_user("alice").unwrap();
        let bob = ds.add_user("bob").unwrap();
        ds.grant(&alice, &["Doctor@MedOrg"]).unwrap();
        ds.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        ds.publish(&owner, "rec-a", &[("x", b"aaa".as_slice(), DOC_POLICY)])
            .unwrap();
        ds.publish(&owner, "rec-b", &[("y", b"bbb".as_slice(), DOC_POLICY)])
            .unwrap();
        ds.system().set_lazy_revocation(true);
        ds.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert_eq!(ds.system().lazy_queue_depth(), 1);
        (ds, alice, bob, owner)
    }

    /// A fresh store that never checkpoints on its own.
    fn unchecked(seed: u64) -> DurableSystem<SimDisk> {
        let ds = open_fresh(seed);
        ds.set_checkpoint_interval(usize::MAX);
        ds.set_wal_budget(usize::MAX);
        ds
    }

    /// Reopens a copy of `ds`'s durable bytes (a power cut with nothing
    /// checkpointed, so the journal alone rebuilds it) and checks that
    /// it populates the same snapshot and seal as the live system.
    fn reopens_to_itself(ds: &DurableSystem<SimDisk>, step: &str) {
        assert_eq!(ds.generation(), 0, "{step}: a checkpoint ran");
        reopens_alike(ds, step);
    }

    /// Reopens a copy of `ds`'s durable bytes, as a power cut leaves
    /// them, checks that it populates the same snapshot and seal as the
    /// live system, and returns it.
    fn reopens_alike(ds: &DurableSystem<SimDisk>, step: &str) -> DurableSystem<SimDisk> {
        let mut disk = SimDisk::unfaulted();
        for (name, bytes) in durable_objects(&ds.storage()) {
            disk.set_durable(&name, bytes);
        }
        let (reopened, _) = DurableSystem::open(disk, 0x0b5e).unwrap();
        let [live, replayed] = [ds.system(), reopened.system()].map(|sys| {
            let image = tables::populate(sys, 0);
            (image.keyspace.encode_snapshot(), image.seal)
        });
        assert!(
            live.0 == replayed.0,
            "{step}: the replayed snapshot differs"
        );
        assert!(live.1 == replayed.1, "{step}: the replayed seal differs");
        reopened
    }

    /// Every journaled mutator, ordered so later registrations meet
    /// earlier state: an authority added after an owner, an owner added
    /// after grants, offline holders across an eager, a user-level and a
    /// lazy revocation, a sync, a replaced record and the drain. `check`
    /// runs after each step, so a row one batch leaves out is caught
    /// before a later batch's re-put can cover it.
    fn every_mutator_world(
        ds: &DurableSystem<SimDisk>,
        mut check: impl FnMut(&DurableSystem<SimDisk>, &str),
    ) {
        ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        check(ds, "add_authority MedOrg");
        let hospital = ds.add_owner("hospital").unwrap();
        check(ds, "add_owner hospital");
        let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| ds.add_user(n).unwrap());
        check(ds, "add_user");
        ds.grant(&alice, &["Doctor@MedOrg"]).unwrap();
        ds.grant(&bob, &["Doctor@MedOrg", "Nurse@MedOrg"]).unwrap();
        check(ds, "grant");
        let trial = ds.add_authority("Trial", &["Researcher"]).unwrap();
        check(ds, "add_authority Trial after an owner");
        ds.grant(&alice, &["Researcher@Trial"]).unwrap();
        ds.grant(&carol, &["Researcher@Trial", "Nurse@MedOrg"])
            .unwrap();
        check(ds, "grant at Trial");
        let clinic = ds.add_owner("clinic").unwrap();
        check(ds, "add_owner clinic after grants");
        let notes = "Nurse@MedOrg OR Researcher@Trial";
        let chart = [
            ("dx", b"doctors only".as_slice(), DOC_POLICY),
            ("notes", b"ward", notes),
        ];
        ds.publish(&hospital, "chart", &chart).unwrap();
        let study = [(
            "data",
            b"both".as_slice(),
            "Researcher@Trial AND Nurse@MedOrg",
        )];
        ds.publish(&clinic, "study", &study).unwrap();
        check(ds, "publish");
        assert_eq!(ds.read(&carol, &clinic, "study", "data").unwrap(), b"both");
        check(ds, "read");
        ds.set_offline(&bob).unwrap();
        ds.set_offline(&carol).unwrap();
        check(ds, "set_offline");
        ds.revoke(&alice, "Doctor@MedOrg").unwrap();
        check(ds, "eager revoke");
        ds.revoke_user_at(&alice, &trial).unwrap();
        check(ds, "revoke_user_at");
        // No read from here to the drain: read-triggered upgrades are
        // not journaled.
        ds.system().set_lazy_revocation(true);
        ds.revoke(&bob, "Nurse@MedOrg").unwrap();
        assert_eq!(ds.system().lazy_queue_depth(), 1);
        check(ds, "lazy revoke");
        ds.sync_user(&carol).unwrap();
        check(ds, "sync_user");
        ds.publish(
            &hospital,
            "chart",
            &[("dx", b"replaced".as_slice(), DOC_POLICY)],
        )
        .unwrap();
        check(ds, "replaced record");
        assert_eq!(ds.drain_lazy().unwrap(), 1);
        check(ds, "drain_lazy");
    }

    /// A world run without a checkpoint, crashed and reopened from its
    /// journal alone, populates the same snapshot and seal as the live
    /// system it was journaled from.
    #[test]
    fn the_journal_alone_rebuilds_the_live_checkpoint() {
        reopens_to_itself(&full_world(unchecked(51)).0, "full_world");
        let (lazy, ..) = lazy_world(unchecked(52));
        reopens_to_itself(&lazy, "lazy_world, queued");
        assert_eq!(lazy.drain_lazy().unwrap(), 1);
        reopens_to_itself(&lazy, "lazy_world, drained");
        every_mutator_world(&unchecked(54), reopens_to_itself);
    }

    /// A fresh store that checkpoints after every journaled op, so each
    /// step of a world ends in an automatic checkpoint.
    fn checkpointing_every_op(seed: u64) -> DurableSystem<SimDisk> {
        let ds = open_fresh(seed);
        ds.set_checkpoint_interval(1);
        ds
    }

    /// What `ds`'s newest checkpoint wrote, read off its objects.
    fn newest_checkpoint(ds: &DurableSystem<SimDisk>) -> CheckpointKind {
        let names = ds.storage().list();
        let generation = ds.generation();
        if names.contains(&format!("delta-{generation}")) {
            CheckpointKind::Delta
        } else {
            assert!(names.contains(&format!("snapshot-{generation}")));
            CheckpointKind::Full
        }
    }

    /// Worlds checkpointed after every op — so their generations are
    /// deltas on a base as the store's rule picks — reopen after every
    /// step to the live state, byte for byte. A delta cut right after an
    /// open carries the replayed journal tail.
    #[test]
    fn delta_checkpointed_stores_reopen_to_the_live_state() {
        let mut kinds = BTreeSet::new();
        let ds = checkpointing_every_op(57);
        every_mutator_world(&ds, |ds, step| {
            reopens_alike(ds, step);
            kinds.insert(newest_checkpoint(ds));
        });
        for seed in [58, 59] {
            let (lazy, ..) = lazy_world(checkpointing_every_op(seed));
            reopens_alike(&lazy, "lazy_world, queued");
            assert_eq!(lazy.drain_lazy().unwrap(), 1);
            reopens_alike(&lazy, "lazy_world, drained");
            kinds.insert(newest_checkpoint(&lazy));
        }

        // A fresh base, then one journaled op no checkpoint covers: the
        // reopened store replays it, journals one op more, and the delta
        // that op cuts must carry both.
        ds.checkpoint().unwrap();
        ds.set_checkpoint_interval(usize::MAX);
        let dave = ds.add_user("dave").unwrap();
        let reopened = reopens_alike(&ds, "a journal tail past a full checkpoint");
        reopened.set_checkpoint_interval(1);
        let generation = reopened.generation();
        reopened.grant(&dave, &["Doctor@MedOrg"]).unwrap();
        assert_eq!(reopened.generation(), generation + 1);
        assert_eq!(newest_checkpoint(&reopened), CheckpointKind::Delta);
        reopens_alike(&reopened, "a delta cut right after an open");

        assert_eq!(
            kinds,
            BTreeSet::from([CheckpointKind::Delta, CheckpointKind::Full]),
            "the worlds wrote both kinds"
        );
    }

    /// Rot in a live delta, and separately in the base snapshot, is
    /// quarantined and superseded by a full checkpoint, and the store
    /// reopens to the same chain.
    #[test]
    fn scrub_repairs_a_rotted_delta_or_base_with_a_full_checkpoint() {
        for rotted in ["delta", "snapshot"] {
            let (mut ds, _, bob, owner, _) = full_world(open_fresh(93));
            ds.checkpoint().unwrap();
            let base = ds.generation();
            ds.set_checkpoint_interval(1);
            ds.set_offline(&bob).unwrap();
            assert_eq!(newest_checkpoint(&ds), CheckpointKind::Delta);
            let name = match rotted {
                "delta" => format!("delta-{}", base + 1),
                _ => format!("snapshot-{base}"),
            };
            let mut bytes = ds.storage().durable_bytes(&name).unwrap().to_vec();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            ds.storage_mut().set_durable(&name, bytes);
            let expected_audit = ds.audit().clone();

            let report = ds.scrub().unwrap();
            assert_eq!(report.corrupt, vec![name.clone()], "{rotted}");
            assert_eq!(report.deltas_checked, 1);
            assert_eq!(
                ds.generation(),
                base + 2,
                "{rotted}: repaired by a checkpoint"
            );
            assert_eq!(newest_checkpoint(&ds), CheckpointKind::Full);
            let names = ds.storage().list();
            assert!(names.contains(&format!("quarantine.{name}")));
            assert!(!names.iter().any(|n| n.starts_with("delta-")));
            assert!(ds.scrub().unwrap().clean());
            assert!(!ds.poisoned());

            let mut disk = ds.into_storage();
            disk.crash();
            let (ds2, report) = DurableSystem::open(disk, 94).unwrap();
            assert_eq!(report.wal.deltas, 0);
            assert_eq!(&*ds2.audit(), &expected_audit);
            assert_eq!(
                ds2.read(&bob, &owner, "rec-shared", "note").unwrap(),
                b"ward note"
            );
        }
    }

    #[test]
    fn deferred_revocation_survives_a_crash_with_the_queue_intact() {
        let (ds, alice, bob, owner) = lazy_world(open_fresh(21));
        assert!(!ds.needs_recovery(), "deferred ≠ in-flight");
        let mut disk = ds.into_storage();
        disk.crash();

        let (ds2, report) = DurableSystem::open(disk, 22).unwrap();
        assert_eq!(report.revocations_recovered, 0);
        assert_eq!(
            ds2.system().lazy_queue_depth(),
            1,
            "acked lazy revoke is durable"
        );
        // Security survived the crash: the revoked user is denied even
        // though the ciphertexts are still at the old version...
        assert!(ds2.read(&alice, &owner, "rec-a", "x").is_err());
        // ...and a live holder reads through the staleness.
        assert_eq!(ds2.read(&bob, &owner, "rec-b", "y").unwrap(), b"bbb");
        assert_eq!(ds2.drain_lazy().unwrap(), 1);
        assert_eq!(ds2.system().lazy_queue_depth(), 0);
        assert!(ds2.audit().verify());
    }

    #[test]
    fn journaled_lazy_drain_replays_identically() {
        let (ds, alice, bob, owner) = lazy_world(open_fresh(23));
        assert_eq!(ds.drain_lazy().unwrap(), 1);
        let expected_audit = ds.audit().clone();
        let mut disk = ds.into_storage();
        disk.crash();

        let (ds2, _) = DurableSystem::open(disk, 24).unwrap();
        assert_eq!(
            &*ds2.audit(),
            &expected_audit,
            "defer + drain replay to the same audit chain"
        );
        assert_eq!(ds2.system().lazy_queue_depth(), 0);
        assert!(ds2.read(&alice, &owner, "rec-a", "x").is_err());
        assert_eq!(ds2.read(&bob, &owner, "rec-a", "x").unwrap(), b"aaa");
    }

    #[test]
    fn checkpoint_persists_the_queue_and_update_key_archive() {
        let (ds, _alice, bob, owner) = lazy_world(open_fresh(25));
        ds.checkpoint().unwrap();
        let mut disk = ds.into_storage();
        disk.crash();

        let (ds2, report) = DurableSystem::open(disk, 26).unwrap();
        assert!(report.wal.had_snapshot);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(ds2.system().lazy_queue_depth(), 1);
        // Draining after a snapshot-only reopen needs the archived
        // update keys — they rode in the checkpoint.
        assert_eq!(ds2.drain_lazy().unwrap(), 1);
        assert_eq!(ds2.read(&bob, &owner, "rec-b", "y").unwrap(), b"bbb");
        assert!(ds2.audit().verify());
    }

    #[test]
    fn background_drain_workers_converge_a_storm() {
        let ds = Arc::new(open_fresh(27));
        ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        ds.add_authority("Trial", &["Researcher"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let alice = ds.add_user("alice").unwrap();
        let bob = ds.add_user("bob").unwrap();
        ds.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
            .unwrap();
        ds.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        ds.publish(&owner, "rec", &[("x", b"sec".as_slice(), DOC_POLICY)])
            .unwrap();
        ds.system().set_lazy_revocation(true);
        ds.revoke(&alice, "Doctor@MedOrg").unwrap();
        ds.revoke(&bob, "Doctor@MedOrg").unwrap();
        ds.revoke(&alice, "Researcher@Trial").unwrap();
        assert_eq!(ds.system().lazy_queue_depth(), 3);

        let handle = ds.spawn_lazy_drain(2, Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(30);
        while ds.system().lazy_queue_depth() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.stop();
        assert_eq!(
            ds.system().lazy_queue_depth(),
            0,
            "workers drained the storm"
        );
        assert!(!ds.needs_recovery());
        assert!(ds.audit().verify());
        let converged = ds
            .audit()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, AuditEvent::RevocationConverged { .. }))
            .count();
        assert_eq!(converged, 3);
    }

    /// One lazy lifecycle with a crash scheduled at the `hit`-th firing
    /// of `point`, then a power cut and a reopen. Whatever the crash
    /// interrupted, the reopened system must roll forward to the same
    /// end state: queue drained, revoked uid denied, live holder
    /// served, audit chain closed.
    fn lazy_crash_scenario(point: &'static str, hit: u64) {
        let plan = FaultPlan::new(0x1a2e).at(point, hit, FaultKind::Crash);
        let (ds, _) =
            DurableSystem::open_with_faults(SimDisk::unfaulted(), 41, FaultInjector::new(plan))
                .unwrap();
        ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let alice = ds.add_user("alice").unwrap();
        let bob = ds.add_user("bob").unwrap();
        ds.grant(&alice, &["Doctor@MedOrg"]).unwrap();
        ds.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        ds.publish(&owner, "rec-a", &[("x", b"aaa".as_slice(), DOC_POLICY)])
            .unwrap();
        ds.publish(&owner, "rec-b", &[("y", b"bbb".as_slice(), DOC_POLICY)])
            .unwrap();
        ds.system().set_lazy_revocation(true);

        // Exactly one of these trips the scheduled crash; each outcome
        // is tolerated here — the contract is what survives the cut.
        let _ = ds.revoke(&alice, "Doctor@MedOrg"); // cloud.lazy_enqueue
        let _ = ds.read(&bob, &owner, "rec-a", "x"); // cloud.read_upgrade
        let _ = ds.drain_lazy(); // cloud.lazy_drain

        // Security never waited for the deferred work: the version bump
        // and key delivery are immediate, so alice is denied *now*,
        // whatever state the crash left the queue in.
        assert!(
            ds.read(&alice, &owner, "rec-a", "x").is_err(),
            "{point}#{hit}: revoked uid read before the power cut"
        );

        let mut disk = ds.into_storage();
        disk.crash();
        let (ds2, _) = DurableSystem::open(disk, 42).unwrap();
        // Roll forward: a crash before the defer was journaled leaves
        // the revocation in-flight (recovery drives it eagerly); a
        // crash after leaves it queued (drain converges it).
        while ds2.needs_recovery() {
            ds2.recover().unwrap();
        }
        ds2.drain_lazy().unwrap();
        assert_eq!(
            ds2.system().lazy_queue_depth(),
            0,
            "{point}#{hit}: queue did not converge after reopen"
        );
        assert!(
            ds2.read(&alice, &owner, "rec-a", "x").is_err(),
            "{point}#{hit}: revoked uid reads post-bump"
        );
        assert_eq!(
            ds2.read(&bob, &owner, "rec-b", "y").unwrap(),
            b"bbb",
            "{point}#{hit}: live holder lost access"
        );
        assert!(ds2.audit().verify(), "{point}#{hit}: audit chain broken");
        assert!(
            ds2.audit().incomplete_revocations().is_empty(),
            "{point}#{hit}: audit shows incomplete revocations"
        );
    }

    #[test]
    fn crash_sweep_over_lazy_fault_points() {
        for (point, hits) in [
            (fault_points::LAZY_ENQUEUE, 1),
            (fault_points::LAZY_DRAIN, 2), // two stale components to kill between
            (fault_points::READ_UPGRADE, 1),
        ] {
            for hit in 1..=hits {
                lazy_crash_scenario(point, hit);
            }
        }
    }

    #[test]
    fn journal_bitflip_fuzz_never_panics_and_fails_typed() {
        let (ds, _, _, _, _) = full_world(open_fresh(11));
        let mut disk = ds.into_storage();
        disk.crash();
        let log = disk.durable_bytes("wal.0.0").unwrap().to_vec();
        let manifest = disk.durable_bytes("manifest.1").unwrap().to_vec();
        let step = (log.len() / 96).max(1);
        let mut opened = 0usize;
        for pos in (0..log.len()).step_by(step) {
            let mut damaged = log.clone();
            damaged[pos] ^= 1 << (pos % 8);
            let mut d = SimDisk::unfaulted();
            d.set_durable("manifest.1", manifest.clone());
            d.set_durable("wal.0.0", damaged);
            match DurableSystem::open(d, 3) {
                Ok((sys, report)) => {
                    // The flip was absorbed by dropping a record suffix:
                    // whatever prefix survived must be a coherent history.
                    assert!(sys.audit().verify());
                    assert!(report.records_replayed <= 14);
                    opened += 1;
                }
                Err(failure) => {
                    assert!(
                        matches!(failure.error, OpenError::Store(StoreError::Corrupt(_))),
                        "pos {pos}: unexpected error {}",
                        failure.error
                    );
                }
            }
        }
        assert!(opened > 0, "some flips must land in droppable payloads");
    }

    #[test]
    fn open_failure_hands_back_storage_for_repair() {
        let ds = open_fresh(5);
        ds.add_authority("Solo", &["A"]).unwrap();
        ds.checkpoint().unwrap();
        let mut disk = ds.into_storage();
        disk.crash();
        let snap = disk.durable_bytes("snapshot-1").unwrap().to_vec();

        let mut damaged = snap.clone();
        *damaged.last_mut().unwrap() ^= 0xff;
        disk.set_durable("snapshot-1", damaged);
        let failure = DurableSystem::open(disk, 5).unwrap_err();
        assert!(matches!(
            failure.error,
            OpenError::Store(StoreError::Corrupt(_))
        ));
        // The surviving bytes come back: repair and reopen.
        let mut disk = failure.storage;
        disk.set_durable("snapshot-1", snap);
        let (ds, report) = DurableSystem::open(disk, 5).unwrap();
        assert!(report.wal.had_snapshot);
        assert!(ds
            .system()
            .authority_version(&AuthorityId::new("Solo"))
            .is_some());

        // A store in another format (here a pre-keyspace tagged record
        // after a frame batch) is rejected typed at the record's index.
        ds.add_user("solo").unwrap();
        let (mut wal, _) = Wal::open(ds.into_storage()).unwrap();
        wal.append(&[4, 0, 4, b's', b'o', b'l', b'o']).unwrap();
        wal.sync().unwrap();
        let disk = wal.into_store();
        let before = durable_objects(&disk);
        let failure = DurableSystem::open(disk, 5).unwrap_err();
        assert!(
            matches!(
                failure.error,
                OpenError::Frame {
                    index: 1,
                    error: SchemaError::Malformed("not a frame record"),
                }
            ),
            "got {}",
            failure.error
        );
        assert_eq!(durable_objects(&failure.storage), before);

        // Likewise a snapshot that is not a per-table snapshot.
        let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
        wal.checkpoint(b"MSYS-STYLE-SNAPSHOT", None).unwrap();
        let disk = wal.into_store();
        let before = durable_objects(&disk);
        let failure = DurableSystem::open(disk, 5).unwrap_err();
        assert!(
            matches!(failure.error, OpenError::Keyspace(SchemaError::BadMagic)),
            "got {}",
            failure.error
        );
        assert_eq!(durable_objects(&failure.storage), before);

        // And a store written before the LSSS marker: a snapshot with
        // owners and records but no `lsss` row, beside its seal. Its
        // ciphertexts were shared under the older construction, so no
        // read of them could succeed.
        let (ds, ..) = full_world(open_fresh(5));
        let mut image = tables::populate(ds.system(), 0);
        image
            .keyspace
            .delete::<tables::Meta>(&(tables::META_LSSS.to_owned(),));
        assert!(image.keyspace.rows(tables::Records::ID) > 0);
        let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
        wal.checkpoint(&image.keyspace.encode_snapshot(), image.seal.as_deref())
            .unwrap();
        let disk = wal.into_store();
        let before = durable_objects(&disk);
        let failure = DurableSystem::open(disk, 5).unwrap_err();
        assert!(
            matches!(failure.error, OpenError::Lsss { found: None }),
            "got {}",
            failure.error
        );
        assert!(failure.error.to_string().contains("LSSS construction"));
        assert_eq!(durable_objects(&failure.storage), before);
    }

    /// A store written while `components` rows (table 10) were
    /// persisted opens with them ignored, and its next full checkpoint
    /// drops their section.
    #[test]
    fn persisted_component_rows_are_ignored_and_dropped_at_the_next_checkpoint() {
        const COMPONENTS: u16 = 10;
        let (ds, _, bob, owner, _) = full_world(open_fresh(71));
        let mut image = tables::populate(ds.system(), 0);
        let sections = |ks: &Keyspace| ks.encode_snapshot()[8..12].to_vec();
        let known = sections(&image.keyspace);
        let row = |record: &str, label: &str| {
            let mut key = Vec::new();
            for part in ["MedOrg", "hospital", record, label] {
                mabe_store::key_str(&mut key, part);
            }
            Frame {
                table: COMPONENTS,
                op: FrameOp::Put,
                key,
                value: vec![0xff; 16],
            }
        };
        image.keyspace.apply(&[row("rec-shared", "note")]);
        assert_ne!(sections(&image.keyspace), known);
        let (mut wal, _) = Wal::open(SimDisk::unfaulted()).unwrap();
        wal.checkpoint(&image.keyspace.encode_snapshot(), image.seal.as_deref())
            .unwrap();
        wal.append(&mabe_store::encode_frames(&[row("rec-doc", "diagnosis")]))
            .unwrap();
        wal.sync().unwrap();

        let (ds, report) = DurableSystem::open(wal.into_store(), 71).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(
            ds.read(&bob, &owner, "rec-shared", "note").unwrap(),
            b"ward note"
        );
        ds.checkpoint().unwrap();
        let mut disk = ds.into_storage();
        disk.crash();
        let (_, open) = TypedStore::open(disk).unwrap();
        assert_eq!(open.keyspace.rows(COMPONENTS), 0);
        assert_eq!(sections(&open.keyspace), known, "the section is gone");
    }

    /// A store written before seals — an `MMAN0001` manifest naming a
    /// generation whose snapshot still holds the `audit` rows — fails
    /// to open with a typed error naming its format, and every byte
    /// comes back. One format, no shim.
    #[test]
    fn a_store_in_the_pre_seal_format_fails_typed_and_hands_back_storage() {
        let (ds, ..) = full_world(open_fresh(61));
        let mut ks = Keyspace::new();
        tables::register_all(&mut ks);
        for entry in ds.audit().entries() {
            ks.put::<tables::Audit>(&(entry.index,), &crate::audit::entry_bytes(entry));
        }
        let snapshot = ks.encode_snapshot();
        assert!(ks.rows(tables::Audit::ID) > 0);
        let mut framed_snapshot = b"MSNP0001".to_vec();
        framed_snapshot.extend_from_slice(&mabe_store::crc32(&snapshot).to_be_bytes());
        framed_snapshot.extend_from_slice(&snapshot);
        // MMAN0001: seq 2, generation 1, one empty active segment.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u64.to_be_bytes());
        payload.extend_from_slice(&1u64.to_be_bytes());
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&[0; 16]);
        let mut manifest = b"MMAN0001".to_vec();
        manifest.extend_from_slice(&mabe_store::crc32(&payload).to_be_bytes());
        manifest.extend_from_slice(&payload);

        let mut disk = SimDisk::unfaulted();
        disk.set_durable("manifest.0", manifest);
        disk.set_durable("snapshot-1", framed_snapshot);
        disk.set_durable("wal.1.0", b"MSEG0001".to_vec());
        let before = durable_objects(&disk);
        let failure = DurableSystem::open(disk, 61).unwrap_err();
        assert!(
            matches!(
                failure.error,
                OpenError::Store(StoreError::Format(f)) if f.starts_with("MMAN0001")
            ),
            "got {}",
            failure.error
        );
        assert!(failure.error.to_string().contains("MMAN0001"));
        assert_eq!(durable_objects(&failure.storage), before);
    }

    /// Every durable object on `disk`, by name.
    fn durable_objects(disk: &SimDisk) -> Vec<(String, Vec<u8>)> {
        disk.list()
            .into_iter()
            .map(|name| {
                let bytes = disk.durable_bytes(&name).unwrap_or_default().to_vec();
                (name, bytes)
            })
            .collect()
    }

    #[test]
    fn journal_write_failure_poisons_the_handle() {
        let mut ds = open_fresh(21);
        ds.add_authority("MedOrg", &["Doctor"]).unwrap();
        let alice = ds.add_user("alice").unwrap();
        let audited = ds.audit().entries().len();

        ds.storage_mut()
            .injector_mut()
            .schedule(store_points::APPEND, 1, FaultKind::Crash);
        let err = ds.grant(&alice, &["Doctor@MedOrg"]).unwrap_err();
        assert_eq!(
            err,
            CloudError::Crashed {
                point: store_points::APPEND
            }
        );
        // Memory may be ahead of the journal now: the handle refuses
        // further mutations instead of silently diverging.
        assert!(ds.poisoned());
        assert_eq!(
            ds.add_user("bob").unwrap_err(),
            CloudError::Crashed {
                point: POISONED_POINT
            }
        );

        // Reopen from the surviving bytes: the unacknowledged grant
        // never happened.
        let mut disk = ds.into_storage();
        disk.crash();
        disk.injector_mut().disarm();
        let (ds2, _) = DurableSystem::open(disk, 22).unwrap();
        assert_eq!(ds2.audit().entries().len(), audited);
        assert!(ds2
            .system()
            .authority_version(&AuthorityId::new("MedOrg"))
            .is_some());
    }

    #[test]
    fn recovery_telemetry_families_export() {
        let ds = open_fresh(31);
        ds.add_user("solo").unwrap();
        let mut disk = ds.into_storage();
        disk.crash();
        let _ = DurableSystem::open(disk, 32).unwrap();

        let json = mabe_telemetry::global().snapshot_json();
        let prom = mabe_telemetry::global().prometheus();
        for family in [
            "mabe_recovery_duration_ms",
            "mabe_wal_records_replayed_total",
            "mabe_snapshots_written_total",
            "mabe_deltas_written_total",
        ] {
            assert!(json.contains(family), "{family} missing from JSON export");
            assert!(
                prom.contains(family),
                "{family} missing from Prometheus export"
            );
        }
    }

    #[test]
    fn concurrent_journaled_reads_survive_crash_and_replay() {
        let (ds, _alice, bob, owner, _aid) = full_world(open_fresh(55));
        let base_audit = ds.audit().entries().len();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ds = &ds;
                let bob = &bob;
                let owner = &owner;
                scope.spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(
                            ds.read(bob, owner, "rec-shared", "note").unwrap(),
                            b"ward note"
                        );
                    }
                });
            }
        });
        assert_eq!(ds.audit().entries().len(), base_audit + 32);
        assert!(ds.audit().verify());

        // Every acked read is journaled in apply order: the replayed
        // audit chain carries all 32 concurrent reads byte-identically.
        let expected_audit = ds.audit().clone();
        let mut disk = ds.into_storage();
        disk.crash();
        let (ds2, _) = DurableSystem::open(disk, 56).unwrap();
        assert_eq!(&*ds2.audit(), &expected_audit);
    }

    #[test]
    fn a_full_disk_degrades_to_read_only_and_compaction_lifts_it() {
        let (ds, _alice, bob, owner, _) = full_world(open_fresh(77));
        ds.set_checkpoint_interval(1_000_000);
        // Grow the journal well past what the snapshot will need, so
        // compaction genuinely reclaims space.
        for _ in 0..4000 {
            ds.set_offline(&bob).unwrap();
        }
        let mut ds = ds;
        let used = ds.storage().live_bytes();
        ds.storage_mut().set_capacity(Some(used + 30_000));
        ds.set_degrade_headroom(50_000);

        // Mutations fail fast and typed; the handle is NOT poisoned.
        let err = ds.set_offline(&bob).unwrap_err();
        assert!(matches!(err, CloudError::StoreFull { .. }), "got {err}");
        assert!(ds.degraded());
        assert!(!ds.poisoned());
        let generation = ds.generation();

        // Reads keep serving while degraded — and still never poison.
        assert_eq!(
            ds.read(&bob, &owner, "rec-shared", "note").unwrap(),
            b"ward note"
        );
        assert!(!ds.poisoned());

        let json = mabe_telemetry::global().snapshot_json();
        assert!(json.contains("mabe_store_degraded"));

        // Compaction is allowed while degraded (it is the cure): the
        // snapshot supersedes thousands of journal records, the sweep
        // reclaims them, and the degradation lifts in-process.
        ds.checkpoint().unwrap();
        assert_eq!(ds.generation(), generation + 1);
        assert!(!ds.degraded());
        ds.set_offline(&bob).unwrap();
        assert!(!ds.poisoned());
    }

    #[test]
    fn the_wal_byte_budget_triggers_automatic_compaction() {
        let ds = open_fresh(83);
        let alice = ds.add_user("alice").unwrap();
        // Op-count checkpointing effectively off: only the byte budget
        // can compact.
        ds.set_checkpoint_interval(1_000_000);
        ds.set_wal_budget(4096);
        for _ in 0..400 {
            ds.set_offline(&alice).unwrap();
        }
        assert!(ds.generation() >= 1, "byte budget forced checkpoints");
        assert!(
            ds.live_log_bytes() < 2 * 4096,
            "live bytes stay bounded: {}",
            ds.live_log_bytes()
        );
    }

    #[test]
    fn scrub_repairs_cold_segment_rot_with_quarantine_and_checkpoint() {
        let mut ds = open_fresh(91);
        let alice = ds.add_user("alice").unwrap();
        ds.set_checkpoint_interval(1_000_000);
        ds.set_segment_budget(256);
        for _ in 0..40 {
            ds.set_offline(&alice).unwrap();
        }
        assert!(ds.segments_live() > 1, "rotation produced cold segments");

        let mut bytes = {
            let store = ds.storage();
            store.durable_bytes("wal.0.0").unwrap().to_vec()
        };
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        ds.storage_mut().set_durable("wal.0.0", bytes);

        let report = ds.scrub().unwrap();
        assert_eq!(report.corrupt, vec!["wal.0.0".to_string()]);
        // The repair quarantined the rot and cut a fresh generation
        // from the authoritative in-memory state.
        assert!(ds.generation() >= 1);
        assert!(ds
            .storage()
            .list()
            .iter()
            .any(|n| n == "quarantine.wal.0.0"));
        assert!(ds.scrub().unwrap().clean());
        assert!(!ds.poisoned());

        // The healed store reopens — the rot is gone from the live set.
        let mut disk = ds.into_storage();
        disk.crash();
        let (ds2, report) = DurableSystem::open(disk, 92).unwrap();
        assert!(report.wal.had_snapshot);
        assert!(!ds2.needs_recovery());
    }

    #[test]
    fn background_maintenance_repairs_rot_without_foreground_help() {
        let mut ds = open_fresh(97);
        let alice = ds.add_user("alice").unwrap();
        ds.set_checkpoint_interval(1_000_000);
        ds.set_segment_budget(256);
        for _ in 0..40 {
            ds.set_offline(&alice).unwrap();
        }
        assert!(ds.segments_live() > 1);
        let mut bytes = {
            let store = ds.storage();
            store.durable_bytes("wal.0.0").unwrap().to_vec()
        };
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        ds.storage_mut().set_durable("wal.0.0", bytes);

        let ds = Arc::new(ds);
        let handle = ds.spawn_maintenance(Duration::from_millis(2));
        let mut repaired = false;
        for _ in 0..2000 {
            if ds.generation() >= 1 {
                repaired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        assert!(repaired, "the scrubber repaired the rot in background");
        assert!(ds
            .storage()
            .list()
            .iter()
            .any(|n| n == "quarantine.wal.0.0"));
        assert!(ds.scrub().unwrap().clean());
        assert!(!ds.poisoned());
    }

    /// The typed keyspace is a lossless projection: hydrating a
    /// populated keyspace and its seal and populating it again yields a
    /// byte-identical snapshot and seal and the same audit chain.
    /// `populate` is independent of `hydrate`, so it serves as the
    /// oracle.
    #[test]
    fn populate_hydrate_roundtrip_is_byte_identical() {
        fn roundtrip(sys: &CloudSystem, seed: u64) -> Keyspace {
            let image = tables::populate(sys, 0);
            let seals: Vec<Vec<u8>> = image.seal.iter().cloned().collect();
            let (hydrated, seal_ends) = tables::hydrate(&image.keyspace, &seals, seed).unwrap();
            assert_eq!(seal_ends, vec![image.sealed]);
            let again = tables::populate(&hydrated, 0);
            assert_eq!(
                image.keyspace.encode_snapshot(),
                again.keyspace.encode_snapshot(),
                "populate → hydrate loses or reorders state"
            );
            assert_eq!(image.seal, again.seal);
            assert_eq!(*hydrated.audit.lock(), *sys.audit.lock());
            assert!(hydrated.audit.lock().verify());
            image.keyspace
        }
        let (ds, ..) = full_world(open_fresh(42));
        roundtrip(ds.system(), 42);

        // Same through the lazy plane: queue and update-key archive.
        let (ds, ..) = lazy_world(open_fresh(43));
        let ks = roundtrip(ds.system(), 43);
        assert!(ks.rows(tables::LazyQueue::ID) > 0);

        // And with an offline holder's queued update keys and an
        // in-flight revocation.
        let ks = roundtrip(&tables::tests::unsettled_system(), 44);
        for table in [
            tables::Offline::ID,
            tables::PendingUpdates::ID,
            tables::PendingRevocations::ID,
        ] {
            assert!(ks.rows(table) > 0, "table {table} left empty");
        }
    }

    /// The serving path's derived caches: an owner keeps at most one
    /// fixed-base table per current attribute key and drops an
    /// authority's on its version bump; `PK_UID` lines are per user,
    /// built at the break-even-th cold read; a reopened system starts
    /// with neither and serves the same bytes.
    #[test]
    fn serving_caches_are_derived_per_key_and_per_user() {
        use mabe_core::{WireCodec, FIXED_BASE_BREAK_EVEN, LINES_BREAK_EVEN};

        const POLICY: &str = "Doctor@MedOrg AND Researcher@Trial";
        let tables = |ds: &DurableSystem<SimDisk>, owner: &OwnerId| {
            ds.system().directory.owners.read()[owner]
                .key_tables()
                .tables()
        };
        let lines = |ds: &DurableSystem<SimDisk>, uid: &Uid| {
            let users = ds.system().directory.users.read();
            users.users[uid].lines.get().map(|l| *l.base())
        };
        let pk = |ds: &DurableSystem<SimDisk>, uid: &Uid| {
            ds.system().directory.users.read().users[uid].pk.pk
        };

        let ds = open_fresh(0x5e4e);
        ds.add_authority("MedOrg", &["Doctor", "Nurse"]).unwrap();
        ds.add_authority("Trial", &["Researcher"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| ds.add_user(n).unwrap());
        for uid in [&alice, &bob, &carol] {
            ds.grant(uid, &["Doctor@MedOrg", "Researcher@Trial"])
                .unwrap();
        }
        let current_keys = 3;
        let mut records = Vec::new();
        let publish = |records: &mut Vec<String>| {
            let record = format!("r{}", records.len());
            ds.publish(&owner, &record, &[("x", record.as_bytes(), POLICY)])
                .unwrap();
            records.push(record);
        };
        for _ in 1..FIXED_BASE_BREAK_EVEN {
            publish(&mut records);
            assert_eq!(tables(&ds, &owner), 0, "no table below the break-even");
        }
        publish(&mut records);
        assert_eq!(tables(&ds, &owner), 2, "Doctor and Researcher");

        // Cold reads: lines at the break-even-th, for that user only.
        for (n, record) in records.iter().enumerate().take(LINES_BREAK_EVEN) {
            assert_eq!(lines(&ds, &alice), None, "no lines before cold read {n}");
            ds.read(&alice, &owner, record, "x").unwrap();
        }
        assert_eq!(lines(&ds, &alice), Some(pk(&ds, &alice)));
        assert_eq!(lines(&ds, &bob), None, "lines are per user");
        let misses = |uid: &Uid| {
            ds.system().directory.users.read().users[uid]
                .cold_reads
                .load(Ordering::Relaxed)
        };
        let before = misses(&alice);
        ds.read(&alice, &owner, &records[0], "x").unwrap();
        assert_eq!(misses(&alice), before, "a content-cache hit is not cold");

        // A version bump at MedOrg drops its tables, not Trial's.
        ds.revoke(&carol, "Doctor@MedOrg").unwrap();
        assert_eq!(tables(&ds, &owner), 1, "Researcher's table survives");
        for _ in 0..FIXED_BASE_BREAK_EVEN {
            publish(&mut records);
            assert!(tables(&ds, &owner) <= current_keys);
        }
        assert_eq!(tables(&ds, &owner), 2, "Doctor's new key has a table");
        for record in &records {
            ds.read(&bob, &owner, record, "x").unwrap();
        }
        assert_eq!(lines(&ds, &bob), Some(pk(&ds, &bob)));
        assert_ne!(lines(&ds, &alice), lines(&ds, &bob));

        let served = |ds: &DurableSystem<SimDisk>| {
            let mut out = Vec::new();
            for record in &records {
                let envelope = ds.system().server().fetch(&owner, record).unwrap();
                out.push(envelope.components[0].key_ct.to_wire_bytes());
                for uid in [&alice, &bob] {
                    out.push(ds.read(uid, &owner, record, "x").unwrap());
                }
            }
            out
        };
        let expected = served(&ds);
        let mut disk = ds.into_storage();
        disk.crash();
        let (reopened, _) = DurableSystem::open(disk, 0x5e4e).unwrap();
        assert_eq!(tables(&reopened, &owner), 0, "tables are not journaled");
        for uid in [&alice, &bob, &carol] {
            assert_eq!(lines(&reopened, uid), None, "lines are not journaled");
        }
        assert_eq!(served(&reopened), expected);
        // Its own cold reads build the lines again.
        assert_eq!(lines(&reopened, &alice), Some(pk(&reopened, &alice)));
    }

    /// Read-triggered upgrades cache one table set per exact step, built
    /// at the step's `LINES_BREAK_EVEN`-th upgrade; the authority's next
    /// bump drops it; a reopened system starts with none and serves the
    /// same bytes.
    #[test]
    fn step_tables_are_derived_and_die_with_the_bump() {
        use mabe_core::{WireCodec, LINES_BREAK_EVEN};

        let ds = open_fresh(0x57e9);
        ds.add_authority("MedOrg", &["Doctor"]).unwrap();
        let owner = ds.add_owner("hospital").unwrap();
        let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| ds.add_user(n).unwrap());
        for uid in [&alice, &bob, &carol] {
            ds.grant(uid, &["Doctor@MedOrg"]).unwrap();
        }
        let records: Vec<String> = (0..8).map(|i| format!("r{i}")).collect();
        for record in &records {
            ds.publish(&owner, record, &[("x", record.as_bytes(), "Doctor@MedOrg")])
                .unwrap();
        }
        let sets = |ds: &DurableSystem<SimDisk>| ds.system().cache.step_table_sets();
        ds.system().set_lazy_revocation(true);
        ds.revoke(&carol, "Doctor@MedOrg").unwrap();
        for record in &records[..LINES_BREAK_EVEN - 1] {
            ds.read(&bob, &owner, record, "x").unwrap();
            assert_eq!(sets(&ds), 0, "no set below the break-even");
        }
        ds.read(&bob, &owner, &records[LINES_BREAK_EVEN - 1], "x")
            .unwrap();
        assert_eq!(sets(&ds), 1, "built at the break-even-th upgrade");
        ds.read(&bob, &owner, &records[LINES_BREAK_EVEN], "x")
            .unwrap();
        assert_eq!(sets(&ds), 1, "the next upgrade reuses it");

        ds.revoke(&alice, "Doctor@MedOrg").unwrap();
        assert_eq!(sets(&ds), 0, "the bump drops it");
        for record in &records[..2 * LINES_BREAK_EVEN] {
            ds.read(&bob, &owner, record, "x").unwrap();
        }
        assert!(sets(&ds) >= 1, "the new steps build their own");

        let served = |ds: &DurableSystem<SimDisk>| {
            let mut out = Vec::new();
            for record in &records {
                out.push(ds.read(&bob, &owner, record, "x").unwrap());
                let envelope = ds.system().server().fetch(&owner, record).unwrap();
                out.push(envelope.components[0].key_ct.to_wire_bytes());
            }
            out
        };
        let expected = served(&ds);
        let mut disk = ds.into_storage();
        disk.crash();
        let (reopened, _) = DurableSystem::open(disk, 0x57e9).unwrap();
        assert_eq!(sets(&reopened), 0, "step tables are not journaled");
        reopened.system().set_lazy_revocation(true);
        assert_eq!(served(&reopened), expected);
    }

    /// A publish that repeats a component label fails typed before it
    /// seals anything: no record, no audit entry, no owner change and
    /// nothing journaled, and the next revocation at the authority
    /// completes.
    #[test]
    fn a_publish_with_a_repeated_label_fails_typed_and_changes_nothing() {
        let (ds, _, bob, owner, _) = full_world(open_fresh(73));
        let state = |ds: &DurableSystem<SimDisk>| {
            let image = tables::populate(ds.system(), 0);
            (image.keyspace.encode_snapshot(), image.seal)
        };
        let before = (durable_objects(&ds.storage()), state(&ds));
        let twice = [
            ("note", b"one".as_slice(), SHARED_POLICY),
            ("note", b"two".as_slice(), SHARED_POLICY),
        ];
        let err = ds.publish(&owner, "rec-twice", &twice).unwrap_err();
        assert!(
            matches!(
                err,
                CloudError::Core(Error::Malformed("envelope: repeated component label"))
            ),
            "got {err}"
        );
        assert!(ds.system().server().fetch(&owner, "rec-twice").is_none());
        assert_eq!((durable_objects(&ds.storage()), state(&ds)), before);
        ds.revoke(&bob, "Nurse@MedOrg").unwrap();
    }

    /// The log's counters never wait on the log, so they answer while a
    /// `storage()` guard lives on the same thread.
    #[test]
    fn log_counters_answer_while_a_storage_guard_lives() {
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = std::thread::spawn(move || {
            let ds = open_fresh(74);
            ds.add_authority("MedOrg", &["Doctor"]).unwrap();
            let guard = ds.storage();
            let objects = guard.list().len();
            let counters = (ds.generation(), ds.segments_live(), ds.live_log_bytes());
            drop(guard);
            tx.send((objects, counters)).unwrap();
        });
        let got = rx.recv_timeout(Duration::from_secs(30));
        assert!(
            !matches!(got, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a counter waited on the storage guard"
        );
        probe.join().expect("the probe panicked");
        let (objects, (generation, segments, bytes)) = got.expect("the probe sent its reading");
        assert!(objects > 0);
        assert_eq!((generation, segments), (0, 1));
        assert!(bytes > 0);
    }
}
