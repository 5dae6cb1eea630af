//! Group commit over the write-ahead log.
//!
//! [`GroupWal`] lets many threads journal concurrently against one
//! [`Wal`]: each writer **stages** its record (cheap, in memory) and
//! then **commits** a sequence number. The first committer to find the
//! log idle becomes the *leader*: it drains every staged record,
//! appends them in staging order, and issues **one** `sync` for the
//! whole batch. Followers whose records rode along just observe the
//! durable watermark advance and return — the classic group-commit
//! optimisation, so N concurrent journal writes cost one disk sync
//! instead of N.
//!
//! Semantics:
//!
//! * `commit(seq)` returns `Ok` only once every record staged at or
//!   before `seq` is durable (append **and** sync succeeded).
//! * Staging order is append order. Callers that need WAL order to
//!   match in-memory apply order (the durable system's replay
//!   invariant) must stage under the same lock that serializes their
//!   state mutation.
//! * A failed batch poisons the log permanently: the leader parks the
//!   error and every current and future `commit` returns a clone of
//!   it. Acked-implies-durable must never be weakened by retrying a
//!   half-appended batch.
//! * Single-threaded use (stage, then commit, with nothing else
//!   staged) degenerates to exactly one `append` + one `sync` per
//!   record — the same storage fault-point hit sequence as the bare
//!   [`Wal`], so seeded crash sweeps replay unchanged.
//!
//! Batched appends run on the leader's thread, so their
//! `JournalAppend` trace events attach to the leader's active span;
//! followers' causal trees record only their own staging context.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::compact::CheckpointFailure;
use crate::scrub::ScrubReport;
use crate::storage::{Storage, StoreError};
use crate::wal::{Recovered, Wal, WalOpenError};

/// Locks tolerating poison: a panicked writer thread must not wedge
/// the whole log (the parked `failure`, not lock poison, is the
/// correctness signal here).
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared commit state, guarded separately from the [`Wal`] so staging
/// never blocks behind an in-flight disk sync.
#[derive(Debug)]
struct GroupState {
    /// Records staged but not yet handed to a leader, in stage order.
    /// Their sequence numbers are `[durable_seq + pending-before-them]`
    /// — contiguous up to `next_seq`.
    pending: Vec<Vec<u8>>,
    /// Sequence number the next staged record will get.
    next_seq: u64,
    /// All records with `seq < durable_seq` are durable.
    durable_seq: u64,
    /// A leader is currently appending + syncing a batch.
    committing: bool,
    /// First batch failure; permanent (the log is poisoned).
    failure: Option<StoreError>,
}

/// A [`Wal`] with group commit: concurrent writers stage records and
/// the current leader batches all of them under a single sync.
#[derive(Debug)]
pub struct GroupWal<S: Storage> {
    wal: Mutex<Wal<S>>,
    state: Mutex<GroupState>,
    cv: Condvar,
}

/// Read access to the backing store through the log's lock (derefs to
/// `S`, held for the duration of the borrow).
pub struct StoreRef<'a, S: Storage>(MutexGuard<'a, Wal<S>>);

impl<S: Storage> std::ops::Deref for StoreRef<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        self.0.store()
    }
}

impl<S: Storage> GroupWal<S> {
    /// Opens (or initialises) the log in `store` — see [`Wal::open`]
    /// for recovery semantics and errors.
    pub fn open(store: S) -> Result<(Self, Recovered), WalOpenError<S>> {
        let (wal, recovered) = Wal::open(store)?;
        Ok((
            GroupWal {
                wal: Mutex::new(wal),
                state: Mutex::new(GroupState {
                    pending: Vec::new(),
                    next_seq: 0,
                    durable_seq: 0,
                    committing: false,
                    failure: None,
                }),
                cv: Condvar::new(),
            },
            recovered,
        ))
    }

    /// Stages one record and returns its sequence number. The record
    /// is not durable until [`GroupWal::commit`] of that sequence (or
    /// a later one) returns `Ok`.
    pub fn stage(&self, payload: &[u8]) -> u64 {
        let mut st = lock_ok(&self.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(payload.to_vec());
        seq
    }

    /// Blocks until every record staged at or before `seq` is durable,
    /// electing this thread leader if no batch is in flight.
    ///
    /// # Errors
    ///
    /// The first storage error any leader hits — permanently, for every
    /// subsequent commit (the log is poisoned).
    pub fn commit(&self, seq: u64) -> Result<(), StoreError> {
        let mut st = lock_ok(&self.state);
        loop {
            if let Some(err) = &st.failure {
                return Err(err.clone());
            }
            if st.durable_seq > seq {
                return Ok(());
            }
            if st.committing {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Become leader: drain everything staged so far and flush
            // it under one sync while the state lock is released.
            st.committing = true;
            let batch = std::mem::take(&mut st.pending);
            let batch_end = st.next_seq;
            drop(st);

            let result = {
                let mut wal = lock_ok(&self.wal);
                batch
                    .iter()
                    .try_for_each(|payload| wal.append(payload))
                    .and_then(|()| wal.sync())
            };

            st = lock_ok(&self.state);
            st.committing = false;
            match result {
                Ok(()) => {
                    st.durable_seq = st.durable_seq.max(batch_end);
                    let registry = mabe_telemetry::global();
                    registry.counter("mabe_wal_group_commits_total", &[]).inc();
                    registry
                        .counter("mabe_wal_group_batched_records_total", &[])
                        .add(batch.len() as u64);
                }
                Err(err) => st.failure = Some(err),
            }
            self.cv.notify_all();
            // Loop: re-check failure / watermark for *this* seq.
        }
    }

    /// Stages `payload` and blocks until it is durable — the
    /// single-call form used by serialized writers.
    pub fn append_sync(&self, payload: &[u8]) -> Result<(), StoreError> {
        let seq = self.stage(payload);
        self.commit(seq)
    }

    /// Flushes anything still staged, then checkpoints the underlying
    /// log, sealing `seal_payload` if given (see [`Wal::checkpoint`]).
    ///
    /// Failures are classified: a *dirty* one (the staged flush died,
    /// or the manifest swap was attempted and its outcome is ambiguous)
    /// poisons the log permanently; a *clean* one (e.g. ENOSPC on the
    /// snapshot write, strictly before the swap) leaves the old
    /// generation authoritative and the log fully usable — the caller
    /// may retry once the cause clears. The returned
    /// [`CheckpointFailure`] carries that classification so the durable
    /// layer can decide whether to poison itself too.
    pub fn checkpoint(
        &self,
        snapshot_payload: &[u8],
        seal_payload: Option<&[u8]>,
    ) -> Result<(), CheckpointFailure> {
        let mut st = lock_ok(&self.state);
        loop {
            if let Some(err) = &st.failure {
                return Err(CheckpointFailure {
                    error: err.clone(),
                    dirty: true,
                });
            }
            if st.committing {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            break;
        }
        st.committing = true;
        let batch = std::mem::take(&mut st.pending);
        let batch_end = st.next_seq;
        drop(st);

        // A failed flush of staged records is always dirty
        // (acked-implies-durable is at stake); the checkpoint itself
        // carries its own classification.
        let result: Result<(), CheckpointFailure> = {
            let mut wal = lock_ok(&self.wal);
            batch
                .iter()
                .try_for_each(|payload| wal.append(payload))
                .and_then(|()| if batch.is_empty() { Ok(()) } else { wal.sync() })
                .map_err(|error| CheckpointFailure { error, dirty: true })
                .and_then(|()| wal.checkpoint(snapshot_payload, seal_payload))
        };

        let mut st = lock_ok(&self.state);
        st.committing = false;
        let out = match result {
            Ok(()) => {
                st.durable_seq = st.durable_seq.max(batch_end);
                Ok(())
            }
            Err(failure) => {
                if failure.dirty {
                    st.failure = Some(failure.error.clone());
                } else {
                    // Clean failure: the staged batch (if any) is
                    // durable — the flush succeeded before the
                    // checkpoint backed out.
                    st.durable_seq = st.durable_seq.max(batch_end);
                }
                Err(failure)
            }
        };
        self.cv.notify_all();
        out
    }

    /// Runs one scrub pass over the cold segments (see [`Wal::scrub`]).
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        lock_ok(&self.wal).scrub()
    }

    /// Quarantines `names` for forensics (see [`Wal::quarantine`]).
    pub fn quarantine(&self, names: &[String]) -> Result<(), StoreError> {
        lock_ok(&self.wal).quarantine(names)
    }

    /// Rewrites committed seal `n` (see [`Wal::rewrite_seal`]).
    pub fn rewrite_seal(&self, n: u64, payload: &[u8]) -> Result<(), StoreError> {
        lock_ok(&self.wal).rewrite_seal(n, payload)
    }

    /// Live log bytes (cold + active segments, snapshot excluded).
    pub fn live_log_bytes(&self) -> usize {
        lock_ok(&self.wal).live_log_bytes()
    }

    /// Live segments the manifest currently lists.
    pub fn segments_live(&self) -> usize {
        lock_ok(&self.wal).segments_live()
    }

    /// Sets the per-segment rotation budget (see
    /// [`Wal::set_segment_budget`]).
    pub fn set_segment_budget(&self, budget: usize) {
        lock_ok(&self.wal).set_segment_budget(budget)
    }

    /// The committed generation.
    pub fn generation(&self) -> u64 {
        lock_ok(&self.wal).generation()
    }

    /// The backing store, through the log's lock.
    pub fn storage(&self) -> StoreRef<'_, S> {
        StoreRef(lock_ok(&self.wal))
    }

    /// The backing store, mutably (exclusive access — no locking).
    pub fn store_mut(&mut self) -> &mut S {
        self.wal
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .store_mut()
    }

    /// Consumes the log, handing back the backing store.
    pub fn into_store(self) -> S {
        self.wal
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDisk;
    use crate::storage::store_points;
    use mabe_faults::{FaultInjector, FaultKind, FaultPlan};

    fn fresh() -> GroupWal<SimDisk> {
        GroupWal::open(SimDisk::unfaulted()).expect("fresh open").0
    }

    #[test]
    fn single_threaded_commit_is_one_append_one_sync_per_record() {
        let gw = fresh();
        let base_append = gw.storage().injector().hits(store_points::APPEND);
        let base_sync = gw.storage().injector().hits(store_points::SYNC);
        gw.append_sync(b"one").unwrap();
        gw.append_sync(b"two").unwrap();
        // Same storage hit sequence as the bare Wal: seeded crash
        // sweeps that count fault-point hits replay unchanged.
        assert_eq!(
            gw.storage().injector().hits(store_points::APPEND) - base_append,
            2
        );
        assert_eq!(
            gw.storage().injector().hits(store_points::SYNC) - base_sync,
            2
        );
        let mut disk = gw.into_store();
        disk.crash();
        let (_, r) = Wal::open(disk).unwrap();
        assert!(r.snapshot.is_none());
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn staged_batch_commits_under_one_sync() {
        let gw = fresh();
        let base_sync = gw.storage().injector().hits(store_points::SYNC);
        let s1 = gw.stage(b"a");
        let s2 = gw.stage(b"b");
        let s3 = gw.stage(b"c");
        // Committing the *last* staged record drains the whole batch.
        gw.commit(s3).unwrap();
        assert_eq!(
            gw.storage().injector().hits(store_points::SYNC) - base_sync,
            1
        );
        // Earlier sequences are already durable — no further disk work.
        gw.commit(s1).unwrap();
        gw.commit(s2).unwrap();
        assert_eq!(
            gw.storage().injector().hits(store_points::SYNC) - base_sync,
            1
        );
        let records = Wal::open(gw.into_store()).unwrap().1.records;
        assert_eq!(records, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn concurrent_committers_batch_and_preserve_stage_order() {
        let gw = fresh();
        let base_sync = gw.storage().injector().hits(store_points::SYNC);
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let gw = &gw;
                s.spawn(move || {
                    for i in 0..16u8 {
                        let seq = gw.stage(&[t, i]);
                        gw.commit(seq).unwrap();
                    }
                });
            }
        });
        let syncs = gw.storage().injector().hits(store_points::SYNC) - base_sync;
        assert!(syncs <= 128, "never more syncs than records: {syncs}");
        let records = Wal::open(gw.into_store()).unwrap().1.records;
        assert_eq!(records.len(), 128, "every committed record is durable");
        // Per-thread stage order is preserved in the log.
        for t in 0..8u8 {
            let seq: Vec<u8> = records.iter().filter(|r| r[0] == t).map(|r| r[1]).collect();
            assert_eq!(seq, (0..16u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_failed_batch_poisons_every_commit() {
        let disk = SimDisk::new(FaultInjector::new(FaultPlan::new(5).at(
            store_points::SYNC,
            // Hits 1-3 are open's initialisation syncs… actually open
            // syncs twice (pointer + fresh log); the first commit sync
            // is hit 3.
            3,
            FaultKind::Crash,
        )));
        let (gw, ..) = GroupWal::open(disk).expect("open survives");
        let s1 = gw.stage(b"doomed");
        let err = gw.commit(s1).unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        // Permanently poisoned — even brand-new records fail, with the
        // *original* error.
        gw.storage().injector().disarm();
        let s2 = gw.stage(b"later");
        assert_eq!(gw.commit(s2).unwrap_err(), err);
        assert_eq!(gw.append_sync(b"more").unwrap_err(), err);
        let failure = gw.checkpoint(b"snap", None).unwrap_err();
        assert_eq!(failure.error, err);
        assert!(failure.dirty, "a poisoned log reports dirty");
    }

    #[test]
    fn a_clean_checkpoint_failure_leaves_the_log_usable() {
        let mut gw = fresh();
        gw.append_sync(b"op").unwrap();
        gw.store_mut()
            .injector_mut()
            .schedule(store_points::COMPACT, 1, FaultKind::NoSpace);
        // ENOSPC strictly before the manifest swap fails clean…
        let failure = gw.checkpoint(b"SNAP", None).unwrap_err();
        assert!(matches!(failure.error, StoreError::NoSpace { .. }));
        assert!(!failure.dirty);
        // …so the log is NOT poisoned: writes and a retried checkpoint
        // both go through.
        gw.append_sync(b"more").unwrap();
        gw.checkpoint(b"SNAP", None).unwrap();
        assert_eq!(gw.generation(), 1);
    }

    #[test]
    fn checkpoint_flushes_pending_and_rolls_generation() {
        let gw = fresh();
        gw.append_sync(b"durable").unwrap();
        let _staged = gw.stage(b"staged-only");
        gw.checkpoint(b"SNAP", None).unwrap();
        assert_eq!(gw.generation(), 1);
        let (_, r) = Wal::open(gw.into_store()).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"SNAP"[..]));
        assert!(r.records.is_empty(), "fresh generation starts empty");
    }
}
