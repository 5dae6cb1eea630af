//! The typed keyspace catalog: one [`mabe_store::Schema`] table per
//! kind of persistent cloud-plane state, one row writer per table, and
//! the bridge between live state and checkpoint keyspaces: the full
//! state a checkpoint writes, and hydration back from it.
//!
//! # Design
//!
//! The live [`crate::CloudSystem`] keeps its working structures exactly
//! as before (sharded authorities, directory maps, the server's record
//! map) — those are the lock-ordered, concurrency-tested structures.
//! Durability flows through tables instead of ad-hoc tag payloads, and
//! each persistent table has one writer that emits the rows a [`Pick`]
//! selects from the live state: every row, the rows whose key passes a
//! test, or explicit keys (a put for each row present, a delete for
//! each absent):
//!
//! * **Journaling** — after an operation mutates live state (and before
//!   it is acknowledged), the matching `frames_*` emitter calls the
//!   writers of every row the operation could have changed and returns
//!   their `(table, op, key, value)` frames as one batch. Replay is then
//!   pure row application: no re-running of key generation, no RNG
//!   coupling, no order-sensitive side effects.
//! * **Checkpointing** — [`close_audit`] seals the audit entries
//!   recorded since the previous checkpoint into one seal payload
//!   ([`seal_payload`]) beside the closing rows that count them (the
//!   audit counters, the sealed-entry count and the chain head). A
//!   delta checkpoint is those rows on top of what the journal holds,
//!   folded by the store; a full one puts them on top of
//!   [`live_state`], every writer over every key into a fresh
//!   [`Keyspace`] (schema-driven per-table snapshot sections). Either
//!   way the state's size tracks the live state, not the length of the
//!   history.
//! * **Hydration** — [`hydrate`] rebuilds a [`crate::CloudSystem`]
//!   straight from the rows: entity values through their wire codecs,
//!   composite values through the decoder beside each encoder below,
//!   each value checked whole (no trailing bytes) and each entity row
//!   checked against its key. The audit chain is the seals' entries,
//!   in seal order, then the journal tail's `audit` rows, decoded by
//!   one [`AuditLog::from_entries`] call.
//!
//! Every table here is persistent. Revocation's lookups (the components
//! under an authority, the users holding its attributes) walk the live
//! maps, not a second copy of them. Rows of a table this build does not
//! know, such as the `components` rows (id 10) older builds wrote, are
//! ignored on open and dropped by the next full checkpoint.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::slice;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mabe_core::{
    read_string, AttributeAuthority, CertificateAuthority, CiphertextId, DataEnvelope, DataOwner,
    EncryptionRecord, Error, OwnerId, Reader, RevocationEvent, Uid, UpdateKey, UserPublicKey,
    UserSecretKey, WireCodec,
};
use mabe_crypto::sha256::DIGEST_LEN;
use mabe_policy::lsss::CONSTRUCTION;
use mabe_policy::{Attribute, AuthorityId};
use mabe_store::{key_str, Frame, Keyspace, Schema};

use crate::audit::{self, AuditEntry, AuditLoadError, AuditLog};
use crate::control::ShardState;
use crate::directory::UserState;
use crate::lazy::PendingUpgrade;
use crate::persist::OpenError;
use crate::recovery::{PendingRevocation, RevocationStage};
use crate::server::{CloudServer, RecordKey};
use crate::system::CloudSystem;

mabe_store::define_table!(
    /// Singleton rows keyed by name: `"ca"` (certificate-authority
    /// wire bytes), `"next_revocation"` (`u64` BE journal counter),
    /// `"audit"` (`next_seq ‖ clock`, both `u64` BE), `"lsss"` (the
    /// UTF-8 name of the LSSS construction the store's ciphertexts were
    /// shared under, [`mabe_policy::lsss::CONSTRUCTION`]; written by
    /// every snapshot and by the batch that registers an owner), and,
    /// in snapshots only, `"audit_sealed"` (sealed-entry count `u64` BE
    /// ‖ the 32-byte digest of the last sealed entry, zeros when none).
    Meta: 1, "meta", key(name: str)
);
mabe_store::define_table!(
    /// One attribute authority per row; value is the authority's full
    /// wire encoding (version keys, secrets, owner registrations).
    Authorities: 2, "authorities", key(aid: str)
);
mabe_store::define_table!(
    /// One data owner per row; value is the owner's wire encoding: its
    /// master key, authority keys, key history and ciphertext id
    /// counter. Its per-ciphertext secrets are [`OwnerSecrets`] rows.
    Owners: 3, "owners", key(owner: str)
);
mabe_store::define_table!(
    /// One registered user per row; value is the public-key wire
    /// encoding.
    Users: 4, "users", key(uid: str)
);
mabe_store::define_table!(
    /// Per-user per-owner per-authority secret keys; value is the
    /// [`mabe_core::UserSecretKey`] wire encoding.
    UserKeys: 5, "user_keys", key(uid: str, owner: str, aid: str)
);
mabe_store::define_table!(
    /// Granted attributes, one row per `(user, attribute)`; the value
    /// is empty — presence is the grant.
    Grants: 6, "grants", key(uid: str, attr: str)
);
mabe_store::define_table!(
    /// Users currently offline (update keys queue instead of
    /// delivering); empty value.
    Offline: 7, "offline", key(uid: str)
);
mabe_store::define_table!(
    /// Queued update keys for an offline user: `u32` count then
    /// `(owner str, update-key bytes)` pairs in queue order.
    PendingUpdates: 8, "pending_updates", key(uid: str)
);
mabe_store::define_table!(
    /// Stored record envelopes; value is the
    /// [`mabe_core::DataEnvelope`] wire encoding.
    Records: 9, "records", key(owner: str, record: str)
);
mabe_store::define_table!(
    /// One audit entry per row (keyed by entry index); value is the
    /// entry's `entry_bytes` encoding. Journaled with each frame batch;
    /// a checkpoint moves the rows into a seal, so snapshots carry the
    /// table empty.
    Audit: 11, "audit", key(index: u64)
);
mabe_store::define_table!(
    /// In-flight two-phase revocations keyed by journal id; value is
    /// event wire ‖ stage ‖ fresh flag ‖ delivered holders ‖ updated
    /// owners.
    PendingRevocations: 12, "pending_revocations", key(id: u64)
);
mabe_store::define_table!(
    /// The lazy pending-upgrade queue keyed by revocation journal id;
    /// value is `aid str ‖ from u64 ‖ to u64`.
    LazyQueue: 13, "lazy_queue", key(id: u64)
);
mabe_store::define_table!(
    /// The server-held update-key archive; value is the
    /// [`mabe_core::UpdateKey`] wire encoding.
    LazyArchive: 14, "lazy_archive", key(aid: str, owner: str, from: u64)
);
mabe_store::define_table!(
    /// The encryption secret an owner keeps per ciphertext, keyed by
    /// `(owner, ciphertext id)`; value is the
    /// [`mabe_core::EncryptionRecord`] wire encoding (`s` and the row
    /// attributes). A publish journals the rows of its new ciphertexts
    /// only; no row is deleted yet.
    OwnerSecrets: 16, "owner_secrets", key(owner: str, ct_id: u64)
);

/// Meta-table row names.
pub(crate) const META_CA: &str = "ca";
pub(crate) const META_NEXT_REVOCATION: &str = "next_revocation";
pub(crate) const META_AUDIT: &str = "audit";
pub(crate) const META_AUDIT_SEALED: &str = "audit_sealed";
pub(crate) const META_LSSS: &str = "lsss";

/// Registers every table so empty tables still appear as checkpoint
/// sections.
pub(crate) fn register_all(ks: &mut Keyspace) {
    ks.register::<Meta>();
    ks.register::<Authorities>();
    ks.register::<Owners>();
    ks.register::<OwnerSecrets>();
    ks.register::<Users>();
    ks.register::<UserKeys>();
    ks.register::<Grants>();
    ks.register::<Offline>();
    ks.register::<PendingUpdates>();
    ks.register::<Records>();
    ks.register::<Audit>();
    ks.register::<PendingRevocations>();
    ks.register::<LazyQueue>();
    ks.register::<LazyArchive>();
}

// ---------------------------------------------------------------------
// Byte helpers (big-endian, matching the mabe-core wire primitives)
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// `u16`-length-prefixed UTF-8, matching [`mabe_core::read_string`].
fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string too long for wire");
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// `u32`-length-prefixed opaque bytes.
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn get_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], Error> {
    let n = r.u32()? as usize;
    r.bytes(n)
}

/// A `u32` element count, bounded by the input left to hold them.
fn get_count(r: &mut Reader<'_>) -> Result<usize, Error> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(Error::Malformed("count exceeds input"));
    }
    Ok(n)
}

// ---------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------

fn pending_updates_value(queue: &[(OwnerId, UpdateKey)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, queue.len() as u32);
    for (owner, uk) in queue {
        put_str(&mut out, owner.as_str());
        put_bytes(&mut out, &uk.to_wire_bytes());
    }
    out
}

fn decode_pending_updates_value(value: &[u8]) -> Result<Vec<(OwnerId, UpdateKey)>, OpenError> {
    decode_whole(value, |r| {
        let n = get_count(r)?;
        let mut queue = Vec::with_capacity(n);
        for _ in 0..n {
            let owner = OwnerId::new(read_string(r)?);
            queue.push((owner, UpdateKey::from_wire_bytes(get_bytes(r)?)?));
        }
        Ok(queue)
    })
}

fn pending_revocation_value(p: &PendingRevocation) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, &p.event.to_wire_bytes());
    out.push(match p.stage {
        RevocationStage::KeyDelivery => 0,
        RevocationStage::ReEncryption => 1,
    });
    out.push(u8::from(p.fresh_keys_delivered));
    put_u32(&mut out, p.delivered_holders.len() as u32);
    for uid in &p.delivered_holders {
        put_str(&mut out, uid.as_str());
    }
    put_u32(&mut out, p.updated_owners.len() as u32);
    for owner in &p.updated_owners {
        put_str(&mut out, owner.as_str());
    }
    out
}

fn decode_pending_revocation_value(id: u64, value: &[u8]) -> Result<PendingRevocation, OpenError> {
    decode_whole(value, |r| {
        let event = RevocationEvent::from_wire_bytes(get_bytes(r)?)?;
        let stage = match r.u8()? {
            0 => RevocationStage::KeyDelivery,
            1 => RevocationStage::ReEncryption,
            _ => return Err(Error::Malformed("bad revocation stage")),
        };
        let fresh_keys_delivered = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(Error::Malformed("bad boolean")),
        };
        let mut delivered_holders = BTreeSet::new();
        for _ in 0..get_count(r)? {
            delivered_holders.insert(Uid::new(read_string(r)?));
        }
        let mut updated_owners = BTreeSet::new();
        for _ in 0..get_count(r)? {
            updated_owners.insert(OwnerId::new(read_string(r)?));
        }
        Ok(PendingRevocation {
            id,
            event,
            stage,
            fresh_keys_delivered,
            delivered_holders,
            updated_owners,
        })
    })
}

fn lazy_queue_value(p: &PendingUpgrade) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, p.aid.as_str());
    put_u64(&mut out, p.from_version);
    put_u64(&mut out, p.to_version);
    out
}

/// The staleness clock is runtime-only: a hydrated entry restarts it.
fn decode_lazy_queue_value(value: &[u8]) -> Result<PendingUpgrade, OpenError> {
    decode_whole(value, |r| {
        Ok(PendingUpgrade {
            aid: AuthorityId::new(read_string(r)?),
            from_version: r.u64()?,
            to_version: r.u64()?,
            enqueued: Instant::now(),
        })
    })
}

fn meta_u64_value(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn decode_meta_u64_value(value: &[u8]) -> Result<u64, OpenError> {
    decode_whole(value, |r| r.u64()).map_err(|_| row_err("malformed revocation counter row"))
}

fn meta_audit_value(next_seq: u64, clock: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, next_seq);
    put_u64(&mut out, clock);
    out
}

fn decode_meta_audit_value(value: &[u8]) -> Result<(u64, u64), OpenError> {
    decode_whole(value, |r| Ok((r.u64()?, r.u64()?)))
        .map_err(|_| row_err("malformed audit counter row"))
}

fn meta_audit_sealed_value(sealed: u64, head: [u8; DIGEST_LEN]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + DIGEST_LEN);
    put_u64(&mut out, sealed);
    out.extend_from_slice(&head);
    out
}

fn decode_meta_audit_sealed_value(value: &[u8]) -> Result<(u64, [u8; DIGEST_LEN]), OpenError> {
    decode_whole(value, |r| {
        let sealed = r.u64()?;
        let head = r.bytes(DIGEST_LEN)?.try_into().expect("length read");
        Ok((sealed, head))
    })
    .map_err(|_| row_err("malformed sealed-audit row"))
}

/// One seal's payload: `u32 count ‖ count × (u32 len ‖ entry_bytes)`
/// over `entries`. Deterministic, so a seal rebuilt from the same
/// in-memory entries is byte-identical to the one first written.
pub(crate) fn seal_payload(entries: &[AuditEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 128);
    put_u32(&mut out, entries.len() as u32);
    for entry in entries {
        put_bytes(&mut out, &audit::entry_bytes(entry));
    }
    out
}

/// Splits a [`seal_payload`] back into its per-entry sections.
fn seal_sections(payload: &[u8]) -> Result<Vec<&[u8]>, OpenError> {
    let mut r = Reader::new(payload);
    let sections = get_count(&mut r).and_then(|n| {
        (0..n)
            .map(|_| get_bytes(&mut r))
            .collect::<Result<Vec<_>, _>>()
    });
    match sections {
        Ok(sections) if r.is_exhausted() => Ok(sections),
        _ => Err(audit_err("malformed seal")),
    }
}

/// Decodes one whole row value with `decode`: malformed content and
/// trailing bytes are both [`OpenError::Snapshot`].
fn decode_whole<T>(
    value: &[u8],
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, Error>,
) -> Result<T, OpenError> {
    let mut r = Reader::new(value);
    let out = decode(&mut r).map_err(OpenError::Snapshot)?;
    if !r.is_exhausted() {
        return Err(row_err("trailing bytes after row value"));
    }
    Ok(out)
}

fn meta_frame(name: &str, value: Vec<u8>) -> Frame {
    Frame::put::<Meta>(&(name.to_owned(),), &value)
}

// ---------------------------------------------------------------------
// Row writers: one per persistent table
// ---------------------------------------------------------------------

/// Which rows of one table a writer emits.
enum Pick<'a, K> {
    /// Every row the live state holds.
    All,
    /// The live rows whose key passes the test.
    Where(&'a dyn Fn(&K) -> bool),
    /// Exactly these keys, in this order: a put for each row the live
    /// state holds, a delete for each it does not.
    Keys(&'a [K]),
}

impl<K> Pick<'_, K> {
    /// Emits the picked rows of `T`: `live` walks the table's live rows
    /// in key order, `get` looks one up, and `key` and `value` encode a
    /// row.
    fn write<T, B, V>(
        self,
        out: &mut Vec<Frame>,
        live: impl Iterator<Item = (B, V)>,
        get: impl Fn(&K) -> Option<V>,
        key: impl Fn(&K) -> T::Key,
        value: impl Fn(V) -> Vec<u8>,
    ) where
        T: Schema<Value = Vec<u8>>,
        B: Borrow<K>,
    {
        let put = |k: &K, v| Frame::put::<T>(&key(k), &value(v));
        match self {
            Pick::All => out.extend(live.map(|(k, v)| put(k.borrow(), v))),
            Pick::Where(keep) => out.extend(
                live.filter(|(k, _)| keep(k.borrow()))
                    .map(|(k, v)| put(k.borrow(), v)),
            ),
            Pick::Keys(keys) => out.extend(keys.iter().map(|k| match get(k) {
                Some(v) => put(k, v),
                None => Frame::delete::<T>(&key(k)),
            })),
        }
    }
}

/// `Meta` rows by name: the certificate authority, the LSSS marker and
/// the revocation counter. The audit rows are written under the audit
/// lock beside the entries they count ([`emit_audit`], [`close_audit`]).
fn meta(sys: &CloudSystem, names: &[&str], out: &mut Vec<Frame>) {
    for &name in names {
        let value = match name {
            META_CA => sys.directory.ca.lock().to_wire_bytes(),
            // No ciphertext exists before its owner does, so the batch
            // that registers an owner and every snapshot carry it.
            META_LSSS => CONSTRUCTION.as_bytes().to_vec(),
            META_NEXT_REVOCATION => {
                meta_u64_value(sys.control.next_revocation.load(Ordering::SeqCst))
            }
            _ => unreachable!("meta row {name} is written with the audit entries"),
        };
        out.push(meta_frame(name, value));
    }
}

/// `Authorities` rows, each read under its shard lock.
fn authorities(sys: &CloudSystem, pick: Pick<'_, AuthorityId>, out: &mut Vec<Frame>) {
    let shards = sys.control.shards.read();
    pick.write::<Authorities, _, _>(
        out,
        shards.iter(),
        |aid| shards.get(aid),
        |aid| (aid.as_str().to_owned(),),
        |shard| shard.state.lock().authority.to_wire_bytes(),
    );
}

/// The `Authorities` row of an already-locked shard.
fn authority(st: &ShardState) -> Frame {
    Frame::put::<Authorities>(
        &(st.authority.aid().as_str().to_owned(),),
        &st.authority.to_wire_bytes(),
    )
}

fn owners(sys: &CloudSystem, pick: Pick<'_, OwnerId>, out: &mut Vec<Frame>) {
    let owners = sys.directory.owners.read();
    pick.write::<Owners, _, _>(
        out,
        owners.iter(),
        |id| owners.get(id),
        |id| (id.as_str().to_owned(),),
        |owner| owner.to_wire_bytes(),
    );
}

type SecretKey = (OwnerId, CiphertextId);

fn owner_secrets(sys: &CloudSystem, pick: Pick<'_, SecretKey>, out: &mut Vec<Frame>) {
    let owners = sys.directory.owners.read();
    let live = owners.iter().flat_map(|(id, owner)| {
        owner
            .records()
            .map(move |(ct_id, record)| ((id.clone(), ct_id), record))
    });
    pick.write::<OwnerSecrets, _, _>(
        out,
        live,
        |(id, ct_id)| owners.get(id)?.record(*ct_id),
        |(id, ct_id)| (id.as_str().to_owned(), ct_id.0),
        |record| record.to_wire_bytes(),
    );
}

fn users(sys: &CloudSystem, pick: Pick<'_, Uid>, out: &mut Vec<Frame>) {
    let users = sys.directory.users.read();
    pick.write::<Users, _, _>(
        out,
        users.users.iter(),
        |uid| users.users.get(uid),
        |uid| (uid.as_str().to_owned(),),
        |state| state.pk.to_wire_bytes(),
    );
}

type UserKey = (Uid, OwnerId, AuthorityId);

fn user_keys(sys: &CloudSystem, pick: Pick<'_, UserKey>, out: &mut Vec<Frame>) {
    let users = sys.directory.users.read();
    let live = users.users.iter().flat_map(|(uid, state)| {
        state
            .keys
            .iter()
            .map(move |((owner, aid), key)| ((uid.clone(), owner.clone(), aid.clone()), key))
    });
    pick.write::<UserKeys, _, _>(
        out,
        live,
        |(uid, owner, aid)| {
            users
                .users
                .get(uid)?
                .keys
                .get(&(owner.clone(), aid.clone()))
        },
        |(uid, owner, aid)| {
            (
                uid.as_str().to_owned(),
                owner.as_str().to_owned(),
                aid.as_str().to_owned(),
            )
        },
        |key| key.to_wire_bytes(),
    );
}

fn grants(sys: &CloudSystem, pick: Pick<'_, (Uid, Attribute)>, out: &mut Vec<Frame>) {
    let users = sys.directory.users.read();
    let live = users.grants.iter().flat_map(|(uid, attrs)| {
        attrs
            .iter()
            .map(move |attr| ((uid.clone(), attr.clone()), ()))
    });
    pick.write::<Grants, _, _>(
        out,
        live,
        |(uid, attr)| users.grants.get(uid)?.contains(attr).then_some(()),
        |(uid, attr)| (uid.as_str().to_owned(), attr.to_string()),
        |()| Vec::new(),
    );
}

fn offline(sys: &CloudSystem, pick: Pick<'_, Uid>, out: &mut Vec<Frame>) {
    let users = sys.directory.users.read();
    pick.write::<Offline, _, _>(
        out,
        users.offline.iter().map(|uid| (uid, ())),
        |uid| users.offline.contains(uid).then_some(()),
        |uid| (uid.as_str().to_owned(),),
        |()| Vec::new(),
    );
}

fn pending_updates(sys: &CloudSystem, pick: Pick<'_, Uid>, out: &mut Vec<Frame>) {
    let users = sys.directory.users.read();
    pick.write::<PendingUpdates, _, _>(
        out,
        users.pending_updates.iter(),
        |uid| users.pending_updates.get(uid),
        |uid| (uid.as_str().to_owned(),),
        |queue| pending_updates_value(queue),
    );
}

/// `Records` rows, read under the server's records lock (so
/// post-store healing is captured).
fn records(sys: &CloudSystem, pick: Pick<'_, RecordKey>, out: &mut Vec<Frame>) {
    sys.data.server.with_records(|records| {
        pick.write::<Records, _, _>(
            out,
            records.iter(),
            |key| records.get(key),
            |(owner, record)| (owner.as_str().to_owned(), record.clone()),
            |envelope| envelope.to_wire_bytes(),
        )
    });
}

/// `PendingRevocations` rows of one already-locked shard, which holds
/// every revocation at its authority.
fn pending_revocations(st: &ShardState, pick: Pick<'_, u64>, out: &mut Vec<Frame>) {
    pick.write::<PendingRevocations, _, _>(
        out,
        st.in_flight.iter(),
        |id| st.in_flight.get(id),
        |id| (*id,),
        pending_revocation_value,
    );
}

fn lazy_queue(sys: &CloudSystem, pick: Pick<'_, u64>, out: &mut Vec<Frame>) {
    let queue = sys.lazy.queue.lock();
    pick.write::<LazyQueue, _, _>(
        out,
        queue.iter(),
        |id| queue.get(id),
        |id| (*id,),
        lazy_queue_value,
    );
}

type ArchiveKey = (AuthorityId, OwnerId, u64);

fn lazy_archive(sys: &CloudSystem, pick: Pick<'_, ArchiveKey>, out: &mut Vec<Frame>) {
    let archive = sys.lazy.archive.read();
    pick.write::<LazyArchive, _, _>(
        out,
        archive.iter(),
        |key| archive.get(key),
        |(aid, owner, from)| (aid.as_str().to_owned(), owner.as_str().to_owned(), *from),
        |uk| uk.to_wire_bytes(),
    );
}

/// The audit counter row, from a held audit lock.
fn audit_counters(audit: &AuditLog) -> Frame {
    let (next_seq, clock) = audit.counters();
    meta_frame(META_AUDIT, meta_audit_value(next_seq, clock))
}

/// Every record holding a component sealed under `aid`: the rows a
/// re-encryption pass can rewrite.
fn records_at(sys: &CloudSystem, aid: &AuthorityId, out: &mut Vec<Frame>) {
    records(
        sys,
        Pick::Keys(&sys.data.server.records_for_authority(aid)),
        out,
    );
}

// ---------------------------------------------------------------------
// Per-operation emitters
// ---------------------------------------------------------------------
//
// Each emitter runs AFTER the live mutation and BEFORE the ack, and is
// the writer calls for the rows the operation could have changed, read
// from current state; the batch it returns makes replay pure row
// application. Emitters that run under an authority shard lock take the
// locked `ShardState` instead of re-locking it.

pub(crate) fn frames_authority_added(sys: &CloudSystem, aid: &AuthorityId) -> Vec<Frame> {
    let mut out = Vec::new();
    meta(sys, &[META_CA], &mut out);
    authorities(sys, Pick::Keys(slice::from_ref(aid)), &mut out);
    // Every existing owner learned the new authority's public keys.
    owners(sys, Pick::All, &mut out);
    out
}

pub(crate) fn frames_owner_added(sys: &CloudSystem, owner_id: &OwnerId) -> Vec<Frame> {
    let mut out = Vec::new();
    meta(sys, &[META_LSSS], &mut out);
    // Every authority registered the new owner; granted users got key
    // slots for it.
    authorities(sys, Pick::All, &mut out);
    owners(sys, Pick::Keys(slice::from_ref(owner_id)), &mut out);
    user_keys(
        sys,
        Pick::Where(&|(_, owner, _)| owner == owner_id),
        &mut out,
    );
    out
}

pub(crate) fn frames_user_added(sys: &CloudSystem, uid: &Uid) -> Vec<Frame> {
    let mut out = Vec::new();
    meta(sys, &[META_CA], &mut out);
    users(sys, Pick::Keys(slice::from_ref(uid)), &mut out);
    out
}

pub(crate) fn frames_granted(sys: &CloudSystem, uid: &Uid) -> Vec<Frame> {
    let mut out = Vec::new();
    // Issuing keys mutates authority state; refresh every shard (cheap
    // relative to keygen itself).
    authorities(sys, Pick::All, &mut out);
    grants(sys, Pick::Where(&|(holder, _)| holder == uid), &mut out);
    user_keys(sys, Pick::Where(&|(holder, _, _)| holder == uid), &mut out);
    out
}

pub(crate) fn frames_published(sys: &CloudSystem, owner_id: &OwnerId, record: &str) -> Vec<Frame> {
    // Sealing advanced the owner's id counter and kept one secret per
    // new ciphertext: the owner row and those secrets' rows refresh
    // with the record's.
    let key = (owner_id.clone(), record.to_owned());
    let secrets: Vec<SecretKey> = sys.data.server.with_records(|records| {
        records.get(&key).map_or_else(Vec::new, |envelope| {
            envelope
                .components
                .iter()
                .map(|component| (owner_id.clone(), component.key_ct.id))
                .collect()
        })
    });
    let mut out = Vec::new();
    owners(sys, Pick::Keys(slice::from_ref(owner_id)), &mut out);
    owner_secrets(sys, Pick::Keys(&secrets), &mut out);
    records(sys, Pick::Keys(slice::from_ref(&key)), &mut out);
    out
}

pub(crate) fn frames_offline(sys: &CloudSystem, uid: &Uid) -> Vec<Frame> {
    let mut out = Vec::new();
    offline(sys, Pick::Keys(slice::from_ref(uid)), &mut out);
    out
}

pub(crate) fn frames_synced(sys: &CloudSystem, uid: &Uid) -> Vec<Frame> {
    let mut out = Vec::new();
    let picked = slice::from_ref(uid);
    offline(sys, Pick::Keys(picked), &mut out);
    pending_updates(sys, Pick::Keys(picked), &mut out);
    user_keys(sys, Pick::Where(&|(holder, _, _)| holder == uid), &mut out);
    out
}

/// Frames for a just-begun revocation. Runs under the authority's shard
/// lock (hence the borrowed `ShardState`) so the batch is journaled
/// write-ahead of any delivery. The begin may have purged the revoked
/// user's queued update keys, so every pending-update row is re-emitted.
pub(crate) fn frames_revocation_begun(sys: &CloudSystem, st: &ShardState, id: u64) -> Vec<Frame> {
    let event = &st
        .in_flight
        .get(&id)
        .expect("begin just parked this id")
        .event;
    let revoked: Vec<(Uid, Attribute)> = event
        .revoked_attributes
        .iter()
        .map(|attr| (event.revoked_uid.clone(), attr.clone()))
        .collect();
    let archived: Vec<ArchiveKey> = event
        .update_keys
        .keys()
        .map(|owner| (event.aid.clone(), owner.clone(), event.from_version))
        .collect();
    let mut out = vec![authority(st)];
    grants(sys, Pick::Keys(&revoked), &mut out);
    pending_updates(sys, Pick::All, &mut out);
    lazy_archive(sys, Pick::Keys(&archived), &mut out);
    pending_revocations(st, Pick::Keys(&[id]), &mut out);
    meta(sys, &[META_NEXT_REVOCATION], &mut out);
    out
}

/// Frames after a revocation finished past begin, under its shard lock:
/// the in-flight entry is gone, keys were delivered or queued, and
/// owners advanced. A driven revocation (eager, or via recovery)
/// re-encrypted the affected ciphertexts; a deferred one parked that
/// work on the lazy queue.
pub(crate) fn frames_revocation_finished(
    sys: &CloudSystem,
    st: &ShardState,
    id: u64,
    deferred: bool,
) -> Vec<Frame> {
    let aid = st.authority.aid();
    let mut out = Vec::new();
    pending_revocations(st, Pick::Keys(&[id]), &mut out);
    user_keys(
        sys,
        Pick::Where(&|(_, _, key_aid)| key_aid == aid),
        &mut out,
    );
    pending_updates(sys, Pick::All, &mut out);
    owners(sys, Pick::All, &mut out);
    if deferred {
        lazy_queue(sys, Pick::Keys(&[id]), &mut out);
    } else {
        records_at(sys, aid, &mut out);
    }
    out
}

/// Frames after a lazy drain batch converged `ids` at `aid`.
pub(crate) fn frames_lazy_drained(sys: &CloudSystem, ids: &[u64], aid: &AuthorityId) -> Vec<Frame> {
    let mut out = Vec::new();
    lazy_queue(sys, Pick::Keys(ids), &mut out);
    owners(sys, Pick::All, &mut out);
    records_at(sys, aid, &mut out);
    out
}

/// Appends puts for every audit entry recorded since `watermark` (plus
/// the refreshed counter row), advancing the watermark. A no-op when
/// nothing new was recorded, so read-heavy batches stay empty.
pub(crate) fn emit_audit(sys: &CloudSystem, watermark: &mut usize, out: &mut Vec<Frame>) {
    let audit = sys.audit.lock();
    let entries = audit.entries();
    if entries.len() <= *watermark {
        return;
    }
    for entry in &entries[*watermark..] {
        out.push(Frame::put::<Audit>(
            &(entry.index,),
            &audit::entry_bytes(entry),
        ));
    }
    out.push(audit_counters(&audit));
    *watermark = entries.len();
}

// ---------------------------------------------------------------------
// Checkpoint images
// ---------------------------------------------------------------------

/// What one checkpoint seals, read under one hold of the audit lock so
/// the parts always agree.
pub(crate) struct AuditClose {
    /// The `audit` counter and `audit_sealed` rows every checkpoint
    /// writes on top of the state, delta or full.
    pub(crate) closing: Vec<Frame>,
    /// The entries recorded since the previous checkpoint as one
    /// [`seal_payload`]; `None` when there are none.
    pub(crate) seal: Option<Vec<u8>>,
    /// Audit entries sealed once this checkpoint commits (the
    /// checkpoint's sealed-entry count).
    pub(crate) sealed: usize,
}

/// Seals the audit entries from `sealed_from` (the entries the committed
/// seals already hold) on, beside the closing rows that count them: the
/// audit counters, and the sealed count with the chain head. Takes only
/// the audit lock.
pub(crate) fn close_audit(sys: &CloudSystem, sealed_from: usize) -> AuditClose {
    let audit = sys.audit.lock();
    let entries = audit.entries();
    let head = audit.head().unwrap_or([0; DIGEST_LEN]);
    let fresh = &entries[sealed_from..];
    AuditClose {
        closing: vec![
            audit_counters(&audit),
            meta_frame(
                META_AUDIT_SEALED,
                meta_audit_sealed_value(entries.len() as u64, head),
            ),
        ],
        seal: (!fresh.is_empty()).then(|| seal_payload(fresh)),
        sealed: entries.len(),
    }
}

/// The full live state, audit rows aside: every persistent table
/// registered (so empty tables checkpoint as empty sections) and every
/// writer over every key.
pub(crate) fn live_state(sys: &CloudSystem) -> Keyspace {
    let mut ks = Keyspace::new();
    register_all(&mut ks);
    let mut frames = Vec::new();
    meta(sys, &[META_CA, META_LSSS], &mut frames);
    authorities(sys, Pick::All, &mut frames);
    owners(sys, Pick::All, &mut frames);
    owner_secrets(sys, Pick::All, &mut frames);
    users(sys, Pick::All, &mut frames);
    user_keys(sys, Pick::All, &mut frames);
    grants(sys, Pick::All, &mut frames);
    offline(sys, Pick::All, &mut frames);
    pending_updates(sys, Pick::All, &mut frames);
    records(sys, Pick::All, &mut frames);
    for shard in sys.control.shards.read().values() {
        pending_revocations(&shard.state.lock(), Pick::All, &mut frames);
    }
    meta(sys, &[META_NEXT_REVOCATION], &mut frames);
    lazy_queue(sys, Pick::All, &mut frames);
    lazy_archive(sys, Pick::All, &mut frames);
    ks.apply(&frames);
    ks
}

/// What one full checkpoint writes: the live-state keyspace for the
/// snapshot, plus the audit entries it seals.
#[cfg(test)]
pub(crate) struct CheckpointImage {
    /// Every persistent table, audit rows excepted.
    pub(crate) keyspace: Keyspace,
    /// The entries recorded since the previous checkpoint as one
    /// [`seal_payload`]; `None` when there are none.
    pub(crate) seal: Option<Vec<u8>>,
    /// Audit entries sealed once this checkpoint commits (the
    /// snapshot's sealed-entry count).
    pub(crate) sealed: usize,
}

/// Builds a full checkpoint image, as a full checkpoint writes it:
/// [`close_audit`] from `sealed_from` on, and its closing rows on top
/// of the [`live_state`]. Tests compare systems by it.
#[cfg(test)]
pub(crate) fn populate(sys: &CloudSystem, sealed_from: usize) -> CheckpointImage {
    let AuditClose {
        closing,
        seal,
        sealed,
    } = close_audit(sys, sealed_from);
    let mut keyspace = live_state(sys);
    keyspace.apply(&closing);
    CheckpointImage {
        keyspace,
        seal,
        sealed,
    }
}

// ---------------------------------------------------------------------
// Hydration
// ---------------------------------------------------------------------

fn row_err(what: &'static str) -> OpenError {
    OpenError::Snapshot(Error::Malformed(what))
}

fn audit_err(what: &'static str) -> OpenError {
    OpenError::Audit(AuditLoadError::Malformed(what))
}

type Rows<T> = Vec<(<T as Schema>::Key, <T as Schema>::Value)>;

/// Every row of `T` under `prefix`, decoded to its key tuple.
fn rows<T: Schema>(ks: &Keyspace, prefix: &[u8]) -> Result<Rows<T>, OpenError> {
    ks.range::<T>(prefix).map_err(OpenError::Keyspace)
}

fn meta_row(ks: &Keyspace, name: &str) -> Result<Option<Vec<u8>>, OpenError> {
    ks.get::<Meta>(&(name.to_owned(),))
        .map_err(OpenError::Keyspace)
}

fn wire<T: WireCodec>(value: &[u8]) -> Result<T, OpenError> {
    T::from_wire_bytes(value).map_err(OpenError::Snapshot)
}

/// Presence-only rows (`grants`, `offline`) carry no value bytes.
fn expect_empty(value: &[u8]) -> Result<(), OpenError> {
    if value.is_empty() {
        Ok(())
    } else {
        Err(row_err("trailing bytes after row value"))
    }
}

fn str_prefix(s: &str) -> Vec<u8> {
    let mut out = Vec::new();
    key_str(&mut out, s);
    out
}

/// Rebuilds a [`CloudSystem`] from keyspace rows, table by table, and
/// its audit chain from the committed `seals` (in order) followed by
/// the journal tail's `audit` rows. The restored system gets a fresh
/// RNG from `seed` and no fault injection; an entirely empty keyspace
/// without seals hydrates to a fresh system. Also returns where each
/// seal's entries end, so a rotted seal can be rewritten from memory.
///
/// Beyond decoding every value whole, it checks what the rows alone
/// cannot guarantee: a store holding an owner or a record names this
/// build's LSSS construction; the `ca` row exists; each authority and
/// owner row is keyed by its own id; each owner secret belongs to a
/// known owner and to an id below its counter; every attribute parses; every
/// pending revocation names a known authority; the seals hold exactly the
/// snapshot's sealed-entry count, ending at its chain head; the audit
/// chain, order and counters verify; and the revocation counter ends up
/// ahead of every in-flight and queued id. Every user gets a grant set
/// (empty or not).
///
/// # Errors
///
/// [`OpenError::Lsss`] for a store of another LSSS construction's
/// ciphertexts, [`OpenError::Keyspace`] for undecodable row keys,
/// [`OpenError::Snapshot`] for a row that fails validation,
/// [`OpenError::Audit`] for a malformed seal, seals that disagree with
/// the snapshot, or a broken audit chain.
pub(crate) fn hydrate(
    ks: &Keyspace,
    seals: &[Vec<u8>],
    seed: u64,
) -> Result<(CloudSystem, Vec<usize>), OpenError> {
    let mut sys = CloudSystem::new(seed);
    if ks.total_rows() == 0 && seals.is_empty() {
        return Ok((sys, Vec::new()));
    }
    // Ciphertexts travel as policy text and decode under this build's
    // construction, so a store of another's must not open.
    let marker = meta_row(ks, META_LSSS)?;
    if marker.as_deref() != Some(CONSTRUCTION.as_bytes())
        && (marker.is_some() || ks.rows(Owners::ID) > 0 || ks.rows(Records::ID) > 0)
    {
        return Err(OpenError::Lsss {
            found: marker.map(|m| String::from_utf8_lossy(&m).into_owned()),
        });
    }
    let ca = meta_row(ks, META_CA)?
        .ok_or_else(|| row_err("keyspace missing certificate-authority row"))?;
    *sys.directory.ca.lock() = wire::<CertificateAuthority>(&ca)?;

    for ((aid,), value) in rows::<Authorities>(ks, &[])? {
        let aa = wire::<AttributeAuthority>(&value)?;
        if aa.aid().as_str() != aid {
            return Err(row_err("authority row keyed by another authority"));
        }
        sys.control.insert_authority(aa);
    }
    {
        let mut owners = sys.directory.owners.write();
        for ((id,), value) in rows::<Owners>(ks, &[])? {
            let owner = wire::<DataOwner>(&value)?;
            if owner.id().as_str() != id {
                return Err(row_err("owner row keyed by another owner"));
            }
            owners.insert(owner.id().clone(), owner);
        }
        for ((id, ct_id), value) in rows::<OwnerSecrets>(ks, &[])? {
            let owner = owners
                .get_mut(&OwnerId::new(id))
                .ok_or_else(|| row_err("secret row for an unknown owner"))?;
            if ct_id >= owner.next_ciphertext_id().0 {
                return Err(row_err("secret row at or past the owner's id counter"));
            }
            let record = wire::<EncryptionRecord>(&value)?;
            owner.adopt_record(CiphertextId(ct_id), record.s, record.attributes);
        }
    }
    {
        let mut users = sys.directory.users.write();
        for ((uid,), value) in rows::<Users>(ks, &[])? {
            let pk = wire::<UserPublicKey>(&value)?;
            let prefix = str_prefix(&uid);
            let mut keys = BTreeMap::new();
            for ((_, owner, aid), key) in rows::<UserKeys>(ks, &prefix)? {
                keys.insert(
                    (OwnerId::new(owner), AuthorityId::new(aid)),
                    wire::<UserSecretKey>(&key)?,
                );
            }
            let mut attrs: BTreeSet<Attribute> = BTreeSet::new();
            for ((_, attr), value) in rows::<Grants>(ks, &prefix)? {
                expect_empty(&value)?;
                attrs.insert(
                    attr.parse()
                        .map_err(|_| row_err("unparseable attribute in grant row"))?,
                );
            }
            let uid = Uid::new(uid);
            users.users.insert(uid.clone(), UserState::new(pk, keys));
            users.grants.insert(uid, attrs);
        }
        for ((uid,), value) in rows::<Offline>(ks, &[])? {
            expect_empty(&value)?;
            users.offline.insert(Uid::new(uid));
        }
        for ((uid,), value) in rows::<PendingUpdates>(ks, &[])? {
            users
                .pending_updates
                .insert(Uid::new(uid), decode_pending_updates_value(&value)?);
        }
    }

    let mut records = BTreeMap::new();
    for ((owner, record), value) in rows::<Records>(ks, &[])? {
        records.insert((OwnerId::new(owner), record), wire::<DataEnvelope>(&value)?);
    }
    sys.data.server = Arc::new(CloudServer::from_records(records));

    let (next_seq, clock) = match meta_row(ks, META_AUDIT)? {
        Some(value) => decode_meta_audit_value(&value)?,
        None => (0, 0),
    };
    let (sealed, head) = match meta_row(ks, META_AUDIT_SEALED)? {
        Some(value) => decode_meta_audit_sealed_value(&value)?,
        None => (0, [0; DIGEST_LEN]),
    };
    let mut sections = Vec::new();
    let mut seal_ends = Vec::with_capacity(seals.len());
    for seal in seals {
        sections.extend(seal_sections(seal)?);
        seal_ends.push(sections.len());
    }
    if sections.len() as u64 != sealed {
        return Err(audit_err("sealed entry count disagrees with the snapshot"));
    }
    let tail = rows::<Audit>(ks, &[])?;
    let log = AuditLog::from_entries(
        next_seq,
        clock,
        sections
            .into_iter()
            .chain(tail.iter().map(|(_, value)| value.as_slice())),
    )
    .map_err(OpenError::Audit)?;
    let sealed_head = sealed
        .checked_sub(1)
        .map_or([0; DIGEST_LEN], |last| log.entries()[last as usize].digest);
    if sealed_head != head {
        return Err(audit_err("sealed chain head disagrees with the snapshot"));
    }
    *sys.audit.lock() = log;

    // The counter must outrun every id still in flight or queued, even
    // if the Meta row lagged (it is journaled with the begin batch, so
    // in practice it never does).
    let mut next_revocation = match meta_row(ks, META_NEXT_REVOCATION)? {
        Some(value) => decode_meta_u64_value(&value)?,
        None => 0,
    };
    for ((id,), value) in rows::<PendingRevocations>(ks, &[])? {
        let pending = decode_pending_revocation_value(id, &value)?;
        let shard = sys
            .control
            .shard(&pending.event.aid)
            .ok_or_else(|| row_err("pending revocation for unknown authority"))?;
        shard.state.lock().in_flight.insert(id, pending);
        next_revocation = next_revocation.max(id + 1);
    }
    {
        let mut queue = sys.lazy.queue.lock();
        for ((id,), value) in rows::<LazyQueue>(ks, &[])? {
            queue.insert(id, decode_lazy_queue_value(&value)?);
            next_revocation = next_revocation.max(id + 1);
        }
    }
    sys.control
        .next_revocation
        .store(next_revocation, Ordering::SeqCst);
    {
        let mut archive = sys.lazy.archive.write();
        for ((aid, owner, from), value) in rows::<LazyArchive>(ks, &[])? {
            archive.insert(
                (AuthorityId::new(aid), OwnerId::new(owner), from),
                wire::<UpdateKey>(&value)?,
            );
        }
    }
    Ok((sys, seal_ends))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::audit::AuditLoadError;

    /// A system whose populated keyspace fills the tables a settled
    /// world leaves empty: bob stays offline across a lazy revocation at
    /// `MedOrg` (queued update keys, a lazy-queue entry), and a
    /// revocation at `Trial` is begun but never driven.
    pub(crate) fn unsettled_system() -> CloudSystem {
        let sys = CloudSystem::new(7);
        sys.add_authority("MedOrg", &["Doctor"]).unwrap();
        sys.add_authority("Trial", &["Researcher"]).unwrap();
        let owner = sys.add_owner("hospital").unwrap();
        let alice = sys.add_user("alice").unwrap();
        let bob = sys.add_user("bob").unwrap();
        sys.grant(&alice, &["Doctor@MedOrg", "Researcher@Trial"])
            .unwrap();
        sys.grant(&bob, &["Doctor@MedOrg"]).unwrap();
        sys.publish(
            &owner,
            "rec",
            &[("x", b"sec".as_slice(), "Doctor@MedOrg AND Researcher@Trial")],
        )
        .unwrap();
        sys.set_offline(&bob);
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "Doctor@MedOrg").unwrap();
        let shard = sys.control.shard(&AuthorityId::new("Trial")).unwrap();
        let mut st = shard.state.lock();
        let attr: Attribute = "Researcher@Trial".parse().unwrap();
        let event = st
            .authority
            .revoke_attribute(&alice, &attr, &mut *sys.rng.lock())
            .unwrap();
        sys.begin_in_shard(&mut st, event);
        drop(st);
        sys
    }

    /// Rewrites the value of the first row of `T` in place.
    fn edit_first<T: Schema<Value = Vec<u8>>>(ks: &mut Keyspace, edit: impl FnOnce(&mut Vec<u8>)) {
        let (key, mut value) = ks.range::<T>(&[]).unwrap().remove(0);
        edit(&mut value);
        ks.put::<T>(&key, &value);
    }

    fn row_error(what: &'static str) -> impl Fn(&OpenError) -> bool {
        move |e| matches!(e, OpenError::Snapshot(Error::Malformed(m)) if *m == what)
    }

    /// Each check hydration makes beyond decoding, provoked by one edit
    /// of a populated keyspace or its seal, fails with its typed error.
    #[test]
    fn hydrate_rejects_each_invalid_row_typed() {
        type Edit = Box<dyn Fn(&mut Keyspace, &mut Vec<Vec<u8>>)>;
        type Expect = Box<dyn Fn(&OpenError) -> bool>;
        let image = populate(&unsettled_system(), 0);
        let (base, base_seals) = (image.keyspace, vec![image.seal.expect("entries to seal")]);
        for table in [
            OwnerSecrets::ID,
            PendingUpdates::ID,
            PendingRevocations::ID,
            LazyQueue::ID,
        ] {
            assert!(base.rows(table) > 0, "table {table} left empty");
        }
        assert_eq!(base.rows(Audit::ID), 0, "audit rows live in the seal");
        let cases: Vec<(&str, Edit, Expect)> = vec![
            (
                "missing ca row",
                Box::new(|ks, _| {
                    ks.delete::<Meta>(&(META_CA.to_owned(),));
                }),
                Box::new(row_error("keyspace missing certificate-authority row")),
            ),
            (
                "authority row under another authority's key",
                Box::new(|ks, _| {
                    let medorg = ks.get::<Authorities>(&("MedOrg".into(),)).unwrap();
                    ks.put::<Authorities>(&("Trial".into(),), &medorg.unwrap());
                }),
                Box::new(row_error("authority row keyed by another authority")),
            ),
            (
                "owner row under another owner's key",
                Box::new(|ks, _| {
                    let hospital = ks.get::<Owners>(&("hospital".into(),)).unwrap();
                    ks.put::<Owners>(&("clinic".into(),), &hospital.unwrap());
                }),
                Box::new(row_error("owner row keyed by another owner")),
            ),
            (
                "pending revocation for an unknown authority",
                Box::new(|ks, _| {
                    ks.delete::<Authorities>(&("Trial".into(),));
                }),
                Box::new(row_error("pending revocation for unknown authority")),
            ),
            (
                "pending revocation with stage byte 2",
                Box::new(|ks, _| {
                    edit_first::<PendingRevocations>(ks, |v| {
                        let event_len = u32::from_be_bytes(v[..4].try_into().unwrap());
                        v[4 + event_len as usize] = 2;
                    })
                }),
                Box::new(row_error("bad revocation stage")),
            ),
            (
                "15-byte audit counter row",
                Box::new(|ks, _| {
                    let key = (META_AUDIT.to_owned(),);
                    let mut value = ks.get::<Meta>(&key).unwrap().unwrap();
                    value.truncate(15);
                    ks.put::<Meta>(&key, &value);
                }),
                Box::new(row_error("malformed audit counter row")),
            ),
            (
                "one flipped byte in a sealed entry",
                // The last byte of entry 0: count, then its length, then
                // its bytes, which end in its digest.
                Box::new(|_, seals| {
                    let seal = &mut seals[0];
                    let len = u32::from_be_bytes(seal[4..8].try_into().unwrap()) as usize;
                    seal[8 + len - 1] ^= 1;
                }),
                Box::new(|e| {
                    matches!(
                        e,
                        OpenError::Audit(AuditLoadError::ChainBroken { index: 0 })
                    )
                }),
            ),
            (
                "a seal missing its last entry",
                Box::new(|_, seals| {
                    let seal = &mut seals[0];
                    let count = u32::from_be_bytes(seal[..4].try_into().unwrap());
                    seal[..4].copy_from_slice(&(count - 1).to_be_bytes());
                }),
                Box::new(|e| {
                    matches!(
                        e,
                        OpenError::Audit(AuditLoadError::Malformed("malformed seal"))
                    )
                }),
            ),
            (
                "no seals beside a snapshot that counts sealed entries",
                Box::new(|_, seals| seals.clear()),
                Box::new(|e| {
                    matches!(
                        e,
                        OpenError::Audit(AuditLoadError::Malformed(
                            "sealed entry count disagrees with the snapshot"
                        ))
                    )
                }),
            ),
            (
                "a sealed head the seals do not end at",
                Box::new(|ks, _| {
                    let key = (META_AUDIT_SEALED.to_owned(),);
                    let mut value = ks.get::<Meta>(&key).unwrap().unwrap();
                    *value.last_mut().unwrap() ^= 1;
                    ks.put::<Meta>(&key, &value);
                }),
                Box::new(|e| {
                    matches!(
                        e,
                        OpenError::Audit(AuditLoadError::Malformed(
                            "sealed chain head disagrees with the snapshot"
                        ))
                    )
                }),
            ),
            (
                "39-byte sealed-audit row",
                Box::new(|ks, _| {
                    let key = (META_AUDIT_SEALED.to_owned(),);
                    let mut value = ks.get::<Meta>(&key).unwrap().unwrap();
                    value.truncate(39);
                    ks.put::<Meta>(&key, &value);
                }),
                Box::new(row_error("malformed sealed-audit row")),
            ),
            (
                "no lsss marker beside owners and records",
                Box::new(|ks, _| {
                    ks.delete::<Meta>(&(META_LSSS.to_owned(),));
                }),
                Box::new(|e| matches!(e, OpenError::Lsss { found: None })),
            ),
            (
                "an lsss marker naming another construction",
                Box::new(|ks, _| {
                    ks.put::<Meta>(&(META_LSSS.to_owned(),), &b"vandermonde n-of-n".to_vec());
                }),
                Box::new(
                    |e| matches!(e, OpenError::Lsss { found: Some(c) } if c == "vandermonde n-of-n"),
                ),
            ),
            (
                "an owner secret under an unknown owner",
                Box::new(|ks, _| {
                    let (_, value) = ks.range::<OwnerSecrets>(&[]).unwrap().remove(0);
                    ks.put::<OwnerSecrets>(&("clinic".into(), 1), &value);
                }),
                Box::new(row_error("secret row for an unknown owner")),
            ),
            (
                "an owner secret at the owner's id counter",
                Box::new(|ks, _| {
                    let hospital = ks.get::<Owners>(&("hospital".into(),)).unwrap().unwrap();
                    let next = DataOwner::from_wire_bytes(&hospital)
                        .unwrap()
                        .next_ciphertext_id();
                    let (_, value) = ks.range::<OwnerSecrets>(&[]).unwrap().remove(0);
                    ks.put::<OwnerSecrets>(&("hospital".into(), next.0), &value);
                }),
                Box::new(row_error("secret row at or past the owner's id counter")),
            ),
            (
                "trailing byte on an owner secret",
                Box::new(|ks, _| edit_first::<OwnerSecrets>(ks, |v| v.push(0))),
                Box::new(|e| matches!(e, OpenError::Snapshot(Error::Malformed("trailing bytes")))),
            ),
            (
                "an owner secret cut inside its attributes",
                Box::new(|ks, _| edit_first::<OwnerSecrets>(ks, |v| v.truncate(v.len() - 1))),
                Box::new(|e| matches!(e, OpenError::Snapshot(_))),
            ),
            (
                "trailing byte on a grants value",
                Box::new(|ks, _| edit_first::<Grants>(ks, |v| v.push(0))),
                Box::new(row_error("trailing bytes after row value")),
            ),
            (
                "trailing byte on a pending_updates value",
                Box::new(|ks, _| edit_first::<PendingUpdates>(ks, |v| v.push(0))),
                Box::new(row_error("trailing bytes after row value")),
            ),
            (
                "trailing byte on a lazy_queue value",
                Box::new(|ks, _| edit_first::<LazyQueue>(ks, |v| v.push(0))),
                Box::new(row_error("trailing bytes after row value")),
            ),
            (
                "one flipped byte in a records value",
                // The top byte of the envelope's component count.
                Box::new(|ks, _| edit_first::<Records>(ks, |v| v[0] ^= 0x80)),
                Box::new(row_error("implausible entry count")),
            ),
            (
                "a records value that repeats a component label",
                Box::new(|ks, _| {
                    edit_first::<Records>(ks, |v| {
                        let mut envelope = DataEnvelope::from_wire_bytes(v).unwrap();
                        envelope.components.push(envelope.components[0].clone());
                        *v = envelope.to_wire_bytes();
                    })
                }),
                Box::new(row_error("envelope: repeated component label")),
            ),
        ];
        for (case, edit, expect) in cases {
            let mut ks = base.clone();
            let mut seals = base_seals.clone();
            edit(&mut ks, &mut seals);
            match hydrate(&ks, &seals, 1) {
                Ok(_) => panic!("{case}: hydrated"),
                Err(e) => assert!(expect(&e), "{case}: got {e}"),
            }
        }
        // The unedited image hydrates.
        hydrate(&base, &base_seals, 1).unwrap();
    }

    /// Only owners and records bind a store to a construction: one with
    /// neither opens without the marker.
    #[test]
    fn a_store_without_owners_or_records_needs_no_lsss_marker() {
        let sys = CloudSystem::new(3);
        sys.add_authority("MedOrg", &["Doctor"]).unwrap();
        sys.add_user("alice").unwrap();
        let mut image = populate(&sys, 0);
        image.keyspace.delete::<Meta>(&(META_LSSS.to_owned(),));
        let seals: Vec<Vec<u8>> = image.seal.into_iter().collect();
        hydrate(&image.keyspace, &seals, 1).unwrap();
    }
}
