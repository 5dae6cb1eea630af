//! The semi-trusted cloud server.
//!
//! Per the paper's security model (§III-B) the server is *honest but
//! curious*: it stores envelopes, serves them to anyone who asks (access
//! control is enforced by the cryptography, not the server), and executes
//! re-encryption correctly — but it never holds content keys and the
//! proxy re-encryption keeps it unable to decrypt.
//!
//! Storage is behind a [`parking_lot::RwLock`] so many simulated users
//! can fetch concurrently. Re-encryption computes its pairing with no
//! lock held ([`CloudServer::prepare_reencryption`]) and takes the write
//! lock only to apply it ([`CloudServer::apply_reencryption`]).

use std::collections::BTreeMap;
use std::slice;

use parking_lot::RwLock;

use mabe_core::{
    apply_reencryption, check_reencryption, CiphertextId, DataEnvelope, Error, OwnerId, Refresh,
    SealedComponent, UpdateInfo, UpdateKey, WithTables,
};
use mabe_policy::AuthorityId;
use mabe_store::{key_str, Keyspace, Schema};

use crate::tables::Components;

/// Key of a stored record: owner plus record name.
pub type RecordKey = (OwnerId, String);

/// The cloud storage server.
#[derive(Debug, Default)]
pub struct CloudServer {
    records: RwLock<BTreeMap<RecordKey, DataEnvelope>>,
    /// Derived component index mirroring `records`: one
    /// [`Components`] row per `(authority, owner, record, label)`, so
    /// revocation re-encryption walks an `(authority, owner)` prefix
    /// scan instead of a full record-map pass. Maintained by every
    /// write path ([`CloudServer::store`],
    /// [`CloudServer::apply_reencryption`], [`CloudServer::from_records`]).
    index: Keyspace,
}

/// The index rows of one sealed component of record `(owner, name)`:
/// one per authority it is sealed under, valued `version u64 ‖ ct_id
/// u64`.
fn index_rows<'a>(
    owner: &'a OwnerId,
    name: &'a str,
    component: &'a SealedComponent,
) -> impl Iterator<Item = (<Components as Schema>::Key, Vec<u8>)> + 'a {
    let ct = &component.key_ct;
    ct.versions.iter().map(move |(aid, version)| {
        let key = (
            aid.as_str().to_owned(),
            owner.as_str().to_owned(),
            name.to_owned(),
            component.label.clone(),
        );
        (key, [version.to_be_bytes(), ct.id.0.to_be_bytes()].concat())
    })
}

/// An index row's `(version, ciphertext id)`; `None` unless 16 bytes.
fn decode_index_value(value: &[u8]) -> Option<(u64, CiphertextId)> {
    let (version, id) = value.split_first_chunk::<8>()?;
    let id: [u8; 8] = id.try_into().ok()?;
    Some((
        u64::from_be_bytes(*version),
        CiphertextId(u64::from_be_bytes(id)),
    ))
}

impl CloudServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Puts the index rows of `components`, stored under `(owner, name)`.
    fn index_components(&self, owner: &OwnerId, name: &str, components: &[SealedComponent]) {
        for component in components {
            for (key, value) in index_rows(owner, name, component) {
                self.index.put::<Components>(&key, &value);
            }
        }
    }

    fn unindex_components(&self, owner: &OwnerId, name: &str, components: &[SealedComponent]) {
        for component in components {
            for (key, _) in index_rows(owner, name, component) {
                self.index.delete::<Components>(&key);
            }
        }
    }

    /// Stores (or replaces) a record.
    pub fn store(&self, owner: OwnerId, name: impl Into<String>, envelope: DataEnvelope) {
        let _span = mabe_telemetry::Span::with_labels("mabe_server_op", &[("op", "store")]);
        let _trace = mabe_trace::Span::child("server.store");
        let name = name.into();
        let key = (owner, name);
        let mut records = self.records.write();
        if let Some(old) = records.insert(key.clone(), envelope) {
            self.unindex_components(&key.0, &key.1, &old.components);
        }
        let stored = records.get(&key).expect("record just inserted");
        self.index_components(&key.0, &key.1, &stored.components);
    }

    /// Fetches a record (clone — the server hands out bytes, it does not
    /// share memory with clients).
    pub fn fetch(&self, owner: &OwnerId, name: &str) -> Option<DataEnvelope> {
        let _span = mabe_telemetry::Span::with_labels("mabe_server_op", &[("op", "fetch")]);
        let _trace = mabe_trace::Span::child("server.fetch");
        self.records
            .read()
            .get(&(owner.clone(), name.to_owned()))
            .cloned()
    }

    /// Number of stored records.
    pub fn record_count(&self) -> usize {
        self.records.read().len()
    }

    /// Total paper-accounted storage in bytes (Table III "Server" row).
    pub fn storage_size(&self) -> usize {
        self.records
            .read()
            .values()
            .map(DataEnvelope::stored_size)
            .sum()
    }

    /// All ciphertext ids (with their record keys) belonging to `owner`
    /// whose key-wrapping ciphertexts involve `aid` at `version` — the
    /// set a revocation at that authority forces the server to
    /// re-encrypt. Served from the component index with an
    /// `(authority, owner)` prefix range scan, so cost scales with the
    /// authority's footprint rather than total records stored.
    pub fn affected_ciphertexts(
        &self,
        owner: &OwnerId,
        aid: &AuthorityId,
        version: u64,
    ) -> Vec<(RecordKey, String, CiphertextId)> {
        let mut prefix = Vec::new();
        key_str(&mut prefix, aid.as_str());
        key_str(&mut prefix, owner.as_str());
        let rows = self
            .index
            .range::<Components>(&prefix)
            .expect("component index rows are self-encoded");
        let mut out = Vec::new();
        for ((_, row_owner, record, label), value) in rows {
            let Some((row_version, ct_id)) = decode_index_value(&value) else {
                continue;
            };
            if row_version == version {
                out.push(((OwnerId::new(row_owner), record), label, ct_id));
            }
        }
        out
    }

    /// Every record holding at least one component sealed under `aid`
    /// (distinct, in key order) — the worklist a revocation or lazy
    /// drain at that authority must touch. An `(authority)` prefix
    /// range scan over the component index.
    pub(crate) fn records_for_authority(&self, aid: &AuthorityId) -> Vec<RecordKey> {
        let mut prefix = Vec::new();
        key_str(&mut prefix, aid.as_str());
        let rows = self
            .index
            .range::<Components>(&prefix)
            .expect("component index rows are self-encoded");
        let mut out: Vec<RecordKey> = Vec::new();
        for ((_, owner, record, _), _) in rows {
            let key = (OwnerId::new(owner), record);
            if out.last() != Some(&key) {
                out.push(key);
            }
        }
        out
    }

    /// Runs `f` over the stored records under the read lock — the
    /// journal and checkpoint walks.
    pub(crate) fn with_records<R>(
        &self,
        f: impl FnOnce(&BTreeMap<RecordKey, DataEnvelope>) -> R,
    ) -> R {
        f(&self.records.read())
    }

    /// A server holding `records`, with the component index built from
    /// them (the durable-open path).
    pub(crate) fn from_records(records: BTreeMap<RecordKey, DataEnvelope>) -> Self {
        let server = CloudServer {
            records: RwLock::new(records),
            index: Keyspace::default(),
        };
        {
            let records = server.records.read();
            for ((owner, name), envelope) in records.iter() {
                server.index_components(owner, name, &envelope.components);
            }
        }
        server
    }

    /// Runs `ReEncrypt` on one stored component (paper §V-C Phase 2):
    /// [`Self::prepare_reencryption`] then [`Self::apply_reencryption`].
    /// `uk` may carry a worklist's [`mabe_core::UpdateTables`], as for
    /// [`reencrypt`](mabe_core::reencrypt).
    ///
    /// # Errors
    ///
    /// * [`Error::Malformed`] if the record or component does not exist.
    /// * Any [`check_reencryption`] validation error.
    pub fn reencrypt_component<'a>(
        &self,
        record: &RecordKey,
        label: &str,
        uk: impl Into<WithTables<'a, UpdateKey>>,
        ui: &UpdateInfo,
    ) -> Result<(), Error> {
        let uk = uk.into();
        let refresh = self.prepare_reencryption(record, label, uk, ui)?;
        self.apply_reencryption(record, label, uk.value, ui, &refresh)
    }

    /// The pairing half of `ReEncrypt` on one stored component:
    /// `e(UK1, C')`, evaluated with no lock held. A read lock covers only
    /// the checks [`Self::apply_reencryption`] will make and the copy of
    /// `C'`, so a component that is already past the step fails here
    /// without paying a pairing. Reads nothing else and changes nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::reencrypt_component`].
    pub fn prepare_reencryption<'a>(
        &self,
        record: &RecordKey,
        label: &str,
        uk: impl Into<WithTables<'a, UpdateKey>>,
        ui: &UpdateInfo,
    ) -> Result<Refresh, Error> {
        let uk = uk.into();
        let (ct_id, c_prime) = {
            let records = self.records.read();
            let ct = &stored_component(&records, record, label)?.key_ct;
            check_reencryption(ct, uk.value, ui)?;
            (ct.id, ct.c_prime)
        };
        Ok(Refresh::new(ct_id, &c_prime, uk))
    }

    /// The apply half of `ReEncrypt` on one stored component, under the
    /// records write lock: validates the component as it stands, then
    /// multiplies `refresh` and `ui` in and moves the index rows to the
    /// new version. Two group multiplications per row; no pairing.
    ///
    /// # Errors
    ///
    /// As [`Self::reencrypt_component`], plus
    /// [`Error::CiphertextMismatch`] when the record was republished
    /// since `refresh` was prepared.
    pub fn apply_reencryption(
        &self,
        record: &RecordKey,
        label: &str,
        uk: &UpdateKey,
        ui: &UpdateInfo,
        refresh: &Refresh,
    ) -> Result<(), Error> {
        let _span = mabe_telemetry::Span::with_labels("mabe_server_op", &[("op", "reencrypt")]);
        let _trace = mabe_trace::Span::child("server.reencrypt");
        let mut records = self.records.write();
        let component = records
            .get_mut(record)
            .ok_or(Error::Malformed("unknown record"))?
            .component_mut(label)
            .ok_or(Error::Malformed("unknown component"))?;
        apply_reencryption(&mut component.key_ct, uk, ui, refresh)?;
        // The version bump changed index row values (never keys — the
        // authority set of a sealed component is fixed), so re-put them.
        self.index_components(&record.0, &record.1, slice::from_ref(component));
        Ok(())
    }
}

/// One stored component, or the error naming what is missing.
fn stored_component<'a>(
    records: &'a BTreeMap<RecordKey, DataEnvelope>,
    record: &RecordKey,
    label: &str,
) -> Result<&'a SealedComponent, Error> {
    records
        .get(record)
        .ok_or(Error::Malformed("unknown record"))?
        .component(label)
        .ok_or(Error::Malformed("unknown component"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_fetch_roundtrip() {
        let server = CloudServer::new();
        let owner = OwnerId::new("o");
        server.store(owner.clone(), "record-1", DataEnvelope::new());
        assert_eq!(server.record_count(), 1);
        assert!(server.fetch(&owner, "record-1").is_some());
        assert!(server.fetch(&owner, "missing").is_none());
        assert!(server.fetch(&OwnerId::new("other"), "record-1").is_none());
    }

    #[test]
    fn empty_server_sizes() {
        let server = CloudServer::new();
        assert_eq!(server.storage_size(), 0);
        assert_eq!(server.record_count(), 0);
    }

    #[test]
    fn concurrent_reads() {
        use std::sync::Arc;
        let server = Arc::new(CloudServer::new());
        let owner = OwnerId::new("o");
        server.store(owner.clone(), "r", DataEnvelope::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let server = Arc::clone(&server);
                let owner = owner.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert!(server.fetch(&owner, "r").is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn records_from_wire_bytes_rebuild_a_serving_server() {
        use mabe_core::{
            seal_envelope, AttributeAuthority, CertificateAuthority, DataOwner, WireCodec,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(909090);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Org").unwrap();
        let mut aa = AttributeAuthority::new(aid.clone(), &["A"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("owner"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let policy = mabe_policy::parse("A@Org").unwrap();
        let envelope =
            seal_envelope(&mut owner, &[("x", b"persisted", &policy)], &mut rng).unwrap();

        let server = CloudServer::new();
        server.store(owner.id().clone(), "rec", envelope);
        server.store(owner.id().clone(), "empty", DataEnvelope::new());

        // Each record as a `Records` row holds it: envelope wire bytes.
        let records = server.with_records(|records| {
            records
                .iter()
                .map(|(key, envelope)| {
                    let decoded = DataEnvelope::from_wire_bytes(&envelope.to_wire_bytes()).unwrap();
                    assert_eq!(&decoded, envelope);
                    (key.clone(), decoded)
                })
                .collect()
        });
        let restored = CloudServer::from_records(records);
        assert_eq!(restored.record_count(), 2);
        assert_eq!(restored.storage_size(), server.storage_size());
        assert_eq!(
            restored.affected_ciphertexts(owner.id(), &aid, 1),
            server.affected_ciphertexts(owner.id(), &aid, 1),
            "the component index is rebuilt"
        );

        // The restored envelope still decrypts.
        let user = ca.register_user("alice", &mut rng).unwrap();
        aa.grant(&user, ["A@Org".parse().unwrap()]).unwrap();
        let keys = BTreeMap::from([(aid, aa.keygen(&user.uid, owner.id()).unwrap())]);
        let fetched = restored.fetch(owner.id(), "rec").unwrap();
        let data =
            mabe_core::open_component(fetched.component("x").unwrap(), &user, &keys).unwrap();
        assert_eq!(data, b"persisted");
    }

    #[test]
    fn affected_ciphertexts_empty_for_unknown() {
        let server = CloudServer::new();
        let owner = OwnerId::new("o");
        assert!(server
            .affected_ciphertexts(&owner, &AuthorityId::new("Med"), 1)
            .is_empty());
    }

    #[test]
    fn reencrypt_unknown_record_errors() {
        let server = CloudServer::new();
        let owner = OwnerId::new("o");
        let uk = UpdateKey {
            aid: AuthorityId::new("Med"),
            from_version: 1,
            to_version: 2,
            owner: owner.clone(),
            uk1: mabe_math::G1Affine::generator(),
            uk2: mabe_math::Fr::from_u64(2),
        };
        let ui = UpdateInfo {
            aid: AuthorityId::new("Med"),
            ct_id: CiphertextId(1),
            from_version: 1,
            to_version: 2,
            items: BTreeMap::new(),
        };
        assert!(server
            .reencrypt_component(&(owner, "r".into()), "x", &uk, &ui)
            .is_err());
    }
}
