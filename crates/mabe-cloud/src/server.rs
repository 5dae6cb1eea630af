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

use parking_lot::RwLock;

use mabe_core::{
    apply_reencryption, check_reencryption, CiphertextId, DataEnvelope, Error, OwnerId, Refresh,
    SealedComponent, UpdateInfo, UpdateKey, WithTables,
};
use mabe_policy::AuthorityId;

/// Key of a stored record: owner plus record name.
pub type RecordKey = (OwnerId, String);

/// The cloud storage server.
#[derive(Debug, Default)]
pub struct CloudServer {
    records: RwLock<BTreeMap<RecordKey, DataEnvelope>>,
}

impl CloudServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a record.
    pub fn store(&self, owner: OwnerId, name: impl Into<String>, envelope: DataEnvelope) {
        let _span = mabe_telemetry::Span::with_labels("mabe_server_op", &[("op", "store")]);
        let _trace = mabe_trace::Span::child("server.store");
        self.records.write().insert((owner, name.into()), envelope);
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
    /// whose key-wrapping ciphertexts involve `aid` at `version`, in
    /// `(record, label)` order: the set a revocation at that authority
    /// forces the server to re-encrypt. A walk over the owner's records.
    pub fn affected_ciphertexts(
        &self,
        owner: &OwnerId,
        aid: &AuthorityId,
        version: u64,
    ) -> Vec<(RecordKey, String, CiphertextId)> {
        let records = self.records.read();
        let owned = records
            .range((owner.clone(), String::new())..)
            .take_while(|((record_owner, _), _)| record_owner == owner);
        let mut out = Vec::new();
        for (key, envelope) in owned {
            let start = out.len();
            for component in &envelope.components {
                let ct = &component.key_ct;
                if ct.versions.get(aid) == Some(&version) {
                    out.push((key.clone(), component.label.clone(), ct.id));
                }
            }
            out[start..].sort_by(|a, b| a.1.cmp(&b.1));
        }
        out
    }

    /// Every record holding at least one component sealed under `aid`,
    /// in key order: the worklist a revocation or lazy drain at that
    /// authority must touch.
    pub(crate) fn records_for_authority(&self, aid: &AuthorityId) -> Vec<RecordKey> {
        self.records
            .read()
            .iter()
            .filter(|(_, envelope)| {
                envelope
                    .components
                    .iter()
                    .any(|component| component.key_ct.versions.contains_key(aid))
            })
            .map(|(key, _)| key.clone())
            .collect()
    }

    /// Runs `f` over the stored records under the read lock — the
    /// journal and checkpoint walks.
    pub(crate) fn with_records<R>(
        &self,
        f: impl FnOnce(&BTreeMap<RecordKey, DataEnvelope>) -> R,
    ) -> R {
        f(&self.records.read())
    }

    /// A server holding `records` (the durable-open path).
    pub(crate) fn from_records(records: BTreeMap<RecordKey, DataEnvelope>) -> Self {
        CloudServer {
            records: RwLock::new(records),
        }
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
    /// multiplies `refresh` and `ui` in. Two group multiplications per
    /// row; no pairing.
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
        apply_reencryption(&mut component.key_ct, uk, ui, refresh)
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

    /// The lookups revocation relies on: `affected_ciphertexts` lists
    /// exactly one owner's components at an authority and version, in
    /// `(record, label)` order whatever order they were sealed in, and
    /// `records_for_authority` lists each record with a component under
    /// the authority once, in key order.
    #[test]
    fn lookups_list_components_and_records_in_key_order() {
        let sys = crate::CloudSystem::new(5150);
        let org = sys.add_authority("Org", &["A"]).unwrap();
        let lab = sys.add_authority("Lab", &["B"]).unwrap();
        let first = sys.add_owner("first").unwrap();
        let second = sys.add_owner("second").unwrap();
        let alice = sys.add_user("alice").unwrap();
        let bob = sys.add_user("bob").unwrap();
        sys.grant(&alice, &["A@Org"]).unwrap();
        sys.grant(&bob, &["A@Org", "B@Lab"]).unwrap();
        let (a, b, both) = ("A@Org", "B@Lab", "A@Org AND B@Lab");
        let publish = |owner: &OwnerId, record: &str, labels: &[(&str, &str)]| {
            let components: Vec<(&str, &[u8], &str)> = labels
                .iter()
                .map(|&(label, policy)| (label, b"data".as_slice(), policy))
                .collect();
            sys.publish(owner, record, &components).unwrap();
        };
        publish(&first, "r2", &[("z", a), ("b", b), ("m", both)]);
        publish(&first, "r1", &[("y", a), ("c", a), ("k", b)]);
        publish(&first, "r3", &[("q", b)]);
        publish(&second, "r1", &[("x", a)]);
        // A lazy revocation leaves every component behind; bob's read
        // upgrades `z` alone.
        sys.set_lazy_revocation(true);
        sys.revoke(&alice, "A@Org").unwrap();
        sys.read(&bob, &first, "r2", "z").unwrap();

        let server = sys.server();
        let listed = |owner: &OwnerId, items: &[(&str, &str)]| -> Vec<_> {
            items
                .iter()
                .map(|&(record, label)| {
                    let envelope = server.fetch(owner, record).unwrap();
                    let id = envelope.component(label).unwrap().key_ct.id;
                    ((owner.clone(), record.to_owned()), label.to_owned(), id)
                })
                .collect()
        };
        assert_eq!(
            server.affected_ciphertexts(&first, &org, 1),
            listed(&first, &[("r1", "c"), ("r1", "y"), ("r2", "m")])
        );
        assert_eq!(
            server.affected_ciphertexts(&first, &org, 2),
            listed(&first, &[("r2", "z")])
        );
        assert_eq!(
            server.affected_ciphertexts(&first, &lab, 1),
            listed(
                &first,
                &[("r1", "k"), ("r2", "b"), ("r2", "m"), ("r3", "q")]
            )
        );
        assert_eq!(
            server.affected_ciphertexts(&second, &org, 1),
            listed(&second, &[("r1", "x")])
        );
        assert!(server.affected_ciphertexts(&second, &lab, 1).is_empty());

        let keys = |items: &[(&OwnerId, &str)]| -> Vec<RecordKey> {
            items
                .iter()
                .map(|&(owner, record)| (owner.clone(), record.to_owned()))
                .collect()
        };
        assert_eq!(
            server.records_for_authority(&org),
            keys(&[(&first, "r1"), (&first, "r2"), (&second, "r1")])
        );
        assert_eq!(
            server.records_for_authority(&lab),
            keys(&[(&first, "r1"), (&first, "r2"), (&first, "r3")])
        );
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
