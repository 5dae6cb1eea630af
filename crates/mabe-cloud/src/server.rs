//! The semi-trusted cloud server.
//!
//! Per the paper's security model (§III-B) the server is *honest but
//! curious*: it stores envelopes, serves them to anyone who asks (access
//! control is enforced by the cryptography, not the server), and executes
//! re-encryption correctly — but it never holds content keys and the
//! proxy re-encryption keeps it unable to decrypt.
//!
//! Storage is behind a [`parking_lot::RwLock`] so many simulated users
//! can fetch concurrently. The server keeps each owner's records in
//! their own map, by name: a ciphertext id is owner-scoped, so
//! `(owner, ciphertext id)` names every stored component, and a fetch,
//! a revocation's walk and a re-encryption look the owner up directly.
//! Walks run in `(owner, name)` order. Each record is a shared,
//! immutable snapshot (`Arc<DataEnvelope>`): a fetch hands out the
//! snapshot, and a write replaces it — copying it first only while a
//! reader still holds it. Re-encryption computes its pairing with no
//! lock held ([`CloudServer::prepare_reencryption`]) and takes the write
//! lock only to apply it ([`CloudServer::apply_reencryption`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mabe_core::{
    apply_reencryption, check_reencryption, CiphertextId, DataEnvelope, Error, OwnerId, Refresh,
    SealedComponent, UpdateInfo, UpdateKey, WithTables,
};
use mabe_policy::AuthorityId;
use mabe_telemetry::SpanMetric;

static STORE_OP: SpanMetric = SpanMetric::new("mabe_server_op", &[("op", "store")]);
static FETCH_OP: SpanMetric = SpanMetric::new("mabe_server_op", &[("op", "fetch")]);
static REENCRYPT_OP: SpanMetric = SpanMetric::new("mabe_server_op", &[("op", "reencrypt")]);

/// Key of a stored record: owner plus record name.
pub type RecordKey = (OwnerId, String);

/// The stored records: each owner's, by name.
pub(crate) type RecordMap = BTreeMap<OwnerId, BTreeMap<String, Arc<DataEnvelope>>>;

/// The record `key` names in `records`, if stored.
pub(crate) fn record<'a>(
    records: &'a RecordMap,
    (owner, name): &RecordKey,
) -> Option<&'a Arc<DataEnvelope>> {
    records.get(owner)?.get(name)
}

/// The cloud storage server.
#[derive(Debug, Default)]
pub struct CloudServer {
    records: RwLock<RecordMap>,
}

impl CloudServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a record. Snapshots fetched before keep the
    /// record as it was.
    ///
    /// # Errors
    ///
    /// Nothing is stored on an error:
    /// * [`Error::Malformed`] if two components share a label
    ///   ([`DataEnvelope::check_labels`]);
    /// * [`Error::OwnerMismatch`] if a component's ciphertext is another
    ///   owner's: only its own owner's update keys can re-encrypt it.
    pub fn store(
        &self,
        owner: OwnerId,
        name: impl Into<String>,
        envelope: DataEnvelope,
    ) -> Result<(), Error> {
        let _span = mabe_telemetry::Span::on(&STORE_OP);
        let _trace = mabe_trace::Span::child("server.store");
        envelope.check_labels()?;
        let mut owners = envelope.components.iter().map(|c| &c.key_ct.owner);
        if let Some(found) = owners.find(|&found| *found != owner) {
            return Err(Error::OwnerMismatch {
                expected: owner,
                found: found.clone(),
            });
        }
        self.records
            .write()
            .entry(owner)
            .or_default()
            .insert(name.into(), Arc::new(envelope));
        Ok(())
    }

    /// Fetches a record: the server's shared snapshot of it, which no
    /// later store or re-encryption changes — those write a new
    /// envelope in its place.
    pub fn fetch(&self, owner: &OwnerId, name: &str) -> Option<Arc<DataEnvelope>> {
        let _span = mabe_telemetry::Span::on(&FETCH_OP);
        let _trace = mabe_trace::Span::child("server.fetch");
        self.records.read().get(owner)?.get(name).cloned()
    }

    /// Number of stored records.
    pub fn record_count(&self) -> usize {
        self.records.read().values().map(BTreeMap::len).sum()
    }

    /// Total paper-accounted storage in bytes (Table III "Server" row).
    pub fn storage_size(&self) -> usize {
        self.records
            .read()
            .values()
            .flat_map(BTreeMap::values)
            .map(|envelope| envelope.stored_size())
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
        let mut out = Vec::new();
        for (name, envelope) in records.get(owner).into_iter().flatten() {
            let start = out.len();
            for component in &envelope.components {
                let ct = &component.key_ct;
                if ct.versions.get(aid) == Some(&version) {
                    let key = (owner.clone(), name.clone());
                    out.push((key, component.label.clone(), ct.id));
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
        let records = self.records.read();
        let mut out = Vec::new();
        for (owner, named) in records.iter() {
            for (name, envelope) in named {
                let mut components = envelope.components.iter();
                if components.any(|c| c.key_ct.versions.contains_key(aid)) {
                    out.push((owner.clone(), name.clone()));
                }
            }
        }
        out
    }

    /// Runs `f` over the stored records under the read lock — the
    /// journal and checkpoint walks.
    pub(crate) fn with_records<R>(&self, f: impl FnOnce(&RecordMap) -> R) -> R {
        f(&self.records.read())
    }

    /// A server holding `records` (the durable-open path).
    pub(crate) fn from_records(records: RecordMap) -> Self {
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
    /// row; no pairing. The envelope is copied first only while a reader
    /// still holds its snapshot.
    ///
    /// # Errors
    ///
    /// As [`Self::reencrypt_component`], plus
    /// [`Error::CiphertextMismatch`] when the record was republished
    /// since `refresh` was prepared.
    pub fn apply_reencryption(
        &self,
        (owner, name): &RecordKey,
        label: &str,
        uk: &UpdateKey,
        ui: &UpdateInfo,
        refresh: &Refresh,
    ) -> Result<(), Error> {
        let _span = mabe_telemetry::Span::on(&REENCRYPT_OP);
        let _trace = mabe_trace::Span::child("server.reencrypt");
        let mut records = self.records.write();
        let envelope = records
            .get_mut(owner)
            .and_then(|named| named.get_mut(name))
            .ok_or(Error::Malformed("unknown record"))?;
        if envelope.component(label).is_none() {
            return Err(Error::Malformed("unknown component"));
        }
        let component = Arc::make_mut(envelope)
            .component_mut(label)
            .expect("checked above");
        apply_reencryption(&mut component.key_ct, uk, ui, refresh)
    }
}

/// One stored component, or the error naming what is missing.
fn stored_component<'a>(
    records: &'a RecordMap,
    key: &RecordKey,
    label: &str,
) -> Result<&'a SealedComponent, Error> {
    record(records, key)
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
        server
            .store(owner.clone(), "record-1", DataEnvelope::new())
            .unwrap();
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
        server
            .store(owner.clone(), "r", DataEnvelope::new())
            .unwrap();
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
        server.store(owner.id().clone(), "rec", envelope).unwrap();
        server
            .store(owner.id().clone(), "empty", DataEnvelope::new())
            .unwrap();

        // Each record as a `Records` row holds it: envelope wire bytes.
        let records = server.with_records(|records| {
            let mut restored = RecordMap::new();
            for (owner, named) in records {
                for (name, envelope) in named {
                    let decoded = DataEnvelope::from_wire_bytes(&envelope.to_wire_bytes()).unwrap();
                    assert_eq!(&decoded, &**envelope);
                    restored
                        .entry(owner.clone())
                        .or_default()
                        .insert(name.clone(), Arc::new(decoded));
                }
            }
            restored
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
    /// the authority once, in key order. Two owners' records of one name
    /// stay apart.
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
        let (first_r1, second_r1) = (
            server.fetch(&first, "r1").unwrap(),
            server.fetch(&second, "r1").unwrap(),
        );
        let labels = |envelope: &DataEnvelope| -> Vec<String> {
            envelope
                .components
                .iter()
                .map(|c| c.label.clone())
                .collect()
        };
        assert_eq!(labels(&first_r1), ["y", "c", "k"]);
        assert_eq!(labels(&second_r1), ["x"]);
        assert!(first_r1.components.iter().all(|c| c.key_ct.owner == first));
        assert!(second_r1
            .components
            .iter()
            .all(|c| c.key_ct.owner == second));
        assert!(server.fetch(&second, "r2").is_none());
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

    /// An envelope that repeats a component label is refused, as the
    /// wire decode refuses it, and so never reaches a re-encryption
    /// worklist: stored, its second `note` would fail every apply with a
    /// ciphertext mismatch and spin the next eager revocation's passes.
    #[test]
    fn a_repeated_label_is_refused_and_the_next_eager_revocation_ends() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;

        let (tx, rx) = channel();
        let probe = std::thread::spawn(move || {
            let sys = crate::CloudSystem::new(2626);
            sys.add_authority("MedOrg", &["Doctor"]).unwrap();
            let owner = sys.add_owner("hospital").unwrap();
            let [alice, bob] = ["alice", "bob"].map(|n| sys.add_user(n).unwrap());
            for uid in [&alice, &bob] {
                sys.grant(uid, &["Doctor@MedOrg"]).unwrap();
            }
            for (record, data) in [("one", b"1"), ("two", b"2")] {
                sys.publish(
                    &owner,
                    record,
                    &[("note", data.as_slice(), "Doctor@MedOrg")],
                )
                .unwrap();
            }
            let server = sys.server();
            let mut dup = DataEnvelope::clone(&server.fetch(&owner, "one").unwrap());
            let two = server.fetch(&owner, "two").unwrap();
            dup.components.push(two.components[0].clone());
            let stored = server.store(owner.clone(), "dup", dup);
            let listed = server.fetch(&owner, "dup").is_some();
            let revoked = sys.revoke(&alice, "Doctor@MedOrg");
            let read = sys.read(&bob, &owner, "one", "note");
            tx.send((stored, listed, revoked.is_ok(), read.ok()))
                .unwrap();
        });
        let got = rx.recv_timeout(Duration::from_secs(30));
        assert!(
            !matches!(got, Err(RecvTimeoutError::Timeout)),
            "the eager revocation did not end"
        );
        probe.join().expect("the probe panicked");
        let (stored, listed, revoked, read) = got.expect("the probe sent its outcome");
        assert_eq!(
            stored,
            Err(Error::Malformed("envelope: repeated component label"))
        );
        assert!(!listed, "nothing was stored");
        assert!(revoked);
        assert_eq!(read.as_deref(), Some(b"1".as_slice()));
    }

    /// A record's ciphertexts are its owner's. A copy of one owner's
    /// record stored under another owner is refused: stored, it would
    /// stall the next revocation at its authority, since the storing
    /// owner cannot re-encrypt another owner's ciphertext, and every
    /// later one there, which drives the stalled one first.
    #[test]
    fn another_owners_ciphertext_is_refused_and_revocations_go_on() {
        let sys = crate::CloudSystem::new(3030);
        sys.add_authority("Org", &["A"]).unwrap();
        let alpha = sys.add_owner("alpha").unwrap();
        let beta = sys.add_owner("beta").unwrap();
        let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| sys.add_user(n).unwrap());
        for uid in [&alice, &bob, &carol] {
            sys.grant(uid, &["A@Org"]).unwrap();
        }
        sys.publish(&alpha, "r", &[("x", b"alpha's".as_slice(), "A@Org")])
            .unwrap();
        let server = sys.server();
        let copy = DataEnvelope::clone(&server.fetch(&alpha, "r").unwrap());
        assert_eq!(
            server.store(beta.clone(), "copied", copy),
            Err(Error::OwnerMismatch {
                expected: beta.clone(),
                found: alpha.clone(),
            })
        );
        assert!(server.fetch(&beta, "copied").is_none(), "nothing stored");
        assert_eq!(server.record_count(), 1);
        for uid in [&alice, &bob] {
            sys.revoke(uid, "A@Org").unwrap();
            assert!(!sys.needs_recovery());
        }
        assert_eq!(sys.read(&carol, &alpha, "r", "x").unwrap(), b"alpha's");
        assert!(sys.read(&alice, &alpha, "r", "x").is_err());
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
