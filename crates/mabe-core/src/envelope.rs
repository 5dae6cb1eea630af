//! The hybrid data format of Fig. 2:
//! `CT₁ ‖ E_{k₁}(m₁) ‖ … ‖ CT_n ‖ E_{k_n}(m_n)`.
//!
//! The owner splits data into components by logic granularity (the
//! paper's example: *name, address, security number, employer, salary*),
//! seals each component with a fresh content key under ChaCha20-Poly1305,
//! and wraps each content key with multi-authority CP-ABE under its own
//! policy. Users with different attributes recover different subsets of
//! components — the paper's "different granularities of information".

use std::collections::{BTreeMap, BTreeSet};

use rand::RngCore;

use mabe_crypto::{aead, hkdf};
use mabe_math::Gt;
use mabe_policy::{AccessStructure, AuthorityId, Policy};

use crate::ciphertext::{decrypt_fast, Ciphertext};
use crate::error::Error;
use crate::keys::{UserPublicKey, UserSecretKey};
use crate::owner::DataOwner;

const ENVELOPE_SALT: &[u8] = b"mabe-envelope-v1";

/// One sealed data component: the CP-ABE-wrapped content key plus the
/// AEAD-sealed payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedComponent {
    /// Component label (e.g. `"salary"`); doubles as AEAD associated data.
    pub label: String,
    /// CP-ABE ciphertext wrapping the content-key KEM element.
    pub key_ct: Ciphertext,
    /// AEAD nonce.
    pub nonce: [u8; 12],
    /// `ChaCha20-Poly1305(k_i, m_i)`.
    pub sealed: Vec<u8>,
}

impl SealedComponent {
    /// Total stored size: paper-accounted ABE ciphertext bytes plus the
    /// symmetric payload.
    pub fn stored_size(&self) -> usize {
        self.key_ct.wire_size() + self.sealed.len() + self.nonce.len()
    }
}

/// A full data record as hosted on the cloud server (Fig. 2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DataEnvelope {
    /// Sealed components in owner-chosen order.
    pub components: Vec<SealedComponent>,
}

impl DataEnvelope {
    /// Creates an empty envelope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a component by label.
    pub fn component(&self, label: &str) -> Option<&SealedComponent> {
        self.components.iter().find(|c| c.label == label)
    }

    /// Mutable lookup (used by the server for re-encryption).
    pub fn component_mut(&mut self, label: &str) -> Option<&mut SealedComponent> {
        self.components.iter_mut().find(|c| c.label == label)
    }

    /// Total stored size in bytes.
    pub fn stored_size(&self) -> usize {
        self.components
            .iter()
            .map(SealedComponent::stored_size)
            .sum()
    }
}

fn content_key_from(kem: &Gt, label: &str) -> [u8; 32] {
    let mut key = [0u8; 32];
    hkdf::derive(ENVELOPE_SALT, &kem.to_bytes(), label.as_bytes(), &mut key);
    key
}

/// Seals one data component: fresh KEM element → CP-ABE wrap → AEAD seal.
///
/// # Errors
///
/// Propagates encryption errors (unknown authorities/attributes, LSSS
/// conversion failures).
pub fn seal_component<R: RngCore + ?Sized>(
    owner: &mut DataOwner,
    label: &str,
    data: &[u8],
    policy: &Policy,
    rng: &mut R,
) -> Result<SealedComponent, Error> {
    let access = AccessStructure::from_policy(policy)?;
    let kem = Gt::random(rng);
    let key_ct = owner.encrypt_under(&kem, &access, rng)?;
    let key = content_key_from(&kem, label);
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut nonce);
    let sealed = aead::seal(&key, &nonce, label.as_bytes(), data);
    Ok(SealedComponent {
        label: label.to_owned(),
        key_ct,
        nonce,
        sealed,
    })
}

/// Fails typed if two of `labels` are the same: a component's label is
/// its key within its record.
pub(crate) fn distinct_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> Result<(), Error> {
    let mut seen = BTreeSet::new();
    if labels.into_iter().all(|label| seen.insert(label)) {
        Ok(())
    } else {
        Err(Error::Malformed("envelope: repeated component label"))
    }
}

/// Seals several labelled components into one envelope.
///
/// # Errors
///
/// [`Error::Malformed`] if a label repeats, checked before anything is
/// sealed; otherwise fails on the first component that cannot be
/// sealed.
pub fn seal_envelope<R: RngCore + ?Sized>(
    owner: &mut DataOwner,
    components: &[(&str, &[u8], &Policy)],
    rng: &mut R,
) -> Result<DataEnvelope, Error> {
    distinct_labels(components.iter().map(|(label, _, _)| *label))?;
    let mut envelope = DataEnvelope::new();
    for (label, data, policy) in components {
        envelope
            .components
            .push(seal_component(owner, label, data, policy, rng)?);
    }
    Ok(envelope)
}

/// Opens one sealed component with the user's key material, recovering
/// the content key with the two-pairing [`decrypt_fast`].
///
/// # Errors
///
/// * CP-ABE errors (unsatisfied policy, missing/stale keys), or
/// * [`Error::SymmetricAuthentication`] if the AEAD tag fails — which is
///   also what stale key material reduces to if metadata checks are
///   bypassed.
pub fn open_component(
    component: &SealedComponent,
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Result<Vec<u8>, Error> {
    let kem = decrypt_fast(&component.key_ct, user_pk, keys)?;
    let key = content_key_from(&kem, &component.label);
    aead::open(
        &key,
        &component.nonce,
        component.label.as_bytes(),
        &component.sealed,
    )
    .map_err(|_| Error::SymmetricAuthentication)
}

/// Opens a component given an already-recovered KEM element (e.g. from
/// outsourced decryption, where the CP-ABE work happened on a server).
///
/// # Errors
///
/// [`Error::SymmetricAuthentication`] if the KEM element is wrong or
/// the payload was tampered with.
pub fn open_component_with_kem(component: &SealedComponent, kem: &Gt) -> Result<Vec<u8>, Error> {
    let key = content_key_from(kem, &component.label);
    aead::open(
        &key,
        &component.nonce,
        component.label.as_bytes(),
        &component.sealed,
    )
    .map_err(|_| Error::SymmetricAuthentication)
}

/// Opens every component the user is entitled to, returning
/// `(label, plaintext)` pairs and silently skipping unauthorized ones.
pub fn open_all(
    envelope: &DataEnvelope,
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Vec<(String, Vec<u8>)> {
    envelope
        .components
        .iter()
        .filter_map(|c| {
            open_component(c, user_pk, keys)
                .ok()
                .map(|data| (c.label.clone(), data))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use crate::ids::OwnerId;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        rng: StdRng,
        ca: CertificateAuthority,
        aa: AttributeAuthority,
        owner: DataOwner,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(31415);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("HR").unwrap();
        let mut aa = AttributeAuthority::new(aid, &["Manager", "Payroll", "Employee"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("acme-records"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        World { rng, ca, aa, owner }
    }

    fn enroll(
        w: &mut World,
        uid: &str,
        attrs: &[&str],
    ) -> (UserPublicKey, BTreeMap<AuthorityId, UserSecretKey>) {
        let pk = w.ca.register_user(uid, &mut w.rng).unwrap();
        let parsed: Vec<_> = attrs.iter().map(|a| a.parse().unwrap()).collect();
        w.aa.grant(&pk, parsed).unwrap();
        let mut keys = BTreeMap::new();
        keys.insert(
            w.aa.aid().clone(),
            w.aa.keygen(&pk.uid, w.owner.id()).unwrap(),
        );
        (pk, keys)
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut w = world();
        let policy = parse("Employee@HR").unwrap();
        let comp =
            seal_component(&mut w.owner, "address", b"12 Main St", &policy, &mut w.rng).unwrap();
        let (pk, keys) = enroll(&mut w, "alice", &["Employee@HR"]);
        assert_eq!(open_component(&comp, &pk, &keys).unwrap(), b"12 Main St");
    }

    #[test]
    fn fine_grained_disclosure() {
        // The paper's motivating example: different components under
        // different policies; users see different granularities.
        let mut w = world();
        let p_all = parse("Employee@HR").unwrap();
        let p_mgr = parse("Manager@HR").unwrap();
        let p_pay = parse("Payroll@HR OR Manager@HR").unwrap();
        let envelope = seal_envelope(
            &mut w.owner,
            &[
                ("name", b"Jane Doe".as_slice(), &p_all),
                ("salary", b"123456".as_slice(), &p_pay),
                ("review", b"exceeds expectations".as_slice(), &p_mgr),
            ],
            &mut w.rng,
        )
        .unwrap();

        let (emp_pk, emp_keys) = enroll(&mut w, "emp", &["Employee@HR"]);
        let (pay_pk, pay_keys) = enroll(&mut w, "pay", &["Employee@HR", "Payroll@HR"]);
        let (mgr_pk, mgr_keys) = enroll(&mut w, "mgr", &["Employee@HR", "Manager@HR"]);

        let emp_view = open_all(&envelope, &emp_pk, &emp_keys);
        assert_eq!(emp_view.len(), 1);
        assert_eq!(emp_view[0].0, "name");

        let pay_view = open_all(&envelope, &pay_pk, &pay_keys);
        assert_eq!(pay_view.len(), 2);

        let mgr_view = open_all(&envelope, &mgr_pk, &mgr_keys);
        assert_eq!(mgr_view.len(), 3);
    }

    #[test]
    fn unauthorized_component_rejected() {
        let mut w = world();
        let policy = parse("Manager@HR").unwrap();
        let comp = seal_component(&mut w.owner, "secret", b"top", &policy, &mut w.rng).unwrap();
        let (pk, keys) = enroll(&mut w, "alice", &["Employee@HR"]);
        assert_eq!(
            open_component(&comp, &pk, &keys),
            Err(Error::PolicyNotSatisfied)
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut w = world();
        let policy = parse("Employee@HR").unwrap();
        let mut comp = seal_component(&mut w.owner, "x", b"data", &policy, &mut w.rng).unwrap();
        let (pk, keys) = enroll(&mut w, "alice", &["Employee@HR"]);
        let last = comp.sealed.len() - 1;
        comp.sealed[last] ^= 1;
        assert_eq!(
            open_component(&comp, &pk, &keys),
            Err(Error::SymmetricAuthentication)
        );
    }

    #[test]
    fn component_lookup_and_sizes() {
        let mut w = world();
        let policy = parse("Employee@HR").unwrap();
        let envelope = seal_envelope(
            &mut w.owner,
            &[
                ("a", b"1".as_slice(), &policy),
                ("b", b"2".as_slice(), &policy),
            ],
            &mut w.rng,
        )
        .unwrap();
        assert!(envelope.component("a").is_some());
        assert!(envelope.component("zzz").is_none());
        // Stored size = ABE wire bytes + payload + tag + nonce per component.
        let expected: usize = envelope
            .components
            .iter()
            .map(|c| c.key_ct.wire_size() + c.sealed.len() + 12)
            .sum();
        assert_eq!(envelope.stored_size(), expected);
    }

    #[test]
    fn content_keys_are_label_bound() {
        // Swapping two components' sealed payloads must fail AEAD even if
        // both are encrypted under the same KEM element policy.
        let mut w = world();
        let policy = parse("Employee@HR").unwrap();
        let a = seal_component(&mut w.owner, "a", b"1", &policy, &mut w.rng).unwrap();
        let mut b = seal_component(&mut w.owner, "b", b"2", &policy, &mut w.rng).unwrap();
        let (pk, keys) = enroll(&mut w, "alice", &["Employee@HR"]);
        // Graft a's payload under b's label/key ciphertext.
        b.sealed = a.sealed.clone();
        b.nonce = a.nonce;
        assert_eq!(
            open_component(&b, &pk, &keys),
            Err(Error::SymmetricAuthentication)
        );
    }
}
