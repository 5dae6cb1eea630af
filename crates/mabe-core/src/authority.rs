//! Attribute authorities (paper §V-B "AA Setup", "Key Generation" and
//! §V-C "Key Update").
//!
//! Each AA independently manages the attributes of its own domain: it
//! keeps the private version key `VK_AID = α_AID`, publishes
//! `PK_{o,AID} = e(g,g)^α` and `PK_{x,AID} = g^{α·H(x)}`, issues user
//! secret keys tied to the user's global `UID`, and performs the key-update
//! half of attribute revocation.

use std::collections::{BTreeMap, BTreeSet};

use rand::RngCore;

use mabe_math::{hash_to_fr, Fr, G1Affine, Gt, G1};
use mabe_policy::{Attribute, AuthorityId};
use mabe_telemetry::SpanMetric;

use crate::error::Error;
use crate::ids::{OwnerId, Uid};
use crate::keys::{
    AuthorityPublicKeys, OwnerSecretKey, UpdateKey, UserPublicKey, UserSecretKey, VersionKey,
};

static SETUP: SpanMetric = SpanMetric::new("mabe_setup", &[]);
static KEYGEN: SpanMetric = SpanMetric::new("mabe_keygen", &[]);
static UPDATE_KEY: SpanMetric = SpanMetric::new("mabe_update_key", &[]);

/// The random oracle `H : {0,1}* → Z_p` applied to an attribute's
/// canonical `name@authority` encoding.
pub fn attribute_hash(attr: &Attribute) -> Fr {
    hash_to_fr(&attr.canonical_bytes())
}

/// Everything an attribute revocation produces (paper §V-C Phase 1):
/// fresh keys for the revoked user, per-owner update keys for everyone
/// else, and the authority's new public keys.
#[derive(Clone, Debug, PartialEq)]
pub struct RevocationEvent {
    /// The authority that performed the revocation.
    pub aid: AuthorityId,
    /// Version before the revocation.
    pub from_version: u64,
    /// Version after the revocation.
    pub to_version: u64,
    /// The user whose attribute(s) were revoked.
    pub revoked_uid: Uid,
    /// The revoked attributes (one for `revoke_attribute`, the user's
    /// whole set for `revoke_user`).
    pub revoked_attributes: BTreeSet<Attribute>,
    /// Update keys `UK_AID`, one per registered owner (UK1 embeds `1/β`).
    pub update_keys: BTreeMap<OwnerId, UpdateKey>,
    /// Replacement secret keys for the revoked user (its remaining
    /// attribute set, under the new version key), one per owner.
    pub revoked_user_keys: BTreeMap<OwnerId, UserSecretKey>,
    /// The authority's re-published public keys under the new version.
    pub new_public_keys: AuthorityPublicKeys,
}

/// A single attribute authority.
#[derive(Debug)]
pub struct AttributeAuthority {
    aid: AuthorityId,
    version_key: VersionKey,
    attributes: BTreeSet<Attribute>,
    owners: BTreeMap<OwnerId, OwnerSecretKey>,
    users: BTreeMap<Uid, UserRecord>,
}

#[derive(Debug)]
struct UserRecord {
    pk: UserPublicKey,
    attrs: BTreeSet<Attribute>,
}

impl AttributeAuthority {
    /// Runs `AAGen`: creates the authority with the given managed
    /// attribute names and a fresh version key.
    pub fn new<R, S>(aid: AuthorityId, attribute_names: &[S], rng: &mut R) -> Self
    where
        R: RngCore + ?Sized,
        S: AsRef<str>,
    {
        let _span = mabe_telemetry::Span::on(&SETUP);
        let attributes = attribute_names
            .iter()
            .map(|n| Attribute::new(n.as_ref(), aid.clone()))
            .collect();
        let alpha = nonzero_scalar(rng);
        AttributeAuthority {
            version_key: VersionKey {
                aid: aid.clone(),
                version: 1,
                alpha,
            },
            aid,
            attributes,
            owners: BTreeMap::new(),
            users: BTreeMap::new(),
        }
    }

    /// This authority's identifier.
    pub fn aid(&self) -> &AuthorityId {
        &self.aid
    }

    /// Current key version (1 at setup, +1 per revocation).
    pub fn version(&self) -> u64 {
        self.version_key.version
    }

    /// The managed attribute universe.
    pub fn attributes(&self) -> &BTreeSet<Attribute> {
        &self.attributes
    }

    /// The private version key (for storage accounting; handle with care).
    pub fn version_key(&self) -> &VersionKey {
        &self.version_key
    }

    /// Publishes `PK_{o,AID}` and all `PK_{x,AID}` at the current version.
    pub fn public_keys(&self) -> AuthorityPublicKeys {
        let owner_pk = Gt::generator().pow(&self.version_key.alpha);
        let attr_pks = self
            .attributes
            .iter()
            .map(|attr| {
                let exp = self.version_key.alpha.mul(&attribute_hash(attr));
                (attr.clone(), G1Affine::from(mabe_math::generator_mul(&exp)))
            })
            .collect();
        AuthorityPublicKeys {
            aid: self.aid.clone(),
            version: self.version_key.version,
            owner_pk,
            attr_pks,
        }
    }

    /// Whether `owner` has already registered its `SK_o` here — lets a
    /// restore path re-run the registration exchange idempotently.
    pub fn has_owner(&self, owner: &OwnerId) -> bool {
        self.owners.contains_key(owner)
    }

    /// Receives an owner's `SK_o` over the (modelled) secure channel.
    ///
    /// # Errors
    ///
    /// Fails if the owner is already registered.
    pub fn register_owner(&mut self, sk: OwnerSecretKey) -> Result<(), Error> {
        if self.owners.contains_key(&sk.owner) {
            return Err(Error::AlreadyRegistered(sk.owner.to_string()));
        }
        self.owners.insert(sk.owner.clone(), sk);
        Ok(())
    }

    /// Authenticates a user and records the attribute set this authority
    /// assigns to it (extends the set if called again).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownAttribute`] if any attribute is not part
    /// of this authority's universe.
    pub fn grant(
        &mut self,
        user_pk: &UserPublicKey,
        attrs: impl IntoIterator<Item = Attribute>,
    ) -> Result<(), Error> {
        let attrs: BTreeSet<Attribute> = attrs.into_iter().collect();
        for a in &attrs {
            if !self.attributes.contains(a) {
                return Err(Error::UnknownAttribute(a.clone()));
            }
        }
        let record = self
            .users
            .entry(user_pk.uid.clone())
            .or_insert_with(|| UserRecord {
                pk: user_pk.clone(),
                attrs: BTreeSet::new(),
            });
        record.attrs.extend(attrs);
        Ok(())
    }

    /// The attribute set currently granted to a user.
    pub fn granted_attributes(&self, uid: &Uid) -> Result<&BTreeSet<Attribute>, Error> {
        self.users
            .get(uid)
            .map(|r| &r.attrs)
            .ok_or_else(|| Error::UnknownUser(uid.clone()))
    }

    /// Runs `KeyGen`: issues `SK_{UID,AID}` for a registered user, scoped
    /// to a registered owner.
    ///
    /// # Errors
    ///
    /// Fails if the user or owner is unknown.
    pub fn keygen(&self, uid: &Uid, owner: &OwnerId) -> Result<UserSecretKey, Error> {
        let _span = mabe_telemetry::Span::on(&KEYGEN);
        let record = self
            .users
            .get(uid)
            .ok_or_else(|| Error::UnknownUser(uid.clone()))?;
        let osk = self
            .owners
            .get(owner)
            .ok_or_else(|| Error::UnknownOwner(owner.clone()))?;
        Ok(self.issue_key(record, osk))
    }

    fn issue_key(&self, record: &UserRecord, osk: &OwnerSecretKey) -> UserSecretKey {
        let alpha = self.version_key.alpha;
        // K = PK_UID^{r/β} · g^{α/β} = PK_UID^{r/β} · (g^{1/β})^α
        let k = G1::from(record.pk.pk)
            .mul(&osk.r_over_beta)
            .add(&G1::from(osk.g_inv_beta).mul(&alpha));
        let kx = record
            .attrs
            .iter()
            .map(|attr| {
                let exp = alpha.mul(&attribute_hash(attr));
                (
                    attr.clone(),
                    G1Affine::from(G1::from(record.pk.pk).mul(&exp)),
                )
            })
            .collect();
        UserSecretKey {
            uid: record.pk.uid.clone(),
            aid: self.aid.clone(),
            owner: osk.owner.clone(),
            version: self.version_key.version,
            k: G1Affine::from(k),
            kx,
        }
    }

    /// Runs `ReKey` (paper §V-C Phase 1): revokes `attribute` from `uid`,
    /// samples a fresh version key, and emits everything the system needs
    /// to move forward.
    ///
    /// # Errors
    ///
    /// Fails if the user is unknown or does not hold the attribute.
    pub fn revoke_attribute<R: RngCore + ?Sized>(
        &mut self,
        uid: &Uid,
        attribute: &Attribute,
        rng: &mut R,
    ) -> Result<RevocationEvent, Error> {
        self.revoke_set(uid, &[attribute.clone()].into(), rng)
    }

    /// User-level revocation within this authority's domain: strips
    /// **all** of the user's attributes in a single version bump (one
    /// `ReKey` round instead of one per attribute).
    ///
    /// # Errors
    ///
    /// Fails if the user is unknown or holds no attributes here.
    pub fn revoke_user<R: RngCore + ?Sized>(
        &mut self,
        uid: &Uid,
        rng: &mut R,
    ) -> Result<RevocationEvent, Error> {
        let attrs = {
            let record = self
                .users
                .get(uid)
                .ok_or_else(|| Error::UnknownUser(uid.clone()))?;
            record.attrs.clone()
        };
        if attrs.is_empty() {
            return Err(Error::UnknownUser(uid.clone()));
        }
        self.revoke_set(uid, &attrs, rng)
    }

    fn revoke_set<R: RngCore + ?Sized>(
        &mut self,
        uid: &Uid,
        attributes: &BTreeSet<Attribute>,
        rng: &mut R,
    ) -> Result<RevocationEvent, Error> {
        let _span = mabe_telemetry::Span::on(&UPDATE_KEY);
        {
            let record = self
                .users
                .get(uid)
                .ok_or_else(|| Error::UnknownUser(uid.clone()))?;
            for attribute in attributes {
                if !record.attrs.contains(attribute) {
                    return Err(Error::AttributeNotHeld {
                        uid: uid.clone(),
                        attribute: attribute.clone(),
                    });
                }
            }
        }

        let old_alpha = self.version_key.alpha;
        let new_alpha = loop {
            let candidate = nonzero_scalar(rng);
            if candidate != old_alpha {
                break candidate;
            }
        };
        let from_version = self.version_key.version;
        let to_version = from_version + 1;

        // UK2 = α̃ / α (shared across owners).
        let uk2 = new_alpha.mul(&old_alpha.invert().expect("α nonzero"));
        let delta = new_alpha.sub(&old_alpha);

        let update_keys: BTreeMap<OwnerId, UpdateKey> = self
            .owners
            .values()
            .map(|osk| {
                // UK1 = (g^{1/β})^{α̃-α}
                let uk1 = G1Affine::from(G1::from(osk.g_inv_beta).mul(&delta));
                (
                    osk.owner.clone(),
                    UpdateKey {
                        aid: self.aid.clone(),
                        from_version,
                        to_version,
                        owner: osk.owner.clone(),
                        uk1,
                        uk2,
                    },
                )
            })
            .collect();

        // Commit the new version key and shrink the revoked user's set.
        self.version_key = VersionKey {
            aid: self.aid.clone(),
            version: to_version,
            alpha: new_alpha,
        };
        let record = self.users.get_mut(uid).expect("checked above");
        for attribute in attributes {
            record.attrs.remove(attribute);
        }

        // Fresh keys for the revoked user over its remaining attributes.
        let record = self.users.get(uid).expect("checked above");
        let revoked_user_keys = self
            .owners
            .values()
            .map(|osk| (osk.owner.clone(), self.issue_key(record, osk)))
            .collect();

        Ok(RevocationEvent {
            aid: self.aid.clone(),
            from_version,
            to_version,
            revoked_uid: uid.clone(),
            revoked_attributes: attributes.clone(),
            update_keys,
            revoked_user_keys,
            new_public_keys: self.public_keys(),
        })
    }
}

fn nonzero_scalar<R: RngCore + ?Sized>(rng: &mut R) -> Fr {
    loop {
        let candidate = Fr::random(rng);
        if !candidate.is_zero() {
            return candidate;
        }
    }
}

// The authority's full private state (version key included) travels only
// into the deployment's durable snapshots, never over the modelled
// network — but it uses the same validated wire primitives.
impl crate::serial::WireCodec for AttributeAuthority {
    fn encode(&self, out: &mut Vec<u8>) {
        use crate::serial::{put_attribute, put_fr, put_string};
        put_string(out, self.aid.as_str());
        out.extend_from_slice(&self.version_key.version.to_be_bytes());
        put_fr(out, &self.version_key.alpha);
        out.extend_from_slice(&(self.attributes.len() as u32).to_be_bytes());
        for attr in &self.attributes {
            put_attribute(out, attr);
        }
        out.extend_from_slice(&(self.owners.len() as u32).to_be_bytes());
        for sk in self.owners.values() {
            sk.encode(out);
        }
        out.extend_from_slice(&(self.users.len() as u32).to_be_bytes());
        for record in self.users.values() {
            record.pk.encode(out);
            out.extend_from_slice(&(record.attrs.len() as u32).to_be_bytes());
            for attr in &record.attrs {
                put_attribute(out, attr);
            }
        }
    }

    fn decode(r: &mut crate::serial::Reader<'_>) -> Result<Self, Error> {
        use crate::serial::{get_attribute, get_authority_id, get_count, get_fr};
        let aid = get_authority_id(r)?;
        let version = r.u64()?;
        if version == 0 {
            return Err(Error::Malformed("authority version must be positive"));
        }
        let alpha = get_fr(r)?;
        if alpha.is_zero() {
            return Err(Error::Malformed("zero version key"));
        }
        let n = get_count(r)?;
        let mut attributes = BTreeSet::new();
        for _ in 0..n {
            let attr = get_attribute(r)?;
            if attr.authority() != &aid {
                return Err(Error::Malformed("attribute under wrong authority"));
            }
            attributes.insert(attr);
        }
        let n = get_count(r)?;
        let mut owners = BTreeMap::new();
        for _ in 0..n {
            let sk = OwnerSecretKey::decode(r)?;
            if owners.insert(sk.owner.clone(), sk).is_some() {
                return Err(Error::Malformed("duplicate owner in authority state"));
            }
        }
        let n = get_count(r)?;
        let mut users = BTreeMap::new();
        for _ in 0..n {
            let pk = UserPublicKey::decode(r)?;
            let m = get_count(r)?;
            let mut attrs = BTreeSet::new();
            for _ in 0..m {
                let attr = get_attribute(r)?;
                if !attributes.contains(&attr) {
                    return Err(Error::Malformed("granted attribute outside universe"));
                }
                attrs.insert(attr);
            }
            let uid = pk.uid.clone();
            if users.insert(uid, UserRecord { pk, attrs }).is_some() {
                return Err(Error::Malformed("duplicate user in authority state"));
            }
        }
        Ok(AttributeAuthority {
            version_key: VersionKey {
                aid: aid.clone(),
                version,
                alpha,
            },
            aid,
            attributes,
            owners,
            users,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::keys::OwnerMasterKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    fn setup() -> (
        StdRng,
        CertificateAuthority,
        AttributeAuthority,
        UserPublicKey,
    ) {
        let mut r = rng();
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("MedOrg").unwrap();
        let aa = AttributeAuthority::new(aid, &["Doctor", "Nurse", "Admin"], &mut r);
        let alice = ca.register_user("alice", &mut r).unwrap();
        (r, ca, aa, alice)
    }

    #[test]
    fn publishes_keys_for_all_attributes() {
        let (_, _, aa, _) = setup();
        let pks = aa.public_keys();
        assert_eq!(pks.attr_pks.len(), 3);
        assert_eq!(pks.version, 1);
        assert!(!pks.owner_pk.is_one());
    }

    #[test]
    fn public_attribute_key_structure() {
        // PK_x must equal g^{α·H(x)}: check via pairing identity
        // e(PK_x, g) = e(g,g)^{α·H(x)} = owner_pk^{H(x)}.
        let (_, _, aa, _) = setup();
        let pks = aa.public_keys();
        let attr: Attribute = "Doctor@MedOrg".parse().unwrap();
        let pk_x = pks.attr_pk(&attr).unwrap();
        let g = G1Affine::generator();
        let lhs = mabe_math::pairing(pk_x, &g);
        let rhs = pks.owner_pk.pow(&attribute_hash(&attr));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn keygen_requires_registration() {
        let (mut r, _, mut aa, alice) = setup();
        let owner = OwnerId::new("owner-1");
        assert!(matches!(
            aa.keygen(&alice.uid, &owner),
            Err(Error::UnknownUser(_))
        ));
        aa.grant(&alice, ["Doctor@MedOrg".parse().unwrap()])
            .unwrap();
        assert!(matches!(
            aa.keygen(&alice.uid, &owner),
            Err(Error::UnknownOwner(_))
        ));
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let sk = aa.keygen(&alice.uid, &owner).unwrap();
        assert_eq!(sk.kx.len(), 1);
        assert_eq!(sk.version, 1);
    }

    #[test]
    fn grant_rejects_foreign_attribute() {
        let (_, _, mut aa, alice) = setup();
        let foreign: Attribute = "Doctor@OtherOrg".parse().unwrap();
        assert!(matches!(
            aa.grant(&alice, [foreign]),
            Err(Error::UnknownAttribute(_))
        ));
    }

    #[test]
    fn grant_extends_attribute_set() {
        let (_, _, mut aa, alice) = setup();
        aa.grant(&alice, ["Doctor@MedOrg".parse().unwrap()])
            .unwrap();
        aa.grant(&alice, ["Nurse@MedOrg".parse().unwrap()]).unwrap();
        assert_eq!(aa.granted_attributes(&alice.uid).unwrap().len(), 2);
    }

    #[test]
    fn secret_key_component_structure() {
        // K_x = PK_UID^{α·H(x)}: e(K_x, g) = e(PK_UID, PK_x).
        let (mut r, _, mut aa, alice) = setup();
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let attr: Attribute = "Doctor@MedOrg".parse().unwrap();
        aa.grant(&alice, [attr.clone()]).unwrap();
        let sk = aa.keygen(&alice.uid, &owner).unwrap();
        let g = G1Affine::generator();
        let pks = aa.public_keys();
        let lhs = mabe_math::pairing(&sk.kx[&attr], &g);
        let rhs = mabe_math::pairing(&alice.pk, pks.attr_pk(&attr).unwrap());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn revocation_bumps_version_and_changes_keys() {
        let (mut r, _, mut aa, alice) = setup();
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let doctor: Attribute = "Doctor@MedOrg".parse().unwrap();
        let nurse: Attribute = "Nurse@MedOrg".parse().unwrap();
        aa.grant(&alice, [doctor.clone(), nurse.clone()]).unwrap();

        let old_pks = aa.public_keys();
        let event = aa.revoke_attribute(&alice.uid, &doctor, &mut r).unwrap();

        assert_eq!(aa.version(), 2);
        assert_eq!(event.from_version, 1);
        assert_eq!(event.to_version, 2);
        assert_ne!(event.new_public_keys.owner_pk, old_pks.owner_pk);
        // Revoked user keeps only the remaining attribute.
        let new_sk = &event.revoked_user_keys[&owner];
        assert!(new_sk.kx.contains_key(&nurse));
        assert!(!new_sk.kx.contains_key(&doctor));
        assert_eq!(new_sk.version, 2);
        // AA forgot the revoked attribute.
        assert!(!aa.granted_attributes(&alice.uid).unwrap().contains(&doctor));
    }

    #[test]
    fn update_key_consistency() {
        // Applying UK to an old key must equal a freshly issued key.
        let (mut r, mut ca, mut aa, alice) = setup();
        let bob = ca.register_user("bob", &mut r).unwrap();
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let doctor: Attribute = "Doctor@MedOrg".parse().unwrap();
        aa.grant(&alice, [doctor.clone()]).unwrap();
        aa.grant(&bob, [doctor.clone()]).unwrap();

        let mut bob_sk = aa.keygen(&bob.uid, &owner).unwrap();
        let event = aa.revoke_attribute(&alice.uid, &doctor, &mut r).unwrap();
        bob_sk.apply_update(&event.update_keys[&owner]).unwrap();

        let fresh = aa.keygen(&bob.uid, &owner).unwrap();
        assert_eq!(bob_sk, fresh, "updated key must match freshly issued key");
    }

    #[test]
    fn revoke_user_strips_all_attributes_in_one_round() {
        let (mut r, _, mut aa, alice) = setup();
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let doctor: Attribute = "Doctor@MedOrg".parse().unwrap();
        let nurse: Attribute = "Nurse@MedOrg".parse().unwrap();
        aa.grant(&alice, [doctor.clone(), nurse.clone()]).unwrap();

        let event = aa.revoke_user(&alice.uid, &mut r).unwrap();
        assert_eq!(aa.version(), 2, "single version bump for the whole set");
        assert_eq!(event.revoked_attributes.len(), 2);
        let new_sk = &event.revoked_user_keys[&owner];
        assert!(new_sk.kx.is_empty());
        assert!(aa.granted_attributes(&alice.uid).unwrap().is_empty());
        // Revoking an attribute-less user fails.
        assert!(matches!(
            aa.revoke_user(&alice.uid, &mut r),
            Err(Error::UnknownUser(_))
        ));
    }

    #[test]
    fn revoke_unheld_attribute_fails() {
        let (mut r, _, mut aa, alice) = setup();
        let doctor: Attribute = "Doctor@MedOrg".parse().unwrap();
        assert!(matches!(
            aa.revoke_attribute(&alice.uid, &doctor, &mut r),
            Err(Error::UnknownUser(_))
        ));
        aa.grant(&alice, ["Nurse@MedOrg".parse().unwrap()]).unwrap();
        assert!(matches!(
            aa.revoke_attribute(&alice.uid, &doctor, &mut r),
            Err(Error::AttributeNotHeld { .. })
        ));
    }

    #[test]
    fn authority_state_roundtrips_through_wire_codec() {
        use crate::serial::WireCodec;
        let (mut r, _, mut aa, alice) = setup();
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        let doctor: Attribute = "Doctor@MedOrg".parse().unwrap();
        let nurse: Attribute = "Nurse@MedOrg".parse().unwrap();
        aa.grant(&alice, [doctor.clone(), nurse]).unwrap();
        // Bump the version so non-trivial version keys are exercised.
        aa.revoke_attribute(&alice.uid, &doctor, &mut r).unwrap();

        let bytes = aa.to_wire_bytes();
        let restored = AttributeAuthority::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored.aid(), aa.aid());
        assert_eq!(restored.version(), aa.version());
        assert_eq!(restored.attributes(), aa.attributes());
        assert_eq!(restored.public_keys(), aa.public_keys());
        assert!(restored.has_owner(&owner));
        assert_eq!(
            restored.granted_attributes(&alice.uid).unwrap(),
            aa.granted_attributes(&alice.uid).unwrap()
        );
        // Keys issued by the restored authority are byte-identical:
        // restart must be invisible to key material.
        assert_eq!(
            restored.keygen(&alice.uid, &owner).unwrap(),
            aa.keygen(&alice.uid, &owner).unwrap()
        );

        // Truncation and trailing bytes fail cleanly.
        for cut in (0..bytes.len()).step_by((bytes.len() / 29).max(1)) {
            assert!(AttributeAuthority::from_wire_bytes(&bytes[..cut]).is_err());
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(AttributeAuthority::from_wire_bytes(&extended).is_err());

        // A granted attribute outside the universe is rejected.
        let mut forged = bytes.clone();
        // (single-bit corruption sweep: must never panic)
        for pos in (0..forged.len()).step_by((forged.len() / 41).max(1)) {
            forged[pos] ^= 0x01;
            let _ = AttributeAuthority::from_wire_bytes(&forged);
            forged[pos] ^= 0x01;
        }
    }

    #[test]
    fn attribute_hash_is_stable_and_authority_scoped() {
        let a: Attribute = "Doctor@MedOrg".parse().unwrap();
        let b: Attribute = "Doctor@OtherOrg".parse().unwrap();
        assert_eq!(attribute_hash(&a), attribute_hash(&a));
        assert_ne!(attribute_hash(&a), attribute_hash(&b));
    }
}
