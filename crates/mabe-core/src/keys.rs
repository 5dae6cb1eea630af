//! Key material of the multi-authority scheme (paper §V-B, Table II).
//!
//! | Paper object | Type here |
//! |---|---|
//! | `PK_UID = g^u` | [`UserPublicKey`] |
//! | `MK_o = {β, r}` | [`OwnerMasterKey`] |
//! | `SK_o = {g^{1/β}, r/β}` | [`OwnerSecretKey`] |
//! | `VK_AID = α_AID` | [`VersionKey`] |
//! | `PK_{x,AID} = g^{α·H(x)}` | entries of [`AuthorityPublicKeys`] |
//! | `PK_{o,AID} = e(g,g)^α` | [`AuthorityPublicKeys::owner_pk`] |
//! | `SK_{UID,AID}` | [`UserSecretKey`] |
//! | `UK_AID` | [`UpdateKey`] |
//!
//! Every type reports its **wire size** with the same element accounting
//! the paper uses in Tables II–IV (`|G|` = 65-byte compressed point,
//! `|G_T|` = 128 bytes, `|Z_p|` = 20 bytes).

use std::collections::BTreeMap;

use mabe_math::{Fr, G1Affine, Gt};
use mabe_policy::{Attribute, AuthorityId};
use mabe_telemetry::SpanMetric;

use crate::error::Error;
use crate::ids::{OwnerId, Uid};

static APPLY_UPDATE: SpanMetric = SpanMetric::new("mabe_apply_update", &[]);

/// Size in bytes of a compressed `G` element (the paper's `|G|`).
pub const G_BYTES: usize = 65;
/// Size in bytes of a `G_T` element (the paper's `|G_T|`).
pub const GT_BYTES: usize = 128;
/// Size in bytes of a scalar (the paper's `|Z_p|` / `|p|`).
pub const ZP_BYTES: usize = 20;

/// The user's global public key `PK_UID = g^u` issued by the CA.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UserPublicKey {
    /// The user this key belongs to.
    pub uid: Uid,
    /// `g^u`.
    pub pk: G1Affine,
}

impl UserPublicKey {
    /// Wire size in bytes (one `G` element; the UID label is metadata).
    pub fn wire_size(&self) -> usize {
        G_BYTES
    }
}

/// The owner's master key `MK_o = {β, r}` — never leaves the owner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OwnerMasterKey {
    pub(crate) beta: Fr,
    pub(crate) r: Fr,
}

impl OwnerMasterKey {
    /// Samples a fresh master key.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let beta = Fr::random(rng);
            let r = Fr::random(rng);
            if !beta.is_zero() && !r.is_zero() {
                return OwnerMasterKey { beta, r };
            }
        }
    }

    /// Derives the owner secret key `SK_o = {g^{1/β}, r/β}` that is sent
    /// to each authority over a secure channel.
    pub fn secret_key(&self, owner: &OwnerId) -> OwnerSecretKey {
        let beta_inv = self.beta.invert().expect("β is nonzero");
        let g_inv_beta = G1Affine::from(mabe_math::generator_mul(&beta_inv));
        OwnerSecretKey {
            owner: owner.clone(),
            g_inv_beta,
            r_over_beta: self.r.mul(&beta_inv),
        }
    }
}

/// The owner secret key `SK_o` shared with the authorities.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OwnerSecretKey {
    /// Owner this key belongs to.
    pub owner: OwnerId,
    /// `g^{1/β}`.
    pub g_inv_beta: G1Affine,
    /// `r/β`.
    pub r_over_beta: Fr,
}

impl OwnerSecretKey {
    /// Wire size in bytes (`|G| + |Z_p|`).
    pub fn wire_size(&self) -> usize {
        G_BYTES + ZP_BYTES
    }
}

/// An authority's private version key `VK_AID = α_AID`, with a version
/// counter so key material and ciphertexts can be matched up after
/// revocations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionKey {
    /// The issuing authority.
    pub aid: AuthorityId,
    /// Monotone version counter (bumped by every revocation).
    pub version: u64,
    pub(crate) alpha: Fr,
}

impl VersionKey {
    /// Wire size in bytes (the paper's Table III: authority storage = `|p|`).
    pub fn wire_size(&self) -> usize {
        ZP_BYTES
    }
}

/// The published key set of one authority: the encryption key
/// `PK_{o,AID} = e(g,g)^α` and the public attribute keys
/// `PK_{x,AID} = g^{α·H(x)}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuthorityPublicKeys {
    /// The issuing authority.
    pub aid: AuthorityId,
    /// Version these keys correspond to.
    pub version: u64,
    /// `PK_{o,AID} = e(g,g)^α` — used by owners for encryption.
    pub owner_pk: Gt,
    /// `PK_{x,AID} = g^{α·H(x)}` per managed attribute.
    pub attr_pks: BTreeMap<Attribute, G1Affine>,
}

impl AuthorityPublicKeys {
    /// Wire size in bytes (`n_k · |G| + |G_T|`, Table II "Public Key").
    pub fn wire_size(&self) -> usize {
        self.attr_pks.len() * G_BYTES + GT_BYTES
    }

    /// Looks up one public attribute key.
    pub fn attr_pk(&self, attr: &Attribute) -> Result<&G1Affine, Error> {
        self.attr_pks
            .get(attr)
            .ok_or_else(|| Error::MissingPublicAttributeKey(attr.clone()))
    }
}

/// A user's secret key from one authority, scoped to one owner:
/// `SK_{UID,AID} = (K = PK_UID^{r/β} · g^{α/β}, {K_x = PK_UID^{α·H(x)}})`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UserSecretKey {
    /// The key holder.
    pub uid: Uid,
    /// The issuing authority.
    pub aid: AuthorityId,
    /// The owner whose `SK_o` was folded into `K`.
    pub owner: OwnerId,
    /// Authority key version this key matches.
    pub version: u64,
    /// `K = PK_UID^{r/β} · g^{α/β}`.
    pub k: G1Affine,
    /// `K_x = PK_UID^{α·H(x)}` per held attribute.
    pub kx: BTreeMap<Attribute, G1Affine>,
}

impl UserSecretKey {
    /// Wire size in bytes (`|G| + n_{k,UID} · |G|`, Table II "Secret Key").
    pub fn wire_size(&self) -> usize {
        G_BYTES + self.kx.len() * G_BYTES
    }

    /// The attribute set this key certifies.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> {
        self.kx.keys()
    }

    /// Applies an update key after a revocation at this authority
    /// (paper §V-C step 2): `K̃ = K · UK1`, `K̃_x = K_x^{UK2}`.
    ///
    /// # Errors
    ///
    /// Fails if the update key targets a different authority or owner, or
    /// if versions do not chain (`uk.from_version != self.version`).
    pub fn apply_update(&mut self, uk: &UpdateKey) -> Result<(), Error> {
        let _span = mabe_telemetry::Span::on(&APPLY_UPDATE);
        if uk.aid != self.aid {
            return Err(Error::Malformed("update key for different authority"));
        }
        if uk.owner != self.owner {
            return Err(Error::OwnerMismatch {
                expected: self.owner.clone(),
                found: uk.owner.clone(),
            });
        }
        if uk.from_version != self.version {
            return Err(Error::VersionMismatch {
                authority: self.aid.clone(),
                expected: uk.from_version,
                found: self.version,
            });
        }
        self.k = G1Affine::from(mabe_math::G1::from(self.k).add_mixed(&uk.uk1));
        for v in self.kx.values_mut() {
            *v = G1Affine::from(mabe_math::G1::from(*v).mul(&uk.uk2));
        }
        self.version = uk.to_version;
        Ok(())
    }
}

/// The update key `UK_AID = (UK1 = g^{(α̃-α)/β}, UK2 = α̃/α)` produced by
/// [`crate::authority::AttributeAuthority::revoke_attribute`].
///
/// `UK1` involves the owner's `β`, so update keys are per-owner; `UK2` is
/// the same scalar for every owner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateKey {
    /// Authority whose version key changed.
    pub aid: AuthorityId,
    /// Version the receiver must currently be at.
    pub from_version: u64,
    /// Version after applying this key.
    pub to_version: u64,
    /// Owner scope of `UK1`.
    pub owner: OwnerId,
    /// `UK1 = g^{(α̃-α)/β}`.
    pub uk1: G1Affine,
    /// `UK2 = α̃/α`.
    pub uk2: Fr,
}

impl UpdateKey {
    /// Wire size in bytes (`|G| + |Z_p|`).
    pub fn wire_size(&self) -> usize {
        G_BYTES + ZP_BYTES
    }

    /// Composes two consecutive update keys into one covering both
    /// version steps: `UK1 = g^{(α₂-α₀)/β} = UK1_a · UK1_b` and
    /// `UK2 = α₂/α₀ = UK2_a · UK2_b`. Lets an offline user (or a lazy
    /// owner) catch up across many revocations with a single compact
    /// key.
    ///
    /// # Errors
    ///
    /// Fails unless `next` continues exactly where `self` ends, for the
    /// same authority and owner.
    pub fn compose(&self, next: &UpdateKey) -> Result<UpdateKey, Error> {
        if self.aid != next.aid {
            return Err(Error::Malformed(
                "composing update keys of different authorities",
            ));
        }
        if self.owner != next.owner {
            return Err(Error::OwnerMismatch {
                expected: self.owner.clone(),
                found: next.owner.clone(),
            });
        }
        if next.from_version != self.to_version {
            return Err(Error::VersionMismatch {
                authority: self.aid.clone(),
                expected: self.to_version,
                found: next.from_version,
            });
        }
        Ok(UpdateKey {
            aid: self.aid.clone(),
            from_version: self.from_version,
            to_version: next.to_version,
            owner: self.owner.clone(),
            uk1: G1Affine::from(mabe_math::G1::from(self.uk1).add_mixed(&next.uk1)),
            uk2: self.uk2.mul(&next.uk2),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn owner_master_key_derives_secret_key() {
        let mut r = rng();
        let mk = OwnerMasterKey::random(&mut r);
        let sk = mk.secret_key(&OwnerId::new("owner-1"));
        // (g^{1/β})^β = g
        let g = mabe_math::G1::generator();
        assert_eq!(mabe_math::G1::from(sk.g_inv_beta).mul(&mk.beta), g);
        // (r/β)·β = r
        assert_eq!(sk.r_over_beta.mul(&mk.beta), mk.r);
    }

    #[test]
    fn wire_sizes_match_paper_formulas() {
        let mut r = rng();
        let mk = OwnerMasterKey::random(&mut r);
        let sk = mk.secret_key(&OwnerId::new("o"));
        assert_eq!(sk.wire_size(), G_BYTES + ZP_BYTES);

        let aid = AuthorityId::new("A1");
        let vk = VersionKey {
            aid: aid.clone(),
            version: 1,
            alpha: Fr::from_u64(3),
        };
        assert_eq!(vk.wire_size(), ZP_BYTES);

        let attr: Attribute = "x@A1".parse().unwrap();
        let pks = AuthorityPublicKeys {
            aid: aid.clone(),
            version: 1,
            owner_pk: Gt::generator(),
            attr_pks: [(attr.clone(), G1Affine::generator())]
                .into_iter()
                .collect(),
        };
        assert_eq!(pks.wire_size(), G_BYTES + GT_BYTES);

        let usk = UserSecretKey {
            uid: Uid::new("u"),
            aid,
            owner: OwnerId::new("o"),
            version: 1,
            k: G1Affine::generator(),
            kx: [(attr, G1Affine::generator())].into_iter().collect(),
        };
        assert_eq!(usk.wire_size(), 2 * G_BYTES);
    }

    #[test]
    fn attr_pk_lookup_errors_on_missing() {
        let aid = AuthorityId::new("A1");
        let pks = AuthorityPublicKeys {
            aid,
            version: 1,
            owner_pk: Gt::generator(),
            attr_pks: BTreeMap::new(),
        };
        let attr: Attribute = "x@A1".parse().unwrap();
        assert_eq!(
            pks.attr_pk(&attr),
            Err(Error::MissingPublicAttributeKey(attr))
        );
    }

    #[test]
    fn composed_update_equals_sequential_updates() {
        use crate::authority::AttributeAuthority;
        use crate::ca::CertificateAuthority;
        let mut r = rng();
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Org").unwrap();
        let mut aa = AttributeAuthority::new(aid.clone(), &["A"], &mut r);
        let owner = OwnerId::new("o");
        let mk = OwnerMasterKey::random(&mut r);
        aa.register_owner(mk.secret_key(&owner)).unwrap();

        let keeper = ca.register_user("keeper", &mut r).unwrap();
        let victim1 = ca.register_user("v1", &mut r).unwrap();
        let victim2 = ca.register_user("v2", &mut r).unwrap();
        let attr: Attribute = "A@Org".parse().unwrap();
        for pk in [&keeper, &victim1, &victim2] {
            aa.grant(pk, [attr.clone()]).unwrap();
        }
        let base_key = aa.keygen(&keeper.uid, &owner).unwrap();

        // Two revocations produce two chained update keys.
        let e1 = aa.revoke_attribute(&victim1.uid, &attr, &mut r).unwrap();
        let e2 = aa.revoke_attribute(&victim2.uid, &attr, &mut r).unwrap();
        let uk1 = e1.update_keys[&owner].clone();
        let uk2 = e2.update_keys[&owner].clone();

        // Sequential application.
        let mut sequential = base_key.clone();
        sequential.apply_update(&uk1).unwrap();
        sequential.apply_update(&uk2).unwrap();

        // Composed application.
        let combined = uk1.compose(&uk2).unwrap();
        assert_eq!(combined.from_version, 1);
        assert_eq!(combined.to_version, 3);
        let mut composed = base_key;
        composed.apply_update(&combined).unwrap();

        assert_eq!(sequential, composed);
        // And it matches a freshly issued key.
        assert_eq!(composed, aa.keygen(&keeper.uid, &owner).unwrap());
    }

    #[test]
    fn compose_validates_chaining() {
        let mut r = rng();
        let mut uk = |aid: &str, from: u64, to: u64, owner: &str| UpdateKey {
            aid: AuthorityId::new(aid),
            from_version: from,
            to_version: to,
            owner: OwnerId::new(owner),
            uk1: G1Affine::from(mabe_math::G1::random(&mut r)),
            uk2: Fr::from_u64(3),
        };
        let a = uk("X", 1, 2, "o");
        assert!(a.compose(&uk("Y", 2, 3, "o")).is_err());
        assert!(a.compose(&uk("X", 3, 4, "o")).is_err());
        assert!(a.compose(&uk("X", 2, 3, "other")).is_err());
        assert!(a.compose(&uk("X", 2, 3, "o")).is_ok());
    }

    #[test]
    fn apply_update_rejects_wrong_target() {
        let mut r = rng();
        let mut usk = UserSecretKey {
            uid: Uid::new("u"),
            aid: AuthorityId::new("A1"),
            owner: OwnerId::new("o"),
            version: 1,
            k: G1Affine::generator(),
            kx: BTreeMap::new(),
        };
        let uk = UpdateKey {
            aid: AuthorityId::new("A2"),
            from_version: 1,
            to_version: 2,
            owner: OwnerId::new("o"),
            uk1: G1Affine::from(mabe_math::G1::random(&mut r)),
            uk2: Fr::from_u64(2),
        };
        assert!(usk.apply_update(&uk).is_err());

        let uk_wrong_ver = UpdateKey {
            aid: AuthorityId::new("A1"),
            from_version: 5,
            ..uk.clone()
        };
        assert!(matches!(
            usk.apply_update(&uk_wrong_ver),
            Err(Error::VersionMismatch { .. })
        ));

        let uk_wrong_owner = UpdateKey {
            aid: AuthorityId::new("A1"),
            from_version: 1,
            owner: OwnerId::new("other"),
            ..uk
        };
        assert!(matches!(
            usk.apply_update(&uk_wrong_owner),
            Err(Error::OwnerMismatch { .. })
        ));
    }
}
