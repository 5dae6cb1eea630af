//! The multi-authority CP-ABE ciphertext, encryption and decryption
//! (paper §V-B Phases 3–4).
//!
//! ```text
//! CT = ( C  = m · (Π_k PK_{o,AID_k})^s,
//!        C' = g^{βs},
//!        C_i = g^{r·λ_i} · PK_{ρ(i),AID}^{-βs}   for i = 1..l )
//! ```
//!
//! Decryption recombines with constants `w_i` (`Σ w_i λ_i = s`) raised to
//! `w_i · n_A`, where `n_A` is the number of involved authorities
//! (paper Eq. 1). Note the scheme's documented functional requirement: a
//! decryptor needs the `K` component from **every** authority involved in
//! the ciphertext, even those whose attributes its reconstruction subset
//! does not use.
//!
//! Two decryption paths compute the same `G_T` element under the same
//! checks and error order:
//!
//! * [`decrypt`] / [`decrypt_unchecked`] evaluate Eq. 1 as written —
//!   `n_A + 2·|I|` pairings and `|I|` `G_T` exponentiations. They are the
//!   reference for the paper's cost model (Figures 3–4, Table I op
//!   counts) and the security game.
//! * [`decrypt_fast`] serves reads. Every pairing in Eq. 1 has `C'` or
//!   `PK_UID` as one argument, so bilinearity folds the blinding factor
//!   into `e(Σ_k K_k − n_A·Σ_i w_i·K_ρ(i), C') · e(−n_A·Σ_i w_i·C_i,
//!   PK_UID)`: two multi-scalar multiplications ([`mabe_math::msm()`]) and
//!   one two-pair [`mabe_math::multi_pairing`], whatever the policy size.
//!   The outsourced transform ([`crate::outsource`]) shares the fold.
//!
//! Both serving halves take a holder's long-lived preprocessing beside
//! their argument ([`WithTables`]), PBC's `element_pp_t` and
//! `pairing_pp_t`: [`encrypt`] multiplies `PK_x^{−βs}` from a
//! [`FixedBaseCache`] table of `PK_x` where one was built from exactly
//! that key, and [`decrypt_fast`] pairs `PK_UID` from its
//! [`FixedPairing`] lines (the symmetric pairing puts it first). The
//! tables change no byte, op count or random draw.

use std::collections::{BTreeMap, BTreeSet};

use rand::RngCore;

use mabe_math::{pairing, FixedBaseCache, FixedPairing, Fr, G1Affine, Gt, Pairs, G1};
use mabe_policy::{AccessStructure, Attribute, AuthorityId};

use crate::error::Error;
use crate::ids::OwnerId;
use crate::keys::{
    AuthorityPublicKeys, OwnerMasterKey, UserPublicKey, UserSecretKey, GT_BYTES, G_BYTES,
};
use crate::revoke::WithTables;

/// Owner-scoped ciphertext identifier (used to look up the stored
/// encryption exponent during re-encryption).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CiphertextId(pub u64);

impl core::fmt::Display for CiphertextId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ct-{}", self.0)
    }
}

/// A multi-authority CP-ABE ciphertext.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ciphertext {
    /// Owner-scoped identifier.
    pub id: CiphertextId,
    /// The owner that produced this ciphertext.
    pub owner: OwnerId,
    /// `C = m · (Π_k PK_{o,AID_k})^s`.
    pub c: Gt,
    /// `C' = g^{βs}`.
    pub c_prime: G1Affine,
    /// `C_i = g^{r·λ_i} · PK_{ρ(i)}^{-βs}`, one per access-structure row.
    pub c_i: Vec<G1Affine>,
    /// The embedded access structure `(M, ρ)`.
    pub access: AccessStructure,
    /// Version of each involved authority's keys at encryption time
    /// (metadata; bumped by server-side re-encryption).
    pub versions: BTreeMap<AuthorityId, u64>,
}

impl Ciphertext {
    /// Wire size in bytes following the paper's accounting
    /// (`|G_T| + (l + 1)·|G|`, Table II "Ciphertext").
    pub fn wire_size(&self) -> usize {
        GT_BYTES + (self.c_i.len() + 1) * G_BYTES
    }

    /// Number of attribute rows `l`.
    pub fn rows(&self) -> usize {
        self.c_i.len()
    }

    /// The involved authority set `I_A`.
    pub fn involved_authorities(&self) -> BTreeSet<AuthorityId> {
        self.access.authorities()
    }
}

/// Runs `Encrypt` (paper §V-B Phase 3) over a `G_T` message.
///
/// Returns the ciphertext together with the encryption exponent `s`, which
/// the owner must retain to generate re-encryption update information
/// after revocations (§V-C Phase 2).
///
/// `authority_keys` may carry the holder's fixed-base tables of its
/// attribute keys (a [`crate::DataOwner`] keeps them); a row whose
/// `PK_x` has a table built from exactly that point multiplies
/// fixed-base, with the same result.
///
/// # Errors
///
/// * [`Error::MissingAuthorityKey`] if `authority_keys` lacks an involved
///   authority.
/// * [`Error::MissingPublicAttributeKey`] if an attribute's public key is
///   absent.
pub fn encrypt<'a, R: RngCore + ?Sized>(
    message: &Gt,
    access: &AccessStructure,
    mk: &OwnerMasterKey,
    owner: &OwnerId,
    id: CiphertextId,
    authority_keys: impl Into<
        WithTables<'a, BTreeMap<AuthorityId, AuthorityPublicKeys>, FixedBaseCache<Attribute>>,
    >,
    rng: &mut R,
) -> Result<(Ciphertext, Fr), Error> {
    let _span = mabe_telemetry::Span::start("mabe_encrypt");
    let WithTables {
        value: authority_keys,
        tables,
    } = authority_keys.into();
    let involved = access.authorities();
    let mut versions = BTreeMap::new();
    let mut pk_product = Gt::one();
    for aid in &involved {
        let pks = authority_keys
            .get(aid)
            .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))?;
        pk_product = pk_product.mul(&pks.owner_pk);
        versions.insert(aid.clone(), pks.version);
    }

    let s = loop {
        let candidate = Fr::random(rng);
        if !candidate.is_zero() {
            break candidate;
        }
    };
    let shares = access.share(&s, rng);

    let c = message.mul(&pk_product.pow(&s));
    let beta_s = mk.beta.mul(&s);
    let c_prime = G1Affine::from(mabe_math::generator_mul(&beta_s));
    let neg_beta_s = beta_s.neg();

    let mut projective = Vec::with_capacity(access.rows());
    for (row, lambda) in shares.iter().enumerate() {
        let attr = &access.rho()[row];
        let pks = authority_keys
            .get(attr.authority())
            .expect("involved authorities checked above");
        let pk_x = pks.attr_pk(attr)?;
        // C_i = g^{r·λ_i} · PK_x^{-βs}
        let blind = match tables.and_then(|t| t.get(attr, pk_x)) {
            Some(table) => table.mul(&neg_beta_s),
            None => G1::from(*pk_x).mul(&neg_beta_s),
        };
        projective.push(mabe_math::generator_mul(&mk.r.mul(lambda)).add(&blind));
    }
    let c_i = mabe_math::batch_normalize(&projective);

    Ok((
        Ciphertext {
            id,
            owner: owner.clone(),
            c,
            c_prime,
            c_i,
            access: access.clone(),
            versions,
        },
        s,
    ))
}

/// Runs `Decrypt` (paper §V-B Phase 4, Eq. 1).
///
/// `keys` maps each authority to the user's secret key from it; all keys
/// must belong to the same user as `user_pk`, be scoped to the
/// ciphertext's owner, and match the ciphertext's key versions.
///
/// # Errors
///
/// * [`Error::MissingAuthorityKey`] — no key from an involved authority.
/// * [`Error::OwnerMismatch`] / [`Error::VersionMismatch`] — stale or
///   mis-scoped key material (e.g. a revoked user holding old-version
///   keys against a re-encrypted ciphertext).
/// * [`Error::PolicyNotSatisfied`] — the combined attribute set does not
///   satisfy the access structure.
pub fn decrypt(
    ct: &Ciphertext,
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Result<Gt, Error> {
    let _span = mabe_telemetry::Span::with_labels("mabe_decrypt", &[("variant", "reference")]);
    check_keys(ct, user_pk, keys)?;
    decrypt_unchecked(ct, user_pk, keys)
}

/// The metadata validation shared by [`decrypt`] and [`decrypt_fast`]:
/// per involved authority, in order, the key must exist, be scoped to
/// the ciphertext's owner, belong to `user_pk`'s holder and match the
/// ciphertext's key version. Returns the involved authority set.
fn check_keys(
    ct: &Ciphertext,
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Result<BTreeSet<AuthorityId>, Error> {
    let involved = ct.involved_authorities();
    for aid in &involved {
        let key = keys
            .get(aid)
            .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))?;
        if key.owner != ct.owner {
            return Err(Error::OwnerMismatch {
                expected: ct.owner.clone(),
                found: key.owner.clone(),
            });
        }
        if key.uid != user_pk.uid {
            return Err(Error::Malformed("secret key belongs to a different user"));
        }
        let expected = ct.versions[aid];
        if key.version != expected {
            return Err(Error::VersionMismatch {
                authority: aid.clone(),
                expected,
                found: key.version,
            });
        }
    }
    Ok(involved)
}

/// The raw decryption computation with no metadata validation.
///
/// This is the bare cryptographic operation: mismatched or stale key
/// material does not error, it simply yields a `G_T` element that is not
/// the message (useful for negative tests demonstrating the scheme's
/// algebra, and for adversarial experiments).
///
/// # Errors
///
/// * [`Error::MissingAuthorityKey`] — no key from an involved authority.
/// * [`Error::PolicyNotSatisfied`] — attributes cannot reconstruct the
///   secret.
pub fn decrypt_unchecked(
    ct: &Ciphertext,
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Result<Gt, Error> {
    let involved = ct.involved_authorities();
    let n_a = Fr::from_u64(involved.len() as u64);

    // The attribute set certified by the supplied keys.
    let attrs: BTreeSet<_> = keys.values().flat_map(|k| k.kx.keys().cloned()).collect();
    let coefficients = ct
        .access
        .reconstruction_coefficients(&attrs)
        .ok_or(Error::PolicyNotSatisfied)?;

    // Numerator: Π_k e(C', K_{UID,AID_k}) over ALL involved authorities.
    let mut numerator = Gt::one();
    for aid in &involved {
        let key = keys
            .get(aid)
            .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))?;
        numerator = numerator.mul(&pairing(&ct.c_prime, &key.k));
    }

    // Denominator: Π_i (e(C_i, PK_UID) · e(C', K_{ρ(i)}))^{w_i · n_A}.
    let mut denominator = Gt::one();
    for (row, w) in &coefficients {
        let attr = &ct.access.rho()[*row];
        let key = keys
            .get(attr.authority())
            .ok_or_else(|| Error::MissingAuthorityKey(attr.authority().clone()))?;
        let kx = key.kx.get(attr).ok_or(Error::PolicyNotSatisfied)?;
        let term = pairing(&ct.c_i[*row], &user_pk.pk).mul(&pairing(&ct.c_prime, kx));
        denominator = denominator.mul(&term.pow(&w.mul(&n_a)));
    }

    // num / den = Π_k e(g,g)^{α_k s};   m = C / (num / den).
    let blinding = numerator.div(&denominator);
    Ok(ct.c.div(&blinding))
}

/// Serving decryption: the same checks, error order and output as
/// [`decrypt`], with Eq. 1 folded by bilinearity into two pairings under
/// one final exponentiation, after two multi-scalar multiplications,
/// whatever the policy size (see the module docs).
///
/// [`decrypt`] stays the faithful reference for the paper's cost model.
///
/// `user_pk` may carry the Miller lines of `PK_UID` that the reader's
/// holder kept ([`FixedPairing`]); lines built from exactly `PK_UID`
/// replace that pair's Miller loop, with the same result and the same
/// two counted pairings.
///
/// # Errors
///
/// Same contract as [`decrypt`].
pub fn decrypt_fast<'a>(
    ct: &Ciphertext,
    user_pk: impl Into<WithTables<'a, UserPublicKey, FixedPairing>>,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
) -> Result<Gt, Error> {
    let _span = mabe_telemetry::Span::with_labels("mabe_decrypt", &[("variant", "fast")]);
    let WithTables {
        value: user_pk,
        tables: lines,
    } = user_pk.into();
    let involved = check_keys(ct, user_pk, keys)?;
    let pk = WithTables::new(&user_pk.pk, lines);
    let blinding = blinding_factor(ct, &involved, pk, keys)?;
    Ok(ct.c.div(&blinding))
}

/// One authority's key components that Eq. 1 pairs against: `K` and
/// `K_x` per attribute — a user's secret key, or its blinded copy in an
/// outsourcing transform key.
pub(crate) trait PairingKey {
    /// `K`.
    fn k(&self) -> &G1Affine;
    /// `K_x` per held attribute.
    fn kx(&self) -> &BTreeMap<Attribute, G1Affine>;
}

impl PairingKey for UserSecretKey {
    fn k(&self) -> &G1Affine {
        &self.k
    }

    fn kx(&self) -> &BTreeMap<Attribute, G1Affine> {
        &self.kx
    }
}

/// Eq. 1's blinding factor
/// `Π_k e(C', K_k) / Π_i (e(C_i, PK) · e(C', K_ρ(i)))^{w_i·n_A}`,
/// folded by bilinearity into
/// `e(Σ_k K_k − n_A·Σ_i w_i·K_ρ(i), C') · e(−n_A·Σ_i w_i·C_i, PK)`:
/// one [`mabe_math::msm`] call for both sums and one two-pair
/// [`mabe_math::multi_pairing`]. `PK`'s lines, when `pk` carries lines
/// built from exactly `PK`, run that pair as `e(PK, −n_A·Σ_i w_i·C_i)`
/// beside the plain pair, in the same Miller loop and final
/// exponentiation.
///
/// Rows at `w_i = 1` (every row of an AND/OR policy) stay out of the
/// MSMs: mixed additions add them up into one `K_ρ(i)` sum and one `C_i`
/// sum, and each sum, times `−n_A` by double-and-add, joins its MSM's
/// result before the one normalization.
///
/// `involved` is the ciphertext's involved authority set; the walk asks
/// the keys for each attribute in place. No metadata checks; errors
/// come in [`decrypt_unchecked`]'s order.
///
/// # Errors
///
/// * [`Error::PolicyNotSatisfied`] — the keys' attributes cannot
///   reconstruct the secret.
/// * [`Error::MissingAuthorityKey`] — no key from an involved authority.
pub(crate) fn blinding_factor<K: PairingKey>(
    ct: &Ciphertext,
    involved: &BTreeSet<AuthorityId>,
    pk: WithTables<'_, G1Affine, FixedPairing>,
    keys: &BTreeMap<AuthorityId, K>,
) -> Result<Gt, Error> {
    let n = involved.len() as u64;
    let n_a = Fr::from_u64(n);
    // Held means certified by any supplied key, as in decrypt_unchecked.
    let held = |attr: &Attribute| keys.values().any(|k| k.kx().contains_key(attr));
    let coefficients = ct
        .access
        .reconstruction_coefficients(&held)
        .ok_or(Error::PolicyNotSatisfied)?;

    // Terms of Σ_k K_k − n_A·Σ_i w_i·K_ρ(i) and of −n_A·Σ_i w_i·C_i.
    let mut key_terms = Vec::with_capacity(involved.len() + coefficients.len());
    for aid in involved {
        let key = keys
            .get(aid)
            .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))?;
        key_terms.push((*key.k(), Fr::one()));
    }
    let mut row_terms = Vec::with_capacity(coefficients.len());
    let (mut unit_keys, mut unit_rows) = (G1::identity(), G1::identity());
    for (row, w) in &coefficients {
        let attr = &ct.access.rho()[*row];
        let key = keys
            .get(attr.authority())
            .ok_or_else(|| Error::MissingAuthorityKey(attr.authority().clone()))?;
        let kx = key.kx().get(attr).ok_or(Error::PolicyNotSatisfied)?;
        if *w == Fr::one() {
            unit_keys = unit_keys.add_mixed(kx);
            unit_rows = unit_rows.add_mixed(&ct.c_i[*row]);
        } else {
            let exp = w.mul(&n_a).neg();
            key_terms.push((*kx, exp));
            row_terms.push((ct.c_i[*row], exp));
        }
    }
    let [key_sum, row_sum] = mabe_math::msm([&key_terms, &row_terms]);
    // −n_A times each unit sum: a few doublings, no table, no inversion.
    let key_sum = key_sum.add(&unit_keys.mul_by_limbs(&[n]).neg());
    let row_sum = row_sum.add(&unit_rows.mul_by_limbs(&[n]).neg());
    let sums = mabe_math::batch_normalize(&[key_sum, row_sum]);
    let plain = (sums[0], ct.c_prime);
    Ok(match pk.tables.filter(|lines| lines.base() == pk.value) {
        Some(lines) => mabe_math::multi_pairing(Pairs::with_fixed(&[plain], lines, sums[1])),
        None => mabe_math::multi_pairing(&[plain, (sums[1], *pk.value)]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use crate::ids::Uid;
    use mabe_policy::{parse, AccessStructure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        rng: StdRng,
        ca: CertificateAuthority,
        aas: Vec<AttributeAuthority>,
        owner: OwnerId,
        mk: OwnerMasterKey,
        authority_keys: BTreeMap<AuthorityId, AuthorityPublicKeys>,
    }

    /// Two authorities (Med: Doctor/Nurse, Trial: Researcher/Sponsor) and
    /// one owner, everything registered.
    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut ca = CertificateAuthority::new();
        let owner = OwnerId::new("hospital-data");
        let mk = OwnerMasterKey::random(&mut rng);
        let mut aas = Vec::new();
        for (name, attrs) in [
            ("Med", vec!["Doctor", "Nurse"]),
            ("Trial", vec!["Researcher", "Sponsor"]),
        ] {
            let aid = ca.register_authority(name).unwrap();
            let mut aa = AttributeAuthority::new(aid, &attrs, &mut rng);
            aa.register_owner(mk.secret_key(&owner)).unwrap();
            aas.push(aa);
        }
        let authority_keys = aas
            .iter()
            .map(|aa| (aa.aid().clone(), aa.public_keys()))
            .collect();
        Fixture {
            rng,
            ca,
            aas,
            owner,
            mk,
            authority_keys,
        }
    }

    impl Fixture {
        fn enroll(
            &mut self,
            uid: &str,
            attrs: &[&str],
        ) -> (UserPublicKey, BTreeMap<AuthorityId, UserSecretKey>) {
            let pk = self.ca.register_user(uid, &mut self.rng).unwrap();
            let mut keys = BTreeMap::new();
            for aa in &mut self.aas {
                let mine: Vec<mabe_policy::Attribute> = attrs
                    .iter()
                    .filter_map(|s| s.parse::<mabe_policy::Attribute>().ok())
                    .filter(|a| a.authority() == aa.aid())
                    .collect();
                if !mine.is_empty() {
                    aa.grant(&pk, mine).unwrap();
                    keys.insert(aa.aid().clone(), aa.keygen(&pk.uid, &self.owner).unwrap());
                }
            }
            (pk, keys)
        }

        fn encrypt(&mut self, msg: &Gt, policy: &str) -> Ciphertext {
            let access = AccessStructure::from_policy(&parse(policy).unwrap()).unwrap();
            encrypt(
                msg,
                &access,
                &self.mk,
                &self.owner,
                CiphertextId(1),
                &self.authority_keys,
                &mut self.rng,
            )
            .unwrap()
            .0
        }
    }

    #[test]
    fn single_authority_roundtrip() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med");
        let (pk, keys) = fx.enroll("alice", &["Doctor@Med"]);
        assert_eq!(decrypt(&ct, &pk, &keys).unwrap(), msg);
    }

    #[test]
    fn cross_authority_and_policy() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let (pk, keys) = fx.enroll("alice", &["Doctor@Med", "Researcher@Trial"]);
        assert_eq!(decrypt(&ct, &pk, &keys).unwrap(), msg);
        assert_eq!(ct.involved_authorities().len(), 2);
        assert_eq!(ct.rows(), 2);
    }

    #[test]
    fn insufficient_attributes_rejected() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let (pk, keys) = fx.enroll("mallory", &["Doctor@Med", "Sponsor@Trial"]);
        assert_eq!(decrypt(&ct, &pk, &keys), Err(Error::PolicyNotSatisfied));
    }

    #[test]
    fn missing_authority_key_rejected() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let (pk, mut keys) = fx.enroll("alice", &["Doctor@Med", "Researcher@Trial"]);
        keys.remove(&AuthorityId::new("Trial"));
        assert!(matches!(
            decrypt(&ct, &pk, &keys),
            Err(Error::MissingAuthorityKey(_))
        ));
    }

    #[test]
    fn or_policy_still_requires_all_involved_authorities() {
        // Documented functional property of the scheme: an OR across
        // authorities still needs a K component from both.
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med OR Researcher@Trial");
        let (pk, keys) = fx.enroll("alice", &["Doctor@Med"]);
        assert!(matches!(
            decrypt(&ct, &pk, &keys),
            Err(Error::MissingAuthorityKey(_))
        ));
        // With a (possibly empty-attribute) key from Trial it works.
        let (pk2, keys2) = fx.enroll("bob", &["Doctor@Med", "Sponsor@Trial"]);
        assert_eq!(decrypt(&ct, &pk2, &keys2).unwrap(), msg);
    }

    #[test]
    fn threshold_policy_roundtrip() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "2 of (Doctor@Med, Nurse@Med, Researcher@Trial)");
        let (pk, keys) = fx.enroll("alice", &["Doctor@Med", "Nurse@Med", "Sponsor@Trial"]);
        assert_eq!(decrypt(&ct, &pk, &keys).unwrap(), msg);
    }

    #[test]
    fn collusion_attack_fails() {
        // Alice holds Doctor@Med, Bob holds Researcher@Trial. Pooling
        // their keys must NOT decrypt a (Doctor AND Researcher) ciphertext
        // because the keys embed different UIDs.
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let (alice_pk, alice_keys) = fx.enroll("alice", &["Doctor@Med", "Sponsor@Trial"]);
        let (_bob_pk, bob_keys) = fx.enroll("bob", &["Nurse@Med", "Researcher@Trial"]);

        // Colluders pool: Alice's Med key + Bob's Trial key.
        let mut pooled = BTreeMap::new();
        pooled.insert(
            AuthorityId::new("Med"),
            alice_keys[&AuthorityId::new("Med")].clone(),
        );
        pooled.insert(
            AuthorityId::new("Trial"),
            bob_keys[&AuthorityId::new("Trial")].clone(),
        );

        // The metadata-checked path refuses (keys from different users).
        assert!(decrypt(&ct, &alice_pk, &pooled).is_err());

        // Even the raw computation (adversary ignores checks, tries both
        // public keys) yields garbage, not the message.
        let kx_union: BTreeSet<_> = pooled.values().flat_map(|k| k.kx.keys().cloned()).collect();
        assert!(
            ct.access.reconstruction_coefficients(&kx_union).is_some(),
            "pooled attributes do satisfy the policy — the crypto must still resist"
        );
        let forged_alice = force_decrypt(&ct, &alice_pk, &pooled);
        assert_ne!(forged_alice, msg);
        let bob_pk_full = fx.ca.user_public_key(&Uid::new("bob")).unwrap().clone();
        let forged_bob = force_decrypt(&ct, &bob_pk_full, &pooled);
        assert_ne!(forged_bob, msg);
    }

    /// Runs the decryption algebra while bypassing UID consistency checks,
    /// as a colluding adversary would.
    fn force_decrypt(
        ct: &Ciphertext,
        upk: &UserPublicKey,
        keys: &BTreeMap<AuthorityId, UserSecretKey>,
    ) -> Gt {
        let mut fixed = BTreeMap::new();
        for (aid, k) in keys {
            let mut k = k.clone();
            k.uid = upk.uid.clone();
            fixed.insert(aid.clone(), k);
        }
        decrypt_unchecked(ct, upk, &fixed).unwrap()
    }

    #[test]
    fn wrong_user_public_key_yields_garbage() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med");
        let (_pk, keys) = fx.enroll("alice", &["Doctor@Med"]);
        let (eve_pk, _) = fx.enroll("eve", &["Nurse@Med"]);
        assert_ne!(force_decrypt(&ct, &eve_pk, &keys), msg);
    }

    #[test]
    fn ciphertext_size_accounting() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Nurse@Med AND Researcher@Trial");
        // |GT| + (l+1)|G| with l = 3.
        assert_eq!(ct.wire_size(), GT_BYTES + 4 * G_BYTES);
    }

    #[test]
    fn encrypt_rejects_unknown_authority() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let access = AccessStructure::from_policy(&parse("X@Nowhere").unwrap()).unwrap();
        let err = encrypt(
            &msg,
            &access,
            &fx.mk,
            &fx.owner,
            CiphertextId(9),
            &fx.authority_keys,
            &mut fx.rng,
        )
        .unwrap_err();
        assert!(matches!(err, Error::MissingAuthorityKey(_)));
    }

    #[test]
    fn same_message_two_encryptions_differ() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct1 = fx.encrypt(&msg, "Doctor@Med");
        let ct2 = fx.encrypt(&msg, "Doctor@Med");
        assert_ne!(ct1.c, ct2.c, "probabilistic encryption must rerandomize");
        assert_ne!(ct1.c_prime, ct2.c_prime);
    }

    #[test]
    fn fast_decrypt_matches_reference() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        for policy in [
            "Doctor@Med",
            "Doctor@Med AND Researcher@Trial",
            "2 of (Doctor@Med, Nurse@Med, Researcher@Trial)",
        ] {
            let ct = fx.encrypt(&msg, policy);
            let (pk, keys) = fx.enroll(
                &format!("u-{}", policy.len()),
                &["Doctor@Med", "Nurse@Med", "Researcher@Trial"],
            );
            let reference = decrypt(&ct, &pk, &keys).unwrap();
            let fast = decrypt_fast(&ct, &pk, &keys).unwrap();
            assert_eq!(reference, fast);
            assert_eq!(fast, msg);
        }
    }

    #[test]
    fn fast_decrypt_same_error_contract() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let (pk, keys) = fx.enroll("weak", &["Doctor@Med", "Sponsor@Trial"]);
        assert_eq!(
            decrypt_fast(&ct, &pk, &keys),
            Err(Error::PolicyNotSatisfied)
        );
        let (pk2, mut keys2) = fx.enroll("missing", &["Doctor@Med", "Researcher@Trial"]);
        keys2.remove(&AuthorityId::new("Trial"));
        assert!(matches!(
            decrypt_fast(&ct, &pk2, &keys2),
            Err(Error::MissingAuthorityKey(_))
        ));
    }

    #[test]
    fn extra_keys_are_harmless() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med");
        let (pk, keys) = fx.enroll("alice", &["Doctor@Med", "Researcher@Trial"]);
        // keys contains Trial as well; decryption should ignore it.
        assert_eq!(decrypt(&ct, &pk, &keys).unwrap(), msg);
    }
}
