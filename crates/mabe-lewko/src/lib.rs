//! # mabe-lewko
//!
//! The comparison baseline of the paper's evaluation: the Lewko–Waters
//! **decentralizing attribute-based encryption** scheme (EUROCRYPT 2011),
//! in its prime-order / random-oracle variant — the same variant the
//! paper benchmarks ("we choose the Lewko's second scheme for
//! comparison", §VI-C).
//!
//! Built on the identical type-A pairing substrate as the paper's scheme
//! so the head-to-head timings of Figures 3–4 and the size accounting of
//! Tables II–IV are apples-to-apples.
//!
//! ## Scheme sketch
//!
//! * Per attribute `x`: secrets `(α_x, y_x)`; public
//!   `(e(g,g)^{α_x}, g^{y_x})`.
//! * `H : GID → G` ties a user's keys together:
//!   `K_{x,GID} = g^{α_x} · H(GID)^{y_x}`.
//! * Encryption shares `s` via `λ_i` and 0 via `ω_i` over the LSSS matrix:
//!   `C₀ = M·e(g,g)^s`, and per row
//!   `C₁ᵢ = e(g,g)^{λᵢ}·e(g,g)^{α_{ρ(i)} rᵢ}`, `C₂ᵢ = g^{rᵢ}`,
//!   `C₃ᵢ = g^{y_{ρ(i)} rᵢ}·g^{ωᵢ}`.
//! * Decryption per used row:
//!   `C₁ᵢ · e(H(GID), C₃ᵢ) / e(K_{ρ(i)}, C₂ᵢ) = e(g,g)^{λᵢ}·e(H(GID),g)^{ωᵢ}`,
//!   recombined with the LSSS coefficients (`Σ cᵢ ωᵢ = 0` kills the GID
//!   factor).
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeMap;
//! use rand::SeedableRng;
//! use mabe_lewko::{LewkoAuthority, encrypt, decrypt};
//! use mabe_math::Gt;
//! use mabe_policy::{parse, AccessStructure, AuthorityId};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let aa = LewkoAuthority::new(AuthorityId::new("Med"), &["Doctor"], &mut rng);
//! let pks = aa.public_keys();
//!
//! let access = AccessStructure::from_policy(&parse("Doctor@Med")?)?;
//! let msg = Gt::random(&mut rng);
//! let ct = encrypt(&msg, &access, &BTreeMap::from([(aa.aid().clone(), pks)]), &mut rng)?;
//!
//! let keys = BTreeMap::from([aa.keygen("alice", &"Doctor@Med".parse()?).map(|k| (k.attribute.clone(), k))?]);
//! assert_eq!(decrypt(&ct, "alice", &keys)?, msg);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::RngCore;

use mabe_math::{hash_to_curve, pairing, FixedBaseCache, Fr, G1Affine, Gt, WithTables, G1};
use mabe_policy::{AccessStructure, Attribute, AuthorityId};

/// Size in bytes of a compressed `G` element.
pub const G_BYTES: usize = 65;
/// Size in bytes of a `G_T` element.
pub const GT_BYTES: usize = 128;
/// Size in bytes of a scalar.
pub const ZP_BYTES: usize = 20;

/// Errors returned by the baseline scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LewkoError {
    /// Attribute not managed by this authority.
    UnknownAttribute(Attribute),
    /// The public key set lacks a required attribute entry.
    MissingPublicKey(Attribute),
    /// The supplied keys do not satisfy the access structure.
    PolicyNotSatisfied,
    /// A key certifies a different GID than the decryptor claims.
    GidMismatch,
}

impl fmt::Display for LewkoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LewkoError::UnknownAttribute(a) => write!(f, "attribute {a} is not managed here"),
            LewkoError::MissingPublicKey(a) => write!(f, "no public key for attribute {a}"),
            LewkoError::PolicyNotSatisfied => {
                write!(f, "attributes do not satisfy the access policy")
            }
            LewkoError::GidMismatch => write!(f, "key certifies a different GID"),
        }
    }
}

impl std::error::Error for LewkoError {}

/// The random oracle `H : GID → G`.
pub fn hash_gid(gid: &str) -> G1Affine {
    hash_to_curve(format!("lewko-gid:{gid}").as_bytes())
}

/// Per-attribute authority secrets `(α_x, y_x)`.
#[derive(Clone, Debug)]
struct AttributeSecrets {
    alpha: Fr,
    y: Fr,
}

/// A Lewko–Waters attribute authority.
#[derive(Debug)]
pub struct LewkoAuthority {
    aid: AuthorityId,
    attrs: BTreeMap<Attribute, AttributeSecrets>,
}

/// An authority's published per-attribute keys
/// `(e(g,g)^{α_x}, g^{y_x})`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LewkoPublicKeys {
    /// The publishing authority.
    pub aid: AuthorityId,
    /// Per attribute: `(e(g,g)^{α_x}, g^{y_x})`.
    pub entries: BTreeMap<Attribute, (Gt, G1Affine)>,
}

impl LewkoPublicKeys {
    /// Wire size in bytes (`n_k · (|G_T| + |G|)`, paper Table II).
    pub fn wire_size(&self) -> usize {
        self.entries.len() * (GT_BYTES + G_BYTES)
    }
}

/// A user's key for one attribute: `K = g^{α_x} · H(GID)^{y_x}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LewkoAttributeKey {
    /// The certified attribute.
    pub attribute: Attribute,
    /// The holder's global identifier.
    pub gid: String,
    /// `g^{α_x} · H(GID)^{y_x}`.
    pub k: G1Affine,
}

impl LewkoAttributeKey {
    /// Wire size in bytes (one `G` element).
    pub fn wire_size(&self) -> usize {
        G_BYTES
    }
}

impl LewkoAuthority {
    /// Sets up an authority managing the given attribute names.
    pub fn new<R, S>(aid: AuthorityId, attribute_names: &[S], rng: &mut R) -> Self
    where
        R: RngCore + ?Sized,
        S: AsRef<str>,
    {
        let attrs = attribute_names
            .iter()
            .map(|n| {
                let attr = Attribute::new(n.as_ref(), aid.clone());
                (
                    attr,
                    AttributeSecrets {
                        alpha: Fr::random(rng),
                        y: Fr::random(rng),
                    },
                )
            })
            .collect();
        LewkoAuthority { aid, attrs }
    }

    /// This authority's identifier.
    pub fn aid(&self) -> &AuthorityId {
        &self.aid
    }

    /// The managed attribute universe.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> {
        self.attrs.keys()
    }

    /// Publishes `(e(g,g)^{α_x}, g^{y_x})` for every managed attribute.
    pub fn public_keys(&self) -> LewkoPublicKeys {
        let g = Gt::generator();
        let entries = self
            .attrs
            .iter()
            .map(|(attr, s)| {
                let e_alpha = g.pow(&s.alpha);
                let g_y = G1Affine::from(mabe_math::generator_mul(&s.y));
                (attr.clone(), (e_alpha, g_y))
            })
            .collect();
        LewkoPublicKeys {
            aid: self.aid.clone(),
            entries,
        }
    }

    /// Issues the key for one `(GID, attribute)` pair.
    ///
    /// # Errors
    ///
    /// Fails if the attribute is not managed here.
    pub fn keygen(&self, gid: &str, attr: &Attribute) -> Result<LewkoAttributeKey, LewkoError> {
        let secrets = self
            .attrs
            .get(attr)
            .ok_or_else(|| LewkoError::UnknownAttribute(attr.clone()))?;
        // K = g^{α} · H(GID)^{y}
        let k =
            mabe_math::generator_mul(&secrets.alpha).add(&G1::from(hash_gid(gid)).mul(&secrets.y));
        Ok(LewkoAttributeKey {
            attribute: attr.clone(),
            gid: gid.to_owned(),
            k: G1Affine::from(k),
        })
    }

    /// Authority secret storage in bytes (`2·n_k·|Z_p|`, Table III "AA").
    pub fn storage_size(&self) -> usize {
        2 * self.attrs.len() * ZP_BYTES
    }
}

/// One per-row component triple of a ciphertext.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LewkoRow {
    /// `C₁ᵢ = e(g,g)^{λᵢ} · e(g,g)^{α_{ρ(i)} rᵢ}`.
    pub c1: Gt,
    /// `C₂ᵢ = g^{rᵢ}`.
    pub c2: G1Affine,
    /// `C₃ᵢ = g^{y_{ρ(i)} rᵢ} · g^{ωᵢ}`.
    pub c3: G1Affine,
}

/// A Lewko–Waters ciphertext.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LewkoCiphertext {
    /// `C₀ = M · e(g,g)^s`.
    pub c0: Gt,
    /// Per-row components.
    pub rows: Vec<LewkoRow>,
    /// The embedded access structure.
    pub access: AccessStructure,
}

impl LewkoCiphertext {
    /// Wire size in bytes (`(l+1)·|G_T| + 2l·|G|`, paper Table II).
    pub fn wire_size(&self) -> usize {
        (self.rows.len() + 1) * GT_BYTES + 2 * self.rows.len() * G_BYTES
    }

    /// Number of attribute rows `l`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the ciphertext has no rows (degenerate).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Encrypts a `G_T` message under an LSSS access structure.
///
/// `public_keys` may carry the encryptor's fixed-base tables of the
/// `g^{y_x}` keys, kept per attribute as an owner of the paper's scheme
/// keeps its `PK_x` tables; a row whose key has a table built from
/// exactly that point multiplies fixed-base, with the same result.
///
/// # Errors
///
/// Fails with [`LewkoError::MissingPublicKey`] if a row's attribute has no
/// published key.
pub fn encrypt<'a, R: RngCore + ?Sized>(
    message: &Gt,
    access: &AccessStructure,
    public_keys: impl Into<
        WithTables<'a, BTreeMap<AuthorityId, LewkoPublicKeys>, FixedBaseCache<Attribute>>,
    >,
    rng: &mut R,
) -> Result<LewkoCiphertext, LewkoError> {
    let WithTables {
        value: public_keys,
        tables,
    } = public_keys.into();
    let width = access.width();
    // v shares s; w shares 0.
    let s = Fr::random(rng);
    let mut v = vec![s];
    let mut w = vec![Fr::zero()];
    for _ in 1..width {
        v.push(Fr::random(rng));
        w.push(Fr::random(rng));
    }

    let e_gg = Gt::generator();
    let c0 = message.mul(&e_gg.pow(&s));

    let mut c1s = Vec::with_capacity(access.rows());
    let mut projective = Vec::with_capacity(2 * access.rows());
    for (i, matrix_row) in access.matrix().iter().enumerate() {
        let attr = &access.rho()[i];
        let pks = public_keys
            .get(attr.authority())
            .and_then(|p| p.entries.get(attr))
            .ok_or_else(|| LewkoError::MissingPublicKey(attr.clone()))?;
        let lambda = dot(matrix_row, &v);
        let omega = dot(matrix_row, &w);
        let r_i = Fr::random(rng);
        c1s.push(e_gg.pow(&lambda).mul(&pks.0.pow(&r_i)));
        projective.push(mabe_math::generator_mul(&r_i));
        let g_yr = match tables.and_then(|t| t.get(attr, &pks.1)) {
            Some(table) => table.mul(&r_i),
            None => G1::from(pks.1).mul(&r_i),
        };
        projective.push(g_yr.add(&mabe_math::generator_mul(&omega)));
    }
    let affine = mabe_math::batch_normalize(&projective);
    let rows = c1s
        .into_iter()
        .zip(affine.chunks_exact(2))
        .map(|(c1, pair)| LewkoRow {
            c1,
            c2: pair[0],
            c3: pair[1],
        })
        .collect();
    Ok(LewkoCiphertext {
        c0,
        rows,
        access: access.clone(),
    })
}

fn dot(a: &[Fr], b: &[Fr]) -> Fr {
    a.iter()
        .zip(b.iter())
        .fold(Fr::zero(), |acc, (x, y)| acc.add(&x.mul(y)))
}

/// Decrypts a ciphertext with the keys of a single GID.
///
/// # Errors
///
/// * [`LewkoError::GidMismatch`] — a key certifies a different GID (the
///   scheme's collusion defence at the API level; mixing keys *without*
///   this check still fails cryptographically, see tests).
/// * [`LewkoError::PolicyNotSatisfied`] — the key set cannot reconstruct.
pub fn decrypt(
    ct: &LewkoCiphertext,
    gid: &str,
    keys: &BTreeMap<Attribute, LewkoAttributeKey>,
) -> Result<Gt, LewkoError> {
    for key in keys.values() {
        if key.gid != gid {
            return Err(LewkoError::GidMismatch);
        }
    }
    decrypt_unchecked(ct, gid, keys)
}

/// The raw decryption computation without the GID consistency check.
///
/// # Errors
///
/// [`LewkoError::PolicyNotSatisfied`] if reconstruction is impossible.
pub fn decrypt_unchecked(
    ct: &LewkoCiphertext,
    gid: &str,
    keys: &BTreeMap<Attribute, LewkoAttributeKey>,
) -> Result<Gt, LewkoError> {
    let attrs: BTreeSet<Attribute> = keys.keys().cloned().collect();
    let coefficients = ct
        .access
        .reconstruction_coefficients(&attrs)
        .ok_or(LewkoError::PolicyNotSatisfied)?;
    let h_gid = hash_gid(gid);

    let mut blinding = Gt::one();
    for (row, c) in &coefficients {
        let attr = &ct.access.rho()[*row];
        let key = keys.get(attr).ok_or(LewkoError::PolicyNotSatisfied)?;
        let parts = &ct.rows[*row];
        // C₁ᵢ · e(H(GID), C₃ᵢ) / e(Kᵢ, C₂ᵢ)
        let term = parts
            .c1
            .mul(&pairing(&h_gid, &parts.c3))
            .div(&pairing(&key.k, &parts.c2));
        blinding = blinding.mul(&term.pow(c));
    }
    Ok(ct.c0.div(&blinding))
}

/// Optimized decryption: identical output to [`decrypt`], with the
/// recombination exponents folded into `G` scalar multiplications and
/// all pairings sharing one final exponentiation
/// ([`mabe_math::multi_pairing`]). The `Π C₁ᵢ^{cᵢ}` factor necessarily
/// stays in `G_T`.
///
/// # Errors
///
/// Same contract as [`decrypt`].
pub fn decrypt_fast(
    ct: &LewkoCiphertext,
    gid: &str,
    keys: &BTreeMap<Attribute, LewkoAttributeKey>,
) -> Result<Gt, LewkoError> {
    for key in keys.values() {
        if key.gid != gid {
            return Err(LewkoError::GidMismatch);
        }
    }
    let attrs: BTreeSet<Attribute> = keys.keys().cloned().collect();
    let coefficients = ct
        .access
        .reconstruction_coefficients(&attrs)
        .ok_or(LewkoError::PolicyNotSatisfied)?;
    let h_gid = hash_gid(gid);

    let mut gt_part = Gt::one();
    let mut scaled: Vec<mabe_math::G1> = Vec::with_capacity(2 * coefficients.len());
    let mut partners: Vec<G1Affine> = Vec::with_capacity(2 * coefficients.len());
    for (row, c) in &coefficients {
        let attr = &ct.access.rho()[*row];
        let key = keys.get(attr).ok_or(LewkoError::PolicyNotSatisfied)?;
        let parts = &ct.rows[*row];
        gt_part = gt_part.mul(&parts.c1.pow(c));
        // e(H, C₃)^c = e(C₃^c, H);  e(K, C₂)^{-c} = e(C₂^{-c}, K).
        scaled.push(mabe_math::G1::from(parts.c3).mul(c));
        partners.push(h_gid);
        scaled.push(mabe_math::G1::from(parts.c2).mul(&c.neg()));
        partners.push(key.k);
    }
    let pairs: Vec<(G1Affine, G1Affine)> = mabe_math::batch_normalize(&scaled)
        .into_iter()
        .zip(partners)
        .collect();
    let blinding = gt_part.mul(&mabe_math::multi_pairing(&pairs));
    Ok(ct.c0.div(&blinding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        rng: StdRng,
        authorities: Vec<LewkoAuthority>,
        public_keys: BTreeMap<AuthorityId, LewkoPublicKeys>,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(909);
        let authorities = vec![
            LewkoAuthority::new(AuthorityId::new("Med"), &["Doctor", "Nurse"], &mut rng),
            LewkoAuthority::new(AuthorityId::new("Trial"), &["Researcher"], &mut rng),
        ];
        let public_keys = authorities
            .iter()
            .map(|a| (a.aid().clone(), a.public_keys()))
            .collect();
        Fixture {
            rng,
            authorities,
            public_keys,
        }
    }

    impl Fixture {
        fn keys_for(&self, gid: &str, attrs: &[&str]) -> BTreeMap<Attribute, LewkoAttributeKey> {
            let mut out = BTreeMap::new();
            for raw in attrs {
                let attr: Attribute = raw.parse().unwrap();
                let aa = self
                    .authorities
                    .iter()
                    .find(|a| a.aid() == attr.authority())
                    .expect("authority exists");
                out.insert(attr.clone(), aa.keygen(gid, &attr).unwrap());
            }
            out
        }

        fn encrypt(&mut self, msg: &Gt, policy: &str) -> LewkoCiphertext {
            let access = AccessStructure::from_policy(&parse(policy).unwrap()).unwrap();
            encrypt(msg, &access, &self.public_keys, &mut self.rng).unwrap()
        }
    }

    #[test]
    fn single_attribute_roundtrip() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med");
        let keys = fx.keys_for("alice", &["Doctor@Med"]);
        assert_eq!(decrypt(&ct, "alice", &keys).unwrap(), msg);
    }

    #[test]
    fn cross_authority_and() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let keys = fx.keys_for("alice", &["Doctor@Med", "Researcher@Trial"]);
        assert_eq!(decrypt(&ct, "alice", &keys).unwrap(), msg);
    }

    #[test]
    fn or_policy_works_with_one_side_only() {
        // Unlike the paper's scheme, LW needs no key from uninvolved
        // authorities — a genuine functional difference worth pinning.
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med OR Researcher@Trial");
        let keys = fx.keys_for("alice", &["Doctor@Med"]);
        assert_eq!(decrypt(&ct, "alice", &keys).unwrap(), msg);
    }

    #[test]
    fn unsatisfying_set_rejected() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let keys = fx.keys_for("alice", &["Doctor@Med"]);
        assert_eq!(
            decrypt(&ct, "alice", &keys),
            Err(LewkoError::PolicyNotSatisfied)
        );
    }

    #[test]
    fn threshold_policy() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "2 of (Doctor@Med, Nurse@Med, Researcher@Trial)");
        let keys = fx.keys_for("alice", &["Nurse@Med", "Researcher@Trial"]);
        assert_eq!(decrypt(&ct, "alice", &keys).unwrap(), msg);
    }

    #[test]
    fn collusion_fails() {
        // Alice holds Doctor, Bob holds Researcher. Pooled keys must not
        // decrypt an AND policy: H(GID) factors don't cancel.
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let alice = fx.keys_for("alice", &["Doctor@Med"]);
        let bob = fx.keys_for("bob", &["Researcher@Trial"]);
        let mut pooled = alice;
        pooled.extend(bob);
        // API-level check refuses.
        assert_eq!(decrypt(&ct, "alice", &pooled), Err(LewkoError::GidMismatch));
        // The raw algebra yields garbage under either GID.
        assert_ne!(decrypt_unchecked(&ct, "alice", &pooled).unwrap(), msg);
        assert_ne!(decrypt_unchecked(&ct, "bob", &pooled).unwrap(), msg);
    }

    #[test]
    fn wrong_gid_key_fails() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med");
        let keys = fx.keys_for("alice", &["Doctor@Med"]);
        assert_ne!(decrypt_unchecked(&ct, "eve", &keys).unwrap(), msg);
    }

    #[test]
    fn size_accounting_matches_table2() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Nurse@Med AND Researcher@Trial");
        assert_eq!(ct.len(), 3);
        assert_eq!(ct.wire_size(), 4 * GT_BYTES + 6 * G_BYTES);
        let aa = &fx.authorities[0];
        assert_eq!(aa.storage_size(), 2 * 2 * ZP_BYTES);
        assert_eq!(aa.public_keys().wire_size(), 2 * (GT_BYTES + G_BYTES));
        let key = aa.keygen("alice", &"Doctor@Med".parse().unwrap()).unwrap();
        assert_eq!(key.wire_size(), G_BYTES);
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
            let keys = fx.keys_for("alice", &["Doctor@Med", "Nurse@Med", "Researcher@Trial"]);
            assert_eq!(decrypt(&ct, "alice", &keys).unwrap(), msg);
            assert_eq!(decrypt_fast(&ct, "alice", &keys).unwrap(), msg);
        }
    }

    #[test]
    fn fast_decrypt_same_error_contract() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct = fx.encrypt(&msg, "Doctor@Med AND Researcher@Trial");
        let keys = fx.keys_for("alice", &["Doctor@Med"]);
        assert_eq!(
            decrypt_fast(&ct, "alice", &keys),
            Err(LewkoError::PolicyNotSatisfied)
        );
        let other = fx.keys_for("bob", &["Researcher@Trial"]);
        let mut pooled = keys;
        pooled.extend(other);
        assert_eq!(
            decrypt_fast(&ct, "alice", &pooled),
            Err(LewkoError::GidMismatch)
        );
    }

    #[test]
    fn keygen_rejects_unknown_attribute() {
        let fx = fixture();
        let aa = &fx.authorities[0];
        assert!(matches!(
            aa.keygen("alice", &"Pilot@Med".parse().unwrap()),
            Err(LewkoError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn rerandomized_encryption() {
        let mut fx = fixture();
        let msg = Gt::random(&mut fx.rng);
        let ct1 = fx.encrypt(&msg, "Doctor@Med");
        let ct2 = fx.encrypt(&msg, "Doctor@Med");
        assert_ne!(ct1.c0, ct2.c0);
    }

    #[test]
    fn hash_gid_deterministic_and_distinct() {
        assert_eq!(hash_gid("alice"), hash_gid("alice"));
        assert_ne!(hash_gid("alice"), hash_gid("bob"));
    }
}
