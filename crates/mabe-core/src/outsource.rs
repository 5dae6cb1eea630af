//! Outsourced decryption — the extension the authors shipped in their
//! follow-up system (DAC-MACS, the journal successor of this paper),
//! adapted to this scheme's structure.
//!
//! Decryption is pairing work (paper Eq. 1) — heavy for a thin client.
//! The user instead blinds its whole key set with a random `z`: the
//! *transform key* `TK = (PK_UID^{1/z}, {K^{1/z}, K_x^{1/z}})` goes to
//! the server, which runs the pairing computation on blinded inputs and
//! returns the *token* `T = (Π_k e(g,g)^{α_k s})^{1/z}`. The client
//! recovers `m = C / T^z` with a single `G_T` exponentiation.
//!
//! The server computes `T` exactly as [`crate::decrypt_fast`] computes
//! the blinding factor, with the blinded keys in place of the user's:
//! Eq. 1 folded by bilinearity into two multi-scalar multiplications and
//! two pairings under one final exponentiation, whatever the policy size.
//!
//! The server learns nothing: every pairing output it sees carries the
//! `1/z` blinding, and `z` never leaves the client (the *retrieval
//! key*).

use std::collections::BTreeMap;

use rand::RngCore;

use mabe_math::{Fr, G1Affine, Gt, G1};
use mabe_policy::{Attribute, AuthorityId};

use crate::ciphertext::{folded_arguments, Ciphertext, PairingKey};
use crate::error::Error;
use crate::ids::{OwnerId, Uid};
use crate::keys::{UserPublicKey, UserSecretKey};

/// One authority's blinded key material inside a [`TransformKey`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlindedAuthorityKey {
    /// Version of the underlying secret key.
    pub version: u64,
    /// `K^{1/z}`.
    pub k: G1Affine,
    /// `K_x^{1/z}` per attribute.
    pub kx: BTreeMap<Attribute, G1Affine>,
}

impl PairingKey for BlindedAuthorityKey {
    fn k(&self) -> &G1Affine {
        &self.k
    }

    fn kx(&self) -> &BTreeMap<Attribute, G1Affine> {
        &self.kx
    }
}

/// The transform key handed to the decryption proxy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransformKey {
    /// The key holder.
    pub uid: Uid,
    /// Owner scope of the underlying keys.
    pub owner: OwnerId,
    /// `PK_UID^{1/z}`.
    pub blinded_pk: G1Affine,
    /// Per-authority blinded components.
    pub entries: BTreeMap<AuthorityId, BlindedAuthorityKey>,
}

/// The client-retained secret `z` that unblinds transform tokens.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RetrievalKey {
    z: Fr,
}

/// The server's output: `(Π_k e(g,g)^{α_k s})^{1/z}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransformToken(pub Gt);

/// Blinds a user's key set for outsourcing.
///
/// # Errors
///
/// Fails if the key set is empty or inconsistent (mixed owners or a key
/// belonging to a different user).
pub fn make_transform_key<R: RngCore + ?Sized>(
    user_pk: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
    rng: &mut R,
) -> Result<(TransformKey, RetrievalKey), Error> {
    let mut iter = keys.values();
    let first = iter.next().ok_or(Error::Malformed("empty key set"))?;
    let owner = first.owner.clone();
    for key in keys.values() {
        if key.uid != user_pk.uid {
            return Err(Error::Malformed("secret key belongs to a different user"));
        }
        if key.owner != owner {
            return Err(Error::OwnerMismatch {
                expected: owner.clone(),
                found: key.owner.clone(),
            });
        }
    }
    let z = loop {
        let candidate = Fr::random(rng);
        if !candidate.is_zero() {
            break candidate;
        }
    };
    let z_inv = z.invert().expect("z nonzero");

    let blinded_pk = G1Affine::from(G1::from(user_pk.pk).mul(&z_inv));
    let entries = keys
        .iter()
        .map(|(aid, key)| {
            let k = G1Affine::from(G1::from(key.k).mul(&z_inv));
            let kx = key
                .kx
                .iter()
                .map(|(attr, kx)| (attr.clone(), G1Affine::from(G1::from(*kx).mul(&z_inv))))
                .collect();
            (
                aid.clone(),
                BlindedAuthorityKey {
                    version: key.version,
                    k,
                    kx,
                },
            )
        })
        .collect();

    Ok((
        TransformKey {
            uid: user_pk.uid.clone(),
            owner,
            blinded_pk,
            entries,
        },
        RetrievalKey { z },
    ))
}

/// Server side: runs the pairing half of decryption on blinded inputs
/// (paper Eq. 1 with every key component carrying `1/z`, folded into
/// two pairings like [`crate::decrypt_fast`]).
///
/// # Errors
///
/// * [`Error::MissingAuthorityKey`] — the transform key lacks an
///   involved authority.
/// * [`Error::OwnerMismatch`] / [`Error::VersionMismatch`] — mis-scoped
///   or stale material.
/// * [`Error::PolicyNotSatisfied`] — the blinded attribute set cannot
///   reconstruct.
pub fn server_transform(ct: &Ciphertext, tk: &TransformKey) -> Result<TransformToken, Error> {
    if tk.owner != ct.owner {
        return Err(Error::OwnerMismatch {
            expected: ct.owner.clone(),
            found: tk.owner.clone(),
        });
    }
    let involved = ct.involved_authorities();
    for aid in &involved {
        let entry = tk
            .entries
            .get(aid)
            .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))?;
        let expected = ct.versions[aid];
        if entry.version != expected {
            return Err(Error::VersionMismatch {
                authority: aid.clone(),
                expected,
                found: entry.version,
            });
        }
    }
    // One-off blinded keys: both pairs run plain.
    let [key_sum, row_sum] = folded_arguments(ct, &involved, &tk.entries)?;
    Ok(TransformToken(mabe_math::multi_pairing(&[
        (key_sum, ct.c_prime),
        (row_sum, tk.blinded_pk),
    ])))
}

/// Client side: unblinds the token and strips the mask — one `G_T`
/// exponentiation plus one multiplication.
pub fn client_recover(ct: &Ciphertext, token: &TransformToken, rk: &RetrievalKey) -> Gt {
    ct.c.div(&token.0.pow(&rk.z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use crate::ciphertext::decrypt;
    use crate::owner::DataOwner;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        rng: StdRng,
        owner: DataOwner,
        user: UserPublicKey,
        keys: BTreeMap<AuthorityId, UserSecretKey>,
        aas: Vec<AttributeAuthority>,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(9001);
        let mut ca = CertificateAuthority::new();
        let mut owner = DataOwner::new(OwnerId::new("owner"), &mut rng);
        let user = ca.register_user("alice", &mut rng).unwrap();
        let mut aas = Vec::new();
        let mut keys = BTreeMap::new();
        for (name, attrs) in [("Med", vec!["Doctor"]), ("Trial", vec!["Researcher"])] {
            let aid = ca.register_authority(name).unwrap();
            let mut aa = AttributeAuthority::new(aid.clone(), &attrs, &mut rng);
            aa.register_owner(owner.owner_secret_key()).unwrap();
            owner.learn_authority_keys(aa.public_keys());
            aa.grant(&user, aa.attributes().iter().cloned().collect::<Vec<_>>())
                .unwrap();
            keys.insert(aid, aa.keygen(&user.uid, owner.id()).unwrap());
            aas.push(aa);
        }
        World {
            rng,
            owner,
            user,
            keys,
            aas,
        }
    }

    #[test]
    fn outsourced_matches_direct_decryption() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("Doctor@Med AND Researcher@Trial").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();

        let (tk, rk) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        let token = server_transform(&ct, &tk).unwrap();
        let recovered = client_recover(&ct, &token, &rk);
        assert_eq!(recovered, msg);
        assert_eq!(recovered, decrypt(&ct, &w.user, &w.keys).unwrap());
    }

    #[test]
    fn server_cannot_recover_without_retrieval_key() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("Doctor@Med").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let (tk, _rk) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        let token = server_transform(&ct, &tk).unwrap();
        // Unblinding with z = 1 (i.e. using the token directly) fails.
        assert_ne!(ct.c.div(&token.0), msg);
        // And with a random wrong z.
        let wrong = RetrievalKey {
            z: Fr::random(&mut w.rng),
        };
        assert_ne!(client_recover(&ct, &token, &wrong), msg);
    }

    #[test]
    fn transform_requires_satisfying_attributes() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("Doctor@Med AND Researcher@Trial").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        // Drop the Trial key: transform must fail, not return garbage.
        let mut partial = w.keys.clone();
        partial.remove(&AuthorityId::new("Trial"));
        let (tk, _) = make_transform_key(&w.user, &partial, &mut w.rng).unwrap();
        assert!(matches!(
            server_transform(&ct, &tk),
            Err(Error::MissingAuthorityKey(_))
        ));
    }

    #[test]
    fn transform_checks_versions() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("Doctor@Med").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let (mut tk, _) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        tk.entries
            .get_mut(&AuthorityId::new("Med"))
            .unwrap()
            .version = 99;
        assert!(matches!(
            server_transform(&ct, &tk),
            Err(Error::VersionMismatch { .. })
        ));
    }

    #[test]
    fn blinding_is_randomized() {
        let mut w = world();
        let (tk1, rk1) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        let (tk2, rk2) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        assert_ne!(tk1.blinded_pk, tk2.blinded_pk);
        assert_ne!(rk1, rk2);
    }

    #[test]
    fn mixed_user_keys_rejected() {
        let mut w = world();
        let mut ca = CertificateAuthority::new();
        let mallory = ca.register_user("mallory", &mut w.rng).unwrap();
        // A key rebadged to another user must be refused at blinding time.
        let mut keys = w.keys.clone();
        keys.values_mut().next().unwrap().uid = mallory.uid.clone();
        assert!(make_transform_key(&w.user, &keys, &mut w.rng).is_err());
        assert!(make_transform_key(&w.user, &BTreeMap::new(), &mut w.rng).is_err());
    }

    #[test]
    fn outsourcing_survives_revocation_update() {
        // After a revocation elsewhere, a re-blinded key set still works
        // against the re-encrypted ciphertext.
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("Doctor@Med").unwrap();
        let mut ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();

        // Another doctor gets revoked; Med bumps to v2.
        let mut ca = CertificateAuthority::new();
        let other = ca.register_user("other", &mut w.rng).unwrap();
        let doctor: mabe_policy::Attribute = "Doctor@Med".parse().unwrap();
        w.aas[0].grant(&other, [doctor.clone()]).unwrap();
        let event = w.aas[0]
            .revoke_attribute(&other.uid, &doctor, &mut w.rng)
            .unwrap();
        let uk = event.update_keys[w.owner.id()].clone();
        w.owner.apply_update_key(&uk).unwrap();
        let ui = w
            .owner
            .update_info_for(ct.id, w.aas[0].aid(), 1, 2)
            .unwrap();
        crate::revoke::reencrypt(&mut ct, &uk, &ui).unwrap();

        // Alice updates her key, re-blinds, outsources.
        w.keys
            .get_mut(&AuthorityId::new("Med"))
            .unwrap()
            .apply_update(&uk)
            .unwrap();
        let (tk, rk) = make_transform_key(&w.user, &w.keys, &mut w.rng).unwrap();
        let token = server_transform(&ct, &tk).unwrap();
        assert_eq!(client_recover(&ct, &token, &rk), msg);
    }
}
