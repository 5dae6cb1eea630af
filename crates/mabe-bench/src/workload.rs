//! Workload generators for the paper's evaluation (§VI-C).
//!
//! The paper's timing experiments sweep two knobs: the **number of
//! authorities** and the **number of attributes per authority**, with the
//! encrypting policy spanning every attribute (an AND over the whole
//! selected universe) and the decryptor holding all of them. This module
//! builds identical universes for the paper's scheme and the
//! Lewko–Waters baseline on the shared pairing substrate.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mabe_core::{
    AttributeAuthority, CertificateAuthority, Ciphertext, DataOwner, OwnerId, UserPublicKey,
    UserSecretKey,
};
use mabe_lewko::{LewkoAttributeKey, LewkoAuthority, LewkoCiphertext, LewkoPublicKeys};
use mabe_math::{FixedBaseCache, Gt, WithTables};
use mabe_policy::{AccessStructure, Attribute, AuthorityId, Policy};

/// Shape of a benchmark universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Number of attribute authorities.
    pub authorities: usize,
    /// Number of attributes managed by (and used from) each authority.
    pub attrs_per_authority: usize,
}

impl Shape {
    /// Total number of attributes `l = authorities × attrs_per_authority`.
    pub fn total_attrs(&self) -> usize {
        self.authorities * self.attrs_per_authority
    }
}

/// Builds the all-attributes AND policy the timing experiments encrypt
/// under.
pub fn and_policy(shape: Shape) -> Policy {
    let leaves: Vec<Policy> = (0..shape.authorities)
        .flat_map(|a| {
            (0..shape.attrs_per_authority).map(move |x| {
                Policy::leaf(Attribute::new(
                    format!("attr{x}"),
                    AuthorityId::new(format!("AA{a}")),
                ))
            })
        })
        .collect();
    if leaves.len() == 1 {
        leaves.into_iter().next().expect("nonempty")
    } else {
        Policy::and(leaves)
    }
}

/// A ready-to-measure universe for the paper's scheme.
pub struct OurWorld {
    /// Deterministic RNG for the measured operations.
    pub rng: StdRng,
    /// The benchmark shape.
    pub shape: Shape,
    /// The data owner (holds `MK_o` and the learned public keys).
    pub owner: DataOwner,
    /// The decryptor's public key.
    pub user_pk: UserPublicKey,
    /// The decryptor's secret keys, one per authority.
    pub user_keys: BTreeMap<AuthorityId, UserSecretKey>,
    /// The all-attributes access structure.
    pub access: AccessStructure,
    /// The authorities (kept for revocation benchmarks).
    pub authorities: Vec<AttributeAuthority>,
}

impl OurWorld {
    /// Sets up CA, `shape.authorities` AAs, one owner and one
    /// all-attribute user.
    pub fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = CertificateAuthority::new();
        let mut owner = DataOwner::new(OwnerId::new("bench-owner"), &mut rng);
        let user_pk = ca.register_user("bench-user", &mut rng).expect("fresh UID");

        let mut authorities = Vec::with_capacity(shape.authorities);
        let mut user_keys = BTreeMap::new();
        let attr_names: Vec<String> = (0..shape.attrs_per_authority)
            .map(|x| format!("attr{x}"))
            .collect();
        for a in 0..shape.authorities {
            let aid = ca.register_authority(format!("AA{a}")).expect("fresh AID");
            let mut aa = AttributeAuthority::new(aid.clone(), &attr_names, &mut rng);
            aa.register_owner(owner.owner_secret_key())
                .expect("fresh owner");
            owner.learn_authority_keys(aa.public_keys());
            aa.grant(
                &user_pk,
                aa.attributes().iter().cloned().collect::<Vec<_>>(),
            )
            .expect("attributes are managed here");
            user_keys.insert(
                aid,
                aa.keygen(&user_pk.uid, owner.id()).expect("registered"),
            );
            authorities.push(aa);
        }
        let access = AccessStructure::from_policy(&and_policy(shape)).expect("injective policy");
        OurWorld {
            rng,
            shape,
            owner,
            user_pk,
            user_keys,
            access,
            authorities,
        }
    }

    /// Encrypts a random message; returns the ciphertext.
    pub fn encrypt_once(&mut self) -> Ciphertext {
        let msg = Gt::random(&mut self.rng);
        self.owner
            .encrypt_under(&msg, &self.access, &mut self.rng)
            .expect("keys learned")
    }

    /// Encrypts and remembers the plaintext for verification.
    pub fn encrypt_with_message(&mut self) -> (Ciphertext, Gt) {
        let msg = Gt::random(&mut self.rng);
        let ct = self
            .owner
            .encrypt_under(&msg, &self.access, &mut self.rng)
            .expect("keys learned");
        (ct, msg)
    }

    /// Decrypts a ciphertext with the all-attribute user's keys.
    pub fn decrypt_once(&self, ct: &Ciphertext) -> Gt {
        mabe_core::decrypt(ct, &self.user_pk, &self.user_keys).expect("satisfying keys")
    }
}

/// A ready-to-measure universe for the Lewko–Waters baseline.
pub struct LewkoWorld {
    /// Deterministic RNG for the measured operations.
    pub rng: StdRng,
    /// The benchmark shape.
    pub shape: Shape,
    /// Published per-attribute public keys.
    pub public_keys: BTreeMap<AuthorityId, LewkoPublicKeys>,
    /// The encryptor's fixed-base tables of the `g^{y_x}` keys, kept
    /// and built by the rule [`OurWorld`]'s owner keeps its `PK_x`
    /// tables by, so both schemes' encryptions are preprocessed alike.
    pub key_tables: FixedBaseCache<Attribute>,
    /// The decryptor's per-attribute keys.
    pub user_keys: BTreeMap<Attribute, LewkoAttributeKey>,
    /// The all-attributes access structure.
    pub access: AccessStructure,
    /// The authorities.
    pub authorities: Vec<LewkoAuthority>,
}

impl LewkoWorld {
    /// Sets up the same shape for the baseline.
    pub fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let attr_names: Vec<String> = (0..shape.attrs_per_authority)
            .map(|x| format!("attr{x}"))
            .collect();
        let mut authorities = Vec::with_capacity(shape.authorities);
        let mut public_keys = BTreeMap::new();
        let mut user_keys = BTreeMap::new();
        for a in 0..shape.authorities {
            let aid = AuthorityId::new(format!("AA{a}"));
            let aa = LewkoAuthority::new(aid.clone(), &attr_names, &mut rng);
            public_keys.insert(aid, aa.public_keys());
            for attr in aa.attributes().cloned().collect::<Vec<_>>() {
                let key = aa.keygen("bench-user", &attr).expect("managed attribute");
                user_keys.insert(attr, key);
            }
            authorities.push(aa);
        }
        let access = AccessStructure::from_policy(&and_policy(shape)).expect("injective policy");
        LewkoWorld {
            rng,
            shape,
            public_keys,
            key_tables: FixedBaseCache::default(),
            user_keys,
            access,
            authorities,
        }
    }

    /// Encrypts a random message.
    pub fn encrypt_once(&mut self) -> LewkoCiphertext {
        self.encrypt_with_message().0
    }

    /// Encrypts and remembers the plaintext. Counts one use of each
    /// row's `g^{y_x}`, as a [`DataOwner`] counts its `PK_x`.
    pub fn encrypt_with_message(&mut self) -> (LewkoCiphertext, Gt) {
        let msg = Gt::random(&mut self.rng);
        for attr in self.access.rho() {
            let key = self
                .public_keys
                .get(attr.authority())
                .and_then(|keys| keys.entries.get(attr));
            if let Some((_, g_y)) = key {
                self.key_tables.count_use(attr, g_y);
            }
        }
        let keys = WithTables::new(&self.public_keys, Some(&self.key_tables));
        let ct =
            mabe_lewko::encrypt(&msg, &self.access, keys, &mut self.rng).expect("keys published");
        (ct, msg)
    }

    /// Decrypts with the all-attribute user's keys.
    pub fn decrypt_once(&self, ct: &LewkoCiphertext) -> Gt {
        mabe_lewko::decrypt(ct, "bench-user", &self.user_keys).expect("satisfying keys")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_policy() {
        let shape = Shape {
            authorities: 3,
            attrs_per_authority: 2,
        };
        assert_eq!(shape.total_attrs(), 6);
        let p = and_policy(shape);
        assert_eq!(p.leaves().len(), 6);
        assert_eq!(p.authorities().len(), 3);
    }

    #[test]
    fn our_world_roundtrip() {
        let mut w = OurWorld::new(
            Shape {
                authorities: 2,
                attrs_per_authority: 2,
            },
            1,
        );
        let (ct, msg) = w.encrypt_with_message();
        assert_eq!(w.decrypt_once(&ct), msg);
        assert_eq!(ct.rows(), 4);
    }

    #[test]
    fn lewko_world_roundtrip() {
        let mut w = LewkoWorld::new(
            Shape {
                authorities: 2,
                attrs_per_authority: 2,
            },
            2,
        );
        let (ct, msg) = w.encrypt_with_message();
        assert_eq!(w.decrypt_once(&ct), msg);
        assert_eq!(ct.len(), 4);
    }

    #[test]
    fn single_attribute_shape() {
        let mut w = OurWorld::new(
            Shape {
                authorities: 1,
                attrs_per_authority: 1,
            },
            3,
        );
        let (ct, msg) = w.encrypt_with_message();
        assert_eq!(w.decrypt_once(&ct), msg);
    }
}
