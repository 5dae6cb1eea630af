//! # mabe-core
//!
//! The primary contribution of *"Attribute-based Access Control for
//! Multi-Authority Systems in Cloud Storage"* (Yang & Jia, ICDCS 2012):
//! an efficient multi-authority CP-ABE scheme **without a global
//! authority**, supporting any LSSS access structure, with an attribute
//! revocation protocol based on version keys and server-side proxy
//! re-encryption.
//!
//! ## The paper's algorithms → this crate
//!
//! | Algorithm | Entry point |
//! |---|---|
//! | `Setup` (CA) | [`CertificateAuthority`] |
//! | `OwnerGen` | [`DataOwner::new`] / [`OwnerMasterKey::random`] |
//! | `AAGen` | [`AttributeAuthority::new`] |
//! | `KeyGen` | [`AttributeAuthority::keygen`] |
//! | `Encrypt` | [`encrypt`] / [`DataOwner::encrypt_message`] |
//! | `Decrypt` | [`decrypt`] |
//! | `ReKey` | [`AttributeAuthority::revoke_attribute`] |
//! | `ReEncrypt` | [`reencrypt`] |
//!
//! The hybrid data format of Fig. 2 (content keys + symmetric payloads)
//! lives in [`envelope`].
//!
//! ## Collusion resistance
//!
//! Every user key component embeds the CA-issued global `UID` exponent
//! (`K = PK_UID^{r/β}·g^{α/β}`, `K_x = PK_UID^{α·H(x)}`), so components of
//! different users cannot be recombined — the decryption algebra leaves an
//! un-cancelled `e(g,g)^{u·r·s}` factor. See the collusion tests in
//! [`ciphertext`].
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeMap;
//! use rand::SeedableRng;
//! use mabe_core::{AttributeAuthority, CertificateAuthority, DataOwner, OwnerId, decrypt};
//! use mabe_math::Gt;
//! use mabe_policy::parse;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut ca = CertificateAuthority::new();
//! let aid = ca.register_authority("MedOrg")?;
//! let mut aa = AttributeAuthority::new(aid.clone(), &["Doctor"], &mut rng);
//! let mut owner = DataOwner::new(OwnerId::new("records"), &mut rng);
//! aa.register_owner(owner.owner_secret_key())?;
//! owner.learn_authority_keys(aa.public_keys());
//!
//! let alice = ca.register_user("alice", &mut rng)?;
//! aa.grant(&alice, ["Doctor@MedOrg".parse()?])?;
//! let keys = BTreeMap::from([(aid, aa.keygen(&alice.uid, owner.id())?)]);
//!
//! let secret = Gt::random(&mut rng);
//! let ct = owner.encrypt_message(&secret, &parse("Doctor@MedOrg")?, &mut rng)?;
//! assert_eq!(decrypt(&ct, &alice, &keys)?, secret);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod ca;
pub mod ciphertext;
pub mod envelope;
pub mod error;
pub mod game;
pub mod ids;
pub mod keys;
pub mod outsource;
pub mod owner;
pub mod revoke;
pub mod serial;

pub use authority::{attribute_hash, AttributeAuthority, RevocationEvent};
pub use ca::CertificateAuthority;
pub use ciphertext::{decrypt, decrypt_fast, decrypt_unchecked, encrypt, Ciphertext, CiphertextId};
pub use envelope::{
    content_key, open_all, open_component, open_component_with_kem, open_component_with_key,
    seal_component, seal_envelope, DataEnvelope, SealedComponent,
};
pub use error::Error;
pub use ids::{OwnerId, Uid};
pub use keys::{
    AuthorityPublicKeys, OwnerMasterKey, OwnerSecretKey, UpdateKey, UserPublicKey, UserSecretKey,
    VersionKey, GT_BYTES, G_BYTES, ZP_BYTES,
};
pub use outsource::{
    client_recover, make_transform_key, server_transform, RetrievalKey, TransformKey,
    TransformToken,
};
pub use owner::{DataOwner, EncryptionRecord};
pub use revoke::{
    apply_reencryption, check_reencryption, reencrypt, Refresh, UpdateInfo, UpdateTables,
    WithTables, FIXED_BASE_BREAK_EVEN, LINES_BREAK_EVEN,
};
pub use serial::{read_string, Reader, WireCodec};
