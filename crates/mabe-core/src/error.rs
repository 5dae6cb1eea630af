//! Error types for the multi-authority access-control scheme.

use std::fmt;

use mabe_policy::{Attribute, AuthorityId, LsssError};

use crate::ciphertext::CiphertextId;
use crate::ids::{OwnerId, Uid};

/// Errors returned by the scheme's algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Decryption requires a secret key from every authority involved in
    /// the ciphertext; this one is missing.
    MissingAuthorityKey(AuthorityId),
    /// The combined attribute set does not satisfy the access structure.
    PolicyNotSatisfied,
    /// An attribute was referenced that the authority does not manage.
    UnknownAttribute(Attribute),
    /// A user is not registered with the entity.
    UnknownUser(Uid),
    /// An owner is not registered with the entity.
    UnknownOwner(OwnerId),
    /// The entity already has a registration under this identifier.
    AlreadyRegistered(String),
    /// Key material belongs to a different owner than the ciphertext.
    OwnerMismatch {
        /// Owner expected by the operation.
        expected: OwnerId,
        /// Owner found on the supplied material.
        found: OwnerId,
    },
    /// Version-key mismatch between ciphertext and key material.
    VersionMismatch {
        /// The authority whose versions disagree.
        authority: AuthorityId,
        /// Version expected by the operation.
        expected: u64,
        /// Version found on the supplied material.
        found: u64,
    },
    /// Re-encryption material made for one ciphertext met another under
    /// the same address: the record was republished in between.
    CiphertextMismatch {
        /// Ciphertext the material was made for.
        expected: CiphertextId,
        /// Ciphertext found at the address.
        found: CiphertextId,
    },
    /// The user does not hold the attribute being revoked.
    AttributeNotHeld {
        /// The user targeted by the revocation.
        uid: Uid,
        /// The attribute that was to be revoked.
        attribute: Attribute,
    },
    /// Converting the policy to an LSSS failed.
    Lsss(LsssError),
    /// The encryption used public attribute keys from the wrong authority
    /// or with missing entries.
    MissingPublicAttributeKey(Attribute),
    /// A sealed envelope component failed symmetric authentication
    /// (wrong or outdated key material, or tampering).
    SymmetricAuthentication,
    /// Malformed serialized data.
    Malformed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::MissingAuthorityKey(aid) => {
                write!(f, "no secret key from involved authority {aid}")
            }
            Error::PolicyNotSatisfied => write!(f, "attributes do not satisfy the access policy"),
            Error::UnknownAttribute(a) => write!(f, "attribute {a} is not managed here"),
            Error::UnknownUser(u) => write!(f, "user {u} is not registered"),
            Error::UnknownOwner(o) => write!(f, "owner {o} is not registered"),
            Error::AlreadyRegistered(id) => write!(f, "{id} is already registered"),
            Error::OwnerMismatch { expected, found } => {
                write!(f, "owner mismatch: expected {expected}, found {found}")
            }
            Error::VersionMismatch {
                authority,
                expected,
                found,
            } => write!(
                f,
                "version mismatch for authority {authority}: expected v{expected}, found v{found}"
            ),
            Error::CiphertextMismatch { expected, found } => {
                write!(f, "ciphertext mismatch: made for {expected}, found {found}")
            }
            Error::AttributeNotHeld { uid, attribute } => {
                write!(f, "user {uid} does not hold attribute {attribute}")
            }
            Error::Lsss(e) => write!(f, "access structure error: {e}"),
            Error::MissingPublicAttributeKey(a) => {
                write!(f, "no public attribute key for {a}")
            }
            Error::SymmetricAuthentication => {
                write!(f, "symmetric decryption failed authentication")
            }
            Error::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lsss(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LsssError> for Error {
    fn from(e: LsssError) -> Self {
        Error::Lsss(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let aid = AuthorityId::new("MedOrg");
        assert!(Error::MissingAuthorityKey(aid.clone())
            .to_string()
            .contains("MedOrg"));
        assert!(Error::PolicyNotSatisfied.to_string().contains("satisfy"));
        let v = Error::VersionMismatch {
            authority: aid,
            expected: 2,
            found: 1,
        };
        assert!(v.to_string().contains("v2"));
    }

    #[test]
    fn lsss_conversion() {
        let attr: Attribute = "A@X".parse().unwrap();
        let e: Error = LsssError::DuplicateAttribute(attr).into();
        assert!(matches!(e, Error::Lsss(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
