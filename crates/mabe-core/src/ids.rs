//! Global identifiers issued by the certificate authority.
//!
//! The CA's whole role in the paper (§V-A) is to hand out a globally
//! unique `UID` per user and an `AID` per authority; the `UID` replaces
//! the per-key randomness of single-authority CP-ABE and is what ties a
//! user's key components together (and keeps different users' components
//! apart — the collusion defence).

use std::fmt;
use std::sync::Arc;

/// A globally unique user identifier (the paper's `UID`).
///
/// The text is shared: a clone (a message endpoint, a trace attribute)
/// takes a reference, not a copy, so the serving path can name its
/// reader without allocating.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Uid(Arc<str>);

impl Uid {
    /// Wraps an identifier string.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty.
    pub fn new(id: impl Into<String>) -> Self {
        let id = id.into();
        assert!(!id.is_empty(), "UID must be non-empty");
        Uid(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The identifier's shared text (no copy).
    pub fn shared(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Identifier of a data owner.
///
/// Owners are not named entities in the paper's CA, but every owner has
/// its own master key `MK_o`, so keys and update keys must be scoped to an
/// owner; this identifier provides that scope.
///
/// The text is shared, as [`Uid`]'s is: a clone (a cache key, the
/// server's record map, a message endpoint) takes a reference, not a
/// copy.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OwnerId(Arc<str>);

impl OwnerId {
    /// Wraps an identifier string.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty.
    pub fn new(id: impl Into<String>) -> Self {
        let id = id.into();
        assert!(!id.is_empty(), "owner id must be non-empty");
        OwnerId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_roundtrip() {
        let u = Uid::new("alice");
        assert_eq!(u.as_str(), "alice");
        assert_eq!(u.to_string(), "alice");
    }

    #[test]
    fn distinct_uids_differ() {
        assert_ne!(Uid::new("alice"), Uid::new("bob"));
    }

    #[test]
    #[should_panic(expected = "UID must be non-empty")]
    fn empty_uid_rejected() {
        Uid::new("");
    }

    #[test]
    #[should_panic(expected = "owner id must be non-empty")]
    fn empty_owner_rejected() {
        OwnerId::new("");
    }
}
