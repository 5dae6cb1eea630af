//! Binary wire codecs for every key and ciphertext type.
//!
//! The deployment layer accounts sizes analytically (paper Tables
//! II–IV); this module provides the *actual* byte encodings so material
//! can be persisted or shipped across a real network. Formats are
//! straightforward length-prefixed binary:
//!
//! * `G` elements — 65-byte compressed points,
//! * `G_T` elements — 128 bytes,
//! * scalars — 20 bytes (the 160-bit group order),
//! * strings — `u16` length + UTF-8,
//! * maps/sequences — `u32` count + entries,
//! * access structures — the policy's canonical text (the LSSS matrix is
//!   reconstructed deterministically on decode).
//!
//! Every decoder validates: group elements are subgroup-checked, scalars
//! range-checked, lengths bounded.

use std::collections::BTreeMap;

use mabe_math::{Fr, G1Affine, Gt};
use mabe_policy::{AccessStructure, Attribute, AuthorityId};

use crate::ciphertext::{Ciphertext, CiphertextId};
use crate::envelope::{distinct_labels, DataEnvelope, SealedComponent};
use crate::error::Error;
use crate::ids::{OwnerId, Uid};
use crate::keys::{AuthorityPublicKeys, OwnerSecretKey, UpdateKey, UserPublicKey, UserSecretKey};
use crate::revoke::UpdateInfo;

/// Incremental binary reader with bounds checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the whole input was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::Malformed("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] on truncated input.
    pub fn u16(&mut self) -> Result<u16, Error> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] on truncated input.
    pub fn u32(&mut self) -> Result<u32, Error> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] on truncated input.
    pub fn u64(&mut self) -> Result<u64, Error> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads `n` raw bytes (bounds-checked, zero-copy).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        self.take(n)
    }
}

// ---------- primitive codecs ----------

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(
        bytes.len() <= u16::MAX as usize,
        "string too long for wire format"
    );
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

pub(crate) fn get_string(r: &mut Reader<'_>) -> Result<String, Error> {
    let len = r.u16()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::Malformed("non-utf8 string"))
}

/// Reads one length-prefixed string (`u16` length + UTF-8 bytes) — the
/// workspace's shared string codec, exposed for consumers (like the
/// cloud server) that walk wire buffers without decoding full types.
///
/// # Errors
///
/// Returns [`Error::Malformed`] on truncation or invalid UTF-8.
pub fn read_string(r: &mut Reader<'_>) -> Result<String, Error> {
    get_string(r)
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    assert!(b.len() <= u32::MAX as usize);
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

pub(crate) fn get_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, Error> {
    let len = r.u32()? as usize;
    Ok(r.take(len)?.to_vec())
}

pub(crate) fn put_g1(out: &mut Vec<u8>, p: &G1Affine) {
    out.extend_from_slice(&p.to_bytes());
}

pub(crate) fn get_g1(r: &mut Reader<'_>) -> Result<G1Affine, Error> {
    G1Affine::from_bytes(r.take(65)?).ok_or(Error::Malformed("invalid group element"))
}

pub(crate) fn put_gt(out: &mut Vec<u8>, e: &Gt) {
    out.extend_from_slice(&e.to_bytes());
}

pub(crate) fn get_gt(r: &mut Reader<'_>) -> Result<Gt, Error> {
    Gt::from_bytes(r.take(128)?).ok_or(Error::Malformed("invalid target-group element"))
}

/// Scalars travel as 20 big-endian bytes (the group order is 160 bits).
pub(crate) fn put_fr(out: &mut Vec<u8>, x: &Fr) {
    let full = x.to_canonical_bytes(); // 24 bytes, top 4 always zero
    debug_assert!(full[..4].iter().all(|&b| b == 0));
    out.extend_from_slice(&full[4..]);
}

pub(crate) fn get_fr(r: &mut Reader<'_>) -> Result<Fr, Error> {
    let raw = r.take(20)?;
    let mut full = [0u8; 24];
    full[4..].copy_from_slice(raw);
    Fr::from_canonical_bytes(&full).ok_or(Error::Malformed("scalar out of range"))
}

pub(crate) fn put_attribute(out: &mut Vec<u8>, a: &Attribute) {
    put_string(out, &a.to_string());
}

pub(crate) fn get_attribute(r: &mut Reader<'_>) -> Result<Attribute, Error> {
    get_string(r)?
        .parse()
        .map_err(|_| Error::Malformed("invalid attribute literal"))
}

// The id constructors (`Uid::new`, `OwnerId::new`, `AuthorityId::new`)
// assert on invalid input — fine for programmer-supplied literals, fatal
// for wire bytes. These guards turn those panics into `Malformed`.

pub(crate) fn get_authority_id(r: &mut Reader<'_>) -> Result<AuthorityId, Error> {
    AuthorityId::try_new(get_string(r)?).map_err(|_| Error::Malformed("invalid authority id"))
}

pub(crate) fn get_uid(r: &mut Reader<'_>) -> Result<Uid, Error> {
    let s = get_string(r)?;
    if s.is_empty() {
        return Err(Error::Malformed("empty uid"));
    }
    Ok(Uid::new(s))
}

pub(crate) fn get_owner_id(r: &mut Reader<'_>) -> Result<OwnerId, Error> {
    let s = get_string(r)?;
    if s.is_empty() {
        return Err(Error::Malformed("empty owner id"));
    }
    Ok(OwnerId::new(s))
}

const MAX_MAP_ENTRIES: u32 = 1 << 20;

pub(crate) fn get_count(r: &mut Reader<'_>) -> Result<usize, Error> {
    let n = r.u32()?;
    if n > MAX_MAP_ENTRIES {
        return Err(Error::Malformed("implausible entry count"));
    }
    // Every encoded entry occupies at least one byte, so a count larger
    // than the unread input is malformed. Rejecting it here bounds any
    // count-proportional allocation by the actual input size.
    if n as usize > r.remaining() {
        return Err(Error::Malformed("entry count exceeds input"));
    }
    Ok(n as usize)
}

// ---------- type codecs ----------

/// Common entry points for wire-encodable types.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] on truncation or invalid content.
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Serializes to a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Deserializes from a byte slice, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] on truncation, invalid content, or
    /// trailing bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, Error> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(Error::Malformed("trailing bytes"));
        }
        Ok(v)
    }
}

impl WireCodec for UserPublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.uid.as_str());
        put_g1(out, &self.pk);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(UserPublicKey {
            uid: get_uid(r)?,
            pk: get_g1(r)?,
        })
    }
}

impl WireCodec for OwnerSecretKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.owner.as_str());
        put_g1(out, &self.g_inv_beta);
        put_fr(out, &self.r_over_beta);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(OwnerSecretKey {
            owner: get_owner_id(r)?,
            g_inv_beta: get_g1(r)?,
            r_over_beta: get_fr(r)?,
        })
    }
}

impl WireCodec for AuthorityPublicKeys {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.aid.as_str());
        out.extend_from_slice(&self.version.to_be_bytes());
        put_gt(out, &self.owner_pk);
        out.extend_from_slice(&(self.attr_pks.len() as u32).to_be_bytes());
        for (attr, pk) in &self.attr_pks {
            put_attribute(out, attr);
            put_g1(out, pk);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let aid = get_authority_id(r)?;
        let version = r.u64()?;
        let owner_pk = get_gt(r)?;
        let n = get_count(r)?;
        let mut attr_pks = BTreeMap::new();
        for _ in 0..n {
            let attr = get_attribute(r)?;
            if attr.authority() != &aid {
                return Err(Error::Malformed("attribute under wrong authority"));
            }
            let pk = get_g1(r)?;
            attr_pks.insert(attr, pk);
        }
        Ok(AuthorityPublicKeys {
            aid,
            version,
            owner_pk,
            attr_pks,
        })
    }
}

impl WireCodec for UserSecretKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.uid.as_str());
        put_string(out, self.aid.as_str());
        put_string(out, self.owner.as_str());
        out.extend_from_slice(&self.version.to_be_bytes());
        put_g1(out, &self.k);
        out.extend_from_slice(&(self.kx.len() as u32).to_be_bytes());
        for (attr, kx) in &self.kx {
            put_attribute(out, attr);
            put_g1(out, kx);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let uid = get_uid(r)?;
        let aid = get_authority_id(r)?;
        let owner = get_owner_id(r)?;
        let version = r.u64()?;
        let k = get_g1(r)?;
        let n = get_count(r)?;
        let mut kx = BTreeMap::new();
        for _ in 0..n {
            let attr = get_attribute(r)?;
            if attr.authority() != &aid {
                return Err(Error::Malformed("attribute under wrong authority"));
            }
            kx.insert(attr, get_g1(r)?);
        }
        Ok(UserSecretKey {
            uid,
            aid,
            owner,
            version,
            k,
            kx,
        })
    }
}

impl WireCodec for UpdateKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.aid.as_str());
        out.extend_from_slice(&self.from_version.to_be_bytes());
        out.extend_from_slice(&self.to_version.to_be_bytes());
        put_string(out, self.owner.as_str());
        put_g1(out, &self.uk1);
        put_fr(out, &self.uk2);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let uk = UpdateKey {
            aid: get_authority_id(r)?,
            from_version: r.u64()?,
            to_version: r.u64()?,
            owner: get_owner_id(r)?,
            uk1: get_g1(r)?,
            uk2: get_fr(r)?,
        };
        if uk.from_version >= uk.to_version {
            return Err(Error::Malformed("update key versions not increasing"));
        }
        Ok(uk)
    }
}

impl WireCodec for UpdateInfo {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.aid.as_str());
        out.extend_from_slice(&self.ct_id.0.to_be_bytes());
        out.extend_from_slice(&self.from_version.to_be_bytes());
        out.extend_from_slice(&self.to_version.to_be_bytes());
        out.extend_from_slice(&(self.items.len() as u32).to_be_bytes());
        for (attr, ui) in &self.items {
            put_attribute(out, attr);
            put_g1(out, ui);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let aid = get_authority_id(r)?;
        let ct_id = CiphertextId(r.u64()?);
        let from_version = r.u64()?;
        let to_version = r.u64()?;
        let n = get_count(r)?;
        let mut items = BTreeMap::new();
        for _ in 0..n {
            items.insert(get_attribute(r)?, get_g1(r)?);
        }
        Ok(UpdateInfo {
            aid,
            ct_id,
            from_version,
            to_version,
            items,
        })
    }
}

impl WireCodec for crate::outsource::TransformKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.uid.as_str());
        put_string(out, self.owner.as_str());
        put_g1(out, &self.blinded_pk);
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (aid, entry) in &self.entries {
            put_string(out, aid.as_str());
            out.extend_from_slice(&entry.version.to_be_bytes());
            put_g1(out, &entry.k);
            out.extend_from_slice(&(entry.kx.len() as u32).to_be_bytes());
            for (attr, kx) in &entry.kx {
                put_attribute(out, attr);
                put_g1(out, kx);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let uid = get_uid(r)?;
        let owner = get_owner_id(r)?;
        let blinded_pk = get_g1(r)?;
        let n = get_count(r)?;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let aid = get_authority_id(r)?;
            let version = r.u64()?;
            let k = get_g1(r)?;
            let m = get_count(r)?;
            let mut kx = BTreeMap::new();
            for _ in 0..m {
                let attr = get_attribute(r)?;
                if attr.authority() != &aid {
                    return Err(Error::Malformed("attribute under wrong authority"));
                }
                kx.insert(attr, get_g1(r)?);
            }
            entries.insert(
                aid,
                crate::outsource::BlindedAuthorityKey { version, k, kx },
            );
        }
        Ok(crate::outsource::TransformKey {
            uid,
            owner,
            blinded_pk,
            entries,
        })
    }
}

impl WireCodec for crate::outsource::TransformToken {
    fn encode(&self, out: &mut Vec<u8>) {
        put_gt(out, &self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(crate::outsource::TransformToken(get_gt(r)?))
    }
}

impl WireCodec for Ciphertext {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.0.to_be_bytes());
        put_string(out, self.owner.as_str());
        put_gt(out, &self.c);
        put_g1(out, &self.c_prime);
        out.extend_from_slice(&(self.c_i.len() as u32).to_be_bytes());
        for c in &self.c_i {
            put_g1(out, c);
        }
        // The access structure travels as its canonical policy text; the
        // LSSS matrix is a deterministic function of it.
        put_string(out, &self.access.policy().to_string());
        out.extend_from_slice(&(self.versions.len() as u32).to_be_bytes());
        for (aid, v) in &self.versions {
            put_string(out, aid.as_str());
            out.extend_from_slice(&v.to_be_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let id = CiphertextId(r.u64()?);
        let owner = get_owner_id(r)?;
        let c = get_gt(r)?;
        let c_prime = get_g1(r)?;
        let n = get_count(r)?;
        let mut c_i = Vec::with_capacity(n);
        for _ in 0..n {
            c_i.push(get_g1(r)?);
        }
        let policy_text = get_string(r)?;
        let policy = mabe_policy::parse(&policy_text)
            .map_err(|_| Error::Malformed("invalid policy text"))?;
        let access = AccessStructure::from_policy(&policy)?;
        if access.rows() != c_i.len() {
            return Err(Error::Malformed("row count does not match policy"));
        }
        let m = get_count(r)?;
        let mut versions = BTreeMap::new();
        for _ in 0..m {
            let aid = get_authority_id(r)?;
            versions.insert(aid, r.u64()?);
        }
        if versions
            .keys()
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
            != access.authorities()
        {
            return Err(Error::Malformed(
                "version map does not match policy authorities",
            ));
        }
        Ok(Ciphertext {
            id,
            owner,
            c,
            c_prime,
            c_i,
            access,
            versions,
        })
    }
}

impl WireCodec for crate::authority::RevocationEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.aid.as_str());
        out.extend_from_slice(&self.from_version.to_be_bytes());
        out.extend_from_slice(&self.to_version.to_be_bytes());
        put_string(out, self.revoked_uid.as_str());
        out.extend_from_slice(&(self.revoked_attributes.len() as u32).to_be_bytes());
        for attr in &self.revoked_attributes {
            put_attribute(out, attr);
        }
        out.extend_from_slice(&(self.update_keys.len() as u32).to_be_bytes());
        for uk in self.update_keys.values() {
            uk.encode(out);
        }
        out.extend_from_slice(&(self.revoked_user_keys.len() as u32).to_be_bytes());
        for key in self.revoked_user_keys.values() {
            key.encode(out);
        }
        self.new_public_keys.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let aid = get_authority_id(r)?;
        let from_version = r.u64()?;
        let to_version = r.u64()?;
        if to_version != from_version + 1 {
            return Err(Error::Malformed("revocation must bump version by one"));
        }
        let revoked_uid = get_uid(r)?;
        let n = get_count(r)?;
        let mut revoked_attributes = std::collections::BTreeSet::new();
        for _ in 0..n {
            let attr = get_attribute(r)?;
            if attr.authority() != &aid {
                return Err(Error::Malformed("attribute under wrong authority"));
            }
            revoked_attributes.insert(attr);
        }
        let n = get_count(r)?;
        let mut update_keys = BTreeMap::new();
        for _ in 0..n {
            let uk = UpdateKey::decode(r)?;
            if uk.aid != aid || uk.from_version != from_version || uk.to_version != to_version {
                return Err(Error::Malformed("update key outside this revocation"));
            }
            if update_keys.insert(uk.owner.clone(), uk).is_some() {
                return Err(Error::Malformed("duplicate owner update key"));
            }
        }
        let n = get_count(r)?;
        let mut revoked_user_keys = BTreeMap::new();
        for _ in 0..n {
            let key = UserSecretKey::decode(r)?;
            if key.aid != aid || key.uid != revoked_uid || key.version != to_version {
                return Err(Error::Malformed("fresh key outside this revocation"));
            }
            if revoked_user_keys.insert(key.owner.clone(), key).is_some() {
                return Err(Error::Malformed("duplicate owner fresh key"));
            }
        }
        let new_public_keys = AuthorityPublicKeys::decode(r)?;
        if new_public_keys.aid != aid || new_public_keys.version != to_version {
            return Err(Error::Malformed("public keys outside this revocation"));
        }
        Ok(crate::authority::RevocationEvent {
            aid,
            from_version,
            to_version,
            revoked_uid,
            revoked_attributes,
            update_keys,
            revoked_user_keys,
            new_public_keys,
        })
    }
}

impl WireCodec for SealedComponent {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.label);
        self.key_ct.encode(out);
        out.extend_from_slice(&self.nonce);
        put_bytes(out, &self.sealed);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let label = get_string(r)?;
        let key_ct = Ciphertext::decode(r)?;
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(r.take(12)?);
        let sealed = get_bytes(r)?;
        Ok(SealedComponent {
            label,
            key_ct,
            nonce,
            sealed,
        })
    }
}

impl WireCodec for DataEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.components.len() as u32).to_be_bytes());
        for c in &self.components {
            c.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = get_count(r)?;
        let mut components = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            components.push(SealedComponent::decode(r)?);
        }
        distinct_labels(components.iter().map(|c| c.label.as_str()))?;
        Ok(DataEnvelope { components })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use crate::envelope::seal_component;
    use crate::owner::DataOwner;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        rng: StdRng,
        aa: AttributeAuthority,
        owner: DataOwner,
        user: UserPublicKey,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(808);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Org").unwrap();
        let mut aa = AttributeAuthority::new(aid, &["a", "b"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("owner"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let user = ca.register_user("alice", &mut rng).unwrap();
        aa.grant(&user, ["a@Org".parse().unwrap(), "b@Org".parse().unwrap()])
            .unwrap();
        World {
            rng,
            aa,
            owner,
            user,
        }
    }

    fn roundtrip<T: WireCodec + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_wire_bytes();
        let decoded = T::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(&decoded, v);
        // Truncation must fail (never panic); sample prefixes to keep
        // subgroup-check costs bounded.
        let step = (bytes.len() / 37).max(1);
        for cut in (0..bytes.len())
            .step_by(step)
            .chain(bytes.len().saturating_sub(3)..bytes.len())
        {
            assert!(
                T::from_wire_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
        // Trailing garbage must fail.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(T::from_wire_bytes(&extended).is_err());
        // Single-bit corruption must never panic. Decoding may still
        // succeed (flips inside opaque payload bytes are invisible to
        // the codec layer) but must always return cleanly.
        for pos in (0..bytes.len()).step_by(step) {
            for bit in [0x01u8, 0x40] {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= bit;
                let _ = T::from_wire_bytes(&corrupted);
            }
        }
    }

    #[test]
    fn user_public_key_roundtrip() {
        let w = world();
        roundtrip(&w.user);
    }

    #[test]
    fn owner_secret_key_roundtrip() {
        let w = world();
        roundtrip(&w.owner.owner_secret_key());
    }

    #[test]
    fn authority_public_keys_roundtrip() {
        let w = world();
        roundtrip(&w.aa.public_keys());
    }

    #[test]
    fn user_secret_key_roundtrip() {
        let w = world();
        let key = w.aa.keygen(&w.user.uid, w.owner.id()).unwrap();
        roundtrip(&key);
    }

    #[test]
    fn ciphertext_roundtrip_and_decrypts() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("a@Org AND b@Org").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        roundtrip(&ct);
        // The decoded ciphertext still decrypts to the same message.
        let decoded = Ciphertext::from_wire_bytes(&ct.to_wire_bytes()).unwrap();
        let keys: BTreeMap<_, _> = [(
            w.aa.aid().clone(),
            w.aa.keygen(&w.user.uid, w.owner.id()).unwrap(),
        )]
        .into();
        assert_eq!(
            crate::ciphertext::decrypt(&decoded, &w.user, &keys).unwrap(),
            msg
        );
    }

    #[test]
    fn update_key_and_info_roundtrip() {
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("a@Org").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let attr: Attribute = "a@Org".parse().unwrap();
        let event =
            w.aa.revoke_attribute(&w.user.uid, &attr, &mut w.rng)
                .unwrap();
        let uk = event.update_keys[w.owner.id()].clone();
        roundtrip(&uk);
        w.owner.apply_update_key(&uk).unwrap();
        let ui = w.owner.update_info_for(ct.id, w.aa.aid(), 1, 2).unwrap();
        roundtrip(&ui);
    }

    #[test]
    fn revocation_event_roundtrip() {
        let mut w = world();
        let attr: Attribute = "a@Org".parse().unwrap();
        let event =
            w.aa.revoke_attribute(&w.user.uid, &attr, &mut w.rng)
                .unwrap();
        roundtrip(&event);

        // Cross-field tampering is rejected: an update key claiming a
        // different version window cannot ride inside the event.
        let mut forged = event.clone();
        for uk in forged.update_keys.values_mut() {
            uk.from_version += 1;
            uk.to_version += 1;
        }
        assert!(matches!(
            crate::authority::RevocationEvent::from_wire_bytes(&forged.to_wire_bytes()),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn transform_key_and_token_roundtrip() {
        let mut w = world();
        let keys: BTreeMap<_, _> = [(
            w.aa.aid().clone(),
            w.aa.keygen(&w.user.uid, w.owner.id()).unwrap(),
        )]
        .into();
        let (tk, rk) = crate::outsource::make_transform_key(&w.user, &keys, &mut w.rng).unwrap();
        roundtrip(&tk);

        // A token produced from the decoded key still unblinds correctly.
        let msg = Gt::random(&mut w.rng);
        let ct = w
            .owner
            .encrypt_message(&msg, &parse("a@Org").unwrap(), &mut w.rng)
            .unwrap();
        let decoded_tk =
            crate::outsource::TransformKey::from_wire_bytes(&tk.to_wire_bytes()).unwrap();
        let token = crate::outsource::server_transform(&ct, &decoded_tk).unwrap();
        roundtrip(&token);
        let decoded_token =
            crate::outsource::TransformToken::from_wire_bytes(&token.to_wire_bytes()).unwrap();
        assert_eq!(
            crate::outsource::client_recover(&ct, &decoded_token, &rk),
            msg
        );
    }

    #[test]
    fn envelope_roundtrip() {
        let mut w = world();
        let policy = parse("a@Org").unwrap();
        let comp = seal_component(&mut w.owner, "payload", b"hello", &policy, &mut w.rng).unwrap();
        roundtrip(&comp);
        let envelope = DataEnvelope {
            components: vec![comp],
        };
        roundtrip(&envelope);
    }

    /// A component's label is its key within its record, so an encoded
    /// envelope that repeats one does not decode.
    #[test]
    fn an_envelope_with_a_repeated_label_fails_to_decode() {
        let mut w = world();
        let policy = parse("a@Org").unwrap();
        let components = ["note", "other", "note"]
            .map(|label| seal_component(&mut w.owner, label, b"x", &policy, &mut w.rng).unwrap());
        let bytes = DataEnvelope {
            components: components.to_vec(),
        }
        .to_wire_bytes();
        assert_eq!(
            DataEnvelope::from_wire_bytes(&bytes),
            Err(Error::Malformed("envelope: repeated component label"))
        );
    }

    #[test]
    fn encoded_ciphertext_close_to_analytic_size() {
        // Encoded bytes = analytic wire_size + small metadata (id,
        // owner string, policy text, version map).
        let mut w = world();
        let msg = Gt::random(&mut w.rng);
        let policy = parse("a@Org AND b@Org").unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let encoded = ct.to_wire_bytes().len();
        let analytic = ct.wire_size();
        assert!(
            encoded >= analytic,
            "encoding cannot be below element bytes"
        );
        assert!(
            encoded < analytic + 128,
            "metadata overhead should stay small: {encoded} vs {analytic}"
        );
    }

    #[test]
    fn tampered_group_element_rejected() {
        let w = world();
        let mut bytes = w.user.to_wire_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0x5a; // corrupt the x-coordinate
        assert!(UserPublicKey::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_authority_attribute_rejected() {
        // Hand-craft an AuthorityPublicKeys buffer whose attribute is
        // qualified with a different authority.
        let w = world();
        let pks = w.aa.public_keys();
        let mut forged = pks.clone();
        let foreign: Attribute = "a@Other".parse().unwrap();
        let some_pk = *forged.attr_pks.values().next().unwrap();
        forged.attr_pks.insert(foreign, some_pk);
        let bytes = forged.to_wire_bytes();
        assert!(matches!(
            AuthorityPublicKeys::from_wire_bytes(&bytes),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn scalar_codec_is_20_bytes() {
        let mut out = Vec::new();
        put_fr(&mut out, &Fr::from_u64(12345));
        assert_eq!(out.len(), 20);
        let mut r = Reader::new(&out);
        assert_eq!(get_fr(&mut r).unwrap(), Fr::from_u64(12345));
    }

    #[test]
    fn implausible_count_rejected() {
        // A version-map count of u32::MAX must be rejected before any
        // allocation attempt.
        let w = world();
        let pks = w.aa.public_keys();
        let mut bytes = Vec::new();
        put_string(&mut bytes, pks.aid.as_str());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        put_gt(&mut bytes, &pks.owner_pk);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            AuthorityPublicKeys::from_wire_bytes(&bytes),
            Err(Error::Malformed(_))
        ));
        // A count under the hard cap but larger than the unread input is
        // equally impossible and rejected before allocation.
        let last = bytes.len() - 4;
        bytes[last..].copy_from_slice(&100_000u32.to_be_bytes());
        assert!(matches!(
            AuthorityPublicKeys::from_wire_bytes(&bytes),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn reader_primitives() {
        let data = [1u8, 0, 2, 0, 0, 0, 3];
        let mut r = Reader::new(&data);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert!(r.is_exhausted());
        assert!(r.u8().is_err());
    }
}
