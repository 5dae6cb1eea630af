//! The data owner (paper §V-B "Owner Setup", Phase 3, and §V-C Phase 2).
//!
//! Each owner holds its own master key `MK_o = {β, r}` — this is the
//! paper's replacement for a global authority: *"We propose a new
//! technique by letting each owner hold its own master key, while each
//! authority only holds its version key."* The owner encrypts content
//! keys under LSSS policies, keeps the encryption exponent `s` of every
//! ciphertext, and after a revocation produces the update information
//! `UI_x = (PK_x / P̃K_x)^{βs}` that lets the server re-encrypt without
//! decrypting.

use std::collections::BTreeMap;

use rand::RngCore;

use mabe_math::{FixedBase, FixedBaseCache, G1Affine, Gt, G1};
use mabe_policy::{AccessStructure, Attribute, AuthorityId, Policy};

use crate::ciphertext::{encrypt, Ciphertext, CiphertextId};
use crate::error::Error;
use crate::ids::OwnerId;
use crate::keys::{AuthorityPublicKeys, OwnerMasterKey, OwnerSecretKey, UpdateKey};
use crate::revoke::{
    UpdateInfo, UpdateTables, WithTables, FIXED_BASE_BREAK_EVEN, LINES_BREAK_EVEN,
};

use mabe_math::Fr;

/// One authority version's public attribute keys.
type AttributeKeys = BTreeMap<Attribute, G1Affine>;

/// Per-ciphertext record the owner retains (the exponent `s` plus the
/// attribute labelling, enough to regenerate update information).
/// Durable stores keep one per ciphertext, apart from the owner's own
/// encoding, and hand it back through [`DataOwner::adopt_record`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptionRecord {
    /// The encryption exponent `s`.
    pub s: Fr,
    /// The attribute labelling each LSSS row, `ρ`.
    pub attributes: Vec<Attribute>,
}

/// A data owner.
#[derive(Debug)]
pub struct DataOwner {
    id: OwnerId,
    mk: OwnerMasterKey,
    /// Latest known public keys per authority.
    authority_keys: BTreeMap<AuthorityId, AuthorityPublicKeys>,
    /// Historical public attribute keys per (authority, version), kept so
    /// update information for lagging ciphertexts can be computed.
    attr_pk_history: BTreeMap<(AuthorityId, u64), AttributeKeys>,
    records: BTreeMap<CiphertextId, EncryptionRecord>,
    next_id: u64,
    /// Derived, never encoded: per attribute of the current key
    /// versions, its encryption count and, from the
    /// [`FIXED_BASE_BREAK_EVEN`]-th encryption under one `PK_x` on, a
    /// fixed-base table of it for [`encrypt`]'s `PK_x^{−βs}`. An
    /// authority's entries go whenever its keys change.
    key_tables: FixedBaseCache<Attribute>,
}

impl DataOwner {
    /// Runs `OwnerGen`: samples `MK_o = {β, r}`.
    pub fn new<R: RngCore + ?Sized>(id: OwnerId, rng: &mut R) -> Self {
        DataOwner {
            id,
            mk: OwnerMasterKey::random(rng),
            authority_keys: BTreeMap::new(),
            attr_pk_history: BTreeMap::new(),
            records: BTreeMap::new(),
            next_id: 1,
            key_tables: FixedBaseCache::default(),
        }
    }

    /// This owner's identifier.
    pub fn id(&self) -> &OwnerId {
        &self.id
    }

    /// Derives `SK_o = {g^{1/β}, r/β}` for registration with an authority.
    pub fn owner_secret_key(&self) -> OwnerSecretKey {
        self.mk.secret_key(&self.id)
    }

    /// Ingests (or refreshes) an authority's published keys, dropping
    /// the tables of its previous ones.
    pub fn learn_authority_keys(&mut self, keys: AuthorityPublicKeys) {
        self.drop_key_tables(&keys.aid);
        self.attr_pk_history
            .insert((keys.aid.clone(), keys.version), keys.attr_pks.clone());
        self.authority_keys.insert(keys.aid.clone(), keys);
    }

    fn drop_key_tables(&mut self, aid: &AuthorityId) {
        self.key_tables.retain(|attr| attr.authority() != aid);
    }

    /// The fixed-base tables this owner keeps of its current attribute
    /// keys (derived state: a reopened owner starts without any).
    pub fn key_tables(&self) -> &FixedBaseCache<Attribute> {
        &self.key_tables
    }

    /// Latest known key version for an authority, if any.
    pub fn known_version(&self, aid: &AuthorityId) -> Option<u64> {
        self.authority_keys.get(aid).map(|k| k.version)
    }

    /// Encrypts a `G_T` message under a policy, assigning a fresh
    /// ciphertext id and recording `s`.
    ///
    /// # Errors
    ///
    /// Propagates [`encrypt`] errors, plus [`Error::Lsss`] for policies
    /// that do not convert (duplicate attributes).
    pub fn encrypt_message<R: RngCore + ?Sized>(
        &mut self,
        message: &Gt,
        policy: &Policy,
        rng: &mut R,
    ) -> Result<Ciphertext, Error> {
        let access = AccessStructure::from_policy(policy)?;
        self.encrypt_under(message, &access, rng)
    }

    /// Encrypts under a pre-built access structure. Counts one use of
    /// each row's `PK_x`, and from the [`FIXED_BASE_BREAK_EVEN`]-th use
    /// of one key on multiplies it from a kept table.
    ///
    /// # Errors
    ///
    /// See [`encrypt`].
    pub fn encrypt_under<R: RngCore + ?Sized>(
        &mut self,
        message: &Gt,
        access: &AccessStructure,
        rng: &mut R,
    ) -> Result<Ciphertext, Error> {
        let id = self.next_ciphertext_id();
        let (ct, record) = self.encrypt_as(id, message, access, rng)?;
        self.adopt_record(id, record.s, record.attributes);
        Ok(ct)
    }

    /// [`Self::encrypt_under`] as ciphertext `id`, retaining nothing:
    /// the record to hand to [`Self::adopt_record`] comes back beside
    /// the ciphertext. Only the `PK_x` use counts move.
    pub(crate) fn encrypt_as<R: RngCore + ?Sized>(
        &mut self,
        id: CiphertextId,
        message: &Gt,
        access: &AccessStructure,
        rng: &mut R,
    ) -> Result<(Ciphertext, EncryptionRecord), Error> {
        for attr in access.rho() {
            let pk = self
                .authority_keys
                .get(attr.authority())
                .and_then(|keys| keys.attr_pks.get(attr));
            if let Some(pk) = pk {
                self.key_tables.count_use(attr, pk);
            }
        }
        let (ct, s) = encrypt(
            message,
            access,
            &self.mk,
            &self.id,
            id,
            WithTables::new(&self.authority_keys, Some(&self.key_tables)),
            rng,
        )?;
        let record = EncryptionRecord {
            s,
            attributes: access.rho().to_vec(),
        };
        Ok((ct, record))
    }

    /// Applies an authority's update key after a revocation (paper §V-C
    /// Phase 1 step 3): `P̃K_o = PK_o^{UK2}`, `P̃K_x = PK_x^{UK2}`.
    ///
    /// # Errors
    ///
    /// Fails on unknown authority, wrong owner scope, or version gaps.
    pub fn apply_update_key(&mut self, uk: &UpdateKey) -> Result<(), Error> {
        if uk.owner != self.id {
            return Err(Error::OwnerMismatch {
                expected: self.id.clone(),
                found: uk.owner.clone(),
            });
        }
        let keys = self
            .authority_keys
            .get_mut(&uk.aid)
            .ok_or_else(|| Error::MissingAuthorityKey(uk.aid.clone()))?;
        if keys.version != uk.from_version {
            return Err(Error::VersionMismatch {
                authority: uk.aid.clone(),
                expected: uk.from_version,
                found: keys.version,
            });
        }
        keys.owner_pk = keys.owner_pk.pow(&uk.uk2);
        for pk in keys.attr_pks.values_mut() {
            *pk = G1Affine::from(G1::from(*pk).mul(&uk.uk2));
        }
        keys.version = uk.to_version;
        self.attr_pk_history
            .insert((uk.aid.clone(), uk.to_version), keys.attr_pks.clone());
        self.drop_key_tables(&uk.aid);
        Ok(())
    }

    /// Produces the update information `UI_x = (PK_x / P̃K_x)^{βs}` for
    /// one ciphertext and one authority-version step (paper §V-C Phase 2).
    /// `aid` may carry a worklist's [`UpdateTables`]; an attribute with a
    /// table for this exact step then multiplies fixed-base, with the
    /// same result.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext id is unknown or the owner lacks public
    /// keys for either version.
    pub fn update_info_for<'a>(
        &self,
        ct_id: CiphertextId,
        aid: impl Into<WithTables<'a, AuthorityId>>,
        from_version: u64,
        to_version: u64,
    ) -> Result<UpdateInfo, Error> {
        let WithTables { value: aid, tables } = aid.into();
        let record = self
            .records
            .get(&ct_id)
            .ok_or(Error::Malformed("unknown ciphertext id"))?;
        let (old, new) = self.key_history(aid, from_version, to_version)?;

        let beta_s = self.mk.beta.mul(&record.s);
        let mut items = BTreeMap::new();
        for attr in record.attributes.iter().filter(|a| a.authority() == aid) {
            // Computed even when a table exists: a missing key fails
            // the same way with or without tables.
            let ratio = key_ratio(old, new, attr)?;
            let table =
                tables.and_then(|t| t.ratio_for(&self.id, aid, from_version, to_version, attr));
            let ui = match table {
                Some(table) => table.mul(&beta_s),
                None => ratio.mul(&beta_s),
            };
            items.insert(attr.clone(), G1Affine::from(ui));
        }
        Ok(UpdateInfo {
            aid: aid.clone(),
            ct_id,
            from_version,
            to_version,
            items,
        })
    }

    /// Preprocesses `uk`'s step for a worklist of this owner's
    /// ciphertexts: `UK1`'s Miller lines once the worklist reaches
    /// [`LINES_BREAK_EVEN`], and a fixed-base table of `PK_x / P̃K_x`
    /// for each attribute of `uk.aid` that labels at least
    /// [`FIXED_BASE_BREAK_EVEN`] of them. Unknown ids and attributes
    /// whose key history is missing get no table; the per-ciphertext
    /// calls report those as they would without tables.
    pub fn update_tables(&self, uk: &UpdateKey, worklist: &[CiphertextId]) -> UpdateTables {
        let mut uses: BTreeMap<&Attribute, usize> = BTreeMap::new();
        for record in worklist.iter().filter_map(|id| self.records.get(id)) {
            for attr in record
                .attributes
                .iter()
                .filter(|a| a.authority() == &uk.aid)
            {
                *uses.entry(attr).or_default() += 1;
            }
        }
        let mut ratios = BTreeMap::new();
        if uk.owner == self.id {
            if let Ok((old, new)) = self.key_history(&uk.aid, uk.from_version, uk.to_version) {
                for (attr, _) in uses.iter().filter(|(_, n)| **n >= FIXED_BASE_BREAK_EVEN) {
                    if let Ok(ratio) = key_ratio(old, new, attr) {
                        ratios.insert((*attr).clone(), FixedBase::new(&ratio));
                    }
                }
            }
        }
        UpdateTables::new(uk, worklist.len() >= LINES_BREAK_EVEN, ratios)
    }

    /// This owner's public attribute keys of `aid` at both ends of a
    /// version step.
    fn key_history(
        &self,
        aid: &AuthorityId,
        from_version: u64,
        to_version: u64,
    ) -> Result<(&AttributeKeys, &AttributeKeys), Error> {
        let at = |version| {
            self.attr_pk_history
                .get(&(aid.clone(), version))
                .ok_or_else(|| Error::MissingAuthorityKey(aid.clone()))
        };
        Ok((at(from_version)?, at(to_version)?))
    }

    /// Number of ciphertexts this owner has produced.
    pub fn ciphertext_count(&self) -> usize {
        self.records.len()
    }

    /// Every retained ciphertext record, in id order.
    pub fn records(&self) -> impl Iterator<Item = (CiphertextId, &EncryptionRecord)> {
        self.records.iter().map(|(id, record)| (*id, record))
    }

    /// The retained record of one ciphertext.
    pub fn record(&self, id: CiphertextId) -> Option<&EncryptionRecord> {
        self.records.get(&id)
    }

    /// The id the next encryption gets; every retained record's id is
    /// below it.
    pub fn next_ciphertext_id(&self) -> CiphertextId {
        CiphertextId(self.next_id)
    }

    /// Paper-accounted storage overhead of this owner in bytes
    /// (Table III "Owner" row: `2|p| + Σ_k (n_k|G| + |G_T|)`).
    pub fn storage_size(&self) -> usize {
        use crate::keys::ZP_BYTES;
        2 * ZP_BYTES
            + self
                .authority_keys
                .values()
                .map(AuthorityPublicKeys::wire_size)
                .sum::<usize>()
    }

    /// Direct access to the KEM element API: derives a fresh random
    /// content-key element.
    pub fn random_content_key<R: RngCore + ?Sized>(rng: &mut R) -> Gt {
        Gt::random(rng)
    }

    /// The retained encryption exponent `s` of one ciphertext (durable
    /// journaling needs it; without `s` the owner cannot regenerate
    /// update information after a restart).
    pub fn encryption_secret(&self, id: CiphertextId) -> Option<Fr> {
        self.records.get(&id).map(|r| r.s)
    }

    /// Re-installs a ciphertext record captured by [`Self::records`] or
    /// [`Self::encryption_secret`] (journal replay): the exponent `s`
    /// plus the row labelling, keyed by the original id. Advances the id
    /// counter past `id` so later encryptions never collide.
    pub fn adopt_record(&mut self, id: CiphertextId, s: Fr, attributes: Vec<Attribute>) {
        self.records.insert(id, EncryptionRecord { s, attributes });
        self.next_id = self.next_id.max(id.0 + 1);
    }

    /// Drops the records of ciphertexts that never left the owner (a
    /// publish whose upload failed). The id counter moves back to the
    /// first of `ids` only if no id past them has been handed out
    /// since, so ids stay unique while another seal is in flight.
    pub fn forget_records(&mut self, ids: &[CiphertextId]) {
        for id in ids {
            self.records.remove(id);
        }
        if let (Some(first), Some(last)) = (ids.iter().min(), ids.iter().max()) {
            if self.next_id == last.0 + 1 {
                self.next_id = first.0;
            }
        }
    }
}

/// `PK_x · P̃K_x⁻¹`, the base of `UI_x`.
fn key_ratio(old: &AttributeKeys, new: &AttributeKeys, attr: &Attribute) -> Result<G1, Error> {
    let missing = || Error::MissingPublicAttributeKey(attr.clone());
    let pk_old = old.get(attr).ok_or_else(missing)?;
    let pk_new = new.get(attr).ok_or_else(missing)?;
    Ok(G1::from(*pk_old).add(&G1::from(*pk_new).neg()))
}

// Owner state (master key, keys and key history) travels only into
// durable snapshots, reusing the validated wire primitives. The
// per-ciphertext records are not part of it: a store keeps each as a row
// of its own and re-adopts them.
impl crate::serial::WireCodec for DataOwner {
    fn encode(&self, out: &mut Vec<u8>) {
        use crate::serial::{put_attribute, put_fr, put_g1, put_string};
        put_string(out, self.id.as_str());
        put_fr(out, &self.mk.beta);
        put_fr(out, &self.mk.r);
        out.extend_from_slice(&(self.authority_keys.len() as u32).to_be_bytes());
        for keys in self.authority_keys.values() {
            keys.encode(out);
        }
        out.extend_from_slice(&(self.attr_pk_history.len() as u32).to_be_bytes());
        for ((aid, version), pks) in &self.attr_pk_history {
            put_string(out, aid.as_str());
            out.extend_from_slice(&version.to_be_bytes());
            out.extend_from_slice(&(pks.len() as u32).to_be_bytes());
            for (attr, pk) in pks {
                put_attribute(out, attr);
                put_g1(out, pk);
            }
        }
        out.extend_from_slice(&self.next_id.to_be_bytes());
    }

    fn decode(r: &mut crate::serial::Reader<'_>) -> Result<Self, Error> {
        use crate::serial::{
            get_attribute, get_authority_id, get_count, get_fr, get_g1, get_owner_id,
        };
        let id = get_owner_id(r)?;
        let beta = get_fr(r)?;
        let mk_r = get_fr(r)?;
        if beta.is_zero() || mk_r.is_zero() {
            return Err(Error::Malformed("zero owner master key component"));
        }
        let n = get_count(r)?;
        let mut authority_keys = BTreeMap::new();
        for _ in 0..n {
            let keys = AuthorityPublicKeys::decode(r)?;
            if authority_keys.insert(keys.aid.clone(), keys).is_some() {
                return Err(Error::Malformed("duplicate authority in owner state"));
            }
        }
        let n = get_count(r)?;
        let mut attr_pk_history = BTreeMap::new();
        for _ in 0..n {
            let aid = get_authority_id(r)?;
            let version = r.u64()?;
            let m = get_count(r)?;
            let mut pks = BTreeMap::new();
            for _ in 0..m {
                let attr = get_attribute(r)?;
                if attr.authority() != &aid {
                    return Err(Error::Malformed("attribute under wrong authority"));
                }
                pks.insert(attr, get_g1(r)?);
            }
            if attr_pk_history.insert((aid, version), pks).is_some() {
                return Err(Error::Malformed("duplicate history entry in owner state"));
            }
        }
        // Ids start at 1, so a zero counter was never issued.
        let next_id = r.u64()?;
        if next_id == 0 {
            return Err(Error::Malformed("zero ciphertext id counter"));
        }
        Ok(DataOwner {
            id,
            mk: OwnerMasterKey { beta, r: mk_r },
            authority_keys,
            attr_pk_history,
            records: BTreeMap::new(),
            next_id,
            key_tables: FixedBaseCache::default(),
        })
    }
}

/// `s ‖ u32 n ‖ n × attribute`.
impl crate::serial::WireCodec for EncryptionRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        use crate::serial::{put_attribute, put_fr};
        put_fr(out, &self.s);
        out.extend_from_slice(&(self.attributes.len() as u32).to_be_bytes());
        for attr in &self.attributes {
            put_attribute(out, attr);
        }
    }

    fn decode(r: &mut crate::serial::Reader<'_>) -> Result<Self, Error> {
        use crate::serial::{get_attribute, get_count, get_fr};
        let s = get_fr(r)?;
        let n = get_count(r)?;
        let mut attributes = Vec::with_capacity(n);
        for _ in 0..n {
            attributes.push(get_attribute(r)?);
        }
        Ok(EncryptionRecord { s, attributes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encrypt_assigns_sequential_ids_and_records() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(aid, &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());

        let msg = Gt::random(&mut rng);
        let policy = parse("Doctor@Med").unwrap();
        let ct1 = owner.encrypt_message(&msg, &policy, &mut rng).unwrap();
        let ct2 = owner.encrypt_message(&msg, &policy, &mut rng).unwrap();
        assert_eq!(ct1.id, CiphertextId(1));
        assert_eq!(ct2.id, CiphertextId(2));
        assert_eq!(owner.ciphertext_count(), 2);
    }

    #[test]
    fn encrypt_without_authority_keys_fails() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        let msg = Gt::random(&mut rng);
        let policy = parse("Doctor@Med").unwrap();
        assert!(matches!(
            owner.encrypt_message(&msg, &policy, &mut rng),
            Err(Error::MissingAuthorityKey(_))
        ));
    }

    #[test]
    fn update_key_wrong_owner_rejected() {
        let mut rng = StdRng::seed_from_u64(79);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        let uk = UpdateKey {
            aid: AuthorityId::new("Med"),
            from_version: 1,
            to_version: 2,
            owner: OwnerId::new("other"),
            uk1: G1Affine::generator(),
            uk2: Fr::from_u64(2),
        };
        assert!(matches!(
            owner.apply_update_key(&uk),
            Err(Error::OwnerMismatch { .. })
        ));
    }

    #[test]
    fn update_info_error_paths() {
        let mut rng = StdRng::seed_from_u64(4321);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(aid.clone(), &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let msg = Gt::random(&mut rng);
        let ct = owner
            .encrypt_message(&msg, &parse("Doctor@Med").unwrap(), &mut rng)
            .unwrap();

        // Unknown ciphertext id.
        assert!(matches!(
            owner.update_info_for(CiphertextId(999), &aid, 1, 2),
            Err(Error::Malformed(_))
        ));
        // Version 2 history does not exist yet.
        assert!(matches!(
            owner.update_info_for(ct.id, &aid, 1, 2),
            Err(Error::MissingAuthorityKey(_))
        ));
        // Unknown authority.
        assert!(matches!(
            owner.update_info_for(ct.id, &AuthorityId::new("Nowhere"), 1, 2),
            Err(Error::MissingAuthorityKey(_))
        ));
    }

    #[test]
    fn apply_update_checks_version_continuity() {
        let mut rng = StdRng::seed_from_u64(8765);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let aa = AttributeAuthority::new(aid.clone(), &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        owner.learn_authority_keys(aa.public_keys());
        let uk = UpdateKey {
            aid: aid.clone(),
            from_version: 7, // owner is at version 1
            to_version: 8,
            owner: OwnerId::new("o"),
            uk2: Fr::from_u64(2),
            uk1: G1Affine::generator(),
        };
        assert!(matches!(
            owner.apply_update_key(&uk),
            Err(Error::VersionMismatch { .. })
        ));
        assert_eq!(owner.known_version(&aid), Some(1));
        assert_eq!(owner.known_version(&AuthorityId::new("Nowhere")), None);
    }

    #[test]
    fn owner_state_roundtrips_through_wire_codec() {
        use crate::serial::WireCodec;
        let mut rng = StdRng::seed_from_u64(81);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(aid.clone(), &["Doctor", "Nurse"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let msg = Gt::random(&mut rng);
        let ct = owner
            .encrypt_message(&msg, &parse("Doctor@Med OR Nurse@Med").unwrap(), &mut rng)
            .unwrap();
        // Bump to version 2 so the history map has two entries.
        let uid = crate::ids::Uid::new("ghost");
        aa.grant(
            &ca.register_user("ghost", &mut rng).unwrap(),
            ["Doctor@Med".parse().unwrap()],
        )
        .unwrap();
        let event = aa
            .revoke_attribute(&uid, &"Doctor@Med".parse().unwrap(), &mut rng)
            .unwrap();
        owner
            .apply_update_key(event.update_keys.get(&OwnerId::new("o")).unwrap())
            .unwrap();

        // The owner's encoding leaves the records out; a store adopts
        // each from its own encoding.
        let bytes = owner.to_wire_bytes();
        let mut restored = DataOwner::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored.ciphertext_count(), 0);
        assert_eq!(restored.next_ciphertext_id(), owner.next_ciphertext_id());
        for (id, record) in owner.records() {
            let record = EncryptionRecord::from_wire_bytes(&record.to_wire_bytes()).unwrap();
            assert_eq!(Some(&record), owner.record(id));
            restored.adopt_record(id, record.s, record.attributes);
        }
        assert_eq!(restored.id(), owner.id());
        assert_eq!(restored.owner_secret_key(), owner.owner_secret_key());
        assert_eq!(restored.known_version(&aid), owner.known_version(&aid));
        assert_eq!(restored.ciphertext_count(), owner.ciphertext_count());
        assert_eq!(
            restored.encryption_secret(ct.id),
            owner.encryption_secret(ct.id)
        );
        // The restored owner regenerates identical update information —
        // the property replay actually depends on.
        assert_eq!(
            restored.update_info_for(ct.id, &aid, 1, 2).unwrap(),
            owner.update_info_for(ct.id, &aid, 1, 2).unwrap()
        );

        for cut in (0..bytes.len()).step_by((bytes.len() / 31).max(1)) {
            assert!(DataOwner::from_wire_bytes(&bytes[..cut]).is_err());
        }
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(DataOwner::from_wire_bytes(&extended).is_err());
    }

    #[test]
    fn adopt_record_advances_id_counter() {
        let mut rng = StdRng::seed_from_u64(82);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(aid, &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        owner.adopt_record(
            CiphertextId(9),
            Fr::from_u64(3),
            vec!["Doctor@Med".parse().unwrap()],
        );
        assert_eq!(
            owner.encryption_secret(CiphertextId(9)),
            Some(Fr::from_u64(3))
        );
        let msg = Gt::random(&mut rng);
        let ct = owner
            .encrypt_message(&msg, &parse("Doctor@Med").unwrap(), &mut rng)
            .unwrap();
        assert_eq!(ct.id, CiphertextId(10));
    }

    #[test]
    fn forgotten_records_rewind_the_counter_only_if_nothing_followed_them() {
        let mut rng = StdRng::seed_from_u64(83);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        let doctor = || vec!["Doctor@Med".parse().unwrap()];
        for id in 1..=4 {
            owner.adopt_record(CiphertextId(id), Fr::from_u64(id), doctor());
        }
        // Ids 3 and 4 were the last handed out: they are free again.
        owner.forget_records(&[CiphertextId(3), CiphertextId(4)]);
        assert_eq!(owner.next_ciphertext_id(), CiphertextId(3));
        assert!(owner.record(CiphertextId(3)).is_none());
        // Ids 3 and 4 again, then 5 by another seal: 3 and 4 go, the
        // counter stays past 5.
        for id in 3..=5 {
            owner.adopt_record(CiphertextId(id), Fr::from_u64(id), doctor());
        }
        owner.forget_records(&[CiphertextId(3), CiphertextId(4)]);
        assert_eq!(owner.next_ciphertext_id(), CiphertextId(6));
        assert!(owner.record(CiphertextId(4)).is_none());
        assert!(owner.record(CiphertextId(5)).is_some());
        owner.forget_records(&[]);
        assert_eq!(owner.next_ciphertext_id(), CiphertextId(6));
    }

    #[test]
    fn storage_size_matches_formula() {
        let mut rng = StdRng::seed_from_u64(80);
        let mut ca = CertificateAuthority::new();
        let aid = ca.register_authority("Med").unwrap();
        let aa = AttributeAuthority::new(aid, &["Doctor", "Nurse"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        owner.learn_authority_keys(aa.public_keys());
        use crate::keys::{GT_BYTES, G_BYTES, ZP_BYTES};
        assert_eq!(owner.storage_size(), 2 * ZP_BYTES + 2 * G_BYTES + GT_BYTES);
    }
}
