//! Server-side proxy re-encryption for attribute revocation
//! (paper §V-C Phase 2, Eq. 2).
//!
//! ```text
//! C̃  = C · e(UK1, C')          — refreshes the α_AID factor in C
//! C̃_i = C_i · UI_{ρ(i)}        — for rows labelled by the updated AA
//! ```
//!
//! The server never decrypts: `UK1 = g^{(α̃-α)/β}` and
//! `UI_x = (PK_x / P̃K_x)^{βs}` let it move a ciphertext to the new key
//! version while the content key stays hidden. Rows of other authorities
//! are untouched, which is the efficiency point the paper stresses.
//!
//! [`reencrypt`] is two steps composed. [`Refresh::new`] evaluates the
//! pairing `e(UK1, C')` from `C'` alone, so a server can compute it with
//! no lock on the stored ciphertext and on any thread;
//! [`apply_reencryption`] validates the ciphertext as it stands and
//! multiplies the refresh and `UI` in. [`check_reencryption`] is the
//! validation on its own, for a caller that wants to skip the pairing of
//! a component that is already past the step.
//!
//! One revocation re-encrypts every affected ciphertext of an owner
//! under the same `UK1` and the same `PK_x / P̃K_x` bases, so a worklist
//! preprocesses them once ([`UpdateTables`], PBC's `pairing_pp_init`
//! and `element_pp_init`) and hands the tables to [`Refresh::new`],
//! [`reencrypt`] and [`crate::DataOwner::update_info_for`] through
//! [`WithTables`]. The tables change how the same group elements are
//! computed, never which: output bytes and op counts are those of the
//! unpreprocessed path.

use std::collections::BTreeMap;

use mabe_math::{pairing, FixedBase, FixedPairing, G1Affine, Gt, G1};
use mabe_policy::{Attribute, AuthorityId};
use mabe_telemetry::SpanMetric;

use crate::ciphertext::{Ciphertext, CiphertextId};
use crate::error::Error;
use crate::ids::OwnerId;
use crate::keys::UpdateKey;

static REENCRYPT: SpanMetric = SpanMetric::new("mabe_reencrypt", &[]);

pub use mabe_math::{FIXED_BASE_BREAK_EVEN, LINES_BREAK_EVEN};

/// One revocation step (owner, authority, `from → to`) preprocessed for
/// a worklist: `UK1`'s Miller lines for the server's `e(UK1, C')`, and
/// a fixed-base table per attribute ratio `PK_x / P̃K_x` for the owner's
/// `UI_x`. Each is built only past its break-even
/// ([`LINES_BREAK_EVEN`], [`FIXED_BASE_BREAK_EVEN`]), and each is used
/// only for the step it was built for; any other step runs the full
/// pairing and variable-base multiplication. Built by
/// [`crate::DataOwner::update_tables`]; read-only after that, so
/// parallel workers share one.
#[derive(Debug)]
pub struct UpdateTables {
    owner: OwnerId,
    aid: AuthorityId,
    from_version: u64,
    to_version: u64,
    lines: Option<FixedPairing>,
    ratios: BTreeMap<Attribute, FixedBase>,
}

impl UpdateTables {
    /// Tables for `uk`'s step: lines when `lines` is set, plus the
    /// given ratio tables.
    pub(crate) fn new(uk: &UpdateKey, lines: bool, ratios: BTreeMap<Attribute, FixedBase>) -> Self {
        UpdateTables {
            owner: uk.owner.clone(),
            aid: uk.aid.clone(),
            from_version: uk.from_version,
            to_version: uk.to_version,
            lines: lines.then(|| FixedPairing::new(&uk.uk1)),
            ratios,
        }
    }

    fn covers(&self, owner: &OwnerId, aid: &AuthorityId, from: u64, to: u64) -> bool {
        &self.owner == owner
            && &self.aid == aid
            && self.from_version == from
            && self.to_version == to
    }

    /// `UK1`'s lines, if these tables hold them for exactly `uk`.
    fn lines_for(&self, uk: &UpdateKey) -> Option<&FixedPairing> {
        let step = self.covers(&uk.owner, &uk.aid, uk.from_version, uk.to_version);
        self.lines
            .as_ref()
            .filter(|lines| step && lines.base() == &uk.uk1)
    }

    /// The table of `attr`'s ratio, if these tables hold one for the
    /// step `(owner, aid, from → to)`.
    pub(crate) fn ratio_for(
        &self,
        owner: &OwnerId,
        aid: &AuthorityId,
        from: u64,
        to: u64,
        attr: &Attribute,
    ) -> Option<&FixedBase> {
        if self.covers(owner, aid, from, to) {
            self.ratios.get(attr)
        } else {
            None
        }
    }

    /// `true` if `UK1`'s lines were built.
    pub fn has_lines(&self) -> bool {
        self.lines.is_some()
    }

    /// How many ratio tables were built.
    pub fn ratio_tables(&self) -> usize {
        self.ratios.len()
    }
}

/// An argument together with the tables its holder kept for it
/// ([`mabe_math::WithTables`]); by default the [`UpdateTables`] a
/// worklist built for its step. A bare reference converts with none,
/// so a one-off call reads `reencrypt(&mut ct, &uk, &ui)` and runs the
/// full computation.
pub type WithTables<'a, T, P = UpdateTables> = mabe_math::WithTables<'a, T, P>;

/// The update information `UI_AID = {UI_x}` an owner publishes for one
/// ciphertext after a revocation at one authority.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateInfo {
    /// The authority whose keys changed.
    pub aid: AuthorityId,
    /// The ciphertext this information applies to.
    pub ct_id: CiphertextId,
    /// Version the ciphertext must currently be at.
    pub from_version: u64,
    /// Version after re-encryption.
    pub to_version: u64,
    /// `UI_x = (PK_x / P̃K_x)^{βs}` per affected attribute.
    pub items: BTreeMap<Attribute, G1Affine>,
}

impl UpdateInfo {
    /// Wire size in bytes (one `G` element per affected attribute).
    pub fn wire_size(&self) -> usize {
        self.items.len() * crate::keys::G_BYTES
    }
}

/// `e(UK1, C')` for one ciphertext under one update key: the pairing of
/// `ReEncrypt`, computed from `C'` alone. `C'` never changes under
/// re-encryption, so a refresh made from a copy of it stays valid while
/// the ciphertext keeps its id; [`apply_reencryption`] checks that it
/// was made for the ciphertext and the step it is applied to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refresh {
    ct_id: CiphertextId,
    aid: AuthorityId,
    from_version: u64,
    to_version: u64,
    factor: Gt,
}

impl Refresh {
    /// Evaluates `e(UK1, C')` for ciphertext `ct_id`, whose `C'` is
    /// `c_prime`. `uk` may carry the worklist's [`UpdateTables`]; the
    /// pairing then evaluates `UK1`'s precomputed lines, with the same
    /// result. Pure: it reads nothing but its arguments.
    pub fn new<'a>(
        ct_id: CiphertextId,
        c_prime: &G1Affine,
        uk: impl Into<WithTables<'a, UpdateKey>>,
    ) -> Self {
        // The re-encryption latency series times the pairing, which is
        // where a re-encryption spends its time, on whichever thread.
        let _span = mabe_telemetry::Span::on(&REENCRYPT);
        let WithTables { value: uk, tables } = uk.into();
        let factor = match tables.and_then(|t| t.lines_for(uk)) {
            Some(lines) => lines.pairing(c_prime),
            None => pairing(&uk.uk1, c_prime),
        };
        Refresh {
            ct_id,
            aid: uk.aid.clone(),
            from_version: uk.from_version,
            to_version: uk.to_version,
            factor,
        }
    }
}

/// Checks that `uk` and `ui` can move `ct` one step, without changing
/// it: every check [`apply_reencryption`] makes before it multiplies.
///
/// # Errors
///
/// * [`Error::OwnerMismatch`] — update key scoped to a different owner.
/// * [`Error::Malformed`] — update info for a different authority or
///   step, or missing an affected attribute.
/// * [`Error::CiphertextMismatch`] — update info for a different
///   ciphertext (the record was republished since it was made).
/// * [`Error::MissingAuthorityKey`] — `ct` involves no row of `uk.aid`.
/// * [`Error::VersionMismatch`] — the ciphertext is not at `from_version`.
pub fn check_reencryption(ct: &Ciphertext, uk: &UpdateKey, ui: &UpdateInfo) -> Result<(), Error> {
    if uk.owner != ct.owner {
        return Err(Error::OwnerMismatch {
            expected: ct.owner.clone(),
            found: uk.owner.clone(),
        });
    }
    if ui.aid != uk.aid || ui.from_version != uk.from_version || ui.to_version != uk.to_version {
        return Err(Error::Malformed("update info does not match update key"));
    }
    if ui.ct_id != ct.id {
        return Err(Error::CiphertextMismatch {
            expected: ui.ct_id,
            found: ct.id,
        });
    }
    let current = ct
        .versions
        .get(&uk.aid)
        .copied()
        .ok_or_else(|| Error::MissingAuthorityKey(uk.aid.clone()))?;
    if current != uk.from_version {
        return Err(Error::VersionMismatch {
            authority: uk.aid.clone(),
            expected: uk.from_version,
            found: current,
        });
    }
    let covered = ct
        .access
        .rows_for_authority(&uk.aid)
        .into_iter()
        .all(|i| ui.items.contains_key(&ct.access.rho()[i]));
    if !covered {
        return Err(Error::Malformed(
            "update info missing an affected attribute",
        ));
    }
    Ok(())
}

/// The apply half of `ReEncrypt`: after [`check_reencryption`],
/// `C̃ = C · refresh` and `C̃_i = C_i · UI_{ρ(i)}` for the rows of
/// `uk.aid`, and the version moves to `uk.to_version`. A rejected call
/// leaves `ct` unchanged.
///
/// # Errors
///
/// Every [`check_reencryption`] error, plus
/// [`Error::CiphertextMismatch`] for a refresh made for another
/// ciphertext and [`Error::Malformed`] for one made for another step.
pub fn apply_reencryption(
    ct: &mut Ciphertext,
    uk: &UpdateKey,
    ui: &UpdateInfo,
    refresh: &Refresh,
) -> Result<(), Error> {
    check_reencryption(ct, uk, ui)?;
    if refresh.ct_id != ct.id {
        return Err(Error::CiphertextMismatch {
            expected: refresh.ct_id,
            found: ct.id,
        });
    }
    if refresh.aid != uk.aid
        || refresh.from_version != uk.from_version
        || refresh.to_version != uk.to_version
    {
        return Err(Error::Malformed("refresh does not match update key"));
    }
    ct.c = ct.c.mul(&refresh.factor);
    for i in ct.access.rows_for_authority(&uk.aid) {
        let delta = &ui.items[&ct.access.rho()[i]];
        ct.c_i[i] = G1Affine::from(G1::from(ct.c_i[i]).add_mixed(delta));
    }
    ct.versions.insert(uk.aid.clone(), uk.to_version);
    Ok(())
}

/// Runs `ReEncrypt` on the server: moves `ct` from `uk.from_version` to
/// `uk.to_version` for authority `uk.aid`. `uk` may carry the worklist's
/// [`UpdateTables`]; `e(UK1, C')` then evaluates `UK1`'s precomputed
/// lines, with the same result. The two steps composed: checks first,
/// so a rejected call pays no pairing, then [`Refresh::new`] and
/// [`apply_reencryption`].
///
/// # Errors
///
/// Every [`check_reencryption`] error.
pub fn reencrypt<'a>(
    ct: &mut Ciphertext,
    uk: impl Into<WithTables<'a, UpdateKey>>,
    ui: &UpdateInfo,
) -> Result<(), Error> {
    let uk = uk.into();
    check_reencryption(ct, uk.value, ui)?;
    let refresh = Refresh::new(ct.id, &ct.c_prime, uk);
    apply_reencryption(ct, uk.value, ui, &refresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AttributeAuthority;
    use crate::ca::CertificateAuthority;
    use crate::ciphertext::decrypt;
    use crate::owner::DataOwner;
    use crate::serial::WireCodec;
    use mabe_math::Gt;
    use mabe_policy::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Full revocation lifecycle across two authorities.
    #[test]
    fn revocation_end_to_end() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut ca = CertificateAuthority::new();
        let med = ca.register_authority("Med").unwrap();
        let trial = ca.register_authority("Trial").unwrap();
        let mut aa_med = AttributeAuthority::new(med.clone(), &["Doctor", "Nurse"], &mut rng);
        let mut aa_trial = AttributeAuthority::new(trial.clone(), &["Researcher"], &mut rng);

        let mut owner = DataOwner::new(OwnerId::new("hospital"), &mut rng);
        aa_med.register_owner(owner.owner_secret_key()).unwrap();
        aa_trial.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa_med.public_keys());
        owner.learn_authority_keys(aa_trial.public_keys());

        // Alice and Bob both hold Doctor@Med + Researcher@Trial.
        let alice = ca.register_user("alice", &mut rng).unwrap();
        let bob = ca.register_user("bob", &mut rng).unwrap();
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        let researcher: Attribute = "Researcher@Trial".parse().unwrap();
        for pk in [&alice, &bob] {
            aa_med.grant(pk, [doctor.clone()]).unwrap();
            aa_trial.grant(pk, [researcher.clone()]).unwrap();
        }
        let mut alice_keys: BTreeMap<AuthorityId, _> = BTreeMap::new();
        alice_keys.insert(med.clone(), aa_med.keygen(&alice.uid, owner.id()).unwrap());
        alice_keys.insert(
            trial.clone(),
            aa_trial.keygen(&alice.uid, owner.id()).unwrap(),
        );
        let mut bob_keys: BTreeMap<AuthorityId, _> = BTreeMap::new();
        bob_keys.insert(med.clone(), aa_med.keygen(&bob.uid, owner.id()).unwrap());
        bob_keys.insert(
            trial.clone(),
            aa_trial.keygen(&bob.uid, owner.id()).unwrap(),
        );

        // Encrypt under Doctor AND Researcher.
        let msg = Gt::random(&mut rng);
        let policy = parse("Doctor@Med AND Researcher@Trial").unwrap();
        let mut ct = owner.encrypt_message(&msg, &policy, &mut rng).unwrap();

        assert_eq!(decrypt(&ct, &alice, &alice_keys).unwrap(), msg);
        assert_eq!(decrypt(&ct, &bob, &bob_keys).unwrap(), msg);

        // Revoke Doctor from Alice at Med.
        let event = aa_med
            .revoke_attribute(&alice.uid, &doctor, &mut rng)
            .unwrap();
        let uk = event.update_keys[owner.id()].clone();

        // Owner updates its public keys and issues update info.
        owner.apply_update_key(&uk).unwrap();
        let ui = owner
            .update_info_for(ct.id, &med, uk.from_version, uk.to_version)
            .unwrap();

        // Server re-encrypts.
        reencrypt(&mut ct, &uk, &ui).unwrap();
        assert_eq!(ct.versions[&med], 2);
        assert_eq!(ct.versions[&trial], 1, "other authority untouched");

        // Bob (non-revoked) updates his Med key and still decrypts.
        bob_keys.get_mut(&med).unwrap().apply_update(&uk).unwrap();
        assert_eq!(decrypt(&ct, &bob, &bob_keys).unwrap(), msg);

        // Alice receives her fresh (Doctor-less) key from the AA.
        alice_keys.insert(med.clone(), event.revoked_user_keys[owner.id()].clone());
        // Metadata path: policy no longer satisfied.
        assert_eq!(
            decrypt(&ct, &alice, &alice_keys),
            Err(Error::PolicyNotSatisfied)
        );

        // Pure-crypto path: even if Alice stubbornly keeps her OLD
        // (version-1) Doctor key, the re-encrypted ciphertext resists.
        let mut stale = alice_keys.clone();
        stale.insert(med.clone(), {
            // Reconstruct the old key: she saved it before revocation.
            let mut old = event.revoked_user_keys[owner.id()].clone();
            old.kx.insert(doctor.clone(), {
                // She only has the version-1 K_x for Doctor; emulate it by
                // keeping the pre-revocation value.
                bob_keys[&med].kx[&doctor] // (any stale value: bob's is v2 though)
            });
            old
        });
        let forged = crate::ciphertext::decrypt_unchecked(&ct, &alice, &stale);
        match forged {
            Ok(val) => assert_ne!(val, msg),
            Err(e) => assert_eq!(e, Error::PolicyNotSatisfied),
        }

        // New data encrypted under the new keys: Bob can read, Alice not.
        let msg2 = Gt::random(&mut rng);
        let ct2 = owner.encrypt_message(&msg2, &policy, &mut rng).unwrap();
        assert_eq!(decrypt(&ct2, &bob, &bob_keys).unwrap(), msg2);
        assert_eq!(
            decrypt(&ct2, &alice, &alice_keys),
            Err(Error::PolicyNotSatisfied)
        );
    }

    /// A user who keeps the old-version Doctor K_x cannot decrypt the
    /// re-encrypted ciphertext — the cryptographic core of revocation.
    #[test]
    fn stale_key_fails_cryptographically() {
        let mut rng = StdRng::seed_from_u64(4040);
        let mut ca = CertificateAuthority::new();
        let med = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(med.clone(), &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());

        let alice = ca.register_user("alice", &mut rng).unwrap();
        let eve = ca.register_user("eve", &mut rng).unwrap();
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        aa.grant(&alice, [doctor.clone()]).unwrap();
        aa.grant(&eve, [doctor.clone()]).unwrap();

        let eve_old_key = aa.keygen(&eve.uid, owner.id()).unwrap();
        let mut alice_keys = BTreeMap::new();
        alice_keys.insert(med.clone(), aa.keygen(&alice.uid, owner.id()).unwrap());

        let msg = Gt::random(&mut rng);
        let policy = parse("Doctor@Med").unwrap();
        let mut ct = owner.encrypt_message(&msg, &policy, &mut rng).unwrap();

        // Revoke Doctor from Eve; re-encrypt the ciphertext.
        let event = aa.revoke_attribute(&eve.uid, &doctor, &mut rng).unwrap();
        let uk = event.update_keys[owner.id()].clone();
        owner.apply_update_key(&uk).unwrap();
        let ui = owner.update_info_for(ct.id, &med, 1, 2).unwrap();
        reencrypt(&mut ct, &uk, &ui).unwrap();

        // Eve's stale key produces garbage on the raw computation.
        let mut eve_keys = BTreeMap::new();
        eve_keys.insert(med.clone(), eve_old_key);
        let garbage = crate::ciphertext::decrypt_unchecked(&ct, &eve, &eve_keys).unwrap();
        assert_ne!(garbage, msg);
        // And the metadata-checked path refuses outright.
        assert!(matches!(
            decrypt(&ct, &eve, &eve_keys),
            Err(Error::VersionMismatch { .. })
        ));

        // Alice after her key update still decrypts.
        alice_keys.get_mut(&med).unwrap().apply_update(&uk).unwrap();
        assert_eq!(decrypt(&ct, &alice, &alice_keys).unwrap(), msg);
    }

    /// Newly joined users can decrypt data published before they joined
    /// (forward access, paper §V-C's motivation for re-encryption).
    #[test]
    fn new_user_reads_reencrypted_old_data() {
        let mut rng = StdRng::seed_from_u64(5050);
        let mut ca = CertificateAuthority::new();
        let med = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(med.clone(), &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());

        let old_user = ca.register_user("old", &mut rng).unwrap();
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        aa.grant(&old_user, [doctor.clone()]).unwrap();

        let msg = Gt::random(&mut rng);
        let policy = parse("Doctor@Med").unwrap();
        let mut ct = owner.encrypt_message(&msg, &policy, &mut rng).unwrap();

        // A revocation happens (old_user loses Doctor), data re-encrypted.
        let event = aa
            .revoke_attribute(&old_user.uid, &doctor, &mut rng)
            .unwrap();
        let uk = event.update_keys[owner.id()].clone();
        owner.apply_update_key(&uk).unwrap();
        let ui = owner.update_info_for(ct.id, &med, 1, 2).unwrap();
        reencrypt(&mut ct, &uk, &ui).unwrap();

        // A brand-new doctor joins afterwards and can read the old record.
        let newbie = ca.register_user("newbie", &mut rng).unwrap();
        aa.grant(&newbie, [doctor.clone()]).unwrap();
        let mut keys = BTreeMap::new();
        keys.insert(med.clone(), aa.keygen(&newbie.uid, owner.id()).unwrap());
        assert_eq!(decrypt(&ct, &newbie, &keys).unwrap(), msg);
    }

    /// An owner with `doctors` ciphertexts under `Doctor@Med` and
    /// `nurses` under `Nurse@Med`, and one revocation at Med applied.
    fn revoked_world(
        doctors: usize,
        nurses: usize,
        rng: &mut StdRng,
    ) -> (AttributeAuthority, DataOwner, Vec<Ciphertext>, UpdateKey) {
        let mut ca = CertificateAuthority::new();
        let med = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(med, &["Doctor", "Nurse"], rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let user = ca.register_user("u", rng).unwrap();
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        aa.grant(&user, [doctor.clone()]).unwrap();
        let mut cts = Vec::new();
        for (count, policy) in [(doctors, "Doctor@Med"), (nurses, "Nurse@Med")] {
            for _ in 0..count {
                let msg = Gt::random(rng);
                cts.push(
                    owner
                        .encrypt_message(&msg, &parse(policy).unwrap(), rng)
                        .unwrap(),
                );
            }
        }
        let event = aa.revoke_attribute(&user.uid, &doctor, rng).unwrap();
        let uk = event.update_keys[owner.id()].clone();
        owner.apply_update_key(&uk).unwrap();
        (aa, owner, cts, uk)
    }

    #[test]
    fn update_tables_respect_the_break_evens() {
        let mut rng = StdRng::seed_from_u64(7070);
        let n = FIXED_BASE_BREAK_EVEN;
        let (_, owner, cts, uk) = revoked_world(n, n - 1, &mut rng);
        let ids: Vec<CiphertextId> = cts.iter().map(|ct| ct.id).collect();

        let single = owner.update_tables(&uk, &ids[..LINES_BREAK_EVEN - 1]);
        assert!(!single.has_lines());
        assert_eq!(single.ratio_tables(), 0);

        let pair = owner.update_tables(&uk, &ids[..LINES_BREAK_EVEN]);
        assert!(pair.has_lines());
        assert_eq!(pair.ratio_tables(), 0);

        // Doctor labels exactly the break-even, Nurse one fewer.
        let all = owner.update_tables(&uk, &ids);
        assert!(all.has_lines());
        assert_eq!(all.ratio_tables(), 1);
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        assert!(all.ratio_for(owner.id(), &uk.aid, 1, 2, &doctor).is_some());
        assert!(all.ratio_for(owner.id(), &uk.aid, 2, 3, &doctor).is_none());

        // Building runs no counted operation.
        let (_, ops) = mabe_telemetry::measure(|| owner.update_tables(&uk, &ids));
        assert_eq!((ops.pairings, ops.g1_muls), (0, 0));
    }

    #[test]
    fn tables_change_no_byte_and_no_op_count() {
        let mut rng = StdRng::seed_from_u64(8080);
        let (_, owner, cts, uk) = revoked_world(FIXED_BASE_BREAK_EVEN, 2, &mut rng);
        let ids: Vec<CiphertextId> = cts.iter().map(|ct| ct.id).collect();
        let tables = owner.update_tables(&uk, &ids);
        assert!(tables.has_lines() && tables.ratio_tables() == 1);
        for ct in &cts {
            let (plain, plain_ops) = mabe_telemetry::measure(|| {
                let ui = owner.update_info_for(ct.id, &uk.aid, 1, 2).unwrap();
                let mut c = ct.clone();
                reencrypt(&mut c, &uk, &ui).unwrap();
                (ui, c)
            });
            let (prepared, prepared_ops) = mabe_telemetry::measure(|| {
                let aid = WithTables::new(&uk.aid, Some(&tables));
                let ui = owner.update_info_for(ct.id, aid, 1, 2).unwrap();
                let mut c = ct.clone();
                reencrypt(&mut c, WithTables::new(&uk, Some(&tables)), &ui).unwrap();
                (ui, c)
            });
            assert_eq!(prepared.0, plain.0);
            assert_eq!(prepared.1.to_wire_bytes(), plain.1.to_wire_bytes());
            assert_eq!(prepared_ops, plain_ops);
        }
    }

    #[test]
    fn tables_of_another_step_are_ignored() {
        let mut rng = StdRng::seed_from_u64(9090);
        let (mut aa, mut owner, cts, uk) = revoked_world(FIXED_BASE_BREAK_EVEN, 0, &mut rng);
        let ids: Vec<CiphertextId> = cts.iter().map(|ct| ct.id).collect();
        let stale = owner.update_tables(&uk, &ids);
        // A second revocation: step 2 → 3, under a different UK1.
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        let mut ca = CertificateAuthority::new();
        ca.register_authority("Med").unwrap();
        let user = ca.register_user("v", &mut rng).unwrap();
        aa.grant(&user, [doctor.clone()]).unwrap();
        let event = aa.revoke_attribute(&user.uid, &doctor, &mut rng).unwrap();
        let next = event.update_keys[owner.id()].clone();
        owner.apply_update_key(&next).unwrap();

        let mut ct = cts[0].clone();
        let ui = owner.update_info_for(ct.id, &uk.aid, 1, 2).unwrap();
        reencrypt(&mut ct, &uk, &ui).unwrap();
        let mut plain = ct.clone();
        let mut prepared = ct.clone();
        let ui = owner.update_info_for(ct.id, &next.aid, 2, 3).unwrap();
        let aid = WithTables::new(&next.aid, Some(&stale));
        assert_eq!(owner.update_info_for(ct.id, aid, 2, 3).unwrap(), ui);
        reencrypt(&mut plain, &next, &ui).unwrap();
        reencrypt(&mut prepared, WithTables::new(&next, Some(&stale)), &ui).unwrap();
        assert_eq!(prepared.to_wire_bytes(), plain.to_wire_bytes());
    }

    #[test]
    fn reencrypt_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(6060);
        let mut ca = CertificateAuthority::new();
        let med = ca.register_authority("Med").unwrap();
        let mut aa = AttributeAuthority::new(med.clone(), &["Doctor"], &mut rng);
        let mut owner = DataOwner::new(OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let user = ca.register_user("u", &mut rng).unwrap();
        let doctor: Attribute = "Doctor@Med".parse().unwrap();
        aa.grant(&user, [doctor.clone()]).unwrap();

        let msg = Gt::random(&mut rng);
        let mut ct = owner
            .encrypt_message(&msg, &parse("Doctor@Med").unwrap(), &mut rng)
            .unwrap();
        let event = aa.revoke_attribute(&user.uid, &doctor, &mut rng).unwrap();
        let uk = event.update_keys[owner.id()].clone();
        owner.apply_update_key(&uk).unwrap();
        let ui = owner.update_info_for(ct.id, &med, 1, 2).unwrap();

        // Mismatched ciphertext id.
        let mut wrong_ui = ui.clone();
        wrong_ui.ct_id = CiphertextId(999);
        assert!(reencrypt(&mut ct, &uk, &wrong_ui).is_err());

        // Happy path, then replaying the same update must fail on version.
        reencrypt(&mut ct, &uk, &ui).unwrap();
        assert!(matches!(
            reencrypt(&mut ct, &uk, &ui),
            Err(Error::VersionMismatch { .. })
        ));
    }
}
