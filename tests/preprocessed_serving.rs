//! The preprocessed serving path computes what the plain one computes.
//!
//! A data owner keeps a fixed-base table per current attribute key
//! (`PK_x`) for its publishes, and a reader's `PK_UID` Miller lines and
//! its key-side table (the lines of `K*`, kept per policy) replace the
//! two Miller loops of its serving decrypt. Each property runs the
//! prepared path beside the plain one on the same inputs:
//!
//! * `encrypt` through a warm owner (tables for every row) is byte for
//!   byte the ciphertext a cold copy of the same owner (no tables)
//!   writes from the same random seed, with the same op counts, before
//!   and after a revocation bumps one authority's keys;
//! * `decrypt_fast` returns exactly what the faithful Eq. 1 `decrypt`
//!   returns, in two counted pairings and two MSMs, with the reader's
//!   lines or another user's (ignored), and with no key-side table, the
//!   table a previous call returned, or a stale one: built for another
//!   reader, for another policy, or for this reader before a revocation
//!   at an involved authority. A stale table comes back replaced by the
//!   table of the reader's `K*`, never evaluated.
//!
//! The kernels under them (signed fixed-base multiplication, the
//! product of plain and prepared pairs of either form) have their own
//! differential properties in `mabe-math`. Each property here runs
//! [`DIFFERENTIAL_CASES`] cases.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mabe::core::{
    decrypt, decrypt_fast, AttributeAuthority, CertificateAuthority, Ciphertext, DataOwner, Error,
    OwnerId, UserPublicKey, UserSecretKey, WireCodec, WithTables, FIXED_BASE_BREAK_EVEN,
};
use mabe::math::{FixedPairing, Gt};
use mabe::policy::{parse, AuthorityId, Policy};

/// Cases per property: quick in the debug test run, deep in the release
/// one (`cargo test --release --test preprocessed_serving`).
const DIFFERENTIAL_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

/// Two authorities, one owner that learned both, and two users holding
/// every attribute.
struct World {
    rng: StdRng,
    aas: Vec<AttributeAuthority>,
    owner: DataOwner,
    users: Vec<(UserPublicKey, BTreeMap<AuthorityId, UserSecretKey>)>,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificateAuthority::new();
    let mut owner = DataOwner::new(OwnerId::new("owner"), &mut rng);
    let mut aas = Vec::new();
    for (name, attrs) in [("Med", ["Doctor", "Nurse"]), ("Trial", ["Lead", "Sponsor"])] {
        let aid = ca.register_authority(name).unwrap();
        let mut aa = AttributeAuthority::new(aid, &attrs, &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        aas.push(aa);
    }
    let mut users = Vec::new();
    for uid in ["alice", "bob"] {
        let pk = ca.register_user(uid, &mut rng).unwrap();
        let mut keys = BTreeMap::new();
        for aa in &mut aas {
            let all: Vec<_> = aa.attributes().iter().cloned().collect();
            aa.grant(&pk, all).unwrap();
            keys.insert(aa.aid().clone(), aa.keygen(&pk.uid, owner.id()).unwrap());
        }
        users.push((pk, keys));
    }
    World {
        rng,
        aas,
        owner,
        users,
    }
}

/// One of a few policy shapes over the world's attributes: AND, OR,
/// k-of-n and nested, within one authority or across both.
fn policy(pick: u8) -> Policy {
    let text = [
        "Doctor@Med",
        "Doctor@Med AND Lead@Trial",
        "Doctor@Med OR Sponsor@Trial",
        "2 of (Doctor@Med, Nurse@Med, Lead@Trial)",
        "(Doctor@Med OR Nurse@Med) AND (Lead@Trial OR Sponsor@Trial)",
        "Doctor@Med AND Nurse@Med AND Lead@Trial AND Sponsor@Trial",
    ][usize::from(pick) % 6];
    parse(text).unwrap()
}

/// A copy of `owner` without its derived tables, as a reopened store
/// decodes it.
fn cold_copy(owner: &DataOwner) -> DataOwner {
    DataOwner::from_wire_bytes(&owner.to_wire_bytes()).unwrap()
}

/// Encrypts under `policy` with the warm owner and with a cold copy,
/// from the same seed: the same ciphertext bytes, exponent and op
/// counts.
fn assert_same_encryption(owner: &mut DataOwner, policy: &Policy, seed: u64) {
    let mut cold = cold_copy(owner);
    let msg = Gt::random(&mut StdRng::seed_from_u64(seed));
    let (warm_ct, warm_ops) = mabe_telemetry::measure(|| {
        owner
            .encrypt_message(&msg, policy, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    });
    let (cold_ct, cold_ops) = mabe_telemetry::measure(|| {
        cold.encrypt_message(&msg, policy, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    });
    assert_eq!(cold.key_tables().tables(), 0, "one use builds nothing");
    assert_eq!(warm_ct.to_wire_bytes(), cold_ct.to_wire_bytes());
    assert_eq!(
        owner.encryption_secret(warm_ct.id),
        cold.encryption_secret(cold_ct.id)
    );
    assert_eq!(warm_ops, cold_ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DIFFERENTIAL_CASES))]

    #[test]
    fn encrypt_with_tables_matches_encrypt_without(pick in any::<u8>(), seed in any::<u64>()) {
        let mut w = world(seed);
        let policy = policy(pick);
        let rows = policy.leaves().len();
        let msg = Gt::random(&mut w.rng);
        for _ in 1..FIXED_BASE_BREAK_EVEN {
            w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        }
        prop_assert_eq!(w.owner.key_tables().tables(), 0);
        // The break-even-th use builds every row's table and uses it.
        assert_same_encryption(&mut w.owner, &policy, seed);
        prop_assert_eq!(w.owner.key_tables().tables(), rows);

        // Revoke Doctor@Med from bob: Med's keys move to version 2 and
        // their tables go; Trial's stay in use.
        let bob = w.users[1].0.uid.clone();
        let doctor = "Doctor@Med".parse().unwrap();
        let event = w.aas[0].revoke_attribute(&bob, &doctor, &mut w.rng).unwrap();
        w.owner.apply_update_key(&event.update_keys[w.owner.id()]).unwrap();
        let med = AuthorityId::new("Med");
        let trial_rows = policy.leaves().iter().filter(|a| a.authority() != &med).count();
        prop_assert_eq!(w.owner.key_tables().tables(), trial_rows);
        assert_same_encryption(&mut w.owner, &policy, !seed);
        for _ in 2..FIXED_BASE_BREAK_EVEN {
            w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        }
        prop_assert_eq!(w.owner.key_tables().tables(), trial_rows);
        assert_same_encryption(&mut w.owner, &policy, seed.rotate_left(7));
        prop_assert_eq!(w.owner.key_tables().tables(), rows);
    }

    #[test]
    fn decrypt_with_lines_matches_faithful_decrypt(
        pick in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let mut w = world(seed);
        let (policy, other_policy) = (policy(pick), policy(pick.wrapping_add(1)));
        let msg = Gt::random(&mut w.rng);
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let other_ct = w.owner.encrypt_message(&msg, &other_policy, &mut w.rng).unwrap();
        let (alice, alice_keys) = w.users[0].clone();
        let (bob, bob_keys) = w.users[1].clone();
        let lines = FixedPairing::new(&alice.pk);
        let with_lines = WithTables::new(&alice, Some(&lines));
        let faithful = decrypt(&ct, &alice, &alice_keys);
        prop_assert_eq!(&faithful, &Ok(msg));

        // No key-side table: the call builds one, pairs from it and
        // hands it back.
        let built = fast_is_faithful(&ct, with_lines, &alice_keys, None, &faithful)?
            .expect("built without a table");
        // The table a previous call returned is evaluated, with or
        // without the PK_UID lines beside it.
        for pk in [with_lines, WithTables::from(&alice)] {
            prop_assert!(fast_is_faithful(&ct, pk, &alice_keys, Some(&built), &faithful)?.is_none());
        }
        // Bob's lines do not belong to Alice's PK_UID: ignored.
        let bobs_lines = FixedPairing::new(&bob.pk);
        let pk = WithTables::new(&alice, Some(&bobs_lines));
        prop_assert!(fast_is_faithful(&ct, pk, &alice_keys, Some(&built), &faithful)?.is_none());

        // Stale tables come back replaced by the table of Alice's K*:
        // one built for Bob under the same policy, and one built for
        // Alice under another.
        let (_, bobs) = decrypt_fast(&ct, &bob, &bob_keys).unwrap();
        let (_, other) = decrypt_fast(&other_ct, &alice, &alice_keys).unwrap();
        for stale in [bobs.unwrap(), other.unwrap()] {
            prop_assert_ne!(stale.base(), built.base());
            let replaced = fast_is_faithful(&ct, with_lines, &alice_keys, Some(&stale), &faithful)?;
            prop_assert_eq!(replaced.as_ref(), Some(&built));
        }

        // A stale key gets the faithful path's error, with tables too.
        let mut stale_keys = alice_keys.clone();
        stale_keys.get_mut(&AuthorityId::new("Med")).unwrap().version += 1;
        prop_assert_eq!(
            decrypt_fast(&ct, with_lines, WithTables::new(&stale_keys, Some(&built))).map(|(m, _)| m),
            decrypt(&ct, &alice, &stale_keys)
        );

        // Revoking Doctor@Med from Bob moves Alice's Med key to version
        // 2, and with it her K*: her table from before is stale.
        let doctor = "Doctor@Med".parse().unwrap();
        let event = w.aas[0].revoke_attribute(&bob.uid, &doctor, &mut w.rng).unwrap();
        let uk = &event.update_keys[w.owner.id()];
        w.owner.apply_update_key(uk).unwrap();
        let mut updated = alice_keys.clone();
        updated.get_mut(&AuthorityId::new("Med")).unwrap().apply_update(uk).unwrap();
        let ct = w.owner.encrypt_message(&msg, &policy, &mut w.rng).unwrap();
        let faithful = decrypt(&ct, &alice, &updated);
        prop_assert_eq!(&faithful, &Ok(msg));
        let rebuilt = fast_is_faithful(&ct, with_lines, &updated, Some(&built), &faithful)?
            .expect("a pre-revocation table is replaced");
        prop_assert_ne!(rebuilt.base(), built.base());
        prop_assert!(fast_is_faithful(&ct, with_lines, &updated, Some(&rebuilt), &faithful)?.is_none());
    }
}

/// Runs `decrypt_fast` with the key-side table `kept`: it must return
/// `faithful` in 2 counted pairings and 2 MSMs, and hands back the table
/// it built, if any.
fn fast_is_faithful(
    ct: &Ciphertext,
    pk: WithTables<'_, UserPublicKey, FixedPairing>,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
    kept: Option<&FixedPairing>,
    faithful: &Result<Gt, Error>,
) -> Result<Option<FixedPairing>, TestCaseError> {
    let (out, ops) =
        mabe_telemetry::measure(|| decrypt_fast(ct, pk, WithTables::new(keys, kept)).unwrap());
    let (m, built) = out;
    prop_assert_eq!(&Ok(m), faithful);
    prop_assert_eq!((ops.pairings, ops.msms), (2, 2));
    Ok(built)
}
