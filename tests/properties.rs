//! Property-based tests (proptest) over the workspace's core invariants:
//! field axioms, group laws, pairing bilinearity, LSSS correctness vs
//! formula semantics, scheme round-trips on randomized shapes, and the
//! serving decryption paths against the faithful paper Eq. 1.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mabe::core::{
    client_recover, decrypt, decrypt_fast, make_transform_key, server_transform, DataOwner, Error,
    OwnerId, UserPublicKey, UserSecretKey, WithTables,
};
use mabe::math::{pairing, FixedPairing, Fr, G1Affine, Gt, G1};
use mabe::policy::{AccessStructure, Attribute, AuthorityId, Policy};

fn fr(seed: u64) -> Fr {
    let mut rng = StdRng::seed_from_u64(seed);
    Fr::random(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // ---------- Field axioms over Fr ----------

    #[test]
    fn fr_addition_commutes(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (fr(a), fr(b));
        prop_assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn fr_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (fr(a), fr(b), fr(c));
        prop_assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    }

    #[test]
    fn fr_inverse_cancels(a in any::<u64>()) {
        let x = fr(a);
        prop_assume!(!x.is_zero());
        prop_assert_eq!(x.mul(&x.invert().unwrap()), Fr::one());
    }

    #[test]
    fn fr_bytes_roundtrip(a in any::<u64>()) {
        let x = fr(a);
        prop_assert_eq!(Fr::from_canonical_bytes(&x.to_canonical_bytes()), Some(x));
    }

    // ---------- Group laws ----------

    #[test]
    fn scalar_mul_is_homomorphic(a in any::<u64>(), b in any::<u64>()) {
        let g = G1::generator();
        let (x, y) = (fr(a), fr(b));
        prop_assert_eq!(g.mul(&x).add(&g.mul(&y)), g.mul(&x.add(&y)));
    }

    #[test]
    fn point_compression_roundtrip(a in any::<u64>()) {
        let p = G1Affine::from(G1::generator().mul(&fr(a)));
        prop_assert_eq!(G1Affine::from_bytes(&p.to_bytes()), Some(p));
    }

    // ---------- Pairing bilinearity ----------

    #[test]
    fn pairing_bilinear(a in any::<u64>(), b in any::<u64>()) {
        let g = G1Affine::generator();
        let (x, y) = (fr(a), fr(b));
        let gx = G1Affine::from(G1::generator().mul(&x));
        let gy = G1Affine::from(G1::generator().mul(&y));
        prop_assert_eq!(pairing(&gx, &gy), pairing(&g, &g).pow(&x.mul(&y)));
    }

    #[test]
    fn gt_exponent_laws(a in any::<u64>(), b in any::<u64>()) {
        let e = Gt::generator();
        let (x, y) = (fr(a), fr(b));
        prop_assert_eq!(e.pow(&x).mul(&e.pow(&y)), e.pow(&x.add(&y)));
    }
}

// ---------- Random policies: LSSS ↔ formula equivalence ----------

/// Strategy: a random monotone policy over a small attribute universe.
fn arb_policy() -> impl Strategy<Value = Policy> {
    // 6 distinct attributes across 3 authorities.
    let leaf_idx = 0usize..6;
    let leaf = leaf_idx.prop_map(|i| {
        Policy::leaf(Attribute::new(
            format!("attr{i}"),
            AuthorityId::new(format!("AA{}", i % 3)),
        ))
    });
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Policy::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Policy::Or),
            (prop::collection::vec(inner, 3..4), 1usize..4).prop_map(|(cs, k)| {
                let k = k.min(cs.len());
                Policy::Threshold { k, children: cs }
            }),
        ]
    })
}

/// Deduplicates leaves so ρ stays injective (the paper's restriction).
fn dedupe(policy: &Policy) -> Option<Policy> {
    let leaves = policy.leaves();
    let set: BTreeSet<_> = leaves.iter().collect();
    if set.len() == leaves.len() {
        Some(policy.clone())
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every subset of the policy's leaves, LSSS acceptance (the
    /// existence of reconstruction coefficients) coincides with boolean
    /// satisfaction, accepted subsets reconstruct the exact secret, and
    /// the rows of a rejected subset do not span `e₁`.
    #[test]
    fn lsss_equals_formula(policy in arb_policy(), subset_mask in any::<u32>(), seed in any::<u64>()) {
        let Some(policy) = dedupe(&policy) else { return Ok(()); };
        let access = AccessStructure::from_policy(&policy).unwrap();
        let leaves: Vec<Attribute> = access.rho().to_vec();
        let attrs: BTreeSet<Attribute> = leaves
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask >> (i % 32) & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();

        let formula_ok = policy.is_satisfied_by(attrs.iter());
        let coeffs = access.reconstruction_coefficients(&attrs);
        prop_assert_eq!(formula_ok, coeffs.is_some());

        if let Some(coeffs) = coeffs {
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = Fr::random(&mut rng);
            let shares = access.share(&secret, &mut rng);
            let sum = coeffs
                .iter()
                .fold(Fr::zero(), |acc, (i, w)| acc.add(&w.mul(&shares[*i])));
            prop_assert_eq!(sum, secret);
        } else {
            let held_rows: Vec<Vec<Fr>> = (0..access.rows())
                .filter(|&i| attrs.contains(&access.rho()[i]))
                .map(|i| access.matrix()[i].clone())
                .collect();
            let mut e1 = vec![Fr::zero(); access.width()];
            e1[0] = Fr::one();
            prop_assert!(!mabe::policy::linalg::in_span(&held_rows, &e1));
        }
    }

    /// Parser round-trip: Display then parse is the identity.
    #[test]
    fn policy_display_parse_roundtrip(policy in arb_policy()) {
        let text = policy.to_string();
        let reparsed = mabe::policy::parse(&text).unwrap();
        prop_assert_eq!(policy, reparsed);
    }
}

// ---------- Scheme round-trips on randomized shapes ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Our scheme: encrypt/decrypt round-trips for random small shapes,
    /// and every decryption path (reference Eq. 1, multi-pairing fast,
    /// outsourced transform) agrees.
    #[test]
    fn scheme_roundtrip_random_shape(authorities in 1usize..4, attrs in 1usize..4, seed in any::<u64>()) {
        let shape = mabe_bench::Shape { authorities, attrs_per_authority: attrs };
        let mut world = mabe_bench::OurWorld::new(shape, seed);
        let (ct, msg) = world.encrypt_with_message();
        prop_assert_eq!(world.decrypt_once(&ct), msg);
        prop_assert_eq!(
            mabe::core::decrypt_fast(&ct, &world.user_pk, &world.user_keys).unwrap().0,
            msg
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let (tk, rk) =
            mabe::core::make_transform_key(&world.user_pk, &world.user_keys, &mut rng).unwrap();
        let token = mabe::core::server_transform(&ct, &tk).unwrap();
        prop_assert_eq!(mabe::core::client_recover(&ct, &token, &rk), msg);
    }

    /// The baseline: same property.
    #[test]
    fn lewko_roundtrip_random_shape(authorities in 1usize..4, attrs in 1usize..4, seed in any::<u64>()) {
        let shape = mabe_bench::Shape { authorities, attrs_per_authority: attrs };
        let mut world = mabe_bench::LewkoWorld::new(shape, seed);
        let (ct, msg) = world.encrypt_with_message();
        prop_assert_eq!(world.decrypt_once(&ct), msg);
    }

    /// Chase07 baseline: round-trips across random thresholds, and any
    /// key set below a threshold fails.
    #[test]
    fn chase_roundtrip_random_threshold(d in 1usize..4, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = ["a", "b", "c", "d"];
        let sys = mabe::chase::ChaseSystem::setup(&[("Org", &names, d)], &mut rng);
        let pks = sys.public_keys();
        let universe: BTreeSet<mabe::policy::Attribute> =
            names.iter().map(|n| format!("{n}@Org").parse().unwrap()).collect();
        let msg = mabe::math::Gt::random(&mut rng);
        let ct = mabe::chase::encrypt(&msg, &universe, &pks, &mut rng).unwrap();

        let full_key = sys.keygen("u", &universe, &mut rng).unwrap();
        prop_assert_eq!(mabe::chase::decrypt(&ct, &full_key, &pks).unwrap(), msg);

        if d > 1 {
            let partial: BTreeSet<_> = universe.iter().take(d - 1).cloned().collect();
            let weak_key = sys.keygen("w", &partial, &mut rng).unwrap();
            prop_assert!(mabe::chase::decrypt(&ct, &weak_key, &pks).is_err());
        }
    }

    /// Waters11 baseline: round-trips on random policies; LSSS
    /// acceptance governs decryption exactly.
    #[test]
    fn waters_roundtrip_random_policy(policy in arb_policy(), seed in any::<u64>()) {
        let Some(policy) = dedupe(&policy) else { return Ok(()); };
        let mut rng = StdRng::seed_from_u64(seed);
        let auth = mabe::waters::WatersAuthority::setup(&mut rng);
        let pk = auth.public_key();
        let access = mabe::policy::AccessStructure::from_policy(&policy).unwrap();
        let msg = mabe::math::Gt::random(&mut rng);
        let ct = mabe::waters::encrypt(&msg, &access, &pk, &mut rng);

        // A key over all leaves decrypts; over none fails (unless the
        // policy is trivially satisfiable, which monotone non-empty
        // formulas are not with zero attributes).
        let all: BTreeSet<Attribute> = policy.leaves().into_iter().cloned().collect();
        let key = auth.keygen(&all, &mut rng);
        prop_assert_eq!(mabe::waters::decrypt(&ct, &key).unwrap(), msg);
        let empty_key = auth.keygen(&BTreeSet::new(), &mut rng);
        prop_assert!(mabe::waters::decrypt(&ct, &empty_key).is_err());
    }

    /// AEAD envelope: random payloads round-trip; truncation fails.
    #[test]
    fn envelope_roundtrip(data in prop::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = mabe::core::CertificateAuthority::new();
        let aid = ca.register_authority("Org").unwrap();
        let mut aa = mabe::core::AttributeAuthority::new(aid.clone(), &["A"], &mut rng);
        let mut owner = mabe::core::DataOwner::new(mabe::core::OwnerId::new("o"), &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let user = ca.register_user("u", &mut rng).unwrap();
        aa.grant(&user, ["A@Org".parse().unwrap()]).unwrap();
        let keys = std::collections::BTreeMap::from([
            (aid, aa.keygen(&user.uid, owner.id()).unwrap()),
        ]);
        let policy = mabe::policy::parse("A@Org").unwrap();
        let comp = mabe::core::seal_component(&mut owner, "blob", &data, &policy, &mut rng).unwrap();
        prop_assert_eq!(
            mabe::core::open_component(&comp, &user, &keys).unwrap(),
            data.clone()
        );
        // Truncated payload must fail authentication.
        if !comp.sealed.is_empty() {
            let mut broken = comp;
            broken.sealed.pop();
            prop_assert!(mabe::core::open_component(&broken, &user, &keys).is_err());
        }
    }
}

// ---------- Serving decryption ≡ faithful Eq. 1 ----------

/// The key-material faults each differential case injects, one at a time.
#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// One involved authority's key carries another version.
    StaleVersion,
    /// Every key is scoped to another owner.
    WrongOwner,
    /// One involved authority's key belongs to another user.
    WrongUid,
    /// One involved authority's key is absent.
    MissingAuthority,
}

const FAULTS: [Fault; 5] = [
    Fault::None,
    Fault::StaleVersion,
    Fault::WrongOwner,
    Fault::WrongUid,
    Fault::MissingAuthority,
];

/// `policy` with its leaves renamed, in order, to `attr{j}@AA{j % 3}`:
/// the same gates, with the injective `ρ` the scheme requires however
/// often `arb_policy` repeated a leaf (at most 27 leaves).
fn injective(policy: &Policy, next: &mut usize) -> Policy {
    let mut children = |cs: &[Policy]| cs.iter().map(|c| injective(c, next)).collect();
    match policy {
        Policy::Leaf(_) => {
            let j = *next;
            *next += 1;
            Policy::leaf(Attribute::new(
                format!("attr{j}"),
                AuthorityId::new(format!("AA{}", j % 3)),
            ))
        }
        Policy::And(cs) => Policy::And(children(cs)),
        Policy::Or(cs) => Policy::Or(children(cs)),
        Policy::Threshold { k, children: cs } => Policy::Threshold {
            k: *k,
            children: children(cs),
        },
    }
}

/// Authorities `AA0..AA2`, `attr{i}` (`i < 27`) managed by `AA{i % 3}`,
/// one owner, and a user holding `held` plus a (possibly attribute-less)
/// key from every authority.
struct PolicyWorld {
    rng: StdRng,
    owner: DataOwner,
    user: UserPublicKey,
    keys: BTreeMap<AuthorityId, UserSecretKey>,
}

fn policy_world(held: &BTreeSet<Attribute>, seed: u64) -> PolicyWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = mabe::core::CertificateAuthority::new();
    let mut owner = DataOwner::new(OwnerId::new("owner"), &mut rng);
    let user = ca.register_user("reader", &mut rng).unwrap();
    let mut keys = BTreeMap::new();
    for a in 0..3 {
        let names: Vec<String> = (a..27).step_by(3).map(|i| format!("attr{i}")).collect();
        let aid = ca.register_authority(format!("AA{a}")).unwrap();
        let mut aa = mabe::core::AttributeAuthority::new(aid.clone(), &names, &mut rng);
        aa.register_owner(owner.owner_secret_key()).unwrap();
        owner.learn_authority_keys(aa.public_keys());
        let mine = held.iter().filter(|x| x.authority() == &aid).cloned();
        aa.grant(&user, mine.collect::<Vec<_>>()).unwrap();
        keys.insert(aid, aa.keygen(&user.uid, owner.id()).unwrap());
    }
    PolicyWorld {
        rng,
        owner,
        user,
        keys,
    }
}

/// `keys` with `fault` applied to the involved authority `target`.
fn inject(
    fault: Fault,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
    target: &AuthorityId,
) -> BTreeMap<AuthorityId, UserSecretKey> {
    let mut keys = keys.clone();
    match fault {
        Fault::None => {}
        Fault::StaleVersion => keys.get_mut(target).unwrap().version += 1,
        Fault::WrongOwner => {
            for key in keys.values_mut() {
                key.owner = OwnerId::new("other-owner");
            }
        }
        Fault::WrongUid => keys.get_mut(target).unwrap().uid = mabe::core::Uid::new("other"),
        Fault::MissingAuthority => {
            keys.remove(target);
        }
    }
    keys
}

/// The outsourced path end to end: blind, transform on the server,
/// recover on the client.
fn outsourced(
    ct: &mabe::core::Ciphertext,
    user: &UserPublicKey,
    keys: &BTreeMap<AuthorityId, UserSecretKey>,
    rng: &mut StdRng,
) -> Result<Gt, Error> {
    let (tk, rk) = make_transform_key(user, keys, rng)?;
    let token = server_transform(ct, &tk)?;
    Ok(client_recover(ct, &token, &rk))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On AND, OR and k-of-n policies, for satisfying and unsatisfying
    /// attribute sets (every leaf, every leaf but one, a random subset)
    /// and under each single key fault, the serving decryption (with
    /// and without the reader's `PK_UID` lines) and the outsourced
    /// transform return exactly what the faithful Eq. 1 returns: the
    /// same `G_T` element, or the same error with the same fields.
    #[test]
    fn serving_decrypt_matches_faithful_eq1(
        policy in arb_policy(),
        holding in 0u8..4,
        mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let policy = injective(&policy, &mut 0);
        let leaves: Vec<Attribute> = policy.leaves().into_iter().cloned().collect();
        let skipped = (seed % leaves.len() as u64) as usize;
        let held: BTreeSet<Attribute> = leaves
            .iter()
            .enumerate()
            .filter(|(j, _)| match holding {
                0 => true,
                1 => *j != skipped,
                _ => mask >> j & 1 == 1,
            })
            .map(|(_, a)| a.clone())
            .collect();
        let mut world = policy_world(&held, seed);
        let msg = Gt::random(&mut world.rng);
        let ct = world.owner.encrypt_message(&msg, &policy, &mut world.rng).unwrap();
        let involved: Vec<AuthorityId> = ct.involved_authorities().into_iter().collect();
        let target = &involved[(seed % involved.len() as u64) as usize];
        let satisfied = policy.is_satisfied_by(held.iter());
        let lines = FixedPairing::new(&world.user.pk);
        for fault in FAULTS {
            let keys = inject(fault, &world.keys, target);
            let faithful = decrypt(&ct, &world.user, &keys);
            if let Fault::None = fault {
                let expected = if satisfied { Ok(msg) } else { Err(Error::PolicyNotSatisfied) };
                prop_assert_eq!(&faithful, &expected);
            }
            let fast = decrypt_fast(&ct, &world.user, &keys).map(|(m, _)| m);
            prop_assert!(fast == faithful, "{fault:?}: {fast:?} != {faithful:?}");
            let prepared = decrypt_fast(&ct, WithTables::new(&world.user, Some(&lines)), &keys)
                .map(|(m, _)| m);
            prop_assert!(prepared == faithful, "{fault:?}: {prepared:?} != {faithful:?}");
            let transformed = outsourced(&ct, &world.user, &keys, &mut world.rng);
            prop_assert!(transformed == faithful, "{fault:?}: {transformed:?} != {faithful:?}");
        }
    }
}

/// The paper's 5×5 point: all three paths agree, and a stale key gets the
/// same error from each.
#[test]
fn serving_decrypt_matches_faithful_eq1_at_5x5() {
    let shape = mabe_bench::Shape {
        authorities: 5,
        attrs_per_authority: 5,
    };
    let mut world = mabe_bench::OurWorld::new(shape, 25);
    let (ct, msg) = world.encrypt_with_message();
    let mut rng = StdRng::seed_from_u64(26);
    assert_eq!(world.decrypt_once(&ct), msg);
    let fast = |pk, keys| decrypt_fast(&ct, pk, keys).map(|(m, _)| m);
    assert_eq!(
        fast(WithTables::from(&world.user_pk), &world.user_keys),
        Ok(msg)
    );
    let lines = FixedPairing::new(&world.user_pk.pk);
    let prepared = WithTables::new(&world.user_pk, Some(&lines));
    assert_eq!(fast(prepared, &world.user_keys), Ok(msg));
    assert_eq!(
        outsourced(&ct, &world.user_pk, &world.user_keys, &mut rng),
        Ok(msg)
    );

    let stale = inject(
        Fault::StaleVersion,
        &world.user_keys,
        &AuthorityId::new("AA3"),
    );
    let faithful = decrypt(&ct, &world.user_pk, &stale);
    assert!(matches!(faithful, Err(Error::VersionMismatch { .. })));
    assert_eq!(fast(WithTables::from(&world.user_pk), &stale), faithful);
    assert_eq!(fast(prepared, &stale), faithful);
    assert_eq!(outsourced(&ct, &world.user_pk, &stale, &mut rng), faithful);
}
