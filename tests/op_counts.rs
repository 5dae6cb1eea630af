//! Operation-count assertions against the paper's cost model (§VI-A,
//! Table I), checked exactly via the telemetry op-accounting hooks
//! rather than estimated from wall-clock time.
//!
//! * Decryption: `n_A + 2·|I|` pairings (Eq. 1) — `2·|I| + 1` in the
//!   single-authority case. The serving path (`decrypt_fast`, and so a
//!   cold `CloudSystem::read`) folds Eq. 1 by bilinearity into 2
//!   pairings after 2 multi-scalar multiplications, at any policy size.
//! * Encryption: `2·l + 1` exponentiations in `G` (two per LSSS row
//!   plus `C'`) and one exponentiation in `G_T` (the blinding factor).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mabe_core::{
    client_recover, decrypt, decrypt_fast, encrypt, make_transform_key, server_transform,
    AttributeAuthority, CertificateAuthority, Ciphertext, CiphertextId, OwnerId, OwnerMasterKey,
    UserPublicKey, UserSecretKey, WithTables,
};
use mabe_math::Gt;
use mabe_policy::{parse, AccessStructure, AuthorityId};
use mabe_telemetry::measure;

struct Fixture {
    rng: StdRng,
    ca: CertificateAuthority,
    aas: Vec<AttributeAuthority>,
    owner: OwnerId,
    mk: OwnerMasterKey,
    authority_keys: BTreeMap<AuthorityId, mabe_core::AuthorityPublicKeys>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(20120618);
    let mut ca = CertificateAuthority::new();
    let owner = OwnerId::new("hospital");
    let mk = OwnerMasterKey::random(&mut rng);
    let mut aas = Vec::new();
    for (name, attrs) in [
        ("Med", vec!["Doctor", "Nurse"]),
        ("Trial", vec!["Researcher", "Sponsor"]),
    ] {
        let aid = ca.register_authority(name).unwrap();
        let mut aa = AttributeAuthority::new(aid, &attrs, &mut rng);
        aa.register_owner(mk.secret_key(&owner)).unwrap();
        aas.push(aa);
    }
    let authority_keys = aas
        .iter()
        .map(|aa| (aa.aid().clone(), aa.public_keys()))
        .collect();
    Fixture {
        rng,
        ca,
        aas,
        owner,
        mk,
        authority_keys,
    }
}

impl Fixture {
    fn enroll(
        &mut self,
        uid: &str,
        attrs: &[&str],
    ) -> (UserPublicKey, BTreeMap<AuthorityId, UserSecretKey>) {
        let pk = self.ca.register_user(uid, &mut self.rng).unwrap();
        let mut keys = BTreeMap::new();
        for aa in &mut self.aas {
            let mine: Vec<mabe_policy::Attribute> = attrs
                .iter()
                .filter_map(|s| s.parse::<mabe_policy::Attribute>().ok())
                .filter(|a| a.authority() == aa.aid())
                .collect();
            if !mine.is_empty() {
                aa.grant(&pk, mine).unwrap();
                keys.insert(aa.aid().clone(), aa.keygen(&pk.uid, &self.owner).unwrap());
            }
        }
        (pk, keys)
    }

    fn encrypt(&mut self, msg: &Gt, policy: &str) -> Ciphertext {
        let access = AccessStructure::from_policy(&parse(policy).unwrap()).unwrap();
        encrypt(
            msg,
            &access,
            &self.mk,
            &self.owner,
            CiphertextId(1),
            &self.authority_keys,
            &mut self.rng,
        )
        .unwrap()
        .0
    }
}

/// One throwaway encrypt+decrypt so memoized state (the `G_T` generator
/// pairing, the fixed-base window table) is built before any counting.
fn warmed_fixture() -> Fixture {
    let mut fx = fixture();
    let msg = Gt::random(&mut fx.rng);
    let ct = fx.encrypt(&msg, "Doctor@Med");
    let (pk, keys) = fx.enroll("warmup", &["Doctor@Med"]);
    assert_eq!(decrypt(&ct, &pk, &keys).unwrap(), msg);
    fx
}

#[test]
fn single_authority_decrypt_costs_2i_plus_1_pairings() {
    let mut fx = warmed_fixture();
    let msg = Gt::random(&mut fx.rng);
    // |I| = 1 reconstruction row, n_A = 1 involved authority.
    let ct = fx.encrypt(&msg, "Doctor@Med");
    let (pk, keys) = fx.enroll("alice", &["Doctor@Med"]);

    let rows = 1;
    let (out, ops) = measure(|| decrypt(&ct, &pk, &keys).unwrap());
    assert_eq!(out, msg);
    assert_eq!(ops.pairings, 2 * rows + 1, "2·|I| + 1 pairings, |I| = 1");
    assert_eq!(
        ops.gt_pows, 1,
        "one w_i·n_A recombination exponentiation per row"
    );
    assert_eq!(ops.g1_muls, 0, "reference decryption works entirely in G_T");
}

#[test]
fn general_decrypt_costs_na_plus_2i_pairings() {
    let mut fx = warmed_fixture();
    let msg = Gt::random(&mut fx.rng);
    // AND over three attributes from two authorities: l = |I| = 3, n_A = 2.
    let ct = fx.encrypt(&msg, "Doctor@Med AND Nurse@Med AND Researcher@Trial");
    let (pk, keys) = fx.enroll("bob", &["Doctor@Med", "Nurse@Med", "Researcher@Trial"]);

    let (out, ops) = measure(|| decrypt(&ct, &pk, &keys).unwrap());
    assert_eq!(out, msg);
    assert_eq!(ops.pairings, 2 + 2 * 3, "n_A + 2·|I| pairings");
    assert_eq!(ops.gt_pows, 3, "one recombination exponentiation per row");

    // The serving path folds every pairing onto C' or PK_UID: two
    // multi-scalar multiplications, then two pairings.
    let ((fast, _), fast_ops) = measure(|| decrypt_fast(&ct, &pk, &keys).unwrap());
    assert_eq!(fast, msg);
    assert_eq!(fast_ops.pairings, 2);
    assert_eq!(fast_ops.gt_pows, 0);
    assert_eq!(fast_ops.g1_muls, 0);
    assert_eq!(fast_ops.msms, 2, "one per pairing's folded G argument");
}

/// The paper's 5×5 point (AND over 25 attributes from 5 authorities):
/// the faithful path pays `n_A + 2·|I| = 55` pairings, the serving path
/// 2.
#[test]
fn paper_point_5x5_decrypt_costs_55_faithful_and_2_serving_pairings() {
    let shape = mabe_bench::Shape {
        authorities: 5,
        attrs_per_authority: 5,
    };
    let mut world = mabe_bench::OurWorld::new(shape, 55);
    let (ct, msg) = world.encrypt_with_message();
    world.decrypt_once(&ct); // warm the memoized generators

    let (out, ops) = measure(|| world.decrypt_once(&ct));
    assert_eq!(out, msg);
    assert_eq!(ops.pairings, 5 + 2 * 25, "n_A + 2·|I|");
    assert_eq!(ops.gt_pows, 25);

    let ((fast, built), fast_ops) =
        measure(|| decrypt_fast(&ct, &world.user_pk, &world.user_keys).unwrap());
    assert_eq!(fast, msg);
    assert_eq!(fast_ops.pairings, 2);
    assert_eq!(fast_ops.gt_pows, 0);
    assert_eq!(fast_ops.g1_muls, 0);
    assert_eq!(fast_ops.msms, 2);
    // The key-side table that call built evaluates in its place: the
    // same counts.
    let kept = WithTables::new(&world.user_keys, built.as_ref());
    let (again, kept_ops) = measure(|| decrypt_fast(&ct, &world.user_pk, kept).unwrap());
    assert_eq!(again, (msg, None));
    assert_eq!(kept_ops, fast_ops);

    // The outsourcing server runs the same fold on blinded keys.
    let mut rng = StdRng::seed_from_u64(56);
    let (tk, rk) = make_transform_key(&world.user_pk, &world.user_keys, &mut rng).unwrap();
    let (token, server_ops) = measure(|| server_transform(&ct, &tk).unwrap());
    assert_eq!(client_recover(&ct, &token, &rk), msg);
    assert_eq!((server_ops.pairings, server_ops.msms), (2, 2));
    assert_eq!((server_ops.gt_pows, server_ops.g1_muls), (0, 0));
}

/// A cold read through the cloud system (content-key cache miss) at the
/// 5×5 point runs the serving path: 2 pairings; the warm re-read none.
#[test]
fn cold_cloud_read_at_5x5_costs_2_pairings_and_a_warm_one_none() {
    let sys = mabe_cloud::CloudSystem::new(5);
    let attrs = ["a0", "a1", "a2", "a3", "a4"];
    let mut all = Vec::new();
    for a in 0..5 {
        let name = format!("AA{a}");
        sys.add_authority(&name, &attrs).unwrap();
        all.extend(attrs.iter().map(|x| format!("{x}@{name}")));
    }
    let owner = sys.add_owner("owner").unwrap();
    let user = sys.add_user("reader").unwrap();
    let all: Vec<&str> = all.iter().map(String::as_str).collect();
    sys.grant(&user, &all).unwrap();
    let policy = all.join(" AND ");
    sys.publish(&owner, "rec", &[("x", b"payload".as_slice(), &policy)])
        .unwrap();

    let (bytes, cold) = measure(|| sys.read(&user, &owner, "rec", "x").unwrap());
    assert_eq!(bytes, b"payload");
    assert_eq!(cold.pairings, 2);
    assert_eq!(cold.gt_pows, 0);
    assert_eq!(cold.msms, 2);
    let (_, warm) = measure(|| sys.read(&user, &owner, "rec", "x").unwrap());
    assert_eq!(warm.pairings, 0);
    assert_eq!(sys.cache_stats().content_hits, 1);

    // A second cold read under the same policy evaluates the key-side
    // table the first one built: still 2 pairings and 2 MSMs.
    sys.publish(&owner, "rec2", &[("x", b"payload2".as_slice(), &policy)])
        .unwrap();
    let (bytes, second) = measure(|| sys.read(&user, &owner, "rec2", "x").unwrap());
    assert_eq!(bytes, b"payload2");
    assert_eq!(sys.cache_stats().key_table_builds, 1);
    assert_eq!((second.pairings, second.msms), (2, 2));
    assert_eq!((second.gt_pows, second.g1_muls), (0, 0));
}

#[test]
fn encrypt_costs_two_g_exponentiations_per_row_plus_blinding() {
    let mut fx = warmed_fixture();
    let msg = Gt::random(&mut fx.rng);
    for (policy, rows) in [
        ("Doctor@Med", 1),
        ("Doctor@Med AND Researcher@Trial", 2),
        (
            "Doctor@Med AND Nurse@Med AND Researcher@Trial AND Sponsor@Trial",
            4,
        ),
    ] {
        let (ct, ops) = measure(|| fx.encrypt(&msg, policy));
        assert_eq!(ct.rows(), rows);
        assert_eq!(
            ops.g1_muls,
            2 * rows as u64 + 1,
            "per row g^(r·λ_i) and PK_x^(-βs), plus C' = g^(βs) ({policy})"
        );
        assert_eq!(ops.gt_pows, 1, "one (Π PK_o)^s blinding exponentiation");
        assert_eq!(ops.pairings, 0, "encryption needs no pairings");
    }
}
