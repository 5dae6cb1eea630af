//! Criterion benchmarks of both schemes' phases at the paper's fixed
//! point (5 authorities × 5 attributes), plus ablations of the design
//! choices DESIGN.md calls out:
//!
//! * **Partial re-encryption** (the paper's proxy method, only affected
//!   rows touched) vs a strawman full re-encryption (decrypt-side work
//!   for every row) — the efficiency claim of §V-C.
//! * Decryption cost vs number of involved authorities (the extra
//!   `n_A` pairings our scheme pays).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mabe_bench::{LewkoWorld, OurWorld, Shape};
use rand::SeedableRng;

const PAPER_POINT: Shape = Shape {
    authorities: 5,
    attrs_per_authority: 5,
};

fn bench_encrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("encrypt_5x5");
    group.sample_size(10);
    let mut ours = OurWorld::new(PAPER_POINT, 11);
    group.bench_function("ours", |b| {
        b.iter(|| std::hint::black_box(ours.encrypt_once()))
    });
    let mut lewko = LewkoWorld::new(PAPER_POINT, 12);
    group.bench_function("lewko", |b| {
        b.iter(|| std::hint::black_box(lewko.encrypt_once()))
    });
    group.finish();
}

fn bench_decrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("decrypt_5x5");
    group.sample_size(10);
    let mut ours = OurWorld::new(PAPER_POINT, 13);
    let our_ct = ours.encrypt_once();
    group.bench_function("ours", |b| {
        b.iter(|| std::hint::black_box(ours.decrypt_once(&our_ct)))
    });
    let mut lewko = LewkoWorld::new(PAPER_POINT, 14);
    let lewko_ct = lewko.encrypt_once();
    group.bench_function("lewko", |b| {
        b.iter(|| std::hint::black_box(lewko.decrypt_once(&lewko_ct)))
    });
    group.finish();
}

fn bench_decrypt_ablation(c: &mut Criterion) {
    // Faithful per-pairing decryption (the paper's cost model) vs the
    // serving path (Eq. 1 folded into two pairings after two MSMs), plus
    // the outsourced split, whose server side runs the same fold.
    let mut group = c.benchmark_group("decrypt_ablation_5x5");
    group.sample_size(10);
    let mut world = OurWorld::new(PAPER_POINT, 71);
    let ct = world.encrypt_once();
    group.bench_function("reference(eq1)", |b| {
        b.iter(|| std::hint::black_box(world.decrypt_once(&ct)))
    });
    group.bench_function("two_pairing_serving", |b| {
        b.iter(|| {
            std::hint::black_box(
                mabe_core::decrypt_fast(&ct, &world.user_pk, &world.user_keys).unwrap(),
            )
        })
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(72);
    let (tk, rk) =
        mabe_core::make_transform_key(&world.user_pk, &world.user_keys, &mut rng).unwrap();
    group.bench_function("outsourced_server_side", |b| {
        b.iter(|| std::hint::black_box(mabe_core::server_transform(&ct, &tk).unwrap()))
    });
    let token = mabe_core::server_transform(&ct, &tk).unwrap();
    group.bench_function("outsourced_client_side", |b| {
        b.iter(|| std::hint::black_box(mabe_core::client_recover(&ct, &token, &rk)))
    });
    group.finish();

    let mut lewko = LewkoWorld::new(PAPER_POINT, 73);
    let lct = lewko.encrypt_once();
    let mut group = c.benchmark_group("lewko_decrypt_ablation_5x5");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| std::hint::black_box(lewko.decrypt_once(&lct)))
    });
    group.bench_function("multi_pairing_fast", |b| {
        b.iter(|| {
            std::hint::black_box(
                mabe_lewko::decrypt_fast(&lct, "bench-user", &lewko.user_keys).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_decrypt_vs_authorities(c: &mut Criterion) {
    // Ablation: our decryption pays n_A extra pairings; watch the cost
    // grow with the authority count at constant total attributes.
    let mut group = c.benchmark_group("decrypt_vs_authorities");
    group.sample_size(10);
    for authorities in [1usize, 2, 4] {
        let shape = Shape {
            authorities,
            attrs_per_authority: 4 / authorities.clamp(1, 4),
        };
        let mut world = OurWorld::new(shape, 20 + authorities as u64);
        let ct = world.encrypt_once();
        group.bench_with_input(
            BenchmarkId::from_parameter(authorities),
            &authorities,
            |b, _| b.iter(|| std::hint::black_box(world.decrypt_once(&ct))),
        );
    }
    group.finish();
}

fn bench_revocation(c: &mut Criterion) {
    // The paper's §V-C efficiency claim: server-side re-encryption only
    // touches the revoked authority's rows (1 pairing + |S_AID| point
    // additions), vs the strawman of redoing the whole encryption.
    let mut group = c.benchmark_group("revocation_5x5");
    group.sample_size(10);

    group.bench_function("partial_reencrypt(paper)", |b| {
        b.iter_batched(
            || {
                let mut world = OurWorld::new(PAPER_POINT, 31);
                let ct = world.encrypt_once();
                let revoked_attr = world.authorities[0]
                    .attributes()
                    .iter()
                    .next()
                    .expect("has attributes")
                    .clone();
                let uid = world.user_pk.uid.clone();
                let event = world.authorities[0]
                    .revoke_attribute(&uid, &revoked_attr, &mut world.rng)
                    .expect("user holds attribute");
                let uk = event.update_keys[world.owner.id()].clone();
                world.owner.apply_update_key(&uk).expect("version chains");
                let ui = world
                    .owner
                    .update_info_for(ct.id, &uk.aid, uk.from_version, uk.to_version)
                    .expect("history kept");
                (ct, uk, ui)
            },
            |(mut ct, uk, ui)| {
                mabe_core::reencrypt(&mut ct, &uk, &ui).expect("valid update");
                std::hint::black_box(ct)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("full_reencrypt(strawman)", |b| {
        let mut world = OurWorld::new(PAPER_POINT, 32);
        b.iter(|| std::hint::black_box(world.encrypt_once()))
    });
    group.finish();
}

fn bench_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("keygen_one_authority_5_attrs");
    group.sample_size(10);
    let world = OurWorld::new(PAPER_POINT, 41);
    let uid = world.user_pk.uid.clone();
    let owner = world.owner.id().clone();
    group.bench_function("ours", |b| {
        b.iter(|| std::hint::black_box(world.authorities[0].keygen(&uid, &owner).unwrap()))
    });
    let lewko = LewkoWorld::new(PAPER_POINT, 42);
    let attrs: Vec<_> = lewko.authorities[0].attributes().cloned().collect();
    group.bench_function("lewko", |b| {
        b.iter(|| {
            for attr in &attrs {
                std::hint::black_box(lewko.authorities[0].keygen("bench-user", attr).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encrypt,
    bench_decrypt,
    bench_decrypt_ablation,
    bench_decrypt_vs_authorities,
    bench_revocation,
    bench_keygen
);
criterion_main!(benches);
