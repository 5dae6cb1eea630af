//! The span program `(M, ρ)` that `AccessStructure::from_policy` builds
//! is a sound LSSS for its formula, and the formula walk that
//! reconstructs from it agrees with the Gauss–Jordan oracle.
//!
//! Over random injective AND / OR / k-of-n policies and random held
//! subsets, for the policy and for its AND/OR-only relative:
//!
//! * the walk returns `Some` ⇔ the formula is satisfied ⇔
//!   `linalg::solve(M_Sᵀ, e₁)` succeeds;
//! * `Σ w_i·M_i = e₁` exactly, in ascending rows, with `w` nonzero and
//!   only on held rows;
//! * on AND/OR-only policies every coefficient is 1;
//! * the walk uses no more rows than the oracle's solution.
//!
//! 64 cases in debug builds and 1,024 in release ones
//! (`cargo test --release -p mabe-policy`).

use std::collections::BTreeSet;

use proptest::prelude::*;

use mabe_math::Fr;
use mabe_policy::{linalg, AccessStructure, Attribute, AuthorityId, Policy};

const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

/// A random gate tree; [`injective`] relabels its leaves.
fn arb_shape() -> impl Strategy<Value = Policy> {
    let leaf = Just(()).prop_map(|()| Policy::leaf(Attribute::new("x", AuthorityId::new("A"))));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..5).prop_map(Policy::And),
            prop::collection::vec(inner.clone(), 2..5).prop_map(Policy::Or),
            (prop::collection::vec(inner, 2..5), 1usize..5).prop_map(|(cs, k)| {
                let k = k.min(cs.len());
                Policy::Threshold { k, children: cs }
            }),
        ]
    })
}

/// `policy` with its leaves renamed, in order, to `a{j}@AA{j % 3}`, so
/// that `ρ` is injective.
fn injective(policy: &Policy, next: &mut usize) -> Policy {
    let mut children = |cs: &[Policy]| cs.iter().map(|c| injective(c, next)).collect();
    match policy {
        Policy::Leaf(_) => {
            let j = *next;
            *next += 1;
            Policy::leaf(Attribute::new(
                format!("a{j}"),
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

/// `policy` with every k-of-n gate made an OR (`k = 1`) or an AND.
fn and_or_only(policy: &Policy) -> Policy {
    let children = |cs: &[Policy]| cs.iter().map(and_or_only).collect();
    match policy {
        Policy::Leaf(_) => policy.clone(),
        Policy::And(cs) => Policy::And(children(cs)),
        Policy::Or(cs) | Policy::Threshold { k: 1, children: cs } => Policy::Or(children(cs)),
        Policy::Threshold { children: cs, .. } => Policy::And(children(cs)),
    }
}

/// Every property above, for one policy and held-row mask.
fn check(policy: &Policy, mask: u64, unit: bool) -> Result<(), TestCaseError> {
    let access = AccessStructure::from_policy(policy).unwrap();
    let held: BTreeSet<Attribute> = access
        .rho()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
        .map(|(_, a)| a.clone())
        .collect();
    let rows: Vec<usize> = (0..access.rows())
        .filter(|&i| held.contains(&access.rho()[i]))
        .collect();
    let width = access.width();
    let mut e1 = vec![Fr::zero(); width];
    e1[0] = Fr::one();
    let m_s_t: Vec<Vec<Fr>> = (0..width)
        .map(|c| rows.iter().map(|&i| access.matrix()[i][c]).collect())
        .collect();
    let oracle = linalg::solve(&m_s_t, &e1);
    let walk = access.reconstruction_coefficients(&held);
    let satisfied = policy.is_satisfied_by(held.iter());
    prop_assert!(walk.is_some() == satisfied, "walk vs formula: {}", policy);
    prop_assert!(oracle.is_some() == satisfied, "span vs formula: {}", policy);
    let (Some(w), Some(oracle)) = (walk, oracle) else {
        return Ok(());
    };

    let mut sum = vec![Fr::zero(); width];
    for (i, (row, c)) in w.iter().enumerate() {
        prop_assert!(
            i == 0 || w[i - 1].0 < *row,
            "rows not ascending: {}",
            policy
        );
        prop_assert!(rows.contains(row), "row {} not held: {}", row, policy);
        prop_assert!(!c.is_zero(), "zero coefficient kept: {}", policy);
        prop_assert!(!unit || *c == Fr::one(), "non-unit coefficient: {}", policy);
        for (s, m) in sum.iter_mut().zip(&access.matrix()[*row]) {
            *s = s.add(&c.mul(m));
        }
    }
    prop_assert!(sum == e1, "Σ w_i·M_i ≠ e₁: {}", policy);
    let oracle_rows = oracle.iter().filter(|x| !x.is_zero()).count();
    prop_assert!(
        w.len() <= oracle_rows,
        "walk uses {} rows, oracle {}: {}",
        w.len(),
        oracle_rows,
        policy
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn the_walk_reconstructs_exactly_what_the_span_program_admits(
        shape in arb_shape(),
        masks in (any::<u64>(), any::<u64>(), any::<u64>()),
        density in 0u8..3,
    ) {
        // Each row held with probability 1/2, 3/4 or 7/8.
        let (a, b, c) = masks;
        let mask = match density {
            0 => a,
            1 => a | b,
            _ => a | b | c,
        };
        let policy = injective(&shape, &mut 0);
        check(&policy, mask, false)?;
        check(&and_or_only(&policy), mask, true)?;
    }
}
