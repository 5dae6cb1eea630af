//! Multi-scalar multiplication `Σ k_i·P_i` in `G`.
//!
//! Straus's interleaved method over width-4 wNAF digits: every term of a
//! sum shares one doubling chain, so a sum of `n` terms costs one chain
//! as long as its longest scalar plus about `bits/5` mixed additions per
//! term, instead of `n` separate ~160-doubling scalar multiplications.
//!
//! Two refinements matter for the scheme's decryption (paper Eq. 1),
//! whose scalars are the LSSS recombination exponents `−w_i·n_A` of the
//! rows under a `k`-of-`n` gate: signed Lagrange coefficients (a
//! 25-of-25 threshold at `n_A = 5` gives `±C(25, j)·5`). Rows at
//! `w_i = 1` never reach the MSM; the decrypt adds them up itself.
//!
//! * **Signed recoding.** A scalar `k > r/2` runs as `−(r − k)` on the
//!   negated point, so a small negative exponent (stored as `r − small`)
//!   costs as few doublings as a small positive one.
//! * **One inversion.** The odd-multiple tables (`P, 3P, 5P, 7P`, cut
//!   to the largest digit a term uses) of every term of every sum in one
//!   call are normalized to affine together by [`batch_normalize`], so
//!   the main loop runs on mixed additions after a single field
//!   inversion, or none when no term needs a table.

use crate::curve::{batch_normalize, wnaf_digits, G1Affine, G1};
use crate::field::Fr;
use crate::params;

/// One nonzero term after signed recoding.
struct Term {
    /// `P` or `−P`, whichever the recoded scalar multiplies.
    point: G1Affine,
    /// wNAF digits of the recoded scalar, least significant first.
    digits: Vec<i8>,
    /// Index of `3·point` in the shared normalized table; `5·point` and
    /// `7·point` follow it when the digits need them.
    table: usize,
}

impl Term {
    /// The table entry for the odd digit `d`, negated when `d < 0`.
    fn entry(&self, d: i8, table: &[G1Affine]) -> G1Affine {
        let j = (d.unsigned_abs() / 2) as usize;
        let p = if j == 0 {
            self.point
        } else {
            table[self.table + j - 1]
        };
        if d < 0 {
            p.neg()
        } else {
            p
        }
    }
}

/// Computes each sum `Σ k_i·P_i` of `sums` (Straus, width-4 wNAF).
///
/// All sums' tables share one [`batch_normalize`] inversion. Zero
/// scalars and identity points contribute nothing; an empty sum is the
/// identity. Records one [`mabe_telemetry::CryptoOp::Msm`] per sum and
/// no [`mabe_telemetry::CryptoOp::G1Mul`].
pub fn msm<const N: usize>(sums: [&[(G1Affine, Fr)]; N]) -> [G1; N] {
    let half_r = params::R.shr1();
    let mut projective = Vec::new();
    let terms: [Vec<Term>; N] = sums.map(|sum| {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::Msm);
        sum.iter()
            .filter(|(p, k)| !p.is_identity() && !k.is_zero())
            .map(|(p, k)| {
                let scalar = k.to_uint();
                let (point, magnitude) = if scalar > half_r {
                    (p.neg(), k.neg().to_uint())
                } else {
                    (*p, scalar)
                };
                let digits = wnaf_digits(magnitude);
                let largest = digits.iter().map(|d| d.unsigned_abs()).max().unwrap_or(1);
                let table = projective.len();
                // 3P, 5P, ... up to the largest digit; P itself stays affine.
                if largest > 1 {
                    let mut odd = G1::from(point);
                    let twice = odd.double();
                    for _ in 0..largest / 2 {
                        odd = odd.add(&twice);
                        projective.push(odd);
                    }
                }
                Term {
                    point,
                    digits,
                    table,
                }
            })
            .collect()
    });
    let table = batch_normalize(&projective);
    terms.map(|terms| {
        let len = terms.iter().map(|t| t.digits.len()).max().unwrap_or(0);
        let mut acc = G1::identity();
        for bit in (0..len).rev() {
            acc = acc.double();
            for term in &terms {
                match term.digits.get(bit) {
                    Some(&d) if d != 0 => acc = acc.add_mixed(&term.entry(d, &table)),
                    _ => {}
                }
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `Σ k_i·P_i` by one `G1::mul` per term.
    fn naive(terms: &[(G1Affine, Fr)]) -> G1 {
        terms
            .iter()
            .fold(G1::identity(), |acc, (p, k)| acc.add(&p.mul(k)))
    }

    fn random_terms(rng: &mut StdRng, n: usize) -> Vec<(G1Affine, Fr)> {
        (0..n)
            .map(|_| (G1Affine::from(G1::random(rng)), Fr::random(rng)))
            .collect()
    }

    #[test]
    fn matches_naive_sum_for_several_lengths() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in [0usize, 1, 2, 25] {
            let terms = random_terms(&mut rng, n);
            let [sum] = msm([&terms]);
            assert_eq!(sum, naive(&terms), "n = {n}");
        }
    }

    #[test]
    fn zero_scalars_and_identity_points_contribute_nothing() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut terms = random_terms(&mut rng, 4);
        terms[1].1 = Fr::zero();
        terms[2].0 = G1Affine::identity();
        terms.push((G1Affine::identity(), Fr::zero()));
        let [sum] = msm([&terms]);
        assert_eq!(sum, naive(&terms));
        let [zero] = msm([&[(G1Affine::generator(), Fr::zero())]]);
        assert!(zero.is_identity());
        let [empty] = msm([&[]]);
        assert!(empty.is_identity());
    }

    #[test]
    fn signed_recoding_boundaries() {
        let mut rng = StdRng::seed_from_u64(43);
        let half = Fr::from_uint(&params::R.shr1()); // (r − 1)/2
        let one = Fr::one();
        let boundaries = [one, half, half.add(&one), one.neg()];
        for k in boundaries {
            let p = G1Affine::from(G1::random(&mut rng));
            let [sum] = msm([&[(p, k)]]);
            assert_eq!(sum, p.mul(&k));
        }
        // All four in one sum, against a shared point and distinct ones.
        let p = G1Affine::from(G1::random(&mut rng));
        let shared: Vec<_> = boundaries.iter().map(|k| (p, *k)).collect();
        let distinct = random_terms(&mut rng, 4)
            .into_iter()
            .zip(boundaries)
            .map(|((p, _), k)| (p, k))
            .collect::<Vec<_>>();
        let [a, b] = msm([&shared, &distinct]);
        assert_eq!(a, naive(&shared));
        assert_eq!(b, naive(&distinct));
    }

    #[test]
    fn small_signed_coefficients_like_lsss_exponents() {
        // ±C(25, j)·5, the recombination exponents of a 25-of-25
        // threshold at n_A = 5.
        let mut rng = StdRng::seed_from_u64(44);
        let mut binom = 1u64;
        let terms: Vec<_> = (1..=25u64)
            .map(|j| {
                binom = binom * (26 - j) / j;
                let k = Fr::from_u64(binom * 5);
                let k = if j % 2 == 0 { k.neg() } else { k };
                (G1Affine::from(G1::random(&mut rng)), k)
            })
            .collect();
        let [sum] = msm([&terms]);
        assert_eq!(sum, naive(&terms));
    }

    #[test]
    fn terms_cancelling_to_identity() {
        let mut rng = StdRng::seed_from_u64(45);
        let p = G1Affine::from(G1::random(&mut rng));
        let k = Fr::random(&mut rng);
        let [sum] = msm([&[(p, k), (p, k.neg())]]);
        assert!(sum.is_identity());
        let [sum] = msm([&[(p, k), (p.neg(), k)]]);
        assert!(sum.is_identity());
    }

    #[test]
    fn counts_one_msm_per_sum_and_no_g1_muls() {
        let mut rng = StdRng::seed_from_u64(46);
        let terms = random_terms(&mut rng, 3);
        let (_, ops) = mabe_telemetry::measure(|| msm([&terms, &terms[..1]]));
        assert_eq!(ops.msms, 2);
        assert_eq!(ops.g1_muls, 0);
    }
}
