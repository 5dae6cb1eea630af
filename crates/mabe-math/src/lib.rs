//! # mabe-math
//!
//! From-scratch pairing substrate for the MA-ABAC reproduction of
//! *"Attribute-based Access Control for Multi-Authority Systems in Cloud
//! Storage"* (Yang & Jia, ICDCS 2012).
//!
//! The paper's evaluation runs on the PBC library's **type-A** pairing: a
//! supersingular curve `E : y² = x³ + x` over a 512-bit prime field with a
//! 160-bit prime-order subgroup and embedding degree 2. This crate
//! re-implements that entire stack in pure Rust:
//!
//! * [`uint`] — fixed-width big integers (512/353/160-bit).
//! * [`field`] — Montgomery prime fields [`field::Fq`] (base) and
//!   [`field::Fr`] (scalar, the paper's `Z_p`).
//! * [`fp2`] — the quadratic extension `F_{q²}`.
//! * [`curve`] — the group `G` with hashing-to-curve, and the signed
//!   fixed-base tables ([`curve::FixedBase`], kept per key by
//!   [`curve::FixedBaseCache`]).
//! * [`msm`](mod@crate::msm) — multi-scalar multiplication `Σ k_i·P_i`
//!   (Straus, signed width-4 wNAF).
//! * [`pairing`](mod@crate::pairing) — the symmetric Tate pairing `e : G × G → G_T` via
//!   Miller's algorithm with denominator elimination and a Lucas-ladder
//!   final exponentiation, the fixed-argument [`pairing::FixedPairing`]
//!   (alone or beside plain pairs in one product, [`pairing::Pairs`]),
//!   and the target group [`pairing::Gt`].
//! * [`hash`] — the random oracle `H : {0,1}* → Z_p` of the paper.
//! * [`prepared`] — [`prepared::WithTables`], how an argument travels
//!   with the tables its holder kept for it.
//!
//! # Security disclaimer
//!
//! This is a research reproduction: arithmetic is **variable-time** (field
//! inversion, a binary extended Euclid, branches on its input; so do the
//! windowed scalar multiplications and exponentiations) and the
//! 512-bit/160-bit type-A parameters match the paper's 2012 evaluation, not
//! today's security margins. Do not deploy.
//!
//! # Examples
//!
//! ```
//! use mabe_math::curve::{G1, G1Affine};
//! use mabe_math::field::Fr;
//! use mabe_math::pairing::pairing;
//!
//! // e(aP, bP) = e(P, P)^{ab}
//! let g = G1Affine::generator();
//! let (a, b) = (Fr::from_u64(6), Fr::from_u64(7));
//! let ga = G1Affine::from(g.mul(&a));
//! let gb = G1Affine::from(g.mul(&b));
//! assert_eq!(pairing(&ga, &gb), pairing(&g, &g).pow(&Fr::from_u64(42)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod field;
pub mod fp2;
pub mod hash;
pub mod msm;
pub mod pairing;
pub mod params;
pub mod prepared;
pub mod uint;

pub use curve::{
    batch_normalize, generator_mul, hash_to_curve, FixedBase, FixedBaseCache, G1Affine,
    FIXED_BASE_BREAK_EVEN, G1,
};
pub use field::{Fq, Fr};
pub use hash::hash_to_fr;
pub use msm::msm;
pub use pairing::{multi_pairing, pairing, FixedPairing, Gt, Pairs, LINES_BREAK_EVEN};
pub use prepared::WithTables;

/// Cases per differential property of a replaced kernel against its
/// oracle: enough to stay quick in the debug test run, and deep in the
/// release run (`cargo test --release -p mabe-math`). The vendored
/// proptest honours only `with_cases`, so the depth is set here.
#[cfg(test)]
pub(crate) const DIFFERENTIAL_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };
