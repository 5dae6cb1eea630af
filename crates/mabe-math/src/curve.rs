//! The group `G`: the order-`r` subgroup of the supersingular curve
//! `E : y² = x³ + x` over `F_q`.
//!
//! Points are manipulated in Jacobian coordinates (`x = X/Z²`,
//! `y = Y/Z³`); the curve coefficient is `a = 1`, `b = 0`. The paper's
//! symmetric pairing group `G` is exactly this subgroup (PBC type-A), with
//! the distortion map `φ(x, y) = (-x, iy)` supplying the second pairing
//! argument (see [`crate::pairing()`]).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rand::RngCore;

use mabe_crypto::sha256;

use crate::field::{Fq, Fr};
use crate::params;

/// Domain-separation tag for hash-to-curve.
const TAG_H2C: u8 = 0x01;

/// A point on `E(F_q)` in affine coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct G1Affine {
    pub(crate) x: Fq,
    pub(crate) y: Fq,
    pub(crate) infinity: bool,
}

/// A point on `E(F_q)` in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct G1 {
    pub(crate) x: Fq,
    pub(crate) y: Fq,
    pub(crate) z: Fq,
}

impl Default for G1Affine {
    fn default() -> Self {
        Self::identity()
    }
}

impl Default for G1 {
    fn default() -> Self {
        Self::identity()
    }
}

impl G1Affine {
    /// The point at infinity.
    pub fn identity() -> Self {
        G1Affine {
            x: Fq::zero(),
            y: Fq::zero(),
            infinity: true,
        }
    }

    /// `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// The affine x-coordinate.
    ///
    /// # Panics
    ///
    /// Panics for the point at infinity.
    pub fn x(&self) -> Fq {
        assert!(!self.infinity, "identity has no coordinates");
        self.x
    }

    /// The affine y-coordinate.
    ///
    /// # Panics
    ///
    /// Panics for the point at infinity.
    pub fn y(&self) -> Fq {
        assert!(!self.infinity, "identity has no coordinates");
        self.y
    }

    /// Checks the curve equation `y² = x³ + x`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&self.x);
        lhs == rhs
    }

    /// Checks membership in the order-`r` subgroup.
    pub fn is_torsion_free(&self) -> bool {
        G1::from(*self).mul_by_limbs(&params::R.limbs).is_identity()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        if self.infinity {
            *self
        } else {
            G1Affine {
                x: self.x,
                y: self.y.neg(),
                infinity: false,
            }
        }
    }

    /// The fixed group generator (derived by hashing a domain tag to the
    /// curve; deterministic across runs).
    pub fn generator() -> Self {
        static GEN: OnceLock<G1Affine> = OnceLock::new();
        *GEN.get_or_init(|| hash_to_curve(b"mabe-type-a-curve-generator-v1"))
    }

    /// Scalar multiplication.
    pub fn mul(&self, scalar: &Fr) -> G1 {
        G1::from(*self).mul(scalar)
    }

    /// Compressed encoding: one flag byte (`0x00` infinity, `0x02 | parity`
    /// otherwise) followed by the 64-byte big-endian x-coordinate.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(65);
        if self.infinity {
            out.push(0x00);
            out.extend_from_slice(&[0u8; 64]);
        } else {
            out.push(0x02 | u8::from(self.y.is_odd()));
            out.extend_from_slice(&self.x.to_canonical_bytes());
        }
        out
    }

    /// Parses the 65-byte compressed encoding produced by
    /// [`G1Affine::to_bytes`], validating the curve equation and subgroup
    /// membership.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 65 {
            return None;
        }
        let flag = bytes[0];
        if flag == 0x00 {
            if bytes[1..].iter().any(|&b| b != 0) {
                return None;
            }
            return Some(Self::identity());
        }
        if flag != 0x02 && flag != 0x03 {
            return None;
        }
        let x = Fq::from_canonical_bytes(&bytes[1..])?;
        let rhs = x.square().mul(&x).add(&x);
        let mut y = rhs.sqrt()?;
        if y.is_odd() != (flag & 1 == 1) {
            y = y.neg();
        }
        let point = G1Affine {
            x,
            y,
            infinity: false,
        };
        if point.is_torsion_free() {
            Some(point)
        } else {
            None
        }
    }
}

impl From<G1> for G1Affine {
    fn from(p: G1) -> Self {
        if p.is_identity() {
            return G1Affine::identity();
        }
        let zinv = p.z.invert().expect("non-identity point has z != 0");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        G1Affine {
            x: p.x.mul(&zinv2),
            y: p.y.mul(&zinv3),
            infinity: false,
        }
    }
}

impl From<G1Affine> for G1 {
    fn from(p: G1Affine) -> Self {
        if p.infinity {
            G1::identity()
        } else {
            G1 {
                x: p.x,
                y: p.y,
                z: Fq::one(),
            }
        }
    }
}

impl PartialEq for G1 {
    fn eq(&self, other: &Self) -> bool {
        let self_id = self.is_identity();
        let other_id = other.is_identity();
        if self_id || other_id {
            return self_id == other_id;
        }
        // X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³
        let z1_2 = self.z.square();
        let z2_2 = other.z.square();
        if self.x.mul(&z2_2) != other.x.mul(&z1_2) {
            return false;
        }
        let z1_3 = z1_2.mul(&self.z);
        let z2_3 = z2_2.mul(&other.z);
        self.y.mul(&z2_3) == other.y.mul(&z1_3)
    }
}
impl Eq for G1 {}

impl G1 {
    /// The point at infinity (encoded as `Z = 0`).
    pub fn identity() -> Self {
        G1 {
            x: Fq::one(),
            y: Fq::one(),
            z: Fq::zero(),
        }
    }

    /// `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// The fixed group generator as a projective point.
    pub fn generator() -> Self {
        G1::from(G1Affine::generator())
    }

    /// Point doubling (`a = 1` Jacobian formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return Self::identity();
        }
        let y2 = self.y.square();
        let s = self.x.mul(&y2).double().double(); // 4XY²
        let z2 = self.z.square();
        let x2 = self.x.square();
        let m = x2.double().add(&x2).add(&z2.square()); // 3X² + Z⁴
        let x3 = m.square().sub(&s.double());
        let y4_8 = y2.square().double().double().double(); // 8Y⁴
        let y3 = m.mul(&s.sub(&x3)).sub(&y4_8);
        let z3 = self.y.mul(&self.z).double();
        G1 {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1_2 = self.z.square();
        let z2_2 = rhs.z.square();
        let u1 = self.x.mul(&z2_2);
        let u2 = rhs.x.mul(&z1_2);
        let s1 = self.y.mul(&z2_2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1_2).mul(&self.z);
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Self::identity();
        }
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = self.z.mul(&rhs.z).mul(&h);
        G1 {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point.
    pub fn add_mixed(&self, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return G1::from(*rhs);
        }
        let z1_2 = self.z.square();
        let u2 = rhs.x.mul(&z1_2);
        let s2 = rhs.y.mul(&z1_2).mul(&self.z);
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Self::identity();
        }
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = self.x.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&self.y.mul(&h3));
        let z3 = self.z.mul(&h);
        G1 {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        G1 {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication by a field scalar (width-4 wNAF).
    pub fn mul(&self, scalar: &Fr) -> Self {
        self.mul_wnaf(scalar)
    }

    /// Width-4 wNAF scalar multiplication: ~160 doublings but only ~32
    /// additions against a 4-entry odd-multiples table (the kind of
    /// optimization the paper's PBC library applies).
    pub fn mul_wnaf(&self, scalar: &Fr) -> Self {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::G1Mul);
        let digits = wnaf_digits(scalar.to_uint());
        if digits.is_empty() {
            return Self::identity();
        }
        // Odd multiples P, 3P, 5P, 7P.
        let twice = self.double();
        let mut table = [*self; 4];
        for i in 1..4 {
            table[i] = table[i - 1].add(&twice);
        }
        let mut acc = Self::identity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            if d > 0 {
                acc = acc.add(&table[(d as usize) / 2]);
            } else if d < 0 {
                acc = acc.add(&table[((-d) as usize) / 2].neg());
            }
        }
        acc
    }

    /// Reference double-and-add scalar multiplication (kept for the
    /// wNAF ablation benchmark and cross-checking).
    pub fn mul_binary(&self, scalar: &Fr) -> Self {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::G1Mul);
        self.mul_by_limbs(&scalar.to_uint().limbs)
    }

    /// Variable-time scalar multiplication by a little-endian limb slice
    /// (used for cofactor clearing where the multiplier exceeds `r`).
    pub fn mul_by_limbs(&self, limbs: &[u64]) -> Self {
        let mut acc = Self::identity();
        let mut started = false;
        for i in (0..limbs.len() * 64).rev() {
            if started {
                acc = acc.double();
            }
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
                started = true;
            }
        }
        acc
    }

    /// Uniformly random group element (random scalar times the generator).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul(&Fr::random(rng))
    }
}

impl core::ops::Add for G1 {
    type Output = G1;
    fn add(self, rhs: G1) -> G1 {
        G1::add(&self, &rhs)
    }
}
impl core::ops::Neg for G1 {
    type Output = G1;
    fn neg(self) -> G1 {
        G1::neg(&self)
    }
}

/// Precomputed fixed-base multiplication table (signed radix-16
/// windows): PBC's `element_pp_t`.
///
/// For a point known in advance (above all the generator `g`, which the
/// scheme exponentiates constantly, and long-lived keys such as `PK_x`),
/// precomputing `d · 16^w · P` for every window `w` and digit
/// `d ∈ 1..=8` turns a scalar multiplication into at most 41 mixed
/// additions with **no doublings**. Digits are recoded into `[−7, 8]`
/// with a carry into the next window, so a negative digit adds a
/// negated entry: 41 windows × 8 points (about 44 KiB), half the
/// entries of the unsigned 40 × 15 table at the same addition count.
#[derive(Clone, Debug)]
pub struct FixedBase {
    /// `table[w][d-1] = d · 16^w · P` for `d` in `1..=8`.
    table: Vec<[G1Affine; FIXED_BASE_DIGITS]>,
}

/// Radix-16 windows covering a 160-bit scalar plus the top carry.
const FIXED_BASE_WINDOWS: usize = 41;

/// Table entries per window: the digit magnitudes `1..=8`.
const FIXED_BASE_DIGITS: usize = 8;

/// Uses of one base from which a [`FixedBase`] table pays for itself.
/// Building one cost 3.6–4.0 times what one multiplication against it
/// saves (e.g. 1.02 ms to build, against 340 µs for [`G1::mul`] and
/// 55 µs from the table; medians of 15 interleaved rounds, two runs,
/// 2-vCPU x86-64 VM), so the fourth use recovers the build. Publish and
/// revocation both build a table at the break-even-th use of a key.
pub const FIXED_BASE_BREAK_EVEN: usize = 4;

impl FixedBase {
    /// Precomputes the table for `point`: 7 additions and a doubling
    /// per window, then one [`batch_normalize`] (a single field
    /// inversion) for all 328 entries.
    pub fn new(point: &G1) -> Self {
        let mut multiples = Vec::with_capacity(FIXED_BASE_WINDOWS * FIXED_BASE_DIGITS);
        let mut base = *point;
        for _ in 0..FIXED_BASE_WINDOWS {
            let mut acc = base;
            multiples.push(acc);
            for _ in 1..FIXED_BASE_DIGITS {
                acc = acc.add(&base);
                multiples.push(acc);
            }
            base = acc.double(); // 2 · 8 · base = 16 · base
        }
        let table = batch_normalize(&multiples)
            .chunks_exact(FIXED_BASE_DIGITS)
            .map(|row| {
                let mut entries = [G1Affine::identity(); FIXED_BASE_DIGITS];
                entries.copy_from_slice(row);
                entries
            })
            .collect();
        FixedBase { table }
    }

    /// Computes `k · P` using the precomputed table.
    pub fn mul(&self, k: &Fr) -> G1 {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::G1Mul);
        let limbs = k.to_uint().limbs;
        let mut acc = G1::identity();
        let mut carry = 0;
        for (w, row) in self.table.iter().enumerate() {
            // k < r < 2^160, so the last window holds only the carry.
            let nibble = (limbs[w / 16] >> (4 * (w % 16))) & 0xf;
            let digit = nibble as usize + carry;
            carry = usize::from(digit > FIXED_BASE_DIGITS);
            if carry == 1 {
                // digit − 16 ∈ [−7, 0], plus 16 carried into window w + 1.
                if digit < 16 {
                    acc = acc.add_mixed(&row[16 - digit - 1].neg());
                }
            } else if digit != 0 {
                acc = acc.add_mixed(&row[digit - 1]);
            }
        }
        acc
    }
}

/// Per-key [`FixedBase`] tables of long-lived points, kept across calls.
///
/// Each key counts the uses of its current point; its table is built
/// at the [`FIXED_BASE_BREAK_EVEN`]-th use of one point and serves only
/// that exact point, so a different point (a new key version) restarts
/// the count. Holders drop the keys whose points they know changed
/// ([`FixedBaseCache::retain`]), which bounds the cache to one table per
/// current key. Building draws no randomness and counts no operation.
#[derive(Clone, Debug)]
pub struct FixedBaseCache<K> {
    entries: BTreeMap<K, CachedBase>,
}

/// One key's point, its use count and, past the break-even, its table.
#[derive(Clone, Debug)]
struct CachedBase {
    point: G1Affine,
    uses: usize,
    table: Option<FixedBase>,
}

impl<K> Default for FixedBaseCache<K> {
    fn default() -> Self {
        FixedBaseCache {
            entries: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone> FixedBaseCache<K> {
    /// Counts one use of `point` under `key`, building its table at the
    /// [`FIXED_BASE_BREAK_EVEN`]-th use of that point.
    pub fn count_use(&mut self, key: &K, point: &G1Affine) {
        let entry = match self.entries.get_mut(key) {
            Some(entry) if entry.point == *point => entry,
            _ => {
                let fresh = CachedBase {
                    point: *point,
                    uses: 0,
                    table: None,
                };
                self.entries.insert(key.clone(), fresh);
                self.entries.get_mut(key).expect("just inserted")
            }
        };
        entry.uses += 1;
        if entry.uses == FIXED_BASE_BREAK_EVEN {
            entry.table = Some(FixedBase::new(&G1::from(entry.point)));
        }
    }

    /// `key`'s table, if one was built from exactly `point`.
    pub fn get(&self, key: &K, point: &G1Affine) -> Option<&FixedBase> {
        self.entries
            .get(key)
            .filter(|entry| entry.point == *point)
            .and_then(|entry| entry.table.as_ref())
    }

    /// Keeps only the keys for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.entries.retain(|key, _| keep(key));
    }

    /// How many tables are built.
    pub fn tables(&self) -> usize {
        self.entries.values().filter(|e| e.table.is_some()).count()
    }
}

/// `k · g` for the group generator via a process-wide precomputed table.
///
/// Roughly 6× faster than [`G1::mul`] on the generator; used by every
/// hot path that exponentiates `g`.
pub fn generator_mul(k: &Fr) -> G1 {
    static TABLE: OnceLock<FixedBase> = OnceLock::new();
    TABLE
        .get_or_init(|| FixedBase::new(&G1::generator()))
        .mul(k)
}

/// Width-4 signed windowed NAF digits (least-significant first), each in
/// `{0, ±1, ±3, ±5, ±7}` with no two adjacent nonzero digits.
pub(crate) fn wnaf_digits(mut x: crate::uint::Uint<3>) -> Vec<i8> {
    const WINDOW: u64 = 16; // 2^4
    let mut digits = Vec::with_capacity(168);
    while !x.is_zero() {
        if x.is_odd() {
            let low = x.limbs[0] & (WINDOW - 1);
            let d: i64 = if low >= WINDOW / 2 {
                low as i64 - WINDOW as i64
            } else {
                low as i64
            };
            if d >= 0 {
                x = x.sbb(crate::uint::Uint::from_u64(d as u64)).0;
            } else {
                // x + |d| cannot overflow 192 bits (x < 2^160).
                x = x.adc(crate::uint::Uint::from_u64((-d) as u64)).0;
            }
            digits.push(d as i8);
        } else {
            digits.push(0);
        }
        x = x.shr1();
    }
    digits
}

/// Converts a batch of projective points to affine with a single field
/// inversion (Montgomery's trick). Identity points map to the affine
/// identity; a batch of nothing else (an empty one included) needs no
/// inversion.
pub fn batch_normalize(points: &[G1]) -> Vec<G1Affine> {
    if points.iter().all(G1::is_identity) {
        return vec![G1Affine::identity(); points.len()];
    }
    // Prefix products of the non-zero Z coordinates.
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = Fq::one();
    for p in points {
        prefix.push(acc);
        if !p.is_identity() {
            acc = acc.mul(&p.z);
        }
    }
    // acc is a product of nonzero Z coordinates (or one), hence nonzero.
    let mut inv = acc.invert().expect("product of nonzero field elements");
    let mut out = vec![G1Affine::identity(); points.len()];
    for (i, p) in points.iter().enumerate().rev() {
        if p.is_identity() {
            continue;
        }
        let zinv = inv.mul(&prefix[i]);
        inv = inv.mul(&p.z);
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        out[i] = G1Affine {
            x: p.x.mul(&zinv2),
            y: p.y.mul(&zinv3),
            infinity: false,
        };
    }
    out
}

/// Hashes an arbitrary byte string onto the order-`r` subgroup
/// (try-and-increment, then cofactor clearing).
///
/// This is the random oracle `H : {0,1}* → G` required by the
/// Lewko–Waters baseline and by key derivation; deterministic in `msg`.
pub fn hash_to_curve(msg: &[u8]) -> G1Affine {
    mabe_telemetry::record(mabe_telemetry::CryptoOp::HashToCurve);
    let mut ctr = 0u32;
    loop {
        let mut input = Vec::with_capacity(msg.len() + 4);
        input.extend_from_slice(&ctr.to_be_bytes());
        input.extend_from_slice(msg);
        let wide = sha256::digest_wide(TAG_H2C, &input);
        let x = Fq::from_be_bytes_reduce(&wide);
        let rhs = x.square().mul(&x).add(&x);
        if let Some(mut y) = rhs.sqrt() {
            // Use one hash bit to pick the sign of y.
            if (wide[0] & 1 == 1) != y.is_odd() {
                y = y.neg();
            }
            let p = G1 { x, y, z: Fq::one() };
            let cleared = p.mul_by_limbs(&params::H.limbs);
            if !cleared.is_identity() {
                return G1Affine::from(cleared);
            }
        }
        ctr += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn generator_on_curve_and_torsion_free() {
        let g = G1Affine::generator();
        assert!(!g.is_identity());
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
    }

    #[test]
    fn generator_has_order_r() {
        let g = G1::generator();
        assert!(g.mul_by_limbs(&params::R.limbs).is_identity());
        // Not of smaller order: r is prime, so any nontrivial point works.
        assert!(!g.mul(&Fr::from_u64(2)).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let g = G1::generator();
        assert_eq!(g.double(), g.add(&g));
        assert_eq!(g.double().double(), g.mul(&Fr::from_u64(4)));
    }

    #[test]
    fn add_identity_laws() {
        let g = G1::generator();
        let id = G1::identity();
        assert_eq!(g.add(&id), g);
        assert_eq!(id.add(&g), g);
        assert_eq!(id.add(&id), id);
        assert_eq!(g.add(&g.neg()), id);
    }

    #[test]
    fn mixed_add_matches_full_add() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G1::random(&mut r);
        let q_affine = G1Affine::from(q);
        assert_eq!(p.add_mixed(&q_affine), p.add(&q));
        // Mixed-add doubling branch.
        let p_affine = G1Affine::from(p);
        assert_eq!(p.add_mixed(&p_affine), p.double());
        // Mixed-add inverse branch.
        assert_eq!(p.add_mixed(&p_affine.neg()), G1::identity());
    }

    #[test]
    fn scalar_mul_linear() {
        let g = G1::generator();
        let a = Fr::from_u64(12);
        let b = Fr::from_u64(30);
        assert_eq!(g.mul(&a).add(&g.mul(&b)), g.mul(&a.add(&b)));
        assert_eq!(g.mul(&a).mul(&b), g.mul(&a.mul(&b)));
    }

    #[test]
    fn scalar_mul_zero_and_one() {
        let g = G1::generator();
        assert!(g.mul(&Fr::zero()).is_identity());
        assert_eq!(g.mul(&Fr::one()), g);
    }

    #[test]
    fn scalar_mul_by_r_is_identity_for_random_points() {
        let mut r = rng();
        for _ in 0..3 {
            let p = G1::random(&mut r);
            assert!(p.mul_by_limbs(&params::R.limbs).is_identity());
        }
    }

    #[test]
    fn associativity_random() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G1::random(&mut r);
        let s = G1::random(&mut r);
        assert_eq!(p.add(&q).add(&s), p.add(&q.add(&s)));
    }

    #[test]
    fn commutativity_random() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G1::random(&mut r);
        assert_eq!(p.add(&q), q.add(&p));
    }

    #[test]
    fn affine_roundtrip() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let a = G1Affine::from(p);
        assert!(a.is_on_curve());
        assert_eq!(G1::from(a), p);
    }

    #[test]
    fn hash_to_curve_deterministic_and_distinct() {
        let p1 = hash_to_curve(b"alice");
        let p2 = hash_to_curve(b"alice");
        let p3 = hash_to_curve(b"bob");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(p1.is_on_curve());
        assert!(p1.is_torsion_free());
    }

    #[test]
    fn curve_order_structure() {
        // #E(F_q) = q + 1 for the supersingular curve: a random curve
        // point (pre-cofactor-clearing) times q+1 must be the identity.
        // Construct one via the hash-to-curve x-search without clearing.
        let mut ctr = 0u32;
        let point = loop {
            let wide = mabe_crypto::sha256::digest_wide(0x55, &ctr.to_be_bytes());
            let x = Fq::from_be_bytes_reduce(&wide);
            let rhs = x.square().mul(&x).add(&x);
            if let Some(y) = rhs.sqrt() {
                break G1 { x, y, z: Fq::one() };
            }
            ctr += 1;
        };
        // q + 1 = h · r: multiply by h then by r.
        let cleared = point.mul_by_limbs(&params::H.limbs);
        assert!(cleared.mul_by_limbs(&params::R.limbs).is_identity());
    }

    #[test]
    fn off_curve_points_rejected_by_from_bytes() {
        // An x with no valid y (QNR rhs) must fail decompression.
        let mut bytes = vec![0x02u8];
        // Find an x whose rhs is a non-residue.
        let mut v = 2u64;
        loop {
            let x = Fq::from_u64(v);
            let rhs = x.square().mul(&x).add(&x);
            if rhs.sqrt().is_none() {
                bytes.extend_from_slice(&x.to_canonical_bytes());
                break;
            }
            v += 1;
        }
        assert!(G1Affine::from_bytes(&bytes).is_none());
    }

    #[test]
    fn compressed_bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let p = G1Affine::from(G1::random(&mut r));
            let bytes = p.to_bytes();
            assert_eq!(bytes.len(), 65);
            assert_eq!(G1Affine::from_bytes(&bytes), Some(p));
        }
        // Identity.
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_bytes(&id.to_bytes()), Some(id));
        // Garbage flag.
        let mut bad = G1Affine::generator().to_bytes();
        bad[0] = 0x07;
        assert!(G1Affine::from_bytes(&bad).is_none());
        // Wrong length.
        assert!(G1Affine::from_bytes(&[0u8; 64]).is_none());
    }

    #[test]
    fn negation_roundtrip_bytes() {
        let g = G1Affine::generator();
        let n = g.neg();
        assert_ne!(g.to_bytes(), n.to_bytes());
        assert_eq!(G1Affine::from_bytes(&n.to_bytes()), Some(n));
    }

    #[test]
    fn wnaf_matches_binary() {
        let mut r = rng();
        let p = G1::random(&mut r);
        for _ in 0..10 {
            let k = Fr::random(&mut r);
            assert_eq!(p.mul_wnaf(&k), p.mul_binary(&k));
        }
        assert!(p.mul_wnaf(&Fr::zero()).is_identity());
        assert_eq!(p.mul_wnaf(&Fr::one()), p);
        assert_eq!(p.mul_wnaf(&Fr::from_u64(7)), p.mul_binary(&Fr::from_u64(7)));
        // Negative digits: 2^k - small values exercise the signed path.
        let k = Fr::zero().sub(&Fr::from_u64(3)); // r - 3
        assert_eq!(p.mul_wnaf(&k), p.mul_binary(&k));
    }

    #[test]
    fn wnaf_digit_structure() {
        let digits = super::wnaf_digits(crate::uint::Uint::from_u64(0b10111));
        // Reconstruct the value from the digits.
        let mut value: i128 = 0;
        for &d in digits.iter().rev() {
            value = value * 2 + d as i128;
        }
        assert_eq!(value, 0b10111);
        // No two adjacent nonzero digits; all digits odd or zero, |d| < 8.
        for w in digits.windows(2) {
            assert!(w[0] == 0 || w[1] == 0, "adjacent nonzero digits");
        }
        for &d in &digits {
            assert!(d == 0 || (d % 2 != 0 && d.abs() < 8));
        }
    }

    /// Scalars at the signed recoding's edges: 0, 1, the carry
    /// boundaries 8, 9, 15 and 16, `16^k ± 8` for every window, runs of
    /// 8s (no carry) and 9s (a carry through every window), `r − 8` and
    /// `r − 1`.
    fn recoding_edges() -> Vec<Fr> {
        let mut out: Vec<Fr> = [0, 1, 8, 9, 15, 16, 17, 0x88, 0x89, 0xff, 0x100]
            .into_iter()
            .map(Fr::from_u64)
            .collect();
        let (eight, sixteen) = (Fr::from_u64(8), Fr::from_u64(16));
        let mut power = Fr::one();
        for _ in 1..=FIXED_BASE_WINDOWS {
            power = power.mul(&sixteen);
            out.push(power.sub(&eight));
            out.push(power.add(&eight));
        }
        for nibble in [8, 9] {
            let mut run = Fr::zero();
            for _ in 0..39 {
                run = run.mul(&sixteen).add(&Fr::from_u64(nibble));
                out.push(run);
            }
        }
        out.push(Fr::zero().sub(&eight)); // r − 8
        out.push(Fr::zero().sub(&Fr::one())); // r − 1
        out
    }

    #[test]
    fn fixed_base_matches_generic_mul() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let fb = FixedBase::new(&p);
        for k in recoding_edges() {
            assert_eq!(fb.mul(&k), p.mul(&k), "k = {k:?}");
        }
        for _ in 0..8 {
            let k = Fr::random(&mut r);
            assert_eq!(fb.mul(&k), p.mul(&k));
        }
        assert!(fb.mul(&Fr::zero()).is_identity());
        assert_eq!(fb.mul(&Fr::one()), p);
        assert!(FixedBase::new(&G1::identity())
            .mul(&Fr::from_u64(9))
            .is_identity());
    }

    #[test]
    fn fixed_base_table_is_41_windows_of_8() {
        let fb = FixedBase::new(&G1::generator());
        assert_eq!(fb.table.len(), FIXED_BASE_WINDOWS);
        assert!(fb.table.iter().all(|row| row.len() == FIXED_BASE_DIGITS));
        let (built, ops) = mabe_telemetry::measure(|| FixedBase::new(&G1::generator()));
        assert_eq!(ops.g1_muls, 0, "building counts no multiplication");
        let (_, ops) = mabe_telemetry::measure(|| built.mul(&Fr::from_u64(5)));
        assert_eq!(ops.g1_muls, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn fixed_base_matches_mul_on_a_key_ratio(seed in proptest::prelude::any::<u64>()) {
            // The base a revocation preprocesses: PK_x · P̃K_x⁻¹.
            let mut r = StdRng::seed_from_u64(seed);
            let (old, new) = (G1::random(&mut r), G1::random(&mut r));
            let ratio = old.add(&new.neg());
            let table = FixedBase::new(&ratio);
            let top = Fr::zero().sub(&Fr::one()); // r − 1
            for k in [Fr::zero(), Fr::one(), top, Fr::random(&mut r)] {
                proptest::prop_assert_eq!(table.mul(&k), ratio.mul(&k));
            }
        }

        #[test]
        fn signed_fixed_base_matches_mul(seed in proptest::prelude::any::<u64>()) {
            // A random base (a publish's PK_x), every recoding edge and
            // a random scalar.
            let mut r = StdRng::seed_from_u64(seed);
            let p = G1::random(&mut r);
            let table = FixedBase::new(&p);
            let mut scalars = recoding_edges();
            scalars.push(Fr::random(&mut r));
            for k in scalars {
                proptest::prop_assert_eq!(table.mul(&k), p.mul(&k));
            }
        }
    }

    #[test]
    fn cache_builds_at_the_break_even_for_one_exact_point() {
        let mut r = rng();
        let (p, q) = (
            G1Affine::from(G1::random(&mut r)),
            G1Affine::from(G1::random(&mut r)),
        );
        let mut cache = FixedBaseCache::default();
        for _ in 1..FIXED_BASE_BREAK_EVEN {
            cache.count_use(&"x", &p);
            assert!(cache.get(&"x", &p).is_none());
        }
        cache.count_use(&"x", &p);
        let table = cache.get(&"x", &p).expect("built at the break-even");
        let k = Fr::random(&mut r);
        assert_eq!(table.mul(&k), G1::from(p).mul(&k));
        assert!(cache.get(&"x", &q).is_none(), "another point misses");
        assert!(cache.get(&"y", &p).is_none(), "another key misses");
        assert_eq!(cache.tables(), 1);
        // A new point under the key restarts its count.
        cache.count_use(&"x", &q);
        assert!(cache.get(&"x", &p).is_none() && cache.get(&"x", &q).is_none());
        assert_eq!(cache.tables(), 0);
        for _ in 1..FIXED_BASE_BREAK_EVEN {
            cache.count_use(&"x", &q);
        }
        assert!(cache.get(&"x", &q).is_some());
        cache.retain(|key| *key != "x");
        assert_eq!(cache.tables(), 0);
    }

    #[test]
    fn generator_mul_matches() {
        let mut r = rng();
        for _ in 0..5 {
            let k = Fr::random(&mut r);
            assert_eq!(generator_mul(&k), G1::generator().mul(&k));
        }
    }

    #[test]
    fn batch_normalize_matches_individual() {
        let mut r = rng();
        let points: Vec<G1> = (0..5).map(|_| G1::random(&mut r)).collect();
        let batch = batch_normalize(&points);
        for (p, a) in points.iter().zip(batch.iter()) {
            assert_eq!(G1Affine::from(*p), *a);
        }
    }

    #[test]
    fn batch_normalize_handles_identities() {
        let mut r = rng();
        let points = vec![
            G1::identity(),
            G1::random(&mut r),
            G1::identity(),
            G1::random(&mut r),
            G1::identity(),
        ];
        let batch = batch_normalize(&points);
        assert!(batch[0].is_identity());
        assert!(batch[2].is_identity());
        assert!(batch[4].is_identity());
        assert_eq!(batch[1], G1Affine::from(points[1]));
        assert_eq!(batch[3], G1Affine::from(points[3]));
        // All-identity and empty inputs.
        assert!(batch_normalize(&[G1::identity()])[0].is_identity());
        assert!(batch_normalize(&[]).is_empty());
    }

    #[test]
    fn doubling_point_with_y_zero_is_identity() {
        // y = 0 points are 2-torsion; our subgroup has odd order so we
        // construct one directly on the curve: y² = x³+x with y=0 ⇒ x=0.
        let two_torsion = G1 {
            x: Fq::zero(),
            y: Fq::zero(),
            z: Fq::one(),
        };
        assert!(two_torsion.double().is_identity());
    }
}
