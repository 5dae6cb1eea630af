//! Generic Montgomery-form prime fields and the two concrete fields of the
//! pairing group: the 512-bit base field [`Fq`] and the 160-bit scalar
//! field [`Fr`] (the paper's `Z_p`).
//!
//! Elements are stored in Montgomery form (`x · R mod m`, `R = 2^{64L}`)
//! and multiplied with the CIOS algorithm. Inversion is a binary extended
//! Euclid on the Montgomery representative, about eight times faster than
//! Fermat's `x^{m−2}` at 512 bits; Fermat stays as the test oracle. The
//! implementation favours speed and clarity over constant-time guarantees
//! (the binary Euclid branches on its input); this is a research
//! reproduction, not a hardened library (documented in the crate root).

use core::marker::PhantomData;

use rand::RngCore;

use crate::uint::{adc, mac, Uint, MAX_LIMBS};

/// Compile-time computation of `-m^{-1} mod 2^64` (requires odd `m0`).
pub const fn mont_inv64(m0: u64) -> u64 {
    // Newton–Raphson inversion modulo 2^64: five iterations double the
    // number of correct bits from the initial 1-bit approximation.
    let mut x: u64 = 1;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}

/// Compile-time computation of `2^doublings mod modulus`.
pub const fn pow2_mod<const L: usize>(modulus: &Uint<L>, doublings: usize) -> Uint<L> {
    let mut acc = Uint::<L>::one();
    let mut i = 0;
    while i < doublings {
        acc = acc.mod_double(modulus);
        i += 1;
    }
    acc
}

/// Static description of a prime field; implemented by zero-sized marker
/// types ([`FqParams`], [`FrParams`]).
pub trait FieldParams<const L: usize>:
    Copy + Clone + core::fmt::Debug + PartialEq + Eq + Send + Sync + 'static
{
    /// The field modulus (an odd prime).
    const MODULUS: Uint<L>;
    /// Bit length of the modulus.
    const NUM_BITS: usize;
    /// Short human-readable name used in `Debug` output.
    const NAME: &'static str;
    /// `-MODULUS^{-1} mod 2^64`.
    const INV: u64 = mont_inv64(Self::MODULUS.limbs[0]);
    /// `R mod MODULUS` (the Montgomery form of 1).
    const R1: Uint<L> = pow2_mod(&Self::MODULUS, 64 * L);
    /// `R² mod MODULUS` (conversion constant into Montgomery form).
    const R2: Uint<L> = pow2_mod(&Self::MODULUS, 128 * L);
    /// `R³ mod MODULUS` (turns a plain inverse of a Montgomery
    /// representative back into Montgomery form).
    const R3: Uint<L> = pow2_mod(&Self::MODULUS, 192 * L);
    /// `MODULUS - 2` (the Fermat exponent; Fermat inversion is the test
    /// oracle of [`FieldElement::invert`]).
    const MODULUS_MINUS_2: Uint<L> = Self::MODULUS.sbb(Uint::from_u64(2)).0;
}

/// `x / 2 mod m` for odd `m` and `x < m`: an odd `x` becomes even by
/// adding `m`, and the carry out of that sum is the shifted-in top bit.
fn half_mod<const L: usize>(x: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    if !x.is_odd() {
        return x.shr1();
    }
    let (sum, carry) = x.adc(*m);
    let mut half = sum.shr1();
    half.limbs[L - 1] |= carry << 63;
    half
}

/// `a - b mod m` for `a, b < m`.
fn sub_mod<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let (diff, borrow) = a.sbb(*b);
    if borrow == 1 {
        diff.adc(*m).0
    } else {
        diff
    }
}

/// `a⁻¹ mod m` for an odd prime `m` and `0 < a < m`, by the binary
/// extended Euclidean algorithm (variable time). It keeps `x1·a ≡ u`
/// and `x2·a ≡ v (mod m)` while halving and subtracting `u` and `v`
/// down to `gcd(a, m) = 1`; every step is a shift or a subtraction, so
/// a 512-bit inverse costs about as much as a hundred multiplications
/// instead of Fermat's ~870.
fn binary_inverse<const L: usize>(a: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let one = Uint::<L>::one();
    let (mut u, mut v) = (*a, *m);
    let (mut x1, mut x2) = (one, Uint::<L>::ZERO);
    while u != one && v != one {
        while !u.is_odd() {
            u = u.shr1();
            x1 = half_mod(&x1, m);
        }
        while !v.is_odd() {
            v = v.shr1();
            x2 = half_mod(&x2, m);
        }
        if u.lt(&v) {
            v = v.sbb(u).0;
            x2 = sub_mod(&x2, &x1, m);
        } else {
            u = u.sbb(v).0;
            x1 = sub_mod(&x1, &x2, m);
        }
    }
    if u == one {
        x1
    } else {
        x2
    }
}

/// CIOS Montgomery multiplication: returns `a · b · R^{-1} mod m`.
#[allow(clippy::needless_range_loop)] // limb indices track the CIOS schedule
fn mont_mul<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>, inv: u64) -> Uint<L> {
    debug_assert!(L <= MAX_LIMBS);
    let mut t = [0u64; MAX_LIMBS + 2];
    for i in 0..L {
        // t += a * b[i]
        let mut carry = 0u64;
        for j in 0..L {
            let (lo, hi) = mac(t[j], a.limbs[j], b.limbs[i], carry);
            t[j] = lo;
            carry = hi;
        }
        let (lo, hi) = adc(t[L], carry, 0);
        t[L] = lo;
        t[L + 1] += hi;

        // Reduce one limb: t += k * m, then shift right by one limb.
        let k = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], k, m.limbs[0], 0);
        for j in 1..L {
            let (lo, hi) = mac(t[j], k, m.limbs[j], carry);
            t[j - 1] = lo;
            carry = hi;
        }
        let (lo, hi) = adc(t[L], carry, 0);
        t[L - 1] = lo;
        t[L] = t[L + 1] + hi;
        t[L + 1] = 0;
    }
    let mut out = Uint::<L>::ZERO;
    out.limbs.copy_from_slice(&t[..L]);
    let (red, borrow) = out.sbb(*m);
    if t[L] != 0 || borrow == 0 {
        red
    } else {
        out
    }
}

/// Montgomery reduction of a double-width product (SOS method):
/// returns `t / R mod m` for `t < m · R`.
fn mont_reduce_wide<const L: usize>(t: &mut [u64], m: &Uint<L>, inv: u64) -> Uint<L> {
    debug_assert!(t.len() >= 2 * L);
    let mut carry2 = 0u64;
    for i in 0..L {
        let k = t[i].wrapping_mul(inv);
        let mut carry = 0u64;
        for j in 0..L {
            let (lo, hi) = mac(t[i + j], k, m.limbs[j], carry);
            t[i + j] = lo;
            carry = hi;
        }
        let (lo, hi) = adc(t[i + L], carry2, carry);
        t[i + L] = lo;
        carry2 = hi;
    }
    let mut out = Uint::<L>::ZERO;
    out.limbs.copy_from_slice(&t[L..2 * L]);
    let (red, borrow) = out.sbb(*m);
    if carry2 != 0 || borrow == 0 {
        red
    } else {
        out
    }
}

/// Double-width squaring (cross products doubled + diagonal), feeding
/// [`mont_reduce_wide`]. ~25% cheaper than a generic multiplication.
fn mont_square<const L: usize>(a: &Uint<L>, m: &Uint<L>, inv: u64) -> Uint<L> {
    debug_assert!(L <= MAX_LIMBS);
    let mut t = [0u64; 2 * MAX_LIMBS];
    // Off-diagonal products a_i · a_j for i < j.
    for i in 0..L.saturating_sub(1) {
        let mut carry = 0u64;
        for j in i + 1..L {
            let (lo, hi) = mac(t[i + j], a.limbs[i], a.limbs[j], carry);
            t[i + j] = lo;
            carry = hi;
        }
        t[i + L] = carry;
    }
    // Double them (shift left one bit across 2L limbs).
    let mut prev = 0u64;
    for limb in t.iter_mut().take(2 * L) {
        let new_prev = *limb >> 63;
        *limb = (*limb << 1) | prev;
        prev = new_prev;
    }
    // Add the diagonal a_i².
    let mut carry = 0u64;
    for i in 0..L {
        let (lo, hi) = mac(t[2 * i], a.limbs[i], a.limbs[i], carry);
        t[2 * i] = lo;
        let (lo2, hi2) = adc(t[2 * i + 1], hi, 0);
        t[2 * i + 1] = lo2;
        carry = hi2;
    }
    debug_assert_eq!(carry, 0, "square of reduced value fits 2L limbs");
    mont_reduce_wide(&mut t[..2 * L], m, inv)
}

/// An element of the prime field described by `P`, in Montgomery form.
pub struct FieldElement<P: FieldParams<L>, const L: usize> {
    repr: Uint<L>,
    _params: PhantomData<P>,
}

impl<P: FieldParams<L>, const L: usize> Clone for FieldElement<P, L> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FieldParams<L>, const L: usize> Copy for FieldElement<P, L> {}
impl<P: FieldParams<L>, const L: usize> PartialEq for FieldElement<P, L> {
    fn eq(&self, other: &Self) -> bool {
        self.repr == other.repr
    }
}
impl<P: FieldParams<L>, const L: usize> Eq for FieldElement<P, L> {}
impl<P: FieldParams<L>, const L: usize> core::hash::Hash for FieldElement<P, L> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.repr.hash(state);
    }
}
impl<P: FieldParams<L>, const L: usize> Default for FieldElement<P, L> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<P: FieldParams<L>, const L: usize> core::fmt::Debug for FieldElement<P, L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}({:?})", P::NAME, self.to_uint())
    }
}

impl<P: FieldParams<L>, const L: usize> core::fmt::Display for FieldElement<P, L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self, f)
    }
}

impl<P: FieldParams<L>, const L: usize> FieldElement<P, L> {
    /// The additive identity.
    pub fn zero() -> Self {
        FieldElement {
            repr: Uint::ZERO,
            _params: PhantomData,
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        FieldElement {
            repr: P::R1,
            _params: PhantomData,
        }
    }

    /// Embeds a small integer.
    pub fn from_u64(v: u64) -> Self {
        Self::from_uint(&Uint::from_u64(v))
    }

    /// Converts a canonical integer (`< MODULUS`) into the field.
    ///
    /// # Panics
    ///
    /// Panics if `v >= MODULUS`.
    pub fn from_uint(v: &Uint<L>) -> Self {
        assert!(v.lt(&P::MODULUS), "value out of field range");
        FieldElement {
            repr: mont_mul(v, &P::R2, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }

    /// Returns the canonical (non-Montgomery) integer representation.
    pub fn to_uint(&self) -> Uint<L> {
        mont_mul(&self.repr, &Uint::one(), &P::MODULUS, P::INV)
    }

    /// `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.repr.is_zero()
    }

    /// Field addition.
    pub fn add(&self, rhs: &Self) -> Self {
        FieldElement {
            repr: self.repr.mod_add(rhs.repr, &P::MODULUS),
            _params: PhantomData,
        }
    }

    /// Field subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        let (diff, borrow) = self.repr.sbb(rhs.repr);
        let repr = if borrow == 1 {
            diff.adc(P::MODULUS).0
        } else {
            diff
        };
        FieldElement {
            repr,
            _params: PhantomData,
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            *self
        } else {
            let (repr, _) = P::MODULUS.sbb(self.repr);
            FieldElement {
                repr,
                _params: PhantomData,
            }
        }
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Self) -> Self {
        FieldElement {
            repr: mont_mul(&self.repr, &rhs.repr, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }

    /// Squaring (dedicated SOS routine, faster than `mul(self, self)`).
    pub fn square(&self) -> Self {
        FieldElement {
            repr: mont_square(&self.repr, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Variable-time exponentiation by a little-endian limb slice.
    pub fn pow_vartime(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        let mut started = false;
        for i in (0..exp.len() * 64).rev() {
            if started {
                res = res.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                res = res.mul(self);
                started = true;
            }
        }
        res
    }

    /// Multiplicative inverse by a variable-time binary extended Euclid;
    /// `None` for zero.
    ///
    /// The Euclid inverts the Montgomery representative `x·R`, giving
    /// `x⁻¹·R⁻¹`; one Montgomery multiplication by `R³` turns that into
    /// `x⁻¹·R`, the representative of `x⁻¹`.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let inv = binary_inverse(&self.repr, &P::MODULUS);
        Some(FieldElement {
            repr: mont_mul(&inv, &P::R3, &P::MODULUS, P::INV),
            _params: PhantomData,
        })
    }

    /// Fermat inversion `x^{m−2}`, the kernel [`Self::invert`] replaced,
    /// kept as its test oracle.
    #[cfg(test)]
    pub(crate) fn invert_fermat(&self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow_vartime(&P::MODULUS_MINUS_2.limbs))
        }
    }

    /// `self / 2`. The Montgomery representative halves with the value,
    /// so this is a shift, after adding the modulus to an odd one.
    pub(crate) fn halve(&self) -> Self {
        FieldElement {
            repr: half_mod(&self.repr, &P::MODULUS),
            _params: PhantomData,
        }
    }

    /// Uniformly random field element.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let top_mask = if P::NUM_BITS % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (P::NUM_BITS % 64)) - 1
        };
        loop {
            let mut limbs = [0u64; L];
            for limb in limbs.iter_mut() {
                *limb = rng.next_u64();
            }
            let top_limb = P::NUM_BITS.div_ceil(64) - 1;
            limbs[top_limb] &= top_mask;
            for limb in limbs.iter_mut().skip(top_limb + 1) {
                *limb = 0;
            }
            let candidate = Uint { limbs };
            if candidate.lt(&P::MODULUS) {
                return Self::from_uint(&candidate);
            }
        }
    }

    /// Reduces an arbitrary-length big-endian byte string into the field
    /// (Horner's rule, modular).
    ///
    /// With input at least `NUM_BITS + 128` bits long the reduction bias is
    /// negligible; the workspace's random oracles feed 512 bits.
    pub fn from_be_bytes_reduce(bytes: &[u8]) -> Self {
        let mut acc = Uint::<L>::ZERO;
        for &b in bytes {
            // acc = acc * 256 + b (mod MODULUS)
            for _ in 0..8 {
                acc = acc.mod_double(&P::MODULUS);
            }
            acc = acc.mod_add(Uint::from_u64(b as u64), &P::MODULUS);
        }
        Self::from_uint(&acc)
    }

    /// Canonical big-endian encoding (`8 · L` bytes).
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        self.to_uint().to_be_bytes()
    }

    /// Parses a canonical big-endian encoding; `None` if out of range or
    /// wrong length.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 * L {
            return None;
        }
        let v = Uint::<L>::from_be_bytes(bytes);
        if v.lt(&P::MODULUS) {
            Some(Self::from_uint(&v))
        } else {
            None
        }
    }

    /// `true` if the canonical representation is odd (used as the
    /// compressed-point sign bit).
    pub fn is_odd(&self) -> bool {
        self.to_uint().is_odd()
    }
}

macro_rules! impl_field_ops {
    ($($t:tt)*) => {
        impl<P: FieldParams<L>, const L: usize> core::ops::Add for FieldElement<P, L> {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                FieldElement::add(&self, &rhs)
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::Sub for FieldElement<P, L> {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                FieldElement::sub(&self, &rhs)
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::Mul for FieldElement<P, L> {
            type Output = Self;
            fn mul(self, rhs: Self) -> Self {
                FieldElement::mul(&self, &rhs)
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::Neg for FieldElement<P, L> {
            type Output = Self;
            fn neg(self) -> Self {
                FieldElement::neg(&self)
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::AddAssign for FieldElement<P, L> {
            fn add_assign(&mut self, rhs: Self) {
                *self = FieldElement::add(self, &rhs);
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::SubAssign for FieldElement<P, L> {
            fn sub_assign(&mut self, rhs: Self) {
                *self = FieldElement::sub(self, &rhs);
            }
        }
        impl<P: FieldParams<L>, const L: usize> core::ops::MulAssign for FieldElement<P, L> {
            fn mul_assign(&mut self, rhs: Self) {
                *self = FieldElement::mul(self, &rhs);
            }
        }
    };
}
impl_field_ops!();

/// Marker for the 512-bit base field `F_q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FqParams;

impl FieldParams<8> for FqParams {
    const MODULUS: Uint<8> = crate::params::Q;
    const NUM_BITS: usize = 512;
    const NAME: &'static str = "Fq";
}

/// Marker for the 160-bit scalar field `F_r` (the paper's `Z_p`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrParams;

impl FieldParams<3> for FrParams {
    const MODULUS: Uint<3> = crate::params::R;
    const NUM_BITS: usize = 160;
    const NAME: &'static str = "Fr";
}

/// The base field of the curve (512-bit).
pub type Fq = FieldElement<FqParams, 8>;

/// The scalar field — exponents of `G` and `G_T` (160-bit).
pub type Fr = FieldElement<FrParams, 3>;

impl Fq {
    /// `(q + 1) / 4`, the square-root exponent for `q ≡ 3 (mod 4)`.
    const SQRT_EXP: Uint<8> = {
        let (sum, carry) = crate::params::Q.adc(Uint::one());
        assert!(carry == 0);
        // Divide by 4: shift right two bits across limbs.
        let mut out = [0u64; 8];
        let mut i = 0;
        while i < 8 {
            let hi = if i + 1 < 8 { sum.limbs[i + 1] } else { 0 };
            out[i] = (sum.limbs[i] >> 2) | (hi << 62);
            i += 1;
        }
        Uint { limbs: out }
    };

    /// Square root for `q ≡ 3 (mod 4)`: `x^{(q+1)/4}`.
    ///
    /// Returns `None` if `self` is a quadratic non-residue.
    pub fn sqrt(&self) -> Option<Self> {
        let candidate = self.pow_vartime(&Self::SQRT_EXP.limbs);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn montgomery_constants_consistency() {
        // INV * MODULUS ≡ -1 (mod 2^64)
        assert_eq!(
            FqParams::INV.wrapping_mul(crate::params::Q.limbs[0]),
            u64::MAX
        );
        assert_eq!(
            FrParams::INV.wrapping_mul(crate::params::R.limbs[0]),
            u64::MAX
        );
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Fq::one().mul(&Fq::one()), Fq::one());
        assert_eq!(Fr::one().mul(&Fr::one()), Fr::one());
    }

    #[test]
    fn small_integer_arithmetic() {
        let a = Fr::from_u64(12345);
        let b = Fr::from_u64(67890);
        assert_eq!(a.add(&b), Fr::from_u64(12345 + 67890));
        assert_eq!(b.sub(&a), Fr::from_u64(67890 - 12345));
        assert_eq!(a.mul(&b), Fr::from_u64(12345 * 67890));
        assert_eq!(a.square(), Fr::from_u64(12345 * 12345));
        assert_eq!(a.double(), Fr::from_u64(24690));
    }

    #[test]
    fn dedicated_square_matches_mul() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Fq::random(&mut r);
            assert_eq!(a.square(), a.mul(&a));
            let b = Fr::random(&mut r);
            assert_eq!(b.square(), b.mul(&b));
        }
        assert_eq!(Fq::zero().square(), Fq::zero());
        assert_eq!(Fq::one().square(), Fq::one());
        // Values with extreme limbs (q - 1: squares to 1).
        let minus_one = Fq::one().neg();
        assert_eq!(minus_one.square(), Fq::one());
        let minus_one_r = Fr::one().neg();
        assert_eq!(minus_one_r.square(), Fr::one());
    }

    #[test]
    fn to_uint_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fq::random(&mut r);
            assert_eq!(Fq::from_uint(&a.to_uint()), a);
            let b = Fr::random(&mut r);
            assert_eq!(Fr::from_uint(&b.to_uint()), b);
        }
    }

    #[test]
    fn additive_inverse() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fq::random(&mut r);
            assert!(a.add(&a.neg()).is_zero());
        }
        assert!(Fq::zero().neg().is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn binary_inverse_matches_fermat(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let a = Fq::random(&mut r);
            let b = Fr::random(&mut r);
            prop_assert_eq!(a.invert(), a.invert_fermat());
            prop_assert_eq!(b.invert(), b.invert_fermat());
        }
    }

    /// Elements with a chosen Montgomery representative, which is what
    /// the binary Euclid actually sees.
    fn with_repr<P: FieldParams<L>, const L: usize>(repr: Uint<L>) -> FieldElement<P, L> {
        FieldElement {
            repr,
            _params: PhantomData,
        }
    }

    fn edge_values<P: FieldParams<L>, const L: usize>() -> Vec<FieldElement<P, L>> {
        let minus_one = P::MODULUS.sbb(Uint::one()).0;
        let mut reprs = vec![Uint::one(), Uint::from_u64(2), minus_one];
        // Every power of two below the modulus (the loop stops at the
        // modulus or when doubling carries out of the top limb).
        let mut power = Uint::<L>::one();
        loop {
            reprs.push(power);
            let (next, carry) = power.adc(power);
            if carry == 1 || !next.lt(&P::MODULUS) {
                break;
            }
            power = next;
        }
        let mut values: Vec<_> = reprs.iter().map(|r| with_repr::<P, L>(*r)).collect();
        // The same integers as canonical values.
        values.extend(reprs.iter().map(FieldElement::<P, L>::from_uint));
        values
    }

    #[test]
    fn binary_inverse_matches_fermat_at_the_edges() {
        for a in edge_values::<FqParams, 8>() {
            let inv = a.invert().expect("nonzero");
            assert_eq!(Some(inv), a.invert_fermat(), "{a:?}");
            assert_eq!(a.mul(&inv), Fq::one());
        }
        for a in edge_values::<FrParams, 3>() {
            let inv = a.invert().expect("nonzero");
            assert_eq!(Some(inv), a.invert_fermat(), "{a:?}");
            assert_eq!(a.mul(&inv), Fr::one());
        }
        assert!(Fq::zero().invert().is_none());
        assert!(Fr::zero().invert().is_none());
        assert!(Fq::zero().invert_fermat().is_none());
    }

    #[test]
    fn halve_inverts_double() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fq::random(&mut r);
            assert_eq!(a.halve().double(), a);
            assert_eq!(a.double().halve(), a);
        }
        let minus_one = Fq::one().neg();
        assert_eq!(minus_one.halve().double(), minus_one);
        assert_eq!(Fr::one().halve().double(), Fr::one());
        assert!(Fq::zero().halve().is_zero());
    }

    #[test]
    fn multiplicative_inverse() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fq::one());
            let b = Fr::random(&mut r);
            assert_eq!(b.mul(&b.invert().unwrap()), Fr::one());
        }
        assert!(Fq::zero().invert().is_none());
        assert!(Fr::zero().invert().is_none());
    }

    #[test]
    fn subtraction_wraps_correctly() {
        let a = Fr::from_u64(5);
        let b = Fr::from_u64(7);
        let d = a.sub(&b); // -2 mod r
        assert_eq!(d.add(&Fr::from_u64(2)), Fr::zero());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Fr::from_u64(3);
        let p5 = a.pow_vartime(&[5]);
        assert_eq!(p5, Fr::from_u64(243));
        assert_eq!(a.pow_vartime(&[0]), Fr::one());
        assert_eq!(a.pow_vartime(&[1]), a);
    }

    #[test]
    fn fermat_exponent_is_modulus_minus_two() {
        let a = Fr::from_u64(2);
        // a^(r-1) == 1 (Fermat)
        let exp = FrParams::MODULUS.sbb(Uint::from_u64(1)).0;
        assert_eq!(a.pow_vartime(&exp.limbs), Fr::one());
    }

    #[test]
    fn sqrt_of_squares() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg());
        }
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        // -1 is a non-residue when q ≡ 3 (mod 4).
        let minus_one = Fq::one().neg();
        assert!(minus_one.sqrt().is_none());
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq::random(&mut r);
            let bytes = a.to_canonical_bytes();
            assert_eq!(bytes.len(), 64);
            assert_eq!(Fq::from_canonical_bytes(&bytes), Some(a));
        }
        // Out-of-range encodings rejected.
        let oob = crate::params::Q.to_be_bytes();
        assert!(Fq::from_canonical_bytes(&oob).is_none());
        assert!(Fq::from_canonical_bytes(&[0u8; 63]).is_none());
    }

    #[test]
    fn byte_reduction_matches_field() {
        // 2^512 mod q equals R1 for Fq by definition.
        let mut bytes = vec![0u8; 65];
        bytes[0] = 1; // 2^512 big-endian
        let reduced = Fq::from_be_bytes_reduce(&bytes);
        let expect = Fq::from_uint(&FqParams::R1);
        assert_eq!(reduced, expect);
    }

    #[test]
    fn operator_overloads() {
        let a = Fr::from_u64(10);
        let b = Fr::from_u64(4);
        assert_eq!(a + b, Fr::from_u64(14));
        assert_eq!(a - b, Fr::from_u64(6));
        assert_eq!(a * b, Fr::from_u64(40));
        assert_eq!(-a + a, Fr::zero());
        let mut c = a;
        c += b;
        c -= Fr::from_u64(2);
        c *= Fr::from_u64(2);
        assert_eq!(c, Fr::from_u64(24));
    }

    #[test]
    fn random_is_in_range_and_varied() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        assert_ne!(a, b);
        assert!(a.to_uint().lt(&FrParams::MODULUS));
    }

    #[test]
    fn debug_display_nonempty() {
        let a = Fr::from_u64(7);
        assert!(format!("{a:?}").starts_with("Fr("));
        assert!(!format!("{a}").is_empty());
    }
}
