//! The symmetric Tate pairing `e : G × G → G_T` and the target group
//! [`Gt`].
//!
//! The curve is supersingular with embedding degree 2, so the modified
//! Tate pairing `ê(P, Q) = τ_r(P, φ(Q))` with the distortion map
//! `φ(x, y) = (-x, iy)` is **symmetric and non-degenerate on G × G** —
//! exactly the `e : G × G → G_T` the paper's construction assumes.
//!
//! Implementation notes:
//!
//! * Miller loop over `r = 2¹⁵⁹ + 2¹⁰⁷ + 1` (Hamming weight 3 ⇒ only two
//!   addition steps), Jacobian coordinates, denominator elimination (all
//!   vertical-line values lie in `F_q` and die in the final
//!   exponentiation).
//! * Because `φ(Q)` has `x ∈ F_q` and `y ∈ i·F_q`, every line evaluation
//!   costs only `F_q` multiplications.
//! * Final exponentiation `(q² - 1)/r = (q - 1) · h`: the easy part is a
//!   conjugate-divide (Frobenius on `F_{q²}` is conjugation), the hard
//!   part the 353-bit power `z^h` of a unitary `z`, by PBC's Lucas ladder
//!   on the trace (one `F_q` multiplication and one squaring per bit).
//!   The two parts share one `F_q` inversion.
//! * Each Miller step returns its line in one form,
//!   `[λ·(μ·x_q + ν) − κ] + [ζ·y_q]·i`, that [`pairing`] and
//!   [`multi_pairing`] evaluate directly and [`FixedPairing`] (PBC's
//!   `pairing_pp_t`) stores once for a first argument paired more than
//!   once: divided by `ζ` when it is paired many times, with `ζ` kept
//!   when building must cost no more than the pair it replaces.
//! * One routine runs every Miller loop: a product of pairs in lockstep,
//!   each pair's lines computed on the fly or read from a
//!   [`FixedPairing`], under one final exponentiation. [`pairing`],
//!   [`multi_pairing`] (plain pairs, optionally up to two prepared pairs
//!   beside them, see [`Pairs`]) and [`FixedPairing::pairing`] are
//!   products of one or more pairs.

use std::sync::OnceLock;

use rand::RngCore;

use crate::curve::{G1Affine, G1};
use crate::field::{Fq, Fr};
use crate::fp2::Fq2;
use crate::params;

/// A Miller-loop line, kept apart from the point it is evaluated at.
///
/// At `φ(Q) = (-x_q, i·y_q)` its value is
/// `[λ·(μ·x_q + ν) − κ] + [ζ·y_q]·i`: the full pairing evaluates that
/// directly ([`Line::eval`]), and [`FixedPairing`] stores it as
/// `(a·x_q + b) + ζ·y_q·i` ([`Line::coefficients`]), in one form after
/// dividing by `ζ ∈ F_q`, a factor the final exponentiation kills.
struct Line {
    lambda: Fq,
    mu: Fq,
    nu: Fq,
    kappa: Fq,
    zeta: Fq,
}

impl Line {
    /// The line's value at `φ(Q)`.
    fn eval(&self, xq: &Fq, yq: &Fq) -> Fq2 {
        let c0 = self
            .lambda
            .mul(&self.mu.mul(xq).add(&self.nu))
            .sub(&self.kappa);
        Fq2::new(c0, self.zeta.mul(yq))
    }

    /// `(a, b, ζ)` with value `(a·x_q + b) + ζ·y_q·i` at `φ(Q)`.
    fn coefficients(&self) -> (Fq, Fq, Fq) {
        let a = self.lambda.mul(&self.mu);
        let b = self.lambda.mul(&self.nu).sub(&self.kappa);
        (a, b, self.zeta)
    }
}

/// Result of one Miller step: the line (`None` when its value lies in
/// `F_q`, which the final exponentiation kills) and the updated point.
struct Step {
    line: Option<Line>,
    point: G1,
}

/// Doubling step: the tangent line at `t`, to be evaluated at
/// `φ(Q) = (-x_q, i·y_q)`.
fn double_step(t: &G1) -> Step {
    if t.is_identity() {
        return Step {
            line: None,
            point: *t,
        };
    }
    let (x, y, z) = (t.x, t.y, t.z);
    let y2 = y.square();
    let z2 = z.square();
    let x2 = x.square();
    let m = x2.double().add(&x2).add(&z2.square()); // 3X² + Z⁴ (a = 1)
    let s = x.mul(&y2).double().double(); // 4XY²
    let x3 = m.square().sub(&s.double());
    let y3 = m
        .mul(&s.sub(&x3))
        .sub(&y2.square().double().double().double());
    let z3 = y.mul(&z).double();
    // l(φQ) = Z₃·Z²·(i·y_q) - 2Y² - M·(Z²·(-x_q) - X)
    //       = [M·(Z²·x_q + X) - 2Y²] + [Z₃·Z²·y_q]·i
    Step {
        line: Some(Line {
            lambda: m,
            mu: z2,
            nu: x,
            kappa: y2.double(),
            zeta: z3.mul(&z2),
        }),
        point: G1 {
            x: x3,
            y: y3,
            z: z3,
        },
    }
}

/// Addition step: the chord through `t` and the affine base point `p`,
/// to be evaluated at `φ(Q)`.
fn add_step(t: &G1, p: &G1Affine) -> Step {
    if t.is_identity() {
        return Step {
            line: None,
            point: G1::from(*p),
        };
    }
    let (x, y, z) = (t.x, t.y, t.z);
    let z2 = z.square();
    let u = p.x().mul(&z2);
    let s_val = p.y().mul(&z2).mul(&z);
    let h = u.sub(&x);
    let r = s_val.sub(&y);
    if h.is_zero() {
        if r.is_zero() {
            // t == p: tangent case (cannot occur in our loop, but correct).
            return double_step(t);
        }
        // t == -p: vertical line, value in F_q ⇒ eliminated.
        return Step {
            line: None,
            point: G1::identity(),
        };
    }
    let h2 = h.square();
    let h3 = h2.mul(&h);
    let xh2 = x.mul(&h2);
    let x3 = r.square().sub(&h3).sub(&xh2.double());
    let y3 = r.mul(&xh2.sub(&x3)).sub(&y.mul(&h3));
    let z3 = z.mul(&h);
    // l(φQ) = Z₃·(i·y_q - y_p) - R·(-x_q - x_p)
    //       = [R·(x_q + x_p) - Z₃·y_p] + [Z₃·y_q]·i
    Step {
        line: Some(Line {
            lambda: r,
            mu: Fq::one(),
            nu: p.x(),
            kappa: z3.mul(&p.y()),
            zeta: z3,
        }),
        point: G1 {
            x: x3,
            y: y3,
            z: z3,
        },
    }
}

/// The Miller loop of one fixed `P` over `r = 2^159 + 2^107 + 1`, one
/// bit at a time (bits 158..=0 below the leading 1; Hamming weight 3,
/// so only two addition steps).
struct MillerLoop {
    p: G1Affine,
    t: G1,
}

impl MillerLoop {
    fn new(p: &G1Affine) -> Self {
        MillerLoop {
            p: *p,
            t: G1::from(*p),
        }
    }

    /// The bits the loop runs over, most significant first.
    fn bits() -> impl Iterator<Item = usize> {
        (0..(params::R_BITS - 1)).rev()
    }

    /// Advances over bit `i` and returns its lines in loop order: the
    /// doubling line, then the addition line when bit `i` of `r` is
    /// set, each omitted when its value lies in `F_q`.
    fn bit(&mut self, i: usize) -> impl Iterator<Item = Line> {
        let double = double_step(&self.t);
        self.t = double.point;
        let add = if params::R.bit(i) {
            let step = add_step(&self.t, &self.p);
            self.t = step.point;
            step.line
        } else {
            None
        };
        double.line.into_iter().chain(add)
    }
}

/// Raises the Miller-loop output `f = f₀ + f₁·i` to `(q² - 1)/r`,
/// landing in the order-`r` subgroup of `F_{q²}*`, with one inversion.
///
/// The easy part is `z = f^(q-1) = conj(f)/f = conj(f)²/N` with the
/// norm `N = f₀² + f₁²`, so `z = a + b·i` with `a = (f₀² − f₁²)/N` and
/// `b = −2·f₀·f₁/N`. The hard part `z^h` ([`lucas_ladder`]) needs the
/// trace `P = 2a` and divides by `P² − 4 = −4b²`: its imaginary part is
/// `b·(2·V_{h+1} − P·V_h)/(P² − 4) = (2·V_{h+1} − P·V_h)·N/(8·f₀·f₁)`.
/// One inversion of `N·f₀·f₁` gives both `1/N` and `N/(f₀·f₁)`. Where
/// `f₀·f₁ = 0`, `z = ±1` and `z^h = 1`, because `h` is even
/// (`4 | q + 1`, `r` odd); `multi_pairing` of a pair and its negation
/// reaches `z = 1`.
fn final_exponentiation(f: &Fq2) -> Fq2 {
    let (f0_2, f1_2) = (f.c0.square(), f.c1.square());
    let norm = f0_2.add(&f1_2);
    let cross = f.c0.mul(&f.c1);
    let Some(inv) = norm.mul(&cross).invert() else {
        assert!(!norm.is_zero(), "Miller loop output is nonzero");
        return Fq2::one();
    };
    let trace = f0_2.sub(&f1_2).mul(&inv.mul(&cross)).double(); // 2a
    let (v0, v1) = lucas_ladder(&trace);
    let n_over_cross = inv.mul(&norm.square());
    let c1 = v1.double().sub(&trace.mul(&v0)).mul(&n_over_cross);
    Fq2::new(v0.halve(), c1.halve().halve().halve())
}

/// `(V_h, V_{h+1})` for the trace `P` of a unitary `z`, with
/// `h = (q + 1)/r` the cofactor: PBC's Lucas ladder (`lucas_odd`).
///
/// `z` and `z̄ = z⁻¹` are the roots of `X² − P·X + 1`, so
/// `V_k = z^k + z̄^k` obeys `V_{2k} = V_k² − 2` and
/// `V_{2k+1} = V_k·V_{k+1} − P`: one multiplication and one squaring in
/// `F_q` per bit of `h`, where square-and-multiply in `F_{q²}` spends
/// about twice that. Then `z^h = V_h/2 + b·U_h·i` with
/// `U_h = (2·V_{h+1} − P·V_h)/(P² − 4)`.
fn lucas_ladder(trace: &Fq) -> (Fq, Fq) {
    let two = Fq::from_u64(2);
    let (mut v0, mut v1) = (two, *trace); // (V_k, V_{k+1}) at k = 0
    for i in (0..params::H.bits()).rev() {
        if params::H.bit(i) {
            v0 = v0.mul(&v1).sub(trace);
            v1 = v1.square().sub(&two);
        } else {
            v1 = v0.mul(&v1).sub(trace);
            v0 = v0.square().sub(&two);
        }
    }
    (v0, v1)
}

/// The two-inversion final exponentiation [`final_exponentiation`]
/// replaced, kept as its test oracle: the easy part divides by `f`, the
/// hard part by `P² − 4`.
#[cfg(test)]
fn final_exponentiation_reference(f: &Fq2) -> Fq2 {
    hard_part(&easy_part(f))
}

/// Easy part: `f^(q-1) = conj(f) / f`, a unitary element (norm 1).
#[cfg(test)]
fn easy_part(f: &Fq2) -> Fq2 {
    let inv = f.invert().expect("Miller loop output is nonzero");
    f.conjugate().mul(&inv)
}

/// Hard part: `z^h` for unitary `z = a + b·i` by the Lucas ladder, with
/// its own inversion of `P² − 4`; that divisor is zero exactly for
/// `z = ±1`, where `z^h = 1`.
#[cfg(test)]
fn hard_part(z: &Fq2) -> Fq2 {
    let trace = z.c0.double();
    let (v0, v1) = lucas_ladder(&trace);
    let Some(inv) = trace.square().sub(&Fq::from_u64(4)).invert() else {
        return Fq2::one();
    };
    let u = v1.double().sub(&trace.mul(&v0)).mul(&inv);
    Fq2::new(v0.halve(), z.c1.mul(&u))
}

/// The square-and-multiply hard part [`hard_part`] replaced, kept as
/// its test oracle.
#[cfg(test)]
fn hard_part_reference(z: &Fq2) -> Fq2 {
    z.pow_vartime(&params::H.limbs)
}

/// Pairings against one first argument from which its scaled
/// [`FixedPairing`] lines ([`FixedPairing::new`]) pay for themselves.
/// Building them cost 1.3–1.5 times what one pairing against them saves
/// (e.g. 572 µs to build, 742 → 353 µs per pairing; medians of 15
/// interleaved rounds, three runs, 2-vCPU x86-64 VM), so the second
/// pairing recovers the build. The `ζ`-keeping form
/// ([`FixedPairing::unscaled`]) needs no threshold: building one and
/// using it at once costs about what the plain pair it replaces costs,
/// so it is built at its first use.
pub const LINES_BREAK_EVEN: usize = 2;

/// The symmetric pairing `e(P, Q)`.
///
/// Returns the identity of `G_T` if either argument is the identity of
/// `G` (consistent with bilinearity).
pub fn pairing(p: &G1Affine, q: &G1Affine) -> Gt {
    multi_pairing(&[(*p, *q)])
}

/// The pairs of one [`multi_pairing`]: plain `(P, Q)` pairs, plus up to
/// two pairs whose `P` comes prepared as a [`FixedPairing`]. A slice,
/// array or vector of plain pairs converts with none, so a product of
/// plain pairs reads `multi_pairing(&pairs)`.
#[derive(Clone, Copy, Debug)]
pub struct Pairs<'a> {
    plain: &'a [(G1Affine, G1Affine)],
    fixed: [Option<(&'a FixedPairing, G1Affine)>; 2],
}

impl<'a> Pairs<'a> {
    /// `plain`, times `e(P, q)` for the `P` whose lines `fixed` holds.
    pub fn with_fixed(
        plain: &'a [(G1Affine, G1Affine)],
        fixed: &'a FixedPairing,
        q: G1Affine,
    ) -> Self {
        Pairs {
            plain,
            fixed: [Some((fixed, q)), None],
        }
    }

    /// These pairs, times `e(P, q)` for the `P` whose lines `fixed`
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if two prepared pairs are already in.
    pub fn and_fixed(mut self, fixed: &'a FixedPairing, q: G1Affine) -> Self {
        let slot = self
            .fixed
            .iter_mut()
            .find(|slot| slot.is_none())
            .expect("a product holds at most two prepared pairs");
        *slot = Some((fixed, q));
        self
    }
}

impl<'a> From<&'a [(G1Affine, G1Affine)]> for Pairs<'a> {
    fn from(plain: &'a [(G1Affine, G1Affine)]) -> Self {
        Pairs {
            plain,
            fixed: [None, None],
        }
    }
}

impl<'a, const N: usize> From<&'a [(G1Affine, G1Affine); N]> for Pairs<'a> {
    fn from(plain: &'a [(G1Affine, G1Affine); N]) -> Self {
        Pairs::from(plain.as_slice())
    }
}

impl<'a> From<&'a Vec<(G1Affine, G1Affine)>> for Pairs<'a> {
    fn from(plain: &'a Vec<(G1Affine, G1Affine)>) -> Self {
        Pairs::from(plain.as_slice())
    }
}

/// Computes `Π e(P_i, Q_i)` with one shared final exponentiation.
///
/// The Miller loops of all pairs run in lockstep — their line values
/// multiply into one accumulator, and the expensive `(q²-1)/r`
/// exponentiation happens once instead of once per pair. This is the
/// standard "product of pairings" optimization; the scheme's decryption
/// (a product of `n_A + 2·|I|` pairings) is its natural consumer.
///
/// A prepared pair ([`Pairs::with_fixed`], [`Pairs::and_fixed`])
/// evaluates its stored lines instead of running its Miller loop, with
/// the same result. Every pair counts as one pairing; identity
/// arguments contribute a factor of 1, like [`pairing`].
pub fn multi_pairing<'a>(pairs: impl Into<Pairs<'a>>) -> Gt {
    let Pairs { plain, fixed } = pairs.into();
    let mut loops = Vec::with_capacity(plain.len() + fixed.len());
    for (prepared, q) in fixed.into_iter().flatten() {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::Pairing);
        if !prepared.per_bit.is_empty() && !q.is_identity() {
            let per_bit = prepared.per_bit.iter();
            let (xq, yq) = (q.x(), q.y());
            loops.push(match &prepared.lines {
                Lines::Scaled(lines) => PairLoop::Scaled {
                    lines: lines.iter(),
                    per_bit,
                    xq,
                    yq,
                },
                Lines::Kept(lines) => PairLoop::Kept {
                    lines: lines.iter(),
                    per_bit,
                    xq,
                    yq,
                },
            });
        }
    }
    for (p, q) in plain {
        // Counted before the identity shortcut: op accounting tracks
        // the paper's nominal operation counts, not the shortcuts taken.
        mabe_telemetry::record(mabe_telemetry::CryptoOp::Pairing);
        if !p.is_identity() && !q.is_identity() {
            loops.push(PairLoop::Plain {
                miller: Box::new(MillerLoop::new(p)),
                xq: q.x(), // φ(Q).x = -x_q; the formulas fold the sign in.
                yq: q.y(),
            });
        }
    }
    miller_product(&mut loops)
}

/// One pair's Miller loop as [`miller_product`] advances it: lines computed
/// from `P` on the fly, or read back from a [`FixedPairing`] of either
/// form; either way evaluated at `φ(Q)`.
enum PairLoop<'a> {
    Plain {
        miller: Box<MillerLoop>,
        xq: Fq,
        yq: Fq,
    },
    Scaled {
        lines: std::slice::Iter<'a, (Fq, Fq)>,
        per_bit: std::slice::Iter<'a, u8>,
        xq: Fq,
        yq: Fq,
    },
    Kept {
        lines: std::slice::Iter<'a, (Fq, Fq, Fq)>,
        per_bit: std::slice::Iter<'a, u8>,
        xq: Fq,
        yq: Fq,
    },
}

impl PairLoop<'_> {
    /// Multiplies the lines of loop bit `i` into `f`.
    fn step(&mut self, i: usize, f: &mut Fq2) {
        match self {
            PairLoop::Plain { miller, xq, yq } => {
                for line in miller.bit(i) {
                    *f = f.mul(&line.eval(xq, yq));
                }
            }
            PairLoop::Scaled {
                lines,
                per_bit,
                xq,
                yq,
            } => {
                let count = per_bit.next().copied().unwrap_or(0);
                for (a, b) in lines.by_ref().take(usize::from(count)) {
                    *f = f.mul(&Fq2::new(a.mul(xq).add(b), *yq));
                }
            }
            PairLoop::Kept {
                lines,
                per_bit,
                xq,
                yq,
            } => {
                let count = per_bit.next().copied().unwrap_or(0);
                for (a, b, zeta) in lines.by_ref().take(usize::from(count)) {
                    *f = f.mul(&Fq2::new(a.mul(xq).add(b), zeta.mul(yq)));
                }
            }
        }
    }
}

/// The one Miller-loop routine: runs every pair's loop in lockstep into
/// one accumulator, then one final exponentiation. The empty product
/// is 1.
fn miller_product(loops: &mut [PairLoop<'_>]) -> Gt {
    if loops.is_empty() {
        return Gt::one();
    }
    let mut f = Fq2::one();
    for i in MillerLoop::bits() {
        f = f.square();
        for pair in loops.iter_mut() {
            pair.step(i, &mut f);
        }
    }
    Gt(final_exponentiation(&f))
}

/// A pairing with its first argument fixed: PBC's `pairing_pp_t`.
///
/// The Miller loop's points and lines depend only on `P`, so building
/// runs the loop once and keeps every line; each pairing then only
/// evaluates and multiplies lines, with the same `G_T` element as
/// [`pairing`]. A line's value at `φ(Q)` is `(a·x_q + b) + ζ·y_q·i`
/// with `ζ ∈ F_q`, and the two forms differ in what they do with `ζ`:
///
/// * [`FixedPairing::new`] divides every line by its `ζ` (one batch
///   inversion for all of them), a factor the final exponentiation
///   kills, and keeps `(a, b)`: a third of a full Miller loop per
///   pairing, but building costs about one and a third Miller loops, so
///   it pays from the [`LINES_BREAK_EVEN`]-th pairing with the same `P`
///   on. A revocation pairs one `UK1` with every affected `C'`, and a
///   reader pairs its `PK_UID` in every cold read. About 20 KiB.
/// * [`FixedPairing::unscaled`] keeps `(a, b, ζ)`: no inversion to
///   build, one more `F_q` multiplication per line to use. Building one
///   and using it at once costs about what the plain pair it replaces
///   costs, so it pays from its first use, where a scaled build would
///   not: a reader's key-side sum `K*` repeats across the records of
///   one policy but changes with every key version. About 31 KiB.
///
/// [`Pairs::with_fixed`] and [`Pairs::and_fixed`] put prepared pairs of
/// either form beside plain ones.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FixedPairing {
    /// The fixed first argument.
    base: G1Affine,
    /// Every line not in `F_q`, in loop order.
    lines: Lines,
    /// How many of `lines` each bit of the loop contributes (0–2).
    per_bit: Vec<u8>,
}

/// A [`FixedPairing`]'s lines in one of its two forms.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Lines {
    /// `(a, b)` divided by `ζ`: value `(a·x_q + b) + y_q·i`.
    Scaled(Vec<(Fq, Fq)>),
    /// `(a, b, ζ)`: value `(a·x_q + b) + ζ·y_q·i`.
    Kept(Vec<(Fq, Fq, Fq)>),
}

impl FixedPairing {
    /// Runs `p`'s Miller loop once and keeps its lines, each divided by
    /// its `ζ`.
    pub fn new(p: &G1Affine) -> Self {
        let (raw, per_bit) = Self::walk(p);
        // Montgomery's trick: one inversion for every ζ (all nonzero:
        // ζ = 0 only at 2-torsion or the identity, whose lines are None).
        let mut prefix = Vec::with_capacity(raw.len());
        let mut acc = Fq::one();
        for (_, _, zeta) in &raw {
            prefix.push(acc);
            acc = acc.mul(zeta);
        }
        let mut inv = acc.invert().expect("line factors are nonzero");
        let mut lines = vec![(Fq::zero(), Fq::zero()); raw.len()];
        for (k, (a, b, zeta)) in raw.iter().enumerate().rev() {
            let zeta_inv = inv.mul(&prefix[k]);
            inv = inv.mul(zeta);
            lines[k] = (a.mul(&zeta_inv), b.mul(&zeta_inv));
        }
        FixedPairing {
            base: *p,
            lines: Lines::Scaled(lines),
            per_bit,
        }
    }

    /// Runs `p`'s Miller loop once and keeps its lines with their `ζ`.
    pub fn unscaled(p: &G1Affine) -> Self {
        let (raw, per_bit) = Self::walk(p);
        FixedPairing {
            base: *p,
            lines: Lines::Kept(raw),
            per_bit,
        }
    }

    /// `p`'s Miller loop: every line's `(a, b, ζ)` in loop order, and
    /// how many lines each bit contributes. The identity has none.
    fn walk(p: &G1Affine) -> (Vec<(Fq, Fq, Fq)>, Vec<u8>) {
        if p.is_identity() {
            return (Vec::new(), Vec::new());
        }
        let mut raw = Vec::with_capacity(params::R_BITS + 2);
        let mut per_bit = Vec::with_capacity(params::R_BITS);
        let mut miller = MillerLoop::new(p);
        for i in MillerLoop::bits() {
            let before = raw.len();
            raw.extend(miller.bit(i).map(|line| line.coefficients()));
            per_bit.push((raw.len() - before) as u8);
        }
        (raw, per_bit)
    }

    /// The fixed first argument `P`.
    pub fn base(&self) -> &G1Affine {
        &self.base
    }

    /// `e(P, Q)` for the fixed `P`; counted as one pairing, like
    /// [`pairing`].
    pub fn pairing(&self, q: &G1Affine) -> Gt {
        multi_pairing(Pairs::with_fixed(&[], self, *q))
    }
}

/// An element of the target group `G_T` (the order-`r` subgroup of
/// `F_{q²}*`; all members are unitary, so inversion is conjugation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Gt(Fq2);

impl Gt {
    /// The multiplicative identity.
    pub fn one() -> Self {
        Gt(Fq2::one())
    }

    /// `true` for the identity.
    pub fn is_one(&self) -> bool {
        self.0 == Fq2::one()
    }

    /// The canonical generator `e(g, g)`.
    pub fn generator() -> Self {
        static GEN: OnceLock<Gt> = OnceLock::new();
        *GEN.get_or_init(|| {
            let g = G1Affine::generator();
            pairing(&g, &g)
        })
    }

    /// Group operation (multiplication in `F_{q²}`).
    pub fn mul(&self, rhs: &Self) -> Self {
        Gt(self.0.mul(&rhs.0))
    }

    /// Exponentiation by a scalar.
    pub fn pow(&self, k: &Fr) -> Self {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::GtPow);
        Gt(self.0.pow_vartime(&k.to_uint().limbs))
    }

    /// Inverse (conjugation — valid because `G_T` elements are unitary).
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Division: `self · rhs⁻¹`.
    pub fn div(&self, rhs: &Self) -> Self {
        self.mul(&rhs.invert())
    }

    /// Uniformly random element (known exponent is discarded).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().pow(&Fr::random(rng))
    }

    /// Canonical 128-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses and validates the canonical encoding (subgroup-checked).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let inner = Fq2::from_bytes(bytes)?;
        if inner.is_zero() {
            return None;
        }
        // Order check: must lie in the order-r subgroup.
        if inner.pow_vartime(&params::R.limbs) != Fq2::one() {
            return None;
        }
        Some(Gt(inner))
    }

    /// Raw access to the underlying `F_{q²}` element (for tests/benches).
    pub fn as_fq2(&self) -> &Fq2 {
        &self.0
    }

    /// Compressed 65-byte encoding exploiting unitarity: members of
    /// `G_T` satisfy `c0² + c1² = 1`, so `c1` is determined by `c0` up
    /// to sign. Format: flag byte (`0x02 | parity(c1)`) followed by the
    /// 64-byte big-endian `c0`.
    pub fn to_compressed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(65);
        out.push(0x02 | u8::from(self.0.c1.is_odd()));
        out.extend_from_slice(&self.0.c0.to_canonical_bytes());
        out
    }

    /// Parses the compressed encoding (subgroup-checked).
    pub fn from_compressed_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 65 {
            return None;
        }
        let flag = bytes[0];
        if flag != 0x02 && flag != 0x03 {
            return None;
        }
        let c0 = crate::field::Fq::from_canonical_bytes(&bytes[1..])?;
        // c1² = 1 - c0²
        let c1_sq = crate::field::Fq::one().sub(&c0.square());
        let mut c1 = c1_sq.sqrt()?;
        if c1.is_odd() != (flag & 1 == 1) {
            c1 = c1.neg();
        }
        let inner = Fq2::new(c0, c1);
        if inner.pow_vartime(&params::R.limbs) != Fq2::one() {
            return None;
        }
        Some(Gt(inner))
    }
}

impl core::ops::Mul for Gt {
    type Output = Gt;
    fn mul(self, rhs: Gt) -> Gt {
        Gt::mul(&self, &rhs)
    }
}

impl core::fmt::Display for Gt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gt({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn random_point(r: &mut StdRng) -> G1Affine {
        G1Affine::from(G1::random(r))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn lucas_hard_part_matches_square_and_multiply(seed in any::<u64>()) {
            // Any nonzero F_{q²} element is a possible Miller output.
            let f = Fq2::random(&mut StdRng::seed_from_u64(seed));
            prop_assume!(!f.is_zero());
            let z = easy_part(&f);
            prop_assert_eq!(hard_part(&z), hard_part_reference(&z));
            prop_assert_eq!(final_exponentiation(&f), hard_part_reference(&z));
        }

        #[test]
        fn one_inversion_final_exponentiation_matches_two(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let f = Fq2::random(&mut r);
            prop_assume!(!f.is_zero());
            prop_assert_eq!(final_exponentiation(&f), final_exponentiation_reference(&f));
            // The f₀·f₁ = 0 edge: f in F_q or in i·F_q.
            let c = Fq::random(&mut r);
            prop_assume!(!c.is_zero());
            for edge in [Fq2::new(c, Fq::zero()), Fq2::new(Fq::zero(), c)] {
                prop_assert_eq!(final_exponentiation(&edge), Fq2::one());
                prop_assert_eq!(final_exponentiation_reference(&edge), Fq2::one());
            }
        }

        #[test]
        fn fixed_pairing_matches_pairing(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let (p, q) = (random_point(&mut r), random_point(&mut r));
            let fixed = FixedPairing::new(&p);
            prop_assert_eq!(fixed.pairing(&q), pairing(&p, &q));
            prop_assert_eq!(fixed.pairing(&p), pairing(&p, &p));
        }

        #[test]
        fn mixed_product_matches_multi_pairing(seed in any::<u64>()) {
            // e(P, Q) from P's lines beside a plain pair (A, B), as a
            // serving decrypt runs it with P = PK_UID; identities in
            // either slot of either pair, and Q = ±P.
            let mut r = StdRng::seed_from_u64(seed);
            let (p, q) = (random_point(&mut r), random_point(&mut r));
            let (a, b) = (random_point(&mut r), random_point(&mut r));
            let id = G1Affine::identity();
            let fixed = FixedPairing::new(&p);
            let fixed_id = FixedPairing::new(&id);
            for qq in [q, p, p.neg(), id] {
                for plain in [(a, b), (id, b), (a, id), (a, qq)] {
                    let expect = multi_pairing(&[plain, (p, qq)]);
                    prop_assert_eq!(
                        multi_pairing(Pairs::with_fixed(&[plain], &fixed, qq)),
                        expect
                    );
                    prop_assert_eq!(
                        multi_pairing(Pairs::with_fixed(&[plain], &fixed_id, qq)),
                        multi_pairing(&[plain, (id, qq)])
                    );
                }
                prop_assert_eq!(
                    multi_pairing(Pairs::with_fixed(&[], &fixed, qq)),
                    pairing(&p, &qq)
                );
            }
            // The symmetric pairing lets P sit in either argument.
            prop_assert_eq!(
                multi_pairing(Pairs::with_fixed(&[(a, b)], &fixed, q)),
                multi_pairing(&[(a, b), (q, p)])
            );
        }

        #[test]
        fn any_mix_of_forms_matches_the_plain_product(seed in any::<u64>()) {
            // Two prepared pairs, each scaled or ζ-keeping, beside zero or
            // one plain pair, as a cold read runs it with P = K* and
            // A = PK_UID; identity bases and identity points in each slot.
            let mut r = StdRng::seed_from_u64(seed);
            let (p, q) = (random_point(&mut r), random_point(&mut r));
            let (a, b) = (random_point(&mut r), random_point(&mut r));
            let (c, d) = (random_point(&mut r), random_point(&mut r));
            let id = G1Affine::identity();
            let kept = FixedPairing::unscaled(&p);
            let scaled = FixedPairing::new(&p);
            prop_assert_eq!(kept.pairing(&q), scaled.pairing(&q));
            prop_assert_eq!(kept.pairing(&q), pairing(&p, &q));
            prop_assert_eq!(kept.pairing(&p.neg()), pairing(&p, &p).invert());
            for (base, point) in [(a, b), (id, b), (a, id), (a, a.neg())] {
                // The forms and the first pair's point drawn per case.
                let pick = r.next_u32();
                let second = if pick & 1 == 0 {
                    FixedPairing::new(&base)
                } else {
                    FixedPairing::unscaled(&base)
                };
                let first = if pick & 2 == 0 { &kept } else { &scaled };
                let qq = if pick & 4 == 0 { q } else { id };
                prop_assert_eq!(
                    multi_pairing(Pairs::with_fixed(&[(c, d)], first, qq).and_fixed(&second, point)),
                    multi_pairing(&[(c, d), (p, qq), (base, point)])
                );
                prop_assert_eq!(
                    multi_pairing(Pairs::with_fixed(&[], first, qq).and_fixed(&second, point)),
                    multi_pairing(&[(p, qq), (base, point)])
                );
            }
            // A second prepared pair on plain pairs alone fills the free slot.
            prop_assert_eq!(
                multi_pairing(Pairs::from(&[(c, d)]).and_fixed(&kept, q)),
                multi_pairing(&[(c, d), (p, q)])
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most two prepared pairs")]
    fn a_third_prepared_pair_is_refused() {
        let g = G1Affine::generator();
        let fixed = FixedPairing::unscaled(&g);
        let two = Pairs::with_fixed(&[], &fixed, g).and_fixed(&fixed, g);
        let _ = two.and_fixed(&fixed, g);
    }

    #[test]
    fn hard_part_of_plus_and_minus_one_is_one() {
        // P² − 4 = 0 at z = ±1: the ladder's divisor vanishes, and
        // z^h = 1 because h is even.
        assert!(params::H.limbs[0].is_multiple_of(4), "4 | h");
        for z in [Fq2::one(), Fq2::one().neg()] {
            assert_eq!(hard_part(&z), Fq2::one());
            assert_eq!(hard_part_reference(&z), Fq2::one());
        }
        // Miller outputs whose easy part is ±1: f in F_q and in i·F_q.
        let c = Fq::from_u64(7);
        assert_eq!(easy_part(&Fq2::new(c, Fq::zero())), Fq2::one());
        assert_eq!(easy_part(&Fq2::new(Fq::zero(), c)), Fq2::one().neg());
        for f in [Fq2::new(c, Fq::zero()), Fq2::new(Fq::zero(), c)] {
            assert_eq!(final_exponentiation(&f), Fq2::one());
        }
    }

    #[test]
    fn fixed_pairing_edge_arguments() {
        let mut r = rng();
        let p = random_point(&mut r);
        let id = G1Affine::identity();
        let fixed = FixedPairing::new(&p);
        assert_eq!(fixed.pairing(&p), pairing(&p, &p));
        assert_eq!(fixed.pairing(&p.neg()), pairing(&p, &p.neg()));
        assert_eq!(fixed.pairing(&p.neg()), pairing(&p, &p).invert());
        assert!(fixed.pairing(&id).is_one());
        assert!(FixedPairing::new(&id).pairing(&p).is_one());
        assert!(FixedPairing::new(&id).pairing(&id).is_one());
        let g = G1Affine::generator();
        assert_eq!(FixedPairing::new(&g).pairing(&g), Gt::generator());
        let kept = FixedPairing::unscaled(&p);
        assert_eq!(kept.pairing(&p), pairing(&p, &p));
        assert!(kept.pairing(&id).is_one());
        assert!(FixedPairing::unscaled(&id).pairing(&p).is_one());
        assert!(FixedPairing::unscaled(&id).pairing(&id).is_one());
        assert_eq!(FixedPairing::unscaled(&g).pairing(&g), Gt::generator());
    }

    #[test]
    fn fixed_pairing_counts_one_pairing_per_evaluation() {
        let mut r = rng();
        let (p, q) = (random_point(&mut r), random_point(&mut r));
        let (fixed, built) = mabe_telemetry::measure(|| FixedPairing::new(&p));
        assert_eq!(built.pairings, 0, "building runs no pairing");
        let (kept, built) = mabe_telemetry::measure(|| FixedPairing::unscaled(&q));
        assert_eq!(built.pairings, 0, "building runs no pairing");
        let (_, used) = mabe_telemetry::measure(|| fixed.pairing(&q));
        assert_eq!(used.pairings, 1);
        // The prepared pair beside a plain one: two pairings, as the
        // plain product counts; so do two prepared pairs.
        let (_, mixed) =
            mabe_telemetry::measure(|| multi_pairing(Pairs::with_fixed(&[(q, p)], &fixed, q)));
        assert_eq!(mixed.pairings, 2);
        let (_, both) = mabe_telemetry::measure(|| {
            multi_pairing(Pairs::with_fixed(&[], &fixed, q).and_fixed(&kept, p))
        });
        assert_eq!(both.pairings, 2);
        assert_eq!(fixed.base(), &p);
        assert_eq!(kept.base(), &q);
    }

    #[test]
    fn non_degenerate() {
        let e = Gt::generator();
        assert!(!e.is_one());
    }

    #[test]
    fn generator_has_order_r() {
        let e = Gt::generator();
        let r_scalar = params::R;
        assert_eq!(e.as_fq2().pow_vartime(&r_scalar.limbs), Fq2::one());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let g = G1Affine::generator();
        let a = Fr::from_u64(123456);
        let ga = G1Affine::from(G1::generator().mul(&a));
        let lhs = pairing(&ga, &g);
        let rhs = pairing(&g, &g).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let g = G1Affine::generator();
        let b = Fr::from_u64(98765);
        let gb = G1Affine::from(G1::generator().mul(&b));
        assert_eq!(pairing(&g, &gb), pairing(&g, &g).pow(&b));
    }

    #[test]
    fn bilinear_random_scalars() {
        let mut r = rng();
        let g = G1Affine::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let ga = G1Affine::from(G1::generator().mul(&a));
        let gb = G1Affine::from(G1::generator().mul(&b));
        assert_eq!(pairing(&ga, &gb), pairing(&g, &g).pow(&a.mul(&b)));
    }

    #[test]
    fn symmetric() {
        let mut r = rng();
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        assert_eq!(pairing(&p, &q), pairing(&q, &p));
    }

    #[test]
    fn identity_arguments() {
        let g = G1Affine::generator();
        let id = G1Affine::identity();
        assert!(pairing(&id, &g).is_one());
        assert!(pairing(&g, &id).is_one());
    }

    #[test]
    fn pairing_with_negation() {
        let mut r = rng();
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        let e = pairing(&p, &q);
        assert_eq!(pairing(&p.neg(), &q), e.invert());
        assert_eq!(pairing(&p, &q.neg()), e.invert());
        assert!(pairing(&p.neg(), &q).mul(&e).is_one());
    }

    #[test]
    fn gt_group_laws() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        let b = Gt::random(&mut r);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert!(a.mul(&a.invert()).is_one());
        assert_eq!(a.div(&a), Gt::one());
        assert_eq!(a.mul(&Gt::one()), a);
    }

    #[test]
    fn gt_pow_laws() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let g = Gt::generator();
        assert_eq!(g.pow(&a).pow(&b), g.pow(&a.mul(&b)));
        assert_eq!(g.pow(&a).mul(&g.pow(&b)), g.pow(&a.add(&b)));
        assert_eq!(g.pow(&Fr::zero()), Gt::one());
        assert_eq!(g.pow(&Fr::one()), g);
    }

    #[test]
    fn gt_bytes_roundtrip() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 128);
        assert_eq!(Gt::from_bytes(&bytes), Some(a));
        // Zero is rejected.
        assert!(Gt::from_bytes(&[0u8; 128]).is_none());
        // Wrong length is rejected.
        assert!(Gt::from_bytes(&bytes[..127]).is_none());
    }

    #[test]
    fn gt_compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Gt::random(&mut r);
            let compressed = a.to_compressed_bytes();
            assert_eq!(compressed.len(), 65);
            assert_eq!(Gt::from_compressed_bytes(&compressed), Some(a));
        }
        // Identity: c0 = 1, c1 = 0.
        let one = Gt::one();
        assert_eq!(
            Gt::from_compressed_bytes(&one.to_compressed_bytes()),
            Some(one)
        );
        // Bad flag and bad length rejected.
        let mut bad = Gt::generator().to_compressed_bytes();
        bad[0] = 0x00;
        assert!(Gt::from_compressed_bytes(&bad).is_none());
        assert!(Gt::from_compressed_bytes(&[0u8; 64]).is_none());
        // Random c0 almost surely fails the subgroup/sqrt checks.
        let mut junk = vec![0x02u8];
        junk.extend_from_slice(&Fq::from_u64(123456).to_canonical_bytes());
        assert!(Gt::from_compressed_bytes(&junk).is_none());
    }

    #[test]
    fn gt_from_bytes_rejects_wrong_order() {
        // A random Fq2 element is overwhelmingly unlikely to have order r.
        let mut r = rng();
        let junk = Fq2::random(&mut r);
        assert!(Gt::from_bytes(&junk.to_bytes()).is_none());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut r = rng();
        let pairs: Vec<(G1Affine, G1Affine)> = (0..4)
            .map(|_| {
                (
                    G1Affine::from(G1::random(&mut r)),
                    G1Affine::from(G1::random(&mut r)),
                )
            })
            .collect();
        let expected = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), expected);
    }

    #[test]
    fn multi_pairing_edge_cases() {
        let mut r = rng();
        assert!(multi_pairing(&[]).is_one());
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        // Single pair equals plain pairing.
        assert_eq!(multi_pairing(&[(p, q)]), pairing(&p, &q));
        // Identity pairs are skipped.
        let id = G1Affine::identity();
        assert_eq!(multi_pairing(&[(p, q), (id, q), (p, id)]), pairing(&p, &q));
        assert!(multi_pairing(&[(id, id)]).is_one());
        // A pair and its negation cancel.
        assert!(multi_pairing(&[(p, q), (p.neg(), q)]).is_one());
    }

    #[test]
    fn pairing_linear_in_both_args_simultaneously() {
        // e(P1 + P2, Q) = e(P1, Q) · e(P2, Q)
        let mut r = rng();
        let p1 = G1::random(&mut r);
        let p2 = G1::random(&mut r);
        let q = G1Affine::from(G1::random(&mut r));
        let lhs = pairing(&G1Affine::from(p1.add(&p2)), &q);
        let rhs = pairing(&G1Affine::from(p1), &q).mul(&pairing(&G1Affine::from(p2), &q));
        assert_eq!(lhs, rhs);
    }
}
