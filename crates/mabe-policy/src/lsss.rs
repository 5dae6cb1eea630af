//! Linear secret-sharing scheme (LSSS) access structures.
//!
//! Converts a monotone boolean formula into a monotone span program
//! `(M, ρ)` by the Lewko–Waters conversion (Decentralizing ABE,
//! EUROCRYPT 2011), with Vandermonde tails for thresholds. Each gate
//! hands every child a vector (the root's is `(1)`), appending fresh
//! columns as it goes; a leaf's vector is its row of `M`:
//!
//! * `OR`, and `1`-of-`n`, appends none: every child gets the parent's
//!   vector `v`.
//! * `AND` over `n` children appends `n − 1` and chains them: child 1
//!   gets `v‖1`, a middle child `t` gets `−1` on fresh column `t − 1`
//!   and `+1` on column `t`, and the last child gets `−1` on column
//!   `n − 1`. The children's vectors sum to `v`, and every entry the
//!   chain adds is `±1`.
//! * `k`-of-`n` with `k ≥ 2` (an explicit `n`-of-`n` included) appends
//!   `k − 1` and hands child `j` the parent vector extended by the
//!   Vandermonde tail `(j, j², …, j^{k-1})`.
//!
//! Reconstruction walks the formula and never reads `M`: a held leaf
//! contributes its row at coefficient 1, `AND` takes every child, `OR`
//! the satisfied child that uses the fewest rows, and `k`-of-`n` the `k`
//! such children, each scaled by its Lagrange coefficient at 0 over the
//! chosen indices. On `AND`/`OR` formulas every coefficient is
//! therefore 1. [`crate::linalg::solve`] remains for the security
//! game's span checks and as the tests' oracle.
//!
//! As in the paper's construction (§V-B) the labelling `ρ` is required to
//! be **injective** — each attribute appears on at most one row.

use std::collections::BTreeSet;

use rand::RngCore;

use mabe_math::Fr;

use crate::ast::Policy;
use crate::attr::{Attribute, AuthorityId};
use crate::linalg;

/// Errors producing an LSSS from a formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LsssError {
    /// The same attribute labels two rows; the paper's construction
    /// requires an injective `ρ`.
    DuplicateAttribute(Attribute),
}

impl core::fmt::Display for LsssError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LsssError::DuplicateAttribute(a) => {
                write!(
                    f,
                    "attribute {a} appears more than once (ρ must be injective)"
                )
            }
        }
    }
}

impl std::error::Error for LsssError {}

/// Names the construction [`AccessStructure::from_policy`] builds.
///
/// A ciphertext carries its policy text, not its matrix, so its shares
/// decrypt only under the construction that made them; a store of
/// ciphertexts records this name and refuses to open under another.
pub const CONSTRUCTION: &str = "lewko-waters AND chain, vandermonde k-of-n";

/// The membership query the reconstruction walk asks of a decryptor's
/// attributes: an attribute set, or any test over `&Attribute`, so a
/// caller holding its attributes in another shape (per-authority keys)
/// answers in place instead of collecting a set.
pub trait HeldAttributes {
    /// `true` if `attr` is held.
    fn holds(&self, attr: &Attribute) -> bool;
}

impl HeldAttributes for BTreeSet<Attribute> {
    fn holds(&self, attr: &Attribute) -> bool {
        self.contains(attr)
    }
}

impl<F: Fn(&Attribute) -> bool> HeldAttributes for F {
    fn holds(&self, attr: &Attribute) -> bool {
        self(attr)
    }
}

/// A monotone span program `(M, ρ)` together with the formula it encodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessStructure {
    matrix: Vec<Vec<Fr>>,
    rho: Vec<Attribute>,
    policy: Policy,
}

impl AccessStructure {
    /// Builds the span program for a policy formula.
    ///
    /// # Errors
    ///
    /// Returns [`LsssError::DuplicateAttribute`] if any attribute occurs in
    /// more than one leaf.
    pub fn from_policy(policy: &Policy) -> Result<Self, LsssError> {
        let mut rows: Vec<(Attribute, Vec<Fr>)> = Vec::new();
        let mut width = 1usize;
        assign(policy, vec![Fr::one()], &mut width, &mut rows);

        let mut seen = BTreeSet::new();
        for (attr, _) in &rows {
            if !seen.insert(attr.clone()) {
                return Err(LsssError::DuplicateAttribute(attr.clone()));
            }
        }

        let mut matrix = Vec::with_capacity(rows.len());
        let mut rho = Vec::with_capacity(rows.len());
        for (attr, mut vec) in rows {
            vec.resize(width, Fr::zero());
            matrix.push(vec);
            rho.push(attr);
        }
        Ok(AccessStructure {
            matrix,
            rho,
            policy: policy.clone(),
        })
    }

    /// The share matrix `M` (`l × n`, row-major).
    pub fn matrix(&self) -> &[Vec<Fr>] {
        &self.matrix
    }

    /// The row labelling `ρ` (row `i` belongs to attribute `rho()[i]`).
    pub fn rho(&self) -> &[Attribute] {
        &self.rho
    }

    /// Number of rows `l` (= number of attributes in the policy).
    pub fn rows(&self) -> usize {
        self.matrix.len()
    }

    /// Number of columns `n` (share-vector dimension).
    pub fn width(&self) -> usize {
        self.matrix.first().map_or(0, Vec::len)
    }

    /// The original formula.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Distinct authorities appearing in the structure (the paper's
    /// *involved authority set* `I_A`).
    pub fn authorities(&self) -> BTreeSet<AuthorityId> {
        self.rho.iter().map(|a| a.authority().clone()).collect()
    }

    /// Row indices labelled by attributes of the given authority
    /// (the paper's `I_{AID_k}`).
    pub fn rows_for_authority(&self, aid: &AuthorityId) -> Vec<usize> {
        (0..self.rows())
            .filter(|&i| self.rho[i].authority() == aid)
            .collect()
    }

    /// Produces shares `λ_i = M_i · v` of the secret `s`, with
    /// `v = (s, y₂, …, y_n)` for fresh random `y_j`.
    pub fn share<R: RngCore + ?Sized>(&self, s: &Fr, rng: &mut R) -> Vec<Fr> {
        let mut v = Vec::with_capacity(self.width());
        v.push(*s);
        for _ in 1..self.width() {
            v.push(Fr::random(rng));
        }
        linalg::mat_vec(&self.matrix, &v)
    }

    /// Finds reconstruction coefficients `w_i` over the rows labelled by
    /// the given attributes (a set, or a membership test, see
    /// [`HeldAttributes`]), such that `Σ w_i · M_i = (1, 0, …, 0)`, by
    /// walking the formula (see the module docs). The rows are a
    /// smallest satisfying subset of the held ones.
    ///
    /// Returns `(row_index, w_i)` pairs in ascending row order (zero
    /// coefficients omitted), or `None` if the attribute set does not
    /// satisfy the structure.
    pub fn reconstruction_coefficients(
        &self,
        attrs: &impl HeldAttributes,
    ) -> Option<Vec<(usize, Fr)>> {
        walk(&self.policy, attrs, &mut 0)
    }

    /// `true` iff the attribute set satisfies the access structure.
    ///
    /// Evaluates the formula; [`Self::reconstruction_coefficients`]
    /// returns `Some` exactly then, and by the soundness of the span
    /// program no other subset spans `(1, 0, …, 0)` (both asserted by
    /// the crate's property tests).
    pub fn is_satisfied_by(&self, attrs: &BTreeSet<Attribute>) -> bool {
        self.policy.is_satisfied_by(attrs.iter())
    }
}

/// Recursive gate assignment (see module docs).
fn assign(node: &Policy, vec: Vec<Fr>, width: &mut usize, rows: &mut Vec<(Attribute, Vec<Fr>)>) {
    match node {
        Policy::Leaf(attr) => rows.push((attr.clone(), vec)),
        Policy::Or(children) | Policy::Threshold { k: 1, children } => {
            for child in children {
                assign(child, vec.clone(), width, rows);
            }
        }
        Policy::And(children) => {
            // Child t's links sit on fresh columns base + t − 1 (−1) and
            // base + t (+1).
            let base = *width;
            let links = children.len() - 1;
            *width += links;
            for (t, child) in children.iter().enumerate() {
                let mut v = if t == 0 { vec.clone() } else { Vec::new() };
                v.resize(base + links, Fr::zero());
                if t > 0 {
                    v[base + t - 1] = Fr::one().neg();
                }
                if t < links {
                    v[base + t] = Fr::one();
                }
                assign(child, v, width, rows);
            }
        }
        Policy::Threshold { k, children } => {
            let base = *width;
            *width += k - 1;
            for (idx, child) in children.iter().enumerate() {
                let j = Fr::from_u64(idx as u64 + 1);
                let mut v = vec.clone();
                v.resize(base, Fr::zero());
                let mut p = j;
                for _ in 0..k - 1 {
                    v.push(p);
                    p = p.mul(&j);
                }
                assign(child, v, width, rows);
            }
        }
    }
}

/// Reconstruction coefficients for the vector [`assign`] handed `node`:
/// `(row, w)` pairs in ascending row order over a smallest satisfying
/// subset of the held leaves under `node`, or `None` if `attrs` does not
/// satisfy it. `next` is the row of `node`'s first leaf on entry and one
/// past its last on return, so every child is walked, satisfied or not.
fn walk(node: &Policy, attrs: &dyn HeldAttributes, next: &mut usize) -> Option<Vec<(usize, Fr)>> {
    let (k, children) = match node {
        Policy::Leaf(attr) => {
            let row = *next;
            *next += 1;
            return attrs.holds(attr).then(|| vec![(row, Fr::one())]);
        }
        Policy::And(children) => {
            // Every child at 1, as the chain's vectors sum to the
            // parent's. Walk them all before failing, to advance `next`.
            let walked: Vec<_> = children.iter().map(|c| walk(c, attrs, next)).collect();
            return walked
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .map(|ws| ws.concat());
        }
        Policy::Or(children) => (1, children),
        Policy::Threshold { k, children } => (*k, children),
    };
    // The k satisfied children that use the fewest rows, ties to the
    // earlier child.
    let mut chosen: Vec<(u64, Vec<(usize, Fr)>)> = children
        .iter()
        .zip(1u64..)
        .filter_map(|(child, j)| Some((j, walk(child, attrs, next)?)))
        .collect();
    if chosen.len() < k {
        return None;
    }
    chosen.sort_by_key(|(_, w)| w.len());
    chosen.truncate(k);
    if k == 1 {
        // OR hands every child the parent's vector.
        return chosen.pop().map(|(_, w)| w);
    }
    // Back in child order, which is row order; scale each child by its
    // Lagrange coefficient at 0 over the chosen Vandermonde points.
    chosen.sort_by_key(|(j, _)| *j);
    let xs: Vec<Fr> = chosen.iter().map(|(j, _)| Fr::from_u64(*j)).collect();
    let mut out = Vec::new();
    for (i, (_, w)) in chosen.iter().enumerate() {
        let l = lagrange_at_zero(&xs, i);
        out.extend(w.iter().map(|(row, c)| (*row, c.mul(&l))));
    }
    Some(out)
}

/// `L_i(0) = Π_{m ≠ i} x_m / (x_m − x_i)` over distinct points `xs`.
fn lagrange_at_zero(xs: &[Fr], i: usize) -> Fr {
    let (mut num, mut den) = (Fr::one(), Fr::one());
    for (m, x) in xs.iter().enumerate() {
        if m != i {
            num = num.mul(x);
            den = den.mul(&x.sub(&xs[i]));
        }
    }
    num.mul(&den.invert().expect("distinct interpolation points"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(321)
    }

    fn structure(src: &str) -> AccessStructure {
        AccessStructure::from_policy(&parse(src).unwrap()).unwrap()
    }

    fn attrset(items: &[&str]) -> BTreeSet<Attribute> {
        items.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// End-to-end share → reconstruct check for a given attribute subset.
    fn roundtrip(structure: &AccessStructure, attrs: &BTreeSet<Attribute>) -> Option<Fr> {
        let mut r = rng();
        let secret = Fr::random(&mut r);
        let shares = structure.share(&secret, &mut r);
        let coeffs = structure.reconstruction_coefficients(attrs)?;
        let sum = coeffs
            .iter()
            .fold(Fr::zero(), |acc, (i, w)| acc.add(&w.mul(&shares[*i])));
        assert_eq!(sum, secret, "reconstructed secret mismatch");
        Some(sum)
    }

    #[test]
    fn single_leaf() {
        let s = structure("A@X");
        assert_eq!(s.rows(), 1);
        assert_eq!(s.width(), 1);
        assert!(roundtrip(&s, &attrset(&["A@X"])).is_some());
        assert!(s.reconstruction_coefficients(&attrset(&["B@X"])).is_none());
    }

    #[test]
    fn and_gate_needs_all() {
        let s = structure("A@X AND B@Y");
        assert_eq!(s.rows(), 2);
        assert!(roundtrip(&s, &attrset(&["A@X", "B@Y"])).is_some());
        assert!(s.reconstruction_coefficients(&attrset(&["A@X"])).is_none());
        assert!(s.reconstruction_coefficients(&attrset(&["B@Y"])).is_none());
    }

    #[test]
    fn or_gate_needs_one() {
        let s = structure("A@X OR B@Y");
        assert!(roundtrip(&s, &attrset(&["A@X"])).is_some());
        assert!(roundtrip(&s, &attrset(&["B@Y"])).is_some());
        assert!(s.reconstruction_coefficients(&attrset(&["C@Z"])).is_none());
    }

    #[test]
    fn threshold_two_of_three() {
        let s = structure("2 of (A@X, B@X, C@Y)");
        assert!(roundtrip(&s, &attrset(&["A@X", "B@X"])).is_some());
        assert!(roundtrip(&s, &attrset(&["A@X", "C@Y"])).is_some());
        assert!(roundtrip(&s, &attrset(&["B@X", "C@Y"])).is_some());
        assert!(s.reconstruction_coefficients(&attrset(&["A@X"])).is_none());
        assert!(roundtrip(&s, &attrset(&["A@X", "B@X", "C@Y"])).is_some());
    }

    #[test]
    fn nested_formula_exhaustive_subsets() {
        let s = structure("(A@X AND B@Y) OR 2 of (C@Z, D@Z, E@W)");
        let universe = ["A@X", "B@Y", "C@Z", "D@Z", "E@W"];
        // Every subset: LSSS acceptance must equal formula satisfaction.
        for mask in 0u32..(1 << universe.len()) {
            let subset: Vec<&str> = universe
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, s)| *s)
                .collect();
            let attrs = attrset(&subset);
            let formula_ok = s.is_satisfied_by(&attrs);
            let lsss_ok = s.reconstruction_coefficients(&attrs).is_some();
            assert_eq!(formula_ok, lsss_ok, "mismatch for subset {subset:?}");
            if lsss_ok {
                roundtrip(&s, &attrs).unwrap();
            }
        }
    }

    #[test]
    fn deep_nesting() {
        let s = structure("((A@P AND B@P) OR (C@Q AND D@Q)) AND (E@R OR F@R)");
        assert!(roundtrip(&s, &attrset(&["A@P", "B@P", "E@R"])).is_some());
        assert!(roundtrip(&s, &attrset(&["C@Q", "D@Q", "F@R"])).is_some());
        assert!(s
            .reconstruction_coefficients(&attrset(&["A@P", "B@P"]))
            .is_none());
        assert!(s
            .reconstruction_coefficients(&attrset(&["A@P", "C@Q", "E@R"]))
            .is_none());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let p = parse("A@X AND (A@X OR B@Y)").unwrap();
        assert_eq!(
            AccessStructure::from_policy(&p),
            Err(LsssError::DuplicateAttribute("A@X".parse().unwrap()))
        );
    }

    fn fr(v: i64) -> Fr {
        let m = Fr::from_u64(v.unsigned_abs());
        if v < 0 {
            m.neg()
        } else {
            m
        }
    }

    /// `M` with small signed integer entries.
    fn matrix<const N: usize>(rows: &[[i64; N]]) -> Vec<Vec<Fr>> {
        rows.iter().map(|r| r.map(fr).to_vec()).collect()
    }

    #[test]
    fn and_is_a_lewko_waters_chain() {
        let s = structure("A@X AND B@X AND C@X AND D@X");
        let want = [[1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]];
        assert_eq!(s.matrix(), matrix(&want));
        // Nested: the inner AND chains off the second child's vector.
        let s = structure("A@X AND (B@X OR (C@X AND D@X))");
        let want = [[1, 1, 0], [0, -1, 0], [0, -1, 1], [0, 0, -1]];
        assert_eq!(s.matrix(), matrix(&want));
    }

    #[test]
    fn explicit_n_of_n_keeps_the_vandermonde_tail() {
        let s = structure("3 of (A@X, B@X, C@X)");
        assert_eq!(s.matrix(), matrix(&[[1, 1, 1], [1, 2, 4], [1, 3, 9]]));
        let all = attrset(&["A@X", "B@X", "C@X"]);
        // Lagrange at 0 over {1, 2, 3}: (3, −3, 1).
        assert_eq!(
            s.reconstruction_coefficients(&all).unwrap(),
            vec![(0, fr(3)), (1, fr(-3)), (2, fr(1))]
        );
        assert!(roundtrip(&s, &all).is_some());
    }

    #[test]
    fn and_or_coefficients_are_all_one() {
        let s = structure("((A@P AND B@P) OR (C@Q AND D@Q)) AND (E@R OR F@R)");
        let w = s
            .reconstruction_coefficients(&attrset(&["C@Q", "D@Q", "E@R", "F@R"]))
            .unwrap();
        assert_eq!(w, vec![(2, fr(1)), (3, fr(1)), (4, fr(1))]);
    }

    #[test]
    fn the_walk_takes_the_children_that_use_the_fewest_rows() {
        // OR: the single leaf beats the two-leaf AND listed first.
        let s = structure("(A@X AND B@X) OR C@X");
        let w = s
            .reconstruction_coefficients(&attrset(&["A@X", "B@X", "C@X"]))
            .unwrap();
        assert_eq!(w, vec![(2, fr(1))]);
        // 2-of-3: children 1 and 3 (one row each), scaled by Lagrange
        // at 0 over {1, 3}: (3/2, −1/2).
        let s = structure("2 of (A@X, (B@X AND C@X), D@X)");
        let held = attrset(&["A@X", "B@X", "C@X", "D@X"]);
        let half = fr(2).invert().unwrap();
        assert_eq!(
            s.reconstruction_coefficients(&held).unwrap(),
            vec![(0, fr(3).mul(&half)), (3, fr(-1).mul(&half))]
        );
        assert!(roundtrip(&s, &held).is_some());
    }

    #[test]
    fn matrix_dimensions() {
        // AND of n leaves: l = n rows, width = n.
        let s = structure("A@X AND B@X AND C@X AND D@X");
        assert_eq!(s.rows(), 4);
        assert_eq!(s.width(), 4);
        // OR adds no columns.
        let s = structure("A@X OR B@X OR C@X");
        assert_eq!(s.rows(), 3);
        assert_eq!(s.width(), 1);
        // 2-of-3 adds one column.
        let s = structure("2 of (A@X, B@X, C@X)");
        assert_eq!(s.rows(), 3);
        assert_eq!(s.width(), 2);
    }

    #[test]
    fn authority_partitioning() {
        let s = structure("A@X AND B@Y AND C@X");
        let auths = s.authorities();
        assert_eq!(auths.len(), 2);
        assert_eq!(s.rows_for_authority(&AuthorityId::new("X")), vec![0, 2]);
        assert_eq!(s.rows_for_authority(&AuthorityId::new("Y")), vec![1]);
        assert!(s.rows_for_authority(&AuthorityId::new("Z")).is_empty());
    }

    #[test]
    fn shares_hide_secret_from_unauthorized_rows() {
        // For an AND gate, a single share is independent of the secret:
        // sharing the same secret twice yields different single shares.
        let s = structure("A@X AND B@Y");
        let secret = Fr::from_u64(5);
        let mut r = rng();
        let sh1 = s.share(&secret, &mut r);
        let sh2 = s.share(&secret, &mut r);
        assert_ne!(sh1[0], sh2[0], "share should be randomized");
    }

    #[test]
    fn extra_attributes_do_not_hurt() {
        let s = structure("A@X AND B@Y");
        let attrs = attrset(&["A@X", "B@Y", "C@Z", "D@W"]);
        assert!(roundtrip(&s, &attrs).is_some());
    }
}
