//! Dense linear algebra over the scalar field `F_r`.
//!
//! Used for the security game's span checks (paper §III-B: the
//! challenge access structure must satisfy `(1,0,…,0) ∉ span(V ∪
//! V_UID)`), and by the tests as the oracle for the LSSS
//! reconstruction walk.

use mabe_math::Fr;

/// Solves `A · x = b` over `F_r` by Gauss–Jordan elimination.
///
/// `a` is row-major with `rows × cols` entries; `b` has `rows` entries.
/// Returns one particular solution (free variables set to zero), or `None`
/// if the system is inconsistent.
///
/// # Panics
///
/// Panics if row lengths are inconsistent with `b`.
#[allow(clippy::needless_range_loop)] // elimination touches two rows of `m` at once
pub fn solve(a: &[Vec<Fr>], b: &[Fr]) -> Option<Vec<Fr>> {
    let rows = a.len();
    assert_eq!(rows, b.len(), "matrix/vector dimension mismatch");
    let cols = a.first().map_or(0, Vec::len);
    for row in a {
        assert_eq!(row.len(), cols, "ragged matrix");
    }

    // Augmented working copy.
    let mut m: Vec<Vec<Fr>> = a
        .iter()
        .zip(b.iter())
        .map(|(row, rhs)| {
            let mut r = row.clone();
            r.push(*rhs);
            r
        })
        .collect();

    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut pivot_row = 0usize;
    for col in 0..cols {
        // Find a pivot.
        let Some(found) = (pivot_row..rows).find(|&r| !m[r][col].is_zero()) else {
            continue;
        };
        m.swap(pivot_row, found);
        // Normalize.
        let inv = m[pivot_row][col].invert().expect("pivot nonzero");
        for entry in m[pivot_row].iter_mut() {
            *entry = entry.mul(&inv);
        }
        // Eliminate everywhere else.
        for r in 0..rows {
            if r != pivot_row && !m[r][col].is_zero() {
                let factor = m[r][col];
                for c in 0..=cols {
                    let delta = factor.mul(&m[pivot_row][c]);
                    m[r][c] = m[r][c].sub(&delta);
                }
            }
        }
        pivot_cols.push(col);
        pivot_row += 1;
        if pivot_row == rows {
            break;
        }
    }

    // Inconsistency: a zero row with nonzero rhs.
    for r in pivot_row..rows {
        if m[r][..cols].iter().all(Fr::is_zero) && !m[r][cols].is_zero() {
            return None;
        }
    }

    let mut x = vec![Fr::zero(); cols];
    for (r, &col) in pivot_cols.iter().enumerate() {
        x[col] = m[r][cols];
    }
    Some(x)
}

/// `true` iff `target` lies in the row span of `rows`.
pub fn in_span(rows: &[Vec<Fr>], target: &[Fr]) -> bool {
    if rows.is_empty() {
        return target.iter().all(Fr::is_zero);
    }
    // Solve rowsᵀ · w = target.
    let cols = target.len();
    let transposed: Vec<Vec<Fr>> = (0..cols)
        .map(|c| rows.iter().map(|row| row[c]).collect())
        .collect();
    solve(&transposed, target).is_some()
}

/// Computes `M · v` for a row-major matrix.
pub fn mat_vec(m: &[Vec<Fr>], v: &[Fr]) -> Vec<Fr> {
    m.iter()
        .map(|row| {
            assert_eq!(row.len(), v.len(), "dimension mismatch");
            row.iter()
                .zip(v.iter())
                .fold(Fr::zero(), |acc, (a, b)| acc.add(&a.mul(b)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> Fr {
        Fr::from_u64(v)
    }

    #[test]
    fn solve_identity_system() {
        let a = vec![vec![fe(1), fe(0)], vec![fe(0), fe(1)]];
        let b = vec![fe(3), fe(4)];
        assert_eq!(solve(&a, &b).unwrap(), vec![fe(3), fe(4)]);
    }

    #[test]
    fn solve_requires_elimination() {
        // 2x + y = 5, x + y = 3 → x = 2, y = 1
        let a = vec![vec![fe(2), fe(1)], vec![fe(1), fe(1)]];
        let b = vec![fe(5), fe(3)];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, vec![fe(2), fe(1)]);
    }

    #[test]
    fn solve_inconsistent() {
        // x + y = 1, x + y = 2 → none
        let a = vec![vec![fe(1), fe(1)], vec![fe(1), fe(1)]];
        let b = vec![fe(1), fe(2)];
        assert!(solve(&a, &b).is_none());
    }

    #[test]
    fn solve_underdetermined_picks_particular() {
        // x + y = 4 with free y → solution must satisfy the equation.
        let a = vec![vec![fe(1), fe(1)]];
        let b = vec![fe(4)];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x[0].add(&x[1]), fe(4));
    }

    #[test]
    fn solve_overdetermined_consistent() {
        let a = vec![vec![fe(1), fe(0)], vec![fe(0), fe(1)], vec![fe(1), fe(1)]];
        let b = vec![fe(2), fe(3), fe(5)];
        assert_eq!(solve(&a, &b).unwrap(), vec![fe(2), fe(3)]);
    }

    #[test]
    fn in_span_basic() {
        let rows = vec![vec![fe(1), fe(0), fe(0)], vec![fe(0), fe(1), fe(0)]];
        assert!(in_span(&rows, &[fe(5), fe(7), fe(0)]));
        assert!(!in_span(&rows, &[fe(0), fe(0), fe(1)]));
        assert!(in_span(&[], &[fe(0), fe(0)]));
        assert!(!in_span(&[], &[fe(1), fe(0)]));
    }

    #[test]
    fn mat_vec_matches_manual() {
        let m = vec![vec![fe(1), fe(2)], vec![fe(3), fe(4)]];
        let v = vec![fe(5), fe(6)];
        assert_eq!(mat_vec(&m, &v), vec![fe(17), fe(39)]);
    }

    #[test]
    fn solve_with_zero_columns() {
        let a = vec![vec![fe(0), fe(1)], vec![fe(0), fe(2)]];
        let b = vec![fe(1), fe(2)];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x[1], fe(1));
    }
}
