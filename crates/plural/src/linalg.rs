//! Exact rational linear algebra.
//!
//! PLURAL's local permission inference "relies upon Gaussian Elimination to
//! find satisfying fractional permission assignments" (paper §4.2, citing
//! Bierhoff's thesis ch. 5). This module provides that substrate: solving
//! `A·x = b` over exact [`Fraction`]s with partial pivoting, reporting rank,
//! consistency and a particular solution (free variables pinned to zero).
//! It is the dense textbook reference for [`crate::sparse::solve_sparse`],
//! which production runs use; a differential test below holds the two to
//! the same answers on random small systems.

use crate::sparse::SignedFrac;
use spec_lang::Fraction;

/// Outcome of [`solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Whether the system is consistent.
    pub consistent: bool,
    /// Rank of the coefficient matrix.
    pub rank: usize,
    /// A particular solution (free variables set to zero); empty when
    /// inconsistent.
    pub values: Vec<Fraction>,
    /// Indices of free (underdetermined) variables.
    pub free: Vec<usize>,
}

/// A dense matrix of fractions in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Fraction>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![Fraction::ZERO; rows * cols] }
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged.
    pub fn from_rows(rows: Vec<Vec<Fraction>>) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged matrix rows");
        Matrix { rows: r, cols: c, data: rows.into_iter().flatten().collect() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> Fraction {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: Fraction) {
        self.data[r * self.cols + c] = v;
    }
}

/// Solves `A·x = b` by Gaussian elimination with partial (first-nonzero)
/// pivoting over exact rationals.
///
/// Negative solution components are clamped into the result as zero with
/// `consistent` still true only if they are genuinely representable — the
/// permission systems we build are conservation systems whose solutions are
/// non-negative, so a negative component is reported by `consistent =
/// false`.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
// Row operations read two rows of `m` at once (pivot row + eliminated row),
// which rules out the iterator form needless_range_loop suggests.
#[allow(clippy::needless_range_loop)]
pub fn solve(a: &Matrix, b: &[Fraction]) -> Solution {
    assert_eq!(b.len(), a.rows(), "rhs length must match row count");
    let rows = a.rows();
    let cols = a.cols();
    // Augmented signed working copy: fractions are non-negative by
    // construction, but elimination needs signed intermediates.
    let mut m: Vec<Vec<SignedFrac>> = (0..rows)
        .map(|r| {
            let mut row: Vec<SignedFrac> =
                (0..cols).map(|c| SignedFrac::from(a.get(r, c))).collect();
            row.push(SignedFrac::from(b[r]));
            row
        })
        .collect();

    let mut pivot_col_of_row: Vec<Option<usize>> = vec![None; rows];
    let mut rank = 0usize;
    let mut col = 0usize;
    while rank < rows && col < cols {
        // Find pivot.
        let Some(p) = (rank..rows).find(|&r| !m[r][col].is_zero()) else {
            col += 1;
            continue;
        };
        m.swap(rank, p);
        // Normalize pivot row.
        let pv = m[rank][col];
        for c in col..=cols {
            m[rank][c] = m[rank][c].div(pv);
        }
        // Eliminate everywhere else.
        for r in 0..rows {
            if r != rank && !m[r][col].is_zero() {
                let f = m[r][col];
                for c in col..=cols {
                    let delta = f.mul(m[rank][c]);
                    m[r][c] = m[r][c].sub(delta);
                }
            }
        }
        pivot_col_of_row[rank] = Some(col);
        rank += 1;
        col += 1;
    }

    // Inconsistency: zero row with non-zero rhs.
    for r in rank..rows {
        if !m[r][cols].is_zero() {
            return Solution { consistent: false, rank, values: Vec::new(), free: Vec::new() };
        }
    }

    let pivot_cols: Vec<usize> = pivot_col_of_row.iter().flatten().copied().collect();
    let free: Vec<usize> = (0..cols).filter(|c| !pivot_cols.contains(c)).collect();
    let mut values = vec![Fraction::ZERO; cols];
    let mut consistent = true;
    for (r, &pc) in pivot_cols.iter().enumerate() {
        let v = m[r][cols];
        if v.neg && !v.is_zero() {
            consistent = false;
        } else {
            values[pc] = v.mag;
        }
    }
    Solution { consistent, rank, values, free }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{solve_sparse, SparseRow};
    use std::cell::Cell;

    fn f(n: i64, d: i64) -> Fraction {
        Fraction::new(n, d).unwrap()
    }

    #[test]
    fn solves_identity() {
        let a = Matrix::from_rows(vec![vec![f(1, 1), f(0, 1)], vec![f(0, 1), f(1, 1)]]);
        let s = solve(&a, &[f(1, 2), f(1, 3)]);
        assert!(s.consistent);
        assert_eq!(s.rank, 2);
        assert_eq!(s.values, vec![f(1, 2), f(1, 3)]);
        assert!(s.free.is_empty());
    }

    #[test]
    fn solves_coupled_system() {
        // x + y = 1 ; x - ... all-positive variant: x + y = 1; x + 2y = 3/2
        // → y = 1/2, x = 1/2.
        let a = Matrix::from_rows(vec![vec![f(1, 1), f(1, 1)], vec![f(1, 1), f(2, 1)]]);
        let s = solve(&a, &[f(1, 1), f(3, 2)]);
        assert!(s.consistent);
        assert_eq!(s.values, vec![f(1, 2), f(1, 2)]);
    }

    #[test]
    fn detects_inconsistency() {
        // x + y = 1 ; x + y = 2.
        let a = Matrix::from_rows(vec![vec![f(1, 1), f(1, 1)], vec![f(1, 1), f(1, 1)]]);
        let s = solve(&a, &[f(1, 1), f(2, 1)]);
        assert!(!s.consistent);
    }

    #[test]
    fn underdetermined_reports_free_vars() {
        // x + y = 1 with one equation: y free.
        let a = Matrix::from_rows(vec![vec![f(1, 1), f(1, 1)]]);
        let s = solve(&a, &[f(1, 1)]);
        assert!(s.consistent);
        assert_eq!(s.rank, 1);
        assert_eq!(s.free, vec![1]);
        // Particular solution with free var pinned to 0.
        assert_eq!(s.values[0], f(1, 1));
        assert_eq!(s.values[1], f(0, 1));
    }

    #[test]
    fn conservation_system_splits_fraction() {
        // A split: parent = c1 + c2, with parent = 1 and c1 = c2.
        // Equations: x_p = 1 ; x_p - x_1 - x_2 = 0 ; x_1 - x_2 = 0.
        // Signed arithmetic is internal; express with positive coefficients
        // by moving terms: x_1 + x_2 = x_p → row [1, 1, -1]… we encode the
        // subtraction via solve's signed core by using from_rows with zero
        // and positive entries on both sides:
        //   x_p                = 1
        //   x_1 + x_2          = 1   (substituting x_p)
        //   x_1        - x_2   = 0   → encoded as x_1 = x_2 via two rows
        let a = Matrix::from_rows(vec![
            vec![f(1, 1), f(0, 1), f(0, 1)],
            vec![f(0, 1), f(1, 1), f(1, 1)],
            vec![f(0, 1), f(2, 1), f(0, 1)], // 2*x1 = 1 → x1 = 1/2
        ]);
        let s = solve(&a, &[f(1, 1), f(1, 1), f(1, 1)]);
        assert!(s.consistent);
        assert_eq!(s.values, vec![f(1, 1), f(1, 2), f(1, 2)]);
    }

    #[test]
    fn larger_random_like_system_round_trips() {
        // Construct A and x, compute b = A·x, then recover x.
        let a = Matrix::from_rows(vec![
            vec![f(2, 1), f(1, 3), f(0, 1), f(1, 1)],
            vec![f(0, 1), f(1, 1), f(1, 2), f(0, 1)],
            vec![f(1, 1), f(0, 1), f(1, 1), f(1, 4)],
            vec![f(0, 1), f(0, 1), f(0, 1), f(1, 1)],
        ]);
        let x = [f(1, 2), f(1, 3), f(1, 5), f(1, 7)];
        let mut b = Vec::new();
        for r in 0..4 {
            let mut acc = Fraction::ZERO;
            for (c, xc) in x.iter().enumerate() {
                acc = acc + a.get(r, c) * *xc;
            }
            b.push(acc);
        }
        let s = solve(&a, &b);
        assert!(s.consistent);
        assert_eq!(s.values, x.to_vec());
    }

    #[test]
    fn zero_matrix_with_zero_rhs_is_all_free() {
        let a = Matrix::zeros(2, 3);
        let s = solve(&a, &[Fraction::ZERO, Fraction::ZERO]);
        assert!(s.consistent);
        assert_eq!(s.rank, 0);
        assert_eq!(s.free.len(), 3);
    }

    /// A random small system over small non-negative integers. Some rows
    /// are `k·row_i + row_j` of earlier rows (rank deficiency), and the
    /// right-hand side is either `A·x` for a random non-negative `x`,
    /// possibly with one entry bumped (which makes a system with dependent
    /// rows inconsistent), or fully random.
    fn random_system(rng: &mut prng::Rng) -> (Matrix, Vec<Fraction>) {
        let (rows, cols) = (rng.gen_index(1..5), rng.gen_index(1..5));
        let mut a = Matrix::zeros(rows, cols);
        for r in 0..rows {
            if r >= 2 && rng.gen_bool(0.35) {
                let (i, j) = (rng.gen_index(0..r), rng.gen_index(0..r));
                let k = Fraction::from(rng.gen_index(1..3) as u32);
                for c in 0..cols {
                    a.set(r, c, k * a.get(i, c) + a.get(j, c));
                }
            } else {
                for c in 0..cols {
                    let v = if rng.gen_bool(0.4) { 0 } else { rng.gen_index(1..4) };
                    a.set(r, c, Fraction::from(v as u32));
                }
            }
        }
        let mut b: Vec<Fraction> = if rng.gen_bool(0.2) {
            (0..rows).map(|_| Fraction::from(rng.gen_index(0..4) as u32)).collect()
        } else {
            let x: Vec<Fraction> =
                (0..cols).map(|_| f(rng.gen_range(0..4), rng.gen_range(1..4))).collect();
            (0..rows)
                .map(|r| (0..cols).fold(Fraction::ZERO, |acc, c| acc + a.get(r, c) * x[c]))
                .collect()
        };
        if rng.gen_bool(0.3) {
            let r = rng.gen_index(0..rows);
            b[r] = b[r] + Fraction::ONE;
        }
        (a, b)
    }

    #[test]
    fn dense_and_sparse_solvers_agree_on_random_systems() {
        let (deficient, inconsistent, negative) = (Cell::new(0), Cell::new(0), Cell::new(0));
        prng::forall("dense vs sparse elimination", 600, |rng| {
            let (a, b) = random_system(rng);
            let rows: Vec<SparseRow> = (0..a.rows())
                .map(|r| {
                    let mut row = SparseRow::new();
                    for c in 0..a.cols() {
                        row.add_coeff(c, SignedFrac::from(a.get(r, c)));
                    }
                    row.rhs = SignedFrac::from(b[r]);
                    row
                })
                .collect();
            let dense = solve(&a, &b);
            let sparse = solve_sparse(rows, a.cols());

            assert_eq!(dense.rank, sparse.rank, "rank of {a:?}");
            // The dense solver also rejects a solution with a negative
            // component; everywhere else the two agree on consistency.
            let nonnegative = sparse.values.iter().all(|v| !v.neg);
            if sparse.consistent && !nonnegative {
                negative.set(negative.get() + 1);
                assert!(!dense.consistent, "negative solution accepted for {a:?}, {b:?}");
            } else {
                assert_eq!(dense.consistent, sparse.consistent, "{a:?}, {b:?}");
            }
            deficient.set(deficient.get() + usize::from(dense.rank < a.rows().min(a.cols())));
            inconsistent.set(inconsistent.get() + usize::from(!sparse.consistent));

            // Each particular solution satisfies A·x = b.
            for (r, &rhs) in b.iter().enumerate() {
                if sparse.consistent {
                    let lhs = (0..a.cols()).fold(SignedFrac::ZERO, |acc, c| {
                        acc.add(SignedFrac::from(a.get(r, c)).mul(sparse.values[c]))
                    });
                    assert_eq!(lhs, SignedFrac::from(rhs), "sparse row {r} of {a:?}");
                }
                if dense.consistent {
                    let lhs = (0..a.cols())
                        .fold(Fraction::ZERO, |acc, c| acc + a.get(r, c) * dense.values[c]);
                    assert_eq!(lhs, rhs, "dense row {r} of {a:?}");
                }
            }
        });
        // The generator reaches every case the comparison distinguishes.
        for (what, n) in
            [("rank-deficient", deficient), ("inconsistent", inconsistent), ("negative", negative)]
        {
            assert!(n.get() > 0, "no {what} system generated");
        }
    }
}
