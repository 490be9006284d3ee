//! Sparse Gaussian elimination over signed exact rationals.
//!
//! The fractional-permission systems of [`crate::local_infer()`](crate::local_infer::local_infer) are large but
//! extremely sparse (each conservation equation touches a handful of edges),
//! and nearly tree-structured, so sparse elimination has little fill-in
//! where the dense [`crate::linalg`] solver would need gigabytes at the
//! paper's 400-line scale.

use spec_lang::Fraction;
use std::collections::BTreeMap;

/// A signed exact rational: `(negative?, magnitude)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignedFrac {
    /// Whether the value is negative.
    pub neg: bool,
    /// Absolute value.
    pub mag: Fraction,
}

impl SignedFrac {
    /// Positive one.
    pub const ONE: SignedFrac = SignedFrac { neg: false, mag: Fraction::ONE };
    /// Zero.
    pub const ZERO: SignedFrac = SignedFrac { neg: false, mag: Fraction::ZERO };

    /// Negative one.
    pub fn neg_one() -> SignedFrac {
        SignedFrac { neg: true, mag: Fraction::ONE }
    }

    /// From an unsigned fraction.
    pub fn from(mag: Fraction) -> SignedFrac {
        SignedFrac { neg: false, mag }
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.mag.is_zero()
    }

    fn neg(self) -> SignedFrac {
        SignedFrac { neg: !self.neg && !self.is_zero(), mag: self.mag }
    }

    pub(crate) fn add(self, other: SignedFrac) -> SignedFrac {
        match (self.neg, other.neg) {
            (false, false) => SignedFrac { neg: false, mag: self.mag + other.mag },
            (true, true) => SignedFrac { neg: true, mag: self.mag + other.mag },
            (false, true) => {
                if self.mag >= other.mag {
                    SignedFrac { neg: false, mag: self.mag - other.mag }
                } else {
                    SignedFrac { neg: true, mag: other.mag - self.mag }
                }
            }
            (true, false) => other.add(self),
        }
    }

    pub(crate) fn sub(self, other: SignedFrac) -> SignedFrac {
        self.add(other.neg())
    }

    pub(crate) fn mul(self, other: SignedFrac) -> SignedFrac {
        let mag = self.mag * other.mag;
        SignedFrac { neg: self.neg != other.neg && !mag.is_zero(), mag }
    }

    pub(crate) fn div(self, other: SignedFrac) -> SignedFrac {
        let mag = self.mag / other.mag;
        SignedFrac { neg: self.neg != other.neg && !mag.is_zero(), mag }
    }
}

/// One sparse equation: `sum(coeff_i · x_i) = rhs`.
#[derive(Debug, Clone, Default)]
pub struct SparseRow {
    /// Non-zero coefficients by column.
    pub coeffs: BTreeMap<usize, SignedFrac>,
    /// Right-hand side.
    pub rhs: SignedFrac,
}

impl SparseRow {
    /// An empty row (0 = 0).
    pub fn new() -> SparseRow {
        SparseRow::default()
    }

    /// Adds `v` to the coefficient of `col` (dropping zeros).
    pub fn add_coeff(&mut self, col: usize, v: SignedFrac) {
        let cur = self.coeffs.get(&col).copied().unwrap_or(SignedFrac::ZERO);
        let new = cur.add(v);
        if new.is_zero() {
            self.coeffs.remove(&col);
        } else {
            self.coeffs.insert(col, new);
        }
    }
}

/// Result of sparse elimination.
#[derive(Debug, Clone)]
pub struct SparseSolution {
    /// Whether the system is consistent.
    pub consistent: bool,
    /// A particular solution (free variables zero); signed values.
    pub values: Vec<SignedFrac>,
    /// Rank.
    pub rank: usize,
}

/// Solves a sparse system by Gaussian elimination with a min-degree-ish
/// pivot choice (smallest row touching the column).
pub fn solve_sparse(mut rows: Vec<SparseRow>, n_vars: usize) -> SparseSolution {
    // Column -> rows currently containing it.
    let mut rows_of_col: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
    for (ri, r) in rows.iter().enumerate() {
        for &c in r.coeffs.keys() {
            rows_of_col[c].push(ri);
        }
    }
    let mut used = vec![false; rows.len()];
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; n_vars];
    let mut rank = 0usize;

    // Iterate to a fixpoint: elimination can introduce a previously-skipped
    // column into rows that would now pivot on it.
    loop {
        let mut progress = false;
        for col in 0..n_vars {
            if pivot_of_col[col].is_some() {
                continue;
            }
            // Pick the unused row containing `col` with the fewest
            // coefficients (a cheap min-degree heuristic against fill-in).
            let candidates: Vec<usize> = rows_of_col[col]
                .iter()
                .copied()
                .filter(|&ri| !used[ri] && rows[ri].coeffs.contains_key(&col))
                .collect();
            let Some(&pivot_row) = candidates.iter().min_by_key(|&&ri| rows[ri].coeffs.len())
            else {
                continue;
            };
            used[pivot_row] = true;
            pivot_of_col[col] = Some(pivot_row);
            rank += 1;
            progress = true;

            // Normalize the pivot row.
            let pv = rows[pivot_row].coeffs[&col];
            if pv != SignedFrac::ONE {
                let coeffs: Vec<(usize, SignedFrac)> =
                    rows[pivot_row].coeffs.iter().map(|(&c, &v)| (c, v.div(pv))).collect();
                rows[pivot_row].coeffs = coeffs.into_iter().collect();
                rows[pivot_row].rhs = rows[pivot_row].rhs.div(pv);
            }

            // Eliminate `col` from every other row containing it.
            let touching: Vec<usize> = rows_of_col[col]
                .iter()
                .copied()
                .filter(|&ri| ri != pivot_row && rows[ri].coeffs.contains_key(&col))
                .collect();
            let pivot_coeffs: Vec<(usize, SignedFrac)> =
                rows[pivot_row].coeffs.iter().map(|(&c, &v)| (c, v)).collect();
            let pivot_rhs = rows[pivot_row].rhs;
            for ri in touching {
                // A row that lost `col` to cancellation and later regained
                // it is listed twice; its first visit already eliminated it.
                let Some(&factor) = rows[ri].coeffs.get(&col) else { continue };
                for &(c, v) in &pivot_coeffs {
                    let cur = rows[ri].coeffs.get(&c).copied().unwrap_or(SignedFrac::ZERO);
                    let new = cur.sub(factor.mul(v));
                    let had = rows[ri].coeffs.contains_key(&c);
                    if new.is_zero() {
                        rows[ri].coeffs.remove(&c);
                    } else {
                        rows[ri].coeffs.insert(c, new);
                        if !had {
                            rows_of_col[c].push(ri);
                        }
                    }
                }
                rows[ri].rhs = rows[ri].rhs.sub(factor.mul(pivot_rhs));
            }
        }
        if !progress {
            break;
        }
    }

    // Consistency: any remaining non-pivot row must be 0 = 0.
    for (ri, r) in rows.iter().enumerate() {
        if !used[ri] && r.coeffs.is_empty() && !r.rhs.is_zero() {
            return SparseSolution { consistent: false, values: Vec::new(), rank };
        }
    }

    // Back-substitution is unnecessary: full (Gauss-Jordan style) elimination
    // above already isolated each pivot column; read values off pivot rows,
    // pinning free variables to zero.
    let mut values = vec![SignedFrac::ZERO; n_vars];
    for col in 0..n_vars {
        if let Some(ri) = pivot_of_col[col] {
            // Any remaining columns in the pivot row are free (pinned to
            // zero), so the pivot value is simply the row's rhs.
            values[col] = rows[ri].rhs;
        }
    }
    SparseSolution { consistent: true, values, rank }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: i64, d: i64) -> SignedFrac {
        SignedFrac::from(Fraction::new(n, d).unwrap())
    }

    fn row(coeffs: &[(usize, SignedFrac)], rhs: SignedFrac) -> SparseRow {
        let mut r = SparseRow::new();
        for &(c, v) in coeffs {
            r.add_coeff(c, v);
        }
        r.rhs = rhs;
        r
    }

    #[test]
    fn solves_small_system() {
        // x0 + x1 = 1 ; x0 - x1 = 0  => x0 = x1 = 1/2.
        let rows = vec![
            row(&[(0, SignedFrac::ONE), (1, SignedFrac::ONE)], f(1, 1)),
            row(&[(0, SignedFrac::ONE), (1, SignedFrac::neg_one())], SignedFrac::ZERO),
        ];
        let s = solve_sparse(rows, 2);
        assert!(s.consistent);
        assert_eq!(s.rank, 2);
        assert_eq!(s.values[0], f(1, 2));
        assert_eq!(s.values[1], f(1, 2));
    }

    #[test]
    fn detects_inconsistency() {
        let rows =
            vec![row(&[(0, SignedFrac::ONE)], f(1, 1)), row(&[(0, SignedFrac::ONE)], f(2, 1))];
        let s = solve_sparse(rows, 1);
        assert!(!s.consistent);
    }

    #[test]
    fn free_variables_are_zero() {
        // x0 + x2 = 1; x1 free.
        let rows = vec![row(&[(0, SignedFrac::ONE), (2, SignedFrac::ONE)], f(1, 1))];
        let s = solve_sparse(rows, 3);
        assert!(s.consistent);
        assert_eq!(s.rank, 1);
        // One of x0/x2 is the pivot carrying 1, the other free (0); x1 = 0.
        let sum = s.values[0].mag + s.values[2].mag;
        assert_eq!(sum, Fraction::ONE);
        assert!(s.values[1].is_zero());
    }

    #[test]
    fn signed_arithmetic_laws() {
        let a = f(3, 4);
        let b = f(1, 4).neg();
        assert_eq!(a.add(b), f(1, 2));
        assert_eq!(b.add(a), f(1, 2));
        assert_eq!(a.sub(a), SignedFrac::ZERO);
        assert_eq!(a.mul(b), f(3, 16).neg());
        assert_eq!(b.div(b), SignedFrac::ONE);
        assert!(!SignedFrac::ZERO.neg().neg);
    }

    #[test]
    fn conservation_chain_scales() {
        // A chain: x0 = 1, x_{i} - x_{i+1} = 0 — exercise sparse elimination
        // on a long, sparse system.
        let n = 2000usize;
        let mut rows = vec![row(&[(0, SignedFrac::ONE)], f(1, 1))];
        for i in 0..n - 1 {
            rows.push(row(
                &[(i, SignedFrac::ONE), (i + 1, SignedFrac::neg_one())],
                SignedFrac::ZERO,
            ));
        }
        let s = solve_sparse(rows, n);
        assert!(s.consistent);
        assert_eq!(s.rank, n);
        assert_eq!(s.values[n - 1], f(1, 1));
    }
}
