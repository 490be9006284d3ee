//! Variables and factors over binary (Bernoulli) domains.
//!
//! The paper's probabilistic constraints (Eq. 5–6) are "functions having a
//! small number of variables as arguments with the interval (0, 1] as range".
//! A [`Factor`] here is exactly that: a tabulated potential over the joint
//! assignments of its (boolean) scope, its [`Table`] shareable between
//! factors.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::kernel::FoldProgram;

/// Identifier of a variable within a [`crate::FactorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Maximum number of variables a single factor may couple. Potentials are
/// tabulated, so the table has `2^scope` entries; 16 keeps that at 64Ki.
pub const MAX_SCOPE: usize = 16;

/// The tabulated potentials of a factor, shareable between factors.
///
/// `cells()[i]` is the potential of the assignment whose bit `j` (of `i`)
/// gives the value of scope position `j` — i.e. scope position 0 is the
/// least-significant bit.
///
/// Factors hold their table behind an `Arc`, so factors built from one
/// table share it: a model draws its factors from a few (constraint,
/// arity, strength) triples, and a caller that tabulates each triple once
/// and hands every factor a clone of the same `Arc` ([`Factor::new`]) pays
/// one tabulation instead of one per factor. A table of arity three or more
/// also carries the kernel's fold program for it, built at the first
/// compile that needs it, so every graph compiled from a shared table
/// shares one program.
pub struct Table {
    cells: Box<[f64]>,
    program: OnceLock<Arc<FoldProgram>>,
}

impl Table {
    /// Tabulates `f` on every assignment of `arity` variables.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or exceeds [`MAX_SCOPE`], or if `f` returns
    /// a non-finite or negative potential.
    pub fn from_fn(arity: usize, f: impl Fn(&[bool]) -> f64) -> Table {
        assert!(arity > 0, "factor scope must be non-empty");
        assert!(arity <= MAX_SCOPE, "factor scope of {arity} exceeds {MAX_SCOPE}");
        let mut assign = [false; MAX_SCOPE];
        let assign = &mut assign[..arity];
        let cells = (0u32..1 << arity)
            .map(|bits| {
                for (j, a) in assign.iter_mut().enumerate() {
                    *a = bits & (1 << j) != 0;
                }
                let v = f(assign);
                assert!(v.is_finite() && v >= 0.0, "potential must be finite and non-negative");
                v
            })
            .collect();
        Table::from_cells(cells)
    }

    /// A soft constraint's table (paper Eq. 6): potential `h` where `pred`
    /// holds and `1 - h` where it does not.
    ///
    /// # Panics
    ///
    /// Panics if `h` is outside `(0, 1)` or on the conditions of
    /// [`Table::from_fn`].
    pub fn soft(arity: usize, h: f64, pred: impl Fn(&[bool]) -> bool) -> Table {
        assert!(h > 0.0 && h < 1.0, "constraint strength must lie strictly in (0, 1)");
        Table::from_fn(arity, |a| if pred(a) { h } else { 1.0 - h })
    }

    /// A unary prior's table: potential `p` for true, `1 - p` for false.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn unary(p: f64) -> Table {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        Table::from_cells(Box::new([1.0 - p, p]))
    }

    fn from_cells(cells: Box<[f64]>) -> Table {
        Table { cells, program: OnceLock::new() }
    }

    /// The potentials (see type-level docs for indexing).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// The fold program of this table (arity three or more), built on its
    /// first use.
    pub(crate) fn program(&self) -> &Arc<FoldProgram> {
        self.program.get_or_init(|| {
            Arc::new(FoldProgram::build(&self.cells, self.cells.len().trailing_zeros() as usize))
        })
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.cells == other.cells
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table").field("cells", &self.cells).finish_non_exhaustive()
    }
}

/// A potential function over the boolean assignments of a variable scope:
/// the scope, and its [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    scope: Vec<VarId>,
    table: Arc<Table>,
}

/// Checks the scope conditions every validating constructor shares.
fn check_scope(scope: &[VarId]) {
    assert!(!scope.is_empty(), "factor scope must be non-empty");
    assert!(scope.len() <= MAX_SCOPE, "factor scope of {} exceeds {MAX_SCOPE}", scope.len());
    for (i, v) in scope.iter().enumerate() {
        assert!(!scope[..i].contains(v), "duplicate variable in factor scope");
    }
}

impl Factor {
    /// A factor over `scope` with a (possibly shared) table.
    ///
    /// # Panics
    ///
    /// Panics if the scope is empty, exceeds [`MAX_SCOPE`] or contains
    /// duplicate variables, or if the table does not hold `2^scope`
    /// potentials.
    pub fn new(scope: Vec<VarId>, table: Arc<Table>) -> Factor {
        check_scope(&scope);
        assert_eq!(
            table.cells.len(),
            1 << scope.len(),
            "table size does not match a scope of {}",
            scope.len()
        );
        Factor { scope, table }
    }

    /// Builds a factor by evaluating `f` on every assignment of `scope`.
    ///
    /// # Panics
    ///
    /// Panics if the scope is empty, exceeds [`MAX_SCOPE`], contains
    /// duplicate variables, or if `f` returns a non-finite or negative
    /// potential.
    pub fn from_fn(scope: Vec<VarId>, f: impl Fn(&[bool]) -> f64) -> Factor {
        check_scope(&scope);
        let table = Arc::new(Table::from_fn(scope.len(), f));
        Factor { scope, table }
    }

    /// A soft constraint (paper Eq. 6): potential `h` where `pred` holds and
    /// `1 - h` where it does not.
    ///
    /// # Panics
    ///
    /// Panics if `h` is outside `(0, 1)` or on the scope conditions of
    /// [`Factor::from_fn`].
    pub fn soft(scope: Vec<VarId>, h: f64, pred: impl Fn(&[bool]) -> bool) -> Factor {
        assert!(h > 0.0 && h < 1.0, "constraint strength must lie strictly in (0, 1)");
        Factor::from_fn(scope, |a| if pred(a) { h } else { 1.0 - h })
    }

    /// A unary prior factor: potential `p` for true, `1 - p` for false.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn unary(var: VarId, p: f64) -> Factor {
        Factor { scope: vec![var], table: Arc::new(Table::unary(p)) }
    }

    /// Builds a factor from raw parts **without** checking any invariant
    /// (scope arity, table size, potential range).
    ///
    /// This exists so the IR-verifier tests can construct deliberately
    /// malformed factors; library code should use [`Factor::new`],
    /// [`Factor::from_fn`], [`Factor::soft`] or [`Factor::unary`], which
    /// validate.
    #[doc(hidden)]
    pub fn from_raw_parts(scope: Vec<VarId>, table: Vec<f64>) -> Factor {
        Factor { scope, table: Arc::new(Table::from_cells(table.into())) }
    }

    /// The variables this factor couples.
    pub fn scope(&self) -> &[VarId] {
        &self.scope
    }

    /// The tabulated potentials (see [`Table`] for indexing).
    pub fn table(&self) -> &[f64] {
        &self.table.cells
    }

    /// The shared table itself.
    pub(crate) fn shared_table(&self) -> &Table {
        &self.table
    }

    /// Evaluates the potential of a full assignment over the factor's scope.
    pub fn eval(&self, assign: &[bool]) -> f64 {
        debug_assert_eq!(assign.len(), self.scope.len());
        let mut idx = 0usize;
        for (j, &a) in assign.iter().enumerate() {
            if a {
                idx |= 1 << j;
            }
        }
        self.table.cells[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_tabulates_in_lsb_order() {
        let f = Factor::from_fn(vec![VarId(0), VarId(1)], |a| {
            (a[0] as u8 as f64) + 2.0 * (a[1] as u8 as f64)
        });
        // index 0 = (F,F), 1 = (T,F), 2 = (F,T), 3 = (T,T)
        assert_eq!(f.table(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.eval(&[true, false]), 1.0);
        assert_eq!(f.eval(&[true, true]), 3.0);
    }

    #[test]
    fn soft_equality_matches_eq6() {
        let h = 0.9;
        let f = Factor::soft(vec![VarId(0), VarId(1)], h, |a| a[0] == a[1]);
        assert_eq!(f.eval(&[false, false]), h);
        assert_eq!(f.eval(&[true, true]), h);
        assert!((f.eval(&[true, false]) - (1.0 - h)).abs() < 1e-12);
    }

    #[test]
    fn unary_prior_table() {
        let f = Factor::unary(VarId(3), 0.9);
        assert_eq!(f.scope(), &[VarId(3)]);
        assert!((f.table()[1] - 0.9).abs() < 1e-12);
        assert!((f.table()[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn shared_table_matches_a_fresh_tabulation() {
        let pred = |a: &[bool]| a.iter().filter(|b| **b).count() == 1;
        let table = Arc::new(Table::soft(3, 0.9, pred));
        let scope = vec![VarId(4), VarId(1), VarId(7)];
        let shared = Factor::new(scope.clone(), Arc::clone(&table));
        assert_eq!(shared, Factor::soft(scope, 0.9, pred));
        assert_eq!(Factor::unary(VarId(0), 0.3).table(), Table::unary(0.3).cells());
    }

    #[test]
    #[should_panic(expected = "table size")]
    fn table_of_the_wrong_arity_rejected() {
        let _ = Factor::new(vec![VarId(0), VarId(1)], Arc::new(Table::unary(0.5)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_scope_panics() {
        let _ = Factor::from_fn(vec![], |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_scope_panics() {
        let _ = Factor::from_fn(vec![VarId(0), VarId(0)], |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn hard_constraint_strength_rejected() {
        let _ = Factor::soft(vec![VarId(0)], 1.0, |a| a[0]);
    }
}
