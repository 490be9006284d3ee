//! The factor graph and its solvers.
//!
//! Two solvers are provided:
//!
//! * [`FactorGraph::solve`] — the sum-product algorithm on the factor graph
//!   (loopy belief propagation), the approximate marginal computation the
//!   paper relies on (§3.4, citing Kschischang et al. \[14\]). Message
//!   passing runs as synchronous sweeps on the flat-arena kernel in
//!   [`crate::kernel`].
//! * [`FactorGraph::solve_exact`] — brute-force enumeration of the joint,
//!   used to validate BP on small graphs and by the "Logical"-style exact
//!   baselines.

use crate::factor::{Factor, VarId};
use crate::kernel::CompiledGraph;

/// Options controlling loopy belief propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpOptions {
    /// Maximum message-passing sweeps.
    pub max_iterations: usize,
    /// Convergence threshold on the max-change of any marginal.
    pub tolerance: f64,
    /// Damping in `[0, 1)`: new message = (1-d)*computed + d*old.
    pub damping: f64,
    /// Optional hard per-solve budget on message updates, counted in the
    /// same unit as [`Marginals::updates`]. Unlike a wall-clock deadline
    /// this is deterministic: the same graph and options stop at the same
    /// update on every run. `None` (the default) leaves `max_iterations`
    /// as the only bound.
    pub update_budget: Option<usize>,
    /// Optional wall-clock deadline. The kernel polls it once per sweep
    /// and stops early with [`Marginals::deadline_expired`]
    /// set. Inherently non-deterministic — callers that promise
    /// byte-identical replays must never cache a deadline-truncated
    /// result (the inference layer keeps such solves out of the store).
    pub deadline: Option<std::time::Instant>,
}

impl Default for BpOptions {
    fn default() -> BpOptions {
        BpOptions {
            max_iterations: 50,
            tolerance: 1e-6,
            damping: 0.0,
            update_budget: None,
            deadline: None,
        }
    }
}

/// Counters of numeric anomalies absorbed during message passing.
///
/// The kernel clamps every normalization whose mass is non-finite or sums
/// to zero back to the uniform message `0.5` instead of dividing — the
/// solve always completes with finite marginals. These counters record how
/// often that clamp fired so callers can report the solve as degraded
/// rather than silently trusting the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardEvents {
    /// Normalizations whose mass was NaN or infinite (poisoned factor
    /// table or stamped extra).
    pub non_finite: usize,
    /// Normalizations whose mass summed to zero (all-zero factor rows or
    /// fully underflowed message products).
    pub zero_sum: usize,
}

impl GuardEvents {
    /// Whether any guard fired during the solve.
    pub fn any(&self) -> bool {
        self.non_finite > 0 || self.zero_sum > 0
    }
}

/// The result of marginal inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginals {
    pub(crate) probs: Vec<f64>,
    /// Number of sweeps actually performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Total factor→variable message updates applied: one per edge and
    /// per stamped extra in every sweep.
    pub updates: usize,
    /// Numeric anomalies clamped during the solve (see [`GuardEvents`]).
    pub guards: GuardEvents,
    /// True when [`BpOptions::deadline`] expired before convergence; the
    /// marginals are whatever the sweeps had produced so far.
    pub deadline_expired: bool,
}

impl Marginals {
    /// `p(X = true)` for a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not from the solved graph.
    pub fn prob(&self, var: VarId) -> f64 {
        self.probs[var.0 as usize]
    }

    /// All marginals, indexed by `VarId`.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

/// A factor graph over Bernoulli variables.
///
/// Build it by interleaving [`FactorGraph::add_var`] and
/// [`FactorGraph::add_factor`], then call one of the solvers. Variables are
/// numbered, not named: a graph is a transient build product, and what a
/// variable stands for is the builder's to record.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    n_vars: usize,
    factors: Vec<Factor>,
}

impl FactorGraph {
    /// An empty graph.
    pub fn new() -> FactorGraph {
        FactorGraph::default()
    }

    /// Adds a variable, returning its id. Variables start with a uniform
    /// (uninformative) prior; add a [`Factor::unary`] to encode a prior
    /// belief (paper §3.2).
    pub fn add_var(&mut self) -> VarId {
        let id = VarId(self.n_vars as u32);
        self.n_vars += 1;
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Adds a factor.
    ///
    /// # Panics
    ///
    /// Panics if the factor references a variable not in this graph.
    pub fn add_factor(&mut self, factor: Factor) {
        for v in factor.scope() {
            assert!((v.0 as usize) < self.n_vars, "factor references unknown variable {v}");
        }
        self.factors.push(factor);
    }

    /// Adds a factor **without** the scope-bounds check of
    /// [`FactorGraph::add_factor`].
    ///
    /// Only for tests that need a structurally broken graph to exercise the
    /// IR verifier; everything else must go through [`FactorGraph::add_factor`].
    #[doc(hidden)]
    pub fn push_factor_unchecked(&mut self, factor: Factor) {
        self.factors.push(factor);
    }

    /// The factors added so far.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Sum-product loopy belief propagation.
    ///
    /// Returns approximate marginals for every variable. On tree-structured
    /// graphs the result is exact once converged; on loopy graphs it is the
    /// standard approximation the paper's `Solve` procedure computes.
    ///
    /// Compiles the graph into a [`CompiledGraph`] arena and solves it; a
    /// caller that solves the same graph repeatedly should compile once and
    /// reuse.
    pub fn solve(&self, opts: &BpOptions) -> Marginals {
        CompiledGraph::compile(self).solve(opts)
    }

    /// Exact marginals by enumerating the full joint (paper Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 variables — enumeration is
    /// `O(2^n)` and only intended for validation on small graphs.
    pub fn solve_exact(&self) -> Marginals {
        let n = self.n_vars;
        assert!(n <= 24, "exact enumeration limited to 24 variables, got {n}");
        let mut weight_true = vec![0.0f64; n];
        let mut total = 0.0f64;
        let mut assign = vec![false; n];
        for bits in 0u64..(1 << n) {
            for (j, a) in assign.iter_mut().enumerate() {
                *a = bits & (1 << j) != 0;
            }
            let mut w = 1.0f64;
            for f in &self.factors {
                let local: Vec<bool> = f.scope().iter().map(|v| assign[v.0 as usize]).collect();
                w *= f.eval(&local);
                if w == 0.0 {
                    break;
                }
            }
            if w == 0.0 {
                continue;
            }
            total += w;
            for (j, &a) in assign.iter().enumerate() {
                if a {
                    weight_true[j] += w;
                }
            }
        }
        let probs =
            weight_true.iter().map(|&wt| if total > 0.0 { wt / total } else { 0.5 }).collect();
        Marginals {
            probs,
            iterations: 1,
            converged: true,
            updates: 0,
            guards: GuardEvents::default(),
            deadline_expired: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn single_prior_is_returned_exactly() {
        let mut g = FactorGraph::new();
        let x = g.add_var();
        g.add_factor(Factor::unary(x, 0.9));
        let m = g.solve(&BpOptions::default());
        assert!(close(m.prob(x), 0.9, 1e-9));
        let e = g.solve_exact();
        assert!(close(e.prob(x), 0.9, 1e-12));
    }

    #[test]
    fn soft_equality_pulls_towards_evidence() {
        // x has prior 0.9; y tied to x with strength 0.8.
        let mut g = FactorGraph::new();
        let x = g.add_var();
        let y = g.add_var();
        g.add_factor(Factor::unary(x, 0.9));
        g.add_factor(Factor::soft(vec![x, y], 0.8, |a| a[0] == a[1]));
        let exact = g.solve_exact();
        let bp = g.solve(&BpOptions::default());
        // Tree-structured: BP must match enumeration.
        assert!(close(bp.prob(y), exact.prob(y), 1e-6));
        assert!(exact.prob(y) > 0.5, "y should lean true: {}", exact.prob(y));
        assert!(exact.prob(y) < 0.9, "equality is soft");
    }

    #[test]
    fn bp_matches_exact_on_chain() {
        // x0 -(0.9)- x1 -(0.9)- x2 with prior on x0.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..3).map(|_| g.add_var()).collect();
        g.add_factor(Factor::unary(xs[0], 0.95));
        for w in xs.windows(2) {
            g.add_factor(Factor::soft(vec![w[0], w[1]], 0.9, |a| a[0] == a[1]));
        }
        let exact = g.solve_exact();
        let bp = g.solve(&BpOptions::default());
        for &x in &xs {
            assert!(close(bp.prob(x), exact.prob(x), 1e-6), "{x}");
        }
        assert!(bp.converged);
    }

    #[test]
    fn conflicting_evidence_resolves_to_majority() {
        // The paper's key scenario (§1): one constraint says HASNEXT, many
        // say ALIVE. Model one variable pulled both ways.
        let mut g = FactorGraph::new();
        let x = g.add_var();
        g.add_factor(Factor::unary(x, 0.9)); // the buggy call site
        for _ in 0..4 {
            g.add_factor(Factor::unary(x, 0.1)); // the consistent sites
        }
        let m = g.solve(&BpOptions::default());
        assert!(m.prob(x) < 0.5, "majority evidence wins: {}", m.prob(x));
        // Crucially, a solution exists at all — a hard constraint system
        // would be unsatisfiable here.
    }

    #[test]
    fn loopy_graph_stays_bounded_and_close() {
        // A 4-cycle of soft equalities with one informative prior.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..4).map(|_| g.add_var()).collect();
        g.add_factor(Factor::unary(xs[0], 0.9));
        for i in 0..4 {
            let a = xs[i];
            let b = xs[(i + 1) % 4];
            g.add_factor(Factor::soft(vec![a, b], 0.85, |v| v[0] == v[1]));
        }
        let exact = g.solve_exact();
        let bp = g.solve(&BpOptions { max_iterations: 200, ..BpOptions::default() });
        for &x in &xs {
            let (pb, pe) = (bp.prob(x), exact.prob(x));
            // Loopy BP is known to be overconfident on tight cycles; it must
            // stay in the right direction and within a coarse band.
            assert!((pb - pe).abs() < 0.1, "{x}: bp={pb} exact={pe}");
            assert!(pb > 0.5);
        }
    }

    #[test]
    fn exactly_one_style_factor() {
        // Soft one-hot over 3 vars plus a strong prior on var 0.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..3).map(|_| g.add_var()).collect();
        g.add_factor(Factor::soft(xs.clone(), 0.95, |a| a.iter().filter(|b| **b).count() == 1));
        g.add_factor(Factor::unary(xs[0], 0.9));
        let m = g.solve_exact();
        assert!(m.prob(xs[0]) > 0.8);
        assert!(m.prob(xs[1]) < 0.3);
        assert!(m.prob(xs[2]) < 0.3);
    }

    #[test]
    fn zero_potential_assignments_are_excluded() {
        let mut g = FactorGraph::new();
        let x = g.add_var();
        let y = g.add_var();
        // Hard XOR via from_fn (0 potential on violating rows).
        g.add_factor(Factor::from_fn(vec![x, y], |a| if a[0] != a[1] { 1.0 } else { 0.0 }));
        g.add_factor(Factor::unary(x, 0.9));
        let m = g.solve_exact();
        assert!(close(m.prob(y), 0.1, 1e-9));
    }

    #[test]
    fn unconstrained_variable_is_uniform() {
        let mut g = FactorGraph::new();
        let x = g.add_var();
        let y = g.add_var();
        g.add_factor(Factor::unary(x, 0.7));
        g.add_factor(Factor::unary(y, 0.5));
        let m = g.solve(&BpOptions::default());
        assert!(close(m.prob(y), 0.5, 1e-9));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_rejected() {
        let mut g = FactorGraph::new();
        let _x = g.add_var();
        g.add_factor(Factor::unary(VarId(5), 0.5));
    }
}
