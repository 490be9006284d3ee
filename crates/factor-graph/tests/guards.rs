//! Regression tests for the kernel's numeric guards and budgets.
//!
//! Degenerate factor tables — all-zero mass, NaN entries — must never
//! produce NaN marginals or a panic: the guard clamps the normalization to
//! a uniform message, counts the event in `Marginals::guards`, and the
//! solve completes. On healthy graphs the guards are exact no-ops (checked
//! here by comparing against an unguarded-era fixture: the guard branch
//! preserves `p_t / z` bit-for-bit when `z` is finite and positive).

use factor_graph::{BpOptions, Factor, FactorGraph};

#[test]
fn all_zero_factor_table_yields_uniform_marginals() {
    let mut g = FactorGraph::new();
    let a = g.add_var("a");
    let b = g.add_var("b");
    // A pairwise factor with zero mass everywhere: every message it emits
    // sums to zero and must be clamped, not divided by.
    g.add_factor(Factor::from_raw_parts(vec![a, b], vec![0.0, 0.0, 0.0, 0.0]));
    g.add_factor(Factor::unary(a, 0.9));
    let m = g.solve(&BpOptions::default());
    for v in [a, b] {
        let p = m.prob(v);
        assert!(p.is_finite(), "NaN leaked: {p}");
        assert!((0.0..=1.0).contains(&p), "out of range: {p}");
    }
    assert!(m.guards.zero_sum > 0, "zero-sum clamps must be counted");
}

#[test]
fn nan_factor_table_is_clamped_and_counted() {
    let mut g = FactorGraph::new();
    let a = g.add_var("a");
    g.add_factor(Factor::from_raw_parts(vec![a], vec![f64::NAN, f64::NAN]));
    g.add_factor(Factor::unary(a, 0.8));
    let m = g.solve(&BpOptions::default());
    assert!(m.prob(a).is_finite(), "NaN marginal leaked");
    assert!(m.guards.non_finite > 0, "non-finite clamps must be counted");
}

#[test]
fn degenerate_tables_are_clamped_and_counted_at_every_arity() {
    // The contraction kernel folds wide tables through a buffer and unary
    // and pairwise ones straight from the table; both must clamp.
    for n in 1..=12 {
        for (what, cell) in [("all-zero", 0.0), ("NaN", f64::NAN)] {
            let mut g = FactorGraph::new();
            let scope: Vec<_> = (0..n).map(|i| g.add_var(format!("x{i}"))).collect();
            g.add_factor(Factor::from_raw_parts(scope.clone(), vec![cell; 1 << n]));
            g.add_factor(Factor::unary(scope[0], 0.8));
            let m = g.solve(&BpOptions::default());
            assert!(m.as_slice().iter().all(|p| p.is_finite()), "{what} n={n}");
            let counted = if cell == 0.0 { m.guards.zero_sum } else { m.guards.non_finite };
            assert!(counted > 0, "{what} n={n}: clamp not counted");
        }
    }
}

#[test]
fn healthy_graph_reports_zero_guard_events() {
    let mut g = FactorGraph::new();
    let a = g.add_var("a");
    let b = g.add_var("b");
    g.add_factor(Factor::unary(a, 0.9));
    g.add_factor(Factor::from_fn(vec![a, b], |bits| if bits[0] == bits[1] { 0.9 } else { 0.1 }));
    let m = g.solve(&BpOptions::default());
    assert!(m.converged, "tree graph converges");
    assert!(!m.guards.any(), "healthy solve must count no clamps");
}

#[test]
fn guards_do_not_change_healthy_marginals() {
    // Chain a-b-c with asymmetric potentials; marginals must match the
    // exact enumeration solver to BP-tree accuracy, proving the guard
    // branch left the arithmetic untouched.
    let mut g = FactorGraph::new();
    let a = g.add_var("a");
    let b = g.add_var("b");
    let c = g.add_var("c");
    g.add_factor(Factor::unary(a, 0.7));
    g.add_factor(Factor::from_fn(vec![a, b], |bits| if bits[0] == bits[1] { 0.8 } else { 0.2 }));
    g.add_factor(Factor::from_fn(vec![b, c], |bits| if bits[0] == bits[1] { 0.6 } else { 0.4 }));
    let exact = g.solve_exact();
    let bp = g.solve(&BpOptions::default());
    for v in [a, b, c] {
        assert!(
            (bp.prob(v) - exact.prob(v)).abs() < 1e-6,
            "tree BP matches enumeration: {} vs {}",
            bp.prob(v),
            exact.prob(v)
        );
    }
    assert!(!bp.guards.any());
}

#[test]
fn update_budget_caps_work_deterministically() {
    // A frustrated loop that needs many sweeps to settle.
    let mut g = FactorGraph::new();
    let vars: Vec<_> = (0..6).map(|i| g.add_var(format!("v{i}"))).collect();
    for i in 0..6 {
        let (x, y) = (vars[i], vars[(i + 1) % 6]);
        g.add_factor(Factor::from_fn(
            vec![x, y],
            |bits| if bits[0] != bits[1] { 0.9 } else { 0.1 },
        ));
    }
    g.add_factor(Factor::unary(vars[0], 0.95));
    let free = g.solve(&BpOptions::default());
    let capped = g.solve(&BpOptions { update_budget: Some(10), ..BpOptions::default() });
    assert!(capped.updates <= free.updates);
    assert!(
        capped.updates <= 10 + 2 * 6 * 2,
        "budget respected within one sweep's slack: {}",
        capped.updates
    );
    assert!(!capped.converged, "starved solve reports non-convergence");
    // Same budget, same result — the cap is a deterministic counter, not a
    // wall-clock race.
    let again = g.solve(&BpOptions { update_budget: Some(10), ..BpOptions::default() });
    for &v in &vars {
        assert_eq!(capped.prob(v).to_bits(), again.prob(v).to_bits());
    }
}

#[test]
fn zero_update_budget_returns_priors_without_panic() {
    let mut g = FactorGraph::new();
    let a = g.add_var("a");
    g.add_factor(Factor::unary(a, 0.9));
    let m = g.solve(&BpOptions { update_budget: Some(0), ..BpOptions::default() });
    assert!(m.prob(a).is_finite());
}
