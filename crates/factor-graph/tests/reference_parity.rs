//! Parity tests for the flat-arena kernel.
//!
//! The kernel may change *how fast* BP runs, never *what it computes*: it
//! must reproduce the historical nested-`Vec` sum-product solver. This
//! file keeps a copy of that solver (`reference` module below) as the
//! oracle and drives both
//! implementations over randomized graphs. The kernel contracts factor
//! tables one dimension at a time, so it sums in a different order than
//! the reference's cell-by-cell walk: marginals must agree within `1e-12`,
//! and iteration counts and convergence flags must be identical. It also
//! checks that stamped extras are exactly appended unary factors, that
//! factors sharing a table (and so a fold program) match the reference on
//! factor trees, and that on trees the sweeps converge to the exact
//! marginals `solve_exact` enumerates.

use factor_graph::{BpOptions, CompiledGraph, Factor, FactorGraph, VarId};
use prng::Rng;

/// The pre-arena solver, kept as the numeric oracle.
mod reference {
    use factor_graph::{BpOptions, FactorGraph};

    fn damp(old: f64, new: f64, d: f64) -> f64 {
        d * old + (1.0 - d) * new
    }

    /// One synchronous sum-product BP run.
    pub fn solve(g: &FactorGraph, opts: &BpOptions) -> (Vec<f64>, usize, bool) {
        let n_vars = g.num_vars();
        let factors = g.factors();
        let mut var_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_vars];
        for (fi, f) in factors.iter().enumerate() {
            for (pos, v) in f.scope().iter().enumerate() {
                var_edges[v.0 as usize].push((fi, pos));
            }
        }
        let mut msg_fv: Vec<Vec<f64>> =
            factors.iter().map(|f| vec![0.5; f.scope().len()]).collect();
        let mut msg_vf: Vec<Vec<f64>> =
            factors.iter().map(|f| vec![0.5; f.scope().len()]).collect();
        let mut marginals = vec![0.5f64; n_vars];
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..opts.max_iterations {
            iterations = it + 1;
            for edges in &var_edges {
                for &(fi, pos) in edges {
                    let mut p_t = 1.0f64;
                    let mut p_f = 1.0f64;
                    for &(ofi, opos) in edges {
                        if ofi == fi && opos == pos {
                            continue;
                        }
                        let m = msg_fv[ofi][opos];
                        p_t *= m;
                        p_f *= 1.0 - m;
                    }
                    let z = p_t + p_f;
                    let new = if z > 0.0 { p_t / z } else { 0.5 };
                    msg_vf[fi][pos] = damp(msg_vf[fi][pos], new, opts.damping);
                }
            }
            for (fi, f) in factors.iter().enumerate() {
                let table = f.table();
                for (pos, slot) in msg_fv[fi].iter_mut().enumerate() {
                    let mut acc_t = 0.0f64;
                    let mut acc_f = 0.0f64;
                    for (idx, &pot) in table.iter().enumerate() {
                        if pot == 0.0 {
                            continue;
                        }
                        let mut w = pot;
                        for (opos, _) in f.scope().iter().enumerate() {
                            if opos == pos {
                                continue;
                            }
                            let bit = idx & (1 << opos) != 0;
                            let m = msg_vf[fi][opos];
                            w *= if bit { m } else { 1.0 - m };
                        }
                        if idx & (1 << pos) != 0 {
                            acc_t += w;
                        } else {
                            acc_f += w;
                        }
                    }
                    let z = acc_t + acc_f;
                    let new = if z > 0.0 { acc_t / z } else { 0.5 };
                    *slot = damp(*slot, new, opts.damping);
                }
            }
            let mut max_delta = 0.0f64;
            for (vi, edges) in var_edges.iter().enumerate() {
                let mut p_t = 1.0f64;
                let mut p_f = 1.0f64;
                for &(fi, pos) in edges {
                    let m = msg_fv[fi][pos];
                    p_t *= m;
                    p_f *= 1.0 - m;
                }
                let z = p_t + p_f;
                let b = if z > 0.0 { p_t / z } else { 0.5 };
                max_delta = max_delta.max((b - marginals[vi]).abs());
                marginals[vi] = b;
            }
            if max_delta < opts.tolerance {
                converged = true;
                break;
            }
        }
        (marginals, iterations, converged)
    }
}

/// A random mixed graph: unary priors, pairwise (in)equalities, and some
/// wider soft constraints, in interleaved insertion order.
fn random_graph(rng: &mut Rng, n_vars: usize, n_factors: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let vars: Vec<VarId> = (0..n_vars).map(|i| g.add_var(format!("v{i}"))).collect();
    for _ in 0..n_factors {
        match rng.gen_index(0..4) {
            0 => {
                let v = *rng.pick(&vars);
                let p = 0.05 + 0.9 * rng.gen_f64();
                g.add_factor(Factor::unary(v, p));
            }
            1 => {
                let a = *rng.pick(&vars);
                let b = *rng.pick(&vars);
                if a == b {
                    continue;
                }
                let h = 0.55 + 0.44 * rng.gen_f64();
                let eq = rng.gen_bool(0.7);
                g.add_factor(Factor::soft(vec![a, b], h, move |x| (x[0] == x[1]) == eq));
            }
            2 => {
                // Hard XOR-ish rows: exercises the zero-potential skip.
                let a = *rng.pick(&vars);
                let b = *rng.pick(&vars);
                if a == b {
                    continue;
                }
                g.add_factor(Factor::from_fn(vec![a, b], |x| if x[0] != x[1] { 1.0 } else { 0.0 }));
            }
            _ => {
                let k = rng.gen_index(3..5).min(n_vars);
                let mut scope: Vec<VarId> = Vec::new();
                for &v in &vars {
                    if scope.len() < k && rng.gen_bool(0.5) {
                        scope.push(v);
                    }
                }
                if scope.len() < 3 {
                    continue;
                }
                let h = 0.6 + 0.35 * rng.gen_f64();
                g.add_factor(Factor::soft(scope, h, |x| x.iter().filter(|b| **b).count() == 1));
            }
        }
    }
    g
}

/// Largest drift the dimension-at-a-time contraction may show against the
/// reference solver's cell-by-cell accumulation.
const PARITY_TOLERANCE: f64 = 1e-12;

fn assert_close(ours: &[f64], theirs: &[f64], what: &str) {
    assert_eq!(ours.len(), theirs.len(), "{what}: length");
    for (i, (a, b)) in ours.iter().zip(theirs).enumerate() {
        assert!((a - b).abs() <= PARITY_TOLERANCE, "{what}: var {i} differs: {a:e} vs {b:e}");
    }
}

fn assert_bit_equal(ours: &[f64], theirs: &[f64], what: &str) {
    assert_eq!(ours.len(), theirs.len(), "{what}: length");
    for (i, (a, b)) in ours.iter().zip(theirs).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: var {i} differs: {a:e} ({:016x}) vs {b:e} ({:016x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

#[test]
fn sweep_matches_reference_within_tolerance() {
    prng::forall("sweep-parity", 40, |rng| {
        let n_vars = rng.gen_index(1..25);
        let n_factors = rng.gen_index(0..40);
        let g = random_graph(rng, n_vars, n_factors);
        let opts = BpOptions {
            max_iterations: rng.gen_index(1..60),
            damping: *rng.pick(&[0.0, 0.1, 0.3]),
            ..BpOptions::default()
        };
        let (ref_sum, ref_it, ref_conv) = reference::solve(&g, &opts);
        let sum = g.solve(&opts);
        assert_close(sum.as_slice(), &ref_sum, "sum");
        assert_eq!(sum.iterations, ref_it);
        assert_eq!(sum.converged, ref_conv);
    });
}

#[test]
fn stamped_extras_equal_appended_unary_factors() {
    prng::forall("stamp-parity", 40, |rng| {
        let n_vars = rng.gen_index(2..20);
        let n_factors = rng.gen_index(0..25);
        let g = random_graph(rng, n_vars, n_factors);
        // Random unary extras, some repeated on the same variable.
        let n_extras = rng.gen_index(0..8);
        let extras: Vec<(VarId, f64)> = (0..n_extras)
            .map(|_| (VarId(rng.gen_index(0..n_vars) as u32), 0.05 + 0.9 * rng.gen_f64()))
            .collect();
        let mut extended = g.clone();
        for &(v, p) in &extras {
            extended.add_factor(Factor::unary(v, p));
        }
        let opts = BpOptions {
            max_iterations: rng.gen_index(1..50),
            damping: *rng.pick(&[0.0, 0.1]),
            ..BpOptions::default()
        };
        let compiled = CompiledGraph::compile(&g);
        let stamped = compiled.solve_stamped(&extras, &opts);
        let appended = extended.solve(&opts);
        assert_bit_equal(stamped.as_slice(), appended.as_slice(), "stamped sum");
        assert_eq!(stamped.iterations, appended.iterations);
        assert_eq!(stamped.converged, appended.converged);
    });
}

type Predicate = fn(&[bool]) -> bool;

/// The wide factors `random_factor_tree` draws from, as (predicate,
/// strength) pairs. Model builders draw theirs from a few such pairs too,
/// so several factors of one graph share a table, and the kernel a fold
/// program.
const WIDE: [(Predicate, f64); 4] = [
    (|x| x.iter().filter(|b| **b).count() == 1, 0.9),
    (|x| x.iter().filter(|b| **b).count() == 1, 0.65),
    (|x| x.iter().filter(|b| **b).count() <= 1, 0.8),
    (|x| x.iter().all(|b| *b == x[0]), 0.95),
];

/// A random factor tree: unary priors, pairwise links and wide factors from
/// [`WIDE`] at arity 3–6, each link or wide factor joining one variable
/// already in the tree to fresh ones.
fn random_factor_tree(rng: &mut Rng, n_factors: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let mut vars = vec![g.add_var("r")];
    for _ in 0..n_factors {
        let anchor = *rng.pick(&vars);
        match rng.gen_index(0..3) {
            0 => g.add_factor(Factor::unary(anchor, 0.05 + 0.9 * rng.gen_f64())),
            1 => {
                let v = g.add_var(format!("v{}", vars.len()));
                vars.push(v);
                let h = 0.55 + 0.44 * rng.gen_f64();
                g.add_factor(Factor::soft(vec![anchor, v], h, |x| x[0] == x[1]));
            }
            _ => {
                let mut scope = vec![anchor];
                for _ in 1..rng.gen_index(3..7) {
                    let v = g.add_var(format!("v{}", vars.len()));
                    vars.push(v);
                    scope.push(v);
                }
                let (pred, h) = *rng.pick(&WIDE);
                g.add_factor(Factor::soft(scope, h, pred));
            }
        }
    }
    g
}

/// Factors with equal tables share one fold program; on trees with many
/// such factors the sweeps must still match the reference solver, and
/// stamped extras must still equal appended unary factors.
///
/// Factor trees keep the drift between the kernel's and the reference's
/// summation orders at rounding level.
#[test]
fn shared_tables_match_reference_on_factor_trees() {
    prng::forall("shared-table-trees", 40, |rng| {
        let n_factors = rng.gen_index(1..30);
        let g = random_factor_tree(rng, n_factors);
        let opts = BpOptions {
            max_iterations: rng.gen_index(1..60),
            damping: *rng.pick(&[0.0, 0.1, 0.3]),
            ..BpOptions::default()
        };
        let (ref_sum, ref_it, ref_conv) = reference::solve(&g, &opts);
        let sum = g.solve(&opts);
        assert_close(sum.as_slice(), &ref_sum, "sum");
        assert_eq!(sum.iterations, ref_it);
        assert_eq!(sum.converged, ref_conv);

        let extras: Vec<(VarId, f64)> = (0..rng.gen_index(0..8))
            .map(|_| (VarId(rng.gen_index(0..g.num_vars()) as u32), 0.05 + 0.9 * rng.gen_f64()))
            .collect();
        let mut extended = g.clone();
        for &(v, p) in &extras {
            extended.add_factor(Factor::unary(v, p));
        }
        let compiled = CompiledGraph::compile(&g);
        let stamped = compiled.solve_stamped(&extras, &opts);
        assert_bit_equal(stamped.as_slice(), extended.solve(&opts).as_slice(), "stamped sum");
    });
}

/// A random tree: each variable links to one earlier variable.
fn random_tree(rng: &mut Rng, n_vars: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let vars: Vec<VarId> = (0..n_vars).map(|i| g.add_var(format!("t{i}"))).collect();
    g.add_factor(Factor::unary(vars[0], 0.05 + 0.9 * rng.gen_f64()));
    for i in 1..n_vars {
        let parent = vars[rng.gen_index(0..i)];
        let h = 0.6 + 0.35 * rng.gen_f64();
        let eq = rng.gen_bool(0.8);
        g.add_factor(Factor::soft(vec![parent, vars[i]], h, move |x| (x[0] == x[1]) == eq));
        if rng.gen_bool(0.4) {
            g.add_factor(Factor::unary(vars[i], 0.1 + 0.8 * rng.gen_f64()));
        }
    }
    g
}

#[test]
fn sweep_matches_exact_on_trees() {
    prng::forall("sweep-trees", 30, |rng| {
        let n_vars = rng.gen_index(2..12);
        let g = random_tree(rng, n_vars);
        let opts = BpOptions {
            max_iterations: 500,
            tolerance: 1e-9,
            damping: 0.0,
            ..BpOptions::default()
        };
        let bp = g.solve(&opts);
        assert!(bp.converged, "BP must converge on trees");
        let exact = g.solve_exact();
        for i in 0..n_vars {
            let v = VarId(i as u32);
            let (b, e) = (bp.prob(v), exact.prob(v));
            assert!((b - e).abs() < 1e-6, "var {i}: bp={b} exact={e}");
        }
    });
}
