//! Cross-crate randomized property tests.
//!
//! These used to be `proptest` suites; the offline build has no crates.io
//! access, so they now run on the in-tree [`prng::forall`] harness (64
//! deterministic cases per property, failing seeds printed for replay).

use anek::factor_graph::{BpOptions, Factor, FactorGraph};
use anek::java_syntax::{parse, print_unit};
use anek::spec_lang::Permission;
use anek::spec_lang::{parse_clause, Fraction, PermissionKind};
use prng::forall;

const CASES: u32 = 64;

/// Fraction arithmetic: (a + b) - b == a for in-range rationals.
#[test]
fn fraction_add_sub_round_trip() {
    forall("fraction_add_sub_round_trip", CASES, |rng| {
        let a = Fraction::new(rng.gen_range(0..500), rng.gen_range(1..500)).unwrap();
        let b = Fraction::new(rng.gen_range(0..500), rng.gen_range(1..500)).unwrap();
        let sum = a.checked_add(b).unwrap();
        assert_eq!(sum.checked_sub(b).unwrap(), a);
    });
}

/// Splitting a fraction into n parts and re-merging restores it.
#[test]
fn fraction_split_merge() {
    forall("fraction_split_merge", CASES, |rng| {
        let n = rng.gen_range(1..12) as u32;
        let f = Fraction::new(rng.gen_range(1..100), rng.gen_range(1..100)).unwrap();
        let part = f.split(n).unwrap();
        let mut acc = Fraction::ZERO;
        for _ in 0..n {
            acc = acc.checked_add(part).unwrap();
        }
        assert_eq!(acc, f);
    });
}

/// Permission splitting is downward-closed: any legal split's parts are
/// individually satisfied by the parent.
#[test]
fn split_parts_are_satisfied() {
    forall("split_parts_are_satisfied", CASES, |rng| {
        let parent = *rng.pick(&PermissionKind::ALL);
        let a = *rng.pick(&PermissionKind::ALL);
        let b = *rng.pick(&PermissionKind::ALL);
        if parent.can_split_into(&[a, b]) {
            assert!(parent.satisfies(a));
            assert!(parent.satisfies(b));
            // And never two exclusive writers.
            let writers = [a, b]
                .iter()
                .filter(|k| matches!(k, PermissionKind::Unique | PermissionKind::Full))
                .count();
            assert!(writers <= 1);
        }
    });
}

/// Spec clauses survive a print/parse round trip.
#[test]
fn clause_round_trip() {
    forall("clause_round_trip", CASES, |rng| {
        let k = *rng.pick(&PermissionKind::ALL);
        let target = *rng.pick(&["this", "result", "x", "other"]);
        let state = *rng.pick(&[None, Some("HASNEXT"), Some("OPEN"), Some("ALIVE")]);
        let text = match state {
            Some(s) => format!("{k}({target}) in {s}"),
            None => format!("{k}({target})"),
        };
        let clause = parse_clause(&text).unwrap();
        let reparsed = parse_clause(&clause.to_string()).unwrap();
        assert_eq!(clause, reparsed);
    });
}

/// BP marginals agree with exact enumeration on random small tree-ish
/// factor graphs.
#[test]
fn bp_close_to_exact_on_random_chains() {
    forall("bp_close_to_exact_on_random_chains", CASES, |rng| {
        let n_vars = rng.gen_index(2..6);
        let priors: Vec<f64> = (0..n_vars).map(|_| 0.05 + rng.gen_f64() * 0.90).collect();
        let n_strengths = rng.gen_index(1..5);
        let strengths: Vec<f64> = (0..n_strengths).map(|_| 0.55 + rng.gen_f64() * 0.40).collect();
        let mut g = FactorGraph::new();
        let vars: Vec<_> = (0..priors.len()).map(|_| g.add_var()).collect();
        for (v, p) in vars.iter().zip(&priors) {
            g.add_factor(Factor::unary(*v, *p));
        }
        // Chain couplings (tree structure => BP is exact at convergence).
        for (w, h) in vars.windows(2).zip(strengths.iter().cycle()) {
            g.add_factor(Factor::soft(vec![w[0], w[1]], *h, |a| a[0] == a[1]));
        }
        let exact = g.solve_exact();
        let bp = g.solve(&BpOptions {
            max_iterations: 200,
            tolerance: 1e-9,
            damping: 0.0,
            ..BpOptions::default()
        });
        for &v in &vars {
            assert!(
                (bp.prob(v) - exact.prob(v)).abs() < 1e-4,
                "var {v}: bp={} exact={}",
                bp.prob(v),
                exact.prob(v)
            );
        }
    });
}

/// Random legal split sequences re-merge to the original permission.
#[test]
fn permission_split_merge_round_trip() {
    forall("permission_split_merge_round_trip", CASES, |rng| {
        let original = Permission::fresh();
        let mut held = original;
        let mut lent = Vec::new();
        for _ in 0..rng.gen_index(1..6) {
            let to = *rng.pick(&PermissionKind::ALL);
            if let Ok((retained, l)) = held.split(to) {
                held = retained;
                lent.push(l);
            }
        }
        // Merge everything back, in reverse order.
        for l in lent.into_iter().rev() {
            held = held.merge(l).expect("re-merging lent halves stays within the whole");
        }
        assert_eq!(held.kind, original.kind, "unique is reconstituted");
        assert!(held.fraction.is_one());
    });
}

/// Splitting never manufactures strength: the lent part is always
/// satisfied by the original kind, and the retained part coexists.
#[test]
fn split_is_sound() {
    forall("split_is_sound", CASES, |rng| {
        let k = *rng.pick(&PermissionKind::ALL);
        let to = *rng.pick(&PermissionKind::ALL);
        if let Ok(p) = Permission::new(k, Fraction::ONE) {
            if let Ok((retained, lent)) = p.split(to) {
                assert!(k.satisfies(lent.kind));
                assert!(
                    k.can_split_into(&[lent.kind, retained.kind]),
                    "{k} -> [{}, {}]",
                    lent.kind,
                    retained.kind
                );
            }
        }
    });
}

/// Printed programs re-parse (generator-shaped random programs).
#[test]
fn printer_parser_round_trip() {
    forall("printer_parser_round_trip", CASES, |rng| {
        let n_methods = rng.gen_index(1..5);
        let consts: Vec<i64> = (0..5).map(|_| rng.gen_range(1..100)).collect();
        let mut src = String::from("class P {\n    int field;\n");
        for i in 0..n_methods {
            let c = consts[i % consts.len()];
            src.push_str(&format!(
                "    int m{i}(int x) {{\n        int r = x * {c};\n        if (r > {c}) {{ r = r - 1; }}\n        return r;\n    }}\n"
            ));
        }
        src.push('}');
        let unit = parse(&src).unwrap();
        let printed = print_unit(&unit);
        let reparsed = parse(&printed).unwrap();
        // Printing the reparsed AST is a fixpoint.
        assert_eq!(print_unit(&reparsed), printed);
    });
}

#[test]
fn corpus_generation_is_a_function_of_seed() {
    use anek::corpus::generator::{generate, PmdConfig};
    let a = generate(&PmdConfig::small());
    let b = generate(&PmdConfig::small());
    assert_eq!(a.units, b.units);
}
