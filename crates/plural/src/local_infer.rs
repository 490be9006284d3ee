//! PLURAL's local fractional-permission inference (Table 3 baseline).
//!
//! "While PLURAL requires annotations on method boundaries it uses a local
//! permission inference … responsible for determining which fractions of
//! permissions are consumed and returned by different parts of a method
//! body … The underlying algorithm relies upon Gaussian Elimination to find
//! satisfying fractional permission assignments" (paper §4.2, citing
//! Bierhoff's thesis ch. 5).
//!
//! We reproduce that computation: every PFG edge gets a fraction variable;
//! flow conservation at every node plus unit supply at each parameter yields
//! a linear system over exact rationals, solved by sparse elimination
//! ([`crate::sparse::solve_sparse`]; the dense [`crate::linalg::solve`] is
//! its test oracle).
//! The Table 3 experiment compares this (on a fully inlined method) against
//! ANEK's probabilistic inference on the modular form.

use crate::sparse::{solve_sparse, SignedFrac, SparseRow};
use analysis::pfg::{Pfg, PfgNodeKind};
use analysis::types::ProgramIndex;
use java_syntax::ast::MethodDecl;
use spec_lang::{ApiRegistry, Fraction};
use std::time::{Duration, Instant};

/// The result of local fractional inference over one method.
#[derive(Debug, Clone)]
pub struct LocalInference {
    /// Whether a satisfying fractional assignment exists.
    pub satisfiable: bool,
    /// Fraction assigned to each PFG edge (empty when unsatisfiable).
    pub edge_fractions: Vec<Fraction>,
    /// Number of fraction variables (PFG edges).
    pub variables: usize,
    /// Number of conservation equations.
    pub equations: usize,
    /// Rank of the system.
    pub rank: usize,
    /// Wall-clock time of system construction + elimination.
    pub elapsed: Duration,
}

/// Runs local fractional inference on one method.
pub fn local_infer(
    index: &ProgramIndex,
    api: &ApiRegistry,
    class: &str,
    method: &MethodDecl,
) -> LocalInference {
    let pfg = Pfg::build(index, api, class, method);
    local_infer_pfg(&pfg)
}

/// Runs local fractional inference over a prebuilt PFG.
pub fn local_infer_pfg(pfg: &Pfg) -> LocalInference {
    let start = Instant::now();
    let n_edges = pfg.edges.len();
    let n_nodes = pfg.nodes.len();

    // Variables: one fraction per edge (0..n_edges) and one per node
    // (n_edges..). Two very different kinds of fan-in/fan-out exist:
    //  * permission SPLITS (Split nodes) distribute additively:
    //    `sum(out-edges) - node = 0`;
    //  * control-flow alternatives (every other multi-edge node) carry the
    //    same fraction on every path: `edge - node = 0` per edge.
    // Merges with a CallPost predecessor re-combine additively
    // (`sum(in-edges) - node = 0`); join merges take equal fractions from
    // the alternative paths. Call pre/post pairs are pass-throughs
    // (`post - pre = 0`) and sources (parameter pres, `new`, field reads,
    // call results) supply one whole permission (`node = 1`).
    let node_var = |n: usize| n_edges + n;
    let n_vars = n_edges + n_nodes;
    let mut rows: Vec<SparseRow> = Vec::new();

    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (i, (a, b)) in pfg.edges.iter().enumerate() {
        out_edges[*a].push(i);
        in_edges[*b].push(i);
    }

    let eq_pair = |a: usize, b: usize| {
        let mut r = SparseRow::new();
        r.add_coeff(a, SignedFrac::ONE);
        r.add_coeff(b, SignedFrac::neg_one());
        r
    };

    for n in &pfg.nodes {
        let outs = &out_edges[n.id];
        let ins = &in_edges[n.id];
        let v = node_var(n.id);

        let is_source = matches!(
            n.kind,
            PfgNodeKind::ParamPre { .. }
                | PfgNodeKind::New { .. }
                | PfgNodeKind::FieldRead { .. }
                | PfgNodeKind::CallResult { .. }
        );
        if is_source {
            let mut r = SparseRow::new();
            r.add_coeff(v, SignedFrac::ONE);
            r.rhs = SignedFrac::ONE;
            rows.push(r);
        }

        if !outs.is_empty() {
            if matches!(n.kind, PfgNodeKind::Split) {
                let mut r = SparseRow::new();
                for &e in outs {
                    r.add_coeff(e, SignedFrac::ONE);
                }
                r.add_coeff(v, SignedFrac::neg_one());
                rows.push(r);
            } else {
                for &e in outs {
                    rows.push(eq_pair(e, v));
                }
            }
        }

        if !ins.is_empty() && !is_source && !matches!(n.kind, PfgNodeKind::CallPost { .. }) {
            let additive = matches!(n.kind, PfgNodeKind::Merge)
                && ins.iter().any(|&e| {
                    matches!(pfg.nodes[pfg.edges[e].0].kind, PfgNodeKind::CallPost { .. })
                });
            if additive {
                let mut r = SparseRow::new();
                for &e in ins {
                    r.add_coeff(e, SignedFrac::ONE);
                }
                r.add_coeff(v, SignedFrac::neg_one());
                rows.push(r);
            } else {
                for &e in ins {
                    rows.push(eq_pair(e, v));
                }
            }
        }
    }

    // Call pre/post pass-through: the callee returns what it consumed.
    let mut pres: std::collections::BTreeMap<(java_syntax::ExprId, String), usize> =
        std::collections::BTreeMap::new();
    let mut posts: std::collections::BTreeMap<(java_syntax::ExprId, String), usize> =
        std::collections::BTreeMap::new();
    for n in &pfg.nodes {
        match &n.kind {
            PfgNodeKind::CallPre { site, role, .. } => {
                pres.insert((*site, role.to_string()), n.id);
            }
            PfgNodeKind::CallPost { site, role, .. } => {
                posts.insert((*site, role.to_string()), n.id);
            }
            _ => {}
        }
    }
    for (key, pre) in &pres {
        if let Some(post) = posts.get(key) {
            rows.push(eq_pair(node_var(*post), node_var(*pre)));
        }
    }

    let equations = rows.len();
    let solution = solve_sparse(rows, n_vars);
    // Permission fractions cannot be negative: a negative component means
    // some path demands more permission than is available.
    let satisfiable = solution.consistent && solution.values.iter().all(|v| !v.neg || v.is_zero());
    LocalInference {
        satisfiable,
        edge_fractions: if satisfiable {
            solution.values[..n_edges].iter().map(|v| v.mag).collect()
        } else {
            Vec::new()
        },
        variables: n_vars,
        equations,
        rank: solution.rank,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    fn run(src: &str, class: &str, method: &str) -> LocalInference {
        let unit = parse(src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        let m = unit.type_named(class).unwrap().method_named(method).unwrap();
        local_infer(&index, &api, class, m)
    }

    #[test]
    fn straight_line_method_is_satisfiable() {
        let r = run(
            r#"class App {
                void m(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    it.hasNext();
                }
            }"#,
            "App",
            "m",
        );
        assert!(r.satisfiable);
        assert!(r.variables > 0);
        assert!(r.equations > 0);
        // Every PFG edge carries a defined fraction (variables additionally
        // include per-node and slack variables).
        assert!(!r.edge_fractions.is_empty());
        assert!(r.edge_fractions.len() <= r.variables);
    }

    #[test]
    fn loop_method_is_satisfiable() {
        let r = run(
            r#"class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }"#,
            "App",
            "drain",
        );
        assert!(r.satisfiable, "vars={} eqs={} rank={}", r.variables, r.equations, r.rank);
    }

    #[test]
    fn system_grows_with_method_size() {
        let small = run("class A { void m(Row r) { } } class Row { void x() {} }", "A", "m");
        let large = run(
            r#"class Row { void x() {} }
               class A {
                void m(Row r, Row s) {
                    r.x(); s.x(); r.x(); s.x(); r.x();
                }
            }"#,
            "A",
            "m",
        );
        assert!(large.variables > small.variables);
        assert!(large.equations > small.equations);
    }

    #[test]
    fn fractions_at_sources_are_unit() {
        let r = run(
            r#"class Row { void x() {} }
               class A { void m(Row r) { r.x(); } }"#,
            "A",
            "m",
        );
        assert!(r.satisfiable);
        // At least one edge carries the full unit permission out of PRE r.
        assert!(r.edge_fractions.iter().any(Fraction::is_one), "{:?}", r.edge_fractions);
    }
}
