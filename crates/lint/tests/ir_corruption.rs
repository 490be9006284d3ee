//! The IR verifier must catch injected corruptions across all three IR
//! levels: broken CFGs (`IR001`), broken PFGs (`IR002`), and broken
//! constraint systems (`IR003`) — and stay silent on the well-formed
//! originals.

use analysis::cfg::{Cfg, Terminator};
use analysis::pfg::Pfg;
use analysis::types::{ProgramIndex, TypeEnv};
use corpus::figures;
use factor_graph::{Factor, FactorGraph, VarId};
use java_syntax::parse;
use lint::rules;
use lint::verify::{verify_cfg, verify_factor_graph, verify_pfg};
use spec_lang::standard_api;

fn figure3_copy_irs() -> (Cfg, Pfg) {
    let unit = parse(figures::FIGURE3).unwrap();
    let api = standard_api();
    let index = ProgramIndex::build(std::iter::once(&unit));
    let t = unit.type_named("Spreadsheet").unwrap();
    let m = t.method_named("copy").unwrap();
    let mut env = TypeEnv::for_method(&index, &api, "Spreadsheet", m);
    let cfg = Cfg::build(m, &mut env);
    let pfg = Pfg::build(&index, &api, "Spreadsheet", m);
    (cfg, pfg)
}

#[test]
fn pristine_irs_verify_clean() {
    let (cfg, pfg) = figure3_copy_irs();
    assert!(verify_cfg(&cfg, "Spreadsheet.copy").is_empty());
    assert!(verify_pfg(&pfg).is_empty());
}

// ---- corruption class 1: control-flow graphs -------------------------------

#[test]
fn cfg_out_of_bounds_target_is_caught() {
    let (mut cfg, _) = figure3_copy_irs();
    let n = cfg.blocks.len();
    cfg.blocks[cfg.entry].term = Some(Terminator::Goto(n + 7));
    let diags = verify_cfg(&cfg, "m");
    assert!(diags.iter().any(|d| d.rule == rules::BAD_CFG), "{diags:?}");
}

#[test]
fn cfg_unsealed_reachable_block_is_caught() {
    let (mut cfg, _) = figure3_copy_irs();
    // Unseal some reachable non-exit block.
    let victim = (0..cfg.blocks.len())
        .find(|&b| b != cfg.exit && cfg.blocks[b].term.is_some() && b != cfg.entry)
        .unwrap();
    cfg.blocks[victim].term = None;
    let diags = verify_cfg(&cfg, "m");
    assert!(diags.iter().any(|d| d.message.contains("unsealed")), "{diags:?}");
}

#[test]
fn cfg_exit_with_events_or_wrong_terminator_is_caught() {
    let (mut cfg, _) = figure3_copy_irs();
    cfg.blocks[cfg.exit].term = Some(Terminator::Return(None));
    let diags = verify_cfg(&cfg, "m");
    assert!(diags.iter().any(|d| d.message.contains("must end in Exit")), "{diags:?}");
}

// ---- corruption class 2: permissions flow graphs ---------------------------

#[test]
fn pfg_dangling_edge_is_caught() {
    let (_, mut pfg) = figure3_copy_irs();
    let n = pfg.nodes.len();
    pfg.edges.push((0, n + 3));
    let diags = verify_pfg(&pfg);
    assert!(
        diags.iter().any(|d| d.rule == rules::BAD_PFG && d.message.contains("out of bounds")),
        "{diags:?}"
    );
}

#[test]
fn pfg_split_arity_violation_is_caught() {
    let (_, mut pfg) = figure3_copy_irs();
    let split = pfg.nodes.iter().position(|n| pfg.is_split(n.id)).expect("copy has splits");
    // A second edge *into* a split breaks the L1 fan-in-1 invariant.
    let other = (0..pfg.nodes.len()).find(|&i| i != split && !pfg.is_split(i)).unwrap();
    pfg.edges.push((other, split));
    let diags = verify_pfg(&pfg);
    assert!(diags.iter().any(|d| d.message.contains("fan-in")), "{diags:?}");
}

#[test]
fn pfg_cycle_not_through_merge_is_caught() {
    let (_, mut pfg) = figure3_copy_irs();
    // Find an existing edge (a, b) where b is not a merge, and close a
    // cycle b -> a. Self-loops and merge-targeted edges are separately
    // diagnosed, so build the cycle from non-merge endpoints.
    let (a, b) = pfg
        .edges
        .iter()
        .copied()
        .find(|&(a, b)| {
            a != b
                && !matches!(pfg.nodes[b].kind, analysis::pfg::PfgNodeKind::Merge)
                && !matches!(pfg.nodes[a].kind, analysis::pfg::PfgNodeKind::Merge)
        })
        .expect("copy has a non-merge edge");
    pfg.edges.push((b, a));
    let diags = verify_pfg(&pfg);
    assert!(diags.iter().any(|d| d.message.contains("cyclic")), "{diags:?}");
}

// ---- corruption class 3: constraint systems --------------------------------

#[test]
fn factor_table_length_mismatch_is_caught() {
    let mut g = FactorGraph::new();
    let a = g.add_var();
    let b = g.add_var();
    // A 2-variable factor needs 4 entries; hand it 3.
    g.push_factor_unchecked(Factor::from_raw_parts(vec![a, b], vec![0.5, 0.5, 0.5]));
    let diags = verify_factor_graph(&g, "m");
    assert!(
        diags.iter().any(|d| d.rule == rules::BAD_CONSTRAINTS && d.message.contains("table")),
        "{diags:?}"
    );
}

#[test]
fn factor_bad_entries_and_scopes_are_caught() {
    let mut g = FactorGraph::new();
    let a = g.add_var();
    // Negative potential.
    g.push_factor_unchecked(Factor::from_raw_parts(vec![a], vec![-1.0, 0.5]));
    // Duplicate variable in scope.
    g.push_factor_unchecked(Factor::from_raw_parts(vec![a, a], vec![0.1; 4]));
    // Out-of-bounds variable.
    g.push_factor_unchecked(Factor::from_raw_parts(vec![VarId(99)], vec![0.5, 0.5]));
    let diags = verify_factor_graph(&g, "m");
    assert!(diags.iter().any(|d| d.message.contains("finite")), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("duplicate")), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("out of bounds")), "{diags:?}");
}

#[test]
fn well_formed_factor_graph_is_clean() {
    let mut g = FactorGraph::new();
    let a = g.add_var();
    let b = g.add_var();
    g.add_factor(Factor::from_fn(vec![a, b], |vals| if vals[0] == vals[1] { 0.9 } else { 0.1 }));
    assert!(verify_factor_graph(&g, "m").is_empty());
}
