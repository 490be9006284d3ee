//! Whole-program (non-modular) probabilistic inference — the paper's `Φ_P`
//! (Definition 1).
//!
//! "The probabilistic model `Φ_P` for the program `P` is the product of the
//! probabilistic models for all its methods", with `PARAMARG(c)` equality
//! constraints binding each method's parameters to the arguments at its call
//! sites. The paper notes that `ANEK-INFER` at a fixpoint computes the same
//! result as solving `Φ_P` directly — this module implements the direct
//! solve as an *ablation* of modularity: one factor graph for the entire
//! program, solved once. It demonstrates why the modular algorithm exists:
//! the monolithic graph's size (and BP cost per sweep) grows with the whole
//! program, and nothing can be reused when a single method changes.

use crate::config::InferConfig;
use crate::infer::{merged_states, InferResult};
use crate::model::{emit_skeleton, read_slot_from, ModelCtx};
use crate::outcome::{DegradeReason, MethodOutcome};
use crate::summary::MethodSummary;
use analysis::pfg::{CallRole, Pfg, PfgNodeKind};
use analysis::types::{Callee, MethodId, ProgramIndex};
use factor_graph::{FactorGraph, Marginals};
use java_syntax::ast::CompilationUnit;
use spec_lang::{spec_of_method, ApiRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Runs whole-program inference: one factor graph, one solve.
///
/// Returns the same shape as [`crate::infer()`](crate::infer::infer); `solves` is always 1.
pub fn infer_global(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    cfg: &InferConfig,
) -> InferResult {
    cfg.validate();
    let start = Instant::now();
    let index = ProgramIndex::build(units.iter());
    let states = merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };

    let mut g = FactorGraph::new();
    let mut per_method: BTreeMap<MethodId, (Pfg, Vec<crate::constraints::SlotVars>)> =
        BTreeMap::new();
    let mut pre_annotated = BTreeSet::new();

    for unit in units {
        for t in &unit.types {
            for m in t.methods() {
                if m.body.is_none() {
                    continue;
                }
                let id = MethodId::new(&t.name, &m.name);
                let spec = spec_of_method(m).unwrap_or_default();
                if !spec.is_empty() {
                    pre_annotated.insert(id.clone());
                }
                let pfg = Pfg::build(&index, api, &t.name, m);
                // Skeleton only — no summaries; PARAMARG is explicit below.
                let (node_vars, _edge_vars, _families) =
                    emit_skeleton(&mut g, ctx, &pfg, &spec, m.is_constructor(), cfg);
                per_method.insert(id, (pfg, node_vars));
            }
        }
    }

    // PARAMARG(c): soft equalities binding call-site slots to the callee's
    // parameter slots across method graphs.
    let ids: Vec<MethodId> = per_method.keys().cloned().collect();
    for id in &ids {
        let bindings: Vec<(usize, MethodId, Option<CallRole>, bool)> = {
            let (pfg, _) = &per_method[id];
            pfg.nodes
                .iter()
                .filter_map(|n| match &n.kind {
                    PfgNodeKind::CallPre { callee: Callee::Program(c), role, .. } => {
                        Some((n.id, c.clone(), Some(*role), true))
                    }
                    PfgNodeKind::CallPost { callee: Callee::Program(c), role, .. } => {
                        Some((n.id, c.clone(), Some(*role), false))
                    }
                    PfgNodeKind::CallResult { callee: Callee::Program(c), .. } => {
                        Some((n.id, c.clone(), None, false))
                    }
                    _ => None,
                })
                .collect()
        };
        for (node, callee, role, is_pre) in bindings {
            let Some((cpfg, cvars)) = per_method.get(&callee) else { continue };
            let target = match role {
                None => cpfg.result.as_ref().map(|(_, post)| *post),
                Some(CallRole::Receiver) => cpfg
                    .params
                    .iter()
                    .find(|p| p.name == "this")
                    .map(|p| if is_pre { p.pre } else { p.post }),
                Some(CallRole::Arg(i)) => {
                    let pname = index.method(&callee).and_then(|m| m.params.get(i).cloned());
                    pname.and_then(|(n, _)| {
                        cpfg.params.iter().find(|p| p.name == n).map(|p| {
                            if is_pre {
                                p.pre
                            } else {
                                p.post
                            }
                        })
                    })
                }
            };
            let Some(target) = target else { continue };
            let caller_slot = per_method[id].1[node].clone();
            crate::constraints::l1_equal(&mut g, &caller_slot, &cvars[target], cfg.h_incoming);
        }
    }

    // One global solve.
    let marginals = g.solve(&cfg.bp);

    // Read summaries and extract specs.
    let mut summaries: BTreeMap<MethodId, MethodSummary> = BTreeMap::new();
    let mut specs = BTreeMap::new();
    let mut confidence = BTreeMap::new();
    for (id, (pfg, node_vars)) in &per_method {
        let read_slot =
            |node: usize, marginals: &Marginals| read_slot_from(node_vars, marginals, node);
        let summary = MethodSummary {
            params: pfg
                .params
                .iter()
                .map(|p| {
                    (p.name.clone(), read_slot(p.pre, &marginals), read_slot(p.post, &marginals))
                })
                .collect(),
            result: pfg.result.as_ref().map(|(_, post)| read_slot(*post, &marginals)),
        };
        let (spec, conf) = summary.extract_spec_with_confidence(cfg.threshold);
        specs.insert(id.clone(), spec);
        confidence.insert(id.clone(), conf);
        summaries.insert(id.clone(), summary);
    }

    // One solve covers every method: the global graph's health is each
    // method's health.
    let mut reasons = Vec::new();
    if !marginals.converged {
        reasons.push(DegradeReason::BpNonConverged { iterations: marginals.iterations });
    }
    if marginals.guards.any() {
        reasons.push(DegradeReason::NumericClamped {
            non_finite: marginals.guards.non_finite,
            zero_sum: marginals.guards.zero_sum,
        });
    }
    let outcome = if reasons.is_empty() {
        MethodOutcome::Ok { iterations: marginals.iterations }
    } else {
        MethodOutcome::Degraded { reasons }
    };
    let outcomes = per_method.keys().map(|id| (id.clone(), outcome.clone())).collect();

    InferResult {
        specs,
        summaries,
        confidence,
        solves: 1,
        elapsed: start.elapsed(),
        pre_annotated,
        bp_iterations: marginals.iterations,
        message_updates: marginals.updates,
        discarded_solves: 0,
        speculative_solves: 0,
        commit_stall: Duration::ZERO,
        speculated_chunks: 0,
        stalled_chunks: 0,
        threads: 1,
        outcomes,
        nonconverged_solves: usize::from(!marginals.converged),
        numeric_guard_events: marginals.guards.non_finite + marginals.guards.zero_sum,
        memo_hits: 0,
        memo_misses: 0,
        replayed_solves: 0,
        callers: BTreeMap::new(),
        screened_methods: 0,
        deadline_hit: marginals.deadline_expired,
        deadline_truncated_solves: usize::from(marginals.deadline_expired),
        call_evidence: BTreeMap::new(),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use java_syntax::parse;
    use spec_lang::{standard_api, SpecTarget};

    #[test]
    fn global_infers_drain_like_modular() {
        let unit = parse(
            r#"class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }"#,
        )
        .unwrap();
        let api = standard_api();
        let cfg = InferConfig::default();
        let global = infer_global(std::slice::from_ref(&unit), &api, &cfg);
        let spec = &global.specs[&MethodId::new("App", "drain")];
        let atom = spec.requires.for_target(&SpecTarget::Param("it".into())).expect("atom");
        assert!(atom.kind.allows_write(), "got {}", atom.kind);
        assert_eq!(global.solves, 1);
    }

    #[test]
    fn global_propagates_requirements_across_methods() {
        // The PARAMARG equalities must carry level1's requirement to level2
        // in a single solve (where the modular algorithm needs re-analysis).
        let unit = parse(
            r#"class App {
                void level1(Iterator<Integer> it) { it.next(); }
                void level2(Iterator<Integer> it) { level1(it); }
            }"#,
        )
        .unwrap();
        let api = standard_api();
        let cfg = InferConfig {
            bp: factor_graph::BpOptions { max_iterations: 80, ..cfg_bp() },
            ..InferConfig::default()
        };
        let global = infer_global(std::slice::from_ref(&unit), &api, &cfg);
        let s = &global.summaries[&MethodId::new("App", "level2")];
        let (pre, _) = s.param("it").unwrap();
        assert!(
            pre.state("HASNEXT") > 0.5,
            "HASNEXT should flow through PARAMARG: {:.3}",
            pre.state("HASNEXT")
        );
    }

    fn cfg_bp() -> factor_graph::BpOptions {
        InferConfig::default().bp
    }

    #[test]
    fn global_and_modular_agree_on_figure3_headline() {
        let unit = parse(
            r#"class Row {
                Collection<Integer> entries;
                Iterator<Integer> createColIter() { return entries.iterator(); }
            }"#,
        )
        .unwrap();
        let api = standard_api();
        let cfg = InferConfig::default();
        let modular = infer(std::slice::from_ref(&unit), &api, &cfg);
        let global = infer_global(std::slice::from_ref(&unit), &api, &cfg);
        let id = MethodId::new("Row", "createColIter");
        let m_atom = modular.specs[&id].ensures.for_target(&SpecTarget::Result).cloned();
        let g_atom = global.specs[&id].ensures.for_target(&SpecTarget::Result).cloned();
        assert_eq!(
            m_atom.map(|a| a.kind),
            g_atom.map(|a| a.kind),
            "modular and global should agree at the fixpoint (paper §3.4)"
        );
    }
}
