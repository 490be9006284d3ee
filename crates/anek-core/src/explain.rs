//! Spec provenance — "why this annotation" (`anek explain`).
//!
//! An inferred atom is a thresholded marginal, and under sum-product BP a
//! Bernoulli variable's belief log-odds decomposes *additively* over its
//! incoming messages:
//!
//! ```text
//! ln(b/(1-b)) = Σ_f [ln m_{f→v}(true) − ln m_{f→v}(false)] + Σ_e [ln p_e − ln(1−p_e)]
//! ```
//!
//! where `f` ranges over the skeleton factors touching `v` and `e` over the
//! stamped dynamic priors (callee summaries and caller evidence). The kernel
//! exposes the per-term decomposition as
//! [`CompiledGraph::belief_terms`](factor_graph::CompiledGraph::belief_terms);
//! this module re-solves the target method against the run's *final*
//! summaries and evidence, reads those terms off the converged messages, and
//! aggregates them by provenance label: constraint family for skeleton
//! factors ([`FactorFamily`]), neighbor method for stamped extras. The
//! result names, for each atom of the method's spec, which factor families
//! and which neighbor summaries moved the belief the most — e.g. a planted
//! protocol bug shows up as a large negative `PROT` (the API protocol prior
//! fighting the annotation) or `WEAKEN` (a split letting one bad caller
//! drag the precondition) contribution next to the caller's evidence.
//!
//! Because protocol priors attach at call-site nodes rather than at the
//! pre/post node the atom is read from, the aggregation walks the
//! permission-flow chain: a breadth-first sweep from the atom's variable
//! *through* the transport factors (L1/L2/H2 equalities and merges, and
//! the one-hot coupling between a slot's sibling variables) visits every
//! variable whose belief is structurally tied to the root, carrying a
//! *sign* — positive through flow equalities, flipped across the one-hot
//! (support for a sibling kind is anti-support for the root's kind). At
//! each visited variable the non-transport terms are credited, signed:
//! a `B(0.9)` protocol prior sitting three hops upstream is reported as
//! the `+2.2` log-odds push it actually exerts there, with the sign it
//! acts on the root. Transport factors themselves are never credited —
//! they move belief, they do not originate it — with one exception:
//! `WEAKEN` (the L1 split) is both crossed *and* credited, because its
//! message to a node is itself the diagnostic (the split letting one bad
//! caller drag an annotation weaker).
//!
//! Determinism: the walk is purely structural (graph topology decides
//! which terms are credited and with what sign — never message values),
//! most credited sources are unary priors whose messages are constants of
//! the model, and the remainder move by well under the rounding quantum
//! between converged fixpoints. Contributions are aggregated per label,
//! *rounded to one decimal* in log-odds, and sorted by (rounded magnitude,
//! label, detail), so the rendered explanation is byte-identical across
//! `--threads N` (the final summaries are byte-identical by construction).

use crate::config::InferConfig;
use crate::infer::{merged_states, InferResult};
use crate::model::{CallerEvidence, MethodSkeleton, ModelCtx};
use analysis::pfg::Pfg;
use analysis::types::{MethodId, ProgramIndex};
use factor_graph::{BeliefTerm, Scratch};
use java_syntax::ast::CompilationUnit;
use observe::FactorFamily;
use spec_lang::{spec_of_method, ApiRegistry, SpecTarget};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One aggregated source of belief movement for an atom's variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Contributor {
    /// Provenance label: a [`FactorFamily`] label (`PROT`, `WEAKEN`, …) for
    /// skeleton factors, `summary` or `evidence` for stamped neighbors.
    pub label: String,
    /// For neighbor contributions, the `Class.method` the mass came from;
    /// empty for factor families.
    pub detail: String,
    /// Summed log-odds contribution, rounded to one decimal (positive
    /// pushes the variable toward *true*, i.e. toward the atom).
    pub log_odds: f64,
}

impl Contributor {
    /// `PROT  +3.2` / `evidence from App.copy  -1.4` style rendering.
    pub fn render(&self) -> String {
        let sign = if self.log_odds >= 0.0 { "+" } else { "" };
        if self.detail.is_empty() {
            format!("{} {}{:.1}", self.label, sign, self.log_odds)
        } else {
            format!("{} from {} {}{:.1}", self.label, self.detail, sign, self.log_odds)
        }
    }
}

/// Provenance for one atom of the method's inferred specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomExplanation {
    /// `requires` or `ensures`.
    pub clause: String,
    /// The atom as rendered in the spec (e.g. `full(it) in HASNEXT`).
    pub atom: String,
    /// Marginal of the chosen permission-kind variable, rounded to two
    /// decimals.
    pub belief: f64,
    /// Movement of the kind variable's belief, largest magnitude first.
    pub kind_contributors: Vec<Contributor>,
    /// Movement of the state variable's belief (empty for stateless atoms).
    pub state_contributors: Vec<Contributor>,
}

/// The full explanation for one method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodExplanation {
    /// `Class.method`.
    pub method: String,
    /// One entry per spec atom, in clause order (requires first).
    pub atoms: Vec<AtomExplanation>,
}

impl MethodExplanation {
    /// Deterministic plain-text rendering, one block per atom.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("explain {}\n", self.method));
        if self.atoms.is_empty() {
            out.push_str("  (no inferred annotation)\n");
        }
        for a in &self.atoms {
            out.push_str(&format!("  {} {}  [belief {:.2}]\n", a.clause, a.atom, a.belief));
            for c in &a.kind_contributors {
                out.push_str(&format!("    kind  {}\n", c.render()));
            }
            for c in &a.state_contributors {
                out.push_str(&format!("    state {}\n", c.render()));
            }
        }
        out
    }
}

/// Explains the inferred specification of `target` against a completed
/// inference `result` over the same `units`/`api`/`cfg`.
///
/// The method is re-solved once against the run's final summaries and its
/// own final caller evidence — exactly the inputs its last committed solve
/// consumed, so the re-solve reproduces the summary the spec was thresholded
/// from — and the converged belief of each chosen atom variable is
/// decomposed into per-family and per-neighbor log-odds terms.
pub fn explain_method(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    cfg: &InferConfig,
    result: &InferResult,
    target: &MethodId,
) -> Result<MethodExplanation, String> {
    let index = ProgramIndex::build(units.iter());
    let states = merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };

    // Locate the declaring method the same way the worklist's meta pass does.
    let mut found = None;
    for unit in units {
        for t in &unit.types {
            if t.name != target.class {
                continue;
            }
            for m in t.methods() {
                if m.name == target.method && m.body.is_some() {
                    found = Some(m);
                }
            }
        }
    }
    let Some(m) = found else {
        return Err(format!("no analyzable method named {target}"));
    };
    let spec = result.specs.get(target).ok_or_else(|| {
        format!("{target} was not solved (screened or skipped); nothing to explain")
    })?;

    let own_spec = spec_of_method(m).unwrap_or_default();
    let pfg =
        Arc::new(Pfg::build_with_refinement(&index, api, &target.class, m, cfg.branch_sensitive));
    let skeleton = MethodSkeleton::build(ctx, Arc::clone(&pfg), &own_spec, m.is_constructor(), cfg);

    // The run's final dynamic inputs, in the exact order `solve_one` fed
    // them ((caller, site) key order), so Caller origins map back to
    // caller ids positionally.
    let own_store = result.call_evidence.get(target);
    let own_evidence: Vec<CallerEvidence> =
        own_store.map(|s| s.values().cloned().collect()).unwrap_or_default();
    let caller_of: Vec<MethodId> =
        own_store.map(|s| s.keys().map(|(c, _)| c.clone()).collect()).unwrap_or_default();
    let (extras, origins) = skeleton.stamp_labeled(ctx, &result.summaries, &own_evidence);
    // The diagnostic re-solve runs under a *canonical* BP configuration —
    // tight tolerance, no budget or deadline — so where the run behind
    // `result` happened to stop cannot show through in the reported message
    // terms: driving the re-solve well past its stopping residual puts the
    // messages inside the explanation's rounding quantum of the fixpoint.
    let canon = InferConfig {
        bp: factor_graph::BpOptions {
            tolerance: cfg.bp.tolerance.min(1e-9),
            max_iterations: cfg.bp.max_iterations.max(200),
            update_budget: None,
            deadline: None,
            ..cfg.bp
        },
        ..cfg.clone()
    };
    let cfg = &canon;
    let mut scratch = Scratch::new();
    let marginals = skeleton.solve_scratch(&extras, cfg, &mut scratch);

    // Aggregates the signed source terms reachable from one variable by
    // provenance label (see `walk_sources`).
    let explain_var = |root: factor_graph::VarId| -> Vec<Contributor> {
        let by_label = walk_sources(&skeleton, &origins, &caller_of, &scratch, root);
        let mut out: Vec<Contributor> = by_label
            .into_iter()
            .map(|((label, detail), lo)| Contributor {
                label,
                detail,
                log_odds: (lo * 10.0).round() / 10.0,
            })
            .filter(|c| c.log_odds != 0.0)
            .collect();
        out.sort_by(|a, b| {
            b.log_odds
                .abs()
                .total_cmp(&a.log_odds.abs())
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        out
    };

    let mut atoms = Vec::new();
    for (clause_name, clause, is_pre) in
        [("requires", &spec.requires, true), ("ensures", &spec.ensures, false)]
    {
        for atom in &clause.atoms {
            let node =
                match &atom.target {
                    SpecTarget::This => pfg.params.iter().find(|p| p.name == "this").map(|p| {
                        if is_pre {
                            p.pre
                        } else {
                            p.post
                        }
                    }),
                    SpecTarget::Param(name) => pfg
                        .params
                        .iter()
                        .find(|p| p.name == *name)
                        .map(|p| if is_pre { p.pre } else { p.post }),
                    SpecTarget::Result => pfg.result.as_ref().map(|(_, post)| *post),
                };
            let Some(node) = node else { continue };
            let slot = &skeleton.node_vars[node];
            let kind_var = slot.kind(atom.kind);
            let state_contributors = atom
                .state
                .as_deref()
                .and_then(|s| slot.state(s))
                .map(&explain_var)
                .unwrap_or_default();
            atoms.push(AtomExplanation {
                clause: clause_name.to_string(),
                atom: atom.to_string(),
                belief: (marginals.prob(kind_var) * 100.0).round() / 100.0,
                kind_contributors: explain_var(kind_var),
                state_contributors,
            });
        }
    }

    Ok(MethodExplanation { method: target.to_string(), atoms })
}

/// Families that *transport* belief along the permission-flow chains
/// rather than originating it: the L1/L2 flow equalities and merges, the
/// H2 pre/post agreement, and the one-hot coupling between a slot's
/// sibling variables. The provenance walk crosses them to reach the
/// sources behind them.
fn is_transport(fam: FactorFamily) -> bool {
    matches!(
        fam,
        FactorFamily::ExactlyOne
            | FactorFamily::L1Equal
            | FactorFamily::L1Split
            | FactorFamily::L2Incoming
            | FactorFamily::L2CallMerge
            | FactorFamily::H2PrePost
    )
}

/// Walks the transport-connected component of `root` breadth-first and
/// credits every *source* term it reaches, signed by parity: crossing the
/// one-hot coupling flips the sign (belief in a sibling kind is belief
/// against the root's kind), every other transport preserves it. Each
/// variable is claimed once, one-hot neighbours first, so parity is
/// decided by the structurally tightest route and the walk is a pure
/// function of graph topology — message values never influence which
/// terms are credited or with what sign.
///
/// Credited terms are the non-transport factor messages (constraint
/// families: `PROT`, `SPEC`, `H1`…`H5`, …) and the stamped extras (callee
/// summaries, caller evidence) at each visited variable, each at its local
/// log-odds strength. `WEAKEN` (the L1 split) is additionally credited
/// while still being crossed: its message to a node *is* the weakening
/// pressure a diagnosis wants to see, but callers behind the split still
/// deserve to be named.
fn walk_sources(
    skeleton: &MethodSkeleton,
    origins: &[crate::model::ExtraOrigin],
    caller_of: &[MethodId],
    scratch: &Scratch,
    root: factor_graph::VarId,
) -> BTreeMap<(String, String), f64> {
    let compiled = skeleton.compiled();
    let mut by_label: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut sign: BTreeMap<u32, f64> = BTreeMap::new();
    sign.insert(root.0, 1.0);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let s = sign[&v.0];
        let terms = compiled.belief_terms(v, scratch);
        // Claim neighbours: one-hot (sign-flipping) couplings first, so a
        // sibling's parity comes from its own slot rather than from a
        // cross-kind path through a split factor.
        for flip_pass in [true, false] {
            for term in &terms {
                let BeliefTerm::Factor { factor, .. } = *term else { continue };
                let family = skeleton.families[factor as usize];
                let flips = matches!(family, FactorFamily::ExactlyOne);
                if !is_transport(family) || flips != flip_pass {
                    continue;
                }
                for u in compiled.factor_vars(factor) {
                    if let std::collections::btree_map::Entry::Vacant(e) = sign.entry(u.0) {
                        e.insert(if flips { -s } else { s });
                        queue.push_back(u);
                    }
                }
            }
        }
        for term in &terms {
            match *term {
                BeliefTerm::Factor { factor, log_odds } => {
                    let family = skeleton.families[factor as usize];
                    // Within the split family only the weakening and
                    // exclusivity tables (scope > 2) are diagnostic; its
                    // per-state pass-throughs are plain equalities.
                    let lossy_split = matches!(family, FactorFamily::L1Split)
                        && compiled.factor_vars(factor).len() > 2;
                    if !is_transport(family) || lossy_split {
                        *by_label
                            .entry((family.label().to_string(), String::new()))
                            .or_insert(0.0) += s * log_odds;
                    }
                }
                BeliefTerm::Extra { index, log_odds } => {
                    let key = match &origins[index as usize] {
                        crate::model::ExtraOrigin::Callee { callee } => {
                            ("summary".to_string(), callee.to_string())
                        }
                        crate::model::ExtraOrigin::Caller { index } => {
                            ("evidence".to_string(), caller_of[*index].to_string())
                        }
                    };
                    *by_label.entry(key).or_insert(0.0) += s * log_odds;
                }
            }
        }
    }
    by_label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use java_syntax::parse;
    use spec_lang::standard_api;

    const DRAIN: &str = r#"
        class App {
            void drain(Iterator<Integer> it) {
                while (it.hasNext()) { it.next(); }
            }
        }
    "#;

    #[test]
    fn drain_precondition_is_driven_by_api_protocol() {
        let unit = parse(DRAIN).unwrap();
        let api = standard_api();
        let cfg = InferConfig::default();
        let result = infer(std::slice::from_ref(&unit), &api, &cfg);
        let id = MethodId::new("App", "drain");
        let ex = explain_method(&[unit], &api, &cfg, &result, &id).unwrap();
        assert_eq!(ex.method, "App.drain");
        let req = ex.atoms.iter().find(|a| a.clause == "requires").expect("requires atom");
        assert!(req.atom.contains("(it)"), "atom targets it: {}", req.atom);
        // The belief in the writing kind must be moved (positively) by the
        // PROT family — next()'s API protocol is what demands the write.
        let prot = req
            .kind_contributors
            .iter()
            .find(|c| c.label == "PROT")
            .unwrap_or_else(|| panic!("PROT among contributors: {:?}", req.kind_contributors));
        assert!(prot.log_odds > 0.0, "PROT supports the atom: {prot:?}");
    }

    #[test]
    fn explanation_is_identical_across_threads() {
        let unit = parse(DRAIN).unwrap();
        let api = standard_api();
        let id = MethodId::new("App", "drain");
        let renders: Vec<String> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let cfg = InferConfig { threads, ..InferConfig::default() };
                let result = infer(std::slice::from_ref(&unit), &api, &cfg);
                let ex =
                    explain_method(std::slice::from_ref(&unit), &api, &cfg, &result, &id).unwrap();
                ex.render_text()
            })
            .collect();
        assert_eq!(renders[0], renders[1], "explain must be thread-independent");
    }

    #[test]
    fn unknown_method_is_a_clean_error() {
        let unit = parse(DRAIN).unwrap();
        let api = standard_api();
        let cfg = InferConfig::default();
        let result = infer(std::slice::from_ref(&unit), &api, &cfg);
        let err = explain_method(&[unit], &api, &cfg, &result, &MethodId::new("App", "nope"))
            .unwrap_err();
        assert!(err.contains("App.nope"), "error names the method: {err}");
    }

    #[test]
    fn caller_evidence_is_named_in_the_explanation() {
        // createColIter's result spec aggregates caller evidence from copy
        // and testParseCSV (the Figure 3 conflict) — the explanation must
        // name at least one caller as an evidence contributor.
        let unit = parse(
            r#"
            class Row {
                Collection<Integer> entries;
                Iterator<Integer> createColIter() { return entries.iterator(); }
            }
            class App {
                void copy(Row original) {
                    Iterator<Integer> iter = original.createColIter();
                    while (iter.hasNext()) { iter.next(); }
                }
            }
        "#,
        )
        .unwrap();
        let api = standard_api();
        let cfg = InferConfig::default();
        let result = infer(std::slice::from_ref(&unit), &api, &cfg);
        let id = MethodId::new("Row", "createColIter");
        let ex = explain_method(&[unit], &api, &cfg, &result, &id).unwrap();
        let ens = ex.atoms.iter().find(|a| a.clause == "ensures").expect("result atom");
        assert!(
            ens.kind_contributors
                .iter()
                .chain(&ens.state_contributors)
                .any(|c| c.label == "evidence" && c.detail == "App.copy"),
            "caller evidence should be attributed: {:?}",
            ens.kind_contributors
        );
    }
}
