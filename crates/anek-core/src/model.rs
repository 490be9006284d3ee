//! Per-method probabilistic models (the paper's `𝒢m`, Definition 1).
//!
//! [`MethodModel::build`] turns a method's PFG into a factor graph:
//! variables for every node and edge (§3.2), priors from any existing
//! specifications (Figure 8), the logical constraints L1–L3, the heuristics
//! H1–H5, and — for call sites — the `PARAMARG` binding, realized either
//! from API specifications or from the current probabilistic summaries of
//! program callees (`APPLYSUMMARY`, Figure 9 line 13).

use crate::config::InferConfig;
use crate::constraints::{self, SlotVars};
use crate::summary::{MethodSummary, SlotProbs};
use crate::vec_map::VecMap;
use analysis::pfg::{CallRole, NodeId, Pfg, PfgNodeKind};
use analysis::types::{Callee, MethodId, ProgramIndex};
use factor_graph::{CompiledGraph, Factor, FactorGraph, Marginals, Scratch, VarId};
use java_syntax::ExprId;
use observe::FactorFamily;
use spec_lang::{ApiRegistry, MethodSpec, PermissionKind, SpecTarget, StateRegistry, StateSpace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where one stamped dynamic prior came from — the provenance label the
/// `explain` read-out aggregates incoming neighbor evidence by.
///
/// Stamp order is deterministic (PFG node order, then caller-evidence
/// order), so the label for the extra at stamp index `i` is simply the
/// `i`-th entry of the parallel origin vector
/// [`MethodSkeleton::stamp_labeled`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtraOrigin {
    /// Projected from the current summary of program callee `callee` at one
    /// of this method's call sites (`APPLYSUMMARY`, Figure 9 line 13).
    Callee {
        /// The callee whose summary was projected.
        callee: MethodId,
    },
    /// Projected from the `index`-th caller-evidence snapshot stamped onto
    /// this method's own pre/post/result nodes.
    Caller {
        /// Position in the `caller_evidence` slice the solve was given.
        index: usize,
    },
}

/// Everything the model builder needs to know about the enclosing program.
#[derive(Debug, Clone, Copy)]
pub struct ModelCtx<'a> {
    /// Index of the program under inference.
    pub index: &'a ProgramIndex,
    /// Library specifications.
    pub api: &'a ApiRegistry,
    /// Merged state spaces (API + program-declared).
    pub states: &'a StateRegistry,
}

impl<'a> ModelCtx<'a> {
    /// The state names a slot of `type_name` ranges over, shared with the
    /// registry.
    pub fn states_of(&self, type_name: Option<&str>) -> &'a Arc<[Arc<str>]> {
        type_name.map_or(StateSpace::alive_only(), |t| self.states.states_of(t))
    }
}

/// Caller evidence as a solve reads it out: per program callee, per call
/// site, the marginals observed there.
pub type CallEvidence = VecMap<MethodId, VecMap<ExprId, CallerEvidence>>;

/// Evidence one call site contributes about its *callee*'s specification:
/// the marginals observed at the caller's `CallPre`/`CallPost`/`CallResult`
/// nodes. Feeding these back into the callee's model is the other half of
/// the `PARAMARG` binding — it is how the paper's Figure 3 conflict (one
/// site demanding `HASNEXT`, many implying `ALIVE`) aggregates onto
/// `createColIter`'s summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CallerEvidence {
    /// Per callee-parameter-name: observed precondition marginals.
    pub param_pre: VecMap<String, SlotProbs>,
    /// Per callee-parameter-name: observed postcondition marginals.
    pub param_post: VecMap<String, SlotProbs>,
    /// Observed result marginals.
    pub result: Option<SlotProbs>,
}

impl CallerEvidence {
    /// Largest marginal change against another snapshot.
    pub fn max_delta(&self, other: &CallerEvidence) -> f64 {
        let mut d = 0.0f64;
        for (k, a) in &self.param_pre {
            match other.param_pre.get(k) {
                Some(b) => d = d.max(a.max_delta(b)),
                None => return 1.0,
            }
        }
        for (k, a) in &self.param_post {
            match other.param_post.get(k) {
                Some(b) => d = d.max(a.max_delta(b)),
                None => return 1.0,
            }
        }
        match (&self.result, &other.result) {
            (Some(a), Some(b)) => d = d.max(a.max_delta(b)),
            (None, None) => {}
            _ => return 1.0,
        }
        d
    }
}

/// The factor-graph model of one method.
#[derive(Debug)]
pub struct MethodModel {
    /// The underlying PFG (shared, never cloned per solve).
    pub pfg: Arc<Pfg>,
    /// The factor graph.
    pub graph: FactorGraph,
    /// Variables per PFG node.
    pub node_vars: Vec<SlotVars>,
    /// Variables per PFG edge (parallel to `pfg.edges`).
    pub edge_vars: Vec<SlotVars>,
}

impl MethodModel {
    /// Builds the model for a method.
    ///
    /// `own_spec` is the method's existing annotation (its atoms become
    /// Figure 8-style priors); `summaries` holds the current probabilistic
    /// summaries of program methods (used at call sites).
    pub fn build(
        ctx: ModelCtx<'_>,
        pfg: Pfg,
        own_spec: &MethodSpec,
        is_constructor: bool,
        summaries: &BTreeMap<MethodId, MethodSummary>,
        cfg: &InferConfig,
    ) -> MethodModel {
        MethodModel::build_with_evidence(ctx, pfg, own_spec, is_constructor, summaries, &[], cfg)
    }

    /// Like [`MethodModel::build`], additionally installing caller-side
    /// evidence (marginals observed at this method's call sites in other
    /// methods) onto the pre/post/result nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_evidence(
        ctx: ModelCtx<'_>,
        pfg: Pfg,
        own_spec: &MethodSpec,
        is_constructor: bool,
        summaries: &BTreeMap<MethodId, MethodSummary>,
        caller_evidence: &[CallerEvidence],
        cfg: &InferConfig,
    ) -> MethodModel {
        let pfg = Arc::new(pfg);
        let mut g = FactorGraph::new();
        let (node_vars, edge_vars, _families) =
            emit_skeleton(&mut g, ctx, &pfg, own_spec, is_constructor, cfg);
        for (v, p) in dynamic_priors(ctx, &pfg, &node_vars, summaries, caller_evidence) {
            g.add_factor(Factor::unary(v, p));
        }
        MethodModel { pfg, graph: g, node_vars, edge_vars }
    }

    /// Reads, from solved marginals, the evidence each *program* call site
    /// provides about its callee — keyed by callee, one entry per site.
    pub fn read_call_evidence(&self, ctx: ModelCtx<'_>, marginals: &Marginals) -> CallEvidence {
        read_call_evidence_from(ctx, &self.pfg, &self.node_vars, marginals)
    }

    /// Structural well-formedness of the model: the slot tables must stay
    /// parallel to the PFG and every slot variable must exist in the factor
    /// graph. Returns human-readable problems, empty when the model is
    /// sound. The lint crate's IR verifier surfaces these as `IR003`
    /// diagnostics at pipeline stage boundaries.
    pub fn check_well_formed(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.node_vars.len() != self.pfg.nodes.len() {
            problems.push(format!(
                "node_vars has {} entries for {} PFG nodes",
                self.node_vars.len(),
                self.pfg.nodes.len()
            ));
        }
        if self.edge_vars.len() != self.pfg.edges.len() {
            problems.push(format!(
                "edge_vars has {} entries for {} PFG edges",
                self.edge_vars.len(),
                self.pfg.edges.len()
            ));
        }
        let nvars = self.graph.num_vars();
        let mut check_slot = |what: &str, i: usize, slot: &SlotVars| {
            for v in slot.kinds.iter().copied().chain(slot.states().map(|(_, v)| v)) {
                if v.0 as usize >= nvars {
                    problems.push(format!(
                        "{what} {i}: slot variable {} out of bounds ({nvars} graph vars)",
                        v.0
                    ));
                    return;
                }
            }
        };
        for (i, slot) in self.node_vars.iter().enumerate() {
            check_slot("node", i, slot);
        }
        for (i, slot) in self.edge_vars.iter().enumerate() {
            check_slot("edge", i, slot);
        }
        problems
    }

    /// Solves the model and reads the method summary off the pre/post/result
    /// nodes (Figure 9's `Solve` + `UPDATESUMMARY` read-out).
    pub fn solve(&self, cfg: &InferConfig) -> MethodSummary {
        let marginals = self.graph.solve(&cfg.bp);
        self.read_summary(&marginals)
    }

    /// Extracts the summary from precomputed marginals.
    pub fn read_summary(&self, marginals: &Marginals) -> MethodSummary {
        read_summary_from(&self.pfg, &self.node_vars, marginals)
    }
}

/// Reads one node's slot marginals into a [`SlotProbs`], keyed by the
/// slot's shared state names.
pub(crate) fn read_slot_from(
    node_vars: &[SlotVars],
    marginals: &Marginals,
    node: NodeId,
) -> SlotProbs {
    let vars = &node_vars[node];
    SlotProbs {
        kinds: vars.kinds.map(|v| marginals.prob(v)),
        states: vars.states().map(|(name, v)| (Arc::clone(name), marginals.prob(v))).collect(),
    }
}

/// The summary read-out shared by [`MethodModel`] and [`MethodSkeleton`].
fn read_summary_from(pfg: &Pfg, node_vars: &[SlotVars], marginals: &Marginals) -> MethodSummary {
    MethodSummary {
        params: pfg
            .params
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    read_slot_from(node_vars, marginals, p.pre),
                    read_slot_from(node_vars, marginals, p.post),
                )
            })
            .collect(),
        result: pfg.result.as_ref().map(|(_, post)| read_slot_from(node_vars, marginals, *post)),
    }
}

/// What one program call-site node observes about its callee.
enum Observed<'a> {
    /// The precondition of the named callee parameter.
    Pre(&'a str),
    /// The postcondition of the named callee parameter.
    Post(&'a str),
    /// The callee's result.
    Result,
}

/// The call-evidence read-out shared by [`MethodModel`] and
/// [`MethodSkeleton`]. Of two nodes at one site observing the same
/// parameter, or the result, the later in PFG order wins.
fn read_call_evidence_from(
    ctx: ModelCtx<'_>,
    pfg: &Pfg,
    node_vars: &[SlotVars],
    marginals: &Marginals,
) -> CallEvidence {
    let param_name = |id: &MethodId, role: CallRole| -> Option<&str> {
        match role {
            CallRole::Receiver => Some("this"),
            CallRole::Arg(i) => {
                ctx.index.method(id).and_then(|m| m.params.get(i)).map(|(n, _)| n.as_str())
            }
        }
    };
    let mut seen: Vec<(&MethodId, ExprId, Observed<'_>, NodeId)> = pfg
        .nodes
        .iter()
        .filter_map(|n| {
            let (id, site, observed) = match &n.kind {
                PfgNodeKind::CallPre { callee: Callee::Program(id), role, site } => {
                    (id, site, Observed::Pre(param_name(id, *role)?))
                }
                PfgNodeKind::CallPost { callee: Callee::Program(id), role, site } => {
                    (id, site, Observed::Post(param_name(id, *role)?))
                }
                PfgNodeKind::CallResult { callee: Callee::Program(id), site } => {
                    (id, site, Observed::Result)
                }
                _ => return None,
            };
            Some((id, *site, observed, n.id))
        })
        .collect();
    // Stable: within a site the nodes stay in PFG order.
    seen.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let read = |node: NodeId| read_slot_from(node_vars, marginals, node);
    let site_evidence = |nodes: &[(&MethodId, ExprId, Observed<'_>, NodeId)]| CallerEvidence {
        param_pre: nodes
            .iter()
            .filter_map(|(_, _, o, n)| match o {
                Observed::Pre(name) => Some((name.to_string(), read(*n))),
                _ => None,
            })
            .collect(),
        param_post: nodes
            .iter()
            .filter_map(|(_, _, o, n)| match o {
                Observed::Post(name) => Some((name.to_string(), read(*n))),
                _ => None,
            })
            .collect(),
        result: nodes
            .iter()
            .rev()
            .find_map(|(_, _, o, n)| matches!(o, Observed::Result).then(|| read(*n))),
    };
    seen.chunk_by(|a, b| a.0 == b.0)
        .map(|callee| {
            let sites =
                callee.chunk_by(|a, b| a.1 == b.1).map(|s| (s[0].1, site_evidence(s))).collect();
            (callee[0].0.clone(), sites)
        })
        .collect()
}

/// A method's *static* model — everything that never changes between
/// re-solves of the Figure 9 worklist — compiled into the flat BP arena.
/// Solving it is [`MethodSkeleton::stamp`] (derive the current
/// summary/evidence unary priors) + [`MethodSkeleton::solve`]; the worklist
/// builds one per solve and drops it once the solve's record is read out.
///
/// The skeleton keeps only the compiled form of its factor graph
/// (variables, L1–L3, heuristics, own-spec and API-callee priors): the
/// [`FactorGraph`] it was built from is dropped once compiled. Every factor
/// draws its table from a per-process memo, so a build tabulates nothing
/// and the compile takes each wide table's fold program from the table. A
/// [`MethodModel`] keeps its graph for callers that inspect it.
#[derive(Debug)]
pub struct MethodSkeleton {
    /// The underlying PFG.
    pub pfg: Arc<Pfg>,
    /// Variables per PFG node.
    pub node_vars: Vec<SlotVars>,
    /// Variables per PFG edge (parallel to `pfg.edges`).
    pub edge_vars: Vec<SlotVars>,
    /// Constraint family per skeleton factor (parallel to the compiled
    /// graph's factor ids) — the provenance labels `explain` aggregates by.
    pub families: Vec<FactorFamily>,
    compiled: CompiledGraph,
}

impl MethodSkeleton {
    /// Builds and compiles the static skeleton of a method's model.
    pub fn build(
        ctx: ModelCtx<'_>,
        pfg: Arc<Pfg>,
        own_spec: &MethodSpec,
        is_constructor: bool,
        cfg: &InferConfig,
    ) -> MethodSkeleton {
        let mut g = FactorGraph::new();
        let (node_vars, edge_vars, families) =
            emit_skeleton(&mut g, ctx, &pfg, own_spec, is_constructor, cfg);
        let compiled = CompiledGraph::compile(&g);
        MethodSkeleton { pfg, node_vars, edge_vars, families, compiled }
    }

    /// The compiled BP arena — exposed for the model-size check and the
    /// post-solve belief-term read-out (`CompiledGraph::belief_terms`).
    pub fn compiled(&self) -> &CompiledGraph {
        &self.compiled
    }

    /// Derives the dynamic unary priors for the current summaries and
    /// caller evidence — the only part of the model that changes between
    /// worklist re-solves.
    pub fn stamp(
        &self,
        ctx: ModelCtx<'_>,
        summaries: &BTreeMap<MethodId, MethodSummary>,
        caller_evidence: &[CallerEvidence],
    ) -> Vec<(VarId, f64)> {
        dynamic_priors(ctx, &self.pfg, &self.node_vars, summaries, caller_evidence)
    }

    /// [`MethodSkeleton::stamp`] plus a parallel provenance label per extra:
    /// `origins[i]` names where `extras[i]` came from. The extras vector is
    /// bit-identical to `stamp`'s.
    pub fn stamp_labeled(
        &self,
        ctx: ModelCtx<'_>,
        summaries: &BTreeMap<MethodId, MethodSummary>,
        caller_evidence: &[CallerEvidence],
    ) -> (Vec<(VarId, f64)>, Vec<ExtraOrigin>) {
        let mut extras = Vec::new();
        let mut origins = Vec::new();
        dynamic_priors_each(
            ctx,
            &self.pfg,
            &self.node_vars,
            summaries,
            caller_evidence,
            |v, p, origin| {
                extras.push((v, p));
                origins.push(origin.clone());
            },
        );
        (extras, origins)
    }

    /// Solves the compiled skeleton with the stamped priors overlaid.
    ///
    /// Equivalent, bit for bit, to rebuilding the full [`MethodModel`] with
    /// the same summaries/evidence and solving its graph.
    pub fn solve(&self, extras: &[(VarId, f64)], cfg: &InferConfig) -> Marginals {
        self.compiled.solve_stamped(extras, &cfg.bp)
    }

    /// [`MethodSkeleton::solve`] with caller-provided scratch buffers —
    /// bit-identical results, but message arrays and queue state are
    /// recycled across solves instead of reallocated (the worklist gives
    /// each worker thread one [`Scratch`] for its whole lifetime).
    pub fn solve_scratch(
        &self,
        extras: &[(VarId, f64)],
        cfg: &InferConfig,
        scratch: &mut Scratch,
    ) -> Marginals {
        self.compiled.solve_stamped_scratch(extras, &cfg.bp, scratch)
    }

    /// Reads the method summary off solved marginals.
    pub fn read_summary(&self, marginals: &Marginals) -> MethodSummary {
        read_summary_from(&self.pfg, &self.node_vars, marginals)
    }

    /// Reads the per-callee call-site evidence off solved marginals.
    pub fn read_call_evidence(&self, ctx: ModelCtx<'_>, marginals: &Marginals) -> CallEvidence {
        read_call_evidence_from(ctx, &self.pfg, &self.node_vars, marginals)
    }
}

/// Emits one method's *static* model into `g`: variables, the logical
/// constraints L1–L3, the heuristics H1–H5, own-spec priors and API-callee
/// priors. Shared by the per-method models and the whole-program ablation
/// model. Everything emitted here is independent of the worklist state;
/// program-callee summaries and caller evidence are dynamic and handled by
/// [`dynamic_priors`].
///
/// The returned family vector tags every emitted factor (by factor id in
/// emission order, relative to `g`'s state on entry) with the constraint
/// family that produced it — the provenance label `explain` aggregates
/// belief log-odds by. Tagging is pure bookkeeping: the graph emitted is
/// bit-identical with the tags ignored.
pub(crate) fn emit_skeleton(
    g: &mut FactorGraph,
    ctx: ModelCtx<'_>,
    pfg: &Pfg,
    own_spec: &MethodSpec,
    is_constructor: bool,
    cfg: &InferConfig,
) -> (Vec<SlotVars>, Vec<SlotVars>, Vec<FactorFamily>) {
    // Family tags, filled by `tag!` after every emission step: all factors
    // added since the previous step belong to the step's family.
    let base = g.num_factors();
    let mut families: Vec<FactorFamily> = Vec::new();
    macro_rules! tag {
        ($g:expr, $fam:expr) => {
            families.resize($g.num_factors() - base, $fam)
        };
    }

    // ---- Variables (§3.2) ----
    let node_vars: Vec<SlotVars> = pfg
        .nodes
        .iter()
        .map(|n| SlotVars::alloc(g, ctx.states_of(n.type_name.as_deref())))
        .collect();
    let edge_vars: Vec<SlotVars> = pfg
        .edges
        .iter()
        .map(|(a, _)| SlotVars::alloc(g, ctx.states_of(pfg.nodes[*a].type_name.as_deref())))
        .collect();

    for slot in node_vars.iter().chain(edge_vars.iter()) {
        constraints::exactly_one(g, slot, cfg.h_exactly_one);
    }
    tag!(g, FactorFamily::ExactlyOne);

    // Edge lookup: node -> outgoing/incoming edge indices.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); pfg.nodes.len()];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); pfg.nodes.len()];
    for (i, (a, b)) in pfg.edges.iter().enumerate() {
        out_edges[*a].push(i);
        in_edges[*b].push(i);
    }

    // ---- L1: outgoing (Eq. 1 and 2) ----
    for n in &pfg.nodes {
        let outs = &out_edges[n.id];
        if outs.is_empty() {
            continue;
        }
        if pfg.is_split(n.id) && outs.len() > 1 {
            let edges: Vec<&SlotVars> = outs.iter().map(|&i| &edge_vars[i]).collect();
            constraints::l1_split(g, &node_vars[n.id], &edges, cfg.h_split);
            tag!(g, FactorFamily::L1Split);
        } else {
            // Single successor, or branch fan-out: the permission is the
            // same along every outgoing edge.
            for &i in outs {
                constraints::l1_equal(g, &node_vars[n.id], &edge_vars[i], cfg.h_outgoing);
            }
            tag!(g, FactorFamily::L1Equal);
        }
    }

    // ---- L2: incoming (Eq. 3) ----
    for n in &pfg.nodes {
        let ins = &in_edges[n.id];
        if ins.is_empty() {
            continue;
        }
        let edges: Vec<&SlotVars> = ins.iter().map(|&i| &edge_vars[i]).collect();
        // Merge-after-call: state flows from the callee's post edge.
        let post_edges: Vec<usize> = ins
            .iter()
            .enumerate()
            .filter(|(_, &ei)| {
                matches!(pfg.nodes[pfg.edges[ei].0].kind, PfgNodeKind::CallPost { .. })
            })
            .map(|(i, _)| i)
            .collect();
        if matches!(n.kind, PfgNodeKind::Merge) && post_edges.len() == 1 && ins.len() > 1 {
            constraints::l2_call_merge(g, &node_vars[n.id], &edges, post_edges[0], cfg.h_incoming);
            tag!(g, FactorFamily::L2CallMerge);
        } else {
            constraints::l2_incoming(g, &node_vars[n.id], &edges, cfg.h_incoming);
            tag!(g, FactorFamily::L2Incoming);
        }
    }

    // ---- L3: field writes + H1 new + call-site bindings ----
    for n in &pfg.nodes {
        match &n.kind {
            PfgNodeKind::FieldWrite { .. } | PfgNodeKind::FieldRead { .. } => {
                if let Some(recv) = n.receiver_link {
                    if matches!(n.kind, PfgNodeKind::FieldWrite { .. }) {
                        constraints::l3_field_write(
                            g,
                            &node_vars[recv],
                            cfg.p_field_write_readonly,
                        );
                        tag!(g, FactorFamily::L3FieldWrite);
                    }
                }
            }
            PfgNodeKind::New { .. } => {
                constraints::h_unique_result(g, &node_vars[n.id], cfg.p_constructor_unique);
                tag!(g, FactorFamily::H1Ctor);
            }
            PfgNodeKind::Refine { state } if cfg.branch_sensitive => {
                let space = n.type_name.as_deref().and_then(|t| ctx.states.get(t));
                let atom = spec_lang::PermAtom {
                    kind: PermissionKind::Pure, // kinds untouched below
                    target: SpecTarget::This,
                    state: Some(state.clone()),
                };
                // Only the state half of the Figure 8 priors: a
                // refinement says nothing about permission kinds.
                let st = atom.effective_state();
                for (name, v) in node_vars[n.id].states() {
                    let refines = match space {
                        Some(sp) => sp.refines(name, st),
                        None => **name == *st,
                    };
                    let p = if refines { cfg.p_spec_high } else { cfg.p_spec_low };
                    constraints::prior(g, v, p);
                }
                tag!(g, FactorFamily::BranchRefine);
            }
            PfgNodeKind::CallPre { callee, role, .. }
            | PfgNodeKind::CallPost { callee, role, .. } => {
                let is_pre = matches!(n.kind, PfgNodeKind::CallPre { .. });
                apply_api_slot(g, &node_vars[n.id], ctx, callee, Some(*role), is_pre, cfg);
                tag!(g, FactorFamily::ApiProtocol);
            }
            PfgNodeKind::CallResult { callee, .. } => {
                apply_api_slot(g, &node_vars[n.id], ctx, callee, None, false, cfg);
                tag!(g, FactorFamily::ApiProtocol);
                // H3 at the call site: `create*` callees return unique.
                if callee_name(callee).starts_with("create") {
                    constraints::h_unique_result(g, &node_vars[n.id], cfg.p_create_unique);
                    tag!(g, FactorFamily::H3Create);
                }
            }
            _ => {}
        }
    }

    // H4 at call sites: set* receivers are writers.
    for n in &pfg.nodes {
        if let PfgNodeKind::CallPre { callee, role: CallRole::Receiver, .. } = &n.kind {
            if callee_name(callee).starts_with("set") {
                constraints::h4_setter(g, &node_vars[n.id], cfg.p_setter_readonly);
            }
        }
    }
    tag!(g, FactorFamily::H4Setter);

    // ---- H5: synchronized targets ----
    for &t in &pfg.sync_targets {
        constraints::h5_thread_shared(g, &node_vars[t], cfg.h_thread_shared);
    }
    tag!(g, FactorFamily::H5Sync);

    // ---- Own-method heuristics and priors ----
    for p in &pfg.params {
        // H2: pre/post kinds agree.
        constraints::h2_pre_post(g, &node_vars[p.pre], &node_vars[p.post], cfg.h_pre_post);
        tag!(g, FactorFamily::H2PrePost);
        let target =
            if p.name == "this" { SpecTarget::This } else { SpecTarget::Param(p.name.clone()) };
        let space = ctx.states.get(&p.type_name);
        if let Some(atom) = own_spec.requires.for_target(&target) {
            install_atom_priors(g, &node_vars[p.pre], atom, space, cfg);
        }
        if let Some(atom) = own_spec.ensures.for_target(&target) {
            install_atom_priors(g, &node_vars[p.post], atom, space, cfg);
        }
        tag!(g, FactorFamily::SpecPrior);
        // H1 on constructors: the constructed object (this-post) is
        // unique with elevated probability.
        if is_constructor && p.name == "this" {
            constraints::h_unique_result(g, &node_vars[p.post], cfg.p_constructor_unique);
            tag!(g, FactorFamily::H1Ctor);
        }
    }
    if let Some((ty, result_post)) = &pfg.result {
        if let Some(atom) = own_spec.ensures.for_target(&SpecTarget::Result) {
            let space = ctx.states.get(ty);
            install_atom_priors(g, &node_vars[*result_post], atom, space, cfg);
            tag!(g, FactorFamily::SpecPrior);
        }
        // H3 on the method itself.
        if pfg.method.method.starts_with("create") {
            constraints::h_unique_result(g, &node_vars[*result_post], cfg.p_create_unique);
            tag!(g, FactorFamily::H3Create);
        }
    }
    // H4 on the method itself.
    if pfg.method.method.starts_with("set") {
        for p in &pfg.params {
            if p.name == "this" {
                constraints::h4_setter(g, &node_vars[p.pre], cfg.p_setter_readonly);
                constraints::h4_setter(g, &node_vars[p.post], cfg.p_setter_readonly);
            }
        }
        tag!(g, FactorFamily::H4Setter);
    }

    // ---- Fault injection (`InferConfig::faults`; empty in normal runs) ----
    // NaN poisoning goes through a genuine factor table so the kernel's
    // numeric guards — not a shortcut — absorb it; oversize padding adds
    // real (unconstrained) variables so the model-size cap trips on the
    // actual graph.
    if cfg.faults.nan_factor(&pfg.method) {
        if let Some(slot) = node_vars.first() {
            let v = slot.kind(PermissionKind::ALL[0]);
            g.add_factor(Factor::from_raw_parts(vec![v], vec![f64::NAN, f64::NAN]));
            tag!(g, FactorFamily::FaultNaN);
        }
    }
    for _ in 0..cfg.faults.oversize_extra(&pfg.method) {
        g.add_var();
    }
    debug_assert_eq!(families.len(), g.num_factors() - base);

    (node_vars, edge_vars, families)
}

/// The *dynamic* half of a method's model: unary priors derived from the
/// current program-callee summaries (`APPLYSUMMARY`, Figure 9 line 13) and
/// from caller-side evidence on this method's own pre/post/result nodes.
/// These are the only factors that change between worklist re-solves, so
/// they are returned as `(variable, clamped prior)` pairs that can either be
/// appended to a full [`MethodModel`] graph or stamped onto a compiled
/// [`MethodSkeleton`] — the two are equivalent bit-for-bit.
pub(crate) fn dynamic_priors(
    ctx: ModelCtx<'_>,
    pfg: &Pfg,
    node_vars: &[SlotVars],
    summaries: &BTreeMap<MethodId, MethodSummary>,
    caller_evidence: &[CallerEvidence],
) -> Vec<(VarId, f64)> {
    let mut out: Vec<(VarId, f64)> = Vec::new();
    dynamic_priors_each(ctx, pfg, node_vars, summaries, caller_evidence, |v, p, _| {
        out.push((v, p));
    });
    out
}

/// [`dynamic_priors`] with a sink that also receives each prior's
/// [`ExtraOrigin`] provenance label. The emission order — and therefore the
/// `(VarId, f64)` sequence a label-ignoring sink observes — is exactly
/// `dynamic_priors`'s.
pub(crate) fn dynamic_priors_each(
    ctx: ModelCtx<'_>,
    pfg: &Pfg,
    node_vars: &[SlotVars],
    summaries: &BTreeMap<MethodId, MethodSummary>,
    caller_evidence: &[CallerEvidence],
    mut sink: impl FnMut(VarId, f64, &ExtraOrigin),
) {
    // Program-callee summaries at call sites, in PFG node order (matching
    // the position the historical single-pass emitter visited them in).
    for n in &pfg.nodes {
        let (callee, role, is_pre) = match &n.kind {
            PfgNodeKind::CallPre { callee, role, .. } => (callee, Some(*role), true),
            PfgNodeKind::CallPost { callee, role, .. } => (callee, Some(*role), false),
            PfgNodeKind::CallResult { callee, .. } => (callee, None, false),
            _ => continue,
        };
        let Callee::Program(id) = callee else { continue };
        let Some(summary) = summaries.get(id) else { continue };
        let probs: Option<&SlotProbs> = match role {
            Some(CallRole::Receiver) => {
                summary.param("this").map(|(pre, post)| if is_pre { pre } else { post })
            }
            Some(CallRole::Arg(i)) => {
                // Positional parameter name lookup.
                let name =
                    ctx.index.method(id).and_then(|m| m.params.get(i)).map(|(nm, _)| nm.clone());
                name.and_then(|nm| {
                    summary.param(&nm).map(|(pre, post)| if is_pre { pre } else { post })
                })
            }
            None => summary.result.as_ref(),
        };
        if let Some(probs) = probs {
            let origin = ExtraOrigin::Callee { callee: id.clone() };
            collect_probs(&node_vars[n.id], probs, &origin, &mut sink);
        }
    }
    // Caller evidence on own pre/post/result nodes.
    for (index, ev) in caller_evidence.iter().enumerate() {
        let origin = ExtraOrigin::Caller { index };
        for p in &pfg.params {
            if let Some(probs) = ev.param_pre.get(&p.name) {
                collect_probs(&node_vars[p.pre], probs, &origin, &mut sink);
            }
            if let Some(probs) = ev.param_post.get(&p.name) {
                collect_probs(&node_vars[p.post], probs, &origin, &mut sink);
            }
        }
        if let (Some(probs), Some((_, result_post))) = (&ev.result, &pfg.result) {
            collect_probs(&node_vars[*result_post], probs, &origin, &mut sink);
        }
    }
}

/// Collects a slot's marginals as unary evidence, skipping uninformative
/// near-0.5 entries and clamping like [`constraints::prior`].
fn collect_probs(
    slot: &SlotVars,
    probs: &SlotProbs,
    origin: &ExtraOrigin,
    sink: &mut impl FnMut(VarId, f64, &ExtraOrigin),
) {
    for k in PermissionKind::ALL {
        let p = probs.kind(k);
        if (p - 0.5).abs() > 1e-6 {
            sink(slot.kind(k), p.clamp(0.02, 0.98), origin);
        }
    }
    for (name, v) in slot.states() {
        let p = probs.state(name);
        if (p - 0.5).abs() > 1e-6 {
            sink(v, p.clamp(0.02, 0.98), origin);
        }
    }
}

fn callee_name(callee: &Callee) -> &str {
    match callee {
        Callee::Program(id) => &id.method,
        Callee::Api { method, .. } => method,
        Callee::Unknown { method } => method,
    }
}

/// Installs Figure 8-style priors for one spec atom on a slot: the asserted
/// kind gets `p_spec_high`, all alternatives `p_spec_low`. State priors
/// respect the hierarchy: `in ALIVE` is the root and constrains nothing
/// ("not in any state of interest", Figure 2's note), while a non-root state
/// boosts every state refining it and suppresses the rest.
fn install_atom_priors(
    g: &mut FactorGraph,
    slot: &SlotVars,
    atom: &spec_lang::PermAtom,
    space: Option<&StateSpace>,
    cfg: &InferConfig,
) {
    install_atom_priors_inner(g, slot, atom, space, cfg, false);
}

/// When `lattice_aware` is set (call-site projections of API specs), the
/// `B(0.1)` anti-evidence is installed only on kinds too *weak* to satisfy
/// the asserted one: `hasNext()` asserting `pure(this)` describes the
/// permission lent on that edge, not a denial that the caller retains
/// something stronger, so `unique`/`full` stay unconstrained there — while
/// `next()` asserting `full(this)` genuinely rules out `pure`. Own-method
/// annotations use the paper's literal Figure 8 treatment.
fn install_atom_priors_inner(
    g: &mut FactorGraph,
    slot: &SlotVars,
    atom: &spec_lang::PermAtom,
    space: Option<&StateSpace>,
    cfg: &InferConfig,
    lattice_aware: bool,
) {
    for k in PermissionKind::ALL {
        if k == atom.kind {
            constraints::prior(g, slot.kind(k), cfg.p_spec_high);
        } else if !lattice_aware || !k.satisfies(atom.kind) {
            constraints::prior(g, slot.kind(k), cfg.p_spec_low);
        }
    }
    let state = atom.effective_state();
    for (name, v) in slot.states() {
        // Figure 8 literally: the asserted state (including the ALIVE root)
        // gets `B(0.9)`, and every other state — refining or not — gets
        // `B(0.1)`. Refinement tension (e.g. an iterator known to be in
        // HASNEXT passed to `hasNext()` which asks for ALIVE) is tolerated
        // by the softness of the model; the hard logical baseline instead
        // uses refinement-aware clauses because exactness would be UNSAT.
        let refines = match space {
            Some(sp) => sp.refines(name, state),
            None => **name == *state,
        };
        let p = if **name == *state || (refines && state != spec_lang::ALIVE) {
            cfg.p_spec_high
        } else {
            cfg.p_spec_low
        };
        constraints::prior(g, v, p);
    }
}

/// The static half of the `PARAMARG(c)` binding for one call-site slot:
/// evidence from the callee's *API* specification. Program callees are
/// dynamic (their summaries evolve across the worklist) and handled by
/// [`dynamic_priors`]; unknown callees contribute nothing.
fn apply_api_slot(
    g: &mut FactorGraph,
    slot: &SlotVars,
    ctx: ModelCtx<'_>,
    callee: &Callee,
    role: Option<CallRole>,
    is_pre: bool,
    cfg: &InferConfig,
) {
    let Callee::Api { type_name, method } = callee else { return };
    let Some(api_m) = ctx.api.get(type_name, method) else { return };
    let target = match role {
        Some(CallRole::Receiver) => SpecTarget::This,
        Some(CallRole::Arg(_)) => return, // API arg specs unused in the model
        None => SpecTarget::Result,
    };
    let clause = if is_pre { &api_m.spec.requires } else { &api_m.spec.ensures };
    if let Some(atom) = clause.for_target(&target) {
        let space = ctx.states.get(type_name);
        install_atom_priors_inner(g, slot, atom, space, cfg, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::{spec_of_method, standard_api};

    fn build_model(src: &str, class: &str, method: &str) -> (MethodModel, MethodSummary) {
        let unit = parse(src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        let states = api.states.clone();
        let ctx = ModelCtx { index: &index, api: &api, states: &states };
        let cfg = InferConfig::default();
        let t = unit.type_named(class).unwrap();
        let m = t.method_named(method).unwrap();
        let pfg = Pfg::build(&index, &api, class, m);
        let spec = spec_of_method(m).unwrap();
        let model = MethodModel::build(ctx, pfg, &spec, m.is_constructor(), &BTreeMap::new(), &cfg);
        let summary = model.solve(&cfg);
        (model, summary)
    }

    #[test]
    fn iterator_loop_infers_full_receiver_permission() {
        // The copy pattern: iterator used correctly in a loop. The summary
        // for the iterator parameter should lean towards a writing
        // permission (full — next() requires it).
        let src = r#"
            class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }
        "#;
        let (_, summary) = build_model(src, "App", "drain");
        let (pre, _post) = summary.param("it").expect("it param");
        let p_full = pre.kind(PermissionKind::Full);
        let p_pure = pre.kind(PermissionKind::Pure);
        assert!(
            p_full > 0.5,
            "full should be likely for a nexted iterator: full={p_full:.3} pure={p_pure:.3}"
        );
    }

    #[test]
    fn unused_parameter_stays_uninformative() {
        // With the soft exactly-one factor, symmetric kinds settle around
        // 1/5 each; the important property is that nothing clears the
        // extraction threshold, so no spurious spec is emitted.
        let src = "class App { void noop(Row r) { } } class Row { }";
        let (_, summary) = build_model(src, "App", "noop");
        let (pre, _) = summary.param("r").unwrap();
        let cfg = InferConfig::default();
        assert_eq!(pre.extract_kind(cfg.threshold), None);
        for k in PermissionKind::ALL {
            assert!(
                pre.kind(k) < cfg.threshold,
                "{k} should stay below threshold, got {:.3}",
                pre.kind(k)
            );
        }
    }

    #[test]
    fn create_method_result_leans_unique() {
        let src = r#"
            class Row {
                Collection<Integer> entries;
                Iterator<Integer> createColIter() { return entries.iterator(); }
            }
        "#;
        let (_, summary) = build_model(src, "Row", "createColIter");
        let result = summary.result.as_ref().expect("returns Iterator");
        // H3 (create* ⇒ unique) plus the API's `unique(result)` on
        // Collection.iterator should push unique high.
        assert!(
            result.kind(PermissionKind::Unique) > 0.6,
            "unique={:.3}",
            result.kind(PermissionKind::Unique)
        );
    }

    #[test]
    fn own_annotation_priors_dominate() {
        // An empty body flows `this` straight from pre to post, so a
        // state-changing annotation would be contradicted by L1; use a
        // state-preserving one (the squeeze of contradictory annotations is
        // itself covered by the conflicting-evidence tests).
        let src = r#"
            class App {
                @Perm(requires = "full(this) in HASNEXT", ensures = "full(this) in HASNEXT")
                void step() { }
            }
        "#;
        let unit = parse(src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        // Give App the iterator-style state space so the state vars exist.
        let mut states = api.states.clone();
        states.insert(StateSpace::flat("App", ["HASNEXT", "END"]));
        let ctx = ModelCtx { index: &index, api: &api, states: &states };
        let cfg = InferConfig::default();
        let m = unit.type_named("App").unwrap().method_named("step").unwrap();
        let pfg = Pfg::build(&index, &api, "App", m);
        let spec = spec_of_method(m).unwrap();
        let model = MethodModel::build(ctx, pfg, &spec, false, &BTreeMap::new(), &cfg);
        let summary = model.solve(&cfg);
        let (pre, post) = summary.param("this").unwrap();
        assert!(pre.kind(PermissionKind::Full) > 0.7);
        assert!(pre.state("HASNEXT") > 0.7);
        assert!(post.state("HASNEXT") > 0.6);
        // Extraction reproduces the annotation.
        let extracted = summary.extract_spec(cfg.threshold);
        assert_eq!(extracted.requires.to_string(), "full(this) in HASNEXT");
    }

    #[test]
    fn summaries_propagate_at_call_sites() {
        let src = r#"
            class A { void callee(Stream s) { } }
            class B { void caller(A a, Stream s) { a.callee(s); } }
        "#;
        let unit = parse(src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        let states = api.states.clone();
        let ctx = ModelCtx { index: &index, api: &api, states: &states };
        let cfg = InferConfig::default();

        // Hand-craft a callee summary: s requires full in OPEN.
        let mut pre = SlotProbs::uniform(["ALIVE", "OPEN", "CLOSED"]);
        pre.set_kind(PermissionKind::Full, 0.9);
        pre.states.insert("OPEN".into(), 0.9);
        let callee_summary = MethodSummary {
            params: vec![
                ("this".into(), SlotProbs::uniform(["ALIVE"]), SlotProbs::uniform(["ALIVE"])),
                ("s".into(), pre.clone(), pre),
            ],
            result: None,
        };
        let mut summaries = BTreeMap::new();
        summaries.insert(MethodId::new("A", "callee"), callee_summary);

        let m = unit.type_named("B").unwrap().method_named("caller").unwrap();
        let pfg = Pfg::build(&index, &api, "B", m);
        let model = MethodModel::build(ctx, pfg, &MethodSpec::default(), false, &summaries, &cfg);
        let summary = model.solve(&cfg);
        let (s_pre, _) = summary.param("s").unwrap();
        assert!(
            s_pre.kind(PermissionKind::Full) > 0.55,
            "callee requirement should propagate to caller: {:.3}",
            s_pre.kind(PermissionKind::Full)
        );
        assert!(s_pre.state("OPEN") > 0.55, "OPEN state propagates: {:.3}", s_pre.state("OPEN"));
    }

    #[test]
    fn model_sizes_are_sane() {
        let src = r#"
            class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }
        "#;
        let (model, _) = build_model(src, "App", "drain");
        assert_eq!(model.node_vars.len(), model.pfg.nodes.len());
        assert_eq!(model.edge_vars.len(), model.pfg.edges.len());
        assert!(model.graph.num_factors() > model.pfg.nodes.len());
    }
}
