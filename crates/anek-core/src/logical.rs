//! The "Anek Logical" baseline (paper §4.2, Table 2 last row).
//!
//! Traditional specification inference treats the constraint system as
//! *hard*: every logical rule must hold, heuristics are dropped, and the
//! whole program is solved at once. The paper's experiment found this mode
//! ran out of memory on PMD before reaching a fixed point ("DNF"), and the
//! related SAT-based approach (Dietl) fails outright on buggy programs
//! because the constraints become unsatisfiable.
//!
//! This module reproduces that baseline honestly: the same constraint
//! *shapes* as the probabilistic mode, encoded as hard boolean constraints
//! over every method's node/edge variables plus cross-method `PARAMARG`
//! equalities, solved by chronological backtracking with a work budget.

use crate::config::InferConfig;
use crate::constraints::SlotVars;
use crate::model::ModelCtx;
use analysis::pfg::{CallRole, Pfg, PfgNodeKind};
use analysis::types::{Callee, MethodId, ProgramIndex};
use factor_graph::{Factor, FactorGraph, VarId};
use java_syntax::ast::CompilationUnit;
use spec_lang::{spec_of_method, ApiRegistry, PermissionKind, SpecTarget};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a logical-mode run.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOutcome {
    /// A satisfying assignment was found; a specification can be read off.
    Satisfiable {
        /// `true` assignments per variable.
        assignment: Vec<bool>,
    },
    /// The hard constraints contradict each other (e.g. the program has a
    /// protocol bug) — no specification can be produced.
    Unsatisfiable,
    /// The work budget was exhausted before an answer ("DNF" in Table 2).
    DidNotFinish,
}

/// Result of [`solve_logical`].
#[derive(Debug, Clone)]
pub struct LogicalResult {
    /// What happened.
    pub outcome: LogicalOutcome,
    /// Number of variables in the system.
    pub variables: usize,
    /// Number of hard constraints.
    pub constraints: usize,
    /// Search steps spent (assignments tried).
    pub steps: u64,
    /// Peak memory of the decision stack, in bytes, charged as one
    /// whole-domain snapshot per decision level (see [`MEMORY_LIMIT_BYTES`])
    /// — the paper's logical run "ran out of memory before a fixed point
    /// was reached" on a 2 GB machine, so memory is a first-class budget
    /// here.
    pub peak_memory: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The paper's machine had 2 GB of RAM (§4); the decision stack of the
/// whole-program search is capped accordingly. The search keeps a trail of
/// changed domains, not whole snapshots, but is charged as if it kept one
/// snapshot per level, so it stops at the step such a stack outgrows 2 GB.
pub const MEMORY_LIMIT_BYTES: u64 = 2_000_000_000;

/// Runs the logical (deterministic, whole-program, heuristic-free) baseline.
///
/// `budget` bounds the number of search steps; exceeding it yields
/// [`LogicalOutcome::DidNotFinish`].
pub fn solve_logical(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    cfg: &InferConfig,
    budget: u64,
) -> LogicalResult {
    let start = Instant::now();
    let index = ProgramIndex::build(units.iter());
    let states = crate::infer::merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };

    // ---- Variables for every node and edge of every method ----
    let mut g = FactorGraph::new();
    let mut hard: Vec<Factor> = Vec::new();
    let mut prefer_true: Vec<bool> = Vec::new();
    let mut pfgs: Vec<(MethodId, Pfg, Vec<SlotVars>, Vec<SlotVars>)> = Vec::new();

    // Helper mirrors of slot allocation that also track preferred values.
    let alloc = |g: &mut FactorGraph, prefer: &mut Vec<bool>, states: &Arc<[Arc<str>]>| {
        let sv = SlotVars::alloc(g, states);
        // default preference: pure + ALIVE true, everything else false.
        while prefer.len() < g.num_vars() {
            prefer.push(false);
        }
        prefer[sv.kind(PermissionKind::Pure).0 as usize] = true;
        if let Some(v) = sv.state(spec_lang::ALIVE) {
            prefer[v.0 as usize] = true;
        }
        sv
    };

    for unit in units {
        for t in &unit.types {
            for m in t.methods() {
                if m.body.is_none() {
                    continue;
                }
                let id = MethodId::new(&t.name, &m.name);
                let pfg = Pfg::build(&index, api, &t.name, m);
                let node_vars: Vec<SlotVars> = pfg
                    .nodes
                    .iter()
                    .map(|n| {
                        let st = ctx.states_of(n.type_name.as_deref());
                        alloc(&mut g, &mut prefer_true, st)
                    })
                    .collect();
                let edge_vars: Vec<SlotVars> = pfg
                    .edges
                    .iter()
                    .map(|(a, _)| {
                        let st = ctx.states_of(pfg.nodes[*a].type_name.as_deref());
                        alloc(&mut g, &mut prefer_true, st)
                    })
                    .collect();
                pfgs.push((id, pfg, node_vars, edge_vars));
            }
        }
    }

    // ---- Hard structural constraints (L1–L3 + exactly-one) ----
    for (id, pfg, node_vars, edge_vars) in &pfgs {
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); pfg.nodes.len()];
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); pfg.nodes.len()];
        for (i, (a, b)) in pfg.edges.iter().enumerate() {
            out_edges[*a].push(i);
            in_edges[*b].push(i);
        }
        for slot in node_vars.iter().chain(edge_vars.iter()) {
            hard.push(Factor::from_fn(slot.kinds.to_vec(), |a| {
                if a.iter().filter(|b| **b).count() == 1 {
                    1.0
                } else {
                    0.0
                }
            }));
            if slot.states().len() > 1 {
                let sv: Vec<VarId> = slot.states().map(|(_, v)| v).collect();
                hard.push(Factor::from_fn(sv, |a| {
                    if a.iter().filter(|b| **b).count() == 1 {
                        1.0
                    } else {
                        0.0
                    }
                }));
            }
        }
        for n in &pfg.nodes {
            // L1 hard.
            let outs = &out_edges[n.id];
            if pfg.is_split(n.id) && outs.len() > 1 {
                for &i in outs {
                    let mut scope: Vec<VarId> = node_vars[n.id].kinds.to_vec();
                    scope.extend(edge_vars[i].kinds.iter().copied());
                    hard.push(Factor::from_fn(scope, |a| {
                        for (ki, nk) in PermissionKind::ALL.iter().enumerate() {
                            if !a[ki] {
                                continue;
                            }
                            let ok = PermissionKind::ALL
                                .iter()
                                .enumerate()
                                .any(|(kj, ek)| a[5 + kj] && nk.can_weaken_to(*ek));
                            if !ok {
                                return 0.0;
                            }
                        }
                        1.0
                    }));
                    for (name, v) in node_vars[n.id].states() {
                        if let Some(ev) = edge_vars[i].state(name) {
                            hard.push(eq_factor(v, ev));
                        }
                    }
                }
                for (x, &i) in outs.iter().enumerate() {
                    for &j in outs.iter().skip(x + 1) {
                        let scope = vec![
                            edge_vars[i].kind(PermissionKind::Unique),
                            edge_vars[i].kind(PermissionKind::Full),
                            edge_vars[j].kind(PermissionKind::Unique),
                            edge_vars[j].kind(PermissionKind::Full),
                        ];
                        hard.push(Factor::from_fn(scope, |a| {
                            if (a[0] || a[1]) && (a[2] || a[3]) {
                                0.0
                            } else {
                                1.0
                            }
                        }));
                    }
                }
            } else {
                for &i in outs {
                    for (a, b) in pair_vars(&node_vars[n.id], &edge_vars[i]) {
                        hard.push(eq_factor(a, b));
                    }
                }
            }
            // L2 hard: the node equals one of its incoming edges, realized
            // with hard selector variables (kinds and states select
            // independently, mirroring the probabilistic encoding).
            let ins = &in_edges[n.id];
            if ins.len() == 1 {
                for (a, b) in pair_vars(&node_vars[n.id], &edge_vars[ins[0]]) {
                    hard.push(eq_factor(a, b));
                }
            } else if ins.len() > 1 {
                let mk_selectors = |g: &mut FactorGraph, hard: &mut Vec<Factor>| -> Vec<VarId> {
                    let sels: Vec<VarId> = (0..ins.len()).map(|_| g.add_var()).collect();
                    hard.push(Factor::from_fn(sels.clone(), |a| {
                        if a.iter().filter(|b| **b).count() == 1 {
                            1.0
                        } else {
                            0.0
                        }
                    }));
                    sels
                };
                let kind_sel = mk_selectors(&mut g, &mut hard);
                for (si, &ei) in ins.iter().enumerate() {
                    for (a, b) in node_vars[n.id].kinds.iter().zip(edge_vars[ei].kinds.iter()) {
                        hard.push(Factor::from_fn(vec![kind_sel[si], *a, *b], |v| {
                            if !v[0] || v[1] == v[2] {
                                1.0
                            } else {
                                0.0
                            }
                        }));
                    }
                }
                // Merge-after-call: the state comes from the callee's post
                // edge (mirroring the probabilistic model); otherwise a
                // state selector mirrors the kind selector.
                let post_edges: Vec<usize> = ins
                    .iter()
                    .copied()
                    .filter(|&ei| {
                        matches!(pfg.nodes[pfg.edges[ei].0].kind, PfgNodeKind::CallPost { .. })
                    })
                    .collect();
                let shared: Vec<Arc<str>> = node_vars[n.id]
                    .states()
                    .map(|(s, _)| Arc::clone(s))
                    .filter(|s| ins.iter().all(|&ei| edge_vars[ei].state(s).is_some()))
                    .collect();
                if !shared.is_empty() {
                    if post_edges.len() == 1 {
                        for s in &shared {
                            let a = node_vars[n.id].state(s).expect("shared");
                            let b = edge_vars[post_edges[0]].state(s).expect("shared");
                            hard.push(eq_factor(a, b));
                        }
                    } else {
                        let state_sel = mk_selectors(&mut g, &mut hard);
                        for (si, &ei) in ins.iter().enumerate() {
                            for s in &shared {
                                let a = node_vars[n.id].state(s).expect("shared");
                                let b = edge_vars[ei].state(s).expect("shared");
                                hard.push(Factor::from_fn(vec![state_sel[si], a, b], |v| {
                                    if !v[0] || v[1] == v[2] {
                                        1.0
                                    } else {
                                        0.0
                                    }
                                }));
                            }
                        }
                    }
                }
            }
            // L3 hard.
            if let PfgNodeKind::FieldWrite { .. } = &n.kind {
                if let Some(recv) = n.receiver_link {
                    let scope = vec![
                        node_vars[recv].kind(PermissionKind::Immutable),
                        node_vars[recv].kind(PermissionKind::Pure),
                    ];
                    hard.push(Factor::from_fn(scope, |a| if a[0] || a[1] { 0.0 } else { 1.0 }));
                }
            }
            // API call-site facts are hard unit clauses.
            if let PfgNodeKind::CallPre {
                callee: Callee::Api { type_name, method }, role, ..
            }
            | PfgNodeKind::CallPost {
                callee: Callee::Api { type_name, method }, role, ..
            } = &n.kind
            {
                if *role == CallRole::Receiver {
                    if let Some(api_m) = api.get(type_name, method) {
                        let is_pre = matches!(n.kind, PfgNodeKind::CallPre { .. });
                        let clause =
                            if is_pre { &api_m.spec.requires } else { &api_m.spec.ensures };
                        if let Some(atom) = clause.for_target(&SpecTarget::This) {
                            push_unit_atoms(&mut hard, &node_vars[n.id], atom);
                        }
                    }
                }
            }
            if let PfgNodeKind::CallResult { callee: Callee::Api { type_name, method }, .. } =
                &n.kind
            {
                if let Some(api_m) = api.get(type_name, method) {
                    if let Some(atom) = api_m.spec.ensures.for_target(&SpecTarget::Result) {
                        push_unit_atoms(&mut hard, &node_vars[n.id], atom);
                    }
                }
            }
        }
        let _ = id;
    }

    // ---- PARAMARG: cross-method equalities for program callees ----
    let by_id: BTreeMap<&MethodId, usize> =
        pfgs.iter().enumerate().map(|(i, (id, ..))| (id, i)).collect();
    let mut cross: Vec<(VarId, VarId)> = Vec::new();
    for (_, pfg, node_vars, _) in &pfgs {
        for n in &pfg.nodes {
            let (callee, role, is_pre, is_result) = match &n.kind {
                PfgNodeKind::CallPre { callee: Callee::Program(c), role, .. } => {
                    (c, Some(*role), true, false)
                }
                PfgNodeKind::CallPost { callee: Callee::Program(c), role, .. } => {
                    (c, Some(*role), false, false)
                }
                PfgNodeKind::CallResult { callee: Callee::Program(c), .. } => {
                    (c, None, false, true)
                }
                _ => continue,
            };
            let Some(&ci) = by_id.get(callee) else { continue };
            let (_, cpfg, cnode_vars, _) = &pfgs[ci];
            let target_node = if is_result {
                cpfg.result.as_ref().map(|(_, post)| *post)
            } else {
                let pname = match role.expect("non-result role") {
                    CallRole::Receiver => "this".to_string(),
                    CallRole::Arg(i) => match index.method(callee).and_then(|m| m.params.get(i)) {
                        Some((n, _)) => n.clone(),
                        None => continue,
                    },
                };
                cpfg.params.iter().find(|p| p.name == pname).map(|p| {
                    if is_pre {
                        p.pre
                    } else {
                        p.post
                    }
                })
            };
            let Some(tn) = target_node else { continue };
            for (a, b) in pair_vars(&node_vars[n.id], &cnode_vars[tn]) {
                cross.push((a, b));
            }
        }
    }
    for (a, b) in cross {
        hard.push(eq_factor(a, b));
    }

    // ---- Own annotations as hard facts ----
    for unit in units {
        for t in &unit.types {
            for m in t.methods() {
                if m.body.is_none() {
                    continue;
                }
                let id = MethodId::new(&t.name, &m.name);
                let Some(&i) = by_id.get(&id) else { continue };
                let spec = spec_of_method(m).unwrap_or_default();
                let (_, pfg, node_vars, _) = &pfgs[i];
                for p in &pfg.params {
                    let target = if p.name == "this" {
                        SpecTarget::This
                    } else {
                        SpecTarget::Param(p.name.clone())
                    };
                    if let Some(atom) = spec.requires.for_target(&target) {
                        push_unit_atoms(&mut hard, &node_vars[p.pre], atom);
                    }
                    if let Some(atom) = spec.ensures.for_target(&target) {
                        push_unit_atoms(&mut hard, &node_vars[p.post], atom);
                    }
                }
            }
        }
    }

    let variables = g.num_vars();
    let constraints = hard.len();

    // ---- Chronological backtracking with budget ----
    let (outcome, steps, peak_memory) = backtrack(variables, &hard, &prefer_true, budget);
    let _ = cfg;
    LogicalResult { outcome, variables, constraints, steps, peak_memory, elapsed: start.elapsed() }
}

fn pair_vars(a: &SlotVars, b: &SlotVars) -> Vec<(VarId, VarId)> {
    let mut pairs: Vec<(VarId, VarId)> =
        a.kinds.iter().copied().zip(b.kinds.iter().copied()).collect();
    for (name, v) in a.states() {
        if let Some(o) = b.state(name) {
            pairs.push((v, o));
        }
    }
    pairs
}

fn eq_factor(a: VarId, b: VarId) -> Factor {
    Factor::from_fn(vec![a, b], |v| if v[0] == v[1] { 1.0 } else { 0.0 })
}

fn push_unit_atoms(hard: &mut Vec<Factor>, slot: &SlotVars, atom: &spec_lang::PermAtom) {
    for k in PermissionKind::ALL {
        let want = k == atom.kind;
        hard.push(Factor::from_fn(
            vec![slot.kind(k)],
            move |a| {
                if a[0] == want {
                    1.0
                } else {
                    0.0
                }
            },
        ));
    }
    // `in ALIVE` is the root of the state hierarchy and constrains nothing;
    // a non-root state forbids every state that does not refine it (flat
    // spaces: everything except the state itself).
    let state = atom.effective_state();
    if state == spec_lang::ALIVE {
        return;
    }
    for (name, v) in slot.states() {
        if **name != *state {
            hard.push(Factor::from_fn(vec![v], |a| if a[0] { 0.0 } else { 1.0 }));
        }
    }
}

/// Domain bitmask: bit 0 = `false` allowed, bit 1 = `true` allowed.
type Domain = u8;
const D_FALSE: Domain = 0b01;
const D_TRUE: Domain = 0b10;
const D_BOTH: Domain = 0b11;

/// The domains changed since some point of the search, each with the value
/// it had before, oldest first.
type Trail = Vec<(usize, Domain)>;

/// Generalized-arc-consistency + backtracking solver over tabular hard
/// constraints. `budget` bounds the number of factor revisions — exceeding
/// it reports [`LogicalOutcome::DidNotFinish`], which is how the Table 2
/// "Anek Logical: DNF" row arises at scale. Returns the outcome, the steps
/// spent and the peak decision-stack bytes.
///
/// Backtracking undoes a trail of the domains each decision level changed,
/// which holds at most one entry per variable. The search is still charged
/// what a stack of whole-domain snapshots would hold, `(levels + 1) ×
/// variables` bytes, against [`MEMORY_LIMIT_BYTES`]: that stack is how a
/// chronological solver without a trail backtracks, and the limit stands
/// for the paper's 2 GB machine, so the search stops where such a solver
/// would run out of memory.
fn backtrack(
    n_vars: usize,
    hard: &[Factor],
    prefer_true: &[bool],
    budget: u64,
) -> (LogicalOutcome, u64, u64) {
    if n_vars == 0 {
        return (LogicalOutcome::Satisfiable { assignment: Vec::new() }, 0, 0);
    }
    let mut peak_memory: u64 = 0;
    // var -> factors mentioning it.
    let mut factors_of: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
    for (i, f) in hard.iter().enumerate() {
        for v in f.scope() {
            factors_of[v.0 as usize].push(i);
        }
    }
    let mut steps: u64 = 0;

    /// Prunes unsupported values of every variable in `f`'s scope, trailing
    /// each change. Returns pruned vars, or `None` on domain wipeout.
    fn revise(
        f: &Factor,
        domains: &mut [Domain],
        trail: &mut Trail,
        steps: &mut u64,
    ) -> Option<Vec<usize>> {
        *steps += 1;
        let scope = f.scope();
        let k = scope.len();
        // support[j] collects which values of scope[j] appear in some
        // domain-consistent satisfying row.
        let mut support: Vec<Domain> = vec![0; k];
        'rows: for (idx, &pot) in f.table().iter().enumerate() {
            if pot == 0.0 {
                continue;
            }
            for (j, v) in scope.iter().enumerate() {
                let val = idx & (1 << j) != 0;
                let need = if val { D_TRUE } else { D_FALSE };
                if domains[v.0 as usize] & need == 0 {
                    continue 'rows;
                }
            }
            for (j, _) in scope.iter().enumerate() {
                let val = idx & (1 << j) != 0;
                support[j] |= if val { D_TRUE } else { D_FALSE };
            }
        }
        let mut pruned = Vec::new();
        for (j, v) in scope.iter().enumerate() {
            let vi = v.0 as usize;
            let new = domains[vi] & support[j];
            if new == 0 {
                return None;
            }
            if new != domains[vi] {
                trail.push((vi, domains[vi]));
                domains[vi] = new;
                pruned.push(vi);
            }
        }
        Some(pruned)
    }

    /// Runs GAC to fixpoint starting from `seed` factors. Returns false on
    /// wipeout or budget exhaustion (distinguished via `steps > budget`).
    fn propagate(
        seeds: &[usize],
        hard: &[Factor],
        factors_of: &[Vec<usize>],
        domains: &mut [Domain],
        trail: &mut Trail,
        steps: &mut u64,
        budget: u64,
    ) -> bool {
        let mut queue: std::collections::VecDeque<usize> = seeds.iter().copied().collect();
        let mut queued: Vec<bool> = vec![false; hard.len()];
        for &s in seeds {
            queued[s] = true;
        }
        while let Some(fi) = queue.pop_front() {
            queued[fi] = false;
            if *steps > budget {
                return false;
            }
            match revise(&hard[fi], domains, trail, steps) {
                None => return false,
                Some(pruned) => {
                    for v in pruned {
                        for &g in &factors_of[v] {
                            if g != fi && !queued[g] {
                                queued[g] = true;
                                queue.push_back(g);
                            }
                        }
                    }
                }
            }
        }
        true
    }

    let mut domains: Vec<Domain> = vec![D_BOTH; n_vars];
    let mut trail: Trail = Vec::new();
    // Initial propagation over all factors (handles unit clauses and their
    // consequences through the equality chains).
    let all: Vec<usize> = (0..hard.len()).collect();
    if !propagate(&all, hard, &factors_of, &mut domains, &mut trail, &mut steps, budget) {
        let outcome = if steps > budget {
            LogicalOutcome::DidNotFinish
        } else {
            LogicalOutcome::Unsatisfiable
        };
        return (outcome, steps, peak_memory);
    }
    trail.clear();

    // Depth-first search with GAC maintenance. A decision level records
    // where the trail stood before its decision; backtracking to it undoes
    // everything trailed since.
    struct Frame {
        var: usize,
        mark: usize,
        tried_other: bool,
    }
    let value = |var: usize, preferred: bool| {
        if prefer_true.get(var).copied().unwrap_or(false) == preferred {
            D_TRUE
        } else {
            D_FALSE
        }
    };
    let decide =
        |var: usize, value: Domain, domains: &mut [Domain], trail: &mut Trail, steps: &mut u64| {
            trail.push((var, domains[var]));
            domains[var] = value;
            propagate(&factors_of[var], hard, &factors_of, domains, trail, steps, budget)
        };
    let undo = |domains: &mut [Domain], trail: &mut Trail, mark: usize| {
        for (var, old) in trail.drain(mark..).rev() {
            domains[var] = old;
        }
    };
    let mut stack: Vec<Frame> = Vec::new();
    loop {
        let stack_bytes = (stack.len() as u64 + 1) * n_vars as u64;
        peak_memory = peak_memory.max(stack_bytes);
        if steps > budget || stack_bytes > MEMORY_LIMIT_BYTES {
            return (LogicalOutcome::DidNotFinish, steps, peak_memory);
        }
        // Next undecided variable.
        let Some(var) = domains.iter().position(|d| *d == D_BOTH) else {
            let assignment = domains.iter().map(|d| *d == D_TRUE).collect();
            return (LogicalOutcome::Satisfiable { assignment }, steps, peak_memory);
        };
        let mark = trail.len();
        let mut tried_other = false;
        let mut ok = decide(var, value(var, true), &mut domains, &mut trail, &mut steps);
        if !ok && steps <= budget {
            // First value failed: try the other at this level.
            undo(&mut domains, &mut trail, mark);
            tried_other = true;
            ok = decide(var, value(var, false), &mut domains, &mut trail, &mut steps);
        }
        if ok {
            stack.push(Frame { var, mark, tried_other });
            continue;
        }
        if steps > budget {
            return (LogicalOutcome::DidNotFinish, steps, peak_memory);
        }
        // Both values failed: backtrack to the latest level with a value
        // left to try.
        loop {
            let Some(frame) = stack.pop() else {
                return (LogicalOutcome::Unsatisfiable, steps, peak_memory);
            };
            if frame.tried_other {
                continue;
            }
            undo(&mut domains, &mut trail, frame.mark);
            let ok =
                decide(frame.var, value(frame.var, false), &mut domains, &mut trail, &mut steps);
            if steps > budget {
                return (LogicalOutcome::DidNotFinish, steps, peak_memory);
            }
            if ok {
                stack.push(Frame { tried_other: true, ..frame });
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    fn run(src: &str, budget: u64) -> LogicalResult {
        let unit = parse(src).unwrap();
        let api = standard_api();
        solve_logical(&[unit], &api, &InferConfig::default(), budget)
    }

    #[test]
    fn tiny_clean_program_is_satisfiable() {
        let r = run("class App { void m(Row r) { } } class Row { }", 2_000_000);
        assert!(
            matches!(r.outcome, LogicalOutcome::Satisfiable { .. }),
            "outcome: {:?} with {} vars / {} constraints",
            r.outcome,
            r.variables,
            r.constraints
        );
    }

    #[test]
    fn correct_iterator_use_is_satisfiable() {
        let r = run(
            r#"class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }"#,
            20_000_000,
        );
        assert!(
            matches!(r.outcome, LogicalOutcome::Satisfiable { .. }),
            "outcome: {:?}",
            r.outcome
        );
    }

    #[test]
    fn tight_budget_reports_dnf() {
        let r = run(
            r#"class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }"#,
            50,
        );
        assert_eq!(r.outcome, LogicalOutcome::DidNotFinish);
        assert!(r.steps > 50);
    }

    /// The small corpus under the `paper_tables --small` budget and under a
    /// budget it exceeds: outcome, steps, variables, constraints and the
    /// charged decision-stack bytes. A search that snapshots every level's
    /// domains gives the same values.
    #[test]
    fn small_corpus_search_is_pinned() {
        let corpus = corpus::generate(&corpus::PmdConfig::small());
        let api = standard_api();
        let pin = |budget| {
            let r = solve_logical(&corpus.units, &api, &InferConfig::default(), budget);
            // A satisfiable outcome is pinned by its number of true values.
            let outcome = match r.outcome {
                LogicalOutcome::Satisfiable { assignment } => {
                    format!("sat, {} true", assignment.iter().filter(|b| **b).count())
                }
                other => format!("{other:?}"),
            };
            (outcome, r.steps, r.variables, r.constraints, r.peak_memory)
        };
        assert_eq!(pin(200_000), ("sat, 1658 true".to_string(), 14_359, 5_492, 5_965, 4_404_584));
        assert_eq!(pin(10_000), ("DidNotFinish".to_string(), 10_001, 5_492, 5_965, 867_736));
    }

    #[test]
    fn variables_scale_with_program() {
        let small = run("class A { void m() { } }", 1000);
        let large = run(
            r#"class A {
                void m(Iterator<Integer> a, Iterator<Integer> b) {
                    a.next(); b.next(); a.hasNext(); b.hasNext();
                }
            }"#,
            1000,
        );
        assert!(large.variables > small.variables);
        assert!(large.constraints > small.constraints);
    }
}
