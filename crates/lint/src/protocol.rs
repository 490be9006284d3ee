//! `PROT001` — deterministic protocol-usage checking.
//!
//! A forward may-analysis tracking, for each place, the set of abstract
//! states its object may currently be in. A call whose receiver precondition
//! names a state (`full(this) in HASNEXT`) fires when some tracked state
//! does not refine the required one — the classic `next()` without
//! `hasNext()` pattern, caught *without* any probabilistic inference.
//!
//! The analysis is interprocedural in a modular way: a per-method *summary*
//! (the possible states of the returned object) is computed by a fixpoint
//! over all program methods, mirroring the paper's modular treatment of
//! per-procedure specifications. Dynamic state tests (`@TrueIndicates` /
//! `@FalseIndicates` on `hasNext`) refine the receiver's state set along the
//! branch edges of the event CFG.

use crate::dataflow::{solve, Analysis};
use crate::diag::{rules, Diagnostic, Severity};
use analysis::cfg::{BranchTest, Cfg, Terminator};
use analysis::events::{Event, EventKind, Place};
use analysis::types::{Callee, MethodId};
use spec_lang::spec::{MethodSpec, SpecTarget};
use spec_lang::state::ALIVE;
use spec_lang::stdlib::ApiRegistry;
use std::collections::{BTreeMap, BTreeSet};

/// Expands an abstract state into the set of *leaf-ish* states an object
/// "in `state`" may concretely be in: the non-ALIVE states of the type's
/// space refining `state`, or `{state}` when the space is unknown or has
/// no refinements. `expand(Iterator, ALIVE) = {HASNEXT, END}`.
fn expand_state(api: &ApiRegistry, type_name: Option<&str>, state: &str) -> BTreeSet<String> {
    if let Some(space) = type_name.and_then(|t| api.states.get(t)) {
        let refined: BTreeSet<String> =
            space.concrete_states(state).into_iter().map(str::to_string).collect();
        if !refined.is_empty() {
            return refined;
        }
    }
    std::iter::once(state.to_string()).collect()
}

/// `None` = unreachable (bottom). In the map, an *absent* place is "state
/// unknown" (top for that place); a present place maps to the set of states
/// the object may be in.
type Fact = Option<BTreeMap<Place, BTreeSet<String>>>;

/// Possible return states per program method: `None` = unknown (top).
pub(crate) type Summaries = BTreeMap<MethodId, Option<BTreeSet<String>>>;

pub(crate) struct ProtocolAnalysis<'a> {
    api: &'a ApiRegistry,
    program_specs: &'a BTreeMap<MethodId, MethodSpec>,
    summaries: &'a Summaries,
}

impl<'a> ProtocolAnalysis<'a> {
    pub fn new(
        api: &'a ApiRegistry,
        program_specs: &'a BTreeMap<MethodId, MethodSpec>,
        summaries: &'a Summaries,
    ) -> ProtocolAnalysis<'a> {
        ProtocolAnalysis { api, program_specs, summaries }
    }

    /// The spec and declaring-type of a callee, when known.
    fn callee_spec<'b>(&'b self, callee: &'b Callee) -> Option<(&'b MethodSpec, Option<&'b str>)> {
        match callee {
            Callee::Api { type_name, method } => {
                self.api.get(type_name, method).map(|m| (&m.spec, Some(type_name.as_str())))
            }
            Callee::Program(id) => self.program_specs.get(id).map(|s| (s, Some(id.class.as_str()))),
            Callee::Unknown { .. } => None,
        }
    }

    fn expand(&self, type_name: Option<&str>, state: &str) -> BTreeSet<String> {
        expand_state(self.api, type_name, state)
    }

    /// Applies a call's effect on its receiver entry, given the callee spec.
    fn apply_receiver(
        &self,
        map: &mut BTreeMap<Place, BTreeSet<String>>,
        place: &Place,
        callee: &Callee,
    ) {
        let Some((spec, ty)) = self.callee_spec(callee) else {
            // Unknown callee: it may do anything to the receiver.
            map.remove(place);
            return;
        };
        let Some(req) = spec.requires.for_target(&SpecTarget::This) else {
            // The callee does not touch the receiver's protocol.
            return;
        };
        let ens = spec.ensures.for_target(&SpecTarget::This);
        let state_changing = req.effective_state() != ALIVE
            || ens.is_some_and(|e| e.state.as_deref().is_some_and(|s| s != ALIVE));
        if !state_changing {
            // A stateless observer (`hasNext`): the receiver keeps its state.
            return;
        }
        match ens {
            Some(e) => {
                map.insert(place.clone(), self.expand(ty, e.effective_state()));
            }
            None => {
                map.remove(place);
            }
        }
    }

    /// The possible states of a call's result, per the callee's postcondition
    /// (APIs) or its computed summary (program methods).
    fn result_states(&self, callee: &Callee) -> Option<BTreeSet<String>> {
        match callee {
            Callee::Api { type_name, method } => {
                let m = self.api.get(type_name, method)?;
                let atom = m.spec.ensures.for_target(&SpecTarget::Result)?;
                Some(self.expand(m.return_type.as_deref(), atom.effective_state()))
            }
            Callee::Program(id) => self.summaries.get(id).cloned().flatten(),
            Callee::Unknown { .. } => None,
        }
    }
}

impl Analysis for ProtocolAnalysis<'_> {
    type Fact = Fact;

    fn bottom(&self, _cfg: &Cfg) -> Fact {
        None
    }

    fn boundary(&self, _cfg: &Cfg) -> Fact {
        Some(BTreeMap::new())
    }

    fn join(&self, into: &mut Fact, other: &Fact) -> bool {
        match (into.as_mut(), other) {
            (_, None) => false,
            (None, Some(_)) => {
                *into = other.clone();
                true
            }
            (Some(a), Some(b)) => {
                let mut changed = false;
                // Keys only in `a` go to "unknown" (top): drop them.
                let stale: Vec<Place> = a.keys().filter(|p| !b.contains_key(*p)).cloned().collect();
                for p in stale {
                    a.remove(&p);
                    changed = true;
                }
                // Shared keys: union the state sets (may-analysis).
                for (p, states) in b {
                    if let Some(cur) = a.get_mut(p) {
                        let before = cur.len();
                        cur.extend(states.iter().cloned());
                        changed |= cur.len() != before;
                    }
                }
                changed
            }
        }
    }

    fn transfer_event(&self, fact: &mut Fact, event: &Event) {
        let Some(map) = fact.as_mut() else { return };
        match &event.kind {
            EventKind::Call { callee, receiver, args, dest } => {
                if let Some(r) = receiver {
                    self.apply_receiver(map, &r.place, callee);
                }
                for a in args.iter().flatten() {
                    // The argument escapes into the callee.
                    map.remove(&a.place);
                }
                if let Some(d) = dest {
                    match self.result_states(callee) {
                        Some(states) => {
                            map.insert(d.place.clone(), states);
                        }
                        None => {
                            map.remove(&d.place);
                        }
                    }
                }
            }
            EventKind::New { dest, args, .. } => {
                for a in args.iter().flatten() {
                    map.remove(&a.place);
                }
                map.remove(dest);
            }
            EventKind::FieldRead { dest, .. } => {
                map.remove(&dest.place);
            }
            EventKind::FieldWrite { src, .. } => {
                if let Some(s) = src {
                    map.remove(&s.place);
                }
            }
            EventKind::Copy { dest, src } => match map.get(&src.place).cloned() {
                Some(states) => {
                    map.insert(dest.clone(), states);
                }
                None => {
                    map.remove(dest);
                }
            },
            EventKind::Sync { .. } => {}
        }
    }

    fn flow_branch(&self, fact: &Fact, test: &BranchTest, taken: bool) -> Fact {
        let Some(map) = fact else { return None };
        let Some((spec, ty)) = self.callee_spec(&test.callee) else { return fact.clone() };
        // `taken != negated` means the test's boolean result was true.
        let indicated =
            if taken != test.negated { &spec.true_indicates } else { &spec.false_indicates };
        let Some(state) = indicated else { return fact.clone() };
        let mut map = map.clone();
        let expanded = self.expand(ty, state);
        let refined = match map.get(&test.operand.place) {
            Some(cur) => cur.intersection(&expanded).cloned().collect(),
            None => expanded,
        };
        map.insert(test.operand.place.clone(), refined);
        Some(map)
    }
}

/// A method whose body participates in the protocol fixpoint.
pub(crate) struct ProtocolMethod<'a> {
    pub id: &'a MethodId,
    pub cfg: &'a Cfg,
    pub return_type: Option<&'a str>,
}

/// Iteration cap for the summary fixpoint (summaries only grow towards top,
/// so convergence is fast; the cap guards recursion through `Unknown`s).
const MAX_SUMMARY_ROUNDS: usize = 20;

/// Computes the possible-return-states summary for every program method by
/// fixpoint iteration, seeding from explicit `ensures ...(result) in S`
/// specifications where present.
pub(crate) fn compute_summaries(
    methods: &[ProtocolMethod<'_>],
    api: &ApiRegistry,
    program_specs: &BTreeMap<MethodId, MethodSpec>,
) -> Summaries {
    let mut summaries: Summaries = BTreeMap::new();
    let mut fixed: BTreeSet<MethodId> = BTreeSet::new();
    for m in methods {
        if m.return_type.is_none() {
            continue;
        }
        let declared = program_specs
            .get(m.id)
            .and_then(|s| s.ensures.for_target(&SpecTarget::Result))
            .and_then(|a| a.state.as_deref());
        match declared {
            Some(state) => {
                summaries.insert(m.id.clone(), Some(expand_state(api, m.return_type, state)));
                fixed.insert(m.id.clone());
            }
            None => {
                // Optimistic start: ascend towards top during the fixpoint.
                summaries.insert(m.id.clone(), Some(BTreeSet::new()));
            }
        }
    }

    for _round in 0..MAX_SUMMARY_ROUNDS {
        let mut changed = false;
        for m in methods {
            if m.return_type.is_none() || fixed.contains(m.id) {
                continue;
            }
            let analysis = ProtocolAnalysis::new(api, program_specs, &summaries);
            let computed = summarize_returns(&analysis, m.cfg);
            let old = summaries.get(m.id).cloned().unwrap_or(None);
            let joined = join_summary(old.clone(), computed);
            if joined != old {
                summaries.insert(m.id.clone(), joined);
                changed = true;
            }
        }
        if !changed {
            return summaries;
        }
    }
    // Did not converge (deep recursion): give up on the still-moving ones.
    for m in methods {
        if m.return_type.is_some() && !fixed.contains(m.id) {
            summaries.insert(m.id.clone(), None);
        }
    }
    summaries
}

/// The union of possible states of every `return x;` in `cfg`, or `None`
/// (top) when some returned value has unknown state.
fn summarize_returns(analysis: &ProtocolAnalysis<'_>, cfg: &Cfg) -> Option<BTreeSet<String>> {
    let sol = solve(analysis, cfg);
    let mut states = BTreeSet::new();
    for b in cfg.reachable() {
        let Some(Terminator::Return(Some(op))) = &cfg.blocks[b].term else { continue };
        let Some(map) = &sol.exit[b] else { continue };
        match map.get(&op.place) {
            Some(s) => states.extend(s.iter().cloned()),
            None => return None,
        }
    }
    Some(states)
}

/// Join in the summary lattice (`None` = top).
fn join_summary(
    a: Option<BTreeSet<String>>,
    b: Option<BTreeSet<String>>,
) -> Option<BTreeSet<String>> {
    match (a, b) {
        (Some(mut x), Some(y)) => {
            x.extend(y);
            Some(x)
        }
        _ => None,
    }
}

/// Runs the protocol analysis over one method and reports violations.
pub(crate) fn report(analysis: &ProtocolAnalysis<'_>, cfg: &Cfg, method: &str) -> Vec<Diagnostic> {
    let sol = solve(analysis, cfg);
    let mut diags = Vec::new();
    for b in cfg.reachable() {
        let mut fact = sol.entry[b].clone();
        for e in &cfg.blocks[b].events {
            if let (Some(map), EventKind::Call { callee, receiver: Some(r), .. }) = (&fact, &e.kind)
            {
                check_call(analysis, map, callee, &r.place, e, method, &mut diags);
            }
            analysis.transfer_event(&mut fact, e);
        }
    }
    diags
}

/// Checks one call's receiver precondition against the current fact.
fn check_call(
    analysis: &ProtocolAnalysis<'_>,
    fact: &BTreeMap<Place, BTreeSet<String>>,
    callee: &Callee,
    receiver: &Place,
    event: &Event,
    method: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((spec, ty)) = analysis.callee_spec(callee) else { return };
    let Some(req) = spec.requires.for_target(&SpecTarget::This) else { return };
    let required = req.effective_state();
    if required == ALIVE {
        return;
    }
    let Some(states) = fact.get(receiver) else { return };
    let space = ty.and_then(|t| analysis.api.states.get(t));
    let bad: Vec<&String> = states
        .iter()
        .filter(|s| match space {
            Some(sp) => !sp.refines(s, required),
            None => s.as_str() != required,
        })
        .collect();
    if bad.is_empty() || states.is_empty() {
        return;
    }
    let callee_name = match callee {
        Callee::Api { type_name, method } => format!("{type_name}.{method}()"),
        Callee::Program(id) => format!("{id}()"),
        Callee::Unknown { method } => format!("{method}()"),
    };
    let possible = states.iter().cloned().collect::<Vec<_>>().join(", ");
    diags.push(
        Diagnostic::new(
            rules::PROTOCOL_VIOLATION,
            Severity::Error,
            format!(
                "call to {callee_name} requires its receiver in state {required}, \
                 but it may be in {{{possible}}}"
            ),
            event.span,
        )
        .in_method(method)
        .with_note(format!("required by `{req}` on {callee_name}")),
    );
}
