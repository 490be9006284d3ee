//! The probabilistic constraint emitters (paper §3.3).
//!
//! Logical constraints **L1** (outgoing permissions, including sound
//! splitting), **L2** (incoming permissions) and **L3** (field writes need a
//! writing receiver) encode the basic algebra of access permissions;
//! heuristic constraints **H1–H5** encode what makes a *good* PLURAL
//! specification. Every constraint is soft — potential `h` when satisfied,
//! `1-h` otherwise (Eq. 6) — which is precisely what lets ANEK produce
//! specifications for buggy programs.

use factor_graph::{Factor, FactorGraph, Table, VarId};
use spec_lang::PermissionKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The predicate of one constraint below. With an arity and a strength it
/// fixes a factor's table, which [`shared_table`] tabulates once per
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    /// Exactly one variable holds: a slot's kinds or states, selectors.
    ExactlyOne,
    /// The two variables agree: L1's branch form, states through a split,
    /// H2.
    Equal,
    /// Eq. 2's legal weakening: each kind the node holds (`a[0..5]`)
    /// weakens to a kind the edge holds (`a[5..10]`), unless the edge holds
    /// none.
    Weakening,
    /// Eq. 2's exclusivity: the edges' `unique`/`full` pairs (`a[0..2]`,
    /// `a[2..4]`) are not both writers.
    Exclusive,
    /// L2's selector implication: `a[0]` implies `a[1] == a[2]`.
    Implied,
    /// At least one variable holds: L3's writers, H5.
    AnyOf,
    /// A unary prior: potential `h` for true and `1 - h` for false, as
    /// `Factor::unary` tabulates it.
    Prior,
}

impl Shape {
    fn holds(self, a: &[bool]) -> bool {
        match self {
            Shape::ExactlyOne => a.iter().filter(|b| **b).count() == 1,
            Shape::Equal => a[0] == a[1],
            Shape::Weakening => {
                for (i, nk) in PermissionKind::ALL.iter().enumerate() {
                    if !a[i] {
                        continue;
                    }
                    let edge_ok = PermissionKind::ALL
                        .iter()
                        .enumerate()
                        .any(|(j, ek)| a[5 + j] && (nk.can_weaken_to(*ek) || nk == ek));
                    if !edge_ok && a[5..10].iter().any(|b| *b) {
                        return false;
                    }
                }
                true
            }
            Shape::Exclusive => !((a[0] || a[1]) && (a[2] || a[3])),
            Shape::Implied => !a[0] || a[1] == a[2],
            Shape::AnyOf | Shape::Prior => a.iter().any(|b| *b),
        }
    }

    fn tabulate(self, arity: usize, h: f64) -> Table {
        match self {
            Shape::Prior => Table::unary(h),
            _ => Table::soft(arity, h, |a| self.holds(a)),
        }
    }
}

/// The table of `shape` over `arity` variables at strength `h`, tabulated
/// on its first use in this process and shared by every factor after.
///
/// Strengths come from the [`crate::InferConfig`], so a run draws all its
/// factors from a few dozen tables: tabulating them once takes the cost of
/// building a model from the size of its tables to the number of its
/// factors. The memo only grows.
fn shared_table(shape: Shape, arity: usize, h: f64) -> Arc<Table> {
    type Memo = Mutex<HashMap<(Shape, usize, u64), Arc<Table>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    // A panic while the lock is held (tabulating an invalid strength or
    // arity) happens before the insert, so a poisoned memo is still valid.
    let mut memo = MEMO.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner);
    let table = memo
        .entry((shape, arity, h.to_bits()))
        .or_insert_with(|| Arc::new(shape.tabulate(arity, h)));
    Arc::clone(table)
}

/// Adds the factor of `shape` at strength `h` over `scope`.
fn add(g: &mut FactorGraph, shape: Shape, scope: Vec<VarId>, h: f64) {
    let table = shared_table(shape, scope.len(), h);
    g.add_factor(Factor::new(scope, table));
}

/// The variables modelling one PFG node or edge: five kind variables plus
/// one variable per abstract state of the slot's type, the state variables
/// allocated in a run in the order of the type's state names.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotVars {
    /// Kind variables, indexed per [`PermissionKind::ALL`].
    pub kinds: [VarId; 5],
    /// The slot type's state names, shared with its state space.
    names: Arc<[Arc<str>]>,
    /// The variable of the first state; the rest follow it.
    first_state: u32,
}

impl SlotVars {
    /// Allocates fresh variables in `g` for a slot over `states`. The slot
    /// shares the list of names rather than copying it.
    pub fn alloc(g: &mut FactorGraph, states: &Arc<[Arc<str>]>) -> SlotVars {
        let kinds = PermissionKind::ALL.map(|_| g.add_var());
        let first_state = g.num_vars() as u32;
        for _ in states.iter() {
            g.add_var();
        }
        SlotVars { kinds, names: Arc::clone(states), first_state }
    }

    /// The variable for a kind.
    pub fn kind(&self, k: PermissionKind) -> VarId {
        let idx = PermissionKind::ALL.iter().position(|x| *x == k).expect("indexed");
        self.kinds[idx]
    }

    /// The state variables with their names, in the state space's order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = (&Arc<str>, VarId)> {
        let first = self.first_state;
        self.names.iter().enumerate().map(move |(i, name)| (name, VarId(first + i as u32)))
    }

    /// The variable for a state, if the slot's type has it.
    pub fn state(&self, s: &str) -> Option<VarId> {
        let i = self.names.iter().position(|n| **n == *s)?;
        Some(VarId(self.first_state + i as u32))
    }

    /// All variables paired by position with another slot (kinds, then the
    /// states both slots share).
    fn paired<'a>(&'a self, other: &'a SlotVars) -> impl Iterator<Item = (VarId, VarId)> + 'a {
        let kinds = self.kinds.iter().copied().zip(other.kinds.iter().copied());
        let states = self.states().filter_map(move |(name, v)| other.state(name).map(|o| (v, o)));
        kinds.chain(states)
    }
}

/// Soft mutual exclusion: exactly one kind variable and exactly one state
/// variable should hold per slot. (Figure 8's priors treat kinds/states as
/// near-exclusive; this factor makes the modelling assumption explicit.)
pub fn exactly_one(g: &mut FactorGraph, slot: &SlotVars, h: f64) {
    add(g, Shape::ExactlyOne, slot.kinds.to_vec(), h);
    let mut states = slot.states().map(|(_, v)| v);
    if states.len() > 1 {
        add(g, Shape::ExactlyOne, states.collect(), h);
    } else if let Some(v) = states.next() {
        // Single-state (ALIVE-only) types are simply alive.
        add(g, Shape::Prior, vec![v], 0.95);
    }
}

/// L1, branch form (Eq. 1): the node and an outgoing edge carry the same
/// permission and state, with high probability `h1`, variable by variable.
pub fn l1_equal(g: &mut FactorGraph, node: &SlotVars, edge: &SlotVars, h: f64) {
    for (a, b) in node.paired(edge) {
        add(g, Shape::Equal, vec![a, b], h);
    }
}

/// L1, split form (Eq. 2): each outgoing edge must be a legal weakening of
/// the node's kind; states pass through unchanged; and at most one edge may
/// carry an exclusive-writer permission.
pub fn l1_split(g: &mut FactorGraph, node: &SlotVars, edges: &[&SlotVars], h: f64) {
    // Per-edge legal weakening: couple the node's 5 kind vars with the
    // edge's 5 kind vars (scope 10 → 1024-entry table).
    for edge in edges {
        let mut scope: Vec<VarId> = node.kinds.to_vec();
        scope.extend(edge.kinds.iter().copied());
        add(g, Shape::Weakening, scope, h);
        // States flow through the split unchanged.
        for (name, v) in node.states() {
            if let Some(ev) = edge.state(name) {
                add(g, Shape::Equal, vec![v, ev], h);
            }
        }
    }
    // Exclusivity: no two edges may both carry unique/full (Eq. 2's last
    // conjunct: `X^e_unique → ¬(X^e2_unique ∨ X^e2_full)`).
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let scope = vec![
                edges[i].kind(PermissionKind::Unique),
                edges[i].kind(PermissionKind::Full),
                edges[j].kind(PermissionKind::Unique),
                edges[j].kind(PermissionKind::Full),
            ];
            add(g, Shape::Exclusive, scope, h);
        }
    }
}

/// L2 (Eq. 3): a node's permission equals *one of* its incoming edges',
/// with high probability.
///
/// The disjunction-of-equalities form matters at merge-after-call nodes: the
/// caller's retained (e.g. `full`) permission and the callee's returned
/// (e.g. `pure`) permission both flow in, and the node may adopt either —
/// a per-variable OR would wrongly force the node to be `pure` whenever any
/// incoming edge is. Kinds and states choose their edge independently, which
/// models PLURAL's merge semantics (kind from the strongest holder, state
/// from the callee's postcondition).
pub fn l2_incoming(g: &mut FactorGraph, node: &SlotVars, edges: &[&SlotVars], h: f64) {
    if edges.is_empty() {
        return;
    }
    if edges.len() == 1 {
        l1_equal(g, node, edges[0], h);
        return;
    }
    l2_kinds_one_of(g, node, edges, h);
    l2_states_one_of(g, node, edges, h);
}

/// L2 for the merge node after a call site (Figure 6): the *kind* may come
/// from any incoming edge (typically the caller's retained permission), but
/// the *state* comes from the callee's postcondition edge — the callee may
/// have transitioned the object, so retained state knowledge is stale.
pub fn l2_call_merge(
    g: &mut FactorGraph,
    node: &SlotVars,
    edges: &[&SlotVars],
    post_edge: usize,
    h: f64,
) {
    l2_kinds_one_of(g, node, edges, h);
    // States: equality with the callee's post edge only.
    for (name, v) in node.states() {
        if let Some(ev) = edges[post_edge].state(name) {
            add(g, Shape::Equal, vec![v, ev], h);
        }
    }
}

/// Kinds-half of L2: the node's kind vector equals one incoming edge's,
/// with a boolean selector per edge (exactly one holds) and scope-3
/// implication factors.
fn l2_kinds_one_of(g: &mut FactorGraph, node: &SlotVars, edges: &[&SlotVars], h: f64) {
    let kind_sel = add_selectors(g, edges.len(), h);
    for (i, e) in edges.iter().enumerate() {
        for (nv, ev) in node.kinds.iter().zip(e.kinds.iter()) {
            add(g, Shape::Implied, vec![kind_sel[i], *nv, *ev], h);
        }
    }
}

/// States-half of L2 with an independent selector.
fn l2_states_one_of(g: &mut FactorGraph, node: &SlotVars, edges: &[&SlotVars], h: f64) {
    let shared: Vec<&str> = node
        .states()
        .map(|(n, _)| &**n)
        .filter(|n| edges.iter().all(|e| e.state(n).is_some()))
        .collect();
    if shared.is_empty() {
        return;
    }
    let state_sel = add_selectors(g, edges.len(), h);
    for (i, e) in edges.iter().enumerate() {
        for name in &shared {
            let nv = node.state(name).expect("shared state");
            let ev = e.state(name).expect("shared state");
            add(g, Shape::Implied, vec![state_sel[i], nv, ev], h);
        }
    }
}

/// Allocates `m` selector variables with a soft exactly-one factor.
fn add_selectors(g: &mut FactorGraph, m: usize, h: f64) -> Vec<VarId> {
    let sels: Vec<VarId> = (0..m).map(|_| g.add_var()).collect();
    if m > 1 {
        add(g, Shape::ExactlyOne, sels.clone(), h);
    } else if let Some(&s) = sels.first() {
        add(g, Shape::Prior, vec![s], 0.95);
    }
    sels
}

/// L3: the receiver of a field write cannot be read-only — `immutable` and
/// `pure` get a very low probability, and some writing kind must hold.
pub fn l3_field_write(g: &mut FactorGraph, receiver: &SlotVars, p_readonly: f64) {
    add(g, Shape::Prior, vec![receiver.kind(PermissionKind::Immutable)], p_readonly);
    add(g, Shape::Prior, vec![receiver.kind(PermissionKind::Pure)], p_readonly);
    let writers = vec![
        receiver.kind(PermissionKind::Unique),
        receiver.kind(PermissionKind::Full),
        receiver.kind(PermissionKind::Share),
    ];
    add(g, Shape::AnyOf, writers, 1.0 - p_readonly);
    // Break the symmetry among the writers: `full` is the idiomatic PLURAL
    // spec for a writing receiver (exclusive writer, readers tolerated).
    add(g, Shape::Prior, vec![receiver.kind(PermissionKind::Full)], 0.65);
}

/// H1 / H3: elevated probability of `unique` on a constructor result or a
/// `create*` method's return value.
pub fn h_unique_result(g: &mut FactorGraph, slot: &SlotVars, p_unique: f64) {
    add(g, Shape::Prior, vec![slot.kind(PermissionKind::Unique)], p_unique);
}

/// H2: a parameter's pre and post *kinds* (not states) agree with high
/// probability.
pub fn h2_pre_post(g: &mut FactorGraph, pre: &SlotVars, post: &SlotVars, h: f64) {
    for (a, b) in pre.kinds.iter().zip(post.kinds.iter()) {
        add(g, Shape::Equal, vec![*a, *b], h);
    }
}

/// H4: `set*` receivers are unlikely to be read-only kinds.
pub fn h4_setter(g: &mut FactorGraph, receiver: &SlotVars, p_readonly: f64) {
    add(g, Shape::Prior, vec![receiver.kind(PermissionKind::Immutable)], p_readonly);
    add(g, Shape::Prior, vec![receiver.kind(PermissionKind::Pure)], p_readonly);
}

/// H5: targets of `synchronized` blocks are `full`, `share` or `pure` with
/// high probability.
pub fn h5_thread_shared(g: &mut FactorGraph, target: &SlotVars, h: f64) {
    let scope = vec![
        target.kind(PermissionKind::Full),
        target.kind(PermissionKind::Share),
        target.kind(PermissionKind::Pure),
    ];
    add(g, Shape::AnyOf, scope, h);
}

/// Installs priors from a known probability (clamped away from 0/1 so that
/// conflicting evidence can still coexist — the heart of the approach).
pub fn prior(g: &mut FactorGraph, var: VarId, p: f64) {
    add(g, Shape::Prior, vec![var], p.clamp(0.02, 0.98));
}

#[cfg(test)]
mod tests {
    use super::*;
    use factor_graph::BpOptions;

    fn alloc(g: &mut FactorGraph) -> SlotVars {
        SlotVars::alloc(g, &Arc::from(["ALIVE".into(), "HASNEXT".into(), "END".into()]))
    }

    /// Every wide constraint's shared table is, bit for bit, the table a
    /// fresh `Factor::soft` tabulates from the predicate its emitter
    /// passed before tables were shared; so are the pairwise equalities'
    /// and the priors'.
    #[test]
    fn shared_tables_equal_fresh_tabulations() {
        let one_hot = |a: &[bool]| a.iter().filter(|b| **b).count() == 1;
        let weakening = |a: &[bool]| {
            for (i, nk) in PermissionKind::ALL.iter().enumerate() {
                if !a[i] {
                    continue;
                }
                let edge_ok = PermissionKind::ALL
                    .iter()
                    .enumerate()
                    .any(|(j, ek)| a[5 + j] && (nk.can_weaken_to(*ek) || nk == ek));
                if !edge_ok && a[5..10].iter().any(|b| *b) {
                    return false;
                }
            }
            true
        };
        let exclusive = |a: &[bool]| {
            let writer_i = a[0] || a[1];
            let writer_j = a[2] || a[3];
            !(writer_i && writer_j)
        };
        let implied = |a: &[bool]| !a[0] || a[1] == a[2];
        let any = |a: &[bool]| a.iter().any(|b| *b);
        let equal = |a: &[bool]| a[0] == a[1];
        let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let check = |shape: Shape, arity: usize, h: f64, pred: &dyn Fn(&[bool]) -> bool| {
            let scope: Vec<VarId> = (0..arity as u32).map(VarId).collect();
            let fresh = Factor::soft(scope, h, pred);
            let shared = shared_table(shape, arity, h);
            assert_eq!(bits(shared.cells()), bits(fresh.table()), "{shape:?}/{arity} at {h}");
        };
        for h in [0.9, 0.98, 0.51] {
            check(Shape::Weakening, 10, h, &weakening);
            check(Shape::Exclusive, 4, h, &exclusive);
            check(Shape::Implied, 3, h, &implied);
            // L3's writers and H5's targets.
            check(Shape::AnyOf, 3, h, &any);
            check(Shape::Equal, 2, h, &equal);
            // A slot's five kinds, its states, an L2 node's selectors.
            for arity in 2..=8 {
                check(Shape::ExactlyOne, arity, h, &one_hot);
            }
            let prior = shared_table(Shape::Prior, 1, h);
            assert_eq!(bits(prior.cells()), bits(Factor::unary(VarId(0), h).table()));
        }
    }

    #[test]
    fn slot_alloc_creates_eight_vars() {
        let mut g = FactorGraph::new();
        let s = alloc(&mut g);
        assert_eq!(g.num_vars(), 8);
        assert!(s.state("HASNEXT").is_some());
        assert!(s.state("OPEN").is_none());
        assert_eq!(s.kind(PermissionKind::Unique), VarId(0));
    }

    #[test]
    fn l1_equal_propagates_evidence() {
        let mut g = FactorGraph::new();
        let n = alloc(&mut g);
        let e = alloc(&mut g);
        prior(&mut g, n.kind(PermissionKind::Full), 0.95);
        l1_equal(&mut g, &n, &e, 0.9);
        let m = g.solve(&BpOptions::default());
        assert!(m.prob(e.kind(PermissionKind::Full)) > 0.7);
    }

    #[test]
    fn l1_split_permits_full_plus_pure_from_unique() {
        let mut g = FactorGraph::new();
        let n = alloc(&mut g);
        let e1 = alloc(&mut g);
        let e2 = alloc(&mut g);
        prior(&mut g, n.kind(PermissionKind::Unique), 0.95);
        // Evidence that e1 must be full (a callee needs it).
        prior(&mut g, e1.kind(PermissionKind::Full), 0.95);
        l1_split(&mut g, &n, &[&e1, &e2], 0.9);
        for s in [&n, &e1, &e2] {
            exactly_one(&mut g, s, 0.9);
        }
        let m = g.solve(&BpOptions { max_iterations: 100, ..BpOptions::default() });
        // e2 must not also be an exclusive writer.
        let p_e2_writer =
            m.prob(e2.kind(PermissionKind::Unique)).max(m.prob(e2.kind(PermissionKind::Full)));
        assert!(p_e2_writer < 0.5, "retained edge must not be a second writer: {p_e2_writer}");
    }

    #[test]
    fn l1_split_states_flow_through() {
        let mut g = FactorGraph::new();
        let n = alloc(&mut g);
        let e = alloc(&mut g);
        prior(&mut g, n.state("HASNEXT").unwrap(), 0.95);
        l1_split(&mut g, &n, &[&e], 0.9);
        let m = g.solve(&BpOptions::default());
        assert!(m.prob(e.state("HASNEXT").unwrap()) > 0.7);
    }

    #[test]
    fn l2_or_equality_merges_incoming() {
        let mut g = FactorGraph::new();
        let n = alloc(&mut g);
        let a = alloc(&mut g);
        let b = alloc(&mut g);
        prior(&mut g, a.kind(PermissionKind::Share), 0.9);
        prior(&mut g, b.kind(PermissionKind::Share), 0.9);
        l2_incoming(&mut g, &n, &[&a, &b], 0.9);
        let m = g.solve(&BpOptions::default());
        // Selector-based L2 dilutes single-hop evidence (the selector is
        // itself uncertain); the node must still clearly lean share.
        assert!(m.prob(n.kind(PermissionKind::Share)) > 0.6);
        assert!(m.prob(n.kind(PermissionKind::Share)) > m.prob(n.kind(PermissionKind::Unique)));
    }

    #[test]
    fn l3_pushes_receiver_to_writer() {
        let mut g = FactorGraph::new();
        let r = alloc(&mut g);
        l3_field_write(&mut g, &r, 0.05);
        exactly_one(&mut g, &r, 0.9);
        let m = g.solve(&BpOptions::default());
        assert!(m.prob(r.kind(PermissionKind::Pure)) < 0.2);
        assert!(m.prob(r.kind(PermissionKind::Immutable)) < 0.2);
        let p_writer = m
            .prob(r.kind(PermissionKind::Unique))
            .max(m.prob(r.kind(PermissionKind::Full)))
            .max(m.prob(r.kind(PermissionKind::Share)));
        assert!(p_writer > 0.4);
    }

    #[test]
    fn h5_disfavors_unique() {
        let mut g = FactorGraph::new();
        let t = alloc(&mut g);
        h5_thread_shared(&mut g, &t, 0.9);
        exactly_one(&mut g, &t, 0.9);
        let m = g.solve(&BpOptions::default());
        let p_shared = m.prob(t.kind(PermissionKind::Full))
            + m.prob(t.kind(PermissionKind::Share))
            + m.prob(t.kind(PermissionKind::Pure));
        assert!(p_shared > m.prob(t.kind(PermissionKind::Unique)));
    }

    #[test]
    fn prior_clamps_extremes() {
        let mut g = FactorGraph::new();
        let s = alloc(&mut g);
        prior(&mut g, s.kind(PermissionKind::Unique), 1.0);
        prior(&mut g, s.kind(PermissionKind::Pure), 0.0);
        let m = g.solve(&BpOptions::default());
        assert!(m.prob(s.kind(PermissionKind::Unique)) < 1.0);
        assert!(m.prob(s.kind(PermissionKind::Pure)) > 0.0);
    }
}
