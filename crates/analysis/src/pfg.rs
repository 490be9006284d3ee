//! The Permissions Flow Graph (PFG) — the paper's program abstraction
//! (§3.1, Figures 5–7).
//!
//! A PFG is a directed graph of the flow of permissions in one method.
//! Permission flow matches data flow except that (1) at call sites and field
//! assignments some permission is *retained* in the caller (modelled by
//! [`PfgNodeKind::Split`] fan-out into the call/write plus a retained path),
//! and (2) permission flows back *out* of calls (modelled by
//! [`PfgNodeKind::CallPost`] feeding a [`PfgNodeKind::Merge`]).
//!
//! Construction runs over the event-CFG with a local must-alias analysis:
//! each tracked object gets a token, locals map to tokens, and reassignments
//! re-point the map. Join points (including loop heads, giving the back
//! edges of Figure 6) create merge nodes per live token.

use crate::alias::{AliasMap, AliasToken, TokenSource};
use crate::cfg::{BlockId, Cfg, Terminator};
use crate::events::{Event, EventKind, Operand, Place};
use crate::types::{Callee, MethodId, ProgramIndex, TypeEnv};
use java_syntax::ast::{ExprId, MethodDecl};
use java_syntax::Span;
use spec_lang::ApiRegistry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index of a node within its [`Pfg`].
pub type NodeId = usize;

/// The role a permission plays at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallRole {
    /// The receiver object.
    Receiver,
    /// The i-th argument.
    Arg(usize),
}

impl std::fmt::Display for CallRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallRole::Receiver => f.write_str("this"),
            CallRole::Arg(i) => write!(f, "arg{i}"),
        }
    }
}

/// What a PFG node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum PfgNodeKind {
    /// Permission available to a parameter at the method's precondition.
    ParamPre {
        /// Parameter name (`this` for the receiver).
        name: String,
    },
    /// Permission returned to a parameter at the postcondition.
    ParamPost {
        /// Parameter name (`this` for the receiver).
        name: String,
    },
    /// Permission attached to the method's return value.
    ResultPost,
    /// A permission split point (before calls and field writes).
    Split,
    /// A permission merge point (after calls, at control-flow joins).
    Merge,
    /// Permission required by a callee's parameter at a call site.
    CallPre {
        /// Resolved callee.
        callee: Callee,
        /// Which parameter.
        role: CallRole,
        /// The call expression this belongs to.
        site: ExprId,
    },
    /// Permission returned by a callee's parameter after the call.
    CallPost {
        /// Resolved callee.
        callee: Callee,
        /// Which parameter.
        role: CallRole,
        /// The call expression this belongs to.
        site: ExprId,
    },
    /// Permission attached to a call's return value.
    CallResult {
        /// Resolved callee.
        callee: Callee,
        /// The call expression this belongs to.
        site: ExprId,
    },
    /// A freshly constructed object (`new` returns `unique` — heuristic H1).
    New {
        /// Resolved constructor, when in-program.
        callee: Callee,
    },
    /// A field read — a permission source.
    FieldRead {
        /// Field name.
        field: String,
    },
    /// A field write — a permission sink (no outgoing edges).
    FieldWrite {
        /// Field name.
        field: String,
    },
    /// A branch-sensitive state refinement point: on this control-flow
    /// edge the object is known (by a dynamic state test such as
    /// `hasNext()`) to be in `state`. Pass-through for permissions; the
    /// probabilistic model may attach state evidence here. ANEK proper is
    /// branch-insensitive (§4.2) — these nodes implement the paper's
    /// future-work extension and are inert unless enabled.
    Refine {
        /// The indicated abstract state.
        state: String,
    },
}

/// One node of the PFG.
#[derive(Debug, Clone)]
pub struct PfgNode {
    /// This node's id.
    pub id: NodeId,
    /// What it represents.
    pub kind: PfgNodeKind,
    /// Simple type name of the object whose permission flows here.
    pub type_name: Option<String>,
    /// Source location.
    pub span: Span,
    /// For field reads/writes: the node holding the *receiver* permission at
    /// access time (the dotted edge of Figure 7).
    pub receiver_link: Option<NodeId>,
}

/// Pre/post nodes for one parameter.
#[derive(Debug, Clone)]
pub struct ParamNodes {
    /// Parameter name (`this` for the receiver).
    pub name: String,
    /// Simple type name.
    pub type_name: String,
    /// Precondition node.
    pub pre: NodeId,
    /// Postcondition node.
    pub post: NodeId,
}

/// The permissions flow graph of one method.
#[derive(Debug, Clone)]
pub struct Pfg {
    /// Which method this graph describes.
    pub method: MethodId,
    /// All nodes.
    pub nodes: Vec<PfgNode>,
    /// Directed edges.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Reference-typed parameters (receiver first when present).
    pub params: Vec<ParamNodes>,
    /// Post node of the return value, when reference-typed.
    pub result: Option<(String, NodeId)>,
    /// Nodes that were targets of `synchronized` blocks (heuristic H5).
    pub sync_targets: Vec<NodeId>,
    outgoing: Vec<Vec<NodeId>>,
    incoming: Vec<Vec<NodeId>>,
}

impl Pfg {
    /// Builds the PFG for `method` of `class` (branch-insensitive, as in
    /// the paper).
    pub fn build(index: &ProgramIndex, api: &ApiRegistry, class: &str, method: &MethodDecl) -> Pfg {
        Pfg::build_with_refinement(index, api, class, method, false)
    }

    /// Builds the PFG, optionally inserting [`PfgNodeKind::Refine`] nodes at
    /// dynamic state tests (the branch-sensitivity extension the paper
    /// leaves as future work; changes graph topology, so it is opt-in).
    pub fn build_with_refinement(
        index: &ProgramIndex,
        api: &ApiRegistry,
        class: &str,
        method: &MethodDecl,
        refine: bool,
    ) -> Pfg {
        let mut env = TypeEnv::for_method(index, api, class, method);
        let cfg = Cfg::build(method, &mut env);
        let mut b = Builder::new(api, class, method);
        b.enable_refine = refine;
        b.run(&cfg)
    }

    /// Nodes with an edge from `id`.
    pub fn outgoing(&self, id: NodeId) -> &[NodeId] {
        &self.outgoing[id]
    }

    /// Nodes with an edge to `id`.
    pub fn incoming(&self, id: NodeId) -> &[NodeId] {
        &self.incoming[id]
    }

    /// Whether `id` is a split node (multiple outgoing edges mean permission
    /// splitting) as opposed to a branch fan-out (paper L1 distinguishes the
    /// two).
    pub fn is_split(&self, id: NodeId) -> bool {
        matches!(self.nodes[id].kind, PfgNodeKind::Split)
    }

    /// All call-site pre/post/result nodes grouped per callee occurrence.
    pub fn call_nodes(&self) -> impl Iterator<Item = &PfgNode> {
        self.nodes.iter().filter(|n| {
            matches!(
                n.kind,
                PfgNodeKind::CallPre { .. }
                    | PfgNodeKind::CallPost { .. }
                    | PfgNodeKind::CallResult { .. }
            )
        })
    }

    /// Renders the graph in Graphviz DOT format (used to regenerate the
    /// paper's Figures 6 and 7).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph pfg {\n  rankdir=TB;\n");
        for n in &self.nodes {
            let label = match &n.kind {
                PfgNodeKind::ParamPre { name } => format!("PRE {name}"),
                PfgNodeKind::ParamPost { name } => format!("POST {name}"),
                PfgNodeKind::ResultPost => "POST result".to_string(),
                PfgNodeKind::Split => "SPLIT".to_string(),
                PfgNodeKind::Merge => "MERGE".to_string(),
                PfgNodeKind::CallPre { callee, role, .. } => format!("PRE {role} {callee}"),
                PfgNodeKind::CallPost { callee, role, .. } => format!("POST {role} {callee}"),
                PfgNodeKind::CallResult { callee, .. } => format!("RESULT {callee}"),
                PfgNodeKind::New { .. } => "NEW".to_string(),
                PfgNodeKind::FieldRead { field } => format!("READ .{field}"),
                PfgNodeKind::FieldWrite { field } => format!("WRITE .{field}"),
                PfgNodeKind::Refine { state } => format!("REFINE {state}"),
            };
            let shape = match &n.kind {
                PfgNodeKind::Split | PfgNodeKind::Merge => "diamond",
                PfgNodeKind::FieldRead { .. } | PfgNodeKind::FieldWrite { .. } => "box",
                _ => "ellipse",
            };
            let _ = writeln!(s, "  n{} [label=\"{}\", shape={}];", n.id, dot_escape(&label), shape);
            if let Some(r) = n.receiver_link {
                let _ = writeln!(s, "  n{} -> n{} [style=dotted];", n.id, r);
            }
        }
        // Emit edges in sorted order so the dump is independent of build
        // order (nodes already are: they are emitted by ascending id).
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        for (a, b) in &edges {
            let _ = writeln!(s, "  n{a} -> n{b};");
        }
        s.push_str("}\n");
        s
    }
}

/// Escapes a node label for a double-quoted DOT string (`"` and `\`).
fn dot_escape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Flow state at a program point: where each object's permission currently
/// resides, and which places must-alias which objects (see [`crate::alias`]).
#[derive(Debug, Clone, Default)]
struct FlowState {
    node_of: BTreeMap<AliasToken, NodeId>,
    alias: AliasMap,
    type_of: BTreeMap<AliasToken, Option<String>>,
}

struct Builder<'a> {
    api: &'a ApiRegistry,
    enable_refine: bool,
    nodes: Vec<PfgNode>,
    edges: Vec<(NodeId, NodeId)>,
    params: Vec<ParamNodes>,
    result: Option<(String, NodeId)>,
    sync_targets: Vec<NodeId>,
    tokens: TokenSource,
    method: MethodId,
    init: FlowState,
    /// Per join block: the merge node created for each token.
    merges: BTreeMap<BlockId, BTreeMap<AliasToken, NodeId>>,
    visited: Vec<bool>,
}

impl<'a> Builder<'a> {
    fn new(api: &'a ApiRegistry, class: &str, method: &MethodDecl) -> Builder<'a> {
        let mut b = Builder {
            api,
            enable_refine: false,
            nodes: Vec::new(),
            edges: Vec::new(),
            params: Vec::new(),
            result: None,
            sync_targets: Vec::new(),
            tokens: TokenSource::new(),
            method: MethodId::new(class, &method.name),
            init: FlowState::default(),
            merges: BTreeMap::new(),
            visited: Vec::new(),
        };

        // Receiver pre/post (instance methods only).
        if !method.modifiers.is_static && !method.is_constructor() {
            b.add_param("this", class, Place::This, method.span);
        }
        // Constructors: `this` is the freshly constructed object; model it as
        // a parameter whose pre node behaves like a NEW source.
        if method.is_constructor() {
            b.add_param("this", class, Place::This, method.span);
        }
        for p in &method.params {
            if let Some(ty) = crate::types::ref_type_name(&p.ty) {
                b.add_param(&p.name, &ty, Place::Local(p.name.clone()), p.span);
            }
        }
        // Result post node.
        let ret_ty = if method.is_constructor() {
            None
        } else {
            method.return_type.as_ref().and_then(crate::types::ref_type_name)
        };
        if let Some(ty) = ret_ty {
            let id = b.push_node(PfgNodeKind::ResultPost, Some(ty.clone()), method.span, None);
            b.result = Some((ty, id));
        }
        b
    }

    fn add_param(&mut self, name: &str, ty: &str, place: Place, span: Span) {
        let pre = self.push_node(
            PfgNodeKind::ParamPre { name: name.to_string() },
            Some(ty.to_string()),
            span,
            None,
        );
        let post = self.push_node(
            PfgNodeKind::ParamPost { name: name.to_string() },
            Some(ty.to_string()),
            span,
            None,
        );
        self.params.push(ParamNodes {
            name: name.to_string(),
            type_name: ty.to_string(),
            pre,
            post,
        });
        let tok = self.tokens.fresh();
        self.init.node_of.insert(tok, pre);
        self.init.alias.bind(place, tok);
        self.init.type_of.insert(tok, Some(ty.to_string()));
    }

    fn push_node(
        &mut self,
        kind: PfgNodeKind,
        type_name: Option<String>,
        span: Span,
        receiver_link: Option<NodeId>,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(PfgNode { id, kind, type_name, span, receiver_link });
        id
    }

    fn edge(&mut self, a: NodeId, b: NodeId) {
        self.edges.push((a, b));
    }

    fn run(mut self, cfg: &Cfg) -> Pfg {
        self.visited = vec![false; cfg.blocks.len()];
        // Count predecessors (forward + back edges alike).
        let mut preds = vec![0usize; cfg.blocks.len()];
        for b in 0..cfg.blocks.len() {
            if cfg.blocks[b].term.is_some() {
                for s in cfg.successors(b) {
                    preds[s] += 1;
                }
            }
        }
        let init = self.init.clone();
        self.flow_into(cfg, &preds, cfg.entry, init);

        let n = self.nodes.len();
        let mut outgoing = vec![Vec::new(); n];
        let mut incoming = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            outgoing[a].push(b);
            incoming[b].push(a);
        }
        Pfg {
            method: self.method,
            nodes: self.nodes,
            edges: self.edges,
            params: self.params,
            result: self.result,
            sync_targets: self.sync_targets,
            outgoing,
            incoming,
        }
    }

    /// Delivers `state` into `block`, creating/wiring merge nodes at join
    /// points, and processes the block body on first arrival.
    fn flow_into(&mut self, cfg: &Cfg, preds: &[usize], block: BlockId, state: FlowState) {
        if preds[block] > 1 {
            if let Some(merges) = self.merges.get(&block) {
                // Subsequent arrival (other branch or loop back edge): wire
                // current nodes into the existing merges.
                let merges = merges.clone();
                for (tok, node) in &state.node_of {
                    if let Some(&m) = merges.get(tok) {
                        if *node != m {
                            self.edge(*node, m);
                        }
                    }
                }
                return;
            }
            // First arrival: materialize a merge node per live token.
            let mut map = BTreeMap::new();
            let mut merged = state.clone();
            for (tok, node) in &state.node_of {
                let ty = state.type_of.get(tok).cloned().flatten();
                let m = self.push_node(PfgNodeKind::Merge, ty, cfg.blocks[block].span, None);
                self.edge(*node, m);
                map.insert(*tok, m);
                merged.node_of.insert(*tok, m);
            }
            self.merges.insert(block, map);
            self.process_block(cfg, preds, block, merged);
        } else {
            if self.visited[block] {
                return;
            }
            self.process_block(cfg, preds, block, state);
        }
    }

    fn process_block(&mut self, cfg: &Cfg, preds: &[usize], block: BlockId, mut state: FlowState) {
        self.visited[block] = true;
        let events = cfg.blocks[block].events.clone();
        for ev in &events {
            self.event(ev, &mut state);
        }
        match cfg.blocks[block].term.clone().expect("sealed cfg") {
            Terminator::Goto(t) => self.flow_into(cfg, preds, t, state),
            Terminator::Branch { test, then_blk, else_blk } => {
                let mut then_state = state.clone();
                let mut else_state = state;
                // Dynamic state tests refine the tested object's state on
                // each branch (a pass-through Refine node per side).
                if let Some(test) = &test {
                    if let Callee::Api { type_name, method } = &test.callee {
                        if let Some(am) = self.api.get(type_name, method) {
                            let (t_ind, f_ind) = if test.negated {
                                (&am.spec.false_indicates, &am.spec.true_indicates)
                            } else {
                                (&am.spec.true_indicates, &am.spec.false_indicates)
                            };
                            if let Some(st) = t_ind {
                                then_state = self.refine(
                                    then_state,
                                    &test.operand,
                                    st,
                                    cfg.blocks[block].span,
                                );
                            }
                            if let Some(st) = f_ind {
                                else_state = self.refine(
                                    else_state,
                                    &test.operand,
                                    st,
                                    cfg.blocks[block].span,
                                );
                            }
                        }
                    }
                }
                self.flow_into(cfg, preds, then_blk, then_state);
                self.flow_into(cfg, preds, else_blk, else_state);
            }
            Terminator::Return(op) => {
                // Return value flows into the result-post node.
                if let (Some(op), Some((_, result_post))) = (op, self.result.clone()) {
                    if let Some(node) = self.node_of_operand(&op, &state) {
                        self.edge(node, result_post);
                    }
                }
                // Parameter permissions flow into their post nodes.
                let params = self.params.clone();
                for p in &params {
                    let place =
                        if p.name == "this" { Place::This } else { Place::Local(p.name.clone()) };
                    if let Some(tok) = state.alias.resolve(&place) {
                        if let Some(&node) = state.node_of.get(&tok) {
                            if node != p.post {
                                self.edge(node, p.post);
                            }
                        }
                    }
                }
            }
            Terminator::Exit => {}
        }
    }

    /// Inserts a pass-through refinement node for the tested operand (only
    /// when the branch-sensitivity extension is enabled).
    fn refine(&mut self, mut state: FlowState, op: &Operand, st: &str, span: Span) -> FlowState {
        if !self.enable_refine {
            return state;
        }
        if let Some(tok) = state.alias.resolve(&op.place) {
            if let Some(&cur) = state.node_of.get(&tok) {
                let ty = state.type_of.get(&tok).cloned().flatten();
                let node =
                    self.push_node(PfgNodeKind::Refine { state: st.to_string() }, ty, span, None);
                self.edge(cur, node);
                state.node_of.insert(tok, node);
            }
        }
        state
    }

    fn node_of_operand(&self, op: &Operand, state: &FlowState) -> Option<NodeId> {
        let tok = state.alias.resolve(&op.place)?;
        state.node_of.get(&tok).copied()
    }

    fn token_of(&mut self, op: &Operand, state: &mut FlowState) -> Option<AliasToken> {
        state.alias.resolve(&op.place)
    }

    fn event(&mut self, ev: &Event, state: &mut FlowState) {
        match &ev.kind {
            EventKind::New { type_name, dest, callee, args } => {
                // Arguments to the constructor behave like call arguments.
                let call_args: Vec<(usize, Operand)> = args
                    .iter()
                    .enumerate()
                    .filter_map(|(i, a)| a.clone().map(|a| (i, a)))
                    .collect();
                for (i, arg) in &call_args {
                    self.pass_through_call(
                        arg,
                        callee.clone(),
                        CallRole::Arg(*i),
                        ev.id,
                        ev.span,
                        state,
                    );
                }
                let node = self.push_node(
                    PfgNodeKind::New { callee: callee.clone() },
                    type_name.clone(),
                    ev.span,
                    None,
                );
                let tok = self.tokens.fresh();
                state.node_of.insert(tok, node);
                state.type_of.insert(tok, type_name.clone());
                state.alias.bind(dest.clone(), tok);
            }
            EventKind::Call { callee, receiver, args, dest } => {
                if let Some(recv) = receiver {
                    self.pass_through_call(
                        recv,
                        callee.clone(),
                        CallRole::Receiver,
                        ev.id,
                        ev.span,
                        state,
                    );
                }
                for (i, arg) in args.iter().enumerate() {
                    if let Some(arg) = arg {
                        self.pass_through_call(
                            arg,
                            callee.clone(),
                            CallRole::Arg(i),
                            ev.id,
                            ev.span,
                            state,
                        );
                    }
                }
                if let Some(dest) = dest {
                    let node = self.push_node(
                        PfgNodeKind::CallResult { callee: callee.clone(), site: ev.id },
                        dest.type_name.clone(),
                        ev.span,
                        None,
                    );
                    let tok = self.tokens.fresh();
                    state.node_of.insert(tok, node);
                    state.type_of.insert(tok, dest.type_name.clone());
                    state.alias.bind(dest.place.clone(), tok);
                }
            }
            EventKind::FieldRead { receiver, field, dest } => {
                let recv_node = self.node_of_operand(receiver, state);
                let node = self.push_node(
                    PfgNodeKind::FieldRead { field: field.clone() },
                    dest.type_name.clone(),
                    ev.span,
                    recv_node,
                );
                let tok = self.tokens.fresh();
                state.node_of.insert(tok, node);
                state.type_of.insert(tok, dest.type_name.clone());
                state.alias.bind(dest.place.clone(), tok);
            }
            EventKind::FieldWrite { receiver, field, src } => {
                let recv_node = self.node_of_operand(receiver, state);
                let write = self.push_node(
                    PfgNodeKind::FieldWrite { field: field.clone() },
                    src.as_ref().and_then(|s| s.type_name.clone()),
                    ev.span,
                    recv_node,
                );
                if let Some(src) = src {
                    if let Some(tok) = self.token_of(src, state) {
                        if let Some(&cur) = state.node_of.get(&tok) {
                            // Split: part flows into the field, part is retained.
                            let ty = state.type_of.get(&tok).cloned().flatten();
                            let split =
                                self.push_node(PfgNodeKind::Split, ty.clone(), ev.span, None);
                            let retained = self.push_node(PfgNodeKind::Merge, ty, ev.span, None);
                            self.edge(cur, split);
                            self.edge(split, write);
                            self.edge(split, retained);
                            state.node_of.insert(tok, retained);
                        }
                    }
                }
            }
            EventKind::Copy { dest, src } => {
                state.alias.copy(dest.clone(), &src.place);
            }
            EventKind::Sync { target } => {
                if let Some(node) = self.node_of_operand(target, state) {
                    self.sync_targets.push(node);
                }
            }
        }
    }

    /// The per-operand structure of Figure 6: current → SPLIT → {CallPre,
    /// MERGE}; CallPost → MERGE; current := MERGE.
    fn pass_through_call(
        &mut self,
        op: &Operand,
        callee: Callee,
        role: CallRole,
        site: ExprId,
        span: Span,
        state: &mut FlowState,
    ) {
        let Some(tok) = self.token_of(op, state) else { return };
        let Some(&cur) = state.node_of.get(&tok) else { return };
        let ty = state.type_of.get(&tok).cloned().flatten().or(op.type_name.clone());

        let split = self.push_node(PfgNodeKind::Split, ty.clone(), span, None);
        let pre = self.push_node(
            PfgNodeKind::CallPre { callee: callee.clone(), role, site },
            ty.clone(),
            span,
            None,
        );
        let post = self.push_node(
            PfgNodeKind::CallPost { callee: callee.clone(), role, site },
            ty.clone(),
            span,
            None,
        );
        let merge = self.push_node(PfgNodeKind::Merge, ty, span, None);
        self.edge(cur, split);
        self.edge(split, pre);
        self.edge(split, merge);
        self.edge(post, merge);
        state.node_of.insert(tok, merge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    const FIG3_SRC: &str = r#"
        class Row {
            Collection<Integer> entries;
            Iterator<Integer> createColIter() { return entries.iterator(); }
            void add(int val) {}
        }
        class App {
            Row copy(Row original) {
                Iterator<Integer> iter = original.createColIter();
                Row result = new Row();
                while (iter.hasNext()) {
                    result.add(iter.next());
                }
                return result;
            }
        }
        class C {
            Object f;
            Object accessFields(C o) {
                o.f = new Object();
                return o.f;
            }
        }
    "#;

    fn build(class: &str, method: &str) -> Pfg {
        let unit = parse(FIG3_SRC).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        let t = unit.type_named(class).unwrap();
        let m = t.method_named(method).unwrap();
        Pfg::build(&index, &api, class, m)
    }

    fn count_kind(pfg: &Pfg, pred: impl Fn(&PfgNodeKind) -> bool) -> usize {
        pfg.nodes.iter().filter(|n| pred(&n.kind)).count()
    }

    #[test]
    fn figure6_copy_method_shape() {
        let pfg = build("App", "copy");
        // PRE/POST for `this` and `original`.
        assert_eq!(count_kind(&pfg, |k| matches!(k, PfgNodeKind::ParamPre { .. })), 2);
        assert_eq!(count_kind(&pfg, |k| matches!(k, PfgNodeKind::ParamPost { .. })), 2);
        let original = pfg.params.iter().find(|p| p.name == "original").expect("original param");
        assert_eq!(original.type_name, "Row");
        // PRE original feeds a split (the createColIter call).
        let split = pfg.outgoing(original.pre);
        assert_eq!(split.len(), 1);
        assert!(pfg.is_split(split[0]));
        // The split fans into exactly a CallPre and a Merge.
        let out = pfg.outgoing(split[0]);
        assert_eq!(out.len(), 2);
        let kinds: Vec<_> = out.iter().map(|&n| &pfg.nodes[n].kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PfgNodeKind::CallPre { role: CallRole::Receiver, .. })));
        assert!(kinds.iter().any(|k| matches!(k, PfgNodeKind::Merge)));
        // Result flows somewhere into ResultPost.
        let (_, result_post) = pfg.result.clone().expect("Row return");
        assert!(!pfg.incoming(result_post).is_empty());
    }

    #[test]
    fn figure6_loop_creates_back_edge_merges() {
        let pfg = build("App", "copy");
        // The iterator's permission at the loop head must merge flows from
        // (a) the createColIter result and (b) the loop body (post of
        // next()). Find a merge node with >= 2 incoming edges.
        let loop_merge = pfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PfgNodeKind::Merge))
            .filter(|n| n.type_name.as_deref() == Some("Iterator"))
            .find(|n| pfg.incoming(n.id).len() >= 2);
        assert!(loop_merge.is_some(), "loop-head merge with back edge expected");
    }

    #[test]
    fn call_pre_post_nodes_reference_callee() {
        let pfg = build("App", "copy");
        let next_pre = pfg
            .nodes
            .iter()
            .find(|n| {
                matches!(
                    &n.kind,
                    PfgNodeKind::CallPre { callee: Callee::Api { method, .. }, role: CallRole::Receiver, .. }
                        if method == "next"
                )
            })
            .expect("next() receiver pre node");
        assert_eq!(next_pre.type_name.as_deref(), Some("Iterator"));
        // next()'s CallPost exists and feeds a merge.
        let next_post = pfg
            .nodes
            .iter()
            .find(|n| {
                matches!(
                    &n.kind,
                    PfgNodeKind::CallPost { callee: Callee::Api { method, .. }, .. } if method == "next"
                )
            })
            .unwrap();
        let out = pfg.outgoing(next_post.id);
        assert_eq!(out.len(), 1);
        assert!(matches!(pfg.nodes[out[0]].kind, PfgNodeKind::Merge));
    }

    #[test]
    fn figure7_field_access_nodes() {
        let pfg = build("C", "accessFields");
        // o.f = new Object(): a FieldWrite sink with a receiver link.
        let write = pfg
            .nodes
            .iter()
            .find(|n| matches!(&n.kind, PfgNodeKind::FieldWrite { field } if field == "f"))
            .expect("field write node");
        assert!(write.receiver_link.is_some(), "write keeps receiver reference");
        // Field writes are sinks: no outgoing edges.
        assert!(pfg.outgoing(write.id).is_empty());
        // return o.f: a FieldRead source flowing into the result.
        let read = pfg
            .nodes
            .iter()
            .find(|n| matches!(&n.kind, PfgNodeKind::FieldRead { field } if field == "f"))
            .expect("field read node");
        assert!(read.receiver_link.is_some());
        let (_, result_post) = pfg.result.clone().unwrap();
        // The read (a permission source) reaches the result post node.
        let mut frontier = vec![read.id];
        let mut reached = false;
        let mut seen = vec![false; pfg.nodes.len()];
        while let Some(n) = frontier.pop() {
            if n == result_post {
                reached = true;
                break;
            }
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            frontier.extend(pfg.outgoing(n).iter().copied());
        }
        assert!(reached, "field read should flow to result");
    }

    #[test]
    fn new_node_for_construction() {
        let pfg = build("App", "copy");
        assert_eq!(count_kind(&pfg, |k| matches!(k, PfgNodeKind::New { .. })), 1);
    }

    #[test]
    fn splits_only_at_calls_and_field_writes() {
        let pfg = build("App", "copy");
        for n in &pfg.nodes {
            if pfg.outgoing(n.id).len() > 1 {
                // Multi-out nodes are either explicit splits or branch fan-out
                // on merges (control flow).
                assert!(
                    pfg.is_split(n.id) || matches!(n.kind, PfgNodeKind::Merge),
                    "unexpected multi-out node {:?}",
                    n.kind
                );
            }
        }
    }

    #[test]
    fn params_include_receiver() {
        let pfg = build("App", "copy");
        assert_eq!(pfg.params[0].name, "this");
        assert_eq!(pfg.params[0].type_name, "App");
    }

    #[test]
    fn dot_output_mentions_key_nodes() {
        let pfg = build("App", "copy");
        let dot = pfg.to_dot();
        assert!(dot.contains("PRE original"));
        assert!(dot.contains("POST original"));
        assert!(dot.contains("SPLIT"));
        assert!(dot.contains("MERGE"));
        assert!(dot.contains("style=dotted") || !dot.contains("READ"), "dotted receiver links");
        assert!(dot.starts_with("digraph pfg {"));
    }

    #[test]
    fn branch_insensitive_but_flow_correct_for_if() {
        let src = r#"
            class App {
                void m(Iterator<Integer> it, boolean c) {
                    if (c) { it.next(); } else { it.hasNext(); }
                    it.hasNext();
                }
            }
        "#;
        let unit = parse(src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        let m = unit.type_named("App").unwrap().method_named("m").unwrap();
        let pfg = Pfg::build(&index, &api, "App", m);
        // After the diamond, `it` merges; the final hasNext call has one pre
        // node whose permission comes from a join merge with 2 incoming.
        let join_merges: Vec<_> = pfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PfgNodeKind::Merge))
            .filter(|n| pfg.incoming(n.id).len() >= 2)
            .collect();
        assert!(!join_merges.is_empty(), "if/else join merge expected");
    }
}
