//! Control-flow graphs over permission events.
//!
//! The paper constructs a CFG per method "in order to determine the flow of
//! the permission" (§3.1). Here each basic block carries the linearized
//! [`Event`]s it performs; terminators capture branches (with optional
//! dynamic state tests, e.g. `while (iter.hasNext())`), returns and loops
//! (as back edges). The PLURAL checker runs a worklist dataflow over this
//! graph; Table 3's "branchy program" statistics also come from here.

use crate::events::{flatten_expr, Event, EventKind, Operand};
use crate::types::{Callee, TypeEnv};
use java_syntax::ast::*;
use java_syntax::Span;

/// Index of a basic block within its [`Cfg`].
pub type BlockId = usize;

/// A dynamic state test guarding a branch, e.g. `if (it.hasNext())`.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchTest {
    /// The tested reference.
    pub operand: Operand,
    /// The state-test method that was called.
    pub callee: Callee,
    /// Whether the condition was negated (`!it.hasNext()`).
    pub negated: bool,
}

/// How a block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch; `test` is present when the condition was a
    /// recognizable state-test call.
    Branch {
        /// Recognized state test, if any.
        test: Option<BranchTest>,
        /// Successor when the condition is true.
        then_blk: BlockId,
        /// Successor when the condition is false.
        else_blk: BlockId,
    },
    /// `return [operand];` — jumps to the exit block.
    Return(Option<Operand>),
    /// The distinguished exit block's terminator.
    Exit,
}

/// A basic block: straight-line events plus a terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Permission events in execution order.
    pub events: Vec<Event>,
    /// How the block ends. Defaults to `Exit` until sealed.
    pub term: Option<Terminator>,
    /// Span of the statement(s) this block came from (diagnostics).
    pub span: Span,
}

/// A per-method control-flow graph of permission events.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The blocks; `entry` and `exit` index into this.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Exit block (all `return`s lead here).
    pub exit: BlockId,
}

impl Cfg {
    /// Builds the CFG for a method body. Locals declared in the body are
    /// bound into `env` as a side effect (the subset corpus does not rely on
    /// shadowing).
    pub fn build(method: &MethodDecl, env: &mut TypeEnv<'_>) -> Cfg {
        let mut b = Builder {
            blocks: vec![Block::default(), Block::default()],
            breaks: Vec::new(),
            continues: Vec::new(),
        };
        b.blocks[1].term = Some(Terminator::Exit);
        let mut cur = 0;
        if let Some(body) = &method.body {
            for s in &body.stmts {
                cur = b.stmt(cur, s, env);
            }
        }
        b.seal(cur, Terminator::Return(None));
        Cfg { blocks: b.blocks, entry: 0, exit: 1 }
    }

    /// Successor blocks of a block.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        match self.blocks[id].term.as_ref().expect("sealed cfg") {
            Terminator::Goto(t) => vec![*t],
            Terminator::Branch { then_blk, else_blk, .. } => vec![*then_blk, *else_blk],
            Terminator::Return(_) => vec![self.exit],
            Terminator::Exit => vec![],
        }
    }

    /// Blocks reachable from entry, in reverse-postorder-ish DFS order.
    pub fn reachable(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            order.push(b);
            for s in self.successors(b) {
                stack.push(s);
            }
        }
        order
    }

    /// Number of two-way branches (Table 3 reports a program with "numerous
    /// control flow branches").
    pub fn branch_count(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.term, Some(Terminator::Branch { .. }))).count()
    }
}

struct Builder {
    blocks: Vec<Block>,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
}

impl Builder {
    fn new_block(&mut self, span: Span) -> BlockId {
        self.blocks.push(Block { span, ..Block::default() });
        self.blocks.len() - 1
    }

    fn seal(&mut self, id: BlockId, term: Terminator) {
        if self.blocks[id].term.is_none() {
            self.blocks[id].term = Some(term);
        }
    }

    fn is_sealed(&self, id: BlockId) -> bool {
        self.blocks[id].term.is_some()
    }

    /// Processes one statement starting in `cur`; returns the block where
    /// control continues (possibly a fresh one).
    fn stmt(&mut self, cur: BlockId, s: &Stmt, env: &mut TypeEnv<'_>) -> BlockId {
        if self.is_sealed(cur) {
            // Unreachable code after return/break: park events in a dead block.
            let dead = self.new_block(s.span);
            return self.stmt_inner(dead, s, env);
        }
        self.stmt_inner(cur, s, env)
    }

    fn stmt_inner(&mut self, cur: BlockId, s: &Stmt, env: &mut TypeEnv<'_>) -> BlockId {
        match &s.kind {
            StmtKind::Block(b) => {
                let mut c = cur;
                for s in &b.stmts {
                    c = self.stmt(c, s, env);
                }
                c
            }
            StmtKind::LocalVar { ty, name, init } => {
                env.bind_local(name, ty);
                if let Some(e) = init {
                    let mut events = Vec::new();
                    let src = flatten_expr(e, env, &mut events);
                    self.blocks[cur].events.extend(events);
                    if let Some(src) = src {
                        self.blocks[cur].events.push(Event {
                            id: e.id,
                            span: s.span,
                            kind: EventKind::Copy {
                                dest: crate::events::Place::Local(name.clone()),
                                src,
                            },
                        });
                    }
                }
                cur
            }
            StmtKind::Expr(e) => {
                let mut events = Vec::new();
                flatten_expr(e, env, &mut events);
                self.blocks[cur].events.extend(events);
                cur
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let test = self.eval_cond(cur, cond, env);
                let then_blk = self.new_block(then_branch.span);
                let else_blk = self.new_block(s.span);
                self.seal(cur, Terminator::Branch { test, then_blk, else_blk });
                let then_end = self.stmt(then_blk, then_branch, env);
                let join = self.new_block(s.span);
                self.seal(then_end, Terminator::Goto(join));
                match else_branch {
                    Some(eb) => {
                        let else_end = self.stmt(else_blk, eb, env);
                        self.seal(else_end, Terminator::Goto(join));
                    }
                    None => self.seal(else_blk, Terminator::Goto(join)),
                }
                join
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block(s.span);
                self.seal(cur, Terminator::Goto(head));
                let test = self.eval_cond(head, cond, env);
                let body_blk = self.new_block(body.span);
                let exit_blk = self.new_block(s.span);
                self.seal(
                    head,
                    Terminator::Branch { test, then_blk: body_blk, else_blk: exit_blk },
                );
                self.breaks.push(exit_blk);
                self.continues.push(head);
                let body_end = self.stmt(body_blk, body, env);
                self.breaks.pop();
                self.continues.pop();
                self.seal(body_end, Terminator::Goto(head));
                exit_blk
            }
            StmtKind::DoWhile { body, cond } => {
                // body -> cond -> (back to body | exit); runs at least once.
                let body_blk = self.new_block(body.span);
                self.seal(cur, Terminator::Goto(body_blk));
                let exit_blk = self.new_block(s.span);
                let cond_blk = self.new_block(s.span);
                self.breaks.push(exit_blk);
                self.continues.push(cond_blk);
                let body_end = self.stmt(body_blk, body, env);
                self.breaks.pop();
                self.continues.pop();
                self.seal(body_end, Terminator::Goto(cond_blk));
                let test = self.eval_cond(cond_blk, cond, env);
                self.seal(
                    cond_blk,
                    Terminator::Branch { test, then_blk: body_blk, else_blk: exit_blk },
                );
                exit_blk
            }
            StmtKind::Switch { scrutinee, cases } => {
                // Evaluate the scrutinee, then dispatch to each case group;
                // case bodies fall through to the next group unless they
                // break to the join.
                let mut events = Vec::new();
                flatten_expr(scrutinee, env, &mut events);
                self.blocks[cur].events.extend(events);
                let join = self.new_block(s.span);
                // Pre-create one entry block per case for fallthrough wiring.
                let entries: Vec<BlockId> = cases.iter().map(|_| self.new_block(s.span)).collect();
                // Dispatch chain: an opaque branch per case (semantics of
                // label matching are not tracked).
                let mut dispatch = cur;
                let has_default = cases.iter().any(|c| c.labels.contains(&None));
                for (i, _case) in cases.iter().enumerate() {
                    let next = if i + 1 == cases.len() {
                        if has_default {
                            entries[i]
                        } else {
                            join
                        }
                    } else {
                        self.new_block(s.span)
                    };
                    if i + 1 == cases.len() && has_default {
                        self.seal(dispatch, Terminator::Goto(entries[i]));
                        break;
                    }
                    self.seal(
                        dispatch,
                        Terminator::Branch { test: None, then_blk: entries[i], else_blk: next },
                    );
                    dispatch = next;
                }
                if cases.is_empty() {
                    self.seal(cur, Terminator::Goto(join));
                }
                // Case bodies with fallthrough.
                self.breaks.push(join);
                for (i, case) in cases.iter().enumerate() {
                    let mut c = entries[i];
                    for cs in &case.body {
                        c = self.stmt(c, cs, env);
                    }
                    let fall = if i + 1 < cases.len() { entries[i + 1] } else { join };
                    self.seal(c, Terminator::Goto(fall));
                }
                self.breaks.pop();
                join
            }
            StmtKind::For { init, cond, update, body } => {
                let mut c = cur;
                for i in init {
                    c = self.stmt(c, i, env);
                }
                let head = self.new_block(s.span);
                self.seal(c, Terminator::Goto(head));
                let test = match cond {
                    Some(e) => self.eval_cond(head, e, env),
                    None => None,
                };
                let body_blk = self.new_block(body.span);
                let exit_blk = self.new_block(s.span);
                self.seal(
                    head,
                    Terminator::Branch { test, then_blk: body_blk, else_blk: exit_blk },
                );
                // `continue` in a for loop jumps to the update step; model the
                // update as a dedicated block.
                let update_blk = self.new_block(s.span);
                self.breaks.push(exit_blk);
                self.continues.push(update_blk);
                let body_end = self.stmt(body_blk, body, env);
                self.breaks.pop();
                self.continues.pop();
                self.seal(body_end, Terminator::Goto(update_blk));
                let mut events = Vec::new();
                for u in update {
                    flatten_expr(u, env, &mut events);
                }
                self.blocks[update_blk].events.extend(events);
                self.seal(update_blk, Terminator::Goto(head));
                exit_blk
            }
            StmtKind::ForEach { ty, name, iterable, body } => {
                let mut events = Vec::new();
                flatten_expr(iterable, env, &mut events);
                self.blocks[cur].events.extend(events);
                env.bind_local(name, ty);
                let head = self.new_block(s.span);
                self.seal(cur, Terminator::Goto(head));
                let body_blk = self.new_block(body.span);
                let exit_blk = self.new_block(s.span);
                self.seal(
                    head,
                    Terminator::Branch { test: None, then_blk: body_blk, else_blk: exit_blk },
                );
                self.breaks.push(exit_blk);
                self.continues.push(head);
                let body_end = self.stmt(body_blk, body, env);
                self.breaks.pop();
                self.continues.pop();
                self.seal(body_end, Terminator::Goto(head));
                exit_blk
            }
            StmtKind::Return(value) => {
                let op = match value {
                    Some(e) => {
                        let mut events = Vec::new();
                        let op = flatten_expr(e, env, &mut events);
                        self.blocks[cur].events.extend(events);
                        op
                    }
                    None => None,
                };
                self.seal(cur, Terminator::Return(op));
                cur
            }
            StmtKind::Assert { cond, message } => {
                let mut events = Vec::new();
                flatten_expr(cond, env, &mut events);
                if let Some(m) = message {
                    flatten_expr(m, env, &mut events);
                }
                self.blocks[cur].events.extend(events);
                cur
            }
            StmtKind::Synchronized { target, body } => {
                let mut events = Vec::new();
                let op = flatten_expr(target, env, &mut events);
                self.blocks[cur].events.extend(events);
                if let Some(op) = op {
                    self.blocks[cur].events.push(Event {
                        id: target.id,
                        span: s.span,
                        kind: EventKind::Sync { target: op },
                    });
                }
                let mut c = cur;
                for s in &body.stmts {
                    c = self.stmt(c, s, env);
                }
                c
            }
            StmtKind::Try { body, catches, finally } => {
                // Conservative exceptional flow: the guarded block may be
                // abandoned at any point, so each catch handler starts from
                // the state at try-entry; all paths re-join at the finally
                // block (or directly after the statement when absent).
                let body_blk = self.new_block(body.span);
                let join = self.new_block(s.span);
                if catches.is_empty() {
                    self.seal(cur, Terminator::Goto(body_blk));
                } else {
                    // Dispatch: normal path to the body, exceptional paths to
                    // the catches (modelled as an opaque branch chain).
                    let mut dispatch = cur;
                    for (i, c) in catches.iter().enumerate() {
                        let catch_blk = self.new_block(c.body.span);
                        let next =
                            if i + 1 == catches.len() { body_blk } else { self.new_block(s.span) };
                        self.seal(
                            dispatch,
                            Terminator::Branch { test: None, then_blk: catch_blk, else_blk: next },
                        );
                        let mut env_catch = env.clone();
                        env_catch.bind_local(&c.name, &c.ty);
                        let mut cend = catch_blk;
                        for cs in &c.body.stmts {
                            cend = self.stmt(cend, cs, &mut env_catch);
                        }
                        self.seal(cend, Terminator::Goto(join));
                        dispatch = next;
                    }
                }
                let mut bend = body_blk;
                for bs in &body.stmts {
                    bend = self.stmt(bend, bs, env);
                }
                self.seal(bend, Terminator::Goto(join));
                match finally {
                    Some(f) => {
                        let mut fend = join;
                        for fs in &f.stmts {
                            fend = self.stmt(fend, fs, env);
                        }
                        fend
                    }
                    None => join,
                }
            }
            StmtKind::Throw(e) => {
                let mut events = Vec::new();
                flatten_expr(e, env, &mut events);
                self.blocks[cur].events.extend(events);
                // Exceptional exit: model as return-without-value.
                self.seal(cur, Terminator::Return(None));
                cur
            }
            StmtKind::Break => {
                if let Some(&target) = self.breaks.last() {
                    self.seal(cur, Terminator::Goto(target));
                }
                cur
            }
            StmtKind::Continue => {
                if let Some(&target) = self.continues.last() {
                    self.seal(cur, Terminator::Goto(target));
                }
                cur
            }
            StmtKind::Empty => cur,
        }
    }

    /// Flattens a branch condition into `cur` and recognizes state-test
    /// shapes: `x.hasNext()`, `!x.hasNext()`.
    fn eval_cond(
        &mut self,
        cur: BlockId,
        cond: &Expr,
        env: &mut TypeEnv<'_>,
    ) -> Option<BranchTest> {
        let (inner, negated) = match &cond.kind {
            ExprKind::Unary { op: UnaryOp::Not, expr } => (expr.as_ref(), true),
            _ => (cond, false),
        };
        let mut events = Vec::new();
        flatten_expr(inner, env, &mut events);
        if negated && !std::ptr::eq(inner, cond) {
            // events already cover the inner expression; nothing extra for `!`.
        }
        let test = match (&inner.kind, events.last()) {
            (
                ExprKind::Call { .. },
                Some(Event { kind: EventKind::Call { callee, receiver: Some(recv), .. }, .. }),
            ) => Some(BranchTest { operand: recv.clone(), callee: callee.clone(), negated }),
            _ => None,
        };
        self.blocks[cur].events.extend(events);
        test
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProgramIndex;
    use java_syntax::parse;
    use spec_lang::standard_api;

    fn cfg_of(method_src: &str) -> Cfg {
        let src = format!(
            r#"class Row {{
                Collection<Integer> entries;
                Iterator<Integer> createColIter() {{ return entries.iterator(); }}
                void add(int val) {{}}
            }}
            class App {{ {method_src} }}"#
        );
        let unit = parse(&src).unwrap();
        let index = ProgramIndex::build([&unit]);
        let api = standard_api();
        // Leak to get 'static lifetimes for the test helper.
        let index: &'static ProgramIndex = Box::leak(Box::new(index));
        let api: &'static spec_lang::ApiRegistry = Box::leak(Box::new(api));
        let unit: &'static CompilationUnit = Box::leak(Box::new(unit));
        let app = unit.type_named("App").unwrap();
        let m = app.methods().last().unwrap();
        let mut env = TypeEnv::for_method(index, api, "App", m);
        Cfg::build(m, &mut env)
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let cfg = cfg_of("void m(Row r) { r.add(1); r.add(2); }");
        let reach = cfg.reachable();
        assert!(reach.contains(&cfg.entry));
        assert!(reach.contains(&cfg.exit));
        assert_eq!(cfg.branch_count(), 0);
        assert_eq!(cfg.blocks[cfg.entry].events.len(), 2);
    }

    #[test]
    fn if_else_creates_diamond() {
        let cfg = cfg_of(
            "void m(Row r, boolean c) { if (c) { r.add(1); } else { r.add(2); } r.add(3); }",
        );
        assert_eq!(cfg.branch_count(), 1);
        // entry branches to two blocks that converge on a join.
        let succs = cfg.successors(cfg.entry);
        assert_eq!(succs.len(), 2);
        let j1: Vec<_> = cfg.successors(succs[0]);
        let j2: Vec<_> = cfg.successors(succs[1]);
        assert_eq!(j1, j2, "both branches reach the same join");
    }

    #[test]
    fn while_loop_has_back_edge() {
        let cfg = cfg_of(
            r#"void m(Row original) {
                Iterator<Integer> iter = original.createColIter();
                while (iter.hasNext()) { iter.next(); }
            }"#,
        );
        assert_eq!(cfg.branch_count(), 1);
        // Find the branch block; its body successor must eventually loop back.
        let (head, body) = cfg
            .blocks
            .iter()
            .enumerate()
            .find_map(|(i, b)| match &b.term {
                Some(Terminator::Branch { then_blk, .. }) => Some((i, *then_blk)),
                _ => None,
            })
            .unwrap();
        // Walk forward from the body; we must come back to head.
        let mut cur = body;
        let mut steps = 0;
        loop {
            let succ = cfg.successors(cur);
            assert!(!succ.is_empty(), "body fell off");
            cur = succ[0];
            if cur == head {
                break;
            }
            steps += 1;
            assert!(steps < 10, "no back edge found");
        }
    }

    #[test]
    fn recognizes_state_test_in_condition() {
        let cfg = cfg_of(
            r#"void m(Row original) {
                Iterator<Integer> iter = original.createColIter();
                if (iter.hasNext()) { iter.next(); }
            }"#,
        );
        let test = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Some(Terminator::Branch { test: Some(t), .. }) => Some(t.clone()),
                _ => None,
            })
            .expect("state test recognized");
        assert!(!test.negated);
        assert!(matches!(&test.callee, Callee::Api { method, .. } if method == "hasNext"));
    }

    #[test]
    fn negated_state_test() {
        let cfg = cfg_of(
            r#"void m(Iterator<Integer> iter) {
                if (!iter.hasNext()) { return; }
                iter.next();
            }"#,
        );
        let test = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Some(Terminator::Branch { test: Some(t), .. }) => Some(t.clone()),
                _ => None,
            })
            .unwrap();
        assert!(test.negated);
    }

    #[test]
    fn break_exits_loop() {
        let cfg = cfg_of(
            r#"void m(Row r, boolean c) {
                while (c) { if (c) { break; } r.add(1); }
                r.add(2);
            }"#,
        );
        // All blocks reachable; specifically the post-loop block.
        let total_events: usize = cfg.reachable().iter().map(|&b| cfg.blocks[b].events.len()).sum();
        assert_eq!(total_events, 2, "both add() calls reachable");
        assert_eq!(cfg.branch_count(), 2);
    }

    #[test]
    fn return_flows_to_exit() {
        let cfg = cfg_of("Row m(Row r) { return r; }");
        match &cfg.blocks[cfg.entry].term {
            Some(Terminator::Return(Some(op))) => {
                assert_eq!(op.place, crate::events::Place::Local("r".into()));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cfg.successors(cfg.entry), vec![cfg.exit]);
    }

    #[test]
    fn synchronized_emits_sync_event() {
        let cfg = cfg_of("void m(Row r) { synchronized (r) { r.add(1); } }");
        let has_sync =
            cfg.blocks[cfg.entry].events.iter().any(|e| matches!(&e.kind, EventKind::Sync { .. }));
        assert!(has_sync);
    }

    #[test]
    fn foreach_desugars_to_loop() {
        let cfg = cfg_of("void m(Collection<Integer> c) { for (Integer x : c) { } }");
        assert_eq!(cfg.branch_count(), 1);
    }

    #[test]
    fn do_while_runs_body_before_test() {
        let cfg = cfg_of(
            r#"void m(Iterator<Integer> it) {
                do { it.next(); } while (it.hasNext());
            }"#,
        );
        // Entry goes straight into the body (no pre-test), and the
        // condition block branches back.
        assert_eq!(cfg.branch_count(), 1);
        let test = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Some(Terminator::Branch { test: Some(t), .. }) => Some(t.clone()),
                _ => None,
            })
            .expect("hasNext test recognized");
        assert!(matches!(&test.callee, Callee::Api { method, .. } if method == "hasNext"));
    }

    #[test]
    fn switch_cases_fall_through_to_join() {
        let cfg = cfg_of(
            r#"void m(Row r, int x) {
                switch (x) {
                    case 1:
                        r.add(1);
                        break;
                    case 2:
                        r.add(2);
                    default:
                        r.add(3);
                }
                r.add(4);
            }"#,
        );
        // All four add() calls are reachable.
        let total: usize = cfg.reachable().iter().map(|&b| cfg.blocks[b].events.len()).sum();
        assert_eq!(total, 4);
        assert!(cfg.branch_count() >= 2, "case dispatch branches");
    }

    #[test]
    fn unreachable_code_does_not_poison_cfg() {
        let cfg = cfg_of("void m(Row r) { return; r.add(1); }");
        // add(1) sits in an unreachable block; reachable events are empty.
        let total: usize = cfg.reachable().iter().map(|&b| cfg.blocks[b].events.len()).sum();
        assert_eq!(total, 0);
    }
}
