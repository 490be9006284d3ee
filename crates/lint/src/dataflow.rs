//! A generic monotone dataflow framework over the event CFG.
//!
//! Analyses implement [`Analysis`]: a lattice of facts with a join, a
//! transfer function over [`Event`]s and a refinement of branch edges.
//! [`solve`] runs a
//! forward worklist from the entry block to the least fixpoint, with an
//! iteration cap acting as a widening guard against non-monotone (buggy)
//! transfer functions. The solver's result is independent of worklist order
//! for monotone transfers — [`solve_with_seed`] exposes a knob the property
//! tests use to demonstrate exactly that.

use analysis::cfg::{BlockId, BranchTest, Cfg, Terminator};
use analysis::events::Event;

/// A forward monotone dataflow problem over a [`Cfg`].
pub trait Analysis {
    /// The lattice element computed per program point.
    type Fact: Clone + PartialEq;

    /// The least element (identity of [`Analysis::join`]); the initial value
    /// of every non-boundary program point. Conventionally "unreachable".
    fn bottom(&self, cfg: &Cfg) -> Self::Fact;

    /// The fact holding at the start of the entry block.
    fn boundary(&self, cfg: &Cfg) -> Self::Fact;

    /// Joins `other` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Transfers one event, in execution order.
    fn transfer_event(&self, fact: &mut Self::Fact, event: &Event);

    /// Refines the fact flowing along a branch edge. `taken` is true on the
    /// then-edge. Defaults to a clone (no refinement).
    fn flow_branch(&self, fact: &Self::Fact, _test: &BranchTest, _taken: bool) -> Self::Fact {
        fact.clone()
    }
}

/// Solver bookkeeping, reported alongside the facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// Whether the widening guard tripped (the fixpoint was *not* reached —
    /// a transfer function is non-monotone or the lattice has an infinite
    /// ascending chain).
    pub widened: bool,
}

/// Per-block fixpoint facts: `entry[b]` holds at the start of block `b`,
/// `exit[b]` at its end.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each block's start.
    pub entry: Vec<F>,
    /// Fact at each block's end.
    pub exit: Vec<F>,
    /// Solver statistics.
    pub stats: SolveStats,
}

/// Widening guard: each block may be re-transferred at most this many times
/// before the solver gives up (finite lattices converge far earlier).
const MAX_VISITS_PER_BLOCK: usize = 64;

/// Runs `analysis` to fixpoint over `cfg` with a deterministic (FIFO)
/// worklist.
pub fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Solution<A::Fact> {
    solve_with_seed(analysis, cfg, None)
}

/// Like [`solve`], but when `seed` is `Some` the worklist pops in a
/// pseudo-random order derived from it. Monotone analyses produce the same
/// fixpoint for every seed; the property tests exploit this.
pub fn solve_with_seed<A: Analysis>(
    analysis: &A,
    cfg: &Cfg,
    seed: Option<u64>,
) -> Solution<A::Fact> {
    let n = cfg.blocks.len();
    let mut start: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    let mut end: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    analysis.join(&mut start[cfg.entry], &analysis.boundary(cfg));

    let mut worklist: Vec<BlockId> = cfg.reachable();
    let mut queued = vec![false; n];
    for &b in &worklist {
        queued[b] = true;
    }
    let mut rng_state = seed.unwrap_or(0);
    let mut visits = vec![0usize; n];
    let mut stats = SolveStats { widened: false };

    while !worklist.is_empty() {
        let idx = match seed {
            None => 0,
            Some(_) => {
                // SplitMix64 step — any deterministic scramble works here.
                rng_state = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = rng_state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as usize % worklist.len()
            }
        };
        let b = worklist.swap_remove(idx);
        queued[b] = false;
        visits[b] += 1;
        if visits[b] > MAX_VISITS_PER_BLOCK {
            stats.widened = true;
            continue;
        }

        let mut fact = start[b].clone();
        for e in &cfg.blocks[b].events {
            analysis.transfer_event(&mut fact, e);
        }
        end[b] = fact;
        for (succ, refined) in forward_edges(analysis, cfg, b, &end[b]) {
            if analysis.join(&mut start[succ], &refined) && !queued[succ] {
                queued[succ] = true;
                worklist.push(succ);
            }
        }
    }

    Solution { entry: start, exit: end, stats }
}

/// The facts flowing out of `b` along each successor edge, branch-refined.
fn forward_edges<A: Analysis>(
    analysis: &A,
    cfg: &Cfg,
    b: BlockId,
    out: &A::Fact,
) -> Vec<(BlockId, A::Fact)> {
    match cfg.blocks[b].term.as_ref() {
        Some(Terminator::Branch { test: Some(t), then_blk, else_blk }) => vec![
            (*then_blk, analysis.flow_branch(out, t, true)),
            (*else_blk, analysis.flow_branch(out, t, false)),
        ],
        _ => cfg.successors(b).into_iter().map(|s| (s, out.clone())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::cfg::Block;
    use std::collections::BTreeSet;

    /// A toy forward "reaching blocks" analysis: the fact is the set of block
    /// ids on some path from entry (exclusive of the current block's own
    /// transfer, which adds its id).
    struct ReachingBlocks;

    impl Analysis for ReachingBlocks {
        type Fact = Option<BTreeSet<usize>>; // None = unreachable (bottom)

        fn bottom(&self, _cfg: &Cfg) -> Self::Fact {
            None
        }
        fn boundary(&self, _cfg: &Cfg) -> Self::Fact {
            Some(BTreeSet::new())
        }
        fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
            match (into.as_mut(), other) {
                (_, None) => false,
                (None, Some(_)) => {
                    *into = other.clone();
                    true
                }
                (Some(a), Some(b)) => {
                    let before = a.len();
                    a.extend(b.iter().copied());
                    a.len() != before
                }
            }
        }
        fn transfer_event(&self, _fact: &mut Self::Fact, _event: &Event) {}
    }

    fn diamond() -> Cfg {
        // 0 -> {2, 3} -> 4 -> exit(1)
        let mk = |term| Block { events: vec![], term: Some(term), span: java_syntax::Span::DUMMY };
        Cfg {
            blocks: vec![
                mk(Terminator::Branch { test: None, then_blk: 2, else_blk: 3 }),
                mk(Terminator::Exit),
                mk(Terminator::Goto(4)),
                mk(Terminator::Goto(4)),
                mk(Terminator::Return(None)),
            ],
            entry: 0,
            exit: 1,
        }
    }

    #[test]
    fn forward_join_merges_paths() {
        let cfg = diamond();
        let sol = solve(&ReachingBlocks, &cfg);
        assert!(!sol.stats.widened);
        // Block 4 is entered from both arms of the diamond.
        assert_eq!(sol.entry[4], Some(BTreeSet::new()));
        // The exit sees the boundary fact propagated all the way through.
        assert!(sol.entry[1].is_some());
    }

    #[test]
    fn seeded_orders_agree() {
        let cfg = diamond();
        let base = solve(&ReachingBlocks, &cfg);
        for seed in 1..20u64 {
            let s = solve_with_seed(&ReachingBlocks, &cfg, Some(seed));
            assert_eq!(s.entry, base.entry, "seed {seed}");
            assert_eq!(s.exit, base.exit, "seed {seed}");
        }
    }
}
