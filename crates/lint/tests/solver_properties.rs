//! Property tests for the monotone dataflow solver: on randomly generated
//! CFGs with randomly generated monotone (gen/kill) transfer functions, the
//! solver must (1) reach a genuine fixpoint, (2) compute the same solution
//! regardless of worklist order, and (3) never trip its widening guard on a
//! finite lattice.

use analysis::cfg::{Block, BlockId, Cfg, Terminator};
use analysis::events::{Event, EventKind, Operand, Place};
use java_syntax::{ExprId, Span};
use lint::{solve, solve_with_seed, Analysis};
use prng::{forall, Rng};
use std::collections::BTreeSet;

/// A random gen/kill bit-vector analysis. The `Analysis` transfers see only
/// events (not block ids), so every generated block holds one synthetic
/// event whose `id` is the block's index, and the gen/kill table is keyed
/// off that id.
struct GenKill {
    /// (gen, kill) per block, indexed by its event's id.
    tables: Vec<(BTreeSet<u8>, BTreeSet<u8>)>,
}

/// The trivial analysis whose facts mark reachability from the boundary.
struct Reachability;

impl Analysis for Reachability {
    type Fact = Option<BTreeSet<usize>>;

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

impl GenKill {
    fn new(rng: &mut Rng, blocks: usize) -> GenKill {
        let tables = (0..blocks)
            .map(|_| {
                let mut gen = BTreeSet::new();
                let mut kill = BTreeSet::new();
                for f in 0..8u8 {
                    if rng.gen_bool(0.3) {
                        gen.insert(f);
                    }
                    if rng.gen_bool(0.3) {
                        kill.insert(f);
                    }
                }
                (gen, kill)
            })
            .collect();
        GenKill { tables }
    }
}

impl Analysis for GenKill {
    type Fact = Option<BTreeSet<u8>>;

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
    fn transfer_event(&self, fact: &mut Self::Fact, event: &Event) {
        // Monotone (gen/kill over a powerset), and a function of the block
        // alone, so independent of solve order.
        if let Some(set) = fact.as_mut() {
            let (gen, kill) = &self.tables[event.id.0 as usize];
            for k in kill {
                set.remove(k);
            }
            set.extend(gen.iter().copied());
        }
    }
}

/// A random CFG: entry 0, exit 1, plus `extra` inner blocks with random
/// Goto/Branch/Return terminators. All blocks sealed; each holds one
/// synthetic event whose id is the block's index.
fn random_cfg(rng: &mut Rng, extra: usize) -> Cfg {
    let n = extra + 2;
    let mk = |term| Block { events: Vec::new(), term: Some(term), span: Span::DUMMY };
    let inner = |rng: &mut Rng| 2 + rng.gen_index(0..extra.max(1)) % extra.max(1);
    let mut blocks = Vec::with_capacity(n);
    // Entry jumps somewhere (or straight to a return when there are no
    // inner blocks).
    blocks.push(if extra == 0 {
        mk(Terminator::Return(None))
    } else {
        mk(Terminator::Goto(inner(rng)))
    });
    blocks.push(mk(Terminator::Exit));
    for _ in 0..extra {
        let t = match rng.gen_index(0..4) {
            0 => Terminator::Goto(inner(rng)),
            1 => Terminator::Branch { test: None, then_blk: inner(rng), else_blk: inner(rng) },
            2 => Terminator::Return(None),
            _ => Terminator::Goto(inner(rng)),
        };
        blocks.push(mk(t));
    }
    for (b, block) in blocks.iter_mut().enumerate() {
        let target = Operand { place: Place::This, type_name: None };
        let kind = EventKind::Sync { target };
        block.events.push(Event { id: ExprId(b as u32), span: Span::DUMMY, kind });
    }
    Cfg { blocks, entry: 0, exit: 1 }
}

#[test]
fn solver_is_order_independent_on_random_cfgs() {
    forall("order-independence", 60, |rng| {
        let extra = rng.gen_index(0..12);
        let cfg = random_cfg(rng, extra);
        let analysis = GenKill::new(rng, cfg.blocks.len());
        let base = solve(&analysis, &cfg);
        assert!(!base.stats.widened, "finite lattice must converge");
        for _ in 0..4 {
            let seed = rng.next_u64();
            let alt = solve_with_seed(&analysis, &cfg, Some(seed));
            assert_eq!(alt.entry, base.entry, "entry facts differ for seed {seed}");
            assert_eq!(alt.exit, base.exit, "exit facts differ for seed {seed}");
        }
    });
}

#[test]
fn solution_is_a_true_fixpoint() {
    forall("fixpoint", 60, |rng| {
        let extra = rng.gen_index(0..12);
        let cfg = random_cfg(rng, extra);
        let analysis = GenKill::new(rng, cfg.blocks.len());
        let sol = solve(&analysis, &cfg);
        // Re-transferring every reachable block must reproduce its exit
        // fact, and every successor's entry must already absorb it.
        for b in cfg.reachable() {
            let mut fact = sol.entry[b].clone();
            for e in &cfg.blocks[b].events {
                analysis.transfer_event(&mut fact, e);
            }
            assert_eq!(fact, sol.exit[b], "block {b} not at fixpoint");
            for s in cfg.successors(b) {
                let mut joined = sol.entry[s].clone();
                let changed = analysis.join(&mut joined, &fact);
                assert!(!changed, "edge {b}->{s} not absorbed");
            }
        }
    });
}

#[test]
fn reachability_facts_agree_with_cfg_reachability() {
    forall("reachability", 60, |rng| {
        let extra = rng.gen_index(0..12);
        let cfg = random_cfg(rng, extra);
        let sol = solve(&Reachability, &cfg);
        let reachable: BTreeSet<BlockId> = cfg.reachable().into_iter().collect();
        for b in 0..cfg.blocks.len() {
            assert_eq!(
                sol.entry[b].is_some(),
                reachable.contains(&b),
                "block {b}: dataflow reachability disagrees with DFS"
            );
        }
    });
}
