//! The flat-arena belief-propagation kernel.
//!
//! [`CompiledGraph`] lowers a [`FactorGraph`] into contiguous CSR arrays —
//! one edge per (factor, scope-position) pair, the rows of the unary and
//! pairwise factors laid out flat, one fold program per distinct wider
//! table, and a variable→edge adjacency index — so the message-passing
//! loops touch only dense scalar slices.
//!
//! ## Message layout
//!
//! Messages are stored as `(p, 1-p)` *pairs*, so the two product chains a
//! Bernoulli message pass maintains (`p_t` and `p_f`) read one contiguous
//! pair per hop — a shape the autovectorizer turns into two-lane SIMD
//! multiplies. Factor→variable messages live in **variable-major** order
//! (grouped by target variable, via the `vslot` permutation), which makes
//! the inner loops of the variable→factor pass and the belief read-out walk
//! contiguous memory; variable→factor messages stay **factor-major** so the
//! factor pass reads its scope as one slice. Storing `1-p` next to `p`
//! caches at write time exactly the bits `1.0 - m` would produce at every
//! read.
//!
//! ## The factor message kernel
//!
//! Every factor→variable message comes from one routine that computes all
//! messages of a factor at once
//! (`CompiledGraph::factor_messages`). A message is the factor's table
//! contracted against the other incoming messages one scope position at a
//! time, each fold halving the table: the positions above the target fold
//! from the top down, the positions below it from the bottom up. The
//! targets share their top folds, so the contraction visits them from the
//! top scope position down along one chain of top folds and runs only each
//! target's bottom-up folds separately: about `3·2^n` folds for an arity-`n`
//! factor.
//!
//! Factors of arity three or more run that contraction as a fold program
//! built at compile time. Its leaves are the table's distinct values, and
//! each fold is hash-consed on its two operands and its scope position, so
//! a fold over equal operands is computed once: the 1,024-entry L1-split
//! table of the paper's Eq. 2 needs 247 folds instead of 3,048. A program
//! lives with its [`Table`](crate::Table): it is built at the first
//! compile that needs it and shared by every factor and graph holding that
//! table, so a caller that tabulates each distinct table once builds each
//! program once. Unary and pairwise factors fold straight from their rows,
//! with the same arithmetic. The kernel computes marginals only
//! ([`CompiledGraph::solve`]): sum-product, the paper's Eq. 4–6.
//!
//! The contraction sums in a different order than the historical
//! cell-by-cell walk, so marginals differ from that solver in the last few
//! bits (the `reference_parity` tests bound the drift at `1e-12` and
//! require identical iteration counts); the golden fixture pins the
//! current bits.
//!
//! Messages are updated on the classic synchronous two-phase sweep: every
//! variable→factor message, then every factor→variable message, in a fixed
//! order. The same graph and options give the same bits on every run,
//! thread count and machine.
//!
//! The kernel also supports *stamped* solves: a compiled skeleton plus a
//! list of extra unary potentials supplied per solve. Stamped extras behave
//! exactly as if `Factor::unary` factors had been appended after every
//! skeleton factor, which is what lets callers cache a method's static
//! factor-graph skeleton and re-solve with fresh evidence without
//! recompiling (see `anek-core`'s incremental `ANEK-INFER`).
//!
//! Callers that solve many graphs in a row should reuse a [`Scratch`]
//! across solves ([`CompiledGraph::solve_stamped_scratch`]): all working
//! arrays — messages, the extra index, the fold values — are then
//! recycled instead of reallocated per solve.

use std::collections::HashMap;
use std::sync::Arc;

use crate::factor::VarId;
use crate::graph::{BpOptions, FactorGraph, GuardEvents, Marginals};

/// A [`FactorGraph`] compiled into flat arena form.
///
/// The compiled graph holds every potential the solver reads, once: the
/// rows of the unary and pairwise factors, and one shared fold program
/// per distinct wider [`Table`](crate::Table). Compilation is one linear
/// pass that copies the small rows and takes each wide table's program
/// from the table; callers that solve the same graph repeatedly — possibly
/// with different stamped extras — should compile once, drop the
/// [`FactorGraph`], and reuse the compiled graph (and hand the solver a
/// recycled [`Scratch`]).
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    n_vars: usize,
    /// Per factor: half-open edge range `f_off[fi]..f_off[fi+1]`.
    f_off: Vec<u32>,
    /// Per factor: where its potentials live — the offset of its row in
    /// `tables` for arity 1 and 2, the index of its program in `programs`
    /// otherwise.
    f_table: Vec<u32>,
    /// The rows of the unary and pairwise factors, concatenated.
    tables: Vec<f64>,
    /// The fold programs of the graph's distinct wide tables, in order of
    /// first use.
    programs: Vec<Arc<FoldProgram>>,
    /// Per edge: the variable it connects.
    edge_var: Vec<u32>,
    /// Per edge: the factor that owns it.
    edge_factor: Vec<u32>,
    /// Per variable: half-open range into `v_edges`.
    v_off: Vec<u32>,
    /// Edge ids grouped by variable, ascending within each group (this is
    /// exactly the insertion order the nested solver used).
    v_edges: Vec<u32>,
    /// Per edge: its position in `v_edges` — the variable-major slot the
    /// factor→variable message for this edge is stored at (the inverse
    /// permutation of `v_edges`).
    vslot: Vec<u32>,
}

/// One fold, `c_lo·m(0) + c_hi·m(1)` for the message at scope position
/// `pos`: the cells it reads are value slots of its [`FoldProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Fold {
    lo: u32,
    hi: u32,
    pos: u32,
}

/// Every message of one factor table, as straight-line code over value
/// slots.
///
/// Slots `0..leaves.len()` hold the table's distinct values; fold `i`
/// writes slot `leaves.len() + i` from earlier slots. The folds are the
/// contraction's own sequence — the shared chain of top folds, then each
/// target's bottom-up folds — with every repeated (operand, operand,
/// position) key answered by the slot that first computed it. A repeated
/// key is the same float operation on the same operands, so each message
/// keeps its bits; only the work shrinks.
#[derive(Debug)]
pub(crate) struct FoldProgram {
    leaves: Vec<f64>,
    folds: Vec<Fold>,
    /// Per target, from the top scope position down: the slots of its
    /// `(true, false)` mass.
    targets: Vec<[u32; 2]>,
}

impl FoldProgram {
    /// The program of an arity-`n` table (`1 << n` cells, bit `j` of a
    /// cell index the value of scope position `j`).
    pub(crate) fn build(table: &[f64], n: usize) -> FoldProgram {
        let mut leaves = Vec::new();
        let mut leaf_slot: HashMap<u64, u32> = HashMap::new();
        // The table folded over every position above the current target.
        let mut top: Vec<u32> = table
            .iter()
            .map(|&c| {
                *leaf_slot.entry(c.to_bits()).or_insert_with(|| {
                    leaves.push(c);
                    leaves.len() as u32 - 1
                })
            })
            .collect();
        let n_leaves = leaves.len() as u32;
        let mut folds = Vec::new();
        let mut fold_slot: HashMap<Fold, u32> = HashMap::new();
        let mut fold = |lo: u32, hi: u32, pos: usize| {
            let f = Fold { lo, hi, pos: pos as u32 };
            *fold_slot.entry(f).or_insert_with(|| {
                folds.push(f);
                n_leaves + folds.len() as u32 - 1
            })
        };
        let mut targets = Vec::with_capacity(n);
        for pos in (0..n).rev() {
            // Bottom-up: fold positions 0, 1, … pos-1 away by adjacent pairs.
            let mut cells = top.clone();
            for p in 0..pos {
                cells = cells.chunks_exact(2).map(|c| fold(c[0], c[1], p)).collect();
            }
            targets.push([cells[1], cells[0]]);
            if pos > 0 {
                // Fold position `pos` away, by halves, for the targets below.
                let (lo, hi) = top.split_at(1 << pos);
                top = lo.iter().zip(hi).map(|(&c0, &c1)| fold(c0, c1, pos)).collect();
            }
        }
        FoldProgram { leaves, folds, targets }
    }

    /// Runs the program against a factor's incoming message pairs (pair
    /// `pos` for scope position `pos`), with `vals` as the slot buffer, and
    /// hands each target's `(true, false)` mass to `emit`, from the top
    /// scope position down.
    #[inline]
    fn run(&self, local: &[f64], vals: &mut Vec<f64>, mut emit: impl FnMut(usize, f64, f64)) {
        vals.clear();
        vals.reserve(self.leaves.len() + self.folds.len());
        vals.extend_from_slice(&self.leaves);
        for &Fold { lo, hi, pos } in &self.folds {
            let (m1, m0) = (local[2 * pos as usize], local[2 * pos as usize + 1]);
            vals.push(vals[lo as usize] * m0 + vals[hi as usize] * m1);
        }
        let top = self.targets.len() - 1;
        for (i, &[t, f]) in self.targets.iter().enumerate() {
            emit(top - i, vals[t as usize], vals[f as usize]);
        }
    }
}

/// Reusable per-solve working memory: the message pair arrays, the
/// stamped-extra index and the fold program's value slots.
///
/// A `Scratch` may be reused across solves of *different* graphs — every
/// message and index buffer is (re)sized and reinitialized at the start of
/// each solve, and the value slots are written before they are read, so a
/// fresh `Scratch` and a recycled one produce bit-identical results, and a
/// solve that panics leaves no state behind that could poison the next
/// one.
#[derive(Debug, Default)]
pub struct Scratch {
    // Message pairs, `(p, 1-p)` interleaved: factor→variable (variable-
    // major), variable→factor (factor-major), and stamped extras.
    fv: Vec<f64>,
    vf: Vec<f64>,
    xm: Vec<f64>,
    // Stamped-extra index (`ExtraIndex` borrows these).
    ps: Vec<f64>,
    x_off: Vec<u32>,
    x_idx: Vec<u32>,
    // The value slots of the fold program running (see `FoldProgram::run`).
    vals: Vec<f64>,
}

impl Scratch {
    /// A fresh, empty scratch. Buffers grow on first use and are retained
    /// across solves.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// Per-solve adjacency for stamped extra unary potentials: extras grouped
/// by variable, preserving stamp order within each variable. Borrows its
/// storage from [`Scratch`].
struct ExtraIndex<'a> {
    /// `p(true)` per extra, in stamp order.
    ps: &'a [f64],
    x_off: &'a [u32],
    x_idx: &'a [u32],
}

impl<'a> ExtraIndex<'a> {
    fn build(
        n_vars: usize,
        extras: &[(VarId, f64)],
        ps: &'a mut Vec<f64>,
        x_off: &'a mut Vec<u32>,
        x_idx: &'a mut Vec<u32>,
    ) -> ExtraIndex<'a> {
        x_off.clear();
        x_off.resize(n_vars + 1, 0);
        for (v, _) in extras {
            assert!((v.0 as usize) < n_vars, "stamped extra references unknown variable {v}");
            x_off[v.0 as usize + 1] += 1;
        }
        for i in 0..n_vars {
            x_off[i + 1] += x_off[i];
        }
        let mut cursor = x_off.clone();
        x_idx.clear();
        x_idx.resize(extras.len(), 0);
        for (i, (v, _)) in extras.iter().enumerate() {
            x_idx[cursor[v.0 as usize] as usize] = i as u32;
            cursor[v.0 as usize] += 1;
        }
        ps.clear();
        ps.extend(extras.iter().map(|&(_, p)| p));
        ExtraIndex { ps, x_off, x_idx }
    }

    #[inline]
    fn of(&self, v: usize) -> &[u32] {
        &self.x_idx[self.x_off[v] as usize..self.x_off[v + 1] as usize]
    }
}

#[inline]
fn damp(old: f64, new: f64, d: f64) -> f64 {
    d * old + (1.0 - d) * new
}

/// Whether the solve's wall-clock deadline (if any) has passed. Polled
/// once per sweep — never per message update.
#[inline]
fn deadline_passed(opts: &BpOptions) -> bool {
    opts.deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// Normalizes a two-point mass to `p(true)`, clamping degenerate masses to
/// the uniform message and counting the clamp in `ev`.
///
/// On healthy inputs (finite, positive mass) this is exactly the historical
/// `p_t / (p_t + p_f)` — bit-for-bit. Non-finite mass (a NaN or infinite
/// potential leaked into the products) and zero mass (all-zero factor rows,
/// fully underflowed products) both clamp to `0.5`; the former used to
/// produce `0.5` silently via NaN comparison semantics, and is now counted
/// so the solve can be reported as degraded.
#[inline]
fn normalize(p_t: f64, p_f: f64, ev: &mut GuardEvents) -> f64 {
    let z = p_t + p_f;
    if z > 0.0 && z.is_finite() {
        p_t / z
    } else {
        if z.is_finite() {
            ev.zero_sum += 1;
        } else {
            ev.non_finite += 1;
        }
        0.5
    }
}

/// Writes message `m` as an `(m, 1-m)` pair at pair-slot `i`.
#[inline(always)]
fn put(buf: &mut [f64], i: usize, m: f64) {
    buf[2 * i] = m;
    buf[2 * i + 1] = 1.0 - m;
}

/// Reads the `p(true)` half of the pair at slot `i`.
#[inline(always)]
fn get_t(buf: &[f64], i: usize) -> f64 {
    buf[2 * i]
}

/// Resets a pair buffer to `n` uniform messages.
fn reset_pairs(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(2 * n, 0.5);
}

impl CompiledGraph {
    /// Lowers a graph into arena form.
    ///
    /// # Panics
    ///
    /// Panics if a factor's table does not hold `2^arity` potentials.
    pub fn compile(g: &FactorGraph) -> CompiledGraph {
        let n_vars = g.num_vars();
        let factors = g.factors();
        let n_edges: usize = factors.iter().map(|f| f.scope().len()).sum();
        let mut f_off = Vec::with_capacity(factors.len() + 1);
        let mut f_table = Vec::with_capacity(factors.len());
        let mut edge_var = Vec::with_capacity(n_edges);
        let mut edge_factor = Vec::with_capacity(n_edges);
        let mut tables = Vec::new();
        let mut programs: Vec<Arc<FoldProgram>> = Vec::new();
        f_off.push(0u32);
        for (fi, f) in factors.iter().enumerate() {
            for v in f.scope() {
                edge_var.push(v.0);
                edge_factor.push(fi as u32);
            }
            f_off.push(edge_var.len() as u32);
            let n = f.scope().len();
            let table = f.table();
            assert_eq!(table.len(), 1 << n, "factor {fi}: table size does not match its scope");
            if n <= 2 {
                f_table.push(tables.len() as u32);
                tables.extend_from_slice(table);
            } else {
                let program = f.shared_table().program();
                let at = match programs.iter().position(|p| Arc::ptr_eq(p, program)) {
                    Some(at) => at,
                    None => {
                        programs.push(Arc::clone(program));
                        programs.len() - 1
                    }
                };
                f_table.push(at as u32);
            }
        }
        // Counting sort: v_edges grouped by variable, ascending edge id —
        // the same order the nested solver's `var_edges` push loop produced.
        let mut v_off = vec![0u32; n_vars + 1];
        for &v in &edge_var {
            v_off[v as usize + 1] += 1;
        }
        for i in 0..n_vars {
            v_off[i + 1] += v_off[i];
        }
        let mut cursor = v_off.clone();
        let mut v_edges = vec![0u32; n_edges];
        let mut vslot = vec![0u32; n_edges];
        for (e, &v) in edge_var.iter().enumerate() {
            let slot = cursor[v as usize];
            v_edges[slot as usize] = e as u32;
            vslot[e] = slot;
            cursor[v as usize] += 1;
        }
        CompiledGraph {
            n_vars,
            f_off,
            f_table,
            tables,
            programs,
            edge_var,
            edge_factor,
            v_off,
            v_edges,
            vslot,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of (factor, position) edges.
    pub fn num_edges(&self) -> usize {
        self.edge_var.len()
    }

    /// Sum-product inference (marginals).
    pub fn solve(&self, opts: &BpOptions) -> Marginals {
        self.solve_stamped(&[], opts)
    }

    /// Sum-product inference with extra unary potentials stamped onto the
    /// compiled skeleton. Equivalent, bit for bit, to appending
    /// `Factor::unary(var, p)` for each extra and solving the extended
    /// graph.
    pub fn solve_stamped(&self, extras: &[(VarId, f64)], opts: &BpOptions) -> Marginals {
        self.solve_stamped_scratch(extras, opts, &mut Scratch::new())
    }

    /// [`CompiledGraph::solve_stamped`] with caller-provided scratch
    /// buffers. Reusing one [`Scratch`] across many solves removes every
    /// per-solve allocation except the returned marginal vector; results
    /// are bit-identical to a fresh scratch.
    pub fn solve_stamped_scratch(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        self.sweep(extras, opts, scratch)
    }

    #[inline]
    fn var_edges(&self, v: usize) -> &[u32] {
        &self.v_edges[self.v_off[v] as usize..self.v_off[v + 1] as usize]
    }

    /// The exclusive product over a variable's incoming message pairs: all
    /// factor→variable messages of `v` except local slot `skip` (pass
    /// `usize::MAX` to skip nothing, e.g. for beliefs), then all extras.
    ///
    /// `fv` is the variable-major pair array, so the hot loop walks one
    /// contiguous slice in ascending-edge order — exactly the historical
    /// accumulation order, now as two-lane multiplies the autovectorizer
    /// can keep in one register.
    #[inline]
    fn var_product(
        &self,
        v: usize,
        skip: usize,
        fv: &[f64],
        x_msg: &[f64],
        extras: &ExtraIndex<'_>,
    ) -> (f64, f64) {
        let s0 = self.v_off[v] as usize;
        let s1 = self.v_off[v + 1] as usize;
        let pairs = &fv[2 * s0..2 * s1];
        let mut p_t = 1.0f64;
        let mut p_f = 1.0f64;
        for (j, pair) in pairs.chunks_exact(2).enumerate() {
            if j == skip {
                continue;
            }
            p_t *= pair[0];
            p_f *= pair[1];
        }
        for &x in extras.of(v) {
            p_t *= x_msg[2 * x as usize];
            p_f *= x_msg[2 * x as usize + 1];
        }
        (p_t, p_f)
    }

    /// The synchronous two-phase sweep schedule.
    fn sweep(
        &self,
        extras_in: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        let ne = self.edge_var.len();
        let nf = self.f_off.len() - 1;
        let nx = extras_in.len();
        let d = opts.damping;
        let budget = opts.update_budget.unwrap_or(usize::MAX);
        let mut ev = GuardEvents::default();

        let Scratch { fv, vf, xm, ps, x_off, x_idx, vals } = scratch;
        reset_pairs(fv, ne);
        reset_pairs(vf, ne);
        reset_pairs(xm, nx);
        let extras = ExtraIndex::build(self.n_vars, extras_in, ps, x_off, x_idx);

        let mut beliefs = vec![0.5f64; self.n_vars];
        let mut iterations = 0;
        let mut converged = false;
        let mut updates = 0usize;
        let mut deadline_expired = false;

        for it in 0..opts.max_iterations {
            iterations = it + 1;

            // Variable → factor messages: product of incoming messages
            // except the target edge (extras always contribute; they have no
            // outgoing variable message of their own to exclude).
            for v in 0..self.n_vars {
                for (j, &e) in self.var_edges(v).iter().enumerate() {
                    let (p_t, p_f) = self.var_product(v, j, fv, xm, &extras);
                    let new = normalize(p_t, p_f, &mut ev);
                    let old = get_t(vf, e as usize);
                    put(vf, e as usize, damp(old, new, d));
                }
            }

            // Factor → variable messages.
            for fi in 0..nf {
                let e0 = self.f_off[fi] as usize;
                let e1 = self.f_off[fi + 1] as usize;
                let local = &vf[2 * e0..2 * e1];
                self.factor_messages(fi, local, vals, |pos, p_t, p_f| {
                    let new = normalize(p_t, p_f, &mut ev);
                    let slot = self.vslot[e0 + pos] as usize;
                    let old = get_t(fv, slot);
                    put(fv, slot, damp(old, new, d));
                });
            }
            // Stamped extras behave as unary factors appended after every
            // skeleton factor: constant normalized message, damped in.
            for (x, &p) in extras.ps.iter().enumerate() {
                let new = normalize(p, 1.0 - p, &mut ev);
                let old = get_t(xm, x);
                put(xm, x, damp(old, new, d));
            }
            updates += ne + nx;

            // Beliefs and convergence.
            let mut max_delta = 0.0f64;
            for (v, belief) in beliefs.iter_mut().enumerate() {
                let (p_t, p_f) = self.var_product(v, usize::MAX, fv, xm, &extras);
                let b = normalize(p_t, p_f, &mut ev);
                max_delta = max_delta.max((b - *belief).abs());
                *belief = b;
            }
            if max_delta < opts.tolerance {
                converged = true;
                break;
            }
            if updates >= budget {
                break;
            }
            // Wall-clock deadline, polled once per sweep: cheap relative to
            // the `ne + nx` message updates a sweep costs.
            if deadline_passed(opts) {
                deadline_expired = true;
                break;
            }
        }

        Marginals { probs: beliefs, iterations, converged, updates, guards: ev, deadline_expired }
    }

    /// Every factor→variable message of factor `fi`, reading the incoming
    /// variable→factor messages from a factor-local *pair* slice (pair
    /// `opos` for scope position `opos`). Each target's unnormalized mass
    /// goes to `emit(pos, true_mass, false_mass)`, from the top scope
    /// position down.
    ///
    /// The message to `pos` is the factor table contracted against every
    /// other incoming message, one scope position at a time. Bit `opos` of a
    /// table index is the value of scope position `opos`, so folding away
    /// the top position pairs cell `j` with cell `j + half`, and folding
    /// away the bottom position pairs cells `2j` and `2j + 1`. Each fold
    /// computes `c0·m(0) + c1·m(1)`. Positions above `pos` fold from the top
    /// down, then positions below `pos` from the bottom up; the two cells
    /// left are the target's `(false, true)` mass. Factors of arity three or
    /// more run that sequence as their fold program (see `FoldProgram`).
    /// Zero-potential cells need no special case: their products are
    /// exactly `+0.0`, which adds nothing.
    ///
    /// Unary and pairwise factors, most of a model's factors, fold straight
    /// from their rows. That is the same arithmetic, so the same bits, and
    /// it measured ~11% faster end to end at paper scale.
    #[inline]
    fn factor_messages(
        &self,
        fi: usize,
        local: &[f64],
        vals: &mut Vec<f64>,
        mut emit: impl FnMut(usize, f64, f64),
    ) {
        let at = self.f_table[fi] as usize;
        match local.len() / 2 {
            1 => emit(0, self.tables[at + 1], self.tables[at]),
            2 => {
                let table = &self.tables[at..at + 4];
                for pos in 0..2 {
                    let (o, t) = (1 - pos, 1 << pos);
                    let (m1, m0) = (local[2 * o], local[2 * o + 1]);
                    let fold = |c: usize| table[c] * m0 + table[c + (1 << o)] * m1;
                    emit(pos, fold(t), fold(0));
                }
            }
            _ => self.programs[at].run(local, vals, emit),
        }
    }

    /// Decomposes the belief log-odds of `var` into one additive term per
    /// incoming message, read from the message state a solve left behind in
    /// `scratch`.
    ///
    /// The belief of a variable is the normalized product of its incoming
    /// factor→variable message pairs and stamped-extra messages, so its
    /// log-odds `ln(b / (1-b))` is *exactly* (up to floating-point
    /// association) the sum of `ln(m_t) - ln(m_f)` over those messages.
    /// That additive decomposition is what provenance reporting aggregates
    /// by constraint family.
    ///
    /// Must be called on the same `scratch` immediately after a solve of
    /// *this* graph with the same stamped extras — the read-out is a pure
    /// function of the message pairs and the extra index the solve
    /// persisted. Calling it against a stale or foreign scratch panics on a
    /// size mismatch rather than reading garbage.
    pub fn belief_terms(&self, var: VarId, scratch: &Scratch) -> Vec<BeliefTerm> {
        let v = var.0 as usize;
        assert!(v < self.n_vars, "belief_terms: unknown variable {var}");
        assert_eq!(
            scratch.x_off.len(),
            self.n_vars + 1,
            "belief_terms: scratch does not hold a solve of this graph"
        );
        let Scratch { fv, xm, x_off, x_idx, .. } = scratch;
        assert_eq!(
            fv.len(),
            2 * self.edge_var.len(),
            "belief_terms: message pairs do not match this graph (no solve?)"
        );
        let s0 = self.v_off[v] as usize;
        let s1 = self.v_off[v + 1] as usize;
        let mut out = Vec::with_capacity(s1 - s0);
        for slot in s0..s1 {
            let e = self.v_edges[slot] as usize;
            let log_odds = fv[2 * slot].ln() - fv[2 * slot + 1].ln();
            out.push(BeliefTerm::Factor { factor: self.edge_factor[e], log_odds });
        }
        for &x in &x_idx[x_off[v] as usize..x_off[v + 1] as usize] {
            let log_odds = xm[2 * x as usize].ln() - xm[2 * x as usize + 1].ln();
            out.push(BeliefTerm::Extra { index: x, log_odds });
        }
        out
    }

    /// The variables in factor `factor`'s scope, in scope order. Provenance
    /// reporting uses this to walk *through* equality-style factors from an
    /// annotation's variable to the upstream sources (protocol priors,
    /// stamped summaries) that fed it.
    pub fn factor_vars(&self, factor: u32) -> Vec<VarId> {
        let f = factor as usize;
        assert!(f + 1 < self.f_off.len(), "factor_vars: unknown factor {factor}");
        let e0 = self.f_off[f] as usize;
        let e1 = self.f_off[f + 1] as usize;
        self.edge_var[e0..e1].iter().map(|&v| VarId(v)).collect()
    }
}

/// One additive term of a variable's belief log-odds, attributed to its
/// source: a skeleton factor (by compile-order factor id) or a stamped
/// extra unary potential (by stamp index). See
/// [`CompiledGraph::belief_terms`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeliefTerm {
    /// The message from skeleton factor `factor` contributed `log_odds`.
    Factor {
        /// Factor id in graph insertion order.
        factor: u32,
        /// `ln(m_t) - ln(m_f)` of the final factor→variable message.
        log_odds: f64,
    },
    /// The stamped extra at stamp index `index` contributed `log_odds`.
    Extra {
        /// Index into the `extras` slice the solve was stamped with.
        index: u32,
        /// `ln(m_t) - ln(m_f)` of the extra's installed message.
        log_odds: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, Table};

    fn loopy_fixture() -> FactorGraph {
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..6).map(|_| g.add_var()).collect();
        g.add_factor(Factor::unary(xs[0], 0.9));
        g.add_factor(Factor::unary(xs[3], 0.2));
        for i in 0..6 {
            let a = xs[i];
            let b = xs[(i + 1) % 6];
            g.add_factor(Factor::soft(vec![a, b], 0.8, |v| v[0] == v[1]));
        }
        g.add_factor(Factor::soft(xs[..3].to_vec(), 0.9, |a| {
            a.iter().filter(|b| **b).count() == 1
        }));
        g
    }

    /// The factor→variable message by its definition: every table cell's
    /// potential times the incoming message of each other scope position
    /// at that cell's bit, summed into the target's lane, then normalized.
    fn by_definition(table: &[f64], pos: usize, ms: &[f64]) -> (f64, GuardEvents) {
        let mut lanes = [0.0f64; 2];
        for (idx, &pot) in table.iter().enumerate() {
            let mut w = pot;
            for (opos, &m) in ms.iter().enumerate() {
                if opos != pos {
                    w *= if idx >> opos & 1 == 1 { m } else { 1.0 - m };
                }
            }
            lanes[idx >> pos & 1] += w;
        }
        let mut ev = GuardEvents::default();
        (normalize(lanes[1], lanes[0], &mut ev), ev)
    }

    /// Every message of factor `fi`, as `factor_messages` emits them,
    /// normalized one by one so each carries its own guard events; indexed
    /// by scope position.
    fn all_messages(
        compiled: &CompiledGraph,
        fi: usize,
        local: &[f64],
        vals: &mut Vec<f64>,
    ) -> Vec<(f64, GuardEvents)> {
        let mut got = vec![None; local.len() / 2];
        compiled.factor_messages(fi, local, vals, |pos, p_t, p_f| {
            let mut ev = GuardEvents::default();
            let m = normalize(p_t, p_f, &mut ev);
            assert!(got[pos].replace((m, ev)).is_none(), "position {pos} emitted twice");
        });
        got.into_iter()
            .enumerate()
            .map(|(pos, m)| m.unwrap_or_else(|| panic!("position {pos} never emitted")))
            .collect()
    }

    #[test]
    fn contraction_matches_the_message_definition() {
        prng::forall("factor-contraction", 200, |rng| {
            let n = rng.gen_index(1..13);
            // Potentials and ordinary messages stay in [0.25, 1] so that one
            // extreme message times every other term remains a normal f64:
            // the comparison then measures summation order, not underflow.
            let pot = |rng: &mut prng::Rng| 0.25 + 0.75 * rng.gen_f64();
            let table: Vec<f64> = match rng.gen_index(0..3) {
                // Arbitrary potentials with zero cells.
                0 => (0..1 << n).map(|_| if rng.gen_bool(0.3) { 0.0 } else { pot(rng) }).collect(),
                // Two-valued, as `Factor::soft` builds them.
                1 => {
                    let (h, minority) = (pot(rng), rng.gen_f64());
                    (0..1 << n).map(|_| if rng.gen_bool(minority) { h } else { 1.0 - h }).collect()
                }
                // Mostly zero, as hard constraints build them.
                _ => (0..1 << n).map(|_| if rng.gen_bool(0.9) { 0.0 } else { pot(rng) }).collect(),
            };
            let mut ms: Vec<f64> = (0..n).map(|_| 0.25 + 0.5 * rng.gen_f64()).collect();
            if rng.gen_bool(0.5) {
                let at = rng.gen_index(0..n);
                ms[at] = *rng.pick(&[1e-300, 1.0 - 1e-16]);
            }
            let mut g = FactorGraph::new();
            let scope = (0..n).map(|_| g.add_var()).collect();
            g.add_factor(Factor::from_raw_parts(scope, table.clone()));
            let compiled = CompiledGraph::compile(&g);
            let mut local = vec![0.0; 2 * n];
            for (i, &m) in ms.iter().enumerate() {
                put(&mut local, i, m);
            }
            let got = all_messages(&compiled, 0, &local, &mut Vec::new());
            for (pos, (m, ev)) in got.into_iter().enumerate() {
                let (want_m, want_ev) = by_definition(&table, pos, &ms);
                assert!((m - want_m).abs() <= 1e-12, "n={n} pos={pos}: {m} vs {want_m}");
                assert_eq!(ev, want_ev, "n={n} pos={pos}");
            }
        });
    }

    /// The per-edge weakening table of the paper's Eq. 2 over a node's five
    /// kind variables and an edge's five (kinds ordered unique, full,
    /// immutable, share, pure): each kind the node holds must weaken to a
    /// kind the edge holds, unless the edge holds none.
    fn l1_split(h: f64) -> Arc<Table> {
        // Per node kind, the edge kinds it may weaken to, as a bit mask.
        const WEAKENS: [u32; 5] = [0b11111, 0b11110, 0b10100, 0b11000, 0b10000];
        Arc::new(Table::soft(10, h, |a| {
            let edge = (0..5).filter(|&j| a[5 + j]).fold(0, |m, j| m | 1 << j);
            edge == 0 || (0..5).all(|i| !a[i] || WEAKENS[i] & edge != 0)
        }))
    }

    #[test]
    fn shared_tables_share_one_program() {
        let (strong, weak) = (l1_split(0.98), l1_split(0.9));
        let build = || {
            let mut g = FactorGraph::new();
            let xs: Vec<_> = (0..15).map(|_| g.add_var()).collect();
            g.add_factor(Factor::new(xs[..10].to_vec(), Arc::clone(&strong)));
            g.add_factor(Factor::new(xs[5..].to_vec(), Arc::clone(&strong)));
            g.add_factor(Factor::new([&xs[..5], &xs[10..]].concat(), Arc::clone(&weak)));
            g
        };
        let g = build();
        let compiled = CompiledGraph::compile(&g);
        assert_eq!(compiled.programs.len(), 2, "one program per distinct table");
        assert_eq!(compiled.f_table, [0, 0, 1]);
        let folds = compiled.programs[0].folds.len();
        assert!(folds < 300, "the L1-split table takes {folds} folds");
        // A second graph over the same tables reuses their programs.
        let again = CompiledGraph::compile(&build());
        assert!(again.programs.iter().zip(&compiled.programs).all(|(a, b)| Arc::ptr_eq(a, b)));

        let mut rng = prng::Rng::new(16);
        let mut vals = Vec::new();
        for (fi, f) in g.factors().iter().enumerate() {
            let ms: Vec<f64> = (0..10).map(|_| 0.25 + 0.5 * rng.gen_f64()).collect();
            let mut local = vec![0.0; 20];
            for (i, &m) in ms.iter().enumerate() {
                put(&mut local, i, m);
            }
            let got = all_messages(&compiled, fi, &local, &mut vals);
            for (pos, (m, ev)) in got.into_iter().enumerate() {
                let (want_m, want_ev) = by_definition(f.table(), pos, &ms);
                assert!((m - want_m).abs() <= 1e-12, "factor {fi} pos {pos}: {m} vs {want_m}");
                assert_eq!(ev, want_ev, "factor {fi} pos {pos}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let opts = BpOptions { damping: 0.1, ..BpOptions::default() };
        let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
        let mut scratch = Scratch::new();
        // Dirty the scratch with a different solve first.
        let _ = compiled.solve_stamped_scratch(&[], &opts, &mut scratch);
        let reused = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
        let fresh = compiled.solve_stamped(&extras, &opts);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn sweep_preserves_symmetric_fixed_points() {
        // An evidence-free soft one-hot group: all members must stay at
        // their common symmetric marginal, bit for bit.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..4).map(|_| g.add_var()).collect();
        g.add_factor(Factor::soft(xs.clone(), 0.9, |a| a.iter().filter(|b| **b).count() == 1));
        let m = g.solve(&BpOptions::default());
        let p0 = m.prob(xs[0]);
        for &x in &xs {
            assert_eq!(m.prob(x).to_bits(), p0.to_bits(), "symmetry broken at {x}");
        }
    }

    #[test]
    fn belief_terms_sum_to_belief_log_odds() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
        let opts = BpOptions { damping: 0.1, ..BpOptions::default() };
        let mut scratch = Scratch::new();
        let m = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
        for v in 0..compiled.num_vars() {
            let b = m.prob(VarId(v as u32));
            let terms = compiled.belief_terms(VarId(v as u32), &scratch);
            let sum: f64 = terms
                .iter()
                .map(|t| match t {
                    BeliefTerm::Factor { log_odds, .. } | BeliefTerm::Extra { log_odds, .. } => {
                        *log_odds
                    }
                })
                .sum();
            let expected = (b / (1.0 - b)).ln();
            assert!(
                (sum - expected).abs() < 1e-9,
                "var {v}: terms sum {sum} vs belief log-odds {expected}"
            );
        }
        // Stamped variables carry an Extra term; others do not.
        let t1 = compiled.belief_terms(VarId(1), &scratch);
        assert!(t1.iter().any(|t| matches!(t, BeliefTerm::Extra { .. })));
        let t0 = compiled.belief_terms(VarId(0), &scratch);
        assert!(t0.iter().all(|t| matches!(t, BeliefTerm::Factor { .. })));
    }
}
