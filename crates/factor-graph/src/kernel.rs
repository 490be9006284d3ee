//! The flat-arena belief-propagation kernel.
//!
//! [`CompiledGraph`] lowers a [`FactorGraph`] into contiguous CSR arrays —
//! one edge per (factor, scope-position) pair, factor tables laid out flat
//! (each row padded to a 32-byte boundary), and a variable→edge adjacency
//! index — so the message-passing loops touch only dense scalar slices.
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
//! Message *storage* is generic over `BpPrecision`: `f64` (the default) or
//! opt-in `f32` — halved message bandwidth while every product,
//! normalization and damping step still **accumulates in `f64`** (only the
//! stored message is rounded).
//!
//! ## The factor message kernel
//!
//! Every factor→variable message, under both schedules and both semirings,
//! goes through one routine: the factor's table is copied into a scratch
//! buffer and contracted against the other incoming messages one scope
//! position at a time, each fold halving the buffer (see
//! `CompiledGraph::factor_message`; unary and pairwise factors fold
//! straight from the table, with the same arithmetic). A message from an
//! arity-`n` factor costs `O(2^(n+1))` multiply-adds, independent of how
//! many distinct values the table holds. The sum/max semiring is a const
//! parameter, so one branch-free loop serves both marginal
//! ([`CompiledGraph::solve`]) and MAP ([`CompiledGraph::solve_map`])
//! inference.
//!
//! The contraction sums in a different order than the historical
//! cell-by-cell walk, so marginals differ from that solver in the last few
//! bits (the `reference_parity` tests bound the drift at `1e-12` and
//! require identical iteration counts); the golden fixtures pin the
//! current bits.
//!
//! Two message schedules are provided (see [`BpSchedule`]):
//!
//! * **Sweep** — the classic synchronous two-phase sweep: every
//!   variable→factor message, then every factor→variable message, in a
//!   fixed order.
//! * **Residual** — residual belief propagation (Elidan et al., UAI 2006)
//!   on a bucketed coarse-residual queue; see the schedule notes below.
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
//! arrays — messages, candidates, residuals, the bucket queue — are then
//! recycled instead of reallocated per solve.
//!
//! ## The bucketed residual schedule
//!
//! The residual schedule orders pending factor→variable updates by a
//! *coarse* residual: edges whose pending change shares a power-of-two
//! magnitude land in the same bucket (the bucket index is read straight
//! off the residual's exponent bits), buckets are drained
//! largest-magnitude-first, and within a bucket edges keep FIFO order. A
//! drained bucket is applied as one **batch** — every message in it is
//! committed against the same pre-batch state, and only then are the
//! affected variable→factor messages and candidate residuals recomputed,
//! each exactly once per batch rather than once per push.
//!
//! Each bucket is an intrusive FIFO list threaded through per-edge
//! `next`/`prev` links ([`BucketQueue`]): an edge sits in at most one
//! bucket, so re-bucketing it is an O(1) unlink plus an append at the new
//! bucket's tail, and the queue never holds more than one entry per edge.
//! An edge whose residual changes *within* its current bucket keeps its
//! place; the live candidate is read from the side array at application
//! time.
//!
//! Batch application is what keeps the residual schedule's fixed points
//! aligned with the sweep's: an evidence-free soft one-hot subgraph (the
//! model's exactly-one-kind factor groups) is perfectly symmetric, and its
//! symmetric BP fixed point is *unstable* under one-edge-at-a-time
//! asynchronous updates — the first applied message tips the component
//! into an arbitrary asymmetric corner, manufacturing a confident marginal
//! out of no evidence (the previous heap-based schedule did exactly this;
//! see the cross-schedule agreement tests). Symmetric edges always carry
//! bit-equal residuals, therefore share a bucket, therefore commit in the
//! same batch against the same state — the symmetry is preserved
//! inductively and the schedule converges to the same symmetric fixed
//! point the sweep finds. The update order across buckets still differs
//! from a pure max-residual heap; it is fully deterministic, and the
//! resulting marginals are pinned by the `figure3_residual` golden
//! fixture.

use crate::factor::VarId;
use crate::graph::{BpOptions, BpPrecision, BpSchedule, FactorGraph, GuardEvents, Marginals};

/// One stored message element: `f64` for full-width numerics, `f32`
/// for the compact opt-in representation. Products, normalizations and
/// damping always run in `f64`; only the store rounds.
trait MsgElem: Copy + Send + Sync + 'static {
    /// Rounds an `f64` into the stored representation.
    fn enc(x: f64) -> Self;
    /// Widens the stored representation back to `f64`.
    fn dec(self) -> f64;
    /// The canonical uniform message.
    fn half() -> Self;
}

impl MsgElem for f64 {
    #[inline(always)]
    fn enc(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn dec(self) -> f64 {
        self
    }
    #[inline(always)]
    fn half() -> f64 {
        0.5
    }
}

impl MsgElem for f32 {
    #[inline(always)]
    fn enc(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn dec(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn half() -> f32 {
        0.5
    }
}

/// Factor tables are padded so each row starts on a 32-byte boundary (4
/// `f64`s). Pad entries are zero potentials, which both semirings already
/// skip; the message loops additionally slice rows to their exact
/// `1 << arity` length, so padding is value- and bit-neutral.
const TABLE_ALIGN: usize = 4;

/// A [`FactorGraph`] compiled into flat arena form.
///
/// Compilation is cheap (one linear pass) but not free; callers that solve
/// the same graph repeatedly — possibly with different stamped extras —
/// should compile once and reuse (and hand the solver a recycled
/// [`Scratch`]).
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    n_vars: usize,
    /// Per factor: half-open edge range `f_off[fi]..f_off[fi+1]`.
    f_off: Vec<u32>,
    /// Per factor: offset of its table row in `tables`. Rows start on a
    /// [`TABLE_ALIGN`] boundary; the live row is the first `1 << arity`
    /// entries, the rest (up to the next row) is zero padding.
    t_off: Vec<u32>,
    /// All factor tables, concatenated (aligned rows, zero padding).
    tables: Vec<f64>,
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

/// Reusable per-solve working memory: message pair arrays (one pool per
/// stored precision), the stamped-extra index, the factor-contraction
/// buffer, and the residual schedule's candidate/bucket state.
///
/// A `Scratch` may be reused across solves of *different* graphs — every
/// buffer is (re)sized and reinitialized at the start of each solve, so a
/// fresh `Scratch` and a recycled one produce bit-identical results, and a
/// solve that panics leaves no state behind that could poison the next
/// one.
#[derive(Debug, Default)]
pub struct Scratch {
    // Message pools, `(p, 1-p)` interleaved; only the pool matching
    // `BpOptions::precision` is touched by a given solve.
    fv64: Vec<f64>,
    vf64: Vec<f64>,
    x64: Vec<f64>,
    fv32: Vec<f32>,
    vf32: Vec<f32>,
    x32: Vec<f32>,
    // Stamped-extra index (`ExtraIndex` borrows these).
    ps: Vec<f64>,
    x_off: Vec<u32>,
    x_idx: Vec<u32>,
    // Factor-table contraction buffer (see `factor_message`).
    cells: Vec<f64>,
    // Residual schedule state.
    cand: Vec<f64>,
    resid: Vec<f64>,
    queue: BucketQueue,
    batch: Vec<u32>,
    affected_vars: Vec<u32>,
    changed_vf: Vec<u32>,
    touched: Vec<u32>,
    vmark: Vec<u8>,
    emark: Vec<u8>,
}

impl Scratch {
    /// A fresh, empty scratch. Buffers grow on first use and are retained
    /// across solves.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// Access to the per-precision message pools inside [`Scratch`]. The pools
/// are moved out for the duration of a solve (leaving empty `Vec`s behind)
/// and restored on completion, which keeps the borrow of the remaining
/// scratch fields independent.
trait MsgPool: MsgElem {
    fn take(s: &mut Scratch) -> (Vec<Self>, Vec<Self>, Vec<Self>);
    fn restore(s: &mut Scratch, fv: Vec<Self>, vf: Vec<Self>, x: Vec<Self>);
}

impl MsgPool for f64 {
    fn take(s: &mut Scratch) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (std::mem::take(&mut s.fv64), std::mem::take(&mut s.vf64), std::mem::take(&mut s.x64))
    }
    fn restore(s: &mut Scratch, fv: Vec<f64>, vf: Vec<f64>, x: Vec<f64>) {
        s.fv64 = fv;
        s.vf64 = vf;
        s.x64 = x;
    }
}

impl MsgPool for f32 {
    fn take(s: &mut Scratch) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (std::mem::take(&mut s.fv32), std::mem::take(&mut s.vf32), std::mem::take(&mut s.x32))
    }
    fn restore(s: &mut Scratch, fv: Vec<f32>, vf: Vec<f32>, x: Vec<f32>) {
        s.fv32 = fv;
        s.vf32 = vf;
        s.x32 = x;
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

/// Synchronous sweeps run before the residual schedule starts prioritizing
/// (see the warm-start note in the residual path).
const WARM_SWEEPS: usize = 2;

/// Residual buckets: bucket `b` holds residuals in `[2^-(b+1), 2^-b)`.
/// Bucket 0 additionally absorbs anything ≥ 0.5 and the last bucket
/// everything smaller than its lower edge (but still above tolerance).
const NUM_BUCKETS: usize = 48;

/// End-of-list marker for [`BucketQueue`] links.
const NIL: u32 = u32::MAX;

/// The residual schedule's pending edges: one intrusive FIFO list per
/// bucket, threaded through per-edge `next`/`prev` links, so the queue
/// holds at most one entry per edge whatever the churn.
#[derive(Debug, Default)]
struct BucketQueue {
    /// Per edge: `bucket + 1` while queued, 0 otherwise.
    at: Vec<u8>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per bucket: first and last queued edge, [`NIL`] when empty.
    head: Vec<u32>,
    tail: Vec<u32>,
}

impl BucketQueue {
    /// Empties the queue and sizes it for `ne` edges.
    fn reset(&mut self, ne: usize) {
        self.at.clear();
        self.at.resize(ne, 0);
        self.next.clear();
        self.next.resize(ne, NIL);
        self.prev.clear();
        self.prev.resize(ne, NIL);
        self.head.clear();
        self.head.resize(NUM_BUCKETS, NIL);
        self.tail.clear();
        self.tail.resize(NUM_BUCKETS, NIL);
    }

    /// Moves edge `e` to the tail of bucket `b` (`None` dequeues it). An
    /// edge already in `b` keeps its place.
    fn requeue(&mut self, e: u32, b: Option<usize>) {
        let eu = e as usize;
        let want = b.map_or(0, |b| b as u8 + 1);
        if self.at[eu] == want {
            return;
        }
        if self.at[eu] != 0 {
            let (p, n) = (self.prev[eu], self.next[eu]);
            let old = self.at[eu] as usize - 1;
            match p {
                NIL => self.head[old] = n,
                p => self.next[p as usize] = n,
            }
            match n {
                NIL => self.tail[old] = p,
                n => self.prev[n as usize] = p,
            }
        }
        self.at[eu] = want;
        if let Some(b) = b {
            let t = self.tail[b];
            self.prev[eu] = t;
            self.next[eu] = NIL;
            match t {
                NIL => self.head[b] = e,
                t => self.next[t as usize] = e,
            }
            self.tail[b] = e;
        }
    }

    /// The highest-magnitude non-empty bucket.
    fn first(&self) -> Option<usize> {
        self.head.iter().position(|&h| h != NIL)
    }

    /// Empties bucket `b` into `out`, in FIFO order.
    fn drain(&mut self, b: usize, out: &mut Vec<u32>) {
        let mut e = self.head[b];
        while e != NIL {
            out.push(e);
            self.at[e as usize] = 0;
            e = self.next[e as usize];
        }
        self.head[b] = NIL;
        self.tail[b] = NIL;
    }
}

/// The bucket of a non-negative residual, read straight off its exponent
/// bits — no logarithm, no magnitude branch. Zero and subnormals clamp
/// into the last bucket (they never enqueue in practice: enqueue is gated
/// on `resid >= tolerance`).
#[inline]
fn bucket_of(r: f64) -> usize {
    let exp = ((r.to_bits() >> 52) & 0x7ff) as i32;
    (1022 - exp).clamp(0, NUM_BUCKETS as i32 - 1) as usize
}

#[inline]
fn damp(old: f64, new: f64, d: f64) -> f64 {
    d * old + (1.0 - d) * new
}

/// The semiring addition: `max` for max-product (`MAX`), `+` otherwise.
#[inline(always)]
fn oplus<const MAX: bool>(a: f64, b: f64) -> f64 {
    if MAX {
        a.max(b)
    } else {
        a + b
    }
}

/// Whether the solve's wall-clock deadline (if any) has passed. Polled at
/// sweep/batch granularity only — never per message update.
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
fn put<S: MsgElem>(buf: &mut [S], i: usize, m: f64) {
    buf[2 * i] = S::enc(m);
    buf[2 * i + 1] = S::enc(1.0 - m);
}

/// Reads the `p(true)` half of the pair at slot `i`.
#[inline(always)]
fn get_t<S: MsgElem>(buf: &[S], i: usize) -> f64 {
    buf[2 * i].dec()
}

/// Resets a pair buffer to `n` uniform messages.
fn reset_pairs<S: MsgElem>(buf: &mut Vec<S>, n: usize) {
    buf.clear();
    buf.resize(2 * n, S::half());
}

impl CompiledGraph {
    /// Lowers a graph into arena form.
    pub fn compile(g: &FactorGraph) -> CompiledGraph {
        let n_vars = g.num_vars();
        let factors = g.factors();
        let n_edges: usize = factors.iter().map(|f| f.scope().len()).sum();
        let mut f_off = Vec::with_capacity(factors.len() + 1);
        let mut t_off = Vec::with_capacity(factors.len() + 1);
        let mut edge_var = Vec::with_capacity(n_edges);
        let mut edge_factor = Vec::with_capacity(n_edges);
        let mut tables = Vec::new();
        f_off.push(0u32);
        t_off.push(0u32);
        for (fi, f) in factors.iter().enumerate() {
            for v in f.scope() {
                edge_var.push(v.0);
                edge_factor.push(fi as u32);
            }
            tables.extend_from_slice(f.table());
            // Pad the row to the alignment boundary with zero potentials
            // (sliced off / skipped by every consumer), so the next row
            // starts aligned.
            while tables.len() % TABLE_ALIGN != 0 {
                tables.push(0.0);
            }
            f_off.push(edge_var.len() as u32);
            t_off.push(tables.len() as u32);
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
        CompiledGraph { n_vars, f_off, t_off, tables, edge_var, edge_factor, v_off, v_edges, vslot }
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

    /// Max-product inference (per-variable MAP beliefs).
    pub fn solve_map(&self, opts: &BpOptions) -> Marginals {
        self.solve_map_stamped(&[], opts)
    }

    /// Sum-product inference with extra unary potentials stamped onto the
    /// compiled skeleton. Equivalent — bit-for-bit under
    /// [`BpSchedule::Sweep`] with `BpPrecision::F64` — to appending
    /// `Factor::unary(var, p)` for each extra and solving the extended
    /// graph.
    pub fn solve_stamped(&self, extras: &[(VarId, f64)], opts: &BpOptions) -> Marginals {
        self.solve_stamped_scratch(extras, opts, &mut Scratch::new())
    }

    /// Max-product inference with stamped extras.
    pub fn solve_map_stamped(&self, extras: &[(VarId, f64)], opts: &BpOptions) -> Marginals {
        self.solve_map_stamped_scratch(extras, opts, &mut Scratch::new())
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
        match opts.precision {
            BpPrecision::F64 => self.run::<false, f64>(extras, opts, scratch),
            BpPrecision::F32 => self.run::<false, f32>(extras, opts, scratch),
        }
    }

    /// [`CompiledGraph::solve_map_stamped`] with caller-provided scratch.
    pub fn solve_map_stamped_scratch(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        match opts.precision {
            BpPrecision::F64 => self.run::<true, f64>(extras, opts, scratch),
            BpPrecision::F32 => self.run::<true, f32>(extras, opts, scratch),
        }
    }

    fn run<const MAX: bool, S: MsgPool>(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        match opts.schedule {
            BpSchedule::Sweep => self.sweep::<MAX, S>(extras, opts, scratch),
            BpSchedule::Residual => self.residual::<MAX, S>(extras, opts, scratch),
        }
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
    fn var_product<S: MsgElem>(
        &self,
        v: usize,
        skip: usize,
        fv: &[S],
        x_msg: &[S],
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
            p_t *= pair[0].dec();
            p_f *= pair[1].dec();
        }
        for &x in extras.of(v) {
            p_t *= x_msg[2 * x as usize].dec();
            p_f *= x_msg[2 * x as usize + 1].dec();
        }
        (p_t, p_f)
    }

    /// The synchronous two-phase sweep schedule.
    fn sweep<const MAX: bool, S: MsgPool>(
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

        let (mut fv, mut vf, mut xm) = S::take(scratch);
        reset_pairs(&mut fv, ne);
        reset_pairs(&mut vf, ne);
        reset_pairs(&mut xm, nx);
        let Scratch { ps, x_off, x_idx, cells, .. } = scratch;
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
                    let (p_t, p_f) = self.var_product(v, j, &fv, &xm, &extras);
                    let new = normalize(p_t, p_f, &mut ev);
                    let old = get_t(&vf, e as usize);
                    put(&mut vf, e as usize, damp(old, new, d));
                }
            }

            // Factor → variable messages.
            for fi in 0..nf {
                let e0 = self.f_off[fi] as usize;
                let e1 = self.f_off[fi + 1] as usize;
                for pos in 0..(e1 - e0) {
                    let local = &vf[2 * e0..2 * e1];
                    let new = self.factor_message::<MAX, S>(fi, pos, local, cells, &mut ev);
                    let slot = self.vslot[e0 + pos] as usize;
                    let old = get_t(&fv, slot);
                    put(&mut fv, slot, damp(old, new, d));
                }
            }
            // Stamped extras behave as unary factors appended after every
            // skeleton factor: constant normalized message, damped in.
            for (x, &p) in extras.ps.iter().enumerate() {
                let new = normalize(p, 1.0 - p, &mut ev);
                let old = get_t(&xm, x);
                put(&mut xm, x, damp(old, new, d));
            }
            updates += ne + nx;

            // Beliefs and convergence.
            let mut max_delta = 0.0f64;
            for (v, belief) in beliefs.iter_mut().enumerate() {
                let (p_t, p_f) = self.var_product(v, usize::MAX, &fv, &xm, &extras);
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

        S::restore(scratch, fv, vf, xm);
        Marginals {
            probs: beliefs,
            iterations,
            converged,
            updates,
            guards: ev,
            deadline_expired,
            bucket_batches: Vec::new(),
        }
    }

    /// The variable→factor message for edge `e`, computed on demand from
    /// the current factor→variable messages (asynchronous form).
    fn vf_message<S: MsgElem>(
        &self,
        e: usize,
        fv: &[S],
        x_msg: &[S],
        extras: &ExtraIndex<'_>,
        ev: &mut GuardEvents,
    ) -> f64 {
        let v = self.edge_var[e] as usize;
        let j = (self.vslot[e] - self.v_off[v]) as usize;
        let (p_t, p_f) = self.var_product(v, j, fv, x_msg, extras);
        normalize(p_t, p_f, ev)
    }

    /// The damped candidate update for factor→variable message `e`, read
    /// from a cache of current variable→factor messages (`vf` pair slot `o`
    /// must hold [`CompiledGraph::vf_message`] of `o` for every edge `o` of
    /// `e`'s factor).
    fn candidate_cached<const MAX: bool, S: MsgElem>(
        &self,
        e: usize,
        fv: &[S],
        vf: &[S],
        d: f64,
        cells: &mut Vec<f64>,
        ev: &mut GuardEvents,
    ) -> f64 {
        let fi = self.edge_factor[e] as usize;
        let e0 = self.f_off[fi] as usize;
        let e1 = self.f_off[fi + 1] as usize;
        let new = self.factor_message::<MAX, S>(fi, e - e0, &vf[2 * e0..2 * e1], cells, ev);
        damp(get_t(fv, self.vslot[e] as usize), new, d)
    }

    /// One factor→variable message for factor `fi`, target scope position
    /// `pos`, reading the incoming variable→factor messages from a
    /// factor-local *pair* slice (pair `opos` for scope position `opos`).
    ///
    /// The message is the factor table contracted against every other
    /// incoming message, one scope position at a time, in the `cells`
    /// buffer. Bit `opos` of a table index is the value of scope position
    /// `opos`, so folding away the top position pairs cell `j` with cell
    /// `j + half`; positions above `pos` fold that way from the top down,
    /// then positions below `pos` fold adjacent pairs `(2j, 2j + 1)` from
    /// the bottom up. Each fold computes `c0·m(0) ⊕ c1·m(1)`, with `⊕` the
    /// semiring's addition: `+` for sum-product, `max` for max-product
    /// (`MAX`). The two cells left are the target's `(false, true)` mass.
    ///
    /// The folds halve the buffer each time, so a message costs
    /// `O(2^(n+1))` multiply-adds instead of the `O(n·2^n)` of walking
    /// every cell with an `n`-long product. Zero-potential cells need no
    /// special case: their products are exactly `+0.0`, which neither
    /// `+` nor `max` over non-negative terms can see.
    ///
    /// Unary and pairwise factors, most of a model's factors, skip the
    /// buffer and fold straight from the table. That is the same arithmetic,
    /// so the same bits, and it measured ~11% faster end to end at paper
    /// scale.
    #[inline]
    fn factor_message<const MAX: bool, S: MsgElem>(
        &self,
        fi: usize,
        pos: usize,
        local: &[S],
        cells: &mut Vec<f64>,
        ev: &mut GuardEvents,
    ) -> f64 {
        let n = local.len() / 2;
        let table = &self.tables[self.t_off[fi] as usize..][..1 << n];
        match n {
            1 => return normalize(table[1], table[0], ev),
            2 => {
                let (o, t) = (1 - pos, 1 << pos);
                let (m1, m0) = (local[2 * o].dec(), local[2 * o + 1].dec());
                let fold = |c: usize| oplus::<MAX>(table[c] * m0, table[c + (1 << o)] * m1);
                return normalize(fold(t), fold(0), ev);
            }
            _ => {}
        }
        cells.clear();
        cells.extend_from_slice(table);
        let mut len = cells.len();
        for opos in (pos + 1..n).rev() {
            len /= 2;
            let (m1, m0) = (local[2 * opos].dec(), local[2 * opos + 1].dec());
            let (lo, hi) = cells[..2 * len].split_at_mut(len);
            for (c0, &c1) in lo.iter_mut().zip(hi.iter()) {
                *c0 = oplus::<MAX>(*c0 * m0, c1 * m1);
            }
        }
        for opos in 0..pos {
            len /= 2;
            let (m1, m0) = (local[2 * opos].dec(), local[2 * opos + 1].dec());
            let c = &mut cells[..2 * len];
            for j in 0..len {
                c[j] = oplus::<MAX>(c[2 * j] * m0, c[2 * j + 1] * m1);
            }
        }
        normalize(cells[1], cells[0], ev)
    }

    /// Residual-prioritized belief propagation on the bucketed batch queue
    /// (see the module notes on the schedule's design and determinism).
    ///
    /// `max_iterations` bounds the *sweep-equivalent* work: the update
    /// budget is `max_iterations * num_edges`, so a `BpOptions` tuned for
    /// the sweep schedule spends at most comparable effort here.
    fn residual<const MAX: bool, S: MsgPool>(
        &self,
        extras_in: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        let ne = self.edge_var.len();
        let d = opts.damping;
        let mut ev = GuardEvents::default();

        let (mut fv, mut vf, mut xm) = S::take(scratch);
        reset_pairs(&mut fv, ne);
        reset_pairs(&mut vf, ne);
        // Extras are constant under the asynchronous schedule: install
        // their normalized value up front.
        xm.clear();
        xm.reserve(2 * extras_in.len());
        for &(_, p) in extras_in {
            let m = normalize(p, 1.0 - p, &mut ev);
            xm.push(S::enc(m));
            xm.push(S::enc(1.0 - m));
        }
        let Scratch {
            ps,
            x_off,
            x_idx,
            cells,
            cand,
            resid,
            queue,
            batch,
            affected_vars,
            changed_vf,
            touched,
            vmark,
            emark,
            ..
        } = scratch;
        let extras = ExtraIndex::build(self.n_vars, extras_in, ps, x_off, x_idx);

        let budget = opts
            .max_iterations
            .saturating_mul(ne.max(1))
            .min(opts.update_budget.unwrap_or(usize::MAX));
        let mut updates = 0usize;
        let mut deadline_expired = false;
        // Per-bucket batch counts, collected only on request
        // (`BpOptions::bucket_stats`): purely observational, never read by
        // the schedule itself.
        let mut bucket_batches: Vec<u32> =
            if opts.bucket_stats { vec![0; NUM_BUCKETS] } else { Vec::new() };

        // Warm start: a few synchronous (Jacobi) sweeps before any
        // prioritization, so all evidence propagates one hop before the
        // first greedy choice. The batch schedule already preserves
        // symmetric fixed points on its own; the warm sweeps additionally
        // keep early update counts comparable with the sweep schedule and
        // seed the residuals with informative values.
        for _ in 0..WARM_SWEEPS.min(opts.max_iterations) {
            if updates >= budget {
                break;
            }
            if deadline_passed(opts) {
                deadline_expired = true;
                break;
            }
            for e in 0..ne {
                let m = self.vf_message(e, &fv, &xm, &extras, &mut ev);
                put(&mut vf, e, m);
            }
            // In-place is still Jacobi here: the factor message reads only
            // `vf`, and each edge's `fv` slot is read (for damping) only by
            // its own candidate.
            for e in 0..ne {
                let c = self.candidate_cached::<MAX, S>(e, &fv, &vf, d, cells, &mut ev);
                put(&mut fv, self.vslot[e] as usize, c);
            }
            updates += ne;
        }

        // Live cached state: `vf[o]` is the variable→factor message along
        // `o`; `cand[e]`/`resid[e]` are the pending damped update of
        // factor→variable message `e` and its residual; `queue` holds every
        // edge whose residual is at or above tolerance.
        for e in 0..ne {
            let m = self.vf_message(e, &fv, &xm, &extras, &mut ev);
            put(&mut vf, e, m);
        }
        cand.clear();
        cand.resize(ne, 0.0);
        resid.clear();
        resid.resize(ne, 0.0);
        queue.reset(ne);
        vmark.clear();
        vmark.resize(self.n_vars, 0);
        emark.clear();
        emark.resize(ne, 0);
        for e in 0..ne {
            cand[e] = self.candidate_cached::<MAX, S>(e, &fv, &vf, d, cells, &mut ev);
            resid[e] = (cand[e] - get_t(&fv, self.vslot[e] as usize)).abs();
            if resid[e] >= opts.tolerance {
                queue.requeue(e as u32, Some(bucket_of(resid[e])));
            }
        }

        let mut converged = true;
        // Highest-magnitude non-empty bucket; entirely drained as one
        // batch.
        'solve: while let Some(b) = queue.first() {
            // Deadline polled once per batch: a batch is at most `ne`
            // updates, the same granularity as a sweep-schedule iteration.
            if deadline_expired || deadline_passed(opts) {
                deadline_expired = true;
                converged = false;
                break;
            }
            batch.clear();
            queue.drain(b, batch);
            if opts.bucket_stats {
                bucket_batches[b] += 1;
            }

            // Phase 1: commit the whole batch against the pre-batch state.
            // Bit-equal residuals (symmetric edges) share a bucket, so they
            // are always applied together from identical inputs.
            for &e in batch.iter() {
                if updates >= budget {
                    converged = false;
                    break 'solve;
                }
                let eu = e as usize;
                put(&mut fv, self.vslot[eu] as usize, cand[eu]);
                resid[eu] = 0.0;
                updates += 1;
            }

            // Phase 2: recompute the variable→factor messages of every
            // variable the batch touched — once per variable, not once per
            // applied edge — and remember which ones actually changed.
            affected_vars.clear();
            for &e in batch.iter() {
                let v = self.edge_var[e as usize];
                if vmark[v as usize] == 0 {
                    vmark[v as usize] = 1;
                    affected_vars.push(v);
                }
            }
            changed_vf.clear();
            for &v in affected_vars.iter() {
                for &o in self.var_edges(v as usize) {
                    let m = self.vf_message(o as usize, &fv, &xm, &extras, &mut ev);
                    if S::enc(m).dec() != get_t(&vf, o as usize) {
                        put(&mut vf, o as usize, m);
                        changed_vf.push(o);
                    }
                }
            }

            // Phase 3: recompute each candidate the batch invalidated,
            // exactly once — the applied edges themselves (their damping
            // base moved) and the co-scope edges of every changed
            // variable→factor message.
            touched.clear();
            for &e in batch.iter() {
                if emark[e as usize] == 0 {
                    emark[e as usize] = 1;
                    touched.push(e);
                }
            }
            for &o in changed_vf.iter() {
                let f2 = self.edge_factor[o as usize] as usize;
                for e3 in self.f_off[f2]..self.f_off[f2 + 1] {
                    if e3 != o && emark[e3 as usize] == 0 {
                        emark[e3 as usize] = 1;
                        touched.push(e3);
                    }
                }
            }
            for &e3 in touched.iter() {
                let eu = e3 as usize;
                cand[eu] = self.candidate_cached::<MAX, S>(eu, &fv, &vf, d, cells, &mut ev);
                let r = (cand[eu] - get_t(&fv, self.vslot[eu] as usize)).abs();
                resid[eu] = r;
                // Same bucket → the edge keeps its place; new bucket → it
                // moves to that bucket's tail; below tolerance → dequeued.
                queue.requeue(e3, (r >= opts.tolerance).then(|| bucket_of(r)));
            }
            for &v in affected_vars.iter() {
                vmark[v as usize] = 0;
            }
            for &e in touched.iter() {
                emark[e as usize] = 0;
            }
        }

        let mut beliefs = vec![0.5f64; self.n_vars];
        for (v, belief) in beliefs.iter_mut().enumerate() {
            let (p_t, p_f) = self.var_product(v, usize::MAX, &fv, &xm, &extras);
            *belief = normalize(p_t, p_f, &mut ev);
        }
        let iterations = updates.div_ceil(ne.max(1)).max(1);
        S::restore(scratch, fv, vf, xm);
        Marginals {
            probs: beliefs,
            iterations,
            converged,
            updates,
            guards: ev,
            deadline_expired,
            bucket_batches,
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
    /// *this* graph with the same `precision` and the same stamped extras —
    /// the read-out is a pure function of the message pools and the extra
    /// index the solve persisted. Calling it against a stale or foreign
    /// scratch panics on a size mismatch rather than reading garbage.
    pub fn belief_terms(
        &self,
        var: VarId,
        precision: BpPrecision,
        scratch: &Scratch,
    ) -> Vec<BeliefTerm> {
        let v = var.0 as usize;
        assert!(v < self.n_vars, "belief_terms: unknown variable {var}");
        assert_eq!(
            scratch.x_off.len(),
            self.n_vars + 1,
            "belief_terms: scratch does not hold a solve of this graph"
        );
        match precision {
            BpPrecision::F64 => {
                self.belief_terms_from::<f64>(v, &scratch.fv64, &scratch.x64, scratch)
            }
            BpPrecision::F32 => {
                self.belief_terms_from::<f32>(v, &scratch.fv32, &scratch.x32, scratch)
            }
        }
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

    fn belief_terms_from<S: MsgElem>(
        &self,
        v: usize,
        fv: &[S],
        xm: &[S],
        scratch: &Scratch,
    ) -> Vec<BeliefTerm> {
        assert_eq!(
            fv.len(),
            2 * self.edge_var.len(),
            "belief_terms: message pool does not match this graph (wrong precision or no solve?)"
        );
        let s0 = self.v_off[v] as usize;
        let s1 = self.v_off[v + 1] as usize;
        let mut out = Vec::with_capacity(s1 - s0);
        for slot in s0..s1 {
            let e = self.v_edges[slot] as usize;
            let log_odds = fv[2 * slot].dec().ln() - fv[2 * slot + 1].dec().ln();
            out.push(BeliefTerm::Factor { factor: self.edge_factor[e], log_odds });
        }
        let x0 = scratch.x_off[v] as usize;
        let x1 = scratch.x_off[v + 1] as usize;
        for &x in &scratch.x_idx[x0..x1] {
            let log_odds = xm[2 * x as usize].dec().ln() - xm[2 * x as usize + 1].dec().ln();
            out.push(BeliefTerm::Extra { index: x, log_odds });
        }
        out
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
    use crate::factor::Factor;

    #[test]
    fn bucket_of_maps_magnitude_ranges() {
        assert_eq!(bucket_of(0.75), 0);
        assert_eq!(bucket_of(0.5), 0);
        assert_eq!(bucket_of(2.0), 0); // ≥ 0.5 clamps up
        assert_eq!(bucket_of(0.49), 1);
        assert_eq!(bucket_of(0.25), 1);
        assert_eq!(bucket_of(0.125), 2);
        assert_eq!(bucket_of(1e-300), NUM_BUCKETS - 1); // tiny clamps down
        assert_eq!(bucket_of(0.0), NUM_BUCKETS - 1);
    }

    fn loopy_fixture() -> FactorGraph {
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..6).map(|i| g.add_var(format!("x{i}"))).collect();
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
    /// at that cell's bit, accumulated (`+` or `max`) into the target's
    /// lane, then normalized.
    fn by_definition<const MAX: bool>(table: &[f64], pos: usize, ms: &[f64]) -> (f64, GuardEvents) {
        let mut lanes = [0.0f64; 2];
        for (idx, &pot) in table.iter().enumerate() {
            let mut w = pot;
            for (opos, &m) in ms.iter().enumerate() {
                if opos != pos {
                    w *= if idx >> opos & 1 == 1 { m } else { 1.0 - m };
                }
            }
            let lane = &mut lanes[idx >> pos & 1];
            *lane = oplus::<MAX>(*lane, w);
        }
        let mut ev = GuardEvents::default();
        (normalize(lanes[1], lanes[0], &mut ev), ev)
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
            let scope = (0..n).map(|i| g.add_var(format!("x{i}"))).collect();
            g.add_factor(Factor::from_raw_parts(scope, table.clone()));
            let compiled = CompiledGraph::compile(&g);
            let mut local = vec![0.0; 2 * n];
            for (i, &m) in ms.iter().enumerate() {
                put(&mut local, i, m);
            }
            let mut cells = Vec::new();
            for pos in 0..n {
                let mut ev = [GuardEvents::default(); 2];
                let got = [
                    compiled.factor_message::<false, f64>(0, pos, &local, &mut cells, &mut ev[0]),
                    compiled.factor_message::<true, f64>(0, pos, &local, &mut cells, &mut ev[1]),
                ];
                let want = [
                    by_definition::<false>(&table, pos, &ms),
                    by_definition::<true>(&table, pos, &ms),
                ];
                for ((m, ev), (want_m, want_ev)) in got.into_iter().zip(ev).zip(want) {
                    assert!((m - want_m).abs() <= 1e-12, "n={n} pos={pos}: {m} vs {want_m}");
                    assert_eq!(ev, want_ev, "n={n} pos={pos}");
                }
            }
        });
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let opts = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
            let mut scratch = Scratch::new();
            // Dirty the scratch with a different solve first.
            let _ = compiled.solve_stamped_scratch(&[], &opts, &mut scratch);
            let reused = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
            let fresh = compiled.solve_stamped(&extras, &opts);
            assert_eq!(reused, fresh, "{schedule}");
        }
    }

    #[test]
    fn f32_precision_tracks_f64_closely() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let o64 = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let o32 = BpOptions { precision: BpPrecision::F32, ..o64 };
            let m64 = compiled.solve(&o64);
            let m32 = compiled.solve(&o32);
            for (a, b) in m64.as_slice().iter().zip(m32.as_slice()) {
                assert!((a - b).abs() < 1e-4, "{schedule}: f64 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn residual_batches_preserve_symmetric_fixed_points() {
        // An evidence-free soft one-hot group: all members must stay at
        // their common symmetric marginal instead of being tipped into an
        // arbitrary corner by asynchronous update order.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..4).map(|i| g.add_var(format!("k{i}"))).collect();
        g.add_factor(Factor::soft(xs.clone(), 0.9, |a| a.iter().filter(|b| **b).count() == 1));
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let m = g.solve(&BpOptions { schedule, ..BpOptions::default() });
            let p0 = m.prob(xs[0]);
            for &x in &xs {
                assert_eq!(m.prob(x).to_bits(), p0.to_bits(), "{schedule}: symmetry broken at {x}");
            }
        }
        // And the two schedules agree with each other.
        let sweep = g.solve(&BpOptions::default());
        let residual =
            g.solve(&BpOptions { schedule: BpSchedule::Residual, ..BpOptions::default() });
        for (a, b) in sweep.as_slice().iter().zip(residual.as_slice()) {
            assert!((a - b).abs() < 1e-4, "sweep {a} vs residual {b}");
        }
    }

    #[test]
    fn belief_terms_sum_to_belief_log_odds() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let opts = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let mut scratch = Scratch::new();
            let m = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
            for v in 0..compiled.num_vars() {
                let b = m.prob(VarId(v as u32));
                let terms = compiled.belief_terms(VarId(v as u32), opts.precision, &scratch);
                let sum: f64 = terms
                    .iter()
                    .map(|t| match t {
                        BeliefTerm::Factor { log_odds, .. }
                        | BeliefTerm::Extra { log_odds, .. } => *log_odds,
                    })
                    .sum();
                let expected = (b / (1.0 - b)).ln();
                assert!(
                    (sum - expected).abs() < 1e-9,
                    "{schedule} var {v}: terms sum {sum} vs belief log-odds {expected}"
                );
            }
            // Stamped variables carry an Extra term; others do not.
            let t1 = compiled.belief_terms(VarId(1), opts.precision, &scratch);
            assert!(t1.iter().any(|t| matches!(t, BeliefTerm::Extra { .. })), "{schedule}");
            let t0 = compiled.belief_terms(VarId(0), opts.precision, &scratch);
            assert!(t0.iter().all(|t| matches!(t, BeliefTerm::Factor { .. })), "{schedule}");
        }
    }

    #[test]
    fn bucket_stats_are_observational_only() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let base = BpOptions { schedule: BpSchedule::Residual, ..BpOptions::default() };
        let plain = compiled.solve(&base);
        let counted = compiled.solve(&BpOptions { bucket_stats: true, ..base });
        assert!(plain.bucket_batches.is_empty(), "disabled path must not allocate counts");
        assert_eq!(counted.bucket_batches.len(), NUM_BUCKETS);
        assert!(counted.bucket_batches.iter().any(|&c| c > 0), "residual solve drained no batch?");
        // Counting never perturbs the solve itself.
        for (a, b) in plain.as_slice().iter().zip(counted.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.updates, counted.updates);
        // The sweep schedule has no buckets: counts stay empty even when
        // requested.
        let sweep = compiled.solve(&BpOptions { bucket_stats: true, ..BpOptions::default() });
        assert!(sweep.bucket_batches.is_empty());
    }
}
