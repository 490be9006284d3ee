//! The modular `ANEK-INFER` worklist algorithm (paper Figure 9).
//!
//! Each method gets a probabilistic model built from its PFG; models are
//! solved method by method, publishing *probabilistic summaries* that
//! callers consume as evidence. The loop runs for at most `MaxIters` model
//! solves — a fixpoint is deliberately not required ("another source of
//! approximation", §3.4) — and finally thresholds the summaries into
//! deterministic specifications.
//!
//! ## Parallelism and determinism
//!
//! The worklist drains in *generations*, and each generation commits in
//! *chunks* of a few multiples of the thread count: a chunk's methods are
//! solved *speculatively* against a frozen snapshot of the
//! summaries/evidence maps — concurrently on `InferConfig::threads` scoped
//! threads, the merge thread participating as a worker — and the results
//! are then merged single-threaded, in the chunk's deterministic order. A
//! speculative result is committed only if none of the merges before it in
//! the chunk changed the method's inputs — its program-callee summaries or
//! its own caller-evidence store. If they did, the stale speculation is
//! discarded and the method is re-solved inline against the merged state.
//! A method's marginals are a pure function of exactly those inputs (the
//! skeleton is immutable, stamping reads only callee summaries and own
//! evidence, and BP is deterministic), so the committed sequence of solves
//! is precisely the one the classic sequential worklist performs — the
//! final specs, summaries and confidence are byte-identical for every
//! `threads` value, including `1` (which skips speculation entirely and
//! degenerates to plain sequential Gauss-Seidel with zero wasted work).
//!
//! A chunk never holds two methods joined by a call edge: it ends after a
//! few multiples of the thread count, or just before the first method that
//! calls, or is called by, a method already in it. A merge changes only
//! two inputs of other methods — the merged method's own summary, read by
//! its callers, and its callees' evidence stores — so within such a chunk
//! no merge can invalidate a later speculation, and none is discarded. The
//! freshness check stays as the guard: a dependency that bypassed the call
//! maps would still be re-solved, and counted in
//! [`InferResult::discarded_solves`]. Speculative work is surfaced in
//! [`InferResult::speculative_solves`], and the time the merge thread spends
//! blocked on its workers in [`InferResult::commit_stall`].
//!
//! Every worker owns one long-lived BP [`Scratch`] (as does the merge
//! thread), so message arrays are recycled across all the solves of a run
//! instead of reallocated per solve.
//!
//! Each method's static model skeleton (variables, L1–L3, heuristics,
//! own-spec and API priors) is built and compiled once, lazily at its first
//! solve; every re-solve only re-derives the dynamic unary priors
//! (`MethodSkeleton::stamp`), so the per-iteration cost is message passing,
//! not model construction.

use crate::config::InferConfig;
use crate::memo::{self, CacheKey, InferCache, KeyHasher, SolvedRecord};
use crate::model::{CallerEvidence, MethodSkeleton, ModelCtx};
use crate::outcome::{panic_message, DegradeReason, InferError, MethodOutcome};
use crate::summary::{MethodSummary, SlotProbs};
use analysis::pfg::{Pfg, PfgNodeKind};
use analysis::types::{Callee, MethodId, ProgramIndex};
use factor_graph::{GuardEvents, Scratch};
use java_syntax::ast::CompilationUnit;
use java_syntax::ExprId;
use spec_lang::{
    spec_of_method, ApiRegistry, MethodSpec, PermissionKind, SpecTarget, StateRegistry, StateSpace,
};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One completed model solve (see [`SolvedRecord`]) plus, when a cache is
/// attached, the content key it is addressed by and whether it was replayed
/// from the cache instead of computed.
#[derive(Debug, Clone)]
struct Solved {
    record: SolvedRecord,
    cache: Option<(CacheKey, bool)>,
    /// True when the solve stopped because `BpOptions::deadline` passed.
    /// Kept outside [`SolvedRecord`] on purpose: deadline truncation is
    /// timing-dependent, so such a record must never enter the store (the
    /// commit loop clears `cache` for it), and the store codec stays
    /// unchanged.
    deadline_expired: bool,
}

/// Health of a method's last *committed* solve, feeding outcome
/// classification after the worklist drains.
#[derive(Debug, Clone, Copy)]
struct SolveHealth {
    converged: bool,
    iterations: usize,
    guards: GuardEvents,
    deadline_expired: bool,
}

/// A solve either completes (possibly with degradations recorded in its
/// health fields) or fails with a structured error. Panics anywhere in the
/// solve — skeleton build, stamping, message passing, read-out — are caught
/// at this boundary and never cross a method.
type SolveResult = Result<Solved, InferError>;

/// The output of [`infer`].
#[derive(Debug, Clone)]
pub struct InferResult {
    /// Thresholded deterministic specifications per method.
    pub specs: BTreeMap<MethodId, MethodSpec>,
    /// The final probabilistic summaries.
    pub summaries: BTreeMap<MethodId, MethodSummary>,
    /// Confidence of each extracted spec (smallest chosen-atom marginal).
    pub confidence: BTreeMap<MethodId, f64>,
    /// Number of per-method model solves performed.
    pub solves: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Methods that had a hand-written spec already (their atoms acted as
    /// priors).
    pub pre_annotated: BTreeSet<MethodId>,
    /// Total BP sweeps across all solves.
    pub bp_iterations: usize,
    /// Total BP message updates across all solves.
    pub message_updates: usize,
    /// Speculative parallel solves discarded because an earlier merge in
    /// the same chunk changed their inputs (always 0 single-threaded;
    /// the committed results are identical regardless). Not counted in
    /// `solves`/`bp_iterations`/`message_updates`, which describe the
    /// sequential algorithm's work.
    pub discarded_solves: usize,
    /// Solves attempted speculatively on the parallel path (always 0
    /// single-threaded). `discarded_solves / speculative_solves` is the
    /// waste ratio of the speculation; the difference is the solves the
    /// merge loop got for free.
    pub speculative_solves: usize,
    /// Wall-clock time the merge thread spent blocked waiting for workers
    /// to finish a speculation chunk after exhausting its own share of the
    /// work (always zero single-threaded). The directly measurable cost of
    /// commit serialization. This is the *only* timing-valued speculation
    /// metric — the deterministic counts live in
    /// [`InferResult::speculated_chunks`] / [`InferResult::stalled_chunks`],
    /// so trace artifacts never carry a wall-clock reading.
    pub commit_stall: Duration,
    /// Worklist chunks that ran the speculative parallel path (always 0
    /// single-threaded). Deterministic for a fixed thread count.
    pub speculated_chunks: usize,
    /// Speculated chunks in which at least one speculation was discarded
    /// as stale — the deterministic count of commit-pipeline stall events
    /// (the wall-clock side lives in [`InferResult::commit_stall`]).
    pub stalled_chunks: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Per-method outcome: `Ok`, `Degraded { reasons }` or
    /// `Failed { error }` (see [`crate::outcome`]). Deterministic for any
    /// thread count, like everything else here.
    pub outcomes: BTreeMap<MethodId, MethodOutcome>,
    /// Committed solves whose BP hit the iteration cap (or update budget)
    /// without reaching the convergence tolerance.
    pub nonconverged_solves: usize,
    /// Total numeric-guard clamps across all committed solves (NaN,
    /// infinite or zero-sum message mass absorbed by the kernel).
    pub numeric_guard_events: usize,
    /// Committed solves replayed from an attached [`InferCache`] (always 0
    /// without one). Deterministic for any thread count: lookups are
    /// accounted at the sequential commit point.
    pub memo_hits: usize,
    /// Committed successful solves that ran belief propagation because the
    /// attached cache had no record for their inputs (0 without a cache).
    /// Warm incremental runs re-solve exactly the dirty cone, so this is
    /// the "methods actually re-analyzed" metric the tests assert shrinks.
    pub memo_misses: usize,
    /// The program call graph over analyzable methods: callee → callers.
    /// `anek serve` closes an edit's dirty cone over it.
    pub callers: BTreeMap<MethodId, BTreeSet<MethodId>>,
    /// Methods skipped by the bit-vector screening pre-pass
    /// (`InferConfig::screen`): provably protocol-conformant and isolated
    /// in the call graph, so no model was built for them. Always 0 with
    /// screening off. Their outcome is [`MethodOutcome::Screened`].
    pub screened_methods: usize,
    /// Whether `BpOptions::deadline` expired during this run — either
    /// inside a solve (truncating it) or between chunks (stopping the
    /// worklist early). Always `false` without a deadline; when `true`,
    /// the affected methods carry [`DegradeReason::DeadlineExpired`] and
    /// nothing deadline-truncated was written to the cache.
    pub deadline_hit: bool,
    /// Committed solves whose BP was truncated by the wall-clock deadline.
    pub deadline_truncated_solves: usize,
    /// The final caller-side evidence store: callee → (caller, call-site) →
    /// observed marginals. Together with [`InferResult::summaries`] this is
    /// the exact dynamic input a re-solve of any method consumes, which is
    /// what [`crate::explain_method`] replays to attribute a spec atom to
    /// its factors.
    pub call_evidence: BTreeMap<MethodId, BTreeMap<(MethodId, ExprId), CallerEvidence>>,
    /// The deterministic structured trace, present iff `InferConfig::trace`
    /// (see [`observe::Trace`] for the determinism contract per section).
    pub trace: Option<observe::Trace>,
}

impl InferResult {
    /// Count of non-empty inferred specifications.
    pub fn annotation_count(&self) -> usize {
        self.specs.values().filter(|s| !s.is_empty()).count()
    }

    /// Methods whose outcome is `Degraded`.
    pub fn degraded_count(&self) -> usize {
        self.outcomes.values().filter(|o| o.is_degraded()).count()
    }

    /// Methods whose outcome is `Failed`.
    pub fn failed_count(&self) -> usize {
        self.outcomes.values().filter(|o| o.is_failed()).count()
    }

    /// Whether every method ended `Ok`.
    pub fn fully_ok(&self) -> bool {
        self.outcomes.values().all(MethodOutcome::is_ok)
    }

    /// The deterministic per-method outcome table
    /// (see [`crate::outcome::render_outcome_table`]).
    pub fn outcome_table(&self) -> String {
        crate::outcome::render_outcome_table(&self.outcomes)
    }
}

/// Builds the merged state registry: API state spaces plus program-declared
/// `@States("A, B, C")` class annotations.
pub fn merged_states(units: &[CompilationUnit], api: &ApiRegistry) -> StateRegistry {
    let mut reg = api.states.clone();
    for unit in units {
        for t in &unit.types {
            for ann in &t.annotations {
                if ann.name.simple() == "States" {
                    if let Some(list) = ann.single_string() {
                        reg.insert(StateSpace::parse_decl(&t.name, list));
                    }
                }
            }
        }
    }
    reg
}

/// One analyzable method: its PFG, existing spec, flags and the compiled
/// static skeleton of its probabilistic model. The skeleton is built lazily
/// on first solve — under a small `MaxIters` most methods are never solved,
/// and paying compilation for all of them up front would dwarf the solves.
struct MethodUnit {
    pfg: Arc<Pfg>,
    spec: MethodSpec,
    is_constructor: bool,
    skeleton: OnceLock<Result<MethodSkeleton, String>>,
}

impl MethodUnit {
    /// The compiled skeleton, built on first use (any thread may win the
    /// race; the build is a pure function of static inputs, so every
    /// contender produces the identical value).
    ///
    /// A panic during the build is caught *inside* the `OnceLock`
    /// initializer and cached as an error — re-solves of the method see the
    /// identical message instead of a poisoned lock, which keeps the
    /// outcome table byte-identical for every thread count.
    fn skeleton(
        &self,
        ctx: ModelCtx<'_>,
        cfg: &InferConfig,
    ) -> Result<&MethodSkeleton, InferError> {
        self.skeleton
            .get_or_init(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    MethodSkeleton::build(
                        ctx,
                        Arc::clone(&self.pfg),
                        &self.spec,
                        self.is_constructor,
                        cfg,
                    )
                }))
                .map_err(|p| panic_message(p.as_ref()))
            })
            .as_ref()
            .map_err(|message| InferError::SolvePanicked { message: message.clone() })
    }
}

/// Resolves `InferConfig::threads`: `0` means one per available core, and
/// any other count is used as given, each worker holding its own BP
/// [`Scratch`]. Results are byte-identical for any worker count. More
/// workers than cores cost a little memory, not time: at paper scale on a
/// 2-core host `--threads 8` ran faster than the core count in 21 of 29
/// alternating pairs, at about 2 MB more peak memory (EXPERIMENTS.md,
/// "Threads").
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Maps `items` through `f`, preserving order, on the calling thread plus
/// one scoped worker thread per further entry of `states` (never more
/// threads than items). Each thread owns one entry of `states` for the
/// whole call: a long-lived BP [`Scratch`] for speculation, `()` where the
/// work needs no state. The time the calling thread spent blocked on its
/// workers after finishing its own share is returned alongside the
/// results; for speculation that wait is precisely the commit pipeline's
/// serialization stall.
fn map_parallel<I: Sync, T: Send, S: Send>(
    items: &[I],
    states: &mut [S],
    f: impl Fn(&I, &mut S) -> T + Sync,
) -> (Vec<T>, Duration) {
    let workers = states.len().min(items.len()).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let run = |state: &mut S| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        *slots[i].lock().unwrap() = Some(f(item, state));
    };
    let (main_state, rest) = states.split_first_mut().expect("at least one worker state");
    let mut idle_from: Option<Instant> = None;
    std::thread::scope(|scope| {
        let run = &run;
        for s in rest.iter_mut().take(workers - 1) {
            scope.spawn(move || run(s));
        }
        run(main_state);
        idle_from = Some(Instant::now());
        // The scope's implicit join is the wait being measured.
    });
    let stall = idle_from.map_or(Duration::ZERO, |t| t.elapsed());
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every slot"))
        .collect();
    (results, stall)
}

/// Runs ANEK-INFER over the program.
///
/// `units` are the parsed sources of the program under inference, `api` the
/// developer-annotated library model.
pub fn infer(units: &[CompilationUnit], api: &ApiRegistry, cfg: &InferConfig) -> InferResult {
    infer_with_store(units, api, cfg, None)
}

/// Runs ANEK-INFER with an optional content-addressed solve cache.
///
/// With `cache` attached, the worklist still commits the exact sequence of
/// solves the plain algorithm performs — specs, summaries, outcomes and
/// work counters are byte-identical to [`infer`] — but any solve whose
/// static and dynamic inputs hash to a cached record replays that record
/// instead of building a skeleton and running belief propagation (see
/// [`crate::memo`] for the keying argument). Fresh solves are inserted at
/// commit time, so a subsequent run over an edited program re-solves only
/// the edit's transitive dirty cone.
pub fn infer_with_store(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    cfg: &InferConfig,
    cache: Option<&dyn InferCache>,
) -> InferResult {
    cfg.validate();
    let start = Instant::now();
    let index = ProgramIndex::build(units.iter());
    let states = merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };
    let threads = resolve_threads(cfg.threads);

    // ---- Content fingerprints (only when a cache is attached) ----
    let unit_fps: Vec<CacheKey> = match cache {
        Some(_) => units.iter().map(memo::unit_fingerprint).collect(),
        None => Vec::new(),
    };
    let interface_fp = cache.map(|_| memo::interface_fingerprint(units, api)).unwrap_or_default();
    let config_fp = cache.map(|_| memo::config_fingerprint(cfg)).unwrap_or_default();

    // ---- Gather analyzable methods, build PFGs + model skeletons ----
    let mut meta: Vec<(MethodId, &str, &java_syntax::ast::MethodDecl, usize)> = Vec::new();
    let mut pre_annotated = BTreeSet::new();
    for (unit_idx, unit) in units.iter().enumerate() {
        for t in &unit.types {
            for m in t.methods() {
                if m.body.is_none() {
                    // Interface/abstract methods carry specs but no flow.
                    continue;
                }
                let id = MethodId::new(&t.name, &m.name);
                if !spec_of_method(m).unwrap_or_default().is_empty() {
                    pre_annotated.insert(id.clone());
                }
                meta.push((id, t.name.as_str(), m, unit_idx));
            }
        }
    }
    // ---- Bit-vector screening pre-pass (`--screen`) ----
    // Runs *before* any PFG or skeleton exists: methods the bitstate
    // interpreter proves protocol-conformant, and that are isolated in the
    // program call graph (their solves would publish no evidence and no
    // summary anyone reads), are dropped from the worklist entirely. The
    // eligibility rule is what keeps every non-screened method's committed
    // solve sequence — and hence its spec, summary and outcome —
    // byte-identical to an unscreened run that drains its worklist.
    let screened: BTreeSet<MethodId> = if cfg.screen {
        screen_methods(&index, api, cfg, &meta, &pre_annotated, threads)
    } else {
        BTreeSet::new()
    };
    if !screened.is_empty() {
        meta.retain(|(id, _, _, _)| !screened.contains(id));
    }
    let order: Vec<MethodId> = meta.iter().map(|(id, _, _, _)| id.clone()).collect();
    // The static half of each method's solve key: everything that fixes the
    // compiled skeleton (declaring unit, whole-program interface, config)
    // plus the method's fault token. Dynamic inputs are appended per solve.
    let static_keys: BTreeMap<MethodId, KeyHasher> = match cache {
        Some(_) => meta
            .iter()
            .map(|(id, _, _, unit_idx)| {
                let mut h = KeyHasher::new();
                h.write_str("solve");
                h.write_u32(memo::KEY_SCHEME_VERSION);
                h.write_u64(unit_fps[*unit_idx] as u64);
                h.write_u64((unit_fps[*unit_idx] >> 64) as u64);
                h.write_u64(interface_fp as u64);
                h.write_u64((interface_fp >> 64) as u64);
                h.write_u64(config_fp as u64);
                h.write_u64((config_fp >> 64) as u64);
                h.write_str(&id.class);
                h.write_str(&id.method);
                h.write_u64(memo::method_fault_token(cfg, id));
                (id.clone(), h)
            })
            .collect(),
        None => BTreeMap::new(),
    };
    // PFG construction is independent per method — the one-time setup cost
    // parallelizes trivially. Every run builds every PFG, store or not: a
    // PFG is a cheap pure function of the method's source. Skeletons
    // compile lazily on first solve.
    let mut no_state = vec![(); threads];
    let (built, _) = map_parallel(&meta, &mut no_state, |(_, type_name, m, _), _| {
        let spec = spec_of_method(m).unwrap_or_default();
        let pfg =
            Arc::new(Pfg::build_with_refinement(&index, api, type_name, m, cfg.branch_sensitive));
        MethodUnit { pfg, spec, is_constructor: m.is_constructor(), skeleton: OnceLock::new() }
    });
    let mut methods: BTreeMap<MethodId, MethodUnit> = BTreeMap::new();
    for (id, mu) in order.iter().cloned().zip(built) {
        methods.insert(id, mu);
    }

    // ---- Call maps: callers (who must be re-analyzed when a summary
    //      changes) and callees (what a method's solve reads — its dynamic
    //      priors are a function of exactly its program-callee summaries
    //      plus its own caller-evidence store) ----
    let mut callers: BTreeMap<MethodId, BTreeSet<MethodId>> = BTreeMap::new();
    let mut callees: BTreeMap<MethodId, BTreeSet<MethodId>> = BTreeMap::new();
    for (id, mu) in &methods {
        for n in mu.pfg.call_nodes() {
            let callee = match &n.kind {
                PfgNodeKind::CallPre { callee, .. }
                | PfgNodeKind::CallPost { callee, .. }
                | PfgNodeKind::CallResult { callee, .. } => callee,
                _ => continue,
            };
            if let Callee::Program(c) = callee {
                callers.entry(c.clone()).or_default().insert(id.clone());
                callees.entry(id.clone()).or_default().insert(c.clone());
            }
        }
    }

    // ---- INIT (Figure 9 lines 2–6): summaries from priors ----
    let mut summaries: BTreeMap<MethodId, MethodSummary> = BTreeMap::new();
    for (id, mu) in &methods {
        summaries.insert(id.clone(), initial_summary(ctx, mu, cfg));
    }

    // ---- The worklist loop (lines 8–21), drained in generations ----
    // Caller-side evidence per callee: (caller, call-site) -> observed
    // marginals. This is the second half of the PARAMARG binding — caller
    // demands aggregate onto callee summaries (the Figure 3 conflict story).
    let mut evidence: BTreeMap<MethodId, BTreeMap<(MethodId, ExprId), CallerEvidence>> =
        BTreeMap::new();
    let mut pending: Vec<MethodId> = order.clone();
    let mut queued: BTreeSet<MethodId> = order.iter().cloned().collect();
    let mut solves = 0usize;
    let mut bp_iterations = 0usize;
    let mut message_updates = 0usize;
    let mut discarded_solves = 0usize;
    let mut speculative_solves = 0usize;
    let mut commit_stall = Duration::ZERO;
    let mut nonconverged_solves = 0usize;
    let mut numeric_guard_events = 0usize;
    let mut memo_hits = 0usize;
    let mut memo_misses = 0usize;
    // Fault-isolation state: methods whose solve failed are frozen at their
    // last committed summary and never re-solved or re-queued; the health
    // of every other method's *latest committed* solve feeds the outcomes.
    let mut failed: BTreeMap<MethodId, InferError> = BTreeMap::new();
    let mut last_health: BTreeMap<MethodId, SolveHealth> = BTreeMap::new();
    let mut deadline_truncated_solves = 0usize;
    // Set when the wall-clock deadline stops the worklist between chunks;
    // still-queued methods are then truncated *because of* the deadline.
    let mut worklist_deadline = false;
    // Deterministic speculation counters (satellite of `commit_stall`, which
    // is the wall-clock side) plus, when tracing, the per-commit spans.
    // Spans are recorded at the sequential commit point, one per committed
    // successful solve, so the span sequence — and everything derived from
    // it — is byte-identical for any thread count.
    let mut speculated_chunks = 0usize;
    let mut stalled_chunks = 0usize;
    let mut trace_spans: Vec<observe::SolveSpan> = Vec::new();
    let mut trace_speculative_spans: Vec<u64> = Vec::new();
    let mut trace_discarded_spans: Vec<u64> = Vec::new();
    let empty_deps = BTreeSet::new();
    // One long-lived BP scratch per worker (index 0 is the merge thread's):
    // message arrays are recycled across every solve of the run instead of
    // reallocated per method.
    let mut scratch_pool: Vec<Scratch> = (0..threads.max(1)).map(|_| Scratch::new()).collect();
    // Solves one method against the *current* summary/evidence state.
    // Panics anywhere inside — injected or organic — are caught here, at
    // the per-method boundary, and become structured `Failed` outcomes.
    let solve_one = |id: &MethodId,
                     summaries: &BTreeMap<MethodId, MethodSummary>,
                     evidence: &BTreeMap<
        MethodId,
        BTreeMap<(MethodId, ExprId), CallerEvidence>,
    >,
                     scratch: &mut Scratch|
     -> SolveResult {
        let mu = &methods[id];
        // Injected slowness: a replayable stand-in for a pathologically
        // slow model. Applied before the cache lookup so deadline tests
        // behave the same against a warm store. Never changes the result,
        // so it stays out of the content key (like `threads`).
        if let Some(ms) = cfg.faults.slow_ms(id) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // The full content key: the method's static key extended with its
        // dynamic inputs — exactly the program-callee summaries and own
        // caller evidence the stamp reads. A hit replays the bit-identical
        // record a fresh solve would produce.
        let key = cache.map(|_| {
            let mut h = static_keys[id].clone();
            let deps = callees.get(id).unwrap_or(&empty_deps);
            h.write_u64(deps.len() as u64);
            for callee in deps {
                h.write_str(&callee.class);
                h.write_str(&callee.method);
                match summaries.get(callee) {
                    Some(s) => {
                        h.write_bool(true);
                        memo::write_summary(&mut h, s);
                    }
                    None => h.write_bool(false),
                }
            }
            let own = evidence.get(id);
            h.write_u64(own.map_or(0, BTreeMap::len) as u64);
            for ((caller, site), ev) in own.into_iter().flatten() {
                h.write_str(&caller.class);
                h.write_str(&caller.method);
                h.write_u32(site.0);
                memo::write_evidence(&mut h, ev);
            }
            h.finish()
        });
        if let (Some(c), Some(key)) = (cache, key) {
            if let Some(record) = c.solve_lookup(key) {
                return Ok(Solved { record, cache: Some((key, true)), deadline_expired: false });
            }
        }
        catch_unwind(AssertUnwindSafe(|| -> SolveResult {
            if cfg.faults.should_panic(id) {
                panic!("injected fault: scripted panic in solve of {id}");
            }
            let skeleton = mu.skeleton(ctx, cfg)?;
            let vars = skeleton.compiled().num_vars();
            if vars > cfg.max_model_vars {
                return Err(InferError::ModelTooLarge { vars, limit: cfg.max_model_vars });
            }
            let own_evidence: Vec<CallerEvidence> =
                evidence.get(id).map(|m| m.values().cloned().collect()).unwrap_or_default();
            let extras = skeleton.stamp(ctx, summaries, &own_evidence);
            let marginals = skeleton.solve_scratch(&extras, cfg, scratch);
            // A deadline-truncated solve is timing-dependent: never let it
            // into the shared store, where it would poison byte-identical
            // warm replays for every other client.
            let cache = if marginals.deadline_expired { None } else { key.map(|k| (k, false)) };
            Ok(Solved {
                record: SolvedRecord {
                    summary: skeleton.read_summary(ctx, &marginals),
                    call_evidence: skeleton.read_call_evidence(ctx, &marginals),
                    iterations: marginals.iterations,
                    updates: marginals.updates,
                    converged: marginals.converged,
                    guards: marginals.guards,
                },
                cache,
                deadline_expired: marginals.deadline_expired,
            })
        }))
        .unwrap_or_else(|p| Err(InferError::SolvePanicked { message: panic_message(p.as_ref()) }))
    };
    while !pending.is_empty() && solves < cfg.max_iters && !worklist_deadline {
        // Take one generation, truncated so `solves` respects MaxIters.
        let take = pending.len().min(cfg.max_iters - solves);
        let generation: Vec<MethodId> = pending.drain(..take).collect();
        solves += generation.len();
        // Commit the generation in chunks. Each chunk is solved
        // speculatively in parallel against the state merged so far (frozen
        // for the chunk's duration); the merge below commits a speculative
        // result only if the merges before it *in the same chunk* left the
        // method's inputs untouched; otherwise it re-solves against the
        // merged state — so the committed sequence of solves is *exactly*
        // the one the sequential worklist performs, for any thread count.
        // Chunks hold no call edge, so that re-solve is only a guard (see
        // `speculation_chunks`). With one worker the speculation is skipped
        // and every solve runs lazily at merge time (plain sequential
        // Gauss-Seidel, no waste).
        let parallel = threads.min(generation.len()) > 1;
        let chunks = if parallel {
            speculation_chunks(&generation, threads * 4, &callees, &callers)
        } else {
            vec![&generation[..]]
        };
        for chunk in chunks {
            // Deadline polled at chunk granularity: once it passes, the
            // remaining chunks are never scheduled. Their methods stay in
            // `queued`, so they classify as worklist-truncated (with the
            // deadline as the recorded cause) — and `solves` keeps counting
            // only the sequential algorithm's committed work.
            if worklist_deadline || deadline_passed(cfg) {
                worklist_deadline = true;
                solves -= chunk.len();
                continue;
            }
            let speculated: Option<Vec<SolveResult>> = (parallel && chunk.len() > 1).then(|| {
                speculative_solves += chunk.len();
                let (results, stall) = map_parallel(chunk, &mut scratch_pool, |id, s| {
                    solve_one(id, &summaries, &evidence, s)
                });
                commit_stall += stall;
                results
            });
            if speculated.is_some() {
                speculated_chunks += 1;
            }
            let mut chunk_stalled = false;
            // Merge sequentially, in chunk order. Inputs dirtied by the
            // merges so far: summaries re-published and evidence stores
            // touched during *this* chunk (freshness is relative to the
            // chunk-start snapshot the speculation consumed).
            let mut dirty_summaries: BTreeSet<MethodId> = BTreeSet::new();
            let mut dirty_evidence: BTreeSet<MethodId> = BTreeSet::new();
            for (pos, id) in chunk.iter().enumerate() {
                queued.remove(id);
                let deps = callees.get(id).unwrap_or(&empty_deps);
                let fresh = !dirty_evidence.contains(id) && deps.is_disjoint(&dirty_summaries);
                let mut was_discarded = false;
                let solved: SolveResult = match &speculated {
                    Some(outcomes) if fresh => outcomes[pos].clone(),
                    Some(_) => {
                        // Speculation consumed stale inputs; redo sequentially.
                        discarded_solves += 1;
                        was_discarded = true;
                        chunk_stalled = true;
                        solve_one(id, &summaries, &evidence, &mut scratch_pool[0])
                    }
                    None => solve_one(id, &summaries, &evidence, &mut scratch_pool[0]),
                };
                let s = match solved {
                    Ok(s) => s,
                    Err(error) => {
                        // Fault isolation: freeze the method at its last
                        // committed summary. It publishes nothing, so no other
                        // method's inputs change; it is never re-queued, so a
                        // deterministic fault costs exactly one failed solve.
                        failed.insert(id.clone(), error);
                        continue;
                    }
                };
                // Cache accounting happens here, at the sequential commit
                // point, so hits/misses (and the store contents) evolve exactly
                // as in a single-threaded run. Discarded speculations are never
                // inserted — only committed solves enter the store.
                match &s.cache {
                    Some((_, true)) => memo_hits += 1,
                    Some((key, false)) => {
                        memo_misses += 1;
                        if let Some(c) = cache {
                            c.solve_insert(*key, &s.record);
                        }
                    }
                    None => {}
                }
                let cache_hit = matches!(s.cache, Some((_, true)));
                let deadline_expired = s.deadline_expired;
                if deadline_expired {
                    deadline_truncated_solves += 1;
                }
                let s = s.record;
                bp_iterations += s.iterations;
                message_updates += s.updates;
                if !s.converged {
                    nonconverged_solves += 1;
                }
                numeric_guard_events += s.guards.non_finite + s.guards.zero_sum;
                last_health.insert(
                    id.clone(),
                    SolveHealth {
                        converged: s.converged,
                        iterations: s.iterations,
                        guards: s.guards,
                        deadline_expired,
                    },
                );
                if cfg.trace {
                    let seq = trace_spans.len() as u64;
                    if speculated.is_some() {
                        trace_speculative_spans.push(seq);
                        if was_discarded {
                            trace_discarded_spans.push(seq);
                        }
                    }
                    trace_spans.push(observe::SolveSpan {
                        seq,
                        method: id.to_string(),
                        iterations: s.iterations as u64,
                        updates: s.updates as u64,
                        converged: s.converged,
                        guards_non_finite: s.guards.non_finite as u64,
                        guards_zero_sum: s.guards.zero_sum as u64,
                        cache_hit,
                    });
                }
                let mut to_queue: Vec<MethodId> = Vec::new();
                // Publish evidence about callees observed at this method's sites.
                for (callee, sites) in s.call_evidence {
                    let store = evidence.entry(callee.clone()).or_default();
                    let mut changed = false;
                    for (site, ev) in sites {
                        let key = (id.clone(), site);
                        match store.get(&key) {
                            Some(old) if old.max_delta(&ev) <= cfg.summary_epsilon => {}
                            _ => {
                                store.insert(key, ev);
                                changed = true;
                            }
                        }
                    }
                    if changed {
                        dirty_evidence.insert(callee.clone());
                        if callee != *id {
                            to_queue.push(callee);
                        }
                    }
                }
                let old = &summaries[id];
                if s.summary.max_delta(old) > cfg.summary_epsilon {
                    summaries.insert(id.clone(), s.summary);
                    dirty_summaries.insert(id.clone());
                    // Re-enqueue the method itself (per Figure 9 line 19) and
                    // its callers, whose models consumed the stale summary.
                    to_queue.push(id.clone());
                    if let Some(cs) = callers.get(id) {
                        to_queue.extend(cs.iter().cloned());
                    }
                }
                for q in to_queue {
                    if !failed.contains_key(&q) && queued.insert(q.clone()) {
                        pending.push(q);
                    }
                }
            }
            if chunk_stalled {
                stalled_chunks += 1;
            }
        }
    }

    // ---- Outcome classification ----
    let mut outcomes: BTreeMap<MethodId, MethodOutcome> = BTreeMap::new();
    for (id, mu) in &methods {
        if let Some(error) = failed.get(id) {
            outcomes.insert(id.clone(), MethodOutcome::Failed { error: error.clone() });
            continue;
        }
        let mut reasons: Vec<DegradeReason> = Vec::new();
        let health = last_health.get(id).copied();
        if let Some(SolveHealth { converged, iterations, guards, deadline_expired }) = health {
            if !converged {
                reasons.push(DegradeReason::BpNonConverged { iterations });
            }
            if guards.any() {
                reasons.push(DegradeReason::NumericClamped {
                    non_finite: guards.non_finite,
                    zero_sum: guards.zero_sum,
                });
            }
            if deadline_expired {
                reasons.push(DegradeReason::DeadlineExpired);
            }
        }
        if queued.contains(id) {
            reasons.push(DegradeReason::WorklistTruncated);
            if worklist_deadline {
                reasons.push(DegradeReason::DeadlineExpired);
            }
        }
        // The configured fallback: a non-converged method republishes its
        // INIT prior summary (uniform-h — soft constraints still give an
        // answer) instead of the truncated solve's marginals.
        if cfg.degraded_fallback
            && reasons.iter().any(|r| matches!(r, DegradeReason::BpNonConverged { .. }))
        {
            summaries.insert(id.clone(), initial_summary(ctx, mu, cfg));
            reasons.push(DegradeReason::PriorFallback);
        }
        let outcome = if reasons.is_empty() {
            MethodOutcome::Ok { iterations: health.map_or(0, |h| h.iterations) }
        } else {
            reasons.sort();
            reasons.dedup();
            MethodOutcome::Degraded { reasons }
        };
        outcomes.insert(id.clone(), outcome);
    }
    for id in &screened {
        outcomes.insert(id.clone(), MethodOutcome::Screened);
    }

    // ---- Spec extraction (lines 22–29) ----
    let mut specs = BTreeMap::new();
    let mut confidence = BTreeMap::new();
    for (id, summary) in &summaries {
        let (spec, conf) = summary.extract_spec_with_confidence(cfg.threshold);
        specs.insert(id.clone(), spec);
        confidence.insert(id.clone(), conf);
    }

    // ---- Deterministic trace artifact (`InferConfig::trace`) ----
    // Counters are copies of the run totals; spans were recorded at the
    // sequential commit points above. Nothing here reads a clock.
    let trace = if cfg.trace {
        Some(observe::Trace {
            specs: specs
                .iter()
                .filter(|(_, s)| !s.is_empty())
                .map(|(id, s)| observe::SpecEntry {
                    method: id.to_string(),
                    requires: s.requires.to_string(),
                    ensures: s.ensures.to_string(),
                })
                .collect(),
            screened: screened.iter().map(ToString::to_string).collect(),
            counters: observe::TraceCounters {
                solves: solves as u64,
                bp_iterations: bp_iterations as u64,
                message_updates: message_updates as u64,
                memo_hits: memo_hits as u64,
                memo_misses: memo_misses as u64,
                screened_methods: screened.len() as u64,
                nonconverged_solves: nonconverged_solves as u64,
                numeric_guard_events: numeric_guard_events as u64,
            },
            spans: trace_spans,
            execution: observe::TraceExecution {
                threads: threads as u64,
                speculative_solves: speculative_solves as u64,
                discarded_solves: discarded_solves as u64,
                speculated_chunks: speculated_chunks as u64,
                stalled_chunks: stalled_chunks as u64,
                speculative_spans: trace_speculative_spans,
                discarded_spans: trace_discarded_spans,
            },
        })
    } else {
        None
    };

    InferResult {
        specs,
        summaries,
        confidence,
        solves,
        elapsed: start.elapsed(),
        pre_annotated,
        bp_iterations,
        message_updates,
        discarded_solves,
        speculative_solves,
        commit_stall,
        speculated_chunks,
        stalled_chunks,
        threads,
        outcomes,
        nonconverged_solves,
        numeric_guard_events,
        memo_hits,
        memo_misses,
        callers,
        screened_methods: screened.len(),
        deadline_hit: worklist_deadline || deadline_truncated_solves > 0,
        deadline_truncated_solves,
        call_evidence: evidence,
        trace,
    }
}

/// Splits a generation into speculation chunks. A chunk ends after
/// `max_len` methods, or just before the first method that calls, or is
/// called by, a method already in it.
///
/// No merge inside such a chunk can change a later member's inputs: a merge
/// republishes the merged method's summary, which only its callers read,
/// and its callees' evidence stores. So every speculation is kept.
///
/// The cap sizes the unit at which the worklist polls its wall-clock
/// deadline: chunks after an expired deadline are never scheduled, so a
/// deadline that passes mid-generation stops the worklist within about four
/// solves per worker.
fn speculation_chunks<'a>(
    generation: &'a [MethodId],
    max_len: usize,
    callees: &BTreeMap<MethodId, BTreeSet<MethodId>>,
    callers: &BTreeMap<MethodId, BTreeSet<MethodId>>,
) -> Vec<&'a [MethodId]> {
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut members: BTreeSet<&MethodId> = BTreeSet::new();
    for (i, id) in generation.iter().enumerate() {
        let linked = |edges: &BTreeMap<MethodId, BTreeSet<MethodId>>| {
            edges.get(id).is_some_and(|ms| ms.iter().any(|m| members.contains(m)))
        };
        if i - start == max_len || linked(callees) || linked(callers) {
            chunks.push(&generation[start..i]);
            start = i;
            members.clear();
        }
        members.insert(id);
    }
    if start < generation.len() {
        chunks.push(&generation[start..]);
    }
    chunks
}

/// Whether the run's wall-clock deadline (if any) has passed.
fn deadline_passed(cfg: &InferConfig) -> bool {
    cfg.bp.deadline.is_some_and(|d| Instant::now() >= d)
}

/// The screening pre-pass: classifies every candidate method with the
/// bit-vector interpreter (against API models plus the program's
/// hand-written specs) and returns the set that is safe to skip.
///
/// Safe means provably clean *and* inference-isolated: no program callees
/// (the method's solves would publish no caller evidence) and no program
/// callers (nobody stamps its summary into a model). Skipping such a
/// method removes only its own solves from the sequential worklist — every
/// other method reads exactly the inputs it would have read anyway. Hand-
/// annotated and fault-targeted methods are never screened (their INIT
/// summaries and injected failures are observable output).
fn screen_methods(
    index: &ProgramIndex,
    api: &ApiRegistry,
    cfg: &InferConfig,
    meta: &[(MethodId, &str, &java_syntax::ast::MethodDecl, usize)],
    pre_annotated: &BTreeSet<MethodId>,
    threads: usize,
) -> BTreeSet<MethodId> {
    use analysis::cfg::Cfg;
    use analysis::events::EventKind;
    use analysis::types::{ref_type_name, TypeEnv};

    let mut program_specs = bitstate::ProgramSpecs::new();
    for (id, _, m, _) in meta {
        if pre_annotated.contains(id) {
            let spec = spec_of_method(m).unwrap_or_default();
            let ret = m.return_type.as_ref().and_then(ref_type_name);
            program_specs.insert(id.clone(), (spec, ret));
        }
    }
    let machine = bitstate::Machine::compile(api, &program_specs);

    // Per-method: bitstate verdict plus the set of program callees.
    let (scanned, _) = map_parallel(meta, &mut vec![(); threads], |(id, type_name, m, _), _| {
        let mut env = TypeEnv::for_method(index, api, type_name, m);
        let body = Cfg::build(m, &mut env);
        let mut prog_callees = BTreeSet::new();
        for block in &body.blocks {
            for e in &block.events {
                let callee = match &e.kind {
                    EventKind::New { callee, .. } | EventKind::Call { callee, .. } => callee,
                    _ => continue,
                };
                if let Callee::Program(c) = callee {
                    prog_callees.insert(c.clone());
                }
            }
        }
        let params: Vec<String> = m.params.iter().map(|p| p.name.clone()).collect();
        let report = machine.check_method(id, &body, &params, m.modifiers.is_static);
        (report.verdict == bitstate::Verdict::ProvablyClean, prog_callees)
    });

    let mut called: BTreeSet<MethodId> = BTreeSet::new();
    for (_, callees) in &scanned {
        called.extend(callees.iter().cloned());
    }
    meta.iter()
        .zip(&scanned)
        .filter(|((id, _, m, _), (clean, prog_callees))| {
            *clean
                && prog_callees.is_empty()
                && !called.contains(id)
                && !pre_annotated.contains(id)
                && !cfg.faults.should_panic(id)
                && !cfg.faults.nan_factor(id)
                && cfg.faults.oversize_extra(id) == 0
                && cfg.faults.slow_ms(id).is_none()
                && !m.is_constructor()
        })
        .map(|((id, _, _, _), _)| id.clone())
        .collect()
}

/// The INIT summary: spec-derived high/low priors where an annotation
/// exists, uniform elsewhere.
fn initial_summary(ctx: ModelCtx<'_>, mu: &MethodUnit, cfg: &InferConfig) -> MethodSummary {
    let slot_for = |ty: &str, atom: Option<&spec_lang::PermAtom>| -> SlotProbs {
        let mut slot = SlotProbs::uniform(ctx.states_of(Some(ty)));
        if let Some(atom) = atom {
            for k in PermissionKind::ALL {
                slot.set_kind(k, if k == atom.kind { cfg.p_spec_high } else { cfg.p_spec_low });
            }
            let st = atom.effective_state();
            let names: Vec<String> = slot.states.keys().cloned().collect();
            for name in names {
                let p = if name == st { cfg.p_spec_high } else { cfg.p_spec_low };
                slot.states.insert(name, p);
            }
        }
        slot
    };
    let params = mu
        .pfg
        .params
        .iter()
        .map(|p| {
            let target =
                if p.name == "this" { SpecTarget::This } else { SpecTarget::Param(p.name.clone()) };
            (
                p.name.clone(),
                slot_for(&p.type_name, mu.spec.requires.for_target(&target)),
                slot_for(&p.type_name, mu.spec.ensures.for_target(&target)),
            )
        })
        .collect();
    let result = mu
        .pfg
        .result
        .as_ref()
        .map(|(ty, _)| slot_for(ty, mu.spec.ensures.for_target(&SpecTarget::Result)));
    MethodSummary { params, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    fn run(src: &str) -> InferResult {
        let unit = parse(src).unwrap();
        let api = standard_api();
        infer(&[unit], &api, &InferConfig::default())
    }

    const FIG3: &str = r#"
        class Row {
            Collection<Integer> entries;
            Iterator<Integer> createColIter() {
                return entries.iterator();
            }
            void add(int val) { }
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
            @Test
            void testParseCSV() {
                Row r1 = parseCSVRow("1,2,3,4");
                Row r2 = parseCSVRow("4,6,7,8");
                int sum = r1.createColIter().next() + r2.createColIter().next();
                assert sum != 5;
            }
            static Row parseCSVRow(String text) { return new Row(); }
        }
    "#;

    #[test]
    fn figure3_createcoliter_resolves_conflict_to_alive_unique() {
        // The paper's running example (§1): testParseCSV calls next()
        // directly (wants HASNEXT), while copy and the iterator() spec say
        // ALIVE. Evidence for ALIVE outweighs HASNEXT, and H3 picks unique.
        let result = run(FIG3);
        let id = MethodId::new("Row", "createColIter");
        let spec = &result.specs[&id];
        let atom = spec.ensures.for_target(&SpecTarget::Result).expect("result spec inferred");
        assert_eq!(atom.kind, PermissionKind::Unique, "H3: create* returns unique");
        let state = atom.state.as_deref().unwrap_or(spec_lang::ALIVE);
        assert_eq!(state, spec_lang::ALIVE, "majority evidence selects ALIVE over HASNEXT");
    }

    #[test]
    fn figure3_summary_shows_conflicting_evidence() {
        let result = run(FIG3);
        let id = MethodId::new("Row", "createColIter");
        let summary = &result.summaries[&id];
        let res = summary.result.as_ref().unwrap();
        // ALIVE beats HASNEXT, but HASNEXT is not certainly-false: the
        // conflicting site left a trace.
        assert!(res.state("ALIVE") > res.state("HASNEXT"));
    }

    #[test]
    fn drain_helper_infers_full_iterator_param() {
        let result = run(r#"
            class App {
                void drain(Iterator<Integer> it) {
                    while (it.hasNext()) { it.next(); }
                }
            }
        "#);
        let spec = &result.specs[&MethodId::new("App", "drain")];
        let atom = spec.requires.for_target(&SpecTarget::Param("it".into()));
        let atom = atom.expect("it gets a precondition");
        assert!(atom.kind.allows_write(), "next() needs a writing permission, got {}", atom.kind);
    }

    #[test]
    fn summaries_flow_through_wrappers() {
        // level2 wraps level1 which calls next(); the requirement should
        // propagate up the call chain through summaries.
        let result = run(r#"
            class App {
                void level1(Iterator<Integer> it) { it.next(); }
                void level2(Iterator<Integer> it) { level1(it); }
            }
        "#);
        let l2 = &result.specs[&MethodId::new("App", "level2")];
        let atom = l2.requires.for_target(&SpecTarget::Param("it".into()));
        assert!(atom.is_some(), "level2 should inherit level1's requirement: {l2:?}");
        let s = &result.summaries[&MethodId::new("App", "level2")];
        let (pre, _) = s.param("it").unwrap();
        assert!(
            pre.state("HASNEXT") > 0.5,
            "HASNEXT requirement propagates: {:.3}",
            pre.state("HASNEXT")
        );
    }

    #[test]
    fn pre_annotated_methods_are_recorded() {
        let result = run(r#"
            class App {
                @Perm(requires = "pure(this)", ensures = "pure(this)")
                void annotated() { }
                void plain() { }
            }
        "#);
        assert!(result.pre_annotated.contains(&MethodId::new("App", "annotated")));
        assert!(!result.pre_annotated.contains(&MethodId::new("App", "plain")));
    }

    #[test]
    fn max_iters_bounds_work() {
        let src = r#"
            class App {
                void a(Iterator<Integer> it) { b(it); }
                void b(Iterator<Integer> it) { c(it); }
                void c(Iterator<Integer> it) { it.next(); }
            }
        "#;
        let unit = parse(src).unwrap();
        let api = standard_api();
        let cheap = infer(
            std::slice::from_ref(&unit),
            &api,
            &InferConfig { max_iters: 3, ..InferConfig::default() },
        );
        assert!(cheap.solves <= 3);
        let full = infer(&[unit], &api, &InferConfig::default());
        assert!(full.solves >= 3, "re-analysis should occur: {}", full.solves);
        // The trade-off the paper describes: more iterations, better specs.
        let a_pre_full =
            full.summaries[&MethodId::new("App", "a")].param("it").unwrap().0.state("HASNEXT");
        assert!(a_pre_full > 0.5, "with enough iterations a() learns HASNEXT: {a_pre_full:.3}");
    }

    #[test]
    fn states_annotation_merges_into_registry() {
        let unit = parse(r#"@States("OPEN, SHUT") class Door { void m() { } }"#).unwrap();
        let api = standard_api();
        let reg = merged_states(&[unit], &api);
        let space = reg.get("Door").expect("Door space registered");
        assert!(space.contains("OPEN"));
        assert!(space.contains("SHUT"));
        // API spaces survive the merge.
        assert!(reg.get("Iterator").is_some());
    }

    #[test]
    fn branch_sensitivity_extension_sees_through_state_tests() {
        // The paper's fourth-warning scenario (§4.2): provably HASNEXT on
        // return, but only via branch reasoning. ANEK proper infers ALIVE;
        // the future-work extension infers HASNEXT.
        let src = r#"class Registry {
            Collection<Integer> items;
            Iterator<Integer> createReadyIter() {
                Iterator<Integer> it = items.iterator();
                if (!it.hasNext()) {
                    throw new RuntimeException("empty");
                }
                return it;
            }
        }"#;
        let unit = parse(src).unwrap();
        let api = standard_api();
        let id = MethodId::new("Registry", "createReadyIter");

        let plain = infer(std::slice::from_ref(&unit), &api, &InferConfig::default());
        let plain_atom = plain.specs[&id].ensures.for_target(&SpecTarget::Result).cloned().unwrap();
        assert_eq!(plain_atom.kind, PermissionKind::Unique);
        assert_eq!(plain_atom.state.as_deref().unwrap_or(spec_lang::ALIVE), spec_lang::ALIVE);

        let ext_cfg = InferConfig { branch_sensitive: true, ..InferConfig::default() };
        let ext = infer(&[unit], &api, &ext_cfg);
        let ext_atom = ext.specs[&id].ensures.for_target(&SpecTarget::Result).cloned().unwrap();
        assert_eq!(ext_atom.kind, PermissionKind::Unique);
        assert_eq!(
            ext_atom.state.as_deref(),
            Some("HASNEXT"),
            "the extension proves HASNEXT through the test"
        );
    }

    #[test]
    fn elapsed_and_solves_populated() {
        let result = run("class App { void m() { } }");
        assert!(result.solves >= 1);
        assert!(result.elapsed.as_nanos() > 0);
    }
}
