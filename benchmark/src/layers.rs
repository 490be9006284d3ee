//! The traced run: per-layer metrics. Each layer is timed from outside,
//! by calling its public functions on the workload's own inputs, and every
//! call is recorded as a span; inference itself runs once more with the
//! observe layer's per-solve trace on.

use crate::report::{ratio, Outcome};
use crate::serve::{self, output_dir, Client, ScratchDir};
use crate::stats;
use crate::workload::{check_result, pipeline, Input, Workload};
use anek::analysis::cfg::Cfg;
use anek::analysis::pfg::Pfg;
use anek::analysis::types::{MethodId, ProgramIndex, TypeEnv};
use anek::anek_core::memo::{interface_fingerprint, unit_fingerprint};
use anek::anek_core::{
    merged_states, CallerEvidence, InferResult, MethodModel, MethodSkeleton, ModelCtx,
};
use anek::bitstate::{self, Machine, Verdict};
use anek::factor_graph::{CompiledGraph, Scratch};
use anek::java_syntax::ast::MethodDecl;
use anek::java_syntax::CompilationUnit;
use anek::json::Json;
use anek::plural::{self, SpecTable};
use anek::spec_lang::spec_of_method;
use anek::store::Store;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the cheap layers (parse, index, CFG, screen,
/// fingerprints); their metric is the median.
const REPS: usize = 5;

/// Untraced/traced inference pairs; `trace.overhead_ratio` compares the
/// medians of each side.
const INFER_PAIRS: usize = 2;

/// One span: a call into a layer, on the benchmark's own wall clock.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// The spans of one run, kept in memory and written out at the end.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), list: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span called `name`; returns its result and
    /// duration in seconds.
    fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.list.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.list.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.list[id].end = end;
        (r, end - start)
    }

    /// The spans as JSON: name, start, end, parent and workload per span,
    /// plus self time (the span's duration minus its children's).
    fn to_json(&self, workload: Workload) -> Json {
        let mut child_time = vec![0.0; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let us = |secs: f64| Json::Num((secs * 1e6).round());
        let spans = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::num(id)),
                    ("name".into(), Json::str(&s.name)),
                    ("start_us".into(), us(s.start)),
                    ("end_us".into(), us(s.end)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::num)),
                    ("workload".into(), Json::str(workload.name())),
                    ("self_us".into(), us(s.end - s.start - child_time[id])),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(workload.name())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Calls `f` `reps` times; returns the last result and the median time in
/// milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (last.expect("reps > 0"), stats::median(&times))
}

/// One bodied method: id, declaring class, declaration.
type Bodied<'a> = (MethodId, &'a str, &'a MethodDecl);

/// The traced run of any workload.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new(workload, true);
    let mut spans = Spans::new();
    spans.time("workload", |spans| measure(&mut out, spans, workload, seed, seconds));
    let path = output_dir().join(format!("bench-trace-{workload}.json"));
    match std::fs::write(&path, format!("{}\n", spans.to_json(workload))) {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.problems.push(format!("cannot write {}: {e}", path.display())),
    }
    out
}

fn measure(out: &mut Outcome, spans: &mut Spans, workload: Workload, seed: u64, seconds: f64) {
    let (input, _) = spans.time("setup.generate", |_| Input::generate(workload, seed));
    let (pipeline, _) = spans.time("setup.pipeline", |_| pipeline(workload, &input));
    let traced_pipeline = pipeline.clone().with_trace(true);

    // ---- Inference, untraced and traced in turn ----
    let (mut plain_ms, mut traced_ms, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    for _ in 0..INFER_PAIRS {
        let c0 = stats::process_cpu_s();
        let (_, secs) = spans.time("infer", |_| pipeline.infer());
        cpu_s.push(stats::process_cpu_s() - c0);
        plain_ms.push(secs * 1e3);
        let (result, secs) = spans.time("infer.traced", |_| traced_pipeline.infer());
        traced_ms.push(secs * 1e3);
        traced = Some(result);
    }
    let result = traced.expect("INFER_PAIRS > 0");
    out.attempted += 2 * INFER_PAIRS;
    out.failed += usize::from(result.failed_count() > 0);
    out.problems.extend(check_result(workload, &input, &pipeline, &result));
    let infer_cpu_s = stats::median(&cpu_s);
    out.set("trace.overhead_ratio", stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0);
    if workload != Workload::ServeEdits {
        // A batch request is one untraced `Pipeline::infer`; a serve_edits
        // request is an edit, timed in the session rounds below.
        out.set_sampled("anek.request_p50_ms", stats::median(&plain_ms), plain_ms.len());
        out.set("anek.request_cpu_ms", infer_cpu_s * 1e3);
    }

    // ---- Inference counters (exact) ----
    let solves = result.solves as f64;
    out.set("anek-core.solves", solves);
    out.set("anek-core.message_updates", result.message_updates as f64);
    out.set("anek-core.bp_iterations", result.bp_iterations as f64);
    out.set("anek-core.nonconverged_ratio", ratio(result.nonconverged_solves as f64, solves));
    out.set(
        "anek-core.waste_ratio",
        ratio(result.discarded_solves as f64, result.speculative_solves as f64),
    );
    // Speculation is neither good nor bad in itself, so its count is a note
    // (the base of the waste ratio), not a metric with a direction.
    out.notes.push(format!(
        "{} speculative solves, {} discarded",
        result.speculative_solves, result.discarded_solves
    ));
    out.set(
        "anek-core.stall_ratio",
        ratio(result.stalled_chunks as f64, result.speculated_chunks as f64),
    );
    out.set(
        "anek-core.commit_stall_ratio",
        ratio(result.commit_stall.as_secs_f64(), result.elapsed.as_secs_f64()),
    );
    let trace = result.trace.as_ref().expect("the traced pipeline records a trace");
    let span_updates: Vec<f64> =
        trace.spans.iter().filter(|s| !s.cache_hit).map(|s| s.updates as f64).collect();
    out.set("factor-graph.updates_per_solve_p50", stats::percentile(&span_updates, 50.0));
    out.set("factor-graph.updates_per_solve_p99", stats::percentile(&span_updates, 99.0));

    // ---- Front end and analysis ----
    let units = &pipeline.units;
    let api = &pipeline.api;
    let config = &pipeline.config;
    let ((_, parse_ms), _) = spans.time("java-syntax.parse", |_| {
        median_ms(REPS, || {
            input
                .sources
                .iter()
                .map(|s| anek::java_syntax::parse(s).expect("parses"))
                .collect::<Vec<_>>()
        })
    });
    out.set("java-syntax.parse_ms", parse_ms);
    let ((index, index_ms), _) =
        spans.time("analysis.index", |_| median_ms(REPS, || ProgramIndex::build(units.iter())));
    out.set("analysis.index_ms", index_ms);
    let bodied: Vec<Bodied<'_>> = units
        .iter()
        .flat_map(CompilationUnit::methods)
        .filter(|(_, m)| m.body.is_some())
        .map(|(t, m)| (MethodId::new(&t.name, &m.name), t.name.as_str(), m))
        .collect();
    let ((cfgs, cfg_ms), _) = spans.time("analysis.cfg", |_| {
        median_ms(REPS, || {
            bodied
                .iter()
                .map(|(_, class, m)| {
                    let mut env = TypeEnv::for_method(&index, api, class, m);
                    Cfg::build(m, &mut env)
                })
                .collect::<Vec<_>>()
        })
    });
    out.set("analysis.cfg_ms", cfg_ms);

    // ---- Bit-vector screening over every bodied method ----
    let own_specs = anek::check::program_specs(&SpecTable::from_units(units), units);
    let ((clean, screen_ms), _) = spans.time("bitstate.screen", |_| {
        median_ms(REPS, || {
            let machine = Machine::compile(api, &own_specs);
            let mut scratch = bitstate::Scratch::new();
            bodied
                .iter()
                .zip(&cfgs)
                .filter(|((_, _, m), cfg)| {
                    let params: Vec<String> = m.params.iter().map(|p| p.name.clone()).collect();
                    let prog = machine.compile_method(cfg, &params, m.modifiers.is_static);
                    machine.run(&prog, &mut scratch).verdict == Verdict::ProvablyClean
                })
                .count()
        })
    });
    out.set("bitstate.screen_ms", screen_ms);
    out.set("bitstate.screened_ratio", ratio(result.screened_methods as f64, bodied.len() as f64));
    out.notes.push(format!(
        "{} bodied methods, {clean} provably clean, {} screened, {} solves",
        bodied.len(),
        result.screened_methods,
        result.solves
    ));

    // ---- Model layers over the modeled (non-screened) methods ----
    let modeled: Vec<&Bodied<'_>> = bodied
        .iter()
        .filter(|(id, _, _)| result.outcomes.get(id).is_some_and(|o| !o.is_screened()))
        .collect();
    let (pfgs, pfg_s) = spans.time("analysis.pfg", |_| {
        modeled.iter().map(|(_, class, m)| Pfg::build(&index, api, class, m)).collect::<Vec<_>>()
    });
    out.set("analysis.pfg_ms", pfg_s * 1e3);
    out.set("analysis.pfg_nodes", pfgs.iter().map(|p| p.nodes.len()).sum::<usize>() as f64);
    let states = merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };
    let own_spec = |m: &MethodDecl| spec_of_method(m).unwrap_or_default();
    let no_summaries = BTreeMap::new();
    let (models, model_s) = spans.time("anek-core.model_build", |_| {
        modeled
            .iter()
            .zip(&pfgs)
            .map(|((_, _, m), pfg)| {
                MethodModel::build(
                    ctx,
                    pfg.clone(),
                    &own_spec(m),
                    m.is_constructor(),
                    &no_summaries,
                    config,
                )
            })
            .collect::<Vec<_>>()
    });
    out.set("anek-core.model_build_ms", model_s * 1e3);
    let (edges, compile_s) = spans.time("factor-graph.compile", |_| {
        models.iter().map(|model| CompiledGraph::compile(&model.graph).num_edges()).sum::<usize>()
    });
    out.set("factor-graph.compile_ms", compile_s * 1e3);
    out.set("factor-graph.edges", edges as f64);
    drop(models);

    // ---- BP: replay each modeled method's final solve ----
    let skeletons: Vec<MethodSkeleton> = modeled
        .iter()
        .zip(pfgs)
        .map(|((_, _, m), pfg)| {
            MethodSkeleton::build(ctx, Arc::new(pfg), &own_spec(m), m.is_constructor(), config)
        })
        .collect();
    let (per_update_s, solve_s) = spans
        .time("factor-graph.solve", |_| replay_solves(&modeled, &skeletons, ctx, &result, config));
    let replay_updates: f64 = per_update_s.values().map(|&(_, u)| u).sum();
    out.set("factor-graph.solve_ms", solve_s * 1e3);
    out.set("factor-graph.updates_per_us", ratio(replay_updates, solve_s * 1e6));

    // Estimated BP CPU of the real run: every committed solve's updates at
    // its method's replayed cost per update. The shares say where the time
    // goes, not whether a change helped (a slower front end lowers BP's
    // share), so they are notes, not metrics with a direction.
    let bp_est_s: f64 = trace
        .spans
        .iter()
        .filter(|s| !s.cache_hit)
        .filter_map(|s| {
            per_update_s.get(&s.method).map(|&(secs, u)| s.updates as f64 * ratio(secs, u))
        })
        .sum();
    let screen_s = if config.screen { (cfg_ms + screen_ms) / 1e3 } else { 0.0 };
    let staged_s = index_ms / 1e3 + screen_s + pfg_s + model_s + compile_s + bp_est_s;
    out.notes.push(format!(
        "estimated shares of {:.0} ms inference CPU: BP {:.3}, unaccounted {:.3}",
        infer_cpu_s * 1e3,
        ratio(bp_est_s, infer_cpu_s),
        1.0 - ratio(staged_s, infer_cpu_s)
    ));

    // ---- Store ----
    let ((_, fp_ms), _) = spans.time("store.fingerprint", |_| {
        median_ms(REPS, || {
            let units_fp = units.iter().map(unit_fingerprint).fold(0, |a, k| a ^ k);
            units_fp ^ interface_fingerprint(units, api)
        })
    });
    out.set("store.fingerprint_ms", fp_ms);
    {
        let dir = ScratchDir::new("record");
        let store = Store::open(dir.path()).expect("open scratch store");
        let (recorded, record_s) =
            spans.time("store.record", |_| store.record_run(units, api, config, &result));
        if let Err(e) = recorded {
            out.problems.push(format!("record_run failed: {e}"));
        }
        out.set("store.record_ms", record_s * 1e3);
    }

    // ---- Verdict path: check and apply with the inferred specs ----
    let overlay = SpecTable::from_units(units).overlay_inferred(&result.specs);
    let (_, s) = spans.time("plural.check", |_| plural::check(units, api, &overlay));
    out.set("plural.check_ms", s * 1e3);
    let (_, s) = spans.time("bitstate.check", |_| {
        bitstate::check_program(units, api, &anek::check::program_specs(&overlay, units))
    });
    out.set("bitstate.check_ms", s * 1e3);
    let (_, s) =
        spans.time("anek.apply", |_| anek::render(&anek::apply_specs(units, &result.specs).0));
    out.set("anek.apply_ms", s * 1e3);

    // ---- Serve session: cold load, then updates and queries ----
    spans.time("anek.serve", |spans| serve_layer(out, spans, workload, &input, seed, seconds));
}

/// Re-runs each modeled method's last solve: stamp the run's final
/// summaries and caller evidence onto its skeleton, then solve. Returns,
/// per `Class.method`, the solve's seconds and message updates.
fn replay_solves(
    modeled: &[&Bodied<'_>],
    skeletons: &[MethodSkeleton],
    ctx: ModelCtx<'_>,
    result: &InferResult,
    config: &anek::anek_core::InferConfig,
) -> BTreeMap<String, (f64, f64)> {
    let mut scratch = Scratch::new();
    let mut out = BTreeMap::new();
    for ((id, _, _), skeleton) in modeled.iter().zip(skeletons) {
        let evidence: Vec<CallerEvidence> =
            result.call_evidence.get(id).map(|m| m.values().cloned().collect()).unwrap_or_default();
        let t = Instant::now();
        let extras = skeleton.stamp(ctx, &result.summaries, &evidence);
        let marginals = skeleton.solve_scratch(&extras, config, &mut scratch);
        out.insert(id.to_string(), (t.elapsed().as_secs_f64(), marginals.updates as f64));
    }
    out
}

/// Seconds of session rounds in a traced run, at most: enough for a few
/// `serve_edits` rounds, whose edits take about a second each.
const SERVE_ROUND_SECONDS: f64 = 6.0;

/// The serve layer on this workload's program: a cold load into an empty
/// store, then rounds of updates and queries. `serve_edits` edits and
/// reverts; the batch workloads re-save units unchanged, which takes the
/// cached update path.
fn serve_layer(
    out: &mut Outcome,
    spans: &mut Spans,
    workload: Workload,
    input: &Input,
    seed: u64,
    seconds: f64,
) {
    let mut client = Client::new(workload, input);
    spans.time("anek.serve.load", |_| client.load(input));
    let sites = serve::edit_sites(&input.sources);
    let order = serve::seeded_order(sites.len(), seed);
    let edits = (workload == Workload::ServeEdits).then_some((&sites[..], &order[..]));
    let budget = seconds.min(SERVE_ROUND_SECONDS);
    let (run, _) =
        spans.time("anek.serve.rounds", |_| serve::drive(&mut client, input, edits, seed, budget));
    out.problems.extend(run.problems);
    out.problems.extend(client.errors.iter().cloned());
    out.attempted += client.attempted;
    out.failed += client.errors.len();
    let (store, bytes) = client.store_stats();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    if edits.is_some() {
        out.set_sampled(
            "anek.request_p50_ms",
            stats::median(&run.resolve_ms),
            run.resolve_ms.len(),
        );
        out.set("anek.request_cpu_ms", stats::median(&run.resolve_cpu_ms));
    }
    out.set_sampled(
        "anek.update_cached_p50_ms",
        stats::median(&run.cached_ms),
        run.cached_ms.len(),
    );
    out.set("anek.dirty_cone_mean", mean(&run.dirty));
    out.set("anek.resolves_per_edit", if edits.is_some() { mean(&run.misses) } else { 0.0 });
    out.set_sampled("anek.query_p50_us", stats::median(&run.query_us), run.query_us.len());
    let (p, tail) =
        stats::tail_percentile(&run.query_us).unwrap_or((50.0, stats::median(&run.query_us)));
    out.set("anek.query_tail_us", tail);
    out.notes.push(format!("anek.query_tail_us is p{p} of {} queries", run.query_us.len()));
    out.set("store.hit_ratio", ratio(run.memo.0, run.memo.0 + run.memo.1));
    out.set(
        "store.pfg_hit_ratio",
        ratio(store.pfg_hits as f64, (store.pfg_hits + store.pfg_misses) as f64),
    );
    out.set("store.entries", store.entries as f64);
    out.set("store.bytes", bytes as f64);
}
