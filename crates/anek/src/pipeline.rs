//! The end-to-end ANEK + PLURAL pipeline (paper Figure 10).
//!
//! Extractor (parse) → constraint generation + probabilistic inference
//! (`anek-core`) → applier (annotate the AST) → PLURAL check. This is the
//! workflow of §2.1: run inference over client code, then let the sound
//! checker validate the result.

use analysis::cfg::Cfg;
use analysis::pfg::Pfg;
use analysis::types::{ProgramIndex, TypeEnv};
use anek_core::{infer_with_store, InferCache, InferConfig, InferResult, MethodModel, ModelCtx};
use java_syntax::{parse, CompilationUnit, ParseError};
use lint::Diagnostic;
use plural::{check, CheckResult, SpecTable};
use spec_lang::{
    api_with_protocols, spec_of_method, standard_api, ApiRegistry, MethodSpec, UnknownProtocol,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use store::Store;

/// A source rejected during lenient parsing
/// ([`Pipeline::from_sources_lenient`]): the pipeline proceeds without it.
#[derive(Debug, Clone)]
pub struct SkippedSource {
    /// Index of the source in the input slice.
    pub index: usize,
    /// Why it failed to parse.
    pub error: ParseError,
}

/// A configured pipeline over one program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Parsed program.
    pub units: Vec<CompilationUnit>,
    /// Annotated library model. Replace it through [`Pipeline::with_api`]:
    /// [`Pipeline::with_protocols`] does not see a direct assignment.
    pub api: ApiRegistry,
    /// Inference configuration.
    pub config: InferConfig,
    /// Run the IR verifier at stage boundaries even in release builds
    /// (debug builds always verify).
    pub verify_ir: bool,
    /// Sources dropped by [`Pipeline::from_sources_lenient`]; empty for the
    /// strict constructors.
    pub skipped_sources: Vec<SkippedSource>,
    /// Persistent artifact store. When attached, [`Pipeline::infer`] runs
    /// through it: per-method solves are memoized in it.
    pub store: Option<Arc<Store>>,
    /// The built-in families `api` was compiled from (empty = the standard
    /// selection); `None` once [`Pipeline::with_api`] replaced it. Lets
    /// [`Pipeline::with_protocols`] keep a model it would only rebuild.
    api_families: Option<Vec<String>>,
}

/// The complete result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The inference output.
    pub inference: InferResult,
    /// PLURAL warnings with no annotations at all (Table 2 "Original").
    pub warnings_before: CheckResult,
    /// PLURAL warnings with the inferred annotations applied.
    pub warnings_after: CheckResult,
    /// Number of methods the applier annotated.
    pub annotations_applied: usize,
    /// The annotated program, pretty-printed.
    pub annotated_source: String,
    /// IR-verifier findings from the stage boundaries (`IR001`–`IR003`);
    /// empty when verification is disabled or everything is well-formed.
    pub ir_diagnostics: Vec<Diagnostic>,
    /// Sources the lenient constructor dropped; the report covers only the
    /// parsed remainder.
    pub skipped_sources: Vec<SkippedSource>,
}

impl PipelineReport {
    /// The deterministic per-method outcome table of the inference stage
    /// (see `anek_core::render_outcome_table`).
    pub fn outcome_table(&self) -> String {
        self.inference.outcome_table()
    }

    /// Whether every source parsed and every method's solve ended `Ok`.
    pub fn fully_ok(&self) -> bool {
        self.skipped_sources.is_empty() && self.inference.fully_ok()
    }
}

impl Pipeline {
    /// Builds a pipeline from already-parsed units with the standard API
    /// model and default configuration.
    pub fn new(units: Vec<CompilationUnit>) -> Pipeline {
        Pipeline {
            units,
            api: standard_api(),
            config: InferConfig::default(),
            verify_ir: false,
            skipped_sources: Vec::new(),
            store: None,
            api_families: Some(Vec::new()),
        }
    }

    /// Parses each source string into a unit.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`].
    pub fn from_sources<S: AsRef<str>>(sources: &[S]) -> Result<Pipeline, ParseError> {
        let units = sources.iter().map(|s| parse(s.as_ref())).collect::<Result<Vec<_>, _>>()?;
        Ok(Pipeline::new(units))
    }

    /// Parses each source string, skipping (and recording) the ones that
    /// fail instead of aborting — the degraded-mode counterpart of
    /// [`Pipeline::from_sources`]: a truncated or corrupted file costs only
    /// its own methods, never the whole run.
    pub fn from_sources_lenient<S: AsRef<str>>(sources: &[S]) -> Pipeline {
        let mut units = Vec::new();
        let mut skipped = Vec::new();
        for (index, s) in sources.iter().enumerate() {
            match parse(s.as_ref()) {
                Ok(unit) => units.push(unit),
                Err(error) => skipped.push(SkippedSource { index, error }),
            }
        }
        let mut pipeline = Pipeline::new(units);
        pipeline.skipped_sources = skipped;
        pipeline
    }

    /// Replaces the API model.
    pub fn with_api(mut self, api: ApiRegistry) -> Pipeline {
        self.api = api;
        self.api_families = None;
        self
    }

    /// Selects the protocol families from the built-in library (empty =
    /// the standard selection, `"all"` = every family). Unlike
    /// [`Pipeline::with_api`] this also records the selection in
    /// [`InferConfig::protocols`], so store keys distinguish runs with
    /// different libraries.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProtocol`] when a name is not in the registry.
    pub fn with_protocols<S: AsRef<str>>(
        mut self,
        families: &[S],
    ) -> Result<Pipeline, UnknownProtocol> {
        let families: Vec<String> = families.iter().map(|s| s.as_ref().to_string()).collect();
        if self.api_families.as_ref() != Some(&families) {
            self.api = api_with_protocols(&families)?;
            self.api_families = Some(families.clone());
        }
        self.config.protocols = families;
        Ok(self)
    }

    /// Replaces the inference configuration.
    pub fn with_config(mut self, config: InferConfig) -> Pipeline {
        self.config = config;
        self
    }

    /// Sets the inference worker-thread count (`0` = one per core). Any
    /// value produces byte-identical results; only wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Pipeline {
        self.config.threads = threads;
        self
    }

    /// Enables the bit-vector screening pre-pass: provably-clean,
    /// call-graph-isolated methods skip BP model construction entirely (see
    /// `anek_core::InferConfig::screen`).
    pub fn with_screen(mut self, screen: bool) -> Pipeline {
        self.config.screen = screen;
        self
    }

    /// Enables the deterministic trace layer: [`Pipeline::infer`] and
    /// [`Pipeline::run`] attach an `observe::Trace` (per-solve spans,
    /// hierarchical counters, spec provenance) to the result. Off by
    /// default — the disabled path records nothing.
    pub fn with_trace(mut self, trace: bool) -> Pipeline {
        self.config.trace = trace;
        self
    }

    /// Forces stage-boundary IR verification on (release builds skip it by
    /// default; debug builds always verify).
    pub fn with_verify_ir(mut self, verify_ir: bool) -> Pipeline {
        self.verify_ir = verify_ir;
        self
    }

    /// Attaches a persistent artifact store: inference memoizes per-method
    /// solves through it (warm runs are byte-identical to cold ones, see
    /// `anek_core::memo`).
    pub fn with_store(mut self, store: Arc<Store>) -> Pipeline {
        self.store = Some(store);
        self
    }

    /// Runs the IR verifier over every method's CFG, PFG, and emitted
    /// constraint system — the invariants each pipeline stage hands to the
    /// next. Pure; does not depend on inference having run.
    pub fn verify_ir_diagnostics(&self) -> Vec<Diagnostic> {
        let index = ProgramIndex::build(self.units.iter());
        let states = anek_core::merged_states(&self.units, &self.api);
        let ctx = ModelCtx { index: &index, api: &self.api, states: &states };
        let no_summaries = BTreeMap::new();
        // Verify the organic models: injected faults (NaN tables, padding)
        // deliberately violate IR invariants so the *solver* guards can be
        // exercised — they must not abort the run at the verifier instead.
        let config =
            InferConfig { faults: anek_core::FaultInjection::default(), ..self.config.clone() };
        let mut diags = Vec::new();
        for unit in &self.units {
            for t in &unit.types {
                for m in t.methods() {
                    if m.body.is_none() {
                        continue;
                    }
                    let name = format!("{}.{}", t.name, m.name);
                    let mut env = TypeEnv::for_method(&index, &self.api, &t.name, m);
                    let cfg = Cfg::build(m, &mut env);
                    diags.extend(lint::verify::verify_cfg(&cfg, &name));
                    let pfg = Pfg::build(&index, &self.api, &t.name, m);
                    let own_spec = spec_of_method(m).unwrap_or_else(|_| MethodSpec::default());
                    let model = MethodModel::build(
                        ctx,
                        pfg,
                        &own_spec,
                        m.is_constructor(),
                        &no_summaries,
                        &config,
                    );
                    diags.extend(lint::verify::verify_model(&model));
                }
            }
        }
        lint::sort_diagnostics(&mut diags);
        diags
    }

    /// Runs inference only (through the attached store, when present).
    pub fn infer(&self) -> InferResult {
        let cache = self.store.as_deref().map(|s| s as &dyn InferCache);
        infer_with_store(&self.units, &self.api, &self.config, cache)
    }

    /// Runs PLURAL with the given spec table.
    pub fn check(&self, specs: &SpecTable) -> CheckResult {
        check(&self.units, &self.api, specs)
    }

    /// Runs the whole Figure 10 pipeline: check unannotated, infer, apply,
    /// re-check. Debug builds (and release builds with
    /// [`Pipeline::with_verify_ir`]) verify the IRs before inference and
    /// panic on an `IR00x` finding — broken invariants would otherwise
    /// surface as silently-wrong marginals.
    pub fn run(&self) -> PipelineReport {
        let ir_diagnostics = if cfg!(debug_assertions) || self.verify_ir {
            let diags = self.verify_ir_diagnostics();
            assert!(
                diags.is_empty(),
                "IR verification failed:\n{}",
                diags.iter().map(|d| d.render(None)).collect::<String>()
            );
            diags
        } else {
            Vec::new()
        };
        let original_specs = SpecTable::from_units(&self.units);
        let warnings_before = self.check(&original_specs);
        let inference = self.infer();
        let merged = SpecTable::from_units(&self.units).overlay_inferred(&inference.specs);
        let warnings_after = self.check(&merged);
        let (annotated, annotations_applied) =
            crate::apply::apply_specs(&self.units, &inference.specs);
        let annotated_source = crate::apply::render(&annotated);
        PipelineReport {
            inference,
            warnings_before,
            warnings_after,
            annotations_applied,
            annotated_source,
            ir_diagnostics,
            skipped_sources: self.skipped_sources.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::types::MethodId;
    use anek_core::{DegradeReason, MethodOutcome};
    use std::collections::BTreeSet;

    #[test]
    fn figure3_pipeline_reduces_warnings() {
        let pipeline = Pipeline::from_sources(&[corpus::FIGURE3]).expect("figure 3 parses");
        let report = pipeline.run();
        // Unannotated: boundary uses of createColIter warn.
        assert!(!report.warnings_before.warnings.is_empty(), "original program should warn");
        // Inference reduces warnings to just the genuinely-buggy sites.
        assert!(
            report.warnings_after.warnings.len() < report.warnings_before.warnings.len(),
            "before: {:?}\nafter: {:?}",
            report.warnings_before.warnings,
            report.warnings_after.warnings
        );
        assert!(report.annotations_applied > 0);
        assert!(report.annotated_source.contains("@Perm"));
    }

    #[test]
    fn verify_ir_is_clean_on_figure_programs() {
        for src in [corpus::FIGURE3, corpus::figures::FIGURE7, corpus::figures::figure2()] {
            let pipeline = Pipeline::from_sources(&[src]).unwrap().with_verify_ir(true);
            let diags = pipeline.verify_ir_diagnostics();
            assert!(diags.is_empty(), "IR verifier fired on {src:.40}...: {diags:?}");
            // The full run (which asserts internally) must also pass.
            let report = pipeline.run();
            assert!(report.ir_diagnostics.is_empty());
        }
    }

    /// Everything inference decided for one method: outcome, spec,
    /// summary and confidence. Floats appear as their `Debug` text, which
    /// round-trips every bit.
    fn method_row(r: &InferResult, id: &MethodId) -> String {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            r.outcomes.get(id),
            r.specs.get(id),
            r.summaries.get(id),
            r.confidence.get(id)
        )
    }

    /// Asserts that two runs decided the same for every method and traced
    /// the same spec and deterministic lines; only the execution line may
    /// differ.
    fn assert_same_run(a: &InferResult, b: &InferResult, what: &str) {
        let methods: BTreeSet<&MethodId> =
            [a, b].iter().flat_map(|r| r.outcomes.keys().chain(r.specs.keys())).collect();
        for id in methods {
            assert_eq!(method_row(a, id), method_row(b, id), "{what}: {id} differs");
        }
        let lines = |r: &InferResult| {
            let text = r.trace.as_ref().expect("tracing was enabled").render();
            text.lines().take(2).map(str::to_string).collect::<Vec<_>>()
        };
        let (la, lb) = (lines(a), lines(b));
        assert_eq!(la[0], lb[0], "{what}: spec trace line differs");
        assert_eq!(la[1], lb[1], "{what}: deterministic trace line differs");
    }

    #[test]
    fn small_corpus_runs_agree_across_threads_screening_and_trace() {
        // Five runs over one corpus, each configuration once:
        //   1, 2  the default config, traced, at threads 1 and 4; the
        //         worklist stops at the default `max_iters`;
        //   3     `max_iters` 2000, unscreened, threads 1: the worklist
        //         drains, and this is the reference run;
        //   4, 5  `max_iters` 2000, screened and traced, threads 1 and 4.
        let units = corpus::generate(&corpus::PmdConfig::small()).units;
        let run = |max_iters: usize, screen: bool, trace: bool, threads: usize| {
            let mut pipeline = Pipeline::new(units.clone())
                .with_screen(screen)
                .with_trace(trace)
                .with_threads(threads);
            pipeline.config.max_iters = max_iters;
            pipeline.infer()
        };
        let default_iters = InferConfig::default().max_iters;
        let capped = [run(default_iters, false, true, 1), run(default_iters, false, true, 4)];
        let full = run(2000, false, false, 1);
        let screened = [run(2000, true, true, 1), run(2000, true, true, 4)];

        // The report's headline counters and the per-solve trace spans are
        // two views of one execution; they must agree.
        for result in capped.iter().chain(&screened) {
            let trace = result.trace.as_ref().expect("tracing was enabled");
            // Deterministic section: spans ARE the committed solves.
            assert_eq!(trace.spans.len(), result.solves, "one span per committed solve");
            assert_eq!(trace.counters.screened_methods as usize, result.screened_methods);
            assert_eq!(
                trace.spans.iter().filter(|s| s.cache_hit).count(),
                result.memo_hits,
                "cache-hit spans must sum to the report's memo_hits"
            );
            // Execution section: speculation counters match the span lists.
            assert_eq!(
                trace.execution.speculative_spans.len(),
                result.speculative_solves,
                "speculative spans must sum to the report's speculative_solves"
            );
            assert_eq!(
                trace.execution.discarded_spans.len(),
                result.discarded_solves,
                "discarded spans must sum to the report's discarded_solves"
            );
        }

        // Nothing deterministic moves with the thread count, whether the
        // worklist is cut short or drains.
        assert_same_run(&capped[0], &capped[1], "default config, threads 1 vs 4");
        assert_same_run(&screened[0], &screened[1], "screened, threads 1 vs 4");
        for four in [&capped[1], &screened[1]] {
            assert!(four.speculative_solves > 0, "4 threads should actually speculate");
        }

        let truncated = |r: &InferResult| {
            r.outcomes
                .values()
                .filter(|o| {
                    matches!(o, MethodOutcome::Degraded { reasons }
                        if reasons.contains(&DegradeReason::WorklistTruncated))
                })
                .count()
        };
        assert!(truncated(&capped[0]) > 0, "the default max_iters should cut the worklist short");
        assert_eq!(truncated(&full), 0, "max_iters 2000 should drain the worklist");

        // Screening only skips solves: every method it keeps ends exactly
        // as in the unscreened run, and it skips at least a fifth of them.
        for (id, outcome) in &screened[0].outcomes {
            if !outcome.is_screened() {
                assert_eq!(method_row(&screened[0], id), method_row(&full, id), "{id} moved");
            }
        }
        assert!(
            screened[0].solves * 5 <= full.solves * 4,
            "screening skipped under 20% of solves: {} of {}",
            screened[0].solves,
            full.solves
        );
    }

    #[test]
    fn screening_is_registry_driven_a_lock_method_is_not_screened_away() {
        // Under the standard Iterator+Stream model a Lock-only method's
        // calls are unknown, so the screening pre-pass proves it clean and
        // skips its solve. Selecting the Lock family must flip that: the
        // same method now carries a protocol obligation (a double-release
        // violation, even), so screening is not allowed to drop it.
        let src =
            "class L { int slip(LockFactory f) { Lock l = f.newLock(); l.release(); return 0; } }";
        let standard = Pipeline::from_sources(&[src]).unwrap().with_screen(true).infer();
        assert_eq!(standard.screened_methods, 1, "unknown-API method should screen away");
        let with_lock = Pipeline::from_sources(&[src])
            .unwrap()
            .with_protocols(&["Lock"])
            .unwrap()
            .with_screen(true)
            .infer();
        assert_eq!(with_lock.screened_methods, 0, "Lock-selected method must be solved");
        assert!(with_lock.solves > 0, "the unscreened method is actually solved");
        // The selection is part of the config, so memoization can never
        // confuse the two runs.
        let lock_cfg = InferConfig { protocols: vec!["Lock".to_string()], ..Default::default() };
        assert_ne!(
            anek_core::memo::config_fingerprint(&InferConfig::default()),
            anek_core::memo::config_fingerprint(&lock_cfg),
        );
    }

    #[test]
    fn clean_program_stays_clean() {
        let pipeline = Pipeline::from_sources(&[
            "class App { void m(Collection<Integer> c) { Iterator<Integer> it = c.iterator(); while (it.hasNext()) { it.next(); } } }",
        ])
        .unwrap();
        let report = pipeline.run();
        assert!(report.warnings_before.warnings.is_empty());
        assert!(report.warnings_after.warnings.is_empty());
    }
}
