//! The `anek` command-line tool — the reproduction's equivalent of the
//! paper's Eclipse plugin pipeline (Figure 10).
//!
//! ```text
//! anek infer [--threads N] [--inject PLAN] [--outcomes]
//!            [--screen] [--max-iters N] <file.java>...
//!                               infer specs, print them; --inject replays a
//!                               fault plan (corpus::faults format) and
//!                               --outcomes appends the per-method outcome
//!                               table (method<TAB>status<TAB>detail).
//!                               --screen runs the bit-vector pre-pass and
//!                               skips BP solves for provably-clean isolated
//!                               methods. Exit 0: every source parsed and
//!                               every method solved. Exit 3: completed
//!                               partially (a source was skipped or a
//!                               method's solve failed); the printed specs
//!                               cover the healthy remainder.
//! anek check [--engine bitstate|plural] [--infer] [--branch-sensitive]
//!            [--json] [--cross-validate] <file.java>...
//!                               verify client code against declared specs
//!                               (plus ANEK-inferred ones under --infer):
//!                               the bit-vector engine reports CHK001/CHK002
//!                               diagnostics with caret snippets or JSON;
//!                               --engine plural runs the fractional-
//!                               permission checker instead;
//!                               --cross-validate runs bitstate, PLURAL and
//!                               the PROT001 lint side by side and reports
//!                               per-method verdict disagreements
//! anek lint [--json] [--verify-ir] <file.java>...
//!                               run the deterministic dataflow lints
//!                               (DF/PROT/SPEC rules) and optionally the IR
//!                               verifier; exit non-zero on errors
//! anek pipeline [--out DIR] [--verify-ir] [--threads N] <file.java>...
//!                               infer, apply, re-check; print the annotated
//!                               program (or write one file per input into
//!                               DIR) and report both warning counts
//! anek pfg <file.java> <Class.method>
//!                               dump a method's Permissions Flow Graph as DOT
//! anek explain [--json] [infer flags] <file.java>... <Class.method>
//!                               infer specs, then report *why* the target
//!                               method's annotation was inferred: one
//!                               EXPL001 diagnostic per spec atom with the
//!                               contributing factor families (PROT, WEAKEN,
//!                               neighbor evidence/summaries) as signed
//!                               log-odds notes; caret snippet or --json.
//!                               The report is byte-identical for any
//!                               thread count
//! anek corpus <dir> [--small]   materialize the PMD-shaped synthetic corpus
//!                               as .java files under <dir>; --mixed
//!                               generates the registry-driven
//!                               mixed-protocol corpus instead (every
//!                               protocol family, or --families LIST), with
//!                               --profile small|aliasing|callback
//!                               selecting the workload mix
//! anek serve (--stdio | --socket PATH) [--store DIR] [--threads N]
//!            [--trace] [--workers N] [--admission-cap N]
//!            [--screen-depth N] [--retry-after-ms MS]
//!            [--memory-budget-mb MB] [--max-request-bytes N]
//!                               long-running multi-session inference daemon
//!                               speaking line-delimited JSON (see
//!                               anek::serve): named sessions share one
//!                               store, stacked edits coalesce, deep queues
//!                               shed load (screen, then reject with
//!                               retry_after_ms), and a memory budget evicts
//!                               idle sessions' heavyweight state
//! ```
//!
//! `--store DIR` (on `infer`, `pipeline` and `serve`) attaches the
//! persistent artifact store: warm runs replay memoized solves and are
//! byte-identical to cold runs.
//!
//! `--trace-json PATH` (on `infer`, `pipeline` and `explain`) writes the
//! run's deterministic trace artifact — three JSON lines (spec section,
//! deterministic counters/spans, execution section); the first two are
//! byte-identical across thread counts. `serve --trace` enables the same
//! tracing inside the daemon, exposed via the `query_trace` request.

use anek::analysis::{MethodId, Pfg, ProgramIndex};
use anek::bitstate;
use anek::plural::SpecTable;
use anek::spec_lang::{api_with_protocols, standard_api};
use anek::{Pipeline, Server, ServerOptions};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: anek <infer|check|lint|pipeline|pfg|corpus|serve> [flags] <file.java>...

  infer    [--threads N] [--inject PLAN] [--outcomes] [--screen]
           [--max-iters N] [--store DIR] [--trace-json PATH]
           [--protocols LIST] <file.java>...
  check    [--engine bitstate|plural] [--infer] [--branch-sensitive]
           [--json] [--cross-validate] [infer flags] <file.java>...
  lint     [--json] [--verify-ir] <file.java>...
  pipeline [--out DIR] [--verify-ir] [--threads N] [--store DIR]
           [--trace-json PATH] <file.java>...
  pfg      <file.java>... <Class.method>
  explain  [--json] [infer flags] <file.java>... <Class.method>
  corpus   <dir> [--small | --mixed [--profile small|aliasing|callback]
           [--families LIST]]
  serve    (--stdio | --socket PATH) [--store DIR] [--threads N]
           [--trace] [--workers N] [--admission-cap N]
           [--screen-depth N] [--retry-after-ms MS]
           [--memory-budget-mb MB] [--max-request-bytes N]
           [--protocols LIST]

`--protocols LIST` (on infer, check, pipeline, explain, serve) selects
protocol families from the built-in library as a comma-separated list
(e.g. `Iterator,File,Lock`) or `all`; default is the standard
Iterator+Stream selection.

exit codes:
  0  success (infer: every source parsed and every method solved;
     check/lint: no warnings/errors;
     check --cross-validate: no undocumented disagreements)
  1  runtime failure (unreadable input, parse error in strict mode,
     check/lint found problems, or an undocumented engine disagreement)
  2  usage error (unknown command or flag, missing argument, no inputs)
  3  partial result (infer: a source was skipped or a method's solve
     failed; printed specs cover the healthy remainder)";

/// An error in how the tool was invoked (vs. a runtime failure). Mapped to
/// exit code 2 where runtime failures map to 1.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for UsageError {}

fn usage_err(message: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(UsageError(message.into()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(cmd, rest) {
        Ok(code) => code,
        Err(e) if e.is::<UsageError>() => {
            eprintln!("anek: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("anek: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags shared by the inference-running subcommands.
#[derive(Default)]
struct InferFlags {
    threads: Option<usize>,
    inject: Option<corpus::FaultPlan>,
    outcomes: bool,
    store: Option<String>,
    screen: bool,
    max_iters: Option<usize>,
    trace_json: Option<String>,
    protocols: Vec<String>,
}

impl InferFlags {
    /// Consumes `--threads N` / `--inject PLAN` / `--outcomes` /
    /// `--store DIR` / `--screen` / `--max-iters N` / `--trace-json PATH` /
    /// `--protocols LIST` from `args`, returning the flags and the
    /// remaining arguments.
    fn parse(args: &[String]) -> Result<(InferFlags, Vec<String>), Box<dyn std::error::Error>> {
        let mut flags = InferFlags::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--threads" {
                let n = it
                    .next()
                    .ok_or_else(|| usage_err("--threads needs a count (0 = one per core)"))?;
                flags.threads =
                    Some(n.parse().map_err(|_| usage_err(format!("--threads: bad count `{n}`")))?);
            } else if a == "--inject" {
                let path =
                    it.next().ok_or_else(|| usage_err("--inject needs a fault-plan file"))?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                flags.inject =
                    Some(corpus::FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?);
            } else if a == "--outcomes" {
                flags.outcomes = true;
            } else if a == "--screen" {
                flags.screen = true;
            } else if a == "--max-iters" {
                let n = it
                    .next()
                    .ok_or_else(|| usage_err("--max-iters needs a worklist-pass budget"))?;
                let n: usize =
                    n.parse().map_err(|_| usage_err(format!("--max-iters: bad count `{n}`")))?;
                if n == 0 {
                    return Err(usage_err("--max-iters must be positive"));
                }
                flags.max_iters = Some(n);
            } else if a == "--store" {
                let dir = it.next().ok_or_else(|| usage_err("--store needs a directory"))?;
                flags.store = Some(dir.clone());
            } else if a == "--trace-json" {
                let path =
                    it.next().ok_or_else(|| usage_err("--trace-json needs an output path"))?;
                flags.trace_json = Some(path.clone());
            } else if a == "--protocols" {
                let list = it.next().ok_or_else(|| {
                    usage_err("--protocols needs a comma-separated family list (or `all`)")
                })?;
                flags.protocols = parse_protocols(list)?;
            } else {
                rest.push(a.clone());
            }
        }
        Ok((flags, rest))
    }

    /// Applies the flags to a pipeline.
    fn apply(&self, mut pipeline: Pipeline) -> Result<Pipeline, Box<dyn std::error::Error>> {
        if !self.protocols.is_empty() {
            pipeline =
                pipeline.with_protocols(&self.protocols).map_err(|e| usage_err(e.to_string()))?;
        }
        if let Some(t) = self.threads {
            pipeline = pipeline.with_threads(t);
        }
        if let Some(plan) = &self.inject {
            plan.apply_config(&mut pipeline.config);
        }
        if self.screen {
            pipeline = pipeline.with_screen(true);
        }
        if let Some(n) = self.max_iters {
            pipeline.config.max_iters = n;
        }
        if let Some(dir) = &self.store {
            let store = store::Store::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
            pipeline = pipeline.with_store(Arc::new(store));
        }
        if self.trace_json.is_some() {
            pipeline = pipeline.with_trace(true);
        }
        Ok(pipeline)
    }

    /// Writes the run's deterministic trace to the `--trace-json` path, if
    /// one was requested. The artifact is the trace's canonical three-line
    /// rendering (see `observe::Trace::render`).
    fn write_trace(
        &self,
        result: &anek_core::InferResult,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let Some(path) = &self.trace_json else { return Ok(()) };
        let trace = result.trace.as_ref().ok_or("internal: tracing was enabled but absent")?;
        std::fs::write(path, trace.render()).map_err(|e| format!("--trace-json {path}: {e}"))?;
        Ok(())
    }
}

/// Splits and validates a `--protocols` list against the built-in
/// registry so an unknown family fails at flag-parse time with the list
/// of available names.
fn parse_protocols(list: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let names: Vec<String> =
        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if names.is_empty() {
        return Err(usage_err("--protocols needs a comma-separated family list (or `all`)"));
    }
    api_with_protocols(&names).map_err(|e| usage_err(e.to_string()))?;
    Ok(names)
}

/// Rejects leftover `--flags` that no parser consumed (they would
/// otherwise be misread as file paths).
fn reject_unknown_flags(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(usage_err(format!("unknown flag `{flag}`"))),
        None => Ok(()),
    }
}

/// Maps each diagnostic's `Class.method` context back to the input file
/// that declares the class, attaches it, and re-sorts (reporting order is
/// file-first once files are known).
fn attach_files(
    diags: Vec<lint::Diagnostic>,
    units: &[java_syntax::CompilationUnit],
    files: &[String],
) -> Vec<lint::Diagnostic> {
    let mut diags: Vec<lint::Diagnostic> = diags
        .into_iter()
        .map(|d| {
            let class = d.method.split('.').next().unwrap_or("");
            match units.iter().position(|u| u.type_named(class).is_some()) {
                Some(i) if i < files.len() => {
                    let file = files[i].clone();
                    d.in_file(file)
                }
                _ => d,
            }
        })
        .collect();
    lint::sort_diagnostics(&mut diags);
    diags
}

fn read_sources(paths: &[String]) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    if paths.is_empty() {
        return Err(usage_err("no input files"));
    }
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}").into()))
        .collect()
}

fn run(cmd: &str, rest: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match cmd {
        "infer" => {
            let (flags, files) = InferFlags::parse(rest)?;
            reject_unknown_flags(&files)?;
            let mut sources = read_sources(&files)?;
            // Fault injection corrupts sources *before* parsing; parsing is
            // lenient under injection so a garbled file costs only itself.
            let pipeline = if let Some(plan) = &flags.inject {
                plan.apply_sources(&mut sources);
                flags.apply(Pipeline::from_sources_lenient(&sources))?
            } else {
                flags.apply(Pipeline::from_sources(&sources)?)?
            };
            for s in &pipeline.skipped_sources {
                let file = files.get(s.index).map_or("<source>", String::as_str);
                eprintln!("warning: skipped {file}: {}", s.error);
            }
            let result = pipeline.infer();
            flags.write_trace(&result)?;
            for (method, spec) in &result.specs {
                if spec.is_empty() {
                    continue;
                }
                let conf = result.confidence.get(method).copied().unwrap_or(1.0);
                println!("{method}:  (confidence {conf:.2})");
                if !spec.requires.is_empty() {
                    println!("    requires: {}", spec.requires);
                }
                if !spec.ensures.is_empty() {
                    println!("    ensures:  {}", spec.ensures);
                }
            }
            if flags.outcomes {
                // The deterministic outcome table: skipped sources first
                // (by input index), then one line per method. Identical for
                // every thread count, faults included.
                println!("--- outcomes ---");
                for s in &pipeline.skipped_sources {
                    println!("source:{}\tskipped\t{}", s.index, s.error);
                }
                print!("{}", result.outcome_table());
            }
            for (method, outcome) in &result.outcomes {
                if outcome.is_degraded() {
                    eprintln!("warning: {method} degraded: {}", outcome.detail());
                }
            }
            eprintln!(
                "inferred {} specs with {} model solves in {:?} ({} threads, {} BP sweeps, {} message updates)",
                result.annotation_count(),
                result.solves,
                result.elapsed,
                result.threads,
                result.bp_iterations,
                result.message_updates
            );
            if result.speculative_solves > 0 {
                eprintln!(
                    "speculation: {} speculative solves, {} discarded, merge stalled {:?}",
                    result.speculative_solves, result.discarded_solves, result.commit_stall
                );
            }
            if flags.screen {
                eprintln!(
                    "screening pre-pass skipped {} provably-clean methods",
                    result.screened_methods
                );
            }
            if result.failed_count() > 0 || !pipeline.skipped_sources.is_empty() {
                eprintln!(
                    "partial result: {} methods failed, {} sources skipped (specs above cover the healthy remainder)",
                    result.failed_count(),
                    pipeline.skipped_sources.len()
                );
                return Ok(ExitCode::from(3));
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let (flags, rest) = InferFlags::parse(rest)?;
            let mut engine = "bitstate".to_string();
            let mut infer = false;
            let mut branch_sensitive = false;
            let mut json = false;
            let mut cross_validate = false;
            let mut files: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--engine" => {
                        let e = it
                            .next()
                            .ok_or_else(|| usage_err("--engine needs `bitstate` or `plural`"))?;
                        if e != "bitstate" && e != "plural" {
                            return Err(usage_err(format!("--engine: unknown engine `{e}`")));
                        }
                        engine = e.clone();
                    }
                    "--infer" => infer = true,
                    "--branch-sensitive" => branch_sensitive = true,
                    "--json" => json = true,
                    "--cross-validate" => cross_validate = true,
                    _ => files.push(a.clone()),
                }
            }
            reject_unknown_flags(&files)?;
            let sources = read_sources(&files)?;
            let mut pipeline = flags.apply(Pipeline::from_sources(&sources)?)?;
            pipeline.config.branch_sensitive = branch_sensitive;
            let mut table = SpecTable::from_units(&pipeline.units);
            if infer {
                let result = pipeline.infer();
                eprintln!(
                    "inferred {} specs with {} model solves in {:?}",
                    result.annotation_count(),
                    result.solves,
                    result.elapsed
                );
                table = table.overlay_inferred(&result.specs);
            }
            if cross_validate {
                let report = anek::cross_validate(&pipeline.units, &pipeline.api, &table);
                print!("{}", report.render());
                return Ok(if report.undocumented == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            if engine == "plural" {
                let result = pipeline.check(&table);
                for w in &result.warnings {
                    println!("{w}");
                }
                eprintln!(
                    "{} warnings across {} methods in {:?}",
                    result.warnings.len(),
                    result.methods_checked,
                    result.elapsed
                );
                return Ok(if result.warnings.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            let specs = anek::check::program_specs(&table, &pipeline.units);
            let report = bitstate::check_program(&pipeline.units, &pipeline.api, &specs);
            let diags = attach_files(anek::check::diagnostics(&report), &pipeline.units, &files);
            if json {
                println!("{}", lint::to_json_array(&diags));
            } else {
                for d in &diags {
                    let source =
                        files.iter().position(|f| *f == d.file).map(|i| sources[i].as_str());
                    print!("{}", d.render(source));
                }
            }
            use bitstate::Verdict;
            eprintln!(
                "checked {} methods in {:?}: {} clean, {} need inference, {} in violation ({} findings)",
                report.methods_checked,
                report.elapsed,
                report.count(Verdict::ProvablyClean),
                report.count(Verdict::NeedsInference),
                report.count(Verdict::DefiniteViolation),
                diags.len(),
            );
            Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "lint" => {
            let json = rest.iter().any(|a| a == "--json");
            let verify_ir = rest.iter().any(|a| a == "--verify-ir");
            if let Some(bad) =
                rest.iter().find(|a| a.starts_with("--") && *a != "--json" && *a != "--verify-ir")
            {
                return Err(usage_err(format!(
                    "unknown lint flag `{bad}` (expected --json, --verify-ir)"
                )));
            }
            let files: Vec<String> =
                rest.iter().filter(|a| !a.starts_with("--")).cloned().collect();
            let sources = read_sources(&files)?;
            let pipeline = Pipeline::from_sources(&sources)?;
            let opts = lint::LintOptions { verify_ir };
            let diags = attach_files(
                lint::lint_units(&pipeline.units, &pipeline.api, &opts),
                &pipeline.units,
                &files,
            );
            if json {
                println!("{}", lint::to_json_array(&diags));
            } else {
                // Each diagnostic carries its source file; look the text
                // back up for caret snippets.
                for d in &diags {
                    let source =
                        files.iter().position(|f| *f == d.file).map(|i| sources[i].as_str());
                    print!("{}", d.render(source));
                }
            }
            let errors = diags.iter().filter(|d| d.severity == lint::Severity::Error).count();
            eprintln!("{} diagnostics ({errors} errors) across {} files", diags.len(), files.len());
            Ok(if errors == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "pipeline" => {
            let (flags, rest) = InferFlags::parse(rest)?;
            let mut out_dir: Option<String> = None;
            let mut verify_ir = false;
            let mut files: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out_dir = Some(
                        it.next().ok_or_else(|| usage_err("--out needs a directory"))?.clone(),
                    );
                } else if a == "--verify-ir" {
                    verify_ir = true;
                } else {
                    files.push(a.clone());
                }
            }
            reject_unknown_flags(&files)?;
            let sources = read_sources(&files)?;
            let pipeline =
                flags.apply(Pipeline::from_sources(&sources)?.with_verify_ir(verify_ir))?;
            let report = pipeline.run();
            flags.write_trace(&report.inference)?;
            match &out_dir {
                Some(dir) => {
                    // One annotated file per input, mirroring the input names.
                    std::fs::create_dir_all(dir)?;
                    let (annotated, _) =
                        anek::apply_specs(&pipeline.units, &report.inference.specs);
                    for (unit, input) in annotated.iter().zip(&files) {
                        let name = std::path::Path::new(input)
                            .file_name()
                            .ok_or("input has no file name")?;
                        let path = std::path::Path::new(dir).join(name);
                        std::fs::write(&path, java_syntax::print_unit(unit))?;
                    }
                    eprintln!("wrote {} annotated files to {dir}", files.len());
                }
                None => println!("{}", report.annotated_source),
            }
            eprintln!(
                "warnings: {} before, {} after; {} annotations applied; inference {:?}",
                report.warnings_before.warnings.len(),
                report.warnings_after.warnings.len(),
                report.annotations_applied,
                report.inference.elapsed
            );
            for w in &report.warnings_after.warnings {
                eprintln!("  {w}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "pfg" => {
            let (target, files) = rest
                .split_last()
                .ok_or_else(|| usage_err("usage: anek pfg <file>... <Class.method>"))?;
            // Allow either order: if the last arg looks like a file, the
            // first is the target.
            let (files, target) = if target.ends_with(".java") {
                let (t, f) = rest
                    .split_first()
                    .ok_or_else(|| usage_err("usage: anek pfg <Class.method> <file>..."))?;
                (f.to_vec(), t.clone())
            } else {
                (files.to_vec(), target.clone())
            };
            let (class, method) =
                target.split_once('.').ok_or_else(|| usage_err("target must be Class.method"))?;
            let sources = read_sources(&files)?;
            let pipeline = Pipeline::from_sources(&sources)?;
            let index = ProgramIndex::build(pipeline.units.iter());
            let api = standard_api();
            let id = MethodId::new(class, method);
            for unit in &pipeline.units {
                if let Some(t) = unit.type_named(class) {
                    if let Some(m) = t.method_named(method) {
                        let pfg = Pfg::build(&index, &api, class, m);
                        print!("{}", pfg.to_dot());
                        return Ok(ExitCode::SUCCESS);
                    }
                }
            }
            Err(format!("method {id} not found").into())
        }
        "explain" => {
            let (flags, rest) = InferFlags::parse(rest)?;
            let json = rest.iter().any(|a| a == "--json");
            let rest: Vec<String> = rest.into_iter().filter(|a| a != "--json").collect();
            reject_unknown_flags(&rest)?;
            // Allow the target anywhere among the files (mirrors `pfg`).
            let target = rest
                .iter()
                .find(|a| !a.ends_with(".java"))
                .ok_or_else(|| {
                    usage_err("usage: anek explain [flags] <file.java>... <Class.method>")
                })?
                .clone();
            let files: Vec<String> = rest.into_iter().filter(|a| a != &target).collect();
            let (class, method) =
                target.split_once('.').ok_or_else(|| usage_err("target must be Class.method"))?;
            let sources = read_sources(&files)?;
            let pipeline = flags.apply(Pipeline::from_sources(&sources)?)?;
            let result = pipeline.infer();
            flags.write_trace(&result)?;
            let id = MethodId::new(class, method);
            let explanation = anek_core::explain_method(
                &pipeline.units,
                &pipeline.api,
                &pipeline.config,
                &result,
                &id,
            )?;
            // Anchor the report on the declaring method's source span so the
            // rendering carries the usual caret snippet.
            let mut span = java_syntax::Span::DUMMY;
            let mut file = String::new();
            let mut source: Option<&str> = None;
            for (i, unit) in pipeline.units.iter().enumerate() {
                if let Some(t) = unit.type_named(class) {
                    if let Some(m) = t.method_named(method) {
                        span = m.span;
                        file = files.get(i).cloned().unwrap_or_default();
                        source = sources.get(i).map(String::as_str);
                    }
                }
            }
            let mut diags: Vec<lint::Diagnostic> = Vec::new();
            for a in &explanation.atoms {
                let mut d = lint::Diagnostic::new(
                    lint::rules::EXPLAIN,
                    lint::Severity::Note,
                    format!("{} {}  [belief {:.2}]", a.clause, a.atom, a.belief),
                    span,
                )
                .in_method(&target)
                .in_file(&file);
                for c in &a.kind_contributors {
                    d = d.with_note(format!("kind  {}", c.render()));
                }
                for c in &a.state_contributors {
                    d = d.with_note(format!("state {}", c.render()));
                }
                diags.push(d);
            }
            if diags.is_empty() {
                diags.push(
                    lint::Diagnostic::new(
                        lint::rules::EXPLAIN,
                        lint::Severity::Note,
                        format!("{target}: no inferred annotation (empty spec)"),
                        span,
                    )
                    .in_method(&target)
                    .in_file(&file),
                );
            }
            if json {
                println!("{}", lint::to_json_array(&diags));
            } else {
                for d in &diags {
                    print!("{}", d.render(source));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "corpus" => {
            let mut small = false;
            let mut mixed = false;
            let mut profile: Option<String> = None;
            let mut families: Vec<String> = Vec::new();
            let mut dir: Option<String> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--small" {
                    small = true;
                } else if a == "--mixed" {
                    mixed = true;
                } else if a == "--profile" {
                    let p = it.next().ok_or_else(|| {
                        usage_err("--profile needs `small`, `aliasing` or `callback`")
                    })?;
                    if p != "small" && p != "aliasing" && p != "callback" {
                        return Err(usage_err(format!("--profile: unknown profile `{p}`")));
                    }
                    profile = Some(p.clone());
                } else if a == "--families" {
                    let list = it
                        .next()
                        .ok_or_else(|| usage_err("--families needs a comma-separated list"))?;
                    families = parse_protocols(list)?;
                } else if a.starts_with("--") {
                    return Err(usage_err(format!("unknown corpus flag `{a}`")));
                } else {
                    dir = Some(a.clone());
                }
            }
            let dir = dir.ok_or_else(|| {
                usage_err(
                    "usage: anek corpus <dir> [--small | --mixed [--profile P] [--families L]]",
                )
            })?;
            let corpus = if mixed {
                let mut cfg = match profile.as_deref() {
                    Some("aliasing") => corpus::MixedConfig::aliasing_heavy(),
                    Some("callback") => corpus::MixedConfig::callback_heavy(),
                    _ => corpus::MixedConfig::small(),
                };
                cfg.families = families;
                corpus::generate_mixed(&cfg)
            } else {
                if profile.is_some() || !families.is_empty() {
                    return Err(usage_err("--profile/--families require --mixed"));
                }
                let cfg =
                    if small { corpus::PmdConfig::small() } else { corpus::PmdConfig::paper() };
                corpus::generate(&cfg)
            };
            let n = corpus.write_to_dir(std::path::Path::new(&dir))?;
            eprintln!(
                "wrote {n} classes ({} lines, {} methods, {} next() calls) to {dir}",
                corpus.stats.lines, corpus.stats.methods, corpus.stats.next_calls
            );
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let mut stdio = false;
            let mut socket: Option<String> = None;
            let mut store_dir: Option<String> = None;
            let mut threads: Option<usize> = None;
            let mut trace = false;
            let mut protocols: Vec<String> = Vec::new();
            let mut opts = ServerOptions::default();
            let mut it = rest.iter();
            let num =
                |flag: &str, value: Option<&String>| -> Result<usize, Box<dyn std::error::Error>> {
                    let v = value.ok_or_else(|| usage_err(format!("{flag} needs a number")))?;
                    v.parse().map_err(|_| usage_err(format!("{flag}: bad number `{v}`")))
                };
            while let Some(a) = it.next() {
                if a == "--stdio" {
                    stdio = true;
                } else if a == "--socket" {
                    socket =
                        Some(it.next().ok_or_else(|| usage_err("--socket needs a path"))?.clone());
                } else if a == "--store" {
                    store_dir = Some(
                        it.next().ok_or_else(|| usage_err("--store needs a directory"))?.clone(),
                    );
                } else if a == "--threads" {
                    threads = Some(num("--threads", it.next())?);
                } else if a == "--trace" {
                    trace = true;
                } else if a == "--workers" {
                    opts.workers = num("--workers", it.next())?.max(1);
                } else if a == "--admission-cap" {
                    opts.policy.reject_depth = num("--admission-cap", it.next())?;
                } else if a == "--screen-depth" {
                    opts.policy.screen_depth = num("--screen-depth", it.next())?;
                } else if a == "--retry-after-ms" {
                    opts.policy.retry_after_ms = num("--retry-after-ms", it.next())? as u64;
                } else if a == "--memory-budget-mb" {
                    opts.memory_budget_bytes = num("--memory-budget-mb", it.next())? * 1024 * 1024;
                } else if a == "--max-request-bytes" {
                    opts.max_request_bytes = num("--max-request-bytes", it.next())?;
                } else if a == "--protocols" {
                    let list = it.next().ok_or_else(|| {
                        usage_err("--protocols needs a comma-separated family list (or `all`)")
                    })?;
                    protocols = parse_protocols(list)?;
                } else {
                    return Err(usage_err(format!("unknown serve argument `{a}`")));
                }
            }
            if stdio == socket.is_some() {
                return Err(usage_err("serve needs exactly one of --stdio or --socket PATH"));
            }
            let mut config = anek_core::InferConfig::default();
            if let Some(t) = threads {
                config.threads = t;
            }
            config.trace = trace;
            config.protocols = protocols;
            let store = match &store_dir {
                Some(dir) => Some(Arc::new(
                    store::Store::open(dir).map_err(|e| format!("--store {dir}: {e}"))?,
                )),
                None => None,
            };
            let max_request_bytes = opts.max_request_bytes;
            let server = Server::start(config, store, opts);
            if stdio {
                serve_stdio(server, max_request_bytes)?;
            } else {
                serve_socket(server, socket.as_deref().expect("checked above"), max_request_bytes)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage_err(format!("unknown command `{other}`"))),
    }
}

/// One line from a bounded reader: the reader never buffers more than the
/// configured maximum, so an oversized (or maliciously endless) request
/// costs a structured error, not memory.
enum BoundedLine {
    /// A complete line within the limit (newline stripped).
    Line(String),
    /// A line longer than the limit; carries the discarded byte count.
    Oversized(usize),
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes. Once the
/// limit is crossed the rest of the line is consumed and discarded, so the
/// stream stays aligned on the next line.
fn read_bounded_line(
    reader: &mut impl std::io::BufRead,
    max: usize,
) -> std::io::Result<BoundedLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarded = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if discarded > 0 {
                BoundedLine::Oversized(discarded)
            } else if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if discarded > 0 || buf.len() + take > max {
            // Over the limit: stop buffering, keep counting and skipping.
            discarded += buf.len() + take;
            buf.clear();
            reader.consume(take + usize::from(newline.is_some()));
            if newline.is_some() {
                return Ok(BoundedLine::Oversized(discarded));
            }
        } else {
            buf.extend_from_slice(&chunk[..take]);
            reader.consume(take + usize::from(newline.is_some()));
            if newline.is_some() {
                return Ok(BoundedLine::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
        }
    }
}

/// Pumps one transport connection: reads bounded lines into the client,
/// closing the request stream at EOF.
fn pump_requests(
    mut client: anek::Client,
    mut reader: impl std::io::BufRead,
    max_request_bytes: usize,
) {
    loop {
        match read_bounded_line(&mut reader, max_request_bytes) {
            Ok(BoundedLine::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                client.send(&line);
            }
            Ok(BoundedLine::Oversized(bytes)) => {
                client.send_oversized(bytes);
            }
            Ok(BoundedLine::Eof) | Err(_) => break,
        }
    }
    client.close();
}

/// Serves line-delimited JSON over stdin/stdout until EOF or `shutdown`.
fn serve_stdio(server: Server, max_request_bytes: usize) -> Result<(), Box<dyn std::error::Error>> {
    let client = server.connect();
    let responses = client.responses();
    server.detach();
    std::thread::spawn(move || pump_requests(client, std::io::stdin().lock(), max_request_bytes));
    let mut out = std::io::stdout().lock();
    while let Some((line, _)) = responses.pop() {
        writeln!(out, "{line}")?;
        out.flush()?;
    }
    Ok(())
}

/// Removes the socket file when the daemon exits cleanly.
#[cfg(unix)]
struct SocketGuard(std::path::PathBuf);

#[cfg(unix)]
impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Serves concurrent clients over a Unix socket until `shutdown`.
#[cfg(unix)]
fn serve_socket(
    server: Server,
    path: &str,
    max_request_bytes: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    use std::os::unix::fs::FileTypeExt;
    // Unlink a stale socket left by a crashed daemon, but refuse to clobber
    // a path that is some other kind of file.
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => {
            let _ = std::fs::remove_file(path);
        }
        Ok(_) => {
            return Err(format!("--socket {path}: path exists and is not a socket").into());
        }
        Err(_) => {}
    }
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("--socket {path}: {e}"))?;
    let _guard = SocketGuard(std::path::PathBuf::from(path));
    listener.set_nonblocking(true)?;
    eprintln!("anek serve: listening on {path}");
    let mut handlers = Vec::new();
    while !server.stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                let client = server.connect();
                let responses = client.responses();
                let reader = std::io::BufReader::new(stream.try_clone()?);
                std::thread::spawn(move || pump_requests(client, reader, max_request_bytes));
                handlers.push(std::thread::spawn(move || {
                    let mut writer = std::io::BufWriter::new(stream);
                    while let Some((line, _)) = responses.pop() {
                        if writeln!(writer, "{line}").and_then(|()| writer.flush()).is_err() {
                            break;
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e.into()),
        }
    }
    // The drain is done: hang up every outbox so writers finish flushing.
    server.join();
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(
    _server: Server,
    _path: &str,
    _max_request_bytes: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    Err("--socket is only supported on Unix; use --stdio".into())
}
