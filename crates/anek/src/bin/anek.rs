//! The `anek` command-line tool — the reproduction's equivalent of the
//! paper's Eclipse plugin pipeline (Figure 10). `USAGE` below lists each
//! subcommand's flags; `flag_table` holds the same lists, and a flag a
//! subcommand does not read is a usage error (exit 2).
//!
//! ```text
//! infer     infer specs and print them. --inject replays a fault plan
//!           (corpus::faults format); --outcomes appends the per-method
//!           outcome table (method<TAB>status<TAB>detail); --screen runs
//!           the bit-vector pre-pass and skips BP solves for provably-clean
//!           isolated methods. Exit 0: every source parsed and every
//!           method solved. Exit 3: completed partially (a source was
//!           skipped or a method's solve failed); the printed specs cover
//!           the healthy remainder.
//! check     verify client code against declared specs (plus ANEK-inferred
//!           ones under --infer): the bit-vector engine reports
//!           CHK001/CHK002 diagnostics with caret snippets or JSON;
//!           --engine plural runs the fractional-permission checker
//!           instead; --cross-validate runs bitstate, PLURAL and the
//!           PROT001 lint side by side and reports per-method verdict
//!           disagreements
//! lint      run the deterministic dataflow lints (PROT/SPEC rules) and
//!           optionally the IR verifier; exit non-zero on errors
//! pipeline  infer, apply, re-check; print the annotated program (or write
//!           one file per parsed input into --out DIR) and report both
//!           warning counts
//! pfg       dump a method's Permissions Flow Graph as DOT
//! explain   infer specs, then report *why* the target method's annotation
//!           was inferred: one EXPL001 diagnostic per spec atom with the
//!           contributing factor families (PROT, WEAKEN, neighbor
//!           evidence/summaries) as signed log-odds notes; caret snippet or
//!           --json. The report is byte-identical for any thread count
//! corpus    materialize the PMD-shaped synthetic corpus as .java files
//!           under <dir>; --mixed generates the registry-driven
//!           mixed-protocol corpus instead (every protocol family, or
//!           --families LIST), with --profile selecting the workload mix
//! serve     long-running multi-session inference daemon speaking
//!           line-delimited JSON (see anek::serve): named sessions share
//!           one store, stacked edits coalesce, deep queues shed load
//!           (screen, then reject with retry_after_ms), and a memory budget
//!           evicts idle sessions' heavyweight state
//! ```
//!
//! Every subcommand that reads Java files reads them through one loader
//! (`load`): under `--inject` it applies the plan's source faults and
//! parses leniently, so a garbled file is reported as skipped and costs
//! only itself. `--store DIR` attaches the persistent artifact store: warm
//! runs replay memoized solves and are byte-identical to cold runs.
//! `--trace-json PATH` writes the run's deterministic trace artifact —
//! three JSON lines (spec section, deterministic counters/spans, execution
//! section); the first two are byte-identical across thread counts.
//! `serve --trace` enables the same tracing inside the daemon, exposed via
//! the `query_trace` request.

use anek::analysis::{MethodId, Pfg, ProgramIndex};
use anek::bitstate;
use anek::plural::SpecTable;
use anek::spec_lang::api_with_protocols;
use anek::{Pipeline, Server, ServerOptions};
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: anek <infer|check|lint|pipeline|pfg|explain|corpus|serve> [flags] <file.java>...

  infer    [--threads N] [--inject PLAN] [--outcomes] [--screen]
           [--max-iters N] [--store DIR] [--trace-json PATH]
           [--protocols LIST] <file.java>...
  check    [--engine bitstate|plural] [--infer] [--branch-sensitive]
           [--json] [--cross-validate] [--threads N] [--inject PLAN]
           [--screen] [--max-iters N] [--store DIR] [--protocols LIST]
           <file.java>...
  lint     [--json] [--verify-ir] <file.java>...
  pipeline [--out DIR] [--verify-ir] [--threads N] [--inject PLAN]
           [--screen] [--max-iters N] [--store DIR] [--trace-json PATH]
           [--protocols LIST] <file.java>...
  pfg      <file.java>... <Class.method>
  explain  [--json] [--threads N] [--inject PLAN] [--screen]
           [--max-iters N] [--store DIR] [--trace-json PATH]
           [--protocols LIST] <file.java>... <Class.method>
  corpus   <dir> [--small | --mixed [--profile small|aliasing|callback]
           [--families LIST]]
  serve    (--stdio | --socket PATH) [--store DIR] [--threads N]
           [--trace] [--workers N] [--admission-cap N]
           [--screen-depth N] [--retry-after-ms MS]
           [--memory-budget-mb MB] [--max-request-bytes N]
           [--protocols LIST]

`--protocols LIST` selects protocol families from the built-in library as
a comma-separated list (e.g. `Iterator,File,Lock`) or `all`; default is
the standard Iterator+Stream selection.

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

impl Error for UsageError {}

fn usage_err(message: impl Into<String>) -> Box<dyn Error> {
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
    match Args::parse(cmd, rest).and_then(|args| run(cmd, &args)) {
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

/// The flags `cmd` reads, as space-separated lists: its switches, then the
/// flags that take a value. A subcommand lists a flag only if it reads it.
fn flag_table(cmd: &str) -> Option<(&'static str, &'static str)> {
    Some(match cmd {
        "infer" => (
            "--outcomes --screen",
            "--threads --inject --max-iters --store --trace-json --protocols",
        ),
        "check" => (
            "--infer --branch-sensitive --json --cross-validate --screen",
            "--engine --threads --inject --max-iters --store --protocols",
        ),
        "lint" => ("--json --verify-ir", ""),
        "pipeline" => (
            "--verify-ir --screen",
            "--out --threads --inject --max-iters --store --trace-json --protocols",
        ),
        "pfg" => ("", ""),
        "explain" => {
            ("--json --screen", "--threads --inject --max-iters --store --trace-json --protocols")
        }
        "corpus" => ("--small --mixed", "--profile --families"),
        "serve" => (
            "--stdio --trace",
            "--socket --store --threads --workers --admission-cap --screen-depth \
             --retry-after-ms --memory-budget-mb --max-request-bytes --protocols",
        ),
        _ => return None,
    })
}

/// One invocation's arguments, split by its subcommand's [`flag_table`].
#[derive(Default)]
struct Args {
    switches: Vec<&'static str>,
    /// Valued flags in argument order; the last occurrence of a flag wins.
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `argv` into `cmd`'s flags and the positional arguments;
    /// anything else starting with `--` is a usage error.
    fn parse(cmd: &str, argv: &[String]) -> Result<Args, Box<dyn Error>> {
        let (switches, valued) =
            flag_table(cmd).ok_or_else(|| usage_err(format!("unknown command `{cmd}`")))?;
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = switches.split_whitespace().find(|f| f == a) {
                args.switches.push(flag);
            } else if let Some(flag) = valued.split_whitespace().find(|f| f == a) {
                let value = it.next().ok_or_else(|| usage_err(format!("{flag} needs a value")))?;
                args.values.push((flag, value.clone()));
            } else if a.starts_with("--") {
                return Err(usage_err(format!("unknown flag `{a}`")));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn on(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn num(&self, flag: &str) -> Result<Option<usize>, Box<dyn Error>> {
        let parse = |v: &str| v.parse().map_err(|_| usage_err(format!("{flag}: bad number `{v}`")));
        self.value(flag).map(parse).transpose()
    }
}

/// Splits and validates a `--protocols` list against the built-in
/// registry so an unknown family fails before any input is read, with the
/// list of available names.
fn parse_protocols(list: &str) -> Result<Vec<String>, Box<dyn Error>> {
    let names: Vec<String> =
        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if names.is_empty() {
        return Err(usage_err("--protocols needs a comma-separated family list (or `all`)"));
    }
    api_with_protocols(&names).map_err(|e| usage_err(e.to_string()))?;
    Ok(names)
}

/// Sets the inference flags present in `args` on `config`: protocols,
/// threads (0 = one per core), screen, max-iters and trace. Shared by
/// [`load`] and `serve`.
fn configure(args: &Args, config: &mut anek_core::InferConfig) -> Result<(), Box<dyn Error>> {
    if let Some(list) = args.value("--protocols") {
        config.protocols = parse_protocols(list)?;
    }
    if let Some(n) = args.num("--threads")? {
        config.threads = n;
    }
    if let Some(n) = args.num("--max-iters")? {
        if n == 0 {
            return Err(usage_err("--max-iters must be positive"));
        }
        config.max_iters = n;
    }
    config.screen = args.on("--screen");
    config.trace = args.on("--trace") || args.value("--trace-json").is_some();
    Ok(())
}

/// Opens the `--store` directory, if one was given.
fn open_store(args: &Args) -> Result<Option<Arc<store::Store>>, Box<dyn Error>> {
    let open = |dir: &str| match store::Store::open(dir) {
        Ok(store) => Ok(Arc::new(store)),
        Err(e) => Err(format!("--store {dir}: {e}").into()),
    };
    args.value("--store").map(open).transpose()
}

/// A configured pipeline with the name and text of each parsed unit's
/// file, in unit order: a skipped input has neither, so it never shifts
/// another unit's file.
struct Input {
    pipeline: Pipeline,
    files: Vec<String>,
    sources: Vec<String>,
}

/// Reads `files` and builds their pipeline from the inference flags in
/// `args`. Under `--inject` the plan's source faults are applied and
/// parsing is lenient: a file that fails to parse is skipped with a
/// warning. Without it the first parse error fails the run.
fn load(args: &Args, files: &[String]) -> Result<Input, Box<dyn Error>> {
    let mut config = anek_core::InferConfig::default();
    configure(args, &mut config)?;
    let plan = match args.value("--inject") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(corpus::FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    if files.is_empty() {
        return Err(usage_err("no input files"));
    }
    let mut sources = files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let pipeline = match &plan {
        Some(plan) => {
            plan.apply_sources(&mut sources);
            plan.apply_config(&mut config);
            Pipeline::from_sources_lenient(&sources)
        }
        None => Pipeline::from_sources(&sources)?,
    };
    for s in &pipeline.skipped_sources {
        eprintln!("warning: skipped {}: {}", files[s.index], s.error);
    }
    let skipped = |i: &usize| pipeline.skipped_sources.iter().any(|s| s.index == *i);
    let (files, sources) = files
        .iter()
        .cloned()
        .zip(sources)
        .enumerate()
        .filter(|(i, _)| !skipped(i))
        .map(|(_, input)| input)
        .unzip();
    let protocols = config.protocols.clone();
    let mut pipeline = pipeline
        .with_config(config)
        .with_protocols(&protocols)
        .map_err(|e| usage_err(e.to_string()))?;
    pipeline.store = open_store(args)?;
    Ok(Input { pipeline, files, sources })
}

/// Splits `explain`/`pfg` positionals into the `Class.method` target, the
/// one argument anywhere among them that does not end in `.java`, and the
/// input files.
fn split_target(positional: &[String]) -> Result<(&str, &str, Vec<String>), Box<dyn Error>> {
    let target = positional
        .iter()
        .find(|a| !a.ends_with(".java"))
        .ok_or_else(|| usage_err("missing the <Class.method> target"))?;
    let (class, method) =
        target.split_once('.').ok_or_else(|| usage_err("target must be Class.method"))?;
    Ok((class, method, positional.iter().filter(|a| *a != target).cloned().collect()))
}

/// Writes the run's deterministic trace to the `--trace-json` path, if one
/// was given. The artifact is the trace's canonical three-line rendering
/// (see `observe::Trace::render`).
fn write_trace(args: &Args, result: &anek_core::InferResult) -> Result<(), Box<dyn Error>> {
    let Some(path) = args.value("--trace-json") else { return Ok(()) };
    let trace = result.trace.as_ref().ok_or("internal: tracing was enabled but absent")?;
    std::fs::write(path, trace.render()).map_err(|e| format!("--trace-json {path}: {e}"))?;
    Ok(())
}

/// Maps each diagnostic's `Class.method` context back to the input file
/// that declares the class, attaches it, and re-sorts (reporting order is
/// file-first once files are known).
fn attach_files(diags: Vec<lint::Diagnostic>, input: &Input) -> Vec<lint::Diagnostic> {
    let units = &input.pipeline.units;
    let mut diags: Vec<lint::Diagnostic> = diags
        .into_iter()
        .map(|d| {
            let class = d.method.split('.').next().unwrap_or("");
            match units.iter().position(|u| u.type_named(class).is_some()) {
                Some(i) => d.in_file(input.files[i].clone()),
                None => d,
            }
        })
        .collect();
    lint::sort_diagnostics(&mut diags);
    diags
}

/// Prints diagnostics as one JSON array, or each with the caret snippet
/// of its file's text.
fn print_diagnostics(diags: &[lint::Diagnostic], json: bool, input: &Input) {
    if json {
        println!("{}", lint::to_json_array(diags));
        return;
    }
    for d in diags {
        let source = input.files.iter().position(|f| *f == d.file).map(|i| &*input.sources[i]);
        print!("{}", d.render(source));
    }
}

fn run(cmd: &str, args: &Args) -> Result<ExitCode, Box<dyn Error>> {
    match cmd {
        "infer" => {
            let input = load(args, &args.positional)?;
            let pipeline = &input.pipeline;
            let result = pipeline.infer();
            write_trace(args, &result)?;
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
            if args.on("--outcomes") {
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
            if args.on("--screen") {
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
            let engine = args.value("--engine").unwrap_or("bitstate");
            if engine != "bitstate" && engine != "plural" {
                return Err(usage_err(format!("--engine: unknown engine `{engine}`")));
            }
            let mut input = load(args, &args.positional)?;
            input.pipeline.config.branch_sensitive = args.on("--branch-sensitive");
            let pipeline = &input.pipeline;
            let mut table = SpecTable::from_units(&pipeline.units);
            if args.on("--infer") {
                let result = pipeline.infer();
                eprintln!(
                    "inferred {} specs with {} model solves in {:?}",
                    result.annotation_count(),
                    result.solves,
                    result.elapsed
                );
                table = table.overlay_inferred(&result.specs);
            }
            if args.on("--cross-validate") {
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
            let diags = attach_files(anek::check::diagnostics(&report), &input);
            print_diagnostics(&diags, args.on("--json"), &input);
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
            let input = load(args, &args.positional)?;
            let opts = lint::LintOptions { verify_ir: args.on("--verify-ir") };
            let pipeline = &input.pipeline;
            let diags =
                attach_files(lint::lint_units(&pipeline.units, &pipeline.api, &opts), &input);
            print_diagnostics(&diags, args.on("--json"), &input);
            let errors = diags.iter().filter(|d| d.severity == lint::Severity::Error).count();
            eprintln!(
                "{} diagnostics ({errors} errors) across {} files",
                diags.len(),
                input.files.len()
            );
            Ok(if errors == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "pipeline" => {
            let mut input = load(args, &args.positional)?;
            input.pipeline.verify_ir = args.on("--verify-ir");
            let pipeline = &input.pipeline;
            let report = pipeline.run();
            write_trace(args, &report.inference)?;
            match args.value("--out") {
                Some(dir) => {
                    // One annotated file per parsed input, under its name.
                    std::fs::create_dir_all(dir)?;
                    let (annotated, _) =
                        anek::apply_specs(&pipeline.units, &report.inference.specs);
                    for (unit, file) in annotated.iter().zip(&input.files) {
                        let name = std::path::Path::new(file)
                            .file_name()
                            .ok_or("input has no file name")?;
                        let path = std::path::Path::new(dir).join(name);
                        std::fs::write(&path, java_syntax::print_unit(unit))?;
                    }
                    eprintln!("wrote {} annotated files to {dir}", annotated.len());
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
            let (class, method, files) = split_target(&args.positional)?;
            let input = load(args, &files)?;
            let pipeline = &input.pipeline;
            let index = ProgramIndex::build(pipeline.units.iter());
            let m = pipeline
                .units
                .iter()
                .find_map(|u| u.type_named(class)?.method_named(method))
                .ok_or_else(|| format!("method {} not found", MethodId::new(class, method)))?;
            print!("{}", Pfg::build(&index, &pipeline.api, class, m).to_dot());
            Ok(ExitCode::SUCCESS)
        }
        "explain" => {
            let (class, method, files) = split_target(&args.positional)?;
            let target = format!("{class}.{method}");
            let input = load(args, &files)?;
            let pipeline = &input.pipeline;
            let result = pipeline.infer();
            write_trace(args, &result)?;
            let explanation = anek_core::explain_method(
                &pipeline.units,
                &pipeline.api,
                &pipeline.config,
                &result,
                &MethodId::new(class, method),
            )?;
            // Anchor the report on the declaring method's source span so the
            // rendering carries the usual caret snippet.
            let (span, file) = pipeline
                .units
                .iter()
                .zip(&input.files)
                .rev()
                .find_map(|(u, f)| Some((u.type_named(class)?.method_named(method)?.span, f)))
                .map_or((java_syntax::Span::DUMMY, ""), |(span, f)| (span, f.as_str()));
            let note = |message: String| {
                lint::Diagnostic::new(lint::rules::EXPLAIN, lint::Severity::Note, message, span)
                    .in_method(&target)
                    .in_file(file)
            };
            let mut diags: Vec<lint::Diagnostic> = Vec::new();
            for a in &explanation.atoms {
                let mut d = note(format!("{} {}  [belief {:.2}]", a.clause, a.atom, a.belief));
                for c in &a.kind_contributors {
                    d = d.with_note(format!("kind  {}", c.render()));
                }
                for c in &a.state_contributors {
                    d = d.with_note(format!("state {}", c.render()));
                }
                diags.push(d);
            }
            if diags.is_empty() {
                diags.push(note(format!("{target}: no inferred annotation (empty spec)")));
            }
            print_diagnostics(&diags, args.on("--json"), &input);
            Ok(ExitCode::SUCCESS)
        }
        "corpus" => {
            let [dir] = args.positional.as_slice() else {
                return Err(usage_err(
                    "usage: anek corpus <dir> [--small | --mixed [--profile P] [--families L]]",
                ));
            };
            let profile = args.value("--profile");
            if let Some(p) = profile.filter(|p| !["small", "aliasing", "callback"].contains(p)) {
                return Err(usage_err(format!("--profile: unknown profile `{p}`")));
            }
            let families = args.value("--families").map(parse_protocols).transpose()?;
            let corpus = if args.on("--mixed") {
                let mut cfg = match profile {
                    Some("aliasing") => corpus::MixedConfig::aliasing_heavy(),
                    Some("callback") => corpus::MixedConfig::callback_heavy(),
                    _ => corpus::MixedConfig::small(),
                };
                cfg.families = families.unwrap_or_default();
                corpus::generate_mixed(&cfg)
            } else {
                if profile.is_some() || families.is_some() {
                    return Err(usage_err("--profile/--families require --mixed"));
                }
                let small = args.on("--small");
                let cfg =
                    if small { corpus::PmdConfig::small() } else { corpus::PmdConfig::paper() };
                corpus::generate(&cfg)
            };
            let n = corpus.write_to_dir(std::path::Path::new(dir))?;
            eprintln!(
                "wrote {n} classes ({} lines, {} methods, {} next() calls) to {dir}",
                corpus.stats.lines, corpus.stats.methods, corpus.stats.next_calls
            );
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            if let Some(a) = args.positional.first() {
                return Err(usage_err(format!("serve takes no argument `{a}`")));
            }
            let socket = args.value("--socket");
            if args.on("--stdio") == socket.is_some() {
                return Err(usage_err("serve needs exactly one of --stdio or --socket PATH"));
            }
            let mut config = anek_core::InferConfig::default();
            configure(args, &mut config)?;
            let mut opts = ServerOptions::default();
            if let Some(n) = args.num("--workers")? {
                opts.workers = n.max(1);
            }
            if let Some(n) = args.num("--admission-cap")? {
                opts.policy.reject_depth = n;
            }
            if let Some(n) = args.num("--screen-depth")? {
                opts.policy.screen_depth = n;
            }
            if let Some(n) = args.num("--retry-after-ms")? {
                opts.policy.retry_after_ms = n as u64;
            }
            if let Some(n) = args.num("--memory-budget-mb")? {
                opts.memory_budget_bytes = n.saturating_mul(1024 * 1024);
            }
            if let Some(n) = args.num("--max-request-bytes")? {
                opts.max_request_bytes = n;
            }
            let store = open_store(args)?;
            let max_request_bytes = opts.max_request_bytes;
            let server = Server::start(config, store, opts);
            match socket {
                Some(path) => serve_socket(server, path, max_request_bytes)?,
                None => serve_stdio(server, max_request_bytes)?,
            }
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("`{other}` has no flag table"),
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
fn serve_stdio(server: Server, max_request_bytes: usize) -> Result<(), Box<dyn Error>> {
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
) -> Result<(), Box<dyn Error>> {
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
) -> Result<(), Box<dyn Error>> {
    Err("--socket is only supported on Unix; use --stdio".into())
}
