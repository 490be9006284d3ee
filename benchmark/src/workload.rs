//! The four workloads: inputs generated from the seed, the canonical
//! configuration, the timed batch loop, and the correctness checks.

use crate::report::Outcome;
use crate::stats;
use anek::anek_core::{InferConfig, InferResult, MethodOutcome};
use anek::corpus::{generate, generate_mixed, MixedConfig, PmdConfig, PmdCorpus};
use anek::java_syntax::{print_unit, CompilationUnit};
use anek::plural::{self, SpecTable};
use anek::{bitstate, Pipeline};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A scaled-down PMD-shaped Iterator corpus, two threads, no
    /// screening: model building and BP do the work.
    PmdFull,
    /// The same corpus with the bit-vector screening pre-pass on.
    PmdScreen,
    /// A mixed-protocol corpus with every family's API, one thread.
    MixedAll,
    /// One `ServeSession` client editing `PmdScreen`'s corpus.
    ServeEdits,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::PmdFull, Workload::PmdScreen, Workload::MixedAll, Workload::ServeEdits];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PmdFull => "pmd_full",
            Workload::PmdScreen => "pmd_screen",
            Workload::MixedAll => "mixed_all",
            Workload::ServeEdits => "serve_edits",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inference worker threads. Two is this benchmark's `nproc`; the mixed
    /// workload runs sequentially so it exercises the kernel on differently
    /// shaped factors without the parallel worklist.
    fn threads(self) -> usize {
        if self == Workload::MixedAll {
            1
        } else {
            2
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A generated program, as a user would hand it to `anek`.
pub struct Input {
    /// The generator's output: parsed units plus planted bugs and traps.
    pub corpus: PmdCorpus,
    /// One Java source per unit.
    pub sources: Vec<String>,
    /// `<Class>.java` per source.
    pub names: Vec<String>,
}

impl Input {
    /// Generates the workload's program from `seed`. The seed only moves
    /// constants and loop shapes; the class and method counts are fixed, so
    /// every seed costs about the same to analyze.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        let corpus = match workload {
            Workload::MixedAll => generate_mixed(&mixed_config(seed)),
            _ => generate(&pmd_config(seed)),
        };
        let sources: Vec<String> = corpus.units.iter().map(print_unit).collect();
        let names = corpus
            .units
            .iter()
            .map(|u| format!("{}.java", u.types.first().map_or("Unnamed", |t| t.name.as_str())))
            .collect();
        Input { corpus, sources, names }
    }

    /// Methods with a body: the worklist's size.
    pub fn bodied_methods(&self) -> usize {
        self.corpus
            .units
            .iter()
            .flat_map(CompilationUnit::methods)
            .filter(|(_, m)| m.body.is_some())
            .count()
    }
}

/// The PMD-shaped corpus at 1/40 of Table 1's class and method counts,
/// with one planted bug, one branch trap and one state test, and the
/// paper's 3:1 ratio of local loops (which screening skips) to helper loops
/// (which need inference). An inference over the full 463-class corpus
/// takes about a minute, longer than one benchmark run may.
pub fn pmd_config(seed: u64) -> PmdConfig {
    PmdConfig {
        seed,
        helper_classes: 1,
        local_loops: 6,
        helper_loops: 2,
        buggy_sites: 1,
        branch_traps: 1,
        state_tests: 1,
        total_classes: 12,
        total_methods: 78,
    }
}

/// Two protocol families with the widest models, Builder's nested states
/// and Lock's `isHeld` indicator: one local use, one planted bug and one
/// trap per family. All six families take about 8 s per inference.
pub fn mixed_config(seed: u64) -> MixedConfig {
    MixedConfig {
        seed,
        families: vec!["Builder".to_string(), "Lock".to_string()],
        local_uses: 1,
        helper_uses: 0,
        aliased_uses: 0,
        callback_uses: 0,
        buggy_sites: 1,
        aliased_bugs: 0,
        traps: 1,
        filler_classes: 1,
    }
}

/// The canonical configuration: `InferConfig::default()` except that
/// `max_iters` is three solves per bodied method, which drains the worklist
/// (the default of 64 stops it early), and the workload's threads,
/// screening and protocol selection. The schedule stays at its default so
/// that a change of default shows up here.
pub fn infer_config(workload: Workload, input: &Input) -> InferConfig {
    InferConfig {
        max_iters: 3 * input.bodied_methods(),
        threads: workload.threads(),
        screen: matches!(workload, Workload::PmdScreen | Workload::ServeEdits),
        protocols: protocols(workload),
        ..InferConfig::default()
    }
}

fn protocols(workload: Workload) -> Vec<String> {
    match workload {
        Workload::MixedAll => vec!["all".to_string()],
        _ => Vec::new(),
    }
}

/// Parses the sources into a configured pipeline.
pub fn pipeline(workload: Workload, input: &Input) -> Pipeline {
    Pipeline::from_sources(&input.sources)
        .expect("generated sources parse")
        .with_config(infer_config(workload, input))
        .with_protocols(&protocols(workload))
        .expect("built-in protocol families")
}

/// Checks an inference result against what the generator planted. The
/// checks hold for any seed. Returns one message per failed check.
pub fn check_result(
    workload: Workload,
    input: &Input,
    pipeline: &Pipeline,
    result: &InferResult,
) -> Vec<String> {
    let corpus = &input.corpus;
    let units = &pipeline.units;
    let overlay = SpecTable::from_units(units).overlay_inferred(&result.specs);
    let mut problems = Vec::new();
    if result.failed_count() > 0 {
        problems.push(format!("{} methods failed", result.failed_count()));
    }
    if workload == Workload::MixedAll {
        // Every planted protocol bug is flagged by the bit-vector checker
        // once the inferred specs are in place.
        let specs = anek::check::program_specs(&overlay, units);
        let report = bitstate::check_program(units, &pipeline.api, &specs);
        let flagged: BTreeSet<String> = report
            .methods
            .iter()
            .filter(|(_, r)| !r.findings.is_empty())
            .map(|(id, _)| id.to_string())
            .collect();
        for bug in &corpus.bugs {
            if !flagged.contains(&bug.method.to_string()) {
                problems.push(format!("planted {} bug {} not flagged", bug.family, bug.method));
            }
        }
    } else {
        // PLURAL with the inferred overlay flags every planted bug, and
        // warns at most once more per branch trap than with the gold
        // annotations (the paper's branch-insensitivity warning).
        let after = plural::check(units, &pipeline.api, &overlay);
        let flagged: BTreeSet<String> =
            after.warnings.iter().map(|w| w.method.to_string()).collect();
        for bug in &corpus.bugs {
            if !flagged.contains(&bug.method.to_string()) {
                problems.push(format!("planted bug {} not flagged", bug.method));
            }
        }
        let mut gold = SpecTable::unannotated(units);
        for (id, spec) in &corpus.gold {
            gold.insert(id.clone(), spec.clone());
        }
        let gold_warnings = plural::check(units, &pipeline.api, &gold).warnings.len();
        // A screened method gets no spec by design, so PLURAL may warn
        // inside it; screening only promises the other methods' results.
        let screened = |w: &&plural::Warning| {
            result.outcomes.get(&w.method).is_some_and(MethodOutcome::is_screened)
        };
        let inferred_warnings = after.warnings.iter().filter(|w| !screened(w)).count();
        if inferred_warnings > gold_warnings + corpus.traps.len() {
            problems.push(format!(
                "{inferred_warnings} warnings with inferred specs, more than {gold_warnings} gold + {} traps",
                corpus.traps.len()
            ));
        }
    }
    problems
}

/// FNV-1a digest of every inferred spec, rendered one per line.
pub fn spec_digest(result: &InferResult) -> u64 {
    let mut text = String::new();
    for (id, spec) in &result.specs {
        text.push_str(&format!("{id}: requires {}; ensures {}\n", spec.requires, spec.ensures));
    }
    stats::fnv1a(text.as_bytes())
}

/// Set-ups timed after each request; `setup_s` is the median of all of
/// them. A set-up takes about a millisecond, so many are needed for a
/// steady median, and spreading them over the run keeps a short slow spell
/// of the shared host from setting it.
const SETUPS_PER_REQUEST: usize = 25;

/// The untraced run of a batch workload: set up, then until `seconds` have
/// passed, call `Pipeline::infer` and time [`SETUPS_PER_REQUEST`] more
/// set-ups.
pub fn run_batch(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new(workload, false);
    let set_up = || {
        let t = Instant::now();
        let input = Input::generate(workload, seed);
        let pipeline = pipeline(workload, &input);
        (t.elapsed().as_secs_f64(), input, pipeline)
    };
    // The first set-up is not timed: a fresh process's first milliseconds
    // run at whatever clock the idle core was at, which makes a
    // millisecond-scale set-up read slow or fast by whole runs.
    let (_, input, pipeline) = set_up();
    let (mut wall, mut setups) = (Vec::new(), Vec::new());
    let mut digest = None;
    let start = Instant::now();
    while wall.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let result = pipeline.infer();
        wall.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        out.failed += usize::from(result.failed_count() > 0);
        if out.attempted == 1 {
            // Peak memory of set-up plus one request: what a one-shot
            // `anek infer` needs. Later requests only add allocator
            // fragmentation that depends on how many fit in the run.
            out.set("peak_rss_mb", stats::peak_rss_mb());
        }
        let d = spec_digest(&result);
        match digest {
            None => {
                out.problems.extend(check_result(workload, &input, &pipeline, &result));
                out.notes.push(format!(
                    "{} methods, {} solves, {} message updates, spec digest {d:016x}",
                    input.bodied_methods(),
                    result.solves,
                    result.message_updates
                ));
                digest = Some(d);
            }
            Some(first) if first != d => out.problems.push("specs differ between runs".into()),
            Some(_) => {}
        }
        setups.extend((0..SETUPS_PER_REQUEST).map(|_| set_up().0));
    }
    out.set_sampled("setup_s", stats::median(&setups), setups.len());
    out.notes.push(format!(
        "{} requests, median {:.1} ms (anek.request_p50_ms in the traced run)",
        wall.len(),
        stats::median(&wall)
    ));
    out
}
