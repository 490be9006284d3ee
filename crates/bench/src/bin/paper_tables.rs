//! The paper's evaluation (§4) from one run: Tables 1–4, Figure 3's
//! headline marginals, the §3.4 MaxIters sweep, the screening matrix and
//! Table 2's verdicts as a check.
//!
//! Generates the seed-42 corpus once and runs each inference configuration
//! once. The canonical run (`max_iters` = 3 × methods, threads 1,
//! branch-insensitive, no screening) fills Table 2's Anek row, Table 4,
//! the branch-insensitive verdicts and the screening-off cell. Exits 1 when
//! a check fails: threads 2 must reproduce the canonical run; with
//! branch-sensitive specs the bit-vector checker must report `CHK001` on
//! exactly the planted bugs and no `CHK002`; bitstate, PLURAL and the
//! `PROT001` lint may disagree only where documented; at paper scale
//! every deterministic cell must equal `tests/golden/paper_tables.json`;
//! and Tables 2 and 4 must have the paper's shape
//! ([`WarningCounts::broken_claim`], [`DiffTally::broken_claim`]). On a
//! golden difference it names each cell and writes the new golden to
//! `paper_tables.json`. It also writes `BENCH_infer.json` (read by
//! `bench_gate`) and `BENCH_paper.json` (every cell, wall times and peak
//! RSS, which nothing checks) to the working directory.
//!
//! Run: `cargo run --release -p bench --bin paper_tables [-- --small]`
//! (`--small`: the small corpus, a 120-line Table 3 program whose local
//! inference sweep stops at 400 lines, no golden).

use anek::analysis::{MethodId, Pfg, ProgramIndex};
use anek::anek_core::{
    compare_specs, infer, solve_logical, DiffTally, InferConfig, InferResult, LogicalOutcome,
    SpecDiff, WarningCounts,
};
use anek::corpus::{table3_program, Table3Program};
use anek::json::{self, Json};
use anek::lint::rules;
use anek::observe::json_str;
use anek::plural::{check, local_infer_pfg, LocalInference, SpecTable};
use anek::spec_lang::{standard_api, MethodSpec, PermissionKind, SpecTarget};
use anek::Pipeline;
use bench::{fmt_duration, peak_rss_kb, row, rule, Scale};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("../../../../tests/golden/paper_tables.json");
const GOLDEN_PATH: &str = "tests/golden/paper_tables.json";

/// What the run measured: deterministic cells, which the golden pins, and
/// wall times, which nothing checks.
#[derive(Default)]
struct Report {
    cells: Vec<(String, Json)>,
    wall_ms: Vec<(String, Json)>,
    failures: Vec<String>,
}

impl Report {
    fn cell(&mut self, name: impl Into<String>, value: Json) {
        self.cells.push((name.into(), value));
    }

    fn count(&mut self, name: impl Into<String>, n: usize) {
        self.cell(name, Json::num(n));
    }

    fn wall(&mut self, name: impl Into<String>, d: Duration) {
        self.wall_ms.push((name.into(), ms(d)));
    }

    fn check(&mut self, holds: bool, what: String) {
        if !holds {
            self.failures.push(what);
        }
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let scale = Scale::from_args();
    let corpus = scale.corpus();
    let (api, s, empty) = (standard_api(), corpus.stats, MethodSpec::default());
    let mut r = Report::default();
    let run = |cfg: &InferConfig| infer(&corpus.units, &api, cfg);
    let canon_cfg = InferConfig { max_iters: 3 * s.methods, ..InferConfig::default() };

    // ---- Table 1 ----
    println!("Table 1. Simple statistics for the corpus ({scale:?} scale).\n");
    let w = &[28, 14, 14];
    rule(&["", "paper (PMD)", "measured"], w);
    for (label, paper, key, n) in [
        ("Lines of Source", "38,483", "lines", s.lines),
        ("Number of Classes", "463", "classes", s.classes),
        ("Number of Methods", "3,120", "methods", s.methods),
        ("Calls to Iterator.next()", "170", "next_calls", s.next_calls),
    ] {
        row(&[label, paper, &n.to_string()], w);
        r.count(format!("table1.{key}"), n);
    }
    if scale == Scale::Small {
        println!("\n(small scale: paper column is for reference only)");
    }

    // ---- The canonical run and its threads-2 twin ----
    let canonical = run(&canon_cfg);
    let threads2 = run(&InferConfig { threads: 2, ..canon_cfg.clone() });
    r.wall("canonical", canonical.elapsed);
    r.wall("threads2", threads2.elapsed);
    let outputs = |r: &InferResult| {
        let counts = (r.solves, r.replayed_solves, r.bp_iterations, r.message_updates);
        format!("{:?}\n{:?}\n{:?}\n{counts:?}", r.specs, r.summaries, r.outcomes)
    };
    let same = outputs(&canonical) == outputs(&threads2);
    r.check(same, "threads 2 changed the canonical run's specs, summaries or counters".into());
    for (key, n) in [
        ("solves", canonical.solves),
        ("replayed_solves", canonical.replayed_solves),
        ("bp_iterations", canonical.bp_iterations),
        ("message_updates", canonical.message_updates),
        ("annotations", canonical.annotation_count()),
    ] {
        r.count(format!("canonical.{key}"), n);
    }

    // ---- Table 2 ----
    let warnings = |table: &SpecTable| check(&corpus.units, &api, table).warnings.len();
    let unannotated = SpecTable::unannotated(&corpus.units);
    let mut gold_table = unannotated.clone();
    for (id, spec) in &corpus.gold {
        gold_table.insert(id.clone(), spec.clone());
    }
    let anek = warnings(&unannotated.clone().overlay_inferred(&canonical.specs));
    // The paper's 31 were the iterator-related subset of what ANEK
    // produced: count non-empty specs on the iterator-API classes (the
    // registries and utilities the gold set covers).
    let anek_annotations = canonical
        .specs
        .iter()
        .filter(|(id, s)| {
            !s.is_empty() && (id.class.starts_with("Registry") || id.class == "IterUtils")
        })
        .count();
    let budget = if scale == Scale::Paper { 20_000_000 } else { 200_000 };
    let logical = solve_logical(&corpus.units, &api, &InferConfig::default(), budget);
    r.wall("logical", logical.elapsed);
    let (outcome, logical_ann, logical_time) = match logical.outcome {
        LogicalOutcome::DidNotFinish => ("DNF", "N/A", "DNF".to_string()),
        LogicalOutcome::Unsatisfiable => {
            ("UNSAT", "N/A", format!("UNSAT ({})", fmt_duration(logical.elapsed)))
        }
        LogicalOutcome::Satisfiable { .. } => ("SAT", "?", fmt_duration(logical.elapsed)),
    };
    println!(
        "\nTable 2. Results on the {scale:?}-scale corpus ({} classes, {} methods, {} next() calls).\n",
        s.classes, s.methods, s.next_calls
    );
    let w = &[14, 12, 9, 14];
    rule(&["Method", "Annotations", "Warnings", "Time Taken"], w);
    let (gold, anek_time) = (warnings(&gold_table), fmt_duration(canonical.elapsed));
    let table2 = WarningCounts { original: warnings(&unannotated), gold, anek };
    for (name, key, ann, warn, time) in [
        ("Original", "original", 0, table2.original, "0"),
        ("Gold (hand)", "gold", corpus.gold.len(), gold, "75min (paper)"),
        ("Anek", "anek", anek_annotations, anek, &anek_time),
    ] {
        row(&[name, &ann.to_string(), &warn.to_string(), time], w);
        r.count(format!("table2.{key}.annotations"), ann);
        r.count(format!("table2.{key}.warnings"), warn);
    }
    row(&["Anek Logical", logical_ann, logical_ann, &logical_time], w);
    r.cell("table2.logical.outcome", Json::str(outcome));
    for (key, n) in [
        ("steps", logical.steps as usize),
        ("variables", logical.variables),
        ("constraints", logical.constraints),
        ("peak_memory_bytes", logical.peak_memory as usize),
    ] {
        r.count(format!("table2.logical.{key}"), n);
    }
    println!(
        "\nLogical mode explored {} steps over {} variables / {} hard constraints;\n\
         peak decision-stack memory {:.2} GB (limit: 2 GB, the paper's machine — \n\
         its logical run likewise \"ran out of memory before a fixed point\").\n\
         Anek performed {} model solves; {} total inferred specs ({anek_annotations} protocol-relevant).\n\
         Warning delta vs hand annotations: {:+} (paper: +1, from ANEK's branch-insensitivity).",
        logical.steps,
        logical.variables,
        logical.constraints,
        logical.peak_memory as f64 / 1e9,
        canonical.solves,
        canonical.annotation_count(),
        anek as i64 - gold as i64
    );

    // ---- Table 3 ----
    let size = if scale == Scale::Paper { 400 } else { 120 };
    let program = table3_program(11, size);
    let n_methods = program.modular.methods().count();
    let lines = program.modular_source.lines().count();
    let cfg = InferConfig { max_iters: 3 * n_methods, ..InferConfig::default() };
    let table3 = infer(std::slice::from_ref(&program.modular), &api, &cfg);
    let local_start = Instant::now();
    let local = local_inference(&program);
    let local_time = local_start.elapsed();
    r.wall("table3.anek", table3.elapsed);
    r.wall("table3.local", local_time);
    println!(
        "\nTable 3. {lines}-line branchy program: {n_methods} short methods (ANEK) vs one inlined method (PLURAL).\n"
    );
    let anek_warn = if table3.annotation_count() > 0 { "0" } else { "?" };
    let local_warn = if local.satisfiable { "0" } else { "UNSAT" };
    let w = &[24, 12, 10];
    rule(&["Inference Tool", "Time Taken", "Warnings"], w);
    row(&["ANEK", &fmt_duration(table3.elapsed), anek_warn], w);
    row(&["Plural Local Inference", &fmt_duration(local_time), local_warn], w);
    for (key, n) in [
        ("lines", lines),
        ("methods", n_methods),
        ("anek.solves", table3.solves),
        ("local.variables", local.variables),
        ("local.equations", local.equations),
        ("local.rank", local.rank),
    ] {
        r.count(format!("table3.{key}"), n);
    }
    r.cell("table3.anek.warnings", Json::str(anek_warn));
    r.cell("table3.local.warnings", Json::str(local_warn));
    let ratio = local_time.as_secs_f64() / table3.elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nANEK: {} model solves over {n_methods} methods.\n\
         Local inference: {} fraction variables, {} equations, rank {} (exact rational elimination).\n\
         Speed ratio (local/anek): {ratio:.2}x (paper: ~9x in ANEK's favour).\n\
         NOTE: our exact-rational *sparse* elimination is far faster than PLURAL's\n\
         2009-era implementation, so the absolute ordering does not transfer; the\n\
         scaling argument does — the whole-method system grows superlinearly with\n\
         inlined size while ANEK's per-method models stay constant:\n\n  \
         inlined size vs local-inference cost:",
        table3.solves, local.variables, local.equations, local.rank
    );
    // The 1,600-line row is most of the run's peak memory: small scale
    // stops at 400 lines.
    let sweep: &[usize] = if scale == Scale::Paper { &[200, 400, 800, 1600] } else { &[200, 400] };
    for &lines in sweep {
        // The program above is this sweep's row at its own size.
        let li = (lines != size).then(|| local_inference(&table3_program(11, lines)));
        let li = li.as_ref().unwrap_or(&local);
        println!(
            "    {lines:>5} lines: {:>6} vars, {:>6} equations, rank {:>6}, {}",
            li.variables,
            li.equations,
            li.rank,
            fmt_duration(li.elapsed)
        );
        r.wall(format!("table3.local_{lines}"), li.elapsed);
    }

    // ---- Table 4 ----
    let mut tally = DiffTally::new();
    for (id, truth) in &corpus.truth {
        let gold = corpus.gold.get(id).unwrap_or(&empty);
        let inferred = canonical.specs.get(id).unwrap_or(&empty);
        if let Some(diff) = compare_specs(gold, inferred, Some(truth)) {
            tally.record(diff);
        }
    }
    println!(
        "\nTable 4. Comparison of inferred annotations with the gold set ({scale:?} scale).\n"
    );
    let w = &[40, 8, 10];
    rule(&["Description", "paper", "measured"], w);
    for (d, p) in SpecDiff::ALL.iter().zip([14usize, 6, 1, 3, 6, 3]) {
        row(&[d.label(), &p.to_string(), &tally.count(*d).to_string()], w);
        r.count(format!("table4.{}", d.label()), tally.count(*d));
    }
    r.count("table4.compared", tally.total());
    println!(
        "\n{} methods compared ({} gold-annotated, {} with ground truth).\n\
         Shape claim: Same + Helpful dominates; Wrong/Removed is a small tail \
         (absolute counts differ with corpus composition).",
        tally.total(),
        corpus.gold.len(),
        corpus.truth.len()
    );

    // ---- Figure 3 ----
    let figure3 = Pipeline::from_sources(&[corpus::FIGURE3]).expect("figure 3 parses").run();
    r.wall("figure3", figure3.inference.elapsed);
    let id = MethodId::new("Row", "createColIter");
    let result = figure3.inference.summaries[&id].result.as_ref().expect("iterator result");
    println!("\nFigure 3 — evidence on the return value of Row.createColIter()\n");
    println!("permission kinds:");
    for k in PermissionKind::ALL {
        println!("  p({k:9}) = {:.3}", result.kind(k));
        r.cell(format!("figure3.p({k})"), Json::str(format!("{:.3}", result.kind(k))));
    }
    println!("abstract states:");
    for st in ["ALIVE", "HASNEXT", "END"] {
        println!("  p({st:8}) = {:.3}", result.state(st));
        r.cell(format!("figure3.p({st})"), Json::str(format!("{:.3}", result.state(st))));
    }
    let spec = &figure3.inference.specs[&id];
    let ensures = spec.ensures.for_target(&SpecTarget::Result).expect("result atom");
    println!("\nextracted: ensures {ensures}");
    r.cell("figure3.ensures", Json::str(ensures.to_string()));
    let after = &figure3.warnings_after.warnings;
    println!("\nPLURAL warnings after inference ({} total):", after.len());
    for warning in after {
        println!("  {warning}");
    }
    r.count("figure3.warnings", after.len());

    // ---- §3.4 MaxIters sweep ----
    println!("\nMaxIters sweep on the {scale:?} corpus ({} methods).\n", s.methods);
    let w = &[10, 8, 13, 12, 10];
    rule(&["MaxIters", "solves", "annotations", "gold-match", "time"], w);
    for factor in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let max_iters = ((s.methods as f64 * factor) as usize).max(1);
        let sweep = run(&InferConfig { max_iters, ..InferConfig::default() });
        let same = corpus
            .gold
            .iter()
            .filter(|(id, gold)| {
                let inferred = sweep.specs.get(*id).unwrap_or(&empty);
                compare_specs(gold, inferred, corpus.truth.get(*id)) == Some(SpecDiff::Same)
            })
            .count();
        let gold_match = format!("{same}/{}", corpus.gold.len());
        let (solves, annotations) = (sweep.solves, sweep.annotation_count());
        let cols = [max_iters.to_string(), solves.to_string(), annotations.to_string()];
        row(&[&cols[0], &cols[1], &cols[2], &gold_match, &fmt_duration(sweep.elapsed)], w);
        r.count(format!("sweep.{max_iters}.solves"), solves);
        r.count(format!("sweep.{max_iters}.annotations"), annotations);
        r.cell(format!("sweep.{max_iters}.gold_match"), Json::str(gold_match));
        r.wall(format!("sweep.{max_iters}"), sweep.elapsed);
    }
    println!(
        "\nAccuracy saturates once every method has been (re)analyzed — the paper's\n\
         approximation argument for stopping before a fixpoint."
    );

    // ---- Screening matrix ----
    let screened = run(&InferConfig { screen: true, ..canon_cfg.clone() });
    r.wall("screen", screened.elapsed);
    println!("\nScreening pre-pass at threads 1, max_iters {}.\n", canon_cfg.max_iters);
    let w = &[10, 10, 17, 10];
    rule(&["--screen", "BP solves", "methods screened", "wall"], w);
    for (key, result) in [("off", &canonical), ("on", &screened)] {
        let (solves, skipped) = (result.solves, result.screened_methods);
        row(&[key, &solves.to_string(), &skipped.to_string(), &fmt_duration(result.elapsed)], w);
        r.count(format!("screening.{key}.solves"), solves);
        r.count(format!("screening.{key}.screened_methods"), skipped);
    }
    drop(screened);

    // ---- Table 2's verdicts as a check, and the branch-sensitivity extension ----
    let sensitive = run(&InferConfig { branch_sensitive: true, ..canon_cfg.clone() });
    r.wall("branch_sensitive", sensitive.elapsed);
    let mut bugs: Vec<String> = corpus.bugs.iter().map(|b| b.method.to_string()).collect();
    bugs.sort();
    r.cell("verdicts.bugs", names(&bugs));
    for (key, result) in [("branch_sensitive", &sensitive), ("branch_insensitive", &canonical)] {
        let table = SpecTable::from_units(&corpus.units).overlay_inferred(&result.specs);
        let specs = anek::check::program_specs(&table, &corpus.units);
        let diags = anek::check::diagnostics(&bitstate::check_program(&corpus.units, &api, &specs));
        let with_rule = |rule| diags.iter().filter(move |d| d.rule == rule);
        let mut chk001: Vec<String> =
            with_rule(rules::CHECK_MAY_VIOLATION).map(|d| d.method.clone()).collect();
        chk001.sort();
        let chk002 = with_rule(rules::CHECK_DEFINITE_VIOLATION).count();
        let cross = anek::cross_validate(&corpus.units, &api, &table);
        let documented: Vec<String> =
            cross.rows.iter().filter(|r| r.documented).map(|r| r.method.to_string()).collect();
        if key == "branch_sensitive" {
            r.check(chk001 == bugs, format!("branch-sensitive CHK001 {chk001:?} != bugs {bugs:?}"));
            r.check(chk002 == 0, format!("branch-sensitive run reports {chk002} CHK002"));
        }
        r.check(cross.undocumented == 0, format!("{key}: {} undocumented", cross.undocumented));
        r.cell(format!("verdicts.{key}.chk001"), names(&chk001));
        r.count(format!("verdicts.{key}.chk002"), chk002);
        r.count(format!("verdicts.{key}.undocumented"), cross.undocumented);
        r.cell(format!("verdicts.{key}.documented"), names(&documented));
        // The branch trap returns an iterator that is `HASNEXT` only
        // through a `hasNext()` test (§4.2's fourth warning).
        let trap = &result.specs[&MethodId::new("Registry0", "createReadyIter")];
        let ensures = trap.ensures.for_target(&SpecTarget::Result).map(ToString::to_string);
        r.cell(format!("verdicts.{key}.trap_ensures"), Json::str(ensures.unwrap_or_default()));
        let plural = warnings(&unannotated.clone().overlay_inferred(&result.specs));
        r.count(format!("verdicts.{key}.plural_warnings"), plural);
    }
    let verdicts = r.cells.iter().filter_map(|(name, value)| {
        Some((name.strip_prefix("verdicts.")?.to_string(), value.clone()))
    });
    let ok = ("ok".to_string(), Json::Bool(r.failures.is_empty()));
    println!("\nVerdicts with inferred specs (bitstate CHK001/CHK002; cross-validation):");
    println!("{}", Json::Obj(std::iter::once(ok).chain(verdicts).collect()));

    // ---- Output files and the golden ----
    let infer_rows = [&canonical, &threads2].map(bench_infer_row).to_vec();
    let scale_name = Json::str(format!("{scale:?}").to_lowercase());
    let bench_infer = pretty(&[
        ("bench".into(), Json::str("infer")),
        ("scale".into(), scale_name.clone()),
        ("classes".into(), Json::num(s.classes)),
        ("methods".into(), Json::num(s.methods)),
        ("runs".into(), Json::Arr(infer_rows)),
    ]);
    std::fs::write("BENCH_infer.json", bench_infer).expect("write BENCH_infer.json");
    r.wall("total", start.elapsed());
    let peak = peak_rss_kb().map_or(Json::Null, |kb| Json::Num((kb as f64 / 102.4).round() / 10.0));
    let paper = pretty(&[
        ("bench".into(), Json::str("paper")),
        ("scale".into(), scale_name),
        ("cells".into(), Json::Obj(r.cells.clone())),
        ("wall_ms".into(), Json::Obj(r.wall_ms.clone())),
        ("peak_rss_mb".into(), peak),
    ]);
    std::fs::write("BENCH_paper.json", paper).expect("write BENCH_paper.json");
    if scale == Scale::Paper {
        check_golden(&mut r);
    }
    let claims = [table2.broken_claim(corpus.traps.len()), tally.broken_claim()];
    r.failures.extend(claims.into_iter().flatten().map(|claim| format!("shape claim: {claim}")));
    for failure in &r.failures {
        eprintln!("check failed: {failure}");
    }
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn ms(d: Duration) -> Json {
    Json::Num((d.as_secs_f64() * 1e6).round() / 1e3)
}

fn names(methods: &[String]) -> Json {
    Json::Arr(methods.iter().map(Json::str).collect())
}

/// PLURAL's local fractional inference on the program's inlined method.
fn local_inference(program: &Table3Program) -> LocalInference {
    let index = ProgramIndex::build([&program.inlined]);
    let class = program.inlined.type_named("PipelineInlined").expect("inlined class");
    let method = class.method_named("run").expect("inlined method");
    local_infer_pfg(&Pfg::build(&index, &standard_api(), "PipelineInlined", method))
}

/// One `BENCH_infer.json` row. `commit_stall_ms` is the only wall-clock
/// field besides `wall_ms`; the trace carries the deterministic
/// counterparts.
fn bench_infer_row(r: &InferResult) -> Json {
    let fields = [
        ("threads", Json::num(r.threads)),
        ("wall_ms", ms(r.elapsed)),
        ("solves", Json::num(r.solves)),
        ("bp_iterations", Json::num(r.bp_iterations)),
        ("message_updates", Json::num(r.message_updates)),
        ("speculative_solves", Json::num(r.speculative_solves)),
        ("discarded_solves", Json::num(r.discarded_solves)),
        ("speculated_chunks", Json::num(r.speculated_chunks)),
        ("stalled_chunks", Json::num(r.stalled_chunks)),
        ("commit_stall_ms", ms(r.commit_stall)),
        ("annotations", Json::num(r.annotation_count())),
    ];
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Checks the cells against the golden; on a difference, names each
/// differing cell and writes the full new golden to the working directory.
fn check_golden(r: &mut Report) {
    let text = pretty(&r.cells);
    if text == GOLDEN {
        return println!("\nall {} cells equal {GOLDEN_PATH}", r.cells.len());
    }
    let golden: BTreeMap<String, String> = match json::parse(GOLDEN) {
        Ok(Json::Obj(fields)) => fields.into_iter().map(|(k, v)| (k, v.to_string())).collect(),
        _ => BTreeMap::new(),
    };
    let failed = r.failures.len();
    for (name, value) in &r.cells {
        match golden.get(name).map(|want| (want, value.to_string())) {
            Some((want, got)) if *want == got => {}
            Some((want, got)) => r.failures.push(format!("cell {name}: {got}, golden {want}")),
            None => r.failures.push(format!("cell {name}: {value}, not in the golden")),
        }
    }
    for name in golden.keys().filter(|k| r.cells.iter().all(|(n, _)| n != *k)) {
        r.failures.push(format!("cell {name}: in the golden, not measured"));
    }
    if r.failures.len() == failed {
        r.failures.push(format!("{GOLDEN_PATH} is not laid out as the binary writes it"));
    }
    std::fs::write("paper_tables.json", text).expect("write paper_tables.json");
    let out = std::env::current_dir().unwrap_or_default().join("paper_tables.json");
    eprintln!(
        "The full new golden is in {0}. After an intentional change, re-bless it from the \
         repository root with:\n  cp {0} {GOLDEN_PATH}",
        out.display()
    );
}

/// Renders `fields` as a JSON object with one field per line; a nested
/// object, or an array of objects, also puts each entry on its own line.
fn pretty(fields: &[(String, Json)]) -> String {
    let nested = |open: &str, close: &str, entries: Vec<String>| {
        format!("{open}\n    {}\n  {close}", entries.join(",\n    "))
    };
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Obj(inner) => {
                    let entries = inner.iter().map(|(k, v)| format!("{}: {v}", json_str(k)));
                    nested("{", "}", entries.collect())
                }
                Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                    nested("[", "]", items.iter().map(Json::to_string).collect())
                }
                value => value.to_string(),
            };
            format!("  {}: {value}", json_str(key))
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}
