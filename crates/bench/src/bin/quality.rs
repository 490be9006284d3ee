//! Per-family specification-quality benchmark: the protocol registry's
//! precision/recall gate.
//!
//! For every family in the built-in protocol library this binary
//! generates a single-family corpus slice (`corpus::generate_mixed`),
//! runs full ANEK inference over it, and scores the inferred specs
//! against the generator's ground truth at the *atom* level — each
//! `(clause, target, kind, state)` tuple is one retrievable fact, so
//! precision/recall/F1 measure exactly what the paper's Table 4 buckets
//! summarize qualitatively. Alongside spec quality it measures
//! checker-level defect detection per family:
//!
//! * **bug recall** — the planted protocol bugs (read-after-close,
//!   double-release, configure-after-build, send-after-disconnect,
//!   unguarded `next()`) the bit-vector checker flags on the unannotated
//!   slice; the gate requires every one found;
//! * **trap FPs** — the planted indicator traps that become false
//!   positives once *inferred* specs are overlaid: ANEK is
//!   branch-insensitive (§4.2), so these are the documented precision
//!   gap, reported but not gated.
//!
//! The Iterator family is additionally scored on the PMD-shaped paper
//! corpus (`corpus::generate`), whose planted-bug recall must stay at
//! 100% — the reproduction of "ANEK found the 3 PMD bugs".
//!
//! Run: `cargo run --release -p bench --bin quality [-- --small]
//! [-- --baseline tests/golden/quality_baseline.json]`
//!
//! Writes `BENCH_quality.json` (`"bench": "quality"`) with one row per
//! family. With `--baseline`, exits non-zero when any family's F1 drops
//! below the checked-in baseline (inference is deterministic, so any drop
//! is a real regression, not noise).

use anek::analysis::MethodId;
use anek::anek_core::InferResult;
use anek::bitstate;
use anek::json::{self, Json, JsonError};
use anek::plural::SpecTable;
use anek::spec_lang::{standard_api, ApiRegistry, MethodSpec, PermAtom, ProtocolRegistry, ALIVE};
use anek::Pipeline;
use bench::microbench::json_str;
use bench::Scale;
use corpus::{generate_mixed, MixedConfig, PmdCorpus};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// One family's scorecard.
struct FamilyQuality {
    family: String,
    methods: usize,
    tp: usize,
    fp: usize,
    fn_: usize,
    bugs_planted: usize,
    bugs_found: usize,
    traps_planted: usize,
    trap_fps: usize,
    solves: usize,
}

impl FamilyQuality {
    fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }
    fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }
    fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Flattens a spec into comparable atom facts. `effective_state`
/// normalizes the implicit `ALIVE`.
fn atom_facts(spec: &MethodSpec) -> BTreeSet<(String, String, String, String)> {
    let mut facts = BTreeSet::new();
    let mut add = |clause: &str, atoms: &[PermAtom]| {
        for a in atoms {
            facts.insert((
                clause.to_string(),
                format!("{:?}", a.target),
                format!("{:?}", a.kind),
                a.state.as_deref().unwrap_or(ALIVE).to_string(),
            ));
        }
    };
    add("requires", &spec.requires.atoms);
    add("ensures", &spec.ensures.atoms);
    facts
}

/// Atom-level TP/FP/FN of `inferred` against `truth`, over truth-keyed
/// methods only (worker methods have no ground-truth entry and are
/// scored by the checker instead).
fn score(
    truth: &BTreeMap<MethodId, MethodSpec>,
    inferred: &BTreeMap<MethodId, MethodSpec>,
) -> (usize, usize, usize) {
    let (mut tp, mut fp, mut fn_) = (0, 0, 0);
    for (id, want) in truth {
        let want_facts = atom_facts(want);
        let got_facts = inferred.get(id).map(atom_facts).unwrap_or_default();
        tp += want_facts.intersection(&got_facts).count();
        fp += got_facts.difference(&want_facts).count();
        fn_ += want_facts.difference(&got_facts).count();
    }
    (tp, fp, fn_)
}

/// The set of `Class.method` names bitstate flags (any finding) under the
/// given spec table.
fn flagged_methods(corpus: &PmdCorpus, api: &ApiRegistry, table: &SpecTable) -> BTreeSet<String> {
    let specs = anek::check::program_specs(table, &corpus.units);
    let report = bitstate::check_program(&corpus.units, api, &specs);
    anek::check::diagnostics(&report).iter().map(|d| d.method.clone()).collect()
}

fn measure_family(family: &str, scale: Scale) -> FamilyQuality {
    let mut cfg = match scale {
        Scale::Paper => MixedConfig {
            local_uses: 4,
            helper_uses: 4,
            aliased_uses: 2,
            callback_uses: 2,
            ..MixedConfig::small()
        },
        Scale::Small => MixedConfig::small(),
    };
    cfg.families = vec![family.to_string()];
    let corpus = generate_mixed(&cfg);
    let api = ProtocolRegistry::builtin().api(&[family]).expect("registry family");

    // Spec quality: inferred vs ground truth, atom by atom.
    let pipeline =
        Pipeline::new(corpus.units.clone()).with_protocols(&[family]).expect("registry family");
    let result: InferResult = pipeline.infer();
    let (tp, fp, fn_) = score(&corpus.truth, &result.specs);

    // Bug recall: the unannotated slice, checked by bitstate.
    let unannotated = SpecTable::from_units(&corpus.units);
    let found = flagged_methods(&corpus, &api, &unannotated);
    let bugs_found = corpus.bugs.iter().filter(|p| found.contains(&p.method.to_string())).count();

    // Trap FPs: overlay the inferred specs; the indicator traps surface as
    // branch-insensitivity false positives (documented, not gated).
    let overlaid = unannotated.overlay_inferred(&result.specs);
    let found_inferred = flagged_methods(&corpus, &api, &overlaid);
    let trap_fps =
        corpus.traps.iter().filter(|p| found_inferred.contains(&p.method.to_string())).count();

    FamilyQuality {
        family: family.to_string(),
        methods: corpus.stats.methods,
        tp,
        fp,
        fn_,
        bugs_planted: corpus.bugs.len(),
        bugs_found,
        traps_planted: corpus.traps.len(),
        trap_fps,
        solves: result.solves,
    }
}

/// Baseline F1 per family, read from the checked-in
/// `quality_baseline.json`; rows without a family name or F1 are skipped.
fn parse_baseline(doc: &str) -> Result<BTreeMap<String, f64>, JsonError> {
    let doc = json::parse(doc)?;
    let rows = doc.get("families").and_then(Json::as_arr).unwrap_or_default();
    Ok(rows
        .iter()
        .filter_map(|row| {
            let family = row.get("family").and_then(Json::as_str)?;
            Some((family.to_string(), row.get("f1").and_then(Json::as_num)?))
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args();
    let baseline_path =
        args.iter().position(|a| a == "--baseline").and_then(|i| args.get(i + 1)).cloned();

    let registry = ProtocolRegistry::builtin();
    let mut rows: Vec<FamilyQuality> = Vec::new();
    println!("family        methods  P      R      F1     bugs   traps(FP)  solves");
    for family in registry.names() {
        let q = measure_family(family, scale);
        println!(
            "{:<13} {:>7}  {:.3}  {:.3}  {:.3}  {}/{}    {}/{}        {}",
            q.family,
            q.methods,
            q.precision(),
            q.recall(),
            q.f1(),
            q.bugs_found,
            q.bugs_planted,
            q.trap_fps,
            q.traps_planted,
            q.solves
        );
        rows.push(q);
    }

    // The Iterator paper-corpus recall: the reproduction's "ANEK found the
    // PMD bugs" claim, kept at whichever scale was requested. The planted
    // bugs route fresh iterators through unannotated helpers, so they are
    // only visible once ANEK's inferred specs are overlaid — exactly the
    // paper's workflow (infer, then let the checker validate).
    let paper = scale.corpus();
    let api = standard_api();
    let result = Pipeline::new(paper.units.clone()).infer();
    let table = SpecTable::from_units(&paper.units).overlay_inferred(&result.specs);
    let found = flagged_methods(&paper, &api, &table);
    let iter_found = paper.bugs.iter().filter(|p| found.contains(&p.method.to_string())).count();
    println!(
        "\nIterator paper corpus: {}/{} planted bugs found with inferred specs",
        iter_found,
        paper.bugs.len()
    );

    write_json(scale, &rows, iter_found, paper.bugs.len()).expect("write BENCH_quality.json");

    // ---- Gates ----
    let mut failed = false;
    for q in &rows {
        if q.bugs_found < q.bugs_planted {
            eprintln!(
                "GATE: {} planted-bug recall {}/{} (must be 100%)",
                q.family, q.bugs_found, q.bugs_planted
            );
            failed = true;
        }
    }
    if iter_found < paper.bugs.len() {
        eprintln!(
            "GATE: Iterator paper-corpus recall {iter_found}/{} (must be 100%)",
            paper.bugs.len()
        );
        failed = true;
    }
    if let Some(path) = baseline_path {
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        let baseline = parse_baseline(&doc).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        for q in &rows {
            match baseline.get(&q.family) {
                // Inference is deterministic, so any drop below the
                // recorded F1 is a real regression; a small epsilon only
                // absorbs the printed 4-decimal rounding.
                Some(want) if q.f1() < want - 5e-4 => {
                    eprintln!(
                        "GATE: {} F1 {:.4} fell below baseline {:.4}",
                        q.family,
                        q.f1(),
                        want
                    );
                    failed = true;
                }
                Some(_) => {}
                None => {
                    eprintln!("GATE: baseline has no row for family {}", q.family);
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("quality gate FAILED");
        return ExitCode::FAILURE;
    }
    println!("quality gate ok");
    ExitCode::SUCCESS
}

fn write_json(
    scale: Scale,
    rows: &[FamilyQuality],
    iter_found: usize,
    iter_planted: usize,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"bench\": \"quality\",\n  \"scale\": {},\n  \"families\": [",
        json_str(&format!("{scale:?}").to_lowercase())
    ));
    for (i, q) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"family\": {}, \"methods\": {}, \"tp\": {}, \"fp\": {}, \"fn\": {}, \
             \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4}, \
             \"bugs_planted\": {}, \"bugs_found\": {}, \"traps_planted\": {}, \
             \"trap_fps\": {}, \"solves\": {}}}",
            json_str(&q.family),
            q.methods,
            q.tp,
            q.fp,
            q.fn_,
            q.precision(),
            q.recall(),
            q.f1(),
            q.bugs_planted,
            q.bugs_found,
            q.traps_planted,
            q.trap_fps,
            q.solves
        ));
    }
    s.push_str(&format!(
        "\n  ],\n  \"iterator_corpus\": {{\"bugs_planted\": {iter_planted}, \"bugs_found\": {iter_found}}}\n}}\n"
    ));
    std::fs::write("BENCH_quality.json", s)
}
