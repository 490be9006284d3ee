//! Paper-scale check: with ANEK-inferred specs, the checkers flag exactly
//! the PMD-shaped corpus's planted protocol bugs (Table 2).
//!
//! Generates the seed-42 paper corpus in process and infers it twice, at
//! `max_iters` 9360 and one thread per core:
//!
//! 1. with branch-sensitive specs, the bit-vector engine reports one
//!    `CHK001` on each planted bug and nowhere else, and no `CHK002`;
//! 2. on both runs, the differential oracle (bitstate vs PLURAL vs the
//!    `PROT001` lint, [`anek::cross_validate`]) finds no undocumented
//!    disagreement.
//!
//! Without branch sensitivity the engine also flags the branch trap, the
//! §4.2 indicator gap; the oracle lists it as a documented row.
//!
//! Run: `cargo run --release -p bench --bin paper_check`
//!
//! Prints one JSON line (the flagged methods, the counts and the
//! documented rows of each run, and the process's peak RSS as
//! `peak_rss_mb` where `/proc/self/status` exists) and exits 1 if any
//! check fails. The peak RSS is informational: no check reads it.

use anek::json::Json;
use anek::lint::rules;
use anek::plural::SpecTable;
use anek::Pipeline;
use std::process::ExitCode;

fn main() -> ExitCode {
    let corpus = corpus::generate(&corpus::PmdConfig::paper());
    let mut bugs: Vec<String> = corpus.bugs.iter().map(|b| b.method.to_string()).collect();
    bugs.sort();
    let mut ok = true;
    let mut runs = Vec::new();
    for branch_sensitive in [true, false] {
        let mut pipeline = Pipeline::new(corpus.units.clone()).with_threads(0);
        pipeline.config.max_iters = 9360;
        pipeline.config.branch_sensitive = branch_sensitive;
        let inferred = pipeline.infer();
        let table = SpecTable::from_units(&pipeline.units).overlay_inferred(&inferred.specs);
        let specs = anek::check::program_specs(&table, &pipeline.units);
        let report = bitstate::check_program(&pipeline.units, &pipeline.api, &specs);
        let diags = anek::check::diagnostics(&report);
        let mut chk001: Vec<String> = diags
            .iter()
            .filter(|d| d.rule == rules::CHECK_MAY_VIOLATION)
            .map(|d| d.method.clone())
            .collect();
        chk001.sort();
        let chk002 = diags.iter().filter(|d| d.rule == rules::CHECK_DEFINITE_VIOLATION).count();
        let cross = anek::cross_validate(&pipeline.units, &pipeline.api, &table);
        let documented: Vec<String> =
            cross.rows.iter().filter(|r| r.documented).map(|r| r.method.to_string()).collect();
        if branch_sensitive {
            ok &= chk001 == bugs && chk002 == 0;
        }
        ok &= cross.undocumented == 0;
        runs.push(Json::Obj(vec![
            ("branch_sensitive".to_string(), Json::Bool(branch_sensitive)),
            ("chk001".to_string(), names(&chk001)),
            ("chk002".to_string(), Json::num(chk002)),
            ("undocumented".to_string(), Json::num(cross.undocumented)),
            ("documented".to_string(), names(&documented)),
        ]));
    }
    let mut fields = vec![
        ("bench".to_string(), Json::str("paper_check")),
        ("ok".to_string(), Json::Bool(ok)),
        ("bugs".to_string(), names(&bugs)),
        ("runs".to_string(), Json::Arr(runs)),
    ];
    if let Some(kb) = bench::peak_rss_kb() {
        let mb = (kb as f64 / 1024.0 * 10.0).round() / 10.0;
        fields.push(("peak_rss_mb".to_string(), Json::Num(mb)));
    }
    let verdict = Json::Obj(fields);
    println!("{verdict}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn names(methods: &[String]) -> Json {
    Json::Arr(methods.iter().map(Json::str).collect())
}
