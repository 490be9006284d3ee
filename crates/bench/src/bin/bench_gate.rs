//! Bench regression gate: compares a freshly written `BENCH_infer.json`
//! against a checked-in baseline and fails (exit 1) when the inference
//! changed its result or slowed down.
//!
//! Checks, on the `threads == 1` row (single-thread runs are deterministic,
//! so their wall-clock is the least noisy signal available):
//!
//! 1. The deterministic counters — `solves`, `message_updates` and
//!    `annotations` — must equal the baseline row exactly: inference is
//!    deterministic, so any difference is a changed result, not noise.
//! 2. `wall_ms` must be within 20% of the baseline row recorded on the
//!    reference machine.
//!
//! Run: `bench_gate <current BENCH_infer.json> <baseline json>` (`ci.sh`
//! runs it on the file `paper_tables --small` writes).

use anek::json::{self, Json};
use std::process::ExitCode;

/// One parsed run row.
#[derive(Debug)]
struct Run {
    threads: u64,
    wall_ms: f64,
    solves: u64,
    message_updates: u64,
    annotations: u64,
}

/// Parses every row of a BENCH_infer.json document's `runs` array.
fn parse_runs(doc: &str, what: &str) -> Result<Vec<Run>, String> {
    let doc = json::parse(doc).map_err(|e| format!("{what}: {e}"))?;
    let rows = doc.get("runs").and_then(Json::as_arr).unwrap_or_default();
    let runs = rows
        .iter()
        .map(|row| {
            let num = |key: &str| {
                row.get(key).and_then(Json::as_num).ok_or(format!("{what}: bad {key} field"))
            };
            let count = |key: &str| match num(key)? {
                n if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(format!("{what}: bad {key} field")),
            };
            Ok(Run {
                threads: count("threads")?,
                wall_ms: num("wall_ms")?,
                solves: count("solves")?,
                message_updates: count("message_updates")?,
                annotations: count("annotations")?,
            })
        })
        .collect::<Result<Vec<Run>, String>>()?;
    if runs.is_empty() {
        return Err(format!("{what}: no runs found"));
    }
    Ok(runs)
}

fn single_thread<'a>(runs: &'a [Run], what: &str) -> Result<&'a Run, String> {
    runs.iter().find(|r| r.threads == 1).ok_or(format!("{what}: missing threads=1 run"))
}

fn gate(current: &[Run], baseline: &[Run]) -> Result<(), String> {
    let run = single_thread(current, "current")?;
    let base = single_thread(baseline, "baseline")?;
    let counts = |r: &Run| [r.solves, r.message_updates, r.annotations];
    if counts(run) != counts(base) {
        return Err(format!(
            "counts changed: solves/message_updates/annotations {:?} != baseline {:?}",
            counts(run),
            counts(base)
        ));
    }
    println!("counts ok: {:?} equal the baseline", counts(run));
    if run.wall_ms > base.wall_ms * 1.2 {
        return Err(format!(
            "wall-clock regressed: {:.0}ms > 120% of baseline {:.0}ms",
            run.wall_ms, base.wall_ms
        ));
    }
    println!("wall ok: {:.0}ms within 20% of baseline {:.0}ms", run.wall_ms, base.wall_ms);
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(current_path), Some(baseline_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_gate <current BENCH_infer.json> <baseline json>");
        return ExitCode::FAILURE;
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| {
        let current = parse_runs(&read(&current_path)?, "current")?;
        let baseline = parse_runs(&read(&baseline_path)?, "baseline")?;
        gate(&current, &baseline)
    })();
    match result {
        Ok(()) => {
            println!("bench regression gate ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench regression gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "infer",
  "scale": "small",
  "runs": [
    {"threads": 1, "wall_ms": 190.0, "solves": 134, "message_updates": 1611888, "annotations": 47},
    {"threads": 2, "wall_ms": 150.0, "solves": 134, "message_updates": 1611888, "annotations": 47}
  ]
}"#;

    #[test]
    fn parses_rows_and_passes_against_itself() {
        let runs = parse_runs(DOC, "t").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].threads, 2);
        assert_eq!(runs[0].message_updates, 1611888);
        gate(&runs, &parse_runs(DOC, "t").unwrap()).unwrap();
    }

    #[test]
    fn fails_on_wall_clock_regression() {
        let slow = DOC.replace("190.0", "950.0");
        let runs = parse_runs(&slow, "t").unwrap();
        let base = parse_runs(DOC, "t").unwrap();
        assert!(gate(&runs, &base).unwrap_err().contains("regressed"));
    }

    #[test]
    fn fails_on_any_count_difference() {
        for (from, to) in [("\"solves\": 134", "\"solves\": 135"), ("47}", "46}")] {
            let changed = DOC.replacen(from, to, 1);
            let runs = parse_runs(&changed, "t").unwrap();
            let base = parse_runs(DOC, "t").unwrap();
            assert!(gate(&runs, &base).unwrap_err().contains("counts changed"), "{from}");
        }
        // Fewer updates is a change too, not an improvement to wave through.
        let fewer = DOC.replace("1611888", "1611887");
        let runs = parse_runs(&fewer, "t").unwrap();
        let base = parse_runs(DOC, "t").unwrap();
        assert!(gate(&runs, &base).unwrap_err().contains("counts changed"));
    }
}
