//! `benchmark compare <dir A> <dir B>`: applies the bounds in
//! `BENCHMARK.json` and the pairs rule to two sets of `--json` outputs,
//! A the parent commit and B the change.

use crate::stats;
use anek::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// What the runs show about one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B won at least 9 of 10 pairs and its median is better than A's by
    /// more than A's interquartile range.
    Improved,
    /// B's median is worse than A's by more than the metric's bound (or,
    /// for a metric without a bound, B lost by the improvement rule).
    Regressed,
    /// Within the bound, and A's spread is within it too.
    Unchanged,
    /// Neither: the spread is wider than the bound, there are too few
    /// pairs, or the metric has no bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Fewest pairs that can support a claim of improvement.
const MIN_PAIRS: usize = 10;

/// Classifies B's samples against A's. Samples pair up in order; `bound`
/// is the share of A's median by which B may be worse (`None` for a
/// per-layer metric).
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let n = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&pa, &pb)| better(pb, pa)).count();
    let losses = a.iter().zip(b).filter(|&(&pa, &pb)| better(pa, pb)).count();
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let iqr_a = stats::quartiles(a).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let separated = (med_b - med_a).abs() > iqr_a;
    if n >= MIN_PAIRS && wins * 10 >= 9 * n && separated && better(med_b, med_a) {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        if n >= MIN_PAIRS && losses * 10 >= 9 * n && separated && better(med_a, med_b) {
            return Verdict::Regressed;
        }
        return Verdict::Unresolved;
    };
    let worse_by = if lower_is_better { med_b - med_a } else { med_a - med_b };
    if worse_by > bound * med_a.abs() {
        return Verdict::Regressed;
    }
    let spread = if med_a == 0.0 { 0.0 } else { iqr_a / med_a.abs() };
    let b_beats_all = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    if spread > bound && !b_beats_all {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `(lower_is_better, bound)` per metric name, from `BENCHMARK.json`.
fn metric_rules(doc: &Json) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let mut rules = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).ok_or(format!("no `{key}` list"))? {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            rules.insert(
                name.to_string(),
                (better == "lower", m.get("bound").and_then(Json::as_num)),
            );
        }
    }
    Ok(rules)
}

/// Samples per (workload, metric), in file-name order, from every `.json`
/// file in `dir`.
fn load_runs(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err(format!("{}: no `workloads` object", file.display()));
        };
        for (workload, result) in workloads {
            let Some(Json::Obj(metrics)) = result.get("metrics") else { continue };
            for (metric, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_num) {
                    samples.entry((workload.clone(), metric.clone())).or_default().push(v);
                }
            }
        }
    }
    Ok(samples)
}

/// The comparison table: one row per (workload, metric) present in both
/// directories.
///
/// # Errors
///
/// Unreadable directories, files or `BENCHMARK.json`.
pub fn compare(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let rules = metric_rules(&json::parse(&text).map_err(|e| e.to_string())?)?;
    let (a, b) = (load_runs(dir_a)?, load_runs(dir_b)?);
    let mut table = format!(
        "{:<12} {:<36} {:<10} {:>14} {:>14} {:>6}\n",
        "workload", "metric", "verdict", "median A", "median B", "pairs"
    );
    for ((workload, metric), sa) in &a {
        let (Some(sb), Some(&(lower, bound))) =
            (b.get(&(workload.clone(), metric.clone())), rules.get(metric))
        else {
            continue;
        };
        table.push_str(&format!(
            "{workload:<12} {metric:<36} {:<10} {:>14.6} {:>14.6} {:>6}\n",
            classify(sa, sb, lower, bound).to_string(),
            stats::median(sa),
            stats::median(sb),
            sa.len().min(sb.len())
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0))).collect()
    }

    #[test]
    fn clear_win_on_ten_pairs_is_an_improvement() {
        let (a, b) = (around(100.0, 10), around(80.0, 10));
        assert_eq!(classify(&a, &b, true, Some(0.1)), Verdict::Improved);
        // The same gap read as higher-is-better is a regression.
        assert_eq!(classify(&a, &b, false, Some(0.1)), Verdict::Regressed);
    }

    #[test]
    fn nine_pairs_cannot_claim_a_gain() {
        let (a, b) = (around(100.0, 9), around(80.0, 9));
        assert_eq!(classify(&a, &b, true, Some(0.1)), Verdict::Unchanged);
        assert_eq!(classify(&a, &b, true, None), Verdict::Unresolved);
    }

    #[test]
    fn small_drift_is_unchanged_and_wide_spread_is_unresolved() {
        let (a, b) = (around(100.0, 10), around(103.0, 10));
        assert_eq!(classify(&a, &b, true, Some(0.1)), Verdict::Unchanged);
        let wide: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(classify(&wide, &around(104.0, 10), true, Some(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn gains_smaller_than_the_parent_spread_do_not_count() {
        let a: Vec<f64> = (0..10).map(|i| 90.0 + 2.0 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v - 3.0).collect();
        // B wins every pair, but by less than A's own interquartile range.
        assert_eq!(classify(&a, &b, true, Some(0.25)), Verdict::Unchanged);
    }
}
