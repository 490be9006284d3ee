//! The metric vocabulary and the result object every run prints.
//!
//! The two tables below are the contract with `BENCHMARK.json`: a run with
//! tracing off reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`]. A unit test holds the file and the tables together.

use crate::workload::Workload;
use anek::json::Json;

/// End-to-end metrics `(name, unit)`: what a user of `anek` waits for or
/// pays, measured with tracing off. Request latency and CPU time are
/// per-layer (`anek.request_*`): on a shared machine they drift by more
/// than a 10% regression bound from one run to the next.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, from the traced run. Each layer is
/// timed from outside, through its public functions, on the workload's own
/// inputs; counts come from the inference result and its trace.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("anek.request_p50_ms", "ms"),
    ("anek.request_cpu_ms", "ms"),
    ("java-syntax.parse_ms", "ms"),
    ("analysis.index_ms", "ms"),
    ("analysis.cfg_ms", "ms"),
    ("analysis.pfg_ms", "ms"),
    ("analysis.pfg_nodes", "count"),
    ("bitstate.screen_ms", "ms"),
    ("bitstate.screened_ratio", "ratio"),
    ("anek-core.model_build_ms", "ms"),
    ("factor-graph.compile_ms", "ms"),
    ("factor-graph.edges", "count"),
    ("factor-graph.solve_ms", "ms"),
    ("factor-graph.updates_per_us", "1/us"),
    ("factor-graph.updates_per_solve_p50", "count"),
    ("factor-graph.updates_per_solve_p99", "count"),
    ("anek-core.solves", "count"),
    ("anek-core.message_updates", "count"),
    ("anek-core.bp_iterations", "count"),
    ("anek-core.nonconverged_ratio", "ratio"),
    ("anek-core.waste_ratio", "ratio"),
    ("anek-core.stall_ratio", "ratio"),
    ("anek-core.commit_stall_ratio", "ratio"),
    ("store.record_ms", "ms"),
    ("store.fingerprint_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.pfg_hit_ratio", "ratio"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("anek.update_cached_p50_ms", "ms"),
    ("anek.dirty_cone_mean", "count"),
    ("anek.resolves_per_edit", "count"),
    ("anek.query_p50_us", "us"),
    ("anek.query_tail_us", "us"),
    ("plural.check_ms", "ms"),
    ("bitstate.check_ms", "ms"),
    ("anek.apply_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The metric table a run reports.
pub fn metric_table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run of one workload: what was attempted, what failed, whether the
/// outputs checked out, and the measured metrics.
pub struct Outcome {
    /// The workload this outcome measures.
    pub workload: Workload,
    /// Whether this is a traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted: inference runs, updates and queries.
    pub attempted: usize,
    /// Operations that failed: a run with a `Failed` method outcome, or an
    /// error response.
    pub failed: usize,
    /// Correctness-check failures; empty when every check passed.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result (sample counts,
    /// digests, file paths).
    pub notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records metric `name`, which must be in this run's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let Some(&(known, _)) = metric_table(self.traced).iter().find(|(n, _)| *n == name) else {
            panic!(
                "`{name}` is not a {} metric",
                if self.traced { "per-layer" } else { "end-to-end" }
            )
        };
        self.metrics.retain(|(n, _)| *n != known);
        self.metrics.push((known, value));
    }

    /// Records a timing metric together with its sample count.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.notes.push(format!("{name}: median of {samples} samples"));
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object: `correct`, `attempted`, `failed` and every metric
    /// of the run's table as `{"value": v, "unit": u}`, in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric of the table that was not measured or is not
    /// a finite number.
    pub fn to_json(&self) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in metric_table(self.traced) {
            let value =
                self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).ok_or_else(
                    || format!("{}: metric `{name}` was not measured", self.workload),
                )?;
            if !value.is_finite() {
                return Err(format!("{}: metric `{name}` is {value}", self.workload));
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn json_output_names_every_metric_listed_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = anek::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let mut outcome = Outcome::new(Workload::PmdFull, traced);
            for (i, &(name, _)) in metric_table(traced).iter().enumerate() {
                outcome.set(name, i as f64 + 0.5);
            }
            let json = outcome.to_json().expect("every metric was set");
            let metrics = json.get("metrics").expect("metrics object");
            let Json::Obj(fields) = metrics else { panic!("metrics is an object") };
            let printed: BTreeSet<(String, String)> = fields
                .iter()
                .map(|(n, v)| {
                    (n.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            let want: BTreeSet<(String, String)> = listed(&doc, key).into_iter().collect();
            assert_eq!(printed, want, "`{key}` in BENCHMARK.json and the printed metrics differ");
        }
    }

    #[test]
    fn an_unmeasured_metric_is_an_error_not_a_zero() {
        let mut outcome = Outcome::new(Workload::ServeEdits, false);
        outcome.set("setup_s", 1.0);
        let err = outcome.to_json().unwrap_err();
        assert!(err.contains("peak_rss_mb"), "{err}");
        outcome.set("peak_rss_mb", f64::NAN);
        assert!(outcome.to_json().unwrap_err().contains("NaN"));
    }
}
