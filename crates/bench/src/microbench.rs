//! A minimal, dependency-free micro-benchmark harness.
//!
//! The offline build cannot pull Criterion, so `cargo bench` runs on this
//! instead: per benchmark it warms up, picks an iteration count targeting a
//! fixed measurement window, takes several samples and reports the median
//! and spread. Deliberately simple — no outlier rejection, no plots — but
//! deterministic in shape and good enough to see order-of-magnitude
//! regressions.

use anek::observe::json_str;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
const SAMPLES: usize = 11;
/// Target wall-clock time for one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(150);
/// Warm-up budget before calibration.
const WARMUP: Duration = Duration::from_millis(200);

/// One finished benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name within the group.
    pub name: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: u128,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: u128,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: u128,
    /// Iterations per timed sample (calibrated).
    pub iters_per_sample: u64,
}

/// A named group of benchmarks (mirrors the Criterion API shape we used).
pub struct Bench {
    group: String,
    results: Vec<BenchResult>,
}

impl Bench {
    /// A new benchmark group with the binary/group name.
    pub fn new(group: impl Into<String>) -> Bench {
        let group = group.into();
        println!("== {group} ==");
        Bench { group, results: Vec::new() }
    }

    /// Times `f`, printing median time per iteration.
    pub fn bench_function<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Bench {
        // Warm up and calibrate how many iterations fill one sample window.
        let warm_start = Instant::now();
        let mut iters_per_sample = 0u64;
        while warm_start.elapsed() < WARMUP || iters_per_sample == 0 {
            let t = Instant::now();
            black_box(f());
            let one = t.elapsed().max(Duration::from_nanos(1));
            iters_per_sample = (SAMPLE_TARGET.as_nanos() / one.as_nanos()).max(1) as u64;
            if one >= SAMPLE_TARGET {
                break;
            }
        }

        let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t.elapsed() / iters_per_sample as u32);
        }
        samples.sort();
        let median = samples[SAMPLES / 2];
        let min = samples[0];
        let max = samples[SAMPLES - 1];
        println!(
            "{}/{name}: median {} (min {}, max {}, {iters_per_sample} iters/sample)",
            self.group,
            fmt(median),
            fmt(min),
            fmt(max),
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns: median.as_nanos(),
            min_ns: min.as_nanos(),
            max_ns: max.as_nanos(),
            iters_per_sample,
        });
        self
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the group's results as a machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{{\n  \"group\": {},\n  \"results\": [", json_str(&self.group)));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"iters_per_sample\": {}}}",
                json_str(&r.name),
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.iters_per_sample
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Writes [`Bench::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())?;
        println!("wrote {} results to {path}", self.results.len());
        Ok(())
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_returns_self() {
        let mut b = Bench::new("test");
        let mut hits = 0u64;
        b.bench_function("noop", || hits += 1).bench_function("noop2", || ());
        assert!(hits > 0);
    }
}
