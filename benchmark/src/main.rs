//! The repository benchmark: four workloads, end-to-end metrics with
//! tracing off, and a separate traced run for the per-layer metrics. See
//! `README.md` beside this crate for what each workload and metric is for.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! A harness reading `BENCHMARK.json` runs its `command` with
//! `--workload NAME --seed N --seconds RUN_SECONDS --trace 0|1` appended,
//! so `--seconds` always carries the file's `run_seconds`; without it a run
//! lasts the same default, which a unit test holds equal to the file.
//!
//! With one `--workload` the run happens in this process. Otherwise every
//! workload runs in a child process of its own (a re-exec of this binary),
//! so peak RSS and CPU time are per workload; the parent only spawns and
//! waits. The last line of standard output is the result object.

mod compare;
mod layers;
mod report;
mod serve;
mod stats;
mod workload;

use anek::json::{self, Json};
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

/// Measured seconds per run when `--seconds` is absent: `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]\n\
         \x20      benchmark compare DIR_A DIR_B\n\
         workloads: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some(v @ ("0" | "1")) => {
                        let on = v == "1";
                        it.next();
                        on
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return run_compare(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return usage();
        }
    };
    match args.workloads.as_slice() {
        [one] => run_here(*one, &args),
        _ => run_children(&args),
    }
}

/// Runs one workload in this process and prints its result object last.
fn run_here(workload: Workload, args: &Args) -> ExitCode {
    let outcome: Outcome = if args.trace {
        layers::run_traced(workload, args.seed, args.seconds)
    } else if workload == Workload::ServeEdits {
        serve::run_serve(args.seed, args.seconds)
    } else {
        workload::run_batch(workload, args.seed, args.seconds)
    };
    for note in &outcome.notes {
        println!("{workload}: {note}");
    }
    for problem in &outcome.problems {
        println!("{workload}: CHECK FAILED: {problem}");
    }
    let result = match outcome.to_json() {
        Ok(result) => result,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(workload, &result);
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, args, &[(workload, result.clone())]) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    exit_for(outcome.correct())
}

/// Runs each workload in a child process and prints a combined result.
fn run_children(args: &Args) -> ExitCode {
    let workloads =
        if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<(Workload, Json)> = Vec::new();
    for &workload in &workloads {
        let child = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        match json::parse(last) {
            Ok(result) if result.get("metrics").is_some() => results.push((workload, result)),
            _ => {
                eprintln!("benchmark: {workload} exited with {} and no result", output.status);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, args, &results) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    let count = |key: &str| {
        results.iter().filter_map(|(_, r)| r.get(key).and_then(Json::as_num)).sum::<f64>()
    };
    let correct = results.iter().all(|(_, r)| matches!(r.get("correct"), Some(Json::Bool(true))));
    let mut metrics = Vec::new();
    for (workload, result) in &results {
        if let Some(Json::Obj(fields)) = result.get("metrics") {
            metrics
                .extend(fields.iter().map(|(name, m)| (format!("{workload}/{name}"), m.clone())));
        }
    }
    let combined = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(count("attempted"))),
        ("failed".into(), Json::Num(count("failed"))),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{combined}");
    exit_for(correct)
}

fn exit_for(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One row per metric: name, value, unit.
fn print_table(workload: Workload, result: &Json) {
    if let Some(Json::Obj(fields)) = result.get("metrics") {
        for (name, m) in fields {
            let value = m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{:<12} {name:<38} {value:>16.6} {unit}", workload.name());
        }
    }
}

/// Writes the `--json` file: the run's settings plus one result object
/// per workload (the input of `benchmark compare`).
fn write_json(path: &Path, args: &Args, results: &[(Workload, Json)]) -> Result<(), String> {
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "workloads".into(),
            Json::Obj(results.iter().map(|(w, r)| (w.name().to_string(), r.clone())).collect()),
        ),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare DIR_A DIR_B`, run from the repository root, where
/// `BENCHMARK.json` holds the bounds.
fn run_compare(raw: &[String]) -> ExitCode {
    let [a, b] = raw else { return usage() };
    match compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn full_argument_lists_parse() {
        let args =
            parse(&["--workload", "mixed_all", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(args.workloads, [Workload::MixedAll]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--seed", "3"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn default_run_length_is_run_seconds_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc.get("run_seconds").and_then(Json::as_num), Some(DEFAULT_SECONDS));
    }
}
