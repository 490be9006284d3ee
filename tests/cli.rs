//! CLI contract tests for the `anek` binary: the documented exit codes
//! (0 success, 1 runtime failure, 2 usage error, 3 partial result) of
//! `infer`, `lint` and `check`, the `corpus` generator, the `--store`
//! flag, a scripted `serve --stdio` session, and the golden serve
//! transcripts.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn anek() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anek"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anek-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write source");
    path
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

/// Number of solve records in the store at `store`.
fn solve_blobs(store: &Path) -> usize {
    std::fs::read_dir(store.join("objects"))
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("solve-") && name.ends_with(".blob")
                })
                .count()
        })
        .unwrap_or(0)
}

const DRAIN: &str =
    "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }";

/// `next()` on a fresh iterator with no `hasNext()` test: a protocol bug.
const FIRST: &str =
    "class First { Object first(Collection<Integer> c) { return c.iterator().next(); } }";

/// Number of `.java` files in `dir`.
fn java_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("read corpus dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "java"))
        .count()
}

#[test]
fn exit_zero_on_clean_infer() {
    let dir = temp_dir("ok");
    let src = write(&dir, "App.java", DRAIN);
    let out = anek().arg("infer").arg(&src).output().expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("App.drain"), "specs printed: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_two_on_usage_errors() {
    // No subcommand at all.
    let out = anek().output().expect("run");
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("exit codes"));
    // Unknown subcommand.
    let out = anek().arg("transmogrify").output().expect("run");
    assert_eq!(code(&out), 2);
    // Unknown flag.
    let out = anek().args(["infer", "--frobnicate", "x.java"]).output().expect("run");
    assert_eq!(code(&out), 2);
    // The removed BP schedule/precision flags are unknown flags too, caught
    // before any input file is read.
    for flag in [["--bp-schedule", "residual"], ["--bp-precision", "f32"]] {
        let out = anek().arg("infer").args(flag).arg("x.java").output().expect("run");
        assert_eq!(code(&out), 2, "{flag:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{flag:?}");
    }
    // Flag missing its argument.
    let out = anek().args(["infer", "--threads"]).output().expect("run");
    assert_eq!(code(&out), 2);
    // No input files.
    let out = anek().arg("infer").output().expect("run");
    assert_eq!(code(&out), 2);
    // serve needs a transport.
    let out = anek().arg("serve").output().expect("run");
    assert_eq!(code(&out), 2);
    // --help is not an error.
    let out = anek().arg("--help").output().expect("run");
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("exit codes"));
}

#[test]
fn exit_one_on_runtime_failure() {
    let out = anek().args(["infer", "/nonexistent/Nope.java"]).output().expect("run");
    assert_eq!(code(&out), 1);
}

#[test]
fn exit_three_on_partial_result() {
    let dir = temp_dir("partial");
    let src = write(&dir, "App.java", DRAIN);
    let plan = write(&dir, "plan.txt", "panic App.drain\n");
    let out = anek()
        .args(["infer", "--inject"])
        .arg(&plan)
        .arg("--outcomes")
        .arg(&src)
        .output()
        .expect("run");
    assert_eq!(code(&out), 3, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("App.drain\tfailed"), "outcome table shows the failure: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_and_check_exit_one_on_a_protocol_bug_and_zero_without() {
    let dir = temp_dir("verdicts");
    let bug = write(&dir, "First.java", FIRST);
    let clean = write(&dir, "Drain.java", DRAIN);
    let out = anek().arg("lint").arg(&bug).output().expect("run");
    assert_eq!(code(&out), 1, "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PROT001"));
    let out = anek().arg("lint").arg(&clean).output().expect("run");
    assert_eq!(code(&out), 0, "stdout: {}", String::from_utf8_lossy(&out.stdout));

    let out = anek().args(["check", "--json"]).arg(&bug).output().expect("run");
    assert_eq!(code(&out), 1, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""rule":"CHK001""#));
    let out = anek().args(["check", "--json"]).arg(&clean).output().expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");

    let out = anek()
        .args(["check", "--infer", "--branch-sensitive", "--cross-validate"])
        .arg(&bug)
        .arg(&clean)
        .output()
        .expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("undocumented disagreements: 0"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_writes_one_file_per_generated_class() {
    let dir = temp_dir("corpus");
    let small = corpus::generate(&corpus::PmdConfig::small());
    let mixed = corpus::generate_mixed(&corpus::MixedConfig::small());
    for (flag, want) in [("--small", small.stats.classes), ("--mixed", mixed.stats.classes)] {
        let out_dir = dir.join(&flag[2..]);
        let out = anek().arg("corpus").arg(&out_dir).arg(flag).output().expect("run");
        assert_eq!(code(&out), 0, "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(java_files(&out_dir), want, "{flag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn infer_screens_under_every_protocol_family() {
    let dir = temp_dir("screen");
    let clean = write(&dir, "Drain.java", DRAIN);
    // No protocol call at all: provably clean and isolated, so screened.
    let plain =
        write(&dir, "Size.java", "class Size { int zero(Collection<Integer> c) { return 0; } }");
    // Releases a FREE lock: a violation once the Lock family is selected,
    // so screening must keep it.
    let lock = write(
        &dir,
        "Slip.java",
        "class Slip { int slip(LockFactory f) { Lock l = f.newLock(); l.release(); return 0; } }",
    );
    let out = anek()
        .args(["infer", "--screen", "--max-iters", "50", "--protocols", "all", "--outcomes"])
        .args([&clean, &plain, &lock])
        .output()
        .expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Size.zero\tscreened"), "{stdout}");
    assert!(stdout.contains("Slip.slip\t"), "{stdout}");
    assert!(!stdout.contains("Slip.slip\tscreened"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_flag_makes_second_run_warm_and_identical() {
    let dir = temp_dir("store");
    let src = write(&dir, "App.java", DRAIN);
    let store = dir.join("store");
    let run = || {
        anek().args(["infer", "--outcomes", "--store"]).arg(&store).arg(&src).output().expect("run")
    };
    let first = run();
    assert_eq!(code(&first), 0, "stderr: {}", String::from_utf8_lossy(&first.stderr));
    assert!(solve_blobs(&store) > 0, "solve records materialized on disk");
    let files: Vec<_> = std::fs::read_dir(store.join("objects"))
        .expect("objects dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(solve_blobs(&store), files.len(), "the store holds only solve records: {files:?}");
    let second = run();
    assert_eq!(code(&second), 0);
    assert_eq!(first.stdout, second.stdout, "warm stdout is byte-identical to cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_json_writes_three_sections_and_explain_reports_provenance() {
    let dir = temp_dir("trace");
    let src = write(&dir, "App.java", DRAIN);
    let trace_path = dir.join("trace.json");
    let out =
        anek().args(["infer", "--trace-json"]).arg(&trace_path).arg(&src).output().expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&trace_path).expect("trace artifact written");
    let lines: Vec<&str> = trace.trim_end().lines().collect();
    assert_eq!(lines.len(), 3, "three sections: {trace}");
    assert!(lines[0].starts_with("{\"section\":\"spec\""), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"section\":\"deterministic\""), "{}", lines[1]);
    assert!(lines[2].starts_with("{\"section\":\"execution\""), "{}", lines[2]);
    for banned in ["_ms", "elapsed", "wall"] {
        assert!(!trace.contains(banned), "wall-clock leaked into the trace: {banned}");
    }

    let out = anek().args(["explain"]).arg(&src).arg("App.drain").output().expect("run");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EXPL001"), "{stdout}");
    assert!(stdout.contains("PROT"), "protocol family credited: {stdout}");
    // --json emits a machine-readable EXPL001 array.
    let out = anek().args(["explain", "--json"]).arg(&src).arg("App.drain").output().expect("run");
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains(r#""rule":"EXPL001""#), "{stdout}");
    // A target that is not Class.method is a usage error.
    let out = anek().args(["explain"]).arg(&src).arg("nodot").output().expect("run");
    assert_eq!(code(&out), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdio_runs_a_full_session() {
    let dir = temp_dir("serve");
    let store = dir.join("store");
    let source_json = DRAIN.replace('"', "\\\"");
    let session = [
        format!(
            r#"{{"id":1,"method":"load_sources","params":{{"sources":[{{"name":"App.java","text":"{source_json}"}}]}}}}"#
        ),
        r#"{"id":2,"method":"query_spec","params":{"method":"App.drain"}}"#.to_string(),
        r#"{"id":3,"method":"inject_faults","params":{"plan":"panic App.drain"}}"#.to_string(),
        r#"{"id":4,"method":"query_outcomes"}"#.to_string(),
        r#"{"id":5,"method":"stats"}"#.to_string(),
        r#"{"id":6,"method":"shutdown"}"#.to_string(),
    ]
    .join("\n")
        + "\n";

    let mut child = anek()
        .args(["serve", "--stdio", "--store"])
        .arg(&store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child.stdin.as_mut().expect("stdin").write_all(session.as_bytes()).expect("write");
    let out = child.wait_with_output().expect("wait");
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request: {stdout}");
    assert!(lines[0].contains(r#""id":1"#) && lines[0].contains(r#""loaded":1"#));
    assert!(lines[1].contains(r#""requires""#) && lines[1].contains("it"), "{}", lines[1]);
    assert!(lines[2].contains(r#""failed":["App.drain"]"#), "{}", lines[2]);
    assert!(
        lines[3].contains(r#""status":"failed""#),
        "outcomes report the injected failure: {}",
        lines[3]
    );
    assert!(lines[4].contains(r#""corrupt_entries":0"#), "{}", lines[4]);
    assert!(
        lines[4].contains(r#""discarded_solves""#) && lines[4].contains(r#""screened_methods""#),
        "stats surfaces the worklist and screening counters: {}",
        lines[4]
    );
    assert!(lines[5].contains(r#""ok":true"#), "{}", lines[5]);
    assert!(solve_blobs(&store) > 0, "the session stored its solve records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipes each golden session into `anek serve --stdio` over a fresh store
/// and byte-compares stdout with its golden transcript.
#[test]
fn serve_transcripts_match_their_goldens() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
    for (name, extra) in [("serve", &[][..]), ("serve_overload", &["--admission-cap", "0"][..])] {
        let dir = temp_dir(&format!("golden-{name}"));
        let session = std::fs::read(format!("{golden}{name}_session.jsonl")).expect("session");
        let mut child = anek()
            .args(["serve", "--stdio", "--store"])
            .arg(dir.join("store"))
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        child.stdin.take().expect("stdin").write_all(&session).expect("write session");
        let out = child.wait_with_output().expect("wait");
        assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let expected = std::fs::read_to_string(format!("{golden}{name}_transcript.golden"))
            .expect("golden transcript");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{name}: drifted from tests/golden/{name}_transcript.golden"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
