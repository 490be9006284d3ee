//! End-to-end incremental-equivalence gate: against a PMD-shaped corpus,
//! edit one method body, and verify that a warm incremental run through the
//! persistent store is **byte-identical** to a cold full run on the edited
//! program, with and without a store — at `--threads 1` and `--threads 4` —
//! while re-solving strictly fewer methods.

use anek::anek_core::InferResult;
use anek::store::Store;
use anek::Pipeline;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anek-incr-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every byte of observable output: specs, summaries (full f64 bit
/// precision via Debug's shortest-round-trip formatting), confidence and
/// the outcome table.
fn rendering(result: &InferResult) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{}",
        result.specs,
        result.summaries,
        result.confidence,
        result.outcome_table()
    )
}

fn run(sources: &[String], threads: usize, store: Option<&Arc<Store>>) -> InferResult {
    let mut pipeline =
        Pipeline::from_sources(sources).expect("corpus parses").with_threads(threads);
    if let Some(store) = store {
        pipeline = pipeline.with_store(Arc::clone(store));
    }
    pipeline.infer()
}

#[test]
fn warm_incremental_is_byte_identical_to_cold_at_both_thread_counts() {
    let corpus = corpus::generate(&corpus::PmdConfig::small());
    let original: Vec<String> = corpus.units.iter().map(java_syntax::print_unit).collect();

    // Edit exactly one method body: append a statement after the first
    // `.next();` in the first source that has one. Body-only, so only the
    // edited unit's fingerprint changes.
    let mut edited = original.clone();
    let target =
        edited.iter().position(|s| s.contains(".next();")).expect("corpus contains a next() call");
    edited[target] = edited[target].replacen(".next();", ".next();\nint __edited = 1;", 1);
    assert_ne!(edited[target], original[target]);

    for threads in [1usize, 4] {
        // Cold baseline on the edited program, with a fresh store so its
        // memo counters give the full-solve count.
        let cold_dir = temp_store(&format!("cold-{threads}"));
        let cold_store = Arc::new(Store::open(&cold_dir).expect("open cold store"));
        let cold = run(&edited, threads, Some(&cold_store));
        assert_eq!(cold.memo_hits + cold.memo_misses, cold.solves);
        assert_eq!(
            rendering(&cold),
            rendering(&run(&edited, threads, None)),
            "threads={threads}: a cold run through a store must match a run without one"
        );

        // Warm store: a full run on the *original* program. (A cold run may
        // still record a few memo hits: the worklist can revisit a method
        // whose dynamic inputs converged back to an identical key.)
        let warm_dir = temp_store(&format!("warm-{threads}"));
        let warm_store = Arc::new(Store::open(&warm_dir).expect("open warm store"));
        let warmup = run(&original, threads, Some(&warm_store));
        assert!(warmup.memo_misses > 0, "first run of a fresh store must solve");

        // The incremental run: edited program against the warm store.
        let warm = run(&edited, threads, Some(&warm_store));

        assert_eq!(
            rendering(&warm),
            rendering(&cold),
            "threads={threads}: warm incremental output must be byte-identical to a cold run"
        );
        assert!(warm.memo_hits > 0, "threads={threads}: warm run must reuse cached solves");
        assert!(warm.memo_misses > 0, "threads={threads}: the edited method must re-solve");
        assert!(
            warm.memo_misses < cold.memo_misses,
            "threads={threads}: warm run must re-solve strictly fewer methods \
             (warm {} vs cold {})",
            warm.memo_misses,
            cold.memo_misses
        );

        let _ = std::fs::remove_dir_all(&cold_dir);
        let _ = std::fs::remove_dir_all(&warm_dir);
    }
}

#[test]
fn unchanged_rerun_is_fully_memoized() {
    let sources = vec![
        "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }"
            .to_string(),
        "class Row { Collection<Integer> entries; Iterator<Integer> iter() { return entries.iterator(); } }"
            .to_string(),
    ];
    let dir = temp_store("norerun");
    let store = Arc::new(Store::open(&dir).expect("open"));
    let first = run(&sources, 1, Some(&store));
    assert!(first.memo_misses > 0);
    let second = run(&sources, 1, Some(&store));
    assert_eq!(second.memo_misses, 0, "nothing changed, nothing re-solves");
    assert_eq!(second.memo_hits, second.solves);
    assert_eq!(rendering(&first), rendering(&second));
    // And across processes: a fresh Store reading the same directory.
    let reopened = Arc::new(Store::open(&dir).expect("reopen"));
    let third = run(&sources, 1, Some(&reopened));
    assert_eq!(third.memo_misses, 0, "warmth persists on disk");
    assert_eq!(rendering(&first), rendering(&third));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interface_edit_invalidates_conservatively() {
    let base = vec![
        "class A { void use(Iterator<Integer> it) { it.next(); } }".to_string(),
        "class B { int f; }".to_string(),
    ];
    let dir = temp_store("iface");
    let store = Arc::new(Store::open(&dir).expect("open"));
    let first = run(&base, 1, Some(&store));
    assert!(first.memo_misses > 0);
    // Adding a field to B changes the program interface: every method's
    // static key changes, so nothing recorded by the first run is reusable.
    // The warm-store run must match a cold fresh-store run solve for solve
    // (within-run revisit hits are fine — they happen cold too).
    let mut edited = base.clone();
    edited[1] = "class B { int f; int g; }".to_string();
    let second = run(&edited, 1, Some(&store));
    let cold_dir = temp_store("iface-cold");
    let cold_store = Arc::new(Store::open(&cold_dir).expect("open"));
    let cold = run(&edited, 1, Some(&cold_store));
    assert_eq!(
        (second.memo_hits, second.memo_misses),
        (cold.memo_hits, cold.memo_misses),
        "interface edits must leave no cross-run reuse"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}
