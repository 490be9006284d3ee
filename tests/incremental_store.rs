//! End-to-end incremental-equivalence gate: against a PMD-shaped corpus,
//! edit one method body, and verify that a warm incremental run through the
//! persistent store is **byte-identical** to a cold full run on the edited
//! program, with and without a store — at `--threads 1` and `--threads 4` —
//! while re-solving strictly fewer methods.

use anek::anek_core::memo::{hash_bytes, CacheKey, InferCache, SolvedRecord};
use anek::anek_core::{infer_with_store, InferConfig, InferResult};
use anek::spec_lang::standard_api;
use anek::store::{codec, Store};
use anek::Pipeline;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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

        // Warm store: a full run on the *original* program. (A cold run
        // still records memo hits: a method re-queued after its own summary
        // changed is solved again on unchanged inputs, and that solve is
        // replayed; see the next test.)
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

/// Every field of a traced run except wall-clock times and what only a run
/// with a store reports: the memo counters and the spans' cache-hit flags.
fn observable(mut result: InferResult) -> String {
    (result.elapsed, result.commit_stall) = Default::default();
    (result.memo_hits, result.memo_misses) = (0, 0);
    let trace = result.trace.as_mut().expect("traced run");
    (trace.counters.memo_hits, trace.counters.memo_misses) = (0, 0);
    trace.spans.iter_mut().for_each(|span| span.cache_hit = false);
    format!("{result:?}")
}

#[test]
fn unchanged_inputs_replay_what_a_cold_store_answers() {
    let print = |units: &[java_syntax::CompilationUnit]| -> Vec<String> {
        units.iter().map(java_syntax::print_unit).collect()
    };
    let small = print(&corpus::generate(&corpus::PmdConfig::small()).units);
    let mixed = print(&corpus::generate_mixed(&corpus::MixedConfig::small()).units);
    // The solves, BP iterations and message updates that re-solving every
    // queued method reports. The store run replays too, so only these show
    // that each replay stands in for a real solve.
    let cases: [(&str, Vec<String>, &[&str], _); 2] = [
        ("small", small, &[], (134, 4_088, 1_611_888)),
        ("mixed", mixed, &["all"], (177, 6_682, 4_351_112)),
    ];
    for (name, sources, families, counts) in cases {
        for threads in [1usize, 2] {
            let dir = temp_store(&format!("replay-{name}-{threads}"));
            let store = Arc::new(Store::open(&dir).expect("open store"));
            let run = |store: Option<&Arc<Store>>| {
                let mut pipeline = Pipeline::from_sources(&sources)
                    .expect("corpus parses")
                    .with_protocols(families)
                    .expect("known family")
                    .with_threads(threads)
                    .with_trace(true);
                pipeline.config.max_iters = 9360;
                if let Some(store) = store {
                    pipeline = pipeline.with_store(Arc::clone(store));
                }
                pipeline.infer()
            };
            let cold = run(Some(&store));
            let bare = run(None);
            assert!(bare.replayed_solves > 0, "{name}, threads {threads}: nothing replayed");
            let got = (bare.solves, bare.bp_iterations, bare.message_updates);
            assert_eq!(got, counts, "{name}, threads {threads}");
            assert_eq!(bare.replayed_solves, cold.memo_hits, "{name}, threads {threads}");
            assert_eq!(observable(bare), observable(cold), "{name}, threads {threads}");
            let _ = std::fs::remove_dir_all(&dir);
        }
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

/// A cache that answers nothing and keeps, in commit order, each key it is
/// given followed by the bytes the store would write for the record.
#[derive(Default)]
struct Encoded(Mutex<Vec<u8>>);

impl InferCache for Encoded {
    fn solve_lookup(&self, _key: CacheKey) -> Option<SolvedRecord> {
        None
    }

    fn solve_insert(&self, key: CacheKey, record: &SolvedRecord) {
        let mut bytes = self.0.lock().expect("not poisoned");
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend(codec::to_bytes(|e| codec::enc_solved(e, record)));
    }
}

/// A store written by an earlier build stays warm only while the keys a run
/// computes and the bytes its records encode to stay the same. Both are
/// pinned here for the small corpus drained at one thread: 83 records in
/// 31,283 bytes, hashed when slot marginals still lived in B-trees. A change
/// to how summaries or caller evidence are hashed, encoded or ordered fails
/// this test before it turns every existing store cold.
#[test]
fn small_corpus_store_keys_and_records_are_pinned() {
    let corpus = corpus::generate(&corpus::PmdConfig::small());
    let config =
        InferConfig { max_iters: 3 * corpus.stats.methods, threads: 1, ..InferConfig::default() };
    let encoded = Encoded::default();
    let result = infer_with_store(&corpus.units, &standard_api(), &config, Some(&encoded));
    let bytes = encoded.0.into_inner().expect("not poisoned");
    assert_eq!(
        (result.memo_misses, bytes.len(), hash_bytes(&bytes)),
        (83, 31_283, 0xb12f_8c01_76a8_6c5b_71a0_7ba4_8c97_d6ec)
    );
}
