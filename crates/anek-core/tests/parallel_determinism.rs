//! Determinism and incremental-reuse guarantees of the parallel worklist.
//!
//! * `infer()` must be **byte-identical** for every `--threads N`: the
//!   worklist speculates chunks of a generation in parallel against frozen
//!   snapshots, merges single-threaded in queue order, and re-solves any
//!   member whose inputs an earlier merge changed — so every thread count
//!   commits the exact solve sequence of the sequential algorithm, and
//!   thread count may change wall-clock time but never a single bit of
//!   output. Chunks hold no call edge, so that re-solve never fires.
//! * Re-solving via the compiled [`MethodSkeleton`] (stamp dynamic priors,
//!   solve in the flat arena) must be bit-for-bit equal to rebuilding the
//!   full [`MethodModel`] from scratch with the same summaries/evidence —
//!   the keystone of incremental model reuse.

use analysis::pfg::Pfg;
use analysis::types::{MethodId, ProgramIndex};
use anek_core::{infer, merged_states, InferConfig, InferResult, MethodModel, ModelCtx};
use spec_lang::{api_with_protocols, spec_of_method, standard_api};
use std::sync::Arc;

/// Serializes everything semantically relevant about an inference result
/// (order is deterministic: all maps are `BTreeMap`s). Excludes wall-clock
/// time and thread count, which legitimately vary.
fn fingerprint(r: &InferResult) -> String {
    format!(
        "specs={:?}\nsummaries={:?}\nconfidence={:?}\nsolves={}\nbp_iterations={}\nmessage_updates={}\npre_annotated={:?}",
        r.specs, r.summaries, r.confidence, r.solves, r.bp_iterations, r.message_updates,
        r.pre_annotated
    )
}

#[test]
fn infer_is_byte_identical_for_any_thread_count() {
    let api = standard_api();
    for case in corpus::suite() {
        let unit = case.unit();
        let units = [unit];
        let base = infer(&units, &api, &InferConfig { threads: 1, ..InferConfig::default() });
        let want = fingerprint(&base);
        for threads in [2, 4, 8] {
            let got = infer(&units, &api, &InferConfig { threads, ..InferConfig::default() });
            assert_eq!(
                fingerprint(&got),
                want,
                "case {}: threads={threads} diverged from threads=1",
                case.name
            );
            // Speculation chunks hold no call edge, so no merge can make a
            // speculation stale.
            assert_eq!(got.discarded_solves, 0, "case {}: threads={threads}", case.name);
        }
    }
}

#[test]
fn mixed_protocol_corpus_is_byte_identical_across_thread_counts() {
    // Every protocol family (File, Lock, Builder, Connection, Stream,
    // Iterator) inferred under the full library, drained.
    let api = api_with_protocols(&["all"]).unwrap();
    let units = corpus::generate_mixed(&corpus::MixedConfig::small()).units;
    let run = |threads: usize| {
        let cfg = InferConfig {
            protocols: vec!["all".to_string()],
            max_iters: 9360,
            threads,
            ..InferConfig::default()
        };
        infer(&units, &api, &cfg)
    };
    let one = run(1);
    assert_eq!(fingerprint(&run(4)), fingerprint(&one), "threads=4 diverged from threads=1");
    // The Lock family is really inferred, not just deterministic.
    let make_lock =
        one.specs.get(&MethodId::new("LockSource", "makeLock")).expect("LockSource.makeLock spec");
    assert!(!make_lock.is_empty(), "LockSource.makeLock got an empty spec");
    let in_free = one
        .specs
        .values()
        .flat_map(|s| s.requires.atoms.iter().chain(&s.ensures.atoms))
        .any(|a| a.state.as_deref() == Some("FREE"));
    assert!(in_free, "no inferred atom is `in FREE`");
}

#[test]
fn infer_is_byte_identical_on_figure3_for_any_thread_count() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    let base = infer(&units, &api, &InferConfig { threads: 1, ..InferConfig::default() });
    let want = fingerprint(&base);
    for threads in [2, 4, 8] {
        let got = infer(&units, &api, &InferConfig { threads, ..InferConfig::default() });
        assert_eq!(fingerprint(&got), want, "threads={threads} diverged from threads=1");
    }
}

#[test]
fn speculation_counters_reflect_parallel_commits() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];

    // Sequential runs never speculate: the counters must be exactly zero.
    let seq = infer(&units, &api, &InferConfig { threads: 1, ..InferConfig::default() });
    assert_eq!(seq.speculative_solves, 0, "threads=1 must not speculate");
    assert_eq!(seq.discarded_solves, 0);
    assert_eq!(seq.commit_stall, std::time::Duration::ZERO);

    // Parallel runs speculate whole chunks. A chunk holds no call edge, so
    // no merge in it changes a later member's inputs: every speculation is
    // committed, no chunk stalls, and none of it may change output.
    for threads in [2, 4, 8] {
        let par = infer(&units, &api, &InferConfig { threads, ..InferConfig::default() });
        assert!(par.speculative_solves > 0, "threads={threads} should speculate a chunk");
        assert!(par.speculative_solves <= par.solves);
        assert_eq!(par.discarded_solves, 0, "threads={threads}");
        assert_eq!(par.stalled_chunks, 0, "threads={threads}");
        assert_eq!(fingerprint(&par), fingerprint(&seq));
    }
}

#[test]
fn skeleton_resolve_equals_fresh_model_rebuild_bit_for_bit() {
    // Converged summaries from a full run give the dynamic priors real,
    // non-uniform values, so the stamped path is exercised for real.
    let api = standard_api();
    let unit = corpus::figure3_unit();
    let cfg = InferConfig::default();
    let result = infer(std::slice::from_ref(&unit), &api, &cfg);

    let index = ProgramIndex::build([&unit]);
    let states = merged_states(std::slice::from_ref(&unit), &api);
    let ctx = ModelCtx { index: &index, api: &api, states: &states };

    for t in &unit.types {
        for m in t.methods() {
            if m.body.is_none() {
                continue;
            }
            let spec = spec_of_method(m).unwrap_or_default();
            let pfg = Pfg::build(&index, &api, &t.name, m);

            // Incremental path: compiled skeleton + stamped dynamic priors.
            let skeleton = anek_core::MethodSkeleton::build(
                ctx,
                Arc::new(Pfg::build(&index, &api, &t.name, m)),
                &spec,
                m.is_constructor(),
                &cfg,
            );
            let extras = skeleton.stamp(ctx, &result.summaries, &[]);
            let incremental = skeleton.solve(&extras, &cfg);

            // Fresh path: rebuild the whole model and solve its graph.
            let model =
                MethodModel::build(ctx, pfg, &spec, m.is_constructor(), &result.summaries, &cfg);
            let fresh = model.graph.solve(&cfg.bp);

            assert_eq!(
                incremental.as_slice().len(),
                fresh.as_slice().len(),
                "{}.{}: variable counts differ",
                t.name,
                m.name
            );
            for (i, (a, b)) in incremental.as_slice().iter().zip(fresh.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}.{} var {i}: incremental {a:e} != fresh {b:e}",
                    t.name,
                    m.name
                );
            }
            assert_eq!(incremental.iterations, fresh.iterations);
            assert_eq!(incremental.converged, fresh.converged);
        }
    }
}
