//! Round-trip properties of the solve-record codec and the on-disk store:
//! serialize → deserialize must be value-equal and (re-serialized)
//! bit-equal, including records produced by real inference runs and
//! adversarial float values like NaN.

use analysis::types::MethodId;
use anek_core::memo::{CacheKey, InferCache, SolvedRecord};
use anek_core::{infer_with_store, CallerEvidence, InferConfig, MethodSummary, SlotProbs, VecMap};
use factor_graph::GuardEvents;
use java_syntax::ast::ExprId;
use prng::Rng;
use spec_lang::standard_api;
use std::path::PathBuf;
use std::sync::Mutex;
use store::{codec, Store};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anek-store-rt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rand_slot(rng: &mut Rng) -> SlotProbs {
    let mut kinds = [0.0f64; 5];
    for k in &mut kinds {
        *k = rng.gen_f64();
    }
    let states =
        (0..rng.gen_index(0..4)).map(|i| (format!("S{i}").into(), rng.gen_f64())).collect();
    SlotProbs { kinds, states }
}

fn rand_summary(rng: &mut Rng) -> MethodSummary {
    let params = (0..rng.gen_index(0..4))
        .map(|i| (format!("p{i}"), rand_slot(rng), rand_slot(rng)))
        .collect();
    let result = rng.gen_bool(0.5).then(|| rand_slot(rng));
    MethodSummary { params, result }
}

fn rand_evidence(rng: &mut Rng) -> CallerEvidence {
    let mut pre = VecMap::default();
    let mut post = VecMap::default();
    for i in 0..rng.gen_index(0..3) {
        pre.insert(format!("a{i}"), rand_slot(rng));
        post.insert(format!("a{i}"), rand_slot(rng));
    }
    CallerEvidence {
        param_pre: pre,
        param_post: post,
        result: rng.gen_bool(0.3).then(|| rand_slot(rng)),
    }
}

fn rand_solved(rng: &mut Rng) -> SolvedRecord {
    let mut call_evidence = VecMap::default();
    for i in 0..rng.gen_index(0..3) {
        let mut sites = VecMap::default();
        for s in 0..rng.gen_index(1..3) {
            sites.insert(ExprId(s as u32 * 7), rand_evidence(rng));
        }
        call_evidence.insert(MethodId::new(format!("C{i}"), "m"), sites);
    }
    SolvedRecord {
        summary: rand_summary(rng),
        call_evidence,
        iterations: rng.gen_index(0..100),
        updates: rng.gen_index(0..10_000),
        converged: rng.gen_bool(0.8),
        guards: GuardEvents { non_finite: rng.gen_index(0..3), zero_sum: rng.gen_index(0..3) },
    }
}

#[test]
fn random_summaries_round_trip_bit_exactly() {
    prng::forall("summary round-trip", 200, |rng| {
        let summary = rand_summary(rng);
        let bytes = codec::to_bytes(|e| codec::enc_summary(e, &summary));
        let back = codec::from_bytes(&bytes, codec::dec_summary).expect("decodes");
        assert_eq!(back, summary);
        let again = codec::to_bytes(|e| codec::enc_summary(e, &back));
        assert_eq!(again, bytes, "re-serialization must be bit-identical");
    });
}

#[test]
fn random_solve_records_round_trip() {
    prng::forall("solve-record round-trip", 100, |rng| {
        let record = rand_solved(rng);
        let bytes = codec::to_bytes(|e| codec::enc_solved(e, &record));
        let back = codec::from_bytes(&bytes, codec::dec_solved).expect("decodes");
        assert_eq!(back, record);
        let again = codec::to_bytes(|e| codec::enc_solved(e, &back));
        assert_eq!(again, bytes);
    });
}

#[test]
fn non_finite_floats_survive_bit_exactly() {
    // NaN breaks value equality (NaN != NaN), so bit-level round-tripping
    // is the only meaningful contract — and the one determinism needs.
    let mut slot = SlotProbs {
        kinds: [f64::NAN, f64::INFINITY, -0.0, 1.0, f64::MIN_POSITIVE],
        states: VecMap::default(),
    };
    slot.states.insert("S".into(), f64::NEG_INFINITY);
    let summary = MethodSummary { params: vec![("p".into(), slot.clone(), slot)], result: None };
    let bytes = codec::to_bytes(|e| codec::enc_summary(e, &summary));
    let back = codec::from_bytes(&bytes, codec::dec_summary).expect("decodes");
    let again = codec::to_bytes(|e| codec::enc_summary(e, &back));
    assert_eq!(again, bytes);
    assert!(back.params[0].1.kinds[0].is_nan());
    assert_eq!(back.params[0].1.kinds[2].to_bits(), (-0.0f64).to_bits());
}

/// An [`InferCache`] that records inserts so tests can round-trip the
/// records a real inference run commits.
#[derive(Default)]
struct Capture {
    solves: Mutex<Vec<(CacheKey, SolvedRecord)>>,
}

impl InferCache for Capture {
    fn solve_lookup(&self, _key: CacheKey) -> Option<SolvedRecord> {
        None
    }
    fn solve_insert(&self, key: CacheKey, record: &SolvedRecord) {
        self.solves.lock().unwrap().push((key, record.clone()));
    }
}

#[test]
fn inference_artifacts_round_trip() {
    let unit = java_syntax::parse(
        r#"class App {
            void level1(Iterator<Integer> it) { it.next(); }
            void level2(Iterator<Integer> it) { level1(it); }
        }"#,
    )
    .expect("parses");
    let api = standard_api();
    let capture = Capture::default();
    let result = infer_with_store(&[unit], &api, &InferConfig::default(), Some(&capture));
    assert!(result.memo_misses > 0, "cold run must commit misses");
    let solves = capture.solves.lock().unwrap();
    assert!(!solves.is_empty());
    for (_, record) in solves.iter() {
        let bytes = codec::to_bytes(|e| codec::enc_solved(e, record));
        let back = codec::from_bytes(&bytes, codec::dec_solved).expect("decodes");
        assert_eq!(&back, record);
    }
    for (id, summary) in &result.summaries {
        let bytes = codec::to_bytes(|e| codec::enc_summary(e, summary));
        let back = codec::from_bytes(&bytes, codec::dec_summary).expect("decodes");
        assert_eq!(&back, summary, "{id}");
    }
}

#[test]
fn store_round_trips_through_disk() {
    let dir = temp_store("disk");
    let mut rng = Rng::new(7);
    let record = rand_solved(&mut rng);
    let key: CacheKey = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
    {
        let s = Store::open(&dir).expect("open");
        s.solve_insert(key, &record);
    }
    // A fresh Store has a cold memory cache, so this exercises the disk path.
    let s = Store::open(&dir).expect("reopen");
    assert_eq!(s.stats().entries, 1);
    let back = s.solve_lookup(key).expect("hit");
    assert_eq!(back, record);
    assert_eq!(s.stats().solve_hits, 1);
    assert_eq!(s.stats().corrupt_entries, 0);
    assert!(s.solve_lookup(key ^ 1).is_none(), "different key misses");
    assert_eq!(s.stats().solve_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
