//! Benchmarks of the inference itself — the per-method model solve and the
//! whole modular worklist, at two scales. Runs on the in-tree
//! [`bench::microbench`] harness (no Criterion in the offline build).

use anek::anek_core::InferConfig;
use anek::corpus::generator::{generate, PmdConfig};
use anek::Pipeline;
use bench::microbench::Bench;
use std::hint::black_box;

fn bench_infer_figure3(b: &mut Bench) {
    let unit = java_syntax::parse(corpus::FIGURE3).unwrap();
    b.bench_function("figure3", || Pipeline::new(vec![black_box(&unit).clone()]).infer());
}

fn bench_infer_small_corpus(b: &mut Bench) {
    let corpus = generate(&PmdConfig::small());
    b.bench_function("small_corpus_default_iters", || {
        let cfg = InferConfig { max_iters: 2 * corpus.stats.methods, ..InferConfig::default() };
        Pipeline::new(black_box(&corpus.units).clone()).with_config(cfg).infer()
    });
    // The parallel worklist at several thread counts (byte-identical
    // results; only wall-clock changes).
    for threads in [2usize, 4] {
        b.bench_function(&format!("small_corpus_threads{threads}"), || {
            let cfg = InferConfig {
                max_iters: 2 * corpus.stats.methods,
                threads,
                ..InferConfig::default()
            };
            Pipeline::new(black_box(&corpus.units).clone()).with_config(cfg).infer()
        });
    }
}

fn bench_logical_budget(b: &mut Bench) {
    // The logical baseline with a tiny budget (constant work: it DNFs).
    let corpus = generate(&PmdConfig::small());
    let api = spec_lang::standard_api();
    b.bench_function("logical_budget_10k", || {
        anek_core::solve_logical(black_box(&corpus.units), &api, &InferConfig::default(), 10_000)
    });
}

fn main() {
    let mut b = Bench::new("anek_infer");
    bench_infer_figure3(&mut b);
    bench_infer_small_corpus(&mut b);
    bench_logical_budget(&mut b);
    b.write_json("BENCH_micro.json").expect("write BENCH_micro.json");
}
