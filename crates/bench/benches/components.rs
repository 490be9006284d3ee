//! Micro-benchmarks of the pipeline components: lexing/parsing, PFG
//! construction, model skeleton builds, belief propagation, checking and
//! Gaussian elimination.
//! Runs on the in-tree [`bench::microbench`] harness (no Criterion in the
//! offline build).

use anek::analysis::{Pfg, ProgramIndex};
use anek::anek_core::{merged_states, InferConfig, MethodSkeleton, ModelCtx};
use anek::factor_graph::{BpOptions, CompiledGraph, Factor, FactorGraph};
use anek::java_syntax::CompilationUnit;
use anek::plural::{check, local_infer_pfg, SpecTable};
use anek::spec_lang::{spec_of_method, standard_api};
use bench::microbench::Bench;
use std::hint::black_box;
use std::sync::Arc;

fn bench_parser(b: &mut Bench) {
    let src = corpus::FIGURE3;
    b.bench_function("parse_figure3", || java_syntax::parse(black_box(src)).unwrap());
    let corpus = corpus::generator::generate(&corpus::PmdConfig::small());
    // Every class printed back to Java, as one source.
    let source: String = corpus.units.iter().map(java_syntax::print_unit).collect();
    b.bench_function("lex_small_corpus", || java_syntax::lex(black_box(&source)).unwrap());
    b.bench_function("parse_small_corpus", || java_syntax::parse(black_box(&source)).unwrap());
}

fn bench_pfg(b: &mut Bench) {
    let unit = java_syntax::parse(corpus::FIGURE3).unwrap();
    let index = ProgramIndex::build([&unit]);
    let api = standard_api();
    let t = unit.type_named("Spreadsheet").unwrap();
    let m = t.method_named("copy").unwrap();
    b.bench_function("pfg_build_copy", || {
        Pfg::build(black_box(&index), black_box(&api), "Spreadsheet", black_box(m))
    });
}

/// One `MethodSkeleton::build` per bodied method of the small corpus: the
/// model emission and compile a worklist solve pays on a store miss. The
/// PFGs are built once, outside the timed loop.
fn bench_skeleton(b: &mut Bench) {
    let corpus = corpus::generator::generate(&corpus::PmdConfig::small());
    let api = standard_api();
    let index = ProgramIndex::build(corpus.units.iter());
    let states = merged_states(&corpus.units, &api);
    let ctx = ModelCtx { index: &index, api: &api, states: &states };
    let cfg = InferConfig::default();
    let methods: Vec<_> = corpus
        .units
        .iter()
        .flat_map(CompilationUnit::methods)
        .filter(|(_, m)| m.body.is_some())
        .map(|(t, m)| {
            let pfg = Arc::new(Pfg::build(&index, &api, &t.name, m));
            (pfg, spec_of_method(m).unwrap_or_default(), m.is_constructor())
        })
        .collect();
    b.bench_function("skeleton_build_small_corpus", || {
        methods
            .iter()
            .map(|(pfg, spec, ctor)| {
                MethodSkeleton::build(ctx, Arc::clone(pfg), spec, *ctor, &cfg)
                    .compiled()
                    .num_edges()
            })
            .sum::<usize>()
    });
}

fn bench_bp(b: &mut Bench) {
    // A representative loopy graph: 30-variable cycle with priors.
    let mut g = FactorGraph::new();
    let vars: Vec<_> = (0..30).map(|_| g.add_var()).collect();
    for (i, v) in vars.iter().enumerate() {
        if i % 5 == 0 {
            g.add_factor(Factor::unary(*v, 0.9));
        }
    }
    for i in 0..30 {
        let a = vars[i];
        let b2 = vars[(i + 1) % 30];
        g.add_factor(Factor::soft(vec![a, b2], 0.9, |x| x[0] == x[1]));
    }
    b.bench_function("bp_30var_cycle", || black_box(&g).solve(&BpOptions::default()));
    // The same graph through the flat-arena kernel, amortizing compilation
    // (the incremental-reuse path of the worklist).
    let compiled = CompiledGraph::compile(&g);
    b.bench_function("bp_30var_cycle_precompiled", || {
        black_box(&compiled).solve(&BpOptions::default())
    });

    let mut g = FactorGraph::new();
    let vars: Vec<_> = (0..16).map(|_| g.add_var()).collect();
    for w in vars.windows(2) {
        g.add_factor(Factor::soft(vec![w[0], w[1]], 0.8, |x| x[0] == x[1]));
    }
    g.add_factor(Factor::unary(vars[0], 0.95));
    b.bench_function("exact_enumeration_16vars", || black_box(&g).solve_exact());
}

fn bench_checker(b: &mut Bench) {
    let unit = java_syntax::parse(corpus::FIGURE3).unwrap();
    let api = standard_api();
    let units = vec![unit];
    let specs = SpecTable::from_units(&units);
    b.bench_function("plural_check_figure3", || {
        check(black_box(&units), black_box(&api), black_box(&specs))
    });
}

fn bench_gaussian(b: &mut Bench) {
    let program = corpus::table3_program(11, 200);
    let index = ProgramIndex::build([&program.inlined]);
    let api = standard_api();
    let m = program.inlined.type_named("PipelineInlined").unwrap().method_named("run").unwrap();
    let pfg = Pfg::build(&index, &api, "PipelineInlined", m);
    b.bench_function("gaussian_elimination_inlined200", || local_infer_pfg(black_box(&pfg)));
}

fn main() {
    let mut b = Bench::new("components");
    bench_parser(&mut b);
    bench_pfg(&mut b);
    bench_skeleton(&mut b);
    bench_bp(&mut b);
    bench_checker(&mut b);
    bench_gaussian(&mut b);
    b.write_json("BENCH_components.json").expect("write BENCH_components.json");
}
