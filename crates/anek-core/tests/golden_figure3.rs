//! Golden regression: the Figure 3 per-method models must produce marginals
//! that are **bit-for-bit** identical to a checked-in fixture. This pins the
//! flat-arena `CompiledGraph` kernel (its factor-table contraction order
//! included), the static/dynamic model split and the stamped extras path —
//! any deviation, down to the last ulp, fails the diff.
//!
//! Regenerate (only after an *intentional* numeric change) with:
//! `cargo run --release -p bench --bin golden_dump > crates/anek-core/tests/golden/figure3_sweep.txt`

use analysis::pfg::Pfg;
use analysis::types::ProgramIndex;
use anek_core::{merged_states, InferConfig, MethodModel, ModelCtx};
use spec_lang::{spec_of_method, standard_api};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/figure3_sweep.txt");

/// Dumps per-method marginal and MAP bits for every Figure 3 model, in the
/// `golden_dump` fixture format.
fn dump_figure3() -> String {
    let unit = java_syntax::parse(corpus::FIGURE3).unwrap();
    let index = ProgramIndex::build([&unit]);
    let api = standard_api();
    let states = merged_states(std::slice::from_ref(&unit), &api);
    let ctx = ModelCtx { index: &index, api: &api, states: &states };
    let cfg = InferConfig::default();
    let empty = BTreeMap::new();

    let mut dump = String::new();
    for t in &unit.types {
        for m in t.methods() {
            if m.body.is_none() {
                continue;
            }
            let pfg = Pfg::build(&index, &api, &t.name, m);
            let spec = spec_of_method(m).unwrap_or_default();
            let model = MethodModel::build(ctx, pfg, &spec, m.is_constructor(), &empty, &cfg);
            let marginals = model.graph.solve(&cfg.bp);
            let map = model.graph.solve_map(&cfg.bp);
            writeln!(dump, "method {}.{} vars {}", t.name, m.name, model.graph.num_vars()).unwrap();
            for (i, (p, q)) in marginals.as_slice().iter().zip(map.as_slice()).enumerate() {
                writeln!(dump, "{i} {:016x} {:016x}", p.to_bits(), q.to_bits()).unwrap();
            }
        }
    }
    dump
}

#[test]
fn figure3_sweep_marginals_match_pre_kernel_golden_dump() {
    let dump = dump_figure3();
    for (ln, (got, want)) in dump.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden mismatch at line {}", ln + 1);
    }
    assert_eq!(
        dump.lines().count(),
        GOLDEN.lines().count(),
        "dump and golden fixture have different lengths"
    );
}
