//! Golden regression: the Figure 3 per-method models must produce marginals
//! that are **bit-for-bit** identical to a checked-in fixture. This pins the
//! flat-arena `CompiledGraph` kernel (its factor-table contraction order
//! included), the static/dynamic model split and the stamped extras path —
//! any deviation, down to the last ulp, fails the diff.
//!
//! On a mismatch the test writes its full dump to Cargo's scratch
//! directory for integration tests (`CARGO_TARGET_TMPDIR`) and names the
//! `cp` command that re-blesses the fixture; run it only after an
//! *intentional* numeric change.

use analysis::pfg::Pfg;
use analysis::types::ProgramIndex;
use anek_core::{merged_states, InferConfig, MethodModel, ModelCtx};
use spec_lang::{spec_of_method, standard_api};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/figure3_sweep.txt");

/// Dumps per-method marginal bits for every Figure 3 model: a
/// `method Class.name vars N` header, then one `index bits` line per
/// variable.
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
            writeln!(dump, "method {}.{} vars {}", t.name, m.name, model.graph.num_vars()).unwrap();
            for (i, p) in marginals.as_slice().iter().enumerate() {
                writeln!(dump, "{i} {:016x}", p.to_bits()).unwrap();
            }
        }
    }
    dump
}

#[test]
fn figure3_sweep_marginals_match_pre_kernel_golden_dump() {
    let dump = dump_figure3();
    if dump.lines().eq(GOLDEN.lines()) {
        return;
    }
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/figure3_sweep.txt");
    std::fs::write(out, &dump).expect("write the Figure 3 dump");
    let line = dump.lines().zip(GOLDEN.lines()).take_while(|(got, want)| got == want).count() + 1;
    panic!(
        "Figure 3 marginals differ from the golden fixture at line {line}; the full dump is in \
         {out}. Re-bless after an intentional numeric change with:\n  cp {out} {}",
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure3_sweep.txt")
    );
}
