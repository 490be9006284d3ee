//! One-off: dump bit-exact per-method marginals of the Figure 3 models.
//!
//! Regenerate the fixture with:
//!
//! ```console
//! cargo run --release -p bench --bin golden_dump \
//!     > crates/anek-core/tests/golden/figure3_sweep.txt
//! ```
//!
//! The fixture pins the kernel's numerics bit-for-bit — same graphs, same
//! bits on every run and machine.

use anek::analysis::{Pfg, ProgramIndex};
use anek::anek_core::{merged_states, InferConfig, MethodModel, ModelCtx};
use anek::spec_lang::{spec_of_method, standard_api};
use std::collections::BTreeMap;

fn main() {
    let unit = java_syntax::parse(corpus::FIGURE3).unwrap();
    let index = ProgramIndex::build([&unit]);
    let api = standard_api();
    let states = merged_states(std::slice::from_ref(&unit), &api);
    let ctx = ModelCtx { index: &index, api: &api, states: &states };
    let cfg = InferConfig::default();
    let empty = BTreeMap::new();
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
            println!("method {}.{} vars {}", t.name, m.name, model.graph.num_vars());
            for (i, (p, q)) in marginals.as_slice().iter().zip(map.as_slice()).enumerate() {
                println!("{i} {:016x} {:016x}", p.to_bits(), q.to_bits());
            }
        }
    }
}
