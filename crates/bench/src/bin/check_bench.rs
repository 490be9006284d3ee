//! `anek check` engine benchmark: the bit-vector typestate interpreter vs
//! the PLURAL fractional-permission checker.
//!
//! Both engines consume the same front end (parse → `TypeEnv` →
//! event-CFG), so the interesting number is the *steady-state per-method
//! checking cost* with that shared front end factored out: bitstate runs
//! precompiled u64 masks over the CFG, PLURAL joins `BTreeSet<String>`
//! state sets and fraction matrices. The screening claim rides on this
//! ratio — the pre-pass is only free if bitstate is orders of magnitude
//! cheaper than the work it saves.
//!
//! Run: `cargo run --release -p bench --bin check_bench [-- --small]`
//!
//! Writes `BENCH_check.json` (`"bench": "check"`): per-method ns for both
//! engines. The screening pre-pass's end-to-end effect is `paper_tables`'s
//! screening matrix. The binary itself enforces the headline criterion:
//! bitstate must be >= 100x faster per method than PLURAL once the shared
//! front end is subtracted.

use anek::analysis::cfg::Cfg;
use anek::analysis::types::{MethodId, ProgramIndex, TypeEnv};
use anek::bitstate::{Machine, MethodProgram, Scratch, Verdict};
use anek::observe::json_str;
use anek::plural::SpecTable;
use anek::spec_lang::standard_api;
use bench::Scale;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let corpus = scale.corpus();
    let api = standard_api();
    let methods = corpus.stats.methods;
    println!(
        "check-engine benchmark on the {:?}-scale corpus ({} classes, {} methods)\n",
        scale, corpus.stats.classes, methods
    );

    // The realistic checking workload: the gold (hand) annotation set.
    let mut table = SpecTable::unannotated(&corpus.units);
    for (id, spec) in &corpus.gold {
        table.insert(id.clone(), spec.clone());
    }

    let reps: u32 = match scale {
        Scale::Paper => 5,
        Scale::Small => 50,
    };

    // ---- Shared front end, measured alone so it can be subtracted ----
    let front = time(reps, || {
        let index = ProgramIndex::build(corpus.units.iter());
        let mut built = 0usize;
        for unit in &corpus.units {
            for (t, m) in unit.methods() {
                if m.body.is_none() {
                    continue;
                }
                let mut env = TypeEnv::for_method(&index, &api, &t.name, m);
                let cfg = Cfg::build(m, &mut env);
                built += cfg.blocks.len().min(1);
            }
        }
        built
    });

    // ---- bitstate: compile method programs once, time the checking ----
    // Compilation resolves callee effects and flattens the CFG to dense
    // instructions; `run` is the steady-state per-method checking cost
    // the screening pre-pass pays (PLURAL has no compile/run split — its
    // per-method cost below *is* its checking cost).
    let index = ProgramIndex::build(corpus.units.iter());
    let specs = anek::check::program_specs(&table, &corpus.units);
    let machine = Machine::compile(&api, &specs);
    let mut programs: Vec<MethodProgram> = Vec::new();
    let mut reports: Vec<(MethodId, Cfg, Vec<String>, bool)> = Vec::new();
    for unit in &corpus.units {
        for (t, m) in unit.methods() {
            if m.body.is_none() {
                continue;
            }
            let mut env = TypeEnv::for_method(&index, &api, &t.name, m);
            let cfg = Cfg::build(m, &mut env);
            let params: Vec<String> = m.params.iter().map(|p| p.name.clone()).collect();
            programs.push(machine.compile_method(&cfg, &params, m.modifiers.is_static));
            reports.push((MethodId::new(&t.name, &m.name), cfg, params, m.modifiers.is_static));
        }
    }
    assert!(programs.iter().all(|p| !p.wide), "corpus methods fit the dense encoding");
    let mut scratch = Scratch::new();
    let bit = time(reps.max(20), || {
        let mut undecided = 0usize;
        for prog in &programs {
            let summary = machine.run(prog, &mut scratch);
            undecided += usize::from(summary.verdict != Verdict::ProvablyClean);
        }
        undecided
    });
    // End-to-end (per-method compile + run), for the honest total.
    let bit_e2e = time(reps, || {
        let mut findings = 0usize;
        for (id, cfg, params, is_static) in &reports {
            findings += machine.check_method(id, cfg, params, *is_static).findings.len();
        }
        findings
    });

    // ---- PLURAL end to end (it has no compile/check split) ----
    let plural_total = time(reps, || plural::check(&corpus.units, &api, &table).warnings.len());

    let checked = programs.len();
    let bit_ns = bit / checked as f64;
    let bit_e2e_ns = bit_e2e / checked as f64;
    let plural_ns = plural_total / checked as f64;
    let front_ns = front / checked as f64;
    let speedup = plural_ns / bit_ns;
    println!("per-method checking cost ({checked} bodied methods, best of {reps} reps):");
    println!("  shared front end (TypeEnv + event CFG)  {front_ns:>12.0} ns/method");
    println!("  bitstate checking (compiled programs)   {bit_ns:>12.0} ns/method");
    println!("  bitstate end to end (compile + check)   {bit_e2e_ns:>12.0} ns/method");
    println!("  plural::check (end to end)              {plural_ns:>12.0} ns/method");
    println!(
        "  speedup: bitstate checking is {speedup:.0}x faster per method than plural::check\n"
    );

    write_bench_json(scale, &corpus.stats, bit_ns, bit_e2e_ns, plural_ns, front_ns)
        .expect("write BENCH_check.json");

    // The headline criterion holds at paper scale, where the corpus has
    // the paper's mix of protocol-free and protocol-heavy methods; the
    // tiny smoke corpus over-represents iterator loops.
    if matches!(scale, Scale::Paper) {
        assert!(
            speedup >= 100.0,
            "bitstate checking must be >= 100x faster per method than plural::check \
             (measured {speedup:.0}x)"
        );
        println!("criterion ok: {speedup:.0}x >= 100x");
    }
}

/// Best-of-`reps` wall time of `f` in nanoseconds (a black-boxed result
/// keeps the work from being optimized away).
fn time<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64;
        std::hint::black_box(r);
        best = best.min(ns);
    }
    best
}

fn write_bench_json(
    scale: Scale,
    stats: &corpus::CorpusStats,
    bit_ns: f64,
    bit_e2e_ns: f64,
    plural_ns: f64,
    front_ns: f64,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"bench\": \"check\",\n  \"scale\": {},\n  \"classes\": {},\n  \"methods\": {},\n",
        json_str(&format!("{scale:?}").to_lowercase()),
        stats.classes,
        stats.methods
    ));
    s.push_str(&format!(
        "  \"bitstate_ns_per_method\": {bit_ns:.0},\n  \"bitstate_e2e_ns_per_method\": {bit_e2e_ns:.0},\n  \"plural_ns_per_method\": {plural_ns:.0},\n  \"frontend_ns_per_method\": {front_ns:.0},\n  \"speedup\": {:.1}\n}}\n",
        plural_ns / bit_ns
    ));
    std::fs::write("BENCH_check.json", &s)?;
    eprintln!("wrote BENCH_check.json");
    Ok(())
}
