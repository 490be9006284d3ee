//! Parsing allocates what the AST keeps and almost nothing else, and the
//! AST keeps little; a model build copies no state name; inference holds
//! one method's model at a time.
//!
//! A counting global allocator (per thread, so the harness's own threads
//! do not disturb it) counts the blocks `java_syntax::parse` allocates and
//! the blocks, and their bytes, freed when the returned unit is dropped:
//! the latter are the ones the AST owns. The front end may allocate one
//! more block per source, its token buffer; a token, identifier or
//! literal that is copied on the way into the AST shows up here as an
//! extra block. A block that grows or shrinks in place (`realloc`) is
//! still one block, counted at its final size.
//!
//! The allocator also keeps the thread's live bytes and their peak, which
//! bound what single-threaded inference holds at once, and counts the
//! blocks a model skeleton build allocates.
//!
//! The input is the benchmark's `pmd_full` corpus: the PMD-shaped
//! generator at 12 classes and 78 methods, seed 42, printed back to Java.

use anek::analysis::{Pfg, ProgramIndex};
use anek::anek_core::{merged_states, InferConfig, MethodSkeleton, ModelCtx};
use anek::corpus::{generate, PmdConfig};
use anek::java_syntax::{parse, print_unit, CompilationUnit};
use anek::spec_lang::{spec_of_method, standard_api};
use anek::Pipeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
    static FREED_BYTES: Cell<usize> = const { Cell::new(0) };
    // Signed: a block allocated on another thread may be freed on this one.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>, by: usize) {
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

/// Moves the thread's live bytes by `by`, raising the peak with them.
fn live_by(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread locals without destructors, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        live_by(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        live_by(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live_by(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        bump(&FREED_BYTES, layout.size());
        live_by(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (usize, usize, usize) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get), FREED_BYTES.with(Cell::get))
}

/// The most bytes the thread held live while `f` ran, above what it held
/// when `f` started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

/// The benchmark's `pmd_full` sources.
fn pmd_full_sources() -> Vec<String> {
    let corpus = generate(&PmdConfig {
        seed: 42,
        helper_classes: 1,
        local_loops: 6,
        helper_loops: 2,
        buggy_sites: 1,
        branch_traps: 1,
        state_tests: 1,
        total_classes: 12,
        total_methods: 78,
    });
    let sources: Vec<String> = corpus.units.iter().map(print_unit).collect();
    assert_eq!(sources.len(), 12);
    sources
}

/// What parsing `src` costs: the blocks it allocates, and the blocks and
/// bytes the returned AST owns.
struct Parsed {
    made: usize,
    kept: usize,
    kept_bytes: usize,
}

fn measure(src: &str) -> Parsed {
    let (a0, _, _) = counts();
    let unit = parse(src).expect("generated sources parse");
    let (a1, f1, b1) = counts();
    drop(unit);
    let (_, f2, b2) = counts();
    Parsed { made: a1 - a0, kept: f2 - f1, kept_bytes: b2 - b1 }
}

#[test]
fn parse_allocates_at_most_one_block_per_source_beyond_the_ast() {
    let (mut allocated, mut owned) = (0, 0);
    for src in &pmd_full_sources() {
        let Parsed { made, kept, .. } = measure(src);
        assert!(
            made <= kept + 1,
            "parse made {made} allocations for an AST that owns {kept}:\n{src}"
        );
        allocated += made;
        owned += kept;
    }
    eprintln!("parse: {allocated} allocations, {owned} owned by the ASTs");
}

/// The ASTs hold no list slack and box their rare wide payloads: 19,329
/// bytes of Java own 299,771 bytes, where doubling-grown lists and inline
/// payloads cost 615,427.
#[test]
fn pmd_full_asts_own_at_most_340_000_bytes() {
    let (sources, mut owned, mut blocks) = (pmd_full_sources(), 0, 0);
    for src in &sources {
        let parsed = measure(src);
        owned += parsed.kept_bytes;
        blocks += parsed.kept;
    }
    let source_bytes: usize = sources.iter().map(String::len).sum();
    eprintln!("ASTs of {source_bytes} source bytes own {owned} bytes in {blocks} blocks");
    assert!(owned <= 340_000, "the pmd_full ASTs own {owned} bytes");
}

/// Inference builds each method's PFG and model skeleton inside the solve
/// and drops both with it, so at one thread (where every allocation is on
/// the calling thread and the count is exact) the run holds one model at a
/// time: `pmd_full`, drained as the benchmark drains it (`max_iters` three
/// solves per bodied method), peaks 328,120 bytes above the heap it started
/// with. Slot marginals and caller evidence in B-trees, over state names
/// copied into every slot, peaked at 400,863, and a run that kept every PFG
/// and skeleton until the end peaked at 1,507,917. A test run alongside
/// this one can fill the factor-table memo first, which lowers the peak.
#[test]
fn pmd_full_inference_peaks_at_most_350_000_bytes_above_its_start() {
    let sources = pmd_full_sources();
    let units: Vec<_> =
        sources.iter().map(|s| parse(s).expect("generated sources parse")).collect();
    let bodied =
        units.iter().flat_map(CompilationUnit::methods).filter(|(_, m)| m.body.is_some()).count();
    let config = InferConfig { max_iters: 3 * bodied, threads: 1, ..InferConfig::default() };
    let pipeline = Pipeline::from_sources(&sources).expect("parses").with_config(config);
    let (result, peak) = peak_above_start(|| pipeline.infer());
    assert_eq!(result.failed_count(), 0);
    assert_eq!(result.solves, 166, "the drained pmd_full worklist");
    eprintln!("pmd_full inference peaked {peak} bytes above its starting heap");
    assert!(peak <= 350_000, "pmd_full inference peaked {peak} bytes above its start");
}

/// A model skeleton shares its state names with the state registry: the
/// 78 `pmd_full` skeleton builds make 12,428 allocations, where copying a
/// fresh list of names into every slot made 18,014. The first pass over the
/// methods fills the process's factor-table memo, so only the second, which
/// every later solve resembles, is counted.
#[test]
fn pmd_full_skeleton_builds_make_at_most_13_000_allocations() {
    let units: Vec<CompilationUnit> =
        pmd_full_sources().iter().map(|s| parse(s).expect("generated sources parse")).collect();
    let api = standard_api();
    let index = ProgramIndex::build(&units);
    let states = merged_states(&units, &api);
    let ctx = ModelCtx { index: &index, api: &api, states: &states };
    let config = InferConfig::default();
    let bodied: Vec<_> =
        units.iter().flat_map(CompilationUnit::methods).filter(|(_, m)| m.body.is_some()).collect();
    assert_eq!(bodied.len(), 78);
    let mut allocations = 0;
    for _pass in 0..2 {
        allocations = 0;
        for (class, method) in &bodied {
            let pfg = Arc::new(Pfg::build(&index, &api, &class.name, method));
            let spec = spec_of_method(method).unwrap_or_default();
            let (before, _, _) = counts();
            let skeleton = MethodSkeleton::build(ctx, pfg, &spec, method.is_constructor(), &config);
            allocations += counts().0 - before;
            drop(skeleton);
        }
    }
    eprintln!("78 pmd_full skeleton builds made {allocations} allocations");
    assert!(allocations <= 13_000, "78 pmd_full skeleton builds made {allocations} allocations");
}
