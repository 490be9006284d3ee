//! Parsing allocates what the AST keeps and almost nothing else, and the
//! AST keeps little.
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
//! The input is the benchmark's `pmd_full` corpus: the PMD-shaped
//! generator at 12 classes and 78 methods, seed 42, printed back to Java.

use anek::corpus::{generate, PmdConfig};
use anek::java_syntax::{parse, print_unit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
    static FREED_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>, by: usize) {
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread locals without destructors, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        bump(&FREED_BYTES, layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (usize, usize, usize) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get), FREED_BYTES.with(Cell::get))
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
