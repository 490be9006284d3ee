//! Parsing allocates what the AST keeps and almost nothing else.
//!
//! A counting global allocator (per thread, so the harness's own threads
//! do not disturb it) counts the blocks `java_syntax::parse` allocates and
//! the blocks freed when the returned unit is dropped: the latter are the
//! ones the AST owns. The front end may allocate one more block per
//! source, its token buffer; a token, identifier or literal that is copied
//! on the way into the AST shows up here as an extra block. A block that
//! grows in place (`realloc`) is still one block.
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
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread locals without destructors, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (usize, usize) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

#[test]
fn parse_allocates_at_most_one_block_per_source_beyond_the_ast() {
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
    let (mut allocated, mut owned) = (0, 0);
    for src in &sources {
        let (a0, _) = counts();
        let unit = parse(src).expect("generated sources parse");
        let (a1, f1) = counts();
        drop(unit);
        let (_, f2) = counts();
        let (made, kept) = (a1 - a0, f2 - f1);
        assert!(
            made <= kept + 1,
            "parse made {made} allocations for an AST that owns {kept}:\n{src}"
        );
        allocated += made;
        owned += kept;
    }
    eprintln!("parse: {allocated} allocations, {owned} owned by the ASTs");
}
