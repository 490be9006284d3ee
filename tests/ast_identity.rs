//! The front end's output, pinned by hash.
//!
//! Every unit's `Debug` rendering carries every name, literal, span and
//! `ExprId` of its AST, and `ExprId`s enter the store's solve keys, so a
//! lexer or parser change that is meant to be invisible must leave these
//! renderings byte-identical. The first test hashes them over the
//! generated corpora and the paper's programs; the second hashes every
//! outcome — the AST, or the error's kind, span and message — over seeded
//! garbling and every-prefix truncation of a healthy program (the inputs of
//! `crates/java-syntax/tests/garbled.rs`) plus hand-written malformed
//! inputs. All inputs are ASCII.
//!
//! A mismatch means the front end's output changed. If that is intended,
//! say why in the change and replace the constant with the printed value.

use anek::corpus::{
    figure3_unit, generate, generate_mixed, table3_program, MixedConfig, PmdConfig,
};
use anek::java_syntax::{parse, CompilationUnit, ParseError};
use prng::Rng;

/// FNV-1a, folded over one rendering after another.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn outcome(&mut self, result: &Result<CompilationUnit, ParseError>) {
        match result {
            Ok(unit) => self.add(&format!("{unit:?}")),
            Err(e) => self.add(&format!("{:?} {:?} {}", e.kind, e.span, e.message)),
        }
    }
}

#[test]
fn generated_and_paper_programs_parse_to_the_pinned_asts() {
    let mut h = Fnv::new();
    let mut units = 0usize;
    let pmd = generate(&PmdConfig { seed: 42, ..PmdConfig::small() });
    let mixed = generate_mixed(&MixedConfig { seed: 42, ..MixedConfig::small() });
    let table3 = table3_program(42, 400);
    let paper = [figure3_unit(), table3.modular, table3.inlined];
    for unit in pmd.units.iter().chain(&mixed.units).chain(&paper) {
        h.add(&format!("{unit:?}"));
        units += 1;
    }
    assert_eq!(units, 18 + mixed.units.len() + 3);
    assert_eq!(h.0, 0x1f51_c46a_6981_60d9, "AST hash changed: {:#018x} over {units} units", h.0);
}

/// A small healthy program exercising most of the grammar (the same text
/// as `garbled.rs`'s `HEALTHY`).
const HEALTHY: &str = r#"
    package com.example;
    import java.util.Iterator;
    @States("ALIVE, DONE")
    class Row {
        Collection<Integer> entries;
        Iterator<Integer> createColIter() { return entries.iterator(); }
        void add(int val) { entries.add(val); }
    }
    class App {
        Row copy(Row original) {
            Iterator<Integer> iter = original.createColIter();
            Row result = new Row();
            while (iter.hasNext()) { result.add(iter.next()); }
            return result;
        }
    }
"#;

fn garble(src: &str, edits: usize, rng: &mut Rng) -> String {
    const JUNK: &[u8] = b"{}();\"\\@#$%~`^|\x01\x7f012ABz \n";
    let mut chars: Vec<char> = src.chars().collect();
    for _ in 0..edits {
        let at = rng.gen_index(0..chars.len());
        chars[at] = *rng.pick(JUNK) as char;
    }
    chars.into_iter().collect()
}

/// Inputs that reach the lexer's and parser's other error paths and the
/// grammar corners the corpora do not use.
const MALFORMED: &[&str] = &[
    "class A { String s = \"abc; }",
    "class A { String s = \"a\\qb\"; }",
    "class A { char c = ''; }",
    "class A { char c = 'ab'; }",
    "class A { char c = '\\''; char d = '\\\\'; char e = '\\n'; }",
    "class A { int x = 0x; }",
    "class A { int x = 0xZZ; }",
    "class A { long x = 99999999999999999999999; }",
    "class A { double d = 1.5e3; float f = 2f; long l = 0x1FL; }",
    "class A { int x = 1 # 2; }",
    "class A { /* open",
    "class A { char c = 'a",
    "class A { char c = '\\q'; }",
    "class A { String s = \"x\\",
    "class A { String s = \"q\\\"uote\\t\\0\\r\"; }",
    "class A { void m() { x \"s\\\"\\n\"; } }",
    "class A { void m() { x '\\t'; } }",
    "class A { void m() { x 0x1F; } }",
    "class A { void m() { x 07L; } }",
    "class A { void m() { x 1.5e3; } }",
    "class A { void m() { x true; } }",
    "class A { void m() { x null; } }",
    "class A { void m() { x class; } }",
    "class A { void m() { x ::; } }",
    "class A { int x, y; }",
    "class A { <T> int x; }",
    "class A { void m() { for (int i = 0, j; ; ) { } } }",
    "class A { void m(List<String> xs) { for (final String s : xs) { s.go(); } } }",
    "class A { void m() { for (Row r = null; r != null; r = r.next) { } } }",
    "class A { void m() { for (a.b.C<D[]>[] x : ys) { } for (x = 1, y = 2; x < y; x++) { } } }",
    "class A { void m() { switch (x) { foo; } } }",
    "class A { void m() { int y = (int) x; Object o = (Row) (x); z = (a) - b; } }",
    "class A { void m() { x = a < b ? c : d; y = a instanceof B; z = -!x++; } }",
    "class A { void m() { try { } catch (E e) { } finally { } } }",
    "@Perm(requires = \"full(this)\", ensures = 3) class A { @X(1.5) @Y('c') @Z(true) void m(); }",
    "@Perm(requires = ) class A { }",
    "class A extends B<? super C> implements D, E<F> { void m() throws G { } }",
    "class A { int[] xs = new int[3]; }",
    "class A { void m() { x.<T>m(); a[1] = b[2]--; } }",
    "interface I<T extends A & B> { T next(); }",
    "package ; class A { }",
    "import static a.b.*; import c.; class A { }",
    "class A { void m() { return } }",
    "class A { void m() { if (x) else y; } }",
    "enum E { A }",
    "",
];

#[test]
fn garbled_truncated_and_malformed_sources_give_the_pinned_outcomes() {
    let mut h = Fnv::new();
    let mut rng = Rng::new(42);
    for _ in 0..300 {
        let edits = rng.gen_index(1..40);
        h.outcome(&parse(&garble(HEALTHY, edits, &mut rng)));
    }
    for cut in 0..=HEALTHY.len() {
        h.outcome(&parse(&HEALTHY[..cut]));
    }
    for src in MALFORMED {
        h.outcome(&parse(src));
    }
    let deep = [
        format!("class A {{ int x = {}1{}; }}", "(".repeat(60), ")".repeat(60)),
        format!("class A {{ {}Deep{} f; }}", "List<".repeat(60), ">".repeat(60)),
        format!("class A {{ void m() {{ {} }} }}", "{".repeat(60)),
    ];
    for src in &deep {
        h.outcome(&parse(src));
    }
    assert_eq!(h.0, 0x266c_6845_5e38_9034, "outcome hash changed: {:#018x}", h.0);
}
