//! The PMD-stand-in corpus generator.
//!
//! The paper's main experiment runs ANEK on PMD — 38,483 lines, 463
//! classes, 3,120 methods, 170 calls to `Iterator.next()` (Table 1) — with
//! an annotated iterator API. PMD's source is not available offline, so this
//! generator synthesizes a corpus with the same *shape*, seeded and
//! deterministic:
//!
//! * most `next()` calls sit in correct, locally-verifiable loops;
//! * a configurable number of iterators cross unannotated method boundaries
//!   (the warnings Bierhoff's 26 hand annotations fixed);
//! * exactly `buggy_sites` call `next()` without `hasNext()` — the
//!   conflicting-constraint sites of §4.2;
//! * one "branch trap" helper returns an iterator that is provably in
//!   `HASNEXT` only via branch reasoning ANEK lacks — the paper's fourth,
//!   branch-insensitivity warning.
//!
//! The generator also emits the *gold* annotation set (playing Bierhoff's
//! hand annotations) and a *ground-truth* spec per interesting method (used
//! by the Table 4 categorization).

use analysis::types::MethodId;
use java_syntax::{parse, CompilationUnit};
use prng::Rng;
use spec_lang::{parse_clause, MethodSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Generation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmdConfig {
    /// RNG seed; the same seed reproduces the same corpus byte-for-byte.
    pub seed: u64,
    /// Iterator-returning helper classes (each gets one gold annotation).
    pub helper_classes: usize,
    /// Correct in-method loop uses of `iterator()` (one `next()` each).
    pub local_loops: usize,
    /// Correct loop uses of a *helper-returned* iterator (one `next()`
    /// each; warn without annotations).
    pub helper_loops: usize,
    /// `next()`-without-`hasNext()` bug sites.
    pub buggy_sites: usize,
    /// Branch-trap helpers + uses (ANEK's branch-insensitivity warning).
    pub branch_traps: usize,
    /// Gold-annotated dynamic state-test methods (`@TrueIndicates`) — specs
    /// ANEK does not infer, filling Table 4's "Removed" bucket.
    pub state_tests: usize,
    /// Total classes to emit (filled up with data classes).
    pub total_classes: usize,
    /// Total methods to emit (filled up with data-class methods).
    pub total_methods: usize,
}

impl PmdConfig {
    /// Paper-scale configuration targeting Table 1's shape.
    pub fn paper() -> PmdConfig {
        // Calibrated so the unannotated ("Original") corpus produces the
        // paper's 45 warnings: 39 helper-loop `next()`s + 3 bug sites +
        // 1 branch trap + the 2 IterUtils bodies; and so the gold set has
        // the paper's 26 annotations: 20 helpers + the trap + 2 utilities
        // + 3 state-test methods.
        PmdConfig {
            seed: 42,
            helper_classes: 20,
            local_loops: 125,
            helper_loops: 39,
            buggy_sites: 3,
            branch_traps: 1,
            state_tests: 3,
            total_classes: 463,
            total_methods: 3120,
        }
    }

    /// A fast, small configuration for tests.
    pub fn small() -> PmdConfig {
        PmdConfig {
            seed: 7,
            helper_classes: 3,
            local_loops: 5,
            helper_loops: 4,
            buggy_sites: 1,
            branch_traps: 1,
            state_tests: 1,
            total_classes: 18,
            total_methods: 60,
        }
    }
}

/// Aggregate statistics (the Table 1 row values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Lines of generated source.
    pub lines: usize,
    /// Number of classes.
    pub classes: usize,
    /// Number of methods (constructors included).
    pub methods: usize,
    /// Calls to `Iterator.next()`.
    pub next_calls: usize,
}

/// A planted defect or trap site, keyed by the protocol family it
/// exercises. Keying by family lets downstream consumers (the
/// cross-validate documented-disagreement list, the per-family quality
/// gate) attribute each site without re-deriving the protocol from the
/// method body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Planted {
    /// Protocol family name (e.g. `"Iterator"`, `"Lock"`).
    pub family: String,
    /// The method containing the planted site.
    pub method: MethodId,
}

impl Planted {
    /// A planted site in `family` at `class.method`.
    pub fn new(
        family: impl Into<String>,
        class: impl Into<String>,
        method: impl Into<String>,
    ) -> Planted {
        Planted { family: family.into(), method: MethodId::new(class, method) }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct PmdCorpus {
    /// One compilation unit per class.
    pub units: Vec<CompilationUnit>,
    /// The gold ("Bierhoff") annotation set: method -> hand spec.
    pub gold: BTreeMap<MethodId, MethodSpec>,
    /// Ground truth for every interesting method (for Table 4).
    pub truth: BTreeMap<MethodId, MethodSpec>,
    /// The planted protocol bugs (e.g. Iterator's `first{i}`: `next()` on a
    /// fresh iterator), in deterministic order, keyed by family. A checker
    /// must flag exactly these methods.
    pub bugs: Vec<Planted>,
    /// The planted traps (e.g. Iterator's `head{i}`: `next()` on an
    /// iterator that is provably `HASNEXT`, but only via branch reasoning),
    /// keyed by family. A checker without state-test refinement reports
    /// these as false positives — the documented precision gap.
    pub traps: Vec<Planted>,
    /// Table 1 statistics.
    pub stats: CorpusStats,
}

impl PmdCorpus {
    /// Materializes the corpus as one `.java` file per class under `dir`
    /// (created if needed). Returns the number of files written. Useful for
    /// driving the `anek` CLI against a real directory of sources.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut written = 0usize;
        for unit in &self.units {
            let Some(class) = unit.types.first() else { continue };
            let path = dir.join(format!("{}.java", class.name));
            std::fs::write(path, java_syntax::print_unit(unit))?;
            written += 1;
        }
        Ok(written)
    }
}

fn spec(req: &str, ens: &str) -> MethodSpec {
    MethodSpec {
        requires: parse_clause(req).expect("generator clauses are well-formed"),
        ensures: parse_clause(ens).expect("generator clauses are well-formed"),
        true_indicates: None,
        false_indicates: None,
    }
}

/// Parses one generated class per source and counts their non-blank lines
/// (Table 1's "Lines of Source").
///
/// # Panics
///
/// Panics when a source does not parse (a generator bug).
pub(crate) fn parse_classes(sources: &[String]) -> (Vec<CompilationUnit>, usize) {
    let mut lines = 0;
    let units = sources
        .iter()
        .map(|s| {
            lines += s.lines().filter(|l| !l.trim().is_empty()).count();
            parse(s).unwrap_or_else(|e| panic!("generated class does not parse: {e}\n{s}"))
        })
        .collect();
    (units, lines)
}

/// Generates the corpus for `cfg`.
pub fn generate(cfg: &PmdConfig) -> PmdCorpus {
    let mut rng = Rng::new(cfg.seed);
    let mut sources: Vec<String> = Vec::new();
    let mut gold = BTreeMap::new();
    let mut truth = BTreeMap::new();
    let mut methods = 0usize;

    // ---- Helper (registry) classes ----
    let helper_names: Vec<String> =
        (0..cfg.helper_classes.max(1)).map(|i| format!("Registry{i}")).collect();
    for (i, name) in helper_names.iter().enumerate() {
        let mut s = String::new();
        let _ = writeln!(s, "class {name} {{");
        let _ = writeln!(s, "    Collection<Integer> items;");
        let _ = writeln!(s, "    Iterator<Integer> createIter{i}() {{");
        let _ = writeln!(s, "        return items.iterator();");
        let _ = writeln!(s, "    }}");
        methods += 1;
        gold.insert(
            MethodId::new(name, format!("createIter{i}")),
            spec("pure(this)", "pure(this), unique(result) in ALIVE"),
        );
        truth.insert(
            MethodId::new(name, format!("createIter{i}")),
            spec("pure(this)", "pure(this), unique(result) in ALIVE"),
        );
        // A second, harmless method keeps the class realistic.
        let _ = writeln!(s, "    void refill{i}(Collection<Integer> fresh) {{");
        let _ = writeln!(s, "        this.items = fresh;");
        let _ = writeln!(s, "    }}");
        methods += 1;
        truth.insert(
            MethodId::new(name, format!("refill{i}")),
            spec("full(this), share(fresh)", "full(this), share(fresh)"),
        );
        if i < cfg.state_tests {
            // A dynamic state-test method: its gold spec carries
            // @TrueIndicates, which ANEK does not infer (Table 4 "Removed").
            let _ = writeln!(s, "    boolean hasEntries{i}() {{");
            let _ = writeln!(s, "        Iterator<Integer> probe = items.iterator();");
            let _ = writeln!(s, "        return probe.hasNext();");
            let _ = writeln!(s, "    }}");
            methods += 1;
            let mut st = spec("pure(this)", "pure(this)");
            st.true_indicates = Some("READY".to_string());
            gold.insert(MethodId::new(name, format!("hasEntries{i}")), st.clone());
            truth.insert(MethodId::new(name, format!("hasEntries{i}")), st);
        }
        if i == 0 && cfg.branch_traps > 0 {
            // The branch trap: provably HASNEXT on return, but only via the
            // branch reasoning ANEK does not perform.
            let _ = writeln!(s, "    Iterator<Integer> createReadyIter() {{");
            let _ = writeln!(s, "        Iterator<Integer> it = items.iterator();");
            let _ = writeln!(s, "        if (!it.hasNext()) {{");
            let _ = writeln!(s, "            throw new RuntimeException(\"empty registry\");");
            let _ = writeln!(s, "        }}");
            let _ = writeln!(s, "        return it;");
            let _ = writeln!(s, "    }}");
            methods += 1;
            gold.insert(
                MethodId::new(name, "createReadyIter"),
                spec("pure(this)", "pure(this), unique(result) in HASNEXT"),
            );
            truth.insert(
                MethodId::new(name, "createReadyIter"),
                spec("pure(this)", "pure(this), unique(result) in HASNEXT"),
            );
        }
        let _ = writeln!(s, "}}");
        sources.push(s);
    }

    // ---- Iterator utilities (gold-annotated parameter specs) ----
    {
        let mut s = String::new();
        let _ = writeln!(s, "class IterUtils {{");
        let _ = writeln!(s, "    static int drainSum(Iterator<Integer> it) {{");
        let _ = writeln!(s, "        int s = 0;");
        let _ = writeln!(s, "        while (it.hasNext()) {{");
        let _ = writeln!(s, "            s = s + it.next();");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        return s;");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "    static int drainCount(Iterator<Integer> it) {{");
        let _ = writeln!(s, "        int n = 0;");
        let _ = writeln!(s, "        while (it.hasNext()) {{");
        let _ = writeln!(s, "            it.next();");
        let _ = writeln!(s, "            n = n + 1;");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        return n;");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
        methods += 2;
        for m in ["drainSum", "drainCount"] {
            gold.insert(MethodId::new("IterUtils", m), spec("full(it)", "full(it)"));
            truth.insert(MethodId::new("IterUtils", m), spec("full(it)", "full(it)"));
        }
        sources.push(s);
    }

    // ---- Worker classes ----
    let mut worker_methods: Vec<String> = Vec::new();
    let mut next_calls_planned = 2; // drainSum + drainCount
    let mut worker_id = 0usize;
    let mk_id = |worker_id: &mut usize| {
        let id = *worker_id;
        *worker_id += 1;
        id
    };

    for _ in 0..cfg.local_loops {
        let i = mk_id(&mut worker_id);
        let acc = *rng.pick(&["sum", "count", "max"]);
        let mut s = String::new();
        let _ = writeln!(s, "    int local{i}(Collection<Integer> c) {{");
        let _ = writeln!(s, "        int total = 0;");
        let _ = writeln!(s, "        Iterator<Integer> it = c.iterator();");
        let _ = writeln!(s, "        while (it.hasNext()) {{");
        match acc {
            "sum" => {
                let _ = writeln!(s, "            total = total + it.next();");
            }
            "count" => {
                let _ = writeln!(s, "            it.next();");
                let _ = writeln!(s, "            total = total + 1;");
            }
            _ => {
                let _ = writeln!(s, "            int v = it.next();");
                let _ = writeln!(s, "            if (v > total) {{");
                let _ = writeln!(s, "                total = v;");
                let _ = writeln!(s, "            }}");
            }
        }
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        return total;");
        let _ = writeln!(s, "    }}");
        next_calls_planned += 1;
        worker_methods.push(s);
    }
    for k in 0..cfg.helper_loops {
        let i = mk_id(&mut worker_id);
        let helper = &helper_names[k % helper_names.len()];
        let hidx = k % helper_names.len();
        let mut s = String::new();
        let _ = writeln!(s, "    int scan{i}({helper} r) {{");
        let _ = writeln!(s, "        int total = 0;");
        let _ = writeln!(s, "        Iterator<Integer> it = r.createIter{hidx}();");
        let _ = writeln!(s, "        while (it.hasNext()) {{");
        let _ = writeln!(s, "            total = total + it.next();");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        return total;");
        let _ = writeln!(s, "    }}");
        next_calls_planned += 1;
        worker_methods.push(s);
    }
    let mut bug_slots: Vec<(usize, String)> = Vec::new();
    let mut trap_slots: Vec<(usize, String)> = Vec::new();
    for k in 0..cfg.buggy_sites {
        let i = mk_id(&mut worker_id);
        let helper = &helper_names[k % helper_names.len()];
        let hidx = k % helper_names.len();
        let mut s = String::new();
        let _ = writeln!(s, "    int first{i}({helper} r) {{");
        let _ = writeln!(s, "        return r.createIter{hidx}().next();");
        let _ = writeln!(s, "    }}");
        next_calls_planned += 1;
        bug_slots.push((worker_methods.len(), format!("first{i}")));
        worker_methods.push(s);
    }
    for _ in 0..cfg.branch_traps {
        let i = mk_id(&mut worker_id);
        let helper = &helper_names[0];
        let mut s = String::new();
        let _ = writeln!(s, "    int head{i}({helper} r) {{");
        let _ = writeln!(s, "        Iterator<Integer> it = r.createReadyIter();");
        let _ = writeln!(s, "        return it.next();");
        let _ = writeln!(s, "    }}");
        next_calls_planned += 1;
        trap_slots.push((worker_methods.len(), format!("head{i}")));
        worker_methods.push(s);
    }
    // A few delegate workers exercising the annotated utilities.
    for _ in 0..3.min(cfg.local_loops) {
        let i = mk_id(&mut worker_id);
        let mut s = String::new();
        let _ = writeln!(s, "    int delegate{i}(Collection<Integer> c) {{");
        let _ = writeln!(s, "        return IterUtils.drainSum(c.iterator());");
        let _ = writeln!(s, "    }}");
        worker_methods.push(s);
    }

    // Pack worker methods into classes of ~8. The worker-list slot decides
    // which class each planted bug/trap lands in.
    let per_class = 8usize;
    let worker_class = |slot: usize| format!("Worker{}", slot / per_class);
    let bugs: Vec<Planted> = bug_slots
        .iter()
        .map(|(slot, name)| Planted::new("Iterator", worker_class(*slot), name))
        .collect();
    let traps: Vec<Planted> = trap_slots
        .iter()
        .map(|(slot, name)| Planted::new("Iterator", worker_class(*slot), name))
        .collect();
    for (ci, chunk) in worker_methods.chunks(per_class).enumerate() {
        let mut s = String::new();
        let _ = writeln!(s, "class Worker{ci} {{");
        for m in chunk {
            s.push_str(m);
        }
        let _ = writeln!(s, "}}");
        methods += chunk.len();
        sources.push(s);
    }

    // ---- Filler data classes up to the class/method targets ----
    let classes_so_far = sources.len();
    let filler_classes = cfg.total_classes.saturating_sub(classes_so_far).max(1);
    let methods_needed = cfg.total_methods.saturating_sub(methods);
    let per_filler = (methods_needed / filler_classes).max(1);
    let mut remainder = methods_needed.saturating_sub(per_filler * filler_classes);
    for f in 0..filler_classes {
        let mut count = per_filler;
        if remainder > 0 {
            count += 1;
            remainder -= 1;
        }
        let mut s = String::new();
        let _ = writeln!(s, "class Model{f} {{");
        let _ = writeln!(s, "    int base{f};");
        let _ = writeln!(s, "    String label{f};");
        let mut emitted = 0usize;
        // Constructor.
        if emitted < count {
            let _ = writeln!(s, "    Model{f}(int base) {{");
            let _ = writeln!(s, "        this.base{f} = base;");
            let _ = writeln!(s, "    }}");
            emitted += 1;
        }
        // Getter / setter pair (exercises H4 and pure receivers).
        if emitted < count {
            let _ = writeln!(s, "    int getBase{f}() {{");
            let _ = writeln!(s, "        return base{f};");
            let _ = writeln!(s, "    }}");
            truth.insert(
                MethodId::new(format!("Model{f}"), format!("getBase{f}")),
                spec("pure(this)", "pure(this)"),
            );
            emitted += 1;
        }
        if emitted < count {
            let _ = writeln!(s, "    void setBase{f}(int v) {{");
            let _ = writeln!(s, "        this.base{f} = v;");
            let _ = writeln!(s, "    }}");
            // The idiomatic PLURAL setter spec is `full(this)` (exclusive
            // writer, readers tolerated).
            truth.insert(
                MethodId::new(format!("Model{f}"), format!("setBase{f}")),
                spec("full(this)", "full(this)"),
            );
            emitted += 1;
        }
        // Arithmetic padding methods with branches (adds realistic LoC).
        let mut k = 0usize;
        while emitted < count {
            let c1 = rng.gen_range(2..9);
            let c2 = rng.gen_range(10..99);
            let c3 = rng.gen_range(1..7);
            let _ = writeln!(s, "    int compute{f}x{k}(int x, int y) {{");
            let _ = writeln!(s, "        int r = x * {c1} + y;");
            let _ = writeln!(s, "        int acc = 0;");
            let _ = writeln!(s, "        for (int i = 0; i < {c3}; i++) {{");
            let _ = writeln!(s, "            acc = acc + r;");
            let _ = writeln!(s, "            if (acc > {c2}) {{");
            let _ = writeln!(s, "                acc = acc - x;");
            let _ = writeln!(s, "            }} else {{");
            let _ = writeln!(s, "                acc = acc + y;");
            let _ = writeln!(s, "            }}");
            let _ = writeln!(s, "        }}");
            let _ = writeln!(s, "        int w = acc - x;");
            let _ = writeln!(s, "        while (w > {c2}) {{");
            let _ = writeln!(s, "            w = w - {c1};");
            let _ = writeln!(s, "        }}");
            if rng.gen_bool(0.4) {
                let _ = writeln!(s, "        acc = acc + w * {c3};");
            }
            let _ = writeln!(s, "        return acc + r * {c3};");
            let _ = writeln!(s, "    }}");
            emitted += 1;
            k += 1;
        }
        let _ = writeln!(s, "}}");
        sources.push(s);
    }

    // ---- Parse everything and compute stats ----
    let (units, lines) = parse_classes(&sources);
    let classes = units.iter().map(|u| u.types.len()).sum();
    let counted_methods: usize = units.iter().map(|u| u.methods().count()).sum();
    let next_calls: usize = units.iter().map(|u| java_syntax::visit::count_calls(u, "next")).sum();
    debug_assert_eq!(next_calls, next_calls_planned, "next() planning drifted");

    PmdCorpus {
        units,
        gold,
        truth,
        bugs,
        traps,
        stats: CorpusStats { lines, classes, methods: counted_methods, next_calls },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::ast::CompilationUnit;
    use std::collections::BTreeSet;

    #[test]
    fn small_corpus_generates_and_parses() {
        let corpus = generate(&PmdConfig::small());
        assert_eq!(corpus.stats.classes, PmdConfig::small().total_classes);
        assert_eq!(corpus.stats.methods, PmdConfig::small().total_methods);
        // 5 local + 4 helper + 1 buggy + 1 trap + 2 utils = 13 next() calls.
        assert_eq!(corpus.stats.next_calls, 13);
        assert!(corpus.stats.lines > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&PmdConfig::small());
        let b = generate(&PmdConfig::small());
        assert_eq!(a.units, b.units);
        assert_eq!(a.stats, b.stats);
        let c = generate(&PmdConfig { seed: 8, ..PmdConfig::small() });
        assert_ne!(a.units, c.units);
    }

    #[test]
    fn gold_annotations_cover_helpers_and_utils() {
        let cfg = PmdConfig::small();
        let corpus = generate(&cfg);
        // helpers + trap + 2 utils + state tests.
        assert_eq!(corpus.gold.len(), cfg.helper_classes + cfg.branch_traps + cfg.state_tests + 2);
        assert!(corpus.gold.contains_key(&MethodId::new("Registry0", "createIter0")));
        assert!(corpus.gold.contains_key(&MethodId::new("IterUtils", "drainSum")));
    }

    #[test]
    fn truth_is_superset_of_gold() {
        let corpus = generate(&PmdConfig::small());
        for id in corpus.gold.keys() {
            assert!(corpus.truth.contains_key(id), "truth missing {id}");
        }
        assert!(corpus.truth.len() > corpus.gold.len());
    }

    #[test]
    fn corpus_writes_and_reparses_from_disk() {
        let corpus = generate(&PmdConfig::small());
        let dir = std::env::temp_dir().join(format!("anek-corpus-test-{}", std::process::id()));
        let n = corpus.write_to_dir(&dir).unwrap();
        assert_eq!(n, corpus.units.len());
        // Every written file reparses.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            parse(&src).unwrap_or_else(|e| panic!("{} does not reparse: {e}", path.display()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn planted_bugs_and_traps_resolve_to_real_methods() {
        for cfg in [PmdConfig::small(), PmdConfig::paper()] {
            let corpus = generate(&cfg);
            assert_eq!(corpus.bugs.len(), cfg.buggy_sites);
            assert_eq!(corpus.traps.len(), cfg.branch_traps);
            let all: BTreeSet<MethodId> = corpus
                .units
                .iter()
                .flat_map(CompilationUnit::methods)
                .map(|(t, m)| MethodId::new(&t.name, &m.name))
                .collect();
            for planted in corpus.bugs.iter().chain(&corpus.traps) {
                let id = &planted.method;
                assert_eq!(planted.family, "Iterator", "{id} should be keyed to Iterator");
                assert!(all.contains(id), "planted {id} not found in corpus");
                assert!(id.class.starts_with("Worker"), "{id} should live in a Worker class");
            }
        }
    }

    #[test]
    fn paper_scale_stats_match_table1_shape() {
        let corpus = generate(&PmdConfig::paper());
        assert_eq!(corpus.stats.classes, 463);
        assert_eq!(corpus.stats.methods, 3120);
        assert_eq!(corpus.stats.next_calls, 170);
        // Lines land in the tens of thousands like PMD's 38,483.
        assert!(
            corpus.stats.lines > 25_000 && corpus.stats.lines < 55_000,
            "lines = {}",
            corpus.stats.lines
        );
    }
}
