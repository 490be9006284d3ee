//! The `anek check` engine: bit-vector typestate verification of client
//! code against a spec table, with [`lint`]-style diagnostics, plus the
//! differential verdict oracle behind `anek check --cross-validate`.
//!
//! Three independent engines can judge "does this method misuse a
//! protocol?":
//!
//! 1. **bitstate** — the bit-vector abstract interpreter, consuming the
//!    spec table (hand-written or ANEK-inferred);
//! 2. **PLURAL** — the fractional-permission checker, consuming the same
//!    table ([`plural::check`], filtered to wrong-state warnings);
//! 3. **lint** — the deterministic `PROT001` protocol lint, which ignores
//!    the table and computes its own branch-refined summaries from source
//!    annotations alone.
//!
//! The oracle compares all three per method. bitstate and PLURAL read the
//! same specs, so *any* disagreement between them is a bug in one of the
//! two — [`CrossReport::undocumented`] must be zero. The lint is an
//! independent opinion with a documented design difference (its own
//! summary fixpoint, with `@TrueIndicates` branch refinement even when the
//! helper carries no annotation), so consensus-vs-lint rows are reported
//! but classified as documented.

use analysis::types::{MethodId, ProgramIndex};
use bitstate::{ProgramReport, ProgramSpecs};
use java_syntax::ast::{CompilationUnit, Expr, ExprKind, Member};
use java_syntax::visit::{walk_expr, walk_method, Visitor};
use lint::{rules, sort_diagnostics, Diagnostic, Severity};
use plural::{SpecTable, WarningKind};
use spec_lang::{ApiRegistry, ProtocolRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Converts a PLURAL spec table into the bitstate engine's program-spec
/// form, resolving each method's return type through the program index.
/// Empty specs are dropped (they constrain nothing).
pub fn program_specs(table: &SpecTable, units: &[CompilationUnit]) -> ProgramSpecs {
    let index = ProgramIndex::build(units.iter());
    table
        .iter()
        .filter(|(_, spec)| !spec.is_empty())
        .map(|(id, spec)| {
            let ret = index.method(id).and_then(|m| m.return_type.clone());
            (id.clone(), (spec.clone(), ret))
        })
        .collect()
}

/// Renders a [`ProgramReport`]'s findings as sorted lint diagnostics:
/// `CHK001` for may-violations, `CHK002` for definite ones. Both are
/// errors — a may-violation is a path the checker could not rule out.
pub fn diagnostics(report: &ProgramReport) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = report
        .findings()
        .map(|f| {
            let (rule, verb) = if f.definite {
                (rules::CHECK_DEFINITE_VIOLATION, "always fires")
            } else {
                (rules::CHECK_MAY_VIOLATION, "may fire")
            };
            let observed =
                if f.observed.is_empty() { "no state".to_string() } else { f.observed.join(", ") };
            Diagnostic::new(
                rule,
                Severity::Error,
                format!(
                    "call to {} {verb} with receiver in state {observed} (requires {})",
                    f.callee, f.required
                ),
                f.span,
            )
            .in_method(f.method.to_string())
            .with_note(format!("requires clause: {}", f.clause))
        })
        .collect();
    sort_diagnostics(&mut diags);
    diags
}

/// One method on which the engines did not fully agree.
#[derive(Debug, Clone)]
pub struct CrossRow {
    /// The method in question.
    pub method: MethodId,
    /// The protocol family (or `+`-joined families) the method's calls
    /// touch, resolved through the built-in protocol registry; `None` when
    /// no call resolves to a registered protocol method.
    pub family: Option<String>,
    /// Did the bit-vector engine flag it?
    pub bitstate: bool,
    /// Did PLURAL flag it (wrong-state warnings only)?
    pub plural: bool,
    /// Did the `PROT001` lint flag it?
    pub lint: bool,
    /// Whether the disagreement is a documented design difference (as
    /// opposed to a bug in one engine).
    pub documented: bool,
    /// The classification, one line.
    pub why: String,
}

/// The differential oracle's verdict comparison.
#[derive(Debug, Clone, Default)]
pub struct CrossReport {
    /// Methods where at least two engines disagreed, in method order.
    pub rows: Vec<CrossRow>,
    /// Methods with a body that all three engines examined.
    pub methods_compared: usize,
    /// Rows explained by a documented design difference.
    pub documented: usize,
    /// Rows that indicate a bug in one of the engines.
    pub undocumented: usize,
}

impl CrossReport {
    /// Renders the comparison as a deterministic text table plus a summary
    /// line ending in `undocumented disagreements: N`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let mark = |b: bool| if b { "flag" } else { "clean" };
            let _ = writeln!(
                out,
                "{}\tfamily={}\tbitstate={}\tplural={}\tlint={}\t{}: {}",
                row.method,
                row.family.as_deref().unwrap_or("-"),
                mark(row.bitstate),
                mark(row.plural),
                mark(row.lint),
                if row.documented { "documented" } else { "UNDOCUMENTED" },
                row.why,
            );
        }
        let _ = writeln!(
            out,
            "cross-validate: {} methods compared, {} disagreements ({} documented), undocumented disagreements: {}",
            self.methods_compared,
            self.rows.len(),
            self.documented,
            self.undocumented,
        );
        out
    }
}

/// Maps each program method to the protocol family (or `+`-joined
/// families) its calls touch. A call is attributed by name through the
/// API registry — the built-in protocol library keeps method names unique
/// across families precisely so this resolution is unambiguous — and the
/// declaring type is mapped to its family via the protocol registry.
fn method_families(units: &[CompilationUnit], api: &ApiRegistry) -> BTreeMap<MethodId, String> {
    let protocols = ProtocolRegistry::builtin();
    let mut name_to_family: BTreeMap<&str, &str> = BTreeMap::new();
    for m in api.iter() {
        if let Some(family) = protocols.family_of_type(&m.type_name) {
            name_to_family.insert(&m.method_name, family);
        }
    }

    #[derive(Default)]
    struct Calls {
        names: BTreeSet<String>,
    }
    impl Visitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Call { name, .. } = &e.kind {
                self.names.insert(name.clone());
            }
            walk_expr(self, e);
        }
    }

    let mut out = BTreeMap::new();
    for unit in units {
        for t in &unit.types {
            for member in &t.members {
                let Member::Method(m) = member else { continue };
                let mut calls = Calls::default();
                walk_method(&mut calls, m);
                let families: BTreeSet<&str> = calls
                    .names
                    .iter()
                    .filter_map(|n| name_to_family.get(n.as_str()).copied())
                    .collect();
                if !families.is_empty() {
                    out.insert(
                        MethodId::new(&t.name, &m.name),
                        families.into_iter().collect::<Vec<_>>().join("+"),
                    );
                }
            }
        }
    }
    out
}

/// Runs all three engines over `units` with the same spec table and
/// compares their per-method verdicts.
pub fn cross_validate(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    table: &SpecTable,
) -> CrossReport {
    let specs = program_specs(table, units);
    let bit_report = bitstate::check_program(units, api, &specs);
    let bit_flagged: BTreeSet<MethodId> = bit_report
        .methods
        .iter()
        .filter(|(_, r)| !r.findings.is_empty())
        .map(|(id, _)| id.clone())
        .collect();

    let plural_result = plural::check(units, api, table);
    let plural_flagged = plural_result.methods_with_warnings(WarningKind::WrongState);

    let lint_diags = lint::lint_units(units, api, &lint::LintOptions { verify_ir: false });
    let lint_flagged: BTreeSet<MethodId> = lint_diags
        .iter()
        .filter(|d| d.rule == rules::PROTOCOL_VIOLATION)
        .filter_map(|d| {
            let (class, method) = d.method.split_once('.')?;
            Some(MethodId::new(class, method))
        })
        .collect();

    let families = method_families(units, api);
    let mut report =
        CrossReport { methods_compared: bit_report.methods_checked, ..CrossReport::default() };
    let all: BTreeSet<&MethodId> =
        bit_flagged.iter().chain(&plural_flagged).chain(&lint_flagged).collect();
    for id in all {
        let b = bit_flagged.contains(id);
        let p = plural_flagged.contains(id);
        let l = lint_flagged.contains(id);
        if b == p && p == l {
            continue; // unanimous
        }
        let (documented, why) = if b != p {
            (
                false,
                "bitstate and PLURAL consume the same specs but disagree — a bug in one engine"
                    .to_string(),
            )
        } else {
            (
                true,
                "PROT001 ignores the spec table and branch-refines its own summaries \
                 (state-test precision gap)"
                    .to_string(),
            )
        };
        report.rows.push(CrossRow {
            method: id.clone(),
            family: families.get(id).cloned(),
            bitstate: b,
            plural: p,
            lint: l,
            documented,
            why,
        });
    }
    report.documented = report.rows.iter().filter(|r| r.documented).count();
    report.undocumented = report.rows.len() - report.documented;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    fn units(src: &str) -> Vec<CompilationUnit> {
        vec![parse(src).unwrap()]
    }

    #[test]
    fn diagnostics_use_chk_rules_and_sort() {
        let us = units(
            "class A {\n\
               Object first(Collection<Integer> c) { return c.iterator().next(); }\n\
               void drain(Collection<Integer> c) {\n\
                 Iterator<Integer> it = c.iterator();\n\
                 while (it.hasNext()) { it.next(); }\n\
                 it.next(); } }",
        );
        let report = bitstate::check_program(&us, &standard_api(), &ProgramSpecs::new());
        let diags = diagnostics(&report);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().any(|d| d.rule == rules::CHECK_MAY_VIOLATION));
        assert!(diags.iter().any(|d| d.rule == rules::CHECK_DEFINITE_VIOLATION));
        assert!(diags.iter().all(|d| d.severity == Severity::Error && d.family() == "CHK"));
        let offsets: Vec<usize> = diags.iter().map(|d| d.span.start.offset).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "sorted by position");
    }

    #[test]
    fn unanimous_program_has_no_rows() {
        let us = units(
            "class A { void drain(Collection<Integer> c) {\n\
               Iterator<Integer> it = c.iterator();\n\
               while (it.hasNext()) { it.next(); } } }",
        );
        let table = SpecTable::from_units(&us);
        let report = cross_validate(&us, &standard_api(), &table);
        assert!(report.rows.is_empty(), "{}", report.render());
        assert_eq!(report.undocumented, 0);
        assert!(report.render().contains("undocumented disagreements: 0"));
    }

    #[test]
    fn unanimous_bug_is_not_a_disagreement() {
        // All three engines flag the unguarded next(): no row.
        let us = units(
            "class A { Object first(Collection<Integer> c) {\n\
               return c.iterator().next(); } }",
        );
        let table = SpecTable::from_units(&us);
        let report = cross_validate(&us, &standard_api(), &table);
        assert!(report.rows.is_empty(), "{}", report.render());
    }

    #[test]
    fn branch_trap_is_a_documented_gap() {
        // `ready()` provably returns HASNEXT, but only via branch reasoning.
        // With an inferred-style ALIVE result spec, bitstate and PLURAL both
        // flag the caller; PROT001 branch-refines ready()'s summary and
        // stays clean. Documented, not a bug.
        let src = "class H { Collection<Integer> items;\n\
                     Iterator<Integer> ready() {\n\
                       Iterator<Integer> it = items.iterator();\n\
                       if (!it.hasNext()) { throw new RuntimeException(\"empty\"); }\n\
                       return it; } }\n\
                   class A { Object head(H h) { return h.ready().next(); } }";
        let us = units(src);
        let inferred = std::iter::once((
            MethodId::new("H", "ready"),
            spec_lang::MethodSpec {
                requires: spec_lang::parse_clause("").unwrap(),
                ensures: spec_lang::parse_clause("unique(result) in ALIVE").unwrap(),
                true_indicates: None,
                false_indicates: None,
            },
        ))
        .collect();
        let table = SpecTable::from_units(&us).overlay_inferred(&inferred);
        let report = cross_validate(&us, &standard_api(), &table);
        assert_eq!(report.undocumented, 0, "{}", report.render());
        assert_eq!(report.documented, 1, "{}", report.render());
        let row = &report.rows[0];
        assert_eq!(row.method, MethodId::new("A", "head"));
        assert!(row.bitstate && row.plural && !row.lint, "{row:?}");
        assert_eq!(row.family.as_deref(), Some("Iterator"), "{row:?}");
        assert!(report.render().contains("family=Iterator"), "{}", report.render());
    }

    #[test]
    fn file_indicator_trap_is_keyed_by_family() {
        // The Iterator branch-trap shape transplanted to the File family:
        // `ensureOpen` provably returns an OPEN file, but only via the
        // `isOpen()` branch. With an inferred-style ALIVE result spec,
        // bitstate and PLURAL flag the caller; PROT001 branch-refines the
        // helper's summary and stays clean. The row must carry the family.
        let src = "class FileUtils {\n\
                     static File ensureOpen(File f) {\n\
                       if (!f.isOpen()) { throw new RuntimeException(\"closed\"); }\n\
                       return f; } }\n\
                   class W { int touch(File f) {\n\
                     return FileUtils.ensureOpen(f).readLine(); } }";
        let us = units(src);
        let api = spec_lang::api_with_protocols(&["File"]).unwrap();
        let inferred = std::iter::once((
            MethodId::new("FileUtils", "ensureOpen"),
            spec_lang::MethodSpec {
                requires: spec_lang::parse_clause("full(f)").unwrap(),
                ensures: spec_lang::parse_clause("unique(result) in ALIVE").unwrap(),
                true_indicates: None,
                false_indicates: None,
            },
        ))
        .collect();
        let table = SpecTable::from_units(&us).overlay_inferred(&inferred);
        let report = cross_validate(&us, &api, &table);
        assert_eq!(report.undocumented, 0, "{}", report.render());
        assert_eq!(report.documented, 1, "{}", report.render());
        let row = &report.rows[0];
        assert_eq!(row.method, MethodId::new("W", "touch"));
        assert_eq!(row.family.as_deref(), Some("File"), "{row:?}");
        assert!(row.bitstate && row.plural && !row.lint, "{row:?}");
    }
}
