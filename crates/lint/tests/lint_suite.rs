//! Acceptance tests for `anek-lint`: the planted corpus bugs are found
//! exactly, the hand-written regression suite stays free of false
//! positives, and the IR verifier catches injected corruptions.

use corpus::generator::{generate, PmdConfig};
use corpus::{figures, regression};
use java_syntax::parse;
use lint::{lint_units, rules, LintOptions, Severity};
use spec_lang::standard_api;

fn lint_source(src: &str) -> Vec<lint::Diagnostic> {
    let unit = parse(src).expect("source parses");
    lint_units(&[unit], &standard_api(), &LintOptions::default())
}

#[test]
fn corpus_planted_bugs_found_exactly() {
    let corpus = generate(&PmdConfig::paper());
    let diags = lint_units(&corpus.units, &standard_api(), &LintOptions::default());
    let methods: Vec<&str> = diags.iter().map(|d| d.method.as_str()).collect();
    assert_eq!(
        diags.len(),
        3,
        "expected exactly the 3 planted next()-without-hasNext() sites, got: {methods:?}"
    );
    for (d, want) in diags.iter().zip(["first164", "first165", "first166"]) {
        assert_eq!(d.rule, rules::PROTOCOL_VIOLATION);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.method.ends_with(want), "planted site {want} missing; found {}", d.method);
        assert!(d.span.start.line > 0, "diagnostic must carry a real span");
        assert!(d.message.contains("HASNEXT"), "{}", d.message);
    }
}

#[test]
fn regression_suite_has_no_false_positives() {
    for case in regression::suite() {
        let diags = lint_units(&[case.unit()], &standard_api(), &LintOptions::default());
        match case.name {
            // The one genuinely buggy method in the suite: `buggyUse`
            // calls next() on a freshly created iterator.
            "conflict-tolerance" => {
                assert_eq!(
                    diags.len(),
                    1,
                    "{}: want exactly the buggyUse finding, got {diags:?}",
                    case.name
                );
                assert_eq!(diags[0].rule, rules::PROTOCOL_VIOLATION);
                assert_eq!(diags[0].method, "Conflict.buggyUse");
            }
            _ => {
                assert!(diags.is_empty(), "{}: unexpected diagnostics {diags:?}", case.name);
            }
        }
    }
}

#[test]
fn figure3_testparsecsv_sites_are_true_positives() {
    let diags = lint_source(figures::FIGURE3);
    // testParseCSV calls next() twice on iterators that were never
    // hasNext()-checked; everything else in the figure is clean.
    assert_eq!(diags.len(), 2, "{diags:?}");
    for d in &diags {
        assert_eq!(d.rule, rules::PROTOCOL_VIOLATION);
        assert_eq!(d.method, "Spreadsheet.testParseCSV");
    }
}

#[test]
fn figure_programs_verify_clean() {
    for src in [figures::FIGURE3, figures::FIGURE7, figures::figure2()] {
        let unit = parse(src).expect("figure parses");
        let diags = lint_units(&[unit], &standard_api(), &LintOptions { verify_ir: true });
        let ir: Vec<_> = diags.iter().filter(|d| d.rule.starts_with("IR")).collect();
        assert!(ir.is_empty(), "IR verifier fired on a well-formed figure: {ir:?}");
    }
}

#[test]
fn spec_consistency_checks_fire() {
    // SPEC001: pure receiver writing a field of this.
    let diags = lint_source(
        "class A { Object f;
          @Perm(requires = \"pure(this)\", ensures = \"pure(this)\")
          void sneakyWrite(Object o) { this.f = o; } }",
    );
    assert!(diags.iter().any(|d| d.rule == rules::READONLY_WRITES), "{diags:?}");

    // SPEC002: ensures unique(result) but returns a parameter.
    let diags = lint_source(
        "class A {
          @Perm(ensures = \"unique(result)\")
          Iterator<Integer> identity(Iterator<Integer> it) { return it; } }",
    );
    assert!(diags.iter().any(|d| d.rule == rules::STALE_UNIQUE_RESULT), "{diags:?}");

    // ...but a genuinely fresh result is clean.
    let diags = lint_source(
        "class A {
          @Perm(ensures = \"unique(result)\")
          Row fresh() { return new Row(); } }
         class Row { }",
    );
    assert!(!diags.iter().any(|d| d.rule == rules::STALE_UNIQUE_RESULT), "{diags:?}");

    // SPEC003: synchronizing on a unique parameter.
    let diags = lint_source(
        "class A {
          @Perm(requires = \"unique(o)\")
          void lockIt(Object o) { synchronized (o) { } } }",
    );
    assert!(diags.iter().any(|d| d.rule == rules::UNIQUE_SYNC), "{diags:?}");

    // SPEC004: malformed clause text.
    let diags = lint_source(
        "class A {
          @Perm(requires = \"bogus(this\")
          void m() { } }",
    );
    assert!(diags.iter().any(|d| d.rule == rules::MALFORMED_SPEC), "{diags:?}");
}

#[test]
fn json_output_is_parseable_shape() {
    let diags = lint_source(figures::FIGURE3);
    let json = lint::to_json_array(&diags);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"rule\":\"PROT001\"").count(), 2);
}
