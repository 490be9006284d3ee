//! String, character and floating-point literals survive print → parse.
//!
//! `print_unit` is how the pipeline writes annotated programs back out and
//! how the store fingerprints a unit, so a literal whose value changes on
//! the way through print → parse changes both. Non-ASCII text must pass
//! through the lexer as characters, not bytes, a character literal that
//! needs an escape must be printed with it, and an exponent without a
//! decimal point is one floating-point literal.

use java_syntax::visit::{walk_expr, walk_unit, Visitor};
use java_syntax::{parse, print_unit, AnnotationArgs, CompilationUnit, Expr, ExprKind, Lit};

const SRC: &str = r#"@Note("tags: ü, ✓")
class A {
    void m() {
        String s = "héllo→";
        String t = "tab\t quote\" it's backslash\\ newline\n";
        char a = 'é';
        char b = '→';
        char q = '\'';
        char bs = '\\';
        char nl = '\n';
        char dq = '"';
        double e = 1e5;
        double em = 2E-3;
        float ef = 7e+1f;
    }
}
"#;

/// Every string, character and floating-point literal of `unit`,
/// annotations first, then expressions in source order.
fn literals(unit: &CompilationUnit) -> Vec<Lit> {
    struct Collect(Vec<Lit>);
    impl Visitor for Collect {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Literal(lit @ (Lit::Str(_) | Lit::Char(_) | Lit::Double(_))) = &e.kind
            {
                self.0.push(lit.clone());
            }
            walk_expr(self, e);
        }
    }
    let mut c = Collect(Vec::new());
    for ann in unit.types.iter().flat_map(|t| &t.annotations) {
        if let AnnotationArgs::Single(lit) = &ann.args {
            c.0.push(lit.clone());
        }
    }
    walk_unit(&mut c, unit);
    c.0
}

#[test]
fn literals_keep_their_values_through_print_and_parse() {
    let unit = parse(SRC).unwrap();
    let expected = vec![
        Lit::Str("tags: ü, ✓".into()),
        Lit::Str("héllo→".into()),
        Lit::Str("tab\t quote\" it's backslash\\ newline\n".into()),
        Lit::Char('é'),
        Lit::Char('→'),
        Lit::Char('\''),
        Lit::Char('\\'),
        Lit::Char('\n'),
        Lit::Char('"'),
        Lit::Double("1e5".into()),
        Lit::Double("2E-3".into()),
        Lit::Double("7e+1f".into()),
    ];
    assert_eq!(literals(&unit), expected);
    let printed = print_unit(&unit);
    let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(literals(&reparsed), expected, "printed:\n{printed}");
    assert_eq!(print_unit(&reparsed), printed);
}
