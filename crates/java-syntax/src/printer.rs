//! Pretty-printer emitting Java source from the AST.
//!
//! Used by the corpus generator (to materialize synthetic programs), by the
//! spec applier (to write inferred annotations back into source), by the
//! store's fingerprints, and by the round-trip tests: `parse(print(ast))`
//! equals `ast` modulo spans and expression ids, so two trees never print
//! to the same text. The printer adds the parentheses the grammar needs
//! and no others.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-prints a compilation unit to Java source.
pub fn print_unit(unit: &CompilationUnit) -> String {
    let mut p = Printer::default();
    p.unit(unit);
    p.out
}

/// Pretty-prints a compilation unit with every method body left out, as
/// if each method were abstract: the text `print_unit` gives for a copy of
/// `unit` whose bodies are all `None`, without making that copy.
pub fn print_unit_interface(unit: &CompilationUnit) -> String {
    let mut p = Printer { elide_bodies: true, ..Printer::default() };
    p.unit(unit);
    p.out
}

/// Pretty-prints a single type declaration.
pub fn print_type(decl: &TypeDecl) -> String {
    let mut p = Printer::default();
    p.type_decl(decl);
    p.out
}

/// Pretty-prints an expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::default();
    p.expr(expr);
    p.out
}

/// Pretty-prints a statement at indentation level zero.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::default();
    p.stmt(stmt);
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
    /// Print each method as if its body were `None`.
    elide_bodies: bool,
}

impl Printer {
    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn word(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn unit(&mut self, unit: &CompilationUnit) {
        if let Some(pkg) = &unit.package {
            let _ = write!(self.out, "package {pkg};");
            self.nl();
        }
        for imp in &unit.imports {
            self.word("import ");
            if imp.is_static {
                self.word("static ");
            }
            let _ = write!(self.out, "{}", imp.path);
            if imp.wildcard {
                self.word(".*");
            }
            self.word(";");
            self.nl();
        }
        for (i, t) in unit.types.iter().enumerate() {
            if i > 0 || unit.package.is_some() || !unit.imports.is_empty() {
                self.nl();
            }
            self.type_decl(t);
            self.nl();
        }
    }

    fn annotations(&mut self, anns: &[Annotation], inline: bool) {
        for a in anns {
            self.word("@");
            let _ = write!(self.out, "{}", a.name);
            match &a.args {
                AnnotationArgs::None => {}
                AnnotationArgs::Single(lit) => {
                    let _ = write!(self.out, "({lit})");
                }
                AnnotationArgs::Pairs(pairs) => {
                    self.word("(");
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            self.word(", ");
                        }
                        let _ = write!(self.out, "{k} = {v}");
                    }
                    self.word(")");
                }
            }
            if inline {
                self.word(" ");
            } else {
                self.nl();
            }
        }
    }

    fn modifiers(&mut self, m: &Modifiers) {
        if m.public {
            self.word("public ");
        }
        if m.protected {
            self.word("protected ");
        }
        if m.private {
            self.word("private ");
        }
        if m.is_abstract {
            self.word("abstract ");
        }
        if m.is_static {
            self.word("static ");
        }
        if m.is_final {
            self.word("final ");
        }
        if m.is_synchronized {
            self.word("synchronized ");
        }
    }

    fn type_params(&mut self, params: &[String]) {
        if !params.is_empty() {
            let _ = write!(self.out, "<{}>", params.join(", "));
        }
    }

    fn type_list(&mut self, kw: &str, types: &[TypeRef]) {
        if !types.is_empty() {
            let _ = write!(self.out, " {kw} ");
            for (i, t) in types.iter().enumerate() {
                if i > 0 {
                    self.word(", ");
                }
                let _ = write!(self.out, "{t}");
            }
        }
    }

    fn type_decl(&mut self, t: &TypeDecl) {
        self.annotations(&t.annotations, false);
        self.modifiers(&t.modifiers);
        self.word(match t.kind {
            TypeKind::Class => "class ",
            TypeKind::Interface => "interface ",
        });
        self.word(&t.name);
        self.type_params(&t.type_params);
        self.type_list("extends", &t.extends);
        self.type_list("implements", &t.implements);
        self.word(" {");
        self.indent += 1;
        for m in &t.members {
            self.nl();
            match m {
                Member::Field(f) => self.field(f),
                Member::Method(md) => self.method(md),
            }
        }
        self.indent -= 1;
        self.nl();
        self.word("}");
    }

    fn field(&mut self, f: &FieldDecl) {
        self.annotations(&f.annotations, false);
        self.modifiers(&f.modifiers);
        let _ = write!(self.out, "{} {}", f.ty, f.name);
        if let Some(init) = &f.init {
            self.word(" = ");
            self.expr(init);
        }
        self.word(";");
    }

    fn method(&mut self, m: &MethodDecl) {
        self.annotations(&m.annotations, false);
        self.modifiers(&m.modifiers);
        if !m.type_params.is_empty() {
            self.type_params(&m.type_params);
            self.word(" ");
        }
        if let Some(rt) = &m.return_type {
            let _ = write!(self.out, "{rt} ");
        }
        self.word(&m.name);
        self.word("(");
        for (i, p) in m.params.iter().enumerate() {
            if i > 0 {
                self.word(", ");
            }
            self.annotations(&p.annotations, true);
            if p.is_final {
                self.word("final ");
            }
            let _ = write!(self.out, "{} {}", p.ty, p.name);
        }
        self.word(")");
        self.type_list("throws", &m.throws);
        match m.body.as_ref().filter(|_| !self.elide_bodies) {
            Some(b) => {
                self.word(" ");
                self.block(b);
            }
            None => self.word(";"),
        }
    }

    fn block(&mut self, b: &Block) {
        self.word("{");
        self.indent += 1;
        for s in &b.stmts {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.word("}");
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(b) => self.block(b),
            StmtKind::LocalVar { ty, name, init } => {
                let _ = write!(self.out, "{ty} {name}");
                if let Some(e) = init {
                    self.word(" = ");
                    self.expr(e);
                }
                self.word(";");
            }
            StmtKind::Expr(e) => {
                self.expr(e);
                self.word(";");
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                self.word("if (");
                self.expr(cond);
                self.word(") ");
                self.stmt_as_block(then_branch);
                if let Some(els) = else_branch {
                    self.word(" else ");
                    if matches!(els.kind, StmtKind::If { .. }) {
                        self.stmt(els);
                    } else {
                        self.stmt_as_block(els);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                self.word("while (");
                self.expr(cond);
                self.word(") ");
                self.stmt_as_block(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.word("do ");
                self.stmt_as_block(body);
                self.word(" while (");
                self.expr(cond);
                self.word(");");
            }
            StmtKind::Switch { scrutinee, cases } => {
                self.word("switch (");
                self.expr(scrutinee);
                self.word(") {");
                self.indent += 1;
                for c in cases {
                    for l in &c.labels {
                        self.nl();
                        match l {
                            Some(e) => {
                                self.word("case ");
                                self.expr(e);
                                self.word(":");
                            }
                            None => self.word("default:"),
                        }
                    }
                    self.indent += 1;
                    for s in &c.body {
                        self.nl();
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.nl();
                self.word("}");
            }
            StmtKind::For { init, cond, update, body } => {
                self.word("for (");
                for (i, s) in init.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    // Statements inside for-init print without their `;`.
                    match &s.kind {
                        StmtKind::LocalVar { ty, name, init } => {
                            let _ = write!(self.out, "{ty} {name}");
                            if let Some(e) = init {
                                self.word(" = ");
                                self.expr(e);
                            }
                        }
                        StmtKind::Expr(e) => self.expr(e),
                        other => {
                            let _ = write!(self.out, "/* unsupported for-init {other:?} */");
                        }
                    }
                }
                self.word("; ");
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.word("; ");
                for (i, e) in update.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    self.expr(e);
                }
                self.word(") ");
                self.stmt_as_block(body);
            }
            StmtKind::ForEach { ty, name, iterable, body } => {
                let _ = write!(self.out, "for ({ty} {name} : ");
                self.expr(iterable);
                self.word(") ");
                self.stmt_as_block(body);
            }
            StmtKind::Return(v) => {
                self.word("return");
                if let Some(e) = v {
                    self.word(" ");
                    self.expr(e);
                }
                self.word(";");
            }
            StmtKind::Assert { cond, message } => {
                self.word("assert ");
                self.expr(cond);
                if let Some(m) = message {
                    self.word(" : ");
                    self.expr(m);
                }
                self.word(";");
            }
            StmtKind::Synchronized { target, body } => {
                self.word("synchronized (");
                self.expr(target);
                self.word(") ");
                self.block(body);
            }
            StmtKind::Try { body, catches, finally } => {
                self.word("try ");
                self.block(body);
                for c in catches {
                    let _ = write!(self.out, " catch ({} {}) ", c.ty, c.name);
                    self.block(&c.body);
                }
                if let Some(f) = finally {
                    self.word(" finally ");
                    self.block(f);
                }
            }
            StmtKind::Throw(e) => {
                self.word("throw ");
                self.expr(e);
                self.word(";");
            }
            StmtKind::Break => self.word("break;"),
            StmtKind::Continue => self.word("continue;"),
            StmtKind::Empty => self.word(";"),
        }
    }

    /// Prints a statement, wrapping non-block statements in braces so that
    /// printed control flow is never dangling.
    fn stmt_as_block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(b) => self.block(b),
            _ => {
                self.word("{");
                self.indent += 1;
                self.nl();
                self.stmt(s);
                self.indent -= 1;
                self.nl();
                self.word("}");
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Literal(l) => {
                let _ = write!(self.out, "{l}");
            }
            ExprKind::Name(n) => self.word(n),
            ExprKind::This => self.word("this"),
            ExprKind::FieldAccess { receiver, name } => {
                self.expr_prec(receiver, 15);
                self.word(".");
                self.word(name);
            }
            ExprKind::Call { receiver, name, args } => {
                if let Some(r) = receiver {
                    self.expr_prec(r, 15);
                    self.word(".");
                }
                self.word(name);
                self.word("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    self.expr(a);
                }
                self.word(")");
            }
            ExprKind::New { ty, args } => {
                let _ = write!(self.out, "new {ty}(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    self.expr(a);
                }
                self.word(")");
            }
            ExprKind::Assign { lhs, op, rhs } => {
                self.expr_prec(lhs, 2);
                let _ = write!(self.out, " {op} ");
                self.expr(rhs);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let prec = bin_prec(*op);
                // `x instanceof T < y` would read `T<` as the start of
                // type arguments.
                let raw_type_then_lt = *op == BinaryOp::Lt
                    && matches!(&lhs.kind, ExprKind::InstanceOf { ty, .. }
                        if matches!(&**ty, TypeRef::Named { args, .. } if args.is_empty()));
                if raw_type_then_lt {
                    self.parens(lhs);
                } else {
                    self.expr_prec(lhs, prec);
                }
                let _ = write!(self.out, " {op} ");
                self.expr_prec(rhs, prec + 1);
            }
            ExprKind::Unary { op, expr } => {
                let _ = write!(self.out, "{op}");
                // `-` then `-a` or `--a` would lex as `--`.
                let minus_next =
                    matches!(expr.kind, ExprKind::Unary { op: UnaryOp::Neg | UnaryOp::PreDec, .. });
                if *op == UnaryOp::Neg && minus_next {
                    self.parens(expr);
                } else {
                    self.expr_prec(expr, 13);
                }
            }
            ExprKind::Postfix { inc, expr } => {
                self.expr_prec(expr, 14);
                self.word(if *inc { "++" } else { "--" });
            }
            ExprKind::Cast { ty, expr } => {
                let _ = write!(self.out, "({ty}) ");
                // Only a primitive type makes `(T) -a` a cast; after a
                // class type it is a subtraction.
                let signed = matches!(
                    expr.kind,
                    ExprKind::Unary { op: UnaryOp::Neg | UnaryOp::PreInc | UnaryOp::PreDec, .. }
                );
                if signed && !names_primitive(ty) {
                    self.parens(expr);
                } else {
                    self.expr_prec(expr, 13);
                }
            }
            ExprKind::InstanceOf { expr, ty } => {
                self.expr_prec(expr, 9);
                let _ = write!(self.out, " instanceof {ty}");
            }
            ExprKind::Conditional { cond, then_expr, else_expr } => {
                self.expr_prec(cond, 3);
                self.word(" ? ");
                self.expr(then_expr);
                self.word(" : ");
                self.expr_prec(else_expr, 2);
            }
            ExprKind::ArrayAccess { array, index } => {
                self.expr_prec(array, 15);
                self.word("[");
                self.expr(index);
                self.word("]");
            }
        }
    }

    /// Prints a subexpression, parenthesizing when its precedence is lower
    /// than the context requires.
    fn expr_prec(&mut self, e: &Expr, min_prec: u8) {
        if expr_prec(e) < min_prec {
            self.parens(e);
        } else {
            self.expr(e);
        }
    }

    fn parens(&mut self, e: &Expr) {
        self.word("(");
        self.expr(e);
        self.word(")");
    }
}

/// Whether `ty` prints starting with a primitive type's keyword.
fn names_primitive(ty: &TypeRef) -> bool {
    match ty {
        TypeRef::Primitive(_) => true,
        TypeRef::Array(elem) => names_primitive(elem),
        _ => false,
    }
}

/// A binary operator's printing precedence: its level shifted above
/// assignment (1) and the conditional (2).
fn bin_prec(op: BinaryOp) -> u8 {
    op.precedence() + 2
}

fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Assign { .. } => 1,
        ExprKind::Conditional { .. } => 2,
        ExprKind::Binary { op, .. } => bin_prec(*op),
        ExprKind::InstanceOf { .. } => 9,
        ExprKind::Unary { .. } | ExprKind::Cast { .. } => 13,
        ExprKind::Postfix { .. } => 14,
        _ => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    /// Strips spans and ids so ASTs can be compared structurally.
    fn normalize(src: &str) -> String {
        format!("{:?}", parse(src).map(strip_unit).unwrap())
    }

    fn walk_expr(e: &mut Expr) {
        e.span = crate::span::Span::DUMMY;
        e.id = ExprId(0);
        match &mut e.kind {
            ExprKind::FieldAccess { receiver, .. } => walk_expr(receiver),
            ExprKind::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    walk_expr(r);
                }
                args.iter_mut().for_each(walk_expr);
            }
            ExprKind::New { args, .. } => args.iter_mut().for_each(walk_expr),
            ExprKind::Assign { lhs, rhs, .. } => {
                walk_expr(lhs);
                walk_expr(rhs);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                walk_expr(lhs);
                walk_expr(rhs);
            }
            ExprKind::Unary { expr, .. }
            | ExprKind::Postfix { expr, .. }
            | ExprKind::Cast { expr, .. }
            | ExprKind::InstanceOf { expr, .. } => walk_expr(expr),
            ExprKind::Conditional { cond, then_expr, else_expr } => {
                walk_expr(cond);
                walk_expr(then_expr);
                walk_expr(else_expr);
            }
            ExprKind::ArrayAccess { array, index } => {
                walk_expr(array);
                walk_expr(index);
            }
            ExprKind::Literal(_) | ExprKind::Name(_) | ExprKind::This => {}
        }
    }

    fn strip_unit(mut u: CompilationUnit) -> CompilationUnit {
        fn walk_stmt(s: &mut Stmt) {
            s.span = crate::span::Span::DUMMY;
            match &mut s.kind {
                StmtKind::Block(b) => walk_block(b),
                StmtKind::LocalVar { init, .. } => {
                    if let Some(e) = init {
                        walk_expr(e);
                    }
                }
                StmtKind::Expr(e) | StmtKind::Throw(e) => walk_expr(e),
                StmtKind::If { cond, then_branch, else_branch } => {
                    walk_expr(cond);
                    walk_stmt(then_branch);
                    if let Some(e) = else_branch {
                        walk_stmt(e);
                    }
                }
                StmtKind::While { cond, body } => {
                    walk_expr(cond);
                    walk_stmt(body);
                }
                StmtKind::DoWhile { body, cond } => {
                    walk_stmt(body);
                    walk_expr(cond);
                }
                StmtKind::Switch { scrutinee, cases } => {
                    walk_expr(scrutinee);
                    for c in cases {
                        for l in c.labels.iter_mut().flatten() {
                            walk_expr(l);
                        }
                        c.body.iter_mut().for_each(walk_stmt);
                    }
                }
                StmtKind::For { init, cond, update, body } => {
                    init.iter_mut().for_each(walk_stmt);
                    if let Some(c) = cond {
                        walk_expr(c);
                    }
                    update.iter_mut().for_each(walk_expr);
                    walk_stmt(body);
                }
                StmtKind::ForEach { iterable, body, .. } => {
                    walk_expr(iterable);
                    walk_stmt(body);
                }
                StmtKind::Return(v) => {
                    if let Some(e) = v {
                        walk_expr(e);
                    }
                }
                StmtKind::Assert { cond, message } => {
                    walk_expr(cond);
                    if let Some(m) = message {
                        walk_expr(m);
                    }
                }
                StmtKind::Synchronized { target, body } => {
                    walk_expr(target);
                    walk_block(body);
                }
                StmtKind::Try { body, catches, finally } => {
                    walk_block(body);
                    for c in catches {
                        walk_block(&mut c.body);
                    }
                    if let Some(f) = finally {
                        walk_block(f);
                    }
                }
                StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
            }
        }
        fn walk_block(b: &mut Block) {
            b.span = crate::span::Span::DUMMY;
            b.stmts.iter_mut().for_each(walk_stmt);
        }
        for imp in &mut u.imports {
            imp.span = crate::span::Span::DUMMY;
        }
        for t in &mut u.types {
            t.span = crate::span::Span::DUMMY;
            for a in &mut t.annotations {
                a.span = crate::span::Span::DUMMY;
            }
            for m in &mut t.members {
                match m {
                    Member::Field(f) => {
                        f.span = crate::span::Span::DUMMY;
                        for a in &mut f.annotations {
                            a.span = crate::span::Span::DUMMY;
                        }
                        if let Some(e) = &mut f.init {
                            walk_expr(e);
                        }
                    }
                    Member::Method(md) => {
                        md.span = crate::span::Span::DUMMY;
                        for a in &mut md.annotations {
                            a.span = crate::span::Span::DUMMY;
                        }
                        for p in &mut md.params {
                            p.span = crate::span::Span::DUMMY;
                            for a in &mut p.annotations {
                                a.span = crate::span::Span::DUMMY;
                            }
                        }
                        if let Some(b) = &mut md.body {
                            walk_block(b);
                        }
                    }
                }
            }
        }
        u
    }

    #[test]
    fn round_trips_figure3() {
        let src = r#"package demo;
import java.util.Iterator;

class Row {
    Collection<Integer> entries;
    Iterator<Integer> createColIter() {
        return entries.iterator();
    }
    void add(int val) { }
}

class App {
    Row copy(Row original) {
        Iterator<Integer> iter = original.createColIter();
        Row result = new Row();
        while (iter.hasNext()) {
            result.add(iter.next());
        }
        return result;
    }
    @Test
    void testParseCSV() {
        Row r1 = parseCSVRow("1,2,3,4");
        int sum = r1.createColIter().next() + r1.createColIter().next();
        assert sum != 5;
    }
}
"#;
        let printed = print_unit(&parse(src).unwrap());
        assert_eq!(normalize(src), normalize(&printed), "printed:\n{printed}");
    }

    #[test]
    fn round_trips_annotations() {
        let src = r#"interface Iterator<T> {
    @Perm(requires = "full(this) in HASNEXT", ensures = "full(this) in ALIVE")
    T next();
    @TrueIndicates("HASNEXT")
    boolean hasNext();
}
"#;
        let printed = print_unit(&parse(src).unwrap());
        assert_eq!(normalize(src), normalize(&printed), "printed:\n{printed}");
    }

    /// Each source prints as the given text, which parses back to the
    /// source's tree. The later rows are the shapes where the grammar
    /// needs more than operator precedence.
    #[test]
    fn parenthesization_preserves_shape() {
        for (src, printed) in [
            ("(1 + 2) * 3", "(1 + 2) * 3"),
            ("-(a + b)", "-(a + b)"),
            ("a - (b - c)", "a - (b - c)"),
            ("(a ? b : c).toString()", "(a ? b : c).toString()"),
            ("!(a && b)", "!(a && b)"),
            ("(a & b) instanceof Integer", "(a & b) instanceof Integer"),
            ("(a == b) instanceof Boolean", "(a == b) instanceof Boolean"),
            ("a < b instanceof Row", "a < b instanceof Row"),
            ("- -a", "-(-a)"),
            ("- --a", "-(--a)"),
            ("-(++a)", "-++a"),
            ("--(-a)", "---a"),
            ("(a ? b : c) ? d : e", "(a ? b : c) ? d : e"),
            ("c ? x : (y = z)", "c ? x : (y = z)"),
            ("c ? (y = z) : x", "c ? y = z : x"),
            ("(a ? b : c) = d", "a ? b : c = d"),
            ("(a = b) = c", "(a = b) = c"),
            ("(T) (-a)", "(T) (-a)"),
            ("(T[]) (++a)", "(T[]) (++a)"),
            ("(T) !a", "(T) !a"),
            ("(int) -a", "(int) -a"),
            ("(int[]) --a", "(int[]) --a"),
            ("(x instanceof A) < b > c", "(x instanceof A) < b > c"),
            ("x instanceof A<B> < b", "x instanceof A<B> < b"),
            ("x instanceof A[] < b", "x instanceof A[] < b"),
        ] {
            let mut e = parse_expr(src).unwrap();
            assert_eq!(print_expr(&e), printed, "printing `{src}`");
            let mut re = parse_expr(printed).unwrap();
            walk_expr(&mut e);
            walk_expr(&mut re);
            assert_eq!(e, re, "`{printed}` does not parse back to `{src}`");
        }
    }

    #[test]
    fn round_trips_try_switch_dowhile() {
        for src in [
            "class C { void m(Stream s) { try { s.read(); } catch (E e) { log(e); } finally { s.close(); } } void log(Object e) {} }",
            "class C { int m(int x) { switch (x) { case 1: return 1; case 2: default: return 2; } } }",
            "class C { void m(Iterator<Integer> it) { do { it.next(); } while (it.hasNext()); } }",
        ] {
            let printed1 = print_unit(&parse(src).unwrap());
            let printed2 = print_unit(&parse(&printed1).unwrap());
            assert_eq!(printed1, printed2, "not a fixpoint for `{src}`");
        }
    }

    #[test]
    fn prints_control_flow_with_braces() {
        // The printer normalizes unbraced bodies to blocks, so exact AST
        // equality does not hold here; instead the printed form must be a
        // fixpoint: print(parse(print(parse(src)))) == print(parse(src)).
        let src = "class C { void m() { if (a) b(); else if (c) d(); while (e) f(); } }";
        let printed1 = print_unit(&parse(src).unwrap());
        let printed2 = print_unit(&parse(&printed1).unwrap());
        assert_eq!(printed1, printed2);
        assert!(printed1.contains("} else if ("));
    }
}
