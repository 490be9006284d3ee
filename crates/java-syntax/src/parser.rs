//! Recursive-descent parser for the Java subset.
//!
//! The grammar covers what the ANEK/PLURAL pipeline and the benchmark corpus
//! need: package/import headers, class and interface declarations with
//! generics, annotations with literal arguments, fields, methods,
//! constructors, structured statements and a conventional
//! precedence-climbing expression grammar.

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind, Result};
use crate::lexer::{char_value, int_value, lex, string_value};
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Maximum nesting depth of recursive constructs (expressions, statements,
/// types). Far above anything a real program reaches; low enough that
/// pathological inputs (`((((…`) fail with [`ParseErrorKind::NestingTooDeep`]
/// instead of overflowing the stack, which would abort the whole process.
/// Each level costs several parser frames (up to ~22 KiB in unoptimized
/// builds, for a nested `if` or call), so the bound must hold inside the
/// 2 MiB stack of a default spawned thread. A debug build with the guard
/// lifted overflows there at 95 nested `if`s, 104 nested blocks, 95 nested
/// calls and 105 nested parentheses.
const MAX_DEPTH: usize = 50;

/// A finished list, its spare capacity released in place. Every list the
/// parser stores in a node ends with capacity equal to its length, so the
/// AST holds no slack: a list grown by doubling keeps up to half its slots
/// empty, and a statement slot is 144 bytes.
fn exact<T>(mut list: Vec<T>) -> Vec<T> {
    list.shrink_to_fit();
    list
}

/// Parses a full compilation unit from source text.
///
/// # Errors
///
/// Returns the first lex or parse error encountered; there is no error
/// recovery (the corpus is machine-generated or hand-maintained, so the
/// first error is the actionable one).
pub fn parse(src: &str) -> Result<CompilationUnit> {
    let tokens = lex(src)?;
    Parser::new(src, tokens).compilation_unit()
}

/// Parses a single expression (used by tests and the spec tooling).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(src, tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The parser reads tokens by reference and copies nothing out of them:
/// an identifier or literal is allocated once, from its source text, by
/// the AST node that keeps it.
struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    next_expr_id: u32,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, tokens: Vec<Token>) -> Parser<'a> {
        Parser { src, tokens, pos: 0, next_expr_id: 0, depth: 0 }
    }

    /// Enters one level of recursion; errors out past [`MAX_DEPTH`]. The
    /// recursion hubs (`stmt`, `unary`, `type_ref`) are thin wrappers that
    /// call this on entry and [`Parser::ascend`] on every exit path — all
    /// deep nesting (blocks, parenthesized expressions, generic types)
    /// passes through one of them per level.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::with_kind(
                format!("construct nested deeper than {MAX_DEPTH} levels"),
                self.peek().span,
                ParseErrorKind::NestingTooDeep,
            ));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn fresh_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr_id);
        self.next_expr_id += 1;
        id
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    /// Steps over the current token (never past the end of input) and
    /// returns its span.
    fn bump(&mut self) -> Span {
        let span = self.peek().span;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        span
    }

    /// The source text of the current token.
    fn peek_text(&self) -> &'a str {
        self.peek().text(self.src)
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_keyword(&self, kw: Keyword) -> bool {
        self.peek().is_keyword(kw)
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Span> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{kind}`")))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<Span> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        if self.at(TokenKind::Ident) {
            let name = self.peek_text().to_string();
            Ok((name, self.bump()))
        } else {
            Err(self.unexpected("identifier"))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at(TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        let kind = if self.at(TokenKind::Eof) {
            ParseErrorKind::UnexpectedEof
        } else {
            ParseErrorKind::Syntax
        };
        let token = *self.peek();
        let found = match (token.kind.fixed_text(), self.literal(token)) {
            (Some(text), _) => text.to_string(),
            (None, Some(Lit::Str(s))) => format!("{s:?}"),
            (None, Some(Lit::Char(c))) => format!("'{c}'"),
            (None, Some(lit)) => lit.to_string(),
            (None, None) if token.kind == TokenKind::Eof => "<eof>".to_string(),
            (None, None) => token.text(self.src).to_string(),
        };
        ParseError::with_kind(format!("expected {wanted}, found `{found}`"), token.span, kind)
    }

    /// The value of a literal token, allocated once from its source text;
    /// `None` for `null` and every non-literal token.
    fn literal(&self, token: Token) -> Option<Lit> {
        let text = token.text(self.src);
        Some(match token.kind {
            TokenKind::IntLit => Lit::Int(int_value(text).expect("the lexer checked the range")),
            TokenKind::DoubleLit => Lit::Double(text.to_string()),
            TokenKind::StringLit => Lit::Str(string_value(text)),
            TokenKind::CharLit => Lit::Char(char_value(text)),
            TokenKind::BoolLit(b) => Lit::Bool(b),
            _ => return None,
        })
    }

    // ===================== Lists =====================

    /// `first` and the items `item` parses for as long as `more` holds, in
    /// a list with no spare capacity. A list of one or two items, as most
    /// of a program's are, is allocated at its size; a longer list grows
    /// as usual and hands its slack back once, in place.
    fn list<T>(
        &mut self,
        first: T,
        mut more: impl FnMut(&mut Self) -> bool,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        if !more(self) {
            return Ok(vec![first]);
        }
        let second = item(self)?;
        if !more(self) {
            return Ok(vec![first, second]);
        }
        let mut list = Vec::with_capacity(4);
        list.extend([first, second]);
        loop {
            list.push(item(self)?);
            if !more(self) {
                return Ok(exact(list));
            }
        }
    }

    /// The items `item` parses until `end` holds, possibly none.
    fn until<T>(
        &mut self,
        end: impl Fn(&Self) -> bool,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        if end(self) {
            return Ok(Vec::new());
        }
        let first = item(self)?;
        self.list(first, |p| !end(p), item)
    }

    /// One or more items `item` parses, separated by commas.
    fn comma_separated<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let first = item(self)?;
        self.list(first, |p| p.eat(TokenKind::Comma), item)
    }

    // ===================== Top level =====================

    fn compilation_unit(&mut self) -> Result<CompilationUnit> {
        let mut package = None;
        if self.at_keyword(Keyword::Package) {
            self.bump();
            package = Some(self.qualified_name()?);
            self.expect(TokenKind::Semi)?;
        }
        let imports = self.until(|p| !p.at_keyword(Keyword::Import), Parser::import)?;
        let types = self.until(|p| p.at(TokenKind::Eof), Parser::type_decl)?;
        Ok(CompilationUnit { package, imports, types })
    }

    fn import(&mut self) -> Result<Import> {
        let start = self.bump();
        let is_static = self.eat_keyword(Keyword::Static);
        let mut segments = vec![self.expect_ident()?.0];
        let mut wildcard = false;
        while self.eat(TokenKind::Dot) {
            if self.eat(TokenKind::Star) {
                wildcard = true;
                break;
            }
            segments.push(self.expect_ident()?.0);
        }
        let end = self.expect(TokenKind::Semi)?;
        Ok(Import {
            path: QualifiedName(exact(segments)),
            is_static,
            wildcard,
            span: start.to(end),
        })
    }

    fn qualified_name(&mut self) -> Result<QualifiedName> {
        let mut segments = vec![self.expect_ident()?.0];
        while self.at(TokenKind::Dot) && self.peek_at(1).kind == TokenKind::Ident {
            self.bump();
            segments.push(self.expect_ident()?.0);
        }
        Ok(QualifiedName(exact(segments)))
    }

    fn annotations(&mut self) -> Result<Vec<Annotation>> {
        self.until(|p| !p.at(TokenKind::At), Parser::annotation)
    }

    fn annotation(&mut self) -> Result<Annotation> {
        let start = self.bump();
        let name = self.qualified_name()?;
        let args = if self.eat(TokenKind::LParen) {
            if self.eat(TokenKind::RParen) {
                AnnotationArgs::None
            } else if self.at(TokenKind::Ident) && self.peek_at(1).kind == TokenKind::Assign {
                let pairs = self.comma_separated(|p| {
                    let (key, _) = p.expect_ident()?;
                    p.expect(TokenKind::Assign)?;
                    Ok((key, p.annotation_literal()?))
                })?;
                self.expect(TokenKind::RParen)?;
                AnnotationArgs::Pairs(pairs)
            } else {
                let lit = self.annotation_literal()?;
                self.expect(TokenKind::RParen)?;
                AnnotationArgs::Single(lit)
            }
        } else {
            AnnotationArgs::None
        };
        Ok(Annotation { name, args, span: start.to(self.prev_span()) })
    }

    fn annotation_literal(&mut self) -> Result<Lit> {
        match self.literal(*self.peek()) {
            Some(lit) => {
                self.bump();
                Ok(lit)
            }
            None => Err(self.unexpected("annotation literal")),
        }
    }

    fn modifiers(&mut self) -> Modifiers {
        let mut m = Modifiers::default();
        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Public) => m.public = true,
                TokenKind::Keyword(Keyword::Private) => m.private = true,
                TokenKind::Keyword(Keyword::Protected) => m.protected = true,
                TokenKind::Keyword(Keyword::Static) => m.is_static = true,
                TokenKind::Keyword(Keyword::Final) => m.is_final = true,
                TokenKind::Keyword(Keyword::Abstract) => m.is_abstract = true,
                TokenKind::Keyword(Keyword::Synchronized) => m.is_synchronized = true,
                TokenKind::Keyword(Keyword::Native)
                | TokenKind::Keyword(Keyword::Transient)
                | TokenKind::Keyword(Keyword::Volatile) => m.other = true,
                _ => return m,
            }
            self.bump();
        }
    }

    fn type_decl(&mut self) -> Result<TypeDecl> {
        let annotations = self.annotations()?;
        let start = self.peek().span;
        let modifiers = self.modifiers();
        let kind = if self.eat_keyword(Keyword::Class) {
            TypeKind::Class
        } else if self.eat_keyword(Keyword::Interface) {
            TypeKind::Interface
        } else {
            return Err(self.unexpected("`class` or `interface`"));
        };
        let (name, _) = self.expect_ident()?;
        let type_params = self.opt_type_params()?;
        let extends = self.opt_type_list(Keyword::Extends)?;
        let implements = self.opt_type_list(Keyword::Implements)?;
        self.expect(TokenKind::LBrace)?;
        let members =
            self.until(|p| p.at(TokenKind::RBrace) || p.at(TokenKind::Eof), |p| p.member(&name))?;
        let end = self.expect(TokenKind::RBrace)?;
        Ok(TypeDecl {
            annotations,
            modifiers,
            kind,
            name,
            type_params,
            extends,
            implements,
            members,
            span: start.to(end),
        })
    }

    /// `kw T, U, ...` if `kw` comes next, else no types.
    fn opt_type_list(&mut self, kw: Keyword) -> Result<Vec<TypeRef>> {
        if self.eat_keyword(kw) {
            self.comma_separated(Parser::type_ref)
        } else {
            Ok(Vec::new())
        }
    }

    fn opt_type_params(&mut self) -> Result<Vec<String>> {
        if !self.eat(TokenKind::Lt) {
            return Ok(Vec::new());
        }
        let params = self.comma_separated(|p| {
            let (name, _) = p.expect_ident()?;
            // Erase bounds: `T extends Foo & Bar`.
            if p.eat_keyword(Keyword::Extends) {
                p.type_ref()?;
                while p.eat(TokenKind::Amp) {
                    p.type_ref()?;
                }
            }
            Ok(name)
        })?;
        self.expect(TokenKind::Gt)?;
        Ok(params)
    }

    fn member(&mut self, class_name: &str) -> Result<Member> {
        let annotations = self.annotations()?;
        let start = self.peek().span;
        let modifiers = self.modifiers();
        let type_params = self.opt_type_params()?;

        // Constructor: `Name (` where Name == class name.
        if self.at(TokenKind::Ident)
            && self.peek_text() == class_name
            && self.peek_at(1).kind == TokenKind::LParen
        {
            let (name, _) = self.expect_ident()?;
            return self.finish_method(annotations, modifiers, type_params, None, name, start);
        }

        let ty = self.return_type()?;
        let (name, _) = self.expect_ident()?;
        if self.at(TokenKind::LParen) {
            let return_type = Some(ty);
            self.finish_method(annotations, modifiers, type_params, return_type, name, start)
        } else {
            // Field declaration; possibly multiple declarators.
            if !type_params.is_empty() {
                return Err(ParseError::new("type parameters on a field", start));
            }
            let init = if self.eat(TokenKind::Assign) { Some(self.expr()?) } else { None };
            // The subset keeps one declarator per FieldDecl and rejects the
            // others, after parsing them so that an error inside one of
            // them is the one reported.
            let mut declarators = 1;
            while self.eat(TokenKind::Comma) {
                self.expect_ident()?;
                if self.eat(TokenKind::Assign) {
                    self.expr()?;
                }
                declarators += 1;
            }
            let end = self.expect(TokenKind::Semi)?;
            if declarators > 1 {
                return Err(ParseError::new(
                    "multiple declarators per field declaration are not supported; split them",
                    start.to(end),
                ));
            }
            let span = start.to(end);
            Ok(Member::Field(FieldDecl { annotations, modifiers, ty, name, init, span }))
        }
    }

    fn return_type(&mut self) -> Result<TypeRef> {
        if self.eat_keyword(Keyword::Void) {
            let mut t = TypeRef::Void;
            while self.at(TokenKind::LBracket) {
                // `void[]` is illegal; let the type checker complain, parse defensively.
                self.bump();
                self.expect(TokenKind::RBracket)?;
                t = TypeRef::Array(Box::new(t));
            }
            Ok(t)
        } else {
            self.type_ref()
        }
    }

    fn finish_method(
        &mut self,
        annotations: Vec<Annotation>,
        modifiers: Modifiers,
        type_params: Vec<String>,
        return_type: Option<TypeRef>,
        name: String,
        start: Span,
    ) -> Result<Member> {
        self.expect(TokenKind::LParen)?;
        let params = if self.at(TokenKind::RParen) {
            Vec::new()
        } else {
            self.comma_separated(Parser::param)?
        };
        self.expect(TokenKind::RParen)?;
        let throws = self.opt_type_list(Keyword::Throws)?;
        let (body, end) = if self.at(TokenKind::LBrace) {
            let b = self.block()?;
            let sp = b.span;
            (Some(b), sp)
        } else {
            let sp = self.expect(TokenKind::Semi)?;
            (None, sp)
        };
        Ok(Member::Method(MethodDecl {
            annotations,
            modifiers,
            type_params,
            return_type,
            name,
            params,
            throws,
            body,
            span: start.to(end),
        }))
    }

    fn param(&mut self) -> Result<Param> {
        let annotations = self.annotations()?;
        let start = self.peek().span;
        let is_final = self.eat_keyword(Keyword::Final);
        let ty = self.type_ref()?;
        let (name, end) = self.expect_ident()?;
        Ok(Param { annotations, is_final, ty, name, span: start.to(end) })
    }

    // ===================== Types =====================

    fn type_ref(&mut self) -> Result<TypeRef> {
        self.descend()?;
        let r = self.type_ref_inner();
        self.ascend();
        r
    }

    fn type_ref_inner(&mut self) -> Result<TypeRef> {
        let mut base = match self.peek_kind() {
            TokenKind::Keyword(kw) => {
                let prim = match kw {
                    Keyword::Boolean => Some(PrimitiveType::Boolean),
                    Keyword::Byte => Some(PrimitiveType::Byte),
                    Keyword::Short => Some(PrimitiveType::Short),
                    Keyword::Int => Some(PrimitiveType::Int),
                    Keyword::Long => Some(PrimitiveType::Long),
                    Keyword::Char => Some(PrimitiveType::Char),
                    Keyword::Float => Some(PrimitiveType::Float),
                    Keyword::Double => Some(PrimitiveType::Double),
                    _ => None,
                };
                match prim {
                    Some(p) => {
                        self.bump();
                        TypeRef::Primitive(p)
                    }
                    None => return Err(self.unexpected("type")),
                }
            }
            TokenKind::Question => {
                self.bump();
                // `? extends T` / `? super T` — erase the bound.
                if self.eat_keyword(Keyword::Extends) || self.eat_keyword(Keyword::Super) {
                    self.type_ref()?;
                }
                TypeRef::Wildcard
            }
            TokenKind::Ident => {
                let name = self.qualified_name()?;
                let args = if self.at(TokenKind::Lt) && self.generic_args_follow() {
                    self.type_args()?
                } else {
                    Vec::new()
                };
                TypeRef::Named { name, args }
            }
            _ => return Err(self.unexpected("type")),
        };
        while self.at(TokenKind::LBracket) && self.peek_at(1).kind == TokenKind::RBracket {
            self.bump();
            self.bump();
            base = TypeRef::Array(Box::new(base));
        }
        Ok(base)
    }

    /// Lookahead to distinguish `a < b` (comparison) from `A<B>` (generics).
    /// Scans forward from a `<` for a balanced argument list containing only
    /// type-ish tokens.
    fn generic_args_follow(&self) -> bool {
        debug_assert!(self.at(TokenKind::Lt));
        let mut depth = 0usize;
        let mut i = 0usize;
        loop {
            let t = &self.peek_at(i).kind;
            match t {
                TokenKind::Lt => depth += 1,
                TokenKind::Gt => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                TokenKind::Ident
                | TokenKind::Dot
                | TokenKind::Comma
                | TokenKind::Question
                | TokenKind::LBracket
                | TokenKind::RBracket
                | TokenKind::Keyword(Keyword::Extends)
                | TokenKind::Keyword(Keyword::Super)
                | TokenKind::Keyword(Keyword::Boolean)
                | TokenKind::Keyword(Keyword::Byte)
                | TokenKind::Keyword(Keyword::Short)
                | TokenKind::Keyword(Keyword::Int)
                | TokenKind::Keyword(Keyword::Long)
                | TokenKind::Keyword(Keyword::Char)
                | TokenKind::Keyword(Keyword::Float)
                | TokenKind::Keyword(Keyword::Double) => {}
                _ => return false,
            }
            i += 1;
            if i > 64 {
                return false;
            }
        }
    }

    fn type_args(&mut self) -> Result<Vec<TypeRef>> {
        self.expect(TokenKind::Lt)?;
        let args = if self.at(TokenKind::Gt) {
            Vec::new()
        } else {
            self.comma_separated(Parser::type_ref)?
        };
        self.expect(TokenKind::Gt)?;
        Ok(args)
    }

    // ===================== Statements =====================

    fn block(&mut self) -> Result<Block> {
        let start = self.expect(TokenKind::LBrace)?;
        let stmts =
            self.until(|p| p.at(TokenKind::RBrace) || p.at(TokenKind::Eof), Parser::stmt)?;
        let end = self.expect(TokenKind::RBrace)?;
        Ok(Block { stmts, span: start.to(end) })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.descend()?;
        let r = self.stmt_inner();
        self.ascend();
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::LBrace => {
                let b = self.block()?;
                let span = b.span;
                Ok(Stmt { kind: StmtKind::Block(b), span })
            }
            TokenKind::Semi => {
                let span = self.bump();
                Ok(Stmt { kind: StmtKind::Empty, span })
            }
            TokenKind::Keyword(Keyword::If) => self.if_stmt(start),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(start),
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect_keyword(Keyword::While)?;
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::DoWhile { body, cond }, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let scrutinee = Box::new(self.expr()?);
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::LBrace)?;
                let cases = self.until(
                    |p| p.at(TokenKind::RBrace) || p.at(TokenKind::Eof),
                    Parser::switch_case,
                )?;
                let end = self.expect(TokenKind::RBrace)?;
                Ok(Stmt { kind: StmtKind::Switch { scrutinee, cases }, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::For) => self.for_stmt(start),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.at(TokenKind::Semi) { None } else { Some(self.expr()?) };
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::Return(value), span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Assert) => {
                self.bump();
                let cond = Box::new(self.expr()?);
                let message =
                    if self.eat(TokenKind::Colon) { Some(Box::new(self.expr()?)) } else { None };
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::Assert { cond, message }, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Synchronized) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let target = Box::new(self.expr()?);
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                let span = start.to(body.span);
                Ok(Stmt { kind: StmtKind::Synchronized { target, body }, span })
            }
            TokenKind::Keyword(Keyword::Try) => {
                self.bump();
                let body = self.block()?;
                let catches =
                    self.until(|p| !p.at_keyword(Keyword::Catch), Parser::catch_clause)?;
                let finally = if self.eat_keyword(Keyword::Finally) {
                    Some(Box::new(self.block()?))
                } else {
                    None
                };
                let end = finally
                    .as_ref()
                    .map(|b| b.span)
                    .or_else(|| catches.last().map(|c| c.body.span))
                    .unwrap_or(body.span);
                Ok(Stmt { kind: StmtKind::Try { body, catches, finally }, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Throw) => {
                self.bump();
                let e = self.expr()?;
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::Throw(e), span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::Break, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?;
                Ok(Stmt { kind: StmtKind::Continue, span: start.to(end) })
            }
            TokenKind::Keyword(Keyword::Final) => self.local_var_stmt(start),
            _ => {
                if self.local_var_decl_follows() {
                    self.local_var_stmt(start)
                } else {
                    let e = self.expr()?;
                    let end = self.expect(TokenKind::Semi)?;
                    Ok(Stmt { kind: StmtKind::Expr(e), span: start.to(end) })
                }
            }
        }
    }

    /// One `case`/`default` group: its labels and the statements up to the
    /// next label.
    fn switch_case(&mut self) -> Result<SwitchCase> {
        let is_label = |p: &Self| p.at_keyword(Keyword::Case) || p.at_keyword(Keyword::Default);
        let labels = self.until(
            |p| !is_label(p),
            |p| {
                // Called at `case` or `default`.
                let label = if p.eat_keyword(Keyword::Case) {
                    Some(p.expr()?)
                } else {
                    p.bump();
                    None
                };
                p.expect(TokenKind::Colon)?;
                Ok(label)
            },
        )?;
        if labels.is_empty() {
            return Err(self.unexpected("`case` or `default`"));
        }
        let body = self.until(
            |p| p.at(TokenKind::RBrace) || is_label(p) || p.at(TokenKind::Eof),
            Parser::stmt,
        )?;
        Ok(SwitchCase { labels, body })
    }

    fn catch_clause(&mut self) -> Result<CatchClause> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(CatchClause { ty, name, body })
    }

    fn if_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect_keyword(Keyword::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let (else_branch, end) = if self.eat_keyword(Keyword::Else) {
            let e = self.stmt()?;
            let sp = e.span;
            (Some(Box::new(e)), sp)
        } else {
            (None, then_branch.span)
        };
        Ok(Stmt { kind: StmtKind::If { cond, then_branch, else_branch }, span: start.to(end) })
    }

    fn while_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect_keyword(Keyword::While)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = start.to(body.span);
        Ok(Stmt { kind: StmtKind::While { cond, body }, span })
    }

    fn for_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect_keyword(Keyword::For)?;
        self.expect(TokenKind::LParen)?;

        // A local declaration either is a for-each's `Type name :` or
        // starts a classic for's initializer.
        let init = if self.local_var_decl_follows() || self.at_keyword(Keyword::Final) {
            let i_start = self.peek().span;
            self.eat_keyword(Keyword::Final);
            let ty = self.type_ref()?;
            let (name, name_span) = self.expect_ident()?;
            if self.eat(TokenKind::Colon) {
                let iterable = Box::new(self.expr()?);
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                let span = start.to(body.span);
                return Ok(Stmt { kind: StmtKind::ForEach { ty, name, iterable, body }, span });
            }
            vec![self.local_var_init(i_start, ty, name, name_span)?]
        } else if self.at(TokenKind::Semi) {
            Vec::new()
        } else {
            self.comma_separated(|p| {
                let e = p.expr()?;
                let span = e.span;
                Ok(Stmt { kind: StmtKind::Expr(e), span })
            })?
        };
        self.expect(TokenKind::Semi)?;
        let cond = if self.at(TokenKind::Semi) { None } else { Some(Box::new(self.expr()?)) };
        self.expect(TokenKind::Semi)?;
        let update = if self.at(TokenKind::RParen) {
            Vec::new()
        } else {
            self.comma_separated(Parser::expr)?
        };
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = start.to(body.span);
        Ok(Stmt { kind: StmtKind::For { init, cond, update, body }, span })
    }

    fn local_var_stmt(&mut self, start: Span) -> Result<Stmt> {
        let mut s = self.local_var_no_semi(start)?;
        let end = self.expect(TokenKind::Semi)?;
        s.span = s.span.to(end);
        Ok(s)
    }

    fn local_var_no_semi(&mut self, start: Span) -> Result<Stmt> {
        self.eat_keyword(Keyword::Final);
        let ty = self.type_ref()?;
        let (name, end) = self.expect_ident()?;
        self.local_var_init(start, ty, name, end)
    }

    /// The optional `= init` of a local declaration whose type and name
    /// (ending at `end`) are parsed.
    fn local_var_init(
        &mut self,
        start: Span,
        ty: TypeRef,
        name: String,
        mut end: Span,
    ) -> Result<Stmt> {
        let init = if self.eat(TokenKind::Assign) {
            let e = self.expr()?;
            end = e.span;
            Some(Box::new(e))
        } else {
            None
        };
        Ok(Stmt { kind: StmtKind::LocalVar { ty, name, init }, span: start.to(end) })
    }

    /// Heuristic lookahead: does a local variable declaration start here?
    /// True for `PrimType ...`, and for `Ident ... Ident` shapes like
    /// `Row r`, `Iterator<Integer> it`, `a.b.C x`, `int[] xs`.
    fn local_var_decl_follows(&self) -> bool {
        match self.peek_kind() {
            TokenKind::Keyword(
                Keyword::Boolean
                | Keyword::Byte
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Char
                | Keyword::Float
                | Keyword::Double,
            ) => true,
            TokenKind::Ident => {
                // Scan over a qualified, possibly generic, possibly array type
                // and check the next token is an identifier.
                let mut i = 1;
                while let (TokenKind::Dot, TokenKind::Ident) =
                    (&self.peek_at(i).kind, &self.peek_at(i + 1).kind)
                {
                    i += 2;
                }
                // Generic arguments.
                if self.peek_at(i).kind == TokenKind::Lt {
                    let mut depth = 0usize;
                    loop {
                        match &self.peek_at(i).kind {
                            TokenKind::Lt => depth += 1,
                            TokenKind::Gt => {
                                depth -= 1;
                                i += 1;
                                if depth == 0 {
                                    break;
                                }
                                continue;
                            }
                            TokenKind::Ident
                            | TokenKind::Dot
                            | TokenKind::Comma
                            | TokenKind::Question
                            | TokenKind::LBracket
                            | TokenKind::RBracket
                            | TokenKind::Keyword(_) => {}
                            _ => return false,
                        }
                        i += 1;
                        if i > 64 {
                            return false;
                        }
                    }
                }
                // Array brackets.
                while self.peek_at(i).kind == TokenKind::LBracket
                    && self.peek_at(i + 1).kind == TokenKind::RBracket
                {
                    i += 2;
                }
                self.peek_at(i).kind == TokenKind::Ident
            }
            _ => false,
        }
    }

    // ===================== Expressions =====================

    fn expr(&mut self) -> Result<Expr> {
        self.assignment()
    }

    fn mk(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span, id: self.fresh_id() }
    }

    // Each level of the expression grammar hands its operand's `Result` back
    // unopened when none of its operators follows, which is the common case:
    // unwrapping and rewrapping would copy the `Expr` at every level.

    fn assignment(&mut self) -> Result<Expr> {
        let lhs = self.conditional();
        let op = match self.peek_kind() {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusAssign => AssignOp::AddAssign,
            TokenKind::MinusAssign => AssignOp::SubAssign,
            _ => return lhs,
        };
        let lhs = lhs?;
        self.bump();
        let rhs = self.assignment()?;
        let span = lhs.span.to(rhs.span);
        Ok(self.mk(ExprKind::Assign { lhs: Box::new(lhs), op, rhs: Box::new(rhs) }, span))
    }

    fn conditional(&mut self) -> Result<Expr> {
        let cond = self.binary(0);
        if cond.is_err() || !self.at(TokenKind::Question) {
            return cond;
        }
        let cond = cond?;
        self.bump();
        let then_expr = self.expr()?;
        self.expect(TokenKind::Colon)?;
        let else_expr = self.conditional()?;
        let span = cond.span.to(else_expr.span);
        Ok(self.mk(
            ExprKind::Conditional {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            },
            span,
        ))
    }

    fn binary_op(&self) -> Option<BinaryOp> {
        use BinaryOp::*;
        Some(match self.peek_kind() {
            TokenKind::OrOr => Or,
            TokenKind::AndAnd => And,
            TokenKind::Pipe => BitOr,
            TokenKind::Caret => BitXor,
            TokenKind::Amp => BitAnd,
            TokenKind::EqEq => Eq,
            TokenKind::NotEq => Ne,
            TokenKind::Lt => Lt,
            TokenKind::Le => Le,
            TokenKind::Gt => Gt,
            TokenKind::Ge => Ge,
            TokenKind::Plus => Add,
            TokenKind::Minus => Sub,
            TokenKind::Star => Mul,
            TokenKind::Slash => Div,
            TokenKind::Percent => Rem,
            _ => return None,
        })
    }

    /// Whether an operator binding at least as tightly as `min_prec`
    /// follows. `instanceof` sits at relational precedence. `<` is always
    /// less-than here: the expression grammar never opens generic
    /// arguments.
    fn binary_follows(&self, min_prec: u8) -> bool {
        (min_prec <= BinaryOp::Lt.precedence() && self.at_keyword(Keyword::Instanceof))
            || self.binary_op().is_some_and(|op| op.precedence() >= min_prec)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr> {
        let first = self.unary();
        if first.is_err() || !self.binary_follows(min_prec) {
            return first;
        }
        let mut lhs = first?;
        while self.binary_follows(min_prec) {
            if self.eat_keyword(Keyword::Instanceof) {
                let ty = Box::new(self.type_ref()?);
                let span = lhs.span.to(self.prev_span());
                lhs = self.mk(ExprKind::InstanceOf { expr: Box::new(lhs), ty }, span);
                continue;
            }
            let op = self.binary_op().expect("binary_follows saw an operator");
            self.bump();
            let rhs = self.binary(op.precedence() + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        self.descend()?;
        let r = self.unary_inner();
        self.ascend();
        r
    }

    fn unary_inner(&mut self) -> Result<Expr> {
        let start = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Bang => Some(UnaryOp::Not),
            TokenKind::PlusPlus => Some(UnaryOp::PreInc),
            TokenKind::MinusMinus => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            let span = start.to(e.span);
            return Ok(self.mk(ExprKind::Unary { op, expr: Box::new(e) }, span));
        }
        // Cast: `(Type) unary` — lookahead for `(Type)` followed by a
        // cast-able token.
        if self.at(TokenKind::LParen) && self.cast_follows() {
            self.bump();
            let ty = Box::new(self.type_ref()?);
            self.expect(TokenKind::RParen)?;
            let e = self.unary()?;
            let span = start.to(e.span);
            return Ok(self.mk(ExprKind::Cast { ty, expr: Box::new(e) }, span));
        }
        self.postfix()
    }

    /// Lookahead for a cast expression `(T) e`.
    fn cast_follows(&self) -> bool {
        debug_assert!(self.at(TokenKind::LParen));
        // Primitive cast is unambiguous.
        if matches!(
            self.peek_at(1).kind,
            TokenKind::Keyword(
                Keyword::Boolean
                    | Keyword::Byte
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Char
                    | Keyword::Float
                    | Keyword::Double
            )
        ) {
            return true;
        }
        // `(Ident...)` followed by an expression-start token that cannot
        // continue a parenthesized expression: identifier, literal, `(`,
        // `this`, `new`, `!`.
        let mut i = 1;
        if self.peek_at(i).kind != TokenKind::Ident {
            return false;
        }
        i += 1;
        loop {
            match &self.peek_at(i).kind {
                TokenKind::Dot if self.peek_at(i + 1).kind == TokenKind::Ident => {
                    i += 2;
                }
                _ => break,
            }
        }
        if self.peek_at(i).kind == TokenKind::Lt {
            let mut depth = 0usize;
            loop {
                match &self.peek_at(i).kind {
                    TokenKind::Lt => depth += 1,
                    TokenKind::Gt => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            break;
                        }
                        continue;
                    }
                    TokenKind::Ident
                    | TokenKind::Dot
                    | TokenKind::Comma
                    | TokenKind::Question
                    | TokenKind::Keyword(_) => {}
                    // An array type argument, `List<int[]>`.
                    TokenKind::LBracket if self.peek_at(i + 1).kind == TokenKind::RBracket => {
                        i += 1;
                    }
                    _ => return false,
                }
                i += 1;
                if i > 64 {
                    return false;
                }
            }
        }
        while self.peek_at(i).kind == TokenKind::LBracket
            && self.peek_at(i + 1).kind == TokenKind::RBracket
        {
            i += 2;
        }
        if self.peek_at(i).kind != TokenKind::RParen {
            return false;
        }
        matches!(
            self.peek_at(i + 1).kind,
            TokenKind::Ident
                | TokenKind::IntLit
                | TokenKind::DoubleLit
                | TokenKind::StringLit
                | TokenKind::CharLit
                | TokenKind::BoolLit(_)
                | TokenKind::Null
                | TokenKind::LParen
                | TokenKind::Keyword(Keyword::This)
                | TokenKind::Keyword(Keyword::New)
                | TokenKind::Bang
        )
    }

    fn postfix(&mut self) -> Result<Expr> {
        let first = self.primary();
        let postfix_follows = matches!(
            self.peek_kind(),
            TokenKind::Dot | TokenKind::LBracket | TokenKind::PlusPlus | TokenKind::MinusMinus
        );
        if first.is_err() || !postfix_follows {
            return first;
        }
        let mut e = first?;
        loop {
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.bump();
                    // Optional explicit type arguments on calls: `.<T>m(...)`.
                    if self.at(TokenKind::Lt) && self.generic_args_follow() {
                        self.type_args()?;
                    }
                    let (name, name_span) = self.expect_ident()?;
                    if self.at(TokenKind::LParen) {
                        let args = self.call_args()?;
                        let span = e.span.to(self.prev_span());
                        e = self
                            .mk(ExprKind::Call { receiver: Some(Box::new(e)), name, args }, span);
                    } else {
                        let span = e.span.to(name_span);
                        e = self.mk(ExprKind::FieldAccess { receiver: Box::new(e), name }, span);
                    }
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    e = self.mk(
                        ExprKind::ArrayAccess { array: Box::new(e), index: Box::new(index) },
                        span,
                    );
                }
                TokenKind::PlusPlus => {
                    self.bump();
                    let span = e.span.to(self.prev_span());
                    e = self.mk(ExprKind::Postfix { inc: true, expr: Box::new(e) }, span);
                }
                TokenKind::MinusMinus => {
                    self.bump();
                    let span = e.span.to(self.prev_span());
                    e = self.mk(ExprKind::Postfix { inc: false, expr: Box::new(e) }, span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(TokenKind::LParen)?;
        let args = if self.at(TokenKind::RParen) {
            Vec::new()
        } else {
            self.comma_separated(Parser::expr)?
        };
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr> {
        let token = *self.peek();
        let start = token.span;
        if let Some(lit) = self.literal(token) {
            self.bump();
            return Ok(self.mk(ExprKind::Literal(lit), start));
        }
        match token.kind {
            TokenKind::Null => {
                self.bump();
                Ok(self.mk(ExprKind::Literal(Lit::Null), start))
            }
            TokenKind::Keyword(Keyword::This) => {
                self.bump();
                Ok(self.mk(ExprKind::This, start))
            }
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                let ty = Box::new(self.type_ref()?);
                let args = self.call_args()?;
                let span = start.to(self.prev_span());
                Ok(self.mk(ExprKind::New { ty, args }, span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident => {
                let name = token.text(self.src).to_string();
                self.bump();
                if self.at(TokenKind::LParen) {
                    let args = self.call_args()?;
                    let span = start.to(self.prev_span());
                    Ok(self.mk(ExprKind::Call { receiver: None, name, args }, span))
                } else {
                    Ok(self.mk(ExprKind::Name(name), start))
                }
            }
            _ => Err(self.unexpected("expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_class(src: &str) -> TypeDecl {
        let unit = parse(src).unwrap();
        assert_eq!(unit.types.len(), 1);
        unit.types.into_iter().next().unwrap()
    }

    #[test]
    fn parses_package_and_imports() {
        let unit = parse(
            "package com.example.app;\nimport java.util.Iterator;\nimport java.util.*;\nclass A {}",
        )
        .unwrap();
        assert_eq!(unit.package.as_ref().unwrap().to_string(), "com.example.app");
        assert_eq!(unit.imports.len(), 2);
        assert!(!unit.imports[0].wildcard);
        assert!(unit.imports[1].wildcard);
    }

    #[test]
    fn parses_interface_with_annotated_methods() {
        let t = one_class(
            r#"interface Iterator<T> {
                @Perm(requires="full(this) in HASNEXT", ensures="full(this) in ALIVE")
                T next();
                @Perm(requires="pure(this) in ALIVE", ensures="pure(this)")
                @TrueIndicates("HASNEXT")
                @FalseIndicates("END")
                boolean hasNext();
            }"#,
        );
        assert_eq!(t.kind, TypeKind::Interface);
        assert_eq!(t.type_params, vec!["T"]);
        let next = t.method_named("next").unwrap();
        assert_eq!(
            next.annotation("Perm").unwrap().string_element("requires"),
            Some("full(this) in HASNEXT")
        );
        assert!(next.body.is_none());
        let has_next = t.method_named("hasNext").unwrap();
        assert_eq!(has_next.annotation("TrueIndicates").unwrap().single_string(), Some("HASNEXT"));
    }

    #[test]
    fn parses_figure3_row_class() {
        let t = one_class(
            r#"class Row {
                Collection<Integer> entries;
                Iterator<Integer> createColIter() {
                    return entries.iterator();
                }
                void add(int val) {}
            }"#,
        );
        assert_eq!(t.fields().count(), 1);
        assert_eq!(t.methods().count(), 2);
        let m = t.method_named("createColIter").unwrap();
        let body = m.body.as_ref().unwrap();
        assert!(matches!(body.stmts[0].kind, StmtKind::Return(Some(_))));
    }

    #[test]
    fn parses_while_loop_with_calls() {
        let t = one_class(
            r#"class C {
                Row copy(Row original) {
                    Iterator<Integer> iter = original.createColIter();
                    Row result = new Row();
                    while (iter.hasNext()) {
                        result.add(iter.next());
                    }
                    return result;
                }
            }"#,
        );
        let m = t.method_named("copy").unwrap();
        let body = m.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
        assert!(matches!(&body.stmts[2].kind, StmtKind::While { .. }));
    }

    #[test]
    fn parses_constructor() {
        let t = one_class("class Row { Row() { } Row(int n) { } }");
        let ctors: Vec<_> = t.methods().filter(|m| m.is_constructor()).collect();
        assert_eq!(ctors.len(), 2);
        assert_eq!(ctors[1].params.len(), 1);
    }

    #[test]
    fn distinguishes_generics_from_comparison() {
        let t = one_class(
            "class C { void m() { int a = 1; int b = 2; boolean x = a < b; Iterator<Integer> it = null; } }",
        );
        let m = t.method_named("m").unwrap();
        assert_eq!(m.body.as_ref().unwrap().stmts.len(), 4);
    }

    #[test]
    fn parses_chained_calls_and_field_access() {
        let e = parse_expr("r1.createColIter().next()").unwrap();
        match &e.kind {
            ExprKind::Call { receiver: Some(r), name, .. } => {
                assert_eq!(name, "next");
                assert!(matches!(&r.kind, ExprKind::Call { name, .. } if name == "createColIter"));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn precedence_is_conventional() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // (((1 + (2*3)) == 7) && true)
        match &e.kind {
            ExprKind::Binary { op: BinaryOp::And, lhs, .. } => match &lhs.kind {
                ExprKind::Binary { op: BinaryOp::Eq, lhs, .. } => match &lhs.kind {
                    ExprKind::Binary { op: BinaryOp::Add, rhs, .. } => {
                        assert!(matches!(&rhs.kind, ExprKind::Binary { op: BinaryOp::Mul, .. }));
                    }
                    other => panic!("wrong add shape: {other:?}"),
                },
                other => panic!("wrong eq shape: {other:?}"),
            },
            other => panic!("wrong and shape: {other:?}"),
        }
    }

    #[test]
    fn parses_casts_and_instanceof() {
        let e = parse_expr("(Row) obj").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast { .. }));
        let e = parse_expr("(List<int[]>) x").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast { .. }));
        let e = parse_expr("obj instanceof Row").unwrap();
        assert!(matches!(e.kind, ExprKind::InstanceOf { .. }));
        assert_eq!((e.span.start.offset, e.span.end.offset), (0, 18));
        // Parenthesized expressions, not casts.
        let e = parse_expr("(a) + b").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary { op: BinaryOp::Add, .. }));
        let e = parse_expr("(a < b[0]) + c").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary { op: BinaryOp::Add, .. }));
    }

    #[test]
    fn parses_conditional_expr() {
        let e = parse_expr("a ? b : c ? d : e").unwrap();
        // Right-associative.
        match &e.kind {
            ExprKind::Conditional { else_expr, .. } => {
                assert!(matches!(else_expr.kind, ExprKind::Conditional { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_synchronized_and_assert() {
        let t = one_class(
            r#"class C {
                void m(Object lock) {
                    synchronized (lock) { int x = 1; }
                    assert lock != null : "lock";
                }
            }"#,
        );
        let m = t.method_named("m").unwrap();
        let stmts = &m.body.as_ref().unwrap().stmts;
        assert!(matches!(&stmts[0].kind, StmtKind::Synchronized { .. }));
        assert!(matches!(&stmts[1].kind, StmtKind::Assert { message: Some(_), .. }));
    }

    #[test]
    fn parses_for_variants() {
        let t = one_class(
            r#"class C {
                void m(Collection<Integer> c) {
                    for (int i = 0; i < 10; i++) { }
                    for (Integer x : c) { }
                    for (;;) { break; }
                }
            }"#,
        );
        let m = t.method_named("m").unwrap();
        let stmts = &m.body.as_ref().unwrap().stmts;
        assert!(matches!(&stmts[0].kind, StmtKind::For { cond: Some(_), .. }));
        assert!(matches!(&stmts[1].kind, StmtKind::ForEach { .. }));
        assert!(matches!(&stmts[2].kind, StmtKind::For { cond: None, .. }));
    }

    #[test]
    fn expr_ids_are_unique() {
        let unit = parse("class C { void m() { int a = 1 + 2; int b = a + 3; } }").unwrap();
        let mut ids = Vec::new();
        fn collect(e: &Expr, ids: &mut Vec<ExprId>) {
            ids.push(e.id);
            match &e.kind {
                ExprKind::Binary { lhs, rhs, .. } => {
                    collect(lhs, ids);
                    collect(rhs, ids);
                }
                ExprKind::Literal(_) | ExprKind::Name(_) => {}
                _ => {}
            }
        }
        for (_, m) in unit.methods() {
            for s in &m.body.as_ref().unwrap().stmts {
                if let StmtKind::LocalVar { init: Some(e), .. } = &s.kind {
                    collect(e, &mut ids);
                }
            }
        }
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn error_reports_position() {
        let err = parse("class C { void m() { int = 5; } }").unwrap_err();
        assert!(err.span.start.line >= 1);
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn parses_extends_implements() {
        let t = one_class("class A extends B implements C, D<E> {}");
        assert_eq!(t.extends.len(), 1);
        assert_eq!(t.implements.len(), 2);
    }

    #[test]
    fn parses_throws_clause() {
        let t = one_class("class A { void m() throws IOException, FooException { } }");
        let m = t.method_named("m").unwrap();
        assert_eq!(m.throws.len(), 2);
    }

    #[test]
    fn parses_do_while() {
        let t = one_class(
            "class C { void m(Iterator<Integer> it) { do { it.next(); } while (it.hasNext()); } }",
        );
        let m = t.method_named("m").unwrap();
        match &m.body.as_ref().unwrap().stmts[0].kind {
            StmtKind::DoWhile { body, cond } => {
                assert!(matches!(body.kind, StmtKind::Block(_)));
                assert!(matches!(cond.kind, ExprKind::Call { .. }));
            }
            other => panic!("expected do-while, got {other:?}"),
        }
    }

    #[test]
    fn parses_switch_with_fallthrough_and_default() {
        let t = one_class(
            r#"class C {
                int m(int x) {
                    int r = 0;
                    switch (x) {
                        case 1:
                        case 2:
                            r = 10;
                            break;
                        case 3:
                            r = 20;
                        default:
                            r = r + 1;
                    }
                    return r;
                }
            }"#,
        );
        let m = t.method_named("m").unwrap();
        match &m.body.as_ref().unwrap().stmts[1].kind {
            StmtKind::Switch { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert_eq!(cases[0].labels.len(), 2, "case 1 and 2 share a body");
                assert_eq!(cases[2].labels, vec![None], "default label");
                assert!(matches!(cases[0].body.last().unwrap().kind, StmtKind::Break));
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_try_catch_finally() {
        let t = one_class(
            r#"class C {
                void m(StreamFactory f) {
                    Stream s = f.open();
                    try {
                        s.read();
                    } catch (IOException e) {
                        log(e);
                    } catch (RuntimeException e) {
                        log(e);
                    } finally {
                        s.close();
                    }
                }
                void log(Object e) { }
            }"#,
        );
        let m = t.method_named("m").unwrap();
        let body = m.body.as_ref().unwrap();
        match &body.stmts[1].kind {
            StmtKind::Try { body, catches, finally } => {
                assert_eq!(body.stmts.len(), 1);
                assert_eq!(catches.len(), 2);
                assert_eq!(catches[0].name, "e");
                assert!(finally.is_some());
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn parses_try_finally_without_catch() {
        let t =
            one_class("class C { void m(Stream s) { try { s.read(); } finally { s.close(); } } }");
        let m = t.method_named("m").unwrap();
        assert!(matches!(
            &m.body.as_ref().unwrap().stmts[0].kind,
            StmtKind::Try { catches, finally: Some(_), .. } if catches.is_empty()
        ));
    }

    #[test]
    fn rejects_multi_declarator_fields() {
        assert!(parse("class A { int x, y; }").is_err());
    }

    #[test]
    fn parses_wildcard_generics() {
        let t = one_class("class A { Collection<? extends Number> xs; void m(Iterator<?> it) {} }");
        assert_eq!(t.fields().count(), 1);
    }

    #[test]
    fn parses_test_annotation_method() {
        let t = one_class(
            r#"class T {
                @Test
                void testParseCSV() {
                    Row r1 = parseCSVRow("1,2,3,4");
                    int sum = r1.createColIter().next() + r1.createColIter().next();
                    assert sum != 5;
                }
            }"#,
        );
        let m = t.method_named("testParseCSV").unwrap();
        assert!(m.annotation("Test").is_some());
    }
}
