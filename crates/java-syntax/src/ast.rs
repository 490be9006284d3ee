//! Abstract syntax tree for the Java subset.
//!
//! The AST deliberately models the slice of Java that the ANEK/PLURAL
//! pipeline needs: classes and interfaces with annotated methods, fields,
//! local variables, structured control flow, method calls, field accesses and
//! object creation. Every node carries a [`Span`]; expressions additionally
//! carry a unique [`ExprId`] so the flow analyses can attach facts to
//! individual occurrences.

use crate::span::Span;
use std::fmt;

/// A dot-separated qualified name such as `java.util.Iterator`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QualifiedName(pub Vec<String>);

impl QualifiedName {
    /// Builds a qualified name from dotted text.
    pub fn parse(s: &str) -> QualifiedName {
        QualifiedName(s.split('.').map(str::to_string).collect())
    }

    /// The final segment (the simple name).
    pub fn simple(&self) -> &str {
        self.0.last().map(String::as_str).unwrap_or("")
    }

    /// Whether this is a single-segment name.
    pub fn is_simple(&self) -> bool {
        self.0.len() == 1
    }
}

impl fmt::Display for QualifiedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join("."))
    }
}

impl From<&str> for QualifiedName {
    fn from(s: &str) -> QualifiedName {
        QualifiedName::parse(s)
    }
}

/// A whole source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompilationUnit {
    /// `package a.b.c;` if present.
    pub package: Option<QualifiedName>,
    /// `import` declarations in order.
    pub imports: Vec<Import>,
    /// Top-level class and interface declarations.
    pub types: Vec<TypeDecl>,
}

impl CompilationUnit {
    /// Finds a top-level type by simple name.
    pub fn type_named(&self, name: &str) -> Option<&TypeDecl> {
        self.types.iter().find(|t| t.name == name)
    }

    /// Iterates over every method in every type.
    pub fn methods(&self) -> impl Iterator<Item = (&TypeDecl, &MethodDecl)> {
        self.types.iter().flat_map(|t| {
            t.members.iter().filter_map(move |m| match m {
                Member::Method(md) => Some((t, md)),
                Member::Field(_) => None,
            })
        })
    }
}

/// An `import` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// The imported path.
    pub path: QualifiedName,
    /// `import static ...`.
    pub is_static: bool,
    /// `import a.b.*;`
    pub wildcard: bool,
    /// Source span.
    pub span: Span,
}

/// Modifier flags on declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// `public`
    pub public: bool,
    /// `private`
    pub private: bool,
    /// `protected`
    pub protected: bool,
    /// `static`
    pub is_static: bool,
    /// `final`
    pub is_final: bool,
    /// `abstract`
    pub is_abstract: bool,
    /// `synchronized`
    pub is_synchronized: bool,
    /// `native`, `transient` or `volatile` (tracked but not distinguished).
    pub other: bool,
}

/// Whether a [`TypeDecl`] is a class or an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `class`
    Class,
    /// `interface`
    Interface,
}

/// A class or interface declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl {
    /// Annotations such as `@States(...)`.
    pub annotations: Vec<Annotation>,
    /// Modifier flags.
    pub modifiers: Modifiers,
    /// Class or interface.
    pub kind: TypeKind,
    /// Simple name.
    pub name: String,
    /// Type parameter names (`<T, U>`), erased of bounds.
    pub type_params: Vec<String>,
    /// `extends` clause (single for classes, many for interfaces).
    pub extends: Vec<TypeRef>,
    /// `implements` clause.
    pub implements: Vec<TypeRef>,
    /// Fields and methods in declaration order.
    pub members: Vec<Member>,
    /// Source span of the whole declaration.
    pub span: Span,
}

impl TypeDecl {
    /// Iterates over the methods of this type.
    pub fn methods(&self) -> impl Iterator<Item = &MethodDecl> {
        self.members.iter().filter_map(|m| match m {
            Member::Method(md) => Some(md),
            Member::Field(_) => None,
        })
    }

    /// Iterates over the fields of this type.
    pub fn fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.members.iter().filter_map(|m| match m {
            Member::Field(fd) => Some(fd),
            Member::Method(_) => None,
        })
    }

    /// Finds a method by name (first overload).
    pub fn method_named(&self, name: &str) -> Option<&MethodDecl> {
        self.methods().find(|m| m.name == name)
    }
}

/// A member of a type declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Member {
    /// A field.
    Field(FieldDecl),
    /// A method or constructor.
    Method(MethodDecl),
}

/// A field declaration (one declarator per `FieldDecl`; the parser splits
/// comma-separated declarators).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Annotations on the field.
    pub annotations: Vec<Annotation>,
    /// Modifier flags.
    pub modifiers: Modifiers,
    /// Declared type.
    pub ty: TypeRef,
    /// Field name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// A method or constructor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Annotations, e.g. `@Perm(...)`, `@TrueIndicates(...)`.
    pub annotations: Vec<Annotation>,
    /// Modifier flags.
    pub modifiers: Modifiers,
    /// Method-level type parameters.
    pub type_params: Vec<String>,
    /// Return type; `None` for constructors.
    pub return_type: Option<TypeRef>,
    /// Method name (class name for constructors).
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Declared thrown exception types.
    pub throws: Vec<TypeRef>,
    /// Body; `None` for abstract/interface methods.
    pub body: Option<Block>,
    /// Source span.
    pub span: Span,
}

impl MethodDecl {
    /// Whether this declaration is a constructor.
    pub fn is_constructor(&self) -> bool {
        self.return_type.is_none()
    }

    /// Finds an annotation by simple name.
    pub fn annotation(&self, name: &str) -> Option<&Annotation> {
        self.annotations.iter().find(|a| a.name.simple() == name)
    }
}

/// A formal method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Annotations on the parameter.
    pub annotations: Vec<Annotation>,
    /// `final` flag.
    pub is_final: bool,
    /// Declared type.
    pub ty: TypeRef,
    /// Parameter name.
    pub name: String,
    /// Source span.
    pub span: Span,
}

/// A reference to a type in source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// A primitive type.
    Primitive(PrimitiveType),
    /// `void` (only valid as a return type).
    Void,
    /// A class/interface type, possibly generic: `Iterator<Integer>`.
    Named {
        /// Possibly-qualified type name.
        name: QualifiedName,
        /// Type arguments; empty for raw types.
        args: Vec<TypeRef>,
    },
    /// An array type `T[]`.
    Array(Box<TypeRef>),
    /// The `?` wildcard type argument (bounds erased).
    Wildcard,
}

impl TypeRef {
    /// Convenience constructor for a non-generic named type.
    pub fn named(name: &str) -> TypeRef {
        TypeRef::Named { name: QualifiedName::parse(name), args: Vec::new() }
    }
}

impl fmt::Display for TypeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRef::Primitive(p) => write!(f, "{p}"),
            TypeRef::Void => f.write_str("void"),
            TypeRef::Named { name, args } => {
                write!(f, "{name}")?;
                if !args.is_empty() {
                    f.write_str("<")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    f.write_str(">")?;
                }
                Ok(())
            }
            TypeRef::Array(t) => write!(f, "{t}[]"),
            TypeRef::Wildcard => f.write_str("?"),
        }
    }
}

/// Java primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PrimitiveType {
    Boolean,
    Byte,
    Short,
    Int,
    Long,
    Char,
    Float,
    Double,
}

impl fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use PrimitiveType::*;
        f.write_str(match self {
            Boolean => "boolean",
            Byte => "byte",
            Short => "short",
            Int => "int",
            Long => "long",
            Char => "char",
            Float => "float",
            Double => "double",
        })
    }
}

/// An annotation occurrence, e.g. `@Perm(requires = "...", ensures = "...")`.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Annotation type name.
    pub name: QualifiedName,
    /// Arguments.
    pub args: AnnotationArgs,
    /// Source span.
    pub span: Span,
}

impl Annotation {
    /// The single string value, for marker-with-value annotations like
    /// `@TrueIndicates("HASNEXT")`.
    pub fn single_string(&self) -> Option<&str> {
        match &self.args {
            AnnotationArgs::Single(Lit::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Looks up a named string element, e.g. `requires` in `@Perm(requires = "...")`.
    pub fn string_element(&self, key: &str) -> Option<&str> {
        match &self.args {
            AnnotationArgs::Pairs(pairs) => pairs.iter().find_map(|(k, v)| {
                if k == key {
                    if let Lit::Str(s) = v {
                        return Some(s.as_str());
                    }
                }
                None
            }),
            _ => None,
        }
    }
}

/// The argument form of an annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotationArgs {
    /// `@Test`
    None,
    /// `@TrueIndicates("HASNEXT")`
    Single(Lit),
    /// `@Perm(requires = "...", ensures = "...")`
    Pairs(Vec<(String, Lit)>),
}

/// A literal value (also used for annotation arguments).
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// Floating literal kept as source text to avoid round-trip loss.
    Double(String),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Character literal.
    Char(char),
    /// `null`.
    Null,
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(v) => write!(f, "{v}"),
            Lit::Double(v) => f.write_str(v),
            Lit::Bool(v) => write!(f, "{v}"),
            Lit::Str(v) => write!(f, "\"{}\"", escape_str(v)),
            Lit::Char(c) => match escape(*c, '\'') {
                Some(escaped) => write!(f, "'{escaped}'"),
                None => write!(f, "'{c}'"),
            },
            Lit::Null => f.write_str("null"),
        }
    }
}

/// Escapes a string for Java source output.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match escape(c, '"') {
            Some(escaped) => out.push_str(escaped),
            None => out.push(c),
        }
    }
    out
}

/// The escape sequence that stands for `c` inside a literal delimited by
/// `quote`, or `None` when `c` can be written as it is.
fn escape(c: char, quote: char) -> Option<&'static str> {
    Some(match c {
        '\\' => "\\\\",
        '\n' => "\\n",
        '\t' => "\\t",
        '\r' => "\\r",
        '"' if quote == '"' => "\\\"",
        '\'' if quote == '\'' => "\\'",
        _ => return None,
    })
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A statement with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement forms.
///
/// A `Stmt` is as large as its widest variant, so a wide payload that few
/// statements carry is boxed: the initializer of a local, a `for`'s
/// condition, an `assert`, a `switch` scrutinee, a for-each iterable, a
/// `synchronized` target and a `finally` block. Boxing the field rather
/// than the variant keeps `Debug` output, patterns and auto-deref as they
/// were. `Stmt` is 144 bytes this way, 256 with the payloads inline.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `{ ... }`
    Block(Block),
    /// `T x = e;`
    LocalVar {
        /// Declared type.
        ty: TypeRef,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Box<Expr>>,
    },
    /// An expression statement.
    Expr(Expr),
    /// `if (c) s else s`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `while (c) s`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do s while (c);`
    DoWhile {
        /// Loop body (runs at least once).
        body: Box<Stmt>,
        /// Condition, evaluated after the body.
        cond: Expr,
    },
    /// `switch (e) { case l: ... default: ... }` (with Java fallthrough).
    Switch {
        /// The switched-on expression.
        scrutinee: Box<Expr>,
        /// Cases in order.
        cases: Vec<SwitchCase>,
    },
    /// `for (init; cond; update) s`
    For {
        /// Initializers (local-var or expression statements).
        init: Vec<Stmt>,
        /// Optional condition.
        cond: Option<Box<Expr>>,
        /// Update expressions.
        update: Vec<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `for (T x : e) s`
    ForEach {
        /// Element type.
        ty: TypeRef,
        /// Element variable.
        name: String,
        /// The iterable expression.
        iterable: Box<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `return e;`
    Return(Option<Expr>),
    /// `assert c;` or `assert c : m;`
    Assert {
        /// Condition.
        cond: Box<Expr>,
        /// Optional message.
        message: Option<Box<Expr>>,
    },
    /// `synchronized (e) { ... }`
    Synchronized {
        /// The lock target.
        target: Box<Expr>,
        /// Protected block.
        body: Block,
    },
    /// `try { ... } catch (T e) { ... } finally { ... }`
    Try {
        /// The guarded block.
        body: Block,
        /// Catch clauses in order.
        catches: Vec<CatchClause>,
        /// Optional finally block.
        finally: Option<Box<Block>>,
    },
    /// `throw e;`
    Throw(Expr),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `;`
    Empty,
}

/// One `case L:`/`default:` group of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// Labels; `None` is `default`. Several labels may share a body.
    pub labels: Vec<Option<Expr>>,
    /// Statements until the next label (falls through unless it breaks).
    pub body: Vec<Stmt>,
}

/// One `catch (T name) { ... }` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// Caught exception type.
    pub ty: TypeRef,
    /// Binding name.
    pub name: String,
    /// Handler block.
    pub body: Block,
}

/// Unique identifier for an expression occurrence within a compilation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An expression with span and identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
    /// Unique id within the compilation unit.
    pub id: ExprId,
}

/// Expression forms.
///
/// The type of a `new`, a cast and an `instanceof` is boxed, as rare wide
/// payloads are in [`StmtKind`]: `Expr` is 96 bytes, 112 with them inline.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A literal.
    Literal(Lit),
    /// A simple name (local variable, parameter, or implicit-this field).
    Name(String),
    /// `this`
    This,
    /// `e.f`
    FieldAccess {
        /// Receiver expression.
        receiver: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// `e.m(args)` or `m(args)` (receiver `None` means implicit `this`/static).
    Call {
        /// Receiver; `None` for unqualified calls.
        receiver: Option<Box<Expr>>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new C(args)`
    New {
        /// The constructed type.
        ty: Box<TypeRef>,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
    /// `lhs = rhs`, `lhs += rhs`, ...
    Assign {
        /// Target (name or field access).
        lhs: Box<Expr>,
        /// Which assignment operator.
        op: AssignOp,
        /// Source value.
        rhs: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Prefix unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Postfix `++`/`--`.
    Postfix {
        /// Whether increment (`true`) or decrement.
        inc: bool,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `(T) e`
    Cast {
        /// Target type.
        ty: Box<TypeRef>,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `e instanceof T`
    InstanceOf {
        /// Operand.
        expr: Box<Expr>,
        /// Tested type.
        ty: Box<TypeRef>,
    },
    /// `c ? a : b`
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then_expr: Box<Expr>,
        /// Value if false.
        else_expr: Box<Expr>,
    },
    /// `a[i]`
    ArrayAccess {
        /// Array expression.
        array: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
}

/// Assignment operators in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
        })
    }
}

/// Binary operators in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
}

impl BinaryOp {
    /// Whether this operator produces a boolean.
    pub fn is_boolean(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge | And | Or)
    }

    /// Java's precedence level, from 1 (`||`) to 9 (`*`, `/`, `%`): an
    /// operator binds tighter than every operator of a lower level, and
    /// operators of one level associate to the left.
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            Or => 1,
            And => 2,
            BitOr => 3,
            BitXor => 4,
            BitAnd => 5,
            Eq | Ne => 6,
            Lt | Le | Gt | Ge => 7,
            Add | Sub => 8,
            Mul | Div | Rem => 9,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinaryOp::*;
        f.write_str(match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "&&",
            Or => "||",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
        })
    }
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
            UnaryOp::PreInc => "++",
            UnaryOp::PreDec => "--",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_name_parse_and_display() {
        let q = QualifiedName::parse("java.util.Iterator");
        assert_eq!(q.simple(), "Iterator");
        assert!(!q.is_simple());
        assert_eq!(q.to_string(), "java.util.Iterator");
        assert!(QualifiedName::parse("Row").is_simple());
    }

    #[test]
    fn type_ref_display_with_generics() {
        let t = TypeRef::Named { name: "Iterator".into(), args: vec![TypeRef::named("Integer")] };
        assert_eq!(t.to_string(), "Iterator<Integer>");
        assert_eq!(
            TypeRef::Array(Box::new(TypeRef::Primitive(PrimitiveType::Int))).to_string(),
            "int[]"
        );
        assert_eq!(TypeRef::Void.to_string(), "void");
        assert_eq!(TypeRef::Wildcard.to_string(), "?");
    }

    #[test]
    fn lit_display_escapes_strings() {
        assert_eq!(Lit::Str("a\"b\n".into()).to_string(), "\"a\\\"b\\n\"");
        assert_eq!(Lit::Null.to_string(), "null");
        assert_eq!(Lit::Int(-3).to_string(), "-3");
    }

    #[test]
    fn lit_display_escapes_chars() {
        assert_eq!(Lit::Char('\'').to_string(), r"'\''");
        assert_eq!(Lit::Char('\\').to_string(), r"'\\'");
        assert_eq!(Lit::Char('\n').to_string(), r"'\n'");
        assert_eq!(Lit::Char('"').to_string(), "'\"'");
        assert_eq!(Lit::Char('é').to_string(), "'é'");
        assert_eq!(Lit::Str("it's".into()).to_string(), "\"it's\"");
    }

    #[test]
    fn annotation_element_lookup() {
        let a = Annotation {
            name: "Perm".into(),
            args: AnnotationArgs::Pairs(vec![
                ("requires".into(), Lit::Str("full(this) in HASNEXT".into())),
                ("ensures".into(), Lit::Str("full(this) in ALIVE".into())),
            ]),
            span: Span::DUMMY,
        };
        assert_eq!(a.string_element("requires"), Some("full(this) in HASNEXT"));
        assert_eq!(a.string_element("missing"), None);
        assert_eq!(a.single_string(), None);

        let b = Annotation {
            name: "TrueIndicates".into(),
            args: AnnotationArgs::Single(Lit::Str("HASNEXT".into())),
            span: Span::DUMMY,
        };
        assert_eq!(b.single_string(), Some("HASNEXT"));
    }

    #[test]
    fn constructor_detection() {
        let m = MethodDecl {
            annotations: vec![],
            modifiers: Modifiers::default(),
            type_params: vec![],
            return_type: None,
            name: "Row".into(),
            params: vec![],
            throws: vec![],
            body: Some(Block::default()),
            span: Span::DUMMY,
        };
        assert!(m.is_constructor());
    }

    #[test]
    fn statement_and_expression_nodes_stay_compact() {
        assert!(size_of::<Stmt>() <= 144, "Stmt is {} bytes", size_of::<Stmt>());
        assert!(size_of::<Expr>() <= 96, "Expr is {} bytes", size_of::<Expr>());
    }

    #[test]
    fn binary_op_boolean_classification() {
        assert!(BinaryOp::Eq.is_boolean());
        assert!(BinaryOp::And.is_boolean());
        assert!(!BinaryOp::Add.is_boolean());
        assert!(!BinaryOp::BitXor.is_boolean());
    }
}
