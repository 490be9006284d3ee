//! # java-syntax
//!
//! A from-scratch front end for the Java subset used by the ANEK/PLURAL
//! reproduction: lexer, recursive-descent parser, AST, pretty-printer and
//! visitor. It stands in for the Eclipse JDT extractor of the original tool
//! (Beckman & Nori, PLDI 2011, §4.1).
//!
//! The subset covers classes, interfaces, generics, annotations with literal
//! arguments (`@Perm(requires = "...", ensures = "...")`), fields, methods,
//! constructors, structured control flow and a conventional expression
//! grammar — everything the paper's figures and the benchmark corpus use.
//!
//! ## Example
//!
//! ```
//! use java_syntax::{parse, print_unit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = parse(
//!     "class Row { Iterator<Integer> createColIter() { return entries.iterator(); } }",
//! )?;
//! let row = unit.type_named("Row").expect("Row is declared");
//! assert_eq!(row.methods().count(), 1);
//! let java = print_unit(&unit); // round-trips back to Java source
//! assert!(java.contains("createColIter"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{
    Annotation, AnnotationArgs, AssignOp, BinaryOp, Block, CompilationUnit, Expr, ExprId, ExprKind,
    FieldDecl, Import, Lit, Member, MethodDecl, Modifiers, Param, PrimitiveType, QualifiedName,
    Stmt, StmtKind, TypeDecl, TypeKind, TypeRef, UnaryOp,
};
pub use error::{ParseError, ParseErrorKind, Result};
pub use lexer::lex;
pub use parser::{parse, parse_expr};
pub use printer::{print_expr, print_stmt, print_type, print_unit, print_unit_interface};
pub use span::{render_snippet, Pos, Span};
pub use token::{Keyword, Token, TokenKind};
