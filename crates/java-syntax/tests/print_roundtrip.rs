//! Printing is the inverse of parsing, checked on generated expressions.
//!
//! The store keys a unit by its printed text and the spec applier writes
//! annotated programs back out through the printer, so an expression whose
//! printed text parses to a different tree is two programs sharing one key
//! and a rewrite that changes the program. The generator below draws
//! random expression trees over every `ExprKind`, `BinaryOp`, `UnaryOp`
//! and `AssignOp`, restricted to trees the parser can produce (no negative
//! literals, valid identifiers, types a cast or `instanceof` can name);
//! each must come back from `parse_expr(print_expr(..))` equal, with spans
//! and ids zeroed. Equal trees, not a text fixpoint: `a & b instanceof T`
//! prints the same twice and still loses its parentheses.

use java_syntax::{
    parse_expr, print_expr, AssignOp, BinaryOp, Expr, ExprId, ExprKind, Lit, PrimitiveType,
    QualifiedName, Span, TypeRef, UnaryOp,
};
use prng::{forall, Rng};
use std::cell::RefCell;
use std::collections::BTreeSet;

const CASES: u32 = 4000;
/// The deepest a generated tree may nest; every case's root is an inner
/// node, and `MIN_DEEP` of the cases must reach `DEEP` levels.
const MAX_DEPTH: usize = 6;
const DEEP: usize = 4;
const MIN_DEEP: usize = CASES as usize / 4;

const NAMES: &[&str] = &["a", "b", "it", "x1", "_y", "$z", "next", "value"];
const BINARY: &[BinaryOp] = &[
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::BitAnd,
    BinaryOp::BitOr,
    BinaryOp::BitXor,
];
const UNARY: &[UnaryOp] = &[UnaryOp::Neg, UnaryOp::Not, UnaryOp::PreInc, UnaryOp::PreDec];
const ASSIGN: &[AssignOp] = &[AssignOp::Assign, AssignOp::AddAssign, AssignOp::SubAssign];
/// Every expression form, by the name its `Debug` rendering starts with.
const KINDS: &[&str] = &[
    "Literal",
    "Name",
    "This",
    "FieldAccess",
    "Call",
    "New",
    "Assign",
    "Binary",
    "Unary",
    "Postfix",
    "Cast",
    "InstanceOf",
    "Conditional",
    "ArrayAccess",
];

/// What the generated trees covered.
#[derive(Default)]
struct Seen {
    kinds: BTreeSet<String>,
    binary: BTreeSet<String>,
    unary: BTreeSet<String>,
    assign: BTreeSet<String>,
    /// The least depth budget left at any node of the current tree.
    least_left: usize,
    /// Trees that reached `DEEP` levels.
    deep: usize,
}

fn mk(kind: ExprKind) -> Expr {
    Expr { kind, span: Span::DUMMY, id: ExprId(0) }
}

fn name(rng: &mut Rng) -> String {
    (*rng.pick(NAMES)).to_string()
}

fn named(name: &str, args: Vec<TypeRef>) -> TypeRef {
    TypeRef::Named { name: QualifiedName::parse(name), args }
}

/// A type as the parser reads it after `new` or `instanceof`, or inside a
/// cast's parentheses (`in_cast`: a cast's lookahead admits no array type
/// inside type arguments and no top-level wildcard).
fn type_ref(rng: &mut Rng, in_cast: bool) -> TypeRef {
    let base = match rng.gen_index(0..6) {
        0 => TypeRef::Primitive(*rng.pick(&[PrimitiveType::Int, PrimitiveType::Boolean])),
        1 => named("Row", Vec::new()),
        2 => named("java.util.Iterator", Vec::new()),
        3 => named("Iterator", vec![named("Integer", Vec::new())]),
        4 => named("Map", vec![TypeRef::Wildcard, named("List", vec![named("T", Vec::new())])]),
        _ if in_cast => named("Row", vec![TypeRef::Wildcard]),
        _ => named("Pair", vec![TypeRef::Array(Box::new(named("Row", Vec::new())))]),
    };
    if rng.gen_bool(0.25) {
        TypeRef::Array(Box::new(base))
    } else {
        base
    }
}

fn literal(rng: &mut Rng) -> Lit {
    match rng.gen_index(0..6) {
        0 => Lit::Int(rng.gen_range(0..1000)),
        1 => Lit::Double((*rng.pick(&["1.5", "0.25", "10.0", "3e2"])).to_string()),
        2 => Lit::Bool(rng.gen_bool(0.5)),
        3 => Lit::Str((*rng.pick(&["", "s", "a b", "q\"uote", "back\\slash\n"])).to_string()),
        4 => Lit::Char(*rng.pick(&['c', '0', ' ', '\'', '\\', '\n'])),
        _ => Lit::Null,
    }
}

/// A random tree at most `depth` levels deep; `root` forces an inner node.
fn expr(rng: &mut Rng, depth: usize, root: bool, seen: &mut Seen) -> Expr {
    let kinds = if depth <= 1 { 3 } else { KINDS.len() };
    let pick = if root { rng.gen_index(3..kinds) } else { rng.gen_index(0..kinds) };
    seen.kinds.insert(KINDS[pick].to_string());
    seen.least_left = seen.least_left.min(depth);
    let d = depth - 1;
    let kind = match pick {
        0 => ExprKind::Literal(literal(rng)),
        1 => ExprKind::Name(name(rng)),
        2 => ExprKind::This,
        3 => {
            ExprKind::FieldAccess { receiver: Box::new(expr(rng, d, false, seen)), name: name(rng) }
        }
        4 => {
            let receiver = rng.gen_bool(0.6).then(|| Box::new(expr(rng, d, false, seen)));
            let args = (0..rng.gen_index(0..4)).map(|_| expr(rng, d, false, seen)).collect();
            ExprKind::Call { receiver, name: name(rng), args }
        }
        5 => {
            let ty = Box::new(type_ref(rng, false));
            let args = (0..rng.gen_index(0..3)).map(|_| expr(rng, d, false, seen)).collect();
            ExprKind::New { ty, args }
        }
        6 => {
            let op = *rng.pick(ASSIGN);
            seen.assign.insert(format!("{op:?}"));
            let lhs = Box::new(expr(rng, d, false, seen));
            ExprKind::Assign { lhs, op, rhs: Box::new(expr(rng, d, false, seen)) }
        }
        7 => {
            let op = *rng.pick(BINARY);
            seen.binary.insert(format!("{op:?}"));
            let lhs = Box::new(expr(rng, d, false, seen));
            ExprKind::Binary { op, lhs, rhs: Box::new(expr(rng, d, false, seen)) }
        }
        8 => {
            let op = *rng.pick(UNARY);
            seen.unary.insert(format!("{op:?}"));
            ExprKind::Unary { op, expr: Box::new(expr(rng, d, false, seen)) }
        }
        9 => {
            ExprKind::Postfix { inc: rng.gen_bool(0.5), expr: Box::new(expr(rng, d, false, seen)) }
        }
        10 => {
            let ty = Box::new(type_ref(rng, true));
            ExprKind::Cast { ty, expr: Box::new(expr(rng, d, false, seen)) }
        }
        11 => {
            let inner = Box::new(expr(rng, d, false, seen));
            ExprKind::InstanceOf { expr: inner, ty: Box::new(type_ref(rng, false)) }
        }
        12 => ExprKind::Conditional {
            cond: Box::new(expr(rng, d, false, seen)),
            then_expr: Box::new(expr(rng, d, false, seen)),
            else_expr: Box::new(expr(rng, d, false, seen)),
        },
        _ => ExprKind::ArrayAccess {
            array: Box::new(expr(rng, d, false, seen)),
            index: Box::new(expr(rng, d, false, seen)),
        },
    };
    mk(kind)
}

/// Zeroes every span and id, as the generator leaves them.
fn zero(e: &mut Expr) {
    e.span = Span::DUMMY;
    e.id = ExprId(0);
    match &mut e.kind {
        ExprKind::Literal(_) | ExprKind::Name(_) | ExprKind::This => {}
        ExprKind::FieldAccess { receiver, .. } => zero(receiver),
        ExprKind::Call { receiver, args, .. } => {
            receiver.iter_mut().for_each(|r| zero(r));
            args.iter_mut().for_each(zero);
        }
        ExprKind::New { args, .. } => args.iter_mut().for_each(zero),
        ExprKind::Assign { lhs, rhs, .. } | ExprKind::Binary { lhs, rhs, .. } => {
            zero(lhs);
            zero(rhs);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::Postfix { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::InstanceOf { expr, .. } => zero(expr),
        ExprKind::Conditional { cond, then_expr, else_expr } => {
            zero(cond);
            zero(then_expr);
            zero(else_expr);
        }
        ExprKind::ArrayAccess { array, index } => {
            zero(array);
            zero(index);
        }
    }
}

#[test]
fn parsing_printed_expressions_gives_back_the_same_tree() {
    let seen = RefCell::new(Seen::default());
    forall("print-parse-roundtrip", CASES, |rng| {
        let mut seen = seen.borrow_mut();
        seen.least_left = MAX_DEPTH;
        let e = expr(rng, MAX_DEPTH, true, &mut seen);
        if MAX_DEPTH + 1 - seen.least_left >= DEEP {
            seen.deep += 1;
        }
        let printed = print_expr(&e);
        let mut back = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` does not parse: {err}\ntree: {e:?}"));
        zero(&mut back);
        assert!(
            back == e,
            "`{printed}` parses to a different tree:\nprinted {e:?}\nparsed  {back:?}"
        );
    });
    let seen = seen.into_inner();
    assert_eq!(seen.kinds.len(), KINDS.len(), "kinds drawn: {:?}", seen.kinds);
    assert_eq!(seen.binary.len(), BINARY.len(), "binary operators drawn: {:?}", seen.binary);
    assert_eq!(seen.unary.len(), UNARY.len(), "unary operators drawn: {:?}", seen.unary);
    assert_eq!(seen.assign.len(), ASSIGN.len(), "assignment operators drawn: {:?}", seen.assign);
    assert!(seen.deep >= MIN_DEEP, "only {} of {CASES} trees reach depth {DEEP}", seen.deep);
}
