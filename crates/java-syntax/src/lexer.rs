//! A hand-written lexer for the Java subset.
//!
//! The lexer is a single-pass scanner producing a `Vec<Token>` of kinds and
//! spans; it copies no text. Line and block comments are skipped; `//` and
//! `/* ... */` nest the way Java specifies (block comments do not nest).
//! Literals are checked here, so a malformed one fails the lex, and
//! decoded later by [`int_value`], [`string_value`] and [`char_value`] when
//! the parser builds the node that keeps the value.

use crate::error::{ParseError, ParseErrorKind, Result};
use crate::span::{Pos, Span};
use crate::token::{Token, TokenKind};

/// Lexes an entire source string into tokens, ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] on unterminated strings/comments, malformed
/// numeric literals, or characters outside the subset.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    Lexer::new(src).run()
}

/// The value of an integer literal's text (`42`, `0x1F`, `7L`), or `None`
/// when it does not fit an `i64`.
pub(crate) fn int_value(text: &str) -> Option<i64> {
    let text = text.trim_end_matches(['L', 'l']);
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => i64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// The value of a string literal the lexer accepted, quotes included in
/// `text`: one allocation, escape sequences resolved, every other
/// character (multi-byte UTF-8 ones too) copied unchanged.
pub(crate) fn string_value(text: &str) -> String {
    let mut rest = &text[1..text.len() - 1];
    let mut value = String::with_capacity(rest.len());
    while let Some(i) = rest.find('\\') {
        value.push_str(&rest[..i]);
        value.push(unescape(rest.as_bytes()[i + 1]).expect("the lexer checked every escape"));
        rest = &rest[i + 2..];
    }
    value.push_str(rest);
    value
}

/// The value of a character literal the lexer accepted, quotes included in
/// `text`.
pub(crate) fn char_value(text: &str) -> char {
    let body = &text[1..text.len() - 1];
    match body.as_bytes() {
        [b'\\', b] => unescape(*b),
        _ => body.chars().next(),
    }
    .expect("the lexer checked the literal")
}

/// The character the escape sequence `\b` stands for.
fn unescape(b: u8) -> Option<char> {
    Some(match b {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'"' => '"',
        b'\'' => '\'',
        _ => return None,
    })
}

/// The scanner tracks its place as a byte offset plus the current line and
/// the offset that line starts at; a [`Pos`] is made from them only at
/// token boundaries, its column being the bytes since the line start.
struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    offset: usize,
    line: u32,
    line_start: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        // Generated and hand-written Java runs at about four bytes a token.
        let tokens = Vec::with_capacity(src.len() / 3 + 1);
        Lexer { src, bytes: src.as_bytes(), offset: 0, line: 1, line_start: 0, tokens }
    }

    /// The position of the next byte.
    fn pos(&self) -> Pos {
        Pos::new(self.offset, self.line, (self.offset - self.line_start) as u32 + 1)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.offset + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.offset;
        }
        Some(b)
    }

    /// Steps over `n` bytes, none of which is a line break.
    fn advance(&mut self, n: usize) {
        self.offset += n;
    }

    /// The length of the exponent marker at the cursor, `e` or `E` with an
    /// optional sign, when a digit follows it; 0 otherwise.
    fn exponent_marker_len(&self) -> usize {
        let sign = usize::from(matches!(self.peek2(), Some(b'+' | b'-')));
        match self.bytes.get(self.offset + 1 + sign) {
            Some(b) if b.is_ascii_digit() => 1 + sign,
            _ => 0,
        }
    }

    /// Steps over the bytes that satisfy `keep`, none of which may be a
    /// line break.
    fn bump_while(&mut self, keep: impl Fn(u8) -> bool) {
        let n = self.bytes[self.offset..].iter().take_while(|&&b| keep(b)).count();
        self.advance(n);
    }

    /// An operator token of `n` bytes.
    fn op(&mut self, n: usize, kind: TokenKind) -> TokenKind {
        self.advance(n);
        kind
    }

    /// `long` if the byte after this one is `second`, else `short`.
    fn one_or_two(&mut self, second: u8, long: TokenKind, short: TokenKind) -> TokenKind {
        if self.peek2() == Some(second) {
            self.op(2, long)
        } else {
            self.op(1, short)
        }
    }

    fn error(&self, msg: impl Into<String>, start: Pos) -> ParseError {
        ParseError::new(msg, Span::new(start, self.pos()))
    }

    fn error_kind(&self, msg: impl Into<String>, start: Pos, kind: ParseErrorKind) -> ParseError {
        ParseError::with_kind(msg, Span::new(start, self.pos()), kind)
    }

    /// One dispatch on the first byte per token or run of trivia.
    fn run(mut self) -> Result<Vec<Token>> {
        use TokenKind::*;
        while let Some(b) = self.peek() {
            let start = self.pos();
            let kind = match b {
                b' ' | b'\t' | b'\r' => {
                    self.bump_while(|b| matches!(b, b' ' | b'\t' | b'\r'));
                    continue;
                }
                b'\n' => {
                    self.bump();
                    continue;
                }
                b'/' if self.peek2() == Some(b'/') => {
                    self.bump_while(|b| b != b'\n');
                    continue;
                }
                b'/' if self.peek2() == Some(b'*') => {
                    self.block_comment(start)?;
                    continue;
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => self.word(start),
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                b'\'' => self.char_lit(start)?,
                b'(' => self.op(1, LParen),
                b')' => self.op(1, RParen),
                b'{' => self.op(1, LBrace),
                b'}' => self.op(1, RBrace),
                b'[' => self.op(1, LBracket),
                b']' => self.op(1, RBracket),
                b';' => self.op(1, Semi),
                b',' => self.op(1, Comma),
                b'.' => self.op(1, Dot),
                b'@' => self.op(1, At),
                b'?' => self.op(1, Question),
                b'*' => self.op(1, Star),
                b'/' => self.op(1, Slash),
                b'%' => self.op(1, Percent),
                b'^' => self.op(1, Caret),
                b':' => self.one_or_two(b':', ColonColon, Colon),
                b'=' => self.one_or_two(b'=', EqEq, Assign),
                b'!' => self.one_or_two(b'=', NotEq, Bang),
                b'<' => self.one_or_two(b'=', Le, Lt),
                b'>' => self.one_or_two(b'=', Ge, Gt),
                b'&' => self.one_or_two(b'&', AndAnd, Amp),
                b'|' => self.one_or_two(b'|', OrOr, Pipe),
                b'+' if self.peek2() == Some(b'=') => self.op(2, PlusAssign),
                b'+' => self.one_or_two(b'+', PlusPlus, Plus),
                b'-' if self.peek2() == Some(b'=') => self.op(2, MinusAssign),
                b'-' => self.one_or_two(b'-', MinusMinus, Minus),
                _ => {
                    let c = self.step_char().expect("a byte is left");
                    return Err(self.error(format!("unexpected character `{c}`"), start));
                }
            };
            self.tokens.push(Token::new(kind, Span::new(start, self.pos())));
        }
        let end = self.pos();
        self.tokens.push(Token::new(Eof, Span::new(end, end)));
        Ok(self.tokens)
    }

    fn block_comment(&mut self, start: Pos) -> Result<()> {
        self.advance(2);
        loop {
            match self.bump() {
                Some(b'*') if self.peek() == Some(b'/') => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => {}
                None => {
                    return Err(self.error_kind(
                        "unterminated block comment",
                        start,
                        ParseErrorKind::UnexpectedEof,
                    ));
                }
            }
        }
    }

    fn word(&mut self, start: Pos) -> TokenKind {
        self.bump_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$');
        TokenKind::of_word(&self.src[start.offset..self.offset])
    }

    fn number(&mut self, start: Pos) -> Result<TokenKind> {
        // Hexadecimal literals: 0x1F, 0XABCDL.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.advance(2);
            let digits_start = self.offset;
            self.bump_while(|b| b.is_ascii_hexdigit());
            if self.offset == digits_start {
                return Err(self.error_kind(
                    "hex literal needs at least one digit",
                    start,
                    ParseErrorKind::InvalidLiteral,
                ));
            }
            let text = &self.src[digits_start..self.offset];
            if matches!(self.peek(), Some(b'L') | Some(b'l')) {
                self.bump();
            }
            if i64::from_str_radix(text, 16).is_err() {
                return Err(self.error_kind(
                    format!("invalid hex literal `{text}`"),
                    start,
                    ParseErrorKind::InvalidLiteral,
                ));
            }
            return Ok(TokenKind::IntLit);
        }
        let mut is_double = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !is_double && self.peek2().is_some_and(|c| c.is_ascii_digit()) => {
                    is_double = true;
                    self.bump();
                }
                b'e' | b'E' if is_double => {
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                b'e' | b'E' if self.exponent_marker_len() > 0 => {
                    // An exponent without a point: `1e5`, `2E-3`, `7e+1f`.
                    self.advance(self.exponent_marker_len());
                    self.bump_while(|b| b.is_ascii_digit());
                    if matches!(self.peek(), Some(b'f' | b'F' | b'd' | b'D')) {
                        self.bump();
                    }
                    return Ok(TokenKind::DoubleLit);
                }
                b'L' | b'l' | b'f' | b'F' | b'd' | b'D' => {
                    // Suffix terminates the literal; treat f/d as double markers.
                    if matches!(b, b'f' | b'F' | b'd' | b'D') {
                        is_double = true;
                    }
                    self.bump();
                    break;
                }
                _ => break,
            }
        }
        if is_double {
            return Ok(TokenKind::DoubleLit);
        }
        let text = &self.src[start.offset..self.offset];
        if int_value(text).is_none() {
            return Err(self.error_kind(
                format!("invalid integer literal `{text}`"),
                start,
                ParseErrorKind::InvalidLiteral,
            ));
        }
        Ok(TokenKind::IntLit)
    }

    /// Checks a string literal. Bytes other than the quote, the backslash
    /// and the line feed are stepped over one at a time: the source is
    /// valid UTF-8, so a multi-byte character never contains one of them.
    fn string(&mut self, start: Pos) -> Result<TokenKind> {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some(b'"') => return Ok(TokenKind::StringLit),
                Some(b'\\') => self.escape(start)?,
                Some(b'\n') => {
                    return Err(self.error_kind(
                        "unterminated string literal",
                        start,
                        ParseErrorKind::InvalidLiteral,
                    ));
                }
                None => {
                    return Err(self.error_kind(
                        "unterminated string literal",
                        start,
                        ParseErrorKind::UnexpectedEof,
                    ));
                }
                Some(_) => {}
            }
        }
    }

    /// Checks a character literal: one escape sequence or one character,
    /// which may take several bytes.
    fn char_lit(&mut self, start: Pos) -> Result<TokenKind> {
        self.bump(); // opening quote
        match self.bump() {
            Some(b'\\') => self.escape(start)?,
            Some(b'\'') | None => return Err(self.error("empty character literal", start)),
            Some(b) if b.is_ascii() => {}
            // A multi-byte character: step over its continuation bytes.
            Some(_) => self.bump_while(|b| b & 0xC0 == 0x80),
        }
        if self.bump() != Some(b'\'') {
            return Err(self.error("unterminated character literal", start));
        }
        Ok(TokenKind::CharLit)
    }

    fn escape(&mut self, start: Pos) -> Result<()> {
        match self.step_char() {
            Some(c) if c.is_ascii() && unescape(c as u8).is_some() => Ok(()),
            other => Err(self
                .error(format!("unsupported escape sequence `\\{}`", other.unwrap_or(' ')), start)),
        }
    }

    /// Steps over the next character, all of its bytes, so that an error
    /// span ends on a character boundary and its message shows the
    /// character itself.
    fn step_char(&mut self) -> Option<char> {
        let c = self.src[self.offset..].chars().next()?;
        if c == '\n' {
            self.bump();
        } else {
            self.advance(c.len_utf8());
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword as Kw;
    use crate::token::TokenKind::*;

    /// Every token but the final `Eof`, as (kind, source text) pairs.
    fn tokens(src: &str) -> Vec<(TokenKind, &str)> {
        let mut toks: Vec<_> =
            lex(src).unwrap().into_iter().map(|t| (t.kind, t.text(src))).collect();
        assert_eq!(toks.pop(), Some((Eof, "")));
        toks
    }

    #[test]
    fn lexes_simple_class_header() {
        let k = tokens("public class Row {}");
        assert_eq!(
            k,
            vec![
                (Keyword(Kw::Public), "public"),
                (Keyword(Kw::Class), "class"),
                (Ident, "Row"),
                (LBrace, "{"),
                (RBrace, "}"),
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        let k = tokens("a // line\n /* block\n multi */ b");
        assert_eq!(k, vec![(Ident, "a"), (Ident, "b")]);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let e = lex("/* never closed").unwrap_err();
        assert!(e.message.contains("unterminated block comment"));
    }

    #[test]
    fn lexes_literals() {
        let k = tokens(r#"42 3.14 "hi\n" 'c' true false null 7L"#);
        assert_eq!(
            k,
            vec![
                (IntLit, "42"),
                (DoubleLit, "3.14"),
                (StringLit, r#""hi\n""#),
                (CharLit, "'c'"),
                (BoolLit(true), "true"),
                (BoolLit(false), "false"),
                (Null, "null"),
                (IntLit, "7L"),
            ]
        );
    }

    #[test]
    fn lexes_compound_operators() {
        let k = tokens("== != <= >= && || ++ -- += -= ::");
        assert_eq!(
            k,
            vec![
                (EqEq, "=="),
                (NotEq, "!="),
                (Le, "<="),
                (Ge, ">="),
                (AndAnd, "&&"),
                (OrOr, "||"),
                (PlusPlus, "++"),
                (MinusMinus, "--"),
                (PlusAssign, "+="),
                (MinusAssign, "-="),
                (ColonColon, "::"),
            ]
        );
    }

    #[test]
    fn generics_lex_as_lt_gt() {
        let k = tokens("Iterator<Integer>");
        assert_eq!(k, vec![(Ident, "Iterator"), (Lt, "<"), (Ident, "Integer"), (Gt, ">")]);
    }

    #[test]
    fn annotation_tokens() {
        let k = tokens("@Perm(requires=\"full(this)\")");
        assert_eq!(
            k,
            vec![
                (At, "@"),
                (Ident, "Perm"),
                (LParen, "("),
                (Ident, "requires"),
                (Assign, "="),
                (StringLit, "\"full(this)\""),
                (RParen, ")"),
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("a\n  bb").unwrap();
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[0].span.start.col, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[1].span.start.col, 3);
        assert_eq!(toks[1].span.end.col, 5);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let e = lex("#").unwrap_err();
        assert!(e.message.contains("unexpected character"));
    }

    #[test]
    fn empty_input_gives_only_eof() {
        let toks = lex("").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, Eof);
    }

    #[test]
    fn exponent_without_a_point_is_one_double() {
        let k = tokens("1e5 2E-3 7e+1f 4e2D 1.5e3");
        let doubles = ["1e5", "2E-3", "7e+1f", "4e2D", "1.5e3"].map(|t| (DoubleLit, t));
        assert_eq!(k, doubles);
        // Without digits after it, the `e` starts an identifier as before.
        assert_eq!(tokens("1e 2ex"), [(IntLit, "1"), (Ident, "e"), (IntLit, "2"), (Ident, "ex")]);
        assert_eq!(tokens("1e5e3"), [(DoubleLit, "1e5"), (Ident, "e3")]);
    }

    #[test]
    fn hex_literals() {
        let k = tokens("0x1F 0XABL 0x0");
        assert_eq!(k, vec![(IntLit, "0x1F"), (IntLit, "0XABL"), (IntLit, "0x0")]);
        assert_eq!(["0x1F", "0XABL", "0x0"].map(int_value), [Some(31), Some(171), Some(0)]);
        assert!(lex("0x").is_err());
        assert!(lex("0xZZ").is_err());
    }

    #[test]
    fn dollar_idents_allowed() {
        let k = tokens("a$b _x");
        assert_eq!(k, vec![(Ident, "a$b"), (Ident, "_x")]);
    }

    #[test]
    fn literal_values_decode_from_their_text() {
        assert_eq!(int_value("7L"), Some(7));
        assert_eq!(int_value("99999999999999999999"), None);
        assert_eq!(string_value(r#""a\"b\\c\t\0""#), "a\"b\\c\t\0");
        assert_eq!(string_value(r#""""#), "");
        assert_eq!(char_value(r"'\''"), '\'');
        assert_eq!(char_value("'x'"), 'x');
    }

    #[test]
    fn non_ascii_literals_keep_their_characters() {
        let src = "\"héllo→\" 'é' '→' x";
        let k = tokens(src);
        assert_eq!(
            k,
            vec![(StringLit, "\"héllo→\""), (CharLit, "'é'"), (CharLit, "'→'"), (Ident, "x")]
        );
        assert_eq!(string_value(k[0].1), "héllo→");
        assert_eq!(char_value(k[1].1), 'é');
        assert_eq!(char_value(k[2].1), '→');
        // Columns count bytes: `'→'` takes five of them.
        let toks = lex(src).unwrap();
        assert_eq!((toks[2].span.start.col, toks[2].span.end.col), (18, 23));
        assert!(lex("'é").is_err());
        assert!(lex("'éé'").is_err());
    }

    #[test]
    fn errors_name_non_ascii_characters_whole() {
        for (src, message, end) in [
            ("a é", "unexpected character `é`", 4),
            ("\"\\é\"", "unsupported escape sequence `\\é`", 4),
            ("'\\→'", "unsupported escape sequence `\\→`", 5),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!(e.message, message, "{src}");
            assert_eq!(e.span.end.offset, end, "{src}");
            assert!(src.is_char_boundary(e.span.end.offset));
        }
    }
}
