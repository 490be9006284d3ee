//! Token definitions for the Java subset lexer.
//!
//! A [`Token`] is a [`TokenKind`] and a [`Span`]; it owns no heap memory.
//! Identifier and literal text stays in the source: [`Token::text`]
//! slices it out, and the parser decodes a literal's value only when it
//! builds the AST node that keeps it.

use crate::span::Span;
use std::fmt;

/// The kind of a lexed token. Kinds carry no text: identifiers and
/// literals are read back from the source through the token's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    // Literals
    /// Integer literal such as `42`, `0x1F` or `7L`.
    IntLit,
    /// Floating-point literal such as `3.14`.
    DoubleLit,
    /// String literal; its text includes the quotes and escape sequences.
    StringLit,
    /// Character literal; its text includes the quotes.
    CharLit,
    /// `true` or `false`.
    BoolLit(bool),
    /// `null`.
    Null,

    /// An identifier that is not a keyword.
    Ident,
    /// A reserved keyword.
    Keyword(Keyword),

    // Punctuation and operators
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `::` (unused by the subset but lexed for error recovery)
    ColonColon,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// End of input.
    Eof,
}

/// Java keywords recognized by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Abstract,
    Assert,
    Boolean,
    Break,
    Byte,
    Case,
    Catch,
    Char,
    Class,
    Continue,
    Default,
    Do,
    Double,
    Else,
    Extends,
    Final,
    Finally,
    Float,
    For,
    If,
    Implements,
    Import,
    Instanceof,
    Int,
    Interface,
    Long,
    Native,
    New,
    Package,
    Private,
    Protected,
    Public,
    Return,
    Short,
    Static,
    Super,
    Switch,
    Synchronized,
    This,
    Throw,
    Throws,
    Transient,
    Try,
    Void,
    Volatile,
    While,
}

impl Keyword {
    /// The keyword's source text.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Abstract => "abstract",
            Assert => "assert",
            Boolean => "boolean",
            Break => "break",
            Byte => "byte",
            Case => "case",
            Catch => "catch",
            Char => "char",
            Class => "class",
            Continue => "continue",
            Default => "default",
            Do => "do",
            Double => "double",
            Else => "else",
            Extends => "extends",
            Final => "final",
            Finally => "finally",
            Float => "float",
            For => "for",
            If => "if",
            Implements => "implements",
            Import => "import",
            Instanceof => "instanceof",
            Int => "int",
            Interface => "interface",
            Long => "long",
            Native => "native",
            New => "new",
            Package => "package",
            Private => "private",
            Protected => "protected",
            Public => "public",
            Return => "return",
            Short => "short",
            Static => "static",
            Super => "super",
            Switch => "switch",
            Synchronized => "synchronized",
            This => "this",
            Throw => "throw",
            Throws => "throws",
            Transient => "transient",
            Try => "try",
            Void => "void",
            Volatile => "volatile",
            While => "while",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl TokenKind {
    /// Classifies an identifier-shaped word: a keyword, `true`, `false`,
    /// `null` or an identifier. Keywords are grouped by first byte, so a
    /// word is compared with at most six of them.
    pub(crate) fn of_word(word: &str) -> TokenKind {
        use Keyword::*;
        let keywords: &[Keyword] = match word.as_bytes().first() {
            Some(b'a') => &[Abstract, Assert],
            Some(b'b') => &[Boolean, Break, Byte],
            Some(b'c') => &[Case, Catch, Char, Class, Continue],
            Some(b'd') => &[Default, Do, Double],
            Some(b'e') => &[Else, Extends],
            Some(b'f') => &[Final, Finally, Float, For],
            Some(b'i') => &[If, Implements, Import, Instanceof, Int, Interface],
            Some(b'l') => &[Long],
            Some(b'n') => &[Native, New],
            Some(b'p') => &[Package, Private, Protected, Public],
            Some(b'r') => &[Return],
            Some(b's') => &[Short, Static, Super, Switch, Synchronized],
            Some(b't') => &[This, Throw, Throws, Transient, Try],
            Some(b'v') => &[Void, Volatile],
            Some(b'w') => &[While],
            _ => &[],
        };
        if let Some(&kw) = keywords.iter().find(|kw| kw.as_str() == word) {
            return TokenKind::Keyword(kw);
        }
        match word {
            "true" => TokenKind::BoolLit(true),
            "false" => TokenKind::BoolLit(false),
            "null" => TokenKind::Null,
            _ => TokenKind::Ident,
        }
    }

    /// The source text of a kind that is always spelled the same way
    /// (keywords, `true`, `false`, `null`, punctuation); `None` for
    /// identifiers, number, string and character literals, and the end of
    /// input.
    pub(crate) fn fixed_text(self) -> Option<&'static str> {
        use TokenKind::*;
        Some(match self {
            IntLit | DoubleLit | StringLit | CharLit | Ident | Eof => return None,
            BoolLit(true) => "true",
            BoolLit(false) => "false",
            Null => "null",
            Keyword(k) => k.as_str(),
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            At => "@",
            ColonColon => "::",
            Colon => ":",
            Question => "?",
            Assign => "=",
            EqEq => "==",
            NotEq => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Bang => "!",
            AndAnd => "&&",
            OrOr => "||",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            PlusPlus => "++",
            MinusMinus => "--",
            PlusAssign => "+=",
            MinusAssign => "-=",
        })
    }
}

/// Source text for fixed-spelling kinds, a description for the others.
impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match (self.fixed_text(), self) {
            (Some(text), _) => text,
            (None, TokenKind::IntLit) => "integer literal",
            (None, TokenKind::DoubleLit) => "floating-point literal",
            (None, TokenKind::StringLit) => "string literal",
            (None, TokenKind::CharLit) => "character literal",
            (None, TokenKind::Ident) => "identifier",
            (None, _) => "<eof>",
        })
    }
}

/// A token: its kind and where it is. A token owns no heap memory; its
/// text is [`Token::text`] of the source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Token {
        Token { kind, span }
    }

    /// Whether this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        self.kind == TokenKind::Keyword(kw)
    }

    /// The token's text in `src`, the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        self.span.slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        use Keyword::*;
        let all = [
            Abstract,
            Assert,
            Boolean,
            Break,
            Byte,
            Case,
            Catch,
            Char,
            Class,
            Continue,
            Default,
            Do,
            Double,
            Else,
            Extends,
            Final,
            Finally,
            Float,
            For,
            If,
            Implements,
            Import,
            Instanceof,
            Int,
            Interface,
            Long,
            Native,
            New,
            Package,
            Private,
            Protected,
            Public,
            Return,
            Short,
            Static,
            Super,
            Switch,
            Synchronized,
            This,
            Throw,
            Throws,
            Transient,
            Try,
            Void,
            Volatile,
            While,
        ];
        for kw in all {
            assert_eq!(TokenKind::of_word(kw.as_str()), TokenKind::Keyword(kw));
        }
    }

    #[test]
    fn non_keyword_is_none() {
        // `var` is a contextual word, not reserved in our subset; the rest
        // are prefixes, extensions or other cases of reserved words.
        for word in
            ["iterator", "", "var", "i", "in", "fo", "fore", "Class", "whiles", "truex", "_"]
        {
            assert_eq!(TokenKind::of_word(word), TokenKind::Ident, "{word}");
        }
    }

    #[test]
    fn literal_words_are_not_identifiers() {
        assert_eq!(TokenKind::of_word("true"), TokenKind::BoolLit(true));
        assert_eq!(TokenKind::of_word("false"), TokenKind::BoolLit(false));
        assert_eq!(TokenKind::of_word("null"), TokenKind::Null);
    }

    #[test]
    fn token_display_is_sourcelike() {
        assert_eq!(TokenKind::AndAnd.to_string(), "&&");
        assert_eq!(TokenKind::Keyword(Keyword::Class).to_string(), "class");
        assert_eq!(TokenKind::BoolLit(false).to_string(), "false");
        assert_eq!(TokenKind::Ident.to_string(), "identifier");
        assert_eq!(TokenKind::IntLit.to_string(), "integer literal");
        assert_eq!(TokenKind::Eof.to_string(), "<eof>");
    }

    #[test]
    fn tokens_are_small_and_read_their_text_from_the_source() {
        assert!(size_of::<Token>() <= 40);
        let src = "int count;";
        let span = Span::new(crate::span::Pos::new(4, 1, 5), crate::span::Pos::new(9, 1, 10));
        assert_eq!(Token::new(TokenKind::Ident, span).text(src), "count");
    }

    #[test]
    fn is_keyword_checks_kind() {
        let t = Token::new(TokenKind::Keyword(Keyword::If), Span::DUMMY);
        assert!(t.is_keyword(Keyword::If));
        assert!(!t.is_keyword(Keyword::Else));
    }
}
