//! Token definitions for the MiniHPC language.

use crate::span::Span;
use std::fmt;

/// The kind of a lexical token.
///
/// `Copy`: no variant owns heap data. An identifier's text is not stored
/// in the token — it is the source slice its [`Token::span`] covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    // Literals
    /// Integer literal, e.g. `42`.
    Int(i64),
    /// Floating-point literal, e.g. `3.25`.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// Identifier (a name that is not a keyword); its text is the
    /// source slice under the token's span.
    Ident,

    // Keywords (control flow and declarations)
    /// `fn`
    Fn,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `in`
    In,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `print`
    Print,

    // Keywords (OpenMP-model constructs)
    /// `parallel`
    Parallel,
    /// `single`
    Single,
    /// `master`
    Master,
    /// `critical`
    Critical,
    /// `barrier`
    Barrier,
    /// `pfor` — worksharing loop (`#pragma omp for`)
    PFor,
    /// `sections`
    Sections,
    /// `section`
    Section,
    /// `nowait` clause
    Nowait,
    /// `num_threads` clause
    NumThreadsClause,

    // Types
    /// `int`
    TyInt,
    /// `float`
    TyFloat,
    /// `bool`
    TyBool,
    /// `void`
    TyVoid,

    // Punctuation
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
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `->`
    Arrow,
    /// `..`
    DotDot,

    // Operators
    /// `=`
    Assign,
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
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,

    /// End of file.
    Eof,
}

impl TokenKind {
    /// A short human-readable description used in parse error messages.
    /// An identifier describes itself as plain `identifier`: the parser,
    /// which holds the source, appends the name.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Bool(v) => format!("`{v}`"),
            TokenKind::Ident => "identifier".into(),
            TokenKind::Fn => "`fn`".into(),
            TokenKind::Let => "`let`".into(),
            TokenKind::If => "`if`".into(),
            TokenKind::Else => "`else`".into(),
            TokenKind::While => "`while`".into(),
            TokenKind::For => "`for`".into(),
            TokenKind::In => "`in`".into(),
            TokenKind::Return => "`return`".into(),
            TokenKind::Break => "`break`".into(),
            TokenKind::Continue => "`continue`".into(),
            TokenKind::Print => "`print`".into(),
            TokenKind::Parallel => "`parallel`".into(),
            TokenKind::Single => "`single`".into(),
            TokenKind::Master => "`master`".into(),
            TokenKind::Critical => "`critical`".into(),
            TokenKind::Barrier => "`barrier`".into(),
            TokenKind::PFor => "`pfor`".into(),
            TokenKind::Sections => "`sections`".into(),
            TokenKind::Section => "`section`".into(),
            TokenKind::Nowait => "`nowait`".into(),
            TokenKind::NumThreadsClause => "`num_threads`".into(),
            TokenKind::TyInt => "`int`".into(),
            TokenKind::TyFloat => "`float`".into(),
            TokenKind::TyBool => "`bool`".into(),
            TokenKind::TyVoid => "`void`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::DotDot => "`..`".into(),
            TokenKind::Assign => "`=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Percent => "`%`".into(),
            TokenKind::EqEq => "`==`".into(),
            TokenKind::NotEq => "`!=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::AndAnd => "`&&`".into(),
            TokenKind::OrOr => "`||`".into(),
            TokenKind::Not => "`!`".into(),
            TokenKind::Eof => "end of file".into(),
        }
    }

    /// Map an identifier string to its keyword token, if it is one.
    pub fn keyword(ident: &str) -> Option<TokenKind> {
        Some(match ident {
            "fn" => TokenKind::Fn,
            "let" => TokenKind::Let,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "print" => TokenKind::Print,
            "parallel" => TokenKind::Parallel,
            "single" => TokenKind::Single,
            "master" => TokenKind::Master,
            "critical" => TokenKind::Critical,
            "barrier" => TokenKind::Barrier,
            "pfor" => TokenKind::PFor,
            "sections" => TokenKind::Sections,
            "section" => TokenKind::Section,
            "nowait" => TokenKind::Nowait,
            "num_threads" => TokenKind::NumThreadsClause,
            "int" => TokenKind::TyInt,
            "float" => TokenKind::TyFloat,
            "bool" => TokenKind::TyBool,
            "void" => TokenKind::TyVoid,
            "true" => TokenKind::Bool(true),
            "false" => TokenKind::Bool(false),
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

impl Token {
    /// Construct a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(TokenKind::keyword("fn"), Some(TokenKind::Fn));
        assert_eq!(TokenKind::keyword("parallel"), Some(TokenKind::Parallel));
        assert_eq!(TokenKind::keyword("nowait"), Some(TokenKind::Nowait));
        assert_eq!(TokenKind::keyword("true"), Some(TokenKind::Bool(true)));
        assert_eq!(TokenKind::keyword("MPI_Barrier"), None);
        assert_eq!(TokenKind::keyword("x"), None);
    }

    #[test]
    fn tokens_are_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Token>();
        assert_eq!(std::mem::size_of::<Token>(), 24);
    }

    #[test]
    fn describe_is_nonempty() {
        for k in [
            TokenKind::Fn,
            TokenKind::DotDot,
            TokenKind::Eof,
            TokenKind::Ident,
            TokenKind::Int(7),
        ] {
            assert!(!k.describe().is_empty());
        }
    }
}
