//! Hand-written lexer for MiniHPC.
//!
//! Produces a flat `Vec<Token>` terminated by an `Eof` token. Tokens are
//! `Copy` and own no text: an identifier is its span, and whoever needs
//! the name reads it back from the source. Lexical errors are reported
//! through [`Diagnostics`] and the offending characters are skipped so
//! that parsing can proceed and report further errors.
//!
//! The lexer steps over every newline of the text, those inside block
//! comments included, so it also records where each line starts: a
//! whole-file lex ([`lex_source`]) hands back the file's [`SourceMap`]
//! without a second pass over the text.

use crate::diag::Diagnostics;
use crate::span::{SourceMap, Span};
use crate::token::{Token, TokenKind};

/// Lex `src` completely, with spans counted from offset 0.
///
/// Always returns a token stream ending in `Eof`; on malformed input the
/// diagnostics collection will contain errors.
pub fn lex(src: &str, diags: &mut Diagnostics) -> Vec<Token> {
    lex_at(src, 0, diags)
}

/// Lex the whole file `src` (named `name` in diagnostics) and build its
/// source map from the line starts met on the way; the map equals
/// [`SourceMap::new`]`(name, src)`.
pub fn lex_source(name: &str, src: &str, diags: &mut Diagnostics) -> (Vec<Token>, SourceMap) {
    let (tokens, line_starts) = Lexer::new(src, 0, diags).run();
    (tokens, SourceMap::from_line_starts(name, src, line_starts))
}

/// Lex `src` as the text found at byte offset `base` of a larger file:
/// every span (tokens and diagnostics) is `base` + the position in
/// `src`. This is how the daemon re-lexes one function of a resident
/// document without touching the text before it.
pub fn lex_at(src: &str, base: u32, diags: &mut Diagnostics) -> Vec<Token> {
    Lexer::new(src, base, diags).run().0
}

struct Lexer<'a, 'd> {
    src: &'a str,
    base: u32,
    pos: usize,
    tokens: Vec<Token>,
    /// Offset in `src` of the start of every line met so far.
    line_starts: Vec<u32>,
    diags: &'d mut Diagnostics,
}

impl<'a, 'd> Lexer<'a, 'd> {
    fn new(src: &'a str, base: u32, diags: &'d mut Diagnostics) -> Self {
        // The workloads, the catalogue and the generated scenarios run
        // at 3.2–4.3 source bytes per token and 25–34 per line, so each
        // vector is one allocation that almost never grows (and pages it
        // never touches are never resident).
        let mut line_starts = Vec::with_capacity(src.len() / 24 + 1);
        line_starts.push(0);
        Lexer {
            src,
            base,
            pos: 0,
            tokens: Vec::with_capacity(src.len() / 3 + 1),
            line_starts,
            diags,
        }
    }

    fn peek(&self) -> u8 {
        self.src.as_bytes().get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.as_bytes().get(self.pos + 1).copied().unwrap_or(0)
    }

    /// The absolute span from `lo` to the current position.
    fn span_from(&self, lo: usize) -> Span {
        Span::new(self.base + lo as u32, self.base + self.pos as u32)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    /// Step over one byte of trivia, recording the line a newline opens.
    fn bump_trivia(&mut self) {
        if self.bump() == b'\n' {
            self.line_starts.push(self.pos as u32);
        }
    }

    fn push(&mut self, kind: TokenKind, lo: usize) {
        self.tokens.push(Token::new(kind, self.span_from(lo)));
    }

    fn run(mut self) -> (Vec<Token>, Vec<u32>) {
        loop {
            self.skip_trivia();
            let lo = self.pos;
            if self.pos >= self.src.len() {
                self.push(TokenKind::Eof, lo);
                break;
            }
            match self.peek() {
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'(' => {
                    self.bump();
                    self.push(TokenKind::LParen, lo);
                }
                b')' => {
                    self.bump();
                    self.push(TokenKind::RParen, lo);
                }
                b'{' => {
                    self.bump();
                    self.push(TokenKind::LBrace, lo);
                }
                b'}' => {
                    self.bump();
                    self.push(TokenKind::RBrace, lo);
                }
                b'[' => {
                    self.bump();
                    self.push(TokenKind::LBracket, lo);
                }
                b']' => {
                    self.bump();
                    self.push(TokenKind::RBracket, lo);
                }
                b',' => {
                    self.bump();
                    self.push(TokenKind::Comma, lo);
                }
                b';' => {
                    self.bump();
                    self.push(TokenKind::Semi, lo);
                }
                b':' => {
                    self.bump();
                    self.push(TokenKind::Colon, lo);
                }
                b'+' => {
                    self.bump();
                    self.push(TokenKind::Plus, lo);
                }
                b'-' => {
                    self.bump();
                    if self.peek() == b'>' {
                        self.bump();
                        self.push(TokenKind::Arrow, lo);
                    } else {
                        self.push(TokenKind::Minus, lo);
                    }
                }
                b'*' => {
                    self.bump();
                    self.push(TokenKind::Star, lo);
                }
                b'/' => {
                    self.bump();
                    self.push(TokenKind::Slash, lo);
                }
                b'%' => {
                    self.bump();
                    self.push(TokenKind::Percent, lo);
                }
                b'=' => {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        self.push(TokenKind::EqEq, lo);
                    } else {
                        self.push(TokenKind::Assign, lo);
                    }
                }
                b'!' => {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        self.push(TokenKind::NotEq, lo);
                    } else {
                        self.push(TokenKind::Not, lo);
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        self.push(TokenKind::Le, lo);
                    } else {
                        self.push(TokenKind::Lt, lo);
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        self.push(TokenKind::Ge, lo);
                    } else {
                        self.push(TokenKind::Gt, lo);
                    }
                }
                b'&' => {
                    self.bump();
                    if self.peek() == b'&' {
                        self.bump();
                        self.push(TokenKind::AndAnd, lo);
                    } else {
                        self.diags.error(
                            "lex-error",
                            "unexpected `&`; did you mean `&&`?",
                            self.span_from(lo),
                        );
                    }
                }
                b'|' => {
                    self.bump();
                    if self.peek() == b'|' {
                        self.bump();
                        self.push(TokenKind::OrOr, lo);
                    } else {
                        self.diags.error(
                            "lex-error",
                            "unexpected `|`; did you mean `||`?",
                            self.span_from(lo),
                        );
                    }
                }
                b'.' => {
                    self.bump();
                    if self.peek() == b'.' {
                        self.bump();
                        self.push(TokenKind::DotDot, lo);
                    } else {
                        self.diags.error(
                            "lex-error",
                            "unexpected `.`; standalone dots are not valid",
                            self.span_from(lo),
                        );
                    }
                }
                _ => {
                    // Not necessarily ASCII: `pos` is on a character
                    // boundary (everything consumed so far ended on an
                    // ASCII byte), so report the whole character once.
                    let c = self.src[lo..].chars().next().expect("pos < len");
                    self.pos += c.len_utf8();
                    self.diags.error(
                        "lex-error",
                        format!("unexpected character `{c}`"),
                        self.span_from(lo),
                    );
                }
            }
        }
        (self.tokens, self.line_starts)
    }

    /// Skip whitespace, `//` line comments and `/* */` block comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump_trivia(),
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let lo = self.pos;
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while self.pos < self.src.len() {
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            closed = true;
                            break;
                        }
                        self.bump_trivia();
                    }
                    if !closed {
                        self.diags.error(
                            "lex-error",
                            "unterminated block comment",
                            self.span_from(lo),
                        );
                    }
                }
                _ => break,
            }
        }
    }

    fn number(&mut self) {
        let lo = self.pos;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        // A float has `<digits> . <digits>`; take care not to consume the
        // `..` of a range expression.
        let is_float = self.peek() == b'.' && self.peek2().is_ascii_digit();
        if is_float {
            self.bump(); // '.'
            while self.peek().is_ascii_digit() {
                self.bump();
            }
            // Optional exponent.
            if self.peek() == b'e' || self.peek() == b'E' {
                let save = self.pos;
                self.bump();
                if self.peek() == b'+' || self.peek() == b'-' {
                    self.bump();
                }
                if self.peek().is_ascii_digit() {
                    while self.peek().is_ascii_digit() {
                        self.bump();
                    }
                } else {
                    self.pos = save;
                }
            }
        }
        let text = &self.src[lo..self.pos];
        let span = self.span_from(lo);
        if is_float {
            match text.parse::<f64>() {
                Ok(v) => self.push(TokenKind::Float(v), lo),
                Err(_) => {
                    self.diags
                        .error("lex-error", format!("invalid float literal `{text}`"), span)
                }
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => self.push(TokenKind::Int(v), lo),
                Err(_) => self.diags.error(
                    "lex-error",
                    format!("integer literal `{text}` out of range"),
                    span,
                ),
            }
        }
    }

    fn ident(&mut self) {
        let lo = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        let kind = TokenKind::keyword(&self.src[lo..self.pos]).unwrap_or(TokenKind::Ident);
        self.push(kind, lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_ok(src: &str) -> Vec<TokenKind> {
        let mut diags = Diagnostics::new();
        let toks = lex(src, &mut diags);
        assert!(!diags.has_errors(), "unexpected errors: {diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn empty_input_yields_eof() {
        assert_eq!(lex_ok(""), vec![TokenKind::Eof]);
        assert_eq!(lex_ok("   \n\t "), vec![TokenKind::Eof]);
    }

    #[test]
    fn keywords_and_idents() {
        let toks = lex_ok("fn main parallel single MPI_Barrier x_1");
        assert_eq!(
            toks,
            vec![
                TokenKind::Fn,
                TokenKind::Ident,
                TokenKind::Parallel,
                TokenKind::Single,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn identifier_text_is_the_source_under_the_span() {
        let src = "fn main parallel MPI_Barrier x_1";
        let mut diags = Diagnostics::new();
        let names: Vec<&str> = lex(src, &mut diags)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| &src[t.span.lo as usize..t.span.hi as usize])
            .collect();
        assert_eq!(names, ["main", "MPI_Barrier", "x_1"]);
    }

    #[test]
    fn base_offset_shifts_every_span() {
        let src = "let xy = $ 12;";
        let (mut d0, mut d7) = (Diagnostics::new(), Diagnostics::new());
        let at0 = lex(src, &mut d0);
        let at7 = lex_at(src, 7, &mut d7);
        assert_eq!(at0.len(), at7.len());
        for (a, b) in at0.iter().zip(&at7) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(Span::new(a.span.lo + 7, a.span.hi + 7), b.span);
        }
        let (e0, e7) = (d0.into_vec(), d7.into_vec());
        assert_eq!(e0[0].span, Span::new(9, 10));
        assert_eq!(e7[0].span, Span::new(16, 17));
    }

    #[test]
    fn non_ascii_character_is_reported_once_and_whole() {
        let src = "fn main() { \u{e9} \u{1F600} }";
        let mut diags = Diagnostics::new();
        let toks = lex(src, &mut diags);
        assert_eq!(toks.len(), 7, "fn main ( ) {{ }} eof");
        let errs = diags.iter().collect::<Vec<_>>();
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].message, "unexpected character `\u{e9}`");
        assert_eq!(errs[1].message, "unexpected character `\u{1F600}`");
        for e in &errs {
            assert!(src.is_char_boundary(e.span.lo as usize));
            assert!(src.is_char_boundary(e.span.hi as usize));
        }
        let sm = crate::span::SourceMap::new("t.mh", src);
        assert!(diags.render(&sm).contains('\u{e9}'));
    }

    #[test]
    fn numbers() {
        let toks = lex_ok("0 42 3.5 1.0e3 2.5e-2");
        assert_eq!(
            toks,
            vec![
                TokenKind::Int(0),
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        let toks = lex_ok("0..10");
        assert_eq!(
            toks,
            vec![
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Int(10),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators() {
        let toks = lex_ok("== != <= >= < > && || ! -> .. = + - * / %");
        assert_eq!(
            toks,
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Not,
                TokenKind::Arrow,
                TokenKind::DotDot,
                TokenKind::Assign,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex_ok("a // comment\n b /* multi\nline */ c");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_comment_is_error() {
        let mut diags = Diagnostics::new();
        lex("a /* never closed", &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn stray_characters_are_errors_but_lexing_continues() {
        let mut diags = Diagnostics::new();
        let toks = lex("a $ b", &mut diags);
        assert!(diags.has_errors());
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TokenKind::Ident, TokenKind::Ident, TokenKind::Eof,]
        );
    }

    #[test]
    fn single_amp_and_pipe_are_errors() {
        let mut diags = Diagnostics::new();
        lex("a & b | c", &mut diags);
        assert_eq!(diags.count(crate::diag::Severity::Error), 2);
    }

    #[test]
    fn spans_are_correct() {
        let mut diags = Diagnostics::new();
        let toks = lex("let xy = 12;", &mut diags);
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(4, 6));
        assert_eq!(toks[2].span, Span::new(7, 8));
        assert_eq!(toks[3].span, Span::new(9, 11));
        assert_eq!(toks[4].span, Span::new(11, 12));
    }

    #[test]
    fn huge_integer_is_error() {
        let mut diags = Diagnostics::new();
        lex("999999999999999999999999999", &mut diags);
        assert!(diags.has_errors());
    }
}
