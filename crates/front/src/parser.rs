//! Recursive-descent parser for MiniHPC.
//!
//! The grammar is LL(2); see `DESIGN.md` §4 for the surface syntax. The
//! parser is resilient: on error it records a diagnostic and synchronizes
//! to the next statement/function boundary so one typo does not hide the
//! rest of the program.
//!
//! Tokens are `Copy` and carry no text. The parser borrows the source
//! and reads an identifier's name from under its span exactly where an
//! AST [`Ident`] is built — interning it into the unit's [`Interner`] —
//! or an error message names it.
//!
//! Expression productions return their node *by value*; whoever embeds
//! it moves it into the function's arena ([`Function::exprs`]) and keeps
//! the [`ExprId`]. Children therefore precede their parent, and an
//! argument list — parked on a side stack until its closing parenthesis
//! — lands in consecutive slots ([`ExprRange`]). Statements work the
//! same way: a block's statements wait on a side stack until its closing
//! brace and then move, consecutively, into the function's statement
//! arena ([`Function::stmts`], a [`StmtRange`]). Both arenas are scratch
//! vectors of the parser, copied out at their final size when a function
//! ends.
//!
//! Binary operators are parsed by one precedence-climbing loop
//! (`Parser::binary_expr`) over the levels `||` < `&&` < comparisons <
//! `+ -` < `* / %`; every level but the comparisons associates to the
//! left, and `a < b < c` is an error.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::{lex_at, lex_source};
use crate::span::{SourceMap, Span};
use crate::symbol::Interner;
use crate::token::{Token, TokenKind};

/// How deep expressions and blocks may nest before the parser gives up
/// with one `nesting too deep` error.
///
/// Every recursive consumer of the AST (sema, lowering, the pretty
/// printer, `Clone`, `Drop`) recurses once per level, so this bound is
/// what keeps hostile input — 100 000 opening parentheses — from
/// overflowing the stack of the thread that compiles it. Chosen by
/// measurement: in a debug build on a 2 MiB stack (the default for
/// spawned threads, so what daemon workers and `cargo test` run on),
/// parse + sema + lower + pretty-print + clone + drop survive 354 levels
/// of the most expensive construct (nested call arguments, ≈ 5.9 KiB a
/// level) and 390–800 of the others. `crates/ir/tests/nesting_limit.rs`
/// runs that pipeline at the limit on a 1.5 MiB stack.
pub const MAX_NESTING: u32 = 200;

/// Parse a complete program from source text.
///
/// Returns the (possibly partial) AST plus diagnostics; callers should
/// check [`Diagnostics::has_errors`] before trusting the AST.
pub fn parse_program(src: &str) -> (Program, Diagnostics) {
    let mut interner = Interner::new();
    let (functions, diags) = parse_functions_at(src, 0, &mut interner);
    (
        Program {
            functions,
            interner,
        },
        diags,
    )
}

/// [`parse_program`] of the file `src`, named `name` in diagnostics,
/// plus its source map — built from the line starts the lexer met on
/// its way through the text ([`lex_source`]).
pub fn parse_source(name: &str, src: &str) -> (Program, Diagnostics, SourceMap) {
    let mut diags = Diagnostics::new();
    let (tokens, source_map) = lex_source(name, src, &mut diags);
    let mut interner = Interner::new();
    let (functions, diags) = Parser::new(src, 0, tokens, diags, &mut interner).run();
    (
        Program {
            functions,
            interner,
        },
        diags,
        source_map,
    )
}

/// Parse `src` as the text found at byte offset `base` of a larger
/// file whose identifiers live in `interner`: every span in the
/// functions and the diagnostics is absolute (equal, span for span, to
/// parsing `src` behind `base` blanks), and every symbol is `interner`'s
/// — the daemon reparses one function of a document this way, into the
/// document's own interner.
pub fn parse_functions_at(
    src: &str,
    base: u32,
    interner: &mut Interner,
) -> (Vec<Function>, Diagnostics) {
    let mut diags = Diagnostics::new();
    let tokens = lex_at(src, base, &mut diags);
    Parser::new(src, base, tokens, diags, interner).run()
}

struct Parser<'s> {
    src: &'s str,
    /// Offset of `src` in the file its spans refer to.
    base: u32,
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    interner: &'s mut Interner,
    /// The expression arena of the function being parsed.
    exprs: Vec<Expr>,
    /// Arguments of the calls being parsed, innermost last, until their
    /// list is complete.
    args: Vec<Expr>,
    /// The statement arena of the function being parsed.
    stmts: Vec<Stmt>,
    /// Statements of the blocks being parsed, innermost last, until
    /// their block is complete.
    open: Vec<Stmt>,
    /// Current nesting of expressions and blocks, see [`MAX_NESTING`].
    depth: u32,
    /// Set once the nesting limit was hit: the rest of the input is
    /// skipped and no further error is recorded.
    too_deep: bool,
}

/// The binding level of a binary operator token, loosest first, with
/// its operator; `None` for every other token.
fn binary_op(kind: TokenKind) -> Option<(u8, BinOp)> {
    Some(match kind {
        TokenKind::OrOr => (0, BinOp::Or),
        TokenKind::AndAnd => (1, BinOp::And),
        TokenKind::EqEq => (CMP, BinOp::Eq),
        TokenKind::NotEq => (CMP, BinOp::Ne),
        TokenKind::Lt => (CMP, BinOp::Lt),
        TokenKind::Le => (CMP, BinOp::Le),
        TokenKind::Gt => (CMP, BinOp::Gt),
        TokenKind::Ge => (CMP, BinOp::Ge),
        TokenKind::Plus => (3, BinOp::Add),
        TokenKind::Minus => (3, BinOp::Sub),
        TokenKind::Star => (4, BinOp::Mul),
        TokenKind::Slash => (4, BinOp::Div),
        TokenKind::Percent => (4, BinOp::Rem),
        _ => return None,
    })
}

/// The level of the comparisons, which do not associate.
const CMP: u8 = 2;

impl<'s> Parser<'s> {
    fn new(
        src: &'s str,
        base: u32,
        tokens: Vec<Token>,
        diags: Diagnostics,
        interner: &'s mut Interner,
    ) -> Self {
        Parser {
            src,
            base,
            tokens,
            pos: 0,
            diags,
            interner,
            exprs: Vec::new(),
            args: Vec::new(),
            stmts: Vec::new(),
            open: Vec::new(),
            depth: 0,
            too_deep: false,
        }
    }

    /// Parse every function of the token stream.
    fn run(mut self) -> (Vec<Function>, Diagnostics) {
        let functions = self.functions();
        (functions, self.diags)
    }

    fn tok(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> TokenKind {
        self.tok().kind
    }

    fn peek2(&self) -> TokenKind {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tok().span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tok();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// The source text under `span` (a span of one of this parser's
    /// tokens).
    fn text(&self, span: Span) -> &'s str {
        &self.src[(span.lo - self.base) as usize..(span.hi - self.base) as usize]
    }

    /// The current token as error messages name it: an identifier with
    /// its name, anything else by kind.
    fn found(&self) -> String {
        let t = self.tok();
        match t.kind {
            TokenKind::Ident => format!("identifier `{}`", self.text(t.span)),
            kind => kind.describe(),
        }
    }

    fn error(&mut self, message: impl Into<String>, span: Span) {
        if !self.too_deep {
            self.diags.error("parse-error", message, span);
        }
    }

    /// Enter one more level of expression or block nesting. `false`
    /// means the limit is reached: one error is recorded, the rest of
    /// the input is dropped (every enclosing production then sees end
    /// of file and returns), and the caller must not recurse.
    fn enter(&mut self) -> bool {
        if self.depth >= MAX_NESTING {
            let span = self.span();
            self.error(
                format!(
                    "nesting too deep (more than {MAX_NESTING} levels of expressions or blocks)"
                ),
                span,
            );
            self.too_deep = true;
            self.pos = self.tokens.len() - 1;
            return false;
        }
        self.depth += 1;
        true
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> bool {
        if self.eat(kind) {
            true
        } else {
            let msg = format!("expected {}, found {}", kind.describe(), self.found());
            self.error(msg, self.span());
            false
        }
    }

    /// The identifier under the cursor, if there is one: its name and
    /// span, consumed.
    fn eat_ident(&mut self) -> Option<(&'s str, Span)> {
        if self.at(TokenKind::Ident) {
            let span = self.bump().span;
            Some((self.text(span), span))
        } else {
            None
        }
    }

    fn ident(&mut self, name: &str, span: Span) -> Ident {
        Ident::new(self.interner.intern(name), span)
    }

    fn expect_ident(&mut self, what: &str) -> Ident {
        match self.eat_ident() {
            Some((name, span)) => self.ident(name, span),
            None => {
                let msg = format!("expected {what}, found {}", self.found());
                self.error(msg, self.span());
                self.ident("<error>", self.span())
            }
        }
    }

    /// Move a finished node into the function's arena.
    fn alloc(&mut self, e: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    /// Parse an expression and place it in the arena.
    fn expr_id(&mut self) -> ExprId {
        let e = self.expr();
        self.alloc(e)
    }

    /// `e, e, …` up to (not including) the closing parenthesis, placed
    /// in consecutive arena slots.
    fn arg_list(&mut self) -> ExprRange {
        let mark = self.args.len();
        if !self.at(TokenKind::RParen) {
            loop {
                let e = self.expr();
                self.args.push(e);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let start = self.exprs.len() as u32;
        self.exprs.extend(self.args.drain(mark..));
        ExprRange {
            start,
            len: self.exprs.len() as u32 - start,
        }
    }

    /// Skip tokens until a plausible statement start or block boundary.
    fn synchronize_stmt(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace | TokenKind::Eof => return,
                TokenKind::Let
                | TokenKind::If
                | TokenKind::While
                | TokenKind::For
                | TokenKind::Return
                | TokenKind::Parallel
                | TokenKind::Single
                | TokenKind::Master
                | TokenKind::Critical
                | TokenKind::Barrier
                | TokenKind::PFor
                | TokenKind::Sections
                | TokenKind::Fn => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- grammar productions -------------------------------------------

    fn functions(&mut self) -> Vec<Function> {
        let mut functions = Vec::new();
        while !self.at(TokenKind::Eof) {
            if self.at(TokenKind::Fn) {
                functions.push(self.function());
            } else {
                let msg = format!("expected `fn` at top level, found {}", self.found());
                self.error(msg, self.span());
                self.bump();
                // Skip until the next `fn` or EOF.
                while !self.at(TokenKind::Fn) && !self.at(TokenKind::Eof) {
                    self.bump();
                }
            }
        }
        functions
    }

    fn function(&mut self) -> Function {
        let start = self.span();
        self.expect(TokenKind::Fn);
        let name = self.expect_ident("function name");
        self.expect(TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let pname = self.expect_ident("parameter name");
                self.expect(TokenKind::Colon);
                let ty = self.ty();
                params.push(Param { name: pname, ty });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen);
        let ret = if self.eat(TokenKind::Arrow) {
            self.ty()
        } else {
            Type::Void
        };
        let body = self.block();
        let span = start.to(body.span);
        // One allocation of the final size each; the scratch arenas are
        // reused.
        let stmts = self.stmts.as_slice().to_vec();
        self.stmts.clear();
        let exprs = self.exprs.as_slice().to_vec();
        self.exprs.clear();
        Function {
            name,
            params,
            ret,
            body,
            stmts,
            exprs,
            span,
        }
    }

    fn ty(&mut self) -> Type {
        let base = match self.peek() {
            TokenKind::TyInt => {
                self.bump();
                Type::Int
            }
            TokenKind::TyFloat => {
                self.bump();
                Type::Float
            }
            TokenKind::TyBool => {
                self.bump();
                Type::Bool
            }
            TokenKind::TyVoid => {
                self.bump();
                Type::Void
            }
            _ => {
                let msg = format!("expected type, found {}", self.found());
                self.error(msg, self.span());
                self.bump();
                Type::Int
            }
        };
        // Array suffix `[]`.
        if self.at(TokenKind::LBracket) && self.peek2() == TokenKind::RBracket {
            self.bump();
            self.bump();
            match Type::array_of(base) {
                Some(t) => t,
                None => {
                    self.error(format!("`{base}[]` is not a valid type"), self.prev_span());
                    Type::ArrayInt
                }
            }
        } else {
            base
        }
    }

    /// Move the statements parked since `mark` into the arena, as one
    /// run.
    fn close_block(&mut self, mark: usize) -> StmtRange {
        let start = self.stmts.len() as u32;
        self.stmts.extend(self.open.drain(mark..));
        StmtRange {
            start,
            len: self.stmts.len() as u32 - start,
        }
    }

    fn block(&mut self) -> Block {
        let start = self.span();
        let mark = self.open.len();
        if !self.expect(TokenKind::LBrace) {
            return Block {
                stmts: self.close_block(mark),
                span: start,
            };
        }
        if self.enter() {
            while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
                let before = self.pos;
                let s = self.stmt();
                self.open.push(s);
                if self.pos == before {
                    // No progress: drop the offending token to avoid looping.
                    self.bump();
                }
            }
            self.depth -= 1;
        }
        let end = self.span();
        self.expect(TokenKind::RBrace);
        Block {
            stmts: self.close_block(mark),
            span: start.to(end),
        }
    }

    fn stmt(&mut self) -> Stmt {
        let start = self.span();
        match self.peek() {
            TokenKind::Let => self.let_stmt(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Return => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr_id())
                };
                self.expect(TokenKind::Semi);
                Stmt::new(StmtKind::Return(value), start.to(self.prev_span()))
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi);
                Stmt::new(StmtKind::Break, start.to(self.prev_span()))
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi);
                Stmt::new(StmtKind::Continue, start.to(self.prev_span()))
            }
            TokenKind::Print => {
                self.bump();
                self.expect(TokenKind::LParen);
                let args = self.arg_list();
                self.expect(TokenKind::RParen);
                self.expect(TokenKind::Semi);
                Stmt::new(StmtKind::Print(args), start.to(self.prev_span()))
            }
            TokenKind::Barrier => {
                self.bump();
                self.expect(TokenKind::Semi);
                Stmt::new(StmtKind::Barrier, start.to(self.prev_span()))
            }
            TokenKind::Parallel => self.parallel_stmt(),
            TokenKind::Single => self.single_stmt(),
            TokenKind::Master => {
                self.bump();
                let body = self.block();
                let span = start.to(body.span);
                Stmt::new(StmtKind::Omp(OmpStmt::Master { body }), span)
            }
            TokenKind::Critical => {
                self.bump();
                let body = self.block();
                let span = start.to(body.span);
                Stmt::new(StmtKind::Omp(OmpStmt::Critical { body }), span)
            }
            TokenKind::PFor => self.pfor_stmt(),
            TokenKind::Sections => self.sections_stmt(),
            TokenKind::Ident => self.assign_or_expr_stmt(),
            _ => {
                // Expression statement fallback (e.g. a bare MPI call would
                // be an Ident; anything else here is an error).
                let before = self.diags.len();
                let e = self.expr_id();
                if self.diags.len() > before {
                    self.synchronize_stmt();
                } else {
                    self.expect(TokenKind::Semi);
                }
                Stmt::new(StmtKind::Expr(e), start.to(self.prev_span()))
            }
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // let
        let name = self.expect_ident("variable name");
        let ty = if self.eat(TokenKind::Colon) {
            Some(self.ty())
        } else {
            None
        };
        self.expect(TokenKind::Assign);
        let init = self.expr_id();
        self.expect(TokenKind::Semi);
        Stmt::new(StmtKind::Let { name, ty, init }, start.to(self.prev_span()))
    }

    fn if_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // if
        self.expect(TokenKind::LParen);
        let cond = self.expr_id();
        self.expect(TokenKind::RParen);
        let then_blk = self.block();
        let else_blk = if self.eat(TokenKind::Else) {
            if self.at(TokenKind::If) {
                // `else if` sugar: wrap the nested if in a block (one
                // more level of nesting, like the block it stands for).
                let mut span = self.span();
                let mark = self.open.len();
                if self.enter() {
                    let s = self.if_stmt();
                    span = s.span;
                    self.open.push(s);
                    self.depth -= 1;
                }
                Some(Block {
                    stmts: self.close_block(mark),
                    span,
                })
            } else {
                Some(self.block())
            }
        } else {
            None
        };
        let end = else_blk.as_ref().map(|b| b.span).unwrap_or(then_blk.span);
        Stmt::new(
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            },
            start.to(end),
        )
    }

    fn while_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // while
        self.expect(TokenKind::LParen);
        let cond = self.expr_id();
        self.expect(TokenKind::RParen);
        let body = self.block();
        let span = start.to(body.span);
        Stmt::new(StmtKind::While { cond, body }, span)
    }

    fn for_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // for
        self.expect(TokenKind::LParen);
        let var = self.expect_ident("loop variable");
        self.expect(TokenKind::In);
        let lo = self.expr_id();
        self.expect(TokenKind::DotDot);
        let hi = self.expr_id();
        self.expect(TokenKind::RParen);
        let body = self.block();
        let span = start.to(body.span);
        Stmt::new(StmtKind::For { var, lo, hi, body }, span)
    }

    fn parallel_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // parallel
        let num_threads = if self.eat(TokenKind::NumThreadsClause) {
            self.expect(TokenKind::LParen);
            let e = self.expr_id();
            self.expect(TokenKind::RParen);
            Some(e)
        } else {
            None
        };
        let body = self.block();
        let span = start.to(body.span);
        Stmt::new(StmtKind::Omp(OmpStmt::Parallel { num_threads, body }), span)
    }

    fn single_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // single
        let nowait = self.eat(TokenKind::Nowait);
        let body = self.block();
        let span = start.to(body.span);
        Stmt::new(StmtKind::Omp(OmpStmt::Single { nowait, body }), span)
    }

    fn pfor_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // pfor
        let nowait = self.eat(TokenKind::Nowait);
        self.expect(TokenKind::LParen);
        let var = self.expect_ident("loop variable");
        self.expect(TokenKind::In);
        let lo = self.expr_id();
        self.expect(TokenKind::DotDot);
        let hi = self.expr_id();
        self.expect(TokenKind::RParen);
        let body = self.block();
        let span = start.to(body.span);
        Stmt::new(
            StmtKind::Omp(OmpStmt::PFor {
                nowait,
                var,
                lo,
                hi,
                body,
            }),
            span,
        )
    }

    fn sections_stmt(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // sections
        let nowait = self.eat(TokenKind::Nowait);
        self.expect(TokenKind::LBrace);
        let mut sections = Vec::new();
        while self.at(TokenKind::Section) {
            self.bump();
            sections.push(self.block());
        }
        if sections.is_empty() {
            self.error(
                "`sections` requires at least one `section` block",
                self.span(),
            );
        }
        let end = self.span();
        self.expect(TokenKind::RBrace);
        Stmt::new(
            StmtKind::Omp(OmpStmt::Sections { nowait, sections }),
            start.to(end),
        )
    }

    fn assign_or_expr_stmt(&mut self) -> Stmt {
        let start = self.span();
        // Lookahead: IDENT `=` → assign; IDENT `[` expr `]` `=` → indexed
        // assign. Anything else is an expression statement.
        if self.peek2() == TokenKind::Assign {
            let target = LValue::Var(self.expect_ident("variable name"));
            self.bump(); // =
            let value = self.expr_id();
            self.expect(TokenKind::Semi);
            return Stmt::new(
                StmtKind::Assign { target, value },
                start.to(self.prev_span()),
            );
        }
        if self.peek2() == TokenKind::LBracket {
            // Could be `a[i] = e;` or the expression `a[i]` — parse the
            // index then decide.
            let (save, save_exprs) = (self.pos, self.exprs.len());
            let name = self.expect_ident("array name");
            self.bump(); // [
            let idx = self.expr_id();
            self.expect(TokenKind::RBracket);
            if self.eat(TokenKind::Assign) {
                let value = self.expr_id();
                self.expect(TokenKind::Semi);
                return Stmt::new(
                    StmtKind::Assign {
                        target: LValue::Index(name, idx),
                        value,
                    },
                    start.to(self.prev_span()),
                );
            }
            // Not an assignment: rewind and reparse as expression.
            self.pos = save;
            self.exprs.truncate(save_exprs);
        }
        let e = self.expr_id();
        self.expect(TokenKind::Semi);
        Stmt::new(StmtKind::Expr(e), start.to(self.prev_span()))
    }

    // ---- expressions (precedence climbing) ------------------------------

    /// Every nested expression (parenthesized, argument, index) comes
    /// through here, so this is where expression nesting is counted.
    /// The operator loop below counts one level per operator too: each
    /// makes the tree one node deeper without any recursion in the
    /// parser.
    fn expr(&mut self) -> Expr {
        if !self.enter() {
            return Expr::new(ExprKind::Int(0), self.span());
        }
        let e = self.binary_expr(0);
        self.depth -= 1;
        e
    }

    fn binary(&mut self, op: BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
        let (l, r) = (self.alloc(lhs), self.alloc(rhs));
        Expr::new(ExprKind::Binary(op, l, r), span)
    }

    /// The operators of level `min` and tighter, folded to the left
    /// around unary operands; each right operand is the tighter levels'
    /// run that follows its operator.
    ///
    /// The operators one call consumes come in loosening levels (a
    /// tighter one is the right operand's). Nesting counts one level per
    /// operator of the current level's run, and the count of a tighter
    /// run is dropped when a looser operator takes its result as left
    /// operand — exactly what one function per level, restoring its
    /// count on return, counted. A comparison counts nothing and ends
    /// its level: `a < b < c` leaves the second `<` to whoever called
    /// the expression, which reports it.
    fn binary_expr(&mut self, min: u8) -> Expr {
        let mut lhs = self.unary_expr();
        let depth = self.depth;
        // The loosest level still open to this call, and the level of
        // the run being counted.
        let mut max = u8::MAX;
        let mut run = u8::MAX;
        while let Some((level, op)) = binary_op(self.peek()) {
            if level < min || level > max {
                break;
            }
            if level != run {
                self.depth = depth;
                run = level;
            }
            if level == CMP {
                max = CMP - 1;
            } else {
                if !self.enter() {
                    break;
                }
                max = level;
            }
            self.bump();
            let rhs = self.binary_expr(level + 1);
            let span = lhs.span.to(rhs.span);
            lhs = self.binary(op, lhs, rhs, span);
        }
        self.depth = depth;
        lhs
    }

    fn unary_expr(&mut self) -> Expr {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.primary_expr(),
        };
        if !self.enter() {
            return Expr::new(ExprKind::Int(0), start);
        }
        self.bump();
        let e = self.unary_expr();
        self.depth -= 1;
        let span = start.to(e.span);
        Expr::new(ExprKind::Unary(op, self.alloc(e)), span)
    }

    fn primary_expr(&mut self) -> Expr {
        let start = self.span();
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Expr::new(ExprKind::Int(v), start)
            }
            TokenKind::Float(v) => {
                self.bump();
                Expr::new(ExprKind::Float(v), start)
            }
            TokenKind::Bool(v) => {
                self.bump();
                Expr::new(ExprKind::Bool(v), start)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr();
                self.expect(TokenKind::RParen);
                e
            }
            TokenKind::Ident => {
                self.bump();
                let name = self.text(start);
                if self.at(TokenKind::LParen) {
                    return self.call_expr(name, start);
                }
                let constant = match name {
                    "MPI_COMM_WORLD" => Some(ExprKind::Mpi(MpiOp::CommWorld)),
                    "MPI_ANY_SOURCE" => Some(ExprKind::AnySource),
                    "MPI_ANY_TAG" => Some(ExprKind::AnyTag),
                    _ => None,
                };
                if let Some(kind) = constant {
                    Expr::new(kind, start)
                } else if self.at(TokenKind::LBracket) {
                    self.bump();
                    let idx = self.expr_id();
                    self.expect(TokenKind::RBracket);
                    let span = start.to(self.prev_span());
                    Expr::new(ExprKind::Index(self.ident(name, start), idx), span)
                } else {
                    Expr::new(ExprKind::Var(self.ident(name, start)), start)
                }
            }
            _ => {
                let msg = format!("expected expression, found {}", self.found());
                self.error(msg, start);
                // Produce a placeholder so parsing can continue.
                Expr::new(ExprKind::Int(0), start)
            }
        }
    }

    /// Parse `name(args…)` where `name` may be an MPI builtin, an
    /// intrinsic, or a user function.
    fn call_expr(&mut self, name: &str, start: Span) -> Expr {
        self.expect(TokenKind::LParen);

        if name.starts_with("MPI_") {
            return self.mpi_call(name, start);
        }

        let args = self.arg_list();
        self.expect(TokenKind::RParen);
        let span = start.to(self.prev_span());

        if let Some(intr) = Intrinsic::from_name(name) {
            Expr::new(ExprKind::Intrinsic(intr, args), span)
        } else {
            Expr::new(ExprKind::Call(self.ident(name, start), args), span)
        }
    }

    /// Argument position that must be a bare identifier (reduce op or
    /// thread level name).
    fn bare_name_arg(&mut self, what: &str) -> Option<(&'s str, Span)> {
        let arg = self.eat_ident();
        if arg.is_none() {
            let msg = format!("expected {what} name, found {}", self.found());
            self.error(msg, self.span());
        }
        arg
    }

    fn mpi_call(&mut self, name: &str, start: Span) -> Expr {
        // `(` already consumed.
        let op: Option<MpiOp<ExprId>> = match name {
            "MPI_Init" => Some(MpiOp::Init { required: None }),
            "MPI_Finalize" => Some(MpiOp::Finalize),
            "MPI_Init_thread" => {
                let level = self.bare_name_arg("thread level").and_then(|(level, span)| {
                    let l = ThreadLevel::from_name(level);
                    if l.is_none() {
                        self.error(
                            format!(
                                "unknown thread level `{level}` (expected SINGLE, FUNNELED, SERIALIZED or MULTIPLE)"
                            ),
                            span,
                        );
                    }
                    l
                });
                Some(MpiOp::Init {
                    required: Some(level.unwrap_or(ThreadLevel::Single)),
                })
            }
            "MPI_Send" => {
                let value = self.expr_id();
                self.expect(TokenKind::Comma);
                let dest = self.expr_id();
                self.expect(TokenKind::Comma);
                let tag = self.expr_id();
                let comm = self.trailing_comm_arg();
                Some(MpiOp::Send {
                    value,
                    dest,
                    tag,
                    comm,
                })
            }
            "MPI_Recv" => {
                let src = self.expr_id();
                self.expect(TokenKind::Comma);
                let tag = self.expr_id();
                let comm = self.trailing_comm_arg();
                Some(MpiOp::Recv { src, tag, comm })
            }
            "MPI_Comm_split" => {
                let parent = self.expr_id();
                self.expect(TokenKind::Comma);
                let color = self.expr_id();
                self.expect(TokenKind::Comma);
                let key = self.expr_id();
                Some(MpiOp::CommSplit { parent, color, key })
            }
            "MPI_Comm_dup" => {
                let comm = self.expr_id();
                Some(MpiOp::CommDup { comm })
            }
            "MPI_Isend" => {
                let value = self.expr_id();
                self.expect(TokenKind::Comma);
                let dest = self.expr_id();
                self.expect(TokenKind::Comma);
                let tag = self.expr_id();
                let comm = self.trailing_comm_arg();
                Some(MpiOp::Isend {
                    value,
                    dest,
                    tag,
                    comm,
                })
            }
            "MPI_Irecv" => {
                let src = self.expr_id();
                self.expect(TokenKind::Comma);
                let tag = self.expr_id();
                let comm = self.trailing_comm_arg();
                Some(MpiOp::Irecv { src, tag, comm })
            }
            "MPI_Wait" => {
                let request = self.expr_id();
                Some(MpiOp::Wait { request })
            }
            "MPI_Waitall" => {
                let requests = self.arg_list();
                if requests.is_empty() {
                    self.error("MPI_Waitall requires at least one request", start);
                }
                Some(MpiOp::Waitall { requests })
            }
            _ => match CollectiveKind::from_name(name) {
                Some(kind) => Some(self.collective_args(kind)),
                None => {
                    self.error(format!("unknown MPI operation `{name}`"), start);
                    None
                }
            },
        };
        // Consume anything left and the closing paren.
        while !self.at(TokenKind::RParen) && !self.at(TokenKind::Eof) {
            self.bump();
        }
        self.expect(TokenKind::RParen);
        let span = start.to(self.prev_span());
        match op {
            Some(op) => Expr::new(ExprKind::Mpi(op), span),
            None => Expr::new(ExprKind::Int(0), span),
        }
    }

    /// Optional trailing `, comm` argument of MPI operations.
    fn trailing_comm_arg(&mut self) -> Option<ExprId> {
        if self.eat(TokenKind::Comma) {
            Some(self.expr_id())
        } else {
            None
        }
    }

    /// The arguments of a collective, each present or not by its kind:
    /// `[value[, op][, root]][, comm]`.
    fn collective_args(&mut self, kind: CollectiveKind) -> MpiOp<ExprId> {
        if kind == CollectiveKind::Barrier {
            // Only argument (if any) is the communicator.
            let comm = (!self.at(TokenKind::RParen)).then(|| self.expr_id());
            return MpiOp::Collective {
                kind,
                value: None,
                reduce_op: None,
                root: None,
                comm,
            };
        }
        let value = Some(self.expr_id());
        let mut reduce_op = None;
        if kind.has_reduce_op() && self.expect(TokenKind::Comma) {
            if let Some((op, span)) = self.bare_name_arg("reduction operator") {
                reduce_op = ReduceOp::from_name(op);
                if reduce_op.is_none() {
                    self.error(
                        format!(
                            "unknown reduction operator `{op}` (expected SUM, PROD, MIN, MAX, LAND or LOR)"
                        ),
                        span,
                    );
                }
            }
        }
        let root = (kind.has_root() && self.expect(TokenKind::Comma)).then(|| self.expr_id());
        MpiOp::Collective {
            kind,
            value,
            reduce_op,
            root,
            comm: self.trailing_comm_arg(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        let (prog, diags) = parse_program(src);
        assert!(
            !diags.has_errors(),
            "unexpected parse errors:\n{:#?}",
            diags.into_vec()
        );
        prog
    }

    /// The statements of the first function's body.
    fn body(p: &Program) -> &[Stmt] {
        p.functions[0].stmts(&p.functions[0].body)
    }

    fn parse_err(src: &str) -> Diagnostics {
        let (_prog, diags) = parse_program(src);
        assert!(diags.has_errors(), "expected parse errors, got none");
        diags
    }

    #[test]
    fn empty_program() {
        let p = parse_ok("");
        assert!(p.functions.is_empty());
    }

    #[test]
    fn minimal_main() {
        let p = parse_ok("fn main() {}");
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.name(p.functions[0].name), "main");
        assert_eq!(p.functions[0].ret, Type::Void);
        assert!(body(&p).is_empty());
    }

    #[test]
    fn function_with_params_and_return() {
        let p = parse_ok("fn f(a: int, b: float[], c: bool) -> int { return a; }");
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, Type::Int);
        assert_eq!(f.params[1].ty, Type::ArrayFloat);
        assert_eq!(f.params[2].ty, Type::Bool);
        assert_eq!(f.ret, Type::Int);
    }

    #[test]
    fn precedence() {
        let p = parse_ok("fn main() { let x = 1 + 2 * 3; }");
        let StmtKind::Let { init, .. } = &body(&p)[0].kind else {
            panic!("expected let");
        };
        // Must parse as 1 + (2 * 3)
        let f = &p.functions[0];
        let ExprKind::Binary(BinOp::Add, l, r) = f.expr(*init).kind else {
            panic!("expected add at top: {:?}", f.expr(*init));
        };
        assert!(matches!(f.expr(l).kind, ExprKind::Int(1)));
        assert!(matches!(f.expr(r).kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn logical_precedence() {
        let p = parse_ok("fn main() { let x = true || false && true; }");
        let StmtKind::Let { init, .. } = &body(&p)[0].kind else {
            panic!()
        };
        // || binds loosest: true || (false && true)
        assert!(matches!(
            p.functions[0].expr(*init).kind,
            ExprKind::Binary(BinOp::Or, _, _)
        ));
    }

    #[test]
    fn if_else_chain() {
        let p = parse_ok("fn main() { if (rank() == 0) { } else if (rank() == 1) { } else { } }");
        let StmtKind::If { else_blk, .. } = &body(&p)[0].kind else {
            panic!()
        };
        let inner = else_blk.as_ref().unwrap();
        assert!(matches!(
            p.functions[0].stmts(inner)[0].kind,
            StmtKind::If { .. }
        ));
    }

    #[test]
    fn while_for_loops() {
        let p = parse_ok("fn main() { while (true) { break; } for (i in 0..10) { continue; } }");
        assert!(matches!(body(&p)[0].kind, StmtKind::While { .. }));
        assert!(matches!(body(&p)[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn omp_constructs() {
        let p = parse_ok(
            "fn main() {
                parallel num_threads(4) {
                    single nowait { }
                    master { }
                    critical { }
                    barrier;
                    pfor (i in 0..8) { }
                    pfor nowait (j in 0..8) { }
                    sections { section { } section { } }
                }
            }",
        );
        let StmtKind::Omp(OmpStmt::Parallel { num_threads, body }) = &body(&p)[0].kind else {
            panic!()
        };
        assert!(num_threads.is_some());
        assert_eq!(p.functions[0].stmts(body).len(), 7);
        assert!(matches!(
            p.functions[0].stmts(body)[0].kind,
            StmtKind::Omp(OmpStmt::Single { nowait: true, .. })
        ));
        assert!(matches!(
            p.functions[0].stmts(body)[4].kind,
            StmtKind::Omp(OmpStmt::PFor { nowait: false, .. })
        ));
        assert!(matches!(
            p.functions[0].stmts(body)[5].kind,
            StmtKind::Omp(OmpStmt::PFor { nowait: true, .. })
        ));
        if let StmtKind::Omp(OmpStmt::Sections { sections, .. }) =
            &p.functions[0].stmts(body)[6].kind
        {
            assert_eq!(sections.len(), 2);
        } else {
            panic!("expected sections");
        }
    }

    #[test]
    fn mpi_collectives() {
        let p = parse_ok(
            "fn main() {
                MPI_Init();
                MPI_Barrier();
                let s = MPI_Allreduce(1, SUM);
                let b = MPI_Bcast(s, 0);
                let r = MPI_Reduce(b, MAX, 0);
                MPI_Finalize();
            }",
        );
        let f = &p.functions[0];
        let stmts = f.stmts(&f.body);
        let StmtKind::Expr(e) = &stmts[1].kind else {
            panic!()
        };
        assert!(matches!(
            f.expr(*e).kind,
            ExprKind::Mpi(MpiOp::Collective {
                kind: CollectiveKind::Barrier,
                ..
            })
        ));
        let StmtKind::Let { init, .. } = &stmts[2].kind else {
            panic!()
        };
        let ExprKind::Mpi(MpiOp::Collective {
            kind,
            reduce_op,
            root,
            ..
        }) = f.expr(*init).kind
        else {
            panic!()
        };
        assert_eq!(kind, CollectiveKind::Allreduce);
        assert_eq!(reduce_op, Some(ReduceOp::Sum));
        assert!(root.is_none());
        let StmtKind::Let { init, .. } = &stmts[4].kind else {
            panic!()
        };
        let ExprKind::Mpi(MpiOp::Collective {
            kind,
            reduce_op,
            root,
            ..
        }) = f.expr(*init).kind
        else {
            panic!()
        };
        assert_eq!(kind, CollectiveKind::Reduce);
        assert_eq!(reduce_op, Some(ReduceOp::Max));
        assert!(root.is_some());
    }

    #[test]
    fn mpi_init_thread() {
        let p = parse_ok("fn main() { MPI_Init_thread(MULTIPLE); }");
        let StmtKind::Expr(e) = &body(&p)[0].kind else {
            panic!()
        };
        assert!(matches!(
            p.functions[0].expr(*e).kind,
            ExprKind::Mpi(MpiOp::Init {
                required: Some(ThreadLevel::Multiple)
            })
        ));
    }

    #[test]
    fn mpi_send_recv() {
        let p = parse_ok("fn main() { MPI_Send(1, 0, 7); let v = MPI_Recv(1, 7); }");
        assert_eq!(body(&p).len(), 2);
    }

    #[test]
    fn communicator_builtins() {
        let p = parse_ok(
            "fn main() {
                let w = MPI_COMM_WORLD;
                let c = MPI_Comm_split(MPI_COMM_WORLD, 0, 1);
                let d = MPI_Comm_dup(c);
            }",
        );
        assert_eq!(body(&p).len(), 3);
        let StmtKind::Let { init, .. } = &body(&p)[0].kind else {
            panic!()
        };
        let kind_of = |e: &ExprId| p.functions[0].expr(*e).kind;
        assert!(matches!(kind_of(init), ExprKind::Mpi(MpiOp::CommWorld)));
        let StmtKind::Let { init, .. } = &body(&p)[1].kind else {
            panic!()
        };
        assert!(matches!(
            kind_of(init),
            ExprKind::Mpi(MpiOp::CommSplit { .. })
        ));
    }

    #[test]
    fn trailing_comm_arguments() {
        let p = parse_ok(
            "fn main() {
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                MPI_Barrier(c);
                MPI_Barrier();
                let x = MPI_Allreduce(1, SUM, c);
                let b = MPI_Bcast(1, 0, c);
                MPI_Send(1, 0, 7, c);
                let v = MPI_Recv(1, 7, c);
            }",
        );
        let f = &p.functions[0];
        let barrier_comms: Vec<bool> = f
            .stmts(&f.body)
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Expr(e) => match f.expr(*e).kind {
                    ExprKind::Mpi(MpiOp::Collective { comm, .. }) => Some(comm.is_some()),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(barrier_comms, vec![true, false]);
        let StmtKind::Let { init, .. } = &body(&p)[3].kind else {
            panic!()
        };
        let ExprKind::Mpi(MpiOp::Collective {
            comm, reduce_op, ..
        }) = f.expr(*init).kind
        else {
            panic!("{:?}", f.expr(*init))
        };
        assert!(comm.is_some() && reduce_op.is_some());
    }

    #[test]
    fn intrinsics_resolved() {
        let p = parse_ok("fn main() { let r = rank(); let a = array(10, 0); let n = len(a); }");
        let StmtKind::Let { init, .. } = &body(&p)[0].kind else {
            panic!()
        };
        assert!(matches!(
            p.functions[0].expr(*init).kind,
            ExprKind::Intrinsic(Intrinsic::Rank, _)
        ));
    }

    #[test]
    fn indexed_assignment_vs_expression() {
        let p = parse_ok("fn main() { let a = array(4, 0); a[1] = 2; let x = a[1]; }");
        assert!(matches!(
            body(&p)[1].kind,
            StmtKind::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
    }

    #[test]
    fn unknown_mpi_op_is_error() {
        parse_err("fn main() { MPI_Frobnicate(1); }");
    }

    #[test]
    fn unknown_reduce_op_is_error() {
        parse_err("fn main() { let x = MPI_Allreduce(1, BOGUS); }");
    }

    #[test]
    fn missing_semicolon_is_error_but_recovers() {
        let (prog, diags) = parse_program("fn main() { let x = 1 let y = 2; }");
        assert!(diags.has_errors());
        // Recovery should still see both lets.
        assert_eq!(body(&prog).len(), 2);
    }

    #[test]
    fn error_recovery_across_functions() {
        let (prog, diags) = parse_program("fn broken( { } fn ok() { }");
        assert!(diags.has_errors());
        assert!(prog.function("ok").is_some());
    }

    #[test]
    fn sections_requires_section() {
        parse_err("fn main() { parallel { sections { } } }");
    }

    #[test]
    fn nested_parallel_parses() {
        let p = parse_ok("fn main() { parallel { parallel { single { } } } }");
        let StmtKind::Omp(OmpStmt::Parallel { body, .. }) = &body(&p)[0].kind else {
            panic!()
        };
        assert!(matches!(
            p.functions[0].stmts(body)[0].kind,
            StmtKind::Omp(OmpStmt::Parallel { .. })
        ));
    }

    #[test]
    fn spans_cover_statements() {
        let src = "fn main() { let x = 1; }";
        let p = parse_ok(src);
        let s = &body(&p)[0];
        assert_eq!(&src[s.span.lo as usize..s.span.hi as usize], "let x = 1;");
    }

    /// Messages that name the identifier under the cursor read its text
    /// back from the source; pinned byte for byte.
    #[test]
    fn messages_naming_an_identifier_token() {
        // (source, message, the text the diagnostic points at)
        for (src, message, at) in [
            (
                "fn main() { let x = 1 foo; }",
                "expected `;`, found identifier `foo`",
                "foo",
            ),
            (
                "fn main() { let x: foo = 1; }",
                "expected type, found identifier `foo`",
                "foo",
            ),
            (
                "MPI_Barrier fn main() { }",
                "expected `fn` at top level, found identifier `MPI_Barrier`",
                "MPI_Barrier",
            ),
            (
                "fn main() { let x = MPI_Allreduce(1, BOGUS); }",
                "unknown reduction operator `BOGUS` (expected SUM, PROD, MIN, MAX, LAND or LOR)",
                "BOGUS",
            ),
            (
                "fn main() { MPI_Init_thread(SOME); }",
                "unknown thread level `SOME` (expected SINGLE, FUNNELED, SERIALIZED or MULTIPLE)",
                "SOME",
            ),
            (
                "fn main() { MPI_Frobnicate(1); }",
                "unknown MPI operation `MPI_Frobnicate`",
                "MPI_Frobnicate",
            ),
            (
                "fn main() { let x = MPI_Allreduce(1, 2); }",
                "expected reduction operator name, found integer `2`",
                "2",
            ),
            (
                "fn 7() { }",
                "expected function name, found integer `7`",
                "7",
            ),
        ] {
            let d = parse_err(src).into_vec().remove(0);
            let lo = src.find(at).unwrap() as u32;
            assert_eq!(d.code, "parse-error", "{src}");
            assert_eq!(d.message, message, "{src}");
            assert_eq!(d.span, Span::new(lo, lo + at.len() as u32), "{src}");
        }
    }

    /// One `nesting too deep` error and nothing else, whatever is nested.
    fn assert_too_deep(src: &str) {
        let diags = parse_err(src).into_vec();
        assert_eq!(diags.len(), 1, "{:#?}", &diags[..diags.len().min(3)]);
        assert_eq!(diags[0].code, "parse-error");
        assert_eq!(
            diags[0].message,
            format!("nesting too deep (more than {MAX_NESTING} levels of expressions or blocks)")
        );
    }

    #[test]
    fn nesting_bombs_are_one_diagnostic_not_a_stack_overflow() {
        let n = 100_000;
        assert_too_deep(&format!(
            "fn main() {{ let x = {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ));
        assert_too_deep(&format!(
            "fn main() {{ {} {} }}",
            "if (true) {".repeat(20_000),
            "}".repeat(20_000)
        ));
        // Unclosed, and with functions after the bomb.
        assert_too_deep(&format!("fn main() {{ let x = {}", "(".repeat(n)));
        assert_too_deep(&format!(
            "fn main() {{ {} }} fn later( {{ }}",
            "while (true) {".repeat(n)
        ));
        // The shapes that nest the tree without nesting brackets.
        assert_too_deep(&format!("fn main() {{ let x = {}1; }}", "-".repeat(n)));
        assert_too_deep(&format!("fn main() {{ let x = 1{}; }}", " + 1".repeat(n)));
        assert_too_deep(&format!(
            "fn main() {{ let b = true{}; }}",
            " && true || false".repeat(n)
        ));
        assert_too_deep(&format!(
            "fn main() {{ if (true) {{ }} {} }}",
            "else if (true) { }".repeat(n)
        ));
        assert_too_deep(&format!(
            "fn f(a: int) -> int {{ return a; }} fn main() {{ let x = {}1{}; }}",
            "f(a[".repeat(n),
            "])".repeat(n)
        ));
    }

    #[test]
    fn nesting_limit_is_exact_and_leaves_no_residue() {
        // The body block is level 1, the `let` initializer level 2 and
        // every parenthesis one more.
        let parens = |n: usize| {
            format!(
                "fn main() {{ let x = {}1{}; let y = 2; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let fits = MAX_NESTING as usize - 2;
        let p = parse_ok(&parens(fits));
        assert_eq!(body(&p).len(), 2);
        assert_too_deep(&parens(fits + 1));
        // The counter unwinds: a sibling at the limit parses as well.
        parse_ok(&format!(
            "fn main() {{ let x = {}1{}; let y = {}1{}; }}",
            "(".repeat(fits),
            ")".repeat(fits),
            "-".repeat(fits),
            ""
        ));
    }

    /// A left-associative chain nests the tree one level per operator of
    /// a level's run, and a looser operator drops the count of the
    /// tighter run it follows. Where 250-operator chains hit the limit is
    /// pinned to the token the parser with one function per precedence
    /// level stopped at: the 199th operator (the body, the `let`
    /// initializer and 198 operators fill the 200 levels), and in the
    /// mixed chain the `*` after the 198th `+`.
    #[test]
    fn operator_chains_hit_the_limit_where_they_always_did() {
        let chain = |op: &str| {
            format!(
                "fn main() {{ let x = a{}; }}",
                format!(" {op} a").repeat(250)
            )
        };
        let mixed = format!("fn main() {{ let x = a * b{}; }}", " + a * b".repeat(250));
        for (src, op) in [
            (chain("+"), "+"),
            (chain("*"), "*"),
            (chain("&&"), "&&"),
            (mixed, "*"),
        ] {
            assert_too_deep(&src);
            let d = parse_err(&src).into_vec().remove(0);
            let at = src.match_indices(op).nth(198).expect("199 operators").0 as u32;
            assert_eq!(d.span, Span::new(at, at + op.len() as u32), "{op}");
        }
    }

    /// `a < b < c` is an error: the first comparison is the whole
    /// initializer, and the statement then trips over the second one.
    #[test]
    fn comparisons_do_not_associate() {
        for (src, op) in [
            ("fn main() { let x = a < b < c; }", "<"),
            ("fn main() { let x = a == b != c; }", "!="),
        ] {
            let diags = parse_err(src).into_vec();
            let at = src.rfind(op).expect("second comparison") as u32;
            let got: Vec<(&str, Span)> =
                diags.iter().map(|d| (d.message.as_str(), d.span)).collect();
            let span = Span::new(at, at + op.len() as u32);
            assert_eq!(
                got,
                [
                    (format!("expected `;`, found `{op}`").as_str(), span),
                    (format!("expected expression, found `{op}`").as_str(), span),
                ],
                "{src}"
            );
        }
    }

    #[test]
    fn deeply_nested_expression() {
        let depth = 100;
        let src = format!(
            "fn main() {{ let x = {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        parse_ok(&src);
    }
}
