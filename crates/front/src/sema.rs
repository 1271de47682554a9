//! Semantic analysis: name resolution, type checking and the structural
//! rules of the paper's execution model.
//!
//! The paper (§1) assumes "an explicit fork/join model, with perfectly
//! nested regions". Sema enforces the structural half of that contract so
//! that the later parallelism-word computation is well-defined:
//!
//! * `return` may not appear inside any OpenMP construct (no branching out
//!   of a structured region);
//! * `break`/`continue` may not cross a construct boundary;
//! * `break` may not leave a worksharing `pfor`;
//! * an explicit `barrier` may not be nested inside `single`, `master`,
//!   `critical`, `pfor` or `sections` (illegal in OpenMP and would
//!   deadlock the team).
//!
//! Sema decides every name, type and callee, and writes each answer into
//! the AST ([`Expr::ty`], [`Expr::slot`], [`Stmt::slot`]) for the stages
//! after it.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::scope::ScopeStack;
use crate::span::Span;
use crate::symbol::{Interner, Symbol};

/// A function signature as seen by callers.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// The function's index in [`Program::functions`]: what a call to
    /// it resolves to.
    pub index: usize,
}

/// The signature of every function of a unit, keyed by the function
/// name's [`Symbol`] in the unit's interner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Signatures {
    /// Indexed by symbol (ids are dense); `None` for names that are not
    /// functions.
    by_sym: Vec<Option<Signature>>,
}

impl Signatures {
    /// The signature of the function named `name`.
    pub fn get(&self, name: Symbol) -> Option<&Signature> {
        self.by_sym.get(name.index())?.as_ref()
    }

    /// Record `name`'s signature; returns the one it replaces.
    pub fn insert(&mut self, name: Symbol, sig: Signature) -> Option<Signature> {
        if self.by_sym.len() <= name.index() {
            self.by_sym.resize(name.index() + 1, None);
        }
        self.by_sym[name.index()].replace(sig)
    }
}

/// The externally visible signature of `f`, the function at `index` of
/// its program, as callers see it.
pub fn signature_of(f: &Function, index: usize) -> Signature {
    Signature {
        params: f.params.iter().map(|p| p.ty).collect(),
        ret: f.ret,
        index,
    }
}

/// Type-check, structurally validate and annotate a single function
/// body against a complete `signatures` table; `interner` is the one
/// `f`'s and the table's symbols belong to. This is the per-function
/// half of [`check_program`]; incremental sessions call it directly
/// after a single-function edit whose signature is unchanged.
pub fn check_function(
    f: &mut Function,
    interner: &Interner,
    signatures: &Signatures,
    diags: &mut Diagnostics,
) {
    Checker::new(interner, signatures, diags).check(f);
}

/// Type-check, structurally validate and annotate `prog`, reporting
/// into `diags`; returns the signature of every function.
pub fn check_program(prog: &mut Program, diags: &mut Diagnostics) -> Signatures {
    let mut signatures = Signatures::default();
    for (i, f) in prog.functions.iter().enumerate() {
        let sig = signature_of(f, i);
        if signatures.insert(f.name.sym, sig).is_some() {
            diags.error(
                "duplicate-function",
                format!("function `{}` is defined more than once", prog.name(f.name)),
                f.name.span,
            );
        }
    }
    match prog.main() {
        None => diags.error(
            "missing-main",
            "program has no `main` function",
            Span::DUMMY,
        ),
        Some(main) => {
            if !main.params.is_empty() {
                diags.error("bad-main", "`main` must take no parameters", main.name.span);
            }
        }
    }

    // One checker for the whole program: its scopes and stacks keep
    // their storage from one function to the next.
    let mut ck = Checker::new(&prog.interner, &signatures, diags);
    for f in &mut prog.functions {
        ck.check(f);
    }
    signatures
}

/// What kind of loop a `break`/`continue` may target.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LoopKind {
    Sequential,
    Workshare,
}

struct LoopCtx {
    kind: LoopKind,
    /// OMP nesting depth at loop entry; `break`/`continue` must occur at
    /// the same depth.
    omp_depth: u32,
}

/// A node that names a variable: an expression or a statement of the
/// function's arenas.
#[derive(Clone, Copy)]
enum At {
    Expr(usize),
    Stmt(usize),
}

/// Checks the functions of one unit, one after the other. The vectors
/// a function grows are the checker's: [`Checker::check`] clears them
/// and they keep their capacity.
struct Checker<'a> {
    /// The arenas of the function being checked, moved out of it for
    /// the check so that it can annotate them: they resolve every
    /// [`StmtRange`] and [`ExprId`].
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    /// Its name, for messages.
    func_name: Ident,
    interner: &'a Interner,
    signatures: &'a Signatures,
    diags: &'a mut Diagnostics,
    /// The type and slot of each variable in scope.
    scopes: ScopeStack<(Type, Slot)>,
    /// The slot the function's next declaration gets.
    next_slot: Slot,
    ret_ty: Type,
    omp_depth: u32,
    loops: Vec<LoopCtx>,
    /// True while inside single/master/critical/pfor/sections, where an
    /// explicit `barrier` is illegal.
    barrier_forbidden: bool,
}

impl<'a> Checker<'a> {
    fn new(interner: &'a Interner, signatures: &'a Signatures, diags: &'a mut Diagnostics) -> Self {
        Checker {
            stmts: Vec::new(),
            exprs: Vec::new(),
            func_name: Ident::new(Symbol(0), Span::DUMMY),
            interner,
            signatures,
            diags,
            scopes: ScopeStack::new(),
            next_slot: 0,
            ret_ty: Type::Void,
            omp_depth: 0,
            loops: Vec::new(),
            barrier_forbidden: false,
        }
    }

    /// Check and annotate function `f`: its parameters, then its body.
    fn check(&mut self, f: &mut Function) {
        self.stmts = std::mem::take(&mut f.stmts);
        self.exprs = std::mem::take(&mut f.exprs);
        self.func_name = f.name;
        self.ret_ty = f.ret;
        self.scopes.clear();
        self.next_slot = 0;
        self.loops.clear();
        self.omp_depth = 0;
        self.barrier_forbidden = false;
        for p in &f.params {
            if p.ty == Type::Void {
                self.diags.error(
                    "bad-param",
                    format!("parameter `{}` cannot have type void", self.name(p.name)),
                    p.name.span,
                );
            }
            self.declare(p.name.sym, p.ty);
        }
        self.check_block(&f.body);
        f.stmts = std::mem::take(&mut self.stmts);
        f.exprs = std::mem::take(&mut self.exprs);
    }

    /// Bind `name` in the innermost scope to the next slot, which it
    /// returns: the parameters get the first ones, in order.
    fn declare(&mut self, name: Symbol, ty: Type) -> Slot {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.scopes.declare(name, (ty, slot));
        slot
    }

    /// The type of the variable `name`, whose slot the node at `at`
    /// records.
    fn resolve(&mut self, at: At, name: Ident) -> Option<Type> {
        let (ty, slot) = self.scopes.lookup(name.sym)?;
        match at {
            At::Expr(i) => self.exprs[i].slot = slot,
            At::Stmt(i) => self.stmts[i].slot = slot,
        }
        Some(ty)
    }

    /// The identifier's text, for a message.
    fn name(&self, id: Ident) -> &'a str {
        self.interner.resolve(id.sym)
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.exprs[e.0 as usize].span
    }

    fn check_block(&mut self, b: &Block) {
        self.scopes.push();
        let StmtRange { start, len } = b.stmts;
        for i in start..start + len {
            self.check_stmt(i as usize);
        }
        self.scopes.pop();
    }

    /// Check the body of loop statement `i` with its induction variable
    /// bound in a scope around the body's own.
    fn check_loop_body(&mut self, i: usize, var: Ident, body: &Block) {
        self.scopes.push();
        self.stmts[i].slot = self.declare(var.sym, Type::Int);
        self.check_block(body);
        self.scopes.pop();
    }

    /// Check a construct body with OMP depth increased by one.
    fn check_omp_body(&mut self, b: &Block) {
        self.omp_depth += 1;
        self.check_block(b);
        self.omp_depth -= 1;
    }

    /// Check and annotate the statement at `i` of the arena.
    fn check_stmt(&mut self, i: usize) {
        let span = self.stmts[i].span;
        match self.stmts[i].kind {
            StmtKind::Let { name, ty, init } => {
                let init_ty = self.check_expr(init);
                let final_ty = match ty {
                    Some(annot) => {
                        if annot == Type::Void {
                            self.diags.error(
                                "bad-type",
                                "variables cannot have type void",
                                name.span,
                            );
                        } else if init_ty != annot {
                            self.diags.error(
                                "type-mismatch",
                                format!(
                                    "`{}` declared as {annot} but initialized with {init_ty}",
                                    self.name(name)
                                ),
                                self.span_of(init),
                            );
                        }
                        annot
                    }
                    None => {
                        if init_ty == Type::Void {
                            self.diags.error(
                                "type-mismatch",
                                format!(
                                    "cannot infer a type for `{}` from a void expression",
                                    self.name(name)
                                ),
                                self.span_of(init),
                            );
                            Type::Int
                        } else {
                            init_ty
                        }
                    }
                };
                self.stmts[i].slot = self.declare(name.sym, final_ty);
            }
            StmtKind::Assign { target, value } => {
                let value_ty = self.check_expr(value);
                match target {
                    LValue::Var(id) => match self.resolve(At::Stmt(i), id) {
                        Some(t) => {
                            if value_ty != t {
                                self.diags.error(
                                    "type-mismatch",
                                    format!(
                                        "cannot assign {value_ty} to `{}` of type {t}",
                                        self.name(id)
                                    ),
                                    self.span_of(value),
                                );
                            }
                        }
                        None => self.undeclared(id),
                    },
                    LValue::Index(id, idx) => {
                        let idx_ty = self.check_expr(idx);
                        if idx_ty != Type::Int {
                            self.diags.error(
                                "type-mismatch",
                                format!("array index must be int, found {idx_ty}"),
                                self.span_of(idx),
                            );
                        }
                        match self.resolve(At::Stmt(i), id) {
                            Some(t) if t.is_array() => {
                                let elem = t.elem().expect("array type has elem");
                                if value_ty != elem {
                                    self.diags.error(
                                        "type-mismatch",
                                        format!(
                                            "cannot store {value_ty} into `{}` of type {t}",
                                            self.name(id)
                                        ),
                                        self.span_of(value),
                                    );
                                }
                            }
                            Some(t) => self.diags.error(
                                "type-mismatch",
                                format!("`{}` of type {t} cannot be indexed", self.name(id)),
                                id.span,
                            ),
                            None => self.undeclared(id),
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect_ty(cond, Type::Bool, "if condition");
                self.check_block(&then_blk);
                if let Some(e) = else_blk {
                    self.check_block(&e);
                }
            }
            StmtKind::While { cond, body } => {
                self.expect_ty(cond, Type::Bool, "while condition");
                self.loops.push(LoopCtx {
                    kind: LoopKind::Sequential,
                    omp_depth: self.omp_depth,
                });
                self.check_block(&body);
                self.loops.pop();
            }
            StmtKind::For { var, lo, hi, body } => {
                self.expect_ty(lo, Type::Int, "for lower bound");
                self.expect_ty(hi, Type::Int, "for upper bound");
                self.loops.push(LoopCtx {
                    kind: LoopKind::Sequential,
                    omp_depth: self.omp_depth,
                });
                self.check_loop_body(i, var, &body);
                self.loops.pop();
            }
            StmtKind::Return(value) => {
                if self.omp_depth > 0 {
                    self.diags.error(
                        "return-in-omp",
                        format!(
                            "`return` inside a parallel construct is not allowed in \
                             `{}` (the model requires perfectly nested regions)",
                            self.name(self.func_name)
                        ),
                        span,
                    );
                }
                match (value, self.ret_ty) {
                    (None, Type::Void) => {}
                    (None, t) => self.diags.error(
                        "type-mismatch",
                        format!("function returns {t} but `return;` has no value"),
                        span,
                    ),
                    (Some(v), t) => {
                        let vt = self.check_expr(v);
                        if t == Type::Void {
                            self.diags.error(
                                "type-mismatch",
                                "void function cannot return a value",
                                self.span_of(v),
                            );
                        } else if vt != t {
                            self.diags.error(
                                "type-mismatch",
                                format!("function returns {t} but value has type {vt}"),
                                self.span_of(v),
                            );
                        }
                    }
                }
            }
            StmtKind::Break => match self.loops.last() {
                None => self
                    .diags
                    .error("break-outside-loop", "`break` outside of a loop", span),
                Some(l) if l.kind == LoopKind::Workshare => self.diags.error(
                    "break-in-pfor",
                    "`break` cannot leave a worksharing `pfor` loop",
                    span,
                ),
                Some(l) if l.omp_depth != self.omp_depth => self.diags.error(
                    "break-across-omp",
                    "`break` would leave an enclosing parallel construct",
                    span,
                ),
                Some(_) => {}
            },
            StmtKind::Continue => match self.loops.last() {
                None => self.diags.error(
                    "continue-outside-loop",
                    "`continue` outside of a loop",
                    span,
                ),
                Some(l) if l.kind != LoopKind::Workshare && l.omp_depth != self.omp_depth => {
                    self.diags.error(
                        "continue-across-omp",
                        "`continue` would leave an enclosing parallel construct",
                        span,
                    )
                }
                Some(_) => {}
            },
            StmtKind::Expr(e) => {
                self.check_expr(e);
            }
            StmtKind::Print(args) => {
                for a in args.iter() {
                    let t = self.check_expr(a);
                    if t == Type::Void {
                        let span = self.span_of(a);
                        self.diags
                            .error("type-mismatch", "cannot print a void value", span);
                    }
                }
            }
            StmtKind::Barrier => {
                // Illegal inside the worksharing/single-threaded constructs.
                // We track which construct we are under via the loop stack
                // for pfor and via `forbidden_barrier_depth`.
                if self.barrier_forbidden {
                    self.diags.error(
                        "barrier-bad-nesting",
                        "`barrier` may not be nested inside single, master, critical, \
                         pfor or sections",
                        span,
                    );
                }
            }
            StmtKind::Omp(_) => self.check_omp(i, span),
        }
    }

    /// Check the OpenMP construct statement `i`.
    fn check_omp(&mut self, i: usize, span: Span) {
        let StmtKind::Omp(omp) = &self.stmts[i].kind else {
            unreachable!("statement {i} is a construct")
        };
        // OpenMP closely-nested-region rule: worksharing constructs,
        // `single` and `master` may not be closely nested inside
        // worksharing, `single`, `master` or `critical` regions (an
        // intervening `parallel` resets the restriction). Without this
        // the fork/join region structure — and hence the parallelism
        // word — would be ill-defined.
        if self.barrier_forbidden
            && !matches!(omp, OmpStmt::Parallel { .. } | OmpStmt::Critical { .. })
        {
            self.diags.error(
                "closely-nested",
                format!(
                    "`{}` may not be closely nested inside a single, master, critical, \
                     pfor or sections region",
                    omp.construct_name()
                ),
                span,
            );
        }
        match *omp {
            OmpStmt::Parallel { num_threads, body } => {
                if let Some(e) = num_threads {
                    self.expect_ty(e, Type::Int, "num_threads clause");
                }
                // A new parallel region resets the barrier restriction:
                // a barrier directly inside the nested region is legal.
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = false;
                self.check_omp_body(&body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::Single { body, .. } | OmpStmt::Master { body } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.check_omp_body(&body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::Critical { body } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.check_omp_body(&body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::PFor {
                var, lo, hi, body, ..
            } => {
                self.expect_ty(lo, Type::Int, "pfor lower bound");
                self.expect_ty(hi, Type::Int, "pfor upper bound");
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.loops.push(LoopCtx {
                    kind: LoopKind::Workshare,
                    omp_depth: self.omp_depth + 1,
                });
                self.omp_depth += 1;
                self.check_loop_body(i, var, &body);
                self.omp_depth -= 1;
                self.loops.pop();
                self.barrier_forbidden = saved;
            }
            OmpStmt::Sections { .. } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                // Re-read per section: checking one writes into the arena
                // the list lives in.
                for k in 0.. {
                    let StmtKind::Omp(OmpStmt::Sections { sections, .. }) = &self.stmts[i].kind
                    else {
                        unreachable!()
                    };
                    let Some(&sec) = sections.get(k) else { break };
                    self.check_omp_body(&sec);
                }
                self.barrier_forbidden = saved;
            }
        }
    }

    fn undeclared(&mut self, id: Ident) {
        self.diags.error(
            "undeclared-variable",
            format!("use of undeclared variable `{}`", self.name(id)),
            id.span,
        );
    }

    fn expect_ty(&mut self, e: ExprId, want: Type, what: impl std::fmt::Display) {
        let got = self.check_expr(e);
        if got != want {
            self.diags.error(
                "type-mismatch",
                format!("{what} must be {want}, found {got}"),
                self.span_of(e),
            );
        }
    }

    /// Check every argument: their types are in the arena afterwards.
    fn check_args(&mut self, args: ExprRange) {
        for a in args.iter() {
            self.check_expr(a);
        }
    }

    /// Check expression `id`, recording its type and what its names
    /// resolve to.
    fn check_expr(&mut self, id: ExprId) -> Type {
        let i = id.0 as usize;
        let e = self.exprs[i];
        let ty = match e.kind {
            ExprKind::Int(_) => Type::Int,
            ExprKind::Float(_) => Type::Float,
            ExprKind::Bool(_) => Type::Bool,
            ExprKind::Var(id) => match self.resolve(At::Expr(i), id) {
                Some(t) => t,
                None => {
                    self.undeclared(id);
                    Type::Int
                }
            },
            ExprKind::Index(id, idx) => {
                self.expect_ty(idx, Type::Int, "array index");
                match self.resolve(At::Expr(i), id) {
                    Some(t) if t.is_array() => t.elem().expect("array elem"),
                    Some(t) => {
                        self.diags.error(
                            "type-mismatch",
                            format!("`{}` of type {t} cannot be indexed", self.name(id)),
                            id.span,
                        );
                        Type::Int
                    }
                    None => {
                        self.undeclared(id);
                        Type::Int
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                let t = self.check_expr(inner);
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            self.diags.error(
                                "type-mismatch",
                                format!("cannot negate {t}"),
                                self.span_of(inner),
                            );
                            Type::Int
                        } else {
                            t
                        }
                    }
                    UnOp::Not => {
                        if t != Type::Bool {
                            self.diags.error(
                                "type-mismatch",
                                format!("`!` requires bool, found {t}"),
                                self.span_of(inner),
                            );
                        }
                        Type::Bool
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.check_expr(l);
                let rt = self.check_expr(r);
                if op.is_arith() {
                    if lt != rt || !lt.is_numeric() {
                        self.diags.error(
                            "type-mismatch",
                            format!(
                                "`{}` requires matching numeric operands, found {lt} and {rt}",
                                op.symbol()
                            ),
                            e.span,
                        );
                        Type::Int
                    } else {
                        lt
                    }
                } else if op.is_cmp() {
                    if lt != rt {
                        self.diags.error(
                            "type-mismatch",
                            format!(
                                "`{}` requires matching operands, found {lt} and {rt}",
                                op.symbol()
                            ),
                            e.span,
                        );
                    } else if lt.is_array()
                        || lt == Type::Void
                        || lt == Type::Comm
                        || lt == Type::Request
                    {
                        self.diags.error(
                            "type-mismatch",
                            format!("`{}` cannot compare {lt} values", op.symbol()),
                            e.span,
                        );
                    } else if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
                        && lt == Type::Bool
                    {
                        self.diags.error(
                            "type-mismatch",
                            format!("`{}` cannot order bool values", op.symbol()),
                            e.span,
                        );
                    }
                    Type::Bool
                } else {
                    // logic
                    if lt != Type::Bool || rt != Type::Bool {
                        self.diags.error(
                            "type-mismatch",
                            format!(
                                "`{}` requires bool operands, found {lt} and {rt}",
                                op.symbol()
                            ),
                            e.span,
                        );
                    }
                    Type::Bool
                }
            }
            ExprKind::Call(name, args) => {
                self.check_args(args);
                let signatures = self.signatures;
                match signatures.get(name.sym) {
                    None => {
                        self.diags.error(
                            "unknown-function",
                            format!("call to undefined function `{}`", self.name(name)),
                            name.span,
                        );
                        Type::Int
                    }
                    Some(sig) => {
                        self.exprs[i].slot = sig.index as u32;
                        if sig.params.len() != args.len() {
                            self.diags.error(
                                "arity-mismatch",
                                format!(
                                    "`{}` expects {} argument(s), {} given",
                                    self.name(name),
                                    sig.params.len(),
                                    args.len()
                                ),
                                name.span,
                            );
                        } else {
                            for (i, want) in sig.params.iter().enumerate() {
                                let got = self.exprs[args.get(i).0 as usize].ty;
                                if *want != got {
                                    self.diags.error(
                                        "type-mismatch",
                                        format!(
                                            "argument {} of `{}` expects {want}, found {got}",
                                            i + 1,
                                            self.name(name)
                                        ),
                                        self.span_of(args.get(i)),
                                    );
                                }
                            }
                        }
                        sig.ret
                    }
                }
            }
            ExprKind::Intrinsic(intr, args) => {
                self.check_args(args);
                let args = &self.exprs[args.start as usize..(args.start + args.len) as usize];
                check_intrinsic(self.diags, intr, args, e.span)
            }
            ExprKind::Mpi(op) => self.check_mpi(op, e.span),
            ExprKind::AnySource | ExprKind::AnyTag => Type::Int,
        };
        self.exprs[i].ty = ty;
        ty
    }

    /// Check an MPI operation's operands, each against the type its
    /// role demands, in source order; a collective's payload comes last,
    /// typed by the collective's kind.
    fn check_mpi(&mut self, op: MpiOp<ExprId>, span: Span) -> Type {
        let kind = op.collective_kind();
        let who = if kind.is_some() {
            "collective"
        } else {
            op.name()
        };
        let mut payload = None;
        op.operands(|role, e| match role.ty() {
            Some(want) => self.expect_ty(e, want, format_args!("{who} {}", role.noun())),
            None if kind.is_some() => payload = Some(e),
            None => {
                let vt = self.check_expr(e);
                if !vt.is_numeric() {
                    self.diags.error(
                        "type-mismatch",
                        format!("{who} value must be numeric, found {vt}"),
                        self.span_of(e),
                    );
                }
            }
        });
        let Some(kind) = kind else {
            return op
                .result_type(None)
                .expect("only a collective's type depends on its payload");
        };
        if kind.has_reduce_op()
            && matches!(
                op,
                MpiOp::Collective {
                    reduce_op: None,
                    ..
                }
            )
        {
            self.diags.error(
                "mpi-args",
                format!("{kind} requires a reduction operator"),
                span,
            );
        }
        let vt = payload.map(|v| self.check_expr(v));
        if let Some(t) = op.result_type(vt) {
            return t;
        }
        let (code, message) = match (vt, kind.takes_array()) {
            (Some(t), false) => (
                "type-mismatch",
                format!("{kind} value must be numeric, found {t}"),
            ),
            (Some(t), true) => (
                "type-mismatch",
                format!("{kind} requires an array argument, found {t}"),
            ),
            (None, false) => ("mpi-args", format!("{kind} requires a value")),
            (None, true) => ("mpi-args", format!("{kind} requires an array argument")),
        };
        self.diags.error(code, message, span);
        // Carry on as if the payload had the expected type.
        let assumed = if kind.takes_array() {
            Type::ArrayInt
        } else {
            Type::Int
        };
        kind.result_type(assumed).expect("the assumed payload fits")
    }
}

/// The type of a call of `intr` with `args`, already checked.
fn check_intrinsic(diags: &mut Diagnostics, intr: Intrinsic, args: &[Expr], span: Span) -> Type {
    let arity_err = |diags: &mut Diagnostics, want: usize| {
        diags.error(
            "arity-mismatch",
            format!(
                "`{}` expects {want} argument(s), {} given",
                intr.name(),
                args.len()
            ),
            span,
        );
    };
    match intr {
        Intrinsic::Rank | Intrinsic::Size | Intrinsic::ThreadNum | Intrinsic::NumThreads => {
            if !args.is_empty() {
                arity_err(diags, 0);
            }
            Type::Int
        }
        Intrinsic::InParallel => {
            if !args.is_empty() {
                arity_err(diags, 0);
            }
            Type::Bool
        }
        Intrinsic::Sqrt => {
            if args.len() != 1 {
                arity_err(diags, 1);
            } else if args[0].ty != Type::Float {
                diags.error(
                    "type-mismatch",
                    format!("`sqrt` requires float, found {}", args[0].ty),
                    args[0].span,
                );
            }
            Type::Float
        }
        Intrinsic::Abs => {
            if args.len() != 1 {
                arity_err(diags, 1);
                return Type::Int;
            }
            if !args[0].ty.is_numeric() {
                diags.error(
                    "type-mismatch",
                    format!("`abs` requires a numeric argument, found {}", args[0].ty),
                    args[0].span,
                );
                return Type::Int;
            }
            args[0].ty
        }
        Intrinsic::MinOf | Intrinsic::MaxOf => {
            if args.len() != 2 {
                arity_err(diags, 2);
                return Type::Int;
            }
            if args[0].ty != args[1].ty || !args[0].ty.is_numeric() {
                diags.error(
                    "type-mismatch",
                    format!(
                        "`{}` requires two matching numeric arguments, found {} and {}",
                        intr.name(),
                        args[0].ty,
                        args[1].ty
                    ),
                    span,
                );
                return Type::Int;
            }
            args[0].ty
        }
        Intrinsic::IntOf => {
            if args.len() != 1 {
                arity_err(diags, 1);
            } else if args[0].ty != Type::Float {
                diags.error(
                    "type-mismatch",
                    format!("`int_of` requires float, found {}", args[0].ty),
                    args[0].span,
                );
            }
            Type::Int
        }
        Intrinsic::FloatOf => {
            if args.len() != 1 {
                arity_err(diags, 1);
            } else if args[0].ty != Type::Int {
                diags.error(
                    "type-mismatch",
                    format!("`float_of` requires int, found {}", args[0].ty),
                    args[0].span,
                );
            }
            Type::Float
        }
        Intrinsic::ArrayNew => {
            if args.len() != 2 {
                arity_err(diags, 2);
                return Type::ArrayInt;
            }
            if args[0].ty != Type::Int {
                diags.error(
                    "type-mismatch",
                    format!("array length must be int, found {}", args[0].ty),
                    args[0].span,
                );
            }
            match Type::array_of(args[1].ty) {
                Some(t) => t,
                None => {
                    diags.error(
                        "type-mismatch",
                        format!("array elements must be int or float, found {}", args[1].ty),
                        args[1].span,
                    );
                    Type::ArrayInt
                }
            }
        }
        Intrinsic::Len => {
            if args.len() != 1 {
                arity_err(diags, 1);
            } else if !args[0].ty.is_array() {
                diags.error(
                    "type-mismatch",
                    format!("`len` requires an array, found {}", args[0].ty),
                    args[0].span,
                );
            }
            Type::Int
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sema_ok(src: &str) {
        let (mut prog, mut diags) = parse_program(src);
        assert!(!diags.has_errors(), "parse failed: {diags:?}");
        check_program(&mut prog, &mut diags);
        assert!(
            !diags.has_errors(),
            "unexpected sema errors:\n{:#?}",
            diags.into_vec()
        );
    }

    fn sema_err(src: &str, code: &str) {
        let (mut prog, mut diags) = parse_program(src);
        assert!(!diags.has_errors(), "parse failed: {diags:?}");
        check_program(&mut prog, &mut diags);
        assert!(
            diags.iter().any(|d| d.code == code),
            "expected error code `{code}`, got {:#?}",
            diags.into_vec()
        );
    }

    #[test]
    fn minimal_ok() {
        sema_ok("fn main() { let x = 1; x = x + 1; }");
    }

    #[test]
    fn communicators_type_check() {
        sema_ok(
            "fn main() {
                let c = MPI_Comm_split(MPI_COMM_WORLD, rank() % 2, rank());
                let d = MPI_Comm_dup(c);
                MPI_Barrier(d);
                let x = MPI_Allreduce(1, SUM, c);
                MPI_Send(1.5, 0, 3, c);
                let v = MPI_Recv(0, 3, c);
            }",
        );
    }

    #[test]
    fn comm_argument_must_be_comm_typed() {
        sema_err("fn main() { MPI_Barrier(3); }", "type-mismatch");
        sema_err(
            "fn main() { let c = MPI_Comm_split(1, 0, 0); }",
            "type-mismatch",
        );
        sema_err("fn main() { MPI_Send(1, 0, 3, 7); }", "type-mismatch");
    }

    #[test]
    fn comm_values_are_opaque() {
        sema_err(
            "fn main() { let c = MPI_COMM_WORLD; let x = c + 1; }",
            "type-mismatch",
        );
        sema_err(
            "fn main() {
                let a = MPI_COMM_WORLD;
                let b = MPI_COMM_WORLD;
                if (a == b) { }
            }",
            "type-mismatch",
        );
    }

    #[test]
    fn nonblocking_type_checks() {
        sema_ok(
            "fn main() {
                let peer = size() - 1 - rank();
                let r = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                let s = MPI_Isend(1.5, peer, 4);
                let v = MPI_Wait(r);
                MPI_Waitall(s);
            }",
        );
        // Wildcards are plain ints and type-check anywhere an int does.
        sema_ok("fn main() { let x = MPI_ANY_SOURCE + MPI_ANY_TAG; }");
    }

    #[test]
    fn request_arguments_must_be_requests() {
        sema_err("fn main() { let v = MPI_Wait(3); }", "type-mismatch");
        sema_err("fn main() { MPI_Waitall(1, 2); }", "type-mismatch");
        sema_err(
            "fn main() { let r = MPI_Isend(true, 0, 1); }",
            "type-mismatch",
        );
        sema_err("fn main() { let r = MPI_Irecv(0.5, 1); }", "type-mismatch");
    }

    #[test]
    fn request_values_are_opaque() {
        sema_err(
            "fn main() {
                let a = MPI_Irecv(0, 1);
                let b = MPI_Irecv(0, 1);
                if (a == b) { }
            }",
            "type-mismatch",
        );
        sema_err(
            "fn main() { let a = MPI_Irecv(0, 1); let x = a + 1; }",
            "type-mismatch",
        );
    }

    #[test]
    fn missing_main() {
        sema_err("fn not_main() { }", "missing-main");
    }

    #[test]
    fn main_with_params_rejected() {
        sema_err("fn main(x: int) { }", "bad-main");
    }

    #[test]
    fn duplicate_function() {
        sema_err("fn main() { } fn f() { } fn f() { }", "duplicate-function");
    }

    #[test]
    fn undeclared_variable() {
        sema_err("fn main() { x = 1; }", "undeclared-variable");
        sema_err("fn main() { let y = x + 1; }", "undeclared-variable");
    }

    #[test]
    fn block_scoping() {
        sema_err(
            "fn main() { if (true) { let x = 1; } x = 2; }",
            "undeclared-variable",
        );
        sema_ok("fn main() { let x = 1; if (true) { let x = 2.0; x = 3.0; } x = 4; }");
    }

    #[test]
    fn redeclaration_in_one_block_takes_the_later_type() {
        sema_ok("fn main() { let x = 1; let x = 2.5; x = 3.5; }");
        sema_err(
            "fn main() { let x = 1; let x = 2.5; x = 3; }",
            "type-mismatch",
        );
        // A parameter can be shadowed by a body-level `let`.
        sema_ok("fn f(a: int) { let a = true; if (a) { } } fn main() { f(1); }");
    }

    #[test]
    fn inner_shadow_ends_with_its_block() {
        // After the block, `x` is the outer int again — two levels deep.
        sema_err(
            "fn main() { let x = 1; if (true) { let x = 2.0; while (false) { let x = true; } x = 1; } }",
            "type-mismatch",
        );
        sema_err(
            "fn main() { let x = 1; if (true) { let x = 2.0; } x = 2.0; }",
            "type-mismatch",
        );
        // A block that binds nothing leaves the outer bindings alone.
        sema_ok("fn main() { let x = 1; if (true) { } else { } x = 2; }");
    }

    #[test]
    fn induction_variables_are_scoped_to_their_loop() {
        sema_ok("fn main() { for (i in 0..4) { let y = i + 1; } }");
        sema_ok("fn main() { parallel { pfor (i in 0..4) { let y = i + 1; } } }");
        for src in [
            "fn main() { for (i in 0..4) { } print(i); }",
            "fn main() { parallel { pfor (i in 0..4) { } print(i); } }",
            // A body `let` lives in the same scope as the variable and
            // goes with it.
            "fn main() { for (i in 0..4) { let y = i; } print(y); }",
        ] {
            sema_err(src, "undeclared-variable");
        }
        // The induction variable is an int whatever it shadows, and the
        // shadowed binding is back after the loop.
        sema_ok("fn main() { let i = 1.5; for (i in 0..4) { let y = i + 1; } i = 2.5; }");
        sema_err(
            "fn main() { let i = 1.5; parallel { pfor (i in 0..4) { i = 2.5; } } }",
            "type-mismatch",
        );
    }

    #[test]
    fn type_mismatches() {
        sema_err("fn main() { let x: int = 1.5; }", "type-mismatch");
        sema_err("fn main() { let x = 1 + 2.0; }", "type-mismatch");
        sema_err("fn main() { if (1) { } }", "type-mismatch");
        sema_err("fn main() { let b = true < false; }", "type-mismatch");
        // A void call yields no value to bind or to assign.
        sema_err(
            "fn g() { } fn main() { let x: int = g(); }",
            "type-mismatch",
        );
        sema_err(
            "fn main() { let y: float = MPI_Barrier(); }",
            "type-mismatch",
        );
        sema_err(
            "fn g() { } fn main() { let x = 1; x = g(); }",
            "type-mismatch",
        );
        sema_ok("fn main() { let x = 1.0 + float_of(2); let b = 1 < 2; }");
    }

    #[test]
    fn function_calls() {
        sema_ok("fn f(a: int) -> int { return a * 2; } fn main() { let x = f(21); }");
        sema_err("fn main() { let x = g(); }", "unknown-function");
        sema_err(
            "fn f(a: int) -> int { return a; } fn main() { let x = f(); }",
            "arity-mismatch",
        );
        sema_err(
            "fn f(a: int) -> int { return a; } fn main() { let x = f(1.0); }",
            "type-mismatch",
        );
    }

    #[test]
    fn return_type_checks() {
        sema_err(
            "fn f() -> int { return; } fn main() { f(); }",
            "type-mismatch",
        );
        sema_err("fn f() { return 1; } fn main() { f(); }", "type-mismatch");
        sema_ok("fn f() -> float { return 1.5; } fn main() { let x = f(); }");
    }

    #[test]
    fn return_inside_omp_rejected() {
        sema_err("fn main() { parallel { return; } }", "return-in-omp");
        sema_err(
            "fn main() { parallel { single { if (true) { return; } } } }",
            "return-in-omp",
        );
    }

    #[test]
    fn break_rules() {
        sema_err("fn main() { break; }", "break-outside-loop");
        sema_err(
            "fn main() { while (true) { parallel { break; } } }",
            "break-across-omp",
        );
        sema_err(
            "fn main() { parallel { pfor (i in 0..4) { break; } } }",
            "break-in-pfor",
        );
        sema_ok("fn main() { while (true) { break; } }");
        sema_ok("fn main() { parallel { single { while (true) { break; } } } }");
    }

    #[test]
    fn continue_rules() {
        sema_err("fn main() { continue; }", "continue-outside-loop");
        sema_ok("fn main() { parallel { pfor (i in 0..4) { continue; } } }");
        sema_err(
            "fn main() { for (i in 0..4) { parallel { continue; } } }",
            "continue-across-omp",
        );
    }

    #[test]
    fn barrier_nesting_rules() {
        sema_ok("fn main() { parallel { barrier; } }");
        sema_ok("fn main() { barrier; }");
        sema_err(
            "fn main() { parallel { single { barrier; } } }",
            "barrier-bad-nesting",
        );
        sema_err(
            "fn main() { parallel { master { barrier; } } }",
            "barrier-bad-nesting",
        );
        sema_err(
            "fn main() { parallel { pfor (i in 0..4) { barrier; } } }",
            "barrier-bad-nesting",
        );
        // Nested parallel region re-allows barriers.
        sema_ok("fn main() { parallel { single { parallel { barrier; } } } }");
    }

    #[test]
    fn closely_nested_rules() {
        sema_err(
            "fn main() { parallel { single { single { } } } }",
            "closely-nested",
        );
        sema_err(
            "fn main() { parallel { pfor (i in 0..4) { master { } } } }",
            "closely-nested",
        );
        sema_err(
            "fn main() { parallel { critical { single { } } } }",
            "closely-nested",
        );
        sema_err(
            "fn main() { parallel { sections { section { pfor (i in 0..2) { } } } } }",
            "closely-nested",
        );
        // An intervening parallel region resets the restriction.
        sema_ok("fn main() { parallel { single { parallel { single { } } } } }");
        // critical inside worksharing is allowed.
        sema_ok("fn main() { parallel { pfor (i in 0..4) { critical { } } } }");
    }

    #[test]
    fn mpi_typing() {
        sema_ok(
            "fn main() {
                MPI_Init();
                let s = MPI_Allreduce(rank(), SUM);
                let g = MPI_Gather(s, 0);
                let n = len(g);
                let e = MPI_Scatter(g, 0);
                let f = MPI_Allreduce(1.5, MAX);
                MPI_Finalize();
            }",
        );
        sema_err("fn main() { let x = MPI_Scatter(1, 0); }", "type-mismatch");
        sema_err(
            "fn main() { let x: float = MPI_Allreduce(1, SUM); }",
            "type-mismatch",
        );
    }

    #[test]
    fn collective_in_context_ok_structures() {
        sema_ok(
            "fn main() {
                parallel num_threads(4) {
                    single {
                        MPI_Barrier();
                    }
                    pfor (i in 0..16) { let y = i * 2; }
                }
            }",
        );
    }

    #[test]
    fn intrinsic_typing() {
        sema_ok("fn main() { let a = array(8, 1.5); a[0] = sqrt(2.0); let n = len(a); }");
        sema_err("fn main() { let a = array(8, true); }", "type-mismatch");
        sema_err("fn main() { let x = sqrt(2); }", "type-mismatch");
        sema_err("fn main() { let x = min(1, 2.0); }", "type-mismatch");
        sema_err("fn main() { let x = rank(1); }", "arity-mismatch");
    }

    /// The text, code and position of every MPI operand and payload
    /// check, in the order sema reports them.
    #[test]
    fn mpi_operand_diagnostics_are_pinned() {
        let src = "fn main() {
            let b = true;
            MPI_Send(b, b, b, b);
            let r = MPI_Recv(b, b, b);
            let i = MPI_Isend(b, b, b, b);
            let j = MPI_Irecv(b, b, b);
            let c = MPI_Comm_split(b, b, b);
            let d = MPI_Comm_dup(b);
            let w = MPI_Wait(b);
            MPI_Waitall(b, b);
            MPI_Barrier(b);
            let x = MPI_Bcast(b, b, b);
            let s = MPI_Reduce(b, SUM, b, b);
            let g = MPI_Gather(b, 0);
            let t = MPI_Scatter(1, 0);
            let a = MPI_Alltoall(b);
            let e = MPI_Reduce_scatter(u, SUM);
        }";
        let (mut prog, mut diags) = parse_program(src);
        assert!(!diags.has_errors(), "parse failed: {diags:?}");
        check_program(&mut prog, &mut diags);
        let got: Vec<String> = diags
            .iter()
            .map(|d| format!("{} {} {}", d.span.lo, d.code, d.message))
            .collect();
        let want = [
            "59 type-mismatch MPI_Send value must be numeric, found bool",
            "62 type-mismatch MPI_Send destination must be int, found bool",
            "65 type-mismatch MPI_Send tag must be int, found bool",
            "68 type-mismatch MPI_Send communicator must be comm, found bool",
            "101 type-mismatch MPI_Recv source must be int, found bool",
            "104 type-mismatch MPI_Recv tag must be int, found bool",
            "107 type-mismatch MPI_Recv communicator must be comm, found bool",
            "141 type-mismatch MPI_Isend value must be numeric, found bool",
            "144 type-mismatch MPI_Isend destination must be int, found bool",
            "147 type-mismatch MPI_Isend tag must be int, found bool",
            "150 type-mismatch MPI_Isend communicator must be comm, found bool",
            "184 type-mismatch MPI_Irecv source must be int, found bool",
            "187 type-mismatch MPI_Irecv tag must be int, found bool",
            "190 type-mismatch MPI_Irecv communicator must be comm, found bool",
            "229 type-mismatch MPI_Comm_split parent must be comm, found bool",
            "232 type-mismatch MPI_Comm_split color must be int, found bool",
            "235 type-mismatch MPI_Comm_split key must be int, found bool",
            "272 type-mismatch MPI_Comm_dup communicator must be comm, found bool",
            "305 type-mismatch MPI_Wait request must be request, found bool",
            "333 type-mismatch MPI_Waitall request must be request, found bool",
            "336 type-mismatch MPI_Waitall request must be request, found bool",
            "364 type-mismatch collective communicator must be comm, found bool",
            "401 type-mismatch collective root must be int, found bool",
            "404 type-mismatch collective communicator must be comm, found bool",
            "388 type-mismatch MPI_Bcast value must be numeric, found bool",
            "447 type-mismatch collective root must be int, found bool",
            "450 type-mismatch collective communicator must be comm, found bool",
            "428 type-mismatch MPI_Reduce value must be numeric, found bool",
            "474 type-mismatch MPI_Gather value must be numeric, found bool",
            "512 type-mismatch MPI_Scatter requires an array argument, found int",
            "551 type-mismatch MPI_Alltoall requires an array argument, found bool",
            "607 undeclared-variable use of undeclared variable `u`",
            "588 type-mismatch MPI_Reduce_scatter requires an array argument, found int",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn void_cannot_be_stored() {
        sema_err("fn main() { let x = MPI_Init(); }", "type-mismatch");
    }

    /// Every expression carries its type, every variable use and
    /// declaration its binding's slot and every call its callee's index.
    #[test]
    fn sema_annotates_types_slots_and_callees() {
        let (mut prog, mut diags) = parse_program(
            "fn main() { let x = 1.5; if (true) { let x = f(2); print(x); } print(x); }
             fn f(a: int) -> int { let b = a; return b; }",
        );
        check_program(&mut prog, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let [main, f] = &prog.functions[..] else {
            panic!("two functions");
        };
        let uses = |g: &Function| -> Vec<(Type, u32)> {
            let vars = g.exprs.iter().filter_map(|e| match e.kind {
                ExprKind::Var(_) => Some((e.ty, e.slot)),
                _ => None,
            });
            vars.collect()
        };
        // `x` (float) is slot 0, the inner `x` (int) slot 1.
        assert_eq!(uses(main), [(Type::Int, 1), (Type::Float, 0)]);
        // Parameters first: `a` is slot 0, `b` slot 1.
        assert_eq!(uses(f), [(Type::Int, 0), (Type::Int, 1)]);
        let call = main.exprs.iter().find_map(|e| match e.kind {
            ExprKind::Call(..) => Some((e.ty, e.slot)),
            _ => None,
        });
        assert_eq!(call, Some((Type::Int, 1)), "`f` is function 1");
        let lets: Vec<u32> = (main.stmts.iter())
            .filter_map(|s| match s.kind {
                StmtKind::Let { .. } => Some(s.slot),
                _ => None,
            })
            .collect();
        assert_eq!(lets, [1, 0], "a nested block's statements come first");
    }

    #[test]
    fn signatures_exposed() {
        let (mut prog, mut diags) =
            parse_program("fn f(a: int) -> float { return 1.0; } fn main() { }");
        let res = check_program(&mut prog, &mut diags);
        assert_eq!(
            res.get(prog.interner.get("f").unwrap()),
            Some(&Signature {
                params: vec![Type::Int],
                ret: Type::Float,
                index: 0,
            })
        );
    }
}
