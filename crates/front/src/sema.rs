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

/// Result of semantic analysis over a whole program.
#[derive(Debug, Clone, Default)]
pub struct SemaResult {
    /// Signatures for every function.
    pub signatures: Signatures,
}

/// The externally visible signature of `f`, as callers see it.
pub fn signature_of(f: &Function) -> Signature {
    Signature {
        params: f.params.iter().map(|p| p.ty).collect(),
        ret: f.ret,
    }
}

/// Type-check and structurally validate a single function body against a
/// complete `signatures` table; `interner` is the one `f`'s and the
/// table's symbols belong to. This is the per-function half of
/// [`check_program`]; incremental sessions call it directly after a
/// single-function edit whose signature is unchanged.
pub fn check_function(
    f: &Function,
    interner: &Interner,
    signatures: &Signatures,
    diags: &mut Diagnostics,
) {
    let mut ck = Checker {
        func: f,
        interner,
        signatures,
        diags,
        scopes: ScopeStack::new(),
        arg_tys: Vec::new(),
        ret_ty: f.ret,
        omp_depth: 0,
        loops: Vec::new(),
        barrier_forbidden: false,
    };
    for p in &f.params {
        if p.ty == Type::Void {
            ck.diags.error(
                "bad-param",
                format!("parameter `{}` cannot have type void", ck.name(p.name)),
                p.name.span,
            );
        }
        ck.declare(p.name, p.ty);
    }
    ck.check_block(&f.body);
}

/// Type-check and structurally validate `prog`, reporting into `diags`.
pub fn check_program(prog: &Program, diags: &mut Diagnostics) -> SemaResult {
    let mut signatures = Signatures::default();
    for f in &prog.functions {
        let sig = signature_of(f);
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

    for f in &prog.functions {
        check_function(f, &prog.interner, &signatures, diags);
    }

    SemaResult { signatures }
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

struct Checker<'a> {
    /// The function being checked: its arena resolves every [`ExprId`].
    func: &'a Function,
    interner: &'a Interner,
    signatures: &'a Signatures,
    diags: &'a mut Diagnostics,
    /// Types of the variables in scope.
    scopes: ScopeStack<Type>,
    /// Types of the arguments of the calls being checked, innermost
    /// last.
    arg_tys: Vec<Type>,
    ret_ty: Type,
    omp_depth: u32,
    loops: Vec<LoopCtx>,
    /// True while inside single/master/critical/pfor/sections, where an
    /// explicit `barrier` is illegal.
    barrier_forbidden: bool,
}

impl<'a> Checker<'a> {
    fn declare(&mut self, name: Ident, ty: Type) {
        self.scopes.declare(name.sym, ty);
    }

    fn lookup(&self, name: Ident) -> Option<Type> {
        self.scopes.lookup(name.sym)
    }

    /// The identifier's text, for a message.
    fn name(&self, id: Ident) -> &'a str {
        self.interner.resolve(id.sym)
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.func.expr(e).span
    }

    fn check_block(&mut self, b: &'a Block) {
        self.scopes.push();
        for s in &b.stmts {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    /// Check a loop body with its induction variable bound in the
    /// body's own scope.
    fn check_loop_body(&mut self, var: Ident, body: &'a Block) {
        self.scopes.push();
        self.declare(var, Type::Int);
        for st in &body.stmts {
            self.check_stmt(st);
        }
        self.scopes.pop();
    }

    /// Check a construct body with OMP depth increased by one.
    fn check_omp_body(&mut self, b: &'a Block) {
        self.omp_depth += 1;
        self.check_block(b);
        self.omp_depth -= 1;
    }

    fn check_stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let (name, init) = (*name, *init);
                let init_ty = self.check_expr(init);
                let final_ty = match ty {
                    Some(annot) => {
                        if *annot == Type::Void {
                            self.diags.error(
                                "bad-type",
                                "variables cannot have type void",
                                name.span,
                            );
                        } else if init_ty != Type::Void && init_ty != *annot {
                            self.diags.error(
                                "type-mismatch",
                                format!(
                                    "`{}` declared as {annot} but initialized with {init_ty}",
                                    self.name(name)
                                ),
                                self.span_of(init),
                            );
                        }
                        *annot
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
                self.declare(name, final_ty);
            }
            StmtKind::Assign { target, value } => {
                let value = *value;
                let value_ty = self.check_expr(value);
                match *target {
                    LValue::Var(id) => match self.lookup(id) {
                        Some(t) => {
                            if value_ty != Type::Void && value_ty != t {
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
                        match self.lookup(id) {
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
                self.expect_ty(*cond, Type::Bool, "if condition");
                self.check_block(then_blk);
                if let Some(e) = else_blk {
                    self.check_block(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.expect_ty(*cond, Type::Bool, "while condition");
                self.loops.push(LoopCtx {
                    kind: LoopKind::Sequential,
                    omp_depth: self.omp_depth,
                });
                self.check_block(body);
                self.loops.pop();
            }
            StmtKind::For { var, lo, hi, body } => {
                self.expect_ty(*lo, Type::Int, "for lower bound");
                self.expect_ty(*hi, Type::Int, "for upper bound");
                self.loops.push(LoopCtx {
                    kind: LoopKind::Sequential,
                    omp_depth: self.omp_depth,
                });
                self.check_loop_body(*var, body);
                self.loops.pop();
            }
            StmtKind::Return(value) => {
                if self.omp_depth > 0 {
                    self.diags.error(
                        "return-in-omp",
                        format!(
                            "`return` inside a parallel construct is not allowed in \
                             `{}` (the model requires perfectly nested regions)",
                            self.name(self.func.name)
                        ),
                        s.span,
                    );
                }
                match (*value, self.ret_ty) {
                    (None, Type::Void) => {}
                    (None, t) => self.diags.error(
                        "type-mismatch",
                        format!("function returns {t} but `return;` has no value"),
                        s.span,
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
                    .error("break-outside-loop", "`break` outside of a loop", s.span),
                Some(l) if l.kind == LoopKind::Workshare => self.diags.error(
                    "break-in-pfor",
                    "`break` cannot leave a worksharing `pfor` loop",
                    s.span,
                ),
                Some(l) if l.omp_depth != self.omp_depth => self.diags.error(
                    "break-across-omp",
                    "`break` would leave an enclosing parallel construct",
                    s.span,
                ),
                Some(_) => {}
            },
            StmtKind::Continue => match self.loops.last() {
                None => self.diags.error(
                    "continue-outside-loop",
                    "`continue` outside of a loop",
                    s.span,
                ),
                Some(l) if l.kind != LoopKind::Workshare && l.omp_depth != self.omp_depth => {
                    self.diags.error(
                        "continue-across-omp",
                        "`continue` would leave an enclosing parallel construct",
                        s.span,
                    )
                }
                Some(_) => {}
            },
            StmtKind::Expr(e) => {
                self.check_expr(*e);
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
                        s.span,
                    );
                }
            }
            StmtKind::Omp(omp) => self.check_omp(omp, s.span),
        }
    }

    fn check_omp(&mut self, omp: &'a OmpStmt, span: Span) {
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
        match omp {
            OmpStmt::Parallel { num_threads, body } => {
                if let Some(e) = num_threads {
                    self.expect_ty(*e, Type::Int, "num_threads clause");
                }
                // A new parallel region resets the barrier restriction:
                // a barrier directly inside the nested region is legal.
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = false;
                self.check_omp_body(body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::Single { body, .. } | OmpStmt::Master { body } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.check_omp_body(body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::Critical { body } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.check_omp_body(body);
                self.barrier_forbidden = saved;
            }
            OmpStmt::PFor {
                var, lo, hi, body, ..
            } => {
                self.expect_ty(*lo, Type::Int, "pfor lower bound");
                self.expect_ty(*hi, Type::Int, "pfor upper bound");
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                self.loops.push(LoopCtx {
                    kind: LoopKind::Workshare,
                    omp_depth: self.omp_depth + 1,
                });
                self.omp_depth += 1;
                self.check_loop_body(*var, body);
                self.omp_depth -= 1;
                self.loops.pop();
                self.barrier_forbidden = saved;
            }
            OmpStmt::Sections { sections, .. } => {
                let saved = self.barrier_forbidden;
                self.barrier_forbidden = true;
                for sec in sections {
                    self.check_omp_body(sec);
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

    fn expect_ty(&mut self, e: ExprId, want: Type, what: &str) {
        let got = self.check_expr(e);
        if got != want {
            self.diags.error(
                "type-mismatch",
                format!("{what} must be {want}, found {got}"),
                self.span_of(e),
            );
        }
    }

    /// Check every argument, leaving their types on top of `arg_tys`;
    /// returns where they start. The caller truncates back to it.
    fn check_args(&mut self, args: ExprRange) -> usize {
        let mark = self.arg_tys.len();
        for a in args.iter() {
            let t = self.check_expr(a);
            self.arg_tys.push(t);
        }
        mark
    }

    fn check_expr(&mut self, id: ExprId) -> Type {
        let e = *self.func.expr(id);
        match e.kind {
            ExprKind::Int(_) => Type::Int,
            ExprKind::Float(_) => Type::Float,
            ExprKind::Bool(_) => Type::Bool,
            ExprKind::Var(id) => match self.lookup(id) {
                Some(t) => t,
                None => {
                    self.undeclared(id);
                    Type::Int
                }
            },
            ExprKind::Index(id, idx) => {
                self.expect_ty(idx, Type::Int, "array index");
                match self.lookup(id) {
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
                        return Type::Int;
                    }
                    lt
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
                let mark = self.check_args(args);
                let signatures = self.signatures;
                let ret = match signatures.get(name.sym) {
                    None => {
                        self.diags.error(
                            "unknown-function",
                            format!("call to undefined function `{}`", self.name(name)),
                            name.span,
                        );
                        Type::Int
                    }
                    Some(sig) => {
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
                                let got = self.arg_tys[mark + i];
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
                };
                self.arg_tys.truncate(mark);
                ret
            }
            ExprKind::Intrinsic(intr, args) => {
                let mark = self.check_args(args);
                // Lent out for the call: it checks no further expression.
                let tys = std::mem::take(&mut self.arg_tys);
                let ty = self.check_intrinsic(intr, args, &tys[mark..], e.span);
                self.arg_tys = tys;
                self.arg_tys.truncate(mark);
                ty
            }
            ExprKind::Mpi(op) => self.check_mpi(&op, e.span),
        }
    }

    /// `arg_tys` are the types of `args`, already checked.
    fn check_intrinsic(
        &mut self,
        intr: Intrinsic,
        args: ExprRange,
        arg_tys: &[Type],
        span: Span,
    ) -> Type {
        let arity_err = |ck: &mut Self, want: usize| {
            ck.diags.error(
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
                    arity_err(self, 0);
                }
                Type::Int
            }
            Intrinsic::InParallel => {
                if !args.is_empty() {
                    arity_err(self, 0);
                }
                Type::Bool
            }
            Intrinsic::Sqrt => {
                if arg_tys.len() != 1 {
                    arity_err(self, 1);
                } else if arg_tys[0] != Type::Float {
                    self.diags.error(
                        "type-mismatch",
                        format!("`sqrt` requires float, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                }
                Type::Float
            }
            Intrinsic::Abs => {
                if arg_tys.len() != 1 {
                    arity_err(self, 1);
                    return Type::Int;
                }
                if !arg_tys[0].is_numeric() {
                    self.diags.error(
                        "type-mismatch",
                        format!("`abs` requires a numeric argument, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                    return Type::Int;
                }
                arg_tys[0]
            }
            Intrinsic::MinOf | Intrinsic::MaxOf => {
                if arg_tys.len() != 2 {
                    arity_err(self, 2);
                    return Type::Int;
                }
                if arg_tys[0] != arg_tys[1] || !arg_tys[0].is_numeric() {
                    self.diags.error(
                        "type-mismatch",
                        format!(
                            "`{}` requires two matching numeric arguments, found {} and {}",
                            intr.name(),
                            arg_tys[0],
                            arg_tys[1]
                        ),
                        span,
                    );
                    return Type::Int;
                }
                arg_tys[0]
            }
            Intrinsic::IntOf => {
                if arg_tys.len() != 1 {
                    arity_err(self, 1);
                } else if arg_tys[0] != Type::Float {
                    self.diags.error(
                        "type-mismatch",
                        format!("`int_of` requires float, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                }
                Type::Int
            }
            Intrinsic::FloatOf => {
                if arg_tys.len() != 1 {
                    arity_err(self, 1);
                } else if arg_tys[0] != Type::Int {
                    self.diags.error(
                        "type-mismatch",
                        format!("`float_of` requires int, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                }
                Type::Float
            }
            Intrinsic::ArrayNew => {
                if arg_tys.len() != 2 {
                    arity_err(self, 2);
                    return Type::ArrayInt;
                }
                if arg_tys[0] != Type::Int {
                    self.diags.error(
                        "type-mismatch",
                        format!("array length must be int, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                }
                match Type::array_of(arg_tys[1]) {
                    Some(t) => t,
                    None => {
                        self.diags.error(
                            "type-mismatch",
                            format!("array elements must be int or float, found {}", arg_tys[1]),
                            self.span_of(args.get(1)),
                        );
                        Type::ArrayInt
                    }
                }
            }
            Intrinsic::Len => {
                if arg_tys.len() != 1 {
                    arity_err(self, 1);
                } else if !arg_tys[0].is_array() {
                    self.diags.error(
                        "type-mismatch",
                        format!("`len` requires an array, found {}", arg_tys[0]),
                        self.span_of(args.get(0)),
                    );
                }
                Type::Int
            }
        }
    }

    fn check_mpi(&mut self, op: &MpiOp, span: Span) -> Type {
        match *op {
            MpiOp::Init | MpiOp::InitThread { .. } | MpiOp::Finalize => Type::Void,
            MpiOp::Send {
                value,
                dest,
                tag,
                comm,
            } => {
                let vt = self.check_expr(value);
                if !vt.is_numeric() {
                    self.diags.error(
                        "type-mismatch",
                        format!("MPI_Send value must be numeric, found {vt}"),
                        self.span_of(value),
                    );
                }
                self.expect_ty(dest, Type::Int, "MPI_Send destination");
                self.expect_ty(tag, Type::Int, "MPI_Send tag");
                if let Some(cm) = comm {
                    self.expect_ty(cm, Type::Comm, "MPI_Send communicator");
                }
                Type::Void
            }
            MpiOp::Recv { src, tag, comm } => {
                self.expect_ty(src, Type::Int, "MPI_Recv source");
                self.expect_ty(tag, Type::Int, "MPI_Recv tag");
                if let Some(cm) = comm {
                    self.expect_ty(cm, Type::Comm, "MPI_Recv communicator");
                }
                // Halo exchanges carry field values: Recv yields float
                // (integer payloads are coerced at run time).
                Type::Float
            }
            MpiOp::CommWorld => Type::Comm,
            MpiOp::CommSplit { parent, color, key } => {
                self.expect_ty(parent, Type::Comm, "MPI_Comm_split parent");
                self.expect_ty(color, Type::Int, "MPI_Comm_split color");
                self.expect_ty(key, Type::Int, "MPI_Comm_split key");
                Type::Comm
            }
            MpiOp::CommDup { comm } => {
                self.expect_ty(comm, Type::Comm, "MPI_Comm_dup communicator");
                Type::Comm
            }
            MpiOp::Isend {
                value,
                dest,
                tag,
                comm,
            } => {
                let vt = self.check_expr(value);
                if !vt.is_numeric() {
                    self.diags.error(
                        "type-mismatch",
                        format!("MPI_Isend value must be numeric, found {vt}"),
                        self.span_of(value),
                    );
                }
                self.expect_ty(dest, Type::Int, "MPI_Isend destination");
                self.expect_ty(tag, Type::Int, "MPI_Isend tag");
                if let Some(cm) = comm {
                    self.expect_ty(cm, Type::Comm, "MPI_Isend communicator");
                }
                Type::Request
            }
            MpiOp::Irecv { src, tag, comm } => {
                self.expect_ty(src, Type::Int, "MPI_Irecv source");
                self.expect_ty(tag, Type::Int, "MPI_Irecv tag");
                if let Some(cm) = comm {
                    self.expect_ty(cm, Type::Comm, "MPI_Irecv communicator");
                }
                Type::Request
            }
            MpiOp::Wait { request } => {
                self.expect_ty(request, Type::Request, "MPI_Wait request");
                // Like MPI_Recv: receive completions carry field values
                // (float); send completions yield 0.0.
                Type::Float
            }
            MpiOp::Waitall { requests } => {
                for r in requests.iter() {
                    self.expect_ty(r, Type::Request, "MPI_Waitall request");
                }
                Type::Void
            }
            MpiOp::AnySource | MpiOp::AnyTag => Type::Int,
            MpiOp::Collective(c) => self.check_collective(&c, span),
        }
    }

    fn check_collective(&mut self, c: &CollectiveCall, span: Span) -> Type {
        if let Some(root) = c.root {
            self.expect_ty(root, Type::Int, "collective root");
        }
        if c.kind.has_reduce_op() && c.reduce_op.is_none() {
            self.diags.error(
                "mpi-args",
                format!("{} requires a reduction operator", c.kind),
                span,
            );
        }
        if let Some(cm) = c.comm {
            self.expect_ty(cm, Type::Comm, "collective communicator");
        }
        let vt = c.value.map(|v| self.check_expr(v));
        match c.kind {
            CollectiveKind::Barrier => Type::Void,
            CollectiveKind::Bcast => match vt {
                Some(t) if t.is_numeric() => t,
                Some(t) => {
                    self.diags.error(
                        "type-mismatch",
                        format!("MPI_Bcast value must be numeric, found {t}"),
                        span,
                    );
                    Type::Int
                }
                None => {
                    self.diags
                        .error("mpi-args", "MPI_Bcast requires a value", span);
                    Type::Int
                }
            },
            CollectiveKind::Reduce | CollectiveKind::Allreduce | CollectiveKind::Scan => match vt {
                Some(t) if t.is_numeric() => t,
                Some(t) => {
                    self.diags.error(
                        "type-mismatch",
                        format!("{} value must be numeric, found {t}", c.kind),
                        span,
                    );
                    Type::Int
                }
                None => {
                    self.diags
                        .error("mpi-args", format!("{} requires a value", c.kind), span);
                    Type::Int
                }
            },
            CollectiveKind::Gather | CollectiveKind::Allgather => match vt {
                Some(t) if t.is_numeric() => Type::array_of(t).expect("numeric elem"),
                Some(t) => {
                    self.diags.error(
                        "type-mismatch",
                        format!("{} value must be numeric, found {t}", c.kind),
                        span,
                    );
                    Type::ArrayInt
                }
                None => {
                    self.diags
                        .error("mpi-args", format!("{} requires a value", c.kind), span);
                    Type::ArrayInt
                }
            },
            CollectiveKind::Scatter | CollectiveKind::ReduceScatter => match vt {
                Some(t) if t.is_array() => t.elem().expect("array elem"),
                Some(t) => {
                    self.diags.error(
                        "type-mismatch",
                        format!("{} requires an array argument, found {t}", c.kind),
                        span,
                    );
                    Type::Int
                }
                None => {
                    self.diags.error(
                        "mpi-args",
                        format!("{} requires an array argument", c.kind),
                        span,
                    );
                    Type::Int
                }
            },
            CollectiveKind::Alltoall => match vt {
                Some(t) if t.is_array() => t,
                Some(t) => {
                    self.diags.error(
                        "type-mismatch",
                        format!("MPI_Alltoall requires an array argument, found {t}"),
                        span,
                    );
                    Type::ArrayInt
                }
                None => {
                    self.diags
                        .error("mpi-args", "MPI_Alltoall requires an array argument", span);
                    Type::ArrayInt
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sema_ok(src: &str) {
        let (prog, mut diags) = parse_program(src);
        assert!(!diags.has_errors(), "parse failed: {diags:?}");
        check_program(&prog, &mut diags);
        assert!(
            !diags.has_errors(),
            "unexpected sema errors:\n{:#?}",
            diags.into_vec()
        );
    }

    fn sema_err(src: &str, code: &str) {
        let (prog, mut diags) = parse_program(src);
        assert!(!diags.has_errors(), "parse failed: {diags:?}");
        check_program(&prog, &mut diags);
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

    #[test]
    fn void_cannot_be_stored() {
        sema_err("fn main() { let x = MPI_Init(); }", "type-mismatch");
    }

    #[test]
    fn signatures_exposed() {
        let (prog, mut diags) =
            parse_program("fn f(a: int) -> float { return 1.0; } fn main() { }");
        let res = check_program(&prog, &mut diags);
        assert_eq!(
            res.signatures.get(prog.interner.get("f").unwrap()),
            Some(&Signature {
                params: vec![Type::Int],
                ret: Type::Float
            })
        );
    }
}
