//! AST → CFG lowering.
//!
//! Reproduces the CFG shape the paper's compiler pass operates on (§2):
//!
//! * every OpenMP directive gets a dedicated basic block;
//! * implicit barriers at the ends of `parallel`, `single` (unless
//!   `nowait`), `pfor`/`sections` (unless `nowait`) become explicit
//!   [`Directive::Barrier`] nodes;
//! * threads that skip a `single`/`master`/`section` body jump *around*
//!   the matching end directive, so every region's begin/end nodes
//!   bracket exactly the paths that executed the region.
//!
//! Expressions are lowered to three-address instructions over virtual
//! registers; `&&`/`||` short-circuit through the CFG.

use crate::func::{BasicBlock, FuncIr, Module};
use crate::instr::{BlockKind, Directive, Instr, MpiIr, Terminator, WorkshareKind};
use crate::types::{BlockId, Reg, RegionId, Value};
use parcoach_front::ast::{
    BinOp, Block, Expr, ExprId, ExprKind, Function, Ident, Intrinsic, LValue, MpiOp, OmpStmt,
    Program, Stmt, StmtKind, Type, UnOp,
};
use parcoach_front::scope::ScopeStack;
use parcoach_front::sema::Signatures;
use parcoach_front::span::Span;
use parcoach_front::symbol::Interner;

/// Lower a full checked program to IR.
pub fn lower_program(prog: &Program, sigs: &Signatures) -> Module {
    let mut lowerer = Lowerer::new(&prog.interner, sigs);
    let funcs = prog.functions.iter().map(|f| lowerer.run(f)).collect();
    Module::new(funcs)
}

/// Lower a single checked function against a full signature table;
/// `interner` is the one `f`'s and the table's symbols belong to. The
/// incremental session (`parcoachd` edits) re-lowers only the edited
/// function; the result is bit-identical to the corresponding entry of
/// [`lower_program`] because lowering is per-function pure.
pub fn lower_function(f: &Function, interner: &Interner, sigs: &Signatures) -> FuncIr {
    Lowerer::new(interner, sigs).run(f)
}

struct LoopTargets {
    continue_bb: BlockId,
    break_bb: BlockId,
}

/// Lowers the functions of one program, one after the other. The
/// vectors a function grows in are the lowerer's: they keep their
/// capacity from function to function, and each finished function gets
/// copies of exactly its final size.
struct Lowerer<'a> {
    interner: &'a Interner,
    sigs: &'a Signatures,
    /// The arena of the function being lowered.
    exprs: &'a [Expr],
    blocks: Vec<BasicBlock>,
    reg_types: Vec<Type>,
    reg_names: Vec<Option<String>>,
    /// Registers of the variables in scope.
    scopes: ScopeStack<Reg>,
    cur: BlockId,
    regions: u32,
    loops: Vec<LoopTargets>,
}

impl<'a> Lowerer<'a> {
    fn new(interner: &'a Interner, sigs: &'a Signatures) -> Self {
        Lowerer {
            interner,
            sigs,
            exprs: &[],
            blocks: Vec::new(),
            reg_types: Vec::new(),
            reg_names: Vec::new(),
            scopes: ScopeStack::new(),
            cur: BlockId(0),
            regions: 0,
            loops: Vec::new(),
        }
    }

    fn run(&mut self, src: &'a Function) -> FuncIr {
        self.exprs = &src.exprs;
        self.blocks.push(BasicBlock::new());
        self.cur = BlockId(0);
        self.regions = 0;
        let mut params = Vec::with_capacity(src.params.len());
        for p in &src.params {
            let r = self.fresh_named(p.ty, p.name);
            self.scopes.declare(p.name.sym, r);
            params.push(r);
        }
        self.blocks[0].span = src.span;
        self.lower_block(&src.body);
        // Fall-through at the end of the body: synthesize a return.
        if matches!(self.blocks[self.cur.index()].term, Terminator::Unreachable) {
            self.blocks[self.cur.index()].term = Terminator::Return {
                value: None,
                span: src.span,
            };
        }
        self.scopes.clear();
        FuncIr {
            name: self.interner.resolve(src.name.sym).to_string(),
            params,
            ret: src.ret,
            reg_types: self.reg_types.drain(..).collect(),
            reg_names: self.reg_names.drain(..).collect(),
            blocks: self.blocks.drain(..).collect(),
            entry: BlockId(0),
            region_count: self.regions,
            span: src.span,
        }
    }

    // ---- infrastructure --------------------------------------------------

    fn fresh(&mut self, ty: Type) -> Reg {
        let r = Reg(self.reg_types.len() as u32);
        self.reg_types.push(ty);
        self.reg_names.push(None);
        r
    }

    fn fresh_named(&mut self, ty: Type, name: Ident) -> Reg {
        let r = self.fresh(ty);
        self.reg_names[r.index()] = Some(self.interner.resolve(name.sym).to_string());
        r
    }

    fn fresh_region(&mut self) -> RegionId {
        let r = RegionId(self.regions);
        self.regions += 1;
        r
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new());
        id
    }

    fn new_directive_block(&mut self, d: Directive, span: Span) -> BlockId {
        let id = self.new_block();
        let b = &mut self.blocks[id.index()];
        b.kind = BlockKind::Directive(d);
        b.span = span;
        id
    }

    fn emit(&mut self, i: Instr) {
        self.blocks[self.cur.index()].instrs.push(i);
    }

    fn set_term(&mut self, t: Terminator) {
        debug_assert!(
            matches!(self.blocks[self.cur.index()].term, Terminator::Unreachable),
            "terminator set twice on {}",
            self.cur
        );
        self.blocks[self.cur.index()].term = t;
    }

    /// Finish the current block with a goto and continue in `next`.
    fn goto(&mut self, next: BlockId) {
        self.set_term(Terminator::Goto(next));
        self.cur = next;
    }

    /// True when the current block already ends (after break/continue/
    /// return) — further statements in the source block are dead code.
    fn terminated(&self) -> bool {
        !matches!(self.blocks[self.cur.index()].term, Terminator::Unreachable)
    }

    fn lookup(&self, name: Ident) -> Reg {
        self.scopes.lookup(name.sym).unwrap_or_else(|| {
            panic!(
                "sema guaranteed variable `{}` exists",
                self.interner.resolve(name.sym)
            )
        })
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.exprs[e.0 as usize].span
    }

    // ---- statements -------------------------------------------------------

    fn lower_block(&mut self, b: &'a Block) {
        self.scopes.push();
        for s in &b.stmts {
            if self.terminated() {
                break; // dead code after break/continue/return
            }
            self.lower_stmt(s);
        }
        self.scopes.pop();
    }

    /// Lower a loop body with its induction variable bound to `iv` in
    /// the body's own scope.
    fn lower_loop_body(&mut self, var: Ident, iv: Reg, body: &'a Block) {
        self.scopes.push();
        self.scopes.declare(var.sym, iv);
        for st in &body.stmts {
            if self.terminated() {
                break;
            }
            self.lower_stmt(st);
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, s: &'a Stmt) {
        if self.blocks[self.cur.index()].span.is_dummy() {
            self.blocks[self.cur.index()].span = s.span;
        }
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let v = self.lower_expr(*init);
                let ty = ty.unwrap_or_else(|| self.value_ty(v));
                let r = self.fresh_named(ty, *name);
                self.emit(Instr::Copy { dest: r, src: v });
                self.scopes.declare(name.sym, r);
            }
            StmtKind::Assign { target, value } => {
                let v = self.lower_expr(*value);
                match *target {
                    LValue::Var(id) => {
                        let r = self.lookup(id);
                        self.emit(Instr::Copy { dest: r, src: v });
                    }
                    LValue::Index(id, idx) => {
                        let arr = self.lookup(id);
                        let i = self.lower_expr(idx);
                        self.emit(Instr::Store {
                            arr,
                            idx: i,
                            value: v,
                            span: s.span,
                        });
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_expr(*cond);
                let then_bb = self.new_block();
                let join = self.new_block();
                let else_bb = if else_blk.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb,
                    else_bb,
                    span: self.span_of(*cond),
                });
                self.cur = then_bb;
                self.lower_block(then_blk);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(join));
                }
                if let Some(eb) = else_blk {
                    self.cur = else_bb;
                    self.lower_block(eb);
                    if !self.terminated() {
                        self.set_term(Terminator::Goto(join));
                    }
                }
                self.cur = join;
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                self.goto(head);
                let c = self.lower_expr(*cond);
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                    span: self.span_of(*cond),
                });
                self.loops.push(LoopTargets {
                    continue_bb: head,
                    break_bb: exit,
                });
                self.cur = body_bb;
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(head));
                }
                self.loops.pop();
                self.cur = exit;
            }
            StmtKind::For { var, lo, hi, body } => {
                let lo_v = self.lower_expr(*lo);
                let hi_v = self.lower_expr(*hi);
                // Materialize the bound so it is evaluated once.
                let bound = self.fresh(Type::Int);
                self.emit(Instr::Copy {
                    dest: bound,
                    src: hi_v,
                });
                let iv = self.fresh_named(Type::Int, *var);
                self.emit(Instr::Copy {
                    dest: iv,
                    src: lo_v,
                });
                let head = self.new_block();
                self.goto(head);
                let c = self.fresh(Type::Bool);
                self.emit(Instr::Binary {
                    dest: c,
                    op: BinOp::Lt,
                    lhs: iv.into(),
                    rhs: bound.into(),
                    span: s.span,
                });
                let body_bb = self.new_block();
                let incr = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: c.into(),
                    then_bb: body_bb,
                    else_bb: exit,
                    span: s.span,
                });
                self.loops.push(LoopTargets {
                    continue_bb: incr,
                    break_bb: exit,
                });
                self.cur = body_bb;
                self.lower_loop_body(*var, iv, body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(incr));
                }
                self.loops.pop();
                self.cur = incr;
                self.emit(Instr::Binary {
                    dest: iv,
                    op: BinOp::Add,
                    lhs: iv.into(),
                    rhs: Value::int(1),
                    span: s.span,
                });
                self.set_term(Terminator::Goto(head));
                self.cur = exit;
            }
            StmtKind::Return(value) => {
                let v = value.map(|e| self.lower_expr(e));
                self.set_term(Terminator::Return {
                    value: v,
                    span: s.span,
                });
            }
            StmtKind::Break => {
                let target = self
                    .loops
                    .last()
                    .expect("sema guaranteed break is inside a loop")
                    .break_bb;
                self.set_term(Terminator::Goto(target));
            }
            StmtKind::Continue => {
                let target = self
                    .loops
                    .last()
                    .expect("sema guaranteed continue is inside a loop")
                    .continue_bb;
                self.set_term(Terminator::Goto(target));
            }
            StmtKind::Expr(e) => {
                self.lower_expr(*e);
            }
            StmtKind::Print(args) => {
                let vals = args.iter().map(|a| self.lower_expr(a)).collect();
                self.emit(Instr::Print { args: vals });
            }
            StmtKind::Barrier => {
                let bar = self.new_directive_block(
                    Directive::Barrier {
                        implicit: false,
                        region: None,
                        span: s.span,
                    },
                    s.span,
                );
                self.goto(bar);
                let cont = self.new_block();
                self.goto(cont);
            }
            StmtKind::Omp(omp) => self.lower_omp(omp, s.span),
        }
    }

    fn lower_omp(&mut self, omp: &'a OmpStmt, span: Span) {
        match omp {
            OmpStmt::Parallel { num_threads, body } => {
                let nt = num_threads.map(|e| self.lower_expr(e));
                let region = self.fresh_region();
                let pb = self.new_directive_block(
                    Directive::ParallelBegin {
                        region,
                        num_threads: nt,
                        span,
                    },
                    span,
                );
                self.goto(pb);
                let body_entry = self.new_block();
                self.goto(body_entry);
                self.lower_block(body);
                let ib = self.new_directive_block(
                    Directive::Barrier {
                        implicit: true,
                        region: Some(region),
                        span,
                    },
                    span,
                );
                self.goto(ib);
                let pe = self.new_directive_block(Directive::ParallelEnd { region }, span);
                self.goto(pe);
                let cont = self.new_block();
                self.goto(cont);
            }
            OmpStmt::Single { nowait, body } => {
                let region = self.fresh_region();
                let chosen = self.fresh(Type::Bool);
                let sb = self.new_directive_block(
                    Directive::SingleBegin {
                        region,
                        nowait: *nowait,
                        chosen,
                        span,
                    },
                    span,
                );
                self.goto(sb);
                let body_entry = self.new_block();
                // Non-chosen threads jump around the body *and* the end
                // directive, to the barrier (or to the continuation when
                // nowait).
                let se = self.new_directive_block(Directive::SingleEnd { region }, span);
                let after = if *nowait {
                    self.new_block()
                } else {
                    self.new_directive_block(
                        Directive::Barrier {
                            implicit: true,
                            region: Some(region),
                            span,
                        },
                        span,
                    )
                };
                self.set_term(Terminator::Branch {
                    cond: chosen.into(),
                    then_bb: body_entry,
                    else_bb: after,
                    span,
                });
                self.cur = body_entry;
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(se));
                }
                self.blocks[se.index()].term = Terminator::Goto(after);
                self.cur = after;
                if !*nowait {
                    // `after` is the barrier directive; fall through to a
                    // fresh normal block.
                    let cont = self.new_block();
                    self.goto(cont);
                }
            }
            OmpStmt::Master { body } => {
                let region = self.fresh_region();
                let chosen = self.fresh(Type::Bool);
                let mb = self.new_directive_block(
                    Directive::MasterBegin {
                        region,
                        chosen,
                        span,
                    },
                    span,
                );
                self.goto(mb);
                let body_entry = self.new_block();
                let me = self.new_directive_block(Directive::MasterEnd { region }, span);
                let cont = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: chosen.into(),
                    then_bb: body_entry,
                    else_bb: cont,
                    span,
                });
                self.cur = body_entry;
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(me));
                }
                self.blocks[me.index()].term = Terminator::Goto(cont);
                self.cur = cont;
            }
            OmpStmt::Critical { body } => {
                let region = self.fresh_region();
                let cb = self.new_directive_block(Directive::CriticalBegin { region, span }, span);
                self.goto(cb);
                let body_entry = self.new_block();
                self.goto(body_entry);
                self.lower_block(body);
                let ce = self.new_directive_block(Directive::CriticalEnd { region }, span);
                self.goto(ce);
                let cont = self.new_block();
                self.goto(cont);
            }
            OmpStmt::PFor {
                nowait,
                var,
                lo,
                hi,
                body,
            } => {
                let lo_v = self.lower_expr(*lo);
                let hi_v = self.lower_expr(*hi);
                let region = self.fresh_region();
                let wb = self.new_directive_block(
                    Directive::WorkshareBegin {
                        region,
                        kind: WorkshareKind::PFor,
                        nowait: *nowait,
                        span,
                    },
                    span,
                );
                self.goto(wb);
                let iv = self.fresh_named(Type::Int, *var);
                let chunk_end = self.fresh(Type::Int);
                let pi = self.new_directive_block(
                    Directive::PForInit {
                        region,
                        var: iv,
                        chunk_end,
                        lo: lo_v,
                        hi: hi_v,
                    },
                    span,
                );
                self.goto(pi);
                let head = self.new_block();
                self.goto(head);
                let c = self.fresh(Type::Bool);
                self.emit(Instr::Binary {
                    dest: c,
                    op: BinOp::Lt,
                    lhs: iv.into(),
                    rhs: chunk_end.into(),
                    span,
                });
                let body_bb = self.new_block();
                let incr = self.new_block();
                let we = self.new_directive_block(Directive::WorkshareEnd { region }, span);
                self.set_term(Terminator::Branch {
                    cond: c.into(),
                    then_bb: body_bb,
                    else_bb: we,
                    span,
                });
                // `continue` in a pfor targets the increment block; break
                // is rejected by sema.
                self.loops.push(LoopTargets {
                    continue_bb: incr,
                    break_bb: we,
                });
                self.cur = body_bb;
                self.lower_loop_body(*var, iv, body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(incr));
                }
                self.loops.pop();
                self.cur = incr;
                self.emit(Instr::Binary {
                    dest: iv,
                    op: BinOp::Add,
                    lhs: iv.into(),
                    rhs: Value::int(1),
                    span,
                });
                self.set_term(Terminator::Goto(head));
                self.cur = we;
                if *nowait {
                    let cont = self.new_block();
                    self.goto(cont);
                } else {
                    let ib = self.new_directive_block(
                        Directive::Barrier {
                            implicit: true,
                            region: Some(region),
                            span,
                        },
                        span,
                    );
                    self.goto(ib);
                    let cont = self.new_block();
                    self.goto(cont);
                }
            }
            OmpStmt::Sections { nowait, sections } => {
                let parent = self.fresh_region();
                let wb = self.new_directive_block(
                    Directive::WorkshareBegin {
                        region: parent,
                        kind: WorkshareKind::Sections,
                        nowait: *nowait,
                        span,
                    },
                    span,
                );
                self.goto(wb);
                for (idx, sec) in sections.iter().enumerate() {
                    let region = self.fresh_region();
                    let chosen = self.fresh(Type::Bool);
                    let sb = self.new_directive_block(
                        Directive::SectionBegin {
                            region,
                            parent,
                            index: idx as u32,
                            chosen,
                        },
                        sec.span,
                    );
                    self.goto(sb);
                    let body_entry = self.new_block();
                    let se = self.new_directive_block(Directive::SectionEnd { region }, sec.span);
                    let next = self.new_block();
                    self.set_term(Terminator::Branch {
                        cond: chosen.into(),
                        then_bb: body_entry,
                        else_bb: next,
                        span: sec.span,
                    });
                    self.cur = body_entry;
                    self.lower_block(sec);
                    if !self.terminated() {
                        self.set_term(Terminator::Goto(se));
                    }
                    self.blocks[se.index()].term = Terminator::Goto(next);
                    self.cur = next;
                }
                let we = self.new_directive_block(Directive::WorkshareEnd { region: parent }, span);
                self.goto(we);
                if *nowait {
                    let cont = self.new_block();
                    self.goto(cont);
                } else {
                    let ib = self.new_directive_block(
                        Directive::Barrier {
                            implicit: true,
                            region: Some(parent),
                            span,
                        },
                        span,
                    );
                    self.goto(ib);
                    let cont = self.new_block();
                    self.goto(cont);
                }
            }
        }
    }

    // ---- expressions -------------------------------------------------------

    fn value_ty(&self, v: Value) -> Type {
        match v {
            Value::Reg(r) => self.reg_types[r.index()],
            Value::Const(c) => c.ty(),
        }
    }

    fn lower_expr(&mut self, e: ExprId) -> Value {
        let e = self.exprs[e.0 as usize];
        match e.kind {
            ExprKind::Int(v) => Value::int(v),
            ExprKind::Float(v) => Value::Const(crate::types::Const::Float(v)),
            ExprKind::Bool(v) => Value::bool(v),
            ExprKind::Var(id) => Value::Reg(self.lookup(id)),
            ExprKind::Index(id, idx) => {
                let arr = self.lookup(id);
                let i = self.lower_expr(idx);
                let elem = self.reg_types[arr.index()]
                    .elem()
                    .expect("sema guaranteed array type");
                let dest = self.fresh(elem);
                self.emit(Instr::Load {
                    dest,
                    arr,
                    idx: i,
                    span: e.span,
                });
                dest.into()
            }
            ExprKind::Unary(op, inner) => {
                let v = self.lower_expr(inner);
                let ty = match op {
                    UnOp::Neg => self.value_ty(v),
                    UnOp::Not => Type::Bool,
                };
                let dest = self.fresh(ty);
                self.emit(Instr::Unary { dest, op, src: v });
                dest.into()
            }
            ExprKind::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // Short-circuit lowering through the CFG.
                let dest = self.fresh(Type::Bool);
                let lv = self.lower_expr(l);
                let rhs_bb = self.new_block();
                let short_bb = self.new_block();
                let join = self.new_block();
                let (then_bb, else_bb, short_val) = match op {
                    BinOp::And => (rhs_bb, short_bb, false),
                    BinOp::Or => (short_bb, rhs_bb, true),
                    _ => unreachable!(),
                };
                self.set_term(Terminator::Branch {
                    cond: lv,
                    then_bb,
                    else_bb,
                    span: e.span,
                });
                self.cur = rhs_bb;
                let rv = self.lower_expr(r);
                self.emit(Instr::Copy { dest, src: rv });
                self.set_term(Terminator::Goto(join));
                self.cur = short_bb;
                self.emit(Instr::Copy {
                    dest,
                    src: Value::bool(short_val),
                });
                self.set_term(Terminator::Goto(join));
                self.cur = join;
                dest.into()
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.lower_expr(l);
                let rv = self.lower_expr(r);
                let ty = if op.is_cmp() {
                    Type::Bool
                } else {
                    self.value_ty(lv)
                };
                let dest = self.fresh(ty);
                self.emit(Instr::Binary {
                    dest,
                    op,
                    lhs: lv,
                    rhs: rv,
                    span: e.span,
                });
                dest.into()
            }
            ExprKind::Call(name, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.lower_expr(a)).collect();
                let ret = self.sigs.get(name.sym).map_or(Type::Void, |s| s.ret);
                let dest = if ret == Type::Void {
                    None
                } else {
                    Some(self.fresh(ret))
                };
                self.emit(Instr::Call {
                    dest,
                    func: self.interner.resolve(name.sym).to_string(),
                    args: vals,
                    span: e.span,
                });
                dest.map(Value::Reg).unwrap_or(Value::int(0))
            }
            ExprKind::Intrinsic(intr, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.lower_expr(a)).collect();
                if intr == Intrinsic::ArrayNew {
                    let elem = self.value_ty(vals[1]);
                    let ty = Type::array_of(elem).expect("sema checked elem type");
                    let dest = self.fresh(ty);
                    self.emit(Instr::ArrayNew {
                        dest,
                        len: vals[0],
                        init: vals[1],
                        elem,
                        span: e.span,
                    });
                    return dest.into();
                }
                let ty = match intr {
                    Intrinsic::Rank
                    | Intrinsic::Size
                    | Intrinsic::ThreadNum
                    | Intrinsic::NumThreads
                    | Intrinsic::IntOf
                    | Intrinsic::Len => Type::Int,
                    Intrinsic::InParallel => Type::Bool,
                    Intrinsic::Sqrt | Intrinsic::FloatOf => Type::Float,
                    Intrinsic::Abs | Intrinsic::MinOf | Intrinsic::MaxOf => self.value_ty(vals[0]),
                    Intrinsic::ArrayNew => unreachable!("handled above"),
                };
                let dest = self.fresh(ty);
                self.emit(Instr::Intrinsic {
                    dest,
                    intr,
                    args: vals,
                });
                dest.into()
            }
            ExprKind::Mpi(op) => self.lower_mpi(&op, e.span),
        }
    }

    fn lower_mpi(&mut self, op: &MpiOp, span: Span) -> Value {
        use parcoach_front::ast::CollectiveKind as CK;
        match *op {
            MpiOp::Init => {
                self.emit(Instr::Mpi {
                    dest: None,
                    op: MpiIr::Init { required: None },
                    span,
                });
                Value::int(0)
            }
            MpiOp::InitThread { required } => {
                self.emit(Instr::Mpi {
                    dest: None,
                    op: MpiIr::Init {
                        required: Some(required),
                    },
                    span,
                });
                Value::int(0)
            }
            MpiOp::Finalize => {
                self.emit(Instr::Mpi {
                    dest: None,
                    op: MpiIr::Finalize,
                    span,
                });
                Value::int(0)
            }
            MpiOp::Send {
                value,
                dest,
                tag,
                comm,
            } => {
                let v = self.lower_expr(value);
                let d = self.lower_expr(dest);
                let t = self.lower_expr(tag);
                let c = comm.map(|e| self.lower_expr(e));
                self.emit(Instr::Mpi {
                    dest: None,
                    op: MpiIr::Send {
                        value: v,
                        dest: d,
                        tag: t,
                        comm: c,
                    },
                    span,
                });
                Value::int(0)
            }
            MpiOp::Recv { src, tag, comm } => {
                let s = self.lower_expr(src);
                let t = self.lower_expr(tag);
                let c = comm.map(|e| self.lower_expr(e));
                let dest = self.fresh(Type::Float);
                self.emit(Instr::Mpi {
                    dest: Some(dest),
                    op: MpiIr::Recv {
                        src: s,
                        tag: t,
                        comm: c,
                    },
                    span,
                });
                dest.into()
            }
            MpiOp::CommWorld => {
                let dest = self.fresh(Type::Comm);
                self.emit(Instr::Mpi {
                    dest: Some(dest),
                    op: MpiIr::CommWorld,
                    span,
                });
                dest.into()
            }
            MpiOp::CommSplit { parent, color, key } => {
                let p = self.lower_expr(parent);
                let c = self.lower_expr(color);
                let k = self.lower_expr(key);
                let dest = self.fresh(Type::Comm);
                self.emit(Instr::Mpi {
                    dest: Some(dest),
                    op: MpiIr::CommSplit {
                        parent: p,
                        color: c,
                        key: k,
                    },
                    span,
                });
                dest.into()
            }
            MpiOp::CommDup { comm } => {
                let c = self.lower_expr(comm);
                let dest = self.fresh(Type::Comm);
                self.emit(Instr::Mpi {
                    dest: Some(dest),
                    op: MpiIr::CommDup { comm: c },
                    span,
                });
                dest.into()
            }
            MpiOp::Isend {
                value,
                dest,
                tag,
                comm,
            } => {
                let v = self.lower_expr(value);
                let d = self.lower_expr(dest);
                let t = self.lower_expr(tag);
                let c = comm.map(|e| self.lower_expr(e));
                let req = self.fresh(Type::Request);
                self.emit(Instr::Mpi {
                    dest: Some(req),
                    op: MpiIr::Isend {
                        value: v,
                        dest: d,
                        tag: t,
                        comm: c,
                    },
                    span,
                });
                req.into()
            }
            MpiOp::Irecv { src, tag, comm } => {
                let s = self.lower_expr(src);
                let t = self.lower_expr(tag);
                let c = comm.map(|e| self.lower_expr(e));
                let req = self.fresh(Type::Request);
                self.emit(Instr::Mpi {
                    dest: Some(req),
                    op: MpiIr::Irecv {
                        src: s,
                        tag: t,
                        comm: c,
                    },
                    span,
                });
                req.into()
            }
            MpiOp::Wait { request } => {
                let r = self.lower_expr(request);
                let dest = self.fresh(Type::Float);
                self.emit(Instr::Mpi {
                    dest: Some(dest),
                    op: MpiIr::Wait { request: r },
                    span,
                });
                dest.into()
            }
            MpiOp::Waitall { requests } => {
                let rs: Vec<Value> = requests.iter().map(|r| self.lower_expr(r)).collect();
                self.emit(Instr::Mpi {
                    dest: None,
                    op: MpiIr::Waitall { requests: rs },
                    span,
                });
                Value::int(0)
            }
            MpiOp::AnySource => Value::int(parcoach_front::ast::ANY_SOURCE),
            MpiOp::AnyTag => Value::int(parcoach_front::ast::ANY_TAG),
            MpiOp::Collective(c) => {
                let value = c.value.map(|v| self.lower_expr(v));
                let root = c.root.map(|r| self.lower_expr(r));
                let comm = c.comm.map(|e| self.lower_expr(e));
                // Result type mirrors sema's typing rules.
                let ret = match c.kind {
                    CK::Barrier => None,
                    CK::Bcast | CK::Reduce | CK::Allreduce | CK::Scan => {
                        Some(self.value_ty(value.expect("checked by sema")))
                    }
                    CK::Gather | CK::Allgather => Some(
                        Type::array_of(self.value_ty(value.expect("checked by sema")))
                            .expect("numeric payload"),
                    ),
                    CK::Scatter | CK::ReduceScatter => Some(
                        self.value_ty(value.expect("checked by sema"))
                            .elem()
                            .expect("array payload"),
                    ),
                    CK::Alltoall => Some(self.value_ty(value.expect("checked by sema"))),
                };
                let dest = ret.map(|t| self.fresh(t));
                self.emit(Instr::Mpi {
                    dest,
                    op: MpiIr::Collective {
                        kind: c.kind,
                        value,
                        reduce_op: c.reduce_op,
                        root,
                        comm,
                    },
                    span,
                });
                dest.map(Value::Reg).unwrap_or(Value::int(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Const;
    use parcoach_front::parse_and_check;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("source must check");
        lower_program(&unit.program, &unit.signatures)
    }

    fn directives(f: &FuncIr) -> Vec<&'static str> {
        f.blocks
            .iter()
            .filter_map(|b| b.directive().map(|d| d.mnemonic()))
            .collect()
    }

    #[test]
    fn straight_line() {
        let m = lower("fn main() { let x = 1; let y = x + 2; print(y); }");
        let f = m.main().unwrap();
        assert_eq!(f.block_count(), 1);
        assert!(matches!(
            f.block(BlockId(0)).term,
            Terminator::Return { value: None, .. }
        ));
        assert!(!f.has_omp());
    }

    /// The register each `print(<tag>, <var>)` reads, indexed by tag.
    fn printed_regs(f: &FuncIr) -> Vec<Reg> {
        let mut prints: Vec<(i64, Reg)> = f
            .iter_blocks()
            .flat_map(|(_, b)| &b.instrs)
            .filter_map(|i| match i {
                Instr::Print { args } => match args[..] {
                    [Value::Const(Const::Int(tag)), Value::Reg(r)] => Some((tag, r)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        prints.sort_unstable_by_key(|&(tag, _)| tag);
        prints.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn scopes_resolve_to_the_innermost_live_binding() {
        let m = lower(
            "fn f(x: int) {
                print(0, x);
                let x = 1; print(1, x);
                if (true) { print(2, x); let x = 2; print(3, x); let x = 3; print(4, x); }
                print(5, x);
                for (x in 0..2) { print(6, x); let x = 4; print(7, x); }
                print(8, x);
                parallel { pfor (x in 0..2) { print(9, x); } }
                print(10, x);
            }
            fn main() { f(0); }",
        );
        let f = m.func("f").unwrap();
        let p = printed_regs(f);
        assert_eq!(p.len(), 11);
        let (param, outer) = (p[0], p[1]);
        assert_eq!(param, f.params[0]);
        // Same-block redeclaration and every nested binding get a
        // register of their own…
        let distinct: std::collections::HashSet<Reg> = [p[0], p[1], p[3], p[4], p[6], p[7], p[9]]
            .into_iter()
            .collect();
        assert_eq!(distinct.len(), 7, "{p:?}");
        // …an inner block sees the outer binding until it shadows it…
        assert_eq!(p[2], outer);
        // …and the outer binding is back when the block, the loop and
        // the worksharing loop end.
        assert_eq!([p[5], p[8], p[10]], [outer; 3]);
    }

    #[test]
    fn if_else_shape() {
        let m = lower("fn main() { let x = 0; if (x == 0) { x = 1; } else { x = 2; } print(x); }");
        let f = m.main().unwrap();
        // entry + then + join + else = 4 blocks
        assert_eq!(f.block_count(), 4);
        let preds = f.predecessors();
        // join block has exactly two predecessors
        let join = f
            .block_ids()
            .find(|b| preds[b.index()].len() == 2)
            .expect("join exists");
        assert!(f.successors(join).is_empty() || !f.successors(join).is_empty());
    }

    #[test]
    fn while_loop_has_back_edge() {
        let m = lower("fn main() { let i = 0; while (i < 10) { i = i + 1; } }");
        let f = m.main().unwrap();
        // Find a block whose successor has a smaller id → back edge.
        let mut has_back = false;
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                if s.0 < id.0 {
                    has_back = true;
                }
            }
        }
        assert!(has_back, "while must create a back edge:\n{}", f.dump());
    }

    #[test]
    fn parallel_shape() {
        let m = lower("fn main() { parallel { let x = 1; } }");
        let f = m.main().unwrap();
        assert_eq!(
            directives(f),
            vec!["parallel.begin", "barrier.implicit", "parallel.end"]
        );
        assert_eq!(f.region_count, 1);
    }

    #[test]
    fn single_shape_with_barrier() {
        let m = lower("fn main() { parallel { single { let x = 1; } } }");
        let f = m.main().unwrap();
        let d = directives(f);
        assert_eq!(
            d,
            vec![
                "parallel.begin",
                "single.begin",
                "single.end",
                "barrier.implicit",
                "barrier.implicit",
                "parallel.end"
            ]
        );
        // SingleBegin branches: chosen → body, not chosen → the barrier,
        // skipping single.end.
        let (sb_id, sb) = f
            .iter_blocks()
            .find(|(_, b)| matches!(b.directive(), Some(Directive::SingleBegin { .. })))
            .unwrap();
        let Terminator::Branch { else_bb, .. } = sb.term else {
            panic!("single.begin must branch, got {}", f.block(sb_id).term);
        };
        assert!(
            matches!(
                f.block(else_bb).directive(),
                Some(Directive::Barrier { implicit: true, .. })
            ),
            "skip path must land on the implicit barrier"
        );
    }

    #[test]
    fn single_nowait_has_no_barrier() {
        let m = lower("fn main() { parallel { single nowait { let x = 1; } } }");
        let f = m.main().unwrap();
        let d = directives(f);
        assert_eq!(
            d,
            vec![
                "parallel.begin",
                "single.begin",
                "single.end",
                "barrier.implicit", // only the parallel-end barrier
                "parallel.end"
            ]
        );
    }

    #[test]
    fn master_has_no_barrier() {
        let m = lower("fn main() { parallel { master { let x = 1; } } }");
        let f = m.main().unwrap();
        let d = directives(f);
        assert_eq!(
            d,
            vec![
                "parallel.begin",
                "master.begin",
                "master.end",
                "barrier.implicit", // parallel end only
                "parallel.end"
            ]
        );
    }

    #[test]
    fn pfor_shape() {
        let m = lower("fn main() { parallel { pfor (i in 0..10) { let x = i; } } }");
        let f = m.main().unwrap();
        let d = directives(f);
        assert_eq!(
            d,
            vec![
                "parallel.begin",
                "workshare.begin",
                "pfor.init",
                "workshare.end",
                "barrier.implicit",
                "barrier.implicit",
                "parallel.end"
            ]
        );
    }

    #[test]
    fn sections_shape() {
        let m = lower("fn main() { parallel { sections nowait { section { } section { } } } }");
        let f = m.main().unwrap();
        let d = directives(f);
        assert_eq!(
            d,
            vec![
                "parallel.begin",
                "workshare.begin",
                "section.begin",
                "section.end",
                "section.begin",
                "section.end",
                "workshare.end",
                "barrier.implicit",
                "parallel.end"
            ]
        );
        // Sections get distinct region ids.
        let regions: Vec<_> = f
            .blocks
            .iter()
            .filter_map(|b| match b.directive() {
                Some(Directive::SectionBegin { region, parent, .. }) => Some((*region, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(regions.len(), 2);
        assert_ne!(regions[0].0, regions[1].0);
        assert_eq!(regions[0].1, regions[1].1);
    }

    #[test]
    fn explicit_barrier_block() {
        let m = lower("fn main() { parallel { barrier; } }");
        let f = m.main().unwrap();
        assert!(f.blocks.iter().any(|b| matches!(
            b.directive(),
            Some(Directive::Barrier {
                implicit: false,
                ..
            })
        )));
    }

    #[test]
    fn collectives_recorded() {
        let m =
            lower("fn main() { MPI_Init(); let x = MPI_Allreduce(rank(), SUM); MPI_Finalize(); }");
        let f = m.main().unwrap();
        assert_eq!(f.collective_blocks().len(), 1);
        assert!(f.has_mpi());
    }

    #[test]
    fn nonblocking_ops_lowered_with_request_registers() {
        let m = lower(
            "fn main() {
                let r = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                let s = MPI_Isend(1.5, 0, 4);
                let v = MPI_Wait(r);
                MPI_Waitall(s);
            }",
        );
        let f = m.main().unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| &b.instrs).collect();
        let irecv = instrs
            .iter()
            .find_map(|i| match i {
                Instr::Mpi {
                    dest: Some(d),
                    op: MpiIr::Irecv { src, tag, comm },
                    ..
                } => Some((*d, *src, *tag, *comm)),
                _ => None,
            })
            .expect("irecv lowered");
        assert_eq!(f.reg_types[irecv.0.index()], Type::Request);
        assert_eq!(
            irecv.1,
            Value::int(parcoach_front::ast::ANY_SOURCE),
            "wildcard source lowers to the sentinel"
        );
        assert_eq!(irecv.2, Value::int(parcoach_front::ast::ANY_TAG));
        assert_eq!(irecv.3, None);
        assert!(instrs.iter().any(|i| matches!(
            i,
            Instr::Mpi {
                dest: Some(_),
                op: MpiIr::Isend { .. },
                ..
            }
        )));
        assert!(instrs.iter().any(|i| matches!(
            i,
            Instr::Mpi {
                dest: Some(_),
                op: MpiIr::Wait { .. },
                ..
            }
        )));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Mpi { dest: None, op: MpiIr::Waitall { requests }, .. } if requests.len() == 1)));
        assert!(f.has_p2p(), "request ops count as p2p blocks");
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let m = lower("fn main() { let a = true; let b = a && !a; let c = a || b; }");
        let f = m.main().unwrap();
        assert!(
            f.block_count() >= 7,
            "got {}:\n{}",
            f.block_count(),
            f.dump()
        );
    }

    #[test]
    fn break_continue_targets() {
        let m = lower(
            "fn main() {
                let i = 0;
                while (true) {
                    i = i + 1;
                    if (i > 3) { break; }
                    if (i > 1) { continue; }
                }
            }",
        );
        let f = m.main().unwrap();
        // Must terminate (no Unreachable left).
        for (id, b) in f.iter_blocks() {
            if f.predecessors()[id.index()].is_empty() && id != f.entry {
                continue; // unreachable padding blocks are allowed
            }
            assert!(
                !matches!(b.term, Terminator::Unreachable),
                "block {id} unterminated:\n{}",
                f.dump()
            );
        }
    }

    #[test]
    fn function_calls_lowered() {
        let m = lower(
            "fn work(a: int) -> int { return a * 2; }
             fn main() { let x = work(21); print(x); }",
        );
        let f = m.main().unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Call { func, .. } if func == "work")));
    }

    #[test]
    fn dead_code_after_return_dropped() {
        let m = lower("fn f() -> int { return 1; } fn main() { let x = f(); }");
        let f = m.func("f").unwrap();
        assert_eq!(f.block_count(), 1);
    }

    #[test]
    fn nested_parallel_regions_distinct() {
        let m = lower("fn main() { parallel { parallel { } } }");
        let f = m.main().unwrap();
        assert_eq!(f.region_count, 2);
        let begins: Vec<_> = f
            .blocks
            .iter()
            .filter_map(|b| match b.directive() {
                Some(Directive::ParallelBegin { region, .. }) => Some(*region),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 2);
        assert_ne!(begins[0], begins[1]);
    }
}
