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
//!
//! Lowering decides no name and no type: it reads sema's annotations
//! (every expression's type, every variable's slot, every callee's
//! index) off the AST.

use crate::func::{BasicBlock, FuncIr, Module};
use crate::instr::{BlockKind, Directive, Instr, Terminator, WorkshareKind};
use crate::types::{BlockId, Reg, RegionId, Value};
use parcoach_front::ast::{
    BinOp, Block, Expr, ExprId, ExprKind, Function, Intrinsic, LValue, OmpStmt, Program, Slot,
    Stmt, StmtKind, Type,
};
use parcoach_front::sema::Signatures;
use parcoach_front::span::Span;
use parcoach_front::symbol::Interner;

/// Lower a full checked program to IR. Sema annotated `prog` when it
/// checked it against `_sigs`; lowering reads the annotations and needs
/// nothing from the table itself.
pub fn lower_program(prog: &Program, _sigs: &Signatures) -> Module {
    let mut lowerer = Lowerer::new(&prog.interner);
    let funcs = prog.functions.iter().map(|f| lowerer.run(f)).collect();
    Module::new(funcs)
}

/// Lower a single checked function; `interner` is the one `f`'s symbols
/// belong to. The incremental session (`parcoachd` edits) re-lowers only
/// the edited function; the result is bit-identical to the
/// corresponding entry of [`lower_program`] because lowering is
/// per-function pure.
pub fn lower_function(f: &Function, interner: &Interner) -> FuncIr {
    Lowerer::new(interner).run(f)
}

struct LoopTargets {
    continue_bb: BlockId,
    break_bb: BlockId,
}

/// Lowers the functions of one program, one after the other. The
/// vectors a function grows in are the lowerer's: they keep their
/// capacity from function to function, and each finished function gets
/// copies of exactly its final size.
///
/// Blocks are filled out of order (an `if` opens its join block before
/// either arm), so each block collects its instructions in a scratch
/// vector of its own; the function's one instruction array is written
/// when it is finished, block after block.
struct Lowerer<'a> {
    interner: &'a Interner,
    /// The arenas of the function being lowered.
    stmts: &'a [Stmt],
    exprs: &'a [Expr],
    blocks: Vec<BasicBlock>,
    /// The instructions of `blocks[i]` so far, at index `i`. Longer than
    /// `blocks` after a larger function: the extra vectors wait, empty,
    /// with their capacity.
    block_instrs: Vec<Vec<(Instr, Span)>>,
    reg_types: Vec<Type>,
    /// The register of each binding slot lowered so far: a slot gets
    /// its register where it is declared, in declaration order.
    slot_regs: Vec<Reg>,
    cur: BlockId,
    regions: u32,
    loops: Vec<LoopTargets>,
}

impl<'a> Lowerer<'a> {
    fn new(interner: &'a Interner) -> Self {
        Lowerer {
            interner,
            stmts: &[],
            exprs: &[],
            blocks: Vec::new(),
            block_instrs: Vec::new(),
            reg_types: Vec::new(),
            slot_regs: Vec::new(),
            cur: BlockId(0),
            regions: 0,
            loops: Vec::new(),
        }
    }

    fn run(&mut self, src: &'a Function) -> FuncIr {
        self.stmts = &src.stmts;
        self.exprs = &src.exprs;
        self.new_block();
        self.cur = BlockId(0);
        self.regions = 0;
        let mut params = Vec::with_capacity(src.params.len());
        for (k, p) in src.params.iter().enumerate() {
            let r = self.fresh(p.ty);
            self.bind(k as Slot, r);
            params.push(r);
        }
        self.blocks[0].span = src.span;
        self.lower_block(&src.body);
        // Fall-through at the end of the body: synthesize a return.
        if !self.terminated() {
            self.set_term(Terminator::Return { value: None }, src.span);
        }
        self.slot_regs.clear();
        FuncIr {
            name: self.interner.resolve(src.name.sym).to_string(),
            params,
            ret: src.ret,
            reg_types: self.reg_types.drain(..).collect(),
            instrs: self.lay_out_instrs(),
            blocks: self.blocks.drain(..).collect(),
            entry: BlockId(0),
            region_count: self.regions,
            span: src.span,
        }
    }

    /// Move every block's instructions into one array of the final
    /// size, in block order, and point each block at its run.
    fn lay_out_instrs(&mut self) -> Vec<(Instr, Span)> {
        let scratch = &mut self.block_instrs[..self.blocks.len()];
        let mut instrs = Vec::with_capacity(scratch.iter().map(Vec::len).sum());
        for (b, own) in self.blocks.iter_mut().zip(scratch) {
            let start = instrs.len() as u32;
            instrs.append(own);
            b.instrs = start..instrs.len() as u32;
        }
        instrs
    }

    // ---- infrastructure --------------------------------------------------

    fn fresh(&mut self, ty: Type) -> Reg {
        let r = Reg(self.reg_types.len() as u32);
        self.reg_types.push(ty);
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
        if self.block_instrs.len() < self.blocks.len() {
            self.block_instrs.push(Vec::new());
        }
        id
    }

    fn new_directive_block(&mut self, d: Directive, span: Span) -> BlockId {
        let id = self.new_block();
        let b = &mut self.blocks[id.index()];
        b.kind = BlockKind::Directive(d);
        b.span = span;
        id
    }

    fn emit(&mut self, i: Instr, span: Span) {
        self.block_instrs[self.cur.index()].push((i, span));
    }

    fn set_term(&mut self, t: Terminator, span: Span) {
        let b = &mut self.blocks[self.cur.index()];
        debug_assert!(
            matches!(b.term, Terminator::Unreachable),
            "terminator set twice on {}",
            self.cur
        );
        b.term = t;
        b.term_span = span;
    }

    /// Finish the current block with a goto and continue in `next`.
    fn goto(&mut self, next: BlockId) {
        self.set_term(Terminator::Goto(next), Span::DUMMY);
        self.cur = next;
    }

    /// True when the current block already ends (after break/continue/
    /// return) — further statements in the source block are dead code.
    fn terminated(&self) -> bool {
        !matches!(self.blocks[self.cur.index()].term, Terminator::Unreachable)
    }

    /// Give the variable in `slot`, being declared, its register.
    fn bind(&mut self, slot: Slot, r: Reg) {
        let slot = slot as usize;
        if self.slot_regs.len() <= slot {
            self.slot_regs.resize(slot + 1, r);
        }
        self.slot_regs[slot] = r;
    }

    /// The register of the variable in `slot`.
    fn lookup(&self, slot: Slot) -> Reg {
        self.slot_regs[slot as usize]
    }

    fn expr(&self, e: ExprId) -> &'a Expr {
        &self.exprs[e.0 as usize]
    }

    // ---- statements -------------------------------------------------------

    fn lower_block(&mut self, b: &Block) {
        for s in b.stmts.of(self.stmts) {
            if self.terminated() {
                break; // dead code after break/continue/return
            }
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &'a Stmt) {
        if self.blocks[self.cur.index()].span.is_dummy() {
            self.blocks[self.cur.index()].span = s.span;
        }
        match &s.kind {
            StmtKind::Let { ty, init, .. } => {
                let v = self.lower_expr(*init);
                let r = self.fresh(ty.unwrap_or(self.expr(*init).ty));
                self.emit(Instr::Copy { dest: r, src: v }, Span::DUMMY);
                self.bind(s.slot, r);
            }
            StmtKind::Assign { target, value } => {
                let v = self.lower_expr(*value);
                match *target {
                    LValue::Var(_) => {
                        let r = self.lookup(s.slot);
                        self.emit(Instr::Copy { dest: r, src: v }, Span::DUMMY);
                    }
                    LValue::Index(_, idx) => {
                        let arr = self.lookup(s.slot);
                        let i = self.lower_expr(idx);
                        self.emit(
                            Instr::Store {
                                arr,
                                idx: i,
                                value: v,
                            },
                            s.span,
                        );
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
                self.set_term(
                    Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb,
                    },
                    self.expr(*cond).span,
                );
                self.cur = then_bb;
                self.lower_block(then_blk);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(join), Span::DUMMY);
                }
                if let Some(eb) = else_blk {
                    self.cur = else_bb;
                    self.lower_block(eb);
                    if !self.terminated() {
                        self.set_term(Terminator::Goto(join), Span::DUMMY);
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
                self.set_term(
                    Terminator::Branch {
                        cond: c,
                        then_bb: body_bb,
                        else_bb: exit,
                    },
                    self.expr(*cond).span,
                );
                self.loops.push(LoopTargets {
                    continue_bb: head,
                    break_bb: exit,
                });
                self.cur = body_bb;
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(head), Span::DUMMY);
                }
                self.loops.pop();
                self.cur = exit;
            }
            StmtKind::For { lo, hi, body, .. } => {
                let lo_v = self.lower_expr(*lo);
                let hi_v = self.lower_expr(*hi);
                // Materialize the bound so it is evaluated once.
                let bound = self.fresh(Type::Int);
                self.emit(
                    Instr::Copy {
                        dest: bound,
                        src: hi_v,
                    },
                    Span::DUMMY,
                );
                let iv = self.fresh(Type::Int);
                self.emit(
                    Instr::Copy {
                        dest: iv,
                        src: lo_v,
                    },
                    Span::DUMMY,
                );
                let head = self.new_block();
                self.goto(head);
                let c = self.fresh(Type::Bool);
                self.emit(
                    Instr::Binary {
                        dest: c,
                        op: BinOp::Lt,
                        lhs: iv.into(),
                        rhs: bound.into(),
                    },
                    s.span,
                );
                let body_bb = self.new_block();
                let incr = self.new_block();
                let exit = self.new_block();
                self.set_term(
                    Terminator::Branch {
                        cond: c.into(),
                        then_bb: body_bb,
                        else_bb: exit,
                    },
                    s.span,
                );
                self.loops.push(LoopTargets {
                    continue_bb: incr,
                    break_bb: exit,
                });
                self.cur = body_bb;
                self.bind(s.slot, iv);
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(incr), Span::DUMMY);
                }
                self.loops.pop();
                self.cur = incr;
                self.emit(
                    Instr::Binary {
                        dest: iv,
                        op: BinOp::Add,
                        lhs: iv.into(),
                        rhs: Value::int(1),
                    },
                    s.span,
                );
                self.set_term(Terminator::Goto(head), Span::DUMMY);
                self.cur = exit;
            }
            StmtKind::Return(value) => {
                let v = value.map(|e| self.lower_expr(e));
                self.set_term(Terminator::Return { value: v }, s.span);
            }
            StmtKind::Break => {
                let target = self
                    .loops
                    .last()
                    .expect("sema guaranteed break is inside a loop")
                    .break_bb;
                self.set_term(Terminator::Goto(target), Span::DUMMY);
            }
            StmtKind::Continue => {
                let target = self
                    .loops
                    .last()
                    .expect("sema guaranteed continue is inside a loop")
                    .continue_bb;
                self.set_term(Terminator::Goto(target), Span::DUMMY);
            }
            StmtKind::Expr(e) => {
                self.lower_expr(*e);
            }
            StmtKind::Print(args) => {
                let vals = args.iter().map(|a| self.lower_expr(a)).collect();
                self.emit(Instr::Print { args: vals }, Span::DUMMY);
            }
            StmtKind::Barrier => {
                let bar = self.new_directive_block(
                    Directive::Barrier {
                        implicit: false,
                        region: None,
                    },
                    s.span,
                );
                self.goto(bar);
                let cont = self.new_block();
                self.goto(cont);
            }
            StmtKind::Omp(omp) => self.lower_omp(omp, s.span, s.slot),
        }
    }

    /// Lower construct `omp`; `slot` is a `pfor`'s induction variable's.
    fn lower_omp(&mut self, omp: &'a OmpStmt, span: Span, slot: Slot) {
        match omp {
            OmpStmt::Parallel { num_threads, body } => {
                let nt = num_threads.map(|e| self.lower_expr(e));
                let region = self.fresh_region();
                let pb = self.new_directive_block(
                    Directive::ParallelBegin {
                        region,
                        num_threads: nt,
                    },
                    span,
                );
                self.goto(pb);
                let body_entry = self.new_block();
                self.goto(body_entry);
                self.lower_block(body);
                let ib = self.implicit_barrier(region, span);
                self.goto(ib);
                let pe = self.new_directive_block(Directive::ParallelEnd { region }, span);
                self.goto(pe);
                let cont = self.new_block();
                self.goto(cont);
            }
            OmpStmt::Single { nowait, body } => {
                let region = self.fresh_region();
                let chosen = self.fresh(Type::Bool);
                let begin = Directive::SingleBegin {
                    region,
                    nowait: *nowait,
                    chosen,
                };
                // Non-chosen threads jump around the body *and* the end
                // directive, to the barrier (or to the continuation when
                // nowait).
                let end = Directive::SingleEnd { region };
                self.guarded_body(begin, chosen, end, body, span, |s| {
                    if *nowait {
                        s.new_block()
                    } else {
                        s.implicit_barrier(region, span)
                    }
                });
                if !*nowait {
                    // The guarded body left us at the barrier directive;
                    // fall through to a fresh normal block.
                    let cont = self.new_block();
                    self.goto(cont);
                }
            }
            OmpStmt::Master { body } => {
                let region = self.fresh_region();
                let chosen = self.fresh(Type::Bool);
                let begin = Directive::MasterBegin { region, chosen };
                let end = Directive::MasterEnd { region };
                self.guarded_body(begin, chosen, end, body, span, Self::new_block);
            }
            OmpStmt::Critical { body } => {
                let region = self.fresh_region();
                let cb = self.new_directive_block(Directive::CriticalBegin { region }, span);
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
                lo,
                hi,
                body,
                ..
            } => {
                let lo_v = self.lower_expr(*lo);
                let hi_v = self.lower_expr(*hi);
                let region = self.fresh_region();
                let wb = self.new_directive_block(
                    Directive::WorkshareBegin {
                        region,
                        kind: WorkshareKind::PFor,
                        nowait: *nowait,
                    },
                    span,
                );
                self.goto(wb);
                let iv = self.fresh(Type::Int);
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
                self.emit(
                    Instr::Binary {
                        dest: c,
                        op: BinOp::Lt,
                        lhs: iv.into(),
                        rhs: chunk_end.into(),
                    },
                    span,
                );
                let body_bb = self.new_block();
                let incr = self.new_block();
                let we = self.new_directive_block(Directive::WorkshareEnd { region }, span);
                self.set_term(
                    Terminator::Branch {
                        cond: c.into(),
                        then_bb: body_bb,
                        else_bb: we,
                    },
                    span,
                );
                // `continue` in a pfor targets the increment block; break
                // is rejected by sema.
                self.loops.push(LoopTargets {
                    continue_bb: incr,
                    break_bb: we,
                });
                self.cur = body_bb;
                self.bind(slot, iv);
                self.lower_block(body);
                if !self.terminated() {
                    self.set_term(Terminator::Goto(incr), Span::DUMMY);
                }
                self.loops.pop();
                self.cur = incr;
                self.emit(
                    Instr::Binary {
                        dest: iv,
                        op: BinOp::Add,
                        lhs: iv.into(),
                        rhs: Value::int(1),
                    },
                    span,
                );
                self.set_term(Terminator::Goto(head), Span::DUMMY);
                self.cur = we;
                self.construct_tail(region, *nowait, span);
            }
            OmpStmt::Sections { nowait, sections } => {
                let parent = self.fresh_region();
                let wb = self.new_directive_block(
                    Directive::WorkshareBegin {
                        region: parent,
                        kind: WorkshareKind::Sections,
                        nowait: *nowait,
                    },
                    span,
                );
                self.goto(wb);
                for (idx, sec) in sections.iter().enumerate() {
                    let region = self.fresh_region();
                    let chosen = self.fresh(Type::Bool);
                    let begin = Directive::SectionBegin {
                        region,
                        parent,
                        index: idx as u32,
                        chosen,
                    };
                    let end = Directive::SectionEnd { region };
                    self.guarded_body(begin, chosen, end, sec, sec.span, Self::new_block);
                }
                let we = self.new_directive_block(Directive::WorkshareEnd { region: parent }, span);
                self.goto(we);
                self.construct_tail(parent, *nowait, span);
            }
        }
    }

    /// The guarded body of `single`, `master` and each `section`: the
    /// `begin` directive branches on its `chosen` register to the body,
    /// which ends in the `end` directive, or around both to the block
    /// `after` makes; lowering continues there.
    fn guarded_body(
        &mut self,
        begin: Directive,
        chosen: Reg,
        end: Directive,
        body: &Block,
        span: Span,
        after: impl FnOnce(&mut Self) -> BlockId,
    ) {
        let bb = self.new_directive_block(begin, span);
        self.goto(bb);
        let body_entry = self.new_block();
        let eb = self.new_directive_block(end, span);
        let after = after(self);
        self.set_term(
            Terminator::Branch {
                cond: chosen.into(),
                then_bb: body_entry,
                else_bb: after,
            },
            span,
        );
        self.cur = body_entry;
        self.lower_block(body);
        if !self.terminated() {
            self.set_term(Terminator::Goto(eb), Span::DUMMY);
        }
        self.blocks[eb.index()].term = Terminator::Goto(after);
        self.cur = after;
    }

    /// The end of a `pfor` or `sections`: the continuation, behind the
    /// construct's implicit barrier unless `nowait`.
    fn construct_tail(&mut self, region: RegionId, nowait: bool, span: Span) {
        if !nowait {
            let ib = self.implicit_barrier(region, span);
            self.goto(ib);
        }
        let cont = self.new_block();
        self.goto(cont);
    }

    /// A new block holding `region`'s implicit barrier.
    fn implicit_barrier(&mut self, region: RegionId, span: Span) -> BlockId {
        let barrier = Directive::Barrier {
            implicit: true,
            region: Some(region),
        };
        self.new_directive_block(barrier, span)
    }

    // ---- expressions -------------------------------------------------------

    fn lower_expr(&mut self, e: ExprId) -> Value {
        let e = *self.expr(e);
        match e.kind {
            ExprKind::Int(v) => Value::int(v),
            ExprKind::Float(v) => Value::Const(crate::types::Const::Float(v)),
            ExprKind::Bool(v) => Value::bool(v),
            ExprKind::Var(_) => Value::Reg(self.lookup(e.slot)),
            ExprKind::Index(_, idx) => {
                let arr = self.lookup(e.slot);
                let i = self.lower_expr(idx);
                let dest = self.fresh(e.ty);
                self.emit(Instr::Load { dest, arr, idx: i }, e.span);
                dest.into()
            }
            ExprKind::Unary(op, inner) => {
                let v = self.lower_expr(inner);
                let dest = self.fresh(e.ty);
                self.emit(Instr::Unary { dest, op, src: v }, Span::DUMMY);
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
                self.set_term(
                    Terminator::Branch {
                        cond: lv,
                        then_bb,
                        else_bb,
                    },
                    e.span,
                );
                self.cur = rhs_bb;
                let rv = self.lower_expr(r);
                self.emit(Instr::Copy { dest, src: rv }, Span::DUMMY);
                self.set_term(Terminator::Goto(join), Span::DUMMY);
                self.cur = short_bb;
                self.emit(
                    Instr::Copy {
                        dest,
                        src: Value::bool(short_val),
                    },
                    Span::DUMMY,
                );
                self.set_term(Terminator::Goto(join), Span::DUMMY);
                self.cur = join;
                dest.into()
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.lower_expr(l);
                let rv = self.lower_expr(r);
                let dest = self.fresh(e.ty);
                self.emit(
                    Instr::Binary {
                        dest,
                        op,
                        lhs: lv,
                        rhs: rv,
                    },
                    e.span,
                );
                dest.into()
            }
            ExprKind::Call(_, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.lower_expr(a)).collect();
                let dest = (e.ty != Type::Void).then(|| self.fresh(e.ty));
                self.emit(
                    Instr::Call {
                        dest,
                        callee: e.slot as usize,
                        args: vals,
                    },
                    e.span,
                );
                dest.map(Value::Reg).unwrap_or(Value::int(0))
            }
            ExprKind::Intrinsic(intr, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.lower_expr(a)).collect();
                let dest = self.fresh(e.ty);
                if intr == Intrinsic::ArrayNew {
                    self.emit(
                        Instr::ArrayNew {
                            dest,
                            len: vals[0],
                            init: vals[1],
                            elem: self.expr(args.get(1)).ty,
                        },
                        e.span,
                    );
                } else {
                    self.emit(
                        Instr::Intrinsic {
                            dest,
                            intr,
                            args: vals,
                        },
                        Span::DUMMY,
                    );
                }
                dest.into()
            }
            ExprKind::Mpi(op) => {
                let op = op.map(|_, e| self.lower_expr(e));
                let dest = (e.ty != Type::Void).then(|| self.fresh(e.ty));
                self.emit(Instr::Mpi { dest, op }, e.span);
                dest.map_or(Value::int(0), Value::Reg)
            }
            ExprKind::AnySource => Value::int(parcoach_front::ast::ANY_SOURCE),
            ExprKind::AnyTag => Value::int(parcoach_front::ast::ANY_TAG),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Const;
    use parcoach_front::ast::MpiOp;
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
            .instrs
            .iter()
            .filter_map(|(i, _)| match i {
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
        assert!(has_back, "while must create a back edge:\n{}", f.dump(&m));
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
        let instrs: Vec<&Instr> = f.instrs.iter().map(|(i, _)| i).collect();
        let irecv = instrs
            .iter()
            .find_map(|i| match i {
                Instr::Mpi {
                    dest: Some(d),
                    op: MpiOp::Irecv { src, tag, comm },
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
                op: MpiOp::Isend { .. },
                ..
            }
        )));
        assert!(instrs.iter().any(|i| matches!(
            i,
            Instr::Mpi {
                dest: Some(_),
                op: MpiOp::Wait { .. },
                ..
            }
        )));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Mpi { dest: None, op: MpiOp::Waitall { requests }, .. } if requests.len() == 1)));
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
            f.dump(&m)
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
                f.dump(&m)
            );
        }
    }

    /// The callee of every call of `f`, in order.
    fn callees(f: &FuncIr) -> Vec<usize> {
        let calls = f.instrs.iter().filter_map(|(i, _)| match i {
            Instr::Call { callee, .. } => Some(*callee),
            _ => None,
        });
        calls.collect()
    }

    #[test]
    fn function_calls_lowered() {
        let m = lower(
            "fn work(a: int) -> int { return a * 2; }
             fn main() { let x = work(21); print(x); }",
        );
        assert_eq!(callees(m.main().unwrap()), [m.index("work").unwrap()]);

        // Mutual recursion, and calls to functions defined later.
        let m = lower(
            "fn even(n: int) -> bool { if (n == 0) { return true; } return odd(n - 1); }
             fn main() { let e = even(4); tick(); }
             fn odd(n: int) -> bool { if (n == 0) { return false; } return even(n - 1); }
             fn tick() { }",
        );
        let ix = |name: &str| m.index(name).unwrap();
        assert_eq!(callees(m.func("even").unwrap()), [ix("odd")]);
        assert_eq!(callees(m.func("odd").unwrap()), [ix("even")]);
        assert_eq!(callees(m.main().unwrap()), [ix("even"), ix("tick")]);
        assert_eq!(
            (ix("even"), ix("main"), ix("odd"), ix("tick")),
            (0, 1, 2, 3)
        );
        assert!(
            m.main().unwrap().instrs.iter().any(
                |(i, _)| matches!(i, Instr::Call { dest: None, callee, .. } if *callee == ix("tick"))
            ),
            "a call of a void function has no destination"
        );
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
