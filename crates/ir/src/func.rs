//! Function-level IR containers: basic blocks, functions, modules.

use crate::graph::Preds;
use crate::instr::{BlockKind, Directive, Instr, Successors, Terminator};
use crate::types::{BlockId, Reg, RegionId};
use parcoach_front::ast::Type;
use parcoach_front::span::Span;
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

/// A basic block: a kind (normal or directive), a run of straight-line
/// instructions, and one terminator — beside the block's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Normal code or an OpenMP directive node.
    pub kind: BlockKind,
    /// Where the block's instructions sit in its function's instruction
    /// array ([`FuncIr::instrs`]); they execute in order.
    pub instrs: Range<u32>,
    /// The terminator.
    pub term: Terminator,
    /// The terminator's source span: a branch's controlling condition
    /// (PARCOACH warnings point at it) or a return site; dummy for a
    /// jump.
    pub term_span: Span,
    /// Representative source span: a directive block's construct, else
    /// the first statement lowered into the block.
    pub span: Span,
}

impl BasicBlock {
    /// A fresh, normal, unreachable-terminated block with no
    /// instructions.
    pub fn new() -> Self {
        BasicBlock {
            kind: BlockKind::Normal,
            instrs: 0..0,
            term: Terminator::Unreachable,
            term_span: Span::DUMMY,
            span: Span::DUMMY,
        }
    }

    /// The directive, if this is a directive block.
    pub fn directive(&self) -> Option<&Directive> {
        self.kind.directive()
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A function lowered to CFG form.
///
/// All of a function's instructions live in one array, `instrs`, block
/// after block in id order; a block holds its run of it. The IR keeps no
/// source names: a register is its number and its type.
///
/// Spans sit beside what they locate — each instruction's in its
/// `instrs` entry, a block's and its terminator's in the block, the
/// function's here — and never inside an instruction, directive or
/// terminator, so those compare by structure alone and
/// [`FuncIr::same_code`] tells moved code from changed code.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// Parameter registers (always the first `params.len()` registers).
    pub params: Vec<Reg>,
    /// Return type.
    pub ret: Type,
    /// Static type of each register, indexed by `Reg`.
    pub reg_types: Vec<Type>,
    /// Block table; `BlockId` indexes into it.
    pub blocks: Vec<BasicBlock>,
    /// Every instruction with its source span, in block order; the
    /// blocks' runs tile it.
    pub instrs: Vec<(Instr, Span)>,
    /// The entry block (no predecessors).
    pub entry: BlockId,
    /// Number of OpenMP region instances allocated in this function.
    pub region_count: u32,
    /// Span of the source function.
    pub span: Span,
}

/// The old instructions of one block, moved out by
/// [`FuncIr::rewrite_instrs`].
pub type OldInstrs<'a> = std::iter::Take<&'a mut std::vec::IntoIter<(Instr, Span)>>;

impl FuncIr {
    /// Access a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The instructions of block `id` with their spans, in order.
    #[inline]
    pub fn instrs(&self, id: BlockId) -> &[(Instr, Span)] {
        let r = &self.blocks[id.index()].instrs;
        &self.instrs[r.start as usize..r.end as usize]
    }

    /// Mutable access to the instructions of block `id` — for edits
    /// that keep their number; [`FuncIr::rewrite_instrs`] changes it.
    #[inline]
    pub fn instrs_mut(&mut self, id: BlockId) -> &mut [(Instr, Span)] {
        let r = &self.blocks[id.index()].instrs;
        &mut self.instrs[r.start as usize..r.end as usize]
    }

    /// Rebuild the instruction array in one pass: `emit` is called for
    /// every block in id order with its old instructions, moved out, and
    /// pushes the block's new ones onto `out` — the block's run becomes
    /// what it pushed. The old runs must tile the array in block order,
    /// as lowering lays them out (the verifier checks it).
    pub fn rewrite_instrs(
        &mut self,
        mut emit: impl FnMut(BlockId, &BasicBlock, OldInstrs<'_>, &mut Vec<(Instr, Span)>),
    ) {
        let mut old = std::mem::take(&mut self.instrs).into_iter();
        let mut out = Vec::with_capacity(old.len());
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let len = b.instrs.len();
            let start = out.len() as u32;
            emit(BlockId(i as u32), b, old.by_ref().take(len), &mut out);
            b.instrs = start..out.len() as u32;
        }
        self.instrs = out;
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate over `(BlockId, &BasicBlock)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Ids of all blocks, in table order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Successors of a block (from its terminator).
    pub fn successors(&self, id: BlockId) -> Successors {
        self.block(id).term.successors()
    }

    /// Predecessor table for the whole function.
    pub fn predecessors(&self) -> Preds {
        Preds::build(self)
    }

    /// Blocks whose instructions satisfy `pred` somewhere, in id order.
    pub fn blocks_with(&self, pred: impl Fn(&Instr) -> bool) -> Vec<BlockId> {
        self.block_ids()
            .filter(|&b| self.instrs(b).iter().any(|(i, _)| pred(i)))
            .collect()
    }

    /// All blocks containing at least one MPI collective, with kinds.
    pub fn collective_blocks(&self) -> Vec<BlockId> {
        self.blocks_with(|i| i.collective_kind().is_some())
    }

    /// All blocks containing at least one point-to-point operation.
    pub fn p2p_blocks(&self) -> Vec<BlockId> {
        self.blocks_with(|i| matches!(i, Instr::Mpi { op, .. } if op.is_p2p()))
    }

    /// True if the function contains any point-to-point operation.
    pub fn has_p2p(&self) -> bool {
        self.instrs
            .iter()
            .any(|(i, _)| matches!(i, Instr::Mpi { op, .. } if op.is_p2p()))
    }

    /// True if the function contains any OpenMP directive block.
    pub fn has_omp(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::Directive(_)))
    }

    /// True if the function contains any MPI instruction.
    pub fn has_mpi(&self) -> bool {
        self.instrs
            .iter()
            .any(|(i, _)| matches!(i, Instr::Mpi { .. }))
    }

    /// Find the block carrying the begin directive of `region`.
    pub fn region_begin_block(&self, region: RegionId) -> Option<BlockId> {
        self.iter_blocks()
            .find(|(_, b)| {
                b.directive()
                    .is_some_and(|d| d.opens_region() && d.region() == Some(region))
            })
            .map(|(id, _)| id)
    }

    /// Textual dump for debugging and golden tests; `m` is the module
    /// the function belongs to, which names its callees.
    pub fn dump(&self, m: &Module) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {}({} params) -> {:?}",
            self.name,
            self.params.len(),
            self.ret
        );
        for (id, b) in self.iter_blocks() {
            let kind = match &b.kind {
                BlockKind::Normal => String::new(),
                BlockKind::Directive(d) => format!(" [{}]", d.mnemonic()),
            };
            let _ = writeln!(out, "{id}{kind}:");
            self.write_instrs(&mut out, id, m);
            let _ = writeln!(out, "    {}", b.term);
        }
        out
    }

    /// The canonical text of this function of `m`: its signature,
    /// register types, entry and region count, then every block in id
    /// order with its span, kind, instructions and terminator, each
    /// instruction and terminator followed by `@` and its span. It names
    /// no register and shows nothing of how the instructions are stored,
    /// so it pins what the IR means, not its layout.
    pub fn canonical(&self, m: &Module) -> String {
        let mut out = String::new();
        let (name, params, ret, span) = (&self.name, &self.params, self.ret, self.span);
        let _ = writeln!(out, "fn {name}{params:?} -> {ret:?} {span}");
        let _ = writeln!(out, "  regs {:?}", self.reg_types);
        let _ = writeln!(out, "  entry {} regions {}", self.entry, self.region_count);
        for (id, b) in self.iter_blocks() {
            let _ = match &b.kind {
                BlockKind::Normal => writeln!(out, "{id} {}:", b.span),
                BlockKind::Directive(d) => writeln!(out, "{id} {} {d:?}:", b.span),
            };
            self.write_instrs(&mut out, id, m);
            let _ = writeln!(out, "    {:?} @ {}", b.term, b.term_span);
        }
        out
    }

    /// The instructions of block `id`, a line each, as the printers show
    /// them: the `{:?}` text, except that a call names its callee as `m`
    /// does, then `@` and the span.
    fn write_instrs(&self, out: &mut String, id: BlockId, m: &Module) {
        for (i, span) in self.instrs(id) {
            let _ = match i {
                Instr::Call { dest, callee, args } => writeln!(
                    out,
                    "    Call {{ dest: {dest:?}, func: {:?}, args: {args:?} }} @ {span}",
                    m.funcs[*callee].name
                ),
                i => writeln!(out, "    {i:?} @ {span}"),
            };
        }
    }

    /// True when `self` and `other` are the same code, wherever it sits:
    /// every field but the spans is equal. An edit that only moved a
    /// function — whitespace above it or inside it — leaves it the same
    /// code.
    pub fn same_code(&self, other: &FuncIr) -> bool {
        // Named field by field, so a new field fails compilation here
        // instead of escaping the comparison.
        let FuncIr {
            name,
            params,
            ret,
            reg_types,
            blocks,
            instrs,
            entry,
            region_count,
            span: _,
        } = self;
        let same_block = |a: &BasicBlock, b: &BasicBlock| {
            let BasicBlock {
                kind,
                instrs,
                term,
                term_span: _,
                span: _,
            } = a;
            *kind == b.kind && *instrs == b.instrs && *term == b.term
        };
        *name == other.name
            && *params == other.params
            && *ret == other.ret
            && *reg_types == other.reg_types
            && *entry == other.entry
            && *region_count == other.region_count
            && blocks.len() == other.blocks.len()
            && blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| same_block(a, b))
            && instrs.len() == other.instrs.len()
            && instrs.iter().zip(&other.instrs).all(|(a, b)| a.0 == b.0)
    }
}

/// A lowered module: all functions of a program.
///
/// A module *shares* its functions: cloning one copies a vector of
/// pointers, and a pass that rewrites some functions
/// ([`Arc::make_mut`] on their entries) copies exactly those — the
/// rest stay the very allocations of the module it started from.
/// A call names its callee by its index in `funcs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Functions in definition order.
    pub funcs: Vec<Arc<FuncIr>>,
}

impl Module {
    /// Build a module from functions.
    pub fn new(funcs: Vec<FuncIr>) -> Self {
        Module {
            funcs: funcs.into_iter().map(Arc::new).collect(),
        }
    }

    /// The index of the function named `name`.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }

    /// Find a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncIr> {
        self.index(name).map(|i| &*self.funcs[i])
    }

    /// The entry function.
    pub fn main(&self) -> Option<&FuncIr> {
        self.func("main")
    }

    /// Total block count across functions (size metric for benches).
    pub fn total_blocks(&self) -> usize {
        self.funcs.iter().map(|f| f.blocks.len()).sum()
    }

    /// Total instruction count across functions.
    pub fn total_instrs(&self) -> usize {
        self.funcs.iter().map(|f| f.instrs.len()).sum()
    }
}

/// A program point of a module: stored findings and run errors name
/// positions this way, and [`span_at`] renders one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locator {
    /// `(function index, block, instruction index)`.
    Instr(usize, BlockId, usize),
    /// A block, by its representative span, dummy or not.
    Block(usize, BlockId),
    /// The step that enters a block: as `Block`, but a dummy span falls
    /// back as [`span_at`] says.
    Entry(usize, BlockId),
    /// A block's terminator: the condition it branches on or the return
    /// it makes (the block itself when it jumps).
    Cond(usize, BlockId),
}

impl Locator {
    /// Index of the function the point lies in.
    pub fn func(self) -> usize {
        match self {
            Locator::Instr(fi, ..)
            | Locator::Block(fi, _)
            | Locator::Entry(fi, _)
            | Locator::Cond(fi, _) => fi,
        }
    }
}

/// The span `m` has at `loc`. Any point but a [`Locator::Block`] that
/// has no span of its own is at the first real span along its block's
/// chain of jumps (a block's, else its terminator's), else at its
/// function.
pub fn span_at(m: &Module, loc: Locator) -> Span {
    let f = &m.funcs[loc.func()];
    let (span, mut b) = match loc {
        Locator::Instr(_, b, ii) => (f.instrs(b)[ii].1, b),
        Locator::Block(_, b) => return f.block(b).span,
        Locator::Entry(_, b) => (f.block(b).span, b),
        Locator::Cond(_, b) => (term_span(f, f.block(b)), b),
    };
    if !span.is_dummy() {
        return span;
    }
    for _ in 0..f.block_count() {
        let block = f.block(b);
        match (block.span, &block.term) {
            (s, _) if !s.is_dummy() => return s,
            (_, Terminator::Goto(next)) => b = *next,
            _ => break,
        }
    }
    match term_span(f, f.block(b)) {
        s if s.is_dummy() => f.span,
        s => s,
    }
}

/// Where `block`'s terminator is: a branch at its condition, a `return`
/// where it stands, the one lowering adds at the end of the body (spanned
/// as the function) at the closing brace, a jump nowhere.
fn term_span(f: &FuncIr, block: &BasicBlock) -> Span {
    match block.term {
        Terminator::Return { .. } if block.term_span == f.span => {
            Span::new(f.span.hi.saturating_sub(1), f.span.hi)
        }
        Terminator::Branch { .. } | Terminator::Return { .. } => block.term_span,
        Terminator::Goto(_) | Terminator::Unreachable => Span::DUMMY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Const, Value};

    fn tiny_func() -> FuncIr {
        // bb0: %0 = 1; br true ? bb1 : bb2
        // bb1: ret
        // bb2: ret
        let mut b0 = BasicBlock::new();
        b0.instrs = 0..1;
        b0.term = Terminator::Branch {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        let mut b1 = BasicBlock::new();
        b1.term = Terminator::Return { value: None };
        b1.instrs = 1..1;
        let b2 = b1.clone();
        FuncIr {
            name: "t".into(),
            params: vec![],
            ret: Type::Void,
            reg_types: vec![Type::Int],
            blocks: vec![b0, b1, b2],
            instrs: vec![(
                Instr::Copy {
                    dest: Reg(0),
                    src: Value::Const(Const::Int(1)),
                },
                Span::DUMMY,
            )],
            entry: BlockId(0),
            region_count: 0,
            span: Span::DUMMY,
        }
    }

    #[test]
    fn predecessors_and_exits() {
        let f = tiny_func();
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[2], vec![BlockId(0)]);
    }

    #[test]
    fn module_lookup() {
        let m = Module::new(vec![tiny_func()]);
        assert!(m.func("t").is_some());
        assert!(m.func("nope").is_none());
        assert_eq!(m.index("t"), Some(0));
        assert_eq!(m.index("nope"), None);
        assert_eq!(m.total_blocks(), 3);
        assert_eq!(m.total_instrs(), 1);
    }

    #[test]
    fn has_flags() {
        let f = tiny_func();
        assert!(!f.has_omp());
        assert!(!f.has_mpi());
    }
}
