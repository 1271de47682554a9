//! Function-level IR containers: basic blocks, functions, modules.

use crate::graph::Preds;
use crate::instr::{BlockKind, Directive, Instr, Successors, Terminator};
use crate::types::{BlockId, Reg, RegionId, Value};
use parcoach_front::ast::Type;
use parcoach_front::span::Span;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A basic block: a kind (normal or directive), straight-line
/// instructions, and one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Normal code or an OpenMP directive node.
    pub kind: BlockKind,
    /// Instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
    /// Representative source span (first statement lowered into it).
    pub span: Span,
}

impl BasicBlock {
    /// A fresh, normal, unreachable-terminated block.
    pub fn new() -> Self {
        BasicBlock {
            kind: BlockKind::Normal,
            instrs: Vec::new(),
            term: Terminator::Unreachable,
            span: Span::DUMMY,
        }
    }

    /// The directive, if this is a directive block.
    pub fn directive(&self) -> Option<&Directive> {
        self.kind.directive()
    }

    /// All MPI collective kinds called in this block, with their spans.
    pub fn collectives(&self) -> impl Iterator<Item = (&Instr, Span)> {
        self.instrs.iter().filter_map(|i| {
            i.collective_kind()
                .map(|_| (i, i.span().unwrap_or(Span::DUMMY)))
        })
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A function lowered to CFG form.
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
    /// Debug names for registers that correspond to source variables.
    pub reg_names: Vec<Option<String>>,
    /// Block table; `BlockId` indexes into it.
    pub blocks: Vec<BasicBlock>,
    /// The entry block (no predecessors).
    pub entry: BlockId,
    /// Number of OpenMP region instances allocated in this function.
    pub region_count: u32,
    /// Span of the source function.
    pub span: Span,
}

impl FuncIr {
    /// Access a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
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

    /// The static type of a register.
    pub fn reg_ty(&self, r: Reg) -> Type {
        self.reg_types[r.index()]
    }

    /// The type of an operand.
    pub fn value_ty(&self, v: Value) -> Type {
        match v {
            Value::Reg(r) => self.reg_ty(r),
            Value::Const(c) => c.ty(),
        }
    }

    /// Successors of a block (from its terminator).
    pub fn successors(&self, id: BlockId) -> Successors {
        self.block(id).term.successors()
    }

    /// Predecessor table for the whole function.
    pub fn predecessors(&self) -> Preds {
        Preds::build(self)
    }

    /// Blocks that end in `Return`.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        self.iter_blocks()
            .filter(|(_, b)| matches!(b.term, Terminator::Return { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// All blocks containing at least one MPI collective, with kinds.
    pub fn collective_blocks(&self) -> Vec<BlockId> {
        self.iter_blocks()
            .filter(|(_, b)| b.instrs.iter().any(|i| i.collective_kind().is_some()))
            .map(|(id, _)| id)
            .collect()
    }

    /// All blocks containing at least one point-to-point operation.
    pub fn p2p_blocks(&self) -> Vec<BlockId> {
        self.iter_blocks()
            .filter(|(_, b)| {
                b.instrs
                    .iter()
                    .any(|i| matches!(i, crate::instr::Instr::Mpi { op, .. } if op.is_p2p()))
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// True if the function contains any point-to-point operation.
    pub fn has_p2p(&self) -> bool {
        !self.p2p_blocks().is_empty()
    }

    /// True if the function contains any OpenMP directive block.
    pub fn has_omp(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::Directive(_)))
    }

    /// True if the function contains any MPI instruction.
    pub fn has_mpi(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Mpi { .. })))
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

    /// Textual dump for debugging and golden tests.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
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
            for i in &b.instrs {
                let _ = writeln!(out, "    {i:?}");
            }
            let _ = writeln!(out, "    {}", b.term);
        }
        out
    }
}

/// A lowered module: all functions of a program.
///
/// A module *shares* its functions: cloning one copies a vector of
/// pointers, and a pass that rewrites some functions
/// ([`Arc::make_mut`], [`Module::func_mut`]) copies exactly those — the
/// rest stay the very allocations of the module it started from.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Functions in definition order.
    pub funcs: Vec<Arc<FuncIr>>,
    /// Name → index into `funcs`.
    pub by_name: Arc<HashMap<String, usize>>,
}

impl Module {
    /// Build a module from functions.
    pub fn new(funcs: Vec<FuncIr>) -> Self {
        let by_name = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        Module {
            funcs: funcs.into_iter().map(Arc::new).collect(),
            by_name: Arc::new(by_name),
        }
    }

    /// Find a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncIr> {
        self.by_name.get(name).map(|&i| &*self.funcs[i])
    }

    /// Mutable lookup by name; un-shares the function if another
    /// module still holds it.
    pub fn func_mut(&mut self, name: &str) -> Option<&mut FuncIr> {
        let i = *self.by_name.get(name)?;
        Some(Arc::make_mut(&mut self.funcs[i]))
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
        self.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.instrs.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Const;

    fn tiny_func() -> FuncIr {
        // bb0: %0 = 1; br true ? bb1 : bb2
        // bb1: ret
        // bb2: ret
        let mut b0 = BasicBlock::new();
        b0.instrs.push(Instr::Copy {
            dest: Reg(0),
            src: Value::Const(Const::Int(1)),
        });
        b0.term = Terminator::Branch {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            span: Span::DUMMY,
        };
        let mut b1 = BasicBlock::new();
        b1.term = Terminator::Return {
            value: None,
            span: Span::DUMMY,
        };
        let b2 = b1.clone();
        FuncIr {
            name: "t".into(),
            params: vec![],
            ret: Type::Void,
            reg_types: vec![Type::Int],
            reg_names: vec![None],
            blocks: vec![b0, b1, b2],
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
        assert_eq!(f.exit_blocks(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn module_lookup() {
        let m = Module::new(vec![tiny_func()]);
        assert!(m.func("t").is_some());
        assert!(m.func("nope").is_none());
        assert_eq!(m.total_blocks(), 3);
        assert_eq!(m.total_instrs(), 1);
    }

    #[test]
    fn value_types() {
        let f = tiny_func();
        assert_eq!(f.value_ty(Value::Reg(Reg(0))), Type::Int);
        assert_eq!(f.value_ty(Value::Const(Const::Float(1.0))), Type::Float);
    }

    #[test]
    fn has_flags() {
        let f = tiny_func();
        assert!(!f.has_omp());
        assert!(!f.has_mpi());
    }
}
