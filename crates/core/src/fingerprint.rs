//! Span-insensitive structural hashing of the IR.
//!
//! [`QueryDb::reconcile`](crate::query::QueryDb::reconcile) decides
//! whether an edited function still means what its stored facts were
//! derived from by comparing 128-bit hashes of the old and the new IR.
//! The walk below mirrors the IR shape by hand — every `match` names
//! every field, so a new field fails compilation here instead of
//! silently escaping the key — feeding integers (discriminants, ids,
//! operand bits) to a word-at-a-time hasher. An MPI operation's operands
//! come from [`MpiOp::operands`], the one walk that names them all.
//! Spans are the one thing it skips: code that only moved hashes the
//! same.

use crate::handle::is_handle;
use parcoach_ir::func::FuncIr;
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiOp, Terminator};
use parcoach_ir::types::{Const, Reg, Value};

/// A 128-bit span-insensitive structural hash of one function's IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u128);

/// Two independent multiply-fold lanes over 64-bit words: each lane is
/// a 64-bit hash of the whole input under its own odd multiplier, so a
/// collision needs both to collide. Not keyed — the inputs are the
/// program's own IR, never an adversary's bytes.
pub(crate) struct Hash128 {
    a: u64,
    b: u64,
}

const K_A: u64 = 0x9E37_79B9_7F4A_7C15;
const K_B: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The 128-bit product of `x` and `k`, high half folded onto the low.
fn fold(x: u64, k: u64) -> u64 {
    let r = u128::from(x) * u128::from(k);
    (r as u64) ^ ((r >> 64) as u64)
}

impl Hash128 {
    pub(crate) fn new() -> Self {
        Hash128 { a: K_B, b: K_A }
    }

    /// Absorb one word. The additive constant keeps `0` from being a
    /// fixed point of a lane (runs of zero words must count).
    pub(crate) fn word(&mut self, v: u64) {
        self.a = fold(self.a ^ v, K_A).wrapping_add(K_B);
        self.b = fold(self.b ^ v.rotate_left(32), K_B).wrapping_add(K_A);
    }

    /// A variant tag and one small payload in one word (ids and
    /// discriminants are `u32` or narrower).
    fn tag(&mut self, tag: u8, x: u32) {
        self.word(u64::from(tag) << 56 | u64::from(x));
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub(crate) fn finish(self) -> u128 {
        u128::from(fold(self.a, K_B)) << 64 | u128::from(fold(self.b, K_A))
    }

    fn reg(&mut self, r: Reg) {
        self.word(u64::from(r.0));
    }

    fn opt_reg(&mut self, r: Option<Reg>) {
        self.word(r.map_or(u64::MAX, |r| u64::from(r.0)));
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Reg(r) => self.tag(0, r.0),
            Value::Const(Const::Int(x)) => {
                self.tag(1, 0);
                self.word(x as u64);
            }
            Value::Const(Const::Float(x)) => {
                self.tag(2, 0);
                self.word(x.to_bits());
            }
            Value::Const(Const::Bool(x)) => self.tag(3, u32::from(x)),
        }
    }

    fn opt_value(&mut self, v: Option<Value>) {
        match v {
            None => self.tag(4, 0),
            Some(v) => self.value(v),
        }
    }

    fn values(&mut self, vs: &[Value]) {
        self.word(vs.len() as u64);
        for v in vs {
            self.value(*v);
        }
    }

    /// The parts of the signature and register file every projection
    /// reads.
    fn registers(&mut self, f: &FuncIr) {
        self.word(f.params.len() as u64);
        for p in &f.params {
            self.reg(*p);
        }
        self.word(f.reg_types.len() as u64);
        for t in &f.reg_types {
            self.word(*t as u64);
        }
    }

    fn instr(&mut self, i: &Instr) {
        match i {
            Instr::Copy { dest, src } => {
                self.tag(0x10, dest.0);
                self.value(*src);
            }
            Instr::Unary { dest, op, src } => {
                self.tag(0x11, dest.0);
                self.word(*op as u64);
                self.value(*src);
            }
            Instr::Binary {
                dest,
                op,
                lhs,
                rhs,
                span: _,
            } => {
                self.tag(0x12, dest.0);
                self.word(*op as u64);
                self.value(*lhs);
                self.value(*rhs);
            }
            Instr::ArrayNew {
                dest,
                len,
                init,
                elem,
                span: _,
            } => {
                self.tag(0x13, dest.0);
                self.word(*elem as u64);
                self.value(*len);
                self.value(*init);
            }
            Instr::Load {
                dest,
                arr,
                idx,
                span: _,
            } => {
                self.tag(0x14, dest.0);
                self.reg(*arr);
                self.value(*idx);
            }
            Instr::Store {
                arr,
                idx,
                value,
                span: _,
            } => {
                self.tag(0x15, arr.0);
                self.value(*idx);
                self.value(*value);
            }
            Instr::Intrinsic { dest, intr, args } => {
                self.tag(0x16, dest.0);
                self.word(*intr as u64);
                self.values(args);
            }
            Instr::Call {
                dest,
                callee,
                args,
                span: _,
            } => {
                self.tag(0x17, 0);
                self.opt_reg(*dest);
                self.word(*callee as u64);
                self.values(args);
            }
            Instr::Mpi { dest, op, span: _ } => {
                self.tag(0x18, 0);
                self.opt_reg(*dest);
                self.mpi(op);
            }
            Instr::Print { args } => {
                self.tag(0x19, 0);
                self.values(args);
            }
            Instr::Check(c) => match c {
                CheckOp::CollectiveCc {
                    color,
                    comm,
                    span: _,
                } => {
                    self.tag(0x1a, *color);
                    self.opt_value(*comm);
                }
                CheckOp::ReturnCc { span: _ } => self.tag(0x1b, 0),
                CheckOp::AssertMonothread { what, span: _ } => {
                    self.tag(0x1c, 0);
                    self.str(what);
                }
                CheckOp::ConcEnter { site, span: _ } => self.tag(0x1d, *site),
                CheckOp::ConcExit { site } => self.tag(0x1e, *site),
                CheckOp::P2pEpoch { span: _ } => self.tag(0x1f, 0),
            },
        }
    }

    /// The name and the fields that are not operands by hand; the
    /// operands, each with its role, by the one walk that names them all.
    fn mpi(&mut self, op: &MpiOp<Value>) {
        self.str(op.name());
        match op {
            MpiOp::Init { required } => self.word(required.map_or(u64::MAX, |l| l as u64)),
            MpiOp::Collective { reduce_op, .. } => {
                self.word(reduce_op.map_or(u64::MAX, |r| r as u64));
            }
            _ => {}
        }
        op.operands(|role, v| {
            self.word(role as u64);
            self.value(v);
        });
    }

    fn directive(&mut self, d: &Directive) {
        match d {
            Directive::ParallelBegin {
                region,
                num_threads,
                span: _,
            } => {
                self.tag(0x20, region.0);
                self.opt_value(*num_threads);
            }
            Directive::ParallelEnd { region } => self.tag(0x21, region.0),
            Directive::SingleBegin {
                region,
                nowait,
                chosen,
                span: _,
            } => {
                self.tag(0x22, region.0);
                self.word(u64::from(*nowait));
                self.reg(*chosen);
            }
            Directive::SingleEnd { region } => self.tag(0x23, region.0),
            Directive::MasterBegin {
                region,
                chosen,
                span: _,
            } => {
                self.tag(0x24, region.0);
                self.reg(*chosen);
            }
            Directive::MasterEnd { region } => self.tag(0x25, region.0),
            Directive::CriticalBegin { region, span: _ } => self.tag(0x26, region.0),
            Directive::CriticalEnd { region } => self.tag(0x27, region.0),
            Directive::WorkshareBegin {
                region,
                kind,
                nowait,
                span: _,
            } => {
                self.tag(0x28, region.0);
                self.word(*kind as u64);
                self.word(u64::from(*nowait));
            }
            Directive::WorkshareEnd { region } => self.tag(0x29, region.0),
            Directive::PForInit {
                region,
                var,
                chunk_end,
                lo,
                hi,
            } => {
                self.tag(0x2a, region.0);
                self.reg(*var);
                self.reg(*chunk_end);
                self.value(*lo);
                self.value(*hi);
            }
            Directive::SectionBegin {
                region,
                parent,
                index,
                chosen,
            } => {
                self.tag(0x2b, region.0);
                self.word(u64::from(parent.0));
                self.word(u64::from(*index));
                self.reg(*chosen);
            }
            Directive::SectionEnd { region } => self.tag(0x2c, region.0),
            Directive::Barrier {
                implicit,
                region,
                span: _,
            } => {
                self.tag(0x2d, u32::from(*implicit));
                self.word(region.map_or(u64::MAX, |r| u64::from(r.0)));
            }
        }
    }

    fn terminator(&mut self, t: &Terminator) {
        match t {
            Terminator::Goto(b) => self.tag(0x30, b.0),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                span: _,
            } => {
                self.tag(0x31, then_bb.0);
                self.word(u64::from(else_bb.0));
                self.value(*cond);
            }
            Terminator::Return { value, span: _ } => {
                self.tag(0x32, 0);
                self.opt_value(*value);
            }
            Terminator::Unreachable => self.tag(0x33, 0),
        }
    }
}

/// Compute the span-insensitive structural fingerprint of `f`.
pub fn fingerprint(f: &FuncIr) -> Fingerprint {
    let FuncIr {
        name,
        params: _,
        ret,
        reg_types: _,
        blocks,
        // Hashed block by block, below.
        instrs: _,
        entry,
        region_count,
        span: _,
    } = f;
    let mut h = Hash128::new();
    h.str(name);
    h.registers(f);
    h.word(*ret as u64);
    h.word(u64::from(entry.0));
    h.word(u64::from(*region_count));
    h.word(blocks.len() as u64);
    for (id, b) in f.iter_blocks() {
        match &b.kind {
            BlockKind::Normal => h.tag(0x51, 0),
            BlockKind::Directive(d) => h.directive(d),
        }
        let instrs = f.instrs(id);
        h.word(instrs.len() as u64);
        for i in instrs {
            h.instr(i);
        }
        h.terminator(&b.term);
    }
    Fingerprint(h.finish())
}

/// Span-insensitive hash of everything the handle resolution
/// ([`crate::handle`]) reads from `f`: `0` when the function has no
/// handle-typed register (the resolver's fast path), else the signature,
/// the register types and every instruction defining a handle-typed
/// register, with its position (class definitions are keyed by
/// [`Locator`](crate::query::Locator)).
pub(crate) fn handle_def_fp(f: &FuncIr) -> u128 {
    if !f.reg_types.iter().any(|&t| is_handle(t)) {
        return 0;
    }
    let mut h = Hash128::new();
    h.registers(f);
    for b in f.block_ids() {
        h.tag(0x52, 0);
        for (ii, i) in f.instrs(b).iter().enumerate() {
            if i.dest()
                .is_some_and(|d| f.reg_types.get(d.index()).is_some_and(|&t| is_handle(t)))
            {
                h.word(ii as u64);
                h.instr(i);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(words: &[u64]) -> u128 {
        let mut h = Hash128::new();
        for w in words {
            h.word(*w);
        }
        h.finish()
    }

    /// The cases a word-at-a-time multiplicative hash gets wrong when it
    /// is built carelessly: zero runs of different length, a permuted
    /// pair, a difference only in the high half of a word, a string
    /// boundary moved by one byte.
    #[test]
    fn lanes_separate_the_easy_collisions() {
        let inputs: [&[u64]; 8] = [
            &[],
            &[0],
            &[0, 0],
            &[0, 0, 0],
            &[1, 2],
            &[2, 1],
            &[1 << 63],
            &[1 << 31],
        ];
        let mut seen: Vec<u128> = inputs.iter().map(|w| hash(w)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), inputs.len());

        let strs = |a: &str, b: &str| {
            let mut h = Hash128::new();
            h.str(a);
            h.str(b);
            h.finish()
        };
        assert_ne!(strs("ab", "c"), strs("a", "bc"));
        assert_ne!(strs("", "x"), strs("x", ""));
    }
}
