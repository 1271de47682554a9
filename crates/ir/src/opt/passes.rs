//! Classic scalar optimizations: local constant folding + copy
//! propagation, local common-subexpression elimination, and global
//! dead-code elimination. Together with `codegen`, these give the
//! baseline "compiler" pipeline the realistic weight against which the
//! PARCOACH analysis overhead is measured (Figure 1); they are also
//! genuinely useful for the interpreter's execution speed.
//!
//! Instrumentation `Check` instructions are side-effecting and are never
//! touched by any pass.

use crate::func::{FuncIr, Module};
use crate::instr::{Instr, Terminator};
use crate::opt::liveness::liveness;
use crate::opt::usedef::{instr_uses, is_pure};
use crate::types::{Const, Reg, Value};
use parcoach_front::ast::{BinOp, UnOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Binary/unary operations folded to constants.
    pub folded: usize,
    /// Operand uses rewritten by copy/constant propagation.
    pub propagated: usize,
    /// Instructions removed as redundant (CSE).
    pub cse_removed: usize,
    /// Instructions removed as dead.
    pub dce_removed: usize,
}

impl OptStats {
    /// Total changes.
    pub fn total(&self) -> usize {
        self.folded + self.propagated + self.cse_removed + self.dce_removed
    }
}

/// Optimize a whole module (each function to a local fixpoint, at most
/// `max_rounds` rounds).
pub fn optimize_module(m: &mut Module, max_rounds: usize) -> OptStats {
    let mut total = OptStats::default();
    for f in &mut m.funcs {
        let f = Arc::make_mut(f);
        for _ in 0..max_rounds {
            let s = optimize_func(f);
            total.folded += s.folded;
            total.propagated += s.propagated;
            total.cse_removed += s.cse_removed;
            total.dce_removed += s.dce_removed;
            if s.total() == 0 {
                break;
            }
        }
    }
    total
}

/// One round of local folding/propagation + CSE + global DCE.
pub fn optimize_func(f: &mut FuncIr) -> OptStats {
    let mut stats = OptStats::default();
    local_fold_and_propagate(f, &mut stats);
    local_cse(f, &mut stats);
    dce(f, &mut stats);
    stats
}

/// What a register is currently known to hold within one block.
#[derive(Clone, Copy, PartialEq)]
enum Known {
    Const(Const),
    CopyOf(Reg),
}

/// Local constant folding + copy/constant propagation (per block).
fn local_fold_and_propagate(f: &mut FuncIr, stats: &mut OptStats) {
    for b in &mut f.blocks {
        let mut known: HashMap<Reg, Known> = HashMap::new();
        // Resolve a value through the known map.
        let resolve = |v: Value, known: &HashMap<Reg, Known>, stats: &mut OptStats| -> Value {
            if let Value::Reg(r) = v {
                match known.get(&r) {
                    Some(Known::Const(c)) => {
                        stats.propagated += 1;
                        return Value::Const(*c);
                    }
                    Some(Known::CopyOf(src)) => {
                        stats.propagated += 1;
                        return Value::Reg(*src);
                    }
                    None => {}
                }
            }
            v
        };
        // Invalidate facts about a redefined register (both as key and as
        // copy source).
        fn invalidate(known: &mut HashMap<Reg, Known>, r: Reg) {
            known.remove(&r);
            known.retain(|_, v| !matches!(v, Known::CopyOf(s) if *s == r));
        }
        for i in &mut b.instrs {
            // Rewrite operands first.
            match i {
                Instr::Copy { src, .. } | Instr::Unary { src, .. } => {
                    *src = resolve(*src, &known, stats);
                }
                Instr::Binary { lhs, rhs, .. } => {
                    *lhs = resolve(*lhs, &known, stats);
                    *rhs = resolve(*rhs, &known, stats);
                }
                Instr::ArrayNew { len, init, .. } => {
                    *len = resolve(*len, &known, stats);
                    *init = resolve(*init, &known, stats);
                }
                Instr::Load { idx, .. } => {
                    *idx = resolve(*idx, &known, stats);
                }
                Instr::Store { idx, value, .. } => {
                    *idx = resolve(*idx, &known, stats);
                    *value = resolve(*value, &known, stats);
                }
                Instr::Intrinsic { args, .. }
                | Instr::Print { args }
                | Instr::Call { args, .. } => {
                    for a in args {
                        *a = resolve(*a, &known, stats);
                    }
                }
                Instr::Mpi { op, .. } => match op {
                    // Communicator operands stay registers: they are
                    // opaque handles with no constant form.
                    crate::instr::MpiIr::Collective { value, root, .. } => {
                        if let Some(v) = value {
                            *v = resolve(*v, &known, stats);
                        }
                        if let Some(r) = root {
                            *r = resolve(*r, &known, stats);
                        }
                    }
                    crate::instr::MpiIr::Send {
                        value, dest, tag, ..
                    } => {
                        *value = resolve(*value, &known, stats);
                        *dest = resolve(*dest, &known, stats);
                        *tag = resolve(*tag, &known, stats);
                    }
                    crate::instr::MpiIr::Recv { src, tag, .. } => {
                        *src = resolve(*src, &known, stats);
                        *tag = resolve(*tag, &known, stats);
                    }
                    crate::instr::MpiIr::CommSplit { color, key, .. } => {
                        *color = resolve(*color, &known, stats);
                        *key = resolve(*key, &known, stats);
                    }
                    // Request operands stay registers (opaque handles);
                    // the scalar operands of the posts fold like their
                    // blocking counterparts.
                    crate::instr::MpiIr::Isend {
                        value, dest, tag, ..
                    } => {
                        *value = resolve(*value, &known, stats);
                        *dest = resolve(*dest, &known, stats);
                        *tag = resolve(*tag, &known, stats);
                    }
                    crate::instr::MpiIr::Irecv { src, tag, .. } => {
                        *src = resolve(*src, &known, stats);
                        *tag = resolve(*tag, &known, stats);
                    }
                    _ => {}
                },
                Instr::Check(_) => {}
            }
            // Fold.
            if let Instr::Binary {
                dest,
                op,
                lhs: Value::Const(a),
                rhs: Value::Const(b),
                ..
            } = i
            {
                if let Some(c) = fold_binary(*op, *a, *b) {
                    stats.folded += 1;
                    *i = Instr::Copy {
                        dest: *dest,
                        src: Value::Const(c),
                    };
                }
            }
            if let Instr::Unary {
                dest,
                op,
                src: Value::Const(c),
            } = i
            {
                if let Some(c) = fold_unary(*op, *c) {
                    stats.folded += 1;
                    *i = Instr::Copy {
                        dest: *dest,
                        src: Value::Const(c),
                    };
                }
            }
            // Record new facts.
            if let Some(d) = i.dest() {
                invalidate(&mut known, d);
            }
            if let Instr::Copy { dest, src } = i {
                match src {
                    Value::Const(c) => {
                        known.insert(*dest, Known::Const(*c));
                    }
                    Value::Reg(s) if *s != *dest => {
                        known.insert(*dest, Known::CopyOf(*s));
                    }
                    _ => {}
                }
            }
        }
        // Terminator operands.
        if let Terminator::Branch { cond, .. } = &mut b.term {
            *cond = resolve(*cond, &known, stats);
        }
        if let Terminator::Return { value: Some(v), .. } = &mut b.term {
            *v = resolve(*v, &known, stats);
        }
    }
}

fn fold_binary(op: BinOp, a: Const, b: Const) -> Option<Const> {
    use Const::*;
    Some(match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (BinOp::Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (BinOp::Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (BinOp::Div, Int(x), Int(y)) if y != 0 => Int(x.wrapping_div(y)),
        (BinOp::Rem, Int(x), Int(y)) if y != 0 => Int(x.wrapping_rem(y)),
        (BinOp::Add, Float(x), Float(y)) => Float(x + y),
        (BinOp::Sub, Float(x), Float(y)) => Float(x - y),
        (BinOp::Mul, Float(x), Float(y)) => Float(x * y),
        (BinOp::Div, Float(x), Float(y)) => Float(x / y),
        (BinOp::Eq, Int(x), Int(y)) => Bool(x == y),
        (BinOp::Ne, Int(x), Int(y)) => Bool(x != y),
        (BinOp::Lt, Int(x), Int(y)) => Bool(x < y),
        (BinOp::Le, Int(x), Int(y)) => Bool(x <= y),
        (BinOp::Gt, Int(x), Int(y)) => Bool(x > y),
        (BinOp::Ge, Int(x), Int(y)) => Bool(x >= y),
        (BinOp::Eq, Bool(x), Bool(y)) => Bool(x == y),
        (BinOp::Ne, Bool(x), Bool(y)) => Bool(x != y),
        (BinOp::And, Bool(x), Bool(y)) => Bool(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => Bool(x || y),
        (BinOp::Eq, Float(x), Float(y)) => Bool(x == y),
        (BinOp::Ne, Float(x), Float(y)) => Bool(x != y),
        (BinOp::Lt, Float(x), Float(y)) => Bool(x < y),
        (BinOp::Le, Float(x), Float(y)) => Bool(x <= y),
        (BinOp::Gt, Float(x), Float(y)) => Bool(x > y),
        (BinOp::Ge, Float(x), Float(y)) => Bool(x >= y),
        _ => return None,
    })
}

fn fold_unary(op: UnOp, c: Const) -> Option<Const> {
    Some(match (op, c) {
        (UnOp::Neg, Const::Int(x)) => Const::Int(x.wrapping_neg()),
        (UnOp::Neg, Const::Float(x)) => Const::Float(-x),
        (UnOp::Not, Const::Bool(b)) => Const::Bool(!b),
        _ => return None,
    })
}

/// A hashable key for pure expressions within one block.
#[derive(PartialEq, Clone)]
enum ExprKey {
    Binary(BinOp, Value, Value),
    Unary(UnOp, Value),
}

/// Local common-subexpression elimination: a pure expression computed
/// twice in a block with the same operands becomes a copy of the first
/// result.
fn local_cse(f: &mut FuncIr, stats: &mut OptStats) {
    for b in &mut f.blocks {
        // (key, result reg); invalidated when any operand register is
        // redefined.
        let mut avail: Vec<(ExprKey, Reg)> = Vec::new();
        for i in &mut b.instrs {
            let pure = is_pure(i);
            let key = match &*i {
                Instr::Binary { op, lhs, rhs, .. } if pure => {
                    Some(ExprKey::Binary(*op, *lhs, *rhs))
                }
                Instr::Unary { op, src, .. } => Some(ExprKey::Unary(*op, *src)),
                _ => None,
            };
            // A redefinition invalidates previously-available expressions
            // that mention (or produced) the destination — *before* the
            // new expression is recorded.
            if let Some(d) = i.dest() {
                avail.retain(|(k, res)| {
                    if *res == d {
                        return false;
                    }
                    let uses_d = |v: &Value| matches!(v, Value::Reg(r) if *r == d);
                    match k {
                        ExprKey::Binary(_, a, b) => !uses_d(a) && !uses_d(b),
                        ExprKey::Unary(_, a) => !uses_d(a),
                    }
                });
            }
            if let (Some(key), Some(dest)) = (key, i.dest()) {
                if let Some((_, prev)) = avail.iter().find(|(k, _)| *k == key) {
                    stats.cse_removed += 1;
                    *i = Instr::Copy {
                        dest,
                        src: Value::Reg(*prev),
                    };
                } else {
                    avail.push((key, dest));
                }
            }
        }
    }
}

/// Global dead-code elimination driven by liveness.
fn dce(f: &mut FuncIr, stats: &mut OptStats) {
    let lv = liveness(f);
    for (bi, b) in f.blocks.iter_mut().enumerate() {
        // Walk backwards with a running live set, which at the block end
        // covers the successors' needs *and* the terminator's own reads.
        let mut live = lv.live_out[bi].clone();
        for u in crate::opt::usedef::term_uses(&b.term) {
            live.insert(u.index());
        }
        let mut keep: Vec<bool> = vec![true; b.instrs.len()];
        for (ii, i) in b.instrs.iter().enumerate().rev() {
            let dead_dest = i.dest().map(|d| !live.contains(d.index())).unwrap_or(false);
            if dead_dest && is_pure(i) {
                keep[ii] = false;
                stats.dce_removed += 1;
                continue; // its uses do not become live
            }
            if let Some(d) = i.dest() {
                live.remove(d.index());
            }
            for u in instr_uses(i) {
                live.insert(u.index());
            }
        }
        let mut it = keep.iter();
        b.instrs.retain(|_| *it.next().expect("keep mask aligned"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::verify::verify_module;
    use parcoach_front::parse_and_check;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    fn count_instrs(m: &Module) -> usize {
        m.total_instrs()
    }

    #[test]
    fn folds_constants() {
        let mut m = lower("fn main() { let x = 2 + 3 * 4; print(x); }");
        let stats = optimize_module(&mut m, 4);
        assert!(stats.folded >= 2, "{stats:?}");
        assert!(verify_module(&m).is_empty());
        // The print argument should now be the constant 14.
        let f = m.main().unwrap();
        let has_const_print = f.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i,
                Instr::Print { args } if args == &vec![Value::Const(Const::Int(14))]
            )
        });
        assert!(has_const_print, "{}", f.dump());
    }

    #[test]
    fn removes_dead_code() {
        let mut m = lower("fn main() { let dead = 1 + 2; let dead2 = dead * 3; print(7); }");
        let before = count_instrs(&m);
        let stats = optimize_module(&mut m, 4);
        assert!(stats.dce_removed >= 2, "{stats:?}");
        assert!(count_instrs(&m) < before);
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn cse_merges_repeated_expressions() {
        let mut m = lower(
            "fn main() { let a = rank(); let x = a * 2 + 1; let y = a * 2 + 1; print(x + y); }",
        );
        let stats = optimize_module(&mut m, 4);
        assert!(stats.cse_removed >= 1, "{stats:?}");
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn preserves_side_effects() {
        let src = "fn main() {
            MPI_Init();
            let unused = MPI_Allreduce(1, SUM);
            MPI_Send(1, 0, 1);
            print(0);
            MPI_Finalize();
        }";
        let mut m = lower(src);
        let mpi_before = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Mpi { .. }))
            .count();
        optimize_module(&mut m, 4);
        let mpi_after = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Mpi { .. }))
            .count();
        assert_eq!(mpi_before, mpi_after, "MPI ops must never be removed");
    }

    #[test]
    fn division_not_folded_or_removed_when_trapping() {
        let mut m = lower("fn main() { let z = rank(); let d = 1 / z; print(0); }");
        optimize_module(&mut m, 4);
        let f = m.main().unwrap();
        let has_div = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Binary { op: BinOp::Div, .. }));
        assert!(
            has_div,
            "possibly-trapping division must stay:\n{}",
            f.dump()
        );
    }

    #[test]
    fn optimized_programs_still_run_correctly() {
        // Differential check: optimized vs unoptimized execution output.
        let src = "fn main() {
            let a = 2 + 3;
            let b = a * a;
            let dead = b * 17;
            let c = 0;
            for (i in 0..b) { c = c + i; }
            print(a, b, c);
        }";
        let unit = parse_and_check("t.mh", src).unwrap();
        let plain = lower_program(&unit.program, &unit.signatures);
        let mut opt = plain.clone();
        optimize_module(&mut opt, 4);
        assert!(verify_module(&opt).is_empty());
        // Execution must agree (uses the interpreter via parcoach-interp
        // in integration tests; here compare instruction-level dumps are
        // different but both verify — run-level equivalence is covered in
        // tests/optimization.rs of the interp crate).
        assert!(opt.total_instrs() < plain.total_instrs());
    }

    #[test]
    fn dce_keeps_branch_conditions() {
        // Regression: the loop condition is defined in the loop-head
        // block and consumed only by that block's *terminator* — it must
        // not be considered dead (found by the property tests).
        let mut m =
            lower("fn main() { let acc = 1; for (i in 0..1) { acc = acc + 1; } print(acc); }");
        optimize_module(&mut m, 4);
        assert!(verify_module(&m).is_empty());
        let f = m.main().unwrap();
        for (id, b) in f.iter_blocks() {
            if let Terminator::Branch {
                cond: Value::Reg(r),
                ..
            } = &b.term
            {
                let defined = f
                    .blocks
                    .iter()
                    .flat_map(|b| &b.instrs)
                    .any(|i| i.dest() == Some(*r));
                assert!(defined, "branch condition {r} of {id} has no definition");
            }
        }
    }

    #[test]
    fn fixpoint_terminates() {
        let mut m = lower("fn main() { let x = 1 + 2; let y = x + 3; let z = y + 4; print(z); }");
        let s1 = optimize_module(&mut m, 10);
        let s2 = optimize_module(&mut m, 10);
        assert!(s1.total() > 0);
        assert_eq!(s2.total(), 0, "second run must be a no-op: {s2:?}");
    }
}
