//! Use/def extraction shared by the dataflow and codegen passes.

use parcoach_ir::{BasicBlock, Directive, Instr, Reg, Terminator, Value};

fn push_val(v: &Value, out: &mut Vec<Reg>) {
    if let Value::Reg(r) = v {
        out.push(*r);
    }
}

/// Registers read by one instruction.
pub fn instr_uses(i: &Instr) -> Vec<Reg> {
    let mut out = Vec::new();
    match i {
        Instr::Copy { src, .. } | Instr::Unary { src, .. } => push_val(src, &mut out),
        Instr::Binary { lhs, rhs, .. } => {
            push_val(lhs, &mut out);
            push_val(rhs, &mut out);
        }
        Instr::ArrayNew { len, init, .. } => {
            push_val(len, &mut out);
            push_val(init, &mut out);
        }
        Instr::Load { arr, idx, .. } => {
            out.push(*arr);
            push_val(idx, &mut out);
        }
        Instr::Store {
            arr, idx, value, ..
        } => {
            out.push(*arr);
            push_val(idx, &mut out);
            push_val(value, &mut out);
        }
        Instr::Intrinsic { args, .. } | Instr::Print { args } => {
            for a in args {
                push_val(a, &mut out);
            }
        }
        Instr::Call { args, .. } => {
            for a in args {
                push_val(a, &mut out);
            }
        }
        Instr::Mpi { op, .. } => op.operands(|_, v| push_val(&v, &mut out)),
        Instr::Check(_) => {}
    }
    out
}

/// Registers read by a terminator.
pub fn term_uses(t: &Terminator) -> Vec<Reg> {
    let mut out = Vec::new();
    match t {
        Terminator::Branch { cond, .. } => push_val(cond, &mut out),
        Terminator::Return { value: Some(v), .. } => push_val(v, &mut out),
        _ => {}
    }
    out
}

/// Registers read by a directive block's directive itself.
pub fn directive_uses(b: &BasicBlock) -> Vec<Reg> {
    let mut out = Vec::new();
    if let Some(d) = b.directive() {
        match d {
            Directive::ParallelBegin {
                num_threads: Some(v),
                ..
            } => push_val(v, &mut out),
            Directive::PForInit { lo, hi, .. } => {
                push_val(lo, &mut out);
                push_val(hi, &mut out);
            }
            _ => {}
        }
    }
    out
}

/// Registers written by a directive block's directive.
pub fn directive_defs(b: &BasicBlock) -> Vec<Reg> {
    let mut out = Vec::new();
    if let Some(d) = b.directive() {
        match d {
            Directive::SingleBegin { chosen, .. }
            | Directive::MasterBegin { chosen, .. }
            | Directive::SectionBegin { chosen, .. } => out.push(*chosen),
            Directive::PForInit { var, chunk_end, .. } => {
                out.push(*var);
                out.push(*chunk_end);
            }
            _ => {}
        }
    }
    out
}

/// Is this instruction removable when its destination is dead? Pure
/// computations only — anything that traps, synchronizes, communicates
/// or touches memory visible elsewhere must stay.
pub fn is_pure(i: &Instr) -> bool {
    match i {
        Instr::Copy { .. } | Instr::Unary { .. } => true,
        // Div/Rem can trap on zero; all other binaries are pure.
        Instr::Binary { op, .. } => !matches!(
            op,
            parcoach_front::ast::BinOp::Div | parcoach_front::ast::BinOp::Rem
        ),
        Instr::Intrinsic { intr, .. } => matches!(
            intr,
            parcoach_front::ast::Intrinsic::Sqrt
                | parcoach_front::ast::Intrinsic::Abs
                | parcoach_front::ast::Intrinsic::MinOf
                | parcoach_front::ast::Intrinsic::MaxOf
                | parcoach_front::ast::Intrinsic::IntOf
                | parcoach_front::ast::Intrinsic::FloatOf
                | parcoach_front::ast::Intrinsic::Len
                | parcoach_front::ast::Intrinsic::Rank
                | parcoach_front::ast::Intrinsic::Size
                | parcoach_front::ast::Intrinsic::ThreadNum
                | parcoach_front::ast::Intrinsic::NumThreads
                | parcoach_front::ast::Intrinsic::InParallel
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::ast::{BinOp, Intrinsic};

    #[test]
    fn uses_of_binary() {
        let i = Instr::Binary {
            dest: Reg(2),
            op: BinOp::Add,
            lhs: Value::Reg(Reg(0)),
            rhs: Value::int(3),
        };
        assert_eq!(instr_uses(&i), vec![Reg(0)]);
        assert_eq!(i.dest(), Some(Reg(2)));
    }

    #[test]
    fn purity_classification() {
        let pure = Instr::Binary {
            dest: Reg(0),
            op: BinOp::Mul,
            lhs: Value::int(1),
            rhs: Value::int(2),
        };
        assert!(is_pure(&pure));
        let div = Instr::Binary {
            dest: Reg(0),
            op: BinOp::Div,
            lhs: Value::int(1),
            rhs: Value::Reg(Reg(1)),
        };
        assert!(!is_pure(&div), "division may trap");
        let print = Instr::Print { args: vec![] };
        assert!(!is_pure(&print));
        let rank = Instr::Intrinsic {
            dest: Reg(0),
            intr: Intrinsic::Rank,
            args: vec![],
        };
        assert!(is_pure(&rank));
    }

    #[test]
    fn term_uses_cover_branch_and_return() {
        let t = Terminator::Branch {
            cond: Value::Reg(Reg(5)),
            then_bb: parcoach_ir::BlockId(0),
            else_bb: parcoach_ir::BlockId(1),
        };
        assert_eq!(term_uses(&t), vec![Reg(5)]);
        let r = Terminator::Return {
            value: Some(Value::Reg(Reg(7))),
        };
        assert_eq!(term_uses(&r), vec![Reg(7)]);
        assert!(term_uses(&Terminator::Goto(parcoach_ir::BlockId(0))).is_empty());
    }
}
