//! In-place IR edits for incremental sessions.
//!
//! `parcoachd` keeps lowered [`FuncIr`]s resident across single-function
//! text edits. An edit that grows or shrinks one function shifts the
//! byte offsets of every function *after* it in the document; their IR
//! is still valid, but the [`Span`]s baked into it point at the old
//! offsets. [`shift_spans`] rebases a function wholesale so that a
//! warm re-analysis reports the same positions a cold re-parse of the
//! new document would.
//!
//! The walk is exhaustive by construction: every match is written
//! without a wildcard arm over span-carrying variants, so adding a new
//! span field to the IR fails compilation here instead of silently
//! drifting warm diagnostics.

use crate::func::FuncIr;
use crate::instr::{CheckOp, Directive, Instr, Terminator};
use parcoach_front::span::Span;

/// Apply `delta` to a span, saturating at zero. The reserved
/// [`Span::DUMMY`] is left untouched — synthesized nodes have no source
/// position to rebase.
fn shift(span: &mut Span, delta: i64) {
    if span.is_dummy() {
        return;
    }
    let lo = span.lo as i64 + delta;
    let hi = span.hi as i64 + delta;
    *span = Span::new(lo.max(0) as u32, hi.max(0) as u32);
}

/// Rebase every span in `f` by `delta` bytes (positive = the edit grew
/// an earlier function). A no-op for `delta == 0`.
pub fn shift_spans(f: &mut FuncIr, delta: i64) {
    if delta == 0 {
        return;
    }
    shift(&mut f.span, delta);
    for b in &mut f.blocks {
        shift(&mut b.span, delta);
        if let crate::instr::BlockKind::Directive(d) = &mut b.kind {
            shift_directive(d, delta);
        }
        shift_terminator(&mut b.term, delta);
    }
    for i in &mut f.instrs {
        shift_instr(i, delta);
    }
}

fn shift_instr(i: &mut Instr, delta: i64) {
    match i {
        Instr::Binary { span, .. }
        | Instr::ArrayNew { span, .. }
        | Instr::Load { span, .. }
        | Instr::Store { span, .. }
        | Instr::Call { span, .. }
        | Instr::Mpi { span, .. } => shift(span, delta),
        Instr::Check(c) => match c {
            CheckOp::CollectiveCc { span, .. }
            | CheckOp::ReturnCc { span }
            | CheckOp::AssertMonothread { span, .. }
            | CheckOp::ConcEnter { span, .. }
            | CheckOp::P2pEpoch { span } => shift(span, delta),
            CheckOp::ConcExit { .. } => {}
        },
        Instr::Copy { .. }
        | Instr::Unary { .. }
        | Instr::Intrinsic { .. }
        | Instr::Print { .. } => {}
    }
}

fn shift_directive(d: &mut Directive, delta: i64) {
    match d {
        Directive::ParallelBegin { span, .. }
        | Directive::SingleBegin { span, .. }
        | Directive::MasterBegin { span, .. }
        | Directive::CriticalBegin { span, .. }
        | Directive::WorkshareBegin { span, .. }
        | Directive::Barrier { span, .. } => shift(span, delta),
        Directive::ParallelEnd { .. }
        | Directive::SingleEnd { .. }
        | Directive::MasterEnd { .. }
        | Directive::CriticalEnd { .. }
        | Directive::WorkshareEnd { .. }
        | Directive::PForInit { .. }
        | Directive::SectionBegin { .. }
        | Directive::SectionEnd { .. } => {}
    }
}

fn shift_terminator(t: &mut Terminator, delta: i64) {
    match t {
        Terminator::Branch { span, .. } | Terminator::Return { span, .. } => shift(span, delta),
        Terminator::Goto(_) | Terminator::Unreachable => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use parcoach_front::parse_and_check;

    fn lower_one(src: &str) -> crate::func::Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    /// Shifting by `d` then `-d` is the identity, and a shifted function
    /// is span-for-span the original parsed at an offset.
    #[test]
    fn shift_roundtrip_matches_offset_parse() {
        let src = "fn main() {\n    MPI_Init();\n    if (rank() == 0) { MPI_Barrier(); }\n    MPI_Finalize();\n}\n";
        let pad = "          \n"; // 11 bytes of leading trivia
        let m0 = lower_one(src);
        let m1 = lower_one(&format!("{pad}{src}"));
        let mut shifted = FuncIr::clone(&m0.funcs[0]);
        shift_spans(&mut shifted, pad.len() as i64);
        assert_eq!(format!("{shifted:?}"), format!("{:?}", m1.funcs[0]));
        shift_spans(&mut shifted, -(pad.len() as i64));
        assert_eq!(format!("{shifted:?}"), format!("{:?}", m0.funcs[0]));
    }

    /// Dummy spans (synthesized barriers, region ends) stay dummy so
    /// they keep rendering as "no location".
    #[test]
    fn dummy_spans_survive_shift() {
        let src = "fn main() { parallel num_threads(2) { single { MPI_Barrier(); } } }";
        let m = lower_one(src);
        let mut f = FuncIr::clone(&m.funcs[0]);
        shift_spans(&mut f, 1000);
        let count_dummy = |f: &FuncIr| {
            f.instrs
                .iter()
                .filter(|i| i.span() == Some(Span::DUMMY))
                .count()
        };
        assert_eq!(count_dummy(&f), count_dummy(&m.funcs[0]));
    }
}
