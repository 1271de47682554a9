//! In-place IR edits for incremental sessions.
//!
//! `parcoachd` keeps lowered [`FuncIr`]s resident across single-function
//! text edits. An edit that grows or shrinks one function shifts the
//! byte offsets of every function *after* it in the document; their IR
//! is still valid, but its [`Span`]s point at the old offsets.
//! [`shift_spans`] rebases a function wholesale so that a warm
//! re-analysis reports the same positions a cold re-parse of the new
//! document would. Spans sit beside the instructions, directives and
//! terminators, never inside them, so that is one loop.

use crate::func::{BasicBlock, FuncIr};
use parcoach_front::span::Span;

/// Rebase every span in `f` by `delta` bytes (positive = the edit grew
/// an earlier function), saturating at zero. The reserved
/// [`Span::DUMMY`] is left untouched — synthesized nodes have no source
/// position to rebase. A no-op for `delta == 0`.
pub fn shift_spans(f: &mut FuncIr, delta: i64) {
    if delta == 0 {
        return;
    }
    // Named field by field, so a new span field fails compilation here
    // instead of drifting warm diagnostics.
    let FuncIr {
        span,
        blocks,
        instrs,
        name: _,
        params: _,
        ret: _,
        reg_types: _,
        entry: _,
        region_count: _,
    } = f;
    let block_spans = blocks.iter_mut().flat_map(|b| {
        let BasicBlock {
            span,
            term_span,
            kind: _,
            instrs: _,
            term: _,
        } = b;
        [span, term_span]
    });
    let instr_spans = instrs.iter_mut().map(|(_, span)| span);
    for span in std::iter::once(span).chain(block_spans).chain(instr_spans) {
        if !span.is_dummy() {
            let lo = (span.lo as i64 + delta).max(0) as u32;
            let hi = (span.hi as i64 + delta).max(0) as u32;
            *span = Span::new(lo, hi);
        }
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
        let count_dummy = |f: &FuncIr| f.instrs.iter().filter(|(_, s)| s.is_dummy()).count();
        assert_eq!(count_dummy(&f), count_dummy(&m.funcs[0]));
    }
}
