//! IR verifier: structural invariants the analysis and executor rely on.
//!
//! Run after lowering (and again after instrumentation) to catch compiler
//! bugs early instead of as mysterious analysis results.

use crate::func::{FuncIr, Module};
use crate::graph::reachable;
use crate::instr::{BlockKind, Directive, Instr, Terminator};
use crate::types::BlockId;

/// A verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Block where the problem is.
    pub block: BlockId,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: {}", self.func, self.block, self.message)
    }
}

/// Verify a whole module. Empty result = OK.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let mut walk = NestingWalk::default();
    for f in &m.funcs {
        verify_into(f, &mut walk, &mut errs);
    }
    errs
}

/// Verify a single function.
pub fn verify_func(f: &FuncIr) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    verify_into(f, &mut NestingWalk::default(), &mut errs);
    errs
}

/// Append `f`'s findings to `errs`; `walk` is scratch space that one
/// module's functions share.
fn verify_into(f: &FuncIr, walk: &mut NestingWalk, errs: &mut Vec<VerifyError>) {
    let before = errs.len();
    let mut err = |block: BlockId, message: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            block,
            message,
        });
    };
    let n = f.block_count();

    // Pass 0: terminator targets must be in range before any graph
    // traversal is safe.
    for (id, b) in f.iter_blocks() {
        for s in b.term.successors() {
            if s.index() >= n {
                err(id, format!("terminator targets out-of-range block {s}"));
            }
        }
    }
    if errs.len() > before {
        return;
    }
    let mut err = |block: BlockId, message: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            block,
            message,
        });
    };
    let reach = reachable(f);

    for (id, b) in f.iter_blocks() {
        // Reachable blocks must be terminated.
        if reach[id.index()] && matches!(b.term, Terminator::Unreachable) {
            err(id, "reachable block has no terminator".into());
        }
        // Register indices in range.
        let max_reg = f.reg_types.len();
        let check_val = |v: &crate::types::Value| match v {
            crate::types::Value::Reg(r) => r.index() < max_reg,
            crate::types::Value::Const(_) => true,
        };
        for i in &b.instrs {
            let ok = match i {
                Instr::Copy { dest, src } => dest.index() < max_reg && check_val(src),
                Instr::Unary { dest, src, .. } => dest.index() < max_reg && check_val(src),
                Instr::Binary { dest, lhs, rhs, .. } => {
                    dest.index() < max_reg && check_val(lhs) && check_val(rhs)
                }
                Instr::ArrayNew {
                    dest, len, init, ..
                } => dest.index() < max_reg && check_val(len) && check_val(init),
                Instr::Load { dest, arr, idx, .. } => {
                    dest.index() < max_reg && arr.index() < max_reg && check_val(idx)
                }
                Instr::Store {
                    arr, idx, value, ..
                } => arr.index() < max_reg && check_val(idx) && check_val(value),
                Instr::Intrinsic { dest, args, .. } => {
                    dest.index() < max_reg && args.iter().all(check_val)
                }
                Instr::Call { dest, args, .. } => {
                    dest.is_none_or(|d| d.index() < max_reg) && args.iter().all(check_val)
                }
                Instr::Mpi { dest, .. } => dest.is_none_or(|d| d.index() < max_reg),
                Instr::Print { args } => args.iter().all(check_val),
                Instr::Check(_) => true,
            };
            if !ok {
                err(
                    id,
                    format!("instruction references out-of-range register: {i:?}"),
                );
            }
        }
        // Directive blocks carry no user instructions (checks are allowed:
        // the instrumentation pass may guard directive nodes).
        if let BlockKind::Directive(_) = &b.kind {
            if b.instrs.iter().any(|i| !matches!(i, Instr::Check(_))) {
                err(id, "directive block contains non-check instructions".into());
            }
        }
    }

    // Region begin/end pairing along every path: walk the CFG carrying a
    // region stack; every reachable path must see perfectly nested
    // open/close pairs (this is the paper's "perfectly nested regions"
    // invariant, which lowering must establish).
    walk.run(f, errs);
}

/// The region-nesting walk and its state, reused from one function of
/// a module to the next.
///
/// The region stacks live in one parent-linked table: a stack is the id
/// of its top entry `(rest of the stack, region)`. Pushing appends an
/// entry and popping follows the parent link, so the walk hands a stack
/// to a successor by copying an id.
#[derive(Default)]
struct NestingWalk {
    stacks: Vec<(StackId, u32)>,
    /// The stack each block is entered with; `None` until reached.
    state: Vec<Option<StackId>>,
    work: Vec<BlockId>,
}

/// Index into [`NestingWalk::stacks`]; [`EMPTY`] is the empty stack.
type StackId = u32;
const EMPTY: StackId = u32::MAX;

impl NestingWalk {
    fn push(&mut self, stack: StackId, region: u32) -> StackId {
        self.stacks.push((stack, region));
        (self.stacks.len() - 1) as StackId
    }

    /// `(rest, top)` of a non-empty stack.
    fn pop(&self, stack: StackId) -> Option<(StackId, u32)> {
        (stack != EMPTY).then(|| self.stacks[stack as usize])
    }

    /// The stack's regions, outermost first.
    fn regions(&self, mut stack: StackId) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some((rest, top)) = self.pop(stack) {
            out.push(top);
            stack = rest;
        }
        out.reverse();
        out
    }

    fn same(&self, mut a: StackId, mut b: StackId) -> bool {
        while a != b {
            match (self.pop(a), self.pop(b)) {
                (Some((rest_a, top_a)), Some((rest_b, top_b))) if top_a == top_b => {
                    a = rest_a;
                    b = rest_b;
                }
                _ => return false,
            }
        }
        true
    }

    fn run(&mut self, f: &FuncIr, errs: &mut Vec<VerifyError>) {
        let mut err = |block: BlockId, message: String| {
            errs.push(VerifyError {
                func: f.name.clone(),
                block,
                message,
            });
        };
        self.stacks.clear();
        self.state.clear();
        self.state.resize(f.block_count(), None);
        self.work.clear();
        self.work.push(f.entry);
        self.state[f.entry.index()] = Some(EMPTY);
        while let Some(b) = self.work.pop() {
            let mut stack = self.state[b.index()].expect("queued with state");
            let blk = f.block(b);
            // `single`/`master`/`section` entries are *conditional*: only
            // the chosen thread enters the region, so their token is
            // pushed on the then-edge, not in the directive block itself.
            let mut conditional_open: Option<u32> = None;
            if let BlockKind::Directive(d) = &blk.kind {
                if d.opens_region() {
                    let r = d.region().expect("open directive has region").0;
                    match d {
                        Directive::SingleBegin { .. }
                        | Directive::MasterBegin { .. }
                        | Directive::SectionBegin { .. } => conditional_open = Some(r),
                        _ => stack = self.push(stack, r),
                    }
                } else if d.closes_region() {
                    let r = d.region().expect("close directive has region").0;
                    match self.pop(stack) {
                        Some((rest, top)) => {
                            stack = rest;
                            if top != r {
                                err(
                                    b,
                                    format!(
                                        "region end r{r} does not match innermost open region r{top}"
                                    ),
                                );
                            }
                        }
                        None => err(b, format!("region end r{r} with no open region")),
                    }
                }
            }
            if matches!(blk.term, Terminator::Return { .. }) && stack != EMPTY {
                let open = self.regions(stack).len();
                err(b, format!("return with {open} region(s) still open"));
            }
            let mut then_stack = stack;
            if let Some(r) = conditional_open {
                if matches!(blk.term, Terminator::Branch { .. }) {
                    then_stack = self.push(stack, r);
                } else {
                    // A conditional opener without a branch terminator is
                    // a lowering bug.
                    err(
                        b,
                        format!("conditional region opener r{r} must end in a branch"),
                    );
                }
            }
            for (i, s) in blk.term.successors().into_iter().enumerate() {
                let st = if i == 0 { then_stack } else { stack };
                match self.state[s.index()] {
                    None => {
                        self.state[s.index()] = Some(st);
                        self.work.push(s);
                    }
                    Some(existing) => {
                        if !self.same(existing, st) {
                            // Two paths reach `s` with different region
                            // nesting — the structured lowering must
                            // never produce this.
                            err(
                                s,
                                format!(
                                    "inconsistent region nesting at join: {:?} vs {:?}",
                                    self.regions(existing),
                                    self.regions(st)
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use parcoach_front::parse_and_check;
    use std::sync::Arc;

    fn lower_ok(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("source must check");
        lower_program(&unit.program, &unit.signatures)
    }

    #[test]
    fn clean_programs_verify() {
        for src in [
            "fn main() { let x = 1; }",
            "fn main() { parallel { single { MPI_Barrier(); } } }",
            "fn main() { parallel num_threads(4) { pfor (i in 0..10) { let x = i; } } }",
            "fn main() { if (rank() == 0) { MPI_Barrier(); } }",
            "fn main() { parallel { sections { section { } section { } } } }",
            "fn f() -> int { return 3; } fn main() { let a = f(); while (a > 0) { a = a - 1; } }",
            "fn main() { parallel { master { } critical { } barrier; } }",
        ] {
            let m = lower_ok(src);
            let errs = verify_module(&m);
            assert!(errs.is_empty(), "{src}\n{errs:?}");
        }
    }

    #[test]
    fn detects_unterminated_block() {
        let mut m = lower_ok("fn main() { let x = 1; }");
        Arc::make_mut(&mut m.funcs[0]).blocks[0].term = Terminator::Unreachable;
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("no terminator")));
    }

    #[test]
    fn detects_bad_target() {
        let mut m = lower_ok("fn main() { let x = 1; }");
        Arc::make_mut(&mut m.funcs[0]).blocks[0].term = Terminator::Goto(BlockId(99));
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("out-of-range block")));
    }

    #[test]
    fn detects_unbalanced_regions() {
        let mut m = lower_ok("fn main() { parallel { let x = 1; } }");
        // Corrupt: drop the ParallelEnd directive.
        for b in &mut Arc::make_mut(&mut m.funcs[0]).blocks {
            if matches!(b.kind, BlockKind::Directive(Directive::ParallelEnd { .. })) {
                b.kind = BlockKind::Normal;
            }
        }
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("region")),
            "expected a region-nesting error, got {errs:?}"
        );
    }

    #[test]
    fn detects_out_of_range_register() {
        let mut m = lower_ok("fn main() { let x = 1; }");
        Arc::make_mut(&mut m.funcs[0]).blocks[0]
            .instrs
            .push(Instr::Copy {
                dest: crate::types::Reg(999),
                src: crate::types::Value::int(0),
            });
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("out-of-range register")));
    }
}
