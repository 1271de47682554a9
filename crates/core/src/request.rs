//! Static non-blocking-request classes and the request life-cycle pass.
//!
//! Every `MPI_Isend` / `MPI_Irecv` call site forms one static **request
//! class**; in SPMD programs all ranks post their requests at the same
//! sites, so a `Wait` operand resolves ([`crate::handle`]) to the class of
//! the post that produced it. Handles merged across control flow degrade
//! to [`ReqId::UNKNOWN`], which conservatively aliases everything.
//!
//! On top of the resolution the pass checks the request life-cycle:
//!
//! * **unwaited-request** — a post whose class no `MPI_Wait` /
//!   `MPI_Waitall` in the function can ever complete: the request
//!   leaks. A leaked isend leaves its message permanently buffered and
//!   a leaked irecv leaves its matching message unconsumed — both
//!   surface dynamically as a p2p epoch imbalance at the pre-finalize
//!   census, which is why the pipeline places the census whenever this
//!   warning fires.
//! * **wait-without-post** — a wait whose operand register is never
//!   assigned a request on any path (an IR-level invariant violation;
//!   unreachable from type-checked source, but kept so hand-built or
//!   transformed IR fails loudly instead of waiting on a null handle at
//!   run time).

use crate::handle::FuncHandles;
use crate::report::{StaticWarning, WarningKind};
use parcoach_front::ast::Role;
use parcoach_front::span::Span;
use parcoach_ir::func::FuncIr;
use parcoach_ir::instr::{Instr, MpiOp};
use parcoach_ir::types::Value;
use parcoach_ir::Locator;

/// An interned static request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u32);

impl ReqId {
    /// A handle the analysis could not resolve to one post site
    /// (merged control flow).
    pub const UNKNOWN: ReqId = ReqId(0);

    /// True for the unresolved class.
    pub fn is_unknown(self) -> bool {
        self == ReqId::UNKNOWN
    }
}

/// How a static request class was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqDef {
    /// Unresolvable handle.
    Unknown,
    /// One `MPI_Isend` call site.
    Isend(Locator),
    /// One `MPI_Irecv` call site.
    Irecv(Locator),
}

/// Per-register resolution of one request-typed register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqResolution {
    /// Never assigned a request on any path (wait-without-post).
    NeverPosted,
    /// Exactly this class along every def.
    One(ReqId),
    /// Multiple classes merge here.
    Unknown,
}

/// Result of the request life-cycle pass.
#[derive(Debug, Clone, Default)]
pub struct RequestResult {
    /// Warnings found.
    pub warnings: Vec<StaticWarning>,
}

/// Check every function's request life-cycle: each post class must be
/// completable by some wait, and every wait must have a post. Register
/// resolutions come from the fact store.
pub fn check_requests(cx: &crate::facts::AnalysisCx) -> RequestResult {
    let m = cx.module;
    let mut out = RequestResult::default();
    for (fidx, f) in m.funcs.iter().enumerate() {
        // Only a function with a request-typed register can post or
        // wait. Requests in entry-unreachable functions are never
        // posted; diagnosing their life-cycle would be a guaranteed
        // false positive (same policy as the other phases).
        if !cx.ctxs.summaries[fidx].has_requests || !cx.is_reachable(fidx) {
            continue;
        }
        let fr = cx.handles.func(fidx);
        // Collect post sites and the classes the function's waits cover.
        let mut posts: Vec<(ReqId, &'static str, Span)> = Vec::new();
        let mut waited: Vec<ReqId> = Vec::new();
        let mut any_unknown_wait = false;
        for (i, span) in &f.instrs {
            let Instr::Mpi { op, .. } = i else {
                continue;
            };
            if let MpiOp::Isend { .. } | MpiOp::Irecv { .. } = op {
                posts.push((post_class(fr, i), op.name(), *span));
            }
            // The request operands of `MPI_Wait` and `MPI_Waitall`.
            op.operands(|role, r| {
                if role == Role::Request {
                    record_wait(
                        fr,
                        r,
                        *span,
                        f,
                        &mut waited,
                        &mut any_unknown_wait,
                        &mut out,
                    );
                }
            });
        }
        if any_unknown_wait {
            // Some wait operand may complete any class: no leak can be
            // proven in this function.
            continue;
        }
        for (class, name, span) in posts {
            if class.is_unknown() || waited.contains(&class) {
                continue;
            }
            out.warnings.push(StaticWarning {
                kind: WarningKind::UnwaitedRequest,
                func: f.name.clone(),
                message: format!(
                    "the request posted by this {name} is never completed by \
                     MPI_Wait or MPI_Waitall: the request leaks and its message \
                     is never {}",
                    if name == "MPI_Isend" {
                        "consumed by the receiver"
                    } else {
                        "received"
                    }
                ),
                span,
                related: Vec::new(),
            });
        }
    }
    out
}

/// The class the destination register of a post resolves to.
fn post_class(fr: &FuncHandles, post: &Instr) -> ReqId {
    match post.dest() {
        Some(d) => match fr.req(Value::Reg(d)) {
            ReqResolution::One(c) => c,
            _ => ReqId::UNKNOWN,
        },
        None => ReqId::UNKNOWN,
    }
}

/// Record one wait operand: its class joins the waited set; a
/// never-posted operand is reported.
fn record_wait(
    fr: &FuncHandles,
    operand: Value,
    span: Span,
    f: &FuncIr,
    waited: &mut Vec<ReqId>,
    any_unknown: &mut bool,
    out: &mut RequestResult,
) {
    match fr.req(operand) {
        ReqResolution::One(c) => waited.push(c),
        ReqResolution::Unknown => *any_unknown = true,
        ReqResolution::NeverPosted => out.warnings.push(StaticWarning {
            kind: WarningKind::WaitWithoutPost,
            func: f.name.clone(),
            message: "this wait's request operand is never produced by an \
                      MPI_Isend/MPI_Irecv on any path"
                .into(),
            span,
            related: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{compute_handles, ModuleHandles};
    use parcoach_front::ast::Type;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn run(src: &str) -> (ModuleHandles, RequestResult) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let cx = crate::facts::AnalysisCx::build(&m, crate::pw::InitialContext::Sequential);
        let result = check_requests(&cx);
        (compute_handles(&m), result)
    }

    #[test]
    fn waited_requests_are_quiet() {
        let (reqs, r) = run("fn main() {
                let a = MPI_Irecv(0, 1);
                let b = MPI_Isend(1, 0, 1);
                let v = MPI_Wait(a);
                MPI_Waitall(b);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(reqs.reqs.len(), 3, "two post sites + unknown");
    }

    #[test]
    fn leaked_isend_flagged() {
        let (_reqs, r) = run("fn main() {
                let s = MPI_Isend(1, 0, 1);
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::UnwaitedRequest);
        assert!(r.warnings[0].message.contains("MPI_Isend"));
    }

    #[test]
    fn leaked_irecv_flagged() {
        let (_reqs, r) = run("fn main() {
                let a = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                let b = MPI_Irecv(0, 1);
                let v = MPI_Wait(b);
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::UnwaitedRequest);
        assert!(r.warnings[0].message.contains("MPI_Irecv"));
    }

    #[test]
    fn copies_keep_the_class() {
        let (_reqs, r) = run("fn main() {
                let a = MPI_Irecv(0, 1);
                let b = a;
                let v = MPI_Wait(b);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn merged_wait_operand_is_conservative() {
        // A wait on a control-flow-merged handle may complete either
        // post: no leak is provable, no warning fires.
        let (_reqs, r) = run("fn main() {
                let a = MPI_Irecv(0, 1);
                if (rank() == 0) { a = MPI_Irecv(0, 2); }
                let v = MPI_Wait(a);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn wait_without_post_flagged_on_raw_ir() {
        use parcoach_ir::func::{BasicBlock, FuncIr, Module};
        use parcoach_ir::instr::Terminator;
        use parcoach_ir::types::{BlockId, Reg};
        // Hand-built IR: a request register that is never defined,
        // waited on — unreachable from type-checked source.
        let mut b = BasicBlock::new();
        b.instrs = 0..1;
        b.term = Terminator::Return { value: None };
        let f = FuncIr {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            reg_types: vec![Type::Request],
            blocks: vec![b],
            instrs: vec![(
                Instr::Mpi {
                    dest: None,
                    op: MpiOp::Wait {
                        request: Value::Reg(Reg(0)),
                    },
                },
                Span::DUMMY,
            )],
            entry: BlockId(0),
            region_count: 0,
            span: Span::DUMMY,
        };
        let m = Module::new(vec![f]);
        let cx = crate::facts::AnalysisCx::build(&m, crate::pw::InitialContext::Sequential);
        let r = check_requests(&cx);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::WaitWithoutPost);
    }
}
