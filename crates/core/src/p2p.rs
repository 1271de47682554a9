//! Static point-to-point matching (extension; cf. Liao et al., *Static
//! Deadlock Detection in MPI Synchronization Communication*).
//!
//! Sends and receives — blocking **and non-blocking** — are paired per
//! **(communicator class, tag)**, the static key under which the
//! simulator's matcher pairs them at run time (the SPMD abstraction
//! cannot align peer ranks statically, so `dest`/`src` do not enter the
//! key; an `MPI_ANY_TAG` receive matches every tag on its
//! communicator). Two diagnostics:
//!
//! * **unmatched-p2p** — a send whose key no receive in the module can
//!   ever match (or vice versa): a tag/communicator mismatch. An
//!   unmatched *receive* blocks forever (the substrate's deadlock
//!   census reports it); an unmatched *send* is silent in a buffered
//!   model — it is discharged dynamically by the p2p epoch census the
//!   instrumentation places before `MPI_Finalize`.
//! * **mismatched-order** — a receive whose *blocking point* dominates
//!   every send that could match it: along every path, on every rank,
//!   the rank blocks before any matching message can have been
//!   produced — the head-to-head `recv; send` deadlock. For a blocking
//!   `MPI_Recv` the blocking point is the receive itself; for an
//!   `MPI_Irecv` it is **deferred** to the `MPI_Wait`/`MPI_Waitall`
//!   that completes its request class (from [`crate::request`]), which
//!   is exactly what keeps the classic correct pattern — post the
//!   irecv, send, then wait — quiet. Receives whose matching sends sit
//!   on sibling branches, in other functions, or in concurrent OpenMP
//!   regions (a second thread can still produce the message under
//!   `MPI_THREAD_MULTIPLE`) are *not* flagged: dominance fails there,
//!   which is exactly the MPIxThreads-style correct pattern.
//!
//! Sites with an unresolvable tag or communicator conservatively match
//! everything and produce no diagnostics.

use crate::comm::CommId;
use crate::context::CallContexts;
use crate::facts::{AnalysisCx, CfgFacts};
use crate::handle::FuncHandles;
use crate::report::{StaticWarning, WarningCore, WarningKind};
use crate::request::{ReqId, ReqResolution};
use parcoach_front::ast::{Role, ANY_TAG};
use parcoach_ir::func::Module;
use parcoach_ir::instr::{Instr, MpiOp};
use parcoach_ir::types::{BlockId, Const, Value};
use parcoach_ir::Locator;
use std::sync::Arc;

/// Direction of a p2p site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Send,
    Recv,
}

/// Static tag key of a p2p site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagKey {
    /// A constant tag.
    Known(i64),
    /// The `MPI_ANY_TAG` wildcard: matches every tag.
    Any,
    /// Not resolvable statically: conservatively matches everything.
    Unresolved,
}

impl TagKey {
    fn compatible(self, other: TagKey) -> bool {
        match (self, other) {
            (TagKey::Known(a), TagKey::Known(b)) => a == b,
            _ => true,
        }
    }
}

impl std::fmt::Display for TagKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagKey::Known(t) => write!(f, "{t}"),
            TagKey::Any => write!(f, "MPI_ANY_TAG"),
            TagKey::Unresolved => write!(f, "<unresolved>"),
        }
    }
}

/// One static send/recv site.
#[derive(Debug, Clone)]
struct Site {
    func: usize,
    block: BlockId,
    instr: usize,
    dir: Dir,
    comm: CommId,
    tag: TagKey,
    /// MPI name for diagnostics.
    name: &'static str,
    /// Request class for non-blocking posts (None = blocking).
    req: Option<ReqId>,
}

impl Site {
    /// Could a message of `self` be consumed/produced by `other`
    /// (opposite directions assumed by the caller)?
    fn key_matches(&self, other: &Site) -> bool {
        self.comm.may_alias(other.comm) && self.tag.compatible(other.tag)
    }

    /// Fully resolved key (eligible for diagnostics)?
    fn resolved(&self) -> bool {
        self.tag != TagKey::Unresolved && !self.comm.is_unknown()
    }
}

/// One wait site (an `MPI_Wait` or one operand of an `MPI_Waitall`).
struct WaitSite {
    func: usize,
    block: BlockId,
    instr: usize,
    /// Resolved class of the waited request (None = may complete any).
    class: Option<ReqId>,
}

/// Result of the module-wide p2p matching pass.
#[derive(Debug, Clone, Default)]
pub struct P2pResult {
    /// Warnings found.
    pub warnings: Vec<StaticWarning>,
    /// Functions (indices into `Module::funcs`) whose `MPI_Finalize`
    /// needs the p2p epoch census.
    pub epoch_functions: Vec<usize>,
}

/// The span-free output of the p2p matching pass — what the
/// [`QueryDb`](crate::query::QueryDb) stores. Messages embed only tags
/// and communicator-class labels, which are stable while the core's
/// inputs are; positions are [`Locator`]s, so a stored core survives
/// edits that move code without changing structure.
#[derive(Debug, Clone, Default)]
pub struct P2pCore {
    warnings: Vec<WarningCore>,
    epoch_functions: Vec<usize>,
}

/// Turn a stored (or fresh) [`P2pCore`] into span-bearing warnings by
/// reading each locator's instruction span from the live IR.
pub fn materialize_p2p(core: &P2pCore, m: &Module) -> P2pResult {
    P2pResult {
        warnings: core.warnings.iter().map(|w| w.materialize(m)).collect(),
        epoch_functions: core.epoch_functions.clone(),
    }
}

/// The span-free matching pass over a whole module, reading reachability
/// and register resolutions from the fact store and each function's
/// dominator tree through `cfg_of` (asked only for functions with a
/// receive whose order is in question); warning positions are
/// [`Locator`]s ([`materialize_p2p`] resolves them).
pub fn p2p_core(cx: &AnalysisCx, cfg_of: &mut dyn FnMut(usize) -> Arc<CfgFacts>) -> P2pCore {
    let m = cx.module;
    let comms = &cx.handles.comms;
    let mut out = P2pCore::default();

    // Collect every site, module-wide, in deterministic order —
    // *reachable* functions only: an uncalled helper's traffic never
    // flows, so its sends must neither warn nor balance the keys of
    // receives that do execute.
    let mut sites: Vec<Site> = Vec::new();
    let mut waits: Vec<WaitSite> = Vec::new();
    for (fidx, f) in m.funcs.iter().enumerate() {
        if !cx.is_reachable(fidx) {
            continue;
        }
        let fh = cx.handles.func(fidx);
        for bid in f.block_ids() {
            for (iidx, (i, _)) in f.instrs(bid).iter().enumerate() {
                let Instr::Mpi { op, dest, .. } = i else {
                    continue;
                };
                let req_class = || {
                    dest.map(|d| match fh.req(Value::Reg(d)) {
                        ReqResolution::One(c) => c,
                        _ => ReqId::UNKNOWN,
                    })
                    .unwrap_or(ReqId::UNKNOWN)
                };
                let (dir, tag, comm) = match op {
                    MpiOp::Send { tag, comm, .. } | MpiOp::Isend { tag, comm, .. } => {
                        (Dir::Send, tag, comm)
                    }
                    MpiOp::Recv { tag, comm, .. } | MpiOp::Irecv { tag, comm, .. } => {
                        (Dir::Recv, tag, comm)
                    }
                    _ => {
                        // The request operands of `MPI_Wait` and `MPI_Waitall`.
                        op.operands(|role, r| {
                            if role == Role::Request {
                                waits.push(WaitSite {
                                    func: fidx,
                                    block: bid,
                                    instr: iidx,
                                    class: wait_class(fh, r),
                                });
                            }
                        });
                        continue;
                    }
                };
                let req = matches!(op, MpiOp::Isend { .. } | MpiOp::Irecv { .. }).then(req_class);
                sites.push(Site {
                    func: fidx,
                    block: bid,
                    instr: iidx,
                    dir,
                    comm: fh.comm(*comm),
                    tag: tag_key(*tag),
                    name: op.name(),
                    req,
                });
            }
        }
    }
    if sites.is_empty() {
        return out;
    }

    // --- unmatched keys --------------------------------------------------
    for s in &sites {
        if !s.resolved() {
            continue;
        }
        let has_counterpart = sites.iter().any(|o| o.dir != s.dir && s.key_matches(o));
        if !has_counterpart {
            let consequence = match s.dir {
                Dir::Send => {
                    "no receive in the program can match it; the message is \
                     never consumed"
                }
                Dir::Recv => {
                    "no send in the program can match it; the receive blocks \
                     forever"
                }
            };
            out.warnings.push(WarningCore {
                kind: WarningKind::UnmatchedP2p,
                message: format!(
                    "{} with tag {} on {} is unmatched: {consequence}",
                    s.name,
                    s.tag,
                    comms.label(s.comm),
                ),
                site: Locator::Instr(s.func, s.block, s.instr),
                related: Vec::new(),
            });
        }
    }

    // --- receive-before-send ordering ------------------------------------
    // The blocking point of an `MPI_Recv` is the receive itself; the
    // blocking point of an `MPI_Irecv` is every wait that completes its
    // request class (deferred completion). Dominator trees are the ones
    // the other phases use — computed once per function.
    for r in sites.iter().filter(|s| s.dir == Dir::Recv) {
        if !r.resolved() {
            continue;
        }
        let matching: Vec<&Site> = sites
            .iter()
            .filter(|s| s.dir == Dir::Send && r.key_matches(s))
            .collect();
        if matching.is_empty() {
            continue; // already reported as unmatched
        }
        // Cross-function producers: no ordering information.
        if matching.iter().any(|s| s.func != r.func) {
            continue;
        }
        // The program points where this receive blocks.
        let block_points: Vec<(BlockId, usize)> = match r.req {
            None => vec![(r.block, r.instr)],
            Some(class) => {
                if class.is_unknown() {
                    continue; // cannot attribute a wait to this post
                }
                let for_class: Vec<&WaitSite> = waits
                    .iter()
                    .filter(|w| w.func == r.func && w.class.is_none_or(|c| c == class))
                    .collect();
                if for_class.is_empty() {
                    continue; // leaked request: the request pass reports it
                }
                for_class.iter().map(|w| (w.block, w.instr)).collect()
            }
        };
        let cfg = cfg_of(r.func);
        let dom = &cfg.dom;
        // Every blocking point must precede every matching send: if one
        // wait site can run after a send, the message can exist.
        let all_dominated = block_points.iter().all(|&(wb, wi)| {
            matching.iter().all(|s| {
                if s.block == wb {
                    wi < s.instr
                } else {
                    dom.dominates(wb, s.block)
                }
            })
        });
        if all_dominated {
            let mut related: Vec<(Option<Locator>, String)> = Vec::new();
            if r.req.is_some() {
                for &(wb, wi) in &block_points {
                    if (wb, wi) != (r.block, r.instr) {
                        related.push((
                            Some(Locator::Instr(r.func, wb, wi)),
                            "the receive blocks at this wait".into(),
                        ));
                    }
                }
            }
            related.extend(matching.iter().map(|s| {
                (
                    Some(Locator::Instr(s.func, s.block, s.instr)),
                    "matching send only happens after the receive".into(),
                )
            }));
            let blocking_point = if r.req.is_some() {
                "its completing wait"
            } else {
                "the receive"
            };
            out.warnings.push(WarningCore {
                kind: WarningKind::P2pOrder,
                message: format!(
                    "{} with tag {} on {} precedes every matching send on \
                     every path: all ranks block in {blocking_point} before \
                     any rank can have sent",
                    r.name,
                    r.tag,
                    comms.label(r.comm),
                ),
                site: Locator::Instr(r.func, r.block, r.instr),
                related,
            });
        }
    }

    // The census must sit where `MPI_Finalize` is, not where the
    // suspect send/recv is — the suspect p2p may live in a helper while
    // finalize is in `main`. The counters are world-global, so any
    // pre-finalize census observes all traffic; place one in every
    // function containing a finalize whenever the module has suspect
    // p2p traffic.
    if !out.warnings.is_empty() {
        out.epoch_functions = finalize_functions(&cx.ctxs);
    }
    out
}

/// The functions containing an `MPI_Finalize` — where the p2p epoch
/// census belongs (world-global counters observe all traffic).
pub fn finalize_functions(ctxs: &CallContexts) -> Vec<usize> {
    let summaries = ctxs.summaries.iter().enumerate();
    summaries
        .filter_map(|(fi, s)| s.has_finalize.then_some(fi))
        .collect()
}

/// Static key of a tag operand: constant, wildcard, or unresolved.
fn tag_key(v: Value) -> TagKey {
    match v {
        Value::Const(Const::Int(ANY_TAG)) => TagKey::Any,
        Value::Const(Const::Int(x)) => TagKey::Known(x),
        _ => TagKey::Unresolved,
    }
}

/// The request class a wait operand resolves to (None = any class).
fn wait_class(fh: &FuncHandles, v: Value) -> Option<ReqId> {
    match fh.req(v) {
        ReqResolution::One(c) => Some(c),
        // Unknown or never-posted: may complete any request (the
        // request pass reports never-posted operands).
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::InitialContext;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn run(src: &str) -> P2pResult {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let cx = AnalysisCx::build(&m, InitialContext::Sequential);
        let core = p2p_core(&cx, &mut |fi| {
            let f = &m.funcs[fi];
            let order = parcoach_ir::graph::CfgOrder::of(f);
            let cfg = crate::facts::compute_cfg(f, false, order.view(), &mut Default::default());
            Arc::new(cfg)
        });
        materialize_p2p(&core, &m)
    }

    #[test]
    fn matched_pingpong_is_quiet() {
        let r = run("fn main() {
                let peer = size() - 1 - rank();
                if (rank() == 0) {
                    MPI_Send(1.0, peer, 4);
                    let v = MPI_Recv(peer, 4);
                } else {
                    let v = MPI_Recv(peer, 4);
                    MPI_Send(2.0, peer, 4);
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert!(r.epoch_functions.is_empty());
    }

    #[test]
    fn recv_before_send_flagged() {
        let r = run("fn main() {
                MPI_Init();
                let peer = size() - 1 - rank();
                let v = MPI_Recv(peer, 7);
                MPI_Send(1, peer, 7);
                MPI_Finalize();
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::P2pOrder);
        assert_eq!(r.epoch_functions, [0], "`main`");
    }

    #[test]
    fn epoch_census_placed_at_finalize_not_at_suspect_site() {
        // The suspect send lives in a helper; the census must land in
        // the function that owns MPI_Finalize.
        let r = run("fn leak() { MPI_Send(1, 0, 5); }
             fn main() {
                MPI_Init();
                leak();
                MPI_Finalize();
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::UnmatchedP2p);
        assert_eq!(
            r.epoch_functions,
            [1],
            "census goes where finalize is: `main`"
        );
    }

    #[test]
    fn unmatched_tags_flagged_both_ways() {
        let r = run("fn main() {
                let peer = size() - 1 - rank();
                MPI_Send(1, peer, 1);
                let v = MPI_Recv(peer, 2);
            }");
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r
            .warnings
            .iter()
            .all(|w| w.kind == WarningKind::UnmatchedP2p));
    }

    #[test]
    fn unknown_tag_suppresses() {
        let r = run("fn main() {
                let t = rank() + 1;
                MPI_Send(1, 0, t);
                let v = MPI_Recv(0, 99);
            }");
        // The unknown-tag send may match tag 99; the recv has a
        // potential producer, and the send key is unresolved.
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn split_comm_does_not_match_world() {
        let r = run("fn main() {
                let c = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
                MPI_Send(1, 0, 5, c);
                let v = MPI_Recv(0, 5);
            }");
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r
            .warnings
            .iter()
            .all(|w| w.kind == WarningKind::UnmatchedP2p));
    }

    #[test]
    fn same_comm_class_matches_across_split() {
        let r = run("fn main() {
                let c = MPI_Comm_split(MPI_COMM_WORLD, rank() % 2, rank());
                if (rank() == 0) {
                    MPI_Send(1, 0, 5, c);
                } else {
                    let v = MPI_Recv(0, 5, c);
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn sends_in_sibling_sections_not_ordered() {
        // The MPIxThreads-correct pattern: another thread produces the
        // message; the receive does not dominate the send.
        let r = run("fn main() {
                let peer = size() - 1 - rank();
                parallel num_threads(2) {
                    sections {
                        section { MPI_Send(3.5, peer, 10); }
                        section { let v = MPI_Recv(peer, 10); }
                    }
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn irecv_then_send_then_wait_is_quiet() {
        // Deferred completion: the wait comes after the send, so the
        // message can exist when the rank blocks — the correct
        // non-blocking pattern.
        let r = run("fn main() {
                let peer = size() - 1 - rank();
                let rr = MPI_Irecv(peer, 4);
                MPI_Send(1.0, peer, 4);
                let v = MPI_Wait(rr);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn wait_before_send_flagged() {
        // The wait dominates the only matching send: every rank blocks
        // before any rank can have produced the message.
        let r = run("fn main() {
                MPI_Init();
                let peer = size() - 1 - rank();
                let rr = MPI_Irecv(peer, 7);
                let v = MPI_Wait(rr);
                MPI_Send(1.0, peer, 7);
                MPI_Finalize();
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::P2pOrder);
        assert!(r.warnings[0].message.contains("MPI_Irecv"));
        assert_eq!(r.epoch_functions, [0], "`main`");
    }

    #[test]
    fn waitall_before_sends_flagged_per_comm() {
        let r = run("fn main() {
                MPI_Init();
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                let peer = size() - 1 - rank();
                let r1 = MPI_Irecv(peer, 1);
                let r2 = MPI_Irecv(peer, 2, c);
                MPI_Waitall(r1, r2);
                MPI_Send(1.0, peer, 1);
                MPI_Send(2.0, peer, 2, c);
                MPI_Finalize();
            }");
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r.warnings.iter().all(|w| w.kind == WarningKind::P2pOrder));
    }

    #[test]
    fn wildcard_recv_matches_any_tag() {
        let r = run("fn main() {
                let peer = size() - 1 - rank();
                let rr = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                MPI_Send(1.0, peer, 9);
                let v = MPI_Wait(rr);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn isend_without_recv_unmatched() {
        let r = run("fn main() {
                MPI_Init();
                let s = MPI_Isend(1, 0, 5);
                MPI_Waitall(s);
                MPI_Finalize();
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::UnmatchedP2p);
        assert!(r.warnings[0].message.contains("MPI_Isend"));
    }

    #[test]
    fn cross_function_producers_not_ordered() {
        let r = run("fn produce() { MPI_Send(1, 0, 3); }
             fn main() {
                let v = MPI_Recv(0, 3);
                produce();
            }");
        assert!(
            r.warnings.is_empty(),
            "cross-function ordering is unknown: {:?}",
            r.warnings
        );
    }
}
