//! Static non-blocking-request abstraction: a small interned request
//! table plus a per-register resolution pass — the request-side sibling
//! of [`crate::comm`].
//!
//! Every `MPI_Isend` / `MPI_Irecv` call site forms one static **request
//! class**; in SPMD programs all ranks post their requests at the same
//! sites, so a `Wait` operand resolves to the class of the post that
//! produced it. Handles merged across control flow degrade to
//! [`ReqId::UNKNOWN`], which conservatively aliases everything. Request
//! handles cannot cross function boundaries in MiniHPC (no `request`
//! parameters or returns), so resolution is purely per-function.
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

use crate::query::Locator;
use crate::report::{StaticWarning, WarningKind};
use parcoach_front::ast::Type;
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{Instr, MpiIr};
use parcoach_ir::types::Value;
use std::collections::HashMap;

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

/// The module-wide interned request table.
#[derive(Debug, Clone, Default)]
pub struct ReqTable {
    defs: Vec<ReqDef>,
    by_def: HashMap<ReqDef, ReqId>,
}

impl ReqTable {
    fn new() -> ReqTable {
        let mut t = ReqTable::default();
        let u = t.intern(ReqDef::Unknown);
        debug_assert_eq!(u, ReqId::UNKNOWN);
        t
    }

    /// Intern a definition, returning its stable id.
    pub fn intern(&mut self, def: ReqDef) -> ReqId {
        if let Some(&id) = self.by_def.get(&def) {
            return id;
        }
        let id = ReqId(self.defs.len() as u32);
        self.defs.push(def);
        self.by_def.insert(def, id);
        id
    }

    /// The definition of an interned id.
    pub fn def(&self, id: ReqId) -> ReqDef {
        self.defs[id.0 as usize]
    }

    /// Number of interned classes (including the unknown class).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when only the built-in unknown class exists.
    pub fn is_empty(&self) -> bool {
        self.defs.len() <= 1
    }
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

/// Per-register lattice value during the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegReq {
    Bottom,
    One(ReqId),
    Many,
}

impl RegReq {
    fn join(self, other: ReqId) -> RegReq {
        match self {
            RegReq::Bottom => RegReq::One(other),
            RegReq::One(c) if c == other => self,
            _ => RegReq::Many,
        }
    }
}

/// Resolved request classes for one function's registers.
#[derive(Debug, Clone, Default)]
pub struct FuncRequests {
    /// Resolution per register index; None for non-request registers.
    per_reg: Vec<Option<ReqResolution>>,
}

impl FuncRequests {
    /// The resolution of a request-typed operand.
    pub fn of_operand(&self, v: Value) -> ReqResolution {
        match v {
            Value::Reg(r) => self
                .per_reg
                .get(r.index())
                .copied()
                .flatten()
                .unwrap_or(ReqResolution::Unknown),
            // Request operands are never constants (sema enforces the
            // type); a constant here is hand-built IR.
            Value::Const(_) => ReqResolution::Unknown,
        }
    }
}

/// Module-wide result: the interned table + per-function resolution.
#[derive(Debug, Clone, Default)]
pub struct ModuleRequests {
    /// The interned table.
    pub table: ReqTable,
    /// Per function name: register resolution — only for functions
    /// with a `request`-typed register; [`ModuleRequests::func`] serves
    /// every other one the empty resolution, which reads the same.
    pub per_func: HashMap<String, FuncRequests>,
}

/// Shared empty resolution for functions absent from the map.
static EMPTY_FUNC_REQUESTS: FuncRequests = FuncRequests {
    per_reg: Vec::new(),
};

impl ModuleRequests {
    /// Borrowed resolution for one function (a shared empty resolution
    /// when absent) — the analysis phases read this through
    /// [`crate::facts::AnalysisCx`].
    pub fn func(&self, name: &str) -> &FuncRequests {
        self.per_func.get(name).unwrap_or(&EMPTY_FUNC_REQUESTS)
    }
}

/// Compute the request table and per-function register resolution for a
/// whole module. Deterministic: functions are visited in module order
/// and instructions in block order, so interned ids are stable.
pub fn compute_requests(m: &Module) -> ModuleRequests {
    let mut table = ReqTable::new();
    let mut per_func = HashMap::new();
    // A function with no request-typed register can neither post a
    // request (Isend/Irecv define request-typed destinations) nor wait on
    // one: it gets no entry.
    for (fidx, f) in m.funcs.iter().enumerate() {
        if f.reg_types.contains(&Type::Request) {
            per_func.insert(f.name.clone(), resolve_func(fidx, f, &mut table));
        }
    }
    ModuleRequests { table, per_func }
}

/// Flow-insensitive per-register fixpoint over one function, mirroring
/// [`crate::comm`]'s communicator resolution.
fn resolve_func(fidx: usize, f: &FuncIr, table: &mut ReqTable) -> FuncRequests {
    let n = f.reg_types.len();
    let mut state: Vec<RegReq> = (0..n)
        .map(|i| {
            if f.reg_types[i] == Type::Request {
                RegReq::Bottom
            } else {
                RegReq::Many // non-request registers are never queried
            }
        })
        .collect();
    // Request-typed parameters cannot exist in type-checked source, but
    // hand-built IR gets the conservative treatment.
    for &p in &f.params {
        if f.reg_types[p.index()] == Type::Request {
            state[p.index()] = RegReq::Many;
        }
    }
    loop {
        let mut changed = false;
        let set = |state: &mut Vec<RegReq>, r: parcoach_ir::types::Reg, c: ReqId| {
            let next = state[r.index()].join(c);
            if next != state[r.index()] {
                state[r.index()] = next;
                true
            } else {
                false
            }
        };
        for bid in f.block_ids() {
            for (iidx, i) in f.instrs(bid).iter().enumerate() {
                match i {
                    Instr::Mpi {
                        dest: Some(d), op, ..
                    } => {
                        let def = match op {
                            MpiIr::Isend { .. } => {
                                Some(ReqDef::Isend(Locator::Instr(fidx, bid, iidx)))
                            }
                            MpiIr::Irecv { .. } => {
                                Some(ReqDef::Irecv(Locator::Instr(fidx, bid, iidx)))
                            }
                            _ => None,
                        };
                        if let Some(def) = def {
                            let id = table.intern(def);
                            changed |= set(&mut state, *d, id);
                        }
                    }
                    Instr::Copy {
                        dest,
                        src: Value::Reg(s),
                    } if f.reg_types[dest.index()] == Type::Request => match state[s.index()] {
                        RegReq::Bottom => {}
                        RegReq::One(c) => changed |= set(&mut state, *dest, c),
                        RegReq::Many => {
                            if state[dest.index()] != RegReq::Many {
                                state[dest.index()] = RegReq::Many;
                                changed = true;
                            }
                        }
                    },
                    // Any other definition of a request-typed register
                    // is unresolvable.
                    _ => {
                        if let Some(d) = i.dest() {
                            if f.reg_types[d.index()] == Type::Request
                                && !matches!(
                                    i,
                                    Instr::Mpi { .. }
                                        | Instr::Copy {
                                            src: Value::Reg(_),
                                            ..
                                        }
                                )
                                && state[d.index()] != RegReq::Many
                            {
                                state[d.index()] = RegReq::Many;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    FuncRequests {
        per_reg: (0..n)
            .map(|i| {
                if f.reg_types[i] != Type::Request {
                    None
                } else {
                    Some(match state[i] {
                        RegReq::Bottom => ReqResolution::NeverPosted,
                        RegReq::One(c) => ReqResolution::One(c),
                        RegReq::Many => ReqResolution::Unknown,
                    })
                }
            })
            .collect(),
    }
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
        let fr = cx.reqs_of(fidx);
        // Collect post sites and the classes the function's waits cover.
        let mut posts: Vec<(ReqId, &'static str, Span)> = Vec::new();
        let mut waited: Vec<ReqId> = Vec::new();
        let mut any_unknown_wait = false;
        for i in &f.instrs {
            let Instr::Mpi { op, span, .. } = i else {
                continue;
            };
            match op {
                MpiIr::Isend { .. } => {
                    posts.push((post_class(fr, i), "MPI_Isend", *span));
                }
                MpiIr::Irecv { .. } => {
                    posts.push((post_class(fr, i), "MPI_Irecv", *span));
                }
                MpiIr::Wait { request } => {
                    record_wait(
                        fr,
                        *request,
                        *span,
                        f,
                        &mut waited,
                        &mut any_unknown_wait,
                        &mut out,
                    );
                }
                MpiIr::Waitall { requests } => {
                    for r in requests {
                        record_wait(
                            fr,
                            *r,
                            *span,
                            f,
                            &mut waited,
                            &mut any_unknown_wait,
                            &mut out,
                        );
                    }
                }
                _ => {}
            }
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
fn post_class(fr: &FuncRequests, post: &Instr) -> ReqId {
    match post.dest() {
        Some(d) => match fr.of_operand(Value::Reg(d)) {
            ReqResolution::One(c) => c,
            _ => ReqId::UNKNOWN,
        },
        None => ReqId::UNKNOWN,
    }
}

/// Record one wait operand: its class joins the waited set; a
/// never-posted operand is reported.
fn record_wait(
    fr: &FuncRequests,
    operand: Value,
    span: Span,
    f: &FuncIr,
    waited: &mut Vec<ReqId>,
    any_unknown: &mut bool,
    out: &mut RequestResult,
) {
    match fr.of_operand(operand) {
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
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn run(src: &str) -> (ModuleRequests, RequestResult) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let cx = crate::facts::AnalysisCx::build(
            &m,
            crate::pw::InitialContext::Sequential,
            parcoach_pool::global(),
        );
        let result = check_requests(&cx);
        (compute_requests(&m), result)
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
        assert_eq!(reqs.table.len(), 3, "two post sites + unknown");
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
        b.term = Terminator::Return {
            value: None,
            span: Span::DUMMY,
        };
        let f = FuncIr {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            reg_types: vec![Type::Request],
            blocks: vec![b],
            instrs: vec![Instr::Mpi {
                dest: None,
                op: MpiIr::Wait {
                    request: Value::Reg(Reg(0)),
                },
                span: Span::DUMMY,
            }],
            entry: BlockId(0),
            region_count: 0,
            span: Span::DUMMY,
        };
        let m = Module::new(vec![f]);
        let cx = crate::facts::AnalysisCx::build(
            &m,
            crate::pw::InitialContext::Sequential,
            parcoach_pool::global(),
        );
        let r = check_requests(&cx);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::WaitWithoutPost);
    }
}
