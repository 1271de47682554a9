//! The per-function analysis fact store.
//!
//! Every static phase used to re-walk the IR on its own: `matching`
//! rebuilt block→event maps and recomputed dominator structures,
//! `concurrency` recomputed loops, `p2p` computed dominator trees
//! lazily, and each phase re-resolved communicator/request registers.
//! [`AnalysisCx`] computes all of those **once per function**, ahead of
//! the phases, and the phases read shared, immutable facts:
//!
//! * dominator / post-dominator trees, per-block post-dominance
//!   frontiers (the memoized `PDF+` engine's input) and natural loops;
//! * the parallelism-word result under the function's final context,
//!   whose dag holds every block's entry word;
//! * the block→event map, each [`Event`] a `Copy` value;
//! * the module-wide handle (communicator and request) register
//!   resolution.
//!
//! Facts exist only for the functions a check asked for — the ones whose
//! phase results the table could not serve. Nothing in them is numbered
//! per check: events are values, words are nodes of the function's own
//! dag, and a callee is its index in the module's functions.
//!
//! A check carries one scratch (`CheckScratch`) through all of this: every
//! function's CFG order, computed the first time the check needs it and
//! read by the word propagation on every context round and by the
//! dominator trees, and the vectors the algorithms need only while they
//! run, recycled from function to function.

use crate::context::{contexts_in, pw_under, CallContexts};
use crate::handle::{compute_handles, ModuleHandles};
use crate::matching::{block_events, Event};
use crate::pw::{InitialContext, PwResult, PwScratch};
use crate::query::QueryDb;
use parcoach_ir::dom::{DomTree, Frontiers, PostDomTree};
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::graph::{order_into, CfgScratch, Order};
use parcoach_ir::loops::LoopInfo;
use parcoach_ir::types::BlockId;
use std::sync::Arc;

/// The CFG orders of the functions one check needed, each computed
/// once, back to back in one table.
#[derive(Debug, Default)]
pub(crate) struct Orders {
    /// Per function, once computed: where its reverse post-order starts
    /// in `rpo`, how long it is, and where its positions start in `pos`.
    at: Vec<Option<(u32, u32, u32)>>,
    rpo: Vec<BlockId>,
    pos: Vec<u32>,
    /// Depth-first frames.
    frames: Vec<(BlockId, u32)>,
}

impl Orders {
    /// The order of function `fi` of `m`, computed the first time this
    /// check asks for it.
    pub(crate) fn of(&mut self, m: &Module, fi: usize) -> Order<'_> {
        if self.at.len() < m.funcs.len() {
            self.at.resize(m.funcs.len(), None);
        }
        let (r0, len, p0) = match self.at[fi] {
            Some(at) => at,
            None => {
                let (r0, p0) = (self.rpo.len(), self.pos.len());
                order_into(&m.funcs[fi], &mut self.rpo, &mut self.pos, &mut self.frames);
                let at = (r0 as u32, (self.rpo.len() - r0) as u32, p0 as u32);
                self.at[fi] = Some(at);
                at
            }
        };
        let (r0, p0) = (r0 as usize, p0 as usize);
        Order {
            rpo: &self.rpo[r0..r0 + len as usize],
            pos: &self.pos[p0..p0 + m.funcs[fi].block_count()],
        }
    }
}

/// What one check reuses from function to function and round to round
/// instead of allocating it anew.
#[derive(Debug, Default)]
pub(crate) struct CheckScratch {
    /// Every function's CFG order, computed at most once.
    pub(crate) orders: Orders,
    /// Word propagation ([`crate::pw::compute_pw`]).
    pub(crate) pw: PwScratch,
    /// Dominators, frontiers and loops ([`compute_cfg`]).
    pub(crate) cfg: CfgScratch,
}

/// Control-flow facts for one *MPI-relevant* function: functions with
/// no MPI instructions and no collective events (most kernels of a
/// large workload) never query these, so the store skips computing
/// them entirely.
#[derive(Debug)]
pub struct CfgFacts {
    /// Forward dominator tree (concurrency loops, p2p ordering).
    pub dom: DomTree,
    /// Post-dominator tree (Algorithm 1, balanced-arms joins).
    pub pdt: PostDomTree,
    /// Per-block post-dominance frontiers — computed once; `PDF+` of
    /// event sets is assembled from these by the memoizing engine.
    /// Empty (no rows) for functions issuing no collective events:
    /// nothing ever queries their frontiers.
    pub pdf: Frontiers,
    /// Natural loops (self-concurrency detection).
    pub loops: LoopInfo,
}

/// Facts for one function, computed once and shared by all phases.
/// The expensive span-free members (`cfg`, `pw`) are `Arc`-shared with
/// the [`QueryDb`] so warm re-checks reuse them in place.
#[derive(Debug)]
pub struct FuncFacts {
    /// CFG facts; `None` for functions with no MPI instructions, no
    /// collective events and no barrier divergence — no phase ever
    /// queries those.
    cfg: Option<Arc<CfgFacts>>,
    /// Parallelism words under the function's final calling context.
    pub pw: Arc<PwResult>,
    /// Collective events issued per block, in instruction order, each
    /// with the index of the instruction issuing it.
    pub block_events: Vec<Vec<(Event, usize)>>,
}

impl FuncFacts {
    /// The CFG facts. Only MPI-relevant functions and functions with a
    /// barrier divergence have them; the phases query through here
    /// exactly when they found an MPI node, an event or a divergence, so
    /// a miss is a fact-store construction bug.
    pub fn cfg(&self) -> &CfgFacts {
        self.cfg
            .as_deref()
            .expect("CFG facts queried for a function without MPI, events or divergences")
    }
}

/// The module-wide fact store threaded through the whole static phase.
#[derive(Debug)]
pub struct AnalysisCx<'m> {
    /// The module under analysis.
    pub module: &'m Module,
    /// Interprocedural call contexts, `Arc`-shared with the [`QueryDb`]'s
    /// module-wide slot.
    pub ctxs: Arc<CallContexts>,
    /// Interned communicator and request classes + per-function register
    /// resolution (`Arc`-shared like [`AnalysisCx::ctxs`]).
    pub handles: Arc<ModuleHandles>,
    /// Per-function facts, indexed like `module.funcs`; `None` for the
    /// functions this check did not ask for.
    funcs: Vec<Option<FuncFacts>>,
}

/// Dominator/post-dominator trees, frontiers and loops for one
/// function, whose CFG order is `order`. `with_pdf` additionally
/// materializes the per-block post-dominance frontiers (only
/// event-bearing functions query them).
pub(crate) fn compute_cfg(
    f: &FuncIr,
    with_pdf: bool,
    order: Order<'_>,
    scratch: &mut CfgScratch,
) -> CfgFacts {
    let preds = f.predecessors();
    let dom = DomTree::compute(f, &preds, order);
    let pdt = PostDomTree::compute(f, &preds, order, scratch);
    let loops = LoopInfo::compute(f, &dom, &preds, scratch);
    let pdf = if with_pdf {
        pdt.frontier(f, order, scratch)
    } else {
        Frontiers::default()
    };
    CfgFacts {
        dom,
        pdt,
        pdf,
        loops,
    }
}

impl<'m> AnalysisCx<'m> {
    /// Contexts and facts of *every* function of `m` over a fresh table
    /// — the convenience the phase unit tests use; the pipeline runs the
    /// same stages against the caller's table, for the functions it has
    /// to re-derive.
    pub fn build(m: &'m Module, entry: InitialContext) -> Self {
        let mut db = QueryDb::new();
        let mut scratch = CheckScratch::default();
        db.reconcile(m);
        let ctxs = contexts_in(m, entry, &mut db, &mut scratch);
        let mut cx = Self::new(m, ctxs, &mut db);
        let all: Vec<usize> = (0..m.funcs.len()).collect();
        cx.derive(&all, &mut db, &mut scratch);
        cx
    }

    /// The module-wide part of the store, with no function's facts yet:
    /// the register resolution is served from `db` where present and
    /// stored into it where not (an edit touching no communicator or
    /// request definition leaves it in its slot). `db` must have been
    /// reconciled against `m` ([`QueryDb::reconcile`]).
    pub fn new(m: &'m Module, ctxs: Arc<CallContexts>, db: &mut QueryDb) -> Self {
        AnalysisCx {
            module: m,
            ctxs,
            handles: db
                .handles
                .get_or_put(|| Arc::new(compute_handles(m)))
                .clone(),
            funcs: (0..m.funcs.len()).map(|_| None).collect(),
        }
    }

    /// Add the facts of the functions `which` (ascending indices into
    /// the module's functions), one function at a time. Parallelism
    /// words and CFG facts are served from `db` where present and stored
    /// into it where not.
    pub(crate) fn derive(&mut self, which: &[usize], db: &mut QueryDb, scratch: &mut CheckScratch) {
        let (m, ctxs, handles) = (self.module, &self.ctxs, &self.handles);
        for &i in which {
            let f = &m.funcs[i];
            let s = &ctxs.summaries[i];
            // Block→event maps, only for functions that *can* produce
            // events. The call summaries tell us for free: a function
            // with no MPI instruction and no collective-bearing callee
            // has no events and never queries CFG facts, so its blocks
            // are not walked at all (most kernels of a large workload).
            let bearing = &ctxs.collective_bearing;
            let relevant = s.has_mpi || s.call_sites.iter().any(|&(_, _, c)| bearing[c]);
            let block_events: Vec<Vec<(Event, usize)>> = if relevant {
                let fh = handles.func(i);
                f.block_ids()
                    .map(|b| block_events(f, b, ctxs, fh).collect())
                    .collect()
            } else {
                vec![Vec::new(); f.block_count()]
            };
            // The words the context stage left in the table.
            let pw = pw_under(m, i, ctxs.initial[i], db, scratch);

            // CFG facts are only queried for functions with MPI nodes
            // (mono/concurrency/p2p), collective events (matching) or a
            // barrier divergence (mono places it at its branch) —
            // everything else skips the dominator/loop computations
            // entirely. Frontiers feed `PDF+` queries, which only
            // event-bearing functions issue.
            let has_events = block_events.iter().any(|v| !v.is_empty());
            let needs_cfg = s.has_mpi || has_events || !pw.divergences.is_empty();
            let cfg = needs_cfg.then(|| db.cfg_of(m, i, has_events, scratch));
            self.funcs[i] = Some(FuncFacts {
                cfg,
                pw,
                block_events,
            });
        }
    }

    /// The facts of function `fidx`, which this store must have been
    /// built for.
    pub fn facts(&self, fidx: usize) -> &FuncFacts {
        self.funcs[fidx]
            .as_ref()
            .expect("facts queried for a function the check did not ask for")
    }

    /// Is function `fidx` reachable from the entry point?
    pub fn is_reachable(&self, fidx: usize) -> bool {
        self.ctxs.reachable[fidx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    #[test]
    fn facts_cover_every_function_and_block() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() {
                 if (rank() == 0) { exchange(); }
                 parallel num_threads(2) { single { MPI_Barrier(); } }
             }",
        );
        let cx = AnalysisCx::build(&m, InitialContext::Sequential);
        for (fi, f) in m.funcs.iter().enumerate() {
            let facts = cx.facts(fi);
            assert_eq!(facts.block_events.len(), f.block_count());
            assert_eq!(facts.pw.entry.len(), f.block_count());
            let has_events = facts.block_events.iter().any(|v| !v.is_empty());
            if has_events {
                assert_eq!(facts.cfg().pdf.len(), f.block_count());
            } else if facts.cfg.is_some() {
                assert!(
                    facts.cfg().pdf.is_empty(),
                    "event-free functions skip frontiers"
                );
            }
        }
        // The call to `exchange` is an event of `main`.
        let call = Event::Call(m.index("exchange").unwrap());
        let main_events = &cx.facts(m.index("main").unwrap()).block_events;
        assert!(main_events.iter().flatten().any(|(e, _)| *e == call));
    }

    #[test]
    fn words_dedup_across_blocks() {
        // Straight-line code: every reachable block shares the empty
        // word plus at most a couple of region words.
        let m = lower("fn main() { let a = 1; let b = a + 1; MPI_Barrier(); print(b); }");
        let cx = AnalysisCx::build(&m, InitialContext::Sequential);
        let facts = cx.facts(m.index("main").unwrap());
        let distinct = facts.pw.dag.node_count();
        let populated = facts
            .pw
            .entry
            .iter()
            .flatten()
            .filter(|s| s.node().is_some())
            .count();
        assert!(populated >= 1);
        assert!(
            distinct <= 2,
            "straight-line blocks must share word nodes, got {distinct}"
        );
    }
}
