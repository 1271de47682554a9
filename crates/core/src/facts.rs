//! The per-function analysis fact store.
//!
//! Every static phase used to re-walk the IR on its own: `matching`
//! rebuilt block→event maps and recomputed dominator structures,
//! `concurrency` recomputed loops, `p2p` computed dominator trees
//! lazily, and each phase re-resolved communicator/request registers.
//! [`AnalysisCx`] computes all of those **once per function** — fanned
//! out over the pool ahead of the phases — and the phases read shared,
//! immutable facts:
//!
//! * dominator / post-dominator trees, per-block post-dominance
//!   frontiers (the memoized `PDF+` engine's input) and natural loops;
//! * the parallelism-word result under the function's final context,
//!   plus interned per-block entry words;
//! * the block→event map with interned [`EventId`]s;
//! * the module-wide communicator and request register resolutions.
//!
//! Facts exist only for the functions a check asked for — the ones whose
//! phase results the table could not serve. The arenas
//! ([`crate::intern`]) are per check and hold what those functions
//! needed, so an [`EventId`] or [`WordId`] means nothing outside the
//! check that minted it: the phases turn ids back into events and words
//! before anything is stored or ordered.
//!
//! Construction is deterministic at every pool width: the parallel part
//! is pure per function and results are merged in module order; the
//! arenas are filled by the sequential merge, so interned ids never
//! depend on scheduling.

use crate::comm::{compute_comms, FuncComms, ModuleComms};
use crate::context::{compute_contexts, pw_under, CallContexts};
use crate::intern::{EventArena, EventId, WordArena, WordId, WordNode};
use crate::matching::{block_events, Event};
use crate::pw::{InitialContext, PwResult, PwState};
use crate::query::QueryDb;
use crate::request::{compute_requests, FuncRequests, ModuleRequests};
use parcoach_ir::dom::{DomTree, PostDomTree};
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::loops::LoopInfo;
use parcoach_ir::types::BlockId;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Empty (not per-block) for functions issuing no collective
    /// events: nothing ever queries their frontiers.
    pub pdf: Vec<Vec<BlockId>>,
    /// Natural loops (self-concurrency detection).
    pub loops: LoopInfo,
}

/// Facts for one function, computed once and shared by all phases.
/// The expensive span-free members (`cfg`, `pw`) are `Arc`-shared with
/// the [`QueryDb`] so warm re-checks reuse them in place.
#[derive(Debug)]
pub struct FuncFacts {
    /// CFG facts; `None` for functions with no MPI instructions and no
    /// collective events — no phase ever queries those.
    cfg: Option<Arc<CfgFacts>>,
    /// Parallelism words under the function's final calling context.
    pub pw: Arc<PwResult>,
    /// Interned entry word per block (`None` = unreachable or conflict;
    /// [`PwResult`] distinguishes the two when it matters). All-`None`
    /// for MPI-irrelevant functions: only the concurrency phase reads
    /// these, indexed by MPI block, so nothing else is interned.
    pub words: Vec<Option<WordId>>,
    /// Collective events issued per block, in instruction order, each
    /// with the index of the instruction issuing it.
    pub block_events: Vec<Vec<(EventId, usize)>>,
}

impl FuncFacts {
    /// The CFG facts. Only MPI-relevant functions have them; the phases
    /// query through here exactly when they found an MPI node or event,
    /// so a miss is a fact-store construction bug.
    pub fn cfg(&self) -> &CfgFacts {
        self.cfg
            .as_deref()
            .expect("CFG facts queried for a function without MPI instructions or events")
    }

    /// Whether CFG facts were computed (i.e. the function is
    /// MPI-relevant).
    pub fn has_cfg(&self) -> bool {
        self.cfg.is_some()
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
    /// Interned communicator classes + per-function register resolution
    /// (`Arc`-shared like [`AnalysisCx::ctxs`]).
    pub comms: Arc<ModuleComms>,
    /// Interned request classes + per-function register resolution
    /// (`Arc`-shared like [`AnalysisCx::ctxs`]).
    pub reqs: Arc<ModuleRequests>,
    /// Interned collective events.
    pub events: EventArena,
    /// Interned parallelism words.
    pub words: WordArena,
    /// Per-function facts, indexed like `module.funcs`; `None` for the
    /// functions this check did not ask for.
    funcs: Vec<Option<FuncFacts>>,
}

/// The pool-computed part of one function's facts (no interning, so the
/// workers stay pure and order-independent).
struct RawFacts {
    /// Does any phase query CFG facts for this function?
    needs_cfg: bool,
    /// Does the function issue collective events (⇒ frontiers needed)?
    has_events: bool,
    raw_events: Vec<Vec<(Event, usize)>>,
}

/// Dominator/post-dominator trees, frontiers and loops for one
/// function. `with_pdf` additionally materializes the per-block
/// post-dominance frontiers (only event-bearing functions query them).
pub(crate) fn compute_cfg(f: &FuncIr, with_pdf: bool) -> CfgFacts {
    let preds = f.predecessors();
    let dom = DomTree::compute(f, &preds);
    let pdt = PostDomTree::compute(f, &preds);
    let loops = LoopInfo::compute(f, &dom, &preds);
    let pdf = if with_pdf {
        pdt.frontier(f)
    } else {
        Vec::new()
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
    pub fn build(m: &'m Module, entry: InitialContext, pool: &parcoach_pool::Pool) -> Self {
        let mut db = QueryDb::new();
        db.reconcile(m);
        let ctxs = compute_contexts(m, entry, pool, &mut db);
        let mut cx = Self::new(m, ctxs, &mut db);
        let all: Vec<usize> = (0..m.funcs.len()).collect();
        cx.derive(&all, pool, &mut db);
        cx
    }

    /// The module-wide part of the store, with no function's facts yet:
    /// the register resolutions are served from `db` where present and
    /// stored into it where not (an edit touching no communicator or
    /// request instruction leaves the whole table in its slot). `db`
    /// must have been reconciled against `m` ([`QueryDb::reconcile`]).
    pub fn new(m: &'m Module, ctxs: Arc<CallContexts>, db: &mut QueryDb) -> Self {
        AnalysisCx {
            module: m,
            ctxs,
            comms: db.comms.get_or_put(|| Arc::new(compute_comms(m))).clone(),
            reqs: db.reqs.get_or_put(|| Arc::new(compute_requests(m))).clone(),
            events: EventArena::default(),
            words: WordArena::default(),
            funcs: (0..m.funcs.len()).map(|_| None).collect(),
        }
    }

    /// Add the facts of the functions `which` (ascending indices into
    /// the module's functions). Parallelism words and CFG facts are
    /// served from `db` where present and stored into it where not.
    pub fn derive(&mut self, which: &[usize], pool: &parcoach_pool::Pool, db: &mut QueryDb) {
        let (m, ctxs, comms) = (self.module, &self.ctxs, &self.comms);

        // Parallel stage 1: block→event maps — only for functions that
        // *can* produce events. The call summaries tell us for free: a
        // function with no MPI instruction and no collective-bearing
        // callee has no events and never queries CFG facts, so its
        // blocks are not walked at all (most kernels of a large
        // workload).
        let raws: Vec<RawFacts> = pool.par_map(which, |&i| {
            let f = &m.funcs[i];
            let s = &ctxs.summaries[i];
            let relevant = s.has_mpi || s.call_sites.iter().any(|(_, _, c)| ctxs.callee_bears(*c));
            if !relevant {
                return RawFacts {
                    needs_cfg: false,
                    has_events: false,
                    raw_events: vec![Vec::new(); f.block_count()],
                };
            }
            let fc = comms.func(&f.name);
            let raw_events: Vec<Vec<(Event, usize)>> = f
                .block_ids()
                .map(|b| block_events(m, f, b, ctxs, fc))
                .collect();
            let has_events = raw_events.iter().any(|v| !v.is_empty());
            // CFG facts are only queried for functions with MPI nodes
            // (mono/concurrency/p2p) or collective events (matching) —
            // everything else skips the dominator/loop computations
            // entirely.
            RawFacts {
                needs_cfg: s.has_mpi || has_events,
                has_events,
                raw_events,
            }
        });

        // Stage 2: CFG facts — served from the table where stored,
        // computed on the pool otherwise. Frontiers feed `PDF+` queries,
        // which only event-bearing functions issue.
        let mut cfgs: Vec<Option<Arc<CfgFacts>>> = vec![None; which.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (k, (raw, &i)) in raws.iter().zip(which).enumerate() {
            if raw.needs_cfg {
                cfgs[k] = db.cfg_stored(i, raw.has_events);
                if cfgs[k].is_none() {
                    misses.push(k);
                }
            }
        }
        let computed = pool.par_map(&misses, |&k| {
            Arc::new(compute_cfg(&m.funcs[which[k]], raws[k].has_events))
        });
        for (k, cfg) in misses.into_iter().zip(computed) {
            db.func(which[k]).cfg.put((raws[k].has_events, cfg.clone()));
            cfgs[k] = Some(cfg);
        }

        // Sequential merge in module order: fetch the words the context
        // stage left in the table and fill the arenas deterministically.
        for ((&i, raw), cfg) in which.iter().zip(raws).zip(cfgs) {
            let pw = pw_under(m, i, ctxs.initial[i], db);
            // Entry words are only read by the phases for MPI-relevant
            // functions (concurrency indexes them per MPI block), so
            // the rest skip the per-block interning. Words materialize
            // from the function's dag at most once per distinct node
            // (straight-line blocks share nodes).
            let word_ids = if raw.needs_cfg {
                let mut node_memo: HashMap<WordNode, WordId> = HashMap::new();
                pw.entry
                    .iter()
                    .map(|state| match state {
                        Some(PwState::Word(n)) => Some(
                            *node_memo
                                .entry(*n)
                                .or_insert_with(|| self.words.intern(&pw.dag.materialize(*n))),
                        ),
                        _ => None,
                    })
                    .collect()
            } else {
                vec![None; pw.entry.len()]
            };
            let block_events = raw
                .raw_events
                .into_iter()
                .map(|block| {
                    block
                        .into_iter()
                        .map(|(e, ii)| (self.events.intern(e), ii))
                        .collect()
                })
                .collect();
            self.funcs[i] = Some(FuncFacts {
                cfg,
                pw,
                words: word_ids,
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

    /// The communicator register resolution of function `fidx`.
    pub fn comms_of(&self, fidx: usize) -> &FuncComms {
        self.comms.func(&self.module.funcs[fidx].name)
    }

    /// The request register resolution of function `fidx`.
    pub fn reqs_of(&self, fidx: usize) -> &FuncRequests {
        self.reqs.func(&self.module.funcs[fidx].name)
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
        let cx = AnalysisCx::build(&m, InitialContext::Sequential, parcoach_pool::global());
        for (fi, f) in m.funcs.iter().enumerate() {
            let facts = cx.facts(fi);
            assert_eq!(facts.block_events.len(), f.block_count());
            assert_eq!(facts.words.len(), f.block_count());
            let has_events = facts.block_events.iter().any(|v| !v.is_empty());
            if has_events {
                assert_eq!(facts.cfg().pdf.len(), f.block_count());
            } else if facts.has_cfg() {
                assert!(
                    facts.cfg().pdf.is_empty(),
                    "event-free functions skip frontiers"
                );
            }
        }
        // The call to `exchange` is an event of `main`.
        let call = Event::Call(crate::intern::Sym(m.by_name["exchange"] as u32));
        let main_events = &cx.facts(m.by_name["main"]).block_events;
        assert!(main_events
            .iter()
            .flatten()
            .any(|(e, _)| cx.events.get(*e) == call));
        assert!(!cx.events.is_empty());
        assert!(!cx.words.is_empty());
    }

    #[test]
    fn words_dedup_across_blocks() {
        // Straight-line code: every reachable block shares the empty
        // word plus at most a couple of region words.
        let m = lower("fn main() { let a = 1; let b = a + 1; MPI_Barrier(); print(b); }");
        let cx = AnalysisCx::build(&m, InitialContext::Sequential, parcoach_pool::global());
        let facts = cx.facts(m.by_name["main"]);
        let distinct = cx.words.len();
        let populated = facts.words.iter().filter(|w| w.is_some()).count();
        assert!(populated >= 1);
        assert!(
            distinct <= 2,
            "straight-line blocks must share interned words, got {distinct}"
        );
    }

    #[test]
    fn arena_ids_deterministic_across_widths() {
        let m = lower(
            "fn a() { MPI_Barrier(); }
             fn b() { a(); let c = MPI_Comm_dup(MPI_COMM_WORLD); MPI_Barrier(c); }
             fn main() { if (rank() == 0) { b(); } parallel num_threads(2) { single { a(); } } }",
        );
        let mk = |jobs| {
            parcoach_pool::Pool::new(parcoach_pool::PoolConfig {
                jobs,
                deterministic: true,
                seed: 3,
            })
        };
        let p1 = mk(1);
        let p4 = mk(4);
        let cx1 = AnalysisCx::build(&m, InitialContext::Sequential, &p1);
        let cx4 = AnalysisCx::build(&m, InitialContext::Sequential, &p4);
        // Compare id-ordered views (the arenas' lookup maps are
        // HashMaps, whose Debug order is unspecified).
        let events = |cx: &AnalysisCx| -> Vec<_> {
            (0..cx.events.len() as u32)
                .map(|i| cx.events.get(crate::intern::EventId(i)))
                .collect()
        };
        let words = |cx: &AnalysisCx| -> Vec<_> {
            (0..cx.words.len() as u32)
                .map(|i| cx.words.get(WordId(i)).clone())
                .collect()
        };
        assert_eq!(events(&cx1), events(&cx4));
        assert_eq!(words(&cx1), words(&cx4));
        for fi in 0..m.funcs.len() {
            assert_eq!(
                format!("{:?}", cx1.facts(fi).block_events),
                format!("{:?}", cx4.facts(fi).block_events)
            );
        }
    }
}
