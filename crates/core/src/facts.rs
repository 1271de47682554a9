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
//! * the parallelism-word result (moved out of the interprocedural
//!   context fixpoint — no longer cloned per phase) plus interned
//!   per-block entry words;
//! * the block→event map with interned [`EventId`]s;
//! * the module-wide communicator and request register resolutions.
//!
//! Construction is deterministic at every pool width: the parallel part
//! is pure per function and results are merged in module order; the
//! arenas ([`crate::intern`]) are filled by the sequential merge, so
//! interned ids never depend on scheduling.

use crate::comm::{compute_comms, FuncComms, ModuleComms};
use crate::context::{compute_contexts, CallContexts};
use crate::intern::{EventArena, EventId, SymTable, WordArena, WordId, WordNode};
use crate::matching::{block_events, Event};
use crate::pw::{compute_pw, InitialContext, PwResult, PwState};
use crate::query::QueryDb;
use crate::request::{compute_requests, FuncRequests, ModuleRequests};
use parcoach_front::span::Span;
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
    /// Collective events issued per block, in instruction order.
    pub block_events: Vec<Vec<(EventId, Span)>>,
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
    /// Interprocedural call contexts (the pw map is drained into
    /// [`FuncFacts::pw`] — use the facts, not [`CallContexts::pw_of`]).
    pub ctxs: CallContexts,
    /// Interned communicator classes + per-function register resolution,
    /// `Arc`-shared with the [`QueryDb`]'s module-wide slot.
    pub comms: Arc<ModuleComms>,
    /// Interned request classes + per-function register resolution
    /// (`Arc`-shared like [`AnalysisCx::comms`]).
    pub reqs: Arc<ModuleRequests>,
    /// Interned function names.
    pub syms: SymTable,
    /// Interned collective events.
    pub events: EventArena,
    /// Interned parallelism words.
    pub words: WordArena,
    /// Per-function facts, indexed like `module.funcs`.
    pub funcs: Vec<FuncFacts>,
    /// Entry-point reachability, indexed like `module.funcs`: `main`
    /// and everything transitively called from it. The phases only
    /// diagnose reachable code — an uncalled helper can neither warn
    /// (its operations never execute: a guaranteed false positive,
    /// found by differential fuzzing) nor feed the module-wide p2p
    /// matcher (its sends would silently balance reachable receives).
    pub reachable: Vec<bool>,
}

/// Walk the call graph from `main` using the contexts' cached
/// per-function call summaries (no IR re-walk). Modules without a
/// `main` (library-style inputs, unit-test fixtures) keep every
/// function reachable.
fn compute_reachable(m: &Module, ctxs: &CallContexts) -> Vec<bool> {
    let Some(&entry) = m.by_name.get("main") else {
        return vec![true; m.funcs.len()];
    };
    let mut reachable = vec![false; m.funcs.len()];
    reachable[entry] = true;
    let mut work = vec![entry];
    while let Some(fidx) = work.pop() {
        for (_, _, func) in &ctxs.summaries[fidx].call_sites {
            if let Some(&cidx) = m.by_name.get(func) {
                if !reachable[cidx] {
                    reachable[cidx] = true;
                    work.push(cidx);
                }
            }
        }
    }
    reachable
}

/// The pool-computed part of one function's facts (no interning, so the
/// workers stay pure and order-independent).
struct RawFacts {
    /// Does any phase query CFG facts for this function?
    needs_cfg: bool,
    /// Does the function issue collective events (⇒ frontiers needed)?
    has_events: bool,
    raw_events: Vec<Vec<(Event, Span)>>,
}

/// Dominator/post-dominator trees, frontiers and loops for one
/// function. `with_pdf` additionally materializes the per-block
/// post-dominance frontiers (only event-bearing functions query them).
fn compute_cfg(f: &FuncIr, with_pdf: bool) -> CfgFacts {
    let dom = DomTree::compute(f);
    let pdt = PostDomTree::compute(f);
    let loops = LoopInfo::compute(f, &dom);
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
    /// Contexts and fact store for `m` over a fresh table — the
    /// convenience the phase unit tests use; the pipeline runs the same
    /// two stages against the caller's table.
    pub fn build(m: &'m Module, entry: InitialContext, pool: &parcoach_pool::Pool) -> Self {
        let mut db = QueryDb::new();
        db.reconcile(m);
        let ctxs = compute_contexts(m, entry, pool, &mut db);
        Self::from_contexts(m, ctxs, pool, &mut db)
    }

    /// Build the fact store from already-computed call contexts, whose
    /// pw results are *moved* into the per-function facts. The
    /// per-function CFG facts and the module-wide communicator/request
    /// tables are served from `db` where present and stored into it
    /// where not; `db` must have been reconciled against `m`
    /// ([`QueryDb::reconcile`]).
    pub fn from_contexts(
        m: &'m Module,
        mut ctxs: CallContexts,
        pool: &parcoach_pool::Pool,
        db: &mut QueryDb,
    ) -> Self {
        // Module-wide register resolutions: an edit touching no
        // communicator (or request) instruction leaves the whole table
        // in its slot.
        let comms = db.comms.get_or_put(|| Arc::new(compute_comms(m))).clone();
        let reqs = db.reqs.get_or_put(|| Arc::new(compute_requests(m))).clone();
        let syms = SymTable::for_module(m);

        // Parallel stage 1: block→event maps. Span-bearing, so always
        // derived fresh from the (span-correct) IR — but only for
        // functions that *can* produce events. The contexts' call
        // summaries tell us for free: a function with no MPI
        // instruction and no collective-bearing callee has no events
        // and never queries CFG facts, so its blocks are not walked at
        // all (most kernels of a large workload).
        let idxs: Vec<usize> = (0..m.funcs.len()).collect();
        let raws: Vec<RawFacts> = pool.par_map(&idxs, |&i| {
            let f = &m.funcs[i];
            let s = &ctxs.summaries[i];
            let relevant = s.has_mpi
                || s.call_sites
                    .iter()
                    .any(|(_, _, c)| ctxs.bears_collectives(c));
            if !relevant {
                return RawFacts {
                    needs_cfg: false,
                    has_events: false,
                    raw_events: vec![Vec::new(); f.block_count()],
                };
            }
            let fc = comms.func(&f.name);
            let raw_events: Vec<Vec<(Event, Span)>> = f
                .block_ids()
                .map(|b| block_events(f, b, &ctxs, fc, &syms))
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
        // which only event-bearing functions issue, so event presence is
        // kept beside the value.
        let mut cfgs: Vec<Option<Arc<CfgFacts>>> = (0..m.funcs.len()).map(|_| None).collect();
        let mut misses: Vec<usize> = Vec::new();
        for (i, raw) in raws.iter().enumerate() {
            if !raw.needs_cfg {
                continue;
            }
            match db.func(i).cfg.get_if(|(pdf, _)| *pdf == raw.has_events) {
                Some((_, cfg)) => cfgs[i] = Some(cfg.clone()),
                None => misses.push(i),
            }
        }
        let computed = pool.par_map(&misses, |&i| {
            Arc::new(compute_cfg(&m.funcs[i], raws[i].has_events))
        });
        for (i, cfg) in misses.into_iter().zip(computed) {
            db.func(i).cfg.put((raws[i].has_events, cfg.clone()));
            cfgs[i] = Some(cfg);
        }

        // Sequential merge in module order: move pw out of the context
        // cache and fill the arenas deterministically.
        let mut events = EventArena::default();
        let mut words = WordArena::default();
        let mut pw_map = std::mem::take(&mut ctxs.pw);
        let mut funcs = Vec::with_capacity(m.funcs.len());
        for ((f, raw), cfg) in m.funcs.iter().zip(raws).zip(cfgs) {
            let pw = pw_map
                .remove(&f.name)
                .unwrap_or_else(|| Arc::new(compute_pw(f, ctxs.context_of(&f.name))));
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
                                .or_insert_with(|| words.intern(&pw.dag.materialize(*n))),
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
                        .map(|(e, span)| (events.intern(e), span))
                        .collect()
                })
                .collect();
            funcs.push(FuncFacts {
                cfg,
                pw,
                words: word_ids,
                block_events,
            });
        }

        let reachable = compute_reachable(m, &ctxs);
        AnalysisCx {
            module: m,
            ctxs,
            comms,
            reqs,
            syms,
            events,
            words,
            funcs,
            reachable,
        }
    }

    /// Is function `fidx` reachable from the entry point?
    pub fn is_reachable(&self, fidx: usize) -> bool {
        self.reachable[fidx]
    }

    /// Is the function named `name` reachable from the entry point?
    /// Unknown names read as reachable (the conservative answer for
    /// callers that only have a name, e.g. context-fixpoint call sites).
    pub fn is_reachable_name(&self, name: &str) -> bool {
        self.module
            .by_name
            .get(name)
            .is_none_or(|&i| self.reachable[i])
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
        assert_eq!(cx.funcs.len(), m.funcs.len());
        for (f, facts) in m.funcs.iter().zip(&cx.funcs) {
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
        // Both function names are interned; the call event resolves.
        assert!(cx.syms.lookup("exchange").is_some());
        assert!(cx.syms.lookup("main").is_some());
        assert!(!cx.events.is_empty());
        assert!(!cx.words.is_empty());
    }

    #[test]
    fn words_dedup_across_blocks() {
        // Straight-line code: every reachable block shares the empty
        // word plus at most a couple of region words.
        let m = lower("fn main() { let a = 1; let b = a + 1; MPI_Barrier(); print(b); }");
        let cx = AnalysisCx::build(&m, InitialContext::Sequential, parcoach_pool::global());
        let facts = &cx.funcs[m.by_name["main"]];
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
        let names = |cx: &AnalysisCx| -> Vec<String> {
            (0..cx.syms.len() as u32)
                .map(|i| cx.syms.name(crate::intern::Sym(i)).to_string())
                .collect()
        };
        let words = |cx: &AnalysisCx| -> Vec<_> {
            (0..cx.words.len() as u32)
                .map(|i| cx.words.get(WordId(i)).clone())
                .collect()
        };
        assert_eq!(events(&cx1), events(&cx4));
        assert_eq!(names(&cx1), names(&cx4));
        assert_eq!(words(&cx1), words(&cx4));
        for (a, b) in cx1.funcs.iter().zip(&cx4.funcs) {
            assert_eq!(
                format!("{:?}", a.block_events),
                format!("{:?}", b.block_events)
            );
        }
    }
}
