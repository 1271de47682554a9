//! The one memo table of the static phase.
//!
//! Every check runs the same pipeline against a [`QueryDb`]. A one-shot
//! check (`parcoachc check`, [`AnalysisSession::check_module`]) hands it
//! a table created empty and dropped at return; a resident document
//! (`parcoachd`'s `Document`) keeps its table across edits, so a re-check
//! re-derives only what an edit changed. There is no second path and
//! nothing to switch on: cold is warm with nothing stored yet.
//!
//! ## What is stored
//!
//! Every memoized value sits in a [`Slot`] — value plus hit/miss
//! counters, `get` / `put` / `clear`:
//!
//! * per function: the parallelism words under each of the three
//!   [`InitialContext`](crate::pw::InitialContext)s, the CFG facts
//!   ([`CfgFacts`], beside whether frontiers were materialized), what
//!   the module-level passes read from the function ([`CallSummary`]),
//!   and the three phases' findings beside the inputs they were derived
//!   under (`pipeline::FuncAnalysis`) — so a check runs the phases only for the
//!   functions an edit actually reached;
//! * per module: the context fixpoint's result ([`CallContexts`], reused
//!   while no re-derived function hands it anything new — see
//!   [`crate::context`]), the communicator and request classes
//!   ([`ModuleHandles`]) and the p2p matching core ([`P2pCore`], stored
//!   beside the reachability vector it was matched under).
//!
//! [`QueryStats`] is a view summed from the slots.
//!
//! Two kinds of key guard a value. What a function's *own structure*
//! determines is guarded by the red-green pass below, which empties the
//! function's slots when an edit changed its code. What depends on *other*
//! functions — a calling context, whether a callee executes collectives,
//! a communicator class numbered module-wide — is kept beside the value
//! and compared at lookup ([`Slot::get_if`]): cheaper than deriving it
//! again, and exact.
//!
//! ## Span-free by construction
//!
//! No stored value contains a `Span`. Positions are block ids or
//! [`Locator`](parcoach_ir::Locator)s — stored warnings are
//! [`WarningCore`](crate::report::WarningCore)s — and whoever builds a
//! warning reads the span from the live IR
//! ([`span_at`](parcoach_ir::span_at)). An edit that moves code without
//! changing its structure — whitespace above a function *or inside it* —
//! therefore needs no rebasing: the table never knew where anything was.
//!
//! ## Exact comparison on demand (red-green)
//!
//! The table belongs to one module lineage whose only editor (the
//! document) reports every edit through [`QueryDb::mark_dirty`], handing
//! over the IR it replaces, so a clean entry is trusted without looking
//! at anything. The first edit of a function since the last check keeps
//! the replaced `Arc<FuncIr>` — the IR the stored values were derived
//! from; [`QueryDb::reconcile`] takes it back and compares it with the
//! new IR. The entry is *greened* (a whitespace, reverted or no-op edit
//! keeps every fact) iff the two are the same code
//! ([`FuncIr::same_code`]: equal but for their spans), else
//! *invalidated*; a module table is dropped iff the edit changed what
//! that table reads from the function. The comparison is exact, and no
//! old IR outlives the check that compares it. A table with nothing
//! stored keeps nothing — which is why the one-shot path costs what it
//! did before it had a table.
//!
//! [`AnalysisSession::check_module`]: crate::session::AnalysisSession::check_module

use crate::context::CallContexts;
use crate::facts::{compute_cfg, CfgFacts, CheckScratch};
use crate::handle::{is_handle, ModuleHandles};
use crate::p2p::P2pCore;
use crate::pipeline::FuncAnalysis;
use crate::pw::PwResult;
use parcoach_front::ast::{ThreadLevel, Type};
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{Instr, MpiOp};
use parcoach_ir::types::BlockId;
use std::sync::Arc;

/// Whether the handle resolution ([`crate::handle`]) reads the same from
/// `a` and `b`: neither has a handle-typed register (the resolver's fast
/// path), or both have the same signature and register types and the
/// same handle-defining instructions at the same positions (class
/// definitions are keyed by [`Locator`](parcoach_ir::Locator)).
fn same_handle_defs(a: &FuncIr, b: &FuncIr) -> bool {
    fn defs(f: &FuncIr) -> impl Iterator<Item = (BlockId, usize, &Instr)> {
        let defines_handle = |i: &Instr| {
            i.dest()
                .is_some_and(|d| f.reg_types.get(d.index()).is_some_and(|&t| is_handle(t)))
        };
        f.block_ids().flat_map(move |bid| {
            let instrs = f.instrs(bid).iter().enumerate();
            instrs.filter_map(move |(ii, (i, _))| defines_handle(i).then_some((bid, ii, i)))
        })
    }
    let has_handles = |f: &FuncIr| f.reg_types.iter().any(|&t| is_handle(t));
    match (has_handles(a), has_handles(b)) {
        (false, false) => true,
        (true, true) => a.params == b.params && a.reg_types == b.reg_types && defs(a).eq(defs(b)),
        _ => false,
    }
}

/// What the p2p matcher reads from a function: all of it when the
/// function contains any point-to-point or wait operation (matching
/// reads sites, waits *and* dominators), only that it calls
/// `MPI_Finalize` when that is all (the epoch census is placed where
/// finalize is), else nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum P2pReads {
    Nothing,
    Finalize,
    All,
}

fn p2p_reads(f: &FuncIr) -> P2pReads {
    let mut reads = P2pReads::Nothing;
    for (i, _) in &f.instrs {
        match i {
            Instr::Mpi { op, .. } if op.is_p2p() => return P2pReads::All,
            Instr::Mpi {
                op: MpiOp::Finalize,
                ..
            } => reads = P2pReads::Finalize,
            _ => {}
        }
    }
    reads
}

/// What the module-level passes read from one function, derived from its
/// IR alone (one walk) — which makes it reusable across edits that keep
/// the function's code ([`FuncIr::same_code`]).
/// The context fixpoint, entry reachability, the taint propagation, the
/// thread-level check and the census placement all read these instead of
/// re-walking instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSummary {
    /// Does the function itself issue collective events (collective ops
    /// or communicator-management collectives)?
    pub own_bearing: bool,
    /// Does the function contain *any* MPI instruction (including p2p)?
    /// A function with no MPI and no collective-bearing callee cannot
    /// produce events, so its blocks are never walked for them.
    pub has_mpi: bool,
    /// Does the function have a `request`-typed register? Only such a
    /// function can post or wait, so only it can draw a life-cycle
    /// warning.
    pub has_requests: bool,
    /// Does the function contain an `MPI_Finalize`?
    pub has_finalize: bool,
    /// The function's first `MPI_Init`/`MPI_Init_thread` and the highest
    /// thread level any of its inits requests (plain `MPI_Init` counts
    /// as `SINGLE`).
    pub init: Option<(BlockId, usize, ThreadLevel)>,
    /// Every call site as `(block, instruction index, callee)`, in block
    /// order then instruction order; the callee is an index into
    /// `Module::funcs`. Valid for as long as the table is — it starts
    /// over when the module's function list changes.
    pub call_sites: Vec<(BlockId, usize, usize)>,
}

/// Compute one function's [`CallSummary`] from its IR.
pub fn call_summary(f: &FuncIr) -> CallSummary {
    let mut s = CallSummary {
        own_bearing: false,
        has_mpi: false,
        has_requests: f.reg_types.contains(&Type::Request),
        has_finalize: false,
        init: None,
        call_sites: Vec::new(),
    };
    for bid in f.block_ids() {
        for (ii, (i, _)) in f.instrs(bid).iter().enumerate() {
            match i {
                Instr::Mpi { op, .. } => {
                    s.has_mpi = true;
                    s.own_bearing |= op.synchronizes().is_some();
                    match op {
                        MpiOp::Finalize => s.has_finalize = true,
                        MpiOp::Init { required } => {
                            let level = required.unwrap_or(ThreadLevel::Single);
                            s.init = Some(match s.init {
                                None => (bid, ii, level),
                                Some((b0, i0, l0)) => (b0, i0, l0.max(level)),
                            });
                        }
                        _ => {}
                    }
                }
                Instr::Call { callee, .. } => s.call_sites.push((bid, ii, *callee)),
                _ => {}
            }
        }
    }
    s
}

/// Hit/miss counters, surfaced through the daemon's `timings` verb and
/// asserted on by the incrementality tests. A view: [`QueryDb::stats`]
/// sums it from the slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Parallelism-word results served from the table.
    pub pw_hits: u64,
    /// Parallelism-word results recomputed.
    pub pw_misses: u64,
    /// CFG facts served from the table.
    pub cfg_hits: u64,
    /// CFG facts recomputed.
    pub cfg_misses: u64,
    /// Dirty entries whose new IR was the same code as the old (the
    /// edit was structurally a no-op — the red-green short-circuit).
    pub greened: u64,
    /// Dirty entries whose facts were actually dropped.
    pub invalidated: u64,
    /// Module-wide handle resolutions served from the table.
    pub handle_hits: u64,
    /// Module-wide handle resolutions recomputed.
    pub handle_misses: u64,
    /// Module-wide p2p matching results served from the table.
    pub p2p_hits: u64,
    /// Module-wide p2p matching results recomputed.
    pub p2p_misses: u64,
    /// Per-function phase results served from the table.
    pub analysis_hits: u64,
    /// Per-function phase results re-derived.
    pub analysis_misses: u64,
    /// Checks that reused the stored context fixpoint.
    pub context_hits: u64,
    /// Checks that ran the context fixpoint.
    pub context_misses: u64,
}

/// One memoized value with its hit/miss counters. `get` and `put` are
/// separate calls for callers that compute a miss away from the slot;
/// [`Slot::get_or_put`] is both at once.
#[derive(Debug)]
pub struct Slot<V> {
    value: Option<V>,
    hits: u64,
    misses: u64,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            value: None,
            hits: 0,
            misses: 0,
        }
    }
}

impl<V> Slot<V> {
    /// The stored value, if there is one and it was stored under the
    /// condition `ok` checks (the part of a key that is cheaper to keep
    /// beside the value than to hash). Counts a hit or a miss.
    pub fn get_if(&mut self, ok: impl FnOnce(&V) -> bool) -> Option<&V> {
        let hit = self.value.as_ref().filter(|v| ok(v));
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// The stored value, if any. Counts a hit or a miss.
    pub fn get(&mut self) -> Option<&V> {
        self.get_if(|_| true)
    }

    /// The stored value, uncounted — for a caller that must consult
    /// other slots before it can tell [`Slot::get_if`] whether the value
    /// is still good.
    pub fn peek(&self) -> Option<&V> {
        self.value.as_ref()
    }

    /// Store a freshly computed value.
    pub fn put(&mut self, v: V) {
        self.value = Some(v);
    }

    /// [`Slot::get`], computing and storing the value on a miss.
    pub fn get_or_put(&mut self, compute: impl FnOnce() -> V) -> &V {
        if self.get().is_none() {
            self.put(compute());
        }
        self.value.as_ref().expect("just stored")
    }

    /// Drop the value; the counters keep running.
    pub fn clear(&mut self) {
        self.value = None;
    }
}

/// One function's slots and the bookkeeping that guards them.
#[derive(Debug, Default)]
pub(crate) struct FuncSlots {
    /// The function this entry describes — what ties the table to one
    /// module shape.
    name: String,
    /// The IR the stored values were derived from, kept by the first
    /// [`QueryDb::mark_dirty`] since the last reconciliation, which takes
    /// it back (see the module docs). Present iff the entry is dirty.
    old: Option<Arc<FuncIr>>,
    /// Parallelism words per [`InitialContext`](crate::pw::InitialContext)
    /// (index = lattice position, `ctx as usize`).
    pub(crate) pw: [Slot<Arc<PwResult>>; 3],
    /// CFG facts beside whether frontiers were materialized (only
    /// event-bearing functions query them).
    pub(crate) cfg: Slot<(bool, Arc<CfgFacts>)>,
    /// Call-graph summary (see [`CallSummary`]). An empty slot is also
    /// how the context stage learns the function was re-derived.
    pub(crate) summary: Slot<Arc<CallSummary>>,
    /// The three phases' findings, beside the inputs they were derived
    /// under (see [`FuncAnalysis`]).
    pub(crate) analysis: Slot<Arc<FuncAnalysis>>,
}

/// The memo table. See the module docs for the contract; the pipeline
/// consults it through
/// [`AnalysisSession::check_module_in`](crate::session::AnalysisSession::check_module_in).
#[derive(Debug, Default)]
pub struct QueryDb {
    /// One entry per function, indexed like `Module::funcs`.
    funcs: Vec<FuncSlots>,
    /// The context fixpoint's result, with what it read from every
    /// function (see [`crate::context`]).
    pub(crate) contexts: Slot<Arc<CallContexts>>,
    /// The module-wide handle resolution.
    pub(crate) handles: Slot<Arc<ModuleHandles>>,
    /// The span-free p2p matching core, beside the entry-reachability
    /// vector it was matched under (a call-graph edit anywhere can
    /// silence or unmask sites without touching any p2p instruction).
    pub(crate) p2p: Slot<(Vec<bool>, Arc<P2pCore>)>,
    /// `greened` / `invalidated`, plus the counters of slots that no
    /// longer exist ([`QueryDb::clear`]).
    base: QueryStats,
}

impl QueryDb {
    /// An empty table (everything misses once).
    pub fn new() -> Self {
        Self::default()
    }

    /// The slots of function `fi`. The table must have been reconciled
    /// against the module `fi` indexes.
    pub(crate) fn func(&mut self, fi: usize) -> &mut FuncSlots {
        &mut self.funcs[fi]
    }

    /// The CFG facts of function `fi` of `m`, from the table or computed
    /// into it with the check's `scratch`; `with_pdf` asks for
    /// materialized frontiers. Counts a hit or a miss.
    pub(crate) fn cfg_of(
        &mut self,
        m: &Module,
        fi: usize,
        with_pdf: bool,
        scratch: &mut CheckScratch,
    ) -> Arc<CfgFacts> {
        let slot = &mut self.funcs[fi].cfg;
        if let Some((_, cfg)) = slot.get_if(|(pdf, _)| *pdf || !with_pdf) {
            return cfg.clone();
        }
        let order = scratch.orders.of(m, fi);
        let cfg = Arc::new(compute_cfg(&m.funcs[fi], with_pdf, order, &mut scratch.cfg));
        slot.put((with_pdf, cfg.clone()));
        cfg
    }

    /// Function `fi` is being replaced; `old` is the IR it held. The
    /// table keeps it unless an earlier edit already left one (two edits
    /// between checks must compare against the IR the tables were built
    /// from, not the one in between). A table that stores nothing for
    /// `old` ignores the call.
    pub fn mark_dirty(&mut self, fi: usize, old: &Arc<FuncIr>) {
        if let Some(e) = self.funcs.get_mut(fi).filter(|e| e.name == old.name) {
            e.old.get_or_insert_with(|| old.clone());
        }
    }

    /// The red-green pass, run before any lookup against `m`: compare
    /// exactly the dirty functions with the IR they replaced, drop what
    /// their edits changed and release the old IR.
    ///
    /// A dirty entry is either *greened* (the same code — keep its
    /// facts) or *invalidated* (drop them); a module table goes iff some
    /// dirty function's edit changed what that table reads from it, the
    /// p2p core also when the handle table it was matched against went.
    /// Clean entries cost nothing. A table that belongs to another module
    /// shape — first use included — starts over with one entry per
    /// function.
    pub fn reconcile(&mut self, m: &Module) {
        let stored = self.funcs.iter().map(|e| &e.name);
        if !stored.eq(m.funcs.iter().map(|f| &f.name)) {
            self.clear();
            self.funcs = m
                .funcs
                .iter()
                .map(|f| FuncSlots {
                    name: f.name.clone(),
                    ..FuncSlots::default()
                })
                .collect();
            return;
        }
        for (e, f) in self.funcs.iter_mut().zip(&m.funcs) {
            let Some(old) = e.old.take() else {
                continue;
            };
            let same = old.same_code(f);
            if same {
                self.base.greened += 1;
            } else {
                self.base.invalidated += 1;
                e.pw.iter_mut().for_each(Slot::clear);
                e.cfg.clear();
                e.summary.clear();
                e.analysis.clear();
            }
            let handles = !same && !same_handle_defs(&old, f);
            if handles {
                self.handles.clear();
            }
            let reads = p2p_reads(f);
            if handles || reads != p2p_reads(&old) || (reads == P2pReads::All && !same) {
                self.p2p.clear();
            }
        }
    }

    /// Forget every stored value (the document was recompiled wholesale);
    /// the counters keep running.
    pub fn clear(&mut self) {
        *self = QueryDb {
            base: self.stats(),
            ..QueryDb::default()
        };
    }

    /// The hit/miss counters, summed from the slots.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.base;
        for e in &self.funcs {
            for pw in &e.pw {
                s.pw_hits += pw.hits;
                s.pw_misses += pw.misses;
            }
            s.cfg_hits += e.cfg.hits;
            s.cfg_misses += e.cfg.misses;
            s.analysis_hits += e.analysis.hits;
            s.analysis_misses += e.analysis.misses;
        }
        s.context_hits += self.contexts.hits;
        s.context_misses += self.contexts.misses;
        s.handle_hits += self.handles.hits;
        s.handle_misses += self.handles.misses;
        s.p2p_hits += self.p2p.hits;
        s.p2p_misses += self.p2p.misses;
        s
    }

    /// `(hits, misses)` of each function's phase-result slot, indexed
    /// like `Module::funcs` — which functions an edit made the phases
    /// revisit, for the tests that pin exactly that.
    pub fn analysis_counts(&self) -> Vec<(u64, u64)> {
        self.funcs
            .iter()
            .map(|e| (e.analysis.hits, e.analysis.misses))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::{compute_pw, InitialContext};
    use crate::session::AnalysisSession;
    use parcoach_front::parse_and_check;
    use parcoach_ir::graph::CfgOrder;
    use parcoach_ir::lower::lower_program;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    fn check(m: &Module, db: &mut QueryDb) -> String {
        let mut s = AnalysisSession::builder().build();
        format!("{:?}", s.check_module_in(m, db, None).expect("no token"))
    }

    fn cold(m: &Module) -> String {
        check(m, &mut QueryDb::new())
    }

    /// What the owner does just before replacing `name` in `old`.
    fn mark(db: &mut QueryDb, old: &Module, name: &str) {
        let fi = old.index(name).unwrap();
        db.mark_dirty(fi, &old.funcs[fi]);
    }

    fn main_pw<'a>(db: &'a mut QueryDb, m: &Module) -> &'a mut Slot<Arc<PwResult>> {
        &mut db.func(m.index("main").unwrap()).pw[InitialContext::Sequential as usize]
    }

    #[test]
    fn same_code_ignores_spans() {
        let src = "fn main() { if (rank() == 0) { MPI_Barrier(); } }";
        let m0 = lower(src);
        let m1 = lower(&format!("\n\n   {src}"));
        assert_ne!(
            format!("{:?}", m0.funcs[0]),
            format!("{:?}", m1.funcs[0]),
            "spans must differ for the test to mean anything"
        );
        assert!(m0.funcs[0].same_code(&m1.funcs[0]));
    }

    #[test]
    fn same_code_sees_structure() {
        let a = lower("fn main() { MPI_Barrier(); }");
        let b = lower("fn main() { MPI_Allreduce(1, SUM); }");
        let c = lower("fn main() { if (rank() == 0) { MPI_Barrier(); } }");
        let fa = &a.funcs[0];
        assert!(!fa.same_code(&b.funcs[0]));
        assert!(!fa.same_code(&c.funcs[0]));
    }

    #[test]
    fn same_code_sees_name_and_params() {
        let m = lower("fn a(x: int) { let y = x; } fn main() { a(1); }");
        let n = lower("fn a(x: float) { let y = x; } fn main() { a(1.0); }");
        assert!(!m.funcs[0].same_code(&n.funcs[0]));
    }

    #[test]
    fn red_green_keeps_facts_on_structural_noop() {
        let m = lower("fn main() { MPI_Barrier(); }");
        let mut db = QueryDb::new();
        db.reconcile(&m);
        let f = &m.funcs[0];
        let order = CfgOrder::of(f);
        let pw = compute_pw(
            f,
            InitialContext::Sequential,
            order.view(),
            &mut Default::default(),
        );
        let pw = Arc::new(pw);
        main_pw(&mut db, &m).put(pw);
        // A whitespace-style edit: same structure, different spans.
        let m2 = lower("   fn main() { MPI_Barrier(); }");
        mark(&mut db, &m, "main");
        db.reconcile(&m2);
        assert_eq!(db.stats().greened, 1);
        assert!(main_pw(&mut db, &m2).get().is_some());
        // A real edit kills the entry.
        let m3 = lower("fn main() { MPI_Barrier(); MPI_Barrier(); }");
        mark(&mut db, &m2, "main");
        db.reconcile(&m3);
        assert_eq!(db.stats().invalidated, 1);
        assert!(main_pw(&mut db, &m3).get().is_none());
    }

    #[test]
    fn reconcile_drops_deleted_functions() {
        let m = lower("fn gone() { let x = 1; } fn main() { gone(); }");
        let mut db = QueryDb::new();
        check(&m, &mut db);
        let stored = db.stats();
        // Another module shape: the table starts over (and keeps
        // counting), so nothing derived from `gone` survives.
        let m2 = lower("fn main() { let x = 1; }");
        db.reconcile(&m2);
        assert_eq!(db.funcs.len(), 1);
        assert!(main_pw(&mut db, &m2).get().is_none());
        assert_eq!(db.stats().pw_misses, stored.pw_misses + 1);
        assert_eq!(check(&m2, &mut db), cold(&m2));
    }

    /// Two edits of one function between checks: the IR kept by the
    /// first `mark_dirty` — the IR the tables were built from — is what
    /// reconciliation compares against, not the IR in between.
    #[test]
    fn two_edits_between_checks_compare_against_the_checked_ir() {
        let helper = |body: &str| {
            lower(&format!(
                "fn helper() {{ {body} }}\n\
                 fn main() {{ MPI_Init(); helper(); let v = MPI_Recv(0, 3); MPI_Finalize(); }}"
            ))
        };
        let checked = helper("MPI_Send(1, 0, 3);");
        let between = helper("let x = 1;");
        let mut db = QueryDb::new();
        check(&checked, &mut db);

        // Away and back again: green, nothing recomputed.
        mark(&mut db, &checked, "helper");
        mark(&mut db, &between, "helper");
        let before = db.stats();
        assert_eq!(check(&checked, &mut db), cold(&checked));
        let after = db.stats();
        assert_eq!(after.greened, before.greened + 1);
        assert_eq!(after.pw_misses, before.pw_misses);
        assert_eq!(after.p2p_misses, before.p2p_misses);

        // Away, then somewhere the p2p table must notice: comparing
        // against `between` (no p2p either side) would keep the stale
        // core and its unmatched-send verdict.
        let last = helper("let y = 2;");
        mark(&mut db, &checked, "helper");
        mark(&mut db, &between, "helper");
        assert_eq!(check(&last, &mut db), cold(&last));
        assert_eq!(db.stats().p2p_misses, after.p2p_misses + 1);
    }

    /// A check cancelled right after the red-green pass leaves the table
    /// reconciled but not refilled; the next check must not trust what
    /// the cancelled one dropped.
    #[test]
    fn cancelled_after_reconcile_then_uncancelled_equals_cold() {
        let with = |body: &str| {
            lower(&format!(
                "fn helper() {{ {body} }}\n\
                 fn main() {{ MPI_Init(); if (rank() == 0) {{ helper(); }} MPI_Finalize(); }}"
            ))
        };
        let m1 = with("let c = MPI_Comm_dup(MPI_COMM_WORLD); MPI_Barrier(c);");
        let m2 = with("MPI_Send(1, 0, 9);");
        let mut db = QueryDb::new();
        check(&m1, &mut db);
        mark(&mut db, &m1, "helper");
        // What a check cancelled at its first phase boundary after the
        // pass has done to the table:
        db.reconcile(&m2);
        assert_eq!(check(&m2, &mut db), cold(&m2));
        assert_eq!(db.stats().invalidated, 1, "reconciled once, not twice");
    }

    /// The size bound, by construction: the table holds one entry per
    /// function and three module slots, whatever the edit history, and
    /// keeps no reference a finished check has not released — no
    /// function's IR included.
    #[test]
    fn thousand_alternating_edits_keep_the_table_bounded() {
        let with = |left: &str, right: &str| {
            lower(&format!(
                "fn left() {{ {left} }}\nfn right() {{ {right} }}\n\
                 fn main() {{ MPI_Init(); left(); right(); let v = MPI_Recv(0, 1); MPI_Finalize(); }}"
            ))
        };
        let bodies = ["MPI_Barrier();", "MPI_Send(1, 0, 1);"];
        let census = |db: &QueryDb| {
            let mut filled = 0usize;
            let mut held = |n: usize, by: usize| {
                filled += 1;
                assert!(n <= by, "a finished check left a reference behind");
            };
            for e in &db.funcs {
                // The old IR went at the red-green pass: kept past it,
                // a replaced function would stay resident beside the new.
                assert!(e.old.is_none(), "a finished check kept an old IR");
                e.pw.iter()
                    .filter_map(|s| s.value.as_ref())
                    .for_each(|v| held(Arc::strong_count(v), 1));
                e.cfg
                    .value
                    .iter()
                    .for_each(|(_, v)| held(Arc::strong_count(v), 1));
                // The context result keeps the summary it read.
                e.summary
                    .value
                    .iter()
                    .for_each(|v| held(Arc::strong_count(v), 2));
                e.analysis
                    .value
                    .iter()
                    .for_each(|v| held(Arc::strong_count(v), 1));
            }
            db.contexts
                .value
                .iter()
                .for_each(|v| held(Arc::strong_count(v), 1));
            db.handles
                .value
                .iter()
                .for_each(|v| held(Arc::strong_count(v), 1));
            db.p2p
                .value
                .iter()
                .for_each(|(_, v)| held(Arc::strong_count(v), 1));
            (db.funcs.len(), filled)
        };
        let mut db = QueryDb::new();
        let mut cur = with(bodies[0], bodies[0]);
        check(&cur, &mut db);
        let first = census(&db);
        let (mut l, mut r) = (0usize, 0usize);
        for step in 0..1000 {
            let name = if step % 2 == 0 { "left" } else { "right" };
            if step % 2 == 0 {
                l ^= 1;
            } else {
                r ^= 1;
            }
            let next = with(bodies[l], bodies[r]);
            mark(&mut db, &cur, name);
            let warm = check(&next, &mut db);
            if step % 97 == 0 {
                assert_eq!(warm, cold(&next), "step {step}");
            }
            cur = next;
            assert_eq!(census(&db), first, "step {step}");
        }
    }
}
