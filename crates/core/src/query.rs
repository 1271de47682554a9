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
//!   [`InitialContext`](crate::pw::InitialContext)s (the costliest part
//!   of the context fixpoint), the CFG facts ([`CfgFacts`], re-keyed by
//!   whether frontiers were materialized) and the call-graph summary
//!   ([`CallSummary`]);
//! * per module: the communicator classes ([`ModuleComms`]), the request
//!   classes ([`ModuleRequests`]) and the p2p matching core
//!   ([`P2pCore`], stored beside the reachability vector it was matched
//!   under).
//!
//! [`QueryStats`] is a view summed from the slots.
//!
//! ## Span-free by construction
//!
//! No stored value contains a `Span`. Positions are block ids or
//! [`Locator`]s, and whoever builds a warning reads the span from the
//! live IR ([`span_at`]). An edit that moves code without changing its
//! structure — whitespace above a function *or inside it* — therefore
//! needs no rebasing: the table never knew where anything was.
//!
//! ## Keys on demand
//!
//! The table belongs to one module lineage whose only editor (the
//! document) reports every edit through [`QueryDb::mark_dirty`], so a
//! clean entry is trusted without hashing anything. A function's key —
//! its span-insensitive structural [`fingerprint`] plus its projection
//! onto each module table's inputs — is computed only once the function
//! is marked dirty, from the IR the stored values were derived from;
//! [`QueryDb::reconcile`] re-derives it from the new IR and either
//! *greens* the entry (structure unchanged: a whitespace, reverted or
//! no-op edit keeps every fact) or *invalidates* it, and drops a module
//! table iff a dirty function's projection for that family changed. A
//! table with nothing stored has nothing to compare against and computes
//! no key at all — which is why the one-shot path costs what it did
//! before it had a table.
//!
//! [`AnalysisSession::check_module`]: crate::session::AnalysisSession::check_module

use crate::comm::ModuleComms;
use crate::facts::CfgFacts;
use crate::p2p::P2pCore;
use crate::pw::PwResult;
use crate::request::ModuleRequests;
use parcoach_front::ast::Type;
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiIr, Terminator};
use parcoach_ir::types::BlockId;
use std::fmt::Write as _;
use std::sync::Arc;

/// A 128-bit span-insensitive structural hash of one function's IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u128);

/// FNV-1a, 128-bit variant.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x13b + (1u128 << 88);

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Tag byte separating fields/variants so adjacent fields can never
    /// alias across a boundary shift.
    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }
}

/// Span-free leaves (operators, operands, ids, types) hash via their
/// `Debug` form — exhaustive by construction and unambiguous once
/// interleaved with [`Fnv128::tag`] separators.
impl std::fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Compute the span-insensitive structural fingerprint of `f`.
///
/// The walk mirrors the IR shape by hand wherever a `Span` hides
/// ([`Instr`], [`Directive`], [`Terminator`], [`CheckOp`], blocks, the
/// function header) and falls back to `Debug` for span-free leaves
/// ([`MpiIr`], operators, operands, ids).
pub fn fingerprint(f: &FuncIr) -> Fingerprint {
    let mut h = Fnv128::new();
    h.bytes(f.name.as_bytes());
    h.tag(0xF0);
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}|{:?}",
        f.params, f.ret, f.reg_types, f.reg_names
    );
    h.u32(f.entry.0);
    h.u32(f.region_count);
    for b in &f.blocks {
        h.tag(0xB0);
        match &b.kind {
            BlockKind::Normal => h.tag(0),
            BlockKind::Directive(d) => {
                h.tag(1);
                hash_directive(&mut h, d);
            }
        }
        for i in &b.instrs {
            hash_instr(&mut h, i);
        }
        hash_terminator(&mut h, &b.term);
    }
    Fingerprint(h.0)
}

fn hash_instr(h: &mut Fnv128, i: &Instr) {
    h.tag(0x10);
    match i {
        // Span-free variants: Debug covers every field.
        Instr::Copy { .. }
        | Instr::Unary { .. }
        | Instr::Intrinsic { .. }
        | Instr::Print { .. } => {
            h.tag(0);
            let _ = write!(h, "{i:?}");
        }
        Instr::Binary {
            dest,
            op,
            lhs,
            rhs,
            span: _,
        } => {
            h.tag(1);
            let _ = write!(h, "{dest:?}{op:?}{lhs:?}{rhs:?}");
        }
        Instr::ArrayNew {
            dest,
            len,
            init,
            elem,
            span: _,
        } => {
            h.tag(2);
            let _ = write!(h, "{dest:?}{len:?}{init:?}{elem:?}");
        }
        Instr::Load {
            dest,
            arr,
            idx,
            span: _,
        } => {
            h.tag(3);
            let _ = write!(h, "{dest:?}{arr:?}{idx:?}");
        }
        Instr::Store {
            arr,
            idx,
            value,
            span: _,
        } => {
            h.tag(4);
            let _ = write!(h, "{arr:?}{idx:?}{value:?}");
        }
        Instr::Call {
            dest,
            func,
            args,
            span: _,
        } => {
            h.tag(5);
            let _ = write!(h, "{dest:?}{func}|{args:?}");
        }
        Instr::Mpi { dest, op, span: _ } => {
            h.tag(6);
            // MpiIr carries no spans.
            let _ = write!(h, "{dest:?}{op:?}");
        }
        Instr::Check(c) => {
            h.tag(7);
            match c {
                CheckOp::CollectiveCc {
                    color,
                    comm,
                    span: _,
                } => {
                    h.tag(0);
                    let _ = write!(h, "{color}{comm:?}");
                }
                CheckOp::ReturnCc { span: _ } => h.tag(1),
                CheckOp::AssertMonothread { what, span: _ } => {
                    h.tag(2);
                    h.bytes(what.as_bytes());
                }
                CheckOp::ConcEnter { site, span: _ } => {
                    h.tag(3);
                    h.u32(*site);
                }
                CheckOp::ConcExit { site } => {
                    h.tag(4);
                    h.u32(*site);
                }
                CheckOp::P2pEpoch { span: _ } => h.tag(5),
            }
        }
    }
}

fn hash_directive(h: &mut Fnv128, d: &Directive) {
    h.tag(0x20);
    match d {
        // Span-free variants: Debug covers every field.
        Directive::ParallelEnd { .. }
        | Directive::SingleEnd { .. }
        | Directive::MasterEnd { .. }
        | Directive::CriticalEnd { .. }
        | Directive::WorkshareEnd { .. }
        | Directive::PForInit { .. }
        | Directive::SectionBegin { .. }
        | Directive::SectionEnd { .. } => {
            h.tag(0);
            let _ = write!(h, "{d:?}");
        }
        Directive::ParallelBegin {
            region,
            num_threads,
            span: _,
        } => {
            h.tag(1);
            let _ = write!(h, "{region:?}{num_threads:?}");
        }
        Directive::SingleBegin {
            region,
            nowait,
            chosen,
            span: _,
        } => {
            h.tag(2);
            let _ = write!(h, "{region:?}{nowait}{chosen:?}");
        }
        Directive::MasterBegin {
            region,
            chosen,
            span: _,
        } => {
            h.tag(3);
            let _ = write!(h, "{region:?}{chosen:?}");
        }
        Directive::CriticalBegin { region, span: _ } => {
            h.tag(4);
            let _ = write!(h, "{region:?}");
        }
        Directive::WorkshareBegin {
            region,
            kind,
            nowait,
            span: _,
        } => {
            h.tag(5);
            let _ = write!(h, "{region:?}{kind:?}{nowait}");
        }
        Directive::Barrier {
            implicit,
            region,
            span: _,
        } => {
            h.tag(6);
            let _ = write!(h, "{implicit}{region:?}");
        }
    }
}

fn hash_terminator(h: &mut Fnv128, t: &Terminator) {
    h.tag(0x30);
    match t {
        Terminator::Goto(b) => {
            h.tag(0);
            h.u32(b.0);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            span: _,
        } => {
            h.tag(1);
            let _ = write!(h, "{cond:?}");
            h.u32(then_bb.0);
            h.u32(else_bb.0);
        }
        Terminator::Return { value, span: _ } => {
            h.tag(2);
            let _ = write!(h, "{value:?}");
        }
        Terminator::Unreachable => h.tag(3),
    }
}

/// A span-free program point: `(function index, block, instruction
/// index)`. Stored values name positions this way; [`span_at`] turns one
/// into the live instruction's span when a warning is built.
pub type Locator = (usize, BlockId, usize);

/// The span the instruction at `loc` has *now*.
pub fn span_at(m: &Module, (fi, b, ii): Locator) -> Span {
    m.funcs[fi].blocks[b.index()].instrs[ii]
        .span()
        .unwrap_or(Span::DUMMY)
}

/// What [`QueryDb::reconcile`] compares for an edited function: the
/// structural fingerprint that keys its own slots, and its projection
/// onto each module table's inputs — so an edit touching none of a
/// family's inputs leaves that family's table in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FuncKey {
    fp: Fingerprint,
    /// Inputs of the communicator resolution: `0` when the function has
    /// no `comm`-typed register (the resolver's fast path), else a
    /// span-insensitive hash of the signature, the register types and
    /// every instruction defining a `comm`-typed register, with its
    /// position (class definitions are keyed by [`Locator`]).
    comm: u128,
    /// Same projection for `request`-typed registers.
    req: u128,
    /// Inputs of the p2p matcher: the full structural fingerprint when
    /// the function contains any point-to-point or wait operation
    /// (matching reads sites, waits *and* dominators), the sentinel `1`
    /// when it only contains `MPI_Finalize` (the epoch census walks all
    /// functions for finalize presence), else `0`.
    p2p: u128,
}

impl FuncKey {
    fn of(f: &FuncIr) -> FuncKey {
        let fp = fingerprint(f);
        let mpi_ops = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Mpi { op, .. } => Some(op),
                _ => None,
            });
        let mut p2p = 0;
        for op in mpi_ops {
            match op {
                MpiIr::Send { .. }
                | MpiIr::Recv { .. }
                | MpiIr::Isend { .. }
                | MpiIr::Irecv { .. }
                | MpiIr::Wait { .. }
                | MpiIr::Waitall { .. } => {
                    p2p = fp.0;
                    break;
                }
                MpiIr::Finalize => p2p = 1,
                _ => {}
            }
        }
        FuncKey {
            fp,
            comm: typed_def_fp(f, Type::Comm),
            req: typed_def_fp(f, Type::Request),
            p2p,
        }
    }
}

/// Span-insensitive hash of everything the per-register lattice
/// resolution of `ty`-typed registers reads from `f`.
fn typed_def_fp(f: &FuncIr, ty: Type) -> u128 {
    if !f.reg_types.contains(&ty) {
        return 0;
    }
    let mut h = Fnv128::new();
    h.tag(0xD0);
    let _ = write!(h, "{:?}|{:?}", f.params, f.reg_types);
    for b in &f.blocks {
        h.tag(0xB1);
        for (ii, i) in b.instrs.iter().enumerate() {
            if i.dest()
                .is_some_and(|d| f.reg_types.get(d.index()) == Some(&ty))
            {
                h.u32(ii as u32);
                hash_instr(&mut h, i);
            }
        }
    }
    h.0
}

/// One function's call-graph contribution, derived from its IR alone —
/// which makes it cacheable by [`fingerprint`] (`Instr::Call` hashes the
/// callee name, so a retargeted call changes the key). The
/// interprocedural context fixpoint re-reads these every check; caching
/// them spares the full instruction re-walk (and its per-site string
/// allocations) for every green function.
#[derive(Debug, Clone)]
pub struct CallSummary {
    /// Does the function itself issue collective events (collective ops
    /// or communicator-management collectives)?
    pub own_bearing: bool,
    /// Does the function contain *any* MPI instruction (including p2p)?
    /// Gates the fact store's per-block event derivation: a function
    /// with no MPI and no collective-bearing callees cannot produce
    /// events, so its blocks are never walked on a warm re-check.
    pub has_mpi: bool,
    /// Every call site as `(block, instruction index, callee)`, in block
    /// order then instruction order. A multithreaded-call warning reads
    /// the call's span from the live instruction.
    pub call_sites: Vec<(BlockId, usize, String)>,
}

/// Compute one function's [`CallSummary`] from its IR (one walk).
pub fn call_summary(f: &FuncIr) -> CallSummary {
    let mut own_bearing = false;
    let mut has_mpi = false;
    let mut call_sites = Vec::new();
    for (bid, b) in f.iter_blocks() {
        for (ii, i) in b.instrs.iter().enumerate() {
            match i {
                Instr::Mpi { op, .. } => {
                    has_mpi = true;
                    own_bearing |= op.collective_kind().is_some() || op.comm_mgmt().is_some();
                }
                Instr::Call { func, .. } => call_sites.push((bid, ii, func.clone())),
                _ => {}
            }
        }
    }
    CallSummary {
        own_bearing,
        has_mpi,
        call_sites,
    }
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
    /// Dirty entries whose recomputed fingerprint still matched (the
    /// edit was structurally a no-op — the red-green short-circuit).
    pub greened: u64,
    /// Dirty entries whose facts were actually dropped.
    pub invalidated: u64,
    /// Module-wide communicator tables served from the table.
    pub comm_hits: u64,
    /// Module-wide communicator tables recomputed.
    pub comm_misses: u64,
    /// Module-wide request tables served from the table.
    pub req_hits: u64,
    /// Module-wide request tables recomputed.
    pub req_misses: u64,
    /// Module-wide p2p matching results served from the table.
    pub p2p_hits: u64,
    /// Module-wide p2p matching results recomputed.
    pub p2p_misses: u64,
}

/// One memoized value with its hit/miss counters. `get` and `put` are
/// separate calls because the per-function misses are batched through
/// the pool before they are stored.
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
    /// The key of the IR the stored values were derived from; present
    /// once the function has been marked dirty (see the module docs).
    key: Option<FuncKey>,
    /// Set by [`QueryDb::mark_dirty`]; cleared by reconciliation.
    dirty: bool,
    /// Parallelism words per [`InitialContext`](crate::pw::InitialContext)
    /// (index = lattice position, `ctx as usize`).
    pub(crate) pw: [Slot<Arc<PwResult>>; 3],
    /// CFG facts beside the frontier choice they were computed under
    /// (an event-presence change re-keys the slot).
    pub(crate) cfg: Slot<(bool, Arc<CfgFacts>)>,
    /// Call-graph summary (see [`CallSummary`]).
    pub(crate) summary: Slot<Arc<CallSummary>>,
}

/// The memo table. See the module docs for the contract; the pipeline
/// consults it through
/// [`AnalysisSession::check_module_in`](crate::session::AnalysisSession::check_module_in).
#[derive(Debug, Default)]
pub struct QueryDb {
    /// One entry per function, indexed like `Module::funcs`.
    funcs: Vec<FuncSlots>,
    /// The module-wide communicator tables.
    pub(crate) comms: Slot<Arc<ModuleComms>>,
    /// The module-wide request tables.
    pub(crate) reqs: Slot<Arc<ModuleRequests>>,
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

    /// Function `fi` is about to be replaced; `old` is the IR the stored
    /// values were derived from. Its key is computed now unless an
    /// earlier edit already did (two edits between checks must compare
    /// against the IR the tables were built from, not the one in
    /// between). A table that stores nothing for `old` ignores the call.
    pub fn mark_dirty(&mut self, fi: usize, old: &FuncIr) {
        let Some(e) = self.funcs.get_mut(fi).filter(|e| e.name == old.name) else {
            return;
        };
        e.key.get_or_insert_with(|| FuncKey::of(old));
        e.dirty = true;
    }

    /// The red-green pass, run before any lookup against `m`: re-key
    /// exactly the dirty functions and drop what their edits changed.
    ///
    /// A dirty entry is either *greened* (fingerprint unchanged — keep
    /// its facts) or *invalidated* (drop them); a module table goes iff
    /// some dirty function's projection for that family changed, the p2p
    /// core also when a table it was matched against went. Clean entries
    /// cost nothing. A table that belongs to another module shape —
    /// first use included — starts over with one entry per function.
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
            if !std::mem::take(&mut e.dirty) {
                continue;
            }
            let old = e.key.expect("mark_dirty stored the key");
            let new = FuncKey::of(f);
            if new.fp == old.fp {
                self.base.greened += 1;
            } else {
                self.base.invalidated += 1;
                e.pw.iter_mut().for_each(Slot::clear);
                e.cfg.clear();
                e.summary.clear();
            }
            let (comm, req) = (new.comm != old.comm, new.req != old.req);
            if comm {
                self.comms.clear();
            }
            if req {
                self.reqs.clear();
            }
            if comm || req || new.p2p != old.p2p {
                self.p2p.clear();
            }
            e.key = Some(new);
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
        }
        s.comm_hits += self.comms.hits;
        s.comm_misses += self.comms.misses;
        s.req_hits += self.reqs.hits;
        s.req_misses += self.reqs.misses;
        s.p2p_hits += self.p2p.hits;
        s.p2p_misses += self.p2p.misses;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::{compute_pw, InitialContext};
    use crate::session::AnalysisSession;
    use parcoach_front::parse_and_check;
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
        let fi = old.by_name[name];
        db.mark_dirty(fi, &old.funcs[fi]);
    }

    fn main_pw<'a>(db: &'a mut QueryDb, m: &Module) -> &'a mut Slot<Arc<PwResult>> {
        &mut db.func(m.by_name["main"]).pw[InitialContext::Sequential as usize]
    }

    #[test]
    fn fingerprint_ignores_spans() {
        let src = "fn main() { if (rank() == 0) { MPI_Barrier(); } }";
        let m0 = lower(src);
        let m1 = lower(&format!("\n\n   {src}"));
        assert_ne!(
            format!("{:?}", m0.funcs[0]),
            format!("{:?}", m1.funcs[0]),
            "spans must differ for the test to mean anything"
        );
        assert_eq!(fingerprint(&m0.funcs[0]), fingerprint(&m1.funcs[0]));
    }

    #[test]
    fn fingerprint_sees_structure() {
        let a = lower("fn main() { MPI_Barrier(); }");
        let b = lower("fn main() { MPI_Allreduce(1, SUM); }");
        let c = lower("fn main() { if (rank() == 0) { MPI_Barrier(); } }");
        let fa = fingerprint(&a.funcs[0]);
        assert_ne!(fa, fingerprint(&b.funcs[0]));
        assert_ne!(fa, fingerprint(&c.funcs[0]));
    }

    #[test]
    fn fingerprint_sees_name_and_params() {
        let m = lower("fn a(x: int) { let y = x; } fn main() { a(1); }");
        let n = lower("fn a(x: float) { let y = x; } fn main() { a(1.0); }");
        assert_ne!(fingerprint(&m.funcs[0]), fingerprint(&n.funcs[0]));
    }

    #[test]
    fn red_green_keeps_facts_on_structural_noop() {
        let m = lower("fn main() { MPI_Barrier(); }");
        let mut db = QueryDb::new();
        db.reconcile(&m);
        let pw = Arc::new(compute_pw(&m.funcs[0], InitialContext::Sequential));
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

    /// Two edits of one function between checks: the key stored by the
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
    /// keeps no reference a finished check has not released.
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
            let mut lone = |n: usize| {
                filled += 1;
                assert_eq!(n, 1, "a finished check left a reference behind");
            };
            for e in &db.funcs {
                e.pw.iter()
                    .filter_map(|s| s.value.as_ref())
                    .for_each(|v| lone(Arc::strong_count(v)));
                e.cfg
                    .value
                    .iter()
                    .for_each(|(_, v)| lone(Arc::strong_count(v)));
                e.summary
                    .value
                    .iter()
                    .for_each(|v| lone(Arc::strong_count(v)));
            }
            db.comms
                .value
                .iter()
                .for_each(|v| lone(Arc::strong_count(v)));
            db.reqs
                .value
                .iter()
                .for_each(|v| lone(Arc::strong_count(v)));
            db.p2p
                .value
                .iter()
                .for_each(|(_, v)| lone(Arc::strong_count(v)));
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
