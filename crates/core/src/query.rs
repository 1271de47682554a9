//! Content-hash-keyed memoized queries for incremental re-analysis.
//!
//! `parcoachd` holds one [`QueryDb`] per open document and re-runs the
//! whole static pipeline after every edit. The pipeline stays
//! byte-identical to a cold run because only **span-free** derived facts
//! are served from the cache:
//!
//! * the parallelism-word result per `(function, initial context)` —
//!   the costliest part of the interprocedural fixpoint
//!   ([`crate::context`]). Its only spans live in
//!   [`Divergence`](crate::pw::Divergence)s, which [`QueryDb::shift`]
//!   rebases when an edit moves the function within the document;
//! * the CFG facts per function ([`CfgFacts`]: dominator/post-dominator
//!   trees, frontiers, natural loops) — pure block-graph structure with
//!   no spans at all;
//! * the **module-wide** tables — communicator classes
//!   ([`ModuleComms`]), request classes ([`ModuleRequests`]) and the
//!   p2p matching core ([`P2pCore`]) — each keyed by a hash of every
//!   function's projection of that family's inputs (`SubFps`), so an
//!   edit touching no communicator/request/p2p instruction anywhere
//!   reuses the whole table. The p2p core stores warning *locators*
//!   (function/block/instruction indices), never spans; the pipeline
//!   re-reads spans from the live IR when materializing warnings.
//!
//! Everything span-bearing (block→event maps, warning assembly, the
//! interning merge) is re-derived from the span-correct IR on every
//! check; it is cheap compared to the cached queries.
//!
//! ## Keys and the red-green pass
//!
//! Each function's cache entries are keyed by a 128-bit **span-insensitive
//! structural fingerprint** of its IR ([`fingerprint`]): every semantic
//! field is hashed, every `Span` is skipped. An edit that only moves a
//! function (whitespace above it) keeps its fingerprint, so its facts
//! stay *green* and are reused; an edit that changes its structure turns
//! the entry *red* and the next check re-derives its facts. The session
//! marks edited functions dirty ([`QueryDb::mark_dirty`]); the
//! reconciliation pass ([`QueryDb::reconcile_module`]) re-fingerprints
//! exactly the dirty set and compares against the stored hash — a
//! reverted or no-op edit turns green again without recomputation
//! (red-green invalidation). Module-level inputs the cached queries read
//! (the callee context lattice, event presence) are part of the key
//! instead: pw is keyed by [`InitialContext`], CFG facts by whether the
//! frontier set was materialized.

use crate::comm::ModuleComms;
use crate::facts::CfgFacts;
use crate::p2p::P2pCore;
use crate::pw::{InitialContext, PwResult};
use crate::request::ModuleRequests;
use parcoach_front::ast::Type;
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiIr, Terminator};
use parcoach_ir::types::BlockId;
use std::collections::HashMap;
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

/// Per-function projections of the **module-level** fact inputs: what
/// one function contributes to the communicator tables, the request
/// tables and the p2p matcher. Hashed together in module order they key
/// the module-wide caches ([`QueryDb::module_comm_key`] and friends), so
/// an edit that touches none of a family's inputs anywhere in the module
/// reuses that family's table wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubFps {
    /// Inputs of the communicator resolution: `0` when the function has
    /// no `comm`-typed register (the resolver's fast path), else a
    /// span-insensitive hash of the signature, the register types and
    /// every instruction defining a `comm`-typed register.
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
        for i in &b.instrs {
            if i.dest()
                .is_some_and(|d| f.reg_types.get(d.index()) == Some(&ty))
            {
                hash_instr(&mut h, i);
            }
        }
    }
    h.0
}

fn compute_sub_fps(f: &FuncIr, full: Option<Fingerprint>) -> SubFps {
    let mut has_p2p = false;
    let mut has_finalize = false;
    for b in &f.blocks {
        for i in &b.instrs {
            if let Instr::Mpi { op, .. } = i {
                match op {
                    MpiIr::Send { .. }
                    | MpiIr::Recv { .. }
                    | MpiIr::Isend { .. }
                    | MpiIr::Irecv { .. }
                    | MpiIr::Wait { .. }
                    | MpiIr::Waitall { .. } => has_p2p = true,
                    MpiIr::Finalize => has_finalize = true,
                    _ => {}
                }
            }
        }
    }
    let p2p = if has_p2p {
        full.unwrap_or_else(|| fingerprint(f)).0
    } else if has_finalize {
        1
    } else {
        0
    };
    SubFps {
        comm: typed_def_fp(f, Type::Comm),
        req: typed_def_fp(f, Type::Request),
        p2p,
    }
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
    /// Every call site as `(block, callee, span)`, in block order then
    /// instruction order. Spans feed multithreaded-call warnings, so
    /// [`QueryDb::shift`] rebases them like pw divergences.
    pub call_sites: Vec<(BlockId, String, Span)>,
}

/// Compute one function's [`CallSummary`] from its IR (one walk).
pub fn call_summary(f: &FuncIr) -> CallSummary {
    let mut own_bearing = false;
    let mut has_mpi = false;
    let mut call_sites = Vec::new();
    for (bid, b) in f.iter_blocks() {
        for i in &b.instrs {
            match i {
                Instr::Mpi { op, .. } => {
                    has_mpi = true;
                    own_bearing |= op.collective_kind().is_some() || op.comm_mgmt().is_some();
                }
                Instr::Call { func, span, .. } => call_sites.push((bid, func.clone(), *span)),
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
/// asserted on by the incrementality tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Parallelism-word results served from cache.
    pub pw_hits: u64,
    /// Parallelism-word results recomputed.
    pub pw_misses: u64,
    /// CFG facts served from cache.
    pub cfg_hits: u64,
    /// CFG facts recomputed.
    pub cfg_misses: u64,
    /// Red entries whose recomputed fingerprint still matched (edit was
    /// structurally a no-op — the red-green short-circuit).
    pub greened: u64,
    /// Red entries whose facts were actually dropped.
    pub invalidated: u64,
    /// Module-wide communicator tables served from cache.
    pub comm_hits: u64,
    /// Module-wide communicator tables recomputed.
    pub comm_misses: u64,
    /// Module-wide request tables served from cache.
    pub req_hits: u64,
    /// Module-wide request tables recomputed.
    pub req_misses: u64,
    /// Module-wide p2p matching results served from cache.
    pub p2p_hits: u64,
    /// Module-wide p2p matching results recomputed.
    pub p2p_misses: u64,
}

/// One function's memoized facts.
#[derive(Debug, Default)]
struct FuncEntry {
    fp: Option<Fingerprint>,
    /// Set by [`QueryDb::mark_dirty`]; cleared by reconciliation.
    dirty: bool,
    /// Lazily-filled module-fact projections (see `SubFps`); dropped
    /// whenever the structural fingerprint changes.
    sub: Option<SubFps>,
    /// Cached pw per [`InitialContext`] (index = lattice position).
    pw: [Option<Arc<PwResult>>; 3],
    /// Cached CFG facts; the flag records whether the frontier set was
    /// materialized (an event-presence change re-keys the entry).
    cfg: Option<(bool, Arc<CfgFacts>)>,
    /// Cached call-graph summary (see [`CallSummary`]).
    summary: Option<Arc<CallSummary>>,
}

/// The per-document memo store. See the module docs for the caching
/// contract; the pipeline consults it through
/// [`analyze_module_db`](crate::pipeline::analyze_module_db).
#[derive(Debug, Default)]
pub struct QueryDb {
    funcs: HashMap<String, FuncEntry>,
    /// The last module-wide communicator tables, keyed by
    /// [`QueryDb::module_comm_key`].
    comms: Option<(u128, Arc<ModuleComms>)>,
    /// The last module-wide request tables, keyed by
    /// [`QueryDb::module_req_key`].
    reqs: Option<(u128, Arc<ModuleRequests>)>,
    /// The last span-free p2p matching core, keyed by
    /// [`QueryDb::module_p2p_key`].
    p2p: Option<(u128, Arc<P2pCore>)>,
    /// Running hit/miss counters.
    pub stats: QueryStats,
}

fn ctx_index(ctx: InitialContext) -> usize {
    match ctx {
        InitialContext::Sequential => 0,
        InitialContext::ParallelSingle => 1,
        InitialContext::Parallel => 2,
    }
}

impl QueryDb {
    /// An empty store (everything misses once).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark one function's facts as possibly stale. Called by the
    /// session for every edited function; reconciliation decides whether
    /// the facts actually die (red) or survive (green).
    pub fn mark_dirty(&mut self, name: &str) {
        self.funcs.entry(name.to_string()).or_default().dirty = true;
    }

    /// Rebase the spans inside `name`'s cached facts by `delta` bytes —
    /// an edit to an *earlier* function moved this one within the
    /// document. Only pw divergences carry spans; CFG facts are
    /// span-free.
    pub fn shift(&mut self, name: &str, delta: i64) {
        if delta == 0 {
            return;
        }
        let Some(entry) = self.funcs.get_mut(name) else {
            return;
        };
        for slot in entry.pw.iter_mut().flatten() {
            if slot.divergences.is_empty() {
                continue;
            }
            let pw = Arc::make_mut(slot);
            for d in &mut pw.divergences {
                d.span = shift_span(d.span, delta);
            }
        }
        if let Some(s) = entry.summary.as_mut() {
            if !s.call_sites.is_empty() {
                let s = Arc::make_mut(s);
                for (_, _, span) in &mut s.call_sites {
                    *span = shift_span(*span, delta);
                }
            }
        }
    }

    /// The red-green pass: bring every function's stored fingerprint up
    /// to date and drop the facts of functions whose structure changed.
    ///
    /// Clean entries are a hash lookup; dirty entries are
    /// re-fingerprinted and either *greened* (hash unchanged — keep the
    /// facts) or *invalidated* (drop them). Functions deleted from the
    /// module lose their entries. Must run before any `pw`/`cfg` lookup
    /// against `m` — [`analyze_module_db`](crate::pipeline::analyze_module_db)
    /// does this.
    pub fn reconcile_module(&mut self, m: &Module) {
        self.funcs.retain(|name, _| m.by_name.contains_key(name));
        for f in &m.funcs {
            let entry = self.funcs.entry(f.name.clone()).or_default();
            if entry.fp.is_some() && !entry.dirty {
                continue;
            }
            let fp = fingerprint(f);
            if entry.fp == Some(fp) {
                self.stats.greened += 1;
            } else {
                if entry.fp.is_some() {
                    self.stats.invalidated += 1;
                }
                entry.pw = [None, None, None];
                entry.cfg = None;
                entry.summary = None;
                entry.sub = None;
                entry.fp = Some(fp);
            }
            entry.dirty = false;
        }
    }

    /// Cached pw of `name` under `ctx`, if green.
    pub fn pw(&mut self, name: &str, ctx: InitialContext) -> Option<Arc<PwResult>> {
        let hit = self
            .funcs
            .get(name)
            .and_then(|e| e.pw[ctx_index(ctx)].clone());
        match hit {
            Some(pw) => {
                self.stats.pw_hits += 1;
                Some(pw)
            }
            None => {
                self.stats.pw_misses += 1;
                None
            }
        }
    }

    /// Record a freshly computed pw for `name` under `ctx`.
    pub fn insert_pw(&mut self, name: &str, ctx: InitialContext, pw: Arc<PwResult>) {
        self.funcs.entry(name.to_string()).or_default().pw[ctx_index(ctx)] = Some(pw);
    }

    /// Cached CFG facts of `name`, if green and materialized with the
    /// same frontier choice.
    pub fn cfg(&mut self, name: &str, with_pdf: bool) -> Option<Arc<CfgFacts>> {
        let hit = self.funcs.get(name).and_then(|e| match &e.cfg {
            Some((p, cfg)) if *p == with_pdf => Some(cfg.clone()),
            _ => None,
        });
        match hit {
            Some(cfg) => {
                self.stats.cfg_hits += 1;
                Some(cfg)
            }
            None => {
                self.stats.cfg_misses += 1;
                None
            }
        }
    }

    /// Record freshly computed CFG facts for `name`.
    pub fn insert_cfg(&mut self, name: &str, with_pdf: bool, cfg: Arc<CfgFacts>) {
        self.funcs.entry(name.to_string()).or_default().cfg = Some((with_pdf, cfg));
    }

    /// Cached call-graph summary of `name`, if green.
    pub fn summary(&self, name: &str) -> Option<Arc<CallSummary>> {
        self.funcs.get(name).and_then(|e| e.summary.clone())
    }

    /// Record a freshly computed call summary for `name`.
    pub fn insert_summary(&mut self, name: &str, s: Arc<CallSummary>) {
        self.funcs.entry(name.to_string()).or_default().summary = Some(s);
    }

    /// `f`'s module-fact projections, computing and caching them on
    /// first use after an invalidation.
    fn sub_fps(&mut self, f: &FuncIr) -> SubFps {
        let e = self.funcs.entry(f.name.clone()).or_default();
        if let Some(s) = e.sub {
            return s;
        }
        let s = compute_sub_fps(f, e.fp);
        e.sub = Some(s);
        s
    }

    fn module_key(&mut self, m: &Module, tag: u8, proj: impl Fn(SubFps) -> u128) -> u128 {
        let mut h = Fnv128::new();
        h.tag(tag);
        for f in &m.funcs {
            let sub = self.sub_fps(f);
            h.bytes(f.name.as_bytes());
            h.tag(0x00);
            h.bytes(&proj(sub).to_le_bytes());
        }
        h.0
    }

    /// Cache key of the module-wide communicator tables: every
    /// function's `(name, comm projection)` in module order, so the key
    /// is green exactly when no function's communicator inputs changed.
    pub fn module_comm_key(&mut self, m: &Module) -> u128 {
        self.module_key(m, 0xC1, |s| s.comm)
    }

    /// Cache key of the module-wide request tables (see
    /// [`QueryDb::module_comm_key`]).
    pub fn module_req_key(&mut self, m: &Module) -> u128 {
        self.module_key(m, 0xC2, |s| s.req)
    }

    /// Cache key of the module-wide p2p matching core. Covers everything
    /// the matcher reads: the communicator and request tables (their
    /// keys), per-function p2p/finalize projections, and
    /// entry-reachability (a call-graph edit anywhere can silence or
    /// unmask sites without touching any p2p instruction).
    pub fn module_p2p_key(&mut self, m: &Module, reachable: &[bool]) -> u128 {
        let comm_key = self.module_comm_key(m);
        let req_key = self.module_req_key(m);
        let mut h = Fnv128::new();
        h.tag(0xC3);
        h.bytes(&comm_key.to_le_bytes());
        h.bytes(&req_key.to_le_bytes());
        for (f, r) in m.funcs.iter().zip(reachable) {
            let sub = self.sub_fps(f);
            h.bytes(f.name.as_bytes());
            h.tag(u8::from(*r));
            h.bytes(&sub.p2p.to_le_bytes());
        }
        h.0
    }

    /// The cached module-wide communicator tables, if keyed by `key`.
    pub fn module_comms(&mut self, key: u128) -> Option<Arc<ModuleComms>> {
        match &self.comms {
            Some((k, t)) if *k == key => {
                self.stats.comm_hits += 1;
                Some(t.clone())
            }
            _ => {
                self.stats.comm_misses += 1;
                None
            }
        }
    }

    /// Record freshly computed communicator tables under `key`.
    pub fn insert_module_comms(&mut self, key: u128, t: Arc<ModuleComms>) {
        self.comms = Some((key, t));
    }

    /// The cached module-wide request tables, if keyed by `key`.
    pub fn module_reqs(&mut self, key: u128) -> Option<Arc<ModuleRequests>> {
        match &self.reqs {
            Some((k, t)) if *k == key => {
                self.stats.req_hits += 1;
                Some(t.clone())
            }
            _ => {
                self.stats.req_misses += 1;
                None
            }
        }
    }

    /// Record freshly computed request tables under `key`.
    pub fn insert_module_reqs(&mut self, key: u128, t: Arc<ModuleRequests>) {
        self.reqs = Some((key, t));
    }

    /// The cached p2p matching core, if keyed by `key`.
    pub fn p2p_core(&mut self, key: u128) -> Option<Arc<P2pCore>> {
        match &self.p2p {
            Some((k, c)) if *k == key => {
                self.stats.p2p_hits += 1;
                Some(c.clone())
            }
            _ => {
                self.stats.p2p_misses += 1;
                None
            }
        }
    }

    /// Record a freshly computed p2p matching core under `key`.
    pub fn insert_p2p_core(&mut self, key: u128, c: Arc<P2pCore>) {
        self.p2p = Some((key, c));
    }
}

fn shift_span(span: parcoach_front::span::Span, delta: i64) -> parcoach_front::span::Span {
    use parcoach_front::span::Span;
    if span.is_dummy() {
        return span;
    }
    let lo = span.lo as i64 + delta;
    let hi = span.hi as i64 + delta;
    Span::new(lo.max(0) as u32, hi.max(0) as u32)
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
        db.reconcile_module(&m);
        db.insert_pw(
            "main",
            InitialContext::Sequential,
            Arc::new(crate::pw::compute_pw(
                &m.funcs[0],
                InitialContext::Sequential,
            )),
        );
        // A whitespace-style edit: same structure, different spans.
        let m2 = lower("   fn main() { MPI_Barrier(); }");
        db.mark_dirty("main");
        db.reconcile_module(&m2);
        assert_eq!(db.stats.greened, 1);
        assert!(db.pw("main", InitialContext::Sequential).is_some());
        // A real edit kills the entry.
        let m3 = lower("fn main() { MPI_Barrier(); MPI_Barrier(); }");
        db.mark_dirty("main");
        db.reconcile_module(&m3);
        assert_eq!(db.stats.invalidated, 1);
        assert!(db.pw("main", InitialContext::Sequential).is_none());
    }

    #[test]
    fn reconcile_drops_deleted_functions() {
        let m = lower("fn gone() { let x = 1; } fn main() { gone(); }");
        let mut db = QueryDb::new();
        db.reconcile_module(&m);
        db.insert_pw(
            "gone",
            InitialContext::Sequential,
            Arc::new(crate::pw::compute_pw(
                &m.funcs[0],
                InitialContext::Sequential,
            )),
        );
        let m2 = lower("fn main() { let x = 1; }");
        db.reconcile_module(&m2);
        assert!(db.pw("gone", InitialContext::Sequential).is_none());
    }

    #[test]
    fn shift_rebases_divergence_spans() {
        use parcoach_front::span::Span;
        let m = lower("fn main() { parallel { if (thread_num() == 0) { barrier; } } }");
        let mut pw = crate::pw::compute_pw(&m.funcs[0], InitialContext::Sequential);
        assert!(!pw.divergences.is_empty(), "one-armed barrier diverges");
        // Joins land on synthesized blocks (dummy spans); pin the rebase
        // arithmetic on a real span and the dummy-preservation on the rest.
        pw.divergences[0].span = Span::new(40, 47);
        let mut db = QueryDb::new();
        db.reconcile_module(&m);
        db.insert_pw("main", InitialContext::Sequential, Arc::new(pw));
        db.shift("main", 7);
        let shifted = db.pw("main", InitialContext::Sequential).unwrap();
        assert_eq!(shifted.divergences[0].span, Span::new(47, 54));
        for d in &shifted.divergences[1..] {
            assert!(d.span.is_dummy() || d.span.lo >= 7);
        }
    }
}
