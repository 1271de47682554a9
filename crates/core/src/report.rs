//! Static-analysis warnings and the aggregate report.
//!
//! "At compile-time our analysis issues warnings for potential MPI
//! collective errors within an MPI process and between MPI processes.
//! The type of each potential error is specified (collective mismatch,
//! concurrent collective calls, …) with the names and lines in the
//! source code of MPI collective calls involved." (paper §4)

use crate::pw::InitialContext;
use parcoach_front::ast::ThreadLevel;
use parcoach_front::diag::{self, Diagnostic, Severity};
use parcoach_front::span::{SourceMap, Span};
use parcoach_ir::func::Module;
use parcoach_ir::types::BlockId;
use parcoach_ir::{span_at, Locator};
use std::fmt::{self, Write as _};

/// The kind of potential error a warning reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WarningKind {
    /// Phase 1: a collective whose parallelism word is not in `L` — it
    /// may be executed by several non-synchronized threads.
    MultithreadedCollective,
    /// Phase 1 variant: nested parallelism around the collective (one
    /// executor per team).
    NestedParallelismCollective,
    /// Phase 1 interprocedural variant: a function containing collectives
    /// is called from a multithreaded context.
    MultithreadedCall,
    /// Phase 2: two collectives in *concurrent monothreaded regions* —
    /// their relative order is nondeterministic.
    ConcurrentCollectives,
    /// Phase 2 variant: a collective-bearing monothreaded region inside a
    /// loop with no barrier on the cycle — concurrent with itself across
    /// iterations.
    SelfConcurrentRegion,
    /// Phase 3 (Algorithm 1): the set of executed collectives depends on
    /// a conditional — processes may not all execute the same sequence.
    CollectiveMismatch,
    /// The parallel-construct/barrier structure itself differs between
    /// branches (a barrier on one path only): candidate thread deadlock.
    BarrierDivergence,
    /// A collective requires a higher MPI thread level than the program
    /// requested via `MPI_Init_thread`.
    InsufficientThreadLevel,
    /// Point-to-point matching: a send or receive whose (communicator,
    /// tag) key no operation of the opposite direction can ever match.
    UnmatchedP2p,
    /// Point-to-point matching: a receive that precedes every matching
    /// send on every path — the head-to-head `recv; send` deadlock.
    /// For non-blocking receives the blocking point is the wait, so the
    /// warning anchors there.
    P2pOrder,
    /// Request life-cycle: an `MPI_Isend`/`MPI_Irecv` whose request no
    /// wait in the function can ever complete — the request leaks.
    UnwaitedRequest,
    /// Request life-cycle: a wait whose operand is never produced by a
    /// post on any path (IR-level invariant violation).
    WaitWithoutPost,
}

impl WarningKind {
    /// Stable machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            WarningKind::MultithreadedCollective => "multithreaded-collective",
            WarningKind::NestedParallelismCollective => "nested-parallelism-collective",
            WarningKind::MultithreadedCall => "multithreaded-call",
            WarningKind::ConcurrentCollectives => "concurrent-collectives",
            WarningKind::SelfConcurrentRegion => "self-concurrent-region",
            WarningKind::CollectiveMismatch => "collective-mismatch",
            WarningKind::BarrierDivergence => "barrier-divergence",
            WarningKind::InsufficientThreadLevel => "insufficient-thread-level",
            WarningKind::UnmatchedP2p => "unmatched-p2p",
            WarningKind::P2pOrder => "mismatched-order",
            WarningKind::UnwaitedRequest => "unwaited-request",
            WarningKind::WaitWithoutPost => "wait-without-post",
        }
    }

    /// Human-readable category, as the paper's error-type strings.
    pub fn describe(self) -> &'static str {
        match self {
            WarningKind::MultithreadedCollective => "collective in multithreaded context",
            WarningKind::NestedParallelismCollective => "collective under nested parallelism",
            WarningKind::MultithreadedCall => {
                "call to collective-bearing function from multithreaded context"
            }
            WarningKind::ConcurrentCollectives => "concurrent collective calls",
            WarningKind::SelfConcurrentRegion => {
                "collective region concurrent with itself across loop iterations"
            }
            WarningKind::CollectiveMismatch => "collective mismatch",
            WarningKind::BarrierDivergence => "control-flow divergent barrier",
            WarningKind::InsufficientThreadLevel => "insufficient MPI thread level",
            WarningKind::UnmatchedP2p => "unmatched point-to-point operation",
            WarningKind::P2pOrder => "point-to-point receive/send order mismatch",
            WarningKind::UnwaitedRequest => "non-blocking request never completed",
            WarningKind::WaitWithoutPost => "wait on a never-posted request",
        }
    }
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// One static warning.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticWarning {
    /// Error category.
    pub kind: WarningKind,
    /// Function the warning is in.
    pub func: String,
    /// Main message (includes collective names).
    pub message: String,
    /// Primary source location (the collective, usually).
    pub span: Span,
    /// Secondary locations: conditionals, sibling collectives, parallel
    /// constructs responsible.
    pub related: Vec<(Span, String)>,
}

impl StaticWarning {
    /// The message as diagnostics print it: category, text, function.
    fn headline(&self) -> impl fmt::Display + '_ {
        struct Headline<'a>(&'a StaticWarning);
        impl fmt::Display for Headline<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let w = self.0;
                write!(f, "[{}] {} (in `{}`)", w.kind, w.message, w.func)
            }
        }
        Headline(self)
    }

    /// Convert into a frontend diagnostic for uniform rendering.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let mut d = Diagnostic::warning(self.kind.code(), self.headline().to_string(), self.span);
        for (span, label) in &self.related {
            d = d.with_note(*span, label.clone());
        }
        d
    }
}

/// A warning as the memo table stores it: positions are [`Locator`]s,
/// resolved against the live IR by [`WarningCore::materialize`]. The
/// message may embed anything that is stable while the inputs of the
/// value it is stored in are — callee names, parallelism words, tags,
/// communicator-class labels — and nothing that is numbered per check.
#[derive(Debug, Clone, PartialEq)]
pub struct WarningCore {
    /// Error category.
    pub kind: WarningKind,
    /// Main message.
    pub message: String,
    /// Primary location; the warning belongs to the function it is in.
    pub site: Locator,
    /// Secondary locations (`None`: the header of the function the
    /// warning is in, e.g. for a context inherited from a caller).
    pub related: Vec<(Option<Locator>, String)>,
}

impl WarningCore {
    /// The span-bearing warning, with every position read from `m` as it
    /// is now.
    pub fn materialize(&self, m: &Module) -> StaticWarning {
        let f = &m.funcs[self.site.func()];
        StaticWarning {
            kind: self.kind,
            func: f.name.clone(),
            message: self.message.clone(),
            span: span_at(m, self.site),
            related: self
                .related
                .iter()
                .map(|(loc, label)| (loc.map_or(f.span, |l| span_at(m, l)), label.clone()))
                .collect(),
        }
    }
}

/// Instrumentation demand produced by the static phase: which checks
/// each function needs (the paper's sets `S`, `S_ipw`, `S_cc`), one
/// record per function, indexed like `Module::funcs`.
#[derive(Debug, Clone, Default)]
pub struct InstrumentationPlan {
    /// The record of function `i` is `funcs[i]`.
    pub funcs: Vec<FuncPlan>,
}

/// The checks one function needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncPlan {
    /// A `CC` before every collective and every return (the function
    /// contains suspect collectives or mismatch candidates, or is called
    /// under a divergent condition).
    pub cc: bool,
    /// Suspect collective blocks (set `S`), sorted and deduplicated —
    /// the reason for `cc`.
    pub suspects: Vec<BlockId>,
    /// Blocks whose collectives' monothread context must be verified at
    /// run time (set `S_ipw`), sorted and deduplicated.
    pub monothread: Vec<BlockId>,
    /// Monothreaded regions that need concurrency counting (set `S_cc`),
    /// as `(region id, site id)` in discovery order. Site ids are unique
    /// across the module; regions that may overlap share one.
    pub concurrency: Vec<(u32, u32)>,
    /// The function's `MPI_Finalize` gets the point-to-point epoch
    /// census (the module has suspect p2p traffic).
    pub p2p_epoch: bool,
}

impl FuncPlan {
    /// True when the function needs no check at all.
    pub fn is_empty(&self) -> bool {
        !self.cc && self.monothread.is_empty() && self.concurrency.is_empty() && !self.p2p_epoch
    }
}

impl InstrumentationPlan {
    /// `per_func` summed over the functions.
    pub fn sum(&self, per_func: impl Fn(&FuncPlan) -> usize) -> usize {
        self.funcs.iter().map(per_func).sum()
    }
}

/// The complete result of the static phase over a module.
#[derive(Debug, Clone, Default)]
pub struct StaticReport {
    /// All warnings, in discovery order.
    pub warnings: Vec<StaticWarning>,
    /// The instrumentation demand.
    pub plan: InstrumentationPlan,
    /// Initial context each function was analysed under, indexed like
    /// `Module::funcs`.
    pub contexts: Vec<InitialContext>,
    /// Thread level requested by the program (`MPI_Init_thread`), if any.
    pub requested_level: Option<ThreadLevel>,
    /// Highest thread level any collective requires.
    pub required_level: ThreadLevel,
    /// PDF+ divergence candidates found by Algorithm 1 *before* the
    /// balanced-arms refinement (ablation metric E5b).
    pub pdf_candidates: usize,
    /// Candidates confirmed after refinement.
    pub pdf_confirmed: usize,
}

impl StaticReport {
    /// Count warnings of a kind.
    pub fn count(&self, kind: WarningKind) -> usize {
        self.warnings.iter().filter(|w| w.kind == kind).count()
    }

    /// True when no potential error was found: the program is statically
    /// verified and needs **no instrumentation** (the selective-
    /// instrumentation fast path).
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }

    /// Render all warnings against the source map.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            let notes = w
                .related
                .iter()
                .map(|(span, label)| (*span, label.as_str()));
            diag::render_parts(
                &mut out,
                sm,
                Severity::Warning,
                w.headline(),
                w.kind.code(),
                w.span,
                notes,
            );
            out.push('\n');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{} warning(s); instrumentation: {} collective site(s), {} monothread check(s), {} concurrency site(s), {} p2p epoch function(s)",
            self.warnings.len(),
            self.plan.sum(|f| f.suspects.len()),
            self.plan.sum(|f| f.monothread.len()),
            self.plan.sum(|f| f.concurrency.len()),
            self.plan.sum(|f| usize::from(f.p2p_epoch)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_codes() {
        let all = [
            WarningKind::MultithreadedCollective,
            WarningKind::NestedParallelismCollective,
            WarningKind::MultithreadedCall,
            WarningKind::ConcurrentCollectives,
            WarningKind::SelfConcurrentRegion,
            WarningKind::CollectiveMismatch,
            WarningKind::BarrierDivergence,
            WarningKind::InsufficientThreadLevel,
            WarningKind::UnmatchedP2p,
            WarningKind::P2pOrder,
            WarningKind::UnwaitedRequest,
            WarningKind::WaitWithoutPost,
        ];
        let mut codes: Vec<_> = all.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn warning_renders_with_related() {
        let sm = SourceMap::new("x.mh", "if (rank() == 0) { MPI_Barrier(); }\n");
        let w = StaticWarning {
            kind: WarningKind::CollectiveMismatch,
            func: "main".into(),
            message: "MPI_Barrier may not be executed by all processes".into(),
            span: Span::new(19, 32),
            related: vec![(Span::new(0, 2), "depends on this conditional".into())],
        };
        let s = w.to_diagnostic().render(&sm);
        assert!(s.contains("collective mismatch"), "{s}");
        assert!(s.contains("MPI_Barrier"), "{s}");
        assert!(s.contains("depends on this conditional"), "{s}");
    }

    #[test]
    fn clean_report() {
        let r = StaticReport::default();
        assert!(r.is_clean());
        assert_eq!(r.plan.sum(|f| f.suspects.len()), 0);
    }
}
