//! The analysis entry point.
//!
//! [`AnalysisSession`] is one builder-configured object that owns the
//! analysis options ([`AnalysisOptions`]) and the timings of its last
//! check:
//!
//! ```
//! use parcoach_core::session::AnalysisSession;
//! use parcoach_front::parse_and_check;
//! use parcoach_ir::lower::lower_program;
//!
//! let unit = parse_and_check("t.mh",
//!     "fn main() { if (rank() == 0) { MPI_Barrier(); } }").unwrap();
//! let module = lower_program(&unit.program, &unit.signatures);
//! let mut session = AnalysisSession::builder()
//!     .refine_matching(false)
//!     .build();
//! let report = session.check_module(&module);
//! assert_eq!(report.warnings.len(), 1);
//! assert!(session.timings().is_some());
//! ```
//!
//! A session holds no analysis state, so it can check any number of
//! unrelated modules. Every check runs the one pipeline, on the calling
//! thread, over a memo table ([`QueryDb`]):
//! [`AnalysisSession::check_module`] over a fresh one it drops at
//! return, [`AnalysisSession::check_module_in`] over the caller's —
//! which is how `parcoachd`'s document layer, the owner of both the
//! module and its table, makes warm re-checks fast.

use crate::cancel::{CancelToken, Cancelled};
use crate::pipeline::{analyze_module, AnalysisOptions, PhaseTimings};
use crate::pw::InitialContext;
use crate::query::QueryDb;
use crate::report::StaticReport;
use parcoach_ir::func::Module;

/// Builder for [`AnalysisSession`] — the one place the analysis is
/// configured.
pub struct AnalysisSessionBuilder {
    opts: AnalysisOptions,
}

impl AnalysisSessionBuilder {
    /// Replace the whole option block.
    pub fn options(mut self, opts: AnalysisOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The context `main` is assumed to start in.
    pub fn entry_context(mut self, ctx: InitialContext) -> Self {
        self.opts.entry_context = ctx;
        self
    }

    /// Toggle the balanced-arms refinement in the matching phase.
    pub fn refine_matching(mut self, on: bool) -> Self {
        self.opts.refine_matching = on;
        self
    }

    /// Build the session.
    pub fn build(self) -> AnalysisSession {
        AnalysisSession {
            opts: self.opts,
            timings: None,
        }
    }
}

/// A configured analysis pipeline: options + the timings of the last
/// check. The one entry point to the static phase.
pub struct AnalysisSession {
    opts: AnalysisOptions,
    /// Breakdown of the most recent check.
    timings: Option<PhaseTimings>,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl AnalysisSession {
    /// Start configuring a session with default options.
    pub fn builder() -> AnalysisSessionBuilder {
        AnalysisSessionBuilder {
            opts: AnalysisOptions::default(),
        }
    }

    /// The session's analysis options.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// Run the full static analysis of `m`, one-shot: the pipeline runs
    /// over a table created empty and dropped at return.
    pub fn check_module(&mut self, m: &Module) -> StaticReport {
        self.check_module_in(m, &mut QueryDb::new(), None)
            .expect("no token, cannot cancel")
    }

    /// The resident entry: analyze `m` over the caller's table, serving
    /// what `db` already holds and storing what it does not. Whoever
    /// owns `db` owns `m` too and has reported every edit since the last
    /// check through [`QueryDb::mark_dirty`] (see [`crate::query`]); the
    /// report is then byte-identical to a one-shot check of `m`.
    ///
    /// `token`, if any, is observed at every phase boundary: a cancelled
    /// (or deadline-expired) check returns `Err(Cancelled)` without a
    /// report. Facts computed before a cancellation stay in `db` — they
    /// are valid, so the next check starts warmer.
    pub fn check_module_in(
        &mut self,
        m: &Module,
        db: &mut QueryDb,
        token: Option<&CancelToken>,
    ) -> Result<StaticReport, Cancelled> {
        let (report, timings) = analyze_module(m, &self.opts, db, token)?;
        self.timings = Some(timings);
        Ok(report)
    }

    /// Per-phase wall-time breakdown of the most recent check.
    pub fn timings(&self) -> Option<&PhaseTimings> {
        self.timings.as_ref()
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

    /// A resident owner in miniature: check `m` over its table.
    fn check_in(s: &mut AnalysisSession, m: &Module, db: &mut QueryDb) -> StaticReport {
        s.check_module_in(m, db, None).expect("no token")
    }

    /// What the owner does just before replacing `name` in `old`.
    fn mark(db: &mut QueryDb, old: &Module, name: &str) {
        let fi = old.index(name).unwrap();
        db.mark_dirty(fi, &old.funcs[fi]);
    }

    const SRC: &str = "fn exchange() { MPI_Barrier(); }
         fn main() {
             MPI_Init();
             if (rank() == 0) { exchange(); }
             MPI_Finalize();
         }";

    #[test]
    fn sessions_agree_and_record_timings() {
        let m = lower(SRC);
        let baseline = AnalysisSession::builder()
            .options(AnalysisOptions::default())
            .build()
            .check_module(&m);
        let mut s = AnalysisSession::builder().build();
        let new = s.check_module(&m);
        assert_eq!(format!("{baseline:?}"), format!("{new:?}"));
        assert!(s.timings().unwrap().total > std::time::Duration::ZERO);
    }

    #[test]
    fn incremental_warm_check_hits_cache_and_matches_cold() {
        let m = lower(SRC);
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        let cold_report = AnalysisSession::builder().build().check_module(&m);
        let first = check_in(&mut s, &m, &mut db);
        assert_eq!(format!("{first:?}"), format!("{cold_report:?}"));
        let misses = db.stats().pw_misses;
        assert!(misses > 0);
        // Unedited re-check: everything green, zero new misses — the
        // stored fixpoint and every function's stored findings serve it.
        let first_stats = db.stats();
        let second = check_in(&mut s, &m, &mut db);
        assert_eq!(format!("{second:?}"), format!("{cold_report:?}"));
        let stats = db.stats();
        assert_eq!(stats.pw_misses, misses);
        assert_eq!(stats.analysis_misses, first_stats.analysis_misses);
        assert_eq!(stats.analysis_hits, first_stats.analysis_hits + 2);
        assert_eq!(stats.context_hits, first_stats.context_hits + 1);
    }

    #[test]
    fn incremental_edit_invalidate_matches_cold() {
        let m = lower(SRC);
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        check_in(&mut s, &m, &mut db);
        // Edit `main` (different structure). exchange stays cached.
        let m2 = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() {
                 MPI_Init();
                 if (rank() > 1) { exchange(); } else { exchange(); }
                 MPI_Finalize();
             }",
        );
        mark(&mut db, &m, "main");
        let warm_report = check_in(&mut s, &m2, &mut db);
        let cold_report = AnalysisSession::builder().build().check_module(&m2);
        assert_eq!(format!("{warm_report:?}"), format!("{cold_report:?}"));
    }

    /// Edit-soak for the memoized pw query: after an edit to one
    /// function, it must miss for exactly that function and keep serving
    /// every other function from cache.
    #[test]
    fn edit_invalidates_exactly_the_dirty_function() {
        let src_v1 = "fn left() { MPI_Barrier(); }
             fn right() { MPI_Barrier(); }
             fn main() {
                 MPI_Init();
                 left();
                 right();
                 MPI_Finalize();
             }";
        // `right` structurally edited; `left` and `main` untouched.
        let src_v2 = "fn left() { MPI_Barrier(); }
             fn right() { MPI_Barrier(); MPI_Barrier(); }
             fn main() {
                 MPI_Init();
                 left();
                 right();
                 MPI_Finalize();
             }";
        let m1 = lower(src_v1);
        let m2 = lower(src_v2);
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        check_in(&mut s, &m1, &mut db);
        let cold = db.stats();
        // All three functions are analyzed in one context each.
        assert_eq!(cold.pw_misses, 3);
        assert_eq!(cold.analysis_misses, 3);
        // Unedited soak rounds: pure hits, zero new misses.
        for _ in 0..3 {
            check_in(&mut s, &m1, &mut db);
        }
        let soaked = db.stats();
        assert_eq!(soaked.pw_misses, cold.pw_misses);
        assert_eq!(soaked.analysis_misses, cold.analysis_misses);
        assert_eq!(soaked.analysis_hits, cold.analysis_hits + 3 * 3);
        // Edit exactly one function: exactly one pw miss and one
        // re-derived set of findings; the other two functions are not
        // looked at again, and neither is the call graph (`right` still
        // calls nobody and still bears collectives).
        mark(&mut db, &m1, "right");
        let edited = check_in(&mut s, &m2, &mut db);
        let after = db.stats();
        assert_eq!(after.pw_misses, soaked.pw_misses + 1);
        // (The context stage computes `right`'s words; the phases find
        // them in the table.)
        assert_eq!(after.pw_hits, soaked.pw_hits + 1);
        assert_eq!(after.analysis_misses, soaked.analysis_misses + 1);
        assert_eq!(after.analysis_hits, soaked.analysis_hits + 2);
        assert_eq!(after.context_misses, soaked.context_misses);
        // And the warm result is byte-identical to a cold analysis.
        let cold_report = AnalysisSession::builder().build().check_module(&m2);
        assert_eq!(format!("{edited:?}"), format!("{cold_report:?}"));
    }

    /// Module-memo widening: an edit touching no communicator, request
    /// or p2p instruction anywhere in the module reuses the module-wide
    /// tables wholesale — and the cached p2p core rematerializes with
    /// live spans even though the edit moved the suspect code.
    #[test]
    fn module_memo_reuses_tables_across_irrelevant_edits() {
        let body = "fn main() {
                 MPI_Init();
                 let peer = size() - 1 - rank();
                 let v = MPI_Recv(peer, 7);
                 MPI_Send(1, peer, 7);
                 compute();
                 MPI_Finalize();
             }";
        let m1 = lower(&format!("fn compute() {{ let x = 1; }}\n{body}"));
        // `compute` grows: its structure changes and `main` moves within
        // the document, but no comm/request/p2p input changes.
        let m2 = lower(&format!(
            "fn compute() {{ let x = 1; let y = x + 1; }}\n{body}"
        ));
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        let first = check_in(&mut s, &m1, &mut db);
        assert_eq!(
            first.count(crate::report::WarningKind::P2pOrder),
            1,
            "{:#?}",
            first.warnings
        );
        let cold = db.stats();
        assert_eq!(cold.handle_misses, 1);
        assert_eq!(cold.p2p_misses, 1);
        // Unedited warm re-check: pure hits.
        check_in(&mut s, &m1, &mut db);
        let warm = db.stats();
        assert_eq!(warm.handle_hits, cold.handle_hits + 1);
        assert_eq!(warm.p2p_hits, cold.p2p_hits + 1);
        assert_eq!(warm.p2p_misses, cold.p2p_misses);
        // Edit only `compute`: every module table stays green.
        mark(&mut db, &m1, "compute");
        let edited = check_in(&mut s, &m2, &mut db);
        let after = db.stats();
        assert_eq!(after.handle_misses, warm.handle_misses);
        assert_eq!(after.p2p_misses, warm.p2p_misses);
        assert_eq!(after.p2p_hits, warm.p2p_hits + 1);
        // Byte-identical to cold — in particular the cached p2p
        // warning's span must track the moved receive.
        let cold_report = AnalysisSession::builder().build().check_module(&m2);
        assert_eq!(format!("{edited:?}"), format!("{cold_report:?}"));
    }

    /// A call-graph edit that changes only *reachability* must miss the
    /// p2p cache: an unreachable helper's sends neither warn nor balance
    /// reachable receives.
    #[test]
    fn module_memo_p2p_key_covers_reachability() {
        let helper = "fn helper() { MPI_Send(1, 0, 5); }";
        let m1 = lower(&format!(
            "{helper}\nfn main() {{ MPI_Init(); helper(); MPI_Finalize(); }}"
        ));
        let m2 = lower(&format!(
            "{helper}\nfn main() {{ MPI_Init(); MPI_Finalize(); }}"
        ));
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        let first = check_in(&mut s, &m1, &mut db);
        assert_eq!(first.count(crate::report::WarningKind::UnmatchedP2p), 1);
        mark(&mut db, &m1, "main");
        let edited = check_in(&mut s, &m2, &mut db);
        assert!(edited.is_clean(), "{:#?}", edited.warnings);
        assert_eq!(db.stats().p2p_misses, 2, "reachability is keyed");
        let cold_report = AnalysisSession::builder().build().check_module(&m2);
        assert_eq!(format!("{edited:?}"), format!("{cold_report:?}"));
    }

    #[test]
    fn invalidate_all_forces_recompute() {
        let m = lower(SRC);
        let (mut s, mut db) = (AnalysisSession::builder().build(), QueryDb::new());
        check_in(&mut s, &m, &mut db);
        let misses = db.stats().pw_misses;
        db.clear();
        assert_eq!(db.stats().pw_misses, misses, "counters keep running");
        check_in(&mut s, &m, &mut db);
        assert!(db.stats().pw_misses > misses);
    }
}
