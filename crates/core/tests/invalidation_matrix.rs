//! The invalidation matrix of the per-function findings slot: one case
//! per input the slot is keyed on, each flipping *only* that input.
//!
//! Every case checks a module over a resident table, applies an edit the
//! way a document does (`mark_dirty`, then the new module), and asserts
//!
//! * exactly the functions that depend on the flipped input re-derive
//!   their findings, and every other function is served from its slot;
//! * the warm report equals a cold check of the same module;
//! * the same holds when a cancelled check got in between — stopped
//!   right after the red-green pass, or after the context stage — and
//!   left the table half-way;
//! * a further, unedited check re-derives nothing.

use parcoach_core::context::compute_contexts;
use parcoach_core::{AnalysisOptions, AnalysisSession, InitialContext, QueryDb, StaticReport};
use parcoach_front::parse_and_check;
use parcoach_ir::lower::lower_program;
use parcoach_ir::Module;

fn lower(src: &str) -> Module {
    let unit = parse_and_check("t.mh", src).expect("valid");
    lower_program(&unit.program, &unit.signatures)
}

fn session(opts: AnalysisOptions) -> AnalysisSession {
    AnalysisSession::builder().options(opts).build()
}

fn check(s: &mut AnalysisSession, m: &Module, db: &mut QueryDb) -> StaticReport {
    s.check_module_in(m, db, None).expect("no token")
}

/// Where a cancelled check stopped before the one under test ran.
#[derive(Debug, Clone, Copy)]
enum Interrupted {
    Never,
    AfterReconcile,
    AfterContexts,
}

/// The names of the functions whose findings the last check re-derived
/// (slot misses since `before`); panics unless every other function was
/// served from its slot exactly once.
fn rederived(m: &Module, before: &[(u64, u64)], db: &QueryDb) -> Vec<String> {
    let mut out = Vec::new();
    for ((f, then), now) in m.funcs.iter().zip(before).zip(db.analysis_counts()) {
        match (now.0 - then.0, now.1 - then.1) {
            (1, 0) => {}
            (0, 1) => out.push(f.name.clone()),
            other => panic!("`{}`: (hits, misses) moved by {other:?}", f.name),
        }
    }
    out
}

/// Check `before`, edit `edited` into what they are in `after`, check
/// again: exactly `expect` re-derive.
fn edit_case(before: &str, after: &str, edited: &[&str], expect: &[&str]) {
    let (m1, m2) = (lower(before), lower(after));
    let opts = AnalysisOptions::default();
    let cold = format!("{:?}", session(opts).check_module(&m2));
    for interrupted in [
        Interrupted::Never,
        Interrupted::AfterReconcile,
        Interrupted::AfterContexts,
    ] {
        let (mut s, mut db) = (session(opts), QueryDb::new());
        check(&mut s, &m1, &mut db);
        for name in edited {
            let fi = m1.index(name).unwrap();
            db.mark_dirty(fi, &m1.funcs[fi]);
        }
        // What a check of `m2` cancelled at that phase boundary has done
        // to the table.
        match interrupted {
            Interrupted::Never => {}
            Interrupted::AfterReconcile => db.reconcile(&m2),
            Interrupted::AfterContexts => {
                db.reconcile(&m2);
                compute_contexts(&m2, InitialContext::Sequential, &mut db);
            }
        }
        let counts = db.analysis_counts();
        let warm = check(&mut s, &m2, &mut db);
        assert_eq!(
            rederived(&m2, &counts, &db),
            expect,
            "interrupted: {interrupted:?}"
        );
        assert_eq!(format!("{warm:?}"), cold, "interrupted: {interrupted:?}");

        let counts = db.analysis_counts();
        let again = check(&mut s, &m2, &mut db);
        assert!(rederived(&m2, &counts, &db).is_empty());
        assert_eq!(format!("{again:?}"), cold);
    }
}

const CHAIN: &str = "
fn leaf() { MPI_Barrier(); }
fn work() { leaf(); }
fn other() { let x = 1; }
fn main() { MPI_Init(); work(); other(); if (rank() == 0) { work(); } MPI_Finalize(); }
";

/// Input 1 — the function's own structure.
#[test]
fn own_structure() {
    edit_case(
        CHAIN,
        &CHAIN.replace("let x = 1;", "let x = 2;"),
        &["other"],
        &["other"],
    );
    // Still exactly one when the edit changes nothing the call graph
    // sees but is in a function others call.
    edit_case(
        CHAIN,
        &CHAIN.replace("fn work() { leaf(); }", "fn work() { let w = 1; leaf(); }"),
        &["work"],
        &["work"],
    );
}

/// A structural no-op is not an input at all: the entry is greened and
/// nothing re-derives.
#[test]
fn whitespace_only_edit() {
    let spaced = CHAIN.replace(
        "fn other() { let x = 1; }",
        "fn other() {\n\n  let x = 1;\n}",
    );
    edit_case(CHAIN, &spaced, &["other"], &[]);
}

/// A renamed local is not an input either: the IR keeps no names, so
/// the function keys the same, its entry is greened and every slot is
/// reused — while the positions after the rename moved, and the warm
/// report places them where a cold check of the renamed text does.
#[test]
fn rename_only_edit() {
    let before = "
fn helper() { let count = rank(); if (count == 0) { MPI_Barrier(); } }
fn main() { MPI_Init(); helper(); MPI_Finalize(); }
";
    let after = before.replace("count", "participants_so_far");
    let cold = |src: &str| session(AnalysisOptions::default()).check_module(&lower(src));
    let (b, a) = (cold(before), cold(&after));
    assert_eq!(a.warnings.len(), 1, "{:#?}", a.warnings);
    assert_ne!(
        b.warnings[0].span, a.warnings[0].span,
        "the rename moves the warning"
    );
    edit_case(before, &after, &["helper"], &[]);
    edit_case(&after, before, &["helper"], &[]);
    // The same in the call chain the other cases edit.
    let chain = CHAIN.replace("fn other() { let x = 1; }", "fn other() { let y = 1; }");
    edit_case(CHAIN, &chain, &["other"], &[]);
}

/// Input 2 — the initial context, raised by an edit of a caller: the
/// caller itself, and everything below the call whose context moves.
#[test]
fn initial_context_raised_by_a_caller() {
    let raised = CHAIN.replace("MPI_Init(); work();", "MPI_Init(); parallel { work(); }");
    edit_case(CHAIN, &raised, &["main"], &["leaf", "work", "main"]);
    edit_case(&raised, CHAIN, &["main"], &["leaf", "work", "main"]);
}

/// Input 3 — the collective-bearing bit of a callee: a function losing
/// (or gaining) its only collective changes which calls are events, all
/// the way up the call chain, and nowhere else.
#[test]
fn callee_bearing_bit() {
    let lost = CHAIN.replace("fn leaf() { MPI_Barrier(); }", "fn leaf() { let y = 3; }");
    edit_case(CHAIN, &lost, &["leaf"], &["leaf", "work", "main"]);
    edit_case(&lost, CHAIN, &["leaf"], &["leaf", "work", "main"]);
}

const COMMS: &str = "
fn first() { let c = MPI_Comm_dup(MPI_COMM_WORLD); MPI_Barrier(c); }
fn second() { let d = MPI_Comm_dup(MPI_COMM_WORLD); if (rank() == 0) { MPI_Barrier(d); } }
fn plain() { MPI_Barrier(); }
fn main() { MPI_Init(); first(); second(); plain(); MPI_Finalize(); }
";

/// Input 4 — the communicator table: a `MPI_Comm_dup` added in one
/// function renumbers the classes created after it, so a later function
/// that reads the table re-derives (its warning names the class), and
/// functions that never read it do not.
#[test]
fn communicator_table_rekeyed_elsewhere() {
    let before = COMMS;
    let after = before.replace(
        "fn first() { let c",
        "fn first() { let extra = MPI_Comm_dup(MPI_COMM_WORLD); let c",
    );
    let label = |m: &Module| {
        let report = session(AnalysisOptions::default()).check_module(m);
        let mismatch = report.warnings.iter().find(|w| w.func == "second");
        mismatch.expect("second() diverges").message.clone()
    };
    assert_ne!(label(&lower(before)), label(&lower(&after)), "renumbered");
    edit_case(before, &after, &["first"], &["first", "second"]);
    edit_case(&after, before, &["first"], &["first", "second"]);
}

/// Not an input: communicators and requests share one handle table, so
/// an `MPI_Irecv` + `MPI_Wait` added to `first` rebuilds it — but the
/// request numbering is all that moves, `second`'s communicator labels
/// are what they were, and only the edited function re-derives.
#[test]
fn request_only_edit() {
    let after = COMMS.replace(
        "fn first() { let c",
        "fn first() { let r = MPI_Irecv(0, 1); let v = MPI_Wait(r); let c",
    );
    let (m1, m2) = (lower(COMMS), lower(&after));
    let mut db = QueryDb::new();
    let mut s = session(AnalysisOptions::default());
    check(&mut s, &m1, &mut db);
    let before = db.stats();
    let fi = m1.index("first").unwrap();
    db.mark_dirty(fi, &m1.funcs[fi]);
    check(&mut s, &m2, &mut db);
    assert_eq!(
        db.stats().handle_misses,
        before.handle_misses + 1,
        "the handle table is rebuilt"
    );

    edit_case(COMMS, &after, &["first"], &["first"]);
    edit_case(&after, COMMS, &["first"], &["first"]);
}

/// Input 5 — reachability from `main`.
#[test]
fn reachability() {
    let dropped = CHAIN.replace("work(); other();", "work();");
    edit_case(CHAIN, &dropped, &["main"], &["other", "main"]);
    edit_case(&dropped, CHAIN, &["main"], &["other", "main"]);
}

/// Input 6 — the analysis options: `refine_matching` is read by the
/// matching phase of every function.
#[test]
fn analysis_options() {
    let m = lower(CHAIN);
    let all: Vec<String> = m.funcs.iter().map(|f| f.name.clone()).collect();
    let default = AnalysisOptions::default();
    let unrefined = AnalysisOptions {
        refine_matching: false,
        ..default
    };
    let mut db = QueryDb::new();
    check(&mut session(default), &m, &mut db);
    let counts = db.analysis_counts();
    let warm = check(&mut session(unrefined), &m, &mut db);
    assert_eq!(rederived(&m, &counts, &db), all);
    let cold = session(unrefined).check_module(&m);
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));

    // `entry_context` reaches the functions through their contexts.
    let parallel_entry = AnalysisOptions {
        entry_context: InitialContext::Parallel,
        ..default
    };
    let mut db = QueryDb::new();
    check(&mut session(default), &m, &mut db);
    let counts = db.analysis_counts();
    let warm = check(&mut session(parallel_entry), &m, &mut db);
    assert_eq!(rederived(&m, &counts, &db), all);
    let cold = session(parallel_entry).check_module(&m);
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
}

/// The hazard the context slot's comparison covers by looking at every
/// context a function passed through, not only its final one: a function
/// on a call cycle that raised *itself*. `ping`'s stored final context is
/// `Parallel`, and under `Parallel` the edited `ping` hands `pong`
/// exactly what it did before, from the same call site — but the edit
/// removed the parallel region that started the climb, so the cycle
/// must come back down.
#[test]
fn context_lowered_through_a_cycle() {
    let before = "
fn ping(n: int) { parallel { pong(n); } }
fn pong(n: int) { if (n > 0) { ping(n - 1); } }
fn main() { MPI_Init(); ping(2); MPI_Finalize(); }
";
    let after = before.replace("parallel { pong(n); }", "critical { pong(n); }");
    let (m1, m2) = (lower(before), lower(&after));
    let summary = |m: &Module| parcoach_core::query::call_summary(&m.funcs[0]);
    assert_eq!(summary(&m1), summary(&m2), "the call graph sees no edit");
    let contexts = |m: &Module| session(AnalysisOptions::default()).check_module(m).contexts;
    assert_eq!(contexts(&m1)[..2], [InitialContext::Parallel; 2]);
    assert_eq!(contexts(&m2)[..2], [InitialContext::Sequential; 2]);

    edit_case(before, &after, &["ping"], &["ping", "pong"]);
    edit_case(&after, before, &["ping"], &["ping", "pong"]);
}
