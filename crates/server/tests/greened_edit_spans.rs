//! Whitespace-only edits *inside* a function keep it green — the same
//! code — while every position inside it moves. The memo table stores no
//! source positions, so a warm check after such an edit must place each
//! warning exactly where a cold compile of the same text does — one
//! case per warning family whose stored value once carried a span.

use parcoach_core::AnalysisSession;
use parcoach_server::Document;

/// Open `src`, check, re-send `func` as `replacement` (same statements,
/// different layout), and compare the warm check against a cold open of
/// the resulting text: `Debug` of the report and the rendered bytes.
/// `code` is the warning the case is about; returns whether the edit
/// moved it.
fn warm_equals_cold_after(src: &str, func: &str, replacement: &str, code: &str) -> bool {
    let mut s = AnalysisSession::default();
    let mut doc = Document::open("t.mh", src).unwrap();
    let before = doc.check(&mut s, None).unwrap();
    assert!(before.warnings.iter().any(|w| w.kind.code() == code));

    let out = doc.edit(func, replacement).unwrap();
    assert!(out.incremental, "expected the incremental path");
    let warm = doc.check(&mut s, None).unwrap();
    assert_eq!(doc.query_stats().greened, 1, "the edit is structural noise");

    let fresh = Document::open("t.mh", doc.text()).unwrap();
    let cold = AnalysisSession::default().check_module(fresh.module());
    assert_eq!(
        warm.render(doc.source_map()),
        cold.render(fresh.source_map()),
        "warm check rendered differently from cold after a whitespace-only edit"
    );
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    format!("{before:?}") != format!("{warm:?}")
}

/// `barrier-divergence` in a helper whose body is re-indented: the
/// warning sits at the branch that splits the paths (the join's
/// immediate dominator), read from the live IR, so a warm check places
/// it where a cold one does.
#[test]
fn whitespace_interior_edit_keeps_warm_equal_to_cold() {
    warm_equals_cold_after(
        "fn helper() {\n    parallel { if (thread_num() == 0) { barrier; } }\n}\nfn main() {\n    MPI_Init();\n    helper();\n    MPI_Finalize();\n}\n",
        "helper",
        "fn helper() {\n        parallel { if (thread_num() == 0) { barrier; } }\n}",
        "barrier-divergence",
    );
}

/// `multithreaded-call`: the call site's position used to live in the
/// stored call summary.
#[test]
fn moved_call_site_is_reported_where_it_is_now() {
    assert!(warm_equals_cold_after(
        "fn coll() {\n    MPI_Barrier();\n}\nfn main() {\n    MPI_Init();\n    parallel {\n        coll();\n    }\n    MPI_Finalize();\n}\n",
        "main",
        "fn main() {\n    MPI_Init();\n\n\n        parallel {\n        coll();\n    }\n    MPI_Finalize();\n}",
        "multithreaded-call",
    ));
}

/// `barrier-divergence`: the warning names the branch's condition, which
/// the edit moves; no position is kept in the stored parallelism words.
#[test]
fn moved_divergence_join_is_reported_where_it_is_now() {
    assert!(warm_equals_cold_after(
        "fn main() {\n    MPI_Init();\n    parallel {\n        if (thread_num() == 0) { barrier; }\n        let x = 1;\n    }\n    MPI_Finalize();\n}\n",
        "main",
        "fn main() {\n    MPI_Init();\n\n\n    parallel {\n        if (thread_num() == 0) { barrier; }\n        let x = 1;\n    }\n    MPI_Finalize();\n}",
        "barrier-divergence",
    ));
}

/// A renamed local: the IR keeps no names, so the function stays green
/// while the condition the warning points at moves.
#[test]
fn renamed_local_is_green_and_reported_where_it_is_now() {
    assert!(warm_equals_cold_after(
        "fn helper() {\n    let count = rank();\n    if (count == 0) { MPI_Barrier(); }\n}\nfn main() {\n    MPI_Init();\n    helper();\n    MPI_Finalize();\n}\n",
        "helper",
        "fn helper() {\n    let participants = rank();\n    if (participants == 0) { MPI_Barrier(); }\n}",
        "collective-mismatch",
    ));
}
