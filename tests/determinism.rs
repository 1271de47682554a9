//! Determinism properties of the static pipeline.
//!
//! For seeded random multi-function modules, every way of running the
//! analysis gives a *byte-identical* `StaticReport` (both the `Debug`
//! form and the rendered text): a cold check, a second check on the same
//! session, and a warm re-check over a kept memo table that every lookup
//! hits. The generators lean into what must come out in one order: many
//! functions, divergent collectives (mismatch warnings), multithreaded
//! collectives (phase-1 warnings), concurrency sites (global
//! renumbering), cross-function calls (taint propagation) and
//! communicator/request resolutions — and, since the matching phase
//! groups events in a hash map, any iteration-order leak would show as
//! a diff.
//!
//! The dynamic side's reference is the catalogue's `ExpectDynamic`,
//! checked by `tests/end_to_end.rs` and the `detection_table` bin.

use parcoach::analysis::{AnalysisSession, QueryDb, StaticReport};
use parcoach::front::{parse_and_check, CheckedUnit};
use parcoach::ir::lower::lower_program;
use parcoach::ir::Module;
use parcoach_testutil::Rng;

/// One random statement for a function body (uses locals `acc`/`x`).
fn random_stmt(rng: &mut Rng, fresh: &mut u32, callees: &[String]) -> String {
    let mut choices: Vec<u32> = (0..9).collect();
    if callees.is_empty() {
        choices.pop(); // no call statement without callees
    }
    match *rng.pick(&choices) {
        0 => format!("acc = acc + {};", rng.range_i64(1, 7)),
        1 => "x = float_of(acc) * 0.5;".to_string(),
        2 => "MPI_Barrier();".to_string(),
        3 => "acc = acc + int_of(MPI_Allreduce(1.0, SUM));".to_string(),
        // Divergent collective: phase-3 mismatch candidates.
        4 => "if (rank() == 0) { MPI_Barrier(); }".to_string(),
        // Multithreaded collective: phase-1 warnings.
        5 => "parallel num_threads(2) { let y = MPI_Allreduce(1.0, SUM); }".to_string(),
        // Clean parallel region with a single'd collective.
        6 => "parallel num_threads(2) { single { MPI_Barrier(); } }".to_string(),
        7 => {
            *fresh += 1;
            let v = format!("i{fresh}");
            format!(
                "for ({v} in 0..{}) {{ acc = acc + {v}; }}",
                rng.range_i64(1, 4)
            )
        }
        _ => format!("{}();", rng.pick(callees)),
    }
}

/// A module of several functions; later functions may call earlier ones
/// (so taint propagates through a DAG), and `main` calls a few from
/// mixed contexts.
fn random_module(rng: &mut Rng) -> String {
    let nfuncs = rng.range_usize(3, 8);
    let mut fresh = 0u32;
    let mut names: Vec<String> = Vec::new();
    let mut out = String::new();
    for f in 0..nfuncs {
        let name = format!("work_{f}");
        let nstmts = rng.range_usize(1, 5);
        let body: Vec<String> = (0..nstmts)
            .map(|_| random_stmt(rng, &mut fresh, &names))
            .collect();
        out.push_str(&format!(
            "fn {name}() {{\n    let acc = 1;\n    let x = 0.0;\n    {}\n    print(acc + int_of(x));\n}}\n",
            body.join("\n    ")
        ));
        names.push(name);
    }
    let mut main_body = String::new();
    for name in &names {
        match rng.below(4) {
            0 => main_body.push_str(&format!("    {name}();\n")),
            1 => main_body.push_str(&format!("    if (rank() == 0) {{ {name}(); }}\n")),
            2 => main_body.push_str(&format!(
                "    parallel num_threads(2) {{ single {{ {name}(); }} }}\n"
            )),
            _ => {} // not called at all
        }
    }
    out.push_str(&format!(
        "fn main() {{\n    MPI_Init_thread(SERIALIZED);\n{main_body}    MPI_Finalize();\n}}\n"
    ));
    out
}

/// A second generator for the same property: modules mixing
/// collectives (uniform and divergent), sub-communicators, blocking and
/// non-blocking point-to-point, wildcards and cross-function calls —
/// every fact the store interns (events, symbols, words, comm/request
/// resolutions) gets exercised.
fn random_fact_rich_module(rng: &mut Rng) -> String {
    let stmt = |rng: &mut Rng, fresh: &mut u32, callees: &[String]| -> String {
        let mut choices: Vec<u32> = (0..12).collect();
        if callees.is_empty() {
            choices.pop(); // no call statement without callees
        }
        match *rng.pick(&choices) {
            0 => "MPI_Barrier();".to_string(),
            1 => "acc = acc + int_of(MPI_Allreduce(1.0, SUM));".to_string(),
            // Divergent collective: PDF+ mismatch candidates.
            2 => "if (rank() == 0) { MPI_Barrier(); }".to_string(),
            // Balanced arms: refinement + event-sequence comparison.
            3 => "if (rank() % 2 == 0) { MPI_Barrier(); } else { MPI_Barrier(); }".to_string(),
            // Sub-communicator traffic: comm interning + per-comm PDF+.
            4 => {
                *fresh += 1;
                format!(
                    "let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); MPI_Barrier(c{f});",
                    f = fresh
                )
            }
            // Non-blocking exchange: request interning + deferred completion.
            5 => {
                *fresh += 1;
                format!(
                    "let r{f} = MPI_Irecv(peer, {t}); MPI_Send(1.0, peer, {t}); \
                     let v{f} = MPI_Wait(r{f});",
                    f = fresh,
                    t = rng.range_i64(1, 5)
                )
            }
            // Wildcard waitall pair.
            6 => {
                *fresh += 1;
                format!(
                    "let w{f} = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG); \
                     let s{f} = MPI_Isend(rank() + 1, peer, {t}); MPI_Waitall(w{f}, s{f});",
                    f = fresh,
                    t = rng.range_i64(5, 9)
                )
            }
            // Matched blocking self-pair.
            7 => "MPI_Send(acc, rank(), 11); let rv = MPI_Recv(rank(), 11); \
                  acc = acc + int_of(rv) % 3;"
                .to_string(),
            // Multithreaded + properly-single'd collectives: word interning.
            8 => "parallel num_threads(2) { let y = MPI_Allreduce(1.0, SUM); }".to_string(),
            9 => "parallel num_threads(2) { single { MPI_Barrier(); } }".to_string(),
            // Concurrency sites (nowait single pair).
            10 => "parallel num_threads(2) {
                    single nowait { MPI_Barrier(); }
                    single { let z = MPI_Allreduce(1.0, SUM); }
                }"
            .to_string(),
            // Cross-function call: symbol interning + taint propagation.
            _ => format!("{}();", rng.pick(callees)),
        }
    };
    let nfuncs = rng.range_usize(2, 6);
    let mut fresh = 0u32;
    let mut names: Vec<String> = Vec::new();
    let mut out = String::new();
    for f in 0..nfuncs {
        let name = format!("work_{f}");
        let nstmts = rng.range_usize(1, 4);
        let body: Vec<String> = (0..nstmts).map(|_| stmt(rng, &mut fresh, &names)).collect();
        out.push_str(&format!(
            "fn {name}() {{\n    let acc = 1;\n    let peer = size() - 1 - rank();\n    {}\n    print(acc);\n}}\n",
            body.join("\n    ")
        ));
        names.push(name);
    }
    let mut main_body = String::new();
    for name in &names {
        match rng.below(4) {
            0 => main_body.push_str(&format!("    {name}();\n")),
            1 => main_body.push_str(&format!("    if (rank() == 0) {{ {name}(); }}\n")),
            2 => main_body.push_str(&format!(
                "    parallel num_threads(2) {{ single {{ {name}(); }} }}\n"
            )),
            _ => {}
        }
    }
    format!(
        "{out}fn main() {{\n    MPI_Init_thread(MULTIPLE);\n{main_body}    MPI_Finalize();\n}}\n"
    )
}

/// Parse and lower each of the two generators' modules — 50 seeded
/// random ones plus 200 fact-rich ones — and hand it to `check` with its
/// seed and source.
fn for_each_generated_module(mut check: impl FnMut(u64, &str, &CheckedUnit, &Module)) {
    let sources = (0..50)
        .map(|seed| (seed, random_module(&mut Rng::new(seed))))
        .chain((500..700).map(|seed| (seed, random_fact_rich_module(&mut Rng::new(seed)))));
    for (seed, src) in sources {
        let unit = parse_and_check("det.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}\n{src}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        check(seed, &src, &unit, &module);
    }
}

/// `how`'s report is byte-identical to the cold one, `Debug` and rendered.
fn assert_same_report(
    how: &str,
    cold: &StaticReport,
    report: &StaticReport,
    (seed, src, unit): (u64, &str, &CheckedUnit),
) {
    assert_eq!(
        format!("{cold:?}"),
        format!("{report:?}"),
        "seed {seed}: {how} report diverges from cold\n{src}"
    );
    assert_eq!(
        cold.render(&unit.source_map),
        report.render(&unit.source_map),
        "seed {seed}: {how} rendered report diverges from cold\n{src}"
    );
}

/// Every generated module, checked cold on a fresh session and then
/// twice more on one long-lived session, gives byte-identical reports:
/// nothing a session keeps between checks leaks into the next report.
#[test]
fn analyze_is_stable_across_repeats() {
    let mut session = AnalysisSession::default();
    for_each_generated_module(|seed, src, unit, module| {
        let cold = AnalysisSession::default().check_module(module);
        for how in ["second", "third"] {
            let again = session.check_module(module);
            assert_same_report(how, &cold, &again, (seed, src, unit));
        }
    });
}

/// Every generated module gives the cold report again from a warm
/// re-check over a kept memo table that every lookup hits.
#[test]
fn analyze_reports_identical_cold_and_warm() {
    let mut session = AnalysisSession::default();
    for_each_generated_module(|seed, src, unit, module| {
        let cold = AnalysisSession::default().check_module(module);
        let mut db = QueryDb::new();
        session
            .check_module_in(module, &mut db, None)
            .expect("no token");
        let filled = db.stats();
        let warm = session
            .check_module_in(module, &mut db, None)
            .expect("no token");
        let hit = db.stats();
        assert_eq!(
            (hit.pw_misses, hit.cfg_misses, hit.analysis_misses),
            (filled.pw_misses, filled.cfg_misses, filled.analysis_misses),
            "seed {seed}: the warm re-check missed"
        );
        assert_eq!(
            (hit.context_misses, hit.handle_misses, hit.p2p_misses),
            (
                filled.context_misses,
                filled.handle_misses,
                filled.p2p_misses
            ),
            "seed {seed}: the warm re-check missed a module table"
        );
        assert_same_report("warm", &cold, &warm, (seed, src, unit));
    });
}
