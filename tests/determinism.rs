//! Determinism properties of the pooled pipeline.
//!
//! For seeded random multi-function modules, an [`AnalysisSession`] over
//! a 1-lane pool and over an N-lane deterministic pool produce
//! *byte-identical* `StaticReport`s (both the `Debug` form and the
//! rendered text). The generators lean into what the fan-out must keep
//! ordered: many functions, divergent collectives (mismatch warnings),
//! multithreaded collectives (phase-1 warnings), concurrency sites
//! (global renumbering), cross-function calls (taint propagation) and
//! communicator/request resolutions.
//!
//! The dynamic side's reference is the catalogue's `ExpectDynamic`,
//! checked by `tests/end_to_end.rs` and the `detection_table` bin.

use parcoach::analysis::AnalysisSession;
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;
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

/// A second generator for the pool-width property: modules mixing
/// collectives (uniform and divergent), sub-communicators, blocking and
/// non-blocking point-to-point, wildcards and cross-function calls —
/// every fact the store interns (events, symbols, words, comm/request
/// resolutions) gets exercised by the per-function fan-out.
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

/// 50 seeded random modules plus 200 fact-rich ones: the report is
/// byte-identical between the sequential reference schedule and a
/// 4-lane deterministic pool.
#[test]
fn analyze_reports_identical_across_pool_widths() {
    let session = |jobs| {
        AnalysisSession::builder()
            .jobs(jobs)
            .deterministic(true)
            .seed(0xD5)
            .build()
    };
    let (mut s1, mut s4) = (session(1), session(4));
    let sources = (0..50)
        .map(|seed| (seed, random_module(&mut Rng::new(seed))))
        .chain((500..700).map(|seed| (seed, random_fact_rich_module(&mut Rng::new(seed)))));
    for (seed, src) in sources {
        let unit = parse_and_check("det.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}\n{src}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        let seq = s1.check_module(&module);
        let par = s4.check_module(&module);
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "seed {seed}: reports diverge\n{src}"
        );
        assert_eq!(
            seq.render(&unit.source_map),
            par.render(&unit.source_map),
            "seed {seed}: rendered reports diverge\n{src}"
        );
    }
}

/// Re-analyzing the *same* module on the same pool is also stable (no
/// hidden iteration-order leaks through HashMaps).
#[test]
fn analyze_is_stable_across_repeats() {
    let mut s4 = AnalysisSession::builder()
        .jobs(4)
        .deterministic(true)
        .seed(9)
        .build();
    let src = random_module(&mut Rng::new(1234));
    let unit = parse_and_check("det.mh", &src).expect("valid");
    let module = lower_program(&unit.program, &unit.signatures);
    let first = format!("{:?}", s4.check_module(&module));
    for _ in 0..5 {
        let again = format!("{:?}", s4.check_module(&module));
        assert_eq!(first, again, "\n{src}");
    }
}
