//! Property-based tests over randomly generated structured programs.
//!
//! The generator builds *correct-by-construction* hybrid programs: MPI
//! collectives appear only in uniform positions (top level, inside
//! `single`/`master` in parallel regions), bounds are rank-independent,
//! and barriers are never control-divergent. For such programs the
//! invariants are:
//!
//! 1. they compile and their IR verifies;
//! 2. phase 1/2 of the static analysis stay silent (no context or
//!    concurrency warnings) and no barrier divergence is reported;
//! 3. optimization preserves sequential program output;
//! 4. instrumented parallel runs complete cleanly.
//!
//! Programs come from a per-case `parcoach_testutil::Rng` seed; failing
//! cases print the seed and the full generated source.

use parcoach::analysis::{AnalysisSession, WarningKind};
use parcoach::front::parse_and_check;
use parcoach::interp::{check_and_run, Executor, RunConfig};
use parcoach::ir::lower::lower_program;
use parcoach_testutil::Rng;

/// One generated statement (recursion bounded by `depth`).
fn random_stmt(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(7) {
        0 => format!("acc = acc + {};", rng.range_i64(0, 5)),
        1 => format!("acc = acc * {} % 1000;", rng.range_i64(1, 4)),
        2 => "x = float_of(acc) * 0.5;".to_string(),
        3 => "let tmp = acc + int_of(x); acc = tmp % 97;".to_string(),
        4 => "acc = acc + int_of(MPI_Allreduce(1.0, SUM));".to_string(),
        5 => "MPI_Barrier();".to_string(),
        _ => "acc = acc + int_of(MPI_Bcast(float_of(acc % 7), 0));".to_string(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Same 4:1:1:1 weighting as the old prop_oneof.
    match rng.pick_weighted(&[4, 1, 1, 1]) {
        0 => leaf(rng),
        // Uniform sequential loop.
        1 => {
            let n = rng.range_i64(1, 4);
            let b = random_stmt(rng, depth - 1);
            format!("for (i{n} in 0..{n}) {{ {b} }}")
        }
        // Uniform conditional — both arms identical, so even the
        // matching phase with refinement stays silent.
        2 => {
            let b = random_stmt(rng, depth - 1);
            format!("if (acc % 2 == 0) {{ {b} }} else {{ {b} }}")
        }
        // Parallel region: compute pfor + collective safely in single.
        _ => {
            let b = random_stmt(rng, depth - 1);
            format!(
                "parallel num_threads(2) {{
                    pfor (j in 0..8) {{ let w = j * 2; }}
                    single {{ {b} }}
                }}"
            )
        }
    }
}

fn random_program(rng: &mut Rng) -> String {
    let n = rng.range_usize(1, 6);
    let stmts: Vec<String> = (0..n).map(|_| random_stmt(rng, 2)).collect();
    format!(
        "fn main() {{
            MPI_Init_thread(SERIALIZED);
            let acc = 1;
            let x = 0.0;
            {}
            print(acc);
            MPI_Finalize();
        }}",
        stmts.join("\n")
    )
}

/// Correct-by-construction programs compile, verify, and trigger no
/// context/concurrency/divergence warnings.
#[test]
fn generated_programs_are_statically_quiet() {
    for seed in 0..24 {
        let src = random_program(&mut Rng::new(seed));
        let unit = parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        assert!(
            parcoach::ir::verify_module(&module).is_empty(),
            "seed {seed}"
        );
        let report = AnalysisSession::builder().build().check_module(&module);
        for w in &report.warnings {
            assert!(
                !matches!(
                    w.kind,
                    WarningKind::MultithreadedCollective
                        | WarningKind::NestedParallelismCollective
                        | WarningKind::MultithreadedCall
                        | WarningKind::ConcurrentCollectives
                        | WarningKind::SelfConcurrentRegion
                        | WarningKind::BarrierDivergence
                        | WarningKind::InsufficientThreadLevel
                ),
                "unexpected warning {:?}: {} (seed {seed}) in\n{src}",
                w.kind,
                w.message
            );
        }
    }
}

/// Optimization must not change the output of (sequential projections
/// of) generated programs.
#[test]
fn optimization_preserves_output() {
    for seed in 100..124 {
        let src = random_program(&mut Rng::new(seed));
        let unit = parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        let plain = lower_program(&unit.program, &unit.signatures);
        let mut optimized = plain.clone();
        parcoach_bench::opt::optimize_module(&mut optimized, 4);
        assert!(
            parcoach::ir::verify_module(&optimized).is_empty(),
            "seed {seed}"
        );
        let cfg = || RunConfig {
            ranks: 1,
            default_threads: 2,
            ..RunConfig::default()
        };
        let out_plain = Executor::new(plain, cfg()).run();
        let out_opt = Executor::new(optimized, cfg()).run();
        assert!(out_plain.is_clean(), "seed {seed}: {:?}", out_plain.errors);
        assert!(out_opt.is_clean(), "seed {seed}: {:?}", out_opt.errors);
        assert_eq!(out_plain.output, out_opt.output, "seed {seed} in\n{src}");
    }
}

/// Instrumented multi-rank runs of generated programs complete
/// cleanly and agree with the uninstrumented output.
#[test]
fn generated_programs_run_clean_instrumented() {
    // Threads × ranks per case: 10 cases by default; the
    // `PARCOACH_PROP_BUDGET` multiplier scales the count now that rank
    // and team threads come from the thread cache.
    for seed in 200..(200 + 10 * parcoach_testutil::case_budget(1)) {
        let src = random_program(&mut Rng::new(seed));
        let cfg = || RunConfig {
            ranks: 2,
            default_threads: 2,
            ..RunConfig::default()
        };
        let (_r, plain) = check_and_run("gen.mh", &src, cfg(), false)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (_r, instr) = check_and_run("gen.mh", &src, cfg(), true)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(plain.is_clean(), "seed {seed}: {:?}", plain.errors);
        assert!(instr.is_clean(), "seed {seed}: {:?}", instr.errors);
        let mut a = plain.output;
        let mut b = instr.output;
        a.sort();
        b.sort();
        assert_eq!(a, b, "seed {seed} in\n{src}");
    }
}

/// Generator for the communicator-equivalence property: world-only
/// hybrid programs whose every MPI operation names `MPI_COMM_WORLD`
/// *explicitly*, including matched point-to-point traffic.
fn random_world_comm_program(rng: &mut Rng) -> String {
    let stmt = |rng: &mut Rng| match rng.below(6) {
        0 => "MPI_Barrier(MPI_COMM_WORLD);".to_string(),
        1 => "acc = acc + int_of(MPI_Allreduce(1.0, SUM, MPI_COMM_WORLD));".to_string(),
        2 => "acc = acc + int_of(MPI_Bcast(float_of(acc % 7), 0, MPI_COMM_WORLD));".to_string(),
        // Matched self-send/recv pair on an explicit world handle.
        3 => "MPI_Send(acc, rank(), 11, MPI_COMM_WORLD); \
              let rv = MPI_Recv(rank(), 11, MPI_COMM_WORLD); \
              acc = acc + int_of(rv) % 3;"
            .to_string(),
        4 => {
            let n = rng.range_i64(1, 4);
            format!("for (i{n} in 0..{n}) {{ MPI_Barrier(MPI_COMM_WORLD); }}")
        }
        _ => "parallel num_threads(2) {
                single { let x = MPI_Allreduce(1, SUM, MPI_COMM_WORLD); }
            }"
        .to_string(),
    };
    let n = rng.range_usize(1, 6);
    let stmts: Vec<String> = (0..n).map(|_| stmt(rng)).collect();
    format!(
        "fn main() {{
            MPI_Init_thread(SERIALIZED);
            let acc = 1;
            {}
            print(acc);
            MPI_Finalize();
        }}",
        stmts.join("\n")
    )
}

/// Strip every communicator operand from a module — exactly the
/// pre-refactor "single implicit communicator" IR shape, with spans and
/// registers untouched.
fn strip_comm_operands(m: &mut parcoach::ir::Module) {
    use parcoach::ir::instr::{Instr, MpiOp};
    for f in &mut m.funcs {
        for (i, _) in &mut std::sync::Arc::make_mut(f).instrs {
            if let Instr::Mpi {
                op:
                    MpiOp::Collective { comm, .. } | MpiOp::Send { comm, .. } | MpiOp::Recv { comm, .. },
                ..
            } = i
            {
                *comm = None;
            }
        }
    }
}

/// The per-communicator generalization must be invisible on modules
/// that only use `MPI_COMM_WORLD`: analysing the module as written
/// (explicit world handles flowing through registers) and analysing the
/// comm-stripped twin (the pre-refactor single-comm path) must produce
/// **byte-identical** reports.
#[test]
fn world_only_analysis_matches_single_comm_path() {
    let mut session = AnalysisSession::default();
    for seed in 300..(300 + 12 * parcoach_testutil::case_budget(1)) {
        let src = random_world_comm_program(&mut Rng::new(seed));
        let unit = parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        let with_comms = lower_program(&unit.program, &unit.signatures);
        let mut stripped = with_comms.clone();
        strip_comm_operands(&mut stripped);
        assert_eq!(
            format!("{:?}", session.check_module(&with_comms)),
            format!("{:?}", session.check_module(&stripped)),
            "seed {seed}: the report differs from the single-comm path in\n{src}"
        );
    }
}

/// Generator for the request-silence property: hybrid programs that
/// mix collectives and *blocking* point-to-point but never touch a
/// non-blocking request — the pre-refactor language surface.
fn random_blocking_only_program(rng: &mut Rng) -> String {
    let stmt = |rng: &mut Rng| match rng.below(6) {
        0 => "MPI_Barrier();".to_string(),
        1 => "acc = acc + int_of(MPI_Allreduce(1.0, SUM));".to_string(),
        // Matched self-send/recv pair (blocking path only).
        2 => "MPI_Send(acc, rank(), 11); \
              let rv = MPI_Recv(rank(), 11); \
              acc = acc + int_of(rv) % 3;"
            .to_string(),
        3 => "if (rank() == 0) { MPI_Barrier(); }".to_string(),
        4 => {
            let n = rng.range_i64(1, 4);
            format!("for (i{n} in 0..{n}) {{ acc = acc + i{n}; }}")
        }
        _ => "parallel num_threads(2) {
                single { let x = MPI_Allreduce(1, SUM); }
            }"
        .to_string(),
    };
    let n = rng.range_usize(1, 6);
    let stmts: Vec<String> = (0..n).map(|_| stmt(rng)).collect();
    format!(
        "fn main() {{
            MPI_Init_thread(SERIALIZED);
            let acc = 1;
            {}
            print(acc);
            MPI_Finalize();
        }}",
        stmts.join("\n")
    )
}

/// The non-blocking/request generalization must be invisible on modules
/// that never use requests: the request life-cycle pass raises no
/// warning there, and so never places a p2p epoch census of its own —
/// the plan's census functions are exactly what the p2p pass asked for
/// (some iff it warned). The mirror of
/// `world_only_analysis_matches_single_comm_path`.
#[test]
fn request_pass_is_silent_on_request_free_modules() {
    let mut session = AnalysisSession::default();
    for seed in 400..(400 + 12 * parcoach_testutil::case_budget(1)) {
        let src = random_blocking_only_program(&mut Rng::new(seed));
        let unit = parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        let report = session.check_module(&module);
        let warns =
            |family: [WarningKind; 2]| report.warnings.iter().any(|w| family.contains(&w.kind));
        assert!(
            !warns([WarningKind::UnwaitedRequest, WarningKind::WaitWithoutPost]),
            "seed {seed}: a request warning on a request-free module\n{src}\n{:#?}",
            report.warnings
        );
        assert_eq!(
            report.plan.sum(|f| usize::from(f.p2p_epoch)) == 0,
            !warns([WarningKind::UnmatchedP2p, WarningKind::P2pOrder]),
            "seed {seed}: the census is not the p2p pass's own\n{src}"
        );
    }
}

/// Wider worlds are affordable because rank threads come from the thread
/// cache: a collective program over 8 ranks (16 under the extended
/// budget), with the result checked exactly.
#[test]
fn wide_world_allreduce_is_exact() {
    let ranks = if parcoach_testutil::case_budget(1) >= 4 {
        16
    } else {
        8
    };
    let src = "fn main() {
        MPI_Init();
        let sum = MPI_Allreduce(rank() + 1, SUM);
        print(sum);
        MPI_Finalize();
    }";
    let cfg = RunConfig {
        ranks,
        default_threads: 2,
        ..RunConfig::default()
    };
    let (_report, run) = check_and_run("wide.mh", src, cfg, true).expect("compiles");
    assert!(run.is_clean(), "{:?}", run.errors);
    let expected = (ranks * (ranks + 1) / 2).to_string();
    assert_eq!(run.output.len(), ranks);
    for line in &run.output {
        assert!(line.contains(&expected), "{line}");
    }
}
