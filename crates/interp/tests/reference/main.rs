//! A definitional twin of the sequential run: seeded, well-typed
//! programs are evaluated by an obviously-correct reference (`eval.rs`)
//! that works on the generator's own tree and shares no code with the
//! front end, the IR or the interpreter, and run by [`Executor::run`] on
//! the plain module at 1 rank with teams of 1. Per program, the printed
//! lines and the first error — its kind and its source line — must be
//! the same.
//!
//! Covered: `int`, `float` and `bool` expressions of depth at most 4
//! over locals (wrapping integer arithmetic, comparisons, short-circuit
//! `&&`/`||`), array `array`/load/store by shared reference, `abs`,
//! `min`, `max`, `sqrt`, `int_of`, `float_of` and `len`, an identity
//! helper call per type, `if`, `for` and `while`, and `print`; at one
//! rank, `MPI_Init`/`MPI_Finalize`, a send to self received by `MPI_Recv`
//! or by `MPI_Irecv` and `MPI_Wait`, and the collectives `Allreduce`,
//! `Reduce`, `Bcast`, `Scan`, `Gather`, `Allgather` and `Alltoall`. The
//! errors are division by zero, an index out of bounds, a negative array
//! length and an `MPI_Alltoall` of an empty array. Outside the twin: more
//! than one rank, communicators, `parallel` regions (teams of more than
//! one thread, and their races), wildcard receives and recursion.
//!
//! `PARCOACH_PROP_BUDGET` scales the number of programs.

mod eval;
mod gen;

use eval::{Fault, Outcome};
use parcoach_front::span::SourceMap;
use parcoach_interp::{prepare, Executor, RunConfig, RunErrorKind};
use parcoach_ir::span_at;
use parcoach_mpisim::MpiError;
use parcoach_testutil::{case_budget, Rng};

/// Programs per run at the default budget.
const CASES: u64 = 1000;

/// What the interpreter did with `src`, in the reference's terms.
fn interpreted(src: &str) -> Outcome {
    let (_, module) = prepare("gen.mh", src, false)
        .unwrap_or_else(|d| panic!("generated program does not check:\n{d}\n{src}"));
    let cfg = RunConfig {
        ranks: 1,
        default_threads: 1,
        ..RunConfig::default()
    };
    let report = Executor::new(module.clone(), cfg).run();
    let map = SourceMap::new("gen.mh", src);
    let fault = report.errors.first().map(|e| {
        let fault = match &e.kind {
            RunErrorKind::DivisionByZero => Fault::DivisionByZero,
            RunErrorKind::IndexOutOfBounds { index, len } => Fault::IndexOutOfBounds {
                index: *index,
                len: *len,
            },
            RunErrorKind::BadArrayLength(n) => Fault::BadArrayLength(*n),
            RunErrorKind::Mpi(MpiError::ArgError(_)) => Fault::MpiArg,
            other => panic!("a generated program cannot fail with {other}\n{src}"),
        };
        (fault, map.line_of(span_at(&module, e.at)))
    });
    Outcome {
        lines: report.output,
        fault,
    }
}

#[test]
fn interpreter_agrees_with_the_reference() {
    let mut rng = Rng::new(0x7e5_0022);
    let (mut faults, mut mpi_faults, mut lines) = (0, 0, 0);
    for case in 0..case_budget(CASES) {
        let p = gen::program(&mut rng);
        let want = eval::run(&p);
        let got = interpreted(&p.source);
        assert_eq!(got, want, "case {case}:\n{}", p.source);
        faults += want.fault.is_some() as usize;
        mpi_faults += matches!(want.fault, Some((Fault::MpiArg, _))) as usize;
        lines += want.lines.len();
    }
    // The generator reaches both outcomes, and an MPI call's error.
    assert!(
        faults > 0 && mpi_faults > 0 && lines > 0,
        "{faults} faults ({mpi_faults} in MPI), {lines} lines"
    );
}
