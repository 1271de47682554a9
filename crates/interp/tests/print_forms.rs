//! What `print` writes, byte for byte: one value of every type at one
//! rank, and the copy an MPI payload is of the array it was sent from.
//!
//! An `int` prints as an integer, a `float` as Rust's `{}` does (`-0`,
//! `2.5`, every digit of `1e300`), a `bool` as `true`/`false`, an array
//! as a list (`[1, 2]`, `[0.5, 2.0]`, `[]`), a communicator as `comm#N`
//! and a request as `request#N`, or `request#<null>` before its register
//! is first assigned.

use parcoach_front::parse_and_check;
use parcoach_interp::{check_and_run, Executor, RunConfig};
use parcoach_ir::instr::{Instr, MpiOp};
use parcoach_ir::lower::lower_program;
use parcoach_ir::types::Value;
use std::sync::Arc;

/// The lines `src` prints at `ranks` ranks, uninstrumented; the run must
/// be clean.
fn printed(src: &str, ranks: usize) -> Vec<String> {
    let cfg = RunConfig {
        ranks,
        default_threads: 1,
        ..RunConfig::default()
    };
    let (_, report) = check_and_run("t.mh", src, cfg, false).expect("valid program");
    assert!(report.is_clean(), "{:?}", report.errors);
    report.output
}

/// `print`'s arguments at one rank, on one line.
fn one_line(args: &str) -> String {
    let src = format!("fn main() {{ MPI_Init(); print({args}); MPI_Finalize(); }}");
    let mut lines = printed(&src, 1);
    assert_eq!(lines.len(), 1, "{lines:?}");
    lines.remove(0)
}

#[test]
fn scalars() {
    assert_eq!(one_line("7, -3, 0"), "[rank 0] 7 -3 0");
    assert_eq!(one_line("true, false, 1 < 2"), "[rank 0] true false true");
    assert_eq!(
        one_line("2.5, -0.0, 0.1, float_of(3)"),
        "[rank 0] 2.5 -0 0.1 3"
    );
    let big = format!("[rank 0] 1{}", "0".repeat(300));
    assert_eq!(one_line("1.0e300"), big);
}

#[test]
fn arrays() {
    assert_eq!(
        one_line("array(0, 1), array(0, 1.5), array(2, -1), array(2, 0.5)"),
        "[rank 0] [] [] [-1, -1] [0.5, 0.5]"
    );
    assert_eq!(
        one_line("MPI_Allgather(5), MPI_Allgather(2.5)"),
        "[rank 0] [5] [2.5]"
    );
}

#[test]
fn handles_and_completions() {
    let src = "fn main() {
        MPI_Init();
        let c = MPI_Comm_dup(MPI_COMM_WORLD);
        print(MPI_COMM_WORLD, c);
        let r = MPI_Isend(3, 0, 5);
        print(r);
        print(MPI_Wait(r));
        print(MPI_Recv(0, 5));
        MPI_Finalize();
    }";
    assert_eq!(
        printed(src, 1),
        [
            "[rank 0] comm#0 comm#1",
            "[rank 0] request#0",
            // A send's completion, as the float `MPI_Wait` returns.
            "[rank 0] 0",
            // An int payload, received as a float.
            "[rank 0] 3",
        ]
    );
}

/// A request register no instruction assigns holds the null handle. No
/// program can print one, since every `let` assigns: the register's
/// assignment is taken out of the lowered module instead.
#[test]
fn a_never_assigned_request_is_null() {
    let unit = parse_and_check("t.mh", "fn main() { let r = MPI_Irecv(0, 1); print(r); }")
        .expect("valid program");
    let mut module = lower_program(&unit.program, &unit.signatures);
    let main = module.index("main").expect("main");
    let mut erased = 0;
    for (i, _) in &mut Arc::make_mut(&mut module.funcs[main]).instrs {
        if let Instr::Mpi {
            dest: Some(d),
            op: MpiOp::Irecv { .. },
        } = i
        {
            let d = *d;
            *i = Instr::Copy {
                dest: d,
                src: Value::Reg(d),
            };
            erased += 1;
        }
    }
    assert_eq!(erased, 1);
    let cfg = RunConfig {
        ranks: 1,
        ..RunConfig::default()
    };
    let report = Executor::new(module, cfg).run();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.output, ["[rank 0] request#<null>"]);
}

/// An array sent through a collective is copied element by element: a
/// store into the argument after the call does not reach the result, nor
/// a store into the result the argument.
#[test]
fn a_payload_is_a_copy() {
    let src = "fn main() {
        MPI_Init();
        let a = array(1, 1);
        let b = MPI_Alltoall(a);
        a[0] = 9;
        print(a, b);
        b[0] = 7;
        print(a, b);
        let f = array(1, 0.5);
        let g = MPI_Alltoall(f);
        f[0] = 2.0;
        print(f, g);
        MPI_Finalize();
    }";
    assert_eq!(
        printed(src, 1),
        [
            "[rank 0] [9] [1]",
            "[rank 0] [9] [7]",
            "[rank 0] [2.0] [0.5]"
        ]
    );
}

/// A request handle is numbered per rank: at two ranks, each rank's first
/// request is `request#0`, whichever rank posts first.
#[test]
fn request_handles_do_not_depend_on_the_schedule() {
    let src = "fn main() {
        MPI_Init();
        let r = MPI_Isend(3, rank(), 5);
        print(r);
        let v = MPI_Wait(r);
        let x = MPI_Recv(rank(), 5);
        MPI_Finalize();
    }";
    for _ in 0..20 {
        assert_eq!(
            printed(src, 2),
            ["[rank 0] request#0", "[rank 1] request#0"]
        );
    }
}
