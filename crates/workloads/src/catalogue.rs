//! The error catalogue: one small program per error pattern the paper's
//! analysis covers, plus correct control programs (including the classic
//! static false positives the dynamic phase must clear).
//!
//! Used by the detection-capability experiment (E3) and the end-to-end
//! integration tests: each case records the *expected* static verdict
//! and dynamic outcome.

use parcoach_core::StaticReport;

/// Expected static outcome for a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectStatic {
    /// No warnings at all.
    Clean,
    /// At least one warning, with the given code expected among them.
    Warns(&'static str),
}

impl ExpectStatic {
    /// Does `report` meet the expectation?
    pub fn holds(self, report: &StaticReport) -> bool {
        match self {
            ExpectStatic::Clean => report.is_clean(),
            ExpectStatic::Warns(code) => report.warnings.iter().any(|w| w.kind.code() == code),
        }
    }
}

/// Expected dynamic outcome (run with instrumentation, 2 ranks / 4
/// threads unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectDynamic {
    /// Completes cleanly.
    Clean,
    /// Fails, intercepted by a PARCOACH check (CC / monothread assert /
    /// concurrency counter).
    CaughtByCheck,
    /// Fails; the substrate (matcher, deadlock census, thread-level
    /// enforcement) reports it — with or without instrumentation.
    CaughtBySubstrate,
    /// Fails by either path depending on scheduling.
    Fails,
    /// Latent error: the static phase warns, but whether a run fails
    /// depends on the schedule (e.g. identical collectives under nested
    /// parallelism, or a `single` claimed by the initial thread under
    /// `MPI_THREAD_SINGLE`). Runs are accepted either way.
    MayFail,
}

impl ExpectDynamic {
    /// Does a run that `failed` (and, if so, was intercepted by a
    /// PARCOACH check when `by_check`) meet the expectation?
    pub fn holds(self, failed: bool, by_check: bool) -> bool {
        match self {
            ExpectDynamic::Clean => !failed,
            ExpectDynamic::CaughtByCheck => failed && by_check,
            ExpectDynamic::CaughtBySubstrate | ExpectDynamic::Fails => failed,
            ExpectDynamic::MayFail => true,
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone)]
pub struct ErrorCase {
    /// Stable id.
    pub id: &'static str,
    /// What the case exercises.
    pub description: &'static str,
    /// The program.
    pub source: String,
    /// Expected static verdict.
    pub expect_static: ExpectStatic,
    /// Expected dynamic outcome under instrumentation.
    pub expect_dynamic: ExpectDynamic,
}

/// Build the complete catalogue.
pub fn error_catalogue() -> Vec<ErrorCase> {
    vec![
        // ---- erroneous programs ----------------------------------------
        ErrorCase {
            id: "mismatch-rank-branch",
            description: "different collectives on rank-dependent branches",
            source: r#"
fn main() {
    if (rank() == 0) { MPI_Barrier(); } else { let x = MPI_Allreduce(1, SUM); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "missing-collective",
            description: "collective executed by a strict subset of ranks",
            source: r#"
fn main() {
    if (rank() == 0) { MPI_Barrier(); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "count-mismatch-loop",
            description: "rank-dependent collective count in a loop",
            source: r#"
fn main() {
    let n = 1 + rank();
    for (i in 0..n) { let x = MPI_Allreduce(i, SUM); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "early-return",
            description: "a rank returns from main before the collective",
            source: r#"
fn main() {
    if (rank() == size() - 1) { return; }
    MPI_Barrier();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "multithreaded-collective",
            description: "collective executed by the whole team",
            source: r#"
fn main() {
    parallel num_threads(4) {
        MPI_Barrier();
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("multithreaded-collective"),
            expect_dynamic: ExpectDynamic::Fails,
        },
        ErrorCase {
            id: "collective-in-pfor",
            description: "collective inside a worksharing loop",
            source: r#"
fn main() {
    parallel num_threads(2) {
        pfor (i in 0..4) { let x = MPI_Allreduce(i, SUM); }
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("multithreaded-collective"),
            expect_dynamic: ExpectDynamic::Fails,
        },
        ErrorCase {
            id: "nested-parallel-collective",
            description: "collective under nested parallelism (one executor per team)",
            source: r#"
fn main() {
    parallel num_threads(2) {
        parallel num_threads(2) {
            single { MPI_Barrier(); }
        }
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("nested-parallelism-collective"),
            expect_dynamic: ExpectDynamic::MayFail,
        },
        ErrorCase {
            id: "concurrent-singles-nowait",
            description: "two collective-bearing nowait singles may overlap",
            source: r#"
fn main() {
    parallel num_threads(4) {
        single nowait { MPI_Barrier(); }
        single nowait { let x = MPI_Allreduce(1, SUM); }
        barrier;
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("concurrent-collectives"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "concurrent-sections",
            description: "collectives in sibling sections",
            source: r#"
fn main() {
    parallel num_threads(2) {
        sections {
            section { MPI_Barrier(); }
            section { let x = MPI_Allreduce(1, SUM); }
        }
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("concurrent-collectives"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "self-concurrent-single",
            description: "nowait single with a collective inside a loop",
            source: r#"
fn main() {
    parallel num_threads(4) {
        for (i in 0..3) {
            single nowait { let x = MPI_Allreduce(i, SUM); }
        }
        barrier;
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("self-concurrent-region"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "barrier-divergence",
            description: "thread barrier on one branch only",
            source: r#"
fn main() {
    parallel num_threads(2) {
        if (thread_num() == 0) { barrier; }
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("barrier-divergence"),
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "insufficient-thread-level",
            description: "MPI_Init without thread support but hybrid collectives",
            source: r#"
fn main() {
    MPI_Init();
    parallel num_threads(2) {
        single { MPI_Barrier(); }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("insufficient-thread-level"),
            expect_dynamic: ExpectDynamic::MayFail,
        },
        ErrorCase {
            id: "divergent-call",
            description: "collective-bearing function called on one branch",
            source: r#"
fn exchange() { MPI_Barrier(); }
fn main() {
    if (rank() % 2 == 0) { exchange(); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "multithreaded-call",
            description: "collective-bearing function called by the whole team",
            source: r#"
fn exchange() { let x = MPI_Allreduce(1, SUM); }
fn main() {
    parallel num_threads(4) {
        exchange();
    }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("multithreaded-call"),
            expect_dynamic: ExpectDynamic::Fails,
        },
        // ---- point-to-point and sub-communicator errors ------------------
        ErrorCase {
            id: "p2p-recv-before-send",
            description: "head-to-head recv-then-send deadlock on every rank \
                          (the wait-for-graph detector names the cycle)",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let v = MPI_Recv(peer, 7);
    MPI_Send(rank(), peer, 7);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("mismatched-order"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "p2p-tag-mismatch-subcomm",
            description: "send tag 1 vs recv tag 2 on a duplicated communicator",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_dup(MPI_COMM_WORLD);
    let peer = size() - 1 - rank();
    MPI_Send(1.5, peer, 1, c);
    let v = MPI_Recv(peer, 2, c);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("unmatched-p2p"),
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "p2p-unreceived-send",
            description: "a send no receive ever consumes (latent in a buffered \
                          model; the pre-finalize p2p census catches it)",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    MPI_Send(42, peer, 5);
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("unmatched-p2p"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "subcomm-collective-divergence",
            description: "collective on a split communicator executed by a \
                          subset of its members",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
    if (rank() == 0) { MPI_Barrier(c); }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "p2p-insufficient-thread-level",
            description: "whole-team sends under SERIALIZED (needs MULTIPLE)",
            source: r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    let peer = size() - 1 - rank();
    parallel num_threads(2) {
        MPI_Send(thread_num(), peer, 3);
    }
    let a = MPI_Recv(peer, 3);
    let b = MPI_Recv(peer, 3);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("insufficient-thread-level"),
            expect_dynamic: ExpectDynamic::MayFail,
        },
        // ---- non-blocking / wildcard / request errors --------------------
        ErrorCase {
            id: "request-leak-isend",
            description: "MPI_Isend whose request is never waited and whose \
                          message no receive consumes (latent; the request \
                          pass and the p2p census both catch it)",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let s = MPI_Isend(42, peer, 5);
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("unwaited-request"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "request-wait-never-posted-send",
            description: "wait on an irecv whose matching send is never \
                          posted by any rank",
            source: r#"
fn main() {
    MPI_Init();
    if (rank() == 0) {
        let r = MPI_Irecv(1, 9);
        let v = MPI_Wait(r);
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("unmatched-p2p"),
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "nonblocking-wait-cycle",
            description: "head-to-head wait cycle: every rank waits on its \
                          irecv before sending (the wait-for-graph detector \
                          terminates the run instead of hanging)",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let r = MPI_Irecv(peer, 7);
    let v = MPI_Wait(r);
    MPI_Send(rank(), peer, 7);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("mismatched-order"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "nonblocking-waitall-cycle-two-comms",
            description: "waitall cycle across two communicators: both \
                          pending receives precede every matching send",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_dup(MPI_COMM_WORLD);
    let peer = size() - 1 - rank();
    let r1 = MPI_Irecv(peer, 1);
    let r2 = MPI_Irecv(peer, 2, c);
    MPI_Waitall(r1, r2);
    MPI_Send(1.0, peer, 1);
    MPI_Send(2.0, peer, 2, c);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("mismatched-order"),
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "wildcard-pinned-deadlock",
            description: "receive pinned to the wrong source (classic \
                          off-by-one): correct under MPI_ANY_SOURCE (see \
                          ok-wildcard-anysource), a wait-for self-loop when \
                          pinned",
            source: r#"
fn main() {
    MPI_Init();
    if (rank() == 0) {
        let r = MPI_Irecv(0, 6);
        let v = MPI_Wait(r);
    } else {
        MPI_Send(1.5, 0, 6);
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::CaughtByCheck,
        },
        ErrorCase {
            id: "nonblocking-insufficient-thread-level",
            description: "whole-team isend/wait under SERIALIZED (needs \
                          MULTIPLE)",
            source: r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    let peer = size() - 1 - rank();
    parallel num_threads(2) {
        let s = MPI_Isend(thread_num(), peer, 3);
        let v = MPI_Wait(s);
    }
    let a = MPI_Recv(peer, 3);
    let b = MPI_Recv(peer, 3);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("insufficient-thread-level"),
            expect_dynamic: ExpectDynamic::MayFail,
        },
        // ---- correct programs (controls) --------------------------------
        ErrorCase {
            id: "ok-sequential",
            description: "collectives outside any parallel region",
            source: r#"
fn main() {
    MPI_Init();
    let s = MPI_Allreduce(rank(), SUM);
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-single",
            description: "collective correctly wrapped in single",
            source: r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    parallel num_threads(4) {
        single { MPI_Barrier(); }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-master-funneled",
            description: "collective in master under FUNNELED",
            source: r#"
fn main() {
    MPI_Init_thread(FUNNELED);
    parallel num_threads(4) {
        master { let x = MPI_Allreduce(1, SUM); }
        barrier;
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-ordered-singles",
            description: "two singles separated by the implicit barrier",
            source: r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    parallel num_threads(4) {
        single { MPI_Barrier(); }
        single { let x = MPI_Allreduce(1, SUM); }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "fp-uniform-conditional",
            description: "conditional collective with a rank-uniform condition \
                          (static false positive, dynamically clean)",
            source: r#"
fn main() {
    let flag = size() > 0;
    if (flag) { MPI_Barrier(); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "fp-uniform-loop",
            description: "collective in a loop with uniform bounds \
                          (static false positive, dynamically clean)",
            source: r#"
fn main() {
    for (i in 0..4) { let x = MPI_Allreduce(i, SUM); }
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-p2p-pingpong",
            description: "correctly ordered blocking ping-pong",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    if (rank() == 0) {
        MPI_Send(1.0, peer, 4);
        let v = MPI_Recv(peer, 4);
    } else {
        let v = MPI_Recv(peer, 4);
        MPI_Send(2.0, peer, 4);
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-multiple-threaded-pingpong",
            description: "MPI_THREAD_MULTIPLE-correct: one thread sends while a \
                          sibling thread receives (MPIxThreads pattern)",
            source: r#"
fn main() {
    MPI_Init_thread(MULTIPLE);
    let peer = size() - 1 - rank();
    parallel num_threads(2) {
        sections {
            section { MPI_Send(3.5, peer, 10); }
            section { let v = MPI_Recv(peer, 10); }
        }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-multiple-concurrent-subcomm-collectives",
            description: "MPI_THREAD_MULTIPLE-correct: concurrent collectives on \
                          unrelated communicators from sibling threads",
            source: r#"
fn main() {
    MPI_Init_thread(MULTIPLE);
    let c = MPI_Comm_dup(MPI_COMM_WORLD);
    parallel num_threads(2) {
        sections {
            section { MPI_Barrier(); }
            section { MPI_Barrier(c); }
        }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-subcomm-allreduce",
            description: "unconditional collective on a parity-split communicator",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_split(MPI_COMM_WORLD, rank() % 2, rank());
    let s = MPI_Allreduce(rank() + 1, SUM, c);
    print(s);
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-nonblocking-pingpong",
            description: "post the irecv, send, then wait — the correct \
                          non-blocking exchange (deferred completion keeps \
                          the order pass quiet)",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let r = MPI_Irecv(peer, 4);
    MPI_Send(rank() + 1, peer, 4);
    let v = MPI_Wait(r);
    print(v);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-wildcard-anysource",
            description: "wildcard receive: the collector accepts the token \
                          from any source (the correct version of \
                          wildcard-pinned-deadlock)",
            source: r#"
fn main() {
    MPI_Init();
    if (rank() == 0) {
        let r = MPI_Irecv(MPI_ANY_SOURCE, 6);
        let v = MPI_Wait(r);
        print(v);
    } else {
        MPI_Send(1.5, 0, 6);
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-nonblocking-waitall-exchange",
            description: "two-tag exchange completed by one waitall over all \
                          four requests",
            source: r#"
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let r1 = MPI_Irecv(peer, 1);
    let r2 = MPI_Irecv(peer, 2);
    let s1 = MPI_Isend(10 + rank(), peer, 1);
    let s2 = MPI_Isend(20 + rank(), peer, 2);
    MPI_Waitall(r1, r2, s1, s2);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-wildcard-subcomm",
            description: "fully wildcarded receive on a duplicated \
                          communicator: its matching space is separate, so \
                          world traffic cannot be stolen",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_dup(MPI_COMM_WORLD);
    let peer = size() - 1 - rank();
    let r = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG, c);
    let s = MPI_Isend(rank() + 1, peer, 5, c);
    MPI_Barrier();
    MPI_Waitall(r, s);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-halo-exchange-subcomm",
            description: "HERA-style comm-split halo exchange: isend/irecv \
                          per step completed by MPI_Waitall on the \
                          sub-communicator, then a subcomm allreduce \
                          (request tables + per-comm matching under load)",
            source: r#"
fn main() {
    MPI_Init();
    let c = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
    let peer = size() - 1 - rank();
    let acc = 0.0;
    for (step in 0..3) {
        let r = MPI_Irecv(peer, 7, c);
        let s = MPI_Isend(float_of(step) + 0.5, peer, 7, c);
        MPI_Waitall(r, s);
    }
    let total = MPI_Allreduce(acc + 1.0, SUM, c);
    print(total);
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "ok-balanced-branches",
            description: "same collective on both branches (refinement removes \
                          the PDF+ candidate)",
            source: r#"
fn main() {
    if (rank() % 2 == 0) { MPI_Barrier(); } else { MPI_Barrier(); }
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        // ---- fuzz-derived cases (minimized differential reproducers) ----
        // Promoted from the E11 differential-fuzzing campaigns: each is a
        // delta-debugged counterexample whose static/dynamic verdicts
        // disagreed (or used to, before the entry-reachability fix).
        ErrorCase {
            id: "fuzz-dead-helper-wait-cycle",
            description: "uncalled helper with a recv-before-send cycle: \
                          before entry-reachability filtering the static \
                          phase warned on dead code (fuzz FP reproducer)",
            source: r#"
fn dead() {
    let peer = size() - 1 - rank();
    let v = MPI_Recv(peer, 1);
    MPI_Send(v, peer, 1);
}
fn main() {
    MPI_Init();
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "fuzz-dead-helper-send-leak",
            description: "uncalled helper whose send never completes: dead \
                          code must not produce unmatched-p2p warnings \
                          (fuzz FP reproducer)",
            source: r#"
fn dead() {
    MPI_Send(1.5, 0, 4);
}
fn main() {
    MPI_Init();
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "fuzz-dead-helper-request-leak",
            description: "uncalled helper leaking an isend request: dead \
                          code must not trip the request life-cycle pass \
                          (fuzz FP reproducer)",
            source: r#"
fn dead() {
    let peer = size() - 1 - rank();
    let r = MPI_Isend(2.5, peer, 9);
}
fn main() {
    MPI_Init();
    MPI_Barrier();
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::Clean,
        },
        ErrorCase {
            id: "fuzz-masked-recv-balance",
            description: "the soundness half of reachability filtering: an \
                          uncalled helper's send must not balance the \
                          reachable receive's (comm, tag) key, which would \
                          mask the deadlock statically",
            source: r#"
fn dead() {
    let peer = size() - 1 - rank();
    MPI_Send(1.0, peer, 5);
}
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let v = MPI_Recv(peer, 5);
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("unmatched-p2p"),
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "fuzz-pinned-collector-single",
            description: "pinned-wrong-source collector inside a single \
                          region: the SPMD (comm, tag) abstraction cannot \
                          align peer ranks statically, and the stall \
                          surfaces as thread-barrier divergence (fuzz FN \
                          blind-spot reproducer)",
            source: r#"
fn collect() {
    if (rank() == 0) {
        let r = MPI_Irecv(0, 2);
        let v = MPI_Wait(r);
    } else {
        MPI_Send(1.5, 0, 2);
    }
}
fn main() {
    MPI_Init_thread(MULTIPLE);
    parallel num_threads(2) {
        single { collect(); }
    }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Clean,
            expect_dynamic: ExpectDynamic::CaughtBySubstrate,
        },
        ErrorCase {
            id: "fuzz-uniform-guard-fp",
            description: "the fuzzer's minimized form of the uniform-guard \
                          false positive: a size()-uniform inline condition \
                          around a collective (cf. fp-uniform-conditional)",
            source: r#"
fn main() {
    MPI_Init_thread(FUNNELED);
    if (size() > 0) { MPI_Barrier(); }
    MPI_Finalize();
}
"#
            .into(),
            expect_static: ExpectStatic::Warns("collective-mismatch"),
            expect_dynamic: ExpectDynamic::Clean,
        },
    ]
}

/// The paper/related-work anchor of a catalogue case. Kept as a match
/// (not a struct field) so the mapping is exhaustively tested against
/// the case list without widening every literal.
pub fn paper_ref(id: &str) -> &'static str {
    match id {
        "mismatch-rank-branch"
        | "missing-collective"
        | "count-mismatch-loop"
        | "early-return"
        | "divergent-call" => "§2 property 3 / Algorithm 1",
        "multithreaded-collective"
        | "collective-in-pfor"
        | "nested-parallel-collective"
        | "multithreaded-call" => "§2 property 1 (monothread contexts)",
        "concurrent-singles-nowait" | "concurrent-sections" | "self-concurrent-single" => {
            "§2 property 2 (sequential order)"
        }
        "barrier-divergence" => "§2 (parallelism-word divergence)",
        "insufficient-thread-level" => "§1 / MPI-2 §12.4 (thread levels)",
        "p2p-recv-before-send" | "p2p-tag-mismatch-subcomm" | "p2p-unreceived-send" => {
            "extension: p2p matching (Liao et al.)"
        }
        "subcomm-collective-divergence" => "extension: per-communicator Algorithm 1",
        "p2p-insufficient-thread-level" => "extension: p2p thread levels (MPIxThreads)",
        "ok-sequential" | "ok-single" | "ok-master-funneled" | "ok-ordered-singles" => {
            "§2 (accepted language L)"
        }
        "fp-uniform-conditional" | "fp-uniform-loop" => "§3 (dynamic check clears static FP)",
        "ok-p2p-pingpong" => "extension: p2p matching (correct control)",
        "ok-multiple-threaded-pingpong" | "ok-multiple-concurrent-subcomm-collectives" => {
            "extension: MPI_THREAD_MULTIPLE-correct (MPIxThreads)"
        }
        "ok-subcomm-allreduce" => "extension: per-communicator matching (correct control)",
        "ok-balanced-branches" => "extension: balanced-arms refinement",
        "request-leak-isend" | "request-wait-never-posted-send" => {
            "extension: request life-cycle (leaked request / never-produced message)"
        }
        "nonblocking-wait-cycle" | "nonblocking-waitall-cycle-two-comms" => {
            "extension: deferred completion + wait-for graph"
        }
        "wildcard-pinned-deadlock" | "ok-wildcard-anysource" => {
            "extension: wildcard receives (arXiv:2508.18667 §asynchronous matching)"
        }
        "nonblocking-insufficient-thread-level" => {
            "extension: non-blocking thread levels (MPIxThreads)"
        }
        "ok-nonblocking-pingpong" | "ok-nonblocking-waitall-exchange" => {
            "extension: non-blocking p2p (correct controls)"
        }
        "ok-wildcard-subcomm" => "extension: wildcard matching per communicator",
        "ok-halo-exchange-subcomm" => {
            "extension: non-blocking halo exchange on a sub-communicator (correct control)"
        }
        "fuzz-dead-helper-wait-cycle"
        | "fuzz-dead-helper-send-leak"
        | "fuzz-dead-helper-request-leak"
        | "fuzz-masked-recv-balance" => "E11: entry-reachability fix (fuzz-minimized)",
        "fuzz-pinned-collector-single" => {
            "E11: pinned-source blind spot — §3 hybrid rationale (fuzz-minimized)"
        }
        "fuzz-uniform-guard-fp" => "§3 (dynamic check clears static FP) — fuzz-minimized",
        _ => "unmapped",
    }
}

/// The case's category, derived from its expectations.
fn case_kind(c: &ErrorCase) -> &'static str {
    match (c.expect_static, c.expect_dynamic) {
        (ExpectStatic::Clean, ExpectDynamic::Clean) => "correct (control)",
        (ExpectStatic::Warns(_), ExpectDynamic::Clean) => "static false positive",
        _ => "error",
    }
}

fn dynamic_text(e: ExpectDynamic) -> &'static str {
    match e {
        ExpectDynamic::Clean => "runs clean",
        ExpectDynamic::CaughtByCheck => "caught by a PARCOACH check",
        ExpectDynamic::CaughtBySubstrate => "caught by the substrate",
        ExpectDynamic::Fails => "fails (check or substrate)",
        ExpectDynamic::MayFail => "schedule-dependent (may fail)",
    }
}

/// Render the canonical catalogue reference table (the generated block
/// of `CATALOGUE.md`). A test compares the checked-in file against this
/// output, so the document cannot drift from `error_catalogue()`.
pub fn catalogue_markdown() -> String {
    let mut out = String::new();
    out.push_str("| id | kind | paper anchor | expected static | expected dynamic |\n");
    out.push_str("|---|---|---|---|---|\n");
    for c in error_catalogue() {
        let stat = match c.expect_static {
            ExpectStatic::Clean => "clean".to_string(),
            ExpectStatic::Warns(code) => format!("warns `{code}`"),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            c.id,
            case_kind(&c),
            paper_ref(c.id),
            stat,
            dynamic_text(c.expect_dynamic),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_well_formed() {
        let cases = error_catalogue();
        assert!(cases.len() >= 44);
        let mut ids: Vec<_> = cases.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cases.len(), "duplicate ids");
        for c in &cases {
            assert!(!c.source.trim().is_empty());
            assert!(c.source.contains("fn main()"), "{}", c.id);
        }
    }

    #[test]
    fn every_case_has_a_paper_anchor() {
        for c in error_catalogue() {
            assert_ne!(
                paper_ref(c.id),
                "unmapped",
                "case `{}` lacks an anchor",
                c.id
            );
        }
    }

    #[test]
    fn markdown_covers_every_case() {
        let md = catalogue_markdown();
        for c in error_catalogue() {
            assert!(md.contains(&format!("`{}`", c.id)), "{} missing", c.id);
        }
    }

    /// Every expectation against every outcome.
    #[test]
    fn verdicts_over_every_expectation_and_outcome() {
        use parcoach_core::{StaticWarning, WarningKind};
        use parcoach_front::span::Span;
        let warns = |kind: WarningKind| StaticReport {
            warnings: vec![StaticWarning {
                kind,
                func: "main".into(),
                message: String::new(),
                span: Span::DUMMY,
                related: Vec::new(),
            }],
            ..StaticReport::default()
        };
        let clean = StaticReport::default();
        let mismatch = warns(WarningKind::CollectiveMismatch);
        let other = warns(WarningKind::UnwaitedRequest);
        let code = WarningKind::CollectiveMismatch.code();
        for (expect, report, holds) in [
            (ExpectStatic::Clean, &clean, true),
            (ExpectStatic::Clean, &mismatch, false),
            (ExpectStatic::Warns(code), &clean, false),
            (ExpectStatic::Warns(code), &mismatch, true),
            (ExpectStatic::Warns(code), &other, false),
        ] {
            assert_eq!(expect.holds(report), holds, "{expect:?}");
        }

        // Outcomes: (failed, by_check) = clean, by the substrate, by a check.
        let outcomes = [(false, false), (true, false), (true, true)];
        for (expect, holds) in [
            (ExpectDynamic::Clean, [true, false, false]),
            (ExpectDynamic::CaughtByCheck, [false, false, true]),
            (ExpectDynamic::CaughtBySubstrate, [false, true, true]),
            (ExpectDynamic::Fails, [false, true, true]),
            (ExpectDynamic::MayFail, [true, true, true]),
        ] {
            for ((failed, by_check), holds) in outcomes.into_iter().zip(holds) {
                assert_eq!(
                    expect.holds(failed, by_check),
                    holds,
                    "{expect:?} failed={failed} by_check={by_check}"
                );
            }
        }
    }

    #[test]
    fn has_both_polarity_controls() {
        let cases = error_catalogue();
        assert!(cases
            .iter()
            .any(|c| c.expect_static == ExpectStatic::Clean
                && c.expect_dynamic == ExpectDynamic::Clean));
        assert!(
            cases
                .iter()
                .any(|c| matches!(c.expect_static, ExpectStatic::Warns(_))
                    && c.expect_dynamic == ExpectDynamic::Clean),
            "must include static-false-positive controls"
        );
    }
}
