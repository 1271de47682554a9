//! Integration tests for the `parcoachc` CLI: drives the real binary
//! (via `CARGO_BIN_EXE_parcoachc`) over sample `.mh` programs and
//! asserts the documented exit-code contract:
//!
//! * 0 — clean (statically verified, or run completed cleanly)
//! * 1 — static warnings only
//! * 2 — dynamic error detected
//! * 3 — usage or compile error

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn parcoachc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parcoachc"))
        .args(args)
        .output()
        .expect("spawn parcoachc")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (killed by signal?)")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Write a program to a temp `.mh` file unique to this test.
fn write_mh(name: &str, src: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("parcoachc-cli-{}-{name}.mh", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp .mh");
    f.write_all(src.as_bytes()).expect("write temp .mh");
    path
}

const CLEAN: &str = r#"
fn main() {
    MPI_Init();
    MPI_Barrier();
    print(rank());
    MPI_Finalize();
}
"#;

const DIVERGENT: &str = r#"
fn main() {
    MPI_Init();
    if (rank() == 0) {
        MPI_Barrier();
    }
    MPI_Finalize();
}
"#;

/// The catalogue's `missing-collective` shape: the divergence reaches the
/// end of `main`, so the instrumented return-CC votes and the PARCOACH
/// check itself (not the substrate) reports the mismatch.
const DIVERGENT_AT_RETURN: &str = r#"
fn main() {
    if (rank() == 0) { MPI_Barrier(); }
}
"#;

/// Statically a false positive, dynamically clean: the condition is
/// rank-uniform, so every process takes the same branch.
const UNIFORM_CONDITIONAL: &str = r#"
fn main() {
    MPI_Init();
    if (size() > 0) {
        MPI_Barrier();
    }
    MPI_Finalize();
}
"#;

#[test]
fn check_clean_program_exits_0() {
    let p = write_mh("check-clean", CLEAN);
    let out = parcoachc(&["check", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("verified statically"));
}

#[test]
fn check_divergent_program_exits_1_with_warning() {
    let p = write_mh("check-div", DIVERGENT);
    let out = parcoachc(&["check", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("collective-mismatch"),
        "expected a collective-mismatch warning, got: {}",
        stdout(&out)
    );
}

#[test]
fn run_clean_program_exits_0() {
    let p = write_mh("run-clean", CLEAN);
    let out = parcoachc(&["run", p.to_str().unwrap(), "--ranks", "2"]);
    assert_eq!(exit_code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("run completed cleanly"));
}

#[test]
fn run_divergent_program_exits_2() {
    // With MPI_Finalize after the divergence, rank 1 reaches Finalize
    // while rank 0 sits in the barrier's CC: the simulated MPI substrate
    // flags the collective mismatch. Exit code 2 either way.
    let p = write_mh("run-div", DIVERGENT);
    let out = parcoachc(&["run", p.to_str().unwrap(), "--ranks", "2"]);
    assert_eq!(exit_code(&out), 2, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("run failed"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn run_divergence_at_return_is_caught_by_check() {
    let p = write_mh("run-div-ret", DIVERGENT_AT_RETURN);
    let out = parcoachc(&["run", p.to_str().unwrap(), "--ranks", "2"]);
    assert_eq!(exit_code(&out), 2, "stdout: {}", stdout(&out));
    let s = stdout(&out);
    assert!(
        s.contains("intercepted by a PARCOACH dynamic check"),
        "the return-CC vote should catch the mismatch before the substrate \
         deadlocks; stdout: {s}"
    );
}

#[test]
fn run_static_false_positive_is_dynamically_clean() {
    let p = write_mh("run-fp", UNIFORM_CONDITIONAL);
    let check = parcoachc(&["check", p.to_str().unwrap()]);
    assert_eq!(
        exit_code(&check),
        1,
        "static pass should warn (conservative)"
    );
    let run = parcoachc(&["run", p.to_str().unwrap(), "--ranks", "2"]);
    assert_eq!(
        exit_code(&run),
        0,
        "uniform conditional must run cleanly: {}",
        stdout(&run)
    );
}

#[test]
fn run_uninstrumented_still_reports_dynamic_error() {
    let p = write_mh("run-noinstr", DIVERGENT);
    let out = parcoachc(&[
        "run",
        p.to_str().unwrap(),
        "--ranks",
        "2",
        "--no-instrument",
    ]);
    // Without instrumentation the mismatch is caught by the simulated MPI
    // substrate's deadlock census instead of a PARCOACH check — still
    // exit code 2, but not "intercepted".
    assert_eq!(exit_code(&out), 2, "stdout: {}", stdout(&out));
    assert!(!stdout(&out).contains("intercepted by a PARCOACH dynamic check"));
}

#[test]
fn bad_numeric_flag_values_are_usage_errors() {
    // `--jobs 0`-style values used to be silently accepted or silently
    // ignored; they must exit 3 with a diagnostic on stderr.
    let p = write_mh("bad-numeric", CLEAN);
    let file = p.to_str().unwrap();
    for args in [
        ["check", file, "--jobs", "0"],
        ["check", file, "--jobs", "zero"],
        ["run", file, "--jobs", "0"],
        ["run", file, "--ranks", "0"],
        ["run", file, "--threads", "0"],
        ["run", file, "--ranks", "-1"],
    ] {
        let out = parcoachc(&args);
        assert_eq!(exit_code(&out), 3, "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains(args[2]),
            "diagnostic should name the flag for {args:?}: {err}"
        );
        assert!(
            err.contains("USAGE"),
            "bad values route through the usage path for {args:?}: {err}"
        );
    }
}

#[test]
fn missing_numeric_flag_value_is_usage_error() {
    let p = write_mh("missing-numeric", CLEAN);
    let out = parcoachc(&["run", p.to_str().unwrap(), "--ranks"]);
    assert_eq!(exit_code(&out), 3);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("--ranks") && err.contains("missing value"),
        "{err}"
    );
}

#[test]
fn jobs_and_deterministic_flags_accepted() {
    let p = write_mh("jobs-flags", CLEAN);
    let file = p.to_str().unwrap();
    let out = parcoachc(&["check", file, "--jobs", "2", "--deterministic"]);
    assert_eq!(exit_code(&out), 0, "stdout: {}", stdout(&out));
    let out = parcoachc(&["run", file, "--ranks", "2", "--jobs", "1"]);
    assert_eq!(exit_code(&out), 0, "stdout: {}", stdout(&out));
}

#[test]
fn check_timings_prints_phase_breakdown() {
    let p = write_mh("timings", DIVERGENT);
    let file = p.to_str().unwrap();
    // Flag form: breakdown on stderr, report on stdout, exit unchanged.
    let out = parcoachc(&["check", file, "--timings"]);
    assert_eq!(exit_code(&out), 1, "stdout: {}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    for phase in [
        "static phase timings",
        "contexts",
        "facts",
        "mono",
        "concurrency",
        "matching",
        "p2p",
        "requests",
        "total",
    ] {
        assert!(err.contains(phase), "missing `{phase}` in: {err}");
    }
    // The timed path must not change the report itself.
    let plain = parcoachc(&["check", file]);
    assert_eq!(stdout(&out), stdout(&plain));
    // Env form.
    let out = Command::new(env!("CARGO_BIN_EXE_parcoachc"))
        .args(["check", file])
        .env("PARCOACH_TIMINGS", "1")
        .output()
        .expect("spawn parcoachc");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("static phase timings"), "{err}");
}

#[test]
fn check_reports_identical_across_jobs() {
    // The analysis fans out over the pool; the rendered report must be
    // byte-identical whatever the width.
    let p = write_mh("jobs-identical", DIVERGENT);
    let file = p.to_str().unwrap();
    let seq = parcoachc(&["check", file, "--jobs", "1"]);
    let par = parcoachc(&["check", file, "--jobs", "4", "--deterministic"]);
    assert_eq!(exit_code(&seq), exit_code(&par));
    assert_eq!(stdout(&seq), stdout(&par));
}

#[test]
fn catalogue_lists_the_error_catalogue() {
    let out = parcoachc(&["catalogue"]);
    assert_eq!(exit_code(&out), 0);
    let s = stdout(&out);
    for id in [
        "mismatch-rank-branch",
        "multithreaded-collective",
        "barrier-divergence",
        "ok-single",
        "fp-uniform-conditional",
    ] {
        assert!(s.contains(id), "catalogue missing `{id}`:\n{s}");
    }
}

#[test]
fn workload_prints_compilable_source() {
    let out = parcoachc(&["workload", "EPCC", "A"]);
    assert_eq!(exit_code(&out), 0);
    let src = stdout(&out);
    assert!(src.contains("fn main()"), "not a program:\n{src}");
    // The printed workload must itself pass `check`-level compilation.
    let p = write_mh("workload-epcc", &src);
    let check = parcoachc(&["check", p.to_str().unwrap()]);
    assert!(
        exit_code(&check) <= 1,
        "generated workload failed to compile: {}",
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn usage_errors_exit_3() {
    for args in [
        &["frobnicate"][..],
        &["check"][..],
        &["check", "/nonexistent/path/x.mh"][..],
        &["workload", "NO-SUCH-WORKLOAD"][..],
        &["run", "/nonexistent/path/x.mh"][..],
    ] {
        let out = parcoachc(args);
        assert_eq!(exit_code(&out), 3, "args {args:?} should be a usage error");
    }
}

#[test]
fn compile_error_exits_3() {
    let p = write_mh("syntax-err", "fn main( {");
    let out = parcoachc(&["check", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 3);
}

/// Nesting bombs and non-ASCII bytes are compile errors (exit 3 with a
/// rendered diagnostic), not a stack overflow (SIGABRT) or a panic.
#[test]
fn hostile_source_exits_3_with_a_diagnostic() {
    let n = 100_000;
    let parens = format!(
        "fn main() {{ let x = {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let ifs = format!(
        "fn main() {{ {} {} }}",
        "if (true) {".repeat(20_000),
        "}".repeat(20_000)
    );
    for (name, src, needle) in [
        ("bomb-parens", parens.as_str(), "nesting too deep"),
        ("bomb-ifs", ifs.as_str(), "nesting too deep"),
        (
            "non-ascii",
            "fn main() { \u{e9} }",
            "unexpected character `\u{e9}`",
        ),
    ] {
        let p = write_mh(name, src);
        for cmd in ["check", "run"] {
            let out = parcoachc(&[cmd, p.to_str().unwrap()]);
            assert_eq!(exit_code(&out), 3, "{name} {cmd}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(needle), "{name} {cmd}: {:.300}", err);
            assert!(!err.contains("panicked"), "{name} {cmd}: {:.300}", err);
        }
    }
}
