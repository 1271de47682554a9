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
    // A clean run's counts repeat exactly: they are part of its stdout.
    assert!(stdout(&out).contains("\nrun: "), "stdout: {}", stdout(&out));
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
    // A failing run's counts depend on how far each rank got before the
    // run stopped: they go to stderr, and stdout is the verdict.
    assert!(!stdout(&out).contains("run: "), "stdout: {}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("run: "), "stderr: {stderr}");
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

/// An array larger than the machine can allocate is a dynamic error of
/// the program (exit 2), not an abort (134) or a panic (101).
#[test]
fn unallocatable_array_exits_2() {
    for (name, n, elem) in [
        ("huge-array", "1000000000000", "0.0"),
        ("overflowing-array", "4611686018427387904", "0"),
    ] {
        let src = format!("fn main() {{ let a = array({n}, {elem}); print(len(a)); }}");
        let p = write_mh(name, &src);
        let out = parcoachc(&["run", p.to_str().unwrap(), "--ranks", "1"]);
        assert_eq!(exit_code(&out), 2, "{name}: stdout: {}", stdout(&out));
        assert!(
            stdout(&out).contains(&format!("invalid array length {n} [bad-array-length]")),
            "{name}: stdout: {}",
            stdout(&out)
        );
    }
}

#[test]
fn bad_numeric_flag_values_are_usage_errors() {
    // `--ranks 0`-style values used to be silently accepted or silently
    // ignored; they must exit 3 with a diagnostic on stderr.
    let p = write_mh("bad-numeric", CLEAN);
    let file = p.to_str().unwrap();
    for args in [
        ["run", file, "--ranks", "0"],
        ["run", file, "--ranks", "zero"],
        ["run", file, "--threads", "x"],
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

/// The analysis runs on one lane: the flags that once sized and seeded
/// its thread pool are unknown flags now, named on stderr.
#[test]
fn removed_pool_flags_are_usage_errors() {
    let p = write_mh("pool-flags", CLEAN);
    let file = p.to_str().unwrap();
    for cmd in ["check", "run"] {
        for flags in [&["--jobs", "2"][..], &["--deterministic"][..]] {
            let out = parcoachc(&[&[cmd, file][..], flags].concat());
            assert_eq!(exit_code(&out), 3, "{cmd} {flags:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("{cmd}: unknown flag `{}`", flags[0])),
                "{cmd} {flags:?}: {err}"
            );
            assert!(out.stdout.is_empty(), "{cmd} {flags:?}: nothing ran");
        }
    }
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
}

/// `diagnostics` prints the daemon's warning objects: one line of JSON,
/// zero-based LSP ranges, exit code as for `check`.
#[test]
fn diagnostics_prints_the_daemon_warning_shape() {
    let p = write_mh("diagnostics", DIVERGENT);
    let out = parcoachc(&["diagnostics", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "stdout: {}", stdout(&out));
    assert_eq!(
        stdout(&out),
        concat!(
            r#"{"clean":false,"warnings":[{"func":"main","code":"collective-mismatch","severity":1,"#,
            r#""range":{"start":{"line":4,"character":8},"end":{"line":4,"character":21}},"#,
            r#""message":"MPI_Barrier may not be executed by all processes (or not the same number "#,
            r#"of times): control-flow divergence at 1 point(s)","relatedInformation":[{"range":"#,
            r#"{"start":{"line":3,"character":8},"end":{"line":3,"character":19}},"#,
            r#""message":"execution depends on this conditional"}]}]}"#,
            "\n"
        )
    );
}

/// `dump [--dot]` is the one spelling of the IR and CFG dumps: the
/// former `dump-<cfg|ir>` aliases are unknown commands.
#[test]
fn removed_dump_aliases_are_unknown_commands() {
    let p = write_mh("dump-aliases", CLEAN);
    for cmd in ["cfg", "ir"].map(|what| format!("dump-{what}")) {
        let out = parcoachc(&[&cmd, p.to_str().unwrap()]);
        assert_eq!(exit_code(&out), 3, "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command `{cmd}`")), "{err}");
        assert!(out.stdout.is_empty(), "{cmd}: nothing dumped");
    }
}

/// `dump <file> <name>` names one function: an unknown name is a usage
/// error in either spelling, with nothing dumped, and a known one dumps
/// exactly that function.
#[test]
fn dump_of_an_unknown_function_is_a_usage_error() {
    let p = write_mh("dump-unknown", CLEAN);
    let path = p.to_str().unwrap();
    for args in [
        &["dump", path, "nope"][..],
        &["dump", path, "--dot", "nope"][..],
    ] {
        let out = parcoachc(args);
        assert_eq!(exit_code(&out), 3, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("dump: no function `nope`"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing dumped");
    }
    let out = parcoachc(&["dump", path, "main"]);
    assert_eq!(exit_code(&out), 0);
    assert!(stdout(&out).starts_with("fn main("), "{}", stdout(&out));
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

/// Run `parcoachc args` with a reader that reads `lines` lines of its
/// output and then closes the pipe (at once, before the spawn, when
/// `lines` is 0).
fn read_then_close(args: &[&str], lines: usize) -> Output {
    use std::io::{BufRead, BufReader};
    let (reader, writer) = std::io::pipe().expect("pipe");
    let reader = (lines > 0).then_some(reader);
    let child = Command::new(env!("CARGO_BIN_EXE_parcoachc"))
        .args(args)
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn parcoachc");
    if let Some(reader) = reader {
        let mut reader = BufReader::new(reader);
        for _ in 0..lines {
            reader.read_line(&mut String::new()).expect("read a line");
        }
    }
    child.wait_with_output().expect("wait for parcoachc")
}

#[test]
fn a_reader_that_stops_early_ends_the_output_quietly() {
    let p = write_mh("closed-pipe", DIVERGENT);
    let path = p.to_str().unwrap();
    for args in [&["catalogue"][..], &["check", path]] {
        let full = exit_code(&parcoachc(args));
        for lines in [0, 1] {
            let out = read_then_close(args, lines);
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!err.contains("panicked"), "{args:?} after {lines}: {err}");
            assert_ne!(exit_code(&out), 101, "{args:?} after {lines}");
            assert_eq!(exit_code(&out), full, "{args:?} after {lines}: {err}");
        }
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
