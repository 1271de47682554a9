//! The `parcoachd` binary, driven over its command line and stdio.
//!
//! The analysis runs on one lane, so the flags that once sized and
//! seeded a thread pool are unknown flags — usage on stderr, exit 3,
//! nothing served.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn removed_pool_flags_are_usage_errors() {
    for args in [
        &["--jobs", "1"][..],
        &["--deterministic"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_parcoachd"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn parcoachd");
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{}`", args[0])),
            "{args:?}: {err}"
        );
        assert!(err.contains("USAGE"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing served");
    }
}

/// A `shutdown` rejected before `initialize` is one error line, not the
/// end of the session: the requests after it are still read and
/// answered, and an accepted `shutdown` then ends it.
#[test]
fn rejected_shutdown_keeps_the_stdio_session_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parcoachd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parcoachd");
    let input = [
        r#"{"jsonrpc":"2.0","id":1,"method":"shutdown"}"#,
        r#"{"jsonrpc":"2.0","id":2,"method":"initialize","params":{"protocolVersion":2}}"#,
        r#"{"jsonrpc":"2.0","id":3,"method":"timings","params":{}}"#,
        r#"{"jsonrpc":"2.0","id":4,"method":"shutdown"}"#,
        r#"{"jsonrpc":"2.0","id":5,"method":"timings","params":{}}"#,
    ];
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all((input.join("\n") + "\n").as_bytes())
        .unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("wait for parcoachd");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(
        lines[0].starts_with(r#"{"jsonrpc":"2.0","id":1,"error":{"code":-32001"#),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""id":2,"result""#), "{}", lines[1]);
    assert_eq!(
        lines[2],
        r#"{"jsonrpc":"2.0","id":3,"result":{"available":false}}"#
    );
    assert_eq!(lines[3], r#"{"jsonrpc":"2.0","id":4,"result":null}"#);
}
