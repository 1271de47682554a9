//! The table bins' argument contract: a good input prints the table and
//! exits 0; an unknown class, a non-numeric repetition count and a zero
//! count print a usage message and exit 3, the workspace's usage code.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("bin runs")
}

fn assert_usage(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn fig1_prints_every_workload() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["A", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for name in ["BT-MZ", "SP-MZ", "LU-MZ", "EPCC", "HERA"] {
        assert!(stdout.contains(name), "{name} missing from\n{stdout}");
    }
}

#[test]
fn fig1_rejects_bad_arguments() {
    let fig1 = env!("CARGO_BIN_EXE_fig1");
    assert_usage(fig1, &["Z", "1"]);
    assert_usage(fig1, &["B", "x"]);
    assert_usage(fig1, &["B", "0"]);
}

#[test]
fn ablation_selective_rejects_an_unknown_class() {
    assert_usage(env!("CARGO_BIN_EXE_ablation_selective"), &["Q"]);
}
