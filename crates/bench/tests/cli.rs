//! The table bins' argument contract: a good input prints the table and
//! exits 0; an unknown class, a non-numeric repetition count and a zero
//! count print a usage message and exit 3, the workspace's usage code.
//! `detection_table`'s filter selects the rows it prints, and one that
//! selects none exits 1.

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

#[test]
fn detection_table_prints_only_the_filtered_rows() {
    let out = run(env!("CARGO_BIN_EXE_detection_table"), &["p2p"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let mut lines = stdout.lines();
    assert!(
        lines.next().is_some_and(|h| h.starts_with("case")),
        "{stdout}"
    );
    let ids: Vec<&str> = lines
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().unwrap_or_default())
        .collect();
    assert!(!ids.is_empty(), "{stdout}");
    for id in ids {
        assert!(id.contains("p2p"), "{id} in\n{stdout}");
    }
    assert!(
        stdout.contains("all catalogue cases behave as expected."),
        "{stdout}"
    );
}

#[test]
fn detection_table_fails_a_filter_that_matches_nothing() {
    let out = run(env!("CARGO_BIN_EXE_detection_table"), &["no-such-case"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("no catalogue case matches"), "{stdout}");
}
