//! E3 (extension) — detection capability over the error catalogue:
//! for every case, the static verdict, the dynamic outcome of an
//! *instrumented* run, and who intercepted the failure.
//!
//! Usage: `cargo run --release -p parcoach-bench --bin detection_table
//! [filter[,filter…]]` — optional comma-separated id substrings select
//! a catalogue slice (e.g. `p2p,subcomm,multiple` for the E6 p2p /
//! sub-communicator slice).

use parcoach_bench::{detection, RunOutcome};
use parcoach_workloads::ExpectDynamic;

fn main() {
    let arg = std::env::args().nth(1);
    let filters: Vec<&str> = arg
        .as_deref()
        .map(|arg| arg.split(',').collect())
        .unwrap_or_default();
    println!(
        "{:<28} {:<26} {:<10} {:<14} {:<10} ok?",
        "case", "static verdict", "expected", "dynamic", "by-check"
    );
    let rows = detection(&filters);
    for d in &rows {
        let (dynamic, by_check) = match &d.outcome {
            RunOutcome::CompileError(e) => {
                println!("{:<28} COMPILE ERROR: {e}", d.case.id);
                continue;
            }
            RunOutcome::Ran(run) => (
                if run.is_clean() { "clean" } else { "fails" },
                if run.detected_by_check() { "yes" } else { "-" },
            ),
            RunOutcome::Hung => ("hung", "-"),
            RunOutcome::Panicked => ("panicked", "-"),
        };
        let static_verdict = if d.static_codes.is_empty() {
            "clean".to_string()
        } else {
            d.static_codes.join(",")
        };
        let expected = match d.case.expect_dynamic {
            ExpectDynamic::Clean => "clean",
            ExpectDynamic::CaughtByCheck => "check",
            ExpectDynamic::CaughtBySubstrate => "substrate",
            ExpectDynamic::Fails => "fails",
            ExpectDynamic::MayFail => "may-fail",
        };
        println!(
            "{:<28} {:<26} {:<10} {:<14} {:<10} {}",
            d.case.id,
            truncate(&static_verdict, 26),
            expected,
            dynamic,
            by_check,
            if d.ok { "ok" } else { "MISMATCH" }
        );
    }
    println!();
    if rows.is_empty() {
        println!("no catalogue case matches the filter(s).");
        std::process::exit(1);
    }
    if rows.iter().all(|d| d.ok) {
        println!("all catalogue cases behave as expected.");
    } else {
        println!("SOME CASES DIVERGED FROM EXPECTATION — see rows marked MISMATCH.");
        std::process::exit(1);
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
