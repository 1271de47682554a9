//! E3 (extension) — detection capability over the error catalogue:
//! for every case, the static verdict, the dynamic outcome of an
//! *instrumented* run, and who intercepted the failure.
//!
//! Usage: `cargo run --release -p parcoach-bench --bin detection_table
//! [filter[,filter…]]` — optional comma-separated id substrings select
//! a catalogue slice (e.g. `p2p,subcomm,multiple` for the E6 p2p /
//! sub-communicator slice).

use parcoach_interp::{check_and_run, RunConfig};
use parcoach_workloads::{error_catalogue, ExpectDynamic};

fn main() {
    let filters: Vec<String> = std::env::args()
        .nth(1)
        .map(|arg| arg.split(',').map(|s| s.to_string()).collect())
        .unwrap_or_default();
    let selected = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));
    println!(
        "{:<28} {:<26} {:<10} {:<14} {:<10} ok?",
        "case", "static verdict", "expected", "dynamic", "by-check"
    );
    let mut all_ok = true;
    let mut any = false;
    for case in error_catalogue() {
        if !selected(case.id) {
            continue;
        }
        any = true;
        let cfg = RunConfig::fast_fail(2, 4);
        let (report, run) = match check_and_run(case.id, &case.source, cfg, true) {
            Ok(x) => x,
            Err(e) => {
                println!("{:<28} COMPILE ERROR: {e}", case.id);
                all_ok = false;
                continue;
            }
        };
        let static_verdict = if report.is_clean() {
            "clean".to_string()
        } else {
            let mut kinds: Vec<&str> = report.warnings.iter().map(|w| w.kind.code()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds.join(",")
        };
        let dynamic = if run.is_clean() { "clean" } else { "fails" };
        let by_check = if run.detected_by_check() { "yes" } else { "-" };

        let ok = case.expect_static.holds(&report)
            && case
                .expect_dynamic
                .holds(!run.is_clean(), run.detected_by_check());
        all_ok &= ok;
        let expected = match case.expect_dynamic {
            ExpectDynamic::Clean => "clean",
            ExpectDynamic::CaughtByCheck => "check",
            ExpectDynamic::CaughtBySubstrate => "substrate",
            ExpectDynamic::Fails => "fails",
            ExpectDynamic::MayFail => "may-fail",
        };
        println!(
            "{:<28} {:<26} {:<10} {:<14} {:<10} {}",
            case.id,
            truncate(&static_verdict, 26),
            expected,
            dynamic,
            by_check,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    println!();
    if !any {
        println!("no catalogue case matches the filter(s).");
        std::process::exit(1);
    }
    if all_ok {
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
