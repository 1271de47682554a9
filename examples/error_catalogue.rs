//! Run the complete error catalogue — every hybrid-collective error
//! pattern the paper's analysis covers, plus correct controls and the
//! classic static false positives — and print the detection matrix.
//!
//! ```text
//! cargo run --example error_catalogue
//! ```

use parcoach::interp::{check_and_run, RunConfig};
use parcoach::workloads::error_catalogue;

fn main() {
    println!(
        "{:<28} | {:<9} | {:<8} | {:<9} | result",
        "case", "static", "dynamic", "by-check"
    );
    println!("{}", "-".repeat(72));
    let mut failures = 0;
    for case in error_catalogue() {
        let (report, run) = check_and_run(case.id, &case.source, RunConfig::fast_fail(2, 4), true)
            .expect("catalogue programs compile");
        let static_str = if report.is_clean() { "clean" } else { "warns" };
        let dynamic_str = if run.is_clean() { "clean" } else { "fails" };
        let by_check = if run.detected_by_check() { "yes" } else { "-" };
        let ok = case.expect_static.holds(&report)
            && case
                .expect_dynamic
                .holds(!run.is_clean(), run.detected_by_check());
        if !ok {
            failures += 1;
        }
        println!(
            "{:<28} | {:<9} | {:<8} | {:<9} | {}",
            case.id,
            static_str,
            dynamic_str,
            by_check,
            if ok { "as expected" } else { "UNEXPECTED" }
        );
    }
    println!("{}", "-".repeat(72));
    if failures == 0 {
        println!("all cases behaved as the paper predicts.");
    } else {
        println!("{failures} case(s) diverged!");
        std::process::exit(1);
    }
}
