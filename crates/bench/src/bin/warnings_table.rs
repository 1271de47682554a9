//! E2 (extension) — static warning counts per benchmark, in the style of
//! the companion IJHPCA PARCOACH evaluation tables: how many potential
//! errors of each type the compile-time phase reports, and how much
//! instrumentation that demands.
//!
//! Usage: `cargo run --release -p parcoach-bench --bin warnings_table [A|B|C]`

use parcoach_bench::{compile_with_warnings, parse_class, usage_exit};
use parcoach_core::WarningKind;
use parcoach_workloads::figure1_suite;
use std::process::ExitCode;

fn main() -> ExitCode {
    let class = match parse_class(std::env::args().nth(1).as_deref()) {
        Ok(class) => class,
        Err(msg) => return usage_exit("warnings_table [A|B|C]", &msg),
    };
    let kinds = [
        (WarningKind::MultithreadedCollective, "mt-coll"),
        (WarningKind::NestedParallelismCollective, "nested"),
        (WarningKind::MultithreadedCall, "mt-call"),
        (WarningKind::ConcurrentCollectives, "conc"),
        (WarningKind::SelfConcurrentRegion, "self-conc"),
        (WarningKind::CollectiveMismatch, "mismatch"),
        (WarningKind::BarrierDivergence, "barrier-div"),
        (WarningKind::InsufficientThreadLevel, "level"),
    ];
    println!("E2 — static warnings per benchmark (class {class:?})");
    print!("{:<8} {:>7}", "bench", "lines");
    for (_, label) in &kinds {
        print!(" {label:>11}");
    }
    println!(" {:>9} {:>9} {:>9}", "CC-sites", "mono-chk", "conc-site");
    for w in figure1_suite(class) {
        let (_m, report) = compile_with_warnings(w.name, &w.source);
        print!("{:<8} {:>7}", w.name, w.lines());
        for (kind, _) in &kinds {
            print!(" {:>11}", report.count(*kind));
        }
        println!(
            " {:>9} {:>9} {:>9}",
            report.plan.sum(|f| f.suspects.len()),
            report.plan.sum(|f| f.monothread.len()),
            report.plan.sum(|f| f.concurrency.len())
        );
    }
    println!();
    println!(
        "note: `mismatch` counts are conditional-communication sites the static \
         phase cannot prove uniform — the false-positive class the dynamic CC \
         validates at run time (paper §3)."
    );
    ExitCode::SUCCESS
}
