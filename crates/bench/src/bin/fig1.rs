//! E1 — regenerate the paper's **Figure 1**: overhead of average
//! compilation time, series "Warnings" and "Warnings + verification code
//! generation", over BT-MZ, SP-MZ, LU-MZ, EPCC and HERA (class B, as in
//! the paper).
//!
//! Usage: `cargo run --release -p parcoach-bench --bin fig1 [A|B|C] [reps]`

use parcoach_bench::{figure1_rows, parse_class, render_fig1, usage_exit};
use parcoach_workloads::figure1_suite;
use std::process::ExitCode;

const USAGE: &str = "fig1 [A|B|C] [reps ≥ 1, default 15]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let class = match parse_class(args.first().map(String::as_str)) {
        Ok(class) => class,
        Err(msg) => return usage_exit(USAGE, &msg),
    };
    let reps = match args.get(1).map(|s| s.parse::<usize>()) {
        None => 15,
        Some(Ok(reps)) if reps > 0 => reps,
        Some(_) => return usage_exit(USAGE, &format!("bad repetition count `{}`", args[1])),
    };

    eprintln!("generating workloads (class {class:?})…");
    let suite = figure1_suite(class);
    eprintln!(
        "compiling {} benchmarks × 3 pipelines × {reps} repetitions…",
        suite.len()
    );
    let rows = figure1_rows(&suite, reps);
    print!("{}", render_fig1(&rows));
    println!();
    println!(
        "paper reference: both series stay below ~6% overhead, with code \
         generation costing more than warnings alone."
    );
    let max = rows
        .iter()
        .map(|r| r.code_overhead_x1000)
        .max()
        .unwrap_or(1000);
    println!(
        "measured maximum overhead: {:.1}%",
        (max as f64 - 1000.0) / 10.0
    );
    ExitCode::SUCCESS
}
