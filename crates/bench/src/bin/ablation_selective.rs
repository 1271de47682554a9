//! E5 (extension) — ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Selective vs. full instrumentation** ("The cost of the runtime
//!    checks is limited by a selective instrumentation, avoiding
//!    unnecessary checks", paper §5): checks inserted per benchmark
//!    under both policies.
//! 2. **Matching refinement on/off**: how many PDF+ candidates the
//!    balanced-arms sequence refinement eliminates.
//!
//! Usage: `cargo run --release -p parcoach-bench --bin ablation_selective [A|B|C]`

use parcoach_bench::{compile_baseline, parse_class, usage_exit};
use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode};
use parcoach_workloads::figure1_suite;
use std::process::ExitCode;

fn main() -> ExitCode {
    let class = match parse_class(std::env::args().nth(1).as_deref()) {
        Ok(class) => class,
        Err(msg) => return usage_exit("ablation_selective [A|B|C]", &msg),
    };

    println!("E5a — selective vs. full instrumentation (class {class:?})");
    println!(
        "{:<8} {:>7} {:>12} {:>12} {:>10}",
        "bench", "colls", "selective", "full", "saved"
    );
    for w in figure1_suite(class) {
        let (_u, module) = compile_baseline(w.name, &w.source);
        let colls: usize = module
            .funcs
            .iter()
            .map(|f| {
                f.instrs
                    .iter()
                    .filter(|(i, _)| i.collective_kind().is_some())
                    .count()
            })
            .sum();
        let report = AnalysisSession::builder().build().check_module(&module);
        let (_m1, sel) = instrument_module(&module, &report, InstrumentMode::Selective);
        let (_m2, full) = instrument_module(&module, &report, InstrumentMode::Full);
        let saved = if full.total() > 0 {
            100.0 * (1.0 - sel.total() as f64 / full.total() as f64)
        } else {
            0.0
        };
        println!(
            "{:<8} {:>7} {:>12} {:>12} {:>9.1}%",
            w.name,
            colls,
            sel.total(),
            full.total(),
            saved
        );
    }

    println!();
    println!("E5b — matching refinement: PDF+ divergence candidates vs. confirmed");
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "bench", "candidates", "confirmed", "eliminated"
    );
    for w in figure1_suite(class) {
        let (_u, module) = compile_baseline(w.name, &w.source);
        let refined = AnalysisSession::builder().build().check_module(&module);
        println!(
            "{:<8} {:>14} {:>14} {:>12}",
            w.name,
            refined.pdf_candidates,
            refined.pdf_confirmed,
            refined.pdf_candidates.saturating_sub(refined.pdf_confirmed)
        );
    }
    ExitCode::SUCCESS
}
