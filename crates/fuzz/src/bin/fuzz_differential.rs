//! Differential fuzzing campaign driver (experiment E11).
//!
//! Generates seeded random MiniHPC scenarios, runs static phases and
//! the instrumented simulator on each, diffs the verdicts into
//! disagreement classes, loops until the campaign runs dry, and
//! optionally delta-minimizes one exemplar per disagreement class.
//!
//! ```text
//! fuzz_differential [--seed S] [--rounds N] [--modules M] [--dry K]
//!                   [--jobs J] [--minimize] [--corpus-out DIR]
//!                   [--summary-out FILE] [--records-out FILE]
//!                   [--expected FILE] [--quiet]
//! ```
//!
//! Deterministic by construction: module seeds derive from
//! `(--seed, module index)` only, so the summary is byte-identical at
//! any `--jobs` thread count (default: the machine's parallelism).
//!
//! Exit status: `0` clean; `1` gate failure (a generator-invalid module,
//! or — with `--expected` — a disagreement class missing from the
//! expected file); `2` I/O failure; `3` usage error.

use parcoach_fuzz::summary::records_to_tsv;
use parcoach_fuzz::{minimize, parse_expected, run_campaign, CampaignConfig, Summary};
use parcoach_testutil::Scenario;
use std::process::ExitCode;

struct Opts {
    cfg: CampaignConfig,
    jobs: usize,
    minimize: bool,
    corpus_out: Option<String>,
    summary_out: Option<String>,
    records_out: Option<String>,
    expected: Option<String>,
    quiet: bool,
}

const USAGE: &str = "usage: fuzz_differential [--seed S] [--rounds N] [--modules M] [--dry K] \
[--jobs J] [--minimize] [--corpus-out DIR] [--summary-out FILE] \
[--records-out FILE] [--expected FILE] [--quiet]";

fn usage_err(msg: &str) -> ! {
    eprintln!("fuzz_differential: {msg}\n{USAGE}");
    std::process::exit(3);
}

fn parse_num(flag: &str, value: Option<String>) -> u64 {
    let v = value.unwrap_or_else(|| usage_err(&format!("{flag} needs a value")));
    v.parse::<u64>()
        .unwrap_or_else(|_| usage_err(&format!("{flag}: not a number: `{v}`")))
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        cfg: CampaignConfig::default(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        minimize: false,
        corpus_out: None,
        summary_out: None,
        records_out: None,
        expected: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.cfg.seed = parse_num("--seed", args.next()),
            "--rounds" => {
                opts.cfg.rounds = parse_num("--rounds", args.next()).max(1) as usize;
            }
            "--modules" => {
                opts.cfg.modules_per_round = parse_num("--modules", args.next()).max(1) as usize;
            }
            "--dry" => opts.cfg.dry_rounds = parse_num("--dry", args.next()) as usize,
            "--jobs" => opts.jobs = parse_num("--jobs", args.next()).max(1) as usize,
            "--minimize" => opts.minimize = true,
            "--corpus-out" => {
                opts.corpus_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_err("--corpus-out needs a dir")),
                );
            }
            "--summary-out" => {
                opts.summary_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_err("--summary-out needs a file")),
                );
            }
            "--records-out" => {
                opts.records_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_err("--records-out needs a file")),
                );
            }
            "--expected" => {
                opts.expected = Some(
                    args.next()
                        .unwrap_or_else(|| usage_err("--expected needs a file")),
                );
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_err(&format!("unknown flag `{other}`")),
        }
    }
    opts
}

fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let quiet = opts.quiet;
    let result = run_campaign(&opts.cfg, opts.jobs, |round, batch, tracker| {
        if !quiet {
            let invalid = batch.iter().filter(|r| r.invalid.is_some()).count();
            println!(
                "round {round}: {} modules ({invalid} invalid), {} disagreement classes so far",
                batch.len(),
                tracker.seen().len()
            );
        }
    });

    let summary = Summary::from_result(&opts.cfg, &result);
    if let Some(path) = &opts.records_out {
        if let Err(e) = std::fs::write(path, records_to_tsv(&result.records)) {
            eprintln!("fuzz_differential: write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.summary_out {
        if let Err(e) = std::fs::write(path, summary.to_json()) {
            eprintln!("fuzz_differential: write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        print!("{}", summary.render_table());
    }

    let mut failed = false;
    if summary.invalid > 0 {
        eprintln!(
            "fuzz_differential: {} generator-invalid modules (generator bug)",
            summary.invalid
        );
        for r in result
            .records
            .iter()
            .filter(|r| r.invalid.is_some())
            .take(3)
        {
            eprintln!(
                "  module #{} (seed {}): {}",
                r.index,
                r.seed,
                r.invalid.as_deref().unwrap()
            );
        }
        failed = true;
    }
    if let Some(path) = &opts.expected {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let expected = parse_expected(&text);
                let unexpected = summary.unexpected_classes(&expected);
                if !unexpected.is_empty() {
                    eprintln!("fuzz_differential: disagreement classes not in {path}:");
                    for k in unexpected {
                        let c = &summary.classes[k];
                        eprintln!(
                            "  {k}  (exemplar #{} seed {})",
                            c.example_index, c.example_seed
                        );
                    }
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("fuzz_differential: read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if opts.minimize {
        if let Some(dir) = &opts.corpus_out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("fuzz_differential: mkdir {dir}: {e}");
                return ExitCode::from(2);
            }
        }
        for key in summary.disagreement_classes() {
            let stat = &summary.classes[key];
            let scenario = Scenario::generate(stat.example_seed);
            let before = scenario.stmt_count();
            let (min, runs) = minimize(&scenario, key, &opts.cfg.oracle);
            let src = min.render();
            if !opts.quiet {
                println!(
                    "\n== {key} · module #{} seed {} · {} -> {} stmts in {runs} oracle runs ==\n{src}",
                    stat.example_index, stat.example_seed, before, min.stmt_count()
                );
            }
            if let Some(dir) = &opts.corpus_out {
                let body = format!(
                    "// class: {key}\n// seed: {} (module #{}, campaign seed {})\n{src}",
                    stat.example_seed, stat.example_index, summary.seed
                );
                let path = format!("{dir}/{}.mh", sanitize(key));
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("fuzz_differential: write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
