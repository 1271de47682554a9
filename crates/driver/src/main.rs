//! `parcoachc` — command-line driver.
//!
//! One-shot mode of the same machinery `parcoachd` serves resident: the
//! analysis subcommands compile through [`parcoach_server::Document`]
//! and analyze through a [`parcoach_core::AnalysisSession`], so batch
//! and daemon answers cannot drift. The subcommands mirror the RPC
//! verbs:
//!
//! ```text
//! parcoachc check       <file.mh> [--no-refine] [--context seq|psingle|parallel]
//!                                 [--jobs N] [--deterministic] [--timings]
//! parcoachc diagnostics <file.mh>   # same findings, one line of JSON
//! parcoachc run         <file.mh> [--ranks N] [--threads T] [--no-instrument]
//!                                 [--jobs N] [--deterministic]
//! parcoachc dump        <file.mh> [function] [--dot]
//! parcoachc workload <name> <class>      # print a generated benchmark
//! parcoachc catalogue                    # list the error catalogue
//! ```
//!
//! `--jobs N` sizes the analysis pool (default: the machine's
//! parallelism, or `PARCOACH_JOBS`); `--deterministic` makes pool
//! scheduling reproducible. Reports are byte-identical for any `--jobs`
//! either way. `--timings` (or `PARCOACH_TIMINGS=1`) prints the
//! per-phase wall-time breakdown of the static analysis to stderr.
//!
//! Exit codes (see [`cli::Exit`]): 0 = clean, 1 = static warnings only,
//! 2 = dynamic error detected, 3 = usage/compile error. Bad flag values
//! (`--jobs 0`, `--ranks x`) are usage errors: a diagnostic plus the
//! usage text on stderr, exit 3.

mod cli;

use cli::{parse_num, Exit, SessionFlags, USAGE};
use parcoach_core::{instrument_module, InstrumentMode};
use parcoach_interp::{Executor, RunConfig};
use parcoach_server::{warnings_json, DocError, Document};
use parcoach_workloads::{error_catalogue, figure1_suite, WorkloadClass};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code.into(),
        Err(msg) => {
            eprintln!("parcoachc: {msg}");
            Exit::Usage.into()
        }
    }
}

fn run(args: &[String]) -> Result<Exit, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "check" => cmd_check(&args[1..], Output::Human),
        "diagnostics" => cmd_check(&args[1..], Output::Json),
        "run" => cmd_run(&args[1..]),
        "dump" => cmd_dump(&args[1..]),
        // Former spellings, kept as aliases of `dump`.
        "dump-cfg" => cmd_dump_as(&args[1..], true),
        "dump-ir" => cmd_dump_as(&args[1..], false),
        "workload" => cmd_workload(&args[1..]),
        "catalogue" => cmd_catalogue(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(Exit::Clean)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// Open a document the way the daemon does; compile failures render as
/// usage errors (exit 3).
fn load(path: &str) -> Result<Document, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Document::open(path, &src).map_err(|e| match e {
        DocError::Compile { rendered } => rendered,
        DocError::UnknownFunction(f) => format!("no function `{f}`"), // unreachable for open
    })
}

/// `check` and `diagnostics` differ only in how findings leave the
/// process: rendered diagnostics vs the daemon's JSON payload.
enum Output {
    Human,
    Json,
}

fn cmd_check(args: &[String], output: Output) -> Result<Exit, String> {
    let path = args.first().ok_or("check: missing file")?;
    let mut flags = SessionFlags::default();
    let mut timings = std::env::var("PARCOACH_TIMINGS").is_ok_and(|v| v == "1");
    let mut i = 1;
    while i < args.len() {
        if flags.eat(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--timings" => timings = true,
            other => return Err(format!("check: unknown flag `{other}`")),
        }
        i += 1;
    }
    let doc = load(path)?;
    let mut session = flags.session();
    let report = session.check_module(doc.module());
    if timings {
        let t = session.timings().expect("check records timings");
        eprintln!("--- static phase timings ---");
        for (phase, dur) in t.lines() {
            eprintln!("{phase:<12} {:>10.3} ms", dur.as_secs_f64() * 1e3);
        }
    }
    match output {
        Output::Human => {
            println!("{}", report.render(doc.source_map()));
            if report.is_clean() {
                println!("verified statically: no instrumentation needed");
            }
        }
        Output::Json => {
            use parcoach_server::json::{obj, Value};
            println!(
                "{}",
                obj([
                    ("clean", Value::from(report.is_clean())),
                    ("warnings", warnings_json(&report)),
                ])
                .to_line()
            );
        }
    }
    Ok(if report.is_clean() {
        Exit::Clean
    } else {
        Exit::StaticWarnings
    })
}

fn cmd_run(args: &[String]) -> Result<Exit, String> {
    let path = args.first().ok_or("run: missing file")?;
    let mut cfg = RunConfig::default();
    let mut instrument = true;
    let mut mode = InstrumentMode::Selective;
    let mut flags = SessionFlags::default();
    let mut i = 1;
    while i < args.len() {
        if flags.eat(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--ranks" => {
                i += 1;
                cfg.ranks = parse_num(args.get(i), "--ranks")?;
            }
            "--threads" => {
                i += 1;
                cfg.default_threads = parse_num(args.get(i), "--threads")?;
            }
            "--no-instrument" => instrument = false,
            "--full" => mode = InstrumentMode::Full,
            other => return Err(format!("run: unknown flag `{other}`")),
        }
        i += 1;
    }
    let doc = load(path)?;
    let mut session = flags.session();
    let report = session.check_module(doc.module());
    if !report.is_clean() {
        println!("--- static warnings ---");
        println!("{}", report.render(doc.source_map()));
        println!();
    }
    let module = if instrument {
        let (m, stats) = instrument_module(doc.module(), &report, mode);
        println!(
            "instrumentation: {} CC, {} return-CC, {} monothread assert(s), {} concurrency site(s), {} p2p epoch(s)",
            stats.cc_collective,
            stats.cc_return,
            stats.monothread_asserts,
            stats.concurrency_sites,
            stats.p2p_epochs
        );
        m
    } else {
        doc.module().clone()
    };
    let run = Executor::new(module, cfg).run();
    for line in &run.output {
        println!("{line}");
    }
    println!("run: {}", run.stats);
    if run.is_clean() {
        println!("--- run completed cleanly ---");
        Ok(Exit::Clean)
    } else {
        println!("--- run failed ---");
        for e in &run.errors {
            let line = doc.source_map().line_of(e.span);
            println!("{path}:{line}: {e} [{}]", e.kind.code());
        }
        if run.detected_by_check() {
            println!("(intercepted by a PARCOACH dynamic check)");
        }
        Ok(Exit::DynamicError)
    }
}

fn cmd_dump(args: &[String]) -> Result<Exit, String> {
    let mut path = None;
    let mut which = None;
    let mut dot = false;
    for a in args {
        match a.as_str() {
            "--dot" => dot = true,
            other if path.is_none() => path = Some(other.to_string()),
            other if which.is_none() => which = Some(other.to_string()),
            other => return Err(format!("dump: unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or("dump: missing file")?;
    dump(&path, which.as_deref(), dot)
}

/// The `dump-cfg` / `dump-ir` aliases (fixed format, same positional
/// arguments as before the rename).
fn cmd_dump_as(args: &[String], dot: bool) -> Result<Exit, String> {
    let path = args.first().ok_or("dump: missing file")?;
    dump(path, args.get(1).map(String::as_str), dot)
}

fn dump(path: &str, which: Option<&str>, dot: bool) -> Result<Exit, String> {
    let doc = load(path)?;
    for f in &doc.module().funcs {
        if let Some(name) = which {
            if f.name != name {
                continue;
            }
        }
        if dot {
            println!("{}", parcoach_ir::dot::func_to_dot(f));
        } else {
            println!("{}", f.dump());
        }
    }
    Ok(Exit::Clean)
}

fn cmd_workload(args: &[String]) -> Result<Exit, String> {
    let name = args.first().ok_or("workload: missing name")?;
    let class = match args.get(1).map(String::as_str) {
        Some("A") | None => WorkloadClass::A,
        Some("B") => WorkloadClass::B,
        Some("C") => WorkloadClass::C,
        other => return Err(format!("workload: bad class {other:?}")),
    };
    let suite = figure1_suite(class);
    let w = suite
        .iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("unknown workload `{name}` (try BT-MZ, SP-MZ, LU-MZ, EPCC, HERA)")
        })?;
    print!("{}", w.source);
    Ok(Exit::Clean)
}

fn cmd_catalogue() -> Result<Exit, String> {
    println!(
        "{:<28} {:<28} {:<18} description",
        "id", "static", "dynamic"
    );
    for c in error_catalogue() {
        let stat = match c.expect_static {
            parcoach_workloads::ExpectStatic::Clean => "clean".to_string(),
            parcoach_workloads::ExpectStatic::Warns(w) => format!("warns({w})"),
        };
        println!(
            "{:<28} {:<28} {:<18} {}",
            c.id,
            stat,
            format!("{:?}", c.expect_dynamic),
            c.description
        );
    }
    Ok(Exit::Clean)
}
