//! The repo's benchmark: five workloads from source bytes to verdict,
//! with outside-in rows for every layer. See `benchmark/README.md`.
//!
//! ```text
//! parcoach-benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! parcoach-benchmark --workload W --seed N --seconds S --trace 0|1
//! parcoach-benchmark bless
//! parcoach-benchmark compare A.json B.json
//! parcoach-benchmark manifest
//! ```

mod bless;
mod compare;
mod harness;
mod jsonio;
mod metrics;
mod pin;
mod probes;
mod refs;
mod stats;
mod trace;
mod workloads;

use harness::{Params, RunResult};
use jsonio::Json;
use metrics::{END_TO_END, FAILED_SHARE, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

/// Measured seconds per run unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;
/// Prefix of the line a child prints before its result line, carrying
/// the per-round values `all` and `compare` need.
const DETAIL: &str = "detail ";

fn main() -> ExitCode {
    // One analysis lane: the default pool is as wide as the machine, and
    // on a 2-CPU box the second lane only adds run-to-run spread. Set
    // before anything can touch the pool.
    std::env::set_var("PARCOACH_JOBS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("bless") => bless::run().map(|()| true),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        _ => one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("parcoach-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--flag`s.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value `{v}`")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// The driver's form: one workload, one run, the result on the last line.
fn one(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let workload = flags
        .value("--workload")
        .ok_or("usage: --workload W --seed N --seconds S --trace 0|1 (or: all, bless, compare)")?;
    let p = Params {
        workload: workload.to_string(),
        seed: flags.parsed("--seed", 42)?,
        seconds: flags.parsed("--seconds", RUN_SECONDS)?,
        smoke: flags.has("--smoke"),
    };
    let result = match flags.parsed("--trace", 0u8)? {
        0 => harness::run_timed(&p)?,
        1 => harness::run_traced(&p)?,
        other => return Err(format!("--trace: bad value `{other}`")),
    };
    print_run(&p, &result);
    println!("{DETAIL}{}", result.detail().to_line());
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn print_run(p: &Params, r: &RunResult) {
    println!(
        "{} seed {} — {} verdicts attempted, {} failed",
        r.workload, p.seed, r.tally.attempted, r.tally.failed
    );
    for m in END_TO_END {
        if let Some(a) = r.end_to_end.get(m.name) {
            println!(
                "  {:<28} {:>14.4} {:<6} (best {:.4}, median {:.4}, worst {:.4} of {}; {} is better; bound {:.0} %)",
                m.name,
                a.value,
                m.unit,
                a.best,
                a.median,
                a.worst,
                a.samples.len(),
                m.better.name(),
                m.bound * 100.0
            );
        }
    }
    for (name, unit, _, moves) in PER_LAYER {
        if let Some(v) = r.per_layer.get(name) {
            println!("  {name:<28} {v:>14.4} {unit:<6} -> {moves}");
        }
    }
}

/// Every workload, timed then traced, each in a child process of its own
/// (a clean high-water mark, no pool or cache shared between workloads).
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let seed: u64 = flags.parsed("--seed", 42)?;
    let smoke = flags.has("--smoke");
    // Smoke: one round of 0.3 s, one set-up, small corpora.
    let seconds: f64 = flags.parsed("--seconds", if smoke { 0.3 } else { RUN_SECONDS })?;
    let out = match flags.value("--out") {
        Some(path) => std::path::PathBuf::from(path),
        None => refs::bench_dir().join("out").join("latest.json"),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);

    let mut workloads = Vec::new();
    let mut clean = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let mut merged: Option<Json> = None;
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix(DETAIL) {
                    Some(d) => detail = Some(jsonio::parse(d)?),
                    // The result line is for the driver; `all` prints the rest.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let detail = detail.ok_or_else(|| {
                format!(
                    "{name} --trace {trace} printed no result ({})",
                    child.status
                )
            })?;
            clean &= child.status.success();
            merged = Some(match merged {
                None => detail,
                Some(timed) => merge(timed, &detail),
            });
        }
        workloads.push((*name, merged.expect("two runs")));
    }

    print_matrix(&workloads);
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        // The simulator workloads' timings depend on how many of their
        // threads can run at once.
        ("cpus", Json::Num(cpus as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    println!(
        "{}",
        if clean {
            "all verdicts match their references"
        } else {
            "REFERENCE MISMATCH"
        }
    );
    Ok(clean)
}

/// One workload's record: end-to-end values of the timed run, per-layer
/// values of the traced run, attempts and failures of both.
fn merge(timed: Json, traced: &Json) -> Json {
    let sum = |key: &str| {
        let of = |j: &Json| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Json::Num(of(&timed) + of(traced))
    };
    Json::obj([
        ("attempted", sum("attempted")),
        ("failed", sum("failed")),
        (
            "end_to_end",
            timed.get("end_to_end").cloned().unwrap_or(Json::Null),
        ),
        (
            "per_layer",
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Every metric by name, one column per workload.
fn print_matrix(workloads: &[(&str, Json)]) {
    let value = |w: &Json, group: &str, name: &str| w.get(group)?.get(name)?.get("value")?.as_f64();
    print!("\n{:<30} {:<7}", "metric", "unit");
    for (name, _) in workloads {
        print!(" {name:>14}");
    }
    println!();
    for m in END_TO_END {
        print!("{:<30} {:<7}", m.name, m.unit);
        for (_, w) in workloads {
            print!(
                " {:>14.4}",
                value(w, "end_to_end", m.name).unwrap_or(f64::NAN)
            );
        }
        println!(
            "  {} is better, bound {:.0} %",
            m.better.name(),
            m.bound * 100.0
        );
    }
    print!("{FAILED_SHARE:<30} {:<7}", "ratio");
    for (_, w) in workloads {
        let of = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        print!(" {:>14.6}", of("failed") / of("attempted").max(1.0));
    }
    println!("  lower is better, bound 0 %");
    for (name, unit, _, moves) in PER_LAYER {
        print!("{name:<30} {unit:<7}");
        for (_, w) in workloads {
            match value(w, "per_layer", name) {
                // 0: this workload's ops never reach that layer call.
                Some(v) if v != 0.0 => print!(" {v:>14.4}"),
                _ => print!(" {:>14}", "-"),
            }
        }
        println!("  -> {moves}");
    }
}

/// `BENCHMARK.json`, generated from the metric catalogue.
fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better, _)| {
                        Json::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
