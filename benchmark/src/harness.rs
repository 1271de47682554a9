//! The load shape shared by all workloads: a closed loop, one client
//! thread, whole passes over the workload's ops, short time-boxed rounds,
//! the better quartile of the rounds reported.

use crate::jsonio::Json;
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Agg, RowSamples};
use crate::trace::{Tracer, PROBE};
use crate::{pin, probes, refs, workloads};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Outcome of one op: one input taken to one verdict.
pub struct OpOut {
    /// Input bytes in → verdict out, microseconds. The benchmark's own
    /// checking of the verdict is outside this interval.
    pub us: f64,
    /// Verdict equals its reference.
    pub ok: bool,
}

/// Say on stderr why a verdict failed its reference (the first few only:
/// one broken layer fails every op).
pub fn report_failure(what: impl FnOnce() -> String) {
    static SAID: AtomicUsize = AtomicUsize::new(0);
    if SAID.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("reference mismatch: {}", what());
    }
}

/// Per-layer values by metric name.
pub type LayerMap = BTreeMap<&'static str, f64>;

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Distinct inputs.
    fn rows(&self) -> &[String];
    /// Ops in one pass over the row list.
    fn pass_len(&self) -> usize;
    /// Row (index into [`Workload::rows`]) of op `i` of a pass.
    fn row_of(&self, i: usize) -> usize;
    /// Fewest passes a round may hold. More than 1 where a row has so few
    /// ops per pass that one pass's median of them is mostly noise.
    fn passes_per_round(&self) -> usize {
        1
    }
    /// Untimed passes before the first round (caches filled, threads
    /// started). Workloads whose set-up already ran every op say 0.
    fn warmup_passes(&self) -> usize {
        1
    }
    /// Run op `i` of a pass inside an [`OP`](crate::trace::OP) span; the
    /// layer calls it makes are bracketed with spans on `tr` (all no-ops
    /// when tracing is off).
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOut;
    /// After each pass, outside any op's interval: a check too costly to
    /// run per op, if the workload has one, and whether it held.
    fn end_pass(&mut self) -> Option<bool> {
        None
    }
    /// Traced pass only: call the layers behind op `i` one by one, so
    /// that layers an op hides (a daemon request, `observe`) get rows.
    fn probe(&mut self, _i: usize, _tr: &mut Tracer) {}
    /// The workload's own per-layer values (counts, ratios).
    fn layer_metrics(&self, tr: &Tracer, out: &mut LayerMap);
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `all --smoke`: small corpora, one round, one set-up.
    pub smoke: bool,
}

/// Seconds per round; a round runs whole passes and ends at the first pass
/// boundary after this. Short, so that some rounds fall between a
/// co-tenant's bursts.
const ROUND_SECONDS: f64 = 0.25;

impl Params {
    fn round_seconds(&self) -> f64 {
        if self.smoke {
            self.seconds
        } else {
            ROUND_SECONDS
        }
    }
}

/// Result of one invocation.
pub struct RunResult {
    pub workload: String,
    pub tally: Tally,
    /// End-to-end metrics (timed run) …
    pub end_to_end: BTreeMap<&'static str, Agg>,
    /// … or per-layer metrics (traced run).
    pub per_layer: LayerMap,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        let mut metrics = BTreeMap::new();
        for m in END_TO_END {
            if let Some(a) = self.end_to_end.get(m.name) {
                metrics.insert(m.name.to_string(), value_unit(a.value, m.unit));
            }
        }
        for (name, unit, _, _) in PER_LAYER {
            if let Some(v) = self.per_layer.get(name) {
                metrics.insert(name.to_string(), value_unit(*v, unit));
            }
        }
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }

    /// Everything `all` and `compare` need, rounds included.
    pub fn detail(&self) -> Json {
        let e2e = END_TO_END
            .iter()
            .filter_map(|m| {
                let a = self.end_to_end.get(m.name)?;
                Some((
                    m.name,
                    Json::obj([
                        ("unit", Json::Str(m.unit.into())),
                        ("value", Json::Num(a.value)),
                        ("best", Json::Num(a.best)),
                        ("median", Json::Num(a.median)),
                        ("worst", Json::Num(a.worst)),
                        ("samples", Json::nums(&a.samples)),
                    ]),
                ))
            })
            .collect::<Vec<_>>();
        let layers = PER_LAYER
            .iter()
            .filter_map(|(name, unit, _, _)| {
                Some((*name, value_unit(*self.per_layer.get(name)?, unit)))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
        ])
    }
}

fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Verdicts attempted and failed. Both count the same things: every op
/// of every pass run, warm-up included, and every pass-end check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// One pass: every op, then the pass-end check. A traced pass records
/// each op's spans and follows the op with the workload's probes, under a
/// `probe` span of their own.
fn pass(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    traced: bool,
    into: &mut RowSamples,
    tally: &mut Tally,
) {
    tr.enable(traced);
    for i in 0..w.pass_len() {
        let row = w.row_of(i);
        tr.next_op(row);
        let out = w.op(i, tr);
        tally.count(out.ok);
        into.push(row, out.us);
        if traced {
            let s = tr.open(PROBE);
            w.probe(i, tr);
            tr.close(s);
        }
    }
    tr.enable(false);
    if let Some(ok) = w.end_pass() {
        tally.count(ok);
    }
}

/// Untimed passes a timed run starts with, beyond the workload's own
/// warm-up: the scheduler keeps a process's new threads packed on one CPU
/// for about a second before it spreads them, and `sim_run` reads 2×
/// faster there than ever after.
const WARMUP_SECONDS: f64 = 1.5;

/// Times a timed run sets its workload up afresh (`setup_s` is the best
/// set-up). The run's seconds are split evenly among the instances, so
/// the set-ups lie seconds apart and a co-tenant's burst, which lasts
/// seconds, falls on one of them and not on all; and the rounds see three
/// heap layouts, not one.
const INSTANCES: usize = 3;
/// A cheap set-up is repeated on the spot, so that one of a millisecond is
/// timed dozens of times in a run, not three: until this much time is
/// spent on an instance's set-ups, or this many were made.
const SETUP_SECONDS: f64 = 0.08;
const SETUP_CAP: usize = 16;

/// Set the workload up, `again` and again if it is cheap; returns the last
/// instance and every set-up's seconds.
fn set_up(p: &Params, again: bool) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.is_empty()
        || (again && times.len() < SETUP_CAP && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Drop the previous instance first: set-up k must not see k-1's
        // memory as resident.
        drop(last.take());
        let t = Instant::now();
        last = Some(workloads::set_up(&p.workload, p.seed, p.smoke)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Pin the workload if it is one that runs pinned; `None` for the others,
/// and where the affinity mask cannot be set (the run proceeds unpinned).
fn pin_for(workload: &str) -> Option<pin::Pinned> {
    workloads::runs_pinned(workload)
        .then(pin::to_one_cpu)
        .flatten()
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn run_timed(p: &Params) -> Result<RunResult, String> {
    let _pinned = pin_for(&p.workload);
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let (mut p50, mut rate, mut setup_times) = (Vec::new(), Vec::new(), Vec::new());
    let instances = if p.smoke { 1 } else { INSTANCES };
    // Seconds spent in rounds so far.
    let mut measured = 0.0;

    for instance in 1..=instances {
        // The previous instance was dropped at the end of its iteration.
        let (mut w, times) = set_up(p, !p.smoke)?;
        setup_times.extend(times);
        let w = w.as_mut();
        let rows = w.rows().len();
        let warm_up = Instant::now();
        let mut passes = 0;
        while passes < w.warmup_passes()
            || (instance == 1 && !p.smoke && warm_up.elapsed().as_secs_f64() < WARMUP_SECONDS)
        {
            pass(w, &mut tr, false, &mut RowSamples::new(rows), &mut tally);
            passes += 1;
        }

        // At least one round; then rounds until this instance's share of
        // the measured time is up.
        let share = p.seconds * instance as f64 / instances as f64;
        let mut rounds = 0;
        while rounds == 0 || measured < share {
            let mut samples = RowSamples::new(rows);
            let t = Instant::now();
            // Whole passes only: the round ends at the first pass boundary
            // after its time is up, so every round sees every row with
            // the same mix of inputs.
            let mut passes = 0;
            loop {
                pass(w, &mut tr, false, &mut samples, &mut tally);
                passes += 1;
                if passes >= w.passes_per_round() && t.elapsed().as_secs_f64() >= p.round_seconds()
                {
                    break;
                }
            }
            measured += t.elapsed().as_secs_f64();
            rounds += 1;
            p50.push(samples.verdict_p50_us().ok_or("a round without samples")?);
            rate.push(samples.ops_per_s().ok_or("a round without op time")?);
        }
    }
    // The high-water mark only grows: one reading, after the last round.
    let rss = vec![probes::vm_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")? / 1024.0];

    let mut end_to_end = BTreeMap::new();
    for (name, samples) in [
        ("verdict_p50_us", p50),
        ("ops_per_s", rate),
        ("peak_rss_mb", rss),
        ("setup_s", setup_times),
    ] {
        let m = metrics::end_to_end(name).expect("catalogued");
        let agg = Agg::over(samples, m.better == Better::Lower, m.report_on(&p.workload));
        end_to_end.insert(name, agg.expect("rounds >= 1"));
    }
    Ok(RunResult {
        workload: p.workload.clone(),
        tally,
        end_to_end,
        per_layer: LayerMap::new(),
    })
}

/// `--trace 1`: the per-layer metrics. Untraced and traced passes
/// alternate, so the tracing overhead is read off one run; the layer
/// micro-drivers follow; spans go to `out/trace.json`.
pub fn run_traced(p: &Params) -> Result<RunResult, String> {
    let pinned = pin_for(&p.workload);
    let (mut w, _) = set_up(p, false)?;
    let w = w.as_mut();
    let mut tr = Tracer::new();
    let rows = w.rows().len();
    let mut tally = Tally::default();

    for _ in 0..w.warmup_passes() {
        pass(w, &mut tr, false, &mut RowSamples::new(rows), &mut tally);
    }

    let mut plain = RowSamples::new(rows);
    let mut traced = RowSamples::new(rows);
    let t = Instant::now();
    // Plain and traced passes alternate as P T, T P, P T, …: a workload
    // whose state alternates from pass to pass (`daemon_edit` adds its MPI
    // statements in one pass and removes them in the next) shows both
    // states to both kinds.
    let mut pair = 0;
    loop {
        for is_traced in [pair % 2 == 1, pair % 2 == 0] {
            let into = if is_traced { &mut traced } else { &mut plain };
            pass(w, &mut tr, is_traced, into, &mut tally);
        }
        pair += 1;
        if t.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
    }

    let mut out = LayerMap::new();
    w.layer_metrics(&tr, &mut out);
    // The micro-drivers read the same on every workload: all CPUs again.
    drop(pinned);
    probes::run(p.seed, if p.smoke { 20 } else { 200 }, &mut out)?;

    for (row, lat) in w.rows().iter().zip(&plain.by_row) {
        let name = format!("row.{row}.p50_us");
        let known = PER_LAYER.iter().find(|m| m.0 == name);
        let (Some(m), Some(v)) = (known, median(lat)) else {
            return Err(format!("row `{row}` has no metric or no samples"));
        };
        out.insert(m.0, v);
    }
    let all: Vec<f64> = plain.by_row.iter().flatten().copied().collect();
    out.insert("tail.p99_us", percentile(&all, 99.0).unwrap_or(0.0));
    out.insert("tail.p99_samples", all.len() as f64);
    for (name, prefix) in [
        ("trace.front_share", "front."),
        ("trace.ir_share", "ir."),
        ("trace.core_share", "core."),
    ] {
        out.insert(name, tr.op_share_of(prefix).unwrap_or(0.0));
    }
    out.insert(
        "trace.unattributed_share",
        tr.unattributed_share().unwrap_or(0.0),
    );
    if let (Some(a), Some(b)) = (traced.verdict_p50_us(), plain.verdict_p50_us()) {
        out.insert("trace.overhead_x1000", a / b * 1e3);
    }
    // Every other `<layer>.<call>_us` row is the span of that name; 0
    // when this workload's ops and probes never make the call.
    for (name, _, _, _) in PER_LAYER {
        if !out.contains_key(name) {
            let v = name
                .strip_suffix("_us")
                .and_then(|span| tr.gmean_of_row_medians(span))
                .unwrap_or(0.0);
            out.insert(name, v);
        }
    }

    let trace = tr.to_chrome_trace(&p.workload, w.rows());
    let dir = refs::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("trace.json");
    std::fs::write(&path, trace.to_line()).map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(RunResult {
        workload: p.workload.clone(),
        tally,
        end_to_end: BTreeMap::new(),
        per_layer: out,
    })
}
