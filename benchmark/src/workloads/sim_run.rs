//! `sim_run`: `Executor::run` of the selectively instrumented module at
//! 2 ranks × 2 threads with the default (long) timeouts; compiling is
//! set-up. The paper's run-time-overhead quantity: all time is in
//! `interp`/`mpisim`/`ompsim` steady state, none in `front`/`ir`/`core`.

use super::{compile, programs, Counts, Rng};
use crate::harness::{report_failure, LayerMap, OpOut, Workload};
use crate::trace::{Tracer, OP};
use crate::{refs, span};
use parcoach_core::{instrument_module, InstrumentMode};
use parcoach_interp::{Executor, RunConfig, RunReport};
use parcoach_ir::Module;
use parcoach_workloads::WorkloadClass;
use std::hint::black_box;
use std::time::Instant;

/// Runs per pass, by row: EPCC-A is fork/barrier/collective-bound
/// (≈ 2 ms a run), HERA-A mixed (≈ 14 ms), SP-MZ-A interpretation-bound
/// (≈ 58 ms). The repeats give each row a similar share of a pass.
const REPEATS: [(&str, usize); 3] = [("EPCC", 20), ("HERA", 4), ("SP-MZ", 1)];

fn run_config() -> RunConfig {
    RunConfig {
        ranks: 2,
        default_threads: 2,
        ..Default::default()
    }
}

struct Row {
    instrumented: Executor,
    /// For the traced pass: the same program without checks, and with a
    /// check at every collective and return.
    plain: Executor,
    full: Executor,
    /// The instrumented module again, for timing `Executor::new`.
    module: Module,
    /// `expected/sim_run/<row>.out`, sorted lines.
    expected: Vec<String>,
}

pub struct SimRun {
    rows: Vec<String>,
    data: Vec<Row>,
    /// Row of each op of a pass, in seeded order.
    order: Vec<usize>,
    counts: Counts,
}

/// Output lines in sorted order: ranks print concurrently, so only the
/// multiset of lines is a property of the program.
pub fn sorted_output(run: &RunReport) -> Vec<String> {
    let mut lines = run.output.clone();
    lines.sort_unstable();
    lines
}

/// The instrumented executors of the three rows, with their row names.
pub fn executors() -> Result<Vec<(String, Executor)>, String> {
    Ok(SimRun::build()?
        .into_iter()
        .map(|(row, r, _)| (row, r.instrumented))
        .collect())
}

impl SimRun {
    fn build() -> Result<Vec<(String, Row, Counts)>, String> {
        let names: Vec<&str> = REPEATS.iter().map(|(n, _)| *n).collect();
        let mut off = Tracer::new();
        programs(WorkloadClass::A, &names)?
            .into_iter()
            .map(|p| {
                let c = compile(&p.file, &p.source, &mut off)?;
                let counts = Counts::of(&p, &c);
                let (full, _) = instrument_module(&c.module, &c.report, InstrumentMode::Full);
                let row = Row {
                    instrumented: Executor::new(c.instrumented.clone(), run_config()),
                    plain: Executor::new(c.module, run_config()),
                    full: Executor::new(full, run_config()),
                    module: c.instrumented,
                    expected: Vec::new(),
                };
                Ok((p.row, row, counts))
            })
            .collect()
    }

    pub fn set_up(seed: u64) -> Result<SimRun, String> {
        let built = SimRun::build()?;
        let counts = Counts::sum(built.iter().map(|(_, _, c)| c));
        let mut rows = Vec::new();
        let mut data = Vec::new();
        for (row, mut r, _) in built {
            r.expected = refs::load(&format!("sim_run/{row}.out"))?
                .lines()
                .map(str::to_string)
                .collect();
            rows.push(row);
            data.push(r);
        }
        let mut order: Vec<usize> = REPEATS
            .iter()
            .enumerate()
            .flat_map(|(row, (_, n))| std::iter::repeat_n(row, *n))
            .collect();
        Rng::new(seed).shuffle(&mut order);
        Ok(SimRun {
            rows,
            data,
            order,
            counts,
        })
    }
}

impl Workload for SimRun {
    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn row_of(&self, i: usize) -> usize {
        self.order[i]
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOut {
        let row = &self.data[self.order[i]];
        let s = tr.open(OP);
        let t = Instant::now();
        let run = span!(tr, "interp.run_instr", row.instrumented.run());
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.close(s);
        let ok = run.is_clean() && sorted_output(&run) == row.expected;
        if !ok {
            report_failure(|| {
                format!(
                    "sim_run {}: errors {:?}, output {:?}",
                    self.rows[self.order[i]], run.errors, run.output
                )
            });
        }
        OpOut { us, ok }
    }

    fn probe(&mut self, i: usize, tr: &mut Tracer) {
        let row = &self.data[self.order[i]];
        let module = row.module.clone();
        black_box(span!(
            tr,
            "interp.build",
            Executor::new(module, run_config())
        ));
        black_box(span!(tr, "interp.run_plain", row.plain.run()));
        black_box(span!(tr, "interp.run_full", row.full.run()));
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut LayerMap) {
        // Only what reaches the op: the checks the set-up compile inserted.
        out.insert("core.checks_inserted", self.counts.checks_inserted as f64);
        let g = |name| tr.gmean_of_row_medians(name);
        if let (Some(instr), Some(full), Some(plain)) = (
            g("interp.run_instr"),
            g("interp.run_full"),
            g("interp.run_plain"),
        ) {
            out.insert("interp.instr_overhead_x1000", instr / plain * 1e3);
            out.insert("interp.full_overhead_x1000", full / plain * 1e3);
        }
    }
}
