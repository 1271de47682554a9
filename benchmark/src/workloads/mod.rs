//! The five workloads and what they share: the seeded generator, the six
//! Figure-1 programs, and the cold compile pipeline with a span around
//! each layer call.

pub mod cold_check;
pub mod daemon_edit;
pub mod daemon_open;
pub mod detect_stream;
pub mod sim_run;

use crate::harness::Workload;
use crate::span;
use crate::trace::Tracer;
use parcoach_core::{
    instrument_module, AnalysisSession, InstrumentMode, InstrumentStats, StaticReport,
};
use parcoach_front::{parse_and_check, CheckedUnit};
use parcoach_ir::lower::lower_program;
use parcoach_ir::{verify_module, Module};
use parcoach_workloads::{figure1_suite, WorkloadClass};

/// Set up workload `name` from `seed`.
pub fn set_up(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_check" => Box::new(cold_check::ColdCheck::set_up(seed)?),
        "daemon_edit" => Box::new(daemon_edit::DaemonEdit::set_up(seed)?),
        "daemon_open" => Box::new(daemon_open::DaemonOpen::set_up(seed)?),
        "sim_run" => Box::new(sim_run::SimRun::set_up(seed)?),
        "detect_stream" => Box::new(detect_stream::DetectStream::set_up(seed, smoke)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Does the workload's process pin itself to one CPU?
///
/// `sim_run` never: its 2 ranks × 2 threads are the system under test and
/// must be free to run in parallel, or a change to the simulator's locking
/// could never show. The analysis workloads do all their work on the
/// client thread, which pinned never migrates. `detect_stream` is
/// multi-threaded but pinned all the same: its runs are a few dozen
/// microseconds of hand-offs each, and left free a process settles into
/// one of two placements that read 2.3× apart (README, sizing facts);
/// what it measures — every layer's fixed cost per module — needs no
/// parallelism.
pub fn runs_pinned(name: &str) -> bool {
    name != "sim_run"
}

/// splitmix64: the benchmark's own generator, so that the inputs a seed
/// produces do not change when the repo's test utilities do.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated program under its row name (`hera_b`, `sp_mz_a`, …).
pub struct Program {
    pub row: String,
    /// File name handed to the front end.
    pub file: String,
    pub source: String,
    /// Source lines (an input property, counted once).
    pub lines: usize,
}

impl Program {
    pub fn new(row: String, source: String) -> Program {
        Program {
            file: format!("{row}.mh"),
            lines: source.lines().count(),
            row,
            source,
        }
    }
}

fn class_letter(class: WorkloadClass) -> char {
    match class {
        WorkloadClass::A => 'a',
        WorkloadClass::B => 'b',
        WorkloadClass::C => 'c',
    }
}

/// Programs `names` (as `figure1_suite` calls them) of `class`.
pub fn programs(class: WorkloadClass, names: &[&str]) -> Result<Vec<Program>, String> {
    let suite = figure1_suite(class);
    names
        .iter()
        .map(|name| {
            let w = suite
                .iter()
                .find(|w| w.name == *name)
                .ok_or_else(|| format!("figure1_suite has no `{name}`"))?;
            let row = format!(
                "{}_{}",
                name.to_lowercase().replace('-', "_"),
                class_letter(class)
            );
            Ok(Program::new(row, w.source.clone()))
        })
        .collect()
}

/// The rows `cold_check` and `daemon_open` share: the Figure-1 suite at
/// class B plus HERA at class C (5 605 lines, the largest input).
pub fn figure1_rows() -> Result<Vec<Program>, String> {
    let mut rows = programs(
        WorkloadClass::B,
        &["BT-MZ", "SP-MZ", "LU-MZ", "EPCC", "HERA"],
    )?;
    rows.extend(programs(WorkloadClass::C, &["HERA"])?);
    Ok(rows)
}

/// Everything one cold compile produces.
pub struct Compiled {
    pub unit: CheckedUnit,
    pub module: Module,
    pub report: StaticReport,
    pub instrumented: Module,
    pub stats: InstrumentStats,
}

/// The one-shot `parcoachc check` path up to instrumentation, one span
/// per layer call: parse+sema, lower, verify, fresh session, cold check,
/// selective instrumentation.
pub fn compile(file: &str, src: &str, tr: &mut Tracer) -> Result<Compiled, String> {
    let unit = span!(tr, "front.check", parse_and_check(file, src))
        .map_err(|(diags, sm)| diags.render(&sm))?;
    let module = span!(
        tr,
        "ir.lower",
        lower_program(&unit.program, &unit.signatures)
    );
    let errors = span!(tr, "ir.verify", verify_module(&module));
    if !errors.is_empty() {
        return Err(format!("{file}: IR verification failed: {errors:?}"));
    }
    let mut session = span!(tr, "core.session_build", AnalysisSession::builder().build());
    let report = span!(tr, "core.check_cold", session.check_module(&module));
    let (instrumented, stats) = span!(
        tr,
        "core.instrument",
        instrument_module(&module, &report, InstrumentMode::Selective)
    );
    Ok(Compiled {
        unit,
        module,
        report,
        instrumented,
        stats,
    })
}

/// Counts of the program's own work, summed over a workload's rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub src_bytes: usize,
    pub lines: usize,
    pub blocks: usize,
    pub instrs: usize,
    pub warnings: usize,
    pub checks_inserted: usize,
}

impl Counts {
    pub fn of(p: &Program, c: &Compiled) -> Counts {
        Counts {
            src_bytes: p.source.len(),
            lines: p.lines,
            blocks: c.module.total_blocks(),
            instrs: c.module.total_instrs(),
            warnings: c.report.warnings.len(),
            checks_inserted: c.stats.total(),
        }
    }

    /// Sum over a workload's distinct inputs.
    pub fn sum<'a>(all: impl IntoIterator<Item = &'a Counts>) -> Counts {
        all.into_iter().fold(Counts::default(), |a, o| Counts {
            src_bytes: a.src_bytes + o.src_bytes,
            lines: a.lines + o.lines,
            blocks: a.blocks + o.blocks,
            instrs: a.instrs + o.instrs,
            warnings: a.warnings + o.warnings,
            checks_inserted: a.checks_inserted + o.checks_inserted,
        })
    }

    pub fn report(&self, out: &mut crate::harness::LayerMap) {
        out.insert("front.src_bytes", self.src_bytes as f64);
        out.insert("ir.blocks", self.blocks as f64);
        out.insert("ir.instrs", self.instrs as f64);
        out.insert("core.warnings", self.warnings as f64);
        out.insert("core.checks_inserted", self.checks_inserted as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_shuffles_a_permutation() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        let mut v: Vec<usize> = (0..50).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        assert!((0..100).all(|_| a.below(7) < 7));
    }

    #[test]
    fn figure1_rows_are_the_six_named_rows() {
        let rows = figure1_rows().unwrap();
        let names: Vec<&str> = rows.iter().map(|p| p.row.as_str()).collect();
        assert_eq!(
            names,
            ["bt_mz_b", "sp_mz_b", "lu_mz_b", "epcc_b", "hera_b", "hera_c"]
        );
        assert!(rows[5].source.len() > rows[4].source.len());
        assert!(programs(WorkloadClass::A, &["NOPE"]).is_err());
    }
}
