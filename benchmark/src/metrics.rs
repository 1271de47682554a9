//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, bound and — for per-layer rows — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` at the repo root
//! repeats the names, units and directions; a unit test keeps the two in
//! step.

use crate::stats::Report;
use crate::workloads::runs_pinned;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric, reported on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// One sample per round (else: one per set-up, or a single reading).
    pub per_round: bool,
    /// Absolute change below which `compare` never calls a regression
    /// (set-up of a few milliseconds doubles on noise alone).
    pub floor: f64,
}

impl EndToEnd {
    /// Which of a run's samples is the value reported on `workload`.
    pub fn report_on(&self, workload: &str) -> Report {
        if self.per_round && !runs_pinned(workload) {
            Report::Quartile
        } else {
            Report::Best
        }
    }
}

/// The workloads, in running order, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_check",
        "one-shot parcoachc check on the Figure-1 programs: front+ir do most of the work, core the rest, simulator none",
    ),
    (
        "daemon_edit",
        "edit+check request lines on a resident HERA-B document: the warm, incremental use of core and front",
    ),
    (
        "daemon_open",
        "open+first check request lines with full text: the write side of the server, cold table fill",
    ),
    (
        "sim_run",
        "instrumented 2x2 runs of compiled programs: simulator steady state, no front/ir/core work",
    ),
    (
        "detect_stream",
        "source-to-verdict oracle over many tiny programs: every layer's fixed per-module cost and the timeout-resolved verdicts",
    ),
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "verdict_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        per_round: true,
        floor: 0.0,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        per_round: true,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        per_round: false,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        per_round: false,
        floor: 0.05,
    },
];

/// `failed_share` is printed and compared by `all`/`compare` (any
/// increase is a regression) but is not a driver metric: it is 0 by
/// design, and the driver reads failures from `failed`/`attempted`.
pub const FAILED_SHARE: &str = "failed_share";

/// One per-layer row: `(name, unit, better, moves)`.
pub type PerLayer = (&'static str, &'static str, Better, &'static str);

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced pass. A value is 0 on a workload
/// whose ops never reach that layer call.
pub const PER_LAYER: &[PerLayer] = &[
    // front
    (
        "front.parse_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check",
    ),
    (
        "front.check_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check (largest share), daemon_open; none on sim_run",
    ),
    (
        "front.lines_per_s",
        "1/s",
        Higher,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "front.src_bytes",
        "count",
        Lower,
        "input size; must repeat exactly",
    ),
    // ir
    (
        "ir.lower_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "ir.verify_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "ir.blocks",
        "count",
        Lower,
        "work for core on cold_check; must repeat exactly",
    ),
    (
        "ir.instrs",
        "count",
        Lower,
        "work for core on cold_check; must repeat exactly",
    ),
    // core
    (
        "core.session_build_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream, cold_check",
    ),
    (
        "core.check_cold_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, detect_stream",
    ),
    (
        "core.instrument_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check",
    ),
    (
        "core.render_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check",
    ),
    ("core.warnings", "count", Lower, "must repeat exactly"),
    (
        "core.checks_inserted",
        "count",
        Lower,
        "verdict_p50_us on sim_run (more checks, slower runs); must repeat exactly",
    ),
    // server
    (
        "server.json_parse_us",
        "us",
        Lower,
        "verdict_p50_us, ops_per_s on daemon_open",
    ),
    (
        "server.open_us",
        "us",
        Lower,
        "verdict_p50_us, ops_per_s on daemon_open",
    ),
    (
        "server.first_check_us",
        "us",
        Lower,
        "verdict_p50_us on daemon_open",
    ),
    (
        "server.open_overhead_x1000",
        "x1000",
        Lower,
        "verdict_p50_us, ops_per_s on daemon_open",
    ),
    (
        "server.edit_us",
        "us",
        Lower,
        "verdict_p50_us on daemon_edit; none on cold_check",
    ),
    (
        "server.check_us",
        "us",
        Lower,
        "verdict_p50_us on daemon_edit",
    ),
    (
        "server.check_cached_us",
        "us",
        Lower,
        "floor of server.check_us on daemon_edit",
    ),
    (
        "server.edit_p99_us",
        "us",
        Lower,
        "tail of daemon_edit, not yet an end-to-end metric",
    ),
    (
        "server.incremental_share",
        "ratio",
        Higher,
        "verdict_p50_us on daemon_edit",
    ),
    (
        "server.resp_bytes",
        "count",
        Lower,
        "verdict_p50_us on daemon_edit",
    ),
    (
        "server.rss_growth_kb_per_kop",
        "kB/kop",
        Lower,
        "peak_rss_mb on daemon_edit",
    ),
    // interp
    (
        "interp.build_us",
        "us",
        Lower,
        "setup_s on sim_run; verdict_p50_us on detect_stream",
    ),
    (
        "interp.run_instr_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run",
    ),
    (
        "interp.run_plain_us",
        "us",
        Lower,
        "base of interp.instr_overhead_x1000",
    ),
    (
        "interp.instr_overhead_x1000",
        "x1000",
        Lower,
        "the paper's run-time overhead; verdict_p50_us on sim_run",
    ),
    (
        "interp.full_overhead_x1000",
        "x1000",
        Lower,
        "what selective instrumentation saves; none end to end",
    ),
    (
        "interp.empty_run_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream (fixed cost of a run); little on sim_run",
    ),
    // mpisim
    (
        "mpisim.world_setup_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream; none on sim_run",
    ),
    (
        "mpisim.allreduce_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run (epcc_a row most)",
    ),
    (
        "mpisim.pingpong_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run",
    ),
    (
        "mpisim.cc_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run; interp.instr_overhead_x1000",
    ),
    (
        "mpisim.deadlock_verdict_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream; none on sim_run",
    ),
    // ompsim
    (
        "ompsim.fork_join_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run (epcc_a row)",
    ),
    (
        "ompsim.barrier_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run (epcc_a row)",
    ),
    (
        "ompsim.timeout_resolved_ops",
        "count",
        Lower,
        "ops_per_s on detect_stream only; must repeat exactly",
    ),
    (
        "ompsim.timeout_time_share",
        "ratio",
        Lower,
        "ops_per_s on detect_stream only",
    ),
    // fuzz
    (
        "fuzz.observe_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream",
    ),
    (
        "fuzz.watchdog_overhead_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream",
    ),
    (
        "fuzz.agreed_share",
        "ratio",
        Higher,
        "none; static and dynamic verdicts agreeing",
    ),
    // generators
    ("testutil.gen_us", "us", Lower, "setup_s on detect_stream"),
    (
        "workloads.gen_us",
        "us",
        Lower,
        "setup_s on cold_check, daemon_open, sim_run",
    ),
    // rows: each workload reports its own rows, 0 for the others
    (
        "row.bt_mz_b.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.sp_mz_b.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.lu_mz_b.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.epcc_b.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.hera_b.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.hera_c.p50_us",
        "us",
        Lower,
        "verdict_p50_us on cold_check, daemon_open",
    ),
    (
        "row.neutral.p50_us",
        "us",
        Lower,
        "verdict_p50_us on daemon_edit",
    ),
    (
        "row.mpi.p50_us",
        "us",
        Lower,
        "verdict_p50_us on daemon_edit",
    ),
    (
        "row.epcc_a.p50_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run",
    ),
    (
        "row.hera_a.p50_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run",
    ),
    (
        "row.sp_mz_a.p50_us",
        "us",
        Lower,
        "verdict_p50_us on sim_run",
    ),
    (
        "row.scenario.p50_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream",
    ),
    (
        "row.catalogue.p50_us",
        "us",
        Lower,
        "verdict_p50_us on detect_stream",
    ),
    // tails and the trace itself
    (
        "tail.p99_us",
        "us",
        Lower,
        "the workload's own tail; not yet an end-to-end metric",
    ),
    (
        "tail.p99_samples",
        "count",
        Higher,
        "sample count behind tail.p99_us",
    ),
    (
        "trace.front_share",
        "ratio",
        Lower,
        "share of op time in front calls",
    ),
    (
        "trace.ir_share",
        "ratio",
        Lower,
        "share of op time in ir calls",
    ),
    (
        "trace.core_share",
        "ratio",
        Lower,
        "share of op time in core calls",
    ),
    (
        "trace.unattributed_share",
        "ratio",
        Lower,
        "op time no named layer call explains",
    ),
    (
        "trace.overhead_x1000",
        "x1000",
        Lower,
        "traced / untraced verdict_p50_us",
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(valid_name(n) && seen.insert(*n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}");
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit) && seen.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (n, unit, _, _) in PER_LAYER {
            assert!(valid_name(n) && valid_unit(unit) && seen.insert(*n), "{n}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonio::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let wl: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(wl, want);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let pl = list("per_layer");
        assert_eq!(pl.len(), PER_LAYER.len());
        for (j, (name, unit, better, _)) in pl.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), *name);
            assert_eq!(s(j, "unit"), *unit);
            assert_eq!(s(j, "better"), better.name());
            assert_eq!(j.as_obj().unwrap().len(), 3);
        }
    }
}
