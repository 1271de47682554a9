//! `daemon_edit`: `Server::handle_line` on a resident HERA-B document
//! (90 functions) — one `edit` request line plus one `check` request line
//! per op, a pass being one seeded sweep over all functions. The warm,
//! incremental use of `core` and `front` (a single-function re-parse),
//! the layers `cold_check` uses cold.

use super::daemon_open::{initialized_server, open_and_check_lines, request, result_of};
use super::{programs, Rng};
use crate::harness::{report_failure, LayerMap, OpOut, Workload};
use crate::jsonio::{quote, Json};
use crate::probes::vm_kb;
use crate::span;
use crate::stats::percentile;
use crate::trace::{Tracer, OP};
use parcoach_server::Server;
use parcoach_workloads::WorkloadClass;
use std::hint::black_box;
use std::time::Instant;

const URI: &str = "hera_b.mh";
/// Functions whose index in the file is a multiple of this get MPI edits
/// (add or remove an MPI statement, which invalidates the module-level
/// tables); the others get MPI-neutral edits. About 1 in 8; 7 rather than
/// 8 because HERA's modules are 8 functions long, and a stride of 8 would
/// pick the same kind of function from each. Not seeded: the median over
/// a dozen functions depends on which dozen (the functions at index ≡ 6
/// read 7 % faster than the other six classes).
const MPI_STRIDE: usize = 7;
const NEUTRAL: usize = 0;
const MPI: usize = 1;
/// Passes between two comparisons of the warm server with a cold one.
const CHECK_EVERY: usize = 3;

/// One top-level function of the document and the edits applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    pub name: String,
    /// `fn name(…) {` — the definition's first line.
    head: String,
    /// Everything after the first line, closing brace included.
    body: String,
    /// Value of the `bench_pad` line (0: no such line yet).
    pad: u32,
    /// Whether the extra `MPI_Barrier();` line is present.
    barrier: bool,
}

impl Func {
    /// The definition as the next `edit` request carries it.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n", self.head);
        if self.barrier {
            out.push_str("    MPI_Barrier();\n");
        }
        if self.pad > 0 {
            out.push_str(&format!("    let bench_pad = {};\n", self.pad));
        }
        out.push_str(&self.body);
        out
    }
}

/// Split a program whose definitions start with `fn ` in column 0 and end
/// with `}` in column 0 (what the workload generators emit) into its
/// functions; `Err` if any byte falls outside a definition.
pub fn split_functions(text: &str) -> Result<Vec<Func>, String> {
    let mut funcs = Vec::new();
    let mut lines = text.lines();
    while let Some(head) = lines.next() {
        let name = head
            .strip_prefix("fn ")
            .and_then(|rest| rest.split('(').next())
            .ok_or_else(|| format!("expected a definition, found `{head}`"))?;
        let mut body = String::new();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| format!("`{name}` has no closing brace"))?;
            body.push_str(line);
            if line == "}" {
                break;
            }
            body.push('\n');
        }
        funcs.push(Func {
            name: name.to_string(),
            head: head.to_string(),
            body,
            pad: 0,
            barrier: false,
        });
    }
    Ok(funcs)
}

/// The document text the edits so far add up to.
pub fn join_functions(funcs: &[Func]) -> String {
    funcs.iter().map(|f| f.text() + "\n").collect()
}

pub struct DaemonEdit {
    rows: Vec<String>,
    server: Server,
    /// A second server that only ever opens the mirrored text cold.
    reference: Server,
    /// The benchmark's own copy of the document.
    funcs: Vec<Func>,
    /// A pass edits every function once, in this seeded order: an edit
    /// costs more the later its function sits in the file, so only whole
    /// sweeps have the same mix of work.
    sweep: Vec<usize>,
    next_id: u64,
    check_line: String,
    passes: usize,
    // Per-layer bookkeeping.
    edits: usize,
    incremental: usize,
    resp_bytes: usize,
    rss_kb_at_start: Option<f64>,
}

impl DaemonEdit {
    pub fn set_up(seed: u64) -> Result<DaemonEdit, String> {
        let hera = programs(WorkloadClass::B, &["HERA"])?.remove(0);
        let funcs = split_functions(&hera.source)?;
        if join_functions(&funcs) != hera.source {
            return Err("HERA-B does not split into column-0 definitions".into());
        }
        let mut server = initialized_server()?;
        let (open_line, check_line) = open_and_check_lines(URI, &hera.source);
        result_of(&server.handle_line(&open_line))?;
        result_of(&server.handle_line(&check_line))?;

        let mut sweep: Vec<usize> = (0..funcs.len()).collect();
        Rng::new(seed).shuffle(&mut sweep);
        Ok(DaemonEdit {
            rows: vec!["neutral".into(), "mpi".into()],
            server,
            reference: initialized_server()?,
            funcs,
            sweep,
            next_id: 10,
            check_line,
            passes: 0,
            edits: 0,
            incremental: 0,
            resp_bytes: 0,
            rss_kb_at_start: vm_kb("VmRSS"),
        })
    }
}

impl Workload for DaemonEdit {
    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass_len(&self) -> usize {
        self.sweep.len()
    }

    // A pass has 13 MPI edits; four passes give the row's median
    // some 50 samples. An even number: one pass adds the MPI statements,
    // the next removes them.
    fn passes_per_round(&self) -> usize {
        4
    }

    fn row_of(&self, i: usize) -> usize {
        if self.sweep[i].is_multiple_of(MPI_STRIDE) {
            MPI
        } else {
            NEUTRAL
        }
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOut {
        let kind = self.row_of(i);
        let f = &mut self.funcs[self.sweep[i]];
        if kind == MPI {
            f.barrier = !f.barrier;
        } else {
            f.pad += 1;
        }
        self.next_id += 1;
        let edit_line = request(
            self.next_id,
            "edit",
            &format!(
                r#"{{"uri":{},"func":{},"text":{}}}"#,
                quote(URI),
                quote(&f.name),
                quote(&f.text())
            ),
        );

        let s = tr.open(OP);
        let t = Instant::now();
        let edited = span!(tr, "server.edit", self.server.handle_line(&edit_line));
        let checked = span!(
            tr,
            "server.check",
            self.server.handle_line(&self.check_line)
        );
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.close(s);

        let edit_result = result_of(&edited);
        self.edits += 1;
        self.resp_bytes += edited.len() + checked.len();
        if let Ok(r) = &edit_result {
            self.incremental +=
                usize::from(r.get("incremental").and_then(Json::as_bool) == Some(true));
        }
        let ok = edit_result.is_ok() && result_of(&checked).is_ok();
        if !ok {
            report_failure(|| format!("daemon_edit: edit {:.160} check {:.160}", edited, checked));
        }
        OpOut { us, ok }
    }

    /// The warm server's answer for the document as it now stands must be
    /// the answer of a server that has just opened the mirrored text.
    /// After every third pass: the cold open costs as much as two passes,
    /// and an odd stride falls on passes that added the barriers and on
    /// passes that removed them alike.
    fn end_pass(&mut self) -> Option<bool> {
        self.passes += 1;
        if !self.passes.is_multiple_of(CHECK_EVERY) {
            return None;
        }
        let warm = result_of(&self.server.handle_line(&self.check_line));
        let (open_line, check_line) = open_and_check_lines(URI, &join_functions(&self.funcs));
        let cold = result_of(&self.reference.handle_line(&open_line))
            .and_then(|_| result_of(&self.reference.handle_line(&check_line)));
        let ok = warm.is_ok() && warm == cold;
        if !ok {
            report_failure(|| {
                "daemon_edit: warm check differs from a cold server's on the mirrored text".into()
            });
        }
        Some(ok)
    }

    /// A `check` on the document nobody has edited since the last one:
    /// the floor under `server.check_us`.
    fn probe(&mut self, _i: usize, tr: &mut Tracer) {
        black_box(span!(
            tr,
            "server.check_cached",
            self.server.handle_line(&self.check_line)
        ));
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut LayerMap) {
        let edits = self.edits.max(1) as f64;
        let edit_us: Vec<f64> = tr
            .durations_by_row("server.edit")
            .into_values()
            .flatten()
            .collect();
        out.insert(
            "server.edit_p99_us",
            percentile(&edit_us, 99.0).unwrap_or(0.0),
        );
        out.insert("server.incremental_share", self.incremental as f64 / edits);
        out.insert("server.resp_bytes", self.resp_bytes as f64 / edits);
        if let (Some(a), Some(b)) = (self.rss_kb_at_start, vm_kb("VmRSS")) {
            out.insert("server.rss_growth_kb_per_kop", (b - a) / (edits / 1e3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "fn a(x: int) -> int {\n    return x;\n}\nfn main() {\n    if (a(1) == 1) {\n        MPI_Init();\n    }\n}\n";

    #[test]
    fn split_and_join_are_inverse() {
        let funcs = split_functions(DOC).unwrap();
        assert_eq!(
            funcs.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            ["a", "main"]
        );
        assert_eq!(join_functions(&funcs), DOC);
    }

    #[test]
    fn edits_add_lines_after_the_head() {
        let mut funcs = split_functions(DOC).unwrap();
        funcs[0].pad = 3;
        funcs[0].barrier = true;
        assert_eq!(
            funcs[0].text(),
            "fn a(x: int) -> int {\n    MPI_Barrier();\n    let bench_pad = 3;\n    return x;\n}"
        );
        funcs[0].barrier = false;
        funcs[0].pad = 0;
        assert_eq!(join_functions(&funcs), DOC);
    }

    #[test]
    fn split_rejects_text_outside_definitions() {
        assert!(split_functions("let x = 1;\n").is_err());
        assert!(split_functions("fn a() {\n    return;\n").is_err());
    }
}
