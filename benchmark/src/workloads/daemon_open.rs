//! `daemon_open`: `Server::handle_line` `open` (full text in the request)
//! plus the first `check`, re-opening the six `cold_check` programs. The
//! write side of the server: bulk text in through the JSON layer, cold
//! table fill — beside `daemon_edit`'s reads.

use super::{figure1_rows, Program, Rng};
use crate::harness::{report_failure, LayerMap, OpOut, Workload};
use crate::jsonio::{self, quote, Json};
use crate::trace::{Tracer, OP};
use crate::{refs, span};
use parcoach_front::parse_and_check;
use parcoach_ir::lower::lower_program;
use parcoach_ir::verify_module;
use parcoach_server::{json, Server, ServerConfig};
use std::hint::black_box;
use std::time::Instant;

/// A JSON-RPC request line as a daemon client would write it.
pub fn request(id: u64, method: &str, params: &str) -> String {
    format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#)
}

/// A server that has answered `initialize` (protocol 2).
pub fn initialized_server() -> Result<Server, String> {
    let mut server = Server::new(ServerConfig::default());
    let resp = server.handle_line(&request(0, "initialize", r#"{"protocolVersion":2}"#));
    result_of(&resp).map(|_| server)
}

/// The `result` member of a response line; an `error` response, or a
/// line that is not JSON, is an `Err`.
pub fn result_of(resp: &str) -> Result<Json, String> {
    let v = jsonio::parse(resp)?;
    v.get("result")
        .cloned()
        .ok_or_else(|| format!("no result in response: {:.200}", resp))
}

/// `open` and `check` request lines for `text` under `uri`.
pub fn open_and_check_lines(uri: &str, text: &str) -> (String, String) {
    let uri = quote(uri);
    (
        request(
            1,
            "open",
            &format!(r#"{{"uri":{uri},"text":{}}}"#, quote(text)),
        ),
        request(2, "check", &format!(r#"{{"uri":{uri}}}"#)),
    )
}

struct Row {
    open_line: String,
    check_line: String,
    /// `expected/cold_check/<row>.txt`: the daemon's `rendered` must be
    /// the one-shot driver's report, byte for byte.
    expected: String,
}

pub struct DaemonOpen {
    rows: Vec<String>,
    programs: Vec<Program>,
    data: Vec<Row>,
    order: Vec<usize>,
    server: Server,
}

impl DaemonOpen {
    pub fn set_up(seed: u64) -> Result<DaemonOpen, String> {
        let programs = figure1_rows()?;
        let data = programs
            .iter()
            .map(|p| {
                // The uri is the file name the one-shot driver would be
                // given: reports name their source, and must match.
                let (open_line, check_line) = open_and_check_lines(&p.file, &p.source);
                Ok(Row {
                    open_line,
                    check_line,
                    expected: refs::load(&format!("cold_check/{}.txt", p.row))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut order: Vec<usize> = (0..programs.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        Ok(DaemonOpen {
            rows: programs.iter().map(|p| p.row.clone()).collect(),
            programs,
            data,
            order,
            server: initialized_server()?,
        })
    }
}

impl Workload for DaemonOpen {
    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn row_of(&self, i: usize) -> usize {
        self.order[i]
    }

    // An op is 20 ms to 1 s of work: a cold first pass cannot move a
    // round's median, and a warm-up pass would cost a round's time.
    fn warmup_passes(&self) -> usize {
        0
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOut {
        let row = &self.data[self.order[i]];
        let s = tr.open(OP);
        let t = Instant::now();
        let opened = span!(tr, "server.open", self.server.handle_line(&row.open_line));
        let checked = span!(
            tr,
            "server.first_check",
            self.server.handle_line(&row.check_line)
        );
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.close(s);
        let rendered = result_of(&checked)
            .ok()
            .and_then(|r| r.get("rendered").and_then(Json::as_str).map(str::to_string));
        let ok = result_of(&opened).is_ok() && rendered.as_deref() == Some(row.expected.as_str());
        if !ok {
            report_failure(|| {
                format!(
                    "daemon_open {}: open {:.120} check {:.120}",
                    self.rows[self.order[i]], opened, checked
                )
            });
        }
        OpOut { us, ok }
    }

    /// What the `open` request hides: the JSON layer's parse of the line
    /// and the compile of the text inside it.
    fn probe(&mut self, i: usize, tr: &mut Tracer) {
        let p = &self.programs[self.order[i]];
        let line = &self.data[self.order[i]].open_line;
        black_box(span!(tr, "server.json_parse", json::parse(line)).is_ok());
        if let Ok(unit) = span!(tr, "front.check", parse_and_check(&p.file, &p.source)) {
            let module = span!(
                tr,
                "ir.lower",
                lower_program(&unit.program, &unit.signatures)
            );
            black_box(span!(tr, "ir.verify", verify_module(&module)));
        }
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut LayerMap) {
        out.insert(
            "front.src_bytes",
            self.programs.iter().map(|p| p.source.len()).sum::<usize>() as f64,
        );
        let sum = |name| tr.sum_of_row_medians(name);
        let compile_us = sum("front.check") + sum("ir.lower") + sum("ir.verify");
        if compile_us > 0.0 {
            out.insert(
                "server.open_overhead_x1000",
                sum("server.open") / compile_us * 1e3,
            );
            let lines: usize = self.programs.iter().map(|p| p.lines).sum();
            out.insert(
                "front.lines_per_s",
                lines as f64 / (sum("front.check") / 1e6),
            );
        }
    }
}
