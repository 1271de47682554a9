//! Outside-in spans: the benchmark brackets each call it makes into a
//! layer's public function. Spans live in memory and are written as a
//! Chrome trace when the run ends. A disabled tracer records nothing, so
//! the same op code serves the timed rounds (tracing off) and the traced
//! pass.

use crate::jsonio::Json;
use crate::stats::{gmean, median};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that brackets one whole op (input → verdict).
pub const OP: &str = "op";
/// Name of the span that brackets the extra layer calls a traced pass
/// makes beside an op; its children never count towards op time.
pub const PROBE: &str = "probe";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
    /// Row of that op.
    pub row: u16,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle returned by [`Tracer::open`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    row: u16,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            row: 0,
        }
    }

    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new op on `row`: spans opened from now on carry its id.
    pub fn next_op(&mut self, row: usize) {
        self.op += 1;
        self.row = row as u16;
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            row: self.row,
        });
        self.stack.push(id);
        // Read the clock last, so bookkeeping stays outside the interval.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::open`] (innermost first).
    #[inline]
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, grouped by row.
    pub fn durations_by_row(&self, name: &str) -> BTreeMap<u16, Vec<f64>> {
        let mut by_row: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_row.entry(s.row).or_default().push(s.dur_us());
        }
        by_row
    }

    /// Geometric mean over rows of the per-row median duration of the
    /// spans called `name`; `None` when no such span was recorded.
    pub fn gmean_of_row_medians(&self, name: &str) -> Option<f64> {
        let meds: Vec<f64> = self
            .durations_by_row(name)
            .values()
            .filter_map(|v| median(v))
            .collect();
        gmean(&meds)
    }

    /// Sum over rows of the per-row median duration — the cost of one
    /// pass over the distinct rows.
    pub fn sum_of_row_medians(&self, name: &str) -> f64 {
        self.durations_by_row(name)
            .values()
            .filter_map(|v| median(v))
            .sum()
    }

    /// Self time of the [`OP`] spans (duration minus the part their
    /// direct children cover) as a share of their total duration: the
    /// part of an op no named layer call explains.
    pub fn unattributed_share(&self) -> Option<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let (mut total, mut own) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == OP) {
            let dur = s.end_ns - s.start_ns;
            total += dur;
            own += dur.saturating_sub(child_ns[i]);
        }
        (total > 0).then(|| own as f64 / total as f64)
    }

    /// Share of total op time spent in direct children whose name starts
    /// with `prefix` (e.g. `"front."`).
    pub fn op_share_of(&self, prefix: &str) -> Option<f64> {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let part: u64 = self
            .spans
            .iter()
            .filter(|s| {
                s.name.starts_with(prefix)
                    && s.parent.is_some_and(|p| self.spans[p as usize].name == OP)
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (total > 0).then(|| part as f64 / total as f64)
    }

    /// Chrome trace-event rendering (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per row.
    pub fn to_chrome_trace(&self, workload: &str, rows: &[String]) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(workload.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_us())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.row))),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::Num(f64::from(s.op))),
                            (
                                "row",
                                Json::Str(rows.get(s.row as usize).cloned().unwrap_or_default()),
                            ),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ns".into())),
        ])
    }
}

/// `span!(tracer, "layer.call", expr)`: evaluate `expr` inside a span.
#[macro_export]
macro_rules! span {
    ($tr:expr, $name:expr, $body:expr) => {{
        let __s = $tr.open($name);
        let __v = $body;
        $tr.close(__s);
        __v
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        let v = span!(tr, OP, 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.unattributed_share(), None);
    }

    #[test]
    fn self_time_excludes_children_and_probes() {
        let mut tr = Tracer::new();
        tr.enable(true);
        tr.next_op(1);
        let op = tr.open(OP);
        span!(tr, "front.check", spin(300));
        span!(tr, "ir.lower", spin(100));
        tr.close(op);
        let probe = tr.open(PROBE);
        span!(tr, "front.parse", spin(200));
        tr.close(probe);

        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert!(spans.iter().all(|s| s.op == 1 && s.row == 1));
        // Both children cover nearly the whole op.
        let un = tr.unattributed_share().unwrap();
        assert!(un < 0.2, "unattributed {un}");
        let front = tr.op_share_of("front.").unwrap();
        assert!(front > 0.5 && front < 0.9, "front share {front}");
        // The probe's child is not a child of an op.
        assert!(tr.gmean_of_row_medians("front.parse").unwrap() >= 200.0);
        assert_eq!(tr.gmean_of_row_medians("nope"), None);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut tr = Tracer::new();
        tr.enable(true);
        tr.next_op(0);
        span!(tr, OP, span!(tr, "core.render", ()));
        let j = tr.to_chrome_trace("cold_check", &["hera_b".to_string()]);
        let ev = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[1].get("name").and_then(Json::as_str),
            Some("core.render")
        );
        assert_eq!(
            ev[0]
                .get("args")
                .and_then(|a| a.get("row"))
                .and_then(Json::as_str),
            Some("hera_b")
        );
    }
}
