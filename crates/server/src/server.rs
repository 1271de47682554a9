//! The `parcoachd` dispatcher: decode → dispatch → encode, one line per
//! request, one line per response.
//!
//! A [`Server`] is a *per-connection view* over the process-wide
//! [`ServerShared`]: it holds only the connection's handshake and
//! shutdown flags, while documents — each owning its memo
//! table, paired with an [`AnalysisSession`](parcoach_core::AnalysisSession)
//! and an epoch-keyed result cache — live in the shared map (see
//! [`crate::sched`]). Any number of connections dispatch concurrently:
//! different documents in parallel, same-document requests serialized on
//! the document lock.
//!
//! One protocol revision is spoken ([`PROTOCOL_VERSION`]), LSP-shaped:
//! warnings carry `severity`, zero-based `{line, character}` ranges and
//! `relatedInformation`, and requests may carry a `deadlineMs` budget.
//!
//! Every response except `timings` is a pure function of the request
//! history of its document, so every server produces byte-identical
//! transcripts across runs (`timings` reports measured wall clock,
//! which no run can promise twice) — what `initialize` advertises as
//! `capabilities.deterministic`.

use crate::document::{DocError, Document};
use crate::json::{self, obj, Value};
use crate::proto::{self, code, Request, PROTOCOL_VERSION};
use crate::sched::{CheckCache, ServerShared};
use parcoach_core::{CancelToken, StaticReport, WarningKind};
use parcoach_front::{SourceMap, Span};
use std::sync::Arc;
use std::time::Duration;

/// Configuration mirrored from the daemon's command line.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection request-queue bound; overflow answers
    /// [`code::SERVER_BUSY`].
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { queue_capacity: 64 }
    }
}

/// One connection's view of the resident analysis service.
pub struct Server {
    shared: Arc<ServerShared>,
    /// Whether `initialize` has succeeded on this connection.
    initialized: bool,
    /// Document of this connection's last `check` (what `timings`
    /// reports on).
    last_checked: Option<String>,
    shutdown: bool,
}

impl Server {
    /// A standalone server with its own state (one-connection deployments
    /// and tests). Multi-connection daemons build one [`ServerShared`]
    /// and a [`Server::with_shared`] view per connection.
    pub fn new(config: ServerConfig) -> Server {
        Server::with_shared(ServerShared::new(config))
    }

    /// A view over existing shared state; the connection starts
    /// uninitialized, whatever other connections have done.
    pub fn with_shared(shared: Arc<ServerShared>) -> Server {
        Server {
            shared,
            initialized: false,
            last_checked: None,
            shutdown: false,
        }
    }

    /// Whether `shutdown` has been acknowledged on this connection.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown
    }

    pub(crate) fn queue_capacity(&self) -> usize {
        self.shared.config().queue_capacity.max(1)
    }

    /// Handle one request line, producing one response line.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.handle(proto::parse_request(line), &CancelToken::new())
    }

    /// Answer one decoded request (or its decode error) under a
    /// cancellation token: a `check`/`diagnostics` in flight observes the
    /// token at analysis phase boundaries and answers
    /// [`code::REQUEST_CANCELLED`] if it fires.
    pub(crate) fn handle(
        &mut self,
        req: Result<Request, (i64, String)>,
        token: &CancelToken,
    ) -> String {
        let req = match req {
            Ok(r) => r,
            Err((c, msg)) => return proto::err(&Value::Null, c, &msg, None),
        };
        if !self.initialized && req.method != "initialize" {
            return proto::err(
                &req.id,
                code::NOT_INITIALIZED,
                "server not initialized (send `initialize` first)",
                None,
            );
        }
        match req.method.as_str() {
            "initialize" => self.initialize(&req),
            "open" => self.open(&req),
            "edit" => self.edit(&req),
            "check" => self.run_check(&req, token, Verb::Check),
            "diagnostics" => self.run_check(&req, token, Verb::Diagnostics),
            "timings" => self.timings(&req),
            "shutdown" => {
                self.shutdown = true;
                self.shared.begin_drain();
                proto::ok(&req.id, Value::Null)
            }
            other => proto::err(
                &req.id,
                code::METHOD_NOT_FOUND,
                &format!("unknown method `{other}`"),
                None,
            ),
        }
    }

    fn initialize(&mut self, req: &Request) -> String {
        let version = req.params.get("protocolVersion").and_then(Value::as_i64);
        if version != Some(PROTOCOL_VERSION) {
            return proto::err(
                &req.id,
                code::VERSION_MISMATCH,
                &format!(
                    "unsupported protocolVersion {version:?} (server speaks {PROTOCOL_VERSION})"
                ),
                None,
            );
        }
        self.initialized = true;
        proto::ok(
            &req.id,
            obj([
                ("protocolVersion", Value::from(PROTOCOL_VERSION)),
                ("serverName", Value::from("parcoachd")),
                ("serverVersion", Value::from(env!("CARGO_PKG_VERSION"))),
                (
                    "capabilities",
                    obj([
                        ("incrementalEdits", Value::from(true)),
                        ("deterministic", Value::from(true)),
                        ("positionEncoding", Value::from("utf-8")),
                        ("cancelRequest", Value::from(true)),
                        ("deadlineMs", Value::from(true)),
                        ("concurrentClients", Value::from(true)),
                    ]),
                ),
            ]),
        )
    }

    fn open(&mut self, req: &Request) -> String {
        let Some(uri) = req.params.get("uri").and_then(Value::as_str) else {
            return invalid_params(&req.id, "open: missing string `uri`");
        };
        let Some(text) = req.params.get("text").and_then(Value::as_str) else {
            return invalid_params(&req.id, "open: missing string `text`");
        };
        match Document::open(uri, text) {
            Ok(doc) => {
                let functions = doc
                    .functions()
                    .into_iter()
                    .map(Value::from)
                    .collect::<Vec<_>>();
                // A re-open replaces the entry wholesale: fresh session,
                // fresh epoch — exactly what a cold daemon would hold.
                self.shared.insert_doc(uri, doc);
                proto::ok(&req.id, obj([("functions", Value::Arr(functions))]))
            }
            Err(e) => doc_error(&req.id, e),
        }
    }

    fn edit(&mut self, req: &Request) -> String {
        let Some(uri) = req.params.get("uri").and_then(Value::as_str) else {
            return invalid_params(&req.id, "edit: missing string `uri`");
        };
        let Some(func) = req.params.get("func").and_then(Value::as_str) else {
            return invalid_params(&req.id, "edit: missing string `func`");
        };
        let Some(text) = req.params.get("text").and_then(Value::as_str) else {
            return invalid_params(&req.id, "edit: missing string `text`");
        };
        let Some(entry) = self.shared.doc(uri) else {
            return unknown_doc(&req.id, uri);
        };
        let mut st = entry.state.lock();
        let st = &mut *st;
        match st.doc.edit(func, text) {
            Ok(out) => {
                // New snapshot: concurrent readers either saw the old
                // epoch's cache or will recompute against the new text.
                st.epoch += 1;
                st.cache = None;
                proto::ok(
                    &req.id,
                    obj([
                        ("incremental", Value::from(out.incremental)),
                        ("delta", Value::from(out.delta)),
                    ]),
                )
            }
            Err(e) => doc_error(&req.id, e),
        }
    }

    /// Shared `check`/`diagnostics` body. Serves the epoch-keyed cache
    /// when the document has not changed since the last analysis
    /// (concurrent readers of a quiet document never recompute, and
    /// after the first of them never re-encode); otherwise runs the
    /// analysis under the document lock, honoring the connection token
    /// tightened by an optional `deadlineMs` budget.
    fn run_check(&mut self, req: &Request, token: &CancelToken, verb: Verb) -> String {
        let Some(uri) = req.params.get("uri").and_then(Value::as_str) else {
            return invalid_params(&req.id, "check: missing string `uri`");
        };
        let Some(entry) = self.shared.doc(uri) else {
            return unknown_doc(&req.id, uri);
        };
        let token = match req.params.get("deadlineMs").and_then(Value::as_i64) {
            Some(ms) => token.bounded(Duration::from_millis(ms.max(0) as u64)),
            None => token.clone(),
        };
        let mut st = entry.state.lock();
        let st = &mut *st;
        if st.cache.as_ref().is_none_or(|c| c.epoch != st.epoch) {
            let Ok(report) = st.doc.check(&mut st.session, Some(&token)) else {
                return proto::err(&req.id, code::REQUEST_CANCELLED, "request cancelled", None);
            };
            let rendered = report.render(st.doc.source_map());
            st.cache = Some(CheckCache {
                epoch: st.epoch,
                report,
                rendered,
                encoded: Default::default(),
            });
        }
        if self.last_checked.as_deref() != Some(uri) {
            self.last_checked = Some(uri.to_string());
        }
        let cache = st.cache.as_mut().expect("cache just filled");
        let result = cache.encoded[verb as usize].get_or_insert_with(|| {
            let warnings = warnings_json(&cache.report, st.doc.source_map());
            let rendered = matches!(verb, Verb::Check).then_some(cache.rendered.as_str());
            encode_check_result(cache.report.is_clean(), &warnings, rendered)
        });
        proto::ok_encoded(&req.id, result)
    }

    fn timings(&mut self, req: &Request) -> String {
        let entry = self.last_checked.as_ref().and_then(|u| self.shared.doc(u));
        let Some(entry) = entry else {
            return proto::ok(&req.id, obj([("available", Value::from(false))]));
        };
        let st = entry.state.lock();
        let Some(t) = st.session.timings() else {
            return proto::ok(&req.id, obj([("available", Value::from(false))]));
        };
        let phases = t
            .lines()
            .iter()
            .map(|(name, dur)| {
                let ns = Value::from(dur.as_nanos() as u64);
                (format!("{name}_ns").into(), ns)
            })
            .collect::<Vec<_>>();
        let stats = st.doc.query_stats();
        proto::ok(
            &req.id,
            obj([
                ("available", Value::from(true)),
                ("phases", Value::Obj(phases)),
                (
                    "cache",
                    obj([
                        ("pwHits", Value::from(stats.pw_hits)),
                        ("pwMisses", Value::from(stats.pw_misses)),
                        ("cfgHits", Value::from(stats.cfg_hits)),
                        ("cfgMisses", Value::from(stats.cfg_misses)),
                        ("moduleHits", Value::from(stats.handle_hits)),
                        ("moduleMisses", Value::from(stats.handle_misses)),
                        ("p2pHits", Value::from(stats.p2p_hits)),
                        ("p2pMisses", Value::from(stats.p2p_misses)),
                        ("greened", Value::from(stats.greened)),
                        ("invalidated", Value::from(stats.invalidated)),
                        ("analysisHits", Value::from(stats.analysis_hits)),
                        ("analysisMisses", Value::from(stats.analysis_misses)),
                        ("contextHits", Value::from(stats.context_hits)),
                        ("contextMisses", Value::from(stats.context_misses)),
                    ]),
                ),
            ]),
        )
    }
}

/// Which of the two analysis verbs a request is (`diagnostics` is
/// `check` without the rendered text).
#[derive(Clone, Copy)]
enum Verb {
    Check,
    Diagnostics,
}

/// The bytes of a `check` (`rendered` given) or `diagnostics` result:
/// what [`check_result_json`] serializes to, written without first
/// copying the rendered report into a [`Value`].
fn encode_check_result(clean: bool, warnings: &Value, rendered: Option<&str>) -> String {
    let text = rendered.map_or(0, |r| r.len() + r.len() / 16);
    let mut out = String::with_capacity(warnings.len_hint() + text + 64);
    out.push_str(r#"{"clean":"#);
    Value::from(clean).write(&mut out);
    out.push_str(r#","warnings":"#);
    warnings.write(&mut out);
    if let Some(rendered) = rendered {
        out.push_str(r#","rendered":"#);
        json::write_str(rendered, &mut out);
    }
    out.push('}');
    out
}

/// The `check` result object. Public so the soak client can construct
/// the *expected* response from an independently compiled document and
/// compare transcripts byte-for-byte.
pub fn check_result_json(report: &StaticReport, rendered: String, sm: &SourceMap) -> Value {
    obj([
        ("clean", Value::from(report.is_clean())),
        ("warnings", warnings_json(report, sm)),
        ("rendered", Value::from(rendered)),
    ])
}

/// The warning array shared by `check` and `diagnostics` (and printed by
/// `parcoachc diagnostics`), in discovery order, which the analysis
/// fixes from run to run. LSP-shaped: `severity`, zero-based
/// `{line, character}` ranges resolved through the source map, and
/// `relatedInformation` for the secondary locations.
pub fn warnings_json(report: &StaticReport, sm: &SourceMap) -> Value {
    Value::Arr(
        report
            .warnings
            .iter()
            .map(|w| {
                let related = w
                    .related
                    .iter()
                    .map(|(span, msg)| {
                        obj([
                            ("range", range_json(sm, *span)),
                            ("message", Value::from(msg.as_str())),
                        ])
                    })
                    .collect();
                obj([
                    ("func", Value::from(w.func.as_str())),
                    ("code", Value::from(w.kind.code())),
                    ("severity", Value::from(severity(w.kind))),
                    ("range", range_json(sm, w.span)),
                    ("message", Value::from(w.message.as_str())),
                    ("relatedInformation", Value::Arr(related)),
                ])
            })
            .collect(),
    )
}

/// LSP `DiagnosticSeverity`: 1 = Error for the kinds that describe a
/// deadlock or an invariant violation, 2 = Warning for the hazard kinds
/// (nondeterministic order, risky context) the analysis reports
/// conservatively.
fn severity(kind: WarningKind) -> i64 {
    match kind {
        WarningKind::CollectiveMismatch
        | WarningKind::BarrierDivergence
        | WarningKind::InsufficientThreadLevel
        | WarningKind::UnmatchedP2p
        | WarningKind::P2pOrder
        | WarningKind::UnwaitedRequest
        | WarningKind::WaitWithoutPost => 1,
        WarningKind::MultithreadedCollective
        | WarningKind::NestedParallelismCollective
        | WarningKind::MultithreadedCall
        | WarningKind::ConcurrentCollectives
        | WarningKind::SelfConcurrentRegion => 2,
    }
}

/// A zero-based LSP range for `span` (the source map reports 1-based
/// line/column).
fn range_json(sm: &SourceMap, span: Span) -> Value {
    let pos = |offset: u32| {
        let lc = sm.line_col(offset);
        obj([
            ("line", Value::from(lc.line.saturating_sub(1))),
            ("character", Value::from(lc.col.saturating_sub(1))),
        ])
    };
    obj([("start", pos(span.lo)), ("end", pos(span.hi))])
}

fn invalid_params(id: &Value, msg: &str) -> String {
    proto::err(id, code::INVALID_PARAMS, msg, None)
}

fn unknown_doc(id: &Value, uri: &str) -> String {
    proto::err(
        id,
        code::UNKNOWN_TARGET,
        &format!("no open document `{uri}`"),
        None,
    )
}

fn doc_error(id: &Value, e: DocError) -> String {
    match e {
        DocError::UnknownFunction(f) => proto::err(
            id,
            code::UNKNOWN_TARGET,
            &format!("no function `{f}` in document"),
            None,
        ),
        DocError::Compile { rendered } => proto::err(
            id,
            code::COMPILE_ERROR,
            "text does not compile",
            Some(obj([("diagnostics", Value::from(rendered))])),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_core::AnalysisSession;

    /// The direct encoder writes what the `Value` builders serialize to,
    /// for both verbs.
    #[test]
    fn encoded_results_are_the_value_builders_bytes() {
        let src = "fn helper() {\n    MPI_Barrier();\n}\nfn main() {\n    MPI_Init();\n    \
                   parallel { helper(); }\n    if (rank() == 0) { MPI_Barrier(); }\n    \
                   MPI_Finalize();\n}\n";
        for src in [
            src,
            "fn main() {\n    MPI_Init();\n    MPI_Finalize();\n}\n",
        ] {
            let doc = Document::open("t.mh", src).unwrap();
            let report = AnalysisSession::builder()
                .build()
                .check_module(doc.module());
            let rendered = report.render(doc.source_map());
            let clean = report.is_clean();

            let warnings = warnings_json(&report, doc.source_map());
            assert_eq!(
                encode_check_result(clean, &warnings, Some(&rendered)),
                check_result_json(&report, rendered.clone(), doc.source_map()).to_line()
            );
            assert_eq!(
                encode_check_result(clean, &warnings, None),
                obj([("clean", Value::from(clean)), ("warnings", warnings)]).to_line()
            );
        }
    }
}
