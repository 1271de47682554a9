//! Wire protocol: line-delimited JSON-RPC 2.0 over stdio or a unix
//! socket.
//!
//! Each request is one line — `{"jsonrpc":"2.0","id":1,"method":"check",
//! "params":{...}}` — and produces exactly one response line. Verbs:
//!
//! | method             | params                      | result |
//! |--------------------|-----------------------------|--------|
//! | `initialize`       | `{protocolVersion}`         | server name/version, capabilities |
//! | `open`             | `{uri, text}`               | function list |
//! | `edit`             | `{uri, func, text}`         | `{incremental, delta}` |
//! | `check`            | `{uri[, deadlineMs]}`       | rendered report + structured warnings |
//! | `diagnostics`      | `{uri[, deadlineMs]}`       | structured warnings only |
//! | `timings`          | `{}`                        | per-phase ns of the last check |
//! | `shutdown`         | `{}`                        | `null`, then the server drains |
//! | `$/cancelRequest`  | `{id}`                      | *notification* — no response; the named request answers [`code::REQUEST_CANCELLED`] |
//!
//! One revision is spoken, [`PROTOCOL_VERSION`], and it is LSP-shaped:
//! warnings carry `severity`, zero-based `{line, character}` ranges and
//! `relatedInformation`, and `check`/`diagnostics` accept a `deadlineMs`
//! budget. `$/cancelRequest` and `deadlineMs` are honored on concurrent
//! connections (see [`crate::sched`]).
//!
//! Error codes follow JSON-RPC where a standard code exists and use the
//! `-320xx` application range for the rest (see [`code`]). Responses are
//! built with ordered keys ([`crate::json`]) so the same request history
//! produces byte-identical transcripts.

use crate::json::{self, obj, Value};

/// The protocol revision. `initialize` accepts exactly this and rejects
/// anything else with [`code::VERSION_MISMATCH`]: a one-line protocol
/// has no room for silent downgrades.
pub const PROTOCOL_VERSION: i64 = 2;

/// Typed JSON-RPC error codes.
pub mod code {
    /// Request line was not valid JSON.
    pub const PARSE_ERROR: i64 = -32700;
    /// Valid JSON but not a well-formed request object.
    pub const INVALID_REQUEST: i64 = -32600;
    /// Unknown method.
    pub const METHOD_NOT_FOUND: i64 = -32601;
    /// Params missing or of the wrong shape.
    pub const INVALID_PARAMS: i64 = -32602;
    /// Any request before a successful `initialize`.
    pub const NOT_INITIALIZED: i64 = -32001;
    /// `initialize` with an unsupported `protocolVersion`.
    pub const VERSION_MISMATCH: i64 = -32002;
    /// `open`/`edit` text that does not compile (details in `data`).
    pub const COMPILE_ERROR: i64 = -32003;
    /// `edit`/`check` naming a function or document the server has
    /// never seen.
    pub const UNKNOWN_TARGET: i64 = -32004;
    /// The connection's bounded request queue is full; retry after an
    /// in-flight request completes.
    pub const SERVER_BUSY: i64 = -32005;
    /// The request was cancelled (`$/cancelRequest` or an expired
    /// `deadlineMs`) before or while running. Mirrors LSP's
    /// `RequestCancelled`.
    pub const REQUEST_CANCELLED: i64 = -32800;
}

/// A decoded request: id is echoed verbatim in the response (JSON-RPC
/// allows strings, numbers or null).
#[derive(Debug, Clone)]
pub struct Request {
    pub id: Value,
    pub method: String,
    pub params: Value,
}

/// Decode one request line. On error, returns the `(code, message)` the
/// caller should answer with (paired with `id: null` when the id was
/// unparseable).
pub fn parse_request(line: &str) -> Result<Request, (i64, String)> {
    let v = json::parse(line).map_err(|e| (code::PARSE_ERROR, format!("parse error: {e}")))?;
    let Value::Obj(mut fields) = v else {
        return Err((code::INVALID_REQUEST, "request must be an object".into()));
    };
    // Moved out, not cloned: `params` carries whole function bodies.
    let mut take = |key: &str| {
        let at = fields.iter().position(|(k, _)| k == key)?;
        Some(std::mem::replace(&mut fields[at].1, Value::Null))
    };
    let Some(Value::Str(method)) = take("method") else {
        return Err((
            code::INVALID_REQUEST,
            "missing or non-string `method`".to_string(),
        ));
    };
    let id = take("id").unwrap_or(Value::Null);
    let params = take("params").unwrap_or(Value::Obj(Vec::new()));
    Ok(Request { id, method, params })
}

/// A success response line.
pub fn ok(id: &Value, result: Value) -> String {
    ok_encoded(id, &result.to_line())
}

/// A success response line around an already encoded `result`.
pub fn ok_encoded(id: &Value, result: &str) -> String {
    let mut out = String::with_capacity(result.len() + 64);
    out.push_str(r#"{"jsonrpc":"2.0","id":"#);
    id.write(&mut out);
    out.push_str(r#","result":"#);
    out.push_str(result);
    out.push('}');
    out
}

/// An error response line; `data` carries structured detail (rendered
/// diagnostics for compile errors) when present.
pub fn err(id: &Value, code: i64, message: &str, data: Option<Value>) -> String {
    let mut fields = vec![
        ("code".into(), Value::from(code)),
        ("message".into(), Value::from(message)),
    ];
    if let Some(d) = data {
        fields.push(("data".into(), d));
    }
    obj([
        ("jsonrpc", Value::from("2.0")),
        ("id", id.clone()),
        ("error", Value::Obj(fields)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_minimal_request() {
        let r = parse_request(r#"{"jsonrpc":"2.0","id":3,"method":"check","params":{"uri":"a"}}"#)
            .unwrap();
        assert_eq!(r.method, "check");
        assert_eq!(r.id.as_i64(), Some(3));
        assert_eq!(r.params.get("uri").and_then(Value::as_str), Some("a"));
    }

    #[test]
    fn missing_method_is_invalid_request() {
        let (c, _) = parse_request(r#"{"id":1}"#).unwrap_err();
        assert_eq!(c, code::INVALID_REQUEST);
        let (c, _) = parse_request("[1,2]").unwrap_err();
        assert_eq!(c, code::INVALID_REQUEST);
    }

    #[test]
    fn garbage_is_parse_error() {
        let (c, msg) = parse_request("{not json").unwrap_err();
        assert_eq!(c, code::PARSE_ERROR);
        assert!(msg.contains("parse error"));
    }

    #[test]
    fn responses_have_stable_key_order() {
        assert_eq!(
            ok(&Value::from(1i64), Value::Null),
            r#"{"jsonrpc":"2.0","id":1,"result":null}"#
        );
        assert_eq!(
            err(&Value::Null, code::METHOD_NOT_FOUND, "no such method", None),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32601,"message":"no such method"}}"#
        );
    }
}
