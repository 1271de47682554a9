//! Protocol golden tests: the wire contract, as bytes.
//!
//! These drive [`Server::handle_line`] directly — no process spawn, no
//! sockets — because the contract under test is *textual*: for a given
//! request history, a deterministic server must produce these exact
//! response lines. Malformed input maps to typed JSON-RPC errors, never
//! a panic or a dropped connection.

use parcoach_server::{json, Server, ServerConfig};

fn server() -> Server {
    Server::new(ServerConfig {
        jobs: Some(1),
        deterministic: true,
        seed: 42,
        ..ServerConfig::default()
    })
}

fn init(srv: &mut Server) {
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":1}}"#,
    );
    assert!(resp.contains(r#""result""#), "{resp}");
}

const DIVERGENT: &str = "fn main() { if (rank() == 0) { MPI_Barrier(); } }";

fn open(srv: &mut Server, text: &str) -> String {
    let params = json::obj([
        ("uri", json::Value::from("t.mh")),
        ("text", json::Value::from(text)),
    ]);
    srv.handle_line(&format!(
        r#"{{"jsonrpc":"2.0","id":1,"method":"open","params":{}}}"#,
        params.to_line()
    ))
}

#[test]
fn initialize_golden_response() {
    let mut srv = server();
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":7,"method":"initialize","params":{"protocolVersion":1}}"#,
    );
    assert_eq!(
        resp,
        format!(
            r#"{{"jsonrpc":"2.0","id":7,"result":{{"protocolVersion":1,"serverName":"parcoachd","serverVersion":"{}","capabilities":{{"incrementalEdits":true,"deterministic":true}}}}}}"#,
            env!("CARGO_PKG_VERSION")
        )
    );
}

#[test]
fn initialize_v2_golden_response() {
    let mut srv = server();
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":7,"method":"initialize","params":{"protocolVersion":2}}"#,
    );
    assert_eq!(
        resp,
        format!(
            r#"{{"jsonrpc":"2.0","id":7,"result":{{"protocolVersion":2,"serverName":"parcoachd","serverVersion":"{}","capabilities":{{"incrementalEdits":true,"deterministic":true,"positionEncoding":"utf-8","cancelRequest":true,"deadlineMs":true,"concurrentClients":true}}}}}}"#,
            env!("CARGO_PKG_VERSION")
        )
    );
}

#[test]
fn v2_diagnostics_carry_ranges_severity_and_related() {
    let mut srv = server();
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":2}}"#,
    );
    assert!(resp.contains(r#""result""#), "{resp}");
    let resp = open(&mut srv, DIVERGENT);
    assert!(resp.contains(r#""functions""#), "{resp}");
    let diag = srv
        .handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"diagnostics","params":{"uri":"t.mh"}}"#);
    // DIVERGENT is one line: `fn main() { if (rank() == 0) { MPI_Barrier(); } }`
    // The barrier call starts at 0-based character 31 on line 0.
    assert!(diag.contains(r#""severity":1"#), "{diag}");
    assert!(
        diag.contains(r#""range":{"start":{"line":0,"character":31}"#),
        "{diag}"
    );
    assert!(diag.contains(r#""relatedInformation":[{"range""#), "{diag}");
    // v1 byte-offset keys are gone from the v2 shape.
    assert!(!diag.contains(r#""lo":"#), "{diag}");

    // The same document over a sibling v1 connection keeps the frozen
    // v1 shape — negotiation is per connection, state is shared.
    let mut v1 = parcoach_server::Server::with_shared(srv.shared());
    let resp = v1.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":1}}"#,
    );
    assert!(resp.contains(r#""protocolVersion":1"#), "{resp}");
    let old = v1
        .handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"diagnostics","params":{"uri":"t.mh"}}"#);
    assert!(old.contains(r#""lo":"#), "{old}");
    assert!(!old.contains(r#""severity""#), "{old}");
}

#[test]
fn expired_deadline_is_request_cancelled() {
    let mut srv = server();
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":2}}"#,
    );
    assert!(resp.contains(r#""result""#), "{resp}");
    let _ = open(&mut srv, DIVERGENT);
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":2,"method":"check","params":{"uri":"t.mh","deadlineMs":0}}"#,
    );
    assert!(resp.contains(r#""code":-32800"#), "{resp}");
    // A later unbounded check on the same connection succeeds: the
    // deadline bounded only that request's token view.
    let resp =
        srv.handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"check","params":{"uri":"t.mh"}}"#);
    assert!(resp.contains(r#""clean":false"#), "{resp}");
}

#[test]
fn version_mismatch_is_rejected_with_32002() {
    let mut srv = server();
    for params in [
        r#"{"protocolVersion":99}"#,
        r#"{"protocolVersion":"1"}"#,
        r#"{}"#,
    ] {
        let resp = srv.handle_line(&format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"initialize","params":{params}}}"#
        ));
        assert!(resp.contains(r#""code":-32002"#), "{params} → {resp}");
        // A failed handshake does not initialize the server.
        let resp = srv.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"timings","params":{}}"#);
        assert!(resp.contains(r#""code":-32001"#), "{resp}");
    }
}

#[test]
fn malformed_input_maps_to_typed_errors() {
    let mut srv = server();
    init(&mut srv);
    // Not JSON at all → parse error, id null.
    let resp = srv.handle_line("{this is not json");
    assert!(
        resp.starts_with(r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32700"#),
        "{resp}"
    );
    // Valid JSON, wrong shape → invalid request.
    for bad in ["[1,2,3]", r#""check""#, "42", r#"{"id":1,"params":{}}"#] {
        let resp = srv.handle_line(bad);
        assert!(resp.contains(r#""code":-32600"#), "{bad} → {resp}");
    }
    // Unknown method → method not found.
    let resp = srv.handle_line(r#"{"jsonrpc":"2.0","id":9,"method":"frobnicate","params":{}}"#);
    assert!(resp.contains(r#""code":-32601"#), "{resp}");
    assert!(resp.contains("frobnicate"), "{resp}");
    // Known method, missing params → invalid params.
    let resp = srv.handle_line(r#"{"jsonrpc":"2.0","id":10,"method":"check","params":{}}"#);
    assert!(resp.contains(r#""code":-32602"#), "{resp}");
}

#[test]
fn requests_before_initialize_are_rejected() {
    let mut srv = server();
    for method in [
        "open",
        "edit",
        "check",
        "diagnostics",
        "timings",
        "shutdown",
    ] {
        let resp = srv.handle_line(&format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"{method}"}}"#
        ));
        assert!(resp.contains(r#""code":-32001"#), "{method} → {resp}");
    }
    // And the server did not shut down from the rejected `shutdown`.
    assert!(!srv.is_shut_down());
}

#[test]
fn open_check_diagnostics_flow() {
    let mut srv = server();
    init(&mut srv);
    let resp = open(&mut srv, DIVERGENT);
    assert_eq!(
        resp,
        r#"{"jsonrpc":"2.0","id":1,"result":{"functions":["main"]}}"#
    );
    let check =
        srv.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"check","params":{"uri":"t.mh"}}"#);
    assert!(check.contains(r#""clean":false"#), "{check}");
    assert!(check.contains(r#""code":"collective-mismatch""#), "{check}");
    assert!(check.contains(r#""rendered":""#), "{check}");
    // `diagnostics` is `check` minus the rendered text.
    let diag = srv
        .handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"diagnostics","params":{"uri":"t.mh"}}"#);
    assert!(diag.contains(r#""code":"collective-mismatch""#), "{diag}");
    assert!(!diag.contains(r#""rendered""#), "{diag}");
    // `timings` is now available and saw the cache at work.
    let t = srv.handle_line(r#"{"jsonrpc":"2.0","id":4,"method":"timings","params":{}}"#);
    assert!(t.contains(r#""available":true"#), "{t}");
    assert!(t.contains(r#""cache""#), "{t}");
}

#[test]
fn open_compile_error_is_32003_with_diagnostics() {
    let mut srv = server();
    init(&mut srv);
    let resp = open(&mut srv, "fn main( {");
    assert!(resp.contains(r#""code":-32003"#), "{resp}");
    assert!(resp.contains(r#""diagnostics""#), "{resp}");
    // The document is not resident after a failed open.
    let check =
        srv.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"check","params":{"uri":"t.mh"}}"#);
    assert!(check.contains(r#""code":-32004"#), "{check}");
}

/// Hostile text — a nesting bomb, or bytes outside ASCII — is a compile
/// error like any other: one response, and the server goes on answering.
#[test]
fn hostile_source_is_a_compile_error_and_the_server_lives() {
    let mut srv = server();
    init(&mut srv);
    let n = 100_000;
    let parens = format!(
        "fn main() {{ let x = {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let ifs = format!(
        "fn main() {{ {} {} }}",
        "if (true) {".repeat(20_000),
        "}".repeat(20_000)
    );
    for (text, needle) in [
        (parens.as_str(), "nesting too deep"),
        (ifs.as_str(), "nesting too deep"),
        ("fn main() { \u{e9} }", "unexpected character `\u{e9}`"),
    ] {
        let resp = open(&mut srv, text);
        assert!(resp.contains(r#""code":-32003"#), "{:.300}", resp);
        assert!(resp.contains(needle), "{:.300}", resp);
        assert_eq!(
            resp.matches("[parse-error]").count() + resp.matches("[lex-error]").count(),
            1
        );
    }

    // The next requests are answered: a good open, then a bomb as an
    // edit, which leaves the resident document as it was.
    let resp = open(&mut srv, DIVERGENT);
    assert!(resp.contains(r#""result""#), "{resp}");
    let params = json::obj([
        ("uri", json::Value::from("t.mh")),
        ("func", json::Value::from("main")),
        ("text", json::Value::from(parens.as_str())),
    ]);
    let resp = srv.handle_line(&format!(
        r#"{{"jsonrpc":"2.0","id":2,"method":"edit","params":{}}}"#,
        params.to_line()
    ));
    assert!(resp.contains(r#""code":-32003"#), "{:.300}", resp);
    let check =
        srv.handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"check","params":{"uri":"t.mh"}}"#);
    assert!(check.contains("collective-mismatch"), "{check}");
}

#[test]
fn edit_unknown_targets_are_32004() {
    let mut srv = server();
    init(&mut srv);
    let _ = open(&mut srv, DIVERGENT);
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":2,"method":"edit","params":{"uri":"nope.mh","func":"main","text":"fn main() {}"}}"#,
    );
    assert!(resp.contains(r#""code":-32004"#), "{resp}");
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":3,"method":"edit","params":{"uri":"t.mh","func":"ghost","text":"fn ghost() {}"}}"#,
    );
    assert!(resp.contains(r#""code":-32004"#), "{resp}");
    assert!(resp.contains("ghost"), "{resp}");
}

#[test]
fn warm_check_after_edit_matches_cold_server_bytes() {
    let mut warm = server();
    init(&mut warm);
    let src = "fn helper() {\n    MPI_Barrier();\n}\nfn main() {\n    helper();\n    if (rank() == 0) { MPI_Barrier(); }\n}\n";
    let _ = open(&mut warm, src);
    let _ =
        warm.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"check","params":{"uri":"t.mh"}}"#);
    // Edit helper incrementally, then re-check warm.
    let edit = warm.handle_line(
        r#"{"jsonrpc":"2.0","id":3,"method":"edit","params":{"uri":"t.mh","func":"helper","text":"fn helper() {\n    MPI_Barrier();\n    MPI_Barrier();\n}"}}"#,
    );
    assert!(edit.contains(r#""incremental":true"#), "{edit}");
    let warm_check =
        warm.handle_line(r#"{"jsonrpc":"2.0","id":4,"method":"check","params":{"uri":"t.mh"}}"#);

    // A cold server opening the edited text directly must answer with
    // byte-identical results.
    let edited = src.replace(
        "fn helper() {\n    MPI_Barrier();\n}",
        "fn helper() {\n    MPI_Barrier();\n    MPI_Barrier();\n}",
    );
    let mut cold = server();
    init(&mut cold);
    let _ = open(&mut cold, &edited);
    let cold_check =
        cold.handle_line(r#"{"jsonrpc":"2.0","id":4,"method":"check","params":{"uri":"t.mh"}}"#);
    assert_eq!(warm_check, cold_check);
}

#[test]
fn shutdown_acknowledges_and_flags() {
    let mut srv = server();
    init(&mut srv);
    let resp = srv.handle_line(r#"{"jsonrpc":"2.0","id":5,"method":"shutdown","params":{}}"#);
    assert_eq!(resp, r#"{"jsonrpc":"2.0","id":5,"result":null}"#);
    assert!(srv.is_shut_down());
}
