//! Seeded edit-soak property, in-process.
//!
//! A warm server receives a stream of random single-function edits —
//! structural edits of helpers, whitespace-only re-renders and drop-in
//! edits of `main` (`parcoach_testutil::EditStream`). After every
//! accepted edit, its `check` response must be byte-identical to a cold
//! oracle: a from-scratch [`Document::open`] of the mirrored text
//! checked by a fresh one-shot session. This is
//! the same differential the `daemon_soak` binary runs against a live
//! process, kept here in miniature so `cargo test` guards the property
//! without spawning anything.

use parcoach_core::AnalysisSession;
use parcoach_server::json::{obj, Value};
use parcoach_server::{check_result_json, proto, Document, Server, ServerConfig};
use parcoach_testutil::{case_budget, EditStream, Scenario, ScenarioConfig};

const SEED: u64 = 7;
/// Accepted edits at the default budget (`PARCOACH_PROP_BUDGET` scales
/// it, as it does the other property suites).
const EDITS: u64 = 25;

fn server() -> Server {
    let mut srv = Server::new(ServerConfig::default());
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":2}}"#,
    );
    assert!(resp.contains(r#""result""#), "{resp}");
    srv
}

fn request(id: i64, method: &str, params: Value) -> String {
    obj([
        ("jsonrpc", Value::from("2.0")),
        ("id", Value::from(id)),
        ("method", Value::from(method)),
        ("params", params),
    ])
    .to_line()
}

#[test]
fn warm_checks_match_cold_oracle() {
    let cfg = ScenarioConfig {
        max_helpers: 4,
        max_main_stmts: 6,
        max_helper_stmts: 3,
    };
    let base = (SEED..)
        .map(|s| Scenario::generate_with(s, &cfg))
        .find(|sc| sc.helpers.len() >= 2)
        .unwrap();
    let text = base.render();
    let uri = "soak.mh";
    let edits = case_budget(EDITS) as usize;

    let mut warm = server();
    let open = request(
        1,
        "open",
        obj([
            ("uri", Value::from(uri)),
            ("text", Value::from(text.as_str())),
        ]),
    );
    assert!(warm.handle_line(&open).contains(r#""result""#));

    // The oracle mirror tracks the text the server holds; the oracle
    // itself always compiles cold.
    let mut mirror = Document::open(uri, &text).unwrap();

    let mut stream = EditStream::new(&base, &cfg, SEED);
    let mut id = 1i64;
    let (mut accepted, mut rejected, mut incremental) = (0usize, 0usize, 0usize);
    let mut main_edits = 0usize;

    while accepted < edits {
        assert!(rejected < 50 * edits + 100, "generator stalled");
        let proposed = stream.propose();
        let (func, new_text) = (&proposed.func, &proposed.text);

        id += 1;
        let edit = request(
            id,
            "edit",
            obj([
                ("uri", Value::from(uri)),
                ("func", Value::from(func.as_str())),
                ("text", Value::from(new_text.as_str())),
            ]),
        );
        let resp = warm.handle_line(&edit);
        if resp.contains(r#""error""#) {
            // The server rejected the edit; the mirror must agree.
            assert!(
                mirror.edit(func, new_text).is_err(),
                "server rejected an edit the oracle accepts: {func}"
            );
            rejected += 1;
            continue;
        }
        incremental += resp.contains(r#""incremental":true"#) as usize;
        mirror.edit(func, new_text).unwrap();
        stream.accept(&proposed);
        accepted += 1;
        main_edits += (func == "main") as usize;

        id += 1;
        let check = request(id, "check", obj([("uri", Value::from(uri))]));
        let got = warm.handle_line(&check);

        let fresh = Document::open(uri, mirror.text()).unwrap();
        let report = AnalysisSession::default().check_module(fresh.module());
        let rendered = report.render(fresh.source_map());
        let want = proto::ok(
            &Value::from(id),
            check_result_json(&report, rendered, fresh.source_map()),
        );
        assert_eq!(
            got, want,
            "warm/cold divergence after edit #{accepted} of `{func}`"
        );
    }

    // The soak must actually exercise the fast path, not fall back to
    // reopen every time.
    assert!(
        incremental * 2 >= accepted,
        "only {incremental}/{accepted} edits took the incremental path"
    );
    // ... and the edit classes the structural-helper-only generator
    // could not produce: edits of `main`, and whitespace-only re-renders
    // (the ones reconciliation greens).
    assert!(main_edits > 0, "no accepted edit touched `main`");
    let timings = warm.handle_line(&request(id + 1, "timings", obj([])));
    let cache = parcoach_server::json::parse(&timings)
        .ok()
        .and_then(|t| t.get("result")?.get("cache").cloned());
    let counter = |key: &str| cache.as_ref()?.get(key)?.as_i64();
    assert!(
        counter("greened") > Some(0),
        "no edit was greened: {timings}"
    );
    // ... and the memo must have been alive while it passed: findings
    // served per function, the context fixpoint reused across edits.
    assert!(counter("analysisHits") > Some(0), "{timings}");
    assert!(counter("contextHits") > Some(0), "{timings}");
}
