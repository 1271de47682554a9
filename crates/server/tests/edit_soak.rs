//! Seeded edit-soak property, in-process.
//!
//! Two warm servers (pool widths 1 and 4, both deterministic) receive
//! the same stream of random single-function edits — structural edits
//! of helpers, whitespace-only re-renders and drop-in edits of `main`
//! (`parcoach_testutil::EditStream`). After every
//! accepted edit, their `check` responses must be byte-identical to
//! each other AND to a cold oracle: a from-scratch [`Document::open`]
//! of the mirrored text checked by a fresh one-shot session. This is
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

fn server(jobs: usize) -> Server {
    let mut srv = Server::new(ServerConfig {
        jobs: Some(jobs),
        deterministic: true,
        seed: 42,
        ..ServerConfig::default()
    });
    let resp = srv.handle_line(
        r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{"protocolVersion":1}}"#,
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
fn warm_checks_match_cold_oracle_at_jobs_1_and_4() {
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

    let mut narrow = server(1);
    let mut wide = server(4);
    let open = request(
        1,
        "open",
        obj([
            ("uri", Value::from(uri)),
            ("text", Value::from(text.as_str())),
        ]),
    );
    assert_eq!(narrow.handle_line(&open), wide.handle_line(&open));

    // The oracle mirror tracks the text the servers hold; the oracle
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
        let resp_n = narrow.handle_line(&edit);
        let resp_w = wide.handle_line(&edit);
        assert_eq!(resp_n, resp_w, "edit #{accepted} of `{func}`");
        if resp_n.contains(r#""error""#) {
            // Both servers rejected; the mirror must agree.
            assert!(
                mirror.edit(func, new_text).is_err(),
                "servers rejected an edit the oracle accepts: {func}"
            );
            rejected += 1;
            continue;
        }
        incremental += resp_n.contains(r#""incremental":true"#) as usize;
        mirror.edit(func, new_text).unwrap();
        stream.accept(&proposed);
        accepted += 1;
        main_edits += (func == "main") as usize;

        id += 1;
        let check = request(id, "check", obj([("uri", Value::from(uri))]));
        let warm_n = narrow.handle_line(&check);
        let warm_w = wide.handle_line(&check);
        assert_eq!(
            warm_n, warm_w,
            "pool width changed bytes after edit #{accepted}"
        );

        let fresh = Document::open(uri, mirror.text()).unwrap();
        let mut cold = AnalysisSession::builder()
            .jobs(1)
            .deterministic(true)
            .seed(42)
            .build();
        let report = cold.check_module(fresh.module());
        let rendered = report.render(fresh.source_map());
        let want = proto::ok(&Value::from(id), check_result_json(&report, rendered));
        assert_eq!(
            warm_n, want,
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
    let timings = narrow.handle_line(&request(id + 1, "timings", obj([])));
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
