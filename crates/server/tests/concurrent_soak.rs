//! Concurrent edit-soak property, in-process.
//!
//! N client views over ONE shared server state interleave
//! open/edit/check on their own documents from N OS threads. The
//! responses each client records must be byte-identical to a *serial
//! replay* of the same per-client request scripts against a fresh
//! shared server — i.e. contention changes scheduling, never bytes.
//! Checked at pool widths 1 and 4, and across widths (the deterministic
//! pipeline promises width-independence too).

use parcoach_server::json::{obj, Value};
use parcoach_server::{Document, Server, ServerConfig, ServerShared};
use parcoach_testutil::{EditStream, Scenario, ScenarioConfig};
use std::sync::Arc;

const CLIENTS: usize = 4;
const ATTEMPTS: usize = 8;

fn request(id: i64, method: &str, params: Value) -> String {
    obj([
        ("jsonrpc", Value::from("2.0")),
        ("id", Value::from(id)),
        ("method", Value::from(method)),
        ("params", params),
    ])
    .to_line()
}

/// The deterministic request script of client `k`: open its own
/// document, then interleave edits from the shared soak generator with
/// checks. Rejected edits stay in the script — their error responses
/// must replay identically too (a mirror document tells the generator
/// which ones went through).
fn client_script(k: usize) -> Vec<String> {
    let cfg = ScenarioConfig {
        max_helpers: 4,
        max_main_stmts: 6,
        max_helper_stmts: 3,
    };
    let seed = 100 + k as u64 * 17;
    let base = (seed..)
        .map(|s| Scenario::generate_with(s, &cfg))
        .find(|sc| !sc.helpers.is_empty())
        .unwrap();
    let text = base.render();
    let uri = format!("soak_{k}.mh");
    let mut mirror = Document::open(&uri, &text).unwrap();
    let mut stream = EditStream::new(&base, &cfg, seed);
    let mut lines = vec![
        request(
            0,
            "initialize",
            obj([("protocolVersion", Value::from(2i64))]),
        ),
        request(
            1,
            "open",
            obj([
                ("uri", Value::from(uri.as_str())),
                ("text", Value::from(text.as_str())),
            ]),
        ),
        request(2, "check", obj([("uri", Value::from(uri.as_str()))])),
    ];
    let mut id = 2i64;
    for _ in 0..ATTEMPTS {
        let edit = stream.propose();
        if mirror.edit(&edit.func, &edit.text).is_ok() {
            stream.accept(&edit);
        }
        id += 1;
        lines.push(request(
            id,
            "edit",
            obj([
                ("uri", Value::from(uri.as_str())),
                ("func", Value::from(edit.func.as_str())),
                ("text", Value::from(edit.text.as_str())),
            ]),
        ));
        id += 1;
        lines.push(request(
            id,
            "check",
            obj([("uri", Value::from(uri.as_str()))]),
        ));
    }
    lines
}

fn shared(jobs: usize) -> Arc<ServerShared> {
    ServerShared::new(ServerConfig {
        jobs: Some(jobs),
        deterministic: true,
        seed: 42,
        ..ServerConfig::default()
    })
}

fn run_concurrent(jobs: usize, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let state = shared(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let state = Arc::clone(&state);
                scope.spawn(move || {
                    let mut srv = Server::with_shared(state);
                    script
                        .iter()
                        .map(|l| srv.handle_line(l))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn run_serial(jobs: usize, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let state = shared(jobs);
    scripts
        .iter()
        .map(|script| {
            let mut srv = Server::with_shared(Arc::clone(&state));
            script.iter().map(|l| srv.handle_line(l)).collect()
        })
        .collect()
}

#[test]
fn concurrent_clients_match_serial_replay_at_jobs_1_and_4() {
    let scripts: Vec<Vec<String>> = (0..CLIENTS).map(client_script).collect();
    // The scripts must exercise real work: every client gets at least
    // one accepted edit + check round.
    assert!(scripts.iter().all(|s| s.len() > 3));
    let mut per_jobs = Vec::new();
    for jobs in [1usize, 4] {
        let concurrent = run_concurrent(jobs, &scripts);
        let serial = run_serial(jobs, &scripts);
        assert_eq!(
            concurrent, serial,
            "contention changed bytes at jobs={jobs}"
        );
        // Sanity: the transcripts contain successful checks, not a wall
        // of errors that would vacuously match.
        let checks = concurrent
            .iter()
            .flatten()
            .filter(|r| r.contains(r#""clean":"#))
            .count();
        assert!(checks >= CLIENTS, "only {checks} checks ran");
        per_jobs.push(concurrent);
    }
    assert_eq!(
        per_jobs[0], per_jobs[1],
        "pool width changed bytes under contention"
    );
}
