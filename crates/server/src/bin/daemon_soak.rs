//! `daemon_soak` — the edit-soak differential client for `parcoachd`.
//!
//! Spawns a real daemon process, opens a seeded random program, then
//! hammers it with single-function edits (structural, whitespace-only
//! and `main` edits from `parcoach_testutil::EditStream`). After every
//! accepted edit it
//! issues a warm `check` and compares the response — byte for byte —
//! against a cold oracle computed in-process: a from-scratch compile of
//! the mirrored text through a fresh one-shot session. Any divergence
//! is a correctness bug in the incremental layer (a stored position,
//! red-green invalidation, a module table kept too long) and fails the
//! run.
//!
//! `--clients N` (N > 1) switches to the concurrent mode: the daemon is
//! driven over a unix socket by N client threads, each soaking its own
//! document with its own mirror and cold oracle. Byte-identity under
//! contention IS the serial-replay property — every response is
//! compared against an oracle computed with no other client in sight.
//!
//! `--cancel-storm R` appends R rounds per client that race
//! cancellation against real work: checks under `deadlineMs:0` must
//! answer `-32800`, checks raced with `$/cancelRequest` must answer
//! either the byte-exact oracle result or `-32800`, and a final quiet
//! check must match the oracle exactly — cancellation may drop work,
//! never corrupt it.
//!
//! ```text
//! daemon_soak [--server PATH] [--edits N] [--duration SECS] [--seed S]
//!             [--clients N] [--cancel-storm R] [--out FILE]
//! ```
//!
//! Writes a latency histogram (warm-check microseconds, client-side
//! wall clock including the protocol round-trip) to `--out` as JSON —
//! the artifact the `daemon-soak` CI job uploads.
//!
//! Exit codes: 0 = clean, 1 = divergent response or a memo table that
//! served nothing (`timings` counters), 3 = usage/spawn error.

use parcoach_core::AnalysisSession;
use parcoach_server::json::{obj, parse, Value};
use parcoach_server::{check_result_json, Document};
use parcoach_testutil::{EditStream, Scenario, ScenarioConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "\
daemon_soak — differential edit-soak client for parcoachd

USAGE:
    daemon_soak [--server PATH] [--edits N] [--duration SECS] [--seed S]
                [--clients N] [--cancel-storm R] [--out FILE]

    --server PATH     parcoachd binary (default: next to this executable)
    --edits N         stop after N accepted edits per client (default 200)
    --duration SECS   stop after SECS seconds, whichever comes first
    --seed S          generator seed (default 1)
    --clients N       concurrent client threads over a unix socket
                      (default 1 = single client over stdio)
    --cancel-storm R  R cancellation rounds per client after the soak
    --out FILE        latency histogram JSON (default soak_histogram.json)
";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("daemon_soak: {msg}\n{USAGE}");
            ExitCode::from(3)
        }
    }
}

#[derive(Clone)]
struct Opts {
    server: Option<String>,
    edits: usize,
    duration: Option<Duration>,
    seed: u64,
    clients: usize,
    cancel_storm: usize,
    out: String,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        server: None,
        edits: 200,
        duration: None,
        seed: 1,
        clients: 1,
        cancel_storm: 0,
        out: "soak_histogram.json".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{}: missing value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--server" => o.server = Some(take(&mut i)?),
            "--edits" => o.edits = num(&take(&mut i)?, "--edits")?,
            "--duration" => {
                o.duration = Some(Duration::from_secs(
                    num(&take(&mut i)?, "--duration")? as u64
                ))
            }
            "--seed" => o.seed = num(&take(&mut i)?, "--seed")? as u64,
            "--clients" => o.clients = num(&take(&mut i)?, "--clients")?.max(1),
            "--cancel-storm" => o.cancel_storm = num(&take(&mut i)?, "--cancel-storm")?,
            "--out" => o.out = take(&mut i)?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

fn num(v: &str, flag: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

/// A line-delimited JSON-RPC connection — child stdio or unix socket.
struct Conn {
    w: Box<dyn Write + Send>,
    r: Box<dyn BufRead + Send>,
    next_id: i64,
}

impl Conn {
    fn send_raw(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.w, "{line}").map_err(|e| format!("write: {e}"))?;
        self.w.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Write one request; the caller pairs it with [`Conn::recv`].
    fn send(&mut self, method: &str, params: Value) -> Result<i64, String> {
        self.next_id += 1;
        let line = obj([
            ("jsonrpc", Value::from("2.0")),
            ("id", Value::from(self.next_id)),
            ("method", Value::from(method)),
            ("params", params),
        ])
        .to_line();
        self.send_raw(&line)?;
        Ok(self.next_id)
    }

    /// A notification: no id, no response.
    fn notify(&mut self, method: &str, params: Value) -> Result<(), String> {
        let line = obj([
            ("jsonrpc", Value::from("2.0")),
            ("method", Value::from(method)),
            ("params", params),
        ])
        .to_line();
        self.send_raw(&line)
    }

    fn recv(&mut self) -> Result<Value, String> {
        let mut resp = String::new();
        self.r
            .read_line(&mut resp)
            .map_err(|e| format!("read: {e}"))?;
        if resp.is_empty() {
            return Err("daemon closed the connection".into());
        }
        parse(resp.trim_end()).map_err(|e| format!("bad response JSON: {e}"))
    }

    /// One request, one response.
    fn call(&mut self, method: &str, params: Value) -> Result<Value, String> {
        self.send(method, params)?;
        self.recv()
    }
}

/// The daemon process and how clients reach it.
struct Daemon {
    child: Child,
    socket: Option<String>,
    /// Taken by the single stdio client.
    stdio: Option<Conn>,
}

impl Daemon {
    fn spawn(server: &str, opts: &Opts) -> Result<Daemon, String> {
        if opts.clients == 1 {
            let mut child = Command::new(server)
                .arg("--stdio")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {server}: {e}"))?;
            let w = Box::new(child.stdin.take().unwrap());
            let r = Box::new(BufReader::new(child.stdout.take().unwrap()));
            Ok(Daemon {
                child,
                socket: None,
                stdio: Some(Conn { w, r, next_id: 0 }),
            })
        } else {
            let path = std::env::temp_dir()
                .join(format!("parcoachd_soak_{}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned();
            let _ = std::fs::remove_file(&path);
            let child = Command::new(server)
                .args(["--socket", &path])
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {server}: {e}"))?;
            let deadline = Instant::now() + Duration::from_secs(10);
            while !std::path::Path::new(&path).exists() {
                if Instant::now() >= deadline {
                    return Err(format!("daemon never bound {path}"));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(Daemon {
                child,
                socket: Some(path),
                stdio: None,
            })
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        connect(self.socket.as_ref().expect("socket mode"))
    }

    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = match self.stdio.take() {
            Some(c) => c,
            None => {
                let mut c = self.connect()?;
                expect_ok(&c.call("initialize", obj([("protocolVersion", Value::from(2i64))]))?)?;
                c
            }
        };
        let _ = conn.call("shutdown", Value::Obj(Vec::new()));
        let _ = self.child.wait();
        Ok(())
    }
}

fn connect(path: &str) -> Result<Conn, String> {
    let s = UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))?;
    let r = Box::new(BufReader::new(
        s.try_clone().map_err(|e| format!("socket: {e}"))?,
    ));
    Ok(Conn {
        w: Box::new(s),
        r,
        next_id: 0,
    })
}

/// What one client measured.
#[derive(Default)]
struct ClientStats {
    latencies_us: Vec<u64>,
    accepted: usize,
    rejected: usize,
    incremental: usize,
    divergent: usize,
    cancelled: usize,
    /// Whether the daemon served this client's checks from its memo
    /// table at all (a soak over a dead memo would pass vacuously).
    memo_live: bool,
}

/// Generate a scenario with at least two helper functions (the editable
/// surface), scanning seeds upward from `seed`.
fn base_scenario(seed: u64, cfg: &ScenarioConfig) -> Scenario {
    (seed..)
        .map(|s| Scenario::generate_with(s, cfg))
        .find(|sc| sc.helpers.len() >= 2)
        .unwrap()
}

/// The per-client differential soak: edit, warm-check over the wire,
/// cold oracle in-process, compare bytes. `seed` differentiates clients
/// so concurrent documents differ.
fn soak_client(conn: &mut Conn, uri: &str, seed: u64, opts: &Opts) -> Result<ClientStats, String> {
    let cfg = ScenarioConfig {
        max_helpers: 4,
        max_main_stmts: 6,
        max_helper_stmts: 3,
    };
    let base = base_scenario(seed, &cfg);
    let text = base.render();

    expect_ok(&conn.call("initialize", obj([("protocolVersion", Value::from(2i64))]))?)?;
    expect_ok(&conn.call(
        "open",
        obj([
            ("uri", Value::from(uri)),
            ("text", Value::from(text.as_str())),
        ]),
    )?)?;

    // The client-side mirror: same Document type the daemon uses, so
    // splices and fallbacks stay in lockstep (the oracle compiles cold
    // every time).
    let mut mirror = Document::open(uri, &text).map_err(|e| format!("mirror open: {e:?}"))?;
    let mut stream = EditStream::new(&base, &cfg, seed);
    let started = Instant::now();
    let mut st = ClientStats::default();

    while st.accepted < opts.edits {
        if let Some(d) = opts.duration {
            if started.elapsed() >= d {
                break;
            }
        }
        if st.rejected > 50 * opts.edits + 100 {
            return Err("generator stalled: too many rejected edits".into());
        }
        let proposed = stream.propose();
        let (func, new_text) = (&proposed.func, &proposed.text);

        let resp = conn.call(
            "edit",
            obj([
                ("uri", Value::from(uri)),
                ("func", Value::from(func.as_str())),
                ("text", Value::from(new_text.as_str())),
            ]),
        )?;
        if resp.get("error").is_some() {
            // The daemon rejected the edit (donor body illegal in this
            // program); the mirror must agree and stay unchanged.
            if mirror.edit(func, new_text).is_ok() {
                eprintln!("daemon rejected an edit the oracle accepts: {func}");
                st.divergent += 1;
            }
            st.rejected += 1;
            continue;
        }
        let inc = resp
            .get("result")
            .and_then(|r| r.get("incremental"))
            .and_then(Value::as_bool)
            .unwrap_or(false);
        st.incremental += inc as usize;
        mirror
            .edit(func, new_text)
            .map_err(|e| format!("oracle rejected an edit the daemon accepted: {e:?}"))?;
        stream.accept(&proposed);
        st.accepted += 1;

        // Warm check over the wire, cold oracle in-process.
        let t0 = Instant::now();
        let resp = conn.call("check", obj([("uri", Value::from(uri))]))?;
        st.latencies_us.push(t0.elapsed().as_micros() as u64);
        let got = resp
            .get("result")
            .ok_or("check returned an error")?
            .to_line();
        if got != oracle_check(uri, mirror.text())? {
            st.divergent += 1;
            eprintln!(
                "DIVERGENCE after edit #{} of `{func}` in {uri}:\n  warm: {got}",
                st.accepted
            );
        }
    }

    storm_client(conn, uri, &mut mirror, &mut stream, &mut st, opts)?;

    let timings = conn.call("timings", Value::Obj(Vec::new()))?;
    let cache = timings.get("result").and_then(|r| r.get("cache"));
    let counter = |key: &str| cache.and_then(|c| c.get(key)).and_then(Value::as_i64);
    st.memo_live = counter("analysisHits") > Some(0) && counter("contextHits") > Some(0);
    if !st.memo_live {
        eprintln!("MEMO DEAD in {uri}: {}", timings.to_line());
    }
    Ok(st)
}

/// The cancellation storm: cancellation must be able to drop work but
/// never corrupt it. Each round alternates an expired-deadline check
/// (must cancel) with a `$/cancelRequest` race (either outcome), and
/// closes with a quiet check that must match the oracle exactly.
fn storm_client(
    conn: &mut Conn,
    uri: &str,
    mirror: &mut Document,
    stream: &mut EditStream,
    st: &mut ClientStats,
    opts: &Opts,
) -> Result<(), String> {
    let mut round = 0usize;
    while round < opts.cancel_storm {
        let proposed = stream.propose();
        let (func, new_text) = (&proposed.func, &proposed.text);
        let resp = conn.call(
            "edit",
            obj([
                ("uri", Value::from(uri)),
                ("func", Value::from(func.as_str())),
                ("text", Value::from(new_text.as_str())),
            ]),
        )?;
        if resp.get("error").is_some() {
            continue; // illegal donor; try another
        }
        mirror
            .edit(func, new_text)
            .map_err(|e| format!("storm: oracle rejected accepted edit: {e:?}"))?;
        stream.accept(&proposed);
        round += 1;

        if round % 2 == 1 {
            // Cache is cold after the edit, so an already-expired budget
            // must cancel at the first phase boundary.
            let resp = conn.call(
                "check",
                obj([("uri", Value::from(uri)), ("deadlineMs", Value::from(0i64))]),
            )?;
            let code = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_i64);
            if code != Some(-32800) {
                st.divergent += 1;
                eprintln!(
                    "storm: deadline 0 answered {} instead of -32800",
                    resp.to_line()
                );
            } else {
                st.cancelled += 1;
            }
        } else {
            // Race a cancel notification against the check: either the
            // oracle bytes or a clean cancellation — nothing else.
            let id = conn.send("check", obj([("uri", Value::from(uri))]))?;
            conn.notify("$/cancelRequest", obj([("id", Value::from(id))]))?;
            let resp = conn.recv()?;
            match resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_i64)
            {
                Some(-32800) => st.cancelled += 1,
                Some(c) => {
                    st.divergent += 1;
                    eprintln!("storm: cancel race answered error {c}");
                }
                None => {
                    let got = resp.get("result").ok_or("no result")?.to_line();
                    if got != oracle_check(uri, mirror.text())? {
                        st.divergent += 1;
                        eprintln!("storm: cancel race returned divergent bytes");
                    }
                }
            }
        }

        // The quiet check after the dust settles must be exact.
        let resp = conn.call("check", obj([("uri", Value::from(uri))]))?;
        let got = resp
            .get("result")
            .ok_or("storm: final check errored")?
            .to_line();
        if got != oracle_check(uri, mirror.text())? {
            st.divergent += 1;
            eprintln!("storm: post-cancellation check diverged in {uri}");
        }
    }
    Ok(())
}

/// The expected `check` result bytes for `text`, computed cold.
fn oracle_check(uri: &str, text: &str) -> Result<String, String> {
    let fresh = Document::open(uri, text).map_err(|e| format!("oracle recompile: {e:?}"))?;
    let report = AnalysisSession::default().check_module(fresh.module());
    let rendered = report.render(fresh.source_map());
    Ok(check_result_json(&report, rendered, fresh.source_map()).to_line())
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args)?;
    let server = match &opts.server {
        Some(p) => p.clone(),
        None => {
            let mut p = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            p.set_file_name("parcoachd");
            p.to_string_lossy().into_owned()
        }
    };

    let mut daemon = Daemon::spawn(&server, &opts)?;
    let stats: Vec<ClientStats> = if opts.clients == 1 {
        let mut conn = daemon.stdio.take().expect("stdio conn");
        let st = soak_client(&mut conn, "soak.mh", opts.seed, &opts)?;
        daemon.stdio = Some(conn);
        vec![st]
    } else {
        let path = daemon.socket.clone().expect("socket mode");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.clients)
                .map(|k| {
                    let path = &path;
                    let opts = &opts;
                    scope.spawn(move || {
                        let mut conn = connect(path)?;
                        let uri = format!("soak_{k}.mh");
                        soak_client(&mut conn, &uri, opts.seed + 101 * k as u64, opts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?
    };
    daemon.shutdown()?;

    let mut latencies_us: Vec<u64> = stats.iter().flat_map(|s| s.latencies_us.clone()).collect();
    let (accepted, rejected, incremental, divergent, cancelled) =
        stats.iter().fold((0, 0, 0, 0, 0), |(a, r, i, d, c), s| {
            (
                a + s.accepted,
                r + s.rejected,
                i + s.incremental,
                d + s.divergent,
                c + s.cancelled,
            )
        });
    latencies_us.sort_unstable();
    let histogram = histogram_json(
        &latencies_us,
        opts.clients,
        accepted,
        rejected,
        incremental,
        divergent,
        cancelled,
    );
    std::fs::write(&opts.out, histogram.to_line())
        .map_err(|e| format!("write {}: {e}", opts.out))?;
    println!(
        "soak: {} clients, {accepted} edits ({incremental} incremental, {rejected} rejected), \
         {divergent} divergent, {cancelled} cancelled, p50 {}us p99 {}us — wrote {}",
        opts.clients,
        pct(&latencies_us, 50),
        pct(&latencies_us, 99),
        opts.out
    );
    Ok(divergent == 0 && accepted > 0 && stats.iter().all(|s| s.memo_live))
}

fn expect_ok(resp: &Value) -> Result<(), String> {
    match resp.get("error") {
        None => Ok(()),
        Some(e) => Err(format!("request failed: {}", e.to_line())),
    }
}

/// Percentile over sorted samples (nearest-rank).
fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

fn histogram_json(
    sorted_us: &[u64],
    clients: usize,
    accepted: usize,
    rejected: usize,
    incremental: usize,
    divergent: usize,
    cancelled: usize,
) -> Value {
    // Power-of-two latency buckets: `le_us` upper bounds with counts.
    let mut buckets = Vec::new();
    let mut bound = 64u64;
    let mut idx = 0usize;
    while idx < sorted_us.len() {
        let upto = sorted_us.partition_point(|&v| v <= bound);
        if upto > idx {
            buckets.push((
                format!("le_{bound}us").into(),
                Value::from((upto - idx) as u64),
            ));
        }
        idx = upto;
        if bound > 1 << 40 {
            buckets.push(("le_inf".into(), Value::from((sorted_us.len() - idx) as u64)));
            break;
        }
        bound *= 2;
    }
    obj([
        ("clients", Value::from(clients)),
        ("edits_accepted", Value::from(accepted)),
        ("edits_rejected", Value::from(rejected)),
        ("edits_incremental", Value::from(incremental)),
        ("divergent", Value::from(divergent)),
        ("cancelled", Value::from(cancelled)),
        ("samples", Value::from(sorted_us.len())),
        ("p50_us", Value::from(pct(sorted_us, 50))),
        ("p90_us", Value::from(pct(sorted_us, 90))),
        ("p99_us", Value::from(pct(sorted_us, 99))),
        (
            "max_us",
            Value::from(sorted_us.last().copied().unwrap_or(0)),
        ),
        ("buckets", Value::Obj(buckets)),
    ])
}
