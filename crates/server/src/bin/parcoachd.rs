//! `parcoachd` — the long-running analysis daemon.
//!
//! ```text
//! parcoachd [--stdio] [--socket PATH] [--queue N]
//! ```
//!
//! Speaks line-delimited JSON-RPC, protocol revision 2 only (see
//! `parcoach_server::proto`). `--stdio` (the default) serves one session
//! over stdin/stdout — the shape editors and the soak harness use.
//! `--socket PATH` binds a unix listener and serves connections
//! **concurrently**, each on a cached worker pair over the shared
//! resident state: different documents analyze in parallel, and a
//! client disconnecting mid-request costs only its own connection —
//! never the daemon. `shutdown` from any client drains in-flight
//! requests and exits.
//!
//! Exit codes: 0 on `shutdown`/EOF, 3 on usage errors.

use parcoach_server::{drive_connection, Server, ServerConfig, ServerShared};
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
parcoachd — resident MPI/OpenMP collective-analysis service

USAGE:
    parcoachd [--stdio] [--socket PATH] [--queue N]

    --stdio           serve stdin/stdout (default)
    --socket PATH     bind a unix socket and serve connections concurrently
    --queue N         per-connection request-queue bound (default 64;
                      overflow answers -32005 ServerBusy)
";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("parcoachd: {msg}\n{USAGE}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut socket: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{}: missing value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--stdio" => socket = None,
            "--socket" => socket = Some(take(&mut i)?),
            "--queue" => {
                let n: usize = take(&mut i)?.parse().map_err(|e| format!("--queue: {e}"))?;
                if n == 0 {
                    return Err("--queue: value must be at least 1".into());
                }
                config.queue_capacity = n;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let shared = ServerShared::new(config);
    match socket {
        None => {
            let stdin = std::io::stdin();
            let server = Server::with_shared(shared);
            drive_connection(server, stdin.lock(), std::io::stdout())
                .map_err(|e| format!("stdio: {e}"))
        }
        Some(path) => serve_socket(shared, &path),
    }
}

/// Accept connections concurrently; resident documents and their warm
/// caches survive across connections, so a reconnecting client keeps
/// its latency profile. A per-connection I/O error (client vanished
/// mid-request) is logged and costs that connection only — the accept
/// loop, and every other client, keep going. `shutdown` drains:
/// accepting stops, in-flight connections finish.
fn serve_socket(shared: Arc<ServerShared>, path: &str) -> Result<(), String> {
    let _ = std::fs::remove_file(path); // stale socket from a dead daemon
    let listener =
        std::os::unix::net::UnixListener::bind(path).map_err(|e| format!("bind {path}: {e}"))?;
    // Non-blocking accept so a `shutdown` from any connection is
    // observed promptly, without needing one more client to connect.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("socket: {e}"))?;
    eprintln!("parcoachd: listening on {path}");
    while !shared.is_draining() {
        match listener.accept() {
            Ok((conn, _addr)) => {
                if conn.set_nonblocking(false).is_err() {
                    continue;
                }
                let reader = match conn.try_clone() {
                    Ok(c) => BufReader::new(c),
                    Err(e) => {
                        eprintln!("parcoachd: socket clone failed: {e}");
                        continue;
                    }
                };
                let open = shared.connection();
                let server = Server::with_shared(Arc::clone(&shared));
                parcoach_sync::thread_cache().spawn(move || {
                    // Uncounted when this task ends, an unwind included.
                    let _open = open;
                    if let Err(e) = drive_connection(server, reader, conn) {
                        // The bugfix this daemon carries: a client gone
                        // mid-request is that client's problem.
                        eprintln!("parcoachd: connection error (client dropped?): {e}");
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => eprintln!("parcoachd: accept: {e}"),
        }
    }
    // Graceful drain: connections already accepted run to completion
    // (bounded, so a wedged client cannot hold the process forever).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while shared.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
