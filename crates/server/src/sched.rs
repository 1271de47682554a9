//! Shared server state and the per-connection scheduler.
//!
//! Two halves:
//!
//! * [`ServerShared`] — the state every connection's [`Server`] view
//!   dispatches against: a read-write map of resident documents, each
//!   behind its own [`DocEntry`]. The *snapshot scheme* is epoch-based:
//!   every mutation (`open`, `edit`) bumps the entry's epoch, and a
//!   `check` whose epoch matches the cached one is served straight from
//!   the cache under the entry lock — concurrent readers of an unchanged
//!   document never re-run the analysis. Different documents proceed in
//!   parallel; same-document requests serialize on the entry lock, which
//!   is what byte-deterministic transcripts per document require.
//! * [`drive_connection`] — the per-connection request scheduler: the
//!   calling thread reads lines, decodes each once and enqueues the
//!   decoded request on a *bounded* queue (overflow answers
//!   [`code::SERVER_BUSY`] immediately), a cached worker thread drains
//!   the queue in order, and `$/cancelRequest` notifications bypass the
//!   queue to flip the [`CancelToken`] of the matching in-flight or
//!   queued request. EOF, an acknowledged `shutdown` and write errors
//!   (client gone) all end the connection gracefully — never the
//!   process.

use crate::document::Document;
use crate::json::Value;
use crate::proto::{self, code, Request};
use crate::server::{Server, ServerConfig};
use parcoach_core::{AnalysisSession, CancelToken, StaticReport};
use parcoach_sync::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A `check` result memoized at the epoch it was computed for.
pub(crate) struct CheckCache {
    pub(crate) epoch: u64,
    pub(crate) report: StaticReport,
    pub(crate) rendered: String,
    /// The encoded `result` member of the response, per verb, each
    /// filled by the first request that wants it: a repeated `check` of
    /// a quiet document is then the envelope, the id and one copy of
    /// these bytes.
    pub(crate) encoded: [Option<String>; 2],
}

/// One resident document plus everything derived from it. The memo
/// table lives *in* the document (see [`crate::document`]), so switching
/// documents never poisons a cache — there is no "active" document.
pub struct DocEntry {
    pub(crate) state: Mutex<DocState>,
}

pub(crate) struct DocState {
    pub(crate) doc: Document,
    pub(crate) session: AnalysisSession,
    /// Bumped by every successful `open`/`edit`; the snapshot counter
    /// [`CheckCache`] is keyed by.
    pub(crate) epoch: u64,
    pub(crate) cache: Option<CheckCache>,
}

impl DocEntry {
    fn new(doc: Document) -> DocEntry {
        DocEntry {
            state: Mutex::new(DocState {
                doc,
                session: AnalysisSession::default(),
                epoch: 0,
                cache: None,
            }),
        }
    }
}

/// State shared by every connection of one daemon process.
pub struct ServerShared {
    config: ServerConfig,
    docs: RwLock<HashMap<String, Arc<DocEntry>>>,
    draining: AtomicBool,
    active_connections: AtomicUsize,
}

impl ServerShared {
    pub fn new(config: ServerConfig) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            config,
            docs: RwLock::new(HashMap::new()),
            draining: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        })
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Look up a resident document (read lock only).
    pub(crate) fn doc(&self, uri: &str) -> Option<Arc<DocEntry>> {
        self.docs.read().get(uri).map(Arc::clone)
    }

    /// Install (or replace) a document; a re-open starts a fresh session
    /// and epoch, exactly like a cold daemon would.
    pub(crate) fn insert_doc(&self, uri: &str, doc: Document) {
        let entry = Arc::new(DocEntry::new(doc));
        self.docs.write().insert(uri.to_string(), entry);
    }

    /// Enter drain mode: accept loops stop taking connections; in-flight
    /// requests run to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Count one open connection for graceful drain, until the guard
    /// drops — also when the connection's thread unwinds.
    pub fn connection(self: &Arc<Self>) -> ConnectionGuard {
        self.active_connections.fetch_add(1, Ordering::Relaxed);
        ConnectionGuard(Arc::clone(self))
    }

    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::Relaxed)
    }
}

/// One open connection, counted by [`ServerShared::active_connections`]
/// while it lives.
pub struct ConnectionGuard(Arc<ServerShared>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One queued request: the line as decoded once by the reader (or the
/// error it decoded to) and the cancellation token minted for it.
struct Job {
    req: Result<Request, (i64, String)>,
    token: CancelToken,
}

impl Job {
    /// The id a reply echoes; null when the line did not decode.
    fn id(&self) -> &Value {
        match &self.req {
            Ok(req) => &req.id,
            Err(_) => &Value::Null,
        }
    }
}

/// What the worker has done so far: requests answered, and whether it
/// has stopped answering (shutdown acknowledged, client gone, or queue
/// closed and drained).
#[derive(Default)]
struct Progress {
    answered: u64,
    stopped: bool,
}

/// Marks the worker stopped on every way out of it, an unwind included:
/// the reader waits for `stopped` before it returns.
struct StopOnExit(Arc<(Mutex<Progress>, Condvar)>);

impl Drop for StopOnExit {
    fn drop(&mut self) {
        let (state, cv) = &*self.0;
        state.lock().stopped = true;
        cv.notify_all();
    }
}

/// Bounded FIFO between the reader and the worker.
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Arc<Queue> {
        Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        })
    }

    /// Enqueue, or return the job back if the queue is full.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut st = self.state.lock();
        if st.jobs.len() >= self.capacity {
            return Err(job);
        }
        st.jobs.push_back(job);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock();
        self.ready
            .wait_while(&mut st, |st| st.jobs.is_empty() && !st.closed);
        st.jobs.pop_front()
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Live tokens, keyed by the request id's wire rendering. A token stays
/// registered while its request is queued or in flight, so a
/// `$/cancelRequest` races correctly with both.
type CancelRegistry = Arc<Mutex<HashMap<String, CancelToken>>>;

fn write_line<W: Write>(w: &Mutex<W>, line: &str) -> std::io::Result<()> {
    let mut w = w.lock();
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Serve one connection: read and decode lines on the calling thread,
/// dispatch on a cached worker thread, answer in request order. Returns
/// when the client disconnects (EOF), after an acknowledged `shutdown`,
/// or on a write error (client gone mid-response) — all of which are
/// *per-connection* outcomes the caller may log and survive.
pub fn drive_connection<R, W>(mut server: Server, reader: R, writer: W) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let queue = Queue::new(server.queue_capacity());
    let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));
    let writer = Arc::new(Mutex::new(writer));
    let progress = Arc::new((Mutex::new(Progress::default()), Condvar::new()));

    let worker = {
        let queue = Arc::clone(&queue);
        let registry = Arc::clone(&registry);
        let writer = Arc::clone(&writer);
        let stop_on_exit = StopOnExit(Arc::clone(&progress));
        move || {
            let stop_on_exit = stop_on_exit;
            let (state, cv) = &*stop_on_exit.0;
            while let Some(job) = queue.pop() {
                let key = job.id().to_line();
                let resp = if job.token.is_cancelled() {
                    proto::err(job.id(), code::REQUEST_CANCELLED, "request cancelled", None)
                } else {
                    server.handle(job.req, &job.token)
                };
                registry.lock().remove(&key);
                // A write error means the client went away mid-response:
                // stop answering, let the reader observe EOF. Nothing
                // here is fatal to the daemon.
                let stop = write_line(&writer, &resp).is_err() || server.is_shut_down();
                let mut st = state.lock();
                st.answered += 1;
                st.stopped = stop;
                drop(st);
                cv.notify_all();
                if stop {
                    return;
                }
            }
        }
    };
    parcoach_sync::thread_cache().spawn(worker);

    let (state, cv) = &*progress;
    let mut queued = 0u64;
    let mut result = Ok(());
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = proto::parse_request(&line);
        let method = req.as_ref().map_or("", |r| r.method.as_str());
        if method == "$/cancelRequest" {
            // A notification: cancel the matching request, no response.
            let registry = registry.lock();
            let target = req.as_ref().ok().and_then(|r| r.params.get("id"));
            if let Some(token) = target.and_then(|t| registry.get(&t.to_line())) {
                token.cancel();
            }
            continue;
        }
        let is_shutdown = method == "shutdown";
        let job = Job {
            req,
            token: CancelToken::new(),
        };
        let key = job.id().to_line();
        registry.lock().insert(key.clone(), job.token.clone());
        if let Err(job) = queue.push(job) {
            registry.lock().remove(&key);
            let busy = proto::err(
                job.id(),
                code::SERVER_BUSY,
                "server busy: request queue is full",
                None,
            );
            if write_line(&writer, &busy).is_err() {
                break;
            }
            continue;
        }
        queued += 1;
        if is_shutdown {
            // Everything queued ahead is answered first (the graceful
            // part of the drain). Stop reading only if the server
            // acknowledged this `shutdown`: one rejected before
            // `initialize` leaves the connection open.
            let mut st = state.lock();
            cv.wait_while(&mut st, |st| st.answered < queued && !st.stopped);
            if st.stopped {
                break;
            }
        }
    }

    queue.close();
    cv.wait_while(&mut state.lock(), |st| !st.stopped);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn req(id: i64, method: &str, params: &str) -> String {
        format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#)
    }

    #[test]
    fn drive_connection_answers_in_order_and_honors_shutdown() {
        let shared = ServerShared::new(ServerConfig::default());
        let input = [
            req(0, "initialize", r#"{"protocolVersion":2}"#),
            req(
                1,
                "open",
                r#"{"uri":"a.mh","text":"fn main() { MPI_Barrier(); }"}"#,
            ),
            req(2, "check", r#"{"uri":"a.mh"}"#),
            req(3, "shutdown", "{}"),
            req(4, "check", r#"{"uri":"a.mh"}"#), // never read: after shutdown
        ]
        .join("\n");
        let out = SharedBuf::default();
        let server = Server::with_shared(Arc::clone(&shared));
        drive_connection(server, input.as_bytes(), out.clone()).unwrap();
        let lines = out.lines();
        assert_eq!(lines.len(), 4, "{lines:?}");
        for (i, l) in lines.iter().enumerate() {
            assert!(l.contains(&format!(r#""id":{i}"#)), "{l}");
        }
        assert!(lines[3].contains(r#""result":null"#), "{}", lines[3]);
    }

    /// The response sink of a driven connection.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cancel_request_notification_cancels_a_queued_request() {
        // The first response write blocks until the reader hits EOF, so
        // request 1 is still queued when the reader routes the
        // `$/cancelRequest` naming it. The last line ends in a newline:
        // the read that finds EOF comes after the reader has routed it.
        use std::io::Read;
        struct Input<'a> {
            bytes: &'a [u8],
            at_eof: Option<mpsc::Sender<()>>,
        }
        impl Read for Input<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.bytes.read(buf)?;
                if n == 0 {
                    self.at_eof = None; // disconnects the gate
                }
                Ok(n)
            }
        }
        struct GatedBuf(Option<mpsc::Receiver<()>>, SharedBuf);
        impl Write for GatedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if let Some(gate) = self.0.take() {
                    let _ = gate.recv();
                }
                self.1.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let input = [
            req(0, "initialize", r#"{"protocolVersion":2}"#),
            req(1, "timings", "{}"),
            r#"{"jsonrpc":"2.0","method":"$/cancelRequest","params":{"id":1}}"#.to_string(),
        ]
        .join("\n")
            + "\n";
        let (at_eof, gate) = mpsc::channel();
        let reader = std::io::BufReader::new(Input {
            bytes: input.as_bytes(),
            at_eof: Some(at_eof),
        });
        let out = SharedBuf::default();
        let server = Server::new(ServerConfig::default());
        drive_connection(server, reader, GatedBuf(Some(gate), out.clone())).unwrap();
        let lines = out.lines();
        assert_eq!(
            lines.len(),
            2,
            "the notification is not answered: {lines:?}"
        );
        assert!(lines[0].contains(r#""id":0,"result""#), "{}", lines[0]);
        assert_eq!(
            lines[1],
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":-32800,"message":"request cancelled"}}"#
        );
    }

    /// A worker that unwinds still releases the reader: the call returns
    /// at EOF instead of waiting for a `stopped` nobody will set.
    #[test]
    fn a_panicking_writer_does_not_wedge_the_reader() {
        struct PanickingWriter;
        impl Write for PanickingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                panic!("writer down");
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = [
            req(0, "initialize", r#"{"protocolVersion":2}"#),
            req(1, "timings", "{}"),
        ]
        .join("\n");
        let (done, returned) = mpsc::channel();
        std::thread::spawn(move || {
            let server = Server::new(ServerConfig::default());
            let res = drive_connection(server, input.as_bytes(), PanickingWriter);
            let _ = done.send(res.is_ok());
        });
        let ok = returned
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("drive_connection returned within 5 s");
        assert!(ok);
    }

    #[test]
    fn a_connection_that_unwinds_is_still_uncounted() {
        let shared = ServerShared::new(ServerConfig::default());
        let open = shared.connection();
        assert_eq!(shared.active_connections(), 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _open = open;
            panic!("connection down");
        }));
        assert!(res.is_err());
        assert_eq!(shared.active_connections(), 0);
    }

    #[test]
    fn queue_overflow_is_reported_busy() {
        let q = Queue::new(1);
        let mk = || Job {
            req: Err((code::PARSE_ERROR, String::new())),
            token: CancelToken::new(),
        };
        assert!(q.push(mk()).is_ok());
        assert!(q.push(mk()).is_err(), "second push exceeds capacity");
        q.close();
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
