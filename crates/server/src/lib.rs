//! # parcoach-server — `parcoachd`, analysis-as-a-service
//!
//! The batch pipeline answers "is this program safe?"; this crate
//! answers it *repeatedly*, for a program being edited, without paying
//! the whole pipeline per keystroke. Three layers:
//!
//! * [`document`] — a resident compilation unit. `open` pays the full
//!   front-end once; a per-function `edit` reparses and re-lowers only
//!   the replaced function, rebases the resident IR's spans after the
//!   splice point, and marks that function dirty in the memo table it
//!   owns, so the next check re-derives exactly the facts that died.
//! * [`server`] — the JSON-RPC dispatcher: `initialize` (protocol
//!   [`PROTOCOL_VERSION`]), `open`, `edit`, `check`, `diagnostics`,
//!   `timings`, `shutdown`, `$/cancelRequest`. Each [`Server`] is a
//!   per-connection view over the process-wide [`ServerShared`].
//! * [`sched`] — the concurrency layer: the shared document map (each
//!   document paired with its own [`parcoach_core::AnalysisSession`]
//!   and an epoch-keyed result cache), plus the per-connection
//!   scheduler — bounded request queue with `SERVER_BUSY`
//!   backpressure, a cached worker thread, and cooperative
//!   cancellation (`$/cancelRequest`, `deadlineMs`).
//! * [`json`] / [`proto`] — a dependency-free, insertion-ordered JSON
//!   layer, so the daemon emits byte-identical transcripts (the
//!   property the edit-soak CI job asserts).
//!
//! `parcoachc check` is a one-shot client of the same [`Document`]
//! object, so batch and server modes cannot drift.
//!
//! ```
//! use parcoach_server::{Server, ServerConfig};
//!
//! let mut srv = Server::new(ServerConfig::default());
//! let resp = srv.handle_line(
//!     r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"protocolVersion":2}}"#,
//! );
//! assert!(resp.contains(r#""serverName":"parcoachd""#));
//! ```

pub mod document;
pub mod json;
pub mod proto;
pub mod sched;
pub mod server;

pub use document::{DocError, Document, EditOutcome};
pub use json::Value;
pub use proto::PROTOCOL_VERSION;
pub use sched::{drive_connection, ServerShared};
pub use server::{check_result_json, warnings_json, Server, ServerConfig};
