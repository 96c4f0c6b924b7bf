#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `pmor serve`: a long-running batched ROM evaluation daemon.
//!
//! The paper's pitch is *reduce once, evaluate forever* — but every
//! `pmor eval` / `pmor mc` invocation pays process startup, scenario
//! parsing and ROM-cache lookup before a single transfer evaluation
//! runs. This crate removes that tax: a daemon ([`Server`]) holds hot
//! [`pmor::ParametricRom`]s in an in-memory LRU keyed by their
//! content fingerprint ([`pmor::rom::fingerprint`]) and dispatches
//! batched point evaluations through the same chunked, scoped-thread
//! [`pmor::EvalEngine`] every in-process analysis uses — so a served
//! response is **bitwise identical** to an in-process
//! `EvalEngine::transfer_batch` over the same points.
//!
//! The wire format ([`protocol`]) is a small length-prefixed binary
//! protocol with a checksum trailer, decoded through the shared
//! bounds-checked [`pmor::rom::ByteReader`], plus a newline-delimited
//! JSON fallback ([`json`]) that maps requests and responses onto the
//! workspace's one JSON reader and writer, `pmor-json`. Robustness is
//! part of the contract: per-connection read timeouts, max-frame and
//! max-batch limits, malformed-frame rejection that never kills the
//! daemon, and graceful shutdown that drains in-flight batches before
//! exiting.
//!
//! ```no_run
//! use pmor_serve::{Client, ServeAddr, ServeConfig, Server};
//!
//! # fn main() -> Result<(), pmor_serve::ServeError> {
//! // Daemon side (usually `pmor serve --addr 127.0.0.1:7878`):
//! let handle = Server::start(ServeConfig::default())?; // ephemeral port
//! // Client side:
//! let mut client = Client::connect(handle.addr())?;
//! client.ping()?;
//! handle.shutdown_and_join()?;
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{
    EvalReply, FaultCode, Provenance, Request, Response, RomStamp, ServeFault, ServerInfo,
};
pub use server::{ServeAddr, ServeConfig, Server, ServerHandle};

use std::fmt;

/// Every failure the serving stack reports.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(String),
    /// Wire-format violation: a frame that cannot be (de)coded.
    Protocol(String),
    /// A structured error response from the server (the request was
    /// delivered and rejected — the connection stays usable).
    Fault(protocol::ServeFault),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Fault(fault) => write!(f, "server fault: {fault}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
