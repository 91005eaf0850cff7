//! MAGUS fleet control plane: the daemon that turns the batch fleet
//! harness into a long-lived service.
//!
//! Three pieces:
//!
//! * [`proto`] — the length-prefixed JSON wire protocol: frame codec with
//!   typed errors plus the validating request/response message types.
//! * [`server`] — the daemon: a [`server::FleetDaemon`] holding the
//!   fleet's members behind a TCP connection loop, with round-boundary
//!   membership, per-epoch telemetry broadcast to subscribers, an `error`
//!   frame in place of any frame too large to send, graceful shutdown,
//!   and a minimal HTTP `/metrics`.
//! * [`client`] — the typed blocking client ([`CtlClient`]) and
//!   subscription stream the `magus ctl` CLI is built on.
//!
//! Every frame leaves in one write and both ends set `TCP_NODELAY`, so a
//! small request takes well under a millisecond on loopback instead of
//! waiting ~40 ms for a delayed ACK (DESIGN §10). The protocol tests drive
//! a real daemon on an ephemeral port and run in a few ms.
//!
//! The crate sticks to `std::net` + threads and the workspace's existing
//! serde stack — no new dependencies — matching the registry-less build
//! constraint the repo operates under.
//!
//! **Determinism contract.** An epoch advanced through the daemon is
//! exactly a batch `FleetBuilder` run of the daemon's membership at that
//! round boundary: same node order, same interned traces, same kernel.
//! Its `FleetSummary` is bit-identical and its telemetry JSONL
//! byte-identical to the in-process equivalent, which `tests/ctl.rs` and
//! the `control-plane-systemtest` CI job both assert by diffing.

use std::io;

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{CtlClient, SnapshotInfo, SubEvent, Subscription};
pub use metrics::{fleet_prometheus, fleet_registry};
pub use proto::{ProtoError, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{bind_with_retries, peak_rss_kb, serve_fleet, FleetDaemon, ServeConfig, Server};

/// Client/server-level error (wraps codec errors and daemon rejections).
#[derive(Debug)]
pub enum CtlError {
    /// Socket-level failure.
    Io(io::Error),
    /// Frame codec or message-validation failure.
    Proto(ProtoError),
    /// The daemon rejected the request ([`Response::Error`]).
    Server(String),
    /// The daemon replied with a variant the call cannot accept.
    Unexpected(String),
    /// The connection closed while a response was pending.
    Closed,
}

impl core::fmt::Display for CtlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "control-plane i/o error: {e}"),
            Self::Proto(e) => write!(f, "control-plane protocol error: {e}"),
            Self::Server(msg) => write!(f, "daemon rejected the request: {msg}"),
            Self::Unexpected(msg) => write!(f, "unexpected response: {msg}"),
            Self::Closed => write!(f, "connection closed mid-exchange"),
        }
    }
}

impl std::error::Error for CtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for CtlError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}
