//! Typed client for the control-plane protocol: one blocking call per
//! request, plus a pull-based subscription stream.
//!
//! [`CtlClient::connect`] performs the version handshake before returning,
//! so every constructed client is known-compatible. Calls map daemon-side
//! rejections ([`Response::Error`]) to [`CtlError::Server`] and
//! wrong-variant replies to [`CtlError::Unexpected`] — a client never has
//! to pattern-match raw frames.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use magus_experiments::harness::SystemId;
use magus_hetsim::fleet::FleetSummary;
use magus_workloads::{AppId, TrafficSpec};

use crate::proto::{self, Request, Response, PROTOCOL_VERSION};
use crate::CtlError;

/// A connected, handshaken control-plane client.
pub struct CtlClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The daemon state a [`CtlClient::snapshot`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Completed epoch count.
    pub epoch: u64,
    /// The most recent epoch's summary (`None` before the first advance).
    pub summary: Option<FleetSummary>,
    /// Prometheus text — the same bytes `GET /metrics` serves.
    pub prometheus: String,
}

/// One frame from a [`Subscription`].
#[derive(Debug, Clone, PartialEq)]
pub enum SubEvent {
    /// An epoch's telemetry JSONL.
    Telemetry {
        /// The epoch that produced it.
        epoch: u64,
        /// Per-node event JSONL (byte-identical to the batch rendering).
        jsonl: String,
    },
    /// The daemon is shutting down; the stream ends after this frame.
    ShuttingDown,
}

/// A connection parked in subscriber mode (see [`CtlClient::subscribe`]).
pub struct Subscription {
    reader: BufReader<TcpStream>,
    /// The last epoch that started before the subscription: the first
    /// frame is epoch `since_epoch + 1`'s.
    pub since_epoch: u64,
}

impl Subscription {
    /// Block for the next pushed frame; `Ok(None)` once the daemon has
    /// closed the stream (after a graceful shutdown's final frame). A
    /// daemon `error` frame in the stream (a telemetry frame too large to
    /// send, say) is [`CtlError::Server`].
    pub fn next_event(&mut self) -> Result<Option<SubEvent>, CtlError> {
        match proto::read_message::<Response>(&mut self.reader)? {
            None => Ok(None),
            Some(Response::Telemetry { epoch, jsonl }) => {
                Ok(Some(SubEvent::Telemetry { epoch, jsonl }))
            }
            Some(Response::ShuttingDown) => Ok(Some(SubEvent::ShuttingDown)),
            Some(Response::Error { message }) => Err(CtlError::Server(message)),
            Some(other) => Err(CtlError::Unexpected(format!(
                "subscription received a non-stream frame: {other:?}"
            ))),
        }
    }
}

impl CtlClient {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, CtlError> {
        let writer = TcpStream::connect(addr).map_err(CtlError::Io)?;
        // Requests are one write each (`proto::write_frame`); Nagle off
        // keeps a large request's last segment from waiting for an ACK.
        writer.set_nodelay(true).map_err(CtlError::Io)?;
        let reader = BufReader::new(writer.try_clone().map_err(CtlError::Io)?);
        let mut client = Self { reader, writer };
        match client.call(&Request::Hello {
            protocol: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { .. } => Ok(client),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("hello_ok", &other)),
        }
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, CtlError> {
        proto::write_message(&mut self.writer, req)?;
        match proto::read_message::<Response>(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(CtlError::Closed),
        }
    }

    /// Enroll `count` nodes of `system` starting `start_offset_us` into
    /// each epoch; returns their ids.
    pub fn join(
        &mut self,
        system: SystemId,
        count: u32,
        start_offset_us: u64,
    ) -> Result<Vec<u64>, CtlError> {
        match self.call(&Request::JoinNode {
            system,
            count,
            start_offset_us,
        })? {
            Response::Joined { nodes } => Ok(nodes),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("joined", &other)),
        }
    }

    /// Remove one node at the next round boundary.
    pub fn leave(&mut self, node: u64) -> Result<(), CtlError> {
        match self.call(&Request::LeaveNode { node })? {
            Response::Left { .. } => Ok(()),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("left", &other)),
        }
    }

    /// Stage a catalog workload on one node.
    pub fn submit(&mut self, node: u64, app: AppId) -> Result<(), CtlError> {
        match self.call(&Request::SubmitWorkload {
            node,
            app: Some(app),
            traffic: None,
        })? {
            Response::Submitted { .. } => Ok(()),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("submitted", &other)),
        }
    }

    /// Stage one slot of a multi-tenant traffic expansion on one node. The
    /// daemon expands `spec` at its end — only the generator parameters
    /// cross the wire — and the node runs the expansion slot addressed by
    /// its fleet id.
    pub fn submit_traffic(&mut self, node: u64, spec: TrafficSpec) -> Result<(), CtlError> {
        match self.call(&Request::SubmitWorkload {
            node,
            app: None,
            traffic: Some(spec),
        })? {
            Response::Submitted { .. } => Ok(()),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("submitted", &other)),
        }
    }

    /// Run one epoch; returns its number and summary.
    pub fn advance(&mut self) -> Result<(u64, FleetSummary), CtlError> {
        match self.call(&Request::Advance)? {
            Response::Advanced { epoch, summary, .. } => Ok((epoch, summary)),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("advanced", &other)),
        }
    }

    /// Read the daemon's current state without advancing.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, CtlError> {
        match self.call(&Request::Snapshot)? {
            Response::SnapshotOk {
                epoch,
                summary,
                prometheus,
            } => Ok(SnapshotInfo {
                epoch,
                summary,
                prometheus,
            }),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("snapshot_ok", &other)),
        }
    }

    /// Request a graceful daemon shutdown.
    pub fn shutdown(&mut self) -> Result<(), CtlError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Convert this connection into a telemetry subscription (one
    /// [`SubEvent`] per epoch until shutdown).
    pub fn subscribe(mut self) -> Result<Subscription, CtlError> {
        match self.call(&Request::Subscribe)? {
            Response::Subscribed { epoch } => Ok(Subscription {
                reader: self.reader,
                since_epoch: epoch,
            }),
            Response::Error { message } => Err(CtlError::Server(message)),
            other => Err(unexpected("subscribed", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> CtlError {
    CtlError::Unexpected(format!("expected {wanted}, got {got:?}"))
}
