//! The MAGUS control-plane wire protocol: a length-prefixed JSON frame
//! codec plus the validating request/response message types.
//!
//! Framing is deliberately minimal — one little-endian `u32` byte length
//! followed by that many bytes of JSON — so a session is inspectable with
//! nothing but `xxd` and the protocol stays implementable from any
//! language in an afternoon. Every frame is one message; messages never
//! span frames. The codec defends the daemon at the boundary: frames
//! larger than [`MAX_FRAME_BYTES`] are rejected before allocation
//! ([`ProtoError::Oversized`]), streams that end mid-frame surface
//! [`ProtoError::Truncated`] with byte counts, and payloads that fail
//! validation — malformed JSON, unknown `type` variants, wrong field
//! shapes — surface [`ProtoError::Malformed`] instead of panicking.
//!
//! Messages are serde enums tagged by a `"type"` field, so the wire shape
//! of, say, a join is `{"type":"join_node","system":"IntelA100",
//! "count":64}`. Embedded domain types ([`SystemId`], [`AppId`],
//! [`FleetSummary`]) reuse their existing serde renderings — the same
//! bytes the batch engine writes — which is what lets the CI system test
//! byte-compare a daemon session against a batch run.

use std::io::{self, IoSlice, Read, Write};

use magus_experiments::harness::SystemId;
use magus_hetsim::fleet::FleetSummary;
use magus_workloads::{AppId, TrafficSpec};
use serde::{Deserialize, Serialize};

/// Protocol revision spoken by this build. A [`Request::Hello`] carrying a
/// different revision is refused, so incompatible clients fail fast with a
/// typed error instead of mis-parsing frames.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on one frame's payload size (64 MiB). Large enough for a
/// 100k-node epoch summary, small enough that a corrupt or hostile length
/// header cannot drive an allocation of the header's full `u32` range.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Upper bound on the node count of one [`Request::JoinNode`] — matches
/// the 100k-node fleet scale the kernel is benched at, with headroom.
pub const MAX_JOIN_COUNT: u32 = 262_144;

/// Typed codec / message-validation error.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// A frame header announced a payload over [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced payload length.
        len: u64,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The payload is not a valid message (bad JSON, unknown `type`
    /// variant, wrong field shapes, or a failed semantic validation).
    Malformed(String),
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire i/o error: {e}"),
            Self::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            Self::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte limit"
                )
            }
            Self::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Read exactly `buf.len()` bytes, reporting how many arrived before a
/// premature EOF (so [`ProtoError::Truncated`] can carry real counts).
fn read_exact_counted(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtoError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one raw frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF anywhere *inside* a frame is
/// [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    match read_exact_counted(r, &mut header)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(ProtoError::Truncated { expected: 4, got }),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            len: len as u64,
            max: MAX_FRAME_BYTES,
        });
    }
    // The buffer grows as bytes arrive: a bare header never reserves the
    // length it announces.
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(ProtoError::Io)?;
    if payload.len() < len {
        return Err(ProtoError::Truncated {
            expected: len,
            got: payload.len(),
        });
    }
    Ok(Some(payload))
}

/// Write one raw frame and flush. Header and payload go out in one
/// vectored write, so a TCP peer never sees a lone 4-byte header that
/// Nagle's algorithm would make the payload wait ~40 ms behind (the
/// peer's delayed ACK). Short writes resume mid-frame; `Interrupted` is
/// retried.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            len: payload.len() as u64,
            max: MAX_FRAME_BYTES,
        });
    }
    let header = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    w.flush()?;
    Ok(())
}

/// Serialize `msg` and write it as one frame.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ProtoError> {
    let mut payload = String::new();
    serde::append(&mut payload, msg);
    write_frame(w, payload.as_bytes())
}

/// Read one frame and parse it as a `T`. `Ok(None)` is a clean
/// end-of-stream, exactly as in [`read_frame`].
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => serde::from_slice(&payload)
            .map(Some)
            .map_err(|e| ProtoError::Malformed(e.to_string())),
    }
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Version handshake; must be the first message on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Enroll `count` nodes of one hardware preset. Nodes join dormant
    /// (no workload) and take effect at the next round boundary.
    JoinNode {
        /// Hardware preset for every node in the batch.
        system: SystemId,
        /// Number of nodes to enroll (1..=[`MAX_JOIN_COUNT`]).
        count: u32,
        /// Start offset on the fleet clock (µs) for the whole batch.
        #[serde(default)]
        start_offset_us: u64,
    },
    /// Remove one node at the next round boundary.
    LeaveNode {
        /// The node id to remove.
        node: u64,
    },
    /// Submit (or replace) the workload one node runs from the next round
    /// boundary on: either a catalog application or one node of a
    /// multi-tenant traffic expansion — exactly one of `app` / `traffic`
    /// must be set (checked by [`Request::validate`]). Pre-traffic clients
    /// that send only `app` keep their wire shape: `traffic` has a serde
    /// default of absent.
    SubmitWorkload {
        /// Target node id.
        node: u64,
        /// Catalog application to run.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        app: Option<AppId>,
        /// Traffic spec whose expansion slot `node` runs instead of a
        /// catalog app (the generator parameters travel on the wire, never
        /// the expanded trace).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        traffic: Option<TrafficSpec>,
    },
    /// Run one epoch: add the members with a workload to a fleet at the
    /// round boundary, and run it to completion.
    Advance,
    /// Switch this connection into a telemetry subscriber: the daemon
    /// pushes one [`Response::Telemetry`] frame for every epoch that starts
    /// after the subscription, until shutdown. Epochs render telemetry
    /// only for subscribers registered when they start.
    Subscribe,
    /// Report the daemon's current epoch, last summary, and Prometheus
    /// rendering without advancing anything.
    Snapshot,
    /// Gracefully stop the daemon: finish any in-flight epoch, drain
    /// subscribers, then close all sockets.
    Shutdown,
}

impl Request {
    /// Semantic validation beyond what serde shapes enforce. The daemon
    /// rejects invalid requests with [`Response::Error`] before touching
    /// any state.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::JoinNode { count, .. } if *count == 0 => {
                Err("join_node count must be at least 1".into())
            }
            Self::JoinNode { count, .. } if *count > MAX_JOIN_COUNT => Err(format!(
                "join_node count {count} exceeds the {MAX_JOIN_COUNT}-node limit"
            )),
            Self::SubmitWorkload { app, traffic, .. } => match (app, traffic) {
                (None, None) => Err("submit_workload needs one of `app` or `traffic`".into()),
                (Some(_), Some(_)) => {
                    Err("submit_workload takes `app` or `traffic`, not both".into())
                }
                (None, Some(spec)) => spec.validate().map_err(|e| e.to_string()),
                (Some(_), None) => Ok(()),
            },
            _ => Ok(()),
        }
    }
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The daemon's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Daemon identification string (name/version).
        server: String,
    },
    /// Nodes enrolled; ids are assigned in batch order and never reused.
    Joined {
        /// The new node ids.
        nodes: Vec<u64>,
    },
    /// Node removed from the fleet's members.
    Left {
        /// The departed node id.
        node: u64,
    },
    /// Workload staged on the node.
    Submitted {
        /// The target node id.
        node: u64,
    },
    /// One epoch completed.
    Advanced {
        /// Epoch number (1-based, monotonic).
        epoch: u64,
        /// Nodes the epoch's fleet contained (dormant members excluded).
        nodes: u64,
        /// The epoch's fleet summary — bit-identical to a batch
        /// `FleetBuilder` run of the same membership.
        summary: FleetSummary,
    },
    /// Subscription established; telemetry frames follow.
    Subscribed {
        /// The last epoch that started before this subscription; the first
        /// frame is epoch `epoch + 1`'s. A subscription made while an epoch
        /// runs names that epoch, whose frame it does not receive.
        epoch: u64,
    },
    /// Current daemon state.
    SnapshotOk {
        /// Completed epoch count.
        epoch: u64,
        /// The most recent epoch's summary (`None` before the first
        /// advance).
        summary: Option<FleetSummary>,
        /// Prometheus text rendering of the daemon's metric registry —
        /// the same bytes `GET /metrics` serves.
        prometheus: String,
    },
    /// One epoch's telemetry stream (pushed to subscribers).
    Telemetry {
        /// The epoch that produced the stream.
        epoch: u64,
        /// Per-node event JSONL, byte-identical to the batch engine's
        /// rendering of the same fleet.
        jsonl: String,
    },
    /// The daemon accepted a shutdown (also pushed to subscribers as the
    /// final frame before their channel closes).
    ShuttingDown,
    /// The request was rejected; state is unchanged.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip a message through the codec over an in-memory pipe.
    fn roundtrip<T: Serialize + Deserialize + PartialEq + core::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        let got: T = read_message(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(&got, msg);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&Request::Hello { protocol: 1 });
        roundtrip(&Request::JoinNode {
            system: SystemId::IntelA100,
            count: 64,
            start_offset_us: 250_000,
        });
        roundtrip(&Request::LeaveNode { node: 7 });
        roundtrip(&Request::SubmitWorkload {
            node: 3,
            app: Some(AppId::all()[0]),
            traffic: None,
        });
        roundtrip(&Request::SubmitWorkload {
            node: 4,
            app: None,
            traffic: Some(TrafficSpec::default()),
        });
        roundtrip(&Request::Advance);
        roundtrip(&Request::Subscribe);
        roundtrip(&Request::Snapshot);
        roundtrip(&Request::Shutdown);
    }

    #[test]
    fn join_omits_default_offset_and_accepts_its_absence() {
        // `start_offset_us` has a serde default, so hand-written clients
        // can omit it.
        let req: Request =
            serde::from_str(r#"{"type":"join_node","system":"IntelA100","count":2}"#).unwrap();
        assert_eq!(
            req,
            Request::JoinNode {
                system: SystemId::IntelA100,
                count: 2,
                start_offset_us: 0
            }
        );
    }

    #[test]
    fn pre_traffic_submit_json_still_parses() {
        // Clients written before the traffic generator existed send
        // `{"node":…,"app":…}` with no `traffic` key; both optional fields
        // have serde defaults so that wire shape keeps working.
        let req: Request =
            serde::from_str(r#"{"type":"submit_workload","node":3,"app":"Bfs"}"#).unwrap();
        match &req {
            Request::SubmitWorkload { node, app, traffic } => {
                assert_eq!(*node, 3);
                assert!(app.is_some());
                assert!(traffic.is_none());
            }
            other => panic!("parsed to {other:?}"),
        }
        assert!(req.validate().is_ok());
    }

    #[test]
    fn submit_requires_exactly_one_workload_source() {
        let neither = Request::SubmitWorkload {
            node: 0,
            app: None,
            traffic: None,
        };
        assert!(neither.validate().is_err());
        let both = Request::SubmitWorkload {
            node: 0,
            app: Some(AppId::all()[0]),
            traffic: Some(TrafficSpec::default()),
        };
        assert!(both.validate().is_err());
        // An invalid traffic spec is rejected at the protocol boundary too.
        let bad = Request::SubmitWorkload {
            node: 0,
            app: None,
            traffic: Some(TrafficSpec {
                tenants: 0,
                ..TrafficSpec::default()
            }),
        };
        assert!(bad.validate().unwrap_err().contains("tenant"));
        let ok = Request::SubmitWorkload {
            node: 0,
            app: None,
            traffic: Some(TrafficSpec::default()),
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn unknown_variant_is_malformed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"type":"frobnicate"}"#).unwrap();
        let err = read_message::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn clean_eof_is_none_but_partial_frames_are_truncated() {
        // Clean EOF between frames.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        // EOF inside the header.
        let err = read_frame(&mut [1u8, 0].as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                ProtoError::Truncated {
                    expected: 4,
                    got: 2
                }
            ),
            "{err}"
        );
        // EOF inside the payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                ProtoError::Truncated {
                    expected: 8,
                    got: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }), "{err}");

        // The writer never sees a byte of a frame it would have to refuse.
        let huge = vec![b'x'; MAX_FRAME_BYTES + 1];
        let mut sink = Sink::new(usize::MAX, Vec::new());
        let err = write_frame(&mut sink, &huge).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }), "{err}");
        assert_eq!((sink.plain, sink.vectored.len()), (0, 0));
        assert!(sink.out.is_empty());
    }

    /// A scripted writer: it returns the canned `script` results first,
    /// then accepts at most `max` bytes per call, recording how many bytes
    /// each `write_vectored` call took and how often plain `write` ran.
    struct Sink {
        max: usize,
        script: Vec<io::Result<usize>>,
        out: Vec<u8>,
        vectored: Vec<usize>,
        plain: usize,
    }

    impl Sink {
        fn new(max: usize, mut script: Vec<io::Result<usize>>) -> Self {
            script.reverse();
            Self {
                max,
                script,
                out: Vec::new(),
                vectored: Vec::new(),
                plain: 0,
            }
        }

        fn accept(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if let Some(canned) = self.script.pop() {
                return canned;
            }
            let start = self.out.len();
            for buf in bufs {
                let room = self.max - (self.out.len() - start);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - start)
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.plain += 1;
            self.accept(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let n = self.accept(bufs)?;
            self.vectored.push(n);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The bytes of one frame: little-endian length, then the payload.
    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        for len in [0, 24, 200 << 10] {
            let payload = vec![b'x'; len];
            let mut sink = Sink::new(usize::MAX, Vec::new());
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.plain, 0, "{len} B: plain write used");
            assert_eq!(sink.vectored, [4 + len], "{len} B: not one write");
            assert_eq!(sink.out, frame_bytes(&payload), "{len} B");
        }
    }

    #[test]
    fn short_writes_resume_mid_frame() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut sink = Sink::new(3, Vec::new());
        write_frame(&mut sink, &payload).unwrap();
        assert_eq!(sink.out, frame_bytes(&payload));
        assert_eq!(sink.vectored.len(), (4 + payload.len()).div_ceil(3));
    }

    #[test]
    fn an_interrupted_write_is_retried() {
        let interrupted = io::Error::from(io::ErrorKind::Interrupted);
        let mut sink = Sink::new(usize::MAX, vec![Err(interrupted)]);
        write_frame(&mut sink, b"{}").unwrap();
        assert_eq!(sink.out, frame_bytes(b"{}"));
    }

    #[test]
    fn a_zero_length_write_is_write_zero() {
        let mut sink = Sink::new(usize::MAX, vec![Ok(0)]);
        let err = write_frame(&mut sink, b"{}").unwrap_err();
        assert!(
            matches!(&err, ProtoError::Io(e) if e.kind() == io::ErrorKind::WriteZero),
            "{err}"
        );
    }

    #[test]
    fn join_count_bounds_are_validated() {
        let zero = Request::JoinNode {
            system: SystemId::IntelA100,
            count: 0,
            start_offset_us: 0,
        };
        assert!(zero.validate().is_err());
        let huge = Request::JoinNode {
            system: SystemId::IntelA100,
            count: MAX_JOIN_COUNT + 1,
            start_offset_us: 0,
        };
        assert!(huge.validate().is_err());
        let ok = Request::JoinNode {
            system: SystemId::IntelA100,
            count: MAX_JOIN_COUNT,
            start_offset_us: 0,
        };
        assert!(ok.validate().is_ok());
    }
}
