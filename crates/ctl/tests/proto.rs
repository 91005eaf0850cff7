//! Wire-protocol round-trip tests: the real [`CtlClient`] against a real
//! daemon ([`serve_fleet`]) on an ephemeral loopback port. Fleets stay
//! tiny (at most 3 nodes, a 2 s budget), so an epoch simulates in
//! milliseconds, and a reply takes well under one, so the whole file runs
//! in a few ms. Raw-socket cases cover the codec's rejection paths
//! (truncated frames, oversized headers, unknown variants) exactly as a
//! misbehaving peer would produce them, and pin the reply latency a
//! third-party client sees.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use magus_ctl::proto::{self, ProtoError, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use magus_ctl::{fleet_prometheus, serve_fleet, CtlClient, CtlError, ServeConfig, SubEvent};
use magus_experiments::engine::GovernorSpec;
use magus_experiments::fleet::fleet_app;
use magus_experiments::harness::SystemId;

const BUDGET_S: f64 = 2.0;

/// A daemon serving the control socket only, and the thread running it.
struct Daemon {
    addr: SocketAddr,
    runner: thread::JoinHandle<Result<(), CtlError>>,
}

impl Daemon {
    fn spawn() -> Self {
        let server = serve_fleet(ServeConfig {
            http_addr: None,
            governor: GovernorSpec::magus_default(),
            budget_s: BUDGET_S,
            ..ServeConfig::default()
        })
        .expect("bind daemon");
        let addr = server.ctl_addr().expect("ctl addr");
        Self {
            addr,
            runner: thread::spawn(move || server.run()),
        }
    }

    /// Block until the server loop exits (after a shutdown request).
    fn join(self) {
        self.runner
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    }
}

/// Join `count` nodes and submit the batch fleet's round-robin catalog
/// app to each, so every joined node runs in the next epoch.
fn join_armed(client: &mut CtlClient, count: u32) -> Vec<u64> {
    let ids = client.join(SystemId::IntelA100, count, 0).expect("join");
    for (i, id) in ids.iter().enumerate() {
        client.submit(*id, fleet_app(i)).expect("submit");
    }
    ids
}

/// The telemetry JSONL one epoch of `nodes` submitted nodes streams to a
/// subscriber: the batch rendering of the same fleet, armed.
fn epoch_jsonl(nodes: usize) -> String {
    use magus_experiments::fleet::{run_fleet_with_telemetry, FleetSpec};
    let (_, jsonl) = run_fleet_with_telemetry(&FleetSpec {
        max_s: BUDGET_S,
        ..FleetSpec::new(GovernorSpec::magus_default(), nodes)
    });
    assert!(!jsonl.is_empty(), "an armed fleet records events");
    jsonl
}

#[test]
fn every_request_round_trips_through_the_real_client() {
    let daemon = Daemon::spawn();

    // `connect` performs the Hello round-trip.
    let mut client = CtlClient::connect(daemon.addr).expect("connect");

    let nodes = join_armed(&mut client, 3);
    assert_eq!(nodes, vec![0, 1, 2]);
    client.leave(2).expect("leave");

    // The replies show every request landed, in order: both submits and
    // the leave took effect before the advance.
    let (epoch, summary) = client.advance().expect("advance");
    assert_eq!(epoch, 1);
    assert_eq!(summary.nodes.len(), 2, "3 joined - 1 left");

    let snap = client.snapshot().expect("snapshot");
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.summary.as_ref(), Some(&summary));
    assert!(snap.prometheus.contains("magus_ctl_epochs 1"));
    assert_eq!(snap.prometheus, fleet_prometheus(1, Some(&summary)));

    client.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn server_side_errors_become_typed_rejections() {
    let daemon = Daemon::spawn();
    let mut client = CtlClient::connect(daemon.addr).expect("connect");
    let err = client.leave(99).expect_err("unknown node");
    assert!(
        matches!(&err, CtlError::Server(msg) if msg.contains("99")),
        "{err}"
    );
    // The connection survives a rejected request.
    assert_eq!(
        client.join(SystemId::IntelA100, 1, 0).expect("join"),
        vec![0]
    );
    client.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn subscription_streams_one_frame_per_epoch() {
    let daemon = Daemon::spawn();
    let mut driver = CtlClient::connect(daemon.addr).expect("connect driver");
    join_armed(&mut driver, 1);

    let mut sub = CtlClient::connect(daemon.addr)
        .expect("connect subscriber")
        .subscribe()
        .expect("subscribe");
    assert_eq!(sub.since_epoch, 0);

    driver.advance().expect("advance 1");
    driver.advance().expect("advance 2");
    // Both epochs run the same one-node roster.
    let jsonl = epoch_jsonl(1);
    for epoch in [1, 2] {
        assert_eq!(
            sub.next_event().expect("stream frame"),
            Some(SubEvent::Telemetry {
                epoch,
                jsonl: jsonl.clone(),
            })
        );
    }

    driver.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn graceful_shutdown_drains_subscribers_before_close() {
    let daemon = Daemon::spawn();
    let mut driver = CtlClient::connect(daemon.addr).expect("connect driver");
    join_armed(&mut driver, 2);

    let mut sub = CtlClient::connect(daemon.addr)
        .expect("connect subscriber")
        .subscribe()
        .expect("subscribe");

    // Queue an epoch frame, then shut down *without* the subscriber
    // reading anything: the pending telemetry must still be delivered,
    // then the shutting-down frame, then a clean close — in that order.
    driver.advance().expect("advance");
    driver.shutdown().expect("shutdown");

    assert_eq!(
        sub.next_event()
            .expect("queued telemetry survives shutdown"),
        Some(SubEvent::Telemetry {
            epoch: 1,
            jsonl: epoch_jsonl(2),
        })
    );
    assert_eq!(
        sub.next_event().expect("final frame"),
        Some(SubEvent::ShuttingDown)
    );
    assert_eq!(sub.next_event().expect("clean close"), None);

    daemon.join();
}

/// Run `round_trip` `n` times and fail if that takes a second or more:
/// 50 small exchanges on loopback take a few ms, while one held by
/// Nagle's algorithm until a delayed ACK takes ~40 ms on its own.
fn assert_quick(what: &str, n: usize, mut round_trip: impl FnMut()) {
    let start = Instant::now();
    for _ in 0..n {
        round_trip();
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "{n} {what} round trips took {took:?}"
    );
}

#[test]
fn small_replies_are_not_held_by_nagle() {
    let daemon = Daemon::spawn();
    let mut client = CtlClient::connect(daemon.addr).expect("connect");
    assert_quick("join+leave", 50, || {
        let ids = client.join(SystemId::IntelA100, 1, 0).expect("join");
        client.leave(ids[0]).expect("leave");
    });

    // A client that sends each frame in one write and leaves Nagle on, as
    // the benchmark runner and third-party clients do: only the daemon's
    // side of the exchange is under test. The block closes the socket
    // before shutdown, since `Server::run` joins every connection thread.
    {
        let raw = TcpStream::connect(daemon.addr).expect("raw connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut send = |payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(payload);
            (&raw).write_all(&frame).expect("send frame");
            proto::read_message::<Response>(&mut reader)
                .expect("reply")
                .expect("open stream")
        };
        let hello = format!(r#"{{"type":"hello","protocol":{PROTOCOL_VERSION}}}"#);
        let reply = send(hello.as_bytes());
        assert!(matches!(reply, Response::HelloOk { .. }), "{reply:?}");
        assert_quick("raw join_node", 50, || {
            let reply = send(br#"{"type":"join_node","system":"IntelA100","count":1}"#);
            assert!(matches!(reply, Response::Joined { .. }), "{reply:?}");
        });
    }

    client.shutdown().expect("shutdown");
    daemon.join();
}

/// Read the daemon's length-prefixed error reply off a raw socket.
fn read_error(stream: &TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    match proto::read_message::<Response>(&mut reader) {
        Ok(Some(Response::Error { message })) => message,
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn truncated_frames_get_an_error_frame_and_a_dropped_connection() {
    let daemon = Daemon::spawn();
    let mut stream = TcpStream::connect(daemon.addr).expect("raw connect");

    // Header promises 100 bytes; deliver 10 and half-close.
    stream.write_all(&100u32.to_le_bytes()).expect("header");
    stream.write_all(&[b'{'; 10]).expect("partial payload");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let message = read_error(&stream);
    assert!(message.contains("truncated"), "{message}");
    assert!(
        message.contains("100") && message.contains("10"),
        "{message}"
    );

    let mut driver = CtlClient::connect(daemon.addr).expect("daemon still serves");
    driver.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn oversized_headers_are_refused_without_reading_the_payload() {
    let daemon = Daemon::spawn();
    let mut stream = TcpStream::connect(daemon.addr).expect("raw connect");

    let len = (MAX_FRAME_BYTES as u32) + 1;
    stream.write_all(&len.to_le_bytes()).expect("header");
    stream.flush().expect("flush");

    // The rejection arrives immediately — no payload was ever sent.
    let message = read_error(&stream);
    assert!(message.contains("oversized"), "{message}");

    let mut driver = CtlClient::connect(daemon.addr).expect("daemon still serves");
    driver.shutdown().expect("shutdown");
    daemon.join();
}

/// A reader over `bytes` that records the largest read it was asked for.
struct Recording<'a> {
    bytes: &'a [u8],
    largest: usize,
}

impl Read for Recording<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.bytes.read(buf)
    }
}

#[test]
fn a_max_size_header_reserves_nothing_before_its_payload() {
    let mut frame = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    frame.extend([b'{'; 10]);
    let mut reader = Recording {
        bytes: &frame,
        largest: 0,
    };
    match proto::read_frame(&mut reader) {
        Err(ProtoError::Truncated { expected, got }) => {
            assert_eq!((expected, got), (MAX_FRAME_BYTES, 10));
        }
        other => panic!("expected a truncated frame, got {other:?}"),
    }
    // A buffer reserved up front would have been handed to one read whole.
    assert!(
        reader.largest < 64 * 1024,
        "read_frame asked for {} bytes at once",
        reader.largest
    );
}

#[test]
fn unknown_variants_are_refused_with_the_serde_error() {
    let daemon = Daemon::spawn();
    let mut stream = TcpStream::connect(daemon.addr).expect("raw connect");

    let payload = br#"{"type":"frobnicate"}"#;
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("header");
    stream.write_all(payload).expect("payload");
    stream.flush().expect("flush");

    let message = read_error(&stream);
    assert!(message.contains("malformed"), "{message}");
    assert!(message.contains("frobnicate"), "{message}");

    let mut driver = CtlClient::connect(daemon.addr).expect("daemon still serves");
    driver.shutdown().expect("shutdown");
    daemon.join();
}
