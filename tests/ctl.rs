//! Control-plane end-to-end tests: a real [`FleetDaemon`] on loopback
//! sockets, driven through the real [`CtlClient`], must be
//! indistinguishable from the in-process batch harness — the
//! `FleetSummary` bit-identical, the streamed telemetry JSONL
//! byte-identical, and `/metrics` serving the exact Prometheus text the
//! batch rendering produces. These are the in-process counterparts of
//! CI's `control-plane-systemtest` job.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use magus_suite::ctl::{
    bind_with_retries, fleet_prometheus, peak_rss_kb, serve_fleet, CtlClient, ServeConfig,
    SubEvent, Subscription,
};
use magus_suite::experiments::engine::GovernorSpec;
use magus_suite::experiments::fleet::{fleet_app, FleetSpec};
use magus_suite::experiments::harness::SystemId;
use magus_suite::hetsim::fleet::FleetSummary;

const NODES: u32 = 8;
const BUDGET_S: f64 = 60.0;

/// The daemon configuration the whole file drives (ephemeral ports, MAGUS
/// governor).
fn test_config() -> ServeConfig {
    ServeConfig {
        governor: GovernorSpec::magus_default(),
        budget_s: BUDGET_S,
        shards: 1,
        ..ServeConfig::default()
    }
}

/// The batch spec equivalent to a drive session of `nodes` nodes against
/// [`test_config`]'s daemon.
fn batch_spec(nodes: usize) -> FleetSpec {
    FleetSpec {
        max_s: BUDGET_S,
        ..FleetSpec::new(GovernorSpec::magus_default(), nodes)
    }
}

/// Run the batch fleet armed and return (summary, telemetry JSONL).
fn batch_run(nodes: usize) -> (FleetSummary, String) {
    let (run, jsonl) =
        magus_suite::experiments::fleet::run_fleet_with_telemetry(&batch_spec(nodes));
    (run.summary, jsonl)
}

/// Block until the subscription yields `epoch`'s telemetry frame.
fn telemetry_frame(sub: &mut Subscription, epoch: u64) -> String {
    loop {
        match sub.next_event().expect("subscription frame") {
            Some(SubEvent::Telemetry { epoch: e, jsonl }) if e == epoch => return jsonl,
            Some(_) => {}
            None => panic!("subscription closed before epoch {epoch}'s frame"),
        }
    }
}

/// One blocking HTTP/1.0-style exchange; returns the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: magus\r\nConnection: close\r\n\r\n"
    )
    .expect("http request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("http response");
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");
    body.to_string()
}

#[test]
fn daemon_session_is_bit_identical_to_batch_fleet() {
    let server = serve_fleet(test_config()).expect("bind daemon");
    let ctl_addr = server.ctl_addr().expect("ctl addr");
    let http_addr = server.http_addr().expect("http addr");
    let runner = thread::spawn(move || server.run());

    let mut client = CtlClient::connect(ctl_addr).expect("connect");
    let ids = client
        .join(SystemId::IntelA100, NODES, 0)
        .expect("join nodes");
    assert_eq!(ids.len(), NODES as usize);
    for (i, id) in ids.iter().enumerate() {
        client.submit(*id, fleet_app(i)).expect("submit workload");
    }

    // Subscribe on a second connection before advancing, exactly as
    // `magus ctl drive` does.
    let mut sub = CtlClient::connect(ctl_addr)
        .expect("connect subscriber")
        .subscribe()
        .expect("subscribe");

    let (epoch, daemon_summary) = client.advance().expect("advance");
    assert_eq!(epoch, 1);
    let daemon_jsonl = telemetry_frame(&mut sub, epoch);
    assert!(
        !daemon_jsonl.is_empty(),
        "a subscribed epoch records events"
    );

    let (batch_summary, batch_jsonl) = batch_run(NODES as usize);
    assert_eq!(
        daemon_summary, batch_summary,
        "daemon epoch diverged from the batch fleet"
    );
    assert_eq!(
        daemon_jsonl, batch_jsonl,
        "streamed telemetry diverged from the batch rendering"
    );

    // The snapshot's Prometheus text is the pure rendering of (epochs,
    // summary) — equal to the batch side's by summary bit-identity.
    let snap = client.snapshot().expect("snapshot");
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.summary.as_ref(), Some(&batch_summary));
    assert_eq!(snap.prometheus, fleet_prometheus(1, Some(&batch_summary)));

    // `GET /metrics` serves the same bytes the protocol snapshot carries.
    assert_eq!(http_get(http_addr, "/metrics"), snap.prometheus);
    assert_eq!(http_get(http_addr, "/healthz"), "ok\n");

    // Membership changes take effect at the next round boundary: after a
    // leave, the next epoch equals a batch fleet of the remaining nodes.
    client
        .leave(*ids.last().expect("joined ids"))
        .expect("leave");
    let (epoch, daemon_summary) = client.advance().expect("advance after leave");
    assert_eq!(epoch, 2);
    let daemon_jsonl = telemetry_frame(&mut sub, epoch);
    let (batch_summary, batch_jsonl) = batch_run(NODES as usize - 1);
    assert_eq!(daemon_summary, batch_summary);
    assert_eq!(daemon_jsonl, batch_jsonl);

    client.shutdown().expect("shutdown");
    // Graceful drain: the stream ends with a shutting-down frame, then a
    // clean close — and the server loop exits once subscribers finish.
    loop {
        match sub.next_event().expect("drain") {
            Some(SubEvent::ShuttingDown) => {}
            Some(SubEvent::Telemetry { .. }) => {}
            None => break,
        }
    }
    runner
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

/// An epoch with no subscriber renders no telemetry. A subscriber that
/// registers after it learns that epoch 1 already started, and its first
/// frame is epoch 2's, byte-identical to the batch rendering.
#[test]
fn late_subscribers_get_frames_from_the_next_epoch_on() {
    let server = serve_fleet(ServeConfig {
        http_addr: None,
        ..test_config()
    })
    .expect("bind daemon");
    let ctl_addr = server.ctl_addr().expect("ctl addr");
    let runner = thread::spawn(move || server.run());

    let mut client = CtlClient::connect(ctl_addr).expect("connect");
    let ids = client.join(SystemId::IntelA100, 2, 0).expect("join");
    for (i, id) in ids.iter().enumerate() {
        client.submit(*id, fleet_app(i)).expect("submit workload");
    }
    let (epoch, unwatched) = client.advance().expect("advance without subscribers");
    assert_eq!(epoch, 1);

    let mut sub = CtlClient::connect(ctl_addr)
        .expect("connect subscriber")
        .subscribe()
        .expect("subscribe");
    assert_eq!(sub.since_epoch, 1);
    let (epoch, watched) = client.advance().expect("advance with a subscriber");
    assert_eq!(epoch, 2);
    assert_eq!(watched, unwatched, "arming changed the epoch's results");
    let (batch_summary, batch_jsonl) = batch_run(2);
    assert_eq!(watched, batch_summary);
    assert!(!batch_jsonl.is_empty());
    assert_eq!(
        sub.next_event().expect("first frame"),
        Some(SubEvent::Telemetry {
            epoch: 2,
            jsonl: batch_jsonl,
        })
    );

    client.shutdown().expect("shutdown");
    assert_eq!(
        sub.next_event().expect("final frame"),
        Some(SubEvent::ShuttingDown)
    );
    runner
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

/// A snapshot between two advances: every reply must arrive within a
/// timeout. The daemon once rendered the snapshot's metrics text while
/// still holding the last-summary lock that rendering takes again, so the
/// first snapshot after an advance hung the connection.
#[test]
fn snapshot_between_advances_replies_promptly() {
    let server = serve_fleet(ServeConfig {
        http_addr: None,
        budget_s: 5.0,
        ..test_config()
    })
    .expect("bind daemon");
    let ctl_addr = server.ctl_addr().expect("ctl addr");
    let runner = thread::spawn(move || server.run());

    // The client runs on its own thread so a hung reply fails the test
    // instead of hanging it.
    let (tx, replies) = mpsc::channel();
    let client = thread::spawn(move || {
        let mut client = CtlClient::connect(ctl_addr).expect("connect");
        let ids = client.join(SystemId::IntelA100, 2, 0).expect("join");
        for (i, id) in ids.iter().enumerate() {
            client.submit(*id, fleet_app(i)).expect("submit workload");
        }
        let (epoch, _) = client.advance().expect("advance");
        tx.send(format!("advanced {epoch}")).expect("report");
        let snap = client.snapshot().expect("snapshot");
        assert!(snap.summary.is_some(), "snapshot after an advance");
        tx.send(format!("snapshot {}", snap.epoch)).expect("report");
        let (epoch, _) = client.advance().expect("advance after snapshot");
        tx.send(format!("advanced {epoch}")).expect("report");
        client.shutdown().expect("shutdown");
        tx.send("shut down".to_string()).expect("report");
    });
    for want in ["advanced 1", "snapshot 1", "advanced 2", "shut down"] {
        let got = replies
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("no `{want}` reply: {e}"));
        assert_eq!(got, want);
    }
    client.join().expect("client thread");
    runner
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

#[test]
fn advancing_an_empty_or_dormant_roster_is_a_typed_error() {
    let server = serve_fleet(test_config()).expect("bind daemon");
    let ctl_addr = server.ctl_addr().expect("ctl addr");
    let runner = thread::spawn(move || server.run());

    let mut client = CtlClient::connect(ctl_addr).expect("connect");
    let err = client.advance().expect_err("empty roster cannot advance");
    assert!(
        matches!(&err, magus_suite::ctl::CtlError::Server(_)),
        "{err}"
    );

    // Joined-but-dormant nodes (no workload submitted) don't arm the
    // fleet either.
    client.join(SystemId::IntelA100, 2, 0).expect("join");
    let err = client.advance().expect_err("dormant roster cannot advance");
    assert!(
        matches!(&err, magus_suite::ctl::CtlError::Server(_)),
        "{err}"
    );

    client.shutdown().expect("shutdown");
    runner
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

#[test]
fn platform_guards_and_bind_retries_hold() {
    // VmHWM is always present on Linux; elsewhere the guard returns None
    // instead of failing.
    if cfg!(target_os = "linux") {
        assert!(peak_rss_kb().expect("VmHWM on Linux") > 0);
    } else {
        let _ = peak_rss_kb();
    }
    let listener = bind_with_retries("127.0.0.1:0", 3).expect("ephemeral bind");
    assert_ne!(listener.local_addr().expect("local addr").port(), 0);
}
