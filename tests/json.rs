//! JSON output and input across versions: the writer's bytes stay what
//! the committed goldens under `tests/fixtures/json/` say, and the reader
//! parses an object in time linear in its size, whatever it holds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

mod golden;
use golden::assert_matches_golden;

use magus_suite::ctl::fleet_prometheus;
use magus_suite::ctl::proto::{read_message, write_frame, write_message};
use magus_suite::ctl::{Request, Response, PROTOCOL_VERSION};
use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
use magus_suite::experiments::fleet::{run_fleet, run_fleet_with_telemetry, FleetSpec};
use magus_suite::experiments::harness::SystemId;
use magus_suite::hetsim::FaultPlan;
use magus_suite::workloads::io::load_traffic_spec;
use magus_suite::workloads::{AppId, TrafficSpec};

fn fixture(dir: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name)
}

/// The payload of the frame `write` puts in a buffer, checked against
/// the frame's length header.
fn frame_payload(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut frame = Vec::new();
    write(&mut frame);
    let (header, payload) = frame.split_at(4);
    let len = u32::from_le_bytes(header.try_into().expect("4-byte header"));
    assert_eq!(len as usize, payload.len());
    String::from_utf8(payload.to_vec()).expect("JSON is UTF-8")
}

/// One compact frame payload per line: every ctl request variant, then
/// every response variant, carrying a 2-node fleet's summary, Prometheus
/// text and telemetry stream, and strings that need escapes.
fn ctl_frames() -> String {
    let (run, jsonl) = run_fleet_with_telemetry(&FleetSpec {
        max_s: 1.0,
        ..FleetSpec::new(GovernorSpec::magus_default(), 2)
    });
    let summary = run.summary;
    let requests = [
        Request::Hello {
            protocol: PROTOCOL_VERSION,
        },
        Request::JoinNode {
            system: SystemId::AmdMi210,
            count: 4,
            start_offset_us: 250_000,
        },
        Request::LeaveNode { node: 7 },
        Request::SubmitWorkload {
            node: 3,
            app: Some(AppId::Srad),
            traffic: None,
        },
        Request::SubmitWorkload {
            node: 4,
            app: None,
            traffic: Some(TrafficSpec::default()),
        },
        Request::Advance,
        Request::Subscribe,
        Request::Snapshot,
        Request::Shutdown,
    ];
    let responses = [
        Response::HelloOk {
            protocol: PROTOCOL_VERSION,
            server: "magus \"ctl\"\\test".into(),
        },
        Response::Joined {
            nodes: vec![0, 1, u64::MAX],
        },
        Response::Joined { nodes: Vec::new() },
        Response::Left { node: 7 },
        Response::Submitted { node: 3 },
        Response::Advanced {
            epoch: 1,
            nodes: 2,
            summary: summary.clone(),
        },
        Response::Subscribed { epoch: 0 },
        Response::SnapshotOk {
            epoch: 1,
            prometheus: fleet_prometheus(1, Some(&summary)),
            summary: Some(summary),
        },
        Response::SnapshotOk {
            epoch: 0,
            summary: None,
            prometheus: fleet_prometheus(0, None),
        },
        Response::Telemetry { epoch: 1, jsonl },
        Response::ShuttingDown,
        Response::Error {
            message: "bad\tframe\u{1}\u{7f}é".into(),
        },
    ];
    let mut out = String::new();
    let payloads = requests
        .iter()
        .map(|r| frame_payload(|buf| write_message(buf, r).expect("in-memory write")))
        .chain(
            responses
                .iter()
                .map(|r| frame_payload(|buf| write_message(buf, r).expect("in-memory write"))),
        );
    for payload in payloads {
        out.push_str(&payload);
        out.push('\n');
    }
    out
}

/// JSON output bytes stay what the committed goldens under
/// `tests/fixtures/json/` say. With `P` = `tests/fixtures/telemetry/faults.json`
/// and `T` = `tests/fixtures/telemetry/traffic.json`, `fleet_summary.json`
/// and `run_srad_ups.json` were written by
///
/// ```text
/// magus --faults P fleet --nodes 16 --runtime magus --budget 10 --shards 2 --traffic T \
///     --summary fleet_summary.json
/// magus --no-cache run --app srad --runtime ups --json > run_srad_ups.json
/// ```
///
/// and `ctl_frames.jsonl` holds one compact `proto::write_message` frame
/// payload of every ctl `Request` and `Response` variant, as
/// [`ctl_frames`] builds them. They cover pretty and compact text,
/// `node_fault_counters`, `node_deadline_misses`, the `[tenant, J]` pairs
/// of `tenant_energy_j`, samples, untagged event fields, `Option`s,
/// `tag`ged enums, empty arrays and escaped strings. A change that means
/// to alter these bytes regenerates the fixtures with those commands and
/// says why in its change notes.
#[test]
fn json_output_matches_the_committed_goldens() {
    let telemetry = |name| fixture("telemetry", name);
    let plan: FaultPlan =
        serde::from_str(&std::fs::read_to_string(telemetry("faults.json")).unwrap())
            .expect("fault plan");
    let spec = FleetSpec {
        max_s: 10.0,
        shards: 2,
        faults: Some(plan),
        ..FleetSpec::new(GovernorSpec::magus_default(), 16)
    }
    .with_traffic(load_traffic_spec(&telemetry("traffic.json")).expect("traffic spec"));
    let mut summary = serde::to_string_pretty(&run_fleet(&spec).summary);
    summary.push('\n');
    assert_matches_golden(&fixture("json", "fleet_summary.json"), &summary);

    let engine = Engine::ephemeral().with_telemetry();
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Srad,
        GovernorSpec::ups_default(),
    );
    let mut run = serde::to_string_pretty(&engine.run(&spec.recorded()).result);
    run.push('\n');
    assert_matches_golden(&fixture("json", "run_srad_ups.json"), &run);

    assert_matches_golden(&fixture("json", "ctl_frames.jsonl"), &ctl_frames());
}

/// `{"type":<tag>` + `pad` numbered filler keys + `tail`.
fn padded_request(tag: &str, pad: usize, tail: &str) -> String {
    let mut text = format!("{{\"type\":\"{tag}\"");
    for i in 0..pad {
        text.push_str(&format!(",\"k{i}\":{i}"));
    }
    text.push_str(tail);
    text.push('}');
    text
}

/// Decode `text` as a ctl request twice: with `serde::from_str`, and
/// as a wire frame through `proto::read_message`; both must agree, and the
/// two together must take under `limit`.
fn decode_request(text: &str, limit: Duration) -> Request {
    let start = Instant::now();
    let direct: Request = serde::from_str(text).expect("request parses");
    let mut frame = Vec::new();
    write_frame(&mut frame, text.as_bytes()).expect("in-memory write");
    let framed: Request = read_message(&mut frame.as_slice())
        .expect("frame reads")
        .expect("one frame");
    let took = start.elapsed();
    assert!(took < limit, "{} bytes took {took:?} to decode", text.len());
    assert_eq!(direct, framed);
    direct
}

/// An object's parse is linear in its size: a 200 000-key frame decodes in
/// well under 5 s, where a key-by-key scan for repeats made the parse
/// quadratic (minutes for these frames, hours for one at the 64 MiB frame
/// limit). A repeated key means what it always meant, in small and large
/// objects alike: the last value wins.
#[test]
fn large_objects_parse_in_linear_time() {
    let limit = Duration::from_secs(5);
    let big = padded_request("snapshot", 200_000, "");
    assert_eq!(decode_request(&big, limit), Request::Snapshot);

    let small = r#"{"type":"leave_node","node":1,"node":2}"#;
    assert_eq!(decode_request(small, limit), Request::LeaveNode { node: 2 });
    let repeated = padded_request(
        "advance",
        200_000,
        r#","count":9,"system":"IntelA100","count":3,"type":"join_node""#,
    );
    assert_eq!(
        decode_request(&repeated, limit),
        Request::JoinNode {
            system: SystemId::IntelA100,
            count: 3,
            start_offset_us: 0,
        }
    );
}
