//! Failure-injection and robustness integration tests: a production
//! runtime must survive flaky counters and misbehaving register access
//! without crashing or destroying the application's performance.

use std::collections::BTreeSet;
use std::fs;
use std::io::{BufRead, BufReader};
use std::panic::{self, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};

use magus_suite::ctl::Request;
use magus_suite::experiments::drivers::{MagusDriver, NoopDriver, RuntimeDriver};
use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
use magus_suite::experiments::fleet::FleetSpec;
use magus_suite::experiments::harness::{run_trial, SystemId, TrialOpts};
use magus_suite::experiments::metrics::Comparison;
use magus_suite::hetsim::{FaultPlan, Node, NodeConfig, Simulation};
use magus_suite::msr::{MsrScope, MSR_UNCORE_RATIO_LIMIT};
use magus_suite::telemetry::FieldValue;
use magus_suite::workloads::{app_trace, AppId, Platform, TrafficSpec};

/// PCM dropouts (reads that fail) during a MAGUS run must not crash the
/// runtime and must keep performance loss within the paper band.
#[test]
fn magus_survives_pcm_dropouts() {
    let system = SystemId::IntelA100;
    let app = AppId::Unet;
    let mut base = NoopDriver;
    let baseline = run_trial(system, app, &mut base, TrialOpts::default());

    // Run manually so we can inject dropouts on the node.
    let mut sim = Simulation::new(Node::new(system.node_config()));
    sim.load(app_trace(app, Platform::IntelA100));
    let dropouts = FaultPlan::builder().pcm_dropout_every(5).build().unwrap();
    sim.node_mut().set_fault_plan(dropouts);
    let mut driver = MagusDriver::with_defaults();
    driver.attach(&mut sim);
    let mut next_due = 0u64;
    while !sim.done() && sim.node().time_s() < 600.0 {
        if sim.node().time_us() >= next_due {
            let latency = driver.on_decision(&mut sim);
            next_due = sim.node().time_us() + latency + driver.rest_interval_us();
        }
        sim.step();
    }
    let summary = sim.summary(0);
    assert!(summary.completed);
    let cmp = Comparison::against(&baseline.summary, &summary);
    // Each dropout holds the previous decision for a cycle; losses may
    // rise but must stay bounded and the node must keep making progress.
    assert!(cmp.perf_loss_pct < 12.0, "loss {}%", cmp.perf_loss_pct);
}

/// Failing uncore-limit writes degrade every governor instead of crashing
/// it, on Intel `0x620` writes and AMD HSMP pins alike. Each trial returns, and each governor that writes the uncore counts
/// the failed writes. When every write fails (a dead MSR bus), the deciding
/// governors exhaust their retries, hold the previous limit and report why;
/// a socket that every retry of a `fixed:` pin fails to reach stays on the
/// stock governor. When every second write fails, the retry of each
/// failed write, on its own socket, lands: every governor that writes
/// reaches both sockets and none degrades.
#[test]
fn actuation_faults_surface_as_errors() {
    // (trial, writes the uncore, its degradation event), on the Intel node
    // (`0x620` writes) and the AMD node (HSMP mailbox pins).
    let governors: Vec<_> = [SystemId::IntelA100, SystemId::AmdMi210]
        .into_iter()
        .flat_map(|system| {
            let trial = move |governor| TrialSpec::new(system, AppId::Bfs, governor);
            [
                (trial(GovernorSpec::Default), false, None),
                (trial(GovernorSpec::Fixed { ghz: 1.2 }), true, None),
                (
                    trial(GovernorSpec::ups_default()),
                    true,
                    Some("ups_degraded"),
                ),
                (
                    trial(GovernorSpec::magus_default()),
                    true,
                    Some("magus_degraded"),
                ),
            ]
        })
        .collect();
    let engine = Engine::ephemeral().with_telemetry();
    let actuation = FieldValue::Str("actuation".into());
    let mut panicked = Vec::new();
    for every in [1, 2] {
        let plan = FaultPlan::builder()
            .uncore_write_fail_every(every)
            .build()
            .unwrap();
        for (spec, writes, degraded) in &governors {
            let spec = spec.clone().with_faults(plan);
            let case = format!("{} (every {every})", spec.label());
            let Ok(out) = panic::catch_unwind(AssertUnwindSafe(|| engine.run(&spec))) else {
                panicked.push(case);
                continue;
            };
            let events = &out.result.events;
            let fails = out.result.fault_counters.msr_write_fails;
            assert_eq!(fails > 0, *writes, "{case}: {fails} failed writes");
            if let Some(kind) = degraded {
                let gave_up = events
                    .iter()
                    .any(|e| e.kind == *kind && e.fields.get("reason") == Some(&actuation));
                assert_eq!(
                    gave_up,
                    every == 1,
                    "{case}: {kind}{{reason=\"actuation\"}}"
                );
            }
            let landed: BTreeSet<u64> = events
                .iter()
                .filter(|e| e.kind == "uncore_limit_write")
                .filter_map(|e| match e.fields.get("pkg") {
                    Some(FieldValue::U64(pkg)) => Some(*pkg),
                    _ => None,
                })
                .collect();
            let reached = if *writes && every == 2 {
                BTreeSet::from([0, 1])
            } else {
                BTreeSet::new()
            };
            assert_eq!(landed, reached, "{case}: sockets whose uncore limit landed");
        }
    }
    assert!(panicked.is_empty(), "trials panicked: {panicked:?}");
}

/// Writing garbage to 0x620 must clamp, not corrupt: the uncore stays
/// within its hardware range whatever a buggy tool writes.
#[test]
fn garbage_msr_writes_are_clamped() {
    let mut node = Node::new(NodeConfig::intel_a100());
    node.msr_write(
        MsrScope::Package(0),
        MSR_UNCORE_RATIO_LIMIT,
        0xffff_ffff_ffff_ffff,
    )
    .unwrap();
    node.msr_write(MsrScope::Package(1), MSR_UNCORE_RATIO_LIMIT, 0)
        .unwrap();
    for _ in 0..200 {
        node.step(
            10_000,
            &magus_suite::hetsim::Demand::new(30.0, 0.4, 0.3, 0.7),
        );
    }
    for socket in node.sockets() {
        let f = socket.uncore.freq_ghz();
        assert!((0.8..=2.2).contains(&f), "uncore escaped range: {f}");
    }
}

/// Interrupting a run mid-flight leaves a consistent node: energies
/// monotone, counters readable, and the run can continue afterwards.
#[test]
fn truncated_runs_remain_consistent() {
    let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
    sim.load(app_trace(AppId::Sort, Platform::IntelA100));
    let mut driver = MagusDriver::with_defaults();
    driver.attach(&mut sim);
    for _ in 0..500 {
        sim.step();
    }
    let e1 = sim.node().energy().total_j();
    let summary_mid = sim.summary(0);
    assert!(!summary_mid.completed);
    for _ in 0..500 {
        sim.step();
    }
    assert!(sim.node().energy().total_j() > e1);
    assert!(sim.progress_s() > 0.0);
}

/// The committed JSON inputs the mutation loop below starts from: a fault
/// plan, a traffic spec and a fleet spec.
const JSON_FIXTURES: [&str; 3] = [
    include_str!("fixtures/telemetry/faults.json"),
    include_str!("fixtures/telemetry/traffic.json"),
    include_str!("../crates/experiments/tests/fixtures/fleet_spec_sharing_switches.json"),
];

/// Bytes each position of a fixture is replaced by, one at a time.
const REPLACEMENTS: &[u8] = b"\"{}[],:-9e.\\n \x00\xff";

/// Every mutation of `fixture`: each truncation, each single-byte
/// replacement by one of [`REPLACEMENTS`], and a 400-digit number inserted
/// before each byte.
fn mutations(fixture: &[u8]) -> Vec<Vec<u8>> {
    let long_number = vec![b'9'; 400];
    let mut out: Vec<Vec<u8>> = (0..fixture.len()).map(|n| fixture[..n].to_vec()).collect();
    for i in 0..fixture.len() {
        for &b in REPLACEMENTS {
            let mut m = fixture.to_vec();
            m[i] = b;
            out.push(m);
        }
    }
    for i in 0..fixture.len() {
        let mut m = fixture[..i].to_vec();
        m.extend_from_slice(&long_number);
        m.extend_from_slice(&fixture[i..]);
        out.push(m);
    }
    out
}

/// Decode `input` as every JSON input type and validate what decodes. Any
/// outcome is fine except a panic.
fn decode_all(input: &[u8]) {
    if let Ok(plan) = serde::from_slice::<FaultPlan>(input) {
        let _ = plan.validate();
    }
    if let Ok(traffic) = serde::from_slice::<TrafficSpec>(input) {
        let _ = traffic.validate();
    }
    let _ = serde::from_slice::<FleetSpec>(input);
}

/// Truncated, byte-flipped and number-bloated fault plans, traffic specs
/// and fleet specs decode to `Ok` or `Err` and validate without a panic.
#[test]
fn mutated_json_inputs_never_panic() {
    assert_eq!(REPLACEMENTS.len(), 16);
    // The unmutated fixtures decode as their own types, so the mutations
    // start from valid inputs.
    let [faults, traffic, fleet] = JSON_FIXTURES;
    serde::from_str::<FaultPlan>(faults).expect("fault plan fixture decodes");
    serde::from_str::<TrafficSpec>(traffic).expect("traffic fixture decodes");
    serde::from_str::<FleetSpec>(fleet).expect("fleet spec fixture decodes");
    let mut inputs = 0;
    for (f, fixture) in JSON_FIXTURES.iter().enumerate() {
        for (m, input) in mutations(fixture.as_bytes()).iter().enumerate() {
            inputs += 1;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| decode_all(input)));
            assert!(
                outcome.is_ok(),
                "fixture {f}, mutation {m} panicked on input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }
    let bytes: usize = JSON_FIXTURES.iter().map(|f| f.len()).sum();
    assert_eq!(inputs, bytes * (1 + REPLACEMENTS.len() + 1));
}

/// Every decode outcome of the mutation corpus, pinned: each mutation of
/// the [`JSON_FIXTURES`] decoded as a `FaultPlan`, a `TrafficSpec` and a
/// `FleetSpec`, then each mutation of the nine request frames of
/// `fixtures/json/ctl_frames.jsonl` (internally tagged enums) decoded as a
/// ctl `Request`. Each outcome is written `ok {value:?}` or `err {error}`
/// and folded, with a 0 byte after it, into one FNV-1a-64 digest.
///
/// The constants were computed by this test on the reader of commit
/// `f3c450d`, which indexed every object's keys in a hash table; a change
/// to the reader must leave every decoded value and every error text, and
/// so the digest and both counts, as they are.
#[test]
fn decode_outcomes_match_the_parent() {
    const DIGEST: u64 = 0x7b2d_b8ed_3764_7d01;
    const OKS: usize = 11_653;
    const ERRS: usize = 25_643;
    fn outcome<T: std::fmt::Debug>(r: Result<T, serde::Error>) -> String {
        match r {
            Ok(value) => format!("ok {value:?}"),
            Err(error) => format!("err {error}"),
        }
    }
    let mut outcomes = Vec::new();
    for fixture in JSON_FIXTURES {
        for input in mutations(fixture.as_bytes()) {
            outcomes.push(outcome(serde::from_slice::<FaultPlan>(&input)));
            outcomes.push(outcome(serde::from_slice::<TrafficSpec>(&input)));
            outcomes.push(outcome(serde::from_slice::<FleetSpec>(&input)));
        }
    }
    let frames = include_str!("fixtures/json/ctl_frames.jsonl");
    for frame in frames.lines().take(9) {
        serde::from_str::<Request>(frame).expect("a request frame decodes");
        for input in mutations(frame.as_bytes()) {
            outcomes.push(outcome(serde::from_slice::<Request>(&input)));
        }
    }
    let digest = outcomes
        .iter()
        .flat_map(|o| o.bytes().chain([0]))
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    let oks = outcomes.iter().filter(|o| o.starts_with("ok ")).count();
    let errs = outcomes.len() - oks;
    assert_eq!(
        (digest, oks, errs),
        (DIGEST, OKS, ERRS),
        "decode outcomes changed: digest {digest:#018x}, {oks} ok, {errs} err"
    );
}

/// A reader that closes the CLI's stdout early (`magus list | head -1`)
/// ends the command quietly: exit 0 and no panic.
#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    // The read end is closed before the child starts, so its first line
    // already meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_magus"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("spawn magus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A `--budget` whose µs count does not fit the fleet clock is a usage
/// error, not a panic: `magus fleet` exits 1 with an `error:` line.
#[test]
fn an_overflowing_fleet_budget_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_magus"))
        .args(["--no-cache", "fleet", "--nodes", "1", "--budget", "1e300"])
        .output()
        .expect("spawn magus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: --budget"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A child process that is killed and reaped when dropped, so a failed
/// assertion leaves no daemon running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `ctl drive` without `--telemetry` does not subscribe, so its epoch is
/// not armed and no telemetry frame is rendered: a 4 096-node session,
/// whose single telemetry frame would pass the 64 MiB frame limit, writes
/// the same summary bytes as `magus fleet` with the same spec.
#[test]
fn a_drive_past_the_telemetry_frame_limit_equals_the_batch_fleet() {
    let magus = env!("CARGO_BIN_EXE_magus");
    let dir = std::env::temp_dir().join(format!("magus-drive-4096-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let mut serve = Reaped(
        Command::new(magus)
            .args(["serve", "--addr", "127.0.0.1:0", "--no-http"])
            .args(["--runtime", "magus", "--budget", "30"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn magus serve"),
    );
    let mut line = String::new();
    BufReader::new(serve.0.stdout.take().expect("serve stdout"))
        .read_line(&mut line)
        .expect("read the CTL_ADDR line");
    let addr = line
        .trim()
        .strip_prefix("CTL_ADDR=")
        .unwrap_or_else(|| panic!("serve printed {line:?}"));

    let daemon = dir.join("daemon.json");
    let drive = Command::new(magus)
        .args([
            "ctl",
            "--addr",
            addr,
            "drive",
            "--nodes",
            "4096",
            "--shutdown",
        ])
        .arg("--summary")
        .arg(&daemon)
        .output()
        .expect("run magus ctl drive");
    assert!(
        drive.status.success(),
        "{}",
        String::from_utf8_lossy(&drive.stderr)
    );
    assert!(serve.0.wait().expect("wait for serve").success());

    let batch = dir.join("batch.json");
    let fleet = Command::new(magus)
        .args(["--no-cache", "fleet", "--nodes", "4096"])
        .args(["--runtime", "magus", "--budget", "30", "--summary"])
        .arg(&batch)
        .output()
        .expect("run magus fleet");
    assert!(fleet.status.success(), "{fleet:?}");
    let daemon = fs::read(&daemon).expect("daemon summary");
    assert!(
        daemon == fs::read(&batch).expect("batch summary"),
        "the 4 096-node daemon summary differs from the batch one"
    );
    let _ = fs::remove_dir_all(&dir);
}
