//! Observability integration tests: recorded telemetry is a pure
//! function of simulated state — byte-identical across repeated runs,
//! across the fast and reference stepping paths, and across serial and
//! parallel scheduling. These are the in-process counterparts of CI's
//! `telemetry-regression` job. Each test is a telemetry reader, so it arms
//! the trials it inspects.

use std::path::{Path, PathBuf};

mod golden;
use golden::assert_matches_golden;

use magus_suite::experiments::drivers::{MagusDriver, RuntimeDriver, UpsDriver};
use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
use magus_suite::experiments::fleet::{run_fleet_with_telemetry, FleetSpec};
use magus_suite::experiments::harness::{StepMode, SystemId, TrialBuilder, TrialOpts, TrialResult};
use magus_suite::hetsim::FaultPlan;
use magus_suite::telemetry::Event;
use magus_suite::workloads::io::load_traffic_spec;
use magus_suite::workloads::AppId;

fn events_json(r: &TrialResult) -> String {
    serde::to_string(&r.events)
}

/// An armed bfs trial on the Intel+A100 testbed.
fn armed_trial(driver: &mut dyn RuntimeDriver, opts: TrialOpts) -> TrialResult {
    TrialBuilder::on(SystemId::IntelA100)
        .app(AppId::Bfs)
        .opts(opts)
        .arm_telemetry()
        .run(driver)
}

#[test]
fn repeated_trials_emit_byte_identical_event_streams() {
    let run = || armed_trial(&mut MagusDriver::with_defaults(), TrialOpts::default());
    let a = run();
    let b = run();
    assert!(!a.events.is_empty());
    assert_eq!(events_json(&a), events_json(&b));
    let kinds: Vec<&str> = a.events.iter().map(|e| e.kind.as_ref()).collect();
    assert!(kinds.contains(&"magus_decision"), "{kinds:?}");
    assert!(kinds.contains(&"uncore_limit_write"), "{kinds:?}");
    assert_eq!(a.node_telemetry, b.node_telemetry);
}

#[test]
fn fast_and_reference_paths_emit_identical_events() {
    for governor in ["magus", "ups"] {
        let run = |path: StepMode| {
            let opts = TrialOpts::default().with_path(path);
            match governor {
                "magus" => armed_trial(&mut MagusDriver::with_defaults(), opts),
                _ => armed_trial(&mut UpsDriver::with_defaults(), opts),
            }
        };
        let fast = run(StepMode::Fast);
        let reference = run(StepMode::Reference);
        assert!(!fast.events.is_empty(), "{governor}: no events");
        assert_eq!(
            events_json(&fast),
            events_json(&reference),
            "{governor}: event streams diverge between sim paths"
        );
        // Residency histograms agree too; only fast-path span counters
        // (frozen/replayed/invalidated) may legitimately differ.
        let f = fast.node_telemetry.expect("telemetry on");
        let r = reference.node_telemetry.expect("telemetry on");
        assert_eq!(f.residency_us, r.residency_us, "{governor}");
        assert_eq!(f.uncore_msr_writes, r.uncore_msr_writes, "{governor}");
        assert_eq!(r.fastpath_replayed_ticks, 0, "{governor}");
    }
}

fn catalog_specs() -> Vec<TrialSpec> {
    [AppId::Bfs, AppId::Srad, AppId::Gemm]
        .iter()
        .flat_map(|&app| {
            [
                GovernorSpec::Default,
                GovernorSpec::magus_default(),
                GovernorSpec::ups_default(),
            ]
            .into_iter()
            .map(move |g| TrialSpec::new(SystemId::IntelA100, app, g))
        })
        .collect()
}

#[test]
fn serial_and_parallel_engines_agree_on_all_telemetry() {
    let specs = catalog_specs();
    // Four workers on any machine: one worker per CPU would compare serial
    // with serial on a one-CPU runner.
    let parallel = Engine::ephemeral().with_jobs(4).with_telemetry();
    let serial = Engine::ephemeral().serial().with_telemetry();
    let _ = parallel.run_brief(&specs);
    let _ = serial.run_brief(&specs);
    // The JSONL rendering sorts per-trial blocks, so scheduling order is
    // invisible; events within a trial keep simulation order.
    let p = parallel.telemetry_jsonl();
    let s = serial.telemetry_jsonl();
    assert!(!p.is_empty());
    assert_eq!(p, s, "JSONL event streams diverge across scheduling modes");
    // Deterministic metric views agree; diag/ (wall time, worker count)
    // is excluded by construction.
    assert_eq!(
        parallel.telemetry_snapshot().deterministic(),
        serial.telemetry_snapshot().deterministic()
    );
}

#[test]
fn cached_outcomes_replay_events_and_count_hits() {
    let dir = std::env::temp_dir().join(format!("magus-telemetry-cache-{}", std::process::id()));
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    );
    let engine = Engine::with_cache(&dir).with_telemetry();
    let miss = engine.run(&spec);
    let hit = engine.run(&spec);
    assert!(!miss.cached && hit.cached);
    assert!(!miss.result.events.is_empty());
    // Events round-trip through the on-disk cache bit-exactly.
    assert_eq!(miss.result.events, hit.result.events);
    assert_eq!(miss.result.node_telemetry, hit.result.node_telemetry);
    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.counter("engine/trials_total"), Some(2));
    assert_eq!(snap.counter("engine/cache_hits"), Some(1));
    assert_eq!(snap.counter("engine/cache_misses"), Some(1));
    // Both runs contributed an identical event block.
    let trials = engine.trial_events();
    assert_eq!(trials.len(), 2);
    assert_eq!(trials[0], trials[1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Nothing reads an engine's telemetry without a sink: its trials record
/// nothing and its event buffer stays empty, while the results match.
#[test]
fn engines_without_a_reader_record_nothing() {
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    );
    let plain = Engine::ephemeral();
    let unarmed = plain.run(&spec);
    assert!(unarmed.result.events.is_empty());
    assert_eq!(unarmed.result.node_telemetry, None);
    assert!(plain.trial_events().is_empty());
    assert!(plain.telemetry_jsonl().is_empty());
    let armed = Engine::ephemeral().with_telemetry().run(&spec);
    assert!(!armed.result.events.is_empty());
    assert_eq!(unarmed.result.summary, armed.result.summary);
}

/// A cache stores each trial's events for later `--telemetry` runs: an
/// engine with no sink that fills the cache still arms its trials, so a
/// sink reading that cache exports exactly what simulating would.
#[test]
fn a_cache_filled_without_a_sink_serves_later_telemetry_runs() {
    let dir = std::env::temp_dir().join(format!("magus-telemetry-fill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let specs = catalog_specs();
    let filler = Engine::with_cache(&dir);
    let _ = filler.run_brief(&specs);
    assert!(filler.telemetry_jsonl().is_empty(), "no sink, no buffer");

    let reader = Engine::with_cache(&dir).with_telemetry();
    let briefs = reader.run_brief(&specs);
    assert!(
        briefs.iter().all(|b| b.cached),
        "every trial is a cache hit"
    );
    let simulated = Engine::ephemeral().with_telemetry();
    let _ = simulated.run_brief(&specs);
    let jsonl = simulated.telemetry_jsonl();
    assert!(!jsonl.is_empty());
    assert_eq!(reader.telemetry_jsonl(), jsonl);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_telemetry_emits_parseable_jsonl_and_prometheus_text() {
    let dir = std::env::temp_dir().join(format!("magus-telemetry-out-{}", std::process::id()));
    let engine = Engine::ephemeral().with_telemetry();
    let _ = engine.run(&TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    ));
    let path = dir.join("events.jsonl");
    engine.write_telemetry(&path).expect("write telemetry");
    let jsonl = std::fs::read_to_string(&path).unwrap();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(
            line.starts_with(r#"{"trial":"bfs/Intel+A100/MAGUS","#),
            "{line}"
        );
        let event: Event = serde::from_str(line).expect("each line is an event");
        assert!(!event.kind.is_empty(), "{line}");
    }
    let prom = std::fs::read_to_string(path.with_extension("prom")).unwrap();
    assert!(prom.contains("magus_engine_trials_total 1"), "{prom}");
    assert!(
        prom.contains("magus_node_uncore_residency_ghz_bucket"),
        "{prom}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/telemetry")
        .join(name)
}

/// Telemetry bytes stay what the committed goldens under
/// `tests/fixtures/telemetry/` say, across versions, not just across two
/// renderings by one build. They cover both line prefixes (`{"trial":…,`
/// and `{"node":…,`), every fault event kind the plan fires,
/// `magus_degraded` with its `reason` string, and `ups_decision`. With
/// `P` = `faults.json` and `T` = `traffic.json` from that directory, the
/// goldens are the `--telemetry` output of:
///
/// ```text
/// magus --no-cache --faults P --telemetry srad_magus_faulted.jsonl run --app srad --runtime magus
/// magus --no-cache --faults P --telemetry srad_ups_faulted.jsonl run --app srad --runtime ups
/// magus fleet --nodes 2 --runtime magus --budget 10 --shards 2 --traffic T \
///     --telemetry fleet_traffic.jsonl
/// ```
///
/// A change that means to alter these bytes regenerates the fixtures with
/// those commands and says why in its change notes.
#[test]
fn telemetry_jsonl_matches_the_committed_goldens() {
    let plan: FaultPlan =
        serde::from_str(&std::fs::read_to_string(fixture("faults.json")).unwrap())
            .expect("fault plan");
    for (governor, golden) in [
        (GovernorSpec::magus_default(), "srad_magus_faulted.jsonl"),
        (GovernorSpec::ups_default(), "srad_ups_faulted.jsonl"),
    ] {
        let engine = Engine::ephemeral().with_faults(plan).with_telemetry();
        let _ = engine.run(&TrialSpec::new(SystemId::IntelA100, AppId::Srad, governor));
        assert_matches_golden(&fixture(golden), &engine.telemetry_jsonl());
    }

    let traffic = load_traffic_spec(&fixture("traffic.json")).expect("traffic spec");
    let spec = FleetSpec {
        max_s: 10.0,
        shards: 2,
        ..FleetSpec::new(GovernorSpec::magus_default(), 2)
    }
    .with_traffic(traffic);
    let (_, jsonl) = run_fleet_with_telemetry(&spec);
    assert_matches_golden(&fixture("fleet_traffic.jsonl"), &jsonl);
}
