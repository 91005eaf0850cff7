//! Differential equivalence: the macro-stepping fast path must be
//! bit-for-bit identical to per-tick reference stepping.
//!
//! Two layers of evidence:
//!
//! 1. An exhaustive sweep of the entire workload catalog × every governor
//!    × every testbed, comparing `RunSummary`, recorded samples, and
//!    invocation counts between `StepMode::Reference` and `StepMode::Fast`.
//! 2. Seeded property loops over randomized phase traces with governor
//!    and MSR writes injected at arbitrary instants, driving the two paths
//!    through the same event script: once with a 50 ms recorder, so every
//!    frozen span is short, and once with long spans (the recorder off or
//!    at a drawn interval), so PCM windows are rebuilt from a single span.
//!
//! A last test puts a floor under how much the fast path replays: a fast
//! path that stopped freezing would still pass every equality check here.
//!
//! Equality is asserted with `==` on `f64`-bearing structs deliberately:
//! the fast path replays the exact per-tick increments the reference path
//! computes, so anything short of bitwise identity is a bug.

use magus_experiments::{
    run_trial, Engine, FixedUncoreDriver, GovernorSpec, MagusDriver, NoopDriver, RuntimeDriver,
    StepMode, SystemId, TrialOpts, TrialResult, TrialSpec, UpsDriver,
};
use magus_hetsim::workload::PhaseKind;
use magus_hetsim::{
    secs_to_us, AppTrace, Demand, FastForward, GpuUtilVec, Node, NodeConfig, Phase, RunSummary,
    Simulation, TraceRecorder, TraceSample,
};
use magus_workloads::{fig4a_suite, AppId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SYSTEMS: [SystemId; 3] = [
    SystemId::IntelA100,
    SystemId::Intel4A100,
    SystemId::IntelMax1550,
];

/// Every governor the paper evaluates, freshly constructed per trial so
/// driver-internal state never leaks between the two paths.
fn make_driver(which: usize) -> Box<dyn RuntimeDriver> {
    match which {
        0 => Box::new(NoopDriver),
        1 => Box::new(FixedUncoreDriver::new(0.8)),
        2 => Box::new(MagusDriver::with_defaults()),
        3 => Box::new(UpsDriver::with_defaults()),
        _ => unreachable!(),
    }
}

const GOVERNOR_NAMES: [&str; 4] = ["default", "fixed-uncore", "MAGUS", "UPS"];

fn run_path(system: SystemId, app: AppId, which: usize, path: StepMode) -> TrialResult {
    let mut driver = make_driver(which);
    let opts = TrialOpts {
        record_interval_us: 100_000,
        max_s: 150.0,
        path,
    };
    run_trial(system, app, driver.as_mut(), opts)
}

#[test]
fn fast_path_matches_reference_on_full_catalog() {
    for system in SYSTEMS {
        for &app in AppId::all() {
            for (which, governor) in GOVERNOR_NAMES.iter().enumerate() {
                let ctx = format!("{} / {app:?} / {governor}", system.name());
                let r = run_path(system, app, which, StepMode::Reference);
                let f = run_path(system, app, which, StepMode::Fast);
                assert_eq!(r.summary, f.summary, "summary diverged: {ctx}");
                assert_eq!(r.samples, f.samples, "samples diverged: {ctx}");
                assert_eq!(r.invocations, f.invocations, "invocations diverged: {ctx}");
                assert_eq!(
                    r.mean_invocation_us, f.mean_invocation_us,
                    "latency diverged: {ctx}"
                );
            }
        }
    }
}

/// An intervention injected at an arbitrary instant — the event kinds the
/// fast path must re-detect a frozen span after.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// `MSR 0x620` write narrowing the uncore band.
    FixUncore(f64),
    /// RAPL PL1 reprogramming.
    PowerLimit(f64),
    /// PCM bandwidth read (charges monitoring overhead).
    PcmRead,
}

fn apply_event(sim: &mut Simulation, ev: Event, pcm_log: &mut Vec<u64>) {
    match ev {
        Event::FixUncore(ghz) => FixedUncoreDriver::new(ghz).attach(sim),
        Event::PowerLimit(w) => sim.node_mut().set_power_limit_w(w).expect("PL1 write"),
        Event::PcmRead => pcm_log.push(sim.node_mut().pcm_try_read_gbs().unwrap().to_bits()),
    }
}

/// Drive a trace through the given event script on either path, recording
/// every `record_interval_us` (0: recorder off); return everything
/// observable.
fn run_script(
    trace: &AppTrace,
    events: &[(u64, Event)],
    fast: bool,
    record_interval_us: u64,
) -> (RunSummary, Vec<TraceSample>, Vec<u64>) {
    let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
    sim.set_recorder(TraceRecorder::new(record_interval_us));
    sim.load(trace.clone());
    let mut ff = FastForward::new();
    let mut pcm_log = Vec::new();
    let mut idx = 0;
    let budget_us = secs_to_us(30.0);
    while !sim.done() && sim.node().time_us() < budget_us {
        while idx < events.len() && sim.node().time_us() >= events[idx].0 {
            apply_event(&mut sim, events[idx].1, &mut pcm_log);
            idx += 1;
        }
        if fast {
            let next_event_us = events.get(idx).map_or(u64::MAX, |e| e.0);
            let horizon = next_event_us.min(budget_us).max(sim.node().time_us() + 1);
            sim.advance_until(horizon, &mut ff);
        } else {
            sim.step();
        }
    }
    let summary = sim.summary(0);
    let samples = sim.recorder_mut().take_samples();
    (summary, samples, pcm_log)
}

/// `bw_history` bounded-ring wraparound: the PCM window covers the last
/// `pcm_window_us / tick_us` ticks through a fixed-capacity ring. A run
/// longer than the window must report identical window means on both paths
/// right at the wrap boundary, well past it, and after an uncore change
/// invalidates any frozen span mid-window.
#[test]
fn pcm_window_means_match_across_ring_wraparound() {
    // intel_a100: tick 10 ms, pcm window 100 ms → the ring wraps after 10
    // ticks (100_000 µs). A steady 3 s phase runs ~300 ticks: dozens of
    // complete wraps.
    let trace = AppTrace::new(
        "wrap",
        vec![Phase::new(
            PhaseKind::Compute,
            3.0,
            Demand::new(40.0, 0.4, 0.3, 0.8),
        )],
    );
    let mut events = vec![
        // Straddle the first wrap boundary (window fills at 100 ms)...
        (90_000, Event::PcmRead),
        (100_000, Event::PcmRead),
        (110_000, Event::PcmRead),
        (120_000, Event::PcmRead),
        (130_000, Event::PcmRead),
        // ...then sample deep into steady wrapping.
        (250_000, Event::PcmRead),
        (1_000_000, Event::PcmRead),
        // Perturb the uncore mid-window so the ring holds a mix of pre-
        // and post-transition samples, then read through the next wraps.
        (1_600_000, Event::FixUncore(1.2)),
        (1_650_000, Event::PcmRead),
        (1_700_000, Event::PcmRead),
        (2_500_000, Event::PcmRead),
    ];
    events.sort_by_key(|e| e.0);
    // With the recorder off nothing but the script ends a frozen span, so
    // the window before each read is rebuilt from one long span.
    for record_interval_us in [RECORD_US, 0] {
        let (rs, rsam, rpcm) = run_script(&trace, &events, false, record_interval_us);
        let (fs, fsam, fpcm) = run_script(&trace, &events, true, record_interval_us);
        let ctx = format!("recorder every {record_interval_us} us");
        assert_eq!(
            rpcm, fpcm,
            "PCM window means diverged at the wrap boundary: {ctx}"
        );
        assert_eq!(rs, fs, "{ctx}");
        assert_eq!(rsam, fsam, "{ctx}");
        assert_eq!(
            rpcm.len(),
            10,
            "every scripted PcmRead must have fired: {ctx}"
        );
    }
}

/// The recorder interval of the short-span tests: 50 ms, 5 ticks.
const RECORD_US: u64 = 50_000;

fn arb_phase(rng: &mut SmallRng, max_work_s: f64) -> Phase {
    let kind = [
        PhaseKind::Init,
        PhaseKind::Burst,
        PhaseKind::Compute,
        PhaseKind::Idle,
    ][rng.gen_range(0..=3)];
    let work_s = rng.gen_range(0.05..max_work_s);
    let mem_frac = rng.gen_range(0.0..1.0);
    let cpu_util = rng.gen_range(0.0..1.0);
    let mem_gbs = rng.gen_range(0.0..180.0);
    let gpu: Vec<f64> = (0..rng.gen_range(0..=2))
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    let demand = Demand {
        mem_gbs,
        mem_frac,
        cpu_frac: 0.0,
        cpu_util,
        gpu_util: GpuUtilVec::from_slice(&gpu),
    };
    Phase::new(kind, work_s, demand)
}

fn arb_event(rng: &mut SmallRng, within_s: f64) -> (u64, Event) {
    let at_us = rng.gen_range(0..=secs_to_us(within_s) as usize - 1) as u64;
    let event = match rng.gen_range(0..=2) {
        0 => Event::FixUncore(rng.gen_range(0.8..2.4)),
        1 => Event::PowerLimit(rng.gen_range(60.0..160.0)),
        _ => Event::PcmRead,
    };
    (at_us, event)
}

/// Seeded cases for the random-trace property; every failure names its
/// case seed.
const CASES: u64 = 48;

#[test]
fn fast_path_matches_reference_on_random_traces() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let phases = (0..rng.gen_range(1..=4))
            .map(|_| arb_phase(&mut rng, 2.0))
            .collect();
        let mut events: Vec<_> = (0..rng.gen_range(0..=5))
            .map(|_| arb_event(&mut rng, 8.0))
            .collect();
        events.sort_by_key(|e| e.0);
        let trace = AppTrace::new("prop", phases);
        let (rs, rsam, rpcm) = run_script(&trace, &events, false, RECORD_US);
        let (fs, fsam, fpcm) = run_script(&trace, &events, true, RECORD_US);
        assert_eq!(rs, fs, "case {case}");
        assert_eq!(rsam, fsam, "case {case}");
        assert_eq!(rpcm, fpcm, "case {case}");
    }
}

/// Seeded cases for the long-span property.
const LONG_SPAN_CASES: u64 = 200;

/// Frozen spans longer than the PCM window. At a 50 ms recorder interval
/// every span above is shorter than the 100 ms window, so no PCM read there
/// sees a window rebuilt from one long span. Here the recorder is off in
/// half the cases and otherwise samples at a drawn interval that is not a
/// whole number of ticks (1 ms to 2 s); phases run up to 4 s and up to 8
/// events land anywhere in the first 12 s.
#[test]
fn fast_path_matches_reference_across_long_spans() {
    let tick_us = NodeConfig::intel_a100().tick_us;
    for case in 0..LONG_SPAN_CASES {
        let mut rng = SmallRng::seed_from_u64(0x6c6f_6e67 + case);
        let record_interval_us = if rng.gen_bool(0.5) {
            0
        } else {
            let us = rng.gen_range(1_000..=2_000_000) as u64;
            if us.is_multiple_of(tick_us) {
                us + 1
            } else {
                us
            }
        };
        let phases = (0..rng.gen_range(1..=4))
            .map(|_| arb_phase(&mut rng, 4.0))
            .collect();
        let mut events: Vec<_> = (0..rng.gen_range(0..=8))
            .map(|_| arb_event(&mut rng, 12.0))
            .collect();
        events.sort_by_key(|e| e.0);
        let trace = AppTrace::new("long-span", phases);
        let (rs, rsam, rpcm) = run_script(&trace, &events, false, record_interval_us);
        let (fs, fsam, fpcm) = run_script(&trace, &events, true, record_interval_us);
        let ctx = format!("case {case}, recorder every {record_interval_us} us");
        assert_eq!(rs, fs, "{ctx}");
        assert_eq!(rsam, fsam, "{ctx}");
        assert_eq!(rpcm, fpcm, "{ctx}");
    }
}

/// If the fast path stops freezing, every result stays identical and only
/// time is lost, so no equality test notices. On the Fig 4a suite (every
/// app under default, MAGUS and UPS on Intel+A100) it replays about two
/// thirds of all ticks; require at least 60%.
#[test]
fn fast_path_replays_most_ticks_of_the_fig4a_suite() {
    let system = SystemId::IntelA100;
    let cfg = system.node_config();
    let socket_tick_us = u64::from(cfg.sockets) * cfg.tick_us;
    let specs: Vec<TrialSpec> = fig4a_suite()
        .into_iter()
        .flat_map(|app| {
            [
                GovernorSpec::Default,
                GovernorSpec::magus_default(),
                GovernorSpec::ups_default(),
            ]
            .map(|g| TrialSpec::new(system, app, g))
        })
        .collect();
    let engine = Engine::ephemeral()
        .with_sim_path(StepMode::Fast)
        .with_telemetry();
    let (mut replayed, mut ticks) = (0, 0);
    for outcome in engine.run_suite(&specs) {
        let counters = outcome.result.node_telemetry.expect("armed trial");
        replayed += counters.fastpath_replayed_ticks;
        // Residency counts socket-µs, every tick once per socket.
        ticks += counters.residency_total_us() / socket_tick_us;
    }
    assert!(ticks > 0);
    assert!(
        replayed * 10 >= ticks * 6,
        "fast path replayed {replayed} of {ticks} ticks (< 60%)"
    );
}
