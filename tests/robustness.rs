//! Failure-injection and robustness integration tests: a production
//! runtime must survive flaky counters and misbehaving register access
//! without crashing or destroying the application's performance.

use magus_suite::experiments::drivers::{MagusDriver, NoopDriver, RuntimeDriver};
use magus_suite::experiments::harness::{run_trial, SystemId, TrialOpts};
use magus_suite::experiments::metrics::Comparison;
use magus_suite::hetsim::{FaultPlan, Node, NodeConfig, Simulation};
use magus_suite::msr::{MsrScope, MSR_UNCORE_RATIO_LIMIT};
use magus_suite::telemetry::FieldValue;
use magus_suite::workloads::{app_trace, AppId, Platform};

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

/// Every uncore-limit write failing (a dead MSR bus) degrades MAGUS
/// instead of crashing it: each actuation exhausts its retries, holds the
/// previous limit and reports why, and the run goes on.
#[test]
fn actuation_faults_surface_as_errors() {
    let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
    sim.load(app_trace(AppId::Bfs, Platform::IntelA100));
    sim.node_mut().arm_telemetry();
    let dead_bus = FaultPlan::builder()
        .uncore_write_fail_every(1)
        .build()
        .unwrap();
    sim.node_mut().set_fault_plan(dead_bus);
    let mut driver = MagusDriver::with_defaults();
    driver.attach(&mut sim);
    for _ in 0..60 {
        for _ in 0..30 {
            sim.step();
        }
        driver.on_decision(&mut sim);
    }
    assert!(driver.degraded() > 0);
    assert!(sim.node().fault_counters().msr_write_fails > 0);
    let actuation = FieldValue::Str("actuation".into());
    let events = sim.node().telemetry().expect("armed").events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "magus_degraded" && e.fields.get("reason") == Some(&actuation)),
        "no magus_degraded{{reason=\"actuation\"}} event"
    );
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
