//! Long-horizon soak tests: counter wrap-around and daemon endurance.
//!
//! RAPL energy-status registers are 32-bit and wrap within tens of
//! simulated minutes at server power levels; any monitor that survives a
//! production shift must difference them modulo 2^32. These tests run the
//! stack across a wrap boundary and through an hour-scale MAGUS session.

use magus_suite::experiments::drivers::{MagusDriver, RuntimeDriver};
use magus_suite::hetsim::{Demand, Node, NodeConfig, Simulation};
use magus_suite::msr::regs::energy_counter_delta;
use magus_suite::msr::{MsrScope, RaplPowerUnit, MSR_PKG_ENERGY_STATUS, MSR_RAPL_POWER_UNIT};
use magus_suite::workloads::spec::{Segment, UtilSpec, WorkloadSpec};

/// Drive the node until its package energy counter wraps (2^32 counts at
/// 1/16384 J = 262144 J ≈ 26 simulated minutes at ~170 W) and verify that
/// package power differenced from the counters modulo 2^32 — as
/// `UpsSampler` does for DRAM — stays sane across the boundary.
#[test]
fn rapl_reader_survives_counter_wrap() {
    let mut node = Node::new(NodeConfig::intel_a100());
    let demand = Demand::new(20.0, 0.3, 0.4, 0.8);
    node.step(10_000, &demand);
    let unit = RaplPowerUnit::decode(
        node.msr_read(MsrScope::Package(0), MSR_RAPL_POWER_UNIT)
            .unwrap(),
    );
    let sockets = node.config().sockets;
    let read_counters = |node: &mut Node| -> Vec<u64> {
        (0..sockets)
            .map(|pkg| {
                node.msr_read(MsrScope::Package(pkg), MSR_PKG_ENERGY_STATUS)
                    .unwrap()
            })
            .collect()
    };

    let wrap_joules = unit.counts_to_joules(0xffff_ffff);
    let mut wrapped = false;
    let mut prev = read_counters(&mut node);
    let mut prev_s = node.time_s();

    // Step in 30 s slabs, sampling power each slab, until past one wrap.
    for _slab in 0..150 {
        for _ in 0..3000 {
            node.step(10_000, &demand);
        }
        let now = read_counters(&mut node);
        let now_s = node.time_s();
        if now[0] < prev[0] {
            wrapped = true;
        }
        let joules: f64 = prev
            .iter()
            .zip(&now)
            .map(|(&before, &after)| unit.counts_to_joules(energy_counter_delta(before, after)))
            .sum();
        let pkg_w = joules / (now_s - prev_s);
        assert!(
            (60.0..260.0).contains(&pkg_w),
            "pkg power {pkg_w} W went insane (wrapped = {wrapped})"
        );
        (prev, prev_s) = (now, now_s);
        if wrapped {
            break;
        }
    }
    assert!(wrapped, "never crossed a wrap boundary in {wrap_joules} J");
    assert!(node.sockets()[0].pkg_energy_j > wrap_joules);
}

/// An hour of simulated MAGUS over a long periodic workload: telemetry
/// counters stay consistent and the node keeps meeting the paper's loss
/// band all the way through.
#[test]
fn magus_hour_long_session_stays_healthy() {
    let spec = WorkloadSpec {
        name: "soak".into(),
        total_s: 3_600.0,
        init: None,
        segments: vec![(
            Segment::Bursts(magus_suite::workloads::BurstTrainSpec {
                period_s: 5.0,
                duty: 0.2,
                burst_bw_gbs: 100.0,
                quiet_bw_gbs: 3.0,
                burst_mem_frac: 0.5,
                quiet_mem_frac: 0.05,
                jitter: 0.1,
                ramp_s: 0.6,
            }),
            3_600.0,
        )],
        util: UtilSpec::single(0.3, 0.12, 0.4, 0.7),
        seed: 99,
    };
    let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
    sim.load(spec.build());
    let mut driver = MagusDriver::with_defaults();
    driver.attach(&mut sim);
    let mut next_due = 0u64;
    while !sim.done() && sim.node().time_s() < 4_200.0 {
        if sim.node().time_us() >= next_due {
            let latency = driver.on_decision(&mut sim);
            next_due = sim.node().time_us() + latency + driver.rest_interval_us();
        }
        sim.step();
    }
    let summary = sim.summary(0);
    assert!(summary.completed, "soak run did not finish");
    // Loss band holds over the hour.
    assert!(
        summary.runtime_s < 3_600.0 * 1.02,
        "runtime {} s",
        summary.runtime_s
    );
    let t = driver.telemetry();
    // ~12k decision cycles at the 0.3 s cadence.
    assert!(t.cycles > 10_000, "cycles {}", t.cycles);
    assert!(t.raised + t.lowered <= t.cycles);
    assert!(t.tune_events > 1_000, "tune events {}", t.tune_events);
    // The runtime spent most of the quiet time at the lower level: at a
    // 20% duty cycle the lowered share must dominate raised.
    assert!(t.lowered > 500, "lowered {}", t.lowered);
    assert!(summary.energy.total_j() > 0.0);
    assert!(summary.monitor_reads > 10_000);
}
