//! §6.5 / Table 2: runtime overhead measurement on an idle node.
//!
//! The paper runs each runtime for 10 minutes with no application and
//! measures (a) the relative increase in power consumption and (b) the
//! time per invocation (hardware-counter collection + phase detection).
//! Both fall out of the access-cost accounting here: MAGUS's single PCM
//! measurement vs UPS's per-core MSR sweep.
//!
//! Measurements go through the trial engine as [`WorkloadSel::Idle`]
//! specs (`trace = None`, so the wall-clock budget is the only
//! terminator), which makes them cacheable and schedulable like every
//! other trial.
//!
//! [`WorkloadSel::Idle`]: crate::engine::WorkloadSel::Idle

use serde::Serialize;

use crate::engine::{Engine, GovernorSpec, TrialOutcome, TrialSpec};
use crate::harness::SystemId;

/// Table 2 row for one runtime on one system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadReport {
    /// System name.
    pub system: String,
    /// Runtime name.
    pub runtime: String,
    /// Relative power increase over the idle baseline (%).
    pub power_overhead_pct: f64,
    /// Mean invocation time (s).
    pub invocation_s: f64,
    /// Idle baseline power (W), for reference.
    pub idle_power_w: f64,
    /// Power with the runtime attached (W).
    pub loaded_power_w: f64,
}

/// Run an idle node for `duration_s` with no runtime and return its mean
/// CPU-side power (W).
#[must_use]
pub fn idle_power_w(engine: &Engine, system: SystemId, duration_s: f64) -> f64 {
    engine
        .run(&TrialSpec::idle(system, GovernorSpec::Default, duration_s))
        .result
        .summary
        .mean_cpu_w
}

/// Assemble a Table 2 row from an idle-baseline outcome and a
/// monitor-only loaded outcome of the same system and duration.
#[must_use]
pub fn report_from_outcomes(
    system: SystemId,
    idle: &TrialOutcome,
    loaded: &TrialOutcome,
) -> OverheadReport {
    let idle_w = idle.result.summary.mean_cpu_w;
    let loaded_w = loaded.result.summary.mean_cpu_w;
    OverheadReport {
        system: system.name().to_string(),
        runtime: loaded.result.runtime.clone(),
        power_overhead_pct: crate::metrics::pct_change(idle_w, loaded_w),
        invocation_s: loaded.result.mean_invocation_us / 1e6,
        idle_power_w: idle_w,
        loaded_power_w: loaded_w,
    }
}

/// Measure a runtime's idle overhead (the Table 2 protocol).
///
/// The runtime runs in monitor-only mode — Table 2 measures monitoring +
/// phase detection, "excluding uncore scaling" — so the node's uncore
/// state stays identical to the idle baseline and the power delta is pure
/// monitoring cost.
#[must_use]
pub fn measure_overhead(
    engine: &Engine,
    system: SystemId,
    governor: &GovernorSpec,
    duration_s: f64,
) -> OverheadReport {
    let outs = engine.run_suite(&[
        TrialSpec::idle(system, GovernorSpec::Default, duration_s),
        TrialSpec::idle(system, governor.clone(), duration_s).monitor_only(),
    ]);
    report_from_outcomes(system, &outs[0], &outs[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_power_is_stable_floor() {
        let p = idle_power_w(&Engine::ephemeral(), SystemId::IntelA100, 30.0);
        // 2 sockets × (static 24 + uncore@max ~53 + DRAM 10) ≈ 174 W.
        assert!(p > 120.0 && p < 220.0, "idle = {p}");
    }

    #[test]
    fn magus_overhead_is_small() {
        let engine = Engine::ephemeral();
        let r = measure_overhead(
            &engine,
            SystemId::IntelA100,
            &GovernorSpec::magus_default(),
            60.0,
        );
        assert!(
            r.power_overhead_pct > 0.1 && r.power_overhead_pct < 3.0,
            "overhead = {}%",
            r.power_overhead_pct
        );
        assert!((r.invocation_s - 0.1).abs() < 0.02, "{}", r.invocation_s);
    }

    #[test]
    fn ups_overhead_exceeds_magus() {
        let engine = Engine::ephemeral();
        let magus = measure_overhead(
            &engine,
            SystemId::IntelA100,
            &GovernorSpec::magus_default(),
            60.0,
        );
        let ups = measure_overhead(
            &engine,
            SystemId::IntelA100,
            &GovernorSpec::ups_default(),
            60.0,
        );
        assert!(
            ups.power_overhead_pct > magus.power_overhead_pct * 2.0,
            "ups {}% vs magus {}%",
            ups.power_overhead_pct,
            magus.power_overhead_pct
        );
        assert!(
            ups.invocation_s > 0.25 && ups.invocation_s < 0.4,
            "{}",
            ups.invocation_s
        );
    }
}
