//! Power-budget study: uncore scaling as cap headroom (§6.1's budget
//! argument, quantified).
//!
//! "Reducing instantaneous power consumption helps prevent the aggregate
//! power consumption of all applications from exceeding the system's total
//! power budget if one is in place." Under a RAPL package power limit, the
//! stock governor burns its budget on a pinned-max uncore and must
//! throttle the cores to fit — slowing any workload with a host-sensitive
//! critical path. MAGUS releases that uncore power, leaving the cores
//! their headroom.
//!
//! Capped trials are ordinary engine specs — [`TrialSpec::hybrid`] sets
//! `power_cap_w`, and the harness programs PL1 before the driver attaches.

use magus_hetsim::AppTrace;
use magus_workloads::spec::{BurstTrainSpec, Segment, UtilSpec, WorkloadSpec};
use serde::Serialize;

use crate::engine::{Engine, GovernorSpec, TrialSpec};

/// One (cap, policy) cell of the study.
#[derive(Debug, Clone, Serialize)]
pub struct PowercapCell {
    /// Per-socket PL1 limit (W); `None` = uncapped.
    pub cap_w: Option<f64>,
    /// Policy name.
    pub policy: String,
    /// Runtime (s).
    pub runtime_s: f64,
    /// Mean CPU-side power (W).
    pub mean_cpu_w: f64,
    /// Total energy (J).
    pub energy_j: f64,
}

/// A hybrid MD-like workload: GPU kernels with a meaningful host loop
/// (`cpu_frac` = 0.35), the kind of code power caps actually hurt.
#[must_use]
pub fn hybrid_workload() -> AppTrace {
    WorkloadSpec {
        name: "hybrid-md".into(),
        total_s: 30.0,
        init: None,
        segments: vec![(
            Segment::Bursts(BurstTrainSpec {
                period_s: 3.0,
                duty: 0.3,
                burst_bw_gbs: 90.0,
                quiet_bw_gbs: 8.0,
                burst_mem_frac: 0.5,
                quiet_mem_frac: 0.1,
                jitter: 0.08,
                ramp_s: 0.5,
            }),
            30.0,
        )],
        util: UtilSpec::single(0.85, 0.75, 0.6, 0.8).with_cpu_frac(0.35),
        seed: 0xCAFE,
    }
    .build()
}

/// Run the study: each cap × {default, MAGUS} on the hybrid workload.
#[must_use]
pub fn powercap_study(engine: &Engine, caps_w: &[Option<f64>]) -> Vec<PowercapCell> {
    let specs: Vec<TrialSpec> = caps_w
        .iter()
        .flat_map(|&cap| {
            [
                TrialSpec::hybrid(GovernorSpec::Default, cap),
                TrialSpec::hybrid(GovernorSpec::magus_default(), cap),
            ]
        })
        .collect();
    let outs = engine.run_suite(&specs);
    outs.iter()
        .map(|out| PowercapCell {
            cap_w: out.spec.power_cap_w,
            policy: out.result.runtime.clone(),
            runtime_s: out.result.summary.runtime_s,
            mean_cpu_w: out.result.summary.mean_cpu_w,
            energy_j: out.result.summary.energy.total_j(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_workload_is_host_sensitive() {
        let trace = hybrid_workload();
        assert!(trace.phases.iter().all(|p| p.demand.cpu_frac > 0.3));
        assert!((trace.total_work_s() - 30.0).abs() < 0.1);
    }

    #[test]
    fn uncapped_policies_tie_on_runtime() {
        let cells = powercap_study(&Engine::ephemeral(), &[None]);
        let base = cells.iter().find(|c| c.policy == "default").unwrap();
        let magus = cells.iter().find(|c| c.policy == "MAGUS").unwrap();
        assert!((base.runtime_s - 30.0).abs() < 0.3);
        assert!(magus.runtime_s < base.runtime_s * 1.03);
        assert!(magus.mean_cpu_w < base.mean_cpu_w);
    }

    #[test]
    fn under_tight_cap_magus_preserves_performance() {
        // At 95 W/socket the stock governor must throttle the cores to pay
        // for its pinned-max uncore; MAGUS's uncore savings keep the cores
        // near their natural frequency.
        let cells = powercap_study(&Engine::ephemeral(), &[Some(95.0)]);
        let base = cells.iter().find(|c| c.policy == "default").unwrap();
        let magus = cells.iter().find(|c| c.policy == "MAGUS").unwrap();
        assert!(
            base.runtime_s > magus.runtime_s * 1.04,
            "default {} s vs MAGUS {} s under a 95 W cap",
            base.runtime_s,
            magus.runtime_s
        );
        // Both respect the cap.
        assert!(base.mean_cpu_w < 2.0 * 95.0 + 30.0);
        assert!(magus.mean_cpu_w < 2.0 * 95.0 + 30.0);
    }
}
