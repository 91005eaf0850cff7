//! Discrete-time heterogeneous CPU–GPU node simulator.
//!
//! This crate is the hardware substrate for the MAGUS reproduction. The
//! paper evaluates on real Intel Xeon + NVIDIA A100 / Intel Max 1550 nodes;
//! here every mechanism the paper's runtimes interact with is simulated:
//!
//! * **CPU sockets** with per-core DVFS ([`cpu`]) — core frequency tracks
//!   utilisation, as in Fig 1a.
//! * **An uncore domain per socket** ([`uncore`]) whose frequency is bounded
//!   by the `UNCORE_RATIO_LIMIT` MSR (`0x620`) exactly as on Intel parts,
//!   slews at a finite rate, and consumes a large share of package power at
//!   high frequency (up to ~40% under GPU-dominant load, Fig 2).
//! * **A memory subsystem** ([`mem`]) whose deliverable bandwidth scales
//!   with uncore frequency; workload progress stalls when demanded
//!   throughput exceeds the cap — this is what makes uncore scaling a real
//!   performance/energy trade-off instead of a free win.
//! * **GPU devices** ([`gpu`]) with an SM-clock governor and idle/dynamic
//!   power, as in Fig 1b; multi-GPU idle floors reproduce the Fig 4c effect.
//! * **An integrated power model** ([`power`]) decomposed into core, uncore,
//!   DRAM, and GPU-board domains, mirrored into RAPL energy-status MSRs.
//! * **The stock TDP-coupled uncore governor** (part of [`node::Node::step`],
//!   tuned by [`config::TdpGovernorConfig`]) that only throttles the uncore
//!   when package power approaches TDP — the behaviour whose inadequacy for
//!   GPU-dominant workloads motivates the paper (§2).
//!
//! Workloads are phase traces ([`workload`]); [`sim::Simulation`] advances a
//! node through a trace in fixed ticks, records time series ([`trace`]), and
//! exposes counter state through a simulated MSR file so the MAGUS and UPS
//! runtimes read hardware state exactly the way they would on metal.
//!
//! Sensors and actuators can be made to misbehave on purpose: a seeded
//! [`fault::FaultPlan`] injects PCM dropouts/stale reads/spikes, transient
//! or delayed uncore MSR writes, and fleet-level node failures —
//! deterministically, and at zero cost when no plan is attached.

pub mod config;
pub mod cpu;
pub mod demand;
pub mod fault;
pub mod fleet;
pub mod gpu;
pub mod mem;
pub mod node;
pub mod power;
pub mod roster;
pub mod sim;
pub mod telemetry;
pub mod trace;
pub mod uncore;
pub mod workload;

pub use config::{CpuConfig, GpuConfig, MemoryConfig, NodeConfig, UncoreActuation, UncoreConfig};
pub use demand::{Demand, GpuUtilVec};
pub use fault::{FaultCounters, FaultPlan, FaultPlanBuilder, FaultPlanError, InjectedFault};
pub use fleet::{
    deadline_missed, run_node, Decision, Distribution, FleetBuildError, FleetBuilder, FleetSim,
    FleetSummary, JobDeadline, NodeDecider, NodeFaults, NodeRun, RunOpts, ShardStats, StepMode,
    TenantShare,
};
pub use node::{FastForward, Node};
pub use power::PowerBreakdown;
pub use roster::{FleetRoster, RosterBuildOpts, RosterEntry, RosterError};
pub use sim::{RunSummary, Simulation};
pub use trace::{TraceRecorder, TraceSample};
pub use workload::{AppTrace, Phase};

/// Microseconds per second, the simulator's base time unit.
pub const US_PER_S: u64 = 1_000_000;

/// Convert seconds to simulator microseconds (rounding).
#[must_use]
pub fn secs_to_us(secs: f64) -> u64 {
    (secs * US_PER_S as f64).round() as u64
}

/// Convert simulator microseconds to seconds.
#[must_use]
pub fn us_to_secs(us: u64) -> f64 {
    us as f64 / US_PER_S as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(secs_to_us(0.2), 200_000);
        assert!((us_to_secs(secs_to_us(47.5)) - 47.5).abs() < 1e-9);
    }
}
