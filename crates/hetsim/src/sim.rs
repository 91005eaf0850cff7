//! Simulation driver: advances a node through an application trace.
//!
//! [`Simulation`] owns the node, the running application, and an optional
//! trace recorder. It exposes a per-tick [`Simulation::step`] and the
//! event-driven [`Simulation::advance_until`] so runtime drivers (MAGUS,
//! UPS) can interleave decisions with hardware progress, plus
//! [`Simulation::run_to_completion`] for baseline runs.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::demand::Demand;
use crate::node::{FastForward, Node, StepOutcome};
use crate::power::EnergyTotals;
use crate::trace::TraceRecorder;
use crate::workload::AppTrace;

/// Execution cursor over an application trace. The trace is held behind an
/// `Arc` so interned catalog traces (and fleet nodes running the same app)
/// share one allocation; cloning a `Simulation` is then cursor-cheap.
#[derive(Debug, Clone)]
struct AppExec {
    trace: Arc<AppTrace>,
    phase_idx: usize,
    phase_done_s: f64,
}

/// Summary of a completed (or truncated) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Application name.
    pub app: String,
    /// System name.
    pub system: String,
    /// Wall-clock runtime (s) until the trace completed.
    pub runtime_s: f64,
    /// Whether the application actually finished within the step budget.
    pub completed: bool,
    /// Cumulative energy totals over the run.
    pub energy: EnergyTotals,
    /// Mean CPU-side power over the run (pkg + DRAM), W.
    pub mean_cpu_w: f64,
    /// Mean total node power over the run, W.
    pub mean_total_w: f64,
    /// Uncore target transitions summed over sockets.
    pub uncore_transitions: u64,
    /// Monitoring reads issued against the node during the run.
    pub monitor_reads: u64,
    /// Monitoring writes issued against the node during the run.
    pub monitor_writes: u64,
}

/// A node advancing through an application trace.
///
/// ```
/// use magus_hetsim::{AppTrace, Demand, Node, NodeConfig, Phase, Simulation};
/// use magus_hetsim::workload::PhaseKind;
///
/// let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
/// sim.load(AppTrace::new(
///     "demo",
///     vec![Phase::new(PhaseKind::Compute, 1.0, Demand::new(5.0, 0.2, 0.2, 0.8))],
/// ));
/// let summary = sim.run_to_completion(10.0);
/// assert!(summary.completed);
/// assert!((summary.runtime_s - 1.0).abs() < 0.05);
/// assert!(summary.energy.total_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    node: Node,
    app: Option<AppExec>,
    recorder: TraceRecorder,
    /// Cumulative work completed (s of work content).
    progress_s: f64,
}

impl Simulation {
    /// New simulation with no application loaded (idle node).
    #[must_use]
    pub fn new(node: Node) -> Self {
        Self {
            node,
            app: None,
            recorder: TraceRecorder::disabled(),
            progress_s: 0.0,
        }
    }

    /// Load an application trace, replacing any current one. Accepts an
    /// owned trace or a shared `Arc<AppTrace>` (e.g. from the workload
    /// intern table) — the latter is loaded without copying phase data.
    pub fn load(&mut self, trace: impl Into<Arc<AppTrace>>) {
        self.app = Some(AppExec {
            trace: trace.into(),
            phase_idx: 0,
            phase_done_s: 0.0,
        });
    }

    /// Attach a trace recorder.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = recorder;
    }

    /// Cumulative work completed so far (s of work content).
    #[must_use]
    pub fn progress_s(&self) -> f64 {
        self.progress_s
    }

    /// The recorder (e.g. to read samples after a run).
    #[must_use]
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Mutable recorder access.
    pub fn recorder_mut(&mut self) -> &mut TraceRecorder {
        &mut self.recorder
    }

    /// The node (read-only).
    #[must_use]
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable node access — this is the runtimes' monitoring/actuation
    /// surface (`msr_read`/`msr_write`/`pcm_try_read_gbs`).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Name of the loaded application, if any.
    #[must_use]
    pub fn app_name(&self) -> Option<&str> {
        self.app.as_ref().map(|a| a.trace.name.as_str())
    }

    /// True when the loaded application has run to completion (an idle
    /// simulation is never "done").
    #[must_use]
    pub fn done(&self) -> bool {
        self.app
            .as_ref()
            .is_some_and(|a| a.phase_idx >= a.trace.phases.len())
    }

    /// Demand of the currently running phase (idle when none).
    #[must_use]
    pub fn current_demand(&self) -> Demand {
        match &self.app {
            Some(exec) if exec.phase_idx < exec.trace.phases.len() => {
                exec.trace.phases[exec.phase_idx].demand
            }
            _ => Demand::idle(),
        }
    }

    /// Advance one tick. Returns the node's step outcome.
    pub fn step(&mut self) -> StepOutcome {
        let dt_us = self.node.config().tick_us;
        let demand = self.current_demand();
        let outcome = self.node.step(dt_us, &demand);
        self.apply_tick_outcome(outcome, dt_us, demand.mem_gbs);
        outcome
    }

    /// Fast-forward to `horizon_us` (or until the application completes) on
    /// the macro-stepping fast path, bit-for-bit identical to stepping tick
    /// by tick. The caller picks the horizon as its next *event* time —
    /// typically a runtime's decision point or the end of the run budget.
    ///
    /// Ticks that must be computed go through [`Node::step_fast`] one at a
    /// time. A frozen span (see [`FastForward`]) replays in one call, up to
    /// the first of: the horizon, the tick that completes the running
    /// phase, a deferred actuation's due time and the recorder's next
    /// sample. No tick inside the span would have recorded, so the
    /// recorder observes once, after it.
    pub fn advance_until(&mut self, horizon_us: u64, ff: &mut FastForward) {
        let dt_us = self.node.config().tick_us;
        while !self.done() && self.node.time_us() < horizon_us {
            let demand = self.current_demand();
            if self.node.replays(dt_us, &demand, ff) {
                let end_us = horizon_us
                    .min(self.node.actuation_due_us())
                    .min(self.recorder.next_sample_us());
                // The span's last tick is the first that ends at or after
                // `end_us`.
                let max_ticks = end_us
                    .saturating_sub(self.node.time_us())
                    .div_ceil(dt_us)
                    .max(1);
                let ticks = self.advance_app(ff.replayed_progress(), dt_us, max_ticks);
                self.node.replay_frozen(ticks, ff);
                self.recorder
                    .observe(&self.node, demand.mem_gbs, self.progress_s);
            } else {
                let outcome = self.node.step_fast(dt_us, &demand, ff);
                self.apply_tick_outcome(outcome, dt_us, demand.mem_gbs);
            }
        }
    }

    /// Post-tick bookkeeping shared by the reference and fast paths: phase
    /// progress and trace recording.
    fn apply_tick_outcome(&mut self, outcome: StepOutcome, dt_us: u64, demand_gbs: f64) {
        self.advance_app(outcome.progress, dt_us, 1);
        self.recorder
            .observe(&self.node, demand_gbs, self.progress_s);
    }

    /// Credit the running phase `progress × dt` of work per tick for up to
    /// `max_ticks` ticks, one addition per tick, and stop after the tick
    /// that completes it (a tick can complete several very short phases).
    /// Returns the ticks credited: `max_ticks` when no phase completes or
    /// no application runs.
    fn advance_app(&mut self, progress: f64, dt_us: u64, max_ticks: u64) -> u64 {
        let Some(exec) = &mut self.app else {
            return max_ticks;
        };
        let phases = &exec.trace.phases;
        let Some(phase) = phases.get(exec.phase_idx) else {
            return max_ticks;
        };
        let advanced = progress * crate::us_to_secs(dt_us);
        for tick in 1..=max_ticks {
            self.progress_s += advanced;
            exec.phase_done_s += advanced;
            if exec.phase_done_s >= phase.work_s {
                while exec.phase_idx < phases.len()
                    && exec.phase_done_s >= phases[exec.phase_idx].work_s
                {
                    exec.phase_done_s -= phases[exec.phase_idx].work_s;
                    exec.phase_idx += 1;
                }
                return tick;
            }
        }
        max_ticks
    }

    /// Run until the application completes or `max_s` elapses, with no
    /// runtime attached (the stock governor alone).
    pub fn run_to_completion(&mut self, max_s: f64) -> RunSummary {
        let start_us = self.node.time_us();
        let budget_us = crate::secs_to_us(max_s);
        while !self.done() && self.node.time_us() - start_us < budget_us {
            self.step();
        }
        self.summary(start_us)
    }

    /// Build a summary relative to a start time (µs).
    #[must_use]
    pub fn summary(&self, start_us: u64) -> RunSummary {
        let energy = *self.node.energy();
        RunSummary {
            app: self.app_name().unwrap_or("idle").to_string(),
            system: self.node.config().name.clone(),
            runtime_s: crate::us_to_secs(self.node.time_us() - start_us),
            completed: self.done(),
            energy,
            mean_cpu_w: energy.mean_cpu_w(),
            mean_total_w: energy.mean_total_w(),
            uncore_transitions: self.node.uncore_transitions(),
            monitor_reads: self.node.ledger().reads(),
            monitor_writes: self.node.ledger().writes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::workload::{Phase, PhaseKind};
    use magus_msr::{MsrScope, UncoreRatioLimit, MSR_UNCORE_RATIO_LIMIT};

    fn sim_with(phases: Vec<Phase>) -> Simulation {
        let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
        sim.load(AppTrace::new("test", phases));
        sim
    }

    #[test]
    fn unconstrained_run_matches_work_content() {
        let mut sim = sim_with(vec![Phase::new(
            PhaseKind::Compute,
            5.0,
            Demand::new(2.0, 0.1, 0.2, 0.9),
        )]);
        let summary = sim.run_to_completion(60.0);
        assert!(summary.completed);
        // Low demand is always met: runtime == work content (± one tick).
        assert!(
            (summary.runtime_s - 5.0).abs() < 0.05,
            "{}",
            summary.runtime_s
        );
    }

    #[test]
    fn starved_run_stretches() {
        let mut sim = sim_with(vec![Phase::new(
            PhaseKind::Burst,
            5.0,
            Demand::new(200.0, 0.6, 0.3, 0.9),
        )]);
        // Pin every socket's uncore (min = max) at its 0.8 GHz floor.
        let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
        for pkg in 0..sim.node().config().sockets {
            sim.node_mut()
                .msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
        let summary = sim.run_to_completion(120.0);
        assert!(summary.completed);
        assert!(summary.runtime_s > 5.5, "{}", summary.runtime_s);
    }

    #[test]
    fn budget_truncates() {
        let mut sim = sim_with(vec![Phase::new(
            PhaseKind::Compute,
            100.0,
            Demand::new(1.0, 0.1, 0.1, 0.5),
        )]);
        let summary = sim.run_to_completion(2.0);
        assert!(!summary.completed);
        assert!((summary.runtime_s - 2.0).abs() < 0.05);
    }

    #[test]
    fn multiple_short_phases_complete_within_ticks() {
        let phases: Vec<Phase> = (0..100)
            .map(|_| Phase::new(PhaseKind::Burst, 0.001, Demand::new(1.0, 0.2, 0.1, 0.2)))
            .collect();
        let mut sim = sim_with(phases);
        let summary = sim.run_to_completion(10.0);
        assert!(summary.completed);
        assert!(summary.runtime_s < 0.3);
    }

    #[test]
    fn idle_sim_never_done() {
        let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
        for _ in 0..10 {
            sim.step();
        }
        assert!(!sim.done());
        assert_eq!(sim.app_name(), None);
        assert!(sim.current_demand().is_idle());
    }

    #[test]
    fn fast_path_run_matches_reference_exactly() {
        let phases = vec![
            Phase::new(PhaseKind::Compute, 3.0, Demand::new(5.0, 0.2, 0.3, 0.8)),
            Phase::new(PhaseKind::Burst, 2.0, Demand::new(150.0, 0.7, 0.4, 0.9)),
            Phase::new(PhaseKind::Compute, 1.0, Demand::new(2.0, 0.1, 0.2, 0.6)),
        ];
        let mut reference = sim_with(phases.clone());
        reference.set_recorder(TraceRecorder::new(100_000));
        let ref_summary = reference.run_to_completion(60.0);

        let mut fast = sim_with(phases);
        fast.set_recorder(TraceRecorder::new(100_000));
        let mut ff = FastForward::new();
        let start = fast.node().time_us();
        fast.advance_until(crate::secs_to_us(60.0), &mut ff);
        let fast_summary = fast.summary(start);

        assert_eq!(ref_summary, fast_summary);
        assert_eq!(reference.recorder().samples(), fast.recorder().samples());
        assert_eq!(
            reference.progress_s().to_bits(),
            fast.progress_s().to_bits()
        );
    }

    #[test]
    fn advance_until_reaches_horizon_exactly() {
        let mut sim = Simulation::new(Node::new(NodeConfig::intel_a100()));
        sim.node_mut().arm_telemetry();
        let mut ff = FastForward::new();
        sim.advance_until(2_000_000, &mut ff);
        assert_eq!(sim.node().time_us(), 2_000_000);
        // 200 ticks of 10 ms, each counted once per socket, most of them
        // replayed.
        let counters = sim.node().telemetry().unwrap().counters();
        assert_eq!(counters.residency_total_us(), 200 * 10_000 * 2);
        assert!(counters.fastpath_replayed_ticks > 100);
        // Horizon not tick-aligned: overshoots to the next tick edge, like
        // the per-tick reference loop would.
        sim.advance_until(2_015_000, &mut ff);
        assert_eq!(sim.node().time_us(), 2_020_000);
    }

    #[test]
    fn energy_to_solution_positive_and_consistent() {
        let mut sim = sim_with(vec![Phase::new(
            PhaseKind::Compute,
            2.0,
            Demand::new(5.0, 0.2, 0.2, 0.8),
        )]);
        let summary = sim.run_to_completion(30.0);
        assert!(summary.energy.total_j() > 0.0);
        let implied = summary.mean_total_w * summary.runtime_s;
        assert!((implied - summary.energy.total_j()).abs() / summary.energy.total_j() < 0.01);
    }
}
