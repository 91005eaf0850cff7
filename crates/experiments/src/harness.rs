//! Trial execution: one (system × application × runtime) run.

use std::sync::Arc;

pub use magus_hetsim::StepMode;
use magus_hetsim::{
    run_node, secs_to_us, AppTrace, FaultCounters, FaultPlan, Node, NodeConfig, NodeFaults,
    RunSummary, Simulation, TraceRecorder, TraceSample,
};
use magus_telemetry::{Event, NodeCounters};
use magus_workloads::{app_trace, AppId, Platform};
use serde::{Deserialize, Serialize};

use crate::drivers::{DriverDecider, RuntimeDriver};

/// The paper's three testbeds and the §6.6 AMD port's node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemId {
    /// 2× Xeon 8380 + 1× A100-40GB.
    IntelA100,
    /// 2× Xeon 8380 + 4× A100-80GB.
    Intel4A100,
    /// 2× Xeon Max 9462 + Max 1550.
    IntelMax1550,
    /// 2× EPYC 7763 + 1× MI210, its fabric actuated over HSMP.
    AmdMi210,
}

impl SystemId {
    /// The node configuration preset.
    #[must_use]
    pub fn node_config(&self) -> NodeConfig {
        match self {
            SystemId::IntelA100 => NodeConfig::intel_a100(),
            SystemId::Intel4A100 => NodeConfig::intel_4a100(),
            SystemId::IntelMax1550 => NodeConfig::intel_max1550(),
            SystemId::AmdMi210 => NodeConfig::amd_epyc_mi210(),
        }
    }

    /// The matching workload platform. The AMD node runs the single-GPU
    /// workload set (its fabric caps bandwidth lower).
    #[must_use]
    pub fn platform(&self) -> Platform {
        match self {
            SystemId::IntelA100 | SystemId::AmdMi210 => Platform::IntelA100,
            SystemId::Intel4A100 => Platform::Intel4A100,
            SystemId::IntelMax1550 => Platform::IntelMax1550,
        }
    }

    /// Display name as in the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SystemId::IntelA100 => "Intel+A100",
            SystemId::Intel4A100 => "Intel+4A100",
            SystemId::IntelMax1550 => "Intel+Max1550",
            SystemId::AmdMi210 => "AMD+MI210",
        }
    }
}

/// Trial options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOpts {
    /// Trace-recorder sampling interval (µs); 0 disables recording.
    pub record_interval_us: u64,
    /// Wall-clock budget (s); runs that exceed it are marked incomplete.
    pub max_s: f64,
    /// Stepping path (fast by default; reference for differential audits).
    #[serde(default)]
    pub path: StepMode,
}

impl Default for TrialOpts {
    fn default() -> Self {
        Self {
            record_interval_us: 0,
            max_s: 600.0,
            path: StepMode::Fast,
        }
    }
}

impl TrialOpts {
    /// Options with recording at the paper's 0.1 s plot resolution.
    #[must_use]
    pub fn recorded() -> Self {
        Self {
            record_interval_us: 100_000,
            ..Self::default()
        }
    }

    /// Builder: select the stepping path.
    #[must_use]
    pub fn with_path(mut self, path: StepMode) -> Self {
        self.path = path;
        self
    }
}

/// Result of one trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    /// Runtime name used.
    pub runtime: String,
    /// Run summary (runtime, energy, mean powers, counters).
    pub summary: RunSummary,
    /// Recorded time series (empty unless requested).
    pub samples: Vec<TraceSample>,
    /// Number of runtime decision invocations during the run.
    pub invocations: u64,
    /// Mean invocation latency (µs) across the run.
    pub mean_invocation_us: f64,
    /// Governor decision / actuation event stream in simulation order
    /// (empty unless the trial was armed, [`TrialBuilder::arm_telemetry`]).
    /// Byte-identical between the fast and reference stepping paths.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub events: Vec<Event>,
    /// Deterministic per-node instrumentation counters: `Some` exactly
    /// when the trial's node was armed ([`TrialBuilder::arm_telemetry`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub node_telemetry: Option<NodeCounters>,
    /// Counts of injected faults during the run, per kind. All zero on
    /// clean runs (and omitted from serialized results).
    #[serde(default, skip_serializing_if = "fault_counters_zero")]
    pub fault_counters: FaultCounters,
}

/// Serde helper: omit all-zero fault counters from serialized results.
fn fault_counters_zero(c: &FaultCounters) -> bool {
    *c == FaultCounters::default()
}

/// One (node × workload × runtime) trial, built up with typed options —
/// the single construction path for every experiment run.
///
/// Start from a paper testbed ([`TrialBuilder::on`]) or an explicit node
/// configuration ([`TrialBuilder::custom`]); add a workload (or none, for
/// the Table 2 idle-overhead protocol), options, an optional RAPL PL1 cap,
/// an optional fault plan, and telemetry when something will read it; then
/// [`TrialBuilder::run`] a driver through it:
///
/// ```
/// use magus_experiments::drivers::NoopDriver;
/// use magus_experiments::{SystemId, TrialBuilder};
/// use magus_workloads::AppId;
///
/// let result = TrialBuilder::on(SystemId::IntelA100)
///     .app(AppId::Bfs)
///     .run(&mut NoopDriver);
/// assert!(result.summary.completed);
/// ```
#[derive(Debug, Clone)]
pub struct TrialBuilder {
    config: NodeConfig,
    platform: Option<Platform>,
    trace: Option<Arc<AppTrace>>,
    opts: TrialOpts,
    power_cap_w: Option<f64>,
    faults: Option<FaultPlan>,
    telemetry: bool,
}

impl TrialBuilder {
    /// A trial on one of the [`SystemId`] presets (the platform is remembered,
    /// so [`TrialBuilder::app`] can resolve catalog workloads).
    #[must_use]
    pub fn on(system: SystemId) -> Self {
        Self {
            config: system.node_config(),
            platform: Some(system.platform()),
            trace: None,
            opts: TrialOpts::default(),
            power_cap_w: None,
            faults: None,
            telemetry: false,
        }
    }

    /// A trial on an explicit node configuration (custom hardware:
    /// modified power models, ...). Catalog apps are unavailable —
    /// supply workloads through [`TrialBuilder::trace`].
    #[must_use]
    pub fn custom(config: NodeConfig) -> Self {
        Self {
            config,
            platform: None,
            trace: None,
            opts: TrialOpts::default(),
            power_cap_w: None,
            faults: None,
            telemetry: false,
        }
    }

    /// Run catalog application `app` (interned trace for this system's
    /// platform).
    ///
    /// # Panics
    ///
    /// Panics on a [`TrialBuilder::custom`] trial — a bare `NodeConfig` has
    /// no workload platform; pass an explicit [`TrialBuilder::trace`].
    #[must_use]
    pub fn app(mut self, app: AppId) -> Self {
        let platform = self
            .platform
            .expect("TrialBuilder::app needs a testbed platform; custom configs take trace()");
        self.trace = Some(app_trace(app, platform));
        self
    }

    /// Run an explicit trace (owned, or a shared `Arc` from the intern
    /// table). Without a trace the node idles for the full budget.
    #[must_use]
    pub fn trace(mut self, trace: impl Into<Arc<AppTrace>>) -> Self {
        self.trace = Some(trace.into());
        self
    }

    /// Replace the trial options (recording interval, budget, sim path).
    #[must_use]
    pub fn opts(mut self, opts: TrialOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Select the stepping path (shorthand for editing [`TrialOpts::path`]).
    #[must_use]
    pub fn path(mut self, path: StepMode) -> Self {
        self.opts.path = path;
        self
    }

    /// Program a per-socket RAPL PL1 limit (W) before the driver attaches
    /// (the §6.1 power-budget study).
    #[must_use]
    pub fn power_cap_w(mut self, w: f64) -> Self {
        self.power_cap_w = Some(w);
        self
    }

    /// Attach a fault plan before the driver attaches (the robustness-study
    /// path). An empty plan normalizes to no plan: the run stays
    /// bit-identical to a clean one.
    #[must_use]
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(*plan);
        self
    }

    /// Arm the node's telemetry, for callers that will read the result's
    /// `events` and `node_telemetry`. Unarmed trials (the default) record
    /// neither; every other field is identical either way.
    #[must_use]
    pub fn arm_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Execute the trial under `driver`.
    #[must_use]
    pub fn run(self, driver: &mut dyn RuntimeDriver) -> TrialResult {
        execute(
            self.config,
            self.trace,
            driver,
            self.opts,
            self.power_cap_w,
            self.faults.as_ref(),
            self.telemetry,
        )
    }
}

/// Run `app` on `system` under `driver` — the ubiquitous shorthand for
/// `TrialBuilder::on(system).app(app).opts(opts).run(driver)`.
pub fn run_trial(
    system: SystemId,
    app: AppId,
    driver: &mut dyn RuntimeDriver,
    opts: TrialOpts,
) -> TrialResult {
    TrialBuilder::on(system).app(app).opts(opts).run(driver)
}

/// The one trial executor behind [`TrialBuilder`].
///
/// * `trace = None` runs an idle node for `opts.max_s` (the Table 2
///   overhead protocol) — an idle simulation is never "done", so the
///   budget is the only terminator.
/// * `power_cap_w` programs a per-socket RAPL PL1 limit before the driver
///   attaches (the §6.1 power-budget study).
/// * `faults` threads a fault plan into the node before the driver attaches
///   (the robustness-study path). `None` — or an empty plan — attaches
///   nothing: the run is bit-identical to a clean one.
/// * `telemetry` arms the node, so the result carries its events and
///   counters; every other field is the same either way.
fn execute(
    config: NodeConfig,
    trace: Option<Arc<AppTrace>>,
    driver: &mut dyn RuntimeDriver,
    opts: TrialOpts,
    power_cap_w: Option<f64>,
    faults: Option<&FaultPlan>,
    telemetry: bool,
) -> TrialResult {
    let mut sim = Simulation::new(Node::new(config));
    if telemetry {
        sim.node_mut().arm_telemetry();
    }
    sim.set_recorder(TraceRecorder::new(opts.record_interval_us));
    if let Some(trace) = trace {
        sim.load(trace);
    }
    if let Some(plan) = faults {
        sim.node_mut().set_fault_plan(*plan);
    }
    if let Some(w) = power_cap_w {
        sim.node_mut().set_power_limit_w(w).expect("program PL1");
    }
    // The one decision loop fleet nodes also run, without fleet faults.
    let run = run_node(
        &mut sim,
        &mut DriverDecider(&mut *driver),
        opts.path,
        secs_to_us(opts.max_s),
        NodeFaults::default(),
    );

    // A fresh simulation starts at t = 0.
    let summary = sim.summary(0);
    let fault_counters = sim.node().fault_counters();
    let samples = sim.recorder_mut().take_samples();
    let (events, node_telemetry) = match sim.node_mut().telemetry_mut() {
        Some(t) => (t.take_events(), Some(t.counters())),
        None => (Vec::new(), None),
    };
    TrialResult {
        runtime: driver.name().to_string(),
        summary,
        samples,
        invocations: run.decisions,
        mean_invocation_us: if run.decisions == 0 {
            0.0
        } else {
            run.latency_us as f64 / run.decisions as f64
        },
        events,
        node_telemetry,
        fault_counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{FixedUncoreDriver, MagusDriver, NoopDriver, UpsDriver};

    #[test]
    fn baseline_trial_completes_at_work_content() {
        let mut driver = NoopDriver;
        let r = run_trial(
            SystemId::IntelA100,
            AppId::Bfs,
            &mut driver,
            TrialOpts::default(),
        );
        assert!(r.summary.completed);
        // Baseline (uncore pinned at max) meets every demand: runtime ==
        // work content (32 s for bfs).
        assert!(
            (r.summary.runtime_s - 32.0).abs() < 0.5,
            "{}",
            r.summary.runtime_s
        );
        assert_eq!(r.invocations, 1); // the immediate first call only
    }

    #[test]
    fn min_uncore_stretches_runtime() {
        let mut base = NoopDriver;
        let b = run_trial(
            SystemId::IntelA100,
            AppId::Unet,
            &mut base,
            TrialOpts::default(),
        );
        let mut fixed = FixedUncoreDriver::new(0.8);
        let f = run_trial(
            SystemId::IntelA100,
            AppId::Unet,
            &mut fixed,
            TrialOpts::default(),
        );
        assert!(f.summary.runtime_s > b.summary.runtime_s * 1.1);
        assert!(f.summary.mean_cpu_w < b.summary.mean_cpu_w);
    }

    #[test]
    fn magus_trial_invokes_on_cadence() {
        let mut driver = MagusDriver::with_defaults();
        let r = run_trial(
            SystemId::IntelA100,
            AppId::Bfs,
            &mut driver,
            TrialOpts::default(),
        );
        assert!(r.summary.completed);
        // ~0.3 s decision period over a ~32 s run: ≈ 105 invocations.
        let expected = r.summary.runtime_s / 0.3;
        assert!(
            (r.invocations as f64 - expected).abs() < expected * 0.15,
            "invocations = {}, expected ≈ {expected}",
            r.invocations
        );
        assert!((r.mean_invocation_us - 100_500.0).abs() < 3_000.0);
    }

    #[test]
    fn ups_trial_runs_slower_cadence() {
        let mut driver = UpsDriver::with_defaults();
        let r = run_trial(
            SystemId::IntelA100,
            AppId::Bfs,
            &mut driver,
            TrialOpts::default(),
        );
        assert!(r.summary.completed);
        // ~0.5 s decision period.
        let expected = r.summary.runtime_s / 0.5;
        assert!(
            (r.invocations as f64 - expected).abs() < expected * 0.2,
            "invocations = {}",
            r.invocations
        );
    }

    #[test]
    fn recording_produces_samples() {
        let mut driver = NoopDriver;
        let r = run_trial(
            SystemId::IntelA100,
            AppId::Srad,
            &mut driver,
            TrialOpts::recorded(),
        );
        assert!(r.samples.len() > 100, "{}", r.samples.len());
    }

    #[test]
    fn trials_are_deterministic() {
        let run = || {
            let mut driver = MagusDriver::with_defaults();
            run_trial(
                SystemId::IntelA100,
                AppId::Srad,
                &mut driver,
                TrialOpts::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.runtime_s, b.summary.runtime_s);
        assert_eq!(a.summary.energy.total_j(), b.summary.energy.total_j());
        assert_eq!(a.invocations, b.invocations);
    }

    /// An armed MAGUS trial of `app` with `opts`.
    fn armed_magus_trial(app: AppId, opts: TrialOpts) -> TrialResult {
        TrialBuilder::on(SystemId::IntelA100)
            .app(app)
            .opts(opts)
            .arm_telemetry()
            .run(&mut MagusDriver::with_defaults())
    }

    #[test]
    fn fast_path_trial_matches_reference_exactly() {
        let run =
            |path: StepMode| armed_magus_trial(AppId::Bfs, TrialOpts::recorded().with_path(path));
        let r = run(StepMode::Reference);
        let f = run(StepMode::Fast);
        assert_eq!(r.summary, f.summary);
        assert_eq!(r.samples, f.samples);
        assert_eq!(r.invocations, f.invocations);
        assert_eq!(r.mean_invocation_us, f.mean_invocation_us);
        // Decision events and residency are part of the bit-identity
        // contract; only the fast-path span counters may differ.
        assert!(!r.events.is_empty(), "an armed trial records events");
        assert_eq!(r.events, f.events);
        let (rc, fc) = (
            r.node_telemetry.expect("armed"),
            f.node_telemetry.expect("armed"),
        );
        assert_eq!(rc.residency_us, fc.residency_us);
        assert_eq!(rc.uncore_msr_writes, fc.uncore_msr_writes);
        assert_eq!(rc.events_dropped, fc.events_dropped);
    }

    #[test]
    fn unarmed_trials_record_no_telemetry_and_match_armed_ones() {
        let mut driver = MagusDriver::with_defaults();
        let unarmed = run_trial(
            SystemId::IntelA100,
            AppId::Srad,
            &mut driver,
            TrialOpts::default(),
        );
        assert!(unarmed.events.is_empty());
        assert_eq!(unarmed.node_telemetry, None);
        let armed = armed_magus_trial(AppId::Srad, TrialOpts::default());
        assert!(!armed.events.is_empty());
        assert!(armed.node_telemetry.is_some());
        assert_eq!(unarmed.summary, armed.summary);
        assert_eq!(unarmed.invocations, armed.invocations);
        assert_eq!(unarmed.mean_invocation_us, armed.mean_invocation_us);
    }

    #[test]
    fn magus_trials_carry_decision_events() {
        let r = armed_magus_trial(AppId::Bfs, TrialOpts::default());
        let decisions = r
            .events
            .iter()
            .filter(|e| e.kind == "magus_decision")
            .count() as u64;
        // Every post-warm-up invocation logs exactly one decision event.
        assert!(decisions > 0 && decisions <= r.invocations, "{decisions}");
        assert!(r.events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        let nc = r.node_telemetry.expect("telemetry enabled");
        assert!(nc.uncore_msr_writes >= 1);
        assert_eq!(nc.events_dropped, 0);
        // Two sockets accumulate residency for every simulated µs.
        assert_eq!(nc.residency_total_us(), secs_to_us(r.summary.runtime_s) * 2);
    }

    #[test]
    fn builder_matches_positional_wrappers_bit_for_bit() {
        let opts = TrialOpts::default();
        let built = TrialBuilder::on(SystemId::IntelA100)
            .app(AppId::Bfs)
            .opts(opts)
            .run(&mut NoopDriver);
        let classic = run_trial(SystemId::IntelA100, AppId::Bfs, &mut NoopDriver, opts);
        assert_eq!(built.summary, classic.summary);
    }

    #[test]
    fn builder_normalizes_empty_fault_plans() {
        let clean = TrialBuilder::on(SystemId::IntelA100)
            .app(AppId::Srad)
            .run(&mut NoopDriver);
        let armed = TrialBuilder::on(SystemId::IntelA100)
            .app(AppId::Srad)
            .faults(&FaultPlan::default())
            .run(&mut NoopDriver);
        assert_eq!(clean.summary, armed.summary);
        assert_eq!(armed.fault_counters, FaultCounters::default());
    }

    #[test]
    fn builder_idle_trial_runs_out_the_budget() {
        // No trace = the Table 2 idle-overhead protocol: the budget is the
        // only terminator.
        let r = TrialBuilder::on(SystemId::IntelA100)
            .opts(TrialOpts {
                max_s: 2.0,
                ..TrialOpts::default()
            })
            .run(&mut NoopDriver);
        assert!(!r.summary.completed);
        assert!((r.summary.runtime_s - 2.0).abs() < 0.05);
    }

    #[test]
    fn sim_path_serde_defaults_to_fast() {
        // Old serialized specs carry no `path` field; they must keep
        // deserializing and pick up the fast path.
        let legacy = r#"{"record_interval_us":0,"max_s":600.0}"#;
        let opts: TrialOpts = serde_json::from_str(legacy).unwrap();
        assert_eq!(opts.path, StepMode::Fast);
        let json =
            serde_json::to_string(&TrialOpts::default().with_path(StepMode::Reference)).unwrap();
        assert!(json.contains("\"reference\""), "{json}");
    }

    #[test]
    fn system_ids_map_to_configs() {
        assert_eq!(SystemId::IntelA100.node_config().gpus.len(), 1);
        assert_eq!(SystemId::Intel4A100.node_config().gpus.len(), 4);
        assert_eq!(SystemId::IntelMax1550.name(), "Intel+Max1550");
    }
}
