//! AMD port of the MAGUS driver: identical decision core, HSMP actuation.
//!
//! The §6.6 portability argument made concrete: nothing in MAGUS's logic
//! is Intel-specific. [`HsmpMagusDriver`] reuses [`MagusCore`] verbatim and
//! differs from the Intel driver only in its actuation path — fabric
//! P-state mailbox messages instead of `wrmsr 0x620` — and in being
//! quantised to the discrete P-state table (a no-op for a two-level
//! controller).

use magus_hetsim::Simulation;
use magus_hsmp::{transact, FabricPstateTable, HsmpMessage};
use magus_runtime::{MagusConfig, MagusCore, Telemetry, UncoreLevel};

use crate::drivers::{
    magus_decision_event, push_event, sample_mbs, with_invocation_latency, RuntimeDriver,
};

/// MAGUS bound to an AMD node through the HSMP mailbox.
#[derive(Debug)]
pub struct HsmpMagusDriver {
    core: MagusCore,
    table: FabricPstateTable,
    last_pstate: Option<u8>,
    monitor_only: bool,
}

impl HsmpMagusDriver {
    /// Driver with the given MAGUS configuration and fabric table.
    #[must_use]
    pub fn new(cfg: MagusConfig, table: FabricPstateTable) -> Self {
        assert!(!table.is_empty(), "fabric P-state table must not be empty");
        Self {
            core: MagusCore::new(cfg),
            table,
            last_pstate: None,
            monitor_only: false,
        }
    }

    /// Paper-default thresholds on the default EPYC table.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(MagusConfig::default(), FabricPstateTable::epyc_default())
    }

    /// Decision telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }

    fn set_pstate(&mut self, sim: &mut Simulation, pstate: u8) {
        if self.monitor_only || self.last_pstate == Some(pstate) {
            return;
        }
        for socket in 0..sim.node().config().sockets {
            transact(
                sim.node_mut(),
                &self.table,
                socket,
                HsmpMessage::SetDfPstate(pstate),
            )
            .expect("HSMP actuation");
        }
        self.last_pstate = Some(pstate);
    }
}

impl RuntimeDriver for HsmpMagusDriver {
    fn name(&self) -> &str {
        "MAGUS/HSMP"
    }

    fn attach(&mut self, sim: &mut Simulation) {
        // Idle nodes park the fabric in the deepest P-state (§4's policy,
        // translated); warm-up takes no actions.
        let deepest = (self.table.len() - 1) as u8;
        self.set_pstate(sim, deepest);
    }

    fn on_decision(&mut self, sim: &mut Simulation) -> u64 {
        with_invocation_latency(sim, |sim| {
            // The Intel driver's sample step: a dropout holds the previous
            // decision.
            let Some(sample) = sample_mbs(sim) else {
                return;
            };
            let action = self.core.on_sample(sample);
            match action.target() {
                Some(UncoreLevel::Upper) => self.set_pstate(sim, 0),
                Some(UncoreLevel::Lower) => self.set_pstate(sim, (self.table.len() - 1) as u8),
                None => {}
            }
            // Same decision-event taxonomy as the Intel driver; only the
            // actuation path differs, and that is visible as `hsmp` here.
            if let Some(rec) = self.core.last_record() {
                push_event(sim, |t_us| {
                    magus_decision_event(t_us, rec).with("actuation", "hsmp")
                });
            }
        })
    }

    fn rest_interval_us(&self) -> u64 {
        self.core.config().monitor_interval_us
    }

    fn set_monitor_only(&mut self, on: bool) {
        self.monitor_only = on;
    }

    fn high_freq_fraction(&self) -> Option<f64> {
        Some(self.core.telemetry().high_freq_fraction())
    }
}

/// Convenience: evaluate MAGUS-over-HSMP against the stock baseline on the
/// AMD preset for one application.
pub fn evaluate_amd(
    engine: &crate::engine::Engine,
    app: magus_workloads::AppId,
) -> (crate::metrics::Comparison, magus_hetsim::RunSummary) {
    use crate::engine::{GovernorSpec, TrialSpec};
    let outs = engine.run_suite(&[
        TrialSpec::amd(app, GovernorSpec::Default),
        TrialSpec::amd(app, GovernorSpec::magus_hsmp_default()),
    ]);
    let [base, run] = <[_; 2]>::try_from(outs).expect("two outcomes");
    (
        crate::metrics::Comparison::against(&base.result.summary, &run.result.summary),
        run.result.summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{StepMode, TrialBuilder, TrialOpts};
    use magus_workloads::{app_trace, AppId, Platform};

    fn amd_trace(app: AppId) -> std::sync::Arc<magus_hetsim::AppTrace> {
        // The AMD node's fabric caps bandwidth lower than the Intel hosts;
        // the single-GPU workload set transfers at the same scale.
        app_trace(app, Platform::IntelA100)
    }

    #[test]
    fn magus_over_hsmp_saves_energy_with_bounded_loss() {
        let (cmp, summary) = evaluate_amd(&crate::engine::Engine::ephemeral(), AppId::Bfs);
        assert!(summary.completed);
        assert!(cmp.perf_loss_pct < 5.0, "loss {}", cmp.perf_loss_pct);
        assert!(
            cmp.energy_saving_pct > 3.0,
            "saving {}",
            cmp.energy_saving_pct
        );
    }

    #[test]
    fn driver_actuates_discrete_pstates_only() {
        let cfg = magus_hsmp::amd_epyc_mi210();
        let mut driver = HsmpMagusDriver::with_defaults();
        let r = TrialBuilder::custom(cfg)
            .trace(amd_trace(AppId::Cfd))
            .opts(TrialOpts::recorded())
            .run(&mut driver);
        assert!(r.summary.completed);
        let table = FabricPstateTable::epyc_default();
        // Sampled fabric clocks settle only on table points (transitions
        // excepted: tolerate in-flight slews by checking the modal values).
        let settled = r
            .samples
            .iter()
            .filter(|s| {
                table
                    .fclk_ghz
                    .iter()
                    .any(|&f| (s.uncore_ghz - f).abs() < 1e-6)
            })
            .count();
        assert!(
            settled * 10 >= r.samples.len() * 7,
            "only {settled}/{} samples on P-state points",
            r.samples.len()
        );
    }

    #[test]
    fn fast_and_reference_paths_agree_on_the_amd_preset() {
        for app in [AppId::Bfs, AppId::Cfd, AppId::Srad] {
            let run = |path| {
                TrialBuilder::custom(magus_hsmp::amd_epyc_mi210())
                    .trace(amd_trace(app))
                    .opts(TrialOpts::recorded().with_path(path))
                    .arm_telemetry()
                    .run(&mut HsmpMagusDriver::with_defaults())
            };
            let fast = run(StepMode::Fast);
            let reference = run(StepMode::Reference);
            let name = app.name();
            assert!(
                !fast.samples.is_empty(),
                "{name}: the trial records samples"
            );
            assert!(
                fast.events.iter().any(|e| e.kind == "magus_decision"),
                "{name}: an armed trial records decisions"
            );
            assert_eq!(fast.summary, reference.summary, "{name}");
            assert_eq!(fast.samples, reference.samples, "{name}");
            assert_eq!(fast.events, reference.events, "{name}");
            assert_eq!(fast.invocations, reference.invocations, "{name}");
            assert_eq!(
                fast.mean_invocation_us.to_bits(),
                reference.mean_invocation_us.to_bits(),
                "{name}"
            );
            assert_eq!(fast.fault_counters, reference.fault_counters, "{name}");
            // Only the fast path's own span counters may differ.
            let (f, r) = (
                fast.node_telemetry.expect("armed"),
                reference.node_telemetry.expect("armed"),
            );
            assert_eq!(f.residency_us, r.residency_us, "{name}");
            assert_eq!(f.uncore_msr_writes, r.uncore_msr_writes, "{name}");
            assert_eq!(f.events_dropped, r.events_dropped, "{name}");
            assert!(
                f.fastpath_replayed_ticks > 0,
                "{name}: the fast path replays"
            );
            assert_eq!(r.fastpath_replayed_ticks, 0, "{name}");
        }
    }

    #[test]
    fn monitor_only_mode_freezes_fabric() {
        let cfg = magus_hsmp::amd_epyc_mi210();
        let mut driver = HsmpMagusDriver::with_defaults();
        driver.set_monitor_only(true);
        let r = TrialBuilder::custom(cfg)
            .trace(amd_trace(AppId::Bfs))
            .opts(TrialOpts::recorded())
            .run(&mut driver);
        let min = r
            .samples
            .iter()
            .map(|s| s.uncore_ghz)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (min - 1.6).abs() < 1e-6,
            "fabric moved in monitor-only: {min}"
        );
    }

    #[test]
    fn pcm_dropouts_hold_the_previous_decision() {
        let plan = magus_hetsim::FaultPlan::builder()
            .pcm_dropout_every(2)
            .build()
            .unwrap();
        let mut sim = Simulation::new(magus_hetsim::Node::new(magus_hsmp::amd_epyc_mi210()));
        sim.node_mut().set_fault_plan(plan);
        let mut driver = HsmpMagusDriver::with_defaults();
        driver.attach(&mut sim);
        for _ in 0..10 {
            sim.step();
        }
        // One PCM read per decision: read 1 lands, read 2 drops out and
        // never reaches the core.
        driver.on_decision(&mut sim);
        driver.on_decision(&mut sim);
        assert_eq!(driver.telemetry().cycles, 1);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_table_rejected() {
        let _ = HsmpMagusDriver::new(
            MagusConfig::default(),
            FabricPstateTable { fclk_ghz: vec![] },
        );
    }
}
