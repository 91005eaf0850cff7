//! The §6.6 AMD port: MAGUS on an AMD EPYC + MI210 node.
//!
//! Nothing in MAGUS's logic is Intel-specific. `GovernorSpec::MagusHsmp`
//! builds the one [`crate::drivers::MagusDriver`] with its HSMP actuation
//! ([`crate::drivers::MagusDriver::hsmp`]): the same decision core, sample
//! step, bounded write retry and degradation, with fabric P-state mailbox
//! round trips instead of `wrmsr 0x620` max splices. The AMD preset
//! (`NodeConfig::amd_epyc_mi210`) spans the EPYC fabric P-state table's
//! P3 to P0, so the two-level controller maps exactly onto P0 and the
//! deepest P-state.

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
    use crate::drivers::{MagusDriver, RuntimeDriver};
    use crate::harness::{StepMode, TrialBuilder, TrialOpts};
    use magus_hetsim::{FaultPlan, Node, NodeConfig, Simulation};
    use magus_runtime::MagusConfig;
    use magus_telemetry::FieldValue;
    use magus_workloads::{app_trace, AppId, Platform};

    fn amd_trace(app: AppId) -> std::sync::Arc<magus_hetsim::AppTrace> {
        // The AMD node's fabric caps bandwidth lower than the Intel hosts;
        // the single-GPU workload set transfers at the same scale.
        app_trace(app, Platform::IntelA100)
    }

    fn hsmp_driver() -> MagusDriver {
        MagusDriver::hsmp(MagusConfig::default())
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
        let cfg = NodeConfig::amd_epyc_mi210();
        let pstates = [cfg.uncore.freq_max_ghz, cfg.uncore.freq_min_ghz];
        let r = TrialBuilder::custom(cfg)
            .trace(amd_trace(AppId::Cfd))
            .opts(TrialOpts::recorded())
            .run(&mut hsmp_driver());
        assert!(r.summary.completed);
        // Sampled fabric clocks settle only on P0 and the deepest P-state
        // (transitions excepted: tolerate in-flight slews by checking the
        // modal values).
        let settled = r
            .samples
            .iter()
            .filter(|s| pstates.iter().any(|&f| (s.uncore_ghz - f).abs() < 1e-6))
            .count();
        assert!(
            settled * 10 >= r.samples.len() * 7,
            "only {settled}/{} samples on P-state points",
            r.samples.len()
        );
    }

    #[test]
    fn fast_and_reference_paths_agree_on_the_amd_preset() {
        // Clean, and with every fifth fabric write failing and the rest
        // landing 1.5 s late (longer than a frozen span).
        let faulted = FaultPlan::builder()
            .uncore_write_fail_every(5)
            .actuation_delay_us(1_500_000)
            .build()
            .unwrap();
        for (plan, app) in [
            (None, AppId::Bfs),
            (None, AppId::Cfd),
            (None, AppId::Srad),
            (Some(faulted), AppId::Srad),
        ] {
            let run = |path| {
                let mut trial = TrialBuilder::custom(NodeConfig::amd_epyc_mi210())
                    .trace(amd_trace(app))
                    .opts(TrialOpts::recorded().with_path(path))
                    .arm_telemetry();
                if let Some(plan) = &plan {
                    trial = trial.faults(plan);
                }
                trial.run(&mut hsmp_driver())
            };
            let fast = run(StepMode::Fast);
            let reference = run(StepMode::Reference);
            let name = format!(
                "{}{}",
                app.name(),
                if plan.is_some() { "+faults" } else { "" }
            );
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
            if plan.is_some() {
                let delayed = FieldValue::Bool(true);
                assert!(
                    fast.events.iter().any(|e| e.kind == "fault_msr_write_fail"),
                    "{name}: no write failed"
                );
                assert!(
                    fast.events.iter().any(|e| e.kind == "uncore_limit_write"
                        && e.fields.get("delayed") == Some(&delayed)),
                    "{name}: no delayed write landed"
                );
            }
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
        let mut driver = hsmp_driver();
        driver.set_monitor_only(true);
        let r = TrialBuilder::custom(NodeConfig::amd_epyc_mi210())
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
        let plan = FaultPlan::builder().pcm_dropout_every(2).build().unwrap();
        let mut sim = Simulation::new(Node::new(NodeConfig::amd_epyc_mi210()));
        sim.node_mut().set_fault_plan(plan);
        let mut driver = hsmp_driver();
        driver.attach(&mut sim);
        for _ in 0..10 {
            sim.step();
        }
        // One PCM read per decision: read 1 lands, read 2 drops out and
        // never reaches the core.
        driver.on_decision(&mut sim);
        driver.on_decision(&mut sim);
        assert_eq!(driver.telemetry().cycles, 1);
        assert_eq!(driver.degraded(), 1);
    }
}
