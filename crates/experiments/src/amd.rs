//! The §6.6 AMD port: MAGUS on an AMD EPYC + MI210 node.
//!
//! Nothing in MAGUS's logic is Intel-specific, and the port changes only
//! the actuation, which is the node's: [`crate::harness::SystemId::AmdMi210`]
//! runs the AMD preset (`NodeConfig::amd_epyc_mi210`), whose
//! `UncoreActuation::Hsmp` makes the drivers' one uncore writer pin fabric
//! P-states through HSMP mailbox round trips instead of splicing `0x620`.
//! The same [`crate::drivers::MagusDriver`] runs there, with the same
//! decision core, sample step, bounded write retry and degradation, and
//! reports itself as "MAGUS/HSMP". The preset spans the EPYC fabric
//! P-state table's P3 to P0, so the two-level controller maps exactly onto
//! P0 and the deepest P-state.

use crate::engine::{Engine, GovernorSpec, TrialSpec};
use crate::harness::SystemId;
use crate::metrics::Comparison;
use magus_hetsim::RunSummary;
use magus_workloads::AppId;

/// Evaluate MAGUS against the stock baseline on the AMD preset for one
/// application.
pub fn evaluate_amd(engine: &Engine, app: AppId) -> (Comparison, RunSummary) {
    let outs = engine.run_suite(&[
        TrialSpec::new(SystemId::AmdMi210, app, GovernorSpec::Default),
        TrialSpec::new(SystemId::AmdMi210, app, GovernorSpec::magus_default()),
    ]);
    let [base, run] = <[_; 2]>::try_from(outs).expect("two outcomes");
    (
        Comparison::against(&base.result.summary, &run.result.summary),
        run.result.summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{MagusDriver, RuntimeDriver};
    use crate::harness::{StepMode, TrialBuilder, TrialOpts};
    use magus_hetsim::{FaultPlan, Node, Simulation};
    use magus_telemetry::FieldValue;

    #[test]
    fn magus_over_hsmp_saves_energy_with_bounded_loss() {
        let (cmp, summary) = evaluate_amd(&Engine::ephemeral(), AppId::Bfs);
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
        let range = SystemId::AmdMi210.node_config().uncore;
        let pstates = [range.freq_max_ghz, range.freq_min_ghz];
        let r = TrialBuilder::on(SystemId::AmdMi210)
            .app(AppId::Cfd)
            .opts(TrialOpts::recorded())
            .run(&mut MagusDriver::with_defaults());
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
                let mut trial = TrialBuilder::on(SystemId::AmdMi210)
                    .app(app)
                    .opts(TrialOpts::recorded().with_path(path))
                    .arm_telemetry();
                if let Some(plan) = &plan {
                    trial = trial.faults(plan);
                }
                trial.run(&mut MagusDriver::with_defaults())
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
        let mut driver = MagusDriver::with_defaults();
        driver.set_monitor_only(true);
        let r = TrialBuilder::on(SystemId::AmdMi210)
            .app(AppId::Bfs)
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
        let mut sim = Simulation::new(Node::new(SystemId::AmdMi210.node_config()));
        sim.node_mut().set_fault_plan(plan);
        let mut driver = MagusDriver::with_defaults();
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
