//! Replicated trials: the paper's repetition methodology (§6).
//!
//! "Each experiment was repeated at least five times to account for
//! performance variance and outliers ... Outliers were removed, and the
//! average of the remaining results was calculated." The simulator's only
//! run-to-run variance source is its sensor/jitter noise seed, so
//! replication here re-seeds the node and re-jitters the workload —
//! quantifying how sensitive every reported number is to the stochastic
//! parts of the model.
//!
//! Replicates are ordinary engine trials: [`TrialSpec::replicate`]
//! carries the repetition index, and the spec's `node_config()` /
//! `build_trace()` apply the seed perturbations. Each (rep × policy) pair
//! is independently cached and scheduled.

use magus_workloads::AppId;
use serde::Serialize;

use crate::engine::{Engine, GovernorSpec, TrialSpec};
use crate::harness::SystemId;
use crate::metrics::Comparison;

/// Mean and sample standard deviation of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Stat {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two values).
    pub std: f64,
}

impl Stat {
    /// Compute from a slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                std: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        if values.len() < 2 {
            return Self { mean, std: 0.0 };
        }
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        Self {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Replicated evaluation of MAGUS vs the baseline for one application.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicatedEval {
    /// Application name.
    pub app: String,
    /// Number of replicates.
    pub replicates: usize,
    /// Performance loss (%), across replicates.
    pub perf_loss_pct: Stat,
    /// CPU power saving (%), across replicates.
    pub power_saving_pct: Stat,
    /// Energy saving (%), across replicates.
    pub energy_saving_pct: Stat,
}

/// Run `replicates` seeded repetitions of (baseline, MAGUS) and aggregate.
///
/// Each replicate perturbs both the node's sensor-noise seed and the
/// workload's jitter seed, mimicking run-to-run variation on hardware.
#[must_use]
pub fn evaluate_replicated(
    engine: &Engine,
    system: SystemId,
    app: AppId,
    replicates: usize,
) -> ReplicatedEval {
    let specs: Vec<TrialSpec> = (0..replicates)
        .flat_map(|rep| {
            [
                TrialSpec::new(system, app, GovernorSpec::Default).replicate(rep as u32),
                TrialSpec::new(system, app, GovernorSpec::magus_default()).replicate(rep as u32),
            ]
        })
        .collect();
    let outs = engine.run_suite(&specs);
    let comparisons: Vec<Comparison> = outs
        .chunks_exact(2)
        .map(|pair| Comparison::against(&pair[0].result.summary, &pair[1].result.summary))
        .collect();

    ReplicatedEval {
        app: app.name().to_string(),
        replicates,
        perf_loss_pct: Stat::of(
            &comparisons
                .iter()
                .map(|c| c.perf_loss_pct)
                .collect::<Vec<_>>(),
        ),
        power_saving_pct: Stat::of(
            &comparisons
                .iter()
                .map(|c| c.power_saving_pct)
                .collect::<Vec<_>>(),
        ),
        energy_saving_pct: Stat::of(
            &comparisons
                .iter()
                .map(|c| c.energy_saving_pct)
                .collect::<Vec<_>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_of_basics() {
        let s = Stat::of(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std - 2.0).abs() < 1e-12);
        assert_eq!(Stat::of(&[]).mean, 0.0);
        assert_eq!(Stat::of(&[7.0]).std, 0.0);
    }

    #[test]
    fn replicates_are_stable() {
        // Five seeded repetitions (the paper's protocol): the means must be
        // in the paper band and the spread small — seed noise must not be
        // doing the work in our headline numbers.
        let eval = evaluate_replicated(&Engine::ephemeral(), SystemId::IntelA100, AppId::Bfs, 5);
        assert_eq!(eval.replicates, 5);
        assert!(eval.perf_loss_pct.mean < 5.0, "{:?}", eval.perf_loss_pct);
        assert!(
            eval.energy_saving_pct.mean > 10.0,
            "{:?}",
            eval.energy_saving_pct
        );
        assert!(
            eval.energy_saving_pct.std < 2.0,
            "energy saving unstable across seeds: {:?}",
            eval.energy_saving_pct
        );
        assert!(eval.perf_loss_pct.std < 1.0, "{:?}", eval.perf_loss_pct);
    }
}
