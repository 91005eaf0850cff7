//! Robustness study: how gracefully each governor degrades when the
//! sensor/actuator stack misbehaves.
//!
//! The study sweeps a small ladder of [`FaultIntensity`] tiers — each a
//! fixed, seeded [`FaultPlan`] — across the Fig 4a application catalog
//! with all three policies (stock, MAGUS, UPS). Within every tier each
//! governor is compared against the *same-tier* stock baseline, so the
//! comparison isolates the governor's response to faults from the faults'
//! direct effect on the workload. The headline numbers are the suite-mean
//! energy-saving and perf-loss deltas of each faulted tier against the
//! clean tier: a robust governor keeps both deltas near zero.
//!
//! Reproduce the published table with:
//!
//! ```text
//! cargo run --release --bin magus -- figure robustness > results/robustness.txt
//! ```

use magus_hetsim::FaultPlan;
use magus_workloads::{fig4a_suite, AppId};
use serde::Serialize;

use crate::engine::{Engine, TrialSpec};
use crate::figures::AppEval;
use crate::harness::SystemId;
use crate::metrics::Comparison;
use crate::report::render_fig4_table;

/// One rung of the fault-intensity ladder. Every tier maps to a fixed,
/// seeded [`FaultPlan`] (see [`FaultIntensity::plan`]), so the study is
/// reproducible bit-for-bit and each tier hashes to distinct cache
/// entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultIntensity {
    /// No injected faults: the Fig 4a evaluation, reused as the anchor.
    Clean,
    /// Rare dropouts and a small actuation delay.
    Low,
    /// Dropouts, stale reads, spikes, occasional MSR write failures,
    /// and a decision-period-scale actuation delay.
    Medium,
    /// Dense everything plus extra sensor noise: several faults per
    /// decision period.
    High,
}

impl FaultIntensity {
    /// All tiers, in sweep order (clean first — the delta anchor).
    pub const ALL: [FaultIntensity; 4] = [
        FaultIntensity::Clean,
        FaultIntensity::Low,
        FaultIntensity::Medium,
        FaultIntensity::High,
    ];

    /// Human-readable tier name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultIntensity::Clean => "clean",
            FaultIntensity::Low => "low",
            FaultIntensity::Medium => "medium",
            FaultIntensity::High => "high",
        }
    }

    /// The tier's fault plan; each tier draws its noise from a distinct
    /// seed. The uncore write-fault periods are odd. A two-socket node's
    /// actuation writes socket 0 and then socket 1, and a failed write is
    /// retried at once, so an odd period puts every failure on socket 0,
    /// where retrying that socket alone issues the same writes as
    /// retrying the whole actuation: `results/robustness.txt` is the same
    /// under either retry.
    #[must_use]
    pub fn plan(self) -> FaultPlan {
        let plan = match self {
            FaultIntensity::Clean => return FaultPlan::default(),
            FaultIntensity::Low => FaultPlan::builder()
                .seed(101)
                .pcm_dropout_every(63)
                .actuation_delay_us(5_000),
            FaultIntensity::Medium => FaultPlan::builder()
                .seed(102)
                .pcm_dropout_every(23)
                .pcm_stale_every(41)
                .pcm_spike(33, 0.3)
                .uncore_write_fail_every(9)
                .actuation_delay_us(20_000),
            FaultIntensity::High => FaultPlan::builder()
                .seed(103)
                .pcm_dropout_every(9)
                .pcm_stale_every(13)
                .pcm_extra_noise_rel(0.05)
                .pcm_spike(11, 0.6)
                .uncore_write_fail_every(5)
                .actuation_delay_us(50_000),
        };
        plan.build().expect("intensity plans are valid")
    }
}

/// One tier's evaluation: the per-app Fig 4-style rows (each governor vs
/// the same-tier stock baseline) plus the injected-fault volume.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessEval {
    /// The fault tier these rows ran under.
    pub intensity: FaultIntensity,
    /// Per-app MAGUS/UPS comparisons against the same-tier baseline.
    pub rows: Vec<AppEval>,
    /// Total faults injected across all trials of this tier.
    pub injected_faults: u64,
}

/// Suite-mean digest of one tier, with deltas against the clean tier.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RobustnessSummary {
    /// The fault tier.
    pub intensity: FaultIntensity,
    /// Total faults injected across the tier's trials.
    pub injected_faults: u64,
    /// Suite-mean MAGUS comparison vs the same-tier baseline.
    pub magus: Comparison,
    /// Suite-mean UPS comparison vs the same-tier baseline.
    pub ups: Comparison,
    /// MAGUS energy-saving change vs the clean tier (percentage points;
    /// negative = faults cost savings).
    pub magus_energy_delta: f64,
    /// MAGUS perf-loss change vs the clean tier (percentage points;
    /// positive = faults cost performance).
    pub magus_perf_delta: f64,
    /// UPS energy-saving change vs the clean tier (percentage points).
    pub ups_energy_delta: f64,
    /// UPS perf-loss change vs the clean tier (percentage points).
    pub ups_perf_delta: f64,
}

/// The robustness sweep over an explicit app list. One flat spec batch
/// (tier × app × policy) through the engine, reduced from streaming
/// digests in spec order.
#[must_use]
pub fn robustness_study_for_apps(
    engine: &Engine,
    system: SystemId,
    apps: &[AppId],
) -> Vec<RobustnessEval> {
    let specs: Vec<TrialSpec> = FaultIntensity::ALL
        .iter()
        .flat_map(|tier| {
            let plan = tier.plan();
            apps.iter().flat_map(move |&app| {
                crate::figures::eval_specs(system, app).map(|spec| spec.with_faults(plan))
            })
        })
        .collect();
    let briefs = engine.run_brief(&specs);
    FaultIntensity::ALL
        .iter()
        .zip(briefs.chunks_exact(3 * apps.len()))
        .map(|(&intensity, tier_briefs)| RobustnessEval {
            intensity,
            rows: apps
                .iter()
                .zip(tier_briefs.chunks_exact(3))
                .map(|(&app, chunk)| crate::figures::eval_from_briefs(app, chunk))
                .collect(),
            injected_faults: tier_briefs.iter().map(|b| b.fault_counters.total()).sum(),
        })
        .collect()
}

/// The full robustness study on a system's Fig 4a catalog.
#[must_use]
pub fn robustness_study(engine: &Engine, system: SystemId) -> Vec<RobustnessEval> {
    robustness_study_for_apps(engine, system, &fig4a_suite())
}

fn mean_comparison(rows: &[AppEval], pick: impl Fn(&AppEval) -> Comparison) -> Comparison {
    let n = rows.len().max(1) as f64;
    let mut sum = Comparison {
        perf_loss_pct: 0.0,
        power_saving_pct: 0.0,
        energy_saving_pct: 0.0,
    };
    for row in rows {
        let c = pick(row);
        sum.perf_loss_pct += c.perf_loss_pct;
        sum.power_saving_pct += c.power_saving_pct;
        sum.energy_saving_pct += c.energy_saving_pct;
    }
    sum.perf_loss_pct /= n;
    sum.power_saving_pct /= n;
    sum.energy_saving_pct /= n;
    sum
}

/// Reduce tier evaluations to suite means and clean-anchored deltas.
/// Expects the clean tier first, as produced by [`robustness_study`].
#[must_use]
pub fn summarize(evals: &[RobustnessEval]) -> Vec<RobustnessSummary> {
    let zero = Comparison {
        perf_loss_pct: 0.0,
        power_saving_pct: 0.0,
        energy_saving_pct: 0.0,
    };
    let clean_magus = evals
        .first()
        .map(|e| mean_comparison(&e.rows, |r| r.magus))
        .unwrap_or(zero);
    let clean_ups = evals
        .first()
        .map(|e| mean_comparison(&e.rows, |r| r.ups))
        .unwrap_or(zero);
    evals
        .iter()
        .map(|eval| {
            let magus = mean_comparison(&eval.rows, |r| r.magus);
            let ups = mean_comparison(&eval.rows, |r| r.ups);
            RobustnessSummary {
                intensity: eval.intensity,
                injected_faults: eval.injected_faults,
                magus,
                ups,
                magus_energy_delta: magus.energy_saving_pct - clean_magus.energy_saving_pct,
                magus_perf_delta: magus.perf_loss_pct - clean_magus.perf_loss_pct,
                ups_energy_delta: ups.energy_saving_pct - clean_ups.energy_saving_pct,
                ups_perf_delta: ups.perf_loss_pct - clean_ups.perf_loss_pct,
            }
        })
        .collect()
}

/// Render the full robustness report: one Fig 4-style table per tier,
/// then the suite-mean delta summary.
#[must_use]
pub fn render_robustness_report(system_name: &str, evals: &[RobustnessEval]) -> String {
    let mut out = String::new();
    for eval in evals {
        out.push_str(&render_fig4_table(
            &format!(
                "Robustness ({system_name}): {} faults",
                eval.intensity.name()
            ),
            &eval.rows,
        ));
        out.push('\n');
    }
    out.push_str(&format!(
        "== Robustness ({system_name}): suite-mean deltas vs clean ==\n"
    ));
    out.push_str(&format!(
        "{:<10} {:>8} | {:>9} {:>8} {:>9} {:>8} | {:>9} {:>8} {:>9} {:>8}\n",
        "intensity",
        "faults",
        "MAGUS",
        "Δen-sv",
        "loss%",
        "Δloss",
        "UPS",
        "Δen-sv",
        "loss%",
        "Δloss"
    ));
    out.push_str(&format!(
        "{:<10} {:>8} | {:>9} {:>8} {:>9} {:>8} | {:>9} {:>8} {:>9} {:>8}\n",
        "", "", "en-sv%", "", "", "", "en-sv%", "", "", ""
    ));
    for s in summarize(evals) {
        out.push_str(&format!(
            "{:<10} {:>8} | {:>9.2} {:>8.2} {:>9.2} {:>8.2} | {:>9.2} {:>8.2} {:>9.2} {:>8.2}\n",
            s.intensity.name(),
            s.injected_faults,
            s.magus.energy_saving_pct,
            s.magus_energy_delta,
            s.magus.perf_loss_pct,
            s.magus_perf_delta,
            s.ups.energy_saving_pct,
            s.ups_energy_delta,
            s.ups.perf_loss_pct,
            s.ups_perf_delta,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_plans_are_valid_and_distinct() {
        assert!(FaultIntensity::Clean.plan().is_empty());
        let mut seeds = Vec::new();
        for tier in [
            FaultIntensity::Low,
            FaultIntensity::Medium,
            FaultIntensity::High,
        ] {
            let plan = tier.plan();
            assert!(!plan.is_empty(), "{} plan must inject faults", tier.name());
            plan.validate().expect("tier plan validates");
            seeds.push(plan.seed);
        }
        seeds.dedup();
        assert_eq!(seeds.len(), 3, "tiers must use distinct fault seeds");
    }

    #[test]
    fn study_compares_within_tier_and_counts_faults() {
        let engine = Engine::ephemeral();
        let apps = [AppId::Bfs, AppId::Srad];
        let evals = robustness_study_for_apps(&engine, SystemId::IntelA100, &apps);
        assert_eq!(evals.len(), FaultIntensity::ALL.len());
        for eval in &evals {
            assert_eq!(eval.rows.len(), apps.len());
        }
        assert_eq!(evals[0].intensity, FaultIntensity::Clean);
        assert_eq!(evals[0].injected_faults, 0, "clean tier injects nothing");
        let high = evals.last().expect("high tier present");
        assert!(
            high.injected_faults > 20,
            "high tier must inject faults, got {}",
            high.injected_faults
        );

        let summaries = summarize(&evals);
        assert_eq!(summaries[0].magus_energy_delta, 0.0);
        assert_eq!(summaries[0].ups_perf_delta, 0.0);
        // Even at the highest tier the degraded governors keep working:
        // savings move, but stay within a sane band of the clean run.
        let worst = summaries.last().expect("high summary");
        assert!(
            worst.magus_energy_delta.abs() < 20.0,
            "MAGUS energy delta under faults: {}",
            worst.magus_energy_delta
        );

        let report = render_robustness_report("Intel + A100", &evals);
        assert!(report.contains("== Robustness (Intel + A100): high faults =="));
        assert!(report.contains("suite-mean deltas vs clean"));
    }
}
