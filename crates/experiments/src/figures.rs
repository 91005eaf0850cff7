//! One function per paper table/figure (§6). `magus figure <name>` prints
//! them (see [`crate::report::FIGURES`]); integration tests assert their
//! shapes against the paper.
//!
//! Every function describes its work as [`TrialSpec`]s and submits them
//! to the caller's [`Engine`] in one flat batch, so the engine can
//! schedule the whole figure in parallel and serve repeats from its
//! result cache. Trace-plotting figures (1, 2, 5) need the full recorded
//! outcomes and use `run_suite`; sweep-style reductions (fig 4, fig 7,
//! table 1) digest each outcome inside its worker via the streaming
//! `run_brief`/`run_mapped` APIs, so their peak memory stays O(workers).
//! Digests arrive in spec order either way, which keeps the reductions
//! below trivially deterministic.

use magus_runtime::MagusConfig;
use magus_workloads::{fig4a_suite, fig4b_suite, fig4c_suite, table1_suite, AppId, Platform};
use serde::{Deserialize, Serialize};

use crate::engine::{Engine, GovernorSpec, TrialBrief, TrialSpec};
use crate::harness::{SystemId, TrialResult};
use crate::metrics::{burst_jaccard, default_burst_threshold, Comparison};
use crate::overhead::{report_from_outcomes, OverheadReport};
use crate::pareto::ParetoPoint;

/// Fig 1: UNet profiled under the stock governor — CPU core frequency and
/// GPU clock move with demand; uncore stays pinned at maximum.
#[must_use]
pub fn fig1_unet_profile(engine: &Engine) -> TrialResult {
    engine
        .run(&TrialSpec::new(SystemId::IntelA100, AppId::Unet, GovernorSpec::Default).recorded())
        .result
}

/// Fig 2 data: UNet under fixed max vs fixed min uncore frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Data {
    /// Run with the uncore pinned at maximum (2.2 GHz).
    pub max_uncore: TrialResult,
    /// Run with the uncore pinned at minimum (0.8 GHz).
    pub min_uncore: TrialResult,
}

impl Fig2Data {
    /// CPU package power reduction from max to min (W) — the paper's 82 W.
    #[must_use]
    pub fn pkg_power_drop_w(&self) -> f64 {
        let pkg = |r: &TrialResult| {
            let e = &r.summary.energy;
            e.pkg_j() / e.elapsed_s
        };
        pkg(&self.max_uncore) - pkg(&self.min_uncore)
    }

    /// Runtime increase from max to min (%) — the paper's 21%.
    #[must_use]
    pub fn runtime_increase_pct(&self) -> f64 {
        crate::metrics::pct_change(
            self.max_uncore.summary.runtime_s,
            self.min_uncore.summary.runtime_s,
        )
    }
}

/// Fig 2: UNet power profiles at the uncore extremes.
#[must_use]
pub fn fig2_unet_extremes(engine: &Engine) -> Fig2Data {
    let system = SystemId::IntelA100;
    let uncore = system.node_config().uncore;
    let outs = engine.run_suite(&[
        TrialSpec::new(
            system,
            AppId::Unet,
            GovernorSpec::Fixed {
                ghz: uncore.freq_max_ghz,
            },
        )
        .recorded(),
        TrialSpec::new(
            system,
            AppId::Unet,
            GovernorSpec::Fixed {
                ghz: uncore.freq_min_ghz,
            },
        )
        .recorded(),
    ]);
    let [max_uncore, min_uncore] = <[_; 2]>::try_from(outs).expect("two outcomes");
    Fig2Data {
        max_uncore: max_uncore.result,
        min_uncore: min_uncore.result,
    }
}

/// One application's Fig 4 row: MAGUS and UPS against the stock baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppEval {
    /// Application name.
    pub app: String,
    /// Baseline runtime (s), for reference.
    pub baseline_runtime_s: f64,
    /// Baseline mean CPU power (W), for reference.
    pub baseline_cpu_w: f64,
    /// MAGUS vs baseline.
    pub magus: Comparison,
    /// UPS vs baseline.
    pub ups: Comparison,
}

/// The three policies of every Fig 4 cell, in reduction order.
pub(crate) fn eval_specs(system: SystemId, app: AppId) -> [TrialSpec; 3] {
    [
        TrialSpec::new(system, app, GovernorSpec::Default),
        TrialSpec::new(system, app, GovernorSpec::magus_default()),
        TrialSpec::new(system, app, GovernorSpec::ups_default()),
    ]
}

pub(crate) fn eval_from_briefs(app: AppId, briefs: &[TrialBrief]) -> AppEval {
    let [base, magus, ups] = briefs else {
        unreachable!("three outcomes per app")
    };
    AppEval {
        app: app.name().to_string(),
        baseline_runtime_s: base.summary.runtime_s,
        baseline_cpu_w: base.summary.mean_cpu_w,
        magus: Comparison::against(&base.summary, &magus.summary),
        ups: Comparison::against(&base.summary, &ups.summary),
    }
}

/// Evaluate one app on one system with all three methods.
#[must_use]
pub fn evaluate_app(engine: &Engine, system: SystemId, app: AppId) -> AppEval {
    let briefs = engine.run_brief(&eval_specs(system, app));
    eval_from_briefs(app, &briefs)
}

/// Fig 4 (a/b/c): the end-to-end suite evaluation for a system. The whole
/// suite (3 trials per application) is submitted as one flat batch and
/// reduced from streaming summary digests — full outcomes never
/// accumulate.
#[must_use]
pub fn fig4(engine: &Engine, system: SystemId) -> Vec<AppEval> {
    let suite = match system.platform() {
        Platform::IntelA100 => fig4a_suite(),
        Platform::IntelMax1550 => fig4b_suite(),
        Platform::Intel4A100 => fig4c_suite(),
    };
    let specs: Vec<TrialSpec> = suite
        .iter()
        .flat_map(|&app| eval_specs(system, app))
        .collect();
    let briefs = engine.run_brief(&specs);
    suite
        .iter()
        .zip(briefs.chunks_exact(3))
        .map(|(&app, chunk)| eval_from_briefs(app, chunk))
        .collect()
}

/// Fig 5: SRAD memory-throughput traces under four policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Data {
    /// Uncore pinned at maximum.
    pub max_uncore: TrialResult,
    /// Uncore pinned at minimum.
    pub min_uncore: TrialResult,
    /// MAGUS.
    pub magus: TrialResult,
    /// UPS.
    pub ups: TrialResult,
}

/// Fig 5 / Fig 6: the SRAD case study (§6.2).
#[must_use]
pub fn fig5_srad_case_study(engine: &Engine) -> Fig5Data {
    let system = SystemId::IntelA100;
    let uncore = system.node_config().uncore;
    let spec = |g: GovernorSpec| TrialSpec::new(system, AppId::Srad, g).recorded();
    let outs = engine.run_suite(&[
        spec(GovernorSpec::Fixed {
            ghz: uncore.freq_max_ghz,
        }),
        spec(GovernorSpec::Fixed {
            ghz: uncore.freq_min_ghz,
        }),
        spec(GovernorSpec::magus_default()),
        spec(GovernorSpec::ups_default()),
    ]);
    let [max_uncore, min_uncore, magus, ups] = <[_; 4]>::try_from(outs).expect("four outcomes");
    Fig5Data {
        max_uncore: max_uncore.result,
        min_uncore: min_uncore.result,
        magus: magus.result,
        ups: ups.result,
    }
}

/// Derived §6.2 case-study statistics (the numbers quoted in the text).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SradStats {
    /// MAGUS vs baseline.
    pub magus: Comparison,
    /// UPS vs baseline.
    pub ups: Comparison,
    /// Fraction of MAGUS's post-warm-up decision cycles spent in the
    /// high-frequency locked state.
    pub magus_high_freq_fraction: f64,
}

/// Compute the §6.2 statistics from a fresh case-study run.
#[must_use]
pub fn srad_stats(engine: &Engine) -> SradStats {
    let outs = engine.run_suite(&eval_specs(SystemId::IntelA100, AppId::Srad));
    let [base, magus, ups] = <[_; 3]>::try_from(outs).expect("three outcomes");
    SradStats {
        magus: Comparison::against(&base.result.summary, &magus.result.summary),
        ups: Comparison::against(&base.result.summary, &ups.result.summary),
        magus_high_freq_fraction: magus
            .high_freq_fraction
            .expect("MAGUS reports its high-frequency fraction"),
    }
}

/// Table 1: Jaccard similarity of burst intervals, MAGUS vs the
/// maximum-uncore baseline, per application — 2 × 21 recorded trials in
/// one batch.
#[must_use]
pub fn table1_jaccard(engine: &Engine) -> Vec<(String, f64)> {
    let suite = table1_suite();
    let specs: Vec<TrialSpec> = suite
        .iter()
        .flat_map(|&app| {
            [
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::Default).recorded(),
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::magus_default()).recorded(),
            ]
        })
        .collect();
    // Samples are the only thing the Jaccard reduction reads: extract them
    // inside the workers and let the rest of each outcome drop there.
    let samples = engine.run_mapped(&specs, |_, out| out.result.samples);
    suite
        .iter()
        .zip(samples.chunks_exact(2))
        .map(|(&app, pair)| {
            let threshold = default_burst_threshold(&pair[0]);
            let score = burst_jaccard(&pair[0], &pair[1], threshold);
            (app.name().to_string(), score)
        })
        .collect()
}

/// One Fig 7 sweep result for an application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Application name.
    pub app: String,
    /// Every threshold combination's outcome.
    pub points: Vec<ParetoPoint>,
    /// The default-threshold configuration's outcome.
    pub default_point: ParetoPoint,
    /// The paper's common-frontier point (inc=300, dec=500, hf=0.4).
    pub common_point: ParetoPoint,
}

/// The §6.4 protocol: fix two thresholds at their defaults and vary the
/// third — 40 combinations, built through the validating builder (the
/// final combination disables the high-frequency lock outright, the
/// ablation sentinel the range check would otherwise reject).
#[must_use]
pub fn sensitivity_combinations() -> Vec<MagusConfig> {
    let built = |b: magus_runtime::MagusConfigBuilder| b.build().expect("sweep configs are valid");
    let mut combos = Vec::with_capacity(40);
    for inc in [
        50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 700.0, 1000.0, 1500.0, 2000.0,
        3000.0, 5000.0,
    ] {
        combos.push(built(MagusConfig::builder().inc_threshold(inc)));
    }
    for dec in [
        100.0, 200.0, 300.0, 400.0, 500.0, 700.0, 1000.0, 1500.0, 2000.0, 3000.0, 5000.0, 8000.0,
        12000.0, 20000.0,
    ] {
        combos.push(built(MagusConfig::builder().dec_threshold(dec)));
    }
    for hf in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0] {
        combos.push(built(MagusConfig::builder().high_freq_threshold(hf)));
    }
    combos.push(built(MagusConfig::builder().disable_high_freq_lock()));
    combos
}

fn sweep_label(cfg: &MagusConfig) -> String {
    format!(
        "inc={} dec={} hf={}",
        cfg.inc_threshold, cfg.dec_threshold, cfg.high_freq_threshold
    )
}

/// Fig 7: the threshold sensitivity sweep for one application — all 42
/// configurations (40 sweep + default + common) in one batch.
#[must_use]
pub fn fig7_sensitivity(engine: &Engine, app: AppId) -> SweepResult {
    let system = SystemId::IntelA100;
    let mut cfgs = sensitivity_combinations();
    cfgs.push(MagusConfig::default());
    cfgs.push(MagusConfig::pareto_common());
    let labels: Vec<String> = cfgs.iter().map(sweep_label).collect();
    let specs: Vec<TrialSpec> = cfgs
        .into_iter()
        .map(|cfg| TrialSpec::new(system, app, GovernorSpec::Magus { cfg }))
        .collect();
    // 42 configurations reduce to 42 (runtime, energy) points; project
    // each outcome in its worker instead of collecting them all first.
    let mut points: Vec<ParetoPoint> = engine.run_mapped(&specs, |i, out| {
        ParetoPoint::from_outcome(labels[i].as_str(), &out)
    });
    let common_point = points.pop().expect("common point");
    let default_point = points.pop().expect("default point");
    SweepResult {
        app: app.name().to_string(),
        points,
        default_point,
        common_point,
    }
}

/// Table 2: idle overheads of MAGUS and UPS on both single-GPU systems —
/// six idle trials (2 systems × {baseline, MAGUS, UPS}) in one batch.
#[must_use]
pub fn table2_overheads(engine: &Engine, duration_s: f64) -> Vec<OverheadReport> {
    let systems = [SystemId::IntelA100, SystemId::IntelMax1550];
    let specs: Vec<TrialSpec> = systems
        .iter()
        .flat_map(|&system| {
            [
                TrialSpec::idle(system, GovernorSpec::Default, duration_s),
                TrialSpec::idle(system, GovernorSpec::magus_default(), duration_s).monitor_only(),
                TrialSpec::idle(system, GovernorSpec::ups_default(), duration_s).monitor_only(),
            ]
        })
        .collect();
    let outs = engine.run_suite(&specs);
    systems
        .iter()
        .zip(outs.chunks_exact(3))
        .flat_map(|(&system, chunk)| {
            [
                report_from_outcomes(system, &chunk[0], &chunk[1]),
                report_from_outcomes(system, &chunk[0], &chunk[2]),
            ]
        })
        .collect()
}

/// Ablation: MAGUS with and without the high-frequency lock on an
/// oscillating workload (the Algorithm 2 design choice).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HighFreqAblation {
    /// Full MAGUS vs baseline.
    pub with_lock: Comparison,
    /// Trend-prediction-only MAGUS vs baseline.
    pub without_lock: Comparison,
}

/// Run the high-frequency-lock ablation on `app` (SRAD is the interesting
/// subject).
#[must_use]
pub fn ablation_high_freq(engine: &Engine, app: AppId) -> HighFreqAblation {
    let system = SystemId::IntelA100;
    let outs = engine.run_suite(&[
        TrialSpec::new(system, app, GovernorSpec::Default),
        TrialSpec::new(system, app, GovernorSpec::magus_default()),
        TrialSpec::new(
            system,
            app,
            GovernorSpec::Magus {
                cfg: MagusConfig::without_high_freq_lock(),
            },
        ),
    ]);
    let [base, with_run, without_run] = <[_; 3]>::try_from(outs).expect("three outcomes");
    HighFreqAblation {
        with_lock: Comparison::against(&base.result.summary, &with_run.result.summary),
        without_lock: Comparison::against(&base.result.summary, &without_run.result.summary),
    }
}

/// Ablation: monitoring-interval sweep (§6.4's 0.2 s choice).
#[must_use]
pub fn ablation_interval(
    engine: &Engine,
    app: AppId,
    intervals_s: &[f64],
) -> Vec<(f64, Comparison)> {
    let system = SystemId::IntelA100;
    let mut specs = vec![TrialSpec::new(system, app, GovernorSpec::Default)];
    specs.extend(intervals_s.iter().map(|&interval_s| {
        TrialSpec::new(
            system,
            app,
            GovernorSpec::Magus {
                cfg: MagusConfig {
                    monitor_interval_us: (interval_s * 1e6) as u64,
                    ..MagusConfig::default()
                },
            },
        )
    }));
    let outs = engine.run_suite(&specs);
    let base = &outs[0];
    intervals_s
        .iter()
        .zip(&outs[1..])
        .map(|(&interval_s, out)| {
            (
                interval_s,
                Comparison::against(&base.result.summary, &out.result.summary),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_has_40_combinations() {
        assert_eq!(sensitivity_combinations().len(), 40);
    }

    #[test]
    fn evaluate_app_produces_sane_comparison() {
        let eval = evaluate_app(&Engine::ephemeral(), SystemId::IntelA100, AppId::Bfs);
        assert_eq!(eval.app, "bfs");
        assert!(eval.baseline_runtime_s > 10.0);
        // MAGUS on a compute-heavy kernel: meaningful CPU power savings,
        // bounded performance loss.
        assert!(eval.magus.power_saving_pct > 5.0, "{:?}", eval.magus);
        assert!(eval.magus.perf_loss_pct < 8.0, "{:?}", eval.magus);
    }

    #[test]
    fn fig2_reproduces_trade_off_direction() {
        let data = fig2_unet_extremes(&Engine::ephemeral());
        assert!(
            data.pkg_power_drop_w() > 40.0,
            "{}",
            data.pkg_power_drop_w()
        );
        assert!(
            data.runtime_increase_pct() > 8.0,
            "{}",
            data.runtime_increase_pct()
        );
    }

    #[test]
    fn fig1_profile_records_all_series() {
        let r = fig1_unet_profile(&Engine::ephemeral());
        assert!(r.samples.len() > 100);
        // Every plotted series carries live data.
        assert!(r.samples.iter().any(|s| s.gpu_clock_mhz > 1000.0));
        assert!(r.samples.iter().any(|s| s.core_freq_ghz > 1.0));
        assert!(r.samples.iter().all(|s| s.uncore_ghz > 2.19));
    }

    #[test]
    fn fig5_traces_have_expected_relationships() {
        let data = fig5_srad_case_study(&Engine::ephemeral());
        let peak = |r: &crate::harness::TrialResult| {
            r.samples.iter().map(|s| s.mem_gbs).fold(0.0, f64::max)
        };
        // Min uncore cannot reach the max-uncore throughput levels; MAGUS can.
        assert!(peak(&data.min_uncore) < peak(&data.max_uncore) * 0.7);
        assert!(peak(&data.magus) > peak(&data.max_uncore) * 0.9);
        assert!(data.min_uncore.summary.runtime_s > data.max_uncore.summary.runtime_s);
    }

    #[test]
    fn srad_stats_lock_engages() {
        let stats = srad_stats(&Engine::ephemeral());
        assert!(stats.magus_high_freq_fraction > 0.15);
        assert!(stats.magus.perf_loss_pct < stats.ups.perf_loss_pct + 5.0);
    }

    #[test]
    fn sensitivity_combinations_are_one_axis_variations() {
        let default = MagusConfig::default();
        for cfg in sensitivity_combinations() {
            let changed = [
                (cfg.inc_threshold - default.inc_threshold).abs() > 1e-12,
                (cfg.dec_threshold - default.dec_threshold).abs() > 1e-12,
                (cfg.high_freq_threshold - default.high_freq_threshold).abs() > 1e-12,
            ]
            .iter()
            .filter(|&&c| c)
            .count();
            assert!(changed <= 1, "{cfg:?} varies more than one threshold");
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn table1_covers_the_paper_rows() {
        // Structure only (the full sweep runs in the table1 binary): the
        // suite and threshold plumbing must line up with the paper's list.
        let suite = magus_workloads::table1_suite();
        assert_eq!(suite.len(), 21);
    }
}
