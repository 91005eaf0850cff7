//! Evaluation metrics (§5): performance loss, power saving, energy saving —
//! all relative to the stock baseline — plus the §6.3 Jaccard burst score.

use magus_hetsim::{RunSummary, TraceSample};
use serde::Serialize;

/// One method's results compared to the baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Comparison {
    /// Percentage increase in execution time vs baseline (positive = slower).
    pub perf_loss_pct: f64,
    /// Average reduction in CPU package + DRAM power vs baseline (%).
    pub power_saving_pct: f64,
    /// Reduction in total energy (CPU package + DRAM + GPU board) vs
    /// baseline (%). Negative when the method costs energy overall.
    pub energy_saving_pct: f64,
}

impl Comparison {
    /// Compare `run` against `baseline`.
    #[must_use]
    pub fn against(baseline: &RunSummary, run: &RunSummary) -> Self {
        let perf_loss_pct = pct_change(baseline.runtime_s, run.runtime_s);
        let power_saving_pct = -pct_change(baseline.mean_cpu_w, run.mean_cpu_w);
        let energy_saving_pct = -pct_change(baseline.energy.total_j(), run.energy.total_j());
        Self {
            perf_loss_pct,
            power_saving_pct,
            energy_saving_pct,
        }
    }
}

/// Percentage change from `from` to `to` (positive = increase).
#[must_use]
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from.abs() < 1e-12 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// Jaccard similarity of memory-throughput *burst intervals* between two
/// recorded traces (§6.3).
///
/// Each trace is binarised — a sample is a "burst" when its delivered
/// throughput exceeds `threshold_gbs` — then resampled onto a common
/// normalised-**progress** axis: equal application progress identifies the
/// same point in the program, so runs stretched by governor decisions stay
/// aligned burst-for-burst. The score is `|A ∧ B| / |A ∨ B|`. A burst that
/// one policy *starved* below the threshold (e.g. initialisation bursts
/// served at the idle uncore frequency during MAGUS's warm-up) counts
/// against the overlap — exactly the effect the paper credits for
/// fdtd2d's low score. Returns 1.0 when neither trace ever bursts.
#[must_use]
pub fn burst_jaccard(a: &[TraceSample], b: &[TraceSample], threshold_gbs: f64) -> f64 {
    const BUCKETS: usize = 512;
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let resample = |trace: &[TraceSample]| -> Vec<bool> {
        let total = trace.last().map_or(0.0, |s| s.progress_s).max(1e-9);
        let mut out = Vec::with_capacity(BUCKETS);
        let mut idx = 0usize;
        for i in 0..BUCKETS {
            let target = i as f64 / (BUCKETS - 1) as f64 * total;
            while idx + 1 < trace.len() && trace[idx].progress_s < target {
                idx += 1;
            }
            out.push(trace[idx].mem_gbs > threshold_gbs);
        }
        out
    };
    let in_a = resample(a);
    let in_b = resample(b);
    let mut intersection = 0u64;
    let mut union = 0u64;
    for i in 0..BUCKETS {
        if in_a[i] && in_b[i] {
            intersection += 1;
        }
        if in_a[i] || in_b[i] {
            union += 1;
        }
    }
    if union == 0 {
        1.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Default §6.3 burst threshold: half the peak throughput seen in the
/// baseline trace.
#[must_use]
pub fn default_burst_threshold(baseline: &[TraceSample]) -> f64 {
    0.5 * baseline.iter().map(|s| s.mem_gbs).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magus_hetsim::power::EnergyTotals;

    fn summary(runtime_s: f64, cpu_w: f64, total_j: f64) -> RunSummary {
        let energy = EnergyTotals {
            core_j: total_j, // park everything in one domain
            elapsed_s: runtime_s,
            ..EnergyTotals::default()
        };
        RunSummary {
            app: "x".into(),
            system: "y".into(),
            runtime_s,
            completed: true,
            energy,
            mean_cpu_w: cpu_w,
            mean_total_w: total_j / runtime_s,
            uncore_transitions: 0,
            monitor_reads: 0,
            monitor_writes: 0,
        }
    }

    fn sample_at(progress_s: f64, mem_gbs: f64) -> TraceSample {
        TraceSample {
            t_s: progress_s,
            progress_s,
            mem_gbs,
            demand_gbs: mem_gbs,
            uncore_ghz: 2.2,
            core_freq_ghz: 2.0,
            gpu_clock_mhz: 1000.0,
            pkg_w: 100.0,
            dram_w: 20.0,
            gpu_w: 200.0,
            overhead_w: 0.0,
        }
    }

    #[test]
    fn comparison_signs() {
        let base = summary(100.0, 200.0, 40_000.0);
        let better = summary(103.0, 160.0, 35_000.0);
        let c = Comparison::against(&base, &better);
        assert!((c.perf_loss_pct - 3.0).abs() < 1e-9);
        assert!((c.power_saving_pct - 20.0).abs() < 1e-9);
        assert!((c.energy_saving_pct - 12.5).abs() < 1e-9);
    }

    #[test]
    fn negative_savings_when_worse() {
        let base = summary(100.0, 200.0, 40_000.0);
        let worse = summary(100.0, 210.0, 42_000.0);
        let c = Comparison::against(&base, &worse);
        assert!(c.power_saving_pct < 0.0);
        assert!(c.energy_saving_pct < 0.0);
    }

    #[test]
    fn pct_change_zero_base() {
        assert_eq!(pct_change(0.0, 10.0), 0.0);
    }

    /// A periodic burst trace over a progress axis: `n` samples with
    /// bursts of width `w` every `period` units of progress, optionally
    /// starving (below-threshold) the first `skip` bursts.
    fn burst_trace(n: usize, period: usize, w: usize, skip_bursts: usize) -> Vec<TraceSample> {
        (0..n)
            .map(|i| {
                let in_burst = i % period < w && i / period >= skip_bursts;
                sample_at(i as f64, if in_burst { 80.0 } else { 5.0 })
            })
            .collect()
    }

    #[test]
    fn jaccard_identical_traces_is_one() {
        let trace = burst_trace(400, 40, 10, 0);
        assert_eq!(burst_jaccard(&trace, &trace, 40.0), 1.0);
    }

    #[test]
    fn jaccard_disjoint_bursts_is_low() {
        // Bursts at disjoint progress positions never overlap.
        let a = burst_trace(400, 100, 20, 0);
        let b: Vec<TraceSample> = (0..400)
            .map(|i| sample_at(i as f64, if (i + 50) % 100 < 20 { 80.0 } else { 5.0 }))
            .collect();
        assert!(burst_jaccard(&a, &b, 40.0) < 0.1);
    }

    #[test]
    fn jaccard_missing_bursts_lower_the_score() {
        let full = burst_trace(400, 40, 10, 0);
        let missing_two = burst_trace(400, 40, 10, 2);
        let j = burst_jaccard(&full, &missing_two, 40.0);
        assert!(j < 0.9, "j = {j}");
        assert!(j > 0.5, "j = {j}");
    }

    #[test]
    fn jaccard_invariant_to_time_stretch() {
        // The same bursts at the same *progress* positions but recorded at
        // a different wall-clock density (a stretched run) score perfectly.
        let a = burst_trace(400, 40, 10, 0);
        let b: Vec<TraceSample> = (0..800)
            .map(|i| {
                let p = i as f64 / 2.0; // double sampling density
                sample_at(p, if p % 40.0 < 10.0 { 80.0 } else { 5.0 })
            })
            .collect();
        // Scores stay near-perfect up to resampling granularity (the two
        // traces' total progress differs by half a sample).
        assert!(burst_jaccard(&a, &b, 40.0) > 0.9);
    }

    #[test]
    fn jaccard_no_bursts_is_one() {
        let a: Vec<TraceSample> = (0..100).map(|i| sample_at(i as f64, 1.0)).collect();
        assert_eq!(burst_jaccard(&a, &a, 40.0), 1.0);
        assert_eq!(burst_jaccard(&[], &a, 40.0), 1.0);
    }

    #[test]
    fn default_threshold_is_half_peak() {
        let a: Vec<TraceSample> = [10.0, 90.0, 30.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| sample_at(i as f64, v))
            .collect();
        assert!((default_burst_threshold(&a) - 45.0).abs() < 1e-12);
    }
}
