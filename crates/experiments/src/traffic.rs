//! Traffic study: governor energy savings under multi-tenant load.
//!
//! The paper evaluates governors one application at a time; this study
//! asks the cluster question instead — what does adaptive uncore scaling
//! save when a fleet serves *traffic*? A ladder of [`TrafficTier`]s, each
//! a fixed seeded [`TrafficSpec`], shapes the load: a lightly loaded
//! fleet, a steady colocated mix, a diurnal swing, and an MMPP-bursty
//! rush. Every tier runs the same N-node fleet under each of {stock
//! default, MAGUS, UPS}; within a tier each governor is compared against
//! the *same-tier* stock baseline, so the deltas isolate the governor's
//! behaviour from the load shape's direct cost. Alongside the energy
//! comparison the traffic layer's deadline accounting reports how many
//! tenant jobs each governor made late — the service-level price of its
//! savings.
//!
//! Reproduce the published table with:
//!
//! ```text
//! cargo run --release --bin magus -- figure traffic_study > results/traffic_study.txt
//! ```

use magus_workloads::TrafficSpec;
use serde::{Deserialize, Serialize};

use crate::engine::GovernorSpec;
use crate::fleet::{run_fleet, FleetSpec};

/// One rung of the traffic-shape ladder. Every tier maps to a fixed,
/// seeded [`TrafficSpec`] (see [`TrafficTier::spec`]), so the study is
/// bit-reproducible and each tier's trials hash to distinct cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficTier {
    /// Few tenants, no colocation, long gaps: a mostly idle fleet.
    Light,
    /// Colocated tenants at a steady arrival rate (no modulation).
    Steady,
    /// The steady mix under a strong sinusoidal day/night envelope.
    Diurnal,
    /// The steady mix with an aggressive two-state MMPP burst process.
    Bursty,
}

impl TrafficTier {
    /// All tiers, in sweep order.
    pub const ALL: [TrafficTier; 4] = [
        TrafficTier::Light,
        TrafficTier::Steady,
        TrafficTier::Diurnal,
        TrafficTier::Bursty,
    ];

    /// Human-readable tier name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficTier::Light => "light",
            TrafficTier::Steady => "steady",
            TrafficTier::Diurnal => "diurnal",
            TrafficTier::Bursty => "bursty",
        }
    }

    /// The tier's traffic spec. Each tier draws from a distinct seed, and
    /// all share the same deadline slack, so miss-rate differences between
    /// tiers come from the arrival shape, not the deadline policy.
    #[must_use]
    pub fn spec(self) -> TrafficSpec {
        let builder = TrafficSpec::builder()
            .jobs_per_tenant(3)
            .deadline_slack(1.6);
        match self {
            TrafficTier::Light => builder
                .seed(1001)
                .tenants(4)
                .colocate(1)
                .mean_gap_s(8.0)
                .jobs_per_tenant(2),
            TrafficTier::Steady => builder.seed(1002).tenants(6).colocate(2).mean_gap_s(4.0),
            TrafficTier::Diurnal => builder
                .seed(1003)
                .tenants(6)
                .colocate(2)
                .mean_gap_s(4.0)
                .diurnal(120.0, 0.8),
            TrafficTier::Bursty => builder
                .seed(1004)
                .tenants(6)
                .colocate(2)
                .mean_gap_s(4.0)
                .bursts(8.0, 0.35, 0.25),
        }
        .build()
        .expect("tier specs are valid")
    }
}

/// One governor's numbers under one traffic tier, compared against the
/// same-tier stock baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GovernorRow {
    /// Governor display name.
    pub governor: String,
    /// Fleet total energy (J).
    pub total_j: f64,
    /// Fleet uncore energy (J).
    pub uncore_j: f64,
    /// Fleet makespan (s).
    pub makespan_s: f64,
    /// Tenant jobs carrying deadlines across the fleet.
    pub deadline_jobs: u64,
    /// Tenant jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Total-energy saving vs the same-tier stock baseline (%; the
    /// baseline row itself reads 0).
    pub energy_saving_pct: f64,
    /// Uncore-energy saving vs the same-tier stock baseline (%).
    pub uncore_saving_pct: f64,
    /// Makespan change vs the same-tier stock baseline (%; positive =
    /// the governor slowed the fleet down).
    pub makespan_delta_pct: f64,
}

impl GovernorRow {
    /// Deadline-miss rate in percent (0 when the tier carries no jobs).
    #[must_use]
    pub fn miss_pct(&self) -> f64 {
        if self.deadline_jobs == 0 {
            0.0
        } else {
            100.0 * self.deadline_misses as f64 / self.deadline_jobs as f64
        }
    }
}

/// One tier's evaluation: a row per governor, stock baseline first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficEval {
    /// The traffic tier these rows ran under.
    pub tier: TrafficTier,
    /// Per-governor rows, in {default, MAGUS, UPS} order.
    pub rows: Vec<GovernorRow>,
}

/// Percent change helper: `100 × (value − base) / base`, 0 for a zero base.
fn pct_delta(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (value - base) / base
    }
}

/// The traffic study over an explicit tier list: an N-node fleet per
/// (tier × governor), each node running one slot of the tier's traffic
/// expansion. Deterministic end to end — fleet summaries are
/// bit-identical across shard counts and stepping modes, and the specs
/// are seeded — so repeated runs produce identical tables.
#[must_use]
pub fn traffic_study_for_tiers(
    tiers: &[TrafficTier],
    nodes: usize,
    max_s: f64,
) -> Vec<TrafficEval> {
    tiers
        .iter()
        .map(|&tier| {
            let governors = [
                GovernorSpec::Default,
                GovernorSpec::magus_default(),
                GovernorSpec::ups_default(),
            ];
            let runs: Vec<_> = governors
                .into_iter()
                .map(|governor| {
                    let spec = FleetSpec {
                        max_s,
                        ..FleetSpec::new(governor, nodes)
                    }
                    .with_traffic(tier.spec());
                    let name = spec.governor.name(spec.system);
                    let run = run_fleet(&spec);
                    (name, run)
                })
                .collect();
            let base = runs[0].1.summary.clone();
            let rows = runs
                .into_iter()
                .map(|(name, run)| {
                    let s = &run.summary;
                    GovernorRow {
                        governor: name,
                        total_j: s.total_j,
                        uncore_j: s.total_uncore_j,
                        makespan_s: s.makespan_s,
                        deadline_jobs: s.deadline_jobs,
                        deadline_misses: s.deadline_misses,
                        energy_saving_pct: -pct_delta(s.total_j, base.total_j),
                        uncore_saving_pct: -pct_delta(s.total_uncore_j, base.total_uncore_j),
                        makespan_delta_pct: pct_delta(s.makespan_s, base.makespan_s),
                    }
                })
                .collect();
            TrafficEval { tier, rows }
        })
        .collect()
}

/// The full traffic study over every [`TrafficTier`].
#[must_use]
pub fn traffic_study(nodes: usize, max_s: f64) -> Vec<TrafficEval> {
    traffic_study_for_tiers(&TrafficTier::ALL, nodes, max_s)
}

/// Render the traffic report: one fixed-width table of
/// (tier × governor) rows with energy savings and deadline misses.
#[must_use]
pub fn render_traffic_report(nodes: usize, evals: &[TrafficEval]) -> String {
    let mut out = format!("== Traffic study: {nodes}-node fleet, {{default, MAGUS, UPS}} ==\n");
    out.push_str(&format!(
        "{:<8} {:<8} | {:>12} {:>8} {:>8} | {:>10} {:>7} {:>7} | {:>10} {:>8}\n",
        "tier",
        "governor",
        "energy J",
        "en-sv%",
        "unc-sv%",
        "makespan",
        "Δmk%",
        "jobs",
        "misses",
        "miss%"
    ));
    for eval in evals {
        for row in &eval.rows {
            out.push_str(&format!(
                "{:<8} {:<8} | {:>12.1} {:>8.2} {:>8.2} | {:>10.2} {:>7.2} {:>7} | {:>10} {:>8.1}\n",
                eval.tier.name(),
                row.governor,
                row.total_j,
                row.energy_saving_pct,
                row.uncore_saving_pct,
                row.makespan_s,
                row.makespan_delta_pct,
                row.deadline_jobs,
                row.deadline_misses,
                row.miss_pct(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_specs_are_valid_and_distinct() {
        let mut seeds = Vec::new();
        for tier in TrafficTier::ALL {
            let spec = tier.spec();
            spec.validate().expect("tier spec validates");
            seeds.push(spec.seed);
        }
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "tiers must use distinct traffic seeds");
        assert!(TrafficTier::Diurnal.spec().diurnal.amplitude > 0.0);
        assert!(TrafficTier::Bursty.spec().bursts.p_enter_burst > 0.0);
    }

    #[test]
    fn study_reports_savings_and_deadlines_per_tier() {
        let evals = traffic_study_for_tiers(&[TrafficTier::Steady], 3, 600.0);
        assert_eq!(evals.len(), 1);
        let rows = &evals[0].rows;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].governor, "default");
        assert_eq!(
            rows[0].energy_saving_pct, 0.0,
            "baseline compares to itself"
        );
        assert_eq!(rows[0].makespan_delta_pct, 0.0);
        for row in rows {
            assert!(row.total_j > 0.0);
            assert_eq!(
                row.deadline_jobs,
                3 * 2 * 3,
                "3 nodes × 2 colocated tenants × 3 jobs each"
            );
            assert!(row.deadline_misses <= row.deadline_jobs);
        }
        // MAGUS saves uncore energy under traffic — the study's headline.
        assert!(
            rows[1].uncore_saving_pct > 0.0,
            "MAGUS uncore saving: {}",
            rows[1].uncore_saving_pct
        );

        let report = render_traffic_report(3, &evals);
        assert!(report.contains("== Traffic study: 3-node fleet"));
        assert!(report.contains("steady"));
        assert!(report.contains("MAGUS"));

        // Determinism: the same tier re-runs to bit-identical rows.
        let again = traffic_study_for_tiers(&[TrafficTier::Steady], 3, 600.0);
        assert_eq!(render_traffic_report(3, &again), report);
    }
}
