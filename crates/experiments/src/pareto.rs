//! Pareto-frontier extraction for the §6.4 threshold sensitivity analysis.

use serde::Serialize;

/// One configuration's outcome in (runtime, energy) space, both
/// to-be-minimised.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoPoint {
    /// Configuration label, e.g. `"inc=300 dec=500 hf=0.4"`.
    pub label: String,
    /// Runtime (s).
    pub runtime_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
}

impl ParetoPoint {
    /// Project an engine outcome onto the (runtime, energy) plane.
    #[must_use]
    pub fn from_outcome(label: impl Into<String>, outcome: &crate::engine::TrialOutcome) -> Self {
        Self {
            label: label.into(),
            runtime_s: outcome.result.summary.runtime_s,
            energy_j: outcome.result.summary.energy.total_j(),
        }
    }

    /// True when `self` dominates `other` (no worse on both axes, strictly
    /// better on at least one).
    #[must_use]
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.runtime_s <= other.runtime_s && self.energy_j <= other.energy_j;
        let better = self.runtime_s < other.runtime_s || self.energy_j < other.energy_j;
        no_worse && better
    }
}

/// Extract the Pareto frontier (minimising both axes), sorted by runtime.
#[must_use]
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    let mut frontier: Vec<ParetoPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));
    frontier.dedup_by(|a, b| a.runtime_s == b.runtime_s && a.energy_j == b.energy_j);
    frontier
}

/// Distance of a point from the frontier, normalised per axis by the
/// frontier's spans — 0 when the point is on the frontier. Used to verify
/// the paper's claim that the common threshold set sits "on or close to"
/// every application's frontier.
#[must_use]
pub fn distance_to_frontier(point: &ParetoPoint, frontier: &[ParetoPoint]) -> f64 {
    if frontier.is_empty() {
        return 0.0;
    }
    let rt_span = frontier
        .iter()
        .map(|p| p.runtime_s)
        .fold(f64::NEG_INFINITY, f64::max)
        - frontier
            .iter()
            .map(|p| p.runtime_s)
            .fold(f64::INFINITY, f64::min);
    let en_span = frontier
        .iter()
        .map(|p| p.energy_j)
        .fold(f64::NEG_INFINITY, f64::max)
        - frontier
            .iter()
            .map(|p| p.energy_j)
            .fold(f64::INFINITY, f64::min);
    let rt_span = if rt_span <= 0.0 {
        point.runtime_s.max(1e-9)
    } else {
        rt_span
    };
    let en_span = if en_span <= 0.0 {
        point.energy_j.max(1e-9)
    } else {
        en_span
    };
    frontier
        .iter()
        .map(|p| {
            let dr = ((point.runtime_s - p.runtime_s) / rt_span).max(0.0);
            let de = ((point.energy_j - p.energy_j) / en_span).max(0.0);
            (dr * dr + de * de).sqrt()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(label: &str, rt: f64, en: f64) -> ParetoPoint {
        ParetoPoint {
            label: label.into(),
            runtime_s: rt,
            energy_j: en,
        }
    }

    #[test]
    fn dominance_relation() {
        assert!(p("a", 1.0, 1.0).dominates(&p("b", 2.0, 2.0)));
        assert!(p("a", 1.0, 2.0).dominates(&p("b", 1.0, 3.0)));
        assert!(!p("a", 1.0, 3.0).dominates(&p("b", 2.0, 1.0)));
        assert!(!p("a", 1.0, 1.0).dominates(&p("b", 1.0, 1.0)));
    }

    #[test]
    fn frontier_filters_dominated() {
        let pts = vec![
            p("fast-hungry", 1.0, 10.0),
            p("slow-frugal", 10.0, 1.0),
            p("balanced", 4.0, 4.0),
            p("dominated", 5.0, 5.0),
            p("worst", 12.0, 12.0),
        ];
        let f = pareto_frontier(&pts);
        let labels: Vec<&str> = f.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["fast-hungry", "balanced", "slow-frugal"]);
    }

    #[test]
    fn frontier_of_single_point() {
        let pts = vec![p("only", 1.0, 1.0)];
        assert_eq!(pareto_frontier(&pts).len(), 1);
    }

    #[test]
    fn frontier_point_has_zero_distance() {
        let pts = vec![p("a", 1.0, 10.0), p("b", 10.0, 1.0), p("c", 5.0, 5.0)];
        let f = pareto_frontier(&pts);
        for point in &f {
            assert!(distance_to_frontier(point, &f) < 1e-9);
        }
    }

    #[test]
    fn off_frontier_distance_positive_and_ordered() {
        let f = vec![p("a", 1.0, 10.0), p("b", 10.0, 1.0)];
        let near = distance_to_frontier(&p("near", 2.0, 10.5), &f);
        let far = distance_to_frontier(&p("far", 8.0, 12.0), &f);
        assert!(near > 0.0);
        assert!(far > near);
    }

    #[test]
    fn empty_inputs() {
        assert!(pareto_frontier(&[]).is_empty());
        assert_eq!(distance_to_frontier(&p("x", 1.0, 1.0), &[]), 0.0);
    }
}
