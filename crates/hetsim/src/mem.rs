//! Memory subsystem: uncore-limited bandwidth delivery and DRAM power.
//!
//! The central mechanism of the whole reproduction: deliverable bandwidth is
//! a monotone function of the uncore frequency (the LLC/mesh/memory
//! controller all sit in the uncore clock domain), so downclocking the
//! uncore caps throughput, and workload progress on memory-bound phases
//! stalls proportionally (§2's "setting it to the minimum ... can
//! significantly impact performance, especially for memory-intensive
//! tasks").

use crate::config::MemoryConfig;

/// One socket's memory channel group.
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    cfg: MemoryConfig,
    /// Delivered throughput during the last tick (GB/s).
    delivered_gbs: f64,
    /// Demanded throughput during the last tick (GB/s).
    demanded_gbs: f64,
    /// Cumulative bytes moved (GB).
    total_gb: f64,
}

impl MemoryChannel {
    /// New, quiescent channel group.
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> Self {
        Self {
            cfg,
            delivered_gbs: 0.0,
            demanded_gbs: 0.0,
            total_gb: 0.0,
        }
    }

    /// Bandwidth cap (GB/s) at a given normalised uncore frequency (0..1).
    ///
    /// Interpolates between `floor_frac · peak` (uncore at minimum) and
    /// `peak` (uncore at maximum) with exponent `bw_exp`.
    #[must_use]
    pub fn bw_cap_gbs(&self, uncore_norm: f64) -> f64 {
        let n = uncore_norm.clamp(0.0, 1.0).powf(self.cfg.bw_exp);
        self.cfg.peak_bw_gbs * (self.cfg.floor_frac + (1.0 - self.cfg.floor_frac) * n)
    }

    /// Advance one tick under bandwidth cap `cap_gbs` (the
    /// [`MemoryChannel::bw_cap_gbs`] of the uncore clock): deliver
    /// `min(demand, cap)` and return the delivered throughput (GB/s).
    pub fn step(&mut self, dt_s: f64, demand_gbs: f64, cap_gbs: f64) -> f64 {
        let demand = demand_gbs.max(0.0);
        let delivered = demand.min(cap_gbs);
        self.demanded_gbs = demand;
        self.delivered_gbs = delivered;
        self.total_gb += delivered * dt_s;
        delivered
    }

    /// Apply a pre-captured per-tick traffic increment for `n` ticks, one
    /// addition per tick, without re-evaluating the delivery model (frozen
    /// fast path; delivery provably unchanged).
    pub(crate) fn replay_ticks(&mut self, n: u64, gb_inc: f64) {
        for _ in 0..n {
            self.total_gb += gb_inc;
        }
    }

    /// Delivered throughput during the last tick (GB/s).
    #[must_use]
    pub fn delivered_gbs(&self) -> f64 {
        self.delivered_gbs
    }

    /// Demanded throughput during the last tick (GB/s).
    #[must_use]
    pub fn demanded_gbs(&self) -> f64 {
        self.demanded_gbs
    }

    /// Fraction of the bandwidth cap `cap_gbs` in use (0..1); this is the
    /// activity factor fed to the uncore power model.
    #[must_use]
    pub fn activity(&self, cap_gbs: f64) -> f64 {
        if cap_gbs <= 0.0 {
            0.0
        } else {
            (self.delivered_gbs / cap_gbs).clamp(0.0, 1.0)
        }
    }

    /// DRAM power (W) for this socket: background plus traffic-proportional.
    #[must_use]
    pub fn dram_power_w(&self) -> f64 {
        self.cfg.dram_base_w + self.cfg.dram_w_per_gbs * self.delivered_gbs
    }

    /// Cumulative data moved (GB).
    #[must_use]
    pub fn total_gb(&self) -> f64 {
        self.total_gb
    }

    /// The configuration this channel group was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }
}

/// Progress factor for a phase under constrained bandwidth.
///
/// A phase with memory-boundedness `mem_frac` demanding `demand` GB/s but
/// receiving `delivered` GB/s progresses at
/// `1 / ((1 - mem_frac) + mem_frac · demand/delivered)` — the roofline-style
/// serial composition of its compute and memory fractions. Returns 1.0 when
/// demand is met (or absent) and decays towards 0 as bandwidth starves.
#[must_use]
pub fn progress_factor(mem_frac: f64, demand_gbs: f64, delivered_gbs: f64) -> f64 {
    let mem_frac = mem_frac.clamp(0.0, 1.0);
    if demand_gbs <= 0.0 || delivered_gbs >= demand_gbs {
        return 1.0;
    }
    if delivered_gbs <= 0.0 {
        // Fully starved: the memory fraction never completes, so a phase
        // with any memory-bound share makes no forward progress. This is
        // the continuous limit of the roofline formula as delivery -> 0.
        return if mem_frac > 0.0 { 0.0 } else { 1.0 };
    }
    let stretch = (1.0 - mem_frac) + mem_frac * (demand_gbs / delivered_gbs);
    1.0 / stretch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    fn mem() -> MemoryChannel {
        MemoryChannel::new(NodeConfig::intel_a100().mem)
    }

    #[test]
    fn cap_interpolates_between_floor_and_peak() {
        let m = mem();
        let peak = m.config().peak_bw_gbs;
        let floor = m.config().floor_frac * peak;
        assert!((m.bw_cap_gbs(1.0) - peak).abs() < 1e-9);
        assert!((m.bw_cap_gbs(0.0) - floor).abs() < 1e-9);
        assert!(m.bw_cap_gbs(0.5) > floor && m.bw_cap_gbs(0.5) < peak);
    }

    #[test]
    fn cap_monotone_in_uncore() {
        let m = mem();
        let mut prev = 0.0;
        for i in 0..=10 {
            let cap = m.bw_cap_gbs(f64::from(i) / 10.0);
            assert!(cap >= prev);
            prev = cap;
        }
    }

    #[test]
    fn delivery_respects_cap() {
        let mut m = mem();
        let cap = m.bw_cap_gbs(0.0);
        let delivered = m.step(0.01, 1_000.0, cap);
        assert!((delivered - cap).abs() < 1e-9);
        let delivered = m.step(0.01, 5.0, cap);
        assert!((delivered - 5.0).abs() < 1e-9);
    }

    #[test]
    fn activity_reflects_cap_usage() {
        let mut m = mem();
        let cap = m.bw_cap_gbs(1.0);
        m.step(0.01, 1_000.0, cap);
        assert!((m.activity(cap) - 1.0).abs() < 1e-9);
        m.step(0.01, 0.0, cap);
        assert!(m.activity(cap).abs() < 1e-9);
    }

    #[test]
    fn dram_power_scales_with_traffic() {
        let mut m = mem();
        let idle = m.dram_power_w();
        m.step(0.01, 40.0, m.bw_cap_gbs(1.0));
        assert!(m.dram_power_w() > idle);
        assert!((idle - m.config().dram_base_w).abs() < 1e-9);
    }

    #[test]
    fn total_gb_accumulates() {
        let mut m = mem();
        for _ in 0..100 {
            m.step(0.01, 10.0, m.bw_cap_gbs(1.0));
        }
        assert!((m.total_gb() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn progress_factor_unconstrained_is_one() {
        assert_eq!(progress_factor(0.5, 10.0, 10.0), 1.0);
        assert_eq!(progress_factor(0.5, 0.0, 0.0), 1.0);
        assert_eq!(progress_factor(0.5, 10.0, 20.0), 1.0);
    }

    #[test]
    fn progress_factor_matches_roofline_formula() {
        // mem_frac 0.55, starved to half the demand: 0.45 + 0.55*2 = 1.55.
        let f = progress_factor(0.55, 20.0, 10.0);
        assert!((f - 1.0 / 1.55).abs() < 1e-12);
    }

    #[test]
    fn progress_factor_starved_limits() {
        assert_eq!(progress_factor(0.3, 10.0, 0.0), 0.0);
        assert_eq!(progress_factor(1.0, 10.0, 0.0), 0.0);
        assert_eq!(progress_factor(0.0, 10.0, 0.0), 1.0);
    }

    #[test]
    fn progress_factor_monotone_in_delivery() {
        let mut prev = 0.0;
        for i in 1..=10 {
            let f = progress_factor(0.8, 10.0, f64::from(i));
            assert!(f >= prev);
            prev = f;
        }
    }
}
