//! Power decomposition and energy accounting.
//!
//! Mirrors the measurement domains of §5: *CPU package* (core + uncore),
//! *DRAM*, and *GPU board*. Energy totals integrate breakdowns over ticks
//! and feed both the RAPL energy-status MSRs and the experiment metrics.

use serde::{Deserialize, Serialize};

/// Instantaneous node power, decomposed by domain (W).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PowerBreakdown {
    /// Sum of core-domain power across sockets.
    pub core_w: f64,
    /// Sum of uncore-domain power across sockets.
    pub uncore_w: f64,
    /// Sum of DRAM power across sockets.
    pub dram_w: f64,
    /// Sum of GPU board power across devices.
    pub gpu_w: f64,
    /// Monitoring-runtime overhead power charged this tick.
    pub overhead_w: f64,
}

impl PowerBreakdown {
    /// CPU package power (core + uncore + monitoring overhead), the RAPL
    /// package-domain quantity.
    #[must_use]
    pub fn pkg_w(&self) -> f64 {
        self.core_w + self.uncore_w + self.overhead_w
    }

    /// CPU-side power (package + DRAM), the paper's "power saving" domain.
    #[must_use]
    pub fn cpu_w(&self) -> f64 {
        self.pkg_w() + self.dram_w
    }

    /// Total node power (CPU side + GPU boards), the paper's "energy
    /// saving" domain.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.cpu_w() + self.gpu_w
    }
}

impl core::ops::Add for PowerBreakdown {
    type Output = PowerBreakdown;

    fn add(self, rhs: PowerBreakdown) -> PowerBreakdown {
        PowerBreakdown {
            core_w: self.core_w + rhs.core_w,
            uncore_w: self.uncore_w + rhs.uncore_w,
            dram_w: self.dram_w + rhs.dram_w,
            gpu_w: self.gpu_w + rhs.gpu_w,
            overhead_w: self.overhead_w + rhs.overhead_w,
        }
    }
}

/// Cumulative energy by domain (J).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyTotals {
    /// Core-domain energy.
    pub core_j: f64,
    /// Uncore-domain energy.
    pub uncore_j: f64,
    /// DRAM energy.
    pub dram_j: f64,
    /// GPU board energy.
    pub gpu_j: f64,
    /// Monitoring-runtime overhead energy.
    pub overhead_j: f64,
    /// Integrated wall-clock time (s).
    pub elapsed_s: f64,
}

impl EnergyTotals {
    /// Integrate a power breakdown over `dt_s` seconds.
    pub fn accumulate(&mut self, p: &PowerBreakdown, dt_s: f64) {
        self.accumulate_ticks(1, p, dt_s);
    }

    /// Integrate `p` over `n` ticks of `dt_s` seconds: every field adds
    /// the same product once per tick, in order, so the sums are
    /// bit-for-bit those of `n` [`EnergyTotals::accumulate`] calls.
    pub(crate) fn accumulate_ticks(&mut self, n: u64, p: &PowerBreakdown, dt_s: f64) {
        let inc = [
            p.core_w * dt_s,
            p.uncore_w * dt_s,
            p.dram_w * dt_s,
            p.gpu_w * dt_s,
            p.overhead_w * dt_s,
        ];
        for _ in 0..n {
            self.core_j += inc[0];
            self.uncore_j += inc[1];
            self.dram_j += inc[2];
            self.gpu_j += inc[3];
            self.overhead_j += inc[4];
            self.elapsed_s += dt_s;
        }
    }

    /// CPU package energy (core + uncore + overhead), J.
    #[must_use]
    pub fn pkg_j(&self) -> f64 {
        self.core_j + self.uncore_j + self.overhead_j
    }

    /// CPU-side energy (package + DRAM), J.
    #[must_use]
    pub fn cpu_j(&self) -> f64 {
        self.pkg_j() + self.dram_j
    }

    /// Total energy-to-solution (CPU side + GPU boards), J — the quantity
    /// the paper minimises.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.cpu_j() + self.gpu_j
    }

    /// Mean total power over the accumulation window (W).
    #[must_use]
    pub fn mean_total_w(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.total_j() / self.elapsed_s
        }
    }

    /// Mean CPU-side power over the accumulation window (W).
    #[must_use]
    pub fn mean_cpu_w(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.cpu_j() / self.elapsed_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PowerBreakdown {
        PowerBreakdown {
            core_w: 45.0,
            uncore_w: 55.0,
            dram_w: 12.0,
            gpu_w: 200.0,
            overhead_w: 1.0,
        }
    }

    #[test]
    fn domain_sums() {
        let p = sample();
        assert!((p.pkg_w() - 101.0).abs() < 1e-12);
        assert!((p.cpu_w() - 113.0).abs() < 1e-12);
        assert!((p.total_w() - 313.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_add_is_fieldwise() {
        let p = sample() + sample();
        assert!((p.core_w - 90.0).abs() < 1e-12);
        assert!((p.total_w() - 626.0).abs() < 1e-12);
    }

    #[test]
    fn energy_integrates_power() {
        let mut e = EnergyTotals::default();
        let p = sample();
        for _ in 0..100 {
            e.accumulate(&p, 0.01);
        }
        assert!((e.elapsed_s - 1.0).abs() < 1e-9);
        assert!((e.total_j() - p.total_w()).abs() < 1e-6);
        assert!((e.mean_total_w() - p.total_w()).abs() < 1e-6);
    }

    #[test]
    fn energy_never_negative_for_nonneg_power() {
        let mut e = EnergyTotals::default();
        e.accumulate(&PowerBreakdown::default(), 1.0);
        assert_eq!(e.total_j(), 0.0);
        assert_eq!(e.mean_total_w(), 0.0);
    }

    #[test]
    fn empty_window_mean_is_zero() {
        let e = EnergyTotals::default();
        assert_eq!(e.mean_total_w(), 0.0);
        assert_eq!(e.mean_cpu_w(), 0.0);
    }
}
