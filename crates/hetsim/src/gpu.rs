//! GPU device model: SM-clock governor and board power.
//!
//! The paper's Fig 1b shows the GPU clock being managed dynamically by the
//! vendor stack already; MAGUS leaves GPUs alone. We still need a faithful
//! GPU *power* model because the paper's energy-saving metric includes GPU
//! board energy (§5) — a CPU-side runtime that slows the application down
//! keeps every GPU powered longer, which is exactly why multi-GPU energy
//! savings shrink in Fig 4c.

use crate::config::GpuConfig;

/// One GPU board.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    cfg: GpuConfig,
    sm_clock_mhz: f64,
    util: f64,
    energy_j: f64,
}

impl GpuDevice {
    /// New idle device at minimum SM clock.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        let clock = cfg.sm_clock_min_mhz;
        Self {
            cfg,
            sm_clock_mhz: clock,
            util: 0.0,
            energy_j: 0.0,
        }
    }

    /// Advance one tick at the given utilisation (0..1).
    pub fn step(&mut self, dt_s: f64, util: f64) {
        let util = util.clamp(0.0, 1.0);
        self.util = util;
        let target = self.cfg.sm_clock_min_mhz
            + (self.cfg.sm_clock_max_mhz - self.cfg.sm_clock_min_mhz) * util;
        self.sm_clock_mhz += (target - self.sm_clock_mhz) * self.cfg.clock_alpha;
        self.energy_j += self.power_w() * dt_s;
    }

    /// Apply a pre-captured per-tick energy increment for `n` ticks, one
    /// addition per tick, without re-evaluating the clock governor (frozen
    /// fast path; clock provably unchanged).
    pub(crate) fn replay_ticks(&mut self, n: u64, energy_inc_j: f64) {
        for _ in 0..n {
            self.energy_j += energy_inc_j;
        }
    }

    /// Current SM clock (MHz).
    #[must_use]
    pub fn sm_clock_mhz(&self) -> f64 {
        self.sm_clock_mhz
    }

    /// Most recent utilisation (0..1).
    #[must_use]
    pub fn util(&self) -> f64 {
        self.util
    }

    /// Board power (W): idle floor plus utilisation- and clock-dependent
    /// dynamic power.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        let clock_norm = ((self.sm_clock_mhz - self.cfg.sm_clock_min_mhz)
            / (self.cfg.sm_clock_max_mhz - self.cfg.sm_clock_min_mhz))
            .clamp(0.0, 1.0);
        self.cfg.idle_power_w
            + (self.cfg.max_power_w - self.cfg.idle_power_w) * self.util * (0.4 + 0.6 * clock_norm)
    }

    /// Cumulative board energy (J).
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// The configuration this device was built with.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuDevice {
        GpuDevice::new(GpuConfig::a100_40gb())
    }

    #[test]
    fn idle_power_is_floor() {
        let g = a100();
        assert!((g.power_w() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn clock_tracks_utilisation() {
        let mut g = a100();
        for _ in 0..50 {
            g.step(0.01, 1.0);
        }
        assert!((g.sm_clock_mhz() - 1410.0).abs() < 5.0);
        for _ in 0..50 {
            g.step(0.01, 0.0);
        }
        assert!((g.sm_clock_mhz() - 210.0).abs() < 5.0);
    }

    #[test]
    fn power_bounded_by_config() {
        let mut g = a100();
        for _ in 0..100 {
            g.step(0.01, 1.0);
            assert!(g.power_w() >= g.config().idle_power_w - 1e-9);
            assert!(g.power_w() <= g.config().max_power_w + 1e-9);
        }
        assert!((g.power_w() - 250.0).abs() < 5.0);
    }

    #[test]
    fn energy_accumulates_at_idle_rate() {
        let mut g = a100();
        for _ in 0..100 {
            g.step(0.01, 0.0);
        }
        // 1 second at 30 W idle = 30 J.
        assert!((g.energy_j() - 30.0).abs() < 0.5);
    }
}
