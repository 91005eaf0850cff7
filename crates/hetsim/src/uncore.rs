//! Uncore frequency domain: MSR-bounded target, finite slew, power model.
//!
//! On Intel parts the uncore clock floats between the min/max ratios in
//! `UNCORE_RATIO_LIMIT` (`0x620`); the stock policy keeps it pinned at the
//! max limit unless package power nears TDP (§2). Runtimes like MAGUS steer
//! the domain by *moving the max limit*. We reproduce that control path: the
//! domain's target is `min(msr_max_limit, tdp_cap)` and the physical clock
//! slews towards the target at a finite rate, so rapid flip-flopping has a
//! real cost — the phenomenon MAGUS's high-frequency detector exists to
//! avoid (§3.2).

use crate::config::UncoreConfig;

/// State of one socket's uncore domain.
#[derive(Debug, Clone)]
pub struct UncoreDomain {
    cfg: UncoreConfig,
    /// Physical clock right now (GHz).
    freq_ghz: f64,
    /// Max limit requested through MSR 0x620 (GHz).
    msr_max_ghz: f64,
    /// Min limit requested through MSR 0x620 (GHz).
    msr_min_ghz: f64,
    /// Additional cap imposed by the TDP-coupled stock governor (GHz).
    tdp_cap_ghz: f64,
    /// Count of target changes (for diagnostics / thrash metrics).
    transitions: u64,
    last_target: f64,
}

impl UncoreDomain {
    /// New domain running at its maximum frequency (the stock idle-to-busy
    /// default the paper observes in Fig 1c).
    #[must_use]
    pub fn new(cfg: UncoreConfig) -> Self {
        let max = cfg.freq_max_ghz;
        let min = cfg.freq_min_ghz;
        Self {
            cfg,
            freq_ghz: max,
            msr_max_ghz: max,
            msr_min_ghz: min,
            tdp_cap_ghz: max,
            transitions: 0,
            last_target: max,
        }
    }

    /// Apply MSR 0x620 limits (GHz). Values are clamped to the hardware
    /// range and `min ≤ max` is enforced the way hardware does (max wins).
    pub fn set_msr_limits(&mut self, min_ghz: f64, max_ghz: f64) {
        let lo = self.cfg.freq_min_ghz;
        let hi = self.cfg.freq_max_ghz;
        self.msr_max_ghz = max_ghz.clamp(lo, hi);
        self.msr_min_ghz = min_ghz.clamp(lo, self.msr_max_ghz);
    }

    /// Current MSR limits (min, max) in GHz.
    #[must_use]
    pub fn msr_limits(&self) -> (f64, f64) {
        (self.msr_min_ghz, self.msr_max_ghz)
    }

    /// Set the TDP-coupled cap (GHz); `freq_max_ghz` disables it.
    pub fn set_tdp_cap(&mut self, cap_ghz: f64) {
        self.tdp_cap_ghz = cap_ghz.clamp(self.cfg.freq_min_ghz, self.cfg.freq_max_ghz);
    }

    /// The frequency the hardware is currently steering towards.
    #[must_use]
    pub fn target_ghz(&self) -> f64 {
        self.msr_max_ghz.min(self.tdp_cap_ghz).max(self.msr_min_ghz)
    }

    /// Advance one tick: slew the physical clock towards the target.
    pub fn step(&mut self, dt_s: f64) {
        let target = self.target_ghz();
        if (target - self.last_target).abs() > 1e-9 {
            self.transitions += 1;
            self.last_target = target;
        }
        let max_delta = self.cfg.slew_ghz_per_s * dt_s;
        let delta = (target - self.freq_ghz).clamp(-max_delta, max_delta);
        self.freq_ghz += delta;
    }

    /// Physical uncore clock right now (GHz).
    #[must_use]
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Current TDP-coupled cap (GHz) — feedback state for the frozen fast
    /// path's fixed-point snapshot.
    pub(crate) fn tdp_cap_ghz(&self) -> f64 {
        self.tdp_cap_ghz
    }

    /// Last observed target (GHz) — feedback state for the frozen fast
    /// path's fixed-point snapshot (gates the transition counter).
    pub(crate) fn last_target_ghz(&self) -> f64 {
        self.last_target
    }

    /// Normalised position of the clock within the hardware range (0..1).
    #[must_use]
    pub fn norm_freq(&self) -> f64 {
        let span = self.cfg.freq_max_ghz - self.cfg.freq_min_ghz;
        if span <= 0.0 {
            return 1.0;
        }
        ((self.freq_ghz - self.cfg.freq_min_ghz) / span).clamp(0.0, 1.0)
    }

    /// Uncore power (W) for this socket.
    ///
    /// `P = P_min + span · norm^exp · (s + (1-s)·activity)` where `activity`
    /// is the memory subsystem's utilisation of its current bandwidth cap.
    /// The `s = dyn_static_frac` share is clock-tree power burned at a given
    /// frequency regardless of traffic — which is exactly why a pinned-max
    /// uncore wastes power on GPU-dominant workloads (Fig 2).
    #[must_use]
    pub fn power_w(&self, activity: f64) -> f64 {
        self.power_w_with(activity, self.freq_term(self.norm_freq()))
    }

    /// The frequency term `norm^exp` of [`UncoreDomain::power_w`] at
    /// normalised frequency `norm`: a pure function of its input and the
    /// configuration, so the node may memoise it.
    pub(crate) fn freq_term(&self, norm: f64) -> f64 {
        norm.powf(self.cfg.power_exp)
    }

    /// [`UncoreDomain::power_w`] given the frequency term at the current
    /// clock.
    pub(crate) fn power_w_with(&self, activity: f64, freq_term: f64) -> f64 {
        let act = activity.clamp(0.0, 1.0);
        let dynamic = self.cfg.power_span_w
            * freq_term
            * (self.cfg.dyn_static_frac + (1.0 - self.cfg.dyn_static_frac) * act);
        self.cfg.power_min_w + dynamic
    }

    /// Total target transitions since construction.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The configuration this domain was built with.
    #[must_use]
    pub fn config(&self) -> &UncoreConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    fn dom() -> UncoreDomain {
        UncoreDomain::new(NodeConfig::intel_a100().uncore)
    }

    #[test]
    fn starts_at_max() {
        let d = dom();
        assert!((d.freq_ghz() - 2.2).abs() < 1e-12);
        assert!((d.norm_freq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slews_toward_lowered_limit() {
        let mut d = dom();
        d.set_msr_limits(0.8, 0.8);
        d.step(0.01);
        // One 10 ms tick at 28 GHz/s moves at most 0.28 GHz.
        assert!(d.freq_ghz() > 1.9 && d.freq_ghz() < 2.2);
        for _ in 0..100 {
            d.step(0.01);
        }
        assert!((d.freq_ghz() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn limits_clamp_to_hardware_range() {
        let mut d = dom();
        d.set_msr_limits(0.1, 9.9);
        let (lo, hi) = d.msr_limits();
        assert!((lo - 0.8).abs() < 1e-12);
        assert!((hi - 2.2).abs() < 1e-12);
    }

    #[test]
    fn min_limit_cannot_exceed_max_limit() {
        let mut d = dom();
        d.set_msr_limits(2.0, 1.5);
        let (lo, hi) = d.msr_limits();
        assert!(lo <= hi);
        assert!((hi - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tdp_cap_bounds_target() {
        let mut d = dom();
        d.set_tdp_cap(1.2);
        assert!((d.target_ghz() - 1.2).abs() < 1e-12);
        d.set_msr_limits(0.8, 1.0);
        assert!((d.target_ghz() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_monotone_in_frequency_and_activity() {
        let mut hi = dom();
        let mut lo = dom();
        lo.set_msr_limits(0.8, 0.8);
        for _ in 0..200 {
            hi.step(0.01);
            lo.step(0.01);
        }
        assert!(hi.power_w(0.5) > lo.power_w(0.5));
        assert!(hi.power_w(0.9) > hi.power_w(0.1));
        assert!(lo.power_w(0.0) >= lo.config().power_min_w);
    }

    #[test]
    fn transition_counter_counts_target_changes() {
        let mut d = dom();
        d.step(0.01);
        assert_eq!(d.transitions(), 0);
        d.set_msr_limits(0.8, 1.0);
        d.step(0.01);
        d.step(0.01);
        assert_eq!(d.transitions(), 1);
        d.set_msr_limits(0.8, 2.2);
        d.step(0.01);
        assert_eq!(d.transitions(), 2);
    }

    #[test]
    fn uncore_delta_matches_fig2_scale() {
        // The Fig 2 calibration target: moving one socket's uncore from max
        // to min under moderate activity should shed roughly 40 W (≈82 W
        // across two sockets).
        let mut hi = dom();
        let mut lo = dom();
        lo.set_msr_limits(0.8, 0.8);
        for _ in 0..300 {
            hi.step(0.01);
            lo.step(0.01);
        }
        let delta = hi.power_w(0.5) - lo.power_w(0.5);
        assert!(delta > 33.0 && delta < 50.0, "delta = {delta}");
    }
}
