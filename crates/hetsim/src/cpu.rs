//! CPU core complex: per-core DVFS and core-domain power.
//!
//! The hardware DVFS governor is modelled as a first-order tracker of the
//! utilisation-implied frequency target — this reproduces the Fig 1a
//! behaviour where core frequency moves with workload demand while the
//! uncore (handled separately in [`crate::uncore`]) stays pinned.

use crate::config::CpuConfig;

/// State of one socket's core complex.
#[derive(Debug, Clone)]
pub struct CpuComplex {
    cfg: CpuConfig,
    /// Current average core frequency (GHz). Individual cores jitter around
    /// this value deterministically (see [`CpuComplex::core_freq_ghz`]).
    freq_ghz: f64,
    /// Most recent utilisation (0..1), retained for counter modelling.
    util: f64,
    /// Cumulative instructions retired across the socket.
    instructions: f64,
    /// Cumulative unhalted core cycles across the socket.
    cycles: f64,
    /// RAPL-enforcement frequency cap (GHz); `f64::INFINITY` when no cap.
    freq_cap_ghz: f64,
    /// Last tick's uncapped DVFS target (GHz) — the throttling reference.
    natural_target_ghz: f64,
}

impl CpuComplex {
    /// Create a complex idling at minimum frequency.
    #[must_use]
    pub fn new(cfg: CpuConfig) -> Self {
        let f0 = cfg.core_freq_min_ghz;
        Self {
            cfg,
            freq_ghz: f0,
            util: 0.0,
            instructions: 0.0,
            cycles: 0.0,
            freq_cap_ghz: f64::INFINITY,
            natural_target_ghz: f0,
        }
    }

    /// Set the RAPL-enforcement frequency cap (GHz). `f64::INFINITY`
    /// removes the cap. The cap floors at the minimum core frequency.
    pub fn set_freq_cap(&mut self, cap_ghz: f64) {
        self.freq_cap_ghz = cap_ghz.max(self.cfg.core_freq_min_ghz);
    }

    /// Current RAPL-enforcement frequency cap (GHz).
    #[must_use]
    pub fn freq_cap_ghz(&self) -> f64 {
        self.freq_cap_ghz
    }

    /// Advance one tick: track the utilisation-implied frequency target and
    /// accumulate fixed-counter state.
    ///
    /// `progress_factor` (0..1] is how fast memory-bound work is actually
    /// progressing; it scales retired instructions so that IPC — which the
    /// UPS baseline monitors — degrades when the uncore throttles a
    /// memory-bound phase, exactly the signal UPS keys on.
    pub fn step(&mut self, dt_s: f64, util: f64, progress_factor: f64) {
        let util = util.clamp(0.0, 1.0);
        self.util = util;
        // DVFS target: min freq when idle, base at moderate load, turbo when
        // hot. Piecewise-linear in utilisation.
        let target = if util < 0.5 {
            self.cfg.core_freq_min_ghz
                + (self.cfg.core_freq_base_ghz - self.cfg.core_freq_min_ghz) * (util / 0.5)
        } else {
            self.cfg.core_freq_base_ghz
                + (self.cfg.core_freq_max_ghz - self.cfg.core_freq_base_ghz) * ((util - 0.5) / 0.5)
        };
        // RAPL power-limit enforcement throttles core DVFS below its
        // utilisation-implied target.
        self.natural_target_ghz = target;
        let target = target.min(self.freq_cap_ghz);
        self.freq_ghz += (target - self.freq_ghz) * self.cfg.dvfs_alpha;

        let (cycles, instructions) = self.tick_counter_increments(util, progress_factor, dt_s);
        self.cycles += cycles;
        self.instructions += instructions;
    }

    /// Per-tick fixed-counter increments `(cycles, instructions)` at the
    /// *current* frequency. `step` applies exactly these; the node's frozen
    /// fast path captures them once and replays them, so both paths must go
    /// through this single definition to stay bit-identical.
    pub(crate) fn tick_counter_increments(
        &self,
        util: f64,
        progress_factor: f64,
        dt_s: f64,
    ) -> (f64, f64) {
        let util = util.clamp(0.0, 1.0);
        let busy_cores = util * f64::from(self.cfg.cores);
        let cycles = busy_cores * self.freq_ghz * 1e9 * dt_s;
        // Host IPC only partially reflects workload starvation: spinning
        // synchronisation threads retire instructions regardless of DMA
        // progress. `ipc_stall_coupling` sets the visible fraction.
        let coupling = self.cfg.ipc_stall_coupling.clamp(0.0, 1.0);
        let visible = 1.0 - coupling * (1.0 - progress_factor.clamp(0.0, 1.0));
        (cycles, cycles * self.cfg.base_ipc * visible)
    }

    /// Apply pre-captured per-tick counter increments for `n` ticks, one
    /// addition per tick, without re-evaluating the DVFS model (frozen fast
    /// path; frequency provably unchanged).
    pub(crate) fn replay_ticks(&mut self, n: u64, cycles_inc: f64, instructions_inc: f64) {
        for _ in 0..n {
            self.cycles += cycles_inc;
            self.instructions += instructions_inc;
        }
    }

    /// Current average core frequency (GHz).
    #[must_use]
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Deterministic per-core frequency (GHz): the average plus a small
    /// core-index-dependent offset, as plotted in Fig 1a.
    #[must_use]
    pub fn core_freq_ghz(&self, core: u32) -> f64 {
        let jitter = (f64::from(core % 7) - 3.0) * 0.015;
        (self.freq_ghz + jitter).clamp(self.cfg.core_freq_min_ghz, self.cfg.core_freq_max_ghz)
    }

    /// Most recent utilisation (0..1).
    #[must_use]
    pub fn util(&self) -> f64 {
        self.util
    }

    /// Core-domain power (W) for this socket at the current operating point.
    ///
    /// `static + dyn_max * util * (f/f_max)^exp` — the classic `C·V²·f`
    /// shape with voltage folded into the frequency exponent.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        self.power_w_with(self.freq_term(self.freq_ghz))
    }

    /// The frequency term `(f/f_max)^exp` of [`CpuComplex::power_w`] at
    /// core frequency `freq_ghz`: a pure function of its input and the
    /// configuration, so the node may memoise it.
    pub(crate) fn freq_term(&self, freq_ghz: f64) -> f64 {
        let norm = (freq_ghz / self.cfg.core_freq_max_ghz).clamp(0.0, 1.0);
        norm.powf(self.cfg.dyn_freq_exp)
    }

    /// [`CpuComplex::power_w`] given the frequency term at the current
    /// frequency.
    pub(crate) fn power_w_with(&self, freq_term: f64) -> f64 {
        self.cfg.static_power_w + self.cfg.dyn_power_max_w * self.util * freq_term
    }

    /// Cumulative instructions retired across the socket.
    #[must_use]
    pub fn instructions(&self) -> f64 {
        self.instructions
    }

    /// Cumulative unhalted cycles across the socket.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Last tick's uncapped DVFS target (GHz) — feedback state for the
    /// frozen fast path's fixed-point snapshot.
    pub(crate) fn natural_target_ghz(&self) -> f64 {
        self.natural_target_ghz
    }

    /// How much of the natural (uncapped-DVFS) core speed is currently
    /// delivered (0..1]. Exactly 1.0 when no power limit binds; below 1.0
    /// while RAPL enforcement holds the cores under their utilisation-
    /// implied frequency.
    #[must_use]
    pub fn throttle_factor(&self) -> f64 {
        if self.natural_target_ghz <= 0.0 {
            return 1.0;
        }
        (self.freq_ghz / self.natural_target_ghz).min(1.0)
    }

    /// Per-core share of the socket-cumulative instruction counter, with a
    /// deterministic core-dependent skew (work is never perfectly balanced).
    #[must_use]
    pub fn core_instructions(&self, core: u32) -> u64 {
        let share = self.instructions / f64::from(self.cfg.cores);
        let skew = 1.0 + (f64::from(core % 5) - 2.0) * 0.01;
        (share * skew).max(0.0) as u64
    }

    /// Per-core share of the socket-cumulative cycle counter.
    #[must_use]
    pub fn core_cycles(&self, core: u32) -> u64 {
        let share = self.cycles / f64::from(self.cfg.cores);
        let skew = 1.0 + (f64::from(core % 5) - 2.0) * 0.01;
        (share * skew).max(0.0) as u64
    }

    /// The configuration this complex was built with.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    fn cpu() -> CpuComplex {
        CpuComplex::new(NodeConfig::intel_a100().cpu)
    }

    #[test]
    fn starts_at_min_frequency() {
        let c = cpu();
        assert!((c.freq_ghz() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn frequency_tracks_utilisation() {
        let mut c = cpu();
        for _ in 0..100 {
            c.step(0.01, 1.0, 1.0);
        }
        assert!((c.freq_ghz() - c.config().core_freq_max_ghz).abs() < 0.05);
        for _ in 0..100 {
            c.step(0.01, 0.0, 1.0);
        }
        assert!((c.freq_ghz() - c.config().core_freq_min_ghz).abs() < 0.05);
    }

    #[test]
    fn freq_cap_throttles_dvfs() {
        let mut c = cpu();
        c.set_freq_cap(1.2);
        for _ in 0..100 {
            c.step(0.01, 1.0, 1.0);
        }
        assert!((c.freq_ghz() - 1.2).abs() < 0.05, "{}", c.freq_ghz());
        c.set_freq_cap(f64::INFINITY);
        for _ in 0..100 {
            c.step(0.01, 1.0, 1.0);
        }
        assert!((c.freq_ghz() - c.config().core_freq_max_ghz).abs() < 0.05);
    }

    #[test]
    fn freq_cap_floors_at_min() {
        let mut c = cpu();
        c.set_freq_cap(0.1);
        assert!((c.freq_cap_ghz() - c.config().core_freq_min_ghz).abs() < 1e-12);
    }

    #[test]
    fn power_monotone_in_utilisation() {
        let mut lo = cpu();
        let mut hi = cpu();
        for _ in 0..50 {
            lo.step(0.01, 0.2, 1.0);
            hi.step(0.01, 0.9, 1.0);
        }
        assert!(hi.power_w() > lo.power_w());
        assert!(lo.power_w() >= lo.config().static_power_w);
    }

    #[test]
    fn counters_accumulate_and_ipc_tracks_progress() {
        let mut c = cpu();
        for _ in 0..100 {
            c.step(0.01, 0.5, 1.0);
        }
        let ipc_full = c.instructions() / c.cycles();
        assert!((ipc_full - c.config().base_ipc).abs() < 1e-9);

        let mut stalled = cpu();
        for _ in 0..100 {
            stalled.step(0.01, 0.5, 0.5);
        }
        // With weak IPC/stall coupling, a 50% starvation shows up as only
        // a ~7% IPC dip: barely visible against UPS's tolerance — the
        // "blind feedback" effect on GPU-dominant hosts.
        let ipc_stalled = stalled.instructions() / stalled.cycles();
        let coupling = stalled.config().ipc_stall_coupling;
        let expect = ipc_full * (1.0 - coupling * 0.5);
        assert!(
            (ipc_stalled - expect).abs() < 1e-9,
            "{ipc_stalled} vs {expect}"
        );
    }

    #[test]
    fn per_core_values_are_deterministic_and_clamped() {
        let mut c = cpu();
        for _ in 0..20 {
            c.step(0.01, 0.7, 1.0);
        }
        assert_eq!(c.core_freq_ghz(3), c.core_freq_ghz(3));
        for core in 0..40 {
            let f = c.core_freq_ghz(core);
            assert!(f >= c.config().core_freq_min_ghz && f <= c.config().core_freq_max_ghz);
        }
        assert_ne!(c.core_instructions(0), c.core_instructions(1));
    }
}
