//! The UPS decision state machine (pure logic).
//!
//! Per decision cycle, fed mean IPC and DRAM power — UPS reacts to
//! *changes* in both signals (Gholkar et al.; the MAGUS paper's §1 summary:
//! "dynamically adjusts uncore frequency by detecting ... changes in DRAM
//! power and IPC"):
//!
//! 1. **Phase detection** — smoothed DRAM power moved more than
//!    `dram_delta_frac` (and more than an absolute floor) since the last
//!    cycle → new phase: reset the uncore to maximum.
//! 2. **Back-off** — IPC fell more than `ipc_tolerance` below the
//!    *previous cycle's* IPC while scavenged below maximum → step the
//!    uncore back *up* one step and hold for `hold_cycles`.
//! 3. **Scavenge** — otherwise step the uncore *down* one step (not below
//!    minimum), pocketing uncore power while IPC holds.
//!
//! The cycle-over-cycle IPC reference is the crux of UPS's §6.2 failure
//! mode: under *sustained* starvation IPC stops changing, so UPS resumes
//! its descent and keeps the application starved — Fig 6 shows it still
//! lowering the uncore after second 15 while MAGUS's high-frequency
//! detector has locked the uncore at maximum.

use serde::Serialize;

use crate::config::UpsConfig;

/// What UPS decided in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UpsDecision {
    /// The uncore max-limit target (GHz) after this cycle.
    pub target_ghz: f64,
    /// Whether a phase change was detected.
    pub phase_change: bool,
    /// Whether the cycle backed off due to IPC degradation.
    pub backed_off: bool,
}

/// UPS state machine.
#[derive(Debug, Clone)]
pub struct UpsCore {
    cfg: UpsConfig,
    min_ghz: f64,
    max_ghz: f64,
    target_ghz: f64,
    ipc_ref: Option<f64>,
    /// EWMA-smoothed DRAM power of the previous cycle. Smoothing is what
    /// keeps sub-interval throughput fluctuation (the SRAD case) from
    /// registering as a phase change every cycle — UPS instead keeps
    /// scavenging through it, which is exactly the §6.2 failure mode MAGUS
    /// fixes with its high-frequency detector.
    last_dram_w: Option<f64>,
    hold_remaining: u32,
    cycles: u64,
    phase_changes: u64,
    backoffs: u64,
}

impl UpsCore {
    /// New core for an uncore range. The uncore starts at maximum.
    ///
    /// Panics on invalid configurations.
    #[must_use]
    pub fn new(cfg: UpsConfig, min_ghz: f64, max_ghz: f64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid UpsConfig: {e}");
        }
        assert!(min_ghz < max_ghz, "uncore range must be non-empty");
        Self {
            cfg,
            min_ghz,
            max_ghz,
            target_ghz: max_ghz,
            ipc_ref: None,
            last_dram_w: None,
            hold_remaining: 0,
            cycles: 0,
            phase_changes: 0,
            backoffs: 0,
        }
    }

    /// Current target (GHz).
    #[must_use]
    pub fn target_ghz(&self) -> f64 {
        self.target_ghz
    }

    /// Decision cycles processed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Phase changes detected.
    #[must_use]
    pub fn phase_changes(&self) -> u64 {
        self.phase_changes
    }

    /// IPC back-offs taken.
    #[must_use]
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    fn is_phase_change(&self, dram_w: f64) -> bool {
        match self.last_dram_w {
            None => false,
            Some(prev) => {
                let delta = (dram_w - prev).abs();
                delta > self.cfg.dram_delta_floor_w
                    && delta > self.cfg.dram_delta_frac * prev.max(1e-9)
            }
        }
    }

    /// EWMA smoothing coefficient for the DRAM-power phase signal.
    const DRAM_EWMA_ALPHA: f64 = 0.5;

    /// One decision cycle with fresh measurements.
    pub fn decide(&mut self, mean_ipc: f64, dram_w: f64) -> UpsDecision {
        self.cycles += 1;
        let smoothed = match self.last_dram_w {
            Some(prev) => prev + Self::DRAM_EWMA_ALPHA * (dram_w - prev),
            None => dram_w,
        };
        let phase_change = self.is_phase_change(smoothed);
        self.last_dram_w = Some(smoothed);

        let mut backed_off = false;
        if phase_change {
            self.phase_changes += 1;
            self.target_ghz = self.max_ghz;
            self.ipc_ref = None; // re-baseline next cycle at full uncore
            self.hold_remaining = 0;
        } else {
            match self.ipc_ref {
                None => {
                    // First cycle of a phase: record the previous-cycle
                    // reference and start scavenging next cycle.
                    self.ipc_ref = Some(mean_ipc);
                }
                Some(prev_ipc) => {
                    let scavenged = self.target_ghz < self.max_ghz - 1e-9;
                    if scavenged && mean_ipc < prev_ipc * (1.0 - self.cfg.ipc_tolerance) {
                        // IPC just dropped: the scavenged frequency is
                        // hurting — reset to maximum and hold before
                        // scavenging again (UPScavenger's recovery path).
                        self.target_ghz = self.max_ghz;
                        self.hold_remaining = self.cfg.hold_cycles;
                        self.backoffs += 1;
                        backed_off = true;
                    } else if self.hold_remaining > 0 {
                        self.hold_remaining -= 1;
                    } else {
                        // IPC not changing: scavenge one step down. Under
                        // sustained starvation IPC is *steadily* low, so
                        // the descent resumes — UPS's characteristic
                        // failure on fluctuating workloads.
                        self.target_ghz = (self.target_ghz - self.cfg.step_ghz).max(self.min_ghz);
                    }
                    // Cycle-over-cycle reference.
                    self.ipc_ref = Some(mean_ipc);
                }
            }
        }

        UpsDecision {
            target_ghz: self.target_ghz,
            phase_change,
            backed_off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> UpsCore {
        UpsCore::new(UpsConfig::default(), 0.8, 2.2)
    }

    #[test]
    #[should_panic(expected = "invalid UpsConfig")]
    fn invalid_config_panics() {
        let cfg = UpsConfig {
            step_ghz: -1.0,
            ..UpsConfig::default()
        };
        let _ = UpsCore::new(cfg, 0.8, 2.2);
    }

    #[test]
    fn starts_at_max() {
        assert_eq!(core().target_ghz(), 2.2);
    }

    #[test]
    fn scavenges_down_while_ipc_holds() {
        let mut c = core();
        // Stable IPC, stable DRAM power: staircase descent to the floor.
        for _ in 0..20 {
            c.decide(1.7, 20.0);
        }
        assert!((c.target_ghz() - 0.8).abs() < 1e-9);
        assert_eq!(c.phase_changes(), 0);
        assert_eq!(c.backoffs(), 0);
    }

    #[test]
    fn descent_is_one_step_per_cycle() {
        let mut c = core();
        c.decide(1.7, 20.0); // baseline cycle, no move
        assert_eq!(c.target_ghz(), 2.2);
        c.decide(1.7, 20.0);
        assert!((c.target_ghz() - 2.1).abs() < 1e-9);
        c.decide(1.7, 20.0);
        assert!((c.target_ghz() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_degradation_resets_to_max_and_holds() {
        let mut c = core();
        for _ in 0..10 {
            c.decide(1.7, 20.0);
        }
        assert!(c.target_ghz() < 2.2);
        // IPC collapses 20%: reset to maximum and hold.
        let d = c.decide(1.7 * 0.8, 20.0);
        assert!(d.backed_off);
        assert_eq!(c.target_ghz(), 2.2);
        // During the hold, descent does not resume.
        c.decide(1.7, 20.0);
        assert_eq!(c.target_ghz(), 2.2);
        // After the hold expires the descent resumes.
        c.decide(1.7, 20.0);
        assert!(c.target_ghz() < 2.2);
    }

    #[test]
    fn dram_power_jump_resets_to_max() {
        let mut c = core();
        for _ in 0..10 {
            c.decide(1.7, 20.0);
        }
        assert!(c.target_ghz() < 2.2);
        let d = c.decide(1.7, 35.0); // +75% DRAM power: new phase
        assert!(d.phase_change);
        assert_eq!(c.target_ghz(), 2.2);
        assert_eq!(c.phase_changes(), 1);
    }

    #[test]
    fn small_dram_wiggle_is_not_a_phase() {
        let mut c = core();
        c.decide(1.7, 20.0);
        let d = c.decide(1.7, 21.0); // +5%, below both thresholds
        assert!(!d.phase_change);
    }

    #[test]
    fn near_idle_dram_noise_is_not_a_phase() {
        let mut c = core();
        c.decide(0.5, 0.5);
        // +200% relative but below the 2 W absolute floor.
        let d = c.decide(0.5, 1.5);
        assert!(!d.phase_change);
    }

    #[test]
    fn target_clamped_to_range() {
        let mut c = core();
        for _ in 0..100 {
            let d = c.decide(1.7, 20.0);
            assert!(d.target_ghz >= 0.8 - 1e-9 && d.target_ghz <= 2.2 + 1e-9);
        }
    }

    #[test]
    fn rebaseline_after_phase_change() {
        let mut c = core();
        for _ in 0..5 {
            c.decide(1.7, 20.0);
        }
        let d = c.decide(1.7, 40.0); // genuine jump: phase change
        assert!(d.phase_change);
        assert_eq!(d.target_ghz, 2.2);
        // The smoothed signal converges over a cycle or two (during which
        // the uncore stays safely at max), then the post-change IPC is
        // re-baselined without being misread as degradation, and
        // scavenging resumes.
        let mut descended = false;
        for _ in 0..4 {
            let d = c.decide(1.2, 40.0);
            assert!(!d.backed_off);
            if d.target_ghz < 2.2 {
                descended = true;
                break;
            }
        }
        assert!(descended);
        assert_eq!(c.backoffs(), 0);
    }

    #[test]
    fn fast_fluctuation_does_not_register_as_phases() {
        // Sub-interval throughput alternation (the SRAD hf case): the
        // interval-averaged DRAM power wobbles ±2 W cycle to cycle, and the
        // smoothed signal stays within the phase threshold — UPS keeps
        // scavenging through the fluctuation.
        let mut c = core();
        c.decide(1.7, 25.0);
        for i in 0..20 {
            let dram = if i % 2 == 0 { 27.0 } else { 23.0 };
            let d = c.decide(1.7, dram);
            assert!(!d.phase_change, "cycle {i}");
        }
        assert!(c.target_ghz() < 1.0, "UPS should have descended");
    }
}
