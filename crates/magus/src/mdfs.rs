//! Algorithm 3: Memory-throughput-based Dynamic Frequency Scaling (MDFS).
//!
//! [`MagusCore`] is the paper's main loop as a pure state machine: feed it
//! one throughput sample per decision cycle, get back the uncore action.
//! Per cycle it:
//!
//! 1. pushes the sample into the throughput FIFO (evicting the oldest);
//! 2. runs the high-frequency detector over the tune-event FIFO — if it
//!    fires, the cycle's action is *pin at maximum*, overriding prediction;
//! 3. runs trend prediction; a non-stable trend is logged as a tune event
//!    (even while overridden, so the detector keeps learning), and executed
//!    only when the high-frequency state is off.
//!
//! During the initial warm-up (10 cycles = 2 s at the default cadence) no
//! tuning actions are taken at all: the node is still in its idle state
//! (compute nodes park the uncore at *minimum* to conserve power between
//! jobs, §4), and samples only accumulate. The first post-warm-up cycle
//! raises the uncore to maximum (Algorithm 3's initialisation), after
//! which the decision loop takes over. Bursts that land inside the
//! warm-up are therefore served at the idle frequency — the §6.3
//! explanation for the low Jaccard scores of init-heavy applications.

use serde::Serialize;

use crate::config::MagusConfig;
use crate::highfreq::HighFreqDetector;
use crate::predict::{predict_trend, Trend};
use crate::telemetry::{DecisionRecord, Telemetry};
use crate::window::SampleWindow;

/// Logical uncore level MAGUS drives between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum UncoreLevel {
    /// The hardware maximum (`uncore_freq_upper`).
    Upper,
    /// The hardware minimum (`uncore_freq_lower`).
    Lower,
}

/// Action emitted by one decision cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MagusAction {
    /// Drive the uncore to its maximum frequency.
    SetUpper,
    /// Drive the uncore to its minimum frequency.
    SetLower,
    /// Leave the uncore where it is.
    Hold,
}

impl MagusAction {
    /// The level this action targets, if any.
    #[must_use]
    pub fn target(self) -> Option<UncoreLevel> {
        match self {
            MagusAction::SetUpper => Some(UncoreLevel::Upper),
            MagusAction::SetLower => Some(UncoreLevel::Lower),
            MagusAction::Hold => None,
        }
    }
}

/// The MDFS state machine.
///
/// ```
/// use magus_runtime::{MagusAction, MagusConfig, MagusCore};
///
/// let mut core = MagusCore::new(MagusConfig::default());
/// // Warm-up: samples accumulate, no tuning actions.
/// for _ in 0..10 {
///     assert_eq!(core.on_sample(2_000.0), MagusAction::Hold);
/// }
/// // First decision cycle: Algorithm 3's initial raise to maximum.
/// assert_eq!(core.on_sample(2_000.0), MagusAction::SetUpper);
/// // A burst passes and throughput collapses: once the window sees the
/// // decline, the trend predictor releases the uncore.
/// core.on_sample(60_000.0);
/// core.on_sample(2_000.0);
/// assert_eq!(core.on_sample(2_000.0), MagusAction::SetLower);
/// ```
#[derive(Debug, Clone)]
pub struct MagusCore {
    cfg: MagusConfig,
    window: SampleWindow,
    detector: HighFreqDetector,
    cycle: u64,
    high_freq_status: bool,
    /// The level MAGUS believes the uncore is at. The runtime leaves the
    /// idle (minimum) state untouched during warm-up and raises to maximum
    /// on the first decision cycle.
    level: UncoreLevel,
    /// The level the *prediction phase alone* would have the uncore at.
    /// Algorithm 2 counts "potential uncore frequency scaling events" —
    /// prediction decisions that would change the frequency — so this is
    /// tracked even while the high-frequency override withholds execution.
    virtual_level: UncoreLevel,
    telemetry: Telemetry,
    /// The latest cycle's record, overwritten every cycle.
    last_record: Option<DecisionRecord>,
}

impl MagusCore {
    /// New core with the given configuration. Panics on invalid
    /// configurations — construction is the validation boundary.
    #[must_use]
    pub fn new(cfg: MagusConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MagusConfig: {e}");
        }
        let window = SampleWindow::new(cfg.window_len);
        let detector = HighFreqDetector::new(cfg.tune_window_len, cfg.high_freq_threshold);
        Self {
            cfg,
            window,
            detector,
            cycle: 0,
            high_freq_status: false,
            level: UncoreLevel::Lower,
            virtual_level: UncoreLevel::Lower,
            telemetry: Telemetry::default(),
            last_record: None,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MagusConfig {
        &self.cfg
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The most recent decision cycle's record (`None` before the first
    /// sample). Each [`MagusCore::on_sample`] overwrites it.
    #[must_use]
    pub fn last_record(&self) -> Option<&DecisionRecord> {
        self.last_record.as_ref()
    }

    /// True while the core is still warming up (no decisions yet).
    #[must_use]
    pub fn in_warmup(&self) -> bool {
        (self.cycle as usize) < self.cfg.warmup_cycles
    }

    /// Whether the high-frequency override is currently engaged.
    #[must_use]
    pub fn high_freq_status(&self) -> bool {
        self.high_freq_status
    }

    /// The level the core last requested.
    #[must_use]
    pub fn level(&self) -> UncoreLevel {
        self.level
    }

    /// Decision cycles processed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Process one decision cycle with a fresh throughput sample (MB/s).
    ///
    /// Returns the action for the actuator. Actions are *level requests*:
    /// emitting `SetUpper` twice in a row is normal, and actuators
    /// deduplicate writes.
    pub fn on_sample(&mut self, sample_mbs: f64) -> MagusAction {
        let cycle = self.cycle;
        self.cycle += 1;

        // Algorithm 3, lines 6–7: record throughput history.
        self.window.push(sample_mbs.max(0.0));

        // Warm-up: hold at maximum, log nothing but zeros.
        if (cycle as usize) < self.cfg.warmup_cycles {
            let rec = DecisionRecord {
                cycle,
                sample_mbs,
                trend: Trend::Stable,
                tune_event: false,
                high_freq: false,
                action: MagusAction::Hold,
            };
            self.telemetry.record(rec, true);
            self.last_record = Some(rec);
            return MagusAction::Hold;
        }

        // Algorithm 3, lines 9–15: high-frequency detection first; when it
        // fires, the uncore is pinned at maximum this cycle. When the state
        // *releases*, the detection phase "approves and executes the
        // temporary decision made in the prediction phase" (§3.2) — the
        // pending virtual level accumulated while execution was withheld.
        // First post-warm-up cycle: Algorithm 3's initialisation drives the
        // uncore to the hardware maximum before the decision loop begins.
        let initial_raise = cycle as usize == self.cfg.warmup_cycles;

        let was_high_freq = self.high_freq_status;
        self.high_freq_status = self.detector.is_high_frequency();
        // (The initial raise and a high-frequency hit share an arm bodily,
        // but they are distinct events for telemetry and for readers.)
        #[allow(clippy::if_same_then_else)]
        let mut action = if initial_raise {
            self.level = UncoreLevel::Upper;
            MagusAction::SetUpper
        } else if self.high_freq_status {
            self.level = UncoreLevel::Upper;
            MagusAction::SetUpper
        } else if was_high_freq && self.virtual_level != self.level {
            self.level = self.virtual_level;
            match self.virtual_level {
                UncoreLevel::Upper => MagusAction::SetUpper,
                UncoreLevel::Lower => MagusAction::SetLower,
            }
        } else {
            MagusAction::Hold
        };

        // Algorithm 3, lines 16–31: trend prediction. A *tune event* is a
        // prediction decision that would actually change the uncore
        // frequency ("the rate of triggered UFS events (either an increase
        // or decrease)", §3.2) — a sustained rising trend while already at
        // maximum is not an event. Events are logged unconditionally (the
        // virtual level advances even during the override, so the detector
        // keeps observing the fluctuation); the temporary decision executes
        // only outside the high-frequency state.
        let trend = predict_trend(&self.window, self.cfg.inc_threshold, self.cfg.dec_threshold);
        let predicted = match trend {
            Trend::Increase => Some(UncoreLevel::Upper),
            Trend::Decrease => Some(UncoreLevel::Lower),
            Trend::Stable => None,
        };
        let tune_event = predicted.is_some_and(|lvl| lvl != self.virtual_level);
        self.detector.record(tune_event);
        if let Some(lvl) = predicted {
            self.virtual_level = lvl;
            if !self.high_freq_status {
                self.level = lvl;
                action = match lvl {
                    UncoreLevel::Upper => MagusAction::SetUpper,
                    UncoreLevel::Lower => MagusAction::SetLower,
                };
            }
        }

        let rec = DecisionRecord {
            cycle,
            sample_mbs,
            trend,
            tune_event,
            high_freq: self.high_freq_status,
            action,
        };
        self.telemetry.record(rec, false);
        self.last_record = Some(rec);
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> MagusCore {
        MagusCore::new(MagusConfig::default())
    }

    /// Drive the core through its warm-up (plus the initial raise) with a
    /// flat signal.
    fn warmed(value: f64) -> MagusCore {
        let mut c = core();
        for _ in 0..c.config().warmup_cycles {
            assert_eq!(c.on_sample(value), MagusAction::Hold);
        }
        assert_eq!(c.on_sample(value), MagusAction::SetUpper);
        c
    }

    #[test]
    #[should_panic(expected = "invalid MagusConfig")]
    fn invalid_config_panics() {
        let cfg = MagusConfig {
            window_len: 0,
            ..MagusConfig::default()
        };
        let _ = MagusCore::new(cfg);
    }

    #[test]
    fn warmup_takes_no_actions_then_raises() {
        let mut c = core();
        for i in 0..10 {
            assert!(c.in_warmup(), "cycle {i}");
            assert_eq!(c.on_sample(f64::from(i) * 10_000.0), MagusAction::Hold);
        }
        assert!(!c.in_warmup());
        // The node is still in its idle (minimum) state after warm-up...
        assert_eq!(c.level(), UncoreLevel::Lower);
        // ...and the first decision cycle performs the initial raise.
        assert_eq!(c.on_sample(90_000.0), MagusAction::SetUpper);
        assert_eq!(c.level(), UncoreLevel::Upper);
        assert_eq!(c.telemetry().warmup_cycles, 10);
    }

    #[test]
    fn sharp_rise_raises_uncore() {
        let mut c = warmed(1_000.0);
        // Ramp throughput steeply: derivative blows past inc_threshold.
        let mut last = MagusAction::Hold;
        for i in 0..10 {
            last = c.on_sample(1_000.0 + f64::from(i) * 5_000.0);
        }
        assert_eq!(last, MagusAction::SetUpper);
        assert_eq!(c.level(), UncoreLevel::Upper);
        assert!(c.telemetry().raised > 0);
    }

    #[test]
    fn sharp_fall_lowers_uncore() {
        // A burst ending: throughput steps from 50 GB/s to 2 GB/s and stays
        // low. MAGUS must lower the uncore and *stay* low (the step change
        // produces only ~2 tune events, so the high-frequency lock must not
        // engage).
        let mut c = warmed(50_000.0);
        let mut lowered = false;
        for _ in 0..10 {
            if c.on_sample(2_000.0) == MagusAction::SetLower {
                lowered = true;
            }
        }
        assert!(lowered);
        assert_eq!(c.level(), UncoreLevel::Lower);
        assert!(!c.high_freq_status());
    }

    #[test]
    fn flat_signal_never_tunes() {
        let mut c = warmed(20_000.0);
        for _ in 0..50 {
            assert_eq!(c.on_sample(20_000.0), MagusAction::Hold);
        }
        assert_eq!(c.telemetry().tune_events, 0);
        assert!(!c.high_freq_status());
    }

    #[test]
    fn small_noise_below_thresholds_is_ignored() {
        let mut c = warmed(20_000.0);
        for i in 0..50 {
            let jitter = if i % 2 == 0 { 150.0 } else { -150.0 };
            assert_eq!(c.on_sample(20_000.0 + jitter), MagusAction::Hold);
        }
        assert_eq!(c.telemetry().tune_events, 0);
    }

    #[test]
    fn oscillation_engages_high_frequency_lock() {
        let mut c = warmed(10_000.0);
        // Violent square wave: every cycle the derivative crosses a
        // threshold, so tune events saturate the detector.
        let mut saw_high_freq = false;
        for i in 0..40 {
            let v = if (i / 2) % 2 == 0 { 60_000.0 } else { 2_000.0 };
            let action = c.on_sample(v);
            if c.high_freq_status() {
                saw_high_freq = true;
                assert_eq!(action, MagusAction::SetUpper, "cycle {i}");
                assert_eq!(c.level(), UncoreLevel::Upper);
            }
        }
        assert!(saw_high_freq);
        assert!(c.telemetry().overridden > 0);
        assert!(c.telemetry().high_freq_cycles >= 10);
    }

    #[test]
    fn high_frequency_state_releases_when_signal_calms() {
        let mut c = warmed(10_000.0);
        for i in 0..30 {
            let v = if (i / 2) % 2 == 0 { 60_000.0 } else { 2_000.0 };
            c.on_sample(v);
        }
        assert!(c.high_freq_status());
        // Calm, flat signal: tune events age out of the detector window.
        for _ in 0..15 {
            c.on_sample(10_000.0);
        }
        assert!(!c.high_freq_status());
    }

    #[test]
    fn tune_events_logged_during_override() {
        // The paper: "Even if the application remains in a high-frequency
        // state, MAGUS continues the prediction phase ... and log[s]
        // potential uncore scaling events."
        let mut c = warmed(10_000.0);
        for i in 0..60 {
            let v = if (i / 2) % 2 == 0 { 60_000.0 } else { 2_000.0 };
            c.on_sample(v);
        }
        // Persistent oscillation keeps the lock held the whole time — which
        // requires events to have been logged *during* the locked period.
        assert!(c.high_freq_status());
        assert!(c.telemetry().tune_events > 20);
    }

    #[test]
    fn last_record_tracks_each_cycle() {
        let mut c = core();
        assert!(c.last_record().is_none());
        for i in 0..15u32 {
            let action = c.on_sample(f64::from(i) * 1_000.0);
            let rec = c.last_record().expect("a record per cycle");
            assert_eq!(rec.cycle, u64::from(i));
            assert_eq!(rec.sample_mbs, f64::from(i) * 1_000.0);
            assert_eq!(rec.action, action);
        }
        assert_eq!(c.telemetry().cycles, 15);
    }

    #[test]
    fn negative_samples_are_clamped() {
        let mut c = warmed(1_000.0);
        for _ in 0..10 {
            let _ = c.on_sample(-500.0);
        }
        // The windows only ever saw non-negative values; derivative from
        // 1000 to 0 over 10 samples ~= -111, below dec_threshold: stable.
        assert_eq!(c.telemetry().lowered, 0);
    }
}
