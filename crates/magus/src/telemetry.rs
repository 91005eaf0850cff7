//! Decision telemetry: what MAGUS saw and did, cycle by cycle.
//!
//! [`Telemetry`] keeps aggregate counters only; the latest cycle's
//! [`DecisionRecord`] is exposed by [`crate::MagusCore::last_record`], so
//! a long run holds one record, not one per cycle.

use serde::Serialize;

use crate::mdfs::MagusAction;
use crate::predict::Trend;

/// One decision cycle's record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// Decision cycle index (0-based, including warm-up cycles).
    pub cycle: u64,
    /// The throughput sample fed in (MB/s).
    pub sample_mbs: f64,
    /// The predicted trend.
    pub trend: Trend,
    /// Whether the prediction constituted a tune event (a decision that
    /// would change the uncore frequency).
    pub tune_event: bool,
    /// Whether the high-frequency state was active.
    pub high_freq: bool,
    /// The action emitted.
    pub action: MagusAction,
}

/// Aggregate decision counters.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Telemetry {
    /// Total decision cycles (including warm-up).
    pub cycles: u64,
    /// Cycles still in warm-up.
    pub warmup_cycles: u64,
    /// Tune events logged (prediction decisions that would change the
    /// uncore frequency, after warm-up).
    pub tune_events: u64,
    /// Cycles spent in the high-frequency state.
    pub high_freq_cycles: u64,
    /// Prediction decisions overridden by the high-frequency detector.
    pub overridden: u64,
    /// Executed switches to the upper uncore level.
    pub raised: u64,
    /// Executed switches to the lower uncore level.
    pub lowered: u64,
}

impl Telemetry {
    /// Record one decision cycle.
    pub fn record(&mut self, rec: DecisionRecord, in_warmup: bool) {
        self.cycles += 1;
        if in_warmup {
            self.warmup_cycles += 1;
        } else if rec.tune_event {
            self.tune_events += 1;
        }
        if rec.high_freq {
            self.high_freq_cycles += 1;
            if rec.trend.is_tune_event() {
                self.overridden += 1;
            }
        }
        match rec.action {
            MagusAction::SetUpper => self.raised += 1,
            MagusAction::SetLower => self.lowered += 1,
            MagusAction::Hold => {}
        }
    }

    /// Fraction of post-warm-up cycles that were high-frequency.
    #[must_use]
    pub fn high_freq_fraction(&self) -> f64 {
        let active = self.cycles.saturating_sub(self.warmup_cycles);
        if active == 0 {
            0.0
        } else {
            self.high_freq_cycles as f64 / active as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trend: Trend, high_freq: bool, action: MagusAction) -> DecisionRecord {
        DecisionRecord {
            cycle: 0,
            sample_mbs: 0.0,
            trend,
            tune_event: trend.is_tune_event(),
            high_freq,
            action,
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::default();
        t.record(rec(Trend::Stable, false, MagusAction::Hold), true);
        t.record(rec(Trend::Increase, false, MagusAction::SetUpper), false);
        t.record(rec(Trend::Decrease, false, MagusAction::SetLower), false);
        t.record(rec(Trend::Increase, true, MagusAction::SetUpper), false);
        assert_eq!(t.cycles, 4);
        assert_eq!(t.warmup_cycles, 1);
        assert_eq!(t.tune_events, 3);
        assert_eq!(t.high_freq_cycles, 1);
        assert_eq!(t.overridden, 1);
        assert_eq!(t.raised, 2);
        assert_eq!(t.lowered, 1);
    }

    #[test]
    fn high_freq_fraction_excludes_warmup() {
        let mut t = Telemetry::default();
        for _ in 0..10 {
            t.record(rec(Trend::Stable, false, MagusAction::Hold), true);
        }
        for _ in 0..5 {
            t.record(rec(Trend::Stable, true, MagusAction::SetUpper), false);
        }
        for _ in 0..5 {
            t.record(rec(Trend::Stable, false, MagusAction::Hold), false);
        }
        assert!((t.high_freq_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(Telemetry::default().high_freq_fraction(), 0.0);
    }
}
