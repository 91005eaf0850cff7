//! Algorithm 1: memory-throughput trend prediction.
//!
//! The derivative of the sample FIFO — `(newest − oldest) / (n − 1)` in
//! MB/s per sample interval — anticipates near-future demand:
//!
//! * `d > inc_threshold`  → throughput is about to rise sharply → raise the
//!   uncore ahead of the burst ([`Trend::Increase`]).
//! * `d < −dec_threshold` → demand is collapsing → release the uncore
//!   ([`Trend::Decrease`]). (The paper quotes `dec_threshold` as a positive
//!   magnitude, 500; the comparison is against its negation.)
//! * otherwise → hold, avoiding needless transitions ([`Trend::Stable`]).

use serde::{Deserialize, Serialize};

use crate::window::SampleWindow;

/// Outcome of one trend prediction (Algorithm 1's {1, −1, 0}).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trend {
    /// Sharp rise predicted: request maximum uncore frequency.
    Increase,
    /// Sharp fall predicted: request minimum uncore frequency.
    Decrease,
    /// No significant change: leave the uncore alone.
    Stable,
}

impl Trend {
    /// The paper's integer encoding: 1, −1, 0.
    #[must_use]
    pub fn as_i8(self) -> i8 {
        match self {
            Trend::Increase => 1,
            Trend::Decrease => -1,
            Trend::Stable => 0,
        }
    }

    /// True when this trend triggers a tune event (either direction).
    #[must_use]
    pub fn is_tune_event(self) -> bool {
        self != Trend::Stable
    }
}

/// Algorithm 1 over a sample window.
///
/// Returns [`Trend::Stable`] until the window holds at least two samples.
#[must_use]
pub fn predict_trend(window: &SampleWindow, inc_threshold: f64, dec_threshold: f64) -> Trend {
    let d = window.derivative();
    if d > inc_threshold {
        Trend::Increase
    } else if d < -dec_threshold {
        Trend::Decrease
    } else {
        Trend::Stable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_of(values: &[f64]) -> SampleWindow {
        let mut w = SampleWindow::new(values.len());
        for &v in values {
            w.push(v);
        }
        w
    }

    #[test]
    fn steep_ramp_predicts_increase() {
        // 0 -> 9000 over 10 samples: d = 1000 > 200.
        let vals: Vec<f64> = (0..10).map(|i| f64::from(i) * 1000.0).collect();
        assert_eq!(
            predict_trend(&window_of(&vals), 200.0, 500.0),
            Trend::Increase
        );
    }

    #[test]
    fn steep_fall_predicts_decrease() {
        let vals: Vec<f64> = (0..10).rev().map(|i| f64::from(i) * 1000.0).collect();
        assert_eq!(
            predict_trend(&window_of(&vals), 200.0, 500.0),
            Trend::Decrease
        );
    }

    #[test]
    fn gentle_slope_is_stable_in_both_directions() {
        let up: Vec<f64> = (0..10).map(|i| f64::from(i) * 100.0).collect(); // d = 100
        assert_eq!(predict_trend(&window_of(&up), 200.0, 500.0), Trend::Stable);
        let down: Vec<f64> = (0..10).rev().map(|i| f64::from(i) * 400.0).collect(); // d = -400
        assert_eq!(
            predict_trend(&window_of(&down), 200.0, 500.0),
            Trend::Stable
        );
    }

    #[test]
    fn asymmetric_thresholds_are_respected() {
        // d = -450: decrease fires only when dec_threshold < 450.
        let down: Vec<f64> = (0..10).rev().map(|i| f64::from(i) * 450.0).collect();
        assert_eq!(
            predict_trend(&window_of(&down), 200.0, 400.0),
            Trend::Decrease
        );
        assert_eq!(
            predict_trend(&window_of(&down), 200.0, 500.0),
            Trend::Stable
        );
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // d exactly at the threshold does not fire (paper: d > tau_inc).
        let vals = [0.0, 200.0]; // d = 200
        assert_eq!(
            predict_trend(&window_of(&vals), 200.0, 500.0),
            Trend::Stable
        );
        let vals = [0.0, 200.1];
        assert_eq!(
            predict_trend(&window_of(&vals), 200.0, 500.0),
            Trend::Increase
        );
    }

    #[test]
    fn short_window_is_stable() {
        let mut w = SampleWindow::new(10);
        assert_eq!(predict_trend(&w, 200.0, 500.0), Trend::Stable);
        w.push(1e9);
        assert_eq!(predict_trend(&w, 200.0, 500.0), Trend::Stable);
    }

    #[test]
    fn integer_encoding_matches_paper() {
        assert_eq!(Trend::Increase.as_i8(), 1);
        assert_eq!(Trend::Decrease.as_i8(), -1);
        assert_eq!(Trend::Stable.as_i8(), 0);
        assert!(Trend::Increase.is_tune_event());
        assert!(Trend::Decrease.is_tune_event());
        assert!(!Trend::Stable.is_tune_event());
    }
}
