//! Algorithm 2: high-frequency phase-change detection.
//!
//! A FIFO of binary flags records, for each decision cycle, whether the
//! prediction phase *wanted* to move the uncore. When the fraction of set
//! flags in the window reaches `high_freq_threshold`, throughput is judged
//! to be fluctuating faster than the stack can follow; MAGUS then overrides
//! the prediction and pins the uncore at maximum until the fluctuation
//! subsides. Crucially, tune events keep being *logged* during the
//! high-frequency state (they are just not executed), so the detector can
//! observe the fluctuation ending.

use std::collections::VecDeque;

use serde::Serialize;

/// Sliding-window detector over binary tune-event flags.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HighFreqDetector {
    window: VecDeque<bool>,
    capacity: usize,
    threshold: f64,
    set_count: usize,
}

impl HighFreqDetector {
    /// Detector over the last `capacity` cycles firing at `threshold`
    /// (fraction of cycles with tune events, Algorithm 2's `t_hi`).
    /// Thresholds above 1.0 are allowed and can never fire (the detector
    /// is effectively disabled — used by ablations).
    ///
    /// The window starts pre-filled with zeros, exactly as Algorithm 3
    /// initialises `uncore_tune_ls` — so the detector cannot fire during
    /// warm-up.
    #[must_use]
    pub fn new(capacity: usize, threshold: f64) -> Self {
        let capacity = capacity.max(1);
        Self {
            window: VecDeque::from(vec![false; capacity]),
            capacity,
            threshold: threshold.clamp(0.0, 2.0),
            set_count: 0,
        }
    }

    /// Record whether the current cycle produced a tune event
    /// (push_back / erase-begin of the paper's pseudocode).
    pub fn record(&mut self, tune_event: bool) {
        if self.window.len() == self.capacity {
            if let Some(evicted) = self.window.pop_front() {
                if evicted {
                    self.set_count -= 1;
                }
            }
        }
        self.window.push_back(tune_event);
        if tune_event {
            self.set_count += 1;
        }
    }

    /// Current tune-event rate `f = s / n` over the window.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.set_count as f64 / self.window.len() as f64
        }
    }

    /// Algorithm 2's decision: `rate ≥ threshold`.
    #[must_use]
    pub fn is_high_frequency(&self) -> bool {
        self.rate() >= self.threshold
    }

    /// The configured threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The window capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_detector_is_quiet() {
        let d = HighFreqDetector::new(10, 0.4);
        assert_eq!(d.rate(), 0.0);
        assert!(!d.is_high_frequency());
    }

    #[test]
    fn fires_at_threshold_inclusive() {
        let mut d = HighFreqDetector::new(10, 0.4);
        for _ in 0..3 {
            d.record(true);
        }
        assert!(!d.is_high_frequency()); // 3/10 < 0.4
        d.record(true);
        assert!(d.is_high_frequency()); // 4/10 >= 0.4 (paper: f >= t_hi)
    }

    #[test]
    fn old_events_age_out() {
        let mut d = HighFreqDetector::new(10, 0.4);
        for _ in 0..5 {
            d.record(true);
        }
        assert!(d.is_high_frequency());
        for _ in 0..10 {
            d.record(false);
        }
        assert_eq!(d.rate(), 0.0);
        assert!(!d.is_high_frequency());
    }

    #[test]
    fn rate_tracks_exact_fraction() {
        let mut d = HighFreqDetector::new(4, 0.5);
        d.record(true);
        d.record(false);
        d.record(true);
        d.record(false);
        assert!((d.rate() - 0.5).abs() < 1e-12);
        assert!(d.is_high_frequency());
    }

    #[test]
    fn alternating_pattern_is_high_frequency() {
        // The SRAD-like case: a tune event every other cycle = rate 0.5.
        let mut d = HighFreqDetector::new(10, 0.4);
        for i in 0..20 {
            d.record(i % 2 == 0);
        }
        assert!(d.is_high_frequency());
    }

    #[test]
    fn threshold_clamped_and_capacity_min_one() {
        let d = HighFreqDetector::new(0, 3.0);
        assert_eq!(d.capacity(), 1);
        assert_eq!(d.threshold(), 2.0);
        let d = HighFreqDetector::new(5, -1.0);
        assert_eq!(d.threshold(), 0.0);
        // threshold 0 means always high-frequency (degenerate but defined).
        assert!(d.is_high_frequency());
    }

    #[test]
    fn unreachable_threshold_never_fires() {
        let mut d = HighFreqDetector::new(5, 1.5);
        for _ in 0..20 {
            d.record(true);
        }
        assert_eq!(d.rate(), 1.0);
        assert!(!d.is_high_frequency());
    }

    #[test]
    fn set_count_stays_consistent_under_churn() {
        let mut d = HighFreqDetector::new(7, 0.3);
        for i in 0..1000 {
            d.record(i % 3 == 0);
            let actual = d.window.iter().filter(|&&b| b).count();
            assert_eq!(actual, d.set_count);
            assert!(d.window.len() <= d.capacity());
        }
    }
}
