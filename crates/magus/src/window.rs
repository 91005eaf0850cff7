//! Fixed-size FIFO sample history and derivative computation.
//!
//! This is the `mem_throughput_ls` structure of the paper's Algorithm 3: a
//! first-in-first-out queue of recent throughput samples, with the
//! first-derivative estimate of Algorithm 1 computed over it.

use std::collections::VecDeque;

/// Fixed-capacity FIFO window of throughput samples (MB/s).
///
/// ```
/// use magus_runtime::SampleWindow;
///
/// let mut w = SampleWindow::new(3);
/// for v in [1_000.0, 5_000.0, 9_000.0] {
///     w.push(v);
/// }
/// // Algorithm 1's derivative: (9000 - 1000) / 2 samples.
/// assert_eq!(w.derivative(), 4_000.0);
/// w.push(9_000.0); // evicts the oldest
/// assert_eq!(w.oldest(), Some(5_000.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleWindow {
    capacity: usize,
    samples: VecDeque<f64>,
}

impl SampleWindow {
    /// Window holding at most `capacity` samples (capacity ≥ 2 is required
    /// for a derivative; smaller windows always report a zero derivative).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            samples: VecDeque::with_capacity(capacity.max(1)),
        }
    }

    /// Window pre-filled with `capacity` copies of `value` — Algorithm 3
    /// initialises its queues this way during the warm-up cycles.
    #[must_use]
    pub fn filled(capacity: usize, value: f64) -> Self {
        let mut w = Self::new(capacity);
        for _ in 0..w.capacity {
            w.samples.push_back(value);
        }
        w
    }

    /// Push a sample, evicting the oldest when full (push_back/erase-begin
    /// in the paper's pseudocode).
    pub fn push(&mut self, sample: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum number of samples held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Newest sample, if any.
    #[must_use]
    pub fn newest(&self) -> Option<f64> {
        self.samples.back().copied()
    }

    /// Oldest sample, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<f64> {
        self.samples.front().copied()
    }

    /// Algorithm 1's first derivative: `(newest - oldest) / window_length`,
    /// in MB/s per sample interval. Zero until at least two samples exist.
    #[must_use]
    pub fn derivative(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let n = self.samples.len() - 1;
        (self.samples[n] - self.samples[0]) / n as f64
    }

    /// Mean of the held samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest_when_full() {
        let mut w = SampleWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest(), Some(2.0));
        assert_eq!(w.newest(), Some(4.0));
    }

    #[test]
    fn filled_window_is_flat() {
        let w = SampleWindow::filled(10, 5.0);
        assert_eq!(w.derivative(), 0.0);
        assert_eq!(w.mean(), 5.0);
    }

    #[test]
    fn derivative_matches_algorithm1() {
        // Ramp 0, 100, ..., 900 over a 10-sample window:
        // d = (900 - 0) / 9 = 100 per interval.
        let mut w = SampleWindow::new(10);
        for i in 0..10 {
            w.push(f64::from(i) * 100.0);
        }
        assert!((w.derivative() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_negative_on_decline() {
        let mut w = SampleWindow::new(5);
        for v in [1000.0, 800.0, 600.0, 400.0, 200.0] {
            w.push(v);
        }
        assert!((w.derivative() + 200.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_zero_with_few_samples() {
        let mut w = SampleWindow::new(10);
        assert_eq!(w.derivative(), 0.0);
        w.push(42.0);
        assert_eq!(w.derivative(), 0.0);
    }

    #[test]
    fn capacity_one_still_works() {
        let mut w = SampleWindow::new(1);
        w.push(1.0);
        w.push(2.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.newest(), Some(2.0));
        assert_eq!(w.derivative(), 0.0);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let w = SampleWindow::new(0);
        assert_eq!(w.capacity(), 1);
    }

    #[test]
    fn iter_is_fifo_ordered() {
        let mut w = SampleWindow::new(3);
        for v in [1.0, 2.0, 3.0] {
            w.push(v);
        }
        let collected: Vec<f64> = w.iter().collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let w = SampleWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        assert!(w.is_empty());
    }
}
