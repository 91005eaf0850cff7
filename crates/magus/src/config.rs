//! MAGUS configuration: the thresholds of §3.3 and the timing of §6.5.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the MAGUS runtime.
///
/// The defaults are the paper's recommended values, which its §6.4
/// sensitivity analysis places on or near the energy/runtime Pareto
/// frontier for every evaluated workload: `inc_threshold = 200`,
/// `dec_threshold = 500`, `high_freq_threshold = 0.4`, 0.2 s monitoring
/// interval, 10-cycle (2 s) warm-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MagusConfig {
    /// Derivative threshold (MB/s per sample interval) above which a sharp
    /// throughput *increase* is predicted (Algorithm 1's `inc_threshold`).
    pub inc_threshold: f64,
    /// Derivative magnitude (MB/s per sample interval) below the negative
    /// of which a sharp *decrease* is predicted (`dec_threshold`; the paper
    /// states it as a positive magnitude).
    pub dec_threshold: f64,
    /// Fraction of recent cycles with tune events at or above which the
    /// high-frequency state engages (Algorithm 2's `t_hi`). Values above
    /// 1.0 can never be reached and therefore disable the detector — used
    /// by the ablation experiments.
    pub high_freq_threshold: f64,
    /// Length of the throughput FIFO the derivative spans (`direv_length`,
    /// samples). Kept *short* (3 samples ≈ 0.9 s at the decision cadence) so
    /// that a single phase transition produces only a couple of tune events,
    /// while sustained oscillation keeps producing them — this separation is
    /// what lets Algorithm 2 distinguish a step change from high-frequency
    /// fluctuation. (The paper does not publish the value; 3 reproduces its
    /// reported behaviour. See DESIGN.md.)
    pub window_len: usize,
    /// Length of the tune-event FIFO (samples).
    pub tune_window_len: usize,
    /// Warm-up cycles before the first decision; the uncore stays at max
    /// and samples only accumulate (Algorithm 3 uses 10 cycles = 2 s).
    pub warmup_cycles: usize,
    /// Rest interval between the end of one invocation and the start of
    /// the next (µs); 0.2 s in the paper.
    pub monitor_interval_us: u64,
}

impl Default for MagusConfig {
    fn default() -> Self {
        Self {
            inc_threshold: 200.0,
            dec_threshold: 500.0,
            high_freq_threshold: 0.4,
            window_len: 3,
            tune_window_len: 10,
            warmup_cycles: 10,
            monitor_interval_us: 200_000,
        }
    }
}

impl MagusConfig {
    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.inc_threshold <= 0.0 {
            return Err("inc_threshold must be positive".into());
        }
        if self.dec_threshold <= 0.0 {
            return Err("dec_threshold must be positive".into());
        }
        if !(0.0..=2.0).contains(&self.high_freq_threshold) {
            return Err(
                "high_freq_threshold must be in [0, 2] (values > 1 disable the detector)".into(),
            );
        }
        if self.window_len < 2 {
            return Err("window_len must be at least 2".into());
        }
        if self.tune_window_len == 0 {
            return Err("tune_window_len must be at least 1".into());
        }
        if self.monitor_interval_us == 0 {
            return Err("monitor_interval_us must be positive".into());
        }
        Ok(())
    }

    /// A validating builder seeded with the paper defaults.
    #[must_use]
    pub fn builder() -> MagusConfigBuilder {
        MagusConfigBuilder::new()
    }

    /// The paper's alternative Pareto-frontier point highlighted in Fig 7
    /// (`inc = 300`, `dec = 500`, `hf = 0.4`).
    #[must_use]
    pub fn pareto_common() -> Self {
        Self {
            inc_threshold: 300.0,
            ..Self::default()
        }
    }

    /// Default configuration with the high-frequency detector disabled
    /// (threshold unreachable) — the ablation of the Algorithm 2 design
    /// choice.
    #[must_use]
    pub fn without_high_freq_lock() -> Self {
        Self {
            high_freq_threshold: 1.5,
            ..Self::default()
        }
    }
}

/// Typed validation error produced by [`MagusConfigBuilder::build`].
///
/// Unlike [`MagusConfig::validate`]'s stringly errors (kept for
/// backwards compatibility), each variant carries the offending value so
/// callers — the CLI threshold parser in particular — can report exactly
/// what was rejected and why.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A threshold that must be strictly positive was not.
    NonPositive {
        /// Field name (`inc_threshold` / `dec_threshold`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `high_freq_threshold` outside the meaningful (0, 1] range.
    ///
    /// A rate-of-tune-events fraction above 1 can never be reached; use
    /// [`MagusConfigBuilder::disable_high_freq_lock`] to request that
    /// explicitly instead of smuggling a sentinel through.
    HighFreqOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// `window_len` (the paper's `direv_length`) below 2 — a derivative
    /// needs at least two samples.
    WindowTooShort {
        /// The rejected length.
        len: usize,
    },
    /// `tune_window_len` of zero: the Algorithm 2 rate is undefined.
    TuneWindowEmpty,
    /// Warm-up shorter than the derivative window: the first post-warm-up
    /// decision would run on a partially filled FIFO.
    WarmupShorterThanWindow {
        /// The rejected warm-up length (cycles).
        warmup: usize,
        /// The derivative window it must cover (samples).
        window: usize,
    },
    /// A zero monitoring interval (the decision loop would spin).
    ZeroMonitorInterval,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be > 0 (got {value})")
            }
            ConfigError::HighFreqOutOfRange { value } => write!(
                f,
                "high_freq_threshold must be in (0, 1] (got {value}); use \
                 disable_high_freq_lock() to turn the detector off"
            ),
            ConfigError::WindowTooShort { len } => {
                write!(f, "window_len must be >= 2 (got {len})")
            }
            ConfigError::TuneWindowEmpty => write!(f, "tune_window_len must be >= 1"),
            ConfigError::WarmupShorterThanWindow { warmup, window } => write!(
                f,
                "warmup_cycles ({warmup}) must cover the derivative window ({window} samples)"
            ),
            ConfigError::ZeroMonitorInterval => write!(f, "monitor_interval_us must be > 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`MagusConfig`].
///
/// Starts from the paper defaults; every setter overrides one field and
/// [`MagusConfigBuilder::build`] rejects nonsense combinations with a
/// typed [`ConfigError`] instead of letting them reach the decision core.
///
/// ```
/// use magus_runtime::MagusConfig;
///
/// let cfg = MagusConfig::builder()
///     .inc_threshold(300.0)
///     .high_freq_threshold(0.5)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.inc_threshold, 300.0);
/// assert!(MagusConfig::builder().inc_threshold(-1.0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MagusConfigBuilder {
    cfg: MagusConfig,
    lock_disabled: bool,
}

impl MagusConfigBuilder {
    /// Builder seeded with the paper defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the sharp-increase derivative threshold (MB/s per interval).
    #[must_use]
    pub fn inc_threshold(mut self, v: f64) -> Self {
        self.cfg.inc_threshold = v;
        self
    }

    /// Set the sharp-decrease derivative magnitude (MB/s per interval).
    #[must_use]
    pub fn dec_threshold(mut self, v: f64) -> Self {
        self.cfg.dec_threshold = v;
        self
    }

    /// Set the Algorithm 2 tune-event-rate threshold, in (0, 1].
    #[must_use]
    pub fn high_freq_threshold(mut self, v: f64) -> Self {
        self.cfg.high_freq_threshold = v;
        self.lock_disabled = false;
        self
    }

    /// Disable the high-frequency detector entirely (the Algorithm 2
    /// ablation): sets the threshold to the unreachable sentinel used by
    /// [`MagusConfig::without_high_freq_lock`].
    #[must_use]
    pub fn disable_high_freq_lock(mut self) -> Self {
        self.cfg.high_freq_threshold = 1.5;
        self.lock_disabled = true;
        self
    }

    /// Set the derivative FIFO length (`direv_length`, samples).
    #[must_use]
    pub fn window_len(mut self, len: usize) -> Self {
        self.cfg.window_len = len;
        self
    }

    /// Set the tune-event FIFO length (samples).
    #[must_use]
    pub fn tune_window_len(mut self, len: usize) -> Self {
        self.cfg.tune_window_len = len;
        self
    }

    /// Set the warm-up length (decision cycles).
    #[must_use]
    pub fn warmup_cycles(mut self, cycles: usize) -> Self {
        self.cfg.warmup_cycles = cycles;
        self
    }

    /// Set the rest interval between invocations (µs).
    #[must_use]
    pub fn monitor_interval_us(mut self, us: u64) -> Self {
        self.cfg.monitor_interval_us = us;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MagusConfig, ConfigError> {
        let c = &self.cfg;
        if c.inc_threshold <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "inc_threshold",
                value: c.inc_threshold,
            });
        }
        if c.dec_threshold <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "dec_threshold",
                value: c.dec_threshold,
            });
        }
        // Written so a NaN threshold fails the range check.
        if !(self.lock_disabled || (c.high_freq_threshold > 0.0 && c.high_freq_threshold <= 1.0)) {
            return Err(ConfigError::HighFreqOutOfRange {
                value: c.high_freq_threshold,
            });
        }
        if c.window_len < 2 {
            return Err(ConfigError::WindowTooShort { len: c.window_len });
        }
        if c.tune_window_len == 0 {
            return Err(ConfigError::TuneWindowEmpty);
        }
        if c.warmup_cycles < c.window_len {
            return Err(ConfigError::WarmupShorterThanWindow {
                warmup: c.warmup_cycles,
                window: c.window_len,
            });
        }
        if c.monitor_interval_us == 0 {
            return Err(ConfigError::ZeroMonitorInterval);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MagusConfig::default();
        assert_eq!(c.inc_threshold, 200.0);
        assert_eq!(c.dec_threshold, 500.0);
        assert_eq!(c.high_freq_threshold, 0.4);
        assert_eq!(c.window_len, 3);
        assert_eq!(c.warmup_cycles, 10);
        assert_eq!(c.monitor_interval_us, 200_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = [
            MagusConfig {
                inc_threshold: 0.0,
                ..MagusConfig::default()
            },
            MagusConfig {
                high_freq_threshold: 2.5,
                ..MagusConfig::default()
            },
            MagusConfig {
                window_len: 1,
                ..MagusConfig::default()
            },
            MagusConfig {
                tune_window_len: 0,
                ..MagusConfig::default()
            },
            MagusConfig {
                monitor_interval_us: 0,
                ..MagusConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn pareto_common_point() {
        let c = MagusConfig::pareto_common();
        assert_eq!(c.inc_threshold, 300.0);
        assert_eq!(c.dec_threshold, 500.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_defaults_build_clean() {
        let cfg = MagusConfig::builder().build().unwrap();
        assert_eq!(cfg, MagusConfig::default());
    }

    #[test]
    fn builder_rejects_each_invalid_field_with_typed_error() {
        assert_eq!(
            MagusConfig::builder().inc_threshold(0.0).build(),
            Err(ConfigError::NonPositive {
                field: "inc_threshold",
                value: 0.0
            })
        );
        assert_eq!(
            MagusConfig::builder().dec_threshold(-5.0).build(),
            Err(ConfigError::NonPositive {
                field: "dec_threshold",
                value: -5.0
            })
        );
        assert_eq!(
            MagusConfig::builder().high_freq_threshold(0.0).build(),
            Err(ConfigError::HighFreqOutOfRange { value: 0.0 })
        );
        assert_eq!(
            MagusConfig::builder().high_freq_threshold(1.5).build(),
            Err(ConfigError::HighFreqOutOfRange { value: 1.5 })
        );
        assert_eq!(
            MagusConfig::builder().window_len(1).build(),
            Err(ConfigError::WindowTooShort { len: 1 })
        );
        assert_eq!(
            MagusConfig::builder().tune_window_len(0).build(),
            Err(ConfigError::TuneWindowEmpty)
        );
        assert_eq!(
            MagusConfig::builder().warmup_cycles(2).build(),
            Err(ConfigError::WarmupShorterThanWindow {
                warmup: 2,
                window: 3
            })
        );
        assert_eq!(
            MagusConfig::builder().monitor_interval_us(0).build(),
            Err(ConfigError::ZeroMonitorInterval)
        );
    }

    #[test]
    fn builder_disable_lock_matches_ablation_sentinel() {
        let cfg = MagusConfig::builder()
            .disable_high_freq_lock()
            .build()
            .unwrap();
        assert_eq!(cfg, MagusConfig::without_high_freq_lock());
        // A later explicit threshold re-enables validation.
        assert!(MagusConfig::builder()
            .disable_high_freq_lock()
            .high_freq_threshold(1.5)
            .build()
            .is_err());
    }

    #[test]
    fn builder_errors_render_the_offending_value() {
        let e = MagusConfig::builder()
            .inc_threshold(-2.0)
            .build()
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("inc_threshold") && msg.contains("-2"), "{msg}");
    }
}
