//! MAGUS: model-free adaptive uncore frequency scaling for heterogeneous
//! CPU–GPU nodes — the core contribution of the reproduced paper.
//!
//! MAGUS samples a single hardware counter (socket memory throughput) at a
//! fixed cadence and drives the uncore between its minimum and maximum
//! frequency using two cooperating detectors built on the concept of
//! *memory dynamics*:
//!
//! 1. **Trend prediction** ([`predict`], the paper's Algorithm 1): the
//!    first derivative of a FIFO window of throughput samples anticipates
//!    near-future demand. A steep rise requests maximum uncore frequency
//!    *before* the burst peaks; a steep fall releases it.
//! 2. **High-frequency phase-change detection** ([`highfreq`], Algorithm
//!    2): when tune events fire too often — throughput is fluctuating
//!    faster than hardware/software can follow — MAGUS pins the uncore at
//!    maximum to protect performance instead of thrashing.
//!
//! [`mdfs::MagusCore`] composes the two into the paper's Algorithm 3
//! (Memory-throughput-based Dynamic Frequency Scaling) over a
//! [`window::SampleWindow`] of recent samples. The core is pure decision
//! logic — feed it samples, get actions — so it is trivially testable and
//! portable; the experiment harness's drivers sample the simulated node,
//! feed the core and actuate its decisions.
//!
//! Default thresholds (paper §3.3): `inc_threshold = 200` MB/s·interval,
//! `dec_threshold = 500` MB/s·interval, `high_freq_threshold = 0.4`,
//! monitoring every 0.2 s with ~0.1 s per invocation.

pub mod config;
pub mod highfreq;
pub mod mdfs;
pub mod predict;
pub mod telemetry;
pub mod window;

pub use config::{ConfigError, MagusConfig, MagusConfigBuilder};
pub use highfreq::HighFreqDetector;
pub use mdfs::{MagusAction, MagusCore, UncoreLevel};
pub use predict::{predict_trend, Trend};
pub use telemetry::{DecisionRecord, Telemetry};
pub use window::SampleWindow;
