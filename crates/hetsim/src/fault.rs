//! Deterministic, seeded fault injection for the sensor/actuator stack.
//!
//! The paper's runtimes hang off a small set of fragile surfaces: MAGUS
//! trusts one noisy PCM throughput counter, UPS trusts a per-core MSR sweep,
//! and both actuate through `MSR_UNCORE_RATIO_LIMIT` writes that on real
//! silicon can fail transiently or land late (PAPERS.md: *Methodology for
//! GPU Frequency Switching Latency Measurement*). A [`FaultPlan`] describes
//! which of those surfaces misbehave and how often, so robustness
//! experiments can measure how gracefully each runtime degrades.
//!
//! Determinism rules (the contract the differential tests enforce):
//!
//! * **Empty plan = no plan.** A default/empty [`FaultPlan`] injects
//!   nothing, draws nothing from any RNG, and leaves every simulated run
//!   bit-for-bit identical to a run with no plan attached — on both the
//!   reference and the macro-stepping fast path.
//! * **Seeded schedules.** All randomized fault behavior (spike signs,
//!   extra noise draws) comes from a dedicated [`rand::rngs::SmallRng`]
//!   seeded from [`FaultPlan::seed`] — never from the node's own sensor
//!   noise stream and never from the wall clock — so a given plan replays
//!   the same fault schedule on every run, in every scheduling mode.
//! * **Counted schedules.** Periodic faults (`every`-N dropouts, write
//!   failures) count *accesses*, not wall time: the n-th PCM read fails no
//!   matter when it happens, so fast-path macro-stepping cannot shift the
//!   schedule.
//! * **Fast-path safety.** Every injected event either rides an access that
//!   already bumps the node's `state_epoch` (PCM reads, MSR writes) or —
//!   for delayed actuations that fire *between* accesses — bumps it
//!   explicitly when applied, so frozen fast-forward spans are invalidated
//!   exactly as they would be by a real actuation.
//!
//! Plans are built through the validating [`FaultPlanBuilder`]:
//!
//! ```
//! use magus_hetsim::fault::FaultPlan;
//!
//! let plan = FaultPlan::builder()
//!     .seed(7)
//!     .pcm_dropout_every(50)
//!     .pcm_spike(30, 0.5)
//!     .uncore_write_fail_every(10)
//!     .actuation_delay_us(40_000)
//!     .build()
//!     .unwrap();
//! assert!(!plan.is_empty());
//!
//! // Zero periods are nonsense and rejected with a typed error.
//! assert!(FaultPlan::builder().pcm_dropout_every(0).build().is_err());
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Faults on the PCM-style memory-throughput counter (what MAGUS samples).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct PcmFaults {
    /// Every `n`-th PCM read fails outright (daemon missed its window);
    /// surfaced to callers as a transient sample error.
    pub dropout_every: Option<u64>,
    /// Every `n`-th PCM read returns the previous reading unchanged (stale
    /// counter snapshot) instead of a fresh measurement.
    pub stale_every: Option<u64>,
    /// Additional uniform jitter on successful reads, relative to the
    /// windowed mean (0 = off). Drawn from the fault RNG, not the node's
    /// sensor-noise stream.
    pub extra_noise_rel: f64,
    /// Every `n`-th PCM read is a spike: the reading is scaled by
    /// `1 ± spike_magnitude_rel` (sign drawn from the fault RNG).
    pub spike_every: Option<u64>,
    /// Relative magnitude of injected spikes (must be > 0 when
    /// `spike_every` is set).
    pub spike_magnitude_rel: f64,
}

impl PcmFaults {
    /// True when no PCM fault is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dropout_every.is_none()
            && self.stale_every.is_none()
            && self.extra_noise_rel == 0.0
            && self.spike_every.is_none()
    }
}

/// Faults on the MSR actuation path (`MSR_UNCORE_RATIO_LIMIT` writes).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct MsrFaults {
    /// Every `n`-th uncore-limit write fails with
    /// `MsrError::TransientFault` (the write's access cost is still
    /// charged — the `wrmsr` was attempted).
    pub uncore_write_fail_every: Option<u64>,
    /// Successful uncore-limit writes take effect this many µs late
    /// (actuation latency), applied at the first tick boundary at or after
    /// the due time. 0 = immediate.
    pub actuation_delay_us: u64,
}

impl MsrFaults {
    /// True when no MSR fault is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uncore_write_fail_every.is_none() && self.actuation_delay_us == 0
    }
}

/// Fleet-level node failures (consumed by `FleetSim`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FleetFaults {
    /// Every `k`-th node (1-based index) is a straggler: each of its
    /// decisions is delayed by [`FleetFaults::stall_us`].
    pub stall_every: Option<u64>,
    /// Extra per-decision delay on stalled nodes (µs).
    pub stall_us: u64,
    /// Every `k`-th node (1-based index) crashes at
    /// [`FleetFaults::crash_at_us`] and never completes.
    pub crash_every: Option<u64>,
    /// Simulation time at which crashing nodes die (µs).
    pub crash_at_us: u64,
}

impl FleetFaults {
    /// True when no fleet fault is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stall_every.is_none() && self.crash_every.is_none()
    }
}

/// A complete, serializable description of the faults injected into one
/// trial. Hashed into the trial spec (experiments layer), so cached results
/// can never conflate faulted and clean runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG (spike signs, extra noise).
    pub seed: u64,
    /// PCM throughput-counter faults.
    pub pcm: PcmFaults,
    /// MSR actuation faults.
    pub msr: MsrFaults,
    /// Fleet-level node failures.
    pub fleet: FleetFaults,
}

impl FaultPlan {
    /// Validating builder, seeded with the all-clean default.
    #[must_use]
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// True when the plan injects nothing. Empty plans are never attached
    /// to a node: runs are bit-identical to having no plan at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcm.is_empty() && self.msr.is_empty() && self.fleet.is_empty()
    }

    /// Re-check the builder invariants on an already-constructed plan
    /// (e.g. one deserialized from a `--faults` JSON file, which bypasses
    /// the builder).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        fn period(field: &'static str, v: Option<u64>) -> Result<(), FaultPlanError> {
            match v {
                Some(0) => Err(FaultPlanError::ZeroPeriod { field }),
                _ => Ok(()),
            }
        }
        fn non_negative(field: &'static str, v: f64) -> Result<(), FaultPlanError> {
            if v < 0.0 || !v.is_finite() {
                Err(FaultPlanError::NegativeValue { field, value: v })
            } else {
                Ok(())
            }
        }
        period("pcm.dropout_every", self.pcm.dropout_every)?;
        period("pcm.stale_every", self.pcm.stale_every)?;
        period("pcm.spike_every", self.pcm.spike_every)?;
        period(
            "msr.uncore_write_fail_every",
            self.msr.uncore_write_fail_every,
        )?;
        period("fleet.stall_every", self.fleet.stall_every)?;
        period("fleet.crash_every", self.fleet.crash_every)?;
        non_negative("pcm.extra_noise_rel", self.pcm.extra_noise_rel)?;
        non_negative("pcm.spike_magnitude_rel", self.pcm.spike_magnitude_rel)?;
        if self.pcm.spike_every.is_some() && self.pcm.spike_magnitude_rel == 0.0 {
            return Err(FaultPlanError::ZeroMagnitude {
                field: "pcm.spike_magnitude_rel",
            });
        }
        if self.fleet.stall_every.is_some() && self.fleet.stall_us == 0 {
            return Err(FaultPlanError::ZeroMagnitude {
                field: "fleet.stall_us",
            });
        }
        Ok(())
    }
}

/// A [`FaultPlan`] that fails validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// An `every`-N period of 0 (a period must be >= 1; use `None`/omit the
    /// field to disable the fault).
    ZeroPeriod {
        /// The offending plan field.
        field: &'static str,
    },
    /// A magnitude that must be finite and non-negative.
    NegativeValue {
        /// The offending plan field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A periodic fault was enabled with a zero magnitude (it would inject
    /// nothing observable).
    ZeroMagnitude {
        /// The offending plan field.
        field: &'static str,
    },
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::ZeroPeriod { field } => {
                write!(f, "{field} must be >= 1 (omit the field to disable)")
            }
            FaultPlanError::NegativeValue { field, value } => {
                write!(f, "{field} must be finite and >= 0 (got {value})")
            }
            FaultPlanError::ZeroMagnitude { field } => {
                write!(f, "{field} must be > 0 when its period is set")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Validating builder for [`FaultPlan`]. Every setter overrides one field;
/// [`FaultPlanBuilder::build`] rejects nonsense combinations with a typed
/// [`FaultPlanError`].
///
/// ```
/// use magus_hetsim::fault::FaultPlan;
///
/// let plan = FaultPlan::builder().seed(1).pcm_stale_every(4).build().unwrap();
/// assert_eq!(plan.pcm.stale_every, Some(4));
/// assert!(FaultPlan::builder().pcm_extra_noise_rel(-0.5).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Builder seeded with the all-clean default.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed for the fault RNG.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.plan.seed = seed;
        self
    }

    /// Fail every `n`-th PCM read (transient dropout).
    #[must_use]
    pub fn pcm_dropout_every(mut self, n: u64) -> Self {
        self.plan.pcm.dropout_every = Some(n);
        self
    }

    /// Return a stale reading on every `n`-th PCM read.
    #[must_use]
    pub fn pcm_stale_every(mut self, n: u64) -> Self {
        self.plan.pcm.stale_every = Some(n);
        self
    }

    /// Add uniform jitter of `rel` x windowed-mean to successful PCM reads.
    #[must_use]
    pub fn pcm_extra_noise_rel(mut self, rel: f64) -> Self {
        self.plan.pcm.extra_noise_rel = rel;
        self
    }

    /// Spike every `n`-th PCM read by `±magnitude_rel` (relative).
    #[must_use]
    pub fn pcm_spike(mut self, n: u64, magnitude_rel: f64) -> Self {
        self.plan.pcm.spike_every = Some(n);
        self.plan.pcm.spike_magnitude_rel = magnitude_rel;
        self
    }

    /// Fail every `n`-th uncore-limit MSR write with a transient fault.
    #[must_use]
    pub fn uncore_write_fail_every(mut self, n: u64) -> Self {
        self.plan.msr.uncore_write_fail_every = Some(n);
        self
    }

    /// Delay successful uncore-limit writes by `us` before they take effect.
    #[must_use]
    pub fn actuation_delay_us(mut self, us: u64) -> Self {
        self.plan.msr.actuation_delay_us = us;
        self
    }

    /// Make every `k`-th fleet node a straggler: each decision is delayed
    /// by `stall_us`.
    #[must_use]
    pub fn fleet_stall(mut self, every: u64, stall_us: u64) -> Self {
        self.plan.fleet.stall_every = Some(every);
        self.plan.fleet.stall_us = stall_us;
        self
    }

    /// Crash every `k`-th fleet node at `at_us`.
    #[must_use]
    pub fn fleet_crash(mut self, every: u64, at_us: u64) -> Self {
        self.plan.fleet.crash_every = Some(every);
        self.plan.fleet.crash_at_us = at_us;
        self
    }

    /// Validate and produce the plan.
    pub fn build(self) -> Result<FaultPlan, FaultPlanError> {
        self.plan.validate()?;
        Ok(self.plan)
    }
}

/// Counts of injected faults, per kind — cheap ground truth for tests and
/// reports, kept whether or not the node's telemetry (and its event log)
/// is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultCounters {
    /// PCM reads failed outright.
    pub pcm_dropouts: u64,
    /// PCM reads answered with a stale value.
    pub pcm_stale: u64,
    /// PCM reads spiked.
    pub pcm_spikes: u64,
    /// Uncore-limit MSR writes failed transiently.
    pub msr_write_fails: u64,
    /// Uncore-limit MSR writes deferred by actuation delay.
    pub delayed_writes: u64,
}

impl FaultCounters {
    /// Total injected faults across all kinds (delayed writes count once
    /// when deferred).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pcm_dropouts
            + self.pcm_stale
            + self.pcm_spikes
            + self.msr_write_fails
            + self.delayed_writes
    }
}

/// A PCM read that failed because of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The monitoring daemon missed its measurement window: no sample.
    PcmDropout,
}

impl core::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectedFault::PcmDropout => write!(f, "injected PCM dropout"),
        }
    }
}

impl std::error::Error for InjectedFault {}

/// An uncore-limit write waiting out its injected actuation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingWrite {
    /// Simulation time at/after which the write takes effect (µs).
    pub due_us: u64,
    /// Target package.
    pub pkg: u32,
    /// Raw `MSR_UNCORE_RATIO_LIMIT` value.
    pub value: u64,
}

/// Per-node runtime state for an active (non-empty) fault plan. Created by
/// `Node::set_fault_plan`; absent (`None`) on clean nodes, so the empty-plan
/// cost is a single `Option` discriminant check on each fault site.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    /// Dedicated RNG for randomized fault behavior; deliberately separate
    /// from the node's sensor-noise stream so attaching a plan with only
    /// deterministic faults cannot shift the clean noise sequence.
    pub rng: SmallRng,
    /// Last successfully delivered PCM reading (GB/s), for stale reads.
    pub last_pcm_gbs: f64,
    /// Uncore-limit writes attempted so far (drives `every`-N schedules).
    pub uncore_writes: u64,
    /// Delayed writes not yet applied, in due-time order.
    pub pending: VecDeque<PendingWrite>,
    /// Cached earliest due time (`u64::MAX` when the queue is empty) so the
    /// per-tick check is one compare.
    pub next_due_us: u64,
    pub counters: FaultCounters,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: SmallRng::seed_from_u64(plan.seed),
            last_pcm_gbs: 0.0,
            uncore_writes: 0,
            pending: VecDeque::new(),
            next_due_us: u64::MAX,
            counters: FaultCounters::default(),
        }
    }

    /// Queue a delayed uncore-limit write.
    pub fn defer_write(&mut self, due_us: u64, pkg: u32, value: u64) {
        self.pending.push_back(PendingWrite { due_us, pkg, value });
        self.next_due_us = self.next_due_us.min(due_us);
        self.counters.delayed_writes += 1;
    }

    /// Pop the next write due at or before `now_us`, refreshing the cached
    /// earliest due time.
    pub fn pop_due(&mut self, now_us: u64) -> Option<PendingWrite> {
        // Writes are queued in issue order; due times are issue time plus a
        // constant delay, so the front is always the earliest.
        if self.pending.front().is_some_and(|w| w.due_us <= now_us) {
            let w = self.pending.pop_front();
            self.next_due_us = self.pending.front().map_or(u64::MAX, |w| w.due_us);
            return w;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        assert!(FaultPlan::builder().build().unwrap().is_empty());
    }

    #[test]
    fn builder_round_trips_every_field() {
        let plan = FaultPlan::builder()
            .seed(9)
            .pcm_dropout_every(5)
            .pcm_stale_every(7)
            .pcm_extra_noise_rel(0.1)
            .pcm_spike(11, 0.4)
            .uncore_write_fail_every(3)
            .actuation_delay_us(25_000)
            .fleet_stall(4, 50_000)
            .fleet_crash(8, 2_000_000)
            .build()
            .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.pcm.dropout_every, Some(5));
        assert_eq!(plan.msr.actuation_delay_us, 25_000);
        assert_eq!(plan.fleet.crash_every, Some(8));
        assert!(!plan.is_empty());
    }

    #[test]
    fn zero_periods_and_negative_magnitudes_are_rejected() {
        assert_eq!(
            FaultPlan::builder().pcm_dropout_every(0).build(),
            Err(FaultPlanError::ZeroPeriod {
                field: "pcm.dropout_every"
            })
        );
        assert!(matches!(
            FaultPlan::builder().pcm_extra_noise_rel(-1.0).build(),
            Err(FaultPlanError::NegativeValue { .. })
        ));
        assert!(matches!(
            FaultPlan::builder().pcm_spike(5, 0.0).build(),
            Err(FaultPlanError::ZeroMagnitude { .. })
        ));
        assert!(matches!(
            FaultPlan::builder().fleet_stall(2, 0).build(),
            Err(FaultPlanError::ZeroMagnitude { .. })
        ));
        assert!(FaultPlanError::ZeroPeriod { field: "x" }
            .to_string()
            .contains("must be >= 1"));
    }

    #[test]
    fn plan_serde_round_trips_and_accepts_partial_json() {
        let plan = FaultPlan::builder()
            .seed(3)
            .pcm_dropout_every(6)
            .build()
            .unwrap();
        let json = serde::to_string(&plan);
        let back: FaultPlan = serde::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Partial JSON (the `--faults` file format) defaults everything else.
        let partial: FaultPlan = serde::from_str(r#"{"pcm": {"stale_every": 4}}"#).unwrap();
        assert_eq!(partial.pcm.stale_every, Some(4));
        assert!(partial.msr.is_empty());
        assert!(partial.validate().is_ok());
    }

    #[test]
    fn pending_writes_pop_in_due_order() {
        let mut fs = FaultState::new(FaultPlan::default());
        assert_eq!(fs.next_due_us, u64::MAX);
        fs.defer_write(100, 0, 1);
        fs.defer_write(200, 1, 2);
        assert_eq!(fs.next_due_us, 100);
        assert!(fs.pop_due(50).is_none());
        let w = fs.pop_due(150).unwrap();
        assert_eq!((w.due_us, w.pkg, w.value), (100, 0, 1));
        assert_eq!(fs.next_due_us, 200);
        assert_eq!(fs.pop_due(200).unwrap().pkg, 1);
        assert_eq!(fs.next_due_us, u64::MAX);
        assert_eq!(fs.counters.delayed_writes, 2);
    }

    #[test]
    fn identical_seeds_produce_identical_fault_rng_streams() {
        use rand::Rng;
        let plan = FaultPlan::builder()
            .seed(42)
            .pcm_spike(2, 0.5)
            .build()
            .unwrap();
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        for _ in 0..64 {
            let x: f64 = a.rng.gen_range(-1.0..1.0);
            let y: f64 = b.rng.gen_range(-1.0..1.0);
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    // --- Node integration ---

    use crate::demand::Demand;
    use crate::node::{FastForward, Node};
    use crate::NodeConfig;
    use magus_msr::{MsrError, MsrScope, UncoreRatioLimit, MSR_UNCORE_RATIO_LIMIT};

    fn busy() -> Demand {
        Demand::new(30.0, 0.4, 0.2, 0.8)
    }

    #[test]
    fn empty_plan_attaches_nothing_and_stays_bit_identical() {
        let mut clean = Node::new(NodeConfig::intel_a100());
        let mut planned = Node::new(NodeConfig::intel_a100());
        planned.set_fault_plan(FaultPlan::default());
        assert!(planned.fault_plan().is_none());
        for i in 0..300 {
            clean.step(10_000, &busy());
            planned.step(10_000, &busy());
            if i % 20 == 19 {
                let a = clean.pcm_try_read_gbs().unwrap();
                let b = planned.pcm_try_read_gbs().unwrap();
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(
            clean.energy().total_j().to_bits(),
            planned.energy().total_j().to_bits()
        );
        assert_eq!(planned.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn plan_dropouts_surface_as_errors_and_count() {
        let mut node = Node::new(NodeConfig::intel_a100());
        node.set_fault_plan(FaultPlan::builder().pcm_dropout_every(3).build().unwrap());
        for _ in 0..30 {
            node.step(10_000, &busy());
        }
        let mut failures = 0;
        for i in 1..=9 {
            let r = node.pcm_try_read_gbs();
            if i % 3 == 0 {
                assert_eq!(r, Err(InjectedFault::PcmDropout));
                failures += 1;
            } else {
                assert!(r.unwrap() > 0.0);
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(node.fault_counters().pcm_dropouts, 3);
        // A dropout is an error, never a fabricated 0 GB/s reading.
        for _ in 0..2 {
            let _ = node.pcm_try_read_gbs();
        }
        assert_eq!(node.pcm_try_read_gbs(), Err(InjectedFault::PcmDropout));
    }

    #[test]
    fn stale_reads_repeat_the_previous_reading() {
        let mut node = Node::new(NodeConfig::intel_a100());
        node.set_fault_plan(FaultPlan::builder().pcm_stale_every(2).build().unwrap());
        for _ in 0..30 {
            node.step(10_000, &busy());
        }
        let first = node.pcm_try_read_gbs().unwrap(); // read 1: fresh
        let second = node.pcm_try_read_gbs().unwrap(); // read 2: stale
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(node.fault_counters().pcm_stale, 1);
    }

    #[test]
    fn uncore_write_failures_are_transient_and_charged() {
        let mut node = Node::new(NodeConfig::intel_a100());
        node.set_fault_plan(
            FaultPlan::builder()
                .uncore_write_fail_every(2)
                .build()
                .unwrap(),
        );
        let raw = UncoreRatioLimit::from_ghz(0.8, 1.4).encode();
        let scope = MsrScope::Package(0);
        assert!(node.msr_write(scope, MSR_UNCORE_RATIO_LIMIT, raw).is_ok());
        let writes_before = node.ledger().writes();
        assert_eq!(
            node.msr_write(scope, MSR_UNCORE_RATIO_LIMIT, raw),
            Err(MsrError::TransientFault)
        );
        // The failed attempt still charged a write.
        assert_eq!(node.ledger().writes(), writes_before + 1);
        assert!(node.msr_write(scope, MSR_UNCORE_RATIO_LIMIT, raw).is_ok());
        assert_eq!(node.fault_counters().msr_write_fails, 1);
    }

    #[test]
    fn delayed_actuation_applies_at_the_due_tick_boundary() {
        let mut node = Node::new(NodeConfig::intel_a100());
        node.set_fault_plan(
            FaultPlan::builder()
                .actuation_delay_us(25_000)
                .build()
                .unwrap(),
        );
        for _ in 0..50 {
            node.step(10_000, &busy());
        }
        let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
        node.msr_write(MsrScope::Package(0), MSR_UNCORE_RATIO_LIMIT, raw)
            .unwrap();
        node.msr_write(MsrScope::Package(1), MSR_UNCORE_RATIO_LIMIT, raw)
            .unwrap();
        assert_eq!(node.fault_counters().delayed_writes, 2);
        // Not yet applied: limits still at the config default.
        let (_, max0) = node.sockets()[0].uncore.msr_limits();
        assert!(max0 > 2.0, "write should still be pending, max = {max0}");
        // Issued at t = 500 ms, due at t = 525 ms: crossed during the 3rd
        // tick, so the write lands at the next tick boundary — the head of
        // the 4th step (t = 530 ms).
        node.step(10_000, &busy());
        node.step(10_000, &busy());
        node.step(10_000, &busy());
        let (_, max_mid) = node.sockets()[0].uncore.msr_limits();
        assert!(max_mid > 2.0, "applied too early");
        node.step(10_000, &busy());
        for socket in node.sockets() {
            let (_, max) = socket.uncore.msr_limits();
            assert!((max - 0.8).abs() < 1e-9, "max = {max}");
        }
    }

    #[test]
    fn faulted_runs_match_across_stepping_paths_bit_for_bit() {
        let plan = FaultPlan::builder()
            .seed(11)
            .pcm_spike(3, 0.4)
            .pcm_extra_noise_rel(0.05)
            .actuation_delay_us(35_000)
            .build()
            .unwrap();
        let mut reference = Node::new(NodeConfig::intel_a100());
        let mut fast = Node::new(NodeConfig::intel_a100());
        reference.set_fault_plan(plan);
        fast.set_fault_plan(plan);
        let mut ff = FastForward::new();
        let raw = UncoreRatioLimit::from_ghz(0.8, 1.2).encode();
        for i in 0..600 {
            reference.step(10_000, &busy());
            fast.step_fast(10_000, &busy(), &mut ff);
            if i % 97 == 50 {
                // Identical access sequence on both nodes: a PCM read and a
                // (delayed) uncore write mid-run.
                let a = reference.pcm_try_read_gbs();
                let b = fast.pcm_try_read_gbs();
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (x, y) => assert_eq!(x, y),
                }
                reference
                    .msr_write(MsrScope::Package(0), MSR_UNCORE_RATIO_LIMIT, raw)
                    .unwrap();
                fast.msr_write(MsrScope::Package(0), MSR_UNCORE_RATIO_LIMIT, raw)
                    .unwrap();
            }
        }
        assert_eq!(reference.time_us(), fast.time_us());
        assert_eq!(
            reference.energy().total_j().to_bits(),
            fast.energy().total_j().to_bits()
        );
        for (a, b) in reference.sockets().iter().zip(fast.sockets()) {
            assert_eq!(a.uncore.freq_ghz().to_bits(), b.uncore.freq_ghz().to_bits());
            assert_eq!(a.pkg_energy_j.to_bits(), b.pkg_energy_j.to_bits());
        }
        assert_eq!(reference.fault_counters(), fast.fault_counters());
        assert!(reference.fault_counters().delayed_writes > 0);
    }
}
