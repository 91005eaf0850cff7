//! Per-node instrumentation state.
//!
//! A [`crate::Node`] carries a [`NodeTelemetry`] only once something that
//! will read it has armed the node ([`crate::Node::arm_telemetry`]); an
//! unarmed node records nothing and allocates nothing for telemetry.
//! Armed recording obeys two hard rules:
//!
//! * **Sim-time only.** Every recorded value derives from simulated state
//!   (`Node::time_us`, frequencies, counter deltas) — never the wall
//!   clock — so two identical runs produce byte-identical telemetry.
//! * **Invisible to the simulation.** Recording never touches
//!   `state_epoch`, the cost ledger, or any feedback state: an
//!   instrumented run computes exactly what an uninstrumented run does,
//!   and the macro-stepping fast path stays frozen across event pushes.
//!
//! The hot-loop cost is deliberately tiny: the residency histogram is a
//! fixed array indexed by a pre-computed bin (no hashing, no allocation),
//! and the remaining counters are single integer adds. Decision *events*
//! are pushed by runtime drivers at decision cadence (~100 ms of simulated
//! time), never per tick.

use magus_telemetry::{Event, EventLog, NodeCounters};

/// Number of uncore-frequency residency bins (0.1 GHz each, 0.0–3.1 GHz;
/// the last bin also absorbs anything faster).
pub const RESIDENCY_BINS: usize = 32;

/// Residency bin for an uncore frequency: `round(ghz * 10)`, clamped to
/// the last bin. Bin 18 covers readings that round to 1.8 GHz.
#[inline]
#[must_use]
pub fn freq_bin(ghz: f64) -> u16 {
    let bin = (ghz * 10.0).round();
    if bin <= 0.0 {
        0
    } else if bin >= (RESIDENCY_BINS - 1) as f64 {
        (RESIDENCY_BINS - 1) as u16
    } else {
        bin as u16
    }
}

/// Instrumentation state carried by an armed [`crate::Node`].
#[derive(Debug, Clone, Default)]
pub struct NodeTelemetry {
    /// `wrmsr` writes to `MSR 0x620` (`UNCORE_RATIO_LIMIT`).
    pub(crate) uncore_msr_writes: u64,
    /// Fixed-point spans frozen by the fast path.
    pub(crate) fastpath_frozen_spans: u64,
    /// Ticks replayed from a frozen span.
    pub(crate) fastpath_replayed_ticks: u64,
    /// Frozen spans torn down by an epoch/demand/dt event.
    pub(crate) fastpath_invalidations: u64,
    /// Socket-µs of uncore residency per frequency bin (see [`freq_bin`]).
    pub(crate) residency_us: [u64; RESIDENCY_BINS],
    /// Structured decision/actuation events, in simulation order.
    pub(crate) events: EventLog,
}

impl NodeTelemetry {
    /// Append a structured event (bounded; drops past the log cap).
    ///
    /// This must never perturb simulated state — in particular it does
    /// *not* bump the node's `state_epoch`, so pushing an event keeps any
    /// frozen fast-forward span intact.
    pub fn push_event(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        self.events.events()
    }

    /// Drain buffered events (the drop counter survives).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.take()
    }

    /// Snapshot the deterministic counters in portable form.
    #[must_use]
    pub fn counters(&self) -> NodeCounters {
        NodeCounters {
            uncore_msr_writes: self.uncore_msr_writes,
            fastpath_frozen_spans: self.fastpath_frozen_spans,
            fastpath_replayed_ticks: self.fastpath_replayed_ticks,
            fastpath_invalidations: self.fastpath_invalidations,
            residency_us: self
                .residency_us
                .iter()
                .enumerate()
                .filter(|&(_, &us)| us > 0)
                .map(|(bin, &us)| (bin as u16, us))
                .collect(),
            events_dropped: self.events.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_bins_round_and_clamp() {
        assert_eq!(freq_bin(0.0), 0);
        assert_eq!(freq_bin(-1.0), 0);
        assert_eq!(freq_bin(0.8), 8);
        assert_eq!(freq_bin(1.84), 18);
        assert_eq!(freq_bin(2.2), 22);
        assert_eq!(freq_bin(9.9), (RESIDENCY_BINS - 1) as u16);
    }

    #[test]
    fn counters_report_only_occupied_bins() {
        let mut t = NodeTelemetry::default();
        t.residency_us[22] = 10_000;
        t.residency_us[8] = 5_000;
        t.uncore_msr_writes = 3;
        let c = t.counters();
        assert_eq!(c.residency_us, vec![(8, 5_000), (22, 10_000)]);
        assert_eq!(c.residency_total_us(), 15_000);
        assert_eq!(c.uncore_msr_writes, 3);
    }
}
