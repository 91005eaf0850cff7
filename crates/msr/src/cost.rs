//! Access-cost accounting for hardware-counter reads and writes.
//!
//! The paper's overhead argument (§2 challenge 2, §6.5) is quantitative:
//! reading per-core MSRs "becomes increasingly resource-intensive as the
//! number of CPU cores increases", while a single socket-level memory
//! throughput read through PCM is cheap, and `wrmsr` writes are "direct
//! register modifications at the hardware level that incur negligible
//! computational cost". We encode those facts as explicit per-access costs
//! so the Table 2 overhead numbers fall out of counting accesses rather than
//! being asserted.

use serde::Serialize;

/// Cost of a single counter/register access.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct AccessCost {
    /// Wall-clock latency of the access, in microseconds.
    pub latency_us: f64,
    /// Energy charged to the CPU package for the access, in microjoules.
    pub energy_uj: f64,
}

impl AccessCost {
    /// A cost of zero (free access).
    pub const FREE: AccessCost = AccessCost {
        latency_us: 0.0,
        energy_uj: 0.0,
    };

    /// Construct a cost from latency (µs) and energy (µJ).
    #[must_use]
    pub fn new(latency_us: f64, energy_uj: f64) -> Self {
        Self {
            latency_us,
            energy_uj,
        }
    }

    /// Scale the cost by a count of accesses.
    #[must_use]
    pub fn times(self, n: u64) -> Self {
        Self {
            latency_us: self.latency_us * n as f64,
            energy_uj: self.energy_uj * n as f64,
        }
    }
}

impl core::ops::Add for AccessCost {
    type Output = AccessCost;

    fn add(self, rhs: AccessCost) -> AccessCost {
        AccessCost {
            latency_us: self.latency_us + rhs.latency_us,
            energy_uj: self.energy_uj + rhs.energy_uj,
        }
    }
}

impl core::ops::AddAssign for AccessCost {
    fn add_assign(&mut self, rhs: AccessCost) {
        self.latency_us += rhs.latency_us;
        self.energy_uj += rhs.energy_uj;
    }
}

/// Running ledger of accesses and their aggregate cost.
///
/// The node simulator keeps one of these; the experiment drivers drain it
/// per decision with [`CostLedger::drain`] to time each invocation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CostLedger {
    reads: u64,
    writes: u64,
    accrued: AccessCost,
    lifetime: AccessCost,
}

impl CostLedger {
    /// New, empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read with the given cost.
    pub fn record_read(&mut self, cost: AccessCost) {
        self.reads += 1;
        self.accrued += cost;
        self.lifetime += cost;
    }

    /// Record a write with the given cost.
    pub fn record_write(&mut self, cost: AccessCost) {
        self.writes += 1;
        self.accrued += cost;
        self.lifetime += cost;
    }

    /// Total reads recorded over the ledger lifetime.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes recorded over the ledger lifetime.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Cost accrued since the last [`CostLedger::drain`].
    #[must_use]
    pub fn pending(&self) -> AccessCost {
        self.accrued
    }

    /// Cost accrued over the ledger lifetime (never reset).
    #[must_use]
    pub fn lifetime(&self) -> AccessCost {
        self.lifetime
    }

    /// Take the pending cost, resetting it to zero.
    pub fn drain(&mut self) -> AccessCost {
        core::mem::take(&mut self.accrued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_add_and_times() {
        let a = AccessCost::new(1.0, 2.0);
        let b = AccessCost::new(0.5, 0.25);
        let sum = a + b;
        assert!((sum.latency_us - 1.5).abs() < 1e-12);
        assert!((sum.energy_uj - 2.25).abs() < 1e-12);
        let scaled = a.times(3);
        assert!((scaled.latency_us - 3.0).abs() < 1e-12);
        assert!((scaled.energy_uj - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_counts_and_drains() {
        let mut ledger = CostLedger::new();
        ledger.record_read(AccessCost::new(1.0, 1.0));
        ledger.record_read(AccessCost::new(1.0, 1.0));
        ledger.record_write(AccessCost::new(0.1, 0.1));
        assert_eq!(ledger.reads(), 2);
        assert_eq!(ledger.writes(), 1);
        let drained = ledger.drain();
        assert!((drained.latency_us - 2.1).abs() < 1e-12);
        assert!((ledger.pending().latency_us).abs() < 1e-12);
        // Lifetime survives draining.
        assert!((ledger.lifetime().energy_uj - 2.1).abs() < 1e-12);
    }

    #[test]
    fn free_cost_is_identity() {
        let mut ledger = CostLedger::new();
        ledger.record_read(AccessCost::FREE);
        assert_eq!(ledger.reads(), 1);
        assert!(ledger.pending().latency_us.abs() < 1e-12);
    }
}
