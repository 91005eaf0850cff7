//! The UPS measurement sweep: per-core fixed counters + RAPL DRAM power.
//!
//! Each invocation reads `IA32_FIXED_CTR0` (instructions retired) and
//! `IA32_FIXED_CTR1` (unhalted cycles) for **every logical core**, plus the
//! DRAM energy-status register per socket. On the Intel+A100 testbed that
//! is 2 × 80 core reads + 2 package reads per decision — the access-cost
//! ledger this charges against the node is precisely UPS's Table 2
//! overhead. Each counter register is read on all cores through one
//! [`Node::msr_read_cores`] call, which charges every core read exactly as
//! a single `msr_read` does, into buffers the sampler keeps across sweeps.

use magus_hetsim::Node;
use magus_msr::regs::energy_counter_delta;
use magus_msr::{
    MsrError, MsrScope, RaplPowerUnit, IA32_FIXED_CTR0, IA32_FIXED_CTR1, MSR_DRAM_ENERGY_STATUS,
    MSR_RAPL_POWER_UNIT,
};
use serde::Serialize;

/// One completed measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UpsSample {
    /// Mean IPC across busy cores since the previous sweep.
    pub mean_ipc: f64,
    /// DRAM power over the interval (W), all sockets.
    pub dram_w: f64,
    /// Interval covered (s).
    pub interval_s: f64,
}

/// The counter values of one sweep.
#[derive(Debug, Clone, Default)]
struct Sweep {
    /// `IA32_FIXED_CTR0` per logical core.
    instructions: Vec<u64>,
    /// `IA32_FIXED_CTR1` per logical core.
    cycles: Vec<u64>,
    /// `MSR_DRAM_ENERGY_STATUS` per socket.
    dram_counts: Vec<u64>,
    t_s: f64,
}

/// Sweeping sampler over a node.
#[derive(Debug, Clone)]
pub struct UpsSampler {
    unit: RaplPowerUnit,
    /// The last successful sweep.
    last: Sweep,
    /// The sweep in progress; after a sample, the one before `last`.
    scratch: Sweep,
}

impl UpsSampler {
    /// Create a sampler and take the baseline sweep.
    pub fn new(node: &mut Node) -> Result<Self, MsrError> {
        let raw = node.msr_read(MsrScope::Package(0), MSR_RAPL_POWER_UNIT)?;
        let mut sampler = Self {
            unit: RaplPowerUnit::decode(raw),
            last: Sweep::default(),
            scratch: Sweep::default(),
        };
        sampler.sweep(node)?;
        Ok(sampler)
    }

    /// Read every counter into the scratch sweep; on success it becomes
    /// `last` and the previous `last` becomes the scratch. A failed sweep
    /// leaves `last` as it was.
    fn sweep(&mut self, node: &mut Node) -> Result<(), MsrError> {
        let cores = node.config().total_cores() as usize;
        let s = &mut self.scratch;
        s.instructions.resize(cores, 0);
        s.cycles.resize(cores, 0);
        node.msr_read_cores(IA32_FIXED_CTR0, &mut s.instructions)?;
        node.msr_read_cores(IA32_FIXED_CTR1, &mut s.cycles)?;
        s.dram_counts.clear();
        for pkg in 0..node.config().sockets {
            s.dram_counts
                .push(node.msr_read(MsrScope::Package(pkg), MSR_DRAM_ENERGY_STATUS)?);
        }
        s.t_s = node.time_s();
        core::mem::swap(&mut self.scratch, &mut self.last);
        Ok(())
    }

    /// Perform a full sweep and return the differentiated measurement
    /// (`None` when no simulated time elapsed since the previous sweep —
    /// construction takes the baseline sweep).
    pub fn sample(&mut self, node: &mut Node) -> Result<Option<UpsSample>, MsrError> {
        self.sweep(node)?;
        let (now, before) = (&self.last, &self.scratch);
        let dt = now.t_s - before.t_s;
        if dt <= 0.0 {
            return Ok(None);
        }

        // Mean IPC over cores that retired a meaningful number of cycles.
        let mut ipc_sum = 0.0;
        let mut busy = 0u32;
        let instructions = now.instructions.iter().zip(&before.instructions);
        for ((inst, inst_before), (cyc, cyc_before)) in
            instructions.zip(now.cycles.iter().zip(&before.cycles))
        {
            let d_inst = inst.saturating_sub(*inst_before);
            let d_cyc = cyc.saturating_sub(*cyc_before);
            if d_cyc > 1000 {
                ipc_sum += d_inst as f64 / d_cyc as f64;
                busy += 1;
            }
        }
        let mean_ipc = if busy == 0 {
            0.0
        } else {
            ipc_sum / f64::from(busy)
        };

        let mut dram_j = 0.0;
        for (now, before) in now.dram_counts.iter().zip(&before.dram_counts) {
            dram_j += self
                .unit
                .counts_to_joules(energy_counter_delta(*before, *now));
        }

        Ok(Some(UpsSample {
            mean_ipc,
            dram_w: dram_j / dt,
            interval_s: dt,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magus_hetsim::{Demand, NodeConfig};
    use magus_msr::{UncoreRatioLimit, MSR_UNCORE_RATIO_LIMIT};

    /// Pin every socket's uncore (min = max) at `ghz` through `0x620`.
    fn pin_uncore(node: &mut Node, ghz: f64) {
        let raw = UncoreRatioLimit::from_ghz(ghz, ghz).encode();
        for pkg in 0..node.config().sockets {
            node.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
    }

    #[test]
    fn zero_elapsed_sample_is_none() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut s = UpsSampler::new(&mut node).unwrap();
        // No step taken: no elapsed time, no sample.
        assert!(s.sample(&mut node).unwrap().is_none());
        node.step(10_000, &Demand::idle());
        assert!(s.sample(&mut node).unwrap().is_some());
    }

    #[test]
    fn sweep_reads_every_core() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let before = node.ledger().reads();
        let _ = UpsSampler::new(&mut node).unwrap();
        let reads = node.ledger().reads() - before;
        // 1 unit reg + 80 cores x 2 counters + 2 DRAM regs.
        assert_eq!(reads, 1 + 160 + 2);
    }

    #[test]
    fn ipc_matches_model_under_steady_load() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let demand = Demand::new(10.0, 0.2, 0.5, 0.7);
        for _ in 0..20 {
            node.step(10_000, &demand);
        }
        let mut s = UpsSampler::new(&mut node).unwrap();
        for _ in 0..50 {
            node.step(10_000, &demand);
        }
        let sample = s.sample(&mut node).unwrap().unwrap();
        // Unstalled: IPC ~= base_ipc (1.7), averaged over deterministic
        // per-core skew.
        assert!((sample.mean_ipc - 1.7).abs() < 0.2, "{}", sample.mean_ipc);
        assert!(sample.dram_w > 0.0);
        assert!((sample.interval_s - 0.5).abs() < 0.02);
    }

    #[test]
    fn ipc_degrades_when_memory_starved() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let demand = Demand::new(140.0, 0.7, 0.5, 0.7);
        pin_uncore(&mut node, 2.2);
        for _ in 0..20 {
            node.step(10_000, &demand);
        }
        let mut s = UpsSampler::new(&mut node).unwrap();
        for _ in 0..50 {
            node.step(10_000, &demand);
        }
        let full = s.sample(&mut node).unwrap().unwrap();

        // Now starve the uncore and watch IPC drop.
        pin_uncore(&mut node, 0.8);
        for _ in 0..50 {
            node.step(10_000, &demand);
        }
        let _ = s.sample(&mut node).unwrap(); // interval spanning the switch
        for _ in 0..50 {
            node.step(10_000, &demand);
        }
        let starved = s.sample(&mut node).unwrap().unwrap();
        assert!(
            starved.mean_ipc < full.mean_ipc * 0.97,
            "full {} starved {}",
            full.mean_ipc,
            starved.mean_ipc
        );
    }

    #[test]
    fn dram_power_tracks_traffic() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut s = UpsSampler::new(&mut node).unwrap();
        let quiet = Demand::new(2.0, 0.1, 0.2, 0.5);
        for _ in 0..50 {
            node.step(10_000, &quiet);
        }
        let low = s.sample(&mut node).unwrap().unwrap();
        let loud = Demand::new(60.0, 0.5, 0.2, 0.5);
        for _ in 0..50 {
            node.step(10_000, &loud);
        }
        let high = s.sample(&mut node).unwrap().unwrap();
        assert!(high.dram_w > low.dram_w + 3.0);
    }
}
