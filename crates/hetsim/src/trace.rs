//! Time-series recording of node state, used by the figure regenerators.

use serde::{Deserialize, Serialize};

use crate::node::Node;

/// One recorded sample of node state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Sample time (s).
    pub t_s: f64,
    /// Cumulative application progress at this sample (seconds of work
    /// content completed). Traces from differently-governed runs align on
    /// this axis: equal progress ⇒ the same point in the application.
    pub progress_s: f64,
    /// Delivered system memory throughput (GB/s), noise-free ground truth.
    pub mem_gbs: f64,
    /// Demanded system memory throughput (GB/s).
    pub demand_gbs: f64,
    /// Socket-0 uncore frequency (GHz).
    pub uncore_ghz: f64,
    /// Socket-0 mean core frequency (GHz).
    pub core_freq_ghz: f64,
    /// GPU-0 SM clock (MHz); 0 when the node has no GPU.
    pub gpu_clock_mhz: f64,
    /// CPU package power (W), both sockets.
    pub pkg_w: f64,
    /// DRAM power (W), both sockets.
    pub dram_w: f64,
    /// GPU board power (W), all devices.
    pub gpu_w: f64,
    /// Monitoring-overhead power (W).
    pub overhead_w: f64,
}

/// Records [`TraceSample`]s at a fixed interval.
#[derive(Debug, Clone, Serialize)]
pub struct TraceRecorder {
    interval_us: u64,
    next_due_us: u64,
    samples: Vec<TraceSample>,
}

impl TraceRecorder {
    /// Recorder sampling every `interval_us` microseconds. An interval of 0
    /// disables recording.
    #[must_use]
    pub fn new(interval_us: u64) -> Self {
        Self {
            interval_us,
            next_due_us: 0,
            samples: Vec::new(),
        }
    }

    /// A disabled recorder.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// True when recording is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.interval_us > 0
    }

    /// Time (µs) from which the next observation records a sample;
    /// `u64::MAX` when recording is disabled.
    pub(crate) fn next_sample_us(&self) -> u64 {
        if self.enabled() {
            self.next_due_us
        } else {
            u64::MAX
        }
    }

    /// Observe the node after a tick; records a sample when due.
    pub fn observe(&mut self, node: &Node, demand_gbs: f64, progress_s: f64) {
        if self.interval_us == 0 || node.time_us() < self.next_due_us {
            return;
        }
        self.next_due_us = node.time_us() + self.interval_us;
        let socket0 = &node.sockets()[0];
        let power = node.last_power();
        self.samples.push(TraceSample {
            t_s: node.time_s(),
            progress_s,
            mem_gbs: node.delivered_gbs(),
            demand_gbs,
            uncore_ghz: socket0.uncore.freq_ghz(),
            core_freq_ghz: socket0.cpu.freq_ghz(),
            gpu_clock_mhz: node.gpus().first().map_or(0.0, |g| g.sm_clock_mhz()),
            pkg_w: power.pkg_w(),
            dram_w: power.dram_w,
            gpu_w: power.gpu_w,
            overhead_w: power.overhead_w,
        });
    }

    /// Recorded samples.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Take ownership of the samples, leaving the recorder empty.
    pub fn take_samples(&mut self) -> Vec<TraceSample> {
        core::mem::take(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::demand::Demand;

    #[test]
    fn records_at_interval() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut rec = TraceRecorder::new(100_000); // 0.1 s
        let demand = Demand::new(10.0, 0.3, 0.2, 0.5);
        for _ in 0..100 {
            node.step(10_000, &demand); // 1 s total
            rec.observe(&node, demand.mem_gbs, 0.0);
        }
        // 1 s of run at 0.1 s interval -> ~10 samples.
        assert!(
            (9..=11).contains(&rec.samples().len()),
            "{}",
            rec.samples().len()
        );
        assert!(rec.samples().windows(2).all(|w| w[1].t_s > w[0].t_s));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut rec = TraceRecorder::disabled();
        for _ in 0..10 {
            node.step(10_000, &Demand::idle());
            rec.observe(&node, 0.0, 0.0);
        }
        assert!(rec.samples().is_empty());
        assert!(!rec.enabled());
    }

    #[test]
    fn take_samples_empties() {
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut rec = TraceRecorder::new(10_000);
        node.step(10_000, &Demand::idle());
        rec.observe(&node, 0.0, 0.0);
        let taken = rec.take_samples();
        assert_eq!(taken.len(), 1);
        assert!(rec.samples().is_empty());
    }
}
