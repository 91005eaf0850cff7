//! UPS configuration.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the UPS baseline.
///
/// Values follow the UPScavenger paper's described operation and the MAGUS
/// paper's timing observations (0.3 s invocation + 0.2 s rest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpsConfig {
    /// Uncore ratio step per scavenging move (GHz); one 100 MHz ratio
    /// step, as in the original UPScavenger.
    pub step_ghz: f64,
    /// Relative DRAM-power change that signals a phase transition.
    pub dram_delta_frac: f64,
    /// Absolute DRAM-power floor for phase detection (W) so near-idle noise
    /// does not register as phases.
    pub dram_delta_floor_w: f64,
    /// Tolerated relative IPC degradation before backing off.
    pub ipc_tolerance: f64,
    /// Decision cycles to hold after a back-off before scavenging again.
    pub hold_cycles: u32,
    /// Rest interval between invocations (µs); 0.2 s per the MAGUS paper's
    /// measurement, giving a 0.5 s decision period with the 0.3 s sweep.
    pub rest_interval_us: u64,
}

impl Default for UpsConfig {
    fn default() -> Self {
        Self {
            step_ghz: 0.1,
            dram_delta_frac: 0.08,
            dram_delta_floor_w: 2.5,
            ipc_tolerance: 0.08,
            hold_cycles: 1,
            rest_interval_us: 200_000,
        }
    }
}

impl UpsConfig {
    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.step_ghz <= 0.0 {
            return Err("step_ghz must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.dram_delta_frac) {
            return Err("dram_delta_frac must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.ipc_tolerance) {
            return Err("ipc_tolerance must be in [0, 1]".into());
        }
        if self.rest_interval_us == 0 {
            return Err("rest_interval_us must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(UpsConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = [
            UpsConfig {
                step_ghz: 0.0,
                ..UpsConfig::default()
            },
            UpsConfig {
                dram_delta_frac: 2.0,
                ..UpsConfig::default()
            },
            UpsConfig {
                ipc_tolerance: -0.1,
                ..UpsConfig::default()
            },
            UpsConfig {
                rest_interval_us: 0,
                ..UpsConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }
}
