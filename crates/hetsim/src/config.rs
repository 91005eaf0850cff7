//! Node configuration: parameters for CPU, uncore, memory, and GPU models,
//! plus presets for the paper's three testbeds (§5) and the §6.6 AMD port's
//! node.
//!
//! Calibration note: the power-model constants are fitted to the paper's
//! published operating points rather than to vendor datasheets — e.g. the
//! Intel+A100 preset reproduces Fig 2's UNet profile (package ≈200 W at max
//! uncore, ≈120 W at min uncore, +21% runtime at min). `EXPERIMENTS.md`
//! records the residuals.

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// Per-socket CPU core-complex parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Physical cores per socket.
    pub cores: u32,
    /// Minimum core frequency (GHz).
    pub core_freq_min_ghz: f64,
    /// Base (all-core sustained) frequency (GHz).
    pub core_freq_base_ghz: f64,
    /// Maximum turbo frequency (GHz).
    pub core_freq_max_ghz: f64,
    /// Static (leakage + fabric floor, excluding uncore) power per socket (W).
    pub static_power_w: f64,
    /// Dynamic core power per socket at full utilisation and max frequency (W).
    pub dyn_power_max_w: f64,
    /// Exponent of the frequency term in dynamic core power (≈ v² f).
    pub dyn_freq_exp: f64,
    /// First-order smoothing constant for the DVFS governor per tick (0..1].
    pub dvfs_alpha: f64,
    /// Baseline instructions-per-cycle of unstalled busy cores (for the
    /// fixed-counter model that UPS reads).
    pub base_ipc: f64,
    /// How strongly host IPC couples to memory-starvation of the *workload*
    /// (0..1). On GPU-dominant applications this is weak: DMA transfers do
    /// not stall host cores — the host spins in synchronisation loops
    /// retiring instructions at full rate — which is precisely why UPS's
    /// IPC feedback, designed for CPU-only HPC codes, fails to notice
    /// uncore-induced starvation here (the paper's core motivation).
    pub ipc_stall_coupling: f64,
    /// Thermal design power per socket (W); the stock uncore governor only
    /// throttles when package power approaches this.
    pub tdp_w: f64,
}

/// Per-socket uncore-domain parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UncoreConfig {
    /// Minimum uncore frequency (GHz).
    pub freq_min_ghz: f64,
    /// Maximum uncore frequency (GHz).
    pub freq_max_ghz: f64,
    /// Uncore power per socket at the minimum frequency, idle (W).
    pub power_min_w: f64,
    /// Additional uncore power per socket at the maximum frequency (W),
    /// before the activity factor is applied.
    pub power_span_w: f64,
    /// Exponent of the normalised-frequency term in uncore power.
    pub power_exp: f64,
    /// Fraction of the dynamic term that is frequency-only (clock tree,
    /// always burned at a given frequency); the remainder scales with
    /// memory activity.
    pub dyn_static_frac: f64,
    /// Frequency slew rate (GHz per second) when moving towards the target;
    /// models the hardware's finite ramp and penalises thrashing.
    pub slew_ghz_per_s: f64,
}

/// Per-socket memory-subsystem parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Peak deliverable bandwidth per socket at maximum uncore frequency (GB/s).
    pub peak_bw_gbs: f64,
    /// Fraction of peak bandwidth still deliverable at minimum uncore
    /// frequency. Bandwidth interpolates between this floor and the peak.
    pub floor_frac: f64,
    /// Exponent of the interpolation (1.0 = linear in normalised frequency).
    pub bw_exp: f64,
    /// DRAM background power per socket (W).
    pub dram_base_w: f64,
    /// DRAM power per GB/s of delivered traffic (W per GB/s).
    pub dram_w_per_gbs: f64,
}

/// Per-device GPU parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Idle board power (W). The paper reports ≈30 W for one A100-40GB and
    /// ≈200 W total for four A100-80GB.
    pub idle_power_w: f64,
    /// Board power at full utilisation (W).
    pub max_power_w: f64,
    /// Minimum SM clock (MHz).
    pub sm_clock_min_mhz: f64,
    /// Maximum SM clock (MHz).
    pub sm_clock_max_mhz: f64,
    /// First-order smoothing constant of the SM-clock governor per tick.
    pub clock_alpha: f64,
}

/// Stock (hardware-default) uncore-governor parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TdpGovernorConfig {
    /// Enable the TDP-coupled throttle (true on all Intel presets).
    pub enabled: bool,
    /// Package-power fraction of TDP above which the uncore is throttled.
    pub trigger_frac: f64,
    /// GHz removed from the uncore target per watt above the trigger.
    pub ghz_per_watt: f64,
}

impl Default for TdpGovernorConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            trigger_frac: 0.95,
            ghz_per_watt: 0.05,
        }
    }
}

/// How a node's uncore limit takes a write. The node decides *how* a
/// governor's target lands; the governor decides *which* target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UncoreActuation {
    /// Intel's uncore ratio-limit register `0x620`, written per package.
    Msr,
    /// AMD's host system management port: one SMU mailbox round trip per
    /// socket that pins an Infinity Fabric P-state (§6.6).
    Hsmp,
}

/// Full node configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Human-readable system name (e.g. `"Intel+A100"`).
    pub name: String,
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Per-socket CPU parameters.
    pub cpu: CpuConfig,
    /// Per-socket uncore parameters.
    pub uncore: UncoreConfig,
    /// How the uncore limit is written.
    pub uncore_actuation: UncoreActuation,
    /// Per-socket memory parameters.
    pub mem: MemoryConfig,
    /// GPU devices (one entry per board).
    pub gpus: Vec<GpuConfig>,
    /// Stock uncore governor behaviour.
    pub tdp_governor: TdpGovernorConfig,
    /// Simulation tick (µs). 10 ms resolves the millisecond-scale phase
    /// alternation the paper describes while keeping runs fast.
    pub tick_us: u64,
    /// Seed for the node's deterministic sensor/jitter noise.
    pub seed: u64,
    /// Per-core MSR read energy (µJ) — the dominant term in UPS's power
    /// overhead; higher on the Sapphire Rapids tile architecture.
    pub core_msr_read_energy_uj: f64,
    /// Per-core MSR read latency (µs).
    pub core_msr_read_latency_us: f64,
    /// Memory-throughput measurement window of the PCM-style monitor (µs).
    pub pcm_window_us: u64,
    /// Daemon active power while collecting a PCM measurement (W).
    pub pcm_daemon_power_w: f64,
}

impl NodeConfig {
    /// Total logical core count across sockets.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cpu.cores
    }

    /// Peak system memory bandwidth at maximum uncore frequency (GB/s).
    #[must_use]
    pub fn peak_system_bw_gbs(&self) -> f64 {
        self.mem.peak_bw_gbs * f64::from(self.sockets)
    }

    /// The Chameleon Intel+A100 testbed: 2× Xeon Platinum 8380 (40 cores,
    /// uncore 0.8–2.2 GHz, TDP 270 W) + 1× A100-40GB.
    #[must_use]
    pub fn intel_a100() -> Self {
        Self {
            name: "Intel+A100".to_string(),
            sockets: 2,
            cpu: CpuConfig {
                cores: 40,
                core_freq_min_ghz: 0.8,
                core_freq_base_ghz: 2.3,
                core_freq_max_ghz: 3.4,
                static_power_w: 24.0,
                dyn_power_max_w: 170.0,
                dyn_freq_exp: 2.2,
                dvfs_alpha: 0.5,
                base_ipc: 1.7,
                ipc_stall_coupling: 0.14,
                tdp_w: 270.0,
            },
            uncore: UncoreConfig {
                freq_min_ghz: 0.8,
                freq_max_ghz: 2.2,
                power_min_w: 13.0,
                power_span_w: 50.0,
                power_exp: 1.35,
                dyn_static_frac: 0.8,
                slew_ghz_per_s: 28.0,
            },
            uncore_actuation: UncoreActuation::Msr,
            mem: MemoryConfig {
                peak_bw_gbs: 80.0,
                floor_frac: 0.33,
                bw_exp: 1.0,
                dram_base_w: 10.0,
                dram_w_per_gbs: 0.10,
            },
            gpus: vec![GpuConfig::a100_40gb()],
            tdp_governor: TdpGovernorConfig::default(),
            tick_us: 10_000,
            seed: 0x4d41_4755_5331, // "MAGUS1"
            core_msr_read_energy_uj: 26_000.0,
            core_msr_read_latency_us: 1_800.0,
            pcm_window_us: 100_000,
            pcm_daemon_power_w: 5.8,
        }
    }

    /// Intel+4A100: same host as [`NodeConfig::intel_a100`] but with four
    /// A100-80GB boards on PCIe (idle floor ≈200 W total).
    #[must_use]
    pub fn intel_4a100() -> Self {
        let mut cfg = Self::intel_a100();
        cfg.name = "Intel+4A100".to_string();
        cfg.gpus = vec![GpuConfig::a100_80gb(); 4];
        cfg.seed = 0x4d41_4755_5334;
        cfg
    }

    /// Intel+Max1550: 2× Xeon CPU Max 9462 (32 cores, Sapphire Rapids,
    /// uncore 0.8–2.5 GHz, HBM2e) + Data Center GPU Max 1550.
    ///
    /// Per-core MSR access is costlier across the SPR compute tiles, which
    /// is why UPS's power overhead rises to 7.9% here (Table 2).
    #[must_use]
    pub fn intel_max1550() -> Self {
        Self {
            name: "Intel+Max1550".to_string(),
            sockets: 2,
            cpu: CpuConfig {
                cores: 32,
                core_freq_min_ghz: 0.8,
                core_freq_base_ghz: 2.7,
                core_freq_max_ghz: 3.5,
                static_power_w: 28.0,
                dyn_power_max_w: 200.0,
                dyn_freq_exp: 2.2,
                dvfs_alpha: 0.5,
                base_ipc: 1.9,
                ipc_stall_coupling: 0.14,
                tdp_w: 350.0,
            },
            uncore: UncoreConfig {
                freq_min_ghz: 0.8,
                freq_max_ghz: 2.5,
                power_min_w: 15.0,
                power_span_w: 44.0,
                power_exp: 1.35,
                dyn_static_frac: 0.8,
                slew_ghz_per_s: 28.0,
            },
            uncore_actuation: UncoreActuation::Msr,
            mem: MemoryConfig {
                peak_bw_gbs: 120.0,
                floor_frac: 0.38,
                bw_exp: 1.0,
                dram_base_w: 14.0,
                dram_w_per_gbs: 0.08,
            },
            gpus: vec![GpuConfig::max_1550()],
            tdp_governor: TdpGovernorConfig::default(),
            tick_us: 10_000,
            seed: 0x4d41_4755_534d,
            core_msr_read_energy_uj: 62_000.0,
            core_msr_read_latency_us: 2_400.0,
            pcm_window_us: 100_000,
            pcm_daemon_power_w: 6.0,
        }
    }

    /// The §6.6 AMD port's node: 2× EPYC 7763 (64 cores, Infinity Fabric
    /// 0.8–1.6 GHz, TDP 280 W) + 1× Instinct MI210, fitted like the Intel
    /// presets. The fabric range is the EPYC fabric P-state table's P3 to
    /// P0 (0.8 / 1.067 / 1.333 / 1.6 GHz). The fabric/SoC domain draws a
    /// larger share of package power than Intel's uncore (the Zen "fabric
    /// floor"), which makes uncore-style scaling at least as attractive
    /// there. Its fabric is actuated over HSMP.
    #[must_use]
    pub fn amd_epyc_mi210() -> Self {
        Self {
            name: "AMD+MI210".to_string(),
            sockets: 2,
            cpu: CpuConfig {
                cores: 64,
                core_freq_min_ghz: 1.5,
                core_freq_base_ghz: 2.45,
                core_freq_max_ghz: 3.5,
                static_power_w: 30.0,
                dyn_power_max_w: 180.0,
                dyn_freq_exp: 2.2,
                dvfs_alpha: 0.5,
                base_ipc: 1.8,
                ipc_stall_coupling: 0.14,
                tdp_w: 280.0,
            },
            uncore: UncoreConfig {
                freq_min_ghz: 0.8,
                freq_max_ghz: 1.6,
                power_min_w: 18.0,
                power_span_w: 55.0,
                power_exp: 1.35,
                dyn_static_frac: 0.8,
                slew_ghz_per_s: 20.0,
            },
            uncore_actuation: UncoreActuation::Hsmp,
            mem: MemoryConfig {
                peak_bw_gbs: 100.0,
                floor_frac: 0.42,
                bw_exp: 1.0,
                dram_base_w: 12.0,
                dram_w_per_gbs: 0.09,
            },
            gpus: vec![GpuConfig {
                idle_power_w: 40.0,
                max_power_w: 300.0,
                sm_clock_min_mhz: 500.0,
                sm_clock_max_mhz: 1700.0,
                clock_alpha: 0.6,
            }],
            tdp_governor: TdpGovernorConfig::default(),
            tick_us: 10_000,
            seed: 0x414d_4431, // "AMD1"
            // Per-core MSR reads (if a UPS-style tool insisted) cost about
            // what Zen's SMN-routed accesses do.
            core_msr_read_energy_uj: 20_000.0,
            core_msr_read_latency_us: 1_500.0,
            pcm_window_us: 100_000,
            pcm_daemon_power_w: 4.0,
        }
    }
}

impl GpuConfig {
    /// NVIDIA A100-40GB (PCIe): idle ≈30 W per the paper's Fig 4c discussion.
    #[must_use]
    pub fn a100_40gb() -> Self {
        Self {
            idle_power_w: 30.0,
            max_power_w: 250.0,
            sm_clock_min_mhz: 210.0,
            sm_clock_max_mhz: 1410.0,
            clock_alpha: 0.6,
        }
    }

    /// NVIDIA A100-80GB (PCIe): idle ≈50 W (4 boards ≈ 200 W, Fig 4c).
    #[must_use]
    pub fn a100_80gb() -> Self {
        Self {
            idle_power_w: 50.0,
            max_power_w: 300.0,
            sm_clock_min_mhz: 210.0,
            sm_clock_max_mhz: 1410.0,
            clock_alpha: 0.6,
        }
    }

    /// Intel Data Center GPU Max 1550 (Ponte Vecchio, 128 GB HBM2e).
    #[must_use]
    pub fn max_1550() -> Self {
        Self {
            idle_power_w: 110.0,
            max_power_w: 600.0,
            sm_clock_min_mhz: 900.0,
            sm_clock_max_mhz: 1600.0,
            clock_alpha: 0.6,
        }
    }
}

/// A [`NodeConfig`] compared bit for bit: floats by their bits, so
/// `-0.0 ≠ 0.0` and a NaN equals itself. Nodes built from two configs
/// equal under this key step identically; the fleet builder interns its
/// nodes' configs by it.
#[derive(Debug, Clone)]
pub(crate) struct ConfigBits(pub(crate) NodeConfig);

impl PartialEq for ConfigBits {
    fn eq(&self, other: &Self) -> bool {
        self.0.bits_eq(&other.0)
    }
}

impl Eq for ConfigBits {}

impl Hash for ConfigBits {
    /// Hashes only the fields that tell the presets apart, which keeps a
    /// lookup cheap; equal configs agree on them, and `eq` compares the
    /// rest.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let NodeConfig {
            name,
            seed,
            tick_us,
            ..
        } = &self.0;
        (name, seed, tick_us).hash(state);
    }
}

/// Bit-level equality for the config types.
trait Bits {
    fn bits_eq(&self, other: &Self) -> bool;
}

impl Bits for f64 {
    fn bits_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

macro_rules! bits_by_value {
    ($($ty:ty),*) => {$(
        impl Bits for $ty {
            fn bits_eq(&self, other: &Self) -> bool {
                self == other
            }
        }
    )*};
}

bits_by_value!(bool, u32, u64, String, UncoreActuation);

impl<T: Bits> Bits for Vec<T> {
    fn bits_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bits_eq(b))
    }
}

/// Field-by-field [`Bits`] for a struct. The destructuring names every
/// field, so a field added to the struct fails to compile until it is
/// listed here too.
macro_rules! bits_by_field {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Bits for $ty {
            fn bits_eq(&self, other: &Self) -> bool {
                let Self { $($field),* } = self;
                true $(&& $field.bits_eq(&other.$field))*
            }
        }
    )*};
}

bits_by_field! {
    CpuConfig {
        cores, core_freq_min_ghz, core_freq_base_ghz, core_freq_max_ghz, static_power_w,
        dyn_power_max_w, dyn_freq_exp, dvfs_alpha, base_ipc, ipc_stall_coupling, tdp_w,
    }
    UncoreConfig {
        freq_min_ghz, freq_max_ghz, power_min_w, power_span_w, power_exp, dyn_static_frac,
        slew_ghz_per_s,
    }
    MemoryConfig { peak_bw_gbs, floor_frac, bw_exp, dram_base_w, dram_w_per_gbs }
    GpuConfig { idle_power_w, max_power_w, sm_clock_min_mhz, sm_clock_max_mhz, clock_alpha }
    TdpGovernorConfig { enabled, trigger_frac, ghz_per_watt }
    NodeConfig {
        name, sockets, cpu, uncore, uncore_actuation, mem, gpus, tdp_governor, tick_us, seed,
        core_msr_read_energy_uj, core_msr_read_latency_us, pcm_window_us, pcm_daemon_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_bits_compare_every_field_by_its_bits() {
        let a = ConfigBits(NodeConfig::intel_a100());
        assert_eq!(a, a.clone());
        let mut zero = a.clone();
        zero.0.gpus[0].clock_alpha = 0.0;
        let mut neg_zero = a.clone();
        neg_zero.0.gpus[0].clock_alpha = -0.0;
        assert_ne!(zero, neg_zero, "-0.0 and 0.0 differ by their bits");
        let mut nan = a.clone();
        nan.0.tdp_governor.trigger_frac = f64::NAN;
        assert_eq!(nan, nan.clone(), "a NaN equals its own bits");
        let mut seeded = a.clone();
        seeded.0.seed += 1;
        assert_ne!(a, seeded);
        let mut hsmp = a.clone();
        hsmp.0.uncore_actuation = UncoreActuation::Hsmp;
        assert_ne!(a, hsmp, "the actuation is part of the key");
        assert_ne!(a, ConfigBits(NodeConfig::intel_4a100()));
    }

    #[test]
    fn presets_are_consistent() {
        for cfg in [
            NodeConfig::intel_a100(),
            NodeConfig::intel_4a100(),
            NodeConfig::intel_max1550(),
            NodeConfig::amd_epyc_mi210(),
        ] {
            assert!(cfg.sockets >= 1);
            assert!(cfg.uncore.freq_min_ghz < cfg.uncore.freq_max_ghz);
            assert!(cfg.cpu.core_freq_min_ghz < cfg.cpu.core_freq_max_ghz);
            assert!(cfg.mem.floor_frac > 0.0 && cfg.mem.floor_frac < 1.0);
            assert!(!cfg.gpus.is_empty());
            assert!(cfg.tick_us > 0);
        }
    }

    #[test]
    fn a100_matches_paper_uncore_range() {
        let cfg = NodeConfig::intel_a100();
        assert_eq!(cfg.uncore.freq_min_ghz, 0.8);
        assert_eq!(cfg.uncore.freq_max_ghz, 2.2);
        assert_eq!(cfg.total_cores(), 80);
    }

    #[test]
    fn max1550_matches_paper_uncore_range() {
        let cfg = NodeConfig::intel_max1550();
        assert_eq!(cfg.uncore.freq_min_ghz, 0.8);
        assert_eq!(cfg.uncore.freq_max_ghz, 2.5);
    }

    #[test]
    fn amd_preset_is_well_formed() {
        let cfg = NodeConfig::amd_epyc_mi210();
        assert_eq!(cfg.sockets, 2);
        assert_eq!(cfg.total_cores(), 128);
        assert_eq!(cfg.gpus.len(), 1);
    }

    #[test]
    fn amd_fabric_range_spans_the_epyc_pstates() {
        // P3 (deepest) to P0 of the EPYC fabric P-state table.
        let cfg = NodeConfig::amd_epyc_mi210();
        assert_eq!(cfg.uncore.freq_min_ghz, 0.8);
        assert_eq!(cfg.uncore.freq_max_ghz, 1.6);
    }

    #[test]
    fn multi_gpu_idle_floor_near_200w() {
        let cfg = NodeConfig::intel_4a100();
        let idle: f64 = cfg.gpus.iter().map(|g| g.idle_power_w).sum();
        assert!((idle - 200.0).abs() < 1.0);
    }

    #[test]
    fn presets_have_distinct_names_and_seeds() {
        let a = NodeConfig::intel_a100();
        let b = NodeConfig::intel_4a100();
        let c = NodeConfig::intel_max1550();
        assert_ne!(a.name, b.name);
        assert_ne!(b.name, c.name);
        assert_ne!(a.seed, b.seed);
        assert_ne!(b.seed, c.seed);
    }
}
