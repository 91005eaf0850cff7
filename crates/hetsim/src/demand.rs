//! Instantaneous resource demand presented to the node by a workload phase.

use serde::{Deserialize, Serialize, Value, Writer};

/// Maximum GPUs a single [`Demand`] can address.
///
/// Sized for the paper's testbeds (at most four A100s) with headroom; the
/// inline array keeps `Demand` `Copy` so the simulator's hot loop never
/// touches the heap.
pub const MAX_GPUS: usize = 8;

/// Per-GPU utilisation values stored inline (no heap allocation).
///
/// Behaves like a `&[f64]` via `Deref`; serialises as a plain JSON array so
/// existing workload specs (`"gpu_util": [0.9]`) are unchanged.
#[derive(Debug, Clone, Copy)]
pub struct GpuUtilVec {
    len: u8,
    vals: [f64; MAX_GPUS],
}

impl GpuUtilVec {
    /// An empty vector (all GPUs idle).
    #[must_use]
    pub const fn empty() -> Self {
        Self {
            len: 0,
            vals: [0.0; MAX_GPUS],
        }
    }

    /// A single-GPU utilisation.
    #[must_use]
    pub fn single(util: f64) -> Self {
        let mut v = Self::empty();
        v.push(util);
        v
    }

    /// Build from a slice.
    ///
    /// # Panics
    /// Panics when the slice holds more than [`MAX_GPUS`] entries.
    #[must_use]
    pub fn from_slice(vals: &[f64]) -> Self {
        assert!(
            vals.len() <= MAX_GPUS,
            "at most {MAX_GPUS} GPU utilisation entries supported, got {}",
            vals.len()
        );
        let mut v = Self::empty();
        for &u in vals {
            v.push(u);
        }
        v
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics when the vector is already full ([`MAX_GPUS`] entries).
    pub fn push(&mut self, util: f64) {
        assert!((self.len as usize) < MAX_GPUS, "GpuUtilVec full");
        self.vals[self.len as usize] = util;
        self.len += 1;
    }

    /// Entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.len as usize]
    }

    /// The entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.vals[..self.len as usize]
    }
}

impl Default for GpuUtilVec {
    fn default() -> Self {
        Self::empty()
    }
}

impl core::ops::Deref for GpuUtilVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl core::ops::DerefMut for GpuUtilVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl<'a> IntoIterator for &'a GpuUtilVec {
    type Item = &'a f64;
    type IntoIter = core::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl From<&[f64]> for GpuUtilVec {
    fn from(vals: &[f64]) -> Self {
        Self::from_slice(vals)
    }
}

impl FromIterator<f64> for GpuUtilVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut v = Self::empty();
        for u in iter {
            v.push(u);
        }
        v
    }
}

impl PartialEq for GpuUtilVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f64]> for GpuUtilVec {
    fn eq(&self, other: &[f64]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<f64>> for GpuUtilVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[f64; N]> for GpuUtilVec {
    fn eq(&self, other: &[f64; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Serialize for GpuUtilVec {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        self.as_slice().serialize(w);
    }
}

impl Deserialize for GpuUtilVec {
    fn deserialize(v: Value) -> Result<Self, serde::Error> {
        let vals = Vec::<f64>::deserialize(v)?;
        if vals.len() > MAX_GPUS {
            return Err(serde::Error::custom(format!(
                "gpu_util holds {} entries; at most {MAX_GPUS} supported",
                vals.len()
            )));
        }
        Ok(Self::from_slice(&vals))
    }
}

/// What a workload asks of the node at an instant.
///
/// `Demand` is the interface between the [`workload`](crate::workload) layer
/// and the node: phases declare how much host-memory traffic they generate,
/// how memory-bound their progress is, and how busy the CPU cores and GPUs
/// are. MAGUS itself never sees a `Demand` — it only observes the *delivered*
/// memory throughput through the PCM counters, exactly as on real hardware.
///
/// The type is `Copy` (GPU utilisations live in an inline array), so passing
/// one per simulation tick costs nothing on the heap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Demanded system memory throughput (GB/s) at full progress rate.
    pub mem_gbs: f64,
    /// Fraction of the phase's critical path stalled on memory traffic when
    /// bandwidth is capped below demand (0 = pure compute, 1 = pure copy).
    pub mem_frac: f64,
    /// Fraction of the critical path executed on host cores and therefore
    /// sensitive to core-frequency *throttling* (RAPL power capping).
    /// Uncapped DVFS is the reference: this term is exactly neutral unless
    /// a power limit forces the cores below their natural frequency.
    pub cpu_frac: f64,
    /// Average CPU core utilisation (0..1) across the node.
    pub cpu_util: f64,
    /// Per-GPU utilisation (0..1). Shorter vectors leave trailing GPUs idle.
    pub gpu_util: GpuUtilVec,
}

impl Demand {
    /// A fully idle node.
    #[must_use]
    pub fn idle() -> Self {
        Self {
            mem_gbs: 0.0,
            mem_frac: 0.0,
            cpu_frac: 0.0,
            cpu_util: 0.0,
            gpu_util: GpuUtilVec::empty(),
        }
    }

    /// Demand with a single-GPU utilisation.
    #[must_use]
    pub fn new(mem_gbs: f64, mem_frac: f64, cpu_util: f64, gpu_util: f64) -> Self {
        Self {
            mem_gbs,
            mem_frac,
            cpu_frac: 0.0,
            cpu_util,
            gpu_util: GpuUtilVec::single(gpu_util),
        }
    }

    /// Builder: set the throttle-sensitive host fraction (clamped so
    /// `mem_frac + cpu_frac <= 1`).
    #[must_use]
    pub fn with_cpu_frac(mut self, cpu_frac: f64) -> Self {
        self.cpu_frac = cpu_frac.clamp(0.0, 1.0 - self.mem_frac.clamp(0.0, 1.0));
        self
    }

    /// Utilisation of GPU `idx` (0 when the vector is shorter).
    #[must_use]
    pub fn gpu_util(&self, idx: usize) -> f64 {
        self.gpu_util.as_slice().get(idx).copied().unwrap_or(0.0)
    }

    /// Clamp all fields into their valid ranges; returns `self` for chaining.
    #[must_use]
    pub fn clamped(mut self) -> Self {
        self.mem_gbs = self.mem_gbs.max(0.0);
        self.mem_frac = self.mem_frac.clamp(0.0, 1.0);
        self.cpu_frac = self.cpu_frac.clamp(0.0, 1.0 - self.mem_frac);
        self.cpu_util = self.cpu_util.clamp(0.0, 1.0);
        for u in self.gpu_util.as_mut_slice() {
            *u = u.clamp(0.0, 1.0);
        }
        self
    }

    /// True when the demand represents a completely idle node.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.mem_gbs == 0.0 && self.cpu_util == 0.0 && self.gpu_util.iter().all(|&u| u == 0.0)
    }
}

impl Default for Demand {
    fn default() -> Self {
        Self::idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_demand_is_idle() {
        assert!(Demand::idle().is_idle());
        assert!(!Demand::new(1.0, 0.5, 0.1, 0.9).is_idle());
    }

    #[test]
    fn gpu_util_defaults_to_zero() {
        let d = Demand::new(10.0, 0.5, 0.2, 0.8);
        assert_eq!(d.gpu_util(0), 0.8);
        assert_eq!(d.gpu_util(3), 0.0);
    }

    #[test]
    fn clamped_bounds_fields() {
        let d = Demand {
            mem_gbs: -5.0,
            mem_frac: 1.5,
            cpu_frac: 0.9,
            cpu_util: -0.2,
            gpu_util: GpuUtilVec::from_slice(&[2.0, -1.0]),
        }
        .clamped();
        assert_eq!(d.mem_gbs, 0.0);
        assert_eq!(d.mem_frac, 1.0);
        assert_eq!(d.cpu_frac, 0.0); // squeezed out by mem_frac = 1
        assert_eq!(d.cpu_util, 0.0);
        assert_eq!(d.gpu_util, vec![1.0, 0.0]);
    }

    #[test]
    fn with_cpu_frac_respects_budget() {
        let d = Demand::new(10.0, 0.6, 0.5, 0.5).with_cpu_frac(0.9);
        assert!((d.cpu_frac - 0.4).abs() < 1e-12);
        let d = Demand::new(10.0, 0.2, 0.5, 0.5).with_cpu_frac(0.3);
        assert!((d.cpu_frac - 0.3).abs() < 1e-12);
    }

    #[test]
    fn gpu_util_vec_serialises_as_plain_array() {
        let d = Demand::new(10.0, 0.5, 0.2, 0.9);
        let json = serde::to_string(&d);
        assert!(json.contains("\"gpu_util\":[0.9]"), "{json}");
        let back: Demand = serde::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn gpu_util_vec_rejects_oversized_input() {
        let json = format!("[{}]", ["0.5"; MAX_GPUS + 1].join(","));
        assert!(serde::from_str::<GpuUtilVec>(&json).is_err());
        let ok = format!("[{}]", ["0.5"; MAX_GPUS].join(","));
        let v: GpuUtilVec = serde::from_str(&ok).unwrap();
        assert_eq!(v.len(), MAX_GPUS);
    }

    #[test]
    fn gpu_util_vec_slice_semantics() {
        let mut v = GpuUtilVec::from_slice(&[0.1, 0.2, 0.3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v[1], 0.2);
        assert_eq!(v.iter().copied().sum::<f64>(), 0.1 + 0.2 + 0.3);
        v.push(0.4);
        assert_eq!(v, [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(GpuUtilVec::empty().len(), 0);
        let collected: GpuUtilVec = [0.5, 0.6].into_iter().collect();
        assert_eq!(collected, [0.5, 0.6]);
    }
}
