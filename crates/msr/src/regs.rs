//! Register addresses and typed field encodings.
//!
//! Only the registers actually exercised by MAGUS, UPS, and the RAPL power
//! monitors are modelled. Field layouts follow the Intel SDM (vol. 4) for
//! Xeon Scalable parts; the uncore ratio-limit layout is the one the paper's
//! own `wrmsr` example uses.

use serde::Serialize;

/// `UNCORE_RATIO_LIMIT`: per-package uncore frequency floor/ceiling.
///
/// Bits `[6:0]` hold the **maximum** ratio, bits `[14:8]` the **minimum**
/// ratio, both in units of 100 MHz (the SDM layout). For example
/// `0x080F` encodes min = 0.8 GHz, max = 1.5 GHz. MAGUS only rewrites the
/// maximum-ratio bits and leaves the minimum bits untouched (paper §4).
pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;

/// `MSR_RAPL_POWER_UNIT`: scaling factors for RAPL energy/power/time fields.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;

/// `MSR_PKG_ENERGY_STATUS`: package-domain cumulative energy (wraps at 32 bits).
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;

/// `MSR_DRAM_ENERGY_STATUS`: DRAM-domain cumulative energy (wraps at 32 bits).
pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;

/// `MSR_PKG_POWER_LIMIT`: RAPL package power-limit control (PL1 window).
pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;

/// `IA32_FIXED_CTR0`: instructions retired (per logical core).
pub const IA32_FIXED_CTR0: u32 = 0x309;

/// `IA32_FIXED_CTR1`: unhalted core clock cycles (per logical core).
pub const IA32_FIXED_CTR1: u32 = 0x30A;

/// `IA32_FIXED_CTR2`: unhalted reference clock cycles (per logical core).
pub const IA32_FIXED_CTR2: u32 = 0x30B;

/// Uncore ratios are expressed in steps of 100 MHz.
pub const UNCORE_RATIO_STEP_GHZ: f64 = 0.1;

/// Typed view of `UNCORE_RATIO_LIMIT` (`0x620`).
///
/// Round-trips through [`UncoreRatioLimit::encode`] / [`UncoreRatioLimit::decode`]
/// losslessly for all 7-bit ratio pairs (property-tested).
///
/// ```
/// use magus_msr::UncoreRatioLimit;
///
/// let lim = UncoreRatioLimit::from_ghz(0.8, 2.2);
/// assert_eq!(lim.encode(), 0x0816);
/// // MAGUS's actuation: rewrite only the max bits, as in the paper's
/// // `wrmsr -p 0 0x620 ...` example.
/// let spliced = UncoreRatioLimit::splice_max(lim.encode(), 1.5);
/// let decoded = UncoreRatioLimit::decode(spliced);
/// assert_eq!(decoded.max_ghz(), 1.5);
/// assert_eq!(decoded.min_ghz(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct UncoreRatioLimit {
    /// Maximum uncore ratio, bits `[6:0]`, in 100 MHz units.
    pub max_ratio: u8,
    /// Minimum uncore ratio, bits `[14:8]`, in 100 MHz units.
    pub min_ratio: u8,
}

impl UncoreRatioLimit {
    const RATIO_MASK: u64 = 0x7f;
    const MIN_SHIFT: u64 = 8;

    /// Build a limit from frequencies in GHz, rounding to the nearest
    /// 100 MHz step and clamping to the 7-bit field range.
    #[must_use]
    pub fn from_ghz(min_ghz: f64, max_ghz: f64) -> Self {
        Self {
            max_ratio: ghz_to_ratio(max_ghz),
            min_ratio: ghz_to_ratio(min_ghz),
        }
    }

    /// Maximum frequency in GHz.
    #[must_use]
    pub fn max_ghz(&self) -> f64 {
        f64::from(self.max_ratio) * UNCORE_RATIO_STEP_GHZ
    }

    /// Minimum frequency in GHz.
    #[must_use]
    pub fn min_ghz(&self) -> f64 {
        f64::from(self.min_ratio) * UNCORE_RATIO_STEP_GHZ
    }

    /// Encode into the raw 64-bit register value. Reserved bits are zero.
    #[must_use]
    pub fn encode(&self) -> u64 {
        (u64::from(self.max_ratio) & Self::RATIO_MASK)
            | ((u64::from(self.min_ratio) & Self::RATIO_MASK) << Self::MIN_SHIFT)
    }

    /// Decode from a raw register value, ignoring reserved bits.
    #[must_use]
    pub fn decode(raw: u64) -> Self {
        Self {
            max_ratio: (raw & Self::RATIO_MASK) as u8,
            min_ratio: ((raw >> Self::MIN_SHIFT) & Self::RATIO_MASK) as u8,
        }
    }

    /// Replace only the maximum-ratio bits of `raw`, preserving the minimum
    /// bits — this mirrors how MAGUS writes `0x620` ("modifies the maximum
    /// frequency bits ... while leaving the minimum frequency bits
    /// unchanged", paper §4).
    #[must_use]
    pub fn splice_max(raw: u64, max_ghz: f64) -> u64 {
        let ratio = u64::from(ghz_to_ratio(max_ghz)) & Self::RATIO_MASK;
        (raw & !Self::RATIO_MASK) | ratio
    }
}

/// Convert a GHz frequency to a 7-bit 100 MHz ratio (rounded, clamped).
#[must_use]
pub fn ghz_to_ratio(ghz: f64) -> u8 {
    let steps = (ghz / UNCORE_RATIO_STEP_GHZ).round();
    steps.clamp(0.0, 127.0) as u8
}

/// Typed view of `MSR_RAPL_POWER_UNIT` (`0x606`).
///
/// Each field is an exponent: the physical unit is `1 / 2^exp`. Default Intel
/// server values are power `2^-3` W, energy `2^-14` J, time `2^-10` s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RaplPowerUnit {
    /// Power unit exponent, bits `[3:0]`.
    pub power_exp: u8,
    /// Energy unit exponent, bits `[12:8]`.
    pub energy_exp: u8,
    /// Time unit exponent, bits `[19:16]`.
    pub time_exp: u8,
}

impl Default for RaplPowerUnit {
    fn default() -> Self {
        Self {
            power_exp: 3,
            energy_exp: 14,
            time_exp: 10,
        }
    }
}

impl RaplPowerUnit {
    /// Encode into the raw register value.
    #[must_use]
    pub fn encode(&self) -> u64 {
        (u64::from(self.power_exp) & 0xf)
            | ((u64::from(self.energy_exp) & 0x1f) << 8)
            | ((u64::from(self.time_exp) & 0xf) << 16)
    }

    /// Decode from a raw register value.
    #[must_use]
    pub fn decode(raw: u64) -> Self {
        Self {
            power_exp: (raw & 0xf) as u8,
            energy_exp: ((raw >> 8) & 0x1f) as u8,
            time_exp: ((raw >> 16) & 0xf) as u8,
        }
    }

    /// Joules represented by one count of an energy-status register.
    #[must_use]
    pub fn energy_unit_joules(&self) -> f64 {
        1.0 / f64::from(1u32 << self.energy_exp)
    }

    /// Convert a raw 32-bit energy-status count to joules.
    #[must_use]
    pub fn counts_to_joules(&self, counts: u64) -> f64 {
        (counts & 0xffff_ffff) as f64 * self.energy_unit_joules()
    }

    /// Convert joules to a wrapped 32-bit energy-status count.
    #[must_use]
    pub fn joules_to_counts(&self, joules: f64) -> u64 {
        let counts = (joules / self.energy_unit_joules()).round();
        (counts as u64) & 0xffff_ffff
    }
}

/// Typed view of `MSR_PKG_POWER_LIMIT`'s PL1 half (`0x610`, bits 23:0).
///
/// Bits `[14:0]` hold the power limit in RAPL power units (default
/// 1/8 W), bit `15` is the enable flag. The PL1 time window and the PL2
/// half are not modelled — the capping studies only exercise sustained
/// limits.
///
/// ```
/// use magus_msr::regs::PkgPowerLimit;
///
/// let cap = PkgPowerLimit::enabled_watts(200.0);
/// let decoded = PkgPowerLimit::decode(cap.encode(), 3);
/// assert!(decoded.enabled);
/// assert_eq!(decoded.limit_w, 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PkgPowerLimit {
    /// Sustained power limit (W).
    pub limit_w: f64,
    /// Whether the limit is enforced.
    pub enabled: bool,
}

impl PkgPowerLimit {
    const POWER_MASK: u64 = 0x7fff;
    const ENABLE_BIT: u64 = 1 << 15;

    /// An enabled limit at `limit_w` watts.
    #[must_use]
    pub fn enabled_watts(limit_w: f64) -> Self {
        Self {
            limit_w,
            enabled: true,
        }
    }

    /// A disabled limit (hardware default: field zeroed).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            limit_w: 0.0,
            enabled: false,
        }
    }

    /// Encode using the default power unit (2^-3 W).
    #[must_use]
    pub fn encode(&self) -> u64 {
        self.encode_with_unit(RaplPowerUnit::default().power_exp)
    }

    /// Encode using an explicit power-unit exponent.
    #[must_use]
    pub fn encode_with_unit(&self, power_exp: u8) -> u64 {
        let unit = f64::from(1u32 << power_exp);
        let counts = (self.limit_w * unit)
            .round()
            .clamp(0.0, Self::POWER_MASK as f64) as u64;
        counts | if self.enabled { Self::ENABLE_BIT } else { 0 }
    }

    /// Decode with the given power-unit exponent.
    #[must_use]
    pub fn decode(raw: u64, power_exp: u8) -> Self {
        let unit = f64::from(1u32 << power_exp);
        Self {
            limit_w: (raw & Self::POWER_MASK) as f64 / unit,
            enabled: raw & Self::ENABLE_BIT != 0,
        }
    }
}

/// Difference between two wrapping 32-bit energy-status samples, in counts.
///
/// RAPL energy counters wrap roughly hourly at server power levels; all
/// consumers must subtract modulo 2^32.
#[must_use]
pub fn energy_counter_delta(before: u64, after: u64) -> u64 {
    (after.wrapping_sub(before)) & 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncore_ratio_round_trip() {
        let lim = UncoreRatioLimit {
            max_ratio: 22,
            min_ratio: 8,
        };
        assert_eq!(UncoreRatioLimit::decode(lim.encode()), lim);
        assert!((lim.max_ghz() - 2.2).abs() < 1e-12);
        assert!((lim.min_ghz() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn uncore_ratio_from_ghz_rounds() {
        let lim = UncoreRatioLimit::from_ghz(0.84, 2.16);
        assert_eq!(lim.min_ratio, 8);
        assert_eq!(lim.max_ratio, 22);
    }

    #[test]
    fn uncore_ratio_clamps_out_of_range() {
        let lim = UncoreRatioLimit::from_ghz(-1.0, 99.0);
        assert_eq!(lim.min_ratio, 0);
        assert_eq!(lim.max_ratio, 127);
    }

    #[test]
    fn splice_max_preserves_min_bits() {
        let raw = UncoreRatioLimit {
            max_ratio: 22,
            min_ratio: 8,
        }
        .encode();
        let spliced = UncoreRatioLimit::splice_max(raw, 1.5);
        let decoded = UncoreRatioLimit::decode(spliced);
        assert_eq!(decoded.max_ratio, 15);
        assert_eq!(decoded.min_ratio, 8);
    }

    #[test]
    fn splice_max_preserves_unrelated_bits() {
        let raw = 0xdead_0000_0000_0812u64; // high garbage + min=8, max=0x12
        let spliced = UncoreRatioLimit::splice_max(raw, 2.2);
        assert_eq!(spliced & !0x7f, raw & !0x7f);
        assert_eq!(UncoreRatioLimit::decode(spliced).max_ratio, 22);
    }

    #[test]
    fn power_limit_round_trips() {
        for watts in [50.0, 200.0, 270.0, 1000.0] {
            let lim = PkgPowerLimit::enabled_watts(watts);
            let back = PkgPowerLimit::decode(lim.encode(), 3);
            assert!(back.enabled);
            assert!((back.limit_w - watts).abs() < 0.125, "{watts}");
        }
        let off = PkgPowerLimit::disabled();
        assert!(!PkgPowerLimit::decode(off.encode(), 3).enabled);
    }

    #[test]
    fn power_limit_field_saturates() {
        // 15-bit field at 1/8 W units tops out at 4095.875 W.
        let lim = PkgPowerLimit::enabled_watts(1e9);
        let back = PkgPowerLimit::decode(lim.encode(), 3);
        assert!((back.limit_w - 4095.875).abs() < 1e-9);
    }

    #[test]
    fn rapl_unit_defaults() {
        let unit = RaplPowerUnit::default();
        assert!((unit.energy_unit_joules() - 1.0 / 16384.0).abs() < 1e-15);
        assert_eq!(RaplPowerUnit::decode(unit.encode()), unit);
    }

    #[test]
    fn rapl_joules_round_trip() {
        let unit = RaplPowerUnit::default();
        let counts = unit.joules_to_counts(123.456);
        let back = unit.counts_to_joules(counts);
        assert!((back - 123.456).abs() < 1e-3);
    }

    #[test]
    fn energy_delta_handles_wrap() {
        let before = 0xffff_fff0u64;
        let after = 0x10u64;
        assert_eq!(energy_counter_delta(before, after), 0x20);
    }

    #[test]
    fn energy_delta_zero_when_equal() {
        assert_eq!(energy_counter_delta(42, 42), 0);
    }

    #[test]
    fn ghz_to_ratio_midpoint_rounds_up() {
        assert_eq!(ghz_to_ratio(1.25), 13); // 12.5 steps rounds to 13 (round-half-away)
    }
}
