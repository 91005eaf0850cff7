//! Property tests for register encodings and the cost ledger: each
//! property runs `CASES` seeded cases, and every failure names the case
//! seed that produced it.

use magus_msr::{AccessCost, CostLedger, RaplPowerUnit, UncoreRatioLimit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 256;

/// Encode/decode of the uncore ratio limit is lossless for all 7-bit pairs.
#[test]
fn uncore_ratio_limit_round_trips() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let lim = UncoreRatioLimit {
            max_ratio: rng.gen_range(0..=127) as u8,
            min_ratio: rng.gen_range(0..=127) as u8,
        };
        assert_eq!(UncoreRatioLimit::decode(lim.encode()), lim, "case {case}");
    }
}

/// `splice_max` never disturbs bits outside the max-ratio field.
#[test]
fn splice_max_only_touches_low_bits() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let raw = rng.gen_range(0..=usize::MAX) as u64;
        let ghz = rng.gen_range(0.0..12.7);
        let spliced = UncoreRatioLimit::splice_max(raw, ghz);
        assert_eq!(spliced & !0x7f, raw & !0x7f, "case {case}");
        let expect = (ghz / 0.1).round().clamp(0.0, 127.0) as u64;
        assert_eq!(spliced & 0x7f, expect, "case {case}");
    }
}

/// GHz -> ratio -> GHz round-trips to within one 100 MHz step.
#[test]
fn ghz_quantisation_error_bounded() {
    for case in 0..CASES {
        let ghz = SmallRng::seed_from_u64(case).gen_range(0.0..12.0);
        let lim = UncoreRatioLimit::from_ghz(ghz, ghz);
        assert!(
            (lim.max_ghz() - ghz).abs() <= 0.05 + 1e-12,
            "case {case}: {ghz} GHz"
        );
    }
}

/// RAPL unit encoding round-trips for all field values.
#[test]
fn rapl_unit_round_trips() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let unit = RaplPowerUnit {
            power_exp: rng.gen_range(0..=15) as u8,
            energy_exp: rng.gen_range(0..=31) as u8,
            time_exp: rng.gen_range(0..=15) as u8,
        };
        assert_eq!(RaplPowerUnit::decode(unit.encode()), unit, "case {case}");
    }
}

/// Joules -> counts -> joules error is bounded by one energy unit.
#[test]
fn energy_conversion_error_bounded() {
    for case in 0..CASES {
        let joules = SmallRng::seed_from_u64(case).gen_range(0.0..1000.0);
        let unit = RaplPowerUnit::default();
        let back = unit.counts_to_joules(unit.joules_to_counts(joules));
        assert!(
            (back - joules).abs() <= unit.energy_unit_joules(),
            "case {case}: {joules} J came back as {back} J"
        );
    }
}

/// Wrapping energy deltas are consistent with 32-bit modular arithmetic.
#[test]
fn energy_delta_modular() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let before = rng.gen_range(0..=0xffff_ffff) as u64;
        let advance = rng.gen_range(0..=0xffff_ffff) as u64;
        let after = (before + advance) & 0xffff_ffff;
        assert_eq!(
            magus_msr::regs::energy_counter_delta(before, after),
            advance,
            "case {case}"
        );
    }
}

/// The ledger's pending cost equals reads*read_cost + writes*write_cost,
/// at the node's package-read and write costs.
#[test]
fn ledger_cost_is_linear_in_accesses() {
    let read = AccessCost::new(250.0, 260.0);
    let write = AccessCost::new(60.0, 60.0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let reads = rng.gen_range(0..=49) as u64;
        let writes = rng.gen_range(0..=49) as u64;
        let mut ledger = CostLedger::new();
        for _ in 0..reads {
            ledger.record_read(read);
        }
        for _ in 0..writes {
            ledger.record_write(write);
        }
        let expect = read.times(reads) + write.times(writes);
        let got = ledger.pending();
        assert!(
            (got.latency_us - expect.latency_us).abs() < 1e-6,
            "case {case}"
        );
        assert!(
            (got.energy_uj - expect.energy_uj).abs() < 1e-6,
            "case {case}"
        );
        assert_eq!(
            (ledger.reads(), ledger.writes()),
            (reads, writes),
            "case {case}"
        );
    }
}
