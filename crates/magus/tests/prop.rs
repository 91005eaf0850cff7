//! Property tests on the MAGUS decision algorithms: each property runs
//! `CASES` seeded cases, and every failure names the case seed that
//! produced it.

use magus_runtime::{
    predict_trend, HighFreqDetector, MagusAction, MagusConfig, MagusCore, SampleWindow, Trend,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 256;

/// Between `min` and `max` throughput samples (MB/s).
fn arb_samples(rng: &mut SmallRng, min: usize, max: usize) -> Vec<f64> {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| rng.gen_range(0.0..100_000.0)).collect()
}

fn window_of(vals: &[f64]) -> SampleWindow {
    let mut w = SampleWindow::new(vals.len());
    for &v in vals {
        w.push(v);
    }
    w
}

/// The trend is fully determined by the derivative's relation to the
/// thresholds — never anything else.
#[test]
fn trend_consistent_with_derivative() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let vals = arb_samples(&mut rng, 2, 11);
        let inc = rng.gen_range(1.0..2_000.0);
        let dec = rng.gen_range(1.0..2_000.0);
        let w = window_of(&vals);
        let d = w.derivative();
        let ok = match predict_trend(&w, inc, dec) {
            Trend::Increase => d > inc,
            Trend::Decrease => d < -dec,
            Trend::Stable => d <= inc && d >= -dec,
        };
        assert!(ok, "case {case}: derivative {d}, thresholds +{inc}/-{dec}");
    }
}

/// Raising `inc_threshold` can only move decisions away from Increase
/// (threshold monotonicity).
#[test]
fn inc_threshold_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let vals = arb_samples(&mut rng, 2, 11);
        let lo = rng.gen_range(1.0..1_000.0);
        let extra = rng.gen_range(0.0..1_000.0);
        let w = window_of(&vals);
        let loose = predict_trend(&w, lo, 500.0);
        let strict = predict_trend(&w, lo + extra, 500.0);
        if strict == Trend::Increase {
            assert_eq!(loose, Trend::Increase, "case {case}");
        }
    }
}

/// The high-frequency detector fires iff the exact window fraction
/// reaches the threshold, for any event pattern.
#[test]
fn detector_matches_exact_fraction() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1..=63);
        let events: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        let cap = rng.gen_range(1..=19);
        let threshold = rng.gen_range(0.0..1.0);
        let mut d = HighFreqDetector::new(cap, threshold);
        let mut reference: Vec<bool> = vec![false; cap];
        for &e in &events {
            d.record(e);
            reference.push(e);
        }
        let window = &reference[reference.len() - cap..];
        let frac = window.iter().filter(|&&b| b).count() as f64 / cap as f64;
        assert!((d.rate() - frac).abs() < 1e-12, "case {case}");
        assert_eq!(d.is_high_frequency(), frac >= threshold, "case {case}");
    }
}

/// The core never emits a tuning action during warm-up, and while the
/// high-frequency state is on it never emits SetLower.
#[test]
fn core_safety_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let samples = arb_samples(&mut rng, 1, 199);
        let mut core = MagusCore::new(MagusConfig::default());
        let warmup = core.config().warmup_cycles;
        for (i, &s) in samples.iter().enumerate() {
            let action = core.on_sample(s);
            if i < warmup {
                assert_eq!(action, MagusAction::Hold, "case {case}: sample {i}");
            }
            if core.high_freq_status() {
                assert_ne!(action, MagusAction::SetLower, "case {case}: sample {i}");
            }
        }
        // Telemetry bookkeeping is consistent.
        let t = core.telemetry();
        assert_eq!(t.cycles, samples.len() as u64, "case {case}");
        assert!(t.raised + t.lowered <= t.cycles, "case {case}");
        assert_eq!(
            t.warmup_cycles as usize,
            warmup.min(samples.len()),
            "case {case}"
        );
    }
}

/// Feeding the same sample stream twice gives identical action streams
/// (the core is deterministic).
#[test]
fn core_deterministic() {
    let run = |samples: &[f64]| -> Vec<MagusAction> {
        let mut core = MagusCore::new(MagusConfig::default());
        samples.iter().map(|&s| core.on_sample(s)).collect()
    };
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let samples = arb_samples(&mut rng, 1, 99);
        assert_eq!(run(&samples), run(&samples), "case {case}");
    }
}

/// A constant signal after warm-up never produces a tune event,
/// whatever its level; the only post-warm-up action is the one-time
/// initial raise to maximum.
#[test]
fn constant_signal_is_stable() {
    let check = |case: &str, level: f64, n: usize| {
        let mut core = MagusCore::new(MagusConfig::default());
        let warmup = core.config().warmup_cycles;
        for i in 0..n {
            let action = core.on_sample(level);
            if i == warmup {
                assert_eq!(action, MagusAction::SetUpper, "case {case}: sample {i}");
            } else if i > warmup {
                assert_eq!(action, MagusAction::Hold, "case {case}: sample {i}");
            }
        }
        assert_eq!(core.telemetry().tune_events, 0, "case {case}");
    };
    // A failing case an earlier property-test harness recorded.
    check("recorded", 0.0, 11);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        check(
            &case.to_string(),
            rng.gen_range(0.0..100_000.0),
            rng.gen_range(12..=99),
        );
    }
}
