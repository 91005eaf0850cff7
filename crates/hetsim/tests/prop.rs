//! Property tests on simulator invariants: each property runs `CASES`
//! seeded cases, and every failure names the case seed that produced it.

use magus_hetsim::mem::progress_factor;
use magus_hetsim::{Demand, Node, NodeConfig};
use magus_msr::{MsrScope, UncoreRatioLimit, MSR_UNCORE_RATIO_LIMIT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 64;

fn arb_demand(rng: &mut SmallRng) -> Demand {
    Demand::new(
        rng.gen_range(0.0..200.0),
        rng.gen_range(0.0..1.0),
        rng.gen_range(0.0..1.0),
        rng.gen_range(0.0..1.0),
    )
}

/// Between `min` and `max` demands.
fn arb_demands(rng: &mut SmallRng, min: usize, max: usize) -> Vec<Demand> {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| arb_demand(rng)).collect()
}

/// Progress factor is always within [0, 1], and strictly positive
/// whenever any bandwidth is delivered.
#[test]
fn progress_factor_bounded() {
    let check = |case: &str, frac: f64, demand: f64, delivered: f64| {
        let f = progress_factor(frac, demand, delivered);
        assert!((0.0..=1.0).contains(&f), "case {case}: factor {f}");
        if delivered > 0.0 {
            assert!(
                f > 0.0,
                "case {case}: factor {f} with {delivered} delivered"
            );
        }
    };
    // A failing case an earlier property-test harness recorded.
    check(
        "recorded",
        0.32694386828817473,
        318.9545344347061,
        99.94686741028107,
    );
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        check(
            &case.to_string(),
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..500.0),
            rng.gen_range(0.0..500.0),
        );
    }
}

/// Progress factor is monotone non-decreasing in delivered bandwidth.
#[test]
fn progress_factor_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let frac = rng.gen_range(0.0..1.0);
        let demand = rng.gen_range(1.0..500.0);
        let (d1, d2) = (rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(
            progress_factor(frac, demand, lo) <= progress_factor(frac, demand, hi) + 1e-12,
            "case {case}"
        );
    }
}

/// Energy totals never decrease and power stays non-negative under any
/// demand sequence.
#[test]
fn energy_monotone_power_nonnegative() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let demands = arb_demands(&mut rng, 1, 39);
        let mut node = Node::new(NodeConfig::intel_a100());
        let mut prev_energy = 0.0;
        for d in &demands {
            let out = node.step(10_000, d);
            assert!(out.power.total_w() >= 0.0, "case {case}");
            assert!(out.power.pkg_w() > 0.0, "case {case}");
            let e = node.energy().total_j();
            assert!(
                e >= prev_energy,
                "case {case}: energy fell {prev_energy} -> {e}"
            );
            prev_energy = e;
        }
    }
}

/// Delivered bandwidth never exceeds demand nor the configured system peak.
#[test]
fn delivery_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let demands = arb_demands(&mut rng, 1, 39);
        let cfg = NodeConfig::intel_a100();
        let peak = cfg.peak_system_bw_gbs();
        let mut node = Node::new(cfg);
        for d in &demands {
            let out = node.step(10_000, d);
            assert!(out.delivered_gbs <= d.mem_gbs + 1e-9, "case {case}");
            assert!(out.delivered_gbs <= peak + 1e-9, "case {case}");
        }
    }
}

/// Whatever limits are written to 0x620, the physical uncore clock stays
/// inside the hardware range and eventually converges to the target.
#[test]
fn uncore_respects_written_limits() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let max_ratio = rng.gen_range(0..=39) as u8;
        let steps = rng.gen_range(50..=299);
        let mut node = Node::new(NodeConfig::intel_a100());
        let raw = UncoreRatioLimit {
            max_ratio,
            min_ratio: 0,
        }
        .encode();
        for pkg in 0..2 {
            node.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
        let d = Demand::new(10.0, 0.3, 0.2, 0.5);
        for _ in 0..steps {
            node.step(10_000, &d);
        }
        let cfg = node.config().uncore;
        for socket in node.sockets() {
            let f = socket.uncore.freq_ghz();
            assert!(
                f >= cfg.freq_min_ghz - 1e-9 && f <= cfg.freq_max_ghz + 1e-9,
                "case {case}: uncore at {f} GHz"
            );
        }
        // 3+ seconds of slew at 28 GHz/s always converges.
        if steps >= 200 {
            let expect = (f64::from(max_ratio) * 0.1).clamp(cfg.freq_min_ghz, cfg.freq_max_ghz);
            for socket in node.sockets() {
                assert!(
                    (socket.uncore.freq_ghz() - expect).abs() < 1e-6,
                    "case {case}: uncore at {} GHz, expected {expect}",
                    socket.uncore.freq_ghz()
                );
            }
        }
    }
}

/// Identical seeds and demand sequences give bit-identical energy and
/// PCM readings (full determinism).
#[test]
fn determinism() {
    let run = |demands: &[Demand]| {
        let mut node = Node::new(NodeConfig::intel_a100());
        for d in demands {
            node.step(10_000, d);
        }
        (node.energy().total_j(), node.pcm_try_read_gbs())
    };
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let demands = arb_demands(&mut rng, 1, 19);
        assert_eq!(run(&demands), run(&demands), "case {case}");
    }
}

/// PCM readings are non-negative and bounded by peak bandwidth plus
/// noise margin.
#[test]
fn pcm_reading_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let demands = arb_demands(&mut rng, 5, 29);
        let cfg = NodeConfig::intel_a100();
        let peak = cfg.peak_system_bw_gbs();
        let mut node = Node::new(cfg);
        for d in &demands {
            node.step(10_000, d);
        }
        let r = node.pcm_try_read_gbs().unwrap();
        assert!(r >= 0.0, "case {case}: reading {r}");
        assert!(r <= peak * 1.1 + 1.0, "case {case}: reading {r}");
    }
}
