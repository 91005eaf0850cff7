//! Traffic-generator integration tests: the multi-tenant traffic layer
//! must be deterministic end to end (one seed → one bit-identical fleet,
//! whatever the shard count, stepping path, or scheduling mode), must
//! cache on generator *parameters* (never the expanded trace), and must
//! reject malformed specs with typed errors.
//!
//! See DESIGN.md "Traffic generation" for the four determinism rules
//! these tests pin down.

use std::fs;
use std::path::PathBuf;

use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
use magus_suite::experiments::fleet::{run_fleet, FleetSpec};
use magus_suite::experiments::harness::{StepMode, SystemId};
use magus_suite::hetsim::FaultPlan;
use magus_suite::workloads::{Platform, TrafficSpec, TrafficSpecError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magus-traffic-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but structurally rich spec: colocation, diurnal modulation,
/// and bursts all active, with 3 distinct profiles across 6 tenants.
fn rich_spec(seed: u64) -> TrafficSpec {
    TrafficSpec::builder()
        .seed(seed)
        .tenants(6)
        .colocate(2)
        .jobs_per_tenant(2)
        .mean_gap_s(3.0)
        .diurnal(90.0, 0.5)
        .bursts(4.0, 0.2, 0.4)
        .build()
        .expect("rich spec is valid")
}

#[test]
fn same_traffic_spec_hashes_to_one_cached_trial() {
    let dir = temp_cache("hit");
    let spec = TrialSpec::traffic(
        SystemId::IntelA100,
        rich_spec(42),
        GovernorSpec::magus_default(),
    );
    let cold = Engine::with_cache(&dir).run(&spec);
    assert!(!cold.cached, "first traffic run must be a miss");
    // A second engine over the same cache directory: the generator
    // parameters hash identically, so the expansion is never re-run.
    let warm = Engine::with_cache(&dir).run(&spec);
    assert!(warm.cached, "identical traffic params must hit the cache");
    assert_eq!(cold.spec_hash, warm.spec_hash);
    assert_eq!(
        cold.result.summary.runtime_s.to_bits(),
        warm.result.summary.runtime_s.to_bits()
    );
    assert_eq!(
        cold.result.summary.energy.total_j().to_bits(),
        warm.result.summary.energy.total_j().to_bits()
    );
    // A different seed is a different parameter set: distinct hash, miss.
    let other = TrialSpec::traffic(
        SystemId::IntelA100,
        rich_spec(43),
        GovernorSpec::magus_default(),
    );
    assert_ne!(spec.content_hash(), other.content_hash());
    assert!(!Engine::with_cache(&dir).run(&other).cached);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn traffic_briefs_carry_deadline_accounting() {
    let spec = TrialSpec::traffic(
        SystemId::IntelA100,
        rich_spec(42),
        GovernorSpec::magus_default(),
    );
    let deadlines = spec.traffic_deadlines();
    // Node 0 superposes `colocate` tenants' queues.
    assert_eq!(deadlines.len(), 2 * 2, "2 colocated tenants × 2 jobs");
    let brief = magus_suite::experiments::engine::TrialBrief::from(Engine::ephemeral().run(&spec));
    assert_eq!(brief.deadline_jobs, deadlines.len() as u64);
    assert!(brief.deadline_misses <= brief.deadline_jobs);
    // Catalog trials carry no deadline metadata.
    let catalog = TrialSpec::new(
        SystemId::IntelA100,
        magus_suite::workloads::AppId::Bfs,
        GovernorSpec::Default,
    );
    assert!(catalog.traffic_deadlines().is_empty());
}

#[test]
fn malformed_specs_are_rejected_with_typed_errors() {
    assert_eq!(
        TrafficSpec::builder().tenants(0).build().unwrap_err(),
        TrafficSpecError::ZeroTenants
    );
    assert!(matches!(
        TrafficSpec::builder().zipf_exponent(0.0).build(),
        Err(TrafficSpecError::NonPositiveZipfExponent { .. })
    ));
    assert!(matches!(
        TrafficSpec::builder().zipf_exponent(-1.0).build(),
        Err(TrafficSpecError::NonPositiveZipfExponent { .. })
    ));
    // A slack below 1 promises a deadline before the job can finish.
    assert!(matches!(
        TrafficSpec::builder().deadline_slack(0.5).build(),
        Err(TrafficSpecError::DeadlineTooTight { .. })
    ));
    // Loader surface: the same validation guards specs read from disk.
    let dir = temp_cache("io");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    fs::write(&path, r#"{"tenants":0}"#).unwrap();
    assert!(magus_suite::workloads::io::load_traffic_spec(&path).is_err());
    let _ = fs::remove_dir_all(&dir);
}

/// Seeded cases per property loop below; every failure names its case.
const CASES: u64 = 6;

/// Determinism rule 1–2 at the expansion layer: the same seed expands
/// to the bit-identical fleet every time, and any parameter that feeds
/// the generator changes the expansion.
#[test]
fn expansion_is_a_pure_function_of_the_spec() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0..=999) as u64;
        let tenants = rng.gen_range(1..=7) as u32;
        let jobs = rng.gen_range(1..=3) as u32;
        let spec = TrafficSpec::builder()
            .seed(seed)
            .tenants(tenants)
            .colocate(1 + tenants / 3)
            .jobs_per_tenant(jobs)
            .build()
            .expect("generated spec is valid");
        let a = spec.expand(Platform::IntelA100, 5);
        let b = spec.expand(Platform::IntelA100, 5);
        assert_eq!(a.profiles.len(), b.profiles.len(), "case {case}");
        for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(pa.jobs, pb.jobs, "case {case}");
            assert_eq!(pa.tenant_share, pb.tenant_share, "case {case}");
            assert_eq!(pa.trace.phases, pb.trace.phases, "case {case}");
        }
        // A perturbed seed must actually reseed the arrival process.
        let other = spec
            .with_seed(seed.wrapping_add(1))
            .expand(Platform::IntelA100, 5);
        assert_ne!(a.profiles[0].jobs, other.profiles[0].jobs, "case {case}");
    }
}

/// The fleet-level bit-identity contract under traffic: whatever the
/// shard count (serial = 1 shard vs parallel) and stepping path, a
/// seeded traffic fleet produces the identical `FleetSummary` —
/// deadline and tenant-energy metrics included.
#[test]
fn traffic_fleet_is_bit_identical_across_scheduling_and_paths() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0..=99) as u64;
        let nodes = rng.gen_range(1..=6);
        let shards = rng.gen_range(2..=7);
        let use_reference = rng.gen_bool(0.5);
        let traffic = TrafficSpec::builder()
            .seed(seed)
            .tenants(4)
            .colocate(2)
            .jobs_per_tenant(2)
            .mean_gap_s(2.0)
            .build()
            .expect("generated spec is valid");
        let base = FleetSpec {
            max_s: 120.0,
            ..FleetSpec::new(GovernorSpec::magus_default(), nodes)
        }
        .with_traffic(traffic);
        let serial = run_fleet(&base);
        let sharded = run_fleet(&FleetSpec {
            shards,
            path: if use_reference {
                StepMode::Reference
            } else {
                StepMode::Fast
            },
            ..base
        });
        assert_eq!(serial.summary, sharded.summary, "case {case}");
        assert_eq!(
            serial.summary.deadline_jobs,
            (nodes as u64) * 2 * 2,
            "case {case}: every node superposes 2 tenants × 2 jobs"
        );
    }
}

/// A traffic fleet under a fault plan: 12 nodes over 3 repeated tenant
/// sets, with PCM dropouts and fleet stall/crash schedules keyed on the
/// global node index, so the schedules decide which repeated nodes share
/// a run. One summary for 1 and 3 shards on both stepping paths.
#[test]
fn faulted_traffic_fleet_is_bit_identical_across_shards_and_paths() {
    let traffic = TrafficSpec::builder()
        .seed(9)
        .tenants(6)
        .colocate(2)
        .jobs_per_tenant(2)
        .mean_gap_s(2.0)
        .build()
        .expect("traffic spec is valid");
    assert_eq!(traffic.distinct_profiles(), 3);
    let plan = FaultPlan::builder()
        .seed(5)
        .pcm_dropout_every(6)
        .fleet_stall(3, 300_000)
        .fleet_crash(4, 1_000_000)
        .build()
        .expect("fault plan is valid");
    let base = FleetSpec {
        max_s: 120.0,
        faults: Some(plan),
        ..FleetSpec::new(GovernorSpec::magus_default(), 12)
    }
    .with_traffic(traffic);
    let reference = run_fleet(&base).summary;
    assert!(reference.crashed >= 1, "the crash schedule must fire");
    assert!(
        reference.node_fault_counters.iter().any(|c| c.total() > 0),
        "MAGUS reads PCM, so the dropout schedule must fire"
    );
    for path in [StepMode::Fast, StepMode::Reference] {
        for shards in [1, 3] {
            let run = run_fleet(&FleetSpec {
                shards,
                path,
                ..base.clone()
            });
            assert_eq!(run.summary, reference, "shards={shards} path={path:?}");
        }
    }
}
