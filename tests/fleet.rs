//! Fleet integration tests: lockstep multi-node stepping must be
//! bit-identical per node to the single-node harness, and the
//! acceptance-scale sweep (256 nodes × catalog × three governors) must
//! complete with self-consistent aggregates.
//!
//! The shard-local lockstep clocks only change where each node's
//! macro-stepping spans split, never what they compute — so every fleet
//! node's
//! `RunSummary` is asserted `==` (exact, including every f64) against an
//! isolated `run_trial` of the same app under the same governor.

use magus_suite::experiments::engine::GovernorSpec;
use magus_suite::experiments::fleet::{
    build_fleet, fleet_app, fleet_sweep, governor_run_opts, run_fleet, run_fleet_keeping, FleetSpec,
};
use magus_suite::experiments::harness::{run_trial, SimPath, SystemId, TrialOpts};
use magus_suite::hetsim::{FaultPlan, FleetSim};
use magus_suite::workloads::{app_trace, Platform};

fn governors() -> [GovernorSpec; 3] {
    [
        GovernorSpec::Default,
        GovernorSpec::magus_default(),
        GovernorSpec::ups_default(),
    ]
}

#[test]
fn fleet_nodes_match_isolated_trials_bit_for_bit() {
    for governor in governors() {
        let spec = FleetSpec::new(governor.clone(), 5);
        // TrialOpts::default() carries the same 600 s budget FleetSpec::new
        // uses, so the solo reference sees identical termination conditions.
        assert_eq!(spec.max_s, TrialOpts::default().max_s);
        let run = run_fleet(&spec);
        for (i, node) in run.summary.nodes.iter().enumerate() {
            let mut driver = governor.build_driver();
            let solo = run_trial(
                SystemId::IntelA100,
                fleet_app(i),
                driver.as_mut(),
                TrialOpts::default(),
            );
            assert_eq!(
                *node,
                solo.summary,
                "node {i} ({}) under {} diverged from its isolated trial",
                fleet_app(i).name(),
                governor.name()
            );
        }
    }
}

#[test]
fn fleet_sweep_at_256_nodes_completes_with_consistent_aggregates() {
    let runs = fleet_sweep(256, 600.0);
    assert_eq!(runs.len(), 3);
    for run in &runs {
        let s = &run.summary;
        let gov = run.spec.governor.name();
        assert_eq!(s.nodes.len(), 256, "{gov}");
        assert_eq!(s.completed, 256, "{gov}: every node must finish in budget");
        // Round-robin catalog assignment, node order preserved.
        for (i, node) in s.nodes.iter().enumerate() {
            assert_eq!(node.app, fleet_app(i).name(), "{gov}: node {i}");
        }
        // Aggregates must recompute exactly from the per-node summaries.
        let cpu: f64 = s
            .nodes
            .iter()
            .map(|n| n.energy.core_j + n.energy.dram_j)
            .sum();
        let uncore: f64 = s.nodes.iter().map(|n| n.energy.uncore_j).sum();
        let makespan = s.nodes.iter().map(|n| n.runtime_s).fold(0.0, f64::max);
        assert_eq!(s.total_cpu_j, cpu, "{gov}");
        assert_eq!(s.total_uncore_j, uncore, "{gov}");
        assert_eq!(s.makespan_s, makespan, "{gov}");
        assert!(s.total_j >= s.total_cpu_j + s.total_uncore_j, "{gov}");
        let d = &s.uncore_power_w;
        assert!(
            d.min <= d.p50 && d.p50 <= d.p95 && d.p95 <= d.max,
            "{gov}: uncore power distribution out of order: {d:?}"
        );
        assert!(s.node_steps > 0 && s.decisions > 0, "{gov}");
    }
    // The paper's claim holds at fleet scale: MAGUS spends less uncore
    // energy than the stock governor on the identical 256-node fleet.
    let (default, magus) = (&runs[0].summary, &runs[1].summary);
    assert!(
        magus.total_uncore_j < default.total_uncore_j,
        "MAGUS {} J vs default {} J",
        magus.total_uncore_j,
        default.total_uncore_j
    );
}

/// A round-robin catalog fleet built through the validating builder.
fn catalog_fleet(nodes: usize, budget_s: f64, plan: Option<&FaultPlan>, shards: usize) -> FleetSim {
    let mut b = FleetSim::builder(budget_s).shards(shards);
    for i in 0..nodes {
        b = b.node(
            SystemId::IntelA100.node_config(),
            app_trace(fleet_app(i), Platform::IntelA100),
        );
    }
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build().expect("catalog fleet spec is valid")
}

/// Render every node's drained telemetry event stream as one JSONL blob —
/// the byte-level artifact the bit-identity contract covers. (Shared with
/// the control-plane daemon, which streams the same bytes to subscribers.)
use magus_suite::experiments::fleet::fleet_telemetry_jsonl as telemetry_jsonl;

/// How many nodes of `fleet` are armed (carry node telemetry).
fn armed_nodes(fleet: &FleetSim) -> usize {
    (0..fleet.len())
        .filter(|&i| fleet.sim(i).node().telemetry().is_some())
        .count()
}

/// The tentpole's core contract: under a fault plan mixing sensor faults
/// (access-counted, per node) and fleet-level stall/crash schedules
/// (global-index keyed), every shard count and both stepping paths produce
/// the same `FleetSummary` — per-node summaries, fault tallies, crash
/// count — and the same telemetry byte stream as the single-shard run.
#[test]
fn sharded_fleet_is_bit_identical_across_shard_counts_paths_and_faults() {
    let plan = FaultPlan::builder()
        .seed(11)
        .pcm_dropout_every(7)
        .fleet_stall(3, 250_000)
        .fleet_crash(5, 400_000)
        .build()
        .expect("stress plan is valid");
    let nodes = 9;
    let opts_for = |path| governor_run_opts(&GovernorSpec::magus_default(), path);

    let mut baseline_fleet = catalog_fleet(nodes, 600.0, Some(&plan), 1);
    baseline_fleet.arm_telemetry();
    let baseline = baseline_fleet.run(&opts_for(SimPath::Fast));
    assert_eq!(armed_nodes(&baseline_fleet), nodes);
    let baseline_jsonl = telemetry_jsonl(&mut baseline_fleet);
    assert!(!baseline_jsonl.is_empty(), "an armed fleet records events");
    assert!(
        baseline.node_fault_counters.iter().any(|c| c.total() > 0),
        "MAGUS reads PCM, so the dropout schedule must actually fire"
    );
    assert_eq!(baseline.crashed, 1, "crash_every=5 hits node 5 of 9");
    assert_eq!(baseline.completed, nodes - 1);

    for shards in [1usize, 2, 7, 64] {
        for path in [SimPath::Fast, SimPath::Reference] {
            let mut fleet = catalog_fleet(nodes, 600.0, Some(&plan), shards);
            fleet.arm_telemetry();
            let summary = fleet.run(&opts_for(path));
            assert_eq!(
                summary, baseline,
                "shards={shards} path={path:?} diverged from single-shard fast"
            );
            assert_eq!(armed_nodes(&fleet), nodes, "shards={shards} path={path:?}");
            assert_eq!(
                telemetry_jsonl(&mut fleet),
                baseline_jsonl,
                "shards={shards} path={path:?}: telemetry stream diverged"
            );
        }
    }
}

/// Nothing reads a plain fleet run's per-node telemetry, so `build_fleet`
/// and `run_fleet` leave every node unarmed: the stepped fleet holds no
/// events and renders an empty stream.
#[test]
fn run_fleet_leaves_every_node_unarmed() {
    let spec = FleetSpec {
        max_s: 60.0,
        ..FleetSpec::new(GovernorSpec::magus_default(), 4)
    };
    assert_eq!(armed_nodes(&build_fleet(&spec)), 0);
    let (run, mut stepped) = run_fleet_keeping(&spec);
    assert!(run.summary.decisions > 0);
    assert_eq!(armed_nodes(&stepped), 0);
    assert!(telemetry_jsonl(&mut stepped).is_empty());
    assert_eq!(run_fleet(&spec).summary, run.summary);
}

/// Cases per property loop below.
const CASES: u64 = 5;

/// A splitmix64 stream drawing one property-loop case from its seed.
struct Case(u64);

impl Case {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// `None` or a value in `lo..hi`, evenly.
    fn maybe(&mut self, lo: u64, hi: u64) -> Option<u64> {
        if self.coin() {
            Some(self.range(lo, hi))
        } else {
            None
        }
    }

    fn path(&mut self) -> SimPath {
        if self.coin() {
            SimPath::Reference
        } else {
            SimPath::Fast
        }
    }
}

/// Whatever the fleet size, shard count, stepping path, and fault plan,
/// sharding is invisible: the summary equals the single-shard run bit for
/// bit, and the aggregates recompute exactly with the pre-SoA sequential
/// node-order fold. Every assertion names the case seed that failed.
#[test]
fn any_shard_count_matches_single_shard() {
    for seed in 0..CASES {
        let mut case = Case(seed);
        let nodes = case.range(1, 9) as usize;
        let shards = case.range(1, 12) as usize;
        let mut b = FaultPlan::builder().seed(case.range(0, 100));
        if let Some(d) = case.maybe(3, 20) {
            b = b.pcm_dropout_every(d);
        }
        if let Some(s) = case.maybe(2, 6) {
            b = b.fleet_stall(s, 200_000);
        }
        if let Some(c) = case.maybe(2, 6) {
            b = b.fleet_crash(c, 300_000);
        }
        let plan = b.build().expect("generated plan is valid");
        let path = case.path();
        let opts = governor_run_opts(&GovernorSpec::magus_default(), path);
        let single = catalog_fleet(nodes, 45.0, Some(&plan), 1).run(&opts);
        let sharded = catalog_fleet(nodes, 45.0, Some(&plan), shards).run(&opts);
        assert_eq!(single, sharded, "case seed {seed}: shards={shards}");

        // Reference fold order: a plain sequential pass over the nodes in
        // index order, exactly what the pre-SoA FleetSim accumulated.
        let mut cpu = 0.0;
        let mut uncore = 0.0;
        let mut total = 0.0;
        for n in &single.nodes {
            cpu += n.energy.core_j + n.energy.dram_j;
            uncore += n.energy.uncore_j;
            total += n.energy.total_j();
        }
        assert_eq!(single.total_cpu_j, cpu, "case seed {seed}");
        assert_eq!(single.total_uncore_j, uncore, "case seed {seed}");
        assert_eq!(single.total_j, total, "case seed {seed}");
        let makespan = single.nodes.iter().map(|n| n.runtime_s).fold(0.0, f64::max);
        assert_eq!(single.makespan_s, makespan, "case seed {seed}");
        assert!(
            single.completed + single.crashed <= nodes,
            "case seed {seed}"
        );
    }
}

/// Whatever the fleet size, app modulus, shard count, stagger scale, and
/// stepping path, a staggered node's trajectory is its own: every node of
/// a staggered fleet equals an isolated `run_trial` of the same app bit for
/// bit (start offsets shift a node on the fleet clock only — its local
/// clock, decisions, and summary never see them).
#[test]
fn staggered_nodes_equal_solo_runs() {
    let governor = GovernorSpec::magus_default();
    for seed in 0..CASES {
        let mut case = Case(seed);
        let nodes = case.range(1, 8) as usize;
        let modulus = case.range(1, 4) as usize;
        let shards = case.range(1, 6) as usize;
        let stagger_us = case.range(0, 1_000_000);
        let path = case.path();
        let mut b = FleetSim::builder(45.0).shards(shards);
        for i in 0..nodes {
            let offset_us = ((i as u64).wrapping_mul(2_654_435_761) % 3) * stagger_us;
            b = b.node_at(
                SystemId::IntelA100.node_config(),
                app_trace(fleet_app(i % modulus), Platform::IntelA100),
                offset_us,
            );
        }
        let summary = b
            .build()
            .expect("staggered fleet spec is valid")
            .run(&governor_run_opts(&governor, path));
        for (i, node) in summary.nodes.iter().enumerate() {
            let mut driver = governor.build_driver();
            let solo = run_trial(
                SystemId::IntelA100,
                fleet_app(i % modulus),
                driver.as_mut(),
                TrialOpts {
                    max_s: 45.0,
                    path,
                    ..TrialOpts::default()
                },
            );
            assert_eq!(
                node, &solo.summary,
                "case seed {seed}: staggered node {i} diverged from its isolated trial"
            );
        }
    }
}
