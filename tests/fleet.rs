//! Fleet integration tests: every fleet node must be bit-identical to the
//! single-node harness, and the acceptance-scale sweep (256 nodes ×
//! catalog × three governors) must complete with self-consistent
//! aggregates.
//!
//! A trial and each stepped fleet node run through the same decision loop
//! (`magus_hetsim::run_node`), whatever the shard count, so every fleet
//! node's `RunSummary` is asserted `==` (exact, including every f64)
//! against an isolated `run_trial` of the same app under the same
//! governor.

use std::collections::BTreeSet;
use std::sync::Arc;

use magus_suite::experiments::engine::GovernorSpec;
use magus_suite::experiments::fleet::{
    build_fleet, fleet_app, fleet_sweep, governor_run_opts, run_fleet, run_fleet_keeping, FleetSpec,
};
use magus_suite::experiments::harness::{run_trial, StepMode, SystemId, TrialOpts};
use magus_suite::hetsim::{
    AppTrace, Decision, FaultPlan, FleetSim, JobDeadline, Node, NodeConfig, RunOpts, ShardStats,
    Simulation, TenantShare,
};
use magus_suite::runtime::MagusConfig;
use magus_suite::workloads::{app_trace, Platform, TrafficSpec};

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
                governor.name(SystemId::IntelA100)
            );
        }
    }
}

#[test]
fn fleet_sweep_at_256_nodes_completes_with_consistent_aggregates() {
    let runs = fleet_sweep(256, 600.0);
    assert_eq!(runs.len(), 3);
    for (run, governor) in runs.iter().zip(governors()) {
        let s = &run.summary;
        let gov = governor.name(SystemId::IntelA100);
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
    let baseline = baseline_fleet.run(&opts_for(StepMode::Fast));
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
        for path in [StepMode::Fast, StepMode::Reference] {
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

    fn path(&mut self) -> StepMode {
        if self.coin() {
            StepMode::Reference
        } else {
            StepMode::Fast
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

/// Cases for the governor-and-testbed trial == fleet-node loop below: the
/// first whose draws put MAGUS on the AMD node over more than one shard is
/// case 48.
const GOVERNOR_CASES: u64 = 49;

/// Case `k`'s governor, kind `k % 5`: the stock default, a fixed uncore
/// frequency drawn inside `system`'s uncore range, UPS, paper-default
/// MAGUS, and MAGUS with drawn thresholds and interval.
fn drawn_governor(k: u64, case: &mut Case, system: SystemId) -> GovernorSpec {
    match k % 5 {
        0 => GovernorSpec::Default,
        1 => {
            let range = system.node_config().uncore;
            let frac = case.range(0, 1001) as f64 / 1000.0;
            GovernorSpec::Fixed {
                ghz: range.freq_min_ghz + (range.freq_max_ghz - range.freq_min_ghz) * frac,
            }
        }
        2 => GovernorSpec::ups_default(),
        3 => GovernorSpec::magus_default(),
        _ => GovernorSpec::Magus {
            cfg: MagusConfig::builder()
                .inc_threshold(case.range(50, 600) as f64)
                .dec_threshold(case.range(100, 900) as f64)
                .high_freq_threshold(case.range(1, 101) as f64 / 100.0)
                .monitor_interval_us(case.range(100_000, 400_001))
                .build()
                .expect("drawn MAGUS thresholds are valid"),
        },
    }
}

/// Whatever the governor (every kind, drawn thresholds included), system
/// (the three testbeds and the HSMP-actuated AMD node), stepping path,
/// fleet size, and shard count, every `run_fleet` node equals `run_trial`
/// of the same app bit for bit.
#[test]
fn governors_and_testbeds_match_isolated_trials() {
    const SYSTEMS: [SystemId; 4] = [
        SystemId::IntelA100,
        SystemId::Intel4A100,
        SystemId::IntelMax1550,
        SystemId::AmdMi210,
    ];
    let mut sharded_amd_magus = 0;
    for seed in 0..GOVERNOR_CASES {
        let mut case = Case(seed);
        let system = SYSTEMS[case.range(0, 4) as usize];
        let governor = drawn_governor(seed, &mut case, system);
        let path = case.path();
        let nodes = case.range(1, 7) as usize;
        let shards = case.range(1, 4) as usize;
        if system == SystemId::AmdMi210
            && matches!(governor, GovernorSpec::Magus { .. })
            && nodes > 1
            && shards > 1
        {
            sharded_amd_magus += 1;
        }
        let run = run_fleet(&FleetSpec {
            system,
            max_s: 45.0,
            shards,
            path,
            ..FleetSpec::new(governor.clone(), nodes)
        });
        for (i, node) in run.summary.nodes.iter().enumerate() {
            let solo = run_trial(
                system,
                fleet_app(i),
                governor.build_driver().as_mut(),
                TrialOpts {
                    max_s: 45.0,
                    path,
                    ..TrialOpts::default()
                },
            );
            assert_eq!(
                node,
                &solo.summary,
                "case seed {seed}: node {i} ({}) under {governor:?} on {} ({path:?}, \
                 {nodes} nodes, {shards} shards) diverged from its isolated trial",
                fleet_app(i).name(),
                system.name()
            );
        }
    }
    assert!(
        sharded_amd_magus > 0,
        "no drawn case runs MAGUS on the AMD node over more than one shard"
    );
}

/// One (config, trace, start offset) list for the sharing tests: three
/// catalog apps on two config variants, staggered in three phases, so
/// most nodes repeat an earlier node's config and interned trace.
fn twin_list(nodes: usize) -> Vec<(NodeConfig, Arc<AppTrace>, u64)> {
    (0..nodes)
        .map(|i| {
            let mut config = SystemId::IntelA100.node_config();
            if i % 5 == 4 {
                config.seed ^= 1;
            }
            let trace = app_trace(fleet_app(i % 3), Platform::IntelA100);
            (config, trace, (i as u64 % 3) * 400_000)
        })
        .collect()
}

/// Sum one counter over a run's shard rows.
fn stat_sum(fleet: &FleetSim, f: fn(&ShardStats) -> u64) -> u64 {
    fleet.shard_stats().iter().map(f).sum()
}

/// Nodes that repeat a trajectory share one run, and sharing is
/// invisible: the fleet built with `node_at` (which shares) and the same
/// fleet built from `.sim()` nodes (which never share) give byte-equal
/// summaries and armed telemetry for every shard count on both paths. The
/// fleet crash/stall schedules split nodes that would otherwise share, so
/// the shared fleet steps exactly one run per distinct (config, trace,
/// crash, stall) key.
#[test]
fn shared_trajectories_equal_unshared_runs_bit_for_bit() {
    const NODES: usize = 20;
    let plan = FaultPlan::builder()
        .seed(3)
        .pcm_dropout_every(7)
        .fleet_stall(3, 250_000)
        .fleet_crash(4, 2_000_000)
        .build()
        .expect("sharing plan is valid");
    let list = twin_list(NODES);
    let key = |i: usize| {
        let (crash, stall) = ((i + 1).is_multiple_of(4), (i + 1).is_multiple_of(3));
        (i % 5 == 4, i % 3, crash, stall)
    };
    let keys: BTreeSet<_> = (0..NODES).map(key).collect();
    let unfaulted: BTreeSet<_> = (0..NODES).map(|i| (key(i).0, key(i).1)).collect();
    assert!(
        keys.len() > unfaulted.len() && keys.len() < NODES,
        "the plan must split some twins and leave others"
    );
    let build = |shared: bool, shards: usize| {
        let mut b = FleetSim::builder(45.0).shards(shards).fault_plan(&plan);
        for (config, trace, offset) in &list {
            b = if shared {
                b.node_at(config.clone(), Arc::clone(trace), *offset)
            } else {
                let mut sim = Simulation::new(Node::new(config.clone()));
                sim.load(Arc::clone(trace));
                b.sim_at(sim, *offset)
            };
        }
        let mut fleet = b.build().expect("sharing fleet is valid");
        fleet.arm_telemetry();
        fleet
    };
    let mut baseline = None;
    for path in [StepMode::Fast, StepMode::Reference] {
        let opts = governor_run_opts(&GovernorSpec::magus_default(), path);
        for shards in [1, 2, 7] {
            let mut outputs = Vec::new();
            for shared in [true, false] {
                let mut fleet = build(shared, shards);
                let summary = fleet.run(&opts);
                let stepped = if shared { keys.len() } else { NODES };
                let what = format!("shared={shared} shards={shards} path={path:?}");
                assert_eq!(stat_sum(&fleet, |s| s.classes), stepped as u64, "{what}");
                assert_eq!(stat_sum(&fleet, |s| s.nodes as u64), NODES as u64, "{what}");
                assert_eq!(
                    stat_sum(&fleet, |s| s.replayed_node_rounds) > 0,
                    shared,
                    "{what}"
                );
                assert!(summary.crashed > 0, "{what}: the crash schedule fires");
                let jsonl = telemetry_jsonl(&mut fleet);
                assert!(!jsonl.is_empty(), "{what}: an armed fleet records events");
                let json = serde::to_string(&summary);
                outputs.push((what, json, jsonl));
            }
            let reference = baseline.get_or_insert_with(|| outputs[0].clone());
            for (what, json, jsonl) in &outputs {
                assert!(json == &reference.1, "{what}: summary diverged");
                assert!(jsonl == &reference.2, "{what}: telemetry diverged");
            }
        }
    }
}

/// A decider factory that sees the node index may treat identical nodes
/// differently, so every node steps on its own.
#[test]
fn index_dependent_deciders_step_every_node() {
    const NODES: usize = 6;
    let trace = app_trace(fleet_app(0), Platform::IntelA100);
    let mut b = FleetSim::builder(20.0).shards(2);
    for _ in 0..NODES {
        b = b.node(SystemId::IntelA100.node_config(), Arc::clone(&trace));
    }
    let mut fleet = b.build().expect("twin fleet is valid");
    // Odd nodes read PCM at every decision, which charges its monitoring
    // energy; even nodes never do.
    let summary = fleet.run(&RunOpts::from_fn(|i, sim| {
        if i % 2 == 1 {
            let _ = sim.node_mut().pcm_try_read_gbs();
        }
        Decision {
            latency_us: 0,
            rest_us: 200_000,
        }
    }));
    assert_eq!(stat_sum(&fleet, |s| s.classes), NODES as u64);
    assert_eq!(stat_sum(&fleet, |s| s.replayed_node_rounds), 0);
    assert_ne!(summary.nodes[0], summary.nodes[1]);
    assert_eq!(summary.nodes[0], summary.nodes[2]);
    assert_eq!(summary.nodes[1], summary.nodes[3]);
}

/// Traffic twins keep their own metadata. A staggered traffic fleet whose
/// tenant sets repeat, built by `build_fleet` (nodes with one tenant set
/// share one trajectory), and the same node list built from `.sim_at()`
/// nodes carrying the same deadlines and tenant shares (every node its own
/// trajectory) give byte-equal summaries and armed JSONL for every shard
/// count on both paths: each node's deadlines and shares are read against
/// the state it shares, at its own offset.
#[test]
fn traffic_twins_keep_their_own_metadata() {
    const NODES: usize = 12;
    let traffic = TrafficSpec::builder()
        .seed(9)
        .tenants(6)
        .colocate(2)
        .jobs_per_tenant(3)
        .mean_gap_s(2.0)
        .build()
        .expect("traffic spec is valid");
    let distinct = traffic.distinct_profiles();
    assert!(distinct < NODES, "tenant sets must repeat");
    let spec = FleetSpec {
        max_s: 20.0,
        stagger_us: 700_000,
        ..FleetSpec::new(GovernorSpec::magus_default(), NODES)
    }
    .with_traffic(traffic);
    let profiles = traffic.expand(spec.system.platform(), NODES).profiles;
    let unshared = |shards: usize| {
        let mut b = FleetSim::builder(spec.max_s).shards(shards);
        for (i, profile) in profiles.iter().enumerate() {
            let mut sim = Simulation::new(Node::new(spec.system.node_config()));
            sim.load(Arc::clone(&profile.trace));
            let offset_us = (i / distinct) as u64 * spec.stagger_us;
            let deadlines = profile
                .jobs
                .iter()
                .map(|j| JobDeadline {
                    work_end_s: j.work_end_s(),
                    due_s: j.due_s,
                })
                .collect();
            let shares = profile
                .tenant_share
                .iter()
                .map(|&(tenant, share)| TenantShare { tenant, share })
                .collect();
            b = b.sim_at(sim, offset_us).node_traffic(deadlines, shares);
        }
        b.build().expect("traffic node list is valid")
    };
    let mut baseline = None;
    for path in [StepMode::Fast, StepMode::Reference] {
        let opts = governor_run_opts(&spec.governor, path);
        for shards in [1, 2, 7] {
            for shared in [true, false] {
                let mut fleet = if shared {
                    build_fleet(&spec.clone().with_shards(shards))
                } else {
                    unshared(shards)
                };
                fleet.arm_telemetry();
                let summary = fleet.run(&opts);
                let what = format!("shared={shared} shards={shards} path={path:?}");
                let stepped = if shared { distinct } else { NODES };
                assert_eq!(stat_sum(&fleet, |s| s.classes), stepped as u64, "{what}");
                assert!(
                    summary.deadline_misses > 0,
                    "{what}: some deadline is missed"
                );
                assert!(!summary.tenant_energy_j.is_empty(), "{what}");
                let outputs = (serde::to_string(&summary), telemetry_jsonl(&mut fleet));
                assert!(
                    !outputs.1.is_empty(),
                    "{what}: an armed fleet records events"
                );
                let reference = baseline.get_or_insert_with(|| outputs.clone());
                assert!(outputs.0 == reference.0, "{what}: summary diverged");
                assert!(outputs.1 == reference.1, "{what}: telemetry diverged");
            }
        }
    }
}
