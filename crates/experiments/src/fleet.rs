//! Fleet sweep driver: the full workload catalog under each governor
//! across an N-node synthetic fleet.
//!
//! This is the experiments-layer adapter between runtime drivers and
//! [`magus_hetsim::fleet::FleetSim`]: every node gets one catalog
//! application, assigned round-robin so any fleet size covers the whole
//! catalog evenly, and every stepped node its own driver instance
//! (runtimes carry per-node feedback state). Traces come from the workload
//! intern table in one bulk lookup ([`magus_workloads::app_traces`]), so a
//! 100k-node fleet holds one `AppTrace` allocation per distinct
//! application — and takes one lock round-trip, not one per node — and
//! steps each distinct trajectory once (see [`governor_run_opts`]).
//!
//! Each stepped node runs from start to finish through
//! [`magus_hetsim::run_node`], the decision loop behind
//! [`crate::harness::run_trial`], with the same driver adapter. So every
//! node is bit-identical to running it alone with the same governor
//! (asserted by `tests/fleet.rs`), for every shard count and on both
//! stepping paths.
//!
//! A [`FleetSpec`] can instead carry a [`TrafficSpec`]: nodes then run the
//! slots of a multi-tenant traffic expansion (colocated tenants'
//! Zipf/diurnal/MMPP job queues superposed per node, deadlines and tenant
//! shares attached as summary metadata), with `stagger_us` phasing traffic
//! waves the same way it phases catalog waves — repeated tenant sets share
//! one trace allocation and one run.

use magus_hetsim::fault::FaultPlan;
use magus_hetsim::fleet::{FleetSim, FleetSummary, NodeDecider, RunOpts, ShardStats, StepMode};
use magus_hetsim::{JobDeadline, TenantShare};
use magus_workloads::{app_traces, AppId, Platform, TrafficSpec};
use serde::{Deserialize, Serialize};

use crate::drivers::DriverDecider;
use crate::engine::GovernorSpec;
use crate::harness::SystemId;

/// One fleet run, fully specified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Hardware preset every node uses.
    pub system: SystemId,
    /// Governor running on every node.
    pub governor: GovernorSpec,
    /// Fleet size.
    pub nodes: usize,
    /// Per-node wall-clock budget (s).
    pub max_s: f64,
    /// Shard count for the fleet kernel (results are bit-identical for
    /// every value; this only sets the parallelism).
    #[serde(default = "one_shard")]
    pub shards: usize,
    /// Stepping path every node uses.
    #[serde(default)]
    pub path: StepMode,
    /// Fault plan attached to every node (fleet-level schedules select
    /// nodes by global index). `None` runs clean.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultPlan>,
    /// Start-time stagger between catalog waves (µs): nodes `0..catalog`
    /// start at 0, the next wave at `stagger_us`, and so on — the
    /// phase-shifted fleet shape real clusters produce. 0 (the default)
    /// starts every node together.
    #[serde(default)]
    pub stagger_us: u64,
    /// Multi-tenant traffic mix replacing the round-robin catalog: each
    /// node runs one expansion slot of the spec (colocated tenants
    /// superposed; see `magus_workloads::generator`), with `stagger_us`
    /// phasing *traffic waves* (one wave = the spec's distinct profiles)
    /// instead of catalog waves. `None` (the default, and what legacy
    /// specs deserialize to) keeps the catalog fleet.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub traffic: Option<TrafficSpec>,
}

/// Serde default for [`FleetSpec::shards`]: pre-shard specs ran the whole
/// fleet on one clock.
fn one_shard() -> usize {
    1
}

impl FleetSpec {
    /// A fleet of `nodes` Intel+A100 nodes under `governor` with the
    /// default trial budget, one shard, and the fast stepping path.
    #[must_use]
    pub fn new(governor: GovernorSpec, nodes: usize) -> Self {
        Self {
            system: SystemId::IntelA100,
            governor,
            nodes,
            max_s: 600.0,
            shards: 1,
            path: StepMode::Fast,
            faults: None,
            stagger_us: 0,
            traffic: None,
        }
    }

    /// Builder: drive the fleet from a multi-tenant traffic mix instead of
    /// the round-robin catalog.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Builder: spread the fleet's stepped nodes over `shards` threads.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder: stagger catalog waves by `stagger_us` µs.
    #[must_use]
    pub fn with_stagger(mut self, stagger_us: u64) -> Self {
        self.stagger_us = stagger_us;
        self
    }
}

/// A completed fleet run: the spec that produced it and its summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRun {
    /// The spec that ran.
    pub spec: FleetSpec,
    /// Per-node summaries + fleet aggregates (bit-identical across shard
    /// counts).
    pub summary: FleetSummary,
    /// Per-shard counters (shard-count dependent, so they live outside
    /// the summary).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub shard_stats: Vec<ShardStats>,
}

/// The application fleet node `idx` runs: the catalog, round-robin.
#[must_use]
pub fn fleet_app(idx: usize) -> AppId {
    let apps = AppId::all();
    apps[idx % apps.len()]
}

/// Run options giving every stepped fleet node a fresh driver built from
/// `governor` (runtimes carry per-node feedback state, so instances are
/// never shared), stepping on `path`. The driver never depends on the
/// node index, so nodes repeating a trajectory share one run.
#[must_use]
pub fn governor_run_opts(governor: &GovernorSpec, path: StepMode) -> RunOpts {
    let governor = governor.clone();
    RunOpts::uniform(move || {
        Box::new(DriverDecider(governor.build_driver())) as Box<dyn NodeDecider>
    })
    .with_mode(path)
}

/// Execute one fleet run: build N nodes (round-robin catalog apps on
/// bulk-interned traces), give each a fresh driver, and run the fleet
/// across `spec.shards` threads to completion.
///
/// # Panics
///
/// Panics if the spec fails [`magus_hetsim::fleet::FleetBuilder`]
/// validation (zero nodes/shards, non-positive budget, invalid fault plan,
/// a stagger so large a wave's start offset overflows the µs clock).
#[must_use]
pub fn run_fleet(spec: &FleetSpec) -> FleetRun {
    let (run, _fleet) = run_fleet_keeping(spec);
    run
}

/// Build (but do not run) the fleet a spec describes: N nodes with
/// round-robin catalog apps on bulk-interned traces, staggered in catalog
/// waves. This is the exact node sequence the control-plane daemon must
/// reproduce through its roster for daemon-vs-batch bit-identity.
///
/// # Panics
///
/// Panics if the spec fails [`magus_hetsim::fleet::FleetBuilder`]
/// validation, as in [`run_fleet`].
#[must_use]
pub fn build_fleet(spec: &FleetSpec) -> FleetSim {
    let platform = spec.system.platform();
    let mut builder = FleetSim::builder(spec.max_s).shards(spec.shards);
    if let Some(traffic) = &spec.traffic {
        // Traffic fleet: node i runs expansion slot i; one wave = the
        // spec's distinct profiles.
        let wave_len = traffic.distinct_profiles();
        let fleet = traffic.expand(platform, spec.nodes);
        for (i, profile) in fleet.profiles.into_iter().enumerate() {
            let offset_us = ((i / wave_len) as u64).saturating_mul(spec.stagger_us);
            builder = builder
                .node_at(spec.system.node_config(), profile.trace, offset_us)
                .node_traffic(
                    profile
                        .jobs
                        .iter()
                        .map(|j| JobDeadline {
                            work_end_s: j.work_end_s(),
                            due_s: j.due_s,
                        })
                        .collect(),
                    profile
                        .tenant_share
                        .iter()
                        .map(|&(tenant, share)| TenantShare { tenant, share })
                        .collect(),
                );
        }
    } else {
        let keys: Vec<(AppId, Platform)> =
            (0..spec.nodes).map(|i| (fleet_app(i), platform)).collect();
        let catalog = AppId::all().len();
        for (i, trace) in app_traces(&keys).into_iter().enumerate() {
            // Wave w = i / catalog starts at w × stagger_us: nodes sharing
            // an app land in different waves.
            let offset_us = ((i / catalog) as u64).saturating_mul(spec.stagger_us);
            builder = builder.node_at(spec.system.node_config(), trace, offset_us);
        }
    }
    if let Some(plan) = &spec.faults {
        builder = builder.fault_plan(plan);
    }
    builder.build().expect("invalid FleetSpec")
}

/// [`run_fleet`] returning the stepped [`FleetSim`] alongside the result.
/// The fleet is not armed, so it holds no per-node telemetry.
#[must_use]
pub fn run_fleet_keeping(spec: &FleetSpec) -> (FleetRun, FleetSim) {
    run_built(spec, build_fleet(spec))
}

/// Run a fleet built from `spec` under the spec's governor and path.
fn run_built(spec: &FleetSpec, mut fleet: FleetSim) -> (FleetRun, FleetSim) {
    let summary = fleet.run(&governor_run_opts(&spec.governor, spec.path));
    let run = FleetRun {
        spec: spec.clone(),
        summary,
        shard_stats: fleet.shard_stats().to_vec(),
    };
    (run, fleet)
}

/// Render every node's drained telemetry event stream as one JSONL blob —
/// one line per event, `{"node":N,` and then the event's
/// [`Event::write_json`](magus_telemetry::Event::write_json) bytes after
/// its `{` (empty for a fleet that was not armed). This byte stream
/// is part of the bit-identity contract (identical across shard counts and
/// stepping modes) and is exactly what the control-plane daemon streams
/// to subscribers, so the CI system test can `diff` daemon output against
/// a batch run.
#[must_use]
pub fn fleet_telemetry_jsonl(fleet: &mut FleetSim) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut json = String::new();
    for (node, events) in fleet.take_node_events().into_iter().enumerate() {
        for event in events {
            json.clear();
            event.write_json(&mut json);
            let _ = write!(out, "{{\"node\":{node},");
            out.push_str(&json[1..]);
            out.push('\n');
        }
    }
    out
}

/// [`run_fleet`] on an armed fleet, plus its telemetry JSONL rendering
/// (drained after the run), for callers that read the byte stream.
#[must_use]
pub fn run_fleet_with_telemetry(spec: &FleetSpec) -> (FleetRun, String) {
    let mut fleet = build_fleet(spec);
    fleet.arm_telemetry();
    let (run, mut fleet) = run_built(spec, fleet);
    let jsonl = fleet_telemetry_jsonl(&mut fleet);
    (run, jsonl)
}

/// The fleet sweep: an N-node fleet of the full catalog under each of
/// {default, MAGUS, UPS}, in that order.
#[must_use]
pub fn fleet_sweep(nodes: usize, max_s: f64) -> Vec<FleetRun> {
    [
        GovernorSpec::Default,
        GovernorSpec::magus_default(),
        GovernorSpec::ups_default(),
    ]
    .into_iter()
    .map(|governor| {
        run_fleet(&FleetSpec {
            max_s,
            ..FleetSpec::new(governor, nodes)
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_the_catalog() {
        let apps = AppId::all();
        assert_eq!(fleet_app(0), apps[0]);
        assert_eq!(fleet_app(apps.len()), apps[0]);
        assert_eq!(fleet_app(apps.len() + 2), apps[2]);
    }

    #[test]
    fn small_fleet_runs_all_governors() {
        let runs = fleet_sweep(3, 600.0);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert_eq!(run.summary.nodes.len(), 3);
            assert_eq!(run.summary.completed, 3);
            assert!(run.summary.total_j > 0.0);
            assert!(run.summary.node_steps > 0);
            assert_eq!(run.shard_stats.len(), 1);
            assert_eq!(run.shard_stats[0].decisions, run.summary.decisions);
        }
        // MAGUS spends less uncore energy than the stock governor on the
        // same fleet — the paper's core claim, at fleet scale.
        let (default, magus) = (&runs[0].summary, &runs[1].summary);
        assert!(
            magus.total_uncore_j < default.total_uncore_j,
            "MAGUS {} J vs default {} J",
            magus.total_uncore_j,
            default.total_uncore_j
        );
    }

    #[test]
    fn magus_fleet_decisions_scale_with_nodes() {
        let one = run_fleet(&FleetSpec {
            max_s: 60.0,
            ..FleetSpec::new(GovernorSpec::magus_default(), 1)
        });
        let four = run_fleet(&FleetSpec {
            max_s: 60.0,
            ..FleetSpec::new(GovernorSpec::magus_default(), 4)
        });
        assert!(four.summary.decisions > one.summary.decisions);
    }

    #[test]
    fn sharded_sweep_matches_single_shard_bit_for_bit() {
        let spec = FleetSpec {
            max_s: 60.0,
            ..FleetSpec::new(GovernorSpec::magus_default(), 5)
        };
        let single = run_fleet(&spec);
        let sharded = run_fleet(&spec.clone().with_shards(3));
        assert_eq!(single.summary, sharded.summary);
        assert_eq!(sharded.shard_stats.len(), 3);
        let sharded_decisions: u64 = sharded.shard_stats.iter().map(|s| s.decisions).sum();
        assert_eq!(sharded_decisions, single.summary.decisions);
    }

    #[test]
    fn spec_serde_defaults_cover_pre_shard_specs() {
        // Pre-shard serialized specs carry neither `shards` nor `path`.
        let legacy = r#"{"system":"IntelA100","governor":"Default","nodes":2,"max_s":60.0}"#;
        let spec: FleetSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.path, StepMode::Fast);
        assert!(spec.faults.is_none());
        assert_eq!(spec.stagger_us, 0, "legacy specs start every node at 0");
        assert!(spec.traffic.is_none(), "legacy specs keep the catalog");

        // Specs written while the kernel still shared trajectories carry
        // its two removed switches: they still parse, to the same spec and
        // the same fleet.
        let switched = include_str!("../tests/fixtures/fleet_spec_sharing_switches.json");
        let old: FleetSpec = serde_json::from_str(switched).unwrap();
        assert_eq!(old, spec);
        assert_eq!(run_fleet(&old).summary, run_fleet(&spec).summary);
    }

    #[test]
    fn traffic_fleet_is_bit_identical_across_shards() {
        // 6 tenants / colocate 2 → 3 distinct profiles, so an 8-node fleet
        // repeats each profile at least twice.
        let traffic = TrafficSpec::builder()
            .seed(5)
            .tenants(6)
            .colocate(2)
            .jobs_per_tenant(2)
            .mean_gap_s(2.0)
            .build()
            .unwrap();
        let spec = FleetSpec {
            max_s: 600.0,
            ..FleetSpec::new(GovernorSpec::magus_default(), 8)
        }
        .with_traffic(traffic);
        let single = run_fleet(&spec);
        let sharded = run_fleet(&spec.clone().with_shards(3));
        assert_eq!(single.summary, sharded.summary);
        assert_eq!(single.summary.deadline_jobs, 8 * 2 * 2);
        assert!(!single.summary.tenant_energy_j.is_empty());
        let tenant_sum: f64 = single.summary.tenant_energy_j.iter().map(|&(_, j)| j).sum();
        assert!(
            (tenant_sum - single.summary.total_j).abs() < 1e-6 * single.summary.total_j,
            "tenant attribution must conserve fleet energy"
        );
    }

    #[test]
    fn stagger_moves_only_the_fleet_makespan() {
        // 30 nodes = wave 0 (24 catalog apps) + wave 1 (6 repeats) with a
        // 0.8 s stagger, through the full driver stack.
        let spec = FleetSpec {
            max_s: 60.0,
            stagger_us: 800_000,
            ..FleetSpec::new(GovernorSpec::magus_default(), 30)
        };
        let staggered = run_fleet(&spec);
        // Per-node summaries are unchanged from the unstaggered fleet ...
        let unstaggered = run_fleet(&FleetSpec {
            stagger_us: 0,
            ..spec.clone()
        });
        assert_eq!(unstaggered.summary.nodes, staggered.summary.nodes);
        assert_eq!(
            run_fleet(&spec.with_shards(4)).summary,
            staggered.summary,
            "a staggered fleet diverged across shard counts"
        );
        // ... while the makespan grows by the wave-1 offset.
        let catalog = AppId::all().len();
        let expected_makespan = staggered
            .summary
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i / catalog) as f64 * 0.8 + n.runtime_s)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((staggered.summary.makespan_s - expected_makespan).abs() < 1e-9);
    }
}
