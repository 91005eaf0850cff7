//! Sharded, structure-of-arrays fleet simulation over lockstep shard clocks.
//!
//! The paper's target is cluster-wide power waste: MAGUS is meant to run on
//! every node of a GPU-dominant fleet, and the interesting quantities
//! (aggregate uncore energy, the distribution of per-node waste, fleet
//! makespan) only exist across many nodes. [`FleetSim`] steps N independent
//! nodes to completion; at the 100k-node scale the roadmap targets, the
//! kernel is organized around four ideas:
//!
//! * **SoA decision state.** All per-node feedback state the per-round
//!   control scan touches lives in flat lanes — `next_due_us`, `now_us`
//!   (`Vec<u64>`), a `status` byte lane, and the start-offset lane —
//!   so the per-round scans stream over dense arrays instead of hopping
//!   through N `Simulation` structs. The only per-node indirection left on
//!   the hot path is the macro-step itself ([`Simulation::advance_until`]),
//!   which is where the actual physics lives.
//! * **Order-free scans, ordered sums.** The per-round horizon is a plain
//!   `min` over the active nodes' next events and the makespan a `max` over
//!   finish times; min and max are order-free, so neither depends on the
//!   shard partition. Reductions that are *not* reorder-safe — the fleet's
//!   f64 energy sums — deliberately stay in node-index order: f64 addition
//!   is non-associative, and the summary fold order is part of the
//!   bit-identity contract (the pre-SoA reference fold order asserted by
//!   `tests/fleet.rs`).
//! * **Shard-local clocks.** Nodes are partitioned into contiguous index
//!   ranges, one per shard, each stepped on its own scoped thread. Fleet
//!   nodes never interact, so each shard advances its own lockstep clock and
//!   synchronizes with nothing: shard clocks only share *decision
//!   boundaries* (each round's horizon is the min over that shard's
//!   per-node decision deadlines). Splitting a node's timeline at foreign
//!   nodes' event times never changes what it computes — the frozen span
//!   state persists in its [`FastForward`] — so every node is bit-identical
//!   to a solo run regardless of shard count, on both stepping paths, with
//!   fault plans attached.
//! * **Start offsets.** Nodes added with [`FleetBuilder::node_at`] start
//!   later on the fleet clock (a staggered fleet). Every node's lanes stay
//!   in its own *local* clock; offsets apply only where local deadlines
//!   meet the shard clock, so a staggered node is still bit-identical to a
//!   solo run and only the fleet makespan sees the offset.
//!
//! Every active node steps live every round: MAGUS decides on every node
//! every 0.2 s, so no two nodes can share a round's work without each
//! still deciding on its own state (see DESIGN.md, "Fleet kernel").
//!
//! Construction goes through the validating [`FleetBuilder`]; execution is
//! a single [`FleetSim::run`] taking [`RunOpts`] (stepping mode + a
//! [`NodeDecider`] factory). Traces are shared `Arc`s (see
//! `magus_workloads::intern`), so a 100k-node fleet running the catalog
//! holds one trace allocation per distinct workload, not per node.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::{panic, thread};

use serde::{Deserialize, Serialize};

use crate::fault::{FaultCounters, FaultPlan, FaultPlanError, FleetFaults};
use crate::node::FastForward;
use crate::sim::{RunSummary, Simulation};
use crate::workload::AppTrace;
use crate::{Node, NodeConfig};

/// One runtime decision's scheduling outcome, as reported by a
/// [`NodeDecider`] (the fleet equivalent of `RuntimeDriver::on_decision` +
/// `rest_interval_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Time the decision itself consumed (µs); added to the deadline.
    pub latency_us: u64,
    /// Rest until the next decision (µs); `u64::MAX` = never decide again.
    pub rest_us: u64,
}

impl Decision {
    /// Compute the next decision deadline from `now`, saturating so a
    /// `u64::MAX` rest (one-shot drivers) never wraps.
    #[must_use]
    fn next_due(self, now_us: u64) -> u64 {
        now_us
            .saturating_add(self.latency_us)
            .saturating_add(self.rest_us)
    }
}

/// Per-node decision logic for a fleet run.
///
/// One decider is created per node (by the [`RunOpts`] factory) inside the
/// node's shard task, so implementations need no `Send` bound of their own:
/// they are created, used, and dropped on one thread. The contract mirrors
/// the single-node trial loop exactly — [`NodeDecider::attach`] before the
/// first tick, then [`NodeDecider::decide`] immediately at t=0 and again at
/// each `now + latency + rest` deadline.
pub trait NodeDecider {
    /// One-time hook before the node starts stepping (attach a driver,
    /// program a power cap, ...). Default: nothing.
    fn attach(&mut self, _sim: &mut Simulation) {}

    /// Fire one runtime decision and report its scheduling outcome.
    fn decide(&mut self, sim: &mut Simulation) -> Decision;
}

/// Which stepping path fleet nodes use (the fleet-level mirror of the
/// harness's `SimPath`). Both are bit-identical; `Fast` macro-steps frozen
/// inter-event spans, `Reference` steps tick by tick for differential
/// audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StepMode {
    /// Per-tick reference stepping (`Simulation::step`).
    Reference,
    /// Event-horizon macro-stepping (`Simulation::advance_until`).
    #[default]
    Fast,
}

/// Factory producing one boxed [`NodeDecider`] per global node index.
pub type DeciderFactory = Arc<dyn Fn(usize) -> Box<dyn NodeDecider> + Send + Sync>;

/// Options for one [`FleetSim::run`]: the stepping mode and the per-node
/// decider factory. The factory is called with each node's *global* index
/// from inside that node's shard task.
#[derive(Clone)]
pub struct RunOpts {
    mode: StepMode,
    deciders: DeciderFactory,
}

impl RunOpts {
    /// Run options with a per-node decider factory (fast path by default).
    #[must_use]
    pub fn new(factory: impl Fn(usize) -> Box<dyn NodeDecider> + Send + Sync + 'static) -> Self {
        Self {
            mode: StepMode::default(),
            deciders: Arc::new(factory),
        }
    }

    /// Run options adapting one stateless closure as every node's decider:
    /// `f(global_index, sim) -> Decision`.
    #[must_use]
    pub fn from_fn(f: impl Fn(usize, &mut Simulation) -> Decision + Send + Sync + 'static) -> Self {
        type DecideFn = Arc<dyn Fn(usize, &mut Simulation) -> Decision + Send + Sync>;
        struct FnDecider {
            idx: usize,
            f: DecideFn,
        }
        impl NodeDecider for FnDecider {
            fn decide(&mut self, sim: &mut Simulation) -> Decision {
                (self.f)(self.idx, sim)
            }
        }
        let f: DecideFn = Arc::new(f);
        Self::new(move |idx| {
            Box::new(FnDecider {
                idx,
                f: Arc::clone(&f),
            })
        })
    }

    /// No-op governor: one immediate decision per node, then never again.
    #[must_use]
    pub fn noop() -> Self {
        Self::from_fn(|_, _| Decision {
            latency_us: 0,
            rest_us: u64::MAX,
        })
    }

    /// Builder: select the stepping mode.
    #[must_use]
    pub fn with_mode(mut self, mode: StepMode) -> Self {
        self.mode = mode;
        self
    }

    /// No-op: every node steps live. Kept only so the benchmark probe
    /// builds, until the next benchmark change drops it.
    #[deprecated(note = "trajectory dedup is gone; this does nothing")]
    #[must_use]
    pub fn with_decider_key(self, _key: u64) -> Self {
        self
    }

    /// The stepping mode these options select.
    #[must_use]
    pub fn mode(&self) -> StepMode {
        self.mode
    }
}

impl core::fmt::Debug for RunOpts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunOpts")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

/// Validation errors from [`FleetBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetBuildError {
    /// The fleet has no nodes.
    EmptyFleet,
    /// The per-node budget is not a positive finite number of seconds.
    BadBudget(f64),
    /// The shard count is zero.
    ZeroShards,
    /// A pre-built simulation was added with its clock already advanced;
    /// fleet nodes must start at t=0.
    NodeClockNonzero {
        /// Node index within the builder.
        index: usize,
        /// The node's clock at build time (µs).
        time_us: u64,
    },
    /// The attached fault plan fails [`FaultPlan::validate`].
    InvalidFaultPlan(FaultPlanError),
    /// A node's start offset plus the per-node budget does not fit in the
    /// µs clock (`u64`), so its shard-clock targets would saturate into the
    /// retired-lane sentinel.
    StartOffsetOverflow {
        /// Node index within the builder.
        index: usize,
        /// The offending start offset (µs).
        offset_us: u64,
    },
}

impl core::fmt::Display for FleetBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyFleet => write!(f, "fleet has no nodes"),
            Self::BadBudget(b) => write!(f, "budget must be positive and finite, got {b}"),
            Self::ZeroShards => write!(f, "shard count must be at least 1"),
            Self::NodeClockNonzero { index, time_us } => write!(
                f,
                "node {index} starts at t={time_us}µs; fleet nodes must start at t=0"
            ),
            Self::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            Self::StartOffsetOverflow { index, offset_us } => write!(
                f,
                "node {index} start offset {offset_us}µs plus the budget overflows the µs clock"
            ),
        }
    }
}

impl std::error::Error for FleetBuildError {}

impl From<FaultPlanError> for FleetBuildError {
    fn from(e: FaultPlanError) -> Self {
        Self::InvalidFaultPlan(e)
    }
}

/// Validating constructor for [`FleetSim`] — the only way to build a
/// fleet. Collects nodes (from config + trace, or pre-built simulations),
/// the shard count, the per-node budget, and an optional fault plan, then
/// checks the lot in [`FleetBuilder::build`].
#[derive(Debug)]
pub struct FleetBuilder {
    budget_s: f64,
    shards: usize,
    sims: Vec<Simulation>,
    faults: Option<FaultPlan>,
    /// Per-node start offset (µs) on the fleet clock; 0 for `node()` and
    /// `.sim()` nodes.
    offsets: Vec<u64>,
    /// Per-node job deadlines (traffic metadata; empty for non-traffic
    /// nodes). Summary-only: deadlines never influence stepping, so they
    /// cannot perturb bit-identity.
    deadlines: Vec<Vec<JobDeadline>>,
    /// Per-node tenant energy shares (traffic metadata; empty for
    /// non-traffic nodes).
    tenant_shares: Vec<Vec<TenantShare>>,
}

impl FleetBuilder {
    /// Start a fleet with a per-node wall-clock budget (s) and one shard.
    #[must_use]
    pub fn new(budget_s: f64) -> Self {
        Self {
            budget_s,
            shards: 1,
            sims: Vec::new(),
            faults: None,
            offsets: Vec::new(),
            deadlines: Vec::new(),
            tenant_shares: Vec::new(),
        }
    }

    /// Partition the fleet into `shards` contiguous index ranges stepped in
    /// parallel (clamped to the node count at run time). Results are
    /// bit-identical for every shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Add a node running `trace` (an owned trace or a shared `Arc` from
    /// the workload intern table). Equivalent to [`FleetBuilder::node_at`]
    /// with offset 0.
    #[must_use]
    pub fn node(self, config: NodeConfig, trace: impl Into<Arc<AppTrace>>) -> Self {
        self.node_at(config, trace, 0)
    }

    /// Add a node running `trace` whose work starts `start_offset_us`
    /// microseconds into the fleet run (a staggered copy of the same job).
    /// The offset shifts the node on the *fleet* clock only: its own
    /// trajectory — clock, decisions, telemetry, summary — is in local
    /// time and bit-identical to a solo run, while the fleet makespan
    /// counts `start offset + runtime`.
    #[must_use]
    pub fn node_at(
        self,
        config: NodeConfig,
        trace: impl Into<Arc<AppTrace>>,
        start_offset_us: u64,
    ) -> Self {
        let mut sim = Simulation::new(Node::new(config));
        sim.load(trace.into());
        self.push(sim, start_offset_us)
    }

    /// Append one node with empty traffic metadata.
    fn push(mut self, sim: Simulation, start_offset_us: u64) -> Self {
        self.offsets.push(start_offset_us);
        self.deadlines.push(Vec::new());
        self.tenant_shares.push(Vec::new());
        self.sims.push(sim);
        self
    }

    /// Attach traffic metadata — job deadlines and per-tenant energy
    /// shares — to the most recently added node. The metadata is
    /// summary-only: it never influences stepping; it only feeds the
    /// `deadline_*` and `tenant_energy_j` fields of [`FleetSummary`].
    /// A call before any node was added is ignored.
    #[must_use]
    pub fn node_traffic(
        mut self,
        deadlines: Vec<JobDeadline>,
        tenant_shares: Vec<TenantShare>,
    ) -> Self {
        if let (Some(d), Some(t)) = (self.deadlines.last_mut(), self.tenant_shares.last_mut()) {
            *d = deadlines;
            *t = tenant_shares;
        }
        self
    }

    /// Add a pre-built simulation (custom recorder, pre-programmed power
    /// limit, ...) with a zero start offset. It must still be at t=0.
    #[must_use]
    pub fn sim(self, sim: Simulation) -> Self {
        self.push(sim, 0)
    }

    /// No-op: every node steps live. Kept only so the benchmark probe
    /// builds, until the next benchmark change drops it.
    #[deprecated(note = "trajectory dedup is gone; this does nothing")]
    #[must_use]
    pub fn dedup(self, _on: bool) -> Self {
        self
    }

    /// Arm fault injection for the whole fleet: every node gets the
    /// node-level portion of the plan (sensor/actuator/meter faults, same
    /// seed on every node — deterministic), and the fleet loop gets the
    /// fleet-level schedules. Nodes are selected by 1-based *global* index:
    /// with `crash_every = Some(k)`, nodes k, 2k, ... crash at
    /// `crash_at_us`; with `stall_every = Some(k)`, those nodes' decision
    /// deadlines slip by `stall_us` after every decision (a hung runtime
    /// daemon). An empty plan arms nothing. All schedules fire on each
    /// node's *local* clock: start offsets shift a node on the fleet
    /// clock, never its faults.
    #[must_use]
    pub fn fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.faults = Some(*plan);
        self
    }

    /// Validate and build the fleet.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetBuildError`] if the fleet is empty, the budget is
    /// not positive and finite, the shard count is zero, any node's clock
    /// is already advanced, any start offset plus the budget overflows the
    /// µs clock, or the fault plan fails validation.
    pub fn build(self) -> Result<FleetSim, FleetBuildError> {
        if !(self.budget_s.is_finite() && self.budget_s > 0.0) {
            return Err(FleetBuildError::BadBudget(self.budget_s));
        }
        if self.shards == 0 {
            return Err(FleetBuildError::ZeroShards);
        }
        if self.sims.is_empty() {
            return Err(FleetBuildError::EmptyFleet);
        }
        for (index, sim) in self.sims.iter().enumerate() {
            let time_us = sim.node().time_us();
            if time_us != 0 {
                return Err(FleetBuildError::NodeClockNonzero { index, time_us });
            }
        }
        let budget_us = crate::secs_to_us(self.budget_s);
        for (index, &offset_us) in self.offsets.iter().enumerate() {
            // Shard-clock targets are `local target + offset` with local
            // targets up to the budget; `u64::MAX` itself is the retired
            // sentinel, so the sum must stay strictly below it.
            match offset_us.checked_add(budget_us) {
                Some(end) if end < u64::MAX => {}
                _ => return Err(FleetBuildError::StartOffsetOverflow { index, offset_us }),
            }
        }
        let mut sims = self.sims;
        let mut fleet_faults = None;
        if let Some(plan) = self.faults {
            plan.validate()?;
            if !plan.is_empty() {
                for sim in &mut sims {
                    sim.node_mut().set_fault_plan(plan);
                }
                fleet_faults = (!plan.fleet.is_empty()).then_some(plan.fleet);
            }
        }
        let n = sims.len();
        Ok(FleetSim {
            sims,
            start_offset_us: self.offsets,
            ff: (0..n).map(|_| FastForward::new()).collect(),
            next_due_us: vec![0; n], // first decision immediately
            now_us: vec![0; n],
            status: vec![ACTIVE; n],
            budget_us,
            shards: self.shards,
            fleet_faults,
            shard_stats: Vec::new(),
            deadlines: self.deadlines,
            tenant_shares: self.tenant_shares,
        })
    }
}

/// Node status lane values.
const ACTIVE: u8 = 0;
/// Finished its trace or exhausted its budget.
const RETIRED: u8 = 1;
/// Retired by an injected crash fault.
const CRASHED: u8 = 2;

/// Per-shard lockstep counters from one [`FleetSim::run`]. Rounds and
/// stalls are properties of a shard's *clock*, not of any node's
/// trajectory, so they live here rather than in [`FleetSummary`] — the
/// summary must be bit-identical across shard counts, and these are not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// First global node index in this shard's contiguous range.
    pub base: usize,
    /// Nodes in this shard.
    pub nodes: usize,
    /// Lockstep rounds executed (one shared shard horizon per round).
    pub rounds: u64,
    /// Node-rounds where an active node was already at or past the shard
    /// horizon and advanced zero ticks — it idled while the rest of the
    /// shard caught up. High stall counts mean the shard clock is being
    /// dominated by a few busy nodes.
    pub stalls: u64,
    /// Runtime decisions fired by this shard's nodes.
    pub decisions: u64,
    /// Simulator ticks advanced by this shard's nodes.
    pub node_steps: u64,
    /// Always `nodes`. Kept only so the benchmark probe builds, until the
    /// next benchmark change drops it.
    #[serde(default)]
    pub classes: u64,
    /// Active node-rounds stepped. Kept only so the benchmark probe
    /// builds, until the next benchmark change drops it.
    #[serde(default)]
    pub rep_node_rounds: u64,
    /// Always 0. Kept only so the benchmark probe builds, until the next
    /// benchmark change drops it.
    #[serde(default)]
    pub replayed_node_rounds: u64,
    /// Always 0. Kept only so the benchmark probe builds, until the next
    /// benchmark change drops it.
    #[serde(default)]
    pub class_evictions: u64,
}

/// One job deadline on a node's *ideal* (work) timeline, attached by the
/// traffic layer through [`FleetBuilder::node_traffic`]. The generator
/// plans jobs assuming demand is always met; the simulator stretches
/// phases under bandwidth contention, so a deadline check maps the job's
/// work coordinate back onto the stretched wall clock (see
/// [`deadline_missed`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobDeadline {
    /// Where the job ends on the ideal timeline: trace work (s) that must
    /// complete for the job to finish.
    pub work_end_s: f64,
    /// Wall-clock deadline (s, node-local clock).
    pub due_s: f64,
}

/// One tenant's share of a node, attached by the traffic layer through
/// [`FleetBuilder::node_traffic`]; the summary multiplies node energy by
/// these shares to attribute Joules per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantShare {
    /// Tenant identifier (traffic-layer tenant id).
    pub tenant: u64,
    /// Fraction of the node's work content this tenant submitted, in
    /// `[0, 1]`; a node's shares sum to 1.
    pub share: f64,
}

/// Decide whether a job missed its deadline given the node's final state:
/// `runtime_s` wall-clock seconds elapsed to complete `progress_s` seconds
/// of trace work. A job whose work never completed is a miss; otherwise
/// its finish time is estimated by mapping the work coordinate through the
/// node's mean stretch factor (`runtime / progress`) — exact for uniform
/// contention, and deterministic either way since both inputs are part of
/// the fleet's bit-identity contract.
#[must_use]
pub fn deadline_missed(runtime_s: f64, progress_s: f64, deadline: &JobDeadline) -> bool {
    if progress_s + 1e-9 < deadline.work_end_s || progress_s <= 0.0 {
        return true;
    }
    let finish_s = runtime_s * (deadline.work_end_s / progress_s);
    finish_s > deadline.due_s + 1e-9
}

/// Fleet-level result: per-node run summaries plus the aggregates the
/// paper's cluster argument is about. Every field is bit-identical across
/// shard counts and stepping modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Per-node summaries, in node-index order.
    pub nodes: Vec<RunSummary>,
    /// Nodes whose application completed within the budget.
    pub completed: usize,
    /// Σ per-node CPU-side energy (core + DRAM), J.
    pub total_cpu_j: f64,
    /// Σ per-node uncore energy, J.
    pub total_uncore_j: f64,
    /// Σ per-node total energy (all domains), J.
    pub total_j: f64,
    /// Distribution of per-node mean uncore power (uncore_j / elapsed_s, W)
    /// — the quantity MAGUS exists to minimize.
    pub uncore_power_w: Distribution,
    /// Wall-clock time (s) on the fleet clock until the last node finished
    /// (or hit its budget): the max over nodes of start offset + runtime.
    pub makespan_s: f64,
    /// Total runtime decisions fired across the fleet.
    pub decisions: u64,
    /// Total simulator ticks advanced across all nodes (throughput unit for
    /// node-steps/sec benchmarks).
    pub node_steps: u64,
    /// Per-node application progress (s of trace work completed) at the end
    /// of the run, node-index order.
    #[serde(default)]
    pub node_progress_s: Vec<f64>,
    /// Nodes retired by an injected crash fault (see
    /// [`FleetBuilder::fault_plan`]); always 0 without a fault plan.
    #[serde(default)]
    pub crashed: usize,
    /// Per-node injected-fault tallies, node-index order; empty (and
    /// omitted from serialized summaries) when nothing was injected, so a
    /// summary equals its own serialized round trip.
    #[serde(default, skip_serializing_if = "fault_counters_all_zero")]
    pub node_fault_counters: Vec<FaultCounters>,
    /// Jobs carrying deadlines across the fleet (0 unless the traffic
    /// layer attached [`JobDeadline`]s via [`FleetBuilder::node_traffic`]).
    #[serde(default)]
    pub deadline_jobs: u64,
    /// Jobs that missed their deadline (see [`deadline_missed`]).
    #[serde(default)]
    pub deadline_misses: u64,
    /// Per-node missed-deadline counts, node-index order; empty (and
    /// omitted from serialized summaries) when no node carries deadlines.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub node_deadline_misses: Vec<u32>,
    /// Energy attributed per tenant, `(tenant id, J)` sorted by tenant:
    /// each node's total energy split by its [`TenantShare`]s, accumulated
    /// in node-index order (part of the bit-identity contract). Empty (and
    /// omitted) without traffic metadata.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tenant_energy_j: Vec<(u64, f64)>,
}

/// True when no node recorded an injected fault (also the serde skip rule).
fn fault_counters_all_zero(counters: &[FaultCounters]) -> bool {
    counters.iter().all(|c| *c == FaultCounters::default())
}

/// Summary statistics over one per-node quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (lower of the two central values for even counts).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Distribution {
    /// Summarize `values` (empty input yields all zeros).
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| sorted[((sorted.len() as f64 * q).ceil() as usize).max(1) - 1];
        Self {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: rank(0.50),
            p95: rank(0.95),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// True when 1-based global node index `idx + 1` is a multiple of `every`.
/// Fault schedules key on *global* indices so the set of crashed/stalled
/// nodes is independent of the shard partition.
fn fault_scheduled(idx: usize, every: Option<u64>) -> bool {
    every.is_some_and(|k| (idx as u64 + 1).is_multiple_of(k))
}

/// One shard's mutable window over the fleet lanes: a contiguous range of
/// nodes starting at global index `base`, plus the shared run parameters.
struct ShardView<'a> {
    shard: usize,
    base: usize,
    budget_us: u64,
    fleet_faults: Option<FleetFaults>,
    /// Per-node start offset (µs) on the fleet clock. Lanes stay in each
    /// node's *local* time; offsets apply only where local deadlines meet
    /// the shard clock (pass 2 adds them, pass 3 subtracts them).
    offsets: &'a [u64],
    sims: &'a mut [Simulation],
    ff: &'a mut [FastForward],
    next_due_us: &'a mut [u64],
    now_us: &'a mut [u64],
    status: &'a mut [u8],
}

/// Step one shard's nodes to completion under its own lockstep clock.
/// Bit-identity argument: every per-node quantity depends only on that
/// node's own decision deadlines and the budget; the shard horizon merely
/// splits macro-spans, and [`Simulation::advance_until`] is split-invariant.
/// Start offsets preserve it too: lanes are node-local, offsets only
/// translate where a local deadline lands on the shard clock, and a
/// translated horizon split is still just a split.
fn run_shard(v: &mut ShardView<'_>, opts: &RunOpts) -> ShardStats {
    let n = v.sims.len();
    let mut stats = ShardStats {
        shard: v.shard,
        base: v.base,
        nodes: n,
        classes: n as u64,
        ..ShardStats::default()
    };
    // Deciders are created and attached inside the shard task, in global
    // node-index order, exactly as the solo harness attaches its driver
    // after fault plan / power cap programming.
    let mut deciders: Vec<Box<dyn NodeDecider>> =
        (0..n).map(|i| (opts.deciders)(v.base + i)).collect();
    for (decider, sim) in deciders.iter_mut().zip(v.sims.iter_mut()) {
        decider.attach(sim);
    }
    loop {
        // Pass 1 (branchy): retire finished/budget-exhausted nodes, crash
        // fault-scheduled ones, fire the decisions that are due.
        for (i, decider) in deciders.iter_mut().enumerate() {
            if v.status[i] != ACTIVE {
                continue;
            }
            let now = v.now_us[i];
            if let Some(ff) = v.fleet_faults {
                if fault_scheduled(v.base + i, ff.crash_every) && now >= ff.crash_at_us {
                    // Injected node crash: retire it mid-run.
                    v.status[i] = CRASHED;
                    continue;
                }
            }
            if v.sims[i].done() || now >= v.budget_us {
                v.status[i] = RETIRED;
                continue;
            }
            if now >= v.next_due_us[i] {
                let d = decider.decide(&mut v.sims[i]);
                stats.decisions += 1;
                // Re-read the clock: the decide hook owns the simulation
                // while it runs, exactly like the solo loop.
                v.now_us[i] = v.sims[i].node().time_us();
                let mut due = d.next_due(v.now_us[i]);
                if let Some(ff) = v.fleet_faults {
                    if fault_scheduled(v.base + i, ff.stall_every) {
                        // Injected stall: the runtime daemon hangs for
                        // stall_us after every decision it fires.
                        due = due.saturating_add(ff.stall_us);
                    }
                }
                v.next_due_us[i] = due;
            }
        }
        // Pass 2 (dense): each active node's next event on the *shard*
        // clock — its local decision deadline, its scheduled crash or the
        // budget, but always at least one tick of progress (exactly the
        // single-node fast-path horizon rule), translated by its start
        // offset — and the min. Stopping at the crash instant makes the
        // crash land on the same tick under every shard partition.
        let budget = v.budget_us;
        let crash_at = |i: usize| match v.fleet_faults {
            Some(ff) if fault_scheduled(v.base + i, ff.crash_every) => ff.crash_at_us,
            _ => u64::MAX,
        };
        let Some(horizon) = (0..n)
            .filter(|&i| v.status[i] == ACTIVE)
            .map(|i| {
                v.next_due_us[i]
                    .min(budget)
                    .min(crash_at(i))
                    .max(v.now_us[i].saturating_add(1))
                    .saturating_add(v.offsets[i])
            })
            .min()
        else {
            break; // no active nodes left in this shard
        };
        stats.rounds += 1;
        // Pass 3: advance every active node to the shard horizon.
        for i in 0..n {
            if v.status[i] != ACTIVE {
                continue;
            }
            let before = v.now_us[i];
            // The shard horizon is on the fleet clock; this node steps on
            // its own. A horizon at or before the node's start offset
            // leaves a zero-tick goal: the node idles (stalls) until the
            // shard clock reaches its phase.
            let goal = horizon.saturating_sub(v.offsets[i]);
            match opts.mode {
                StepMode::Fast => v.sims[i].advance_until(goal, &mut v.ff[i]),
                StepMode::Reference => {
                    while !v.sims[i].done() && v.sims[i].node().time_us() < goal {
                        v.sims[i].step();
                    }
                }
            }
            let after = v.sims[i].node().time_us();
            v.now_us[i] = after;
            if after == before {
                // Already at/past the horizon: this node idled while the
                // shard caught up.
                stats.stalls += 1;
            }
            let tick = v.sims[i].node().config().tick_us;
            stats.node_steps += (after - before) / tick;
            stats.rep_node_rounds += 1;
        }
    }
    stats
}

/// N independent nodes stepped to completion across sharded lockstep
/// clocks. Build with [`FleetBuilder`]; run with [`FleetSim::run`].
#[derive(Debug)]
pub struct FleetSim {
    sims: Vec<Simulation>,
    /// Per-node start offset (µs) on the fleet clock; see
    /// [`FleetBuilder::node_at`].
    start_offset_us: Vec<u64>,
    // --- per-node decision state, structure-of-arrays lanes ---
    /// Macro-stepping carry-over (frozen-span state) per node.
    ff: Vec<FastForward>,
    /// Next decision deadline per node (µs); `u64::MAX` = no more decisions.
    next_due_us: Vec<u64>,
    /// Each node's clock (µs), mirrored from its simulation after every
    /// macro-step so the control scans never touch the `Simulation` structs.
    now_us: Vec<u64>,
    /// Node status lane ([`ACTIVE`] / [`RETIRED`] / [`CRASHED`]).
    status: Vec<u8>,
    budget_us: u64,
    /// Requested shard count (clamped to the node count at run time).
    shards: usize,
    /// Fleet-level fault schedules (node stall/crash); `None` = clean run,
    /// zero cost.
    fleet_faults: Option<FleetFaults>,
    /// Per-shard counters from the most recent [`FleetSim::run`].
    shard_stats: Vec<ShardStats>,
    /// Per-node traffic job deadlines (summary-only metadata).
    deadlines: Vec<Vec<JobDeadline>>,
    /// Per-node tenant energy shares (summary-only metadata).
    tenant_shares: Vec<Vec<TenantShare>>,
}

impl FleetSim {
    /// Start building a fleet with a per-node wall-clock budget (s).
    #[must_use]
    pub fn builder(budget_s: f64) -> FleetBuilder {
        FleetBuilder::new(budget_s)
    }

    /// Number of nodes in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// True when the fleet has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// A node's simulation (read-only).
    #[must_use]
    pub fn sim(&self, idx: usize) -> &Simulation {
        &self.sims[idx]
    }

    /// Per-shard lockstep counters from the most recent [`FleetSim::run`]
    /// (empty before the first run).
    #[must_use]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shard_stats
    }

    /// Arm every node's telemetry ([`Node::arm_telemetry`]) before
    /// [`FleetSim::run`], for callers that will read the event streams.
    /// An unarmed fleet records nothing per node.
    pub fn arm_telemetry(&mut self) {
        for sim in &mut self.sims {
            sim.node_mut().arm_telemetry();
        }
    }

    /// Drain every node's telemetry event buffer, in node-index order
    /// (empty for unarmed nodes). Event streams are part of the
    /// bit-identity contract: byte-identical across shard counts and
    /// stepping modes.
    pub fn take_node_events(&mut self) -> Vec<Vec<magus_telemetry::Event>> {
        self.sims
            .iter_mut()
            .map(|s| {
                s.node_mut()
                    .telemetry_mut()
                    .map_or_else(Vec::new, |t| t.take_events())
            })
            .collect()
    }

    /// Run every node to completion (or its budget), creating one decider
    /// per node and firing it exactly as the single-node trial loop would:
    /// immediately at start, then at each `now + latency + rest` deadline.
    ///
    /// Each node's trajectory is bit-identical to running it alone with the
    /// same decision schedule — for every shard count and both stepping
    /// modes. Shards step disjoint contiguous node ranges, one scoped
    /// thread each; their clocks never synchronize with each other, only
    /// with their own nodes' decision boundaries. A panic in a shard
    /// resumes on the caller.
    pub fn run(&mut self, opts: &RunOpts) -> FleetSummary {
        let n = self.sims.len();
        self.shard_stats.clear();
        if n > 0 {
            let shards = self.shards.clamp(1, n);
            let budget_us = self.budget_us;
            let fleet_faults = self.fleet_faults;
            // Carve each lane into per-shard contiguous windows. Remainder
            // nodes spread one-per-shard from the front, so no shard is
            // empty and sizes differ by at most one.
            let mut views = Vec::with_capacity(shards);
            let mut offsets = self.start_offset_us.as_slice();
            let (mut sims, mut ff, mut due, mut now, mut status) = (
                self.sims.as_mut_slice(),
                self.ff.as_mut_slice(),
                self.next_due_us.as_mut_slice(),
                self.now_us.as_mut_slice(),
                self.status.as_mut_slice(),
            );
            let mut base = 0;
            for shard in 0..shards {
                let take = n / shards + usize::from(shard < n % shards);
                let (o0, o1) = offsets.split_at(take);
                let (s0, s1) = sims.split_at_mut(take);
                let (f0, f1) = ff.split_at_mut(take);
                let (d0, d1) = due.split_at_mut(take);
                let (n0, n1) = now.split_at_mut(take);
                let (st0, st1) = status.split_at_mut(take);
                offsets = o1;
                (sims, ff, due, now, status) = (s1, f1, d1, n1, st1);
                views.push(ShardView {
                    shard,
                    base,
                    budget_us,
                    fleet_faults,
                    offsets: o0,
                    sims: s0,
                    ff: f0,
                    next_due_us: d0,
                    now_us: n0,
                    status: st0,
                });
                base += take;
            }
            self.shard_stats = if shards == 1 {
                views.iter_mut().map(|v| run_shard(v, opts)).collect()
            } else {
                thread::scope(|scope| {
                    let handles: Vec<_> = views
                        .iter_mut()
                        .map(|v| scope.spawn(move || run_shard(v, opts)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                        .collect()
                })
            };
        }
        self.summarize()
    }

    /// Build the fleet summary from the current node states. The f64
    /// energy sums fold in node-index order (the pre-SoA reference order —
    /// f64 addition is non-associative, and this order is part of the
    /// bit-identity contract); the makespan is an order-free max. Makespan
    /// counts each node's finish time on the *fleet* clock: start offset
    /// plus runtime (adding a zero offset is bit-exact for the non-negative
    /// runtimes, so zero-offset fleets are unchanged).
    fn summarize(&self) -> FleetSummary {
        let nodes: Vec<RunSummary> = self.sims.iter().map(|s| s.summary(0)).collect();
        let makespan_s = nodes
            .iter()
            .zip(&self.start_offset_us)
            .map(|(n, &off)| crate::us_to_secs(off) + n.runtime_s)
            .fold(0.0, f64::max);
        let mut total_cpu_j = 0.0;
        let mut total_uncore_j = 0.0;
        let mut total_j = 0.0;
        let mut uncore_w = Vec::with_capacity(nodes.len());
        // Traffic metrics: deadline checks read only per-node (runtime,
        // progress) pairs — both bit-identical across partitions — and the
        // tenant energy accumulates in node-index order into an ordered
        // map, so these fields share the summary's bit-identity contract.
        let have_deadlines = self.deadlines.iter().any(|d| !d.is_empty());
        let mut deadline_jobs = 0u64;
        let mut deadline_misses = 0u64;
        let mut node_deadline_misses = Vec::new();
        let mut tenant_energy: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            total_cpu_j += n.energy.core_j + n.energy.dram_j;
            total_uncore_j += n.energy.uncore_j;
            total_j += n.energy.total_j();
            if n.energy.elapsed_s > 0.0 {
                uncore_w.push(n.energy.uncore_j / n.energy.elapsed_s);
            }
            if have_deadlines {
                let progress = self.sims[i].progress_s();
                let misses = self.deadlines[i]
                    .iter()
                    .filter(|d| deadline_missed(n.runtime_s, progress, d))
                    .count() as u32;
                deadline_jobs += self.deadlines[i].len() as u64;
                deadline_misses += u64::from(misses);
                node_deadline_misses.push(misses);
            }
            for ts in &self.tenant_shares[i] {
                *tenant_energy.entry(ts.tenant).or_insert(0.0) += n.energy.total_j() * ts.share;
            }
        }
        let mut node_fault_counters: Vec<FaultCounters> = self
            .sims
            .iter()
            .map(|s| s.node().fault_counters())
            .collect();
        if fault_counters_all_zero(&node_fault_counters) {
            node_fault_counters.clear();
        }
        FleetSummary {
            deadline_jobs,
            deadline_misses,
            node_deadline_misses,
            tenant_energy_j: tenant_energy.into_iter().collect(),
            completed: nodes.iter().filter(|n| n.completed).count(),
            total_cpu_j,
            total_uncore_j,
            total_j,
            uncore_power_w: Distribution::from_values(&uncore_w),
            makespan_s,
            decisions: self.shard_stats.iter().map(|s| s.decisions).sum(),
            node_steps: self.shard_stats.iter().map(|s| s.node_steps).sum(),
            node_progress_s: self.sims.iter().map(Simulation::progress_s).collect(),
            crashed: self.status.iter().filter(|&&s| s == CRASHED).count(),
            node_fault_counters,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::demand::Demand;
    use crate::workload::{Phase, PhaseKind};

    fn trace(work_s: f64, gbs: f64) -> AppTrace {
        AppTrace::new(
            "fleet-test",
            vec![Phase::new(
                PhaseKind::Compute,
                work_s,
                Demand::new(gbs, 0.2, 0.2, 0.8),
            )],
        )
    }

    /// A homogeneous fleet of `n` nodes over one shared trace.
    fn fleet_of(n: usize, budget_s: f64, shared: &Arc<AppTrace>) -> FleetBuilder {
        let mut b = FleetSim::builder(budget_s);
        for _ in 0..n {
            b = b.node(NodeConfig::intel_a100(), Arc::clone(shared));
        }
        b
    }

    #[test]
    fn fleet_node_matches_isolated_run() {
        let shared: Arc<AppTrace> = Arc::new(trace(3.0, 5.0));
        let mut alone = Simulation::new(Node::new(NodeConfig::intel_a100()));
        alone.load(Arc::clone(&shared));
        let solo = alone.run_to_completion(60.0);

        let mut fleet = fleet_of(4, 60.0, &shared).build().unwrap();
        let summary = fleet.run(&RunOpts::noop());
        assert_eq!(summary.nodes.len(), 4);
        assert_eq!(summary.completed, 4);
        for n in &summary.nodes {
            // Same workload, same hardware, no runtime: bit-identical to
            // the single-node run (the shard clock must not perturb it).
            assert_eq!(n, &solo);
        }
        assert_eq!(summary.decisions, 4);
        assert!(summary.node_steps > 0);
    }

    #[test]
    fn traffic_metadata_feeds_deadline_and_tenant_metrics() {
        let shared: Arc<AppTrace> = Arc::new(trace(2.0, 5.0));
        let mut fleet = FleetSim::builder(60.0)
            .node(NodeConfig::intel_a100(), Arc::clone(&shared))
            .node_traffic(
                vec![
                    // Generous deadline: met. Impossible deadline: missed.
                    JobDeadline {
                        work_end_s: 1.0,
                        due_s: 1000.0,
                    },
                    JobDeadline {
                        work_end_s: 2.0,
                        due_s: 0.5,
                    },
                ],
                vec![
                    TenantShare {
                        tenant: 3,
                        share: 0.25,
                    },
                    TenantShare {
                        tenant: 7,
                        share: 0.75,
                    },
                ],
            )
            .node(NodeConfig::intel_a100(), Arc::clone(&shared))
            .build()
            .unwrap();
        let summary = fleet.run(&RunOpts::noop());
        assert_eq!(summary.deadline_jobs, 2);
        assert_eq!(summary.deadline_misses, 1);
        assert_eq!(summary.node_deadline_misses, vec![1, 0]);
        let by_tenant = &summary.tenant_energy_j;
        assert_eq!(by_tenant.len(), 2);
        assert_eq!((by_tenant[0].0, by_tenant[1].0), (3, 7));
        let node_j = summary.nodes[0].energy.total_j();
        assert!((by_tenant[0].1 - node_j * 0.25).abs() < 1e-9);
        assert!((by_tenant[1].1 - node_j * 0.75).abs() < 1e-9);
        // Metadata is summary-only: both nodes' trajectories stay
        // bit-identical.
        assert_eq!(summary.nodes[0], summary.nodes[1]);
    }

    #[test]
    fn deadline_rule_maps_work_through_the_stretch_factor() {
        let d = JobDeadline {
            work_end_s: 2.0,
            due_s: 3.0,
        };
        // Unstretched: finishes at t=2 < 3.
        assert!(!deadline_missed(4.0, 4.0, &d));
        // 2x stretch: finishes at t=4 > 3.
        assert!(deadline_missed(8.0, 4.0, &d));
        // Work never completed: always a miss.
        assert!(deadline_missed(60.0, 1.5, &d));
        assert!(deadline_missed(60.0, 0.0, &d));
    }

    #[test]
    fn heterogeneous_finish_times_retire_independently() {
        let mut fleet = FleetSim::builder(60.0)
            .node(NodeConfig::intel_a100(), trace(1.0, 5.0))
            .node(NodeConfig::intel_a100(), trace(5.0, 5.0))
            .build()
            .unwrap();
        let summary = fleet.run(&RunOpts::noop());
        assert_eq!(summary.completed, 2);
        assert!(summary.nodes[0].runtime_s < summary.nodes[1].runtime_s);
        assert!((summary.makespan_s - summary.nodes[1].runtime_s).abs() < 1e-12);
    }

    #[test]
    fn budget_truncates_fleet() {
        let mut fleet = FleetSim::builder(2.0)
            .node(NodeConfig::intel_a100(), trace(100.0, 5.0))
            .build()
            .unwrap();
        let summary = fleet.run(&RunOpts::noop());
        assert_eq!(summary.completed, 0);
        assert!((summary.makespan_s - 2.0).abs() < 0.05);
    }

    #[test]
    fn periodic_decisions_fire_on_cadence() {
        let mut fleet = FleetSim::builder(60.0)
            .node(NodeConfig::intel_a100(), trace(4.0, 5.0))
            .build()
            .unwrap();
        // 0.5 s cadence over a ~4 s run: first decision at t=0, then every
        // 500 ms → 8–9 invocations.
        let opts = RunOpts::from_fn(|_, _| Decision {
            latency_us: 0,
            rest_us: 500_000,
        });
        let summary = fleet.run(&opts);
        assert!(
            (7..=10).contains(&summary.decisions),
            "decisions = {}",
            summary.decisions
        );
    }

    #[test]
    fn aggregates_are_consistent() {
        let shared: Arc<AppTrace> = Arc::new(trace(2.0, 5.0));
        let mut fleet = fleet_of(3, 60.0, &shared).build().unwrap();
        let s = fleet.run(&RunOpts::noop());
        let sum: f64 = s.nodes.iter().map(|n| n.energy.total_j()).sum();
        assert!((s.total_j - sum).abs() < 1e-9);
        assert!(s.total_uncore_j > 0.0);
        assert!(s.total_cpu_j > 0.0);
        assert!(s.uncore_power_w.min <= s.uncore_power_w.p50);
        assert!(s.uncore_power_w.p50 <= s.uncore_power_w.p95);
        assert!(s.uncore_power_w.p95 <= s.uncore_power_w.max);
    }

    #[test]
    fn shard_stats_count_rounds_and_stalls() {
        // A coarse-tick node paired with a fine-tick, fast-deciding node:
        // the coarse node overshoots the shard horizon, so later horizons
        // driven by the fine node's deadlines land behind it and it idles
        // (stalls) while the shard catches up.
        let mut coarse = NodeConfig::intel_a100();
        coarse.tick_us = 70_000;
        let mut fleet = FleetSim::builder(2.0)
            .node(coarse, trace(100.0, 5.0))
            .node(NodeConfig::intel_a100(), trace(100.0, 5.0))
            .build()
            .unwrap();
        let opts = RunOpts::from_fn(|i, _| Decision {
            latency_us: 0,
            rest_us: if i == 0 { 1_000_000 } else { 5_000 },
        });
        let s = fleet.run(&opts);
        let stats = fleet.shard_stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].rounds > 0);
        assert!(stats[0].stalls > 0, "coarse node never stalled");
        assert_eq!(stats[0].decisions, s.decisions);
        assert_eq!(stats[0].node_steps, s.node_steps);
        // Every node steps live: one trajectory per node, nothing replayed.
        assert_eq!(stats[0].classes, 2);
        assert!(stats[0].rep_node_rounds >= stats[0].rounds);
        assert_eq!(stats[0].replayed_node_rounds, 0);
        assert_eq!(stats[0].class_evictions, 0);
        assert_eq!(s.node_progress_s.len(), 2);
        assert!(s.node_progress_s.iter().all(|&p| p > 0.0));

        // A homogeneous single-shard fleet shares every clock edge and
        // never stalls.
        let shared: Arc<AppTrace> = Arc::new(trace(100.0, 5.0));
        let mut fleet = fleet_of(3, 2.0, &shared).build().unwrap();
        fleet.run(&RunOpts::noop());
        assert_eq!(fleet.shard_stats()[0].stalls, 0);
    }

    #[test]
    fn sharded_runs_are_bit_identical_across_shard_counts_and_modes() {
        let plan = FaultPlan::builder()
            .fleet_crash(4, 500_000)
            .fleet_stall(3, 300_000)
            .pcm_spike(2, 0.4)
            .build()
            .unwrap();
        let run_with = |shards: usize, mode: StepMode| {
            let mut b = FleetSim::builder(60.0);
            for i in 0..6 {
                b = b.node(NodeConfig::intel_a100(), trace(1.0 + i as f64, 5.0));
            }
            let mut fleet = b.shards(shards).fault_plan(&plan).build().unwrap();
            // The decider samples PCM each decision, so the per-node
            // injected-spike schedule (an access-counted fault) is exercised
            // and must replay identically under every shard partition.
            let opts = RunOpts::from_fn(|_, sim| {
                let _ = sim.node_mut().pcm_try_read_gbs();
                Decision {
                    latency_us: 0,
                    rest_us: 500_000,
                }
            })
            .with_mode(mode);
            let summary = fleet.run(&opts);
            assert_eq!(
                fleet.shard_stats().len(),
                shards.min(6),
                "one stats row per non-empty shard"
            );
            summary
        };
        let reference = run_with(1, StepMode::Fast);
        assert!(
            reference.node_fault_counters.iter().any(|c| c.total() > 0),
            "plan must actually inject"
        );
        for shards in [2, 3, 6, 64] {
            for mode in [StepMode::Fast, StepMode::Reference] {
                assert_eq!(
                    run_with(shards, mode),
                    reference,
                    "shards={shards} {mode:?} diverged from single-shard fast"
                );
            }
        }
    }

    #[test]
    fn builder_validates_inputs() {
        let shared: Arc<AppTrace> = Arc::new(trace(1.0, 5.0));
        assert_eq!(
            FleetSim::builder(60.0).build().unwrap_err(),
            FleetBuildError::EmptyFleet
        );
        assert!(matches!(
            fleet_of(1, -1.0, &shared).build().unwrap_err(),
            FleetBuildError::BadBudget(_)
        ));
        assert!(matches!(
            fleet_of(1, f64::NAN, &shared).build().unwrap_err(),
            FleetBuildError::BadBudget(_)
        ));
        assert_eq!(
            fleet_of(1, 60.0, &shared).shards(0).build().unwrap_err(),
            FleetBuildError::ZeroShards
        );
        let mut advanced = Simulation::new(Node::new(NodeConfig::intel_a100()));
        advanced.load(Arc::clone(&shared));
        advanced.step();
        assert!(matches!(
            FleetSim::builder(60.0).sim(advanced).build().unwrap_err(),
            FleetBuildError::NodeClockNonzero { index: 0, .. }
        ));
        let bad_plan = FaultPlan {
            pcm: crate::fault::PcmFaults {
                dropout_every: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            fleet_of(1, 60.0, &shared)
                .fault_plan(&bad_plan)
                .build()
                .unwrap_err(),
            FleetBuildError::InvalidFaultPlan(_)
        ));
    }

    #[test]
    fn empty_fault_plan_leaves_fleet_bit_identical() {
        let shared: Arc<AppTrace> = Arc::new(trace(2.0, 5.0));
        let mut clean = fleet_of(1, 60.0, &shared).build().unwrap();
        let clean_summary = clean.run(&RunOpts::noop());

        let mut armed = fleet_of(1, 60.0, &shared)
            .fault_plan(&FaultPlan::default())
            .build()
            .unwrap();
        let summary = armed.run(&RunOpts::noop());
        assert_eq!(summary, clean_summary);
        assert_eq!(summary.crashed, 0);
    }

    #[test]
    fn fleet_faults_crash_and_stall_scheduled_nodes() {
        let plan = FaultPlan::builder()
            .fleet_crash(4, 500_000) // every 4th node dies at t = 0.5 s
            .fleet_stall(3, 300_000) // every 3rd node's daemon hangs 0.3 s
            .build()
            .unwrap();
        let shared: Arc<AppTrace> = Arc::new(trace(3.0, 5.0));
        let mut fleet = fleet_of(4, 60.0, &shared)
            .fault_plan(&plan)
            .build()
            .unwrap();
        let opts = RunOpts::from_fn(|_, _| Decision {
            latency_us: 0,
            rest_us: 500_000,
        });
        let s = fleet.run(&opts);
        // Node 4 (index 3) crashed at 0.5 s; the other three finished.
        assert_eq!(s.crashed, 1);
        assert_eq!(s.completed, 3);
        assert!(!s.nodes[3].completed);
        assert!(s.nodes[3].runtime_s < s.nodes[0].runtime_s);
        assert!((s.nodes[3].runtime_s - 0.5).abs() < 0.1);
    }

    #[test]
    fn staggered_nodes_match_solo_and_extend_makespan() {
        // The first node carries the largest offset, so every other node
        // idles on the shard clock until the horizon reaches its phase.
        const STAGGER_US: [u64; 5] = [1_500_000, 0, 750_000, 250_000, 250_000];
        let shared: Arc<AppTrace> = Arc::new(trace(2.0, 5.0));
        let opts = RunOpts::from_fn(|_, _| Decision {
            latency_us: 0,
            rest_us: 200_000,
        });
        let staggered = |shards: usize| {
            let mut b = FleetSim::builder(60.0).shards(shards);
            for &off in &STAGGER_US {
                b = b.node_at(NodeConfig::intel_a100(), Arc::clone(&shared), off);
            }
            b.build().unwrap()
        };
        let reference = staggered(1).run(&opts);

        // Offsets never perturb a node's own trajectory: every staggered
        // copy is bit-identical to the zero-offset (solo-equivalent) node.
        let mut solo = fleet_of(1, 60.0, &shared).build().unwrap();
        let solo_node = solo.run(&opts).nodes[0].clone();
        for n in &reference.nodes {
            assert_eq!(n, &solo_node);
        }
        // ... but the fleet makespan counts them: last finisher is the
        // 1.5 s-offset node.
        assert!((reference.makespan_s - (1.5 + solo_node.runtime_s)).abs() < 1e-9);

        for shards in [2, 3, 5, 64] {
            assert_eq!(
                staggered(shards).run(&opts),
                reference,
                "shards={shards} diverged"
            );
        }
    }

    #[test]
    fn start_offset_overflow_is_rejected() {
        let shared: Arc<AppTrace> = Arc::new(trace(1.0, 5.0));
        let err = FleetSim::builder(60.0)
            .node_at(NodeConfig::intel_a100(), Arc::clone(&shared), u64::MAX - 1)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            FleetBuildError::StartOffsetOverflow { index: 0, .. }
        ));
        // A large-but-representable offset builds fine.
        assert!(FleetSim::builder(60.0)
            .node_at(NodeConfig::intel_a100(), shared, u64::MAX / 2)
            .build()
            .is_ok());
    }

    #[test]
    fn distribution_percentiles() {
        let vals: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = Distribution::from_values(&vals);
        assert!((d.mean - 50.5).abs() < 1e-9);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p95, 95.0);
        assert_eq!(d.max, 100.0);
        let empty = Distribution::from_values(&[]);
        assert_eq!(empty.max, 0.0);
    }
}
