//! Sharded fleet simulation that steps each distinct node trajectory once,
//! and [`run_node`], the one decision loop every trial and fleet node runs.
//!
//! The paper's target is cluster-wide power waste: MAGUS is meant to run on
//! every node of a GPU-dominant fleet, and the interesting quantities
//! (aggregate uncore energy, the distribution of per-node waste, fleet
//! makespan) only exist across many nodes. [`FleetSim`] steps N independent
//! nodes to completion; at the 100k-node scale the roadmap targets, the
//! kernel is organized around five ideas:
//!
//! * **One decision loop.** [`run_node`] is the runtime schedule of the
//!   paper's Algorithm 3: attach the decider, decide at once, then again at
//!   every `now + latency + rest` deadline, stepping the node on the chosen
//!   [`StepMode`] in between. The single-node trial harness calls it, and so
//!   does every stepped fleet node, from its start to its finish; a fleet
//!   node is a trial by construction.
//! * **One run per trajectory.** Nodes added with [`FleetBuilder::node`] or
//!   [`FleetBuilder::node_at`] carry a trajectory key: their config
//!   (interned bit for bit by [`FleetBuilder`]), the address of their shared
//!   trace, and whether the fleet fault plan crashes or stalls them. Under
//!   a [`RunOpts::uniform`] decider factory, which never sees the node
//!   index, two nodes with one key start in the same state and take the
//!   same decisions, so they end in the same state. [`FleetSim::run`]
//!   therefore steps only the lowest-index node of each key and gives
//!   every twin a clone of its final `Simulation`. Start offsets, job
//!   deadlines and tenant shares stay out of the key: they never reach a
//!   node's own timeline, only the summary. Nodes added with
//!   [`FleetBuilder::sim`], and runs whose factory takes the index
//!   ([`RunOpts::new`], [`RunOpts::from_fn`]), never share.
//! * **Shards are runs of nodes, not clocks.** The stepped nodes are
//!   partitioned into contiguous runs of ascending index, one per shard,
//!   each on its own scoped thread, which runs its nodes one after another.
//!   Fleet nodes never interact, so no node waits for another and the
//!   partition cannot change what any node computes.
//! * **Ordered sums.** The makespan is an order-free `max` over finish
//!   times. Reductions that are *not* reorder-safe — the fleet's f64 energy
//!   sums — stay in node-index order: f64 addition is non-associative, and
//!   the summary fold order is part of the bit-identity contract (asserted
//!   by `tests/fleet.rs`).
//! * **Start offsets.** Nodes added with [`FleetBuilder::node_at`] start
//!   later on the fleet clock (a staggered fleet). A node runs on its own
//!   *local* clock, exactly as alone; only the fleet makespan sees its
//!   offset.
//!
//! Sharing copies whole runs, never rounds. A twin is not stepped, decided
//! or checked; it costs one clone when its representative finishes. The
//! per-round dedup this kernel once had replayed rounds instead, so every
//! follower still decided and was verified each round, which cost more
//! than stepping it (DESIGN.md, "Fleet kernel"). With twins copying whole
//! runs, a lockstep shard clock has nothing left to synchronize: it would
//! only cut each node's spans at its neighbours' deadlines.
//!
//! Construction goes through the validating [`FleetBuilder`]; execution is
//! a single [`FleetSim::run`] taking [`RunOpts`] (stepping mode + a
//! [`NodeDecider`] factory). Traces are shared `Arc`s (see
//! `magus_workloads::intern`), so a 100k-node fleet running the catalog
//! holds one trace allocation per distinct workload, not per node.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::{panic, thread};

use serde::{Deserialize, Serialize};

use crate::config::ConfigBits;
use crate::fault::{FaultCounters, FaultPlan, FaultPlanError, FleetFaults};
use crate::node::FastForward;
use crate::sim::{RunSummary, Simulation};
use crate::workload::AppTrace;
use crate::{Node, NodeConfig};

/// One runtime decision's scheduling outcome, as reported by a
/// [`NodeDecider`] (what `RuntimeDriver::on_decision` and
/// `rest_interval_us` report together).
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

/// Per-node decision logic, as [`run_node`] fires it.
///
/// [`NodeDecider::attach`] runs before the first tick, then
/// [`NodeDecider::decide`] immediately and again at each
/// `now + latency + rest` deadline. In a fleet, one decider is created per
/// stepped node (by the [`RunOpts`] factory) inside the node's shard task,
/// so implementations need no `Send` bound of their own: they are created,
/// used, and dropped on one thread.
pub trait NodeDecider {
    /// One-time hook before the node starts stepping (attach a driver,
    /// program a power cap, ...). Default: nothing.
    fn attach(&mut self, _sim: &mut Simulation) {}

    /// Fire one runtime decision and report its scheduling outcome.
    fn decide(&mut self, sim: &mut Simulation) -> Decision;
}

/// Which stepping path [`run_node`] takes between decisions, for trials
/// and fleet nodes alike. Both are bit-identical; `Fast` macro-steps frozen
/// inter-event spans, and `Reference` steps tick by tick: it is the ground
/// truth the fast path is audited against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StepMode {
    /// Per-tick reference stepping (`Simulation::step`).
    Reference,
    /// Event-horizon macro-stepping (`Simulation::advance_until`).
    #[default]
    Fast,
}

/// One node's share of a fleet fault plan, on the node's own clock. The
/// default is a clean node, as every trial is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFaults {
    /// The node crashes once its clock reaches this instant (µs).
    pub crash_at_us: Option<u64>,
    /// Added to every decision deadline (µs): a hung runtime daemon.
    pub stall_us: u64,
}

impl NodeFaults {
    /// Global node `idx`'s share of the fleet schedules `faults`.
    fn of(idx: usize, faults: Option<FleetFaults>) -> Self {
        let Some(f) = faults else {
            return Self::default();
        };
        Self {
            crash_at_us: fault_scheduled(idx, f.crash_every).then_some(f.crash_at_us),
            stall_us: if fault_scheduled(idx, f.stall_every) {
                f.stall_us
            } else {
                0
            },
        }
    }
}

/// What one [`run_node`] did, apart from the state it left in the
/// simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeRun {
    /// Runtime decisions fired.
    pub decisions: u64,
    /// Their summed latency (µs).
    pub latency_us: u64,
    /// Simulator ticks stepped.
    pub ticks: u64,
    /// Macro-steps taken: one per stretch stepped between two events.
    pub macro_steps: u64,
    /// The node's crash instant ended the run.
    pub crashed: bool,
}

/// Run `sim` from its current instant to the end of its run under
/// `decider`: the one decision loop behind every trial and fleet node.
///
/// The decider attaches and decides at once, then again at every
/// `now + latency + rest` deadline, plus `faults.stall_us`. Between
/// deadlines the node steps on `mode` to its next event: the deadline, the
/// end of `budget_us`, or `faults.crash_at_us`, and always at least one
/// tick. The run ends when the application completes, the budget is spent,
/// or the clock reaches the crash instant. The crash is checked first, so
/// a node that finishes on the crash tick counts as crashed.
///
/// Both modes visit the same ticks and decide at the same instants; `Fast`
/// macro-steps each stretch ([`Simulation::advance_until`]), which replays
/// frozen spans instead of re-deriving them.
pub fn run_node(
    sim: &mut Simulation,
    decider: &mut dyn NodeDecider,
    mode: StepMode,
    budget_us: u64,
    faults: NodeFaults,
) -> NodeRun {
    decider.attach(sim);
    let tick_us = sim.node().config().tick_us;
    let end_us = sim.node().time_us().saturating_add(budget_us);
    let crash_at_us = faults.crash_at_us.unwrap_or(u64::MAX);
    let mut due_us = sim.node().time_us();
    let mut ff = FastForward::new();
    let mut run = NodeRun::default();
    loop {
        let now_us = sim.node().time_us();
        if now_us >= crash_at_us {
            run.crashed = true;
            break;
        }
        if sim.done() || now_us >= end_us {
            break;
        }
        if now_us >= due_us {
            let d = decider.decide(sim);
            run.decisions += 1;
            run.latency_us += d.latency_us;
            // Re-read the clock: the decide hook owns the simulation while
            // it runs.
            due_us = d
                .next_due(sim.node().time_us())
                .saturating_add(faults.stall_us);
        }
        let before_us = sim.node().time_us();
        let goal_us = due_us
            .min(end_us)
            .min(crash_at_us)
            .max(before_us.saturating_add(1));
        match mode {
            StepMode::Fast => sim.advance_until(goal_us, &mut ff),
            StepMode::Reference => {
                while !sim.done() && sim.node().time_us() < goal_us {
                    sim.step();
                }
            }
        }
        run.ticks += (sim.node().time_us() - before_us) / tick_us;
        run.macro_steps += 1;
    }
    run
}

/// Factory producing one boxed [`NodeDecider`] per global node index.
pub type DeciderFactory = Arc<dyn Fn(usize) -> Box<dyn NodeDecider> + Send + Sync>;

/// Options for one [`FleetSim::run`]: the stepping mode and the per-node
/// decider factory. The factory is called with each stepped node's
/// *global* index from inside that node's shard task.
#[derive(Clone)]
pub struct RunOpts {
    mode: StepMode,
    deciders: DeciderFactory,
    /// The factory ignores the node index, so every node's decider starts
    /// the same and nodes with one trajectory key share one run.
    index_free: bool,
}

impl RunOpts {
    /// Run options with a per-node decider factory (fast path by default).
    /// The factory may depend on the index, so every node steps.
    #[must_use]
    pub fn new(factory: impl Fn(usize) -> Box<dyn NodeDecider> + Send + Sync + 'static) -> Self {
        Self {
            mode: StepMode::default(),
            deciders: Arc::new(factory),
            index_free: false,
        }
    }

    /// Run options whose factory never sees the node index: every node
    /// gets an identical decider, so [`FleetSim::run`] steps each distinct
    /// trajectory once and copies its final state to the nodes that repeat
    /// it (fast path by default).
    #[must_use]
    pub fn uniform(factory: impl Fn() -> Box<dyn NodeDecider> + Send + Sync + 'static) -> Self {
        Self {
            index_free: true,
            ..Self::new(move |_| factory())
        }
    }

    /// Run options adapting one stateless closure as every node's decider:
    /// `f(global_index, sim) -> Decision`. The closure sees the index, so
    /// every node steps.
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
        struct Noop;
        impl NodeDecider for Noop {
            fn decide(&mut self, _sim: &mut Simulation) -> Decision {
                Decision {
                    latency_us: 0,
                    rest_us: u64::MAX,
                }
            }
        }
        Self::uniform(|| Box::new(Noop))
    }

    /// Builder: select the stepping mode.
    #[must_use]
    pub fn with_mode(mut self, mode: StepMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declare the factory index-free, as [`RunOpts::uniform`] does; the
    /// key itself is unused. Kept only for the benchmark probe, whose
    /// factory ignores the index, so that it times the sharing the CLI's
    /// own run options get.
    #[deprecated(note = "build index-free run options with RunOpts::uniform")]
    #[must_use]
    pub fn with_decider_key(mut self, _key: u64) -> Self {
        self.index_free = true;
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
            .field("index_free", &self.index_free)
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
    /// µs clock (`u64`), so its finish time on the fleet clock could
    /// overflow.
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
    /// Per-node trajectory key of `node`/`node_at` nodes: (config class,
    /// trace address). `None` for `.sim()` nodes, which never share.
    keys: Vec<Option<(u32, usize)>>,
    /// The config intern table: each distinct config, bit for bit, and its
    /// class.
    configs: HashMap<ConfigBits, u32>,
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
            keys: Vec::new(),
            configs: HashMap::new(),
        }
    }

    /// Partition the stepped nodes into `shards` contiguous runs stepped in
    /// parallel (clamped to the stepped-node count at run time). Results
    /// are bit-identical for every shard count.
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
    ///
    /// Nodes whose configs are equal bit for bit and whose traces are one
    /// allocation share a trajectory key: under [`RunOpts::uniform`] the
    /// fleet steps the first of them and copies its result to the others.
    #[must_use]
    pub fn node_at(
        mut self,
        config: NodeConfig,
        trace: impl Into<Arc<AppTrace>>,
        start_offset_us: u64,
    ) -> Self {
        let trace = trace.into();
        let config = ConfigBits(config);
        let class = match self.configs.get(&config) {
            Some(&class) => class,
            None => {
                let class = self.configs.len() as u32;
                self.configs.insert(config.clone(), class);
                class
            }
        };
        let key = (class, Arc::as_ptr(&trace).addr());
        let mut sim = Simulation::new(Node::new(config.0));
        sim.load(trace);
        self.push(sim, start_offset_us, Some(key))
    }

    /// Append one node with empty traffic metadata.
    fn push(mut self, sim: Simulation, start_offset_us: u64, key: Option<(u32, usize)>) -> Self {
        self.keys.push(key);
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
    /// limit, ...) with a zero start offset. It must still be at t=0. Its
    /// state is opaque to the fleet, so it never shares a run.
    #[must_use]
    pub fn sim(self, sim: Simulation) -> Self {
        self.sim_at(sim, 0)
    }

    /// [`FleetBuilder::sim`] starting `start_offset_us` microseconds into
    /// the fleet run, as [`FleetBuilder::node_at`] staggers a node.
    #[must_use]
    pub fn sim_at(self, sim: Simulation, start_offset_us: u64) -> Self {
        self.push(sim, start_offset_us, None)
    }

    /// No-op: sharing depends only on the run's decider factory (see
    /// [`RunOpts::uniform`]). Kept only so the benchmark probe builds,
    /// until the next benchmark change drops it.
    #[deprecated(note = "sharing needs no switch; this does nothing")]
    #[must_use]
    pub fn dedup(self, _on: bool) -> Self {
        self
    }

    /// Arm fault injection for the whole fleet: every node gets the
    /// node-level portion of the plan (sensor/actuator faults, same
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
            // A node finishes on the fleet clock at `offset + runtime`, with
            // the runtime at most the budget; keep that strictly below
            // `u64::MAX`.
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
        Ok(FleetSim {
            runs: vec![NodeRun::default(); sims.len()],
            sims,
            start_offset_us: self.offsets,
            rep: representatives(&self.keys, fleet_faults),
            budget_us,
            shards: self.shards,
            fleet_faults,
            shard_stats: Vec::new(),
            deadlines: self.deadlines,
            tenant_shares: self.tenant_shares,
        })
    }
}

/// Each node's representative: the lowest-index node with its trajectory
/// key, or the node itself for a `.sim()` node. The key is the (config
/// class, trace address) pair `FleetBuilder` recorded plus the node's fleet
/// crash and stall membership, which hangs on its global index.
fn representatives(keys: &[Option<(u32, usize)>], faults: Option<FleetFaults>) -> Vec<usize> {
    let mut first = HashMap::new();
    keys.iter()
        .enumerate()
        .map(|(i, key)| {
            let Some((config, trace)) = *key else {
                return i;
            };
            let faulted = faults.map(|f| {
                (
                    fault_scheduled(i, f.crash_every),
                    fault_scheduled(i, f.stall_every),
                )
            });
            *first.entry((config, trace, faulted)).or_insert(i)
        })
        .collect()
}

/// Per-shard counters from one [`FleetSim::run`]. They depend on how the
/// stepped nodes are partitioned, so they live here rather than in
/// [`FleetSummary`], which must be bit-identical across shard counts. A
/// shard steps a contiguous run of the fleet's stepped nodes; the twins of
/// those nodes are counted as its nodes but never stepped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Global index of the first node this shard steps.
    pub base: usize,
    /// Nodes this shard's runs cover: the nodes it steps and their twins.
    pub nodes: usize,
    /// Macro-steps the shard's stepped nodes took ([`NodeRun::macro_steps`]).
    pub rounds: u64,
    /// Runtime decisions this shard fired. Twins copy theirs, so only
    /// [`FleetSummary::decisions`] counts every node's.
    pub decisions: u64,
    /// Simulator ticks this shard advanced (twins' ticks are copied, as
    /// for `decisions`).
    pub node_steps: u64,
    /// Trajectories stepped: one per node this shard steps.
    #[serde(default)]
    pub classes: u64,
    /// Macro-steps stepped: the same count as `rounds`.
    #[serde(default)]
    pub rep_node_rounds: u64,
    /// Macro-steps copied: each stepped node's macro-steps times its twin
    /// count.
    #[serde(default)]
    pub replayed_node_rounds: u64,
    /// Always 0: a node's twins are fixed when the fleet is built and never
    /// leave it. Kept only so the benchmark probe builds, until the next
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

/// N independent nodes stepped to completion across shards, each distinct
/// trajectory once. Build with [`FleetBuilder`]; run with
/// [`FleetSim::run`].
#[derive(Debug)]
pub struct FleetSim {
    sims: Vec<Simulation>,
    /// Per-node start offset (µs) on the fleet clock; see
    /// [`FleetBuilder::node_at`].
    start_offset_us: Vec<u64>,
    /// Each node's representative: the lowest-index node with its
    /// trajectory key (the node itself when it has none or is first).
    rep: Vec<usize>,
    /// Each node's outcome from the most recent run.
    runs: Vec<NodeRun>,
    budget_us: u64,
    /// Requested shard count (clamped to the stepped-node count at run
    /// time).
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

    /// Per-shard counters from the most recent [`FleetSim::run`] (empty
    /// before the first run).
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

    /// Run every node to completion (or its budget, or its crash): one
    /// decider per stepped node, fired by [`run_node`] exactly as in a
    /// single-node trial.
    ///
    /// Each node's trajectory is bit-identical to running it alone with the
    /// same decision schedule — for every shard count and both stepping
    /// modes. With an index-free factory ([`RunOpts::uniform`]) only the
    /// lowest-index node of each trajectory key steps, and every twin then
    /// takes a clone of its final `Simulation` (telemetry and fault
    /// counters included) and outcome: the twin would have computed exactly
    /// that. Shards run disjoint contiguous runs of the stepped nodes, one
    /// scoped thread each, node after node. A panic in a shard resumes on
    /// the caller.
    pub fn run(&mut self, opts: &RunOpts) -> FleetSummary {
        let n = self.sims.len();
        let rep_of = |i: usize| if opts.index_free { self.rep[i] } else { i };
        let mut twins = vec![0u64; n];
        for i in 0..n {
            if rep_of(i) != i {
                twins[rep_of(i)] += 1;
            }
        }
        // The builder rejects empty fleets, and node 0 always steps.
        let stepped = n - twins.iter().sum::<u64>() as usize;
        let shards = self.shards.clamp(1, stepped);
        // Deal the stepped nodes to shards in ascending index order.
        // Remainder nodes spread one-per-shard from the front, so no shard
        // is empty and sizes differ by at most one.
        let mut nodes = self
            .sims
            .iter_mut()
            .zip(&mut self.runs)
            .enumerate()
            .filter(|&(i, _)| rep_of(i) == i);
        let parts: Vec<Vec<_>> = (0..shards)
            .map(|shard| {
                let take = stepped / shards + usize::from(shard < stepped % shards);
                nodes.by_ref().take(take).collect()
            })
            .collect();
        let (budget_us, faults, twins) = (self.budget_us, self.fleet_faults, &twins);
        let run_shard = |shard: usize, part: Vec<(usize, (&mut Simulation, &mut NodeRun))>| {
            let mut stats = ShardStats {
                shard,
                base: part[0].0,
                nodes: part.iter().map(|&(i, _)| 1 + twins[i] as usize).sum(),
                classes: part.len() as u64,
                ..ShardStats::default()
            };
            for (idx, (sim, run)) in part {
                let mut decider = (opts.deciders)(idx);
                let faults = NodeFaults::of(idx, faults);
                *run = run_node(sim, decider.as_mut(), opts.mode, budget_us, faults);
                stats.rounds += run.macro_steps;
                stats.rep_node_rounds += run.macro_steps;
                stats.replayed_node_rounds += run.macro_steps * twins[idx];
                stats.decisions += run.decisions;
                stats.node_steps += run.ticks;
            }
            stats
        };
        self.shard_stats = if shards == 1 {
            parts.into_iter().map(|part| run_shard(0, part)).collect()
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .enumerate()
                    .map(|(shard, part)| scope.spawn(move || run_shard(shard, part)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                    .collect()
            })
        };
        // Twins follow their representative, which always has the lower
        // index and so is final by the time the twin is reached.
        for i in 0..n {
            let r = rep_of(i);
            if r != i {
                self.sims[i] = self.sims[r].clone();
                self.runs[i] = self.runs[r];
            }
        }
        self.summarize()
    }

    /// Build the fleet summary from the current node states. The f64
    /// energy sums fold in node-index order (f64 addition is
    /// non-associative, and this order is part of the bit-identity
    /// contract); the makespan is an order-free max. Makespan
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
            decisions: self.runs.iter().map(|r| r.decisions).sum(),
            node_steps: self.runs.iter().map(|r| r.ticks).sum(),
            node_progress_s: self.sims.iter().map(Simulation::progress_s).collect(),
            crashed: self.runs.iter().filter(|r| r.crashed).count(),
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
            // the single-node run.
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
    fn shard_stats_count_rounds() {
        // A coarse-tick node paired with a fine-tick, fast-deciding node:
        // each runs its own schedule, and the shard sums their counts.
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
        assert_eq!(stats[0].decisions, s.decisions);
        assert_eq!(stats[0].node_steps, s.node_steps);
        // The factory sees the index, so every node steps: one trajectory
        // per node, nothing copied.
        assert_eq!(stats[0].classes, 2);
        assert!(stats[0].rep_node_rounds >= stats[0].rounds);
        assert_eq!(stats[0].replayed_node_rounds, 0);
        assert_eq!(stats[0].class_evictions, 0);
        assert_eq!(s.node_progress_s.len(), 2);
        assert!(s.node_progress_s.iter().all(|&p| p > 0.0));

        // A homogeneous fleet under an index-free factory steps one node
        // and copies its rounds to the other two.
        let shared: Arc<AppTrace> = Arc::new(trace(100.0, 5.0));
        let mut fleet = fleet_of(3, 2.0, &shared).build().unwrap();
        let s = fleet.run(&RunOpts::noop());
        let stats = fleet.shard_stats()[0];
        assert_eq!((stats.nodes, stats.classes), (3, 1));
        assert!(stats.rep_node_rounds > 0);
        assert_eq!(stats.replayed_node_rounds, 2 * stats.rep_node_rounds);
        assert_eq!((stats.decisions, s.decisions), (1, 3));
        assert_eq!(s.node_steps, 3 * stats.node_steps);
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
        // The first node carries the largest offset; offsets reach only
        // the makespan.
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
