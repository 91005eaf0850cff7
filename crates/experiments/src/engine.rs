//! Unified trial-execution engine: one typed [`TrialSpec`] API for every
//! experiment path, a scoped-thread scheduler with deterministic
//! reduction, and a content-addressed on-disk result cache.
//!
//! Every figure, table, sweep, and CLI command describes its work as a
//! list of [`TrialSpec`]s — (system × workload × governor ×
//! thresholds × seed) — and hands it to an [`Engine`]:
//!
//! * **Parallel scheduling.** [`Engine::run_suite`] fans independent
//!   trials out over scoped worker threads and collects results *in spec
//!   order*, so the reduction is bit-identical to serial execution (each
//!   trial is a pure function of its spec; see `tests/determinism.rs`).
//! * **Content-addressed caching.** Each spec has a stable hash over its
//!   canonical JSON encoding plus a code-version salt ([`ENGINE_SALT`]).
//!   Outcomes are memoized as JSON under `results/cache/<hash>.json`:
//!   re-running `fig4a` after touching only plotting code skips all
//!   simulation, while any spec field change — or a salt bump — forces a
//!   recompute.
//! * **Streaming reduction.** [`Engine::run_mapped`] digests each
//!   [`TrialOutcome`] *inside the worker that produced it* (recorded
//!   samples and all), so only the caller's reduced value survives —
//!   peak resident outcomes stay O(workers) instead of O(trials).
//!   [`Engine::run_brief`] is the common digest (summary metrics, samples
//!   dropped).
//! * **Observability.** The engine records a per-run manifest
//!   ([`RunManifest`]): every spec's hash and label, cache hit/miss
//!   counts, and wall time, written next to the cache by
//!   [`Engine::finish`]. It also aggregates a metrics registry (trial,
//!   cache, and node counters; see [`Engine::telemetry_snapshot`]) and,
//!   when a `--telemetry` sink will read it ([`Engine::with_telemetry`]),
//!   buffers every trial's decision-event stream for export as JSON
//!   Lines ([`Engine::telemetry_jsonl`]). Trials record node telemetry
//!   only when something will read it: that sink (`--telemetry` or
//!   `run --json`), or the result cache, whose entries keep the events
//!   for later `--telemetry` runs. Recorded values are sim-time-only and
//!   deterministic; wall-clock derived metrics live under the `diag/`
//!   prefix, which [`magus_telemetry::Snapshot::deterministic`] excludes.
//!
//! An engine is configured only through its constructors and builder
//! methods — it reads no environment variable and no process-wide
//! setting. Besides scheduling and caching it owns two trial-level
//! settings that [`Engine::run`] applies to each spec before hashing it: a
//! forced stepping path ([`Engine::with_sim_path`]) and a fault plan for
//! specs that carry none ([`Engine::with_faults`]). The CLI builds all of
//! this from its flags in one call, [`crate::EngineOpts::build_engine`].

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use std::{panic, thread};

use magus_hetsim::{AppTrace, FaultCounters, FaultPlan, NodeConfig, RunSummary};
use magus_runtime::MagusConfig;
use magus_telemetry::{Event, Registry, Snapshot};
use magus_ups::UpsConfig;
use magus_workloads::{app_trace, base_spec, AppId, Platform, TrafficSpec};
use serde::{Deserialize, Serialize};

use crate::drivers::{
    magus_name, FixedUncoreDriver, MagusDriver, NoopDriver, RuntimeDriver, UpsDriver,
};
use crate::harness::{StepMode, SystemId, TrialBuilder, TrialOpts, TrialResult};

/// Code-version salt mixed into every spec hash. Bump the suffix whenever
/// a change alters simulation results without changing any [`TrialSpec`]
/// field — stale cache entries then miss by construction.
///
/// v4: fault injection landed — `TrialSpec` gained the `faults` field and
/// `TrialResult` the fault counters, so pre-fault cache entries must miss.
///
/// v5: the traffic generator landed — `WorkloadSel` gained the
/// `Traffic(TrafficSpec)` variant and `TrialBrief`/`FleetSummary` grew
/// deadline/tenant-energy fields, so pre-traffic cache entries must miss.
/// Traffic trials hash only the *generator parameters* (the spec's serde
/// form); the synthesized trace is recomputed on demand and never hashed.
///
/// v6: on a PCM dropout the HSMP MAGUS driver holds its previous decision,
/// as the Intel driver does, instead of feeding the detector its previous
/// sample, so faulted HSMP trials change under an unchanged spec.
///
/// v7: every governor's uncore write retries each socket on its own
/// instead of repeating the whole actuation, so trials in which a write
/// fault met socket 1 (an even `uncore_write_fail_every` on two sockets)
/// or every write failed change under an unchanged spec.
///
/// v8: the uncore actuation is the node's (`NodeConfig::uncore_actuation`),
/// no longer a governor variant: on the AMD preset MAGUS, UPS and `fixed:`
/// all pin the fabric through the HSMP mailbox, so a spec naming the AMD
/// system with MAGUS, which used to splice `0x620`, now means HSMP pins.
pub const ENGINE_SALT: &str = concat!("magus-engine/v8/", env!("CARGO_PKG_VERSION"));

/// The governor driving a trial — the single runtime selector shared by
/// the CLI parser, the drivers, and every experiment path (one conversion
/// point: [`GovernorSpec::build_driver`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GovernorSpec {
    /// The stock TDP-coupled governor only (no runtime attached).
    Default,
    /// Uncore pinned to a fixed frequency.
    Fixed {
        /// Target frequency (GHz).
        ghz: f64,
    },
    /// MAGUS with the given thresholds, writing the uncore the way its
    /// node takes writes (`0x620` on Intel, HSMP on AMD).
    Magus {
        /// Runtime configuration.
        cfg: MagusConfig,
    },
    /// The UPS baseline with the given parameters.
    Ups {
        /// Runtime configuration.
        cfg: UpsConfig,
    },
}

impl GovernorSpec {
    /// MAGUS with the paper-default thresholds.
    #[must_use]
    pub fn magus_default() -> Self {
        GovernorSpec::Magus {
            cfg: MagusConfig::default(),
        }
    }

    /// UPS with its default parameters.
    #[must_use]
    pub fn ups_default() -> Self {
        GovernorSpec::Ups {
            cfg: UpsConfig::default(),
        }
    }

    /// Display name on `system`, matching the report name of the driver
    /// attached to its node.
    #[must_use]
    pub fn name(&self, system: SystemId) -> String {
        match self {
            GovernorSpec::Default => "default".into(),
            GovernorSpec::Fixed { ghz } => format!("fixed-{ghz:.1}GHz"),
            GovernorSpec::Magus { .. } => magus_name(system.node_config().uncore_actuation).into(),
            GovernorSpec::Ups { .. } => "UPS".into(),
        }
    }

    /// Instantiate the runtime driver — the one place a governor selector
    /// becomes an executable driver.
    #[must_use]
    pub fn build_driver(&self) -> Box<dyn RuntimeDriver> {
        match self {
            GovernorSpec::Default => Box::new(NoopDriver),
            GovernorSpec::Fixed { ghz } => Box::new(FixedUncoreDriver::new(*ghz)),
            GovernorSpec::Magus { cfg } => Box::new(MagusDriver::new(cfg.clone())),
            GovernorSpec::Ups { cfg } => Box::new(UpsDriver::new(cfg.clone())),
        }
    }
}

/// The application (or lack of one) a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSel {
    /// A catalog application at the system platform's scaling.
    App(AppId),
    /// The §6.1 hybrid host+GPU workload of the power-budget study.
    HybridMd,
    /// No application: an idle node for `opts.max_s` (Table 2 protocol).
    Idle,
    /// Node 0 of a multi-tenant traffic expansion: colocated tenants'
    /// Zipf/diurnal/MMPP job queues superposed into one trace (see
    /// `magus_workloads::generator`). Only the generator *parameters*
    /// enter the content hash — the trace is re-expanded on demand.
    Traffic(TrafficSpec),
}

/// One trial, fully specified: hash it, cache it, run it anywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialSpec {
    /// Hardware.
    pub system: SystemId,
    /// Workload.
    pub workload: WorkloadSel,
    /// Governor (runtime + thresholds).
    pub governor: GovernorSpec,
    /// Recording interval and wall-clock budget.
    pub opts: TrialOpts,
    /// Seeded-replication index (§6's ≥5-repetition protocol): perturbs
    /// the node's sensor-noise seed and the workload's jitter seed.
    /// `None` runs the canonical seeds.
    pub replicate: Option<u32>,
    /// Per-socket RAPL PL1 limit (W), programmed before the driver
    /// attaches; `None` = uncapped.
    pub power_cap_w: Option<f64>,
    /// Compute decisions but never actuate (the Table 2 overhead
    /// protocol's "excluding uncore scaling").
    pub monitor_only: bool,
    /// Deterministic fault-injection plan threaded into the node before
    /// the driver attaches (the robustness study). `None` = clean run;
    /// the field is part of the content hash, so faulted and clean
    /// outcomes can never share a cache entry. Old serialized specs omit
    /// the field and deserialize as clean.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultPlan>,
}

impl TrialSpec {
    /// A plain (system × app × governor) trial with default options.
    #[must_use]
    pub fn new(system: SystemId, app: AppId, governor: GovernorSpec) -> Self {
        Self {
            system,
            workload: WorkloadSel::App(app),
            governor,
            opts: TrialOpts::default(),
            replicate: None,
            power_cap_w: None,
            monitor_only: false,
            faults: None,
        }
    }

    /// The §6.1 hybrid workload on Intel+A100 under an optional power cap.
    #[must_use]
    pub fn hybrid(governor: GovernorSpec, power_cap_w: Option<f64>) -> Self {
        Self {
            workload: WorkloadSel::HybridMd,
            power_cap_w,
            ..Self::new(SystemId::IntelA100, AppId::Bfs, governor)
        }
    }

    /// A multi-tenant traffic trial: one node of the `spec` expansion
    /// (node 0), superposing its colocated tenants' job queues. The spec's
    /// parameters — never the expanded trace — enter the content hash, so
    /// sweeps over traffic mixes cache per parameter set.
    #[must_use]
    pub fn traffic(system: SystemId, spec: TrafficSpec, governor: GovernorSpec) -> Self {
        Self {
            workload: WorkloadSel::Traffic(spec),
            ..Self::new(system, AppId::Bfs, governor)
        }
    }

    /// An idle-node trial for `duration_s` (the overhead protocol).
    #[must_use]
    pub fn idle(system: SystemId, governor: GovernorSpec, duration_s: f64) -> Self {
        Self {
            workload: WorkloadSel::Idle,
            opts: TrialOpts {
                record_interval_us: 0,
                max_s: duration_s,
                ..TrialOpts::default()
            },
            ..Self::new(system, AppId::Bfs, governor)
        }
    }

    /// Record the trace at the paper's 0.1 s plot resolution.
    #[must_use]
    pub fn recorded(mut self) -> Self {
        self.opts = TrialOpts {
            record_interval_us: TrialOpts::recorded().record_interval_us,
            ..self.opts
        };
        self
    }

    /// Select a seeded-replication index.
    #[must_use]
    pub fn replicate(mut self, rep: u32) -> Self {
        self.replicate = Some(rep);
        self
    }

    /// Enable monitor-only mode (decisions computed, never actuated).
    #[must_use]
    pub fn monitor_only(mut self) -> Self {
        self.monitor_only = true;
        self
    }

    /// Inject faults from `plan`. Empty plans normalize to `None`, keeping
    /// the spec (and its content hash) identical to a clean trial.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// The node configuration this trial runs on, with the replication
    /// seed perturbation applied.
    #[must_use]
    pub fn node_config(&self) -> NodeConfig {
        let mut cfg = self.system.node_config();
        if let Some(rep) = self.replicate {
            cfg.seed = cfg.seed.wrapping_add(0x9e37_79b9 * (u64::from(rep) + 1));
        }
        cfg
    }

    /// Build the application trace this trial runs (`None` for idle).
    /// Canonical-seed catalog trials share the process-wide interned trace
    /// (synthesized once per `(app, platform)`); replicated trials
    /// re-jitter the workload seed the same way the paper's repeated
    /// hardware runs vary, so they build a private trace.
    #[must_use]
    pub fn build_trace(&self) -> Option<Arc<AppTrace>> {
        match self.workload {
            WorkloadSel::App(app) => Some(match self.replicate {
                None => app_trace(app, self.system.platform()),
                Some(rep) => {
                    let mut spec = base_spec(app);
                    spec.seed = spec.seed.wrapping_add(u64::from(rep));
                    if self.system.platform() != Platform::IntelA100 {
                        spec.util = spec.util.across_gpus(self.system.platform().gpu_count());
                    }
                    Arc::new(spec.build())
                }
            }),
            WorkloadSel::HybridMd => Some(Arc::new(crate::powercap::hybrid_workload())),
            WorkloadSel::Idle => None,
            WorkloadSel::Traffic(spec) => {
                // Replication re-seeds the generator the same way catalog
                // replication re-jitters the workload seed.
                let spec = match self.replicate {
                    None => spec,
                    Some(rep) => spec.with_seed(spec.seed.wrapping_add(u64::from(rep))),
                };
                Some(spec.node_profile(self.system.platform(), 0).trace)
            }
        }
    }

    /// The job deadlines of a traffic trial's node (empty for every other
    /// workload), in the form the deadline-miss accounting consumes.
    #[must_use]
    pub fn traffic_deadlines(&self) -> Vec<magus_hetsim::JobDeadline> {
        let WorkloadSel::Traffic(spec) = self.workload else {
            return Vec::new();
        };
        let spec = match self.replicate {
            None => spec,
            Some(rep) => spec.with_seed(spec.seed.wrapping_add(u64::from(rep))),
        };
        spec.node_profile(self.system.platform(), 0)
            .jobs
            .iter()
            .map(|j| magus_hetsim::JobDeadline {
                work_end_s: j.work_end_s(),
                due_s: j.due_s,
            })
            .collect()
    }

    /// Human-readable label for manifests and logs.
    #[must_use]
    pub fn label(&self) -> String {
        let workload = match self.workload {
            WorkloadSel::App(app) => app.name().to_string(),
            WorkloadSel::HybridMd => "hybrid-md".into(),
            WorkloadSel::Idle => "idle".into(),
            WorkloadSel::Traffic(spec) => {
                format!("traffic#{}x{}t{}", spec.seed, spec.tenants, spec.colocate)
            }
        };
        let mut s = format!(
            "{workload}/{}/{}",
            self.system.name(),
            self.governor.name(self.system)
        );
        if let Some(rep) = self.replicate {
            s.push_str(&format!("#r{rep}"));
        }
        if let Some(w) = self.power_cap_w {
            s.push_str(&format!("@{w:.0}W"));
        }
        if self.monitor_only {
            s.push_str("+monitor");
        }
        if let Some(plan) = &self.faults {
            s.push_str(&format!("+faults#{}", plan.seed));
        }
        s
    }

    /// Stable content hash under the default code-version salt.
    #[must_use]
    pub fn content_hash(&self) -> String {
        spec_hash(self, ENGINE_SALT)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second-lane seed: the FNV offset basis hashed through one prime round,
/// giving an independent 64-bit stream over the same bytes.
const FNV_OFFSET_ALT: u64 = FNV_OFFSET.wrapping_mul(FNV_PRIME) ^ 0x5bd1_e995;

fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable 128-bit content hash of a spec under a salt, as 32 hex chars.
///
/// The spec is hashed through its canonical JSON encoding (field order is
/// declaration order, and every float reads back to the same bits), so
/// equal specs hash equal across processes and any field change produces
/// a new hash. The workspace's dependency policy has no cryptographic
/// hash crate; two independent FNV-1a-64 lanes are ample for cache
/// addressing (collisions are additionally guarded by a full spec
/// equality check on load).
#[must_use]
pub fn spec_hash(spec: &TrialSpec, salt: &str) -> String {
    let json = serde::to_string(spec);
    let mut data = Vec::with_capacity(salt.len() + 1 + json.len());
    data.extend_from_slice(salt.as_bytes());
    data.push(0);
    data.extend_from_slice(json.as_bytes());
    let a = fnv1a64(FNV_OFFSET, &data);
    let b = fnv1a64(FNV_OFFSET_ALT, &data);
    format!("{a:016x}{b:016x}")
}

/// Result of one engine trial: metrics plus trace handles, and where it
/// came from.
#[derive(Debug, Clone, Serialize)]
pub struct TrialOutcome {
    /// The spec that produced this outcome.
    pub spec: TrialSpec,
    /// The spec's content hash under the engine's salt.
    pub spec_hash: String,
    /// Metrics and recorded time series.
    pub result: TrialResult,
    /// Fraction of post-warm-up decision cycles in the high-frequency
    /// locked state (MAGUS-family governors only).
    pub high_freq_fraction: Option<f64>,
    /// Whether this outcome was served from the on-disk cache.
    pub cached: bool,
}

/// Summary-only digest of a [`TrialOutcome`]: everything the sweep-level
/// reductions (fig 4, fig 7, fleet sweeps) consume, minus the recorded
/// time series. Built inside the worker via [`Engine::run_brief`], so the
/// sample vectors never accumulate across a suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialBrief {
    /// Human-readable spec label.
    pub label: String,
    /// The spec's content hash under the engine's salt.
    pub spec_hash: String,
    /// Runtime (governor) name used.
    pub runtime: String,
    /// Run summary (runtime, energy, mean powers, counters).
    pub summary: RunSummary,
    /// Runtime decision invocations during the run.
    pub invocations: u64,
    /// Mean invocation latency (µs).
    pub mean_invocation_us: f64,
    /// High-frequency lock fraction (MAGUS-family governors only).
    pub high_freq_fraction: Option<f64>,
    /// Counts of injected faults, by kind (all zero on clean trials).
    pub fault_counters: FaultCounters,
    /// Jobs carrying deadlines (traffic workloads only; 0 otherwise).
    pub deadline_jobs: u64,
    /// Jobs that missed their deadline. For a solo trial the node either
    /// completed its whole trace (job finish times estimated through the
    /// mean stretch factor) or hit its budget (every job counted missed —
    /// `RunSummary` carries no partial-progress field).
    pub deadline_misses: u64,
    /// Served from the on-disk cache.
    pub cached: bool,
}

impl From<TrialOutcome> for TrialBrief {
    fn from(o: TrialOutcome) -> Self {
        let deadlines = o.spec.traffic_deadlines();
        let deadline_misses = if deadlines.is_empty() {
            0
        } else {
            let progress_s = if o.result.summary.completed {
                o.spec.build_trace().map_or(0.0, |t| t.total_work_s())
            } else {
                0.0
            };
            deadlines
                .iter()
                .filter(|d| {
                    magus_hetsim::deadline_missed(o.result.summary.runtime_s, progress_s, d)
                })
                .count() as u64
        };
        Self {
            label: o.spec.label(),
            spec_hash: o.spec_hash,
            runtime: o.result.runtime,
            summary: o.result.summary,
            invocations: o.result.invocations,
            mean_invocation_us: o.result.mean_invocation_us,
            high_freq_fraction: o.high_freq_fraction,
            fault_counters: o.result.fault_counters,
            deadline_jobs: deadlines.len() as u64,
            deadline_misses,
            cached: o.cached,
        }
    }
}

/// On-disk cache payload: everything needed to reconstruct an outcome,
/// plus the salt and full spec for collision paranoia.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEntry {
    salt: String,
    spec: TrialSpec,
    high_freq_fraction: Option<f64>,
    result: TrialResult,
}

/// One manifest line: what ran, under which hash, and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Human-readable spec label.
    pub label: String,
    /// Spec content hash (the cache key).
    pub hash: String,
    /// Served from cache.
    pub cached: bool,
    /// Wall time spent simulating (0 for cache hits).
    pub wall_s: f64,
}

/// Per-run manifest: the observability record the engine emits so sweeps
/// are auditable and resumable. Serialized as JSON by
/// [`Engine::write_manifest`]; schema documented in DESIGN.md §4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The code-version salt all hashes were computed under.
    pub salt: String,
    /// Worker count the trials were scheduled on ([`Engine::jobs`]).
    pub jobs: usize,
    /// Every trial this engine ran, sorted by label then hash.
    pub trials: Vec<ManifestEntry>,
    /// Trials served from the cache.
    pub cache_hits: usize,
    /// Trials that had to simulate.
    pub cache_misses: usize,
    /// Wall time since the engine was created (s).
    pub wall_s: f64,
}

impl RunManifest {
    /// Cache hit rate in [0, 1]; 0 when nothing ran.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One trial's buffered decision-event stream, labeled for export.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialEvents {
    /// Human-readable spec label ([`TrialSpec::label`]).
    pub label: String,
    /// Decision/actuation events in simulation order.
    pub events: Vec<Event>,
}

#[derive(Debug, Default)]
struct EngineState {
    trials: Vec<ManifestEntry>,
    hits: usize,
    misses: usize,
    events: Vec<TrialEvents>,
}

/// The trial executor: scheduling, caching, and manifest accounting.
#[derive(Debug)]
pub struct Engine {
    salt: String,
    cache_dir: Option<PathBuf>,
    /// Worker count `--jobs` pinned (1 under `--serial`); `None` runs one
    /// worker per CPU.
    jobs: Option<usize>,
    /// Stepping path forced onto every spec (`--sim-path`).
    sim_path: Option<StepMode>,
    /// Fault plan for every spec without one of its own (`--faults`).
    faults: Option<FaultPlan>,
    /// A telemetry sink will read every trial's events
    /// ([`Engine::with_telemetry`]).
    sink: bool,
    state: Mutex<EngineState>,
    started: Instant,
    /// Aggregated metrics: engine counters, node counter roll-ups, and
    /// `diag/` gauges. Deterministic except under the `diag/` prefix.
    registry: Registry,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bucket bounds (GHz) for the aggregated uncore residency histogram —
/// aligned on the testbeds' uncore ranges (0.8–2.5 GHz).
const RESIDENCY_BOUNDS: [f64; 9] = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5];

/// Bucket bounds (s) for the diagnostic per-trial wall-time histogram.
const WALL_BOUNDS: [f64; 7] = [0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0];

impl Engine {
    fn build(cache_dir: Option<PathBuf>) -> Self {
        Self {
            salt: ENGINE_SALT.to_string(),
            cache_dir,
            jobs: None,
            sim_path: None,
            faults: None,
            sink: false,
            state: Mutex::new(EngineState::default()),
            started: Instant::now(),
            registry: Registry::new(),
        }
    }

    /// Engine with no cache, one worker per CPU — pure in-memory
    /// execution, used by library tests and anything that must not touch
    /// the filesystem.
    #[must_use]
    pub fn ephemeral() -> Self {
        Self::build(None)
    }

    /// Engine caching under `dir`, one worker per CPU.
    #[must_use]
    pub fn with_cache(dir: impl Into<PathBuf>) -> Self {
        Self::build(Some(dir.into()))
    }

    /// Run one trial at a time, in spec order (`--serial`): the same as
    /// [`Engine::with_jobs`]`(1)`.
    #[must_use]
    pub fn serial(self) -> Self {
        self.with_jobs(1)
    }

    /// Override the code-version salt (tests use this to model a code
    /// change invalidating the cache).
    #[must_use]
    pub fn with_salt(mut self, salt: impl Into<String>) -> Self {
        self.salt = salt.into();
        self
    }

    /// Run suites on `jobs` workers (`0` = one per CPU). This is the
    /// `--jobs` CLI flag: explicit sizing makes fleet benches reproducible
    /// across machines.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = (jobs > 0).then_some(jobs);
        self
    }

    /// Run every trial on `path`, whatever its spec says (`--sim-path`).
    /// The path is part of the spec hash, so this selects cache entries
    /// exactly as building each spec on `path` would.
    #[must_use]
    pub fn with_sim_path(mut self, path: StepMode) -> Self {
        self.sim_path = Some(path);
        self
    }

    /// Inject `plan` into every trial whose spec carries no plan of its
    /// own (`--faults`); specs with a plan keep it. An empty plan means no
    /// plan, as in [`TrialSpec::with_faults`].
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// A telemetry sink (`--telemetry`, `run --json`) will read this
    /// engine: arm every trial, so each outcome carries its `events` and
    /// `node_telemetry`, and buffer the events for
    /// [`Engine::telemetry_jsonl`]. Without a sink the buffer stays empty,
    /// and only an engine with a cache arms its trials: the entries keep
    /// the events for later `--telemetry` runs.
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.sink = true;
        self
    }

    /// The engine's worker count: what `--jobs` pinned, otherwise one per
    /// CPU.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
    }

    /// The cache directory, when caching is enabled.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The fault plan for specs without one (`--faults`), if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Run one trial: apply the engine's stepping path and fault plan to
    /// the spec, then cache lookup, simulate on miss, store, account. The
    /// outcome carries the spec as run.
    pub fn run(&self, spec: &TrialSpec) -> TrialOutcome {
        let mut spec = spec.clone();
        if let Some(path) = self.sim_path {
            spec.opts.path = path;
        }
        if spec.faults.is_none() {
            spec.faults = self.faults;
        }
        let hash = spec_hash(&spec, &self.salt);
        if let Some(entry) = self.cache_load(&spec, &hash) {
            self.record(&spec, &hash, true, 0.0);
            let outcome = TrialOutcome {
                spec,
                spec_hash: hash,
                result: entry.result,
                high_freq_fraction: entry.high_freq_fraction,
                cached: true,
            };
            self.observe_outcome(&outcome, 0.0);
            return outcome;
        }
        let t0 = Instant::now();
        let mut driver = spec.governor.build_driver();
        if spec.monitor_only {
            driver.set_monitor_only(true);
        }
        let mut trial = TrialBuilder::custom(spec.node_config()).opts(spec.opts);
        if let Some(trace) = spec.build_trace() {
            trial = trial.trace(trace);
        }
        if let Some(w) = spec.power_cap_w {
            trial = trial.power_cap_w(w);
        }
        if let Some(plan) = spec.faults.as_ref() {
            trial = trial.faults(plan);
        }
        if self.sink || self.cache_dir.is_some() {
            trial = trial.arm_telemetry();
        }
        let result = trial.run(driver.as_mut());
        let high_freq_fraction = driver.high_freq_fraction();
        self.cache_store(&spec, &hash, &result, high_freq_fraction);
        let wall_s = t0.elapsed().as_secs_f64();
        self.record(&spec, &hash, false, wall_s);
        let outcome = TrialOutcome {
            spec,
            spec_hash: hash,
            result,
            high_freq_fraction,
            cached: false,
        };
        self.observe_outcome(&outcome, wall_s);
        outcome
    }

    /// Fold one outcome into the metrics registry and, with a sink, the
    /// per-trial event buffer. Everything except `diag/` metrics derives
    /// from simulated state alone, so the aggregation is identical across
    /// serial and parallel runs (counters commute) and across sim paths.
    fn observe_outcome(&self, outcome: &TrialOutcome, wall_s: f64) {
        let r = &self.registry;
        r.inc("engine/trials_total", 1);
        if outcome.cached {
            r.inc("engine/cache_hits", 1);
        } else {
            r.inc("engine/cache_misses", 1);
        }
        r.inc("node/decision_events", outcome.result.events.len() as u64);
        if let Some(nc) = &outcome.result.node_telemetry {
            r.inc("node/uncore_msr_writes", nc.uncore_msr_writes);
            r.inc("node/fastpath_frozen_spans", nc.fastpath_frozen_spans);
            r.inc("node/fastpath_replayed_ticks", nc.fastpath_replayed_ticks);
            r.inc("node/fastpath_invalidations", nc.fastpath_invalidations);
            r.inc("node/events_dropped", nc.events_dropped);
            for &(bin, us) in &nc.residency_us {
                r.observe(
                    "node/uncore_residency_ghz",
                    &RESIDENCY_BOUNDS,
                    f64::from(bin) / 10.0,
                    us,
                );
            }
        }
        // diag/: wall-clock-derived, excluded from determinism checks.
        r.observe("diag/trial_wall_s", &WALL_BOUNDS, wall_s, 1);
        if self.sink && !outcome.result.events.is_empty() {
            let mut state = self.state.lock().expect("engine state");
            state.events.push(TrialEvents {
                label: outcome.spec.label(),
                events: outcome.result.events.clone(),
            });
        }
    }

    /// Run a suite of independent trials. Outcomes come back in spec
    /// order regardless of scheduling, so parallel and serial runs reduce
    /// to bit-identical results.
    ///
    /// This *retains* every full outcome (O(trials) memory) — figures that
    /// need recorded samples want that. Sweeps that only reduce summaries
    /// should use [`Engine::run_brief`] / [`Engine::run_mapped`], which
    /// keep peak memory O(workers).
    pub fn run_suite(&self, specs: &[TrialSpec]) -> Vec<TrialOutcome> {
        self.run_mapped(specs, |_, outcome| outcome)
    }

    /// Run a suite and digest each outcome **inside the worker that
    /// produced it**: `map(index, outcome)` consumes the full
    /// [`TrialOutcome`] (recorded samples included) and only its return
    /// value is collected, in spec order. Peak resident outcomes are
    /// bounded by the worker count, not the suite length.
    ///
    /// Up to [`Engine::jobs`] scoped workers each take the next unclaimed
    /// spec until none is left, so a slow trial never holds up the others;
    /// one worker runs the specs in order on the caller's thread. A panic
    /// in a worker resumes on the caller.
    pub fn run_mapped<R: Send>(
        &self,
        specs: &[TrialSpec],
        map: impl Fn(usize, TrialOutcome) -> R + Sync,
    ) -> Vec<R> {
        let workers = self.jobs().min(specs.len());
        if workers <= 1 {
            return specs
                .iter()
                .enumerate()
                .map(|(i, s)| map(i, self.run(s)))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, R)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(i) else { break };
                            out.push((i, map(i, self.run(spec))));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Run a suite reduced to summary-only [`TrialBrief`]s — the common
    /// streaming digest for sweep-level reductions.
    pub fn run_brief(&self, specs: &[TrialSpec]) -> Vec<TrialBrief> {
        self.run_mapped(specs, |_, outcome| TrialBrief::from(outcome))
    }

    /// Aggregated metrics snapshot: engine counters, node counter
    /// roll-ups, the uncore residency histogram, and `diag/` gauges.
    /// Compare snapshots across runs through
    /// [`magus_telemetry::Snapshot::deterministic`], which drops the
    /// wall-clock-derived `diag/` metrics.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.registry
            .set_gauge("diag/engine_wall_s", self.started.elapsed().as_secs_f64());
        self.registry.set_gauge("diag/jobs", self.jobs() as f64);
        self.registry.snapshot()
    }

    /// Per-trial decision-event streams buffered so far (empty without a
    /// sink, [`Engine::with_telemetry`]), sorted by label (content
    /// tie-break) so serial and parallel runs export identically.
    #[must_use]
    pub fn trial_events(&self) -> Vec<TrialEvents> {
        let state = self.state.lock().expect("engine state");
        export_order(&state.events)
            .into_iter()
            .map(|(t, ..)| t.clone())
            .collect()
    }

    /// All buffered decision events as JSON Lines, one event per line:
    /// `{"trial":…,"t_us":…,"kind":…,"fields":{…}}`, the trial label and
    /// then the event's compact serde bytes after their `{`.
    ///
    /// The rendering is deterministic — trials sort by label, events keep
    /// simulation order, field maps are sorted — so two runs of the same
    /// suite produce byte-identical output regardless of scheduling mode
    /// or sim path. CI's telemetry-regression job diffs exactly this.
    #[must_use]
    pub fn telemetry_jsonl(&self) -> String {
        let state = self.state.lock().expect("engine state");
        let mut out = String::new();
        for (trial, json, places) in export_order(&state.events) {
            for place in places {
                out.push_str("{\"trial\":");
                serde::append(&mut out, &trial.label);
                out.push(',');
                out.push_str(&json[place.start + 1..place.end]);
                out.push('\n');
            }
        }
        out
    }

    /// Write the decision-event stream as JSONL to `path`, plus a
    /// Prometheus-text metrics snapshot beside it (extension `.prom`).
    pub fn write_telemetry(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, self.telemetry_jsonl())?;
        let prom = path.with_extension("prom");
        fs::write(prom, self.telemetry_snapshot().to_prometheus_text())
    }

    fn cache_load(&self, spec: &TrialSpec, hash: &str) -> Option<CacheEntry> {
        let dir = self.cache_dir.as_ref()?;
        let bytes = fs::read(dir.join(format!("{hash}.json"))).ok()?;
        // A corrupt or foreign file is a miss, never an error.
        let entry: CacheEntry = serde::from_slice(&bytes).ok()?;
        (entry.salt == self.salt && entry.spec == *spec).then_some(entry)
    }

    fn cache_store(
        &self,
        spec: &TrialSpec,
        hash: &str,
        result: &TrialResult,
        high_freq_fraction: Option<f64>,
    ) {
        let Some(dir) = self.cache_dir.as_ref() else {
            return;
        };
        let entry = CacheEntry {
            salt: self.salt.clone(),
            spec: spec.clone(),
            high_freq_fraction,
            result: result.clone(),
        };
        let json = serde::to_string(&entry);
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("[engine] cannot create cache dir {}: {e}", dir.display());
            return;
        }
        // Unique temp name + atomic rename: concurrent writers of the
        // same spec race harmlessly to an identical final file.
        let tmp = dir.join(format!(
            "{hash}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = dir.join(format!("{hash}.json"));
        if let Err(e) = fs::write(&tmp, &json).and_then(|()| fs::rename(&tmp, &final_path)) {
            eprintln!("[engine] cache store failed for {hash}: {e}");
            let _ = fs::remove_file(&tmp);
        }
    }

    fn record(&self, spec: &TrialSpec, hash: &str, cached: bool, wall_s: f64) {
        let mut state = self.state.lock().expect("engine state");
        if cached {
            state.hits += 1;
        } else {
            state.misses += 1;
        }
        state.trials.push(ManifestEntry {
            label: spec.label(),
            hash: hash.to_string(),
            cached,
            wall_s,
        });
    }

    /// Snapshot the manifest: every trial so far, hit/miss counts, wall
    /// time. Entries are sorted (label, then hash) so parallel runs emit
    /// stable manifests.
    #[must_use]
    pub fn manifest(&self) -> RunManifest {
        let state = self.state.lock().expect("engine state");
        let mut trials = state.trials.clone();
        trials.sort_by(|a, b| a.label.cmp(&b.label).then_with(|| a.hash.cmp(&b.hash)));
        RunManifest {
            salt: self.salt.clone(),
            jobs: self.jobs(),
            trials,
            cache_hits: state.hits,
            cache_misses: state.misses,
            wall_s: self.started.elapsed().as_secs_f64(),
        }
    }

    /// Write the manifest as pretty JSON to `path`.
    pub fn write_manifest(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, serde::to_string_pretty(&self.manifest()))
    }

    /// One-line run summary for logs.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let m = self.manifest();
        format!(
            "{} trials: {} cache hits, {} misses ({:.0}% hit rate), {:.1} s wall [jobs {}]",
            m.trials.len(),
            m.cache_hits,
            m.cache_misses,
            m.hit_rate() * 100.0,
            m.wall_s,
            m.jobs,
        )
    }

    /// Finish a named run: print the summary to stderr and, when caching
    /// is enabled, write `<cache>/<label>.manifest.json`.
    pub fn finish(&self, label: &str) {
        eprintln!("[engine] {label}: {}", self.summary_line());
        if let Some(dir) = self.cache_dir.as_ref() {
            let path = dir.join(format!("{label}.manifest.json"));
            match self.write_manifest(&path) {
                Ok(()) => eprintln!("[engine] manifest written to {}", path.display()),
                Err(e) => eprintln!("[engine] manifest write failed: {e}"),
            }
        }
    }
}

/// `trials` in export order, each with its events written once as one
/// compact JSON array and each event's place in that text: sorted by
/// label, ties broken by the array, so serial and parallel runs export
/// identically.
fn export_order(trials: &[TrialEvents]) -> Vec<(&TrialEvents, String, Vec<Range<usize>>)> {
    let mut sorted: Vec<_> = trials
        .iter()
        .map(|t| {
            let mut json = String::from("[");
            let places = t
                .events
                .iter()
                .map(|e| {
                    if json.len() > 1 {
                        json.push(',');
                    }
                    let start = json.len();
                    serde::append(&mut json, e);
                    start..json.len()
                })
                .collect();
            json.push(']');
            (t, json, places)
        })
        .collect();
    sorted.sort_by(|(a, a_json, _), (b, b_json, _)| (&a.label, a_json).cmp(&(&b.label, b_json)));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> TrialSpec {
        TrialSpec::new(
            SystemId::IntelA100,
            AppId::Bfs,
            GovernorSpec::magus_default(),
        )
    }

    #[test]
    fn hash_is_stable_across_calls() {
        assert_eq!(base_spec().content_hash(), base_spec().content_hash());
        assert_eq!(base_spec().content_hash().len(), 32);
    }

    #[test]
    fn every_field_change_changes_the_hash() {
        let base = base_spec();
        let variants = vec![
            TrialSpec {
                system: SystemId::Intel4A100,
                ..base.clone()
            },
            TrialSpec {
                system: SystemId::AmdMi210,
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::App(AppId::Srad),
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::HybridMd,
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::Idle,
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::Traffic(magus_workloads::TrafficSpec::default()),
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::Traffic(
                    magus_workloads::TrafficSpec::builder()
                        .seed(1)
                        .build()
                        .unwrap(),
                ),
                ..base.clone()
            },
            TrialSpec {
                workload: WorkloadSel::Traffic(
                    magus_workloads::TrafficSpec::builder()
                        .zipf_exponent(1.5)
                        .build()
                        .unwrap(),
                ),
                ..base.clone()
            },
            TrialSpec {
                governor: GovernorSpec::Default,
                ..base.clone()
            },
            TrialSpec {
                governor: GovernorSpec::Magus {
                    cfg: MagusConfig::pareto_common(),
                },
                ..base.clone()
            },
            base.clone().recorded(),
            TrialSpec {
                opts: TrialOpts {
                    max_s: 500.0,
                    ..TrialOpts::default()
                },
                ..base.clone()
            },
            TrialSpec {
                opts: TrialOpts {
                    path: crate::harness::StepMode::Reference,
                    ..TrialOpts::default()
                },
                ..base.clone()
            },
            base.clone().replicate(0),
            base.clone().replicate(1),
            TrialSpec {
                power_cap_w: Some(95.0),
                ..base.clone()
            },
            base.clone().monitor_only(),
            base.clone().with_faults(
                magus_hetsim::FaultPlan::builder()
                    .pcm_dropout_every(7)
                    .build()
                    .unwrap(),
            ),
            base.clone().with_faults(
                magus_hetsim::FaultPlan::builder()
                    .seed(1)
                    .pcm_dropout_every(7)
                    .build()
                    .unwrap(),
            ),
        ];
        let base_hash = base.content_hash();
        let mut seen = vec![base_hash];
        for v in variants {
            let h = v.content_hash();
            assert!(!seen.contains(&h), "hash collision for {v:?}");
            seen.push(h);
        }
    }

    #[test]
    fn salt_changes_the_hash() {
        let spec = base_spec();
        assert_ne!(spec_hash(&spec, "salt-a"), spec_hash(&spec, "salt-b"));
        assert_eq!(spec_hash(&spec, ENGINE_SALT), spec.content_hash());
    }

    #[test]
    fn governor_names_match_driver_names() {
        let intel = SystemId::IntelA100;
        assert_eq!(GovernorSpec::Default.name(intel), "default");
        assert_eq!(GovernorSpec::Fixed { ghz: 0.8 }.name(intel), "fixed-0.8GHz");
        assert_eq!(GovernorSpec::magus_default().name(intel), "MAGUS");
        assert_eq!(GovernorSpec::ups_default().name(intel), "UPS");
        // MAGUS is named from its node's actuation.
        let amd = SystemId::AmdMi210;
        assert_eq!(GovernorSpec::magus_default().name(amd), "MAGUS/HSMP");
        assert_eq!(GovernorSpec::ups_default().name(amd), "UPS");
        for system in [intel, amd] {
            for g in [
                GovernorSpec::Default,
                GovernorSpec::Fixed { ghz: 0.8 },
                GovernorSpec::magus_default(),
                GovernorSpec::ups_default(),
            ] {
                let mut driver = g.build_driver();
                driver.attach(&mut magus_hetsim::Simulation::new(magus_hetsim::Node::new(
                    system.node_config(),
                )));
                assert_eq!(driver.name(), g.name(system), "{system:?}");
            }
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(base_spec().label(), "bfs/Intel+A100/MAGUS");
        assert_eq!(
            TrialSpec::new(
                SystemId::AmdMi210,
                AppId::Cfd,
                GovernorSpec::magus_default()
            )
            .label(),
            "cfd/AMD+MI210/MAGUS/HSMP"
        );
        assert_eq!(
            TrialSpec::hybrid(GovernorSpec::Default, Some(95.0)).label(),
            "hybrid-md/Intel+A100/default@95W"
        );
        assert_eq!(
            TrialSpec::idle(SystemId::IntelMax1550, GovernorSpec::ups_default(), 10.0)
                .monitor_only()
                .label(),
            "idle/Intel+Max1550/UPS+monitor"
        );
        assert_eq!(base_spec().replicate(3).label(), "bfs/Intel+A100/MAGUS#r3");
        assert_eq!(
            TrialSpec::traffic(
                SystemId::IntelA100,
                magus_workloads::TrafficSpec::builder()
                    .seed(9)
                    .tenants(6)
                    .colocate(3)
                    .build()
                    .unwrap(),
                GovernorSpec::magus_default(),
            )
            .label(),
            "traffic#9x6t3/Intel+A100/MAGUS"
        );
        let faulted = base_spec().with_faults(
            magus_hetsim::FaultPlan::builder()
                .seed(5)
                .pcm_stale_every(4)
                .build()
                .unwrap(),
        );
        assert_eq!(faulted.label(), "bfs/Intel+A100/MAGUS+faults#5");
        // Empty plans normalize away: spec, label, and hash stay clean.
        let clean = base_spec().with_faults(magus_hetsim::FaultPlan::default());
        assert_eq!(clean, base_spec());
        assert_eq!(clean.content_hash(), base_spec().content_hash());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = TrialSpec::hybrid(GovernorSpec::ups_default(), Some(105.0))
            .recorded()
            .replicate(2);
        let json = serde::to_string(&spec);
        let back: TrialSpec = serde::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.content_hash(), spec.content_hash());
    }

    #[test]
    fn jobs_is_the_pinned_count_or_one_per_cpu() {
        let per_cpu = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(Engine::ephemeral().with_jobs(3).jobs(), 3);
        assert_eq!(Engine::ephemeral().with_jobs(0).jobs(), per_cpu);
        assert_eq!(Engine::ephemeral().jobs(), per_cpu);
    }

    #[test]
    fn idle_trial_runs_for_its_duration() {
        let engine = Engine::ephemeral();
        let out = engine.run(&TrialSpec::idle(
            SystemId::IntelA100,
            GovernorSpec::Default,
            2.0,
        ));
        assert!(!out.cached);
        assert!((out.result.summary.runtime_s - 2.0).abs() < 0.05);
        assert!(!out.result.summary.completed);
        assert_eq!(out.result.summary.app, "idle");
    }

    #[test]
    fn telemetry_counts_trials_and_diag_is_excluded() {
        let engine = Engine::ephemeral();
        let specs = vec![
            TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 1.0),
            TrialSpec::idle(SystemId::IntelMax1550, GovernorSpec::Default, 1.0),
        ];
        let _ = engine.run_suite(&specs);
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("engine/trials_total"), Some(2));
        assert_eq!(snap.counter("engine/cache_misses"), Some(2));
        assert!(snap.gauge("diag/jobs").is_some());
        assert!(snap.gauge("diag/engine_wall_s").is_some());
        let det = snap.deterministic();
        assert!(det.gauge("diag/jobs").is_none());
        assert_eq!(det.counter("engine/trials_total"), Some(2));
        let prom = snap.to_prometheus_text();
        assert!(prom.contains("magus_engine_trials_total 2"), "{prom}");
    }

    #[test]
    fn manifest_counts_and_orders_trials() {
        let engine = Engine::ephemeral();
        let specs = vec![
            TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 1.0),
            TrialSpec::idle(SystemId::IntelMax1550, GovernorSpec::Default, 1.0),
        ];
        let outs = engine.run_suite(&specs);
        assert_eq!(outs.len(), 2);
        let m = engine.manifest();
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.trials.len(), 2);
        assert!(m.trials.windows(2).all(|w| w[0].label <= w[1].label));
        assert_eq!(m.hit_rate(), 0.0);
    }
}
