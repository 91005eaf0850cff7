//! Experiment harness: everything needed to regenerate the paper's
//! evaluation (§5–6).
//!
//! * [`engine`] — the trial-execution engine every experiment path goes
//!   through: a [`TrialSpec`] (system × workload × governor × thresholds ×
//!   seed) is content-hashed, scheduled over scoped worker threads with a
//!   deterministic (spec-order) reduction, and memoized in a JSON result cache under
//!   `results/cache/`; each run emits a manifest of hashes and hit/miss
//!   counts.
//! * [`drivers`] — runtime drivers binding MAGUS, UPS, fixed-frequency
//!   policies, and the stock baseline to the simulated node, with realistic
//!   invocation scheduling (measurement latency + rest interval). Every
//!   driver's uncore write goes through one bounded retry, in the form the
//!   node's actuation sets (`0x620` on Intel, HSMP on AMD), so one
//!   [`MagusDriver`] serves Intel and AMD nodes.
//! * [`harness`] — the low-level executor for one (system × application ×
//!   runtime) trial, collecting a [`TrialResult`]: runtime, energy
//!   decomposition, power/throughput/uncore time series, decision
//!   telemetry. Prefer [`Engine::run`] — it adds caching and accounting.
//! * [`metrics`] — the paper's three evaluation metrics (performance loss,
//!   CPU power saving, total energy saving) plus the Jaccard burst-overlap
//!   score of §6.3.
//! * [`pareto`] — Pareto-frontier extraction for the §6.4 sensitivity
//!   sweep.
//! * [`overhead`] — the idle-node overhead measurement of §6.5 (Table 2).
//! * [`figures`] — one function per table/figure, producing the data
//!   `magus figure <name>` prints.
//! * [`fleet`] — the fleet sweep: the catalog under each governor across
//!   an N-node fleet (`magus_hetsim::fleet`), each node's driver running
//!   through the same decision loop as a trial.
//! * [`opts`] — the [`EngineOpts`] parser behind the CLI's global engine
//!   switches (`--jobs`, `--no-cache`, `--serial`, `--sim-path`,
//!   `--telemetry`, `--faults`), and the one call that turns them into an
//!   [`Engine`]. Engine configuration is an explicit value: no
//!   process-wide default and no environment read below the binary,
//!   except `MAGUS_CACHE_DIR` in [`opts`].
//! * [`report`] — plain-text table/series formatting, and
//!   [`report::FIGURES`]: the renderer of every committed
//!   `results/<name>.txt`.
//! * [`amd`] — the §6.6 AMD port: MAGUS on the AMD EPYC + MI210 preset
//!   ([`SystemId::AmdMi210`]), whose HSMP actuation pins Infinity Fabric
//!   P-states.
//! * [`replicate`] — the paper's ≥5-repetition protocol: seeded replicates
//!   with mean ± std aggregation.
//! * [`powercap`] — the §6.1 power-budget argument quantified: uncore
//!   scaling as headroom under a RAPL package power limit.
//! * [`robustness`] — the fault-injection study: seeded sensor/actuator
//!   fault plans (`magus_hetsim::fault`) swept at increasing intensity
//!   across the catalog, measuring how each governor's savings and
//!   performance degrade relative to a clean run.
//! * [`traffic`] — the multi-tenant traffic study: seeded
//!   `magus_workloads::generator` traffic shapes (light/steady/diurnal/
//!   bursty) swept across governor fleets, measuring energy savings and
//!   deadline misses under load instead of on solo traces.
//!
//! Trials are deterministic; suite-level sweeps fan out across trials on
//! scoped worker threads (each trial owns its simulation, so parallelism is
//! embarrassing), and parallel suites reduce bit-identically to serial ones.

pub mod amd;
pub mod drivers;
pub mod engine;
pub mod figures;
pub mod fleet;
pub mod harness;
pub mod metrics;
pub mod opts;
pub mod overhead;
pub mod pareto;
pub mod powercap;
pub mod replicate;
pub mod report;
pub mod robustness;
pub mod traffic;

pub use drivers::{FixedUncoreDriver, MagusDriver, NoopDriver, RuntimeDriver, UpsDriver};
pub use engine::{
    spec_hash, Engine, GovernorSpec, RunManifest, TrialBrief, TrialOutcome, TrialSpec, WorkloadSel,
    ENGINE_SALT,
};
pub use fleet::{
    build_fleet, fleet_sweep, fleet_telemetry_jsonl, governor_run_opts, run_fleet,
    run_fleet_keeping, run_fleet_with_telemetry, FleetRun, FleetSpec,
};
pub use harness::{run_trial, StepMode, SystemId, TrialBuilder, TrialOpts, TrialResult};
pub use metrics::{burst_jaccard, Comparison};
pub use opts::EngineOpts;
pub use pareto::{pareto_frontier, ParetoPoint};
pub use traffic::{
    render_traffic_report, traffic_study, traffic_study_for_tiers, GovernorRow, TrafficEval,
    TrafficTier,
};
