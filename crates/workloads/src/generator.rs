//! Stochastic multi-tenant traffic generator: seeded distributions over
//! the application catalog, expanded into per-node colocated phase traces.
//!
//! The paper evaluates MAGUS one application at a time; the cluster
//! question — *what does uncore scaling save under real traffic?* — needs
//! the workload shape of many users sharing a heterogeneous fleet. A
//! [`TrafficSpec`] describes that shape with a handful of parameters:
//!
//! * **Zipf-skewed app popularity.** Tenants draw applications from the
//!   24-app catalog with probability ∝ `1/rank^s`; the rank order is a
//!   seed-determined permutation of the catalog, so different seeds make
//!   different apps "hot" while the skew stays controlled by
//!   [`TrafficSpec::zipf_exponent`].
//! * **Diurnal arrivals.** Job inter-arrival gaps are exponential with
//!   mean [`TrafficSpec::mean_gap_s`], thinned by a sinusoidal rate
//!   envelope `1 + amplitude·sin(2πt/period)` ([`DiurnalSpec`]) — the
//!   day/night swing, compressed to simulation scale.
//! * **Bursty arrivals.** A two-state Markov-modulated Poisson process
//!   ([`MmppSpec`]) multiplies the arrival rate by `burst_rate_mult`
//!   while in the burst state; state flips are drawn per job from
//!   `p_enter_burst` / `p_exit_burst`.
//! * **Job queues with deadlines.** Each tenant runs its jobs through a
//!   busy-server queue (a job starts at `max(arrival, previous end)`);
//!   every job carries a deadline `arrival + work × deadline_slack`
//!   ([`QueueSpec`]), the metric surface for deadline-miss reporting.
//! * **Colocation.** [`TrafficSpec::colocate`] tenants share each node;
//!   their timelines superpose through the [`Demand`] model (bandwidth
//!   demands add, boundedness fractions combine demand-weighted), so
//!   colocated bursts contend for memory bandwidth exactly as the
//!   simulator's `MemoryChannel` resolves contention.
//!
//! # Determinism rules
//!
//! Expansion is bit-reproducible by construction, under the same four
//! rules the fault layer uses (see `magus_hetsim::fault`):
//!
//! 1. **Counted draws.** Every job consumes exactly three RNG draws
//!    (app, gap, burst-state) regardless of the values drawn, and the
//!    popularity permutation consumes a fixed count at spec scope — no
//!    draw is conditional on simulated state, so serial/parallel and
//!    fast/reference runs see identical traffic.
//! 2. **Per-tenant sub-seeds.** Each tenant's stream comes from its own
//!    `SmallRng` seeded by a splitmix64 mix of [`TrafficSpec::seed`] and
//!    the tenant id — a tenant's jobs do not depend on which node hosts
//!    it or who it is colocated with.
//! 3. **Params, never the trace.** Cache keys (trial-spec hashes) cover
//!    the `TrafficSpec` fields only; the expanded trace is recomputed on
//!    demand and never hashed or persisted, so sweeps over traffic mixes
//!    cache on the generator parameters.
//! 4. **Shared expansion.** Nodes with the same tenant set receive the
//!    *same* `Arc<AppTrace>` allocation from [`TrafficSpec::expand`], so
//!    a fleet holds one trace per distinct tenant set, as catalog fleets
//!    hold one per app.
//!
//! Specs are built through the validating [`TrafficSpecBuilder`]:
//!
//! ```
//! use magus_workloads::generator::TrafficSpec;
//! use magus_workloads::Platform;
//!
//! let spec = TrafficSpec::builder()
//!     .seed(7)
//!     .tenants(4)
//!     .colocate(2)
//!     .zipf_exponent(1.1)
//!     .jobs_per_tenant(2)
//!     .build()
//!     .unwrap();
//!
//! // Same seed → bit-identical expansion, and nodes with the same
//! // tenant set share one trace allocation.
//! let a = spec.expand(Platform::IntelA100, 3);
//! let b = spec.expand(Platform::IntelA100, 3);
//! assert_eq!(a.profiles.len(), 3);
//! for (x, y) in a.profiles.iter().zip(&b.profiles) {
//!     assert_eq!(x.trace, y.trace);
//!     assert_eq!(x.jobs, y.jobs);
//! }
//! assert!(std::sync::Arc::ptr_eq(
//!     &a.profiles[0].trace,
//!     &a.profiles[spec.distinct_profiles()].trace,
//! ));
//!
//! // Malformed specs are rejected with a typed error.
//! assert!(TrafficSpec::builder().tenants(0).build().is_err());
//! assert!(TrafficSpec::builder().zipf_exponent(0.0).build().is_err());
//! assert!(TrafficSpec::builder().deadline_slack(0.5).build().is_err());
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use magus_hetsim::workload::PhaseKind;
use magus_hetsim::{AppTrace, Demand, GpuUtilVec, Phase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::catalog::{AppId, Platform};
use crate::intern::app_trace;

/// Sinusoidal arrival-rate envelope: `rate × (1 + amplitude·sin(2πt/T))`.
/// The day/night swing of interactive traffic, compressed to simulation
/// scale (the default period is 240 s, not 24 h).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct DiurnalSpec {
    /// Envelope period (s); must be positive and finite.
    pub period_s: f64,
    /// Relative swing in `[0, 1]`: 0 = flat arrivals, 1 = rate varies
    /// between ~0 and 2× the mean.
    pub amplitude: f64,
}

impl Default for DiurnalSpec {
    fn default() -> Self {
        Self {
            period_s: 240.0,
            amplitude: 0.0,
        }
    }
}

/// Two-state Markov-modulated Poisson process on arrivals: while in the
/// burst state the arrival rate is multiplied by `burst_rate_mult`. State
/// transitions are drawn once per job (a counted draw), so the schedule
/// is independent of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct MmppSpec {
    /// Arrival-rate multiplier while bursting (≥ 1; 1 = no effect).
    pub burst_rate_mult: f64,
    /// Per-job probability of entering the burst state from normal.
    pub p_enter_burst: f64,
    /// Per-job probability of leaving the burst state.
    pub p_exit_burst: f64,
}

impl Default for MmppSpec {
    fn default() -> Self {
        Self {
            burst_rate_mult: 1.0,
            p_enter_burst: 0.0,
            p_exit_burst: 1.0,
        }
    }
}

/// Per-tenant job-queue shape: how many jobs, how big, and how tight the
/// deadlines are.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct QueueSpec {
    /// Jobs each tenant submits.
    pub jobs_per_tenant: u32,
    /// Job work content as a fraction of the drawn application's full
    /// catalog trace (0 < scale; 0.2 ≈ a few seconds per job).
    pub job_scale: f64,
    /// Deadline slack factor: a job due at `arrival + work × slack`.
    /// Must be ≥ 1 — a slack below 1 makes every deadline unmeetable
    /// even on an idle node, which the builder rejects.
    pub deadline_slack: f64,
}

impl Default for QueueSpec {
    fn default() -> Self {
        Self {
            jobs_per_tenant: 3,
            job_scale: 0.2,
            deadline_slack: 2.5,
        }
    }
}

/// A complete, serializable description of one traffic mix. All fields are
/// scalar (the struct is `Copy`), so the spec embeds in trial specs and
/// wire messages the same way a `FaultPlan` does, and its serde encoding
/// is the *only* thing cache hashes ever see (rule 3 above).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct TrafficSpec {
    /// Master seed: the popularity permutation and every per-tenant
    /// sub-seed derive from it.
    pub seed: u64,
    /// Number of tenants generating traffic (> 0).
    pub tenants: u32,
    /// Tenants colocated per node (> 0, ≤ `tenants`). Node `n` hosts
    /// tenants `(n·colocate + k) mod tenants` for `k < colocate`.
    pub colocate: u32,
    /// Zipf skew exponent `s` over app popularity ranks (> 0; larger =
    /// more traffic concentrated on the hottest apps).
    pub zipf_exponent: f64,
    /// Mean exponential inter-arrival gap between a tenant's jobs (s).
    pub mean_gap_s: f64,
    /// Diurnal arrival-rate envelope.
    pub diurnal: DiurnalSpec,
    /// Bursty (MMPP) arrival modulation.
    pub bursts: MmppSpec,
    /// Job-queue and deadline shape.
    pub queue: QueueSpec,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            tenants: 4,
            colocate: 2,
            zipf_exponent: 1.1,
            mean_gap_s: 6.0,
            diurnal: DiurnalSpec::default(),
            bursts: MmppSpec::default(),
            queue: QueueSpec::default(),
        }
    }
}

/// Validation failure for a [`TrafficSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpecError {
    /// `tenants` was zero — no one to generate traffic.
    ZeroTenants,
    /// `colocate` was zero or exceeded the tenant count.
    BadColocation {
        /// The rejected colocation factor.
        colocate: u32,
        /// The spec's tenant count.
        tenants: u32,
    },
    /// The Zipf exponent was non-positive or non-finite.
    NonPositiveZipfExponent {
        /// The rejected exponent.
        value: f64,
    },
    /// `jobs_per_tenant` was zero — tenants with no jobs have no trace.
    ZeroJobs,
    /// `deadline_slack` was below 1 (or non-finite): the deadline would
    /// precede the job's own length even on an idle node.
    DeadlineTooTight {
        /// The rejected slack factor.
        slack: f64,
    },
    /// A probability field fell outside `[0, 1]`.
    BadProbability {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A numeric field was non-finite or outside its documented range.
    BadField {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl core::fmt::Display for TrafficSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ZeroTenants => write!(f, "traffic spec needs at least one tenant"),
            Self::BadColocation { colocate, tenants } => write!(
                f,
                "colocate must be in 1..={tenants} (the tenant count), got {colocate}"
            ),
            Self::NonPositiveZipfExponent { value } => {
                write!(f, "zipf exponent must be positive and finite, got {value}")
            }
            Self::ZeroJobs => write!(f, "jobs_per_tenant must be at least 1"),
            Self::DeadlineTooTight { slack } => write!(
                f,
                "deadline_slack must be ≥ 1 (deadline at least one job length away), got {slack}"
            ),
            Self::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            Self::BadField { field, value } => {
                write!(f, "{field} is out of range: {value}")
            }
        }
    }
}

impl std::error::Error for TrafficSpecError {}

/// Validating builder for [`TrafficSpec`], seeded with the defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficSpecBuilder {
    spec: TrafficSpec,
}

impl TrafficSpecBuilder {
    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Number of tenants.
    #[must_use]
    pub fn tenants(mut self, tenants: u32) -> Self {
        self.spec.tenants = tenants;
        self
    }

    /// Tenants colocated per node.
    #[must_use]
    pub fn colocate(mut self, colocate: u32) -> Self {
        self.spec.colocate = colocate;
        self
    }

    /// Zipf skew exponent over app popularity.
    #[must_use]
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        self.spec.zipf_exponent = s;
        self
    }

    /// Mean exponential inter-arrival gap (s).
    #[must_use]
    pub fn mean_gap_s(mut self, gap: f64) -> Self {
        self.spec.mean_gap_s = gap;
        self
    }

    /// Diurnal envelope: period (s) and relative amplitude.
    #[must_use]
    pub fn diurnal(mut self, period_s: f64, amplitude: f64) -> Self {
        self.spec.diurnal = DiurnalSpec {
            period_s,
            amplitude,
        };
        self
    }

    /// MMPP burst modulation: rate multiplier and transition probabilities.
    #[must_use]
    pub fn bursts(mut self, burst_rate_mult: f64, p_enter: f64, p_exit: f64) -> Self {
        self.spec.bursts = MmppSpec {
            burst_rate_mult,
            p_enter_burst: p_enter,
            p_exit_burst: p_exit,
        };
        self
    }

    /// Jobs each tenant submits.
    #[must_use]
    pub fn jobs_per_tenant(mut self, jobs: u32) -> Self {
        self.spec.queue.jobs_per_tenant = jobs;
        self
    }

    /// Job work as a fraction of the drawn app's full trace.
    #[must_use]
    pub fn job_scale(mut self, scale: f64) -> Self {
        self.spec.queue.job_scale = scale;
        self
    }

    /// Deadline slack factor (≥ 1).
    #[must_use]
    pub fn deadline_slack(mut self, slack: f64) -> Self {
        self.spec.queue.deadline_slack = slack;
        self
    }

    /// Validate and produce the spec.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrafficSpecError`] the configured spec violates.
    pub fn build(self) -> Result<TrafficSpec, TrafficSpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// One generated job in a tenant's queue, in ideal-timeline terms (the
/// time axis of the superposed node trace, where demand is always met).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantJob {
    /// Submitting tenant.
    pub tenant: u32,
    /// Application drawn from the Zipf popularity distribution.
    pub app: AppId,
    /// Arrival time (s).
    pub arrival_s: f64,
    /// Queue start time: `max(arrival, previous job's end)`.
    pub start_s: f64,
    /// Work content (s).
    pub work_s: f64,
    /// Deadline: `arrival + work × deadline_slack`.
    pub due_s: f64,
}

impl TenantJob {
    /// The job's end position on the ideal timeline — the node-trace work
    /// coordinate a deadline check compares against progress.
    #[must_use]
    pub fn work_end_s(&self) -> f64 {
        self.start_s + self.work_s
    }
}

/// One node's expanded workload: the superposed colocated trace plus the
/// job/tenant metadata the fleet layer turns into deadline-miss and
/// per-tenant energy metrics.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Superposed phase trace. Nodes with the same tenant set share this
    /// exact allocation (determinism rule 4).
    pub trace: Arc<AppTrace>,
    /// Every colocated tenant's jobs, in (tenant, arrival) order.
    pub jobs: Vec<TenantJob>,
    /// Each tenant's share of the node's job work content, `(tenant,
    /// fraction)`, summing to 1 (equal split when the node has no work).
    pub tenant_share: Vec<(u64, f64)>,
}

/// A full fleet expansion: one [`NodeProfile`] per node, with repeated
/// tenant sets sharing trace allocations.
#[derive(Debug, Clone)]
pub struct TrafficFleet {
    /// Per-node profiles, node-index order.
    pub profiles: Vec<NodeProfile>,
}

/// splitmix64 — the standard 64-bit mixer, used to derive independent
/// sub-seeds (per tenant, and for the popularity permutation) from the
/// master seed without any stream overlap.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stream tag for the popularity permutation (distinct from any tenant id).
const POPULARITY_STREAM: u64 = 0x504f_5055_4c41_5221;

impl TrafficSpec {
    /// Validating builder, seeded with the defaults.
    #[must_use]
    pub fn builder() -> TrafficSpecBuilder {
        TrafficSpecBuilder::default()
    }

    /// Re-check the builder invariants on an already-constructed spec
    /// (e.g. one deserialized from a `--traffic` JSON file, which bypasses
    /// the builder).
    ///
    /// # Errors
    ///
    /// Returns the first [`TrafficSpecError`] the spec violates.
    pub fn validate(&self) -> Result<(), TrafficSpecError> {
        fn probability(field: &'static str, v: f64) -> Result<(), TrafficSpecError> {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(TrafficSpecError::BadProbability { field, value: v })
            }
        }
        if self.tenants == 0 {
            return Err(TrafficSpecError::ZeroTenants);
        }
        if self.colocate == 0 || self.colocate > self.tenants {
            return Err(TrafficSpecError::BadColocation {
                colocate: self.colocate,
                tenants: self.tenants,
            });
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent > 0.0) {
            return Err(TrafficSpecError::NonPositiveZipfExponent {
                value: self.zipf_exponent,
            });
        }
        if !(self.mean_gap_s.is_finite() && self.mean_gap_s >= 0.0) {
            return Err(TrafficSpecError::BadField {
                field: "mean_gap_s",
                value: self.mean_gap_s,
            });
        }
        if !(self.diurnal.period_s.is_finite() && self.diurnal.period_s > 0.0) {
            return Err(TrafficSpecError::BadField {
                field: "diurnal.period_s",
                value: self.diurnal.period_s,
            });
        }
        if !(self.diurnal.amplitude.is_finite() && (0.0..=1.0).contains(&self.diurnal.amplitude)) {
            return Err(TrafficSpecError::BadField {
                field: "diurnal.amplitude",
                value: self.diurnal.amplitude,
            });
        }
        if !(self.bursts.burst_rate_mult.is_finite() && self.bursts.burst_rate_mult >= 1.0) {
            return Err(TrafficSpecError::BadField {
                field: "bursts.burst_rate_mult",
                value: self.bursts.burst_rate_mult,
            });
        }
        probability("bursts.p_enter_burst", self.bursts.p_enter_burst)?;
        probability("bursts.p_exit_burst", self.bursts.p_exit_burst)?;
        if self.queue.jobs_per_tenant == 0 {
            return Err(TrafficSpecError::ZeroJobs);
        }
        if !(self.queue.job_scale.is_finite() && self.queue.job_scale > 0.0) {
            return Err(TrafficSpecError::BadField {
                field: "queue.job_scale",
                value: self.queue.job_scale,
            });
        }
        if !(self.queue.deadline_slack.is_finite() && self.queue.deadline_slack >= 1.0) {
            return Err(TrafficSpecError::DeadlineTooTight {
                slack: self.queue.deadline_slack,
            });
        }
        Ok(())
    }

    /// The spec with a perturbed master seed — the replication hook (the
    /// engine's `replicate` index re-seeds traffic the same way it
    /// re-jitters catalog workloads).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of distinct node profiles the round-robin tenant placement
    /// produces: node `n` and node `n + distinct_profiles()` host the same
    /// tenant set (and share one trace allocation in an expansion).
    #[must_use]
    pub fn distinct_profiles(&self) -> usize {
        let t = u64::from(self.tenants);
        let c = u64::from(self.colocate);
        (t / gcd(t, c)) as usize
    }

    /// The tenants node `node` hosts: `(node·colocate + k) mod tenants`.
    #[must_use]
    pub fn node_tenants(&self, node: usize) -> Vec<u32> {
        let t = u64::from(self.tenants);
        let start = (node as u64).wrapping_mul(u64::from(self.colocate)) % t;
        (0..u64::from(self.colocate))
            .map(|k| ((start + k) % t) as u32)
            .collect()
    }

    /// Seed-determined popularity order: a Fisher–Yates permutation of the
    /// catalog (fixed draw count — determinism rule 1) drawn from its own
    /// sub-seed stream (rule 2).
    fn popularity(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = AppId::all().to_vec();
        let mut rng = SmallRng::seed_from_u64(splitmix64(self.seed ^ POPULARITY_STREAM));
        for i in (1..apps.len()).rev() {
            let j = rng.gen_range(0..=i);
            apps.swap(i, j);
        }
        apps
    }

    /// Cumulative Zipf distribution over `n` popularity ranks.
    fn zipf_cdf(&self, n: usize) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(self.zipf_exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        cdf
    }

    /// Generate one tenant's job queue and its ideal-timeline phase list
    /// (idle gaps between jobs included).
    fn tenant_timeline(
        &self,
        tenant: u32,
        platform: Platform,
        popularity: &[AppId],
        cdf: &[f64],
    ) -> (Vec<TenantJob>, Vec<Phase>) {
        let mut rng = SmallRng::seed_from_u64(splitmix64(self.seed ^ (u64::from(tenant) + 1)));
        let mut jobs = Vec::with_capacity(self.queue.jobs_per_tenant as usize);
        let mut phases = Vec::new();
        let mut arrival = 0.0_f64;
        let mut cursor = 0.0_f64; // end of the previously queued job
        let mut bursting = false;
        for _ in 0..self.queue.jobs_per_tenant {
            // Exactly three draws per job, in a fixed order (rule 1).
            let u_app: f64 = rng.gen();
            let u_gap: f64 = rng.gen();
            let u_state: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c < u_app).min(cdf.len() - 1);
            let app = popularity[rank];
            bursting = if bursting {
                u_state >= self.bursts.p_exit_burst
            } else {
                u_state < self.bursts.p_enter_burst
            };
            // Exponential gap, thinned by the diurnal envelope at the
            // previous arrival and sped up while the MMPP bursts.
            let base_gap = -self.mean_gap_s * (1.0 - u_gap.min(0.999_999)).ln();
            let envelope = (1.0
                + self.diurnal.amplitude
                    * (std::f64::consts::TAU * arrival / self.diurnal.period_s).sin())
            .max(0.05);
            let rate_mult = if bursting {
                self.bursts.burst_rate_mult
            } else {
                1.0
            };
            arrival += base_gap / (envelope * rate_mult);
            let app_full = app_trace(app, platform);
            let work_s = app_full.total_work_s() * self.queue.job_scale;
            let start = arrival.max(cursor);
            if start > cursor + 1e-9 {
                phases.push(Phase::new(
                    PhaseKind::Compute,
                    start - cursor,
                    Demand::idle(),
                ));
            }
            append_job_phases(&mut phases, &app_full, work_s);
            jobs.push(TenantJob {
                tenant,
                app,
                arrival_s: arrival,
                start_s: start,
                work_s,
                due_s: arrival + work_s * self.queue.deadline_slack,
            });
            cursor = start + work_s;
        }
        (jobs, phases)
    }

    /// Expand the profile of one node: generate its colocated tenants'
    /// timelines and superpose them into a single phase trace. Prefer
    /// [`TrafficSpec::expand`] for whole fleets — it shares trace
    /// allocations across nodes with the same tenant set; this is the
    /// ground truth for a single node (the control-plane daemon's
    /// per-node submission path).
    #[must_use]
    pub fn node_profile(&self, platform: Platform, node: usize) -> NodeProfile {
        let popularity = self.popularity();
        let cdf = self.zipf_cdf(popularity.len());
        let mut jobs = Vec::new();
        let mut timelines = Vec::with_capacity(self.colocate as usize);
        for tenant in self.node_tenants(node) {
            let (tenant_jobs, timeline) = self.tenant_timeline(tenant, platform, &popularity, &cdf);
            jobs.extend(tenant_jobs);
            timelines.push(timeline);
        }
        let phases = superpose(&timelines);
        let start = self.node_tenants(node)[0];
        let trace = Arc::new(AppTrace::new(
            format!("traffic@t{start}+{}", self.colocate),
            phases,
        ));
        let mut share: HashMap<u64, f64> = HashMap::new();
        let total: f64 = jobs.iter().map(|j| j.work_s).sum();
        for job in &jobs {
            *share.entry(u64::from(job.tenant)).or_insert(0.0) += job.work_s;
        }
        let mut tenant_share: Vec<(u64, f64)> = if total > 0.0 {
            share.into_iter().map(|(t, w)| (t, w / total)).collect()
        } else {
            let n = self.colocate as f64;
            self.node_tenants(node)
                .into_iter()
                .map(|t| (u64::from(t), 1.0 / n))
                .collect()
        };
        tenant_share.sort_by_key(|&(t, _)| t);
        NodeProfile {
            trace,
            jobs,
            tenant_share,
        }
    }

    /// Expand a whole fleet: one profile per node, with nodes that host
    /// the same tenant set sharing a single `Arc<AppTrace>` allocation
    /// (determinism rule 4).
    #[must_use]
    pub fn expand(&self, platform: Platform, nodes: usize) -> TrafficFleet {
        let mut by_class: HashMap<usize, NodeProfile> = HashMap::new();
        let distinct = self.distinct_profiles();
        let profiles = (0..nodes)
            .map(|node| {
                by_class
                    .entry(node % distinct)
                    .or_insert_with(|| self.node_profile(platform, node))
                    .clone()
            })
            .collect();
        TrafficFleet { profiles }
    }
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Append `work_s` seconds of `app`'s phase pattern to `phases`, cycling
/// the catalog trace and truncating the final phase — a job is a scaled
/// slice of the application's real memory dynamics, not a constant block.
fn append_job_phases(phases: &mut Vec<Phase>, full: &AppTrace, work_s: f64) {
    let mut remaining = work_s;
    'outer: loop {
        for phase in &full.phases {
            if remaining <= 1e-9 {
                break 'outer;
            }
            let len = phase.work_s.min(remaining);
            phases.push(Phase::new(phase.kind, len, phase.demand));
            remaining -= len;
        }
        if full.phases.is_empty() {
            break;
        }
    }
}

/// Superpose per-tenant timelines into one node phase list: at every
/// boundary the active demands combine — bandwidth and utilisation add,
/// boundedness fractions average weighted by each contributor's demand —
/// then clamp through the [`Demand`] model, so colocated bursts contend
/// for memory bandwidth exactly as a single over-demanding phase would.
fn superpose(timelines: &[Vec<Phase>]) -> Vec<Phase> {
    // Per-timeline phase windows [(start, end, index)].
    let mut windows: Vec<Vec<(f64, f64)>> = Vec::with_capacity(timelines.len());
    let mut boundaries: Vec<f64> = vec![0.0];
    for timeline in timelines {
        let mut t = 0.0;
        let mut spans = Vec::with_capacity(timeline.len());
        for phase in timeline {
            let end = t + phase.work_s;
            spans.push((t, end));
            boundaries.push(end);
            t = end;
        }
        windows.push(spans);
    }
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let mut cursors = vec![0usize; timelines.len()];
    let mut out: Vec<Phase> = Vec::new();
    for pair in boundaries.windows(2) {
        let (t0, t1) = (pair[0], pair[1]);
        if t1 - t0 < 1e-9 {
            continue;
        }
        let mid = (t0 + t1) * 0.5;
        let mut mem_gbs = 0.0;
        let mut cpu_util = 0.0;
        let mut mem_frac_w = 0.0;
        let mut mem_frac_max = 0.0_f64;
        let mut cpu_frac_w = 0.0;
        let mut cpu_frac_max = 0.0_f64;
        let mut gpu: Vec<f64> = Vec::new();
        let mut any_burst = false;
        let mut any_init = false;
        for (ti, timeline) in timelines.iter().enumerate() {
            let spans = &windows[ti];
            while cursors[ti] < spans.len() && spans[cursors[ti]].1 <= mid {
                cursors[ti] += 1;
            }
            let Some(&(start, end)) = spans.get(cursors[ti]) else {
                continue; // timeline already ended: idle
            };
            if !(start <= mid && mid < end) {
                continue;
            }
            let d = &timeline[cursors[ti]].demand;
            mem_gbs += d.mem_gbs;
            cpu_util += d.cpu_util;
            mem_frac_w += d.mem_frac * d.mem_gbs;
            mem_frac_max = mem_frac_max.max(d.mem_frac);
            cpu_frac_w += d.cpu_frac * d.cpu_util;
            cpu_frac_max = cpu_frac_max.max(d.cpu_frac);
            for (g, &u) in d.gpu_util.iter().enumerate() {
                if g >= gpu.len() {
                    gpu.resize(g + 1, 0.0);
                }
                gpu[g] += u;
            }
            match timeline[cursors[ti]].kind {
                PhaseKind::Burst => any_burst = true,
                PhaseKind::Init => any_init = true,
                PhaseKind::Compute | PhaseKind::Idle => {}
            }
        }
        let kind = if any_burst {
            PhaseKind::Burst
        } else if any_init {
            PhaseKind::Init
        } else {
            PhaseKind::Compute
        };
        let demand = Demand {
            mem_gbs,
            mem_frac: if mem_gbs > 0.0 {
                mem_frac_w / mem_gbs
            } else {
                mem_frac_max
            },
            cpu_frac: if cpu_util > 0.0 {
                cpu_frac_w / cpu_util
            } else {
                cpu_frac_max
            },
            cpu_util,
            gpu_util: GpuUtilVec::from_slice(&gpu),
        }
        .clamped();
        out.push(Phase::new(kind, t1 - t0, demand));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TrafficSpec {
        TrafficSpec::builder()
            .seed(42)
            .tenants(6)
            .colocate(2)
            .jobs_per_tenant(2)
            .mean_gap_s(3.0)
            .build()
            .unwrap()
    }

    #[test]
    fn default_spec_is_valid() {
        TrafficSpec::default().validate().unwrap();
    }

    #[test]
    fn builder_rejects_malformed_specs() {
        assert_eq!(
            TrafficSpec::builder().tenants(0).build().unwrap_err(),
            TrafficSpecError::ZeroTenants
        );
        assert!(matches!(
            TrafficSpec::builder().tenants(2).colocate(3).build(),
            Err(TrafficSpecError::BadColocation { .. })
        ));
        assert!(matches!(
            TrafficSpec::builder().zipf_exponent(-1.0).build(),
            Err(TrafficSpecError::NonPositiveZipfExponent { .. })
        ));
        assert!(matches!(
            TrafficSpec::builder().deadline_slack(0.9).build(),
            Err(TrafficSpecError::DeadlineTooTight { .. })
        ));
        assert!(matches!(
            TrafficSpec::builder().jobs_per_tenant(0).build(),
            Err(TrafficSpecError::ZeroJobs)
        ));
        assert!(matches!(
            TrafficSpec::builder().bursts(2.0, 1.5, 0.5).build(),
            Err(TrafficSpecError::BadProbability { .. })
        ));
        assert!(matches!(
            TrafficSpec::builder().diurnal(0.0, 0.5).build(),
            Err(TrafficSpecError::BadField { .. })
        ));
        // Deserialized specs re-validate the same way.
        let mut bad = TrafficSpec::default();
        bad.queue.job_scale = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn expansion_is_bit_identical_per_seed() {
        let spec = small_spec();
        let a = spec.expand(Platform::IntelA100, 5);
        let b = spec.expand(Platform::IntelA100, 5);
        for (x, y) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(*x.trace, *y.trace);
            assert_eq!(x.jobs, y.jobs);
            assert_eq!(x.tenant_share, y.tenant_share);
        }
        let other = spec.with_seed(43).expand(Platform::IntelA100, 5);
        assert_ne!(*a.profiles[0].trace, *other.profiles[0].trace);
    }

    #[test]
    fn repeated_tenant_sets_share_one_allocation() {
        let spec = small_spec(); // 6 tenants, colocate 2 → 3 distinct
        assert_eq!(spec.distinct_profiles(), 3);
        let fleet = spec.expand(Platform::IntelA100, 7);
        assert!(Arc::ptr_eq(
            &fleet.profiles[0].trace,
            &fleet.profiles[3].trace
        ));
        assert!(Arc::ptr_eq(
            &fleet.profiles[1].trace,
            &fleet.profiles[4].trace
        ));
        assert!(!Arc::ptr_eq(
            &fleet.profiles[0].trace,
            &fleet.profiles[1].trace
        ));
        // The shared profile matches the single-node ground truth.
        let solo = spec.node_profile(Platform::IntelA100, 3);
        assert_eq!(*solo.trace, *fleet.profiles[3].trace);
        assert_eq!(solo.jobs, fleet.profiles[3].jobs);
    }

    #[test]
    fn colocation_superposes_bandwidth() {
        let spec = small_spec();
        let profile = spec.node_profile(Platform::IntelA100, 0);
        // The bandwidth integral of the superposed trace equals the sum of
        // the tenants' job demands (superposition conserves traffic).
        let node_gb: f64 = profile
            .trace
            .phases
            .iter()
            .map(|p| p.demand.mem_gbs * p.work_s)
            .sum();
        assert!(node_gb > 0.0);
        let work: f64 = profile.jobs.iter().map(|j| j.work_s).sum();
        assert!(profile.trace.total_work_s() >= work / spec.colocate as f64);
        crate::io::validate_trace(&profile.trace).unwrap();
    }

    #[test]
    fn deadlines_and_queueing_are_consistent() {
        let spec = small_spec();
        for profile in spec.expand(Platform::IntelA100, 4).profiles {
            let mut prev_end: HashMap<u32, f64> = HashMap::new();
            for job in &profile.jobs {
                assert!(job.start_s >= job.arrival_s);
                assert!(job.due_s >= job.arrival_s + job.work_s - 1e-9);
                assert!(job.work_s > 0.0);
                let cursor = prev_end.entry(job.tenant).or_insert(0.0);
                assert!(
                    job.start_s >= *cursor - 1e-9,
                    "busy-server queue: jobs never overlap within a tenant"
                );
                *cursor = job.work_end_s();
            }
            let share_sum: f64 = profile.tenant_share.iter().map(|&(_, s)| s).sum();
            assert!((share_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_skew_concentrates_draws() {
        let spec = TrafficSpec::builder()
            .tenants(8)
            .colocate(1)
            .jobs_per_tenant(16)
            .zipf_exponent(3.0)
            .build()
            .unwrap();
        let fleet = spec.expand(Platform::IntelA100, 8);
        let hottest = spec.popularity()[0];
        let draws: Vec<AppId> = fleet
            .profiles
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.app))
            .collect();
        let hot = draws.iter().filter(|&&a| a == hottest).count();
        assert!(
            hot * 2 > draws.len(),
            "exponent 3 should give the hottest app a majority, got {hot}/{}",
            draws.len()
        );
    }

    #[test]
    fn arrival_modulation_changes_expansion() {
        let base = small_spec();
        let mut diurnal = base;
        diurnal.diurnal.amplitude = 0.9;
        let mut bursty = base;
        bursty.bursts = MmppSpec {
            burst_rate_mult: 6.0,
            p_enter_burst: 0.5,
            p_exit_burst: 0.3,
        };
        let t0 = base.node_profile(Platform::IntelA100, 0);
        let t1 = diurnal.node_profile(Platform::IntelA100, 0);
        let t2 = bursty.node_profile(Platform::IntelA100, 0);
        assert_ne!(t0.jobs, t1.jobs, "diurnal envelope must shift arrivals");
        assert_ne!(t0.jobs, t2.jobs, "MMPP bursts must shift arrivals");
        // Burstier arrivals never slow the stream down on average.
        let last = |p: &NodeProfile| p.jobs.iter().map(|j| j.arrival_s).fold(0.0, f64::max);
        assert!(last(&t2) <= last(&t0) + 1e-9);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = small_spec();
        let json = serde::to_string(&spec);
        let back: TrafficSpec = serde::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Old/partial encodings fill defaults and still validate.
        let sparse: TrafficSpec = serde::from_str(r#"{"seed":9,"tenants":3}"#).unwrap();
        assert_eq!(sparse.seed, 9);
        assert_eq!(sparse.tenants, 3);
        sparse.validate().unwrap();
    }
}
