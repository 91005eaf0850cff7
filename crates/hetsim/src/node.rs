//! The heterogeneous node: sockets, GPUs, MSR surface, and power accounting.
//!
//! [`Node::step`] advances every hardware domain one tick under a workload
//! [`Demand`] and returns the achieved progress factor. Runtimes interact
//! with the node exclusively through its monitoring/actuation surface:
//! [`Node::msr_read`] / [`Node::msr_write`] (MSR semantics, with access
//! costs charged as monitoring overhead) and [`Node::pcm_try_read_gbs`]
//! (the PCM-style windowed memory-throughput counter).

use std::collections::VecDeque;

use magus_msr::{
    AccessCost, CostLedger, MsrError, MsrScope, PkgPowerLimit, RaplPowerUnit, UncoreRatioLimit,
    IA32_FIXED_CTR0, IA32_FIXED_CTR1, IA32_FIXED_CTR2, MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT, MSR_UNCORE_RATIO_LIMIT,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::NodeConfig;
use crate::cpu::CpuComplex;
use crate::demand::Demand;
use crate::fault::{FaultCounters, FaultPlan, FaultState, InjectedFault};
use crate::gpu::GpuDevice;
use crate::mem::{progress_factor, MemoryChannel};
use crate::power::{EnergyTotals, PowerBreakdown};
use crate::telemetry::NodeTelemetry;
use crate::uncore::UncoreDomain;

/// One CPU socket: core complex, uncore domain, memory channels, and the
/// per-socket energy counters mirrored into RAPL MSRs.
#[derive(Debug, Clone)]
pub struct Socket {
    /// Core complex (DVFS + fixed counters).
    pub cpu: CpuComplex,
    /// Uncore clock domain.
    pub uncore: UncoreDomain,
    /// Memory channel group.
    pub mem: MemoryChannel,
    /// Cumulative package energy (J) — core + uncore + overhead share.
    pub pkg_energy_j: f64,
    /// Cumulative DRAM energy (J).
    pub dram_energy_j: f64,
    /// RAPL PL1 package power limit (raw `0x610` value; 0 = disabled).
    pub power_limit_raw: u64,
}

/// Outcome of a single simulation tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepOutcome {
    /// Progress factor applied to the running phase (0..1].
    pub progress: f64,
    /// Delivered system memory throughput (GB/s).
    pub delivered_gbs: f64,
    /// Power breakdown during the tick.
    pub power: PowerBreakdown,
}

/// Reusable scratch state for the macro-stepping fast path
/// ([`Node::step_fast`] / [`crate::Simulation::advance_until`]).
///
/// # How the fast path works
///
/// Between *events* — governor sample points (every MSR/PCM access bumps the
/// node's state epoch), workload phase boundaries (the demand changes),
/// deferred actuations coming due, and power-limit transients (the RAPL
/// walk mutates the frequency cap every tick until it converges) — the
/// node's feedback state can reach a floating-point fixed point: the uncore
/// slew clamps exactly onto its target, the DVFS trackers settle bitwise,
/// and `last_power` stops changing. From that point on, every tick adds
/// *bit-identical* increments to the pure accumulators (energy, counters,
/// traffic, time). The core DVFS tracker settles last: it moves on every
/// tick for tens of ticks after a utilisation change, so a span usually
/// starts a couple of dozen reference ticks after its event, and a span
/// shorter than that never freezes.
///
/// `FastForward` detects the fixed point by comparing bitwise snapshots of
/// the feedback state across two consecutive ticks. A tick on which the
/// first socket's core frequency or the first GPU's SM clock changed bits
/// cannot match the previous snapshot (both values are in it), so the
/// snapshot is not even written then; detection restarts on the next tick.
/// Once two snapshots match, it captures the per-tick accumulator
/// increments (computed by the same expressions `step` uses) and *replays*
/// them, skipping the model evaluation entirely. A whole span of `n` ticks
/// replays in one call: each accumulator adds its increment `n` times in
/// order, the clock and the residency bins move by `n` ticks, and the PCM
/// history receives only the entries its window keeps. Replay is
/// bit-for-bit identical to per-tick stepping by construction; any event
/// (epoch bump, demand change, different `dt`, an actuation due) drops back
/// to reference stepping until a new fixed point is reached.
///
/// The scratch buffers are allocated once and reused, so the hot loop stays
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FastForward {
    frozen: bool,
    prev_valid: bool,
    epoch: u64,
    dt_us: u64,
    demand: Demand,
    prev: Vec<u64>,
    cur: Vec<u64>,
    /// Per-socket (cycles, instructions, traffic GB) increments.
    socket_inc: Vec<(f64, f64, f64)>,
    /// Per-GPU energy (J) increments.
    gpu_inc: Vec<f64>,
    pkg_per_socket_j: f64,
    dram_per_socket_j: f64,
    outcome: StepOutcome,
    /// Per-socket uncore residency bin at capture time (armed nodes only).
    /// Uncore frequency is part of the feedback snapshot, so it is
    /// constant across a frozen span and the bin can be replayed verbatim.
    residency_bins: Vec<u16>,
}

impl FastForward {
    /// Fresh fast-forward state (equivalent to `Default`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True while the node is in a frozen span (ticks are being replayed).
    #[must_use]
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Progress factor of every replayed tick.
    pub(crate) fn replayed_progress(&self) -> f64 {
        self.outcome.progress
    }
}

/// Bitwise demand equality — stricter than `PartialEq` (distinguishes
/// `0.0`/`-0.0`), which is what the frozen-replay proof needs.
fn demand_bits_eq(a: &Demand, b: &Demand) -> bool {
    a.mem_gbs.to_bits() == b.mem_gbs.to_bits()
        && a.mem_frac.to_bits() == b.mem_frac.to_bits()
        && a.cpu_frac.to_bits() == b.cpu_frac.to_bits()
        && a.cpu_util.to_bits() == b.cpu_util.to_bits()
        && a.gpu_util.len() == b.gpu_util.len()
        && a.gpu_util
            .iter()
            .zip(b.gpu_util.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A one-entry memo of a pure curve `f64 -> f64`, keyed on the exact bits
/// of its input, never on a tolerance. A hit returns the bits that a miss
/// computed for identical input bits, so a memoised curve is bit-for-bit
/// the uncached one.
#[derive(Debug, Clone, Copy, Default)]
struct Memo(Option<(u64, f64)>);

impl Memo {
    #[inline]
    fn eval(&mut self, input: f64, curve: impl FnOnce(f64) -> f64) -> f64 {
        let key = input.to_bits();
        match self.0 {
            Some((k, value)) if k == key => value,
            _ => {
                let value = curve(input);
                self.0 = Some((key, value));
                value
            }
        }
    }
}

/// The node's three `powf` curves, one [`Memo`] each, shared by all of
/// its sockets.
///
/// Between governor decisions the uncore clock settles on its target
/// within a few ticks, and the sockets of a node run the same operating
/// point, so the inputs repeat tick after tick and socket after socket. Sharing is sound because every
/// socket is built from the node's one `cpu`/`uncore`/`mem` config: a curve
/// depends on its input alone. Sockets whose inputs differ simply miss.
/// The memo is a cache, not simulation state: it is outside the feedback
/// snapshot, the state epoch and the ledger, and a cold memo steps exactly
/// like a warm one.
#[derive(Debug, Clone, Default)]
struct Curves {
    bw_cap: Memo,
    uncore: Memo,
    core: Memo,
}

impl Curves {
    /// [`MemoryChannel::bw_cap_gbs`] at normalised uncore clock `norm`.
    fn bw_cap_gbs(&mut self, s: &Socket, norm: f64) -> f64 {
        self.bw_cap.eval(norm, |n| s.mem.bw_cap_gbs(n))
    }

    /// [`UncoreDomain::freq_term`] at normalised uncore clock `norm`.
    fn uncore_term(&mut self, s: &Socket, norm: f64) -> f64 {
        self.uncore.eval(norm, |n| s.uncore.freq_term(n))
    }

    /// [`CpuComplex::freq_term`] at core frequency `freq_ghz`.
    fn core_term(&mut self, s: &Socket, freq_ghz: f64) -> f64 {
        self.core.eval(freq_ghz, |f| s.cpu.freq_term(f))
    }
}

/// Fixed counter `addr` of core `local` of one socket's complex, read
/// without charging.
fn fixed_counter(cpu: &CpuComplex, addr: u32, local: u32) -> Result<u64, MsrError> {
    match addr {
        IA32_FIXED_CTR0 => Ok(cpu.core_instructions(local)),
        IA32_FIXED_CTR1 | IA32_FIXED_CTR2 => Ok(cpu.core_cycles(local)),
        _ => Err(MsrError::UnknownRegister(addr)),
    }
}

/// The simulated heterogeneous node.
#[derive(Debug, Clone)]
pub struct Node {
    cfg: NodeConfig,
    sockets: Vec<Socket>,
    gpus: Vec<GpuDevice>,
    time_us: u64,
    energy: EnergyTotals,
    last_power: PowerBreakdown,
    /// Monitoring-overhead energy waiting to be charged (µJ).
    pending_overhead_uj: f64,
    /// Ledger of all monitoring accesses (reads/writes and their costs).
    ledger: CostLedger,
    /// Recent delivered system throughput, (tick end time µs, GB/s). A
    /// bounded ring: entries older than the PCM measurement window are
    /// dropped every tick, so the length never exceeds
    /// `pcm_window_us / tick + 2` (asserted in debug builds).
    bw_history: VecDeque<(u64, f64)>,
    /// Bumped on every externally visible state mutation (MSR writes,
    /// monitoring charges); invalidates any [`FastForward`] frozen state.
    state_epoch: u64,
    /// Sensor-noise generator (deterministic per config seed).
    noise: SmallRng,
    /// Relative 1-sigma noise applied to PCM readings.
    pcm_noise_rel: f64,
    /// Absolute 1-sigma noise floor on PCM readings (GB/s).
    pcm_noise_abs_gbs: f64,
    /// PCM reads so far (drives the fault plan's `every`-N PCM schedules).
    pcm_reads: u64,
    /// Active fault-injection state ([`crate::fault::FaultPlan`]). `None`
    /// unless a non-empty plan was attached: the clean-run cost of the
    /// fault layer is one `Option` discriminant check per fault site.
    faults: Option<Box<FaultState>>,
    /// Instrumentation counters + event log, `None` until a reader arms
    /// the node ([`Node::arm_telemetry`]): an unarmed node records nothing.
    /// Recording never touches `state_epoch` or feedback state: telemetry
    /// is invisible to the simulation and to the fast path's frozen spans.
    telemetry: Option<Box<NodeTelemetry>>,
    /// Memoised power/bandwidth curves (a cache, not state; see [`Curves`]).
    curves: Curves,
}

impl Node {
    /// Build a node from a configuration. The uncore starts at max, GPUs
    /// idle, all counters zero.
    #[must_use]
    pub fn new(cfg: NodeConfig) -> Self {
        let sockets = (0..cfg.sockets)
            .map(|_| Socket {
                cpu: CpuComplex::new(cfg.cpu),
                uncore: UncoreDomain::new(cfg.uncore),
                mem: MemoryChannel::new(cfg.mem),
                pkg_energy_j: 0.0,
                dram_energy_j: 0.0,
                power_limit_raw: 0,
            })
            .collect();
        let gpus = cfg.gpus.iter().copied().map(GpuDevice::new).collect();
        let noise = SmallRng::seed_from_u64(cfg.seed);
        let bw_capacity = (cfg.pcm_window_us / cfg.tick_us.max(1) + 2) as usize;
        Self {
            cfg,
            sockets,
            gpus,
            time_us: 0,
            energy: EnergyTotals::default(),
            last_power: PowerBreakdown::default(),
            pending_overhead_uj: 0.0,
            ledger: CostLedger::new(),
            bw_history: VecDeque::with_capacity(bw_capacity),
            state_epoch: 0,
            noise,
            pcm_noise_rel: 0.01,
            pcm_noise_abs_gbs: 0.15,
            pcm_reads: 0,
            faults: None,
            telemetry: None,
            curves: Curves::default(),
        }
    }

    /// Node configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Simulated time (µs).
    #[must_use]
    pub fn time_us(&self) -> u64 {
        self.time_us
    }

    /// Simulated time (s).
    #[must_use]
    pub fn time_s(&self) -> f64 {
        crate::us_to_secs(self.time_us)
    }

    /// Sockets (read-only).
    #[must_use]
    pub fn sockets(&self) -> &[Socket] {
        &self.sockets
    }

    /// GPUs (read-only).
    #[must_use]
    pub fn gpus(&self) -> &[GpuDevice] {
        &self.gpus
    }

    /// Cumulative node energy totals.
    #[must_use]
    pub fn energy(&self) -> &EnergyTotals {
        &self.energy
    }

    /// Power breakdown of the most recent tick.
    #[must_use]
    pub fn last_power(&self) -> &PowerBreakdown {
        &self.last_power
    }

    /// Monitoring-access ledger (reads/writes, lifetime and pending costs).
    #[must_use]
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Mutable ledger access (drivers drain invocation latency from here).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// Arm the node's telemetry: from here on it records decision
    /// events, counters and its uncore-residency histogram. Arm before the
    /// first tick, and only when something will read the result. Arming
    /// never touches simulated state, so an armed run computes exactly
    /// what an unarmed one does.
    pub fn arm_telemetry(&mut self) {
        self.telemetry.get_or_insert_with(Box::default);
    }

    /// Instrumentation counters and buffered events; `None` unless the
    /// node is armed.
    #[must_use]
    pub fn telemetry(&self) -> Option<&NodeTelemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable telemetry access (`None` unless armed) — runtime drivers
    /// push decision events here. Pushing events does **not** perturb
    /// simulated state, charge monitoring cost, or invalidate fast-forward
    /// frozen spans.
    pub fn telemetry_mut(&mut self) -> Option<&mut NodeTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Attach a fault-injection plan. An empty plan detaches entirely
    /// ([`FaultPlan::is_empty`]), making the run bit-identical to one that
    /// never called this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Box::new(FaultState::new(plan)))
        };
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref().map(|fs| &fs.plan)
    }

    /// Counts of faults injected so far (all zero without a plan).
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_deref()
            .map_or_else(FaultCounters::default, |fs| fs.counters)
    }

    /// Uncore transitions summed across sockets (thrash diagnostic).
    #[must_use]
    pub fn uncore_transitions(&self) -> u64 {
        self.sockets.iter().map(|s| s.uncore.transitions()).sum()
    }

    /// Apply any injected-delay uncore writes that have come due. Runs at
    /// the head of every reference tick; a pending write due inside a tick
    /// takes effect at that tick's start boundary (the same instant on both
    /// stepping paths, since a frozen span ends before the tick at which a
    /// write is due). Applying bumps `state_epoch` exactly like a live MSR
    /// write.
    fn apply_due_actuations(&mut self) {
        loop {
            let now = self.time_us;
            let Some(w) = self.faults.as_deref_mut().and_then(|fs| fs.pop_due(now)) else {
                break;
            };
            self.land_uncore_limit(w.pkg, w.value, true);
            self.state_epoch = self.state_epoch.wrapping_add(1);
        }
    }

    /// Land raw `0x620` value `value` on socket `pkg` now: set its uncore
    /// limits, then count the write and record an `uncore_limit_write`
    /// event, marked `delayed` when an injected actuation delay deferred
    /// it. Live and deferred uncore-limit writes both land here.
    fn land_uncore_limit(&mut self, pkg: u32, value: u64, delayed: bool) {
        let lim = UncoreRatioLimit::decode(value);
        self.sockets[pkg as usize]
            .uncore
            .set_msr_limits(lim.min_ghz(), lim.max_ghz());
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.uncore_msr_writes += 1;
            let event = magus_telemetry::Event::new(self.time_us, "uncore_limit_write")
                .with("pkg", u64::from(pkg))
                .with("min_ghz", lim.min_ghz())
                .with("max_ghz", lim.max_ghz());
            t.push_event(if delayed {
                event.with("delayed", true)
            } else {
                event
            });
        }
    }

    /// Due time (µs) of the earliest deferred actuation; `u64::MAX` when
    /// none is pending.
    #[inline]
    pub(crate) fn actuation_due_us(&self) -> u64 {
        self.faults.as_deref().map_or(u64::MAX, |fs| fs.next_due_us)
    }

    /// Advance the node one tick of `dt_us` under `demand`.
    pub fn step(&mut self, dt_us: u64, demand: &Demand) -> StepOutcome {
        if self.faults.is_some() {
            self.apply_due_actuations();
        }
        let dt_s = crate::us_to_secs(dt_us);
        let n_sockets = self.sockets.len() as f64;

        // 1. TDP-coupled stock governor: cap the uncore only when the last
        //    tick's package power neared TDP (§2). Computed per socket.
        let gov = self.cfg.tdp_governor;
        let pkg_per_socket = self.last_power.pkg_w() / n_sockets;
        let power_unit = RaplPowerUnit::default();
        for socket in &mut self.sockets {
            // RAPL PL1 enforcement: when the socket exceeds its programmed
            // power limit, walk the core frequency cap down; when it is
            // comfortably below, walk the cap back up. First-order control
            // like the firmware's running-average limiter.
            let limit = PkgPowerLimit::decode(socket.power_limit_raw, power_unit.power_exp);
            if limit.enabled && limit.limit_w > 0.0 {
                let excess_w = pkg_per_socket - limit.limit_w;
                let cap = socket.cpu.freq_cap_ghz();
                if excess_w > 0.0 {
                    let current = if cap.is_finite() {
                        cap
                    } else {
                        socket.cpu.config().core_freq_max_ghz
                    };
                    socket.cpu.set_freq_cap(current - 0.02 * excess_w.min(40.0));
                } else if excess_w < -5.0 && cap.is_finite() {
                    socket.cpu.set_freq_cap(cap + 0.05);
                }
            } else if socket.cpu.freq_cap_ghz().is_finite() {
                socket.cpu.set_freq_cap(f64::INFINITY);
            }
            if gov.enabled {
                let trigger_w = gov.trigger_frac * socket.cpu.config().tdp_w;
                if pkg_per_socket > trigger_w {
                    let excess = pkg_per_socket - trigger_w;
                    let cap = socket.uncore.config().freq_max_ghz - gov.ghz_per_watt * excess;
                    socket.uncore.set_tdp_cap(cap);
                } else {
                    let max = socket.uncore.config().freq_max_ghz;
                    socket.uncore.set_tdp_cap(max);
                }
            }
            // 2. Slew the uncore clock towards its target.
            socket.uncore.step(dt_s);
        }

        // 3. Memory delivery, split evenly across sockets.
        let demand_per_socket = demand.mem_gbs / n_sockets;
        let mut delivered_total = 0.0;
        for socket in &mut self.sockets {
            let cap = self.curves.bw_cap_gbs(socket, socket.uncore.norm_freq());
            delivered_total += socket.mem.step(dt_s, demand_per_socket, cap);
        }

        // 4. Progress under the roofline stall model, serially composed
        //    with the RAPL-throttle term: the memory-bound share stretches
        //    by demand/delivered, the throttle-sensitive host share by the
        //    inverse throttle factor, and the rest runs at full speed.
        let mem_progress = progress_factor(demand.mem_frac, demand.mem_gbs, delivered_total);
        let throttle = self
            .sockets
            .iter()
            .map(|s| s.cpu.throttle_factor())
            .fold(1.0f64, f64::min);
        let cpu_frac = demand
            .cpu_frac
            .clamp(0.0, 1.0 - demand.mem_frac.clamp(0.0, 1.0));
        let progress = if cpu_frac > 0.0 && throttle < 1.0 {
            let mem_stretch = if mem_progress > 0.0 {
                1.0 / mem_progress
            } else {
                f64::INFINITY
            };
            // mem_stretch already counts the (1 - mem_frac) remainder at
            // full speed; replace the cpu share of that remainder with the
            // throttled rate.
            let stretch = mem_stretch - cpu_frac + cpu_frac / throttle.max(1e-6);
            if stretch.is_finite() {
                1.0 / stretch
            } else {
                0.0
            }
        } else {
            mem_progress
        };

        // 5. Core complexes and GPUs.
        for socket in &mut self.sockets {
            socket.cpu.step(dt_s, demand.cpu_util, progress);
        }
        for (idx, gpu) in self.gpus.iter_mut().enumerate() {
            gpu.step(dt_s, demand.gpu_util(idx));
        }

        // 6. Power breakdown for this tick.
        let overhead_w = (self.pending_overhead_uj * 1e-6) / dt_s;
        self.pending_overhead_uj = 0.0;
        let mut power = PowerBreakdown {
            overhead_w,
            ..PowerBreakdown::default()
        };
        for socket in &self.sockets {
            let norm = socket.uncore.norm_freq();
            let core_term = self.curves.core_term(socket, socket.cpu.freq_ghz());
            let activity = socket.mem.activity(self.curves.bw_cap_gbs(socket, norm));
            let uncore_term = self.curves.uncore_term(socket, norm);
            power.core_w += socket.cpu.power_w_with(core_term);
            power.uncore_w += socket.uncore.power_w_with(activity, uncore_term);
            power.dram_w += socket.mem.dram_power_w();
        }
        for gpu in &self.gpus {
            power.gpu_w += gpu.power_w();
        }

        // 6b. Uncore-frequency residency: socket-µs per 0.1 GHz bin. One
        //     array add per socket; replayed bit-identically by the fast
        //     path from the bins captured at the fixed point.
        if let Some(t) = self.telemetry.as_deref_mut() {
            for socket in &self.sockets {
                let bin = crate::telemetry::freq_bin(socket.uncore.freq_ghz());
                t.residency_us[bin as usize] += dt_us;
            }
        }

        // 7. Energy accounting, node-level and per-socket (RAPL domains).
        self.energy.accumulate(&power, dt_s);
        let pkg_per_socket_j =
            (power.core_w + power.uncore_w + power.overhead_w) / n_sockets * dt_s;
        let dram_per_socket_j = power.dram_w / n_sockets * dt_s;
        for socket in &mut self.sockets {
            socket.pkg_energy_j += pkg_per_socket_j;
            socket.dram_energy_j += dram_per_socket_j;
        }

        self.last_power = power;
        self.time_us += dt_us;

        // 8. Retain delivered-throughput history for PCM windows.
        self.record_bw(1, dt_us, delivered_total);

        StepOutcome {
            progress,
            delivered_gbs: delivered_total,
            power,
        }
    }

    /// Record the delivered throughput of the `n` ticks of `dt_us` that
    /// just ended at `time_us`, all at `delivered_gbs`, and trim entries
    /// older than the PCM measurement window. Shared by `step` (`n = 1`)
    /// and the frozen replay so both paths keep byte-identical history.
    ///
    /// `n` single-tick appends and trims leave exactly this: the trim
    /// horizon only grows, so the last tick's trim removes every entry
    /// that any earlier one did, and of the span's own entries it keeps
    /// only the last `kept`, those that end at or after it.
    fn record_bw(&mut self, n: u64, dt_us: u64, delivered_gbs: f64) {
        let horizon = self.time_us.saturating_sub(self.cfg.pcm_window_us);
        while let Some(&(t, _)) = self.bw_history.front() {
            if t < horizon {
                self.bw_history.pop_front();
            } else {
                break;
            }
        }
        // At most one window of ticks: counted, not divided out, so a
        // single tick costs one compare.
        let mut kept = 1;
        while kept < n && self.time_us - kept * dt_us >= horizon {
            kept += 1;
        }
        for back in (0..kept).rev() {
            self.bw_history
                .push_back((self.time_us - back * dt_us, delivered_gbs));
        }
        debug_assert!(
            self.bw_history.len() <= (self.cfg.pcm_window_us / dt_us.max(1) + 2) as usize,
            "bw_history grew past its PCM-window bound: {} entries",
            self.bw_history.len()
        );
    }

    /// Advance one tick like [`Node::step`], but replay pre-verified
    /// per-tick increments whenever the node is in a frozen span (see
    /// [`FastForward`]). Bit-for-bit identical to `step` on every field.
    pub fn step_fast(&mut self, dt_us: u64, demand: &Demand, ff: &mut FastForward) -> StepOutcome {
        let unchanged = self.no_event_since_capture(dt_us, demand, ff);
        if unchanged && ff.frozen {
            self.replay_frozen(1, ff);
            return ff.outcome;
        }
        // An event occurred (or we never froze): restart fixed-point
        // detection from reference steps.
        if !unchanged {
            if ff.frozen {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.fastpath_invalidations += 1;
                }
            }
            ff.frozen = false;
            ff.prev_valid = false;
            ff.epoch = self.state_epoch;
            ff.dt_us = dt_us;
            ff.demand = *demand;
        }
        let trackers = self.tracker_bits();
        let out = self.step(dt_us, demand);
        if self.tracker_bits() != trackers {
            // A tracker moved, so this tick's snapshot cannot equal the
            // previous one: skip writing and comparing it.
            ff.prev_valid = false;
            return out;
        }
        self.write_feedback_snapshot(&mut ff.cur);
        if ff.prev_valid && ff.cur == ff.prev {
            self.capture_increments(dt_us, demand, out, ff);
            ff.frozen = true;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.fastpath_frozen_spans += 1;
            }
        } else {
            core::mem::swap(&mut ff.prev, &mut ff.cur);
            ff.prev_valid = true;
        }
        out
    }

    /// True when the next tick of `dt_us` under `demand` would replay the
    /// frozen span in `ff`: the check at the head of [`Node::step_fast`].
    pub(crate) fn replays(&self, dt_us: u64, demand: &Demand, ff: &FastForward) -> bool {
        ff.frozen && self.no_event_since_capture(dt_us, demand, ff)
    }

    /// True when nothing that ends a span happened since `ff` last reset:
    /// no state-epoch bump, the same `dt` and demand bits, and no deferred
    /// actuation due. An actuation coming due is an event like any other:
    /// the tick must run through `step` (which applies it at the tick head
    /// and bumps the epoch), never be replayed over.
    fn no_event_since_capture(&self, dt_us: u64, demand: &Demand, ff: &FastForward) -> bool {
        self.actuation_due_us() > self.time_us
            && ff.epoch == self.state_epoch
            && ff.dt_us == dt_us
            && demand_bits_eq(&ff.demand, demand)
    }

    /// Bits of the two feedback values that settle last: the first socket's
    /// core DVFS frequency and the first GPU's SM clock (0 for a node
    /// without one). Both are in the feedback snapshot.
    fn tracker_bits(&self) -> (u64, u64) {
        (
            self.sockets
                .first()
                .map_or(0, |s| s.cpu.freq_ghz().to_bits()),
            self.gpus.first().map_or(0, |g| g.sm_clock_mhz().to_bits()),
        )
    }

    /// Serialise the feedback state — everything `step` *reads* — as raw
    /// bits. Two consecutive equal snapshots prove the node sits on a
    /// floating-point fixed point of `step` for the current demand.
    fn write_feedback_snapshot(&self, out: &mut Vec<u64>) {
        out.clear();
        for s in &self.sockets {
            out.push(s.cpu.freq_ghz().to_bits());
            out.push(s.cpu.freq_cap_ghz().to_bits());
            out.push(s.cpu.natural_target_ghz().to_bits());
            out.push(s.cpu.util().to_bits());
            out.push(s.uncore.freq_ghz().to_bits());
            let (min, max) = s.uncore.msr_limits();
            out.push(min.to_bits());
            out.push(max.to_bits());
            out.push(s.uncore.tdp_cap_ghz().to_bits());
            out.push(s.uncore.last_target_ghz().to_bits());
            out.push(s.mem.delivered_gbs().to_bits());
            out.push(s.mem.demanded_gbs().to_bits());
            out.push(s.power_limit_raw);
        }
        for g in &self.gpus {
            out.push(g.sm_clock_mhz().to_bits());
            out.push(g.util().to_bits());
        }
        out.push(self.last_power.core_w.to_bits());
        out.push(self.last_power.uncore_w.to_bits());
        out.push(self.last_power.dram_w.to_bits());
        out.push(self.last_power.gpu_w.to_bits());
        out.push(self.last_power.overhead_w.to_bits());
        out.push(self.pending_overhead_uj.to_bits());
    }

    /// Capture the per-tick accumulator increments at a fixed point. Every
    /// value is produced by the same expression (same operands, same
    /// evaluation order) `step` uses, so replaying them is bit-exact.
    fn capture_increments(
        &self,
        dt_us: u64,
        demand: &Demand,
        out: StepOutcome,
        ff: &mut FastForward,
    ) {
        let dt_s = crate::us_to_secs(dt_us);
        let n_sockets = self.sockets.len() as f64;
        ff.socket_inc.clear();
        for s in &self.sockets {
            let (cycles, instructions) =
                s.cpu
                    .tick_counter_increments(demand.cpu_util, out.progress, dt_s);
            ff.socket_inc
                .push((cycles, instructions, s.mem.delivered_gbs() * dt_s));
        }
        ff.gpu_inc.clear();
        for g in &self.gpus {
            ff.gpu_inc.push(g.power_w() * dt_s);
        }
        ff.pkg_per_socket_j =
            (out.power.core_w + out.power.uncore_w + out.power.overhead_w) / n_sockets * dt_s;
        ff.dram_per_socket_j = out.power.dram_w / n_sockets * dt_s;
        ff.outcome = out;
        if self.telemetry.is_some() {
            ff.residency_bins.clear();
            for s in &self.sockets {
                ff.residency_bins
                    .push(crate::telemetry::freq_bin(s.uncore.freq_ghz()));
            }
        }
    }

    /// Replay `n` ticks of the frozen span in `ff` (the caller checked
    /// [`Node::replays`]). Every accumulator adds its captured increment
    /// `n` times, in order, never `n ×` the increment: float addition does
    /// not associate. All feedback state stays untouched (it is at a fixed
    /// point). Inlined so that `step_fast`'s single-tick replay folds the
    /// loops away.
    #[inline]
    pub(crate) fn replay_frozen(&mut self, n: u64, ff: &FastForward) {
        let dt_us = ff.dt_us;
        for (s, &(cycles, instructions, gb)) in self.sockets.iter_mut().zip(&ff.socket_inc) {
            s.cpu.replay_ticks(n, cycles, instructions);
            s.mem.replay_ticks(n, gb);
            for _ in 0..n {
                s.pkg_energy_j += ff.pkg_per_socket_j;
                s.dram_energy_j += ff.dram_per_socket_j;
            }
        }
        for (g, &energy_j) in self.gpus.iter_mut().zip(&ff.gpu_inc) {
            g.replay_ticks(n, energy_j);
        }
        self.energy
            .accumulate_ticks(n, &ff.outcome.power, crate::us_to_secs(dt_us));
        self.time_us += n * dt_us;
        self.record_bw(n, dt_us, ff.outcome.delivered_gbs);
        // Telemetry replay mirrors step() 6b exactly: the uncore frequency
        // is feedback state, so its bin is constant across the span.
        if let Some(t) = self.telemetry.as_deref_mut() {
            for &bin in &ff.residency_bins {
                t.residency_us[bin as usize] += n * dt_us;
            }
            t.fastpath_replayed_ticks += n;
        }
    }

    /// Charge a monitoring access cost against the node: energy joins the
    /// next tick's overhead power; the ledger records both components so
    /// drivers can report invocation latency.
    pub fn charge_monitoring(&mut self, cost: AccessCost, is_write: bool) {
        // Any monitoring access perturbs the node (pending overhead now; MSR
        // side effects for writes), so it invalidates frozen fast-forward
        // state. Every msr_read/msr_write/pcm_read charges, so bumping here
        // covers the whole actuation surface.
        self.state_epoch = self.state_epoch.wrapping_add(1);
        self.pending_overhead_uj += cost.energy_uj;
        if is_write {
            self.ledger.record_write(cost);
        } else {
            self.ledger.record_read(cost);
        }
    }

    fn core_read_cost(&self) -> AccessCost {
        AccessCost::new(
            self.cfg.core_msr_read_latency_us,
            self.cfg.core_msr_read_energy_uj,
        )
    }

    /// MSR read with full cost accounting. Supports the registers the
    /// reproduced runtimes use; anything else is `UnknownRegister`.
    pub fn msr_read(&mut self, scope: MsrScope, addr: u32) -> Result<u64, MsrError> {
        let unit = RaplPowerUnit::default();
        match scope {
            MsrScope::Package(pkg) => {
                let idx = pkg as usize;
                if idx >= self.sockets.len() {
                    return Err(MsrError::BadScope(scope));
                }
                self.charge_monitoring(AccessCost::new(250.0, 260.0), false);
                match addr {
                    MSR_RAPL_POWER_UNIT => Ok(unit.encode()),
                    MSR_PKG_ENERGY_STATUS => {
                        Ok(unit.joules_to_counts(self.sockets[idx].pkg_energy_j))
                    }
                    MSR_DRAM_ENERGY_STATUS => {
                        Ok(unit.joules_to_counts(self.sockets[idx].dram_energy_j))
                    }
                    MSR_UNCORE_RATIO_LIMIT => {
                        let (min, max) = self.sockets[idx].uncore.msr_limits();
                        Ok(UncoreRatioLimit::from_ghz(min, max).encode())
                    }
                    MSR_PKG_POWER_LIMIT => Ok(self.sockets[idx].power_limit_raw),
                    _ => Err(MsrError::UnknownRegister(addr)),
                }
            }
            MsrScope::Core(core) => {
                if core >= self.cfg.total_cores() {
                    return Err(MsrError::BadScope(scope));
                }
                self.charge_monitoring(self.core_read_cost(), false);
                let cores = self.cfg.cpu.cores;
                fixed_counter(
                    &self.sockets[(core / cores) as usize].cpu,
                    addr,
                    core % cores,
                )
            }
        }
    }

    /// Read core-scope register `addr` on logical cores `0..out.len()` in
    /// one call. Core by core, this returns and charges exactly what
    /// `msr_read(MsrScope::Core(core), addr)` would, so the ledger and the
    /// overhead energy match that many single reads. It stops at the first
    /// error; the cores before it stay read and charged.
    pub fn msr_read_cores(&mut self, addr: u32, out: &mut [u64]) -> Result<(), MsrError> {
        let valid = out.len().min(self.cfg.total_cores() as usize);
        let cost = self.core_read_cost();
        if valid > 0 {
            // A register the cores lack fails on core 0, its read charged.
            if let Err(e) = fixed_counter(&self.sockets[0].cpu, addr, 0) {
                self.charge_monitoring(cost, false);
                return Err(e);
            }
        }
        for _ in 0..valid {
            self.charge_monitoring(cost, false);
        }
        let per_socket = (self.cfg.cpu.cores as usize).max(1);
        for (socket, values) in self.sockets.iter().zip(out[..valid].chunks_mut(per_socket)) {
            for (local, value) in (0..).zip(values) {
                *value = fixed_counter(&socket.cpu, addr, local)?;
            }
        }
        if valid < out.len() {
            return Err(MsrError::BadScope(MsrScope::Core(valid as u32)));
        }
        Ok(())
    }

    /// MSR write with cost accounting. Only `UNCORE_RATIO_LIMIT` is
    /// writable, matching what the runtimes actuate.
    pub fn msr_write(&mut self, scope: MsrScope, addr: u32, value: u64) -> Result<(), MsrError> {
        match scope {
            MsrScope::Package(pkg) => {
                let idx = pkg as usize;
                if idx >= self.sockets.len() {
                    return Err(MsrError::BadScope(scope));
                }
                self.charge_monitoring(AccessCost::new(60.0, 60.0), true);
                match addr {
                    MSR_UNCORE_RATIO_LIMIT => {
                        // Injected actuation faults: the write's cost is
                        // already charged (the wrmsr was attempted) whether
                        // it fails, lands late, or goes through.
                        if let Some(fs) = self.faults.as_deref_mut() {
                            fs.uncore_writes += 1;
                            if fs
                                .plan
                                .msr
                                .uncore_write_fail_every
                                .is_some_and(|n| fs.uncore_writes.is_multiple_of(n))
                            {
                                fs.counters.msr_write_fails += 1;
                                if let Some(t) = self.telemetry.as_deref_mut() {
                                    t.push_event(
                                        magus_telemetry::Event::new(
                                            self.time_us,
                                            "fault_msr_write_fail",
                                        )
                                        .with("pkg", u64::from(pkg))
                                        .with("attempt", fs.uncore_writes),
                                    );
                                }
                                return Err(MsrError::TransientFault);
                            }
                            if fs.plan.msr.actuation_delay_us > 0 {
                                let due = self.time_us + fs.plan.msr.actuation_delay_us;
                                fs.defer_write(due, pkg, value);
                                if let Some(t) = self.telemetry.as_deref_mut() {
                                    t.push_event(
                                        magus_telemetry::Event::new(
                                            self.time_us,
                                            "fault_actuation_delayed",
                                        )
                                        .with("pkg", u64::from(pkg))
                                        .with("due_us", due),
                                    );
                                }
                                return Ok(());
                            }
                        }
                        self.land_uncore_limit(pkg, value, false);
                        Ok(())
                    }
                    MSR_PKG_POWER_LIMIT => {
                        self.sockets[idx].power_limit_raw = value;
                        Ok(())
                    }
                    MSR_RAPL_POWER_UNIT | MSR_PKG_ENERGY_STATUS | MSR_DRAM_ENERGY_STATUS => {
                        Err(MsrError::ReadOnly(addr))
                    }
                    _ => Err(MsrError::UnknownRegister(addr)),
                }
            }
            MsrScope::Core(_) => Err(MsrError::ReadOnly(addr)),
        }
    }

    /// Program an enabled RAPL PL1 package power limit on every socket
    /// (`limit_w` is per socket). Convenience over `msr_write(0x610)`.
    pub fn set_power_limit_w(&mut self, limit_w: f64) -> Result<(), MsrError> {
        let raw = PkgPowerLimit::enabled_watts(limit_w).encode();
        for pkg in 0..self.cfg.sockets {
            self.msr_write(MsrScope::Package(pkg), MSR_PKG_POWER_LIMIT, raw)?;
        }
        Ok(())
    }

    /// PCM-style memory-throughput measurement: the mean delivered system
    /// throughput over the configured measurement window, with sensor noise.
    /// Charges the measurement's daemon-power cost.
    ///
    /// Returns GB/s. Reads during the very first window average whatever
    /// history exists. With an attached [`FaultPlan`], reads may fail
    /// ([`InjectedFault::PcmDropout`]), return stale values, spike, or carry
    /// extra jitter per the plan's schedule; the clean noise draw always
    /// comes from the node's own sensor-noise stream, so an empty plan
    /// leaves the reading sequence bit-identical.
    pub fn pcm_try_read_gbs(&mut self) -> Result<f64, InjectedFault> {
        let window_us = self.cfg.pcm_window_us;
        let energy_uj = self.cfg.pcm_daemon_power_w * window_us as f64; // W·µs = µJ
        self.charge_monitoring(AccessCost::new(window_us as f64, energy_uj), false);
        self.pcm_reads += 1;
        let since = self.time_us.saturating_sub(window_us);
        let mut sum = 0.0;
        let mut count = 0u64;
        for &(t, bw) in self.bw_history.iter().rev() {
            if t <= since {
                break;
            }
            sum += bw;
            count += 1;
        }
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        let sigma = (mean * self.pcm_noise_rel).max(self.pcm_noise_abs_gbs);
        // Cheap deterministic gaussian-ish noise: mean of 4 uniforms.
        let u: f64 = (0..4).map(|_| self.noise.gen_range(-1.0..1.0)).sum::<f64>() / 4.0;
        let mut value = (mean + sigma * u * 1.732).max(0.0);
        let read_idx = self.pcm_reads;
        let time_us = self.time_us;
        if let Some(fs) = self.faults.as_deref_mut() {
            let pcm = fs.plan.pcm;
            if pcm
                .dropout_every
                .is_some_and(|n| read_idx.is_multiple_of(n))
            {
                fs.counters.pcm_dropouts += 1;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.push_event(
                        magus_telemetry::Event::new(time_us, "fault_pcm_dropout")
                            .with("read", read_idx),
                    );
                }
                return Err(InjectedFault::PcmDropout);
            }
            if pcm.stale_every.is_some_and(|n| read_idx.is_multiple_of(n)) {
                fs.counters.pcm_stale += 1;
                let stale = fs.last_pcm_gbs;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.push_event(
                        magus_telemetry::Event::new(time_us, "fault_pcm_stale")
                            .with("read", read_idx)
                            .with("gbs", stale),
                    );
                }
                return Ok(stale);
            }
            if pcm.spike_every.is_some_and(|n| read_idx.is_multiple_of(n)) {
                fs.counters.pcm_spikes += 1;
                let sign = if fs.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                value = (value * (1.0 + sign * pcm.spike_magnitude_rel)).max(0.0);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.push_event(
                        magus_telemetry::Event::new(time_us, "fault_pcm_spike")
                            .with("read", read_idx)
                            .with("gbs", value),
                    );
                }
            }
            if pcm.extra_noise_rel > 0.0 {
                let jitter: f64 = fs.rng.gen_range(-1.0..1.0);
                value = (value + mean * pcm.extra_noise_rel * jitter).max(0.0);
            }
            fs.last_pcm_gbs = value;
        }
        Ok(value)
    }

    /// Delivered throughput of the most recent tick (GB/s), noise-free —
    /// for recording ground-truth traces, not for runtime consumption.
    #[must_use]
    pub fn delivered_gbs(&self) -> f64 {
        self.bw_history.back().map_or(0.0, |&(_, bw)| bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::intel_a100())
    }

    fn busy_demand() -> Demand {
        Demand::new(40.0, 0.5, 0.2, 0.9)
    }

    #[test]
    fn uncore_stays_max_under_gpu_dominant_load() {
        // The paper's motivating observation (Fig 1c): with the stock
        // governor, GPU-dominant load never pushes package power to TDP, so
        // the uncore never leaves its maximum.
        let mut n = node();
        for _ in 0..500 {
            n.step(10_000, &busy_demand());
        }
        for socket in n.sockets() {
            assert!((socket.uncore.freq_ghz() - 2.2).abs() < 1e-9);
        }
        assert!(n.last_power().pkg_w() < 0.9 * 2.0 * 270.0);
    }

    #[test]
    fn msr_write_0x620_lowers_uncore() {
        let mut n = node();
        let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
        for pkg in 0..2 {
            n.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
        for _ in 0..100 {
            n.step(10_000, &busy_demand());
        }
        for socket in n.sockets() {
            assert!((socket.uncore.freq_ghz() - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn low_uncore_caps_delivered_bandwidth_and_progress() {
        let mut hi = node();
        let mut lo = node();
        let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
        for pkg in 0..2 {
            lo.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
        let demand = Demand::new(120.0, 0.6, 0.2, 0.9);
        let mut out_hi = None;
        let mut out_lo = None;
        for _ in 0..300 {
            out_hi = Some(hi.step(10_000, &demand));
            out_lo = Some(lo.step(10_000, &demand));
        }
        let (hi, lo) = (out_hi.unwrap(), out_lo.unwrap());
        assert!(lo.delivered_gbs < hi.delivered_gbs);
        assert!(lo.progress < hi.progress);
        assert!(hi.progress <= 1.0);
    }

    #[test]
    fn pkg_power_drops_when_uncore_drops() {
        let mut hi = node();
        let mut lo = node();
        let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
        for pkg in 0..2 {
            lo.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                .unwrap();
        }
        let demand = busy_demand();
        for _ in 0..300 {
            hi.step(10_000, &demand);
            lo.step(10_000, &demand);
        }
        let delta = hi.last_power().pkg_w() - lo.last_power().pkg_w();
        // Fig 2 scale: ~82 W across two sockets.
        assert!(delta > 55.0 && delta < 110.0, "delta = {delta}");
    }

    #[test]
    fn rapl_counters_track_energy() {
        let mut n = node();
        for _ in 0..100 {
            n.step(10_000, &busy_demand());
        }
        let unit = RaplPowerUnit::default();
        let raw = n
            .msr_read(MsrScope::Package(0), MSR_PKG_ENERGY_STATUS)
            .unwrap();
        let j = unit.counts_to_joules(raw);
        let expect = n.sockets()[0].pkg_energy_j;
        assert!((j - expect).abs() < 0.01, "rapl {j} vs model {expect}");
        assert!(j > 0.0);
    }

    #[test]
    fn fixed_counters_monotone_and_ipc_sane() {
        let mut n = node();
        let mut prev = 0u64;
        for _ in 0..5 {
            for _ in 0..20 {
                n.step(10_000, &busy_demand());
            }
            let inst = n.msr_read(MsrScope::Core(0), IA32_FIXED_CTR0).unwrap();
            assert!(inst >= prev);
            prev = inst;
        }
        let inst = n.msr_read(MsrScope::Core(3), IA32_FIXED_CTR0).unwrap();
        let cyc = n.msr_read(MsrScope::Core(3), IA32_FIXED_CTR1).unwrap();
        let ipc = inst as f64 / cyc as f64;
        assert!(ipc > 1.0 && ipc < 2.5, "ipc = {ipc}");
    }

    #[test]
    fn monitoring_costs_become_overhead_power() {
        let mut n = node();
        n.step(10_000, &Demand::idle());
        let idle_power = n.last_power().pkg_w();
        // One PCM read charges window-energy into the next tick.
        let _ = n.pcm_try_read_gbs();
        n.step(10_000, &Demand::idle());
        assert!(n.last_power().overhead_w > 0.0);
        assert!(n.last_power().pkg_w() > idle_power);
        assert_eq!(n.ledger().reads(), 1);
    }

    #[test]
    fn pcm_read_averages_recent_window() {
        let mut n = node();
        let demand = Demand::new(30.0, 0.5, 0.2, 0.5);
        for _ in 0..50 {
            n.step(10_000, &demand);
        }
        let reading = n.pcm_try_read_gbs().unwrap();
        assert!((reading - 30.0).abs() < 3.0, "reading = {reading}");
    }

    #[test]
    fn bad_scopes_and_registers_error() {
        let mut n = node();
        assert!(matches!(
            n.msr_read(MsrScope::Package(9), MSR_PKG_ENERGY_STATUS),
            Err(MsrError::BadScope(_))
        ));
        assert!(matches!(
            n.msr_read(MsrScope::Core(999), IA32_FIXED_CTR0),
            Err(MsrError::BadScope(_))
        ));
        assert!(matches!(
            n.msr_read(MsrScope::Package(0), 0x42),
            Err(MsrError::UnknownRegister(0x42))
        ));
        assert!(matches!(
            n.msr_write(MsrScope::Package(0), MSR_PKG_ENERGY_STATUS, 0),
            Err(MsrError::ReadOnly(_))
        ));
        assert!(matches!(
            n.msr_write(MsrScope::Core(0), IA32_FIXED_CTR0, 0),
            Err(MsrError::ReadOnly(_))
        ));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut n = node();
            for _ in 0..200 {
                n.step(10_000, &busy_demand());
            }
            let _ = n.pcm_try_read_gbs();
            (n.energy().total_j(), n.pcm_try_read_gbs())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn power_limit_enforced_by_core_throttling() {
        let mut n = node();
        // A heavy CPU load, uncapped, runs well above 90 W per socket.
        let demand = Demand::new(40.0, 0.4, 0.9, 0.9);
        for _ in 0..500 {
            n.step(10_000, &demand);
        }
        let uncapped = n.last_power().pkg_w() / 2.0;
        assert!(uncapped > 95.0, "uncapped {uncapped}");

        n.set_power_limit_w(90.0).unwrap();
        for _ in 0..3000 {
            n.step(10_000, &demand);
        }
        let capped = n.last_power().pkg_w() / 2.0;
        assert!(
            capped < 93.0,
            "capped socket power {capped} W vs limit 90 W"
        );
        assert!(n.sockets()[0].cpu.freq_cap_ghz().is_finite());

        // Disabling the limit releases the throttle.
        let off = PkgPowerLimit::disabled().encode();
        for pkg in 0..2 {
            n.msr_write(MsrScope::Package(pkg), MSR_PKG_POWER_LIMIT, off)
                .unwrap();
        }
        for _ in 0..500 {
            n.step(10_000, &demand);
        }
        assert!(n.last_power().pkg_w() / 2.0 > 95.0);
    }

    #[test]
    fn throttled_cores_slow_cpu_sensitive_work() {
        // A workload with a 40% host-sensitive critical path under a tight
        // power cap progresses slower; an insensitive one does not.
        let run = |cpu_frac: f64| {
            let mut n = node();
            n.set_power_limit_w(80.0).unwrap();
            let demand = Demand::new(10.0, 0.1, 0.9, 0.5).with_cpu_frac(cpu_frac);
            let mut last = 1.0;
            for _ in 0..2000 {
                last = n.step(10_000, &demand).progress;
            }
            last
        };
        let insensitive = run(0.0);
        let sensitive = run(0.4);
        assert!((insensitive - 1.0).abs() < 1e-9, "{insensitive}");
        assert!(sensitive < 0.92, "sensitive progress {sensitive}");
        assert!(sensitive > 0.4);
    }

    #[test]
    fn cpu_frac_neutral_without_cap() {
        let mut n = node();
        let demand = Demand::new(10.0, 0.1, 0.9, 0.5).with_cpu_frac(0.5);
        let mut last = 0.0;
        for _ in 0..300 {
            last = n.step(10_000, &demand).progress;
        }
        assert!((last - 1.0).abs() < 1e-9, "uncapped progress {last}");
    }

    #[test]
    fn power_limit_register_round_trips() {
        let mut n = node();
        n.set_power_limit_w(150.0).unwrap();
        let raw = n
            .msr_read(MsrScope::Package(1), MSR_PKG_POWER_LIMIT)
            .unwrap();
        let lim = PkgPowerLimit::decode(raw, RaplPowerUnit::default().power_exp);
        assert!(lim.enabled);
        assert!((lim.limit_w - 150.0).abs() < 0.2);
    }

    /// Compare every observable accumulator and feedback field of two nodes
    /// bit-for-bit.
    fn assert_nodes_identical(a: &Node, b: &Node, ctx: &str) {
        assert_eq!(a.time_us(), b.time_us(), "{ctx}: time");
        let (ea, eb) = (a.energy(), b.energy());
        for (x, y, what) in [
            (ea.core_j, eb.core_j, "core_j"),
            (ea.uncore_j, eb.uncore_j, "uncore_j"),
            (ea.dram_j, eb.dram_j, "dram_j"),
            (ea.gpu_j, eb.gpu_j, "gpu_j"),
            (ea.overhead_j, eb.overhead_j, "overhead_j"),
            (ea.elapsed_s, eb.elapsed_s, "elapsed_s"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: energy.{what}");
        }
        for (sa, sb) in a.sockets().iter().zip(b.sockets()) {
            assert_eq!(
                sa.cpu.freq_ghz().to_bits(),
                sb.cpu.freq_ghz().to_bits(),
                "{ctx}"
            );
            assert_eq!(
                sa.cpu.cycles().to_bits(),
                sb.cpu.cycles().to_bits(),
                "{ctx}"
            );
            assert_eq!(
                sa.cpu.instructions().to_bits(),
                sb.cpu.instructions().to_bits(),
                "{ctx}"
            );
            assert_eq!(
                sa.pkg_energy_j.to_bits(),
                sb.pkg_energy_j.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                sa.dram_energy_j.to_bits(),
                sb.dram_energy_j.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                sa.uncore.freq_ghz().to_bits(),
                sb.uncore.freq_ghz().to_bits(),
                "{ctx}"
            );
            assert_eq!(sa.uncore.transitions(), sb.uncore.transitions(), "{ctx}");
            assert_eq!(
                sa.mem.total_gb().to_bits(),
                sb.mem.total_gb().to_bits(),
                "{ctx}"
            );
        }
        for (ga, gb) in a.gpus().iter().zip(b.gpus()) {
            assert_eq!(
                ga.sm_clock_mhz().to_bits(),
                gb.sm_clock_mhz().to_bits(),
                "{ctx}"
            );
            assert_eq!(ga.energy_j().to_bits(), gb.energy_j().to_bits(), "{ctx}");
        }
        assert_eq!(a.last_power(), b.last_power(), "{ctx}: last_power");
        assert_eq!(
            a.delivered_gbs().to_bits(),
            b.delivered_gbs().to_bits(),
            "{ctx}"
        );
    }

    #[test]
    fn fast_path_matches_reference_bit_for_bit() {
        let mut reference = node();
        let mut fast = node();
        let mut ff = FastForward::new();
        let demand = busy_demand();
        for _ in 0..1000 {
            reference.step(10_000, &demand);
            fast.step_fast(10_000, &demand, &mut ff);
        }
        assert!(ff.frozen(), "fast path never froze on constant demand");
        assert_nodes_identical(&reference, &fast, "steady busy");
        // Noise stream untouched by replay: PCM reads agree exactly.
        assert_eq!(reference.pcm_try_read_gbs(), fast.pcm_try_read_gbs());
    }

    #[test]
    fn fast_path_matches_across_events() {
        // MSR writes, power-limit programming, and demand changes all
        // invalidate the frozen state; the two paths must stay identical
        // through every transition.
        let run = |fast: bool| {
            let mut n = node();
            let mut ff = FastForward::new();
            let do_ticks = |n: &mut Node, demand: &Demand, ticks: usize, ff: &mut FastForward| {
                for _ in 0..ticks {
                    if fast {
                        n.step_fast(10_000, demand, ff);
                    } else {
                        n.step(10_000, demand);
                    }
                }
            };
            let busy = busy_demand();
            let memheavy = Demand::new(150.0, 0.7, 0.6, 0.9).with_cpu_frac(0.2);
            do_ticks(&mut n, &busy, 300, &mut ff);
            let raw = UncoreRatioLimit::from_ghz(0.8, 1.4).encode();
            for pkg in 0..2 {
                n.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                    .unwrap();
            }
            do_ticks(&mut n, &memheavy, 400, &mut ff);
            n.set_power_limit_w(90.0).unwrap();
            do_ticks(&mut n, &busy, 500, &mut ff);
            let _ = n.pcm_try_read_gbs();
            do_ticks(&mut n, &memheavy, 300, &mut ff);
            n
        };
        let reference = run(false);
        let fast = run(true);
        assert_nodes_identical(&reference, &fast, "event sequence");
        assert_eq!(reference.ledger().reads(), fast.ledger().reads());
        assert_eq!(reference.ledger().writes(), fast.ledger().writes());
    }

    /// A span replayed in one call leaves every accumulator, the PCM
    /// history and the telemetry exactly as the same ticks replayed one by
    /// one, for spans shorter and longer than the PCM window (10 ticks).
    #[test]
    fn span_replay_matches_tick_by_tick_replay() {
        let mut frozen = node();
        frozen.arm_telemetry();
        let mut ff = FastForward::new();
        let demand = busy_demand();
        for _ in 0..1000 {
            frozen.step_fast(10_000, &demand, &mut ff);
        }
        assert!(frozen.replays(10_000, &demand, &ff));
        for ticks in [1, 3, 9, 10, 11, 12, 25, 400] {
            let mut span = frozen.clone();
            span.replay_frozen(ticks, &ff);
            let (mut single, mut single_ff) = (frozen.clone(), ff.clone());
            for _ in 0..ticks {
                single.step_fast(10_000, &demand, &mut single_ff);
            }
            let ctx = format!("{ticks} ticks");
            assert_nodes_identical(&single, &span, &ctx);
            assert_eq!(single.bw_history, span.bw_history, "{ctx}");
            let (st, pt) = (single.telemetry().unwrap(), span.telemetry().unwrap());
            assert_eq!(st.counters(), pt.counters(), "{ctx}");
            assert_eq!(single.pcm_try_read_gbs(), span.pcm_try_read_gbs(), "{ctx}");
        }
    }

    /// One call per register returns and charges what one `msr_read` per
    /// core does, errors included.
    #[test]
    fn core_register_reads_match_single_reads() {
        let mut batched = node();
        for _ in 0..50 {
            batched.step(10_000, &busy_demand());
        }
        let mut single = batched.clone();
        let cores = batched.config().total_cores();
        for addr in [IA32_FIXED_CTR0, IA32_FIXED_CTR1, IA32_FIXED_CTR2] {
            let mut values = vec![0; cores as usize];
            batched.msr_read_cores(addr, &mut values).unwrap();
            let expect: Vec<u64> = (0..cores)
                .map(|c| single.msr_read(MsrScope::Core(c), addr).unwrap())
                .collect();
            assert_eq!(values, expect, "register {addr:#x}");
        }
        let ledger = |n: &Node| {
            let l = n.ledger();
            (l.reads(), l.pending(), l.lifetime())
        };
        assert_eq!(ledger(&batched), ledger(&single));
        assert_eq!(
            batched.pending_overhead_uj.to_bits(),
            single.pending_overhead_uj.to_bits()
        );

        // An unknown register fails on core 0 after charging it; one core
        // too many fails unread and uncharged after the valid ones.
        let reads = batched.ledger().reads();
        assert!(matches!(
            batched.msr_read_cores(0x42, &mut [0; 4]),
            Err(MsrError::UnknownRegister(0x42))
        ));
        assert_eq!(batched.ledger().reads(), reads + 1);
        let mut too_many = vec![0; cores as usize + 1];
        assert!(matches!(
            batched.msr_read_cores(IA32_FIXED_CTR0, &mut too_many),
            Err(MsrError::BadScope(MsrScope::Core(c))) if c == cores
        ));
        assert_eq!(batched.ledger().reads(), reads + 1 + u64::from(cores));
    }

    #[test]
    fn bw_history_stays_bounded() {
        let mut n = node();
        let demand = busy_demand();
        for _ in 0..5000 {
            n.step(10_000, &demand);
        }
        let bound = (n.config().pcm_window_us / n.config().tick_us + 2) as usize;
        assert!(
            n.bw_history.len() <= bound,
            "{} entries > bound {bound}",
            n.bw_history.len()
        );
        // The PCM window is still fully served.
        let reading = n.pcm_try_read_gbs().unwrap();
        assert!((reading - 40.0).abs() < 4.0, "reading = {reading}");
    }

    #[test]
    fn telemetry_is_identical_across_paths_and_records_msr_events() {
        let drive = |fast: bool| {
            let mut n = node();
            n.arm_telemetry();
            let mut ff = FastForward::new();
            let busy = busy_demand();
            let do_ticks = |n: &mut Node, ticks: usize, ff: &mut FastForward| {
                for _ in 0..ticks {
                    if fast {
                        n.step_fast(10_000, &busy, ff);
                    } else {
                        n.step(10_000, &busy);
                    }
                }
            };
            do_ticks(&mut n, 1000, &mut ff);
            let raw = UncoreRatioLimit::from_ghz(0.8, 0.8).encode();
            for pkg in 0..2 {
                n.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                    .unwrap();
            }
            do_ticks(&mut n, 300, &mut ff);
            n
        };
        let reference = drive(false);
        let fast = drive(true);
        let (rt, ft) = (reference.telemetry().unwrap(), fast.telemetry().unwrap());
        let (rc, fc) = (rt.counters(), ft.counters());
        // Deterministic counters agree between the reference and fast paths.
        assert_eq!(rc.residency_us, fc.residency_us);
        assert_eq!(rc.uncore_msr_writes, 2);
        assert_eq!(fc.uncore_msr_writes, 2);
        assert_eq!(rt.events(), ft.events());
        // Fast-path diagnostics fire only on the fast path.
        assert!(fc.fastpath_frozen_spans >= 1);
        assert!(fc.fastpath_replayed_ticks > 0);
        assert!(fc.fastpath_invalidations >= 1, "MSR write must thaw");
        assert_eq!(rc.fastpath_replayed_ticks, 0);
        // Residency covers every socket-tick exactly once.
        assert_eq!(rc.residency_total_us(), 1300 * 10_000 * 2);
        let kinds: Vec<&str> = rt.events().iter().map(|e| e.kind.as_ref()).collect();
        assert_eq!(kinds, ["uncore_limit_write", "uncore_limit_write"]);
    }

    #[test]
    fn event_push_does_not_thaw_frozen_spans() {
        let mut n = node();
        n.arm_telemetry();
        let mut ff = FastForward::new();
        let demand = busy_demand();
        for _ in 0..1000 {
            n.step_fast(10_000, &demand, &mut ff);
        }
        assert!(ff.frozen());
        let before = n.telemetry().unwrap().counters().fastpath_invalidations;
        let t = n.time_us();
        n.telemetry_mut()
            .unwrap()
            .push_event(magus_telemetry::Event::new(t, "marker"));
        n.step_fast(10_000, &demand, &mut ff);
        assert!(ff.frozen(), "event push must not invalidate the span");
        assert_eq!(
            n.telemetry().unwrap().counters().fastpath_invalidations,
            before
        );
    }

    /// Inputs that a memo keyed on anything coarser than the exact bits
    /// would confuse: signed zeros, the clamp bounds, their one-ULP
    /// neighbours, and values beyond the bounds.
    fn curve_inputs(bounds: [f64; 2]) -> Vec<f64> {
        let mut inputs = vec![0.0, -0.0, f64::MIN_POSITIVE, 0.5, -1.0];
        for b in bounds {
            inputs.extend([b, b.next_up(), b.next_down(), 2.0 * b]);
        }
        inputs
    }

    #[test]
    fn curve_memo_matches_uncached_curves_bit_for_bit() {
        let n = node();
        let s = &n.sockets()[0];
        let core_max = s.cpu.config().core_freq_max_ghz;
        type Memoised = fn(&mut Curves, &Socket, f64) -> f64;
        type Uncached = fn(&Socket, f64) -> f64;
        let curves: [(&str, Memoised, Uncached, [f64; 2]); 3] = [
            (
                "bw_cap",
                Curves::bw_cap_gbs,
                |s, x| s.mem.bw_cap_gbs(x),
                [0.0, 1.0],
            ),
            (
                "uncore",
                Curves::uncore_term,
                |s, x| s.uncore.freq_term(x),
                [0.0, 1.0],
            ),
            (
                "core",
                Curves::core_term,
                |s, x| s.cpu.freq_term(x),
                [0.0, core_max],
            ),
        ];
        for (name, memoised, uncached, bounds) in curves {
            let specials = curve_inputs(bounds);
            let mut rng = SmallRng::seed_from_u64(0x6d656d6f);
            let mut memo = Curves::default();
            let mut x = bounds[1];
            for i in 0..4000 {
                // Repeat the last input, step it by one ULP, jump to a
                // special value or draw a fresh one.
                x = match rng.gen_range(0..=3) {
                    0 => x,
                    1 if rng.gen_bool(0.5) => x.next_up(),
                    1 => x.next_down(),
                    2 => specials[rng.gen_range(0..=specials.len() - 1)],
                    _ => rng.gen_range(-0.1..1.1) * bounds[1],
                };
                assert_eq!(
                    memoised(&mut memo, s, x).to_bits(),
                    uncached(s, x).to_bits(),
                    "{name}: input {x:e} (step {i})"
                );
            }
        }
    }

    /// The curve memo is shared by the sockets. With different uncore
    /// limits on the two packages their bandwidth and uncore inputs differ
    /// on every tick, and every tick's power must still equal the uncached
    /// per-socket expressions.
    #[test]
    fn shared_curve_memo_serves_sockets_at_different_operating_points() {
        let mut n = node();
        let write = |n: &mut Node, limits: [f64; 2]| {
            for (pkg, ghz) in (0..).zip(limits) {
                let raw = UncoreRatioLimit::from_ghz(0.8, ghz).encode();
                n.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)
                    .unwrap();
            }
        };
        let busy = busy_demand();
        let memheavy = Demand::new(150.0, 0.7, 0.6, 0.9).with_cpu_frac(0.2);
        let bits = |p: &PowerBreakdown| {
            [p.core_w, p.uncore_w, p.dram_w, p.gpu_w, p.overhead_w].map(f64::to_bits)
        };
        write(&mut n, [0.8, 2.2]);
        for tick in 0..600 {
            if tick == 300 {
                write(&mut n, [1.4, 1.8]);
            }
            let demand = if tick % 200 < 100 { &busy } else { &memheavy };
            let out = n.step(10_000, demand);
            let mut want = PowerBreakdown {
                overhead_w: out.power.overhead_w,
                ..PowerBreakdown::default()
            };
            for s in n.sockets() {
                let cap = s.mem.bw_cap_gbs(s.uncore.norm_freq());
                want.core_w += s.cpu.power_w();
                want.uncore_w += s.uncore.power_w(s.mem.activity(cap));
                want.dram_w += s.mem.dram_power_w();
            }
            for g in n.gpus() {
                want.gpu_w += g.power_w();
            }
            let [a, b] = [&n.sockets()[0], &n.sockets()[1]];
            assert_ne!(
                a.uncore.freq_ghz().to_bits(),
                b.uncore.freq_ghz().to_bits(),
                "tick {tick}: sockets share an operating point"
            );
            assert_eq!(bits(&out.power), bits(&want), "tick {tick}");
        }
    }

    #[test]
    fn tdp_coupling_throttles_under_extreme_cpu_load() {
        // Force a CPU-saturating, memory-heavy demand with an artificially
        // low TDP so the stock governor's coupling path is exercised.
        let mut cfg = NodeConfig::intel_a100();
        cfg.cpu.tdp_w = 110.0;
        let mut n = Node::new(cfg);
        let demand = Demand::new(150.0, 0.8, 1.0, 0.9);
        for _ in 0..500 {
            n.step(10_000, &demand);
        }
        let throttled = n.sockets().iter().any(|s| s.uncore.freq_ghz() < 2.2 - 1e-6);
        assert!(throttled, "TDP coupling never engaged");
    }
}
