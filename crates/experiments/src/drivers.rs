//! Runtime drivers: scheduling wrappers binding decision cores to the node.
//!
//! A driver is invoked by the harness whenever its decision is due. One
//! invocation performs the runtime's *measurement sweep* against the node
//! (charging the real access costs), feeds the decision core, actuates, and
//! reports how long the invocation occupied the monitoring daemon — the
//! harness schedules the next invocation `invocation + rest_interval`
//! later, reproducing the 0.3 s (MAGUS) vs 0.5 s (UPS) decision periods of
//! §6.5.

use std::ops::DerefMut;

use magus_hetsim::{Decision, Node, NodeDecider, Simulation};
use magus_msr::{AccessCost, MsrError, MsrScope, UncoreRatioLimit, MSR_UNCORE_RATIO_LIMIT};
use magus_runtime::{MagusAction, MagusConfig, MagusCore, Telemetry, UncoreLevel};
use magus_telemetry::Event;
use magus_ups::{UpsConfig, UpsCore, UpsSampler};

/// Stable wire name for a [`magus_runtime::Trend`] in decision events.
fn trend_name(trend: magus_runtime::Trend) -> &'static str {
    match trend {
        magus_runtime::Trend::Increase => "increase",
        magus_runtime::Trend::Decrease => "decrease",
        magus_runtime::Trend::Stable => "stable",
    }
}

/// Stable wire name for a [`MagusAction`] in decision events.
fn action_name(action: MagusAction) -> &'static str {
    match action {
        MagusAction::SetUpper => "set_upper",
        MagusAction::SetLower => "set_lower",
        MagusAction::Hold => "hold",
    }
}

/// Push the event `make` builds onto the node's telemetry — only when the
/// node is armed, so an unarmed node never builds an [`Event`]. Pushing
/// never perturbs simulated state or thaws a frozen fast-forward span.
fn push_event(sim: &mut Simulation, make: impl FnOnce(u64) -> Event) {
    let t_us = sim.node().time_us();
    if let Some(t) = sim.node_mut().telemetry_mut() {
        t.push_event(make(t_us));
    }
}

/// A schedulable uncore runtime.
pub trait RuntimeDriver {
    /// Short name for reports ("MAGUS", "UPS", "default", ...).
    fn name(&self) -> &str;

    /// Called once before the application starts.
    fn attach(&mut self, sim: &mut Simulation);

    /// One decision invocation. Returns the invocation latency in µs (how
    /// long the measurement sweep occupied the daemon).
    fn on_decision(&mut self, sim: &mut Simulation) -> u64;

    /// Rest interval between the end of one invocation and the next (µs).
    fn rest_interval_us(&self) -> u64;

    /// Monitor-only mode: decisions are computed but *not* actuated. Used
    /// by the Table 2 overhead measurement, which the paper defines as
    /// "hardware counter monitoring and phase detection, while excluding
    /// uncore scaling" (§6.5). Default: ignored.
    fn set_monitor_only(&mut self, _on: bool) {}

    /// Fraction of post-warm-up decision cycles spent in the
    /// high-frequency locked state (§6.2), for runtimes that track it.
    /// `None` for runtimes without an Algorithm 2 detector.
    fn high_freq_fraction(&self) -> Option<f64> {
        None
    }
}

/// A [`RuntimeDriver`] as the [`NodeDecider`] that `magus_hetsim::run_node`
/// fires: attach, then one `on_decision` + `rest_interval_us` pair per
/// deadline. `D` is a trial's borrowed driver or a fleet node's boxed one.
pub(crate) struct DriverDecider<D>(pub(crate) D);

impl<D> NodeDecider for DriverDecider<D>
where
    D: DerefMut,
    D::Target: RuntimeDriver,
{
    fn attach(&mut self, sim: &mut Simulation) {
        self.0.attach(sim);
    }

    fn decide(&mut self, sim: &mut Simulation) -> Decision {
        let latency_us = self.0.on_decision(sim);
        Decision {
            latency_us,
            rest_us: self.0.rest_interval_us(),
        }
    }
}

/// One MAGUS sample: socket memory throughput over the PCM window, in
/// MB/s (the scale of the paper's thresholds). An injected dropout (the
/// node's `FaultPlan.pcm`) gives `None` and a `magus_degraded` event with
/// `reason = "sample"`: the caller holds its previous decision rather than
/// feed the detector a fabricated sample (DESIGN §8).
fn sample_mbs(sim: &mut Simulation) -> Option<f64> {
    match sim.node_mut().pcm_try_read_gbs() {
        Ok(gbs) => Some(gbs * 1000.0),
        Err(_) => {
            push_event(sim, |t_us| {
                Event::new(t_us, "magus_degraded").with("reason", "sample")
            });
            None
        }
    }
}

/// Measure an invocation's latency from the cost ledger: the latency of
/// every monitoring access charged during `f`.
fn with_invocation_latency(sim: &mut Simulation, f: impl FnOnce(&mut Simulation)) -> u64 {
    // Drain whatever cost is pending so we only see this invocation's.
    let _ = sim.node_mut().ledger_mut().drain();
    f(sim);
    sim.node_mut().ledger_mut().drain().latency_us.round() as u64
}

/// Attempts at one socket's uncore write before the governor gives up on
/// that socket for this actuation.
const UNCORE_WRITE_ATTEMPTS: u32 = 3;

/// One HSMP mailbox round trip (doorbell write, SMU service, poll): a few
/// hundred microseconds through the SMU firmware, charged as a write.
const HSMP_MAILBOX_COST: AccessCost = AccessCost {
    latency_us: 350.0,
    energy_uj: 400.0,
};

/// How an [`UncoreWriter`] moves one socket's uncore to a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UncoreWrite {
    /// Read the socket's `0x620` and splice the target into its max limit,
    /// keeping the min bits (MAGUS on Intel, UPS).
    MaxSplice,
    /// Write `0x620` with min = max = the target (`fixed:`).
    Pin,
    /// One HSMP fabric P-state mailbox round trip, then the pin (MAGUS on
    /// AMD, §6.6). The AMD preset's uncore range is the EPYC P-state
    /// table's P3 to P0, so MAGUS's two levels are exactly P0 and the
    /// deepest P-state.
    HsmpPin,
}

impl UncoreWrite {
    /// One attempt at socket `pkg`'s write, its access costs charged
    /// whether or not it lands. `false` when an injected transient fault
    /// (`magus_hetsim::fault::MsrFaults`) failed it; any other error is a
    /// bad scope or register, which no fault plan injects.
    fn attempt(self, node: &mut Node, pkg: u32, ghz: f64) -> bool {
        let scope = MsrScope::Package(pkg);
        let raw = match self {
            UncoreWrite::MaxSplice => node
                .msr_read(scope, MSR_UNCORE_RATIO_LIMIT)
                .map(|raw| UncoreRatioLimit::splice_max(raw, ghz)),
            UncoreWrite::Pin => Ok(UncoreRatioLimit::from_ghz(ghz, ghz).encode()),
            UncoreWrite::HsmpPin => {
                node.charge_monitoring(HSMP_MAILBOX_COST, true);
                Ok(UncoreRatioLimit::from_ghz(ghz, ghz).encode())
            }
        };
        match raw.and_then(|raw| node.msr_write(scope, MSR_UNCORE_RATIO_LIMIT, raw)) {
            Ok(()) => true,
            Err(MsrError::TransientFault) => false,
            Err(e) => panic!("uncore write on package {pkg}: {e}"),
        }
    }
}

/// The one path from a governor to the node's uncore limits. Each socket
/// is written on its own: a socket already at the target is skipped (so
/// write costs reflect real transitions, not decision frequency), and any
/// other gets up to [`UNCORE_WRITE_ATTEMPTS`] attempts at its write alone.
/// A socket that uses them all keeps its limit until the next write.
#[derive(Debug)]
struct UncoreWriter {
    form: UncoreWrite,
    /// Per socket, the target that landed last (`None`: none yet).
    landed: Vec<Option<f64>>,
}

impl UncoreWriter {
    fn new(form: UncoreWrite) -> Self {
        Self {
            form,
            landed: Vec::new(),
        }
    }

    /// Move every socket of `node` to `ghz`. Returns `false` when some
    /// socket used up its attempts.
    fn write(&mut self, node: &mut Node, ghz: f64) -> bool {
        self.landed.resize(node.config().sockets as usize, None);
        let mut all_landed = true;
        for (pkg, landed) in (0..).zip(&mut self.landed) {
            if landed.is_some_and(|last| (last - ghz).abs() < 1e-9) {
                continue;
            }
            if (0..UNCORE_WRITE_ATTEMPTS).any(|_| self.form.attempt(node, pkg, ghz)) {
                *landed = Some(ghz);
            } else {
                all_landed = false;
            }
        }
        all_landed
    }

    /// A deciding governor's actuation: [`UncoreWriter::write`], and when
    /// a socket used up its attempts, a `degraded` event (the governor's
    /// `*_degraded` kind) with `reason = "actuation"` and the target.
    /// Returns whether every socket landed.
    fn actuate(&mut self, sim: &mut Simulation, ghz: f64, degraded: &'static str) -> bool {
        let landed = self.write(sim.node_mut(), ghz);
        if !landed {
            push_event(sim, |t_us| {
                Event::new(t_us, degraded)
                    .with("reason", "actuation")
                    .with("target_ghz", ghz)
            });
        }
        landed
    }
}

/// The stock baseline: no runtime attached; the node's TDP-coupled governor
/// is all there is.
#[derive(Debug, Default)]
pub struct NoopDriver;

impl RuntimeDriver for NoopDriver {
    fn name(&self) -> &str {
        "default"
    }

    fn attach(&mut self, _sim: &mut Simulation) {}

    fn on_decision(&mut self, _sim: &mut Simulation) -> u64 {
        0
    }

    fn rest_interval_us(&self) -> u64 {
        u64::MAX // never due again
    }
}

/// Fixed uncore frequency (the max/min settings of Figs 2 and 5a).
#[derive(Debug)]
pub struct FixedUncoreDriver {
    ghz: f64,
    label: String,
    writer: UncoreWriter,
}

impl FixedUncoreDriver {
    /// Pin the uncore (min and max limits) to `ghz`.
    #[must_use]
    pub fn new(ghz: f64) -> Self {
        Self {
            ghz,
            label: format!("fixed-{ghz:.1}GHz"),
            writer: UncoreWriter::new(UncoreWrite::Pin),
        }
    }
}

impl RuntimeDriver for FixedUncoreDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn attach(&mut self, sim: &mut Simulation) {
        // A socket whose write fails on every attempt stays on the stock
        // governor; the failed writes are counted as injected faults.
        let _ = self.writer.write(sim.node_mut(), self.ghz);
    }

    fn on_decision(&mut self, _sim: &mut Simulation) -> u64 {
        0
    }

    fn rest_interval_us(&self) -> u64 {
        u64::MAX
    }
}

/// MAGUS bound to the simulated node, actuating through `0x620` (Intel)
/// or the HSMP mailbox (AMD).
#[derive(Debug)]
pub struct MagusDriver {
    core: MagusCore,
    writer: UncoreWriter,
    monitor_only: bool,
    degraded: u64,
}

impl MagusDriver {
    /// Driver with the given configuration, actuating through `0x620`.
    #[must_use]
    pub fn new(cfg: MagusConfig) -> Self {
        Self::with_write(cfg, UncoreWrite::MaxSplice)
    }

    /// Driver with the given configuration, actuating AMD fabric P-states
    /// through the HSMP mailbox (`MAGUS/HSMP`).
    #[must_use]
    pub fn hsmp(cfg: MagusConfig) -> Self {
        Self::with_write(cfg, UncoreWrite::HsmpPin)
    }

    fn with_write(cfg: MagusConfig, form: UncoreWrite) -> Self {
        Self {
            core: MagusCore::new(cfg),
            writer: UncoreWriter::new(form),
            monitor_only: false,
            degraded: 0,
        }
    }

    /// Whether this driver actuates through the HSMP mailbox.
    fn hsmp_actuation(&self) -> bool {
        self.writer.form == UncoreWrite::HsmpPin
    }

    /// Driver with the paper's default thresholds.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(MagusConfig::default())
    }

    /// Decision telemetry accumulated so far.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }

    /// The decision core.
    #[must_use]
    pub fn core(&self) -> &MagusCore {
        &self.core
    }

    /// Decision cycles degraded by injected faults: the sample failed (the
    /// previous decision was held) or a socket used up its write attempts.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    fn apply(&mut self, sim: &mut Simulation, action: MagusAction) {
        if self.monitor_only {
            return;
        }
        let Some(level) = action.target() else {
            return;
        };
        // Degrade: a socket that used up its attempts keeps its limit until
        // the next `SetUpper`/`SetLower` writes it again (a `Hold` writes
        // nothing).
        let ghz = level_ghz(sim.node(), level);
        if !self.writer.actuate(sim, ghz, "magus_degraded") {
            self.degraded += 1;
        }
    }
}

/// The frequency MAGUS's `level` stands for on `node`: the top or the
/// bottom of its uncore range.
fn level_ghz(node: &Node, level: UncoreLevel) -> f64 {
    let range = node.config().uncore;
    match level {
        UncoreLevel::Upper => range.freq_max_ghz,
        UncoreLevel::Lower => range.freq_min_ghz,
    }
}

impl RuntimeDriver for MagusDriver {
    fn name(&self) -> &str {
        if self.hsmp_actuation() {
            "MAGUS/HSMP"
        } else {
            "MAGUS"
        }
    }

    fn attach(&mut self, sim: &mut Simulation) {
        // Deployment state at job arrival (§4): the node idles with its
        // uncore parked at minimum to conserve power; MAGUS takes no tuning
        // actions until its warm-up completes.
        if !self.monitor_only {
            // A socket whose attach write fails keeps the governor default
            // until MAGUS's first actuation writes it again.
            let ghz = level_ghz(sim.node(), UncoreLevel::Lower);
            let _ = self.writer.write(sim.node_mut(), ghz);
        }
    }

    fn on_decision(&mut self, sim: &mut Simulation) -> u64 {
        with_invocation_latency(sim, |sim| {
            let Some(sample) = sample_mbs(sim) else {
                self.degraded += 1;
                return;
            };
            let action = self.core.on_sample(sample);
            self.apply(sim, action);
            // One structured event per decision cycle. Pushed after
            // actuation so the event never perturbs the decision itself.
            // Both actuations share the taxonomy; HSMP is marked as such.
            if let Some(rec) = self.core.last_record() {
                let hsmp = self.hsmp_actuation();
                push_event(sim, |t_us| {
                    let event = Event::new(t_us, "magus_decision")
                        .with("cycle", rec.cycle)
                        .with("sample_mbs", rec.sample_mbs)
                        .with("trend", trend_name(rec.trend))
                        .with("tune_event", rec.tune_event)
                        .with("high_freq", rec.high_freq)
                        .with("action", action_name(rec.action));
                    if hsmp {
                        event.with("actuation", "hsmp")
                    } else {
                        event
                    }
                });
            }
        })
    }

    fn rest_interval_us(&self) -> u64 {
        self.core.config().monitor_interval_us
    }

    fn set_monitor_only(&mut self, on: bool) {
        self.monitor_only = on;
    }

    fn high_freq_fraction(&self) -> Option<f64> {
        Some(self.core.telemetry().high_freq_fraction())
    }
}

/// UPS bound to the simulated node.
#[derive(Debug)]
pub struct UpsDriver {
    cfg: UpsConfig,
    core: Option<UpsCore>,
    sampler: Option<UpsSampler>,
    writer: UncoreWriter,
    monitor_only: bool,
    degraded: u64,
}

impl UpsDriver {
    /// Driver with the given configuration.
    #[must_use]
    pub fn new(cfg: UpsConfig) -> Self {
        Self {
            cfg,
            core: None,
            sampler: None,
            writer: UncoreWriter::new(UncoreWrite::MaxSplice),
            monitor_only: false,
            degraded: 0,
        }
    }

    /// Driver with default UPS parameters.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(UpsConfig::default())
    }

    /// The decision core (after attach).
    #[must_use]
    pub fn core(&self) -> Option<&UpsCore> {
        self.core.as_ref()
    }

    /// Decision cycles degraded: a socket that used up its write attempts
    /// (injected write faults), or a failed counter sweep, which only a
    /// bad scope or register causes (no fault plan injects MSR read
    /// faults).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded
    }
}

impl RuntimeDriver for UpsDriver {
    fn name(&self) -> &str {
        "UPS"
    }

    fn attach(&mut self, sim: &mut Simulation) {
        let uncore = sim.node().config().uncore;
        self.core = Some(UpsCore::new(
            self.cfg.clone(),
            uncore.freq_min_ghz,
            uncore.freq_max_ghz,
        ));
        self.sampler = Some(UpsSampler::new(sim.node_mut()).expect("UPS sampler"));
        let _ = self.writer.write(sim.node_mut(), uncore.freq_max_ghz);
    }

    fn on_decision(&mut self, sim: &mut Simulation) -> u64 {
        with_invocation_latency(sim, |sim| {
            let (Some(core), Some(sampler)) = (self.core.as_mut(), self.sampler.as_mut()) else {
                return;
            };
            let sample = match sampler.sample(sim.node_mut()) {
                Ok(Some(sample)) => sample,
                Ok(None) => return, // warm-up baseline, not a fault
                Err(_) => {
                    // A failed sweep (a bad scope or register; fault plans
                    // inject no read faults): skip this cycle, keep the
                    // current limit.
                    self.degraded += 1;
                    push_event(sim, |t_us| {
                        Event::new(t_us, "ups_degraded").with("reason", "sample")
                    });
                    return;
                }
            };
            let decision = core.decide(sample.mean_ipc, sample.dram_w);
            if !self.monitor_only
                && !self
                    .writer
                    .actuate(sim, decision.target_ghz, "ups_degraded")
            {
                self.degraded += 1;
            }
            push_event(sim, |t_us| {
                Event::new(t_us, "ups_decision")
                    .with("target_ghz", decision.target_ghz)
                    .with("mean_ipc", sample.mean_ipc)
                    .with("dram_w", sample.dram_w)
                    .with("phase_change", decision.phase_change)
                    .with("backed_off", decision.backed_off)
            });
        })
    }

    fn rest_interval_us(&self) -> u64 {
        self.cfg.rest_interval_us
    }

    fn set_monitor_only(&mut self, on: bool) {
        self.monitor_only = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magus_hetsim::{Node, NodeConfig};

    fn sim() -> Simulation {
        Simulation::new(Node::new(NodeConfig::intel_a100()))
    }

    #[test]
    fn noop_driver_never_reschedules() {
        let mut d = NoopDriver;
        let mut s = sim();
        d.attach(&mut s);
        assert_eq!(d.on_decision(&mut s), 0);
        assert_eq!(d.rest_interval_us(), u64::MAX);
        assert_eq!(d.name(), "default");
    }

    /// A plan that fails every `n`-th uncore write.
    fn fail_every(n: u64) -> magus_hetsim::FaultPlan {
        magus_hetsim::FaultPlan::builder()
            .uncore_write_fail_every(n)
            .build()
            .unwrap()
    }

    /// Assert every socket's `0x620` (min, max) limits, to 1e-9 GHz.
    fn assert_limits(s: &Simulation, want: &[(f64, f64)]) {
        let got: Vec<(f64, f64)> = s
            .node()
            .sockets()
            .iter()
            .map(|socket| socket.uncore.msr_limits())
            .collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| close(g.0, w.0) && close(g.1, w.1)),
            "limits {got:?}, want {want:?}"
        );
    }

    #[test]
    fn fixed_driver_pins_every_socket_at_attach() {
        let mut d = FixedUncoreDriver::new(1.4);
        let mut s = sim();
        d.attach(&mut s);
        for _ in 0..100 {
            s.step();
        }
        assert_limits(&s, &[(1.4, 1.4); 2]);
        for socket in s.node().sockets() {
            assert!((socket.uncore.freq_ghz() - 1.4).abs() < 1e-9);
        }
        assert_eq!(d.name(), "fixed-1.4GHz");
    }

    #[test]
    fn a_max_splice_keeps_the_min_bits() {
        let mut s = sim();
        let mut writer = UncoreWriter::new(UncoreWrite::MaxSplice);
        assert!(writer.write(s.node_mut(), 1.0));
        // One `0x620` read and one write per socket.
        assert_eq!(
            (s.node().ledger().reads(), s.node().ledger().writes()),
            (2, 2)
        );
        assert_limits(&s, &[(0.8, 1.0); 2]);
    }

    #[test]
    fn a_repeated_target_issues_no_read_or_write() {
        let mut s = sim();
        let mut writer = UncoreWriter::new(UncoreWrite::MaxSplice);
        let accesses = |s: &Simulation| (s.node().ledger().reads(), s.node().ledger().writes());
        assert!(writer.write(s.node_mut(), 0.8));
        assert_eq!(accesses(&s), (2, 2));
        assert!(writer.write(s.node_mut(), 0.8));
        assert_eq!(accesses(&s), (2, 2));
        assert!(writer.write(s.node_mut(), 2.2));
        assert_eq!(accesses(&s), (4, 4));
        assert_limits(&s, &[(0.8, 2.2); 2]);
    }

    #[test]
    fn sample_mbs_reads_the_pcm_window_in_mbs() {
        let mut s = sim();
        let demand = magus_hetsim::Demand::new(20.0, 0.4, 0.2, 0.6);
        for _ in 0..50 {
            s.node_mut().step(10_000, &demand);
        }
        let mbs = sample_mbs(&mut s).expect("no fault plan, no dropout");
        assert!((mbs - 20_000.0).abs() < 2_000.0, "mbs = {mbs}");
        // One read, charged the whole 100 ms measurement window.
        assert_eq!(s.node().ledger().reads(), 1);
        assert!(s.node().ledger().pending().latency_us >= 100_000.0);
    }

    #[test]
    fn a_dropped_sample_is_none_and_a_degraded_event() {
        let plan = magus_hetsim::FaultPlan::builder()
            .pcm_dropout_every(1)
            .build()
            .unwrap();
        let mut s = sim();
        s.node_mut().arm_telemetry();
        s.node_mut().set_fault_plan(plan);
        assert_eq!(sample_mbs(&mut s), None);
        let events = s.node().telemetry().expect("armed").events();
        let degraded: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "magus_degraded")
            .map(|e| e.fields.get("reason"))
            .collect();
        assert_eq!(
            degraded,
            [Some(&magus_telemetry::FieldValue::Str("sample".into()))]
        );
    }

    #[test]
    fn magus_invocation_latency_is_pcm_window() {
        let mut d = MagusDriver::with_defaults();
        let mut s = sim();
        d.attach(&mut s);
        for _ in 0..10 {
            s.step();
        }
        let latency = d.on_decision(&mut s);
        // One PCM measurement (100 ms) dominates; the occasional MSR
        // read/write adds sub-ms.
        assert!((100_000..103_000).contains(&latency), "latency = {latency}");
    }

    #[test]
    fn ups_invocation_latency_reflects_core_sweep() {
        let mut d = UpsDriver::with_defaults();
        let mut s = sim();
        d.attach(&mut s);
        for _ in 0..10 {
            s.step();
        }
        let latency = d.on_decision(&mut s);
        // 160 core reads at 1.8 ms each ≈ 288 ms, plus package reads.
        assert!((250_000..350_000).contains(&latency), "latency = {latency}");
    }

    #[test]
    fn ups_decisions_are_events_on_an_armed_node() {
        let mut d = UpsDriver::with_defaults();
        let mut s = sim();
        s.node_mut().arm_telemetry();
        d.attach(&mut s);
        let mut decided_at = Vec::new();
        for _ in 0..2 {
            for _ in 0..10 {
                s.step();
            }
            d.on_decision(&mut s);
            decided_at.push(s.node().time_us());
        }
        // One event per decision, stamped when its sweep ended.
        let decisions: Vec<(u64, f64)> = s
            .node()
            .telemetry()
            .expect("armed")
            .events()
            .iter()
            .filter(|e| e.kind == "ups_decision")
            .map(|e| match e.fields.get("target_ghz") {
                Some(magus_telemetry::FieldValue::F64(ghz)) => (e.t_us, *ghz),
                other => panic!("target_ghz field: {other:?}"),
            })
            .collect();
        let times: Vec<u64> = decisions.iter().map(|&(t_us, _)| t_us).collect();
        assert_eq!(times, decided_at);
        let range = s.node().config().uncore;
        for (_, ghz) in decisions {
            assert!((range.freq_min_ghz..=range.freq_max_ghz).contains(&ghz));
        }
    }

    #[test]
    fn hsmp_actuation_pins_the_fabric_through_one_mailbox_trip_per_socket() {
        let mut d = MagusDriver::hsmp(MagusConfig::default());
        let mut s = Simulation::new(Node::new(NodeConfig::amd_epyc_mi210()));
        assert_eq!(d.name(), "MAGUS/HSMP");
        d.attach(&mut s);
        // Two sockets, each a 350 µs mailbox round trip and a 60 µs `0x620`
        // write, all charged as writes.
        assert_eq!(s.node().ledger().writes(), 4);
        assert_eq!(s.node().ledger().pending().latency_us, 820.0);
        // The same level again is deduplicated.
        d.attach(&mut s);
        assert_eq!(s.node().ledger().writes(), 4);
        for _ in 0..100 {
            s.step();
        }
        // Parked at the deepest P-state: min = max = 0.8 GHz.
        for socket in s.node().sockets() {
            let (min, max) = socket.uncore.msr_limits();
            assert!((min - 0.8).abs() < 1e-9 && (max - 0.8).abs() < 1e-9);
            assert!((socket.uncore.freq_ghz() - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn rest_intervals_match_paper_cadence() {
        assert_eq!(MagusDriver::with_defaults().rest_interval_us(), 200_000);
        assert_eq!(UpsDriver::with_defaults().rest_interval_us(), 200_000);
    }

    #[test]
    fn magus_holds_decision_on_injected_pcm_dropout() {
        let plan = magus_hetsim::FaultPlan::builder()
            .pcm_dropout_every(2)
            .build()
            .unwrap();
        let mut d = MagusDriver::with_defaults();
        let mut s = sim();
        s.node_mut().set_fault_plan(plan);
        d.attach(&mut s);
        for _ in 0..10 {
            s.step();
        }
        // One PCM read per invocation: read 1 lands, read 2 drops out.
        d.on_decision(&mut s);
        assert_eq!(d.degraded(), 0);
        d.on_decision(&mut s);
        assert_eq!(d.degraded(), 1);
    }

    #[test]
    fn a_failed_write_is_retried_on_its_own_socket() {
        // Two sockets, one write each per target. Every 3rd write failing
        // hits socket 0 at the second target (write 3); its retry (write 4)
        // lands and socket 1 takes write 5.
        let mut s = sim();
        s.node_mut().set_fault_plan(fail_every(3));
        let mut writer = UncoreWriter::new(UncoreWrite::MaxSplice);
        for ghz in [0.8, 1.0] {
            assert!(writer.write(s.node_mut(), ghz));
        }
        assert_eq!(s.node().ledger().writes(), 5);
        assert_limits(&s, &[(0.8, 1.0); 2]);
        // Every 2nd write failing: at the first target socket 1's first
        // attempt fails (write 2) and its retry lands, with no second
        // write to socket 0; at the second both sockets' first attempts
        // fail (writes 4 and 6) and their retries land.
        let mut s = sim();
        s.node_mut().set_fault_plan(fail_every(2));
        let mut writer = UncoreWriter::new(UncoreWrite::Pin);
        assert!(writer.write(s.node_mut(), 1.2));
        assert_eq!(s.node().ledger().writes(), 3);
        assert!(writer.write(s.node_mut(), 1.6));
        assert_eq!(s.node().ledger().writes(), 7);
        assert_eq!(s.node().fault_counters().msr_write_fails, 3);
        assert_limits(&s, &[(1.6, 1.6); 2]);
    }

    #[test]
    fn only_a_socket_that_used_up_its_attempts_is_written_again() {
        let mut s = sim();
        s.node_mut().set_fault_plan(fail_every(1));
        let mut writer = UncoreWriter::new(UncoreWrite::Pin);
        // Every write fails: each socket spends its 3 attempts, none lands.
        assert!(!writer.write(s.node_mut(), 1.2));
        assert_eq!(s.node().ledger().writes(), 6);
        assert_eq!(s.node().fault_counters().msr_write_fails, 6);
        assert_eq!(writer.landed, [None, None]);
        // A fault plan fails both sockets alike, so split them by hand: the
        // writer records socket 0 at 1.2 GHz (its register keeps the stock
        // limits, so a write to it would show) and socket 1 as having used
        // up its attempts.
        writer.landed[0] = Some(1.2);
        s.node_mut()
            .set_fault_plan(magus_hetsim::FaultPlan::default());
        assert!(writer.write(s.node_mut(), 1.2));
        assert_eq!(s.node().ledger().writes(), 7);
        // Socket 1 got the pin; socket 0 was not written. Now both are at
        // the target, and the next call writes neither.
        assert_limits(&s, &[(0.8, 2.2), (1.2, 1.2)]);
        assert!(writer.write(s.node_mut(), 1.2));
        assert_eq!(s.node().ledger().writes(), 7);
    }

    #[test]
    fn deciding_governors_report_a_socket_that_used_up_its_attempts() {
        let mut s = sim();
        s.node_mut().arm_telemetry();
        s.node_mut().set_fault_plan(fail_every(1));
        let mut writer = UncoreWriter::new(UncoreWrite::MaxSplice);
        assert!(!writer.actuate(&mut s, 1.0, "ups_degraded"));
        let events = s.node().telemetry().expect("armed").events();
        let degraded: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "ups_degraded")
            .map(|e| (e.fields.get("reason"), e.fields.get("target_ghz")))
            .collect();
        assert_eq!(
            degraded,
            [(
                Some(&magus_telemetry::FieldValue::Str("actuation".into())),
                Some(&magus_telemetry::FieldValue::F64(1.0))
            )]
        );
    }
}
