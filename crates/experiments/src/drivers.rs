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

use magus_hetsim::governor::{set_fixed_uncore, UncoreSetter};
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

/// Uncore writes survive this many injected transient faults per
/// actuation before the governor gives up and holds the previous limit.
const UNCORE_WRITE_RETRIES: u32 = 3;

/// Run one uncore actuation with bounded retry: the one retry every
/// governor's write goes through. Injected transient MSR faults
/// (`magus_hetsim::fault::MsrFaults`) fail whole attempts; each attempt —
/// failed or not — charges its access cost, so retries show up in the
/// invocation latency. Returns `false` when every attempt failed (the
/// caller degrades: hold the previous limit and report it). Any other
/// error is a bad scope or register, which no fault plan injects.
fn write_with_retry<T>(
    node: &mut Node,
    mut write: impl FnMut(&mut Node) -> Result<T, MsrError>,
) -> bool {
    for _ in 0..UNCORE_WRITE_RETRIES {
        match write(node) {
            Ok(_) => return true,
            Err(MsrError::TransientFault) => continue,
            Err(e) => panic!("uncore actuation: {e}"),
        }
    }
    false
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
}

impl FixedUncoreDriver {
    /// Pin the uncore (min and max limits) to `ghz`.
    #[must_use]
    pub fn new(ghz: f64) -> Self {
        Self {
            ghz,
            label: format!("fixed-{ghz:.1}GHz"),
        }
    }
}

impl RuntimeDriver for FixedUncoreDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn attach(&mut self, sim: &mut Simulation) {
        // A socket whose write fails on every retry stays on the stock
        // governor; the failed writes are counted as injected faults.
        let _ = write_with_retry(sim.node_mut(), |node| set_fixed_uncore(node, self.ghz));
    }

    fn on_decision(&mut self, _sim: &mut Simulation) -> u64 {
        0
    }

    fn rest_interval_us(&self) -> u64 {
        u64::MAX
    }
}

/// One HSMP mailbox round trip (doorbell write, SMU service, poll): a few
/// hundred microseconds through the SMU firmware, charged as a write.
const HSMP_MAILBOX_COST: AccessCost = AccessCost {
    latency_us: 350.0,
    energy_uj: 400.0,
};

/// How a [`MagusDriver`] moves the uncore to one of MAGUS's two levels:
/// the only part of MAGUS that differs between an Intel and an AMD node
/// (§6.6).
#[derive(Debug)]
enum Actuation {
    /// Intel: splice the level into every socket's `0x620` max limit,
    /// keeping the min bits.
    Msr(UncoreSetter),
    /// AMD: per socket, one HSMP fabric P-state mailbox round trip that
    /// pins the fabric clock (min = max) at the level. The AMD preset's
    /// uncore range is the EPYC P-state table's P3 to P0, so the levels
    /// are exactly P0 and the deepest P-state. `last` is the level that
    /// landed last (writes are deduplicated by level).
    Hsmp { last: Option<UncoreLevel> },
}

impl Actuation {
    /// Move every socket to `level` through the bounded retry. Returns
    /// `false` when every retry failed.
    fn actuate(&mut self, node: &mut Node, level: UncoreLevel) -> bool {
        let ghz = level_ghz(node, level);
        match self {
            Actuation::Msr(setter) => write_with_retry(node, |node| setter.set_max(node, ghz)),
            Actuation::Hsmp { last } if *last == Some(level) => true,
            Actuation::Hsmp { last } => {
                let raw = UncoreRatioLimit::from_ghz(ghz, ghz).encode();
                let landed = write_with_retry(node, |node| {
                    for pkg in 0..node.config().sockets {
                        node.charge_monitoring(HSMP_MAILBOX_COST, true);
                        node.msr_write(MsrScope::Package(pkg), MSR_UNCORE_RATIO_LIMIT, raw)?;
                    }
                    Ok(())
                });
                if landed {
                    *last = Some(level);
                }
                landed
            }
        }
    }
}

/// MAGUS bound to the simulated node, actuating through `0x620` (Intel)
/// or the HSMP mailbox (AMD).
#[derive(Debug)]
pub struct MagusDriver {
    core: MagusCore,
    actuation: Actuation,
    monitor_only: bool,
    degraded: u64,
}

impl MagusDriver {
    /// Driver with the given configuration, actuating through `0x620`.
    #[must_use]
    pub fn new(cfg: MagusConfig) -> Self {
        Self::with_actuation(cfg, Actuation::Msr(UncoreSetter::new()))
    }

    /// Driver with the given configuration, actuating AMD fabric P-states
    /// through the HSMP mailbox (`MAGUS/HSMP`).
    #[must_use]
    pub fn hsmp(cfg: MagusConfig) -> Self {
        Self::with_actuation(cfg, Actuation::Hsmp { last: None })
    }

    fn with_actuation(cfg: MagusConfig, actuation: Actuation) -> Self {
        Self {
            core: MagusCore::new(cfg),
            actuation,
            monitor_only: false,
            degraded: 0,
        }
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
    /// previous decision was held) or every actuation retry failed.
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
        if !self.actuation.actuate(sim.node_mut(), level) {
            // Degrade: keep the previous limit; the next cycle retries.
            self.degraded += 1;
            let target = level_ghz(sim.node(), level);
            push_event(sim, |t_us| {
                Event::new(t_us, "magus_degraded")
                    .with("reason", "actuation")
                    .with("target_ghz", target)
            });
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
        match self.actuation {
            Actuation::Msr(_) => "MAGUS",
            Actuation::Hsmp { .. } => "MAGUS/HSMP",
        }
    }

    fn attach(&mut self, sim: &mut Simulation) {
        // Deployment state at job arrival (§4): the node idles with its
        // uncore parked at minimum to conserve power; MAGUS takes no tuning
        // actions until its warm-up completes.
        if !self.monitor_only {
            // A failed attach leaves the governor default in place; the
            // first decision cycle re-actuates.
            let _ = self.actuation.actuate(sim.node_mut(), UncoreLevel::Lower);
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
                let hsmp = matches!(self.actuation, Actuation::Hsmp { .. });
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
    setter: UncoreSetter,
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
            setter: UncoreSetter::new(),
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

    /// Decision cycles degraded: an uncore write that failed on every retry
    /// (an injected write fault), or a failed counter sweep, which only a
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
        let _ = write_with_retry(sim.node_mut(), |node| {
            self.setter.set_max(node, uncore.freq_max_ghz)
        });
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
                && !write_with_retry(sim.node_mut(), |node| {
                    self.setter.set_max(node, decision.target_ghz)
                })
            {
                self.degraded += 1;
                push_event(sim, |t_us| {
                    Event::new(t_us, "ups_degraded")
                        .with("reason", "actuation")
                        .with("target_ghz", decision.target_ghz)
                });
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

    #[test]
    fn fixed_driver_pins_at_attach() {
        let mut d = FixedUncoreDriver::new(0.8);
        let mut s = sim();
        d.attach(&mut s);
        for _ in 0..100 {
            s.step();
        }
        assert!((s.node().sockets()[0].uncore.freq_ghz() - 0.8).abs() < 1e-9);
        assert_eq!(d.name(), "fixed-0.8GHz");
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
    fn actuation_retries_survive_injected_write_faults() {
        let plan = magus_hetsim::FaultPlan::builder()
            .uncore_write_fail_every(3)
            .build()
            .unwrap();
        let mut s = sim();
        s.node_mut().set_fault_plan(plan);
        let mut setter = UncoreSetter::new();
        // Two sockets, so each actuation issues two writes. The first
        // actuation lands (writes 1–2); the second trips the fault on write
        // 3 and the bounded retry's writes 4–5 land. Both actuations
        // succeed, and the failed attempt still shows up in the ledger.
        let before = s.node().ledger().writes();
        for ghz in [0.8, 1.0] {
            assert!(write_with_retry(s.node_mut(), |node| setter.set_max(node, ghz)));
        }
        assert_eq!(s.node().ledger().writes() - before, 5);
    }
}
