//! Round-boundary fleet membership for a long-lived control plane.
//!
//! [`FleetSim`] is deliberately immutable once built: the bit-identity
//! contract (every node bit-identical to a solo run across shard counts
//! and stepping modes) is proven for a fleet whose roster is
//! fixed for the whole run. A daemonized control plane, however, must accept
//! node joins, leaves, and workload submissions *while serving traffic*.
//!
//! [`FleetRoster`] reconciles the two with an epoch rule: membership
//! operations mutate only the roster, never a running fleet, and take effect
//! at the next **round boundary** — when [`FleetRoster::build_fleet`]
//! snapshots the current membership into a fresh [`FleetBuilder`] fleet in
//! ascending node-id order. Each epoch is therefore *exactly* a batch build:
//! a fleet advanced through the control plane is bit-identical to the same
//! membership built and run in one shot, by construction rather than by
//! re-proof.
//!
//! Nodes are identified by small monotonically assigned `u64` ids; ids are
//! never reused, so a departed node's id stays invalid forever. A node with
//! no submitted workload is *dormant*: it occupies a roster slot but is
//! skipped by [`FleetRoster::build_fleet`] (an empty simulator node would
//! violate the builder's non-empty-trace assumptions and contribute nothing
//! to the summary).
//!
//! This module is part of the simulator substrate and therefore must stay
//! off the wall clock entirely, like everything else in this crate.
//!
//! [`FleetBuilder`]: crate::fleet::FleetBuilder

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::fleet::{FleetBuildError, FleetSim};
use crate::workload::AppTrace;
use crate::NodeConfig;

/// One member of a [`FleetRoster`].
#[derive(Debug, Clone)]
pub struct RosterEntry {
    /// The node's hardware configuration.
    pub config: NodeConfig,
    /// The submitted workload, if any (`None` = dormant node).
    pub trace: Option<Arc<AppTrace>>,
    /// Start offset on the fleet clock (µs), as in
    /// [`FleetBuilder::node_at`](crate::fleet::FleetBuilder::node_at).
    pub start_offset_us: u64,
}

/// Typed error for roster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RosterError {
    /// The referenced node id was never assigned or has already left.
    UnknownNode(u64),
}

impl core::fmt::Display for RosterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownNode(id) => write!(f, "unknown fleet node id {id}"),
        }
    }
}

impl std::error::Error for RosterError {}

/// Options for one [`FleetRoster::build_fleet`] snapshot — the knobs a
/// control plane forwards to the underlying [`FleetBuilder`](crate::fleet::FleetBuilder).
#[derive(Debug, Clone, Copy)]
pub struct RosterBuildOpts {
    /// Per-node simulated-time budget (s).
    pub budget_s: f64,
    /// Shard count for the fleet kernel.
    pub shards: usize,
}

impl Default for RosterBuildOpts {
    fn default() -> Self {
        Self {
            budget_s: 600.0,
            shards: 1,
        }
    }
}

/// Mutable fleet membership with round-boundary build snapshots.
///
/// See the module docs for the epoch rule. The roster itself is cheap to
/// mutate and cheap to snapshot (configs clone, traces are shared `Arc`s);
/// the expensive object — the built [`FleetSim`] — is created fresh per
/// epoch and never mutated.
#[derive(Debug, Default, Clone)]
pub struct FleetRoster {
    next_id: u64,
    generation: u64,
    entries: BTreeMap<u64, RosterEntry>,
}

impl FleetRoster {
    /// An empty roster.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member nodes (dormant ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no nodes are enrolled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of nodes with a submitted workload.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.entries.values().filter(|e| e.trace.is_some()).count()
    }

    /// How many epoch snapshots [`FleetRoster::build_fleet`] has produced.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A member's entry, if enrolled.
    #[must_use]
    pub fn entry(&self, id: u64) -> Option<&RosterEntry> {
        self.entries.get(&id)
    }

    /// Iterate over `(id, entry)` in ascending id order — the order
    /// [`FleetRoster::build_fleet`] feeds the
    /// [`FleetBuilder`](crate::fleet::FleetBuilder).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &RosterEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// Enroll a node (dormant until a workload is submitted) and return its
    /// id. Takes effect at the next round boundary.
    pub fn join(&mut self, config: NodeConfig, start_offset_us: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(
            id,
            RosterEntry {
                config,
                trace: None,
                start_offset_us,
            },
        );
        id
    }

    /// Submit (or replace) the workload a member runs from the next round
    /// boundary on. Traces are shared handles, so staging the same interned
    /// trace on thousands of nodes costs one allocation total.
    pub fn submit(&mut self, id: u64, trace: impl Into<Arc<AppTrace>>) -> Result<(), RosterError> {
        match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.trace = Some(trace.into());
                Ok(())
            }
            None => Err(RosterError::UnknownNode(id)),
        }
    }

    /// Remove a member. Its id is never reused.
    pub fn leave(&mut self, id: u64) -> Result<RosterEntry, RosterError> {
        self.entries.remove(&id).ok_or(RosterError::UnknownNode(id))
    }

    /// Round-boundary hook: snapshot the current membership into a fresh
    /// fleet. Returns the built [`FleetSim`] plus the ids of the nodes it
    /// contains, in fleet-index order (ascending roster id; dormant nodes
    /// are skipped). Bumps [`FleetRoster::generation`] on success.
    ///
    /// The snapshot is the entire coupling between the roster and the
    /// kernel: the built fleet is exactly what a batch caller would get
    /// from [`FleetBuilder`](crate::fleet::FleetBuilder) with the same
    /// nodes, so every bit-identity guarantee of [`FleetSim::run`] carries
    /// over per epoch.
    pub fn build_fleet(
        &mut self,
        opts: &RosterBuildOpts,
    ) -> Result<(FleetSim, Vec<u64>), FleetBuildError> {
        let mut builder = FleetSim::builder(opts.budget_s).shards(opts.shards);
        let mut ids = Vec::with_capacity(self.entries.len());
        for (id, entry) in &self.entries {
            let Some(trace) = &entry.trace else { continue };
            ids.push(*id);
            builder = builder.node_at(
                entry.config.clone(),
                Arc::clone(trace),
                entry.start_offset_us,
            );
        }
        let fleet = builder.build()?;
        self.generation += 1;
        Ok((fleet, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use crate::fleet::RunOpts;
    use crate::workload::{Phase, PhaseKind};

    fn test_config() -> NodeConfig {
        NodeConfig::intel_a100()
    }

    fn test_trace(work_s: f64) -> AppTrace {
        AppTrace::new(
            "roster-test",
            vec![Phase::new(
                PhaseKind::Compute,
                work_s,
                Demand::new(5.0, 0.2, 0.2, 0.8),
            )],
        )
    }

    #[test]
    fn join_submit_leave_roundtrip() {
        let mut roster = FleetRoster::new();
        assert!(roster.is_empty());
        let a = roster.join(test_config(), 0);
        let b = roster.join(test_config(), 250_000);
        assert_eq!((a, b), (0, 1));
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.armed(), 0);

        roster.submit(a, test_trace(1.0)).unwrap();
        assert_eq!(roster.armed(), 1);
        assert_eq!(
            roster.submit(99, test_trace(1.0)),
            Err(RosterError::UnknownNode(99))
        );

        let gone = roster.leave(b).unwrap();
        assert_eq!(gone.start_offset_us, 250_000);
        assert_eq!(roster.leave(b).unwrap_err(), RosterError::UnknownNode(b));
        // Ids are never reused.
        assert_eq!(roster.join(test_config(), 0), 2);
    }

    #[test]
    fn dormant_nodes_are_skipped_and_ids_reported() {
        let mut roster = FleetRoster::new();
        let a = roster.join(test_config(), 0);
        let _dormant = roster.join(test_config(), 0);
        let c = roster.join(test_config(), 0);
        roster.submit(a, test_trace(0.5)).unwrap();
        roster.submit(c, test_trace(0.5)).unwrap();
        let (fleet, ids) = roster.build_fleet(&RosterBuildOpts::default()).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(ids, vec![a, c]);
        assert_eq!(roster.generation(), 1);
    }

    #[test]
    fn empty_snapshot_is_a_typed_error() {
        let mut roster = FleetRoster::new();
        let _ = roster.join(test_config(), 0); // dormant
        let err = roster.build_fleet(&RosterBuildOpts::default()).unwrap_err();
        assert!(matches!(err, FleetBuildError::EmptyFleet));
        assert_eq!(roster.generation(), 0);
    }

    /// The epoch rule itself: a roster snapshot run equals the same
    /// membership built directly through `FleetBuilder`, bit for bit.
    #[test]
    fn snapshot_matches_direct_builder_bit_for_bit() {
        let trace: Arc<AppTrace> = Arc::new(test_trace(2.0));
        let offsets = [0_u64, 0, 400_000, 800_000];

        let mut roster = FleetRoster::new();
        for &off in &offsets {
            let id = roster.join(test_config(), off);
            roster.submit(id, Arc::clone(&trace)).unwrap();
        }
        let opts = RosterBuildOpts {
            budget_s: 30.0,
            shards: 2,
        };
        let (mut via_roster, ids) = roster.build_fleet(&opts).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3]);

        let mut builder = FleetSim::builder(opts.budget_s).shards(opts.shards);
        for &off in &offsets {
            builder = builder.node_at(test_config(), Arc::clone(&trace), off);
        }
        let mut direct = builder.build().unwrap();

        let run = RunOpts::noop();
        let a = via_roster.run(&run);
        let b = direct.run(&run);
        assert_eq!(a, b);

        // Membership changes apply at the next boundary: drop one node and
        // the next epoch equals a fresh three-node batch build.
        roster.leave(3).unwrap();
        let (mut smaller, ids) = roster.build_fleet(&opts).unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
        let mut direct3 = FleetSim::builder(opts.budget_s).shards(opts.shards);
        for &off in &offsets[..3] {
            direct3 = direct3.node_at(test_config(), Arc::clone(&trace), off);
        }
        let mut direct3 = direct3.build().unwrap();
        assert_eq!(smaller.run(&run), direct3.run(&run));
        assert_eq!(roster.generation(), 2);
    }
}
