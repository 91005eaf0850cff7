//! MAGUS reproduction suite: workspace façade.
//!
//! Re-exports the public API of every crate in the workspace so examples
//! and downstream users can depend on a single package. See the individual
//! crates for full documentation:
//!
//! * [`hetsim`] — the heterogeneous node simulator substrate.
//! * [`msr`] — MSR encodings, scopes and access costs.
//! * [`workloads`] — the evaluated application suite as phase traces.
//! * [`runtime`] — the MAGUS uncore-scaling runtime itself.
//! * [`ups`] — the UPScavenger baseline.
//! * [`experiments`] — the evaluation harness (systems, trials, metrics).
//! * [`telemetry`] — metric registry + structured decision-event log.
//! * [`ctl`] — the fleet control plane: daemon, wire protocol, client.

pub mod cli;

pub use magus_ctl as ctl;
pub use magus_experiments as experiments;
pub use magus_hetsim as hetsim;
pub use magus_msr as msr;
pub use magus_runtime as runtime;
pub use magus_telemetry as telemetry;
pub use magus_ups as ups;
pub use magus_workloads as workloads;
