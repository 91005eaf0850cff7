//! Model-Specific Register (MSR) layouts, encodings, scopes and
//! access-cost accounting.
//!
//! MAGUS actuates the uncore by rewriting the *maximum ratio* field of the
//! `UNCORE_RATIO_LIMIT` MSR (address `0x620` on Intel server parts), exactly
//! as the paper's `wrmsr -p 0 0x620 0x0F001200` example does. The baseline
//! method UPS additionally *reads* per-core fixed counters (instructions
//! retired, unhalted cycles) and RAPL energy status registers every cycle,
//! which is where its runtime overhead comes from (paper §6.5, Table 2).
//! The node simulator (`magus_hetsim::Node::msr_read` and `msr_write`)
//! serves those registers; this crate holds what it and its callers share:
//!
//! * [`regs`] — register addresses and typed encode/decode for the registers
//!   the reproduced runtimes touch (`0x620`, RAPL energy/power-unit MSRs,
//!   fixed performance counters).
//! * [`scope`] — [`MsrScope`] (per-package or per-core) and the typed
//!   [`MsrError`] every access returns.
//! * [`cost`] — an access-cost model ([`cost::AccessCost`],
//!   [`cost::CostLedger`]) so that callers (the simulator, the experiment
//!   harness) can charge realistic time and energy for every `rdmsr`/`wrmsr`.
//!   This is what makes the Table 2 overhead comparison *emergent* rather
//!   than hard-coded: UPS issues two orders of magnitude more register reads
//!   per decision than MAGUS.

pub mod cost;
pub mod regs;
pub mod scope;

pub use cost::{AccessCost, CostLedger};
pub use regs::{
    PkgPowerLimit, RaplPowerUnit, UncoreRatioLimit, IA32_FIXED_CTR0, IA32_FIXED_CTR1,
    IA32_FIXED_CTR2, MSR_DRAM_ENERGY_STATUS, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT, MSR_UNCORE_RATIO_LIMIT,
};
pub use scope::{MsrError, MsrScope};
