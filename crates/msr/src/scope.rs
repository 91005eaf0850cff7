//! Register scopes and typed access errors.
//!
//! The node simulator's register file (`magus_hetsim::Node::msr_read` and
//! `msr_write`) addresses every register by [`MsrScope`] and reports
//! failures as [`MsrError`].

use serde::Serialize;

/// Which hardware unit a register instance is attached to.
///
/// `UNCORE_RATIO_LIMIT` and the RAPL energy counters are per-package;
/// the fixed performance counters are per-logical-core. Getting the scope
/// wrong on real hardware reads the wrong bank, so every access names it
/// and the node rejects mismatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MsrScope {
    /// A CPU package (socket), identified by socket index.
    Package(u32),
    /// A logical core, identified by global core index.
    Core(u32),
}

impl MsrScope {
    /// The numeric index inside the scope class.
    #[must_use]
    pub fn index(&self) -> u32 {
        match *self {
            MsrScope::Package(i) | MsrScope::Core(i) => i,
        }
    }
}

/// Errors surfaced by MSR access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum MsrError {
    /// The register address is not implemented by the node.
    UnknownRegister(u32),
    /// The scope (package/core index) does not exist on this node.
    BadScope(MsrScope),
    /// The register exists but is read-only.
    ReadOnly(u32),
    /// A transient fault injected by the node's fault plan (real `wrmsr`
    /// can fail with `EIO` on some parts).
    TransientFault,
}

impl core::fmt::Display for MsrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MsrError::UnknownRegister(addr) => write!(f, "unknown MSR 0x{addr:x}"),
            MsrError::BadScope(scope) => write!(f, "invalid MSR scope {scope:?}"),
            MsrError::ReadOnly(addr) => write!(f, "MSR 0x{addr:x} is read-only"),
            MsrError::TransientFault => write!(f, "transient MSR access fault"),
        }
    }
}

impl std::error::Error for MsrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_index() {
        assert_eq!(MsrScope::Package(3).index(), 3);
        assert_eq!(MsrScope::Core(17).index(), 17);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            MsrError::UnknownRegister(0x620).to_string(),
            "unknown MSR 0x620"
        );
        assert!(MsrError::BadScope(MsrScope::Core(9))
            .to_string()
            .contains("Core(9)"));
    }
}
