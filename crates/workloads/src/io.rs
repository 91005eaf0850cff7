//! Workload persistence: save and replay traces and specifications.
//!
//! Two interchange forms, both JSON via serde:
//!
//! * A [`WorkloadSpec`] — the compact parametric description; building it
//!   regenerates the exact trace (generators are seed-deterministic).
//! * A raw [`AppTrace`] — the fully expanded phase list, for traces that
//!   came from measurements rather than generators (e.g. phases extracted
//!   from a PCM capture of a real application).
//!
//! Loaded traces are validated: negative work, NaN demand, or empty traces
//! are rejected with a description instead of propagating into the
//! simulator.

use std::fs;
use std::path::Path;

use magus_hetsim::AppTrace;

use crate::generator::TrafficSpec;
use crate::spec::WorkloadSpec;

/// Errors loading workload files.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON parse failure.
    Parse(serde::Error),
    /// Structurally valid JSON describing an invalid workload.
    Invalid(String),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "workload I/O failed: {e}"),
            LoadError::Parse(e) => write!(f, "workload JSON invalid: {e}"),
            LoadError::Invalid(msg) => write!(f, "workload rejected: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<serde::Error> for LoadError {
    fn from(e: serde::Error) -> Self {
        LoadError::Parse(e)
    }
}

/// Validate an expanded trace.
pub fn validate_trace(trace: &AppTrace) -> Result<(), LoadError> {
    if trace.is_empty() {
        return Err(LoadError::Invalid("trace has no phases".into()));
    }
    if trace.name.trim().is_empty() {
        return Err(LoadError::Invalid("trace has no name".into()));
    }
    for (i, phase) in trace.phases.iter().enumerate() {
        let d = &phase.demand;
        let finite = phase.work_s.is_finite()
            && d.mem_gbs.is_finite()
            && d.mem_frac.is_finite()
            && d.cpu_frac.is_finite()
            && d.cpu_util.is_finite()
            && d.gpu_util.iter().all(|u| u.is_finite());
        if !finite {
            return Err(LoadError::Invalid(format!("phase {i}: non-finite field")));
        }
        if phase.work_s < 0.0 || d.mem_gbs < 0.0 {
            return Err(LoadError::Invalid(format!("phase {i}: negative value")));
        }
        if !(0.0..=1.0).contains(&d.mem_frac)
            || !(0.0..=1.0).contains(&d.cpu_frac)
            || !(0.0..=1.0).contains(&d.cpu_util)
            || d.gpu_util.iter().any(|u| !(0.0..=1.0).contains(u))
        {
            return Err(LoadError::Invalid(format!(
                "phase {i}: fraction outside [0, 1]"
            )));
        }
    }
    if trace.total_work_s() <= 0.0 {
        return Err(LoadError::Invalid("trace has zero work content".into()));
    }
    Ok(())
}

/// Save an expanded trace as JSON.
pub fn save_trace(trace: &AppTrace, path: &Path) -> Result<(), LoadError> {
    validate_trace(trace)?;
    fs::write(path, serde::to_string_pretty(trace))?;
    Ok(())
}

/// Load and validate an expanded trace from JSON.
pub fn load_trace(path: &Path) -> Result<AppTrace, LoadError> {
    let trace: AppTrace = serde::from_str(&fs::read_to_string(path)?)?;
    validate_trace(&trace)?;
    Ok(trace)
}

/// Save a parametric specification as JSON.
pub fn save_spec(spec: &WorkloadSpec, path: &Path) -> Result<(), LoadError> {
    fs::write(path, serde::to_string_pretty(spec))?;
    Ok(())
}

/// Load a parametric specification and build (and validate) its trace.
pub fn load_spec(path: &Path) -> Result<(WorkloadSpec, AppTrace), LoadError> {
    let spec: WorkloadSpec = serde::from_str(&fs::read_to_string(path)?)?;
    let trace = spec.build();
    validate_trace(&trace)?;
    Ok((spec, trace))
}

/// Save a validated traffic specification as JSON (the `--traffic` file
/// format of `magus fleet` and `magus ctl submit`).
pub fn save_traffic_spec(spec: &TrafficSpec, path: &Path) -> Result<(), LoadError> {
    spec.validate()
        .map_err(|e| LoadError::Invalid(e.to_string()))?;
    fs::write(path, serde::to_string_pretty(spec))?;
    Ok(())
}

/// Load and re-validate a traffic specification from JSON. Fields absent
/// from the file take their documented defaults (the spec is
/// `#[serde(default)]`), and builder invariants are re-checked so a
/// hand-written file cannot smuggle in a malformed spec.
pub fn load_traffic_spec(path: &Path) -> Result<TrafficSpec, LoadError> {
    let spec: TrafficSpec = serde::from_str(&fs::read_to_string(path)?)?;
    spec.validate()
        .map_err(|e| LoadError::Invalid(e.to_string()))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{app_trace, base_spec, AppId, Platform};
    use magus_hetsim::workload::PhaseKind;
    use magus_hetsim::{Demand, Phase};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("magus-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn trace_round_trips_through_json() {
        let trace = app_trace(AppId::Bfs, Platform::IntelA100);
        let path = tmp("trace.json");
        save_trace(&trace, &path).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(*trace, loaded);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spec_round_trips_and_rebuilds_identically() {
        let spec = base_spec(AppId::Srad);
        let path = tmp("spec.json");
        save_spec(&spec, &path).unwrap();
        let (loaded_spec, trace) = load_spec(&path).unwrap();
        assert_eq!(spec, loaded_spec);
        assert_eq!(trace, spec.build());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn invalid_traces_rejected() {
        let empty = AppTrace::new("x", vec![]);
        assert!(matches!(validate_trace(&empty), Err(LoadError::Invalid(_))));

        let mut bad = AppTrace::new(
            "bad",
            vec![Phase::new(
                PhaseKind::Compute,
                1.0,
                Demand::new(5.0, 0.2, 0.2, 0.5),
            )],
        );
        bad.phases[0].demand.mem_gbs = f64::NAN;
        assert!(matches!(validate_trace(&bad), Err(LoadError::Invalid(_))));

        let mut frac = AppTrace::new(
            "frac",
            vec![Phase::new(
                PhaseKind::Compute,
                1.0,
                Demand::new(5.0, 0.2, 0.2, 0.5),
            )],
        );
        frac.phases[0].demand.mem_frac = 1.5;
        assert!(matches!(validate_trace(&frac), Err(LoadError::Invalid(_))));
    }

    #[test]
    fn traffic_spec_round_trips_and_rejects_invalid() {
        let spec = TrafficSpec::builder().seed(11).tenants(3).build().unwrap();
        let path = tmp("traffic.json");
        save_traffic_spec(&spec, &path).unwrap();
        assert_eq!(load_traffic_spec(&path).unwrap(), spec);

        // A hand-written malformed spec is rejected on load.
        std::fs::write(&path, r#"{"tenants":0}"#).unwrap();
        assert!(matches!(
            load_traffic_spec(&path),
            Err(LoadError::Invalid(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_trace(Path::new("/definitely/not/here.json")),
            Err(LoadError::Io(_))
        ));
    }

    #[test]
    fn garbage_json_is_parse_error() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(load_trace(&path), Err(LoadError::Parse(_))));
        std::fs::remove_file(path).ok();
    }
}
