//! Engine-option parsing for the `magus` CLI.
//!
//! Every `magus` command accepts the same global engine switches
//! (`--jobs`, `--no-cache`, `--serial`, `--sim-path`, `--telemetry`,
//! `--faults`). [`EngineOpts`] is the one typed home for those flags:
//! [`EngineOpts::take_from_args`] extracts them from any argument vector
//! (position-independent, leaving command-specific arguments behind), and
//! [`EngineOpts::build_engine`] turns them into the one [`Engine`] value a
//! command runs on. This module is also the only place below the binary
//! that reads the environment: `MAGUS_CACHE_DIR` relocates the result
//! cache, a path no flag covers.

use std::path::{Path, PathBuf};

use magus_hetsim::FaultPlan;

use crate::engine::Engine;
use crate::harness::StepMode;

/// Global engine options, valid on every `magus` command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineOpts {
    /// `--no-cache`: always simulate; don't read or write `results/cache`.
    pub no_cache: bool,
    /// `--jobs N`: run suites on N worker threads (`0` or `None` = one
    /// per CPU). Explicit sizing makes bench numbers reproducible across
    /// machines. `--serial` is `--jobs 1` and wins over `--jobs`: trials
    /// run one at a time, bit-identical to any other worker count.
    pub jobs: Option<usize>,
    /// `--telemetry <file>`: after the command, write the decision-event
    /// stream as JSON Lines to `<file>` and a Prometheus-text metrics
    /// snapshot beside it (`<file>` with extension `.prom`).
    pub telemetry: Option<PathBuf>,
    /// `--sim-path fast|reference`: force every trial the engine runs onto
    /// one stepping path. CI's telemetry-regression job runs the suite
    /// under both and diffs the event streams (the JSONL and its `.prom`
    /// sibling must match byte-for-byte).
    pub sim_path: Option<StepMode>,
    /// `--faults <plan.json>`: load a [`FaultPlan`] and inject it into
    /// every trial of the command that carries no plan of its own. The
    /// plan is validated on load and becomes part of each spec's content
    /// hash, so faulted trials never share cache entries with clean ones.
    pub faults: Option<PathBuf>,
}

/// Extract `--flag value` from an argument list, removing both tokens.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Extract a bare `--switch` from an argument list, removing it.
pub fn take_switch(args: &mut Vec<String>, switch: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == switch) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Load the `--faults` plan file and validate it (serde bypasses the
/// builder, so [`FaultPlan::validate`] re-checks the constraints).
fn load_fault_plan(path: &Path) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--faults: cannot read {}: {e}", path.display()))?;
    let plan: FaultPlan = serde::from_str(&text)
        .map_err(|e| format!("--faults: {} is not a fault plan: {e}", path.display()))?;
    plan.validate()
        .map_err(|e| format!("--faults: invalid plan in {}: {e}", path.display()))?;
    if plan.is_empty() {
        eprintln!(
            "[engine] fault plan {} is empty: trials run clean",
            path.display()
        );
    } else {
        eprintln!(
            "[engine] injecting faults from {} (seed {})",
            path.display(),
            plan.seed
        );
    }
    Ok(plan)
}

impl EngineOpts {
    /// Extract every engine switch from `args` (anywhere on the command
    /// line), leaving non-engine arguments in place and in order.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for malformed values (`--jobs` that
    /// isn't a count, `--sim-path` that isn't `fast`/`reference`).
    pub fn take_from_args(args: &mut Vec<String>) -> Result<Self, String> {
        let jobs = take_flag(args, "--jobs")
            .map(|v| v.parse::<usize>())
            .transpose()
            .map_err(|_| "bad --jobs (expected a thread count, 0 = ncpus)".to_string())?;
        let telemetry = take_flag(args, "--telemetry").map(PathBuf::from);
        let sim_path = take_flag(args, "--sim-path")
            .map(|v| match v.to_ascii_lowercase().as_str() {
                "fast" => Ok(StepMode::Fast),
                "reference" | "ref" => Ok(StepMode::Reference),
                other => Err(format!(
                    "unknown --sim-path '{other}' (expected fast or reference)"
                )),
            })
            .transpose()?;
        let faults = take_flag(args, "--faults").map(PathBuf::from);
        Ok(Self {
            no_cache: take_switch(args, "--no-cache"),
            jobs: take_switch(args, "--serial").then_some(1).or(jobs),
            telemetry,
            sim_path,
            faults,
        })
    }

    /// Build the trial engine these options select: caching under
    /// `results/cache/` (or `$MAGUS_CACHE_DIR`) unless `--no-cache`, then
    /// the `--jobs` worker count, the `--sim-path` stepping path, the
    /// `--faults` plan (loaded and validated here) and, for a
    /// `--telemetry` path, the sink that arms every trial and buffers its
    /// events ([`Engine::with_telemetry`]).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the fault-plan file cannot be
    /// read, parsed, or validated.
    pub fn build_engine(&self) -> Result<Engine, String> {
        let faults = self.faults.as_deref().map(load_fault_plan).transpose()?;
        let mut engine = if self.no_cache {
            Engine::ephemeral()
        } else {
            Engine::with_cache(
                std::env::var("MAGUS_CACHE_DIR").unwrap_or_else(|_| "results/cache".into()),
            )
        };
        if let Some(jobs) = self.jobs {
            engine = engine.with_jobs(jobs);
        }
        if let Some(path) = self.sim_path {
            engine = engine.with_sim_path(path);
        }
        if let Some(plan) = faults {
            engine = engine.with_faults(plan);
        }
        if self.telemetry.is_some() {
            engine = engine.with_telemetry();
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GovernorSpec, TrialSpec};
    use crate::harness::SystemId;
    use magus_workloads::AppId;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn switches_parse_anywhere_on_the_line() {
        let mut args = v(&[
            "--serial",
            "fleet",
            "--no-cache",
            "--jobs",
            "0",
            "--nodes",
            "64",
            "--telemetry",
            "out/t.jsonl",
            "--sim-path",
            "reference",
            "--faults",
            "plan.json",
        ]);
        let opts = EngineOpts::take_from_args(&mut args).unwrap();
        // `--serial` is `--jobs 1`, and it wins over `--jobs 0`.
        assert_eq!(
            opts,
            EngineOpts {
                no_cache: true,
                jobs: Some(1),
                telemetry: Some(PathBuf::from("out/t.jsonl")),
                sim_path: Some(StepMode::Reference),
                faults: Some(PathBuf::from("plan.json")),
            }
        );
        // Command-specific arguments survive extraction, in order.
        assert_eq!(args, v(&["fleet", "--nodes", "64"]));

        let mut none = v(&["suite"]);
        assert_eq!(
            EngineOpts::take_from_args(&mut none).unwrap(),
            EngineOpts::default()
        );
        assert_eq!(none, v(&["suite"]));
    }

    #[test]
    fn malformed_values_error_cleanly() {
        let mut args = v(&["--jobs", "many", "suite"]);
        let err = EngineOpts::take_from_args(&mut args).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let mut args = v(&["suite", "--sim-path", "warp"]);
        let err = EngineOpts::take_from_args(&mut args).unwrap_err();
        assert!(err.contains("--sim-path"), "{err}");
    }

    #[test]
    fn sim_path_accepts_the_ref_alias() {
        let mut args = v(&["--sim-path", "ref"]);
        let opts = EngineOpts::take_from_args(&mut args).unwrap();
        assert_eq!(opts.sim_path, Some(StepMode::Reference));
    }

    #[test]
    fn missing_fault_file_surfaces_a_readable_error() {
        let opts = EngineOpts {
            faults: Some(PathBuf::from("/nonexistent/magus-fault-plan.json")),
            ..EngineOpts::default()
        };
        let err = opts.build_engine().unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        assert!(err.contains("magus-fault-plan.json"), "{err}");
    }

    #[test]
    fn sim_path_and_faults_configure_the_engine_not_the_process() {
        let dir = std::env::temp_dir().join(format!("magus-engine-opts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write_plan = |name: &str, plan: &FaultPlan| {
            let path = dir.join(name);
            std::fs::write(&path, serde::to_string(plan)).unwrap();
            path.display().to_string()
        };
        let plan = FaultPlan::builder()
            .seed(7)
            .pcm_dropout_every(5)
            .build()
            .unwrap();
        let own = FaultPlan::builder()
            .seed(9)
            .pcm_stale_every(4)
            .build()
            .unwrap();
        let plan_file = write_plan("plan.json", &plan);
        let empty_file = write_plan("empty.json", &FaultPlan::default());
        let build = |args: &[&str]| {
            EngineOpts::take_from_args(&mut v(args))
                .unwrap()
                .build_engine()
                .unwrap()
        };
        let forced = build(&[
            "--no-cache",
            "--sim-path",
            "reference",
            "--faults",
            &plan_file,
        ]);
        let emptied = build(&["--no-cache", "--faults", &empty_file]);

        let plain = TrialSpec::new(SystemId::IntelA100, AppId::Bfs, GovernorSpec::Default);
        let on_reference = TrialSpec {
            opts: plain.opts.with_path(StepMode::Reference),
            ..plain.clone()
        };
        // (case, engine, spec handed to the engine, spec built explicitly)
        let cases = [
            (
                "a plain spec takes the path and the plan",
                &forced,
                plain.clone(),
                on_reference.clone().with_faults(plan),
            ),
            (
                "a spec's own plan wins",
                &forced,
                plain.clone().with_faults(own),
                on_reference.with_faults(own),
            ),
            (
                "an empty plan file leaves specs clean",
                &emptied,
                plain.clone(),
                plain.clone(),
            ),
        ];
        std::thread::scope(|s| {
            // An engine built without trial options, running on another
            // thread at the same time, sees none of the above.
            let bare = s.spawn(|| build(&["--no-cache"]).run(&plain).spec);
            for (case, engine, spec, want) in &cases {
                let out = engine.run(spec);
                assert_eq!(out.spec, *want, "{case}");
                assert_eq!(out.spec_hash, want.content_hash(), "{case}");
            }
            assert_eq!(bare.join().unwrap(), plain, "option-less engine");
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
