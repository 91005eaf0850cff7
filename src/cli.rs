//! Command-line interface logic for the `magus` binary.
//!
//! Parsing is hand-rolled (the workspace's dependency policy has no CLI
//! crate) and lives here, separated from I/O, so every command line maps
//! to a typed [`Invocation`] that unit tests can assert on. Runtime
//! selection parses straight into the engine's [`GovernorSpec`] — the
//! same type every experiment path consumes — so there is exactly one
//! string→governor conversion in the whole suite, and `magus:<k=v,...>`
//! thresholds go through the validating [`MagusConfig::builder`].

use magus_experiments::engine::GovernorSpec;
use magus_experiments::harness::SystemId;
use magus_experiments::opts::{take_flag, take_switch};
use magus_experiments::report::FIGURES;
use magus_runtime::MagusConfig;
use magus_workloads::AppId;

pub use magus_experiments::opts::EngineOpts;

/// A parsed CLI invocation: the command plus engine-wide options.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// What to do.
    pub command: Command,
    /// How the trial engine should execute it (the global
    /// [`EngineOpts`] every command accepts).
    pub engine: EngineOpts,
}

/// A parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available applications and systems.
    List,
    /// Run one application under one governor.
    Run {
        /// Target system.
        system: SystemId,
        /// Application to run.
        app: AppId,
        /// Governor selector.
        governor: GovernorSpec,
        /// Emit the recorded trace as JSON to stdout.
        json: bool,
    },
    /// Compare all runtimes on one application.
    Compare {
        /// Target system.
        system: SystemId,
        /// Application to run.
        app: AppId,
    },
    /// Regenerate a whole figure suite (4a / 4b / 4c).
    Suite {
        /// Target system.
        system: SystemId,
    },
    /// Print a committed figure, table or study: `results/<name>.txt`,
    /// regenerated through the engine.
    Figure {
        /// Its name in [`FIGURES`] (the `results/` file stem).
        name: &'static str,
    },
    /// Run the fleet control-plane daemon.
    Serve {
        /// Control-socket bind address (port 0 picks a free port).
        addr: String,
        /// HTTP `/metrics` bind address (`None` = HTTP disabled).
        http: Option<String>,
        /// Governor every fleet node runs.
        governor: GovernorSpec,
        /// Per-node simulated-time budget per epoch (s).
        budget_s: f64,
        /// Fleet-kernel shard count.
        shards: usize,
    },
    /// Drive a running control-plane daemon.
    Ctl {
        /// Daemon control-socket address.
        addr: String,
        /// The verb to execute.
        action: CtlAction,
    },
    /// Batch fleet run (the in-process equivalent of a daemon session,
    /// used by CI to byte-compare the two).
    Fleet {
        /// Fleet size (round-robin catalog apps, or traffic expansion
        /// slots when `traffic` is set).
        nodes: usize,
        /// Hardware preset every node uses.
        system: SystemId,
        /// Governor every node runs.
        governor: GovernorSpec,
        /// Per-node simulated-time budget (s).
        budget_s: f64,
        /// Fleet-kernel shard count.
        shards: usize,
        /// Write the fleet summary JSON here.
        summary: Option<std::path::PathBuf>,
        /// Drive the fleet from a traffic-spec JSON file instead of the
        /// round-robin catalog (`magus_workloads::TrafficSpec`); the run
        /// then reports deadline and per-tenant energy metrics.
        traffic: Option<std::path::PathBuf>,
    },
    /// Print usage.
    Help,
}

/// One `magus ctl` verb.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlAction {
    /// Enroll nodes.
    Join {
        /// Hardware preset for the batch.
        system: SystemId,
        /// Number of nodes.
        count: u32,
        /// Start offset on the fleet clock (µs).
        start_offset_us: u64,
    },
    /// Stage a workload on a node: a catalog app, or one slot of a
    /// traffic-spec expansion (exactly one of the two is set — the parser
    /// rejects neither/both).
    Submit {
        /// Target node id.
        node: u64,
        /// Catalog application.
        app: Option<AppId>,
        /// Traffic-spec JSON file whose expansion the node runs.
        traffic: Option<std::path::PathBuf>,
    },
    /// Remove a node.
    Leave {
        /// Target node id.
        node: u64,
    },
    /// Run one epoch.
    Advance,
    /// Print the daemon's state (epoch, summary JSON).
    Snapshot,
    /// Print the daemon's Prometheus metrics text.
    Metrics,
    /// Subscribe and print telemetry frames until the daemon shuts down.
    Watch,
    /// Gracefully stop the daemon.
    Shutdown,
    /// Whole-session convenience: join `nodes` nodes, submit round-robin
    /// catalog apps, advance one epoch, snapshot — writing the streamed
    /// telemetry, summary JSON, and Prometheus text to files. This is the
    /// session the CI system test byte-compares against `magus fleet`.
    Drive {
        /// Fleet size.
        nodes: u32,
        /// Hardware preset every node uses.
        system: SystemId,
        /// Write the subscribed telemetry JSONL here.
        telemetry: Option<std::path::PathBuf>,
        /// Write the epoch's summary JSON here.
        summary: Option<std::path::PathBuf>,
        /// Write the snapshot's Prometheus text here.
        metrics: Option<std::path::PathBuf>,
        /// Also shut the daemon down at the end of the session.
        shutdown: bool,
    },
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_system(s: &str) -> Result<SystemId, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "intel-a100" | "a100" => Ok(SystemId::IntelA100),
        "intel-4a100" | "4a100" => Ok(SystemId::Intel4A100),
        "intel-max1550" | "max1550" => Ok(SystemId::IntelMax1550),
        "amd-mi210" | "mi210" => Ok(SystemId::AmdMi210),
        other => Err(ParseError(format!(
            "unknown system '{other}' (expected intel-a100, intel-4a100, intel-max1550, amd-mi210)"
        ))),
    }
}

fn parse_app(s: &str) -> Result<AppId, ParseError> {
    AppId::from_name(s)
        .ok_or_else(|| ParseError(format!("unknown application '{s}' (see `magus list`)")))
}

/// Parse a governor selector: `default`/`baseline`, `magus`, `ups`,
/// `fixed:<ghz>`, or `magus:<k=v,...>` with custom thresholds.
fn parse_governor(s: &str) -> Result<GovernorSpec, ParseError> {
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "default" | "baseline" => return Ok(GovernorSpec::Default),
        "magus" => return Ok(GovernorSpec::magus_default()),
        "ups" => return Ok(GovernorSpec::ups_default()),
        _ => {}
    }
    if let Some(ghz) = lower.strip_prefix("fixed:") {
        let ghz: f64 = ghz
            .parse()
            .map_err(|_| ParseError(format!("bad frequency in '{s}'")))?;
        if !(0.1..=10.0).contains(&ghz) {
            return Err(ParseError(format!("frequency {ghz} GHz out of range")));
        }
        return Ok(GovernorSpec::Fixed { ghz });
    }
    if let Some(kvs) = lower.strip_prefix("magus:") {
        let mut builder = MagusConfig::builder();
        for kv in kvs.split(',').filter(|kv| !kv.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| ParseError(format!("expected key=value, got '{kv}'")))?;
            let bad = |what: &str| ParseError(format!("bad {what} in '{kv}'"));
            builder = match key {
                "inc" => builder.inc_threshold(value.parse().map_err(|_| bad("inc threshold"))?),
                "dec" => builder.dec_threshold(value.parse().map_err(|_| bad("dec threshold"))?),
                "hf" => builder
                    .high_freq_threshold(value.parse().map_err(|_| bad("high-freq threshold"))?),
                "interval_ms" => {
                    let ms: f64 = value.parse().map_err(|_| bad("interval"))?;
                    builder.monitor_interval_us((ms * 1000.0) as u64)
                }
                other => {
                    return Err(ParseError(format!(
                        "unknown magus parameter '{other}' (expected inc, dec, hf, interval_ms)"
                    )))
                }
            };
        }
        let cfg = builder
            .build()
            .map_err(|e| ParseError(format!("invalid magus thresholds: {e}")))?;
        return Ok(GovernorSpec::Magus { cfg });
    }
    Err(ParseError(format!(
        "unknown runtime '{s}' (expected default, magus, ups, fixed:<ghz>, magus:<k=v,...>)"
    )))
}

/// Take an optional flag and parse its value, falling back to `default`
/// when the flag is absent.
fn take_parsed<T: std::str::FromStr>(
    rest: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, ParseError> {
    take_flag(rest, flag)
        .map(|v| v.parse::<T>())
        .transpose()
        .map_err(|_| ParseError(format!("bad {flag}")))
        .map(|v| v.unwrap_or(default))
}

/// Take a required flag and parse its value.
fn take_required<T: std::str::FromStr>(
    rest: &mut Vec<String>,
    flag: &str,
) -> Result<T, ParseError> {
    take_flag(rest, flag)
        .ok_or_else(|| ParseError(format!("missing required {flag}")))?
        .parse::<T>()
        .map_err(|_| ParseError(format!("bad {flag}")))
}

/// The names `magus figure` accepts, space-separated.
fn figure_names() -> String {
    FIGURES
        .iter()
        .map(|&(name, _)| name)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, ParseError> {
    let mut args: Vec<String> = args.to_vec();
    // Engine options are global: valid anywhere on the command line.
    let engine = EngineOpts::take_from_args(&mut args).map_err(ParseError)?;
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Invocation {
            command: Command::Help,
            engine,
        });
    };
    let mut rest: Vec<String> = rest.to_vec();
    let command = match cmd.as_str() {
        "list" => Command::List,
        "help" | "--help" | "-h" => Command::Help,
        "run" => {
            let system = parse_system(
                &take_flag(&mut rest, "--system").unwrap_or_else(|| "intel-a100".into()),
            )?;
            let app = parse_app(
                &take_flag(&mut rest, "--app").ok_or(ParseError("run requires --app".into()))?,
            )?;
            let governor = parse_governor(
                &take_flag(&mut rest, "--runtime").unwrap_or_else(|| "magus".into()),
            )?;
            let json = take_switch(&mut rest, "--json");
            Command::Run {
                system,
                app,
                governor,
                json,
            }
        }
        "compare" => {
            let system = parse_system(
                &take_flag(&mut rest, "--system").unwrap_or_else(|| "intel-a100".into()),
            )?;
            let app = parse_app(
                &take_flag(&mut rest, "--app")
                    .ok_or(ParseError("compare requires --app".into()))?,
            )?;
            Command::Compare { system, app }
        }
        "suite" => {
            let system = parse_system(
                &take_flag(&mut rest, "--system").unwrap_or_else(|| "intel-a100".into()),
            )?;
            Command::Suite { system }
        }
        "figure" => {
            let Some((name, tail)) = rest.split_first() else {
                return Err(ParseError(format!(
                    "figure requires a name (one of: {})",
                    figure_names()
                )));
            };
            let name = FIGURES
                .iter()
                .map(|&(known, _)| known)
                .find(|&known| known == name.as_str())
                .ok_or_else(|| {
                    ParseError(format!(
                        "unknown figure '{name}' (expected one of: {})",
                        figure_names()
                    ))
                })?;
            rest = tail.to_vec();
            Command::Figure { name }
        }
        "serve" => {
            // The daemon's epochs run clean; refuse a plan rather than
            // ignore it.
            if engine.faults.is_some() {
                return Err(ParseError(
                    "serve takes no --faults plan (run a faulted fleet with `magus fleet`)".into(),
                ));
            }
            let addr = take_flag(&mut rest, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
            let http = if take_switch(&mut rest, "--no-http") {
                None
            } else {
                Some(take_flag(&mut rest, "--http").unwrap_or_else(|| "127.0.0.1:0".into()))
            };
            let governor = parse_governor(
                &take_flag(&mut rest, "--runtime").unwrap_or_else(|| "default".into()),
            )?;
            let budget_s: f64 = take_parsed(&mut rest, "--budget", 600.0)?;
            if !(budget_s.is_finite() && budget_s > 0.0) {
                return Err(ParseError("--budget must be positive".into()));
            }
            let shards: usize = take_parsed(&mut rest, "--shards", 1)?;
            if shards == 0 {
                return Err(ParseError("--shards must be positive".into()));
            }
            Command::Serve {
                addr,
                http,
                governor,
                budget_s,
                shards,
            }
        }
        "ctl" => {
            let addr = take_flag(&mut rest, "--addr")
                .ok_or(ParseError("ctl requires --addr (see `magus serve`)".into()))?;
            let Some((verb, verb_rest)) = rest.split_first() else {
                return Err(ParseError(
                    "ctl requires a verb: join | submit | leave | advance | snapshot | metrics \
                     | watch | shutdown | drive"
                        .into(),
                ));
            };
            let verb = verb.clone();
            let mut rest2: Vec<String> = verb_rest.to_vec();
            let action = match verb.as_str() {
                "join" => CtlAction::Join {
                    system: parse_system(
                        &take_flag(&mut rest2, "--system").unwrap_or_else(|| "intel-a100".into()),
                    )?,
                    count: take_parsed(&mut rest2, "--count", 1u32)?,
                    start_offset_us: take_parsed(&mut rest2, "--offset-us", 0u64)?,
                },
                "submit" => {
                    let node = take_required(&mut rest2, "--node")?;
                    let app = take_flag(&mut rest2, "--app")
                        .map(|a| parse_app(&a))
                        .transpose()?;
                    let traffic = take_flag(&mut rest2, "--traffic").map(Into::into);
                    match (&app, &traffic) {
                        (None, None) => {
                            return Err(ParseError(
                                "submit requires --app <name> or --traffic <spec.json>".into(),
                            ))
                        }
                        (Some(_), Some(_)) => {
                            return Err(ParseError(
                                "submit takes --app or --traffic, not both".into(),
                            ))
                        }
                        _ => {}
                    }
                    CtlAction::Submit { node, app, traffic }
                }
                "leave" => CtlAction::Leave {
                    node: take_required(&mut rest2, "--node")?,
                },
                "advance" => CtlAction::Advance,
                "snapshot" => CtlAction::Snapshot,
                "metrics" => CtlAction::Metrics,
                "watch" => CtlAction::Watch,
                "shutdown" => CtlAction::Shutdown,
                "drive" => CtlAction::Drive {
                    nodes: take_required(&mut rest2, "--nodes")?,
                    system: parse_system(
                        &take_flag(&mut rest2, "--system").unwrap_or_else(|| "intel-a100".into()),
                    )?,
                    // `--telemetry` is a global engine flag (stripped by
                    // EngineOpts above), reused here as the JSONL sink so
                    // drive and `magus fleet` spell it identically.
                    telemetry: engine.telemetry.clone(),
                    summary: take_flag(&mut rest2, "--summary").map(Into::into),
                    metrics: take_flag(&mut rest2, "--metrics").map(Into::into),
                    shutdown: take_switch(&mut rest2, "--shutdown"),
                },
                other => return Err(ParseError(format!("unknown ctl verb '{other}'"))),
            };
            rest = rest2;
            Command::Ctl { addr, action }
        }
        "fleet" => {
            let nodes: usize = take_required(&mut rest, "--nodes")?;
            if nodes == 0 {
                return Err(ParseError("--nodes must be positive".into()));
            }
            let system = parse_system(
                &take_flag(&mut rest, "--system").unwrap_or_else(|| "intel-a100".into()),
            )?;
            let governor = parse_governor(
                &take_flag(&mut rest, "--runtime").unwrap_or_else(|| "default".into()),
            )?;
            let budget_s: f64 = take_parsed(&mut rest, "--budget", 600.0)?;
            if !(budget_s.is_finite() && budget_s > 0.0) {
                return Err(ParseError("--budget must be positive".into()));
            }
            let shards: usize = take_parsed(&mut rest, "--shards", 1)?;
            if shards == 0 {
                return Err(ParseError("--shards must be positive".into()));
            }
            Command::Fleet {
                nodes,
                system,
                governor,
                budget_s,
                shards,
                summary: take_flag(&mut rest, "--summary").map(Into::into),
                traffic: take_flag(&mut rest, "--traffic").map(Into::into),
            }
        }
        other => return Err(ParseError(format!("unknown command '{other}'"))),
    };
    if let Some(stray) = rest.first() {
        return Err(ParseError(format!("unexpected argument '{stray}'")));
    }
    Ok(Invocation { command, engine })
}

/// Usage text.
#[must_use]
pub fn usage() -> &'static str {
    "magus — adaptive uncore frequency scaling reproduction suite

USAGE:
  magus list
  magus run --app <name> [--system <sys>] [--runtime <gov>] [--json]
  magus compare --app <name> [--system <sys>]
  magus suite [--system <sys>]
  magus figure <name>
  magus serve [--addr <ip:port>] [--http <ip:port> | --no-http]
              [--runtime <gov>] [--budget <s>] [--shards <n>]
  magus ctl --addr <ip:port> <verb> [...]
  magus fleet --nodes <n> [--system <sys>] [--runtime <gov>] [--budget <s>]
              [--shards <n>] [--summary <file>] [--traffic <spec.json>]

FIGURES:   `figure` prints results/<name>.txt, regenerated through the
           engine: fig1 fig2 fig3 fig4a fig4b fig4c fig5 fig6 fig7 table1
           table2 ablation_highfreq ablation_interval amd_port
           powercap_study variance all robustness traffic_study.
CONTROL:   `serve` runs the fleet control-plane daemon: it prints
           CTL_ADDR=<ip:port> and HTTP_ADDR=<ip:port> on stdout (bind with
           port 0 and parse these to avoid collisions), then serves the
           wire protocol on the control socket and Prometheus text on HTTP
           GET /metrics until a shutdown request. `ctl` drives it: verbs
           join [--system <sys>] [--count <n>] [--offset-us <µs>],
           submit --node <id> (--app <name> | --traffic <spec.json>),
           leave --node <id>, advance,
           snapshot, metrics, watch, shutdown, and
           drive --nodes <n> [--system <sys>] [--telemetry <file>]
           [--summary <file>] [--metrics <file>] [--shutdown] — a whole
           join/submit/advance/snapshot session whose outputs are
           byte-identical to `magus fleet` with the same spec (with
           --telemetry, `fleet` writes the same JSONL + .prom pair).
GOVERNORS: default | magus | ups | fixed:<ghz> | magus:<k=v,...>
           (magus keys: inc, dec, hf, interval_ms — validated before use)
TRAFFIC:   --traffic <spec.json> drives a fleet (or one daemon node) from a
           stochastic multi-tenant traffic spec instead of the round-robin
           catalog: Zipf-skewed app popularity, diurnal + bursty arrivals,
           per-tenant deadline queues, colocation (see DESIGN.md
           \"Traffic generation\"). Expansion is deterministic from the
           spec's seed; with --traffic, `fleet` also reports deadline
           misses and per-tenant energy.
ENGINE:    --no-cache (always simulate), --jobs <n> (worker threads,
           0 = ncpus), --serial (= --jobs 1: one trial at a time),
           --sim-path fast|reference (stepping path for every trial; both
           paths emit byte-identical --telemetry JSONL and .prom files),
           --telemetry <file> (write governor decision events as JSON
           Lines to <file> and a Prometheus metrics snapshot to the .prom
           sibling, <file>.prom),
           --faults <plan.json> (inject a deterministic fault plan into
           every trial without a plan of its own, and into every `fleet`
           node; validated on load, hashed into each trial's cache key —
           see DESIGN.md \"Fault injection\"; `serve` refuses it).
           Trials are cached under results/cache (or $MAGUS_CACHE_DIR)
           by spec hash; each command writes a run manifest next to it.
SYSTEMS:   intel-a100 (default), intel-4a100, intel-max1550, amd-mi210
           (the AMD node pins its fabric over HSMP, so MAGUS reports as
           MAGUS/HSMP there)
APPS:      run `magus list`"
}

#[cfg(test)]
mod tests {
    use super::*;
    use magus_experiments::harness::StepMode;
    use std::path::PathBuf;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parse and unwrap just the command (engine opts asserted separately).
    fn cmd(args: &[&str]) -> Command {
        parse(&v(args)).unwrap().command
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(cmd(&[]), Command::Help);
        assert_eq!(cmd(&["--help"]), Command::Help);
        assert_eq!(parse(&[]).unwrap().engine, EngineOpts::default());
    }

    #[test]
    fn list_round_trips() {
        assert_eq!(cmd(&["list"]), Command::List);
    }

    #[test]
    fn run_parses_full_form() {
        assert_eq!(
            cmd(&[
                "run",
                "--system",
                "intel-max1550",
                "--app",
                "srad",
                "--runtime",
                "ups",
                "--json",
            ]),
            Command::Run {
                system: SystemId::IntelMax1550,
                app: AppId::Srad,
                governor: GovernorSpec::ups_default(),
                json: true,
            }
        );
        assert_eq!(
            cmd(&["run", "--system", "amd-mi210", "--app", "bfs"]),
            Command::Run {
                system: SystemId::AmdMi210,
                app: AppId::Bfs,
                governor: GovernorSpec::magus_default(),
                json: false,
            }
        );
    }

    #[test]
    fn run_defaults_system_and_runtime() {
        assert_eq!(
            cmd(&["run", "--app", "bfs"]),
            Command::Run {
                system: SystemId::IntelA100,
                app: AppId::Bfs,
                governor: GovernorSpec::magus_default(),
                json: false,
            }
        );
    }

    #[test]
    fn fixed_runtime_parses_frequency() {
        match cmd(&["run", "--app", "bfs", "--runtime", "fixed:1.4"]) {
            Command::Run {
                governor: GovernorSpec::Fixed { ghz },
                ..
            } => assert!((ghz - 1.4).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn magus_governor_with_custom_thresholds() {
        let expected = MagusConfig::builder()
            .inc_threshold(300.0)
            .dec_threshold(700.0)
            .high_freq_threshold(0.5)
            .monitor_interval_us(400_000)
            .build()
            .unwrap();
        assert_eq!(
            cmd(&[
                "run",
                "--app",
                "bfs",
                "--runtime",
                "magus:inc=300,dec=700,hf=0.5,interval_ms=400",
            ]),
            Command::Run {
                system: SystemId::IntelA100,
                app: AppId::Bfs,
                governor: GovernorSpec::Magus { cfg: expected },
                json: false,
            }
        );
    }

    #[test]
    fn magus_governor_rejects_invalid_thresholds_via_builder() {
        // The typed builder error surfaces in the CLI message.
        let err = parse(&v(&["run", "--app", "bfs", "--runtime", "magus:inc=-5"])).unwrap_err();
        assert!(err.0.contains("inc_threshold"), "{err}");
        let err = parse(&v(&["run", "--app", "bfs", "--runtime", "magus:hf=1.5"])).unwrap_err();
        assert!(err.0.contains("high_freq_threshold"), "{err}");
        assert!(parse(&v(&["run", "--app", "bfs", "--runtime", "magus:zzz=1"])).is_err());
        assert!(parse(&v(&["run", "--app", "bfs", "--runtime", "magus:inc"])).is_err());
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(parse(&v(&["run"])).is_err()); // missing --app
        assert!(parse(&v(&["run", "--app", "nope"])).is_err());
        assert!(parse(&v(&["run", "--app", "bfs", "--runtime", "x"])).is_err());
        assert!(parse(&v(&["run", "--app", "bfs", "--runtime", "fixed:99"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run", "--app", "bfs", "stray"])).is_err());
    }

    #[test]
    fn system_aliases() {
        assert_eq!(parse_system("4a100").unwrap(), SystemId::Intel4A100);
        assert_eq!(parse_system("A100").unwrap(), SystemId::IntelA100);
        assert_eq!(parse_system("amd-mi210").unwrap(), SystemId::AmdMi210);
        assert_eq!(parse_system("MI210").unwrap(), SystemId::AmdMi210);
        assert!(parse_system("epyc").is_err());
        assert!(parse_system("amd").unwrap_err().0.contains("amd-mi210"));
    }

    #[test]
    fn compare_and_suite_round_trip() {
        assert_eq!(
            cmd(&["compare", "--app", "UNet", "--system", "4a100"]),
            Command::Compare {
                system: SystemId::Intel4A100,
                app: AppId::Unet,
            }
        );
        assert_eq!(
            cmd(&["compare", "--app", "bfs", "--system", "mi210"]),
            Command::Compare {
                system: SystemId::AmdMi210,
                app: AppId::Bfs,
            }
        );
        assert_eq!(
            cmd(&["suite", "--system", "intel-max1550"]),
            Command::Suite {
                system: SystemId::IntelMax1550
            }
        );
        assert_eq!(
            cmd(&["suite"]),
            Command::Suite {
                system: SystemId::IntelA100
            }
        );
    }

    #[test]
    fn figure_takes_one_name_from_the_table() {
        for &(name, _) in FIGURES {
            assert_eq!(cmd(&["figure", name]), Command::Figure { name });
        }
        // Engine switches after the name still belong to the engine.
        let inv = parse(&v(&["figure", "traffic_study", "--no-cache"])).unwrap();
        assert_eq!(
            inv.command,
            Command::Figure {
                name: "traffic_study"
            }
        );
        assert!(inv.engine.no_cache);
        for args in [&["figure"][..], &["figure", "fig9"]] {
            let err = parse(&v(args)).unwrap_err();
            for &(name, _) in FIGURES {
                assert!(err.0.contains(name), "{args:?}: {err} does not list {name}");
            }
        }
        assert!(parse(&v(&["figure", "fig4a", "stray"])).is_err());
    }

    #[test]
    fn engine_switches_are_global_and_position_independent() {
        let inv = parse(&v(&["--serial", "suite", "--no-cache"])).unwrap();
        assert_eq!(
            inv.engine,
            EngineOpts {
                no_cache: true,
                jobs: Some(1),
                ..EngineOpts::default()
            }
        );
        assert_eq!(
            inv.command,
            Command::Suite {
                system: SystemId::IntelA100
            }
        );
        // Absent switches default off; they are not stray arguments.
        let inv = parse(&v(&["figure", "fig3"])).unwrap();
        assert_eq!(inv.engine, EngineOpts::default());
    }

    #[test]
    fn jobs_flag_parses_anywhere_and_validates() {
        let inv = parse(&v(&["--jobs", "4", "suite"])).unwrap();
        assert_eq!(inv.engine.jobs, Some(4));
        let inv = parse(&v(&["suite", "--jobs", "0"])).unwrap();
        assert_eq!(inv.engine.jobs, Some(0), "0 means one worker per CPU");
        assert_eq!(parse(&v(&["suite"])).unwrap().engine.jobs, None);
        assert!(parse(&v(&["--jobs", "many", "suite"])).is_err());
        assert!(parse(&v(&["--jobs", "-1", "suite"])).is_err());
    }

    #[test]
    fn usage_mentions_all_commands() {
        let u = usage();
        for word in [
            "run",
            "compare",
            "suite",
            "figure",
            "list",
            "--no-cache",
            "--serial",
            "--jobs",
            "--telemetry",
            "--sim-path",
            "--faults",
            ".prom",
            "serve",
            "ctl",
            "fleet",
            "drive",
            "/metrics",
            "CTL_ADDR",
            "HTTP_ADDR",
            "--traffic",
            "Traffic generation",
            "amd-mi210",
        ] {
            assert!(u.contains(word), "{word}");
        }
        for &(name, _) in FIGURES {
            assert!(u.contains(name), "{name}");
        }
    }

    #[test]
    fn serve_parses_with_defaults() {
        assert_eq!(
            cmd(&["serve"]),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                http: Some("127.0.0.1:0".into()),
                governor: GovernorSpec::Default,
                budget_s: 600.0,
                shards: 1,
            }
        );
        assert_eq!(
            cmd(&[
                "serve",
                "--addr",
                "127.0.0.1:7700",
                "--no-http",
                "--runtime",
                "magus",
                "--budget",
                "45",
                "--shards",
                "4",
            ]),
            Command::Serve {
                addr: "127.0.0.1:7700".into(),
                http: None,
                governor: GovernorSpec::magus_default(),
                budget_s: 45.0,
                shards: 4,
            }
        );
        assert!(parse(&v(&["serve", "--budget", "0"])).is_err());
        assert!(parse(&v(&["serve", "--shards", "0"])).is_err());
    }

    #[test]
    fn ctl_verbs_parse() {
        assert_eq!(
            cmd(&["ctl", "--addr", "127.0.0.1:7700", "join", "--count", "64"]),
            Command::Ctl {
                addr: "127.0.0.1:7700".into(),
                action: CtlAction::Join {
                    system: SystemId::IntelA100,
                    count: 64,
                    start_offset_us: 0,
                },
            }
        );
        assert_eq!(
            cmd(&["ctl", "--addr", "h:1", "join", "--system", "amd-mi210"]),
            Command::Ctl {
                addr: "h:1".into(),
                action: CtlAction::Join {
                    system: SystemId::AmdMi210,
                    count: 1,
                    start_offset_us: 0,
                },
            }
        );
        assert_eq!(
            cmd(&["ctl", "--addr", "h:1", "submit", "--node", "3", "--app", "bfs"]),
            Command::Ctl {
                addr: "h:1".into(),
                action: CtlAction::Submit {
                    node: 3,
                    app: Some(AppId::Bfs),
                    traffic: None,
                },
            }
        );
        assert_eq!(
            cmd(&[
                "ctl",
                "--addr",
                "h:1",
                "submit",
                "--node",
                "3",
                "--traffic",
                "spec.json"
            ]),
            Command::Ctl {
                addr: "h:1".into(),
                action: CtlAction::Submit {
                    node: 3,
                    app: None,
                    traffic: Some(PathBuf::from("spec.json")),
                },
            }
        );
        assert!(
            parse(&v(&["ctl", "--addr", "h:1", "submit", "--node", "3"])).is_err(),
            "submit needs --app or --traffic"
        );
        assert!(
            parse(&v(&[
                "ctl",
                "--addr",
                "h:1",
                "submit",
                "--node",
                "3",
                "--app",
                "bfs",
                "--traffic",
                "spec.json"
            ]))
            .is_err(),
            "submit rejects --app together with --traffic"
        );
        for (verb, action) in [
            ("advance", CtlAction::Advance),
            ("snapshot", CtlAction::Snapshot),
            ("metrics", CtlAction::Metrics),
            ("watch", CtlAction::Watch),
            ("shutdown", CtlAction::Shutdown),
        ] {
            assert_eq!(
                cmd(&["ctl", "--addr", "h:1", verb]),
                Command::Ctl {
                    addr: "h:1".into(),
                    action,
                }
            );
        }
        assert_eq!(
            cmd(&[
                "ctl",
                "--addr",
                "h:1",
                "drive",
                "--nodes",
                "64",
                "--telemetry",
                "t.jsonl",
                "--summary",
                "s.json",
                "--metrics",
                "m.prom",
                "--shutdown",
            ]),
            Command::Ctl {
                addr: "h:1".into(),
                action: CtlAction::Drive {
                    nodes: 64,
                    system: SystemId::IntelA100,
                    telemetry: Some(PathBuf::from("t.jsonl")),
                    summary: Some(PathBuf::from("s.json")),
                    metrics: Some(PathBuf::from("m.prom")),
                    shutdown: true,
                },
            }
        );
        assert!(parse(&v(&["ctl", "advance"])).is_err(), "missing --addr");
        assert!(
            parse(&v(&["ctl", "--addr", "h:1"])).is_err(),
            "missing verb"
        );
        assert!(parse(&v(&["ctl", "--addr", "h:1", "frobnicate"])).is_err());
        assert!(parse(&v(&["ctl", "--addr", "h:1", "leave"])).is_err());
        assert!(parse(&v(&["ctl", "--addr", "h:1", "advance", "stray"])).is_err());
    }

    #[test]
    fn fleet_parses_with_defaults() {
        assert_eq!(
            cmd(&["fleet", "--nodes", "64"]),
            Command::Fleet {
                nodes: 64,
                system: SystemId::IntelA100,
                governor: GovernorSpec::Default,
                budget_s: 600.0,
                shards: 1,
                summary: None,
                traffic: None,
            }
        );
        assert_eq!(
            cmd(&[
                "fleet",
                "--nodes",
                "8",
                "--runtime",
                "magus",
                "--budget",
                "45",
                "--shards",
                "2",
                "--summary",
                "s.json",
                "--traffic",
                "traffic.json",
                "--system",
                "amd-mi210",
            ]),
            Command::Fleet {
                nodes: 8,
                system: SystemId::AmdMi210,
                governor: GovernorSpec::magus_default(),
                budget_s: 45.0,
                shards: 2,
                summary: Some(PathBuf::from("s.json")),
                traffic: Some(PathBuf::from("traffic.json")),
            }
        );
        assert!(parse(&v(&["fleet"])).is_err(), "missing --nodes");
        assert!(parse(&v(&["fleet", "--nodes", "0"])).is_err());
    }

    #[test]
    fn faults_flag_parses_anywhere() {
        let inv = parse(&v(&["--faults", "plan.json", "suite"])).unwrap();
        assert_eq!(inv.engine.faults, Some(PathBuf::from("plan.json")));
        let inv = parse(&v(&["run", "--app", "bfs", "--faults", "f/p.json"])).unwrap();
        assert_eq!(inv.engine.faults, Some(PathBuf::from("f/p.json")));
        assert_eq!(parse(&v(&["suite"])).unwrap().engine.faults, None);
    }

    #[test]
    fn serve_rejects_a_fault_plan() {
        let err = parse(&v(&["--faults", "plan.json", "serve"])).unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
        assert!(parse(&v(&["--faults", "plan.json", "fleet", "--nodes", "4"])).is_ok());
    }

    #[test]
    fn telemetry_and_sim_path_flags_parse_anywhere() {
        let inv = parse(&v(&[
            "--telemetry",
            "out/t.jsonl",
            "suite",
            "--sim-path",
            "reference",
        ]))
        .unwrap();
        assert_eq!(inv.engine.telemetry, Some(PathBuf::from("out/t.jsonl")));
        assert_eq!(inv.engine.sim_path, Some(StepMode::Reference));
        assert_eq!(
            inv.command,
            Command::Suite {
                system: SystemId::IntelA100
            }
        );
        let inv = parse(&v(&["suite", "--sim-path", "fast"])).unwrap();
        assert_eq!(inv.engine.sim_path, Some(StepMode::Fast));
        assert!(parse(&v(&["suite", "--sim-path", "warp"])).is_err());
        let inv = parse(&v(&["suite"])).unwrap();
        assert_eq!(inv.engine.telemetry, None);
        assert_eq!(inv.engine.sim_path, None);
    }
}
