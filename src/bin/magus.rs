//! `magus` — the reproduction suite's command-line front end.
//!
//! ```sh
//! cargo run --release --bin magus -- run --app srad --runtime magus
//! cargo run --release --bin magus -- compare --app UNet
//! cargo run --release --bin magus -- suite --system intel-max1550
//! cargo run --release --bin magus -- figure fig4a
//! ```
//!
//! Every experiment command goes through the trial engine: results are
//! cached under `results/cache/` by spec hash, trials are scheduled in
//! parallel, and each run writes a manifest next to the cache.
//! `--no-cache` / `--serial` opt out. The fleet control plane lives
//! behind `serve` (the daemon), `ctl` (the client), and `fleet` (the batch
//! equivalent CI diffs daemon sessions against).

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::{fs, io};

use magus_suite::cli::{parse, usage, Command, CtlAction, EngineOpts, Invocation};
use magus_suite::ctl::{
    fleet_prometheus, peak_rss_kb, serve_fleet, CtlClient, ServeConfig, SubEvent,
};
use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
use magus_suite::experiments::figures::{evaluate_app, fig4};
use magus_suite::experiments::fleet::{fleet_app, run_fleet, run_fleet_with_telemetry, FleetSpec};
use magus_suite::experiments::harness::SystemId;
use magus_suite::experiments::report::{figure, render_fig4_table};
use magus_suite::hetsim::fleet::FleetSummary;
use magus_suite::workloads::AppId;

/// Finish a named run: manifest summary, plus the `--telemetry` export
/// (JSONL event stream + Prometheus snapshot) when requested.
fn finish(engine: &Engine, label: &str, opts: &EngineOpts) -> ExitCode {
    engine.finish(label);
    if let Some(path) = &opts.telemetry {
        match engine.write_telemetry(path) {
            Ok(()) => eprintln!(
                "[engine] telemetry written to {} (+ {})",
                path.display(),
                path.with_extension("prom").display()
            ),
            Err(e) => {
                eprintln!("[engine] telemetry write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        command,
        engine: opts,
    } = match parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Built before any command runs, so a bad `--faults` file fails every
    // command up front. `run --json` prints each trial's events and node
    // counters, so it is a telemetry sink.
    let engine = match opts.build_engine() {
        Ok(engine) if matches!(command, Command::Run { json: true, .. }) => engine.with_telemetry(),
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = opts.sim_path.unwrap_or_default();
    match command {
        Command::Help => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Command::List => {
            list();
            ExitCode::SUCCESS
        }
        Command::Run {
            system,
            app,
            governor,
            json,
        } => {
            run(&engine, system, app, governor, json);
            finish(&engine, "run", &opts)
        }
        Command::Compare { system, app } => {
            compare(&engine, system, app);
            finish(&engine, "compare", &opts)
        }
        Command::Suite { system } => {
            let rows = fig4(&engine, system);
            print!("{}", render_fig4_table(system.name(), &rows));
            finish(&engine, "suite", &opts)
        }
        Command::Figure { name } => {
            let render = figure(name).expect("the parser accepts only table names");
            print!("{}", render(&engine));
            finish(&engine, name, &opts)
        }
        Command::Serve {
            addr,
            http,
            governor,
            budget_s,
            shards,
        } => serve(ServeConfig {
            ctl_addr: addr,
            http_addr: http,
            governor,
            budget_s,
            shards,
            path,
            ..ServeConfig::default()
        }),
        Command::Ctl { addr, action } => match run_ctl(&addr, action) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Fleet {
            nodes,
            system,
            governor,
            budget_s,
            shards,
            summary,
            traffic,
        } => {
            let spec = FleetSpec {
                system,
                max_s: budget_s,
                shards,
                path,
                ..FleetSpec::new(governor, nodes)
            };
            match fleet(
                spec,
                summary.as_deref(),
                traffic.as_deref(),
                opts.telemetry.as_deref(),
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Boot the control-plane daemon and block until shutdown. The bound
/// addresses go to stdout as `CTL_ADDR=`/`HTTP_ADDR=` lines (stdout is
/// line-buffered, so a harness reading a pipe sees them immediately).
fn serve(cfg: ServeConfig) -> ExitCode {
    let server = match serve_fleet(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.ctl_addr() {
        Ok(addr) => println!("CTL_ADDR={addr}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(addr) = server.http_addr() {
        println!("HTTP_ADDR={addr}");
    }
    let result = server.run();
    if let Some(kb) = peak_rss_kb() {
        eprintln!("[serve] peak RSS {kb} kB");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The fleet summary's file rendering, shared by every path that writes
/// one (`ctl drive --summary`, `ctl snapshot`, `fleet --summary`) so the
/// CI system test can byte-compare daemon and batch output.
fn summary_json(summary: &FleetSummary) -> Result<String, serde_json::Error> {
    Ok(format!("{}\n", serde_json::to_string_pretty(summary)?))
}

/// Write `contents` to `path`, creating parent directories as needed.
fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, contents)
}

/// Execute one `magus ctl` verb against a running daemon.
fn run_ctl(addr: &str, action: CtlAction) -> Result<(), Box<dyn Error>> {
    match action {
        CtlAction::Join {
            system,
            count,
            start_offset_us,
        } => {
            let nodes = CtlClient::connect(addr)?.join(system, count, start_offset_us)?;
            match (nodes.first(), nodes.last()) {
                (Some(first), Some(last)) if nodes.len() > 1 => {
                    println!("joined nodes {first}..={last}");
                }
                (Some(first), _) => println!("joined node {first}"),
                _ => println!("joined 0 nodes"),
            }
        }
        CtlAction::Submit { node, app, traffic } => match (app, traffic) {
            (Some(app), None) => {
                CtlClient::connect(addr)?.submit(node, app)?;
                println!("submitted {app} on node {node}");
            }
            (None, Some(path)) => {
                let spec = magus_suite::workloads::io::load_traffic_spec(&path)?;
                CtlClient::connect(addr)?.submit_traffic(node, spec)?;
                println!(
                    "submitted traffic slot (seed {}, {} tenant(s)) on node {node}",
                    spec.seed, spec.tenants
                );
            }
            // The parser enforces exactly-one-of; this arm is unreachable
            // from the command line.
            _ => return Err("submit requires exactly one of --app / --traffic".into()),
        },
        CtlAction::Leave { node } => {
            CtlClient::connect(addr)?.leave(node)?;
            println!("node {node} left");
        }
        CtlAction::Advance => {
            let (epoch, summary) = CtlClient::connect(addr)?.advance()?;
            println!(
                "epoch {epoch}: {} node(s), {} completed, {:.0} J, makespan {:.2} s",
                summary.nodes.len(),
                summary.completed,
                summary.total_j,
                summary.makespan_s
            );
        }
        CtlAction::Snapshot => {
            let snap = CtlClient::connect(addr)?.snapshot()?;
            eprintln!("[ctl] epoch {}", snap.epoch);
            match &snap.summary {
                Some(summary) => print!("{}", summary_json(summary)?),
                None => println!("null"),
            }
        }
        CtlAction::Metrics => {
            print!("{}", CtlClient::connect(addr)?.snapshot()?.prometheus);
        }
        CtlAction::Watch => {
            let mut sub = CtlClient::connect(addr)?.subscribe()?;
            eprintln!("[ctl] subscribed at epoch {}", sub.since_epoch);
            while let Some(event) = sub.next_event()? {
                match event {
                    SubEvent::Telemetry { epoch, jsonl } => {
                        eprintln!("[ctl] epoch {epoch}");
                        print!("{jsonl}");
                    }
                    SubEvent::ShuttingDown => {
                        eprintln!("[ctl] daemon shutting down");
                        break;
                    }
                }
            }
        }
        CtlAction::Shutdown => {
            CtlClient::connect(addr)?.shutdown()?;
            eprintln!("[ctl] daemon shutting down");
        }
        CtlAction::Drive {
            nodes,
            system,
            telemetry,
            summary,
            metrics,
            shutdown,
        } => drive(
            addr, nodes, system, &telemetry, &summary, &metrics, shutdown,
        )?,
    }
    Ok(())
}

/// One whole daemon session: join, submit round-robin catalog apps,
/// advance one epoch, snapshot — writing the streamed telemetry, the
/// summary JSON, and the Prometheus text to files. Byte-for-byte the
/// output of `magus fleet` with the same size/system/governor.
fn drive(
    addr: &str,
    nodes: u32,
    system: SystemId,
    telemetry: &Option<PathBuf>,
    summary_path: &Option<PathBuf>,
    metrics: &Option<PathBuf>,
    shutdown: bool,
) -> Result<(), Box<dyn Error>> {
    let mut client = CtlClient::connect(addr)?;
    let ids = client.join(system, nodes, 0)?;
    for (i, id) in ids.iter().enumerate() {
        client.submit(*id, fleet_app(i))?;
    }
    // Subscribe on a second connection *before* advancing so the epoch's
    // telemetry broadcast cannot race past us.
    let mut sub = CtlClient::connect(addr)?.subscribe()?;
    let (epoch, summary) = client.advance()?;
    let jsonl = loop {
        match sub.next_event()? {
            Some(SubEvent::Telemetry { epoch: e, jsonl }) if e == epoch => break jsonl,
            Some(_) => {}
            None => return Err("subscription closed before the epoch's telemetry frame".into()),
        }
    };
    let snap = client.snapshot()?;
    if let Some(path) = telemetry {
        write_file(path, &jsonl)?;
    }
    if let Some(path) = summary_path {
        write_file(path, &summary_json(&summary)?)?;
    }
    if let Some(path) = metrics {
        write_file(path, &snap.prometheus)?;
    }
    eprintln!(
        "[ctl] drove {} node(s) through epoch {epoch}: {} completed, {:.0} J",
        ids.len(),
        summary.completed,
        summary.total_j
    );
    if shutdown {
        client.shutdown()?;
        // Drain the subscription: the daemon queues a final shutting-down
        // frame and closes only after subscribers have read everything.
        while sub.next_event()?.is_some() {}
    }
    Ok(())
}

/// In-process batch equivalent of a daemon drive session, writing the
/// same bytes to the same three artefacts (`--telemetry` JSONL + `.prom`
/// sibling, `--summary` JSON) so CI can diff the two paths.
fn fleet(
    mut spec: FleetSpec,
    summary_path: Option<&Path>,
    traffic_path: Option<&Path>,
    telemetry_path: Option<&Path>,
) -> Result<(), Box<dyn Error>> {
    let nodes = spec.nodes;
    if let Some(path) = traffic_path {
        spec = spec.with_traffic(magus_suite::workloads::io::load_traffic_spec(path)?);
    }
    // Only a `--telemetry` path reads the event streams, so only it arms
    // the fleet.
    let (run, jsonl) = match telemetry_path {
        Some(_) => run_fleet_with_telemetry(&spec),
        None => (run_fleet(&spec), String::new()),
    };
    println!(
        "fleet of {nodes}: {} completed, {:.0} J, makespan {:.2} s ({} decisions)",
        run.summary.completed, run.summary.total_j, run.summary.makespan_s, run.summary.decisions
    );
    if spec.traffic.is_some() {
        let s = &run.summary;
        let tenant_total: f64 = s.tenant_energy_j.iter().map(|(_, j)| j).sum();
        println!(
            "traffic: {} deadline job(s), {} missed; {} tenant(s), {:.0} J attributed",
            s.deadline_jobs,
            s.deadline_misses,
            s.tenant_energy_j.len(),
            tenant_total
        );
    }
    if let Some(path) = telemetry_path {
        write_file(path, &jsonl)?;
        // One epoch ran: the .prom sibling matches the daemon's /metrics
        // after a single advance of the same fleet.
        write_file(
            &path.with_extension("prom"),
            &fleet_prometheus(1, Some(&run.summary)),
        )?;
        eprintln!(
            "[fleet] telemetry written to {} (+ {})",
            path.display(),
            path.with_extension("prom").display()
        );
    }
    if let Some(path) = summary_path {
        write_file(path, &summary_json(&run.summary)?)?;
    }
    Ok(())
}

fn list() {
    println!("systems:");
    for s in [
        SystemId::IntelA100,
        SystemId::Intel4A100,
        SystemId::IntelMax1550,
    ] {
        let cfg = s.node_config();
        println!(
            "  {:<14} {} sockets x {} cores, uncore {:.1}-{:.1} GHz, {} GPU(s)",
            s.name(),
            cfg.sockets,
            cfg.cpu.cores,
            cfg.uncore.freq_min_ghz,
            cfg.uncore.freq_max_ghz,
            cfg.gpus.len()
        );
    }
    println!("applications:");
    for app in AppId::all() {
        println!("  {app}");
    }
}

fn run(engine: &Engine, system: SystemId, app: AppId, governor: GovernorSpec, json: bool) {
    let mut spec = TrialSpec::new(system, app, governor);
    if json {
        spec = spec.recorded();
    }
    let out = engine.run(&spec);
    let r = out.result;
    if json {
        match serde_json::to_string_pretty(&r) {
            Ok(s) => println!("{s}"),
            Err(e) => eprintln!("serialisation failed: {e}"),
        }
        return;
    }
    println!(
        "{} on {} under {}: runtime {:.2} s ({}), mean CPU {:.1} W, total energy {:.0} J, {} invocations (mean {:.0} ms){}",
        app,
        system.name(),
        r.runtime,
        r.summary.runtime_s,
        if r.summary.completed { "completed" } else { "TRUNCATED" },
        r.summary.mean_cpu_w,
        r.summary.energy.total_j(),
        r.invocations,
        r.mean_invocation_us / 1000.0,
        if out.cached { " [cached]" } else { "" },
    );
}

fn compare(engine: &Engine, system: SystemId, app: AppId) {
    let eval = evaluate_app(engine, system, app);
    println!(
        "{} on {} (baseline {:.1} s, {:.1} W CPU)",
        eval.app,
        system.name(),
        eval.baseline_runtime_s,
        eval.baseline_cpu_w
    );
    for (name, c) in [("MAGUS", eval.magus), ("UPS", eval.ups)] {
        println!(
            "  {name:<6} loss {:>6.2}% | CPU power saving {:>6.2}% | energy saving {:>6.2}%",
            c.perf_loss_pct, c.power_saving_pct, c.energy_saving_pct
        );
    }
}
