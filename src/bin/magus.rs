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
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
fn finish(engine: &Engine, label: &str, opts: &EngineOpts) -> Result<(), String> {
    engine.finish(label);
    if let Some(path) = &opts.telemetry {
        engine
            .write_telemetry(path)
            .map_err(|e| format!("telemetry write failed: {e}"))?;
        eprintln!(
            "[engine] telemetry written to {} (+ {})",
            path.display(),
            path.with_extension("prom").display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match cli(&mut io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed stdout early (`magus list | head -1`) has
        // read all it wanted.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the command line, writing its output to `out` (std's stdout, which
/// is line-buffered, so a harness reading a pipe sees each line at once).
fn cli(out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        command,
        engine: opts,
    } = parse(&args).map_err(|e| format!("{e}\n\n{}", usage()))?;
    // Built before any command runs, so a bad `--faults` file fails every
    // command up front. `run --json` prints each trial's events and node
    // counters, so it is a telemetry sink.
    let engine = opts.build_engine()?;
    let engine = if matches!(command, Command::Run { json: true, .. }) {
        engine.with_telemetry()
    } else {
        engine
    };
    let path = opts.sim_path.unwrap_or_default();
    match command {
        Command::Help => writeln!(out, "{}", usage())?,
        Command::List => list(out)?,
        Command::Run {
            system,
            app,
            governor,
            json,
        } => {
            run(out, &engine, system, app, governor, json)?;
            finish(&engine, "run", &opts)?;
        }
        Command::Compare { system, app } => {
            compare(out, &engine, system, app)?;
            finish(&engine, "compare", &opts)?;
        }
        Command::Suite { system } => {
            let rows = fig4(&engine, system);
            write!(out, "{}", render_fig4_table(system.name(), &rows))?;
            finish(&engine, "suite", &opts)?;
        }
        Command::Figure { name } => {
            let render = figure(name).expect("the parser accepts only table names");
            write!(out, "{}", render(&engine))?;
            finish(&engine, name, &opts)?;
        }
        Command::Serve {
            addr,
            http,
            governor,
            budget_s,
            shards,
        } => serve(
            out,
            ServeConfig {
                ctl_addr: addr,
                http_addr: http,
                governor,
                budget_s,
                shards,
                path,
                ..ServeConfig::default()
            },
        )?,
        Command::Ctl { addr, action } => run_ctl(out, &addr, action)?,
        Command::Fleet {
            nodes,
            system,
            governor,
            budget_s,
            shards,
            summary,
            traffic,
        } => {
            // The plan `--faults` named, loaded and validated once, with
            // the engine.
            let spec = FleetSpec {
                system,
                max_s: budget_s,
                shards,
                path,
                faults: engine.faults().copied(),
                ..FleetSpec::new(governor, nodes)
            };
            fleet(
                out,
                spec,
                summary.as_deref(),
                traffic.as_deref(),
                opts.telemetry.as_deref(),
            )?;
        }
    }
    Ok(())
}

/// Boot the control-plane daemon and block until shutdown. The bound
/// addresses go to `out` as `CTL_ADDR=`/`HTTP_ADDR=` lines.
fn serve(out: &mut impl Write, cfg: ServeConfig) -> Result<(), Box<dyn Error>> {
    let server = serve_fleet(cfg)?;
    writeln!(out, "CTL_ADDR={}", server.ctl_addr()?)?;
    if let Some(addr) = server.http_addr() {
        writeln!(out, "HTTP_ADDR={addr}")?;
    }
    let result = server.run();
    if let Some(kb) = peak_rss_kb() {
        eprintln!("[serve] peak RSS {kb} kB");
    }
    Ok(result?)
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
fn run_ctl(out: &mut impl Write, addr: &str, action: CtlAction) -> Result<(), Box<dyn Error>> {
    match action {
        CtlAction::Join {
            system,
            count,
            start_offset_us,
        } => {
            let nodes = CtlClient::connect(addr)?.join(system, count, start_offset_us)?;
            match (nodes.first(), nodes.last()) {
                (Some(first), Some(last)) if nodes.len() > 1 => {
                    writeln!(out, "joined nodes {first}..={last}")?;
                }
                (Some(first), _) => writeln!(out, "joined node {first}")?,
                _ => writeln!(out, "joined 0 nodes")?,
            }
        }
        CtlAction::Submit { node, app, traffic } => match (app, traffic) {
            (Some(app), None) => {
                CtlClient::connect(addr)?.submit(node, app)?;
                writeln!(out, "submitted {app} on node {node}")?;
            }
            (None, Some(path)) => {
                let spec = magus_suite::workloads::io::load_traffic_spec(&path)?;
                CtlClient::connect(addr)?.submit_traffic(node, spec)?;
                writeln!(
                    out,
                    "submitted traffic slot (seed {}, {} tenant(s)) on node {node}",
                    spec.seed, spec.tenants
                )?;
            }
            // The parser enforces exactly-one-of; this arm is unreachable
            // from the command line.
            _ => return Err("submit requires exactly one of --app / --traffic".into()),
        },
        CtlAction::Leave { node } => {
            CtlClient::connect(addr)?.leave(node)?;
            writeln!(out, "node {node} left")?;
        }
        CtlAction::Advance => {
            let (epoch, summary) = CtlClient::connect(addr)?.advance()?;
            writeln!(
                out,
                "epoch {epoch}: {} node(s), {} completed, {:.0} J, makespan {:.2} s",
                summary.nodes.len(),
                summary.completed,
                summary.total_j,
                summary.makespan_s
            )?;
        }
        CtlAction::Snapshot => {
            let snap = CtlClient::connect(addr)?.snapshot()?;
            eprintln!("[ctl] epoch {}", snap.epoch);
            match &snap.summary {
                Some(summary) => write!(out, "{}", summary_json(summary)?)?,
                None => writeln!(out, "null")?,
            }
        }
        CtlAction::Metrics => {
            write!(out, "{}", CtlClient::connect(addr)?.snapshot()?.prometheus)?;
        }
        CtlAction::Watch => {
            let mut sub = CtlClient::connect(addr)?.subscribe()?;
            eprintln!("[ctl] subscribed at epoch {}", sub.since_epoch);
            while let Some(event) = sub.next_event()? {
                match event {
                    SubEvent::Telemetry { epoch, jsonl } => {
                        eprintln!("[ctl] epoch {epoch}");
                        write!(out, "{jsonl}")?;
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
    out: &mut impl Write,
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
    writeln!(
        out,
        "fleet of {nodes}: {} completed, {:.0} J, makespan {:.2} s ({} decisions)",
        run.summary.completed, run.summary.total_j, run.summary.makespan_s, run.summary.decisions
    )?;
    if spec.traffic.is_some() {
        let s = &run.summary;
        let tenant_total: f64 = s.tenant_energy_j.iter().map(|(_, j)| j).sum();
        writeln!(
            out,
            "traffic: {} deadline job(s), {} missed; {} tenant(s), {:.0} J attributed",
            s.deadline_jobs,
            s.deadline_misses,
            s.tenant_energy_j.len(),
            tenant_total
        )?;
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

fn list(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "systems:")?;
    for s in [
        SystemId::IntelA100,
        SystemId::Intel4A100,
        SystemId::IntelMax1550,
        SystemId::AmdMi210,
    ] {
        let cfg = s.node_config();
        writeln!(
            out,
            "  {:<14} {} sockets x {} cores, uncore {:.1}-{:.1} GHz, {} GPU(s)",
            s.name(),
            cfg.sockets,
            cfg.cpu.cores,
            cfg.uncore.freq_min_ghz,
            cfg.uncore.freq_max_ghz,
            cfg.gpus.len()
        )?;
    }
    writeln!(out, "applications:")?;
    for app in AppId::all() {
        writeln!(out, "  {app}")?;
    }
    Ok(())
}

fn run(
    out: &mut impl Write,
    engine: &Engine,
    system: SystemId,
    app: AppId,
    governor: GovernorSpec,
    json: bool,
) -> Result<(), Box<dyn Error>> {
    let mut spec = TrialSpec::new(system, app, governor);
    if json {
        spec = spec.recorded();
    }
    let outcome = engine.run(&spec);
    let r = outcome.result;
    if json {
        writeln!(out, "{}", serde_json::to_string_pretty(&r)?)?;
        return Ok(());
    }
    writeln!(
        out,
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
        if outcome.cached { " [cached]" } else { "" },
    )?;
    Ok(())
}

fn compare(out: &mut impl Write, engine: &Engine, system: SystemId, app: AppId) -> io::Result<()> {
    let eval = evaluate_app(engine, system, app);
    writeln!(
        out,
        "{} on {} (baseline {:.1} s, {:.1} W CPU)",
        eval.app,
        system.name(),
        eval.baseline_runtime_s,
        eval.baseline_cpu_w
    )?;
    for (name, c) in [("MAGUS", eval.magus), ("UPS", eval.ups)] {
        writeln!(
            out,
            "  {name:<6} loss {:>6.2}% | CPU power saving {:>6.2}% | energy saving {:>6.2}%",
            c.perf_loss_pct, c.power_saving_pct, c.energy_saving_pct
        )?;
    }
    Ok(())
}
