//! The control-plane daemon: a long-lived TCP server holding a fleet's
//! members, plus a minimal HTTP listener serving `/metrics`.
//!
//! # Round-boundary membership and the determinism contract
//!
//! The daemon never mutates a running fleet. Joins, leaves, and workload
//! submissions change only its member table (under a short-lived lock),
//! and each [`Request::Advance`] is one **epoch**: at that round boundary
//! the members with a workload are added to a fresh `FleetBuilder` fleet —
//! ascending node-id order, dormant members skipped — which runs to
//! completion exactly as a batch run would. An epoch's `FleetSummary` and
//! telemetry JSONL are therefore bit/byte-identical to building and
//! running the same membership in-process, by construction; the CI system
//! test `diff`s the two on every push.
//!
//! # Threading
//!
//! One accept loop, one thread per connection, plus an optional HTTP
//! thread. Subscribers ([`Request::Subscribe`]) park their connection on a
//! channel the daemon pushes one [`Response::Telemetry`] frame into per
//! epoch. An epoch arms its fleet's telemetry and renders the frame only
//! if a subscriber was registered when it started, and queues one shared
//! frame to all of them. A reply or pushed frame too large for the wire
//! goes out as an `error` frame naming its size, and the connection stays
//! open. Shutdown is graceful by ordering: the handler first waits for any
//! in-flight epoch (so its telemetry is queued), then queues a final
//! [`Response::ShuttingDown`] to every subscriber and drops the senders —
//! each subscriber connection drains its queue fully before its socket
//! closes — and finally wakes the accept loops so `run` can join every
//! connection thread and return.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use magus_experiments::engine::GovernorSpec;
use magus_experiments::fleet::governor_run_opts;
use magus_experiments::harness::{StepMode, SystemId};
use magus_hetsim::fleet::{FleetSim, FleetSummary};
use magus_hetsim::workload::AppTrace;
use magus_workloads::app_trace;

use crate::metrics::fleet_prometheus;
use crate::proto::{self, ProtoError, Request, Response, PROTOCOL_VERSION};
use crate::CtlError;

/// Attempts per listener bind before [`serve_fleet`] gives up (loaded CI
/// runners can transiently refuse binds).
const BIND_RETRIES: u32 = 5;

/// Configuration for [`serve_fleet`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Control-socket bind address. Port 0 picks a free port; the chosen
    /// address is reported by [`Server::ctl_addr`].
    pub ctl_addr: String,
    /// HTTP bind address for `/metrics` (`None` disables HTTP).
    pub http_addr: Option<String>,
    /// Governor every fleet node runs.
    pub governor: GovernorSpec,
    /// Per-node simulated-time budget per epoch (s).
    pub budget_s: f64,
    /// Shard count for the fleet kernel.
    pub shards: usize,
    /// Stepping path.
    pub path: StepMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            ctl_addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            governor: GovernorSpec::Default,
            budget_s: 600.0,
            shards: 1,
            path: StepMode::Fast,
        }
    }
}

/// The control plane: the fleet's members plus epoch state. Its locks
/// ignore poisoning, so a connection that panics while holding one cannot
/// wedge the daemon for the others.
pub struct FleetDaemon {
    cfg: ServeConfig,
    members: Mutex<Members>,
    /// Serializes epochs: `Advance` and `Shutdown` both take this first,
    /// so a shutdown always lets an in-flight round finish (and queue its
    /// telemetry) before draining subscribers.
    epoch_lock: Mutex<()>,
    last: Mutex<LastEpoch>,
    subscribers: Mutex<Subscribers>,
    stop: AtomicBool,
}

/// The fleet's members by id, and the id the next join gets: ids ascend
/// and are never reused.
#[derive(Default)]
struct Members {
    next_id: u64,
    by_id: BTreeMap<u64, Member>,
}

/// One member: the preset it joined as, which resolves its submitted
/// workload to a platform trace and gives its node config.
struct Member {
    system: SystemId,
    /// Start offset on the fleet clock (µs).
    start_offset_us: u64,
    /// The submitted workload (`None`: dormant, skipped by every epoch).
    trace: Option<Arc<AppTrace>>,
}

/// The last completed epoch: its number (0 before the first advance) and
/// its summary, written together so a reader never mixes two epochs.
#[derive(Default)]
struct LastEpoch {
    epoch: u64,
    summary: Option<FleetSummary>,
}

impl LastEpoch {
    /// The Prometheus text `/metrics` serves in this state.
    fn prometheus(&self) -> String {
        fleet_prometheus(self.epoch, self.summary.as_ref())
    }
}

/// Telemetry subscribers, and the epoch count that decides which frames
/// each one receives.
#[derive(Default)]
struct Subscribers {
    /// The last epoch that started (its fleet was built).
    started: u64,
    /// Each subscriber's channel, with the last epoch that started before
    /// it subscribed: it receives the frames of later epochs only.
    senders: Vec<(u64, mpsc::Sender<Arc<Response>>)>,
}

/// Lock `mutex`, ignoring poisoning like every daemon lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reply to a request that names a node id with no member.
fn unknown_node(node: u64) -> Response {
    Response::Error {
        message: format!("unknown fleet node id {node}"),
    }
}

impl FleetDaemon {
    /// A daemon in its initial state (no members, epoch 0).
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            members: Mutex::default(),
            epoch_lock: Mutex::new(()),
            last: Mutex::default(),
            subscribers: Mutex::default(),
            stop: AtomicBool::new(false),
        }
    }

    /// Run one epoch at the current round boundary.
    fn advance(&self) -> Response {
        let _epoch = lock(&self.epoch_lock);
        let mut builder = FleetSim::builder(self.cfg.budget_s).shards(self.cfg.shards);
        // Each preset's config is made once per epoch; the lock is
        // released before the build, so members can change while the
        // epoch runs.
        let mut configs = HashMap::new();
        for member in lock(&self.members).by_id.values() {
            let Some(trace) = &member.trace else { continue };
            let config = configs
                .entry(member.system)
                .or_insert_with(|| member.system.node_config());
            builder = builder.node_at(config.clone(), Arc::clone(trace), member.start_offset_us);
        }
        let mut fleet = match builder.build() {
            Ok(fleet) => fleet,
            Err(e) => {
                return Response::Error {
                    message: format!("advance failed: {e}"),
                }
            }
        };
        let (epoch, armed) = self.start_epoch(&mut fleet);
        let summary = fleet.run(&governor_run_opts(&self.cfg.governor, self.cfg.path));
        *lock(&self.last) = LastEpoch {
            epoch,
            summary: Some(summary.clone()),
        };
        if armed {
            let jsonl = magus_experiments::fleet::fleet_telemetry_jsonl(&mut fleet);
            self.broadcast(epoch, Response::Telemetry { epoch, jsonl });
        }
        Response::Advanced {
            epoch,
            nodes: summary.nodes.len() as u64,
            summary,
        }
    }

    /// Start the next epoch on `fleet`: the subscribers registered now are
    /// the only readers of its telemetry, so the fleet is armed only if
    /// there is one. Returns the epoch and whether it is armed.
    fn start_epoch(&self, fleet: &mut FleetSim) -> (u64, bool) {
        let (epoch, armed) = {
            let mut subs = lock(&self.subscribers);
            subs.started += 1;
            (subs.started, !subs.senders.is_empty())
        };
        if armed {
            fleet.arm_telemetry();
        }
        (epoch, armed)
    }

    /// Queue one shared frame to every live subscriber that subscribed
    /// before `epoch` started, pruning closed channels.
    fn broadcast(&self, epoch: u64, message: Response) {
        let frame = Arc::new(message);
        lock(&self.subscribers)
            .senders
            .retain(|(since, tx)| *since >= epoch || tx.send(Arc::clone(&frame)).is_ok());
    }

    /// Accept a shutdown: finish any in-flight epoch, then drain
    /// subscribers (final frame + channel close).
    fn shutdown(&self) -> Response {
        let _epoch = lock(&self.epoch_lock);
        self.stop.store(true, Ordering::SeqCst);
        let mut subs = lock(&self.subscribers);
        let frame = Arc::new(Response::ShuttingDown);
        for (_, tx) in &subs.senders {
            let _ = tx.send(Arc::clone(&frame));
        }
        subs.senders.clear();
        Response::ShuttingDown
    }

    /// Handle one request (everything except `Subscribe`, which is
    /// connection-level). Never panics on any input.
    pub fn handle(&self, req: Request) -> Response {
        if let Err(message) = req.validate() {
            return Response::Error { message };
        }
        match req {
            Request::Hello { protocol } => {
                if protocol == PROTOCOL_VERSION {
                    Response::HelloOk {
                        protocol: PROTOCOL_VERSION,
                        server: concat!("magus-ctl/", env!("CARGO_PKG_VERSION")).to_string(),
                    }
                } else {
                    Response::Error {
                        message: format!(
                            "unsupported protocol {protocol} (server speaks {PROTOCOL_VERSION})"
                        ),
                    }
                }
            }
            Request::JoinNode {
                system,
                count,
                start_offset_us,
            } => {
                let mut members = lock(&self.members);
                let nodes = (0..count)
                    .map(|_| {
                        let id = members.next_id;
                        members.next_id += 1;
                        let member = Member {
                            system,
                            start_offset_us,
                            trace: None,
                        };
                        members.by_id.insert(id, member);
                        id
                    })
                    .collect();
                Response::Joined { nodes }
            }
            Request::LeaveNode { node } => match lock(&self.members).by_id.remove(&node) {
                Some(_) => Response::Left { node },
                None => unknown_node(node),
            },
            Request::SubmitWorkload { node, app, traffic } => {
                let mut members = lock(&self.members);
                let Some(member) = members.by_id.get_mut(&node) else {
                    return unknown_node(node);
                };
                let platform = member.system.platform();
                // `validate()` already enforced exactly-one-of; expand the
                // traffic slot addressed by the fleet node id, or intern
                // the catalog app. Traffic deadline/tenant accounting is a
                // batch-engine feature — a member carries its trace only,
                // so daemon epochs report energy but not deadline metrics.
                member.trace = Some(match (app, traffic) {
                    (Some(app), None) => app_trace(app, platform),
                    (None, Some(spec)) => spec.node_profile(platform, node as usize).trace,
                    _ => {
                        return Response::Error {
                            message: "submit_workload needs exactly one of `app` or `traffic`"
                                .into(),
                        };
                    }
                });
                Response::Submitted { node }
            }
            Request::Advance => self.advance(),
            Request::Snapshot => {
                let last = lock(&self.last);
                Response::SnapshotOk {
                    epoch: last.epoch,
                    summary: last.summary.clone(),
                    prometheus: last.prometheus(),
                }
            }
            // The connection loop intercepts Subscribe; reaching here
            // means a caller bypassed it.
            Request::Subscribe => Response::Error {
                message: "subscribe is connection-level".into(),
            },
            Request::Shutdown => self.shutdown(),
        }
    }

    /// Register a telemetry subscriber: returns the last epoch that
    /// started before it, and the channel the daemon pushes the frames of
    /// every later epoch into. The daemon closes the channel (drops its
    /// sender) only after queueing every pending frame plus a final
    /// [`Response::ShuttingDown`].
    pub fn subscribe(&self) -> (u64, mpsc::Receiver<Arc<Response>>) {
        let (tx, rx) = mpsc::channel();
        let mut subs = lock(&self.subscribers);
        let since = subs.started;
        subs.senders.push((since, tx));
        (since, rx)
    }

    /// True once a shutdown has been accepted.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The Prometheus text `/metrics` serves.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        lock(&self.last).prometheus()
    }
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`; `None` where
/// the proc filesystem is unavailable (off-Linux), so callers report
/// "unavailable" instead of a bogus zero.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
}

/// Bind a listener, retrying transient failures with linear backoff
/// (50 ms × attempt). Port 0 requests never collide, but explicit ports on
/// loaded CI runners can race a previous process's TIME_WAIT socket.
pub fn bind_with_retries(addr: &str, retries: u32) -> Result<TcpListener, CtlError> {
    let mut last = None;
    for attempt in 0..retries.max(1) {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(50 * u64::from(attempt + 1)));
            }
        }
    }
    Err(CtlError::Io(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "bind failed")
    })))
}

/// Dummy-connects to the daemon's own listeners so blocking `accept`
/// calls observe the stop flag and unwind.
struct Waker {
    ctl: SocketAddr,
    http: Option<SocketAddr>,
}

impl Waker {
    fn wake(&self) {
        let _ = TcpStream::connect(self.ctl);
        if let Some(http) = self.http {
            let _ = TcpStream::connect(http);
        }
    }
}

/// A bound (but not yet running) [`FleetDaemon`] server, from
/// [`serve_fleet`].
pub struct Server {
    daemon: Arc<FleetDaemon>,
    listener: TcpListener,
    http: Option<TcpListener>,
}

impl Server {
    /// The bound control-socket address (resolves port 0 to the chosen
    /// port).
    pub fn ctl_addr(&self) -> Result<SocketAddr, CtlError> {
        self.listener.local_addr().map_err(CtlError::Io)
    }

    /// The bound HTTP address, when HTTP is enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serve until a [`Request::Shutdown`] is accepted, then join every
    /// connection thread (so subscriber drains finish before return) and
    /// exit.
    pub fn run(self) -> Result<(), CtlError> {
        let waker = Arc::new(Waker {
            ctl: self.ctl_addr()?,
            http: self.http_addr(),
        });
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        if let Some(http) = self.http {
            let daemon = Arc::clone(&self.daemon);
            workers.push(thread::spawn(move || serve_http(&http, &daemon)));
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.daemon.shutting_down() => break,
                Err(_) => {
                    // Transient accept failure (EMFILE, ...): back off and
                    // keep serving.
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.daemon.shutting_down() {
                break;
            }
            let daemon = Arc::clone(&self.daemon);
            let waker = Arc::clone(&waker);
            workers.push(thread::spawn(move || serve_conn(stream, &daemon, &waker)));
            workers.retain(|w| !w.is_finished());
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Send one reply or pushed frame. A frame over
/// [`MAX_FRAME_BYTES`](proto::MAX_FRAME_BYTES) goes out as an `error`
/// frame naming its size and the limit instead, so the peer is never left
/// waiting, and the connection stays open; only an i/o failure ends it.
fn send(writer: &mut impl Write, frame: &Response) -> Result<(), ProtoError> {
    match proto::write_message(writer, frame) {
        Err(err @ ProtoError::Oversized { .. }) => proto::write_message(
            writer,
            &Response::Error {
                message: format!("frame not sent: {err}"),
            },
        ),
        sent => sent,
    }
}

/// One framed connection: requests in, responses out, until EOF, a framing
/// error, or shutdown. `Subscribe` flips the connection into push mode.
fn serve_conn(stream: TcpStream, daemon: &FleetDaemon, waker: &Waker) {
    // Every frame is one write (`proto::write_frame`); with Nagle off, the
    // last segment of a large reply or pushed telemetry frame goes out
    // without waiting for the client's delayed ACK. Failing to set it only
    // costs latency, so the connection is served either way.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match proto::read_message::<Request>(&mut reader) {
            Ok(Some(req)) => req,
            // Clean EOF: the client is done.
            Ok(None) => return,
            Err(err) => {
                // Framing or validation failure: the stream may be
                // unsynchronized, so report and drop the connection.
                let _ = send(
                    &mut writer,
                    &Response::Error {
                        message: err.to_string(),
                    },
                );
                return;
            }
        };
        if matches!(req, Request::Subscribe) {
            let (epoch, frames) = daemon.subscribe();
            if send(&mut writer, &Response::Subscribed { epoch }).is_err() {
                return;
            }
            // Drain until the daemon closes the channel (shutdown): every
            // queued frame — including the final ShuttingDown — is written
            // before the socket drops.
            while let Ok(frame) = frames.recv() {
                if send(&mut writer, &frame).is_err() {
                    return;
                }
            }
            return;
        }
        let was_shutdown = matches!(req, Request::Shutdown);
        let sent = send(&mut writer, &daemon.handle(req));
        if was_shutdown || daemon.shutting_down() {
            waker.wake();
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Minimal HTTP/1.1 loop: `GET /metrics` (Prometheus text), `GET /healthz`
/// (liveness), 404 otherwise. One request per connection.
fn serve_http(listener: &TcpListener, daemon: &FleetDaemon) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if daemon.shutting_down() => return,
            Err(_) => {
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if daemon.shutting_down() {
            return;
        }
        handle_http(stream, daemon);
    }
}

/// Serve one HTTP exchange (errors are dropped with the connection).
fn handle_http(stream: TcpStream, daemon: &FleetDaemon) {
    // The HTTP loop is serial; a stalled client must not wedge /metrics.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so the peer sees a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok_and(|n| n > 0) && !line.trim().is_empty() {
        line.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            daemon.metrics_text(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    // One write for the whole reply, not one syscall per format piece.
    let reply = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.write_all(reply.as_bytes());
}

/// Bind a [`FleetDaemon`] server from `cfg`: the control socket, and the
/// HTTP socket if requested. Nothing is accepted until [`Server::run`], so
/// the caller decides when to block (after reporting the bound addresses,
/// say).
pub fn serve_fleet(cfg: ServeConfig) -> Result<Server, CtlError> {
    let listener = bind_with_retries(&cfg.ctl_addr, BIND_RETRIES)?;
    let http = match &cfg.http_addr {
        Some(addr) => Some(bind_with_retries(addr, BIND_RETRIES)?),
        None => None,
    };
    Ok(Server {
        daemon: Arc::new(FleetDaemon::new(cfg)),
        listener,
        http,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::TryRecvError;

    use magus_experiments::fleet::{build_fleet, FleetSpec};
    use magus_workloads::AppId;

    use super::*;
    use crate::proto::MAX_FRAME_BYTES;

    fn fleet() -> FleetSim {
        build_fleet(&FleetSpec::new(GovernorSpec::magus_default(), 2))
    }

    fn armed_nodes(fleet: &FleetSim) -> usize {
        (0..fleet.len())
            .filter(|&i| fleet.sim(i).node().telemetry().is_some())
            .count()
    }

    fn frame(epoch: u64) -> Response {
        Response::Telemetry {
            epoch,
            jsonl: format!("{{\"epoch\":{epoch}}}\n"),
        }
    }

    /// A MAGUS daemon with a short budget on two shards.
    fn daemon() -> FleetDaemon {
        FleetDaemon::new(ServeConfig {
            governor: GovernorSpec::magus_default(),
            budget_s: 5.0,
            shards: 2,
            ..ServeConfig::default()
        })
    }

    fn join(daemon: &FleetDaemon, system: SystemId, count: u32, start_offset_us: u64) -> Vec<u64> {
        match daemon.handle(Request::JoinNode {
            system,
            count,
            start_offset_us,
        }) {
            Response::Joined { nodes } => nodes,
            other => panic!("join: {other:?}"),
        }
    }

    fn submit(daemon: &FleetDaemon, node: u64, app: AppId) -> Response {
        daemon.handle(Request::SubmitWorkload {
            node,
            app: Some(app),
            traffic: None,
        })
    }

    fn leave(daemon: &FleetDaemon, node: u64) -> Response {
        daemon.handle(Request::LeaveNode { node })
    }

    fn advance(daemon: &FleetDaemon) -> FleetSummary {
        match daemon.handle(Request::Advance) {
            Response::Advanced { summary, .. } => summary,
            other => panic!("advance: {other:?}"),
        }
    }

    /// Each member's id and whether it has a workload, in id order.
    fn roll(daemon: &FleetDaemon) -> Vec<(u64, bool)> {
        lock(&daemon.members)
            .by_id
            .iter()
            .map(|(id, m)| (*id, m.trace.is_some()))
            .collect()
    }

    #[test]
    fn member_ids_ascend_and_are_never_reused() {
        let daemon = daemon();
        assert_eq!(join(&daemon, SystemId::IntelA100, 2, 0), [0, 1]);
        assert_eq!(leave(&daemon, 1), Response::Left { node: 1 });
        assert_eq!(leave(&daemon, 1), unknown_node(1));
        assert_eq!(join(&daemon, SystemId::AmdMi210, 1, 0), [2]);
        assert_eq!(roll(&daemon), [(0, false), (2, false)]);
    }

    #[test]
    fn requests_for_unknown_ids_are_refused_and_change_nothing() {
        let daemon = daemon();
        join(&daemon, SystemId::IntelA100, 2, 0);
        assert_eq!(
            submit(&daemon, 0, AppId::all()[0]),
            Response::Submitted { node: 0 }
        );
        let before = roll(&daemon);
        assert_eq!(submit(&daemon, 99, AppId::all()[0]), unknown_node(99));
        assert_eq!(leave(&daemon, 99), unknown_node(99));
        assert_eq!(roll(&daemon), before);
    }

    /// Joined members without a workload are left out of the epoch; a
    /// membership with none to run is a typed error that starts no epoch.
    #[test]
    fn dormant_members_are_skipped() {
        let daemon = daemon();
        let ids = join(&daemon, SystemId::IntelA100, 3, 0);
        let refused = daemon.handle(Request::Advance);
        assert!(
            matches!(&refused, Response::Error { message } if message.starts_with("advance failed")),
            "{refused:?}"
        );
        for id in [ids[0], ids[2]] {
            submit(&daemon, id, AppId::all()[1]);
        }
        match daemon.handle(Request::Advance) {
            Response::Advanced { epoch, nodes, .. } => assert_eq!((epoch, nodes), (1, 2)),
            other => panic!("advance: {other:?}"),
        }
    }

    /// The epoch rule: an epoch of a staggered, mixed-preset membership
    /// equals the same nodes added to `FleetBuilder` directly, bit for
    /// bit, and after a leave the next epoch equals the smaller batch.
    #[test]
    fn staggered_epochs_equal_direct_builder_runs() {
        let daemon = daemon();
        let app = AppId::all()[2];
        let nodes = [
            (SystemId::IntelA100, 0),
            (SystemId::AmdMi210, 0),
            (SystemId::IntelA100, 400_000),
            (SystemId::AmdMi210, 800_000),
        ];
        for (system, offset) in nodes {
            let id = join(&daemon, system, 1, offset)[0];
            submit(&daemon, id, app);
        }
        let direct = |nodes: &[(SystemId, u64)]| {
            let cfg = &daemon.cfg;
            let mut builder = FleetSim::builder(cfg.budget_s).shards(cfg.shards);
            for &(system, offset) in nodes {
                builder = builder.node_at(
                    system.node_config(),
                    app_trace(app, system.platform()),
                    offset,
                );
            }
            let mut fleet = builder.build().expect("direct fleet");
            fleet.run(&governor_run_opts(&cfg.governor, cfg.path))
        };
        assert_eq!(advance(&daemon), direct(&nodes));
        assert_eq!(leave(&daemon, 3), Response::Left { node: 3 });
        assert_eq!(advance(&daemon), direct(&nodes[..3]));
    }

    /// A frame one byte over the limit goes out as an `error` frame that
    /// names its size and the limit, and the next frame still goes out.
    #[test]
    fn an_oversized_frame_is_sent_as_an_error_frame() {
        let empty = Response::Telemetry {
            epoch: 1,
            jsonl: String::new(),
        };
        let overhead = serde::to_string(&empty).len();
        let oversized = Response::Telemetry {
            epoch: 1,
            jsonl: "x".repeat(MAX_FRAME_BYTES + 1 - overhead),
        };
        let mut wire = Vec::new();
        send(&mut wire, &oversized).expect("an oversized frame keeps the connection");
        drop(oversized);
        send(&mut wire, &Response::ShuttingDown).expect("a later frame");
        let mut wire = wire.as_slice();
        let read = |wire: &mut &[u8]| proto::read_message::<Response>(wire).expect("a frame");
        assert_eq!(
            read(&mut wire),
            Some(Response::Error {
                message: "frame not sent: oversized frame: 67108865 bytes exceeds the \
                          67108864-byte limit"
                    .into(),
            })
        );
        assert_eq!(read(&mut wire), Some(Response::ShuttingDown));
        assert_eq!(read(&mut wire), None);
    }

    /// An epoch that starts with no subscriber leaves its fleet unarmed
    /// (so it renders nothing); one that starts with a subscriber arms
    /// every node.
    #[test]
    fn epochs_arm_only_when_a_subscriber_is_registered() {
        let daemon = FleetDaemon::new(ServeConfig::default());
        let mut unwatched = fleet();
        assert_eq!(daemon.start_epoch(&mut unwatched), (1, false));
        assert_eq!(armed_nodes(&unwatched), 0);

        let (since, _frames) = daemon.subscribe();
        assert_eq!(since, 1);
        let mut watched = fleet();
        assert_eq!(daemon.start_epoch(&mut watched), (2, true));
        assert_eq!(armed_nodes(&watched), watched.len());
    }

    /// A subscriber registered while an epoch runs names that epoch and
    /// gets none of its frame; the next epoch's frame reaches everyone.
    #[test]
    fn frames_reach_only_subscribers_registered_before_their_epoch() {
        let daemon = FleetDaemon::new(ServeConfig::default());
        let (since, early) = daemon.subscribe();
        assert_eq!(since, 0);
        assert_eq!(daemon.start_epoch(&mut fleet()), (1, true));
        let (since, late) = daemon.subscribe();
        assert_eq!(since, 1);
        daemon.broadcast(1, frame(1));
        assert_eq!(*early.try_recv().expect("epoch 1 frame"), frame(1));
        assert_eq!(late.try_recv(), Err(TryRecvError::Empty));

        assert_eq!(daemon.start_epoch(&mut fleet()), (2, true));
        daemon.broadcast(2, frame(2));
        assert_eq!(*early.try_recv().expect("epoch 2 frame"), frame(2));
        assert_eq!(*late.try_recv().expect("epoch 2 frame"), frame(2));
    }
}
