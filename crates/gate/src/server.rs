//! The socket front door: request deadlines, connection caps, graceful
//! drain, and two interchangeable concurrency models behind one `Gate`.
//!
//! [`ServerMode::Reactor`] (the default) is the event-driven front door
//! the paper models: a small fixed pool of reactor threads, each running
//! a nonblocking readiness loop over many multiplexed connections (see
//! [`crate::reactor`] and DESIGN §12). Connection capacity is bounded by
//! memory, not threads, and GET routes dispatch inline on the reactor
//! thread through the lock-free snapshot path ([`ReadPath::Snapshot`]).
//!
//! [`ServerMode::ThreadPerConn`] is the deliberately boring reference:
//! one OS thread per live connection, blocking reads under
//! [`GateConfig::read_timeout`]. It is kept as a behavioral baseline
//! (the byte-level test suite runs against both) and a comparison point
//! for `perf_baseline`.
//!
//! Both modes share every policy: excess accepts beyond
//! [`GateConfig::max_connections`] are answered `503` and closed, a
//! per-request deadline runs from the first byte of a request head to
//! its response (`408` past it), and writes (telemetry) go through the
//! service's FIFO channel as one batch command each, whose reply comes
//! before the HTTP reply.
//!
//! Graceful shutdown: [`Gate::shutdown`] flips a flag and wakes both
//! kinds of loop (a condvar for the thread-per-connection accept loop, a
//! pipe-based waker per reactor); the gate stops taking connections,
//! responses in flight finish writing (keep-alive answers are demoted to
//! `Connection: close`), idle keep-alive connections close, and the
//! waiter blocks until the live count drains to zero.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cos_ctrl::Controller;
use cos_obs::Registry;
use cos_par::poller::{SyscallCounters, SyscallSnapshot, TriggerMode, Waker};
use cos_serve::ServiceClient;

use crate::http::{ParserLimits, RequestParser, Response};
use crate::obs::GateObs;
use crate::reactor;
use crate::routes::{self, ReadPath};

/// Which concurrency model the gate serves with.
///
/// The default honors the `COS_GATE_MODE` environment variable — `thread`
/// (or `thread-per-conn`) selects [`ServerMode::ThreadPerConn`], anything
/// else the reactor — so the full byte-level test suite can run against
/// either mode without code changes (CI runs both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Event-driven: a fixed pool of reactor threads multiplexing
    /// nonblocking connections over a readiness poller. The default.
    Reactor,
    /// One OS thread per live connection, blocking I/O. The behavioral
    /// reference and perf comparison baseline.
    ThreadPerConn,
}

impl Default for ServerMode {
    fn default() -> Self {
        ServerMode::from_env()
    }
}

impl ServerMode {
    /// Reads the mode from `COS_GATE_MODE` (reactor unless it says
    /// `thread`/`thread-per-conn`).
    pub fn from_env() -> ServerMode {
        match std::env::var("COS_GATE_MODE").as_deref() {
            Ok("thread") | Ok("thread-per-conn") => ServerMode::ThreadPerConn,
            _ => ServerMode::Reactor,
        }
    }
}

/// How accepted connections are distributed across reactor threads.
///
/// Ignored by [`ServerMode::ThreadPerConn`], and by [`Gate::serve`] (an
/// externally bound listener is necessarily shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptMode {
    /// One listener per reactor thread in a `SO_REUSEPORT` group: the
    /// kernel spreads connections across reactors and an accept edge
    /// wakes exactly one thread. The default. Requires [`Gate::bind`] on
    /// Linux with an IPv4 address and more than one reactor thread;
    /// anywhere else the gate silently serves in [`AcceptMode::Shared`]
    /// (check [`Gate::accept_sharded`]). Admission accounting stays
    /// global, so `max_connections`, the over-capacity `503`, and the
    /// lingering-reject protocol are identical in both modes.
    #[default]
    Sharded,
    /// Every reactor polls one shared listener and accepts race (the
    /// losers see `WouldBlock`). Works everywhere.
    Shared,
}

/// Front-door knobs.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum concurrent connections; excess accepts get an immediate
    /// `503` and a close.
    pub max_connections: usize,
    /// Socket read timeout (also the idle keep-alive poll tick).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Deadline from the first byte of a request head to its response; a
    /// slow-trickling request is answered `408` and the connection closed.
    pub request_deadline: Duration,
    /// Parser byte budgets.
    pub limits: ParserLimits,
    /// Instrument registry the gate records into. Share one registry with
    /// [`cos_serve::ServeConfig::obs`] to get gate and service metrics in
    /// a single `GET /metrics` document.
    pub obs: Registry,
    /// Which evaluation path GET routes use: the lock-free snapshot path
    /// (default) or the worker's command channel.
    pub read_path: ReadPath,
    /// Admission controller consulted before routing every request
    /// (`None`, the default, admits everything — behavior is byte-identical
    /// to a gate built before admission control existed). Share the same
    /// `Arc` with a [`cos_ctrl::Ticker`] so the policy keeps adjusting.
    pub controller: Option<Arc<Controller>>,
    /// Concurrency model (reactor by default; see [`ServerMode`]).
    pub server_mode: ServerMode,
    /// Reactor thread count; `0` (the default) means
    /// [`cos_par::default_workers`] — the machine's available
    /// parallelism. Ignored in [`ServerMode::ThreadPerConn`].
    pub reactor_threads: usize,
    /// How the reactors' pollers report readiness (edge-triggered by
    /// default — see DESIGN §15; level-triggered is kept as the
    /// behavioral comparison point for `perf_baseline`). Ignored in
    /// [`ServerMode::ThreadPerConn`].
    pub trigger_mode: TriggerMode,
    /// How accepted connections reach reactor threads (sharded
    /// `SO_REUSEPORT` listeners where the platform allows, by default).
    /// Ignored in [`ServerMode::ThreadPerConn`].
    pub accept_mode: AcceptMode,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_connections: 64,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            limits: ParserLimits::default(),
            obs: Registry::new(),
            read_path: ReadPath::default(),
            controller: None,
            server_mode: ServerMode::default(),
            reactor_threads: 0,
            trigger_mode: TriggerMode::Edge,
            accept_mode: AcceptMode::default(),
        }
    }
}

impl GateConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> GateConfigBuilder {
        GateConfigBuilder {
            config: GateConfig::default(),
        }
    }
}

/// A [`GateConfig`] value the builder refused to produce, with the field
/// and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    /// The offending field, as named on [`GateConfig`].
    pub field: &'static str,
    /// Why the value is nonsensical.
    pub reason: String,
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid GateConfig.{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidConfig {}

/// Builder for [`GateConfig`] that rejects nonsensical values at
/// [`build`](GateConfigBuilder::build) time instead of letting them
/// wedge the accept loop (a zero read timeout would spin; zero parser
/// budgets would reject every request before its first byte).
#[derive(Debug, Clone)]
pub struct GateConfigBuilder {
    config: GateConfig,
}

impl GateConfigBuilder {
    /// Maximum concurrent connections (must be ≥ 1).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.config.max_connections = n;
        self
    }

    /// Socket read timeout (must be non-zero; it is also the poll tick).
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.config.read_timeout = d;
        self
    }

    /// Socket write timeout (must be non-zero).
    pub fn write_timeout(mut self, d: Duration) -> Self {
        self.config.write_timeout = d;
        self
    }

    /// Per-request deadline (must be ≥ the read timeout, else every slow
    /// read tick would already blow the deadline).
    pub fn request_deadline(mut self, d: Duration) -> Self {
        self.config.request_deadline = d;
        self
    }

    /// Parser byte budgets (head budget must fit a minimal request line).
    pub fn limits(mut self, limits: ParserLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Instrument registry the gate records into.
    pub fn obs(mut self, registry: Registry) -> Self {
        self.config.obs = registry;
        self
    }

    /// Which evaluation path GET routes use (snapshot by default).
    pub fn read_path(mut self, path: ReadPath) -> Self {
        self.config.read_path = path;
        self
    }

    /// Admission controller consulted before routing (none by default).
    pub fn controller(mut self, ctrl: Arc<Controller>) -> Self {
        self.config.controller = Some(ctrl);
        self
    }

    /// Concurrency model (reactor by default).
    pub fn server_mode(mut self, mode: ServerMode) -> Self {
        self.config.server_mode = mode;
        self
    }

    /// Reactor thread count (`0` = available parallelism).
    pub fn reactor_threads(mut self, n: usize) -> Self {
        self.config.reactor_threads = n;
        self
    }

    /// Poller trigger mode for the reactors (edge by default).
    pub fn trigger_mode(mut self, mode: TriggerMode) -> Self {
        self.config.trigger_mode = mode;
        self
    }

    /// Accept distribution across reactors (sharded by default).
    pub fn accept_mode(mut self, mode: AcceptMode) -> Self {
        self.config.accept_mode = mode;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<GateConfig, InvalidConfig> {
        let err = |field: &'static str, reason: String| Err(InvalidConfig { field, reason });
        let c = &self.config;
        if c.max_connections == 0 {
            return err("max_connections", "must be at least 1".into());
        }
        if c.read_timeout.is_zero() {
            return err(
                "read_timeout",
                "must be non-zero (it is the poll tick)".into(),
            );
        }
        if c.write_timeout.is_zero() {
            return err("write_timeout", "must be non-zero".into());
        }
        if c.request_deadline < c.read_timeout {
            return err(
                "request_deadline",
                format!(
                    "{:?} is shorter than the read timeout {:?}",
                    c.request_deadline, c.read_timeout
                ),
            );
        }
        // "GET / HTTP/1.1\r\n\r\n" is 18 bytes — the smallest routable head.
        if c.limits.max_head_bytes < 18 {
            return err(
                "limits.max_head_bytes",
                format!("{} cannot fit any request line", c.limits.max_head_bytes),
            );
        }
        Ok(self.config)
    }
}

/// Live-connection accounting shared by the accept path (either mode),
/// the connection owners, and the shutdown waiter.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    active: Mutex<usize>,
    drained: Condvar,
}

impl Shared {
    /// Atomically admits one connection unless `max` are already live.
    /// The check and the increment share the mutex, so two reactor
    /// threads racing on the same freed slot cannot both take it.
    pub(crate) fn try_admit(&self, max: usize) -> bool {
        let mut active = self.active.lock().expect("active lock");
        if *active >= max {
            return false;
        }
        *active += 1;
        true
    }

    pub(crate) fn connection_finished(&self) {
        let mut active = self.active.lock().expect("active lock");
        *active -= 1;
        // Notify on every decrement, not only at zero: besides the drain
        // waiter (which re-checks its predicate anyway), a parked accept
        // loop may be waiting for exactly this freed slot.
        self.drained.notify_all();
    }

    /// Parks the accept loop for at most `timeout`. A finishing
    /// connection or shutdown wakes it immediately; the shutdown check
    /// runs under the mutex, and [`Gate::shutdown`] notifies while
    /// holding the same mutex, so the flag cannot be set-and-notified
    /// between the check and the wait (no lost wakeup).
    fn park(&self, timeout: Duration) {
        let guard = self.active.lock().expect("active lock");
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _unused = self
            .drained
            .wait_timeout(guard, timeout)
            .expect("park wait");
    }
}

/// A running front door. Dropping it shuts down gracefully.
pub struct Gate {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept-loop thread (thread-per-connection mode only).
    accept_join: Option<JoinHandle<()>>,
    /// Reactor threads and their wakers (reactor mode only).
    reactor_joins: Vec<JoinHandle<()>>,
    reactor_wakers: Vec<Waker>,
    /// Each reactor's syscall counters (reactor mode only).
    reactor_counters: Vec<Arc<SyscallCounters>>,
    /// Whether accepts are sharded across per-reactor `SO_REUSEPORT`
    /// listeners (vs every reactor racing on one shared listener).
    accept_sharded: bool,
}

/// `config.reactor_threads` with `0` resolved to the machine default.
fn resolved_reactor_threads(config: &GateConfig) -> usize {
    match config.reactor_threads {
        0 => cos_par::default_workers(),
        n => n,
    }
}

impl Gate {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop, serving `client`'s service.
    ///
    /// In reactor mode with [`AcceptMode::Sharded`] (the default) this
    /// binds one listener per reactor thread in a `SO_REUSEPORT` group
    /// where the platform allows (Linux, IPv4, ≥ 2 reactors), falling
    /// back silently to a shared listener anywhere else.
    pub fn bind(addr: &str, client: ServiceClient, config: GateConfig) -> std::io::Result<Gate> {
        if config.server_mode == ServerMode::Reactor && config.accept_mode == AcceptMode::Sharded {
            let threads = resolved_reactor_threads(&config);
            if threads > 1 {
                if let Ok(listeners) = reuseport::bind_group(addr, threads) {
                    let listeners = listeners.into_iter().map(Arc::new).collect();
                    return Gate::serve_reactors(listeners, true, client, config);
                }
            }
        }
        let listener = TcpListener::bind(addr)?;
        Gate::serve(listener, client, config)
    }

    /// Starts serving on an already-bound listener, in the configured
    /// [`ServerMode`]. A single externally bound listener cannot join a
    /// `SO_REUSEPORT` group after the fact, so reactor mode always runs
    /// shared-accept here regardless of [`GateConfig::accept_mode`].
    pub fn serve(
        listener: TcpListener,
        client: ServiceClient,
        config: GateConfig,
    ) -> std::io::Result<Gate> {
        match config.server_mode {
            ServerMode::ThreadPerConn => {
                let addr = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                let shared = Arc::new(Shared {
                    shutdown: AtomicBool::new(false),
                    active: Mutex::new(0),
                    drained: Condvar::new(),
                });
                let obs = GateObs::register(&config.obs);
                let loop_shared = shared.clone();
                let accept_join = std::thread::Builder::new()
                    .name("cos-gate-accept".into())
                    .spawn(move || accept_loop(listener, client, config, obs, loop_shared))
                    .expect("spawn accept thread");
                Ok(Gate {
                    addr,
                    shared,
                    accept_join: Some(accept_join),
                    reactor_joins: Vec::new(),
                    reactor_wakers: Vec::new(),
                    reactor_counters: Vec::new(),
                    accept_sharded: false,
                })
            }
            ServerMode::Reactor => {
                let threads = resolved_reactor_threads(&config);
                let listener = Arc::new(listener);
                let listeners = vec![listener; threads];
                Gate::serve_reactors(listeners, false, client, config)
            }
        }
    }

    /// Spawns one reactor per listener (distinct listeners when sharded,
    /// clones of one `Arc` when shared) over one global [`Shared`].
    fn serve_reactors(
        listeners: Vec<Arc<TcpListener>>,
        sharded: bool,
        client: ServiceClient,
        config: GateConfig,
    ) -> std::io::Result<Gate> {
        let addr = listeners[0].local_addr()?;
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            drained: Condvar::new(),
        });
        let obs = GateObs::register(&config.obs);
        let spawned = reactor::spawn(listeners, client, config, obs, shared.clone())?;
        Ok(Gate {
            addr,
            shared,
            accept_join: None,
            reactor_joins: spawned.joins,
            reactor_wakers: spawned.wakers,
            reactor_counters: spawned.counters,
            accept_sharded: sharded,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether accepts are sharded across per-reactor `SO_REUSEPORT`
    /// listeners (always `false` in thread-per-connection mode and for
    /// [`Gate::serve`] on an external listener).
    pub fn accept_sharded(&self) -> bool {
        self.accept_sharded
    }

    /// Total syscalls made by the reactor threads so far (waits, interest
    /// updates, reads, writes, accepts), aggregated across threads. Diff
    /// two snapshots with [`SyscallSnapshot::since`] to cost a traffic
    /// window; always zero in thread-per-connection mode, which is
    /// uninstrumented. Monotonic, safe to call while serving.
    pub fn syscalls(&self) -> SyscallSnapshot {
        self.reactor_counters
            .iter()
            .map(|c| c.snapshot())
            .fold(SyscallSnapshot::default(), |acc, s| acc + s)
    }

    /// Stops accepting, drains in-flight responses, and joins every
    /// connection thread before returning.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Wake a parked accept loop right away (see `Shared::park` for
            // why the notify happens under the mutex).
            let _guard = self.shared.active.lock().expect("active lock");
            self.shared.drained.notify_all();
        }
        // Wake every reactor out of its poll wait so it sees the flag.
        for waker in &self.reactor_wakers {
            waker.wake();
        }
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        // Reactors drain their own connections before exiting; joining
        // them closes the last `Arc` of the listener, freeing the port.
        for join in self.reactor_joins.drain(..) {
            let _ = join.join();
        }
        self.reactor_wakers.clear();
        let guard = self.shared.active.lock().expect("active lock");
        let _unused = self
            .shared
            .drained
            .wait_while(guard, |active| *active > 0)
            .expect("drain wait");
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        if self.accept_join.is_some() || !self.reactor_joins.is_empty() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    client: ServiceClient,
    config: GateConfig,
    obs: GateObs,
    shared: Arc<Shared>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if !shared.try_admit(config.max_connections) {
                    reject_over_capacity(stream, &config);
                    continue;
                }
                let conn_client = client.clone();
                let conn_config = config.clone();
                let conn_obs = obs.clone();
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("cos-gate-conn".into())
                    .spawn(move || {
                        serve_connection(
                            stream,
                            &conn_client,
                            &conn_config,
                            &conn_obs,
                            &conn_shared,
                        );
                        conn_shared.connection_finished();
                    });
                if spawned.is_err() {
                    shared.connection_finished();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                shared.park(Duration::from_millis(5));
            }
            Err(_) => shared.park(Duration::from_millis(5)),
        }
    }
}

/// Best-effort `503` for an accept beyond the connection cap (both
/// modes send these exact bytes). The freshly accepted socket is still
/// blocking and its send buffer empty, so the write completes without
/// stalling the caller; the write timeout bounds the pathological case.
pub(crate) fn reject_over_capacity(mut stream: TcpStream, config: &GateConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut out = Vec::new();
    Response::error(503, "connection limit reached").write_to(&mut out, false);
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes `response`, returning whether the connection may persist.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let keep = keep_alive && !response.close;
    let mut out = Vec::with_capacity(256 + response.body.len());
    response.write_to(&mut out, keep);
    stream.write_all(&out)?;
    Ok(keep)
}

fn serve_connection(
    mut stream: TcpStream,
    client: &ServiceClient,
    config: &GateConfig,
    obs: &GateObs,
    shared: &Shared,
) {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(config.limits);
    // The deadline clock of the request currently being parsed: armed at
    // the first byte after a request boundary, cleared when it completes.
    let mut request_started: Option<Instant> = None;
    let mut chunk = [0u8; 8 * 1024];
    loop {
        // Drain every complete request already buffered (pipelining).
        loop {
            let parse_begin = Instant::now();
            match parser.next_request() {
                Ok(Some(request)) => {
                    obs.parse.record_duration(parse_begin.elapsed());
                    // End-to-end latency runs from the request's first byte
                    // on the wire; a pipelined request whose bytes rode in
                    // on an earlier read starts at its own parse instead.
                    let started = request_started.take().unwrap_or(parse_begin);
                    let draining = shared.shutdown.load(Ordering::SeqCst);
                    let dispatch_span = obs.dispatch.start_span();
                    let response = routes::handle_ctrl(
                        client,
                        Some(obs),
                        config.read_path,
                        config.controller.as_deref(),
                        &request,
                    );
                    dispatch_span.stop();
                    let keep = request.keep_alive() && !draining;
                    let written = write_response(&mut stream, &response, keep);
                    obs.request_hist(request.path())
                        .record_duration(started.elapsed());
                    obs.requests_total.inc();
                    match written {
                        Ok(true) => {}
                        _ => return, // close requested, or the peer is gone
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is untrustworthy: answer the mapped status
                    // and close.
                    obs.parse_errors_total.inc();
                    let response = Response::error(e.status(), e.reason());
                    let _ = write_response(&mut stream, &response, false);
                    return;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) && !parser.has_partial() {
            return; // idle keep-alive connection during drain
        }
        if let Some(started) = request_started {
            if started.elapsed() >= config.request_deadline {
                let response = Response::error(408, "request deadline exceeded");
                let _ = write_response(&mut stream, &response, false);
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. Mid-request (e.g. a Content-Length the peer never
                // honored) the truncation is answered 400 in case the
                // peer only shut down its write half.
                if parser.has_partial() {
                    let response = Response::error(400, "connection closed mid-request");
                    let _ = write_response(&mut stream, &response, false);
                }
                return;
            }
            Ok(n) => {
                if request_started.is_none() {
                    request_started = Some(Instant::now());
                }
                parser.feed(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle tick: re-check shutdown and the request deadline.
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Raw-syscall construction of a `SO_REUSEPORT` listener group (the
/// workspace is std-only, and `std::net` exposes no socket options, so
/// the sockets are built against `extern "C"` prototypes of the libc the
/// binary already links — same convention as `cos_par::poller`). Linux
/// and IPv4 only; every caller must treat an `Err` as "shard elsewhere",
/// not a fatal bind failure.
#[cfg(target_os = "linux")]
mod reuseport {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
    use std::os::fd::{FromRawFd, OwnedFd};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    /// Matches std's `TcpListener::bind` backlog.
    const BACKLOG: c_int = 128;

    /// `struct sockaddr_in`: family, then port and address in network
    /// byte order, padded to `sizeof(struct sockaddr)`.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockAddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// One listening socket with `SO_REUSEPORT` (and `SO_REUSEADDR`) set
    /// *before* bind — the kernel only admits a socket into a reuseport
    /// group if the flag is set at bind time.
    fn bind_one(ip: [u8; 4], port: u16) -> io::Result<TcpListener> {
        // SAFETY: plain syscalls on owned values; the fd is wrapped in an
        // OwnedFd immediately so every error path below closes it.
        let fd = check(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        let one: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: optval points at a live c_int of the stated length.
            check(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&one as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            })?;
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: u32::from_be_bytes(ip).to_be(),
            zero: [0; 8],
        };
        // SAFETY: `sa` is a properly initialized sockaddr_in of the
        // stated length.
        check(unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) })?;
        check(unsafe { listen(fd, BACKLOG) })?;
        Ok(TcpListener::from(owned))
    }

    /// Binds `count` listeners on the same address as one `SO_REUSEPORT`
    /// group. The first bind may take an ephemeral port (`:0`); the rest
    /// join it at the resolved port.
    pub(super) fn bind_group(addr: &str, count: usize) -> io::Result<Vec<TcpListener>> {
        let v4 = addr
            .to_socket_addrs()?
            .find_map(|a| match a {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "sharded accept requires an IPv4 address",
                )
            })?;
        let ip = v4.ip().octets();
        let first = bind_one(ip, v4.port())?;
        let port = first.local_addr()?.port();
        let mut group = Vec::with_capacity(count);
        group.push(first);
        for _ in 1..count {
            group.push(bind_one(ip, port)?);
        }
        Ok(group)
    }
}

/// Non-Linux fallback: sharded accept is unavailable, so `Gate::bind`
/// always takes the shared-listener path.
#[cfg(not(target_os = "linux"))]
mod reuseport {
    use std::io;
    use std::net::TcpListener;

    pub(super) fn bind_group(_addr: &str, _count: usize) -> io::Result<Vec<TcpListener>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT sharded accept is Linux-only",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;
    use cos_serve::{CalibrationBase, ServeConfig, ServiceHandle, SlaService};

    fn spawn_service() -> ServiceHandle {
        let base = CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices: 2,
            processes_per_device: 1,
            frontend_processes: 3,
        };
        SlaService::new(base, ServeConfig::default()).spawn()
    }

    fn quick_config() -> GateConfig {
        GateConfig {
            read_timeout: Duration::from_millis(50),
            request_deadline: Duration::from_millis(400),
            ..GateConfig::default()
        }
    }

    /// Both concurrency models, so every policy test below runs against
    /// each regardless of the `COS_GATE_MODE` environment.
    const BOTH_MODES: [ServerMode; 2] = [ServerMode::Reactor, ServerMode::ThreadPerConn];

    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("write");
        stream.shutdown(Shutdown::Write).expect("half close");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_status_over_a_real_socket() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let reply = roundtrip(
            gate.local_addr(),
            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"epoch\":null"), "{reply}");
        gate.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let mut stream = TcpStream::connect(gate.local_addr()).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: gate\r\n\r\n")
                .unwrap();
            let reply = read_one_response(&mut stream);
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
            assert!(reply.contains("Connection: keep-alive"), "{reply}");
        }
        drop(stream);
        gate.shutdown();
    }

    /// Reads exactly one response (headers + Content-Length body) off a
    /// keep-alive connection.
    pub(crate) fn read_one_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(head_end) = find_double_crlf(&buf) {
                let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
                let content_length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map(|v| v.trim().parse().expect("content-length"))
                    .unwrap_or(0);
                while buf.len() < head_end + content_length {
                    let n = stream.read(&mut chunk).expect("read body");
                    assert!(n > 0, "EOF mid-body");
                    buf.extend_from_slice(&chunk[..n]);
                }
                return String::from_utf8_lossy(&buf[..head_end + content_length]).to_string();
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "EOF before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn find_double_crlf(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }

    #[test]
    fn socket_requests_record_into_the_shared_registry() {
        let service = spawn_service();
        let config = quick_config();
        let registry = config.obs.clone();
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        for _ in 0..2 {
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
            );
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        }
        // A framing error bumps the parse-error counter.
        let reply = roundtrip(gate.local_addr(), b"BOGUS /x JUNK\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 4"), "{reply}");
        gate.shutdown();

        let requests = registry.merged_histogram("cos_gate_request_seconds");
        assert_eq!(requests.count(), 2, "both requests timed");
        assert!(requests.quantile(0.5).unwrap() > 0.0);
        assert!(registry.merged_histogram("cos_gate_parse_seconds").count() >= 2);
        assert!(
            registry
                .merged_histogram("cos_gate_dispatch_seconds")
                .count()
                >= 2
        );
        let text = registry.render();
        assert!(text.contains("cos_gate_requests_total 2"), "{text}");
        assert!(text.contains("cos_gate_parse_errors_total 1"), "{text}");
    }

    #[test]
    fn over_capacity_connections_get_503() {
        let service = spawn_service();
        for mode in BOTH_MODES {
            let config = GateConfig {
                max_connections: 1,
                server_mode: mode,
                ..quick_config()
            };
            let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
            // Hold one connection open mid-request to pin the slot.
            let mut held = TcpStream::connect(gate.local_addr()).unwrap();
            held.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
            );
            assert!(reply.starts_with("HTTP/1.1 503 "), "{mode:?}: {reply}");
            drop(held);
            gate.shutdown();
        }
    }

    /// Saturate the connection cap, release the slots, and require the
    /// accept path to resume serving promptly — across several cycles.
    /// Under thread-per-conn this guards the condvar park against lost
    /// wakeups (accept loop parked while a freed slot's notify slipped
    /// past it); under the reactor it asserts the equivalent backpressure
    /// contract: freed capacity is noticed via readiness events, with no
    /// parked thread to lose a wakeup in the first place.
    #[test]
    fn released_slots_resume_accepts_without_lost_wakeups() {
        let service = spawn_service();
        for mode in BOTH_MODES {
            let config = GateConfig {
                max_connections: 2,
                server_mode: mode,
                ..quick_config()
            };
            let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
            for cycle in 0..3 {
                // Pin both slots with half-sent requests.
                let mut held = Vec::new();
                for _ in 0..2 {
                    let mut s = TcpStream::connect(gate.local_addr()).unwrap();
                    s.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(100));
                let reply = roundtrip(
                    gate.local_addr(),
                    b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
                );
                assert!(
                    reply.starts_with("HTTP/1.1 503 "),
                    "{mode:?} cycle {cycle}: saturated gate must refuse: {reply}"
                );
                // Release both slots; the accept path must pick up the
                // freed capacity promptly, not hang on a missed notify.
                drop(held);
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let reply = roundtrip(
                        gate.local_addr(),
                        b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
                    );
                    if reply.starts_with("HTTP/1.1 200 ") {
                        break;
                    }
                    assert!(
                        reply.starts_with("HTTP/1.1 503 "),
                        "{mode:?} cycle {cycle}: unexpected reply {reply}"
                    );
                    assert!(
                        Instant::now() < deadline,
                        "{mode:?} cycle {cycle}: accept path never resumed after slots freed"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            gate.shutdown();
        }
    }

    #[test]
    fn slow_trickle_request_hits_the_deadline() {
        let service = spawn_service();
        for mode in BOTH_MODES {
            let config = GateConfig {
                server_mode: mode,
                ..quick_config()
            };
            let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
            let mut stream = TcpStream::connect(gate.local_addr()).unwrap();
            stream.write_all(b"GET /v1/sta").unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408 "), "{mode:?}: {reply}");
            gate.shutdown();
        }
    }

    #[test]
    fn shutdown_drains_and_unbinds() {
        let service = spawn_service();
        for mode in BOTH_MODES {
            let config = GateConfig {
                server_mode: mode,
                ..quick_config()
            };
            let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
            let addr = gate.local_addr();
            // An idle keep-alive connection must not wedge the drain.
            let idle = TcpStream::connect(addr).unwrap();
            gate.shutdown();
            drop(idle);
            // The port stops accepting once the gate is gone.
            std::thread::sleep(Duration::from_millis(20));
            let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            assert!(
                refused.is_err(),
                "{mode:?}: listener must be closed after shutdown"
            );
        }
    }

    #[test]
    fn builder_accepts_defaults_and_rejects_nonsense() {
        let built = GateConfig::builder().build().unwrap();
        assert_eq!(built.max_connections, GateConfig::default().max_connections);

        let tweaked = GateConfig::builder()
            .max_connections(8)
            .read_timeout(Duration::from_millis(50))
            .request_deadline(Duration::from_secs(1))
            .build()
            .unwrap();
        assert_eq!(tweaked.max_connections, 8);
        assert_eq!(tweaked.read_timeout, Duration::from_millis(50));

        let no_conns = GateConfig::builder()
            .max_connections(0)
            .build()
            .unwrap_err();
        assert_eq!(no_conns.field, "max_connections");
        assert!(no_conns.to_string().contains("GateConfig.max_connections"));

        let zero_read = GateConfig::builder()
            .read_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(zero_read.field, "read_timeout");

        let zero_write = GateConfig::builder()
            .write_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(zero_write.field, "write_timeout");

        let tight_deadline = GateConfig::builder()
            .read_timeout(Duration::from_secs(2))
            .request_deadline(Duration::from_secs(1))
            .build()
            .unwrap_err();
        assert_eq!(tight_deadline.field, "request_deadline");

        let tiny_head = GateConfig::builder()
            .limits(ParserLimits {
                max_head_bytes: 4,
                max_body_bytes: 1024,
            })
            .build()
            .unwrap_err();
        assert_eq!(tiny_head.field, "limits.max_head_bytes");
    }

    #[test]
    fn builder_selects_mode_and_reactor_threads() {
        let built = GateConfig::builder()
            .server_mode(ServerMode::ThreadPerConn)
            .reactor_threads(3)
            .trigger_mode(TriggerMode::Level)
            .accept_mode(AcceptMode::Shared)
            .build()
            .unwrap();
        assert_eq!(built.server_mode, ServerMode::ThreadPerConn);
        assert_eq!(built.reactor_threads, 3);
        assert_eq!(built.trigger_mode, TriggerMode::Level);
        assert_eq!(built.accept_mode, AcceptMode::Shared);
        // reactor_threads = 0 means "auto" and is valid; edge-triggered
        // sharded accept is the default.
        assert_eq!(GateConfig::default().reactor_threads, 0);
        assert_eq!(GateConfig::default().trigger_mode, TriggerMode::Edge);
        assert_eq!(GateConfig::default().accept_mode, AcceptMode::Sharded);
    }

    /// `Gate::bind` in reactor mode shards accepts across a
    /// `SO_REUSEPORT` listener group on Linux, and the sharded gate
    /// serves the same bytes as the shared one. Elsewhere the same
    /// config silently falls back to shared accept.
    #[test]
    fn sharded_accept_serves_and_reports_its_mode() {
        let service = spawn_service();
        let config = GateConfig {
            server_mode: ServerMode::Reactor,
            reactor_threads: 2,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        assert_eq!(gate.accept_sharded(), cfg!(target_os = "linux"));
        // Connections land on kernel-chosen shards; all must serve.
        for i in 0..8 {
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
            );
            assert!(
                reply.starts_with("HTTP/1.1 200 OK\r\n"),
                "conn {i}: {reply}"
            );
        }
        gate.shutdown();
    }

    /// An externally bound listener cannot join a reuseport group, so
    /// `Gate::serve` always runs shared accept; and reactor syscall
    /// counters aggregate into a nonzero, monotonic snapshot.
    #[test]
    fn serve_on_external_listener_is_shared_and_counts_syscalls() {
        let service = spawn_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = GateConfig {
            server_mode: ServerMode::Reactor,
            reactor_threads: 2,
            ..quick_config()
        };
        let gate = Gate::serve(listener, service.client(), config).unwrap();
        assert!(!gate.accept_sharded());
        let before = gate.syscalls();
        let reply = roundtrip(
            gate.local_addr(),
            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        let spent = gate.syscalls().since(&before);
        assert!(spent.accepts >= 1, "accept counted: {spent:?}");
        assert!(spent.reads >= 1, "reads counted: {spent:?}");
        assert!(spent.writevs >= 1, "response flush counted: {spent:?}");
        assert!(spent.waits >= 1, "poll waits counted: {spent:?}");
        gate.shutdown();
    }

    /// A single-threaded reactor multiplexes many concurrent in-flight
    /// requests — the scaling property the thread-per-connection model
    /// cannot have.
    #[test]
    fn one_reactor_thread_serves_many_interleaved_connections() {
        let service = spawn_service();
        let config = GateConfig {
            server_mode: ServerMode::Reactor,
            reactor_threads: 1,
            max_connections: 32,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        // Open all connections first, half-send on each, then finish each
        // request: every connection is mid-request simultaneously on the
        // one reactor thread.
        let mut streams: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(gate.local_addr()).unwrap())
            .collect();
        for s in &mut streams {
            s.write_all(b"GET /v1/status HTTP/1.1\r\nHost: gate")
                .unwrap();
        }
        for s in &mut streams {
            s.write_all(b"\r\nConnection: close\r\n\r\n").unwrap();
        }
        for (i, s) in streams.iter_mut().enumerate() {
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(
                reply.starts_with("HTTP/1.1 200 OK\r\n"),
                "conn {i}: {reply}"
            );
        }
        gate.shutdown();
    }
}
