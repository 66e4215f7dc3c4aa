//! The socket front door: request deadlines, connection caps, and a
//! graceful drain around the reactor pool of [`crate::reactor`].
//!
//! A small fixed pool of reactor threads takes connections from one
//! shared listener and runs a nonblocking, level-triggered readiness loop
//! over many multiplexed connections (DESIGN §12). Connection capacity is
//! bounded by memory, not threads, and every route dispatches inline on
//! the reactor thread: GETs through the snapshot read path, off the
//! writer lock, telemetry POSTs under the service's writer lock.
//!
//! Policies: excess accepts beyond [`GateConfig::max_connections`] are
//! answered `503` and closed, a per-request deadline runs from the first
//! byte of a request head to its response (`408` past it), and a write
//! (a telemetry POST) ingests its whole batch under one hold of the
//! service's writer lock before the HTTP reply goes out.
//!
//! Graceful shutdown: [`Gate::shutdown`] flips a flag and fires every
//! reactor's waker; the gate stops taking connections,
//! responses in flight finish writing (keep-alive answers are demoted to
//! `Connection: close`), idle keep-alive connections close, and the caller
//! blocks until every reactor has closed its last connection and exited.
//!
//! Readiness comes from epoll on Linux and from `poll(2)` on other Unix
//! targets, chosen by `cfg` ([`Backend::default_for_platform`]).

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cos_ctrl::Controller;
use cos_obs::Registry;
use cos_par::poller::{Backend, SyscallCounters, SyscallSnapshot, Waker};
use cos_serve::ServiceClient;

use crate::http::{ParserLimits, Response};
use crate::obs::GateObs;
use crate::reactor;

/// Front-door knobs, built as a struct literal over [`Default`].
/// [`Gate::bind`] and [`Gate::serve`] refuse a value that would wedge the
/// front door before they start (see [`Gate::bind`]'s `# Errors`).
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum concurrent connections; excess accepts get an immediate
    /// `503` and a close.
    pub max_connections: usize,
    /// How long a peer that stops reading may hold a queued response (and
    /// how long an over-capacity `503` lingers for the peer's EOF).
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
    /// Admission controller consulted before routing every request
    /// (`None`, the default, admits everything — behavior is byte-identical
    /// to a gate built before admission control existed). Share the same
    /// `Arc` with a [`cos_ctrl::Ticker`] so the policy keeps adjusting.
    pub controller: Option<Arc<Controller>>,
    /// Reactor thread count; `0` (the default) means
    /// [`cos_par::default_workers`] — the machine's available
    /// parallelism.
    pub reactor_threads: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_connections: 64,
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            limits: ParserLimits::default(),
            obs: Registry::new(),
            controller: None,
            reactor_threads: 0,
        }
    }
}

/// Refuses a config that would wedge the front door, as
/// [`io::ErrorKind::InvalidInput`] naming the field: no connection slot,
/// a zero write timeout or request deadline (a zero deadline answers every
/// request `408`), or a head budget that cannot fit the smallest request
/// line.
fn check(config: &GateConfig) -> io::Result<()> {
    let invalid = |field: &str, reason: String| {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("GateConfig.{field}: {reason}"),
        ))
    };
    if config.max_connections == 0 {
        return invalid("max_connections", "must be at least 1".into());
    }
    if config.write_timeout.is_zero() {
        return invalid("write_timeout", "must be non-zero".into());
    }
    if config.request_deadline.is_zero() {
        return invalid("request_deadline", "must be non-zero".into());
    }
    // "GET / HTTP/1.1\r\n\r\n" is 18 bytes — the smallest routable head.
    if config.limits.max_head_bytes < 18 {
        return invalid(
            "limits.max_head_bytes",
            format!(
                "{} cannot fit any request line",
                config.limits.max_head_bytes
            ),
        );
    }
    Ok(())
}

/// Live-connection accounting shared by the reactors' accept paths and
/// connection owners.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    active: Mutex<usize>,
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
        *self.active.lock().expect("active lock") -= 1;
    }
}

/// A running front door. Dropping it shuts down gracefully.
pub struct Gate {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_joins: Vec<JoinHandle<()>>,
    reactor_wakers: Vec<Waker>,
    /// Each reactor's syscall counters.
    reactor_counters: Vec<Arc<SyscallCounters>>,
}

impl Gate {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `client`'s service.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`], naming the [`GateConfig`] field,
    /// before anything is bound, for a `max_connections` of 0, a zero
    /// `write_timeout` or `request_deadline`, or a `limits.max_head_bytes`
    /// below the 18 bytes of the smallest request; otherwise any error
    /// binding `addr`.
    pub fn bind(addr: &str, client: ServiceClient, config: GateConfig) -> io::Result<Gate> {
        check(&config)?;
        Gate::serve_on(
            TcpListener::bind(addr)?,
            client,
            config,
            Backend::default_for_platform(),
        )
    }

    /// Starts serving on an already-bound listener.
    ///
    /// # Errors
    /// As [`bind`](Gate::bind): a nonsensical config is refused before
    /// any reactor starts.
    pub fn serve(
        listener: TcpListener,
        client: ServiceClient,
        config: GateConfig,
    ) -> io::Result<Gate> {
        check(&config)?;
        Gate::serve_on(listener, client, config, Backend::default_for_platform())
    }

    /// [`serve`](Gate::serve) on an explicit poller backend, so tests can
    /// run the `poll(2)` path on Linux too.
    fn serve_on(
        listener: TcpListener,
        client: ServiceClient,
        config: GateConfig,
        backend: Backend,
    ) -> io::Result<Gate> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let threads = match config.reactor_threads {
            0 => cos_par::default_workers(),
            n => n,
        };
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
        });
        let obs = GateObs::register(&config.obs);
        let spawned = reactor::spawn(
            Arc::new(listener),
            threads,
            backend,
            client,
            config,
            obs,
            shared.clone(),
        )?;
        Ok(Gate {
            addr,
            shared,
            reactor_joins: spawned.joins,
            reactor_wakers: spawned.wakers,
            reactor_counters: spawned.counters,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total syscalls made by the reactor threads so far (waits, interest
    /// updates, reads, writes, accepts), aggregated across threads. Diff
    /// two snapshots with [`SyscallSnapshot::since`] to cost a traffic
    /// window. Monotonic, safe to call while serving.
    pub fn syscalls(&self) -> SyscallSnapshot {
        self.reactor_counters
            .iter()
            .map(|c| c.snapshot())
            .fold(SyscallSnapshot::default(), |acc, s| acc + s)
    }

    /// Stops accepting, drains in-flight responses, and joins every
    /// reactor thread before returning.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake every reactor out of its poll wait so it sees the flag.
        for waker in &self.reactor_wakers {
            waker.wake();
        }
        // Each reactor exits once it has closed its last connection;
        // joining them closes the listener's last `Arc`, freeing the port.
        for join in self.reactor_joins.drain(..) {
            let _ = join.join();
        }
        self.reactor_wakers.clear();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        if !self.reactor_joins.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// Best-effort `503` for an accept beyond the connection cap when the
/// lingering-reject pool is itself full. The freshly accepted socket is
/// still blocking and its send buffer empty, so the write completes without
/// stalling the reactor; the write timeout bounds the pathological case.
pub(crate) fn reject_over_capacity(mut stream: TcpStream, config: &GateConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut out = Vec::new();
    Response::error(503, "connection limit reached").write_to(&mut out, false);
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

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
            request_deadline: Duration::from_millis(400),
            ..GateConfig::default()
        }
    }

    /// Every poller backend this platform builds, so each policy test
    /// below runs on epoll and on `poll(2)` alike.
    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    fn gate_on(backend: Backend, service: &ServiceHandle, config: GateConfig) -> Gate {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Gate::serve_on(listener, service.client(), config, backend).unwrap()
    }

    /// Blocks until the gate has admitted `n` connections (a reactor
    /// accepts asynchronously after the client's `connect` returns).
    fn wait_admitted(gate: &Gate, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while *gate.shared.active.lock().unwrap() < n {
            assert!(Instant::now() < deadline, "gate never admitted {n}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Blocks until the gate holds no admitted connection: every reactor
    /// has read its peer's FIN and released the slot.
    fn wait_released(gate: &Gate) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while *gate.shared.active.lock().unwrap() > 0 {
            assert!(Instant::now() < deadline, "gate never released its slots");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

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
        for backend in backends() {
            let config = GateConfig {
                max_connections: 1,
                ..quick_config()
            };
            let gate = gate_on(backend, &service, config);
            // Hold one connection open mid-request to pin the slot.
            let mut held = TcpStream::connect(gate.local_addr()).unwrap();
            held.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
            wait_admitted(&gate, 1);
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
            );
            assert!(reply.starts_with("HTTP/1.1 503 "), "{backend:?}: {reply}");
            drop(held);
            gate.shutdown();
        }
    }

    /// Saturate the connection cap, release the slots, and require the
    /// accept path to resume serving promptly — across several cycles.
    /// Freed capacity is noticed through readiness events alone: no
    /// thread parks waiting for a slot, so there is no wakeup to lose.
    #[test]
    fn released_slots_resume_accepts_without_lost_wakeups() {
        let service = spawn_service();
        for backend in backends() {
            let config = GateConfig {
                max_connections: 2,
                ..quick_config()
            };
            let gate = gate_on(backend, &service, config);
            for cycle in 0..3 {
                // Pin both slots with half-sent requests.
                let mut held = Vec::new();
                for _ in 0..2 {
                    let mut s = TcpStream::connect(gate.local_addr()).unwrap();
                    s.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
                    held.push(s);
                }
                wait_admitted(&gate, 2);
                let reply = roundtrip(
                    gate.local_addr(),
                    b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
                );
                assert!(
                    reply.starts_with("HTTP/1.1 503 "),
                    "{backend:?} cycle {cycle}: saturated gate must refuse: {reply}"
                );
                // Release both slots; the accept path must pick up the
                // freed capacity promptly, not hang on a missed notify.
                // Both held slots are free before the first retry: a `200`
                // proves only one of them free, and the next cycle needs
                // both. The retried connection's own slot is not waited
                // for, so a reactor that sends its FIN before releasing
                // the slot still fails the next cycle.
                drop(held);
                wait_released(&gate);
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
                        "{backend:?} cycle {cycle}: unexpected reply {reply}"
                    );
                    assert!(
                        Instant::now() < deadline,
                        "{backend:?} cycle {cycle}: accept path never resumed after slots freed"
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
        for backend in backends() {
            let gate = gate_on(backend, &service, quick_config());
            let mut stream = TcpStream::connect(gate.local_addr()).unwrap();
            stream.write_all(b"GET /v1/sta").unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408 "), "{backend:?}: {reply}");
            gate.shutdown();
        }
    }

    #[test]
    fn shutdown_drains_and_unbinds() {
        let service = spawn_service();
        for backend in backends() {
            let gate = gate_on(backend, &service, quick_config());
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
                "{backend:?}: listener must be closed after shutdown"
            );
        }
    }

    /// A drain waiting out a held half-request must not poll the
    /// listener: a connection that lands in the backlog after `shutdown()`
    /// is never accepted, and a level-triggered poller would report it on
    /// every wait until the drain ends.
    #[test]
    fn drain_does_not_spin_on_a_backlogged_listener() {
        let service = spawn_service();
        for backend in backends() {
            let config = GateConfig {
                reactor_threads: 1,
                ..quick_config()
            };
            let gate = gate_on(backend, &service, config);
            let addr = gate.local_addr();
            let mut held = TcpStream::connect(addr).unwrap();
            held.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
            wait_admitted(&gate, 1);
            let shared = Arc::clone(&gate.shared);
            let counters = gate.reactor_counters.clone();
            let before = gate.syscalls();
            let drain = std::thread::spawn(move || gate.shutdown());
            while !shared.shutdown.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let late = TcpStream::connect(addr);
            drain.join().unwrap();
            let waits = counters
                .iter()
                .map(|c| c.snapshot())
                .fold(SyscallSnapshot::default(), |acc, s| acc + s)
                .since(&before)
                .waits;
            assert!(
                waits <= 10,
                "{backend:?}: {waits} poller waits during a 400 ms drain"
            );
            let mut reply = String::new();
            held.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408 "), "{backend:?}: {reply}");
            drop(late);
        }
    }

    #[test]
    fn a_nonsensical_config_is_invalid_input_naming_the_field_before_binding() {
        let service = spawn_service();
        // The defaults with one field changed.
        let with = |change: fn(&mut GateConfig)| {
            let mut config = GateConfig::default();
            change(&mut config);
            config
        };
        let cases: [(GateConfig, &str); 4] = [
            (with(|c| c.max_connections = 0), "max_connections"),
            (with(|c| c.write_timeout = Duration::ZERO), "write_timeout"),
            (
                with(|c| c.request_deadline = Duration::ZERO),
                "request_deadline",
            ),
            (
                with(|c| c.limits.max_head_bytes = 4),
                "limits.max_head_bytes",
            ),
        ];
        // An address already taken: a check after binding would answer
        // `AddrInUse`.
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap().to_string();
        for (config, field) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            for refusal in [
                Gate::bind(&addr, service.client(), config.clone()).err(),
                Gate::serve(listener, service.client(), config).err(),
            ] {
                let e =
                    refusal.unwrap_or_else(|| panic!("{field}: a nonsensical value was accepted"));
                assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{field}: {e}");
                assert!(
                    e.to_string().starts_with(&format!("GateConfig.{field}: ")),
                    "{field}: {e}"
                );
            }
        }
        // The defaults serve.
        Gate::bind("127.0.0.1:0", service.client(), GateConfig::default())
            .unwrap()
            .shutdown();
    }

    /// Reactors sharing one externally bound listener serve every
    /// connection, whichever reactor wins each accept race, and their
    /// syscall counters aggregate into a nonzero, monotonic snapshot.
    #[test]
    fn reactors_share_an_external_listener_and_count_syscalls() {
        let service = spawn_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = GateConfig {
            reactor_threads: 2,
            ..quick_config()
        };
        let gate = Gate::serve(listener, service.client(), config).unwrap();
        let before = gate.syscalls();
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
        let spent = gate.syscalls().since(&before);
        assert!(spent.accepts >= 8, "accepts counted: {spent:?}");
        assert!(spent.reads >= 8, "reads counted: {spent:?}");
        assert!(spent.writevs >= 8, "response flushes counted: {spent:?}");
        assert!(spent.waits >= 1, "poll waits counted: {spent:?}");
        gate.shutdown();
    }

    /// A single-threaded reactor multiplexes many concurrent in-flight
    /// requests.
    #[test]
    fn one_reactor_thread_serves_many_interleaved_connections() {
        let service = spawn_service();
        let config = GateConfig {
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
