//! The event-driven front door: a fixed pool of reactor threads, each
//! multiplexing many nonblocking connections over one [`Poller`].
//!
//! This is the architecture the paper models — an event-driven server
//! whose processes take connections from one shared accept queue, and
//! whose concurrency is bounded by memory per connection, not by OS
//! threads. A warm keep-alive request costs three syscalls: one poller
//! wait, one `read` and one `writev`, with no interest updates and no
//! heap allocation in the transport. The mechanisms (DESIGN §12):
//!
//! * **Level-triggered readiness.** Each reactor's [`Poller`] re-reports a
//!   descriptor for as long as it stays ready, so nothing a reactor leaves
//!   behind is ever stranded: bytes past the 256 KiB fairness burst cap,
//!   a peer's FIN queued behind its last request, a listener backlog after
//!   a transient accept failure — each shows up again on the next wait.
//!   A connection is registered read-only and gains write interest only
//!   while it has output queued, so an idle writable socket never wakes
//!   its reactor.
//! * **One read buffer per reactor.** Every connection of a reactor is
//!   read into the same 64 KiB buffer, allocated once when the reactor
//!   starts and reused by every `drive`; the parser keeps only the bytes
//!   that arrived. A 480-event telemetry POST (about 32.6 KB) fits in one
//!   `read`, as a GET does.
//! * **Short-read exit.** A stream `read` returns everything queued up to
//!   the buffer size, so a read shorter than the buffer proves the kernel
//!   queue empty and the trailing always-`WouldBlock` read is skipped. If
//!   more bytes (or an EOF) land afterwards, the level-triggered poller
//!   reports them on the next wait.
//! * **Shared accept.** Every reactor registers the same listener and
//!   accepts race (the losers see `WouldBlock`). Admission is global:
//!   every accept consults `Shared::try_admit`, so `max_connections`, the
//!   over-capacity `503`, and the lingering-reject protocol do not depend
//!   on which reactor won the race.
//! * **Vectored response flush.** Responses are queued as segments (a
//!   pooled head+small-body buffer, plus large bodies as their own
//!   zero-copy segment) in an `OutQueue`, and each drive cycle flushes
//!   the whole queue with one `writev(2)` — a pipelined burst of N
//!   responses costs one syscall, not N.
//! * **Buffer pooling.** Head buffers come from a per-reactor free list
//!   and return to it once written, and fully-drained body segments are
//!   recycled too; combined with the parser's retained buffer and the
//!   allocation-free [`Response::write_head_to`] serializer, a
//!   steady-state keep-alive request allocates nothing in the transport
//!   (pinned by the `gate_budgets` test through
//!   [`cos_par::alloc_probe`]).
//!
//! Every syscall the reactor makes is counted in the poller's shared
//! [`SyscallCounters`], which [`Gate::syscalls`](crate::Gate::syscalls)
//! aggregates across threads.
//!
//! # Per-connection state machine
//!
//! A connection is always in exactly one of four logical states, encoded
//! by two fields (`closing`, pending output) rather than an enum so the
//! transitions stay branch-cheap:
//!
//! ```text
//!            readable                 parsed ≥1 request
//! KeepAlive ──────────► Reading ───────────────────────► Dispatching
//!     ▲                    │  EOF/parse error/408             │ inline
//!     │                    ▼                                  ▼
//!     └──────────────── Writing ◄──────────────────── response queued
//!       out drained        │ `closing` && out drained
//!                          ▼
//!                       Closed
//! ```
//!
//! Every poller event is handled *uniformly* by `Reactor::drive`: try to
//! read, drain the parser, flush the output queue, then recompute
//! interest. A stale or spurious event (slab slot reused, kernel-reported
//! hangup) therefore costs one harmless `WouldBlock` round, never a wrong
//! state transition.
//!
//! # Why dispatch runs inline
//!
//! Every GET answers through the lock-free snapshot read path
//! ([`cos_serve::SnapshotReader`] behind `routes::handle_ctrl`): an
//! atomic `Arc` load plus pure computation, no locks, no channel. So the
//! reactor thread evaluates it in place — the response lands in the
//! connection's output queue microseconds after the request parses,
//! with zero handoff. Writes run inline too: `POST /v1/telemetry` decodes
//! the body in one pass and ingests the batch on this thread under the
//! service's writer lock, refitting in place where the event-time cadence
//! falls inside it, so the `200` leaves once every event has landed (the
//! consistency contract). A POST waits only for another write in progress
//! on some other reactor, never for a GET. A 480-event POST holds its
//! reactor for about 45 µs this way (quartiles 43–55 µs in-process on a
//! 2-vCPU VM), which is accepted: writes are rare (DESIGN §12 has the
//! measurements).
//!
//! A handler runs under `catch_unwind`: one that panics (a cold read
//! evaluates the model on this thread) answers its request `500`, and the
//! reactor keeps serving every other connection. A POST whose ingest
//! panics also poisons the service's writer lock: later POSTs answer
//! `503` (`Disconnected`), while GETs keep answering.
//!
//! # Deadlines without timers
//!
//! There is no timer wheel: each poll wait's timeout is the nearest
//! pending deadline (request deadline from the first byte of a request
//! head, write timeout from the first short write), and a sweep after
//! every wait answers
//! expired requests with `408` and closes stuck writers. With no
//! deadlines armed the reactor sleeps until the poller or its [`Waker`]
//! says otherwise.
//!
//! # Shutdown / drain protocol
//!
//! [`Gate::shutdown`](crate::Gate::shutdown) flips the shared flag and
//! fires every reactor's waker. Each reactor then stops accepting — it
//! deregisters the listener, which a level-triggered poller would
//! otherwise report on every wait while connections wait in its backlog —
//! closes idle keep-alive connections (no partial request, no pending
//! output), demotes in-flight responses to `Connection: close`, arms a
//! request-deadline clock on any connection still mid-request (so a
//! stalled peer bounds the drain at `408` instead of wedging it), and
//! exits once its slab is empty. The `Gate` joins all reactors, at which
//! point the listener's last `Arc` drops and the port closes.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cos_par::poller::{Backend, Interest, Poller, SyscallCounters, WakeReader, Waker};
use cos_serve::ServiceClient;

use crate::http::{RequestParser, Response};
use crate::obs::GateObs;
use crate::routes;
use crate::server::{reject_over_capacity, GateConfig, Shared};

/// Poller token of this reactor's listener.
const LISTENER: u64 = 0;
/// Poller token of this reactor's wake pipe.
const WAKER: u64 = 1;
/// Connection tokens are `slab slot + CONN_BASE`.
const CONN_BASE: u64 = 2;

/// Size of each reactor's one read buffer: a 480-event telemetry POST
/// (about 32.6 KB) arrives in one `read`.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Byte ceiling read per connection per event before yielding back to the
/// event loop: the level-triggered poller reports a firehose peer again on
/// the next wait instead of letting it starve its neighbors on the same
/// reactor thread.
const READ_BURST_BYTES: usize = 256 * 1024;

/// Bodies up to this size are copied into the (pooled) head buffer so a
/// small response is one `writev` segment; larger bodies ride zero-copy
/// as their own segment.
const INLINE_BODY_BYTES: usize = 16 * 1024;

/// Segments handed to one `writev(2)` call. Far under `IOV_MAX` (1024);
/// a queue deeper than this simply takes another loop iteration.
const MAX_IOV: usize = 64;

/// Retired buffers above this capacity are dropped instead of pooled, so
/// one huge response cannot pin its footprint forever.
const MAX_POOLED_CAPACITY: usize = 64 * 1024;

/// Free-list depth cap per reactor.
const MAX_POOLED_BUFFERS: usize = 256;

/// Everything [`spawn`] hands back to the server: join handles, one waker
/// per thread (fire all of them after setting the shared shutdown flag,
/// then join), and each thread's syscall counters for aggregation.
pub(crate) struct SpawnedReactors {
    pub(crate) joins: Vec<JoinHandle<()>>,
    pub(crate) wakers: Vec<Waker>,
    pub(crate) counters: Vec<Arc<SyscallCounters>>,
}

/// Spawns `threads` reactor threads polling the one shared `listener`, each
/// on its own poller of the given `backend`.
pub(crate) fn spawn(
    listener: Arc<TcpListener>,
    threads: usize,
    backend: Backend,
    client: ServiceClient,
    config: GateConfig,
    obs: GateObs,
    shared: Arc<Shared>,
) -> std::io::Result<SpawnedReactors> {
    let mut joins = Vec::with_capacity(threads);
    let mut wakers = Vec::with_capacity(threads);
    let mut counters = Vec::with_capacity(threads);
    for i in 0..threads {
        let poller = Poller::with_backend(backend)?;
        let (waker, wake_rx) = Waker::pair()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READ)?;
        counters.push(poller.counters().clone());
        let ctx = Reactor {
            counters: poller.counters().clone(),
            poller,
            wake_rx,
            listener: Arc::clone(&listener),
            client: client.clone(),
            config: config.clone(),
            obs: obs.clone(),
            shared: shared.clone(),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            lingering: 0,
            buf_pool: Vec::new(),
            read_buf: vec![0; READ_BUF_BYTES].into_boxed_slice(),
        };
        let join = std::thread::Builder::new()
            .name(format!("cos-gate-reactor-{i}"))
            .spawn(move || {
                // Opt into allocation accounting (a no-op thread-local
                // write unless the binary installed the counting
                // allocator, as the benchmarks and budget tests do).
                cos_par::alloc_probe::track_current_thread(true);
                ctx.run()
            })?;
        joins.push(join);
        wakers.push(waker);
    }
    Ok(SpawnedReactors {
        joins,
        wakers,
        counters,
    })
}

/// Queued response bytes as `writev` segments: a deque of buffers plus a
/// byte offset into the front one. Fully-written segments are recycled
/// into the reactor's buffer pool as the kernel accepts them.
struct OutQueue {
    segs: VecDeque<Vec<u8>>,
    /// Bytes of `segs[0]` already accepted by the kernel.
    front_pos: usize,
    /// Total unsent bytes across all segments.
    unsent: usize,
}

impl OutQueue {
    fn new() -> OutQueue {
        OutQueue {
            segs: VecDeque::new(),
            front_pos: 0,
            unsent: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.unsent == 0
    }

    fn push(&mut self, seg: Vec<u8>, pool: &mut Vec<Vec<u8>>) {
        if seg.is_empty() {
            recycle_buf(pool, seg);
            return;
        }
        self.unsent += seg.len();
        self.segs.push_back(seg);
    }

    /// Fills `iovs` with the pending segments (front offset applied);
    /// returns how many entries are valid.
    fn fill_iovecs(&self, iovs: &mut [sys::IoVec; MAX_IOV]) -> usize {
        let mut count = 0;
        for (i, seg) in self.segs.iter().enumerate() {
            if count == MAX_IOV {
                break;
            }
            let skip = if i == 0 { self.front_pos } else { 0 };
            let slice = &seg[skip..];
            if slice.is_empty() {
                continue;
            }
            iovs[count] = sys::IoVec {
                base: slice.as_ptr().cast(),
                len: slice.len(),
            };
            count += 1;
        }
        count
    }

    /// Consumes `n` accepted bytes from the front, recycling finished
    /// segments into `pool`.
    fn advance(&mut self, mut n: usize, pool: &mut Vec<Vec<u8>>) {
        self.unsent -= n.min(self.unsent);
        while n > 0 {
            let Some(front) = self.segs.front() else {
                return;
            };
            let remaining = front.len() - self.front_pos;
            if n < remaining {
                self.front_pos += n;
                return;
            }
            n -= remaining;
            self.front_pos = 0;
            let finished = self.segs.pop_front().expect("front exists");
            recycle_buf(pool, finished);
        }
    }

    /// Returns every segment to `pool` (connection teardown).
    fn recycle_all(&mut self, pool: &mut Vec<Vec<u8>>) {
        self.front_pos = 0;
        self.unsent = 0;
        while let Some(seg) = self.segs.pop_front() {
            recycle_buf(pool, seg);
        }
    }
}

/// Pops a recycled buffer (cleared, capacity retained) or a fresh one.
fn take_buf(pool: &mut Vec<Vec<u8>>) -> Vec<u8> {
    pool.pop().unwrap_or_default()
}

/// Returns a buffer to the free list, unless it is oversized or the pool
/// is full (then it simply drops — deallocations are not what the
/// steady-state allocation budget measures).
fn recycle_buf(pool: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
    if buf.capacity() == 0
        || buf.capacity() > MAX_POOLED_CAPACITY
        || pool.len() >= MAX_POOLED_BUFFERS
    {
        return;
    }
    buf.clear();
    pool.push(buf);
}

/// Serializes `response` onto `out` as segments: head (+ small body) in a
/// pooled buffer, large bodies as their own zero-copy segment.
fn queue_response(
    out: &mut OutQueue,
    pool: &mut Vec<Vec<u8>>,
    mut response: Response,
    keep_alive: bool,
) {
    let mut head = take_buf(pool);
    response.write_head_to(&mut head, keep_alive);
    if response.body.len() <= INLINE_BODY_BYTES {
        head.extend_from_slice(&response.body);
        out.push(head, pool);
    } else {
        out.push(head, pool);
        out.push(std::mem::take(&mut response.body), pool);
    }
}

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Deadline clock of the request currently on the wire: armed at its
    /// first byte, taken when it completes (pipelined requests whose
    /// bytes rode in earlier start at their own parse).
    request_started: Option<Instant>,
    /// Queued response segments not yet accepted by the kernel.
    out: OutQueue,
    /// Armed at the first short write, cleared when `out` drains; bounds
    /// a peer that stops reading at `write_timeout`.
    write_started: Option<Instant>,
    /// No more requests will be served: flush `out`, then close.
    closing: bool,
    /// The peer's write half is done (`read` returned 0).
    saw_eof: bool,
    /// This connection holds a slot in the shared connection count
    /// (false for over-capacity rejects, which ride the slab but must
    /// not consume admitted capacity).
    counted: bool,
    /// Keep the socket open — reading and discarding — until the peer's
    /// EOF or this instant, whichever first. Closing with unread bytes
    /// in the receive buffer makes TCP reset the connection, which can
    /// destroy a still-in-flight response; lingering lets the peer's
    /// request bytes land and the response drain cleanly.
    linger_until: Option<Instant>,
    /// The write half has been shut down (lingering close only).
    fin_sent: bool,
    /// Currently registered poller interest.
    interest: Interest,
}

impl Conn {
    fn has_pending_out(&self) -> bool {
        !self.out.is_empty()
    }
}

struct Reactor {
    poller: Poller,
    counters: Arc<SyscallCounters>,
    wake_rx: WakeReader,
    listener: Arc<TcpListener>,
    client: ServiceClient,
    config: GateConfig,
    obs: GateObs,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// Slab connections lingering on an over-capacity `503` (unadmitted,
    /// bounded by `max_connections` of their own).
    lingering: usize,
    /// Recycled head/segment buffers (per-reactor, so no locking).
    buf_pool: Vec<Vec<u8>>,
    /// Every connection's reads land here first (allocated once; the
    /// parser copies out what arrived).
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        let mut was_draining = false;
        loop {
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            if draining && self.live == 0 {
                return;
            }
            if self.poller.wait(&mut events, self.next_timeout()).is_err() {
                // A broken poller cannot drive anything; abandon the
                // remaining connections rather than spin.
                self.close_all();
                return;
            }
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            for ev in &events {
                match ev.token {
                    LISTENER => {
                        if !draining {
                            self.accept_burst();
                        }
                    }
                    WAKER => self.wake_rx.drain(),
                    token => self.drive((token - CONN_BASE) as usize, draining),
                }
            }
            if draining && !was_draining {
                // First sweep after shutdown: stop accepting, close idle
                // keep-alives, arm drain deadlines on the rest.
                self.begin_drain();
                was_draining = true;
            }
            self.sweep_deadlines();
        }
    }

    /// The nearest pending deadline across all connections, as a poll
    /// timeout (`None` = sleep until an event or a wake).
    fn next_timeout(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = None;
        for conn in self.conns.iter().flatten() {
            let mut consider = |at: Instant| match nearest {
                Some(cur) if cur <= at => {}
                _ => nearest = Some(at),
            };
            if let Some(started) = conn.request_started {
                consider(started + self.config.request_deadline);
            }
            if let Some(started) = conn.write_started {
                consider(started + self.config.write_timeout);
            }
            if let Some(until) = conn.linger_until {
                consider(until);
            }
        }
        nearest.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Accepts until the listener runs dry. Over-capacity accepts are
    /// answered `503` and closed.
    fn accept_burst(&mut self) {
        loop {
            SyscallCounters::bump(&self.counters.accepts);
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.try_admit(self.config.max_connections) {
                        if self.adopt(stream, true).is_err() {
                            self.shared.connection_finished();
                        }
                    } else if self.lingering < self.config.max_connections {
                        // Over capacity: answer 503 through the slab so
                        // the response drains cleanly (see `linger_until`).
                        self.reject(stream);
                    } else {
                        // The linger pool is itself saturated (a reject
                        // flood): fall back to the blunt synchronous
                        // reject rather than grow without bound.
                        reject_over_capacity(stream, &self.config);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. fd exhaustion, a peer
                // that reset before accept): yield briefly; the poller
                // reports the backlog again on the next wait.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Registers a freshly accepted connection in the slab. `counted`
    /// marks a connection admitted against the shared cap.
    fn adopt(&mut self, stream: TcpStream, counted: bool) -> std::io::Result<usize> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        // Read-only: write interest on an idle, writable socket would
        // make the level-triggered poller report it on every wait.
        let interest = Interest::READ;
        match self
            .poller
            .register(stream.as_raw_fd(), slot as u64 + CONN_BASE, interest)
        {
            Ok(()) => {}
            Err(e) => {
                self.free.push(slot);
                return Err(e);
            }
        }
        self.conns[slot] = Some(Conn {
            stream,
            parser: RequestParser::new(self.config.limits),
            request_started: None,
            out: OutQueue::new(),
            write_started: None,
            closing: false,
            saw_eof: false,
            counted,
            linger_until: None,
            fin_sent: false,
            interest,
        });
        self.live += 1;
        Ok(slot)
    }

    /// Queues the over-capacity `503` on an unadmitted slab connection
    /// that lingers (reading and discarding) until the peer's EOF or the
    /// write timeout, so the refusal reaches the peer instead of being
    /// lost to a reset.
    fn reject(&mut self, stream: TcpStream) {
        let Ok(slot) = self.adopt(stream, false) else {
            return;
        };
        self.lingering += 1;
        let conn = self.conns[slot].as_mut().expect("slot live");
        let response = Response::error(503, "connection limit reached");
        queue_response(&mut conn.out, &mut self.buf_pool, response, false);
        conn.closing = true;
        conn.linger_until = Some(Instant::now() + self.config.write_timeout);
        self.finish_drive(slot, false);
    }

    /// Deregisters, closes, and frees one slab slot. The admission slot is
    /// released before the socket's FIN goes out: a peer that has seen the
    /// FIN may reconnect at once, and must not be refused for a connection
    /// that is already gone.
    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            conn.out.recycle_all(&mut self.buf_pool);
            if conn.counted {
                self.shared.connection_finished();
            } else {
                self.lingering -= 1;
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            drop(conn);
            self.free.push(slot);
            self.live -= 1;
        }
    }

    fn close_all(&mut self) {
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// The uniform per-event connection handler: read, parse+dispatch,
    /// flush, recompute interest. Called for real events, stale events on
    /// a reused slot, and drain sweeps alike.
    fn drive(&mut self, slot: usize, draining: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a slot already closed
        };

        // Read until WouldBlock, EOF, a short read, or the fairness burst
        // ceiling; the level-triggered poller reports whatever is left on
        // the next wait. A *short* read proves the kernel queue empty (a
        // stream read returns everything available up to the buffer
        // size), so the trailing always-WouldBlock read is skipped. A
        // closing connection still reads while it lingers — discarding,
        // so a flooding peer cannot grow the parser buffer.
        let mut dead = false;
        if !conn.saw_eof && (!conn.closing || conn.linger_until.is_some()) {
            let chunk = &mut self.read_buf[..];
            let mut taken = 0usize;
            loop {
                SyscallCounters::bump(&self.counters.reads);
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if !conn.closing {
                            if conn.request_started.is_none() {
                                conn.request_started = Some(Instant::now());
                            }
                            conn.parser.feed(&chunk[..n]);
                        }
                        taken += n;
                        if taken >= READ_BURST_BYTES || n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(slot);
            return;
        }

        // Drain every complete request already buffered (pipelining),
        // dispatching inline on this reactor thread. The whole burst's
        // responses accumulate as segments and flush in one writev below.
        let conn = self.conns[slot].as_mut().expect("slot live");
        while !conn.closing {
            let parse_begin = Instant::now();
            match conn.parser.next_request() {
                Ok(Some(request)) => {
                    self.obs.parse.record_duration(parse_begin.elapsed());
                    // End-to-end latency runs from the request's first
                    // byte on the wire; a pipelined request whose bytes
                    // rode in on an earlier read starts at its own parse.
                    let started = conn.request_started.take().unwrap_or(parse_begin);
                    let dispatch_span = self.obs.dispatch.start_span();
                    // A panicking handler costs its request a `500`, not
                    // the reactor. Handlers only read shared state, and a
                    // cold read memoizes its answer only once computed, so
                    // an unwound one leaves nothing half-written.
                    let response = catch_unwind(AssertUnwindSafe(|| {
                        routes::handle_ctrl(
                            &self.client,
                            Some(&self.obs),
                            self.config.controller.as_deref(),
                            &request,
                        )
                    }))
                    .unwrap_or_else(|_| Response::error(500, "the request handler panicked"));
                    dispatch_span.stop();
                    let keep = request.keep_alive() && !response.close && !draining;
                    queue_response(&mut conn.out, &mut self.buf_pool, response, keep);
                    self.obs
                        .request_hist(request.path())
                        .record_duration(started.elapsed());
                    self.obs.requests_total.inc();
                    if !keep {
                        conn.closing = true;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is untrustworthy: answer the mapped status
                    // and close (the parser error is sticky).
                    self.obs.parse_errors_total.inc();
                    let response = Response::error(e.status(), e.reason());
                    queue_response(&mut conn.out, &mut self.buf_pool, response, false);
                    conn.closing = true;
                }
            }
        }

        // The peer finished sending. Mid-request (e.g. a Content-Length
        // it never honored) the truncation is answered 400 in case the
        // peer only shut down its write half.
        if conn.saw_eof && !conn.closing {
            if conn.parser.has_partial() {
                let response = Response::error(400, "connection closed mid-request");
                queue_response(&mut conn.out, &mut self.buf_pool, response, false);
            }
            conn.closing = true;
        }

        // A partial request whose bytes shared a read with a completed
        // one has no clock yet (the completed request took it): arm one
        // now so the deadline — and the drain — stay bounded.
        if conn.parser.has_partial() && conn.request_started.is_none() {
            conn.request_started = Some(Instant::now());
        }

        self.finish_drive(slot, draining);
    }

    /// The write/close/interest tail of [`drive`](Self::drive), shared
    /// with the deadline sweep (which queues a 408 and then only needs
    /// this part).
    fn finish_drive(&mut self, slot: usize, draining: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // Flush as much queued output as the kernel will take: the whole
        // segment queue per writev call, until drained or WouldBlock.
        let mut dead = false;
        while conn.has_pending_out() {
            let mut iovs = [sys::IoVec::NULL; MAX_IOV];
            let count = conn.out.fill_iovecs(&mut iovs);
            SyscallCounters::bump(&self.counters.writevs);
            match sys::writev_fd(conn.stream.as_raw_fd(), &iovs[..count]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out.advance(n, &mut self.buf_pool);
                    if !conn.has_pending_out() {
                        conn.write_started = None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.write_started.is_none() {
                        conn.write_started = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close(slot);
            return;
        }
        let conn = self.conns[slot].as_mut().expect("slot live");
        // During drain an idle keep-alive connection (nothing half-read,
        // nothing queued) closes immediately.
        if draining && !conn.closing && !conn.parser.has_partial() && !conn.has_pending_out() {
            conn.closing = true;
        }
        if conn.closing && !conn.has_pending_out() {
            // A lingering close holds the socket half-open (write side
            // FIN'd, read side draining) until the peer's EOF, so the
            // flushed response cannot be destroyed by a reset.
            if conn.linger_until.is_some() && !conn.saw_eof {
                if !conn.fin_sent {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.fin_sent = true;
                }
                if conn.interest != Interest::READ {
                    if self
                        .poller
                        .modify(
                            conn.stream.as_raw_fd(),
                            slot as u64 + CONN_BASE,
                            Interest::READ,
                        )
                        .is_err()
                    {
                        self.close(slot);
                        return;
                    }
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    conn.interest = Interest::READ;
                }
                return;
            }
            self.close(slot);
            return;
        }
        let want = Interest {
            readable: !conn.saw_eof && (!conn.closing || conn.linger_until.is_some()),
            writable: conn.has_pending_out(),
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), slot as u64 + CONN_BASE, want)
                .is_err()
            {
                self.close(slot);
                return;
            }
            conn.interest = want;
        }
    }

    /// Answers `408` on requests past their deadline and drops writers
    /// past the write timeout.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if let Some(started) = conn.write_started {
                if now.saturating_duration_since(started) >= self.config.write_timeout {
                    self.close(slot);
                    continue;
                }
            }
            if let Some(until) = conn.linger_until {
                if now >= until {
                    self.close(slot);
                    continue;
                }
            }
            if conn.closing {
                continue;
            }
            if let Some(started) = conn.request_started {
                if now.saturating_duration_since(started) >= self.config.request_deadline {
                    let response = Response::error(408, "request deadline exceeded");
                    queue_response(&mut conn.out, &mut self.buf_pool, response, false);
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    conn.closing = true;
                    conn.request_started = None;
                    let draining = self.shared.shutdown.load(Ordering::SeqCst);
                    self.finish_drive(slot, draining);
                }
            }
        }
    }

    /// The first sweep after shutdown flips: stop polling the listener,
    /// close idle connections, arm drain deadlines, demote everything else
    /// via a full drive (which sees `draining == true`).
    fn begin_drain(&mut self) {
        // A level-triggered poller would report a non-empty backlog on
        // every wait until the drain ends.
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.drive(slot, true);
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// The reactor's own raw syscall surface: vectored writes, declared as an
/// `extern "C"` prototype against the libc the binary already links (the
/// workspace is std-only — same convention as `cos_par::poller`).
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *const c_void,
        pub len: usize,
    }

    impl IoVec {
        pub const NULL: IoVec = IoVec {
            base: std::ptr::null(),
            len: 0,
        };
    }

    extern "C" {
        fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }

    pub fn writev_fd(fd: c_int, iov: &[IoVec]) -> io::Result<usize> {
        // SAFETY: every entry in `iov` points into a buffer that outlives
        // the call (the connection's output segments, unmutated until the
        // return value is consumed), and `iov.len()` is the exact entry
        // count.
        let n = unsafe { writev(fd, iov.as_ptr(), iov.len() as c_int) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}
