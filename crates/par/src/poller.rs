//! A thin, std-only readiness poller: the OS-facing half of the gate's
//! event-driven reactor.
//!
//! [`Poller`] wraps one kernel readiness queue — `epoll(7)` on Linux,
//! `poll(2)` elsewhere on Unix — behind a deliberately tiny API: register a
//! file descriptor with a caller-chosen `u64` token and an [`Interest`]
//! (read, write, or both), then [`wait`](Poller::wait) for [`Event`]s.
//!
//! Readiness is **level-triggered** on both backends: as long as a
//! descriptor stays readable/writable it keeps showing up, so a caller
//! that processes less than everything on one wake is never stranded, and
//! a peer's EOF queued behind data it already read is reported on the
//! next wait. The price is interest management: a caller must not keep
//! write interest on an idle socket, or the poller re-reports it forever;
//! [`modify`](Poller::modify) narrows it.
//!
//! # Syscall accounting
//!
//! Every poller carries an [`Arc<SyscallCounters>`] and bumps `waits` /
//! `ctls` itself. The I/O-side counters (`reads`, `writevs`, `accepts`)
//! are for the poller's *caller* — the reactor that owns the descriptors —
//! so one snapshot tells the whole per-thread syscall story. Counters are
//! relaxed atomics: cross-thread reads are eventually consistent, which is
//! all a bench needs.
//!
//! No `libc` crate: the build environment is offline and the workspace is
//! std-only, and std has no readiness API, so the epoll and `poll(2)`
//! calls are declared as `extern "C"` prototypes (they resolve against the
//! libc every Rust binary on Unix already links) and descriptors ride on
//! `std::os::fd`'s owned/raw fd types for close-on-drop hygiene.
//! Everything else here is std.
//!
//! [`Waker`] is the cross-thread wake primitive: a nonblocking
//! [`UnixStream`] pair whose read end is registered like any other
//! descriptor. Any thread can [`wake`](Waker::wake) a sleeping
//! [`Poller::wait`]; the poll loop drains the socket with
//! [`WakeReader::drain`] and carries on. Wakes are *coalescing* — a
//! thousand `wake()` calls before the loop runs cost one event — and never
//! lost: the byte sits in the socket until drained, so a wake that races a
//! falling-asleep poller still lands.
//!
//! The `poll(2)` backend keeps its registration table behind a mutex as a
//! slot map: O(1) register/modify/deregister through an fd index, with
//! slots reclaimed *eagerly* on deregister onto a free list — a
//! connection-churn workload reuses the same few slots instead of growing
//! the table. The `pollfd` array handed to the kernel is rebuilt per wait —
//! O(registered) per wake, fine for the fallback role. The epoll backend is
//! O(ready) per wake. On Linux both compile, so the test suite exercises
//! the fallback on the same machine that runs the fast path.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which readiness conditions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or a peer hangup to
    /// observe — hangups surface as readable-with-EOF).
    pub readable: bool,
    /// Wake when the descriptor can accept writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable, at EOF, hung up or in error — read to
    /// find out which.
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// Which kernel mechanism a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `epoll(7)` — Linux only, O(ready) waits.
    #[cfg(target_os = "linux")]
    Epoll,
    /// `poll(2)` — portable Unix fallback, O(registered) waits.
    Poll,
}

impl Backend {
    /// The preferred backend for this platform.
    pub fn default_for_platform() -> Backend {
        #[cfg(target_os = "linux")]
        {
            Backend::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            Backend::Poll
        }
    }
}

/// Monotonic per-poller syscall counters, shared with the poller's caller
/// so reactor-side I/O lands in the same snapshot. All relaxed atomics.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    /// `epoll_wait` / `poll` calls.
    pub waits: AtomicU64,
    /// `epoll_ctl` calls (the portable backend's userspace table updates
    /// count here too, so "ctls" reads as "interest-management cost" on
    /// both backends).
    pub ctls: AtomicU64,
    /// `read`/`recv` calls made by the caller.
    pub reads: AtomicU64,
    /// Vectored `writev` calls made by the caller.
    pub writevs: AtomicU64,
    /// `accept` calls made by the caller.
    pub accepts: AtomicU64,
}

impl SyscallCounters {
    /// Bumps a counter by one; all sites go through this for a single
    /// ordering story.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (relaxed loads).
    pub fn snapshot(&self) -> SyscallSnapshot {
        SyscallSnapshot {
            waits: self.waits.load(Ordering::Relaxed),
            ctls: self.ctls.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writevs: self.writevs.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`SyscallCounters`], with arithmetic for
/// aggregating across reactor threads and diffing across a bench window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallSnapshot {
    /// See [`SyscallCounters::waits`].
    pub waits: u64,
    /// See [`SyscallCounters::ctls`].
    pub ctls: u64,
    /// See [`SyscallCounters::reads`].
    pub reads: u64,
    /// See [`SyscallCounters::writevs`].
    pub writevs: u64,
    /// See [`SyscallCounters::accepts`].
    pub accepts: u64,
}

impl SyscallSnapshot {
    /// Every syscall in the snapshot.
    pub fn total(&self) -> u64 {
        self.waits + self.ctls + self.reads + self.writevs + self.accepts
    }

    /// `self - earlier`, saturating (counters are monotonic, so saturation
    /// only fires if the snapshots are swapped).
    pub fn since(&self, earlier: &SyscallSnapshot) -> SyscallSnapshot {
        SyscallSnapshot {
            waits: self.waits.saturating_sub(earlier.waits),
            ctls: self.ctls.saturating_sub(earlier.ctls),
            reads: self.reads.saturating_sub(earlier.reads),
            writevs: self.writevs.saturating_sub(earlier.writevs),
            accepts: self.accepts.saturating_sub(earlier.accepts),
        }
    }
}

impl std::ops::Add for SyscallSnapshot {
    type Output = SyscallSnapshot;
    fn add(self, rhs: SyscallSnapshot) -> SyscallSnapshot {
        SyscallSnapshot {
            waits: self.waits + rhs.waits,
            ctls: self.ctls + rhs.ctls,
            reads: self.reads + rhs.reads,
            writevs: self.writevs + rhs.writevs,
            accepts: self.accepts + rhs.accepts,
        }
    }
}

enum Impl {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(pollfd::PollTable),
}

/// A readiness poller. See the module docs.
pub struct Poller {
    inner: Impl,
    counters: Arc<SyscallCounters>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.backend())
            .finish()
    }
}

impl Poller {
    /// Creates a poller on the platform's preferred backend.
    pub fn new() -> io::Result<Poller> {
        Poller::with_backend(Backend::default_for_platform())
    }

    /// Creates a poller on an explicit backend (the `poll(2)` fallback is
    /// available everywhere, so tests can exercise it next to epoll).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let inner = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => Impl::Epoll(epoll::Epoll::new()?),
            Backend::Poll => Impl::Poll(pollfd::PollTable::new()),
        };
        Ok(Poller {
            inner,
            counters: Arc::new(SyscallCounters::default()),
        })
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(_) => Backend::Epoll,
            Impl::Poll(_) => Backend::Poll,
        }
    }

    /// The counters this poller bumps; callers clone the `Arc` and bump
    /// the I/O-side counters themselves.
    pub fn counters(&self) -> &Arc<SyscallCounters> {
        &self.counters
    }

    /// Subscribes `fd` with `token` and `interest`. The caller keeps
    /// ownership of the descriptor and must [`deregister`](Self::deregister)
    /// (or close) it before the token is reused.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        SyscallCounters::bump(&self.counters.ctls);
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest),
            Impl::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Changes an existing registration's token or interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        SyscallCounters::bump(&self.counters.ctls);
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Impl::Poll(p) => p.modify(fd, token, interest),
        }
    }

    /// Removes a registration. Closing the descriptor also removes it on
    /// the epoll backend, but the poll backend's table is in userspace —
    /// deregister explicitly before closing to keep both honest. The poll
    /// backend reclaims the slot eagerly (it is reusable by the very next
    /// `register`).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        SyscallCounters::bump(&self.counters.ctls);
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.ctl(epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Impl::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered descriptor is ready, `timeout`
    /// elapses (`None` = forever), or a [`Waker`] fires. Ready events are
    /// appended to `events` (which is cleared first); returns the count.
    ///
    /// A timeout of `Some(ZERO)` is a nonblocking readiness probe. Spurious
    /// zero-event returns are possible (EINTR) and harmless.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        SyscallCounters::bump(&self.counters.waits);
        let millis: i32 = match timeout {
            None => -1,
            // Round *up* so a 100 µs deadline does not spin at timeout 0.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.wait(events, millis),
            Impl::Poll(p) => p.wait(events, millis),
        }
    }

    /// Poll-backend slot-map capacity (occupied + free slots); `None` on
    /// epoll, whose table lives in the kernel. Exists so churn tests can
    /// pin "10k open/close cycles do not grow the table".
    pub fn table_capacity(&self) -> Option<usize> {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(_) => None,
            Impl::Poll(p) => Some(p.capacity()),
        }
    }
}

/// The write end of a waker socket pair, callable from any thread.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

/// The read end of a waker socket pair: register
/// [`as_raw_fd`](AsRawFd::as_raw_fd) with the poller, and
/// [`drain`](WakeReader::drain) when its token fires.
#[derive(Debug)]
pub struct WakeReader {
    rx: UnixStream,
}

impl Waker {
    /// Creates a connected (waker, reader) pair over a nonblocking Unix
    /// socket pair (std opens both ends close-on-exec).
    pub fn pair() -> io::Result<(Waker, WakeReader)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReader { rx }))
    }

    /// Makes the paired reader's descriptor readable, waking a poller
    /// blocked on it. Never blocks: a full socket buffer already
    /// guarantees the reader will wake, so `WouldBlock` is success.
    pub fn wake(&self) {
        // WouldBlock (a buffer full of unconsumed wakes) and Interrupted
        // both leave the reader wakeable; any other failure means the
        // reader is gone and waking is moot.
        let _ = (&self.tx).write(&[1]);
    }
}

impl WakeReader {
    /// Consumes every pending wake byte so the poller stops reporting the
    /// reader readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }
}

impl AsRawFd for WakeReader {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// The epoll backend.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// `struct epoll_event`; packed on x86 per the kernel ABI.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall; the returned fd (if valid) is fresh
            // and unowned.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                // SAFETY: checked valid and unowned above.
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        pub fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut events = 0;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event for ADD/MOD; DEL ignores
            // it (non-null for pre-2.6.9 kernel compatibility).
            if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            // SAFETY: `buf` holds 256 writable epoll_event slots and we
            // pass exactly that capacity.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0); // spurious wake; the caller re-checks state
                }
                return Err(err);
            }
            for ev in &buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            Ok(out.len())
        }
    }
}

/// The `poll(2)` backend: a mutex-guarded slot map rebuilt into a `pollfd`
/// array per wait. Register/modify/deregister are O(1) through the fd
/// index; deregistered slots go straight onto a free list so fd churn
/// reuses them instead of growing the table.
mod pollfd {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_short, c_ulong};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    struct Slots {
        /// `None` = free slot, parked on `free`.
        slots: Vec<Option<(RawFd, u64, Interest)>>,
        /// Indices of free `slots` entries, reclaimed eagerly on
        /// deregister.
        free: Vec<usize>,
        /// fd → slot index, for O(1) modify/deregister.
        index: HashMap<RawFd, usize>,
    }

    pub struct PollTable {
        inner: Mutex<Slots>,
    }

    impl PollTable {
        pub fn new() -> PollTable {
            PollTable {
                inner: Mutex::new(Slots {
                    slots: Vec::new(),
                    free: Vec::new(),
                    index: HashMap::new(),
                }),
            }
        }

        /// Occupied + free slots: the table's high-water mark. Bounded by
        /// the peak *concurrent* registration count, not the cumulative
        /// churn — the churn regression test pins exactly that.
        pub fn capacity(&self) -> usize {
            self.inner.lock().expect("poll table lock").slots.len()
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut inner = self.inner.lock().expect("poll table lock");
            if inner.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            let slot = match inner.free.pop() {
                Some(slot) => {
                    inner.slots[slot] = Some((fd, token, interest));
                    slot
                }
                None => {
                    inner.slots.push(Some((fd, token, interest)));
                    inner.slots.len() - 1
                }
            };
            inner.index.insert(fd, slot);
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut inner = self.inner.lock().expect("poll table lock");
            match inner.index.get(&fd).copied() {
                Some(slot) => {
                    inner.slots[slot] = Some((fd, token, interest));
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut inner = self.inner.lock().expect("poll table lock");
            match inner.index.remove(&fd) {
                Some(slot) => {
                    inner.slots[slot] = None;
                    inner.free.push(slot);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let snapshot: Vec<(RawFd, u64, Interest)> = {
                let inner = self.inner.lock().expect("poll table lock");
                inner.slots.iter().filter_map(|slot| *slot).collect()
            };
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|&(fd, _, interest)| {
                    let mut events = 0;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    PollFd {
                        fd,
                        events,
                        revents: 0,
                    }
                })
                .collect();
            // SAFETY: `fds` is a live array of exactly `fds.len()` pollfd
            // slots for the duration of the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for (slot, &(_, token, _)) in fds.iter().zip(snapshot.iter()) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & POLLOUT != 0,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

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

    #[test]
    fn readable_socket_fires_and_level_triggers_until_drained() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();
            poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Quiet socket: timeout elapses with no events.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious event");

            tx.write_all(b"ping").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: unread bytes keep firing.
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: level-trigger lost");

            let mut buf = [0u8; 16];
            assert_eq!(rx.read(&mut buf).unwrap(), 4);
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(
                events.is_empty(),
                "{backend:?}: drained socket still firing"
            );

            poller.deregister(rx.as_raw_fd()).unwrap();
        }
    }

    /// A drained socket goes quiet and a refill by the peer fires again,
    /// round after round: the loop the gate reactor runs on every
    /// connection.
    #[test]
    fn refill_after_a_drain_fires_again_on_every_backend() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();
            poller.register(rx.as_raw_fd(), 5, Interest::READ).unwrap();

            let mut events = Vec::new();
            for round in 0..3 {
                tx.write_all(b"fill").unwrap();
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert_eq!(events.len(), 1, "{backend:?} round {round}");
                assert!(events[0].readable);
                let mut buf = [0u8; 16];
                loop {
                    match rx.read(&mut buf) {
                        Ok(0) => panic!("unexpected EOF"),
                        Ok(_) => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => panic!("read: {e}"),
                    }
                }
            }
            poller.deregister(rx.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn write_interest_and_modify() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (rx, _) = listener.accept().unwrap();
            // A fresh socket with an empty send buffer is writable.
            poller.register(tx.as_raw_fd(), 1, Interest::WRITE).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].writable);

            // Narrow interest to read only: the writable condition stops
            // firing even though the socket is still writable.
            poller.modify(tx.as_raw_fd(), 1, Interest::READ).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: modify ignored");
            poller.deregister(tx.as_raw_fd()).unwrap();
            drop(rx);
        }
    }

    #[test]
    fn peer_hangup_reports_readable() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (rx, _) = listener.accept().unwrap();
            poller.register(rx.as_raw_fd(), 9, Interest::READ).unwrap();
            drop(tx);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(
                events[0].readable,
                "{backend:?}: hangup must surface as readable so the owner reads the EOF"
            );
            poller.deregister(rx.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (waker, reader) = Waker::pair().unwrap();
            poller
                .register(reader.as_raw_fd(), 42, Interest::READ)
                .unwrap();
            let start = Instant::now();
            let mut events = Vec::new();
            // Borrow (not move) the waker: dropping it closes the socket
            // pair's write end, which would make the reader report hangup
            // forever.
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(30));
                    waker.wake();
                    waker.wake(); // coalesces with the first
                });
                poller
                    .wait(&mut events, Some(Duration::from_secs(10)))
                    .unwrap();
            });
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 42);
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{backend:?}: wake did not cut the wait short"
            );
            reader.drain();
            // Drained: the reader goes quiet.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: drain left bytes behind");
        }
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (waker, reader) = Waker::pair().unwrap();
            poller
                .register(reader.as_raw_fd(), 3, Interest::READ)
                .unwrap();
            waker.wake(); // fires before anyone is waiting
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: pre-wait wake lost");
            reader.drain();
        }
    }

    /// Wakes with nothing draining fill the waker's socket buffer (a few
    /// hundred one-byte writes on Linux); every later `wake` must still
    /// return at once, and one `drain` must empty the socket.
    #[test]
    fn a_wake_flood_never_blocks_and_one_drain_empties_it() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (waker, reader) = Waker::pair().unwrap();
            poller
                .register(reader.as_raw_fd(), 4, Interest::READ)
                .unwrap();
            for _ in 0..100_000 {
                waker.wake();
            }
            let full = (&waker.tx).write(&[1]).unwrap_err();
            assert_eq!(full.kind(), ErrorKind::WouldBlock, "{backend:?}");
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: the flood is one event");
            reader.drain();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert!(
                events.is_empty(),
                "{backend:?}: drain left wakes behind: {events:?}"
            );
        }
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_spin() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (_waker, reader) = Waker::pair().unwrap();
            poller
                .register(reader.as_raw_fd(), 0, Interest::READ)
                .unwrap();
            let mut events = Vec::new();
            // 100 µs must not become timeout=0 (a busy-spin); it rounds to
            // 1 ms and actually sleeps.
            let start = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_micros(100)))
                .unwrap();
            assert!(events.is_empty());
            assert!(
                start.elapsed() >= Duration::from_micros(100),
                "{backend:?}: rounded down to a spin"
            );
        }
    }

    /// Syscall counters move when the poller does syscalls, and the
    /// snapshot arithmetic (aggregate, diff) is sane.
    #[test]
    fn syscall_counters_track_waits_and_ctls() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (_waker, reader) = Waker::pair().unwrap();
            let before = poller.counters().snapshot();
            poller
                .register(reader.as_raw_fd(), 0, Interest::READ)
                .unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            poller.deregister(reader.as_raw_fd()).unwrap();
            let delta = poller.counters().snapshot().since(&before);
            assert_eq!(delta.waits, 2, "{backend:?}");
            assert_eq!(delta.ctls, 2, "{backend:?}: register + deregister");
            assert_eq!(delta.total(), 4, "{backend:?}");
            let doubled = delta + delta;
            assert_eq!(doubled.waits, 4);
        }
    }

    /// Churn regression (satellite): 10k open/register/deregister/close
    /// cycles on the portable backend reuse reclaimed slots instead of
    /// growing the table. Capacity is bounded by the peak *concurrent*
    /// registration count (here: a handful), not the cumulative churn.
    #[test]
    fn poll_table_reclaims_slots_eagerly_under_churn() {
        let poller = Poller::with_backend(Backend::Poll).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // A small steady-state population so reclaimed slots interleave
        // with live ones.
        let steady: Vec<TcpStream> = (0..4)
            .map(|i| {
                let s = TcpStream::connect(addr).unwrap();
                let _ = listener.accept().unwrap();
                poller
                    .register(s.as_raw_fd(), 1000 + i, Interest::READ)
                    .unwrap();
                s
            })
            .collect();

        // 10k churn cycles. Raw fds stand in for sockets: the table only
        // stores fds, and real connect/accept 10k times would dominate
        // the test's runtime without exercising anything extra. Use the
        // waker sockets' fds so the values are live descriptors.
        for i in 0..10_000u64 {
            let (_waker, reader) = Waker::pair().unwrap();
            poller
                .register(reader.as_raw_fd(), i, Interest::READ)
                .unwrap();
            poller.deregister(reader.as_raw_fd()).unwrap();
        }

        let capacity = poller.table_capacity().expect("poll backend");
        assert!(
            capacity <= steady.len() + 2,
            "table grew under churn: capacity {capacity} after 10k open/close \
             cycles with only {} steady registrations",
            steady.len()
        );

        // The steady registrations still work after all that churn.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        for s in &steady {
            poller.deregister(s.as_raw_fd()).unwrap();
        }
        assert_eq!(poller.table_capacity(), Some(capacity));
    }

    /// Deregister → register reuses the same slot for a *different* fd
    /// immediately (eager reclamation), and stale fds are really gone
    /// from the kernel-visible set.
    #[test]
    fn poll_table_slot_reuse_is_immediate_and_clean() {
        let poller = Poller::with_backend(Backend::Poll).unwrap();
        let (waker_a, reader_a) = Waker::pair().unwrap();
        let (_waker_b, reader_b) = Waker::pair().unwrap();

        poller
            .register(reader_a.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        let cap_one = poller.table_capacity().unwrap();
        poller.deregister(reader_a.as_raw_fd()).unwrap();
        poller
            .register(reader_b.as_raw_fd(), 2, Interest::READ)
            .unwrap();
        assert_eq!(
            poller.table_capacity().unwrap(),
            cap_one,
            "second register must reuse the reclaimed slot"
        );

        // Waking the deregistered reader must not produce an event.
        waker_a.wake();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.is_empty(),
            "deregistered fd still live in the table: {events:?}"
        );

        // Double-deregister is a clean NotFound, not a panic or corruption.
        let err = poller.deregister(reader_a.as_raw_fd()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        poller.deregister(reader_b.as_raw_fd()).unwrap();
    }
}
