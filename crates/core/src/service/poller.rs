//! Readiness-driven socket serving: a `mio`-style [`Poller`] over
//! nonblocking sockets, plus the shared event-loop harness both TCP
//! fronts (the node front in [`proto`](super::proto) and the cluster
//! router in [`cluster`](super::cluster)) run their connections on.
//!
//! The previous fronts were thread-per-connection polling loops: every
//! blocked read woke on a `--poll-interval` tick to check the stop flag
//! and the idle deadline, so a thousand idle connections cost a thousand
//! timer wheels and a thousand stacks. Here one thread owns every
//! connection: sockets are nonblocking, readiness comes from the kernel
//! (`epoll` on Linux via raw syscalls — the same no-libc idiom as
//! `pmu::live` — `poll(2)` on other Unixes), partial lines and frame
//! bytes are buffered per connection, and `--poll-interval` survives
//! only as the *timer granularity*: the loop sleeps in the kernel until
//! a socket turns ready or the tick elapses, never spinning.
//!
//! Wire behavior is byte-identical to the threaded fronts (golden
//! transcripts replay unchanged); the one deliberate difference is the
//! connection cap, which is now enforced deterministically at accept
//! time — the over-cap client reads `err: busy` and an immediate close,
//! with no dependence on when a departed predecessor's thread noticed
//! its own EOF.
//!
//! On platforms without a readiness facility ([`Poller::new`] fails)
//! the fronts fall back to the retained thread-per-connection loops, so
//! the crate still builds and serves everywhere it used to.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which connection engine a TCP front runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeBackend {
    /// One readiness event loop multiplexing every connection
    /// (the default). Falls back to [`ServeBackend::Threads`] at
    /// startup if the platform has no poller.
    #[default]
    Events,
    /// The legacy thread-per-connection polling loops. Retained as the
    /// measured baseline for `cpistack loadgen` / `BENCH_9.json`
    /// comparisons and as the portable fallback.
    Threads,
}

// ---------------------------------------------------------------------------
// The Poller
// ---------------------------------------------------------------------------

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor has bytes to read — or an error/hangup condition
    /// that a read will surface (EOF, `ECONNRESET`), which is why
    /// error-ish readiness is folded into `readable`.
    pub readable: bool,
    /// The descriptor can accept more bytes.
    pub writable: bool,
}

/// Readiness interest for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// A level-triggered readiness selector over raw file descriptors:
/// `epoll` on Linux (x86-64 / aarch64, via raw syscalls — no libc
/// types), `poll(2)` on other Unixes. Register sockets under a caller
/// token, then [`Poller::wait`] blocks in the kernel until one turns
/// ready or the timeout lapses.
#[derive(Debug)]
pub struct Poller {
    backend: PollerBackend,
}

impl Poller {
    /// Opens the platform selector.
    ///
    /// # Errors
    ///
    /// The platform has no readiness facility (non-Unix, or an exotic
    /// Linux architecture without the syscall shim) or the kernel
    /// refused the `epoll` instance. Callers fall back to the threaded
    /// serving path.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            backend: PollerBackend::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// The kernel rejected the registration (bad descriptor, duplicate).
    pub fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.add(fd, token, interest)
    }

    /// Changes the interest set of an already-registered descriptor.
    ///
    /// # Errors
    ///
    /// The descriptor is not registered.
    pub fn modify(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Deregisters a descriptor. Must be called *before* the socket is
    /// closed.
    ///
    /// # Errors
    ///
    /// The descriptor is not registered.
    pub fn remove(&mut self, fd: RawFdT) -> io::Result<()> {
        self.backend.remove(fd)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses, appending events to `events` (cleared first).
    ///
    /// # Errors
    ///
    /// The kernel wait itself failed (`EINTR` is retried internally).
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        self.backend.wait(events, timeout)
    }
}

/// The raw-descriptor type registrations use (`i32` everywhere Unix).
pub type RawFdT = i32;

fn timeout_ms(timeout: Duration) -> i32 {
    // A sub-millisecond tick still sleeps (1 ms) rather than spinning.
    timeout.as_millis().clamp(1, i32::MAX as u128) as i32
}

// --- Linux: epoll via raw syscalls (no libc dependency) --------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{timeout_ms, Interest, PollEvent, RawFdT};
    use std::io;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 291;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_PWAIT: u64 = 281;
        pub const CLOSE: u64 = 3;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22;
        pub const CLOSE: u64 = 57;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack)
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: u64 = 1;
    const EPOLL_CTL_DEL: u64 = 2;
    const EPOLL_CTL_MOD: u64 = 3;

    const EPOLL_CLOEXEC: u64 = 0o2000000;

    /// The kernel's `struct epoll_event`: packed on x86-64 only, per
    /// the ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.read {
            bits |= EPOLLIN;
        }
        if interest.write {
            bits |= EPOLLOUT;
        }
        bits
    }

    #[derive(Debug)]
    pub(super) struct PollerBackend {
        epfd: i32,
    }

    impl PollerBackend {
        pub(super) fn new() -> io::Result<Self> {
            let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Self { epfd: epfd as i32 })
        }

        fn ctl(&mut self, op: u64, fd: RawFdT, event: Option<EpollEvent>) -> io::Result<()> {
            let ptr = event
                .as_ref()
                .map_or(0u64, |e| e as *const EpollEvent as u64);
            check(unsafe { syscall6(nr::EPOLL_CTL, self.epfd as u64, op, fd as u64, ptr, 0, 0) })?;
            Ok(())
        }

        pub(super) fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
            let event = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(event))
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFdT,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let event = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(event))
        }

        pub(super) fn remove(&mut self, fd: RawFdT) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Duration,
        ) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let n = loop {
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.epfd as u64,
                        buf.as_mut_ptr() as u64,
                        buf.len() as u64,
                        timeout_ms(timeout) as u64,
                        0, // sigmask: NULL — don't mask anything
                        0, // sigsetsize: unread when sigmask is NULL
                    )
                };
                match check(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            for ev in buf.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (ev.events, ev.data);
                events.push(PollEvent {
                    token,
                    // Error/hangup conditions surface through a read
                    // (0 bytes / ECONNRESET), so fold them in.
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for PollerBackend {
        fn drop(&mut self) {
            unsafe {
                syscall6(nr::CLOSE, self.epfd as u64, 0, 0, 0, 0, 0);
            }
        }
    }
}

// --- Other Unixes: poll(2) through the libc std already links -------------

#[cfg(all(
    unix,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
mod sys {
    use super::{timeout_ms, Interest, PollEvent, RawFdT};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    type Nfds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[derive(Debug)]
    pub(super) struct PollerBackend {
        // (fd, token, interest) in registration order.
        slots: Vec<(RawFdT, u64, Interest)>,
    }

    impl PollerBackend {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self { slots: Vec::new() })
        }

        pub(super) fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
            if self.slots.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.slots.push((fd, token, interest));
            Ok(())
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFdT,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let slot = self
                .slots
                .iter_mut()
                .find(|(f, _, _)| *f == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            *slot = (fd, token, interest);
            Ok(())
        }

        pub(super) fn remove(&mut self, fd: RawFdT) -> io::Result<()> {
            let at = self
                .slots
                .iter()
                .position(|(f, _, _)| *f == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.slots.swap_remove(at);
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Duration,
        ) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .slots
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.read { POLLIN } else { 0 }
                        | if interest.write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = loop {
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms(timeout)) };
                if ret >= 0 {
                    break ret;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n > 0 {
                for (pfd, (_, token, _)) in fds.iter().zip(&self.slots) {
                    let bits = pfd.revents;
                    if bits != 0 {
                        events.push(PollEvent {
                            token: *token,
                            readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                            writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                        });
                    }
                }
            }
            Ok(())
        }
    }
}

// --- Anywhere else: no poller; fronts fall back to threads ----------------

#[cfg(not(unix))]
mod sys {
    use super::{Interest, PollEvent, RawFdT};
    use std::io;
    use std::time::Duration;

    #[derive(Debug)]
    pub(super) struct PollerBackend;

    impl PollerBackend {
        pub(super) fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness facility on this platform",
            ))
        }

        pub(super) fn add(&mut self, _: RawFdT, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn modify(&mut self, _: RawFdT, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn remove(&mut self, _: RawFdT) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn wait(&mut self, _: &mut Vec<PollEvent>, _: Duration) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }
    }
}

use sys::PollerBackend;

/// The raw descriptor of a socket, as [`Poller::add`] wants it. Only
/// reachable where a poller exists (on non-Unix [`Poller::new`] fails
/// before any registration is attempted).
#[cfg(unix)]
pub fn raw_fd(sock: &impl std::os::unix::io::AsRawFd) -> RawFdT {
    sock.as_raw_fd()
}

/// See the Unix variant; never reached without a poller.
#[cfg(not(unix))]
pub fn raw_fd<T>(_sock: &T) -> RawFdT {
    unreachable!("the event loop never runs without a poller")
}

// ---------------------------------------------------------------------------
// The shared event-loop harness
// ---------------------------------------------------------------------------

/// What a dispatched line asks the loop to do with its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Keep the session going.
    Continue,
    /// Flush buffered output, then close this connection (`quit`, EOF).
    Close,
    /// Flip the server-wide stop flag, then close this connection
    /// (`shutdown`).
    Shutdown,
}

/// Protocol-facing knobs the loop enforces; both fronts map their config
/// structs onto this.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    /// Greeting written when a connection opens.
    pub banner: String,
    /// Close a connection after this long without a complete command.
    pub idle_timeout: Option<Duration>,
    /// Connections beyond this read `err: busy` and an immediate close.
    pub max_connections: usize,
    /// Timer granularity: the kernel wait's upper bound, which bounds
    /// how stale idle-deadline and stop-flag checks can be.
    pub tick: Duration,
}

/// In-band farewell when another session shuts the server down.
const STOPPING: &[u8] = b"err: server shutting down\n";
/// In-band farewell when the idle deadline fires.
const IDLE: &[u8] = "err: idle timeout — closing connection\n".as_bytes();
/// Deterministic over-cap rejection.
const BUSY: &[u8] = b"err: busy\n";

/// Longest request line either TCP front accepts, newline excluded.
/// The largest line the cluster itself sends is the router's `pushrecs
/// <machine> <hex-arch> <hex-csv>` for a full 103-benchmark campaign:
/// 22 558 bytes measured for a 1 M-µop Core 2 campaign, and 82 014
/// bytes at the worst case — the longest variant machine name and every
/// counter at its 20-digit maximum — so the cap sits 12× above the worst
/// case. A longer line, or a newline-free stream that outgrows the cap,
/// is answered with [`line_too_long`] and the connection closes: a
/// connection's input buffer never holds much more than the cap.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// In-band farewell for a line over [`MAX_LINE_BYTES`].
pub(crate) fn line_too_long() -> String {
    format!("err: line longer than {MAX_LINE_BYTES} bytes — closing connection\n")
}

/// What a connection's buffered input holds next.
pub(crate) enum NextLine {
    /// One line, its newline (and any `\r` before it) stripped.
    Line(Vec<u8>),
    /// A partial line: read more.
    Pending,
    /// The next line already runs past [`MAX_LINE_BYTES`].
    TooLong,
}

/// A connection's inbound bytes, cut into lines. Each byte is searched
/// for a newline once, however many reads a long line arrives in.
#[derive(Default)]
pub(crate) struct LineBuf {
    bytes: Vec<u8>,
    /// Length of the newline-free prefix of `bytes` already searched.
    scanned: usize,
}

impl LineBuf {
    pub(crate) fn extend(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Takes the next line. At `eof` an unterminated tail still counts
    /// as a line, like `BufRead::lines` on the stdio front.
    pub(crate) fn take(&mut self, eof: bool) -> NextLine {
        let newline = self.bytes[self.scanned..]
            .iter()
            .position(|b| *b == b'\n')
            .map(|i| self.scanned + i);
        if newline.unwrap_or(self.bytes.len()) > MAX_LINE_BYTES {
            return NextLine::TooLong;
        }
        match newline {
            Some(pos) => {
                self.scanned = 0;
                let mut line: Vec<u8> = self.bytes.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                NextLine::Line(line)
            }
            None if eof && !self.bytes.is_empty() => {
                self.scanned = 0;
                NextLine::Line(std::mem::take(&mut self.bytes))
            }
            None => {
                self.scanned = self.bytes.len();
                NextLine::Pending
            }
        }
    }
}

/// How long after stop the loop keeps draining unflushed farewells
/// before abandoning slow clients.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Reads drained per connection per readiness event before yielding to
/// fellow connections (level-triggered readiness re-fires if bytes
/// remain, so fairness costs nothing).
const READ_BURST: usize = 16;

struct Conn<H> {
    stream: TcpStream,
    handler: H,
    in_buf: LineBuf,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    sent: usize,
    /// Read side finished (EOF seen).
    eof: bool,
    /// Stop reading; close once `out` drains.
    closing: bool,
    /// Last moment this connection either delivered bytes or finished a
    /// command — the idle clock, mirroring `TimedLineReader` (dispatch
    /// time is never billed as idleness).
    last_activity: Instant,
    /// The interest set currently registered with the poller.
    registered: Interest,
}

impl<H> Conn<H> {
    fn pending(&self) -> usize {
        self.out.len() - self.sent
    }

    fn wanted(&self) -> Interest {
        Interest {
            read: !self.closing && !self.eof,
            write: self.pending() > 0,
        }
    }
}

/// Runs one front's whole TCP life on the calling thread: accepts,
/// reads, dispatches complete lines through a per-connection handler
/// minted by `new_handler`, writes buffered responses, and enforces the
/// idle deadline, the connection cap, and the stop flag. Returns when
/// `stop` is set (in-band `shutdown` sets it from a dispatch) and every
/// farewell has drained, or when the listener itself dies.
pub(crate) fn run_event_loop<H, F>(
    mut poller: Poller,
    listener: &TcpListener,
    config: &LoopConfig,
    stop: &AtomicBool,
    mut new_handler: F,
) where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
    F: FnMut() -> H,
{
    const LISTENER: u64 = u64::MAX;
    let mut conns: HashMap<u64, Conn<H>> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut listening = poller
        .add(raw_fd(listener), LISTENER, Interest::READ)
        .is_ok();
    if !listening {
        return;
    }
    let mut announced = false;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        if stopping && !announced {
            // Mirror the threaded front: buffered complete lines still
            // run, then every surviving session hears why it's closing.
            announced = true;
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            if listening {
                let _ = poller.remove(raw_fd(listener));
                listening = false;
            }
            let mut dead = Vec::new();
            for (&token, conn) in conns.iter_mut() {
                drain_lines(conn, stop);
                if !conn.closing {
                    conn.out.extend_from_slice(STOPPING);
                    conn.closing = true;
                }
                if !flush_and_update(&mut poller, token, conn) {
                    dead.push(token);
                }
            }
            for token in dead {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        if stopping {
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || expired {
                break;
            }
        }
        if poller.wait(&mut events, config.tick).is_err() {
            break;
        }
        let fired: Vec<PollEvent> = std::mem::take(&mut events);
        for ev in fired {
            if ev.token == LISTENER {
                if !stopping {
                    accept_burst(
                        &mut poller,
                        listener,
                        config,
                        &mut conns,
                        &mut next_token,
                        &mut new_handler,
                    );
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut alive = true;
            if ev.readable && !conn.closing && !conn.eof {
                alive = read_burst(conn);
                if alive {
                    drain_lines(conn, stop);
                }
            }
            if alive {
                alive = flush_and_update(&mut poller, ev.token, conn);
            }
            if !alive {
                close_conn(&mut poller, &mut conns, ev.token);
            } else if stop.load(Ordering::SeqCst) && !stopping {
                // A dispatch just asked for shutdown: restart the loop
                // so the announce pass runs before further I/O.
                break;
            }
        }
        // Timer pass: idle deadlines, at tick granularity.
        if let Some(limit) = config.idle_timeout {
            let now = Instant::now();
            let mut dead = Vec::new();
            for (&token, conn) in conns.iter_mut() {
                if !conn.closing && now.duration_since(conn.last_activity) >= limit {
                    conn.out.extend_from_slice(IDLE);
                    conn.closing = true;
                    if !flush_and_update(&mut poller, token, conn) {
                        dead.push(token);
                    }
                }
            }
            for token in dead {
                close_conn(&mut poller, &mut conns, token);
            }
        }
    }
}

/// Accepts until the listener would block. Over-cap connections read
/// `err: busy` and are dropped on the spot — the cap check and the
/// close both happen on this thread, so rejection is deterministic.
fn accept_burst<H, F>(
    poller: &mut Poller,
    listener: &TcpListener,
    config: &LoopConfig,
    conns: &mut HashMap<u64, Conn<H>>,
    next_token: &mut u64,
    new_handler: &mut F,
) where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
    F: FnMut() -> H,
{
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if conns.len() >= config.max_connections {
                    let _ = stream.write_all(BUSY);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let mut out = Vec::with_capacity(config.banner.len() + 1);
                out.extend_from_slice(config.banner.as_bytes());
                out.push(b'\n');
                let mut conn = Conn {
                    stream,
                    handler: new_handler(),
                    in_buf: LineBuf::default(),
                    out,
                    sent: 0,
                    eof: false,
                    closing: false,
                    last_activity: Instant::now(),
                    registered: Interest {
                        read: false,
                        write: false,
                    },
                };
                if try_write(&mut conn) {
                    let interest = conn.wanted();
                    if poller.add(raw_fd(&conn.stream), token, interest).is_ok() {
                        conn.registered = interest;
                        conns.insert(token, conn);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A broken listener cannot serve anyone; the wait loop keeps
            // existing sessions alive until they finish.
            Err(_) => return,
        }
    }
}

/// Reads up to [`READ_BURST`] chunks. Returns `false` when the
/// connection died (hard error).
fn read_burst<H>(conn: &mut Conn<H>) -> bool {
    let mut chunk = [0u8; 4096];
    for _ in 0..READ_BURST {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => {
                conn.in_buf.extend(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Dispatches every complete buffered line (and, at EOF, the trailing
/// unterminated line — matching `BufRead::lines` on the stdio front).
/// Pipelined input after `quit`/`shutdown` is discarded, as in the
/// threaded front; so is everything after an over-long line.
fn drain_lines<H>(conn: &mut Conn<H>, stop: &AtomicBool)
where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
{
    while !conn.closing {
        let line = match conn.in_buf.take(conn.eof) {
            NextLine::Line(line) => line,
            NextLine::Pending => break,
            NextLine::TooLong => {
                conn.out.extend_from_slice(line_too_long().as_bytes());
                conn.closing = true;
                conn.in_buf = LineBuf::default();
                break;
            }
        };
        let text = String::from_utf8_lossy(&line).into_owned();
        match (conn.handler)(&text, &mut conn.out) {
            Ok(Dispatch::Continue) => {}
            Ok(Dispatch::Close) => conn.closing = true,
            Ok(Dispatch::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                conn.closing = true;
            }
            // The handler only fails on client-socket errors in the
            // threaded fronts; here output is buffered, so an Err is a
            // codec-internal failure — close the session.
            Err(_) => conn.closing = true,
        }
        // Command execution is never billed as idleness.
        conn.last_activity = Instant::now();
    }
    if conn.eof && conn.in_buf.is_empty() {
        conn.closing = true;
    }
}

/// Greedily writes pending output. Returns `false` when the connection
/// died mid-write.
fn try_write<H>(conn: &mut Conn<H>) -> bool {
    while conn.pending() > 0 {
        match conn.stream.write(&conn.out[conn.sent..]) {
            Ok(0) => return false,
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    // Fully drained: reclaim the buffer.
    conn.out.clear();
    conn.sent = 0;
    true
}

/// Flushes, then settles the connection's fate: `false` means remove it
/// (dead, or closing with everything sent); `true` keeps it registered
/// with its current interest.
fn flush_and_update<H>(poller: &mut Poller, token: u64, conn: &mut Conn<H>) -> bool {
    if !try_write(conn) {
        return false;
    }
    if conn.closing && conn.pending() == 0 {
        return false;
    }
    let wanted = conn.wanted();
    if wanted != conn.registered && poller.modify(raw_fd(&conn.stream), token, wanted).is_ok() {
        conn.registered = wanted;
    }
    true
}

fn close_conn<H>(poller: &mut Poller, conns: &mut HashMap<u64, Conn<H>>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.remove(raw_fd(&conn.stream));
        // Dropping the stream closes the socket; pooled backend
        // connections a handler owns drop with it.
    }
}
