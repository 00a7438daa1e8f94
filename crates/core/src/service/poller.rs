//! Readiness-driven socket serving: a `mio`-style [`Poller`] over
//! nonblocking sockets, plus the event loop both TCP fronts (the node
//! front in [`proto`](super::proto) and the cluster router in
//! [`cluster`](super::cluster)) run their connections on.
//!
//! One thread owns every connection: sockets are nonblocking, readiness
//! comes from the kernel through `poll(2)` (via the libc std already
//! links), partial lines and frame bytes are buffered per connection,
//! and `--poll-interval` is only the *timer granularity*: the loop
//! sleeps in the kernel until a socket turns ready or the tick elapses,
//! never spinning. The connection cap is enforced at accept time, on the
//! loop's own thread, so the over-cap client deterministically reads
//! `err: busy` and an immediate close.
//!
//! On non-Unix platforms [`Poller::new`] fails with
//! [`io::ErrorKind::Unsupported`], and so do the TCP fronts at setup;
//! the crate still builds there, and the stdio front still serves.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

/// A level-triggered readiness selector over raw file descriptors,
/// backed by `poll(2)`. Register sockets under a caller token, then
/// [`Poller::wait`] blocks in the kernel until one turns ready or the
/// timeout lapses.
#[derive(Debug)]
pub struct Poller {
    backend: PollerBackend,
}

impl Poller {
    /// Opens the platform selector.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] on platforms without `poll(2)`
    /// (non-Unix).
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            backend: PollerBackend::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AlreadyExists`] when `fd` is already registered.
    pub fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.add(fd, token, interest)
    }

    /// Changes the interest set of an already-registered descriptor.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when `fd` is not registered.
    pub fn modify(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Deregisters a descriptor. Must be called *before* the socket is
    /// closed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when `fd` is not registered.
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

// --- Unix: poll(2) through the libc std already links ---------------------

#[cfg(unix)]
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

    /// `nfds_t`: `unsigned long` on Linux glibc/musl and illumos (32 bits
    /// on i686 and armv7), `unsigned int` on macOS, the BSDs and Android.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type Nfds = std::ffi::c_uint;

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

// --- Anywhere else: no poller; the TCP fronts refuse to start -------------

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
/// is answered with an in-band `err: line longer than …` and the
/// connection closes: a
/// connection's input buffer never holds much more than the cap.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// In-band farewell for a line over [`MAX_LINE_BYTES`].
fn line_too_long() -> String {
    format!("err: line longer than {MAX_LINE_BYTES} bytes — closing connection\n")
}

/// What a connection's buffered input holds next.
enum NextLine {
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
struct LineBuf {
    bytes: Vec<u8>,
    /// Length of the newline-free prefix of `bytes` already searched.
    scanned: usize,
}

impl LineBuf {
    fn extend(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Takes the next line. At `eof` an unterminated tail still counts
    /// as a line, like `BufRead::lines` on the stdio front.
    fn take(&mut self, eof: bool) -> NextLine {
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
    /// command — the idle clock (dispatch time is never billed as
    /// idleness).
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
            // Buffered complete lines still run, then every surviving
            // session hears why it's closing.
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
/// Pipelined input after `quit`/`shutdown` is discarded, as on the
/// stdio front; so is everything after an over-long line.
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
            // Output is buffered, so an Err is a codec-internal
            // failure — close the session.
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

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    const TICK: Duration = Duration::from_millis(20);

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socket pair");
        a.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    fn wait(poller: &mut Poller) -> Vec<PollEvent> {
        let mut events = Vec::new();
        poller.wait(&mut events, TICK).expect("wait");
        events
    }

    fn readable(events: &[PollEvent], token: u64) -> bool {
        events.iter().any(|e| e.token == token && e.readable)
    }

    #[test]
    fn duplicate_add_is_already_exists() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 1, Interest::READ).unwrap();
        let err = poller.add(raw_fd(&a), 2, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn modify_and_remove_of_an_unregistered_fd_are_not_found() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        let err = poller.modify(raw_fd(&a), 1, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = poller.remove(raw_fd(&a)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn readiness_is_level_triggered() {
        let (mut a, mut b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 7, Interest::READ).unwrap();
        b.write_all(b"ping\n").unwrap();
        assert!(readable(&wait(&mut poller), 7));
        // Not drained: the next wait reports the same bytes again.
        assert!(readable(&wait(&mut poller), 7));
        let mut buf = [0u8; 16];
        assert_eq!(a.read(&mut buf).unwrap(), 5);
        assert!(wait(&mut poller).is_empty(), "drained socket stays quiet");
    }

    #[test]
    fn peer_hangup_reports_readable_and_reads_eof() {
        let (mut a, b) = pair();
        let (c, d) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 1, Interest::READ).unwrap();
        // A connection waiting only to flush still hears the hangup as
        // readable, so the loop reaps it through a read.
        let write_only = Interest {
            read: false,
            write: true,
        };
        poller.add(raw_fd(&c), 2, write_only).unwrap();
        drop(b);
        drop(d);
        let events = wait(&mut poller);
        assert!(readable(&events, 1), "{events:?}");
        assert!(readable(&events, 2), "{events:?}");
        let mut buf = [0u8; 16];
        assert_eq!(a.read(&mut buf).unwrap(), 0, "EOF after hangup");
    }

    #[test]
    fn write_interest_reports_writable() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 3, Interest::READ).unwrap();
        assert!(
            wait(&mut poller).is_empty(),
            "read interest, nothing to read"
        );
        let both = Interest {
            read: true,
            write: true,
        };
        poller.modify(raw_fd(&a), 3, both).unwrap();
        let events = wait(&mut poller);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 3);
        assert!(events[0].writable && !events[0].readable, "{events:?}");
    }

    #[test]
    fn a_removed_fd_produces_no_events() {
        let (a, mut b) = pair();
        let (c, mut d) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 1, Interest::READ).unwrap();
        poller.add(raw_fd(&c), 2, Interest::READ).unwrap();
        b.write_all(b"x").unwrap();
        d.write_all(b"y").unwrap();
        poller.remove(raw_fd(&a)).unwrap();
        let events = wait(&mut poller);
        assert!(events.iter().all(|e| e.token == 2), "{events:?}");
        assert!(readable(&events, 2), "{events:?}");
    }

    #[test]
    fn an_idle_wait_returns_empty_after_its_timeout() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&a), 1, Interest::READ).unwrap();
        let mut events = vec![PollEvent {
            token: 9,
            readable: true,
            writable: true,
        }];
        let start = Instant::now();
        poller.wait(&mut events, TICK).unwrap();
        assert!(events.is_empty(), "{events:?}");
        assert!(start.elapsed() >= TICK - Duration::from_millis(2));
    }
}
