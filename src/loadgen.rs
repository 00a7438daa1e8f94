//! `cpistack loadgen` — an open-loop connection-scaling load harness
//! for the serving tier.
//!
//! The readiness-loop TCP fronts (PR 8) claim connection scaling; this
//! module is how the claim is *measured*, not asserted. It drives N
//! concurrent connections × M requests/second each of warm `stack` /
//! `binstack` traffic at a server (a node front or the cluster router —
//! both speak the same protocol) and reports completion counts, in-band
//! protocol errors, dropped connections, and latency percentiles
//! (p50/p95/p99).
//!
//! Scheduling is **open-loop**: every connection sends on its own fixed
//! cadence regardless of whether earlier responses have returned, so a
//! server that falls behind accumulates queueing delay in the measured
//! latencies instead of silently slowing the generator down (the
//! coordinated-omission trap of closed-loop harnesses). Latency is
//! measured from the *scheduled* send time to response completion.
//!
//! Three consumers share this harness: the `cpistack loadgen` CLI
//! subcommand, the `bench` connection-scaling section in
//! [`perf`](crate::perf), and the `loadgen_soak` integration suite
//! (which additionally pins every response byte-identical to a
//! sequential `Workbench::fit` baseline via [`RequestTemplate::expect`]).

use crate::service::poller::{raw_fd, Interest, PollEvent, Poller};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request in the per-connection round-robin script.
#[derive(Debug, Clone)]
pub struct RequestTemplate {
    /// The command line to send (no trailing newline).
    pub line: String,
    /// When set, the complete response (payload lines, any binary
    /// frame, the terminator) must equal these bytes exactly; any
    /// mismatch counts as an error. When unset, a response terminated
    /// by `err: …` counts as an error.
    pub expect: Option<Vec<u8>>,
}

impl RequestTemplate {
    /// A request checked only for an `ok` terminator.
    pub fn new(line: impl Into<String>) -> Self {
        Self {
            line: line.into(),
            expect: None,
        }
    }

    /// A request whose full response bytes are pinned.
    pub fn expecting(line: impl Into<String>, expect: Vec<u8>) -> Self {
        Self {
            line: line.into(),
            expect: Some(expect),
        }
    }
}

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to drive (a node front or a cluster router).
    pub addr: SocketAddr,
    /// Concurrent connections, all established before traffic starts.
    pub connections: usize,
    /// Requests per second *per connection* (open-loop cadence).
    pub rate: f64,
    /// How long each connection keeps scheduling requests.
    pub duration: Duration,
    /// Optional `hello <token>` handshake sent (and verified) before
    /// the measured traffic.
    pub hello: Option<String>,
    /// The request script, cycled per connection. Must be non-empty.
    pub requests: Vec<RequestTemplate>,
    /// Per-connection connect budget.
    pub connect_timeout: Duration,
}

impl LoadgenConfig {
    /// A config with the default warm-traffic shape: `stack` and
    /// `binstack` alternating on one machine/suite.
    pub fn new(addr: SocketAddr, machine: &str, suite: &str) -> Self {
        Self {
            addr,
            connections: 16,
            rate: 10.0,
            duration: Duration::from_secs(2),
            hello: None,
            requests: vec![
                RequestTemplate::new(format!("stack {machine} {suite}")),
                RequestTemplate::new(format!("binstack {machine} {suite}")),
            ],
            connect_timeout: Duration::from_secs(5),
        }
    }

    /// Sets the connection count (minimum 1).
    pub fn with_connections(mut self, connections: usize) -> Self {
        self.connections = connections.max(1);
        self
    }

    /// Sets the per-connection request rate (clamped positive).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = if rate.is_finite() && rate > 0.0 {
            rate
        } else {
            1.0
        };
        self
    }

    /// Sets the traffic duration.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the auth handshake token.
    pub fn with_hello(mut self, token: impl Into<String>) -> Self {
        self.hello = Some(token.into());
        self
    }

    /// Replaces the request script.
    pub fn with_requests(mut self, requests: Vec<RequestTemplate>) -> Self {
        self.requests = requests;
        self
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections the run asked for.
    pub connections: usize,
    /// Connections that established, completed the handshake, and
    /// survived to drain every response.
    pub sustained: usize,
    /// Connections that failed to connect, were rejected (`err: busy`),
    /// or died before draining.
    pub dropped: usize,
    /// Requests written.
    pub sent: u64,
    /// Complete responses read back.
    pub completed: u64,
    /// In-band protocol errors: an `err:` terminator (or, for pinned
    /// requests, any byte mismatch).
    pub errors: u64,
    /// Wall clock of the whole traffic phase.
    pub elapsed: Duration,
    /// Latency percentiles over completed responses, scheduled-send →
    /// response-complete.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst observed.
    pub max: Duration,
}

impl LoadgenReport {
    /// Completed requests per second over the traffic phase.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line human summary (the CLI prints this).
    pub fn summary(&self) -> String {
        format!(
            "loadgen: conns {}/{} sent {} completed {} errors {} dropped {}\n\
             latency: p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms max {:.3} ms ({:.0} req/s)",
            self.sustained,
            self.connections,
            self.sent,
            self.completed,
            self.errors,
            self.dropped,
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.max.as_secs_f64() * 1e3,
            self.throughput(),
        )
    }
}

struct ConnOutcome {
    sent: u64,
    completed: u64,
    errors: u64,
    dropped: bool,
    latencies: Vec<Duration>,
}

/// Runs one load campaign: connect everything, handshake, then open-loop
/// traffic for the configured duration, then drain.
///
/// The generator itself is multiplexed: one thread drives every
/// connection off the same readiness [`Poller`] the serving loop runs
/// on, so measured tail latency reflects the server, not scheduler
/// jitter from hundreds of generator threads.
///
/// # Errors
///
/// Only setup errors fail the call: an empty request script, or a
/// platform without a poller ([`std::io::ErrorKind::Unsupported`]).
/// Connection-level failures are tallied as `dropped` in the report.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    if config.requests.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "loadgen needs at least one request template",
        ));
    }
    run_events(config, Poller::new()?)
}

/// Folds per-connection outcomes into the report.
fn assemble(
    config: &LoadgenConfig,
    outcomes: Vec<ConnOutcome>,
    elapsed: Duration,
) -> LoadgenReport {
    let mut latencies: Vec<Duration> = outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pick = |q: f64| -> Duration {
        if latencies.is_empty() {
            Duration::ZERO
        } else {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx]
        }
    };
    LoadgenReport {
        connections: config.connections,
        sustained: outcomes.iter().filter(|o| !o.dropped).count(),
        dropped: outcomes.iter().filter(|o| o.dropped).count(),
        sent: outcomes.iter().map(|o| o.sent).sum(),
        completed: outcomes.iter().map(|o| o.completed).sum(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        elapsed,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
    }
}

// ---------------------------------------------------------------------------
// The multiplexed (readiness-loop) generator
// ---------------------------------------------------------------------------

/// Where one multiplexed connection is in its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting for the server's banner line.
    Banner,
    /// Waiting for the `hello <token>` acknowledgement.
    Hello,
    /// Measured open-loop traffic (and, after `quit`, its ack).
    Traffic,
}

/// One connection's state on the generator's event loop: buffered
/// unwritten output, the incremental response parser (partial line,
/// pending frame bytes, accumulated response), and the tallies the
/// report is folded from.
struct EventConn {
    stream: TcpStream,
    phase: Duration,
    stage: Stage,
    out: Vec<u8>,
    out_at: usize,
    want_write: bool,
    line: Vec<u8>,
    response: Vec<u8>,
    frame_left: usize,
    sent: u64,
    completed: u64,
    errors: u64,
    latencies: Vec<Duration>,
    quit_sent: bool,
    saw_quit_ack: bool,
    /// Transport death or protocol rejection — counts as dropped.
    failed: bool,
    /// Session complete (quit acked); close cleanly.
    finished: bool,
    /// Deregistered from the poller; terminal.
    done: bool,
}

impl EventConn {
    fn outcome(&self) -> ConnOutcome {
        ConnOutcome {
            sent: self.sent,
            completed: self.completed,
            errors: self.errors,
            dropped: self.failed
                || !self.quit_sent
                || !self.saw_quit_ack
                || self.completed < self.sent,
            latencies: self.latencies.clone(),
        }
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush_conn(conn: &mut EventConn) {
    while conn.out_at < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_at..]) {
            Ok(0) => {
                conn.failed = true;
                return;
            }
            Ok(n) => conn.out_at += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.failed = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_at = 0;
}

/// Aligns the poller's interest set with whether output is pending.
fn sync_interest(poller: &mut Poller, token: u64, conn: &mut EventConn) {
    let want_write = conn.out_at < conn.out.len();
    if want_write != conn.want_write
        && poller
            .modify(
                raw_fd(&conn.stream),
                token,
                Interest {
                    read: true,
                    write: want_write,
                },
            )
            .is_err()
    {
        conn.failed = true;
    }
    conn.want_write = want_write;
}

/// Takes a connection off the loop (terminal).
fn close_conn(poller: &mut Poller, conn: &mut EventConn) {
    if !conn.done {
        let _ = poller.remove(raw_fd(&conn.stream));
        conn.done = true;
    }
}

/// Consumes one chunk of received bytes through the per-connection
/// parser: lines are delimited incrementally, `frame <kind> <len>`
/// announcements switch to raw-byte consumption, and each `ok` / `err:`
/// terminator completes one response. `begin` is the traffic epoch
/// (None during the handshake, when nothing is measured).
fn feed(conn: &mut EventConn, chunk: &[u8], config: &LoadgenConfig, begin: Option<Instant>) {
    let interval = Duration::from_secs_f64(1.0 / config.rate);
    let mut at = 0;
    while at < chunk.len() && !conn.failed && !conn.finished {
        if conn.frame_left > 0 {
            let take = conn.frame_left.min(chunk.len() - at);
            conn.response.extend_from_slice(&chunk[at..at + take]);
            conn.frame_left -= take;
            at += take;
            continue;
        }
        let Some(pos) = chunk[at..].iter().position(|b| *b == b'\n') else {
            conn.line.extend_from_slice(&chunk[at..]);
            return;
        };
        conn.line.extend_from_slice(&chunk[at..at + pos + 1]);
        at += pos + 1;
        let line = std::mem::take(&mut conn.line);
        on_line(conn, &line, config, begin, interval);
    }
}

/// Handles one complete received line for `conn`.
fn on_line(
    conn: &mut EventConn,
    line: &[u8],
    config: &LoadgenConfig,
    begin: Option<Instant>,
    interval: Duration,
) {
    let text = String::from_utf8_lossy(line);
    let trimmed = text.trim_end_matches(['\n', '\r']);
    if conn.stage == Stage::Banner {
        // The banner is not part of any response. An over-cap server
        // answers `err: busy` here instead.
        if trimmed.starts_with("err:") {
            conn.failed = true;
        } else {
            conn.stage = if config.hello.is_some() {
                Stage::Hello
            } else {
                Stage::Traffic
            };
        }
        return;
    }
    conn.response.extend_from_slice(line);
    if trimmed == "ok" {
        finish_response(conn, true, config, begin, interval);
    } else if trimmed.starts_with("err:") {
        finish_response(conn, false, config, begin, interval);
    } else if let Some(rest) = trimmed.strip_prefix("frame ") {
        // `frame <kind> <len>`: exactly `len` raw bytes follow (they may
        // contain `\n`, which is why the parser switches modes here).
        match rest.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
            Some(len) => conn.frame_left = len,
            None => conn.failed = true,
        }
    }
}

/// One response completed (its terminator arrived): classify, time, and
/// advance the session.
fn finish_response(
    conn: &mut EventConn,
    terminated_ok: bool,
    config: &LoadgenConfig,
    begin: Option<Instant>,
    interval: Duration,
) {
    let response = std::mem::take(&mut conn.response);
    match conn.stage {
        Stage::Banner => unreachable!("banner lines never complete a response"),
        Stage::Hello => {
            if terminated_ok {
                conn.stage = Stage::Traffic;
            } else {
                conn.failed = true;
            }
        }
        Stage::Traffic => {
            if conn.completed < conn.sent {
                // A measured response. Responses return in send order
                // (one session, FIFO), so response k answers request k,
                // which was scheduled at phase + k·interval.
                let template = &config.requests[(conn.completed as usize) % config.requests.len()];
                let ok = match &template.expect {
                    Some(expect) => response == *expect,
                    None => terminated_ok,
                };
                if !ok {
                    conn.errors += 1;
                }
                if let Some(begin) = begin {
                    let scheduled = conn.phase + interval.mul_f64(conn.completed as f64);
                    conn.latencies
                        .push(begin.elapsed().saturating_sub(scheduled));
                }
                conn.completed += 1;
            } else {
                // The response beyond the sent count is the quit ack.
                conn.saw_quit_ack = terminated_ok;
                conn.finished = true;
            }
        }
    }
}

/// Drains every readable byte into the parser; EOF or a transport error
/// ends the connection.
fn read_ready(conn: &mut EventConn, config: &LoadgenConfig, begin: Option<Instant>) {
    let mut buf = [0u8; 4096];
    while !conn.failed && !conn.finished {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF before the quit ack is a premature hangup.
                conn.failed = !conn.saw_quit_ack;
                conn.finished = true;
                return;
            }
            Ok(n) => feed(conn, &buf[..n], config, begin),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.failed = true;
                return;
            }
        }
    }
}

/// The multiplexed campaign: all connections on one readiness loop.
fn run_events(config: &LoadgenConfig, mut poller: Poller) -> std::io::Result<LoadgenReport> {
    let started = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / config.rate);
    let mut outcomes: Vec<ConnOutcome> = Vec::new();
    let mut conns: Vec<EventConn> = Vec::new();

    // Connect phase. Stagger connection phases uniformly across the
    // whole fleet so the aggregate arrival process is smooth: with N
    // connections the wire sees one request every interval/N, never an
    // N-wide burst.
    for i in 0..config.connections {
        let phase = interval.mul_f64(i as f64 / config.connections.max(1) as f64);
        let Ok(stream) = TcpStream::connect_timeout(&config.addr, config.connect_timeout) else {
            outcomes.push(ConnOutcome {
                sent: 0,
                completed: 0,
                errors: 0,
                dropped: true,
                latencies: Vec::new(),
            });
            continue;
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            outcomes.push(ConnOutcome {
                sent: 0,
                completed: 0,
                errors: 0,
                dropped: true,
                latencies: Vec::new(),
            });
            continue;
        }
        let mut out = Vec::new();
        if let Some(token) = &config.hello {
            out.extend_from_slice(format!("hello {token}\n").as_bytes());
        }
        conns.push(EventConn {
            stream,
            phase,
            stage: Stage::Banner,
            out,
            out_at: 0,
            want_write: false,
            line: Vec::new(),
            response: Vec::new(),
            frame_left: 0,
            sent: 0,
            completed: 0,
            errors: 0,
            latencies: Vec::new(),
            quit_sent: false,
            saw_quit_ack: false,
            failed: false,
            finished: false,
            done: false,
        });
    }
    for (token, conn) in conns.iter_mut().enumerate() {
        if poller
            .add(raw_fd(&conn.stream), token as u64, Interest::READ)
            .is_err()
        {
            conn.failed = true;
            conn.done = true;
            continue;
        }
        flush_conn(conn);
        sync_interest(&mut poller, token as u64, conn);
    }

    // Handshake phase (the barrier equivalent): traffic starts only once
    // every surviving connection has its banner (and hello ack).
    let mut events: Vec<PollEvent> = Vec::new();
    let handshake_deadline = Instant::now() + config.connect_timeout;
    while conns
        .iter()
        .any(|c| !c.done && (c.failed || c.stage != Stage::Traffic))
    {
        for conn in conns.iter_mut().filter(|c| !c.done && c.failed) {
            close_conn(&mut poller, conn);
        }
        if conns
            .iter()
            .all(|c| c.done || c.stage == Stage::Traffic && !c.failed)
        {
            break;
        }
        if Instant::now() >= handshake_deadline {
            for conn in conns.iter_mut().filter(|c| c.stage != Stage::Traffic) {
                conn.failed = true;
                close_conn(&mut poller, conn);
            }
            break;
        }
        poller.wait(&mut events, Duration::from_millis(10))?;
        for event in &events {
            let conn = &mut conns[event.token as usize];
            if conn.done {
                continue;
            }
            if event.readable {
                read_ready(conn, config, None);
            }
            if event.writable && !conn.failed {
                flush_conn(conn);
            }
            sync_interest(&mut poller, event.token, conn);
        }
    }

    // Traffic phase: open-loop sends on each connection's schedule, reads
    // as readiness arrives, quit + drain after the duration, and a hard
    // cap so a wedged server cannot hang the generator forever.
    let begin = Instant::now();
    let drain_cap = config.duration + config.connect_timeout + Duration::from_secs(10);
    while !conns.iter().all(|c| c.done) {
        let now = begin.elapsed();
        if now >= drain_cap {
            for conn in conns.iter_mut().filter(|c| !c.done) {
                conn.failed = true;
                close_conn(&mut poller, conn);
            }
            break;
        }
        let mut next_wake = drain_cap;
        for (token, conn) in conns.iter_mut().enumerate() {
            if conn.done {
                continue;
            }
            if conn.failed || conn.finished {
                close_conn(&mut poller, conn);
                continue;
            }
            if !conn.quit_sent {
                if now >= config.duration {
                    conn.out.extend_from_slice(b"quit\n");
                    conn.quit_sent = true;
                } else {
                    while conn.phase + interval.mul_f64(conn.sent as f64) <= now {
                        let template =
                            &config.requests[(conn.sent as usize) % config.requests.len()];
                        conn.out
                            .extend_from_slice(format!("{}\n", template.line).as_bytes());
                        conn.sent += 1;
                    }
                    let due = conn.phase + interval.mul_f64(conn.sent as f64);
                    next_wake = next_wake.min(due.min(config.duration));
                }
                if conn.out_at < conn.out.len() {
                    flush_conn(conn);
                }
                sync_interest(&mut poller, token as u64, conn);
                if conn.failed {
                    close_conn(&mut poller, conn);
                }
            }
        }
        if conns.iter().all(|c| c.done) {
            break;
        }
        let timeout = next_wake
            .checked_sub(begin.elapsed())
            .filter(|d| !d.is_zero())
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(100));
        poller.wait(&mut events, timeout)?;
        for event in &events {
            let conn = &mut conns[event.token as usize];
            if conn.done {
                continue;
            }
            if event.readable {
                read_ready(conn, config, Some(begin));
            }
            if event.writable && !conn.failed && !conn.finished {
                flush_conn(conn);
            }
            if conn.failed || conn.finished {
                close_conn(&mut poller, conn);
            } else {
                sync_interest(&mut poller, event.token, conn);
            }
        }
    }

    outcomes.extend(conns.iter().map(EventConn::outcome));
    Ok(assemble(config, outcomes, started.elapsed()))
}
