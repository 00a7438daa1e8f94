//! Warm traffic and the timed window.
//!
//! One single-threaded open-loop generator sends alternating `stack` /
//! `binstack` requests through the cluster router at a fixed rate while
//! the workload's cold jobs run on the calling thread. A request's latency
//! runs from when it was *due*, so a stall also charges the requests
//! queued behind it. The generator's own lateness (send time minus the
//! later of the due time and the previous reply) is kept apart: a
//! generator that fell behind does not measure the server.

use crate::report::{describe, median, tail, Ledger};
use crate::trace::{Tracer, NO_SPAN};
use memodel::service::proto;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Warm requests per second. A closed-loop warm `stack` through the
/// router takes about 0.25 ms on a 2-core VM (about 4 000 requests/s on
/// one connection), so the open loop stays near a sixteenth of that.
pub const RATE: f64 = 250.0;

/// The first cold job starts this long into the window.
const LEAD_S: f64 = 0.5;

/// Calm time after each cold job.
const GAP_S: f64 = 1.0;

/// A warm request sent within this of its due time means the generator
/// has caught up with any backlog.
const CAUGHT_UP_S: f64 = 0.001;

/// Every window runs at least this many cold jobs, whatever its length.
const MIN_JOBS: usize = 2;

/// One protocol connection over TCP.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects and swallows the banner line.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut banner = String::new();
        match reader.read_line(&mut banner) {
            Ok(0) => Err(format!("{addr} closed before its banner")),
            Ok(_) => Ok(Self { reader }),
            Err(e) => Err(format!("banner from {addr}: {e}")),
        }
    }

    /// Sends one line and returns the complete reply: payload lines, any
    /// binary frame, and the `ok` / `err: ` terminator.
    pub fn send(&mut self, line: &str) -> Result<Vec<u8>, String> {
        self.reader
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = Vec::new();
        loop {
            let mut next = Vec::new();
            let n = self
                .reader
                .read_until(b'\n', &mut next)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection dropped mid-reply".into());
            }
            out.extend_from_slice(&next);
            let text = String::from_utf8_lossy(&next);
            let text = text.trim_end();
            if text == "ok" || text.starts_with("err: ") {
                return Ok(out);
            }
            if let Some(len) = text.strip_prefix("frame stacks ") {
                let len: usize = len
                    .parse()
                    .ok()
                    .filter(|&n| n <= proto::MAX_FRAME_PAYLOAD + 64)
                    .ok_or_else(|| format!("bad frame header `{text}`"))?;
                let start = out.len();
                out.resize(start + len, 0);
                self.reader
                    .read_exact(&mut out[start..])
                    .map_err(|e| format!("read frame: {e}"))?;
            }
        }
    }

    /// [`Conn::send`], with an in-band `err:` turned into an error.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let reply = self.send(line)?;
        let text = String::from_utf8_lossy(&reply).into_owned();
        if is_error(&reply) {
            return Err(format!("`{line}`: {}", text.trim_end()));
        }
        Ok(text)
    }
}

/// Whether a complete reply ended in an in-band error.
pub fn is_error(reply: &[u8]) -> bool {
    let text = String::from_utf8_lossy(reply);
    text.trim_end()
        .rsplit('\n')
        .next()
        .is_some_and(|last| last.starts_with("err: "))
}

/// Checks the content of a warm stack reply: every stack finite, and its
/// components summing to the predicted CPI it reports. Text stacks carry
/// three decimals per term, so the text sum is checked to that rounding.
pub fn check_stacks(reply: &[u8]) -> Result<usize, String> {
    let header = b"frame stacks ";
    if reply.starts_with(header) {
        let newline = reply
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("frame header without newline")?;
        let (_, payload) =
            proto::read_frame(&mut &reply[newline + 1..]).map_err(|e| format!("bad frame: {e}"))?;
        let stacks = proto::decode_stack_frame(&payload).map_err(|e| format!("bad frame: {e}"))?;
        for (name, stack) in &stacks {
            let parts: f64 = stack.components().iter().map(|(_, v)| v).sum();
            let finite = stack.components().iter().all(|(_, v)| v.is_finite());
            if !finite || stack.total() <= 0.0 || (parts - stack.total()).abs() > 1e-9 {
                return Err(format!("stack `{name}` is not a finite sum: {stack}"));
            }
        }
        return Ok(stacks.len());
    }
    let text = String::from_utf8_lossy(reply);
    let mut count = 0;
    for line in text.lines().filter(|l| l.starts_with("stack ")) {
        let mut words = line.split_whitespace().skip(2);
        let cpi: f64 = match (words.next(), words.next(), words.next()) {
            (Some("CPI"), Some(v), Some("=")) => v.parse().map_err(|_| format!("bad `{line}`"))?,
            _ => return Err(format!("bad stack line `{line}`")),
        };
        let mut parts = 0.0;
        for word in words {
            let value = word
                .rsplit_once(':')
                .and_then(|(_, v)| v.parse::<f64>().ok())
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("bad component `{word}` in `{line}`"))?;
            parts += value;
        }
        if !cpi.is_finite() || cpi <= 0.0 || (parts - cpi).abs() > 0.006 {
            return Err(format!("components do not sum to the CPI in `{line}`"));
        }
        count += 1;
    }
    if count == 0 {
        return Err("reply carries no stacks".into());
    }
    Ok(count)
}

/// One completed warm request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the window start to when the request was due.
    pub due: f64,
    /// Due → reply complete, seconds.
    pub latency: f64,
    /// Send time minus the later of due time and previous reply, seconds.
    pub own_late: f64,
    /// Send time minus due time (waiting for earlier replies included).
    pub queued: f64,
}

#[derive(Debug, Default)]
pub struct WarmRun {
    pub samples: Vec<Sample>,
    pub sent: u64,
    pub completed: u64,
}

fn span_name(line: &str) -> &'static str {
    match line.split_whitespace().next() {
        Some("stack") => "warm.stack",
        Some("binstack") => "warm.binstack",
        _ => "warm.other",
    }
}

/// Sends `lines` round-robin at [`RATE`] from `t0` until `stop`. Each
/// reply must be free of `err:` and byte-identical to the first reply to
/// the same line, and the first reply must hold well-formed stacks;
/// anything else, a dropped connection included, is a failed operation.
pub fn generate(
    conn: &mut Conn,
    lines: &[String],
    t0: Instant,
    stop: &AtomicBool,
    ledger: &Ledger,
    tracer: &Tracer,
) -> WarmRun {
    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut run = WarmRun::default();
    let mut first: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut prev_done = t0;
    for i in 0u64.. {
        let due = t0 + period.mul_f64(i as f64);
        while !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let slot = i as usize % lines.len();
        let line = &lines[slot];
        let send_at = Instant::now();
        let result = conn.send(line);
        let done = Instant::now();
        tracer.record(span_name(line), i, NO_SPAN, send_at, done);
        run.sent += 1;
        let own_late = send_at
            .saturating_duration_since(due.max(prev_done))
            .as_secs_f64();
        prev_done = done;
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                ledger.fail(format!("warm `{line}`: {e}"));
                break;
            }
        };
        run.completed += 1;
        if is_error(&reply) {
            let text = String::from_utf8_lossy(&reply);
            ledger.fail(format!("warm `{line}`: {}", text.trim_end()));
            continue;
        }
        match first.iter().find(|(s, _)| *s == slot) {
            Some((_, bytes)) => ledger.check(*bytes == reply, || {
                format!("warm `{line}`: reply differs from the first reply")
            }),
            None => {
                match check_stacks(&reply) {
                    Ok(_) => ledger.ok(),
                    Err(e) => ledger.fail(format!("warm `{line}`: {e}")),
                }
                first.push((slot, reply));
            }
        }
        run.samples.push(Sample {
            due: due.duration_since(t0).as_secs_f64(),
            latency: done.duration_since(due).as_secs_f64(),
            own_late,
            queued: send_at.saturating_duration_since(due).as_secs_f64(),
        });
    }
    run
}

/// Where one cold job ran, seconds from the window start.
#[derive(Debug, Clone, Copy)]
pub struct ColdSpan {
    pub start: f64,
    pub end: f64,
}

pub struct Window<J> {
    pub jobs: Vec<J>,
    pub cold: Vec<ColdSpan>,
    pub warm: WarmRun,
}

/// Runs the timed window: warm traffic on a second thread, cold jobs here.
/// Jobs start [`LEAD_S`] in, each followed by a calm gap of [`GAP_S`]; no
/// job starts that would not end inside `seconds` (judged by the previous
/// one) once [`MIN_JOBS`] ran.
/// A job returns `None` when it failed (and counted the failure itself).
pub fn run_window<J: Send>(
    seconds: f64,
    mut conn: Conn,
    lines: &[String],
    ledger: &Ledger,
    tracer: &Tracer,
    mut job: impl FnMut(usize) -> Option<J>,
) -> Window<J> {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (jobs, cold, warm) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(&mut conn, lines, t0, &stop, ledger, tracer));
        let mut jobs = Vec::new();
        let mut cold = Vec::new();
        let mut next = LEAD_S;
        let mut last = 0.0f64;
        for k in 0usize.. {
            if k >= MIN_JOBS && next + last > seconds {
                break;
            }
            if let Some(wait) =
                (t0 + Duration::from_secs_f64(next)).checked_duration_since(Instant::now())
            {
                std::thread::sleep(wait);
            }
            let start = t0.elapsed().as_secs_f64();
            if let Some(out) = job(k) {
                jobs.push(out);
            }
            let end = t0.elapsed().as_secs_f64();
            cold.push(ColdSpan { start, end });
            last = end - start;
            next = end + GAP_S;
        }
        // Keep warm traffic flowing to the end of the window.
        if let Some(rest) = Duration::from_secs_f64(seconds).checked_sub(t0.elapsed()) {
            std::thread::sleep(rest);
        }
        stop.store(true, Ordering::SeqCst);
        let warm = match generator.join() {
            Ok(warm) => warm,
            Err(panic) => {
                ledger.fail(format!(
                    "warm generator panicked: {}",
                    crate::report::panic_message(&*panic)
                ));
                WarmRun::default()
            }
        };
        (jobs, cold, warm)
    });
    Window { jobs, cold, warm }
}

/// The warm-latency numbers of one window, in ms.
#[derive(Debug, Clone, Copy)]
pub struct WarmStats {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p99_cold_ms: f64,
    pub late_p99_ms: f64,
}

/// Splits warm samples by whether they were due while a cold job ran, or
/// after it while the generator still worked off the backlog the job left
/// behind (a cold job that stalls the warm path delays every request due
/// until the queue drains). The tails are the highest percentile up to
/// p99 with ten samples beyond it.
pub fn warm_stats(warm: &WarmRun, cold: &[ColdSpan], notes: &mut Vec<String>) -> WarmStats {
    let windows: Vec<(f64, f64)> = cold
        .iter()
        .map(|c| {
            let caught_up = warm
                .samples
                .iter()
                .find(|s| s.due > c.end && s.queued < CAUGHT_UP_S)
                .map_or(f64::INFINITY, |s| s.due);
            (c.start, caught_up)
        })
        .collect();
    let inside = |due: f64| {
        windows
            .iter()
            .any(|&(start, end)| due >= start && due < end)
    };
    let (mut calm, mut hot) = (Vec::new(), Vec::new());
    for s in &warm.samples {
        if inside(s.due) {
            hot.push(s.latency * 1e3);
        } else {
            calm.push(s.latency * 1e3);
        }
    }
    let late: Vec<f64> = warm.samples.iter().map(|s| s.own_late * 1e3).collect();
    notes.push(describe("warm latency, due outside cold jobs", "ms", &calm));
    notes.push(describe("warm latency, due during cold jobs", "ms", &hot));
    notes.push(describe("generator lateness", "ms", &late));
    WarmStats {
        p50_ms: median(&calm),
        p99_ms: tail(&calm, 0.99).1,
        p99_cold_ms: tail(&hot, 0.99).1,
        late_p99_ms: tail(&late, 0.99).1,
    }
}
