//! The serve-session protocol codec and its two transports.
//!
//! `cpistack serve` exposes a [`CpiService`](super::CpiService) session as
//! a **line protocol**: one command per line in, zero or more payload
//! lines plus exactly one terminator (`ok` or `err: …`) out. This module
//! is the single implementation of that protocol — the command parser,
//! the response formatter, and the session loop — shared by both fronts:
//!
//! * **stdio** — [`run_session`] over any `BufRead`/`Write` pair (the
//!   classic `printf '…' | cpistack serve` path),
//! * **TCP** — [`serve_tcp`] accepts N concurrent connections on a
//!   [`std::net::TcpListener`], each with its own [`CpiClient`] and
//!   session state, an idle timeout, and graceful shutdown (the
//!   `shutdown` command stops the whole server; `quit` only closes the
//!   issuing connection).
//!
//! Because both fronts run the same [`execute_line`] codec against the
//! same deterministic service, a scripted session produces
//! **byte-identical** transcripts over stdin/stdout and over a socket —
//! the golden-file protocol tests pin exactly that.
//!
//! # Tenants and the `hello` handshake
//!
//! Sessions are built from a [`SessionSpec`]. An **open** spec
//! ([`SessionSpec::open`]) runs every session as the client's bound
//! tenant (the implicit local tenant for `CpiService::client()`) — the
//! pre-tenancy behaviour, and still the default for `cpistack serve`
//! without `--auth`. A spec with a token registry
//! ([`SessionSpec::with_auth`]) instead starts every session
//! **unauthenticated**: until a `hello <token>` resolves against the
//! [`auth::TokenRegistry`](super::auth::TokenRegistry), only `hello`,
//! `help` and `quit` are admitted — anything else (including `shutdown`:
//! an anonymous socket must not be able to stop the server) is rejected
//! *before command dispatch* with `err: authenticate first`. A successful
//! `hello` rebinds the session's client to the token's tenant; a later
//! `hello` may rebind to another tenant. Everything a session does —
//! machine registration, ingestion, fits, cache and persisted state,
//! the `stats` line — is scoped to that tenant (see the
//! [service module docs](super) for the isolation guarantees).
//!
//! # Command set
//!
//! ```text
//! hello <token>                                     authenticate as a tenant
//! machine <name> <width> <depth> <l2> <mem> <tlb>   register constants
//! ingest <path>                                     load a counters CSV
//! fit <machine> <suite|all>                         fit or serve from cache
//! stack <machine> <suite|all>                       stream one stack line per benchmark
//! binstack <machine> <suite|all>                    same stacks, one binary frame
//! predict <machine> <suite|all>                     measured vs predicted CPI
//! delta <old> <new> <suite>                         CPI-delta stacks (Fig. 6)
//! sweep <base> <suite> <axis=v,v ...>               design-space sweep, ranked
//! stats                                             service counters (this tenant)
//! help                                              reprint this list
//! quit                                              close this session
//! shutdown                                          stop the whole server
//! ```
//!
//! # Binary framing
//!
//! Bulk stack streams pay line formatting per benchmark; `binstack`
//! instead announces `frame stacks <len>` and follows with exactly `len`
//! raw bytes — a checksummed, length-prefixed frame ([`FRAME_MAGIC`],
//! kind byte, `u32` payload length, payload, FNV-1a checksum) holding
//! every stack of the request. [`decode_stack_frame`] is the client-side
//! inverse; [`read_frame`] pulls one frame off any `Read`. Line-oriented
//! clients that ignore `frame …` announcements never desynchronize: the
//! announce line tells them how many bytes to skip.

use super::auth::TokenRegistry;
use super::persist::fnv64;
use super::poller::{self, Dispatch, LoopConfig, Poller};
use super::sweep::{StackComponent, SweepGrid, SweepSpec, SweepVariantResult};
use super::{
    CpiClient, ModelKey, RefitMode, Request, Response, ServiceConfig, ServiceError, TenantId,
};
use crate::fit::FitOptions;
use crate::params::MicroarchParams;
use crate::stack::CpiStack;
use crate::workbench::MachineSpec;
use pmu::{MachineId, RunRecord, Suite};
use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Text reprinted by the in-session `help` command.
pub const SERVE_HELP: &str = "\
commands (one per line; every command ends with `ok` or `err: ...`):
  hello <token>                                     authenticate as a tenant
  machine <name> <width> <depth> <l2> <mem> <tlb>   register constants
  ingest <path>                                     load a counters CSV
  fit <machine> <suite|all>                         fit or serve from cache
  stack <machine> <suite|all>                       stream one stack per benchmark
  binstack <machine> <suite|all>                    same stacks as one binary frame
  predict <machine> <suite|all>                     measured vs predicted CPI
  delta <old> <new> <suite>                         CPI-delta stacks (Fig. 6)
  sweep <base> <suite> <axis=v,v ...>               design-space sweep, ranked
  stats                                             service counters (this tenant)
  help                                              this list
  quit                                              close this session
  shutdown                                          stop the whole server";

/// The greeting both fronts print when a session opens, so transcripts
/// are front-agnostic.
pub fn banner(config: &ServiceConfig, quick: bool) -> String {
    format!(
        "cpistack serve: {} workers, cache {} models{} (type `help`)",
        config.workers,
        config.cache_capacity,
        if quick { ", quick fits" } else { "" }
    )
}

/// A session-command failure: protocol errors are reported in-band
/// (`err: …`) and the session continues; transport errors abort it.
#[derive(Debug)]
pub enum CommandError {
    /// Malformed or unservable command — written as an `err:` line.
    Protocol(String),
    /// Writing the response failed; the session ends.
    Io(std::io::Error),
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<ServiceError> for CommandError {
    fn from(e: ServiceError) -> Self {
        CommandError::Protocol(e.to_string())
    }
}

/// What a processed line asks the transport to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading commands.
    Continue,
    /// Close this session (the `quit` command).
    Quit,
    /// Close this session *and* stop the server it belongs to (the
    /// `shutdown` command). The stdio front treats it like `quit`.
    Shutdown,
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client sent `quit`.
    Quit,
    /// The client sent `shutdown`.
    Shutdown,
    /// The input reached end-of-stream without a farewell.
    Eof,
}

/// The recipe both fronts mint per-session state from: a base client, the
/// fit options every session key uses, and (optionally) the token
/// registry that gates sessions behind the `hello` handshake. Cheap to
/// clone — the TCP front clones one per connection.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    client: CpiClient,
    options: FitOptions,
    registry: Option<Arc<TokenRegistry>>,
}

impl SessionSpec {
    /// A spec whose sessions run pre-authenticated as `client`'s bound
    /// tenant (the implicit local tenant for `CpiService::client()`) —
    /// no handshake required.
    pub fn open(client: CpiClient, options: FitOptions) -> Self {
        Self {
            client,
            options,
            registry: None,
        }
    }

    /// A spec whose sessions start unauthenticated and must present a
    /// registered token via `hello <token>` before any serving command is
    /// dispatched.
    pub fn with_auth(client: CpiClient, options: FitOptions, registry: Arc<TokenRegistry>) -> Self {
        Self {
            client,
            options,
            registry: Some(registry),
        }
    }

    /// Mints one session's state.
    pub fn session(&self) -> Session {
        Session {
            client: self.client.clone(),
            options: self.options.clone(),
            registry: self.registry.clone(),
            authenticated: self.registry.is_none(),
            stream: None,
        }
    }
}

/// One protocol session's state: the (possibly rebound) client and
/// whether the `hello` handshake has happened. Minted by
/// [`SessionSpec::session`]; consumed line by line by [`execute_line`].
#[derive(Debug)]
pub struct Session {
    client: CpiClient,
    options: FitOptions,
    registry: Option<Arc<TokenRegistry>>,
    authenticated: bool,
    stream: Option<StreamState>,
}

/// The most unflushed `stream rec` rows one session may buffer.
///
/// A flush normally carries one sampling round, at most the paper's
/// 103-benchmark campaign; 8192 rows is some eighty campaigns between
/// flushes. Past it a client is feeding rows without ever flushing, and
/// each row is refused instead of growing the session's memory.
pub const MAX_STREAM_PENDING: usize = 8192;

/// An open `stream` session's buffer and tallies (see [`run_stream`]).
/// Dropped with the session: rows never flushed are never ingested.
#[derive(Debug)]
struct StreamState {
    machine: MachineId,
    suite: Option<Suite>,
    pending: Vec<RunRecord>,
    batches: u64,
    records: u64,
    full: u64,
    incremental: u64,
    cached: u64,
    /// Whether an incremental refit has served since the last full one —
    /// `stream close` reconciles with a forced full refit iff set.
    dirty: bool,
}

impl StreamState {
    fn new(machine: MachineId, suite: Option<Suite>) -> Self {
        Self {
            machine,
            suite,
            pending: Vec::new(),
            batches: 0,
            records: 0,
            full: 0,
            incremental: 0,
            cached: 0,
            dirty: false,
        }
    }
}

impl Session {
    /// The tenant this session currently acts as (meaningful once
    /// [`Session::is_authenticated`]).
    pub fn tenant(&self) -> &TenantId {
        self.client.tenant()
    }

    /// Whether serving commands are admitted: `true` from the start for
    /// open specs, after a valid `hello` otherwise.
    pub fn is_authenticated(&self) -> bool {
        self.authenticated
    }
}

/// The in-band rejection for serving commands on a not-yet-authenticated
/// session.
const AUTH_REQUIRED: &str = "authenticate first: hello <token>";

/// Parses and executes one protocol line, writing every response line
/// (payload + terminator) to `output`. This is the whole codec: both
/// fronts funnel every command through here.
///
/// On a session minted from an auth-gated [`SessionSpec`], every command
/// except `hello`, `help` and `quit` is rejected in-band until a
/// `hello <token>` resolves — the gate runs *before* command dispatch, so
/// an unauthenticated line can never reach the service (or stop the
/// server via `shutdown`).
///
/// # Errors
///
/// Only transport failures; protocol problems are reported in-band as
/// `err: …` lines and the session continues.
pub fn execute_line(
    session: &mut Session,
    line: &str,
    output: &mut impl Write,
) -> std::io::Result<LineOutcome> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let Some(&first) = words.first() else {
        return Ok(LineOutcome::Continue);
    };
    // The handshake itself, and the authentication gate, both run before
    // any command parsing or service dispatch.
    if first == "hello" {
        if words.len() != 2 {
            writeln!(output, "err: usage: hello <token>")?;
            return Ok(LineOutcome::Continue);
        }
        let Some(registry) = session.registry.as_deref() else {
            writeln!(output, "err: token auth is not enabled")?;
            return Ok(LineOutcome::Continue);
        };
        let Some(tenant) = registry.resolve(words[1]) else {
            writeln!(output, "err: bad token")?;
            return Ok(LineOutcome::Continue);
        };
        session.client = session.client.for_tenant(tenant);
        session.authenticated = true;
        writeln!(output, "hello {}", session.tenant())?;
        writeln!(output, "ok")?;
        return Ok(LineOutcome::Continue);
    }
    if !session.authenticated && first != "help" && first != "quit" {
        writeln!(output, "err: {AUTH_REQUIRED}")?;
        return Ok(LineOutcome::Continue);
    }
    // The farewells get the same arity discipline as every other
    // command: a typo like `shutdown now` must not stop a whole
    // multi-client server.
    if first == "quit" || first == "shutdown" {
        if words.len() != 1 {
            writeln!(output, "err: usage: {first}")?;
            return Ok(LineOutcome::Continue);
        }
        writeln!(output, "ok")?;
        return Ok(if first == "quit" {
            LineOutcome::Quit
        } else {
            LineOutcome::Shutdown
        });
    }
    // The streaming verbs mutate per-session state (the open stream's
    // buffer and tallies), so they dispatch here rather than through the
    // stateless `run_command`.
    if first == "stream" {
        match run_stream(session, &words, output) {
            Ok(()) => writeln!(output, "ok")?,
            Err(CommandError::Protocol(msg)) => writeln!(output, "err: {msg}")?,
            Err(CommandError::Io(e)) => return Err(e),
        }
        return Ok(LineOutcome::Continue);
    }
    match run_command(&session.client, &session.options, &words, output) {
        Ok(()) => writeln!(output, "ok")?,
        Err(CommandError::Protocol(msg)) => writeln!(output, "err: {msg}")?,
        Err(CommandError::Io(e)) => return Err(e),
    }
    Ok(LineOutcome::Continue)
}

/// The streamed-ingest verbs. Session-stateful, and — like the cluster's
/// `pullsnap`/`pushsnap` — deliberately absent from `help` (whose text is
/// pinned by golden transcripts): `cpistack watch` is the intended driver,
/// speaking this vocabulary over either front.
///
/// ```text
/// stream open <machine> <suite|all>   start a streamed session
/// stream rec <csv-row>                buffer one counter row (no header)
/// stream flush                        upsert the buffer, refit, report
/// stream close                        flush, reconcile, summarize
/// ```
///
/// Both ends are bounded. A session buffers at most
/// [`MAX_STREAM_PENDING`] unflushed rows: a `rec` past it is refused and
/// buffers nothing. A flush whose batch would push the machine past
/// [`MAX_STREAMED_BENCHMARKS`](super::MAX_STREAMED_BENCHMARKS) distinct
/// workloads is refused by the store, its rows are dropped, and the
/// stream stays open.
///
/// `flush` answers `batch <n> records <r> generation <g> refit
/// <full|incremental|cached> objective <o>`; `close` reconciles with one
/// forced full refit when any incremental refit served the stream, so the
/// final model depends only on the final record set.
fn run_stream(
    session: &mut Session,
    words: &[&str],
    output: &mut impl Write,
) -> Result<(), CommandError> {
    // The session's client/options are cheap clones; taking them up front
    // keeps the mutable borrow of `session.stream` free of conflicts.
    let client = session.client.clone();
    let options = session.options.clone();
    match words.get(1).copied() {
        Some("open") => {
            if words.len() != 4 {
                return Err(CommandError::Protocol(
                    "usage: stream open <machine> <suite|all>".into(),
                ));
            }
            if session.stream.is_some() {
                return Err(CommandError::Protocol(
                    "a stream is already open (flush or close it first)".into(),
                ));
            }
            let machine = parse_machine(words[2])?;
            let suite = parse_suite(words[3])?;
            session.stream = Some(StreamState::new(machine, suite));
            writeln!(
                output,
                "streaming {} {}",
                machine.name(),
                suite.map_or("all", Suite::name)
            )?;
        }
        Some("rec") => {
            if words.len() != 3 {
                return Err(CommandError::Protocol("usage: stream rec <csv-row>".into()));
            }
            let state = session
                .stream
                .as_mut()
                .ok_or_else(|| CommandError::Protocol("no stream is open".into()))?;
            let record = pmu::csv::from_csv_row(words[2])
                .map_err(|e| CommandError::Protocol(e.to_string()))?;
            if record.machine() != state.machine {
                return Err(CommandError::Protocol(format!(
                    "row is for {}, stream is for {}",
                    record.machine().name(),
                    state.machine.name()
                )));
            }
            if state.suite.is_some_and(|s| record.suite() != s) {
                return Err(CommandError::Protocol(format!(
                    "row is for {}, stream is for {}",
                    record.suite().name(),
                    state.suite.map_or("all", Suite::name)
                )));
            }
            if state.pending.len() >= MAX_STREAM_PENDING {
                return Err(CommandError::Protocol(format!(
                    "stream buffer full: {MAX_STREAM_PENDING} unflushed rows (flush first)"
                )));
            }
            state.pending.push(record);
        }
        Some("flush") => {
            if words.len() != 2 {
                return Err(CommandError::Protocol("usage: stream flush".into()));
            }
            let state = session
                .stream
                .as_mut()
                .ok_or_else(|| CommandError::Protocol("no stream is open".into()))?;
            flush_stream_batch(&client, &options, state, output)?;
        }
        Some("close") => {
            if words.len() != 2 {
                return Err(CommandError::Protocol("usage: stream close".into()));
            }
            // Take the state up front: even a failing close leaves the
            // session ready for a fresh `stream open`.
            let mut state = session
                .stream
                .take()
                .ok_or_else(|| CommandError::Protocol("no stream is open".into()))?;
            if !state.pending.is_empty() {
                flush_stream_batch(&client, &options, &mut state, output)?;
            }
            if state.dirty {
                let key = ModelKey::new(state.machine, state.suite, options);
                let (report, mode) = client.refit(key, true)?;
                writeln!(
                    output,
                    "reconciled {} objective {:.6}",
                    mode,
                    report.model.objective()
                )?;
            }
            writeln!(
                output,
                "stream closed: batches {} records {} refits full {} incremental {} cached {}",
                state.batches, state.records, state.full, state.incremental, state.cached
            )?;
        }
        _ => {
            return Err(CommandError::Protocol(
                "usage: stream <open|rec|flush|close>".into(),
            ))
        }
    }
    Ok(())
}

/// Upserts the buffered rows as one batch and serves a refit, reporting
/// what the refit cost — the shared tail of `stream flush` and the
/// implicit flush inside `stream close`.
fn flush_stream_batch(
    client: &CpiClient,
    options: &FitOptions,
    state: &mut StreamState,
    output: &mut impl Write,
) -> Result<(), CommandError> {
    if state.pending.is_empty() {
        return Err(CommandError::Protocol("nothing to flush".into()));
    }
    let rows: Vec<RunRecord> = state.pending.drain(..).collect();
    let (landed, generation) = client.stream_batch(state.machine, rows)?;
    let key = ModelKey::new(state.machine, state.suite, options.clone());
    let (report, mode) = client.refit(key, false)?;
    state.batches += 1;
    state.records += landed as u64;
    match mode {
        RefitMode::Full => state.full += 1,
        RefitMode::Incremental => {
            state.incremental += 1;
            state.dirty = true;
        }
        RefitMode::Cached => state.cached += 1,
    }
    writeln!(
        output,
        "batch {} records {} generation {} refit {} objective {:.6}",
        state.batches,
        landed,
        generation,
        mode,
        report.model.objective()
    )?;
    Ok(())
}

/// Runs a whole scripted session over a blocking `BufRead` — the stdio
/// front, and the harness the golden-file protocol tests drive. Invalid
/// UTF-8 in the input is replaced, not fatal, exactly as on the TCP
/// front — a stray byte earns an in-band `err:`, never a dead session.
///
/// # Errors
///
/// Transport failures only.
pub fn run_session(
    session: &mut Session,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<SessionEnd> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            return Ok(SessionEnd::Eof);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        match execute_line(session, &line, &mut output)? {
            LineOutcome::Continue => {}
            LineOutcome::Quit => return Ok(SessionEnd::Quit),
            LineOutcome::Shutdown => return Ok(SessionEnd::Shutdown),
        }
    }
}

fn parse_machine(word: &str) -> Result<MachineId, CommandError> {
    MachineId::from_str(word).map_err(|e| CommandError::Protocol(e.to_string()))
}

/// Parses the `<suite|all>` protocol word.
fn parse_suite(word: &str) -> Result<Option<Suite>, CommandError> {
    if word == "all" {
        return Ok(None);
    }
    Suite::from_str(word)
        .map(Some)
        .map_err(|e| CommandError::Protocol(e.to_string()))
}

/// Parses the `sweep` verb's words into a [`SweepSpec`]:
/// `sweep <base> <suite> [rob|mshr|dw|pf=v,v...] [uops=N] [seed=N]
/// [limit=N] [component=NAME] [only=v1,v2]`. The grid may be empty (the
/// sweep then serves the base alone); the session's fit options become
/// the spec's.
fn parse_sweep_spec(words: &[&str], options: &FitOptions) -> Result<SweepSpec, CommandError> {
    const USAGE: &str = "usage: sweep <base> <suite> [rob|mshr|dw|pf=v,v...] \
                         [uops=N] [seed=N] [limit=N] [component=NAME] [only=v1,v2]";
    if words.len() < 3 {
        return Err(CommandError::Protocol(USAGE.into()));
    }
    let base = parse_machine(words[1])?;
    let suite = parse_suite(words[2])?
        .ok_or_else(|| CommandError::Protocol("sweep needs a concrete suite, not `all`".into()))?;
    let mut spec = SweepSpec::new(base, SweepGrid::new(), suite);
    spec.options = options.clone();
    let number = |key: &str, value: &str| -> Result<u64, CommandError> {
        value
            .parse::<u64>()
            .map_err(|_| CommandError::Protocol(format!("bad {key} value `{value}`")))
    };
    for arg in &words[3..] {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(CommandError::Protocol(format!(
                "expected key=value, got `{arg}` ({USAGE})"
            )));
        };
        match key {
            "uops" => spec.uops = number(key, value)?,
            "seed" => spec.seed = number(key, value)?,
            "limit" => spec.limit = Some(number(key, value)? as usize),
            "component" => {
                spec.component = value
                    .parse()
                    .map_err(|e: super::sweep::SweepError| CommandError::Protocol(e.to_string()))?;
            }
            "only" => {
                let mut ids = Vec::new();
                for name in value.split(',') {
                    ids.push(parse_machine(name)?);
                }
                spec.only = Some(ids);
            }
            _ => spec
                .grid
                .parse_arg(arg)
                .map_err(|e| CommandError::Protocol(e.to_string()))?,
        }
    }
    spec.check_bounds()
        .map_err(|e| CommandError::Protocol(e.to_string()))?;
    Ok(spec)
}

fn run_command(
    client: &CpiClient,
    options: &FitOptions,
    words: &[&str],
    output: &mut impl Write,
) -> Result<(), CommandError> {
    let arity = |n: usize, usage: &str| -> Result<(), CommandError> {
        if words.len() == n + 1 {
            Ok(())
        } else {
            Err(CommandError::Protocol(format!("usage: {usage}")))
        }
    };
    let key = |machine: &str, suite: &str| -> Result<ModelKey, CommandError> {
        Ok(ModelKey::new(
            parse_machine(machine)?,
            parse_suite(suite)?,
            options.clone(),
        ))
    };
    match words[0] {
        "help" => writeln!(output, "{SERVE_HELP}")?,
        "machine" => {
            arity(6, "machine <name> <width> <depth> <l2> <mem> <tlb>")?;
            let machine = parse_machine(words[1])?;
            let mut nums = [0.0f64; 5];
            for (slot, word) in nums.iter_mut().zip(&words[2..]) {
                *slot = word
                    .parse()
                    .map_err(|_| CommandError::Protocol(format!("`{word}` is not a number")))?;
                if !slot.is_finite() || *slot <= 0.0 {
                    return Err(CommandError::Protocol(format!(
                        "`{word}` must be a positive finite number"
                    )));
                }
            }
            let [width, depth, l2, mem, tlb] = nums;
            client.register(MachineSpec::real(
                machine,
                MicroarchParams::new(width, depth, l2, mem, tlb),
            ))?;
            writeln!(output, "registered {}", machine.name())?;
        }
        "ingest" => {
            arity(1, "ingest <path>")?;
            let path = words[1];
            let text = std::fs::read_to_string(path)
                .map_err(|e| CommandError::Protocol(format!("reading `{path}` failed: {e}")))?;
            let records = client.ingest_csv(&text, path)?;
            writeln!(output, "ingested {records} records from {path}")?;
        }
        "fit" => {
            arity(2, "fit <machine> <suite|all>")?;
            let (report, predictions) = client.predictions(key(words[1], words[2])?)?;
            writeln!(output, "model: {}", report.model)?;
            writeln!(
                output,
                "records: {}  cache: {}",
                report.records,
                if report.cached { "hit" } else { "miss" }
            )?;
            let mean = predictions
                .iter()
                .map(|(_, measured, predicted)| ((predicted - measured) / measured).abs())
                .sum::<f64>()
                / predictions.len().max(1) as f64;
            writeln!(output, "accuracy: mean abs error {:.2}%", mean * 100.0)?;
        }
        "stack" => {
            // Stream each stack as the worker produces it — a large
            // campaign is never buffered whole (the module docs promise
            // this), and the first lines appear while later ones compute.
            arity(2, "stack <machine> <suite|all>")?;
            let mut served = false;
            for response in client.submit(Request::Stacks(key(words[1], words[2])?)) {
                match response {
                    Response::Model(_) => served = true,
                    Response::Stack { benchmark, stack } => {
                        writeln!(output, "stack {benchmark} {stack}")?;
                    }
                    Response::Error(e) => return Err(e.into()),
                    _ => {}
                }
            }
            if !served {
                return Err(ServiceError::Stopped.into());
            }
        }
        "binstack" => {
            // The bulk path: the same stacks, collected and shipped as one
            // length-prefixed checksummed frame instead of N format!ed
            // lines.
            arity(2, "binstack <machine> <suite|all>")?;
            let (_, stacks) = client.stacks(key(words[1], words[2])?)?;
            let frame = encode_stack_frame(&stacks);
            writeln!(output, "frame stacks {}", frame.len())?;
            output.write_all(&frame)?;
        }
        "predict" => {
            arity(2, "predict <machine> <suite|all>")?;
            let mut served = false;
            for response in client.submit(Request::Predictions(key(words[1], words[2])?)) {
                match response {
                    Response::Model(_) => served = true,
                    Response::Prediction {
                        benchmark,
                        measured,
                        predicted,
                    } => {
                        writeln!(
                            output,
                            "predict {benchmark} measured {measured:.4} predicted {predicted:.4}"
                        )?;
                    }
                    Response::Error(e) => return Err(e.into()),
                    _ => {}
                }
            }
            if !served {
                return Err(ServiceError::Stopped.into());
            }
        }
        "delta" => {
            arity(3, "delta <old> <new> <suite>")?;
            let suite = parse_suite(words[3])?.ok_or_else(|| {
                CommandError::Protocol("delta needs a concrete suite, not `all`".into())
            })?;
            let delta = client.delta(
                parse_machine(words[1])?,
                parse_machine(words[2])?,
                suite,
                options.clone(),
            )?;
            writeln!(output, "{delta}")?;
        }
        "sweep" => {
            // Streaming like `stack`: one `variant …` line per grid point
            // as its model is served, then the Pareto front and a summary
            // tallying what the sweep actually had to simulate — `configs
            // 0 runs 0` is the warm re-sweep signature the CI smoke pins.
            let spec = parse_sweep_spec(words, options)?;
            let component = spec.component;
            let ((configs, runs), stream) = client.sweep_begin(spec)?;
            let mut summary = None;
            for response in stream {
                match response {
                    Response::SweepVariant(v) => write_sweep_variant(output, &v, component)?,
                    Response::SweepSummary(s) => summary = Some(*s),
                    Response::Error(e) => return Err(e.into()),
                    _ => {}
                }
            }
            let summary = summary.ok_or(ServiceError::Stopped)?;
            let front: Vec<&str> = summary.pareto.iter().map(|id| id.name()).collect();
            write_sweep_tail(
                output,
                &front,
                summary.results.len(),
                configs + summary.simulated_configs,
                runs + summary.simulated_runs,
            )?;
        }
        "stats" => {
            arity(0, "stats")?;
            // Tenant-scoped by construction: the client is bound to the
            // session's tenant, so one tenant's counters are invisible in
            // another's stats line.
            let stats = client.stats()?;
            let mut line = format!(
                "stats: requests {} fits {} hits {} misses {} warm {} evictions {} \
                 invalidations {} records {} workers {} tenant {}",
                stats.requests,
                stats.fits,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.warm_loads,
                stats.cache.evictions,
                stats.cache.invalidations,
                stats.ingested_records,
                stats.workers,
                client.tenant()
            );
            // The refit split rides along only once a refit has actually
            // run: the zero-state line is pinned byte-exact by golden
            // transcripts that predate streaming.
            if stats.cache.full_refits + stats.cache.incremental_refits > 0 {
                use std::fmt::Write as _;
                let _ = write!(
                    line,
                    " refits full {} incremental {}",
                    stats.cache.full_refits, stats.cache.incremental_refits
                );
            }
            // Fit-effort profile, same deal: it only appears once a
            // regression has actually spent objective evaluations, so the
            // pinned zero-state transcripts stay byte-exact. Eval counts
            // only — they are schedule-independent, so transcripts stay
            // deterministic (and router-vs-direct byte-identical); the
            // wall-clock half of the profile lives in `CacheStats::
            // fit_wall_us` for in-process callers and the bench snapshot.
            if stats.cache.fit_evals > 0 {
                use std::fmt::Write as _;
                let _ = write!(line, " fit evals {}", stats.cache.fit_evals);
            }
            writeln!(output, "{line}")?;
        }
        // The two replication verbs the cluster router speaks between
        // nodes (see [`super::cluster`]). Deliberately absent from
        // `help`: they are node-to-node plumbing, not part of the client
        // command surface, and the help text is pinned by golden
        // transcripts. Snapshots travel hex-encoded on one line so the
        // *inbound* protocol stays purely line-oriented (a snapshot is
        // ~200 bytes — 2× expansion is noise next to a fit).
        "pullsnap" => {
            arity(2, "pullsnap <machine> <suite|all>")?;
            let Some(bytes) = client.export_snapshot(&key(words[1], words[2])?)? else {
                return Err(CommandError::Protocol(format!(
                    "no snapshot for `{} {}`",
                    words[1], words[2]
                )));
            };
            write_snapshot(output, &bytes)?;
        }
        "pushsnap" => {
            arity(1, "pushsnap <hex-snapshot>")?;
            let bytes = hex_decode(words[1])
                .ok_or_else(|| CommandError::Protocol("malformed snapshot hex".into()))?;
            client.import_snapshot(&bytes)?;
            writeln!(output, "installed")?;
        }
        // The record-shipping pair: when a two-machine request (delta, a
        // partitioned sweep) spans ring owners, the router pulls the
        // missing machine's *records* from its owner and pushes them to
        // the serving node, so the single-node fitting path — and its
        // byte-exact results — apply unchanged. The arch constants ride
        // along as raw f64 bits so the re-fit is against the exact spec.
        // Hidden from `help` like `pullsnap`/`pushsnap`: node-to-node
        // plumbing, not client surface.
        "pullrecs" => {
            arity(1, "pullrecs <machine>")?;
            let machine = parse_machine(words[1])?;
            let (arch, records) = client.export_records(machine)?;
            write_records(output, machine, &arch, &records)?;
        }
        "pushrecs" => {
            arity(3, "pushrecs <machine> <hex-arch> <hex-csv>")?;
            let machine = parse_machine(words[1])?;
            let arch_bytes = hex_decode(words[2])
                .filter(|b| b.len() == 40)
                .ok_or_else(|| CommandError::Protocol("malformed arch hex".into()))?;
            let mut constants = [0.0f64; 5];
            for (slot, chunk) in constants.iter_mut().zip(arch_bytes.chunks(8)) {
                *slot = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if constants.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return Err(CommandError::Protocol(
                    "arch constants must be positive and finite".into(),
                ));
            }
            let [width, depth, l2, mem, tlb] = constants;
            let text = hex_decode(words[3])
                .and_then(|b| String::from_utf8(b).ok())
                .ok_or_else(|| CommandError::Protocol("malformed records hex".into()))?;
            let records =
                pmu::csv::from_csv(&text).map_err(|e| CommandError::Protocol(e.to_string()))?;
            if records.iter().any(|r| r.machine() != machine) {
                return Err(CommandError::Protocol(format!(
                    "records are not all for `{}`",
                    machine.name()
                )));
            }
            let spec = MachineSpec::real(machine, MicroarchParams::new(width, depth, l2, mem, tlb));
            let (installed, generation) = client.import_records(spec, records)?;
            writeln!(output, "installed {installed} generation {generation}")?;
        }
        other => {
            return Err(CommandError::Protocol(format!(
                "unknown command `{other}` (type `help`)"
            )))
        }
    }
    Ok(())
}

// The node-side renderers of the replies the cluster router reads back
// (its parsers in `cluster` are property-tested against these).

/// Writes one streamed `variant …` line of a `sweep` reply.
pub(crate) fn write_sweep_variant(
    output: &mut impl Write,
    v: &SweepVariantResult,
    component: StackComponent,
) -> std::io::Result<()> {
    writeln!(
        output,
        "variant {} cpi {:.4} {} {:.4} delta {:+.4} benchmarks {} cache {}",
        v.id.name(),
        v.cpi,
        component,
        v.component,
        v.delta.overall.total(),
        v.benchmarks,
        if v.cached { "hit" } else { "miss" }
    )
}

/// Writes the `pareto …` and `sweep: …` lines closing a `sweep` reply
/// (a node's, or the router's over merged slices).
pub(crate) fn write_sweep_tail(
    output: &mut impl Write,
    pareto: &[&str],
    variants: usize,
    configs: usize,
    runs: usize,
) -> std::io::Result<()> {
    writeln!(output, "pareto {}", pareto.join(" "))?;
    writeln!(
        output,
        "sweep: variants {variants} simulated configs {configs} runs {runs}"
    )
}

/// Writes a `pullsnap` reply's payload line.
pub(crate) fn write_snapshot(output: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    writeln!(output, "snapshot {}", hex_encode(bytes))
}

/// Writes a `pullrecs` reply's payload line: the arch constants as raw
/// little-endian f64 bits and the records as CSV, both hex.
pub(crate) fn write_records(
    output: &mut impl Write,
    machine: MachineId,
    arch: &MicroarchParams,
    records: &[RunRecord],
) -> std::io::Result<()> {
    let mut arch_bytes = Vec::with_capacity(40);
    for v in [arch.width, arch.fe_depth, arch.c_l2, arch.c_mem, arch.c_tlb] {
        arch_bytes.extend_from_slice(&v.to_le_bytes());
    }
    let csv = pmu::csv::to_csv(records);
    writeln!(
        output,
        "records {} {} {}",
        machine.name(),
        hex_encode(&arch_bytes),
        hex_encode(csv.as_bytes())
    )
}

/// Lower-case hex, the `pullsnap`/`pushsnap` wire encoding.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
pub(crate) fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    text.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Binary framing
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CPIB";

/// Frame kind byte for a stack set (the only kind in protocol v1).
pub const FRAME_KIND_STACKS: u8 = 1;

/// The ten [`CpiStack`] fields a frame carries per benchmark, in wire
/// order.
const STACK_FIELDS: usize = 10;

/// Hard ceiling on a frame's payload length, checked *before* the
/// payload buffer is allocated — a corrupted or hostile length field must
/// not turn into a multi-gigabyte allocation. Generous: a stack entry is
/// ~100 bytes, so this admits well over half a million benchmarks.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Encodes a stack set as one frame: [`FRAME_MAGIC`], the kind byte, a
/// `u32` payload length, the payload (`u32` count, then per benchmark a
/// `u16`-length-prefixed name and ten `f64` components), and a trailing
/// FNV-1a checksum covering the kind byte, the length field *and* the
/// payload — so a flipped bit anywhere after the magic fails
/// [`read_frame`]. All integers and floats little-endian.
pub fn encode_stack_frame(stacks: &[(String, CpiStack)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(stacks.len() * 96);
    payload.extend_from_slice(
        &u32::try_from(stacks.len())
            .expect("stack count")
            .to_le_bytes(),
    );
    for (benchmark, stack) in stacks {
        let len = u16::try_from(benchmark.len()).expect("benchmark names are short");
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(benchmark.as_bytes());
        for v in stack_fields(stack) {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(payload.len() + 17);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(FRAME_KIND_STACKS);
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&payload);
    let checksum = fnv64(&frame[FRAME_MAGIC.len()..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

fn stack_fields(s: &CpiStack) -> [f64; STACK_FIELDS] {
    [
        s.base,
        s.l1i,
        s.llc_i,
        s.itlb,
        s.branch,
        s.llc_d,
        s.dtlb,
        s.resource,
        s.branch_resolution,
        s.mlp,
    ]
}

/// Reads exactly one frame (any kind) off a byte stream, validating the
/// magic, the length bound and the checksum (which covers kind + length
/// + payload), and returns `(kind, payload)`.
///
/// # Errors
///
/// `InvalidData` on a bad magic, an over-[`MAX_FRAME_PAYLOAD`] length or
/// a checksum mismatch; any underlying read error.
pub fn read_frame(input: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut head = [0u8; 9];
    input.read_exact(&mut head)?;
    if head[..4] != FRAME_MAGIC {
        return Err(bad("bad frame magic".into()));
    }
    let kind = head[4];
    let len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(bad(format!(
            "frame payload length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    let mut tail = [0u8; 8];
    input.read_exact(&mut tail)?;
    let computed = super::persist::fnv64_update(fnv64(&head[4..]), &payload);
    if u64::from_le_bytes(tail) != computed {
        return Err(bad("frame checksum mismatch".into()));
    }
    Ok((kind, payload))
}

/// Decodes a [`FRAME_KIND_STACKS`] payload back into `(benchmark, stack)`
/// pairs — the client-side inverse of [`encode_stack_frame`].
///
/// # Errors
///
/// `InvalidData` on truncation or trailing garbage.
pub fn decode_stack_frame(payload: &[u8]) -> std::io::Result<Vec<(String, CpiStack)>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let take = |at: &mut usize, n: usize| -> std::io::Result<std::ops::Range<usize>> {
        if *at + n > payload.len() {
            return Err(bad(format!("stack frame truncated at byte {at}")));
        }
        let range = *at..*at + n;
        *at += n;
        Ok(range)
    };
    let mut at = 0;
    let count = u32::from_le_bytes(payload[take(&mut at, 4)?].try_into().unwrap()) as usize;
    // The smallest possible entry is an empty name (2 length bytes) plus
    // ten f64s; a count the payload cannot possibly hold is rejected
    // before it becomes a giant allocation.
    let max_entries = (payload.len() - 4) / (2 + 8 * STACK_FIELDS);
    if count > max_entries {
        return Err(bad(format!(
            "stack count {count} exceeds what {} payload bytes can hold",
            payload.len()
        )));
    }
    let mut stacks = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(payload[take(&mut at, 2)?].try_into().unwrap()) as usize;
        let name = std::str::from_utf8(&payload[take(&mut at, name_len)?])
            .map_err(|_| bad("benchmark name is not utf-8".into()))?
            .to_owned();
        let mut f = [0.0f64; STACK_FIELDS];
        for slot in &mut f {
            *slot = f64::from_le_bytes(payload[take(&mut at, 8)?].try_into().unwrap());
        }
        stacks.push((
            name,
            CpiStack {
                base: f[0],
                l1i: f[1],
                llc_i: f[2],
                itlb: f[3],
                branch: f[4],
                llc_d: f[5],
                dtlb: f[6],
                resource: f[7],
                branch_resolution: f[8],
                mlp: f[9],
            },
        ));
    }
    if at != payload.len() {
        return Err(bad(format!("{} trailing frame bytes", payload.len() - at)));
    }
    Ok(stacks)
}

// ---------------------------------------------------------------------------
// The TCP front
// ---------------------------------------------------------------------------

/// Knobs for [`serve_tcp`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TcpServerConfig {
    /// Greeting written when a connection opens (see [`banner`]).
    pub banner: String,
    /// Close a connection after this long without a complete command
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Connections beyond this are refused with an immediate in-band
    /// `err: busy` and a close. The check is deterministic: a closed
    /// predecessor frees its slot before the next accept is processed.
    pub max_connections: usize,
    /// Timer granularity: bounds how stale idle-deadline and stop-flag
    /// checks can be (the event loop itself sleeps in the kernel, waking
    /// early for socket readiness). Tests drop it to ~2 ms so shutdown
    /// and idle paths resolve quickly.
    pub poll_interval: Duration,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        Self {
            banner: String::new(),
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 64,
            poll_interval: DEFAULT_POLL_INTERVAL,
        }
    }
}

impl TcpServerConfig {
    /// Default limits with a session greeting.
    pub fn new(banner: impl Into<String>) -> Self {
        Self {
            banner: banner.into(),
            ..Self::default()
        }
    }

    /// Sets (or disables) the per-connection idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the concurrent-connection cap (minimum 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the event loop's stop/idle timer tick (clamped to at least
    /// 1 ms — a zero tick would turn the kernel wait into a busy loop).
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval.max(Duration::from_millis(1));
        self
    }
}

/// The default stop/idle polling tick ([`TcpServerConfig::poll_interval`]).
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A running TCP front: the event-loop thread and every connection it serves.
/// Obtained from [`serve_tcp`]; stop it with [`TcpServer::shutdown`] (or
/// remotely, via the protocol's `shutdown` command).
#[derive(Debug)]
pub struct TcpServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Signals the event loop to stop without waiting for it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server stops — either via [`TcpServer::stop`] /
    /// drop, or a client's `shutdown` command. Connections drain before
    /// this returns.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Stops the server and waits for every connection to close.
    pub fn shutdown(self) {
        self.stop();
        self.wait();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the TCP front on an already-bound listener: every accepted
/// connection gets its own [`Session`] minted from `spec` (its own
/// client clone, its own authentication state) and runs the same codec
/// as the stdio front. The service itself is *not* owned here — the
/// caller keeps it, and shuts it down after [`TcpServer::wait`] returns.
///
/// One readiness event loop multiplexes every connection (see
/// [`poller`]).
///
/// # Errors
///
/// Setup failures only: the platform has no poller
/// ([`std::io::ErrorKind::Unsupported`]), the listener cannot be made
/// non-blocking, or the serving thread cannot spawn. Per-connection
/// errors close that connection and never take the server down.
pub fn serve_tcp(
    listener: TcpListener,
    spec: SessionSpec,
    config: TcpServerConfig,
) -> std::io::Result<TcpServer> {
    let local_addr = listener.local_addr()?;
    // Non-blocking accept: the loop must keep observing the stop flag
    // even when no connection ever arrives.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    // The poller opens here (not in the thread) so an unsupported
    // platform fails at setup instead of spawning a dead server.
    let poller = Poller::new()?;
    let accept = std::thread::Builder::new()
        .name("cpi-tcp-front".into())
        .spawn(move || event_front(poller, &listener, &spec, &config, &accept_stop))?;
    Ok(TcpServer {
        local_addr,
        stop,
        accept: Some(accept),
    })
}

/// The readiness-loop front: one thread, every connection. Each line a
/// connection completes runs through the same [`execute_line`] codec as
/// the stdio front, with responses buffered and flushed on write
/// readiness.
fn event_front(
    poller: Poller,
    listener: &TcpListener,
    spec: &SessionSpec,
    config: &TcpServerConfig,
    stop: &AtomicBool,
) {
    let loop_config = LoopConfig {
        banner: config.banner.clone(),
        idle_timeout: config.idle_timeout,
        max_connections: config.max_connections,
        tick: config.poll_interval,
    };
    poller::run_event_loop(poller, listener, &loop_config, stop, || {
        let mut session = spec.session();
        move |line: &str, out: &mut Vec<u8>| {
            execute_line(&mut session, line, out).map(|outcome| match outcome {
                LineOutcome::Continue => Dispatch::Continue,
                LineOutcome::Quit => Dispatch::Close,
                LineOutcome::Shutdown => Dispatch::Shutdown,
            })
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stacks() -> Vec<(String, CpiStack)> {
        (0..3)
            .map(|i| {
                let f = i as f64;
                (
                    format!("bench.{i}"),
                    CpiStack {
                        base: 0.25 + f,
                        l1i: 0.01 * f,
                        llc_i: 0.002,
                        itlb: 0.0,
                        branch: 0.125,
                        llc_d: 0.5,
                        dtlb: 0.03,
                        resource: 0.75,
                        branch_resolution: 11.0,
                        mlp: 1.5 + f,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn stack_frame_round_trips() {
        let stacks = sample_stacks();
        let frame = encode_stack_frame(&stacks);
        let (kind, payload) = read_frame(&mut frame.as_slice()).expect("frame parses");
        assert_eq!(kind, FRAME_KIND_STACKS);
        let back = decode_stack_frame(&payload).expect("payload parses");
        assert_eq!(back, stacks);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = encode_stack_frame(&sample_stacks());
        // Any single flipped byte — magic, kind, length field, payload or
        // checksum — must fail the read, never pass as a different frame.
        for index in 0..frame.len() {
            let mut bad = frame.clone();
            bad[index] ^= 0x40;
            assert!(
                read_frame(&mut bad.as_slice()).is_err(),
                "flip at byte {index} went undetected"
            );
        }
        // Truncation is an UnexpectedEof, not a panic.
        assert!(read_frame(&mut frame[..frame.len() - 3].as_ref()).is_err());
        // A hostile length field is rejected before any allocation.
        let mut huge = frame.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut huge.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // So is a payload whose entry *count* its bytes cannot hold — a
        // validly-checksummed 4-byte payload claiming u32::MAX stacks
        // must be an InvalidData error, not a ~450 GB allocation.
        let err = decode_stack_frame(&u32::MAX.to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn banner_names_the_config() {
        let text = banner(
            &ServiceConfig::new().with_workers(2).with_cache_capacity(4),
            true,
        );
        assert_eq!(
            text,
            "cpistack serve: 2 workers, cache 4 models, quick fits (type `help`)"
        );
    }

    fn streaming_service() -> (super::super::CpiService, CpiClient) {
        use crate::workbench::MachineSpec;
        use oosim::machine::MachineConfig;
        let service = super::super::CpiService::start(ServiceConfig::new().with_workers(2));
        let client = service.client();
        client
            .register(MachineSpec::from(MachineConfig::core2()))
            .expect("register");
        (service, client)
    }

    #[test]
    fn stream_verbs_ingest_refit_and_reconcile() {
        use crate::workbench::SimSource;
        use oosim::machine::MachineConfig;
        use pmu::live::LiveSource as _;
        let (service, client) = streaming_service();
        let records = SimSource::new()
            .suite(specgen::suites::cpu2000().into_iter().take(12).collect())
            .uops(3_000)
            .seed(7)
            .collect_config(&MachineConfig::core2());
        // Round 0 replays verbatim (anchors a full fit); round 1 is
        // jittered but stationary (served by the warm polish).
        let mut source = pmu::live::ReplaySource::new(records)
            .batch_size(12)
            .rounds(2)
            .jitter(3);
        let mut script = String::from("stream open core2 cpu2000\n");
        while let Some(batch) = source.next_batch() {
            for row in pmu::csv::to_csv_rows(&batch).lines() {
                script.push_str("stream rec ");
                script.push_str(row);
                script.push('\n');
            }
            script.push_str("stream flush\n");
        }
        script.push_str("stream close\nstats\nquit\n");
        let mut session = SessionSpec::open(client, FitOptions::quick()).session();
        let mut out = Vec::new();
        let end = run_session(&mut session, script.as_bytes(), &mut out).expect("session runs");
        assert_eq!(end, SessionEnd::Quit);
        let text = String::from_utf8(out).expect("utf8");
        assert!(!text.contains("err:"), "clean transcript, got:\n{text}");
        assert!(text.contains("streaming core2 cpu2000"), "{text}");
        assert!(text.contains("refit full"), "{text}");
        assert!(text.contains("refit incremental"), "{text}");
        assert!(text.contains("reconciled full"), "{text}");
        assert!(
            text.contains(
                "stream closed: batches 2 records 24 refits full 1 incremental 1 cached 0"
            ),
            "{text}"
        );
        // The stats suffix appears exactly once a refit has run: one
        // in-stream full, one polish, one reconciliation.
        assert!(text.contains(" refits full 2 incremental 1"), "{text}");
        service.shutdown();
    }

    #[test]
    fn stream_misuse_is_reported_in_band() {
        let (service, client) = streaming_service();
        let script = "stream\n\
                      stream rec a,b,c\n\
                      stream flush\n\
                      stream close\n\
                      stream open core2 cpu2000\n\
                      stream open core2 all\n\
                      stream flush\n\
                      stream rec not-a-row\n\
                      stream close\n\
                      stats\n\
                      quit\n";
        let mut session = SessionSpec::open(client, FitOptions::quick()).session();
        let mut out = Vec::new();
        run_session(&mut session, script.as_bytes(), &mut out).expect("session runs");
        let text = String::from_utf8(out).expect("utf8");
        let errs: Vec<&str> = text.lines().filter(|l| l.starts_with("err: ")).collect();
        assert_eq!(errs.len(), 7, "one err per misuse, got:\n{text}");
        assert!(errs[0].contains("usage: stream"), "{text}");
        assert!(errs[1].contains("no stream is open"), "{text}");
        assert!(errs[2].contains("no stream is open"), "{text}");
        assert!(errs[3].contains("no stream is open"), "{text}");
        assert!(errs[4].contains("already open"), "{text}");
        assert!(errs[5].contains("nothing to flush"), "{text}");
        // errs[6]: the malformed csv row.
        // Misuse never reached a refit, so the close summary is all
        // zeroes and the pinned stats line keeps its pre-streaming shape
        // (no ` refits …` suffix).
        assert!(
            text.contains(
                "stream closed: batches 0 records 0 refits full 0 incremental 0 cached 0"
            ),
            "{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("stats: ") && !l.contains("refits")),
            "{text}"
        );
        service.shutdown();
    }
}
