//! The `cpistack` command-line tool: the paper's workflow (Fig. 1) for
//! users who have *real* performance-counter data.
//!
//! The library's simulator exists because we cannot ship a Pentium 4; a
//! downstream user with actual hardware does not need it — they need
//! exactly three steps: collect counters (perf, perfmon, pfmon …) into a
//! CSV, state the machine's five microarchitectural constants, and fit.
//! This module drives that path through the unified [`Workbench`]
//! pipeline — the same collect → fit → stacks → export stages the
//! examples, campaigns and tests use:
//!
//! ```text
//! cpistack fit   --counters runs.csv --width 4 --depth 14 --l2 19 --mem 169 --tlb 30
//! cpistack stack --counters runs.csv --width 4 --depth 14 --l2 19 --mem 169 --tlb 30
//! cpistack demo  # generates a demo CSV from the built-in simulator
//! cpistack serve # long-lived session: line protocol over stdin/stdout
//! cpistack serve --listen 127.0.0.1:7070 --state-dir /var/lib/cpistack
//!                # same protocol over TCP, models persisted across restarts
//! ```
//!
//! The CSV format is [`pmu::csv`]'s (header + one row per benchmark run);
//! `cpistack demo` writes a valid example to adapt from. Counter CSVs may
//! mix machines: the pipeline fits one model per machine column value,
//! all with the constants given on the command line.
//!
//! Every pipeline failure surfaces as a typed
//! [`PipelineError`] naming the stage (collect →
//! fit → export) that broke; only argument parsing has its own
//! [`CliError::Usage`] variant.
//!
//! # The `serve` protocol and its two transports
//!
//! `cpistack serve` starts a [`CpiService`] session
//! speaking the line protocol implemented by
//! [`service::proto`](crate::service::proto) — one command per line in,
//! zero or more payload lines plus exactly one terminator (`ok` or
//! `err: <message>`) out; the session continues after errors. See the
//! [`proto`] module docs for the command set
//! (including `binstack`, the length-prefixed binary framing for bulk
//! stack streams).
//!
//! Without `--listen` the session runs over stdin/stdout — built for
//! scripting (`printf '…' | cpistack serve`) as much as for interactive
//! use. With `--listen <addr>` the same protocol is served over TCP:
//! the bound address is printed as `listening <addr>` (so `--listen
//! 127.0.0.1:0` scripts cleanly), every connection gets its own client
//! with per-connection state, idle connections are closed after
//! `--idle-timeout` seconds, and the in-band `shutdown` command stops the
//! whole server gracefully — connections drain, then the service exits.
//!
//! Flags: `--workers <N>` (worker shards), `--cache <N>` (model-cache
//! capacity, per tenant), `--quick` (cheap fit options, for smoke
//! tests), `--listen <addr>` (TCP front), `--state-dir <dir>` (persist
//! fitted models across restarts — see
//! [`service::persist`](crate::service::persist)),
//! `--auth <token-file>` (multi-tenant mode: sessions must open with
//! `hello <token>`, tokens minted by `cpistack token` — see
//! [`service::auth`](crate::service::auth)), `--idle-timeout <s>`
//! (0 = never) and `--max-conns <N>` (TCP limits).

use crate::model::workbench::Grouping;
use crate::model::{FitOptions, MicroarchParams};
use crate::service::auth::{self, AuthError, TokenRegistry};
use crate::service::cluster::{ClusterHarness, RouterConfig};
use crate::service::persist::PersistError;
use crate::service::{proto, stream, CpiService, ServiceConfig, ServiceError};
use crate::{CsvSource, PipelineError, SimSource, Workbench};
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Errors surfaced to the CLI user: either the arguments never parsed, or
/// the pipeline failed at a typed stage.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or malformed flags.
    Usage(String),
    /// The pipeline failed; the payload names the stage and cause.
    Pipeline(PipelineError),
    /// Reading commands from / writing responses to the serve session's
    /// transport failed.
    Io(std::io::Error),
    /// The serve session's `--state-dir` could not be opened.
    State(PersistError),
    /// The `--auth` token file could not be loaded, or `cpistack token`
    /// could not mint into it.
    Auth(AuthError),
    /// The `bench --check` regression gate tripped.
    Bench(String),
    /// The `watch` stream's service rejected a batch or refit.
    Watch(ServiceError),
    /// The `loadgen` run saw protocol errors, dropped connections, or
    /// blew its `--budget-ms` latency budget.
    Loadgen(String),
    /// The `sweep` run's service rejected the grid or a fit failed.
    Sweep(ServiceError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "serve session i/o: {e}"),
            CliError::State(e) => write!(f, "serve state dir: {e}"),
            CliError::Auth(e) => write!(f, "auth: {e}"),
            CliError::Bench(msg) => write!(f, "bench regression gate: {msg}"),
            CliError::Watch(e) => write!(f, "watch stream: {e}"),
            CliError::Loadgen(msg) => write!(f, "loadgen gate: {msg}"),
            CliError::Sweep(e) => write!(f, "sweep: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) | CliError::Bench(_) | CliError::Loadgen(_) => None,
            CliError::Pipeline(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::State(e) => Some(e),
            CliError::Auth(e) => Some(e),
            CliError::Watch(e) => Some(e),
            CliError::Sweep(e) => Some(e),
        }
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
cpistack — mechanistic-empirical CPI stacks from performance counters

USAGE:
  cpistack fit   --counters <csv> --width <D> --depth <c_fe> --l2 <c_L2> --mem <c_mem> --tlb <c_TLB>
  cpistack stack --counters <csv> --width <D> --depth <c_fe> --l2 <c_L2> --mem <c_mem> --tlb <c_TLB>
  cpistack demo  [--out <csv>]
  cpistack sweep [--base <machine>] [--suite <s>] [--rob v,v] [--mshr v,v]
                 [--dw v,v] [--pf v,v] [--uops <N>] [--seed <N>]
                 [--benchmarks <N>] [--component <name>] [--quick]
                 [--state-dir <dir>] [--workers <N>]
  cpistack serve [--workers <N>] [--cache <N>] [--quick] [--fit-threads <N>]
                 [--listen <addr>] [--state-dir <dir>] [--auth <token-file>]
                 [--idle-timeout <secs>] [--max-conns <N>] [--poll-interval <ms>]
  cpistack cluster --state-dir <dir> [--nodes <N>] [--replicas <N>]
                 [--listen <addr>] [--workers <N>] [--cache <N>] [--quick]
                 [--auth <token-file>] [--idle-timeout <secs>] [--max-conns <N>]
                 [--poll-interval <ms>] [--probe-interval <ms>]
  cpistack token --auth-file <token-file> --tenant <name>
  cpistack watch [--replay <csv>] [--machine <name>] [--suite <s|all>]
                 [--batch <N>] [--rounds <K>] [--interval-ms <M>]
                 [--jitter <seed>] [--record <csv>] [--quick]
                 [--uops <N>] [--seed <N>] [--benchmarks <N>]
  cpistack bench [--smoke] [--out <json>] [--uops <N>] [--seed <N>]
                 [--threads <N>] [--check <baseline.json>]
  cpistack loadgen --connect <addr> [--conns <N>] [--rate <R>]
                 [--duration-ms <D>] [--mix <text|bin|mixed>]
                 [--machine <name>] [--suite <s>] [--hello <token>]
                 [--budget-ms <X>]

SUBCOMMANDS:
  fit    infer the ten model parameters from the counter data, report
         per-benchmark prediction accuracy (one model per machine in the
         CSV, fitted with the constants above)
  stack  fit, then print one CPI stack per benchmark (and a CSV to stdout
         with --csv)
  demo   write an example counters CSV (generated by the built-in
         simulator's Core 2 preset) to adapt your own data from
  sweep  expand a design-space grid against a base preset (--rob/--mshr/
         --dw/--pf each take a comma-separated value list), simulate and
         fit every distinct variant once, and print the ranked table:
         per-variant mean CPI, the component of interest (--component,
         default llc_d), the CPI delta vs the base, and the Pareto front
         over (CPI, component). --state-dir persists the fitted models,
         so re-sweeping the same grid refits nothing; --benchmarks caps
         the suite for quick scans
  serve  start a long-lived CpiService session speaking a line protocol:
         register machines, ingest counter CSVs, and serve
         fits/stacks/deltas from a shared model cache (type `help` inside
         the session for the command set). Over stdin/stdout by default;
         --listen <addr> serves the same protocol on a TCP socket with
         concurrent connections, and --state-dir <dir> persists fitted
         models so a restarted server warms up without refitting;
         --fit-threads sets the cold-compute budget: the thread count
         of each regression's multi-start fan-out and of each sweep's
         simulation collect pool.
         --auth <token-file> makes the server multi-tenant: every
         session must open with `hello <token>`, and each tenant gets
         its own machine namespace, cache quota and state subdirectory;
         --poll-interval tunes the TCP event loop's stop/idle timer tick
         in milliseconds
  cluster
         start a multi-node serving tier in one process: N backend serve
         nodes plus a router that speaks the identical client protocol,
         consistent-hashes (tenant, machine) keys across the nodes,
         replicates fitted-model snapshots to each key's ring successors
         (--replicas, default 1), and health-probes members so a dead
         node's tenants are served warm by survivors with zero re-fits.
         Prints one `node <name> <addr>` line per backend, then
         `listening <addr>` for the router. --state-dir is required —
         replication needs somewhere to land
  token  mint a session token for a tenant and append it to a token
         file (printed to stdout; pass the file to `serve --auth`)
  watch  pump live counter batches into a warm service and keep the model
         continuously refit: every batch is upserted, then served by the
         cheapest safe refit (cache hit, warm-start polish, or the full
         multi-start fan-out when the workload drifts or the periodic
         re-anchor is due), and the session closes with one
         reconciliation full refit. Batches come from --replay <csv>
         (deterministic replay of recorded counters) or, by default, the
         built-in simulator; --rounds replays the set K times and
         --jitter <seed> perturbs rounds after the first by ±1% to mimic
         run-to-run noise. --interval-ms paces the stream; --record
         appends every streamed batch to a CSV that replays byte-exact
         through --replay; --batch sets records per batch
  bench  time the paper campaign's cold collect (work-stealing pool vs
         strictly sequential, asserting byte-identical records), cold fit
         (parallel vs sequential, asserting byte-identical parameters and
         equal objective-evaluation counts) and warm serve, then write a
         machine-readable snapshot (default BENCH_10.json), including a
         cluster section (router-hop overhead vs direct warm serve) and a
         connection-scaling section (loadgen p99 of the event-loop front
         and of the router at 4× the baseline connection count). --threads
         is one budget for the whole bench: the collect pool's worker
         count and each cold fit's multi-start fan-out cap (concurrent
         fits time-share it); --smoke runs reduced budgets for CI;
         --check <baseline> fails if cold-fit wall-clock regressed >25%
         (cold collect >75%, event-loop p99 >100%: noisier surfaces get
         more slack) against a comparable baseline
  loadgen
         drive open-loop load at a running server (a `serve --listen`
         front or a `cluster` router): --conns concurrent connections ×
         --rate requests/second each of warm `stack`/`binstack` traffic
         for --duration-ms, then print completion counts, in-band error
         and dropped-connection tallies, and p50/p95/p99 latency. The
         target machine/suite (default core2/cpu2000) must already be
         registered and fitted on the server. --mix picks the traffic
         shape (default mixed), --hello authenticates multi-tenant
         servers, and --budget-ms makes the exit status a gate: nonzero
         if any error or drop occurred or p99 exceeded the budget

All subcommands drive the same fitting code path the library exposes:
counters from a pluggable source (CSV here, the simulator for `demo`),
Eq. 1-6 fitted by nonlinear regression, stacks out. One-shot subcommands
use the Workbench builder; `serve` keeps a CpiService warm so repeated
requests hit its model cache. Failures name the stage: collect -> fit ->
export.

The counters CSV uses the column set printed by `cpistack demo`; counts are
raw event totals for the measured region of each benchmark.";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Fit and report accuracy.
    Fit(FitArgs),
    /// Fit and print stacks.
    Stack(FitArgs, bool),
    /// Write a demo CSV.
    Demo {
        /// Output path.
        out: String,
    },
    /// Run a design-space sweep and print the ranked table.
    Sweep(SweepCliArgs),
    /// Start a long-lived serve session (line protocol on stdin/stdout).
    Serve(ServeArgs),
    /// Start an in-process multi-node cluster (router + N serve nodes).
    Cluster(ClusterArgs),
    /// Mint a tenant session token into a token file.
    Token {
        /// The token file to append to (created if missing).
        auth_file: String,
        /// The tenant the token authenticates as.
        tenant: String,
    },
    /// Stream counter batches into a warm service with incremental refits.
    Watch(WatchArgs),
    /// Time the cold/warm paths and write a perf snapshot.
    Bench(BenchArgs),
    /// Drive open-loop load at a running server and report latency.
    Loadgen(LoadgenArgs),
}

/// Arguments for the `loadgen` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadgenArgs {
    /// Server address to drive (`host:port`).
    pub connect: String,
    /// Concurrent connections (`None` = 16).
    pub conns: Option<usize>,
    /// Requests per second per connection (`None` = 10).
    pub rate: Option<f64>,
    /// Traffic duration in milliseconds (`None` = 2000).
    pub duration_ms: Option<u64>,
    /// Traffic shape: `text`, `bin`, or `mixed` (`None` = mixed).
    pub mix: Option<String>,
    /// Machine to request stacks for (`None` = `core2`).
    pub machine: Option<String>,
    /// Suite to request stacks for (`None` = `cpu2000`).
    pub suite: Option<String>,
    /// Session token for multi-tenant servers.
    pub hello: Option<String>,
    /// p99 latency budget in milliseconds; exceeding it (or any error
    /// or drop) makes the exit status nonzero.
    pub budget_ms: Option<f64>,
}

/// Arguments for the `watch` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WatchArgs {
    /// Counters CSV to replay (`None` = generate batches with the
    /// built-in simulator).
    pub replay: Option<String>,
    /// Machine to stream into (`None` = `core2`; simulator batches use
    /// the machine's preset config).
    pub machine: Option<String>,
    /// Suite key to refit (`None` = `cpu2000`; `all` pools suites).
    pub suite: Option<String>,
    /// Records per streamed batch (`None` = the whole record set, one
    /// batch per round).
    pub batch: Option<usize>,
    /// Times the record set is replayed (`None` = 3).
    pub rounds: Option<usize>,
    /// Pause between batches in milliseconds (`None` = flat out).
    pub interval_ms: Option<u64>,
    /// Jitter seed: rounds after the first perturb every counter by ±1%
    /// deterministically (`None` = byte-exact rounds).
    pub jitter: Option<u64>,
    /// Append every streamed batch to this CSV (header written once), so
    /// the live session replays later via `--replay`.
    pub record: Option<String>,
    /// Use [`FitOptions::quick`] instead of the full-budget defaults.
    pub quick: bool,
    /// Simulator µop budget per benchmark run (`None` = 20000).
    pub uops: Option<u64>,
    /// Simulator campaign seed (`None` = 42).
    pub seed: Option<u64>,
    /// Benchmarks per suite in simulator batches (`None` = 12).
    pub benchmarks: Option<usize>,
}

/// Arguments for the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepCliArgs {
    /// Base preset the grid expands against (`None` = `core2`).
    pub base: Option<String>,
    /// Suite to sweep over (`None` = `cpu2000`).
    pub suite: Option<String>,
    /// Comma-separated ROB sizes.
    pub rob: Option<String>,
    /// Comma-separated MSHR counts.
    pub mshr: Option<String>,
    /// Comma-separated dispatch widths.
    pub dw: Option<String>,
    /// Comma-separated prefetch depths.
    pub pf: Option<String>,
    /// Simulator µop budget per benchmark run (`None` = 20000).
    pub uops: Option<u64>,
    /// Simulator campaign seed (`None` = 42).
    pub seed: Option<u64>,
    /// Benchmarks per suite (`None` = the whole suite).
    pub benchmarks: Option<usize>,
    /// Component of interest for the Pareto front (`None` = `llc_d`).
    pub component: Option<String>,
    /// Use [`FitOptions::quick`] instead of the full-budget defaults.
    pub quick: bool,
    /// Persist fitted variant models here; re-sweeps then refit nothing.
    pub state_dir: Option<String>,
    /// Worker-shard count (`None` = one per hardware thread).
    pub workers: Option<usize>,
}

/// Arguments for the `bench` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArgs {
    /// Reduced budgets (CI mode).
    pub smoke: bool,
    /// Snapshot path (`None` = `BENCH_10.json`).
    pub out: Option<String>,
    /// µop budget override.
    pub uops: Option<u64>,
    /// Campaign seed override.
    pub seed: Option<u64>,
    /// Thread budget for the whole bench (`0` = auto) — collect pool
    /// workers, and each cold fit's multi-start fan-out cap.
    pub threads: Option<usize>,
    /// Baseline snapshot to gate cold-collect/cold-fit wall-clock against.
    pub check: Option<String>,
}

/// Arguments for the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeArgs {
    /// Worker-shard count (`None` = one per hardware thread).
    pub workers: Option<usize>,
    /// Model-cache capacity (`None` = the service default).
    pub cache: Option<usize>,
    /// Use [`FitOptions::quick`] instead of the full-budget defaults.
    pub quick: bool,
    /// Serve the protocol on this TCP address instead of stdin/stdout
    /// (`127.0.0.1:0` binds an ephemeral port, printed as `listening …`).
    pub listen: Option<String>,
    /// Persist fitted models under this directory and warm-load them on
    /// cache misses across restarts.
    pub state_dir: Option<String>,
    /// Close idle TCP connections after this many seconds (`0` = never;
    /// `None` = the transport default).
    pub idle_timeout: Option<u64>,
    /// Concurrent TCP connection cap (`None` = the transport default).
    pub max_conns: Option<usize>,
    /// Cold-compute budget on the workers — each regression's fan-out
    /// and each sweep's collect pool (`None` = the request options'
    /// budget, by default one thread per core).
    pub fit_threads: Option<usize>,
    /// Token file enabling multi-tenant auth: every session (stdio and
    /// TCP alike) must then `hello <token>` before serving commands, and
    /// all state is scoped to the resolved tenant. `None` = open server,
    /// implicit local tenant.
    pub auth: Option<String>,
    /// Stop/idle polling tick in milliseconds (`None` = the transport
    /// default, ~50 ms).
    pub poll_interval: Option<u64>,
}

/// Arguments for the `cluster` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArgs {
    /// Root directory for per-node snapshot state (`<dir>/node-<i>`).
    /// Required: replication ships snapshots to successors' stores.
    pub state_dir: String,
    /// Backend node count (`None` = 3).
    pub nodes: Option<usize>,
    /// Ring successors each key's snapshots replicate to (`None` = 1).
    pub replicas: Option<usize>,
    /// The router's client-facing address (`None` = an ephemeral
    /// loopback port, printed as `listening …`).
    pub listen: Option<String>,
    /// Worker-shard count per node (`None` = the service default).
    pub workers: Option<usize>,
    /// Model-cache capacity per node (`None` = the harness default).
    pub cache: Option<usize>,
    /// Use [`FitOptions::quick`] on every node session.
    pub quick: bool,
    /// Token file gating every session behind `hello <token>` — the
    /// router forwards the handshake verbatim, so auth semantics are
    /// exactly a single node's.
    pub auth: Option<String>,
    /// Close idle client connections after this many seconds (`0` =
    /// never; `None` = the transport default).
    pub idle_timeout: Option<u64>,
    /// Concurrent client connection cap (`None` = the transport default).
    pub max_conns: Option<usize>,
    /// Stop/idle polling tick in milliseconds (`None` = ~50 ms).
    pub poll_interval: Option<u64>,
    /// Health-probe period in milliseconds (`0` = no probing; `None` =
    /// the router default, ~1 s).
    pub probe_interval: Option<u64>,
}

/// Arguments shared by `fit` and `stack`.
#[derive(Debug, Clone, PartialEq)]
pub struct FitArgs {
    /// Path to the counters CSV.
    pub counters: String,
    /// The five microarchitectural constants.
    pub arch: MicroarchParams,
}

/// Parses `argv[1..]` into a [`Command`].
///
/// # Errors
///
/// Returns [`CliError::Usage`] on unknown subcommands, missing or
/// malformed flags, and flags the subcommand does not accept.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let sub = args
        .first()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    let accepted = accepted_flags(sub)
        .ok_or_else(|| CliError::Usage(format!("unknown subcommand `{sub}`")))?;
    let flags = parse_flags(&args[1..], sub, accepted)?;
    let get = |name: &str| -> Result<&str, CliError> {
        flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CliError::Usage(format!("missing --{name}")))
    };
    let get_num = |name: &str| -> Result<f64, CliError> {
        get(name)?
            .parse()
            .map_err(|_| CliError::Usage(format!("--{name} must be a number")))
    };
    match sub.as_str() {
        "fit" | "stack" => {
            let fit_args = FitArgs {
                counters: get("counters")?.to_owned(),
                arch: MicroarchParams::new(
                    get_num("width")?,
                    get_num("depth")?,
                    get_num("l2")?,
                    get_num("mem")?,
                    get_num("tlb")?,
                ),
            };
            if sub == "fit" {
                Ok(Command::Fit(fit_args))
            } else {
                let csv = flags.iter().any(|(k, _)| k == "csv");
                Ok(Command::Stack(fit_args, csv))
            }
        }
        "demo" => Ok(Command::Demo {
            out: flags
                .iter()
                .find(|(k, _)| k == "out")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "demo_counters.csv".into()),
        }),
        "sweep" => Ok(Command::Sweep(SweepCliArgs {
            base: flag_text(&flags, "base"),
            suite: flag_text(&flags, "suite"),
            rob: flag_text(&flags, "rob"),
            mshr: flag_text(&flags, "mshr"),
            dw: flag_text(&flags, "dw"),
            pf: flag_text(&flags, "pf"),
            uops: flag_count(&flags, "uops")?,
            seed: flag_count(&flags, "seed")?,
            benchmarks: flag_count(&flags, "benchmarks")?,
            component: flag_text(&flags, "component"),
            quick: flags.iter().any(|(k, _)| k == "quick"),
            state_dir: flag_text(&flags, "state-dir"),
            workers: flag_count(&flags, "workers")?,
        })),
        "serve" => Ok(Command::Serve(ServeArgs {
            workers: flag_count(&flags, "workers")?,
            cache: flag_count(&flags, "cache")?,
            quick: flags.iter().any(|(k, _)| k == "quick"),
            listen: flag_text(&flags, "listen"),
            state_dir: flag_text(&flags, "state-dir"),
            idle_timeout: flag_count(&flags, "idle-timeout")?,
            max_conns: flag_count(&flags, "max-conns")?,
            fit_threads: flag_count(&flags, "fit-threads")?,
            auth: flag_text(&flags, "auth"),
            poll_interval: flag_count(&flags, "poll-interval")?,
        })),
        "cluster" => Ok(Command::Cluster(ClusterArgs {
            state_dir: get("state-dir")?.to_owned(),
            nodes: flag_count(&flags, "nodes")?,
            replicas: flag_count(&flags, "replicas")?,
            listen: flag_text(&flags, "listen"),
            workers: flag_count(&flags, "workers")?,
            cache: flag_count(&flags, "cache")?,
            quick: flags.iter().any(|(k, _)| k == "quick"),
            auth: flag_text(&flags, "auth"),
            idle_timeout: flag_count(&flags, "idle-timeout")?,
            max_conns: flag_count(&flags, "max-conns")?,
            poll_interval: flag_count(&flags, "poll-interval")?,
            probe_interval: flag_count(&flags, "probe-interval")?,
        })),
        "token" => Ok(Command::Token {
            auth_file: get("auth-file")?.to_owned(),
            tenant: get("tenant")?.to_owned(),
        }),
        "watch" => Ok(Command::Watch(WatchArgs {
            replay: flag_text(&flags, "replay"),
            machine: flag_text(&flags, "machine"),
            suite: flag_text(&flags, "suite"),
            batch: flag_count(&flags, "batch")?,
            rounds: flag_count(&flags, "rounds")?,
            interval_ms: flag_count(&flags, "interval-ms")?,
            jitter: flag_count(&flags, "jitter")?,
            record: flag_text(&flags, "record"),
            quick: flags.iter().any(|(k, _)| k == "quick"),
            uops: flag_count(&flags, "uops")?,
            seed: flag_count(&flags, "seed")?,
            benchmarks: flag_count(&flags, "benchmarks")?,
        })),
        "bench" => Ok(Command::Bench(BenchArgs {
            smoke: flags.iter().any(|(k, _)| k == "smoke"),
            out: flag_text(&flags, "out"),
            uops: flag_count(&flags, "uops")?,
            seed: flag_count(&flags, "seed")?,
            threads: flag_count(&flags, "threads")?,
            check: flag_text(&flags, "check"),
        })),
        "loadgen" => Ok(Command::Loadgen(LoadgenArgs {
            connect: get("connect")?.to_owned(),
            conns: flag_count(&flags, "conns")?,
            rate: flag_float(&flags, "rate")?,
            duration_ms: flag_count(&flags, "duration-ms")?,
            mix: flag_text(&flags, "mix"),
            machine: flag_text(&flags, "machine"),
            suite: flag_text(&flags, "suite"),
            hello: flag_text(&flags, "hello"),
            budget_ms: flag_float(&flags, "budget-ms")?,
        })),
        other => unreachable!("accepted_flags knows no subcommand `{other}`"),
    }
}

/// An optional `--name <value>` flag's text.
fn flag_text(flags: &[(String, String)], name: &str) -> Option<String> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

/// An optional `--name <value>` flag parsed as an unsigned count.
fn flag_count<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, CliError> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("--{name} must be a count")))
        })
        .transpose()
}

/// An optional `--name <value>` flag parsed as a float.
fn flag_float(flags: &[(String, String)], name: &str) -> Result<Option<f64>, CliError> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("--{name} must be a number")))
        })
        .transpose()
}

/// The flags `sub` understands (`None` for an unknown subcommand).
fn accepted_flags(sub: &str) -> Option<&'static [&'static str]> {
    Some(match sub {
        "fit" => &["counters", "width", "depth", "l2", "mem", "tlb"],
        "stack" => &["counters", "width", "depth", "l2", "mem", "tlb", "csv"],
        "demo" => &["out"],
        "sweep" => &[
            "base",
            "suite",
            "rob",
            "mshr",
            "dw",
            "pf",
            "uops",
            "seed",
            "benchmarks",
            "component",
            "quick",
            "state-dir",
            "workers",
        ],
        "serve" => &[
            "workers",
            "cache",
            "quick",
            "listen",
            "state-dir",
            "idle-timeout",
            "max-conns",
            "fit-threads",
            "auth",
            "poll-interval",
        ],
        "cluster" => &[
            "state-dir",
            "nodes",
            "replicas",
            "listen",
            "workers",
            "cache",
            "quick",
            "auth",
            "idle-timeout",
            "max-conns",
            "poll-interval",
            "probe-interval",
        ],
        "token" => &["auth-file", "tenant"],
        "watch" => &[
            "replay",
            "machine",
            "suite",
            "batch",
            "rounds",
            "interval-ms",
            "jitter",
            "record",
            "quick",
            "uops",
            "seed",
            "benchmarks",
        ],
        "bench" => &["smoke", "out", "uops", "seed", "threads", "check"],
        "loadgen" => &[
            "connect",
            "conns",
            "rate",
            "duration-ms",
            "mix",
            "machine",
            "suite",
            "hello",
            "budget-ms",
        ],
        _ => return None,
    })
}

/// Splits `--key value` and bare `--flag` pairs, rejecting any flag
/// `sub` does not accept (a typo must not silently change a run).
fn parse_flags(
    args: &[String],
    sub: &str,
    accepted: &[&str],
) -> Result<Vec<(String, String)>, CliError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected a --flag, got `{arg}`")))?;
        if !accepted.contains(&key) {
            return Err(CliError::Usage(format!(
                "`{sub}` does not accept `--{key}`"
            )));
        }
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            out.push((key.to_owned(), args[i + 1].clone()));
            i += 2;
        } else {
            out.push((key.to_owned(), String::new()));
            i += 1;
        }
    }
    Ok(out)
}

/// Executes a parsed command, writing human output to the returned string.
///
/// # Errors
///
/// Propagates pipeline failures (collect → fit → export) as
/// [`CliError::Pipeline`].
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Fit(args) => {
            let fitted = fit_pipeline(args)?;
            let mut out = String::new();
            for group in fitted.groups() {
                if fitted.groups().len() > 1 {
                    out.push_str(&format!("== machine {} ==\n", group.machine.name()));
                }
                out.push_str(&format!("fitted model: {}\n\n", group.model));
                let preds = crate::model::eval::evaluate_model(&group.model, &group.records);
                let summary = crate::model::eval::summarize(&preds);
                out.push_str(&format!("accuracy: {summary}\n"));
                for p in &preds {
                    out.push_str(&format!(
                        "  {:<28} measured {:>7.3}  predicted {:>7.3}  ({:>5.1}%)\n",
                        p.benchmark,
                        p.measured,
                        p.predicted,
                        p.error() * 100.0
                    ));
                }
            }
            Ok(out)
        }
        Command::Stack(args, as_csv) => {
            let fitted = fit_pipeline(args)?;
            if *as_csv {
                Ok(fitted.stacks_csv())
            } else {
                let mut out = String::new();
                for group in fitted.groups() {
                    if fitted.groups().len() > 1 {
                        out.push_str(&format!("== machine {} ==\n", group.machine.name()));
                    }
                    for (benchmark, stack) in group.stacks() {
                        out.push_str(&format!("{benchmark:<28} {stack}\n"));
                    }
                }
                Ok(out)
            }
        }
        Command::Demo { out } => {
            let machine = crate::sim::machine::MachineConfig::core2();
            let suite: Vec<_> = crate::workloads::suites::cpu2000()
                .into_iter()
                .take(16)
                .collect();
            Workbench::new()
                .machine(machine)
                .source(SimSource::new().suite(suite).uops(100_000).seed(42))
                .collect()
                .map_err(CliError::from)?
                .export_to(out)
                .map_err(CliError::from)?;
            Ok(format!(
                "wrote {out}: 16 demo benchmark runs (Core 2 preset).\n\
                 Fit them with:\n  cpistack fit --counters {out} \
                 --width 4 --depth 14 --l2 19 --mem 169 --tlb 30\n"
            ))
        }
        Command::Serve(_) => Err(CliError::Usage(
            "serve reads stdin interactively — dispatch it to `cli::serve(...)` \
             instead of `cli::run(...)`"
                .into(),
        )),
        Command::Cluster(_) => Err(CliError::Usage(
            "cluster runs a foreground serving tier — dispatch it to \
             `cli::cluster(...)` instead of `cli::run(...)`"
                .into(),
        )),
        Command::Token { auth_file, tenant } => {
            let token = auth::issue_token(auth_file, tenant).map_err(CliError::Auth)?;
            // Stdout carries the bare token so scripts can capture it:
            // `TOKEN=$(cpistack token --auth-file f --tenant a)`.
            Ok(format!("{token}\n"))
        }
        Command::Watch(_) => Err(CliError::Usage(
            "watch streams progress for its whole session — dispatch it to \
             `cli::watch(...)` instead of `cli::run(...)`"
                .into(),
        )),
        Command::Sweep(args) => run_sweep_command(args),
        Command::Bench(args) => run_bench_command(args),
        Command::Loadgen(args) => run_loadgen_command(args),
    }
}

/// Runs the `sweep` subcommand: build the [`SweepSpec`] from the flags,
/// drive it through a private warm service, and print the ranked table.
///
/// [`SweepSpec`]: crate::service::sweep::SweepSpec
fn run_sweep_command(args: &SweepCliArgs) -> Result<String, CliError> {
    use crate::service::sweep::{SweepGrid, SweepSpec};
    let usage = |detail: String| CliError::Usage(detail);
    let base: pmu::MachineId = args
        .base
        .as_deref()
        .unwrap_or("core2")
        .parse()
        .map_err(|e| usage(format!("--base: {e}")))?;
    let suite: pmu::Suite = args
        .suite
        .as_deref()
        .unwrap_or("cpu2000")
        .parse()
        .map_err(|e| usage(format!("--suite: {e}")))?;
    let mut grid = SweepGrid::new();
    for (axis, values) in [
        ("rob", &args.rob),
        ("mshr", &args.mshr),
        ("dw", &args.dw),
        ("pf", &args.pf),
    ] {
        if let Some(values) = values {
            grid.parse_arg(&format!("{axis}={values}"))
                .map_err(|e| usage(format!("--{axis}: {e}")))?;
        }
    }
    let mut spec = SweepSpec::new(base, grid, suite);
    if args.quick {
        spec.options = FitOptions::quick();
    }
    if let Some(uops) = args.uops {
        spec.uops = uops;
    }
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    spec.limit = args.benchmarks;
    if let Some(component) = &args.component {
        spec.component = component
            .parse()
            .map_err(|e| usage(format!("--component: {e}")))?;
    }

    let mut config = ServiceConfig::new();
    if let Some(workers) = args.workers {
        config = config.with_workers(workers);
    }
    if let Some(dir) = &args.state_dir {
        config = config.with_state_dir(dir);
    }
    let service = CpiService::start(config);
    let summary = service.client().sweep(spec).map_err(CliError::Sweep);
    service.shutdown();
    let summary = summary?;

    let mut out = format!(
        "sweep {} over {}: {} variants, simulated {} configs / {} runs\n",
        summary.base.name(),
        summary.suite.name(),
        summary.results.len(),
        summary.simulated_configs,
        summary.simulated_runs,
    );
    out.push_str(&format!(
        "{:<4} {:<28} {:>8} {:>9} {:>8}  {}\n",
        "rank", "variant", "cpi", summary.component, "Δcpi", "front"
    ));
    let ranked = summary.ranked();
    for (rank, result) in ranked.iter().enumerate() {
        let front = if summary.pareto.contains(&result.id) {
            "*"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<4} {:<28} {:>8.4} {:>9.4} {:>+8.4}  {}\n",
            rank + 1,
            result.id.name(),
            result.cpi,
            result.component,
            result.delta.overall.total(),
            front
        ));
    }
    let front: Vec<&str> = summary.pareto.iter().map(|id| id.name()).collect();
    out.push_str(&format!("pareto front: {}\n", front.join(" ")));
    Ok(out)
}

/// Runs the `loadgen` subcommand: resolve the target, build the request
/// mix, drive the open-loop campaign, and gate the exit status.
fn run_loadgen_command(args: &LoadgenArgs) -> Result<String, CliError> {
    use std::net::ToSocketAddrs as _;
    let addr = args
        .connect
        .to_socket_addrs()
        .map_err(|e| CliError::Usage(format!("--connect `{}`: {e}", args.connect)))?
        .next()
        .ok_or_else(|| CliError::Usage(format!("--connect `{}` resolved nowhere", args.connect)))?;
    let machine = args.machine.as_deref().unwrap_or("core2");
    let suite = args.suite.as_deref().unwrap_or("cpu2000");
    let stack = crate::loadgen::RequestTemplate::new(format!("stack {machine} {suite}"));
    let binstack = crate::loadgen::RequestTemplate::new(format!("binstack {machine} {suite}"));
    let requests = match args.mix.as_deref().unwrap_or("mixed") {
        "text" => vec![stack],
        "bin" => vec![binstack],
        "mixed" => vec![stack, binstack],
        other => {
            return Err(CliError::Usage(format!(
                "--mix must be text, bin or mixed (got `{other}`)"
            )))
        }
    };
    let mut config = crate::loadgen::LoadgenConfig::new(addr, machine, suite)
        .with_requests(requests)
        .with_connections(args.conns.unwrap_or(16))
        .with_rate(args.rate.unwrap_or(10.0))
        .with_duration(std::time::Duration::from_millis(
            args.duration_ms.unwrap_or(2000),
        ));
    if let Some(token) = &args.hello {
        config = config.with_hello(token.clone());
    }
    let report = crate::loadgen::run(&config)?;
    let mut text = report.summary();
    text.push('\n');
    let p99_ms = report.p99.as_secs_f64() * 1e3;
    if report.errors > 0 || report.dropped > 0 {
        return Err(CliError::Loadgen(format!(
            "{} in-band errors, {} dropped connections (want zero)\n{text}",
            report.errors, report.dropped
        )));
    }
    if let Some(budget) = args.budget_ms {
        if p99_ms > budget {
            return Err(CliError::Loadgen(format!(
                "p99 {p99_ms:.3} ms exceeds budget {budget:.3} ms\n{text}"
            )));
        }
        text.push_str(&format!(
            "gate: p99 {p99_ms:.3} ms within budget {budget:.3} ms\n"
        ));
    }
    Ok(text)
}

/// Runs the `watch` subcommand: build a [`LiveSource`](pmu::live) from
/// the arguments (a recorded-CSV replay, or simulator batches), pump it
/// into a fresh warm [`CpiService`] via [`stream::pump`], and print one
/// progress line per batch plus a closing summary.
///
/// # Errors
///
/// [`CliError::Pipeline`] when `--replay` cannot be read or `--record`
/// cannot be written, [`CliError::Watch`] when the service rejects a
/// batch or refit, [`CliError::Usage`] on bad machine/suite words.
pub fn watch(args: &WatchArgs, mut output: impl Write) -> Result<(), CliError> {
    use pmu::live::{LiveSource as _, ReplaySource};
    use std::str::FromStr as _;

    let machine = pmu::MachineId::from_str(args.machine.as_deref().unwrap_or("core2"))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let suite_word = args.suite.as_deref().unwrap_or("cpu2000");
    let suite = if suite_word == "all" {
        None
    } else {
        Some(pmu::Suite::from_str(suite_word).map_err(|e| CliError::Usage(e.to_string()))?)
    };
    let config = crate::sim::machine::MachineConfig::preset(machine);
    let records = if let Some(path) = &args.replay {
        let source = CsvSource::from_path(path).map_err(PipelineError::from)?;
        let records: Vec<_> = source
            .records()
            .iter()
            .filter(|r| r.machine() == machine)
            .cloned()
            .collect();
        if records.is_empty() {
            return Err(CliError::Usage(format!(
                "`{path}` has no records for machine `{}`",
                machine.name()
            )));
        }
        records
    } else {
        let take = args.benchmarks.unwrap_or(12);
        let mut sim = SimSource::new()
            .uops(args.uops.unwrap_or(20_000))
            .seed(args.seed.unwrap_or(42));
        // `all` pools both paper suites under one key; a concrete suite
        // streams only its own benchmarks.
        for profiles in [
            crate::workloads::suites::cpu2000(),
            crate::workloads::suites::cpu2006(),
        ] {
            if suite.is_none() || profiles.first().map(|p| p.suite) == suite {
                sim = sim.suite(profiles.into_iter().take(take).collect());
            }
        }
        sim.collect_config(&config)
    };
    let batch = args.batch.unwrap_or(records.len().max(1));
    let mut source = ReplaySource::new(records)
        .rounds(args.rounds.unwrap_or(3))
        .batch_size(batch);
    if let Some(seed) = args.jitter {
        source = source.jitter(seed);
    }
    let options = if args.quick {
        FitOptions::quick()
    } else {
        FitOptions::default()
    };
    let key = crate::service::ModelKey::new(machine, suite, options);
    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();
    client
        .register(crate::workbench::MachineSpec::from(&config))
        .map_err(CliError::Watch)?;
    let mut recorder = match &args.record {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|error| {
                    CliError::Pipeline(PipelineError::Export {
                        path: path.into(),
                        error,
                    })
                })?;
            let need_header = std::fs::metadata(path)
                .map(|m| m.len() == 0)
                .unwrap_or(true);
            Some((file, need_header, path.clone()))
        }
        None => None,
    };
    writeln!(
        output,
        "watching {} {} via {}",
        machine.name(),
        suite.map_or("all", pmu::Suite::name),
        source.describe()
    )?;
    let opts = stream::PumpOptions::default().with_interval(std::time::Duration::from_millis(
        args.interval_ms.unwrap_or(0),
    ));
    // The callback cannot abort the pump, so the first I/O failure is
    // parked and re-raised after the stream drains.
    let mut io_error: Option<std::io::Error> = None;
    let summary = stream::pump(&client, &key, &mut source, &opts, |batch, rows| {
        if io_error.is_some() {
            return;
        }
        let mut emit = |output: &mut dyn Write| -> std::io::Result<()> {
            match batch.mode {
                None => writeln!(
                    output,
                    "batch {} records {} generation {} refit deferred (store too small)",
                    batch.batch, batch.records, batch.generation,
                )?,
                Some(mode) if batch.records == 0 => writeln!(
                    output,
                    "reconcile refit {} {:.2} ms objective {:.6}",
                    mode, batch.millis, batch.objective
                )?,
                Some(mode) => writeln!(
                    output,
                    "batch {} records {} generation {} refit {} {:.2} ms objective {:.6}",
                    batch.batch,
                    batch.records,
                    batch.generation,
                    mode,
                    batch.millis,
                    batch.objective
                )?,
            }
            if let Some((file, need_header, _)) = recorder.as_mut() {
                if !rows.is_empty() {
                    if *need_header {
                        writeln!(file, "{}", pmu::csv::header())?;
                        *need_header = false;
                    }
                    file.write_all(pmu::csv::to_csv_rows(rows).as_bytes())?;
                }
            }
            Ok(())
        };
        if let Err(e) = emit(&mut output) {
            io_error = Some(e);
        }
    })
    .map_err(CliError::Watch)?;
    if let Some(e) = io_error {
        return Err(CliError::Io(e));
    }
    writeln!(
        output,
        "watched {} batches, {} records: refits full {} incremental {} cached {}{}",
        summary.batches,
        summary.records,
        summary.full_refits,
        summary.incremental_refits,
        summary.cached,
        if summary.reconciled {
            ", reconciled"
        } else {
            ""
        }
    )?;
    if let Some((file, _, path)) = recorder.as_mut() {
        file.flush()?;
        writeln!(output, "recorded stream appended to {path}")?;
    }
    service.shutdown();
    Ok(())
}

/// The `bench` subcommand: run the perf harness, write the snapshot,
/// optionally gate against a committed baseline.
fn run_bench_command(args: &BenchArgs) -> Result<String, CliError> {
    let mut config = if args.smoke {
        crate::perf::BenchConfig::smoke()
    } else {
        crate::perf::BenchConfig::full()
    };
    if let Some(uops) = args.uops {
        config.uops = uops;
    }
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    if let Some(threads) = args.threads {
        config.threads = threads;
    }
    let report = crate::perf::run_bench(config);
    let out = args.out.clone().unwrap_or_else(|| "BENCH_10.json".into());
    std::fs::write(&out, report.to_json()).map_err(|error| {
        CliError::Pipeline(PipelineError::Export {
            path: out.clone().into(),
            error,
        })
    })?;
    let mut text = report.summary();
    text.push_str(&format!("snapshot written to {out}\n"));
    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path).map_err(|error| {
            CliError::Bench(format!(
                "reading baseline `{baseline_path}` failed: {error}"
            ))
        })?;
        match crate::perf::check_against(&report, &baseline, 0.25) {
            Ok(note) => text.push_str(&format!("check: {note}\n")),
            Err(msg) => return Err(CliError::Bench(msg)),
        }
    }
    Ok(text)
}

/// Runs a `serve` session over the front the arguments select.
///
/// Without `--listen`: reads line-protocol commands from `input` and
/// writes responses to `output` until `quit`, `shutdown` or end-of-input
/// (the [`proto::run_session`] stdio front).
///
/// With `--listen <addr>`: binds a [`std::net::TcpListener`], announces
/// the bound address on `output` as `listening <addr>`, and serves
/// concurrent connections until a client sends `shutdown` — `input` is
/// not read. Either way the [`CpiService`] lives for the whole session,
/// so every fit after the first for a `(machine, suite, options)` key is
/// a cache hit — and with `--state-dir`, fits survive restarts too.
///
/// # Errors
///
/// [`CliError::Io`] when the transport fails, [`CliError::State`] when
/// the state dir cannot be opened; protocol-level problems are reported
/// in-band as `err: …` lines and never abort the session.
pub fn serve(
    args: &ServeArgs,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), CliError> {
    let mut config = ServiceConfig::new();
    if let Some(workers) = args.workers {
        config = config.with_workers(workers);
    }
    if let Some(cache) = args.cache {
        config = config.with_cache_capacity(cache);
    }
    if let Some(dir) = &args.state_dir {
        config = config.with_state_dir(dir);
    }
    if let Some(threads) = args.fit_threads {
        config = config.with_fit_threads(threads);
    }
    let options = if args.quick {
        FitOptions::quick()
    } else {
        FitOptions::default()
    };
    let registry = args
        .auth
        .as_ref()
        .map(|path| TokenRegistry::load(path).map(Arc::new))
        .transpose()
        .map_err(CliError::Auth)?;
    let service = CpiService::try_start(config.clone()).map_err(CliError::State)?;
    let client = service.client();
    // With --auth, BOTH fronts gate every session behind `hello <token>`
    // — the stdio front is only implicitly the local tenant on an open
    // server.
    let spec = match registry {
        Some(registry) => proto::SessionSpec::with_auth(client, options, registry),
        None => proto::SessionSpec::open(client, options),
    };
    let banner = proto::banner(&config, args.quick);
    if let Some(addr) = &args.listen {
        let mut tcp = proto::TcpServerConfig::new(banner);
        if let Some(secs) = args.idle_timeout {
            tcp = tcp.with_idle_timeout((secs > 0).then(|| std::time::Duration::from_secs(secs)));
        }
        if let Some(max) = args.max_conns {
            tcp = tcp.with_max_connections(max);
        }
        if let Some(ms) = args.poll_interval {
            tcp = tcp.with_poll_interval(std::time::Duration::from_millis(ms));
        }
        let listener = std::net::TcpListener::bind(addr.as_str())?;
        let server = proto::serve_tcp(listener, spec, tcp)?;
        writeln!(output, "listening {}", server.local_addr())?;
        output.flush()?;
        // Until a connection issues `shutdown` (or the process is
        // signalled); connections drain before wait() returns.
        server.wait();
    } else {
        writeln!(output, "{banner}")?;
        proto::run_session(&mut spec.session(), input, output)?;
    }
    service.shutdown();
    Ok(())
}

/// Runs the `cluster` subcommand in the foreground: boots N serve nodes
/// and the router, announces each node as `node <name> <addr>` and the
/// router as `listening <addr>` on `output`, then blocks until a client
/// sends `shutdown` through the router (which takes every node down
/// with it).
///
/// The router's banner is a node's banner — clients connecting to the
/// cluster see byte-for-byte what a single `cpistack serve` would say.
///
/// # Errors
///
/// [`CliError::Io`] on bind/spawn failures (including an unopenable
/// state dir, surfaced by the harness), [`CliError::Auth`] when the
/// token file cannot load.
pub fn cluster(args: &ClusterArgs, mut output: impl Write) -> Result<(), CliError> {
    let registry = args
        .auth
        .as_ref()
        .map(|path| TokenRegistry::load(path).map(Arc::new))
        .transpose()
        .map_err(CliError::Auth)?;
    // The banner reflects one node's shape (that is what each client
    // session talks to), so build the same ServiceConfig the harness
    // gives every node.
    let mut node_config = ServiceConfig::new();
    if let Some(workers) = args.workers {
        node_config = node_config.with_workers(workers);
    }
    if let Some(cache) = args.cache {
        node_config = node_config.with_cache_capacity(cache);
    }
    let mut router = RouterConfig::new(proto::banner(&node_config, args.quick));
    if let Some(replicas) = args.replicas {
        router = router.with_replicas(replicas);
    }
    if let Some(secs) = args.idle_timeout {
        router = router.with_idle_timeout((secs > 0).then(|| std::time::Duration::from_secs(secs)));
    }
    if let Some(max) = args.max_conns {
        router = router.with_max_connections(max);
    }
    if let Some(ms) = args.poll_interval {
        router = router.with_poll_interval(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = args.probe_interval {
        router = router.with_probe_interval((ms > 0).then(|| std::time::Duration::from_millis(ms)));
    }
    let mut builder = ClusterHarness::builder(&args.state_dir)
        .with_options(if args.quick {
            FitOptions::quick()
        } else {
            FitOptions::default()
        })
        .with_router(router);
    if let Some(nodes) = args.nodes {
        builder = builder.with_nodes(nodes);
    }
    if let Some(workers) = args.workers {
        builder = builder.with_workers(workers);
    }
    if let Some(cache) = args.cache {
        builder = builder.with_cache(cache);
    }
    if let Some(registry) = registry {
        builder = builder.with_registry(registry);
    }
    if let Some(addr) = &args.listen {
        builder = builder.with_listen(addr.clone());
    }
    let harness = builder.start()?;
    for i in 0..harness.node_count() {
        writeln!(
            output,
            "node {} {}",
            harness.node_name(i),
            harness.node_addr(i)
        )?;
    }
    writeln!(output, "listening {}", harness.router_addr())?;
    output.flush()?;
    harness.wait();
    Ok(())
}

/// The shared fit pipeline: counters CSV in, fitted per-machine models
/// out, all with the command line's constants.
fn fit_pipeline(args: &FitArgs) -> Result<crate::workbench::Fitted, CliError> {
    let fitted = Workbench::new()
        .arch(args.arch)
        .source(CsvSource::from_path(&args.counters).map_err(PipelineError::from)?)
        .grouping(Grouping::Machine)
        .fit_options(FitOptions::default())
        .collect()?
        .fit()?;
    Ok(fitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceError;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_fit_command() {
        let cmd = parse_args(&strings(&[
            "fit",
            "--counters",
            "x.csv",
            "--width",
            "4",
            "--depth",
            "14",
            "--l2",
            "19",
            "--mem",
            "169",
            "--tlb",
            "30",
        ]))
        .unwrap();
        let Command::Fit(args) = cmd else {
            panic!("expected fit");
        };
        assert_eq!(args.counters, "x.csv");
        assert_eq!(args.arch.width, 4.0);
        assert_eq!(args.arch.c_mem, 169.0);
    }

    #[test]
    fn stack_accepts_csv_flag() {
        let cmd = parse_args(&strings(&[
            "stack",
            "--csv",
            "--counters",
            "x.csv",
            "--width",
            "4",
            "--depth",
            "14",
            "--l2",
            "19",
            "--mem",
            "169",
            "--tlb",
            "30",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Stack(_, true)));
    }

    #[test]
    fn demo_default_path() {
        let cmd = parse_args(&strings(&["demo"])).unwrap();
        assert_eq!(
            cmd,
            Command::Demo {
                out: "demo_counters.csv".into()
            }
        );
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        let err = parse_args(&strings(&["fit", "--counters", "x.csv"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("--width"));
        let err = parse_args(&strings(&["bogus"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
        let err = parse_args(&strings(&[])).unwrap_err();
        assert!(err.to_string().contains("missing subcommand"));
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        // A typo must not silently shrink a sweep grid or drop a knob.
        let err = parse_args(&strings(&["sweep", "--mshrs", "8"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("--mshrs"), "{err}");
        let err = parse_args(&strings(&["bench", "--thread", "2"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("--thread"), "{err}");
        // Flags are per subcommand: `--csv` belongs to `stack` only.
        let err = parse_args(&strings(&["demo", "--csv"])).unwrap_err();
        assert!(err.to_string().contains("--csv"), "{err}");
        // The TCP front has one engine; the old selector must stay gone.
        let err = parse_args(&strings(&["serve", "--engine", "events"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("--engine"), "{err}");
        // The spelled-right versions still parse.
        parse_args(&strings(&["sweep", "--mshr", "8"])).unwrap();
        parse_args(&strings(&["bench", "--threads", "2"])).unwrap();
    }

    #[test]
    fn bad_numbers_are_usage_errors() {
        let err = parse_args(&strings(&[
            "fit",
            "--counters",
            "x.csv",
            "--width",
            "four",
            "--depth",
            "14",
            "--l2",
            "19",
            "--mem",
            "169",
            "--tlb",
            "30",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--width must be a number"));
    }

    #[test]
    fn demo_then_fit_round_trips() {
        // Per-process dir: parallel checkouts on a shared host must not
        // collide on a fixed /tmp path.
        let dir = std::env::temp_dir().join(format!("cpistack_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("demo.csv").to_string_lossy().into_owned();
        run(&Command::Demo { out: csv.clone() }).unwrap();
        let args = FitArgs {
            counters: csv,
            arch: MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0),
        };
        let report = run(&Command::Fit(args.clone())).unwrap();
        assert!(report.contains("fitted model"));
        assert!(report.contains("accuracy"));
        let stacks = run(&Command::Stack(args.clone(), false)).unwrap();
        assert!(stacks.contains("CPI "));
        let csv_out = run(&Command::Stack(args, true)).unwrap();
        assert!(csv_out.starts_with("benchmark,base"));
    }

    #[test]
    fn parses_serve_command() {
        let cmd = parse_args(&strings(&["serve", "--workers", "3", "--quick"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                workers: Some(3),
                cache: None,
                quick: true,
                ..ServeArgs::default()
            })
        );
        let err = parse_args(&strings(&["serve", "--workers", "many"])).unwrap_err();
        assert!(err.to_string().contains("--workers must be a count"));
        // serve must be dispatched to serve(), not run().
        let err = run(&Command::Serve(ServeArgs::default())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn parses_token_command_and_serve_auth_flag() {
        let cmd = parse_args(&strings(&[
            "token",
            "--auth-file",
            "tokens.txt",
            "--tenant",
            "team-a",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Token {
                auth_file: "tokens.txt".into(),
                tenant: "team-a".into(),
            }
        );
        let err = parse_args(&strings(&["token", "--tenant", "team-a"])).unwrap_err();
        assert!(err.to_string().contains("--auth-file"));
        let cmd = parse_args(&strings(&["serve", "--auth", "tokens.txt"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                auth: Some("tokens.txt".into()),
                ..ServeArgs::default()
            })
        );
    }

    #[test]
    fn token_mints_into_file_and_serve_gates_sessions_with_it() {
        let dir = std::env::temp_dir().join(format!("cpistack_cli_auth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let auth_file = dir.join("tokens.txt").to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&auth_file);
        // Mint a token; stdout is the bare token for script capture.
        let minted = run(&Command::Token {
            auth_file: auth_file.clone(),
            tenant: "team-a".into(),
        })
        .unwrap();
        let token = minted.trim().to_owned();
        assert!(crate::service::auth::validate_token(&token).is_ok());
        // An invalid tenant name is a typed Auth error.
        let err = run(&Command::Token {
            auth_file: auth_file.clone(),
            tenant: "Team A".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Auth(_)));
        // A serve session with --auth rejects pre-hello commands and
        // serves the minted tenant after the handshake.
        let mut out = Vec::new();
        serve(
            &ServeArgs {
                workers: Some(1),
                quick: true,
                auth: Some(auth_file),
                ..ServeArgs::default()
            },
            std::io::Cursor::new(format!(
                "stats\nhello {token}\nmachine core2 4 14 19 169 30\nstats\nquit\n"
            )),
            &mut out,
        )
        .expect("auth session runs");
        let transcript = String::from_utf8(out).unwrap();
        assert!(
            transcript.contains("err: authenticate first: hello <token>"),
            "{transcript}"
        );
        assert!(transcript.contains("hello team-a"), "{transcript}");
        assert!(transcript.contains("registered core2"), "{transcript}");
        assert!(transcript.contains("tenant team-a"), "{transcript}");
        // A missing token file is a typed Auth error at startup.
        let err = serve(
            &ServeArgs {
                auth: Some("/nonexistent/tokens.txt".into()),
                ..ServeArgs::default()
            },
            std::io::Cursor::new(String::new()),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Auth(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_bench_command() {
        let cmd = parse_args(&strings(&[
            "bench",
            "--smoke",
            "--uops",
            "5000",
            "--out",
            "b.json",
            "--check",
            "base.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench(BenchArgs {
                smoke: true,
                out: Some("b.json".into()),
                uops: Some(5_000),
                seed: None,
                threads: None,
                check: Some("base.json".into()),
            })
        );
        let err = parse_args(&strings(&["bench", "--uops", "lots"])).unwrap_err();
        assert!(err.to_string().contains("--uops must be a count"));
    }

    #[test]
    fn parses_loadgen_command() {
        let cmd = parse_args(&strings(&[
            "loadgen",
            "--connect",
            "127.0.0.1:7070",
            "--conns",
            "64",
            "--rate",
            "2.5",
            "--duration-ms",
            "500",
            "--mix",
            "bin",
            "--hello",
            "tok123",
            "--budget-ms",
            "40",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Loadgen(LoadgenArgs {
                connect: "127.0.0.1:7070".into(),
                conns: Some(64),
                rate: Some(2.5),
                duration_ms: Some(500),
                mix: Some("bin".into()),
                machine: None,
                suite: None,
                hello: Some("tok123".into()),
                budget_ms: Some(40.0),
            })
        );
        // --connect is mandatory; --rate must parse as a number.
        let err = parse_args(&strings(&["loadgen"])).unwrap_err();
        assert!(err.to_string().contains("missing --connect"), "{err}");
        let err =
            parse_args(&strings(&["loadgen", "--connect", "x:1", "--rate", "fast"])).unwrap_err();
        assert!(err.to_string().contains("--rate must be a number"), "{err}");
        // A bad --mix word is rejected at run time with a usage error.
        let err = run(&Command::Loadgen(LoadgenArgs {
            connect: "127.0.0.1:1".into(),
            mix: Some("binary".into()),
            ..LoadgenArgs::default()
        }))
        .unwrap_err();
        assert!(err.to_string().contains("--mix must be"), "{err}");
    }

    #[test]
    fn parses_serve_fit_threads() {
        let cmd = parse_args(&strings(&["serve", "--fit-threads", "2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                fit_threads: Some(2),
                ..ServeArgs::default()
            })
        );
    }

    #[test]
    fn parses_serve_transport_flags() {
        let cmd = parse_args(&strings(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--state-dir",
            "/tmp/state",
            "--idle-timeout",
            "30",
            "--max-conns",
            "8",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                listen: Some("127.0.0.1:0".into()),
                state_dir: Some("/tmp/state".into()),
                idle_timeout: Some(30),
                max_conns: Some(8),
                ..ServeArgs::default()
            })
        );
        let err = parse_args(&strings(&["serve", "--idle-timeout", "soon"])).unwrap_err();
        assert!(err.to_string().contains("--idle-timeout must be a count"));
    }

    /// Forwards everything `serve` writes to a channel, so a test can
    /// read the `listening <addr>` announcement while `serve` blocks.
    struct ChannelWriter(std::sync::mpsc::Sender<Vec<u8>>);

    impl Write for ChannelWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `serve --listen` runs the TCP event loop with the transport flags
    /// it was given: the announced address speaks the stdio banner,
    /// `--max-conns 1` turns a second client away with exactly
    /// `err: busy`, and a client's `shutdown` makes `serve` return.
    #[test]
    fn serve_listen_applies_transport_flags_and_stops_on_shutdown() {
        use std::io::Read;
        use std::net::TcpStream;
        use std::time::Duration;

        let args = ServeArgs {
            workers: Some(1),
            quick: true,
            max_conns: Some(1),
            poll_interval: Some(2),
            ..ServeArgs::default()
        };
        let mut stdio = Vec::new();
        serve(&args, std::io::Cursor::new("quit\n"), &mut stdio).expect("stdio session");
        let stdio = String::from_utf8(stdio).unwrap();
        let banner = format!("{}\n", stdio.lines().next().expect("stdio banner"));

        let (tx, rx) = std::sync::mpsc::channel();
        let tcp_args = ServeArgs {
            listen: Some("127.0.0.1:0".into()),
            ..args
        };
        let server = std::thread::spawn(move || {
            serve(&tcp_args, std::io::Cursor::new(""), ChannelWriter(tx))
        });
        let mut announced = Vec::new();
        while !announced.ends_with(b"\n") {
            let chunk = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("serve announces its address");
            announced.extend_from_slice(&chunk);
        }
        let announced = String::from_utf8(announced).unwrap();
        let addr = announced
            .trim_end()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected announcement: {announced}"))
            .to_owned();

        // Bounded reads: a flag that failed to apply fails the test
        // rather than waiting out the server's idle timeout.
        let connect = |addr: &str| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            stream
        };
        let mut admitted = connect(&addr);
        let mut buf = vec![0u8; banner.len()];
        admitted.read_exact(&mut buf).expect("banner");
        assert_eq!(String::from_utf8_lossy(&buf), banner);

        let mut over = connect(&addr);
        let mut rejection = Vec::new();
        over.read_to_end(&mut rejection).expect("read rejection");
        assert_eq!(rejection, b"err: busy\n", "--max-conns 1 must hold");

        admitted.write_all(b"shutdown\n").expect("shutdown");
        let mut rest = String::new();
        admitted.read_to_string(&mut rest).expect("drain to EOF");
        server
            .join()
            .expect("serve thread")
            .expect("serve returns cleanly after shutdown");
    }

    /// Runs one scripted serve session and returns its full transcript.
    fn serve_transcript(script: &str) -> String {
        let mut out = Vec::new();
        serve(
            &ServeArgs {
                workers: Some(2),
                cache: Some(4),
                quick: true,
                ..ServeArgs::default()
            },
            std::io::Cursor::new(script.to_owned()),
            &mut out,
        )
        .expect("session runs");
        String::from_utf8(out).expect("utf8 transcript")
    }

    #[test]
    fn serve_session_fits_streams_and_reports_cache_hits() {
        let dir = std::env::temp_dir().join(format!("cpistack_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("serve.csv").to_string_lossy().into_owned();
        run(&Command::Demo { out: csv.clone() }).unwrap();
        let transcript = serve_transcript(&format!(
            "machine core2 4 14 19 169 30\n\
             ingest {csv}\n\
             fit core2 cpu2000\n\
             fit core2 cpu2000\n\
             stack core2 cpu2000\n\
             predict core2 cpu2000\n\
             stats\n\
             quit\n"
        ));
        assert!(transcript.contains("ingested 16 records"));
        assert!(transcript.contains("cache: miss"));
        assert!(transcript.contains("cache: hit"), "{transcript}");
        assert!(transcript.contains("stack "));
        assert!(transcript.contains("predicted "));
        assert!(transcript.contains("stats: requests"));
        assert!(transcript.contains("fits 1"), "one regression total");
        assert!(
            transcript.contains(" fit evals "),
            "the fit-effort rider appears once a regression has run: {transcript}"
        );
        assert!(
            !transcript.contains("wall-ms"),
            "transcripts must stay deterministic — no wall-clock in-band"
        );
        assert!(!transcript.contains("err:"), "{transcript}");
        assert_eq!(transcript.lines().filter(|l| *l == "ok").count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_session_reports_errors_in_band_and_continues() {
        let transcript = serve_transcript(
            "bogus\n\
             machine nope 1 2 3 4 5\n\
             machine core2 nan 14 19 169 30\n\
             fit core2 cpu2000\n\
             ingest /nonexistent/counters.csv\n\
             delta pentium4 core2 all\n\
             help\n\
             quit\n",
        );
        assert!(transcript.contains("err: unknown command `bogus`"));
        assert!(
            transcript.contains("err: unknown machine name `nope`"),
            "{transcript}"
        );
        assert!(
            transcript.contains("err: `nan` must be a positive finite number"),
            "{transcript}"
        );
        // fit before any ingest: a typed service error, in-band.
        assert!(transcript.contains("err: machine `core2` is not registered"));
        // Missing file: in-band, naming the path (the OS suffix varies by
        // platform, so only the prefix is pinned).
        assert!(
            transcript.contains("err: reading `/nonexistent/counters.csv` failed:"),
            "{transcript}"
        );
        assert!(transcript.contains("err: delta needs a concrete suite"));
        assert!(transcript.contains("machine <name>"), "help prints");
        assert!(transcript.ends_with("ok\n"), "quit still acks");
    }

    #[test]
    fn parses_watch_command() {
        let cmd = parse_args(&strings(&[
            "watch",
            "--machine",
            "core2",
            "--suite",
            "cpu2000",
            "--batch",
            "4",
            "--rounds",
            "2",
            "--jitter",
            "9",
            "--record",
            "live.csv",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Watch(WatchArgs {
                machine: Some("core2".into()),
                suite: Some("cpu2000".into()),
                batch: Some(4),
                rounds: Some(2),
                jitter: Some(9),
                record: Some("live.csv".into()),
                quick: true,
                ..WatchArgs::default()
            })
        );
        // watch streams for its whole session, so run() refuses it.
        let err = run(&Command::Watch(WatchArgs::default())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = parse_args(&strings(&["watch", "--rounds", "many"])).unwrap_err();
        assert!(err.to_string().contains("--rounds must be a count"));
    }

    #[test]
    fn watch_records_a_replayable_stream() {
        let dir = std::env::temp_dir().join(format!("cpistack_watch_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join("live.csv").to_string_lossy().into_owned();
        let replayed = dir.join("replayed.csv").to_string_lossy().into_owned();

        // A jittered 2-round simulator stream: round 1 anchors with a full
        // fit, round 2 should polish incrementally, and the dirty stream
        // reconciles with one more full fan-out at close.
        let mut out = Vec::new();
        watch(
            &WatchArgs {
                rounds: Some(2),
                jitter: Some(7),
                record: Some(live.clone()),
                quick: true,
                uops: Some(3_000),
                benchmarks: Some(12),
                ..WatchArgs::default()
            },
            &mut out,
        )
        .expect("simulated watch runs");
        let transcript = String::from_utf8(out).unwrap();
        assert!(
            transcript.contains("watching core2 cpu2000"),
            "{transcript}"
        );
        assert!(transcript.contains("refit full"), "{transcript}");
        assert!(transcript.contains("refit incremental"), "{transcript}");
        assert!(transcript.contains(", reconciled"), "{transcript}");
        assert!(transcript.contains("recorded stream appended to"));

        // The recorded CSV replays: streaming it back out through --record
        // reproduces the file byte-exact (header once, rows in order).
        let mut out = Vec::new();
        watch(
            &WatchArgs {
                replay: Some(live.clone()),
                rounds: Some(1),
                record: Some(replayed.clone()),
                quick: true,
                ..WatchArgs::default()
            },
            &mut out,
        )
        .expect("replayed watch runs");
        let transcript = String::from_utf8(out).unwrap();
        assert!(transcript.contains("replay:"), "{transcript}");
        assert_eq!(
            std::fs::read(&live).unwrap(),
            std::fs::read(&replayed).unwrap(),
            "record → replay → record round-trips byte-exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_typed_source_error() {
        let args = FitArgs {
            counters: "/nonexistent/nope.csv".into(),
            arch: MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0),
        };
        let err = run(&Command::Fit(args)).unwrap_err();
        match &err {
            CliError::Pipeline(PipelineError::Source(SourceError::Io { path, .. })) => {
                assert!(path.ends_with("nope.csv"));
            }
            other => panic!("expected a collect-stage io error, got {other:?}"),
        }
        assert!(err.to_string().contains("collect stage"));
    }

    #[test]
    fn malformed_csv_is_a_typed_parse_error() {
        let dir = std::env::temp_dir().join(format!("cpistack_cli_badcsv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "not,a,counters,header\n1,2,3,4\n").unwrap();
        let args = FitArgs {
            counters: path.to_string_lossy().into_owned(),
            arch: MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0),
        };
        let err = run(&Command::Stack(args, false)).unwrap_err();
        assert!(matches!(
            err,
            CliError::Pipeline(PipelineError::Source(SourceError::Parse { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
