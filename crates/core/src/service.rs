//! `CpiService` — a long-lived session API for batched, cached,
//! multi-client CPI-stack serving.
//!
//! The [`Workbench`](crate::workbench::Workbench) is a one-shot builder:
//! every caller pays the full collect → fit cost. This module is the
//! serving layer on top of the same model: a [`CpiService`] owns a warm
//! campaign — counter records per machine, fitted models memoized in a
//! [`ModelCache`] — and any number of concurrent [`CpiClient`]s submit
//! typed [`Request`]s against it:
//!
//! * **ingest** new counter batches ([`Request::IngestRecords`],
//!   [`Request::IngestCsv`]) — appended to the machine's record store,
//!   bumping its *generation* so stale cached models are invalidated,
//! * **fit-and-stack** for a `(machine, suite, options)` [`ModelKey`]
//!   ([`Request::Fit`], [`Request::Stacks`], [`Request::Group`]) — the
//!   first request fits by nonlinear regression, every repeat is a cache
//!   hit,
//! * **delta stacks** between two machines ([`Request::Delta`]),
//! * **raw predictions** per benchmark ([`Request::Predictions`]),
//! * **stats** — cache hit/miss/eviction accounting ([`Request::Stats`]).
//!
//! Requests travel over an mpsc queue to a **sharded worker pool**: store
//! mutations are hashed to shards by machine (one writer per machine's
//! record store), and model requests by their full cache key — so repeat
//! requests for one key serialize on one worker (the second is a cache
//! hit, never a duplicate regression) while different keys, even two
//! suites of the same machine, fan out in parallel. Responses stream back
//! over a per-request channel as [`Response`] items — a large stack set
//! arrives one benchmark at a time, never buffered whole. Warm reads skip
//! the pool: `stats`, and a model read whose model is already cached at
//! the machine's current generation, are answered on the submitting
//! thread with the same accounting and replies (see
//! [`CpiClient::submit`]), so a TCP node's event loop serves them without
//! a thread hand-off.
//!
//! Fitting is deterministic, so service output is byte-identical to a
//! sequential [`Workbench`](crate::workbench::Workbench) run — and in
//! fact `Workbench::fit()` is implemented *on top of* an ephemeral
//! `CpiService`, so there is exactly one fitting code path.
//!
//! # Multi-tenant isolation
//!
//! The service is **tenant-scoped** end to end. Every [`CpiClient`] is
//! bound to a [`TenantId`] ([`CpiService::client`] binds the implicit
//! [`TenantId::local`]; [`CpiService::client_for`] binds any other), and
//! a tenant's identity partitions the whole serving stack:
//!
//! * **machine namespaces** — registration and ingestion land in the
//!   calling tenant's own store; two tenants may both register `core2`
//!   and never see each other's records or specs (a cross-tenant request
//!   fails typed with [`ServiceError::NotRegistered`], never serves
//!   another tenant's data),
//! * **cache quotas** — the shared [`ModelCache`] gives each tenant its
//!   own LRU budget: a tenant flooding the cache evicts only its *own*
//!   models, and [`CacheStats`] are accounted per tenant,
//! * **persistence** — with a state dir, each named tenant snapshots to
//!   its own `tenant-<name>/` subdirectory (the local tenant keeps the
//!   root, so single-tenant deployments are unchanged on disk), so a warm
//!   restart restores each tenant only from its own files,
//! * **stats** — [`CpiClient::stats`] reports the calling tenant's
//!   counters; [`CpiService::shutdown`] returns the aggregate.
//!
//! Three submodules turn the session API into a deployable server:
//!
//! * [`proto`] — the serve-session line protocol (one codec shared by the
//!   stdin/stdout front and a [`std::net::TcpListener`]-based front with
//!   concurrent connections, idle timeouts and graceful shutdown), plus a
//!   length-prefixed binary framing for bulk stack streams. With a token
//!   registry configured, every session must open with a
//!   `hello <token>` handshake before any command is dispatched,
//! * [`auth`] — per-tenant session tokens: a [`auth::TokenRegistry`]
//!   loaded from a token file (`cpistack serve --auth <file>`; mint
//!   tokens with `cpistack token`) maps secrets to [`TenantId`]s,
//! * [`persist`] — durable model state: fitted parameters snapshot to a
//!   versioned, checksummed on-disk store keyed by
//!   `(machine, suite, options fingerprint, records digest)`
//!   ([`ServiceConfig::with_state_dir`]), so a restarted service serves
//!   its first fit request from disk instead of re-running the
//!   regression.
//!
//! # Examples
//!
//! ```
//! use memodel::service::{CpiService, ModelKey, ServiceConfig};
//! use memodel::workbench::{MachineSpec, SimSource};
//! use memodel::FitOptions;
//! use oosim::machine::MachineConfig;
//! use pmu::{MachineId, Suite};
//!
//! // One warm service, many cheap clients.
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(specgen::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(5_000)
//!     .seed(42)
//!     .collect_config(&machine);
//! let service = CpiService::start(ServiceConfig::new());
//! let client = service.client();
//! client.register(MachineSpec::from(&machine)).unwrap();
//! client.ingest(records).unwrap();
//!
//! let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
//! let (first, stacks) = client.stacks(key.clone()).unwrap();
//! assert!(!first.cached, "first request fits");
//! assert_eq!(stacks.len(), 12);
//! let (again, _) = service.client().stacks(key).unwrap();
//! assert!(again.cached, "repeat request hits the model cache");
//! service.shutdown();
//! ```

pub mod auth;
pub mod cluster;
pub mod persist;
pub mod poller;
pub mod proto;
pub mod stream;
pub mod sweep;

use crate::delta::{suite_delta, DeltaStacks};
use crate::fit::{FitError, FitOptions, InferredModel};
use crate::workbench::{CounterSource, FittedGroup, MachineSpec, SimSource};
use oosim::machine::MachineConfig;
use persist::SnapshotStore;
use pmu::csv::ParseCsvError;
use pmu::{MachineId, RunRecord, Suite};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;
use sweep::{SweepError, SweepSpec, SweepSummary, SweepVariant, SweepVariantResult};

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

/// The identity that partitions the whole serving stack: machine
/// namespaces, cache quotas, persisted state and stats are all scoped by
/// tenant (see the [module docs](self)). Cheap to clone (`Arc`-interned
/// name), usable as a map key.
///
/// Names are path- and protocol-safe by construction: lowercase ASCII
/// letters, digits, `-` and `_`, between 1 and 32 bytes. The implicit
/// single-tenant identity is [`TenantId::local`] (named `local`) — the
/// one every [`CpiService::client`] handle and the unauthenticated stdio
/// front use.
///
/// # Examples
///
/// ```
/// use memodel::service::TenantId;
/// let t = TenantId::new("team-a").unwrap();
/// assert_eq!(t.name(), "team-a");
/// assert!(TenantId::new("No Spaces!").is_err());
/// assert_eq!(TenantId::local().name(), "local");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId(Arc<str>);

/// Why a tenant name was rejected by [`TenantId::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantNameError {
    /// The offending name.
    pub name: String,
    /// Which rule it broke.
    pub reason: String,
}

impl fmt::Display for TenantNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tenant name `{}`: {}", self.name, self.reason)
    }
}

impl std::error::Error for TenantNameError {}

impl TenantId {
    /// The maximum tenant-name length in bytes.
    pub const MAX_NAME_LEN: usize = 32;

    /// A validated tenant identity.
    ///
    /// # Errors
    ///
    /// [`TenantNameError`] when the name is empty, longer than
    /// [`TenantId::MAX_NAME_LEN`] bytes, or contains anything outside
    /// `[a-z0-9_-]` — the charset keeps tenant names safe to embed in
    /// state-dir paths and protocol lines.
    pub fn new(name: &str) -> Result<Self, TenantNameError> {
        let bad = |reason: &str| TenantNameError {
            name: name.to_owned(),
            reason: reason.to_owned(),
        };
        if name.is_empty() {
            return Err(bad("must not be empty"));
        }
        if name.len() > Self::MAX_NAME_LEN {
            return Err(bad("must be at most 32 bytes"));
        }
        if !name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
        {
            return Err(bad("only lowercase ascii letters, digits, `-` and `_`"));
        }
        Ok(Self(Arc::from(name)))
    }

    /// The implicit single-tenant identity (`local`): what
    /// [`CpiService::client`] binds, and what unauthenticated fronts run
    /// as.
    pub fn local() -> Self {
        Self(Arc::from("local"))
    }

    /// Whether this is the implicit local tenant.
    pub fn is_local(&self) -> bool {
        &*self.0 == "local"
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The most distinct `(benchmark, suite)` workloads a stream batch may
/// leave in one machine's store (see [`Request::StreamBatch`]).
///
/// A live source re-samples a fixed population — at most the paper's
/// 103-benchmark campaign (CPU2000 + CPU2006) — and the upsert keeps the
/// store at one record per workload. 1024 is ten campaigns' worth of
/// names, far above any real stream, while it bounds the store and the
/// cost of every refit over it against a stream of made-up names.
pub const MAX_STREAMED_BENCHMARKS: usize = 1024;

/// The most records an appending ingest ([`Request::IngestRecords`],
/// [`Request::IngestCsv`]) may leave in one machine's store.
///
/// The paper's whole campaign is 103 records a machine, and every fit and
/// snapshot copies the store, so 65 536 (over six hundred campaigns) is far
/// above real use while it bounds the memory a client can make a node hold
/// by re-sending one file.
pub const MAX_MACHINE_RECORDS: usize = 65_536;

/// Error produced while servicing one request.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The machine has records or requests but no registered
    /// [`MachineSpec`] — the service cannot fit without the
    /// microarchitectural constants.
    NotRegistered {
        /// The machine missing a spec.
        machine: MachineId,
    },
    /// No ingested records match the requested key.
    NoRecords {
        /// The machine requested.
        machine: MachineId,
        /// The suite requested (`None` = pooled).
        suite: Option<Suite>,
    },
    /// Model inference failed for the requested key.
    Fit {
        /// The machine whose model could not be inferred.
        machine: MachineId,
        /// The suite group (`None` = pooled).
        suite: Option<Suite>,
        /// The underlying fit error.
        error: FitError,
    },
    /// A CSV ingestion batch failed to parse.
    Parse {
        /// Where the batch came from (a path, or `"<memory>"`).
        origin: String,
        /// The underlying error (carries the offending line number).
        error: ParseCsvError,
    },
    /// The request's handler panicked. The shard caught the panic and
    /// keeps serving; shared state is consistent (mutations happen in
    /// short lock scopes that complete or never start).
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A replicated model snapshot could not be decoded or installed
    /// (the cluster replication path; see [`cluster`]).
    Snapshot {
        /// What went wrong.
        detail: String,
    },
    /// A design-space sweep could not be set up (bad grid, variant base,
    /// invalid grid point — see [`sweep::SweepError`]).
    Sweep {
        /// The underlying sweep error.
        error: SweepError,
    },
    /// A stream batch would grow one machine's store past
    /// [`MAX_STREAMED_BENCHMARKS`] distinct workloads. The batch was
    /// rejected whole; the store is unchanged.
    TooManyBenchmarks {
        /// The machine the stream is bound to.
        machine: MachineId,
    },
    /// An appending ingest batch would grow one machine's store past
    /// [`MAX_MACHINE_RECORDS`] records. The batch was rejected whole; the
    /// store is unchanged.
    TooManyRecords {
        /// The machine the batch's records name.
        machine: MachineId,
    },
    /// The service has shut down; no more requests can be served.
    Stopped,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suite_name = |s: &Option<Suite>| s.map(|s| s.name()).unwrap_or("all suites");
        match self {
            ServiceError::NotRegistered { machine } => write!(
                f,
                "machine `{}` is not registered — submit its MachineSpec first",
                machine.name()
            ),
            ServiceError::NoRecords { machine, suite } => write!(
                f,
                "no ingested records for machine `{}` on {}",
                machine.name(),
                suite_name(suite)
            ),
            ServiceError::Fit {
                machine,
                suite,
                error,
            } => write!(
                f,
                "fitting `{}` on {} failed: {error}",
                machine.name(),
                suite_name(suite)
            ),
            ServiceError::Parse { origin, error } => {
                write!(f, "ingesting counters from `{origin}` failed: {error}")
            }
            ServiceError::Panicked { detail } => {
                write!(f, "the request panicked: {detail}")
            }
            ServiceError::Snapshot { detail } => {
                write!(f, "snapshot replication failed: {detail}")
            }
            ServiceError::Sweep { error } => write!(f, "sweep failed: {error}"),
            ServiceError::TooManyBenchmarks { machine } => write!(
                f,
                "stream batch rejected: machine `{}` would hold more than \
                 {MAX_STREAMED_BENCHMARKS} distinct benchmarks",
                machine.name()
            ),
            ServiceError::TooManyRecords { machine } => write!(
                f,
                "ingest rejected: machine `{}` would hold more than \
                 {MAX_MACHINE_RECORDS} records",
                machine.name()
            ),
            ServiceError::Stopped => write!(f, "the service has shut down"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Fit { error, .. } => Some(error),
            ServiceError::Parse { error, .. } => Some(error),
            ServiceError::Sweep { error } => Some(error),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Keys, requests, responses
// ---------------------------------------------------------------------------

/// The identity of one servable model: which machine, which suite slice of
/// its records (`None` = pool every suite), and the fit options. Two
/// requests with equal keys (options compared by
/// [`FitOptions::fingerprint`]) share one cached model.
#[derive(Debug, Clone)]
pub struct ModelKey {
    /// The machine to model.
    pub machine: MachineId,
    /// The suite to train on (`None` pools all ingested suites).
    pub suite: Option<Suite>,
    /// The fit options (part of the cache key via its fingerprint).
    pub options: FitOptions,
}

impl ModelKey {
    /// A key for one (machine, suite) group.
    pub fn new(machine: MachineId, suite: Option<Suite>, options: FitOptions) -> Self {
        Self {
            machine,
            suite,
            options,
        }
    }

    /// A key pooling every ingested suite of `machine`.
    pub fn pooled(machine: MachineId, options: FitOptions) -> Self {
        Self::new(machine, None, options)
    }

    fn cache_key(&self) -> CacheKey {
        CacheKey {
            machine: self.machine,
            suite: self.suite,
            options: self.options.fingerprint(),
        }
    }
}

/// A typed request submitted to the service queue.
#[derive(Debug)]
#[non_exhaustive]
pub enum Request {
    /// Register (or replace) a machine's spec. Replacing an existing spec
    /// bumps the machine's generation, invalidating its cached models.
    /// (Boxed: a `MachineSpec` with a simulator config dwarfs every other
    /// variant.)
    Register(Box<MachineSpec>),
    /// Ingest a batch of counter records (machines may be mixed; the
    /// router splits the batch per machine). Bumps each touched machine's
    /// generation.
    IngestRecords(Vec<RunRecord>),
    /// Parse counters-CSV text and ingest it. `origin` names the source
    /// (a path, or `"<memory>"`) for error messages.
    IngestCsv {
        /// CSV text in `pmu::csv` format.
        text: String,
        /// Where the text came from.
        origin: String,
    },
    /// Fit (or fetch from cache) one model; responds with one
    /// [`Response::Model`].
    Fit(ModelKey),
    /// Fit, then stream one [`Response::Stack`] per training benchmark.
    Stacks(ModelKey),
    /// Fit, then respond with the whole [`FittedGroup`] (model + training
    /// records) in one [`Response::Group`] — the `Workbench` path.
    Group(ModelKey),
    /// Fit, then stream one [`Response::Prediction`] per benchmark.
    Predictions(ModelKey),
    /// Fit both machines on one suite and respond with the CPI-delta
    /// stacks explaining `new` vs `old` (Fig. 6). The combining task runs
    /// on the `old` side's key shard and fits any side that is not yet
    /// cached there and then — so a raw submit can briefly duplicate a
    /// regression racing a first-time fit of the `new` key on its home
    /// shard (results are identical; the cache insert is idempotent).
    /// [`CpiClient::delta`] avoids this by warming both keys on their
    /// home shards first.
    Delta {
        /// Baseline machine.
        old: MachineId,
        /// Comparison machine.
        new: MachineId,
        /// The suite both models train on.
        suite: Suite,
        /// Fit options for both models.
        options: FitOptions,
    },
    /// Streaming ingest: **upsert** a live counter batch into one
    /// machine's store. Unlike [`Request::IngestRecords`] (which appends),
    /// a stream batch *replaces* any earlier record for the same
    /// `(benchmark, suite)` — a live source re-samples the same workloads
    /// every window, and the store must track the latest measurement
    /// instead of growing without bound. Bumps the machine's generation,
    /// retiring cached models. Records for other machines are dropped
    /// client-side before routing. A batch that would leave more than
    /// [`MAX_STREAMED_BENCHMARKS`] distinct workloads in the store is
    /// rejected whole with [`ServiceError::TooManyBenchmarks`].
    StreamBatch {
        /// The machine the stream is bound to.
        machine: MachineId,
        /// The batch, as sampled by a [`pmu::live::LiveSource`].
        records: Vec<RunRecord>,
    },
    /// Streaming refit: serve the key's model, preferring the incremental
    /// warm-start polish over the full multi-start fan-out. The worker
    /// picks the cheapest safe mode (see [`RefitMode`]) under the
    /// service's [`RefitPolicy`]: cache hit when the generation is
    /// unchanged; warm-start polish when a baseline fit exists, the
    /// workload is unchanged, and the drift guard accepts the result;
    /// the full fan-out otherwise. Responds with one [`Response::Refit`].
    Refit {
        /// The model key to serve.
        key: ModelKey,
        /// Force the full fan-out (and skip the cache), re-anchoring the
        /// baseline — the stream-close reconciliation path, which makes
        /// final parameters a pure function of the final record set.
        force_full: bool,
    },
    /// Ensure the sweep's base and every expanded grid variant has
    /// counter records for the spec's suite, simulating only the
    /// *missing* configs on the work-stealing collect pool (one trace per
    /// workload per distinct config — never per variant-request). Runs on
    /// the base machine's store shard so concurrent sweeps over one base
    /// serialize their collections; responds with one
    /// [`Response::SweepReady`] carrying what it had to simulate.
    SweepCollect(Box<SweepSpec>),
    /// Run a design-space sweep: expand the grid, ensure records (as
    /// [`Request::SweepCollect`]), fit base + every variant, and stream
    /// one [`Response::SweepVariant`] per variant in grid-expansion order
    /// followed by one [`Response::SweepSummary`]. The combining task
    /// runs on the *base key's* shard and serves each variant through the
    /// one fitting path — so a raw submit fits cold variants serially on
    /// that worker (each fan-out still using the shared fit-thread
    /// budget). [`CpiClient::sweep`] instead collects first and warms
    /// every variant key on its home shard, fanning the fits across the
    /// pool and making this task all cache hits.
    Sweep(Box<SweepSpec>),
    /// Replace one machine's record store wholesale with a replicated
    /// copy (the cluster's record-shipping path for two-machine joins;
    /// see [`cluster`]). Digest-idempotent: when the machine's current
    /// records already digest-match the payload the store, spec and
    /// generation are left untouched (cached models stay warm) and the
    /// ack reports 0 records; otherwise the spec and full batch list are
    /// replaced and the generation bumps.
    ImportRecords {
        /// The machine's spec (rebuilt from the id on the wire — a
        /// variant name is its own recipe).
        spec: Box<MachineSpec>,
        /// The complete record store to install (all suites).
        records: Vec<RunRecord>,
    },
    /// Snapshot the service counters into one [`Response::Stats`].
    Stats,
}

/// How a [`Request::Refit`] was served, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitMode {
    /// Cache hit at the current generation: no regression ran.
    Cached,
    /// Warm-start polish from the baseline parameters
    /// ([`InferredModel::refit`]), accepted by the drift guard.
    Incremental,
    /// Full multi-start fan-out ([`InferredModel::fit`]): first fit,
    /// periodic re-anchor, workload shift, drift-guard fallback, or a
    /// forced reconciliation.
    Full,
}

impl RefitMode {
    /// Stable lowercase name (used by the line protocol and watch output).
    pub fn name(self) -> &'static str {
        match self {
            RefitMode::Cached => "cached",
            RefitMode::Incremental => "incremental",
            RefitMode::Full => "full",
        }
    }
}

impl fmt::Display for RefitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark's `(name, measured CPI, predicted CPI)` row, as collected
/// by [`CpiClient::predictions`].
pub type PredictionRow = (String, f64, f64);

/// How a served model came to be.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The machine modeled.
    pub machine: MachineId,
    /// The suite group (`None` = pooled).
    pub suite: Option<Suite>,
    /// The fitted (or cache-served) model.
    pub model: Arc<InferredModel>,
    /// Training records behind the model.
    pub records: usize,
    /// `true` when the model came from the cache rather than a fresh fit.
    pub cached: bool,
    /// The machine's record-store generation the model was fitted at.
    pub generation: u64,
}

/// One streamed response item.
#[derive(Debug)]
#[non_exhaustive]
pub enum Response {
    /// A machine spec was registered.
    Registered {
        /// The machine registered.
        machine: MachineId,
    },
    /// One per-machine ingestion batch landed.
    Ingested {
        /// The machine the batch belongs to.
        machine: MachineId,
        /// Records appended.
        records: usize,
        /// The machine's new generation.
        generation: u64,
    },
    /// A model is ready (fitted or cache-served).
    Model(ModelReport),
    /// One benchmark's CPI stack (streamed after [`Response::Model`]).
    Stack {
        /// Benchmark–input name.
        benchmark: String,
        /// The model-estimated stack.
        stack: crate::stack::CpiStack,
    },
    /// A whole fitted group (the `Workbench` path).
    Group(Box<FittedGroup>),
    /// One benchmark's measured-vs-predicted CPI.
    Prediction {
        /// Benchmark–input name.
        benchmark: String,
        /// Measured CPI.
        measured: f64,
        /// Model-predicted CPI.
        predicted: f64,
    },
    /// CPI-delta stacks between two machines.
    Delta(DeltaStacks),
    /// A streaming refit was served; `mode` says what it cost.
    Refit {
        /// The served model (as [`Response::Model`] would report it).
        report: ModelReport,
        /// How the refit was served: cached, incremental, or full.
        mode: RefitMode,
    },
    /// A sweep's record-collection phase finished ([`Request::SweepCollect`]).
    SweepReady {
        /// Distinct configs that had to be simulated (0 when warm).
        configs: usize,
        /// Benchmark traces simulated (`configs × workloads`).
        runs: usize,
    },
    /// One variant's sweep result, streamed in grid-expansion order.
    SweepVariant(Box<SweepVariantResult>),
    /// The ranked sweep outcome (after every [`Response::SweepVariant`]).
    SweepSummary(Box<SweepSummary>),
    /// Service counters snapshot.
    Stats(ServiceStats),
    /// The request failed.
    Error(ServiceError),
}

/// The per-request response stream: iterate until it ends. A request
/// routed to the worker pool ends when every worker holding its reply
/// handle has finished; one answered on the submitting thread (see
/// [`CpiClient::submit`]) arrives complete.
#[derive(Debug)]
pub struct ResponseStream {
    source: ReplySource,
}

#[derive(Debug)]
enum ReplySource {
    /// Streamed back by shard workers as they produce it.
    Queued(mpsc::Receiver<Response>),
    /// Answered on the submitting thread before `submit` returned.
    Ready(std::vec::IntoIter<Response>),
}

impl Iterator for ResponseStream {
    type Item = Response;

    fn next(&mut self) -> Option<Response> {
        match &mut self.source {
            ReplySource::Queued(rx) => rx.recv().ok(),
            ReplySource::Ready(replies) => replies.next(),
        }
    }
}

impl ResponseStream {
    fn ready(replies: Vec<Response>) -> Self {
        Self {
            source: ReplySource::Ready(replies.into_iter()),
        }
    }

    /// Drains the stream, returning every response — or the first error.
    ///
    /// # Errors
    ///
    /// The first [`Response::Error`] in the stream.
    pub fn finish(self) -> Result<Vec<Response>, ServiceError> {
        let mut out = Vec::new();
        for response in self {
            match response {
                Response::Error(e) => return Err(e),
                other => out.push(other),
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The model cache
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    machine: MachineId,
    suite: Option<Suite>,
    options: u64,
}

#[derive(Debug)]
struct CacheEntry {
    tenant: TenantId,
    key: CacheKey,
    generation: u64,
    last_used: u64,
    model: Arc<InferredModel>,
}

/// Cache hit/miss accounting, exposed through [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries evicted because the cache was full (LRU order).
    pub evictions: u64,
    /// Entries dropped because their machine's records changed
    /// (generation mismatch) or its spec was replaced.
    pub invalidations: u64,
    /// Models inserted into the cache — after a fresh fit, or promoted
    /// from the on-disk snapshot store on a warm load.
    pub inserts: u64,
    /// Lookups served from the on-disk snapshot store
    /// ([`persist::SnapshotStore`]) instead of a regression — these count
    /// as `hits`, not `misses`: the caller got a model without a fit.
    pub warm_loads: u64,
    /// Streaming refits that ran the full multi-start fan-out — the first
    /// fit of a stream, the periodic re-anchor, and every drift-guard
    /// fallback ([`Request::Refit`]).
    pub full_refits: u64,
    /// Streaming refits served by the warm-start polish
    /// ([`InferredModel::refit`]) — the steady-state path whose cost the
    /// bench's streaming section measures against `full_refits`.
    pub incremental_refits: u64,
    /// Objective evaluations spent by every regression this tenant paid
    /// for — full fan-outs and incremental polishes alike (see
    /// [`crate::fit::FitProfile`]). With `fit_wall_us` this turns "the
    /// fit is slow" into *which* fits burned *how many* evaluations.
    pub fit_evals: u64,
    /// Wall-clock those regressions took, µs (summed; divide by the
    /// service's `fits` counter for a mean).
    pub fit_wall_us: u64,
}

impl CacheStats {
    /// Adds another tally into this one, field by field — the single
    /// place that enumerates every counter, so per-tenant stats can
    /// never silently drop a future field from the aggregate.
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            evictions,
            invalidations,
            inserts,
            warm_loads,
            full_refits,
            incremental_refits,
            fit_evals,
            fit_wall_us,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.evictions += evictions;
        self.invalidations += invalidations;
        self.inserts += inserts;
        self.warm_loads += warm_loads;
        self.full_refits += full_refits;
        self.incremental_refits += incremental_refits;
        self.fit_evals += fit_evals;
        self.fit_wall_us += fit_wall_us;
    }
}

/// A tenant-partitioned LRU cache of fitted models keyed by
/// `(tenant, machine, suite, FitOptions fingerprint)`, with
/// generation-based invalidation: every entry remembers the record-store
/// generation it was fitted at, and a lookup only hits while the
/// machine's generation still matches — ingesting a new counter batch
/// silently retires every stale model.
///
/// The capacity is a **per-tenant quota**, not a shared pool: inserting
/// beyond it evicts the inserting tenant's own least-recently-used entry,
/// so one tenant flooding the cache can never push out another tenant's
/// models. Accounting ([`CacheStats`]) is kept per tenant too; every
/// counter mutation happens in the same call as the map mutation it
/// describes, so the stats are never momentarily inconsistent with the
/// entries (the old `insert`-then-adjust `promote_warm` could double-count
/// a hit when it raced a fresher insert after a generation bump).
///
/// # Examples
///
/// ```
/// use memodel::service::ModelCache;
/// let cache = ModelCache::new(8);
/// assert_eq!(cache.capacity(), 8);
/// assert!(cache.is_empty());
/// ```
#[derive(Debug)]
pub struct ModelCache {
    /// Per-tenant entry quota.
    capacity: usize,
    tick: u64,
    entries: Vec<CacheEntry>,
    /// Per-tenant accounting, insertion-ordered for deterministic
    /// aggregation.
    stats: Vec<(TenantId, CacheStats)>,
}

impl ModelCache {
    /// An empty cache holding at most `capacity` models **per tenant**
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Maximum number of cached models per tenant.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently cached models, all tenants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Currently cached models belonging to one tenant.
    pub fn len_for(&self, tenant: &TenantId) -> usize {
        self.entries.iter().filter(|e| &e.tenant == tenant).count()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Aggregate accounting counters across every tenant.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, s) in &self.stats {
            total.merge(s);
        }
        total
    }

    /// One tenant's accounting counters.
    pub fn stats_for(&self, tenant: &TenantId) -> CacheStats {
        self.stats
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    fn stats_mut(&mut self, tenant: &TenantId) -> &mut CacheStats {
        if let Some(i) = self.stats.iter().position(|(t, _)| t == tenant) {
            return &mut self.stats[i].1;
        }
        self.stats.push((tenant.clone(), CacheStats::default()));
        &mut self.stats.last_mut().expect("just pushed").1
    }

    /// Looks up `tenant`'s model for `key` fitted at `generation`. A hit
    /// marks the entry most-recently-used; a generation mismatch drops
    /// the stale entry (counted as an invalidation *and* a miss). Another
    /// tenant's entry for the same key is invisible here.
    pub fn lookup(
        &mut self,
        tenant: &TenantId,
        key: &ModelKey,
        generation: u64,
    ) -> Option<Arc<InferredModel>> {
        let cache_key = key.cache_key();
        let Some(i) = self
            .entries
            .iter()
            .position(|e| &e.tenant == tenant && e.key == cache_key)
        else {
            self.stats_mut(tenant).misses += 1;
            return None;
        };
        if self.entries[i].generation != generation {
            self.entries.remove(i);
            let stats = self.stats_mut(tenant);
            stats.invalidations += 1;
            stats.misses += 1;
            return None;
        }
        self.tick += 1;
        self.entries[i].last_used = self.tick;
        self.stats_mut(tenant).hits += 1;
        Some(self.entries[i].model.clone())
    }

    /// Peeks whether a servable entry exists for `tenant`, without
    /// touching LRU order or the counters.
    pub fn contains(&self, tenant: &TenantId, key: &ModelKey, generation: u64) -> bool {
        self.peek(tenant, key, generation).is_some()
    }

    /// A counter-free read of `tenant`'s servable model for `key`: no
    /// LRU touch, no hit/miss accounting. The cluster replication path
    /// re-encodes cached models through here so replication traffic is
    /// invisible in the stats lines golden transcripts pin.
    pub fn peek(
        &self,
        tenant: &TenantId,
        key: &ModelKey,
        generation: u64,
    ) -> Option<Arc<InferredModel>> {
        let cache_key = key.cache_key();
        self.entries
            .iter()
            .find(|e| &e.tenant == tenant && e.key == cache_key && e.generation == generation)
            .map(|e| Arc::clone(&e.model))
    }

    /// The one mutation path behind [`ModelCache::insert`] and
    /// [`ModelCache::promote_warm`]: stores (or refreshes) an entry and
    /// updates the counters *in the same call*, returning whether the
    /// model was actually stored. A stale insert — `generation` older
    /// than what the map already holds for the key — is discarded and
    /// counts nothing (the old code still counted an insert for it).
    fn store(
        &mut self,
        tenant: &TenantId,
        cache_key: CacheKey,
        generation: u64,
        model: Arc<InferredModel>,
    ) -> bool {
        self.tick += 1;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| &e.tenant == tenant && e.key == cache_key)
        {
            // A pinned/delta fit working from an older snapshot can finish
            // after a fresher fit of the same key: keep the newer model,
            // or the next lookup would invalidate and re-run the
            // regression for nothing.
            if generation < entry.generation {
                return false;
            }
            entry.generation = generation;
            entry.last_used = self.tick;
            entry.model = model;
        } else {
            if self.len_for(tenant) >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| &e.tenant == tenant)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("the tenant holds entries when over quota");
                self.entries.remove(lru);
                self.stats_mut(tenant).evictions += 1;
            }
            let tick = self.tick;
            self.entries.push(CacheEntry {
                tenant: tenant.clone(),
                key: cache_key,
                generation,
                last_used: tick,
                model,
            });
        }
        self.stats_mut(tenant).inserts += 1;
        true
    }

    /// Inserts (or replaces) `tenant`'s model for `key` at `generation`,
    /// evicting that tenant's least-recently-used entry when its quota is
    /// full. Other tenants' entries are never touched.
    pub fn insert(
        &mut self,
        tenant: &TenantId,
        key: &ModelKey,
        generation: u64,
        model: Arc<InferredModel>,
    ) {
        self.store(tenant, key.cache_key(), generation, model);
    }

    /// Promotes a model restored from the on-disk snapshot store into the
    /// cache. The caller's [`ModelCache::lookup`] just counted a miss, but
    /// the request was served without a regression after all — so in one
    /// atomic mutation the entry is stored and the miss reclassified as a
    /// hit, tallied under [`CacheStats::warm_loads`]. `hits + misses`
    /// still equals total lookups, and the counters can never be observed
    /// between the store and the reclassification.
    pub fn promote_warm(
        &mut self,
        tenant: &TenantId,
        key: &ModelKey,
        generation: u64,
        model: Arc<InferredModel>,
    ) {
        self.store(tenant, key.cache_key(), generation, model);
        let stats = self.stats_mut(tenant);
        // Saturating: a caller that skipped the lookup must not wrap the
        // counter (the service always looks up first).
        stats.misses = stats.misses.saturating_sub(1);
        stats.hits += 1;
        stats.warm_loads += 1;
    }

    /// Drops every entry `tenant` holds for `machine` (used when its spec
    /// is replaced).
    fn invalidate_machine(&mut self, tenant: &TenantId, machine: MachineId) {
        let before = self.entries.len();
        self.entries
            .retain(|e| &e.tenant != tenant || e.key.machine != machine);
        self.stats_mut(tenant).invalidations += (before - self.entries.len()) as u64;
    }
}

// ---------------------------------------------------------------------------
// Service state
// ---------------------------------------------------------------------------

/// Service counters, snapshot via [`Request::Stats`] /
/// [`CpiClient::stats`] (scoped to the calling client's tenant) or
/// returned aggregated across every tenant by [`CpiService::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Tasks processed by the worker pool (requests may split into
    /// several tasks, e.g. multi-machine ingestion).
    pub requests: u64,
    /// Nonlinear regressions actually run (cache misses that fitted).
    pub fits: u64,
    /// Counter records ingested over the service's lifetime.
    pub ingested_records: u64,
    /// Worker shards serving the queue (deployment-wide).
    pub workers: usize,
    /// Model-cache accounting.
    pub cache: CacheStats,
    /// Tenants the service has seen traffic from (deployment-wide).
    pub tenants: usize,
}

#[derive(Debug, Default)]
struct MachineState {
    spec: Option<MachineSpec>,
    /// Ingested batches in arrival order. Each batch is an `Arc` so a fit
    /// can snapshot the store under the lock in O(batches) pointer clones
    /// and do all record filtering/copying *outside* it.
    batches: Vec<Arc<Vec<RunRecord>>>,
    generation: u64,
    /// Per-(suite, options) streaming baselines: the last full-fit anchor
    /// each [`Request::Refit`] key warm-starts from and drift-checks
    /// against. Invisible to the plain fitting path.
    baselines: Vec<(BaselineKey, RefitBaseline)>,
}

impl MachineState {
    fn baseline(&self, key: &BaselineKey) -> Option<&RefitBaseline> {
        self.baselines
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, b)| b)
    }

    fn set_baseline(&mut self, key: BaselineKey, baseline: RefitBaseline) {
        if let Some(i) = self.baselines.iter().position(|(k, _)| *k == key) {
            self.baselines[i].1 = baseline;
        } else {
            self.baselines.push((key, baseline));
        }
    }
}

/// Identifies one streaming baseline within a machine: the suite group and
/// the fit-options fingerprint (same scoping as the model cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaselineKey {
    suite: Option<Suite>,
    options: u64,
}

/// The anchor a streaming key's incremental refits polish from: the last
/// full fit's parameters, its per-record objective (the drift bound), the
/// workload's identity digest, and how many incremental refits have run
/// since the anchor was set.
#[derive(Debug, Clone)]
struct RefitBaseline {
    params: crate::params::ModelParams,
    interval_cap: f64,
    /// The anchor full fit's objective divided by its record count — the
    /// scale-free quantity the drift guard compares against.
    full_norm_objective: f64,
    /// Digest of the distinct benchmark names the anchor trained on; a
    /// change means the workload itself shifted and the basin may have
    /// moved, so the guard forces a full refit.
    workload_digest: u64,
    since_full: u64,
}

/// One tenant's private slice of the service: its machine namespace and
/// its task counters. Nothing here is reachable from another tenant's
/// requests.
#[derive(Debug, Default)]
struct TenantState {
    /// Insertion-ordered so enumeration is deterministic.
    machines: Vec<(MachineId, MachineState)>,
    requests: u64,
    fits: u64,
    ingested_records: u64,
}

impl TenantState {
    fn machine_mut(&mut self, machine: MachineId) -> &mut MachineState {
        if let Some(i) = self.machines.iter().position(|(id, _)| *id == machine) {
            return &mut self.machines[i].1;
        }
        self.machines.push((machine, MachineState::default()));
        &mut self.machines.last_mut().expect("just pushed").1
    }

    fn machine(&self, machine: MachineId) -> Option<&MachineState> {
        self.machines
            .iter()
            .find(|(id, _)| *id == machine)
            .map(|(_, s)| s)
    }

    /// Appends an ingested batch to `machine`'s store and returns its new
    /// generation, unless the store would then hold more than `limit`
    /// records ([`MAX_MACHINE_RECORDS`] in service): then nothing changes.
    fn append(
        &mut self,
        machine: MachineId,
        records: Vec<RunRecord>,
        limit: usize,
    ) -> Result<u64, ServiceError> {
        let held: usize = self
            .machine(machine)
            .map_or(0, |m| m.batches.iter().map(|b| b.len()).sum());
        if held.saturating_add(records.len()) > limit {
            return Err(ServiceError::TooManyRecords { machine });
        }
        self.ingested_records += records.len() as u64;
        let machine_state = self.machine_mut(machine);
        machine_state.batches.push(Arc::new(records));
        machine_state.generation += 1;
        Ok(machine_state.generation)
    }
}

#[derive(Debug)]
struct Inner {
    /// Per-tenant state, insertion-ordered.
    tenants: Vec<(TenantId, TenantState)>,
    cache: ModelCache,
    /// The durable model store root, when the service was started with a
    /// state dir (named tenants persist under per-tenant subdirectories
    /// of it). Workers clone the (cheap) handle out of the lock and do
    /// every file read/write outside it.
    persist: Option<SnapshotStore>,
    /// Deployment-wide cold-compute budget override: the thread count of
    /// every regression fan-out and sweep collection (see [`cold_threads`]).
    fit_threads: Option<usize>,
    /// Streaming refit policy (drift guard + budgets), deployment-wide.
    refit: RefitPolicy,
    workers: usize,
}

impl Inner {
    fn tenant_mut(&mut self, tenant: &TenantId) -> &mut TenantState {
        if let Some(i) = self.tenants.iter().position(|(t, _)| t == tenant) {
            return &mut self.tenants[i].1;
        }
        self.tenants.push((tenant.clone(), TenantState::default()));
        &mut self.tenants.last_mut().expect("just pushed").1
    }

    fn tenant(&self, tenant: &TenantId) -> Option<&TenantState> {
        self.tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, s)| s)
    }

    /// One tenant's view: its own task counters and cache accounting,
    /// plus the deployment-wide worker and tenant counts.
    fn stats_for(&self, tenant: &TenantId) -> ServiceStats {
        let state = self.tenant(tenant);
        ServiceStats {
            requests: state.map_or(0, |s| s.requests),
            fits: state.map_or(0, |s| s.fits),
            ingested_records: state.map_or(0, |s| s.ingested_records),
            workers: self.workers,
            cache: self.cache.stats_for(tenant),
            tenants: self.tenants.len(),
        }
    }

    /// The aggregate across every tenant (what a single-tenant service
    /// reported before tenancy existed).
    fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats {
            workers: self.workers,
            tenants: self.tenants.len(),
            cache: self.cache.stats(),
            ..ServiceStats::default()
        };
        for (_, state) in &self.tenants {
            // Destructured so a future per-tenant counter cannot be
            // silently dropped from the aggregate.
            let TenantState {
                machines: _,
                requests,
                fits,
                ingested_records,
            } = state;
            total.requests += requests;
            total.fits += fits;
            total.ingested_records += ingested_records;
        }
        total
    }
}

/// Locks the state, recovering from a poisoned mutex (a panicking fit on
/// another worker must not wedge the whole service).
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Configuration, service, client
// ---------------------------------------------------------------------------

/// Configuration for [`CpiService::start`]. Construct via
/// [`ServiceConfig::new`] and refine with the `with_*` setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker shards (machines are hashed across them).
    pub workers: usize,
    /// Maximum models held by the [`ModelCache`].
    pub cache_capacity: usize,
    /// When set, fitted models persist to a [`persist::SnapshotStore`]
    /// under this directory and are restored lazily on cache misses — a
    /// restarted service warms up without refitting (see [`persist`]).
    pub state_dir: Option<std::path::PathBuf>,
    /// The cold-compute budget. When set, it is the thread count of every
    /// cold job a worker runs — each regression's multi-start fan-out
    /// *and* each sweep's simulation collect pool — overriding the
    /// request's [`FitOptions::threads`] (which decides when unset; `0`
    /// = one thread per core). Each shard runs one cold job at a time,
    /// so peak cold threads ≈ `workers × budget`: a service with many
    /// shards typically wants a small budget and vice versa. Scheduling
    /// only: fitted bits and simulated records never depend on it, and
    /// it is invisible to cache keys and persisted snapshots.
    pub fit_threads: Option<usize>,
    /// Streaming refit policy: warm-start budget, drift bound and full-
    /// refit cadence for [`Request::Refit`].
    pub refit: RefitPolicy,
}

/// Policy governing streaming refits ([`Request::Refit`]): when the
/// warm-start polish may serve a batch and when the full multi-start
/// fan-out must re-anchor the baseline.
///
/// Like [`FitOptions`] it is `#[non_exhaustive]`: construct via
/// [`Default`] and refine with the `with_*` setters. Unlike `FitOptions`,
/// none of these knobs enter cache keys or persisted snapshots — they
/// steer *scheduling* between two deterministic fit paths, and the
/// stream-close reconciliation (a forced full refit) erases any
/// policy-dependent parameter history.
///
/// # Examples
///
/// ```
/// use memodel::service::RefitPolicy;
///
/// let policy = RefitPolicy::default().with_warm_evals(500).with_full_every(4);
/// assert_eq!(policy.warm_evals, 500);
/// assert_eq!(policy.full_every, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RefitPolicy {
    /// Objective-evaluation budget of one incremental polish
    /// ([`InferredModel::refit`]). The full fan-out spends
    /// `(1 + extra_starts) × max_evals`; keeping this a small fraction of
    /// that is what makes steady-state streaming cheap.
    pub warm_evals: usize,
    /// Re-anchor with a full fit after this many consecutive incremental
    /// refits (minimum 1 = always full). Bounds how far the polished
    /// parameters can random-walk from a globally-optimal anchor.
    pub full_every: u64,
    /// Drift bound: an incremental refit is accepted only while its
    /// per-record objective stays within this factor of the baseline full
    /// fit's. Above it, the workload is assumed to have drifted out of
    /// the anchor's basin and the full fan-out runs instead.
    pub drift_factor: f64,
}

impl Default for RefitPolicy {
    fn default() -> Self {
        Self {
            warm_evals: 2_000,
            full_every: 16,
            drift_factor: 1.5,
        }
    }
}

impl RefitPolicy {
    /// The default policy: 2 000-evaluation polishes, a full re-anchor
    /// every 16 batches, drift bound 1.5×.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the incremental polish's evaluation budget (minimum 1).
    pub fn with_warm_evals(mut self, evals: usize) -> Self {
        self.warm_evals = evals.max(1);
        self
    }

    /// Sets the full-refit cadence (minimum 1 = every refit is full).
    pub fn with_full_every(mut self, every: u64) -> Self {
        self.full_every = every.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(1, 16),
            cache_capacity: 32,
            state_dir: None,
            fit_threads: None,
            refit: RefitPolicy::default(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration: one worker per hardware thread (capped
    /// at 16), a 32-model cache, no persistence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-shard count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the model-cache capacity (minimum 1).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Persists fitted models under `dir` and warm-loads them on cache
    /// misses (created if missing when the service starts).
    pub fn with_state_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Sets the cold-compute budget (minimum 1): the thread count of every
    /// regression fan-out and sweep collection this service's workers
    /// run, overriding whatever the request's [`FitOptions::threads`]
    /// says. See [`ServiceConfig::fit_threads`].
    pub fn with_fit_threads(mut self, threads: usize) -> Self {
        self.fit_threads = Some(threads.max(1));
        self
    }

    /// Sets the streaming refit policy (see [`RefitPolicy`]).
    pub fn with_refit_policy(mut self, policy: RefitPolicy) -> Self {
        self.refit = policy;
        self
    }
}

enum WorkerMsg {
    Task {
        tenant: TenantId,
        task: Task,
        reply: mpsc::Sender<Response>,
    },
    Shutdown,
}

/// The worker-side unit of work: requests are routed (and multi-machine
/// ingestion split) into tasks before they reach a shard.
enum Task {
    Register(Box<MachineSpec>),
    Ingest {
        machine: MachineId,
        records: Vec<RunRecord>,
    },
    StreamBatch {
        machine: MachineId,
        records: Vec<RunRecord>,
    },
    Refit {
        key: ModelKey,
        force_full: bool,
    },
    Read(ModelRead, ModelKey),
    Delta {
        old: MachineId,
        new: MachineId,
        suite: Suite,
        options: FitOptions,
    },
    SweepCollect(Box<SweepSpec>),
    Sweep(Box<SweepSpec>),
    ImportRecords {
        spec: Box<MachineSpec>,
        records: Vec<RunRecord>,
    },
}

/// The four model reads ([`Request::Fit`], [`Request::Stacks`],
/// [`Request::Group`], [`Request::Predictions`]): each serves one key's
/// model and differs from the others only in the replies it streams.
#[derive(Debug, Clone, Copy)]
enum ModelRead {
    Fit,
    Stacks,
    Group,
    Predictions,
}

impl ModelRead {
    fn of(request: &Request) -> Option<(ModelRead, &ModelKey)> {
        match request {
            Request::Fit(key) => Some((ModelRead::Fit, key)),
            Request::Stacks(key) => Some((ModelRead::Stacks, key)),
            Request::Group(key) => Some((ModelRead::Group, key)),
            Request::Predictions(key) => Some((ModelRead::Predictions, key)),
            _ => None,
        }
    }

    /// Streams this read's replies for a served model, in the one order
    /// both the shard worker and the inline cache-hit path use. `trained`
    /// is the materialized training set when the serve already built one
    /// (a miss), so `Group` does not copy the records twice.
    fn reply(
        self,
        report: ModelReport,
        snapshot: &RecordsSnapshot,
        trained: Option<Vec<RunRecord>>,
        mut send: impl FnMut(Response),
    ) {
        let model = Arc::clone(&report.model);
        match self {
            ModelRead::Fit => send(Response::Model(report)),
            ModelRead::Stacks => {
                send(Response::Model(report));
                for record in snapshot.iter() {
                    send(Response::Stack {
                        benchmark: record.benchmark().to_owned(),
                        stack: model.cpi_stack(record),
                    });
                }
            }
            ModelRead::Group => send(Response::Group(Box::new(FittedGroup {
                machine: report.machine,
                suite: report.suite,
                arch: *model.arch(),
                model: (*model).clone(),
                records: trained.unwrap_or_else(|| snapshot.to_vec()),
            }))),
            ModelRead::Predictions => {
                send(Response::Model(report));
                for record in snapshot.iter() {
                    send(Response::Prediction {
                        benchmark: record.benchmark().to_owned(),
                        measured: record.cpi(),
                        predicted: model.predict_record(record),
                    });
                }
            }
        }
    }
}

struct Router {
    shards: Vec<mpsc::Sender<WorkerMsg>>,
    inner: Arc<Mutex<Inner>>,
    /// Set once by shutdown so requests answered inline (stats, cache
    /// hits) honour the `Stopped` contract like queue-routed ones do.
    stopped: std::sync::atomic::AtomicBool,
}

impl Router {
    /// Shard for machine-scoped traffic (registration, ingestion): all
    /// store mutations for one tenant's machine are serialized on one
    /// worker. The tenant is part of the hash, so two tenants' same-named
    /// machines fan out instead of contending for one shard.
    fn shard_of(&self, tenant: &TenantId, machine: MachineId) -> usize {
        let mut h = DefaultHasher::new();
        tenant.name().hash(&mut h);
        machine.name().hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Shard for model-scoped traffic (fit/stacks/group/predictions):
    /// hashed by the full tenant-scoped cache key, so repeat requests for
    /// one key are serialized (the second is a cache hit, never a
    /// duplicate regression) while *different* keys — even two suites of
    /// the same machine, or two tenants' models of one machine — fan out
    /// across workers.
    fn shard_of_key(&self, tenant: &TenantId, key: &ModelKey) -> usize {
        let mut h = DefaultHasher::new();
        tenant.name().hash(&mut h);
        key.machine.name().hash(&mut h);
        key.suite.map(Suite::name).hash(&mut h);
        key.options.fingerprint().hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }
}

/// The long-lived serving loop: a sharded worker pool over one shared
/// record store and model cache. See the [module docs](self).
pub struct CpiService {
    router: Arc<Router>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for CpiService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpiService")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl CpiService {
    /// Spawns the worker pool and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics if the configured state directory cannot be created — a
    /// deployment error best surfaced immediately. Use
    /// [`CpiService::try_start`] to handle it as a value.
    pub fn start(config: ServiceConfig) -> Self {
        Self::try_start(config).expect("opening the service state dir")
    }

    /// Spawns the worker pool, surfacing state-directory failures instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// [`persist::PersistError::Io`] when `config.state_dir` is set but
    /// the directory cannot be created.
    pub fn try_start(config: ServiceConfig) -> Result<Self, persist::PersistError> {
        let workers = config.workers.max(1);
        let persist = config
            .state_dir
            .as_ref()
            .map(SnapshotStore::open)
            .transpose()?;
        let inner = Arc::new(Mutex::new(Inner {
            tenants: Vec::new(),
            cache: ModelCache::new(config.cache_capacity),
            persist,
            fit_threads: config.fit_threads,
            refit: config.refit.clone(),
            workers,
        }));
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<WorkerMsg>();
            shards.push(tx);
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cpi-shard-{i}"))
                    .spawn(move || worker_loop(rx, &inner))
                    .expect("spawning a service worker"),
            );
        }
        Ok(Self {
            router: Arc::new(Router {
                shards,
                inner,
                stopped: std::sync::atomic::AtomicBool::new(false),
            }),
            handles,
        })
    }

    /// A new client handle bound to the implicit [`TenantId::local`]
    /// tenant. Clients are cheap, cloneable, and may be moved to other
    /// threads; every client shares this service's warm state (within its
    /// tenant's namespace).
    pub fn client(&self) -> CpiClient {
        self.client_for(TenantId::local())
    }

    /// A client handle bound to `tenant`: every request it submits
    /// operates on that tenant's machine namespace, cache quota and
    /// persisted state, and [`CpiClient::stats`] reports that tenant's
    /// counters.
    pub fn client_for(&self, tenant: TenantId) -> CpiClient {
        CpiClient {
            router: Arc::clone(&self.router),
            tenant,
        }
    }

    /// Stops the workers (after they drain their queues) and returns the
    /// final counters. Outstanding clients observe [`ServiceError::Stopped`]
    /// on their next submission.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        lock(&self.router.inner).stats()
    }

    fn stop(&mut self) {
        self.router
            .stopped
            .store(true, std::sync::atomic::Ordering::SeqCst);
        for shard in &self.router.shards {
            // A send can only fail if the worker already exited.
            let _ = shard.send(WorkerMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CpiService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A handle for submitting [`Request`]s to a [`CpiService`], bound to one
/// [`TenantId`]. Obtained from [`CpiService::client`] (local tenant) or
/// [`CpiService::client_for`]; cloneable and thread-safe.
#[derive(Clone)]
pub struct CpiClient {
    router: Arc<Router>,
    tenant: TenantId,
}

impl fmt::Debug for CpiClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpiClient")
            .field("shards", &self.router.shards.len())
            .field("tenant", &self.tenant.name())
            .finish()
    }
}

impl CpiClient {
    /// The tenant every request from this handle is scoped to.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// A sibling handle on the same service bound to a different tenant
    /// (the protocol front rebinds a session's client on a successful
    /// `hello` handshake).
    pub fn for_tenant(&self, tenant: TenantId) -> CpiClient {
        CpiClient {
            router: Arc::clone(&self.router),
            tenant,
        }
    }

    /// Submits one request; responses stream back on the returned
    /// stream.
    ///
    /// Two kinds of request are answered on the calling thread, before
    /// `submit` returns, so they never queue behind a regression or a
    /// sweep on some worker:
    ///
    /// * [`Request::Stats`], always;
    /// * a model read — [`Request::Fit`], [`Request::Stacks`],
    ///   [`Request::Group`] or [`Request::Predictions`] — whose model this
    ///   tenant has cached at the machine's current generation. It counts
    ///   one request and one cache hit, and refreshes the entry's LRU
    ///   recency, exactly as the worker would, and streams the same
    ///   replies in the same order.
    ///
    /// Everything else goes to a shard worker: a read that misses the
    /// cache, has no records or names an unregistered machine, and every
    /// other request.
    ///
    /// Ordering: store mutations for one machine (register, ingest) are
    /// FIFO on its shard, and model requests for one key that miss the
    /// cache are FIFO on the key's shard. An ingest and a fit may land on
    /// *different* shards, and a cache hit answered here passes anything
    /// still queued, so drain a mutation's stream before submitting a
    /// request that depends on it (every convenience method on this
    /// client does). A hit sees every mutation whose stream was drained
    /// before it was submitted: it reads the generation current under the
    /// service lock.
    pub fn submit(&self, request: Request) -> ResponseStream {
        if let Some(replies) = self.answer_inline(&request) {
            return ResponseStream::ready(replies);
        }
        match self.route(request) {
            Ok(tasks) => {
                let (tx, rx) = mpsc::channel();
                self.dispatch(tasks, &tx);
                ResponseStream {
                    source: ReplySource::Queued(rx),
                }
            }
            Err(e) => ResponseStream::ready(vec![Response::Error(e)]),
        }
    }

    /// The replies to `request` when it can be answered on this thread
    /// (see [`CpiClient::submit`]), or `None` to route it to a shard.
    fn answer_inline(&self, request: &Request) -> Option<Vec<Response>> {
        let read = ModelRead::of(request);
        if read.is_none() && !matches!(request, Request::Stats) {
            return None;
        }
        if self
            .router
            .stopped
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            return Some(vec![Response::Error(ServiceError::Stopped)]);
        }
        let mut guard = lock(&self.router.inner);
        let Some((read, key)) = read else {
            guard.tenant_mut(&self.tenant).requests += 1;
            return Some(vec![Response::Stats(guard.stats_for(&self.tenant))]);
        };
        let (report, snapshot) = cached_read(&mut guard, &self.tenant, key)?;
        drop(guard);
        let mut replies = Vec::new();
        read.reply(report, &snapshot, None, |response| replies.push(response));
        Some(replies)
    }

    fn dispatch(&self, tasks: Vec<(usize, Task)>, tx: &mpsc::Sender<Response>) {
        for (shard, task) in tasks {
            if self.router.shards[shard]
                .send(WorkerMsg::Task {
                    tenant: self.tenant.clone(),
                    task,
                    reply: tx.clone(),
                })
                .is_err()
            {
                let _ = tx.send(Response::Error(ServiceError::Stopped));
            }
        }
    }

    /// A [`Request::Group`] pinned to an explicit shard (modulo the pool
    /// size), bypassing hash placement. Pinning forfeits same-key
    /// serialization — two concurrent requests for one key pinned to
    /// different shards can fit twice — so use it only for one-shot
    /// fan-out over *distinct* keys (as `Workbench::fit` and the bench
    /// `Campaign` do, round-robin, so no worker sits idle on a hash
    /// collision).
    pub fn submit_group_at(&self, shard: usize, key: ModelKey) -> ResponseStream {
        let (tx, rx) = mpsc::channel();
        let shard = shard % self.router.shards.len();
        self.dispatch(vec![(shard, Task::Read(ModelRead::Group, key))], &tx);
        ResponseStream {
            source: ReplySource::Queued(rx),
        }
    }

    /// Splits a request into per-shard tasks. CSV parsing happens here, on
    /// the client's thread, so a malformed batch never occupies a worker.
    fn route(&self, request: Request) -> Result<Vec<(usize, Task)>, ServiceError> {
        let r = &self.router;
        let t = &self.tenant;
        Ok(match request {
            Request::Register(spec) => vec![(r.shard_of(t, spec.id()), Task::Register(spec))],
            Request::IngestRecords(records) => {
                // Stable per-machine partition: each chunk routes to its
                // machine's shard, keeping ingest→fit FIFO per machine.
                let mut chunks: Vec<(MachineId, Vec<RunRecord>)> = Vec::new();
                for record in records {
                    let machine = record.machine();
                    match chunks.iter_mut().find(|(id, _)| *id == machine) {
                        Some((_, chunk)) => chunk.push(record),
                        None => chunks.push((machine, vec![record])),
                    }
                }
                chunks
                    .into_iter()
                    .map(|(machine, records)| {
                        (r.shard_of(t, machine), Task::Ingest { machine, records })
                    })
                    .collect()
            }
            Request::IngestCsv { text, origin } => {
                let records = pmu::csv::from_csv(&text)
                    .map_err(|error| ServiceError::Parse { origin, error })?;
                return self.route(Request::IngestRecords(records));
            }
            Request::StreamBatch {
                machine,
                mut records,
            } => {
                // A live source is bound to one machine; records tagged
                // for another are dropped here, never silently upserted
                // into the wrong store.
                records.retain(|r| r.machine() == machine);
                vec![(
                    r.shard_of(t, machine),
                    Task::StreamBatch { machine, records },
                )]
            }
            Request::Refit { key, force_full } => {
                vec![(r.shard_of_key(t, &key), Task::Refit { key, force_full })]
            }
            Request::Fit(key) => vec![(r.shard_of_key(t, &key), Task::Read(ModelRead::Fit, key))],
            Request::Stacks(key) => {
                vec![(r.shard_of_key(t, &key), Task::Read(ModelRead::Stacks, key))]
            }
            Request::Group(key) => {
                vec![(r.shard_of_key(t, &key), Task::Read(ModelRead::Group, key))]
            }
            Request::Predictions(key) => {
                vec![(
                    r.shard_of_key(t, &key),
                    Task::Read(ModelRead::Predictions, key),
                )]
            }
            Request::Delta {
                old,
                new,
                suite,
                options,
            } => vec![(
                r.shard_of_key(t, &ModelKey::new(old, Some(suite), options.clone())),
                Task::Delta {
                    old,
                    new,
                    suite,
                    options,
                },
            )],
            Request::SweepCollect(spec) => {
                // The base's *store* shard: collection mutates every
                // variant's store, and serializing on one shard keeps two
                // overlapping sweeps from simulating the same config twice.
                vec![(r.shard_of(t, spec.base), Task::SweepCollect(spec))]
            }
            Request::Sweep(spec) => {
                let key = ModelKey::new(spec.base, Some(spec.suite), spec.options.clone());
                vec![(r.shard_of_key(t, &key), Task::Sweep(spec))]
            }
            Request::ImportRecords { spec, records } => vec![(
                r.shard_of(t, spec.id()),
                Task::ImportRecords { spec, records },
            )],
            // Answered inline by `submit` before routing.
            Request::Stats => Vec::new(),
        })
    }

    /// Registers (or replaces) a machine spec and waits for the ack.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] when the service is gone.
    pub fn register(&self, spec: MachineSpec) -> Result<MachineId, ServiceError> {
        for response in self.submit(Request::Register(Box::new(spec))) {
            match response {
                Response::Registered { machine } => return Ok(machine),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Ingests a record batch (machines may be mixed) and waits until every
    /// per-machine chunk has landed. Returns the total records ingested.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] when the service is gone.
    pub fn ingest(&self, records: Vec<RunRecord>) -> Result<usize, ServiceError> {
        let mut total = 0;
        for response in self.submit(Request::IngestRecords(records)) {
            match response {
                Response::Ingested { records, .. } => total += records,
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Ok(total)
    }

    /// Parses counters-CSV text and ingests it; `origin` names the source
    /// for error messages.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] (with `origin` and the offending line) when
    /// the text is malformed; [`ServiceError::Stopped`] when the service
    /// is gone.
    pub fn ingest_csv(&self, text: &str, origin: &str) -> Result<usize, ServiceError> {
        let mut total = 0;
        for response in self.submit(Request::IngestCsv {
            text: text.to_owned(),
            origin: origin.to_owned(),
        }) {
            match response {
                Response::Ingested { records, .. } => total += records,
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Ok(total)
    }

    /// Upserts one live counter batch into `machine`'s store (see
    /// [`Request::StreamBatch`]) and waits for the ack. Returns the
    /// records landed and the machine's new generation.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] when the service is gone.
    pub fn stream_batch(
        &self,
        machine: MachineId,
        records: Vec<RunRecord>,
    ) -> Result<(usize, u64), ServiceError> {
        for response in self.submit(Request::StreamBatch { machine, records }) {
            match response {
                Response::Ingested {
                    records,
                    generation,
                    ..
                } => return Ok((records, generation)),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Serves one model on the streaming path (see [`Request::Refit`]):
    /// cache hit, incremental warm-start polish, or full fan-out —
    /// whichever is cheapest and safe under the service's
    /// [`RefitPolicy`]. `force_full` forces the fan-out and re-anchors
    /// the baseline (the stream-close reconciliation).
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] the refit produced.
    pub fn refit(
        &self,
        key: ModelKey,
        force_full: bool,
    ) -> Result<(ModelReport, RefitMode), ServiceError> {
        for response in self.submit(Request::Refit { key, force_full }) {
            match response {
                Response::Refit { report, mode } => return Ok((report, mode)),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Fits (or fetches) one model.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] the fit produced.
    pub fn fit(&self, key: ModelKey) -> Result<ModelReport, ServiceError> {
        for response in self.submit(Request::Fit(key)) {
            match response {
                Response::Model(report) => return Ok(report),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Fits (or fetches) one model and collects its streamed CPI stacks.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] the fit produced.
    pub fn stacks(
        &self,
        key: ModelKey,
    ) -> Result<(ModelReport, Vec<(String, crate::stack::CpiStack)>), ServiceError> {
        let mut report = None;
        let mut stacks = Vec::new();
        for response in self.submit(Request::Stacks(key)) {
            match response {
                Response::Model(r) => report = Some(r),
                Response::Stack { benchmark, stack } => stacks.push((benchmark, stack)),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        report.map(|r| (r, stacks)).ok_or(ServiceError::Stopped)
    }

    /// Fits (or fetches) one model and returns the whole [`FittedGroup`].
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] the fit produced.
    pub fn group(&self, key: ModelKey) -> Result<FittedGroup, ServiceError> {
        for response in self.submit(Request::Group(key)) {
            match response {
                Response::Group(group) => return Ok(*group),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Fits (or fetches) one model and collects measured-vs-predicted CPI
    /// per benchmark.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] the fit produced.
    pub fn predictions(
        &self,
        key: ModelKey,
    ) -> Result<(ModelReport, Vec<PredictionRow>), ServiceError> {
        let mut report = None;
        let mut predictions = Vec::new();
        for response in self.submit(Request::Predictions(key)) {
            match response {
                Response::Model(r) => report = Some(r),
                Response::Prediction {
                    benchmark,
                    measured,
                    predicted,
                } => predictions.push((benchmark, measured, predicted)),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        report
            .map(|r| (r, predictions))
            .ok_or(ServiceError::Stopped)
    }

    /// CPI-delta stacks explaining `new` vs `old` on one suite.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] either fit produced.
    pub fn delta(
        &self,
        old: MachineId,
        new: MachineId,
        suite: Suite,
        options: FitOptions,
    ) -> Result<DeltaStacks, ServiceError> {
        // Warm both sides on their *home* shards first (concurrently, and
        // serialized with any other request for the same key), so the
        // combining task below is all cache hits — a raw
        // `Request::Delta` fits both sides on one worker instead.
        let warm_old = self.submit(Request::Fit(ModelKey::new(
            old,
            Some(suite),
            options.clone(),
        )));
        let warm_new = self.submit(Request::Fit(ModelKey::new(
            new,
            Some(suite),
            options.clone(),
        )));
        for stream in [warm_old, warm_new] {
            for response in stream {
                if let Response::Error(e) = response {
                    return Err(e);
                }
            }
        }
        for response in self.submit(Request::Delta {
            old,
            new,
            suite,
            options,
        }) {
            match response {
                Response::Delta(delta) => return Ok(delta),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Runs a design-space sweep end to end and returns the ranked
    /// summary: expand the grid, simulate only missing configs on the
    /// collect pool, warm every variant's model on its *home* shard
    /// (fanning the fits across the worker pool, each under the shared
    /// fit-thread budget), then combine — per-variant CPI, delta stacks
    /// vs. the base, and the Pareto front over (CPI,
    /// component-of-interest). A re-sweep of an already-swept grid
    /// simulates nothing and refits nothing: every variant serves from
    /// the model cache or the persisted snapshot store.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Sweep`] on a bad grid; any [`ServiceError`] a
    /// variant's fit produced; [`ServiceError::Stopped`] when the
    /// service is gone.
    pub fn sweep(&self, spec: SweepSpec) -> Result<SweepSummary, ServiceError> {
        for response in self.sweep_begin(spec)? {
            match response {
                Response::SweepSummary(s) => return Ok(*s),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// The streaming form of [`CpiClient::sweep`]: runs the collect
    /// phase, warms every variant key on its home shard, then submits
    /// [`Request::Sweep`] and hands back its live stream — one
    /// [`Response::SweepVariant`] per variant in grid-expansion order,
    /// then one [`Response::SweepSummary`].
    ///
    /// The stream reports what the whole sweep cost, not only its
    /// combining task (which always finds every model warm and simulates
    /// nothing): a variant's `cached` is whether its warm-up found the
    /// model without a regression, and the summary's simulated counts
    /// include the collect phase.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Sweep`] on a bad grid; any error the collect or
    /// warming fits produced.
    pub fn sweep_begin(
        &self,
        spec: SweepSpec,
    ) -> Result<impl Iterator<Item = Response>, ServiceError> {
        let variants =
            sweep::expand_selected(&spec).map_err(|error| ServiceError::Sweep { error })?;
        let mut simulated = (0, 0);
        for response in self.submit(Request::SweepCollect(Box::new(spec.clone()))) {
            match response {
                Response::SweepReady { configs, runs } => simulated = (configs, runs),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        // Warm base + variants concurrently, each on its key's home
        // shard — the same trick `delta` uses, scaled to the grid: the
        // expensive regressions run in parallel across the pool, and the
        // combining task below then serves pure cache hits.
        let keys = std::iter::once(spec.base)
            .chain(variants.iter().map(|v| v.id).filter(|&id| id != spec.base));
        let warms: Vec<ResponseStream> = keys
            .map(|id| {
                self.submit(Request::Fit(ModelKey::new(
                    id,
                    Some(spec.suite),
                    spec.options.clone(),
                )))
            })
            .collect();
        let mut fitted: Vec<MachineId> = Vec::new();
        for stream in warms {
            for response in stream {
                match response {
                    Response::Model(report) if !report.cached => fitted.push(report.machine),
                    Response::Error(e) => return Err(e),
                    _ => {}
                }
            }
        }
        let (configs, runs) = simulated;
        let stream = self.submit(Request::Sweep(Box::new(spec)));
        Ok(stream.map(move |mut response| {
            match &mut response {
                Response::SweepVariant(v) => v.cached &= !fitted.contains(&v.id),
                Response::SweepSummary(s) => {
                    for r in &mut s.results {
                        r.cached &= !fitted.contains(&r.id);
                    }
                    s.simulated_configs += configs;
                    s.simulated_runs += runs;
                }
                _ => {}
            }
            response
        }))
    }

    /// Installs a replicated record store for one machine (see
    /// [`Request::ImportRecords`]) and waits for the ack. Returns the
    /// records installed (0 when the store already digest-matched) and
    /// the machine's generation.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] when the service is gone.
    pub fn import_records(
        &self,
        spec: MachineSpec,
        records: Vec<RunRecord>,
    ) -> Result<(usize, u64), ServiceError> {
        for response in self.submit(Request::ImportRecords {
            spec: Box::new(spec),
            records,
        }) {
            match response {
                Response::Ingested {
                    records,
                    generation,
                    ..
                } => return Ok((records, generation)),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Reads one machine's complete record store (every suite, batch
    /// order preserved) — the payload the [`cluster`] router ships when a
    /// two-machine request spans ring owners. Counter-free like
    /// [`CpiClient::export_snapshot`]: answered inline from the shared
    /// state without touching request or cache accounting.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown;
    /// [`ServiceError::NotRegistered`] when the machine has no spec;
    /// [`ServiceError::NoRecords`] when it has no records at all.
    pub fn export_records(
        &self,
        machine: MachineId,
    ) -> Result<(crate::params::MicroarchParams, Vec<RunRecord>), ServiceError> {
        if self
            .router
            .stopped
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            return Err(ServiceError::Stopped);
        }
        let guard = lock(&self.router.inner);
        let state = guard
            .tenant(&self.tenant)
            .and_then(|t| t.machine(machine))
            .ok_or(ServiceError::NotRegistered { machine })?;
        let arch = *state
            .spec
            .as_ref()
            .ok_or(ServiceError::NotRegistered { machine })?
            .arch();
        let records: Vec<RunRecord> = state
            .batches
            .iter()
            .flat_map(|b| b.iter())
            .cloned()
            .collect();
        if records.is_empty() {
            return Err(ServiceError::NoRecords {
                machine,
                suite: None,
            });
        }
        Ok((arch, records))
    }

    /// Snapshots the service counters.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] when the service is gone.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        for response in self.submit(Request::Stats) {
            match response {
                Response::Stats(stats) => return Ok(stats),
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Err(ServiceError::Stopped)
    }

    /// Serializes this tenant's current servable model for `key` as
    /// [`persist`] snapshot bytes — the payload the [`cluster`]
    /// replication layer ships to ring successors.
    ///
    /// Deliberately **counter-free**: it answers inline from the shared
    /// state (like `stats`) but increments no request/fit counter and
    /// never touches the cache's LRU or hit/miss accounting, so
    /// replication traffic is invisible in the per-tenant stats lines
    /// golden transcripts pin. Resolution mirrors the read side of the
    /// fitting path: the in-memory cache at the current generation
    /// first (re-encoded against the live records digest), then the
    /// tenant's on-disk store. `Ok(None)` when no fitted model exists
    /// for the key yet.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown;
    /// [`ServiceError::NotRegistered`] / [`ServiceError::NoRecords`]
    /// when the key has no spec or no training records to bind a
    /// snapshot's digest to.
    pub fn export_snapshot(&self, key: &ModelKey) -> Result<Option<Vec<u8>>, ServiceError> {
        if self
            .router
            .stopped
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            return Err(ServiceError::Stopped);
        }
        let (arch, batches, store, cached) = {
            let guard = lock(&self.router.inner);
            let state = guard
                .tenant(&self.tenant)
                .and_then(|t| t.machine(key.machine))
                .ok_or(ServiceError::NotRegistered {
                    machine: key.machine,
                })?;
            let spec = state.spec.as_ref().ok_or(ServiceError::NotRegistered {
                machine: key.machine,
            })?;
            (
                *spec.arch(),
                state.batches.clone(),
                guard.persist.clone(),
                guard.cache.peek(&self.tenant, key, state.generation),
            )
        };
        let snapshot = RecordsSnapshot {
            batches,
            suite: key.suite,
        };
        let records = snapshot.to_vec();
        if records.is_empty() {
            return Err(ServiceError::NoRecords {
                machine: key.machine,
                suite: key.suite,
            });
        }
        let digest = persist::records_digest(&records);
        if let Some(model) = cached {
            return Ok(Some(persist::encode(&persist::ModelSnapshot {
                machine: key.machine,
                suite: key.suite,
                options_fingerprint: key.options.fingerprint(),
                records_digest: digest,
                records: records.len() as u32,
                arch,
                params: *model.params(),
                interval_cap: model.interval_cap(),
                objective: model.objective(),
            })));
        }
        // Not in memory: the node may still hold it on disk (warm-loaded
        // then evicted, or persisted before a restart).
        let store = store.and_then(|root| root.for_tenant(&self.tenant).ok());
        if let Some(store) = store {
            if let Ok(Some(snap)) =
                store.load(key.machine, key.suite, key.options.fingerprint(), digest)
            {
                if snap.arch == arch {
                    return Ok(Some(persist::encode(&snap)));
                }
            }
        }
        Ok(None)
    }

    /// Installs replicated snapshot bytes into this tenant's **on-disk**
    /// store — the receiving half of [`cluster`] replication. Counter-
    /// and cache-free by design: the replica only becomes servable when
    /// a later request's records digest, options fingerprint and arch
    /// match it exactly, at which point the normal warm-load path in the
    /// fitting code promotes it (counted as a `warm` hit with zero
    /// `fits` — exactly what failover asserts). A stale or foreign
    /// replica is inert, never wrong.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown;
    /// [`ServiceError::Snapshot`] when the bytes do not decode as a
    /// valid snapshot, or the service runs without a state dir (nowhere
    /// durable to install to).
    pub fn import_snapshot(&self, bytes: &[u8]) -> Result<(), ServiceError> {
        if self
            .router
            .stopped
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            return Err(ServiceError::Stopped);
        }
        let snap = persist::decode(bytes).map_err(|e| ServiceError::Snapshot {
            detail: e.to_string(),
        })?;
        let store = lock(&self.router.inner)
            .persist
            .clone()
            .ok_or_else(|| ServiceError::Snapshot {
                detail: "this node runs without a state dir".into(),
            })?
            .for_tenant(&self.tenant)
            .map_err(|e| ServiceError::Snapshot {
                detail: e.to_string(),
            })?;
        store.save(&snap).map_err(|e| ServiceError::Snapshot {
            detail: e.to_string(),
        })?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The worker loop — the one fitting code path
// ---------------------------------------------------------------------------

fn worker_loop(rx: mpsc::Receiver<WorkerMsg>, inner: &Mutex<Inner>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Shutdown => break,
            WorkerMsg::Task {
                tenant,
                task,
                reply,
            } => {
                // A panicking handler (a pathological record set blowing
                // up in the regression, say) must not kill the shard: the
                // whole key-space hashed here would then see `Stopped`
                // while the rest of the service kept working. Catch it,
                // report it in-band, keep serving. `lock()` recovers the
                // mutex if the panic poisoned it.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_task(&tenant, task, &reply, inner)
                }));
                if let Err(payload) = caught {
                    let detail = panic_detail(&payload);
                    let _ = reply.send(Response::Error(ServiceError::Panicked { detail }));
                }
                // `reply` drops here; when the last clone goes, the
                // client-side stream ends.
            }
        }
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

fn handle_task(
    tenant: &TenantId,
    task: Task,
    reply: &mpsc::Sender<Response>,
    inner: &Mutex<Inner>,
) {
    lock(inner).tenant_mut(tenant).requests += 1;
    // The client may have hung up mid-stream; sends failing is fine.
    let send = |response: Response| {
        let _ = reply.send(response);
    };
    match task {
        Task::Register(spec) => {
            let machine = spec.id();
            let mut guard = lock(inner);
            let replacing = {
                let state = guard.tenant_mut(tenant).machine_mut(machine);
                let replacing = state.spec.is_some();
                if replacing {
                    // New constants mean every cached model for this
                    // machine was fitted against the wrong arch.
                    state.generation += 1;
                }
                state.spec = Some(*spec);
                replacing
            };
            if replacing {
                guard.cache.invalidate_machine(tenant, machine);
            }
            drop(guard);
            send(Response::Registered { machine });
        }
        Task::Ingest { machine, records } => {
            let count = records.len();
            let appended =
                lock(inner)
                    .tenant_mut(tenant)
                    .append(machine, records, MAX_MACHINE_RECORDS);
            send(match appended {
                Ok(generation) => Response::Ingested {
                    machine,
                    records: count,
                    generation,
                },
                Err(e) => Response::Error(e),
            });
        }
        Task::StreamBatch { machine, records } => {
            // Within-batch dedupe first: keep only the *last* record per
            // (benchmark, suite), so the final store never depends on how
            // the stream was chopped into batches — a batch carrying two
            // samples of one workload behaves exactly like two batches
            // carrying one each.
            let mut batch = records;
            let mut i = 0;
            while i < batch.len() {
                let superseded = batch[i + 1..].iter().any(|newer| {
                    newer.suite() == batch[i].suite() && newer.benchmark() == batch[i].benchmark()
                });
                if superseded {
                    batch.remove(i);
                } else {
                    i += 1;
                }
            }
            let count = batch.len();
            let mut guard = lock(inner);
            let state = guard.tenant_mut(tenant);
            if count == 0 {
                let generation = state.machine_mut(machine).generation;
                drop(guard);
                send(Response::Ingested {
                    machine,
                    records: 0,
                    generation,
                });
                return;
            }
            let workloads: HashSet<(Suite, &str)> = state
                .machine(machine)
                .into_iter()
                .flat_map(|m| m.batches.iter().flat_map(|b| b.iter()))
                .chain(&batch)
                .map(|r| (r.suite(), r.benchmark()))
                .collect();
            if workloads.len() > MAX_STREAMED_BENCHMARKS {
                drop(guard);
                send(Response::Error(ServiceError::TooManyBenchmarks { machine }));
                return;
            }
            state.ingested_records += count as u64;
            let machine_state = state.machine_mut(machine);
            // Upsert: copy-on-write removal of superseded records from
            // earlier batches. Batches are shared `Arc`s (snapshots taken
            // by in-flight fits keep the old view), so a touched batch is
            // rebuilt rather than mutated.
            let supersedes = |old: &RunRecord| {
                batch
                    .iter()
                    .any(|new| new.suite() == old.suite() && new.benchmark() == old.benchmark())
            };
            for slot in machine_state.batches.iter_mut() {
                if slot.iter().any(&supersedes) {
                    let kept: Vec<RunRecord> =
                        slot.iter().filter(|r| !supersedes(r)).cloned().collect();
                    *slot = Arc::new(kept);
                }
            }
            machine_state.batches.retain(|b| !b.is_empty());
            machine_state.batches.push(Arc::new(batch));
            machine_state.generation += 1;
            let generation = machine_state.generation;
            drop(guard);
            send(Response::Ingested {
                machine,
                records: count,
                generation,
            });
        }
        Task::Refit { key, force_full } => match refit_key(inner, tenant, &key, force_full) {
            Ok((report, mode)) => send(Response::Refit { report, mode }),
            Err(e) => send(Response::Error(e)),
        },
        Task::Read(read, key) => match fit_key(inner, tenant, &key) {
            Ok((report, snapshot, trained)) => read.reply(report, &snapshot, trained, send),
            Err(e) => send(Response::Error(e)),
        },
        Task::Delta {
            old,
            new,
            suite,
            options,
        } => {
            let fit_side = |machine: MachineId| {
                let key = ModelKey::new(machine, Some(suite), options.clone());
                fit_key(inner, tenant, &key).map(|(report, snapshot, trained)| {
                    let records = trained.unwrap_or_else(|| snapshot.to_vec());
                    (report, records)
                })
            };
            match fit_side(old).and_then(|a| fit_side(new).map(|b| (a, b))) {
                Ok(((a, a_records), (b, b_records))) => send(Response::Delta(suite_delta(
                    &a.model, &a_records, &b.model, &b_records,
                ))),
                Err(e) => send(Response::Error(e)),
            }
        }
        Task::SweepCollect(spec) => match sweep_ensure(inner, tenant, &spec) {
            Ok((configs, runs)) => send(Response::SweepReady { configs, runs }),
            Err(e) => send(Response::Error(e)),
        },
        Task::Sweep(spec) => {
            if let Err(e) = serve_sweep(inner, tenant, &spec, reply) {
                send(Response::Error(e));
            }
        }
        Task::ImportRecords { spec, records } => {
            let machine = spec.id();
            let incoming = persist::records_digest(&records);
            let count = records.len();
            let mut guard = lock(inner);
            let state = guard.tenant_mut(tenant);
            let unchanged = state.machine(machine).is_some_and(|m| {
                let existing: Vec<RunRecord> =
                    m.batches.iter().flat_map(|b| b.iter()).cloned().collect();
                m.spec.is_some()
                    && !existing.is_empty()
                    && persist::records_digest(&existing) == incoming
            });
            if unchanged {
                let generation = state.machine_mut(machine).generation;
                drop(guard);
                send(Response::Ingested {
                    machine,
                    records: 0,
                    generation,
                });
                return;
            }
            state.ingested_records += count as u64;
            let machine_state = state.machine_mut(machine);
            machine_state.spec = Some(*spec);
            machine_state.batches = vec![Arc::new(records)];
            machine_state.generation += 1;
            let generation = machine_state.generation;
            guard.cache.invalidate_machine(tenant, machine);
            drop(guard);
            send(Response::Ingested {
                machine,
                records: count,
                generation,
            });
        }
    }
}

/// The suite's workload profiles, in campaign order.
fn suite_profiles(suite: Suite) -> Vec<specgen::profile::WorkloadProfile> {
    match suite {
        Suite::Cpu2000 => specgen::suites::cpu2000(),
        Suite::Cpu2006 => specgen::suites::cpu2006(),
    }
}

/// The service's one compute budget for cold work: the thread count of
/// a regression fan-out and of a sweep's simulation collect pool alike.
/// The deployment override ([`ServiceConfig::fit_threads`]) wins;
/// without one, the request's own [`FitOptions::threads`] decides (`0` =
/// one thread per core). Never 0. Scheduling only — fitted bits and
/// collected records are identical at every budget. Resolve it on a
/// cold path only: with no override it asks the OS for the core count.
fn cold_threads(fit_threads: Option<usize>, options: &FitOptions) -> usize {
    fit_threads
        .unwrap_or_else(|| options.effective_threads())
        .max(1)
}

/// The collection phase of a sweep: expand the grid and make sure the
/// base and every variant hold records for the spec's suite, simulating
/// only what is missing. Returns `(distinct configs simulated, traces
/// run)` — `(0, 0)` on a warm re-sweep.
fn sweep_ensure(
    inner: &Mutex<Inner>,
    tenant: &TenantId,
    spec: &SweepSpec,
) -> Result<(usize, usize), ServiceError> {
    let variants = sweep::expand_selected(spec).map_err(|error| ServiceError::Sweep { error })?;
    sweep_ensure_variants(inner, tenant, spec, &variants)
}

/// [`sweep_ensure`] with the grid already expanded.
///
/// The workload set is pinned by the *base*: once the base machine has
/// records for the suite, every variant simulates exactly the base's
/// benchmark set (so delta stacks pair benchmark-for-benchmark); on a
/// fresh store the suite (optionally truncated by `spec.limit`) defines
/// it. Missing configs are simulated in one flattened work-list on the
/// work-stealing collect pool — each workload's trace runs once per
/// distinct config, never once per variant-request — and ingested under
/// the lock afterwards. A machine that already carries a registered spec
/// keeps it; collection only fills gaps.
fn sweep_ensure_variants(
    inner: &Mutex<Inner>,
    tenant: &TenantId,
    spec: &SweepSpec,
    variants: &[SweepVariant],
) -> Result<(usize, usize), ServiceError> {
    // The base participates even when the grid skips its point: every
    // variant's delta is relative to it.
    let mut configs: Vec<oosim::machine::MachineConfig> = vec![MachineConfig::preset(spec.base)];
    for variant in variants {
        if configs.iter().all(|c| c.id != variant.id) {
            configs.push(variant.config.clone());
        }
    }
    let (need, base_benchmarks, fit_threads) = {
        let guard = lock(inner);
        let tenant_state = guard.tenant(tenant);
        let has_records = |id: MachineId| {
            tenant_state.and_then(|t| t.machine(id)).is_some_and(|m| {
                m.spec.is_some()
                    && m.batches
                        .iter()
                        .flat_map(|b| b.iter())
                        .any(|r| r.suite() == spec.suite)
            })
        };
        let need: Vec<oosim::machine::MachineConfig> = configs
            .iter()
            .filter(|c| !has_records(c.id))
            .cloned()
            .collect();
        let base_benchmarks: Vec<String> = tenant_state
            .and_then(|t| t.machine(spec.base))
            .map(|m| {
                m.batches
                    .iter()
                    .flat_map(|b| b.iter())
                    .filter(|r| r.suite() == spec.suite)
                    .map(|r| r.benchmark().to_owned())
                    .collect()
            })
            .unwrap_or_default();
        (need, base_benchmarks, guard.fit_threads)
    };
    if need.is_empty() {
        return Ok((0, 0));
    }
    let profiles = suite_profiles(spec.suite);
    let profiles: Vec<specgen::profile::WorkloadProfile> = if base_benchmarks.is_empty() {
        match spec.limit {
            Some(n) => profiles.into_iter().take(n).collect(),
            None => profiles,
        }
    } else {
        profiles
            .into_iter()
            .filter(|p| {
                base_benchmarks
                    .iter()
                    .any(|n| n.as_str() == p.name.as_ref())
            })
            .collect()
    };
    let source = SimSource::new()
        .suite(profiles)
        .uops(spec.uops)
        .seed(spec.seed);
    let specs: Vec<MachineSpec> = need.iter().map(MachineSpec::from).collect();
    let results = source.collect_all(&specs, cold_threads(fit_threads, &spec.options));
    let mut runs = 0;
    let mut guard = lock(inner);
    let state = guard.tenant_mut(tenant);
    for (machine_spec, result) in specs.into_iter().zip(results) {
        let records = result.expect("simulated specs always carry configs");
        runs += records.len();
        state.ingested_records += records.len() as u64;
        let machine_state = state.machine_mut(machine_spec.id());
        if machine_state.spec.is_none() {
            machine_state.spec = Some(machine_spec);
        }
        machine_state.batches.push(Arc::new(records));
        machine_state.generation += 1;
    }
    Ok((need.len(), runs))
}

/// Serves one [`Task::Sweep`]: collection (idempotent; usually already
/// done by [`Request::SweepCollect`]), then base + every variant through
/// the one fitting path ([`fit_key`] — cache, warm snapshot store, or a
/// fresh fit under the shared thread budget), streaming each variant's
/// result as soon as it is ready and the ranked summary last.
fn serve_sweep(
    inner: &Mutex<Inner>,
    tenant: &TenantId,
    spec: &SweepSpec,
    reply: &mpsc::Sender<Response>,
) -> Result<(), ServiceError> {
    let variants = sweep::expand_selected(spec).map_err(|error| ServiceError::Sweep { error })?;
    let (simulated_configs, simulated_runs) =
        sweep_ensure_variants(inner, tenant, spec, &variants)?;
    let base_key = ModelKey::new(spec.base, Some(spec.suite), spec.options.clone());
    let (base_report, base_snapshot, base_trained) = fit_key(inner, tenant, &base_key)?;
    let base_records = base_trained.unwrap_or_else(|| base_snapshot.to_vec());
    let mut results: Vec<SweepVariantResult> = Vec::with_capacity(variants.len());
    for variant in &variants {
        let (report, records) = if variant.id == spec.base {
            (base_report.clone(), base_records.clone())
        } else {
            let key = ModelKey::new(variant.id, Some(spec.suite), spec.options.clone());
            let (report, snapshot, trained) = fit_key(inner, tenant, &key)?;
            let records = trained.unwrap_or_else(|| snapshot.to_vec());
            (report, records)
        };
        let mut cpi = 0.0;
        let mut component = 0.0;
        for record in &records {
            let stack = report.model.cpi_stack(record);
            cpi += stack.total();
            component += spec.component.value(&stack);
        }
        let n = records.len().max(1) as f64;
        let result = SweepVariantResult {
            id: variant.id,
            cpi: cpi / n,
            component: component / n,
            delta: suite_delta(&base_report.model, &base_records, &report.model, &records),
            cached: report.cached,
            benchmarks: records.len(),
        };
        let _ = reply.send(Response::SweepVariant(Box::new(result.clone())));
        results.push(result);
    }
    let points: Vec<(f64, f64)> = results.iter().map(|r| (r.cpi, r.component)).collect();
    let pareto = sweep::pareto_front(&points)
        .into_iter()
        .map(|i| results[i].id)
        .collect();
    let _ = reply.send(Response::SweepSummary(Box::new(SweepSummary {
        base: spec.base,
        suite: spec.suite,
        component: spec.component,
        results,
        pareto,
        simulated_configs,
        simulated_runs,
    })));
    Ok(())
}

/// A point-in-time, suite-filtered view of one machine's ingested
/// records: `Arc` clones of the batch list, no record copies. Streaming
/// handlers iterate it in place; only consumers that need owned
/// contiguous records (`Group`, `Delta`, the regression itself)
/// materialize a `Vec`.
struct RecordsSnapshot {
    batches: Vec<Arc<Vec<RunRecord>>>,
    suite: Option<Suite>,
}

impl RecordsSnapshot {
    fn iter(&self) -> impl Iterator<Item = &RunRecord> {
        let suite = self.suite;
        self.batches
            .iter()
            .flat_map(|batch| batch.iter())
            .filter(move |r| suite.is_none_or(|s| r.suite() == s))
    }

    fn to_vec(&self) -> Vec<RunRecord> {
        self.iter().cloned().collect()
    }
}

/// Serves one model key for one tenant. The machine's store is
/// snapshotted under the lock in O(batches) `Arc` clones; record
/// filtering/copying and the regression all run *outside* it, so a slow
/// fit or a huge record set on one shard never stalls ingestion or cached
/// serves on another. Cache hits copy no records at all — the returned
/// snapshot streams them in place, and the `Vec` is `Some` only when a
/// miss had to materialize one (so `Group`/`Delta` reuse it instead of
/// re-copying). A memory miss with a state dir consults the tenant's own
/// slice of the [`persist::SnapshotStore`] before fitting: a snapshot
/// whose records digest and arch match the *current* training state is
/// restored without a regression (counted as a [`CacheStats::warm_loads`]
/// hit); any mismatch or corruption falls through to a fresh fit, whose
/// result is then written back to disk — here, behind the worker pool,
/// never on a client thread. Everything — the machine lookup, the cache,
/// the disk store — is tenant-scoped: another tenant's records, models or
/// snapshots are unreachable from this path. This is the single fitting
/// code path behind the service *and* `Workbench::fit()`.
#[allow(clippy::type_complexity)]
fn fit_key(
    inner: &Mutex<Inner>,
    tenant: &TenantId,
    key: &ModelKey,
) -> Result<(ModelReport, RecordsSnapshot, Option<Vec<RunRecord>>), ServiceError> {
    let (arch, batches, generation, store, fit_threads) = {
        let guard = lock(inner);
        let state = guard
            .tenant(tenant)
            .and_then(|t| t.machine(key.machine))
            .ok_or(ServiceError::NotRegistered {
                machine: key.machine,
            })?;
        let spec = state.spec.as_ref().ok_or(ServiceError::NotRegistered {
            machine: key.machine,
        })?;
        (
            *spec.arch(),
            state.batches.clone(),
            state.generation,
            guard.persist.clone(),
            guard.fit_threads,
        )
    };
    let snapshot = RecordsSnapshot {
        batches,
        suite: key.suite,
    };
    let count = snapshot.iter().count();
    if count == 0 {
        return Err(ServiceError::NoRecords {
            machine: key.machine,
            suite: key.suite,
        });
    }
    let report = |model: Arc<InferredModel>, cached: bool| ModelReport {
        machine: key.machine,
        suite: key.suite,
        records: count,
        model,
        cached,
        generation,
    };
    // The generation travels with the snapshot: if a batch lands between
    // the snapshot and this lookup (or the insert below), the entry is
    // recorded against the old generation and retires on its next lookup.
    let hit = lock(inner).cache.lookup(tenant, key, generation);
    if let Some(model) = hit {
        return Ok((report(model, true), snapshot, None));
    }
    // Only a miss pays for disk state: resolve the tenant's private
    // slice of the snapshot store here (the root for the local tenant,
    // `tenant-<name>/` otherwise — a directory syscall that must not tax
    // the cache-hit path above). Opening can fail on a sick disk;
    // persistence is best-effort, so that is a plain miss.
    let store = store.and_then(|root| root.for_tenant(tenant).ok());
    let records = snapshot.to_vec();
    // The digest binds any persisted model to these exact records: a
    // restart that replays the same batches reproduces it; one changed
    // counter anywhere does not.
    let digest = store.as_ref().map(|_| persist::records_digest(&records));
    if let (Some(store), Some(digest)) = (&store, digest) {
        // A corrupt or mismatched snapshot is a miss, never an error (and
        // never a stale model): fall through to the regression below.
        if let Ok(Some(snap)) =
            store.load(key.machine, key.suite, key.options.fingerprint(), digest)
        {
            if snap.arch == arch {
                let model = Arc::new(InferredModel::from_parts(
                    snap.arch,
                    snap.params,
                    snap.interval_cap,
                    snap.objective,
                ));
                lock(inner)
                    .cache
                    .promote_warm(tenant, key, generation, Arc::clone(&model));
                return Ok((report(model, true), snapshot, Some(records)));
            }
        }
    }
    // The deployment cap on regression fan-out applies here, after the
    // cache key was formed: thread budgets never split keys (they cannot
    // change the fitted bits).
    let threads = cold_threads(fit_threads, &key.options);
    let options = key.options.clone().with_threads(threads);
    let fit_start = Instant::now();
    let (model, profile) =
        InferredModel::fit_profiled(&arch, &records, &options).map_err(|error| {
            ServiceError::Fit {
                machine: key.machine,
                suite: key.suite,
                error,
            }
        })?;
    let fit_wall_us = fit_start.elapsed().as_micros() as u64;
    let model = Arc::new(model);
    {
        let mut guard = lock(inner);
        guard.tenant_mut(tenant).fits += 1;
        let stats = guard.cache.stats_mut(tenant);
        stats.fit_evals += profile.evals;
        stats.fit_wall_us += fit_wall_us;
        guard
            .cache
            .insert(tenant, key, generation, Arc::clone(&model));
    }
    if let (Some(store), Some(digest)) = (&store, digest) {
        // Best-effort write-behind: a full disk must not fail the request
        // the model was just fitted for.
        let _ = store.save(&persist::ModelSnapshot {
            machine: key.machine,
            suite: key.suite,
            options_fingerprint: key.options.fingerprint(),
            records_digest: digest,
            records: count as u32,
            arch,
            params: *model.params(),
            interval_cap: model.interval_cap(),
            objective: model.objective(),
        });
    }
    Ok((report(model, false), snapshot, Some(records)))
}

/// The cache-hit half of [`fit_key`], under the caller's lock: when
/// `tenant`'s model for `key` is cached at the machine's current
/// generation, counts one request and one hit (touching LRU recency)
/// exactly as a worker running the read would, and returns the report and
/// the records to stream. Anything else — an unregistered machine, no
/// records, a miss — returns `None` having counted nothing, so the
/// request goes to its shard unchanged.
fn cached_read(
    inner: &mut Inner,
    tenant: &TenantId,
    key: &ModelKey,
) -> Option<(ModelReport, RecordsSnapshot)> {
    let state = inner.tenant(tenant)?.machine(key.machine)?;
    state.spec.as_ref()?;
    let generation = state.generation;
    inner.cache.peek(tenant, key, generation)?;
    let snapshot = RecordsSnapshot {
        batches: state.batches.clone(),
        suite: key.suite,
    };
    let records = snapshot.iter().count();
    if records == 0 {
        return None;
    }
    let model = inner.cache.lookup(tenant, key, generation)?;
    inner.tenant_mut(tenant).requests += 1;
    Some((
        ModelReport {
            machine: key.machine,
            suite: key.suite,
            model,
            records,
            cached: true,
            generation,
        },
        snapshot,
    ))
}

/// Digest of the *workload's identity*: the distinct benchmark names in a
/// training set, order-free. Two record sets that re-sample the same
/// workloads (a stationary stream) share a digest; adding, dropping or
/// renaming a benchmark changes it — the cheap signal the drift guard uses
/// to force a full refit on a workload shift without fitting anything.
fn workload_digest(records: &[RunRecord]) -> u64 {
    let mut names: Vec<&str> = records.iter().map(|r| r.benchmark()).collect();
    names.sort_unstable();
    names.dedup();
    let mut h = DefaultHasher::new();
    for name in names {
        name.hash(&mut h);
    }
    h.finish()
}

/// Serves one model key on the streaming path. Mode selection, cheapest
/// first:
///
/// 1. **Cached** — the cache holds the key at the current generation
///    (skipped under `force_full`).
/// 2. **Incremental** — a baseline anchor exists, the workload digest is
///    unchanged, the periodic full-refit cadence is not due, and the
///    warm-start polish's per-record objective stays within the policy's
///    drift bound of the anchor's. The polished parameters become the next
///    polish's starting point; the anchor objective does not move.
/// 3. **Full** — everything else: first fit of a stream, a workload
///    shift, cadence due, drift-guard rejection, or `force_full` (the
///    stream-close reconciliation). Re-anchors the baseline and persists
///    the model (incremental results are never persisted: on restart the
///    stream re-anchors from a full fit, so disk state is always the
///    product of a full fan-out).
///
/// Both fitting modes insert into the model cache (same generation
/// semantics as [`fit_key`]) and count one `fits`; the `full_refits` /
/// `incremental_refits` split lands in [`CacheStats`] so the steady-state
/// saving is observable per tenant.
fn refit_key(
    inner: &Mutex<Inner>,
    tenant: &TenantId,
    key: &ModelKey,
    force_full: bool,
) -> Result<(ModelReport, RefitMode), ServiceError> {
    let baseline_key = BaselineKey {
        suite: key.suite,
        options: key.options.fingerprint(),
    };
    let (arch, batches, generation, store, fit_threads, policy, baseline) = {
        let guard = lock(inner);
        let state = guard
            .tenant(tenant)
            .and_then(|t| t.machine(key.machine))
            .ok_or(ServiceError::NotRegistered {
                machine: key.machine,
            })?;
        let spec = state.spec.as_ref().ok_or(ServiceError::NotRegistered {
            machine: key.machine,
        })?;
        (
            *spec.arch(),
            state.batches.clone(),
            state.generation,
            guard.persist.clone(),
            guard.fit_threads,
            guard.refit.clone(),
            state.baseline(&baseline_key).cloned(),
        )
    };
    let snapshot = RecordsSnapshot {
        batches,
        suite: key.suite,
    };
    let count = snapshot.iter().count();
    if count == 0 {
        return Err(ServiceError::NoRecords {
            machine: key.machine,
            suite: key.suite,
        });
    }
    let report = |model: Arc<InferredModel>, cached: bool| ModelReport {
        machine: key.machine,
        suite: key.suite,
        records: count,
        model,
        cached,
        generation,
    };
    if !force_full {
        let hit = lock(inner).cache.lookup(tenant, key, generation);
        if let Some(model) = hit {
            return Ok((report(model, true), RefitMode::Cached));
        }
    }
    let records = snapshot.to_vec();
    let digest = workload_digest(&records);
    let fit_error = |error: FitError| ServiceError::Fit {
        machine: key.machine,
        suite: key.suite,
        error,
    };
    // Try the warm-start polish when the guard allows it. Its effort is
    // tallied whether or not the guard accepts the result — a rejected
    // polish still spent its (warm_evals-bounded) budget.
    let mut polish_cost = (0u64, 0u64); // (evals, wall µs)
    let warm = match (&baseline, force_full) {
        (Some(b), false) if b.workload_digest == digest && b.since_full + 1 < policy.full_every => {
            let anchor = InferredModel::from_parts(arch, b.params, b.interval_cap, 0.0);
            let polish_start = Instant::now();
            let (polished, profile) = anchor
                .refit_profiled(&records, &key.options, policy.warm_evals)
                .map_err(fit_error)?;
            polish_cost = (profile.evals, polish_start.elapsed().as_micros() as u64);
            let norm = polished.objective() / count as f64;
            // The drift guard: accept only while the polish tracks the
            // anchor's quality. A rejected polish is discarded entirely —
            // its cost was bounded by `warm_evals`.
            (norm <= b.full_norm_objective * policy.drift_factor).then_some(polished)
        }
        _ => None,
    };
    if let Some(polished) = warm {
        let model = Arc::new(polished);
        let mut guard = lock(inner);
        guard.tenant_mut(tenant).fits += 1;
        let stats = guard.cache.stats_mut(tenant);
        stats.incremental_refits += 1;
        stats.fit_evals += polish_cost.0;
        stats.fit_wall_us += polish_cost.1;
        guard
            .cache
            .insert(tenant, key, generation, Arc::clone(&model));
        let baseline = baseline.expect("warm polish requires a baseline");
        guard
            .tenant_mut(tenant)
            .machine_mut(key.machine)
            .set_baseline(
                baseline_key,
                RefitBaseline {
                    params: *model.params(),
                    since_full: baseline.since_full + 1,
                    ..baseline
                },
            );
        drop(guard);
        return Ok((report(model, false), RefitMode::Incremental));
    }
    // Full fan-out: fit, re-anchor, persist.
    let threads = cold_threads(fit_threads, &key.options);
    let options = key.options.clone().with_threads(threads);
    let fit_start = Instant::now();
    let (model, profile) =
        InferredModel::fit_profiled(&arch, &records, &options).map_err(fit_error)?;
    let fit_wall_us = fit_start.elapsed().as_micros() as u64;
    let model = Arc::new(model);
    {
        let mut guard = lock(inner);
        guard.tenant_mut(tenant).fits += 1;
        let stats = guard.cache.stats_mut(tenant);
        stats.full_refits += 1;
        stats.fit_evals += profile.evals + polish_cost.0;
        stats.fit_wall_us += fit_wall_us + polish_cost.1;
        guard
            .cache
            .insert(tenant, key, generation, Arc::clone(&model));
        guard
            .tenant_mut(tenant)
            .machine_mut(key.machine)
            .set_baseline(
                baseline_key,
                RefitBaseline {
                    params: *model.params(),
                    interval_cap: model.interval_cap(),
                    full_norm_objective: model.objective() / count as f64,
                    workload_digest: digest,
                    since_full: 0,
                },
            );
    }
    // Best-effort write-behind, exactly as the plain fitting path does.
    let store = store.and_then(|root| root.for_tenant(tenant).ok());
    if let Some(store) = store {
        let _ = store.save(&persist::ModelSnapshot {
            machine: key.machine,
            suite: key.suite,
            options_fingerprint: key.options.fingerprint(),
            records_digest: persist::records_digest(&records),
            records: count as u32,
            arch,
            params: *model.params(),
            interval_cap: model.interval_cap(),
            objective: model.objective(),
        });
    }
    Ok((report(model, false), RefitMode::Full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workbench::SimSource;
    use oosim::machine::MachineConfig;

    fn core2_records(n: usize, uops: u64, seed: u64) -> Vec<RunRecord> {
        SimSource::new()
            .suite(specgen::suites::cpu2000().into_iter().take(n).collect())
            .uops(uops)
            .seed(seed)
            .collect_config(&MachineConfig::core2())
    }

    fn warm_service() -> (CpiService, CpiClient) {
        let service = CpiService::start(ServiceConfig::new().with_workers(2));
        let client = service.client();
        client
            .register(MachineSpec::from(MachineConfig::core2()))
            .expect("register");
        client.ingest(core2_records(12, 3_000, 7)).expect("ingest");
        (service, client)
    }

    #[test]
    fn cold_threads_prefers_the_override_and_is_never_zero() {
        let per_core = FitOptions::quick().with_threads(0);
        let three = FitOptions::quick().with_threads(3);
        assert_eq!(cold_threads(Some(2), &three), 2, "the override wins");
        assert_eq!(cold_threads(Some(5), &per_core), 5);
        assert_eq!(cold_threads(None, &three), three.effective_threads());
        assert_eq!(cold_threads(None, &per_core), per_core.effective_threads());
        assert_eq!(cold_threads(Some(0), &three), 1, "never 0");
        assert!(cold_threads(None, &per_core) >= 1);
    }

    #[test]
    fn fit_then_refit_hits_the_cache() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        let first = client.fit(key.clone()).expect("first fit");
        assert!(!first.cached);
        let second = client.fit(key).expect("second fit");
        assert!(second.cached);
        assert_eq!(first.model.params(), second.model.params());
        let stats = service.shutdown();
        assert_eq!(stats.fits, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn ingestion_invalidates_cached_models() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        let first = client.fit(key.clone()).expect("fit");
        client
            .ingest(core2_records(12, 3_000, 99))
            .expect("second batch");
        let refit = client.fit(key).expect("refit");
        assert!(!refit.cached, "new batch must retire the cached model");
        assert_eq!(refit.records, 24);
        assert!(refit.generation > first.generation);
        let stats = service.shutdown();
        assert_eq!(stats.cache.invalidations, 1);
        assert_eq!(stats.fits, 2);
    }

    #[test]
    fn appending_past_the_record_limit_is_refused_whole() {
        let records = core2_records(3, 2_000, 5);
        let mut state = TenantState::default();
        let limit = 7;
        assert_eq!(
            state.append(MachineId::Core2, records.clone(), limit).ok(),
            Some(1)
        );
        assert_eq!(
            state.append(MachineId::Core2, records.clone(), limit).ok(),
            Some(2)
        );
        let err = state
            .append(MachineId::Core2, records.clone(), limit)
            .expect_err("9 records would pass the limit of 7");
        assert!(matches!(
            err,
            ServiceError::TooManyRecords {
                machine: MachineId::Core2
            }
        ));
        let held = state.machine(MachineId::Core2).expect("store");
        assert_eq!((held.batches.len(), held.generation), (2, 2), "unchanged");
        assert_eq!(state.ingested_records, 6);
        // Exactly at the limit is allowed; another machine has its own.
        assert_eq!(
            state
                .append(MachineId::Core2, records[..1].to_vec(), limit)
                .ok(),
            Some(3)
        );
        let fresh = state.append(MachineId::Pentium4, records[..0].to_vec(), 0);
        assert_eq!(fresh.ok(), Some(1));
        let err = state
            .append(MachineId::CoreI7, records.clone(), 2)
            .expect_err("over the limit on a machine with no store");
        assert!(matches!(err, ServiceError::TooManyRecords { .. }));
        assert!(
            state.machine(MachineId::CoreI7).is_none(),
            "no empty store left behind"
        );
    }

    #[test]
    fn an_ingest_past_max_machine_records_is_a_typed_error() {
        let (service, client) = warm_service();
        let record = core2_records(1, 2_000, 3).remove(0);
        let err = client
            .ingest(vec![record.clone(); MAX_MACHINE_RECORDS])
            .expect_err("12 held + 65 536 new records");
        assert!(matches!(
            err,
            ServiceError::TooManyRecords {
                machine: MachineId::Core2
            }
        ));
        assert!(err.to_string().contains("more than 65536 records"), "{err}");
        assert_eq!(client.ingest(vec![record]).expect("room for one"), 1);
        let stats = service.shutdown();
        assert_eq!(stats.ingested_records, 13);
    }

    #[test]
    fn reregistering_new_constants_invalidates() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        client.fit(key.clone()).expect("fit");
        client
            .register(MachineSpec::real(
                MachineId::Core2,
                crate::params::MicroarchParams::new(4.0, 14.0, 25.0, 200.0, 40.0),
            ))
            .expect("re-register");
        let refit = client.fit(key).expect("refit");
        assert!(!refit.cached);
        assert_eq!(refit.model.arch().c_l2, 25.0);
        drop(client);
        let stats = service.shutdown();
        assert_eq!(stats.cache.invalidations, 1);
    }

    #[test]
    fn unknown_machine_and_empty_suite_are_typed_errors() {
        let (service, client) = warm_service();
        let err = client
            .fit(ModelKey::pooled(MachineId::Pentium4, FitOptions::quick()))
            .expect_err("never registered");
        assert!(matches!(
            err,
            ServiceError::NotRegistered {
                machine: MachineId::Pentium4
            }
        ));
        let err = client
            .fit(ModelKey::new(
                MachineId::Core2,
                Some(Suite::Cpu2006),
                FitOptions::quick(),
            ))
            .expect_err("no cpu2006 records ingested");
        assert!(matches!(err, ServiceError::NoRecords { .. }));
        service.shutdown();
    }

    #[test]
    fn csv_ingestion_round_trips_and_parse_errors_carry_origin() {
        let service = CpiService::start(ServiceConfig::new().with_workers(1));
        let client = service.client();
        client
            .register(MachineSpec::from(MachineConfig::core2()))
            .expect("register");
        let csv = pmu::csv::to_csv(&core2_records(12, 3_000, 5));
        assert_eq!(client.ingest_csv(&csv, "batch.csv").expect("ingest"), 12);
        let err = client
            .ingest_csv("not,a,header\n1,2,3\n", "bad.csv")
            .expect_err("malformed");
        match &err {
            ServiceError::Parse { origin, .. } => assert_eq!(origin, "bad.csv"),
            other => panic!("expected Parse, got {other:?}"),
        }
        let report = client
            .fit(ModelKey::new(
                MachineId::Core2,
                Some(Suite::Cpu2000),
                FitOptions::quick(),
            ))
            .expect("fit over csv batch");
        assert_eq!(report.records, 12);
        service.shutdown();
    }

    #[test]
    fn stacks_stream_model_first_then_per_benchmark() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        let mut saw_model = false;
        let mut stacks = 0;
        for response in client.submit(Request::Stacks(key)) {
            match response {
                Response::Model(_) => {
                    assert_eq!(stacks, 0, "model arrives before any stack");
                    saw_model = true;
                }
                Response::Stack { .. } => {
                    assert!(saw_model);
                    stacks += 1;
                }
                Response::Error(e) => panic!("unexpected error: {e}"),
                _ => {}
            }
        }
        assert_eq!(stacks, 12);
        service.shutdown();
    }

    #[test]
    fn delta_is_served_through_the_same_cache() {
        let service = CpiService::start(ServiceConfig::new().with_workers(3));
        let client = service.client();
        for config in [MachineConfig::pentium4(), MachineConfig::core2()] {
            let records = SimSource::new()
                .suite(specgen::suites::cpu2000().into_iter().take(12).collect())
                .uops(3_000)
                .seed(7)
                .collect_config(&config);
            client
                .register(MachineSpec::from(config))
                .expect("register");
            client.ingest(records).expect("ingest");
        }
        let delta = client
            .delta(
                MachineId::Pentium4,
                MachineId::Core2,
                Suite::Cpu2000,
                FitOptions::quick(),
            )
            .expect("delta");
        assert!(delta.overall.total().is_finite());
        // Both sides are now cached: repeating the delta runs no new fits.
        let before = client.stats().expect("stats").fits;
        client
            .delta(
                MachineId::Pentium4,
                MachineId::Core2,
                Suite::Cpu2000,
                FitOptions::quick(),
            )
            .expect("repeat delta");
        let stats = service.shutdown();
        assert_eq!(stats.fits, before, "repeat delta is all cache hits");
        assert_eq!(stats.fits, 2);
    }

    #[test]
    fn submitting_after_shutdown_reports_stopped() {
        let (service, client) = warm_service();
        service.shutdown();
        let err = client
            .fit(ModelKey::pooled(MachineId::Core2, FitOptions::quick()))
            .expect_err("service is gone");
        assert!(matches!(err, ServiceError::Stopped));
        let err = client.stats().expect_err("stats honours the contract too");
        assert!(matches!(err, ServiceError::Stopped));
    }

    #[test]
    fn options_fingerprint_separates_cache_entries() {
        let (service, client) = warm_service();
        let quick = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        let seeded = ModelKey::new(
            MachineId::Core2,
            Some(Suite::Cpu2000),
            FitOptions::quick().with_seed(1),
        );
        client.fit(quick).expect("fit quick");
        let other = client.fit(seeded).expect("fit seeded");
        assert!(!other.cached, "different options are a different key");
        let stats = service.shutdown();
        assert_eq!(stats.fits, 2);
    }

    /// One jittered round of a stationary live stream: the same workloads,
    /// counters perturbed ±1%.
    fn jitter_round(records: &[RunRecord], seed: u64) -> Vec<RunRecord> {
        use pmu::live::{LiveSource, ReplaySource};
        let mut src = ReplaySource::new(records.to_vec())
            .batch_size(records.len().max(1))
            .rounds(2)
            .jitter(seed);
        src.next_batch(); // round 0: verbatim
        src.next_batch().expect("round 1")
    }

    #[test]
    fn streaming_refits_pick_the_cheapest_safe_mode() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        // First refit of a stream: no baseline yet, so the fan-out runs.
        let (first, mode) = client.refit(key.clone(), false).expect("anchor");
        assert_eq!(mode, RefitMode::Full);
        assert!(!first.cached);
        // Nothing new arrived: the cache serves.
        let (_, mode) = client.refit(key.clone(), false).expect("cached");
        assert_eq!(mode, RefitMode::Cached);
        // A stationary batch (same workloads, jittered counters): the
        // warm-start polish is accepted, and the upsert keeps the store at
        // 12 records instead of growing it to 24.
        let batch = jitter_round(&core2_records(12, 3_000, 7), 5);
        client
            .stream_batch(MachineId::Core2, batch)
            .expect("stream batch");
        let (second, mode) = client.refit(key.clone(), false).expect("incremental");
        assert_eq!(mode, RefitMode::Incremental);
        assert_eq!(second.records, 12, "stream batches upsert, not append");
        // Forced reconciliation bypasses the cache and re-anchors.
        let (reconciled, mode) = client.refit(key, true).expect("reconcile");
        assert_eq!(mode, RefitMode::Full);
        assert!(!reconciled.cached);
        let stats = service.shutdown();
        assert_eq!(stats.cache.full_refits, 2);
        assert_eq!(stats.cache.incremental_refits, 1);
        assert_eq!(stats.fits, 3);
    }

    #[test]
    fn workload_shift_forces_the_full_fanout() {
        let (service, client) = warm_service();
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        client.refit(key.clone(), false).expect("anchor");
        // Stationary: incremental, proving the guard was letting polishes
        // through before the shift.
        client
            .stream_batch(
                MachineId::Core2,
                jitter_round(&core2_records(12, 3_000, 7), 1),
            )
            .expect("stationary batch");
        let (_, mode) = client.refit(key.clone(), false).expect("incremental");
        assert_eq!(mode, RefitMode::Incremental);
        // Shift: a batch of *different* benchmarks changes the workload
        // digest, so the guard must fall back to the full fan-out without
        // even running the polish.
        let shifted = SimSource::new()
            .suite(
                specgen::suites::cpu2000()
                    .into_iter()
                    .skip(12)
                    .take(12)
                    .collect(),
            )
            .uops(3_000)
            .seed(8)
            .collect_config(&MachineConfig::core2());
        client
            .stream_batch(MachineId::Core2, shifted)
            .expect("shifted batch");
        let (report, mode) = client.refit(key, false).expect("post-shift refit");
        assert_eq!(mode, RefitMode::Full, "workload shift must re-anchor");
        assert_eq!(report.records, 24, "new workloads add, same ones replace");
        let stats = service.shutdown();
        assert_eq!(stats.cache.full_refits, 2);
        assert_eq!(stats.cache.incremental_refits, 1);
    }

    #[test]
    fn periodic_full_refit_reanchors() {
        let service = CpiService::start(
            ServiceConfig::new()
                .with_workers(2)
                .with_refit_policy(RefitPolicy::default().with_full_every(2)),
        );
        let client = service.client();
        client
            .register(MachineSpec::from(MachineConfig::core2()))
            .expect("register");
        let records = core2_records(12, 3_000, 7);
        client.ingest(records.clone()).expect("ingest");
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
        let mut modes = Vec::new();
        for seed in 1..=4u64 {
            let (_, mode) = client.refit(key.clone(), false).expect("refit");
            modes.push(mode);
            client
                .stream_batch(MachineId::Core2, jitter_round(&records, seed))
                .expect("batch");
        }
        let (_, last) = client.refit(key, false).expect("final refit");
        modes.push(last);
        // full_every = 2: anchor, one polish, re-anchor, one polish, ...
        assert_eq!(
            modes,
            vec![
                RefitMode::Full,
                RefitMode::Incremental,
                RefitMode::Full,
                RefitMode::Incremental,
                RefitMode::Full
            ]
        );
        service.shutdown();
    }
}
