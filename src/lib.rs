//! # cpistack — mechanistic-empirical CPI stacks on (simulated) hardware
//!
//! A full reproduction of *"Mechanistic-empirical processor performance
//! modeling for constructing CPI stacks on real hardware"* (Eyerman, Hoste,
//! Eeckhout — ISPASS 2011), as a Rust workspace. This facade crate
//! re-exports every sub-crate under one roof:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `memodel` | the paper's contribution: Eq. 1–6, inference, CPI stacks, delta stacks |
//! | [`sim`] | `oosim` | out-of-order superscalar simulator (the "real hardware") |
//! | [`workloads`] | `specgen` | synthetic SPEC CPU2000/2006 workload population |
//! | [`counters`] | `pmu` | performance events, counter banks, run records |
//! | [`truth`] | `cpicounters` | ASPLOS'06 ground-truth CPI stack accounting |
//! | [`latency`] | `calibrate` | Calibrator-style latency microbenchmarks |
//! | [`fitting`] | `regress` | Nelder–Mead, OLS and ANN fitting engines |
//! | [`figures`] | `report` | ASCII figures, CSV and table rendering |
//!
//! # Quickstart
//!
//! The primary API is the long-lived [`CpiService`]: start it once, and
//! any number of concurrent clients share one warm campaign — counter
//! batches are ingested over a queue, fitted models are memoized in an
//! LRU cache keyed by `(machine, suite, fit options)`, and stacks stream
//! back per benchmark. The first request for a key pays the nonlinear
//! regression; every repeat is a cache hit until new counters arrive:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::service::{CpiService, ModelKey, ServiceConfig};
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::workbench::MachineSpec;
//! use cpistack::SimSource;
//! use pmu::{MachineId, Suite};
//!
//! // Measure a (sub)suite once. Real experiments use all 48/55
//! // benchmarks and millions of µops; keep doc runs small.
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(20_000)
//!     .seed(42)
//!     .collect_config(&machine);
//!
//! // Serve it: register the machine, ingest the batch, fit on demand.
//! let service = CpiService::start(ServiceConfig::new());
//! let client = service.client();
//! client.register(MachineSpec::from(&machine)).unwrap();
//! client.ingest(records).unwrap();
//!
//! let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
//! let (report, stacks) = client.stacks(key.clone()).unwrap();
//! assert!(!report.cached, "first request fits by regression");
//! for (benchmark, stack) in &stacks {
//!     println!("{benchmark}: {stack}");
//! }
//! // A second client asking for the same key never re-fits.
//! let (repeat, _) = service.client().stacks(key).unwrap();
//! assert!(repeat.cached);
//! service.shutdown();
//! ```
//!
//! The same session is scriptable from a shell via `cpistack serve`, a
//! line protocol over stdin/stdout (see [`cli`] for the command set).
//!
//! ## Serving over TCP
//!
//! The identical protocol is served on a socket with `--listen`: the
//! bound address is announced as `listening <addr>` (so `:0` ephemeral
//! ports script cleanly), every connection gets its own client with
//! per-connection state, idle connections are reaped, and the in-band
//! `shutdown` command stops the whole server gracefully:
//!
//! ```text
//! $ cpistack serve --listen 127.0.0.1:7070 --quick &
//! listening 127.0.0.1:7070
//! $ printf 'machine core2 4 14 19 169 30\ningest runs.csv\nstack core2 cpu2000\nquit\n' \
//!     | nc 127.0.0.1 7070
//! ```
//!
//! Both fronts share one codec ([`service::proto`]), so a scripted
//! session produces byte-identical transcripts over stdio and TCP. Bulk
//! stack streams can skip per-line formatting: the `binstack` command
//! ships every stack of a request as one length-prefixed, checksummed
//! binary frame ([`service::proto::decode_stack_frame`] is the
//! client-side inverse). From Rust, the TCP front embeds directly via
//! [`service::proto::serve_tcp`].
//!
//! ## Restarting with warm state
//!
//! A `--state-dir` makes fitted models durable: every fresh fit is
//! snapshot to a versioned, checksummed file keyed by
//! `(machine, suite, fit-options fingerprint, records digest)`, and a
//! cache miss consults the store before running the regression — so a
//! restarted service serves its first fit request from disk with zero
//! fits. The records digest guarantees freshness: ingest anything new
//! and the key misses, falling through to a re-fit (stale parameters are
//! never served). The same knob is
//! [`ServiceConfig::with_state_dir`](service::ServiceConfig::with_state_dir)
//! in the library, and [`service::persist`] documents the on-disk
//! format:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::service::{CpiService, ModelKey, ServiceConfig};
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::workbench::MachineSpec;
//! use cpistack::SimSource;
//! use pmu::{MachineId, Suite};
//!
//! let dir = std::env::temp_dir().join(format!("cpis_facade_{}", std::process::id()));
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(5_000)
//!     .seed(42)
//!     .collect_config(&machine);
//! let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
//!
//! // Two service lifetimes against one state dir.
//! for restart in [false, true] {
//!     let service = CpiService::start(ServiceConfig::new().with_state_dir(&dir));
//!     let client = service.client();
//!     client.register(MachineSpec::from(&machine)).unwrap();
//!     client.ingest(records.clone()).unwrap();
//!     let report = client.fit(key.clone()).unwrap();
//!     assert_eq!(report.cached, restart, "the restart fits nothing");
//!     let stats = service.shutdown();
//!     assert_eq!(stats.fits, u64::from(!restart));
//! }
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Multi-tenant serving
//!
//! The same warm service can host **mutually-invisible tenants**: bind a
//! client per [`TenantId`] and everything it touches — machine
//! namespaces, the model cache (per-tenant LRU quotas: one noisy tenant
//! evicts only its own models), persisted snapshots (per-tenant
//! `tenant-<name>/` subdirectories under the state dir) and stats — is
//! scoped to that tenant. A cross-tenant read fails typed; it never
//! serves another tenant's data:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::service::{CpiService, ModelKey, ServiceConfig, ServiceError, TenantId};
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::workbench::MachineSpec;
//! use cpistack::SimSource;
//! use pmu::{MachineId, Suite};
//!
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(5_000)
//!     .seed(42)
//!     .collect_config(&machine);
//!
//! let service = CpiService::start(ServiceConfig::new());
//! let alpha = service.client_for(TenantId::new("alpha").unwrap());
//! let beta = service.client_for(TenantId::new("beta").unwrap());
//! alpha.register(MachineSpec::from(&machine)).unwrap();
//! alpha.ingest(records).unwrap();
//!
//! let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
//! assert!(alpha.fit(key.clone()).is_ok());
//! // Beta sees nothing of alpha's core2 — same machine id, own namespace.
//! assert!(matches!(
//!     beta.fit(key).unwrap_err(),
//!     ServiceError::NotRegistered { .. }
//! ));
//! assert_eq!(beta.stats().unwrap().fits, 0);
//! service.shutdown();
//! ```
//!
//! On the wire, multi-tenancy is switched on with
//! `cpistack serve --auth <token-file>` (mint tokens with
//! `cpistack token --auth-file <file> --tenant <name>`): every session,
//! stdio and TCP alike, must then open with a `hello <token>` handshake
//! before any command is dispatched. See [`service::auth`] and the
//! README's *Multi-tenant serve* section.
//!
//! ## Run a cluster
//!
//! One process is not a fleet. [`service::cluster`] scales the same
//! protocol out to N backend nodes behind a consistent-hash router:
//! every `(tenant, machine)` key lives on one node of the ring, fresh
//! fits replicate their persist snapshot to the key's ring successor,
//! and a dead node's keys re-route to that successor — which serves
//! them from the replicated snapshot with **zero re-fits**. Clients
//! keep speaking the single-node protocol to the router's port; the
//! golden transcripts replay byte-identical through it. On the command
//! line this tier is `cpistack cluster --state-dir <dir> --nodes 3`;
//! in-process it is [`service::cluster::ClusterHarness`]:
//!
//! ```
//! use cpistack::service::cluster::{ClusterHarness, RouterConfig};
//! use cpistack::sim::machine::MachineConfig;
//! use std::io::{Read, Write};
//!
//! let dir = std::env::temp_dir().join(format!("cpis_facade_cluster_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! std::fs::create_dir_all(&dir).unwrap();
//! let records = cpistack::SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(2_000)
//!     .seed(42)
//!     .collect_config(&MachineConfig::core2());
//! std::fs::write(dir.join("runs.csv"), pmu::csv::to_csv(&records)).unwrap();
//!
//! // Three nodes + router in one process; replication on (default 1).
//! let mut cluster = ClusterHarness::builder(dir.join("state"))
//!     .with_router(
//!         RouterConfig::new("doc cluster")
//!             .with_poll_interval(std::time::Duration::from_millis(2)),
//!     )
//!     .start()
//!     .unwrap();
//! let router = cluster.router_addr();
//! let session = |script: String| {
//!     let mut s = std::net::TcpStream::connect(router).unwrap();
//!     s.write_all(script.as_bytes()).unwrap();
//!     let mut out = String::new();
//!     s.read_to_string(&mut out).unwrap();
//!     out
//! };
//!
//! // Fit through the router; the same session ships the snapshot to
//! // the ring successor.
//! let fit = session(format!(
//!     "machine core2 4 14 19 169 30\ningest {}\nfit core2 cpu2000\nquit\n",
//!     dir.join("runs.csv").display(),
//! ));
//! assert!(fit.contains("cache: miss") && !fit.contains("err:"), "{fit}");
//!
//! // Kill the owning node — its port now refuses connections, exactly
//! // like a crashed process…
//! let owner = cluster.owner_index("local", "core2").unwrap();
//! cluster.kill(owner);
//!
//! // …and the tenant is still servable: the successor warm-loads the
//! // replicated snapshot. Zero re-fits.
//! let after = session("stack core2 cpu2000\nstats\nquit\n".to_string());
//! assert!(after.contains(" fits 0 ") && after.contains(" warm 1 "), "{after}");
//! cluster.shutdown();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Sweep a design space
//!
//! One [`CpiClient::sweep`](service::CpiClient::sweep) request explores
//! a whole parameter grid — ROB × MSHRs × dispatch width × prefetch
//! depth over a base machine — instead of one `delta` per hypothetical
//! config. The grid expands into named variants
//! (`core2+rob192+mshr32`, …), each **distinct** configuration
//! simulates exactly once on the work-stealing collect pool — variants
//! that differ only in timing share one front end, so each benchmark's
//! trace is generated and placed once and timed on all of them in
//! lockstep — every variant fits through the shared model cache, and
//! the summary ranks
//! them: per-variant CPI, delta stacks against the base, and the Pareto
//! front over (CPI, component-of-interest). Re-sweeping the same grid
//! simulates and refits nothing:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::service::sweep::{SweepGrid, SweepSpec};
//! use cpistack::service::{CpiService, ServiceConfig};
//! use pmu::{MachineId, Suite};
//!
//! // A 2×2 grid over the Core 2: the stock point collapses into
//! // `core2` itself, so four named variants come back. Doc scale —
//! // real sweeps run the full suite at millions of µops.
//! let grid = SweepGrid::new().rob([64, 96]).mshrs([8, 16]);
//! let mut spec = SweepSpec::new(MachineId::Core2, grid, Suite::Cpu2000);
//! spec.options = FitOptions::quick();
//! spec.uops = 2_000;
//! spec.limit = Some(12);
//!
//! let service = CpiService::start(ServiceConfig::new());
//! let client = service.client();
//!
//! let cold = client.sweep(spec.clone()).unwrap();
//! assert_eq!(cold.results.len(), 4);
//! assert_eq!(cold.simulated_configs, 4, "once per distinct config");
//!
//! // The warm re-sweep serves the identical grid from cache.
//! let warm = client.sweep(spec).unwrap();
//! assert_eq!(warm.simulated_configs, 0);
//! assert!(warm.results.iter().all(|r| r.cached));
//! let best = &warm.ranked()[0];
//! println!("best: {} cpi {:.3} ({})", best.id.name(), best.cpi, best.delta);
//! assert!(warm.pareto.contains(&best.id), "lowest CPI is Pareto-optimal");
//! service.shutdown();
//! ```
//!
//! The `sweep` protocol verb exposes the same request on every front —
//! stdio, TCP, and the cluster router, which partitions the grid by
//! ring owner, fans the slices out in parallel, and reroutes a dead
//! node's slice to its ring successor mid-sweep. See the `cpistack
//! sweep` subcommand and `examples/design_space.rs` for the CLI and
//! programmatic drivers.
//!
//! ## Watch live counters
//!
//! Static CSV ingest is one way to feed the service; a **live stream**
//! is the other. [`pmu::live`] abstracts timed counter sampling behind
//! the `LiveSource` trait: `ReplaySource` replays a recorded campaign
//! (or any record set) in batches, deterministically — optionally over
//! several rounds with ±1% counter jitter — and, on Linux with the
//! `perf-events` feature enabled, `PerfSource` samples real hardware
//! counters via `perf_event_open`. [`service::stream::pump`] drives any
//! such source into a warm service: each batch **upserts** its records
//! (same benchmark + suite replaces, so the store never grows without
//! bound), then a drift-guarded **incremental refit** serves the new
//! model — a warm-start Nelder–Mead polish at a small budget instead of
//! the full multi-start fan-out, falling back to the fan-out when the
//! workload digest changes, the polish drifts past the guard's bound,
//! or the periodic re-anchor cadence comes due. Closing the stream
//! reconciles with one forced full refit, which makes the final
//! parameters a pure function of the final record set — independent of
//! how the stream was chopped into batches:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::service::{stream, CpiService, ModelKey, ServiceConfig};
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::workbench::MachineSpec;
//! use cpistack::SimSource;
//! use pmu::live::ReplaySource;
//! use pmu::{MachineId, Suite};
//!
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(3_000)
//!     .seed(42)
//!     .collect_config(&machine);
//!
//! let service = CpiService::start(ServiceConfig::new());
//! let client = service.client();
//! client.register(MachineSpec::from(&machine)).unwrap();
//!
//! // Replay the campaign as three "live" rounds: round one anchors with
//! // a full fit, the jittered repeats are incremental polishes, and the
//! // close reconciles with one forced fan-out.
//! let mut source = ReplaySource::new(records).batch_size(12).rounds(3).jitter(7);
//! let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
//! let summary = stream::pump(
//!     &client,
//!     &key,
//!     &mut source,
//!     &stream::PumpOptions::default(),
//!     |batch, _records| {
//!         let mode = batch.mode.map_or("deferred", |m| m.name());
//!         println!("batch {}: refit {mode}", batch.batch);
//!     },
//! )
//! .unwrap();
//! assert_eq!(summary.full_refits, 1, "one anchor");
//! assert!(summary.incremental_refits >= 1, "steady state is cheap");
//! assert!(summary.reconciled);
//! let stats = service.shutdown();
//! assert!(stats.cache.incremental_refits >= 1);
//! ```
//!
//! The command-line twin is `cpistack watch`: it pumps a simulator
//! campaign (or `--replay <csv>` a recorded one) into a fresh service at
//! a configurable cadence, printing one line per batch, and `--record
//! <csv>` appends every streamed batch to a file that replays byte-exact
//! later. The refit split shows up in `stats` as `refits full N
//! incremental M`, and the steady-state saving is a tracked number in
//! `BENCH_10.json` (`stream_speedup`). The `perf-events` backend is
//! feature-gated (`cargo check --features perf-events`) so the default
//! build never touches raw syscalls.
//!
//! ## Load-test the serving tier
//!
//! Every TCP front here is one readiness **event loop** — one thread
//! drives all connections through [`service::poller::Poller`], a
//! `poll(2)` selector — and [`loadgen`] is the
//! matching measurement harness: an **open-loop** generator that fires
//! warm `stack`/`binstack` requests on a fixed per-connection schedule
//! and measures each response against its *scheduled* send slot, so
//! server-side queueing shows up in the percentiles instead of slowing
//! the client down (no coordinated omission):
//!
//! ```
//! use cpistack::loadgen::{self, LoadgenConfig};
//! use cpistack::model::FitOptions;
//! use cpistack::service::proto::{self, SessionSpec, TcpServerConfig};
//! use cpistack::service::{CpiService, ModelKey, ServiceConfig};
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::SimSource;
//! use pmu::{MachineId, Suite};
//! use std::time::Duration;
//!
//! // A warm server: one fitted model behind the readiness TCP front.
//! let machine = MachineConfig::core2();
//! let records = SimSource::new()
//!     .suite(cpistack::workloads::suites::cpu2000().into_iter().take(12).collect())
//!     .uops(2_000)
//!     .seed(7)
//!     .collect_config(&machine);
//! let service = CpiService::start(ServiceConfig::new());
//! let client = service.client();
//! client.register((&machine).into()).unwrap();
//! client.ingest(records).unwrap();
//! let options = FitOptions::quick();
//! client
//!     .fit(ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), options.clone()))
//!     .unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let server = proto::serve_tcp(
//!     listener,
//!     SessionSpec::open(client, options),
//!     TcpServerConfig::new("doc bench"),
//! )
//! .unwrap();
//!
//! // Eight connections × 50 req/s of mixed warm traffic for 300 ms.
//! let report = loadgen::run(
//!     &LoadgenConfig::new(server.local_addr(), "core2", "cpu2000")
//!         .with_connections(8)
//!         .with_rate(50.0)
//!         .with_duration(Duration::from_millis(300)),
//! )
//! .unwrap();
//! assert_eq!(report.sustained, 8);
//! assert_eq!(report.errors, 0);
//! assert_eq!(report.dropped, 0);
//! assert_eq!(report.completed, report.sent);
//! assert!(report.p99 > Duration::ZERO);
//! server.shutdown();
//! service.shutdown();
//! ```
//!
//! The client itself multiplexes every connection on one thread over
//! the same [`Poller`](service::poller::Poller), so at hundreds of
//! connections the harness measures the server, not client scheduler
//! jitter. The CLI twin is `cpistack loadgen --connect <addr>`
//! (`--budget-ms` makes it a CI gate), and `cpistack bench` records the
//! event-loop front's and the router's p99 at 4× the baseline
//! connection count in `BENCH_10.json`, gating the front's against the
//! committed baseline.
//!
//! ## Performance: parallel cold paths, a tracked baseline
//!
//! The cold paths are engineered too, and everything parallel is
//! **bit-identical** to sequential by construction. Campaign collection
//! drains one shared work-list through a work-stealing pool
//! ([`Workbench::threads`](workbench::Workbench::threads), `0` = one
//! worker per core) with pre-assigned output slots, so the records come
//! back byte-for-byte equal at any worker count. A work unit is one
//! benchmark on the machines that share a front end
//! ([`MachineConfig::front_key`](sim::MachineConfig::front_key)): its
//! trace is generated and run through the caches and branch predictor
//! once, then timed on each of those machines in lockstep. On a 2-vCPU
//! Xeon VM a simulated µop costs ≈ 75 ns of trace generation, ≈ 20 ns of
//! placement and ≈ 25–30 ns of timing per machine, so the 8 timing
//! variants of a sweep collect about 3× faster than one run each; the
//! paper machines crack µops differently and keep one run each. A cold
//! fit fans its 13 jittered Nelder–Mead starts across work-stealing
//! threads ([`FitOptions::threads`](model::FitOptions::threads)) and
//! splits each objective evaluation into fixed-size chunks reduced in
//! deterministic order, so parameters *and* objective-evaluation counts
//! are identical at any thread count — the budget is pure scheduling,
//! excluded from
//! [`FitOptions::fingerprint`](model::FitOptions::fingerprint), so it
//! never splits a cache key and persisted snapshots stay warm across
//! budget changes. Cap a deployment's cold-compute budget — per-fit
//! fan-out and per-sweep collect pool alike — with
//! [`ServiceConfig::with_fit_threads`](service::ServiceConfig::with_fit_threads)
//! (concurrent cold jobs time-share the budget). Campaign collection reuses
//! simulation buffers across runs and exposes the warm-up budget
//! ([`SimSource::warmup`](workbench::SimSource::warmup), default
//! unchanged). `cpistack bench` times cold collect (pool vs sequential)
//! / cold fit (parallel vs sequential, eval counts included) / warm
//! serve on the paper campaign — plus the cluster tier's warm
//! router-hop overhead, the streaming tier's incremental-vs-full refit
//! split, and the connection-scaling loadgen campaigns — asserts the
//! byte-identities, and writes the `BENCH_10.json` snapshot that CI
//! gates against (see the README's Performance section for current
//! numbers):
//!
//! ```
//! use cpistack::model::FitOptions;
//!
//! let opts = FitOptions::default().with_threads(8);
//! assert_eq!(opts.fingerprint(), FitOptions::default().fingerprint());
//! ```
//!
//! ## Quick scripts: the one-shot [`Workbench`]
//!
//! When one result is all you need, the [`Workbench`] builder runs the
//! whole collect → fit → stacks flow in a single expression — internally
//! it spins up an ephemeral [`CpiService`], so both paths share one
//! fitting code path. Every failure is a typed [`PipelineError`] naming
//! the stage that broke:
//!
//! ```
//! use cpistack::model::FitOptions;
//! use cpistack::sim::machine::MachineConfig;
//! use cpistack::{SimSource, Workbench};
//! use pmu::{MachineId, Suite};
//!
//! let suite: Vec<_> = cpistack::workloads::suites::cpu2000()
//!     .into_iter()
//!     .take(12)
//!     .collect();
//! let fitted = Workbench::new()
//!     .machine(MachineConfig::pentium4())
//!     .machine(MachineConfig::core2())
//!     .source(SimSource::new().suite(suite).uops(30_000).seed(42))
//!     .fit_options(FitOptions::quick())
//!     .collect()
//!     .expect("collect stage")
//!     .fit()
//!     .expect("fit stage");
//!
//! // CPI-delta stacks explaining the generation gap (Fig. 6).
//! let delta = fitted
//!     .delta(MachineId::Pentium4, MachineId::Core2, Suite::Cpu2000)
//!     .expect("both machines collected");
//! assert!(delta.overall.total() < 0.0, "Core 2 wins: {delta}");
//! ```
//!
//! Real hardware needs no simulator: state the machine's constants and
//! feed the CSV your perf tooling exported (see [`cli`] or `cpistack
//! --help` for the command-line version of the same pipeline).
//!
//! ```no_run
//! use cpistack::model::MicroarchParams;
//! use cpistack::workbench::Grouping;
//! use cpistack::{CsvSource, Workbench};
//!
//! # fn main() -> Result<(), cpistack::PipelineError> {
//! let fitted = Workbench::new()
//!     .arch(MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0))
//!     .source(CsvSource::from_path("runs.csv")?)
//!     .grouping(Grouping::Machine)
//!     .collect()?
//!     .fit()?;
//! fitted.export_stacks_to("stacks.csv")?;
//! # Ok(())
//! # }
//! ```

pub mod cli;
pub mod loadgen;
pub mod perf;

pub use calibrate as latency;
pub use cpicounters as truth;
pub use memodel as model;
pub use oosim as sim;
pub use pmu as counters;
pub use regress as fitting;
pub use report as figures;
pub use specgen as workloads;

/// The unified pipeline module (re-export of [`memodel::workbench`]).
pub use memodel::workbench;
pub use memodel::workbench::{
    CounterSource, CsvSource, PipelineError, RecordsSource, SimSource, SourceError, Workbench,
};

/// The long-lived serving layer (re-export of [`memodel::service`]).
pub use memodel::service;
pub use memodel::service::{
    CpiClient, CpiService, ModelKey, RefitMode, RefitPolicy, ServiceConfig, ServiceError,
    ServiceStats, TenantId,
};
