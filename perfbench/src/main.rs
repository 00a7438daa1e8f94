//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <campaign|sweep|serve> --seed <n> --seconds <s> --trace <0|1> [--uops <n>]
//! ```
//!
//! Every run boots the same serving tier (two in-process nodes behind the
//! cluster router, primed with a Core 2 / CPU2000 model), then opens a
//! timed window of `--seconds`: a single-threaded open-loop generator
//! sends warm `stack`/`binstack` requests through the router at a fixed
//! rate while the workload's cold jobs run back to back, each followed by
//! a one-second calm gap. Each timing is the median over the window's
//! jobs. The accuracy figures (Fig. 2/3/5) come from the paper campaign at
//! a fixed seed, outside the window, and are the same for every workload.
//!
//! - `campaign`: the paper's Fig. 1 flow in process — collect 103
//!   benchmarks on the three paper machines, six default fits through the
//!   service, every stack. Heavy: specgen, oosim, workbench, fit, regress.
//!   Not listed in `BENCHMARK.json`: with both vCPUs busy for most of the
//!   window, its timings spread 0.22 to 0.28 (IQR ÷ median over ten
//!   seeds) on a 2-vCPU VM, at or past the 0.25 bound a gate can use. It
//!   stays runnable; `--uops 200000 --seed 12345` reproduces
//!   `cpistack bench`'s `params_digest`.
//! - `sweep`: one cold design-space sweep in process — 8 Core 2 variants ×
//!   12 CPU2000 benchmarks, quick fits. Heavy: specgen, oosim (each trace
//!   replayed on 8 machines); light: fit.
//! - `serve`: a small cold sweep injected through the router on a second
//!   connection, a new variant and seed each time. Heavy: proto, router,
//!   service dispatch; light: simulation and fitting.
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it records spans around each layer call, times each
//! layer's entry point alone on the workload's inputs, and prints every
//! per-layer metric. Operations that fail — an `err:` reply or typed
//! error, a panic or dropped connection, a non-finite stack or one whose
//! components miss the predicted CPI, a warm reply that differs from the
//! first reply to the same request — are counted against those attempted.
//! Human notes go to standard output first; the last line is one JSON
//! object.

mod accuracy;
mod cluster;
mod jobs;
mod layers;
mod report;
mod trace;
mod warm;

use cluster::Cluster;
use jobs::{suite_records, threads, Scale};
use memodel::service::sweep::{expand, SweepGrid};
use memodel::InferredModel;
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use report::{describe, median, peak_rss_mb, records_digest, Ledger, Report};
use specgen::WorkloadProfile;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{analyze, Tracer};
use warm::{run_window, warm_stats, Conn};

const USAGE: &str = "usage: perfbench --workload <campaign|sweep|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--uops <n>]";

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cold_s", "s"),
    ("sim_uops_per_s", "1/s"),
    ("cpi_err_mean_pct", "%"),
    ("cpi_err_p90_pct", "%"),
    ("xsuite_err_mean_pct", "%"),
    ("stack_err_worst_pct", "%"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. The warm tails
/// `p99_ms` and `p99_cold_ms` sit here, unbounded: on a 2-vCPU VM their
/// run-to-run spread (0.2 to 3 times the median) is set by host
/// scheduling hiccups, wider than any bound a gate could use.
const PER_LAYER: &[(&str, &str)] = &[
    ("p99_ms", "ms"),
    ("p99_cold_ms", "ms"),
    ("specgen.ns_per_uop", "ns"),
    ("oosim.ns_per_uop", "ns"),
    ("specgen.share", "ratio"),
    ("oosim.uops", "count"),
    ("oosim.runs", "count"),
    ("sweep.configs", "count"),
    ("sweep.runs", "count"),
    ("workbench.collect_s", "s"),
    ("workbench.pool_eff", "ratio"),
    ("inputs.ns_per_record", "ns"),
    ("fit.evals", "count"),
    ("fit.starts", "count"),
    ("fit.evals_per_start", "count"),
    ("fit.ns_per_eval", "ns"),
    ("fit.s", "s"),
    ("fit.straggler", "ratio"),
    ("service.stacks_us", "us"),
    ("service.fits", "count"),
    ("service.hits", "count"),
    ("service.hit_ratio", "ratio"),
    ("proto.stack_us", "us"),
    ("proto.binstack_us", "us"),
    ("proto.frame_us", "us"),
    ("front.rtt_us", "us"),
    ("front.io_us", "us"),
    ("router.hop_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The campaign seed of the accuracy figures: `cpistack bench`'s.
const ACCURACY_SEED: u64 = 12345;

/// Repetitions of each closed-loop layer timing in the traced run.
const LAYER_REPS: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Sweep,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Sweep => "sweep",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the µop budget of every simulated run.
    uops: Option<u64>,
}

fn parse_args(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut uops) = (None, None, None, None, None);
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "campaign" => Workload::Campaign,
                    "sweep" => Workload::Sweep,
                    "serve" => Workload::Serve,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--uops" => {
                uops = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&u| u > 0)
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        uops,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut scale = Scale::standard();
    if let Some(uops) = args.uops {
        scale.uops = uops;
        scale.serve_uops = uops;
    }
    match run(&args, &scale) {
        Ok((report, ledger)) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for failure in ledger.failures() {
                println!("# FAILED: {failure}");
            }
            println!("{}", report.json(&ledger));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every reported metric is declared in a metric table")
}

fn put(report: &mut Report, name: &'static str, value: f64) {
    report.metric(name, unit_of(name), value);
}

/// The run's state directory (serving records, node snapshots) under the
/// working directory, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn create(args: &Args) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench").join(format!(
            "{}-{}-{}",
            std::process::id(),
            args.workload.name(),
            u8::from(args.trace)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench");
    }
}

/// Everything one run measures, before it becomes metrics.
struct Run<'a> {
    args: &'a Args,
    scale: &'a Scale,
    ledger: Ledger,
    tracer: Tracer,
    report: Report,
    /// The serving tier's Core 2 / CPU2000 records.
    serve_records: Vec<RunRecord>,
}

fn run(args: &Args, scale: &Scale) -> Result<(Report, Ledger), String> {
    let state = StateDir::create(args)?;
    let core2 = MachineConfig::core2();
    let serve_records = suite_records(&core2, Suite::Cpu2000, scale.serve_uops, args.seed);
    let csv = std::fs::canonicalize(&state.0)
        .map_err(|e| e.to_string())?
        .join("core2.csv");
    std::fs::write(&csv, pmu::csv::to_csv(&serve_records)).map_err(|e| e.to_string())?;

    let mut setups = Vec::new();
    let mut tier: Option<Cluster> = None;
    for i in 0..SETUPS {
        if let Some(old) = tier.take() {
            old.shutdown();
        }
        let (cluster, seconds) = Cluster::boot(&state.0.join(format!("tier-{i}")), &csv)?;
        setups.push(seconds);
        tier = Some(cluster);
    }
    let cluster = tier.expect("at least one set-up ran");
    let mut run = Run {
        args,
        scale,
        ledger: Ledger::new(),
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        serve_records,
    };
    run.report.note(format!(
        "{} | seed {} | {} s window | {} µops ({} serving) | {} threads | {} warm req/s",
        args.workload.name(),
        args.seed,
        args.seconds,
        scale.uops,
        scale.serve_uops,
        threads(),
        warm::RATE
    ));
    run.report.note(describe("set-up", "s", &setups));
    if !args.trace {
        put(&mut run.report, "setup_s", median(&setups));
    }
    let result = match args.workload {
        Workload::Campaign => run.campaign(&cluster),
        Workload::Sweep => run.sweep(&cluster),
        Workload::Serve => run.serve(&cluster),
    };
    cluster.shutdown();
    result?;
    if args.trace {
        let spans = run.tracer.spans();
        let analysis = analyze(&spans);
        for layer in &analysis.layers {
            run.report.note(format!(
                "span {}: {} spans over {} requests, total {:.4} s, self {:.4} s",
                layer.name,
                layer.spans,
                layer.requests.len(),
                layer.total_s,
                layer.self_s
            ));
        }
        put(
            &mut run.report,
            "trace.unattributed_frac",
            analysis.unattributed_frac,
        );
    } else {
        put(&mut run.report, "peak_rss_mb", peak_rss_mb());
    }
    let order = if args.trace { PER_LAYER } else { END_TO_END };
    run.report
        .metrics
        .sort_by_key(|m| order.iter().position(|(n, _)| *n == m.name));
    Ok((run.report, run.ledger))
}

/// Traced runs trace every other cold job; the untraced ones give the
/// wall the traced ones are compared with.
fn traced_job(trace: bool, k: usize) -> bool {
    trace && k.is_multiple_of(2)
}

/// Median wall of the traced jobs ÷ median wall of the untraced ones.
fn trace_overhead(walls: &[f64]) -> f64 {
    let traced: Vec<f64> = walls.iter().step_by(2).copied().collect();
    let plain: Vec<f64> = walls.iter().skip(1).step_by(2).copied().collect();
    median(&traced) / median(&plain)
}

fn warm_lines() -> Vec<String> {
    vec![
        "stack core2 cpu2000".to_string(),
        "binstack core2 cpu2000".to_string(),
    ]
}

impl Run<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        put(&mut self.report, name, value);
    }

    /// The warm-traffic metrics every workload reports.
    fn warm_metrics(&mut self, warm: &warm::WarmRun, cold: &[warm::ColdSpan]) {
        let stats = warm_stats(warm, cold, &mut self.report.notes);
        self.report.note(format!(
            "warm requests: sent {}, completed {}",
            warm.sent, warm.completed
        ));
        if self.args.trace {
            self.put("p99_ms", stats.p99_ms);
            self.put("p99_cold_ms", stats.p99_cold_ms);
            self.put("loadgen.late_p99_ms", stats.late_p99_ms);
            self.put("loadgen.sent", warm.sent as f64);
            self.put("loadgen.completed", warm.completed as f64);
        } else {
            self.put("p50_ms", stats.p50_ms);
        }
    }

    /// Digests must repeat across the jobs of one run (same seed).
    fn digests(&mut self, what: &str, digests: &[(u64, u64)]) {
        let Some(&(params, records)) = digests.first() else {
            return;
        };
        self.report.note(format!(
            "{what}: params_digest {params:016x} records_digest {records:016x}"
        ));
        self.ledger
            .check(digests.iter().all(|&d| d == (params, records)), || {
                format!("{what}: digests differ between jobs of one seed: {digests:x?}")
            });
    }

    /// Fig. 2/3/5 numbers of the paper campaign at [`ACCURACY_SEED`],
    /// outside the timed window. Accuracy is a deterministic property of
    /// the program (trace stream and fit), so every workload reports the
    /// same figures, and they move only when the program does: across
    /// seeds the models' errors differ by more than any bound would
    /// allow. A `campaign` run at that seed reuses its first job.
    fn accuracy(&mut self, first: Option<&jobs::CampaignRun>) -> Result<(), String> {
        let own;
        let run = match first.filter(|_| self.args.seed == ACCURACY_SEED) {
            Some(run) => run,
            None => {
                own = jobs::campaign(
                    self.scale,
                    ACCURACY_SEED,
                    &self.ledger,
                    &Tracer::new(false),
                    u64::MAX,
                )?;
                self.digests("accuracy campaign", &[(own.params, own.records_digest)]);
                &own
            }
        };
        let groups = &run.groups;
        let group = |id: MachineId, suite: Suite| {
            groups
                .iter()
                .find(|g| g.machine == id && g.suite == Some(suite))
                .expect("the campaign fits both suites on every machine")
        };
        let in_suite: Vec<_> = groups.iter().map(|g| (&g.model, &g.records[..])).collect();
        let cross: Vec<_> = MachineConfig::paper_machines()
            .iter()
            .map(|m| {
                let test = &group(m.id, Suite::Cpu2006).records[..];
                (&group(m.id, Suite::Cpu2000).model, test)
            })
            .collect();
        let (mean, p90, below) = accuracy::in_suite(&in_suite);
        let xsuite = accuracy::cross_suite(&cross);
        let worst = accuracy::stack_error(
            &group(MachineId::Core2, Suite::Cpu2000).model,
            &MachineConfig::core2(),
            &specgen::suites::cpu2000(),
            self.scale.uops,
            ACCURACY_SEED,
            threads(),
        );
        for note in accuracy::notes(mean, p90, below, xsuite, worst) {
            self.report.note(note);
        }
        self.put("cpi_err_mean_pct", mean);
        self.put("cpi_err_p90_pct", p90);
        self.put("xsuite_err_mean_pct", xsuite);
        self.put("stack_err_worst_pct", worst.1);
        Ok(())
    }

    /// The layers below the network, on the serving tier's inputs, plus
    /// the closed-loop round trips direct to the owner and via the router.
    fn serving_layers(&mut self, cluster: &Cluster, with_stacks: bool) -> Result<(), String> {
        let serve = layers::serve_layers(
            layers::arch_of(&MachineConfig::core2()),
            &self.serve_records,
            &cluster::serve_options(),
            LAYER_REPS,
        )?;
        let direct = layers::rtt_us(cluster.owner()?, LAYER_REPS)?;
        let routed = layers::rtt_us(cluster.router(), LAYER_REPS)?;
        if with_stacks {
            self.put("service.stacks_us", serve.stacks_us);
        }
        self.put("proto.stack_us", serve.proto_stack_us);
        self.put("proto.binstack_us", serve.proto_binstack_us);
        self.put("proto.frame_us", serve.frame_us);
        self.put("front.rtt_us", direct);
        self.put("front.io_us", direct - serve.proto_stack_us);
        self.put("router.hop_us", routed - direct);
        Ok(())
    }

    fn sim_metrics(&mut self, replay: &layers::SimReplay) {
        self.put("specgen.ns_per_uop", replay.gen_ns_per_uop());
        self.put("oosim.ns_per_uop", replay.sim_ns_per_uop());
        self.put("specgen.share", replay.gen_share());
        self.put("oosim.uops", replay.uops as f64);
        self.put("oosim.runs", replay.runs as f64);
    }

    fn fit_metrics(&mut self, fits: &layers::FitReplay, service_fit_s: f64) {
        self.put("fit.evals", fits.evals as f64);
        self.put("fit.starts", fits.starts as f64);
        self.put(
            "fit.evals_per_start",
            fits.evals as f64 / fits.starts as f64,
        );
        self.put("fit.ns_per_eval", fits.ns_per_eval());
        self.put("fit.s", service_fit_s);
        self.put("fit.straggler", fits.straggler());
    }

    fn service_counts(&mut self, fits: u64, hits: u64, misses: u64) {
        self.put("service.fits", fits as f64);
        self.put("service.hits", hits as f64);
        self.put(
            "service.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    fn campaign(&mut self, cluster: &Cluster) -> Result<(), String> {
        let conn = Conn::connect(cluster.router())?;
        let (args, scale) = (self.args, self.scale);
        let (ledger, tracer) = (&self.ledger, &self.tracer);
        let window = run_window(args.seconds, conn, &warm_lines(), ledger, tracer, |k| {
            tracer.set_enabled(traced_job(args.trace, k));
            let out = ledger.run("campaign", || {
                jobs::campaign(scale, args.seed, ledger, tracer, k as u64)
            });
            tracer.set_enabled(args.trace);
            out
        });
        self.warm_metrics(&window.warm, &window.cold);
        let jobs = &window.jobs;
        let first = jobs.first().ok_or("no campaign completed")?;
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
        self.report.note(describe("campaign wall", "s", &walls));
        let digests: Vec<(u64, u64)> = jobs.iter().map(|j| (j.params, j.records_digest)).collect();
        self.digests("campaign", &digests);
        let collect: Vec<f64> = jobs.iter().map(|j| j.collect_s).collect();
        let machines = MachineConfig::paper_machines();
        let fit_s: Vec<f64> = jobs.iter().map(|j| j.fit_s).collect();
        if !args.trace {
            let fit_latency: Vec<f64> = jobs.iter().flat_map(|j| j.fit_latency.clone()).collect();
            self.report
                .note(describe("cold fit request latency", "s", &fit_latency));
            self.report
                .note(describe("six cold fits, submit to last model", "s", &fit_s));
            // The campaign is this workload's cold request. Its six-fit
            // phase alone spread 0.27 across seeds on a 2-vCPU VM, past
            // any usable bound; it stays a note and `fit.s`.
            self.put("wall_s", median(&walls));
            self.put("cold_s", median(&walls));
            let rates: Vec<f64> = jobs.iter().map(|j| j.uops as f64 / j.collect_s).collect();
            self.put("sim_uops_per_s", median(&rates));
            return self.accuracy(Some(first));
        }
        let items: Vec<(MachineConfig, WorkloadProfile)> = machines
            .iter()
            .flat_map(|m| {
                specgen::suites::cpu2000()
                    .into_iter()
                    .chain(specgen::suites::cpu2006())
                    .map(move |p| (m.clone(), p))
            })
            .collect();
        let replay = layers::replay_sim(
            &items,
            scale.uops,
            scale.uops,
            args.seed,
            Some(&first.records),
            &self.ledger,
        );
        self.sim_metrics(&replay);
        self.put("sweep.configs", 0.0);
        self.put("sweep.runs", 0.0);
        let collect_s = median(&collect);
        self.put("workbench.collect_s", collect_s);
        self.put(
            "workbench.pool_eff",
            (replay.gen_s + replay.sim_s) / (collect_s * threads() as f64),
        );
        self.put(
            "inputs.ns_per_record",
            layers::inputs_ns_per_record(&first.records),
        );
        let groups: Vec<_> = first
            .groups
            .iter()
            .map(|g| (g.arch, &g.records[..]))
            .collect();
        let fits = layers::replay_fits(&groups, &scale.campaign_options)?;
        self.ledger.check(fits.params == first.params, || {
            "one-thread fit replay differs from the service fits".into()
        });
        self.fit_metrics(&fits, median(&fit_s));
        let stacks: Vec<f64> = jobs.iter().flat_map(|j| j.stacks_s.clone()).collect();
        self.put("service.stacks_us", median(&stacks) * 1e6);
        let stats = first.stats;
        self.service_counts(stats.fits, stats.cache.hits, stats.cache.misses);
        self.serving_layers(cluster, false)?;
        self.put("trace.overhead", trace_overhead(&walls));
        Ok(())
    }

    fn sweep(&mut self, cluster: &Cluster) -> Result<(), String> {
        let conn = Conn::connect(cluster.router())?;
        let (args, scale) = (self.args, self.scale);
        let (ledger, tracer) = (&self.ledger, &self.tracer);
        let window = run_window(args.seconds, conn, &warm_lines(), ledger, tracer, |k| {
            tracer.set_enabled(traced_job(args.trace, k));
            let out = ledger.run("sweep", || {
                jobs::sweep(scale, args.seed, ledger, tracer, k as u64)
            });
            tracer.set_enabled(args.trace);
            out
        });
        self.warm_metrics(&window.warm, &window.cold);
        let jobs = &window.jobs;
        let first = jobs.first().ok_or("no sweep completed")?;
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
        self.report.note(describe("sweep wall", "s", &walls));
        let digests: Vec<(u64, u64)> = jobs.iter().map(|j| (j.params, j.records_digest)).collect();
        self.digests("sweep", &digests);
        let collect: Vec<f64> = jobs.iter().map(|j| j.collect_s).collect();
        let profiles: Vec<WorkloadProfile> =
            specgen::suites::cpu2000().into_iter().take(12).collect();
        if !args.trace {
            self.put("wall_s", median(&walls));
            self.put("cold_s", median(&walls));
            let rates: Vec<f64> = jobs.iter().map(|j| j.uops as f64 / j.collect_s).collect();
            self.put("sim_uops_per_s", median(&rates));
            return self.accuracy(None);
        }
        let spec = jobs::sweep_spec(scale, args.seed);
        let mut configs = vec![MachineConfig::core2()];
        for variant in expand(spec.base, &spec.grid).map_err(|e| e.to_string())? {
            if configs.iter().all(|c| c.id != variant.id) {
                configs.push(variant.config);
            }
        }
        let items: Vec<(MachineConfig, WorkloadProfile)> = configs
            .iter()
            .flat_map(|c| profiles.iter().map(move |p| (c.clone(), p.clone())))
            .collect();
        let replay = layers::replay_sim(
            &items,
            scale.uops,
            scale.uops,
            args.seed,
            None,
            &self.ledger,
        );
        self.sim_metrics(&replay);
        self.put("sweep.configs", first.configs as f64);
        self.put("sweep.runs", first.runs as f64);
        let collect_s = median(&collect);
        self.put("workbench.collect_s", collect_s);
        self.put(
            "workbench.pool_eff",
            (replay.gen_s + replay.sim_s) / (collect_s * threads() as f64),
        );
        let records: Vec<RunRecord> = first
            .groups
            .iter()
            .flat_map(|g| g.records.clone())
            .collect();
        self.put(
            "inputs.ns_per_record",
            layers::inputs_ns_per_record(&records),
        );
        let groups: Vec<_> = first
            .groups
            .iter()
            .map(|g| (g.arch, &g.records[..]))
            .collect();
        let fits = layers::replay_fits(&groups, &spec.options)?;
        self.ledger.check(fits.params == first.params, || {
            "one-thread fit replay differs from the sweep's fits".into()
        });
        let fit_s: Vec<f64> = jobs.iter().map(|j| j.fit_s).collect();
        self.fit_metrics(&fits, median(&fit_s));
        let stacks: Vec<f64> = jobs.iter().flat_map(|j| j.stacks_s.clone()).collect();
        self.put("service.stacks_us", median(&stacks) * 1e6);
        let stats = first.stats;
        self.service_counts(stats.fits, stats.cache.hits, stats.cache.misses);
        self.serving_layers(cluster, false)?;
        self.put("trace.overhead", trace_overhead(&walls));
        Ok(())
    }

    fn serve(&mut self, cluster: &Cluster) -> Result<(), String> {
        let warm_conn = Conn::connect(cluster.router())?;
        let mut cold_conn = Conn::connect(cluster.router())?;
        let (args, scale) = (self.args, self.scale);
        let (ledger, tracer) = (&self.ledger, &self.tracer);
        let window = run_window(
            args.seconds,
            warm_conn,
            &warm_lines(),
            ledger,
            tracer,
            |k| {
                tracer.set_enabled(traced_job(args.trace, k));
                let out = ledger.run("serve sweep", || {
                    jobs::serve_sweep(&mut cold_conn, scale, args.seed, k, tracer)
                });
                tracer.set_enabled(args.trace);
                out
            },
        );
        cold_conn.request("quit")?;
        self.warm_metrics(&window.warm, &window.cold);
        let jobs = &window.jobs;
        let first = jobs.first().ok_or("no serve sweep completed")?;
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
        self.report
            .note(describe("injected cold sweep", "s", &walls));
        let options = cluster::serve_options();
        let core2 = MachineConfig::core2();
        let model = InferredModel::fit(&layers::arch_of(&core2), &self.serve_records, &options)
            .map_err(|e| format!("serve model: {e}"))?;
        let digest = (
            report::params_digest([&model]),
            records_digest(&self.serve_records),
        );
        self.digests("serve", &[digest]);
        if !args.trace {
            self.put("wall_s", median(&walls));
            self.put("cold_s", median(&walls));
            let rates: Vec<f64> = jobs.iter().map(|j| j.uops as f64 / j.wall).collect();
            self.put("sim_uops_per_s", median(&rates));
            return self.accuracy(None);
        }
        let variant = expand(
            MachineId::Core2,
            &SweepGrid::new().rob([jobs::serve_rob(0)]),
        )
        .map_err(|e| e.to_string())?
        .remove(0);
        let items: Vec<(MachineConfig, WorkloadProfile)> = specgen::suites::cpu2000()
            .into_iter()
            .map(|p| (variant.config.clone(), p))
            .collect();
        let replay = layers::replay_sim(
            &items,
            scale.serve_uops,
            scale.serve_uops,
            args.seed.wrapping_add(1),
            None,
            &self.ledger,
        );
        self.sim_metrics(&replay);
        self.put("sweep.configs", first.configs as f64);
        self.put("sweep.runs", first.runs as f64);
        // The injected sweeps collect inside the nodes, out of sight of
        // an outside timer.
        self.put("workbench.collect_s", 0.0);
        self.put("workbench.pool_eff", 0.0);
        self.put(
            "inputs.ns_per_record",
            layers::inputs_ns_per_record(&self.serve_records),
        );
        let fits = layers::replay_fits(
            &[(layers::arch_of(&core2), &self.serve_records[..])],
            &options,
        )?;
        self.ledger.check(fits.params == digest.0, || {
            "one-thread fit replay differs from the serve model".into()
        });
        let fit_s = fits.walls.iter().sum::<f64>();
        self.fit_metrics(&fits, fit_s);
        let (fits_n, hits, misses) = layers::node_stats(&cluster.nodes())?;
        self.service_counts(fits_n, hits, misses);
        self.serving_layers(cluster, true)?;
        self.put("trace.overhead", trace_overhead(&walls));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, trace: bool) -> (Report, Ledger) {
        let args = Args {
            workload,
            seed: 7,
            seconds: 2.0,
            trace,
            uops: None,
        };
        run(&args, &Scale::tiny()).expect("the tiny run completes")
    }

    /// Every declared metric printed once, in order, with its unit and a
    /// finite value, and nothing failed.
    fn assert_complete(workload: Workload) {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (report, ledger) = tiny(workload, trace);
            assert_eq!(ledger.failed(), 0, "{:?}", ledger.failures());
            assert!(ledger.attempted() > 0);
            let printed: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, table.to_vec(), "{workload:?} trace {trace}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{workload:?} {} = {}", m.name, m.value);
            }
            let json = report.json(&ledger);
            assert!(json.starts_with("{\"correct\": true"), "{json}");
            for (name, unit) in table {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": "))
                        && json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} missing from {json}"
                );
            }
        }
    }

    #[test]
    fn campaign_runs_and_prints_every_metric() {
        assert_complete(Workload::Campaign);
    }

    #[test]
    fn sweep_runs_and_prints_every_metric() {
        assert_complete(Workload::Sweep);
    }

    #[test]
    fn serve_runs_and_prints_every_metric() {
        assert_complete(Workload::Serve);
    }

    #[test]
    fn malformed_serve_request_is_a_failed_operation() {
        let args = Args {
            workload: Workload::Serve,
            seed: 3,
            seconds: 1.0,
            trace: false,
            uops: None,
        };
        let state = StateDir::create(&args).expect("state dir");
        let records = suite_records(&MachineConfig::core2(), Suite::Cpu2000, 2_000, 3);
        let csv = std::fs::canonicalize(&state.0).unwrap().join("core2.csv");
        std::fs::write(&csv, pmu::csv::to_csv(&records)).unwrap();
        let (cluster, _) = Cluster::boot(&state.0.join("tier"), &csv).expect("boot");
        let ledger = Ledger::new();
        let tracer = Tracer::new(false);
        let lines = vec!["stack core2 cpu2000".to_string(), "stack core2".to_string()];
        let conn = Conn::connect(cluster.router()).unwrap();
        let window = run_window(0.5, conn, &lines, &ledger, &tracer, |_| Some(()));
        cluster.shutdown();
        let sent = window.warm.sent;
        assert!(sent >= 4, "sent {sent}");
        // Every other request is malformed and answered `err:`: each is a
        // failed operation, none is dropped from the count.
        assert_eq!(ledger.attempted(), sent);
        assert_eq!(ledger.failed(), sent / 2, "{:?}", ledger.failures());
        assert!(
            ledger.failures()[0].contains("err: "),
            "{:?}",
            ledger.failures()
        );
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let words = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let args = parse_args(words("--workload serve --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.trace),
            (Workload::Serve, 4, true)
        );
        assert!(parse_args(words("--workload serve --seed 4 --seconds 10")).is_err());
        assert!(parse_args(words("--workload other --seed 4 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(words("--workload serve --seed 4 --seconds 0 --trace 0")).is_err());
    }
}
