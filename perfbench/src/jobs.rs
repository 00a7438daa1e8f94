//! The cold jobs of the three workloads, each timed from outside through
//! the public APIs, with a span around every layer call.
//!
//! - `campaign`: the paper's Fig. 1 flow — collect 103 benchmarks on the
//!   three paper machines through `Workbench::collect`, fit the six
//!   (machine × suite) models through `CpiService`, take every stack.
//! - `sweep`: one cold design-space sweep (Core 2 base, ROB 96/192 ×
//!   MSHR 16/32 × dispatch 4/6, a 12-benchmark CPU2000 slice, quick fits)
//!   through the service's collect and sweep requests.
//! - `serve`: one small cold sweep sent through the cluster router on a
//!   connection of its own, beside the warm traffic.

use crate::report::{params_digest, records_digest, Ledger};
use crate::trace::{SpanId, Tracer};
use crate::warm::Conn;
use memodel::service::sweep::{SweepGrid, SweepSpec};
use memodel::workbench::{FittedGroup, MachineSpec};
use memodel::{
    CounterSource, CpiClient, CpiService, FitOptions, InferredModel, ModelKey, Request, Response,
    ServiceConfig, ServiceStats, SimSource, Workbench,
};
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use std::time::Instant;

/// Workload scale: the µop budgets and the campaign's fit options.
#[derive(Debug, Clone)]
pub struct Scale {
    /// µops per benchmark run in `campaign` and `sweep` (the warm-up adds
    /// as many again).
    pub uops: u64,
    /// µops per run of the serving tier's records and injected sweeps.
    pub serve_uops: u64,
    /// Fit options of the six campaign models.
    pub campaign_options: FitOptions,
}

impl Scale {
    pub fn standard() -> Self {
        Self {
            uops: 50_000,
            serve_uops: 25_000,
            campaign_options: FitOptions::default(),
        }
    }

    /// A few thousand µops and quick fits: every code path in seconds.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            uops: 2_000,
            serve_uops: 2_000,
            campaign_options: FitOptions::quick(),
        }
    }
}

/// The thread budget of every workload: one per hardware thread.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Simulates one machine's suite sequentially-equivalently on the collect
/// pool (records do not depend on the thread count).
pub fn suite_records(
    machine: &MachineConfig,
    suite: Suite,
    uops: u64,
    seed: u64,
) -> Vec<RunRecord> {
    let profiles = match suite {
        Suite::Cpu2000 => specgen::suites::cpu2000(),
        Suite::Cpu2006 => specgen::suites::cpu2006(),
    };
    SimSource::new()
        .suite(profiles)
        .uops(uops)
        .seed(seed)
        .collect(&MachineSpec::from(machine), threads())
        .expect("the simulator source cannot fail for a configured machine")
}

/// Every stack finite and summing to the model's predicted CPI for its
/// record: one operation per model.
fn check_stacks(
    ledger: &Ledger,
    what: &str,
    model: &InferredModel,
    records: &[RunRecord],
    stacks: &[(String, memodel::CpiStack)],
) {
    let bad = stacks.iter().find_map(|(name, stack)| {
        let record = records.iter().find(|r| r.benchmark() == name)?;
        let predicted = model.predict_record(record);
        let parts: f64 = stack.components().iter().map(|(_, v)| v).sum();
        let ok = parts.is_finite() && parts > 0.0 && (parts - predicted).abs() <= 1e-9 * predicted;
        (!ok).then(|| format!("{name}: components {parts} vs predicted {predicted}"))
    });
    let complete = stacks.len() == records.len();
    ledger.check(bad.is_none() && complete, || {
        format!(
            "{what} stacks: {}",
            bad.unwrap_or_else(|| format!("{} stacks for {} records", stacks.len(), records.len()))
        )
    });
}

/// Warm `stacks` for `key`, checked against the group and timed.
fn timed_stacks(
    client: &CpiClient,
    key: &ModelKey,
    group: &FittedGroup,
    ledger: &Ledger,
    tracer: &Tracer,
    request: u64,
    root: SpanId,
) -> Result<f64, String> {
    let start = Instant::now();
    let (report, stacks) = client
        .stacks(key.clone())
        .map_err(|e| format!("stacks {}: {e}", key.machine.name()))?;
    let done = Instant::now();
    tracer.record("service.stacks", request, root, start, done);
    ledger.check(report.cached, || {
        format!("stacks {}: not served from the cache", key.machine.name())
    });
    check_stacks(
        ledger,
        key.machine.name(),
        &group.model,
        &group.records,
        &stacks,
    );
    Ok(done.duration_since(start).as_secs_f64())
}

/// The six campaign keys, machine-major then suite — the order of
/// `cpistack bench`'s `params_digest`.
pub fn campaign_keys(machines: &[MachineConfig], options: &FitOptions) -> Vec<ModelKey> {
    machines
        .iter()
        .flat_map(|m| Suite::ALL.map(|suite| ModelKey::new(m.id, Some(suite), options.clone())))
        .collect()
}

pub struct CampaignRun {
    pub wall: f64,
    pub collect_s: f64,
    pub fit_s: f64,
    /// µops simulated, warm-up included.
    pub uops: u64,
    /// Submit → model, per cold fit request.
    pub fit_latency: Vec<f64>,
    pub stacks_s: Vec<f64>,
    pub params: u64,
    pub records_digest: u64,
    pub records: Vec<RunRecord>,
    /// Fitted groups in [`campaign_keys`] order.
    pub groups: Vec<FittedGroup>,
    pub stats: ServiceStats,
}

pub fn campaign(
    scale: &Scale,
    seed: u64,
    ledger: &Ledger,
    tracer: &Tracer,
    request: u64,
) -> Result<CampaignRun, String> {
    let root = tracer.root("campaign", request);
    let t0 = Instant::now();
    let machines = MachineConfig::paper_machines();
    let span = tracer.begin("workbench.collect", request, root);
    let collected = Workbench::new()
        .machines(machines.iter())
        .source(SimSource::paper_suites().uops(scale.uops).seed(seed))
        .threads(threads())
        .collect()
        .map_err(|e| format!("collect: {e}"))?;
    tracer.end(span);
    let collect_s = t0.elapsed().as_secs_f64();
    let records: Vec<RunRecord> = collected.records().cloned().collect();

    let span = tracer.begin("service.start", request, root);
    let service = CpiService::start(
        ServiceConfig::new()
            .with_workers(threads())
            .with_fit_threads(threads()),
    );
    let client = service.client();
    for machine in &machines {
        client
            .register(machine.into())
            .map_err(|e| format!("register: {e}"))?;
    }
    client
        .ingest(records.clone())
        .map_err(|e| format!("ingest: {e}"))?;
    tracer.end(span);

    let keys = campaign_keys(
        &machines,
        &scale.campaign_options.clone().with_threads(threads()),
    );
    let fit_start = Instant::now();
    let streams: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| client.submit_group_at(i, key.clone()))
        .collect();
    // One receiver per stream, so each fit's latency ends when *its*
    // model arrives rather than when the one before it was read.
    let results: Vec<Result<(FittedGroup, Instant), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut group = None;
                    for response in stream {
                        match response {
                            Response::Group(g) => group = Some(*g),
                            Response::Error(e) => return Err(e.to_string()),
                            _ => {}
                        }
                    }
                    let group = group.ok_or("fit stream closed without a model")?;
                    Ok((group, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("fit receiver panicked".into()))
            })
            .collect()
    });
    let mut groups = Vec::new();
    let mut fit_latency = Vec::new();
    for (key, result) in keys.iter().zip(results) {
        let (group, done) =
            result.map_err(|e| format!("fit {} {:?}: {e}", key.machine.name(), key.suite))?;
        tracer.record("service.fit", request, root, fit_start, done);
        fit_latency.push(done.duration_since(fit_start).as_secs_f64());
        groups.push(group);
    }
    let fit_s = fit_start.elapsed().as_secs_f64();

    let mut stacks_s = Vec::new();
    for (key, group) in keys.iter().zip(&groups) {
        stacks_s.push(timed_stacks(
            &client, key, group, ledger, tracer, request, root,
        )?);
    }
    let span = tracer.begin("service.shutdown", request, root);
    let stats = service.shutdown();
    tracer.end(span);
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(root);

    Ok(CampaignRun {
        wall,
        collect_s,
        fit_s,
        uops: records.len() as u64 * 2 * scale.uops,
        fit_latency,
        stacks_s,
        params: params_digest(groups.iter().map(|g| &g.model)),
        records_digest: records_digest(&records),
        records,
        groups,
        stats,
    })
}

/// The sweep workload's grid: BENCH_10's, over the Core 2.
pub fn sweep_spec(scale: &Scale, seed: u64) -> SweepSpec {
    let grid = SweepGrid::new()
        .rob([96, 192])
        .mshrs([16, 32])
        .dispatch([4, 6]);
    let mut spec = SweepSpec::new(MachineId::Core2, grid, Suite::Cpu2000);
    spec.options = FitOptions::quick().with_threads(threads());
    spec.uops = scale.uops;
    spec.seed = seed;
    spec.limit = Some(12);
    spec
}

/// Variants of the sweep grid (the stock point collapses into the base).
pub const SWEEP_VARIANTS: usize = 8;

pub struct SweepRun {
    pub wall: f64,
    pub collect_s: f64,
    pub fit_s: f64,
    pub uops: u64,
    pub configs: usize,
    pub runs: usize,
    pub stacks_s: Vec<f64>,
    pub params: u64,
    pub records_digest: u64,
    /// One group per variant, in result order.
    pub groups: Vec<FittedGroup>,
    pub stats: ServiceStats,
}

pub fn sweep(
    scale: &Scale,
    seed: u64,
    ledger: &Ledger,
    tracer: &Tracer,
    request: u64,
) -> Result<SweepRun, String> {
    let spec = sweep_spec(scale, seed);
    let root = tracer.root("sweep", request);
    let t0 = Instant::now();
    let span = tracer.begin("service.start", request, root);
    let service = CpiService::start(
        ServiceConfig::new()
            .with_workers(threads())
            .with_fit_threads(threads()),
    );
    let client = service.client();
    tracer.end(span);

    let span = tracer.begin("sweep.collect", request, root);
    let collect_start = Instant::now();
    let mut simulated = None;
    for response in client.submit(Request::SweepCollect(Box::new(spec.clone()))) {
        match response {
            Response::SweepReady { configs, runs } => simulated = Some((configs, runs)),
            Response::Error(e) => return Err(format!("sweep collect: {e}")),
            _ => {}
        }
    }
    let (configs, runs) = simulated.ok_or("sweep collect ended without a result")?;
    let collect_s = collect_start.elapsed().as_secs_f64();
    tracer.end(span);

    let span = tracer.begin("sweep.fit", request, root);
    let fit_start = Instant::now();
    let summary = client
        .sweep(spec.clone())
        .map_err(|e| format!("sweep: {e}"))?;
    let fit_s = fit_start.elapsed().as_secs_f64();
    tracer.end(span);
    ledger.check(
        summary.results.len() == SWEEP_VARIANTS
            && configs == SWEEP_VARIANTS
            && summary.simulated_configs == 0
            && summary
                .results
                .iter()
                .all(|r| r.cpi.is_finite() && r.cpi > 0.0),
        || {
            format!(
                "sweep: {} variants, {configs} configs collected, {} more simulated by the sweep",
                summary.results.len(),
                summary.simulated_configs
            )
        },
    );

    let mut groups = Vec::new();
    let mut stacks_s = Vec::new();
    for result in &summary.results {
        let key = ModelKey::new(result.id, Some(spec.suite), spec.options.clone());
        let group = client
            .group(key.clone())
            .map_err(|e| format!("group {}: {e}", result.id.name()))?;
        stacks_s.push(timed_stacks(
            &client, &key, &group, ledger, tracer, request, root,
        )?);
        groups.push(group);
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let span = tracer.begin("service.shutdown", request, root);
    service.shutdown();
    tracer.end(span);
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(root);

    let records: Vec<RunRecord> = groups.iter().flat_map(|g| g.records.clone()).collect();
    Ok(SweepRun {
        wall,
        collect_s,
        fit_s,
        uops: runs as u64 * 2 * scale.uops,
        configs,
        runs,
        stacks_s,
        params: params_digest(groups.iter().map(|g| &g.model)),
        records_digest: records_digest(&records),
        groups,
        stats,
    })
}

/// The ROB size of the `k`-th injected serve sweep: a new variant each
/// time, so no injection is served from the cache.
pub fn serve_rob(k: usize) -> usize {
    112 + k
}

/// The protocol line of the `k`-th injected serve sweep.
pub fn serve_sweep_line(scale: &Scale, seed: u64, k: usize) -> String {
    format!(
        "sweep core2 cpu2000 rob={} uops={} seed={}",
        serve_rob(k),
        scale.serve_uops,
        seed.wrapping_add(1 + k as u64)
    )
}

pub struct ServeRun {
    pub wall: f64,
    pub configs: usize,
    pub runs: usize,
    pub uops: u64,
}

/// Sends the `k`-th cold sweep on `conn` and checks it simulated.
pub fn serve_sweep(
    conn: &mut Conn,
    scale: &Scale,
    seed: u64,
    k: usize,
    tracer: &Tracer,
) -> Result<ServeRun, String> {
    let line = serve_sweep_line(scale, seed, k);
    let request = k as u64;
    let root = tracer.root("serve.sweep", request);
    let start = Instant::now();
    let span = tracer.begin("router.sweep", request, root);
    let reply = conn.request(&line)?;
    tracer.end(span);
    let wall = start.elapsed().as_secs_f64();
    tracer.end(root);
    let summary = reply
        .lines()
        .find_map(|l| l.strip_prefix("sweep: "))
        .ok_or_else(|| format!("`{line}`: no summary line"))?;
    // `variants V simulated configs C runs R`
    let words: Vec<&str> = summary.split_whitespace().collect();
    let number = |i: usize| -> Result<usize, String> {
        words
            .get(i)
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("`{line}`: bad summary `{summary}`"))
    };
    let (configs, runs) = (number(4)?, number(6)?);
    if configs == 0 || runs == 0 {
        return Err(format!(
            "`{line}`: served warm ({summary}), expected a cold sweep"
        ));
    }
    Ok(ServeRun {
        wall,
        configs,
        runs,
        uops: runs as u64 * 2 * scale.serve_uops,
    })
}
