//! Per-layer measurements for the traced run: each layer's public entry
//! point called alone on the workload's own inputs, timed from outside.

use crate::report::{median, params_digest, Ledger};
use crate::warm::Conn;
use memodel::service::proto::{self, SessionSpec};
use memodel::workbench::MachineSpec;
use memodel::ServiceConfig;
use memodel::{CpiService, FitOptions, InferredModel, MicroarchParams, ModelInputs, ModelKey};
use oosim::machine::MachineConfig;
use oosim::observer::NullObserver;
use oosim::pipeline::{simulate_warmed_with, SimScratch};
use pmu::{MachineId, RunRecord, Suite};
use specgen::{MicroOp, TraceGenerator, WorkloadProfile};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Trace generation and pipeline simulation of a work-list, one item at a
/// time: the trace is generated into a reused buffer first, then the
/// pipeline replays it with a reused scratch.
#[derive(Debug, Default)]
pub struct SimReplay {
    pub gen_s: f64,
    pub sim_s: f64,
    pub uops: u64,
    pub runs: u64,
}

impl SimReplay {
    pub fn gen_ns_per_uop(&self) -> f64 {
        self.gen_s * 1e9 / self.uops as f64
    }

    pub fn sim_ns_per_uop(&self) -> f64 {
        self.sim_s * 1e9 / self.uops as f64
    }

    /// Tracegen time ÷ (tracegen + pipeline time).
    pub fn gen_share(&self) -> f64 {
        self.gen_s / (self.gen_s + self.sim_s)
    }
}

/// Replays `items` with `warmup` + `uops` µops each. When `expect` holds
/// the workload's records for the same items, every replayed counter set
/// must equal the recorded one (one operation for the whole list).
pub fn replay_sim(
    items: &[(MachineConfig, WorkloadProfile)],
    warmup: u64,
    uops: u64,
    seed: u64,
    expect: Option<&[RunRecord]>,
    ledger: &Ledger,
) -> SimReplay {
    let mut out = SimReplay::default();
    let mut buffer: Vec<MicroOp> = Vec::new();
    let mut scratch = SimScratch::new();
    let mut mismatch = None;
    for (i, (machine, profile)) in items.iter().enumerate() {
        let start = Instant::now();
        buffer.clear();
        buffer.extend(
            TraceGenerator::new(profile, machine.cracking, seed).take((warmup + uops) as usize),
        );
        let generated = Instant::now();
        let result = simulate_warmed_with(
            machine,
            buffer.iter().copied(),
            warmup,
            uops,
            &mut NullObserver,
            &mut scratch,
        );
        let done = Instant::now();
        out.gen_s += generated.duration_since(start).as_secs_f64();
        out.sim_s += done.duration_since(generated).as_secs_f64();
        out.uops += buffer.len() as u64;
        out.runs += 1;
        if let Some(record) = expect.and_then(|records| records.get(i)) {
            if mismatch.is_none() && *record.counters() != result.counters {
                mismatch = Some(format!("{} on {}", profile.name, machine.id.name()));
            }
        }
        black_box(result);
    }
    if expect.is_some() {
        ledger.check(mismatch.is_none(), || {
            format!(
                "layer replay differs from the collected record: {}",
                mismatch.unwrap_or_default()
            )
        });
    }
    out
}

/// `ModelInputs::from_record` over `records`, repeated for at least
/// 20 ms; ns per record.
pub fn inputs_ns_per_record(records: &[RunRecord]) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    while done == 0 || start.elapsed().as_secs_f64() < 0.02 {
        for record in records {
            black_box(ModelInputs::from_record(black_box(record)));
        }
        done += records.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

/// One-thread fits of every key, profiled.
#[derive(Debug, Default)]
pub struct FitReplay {
    pub evals: u64,
    pub starts: u64,
    /// Wall per key, seconds.
    pub walls: Vec<f64>,
    pub params: u64,
}

impl FitReplay {
    pub fn ns_per_eval(&self) -> f64 {
        self.walls.iter().sum::<f64>() * 1e9 / self.evals as f64
    }

    /// Slowest key ÷ mean key.
    pub fn straggler(&self) -> f64 {
        let mean = self.walls.iter().sum::<f64>() / self.walls.len() as f64;
        self.walls.iter().copied().fold(0.0, f64::max) / mean
    }
}

/// Fits each `(arch, records)` group with `options` on one thread.
pub fn replay_fits(
    groups: &[(MicroarchParams, &[RunRecord])],
    options: &FitOptions,
) -> Result<FitReplay, String> {
    let options = options.clone().with_threads(1);
    let mut out = FitReplay::default();
    let mut models = Vec::new();
    for (arch, records) in groups {
        let start = Instant::now();
        let (model, profile) =
            InferredModel::fit_profiled(arch, records, &options).map_err(|e| e.to_string())?;
        out.walls.push(start.elapsed().as_secs_f64());
        out.evals += profile.evals;
        out.starts += profile.starts;
        models.push(model);
    }
    out.params = params_digest(&models);
    Ok(out)
}

/// Median seconds of `reps` calls of `op` (after one untimed call).
fn timed<T>(reps: usize, mut op: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    black_box(op()?);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        black_box(op()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Warm serving below the network: the codec and the in-process client.
#[derive(Debug, Default)]
pub struct ServeLayers {
    pub stacks_us: f64,
    pub proto_stack_us: f64,
    pub proto_binstack_us: f64,
    pub frame_us: f64,
}

/// Builds an in-process replica of a serving node (same machine spec,
/// records and fit options), then times warm `CpiClient::stacks`,
/// `execute_line` for `stack` and `binstack`, and `encode_stack_frame`.
pub fn serve_layers(
    arch: MicroarchParams,
    records: &[RunRecord],
    options: &FitOptions,
    reps: usize,
) -> Result<ServeLayers, String> {
    let service = CpiService::start(ServiceConfig::new().with_workers(1));
    let client = service.client();
    let result = (|| {
        client
            .register(MachineSpec::real(MachineId::Core2, arch))
            .map_err(|e| e.to_string())?;
        client.ingest(records.to_vec()).map_err(|e| e.to_string())?;
        let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), options.clone());
        let stacks_s = timed(reps, || {
            client.stacks(key.clone()).map_err(|e| e.to_string())
        })?;
        let (_, stacks) = client.stacks(key).map_err(|e| e.to_string())?;
        let frame_s = timed(reps, || Ok(proto::encode_stack_frame(&stacks)))?;
        let mut session = SessionSpec::open(client.clone(), options.clone()).session();
        let mut line = |text: &str| -> Result<Vec<u8>, String> {
            let mut out = Vec::new();
            proto::execute_line(&mut session, text, &mut out).map_err(|e| e.to_string())?;
            if crate::warm::is_error(&out) {
                return Err(format!(
                    "`{text}`: {}",
                    String::from_utf8_lossy(&out).trim_end()
                ));
            }
            Ok(out)
        };
        let stack_s = timed(reps, || line("stack core2 cpu2000"))?;
        let binstack_s = timed(reps, || line("binstack core2 cpu2000"))?;
        Ok(ServeLayers {
            stacks_us: stacks_s * 1e6,
            proto_stack_us: stack_s * 1e6,
            proto_binstack_us: binstack_s * 1e6,
            frame_us: frame_s * 1e6,
        })
    })();
    service.shutdown();
    result
}

/// Median closed-loop round trip of a warm `stack`, µs.
pub fn rtt_us(addr: SocketAddr, reps: usize) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let rtt = timed(reps, || conn.request("stack core2 cpu2000"))?;
    conn.request("quit")?;
    Ok(rtt * 1e6)
}

/// Summed `fits`, `hits` and `misses` of every node's `stats` line.
pub fn node_stats(nodes: &[SocketAddr]) -> Result<(u64, u64, u64), String> {
    let mut total = (0, 0, 0);
    for &addr in nodes {
        let mut conn = Conn::connect(addr)?;
        let reply = conn.request("stats")?;
        conn.request("quit")?;
        let line = reply
            .lines()
            .find(|l| l.starts_with("stats: "))
            .ok_or("no stats line")?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let field = |name: &str| -> Result<u64, String> {
            let at = words
                .iter()
                .position(|w| *w == name)
                .ok_or_else(|| format!("stats line lacks `{name}`"))?;
            words
                .get(at + 1)
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("bad `{name}` in `{line}`"))
        };
        total.0 += field("fits")?;
        total.1 += field("hits")?;
        total.2 += field("misses")?;
    }
    Ok(total)
}

/// The arch constants a simulated machine implies.
pub fn arch_of(machine: &MachineConfig) -> MicroarchParams {
    *MachineSpec::from(machine).arch()
}
