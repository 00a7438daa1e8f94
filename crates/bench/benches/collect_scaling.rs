//! Benchmark guard for the work-stealing collect pool: the full paper
//! campaign (3 machines × both suites) drained from one (machine ×
//! suite-chunk) work-list must be **byte-identical** to the strictly
//! sequential path at any worker count, and must never be meaningfully
//! slower (on multicore hardware it should approach a cores-fold
//! speedup — work items steal independently, so a slow machine no longer
//! serialises the tail the way the old per-machine fan-out did).
//!
//! The design-space sweep shape gets its own check: 8 Core 2 timing
//! variants (ROB 96/192 × MSHR 16/32 × dispatch 4/6) share one front end,
//! so the pool times each benchmark's trace on all 8 in lockstep. That
//! must produce the same CSV as simulating every (variant, benchmark)
//! pair on its own, at least 2× faster on one worker.
//!
//! Exits non-zero on a mismatch or a regression, so this doubles as an
//! assertion, not just a report.
//!
//! Run with `cargo bench -p bench --bench collect_scaling`.

use memodel::service::sweep::{expand, SweepGrid};
use memodel::workbench::{CounterSource, MachineSpec, SimSource, Workbench};
use oosim::machine::MachineConfig;
use oosim::observer::NullObserver;
use oosim::pipeline::SimScratch;
use pmu::{MachineId, RunRecord};
use specgen::WorkloadProfile;
use std::time::{Duration, Instant};

const UOPS: u64 = 10_000;
const SEED: u64 = 777;
const RUNS: usize = 3;

/// On a single-core box the pool has no wins to offset worker spawn and
/// scheduling noise; allow a modest margin before failing.
const MAX_SLOWDOWN: f64 = 1.25;

/// Benchmarks in the sweep check (the first of CPU2000, as `sweep` with
/// `limit=12` simulates).
const SWEEP_BENCHMARKS: usize = 12;

/// Lockstep collection of the 8-variant grid must beat per-item
/// simulation by at least this factor (trace generation and placement
/// are paid once per benchmark instead of once per variant).
const MIN_LOCKSTEP_SPEEDUP: f64 = 2.0;

fn collect(parallel: bool, threads: usize) -> (String, Duration) {
    let machines = MachineConfig::paper_machines();
    let start = Instant::now();
    let collected = Workbench::new()
        .machines(machines.iter())
        .source(SimSource::paper_suites().uops(UOPS).seed(SEED))
        .parallel(parallel)
        .threads(threads)
        .collect()
        .expect("simulator collection cannot fail");
    let elapsed = start.elapsed();
    (collected.to_csv(), elapsed)
}

/// The last run's CSV and the fastest of `RUNS` timings.
fn best_of(mut run: impl FnMut() -> (String, Duration)) -> (String, Duration) {
    let mut best = Duration::MAX;
    let mut csv = String::new();
    for _ in 0..RUNS {
        let (text, t) = run();
        best = best.min(t);
        csv = text;
    }
    (csv, best)
}

/// The 8 Core 2 variants of the sweep grid: timing axes only, one front key.
fn sweep_variants() -> Vec<MachineConfig> {
    let grid = SweepGrid::new()
        .rob([96, 192])
        .mshrs([16, 32])
        .dispatch([4, 6]);
    expand(MachineId::Core2, &grid)
        .expect("the sweep grid is valid")
        .into_iter()
        .map(|v| v.config)
        .collect()
}

/// Every (variant, benchmark) pair simulated on its own, one worker.
fn per_item(variants: &[MachineConfig], profiles: &[WorkloadProfile]) -> (String, Duration) {
    let start = Instant::now();
    let mut scratch = SimScratch::new();
    let mut records: Vec<RunRecord> = Vec::new();
    for machine in variants {
        for profile in profiles {
            records.push(oosim::run::run_workload_with(
                machine,
                profile,
                UOPS,
                UOPS,
                SEED,
                &mut NullObserver,
                &mut scratch,
            ));
        }
    }
    (pmu::csv::to_csv(&records), start.elapsed())
}

/// The collect pool on one worker: one lockstep group per benchmark.
fn lockstep(variants: &[MachineConfig], profiles: &[WorkloadProfile]) -> (String, Duration) {
    let specs: Vec<MachineSpec> = variants.iter().map(MachineSpec::from).collect();
    let source = SimSource::new()
        .suite(profiles.to_vec())
        .uops(UOPS)
        .seed(SEED);
    let start = Instant::now();
    let records: Vec<RunRecord> = source
        .collect_all(&specs, 1)
        .into_iter()
        .flat_map(|r| r.expect("simulator collection cannot fail"))
        .collect();
    let elapsed = start.elapsed();
    (pmu::csv::to_csv(&records), elapsed)
}

fn check_sweep_shape() {
    let variants = sweep_variants();
    let profiles: Vec<WorkloadProfile> = specgen::suites::cpu2000()
        .into_iter()
        .take(SWEEP_BENCHMARKS)
        .collect();
    println!(
        "collect_scaling: sweep grid ({} Core 2 variants x {SWEEP_BENCHMARKS} benchmarks), \
         {UOPS} µops, one worker, best of {RUNS}",
        variants.len()
    );
    let (item_csv, item) = best_of(|| per_item(&variants, &profiles));
    let (lock_csv, lock) = best_of(|| lockstep(&variants, &profiles));
    assert_eq!(
        item_csv, lock_csv,
        "lockstep collection must be byte-identical to per-item simulation"
    );
    let speedup = item.as_secs_f64() / lock.as_secs_f64();
    println!("  per item:  {:>8.1} ms", item.as_secs_f64() * 1e3);
    println!(
        "  lockstep:  {:>8.1} ms  ({speedup:.2}x faster)",
        lock.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= MIN_LOCKSTEP_SPEEDUP,
        "lockstep collection only {speedup:.2}x faster than per-item simulation \
         (need {MIN_LOCKSTEP_SPEEDUP}x)"
    );
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "collect_scaling: full paper campaign (103 benchmarks x 3 machines), \
         {UOPS} µops, best of {RUNS} ({cores} hardware threads)"
    );
    let (seq_csv, seq) = best_of(|| collect(false, 0));
    println!(
        "  sequential (1 worker):  {:>8.1} ms",
        seq.as_secs_f64() * 1e3
    );
    for threads in [2usize, 0] {
        let (csv, t) = best_of(|| collect(true, threads));
        assert_eq!(
            seq_csv, csv,
            "threads={threads}: pooled collect must be byte-identical to sequential"
        );
        let ratio = t.as_secs_f64() / seq.as_secs_f64();
        let label = if threads == 0 {
            format!("auto ({cores})")
        } else {
            threads.to_string()
        };
        println!(
            "  pool (threads={label}): {:>8.1} ms  ({ratio:.2}x)",
            t.as_secs_f64() * 1e3
        );
        assert!(
            ratio <= MAX_SLOWDOWN,
            "pooled collect regressed: {ratio:.2}x sequential at threads={threads} \
             (tolerance {MAX_SLOWDOWN}x)"
        );
    }
    println!("  ok: bit-identical at every worker count, within tolerance");
    check_sweep_shape();
    println!("  ok: lockstep sweep collection bit-identical and within bound");
}
