//! Byte-identity lockdown for the parallel perf paths (PR 4's
//! non-negotiable invariant, extended by PR 9): any thread budget must
//! produce bit-identical `ModelParams` and objective to the
//! strictly-sequential path, for every paper machine; the work-stealing
//! collect pool must produce byte-identical record streams at any worker
//! count; and because thread budgets are invisible to cache keys and
//! records digests, snapshots persisted under one budget must warm-load
//! under any other. Lockstep collection — one trace timed on every
//! machine that shares its front end — must match simulating each
//! (machine, benchmark) pair on its own.

use cpistack::model::workbench::{CounterSource, MachineSpec, Workbench};
use cpistack::model::{FitOptions, InferredModel, MicroarchParams};
use cpistack::service::sweep::{expand, SweepGrid};
use cpistack::service::{CpiService, ModelKey, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::sim::observer::NullObserver;
use cpistack::sim::pipeline::SimScratch;
use cpistack::sim::run::run_workload_with;
use cpistack::workloads::WorkloadProfile;
use cpistack::SimSource;
use pmu::{MachineId, RunRecord, Suite};

const UOPS: u64 = 6_000;
const SEED: u64 = 2024;

fn records_for(machine: &MachineConfig) -> Vec<RunRecord> {
    SimSource::new()
        .suite(
            cpistack::workloads::suites::cpu2000()
                .into_iter()
                .take(14)
                .collect(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(machine)
}

#[test]
fn parallel_fit_is_bit_identical_for_every_paper_machine() {
    for machine in MachineConfig::paper_machines() {
        let arch = MicroarchParams::from_machine(&machine);
        let records = records_for(&machine);
        let sequential = InferredModel::fit(&arch, &records, &FitOptions::quick().with_threads(1))
            .expect("sequential fit");
        for threads in [2, 8] {
            let parallel =
                InferredModel::fit(&arch, &records, &FitOptions::quick().with_threads(threads))
                    .expect("parallel fit");
            assert_eq!(
                sequential.params(),
                parallel.params(),
                "{:?} threads={threads}: ModelParams must be bit-identical",
                machine.id
            );
            assert_eq!(
                sequential.objective().to_bits(),
                parallel.objective().to_bits(),
                "{:?} threads={threads}: objective must be bit-identical",
                machine.id
            );
        }
    }
}

/// FNV-1a over the canonical CSV rendering of a record stream — a
/// byte-level witness, not a structural comparison.
fn records_digest(records: &[RunRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in pmu::csv::to_csv(records).as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn work_stealing_collect_is_byte_identical_at_any_worker_count() {
    // The full paper campaign (103 benchmarks × 3 machines) at a reduced
    // µop budget: the work-stealing pool pre-assigns output slots, so the
    // record stream must hash identically whether one worker drains the
    // whole work-list or eight race over it.
    let machines = MachineConfig::paper_machines();
    let collect = |threads: usize, parallel: bool| {
        let collected = Workbench::new()
            .machines(machines.iter())
            .source(SimSource::paper_suites().uops(2_000).seed(SEED))
            .parallel(parallel)
            .threads(threads)
            .collect()
            .expect("campaign collects");
        let records: Vec<RunRecord> = collected.records().cloned().collect();
        (records.len(), records_digest(&records))
    };
    let (count, sequential) = collect(1, false);
    assert_eq!(count, 103 * 3, "the whole campaign, no dropped work items");
    for threads in [1, 2, 8] {
        let (n, digest) = collect(threads, true);
        assert_eq!(n, count, "threads={threads} changed the record count");
        assert_eq!(
            digest, sequential,
            "threads={threads}: pooled collect must be byte-identical to sequential"
        );
    }
}

/// Every `(machine, benchmark)` pair simulated on its own, machine-major:
/// the reference the lockstep pool must reproduce.
fn per_item_records(
    machines: &[MachineConfig],
    profiles: &[WorkloadProfile],
    uops: u64,
) -> Vec<RunRecord> {
    let mut scratch = SimScratch::new();
    machines
        .iter()
        .flat_map(|machine| profiles.iter().map(move |profile| (machine, profile)))
        .map(|(machine, profile)| {
            run_workload_with(
                machine,
                profile,
                uops,
                uops,
                SEED,
                &mut NullObserver,
                &mut scratch,
            )
        })
        .collect()
}

/// Collects `machines` through the pool at each worker count and checks
/// the records against per-item simulation.
fn assert_pool_matches_per_item(machines: &[MachineConfig], profiles: Vec<WorkloadProfile>) {
    const UOPS: u64 = 1_500;
    let expected = per_item_records(machines, &profiles, UOPS);
    let source = SimSource::new().suite(profiles).uops(UOPS).seed(SEED);
    let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::from).collect();
    for threads in [1, 2, 8] {
        let records: Vec<RunRecord> = source
            .collect_all(&specs, threads)
            .into_iter()
            .flat_map(|r| r.expect("configured machines collect"))
            .collect();
        assert_eq!(records.len(), expected.len(), "threads={threads}");
        assert_eq!(
            records_digest(&records),
            records_digest(&expected),
            "threads={threads}: pooled collect must be byte-identical to per-item simulation"
        );
    }
}

#[test]
fn lockstep_sweep_collect_matches_per_item_simulation() {
    // rob × mshr × dw × pf: the pf axis splits the grid into two front
    // keys, so the pool runs two lockstep groups per benchmark.
    let grid = SweepGrid::new()
        .rob([64, 192])
        .mshrs([8, 32])
        .dispatch([2, 6])
        .prefetch([0, 4]);
    let machines: Vec<MachineConfig> = expand(MachineId::Core2, &grid)
        .expect("a valid grid")
        .into_iter()
        .map(|v| v.config)
        .collect();
    assert_eq!(machines.len(), 16);
    let profiles = cpistack::workloads::suites::cpu2000()
        .into_iter()
        .take(5)
        .collect();
    assert_pool_matches_per_item(&machines, profiles);
}

#[test]
fn paper_campaign_collect_matches_per_item_simulation() {
    // The paper machines crack differently, so each (machine, benchmark)
    // is a one-machine group on the fused path.
    let machines = MachineConfig::paper_machines();
    let profiles = cpistack::workloads::suites::cpu2000()
        .into_iter()
        .take(4)
        .chain(cpistack::workloads::suites::cpu2006().into_iter().take(4))
        .collect();
    assert_pool_matches_per_item(&machines, profiles);
}

#[test]
fn parallel_objective_fit_is_bit_identical_for_every_paper_machine() {
    // A training set big enough to cross the inner fan-out's
    // 4096-inputs-per-worker floor (the paper campaign never does, so the
    // per-term parallel reduction needs its own lockdown): one start and
    // a generous budget routes all the parallelism into the objective
    // itself, and the fitted bits must not move.
    for machine in MachineConfig::paper_machines() {
        let arch = MicroarchParams::from_machine(&machine);
        let base = records_for(&machine);
        let records: Vec<RunRecord> = base.iter().cycle().take(9_000).cloned().collect();
        let opts = |threads: usize| {
            FitOptions::quick()
                .with_extra_starts(0)
                .with_threads(threads)
        };
        let sequential = InferredModel::fit(&arch, &records, &opts(1)).expect("sequential fit");
        let parallel = InferredModel::fit(&arch, &records, &opts(8)).expect("parallel fit");
        assert_eq!(
            sequential.params(),
            parallel.params(),
            "{:?}: parallel objective changed the fitted params",
            machine.id
        );
        assert_eq!(
            sequential.objective().to_bits(),
            parallel.objective().to_bits(),
            "{:?}: parallel objective changed the objective bits",
            machine.id
        );
    }
}

#[test]
fn thread_budget_is_invisible_to_fingerprints_and_cache_keys() {
    // The scheduling knob must not split cache keys: equal fingerprints
    // regardless of the budget, so a service serves a threads=8 request
    // from a model fitted under threads=1.
    let base = FitOptions::quick();
    for threads in [0, 1, 2, 8] {
        assert_eq!(
            base.fingerprint(),
            base.clone().with_threads(threads).fingerprint(),
            "threads={threads} changed the fingerprint"
        );
    }
}

#[test]
fn snapshots_persist_across_thread_budgets() {
    // Fit under threads=1 into a state dir; a restarted service fitting
    // the same key under threads=8 must warm-load the snapshot (zero
    // regressions) and restore the exact same model — the on-disk format
    // and its keys predate the thread knob and must stay compatible.
    let dir = std::env::temp_dir().join(format!("cpistack_perf_identity_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let machine = MachineConfig::core2();
    let records = records_for(&machine);
    let key = |threads: usize| {
        ModelKey::new(
            pmu::MachineId::Core2,
            Some(Suite::Cpu2000),
            FitOptions::quick().with_threads(threads),
        )
    };

    let first = {
        let service = CpiService::start(
            ServiceConfig::new()
                .with_state_dir(&dir)
                .with_fit_threads(1),
        );
        let client = service.client();
        client.register((&machine).into()).expect("register");
        client.ingest(records.clone()).expect("ingest");
        let report = client.fit(key(1)).expect("cold fit");
        assert!(!report.cached);
        let stats = service.shutdown();
        assert_eq!(stats.fits, 1);
        report.model
    };

    let service = CpiService::start(
        ServiceConfig::new()
            .with_state_dir(&dir)
            .with_fit_threads(8),
    );
    let client = service.client();
    client.register((&machine).into()).expect("register");
    client.ingest(records).expect("ingest");
    let report = client.fit(key(8)).expect("warm fit");
    assert!(report.cached, "restart must serve from the snapshot store");
    assert_eq!(first.params(), report.model.params());
    assert_eq!(
        first.objective().to_bits(),
        report.model.objective().to_bits()
    );
    let stats = service.shutdown();
    assert_eq!(stats.fits, 0, "no regression ran on the warm restart");
    assert_eq!(stats.cache.warm_loads, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
