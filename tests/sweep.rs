//! The design-space sweep service, pinned from the outside:
//!
//! * **Grid expansion** is a pure function, so its invariants are
//!   property-tested: permutation-independence of the axis values, no
//!   duplicate variants, and the empty-axis / singleton-grid edge cases.
//! * **Simulation economy**: N grid variants over one suite simulate
//!   each workload's trace exactly once per *distinct* configuration —
//!   never once per variant-request — and a warm re-sweep simulates and
//!   refits nothing (asserted through the service stats, not inferred
//!   from wall-clock).
//! * **Byte-identity**: every variant's served stacks equal a standalone
//!   [`Workbench`] fit of that configuration bit for bit, and every
//!   variant's delta stacks equal the sequential `delta` path's answer.

use std::collections::HashSet;

use cpistack::model::FitOptions;
use cpistack::service::sweep::{self, SweepGrid, SweepSpec};
use cpistack::service::{CpiService, ModelKey, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::{SimSource, Workbench};
use pmu::{MachineId, Suite};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Grid expansion properties
// ---------------------------------------------------------------------------

/// Builds a grid from four axis value lists.
fn grid_of(rob: &[usize], mshr: &[usize], dw: &[u32], pf: &[u64]) -> SweepGrid {
    SweepGrid::new()
        .rob(rob.iter().copied())
        .mshrs(mshr.iter().copied())
        .dispatch(dw.iter().copied())
        .prefetch(pf.iter().copied())
}

/// The number of points a raw axis value list contributes: its distinct
/// values, or 1 when empty (the stock fallback).
fn axis_points<T: Ord + Copy + std::hash::Hash>(values: &[T]) -> usize {
    if values.is_empty() {
        return 1;
    }
    values.iter().collect::<HashSet<_>>().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Expansion is independent of the order (and multiplicity) of the
    /// axis values: reversing every axis and appending a duplicate of
    /// each value yields the identical variant list, and that list is
    /// duplicate-free with exactly one variant per distinct grid point.
    #[test]
    fn expansion_is_permutation_independent_and_duplicate_free(
        rob in prop::collection::vec(8usize..512, 0..4),
        mshr in prop::collection::vec(1usize..64, 0..4),
        dw in (1u32..9, 1u32..9, 0usize..3).prop_map(|(a, b, n)| {
            [a, b].into_iter().take(n).collect::<Vec<u32>>()
        }),
        pf in prop::collection::vec(0u64..32, 0..3),
    ) {
        let forward = sweep::expand(MachineId::Core2, &grid_of(&rob, &mshr, &dw, &pf))
            .expect("valid grid points");

        // Reversed axes, every value repeated: same expansion, byte for byte.
        let double = |v: &[usize]| -> Vec<usize> {
            v.iter().rev().chain(v.iter()).copied().collect()
        };
        let shuffled = grid_of(
            &double(&rob),
            &double(&mshr),
            &dw.iter().rev().chain(dw.iter()).copied().collect::<Vec<_>>(),
            &pf.iter().rev().chain(pf.iter()).copied().collect::<Vec<_>>(),
        );
        let backward = sweep::expand(MachineId::Core2, &shuffled).expect("valid grid points");
        prop_assert_eq!(&forward, &backward);

        // One variant per distinct point, no duplicate ids.
        let expected =
            axis_points(&rob) * axis_points(&mshr) * axis_points(&dw) * axis_points(&pf);
        prop_assert_eq!(forward.len(), expected);
        let ids: HashSet<&str> = forward.iter().map(|v| v.id.name()).collect();
        prop_assert!(ids.len() == forward.len(), "duplicate variant ids");
    }

    /// A singleton grid expands to exactly one variant, whose config is
    /// the base preset with just the named axes overridden — and when
    /// every singleton sits at the stock value, the variant *is* the
    /// base machine.
    #[test]
    fn singleton_grids_expand_to_one_decoded_variant(
        rob in 8usize..512,
        mshr in 1usize..64,
    ) {
        let variants = sweep::expand(MachineId::Core2, &grid_of(&[rob], &[mshr], &[], &[]))
            .expect("valid grid point");
        prop_assert_eq!(variants.len(), 1);
        let stock = MachineConfig::core2();
        let v = &variants[0];
        prop_assert_eq!(v.config.rob_size, rob);
        prop_assert_eq!(v.config.mshrs, mshr);
        prop_assert_eq!(v.config.dispatch_width, stock.dispatch_width);
        prop_assert_eq!(v.config.prefetch_depth, stock.prefetch_depth);
        if rob == stock.rob_size && mshr == stock.mshrs {
            prop_assert_eq!(v.id, MachineId::Core2);
        } else {
            prop_assert!(v.id.is_variant());
            // The name round-trips back to the same decoded config.
            let decoded = MachineConfig::preset(v.id);
            prop_assert_eq!(decoded.rob_size, rob);
            prop_assert_eq!(decoded.mshrs, mshr);
        }
    }
}

#[test]
fn an_empty_grid_is_just_the_base_machine() {
    let variants = sweep::expand(MachineId::Core2, &SweepGrid::new()).expect("empty grid expands");
    assert_eq!(variants.len(), 1);
    assert_eq!(variants[0].id, MachineId::Core2);
    assert_eq!(variants[0].config, MachineConfig::core2());
}

// ---------------------------------------------------------------------------
// Service-level invariants
// ---------------------------------------------------------------------------

/// A small two-axis spec over the Core 2: four named variants (the stock
/// point collapses into `core2` itself), quick fits, a 12-benchmark
/// CPU2000 slice.
fn small_spec() -> SweepSpec {
    let grid = SweepGrid::new().rob([64, 96]).mshrs([8, 16]);
    let mut spec = SweepSpec::new(MachineId::Core2, grid, Suite::Cpu2000);
    spec.options = FitOptions::quick();
    spec.uops = 2_000;
    spec.seed = 9;
    spec.limit = Some(12);
    spec
}

/// Satellite invariant: N grid variants over one suite simulate each
/// workload's trace once per *distinct* config — and a warm re-sweep of
/// the identical spec performs zero simulations and zero refits, pinned
/// by the service's own `fits` counter rather than by timing.
#[test]
fn sweep_simulates_once_per_distinct_config_and_resweeps_without_refits() {
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    let spec = small_spec();
    let workloads = spec.limit.expect("limited suite");

    let cold = client.sweep(spec.clone()).expect("cold sweep");
    assert_eq!(cold.results.len(), 4, "2×2 grid, stock point collapsed");
    assert_eq!(
        cold.simulated_configs, 4,
        "one simulation per distinct config"
    );
    assert_eq!(
        cold.simulated_runs,
        cold.simulated_configs * workloads,
        "each workload's trace runs once per distinct config"
    );
    assert!(
        cold.results.iter().all(|r| !r.cached),
        "every variant of a cold sweep is fitted, not served from cache"
    );
    let fits_after_cold = client.stats().expect("stats").fits;
    assert!(fits_after_cold >= 4, "cold sweep fitted the grid");

    // Warm re-sweep: same spec, nothing simulated, nothing refitted,
    // every variant a cache hit.
    let warm = client.sweep(spec).expect("warm re-sweep");
    assert_eq!(warm.simulated_configs, 0);
    assert_eq!(warm.simulated_runs, 0);
    assert!(
        warm.results.iter().all(|r| r.cached),
        "warm sweep must hit cache"
    );
    assert_eq!(
        client.stats().expect("stats").fits,
        fits_after_cold,
        "warm re-sweep performed a refit"
    );

    // Growing the grid re-simulates only the configurations the first
    // sweep has not seen: two new mshr=32 points, nothing else.
    let mut wider = small_spec();
    wider.grid = SweepGrid::new().rob([64, 96]).mshrs([8, 16, 32]);
    let grown = client.sweep(wider).expect("grown sweep");
    assert_eq!(grown.results.len(), 6);
    assert_eq!(grown.simulated_configs, 2, "only the new points simulate");
    assert_eq!(grown.simulated_runs, 2 * workloads);
    assert_eq!(
        grown.results.iter().filter(|r| !r.cached).count(),
        2,
        "only the new points fit"
    );

    service.shutdown();
}

/// Acceptance invariant: each variant served by the sweep carries the
/// same fitted stacks — bit for bit — as a standalone [`Workbench`] run
/// of that exact configuration over the same simulated workload slice.
#[test]
fn variant_stacks_are_byte_identical_to_a_standalone_workbench_fit() {
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    let spec = small_spec();
    let summary = client.sweep(spec.clone()).expect("sweep");

    let profiles = || {
        let all = cpistack::workloads::suites::cpu2000();
        all.into_iter().take(spec.limit.expect("limited suite"))
    };
    for result in &summary.results {
        // The service's cached per-benchmark stacks for this variant…
        let key = ModelKey::new(result.id, Some(spec.suite), spec.options.clone());
        let (report, served) = client.stacks(key).expect("served stacks");
        assert!(report.cached, "sweep left {} warm", result.id.name());

        // …versus a from-scratch Workbench pipeline over the same
        // simulated slice with the same options.
        let config = MachineConfig::preset(result.id);
        let fitted = Workbench::new()
            .machine(&config)
            .source(
                SimSource::new()
                    .suite(profiles().collect())
                    .uops(spec.uops)
                    .seed(spec.seed),
            )
            .fit_options(spec.options.clone())
            .collect()
            .expect("standalone collect")
            .fit()
            .expect("standalone fit");
        let model = fitted
            .model(result.id, spec.suite)
            .expect("standalone model");
        let records = SimSource::new()
            .suite(profiles().collect())
            .uops(spec.uops)
            .seed(spec.seed)
            .collect_config(&config);

        assert_eq!(served.len(), records.len());
        let mut cpi = 0.0;
        for ((name, stack), record) in served.iter().zip(&records) {
            let standalone = model.cpi_stack(record);
            assert_eq!(name, record.benchmark());
            assert_eq!(
                format!("{stack:?}"),
                format!("{standalone:?}"),
                "stack for {} / {name} diverged from the standalone fit",
                result.id.name()
            );
            cpi += standalone.total();
        }
        let cpi = cpi / records.len().max(1) as f64;
        assert_eq!(
            result.cpi.to_bits(),
            cpi.to_bits(),
            "{}: sweep CPI diverged from the standalone fit",
            result.id.name()
        );
    }
    service.shutdown();
}

/// The sweep's per-variant delta stacks are byte-identical to what the
/// sequential `delta old new suite` path answers for the same pair.
#[test]
fn sweep_deltas_match_the_sequential_delta_path() {
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    let spec = small_spec();
    let summary = client.sweep(spec.clone()).expect("sweep");

    for result in summary.results.iter().filter(|r| r.id != summary.base) {
        let sequential = client
            .delta(summary.base, result.id, spec.suite, spec.options.clone())
            .expect("sequential delta");
        assert_eq!(
            format!("{:?}", result.delta),
            format!("{sequential:?}"),
            "delta for {} diverged from the sequential path",
            result.id.name()
        );
    }
    service.shutdown();
}

/// The cold-compute budget is scheduling only: a cold sweep on 1 or 4
/// shards, each with a 1- or 4-thread budget for its fits and its
/// simulation collect pool, returns the same summary bit for bit and
/// leaves the same training records and fitted parameters behind.
#[test]
fn cold_sweeps_are_byte_identical_at_every_shard_count_and_thread_budget() {
    let spec = small_spec();
    let run = |workers: usize, threads: usize| {
        let service = CpiService::start(
            ServiceConfig::new()
                .with_workers(workers)
                .with_fit_threads(threads),
        );
        let client = service.client();
        let summary = client.sweep(spec.clone()).expect("cold sweep");
        let mut fingerprint = format!(
            "configs {} runs {} pareto {:?}\n",
            summary.simulated_configs, summary.simulated_runs, summary.pareto
        );
        for r in &summary.results {
            let key = ModelKey::new(r.id, Some(spec.suite), spec.options.clone());
            let group = client.group(key).expect("variant group");
            fingerprint += &format!(
                "{} cpi {:x} component {:x} delta {:?} benchmarks {}\n\
                 params {:?}\nrecords {:?}\n",
                r.id.name(),
                r.cpi.to_bits(),
                r.component.to_bits(),
                r.delta,
                r.benchmarks,
                group.model.params(),
                group.records
            );
        }
        service.shutdown();
        fingerprint
    };
    let reference = run(1, 1);
    assert!(reference.contains("configs 4 runs 48"), "{reference}");
    for (workers, threads) in [(1, 4), (4, 1), (4, 4)] {
        assert_eq!(
            run(workers, threads),
            reference,
            "{workers} shards × {threads} threads diverged from 1 × 1"
        );
    }
}
