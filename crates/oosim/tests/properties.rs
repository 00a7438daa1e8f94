//! Property-based tests: simulator invariants that must hold for any
//! machine configuration and any well-formed workload.

use oosim::cache::Cache;
use oosim::machine::{Latencies, MachineConfig, PredictorConfig};
use oosim::observer::{DispatchObserver, NullObserver, StallCause};
use oosim::pipeline::{
    simulate, simulate_lockstep, simulate_warmed, simulate_warmed_with, SimScratch,
};
use pmu::{Event, Suite};
use proptest::prelude::*;
use specgen::{TraceGenerator, WorkloadProfile};

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    (
        2u32..6,      // width
        8u32..40,     // frontend depth
        48usize..256, // rob
        1usize..32,   // mshrs
        0u64..8,      // prefetch depth
        10u32..16,    // predictor log2
    )
        .prop_map(|(width, depth, rob, mshrs, prefetch, log2)| {
            MachineConfig::builder(MachineConfig::core2())
                .dispatch_width(width)
                .frontend_depth(depth)
                .rob_size(rob)
                .mshrs(mshrs)
                .prefetch_depth(prefetch)
                .predictor(PredictorConfig {
                    log2_entries: log2,
                    history_bits: log2.min(10),
                })
                .build()
        })
}

/// A copy of `base` that differs only in timing fields: ROB, MSHRs,
/// dispatch width, front-end depth and memory latency.
fn timing_variant(
    base: &MachineConfig,
    (rob, mshrs, width, depth, mem): (usize, usize, u32, u32, u64),
) -> MachineConfig {
    let lat = Latencies {
        mem: base.lat.mem + mem,
        ..base.lat
    };
    MachineConfig::builder(base.clone())
        .rob_size(rob)
        .mshrs(mshrs)
        .dispatch_width(width)
        .frontend_depth(depth)
        .latencies(lat)
        .build()
}

/// Lockstep results equal each machine's solo run on the same trace,
/// optionally truncated to `len` µops.
fn assert_lockstep_matches_solo(
    machines: &[MachineConfig],
    profile: &WorkloadProfile,
    seed: u64,
    len: Option<usize>,
    warmup: u64,
    uops: u64,
) {
    let trace =
        || TraceGenerator::new(profile, machines[0].cracking, seed).take(len.unwrap_or(usize::MAX));
    let refs: Vec<&MachineConfig> = machines.iter().collect();
    let lockstep = simulate_lockstep(&refs, trace(), warmup, uops, &mut Vec::new());
    assert_eq!(lockstep.len(), machines.len());
    for (machine, result) in machines.iter().zip(&lockstep) {
        let solo = simulate_warmed_with(
            machine,
            trace(),
            warmup,
            uops,
            &mut NullObserver,
            &mut SimScratch::new(),
        );
        assert_eq!(
            *result, solo,
            "rob {} mshrs {} width {} warmup {warmup} uops {uops} len {len:?}",
            machine.rob_size, machine.mshrs, machine.dispatch_width
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timing-only variants of a preset share its front end, and timing
    /// them in lockstep on one placed trace reproduces their solo runs
    /// bit for bit — with or without warm-up, with the warm-up and the
    /// budget ending at arbitrary µops, and when the trace runs out before
    /// the budget.
    #[test]
    fn lockstep_equals_solo_for_timing_variants(
        preset in 0usize..3,
        timings in prop::collection::vec((8usize..256, 1usize..32, 1u32..8, 4u32..40, 0u64..200), 1..5),
        cold in 0u64..3,
        warmup in 1u64..1_500,
        uops in 1u64..3_000,
        cut in 0usize..6_000,
        seed in 0u64..100,
    ) {
        let base = MachineConfig::paper_machines().swap_remove(preset);
        let mut machines = vec![base.clone()];
        machines.extend(timings.into_iter().map(|t| timing_variant(&base, t)));
        for machine in &machines {
            prop_assert_eq!(machine.front_key(), base.front_key());
        }
        let warmup = if cold == 0 { 0 } else { warmup };
        let len = (cut < 4_500).then_some(cut);
        let profile = WorkloadProfile::builder("lockstep", Suite::Cpu2006).fp(0.1).build();
        assert_lockstep_matches_solo(&machines, &profile, seed, len, warmup, uops);
    }

    /// CPI is bounded below by the dispatch width and counters are
    /// mutually consistent for any machine shape.
    #[test]
    fn simulation_invariants(machine in arb_machine(), seed in 0u64..500) {
        let profile = WorkloadProfile::builder("prop", Suite::Cpu2000)
            .fp(0.15)
            .build();
        let trace = TraceGenerator::new(&profile, machine.cracking, seed);
        let r = simulate(&machine, trace, 8_000, &mut NullObserver);
        let c = &r.counters;
        prop_assert!(r.cpi() >= 1.0 / machine.dispatch_width as f64);
        prop_assert_eq!(c.get(Event::UopsRetired), 8_000);
        prop_assert!(c.get(Event::InstrRetired) <= 8_000);
        prop_assert!(c.get(Event::BranchMispredicts) <= c.get(Event::Branches));
        prop_assert!(c.get(Event::LlcDataMisses) <= c.get(Event::L2DataMisses)
            || machine.l3.is_none());
        prop_assert!(c.get(Event::LlcInstrMisses) <= c.get(Event::L1InstrMisses));
    }

    /// Warm-up only ever removes compulsory effects: warmed miss *rates*
    /// never exceed cold rates by more than jitter.
    #[test]
    fn warmup_reduces_compulsory_misses(seed in 0u64..200) {
        let machine = MachineConfig::core2();
        let profile = WorkloadProfile::builder("warm", Suite::Cpu2000).build();
        let cold = simulate(
            &machine,
            TraceGenerator::new(&profile, machine.cracking, seed),
            30_000,
            &mut NullObserver,
        );
        let warm = simulate_warmed(
            &machine,
            TraceGenerator::new(&profile, machine.cracking, seed),
            30_000,
            30_000,
            &mut NullObserver,
        );
        let rate = |r: &oosim::SimResult, e: Event| {
            r.counters.get(e) as f64 / r.counters.get(Event::UopsRetired) as f64
        };
        prop_assert!(rate(&warm, Event::LlcDataMisses)
            <= rate(&cold, Event::LlcDataMisses) * 1.25 + 1e-4);
    }

    /// Attributed stall cycles can never exceed total cycles.
    #[test]
    fn attribution_is_conservative(machine in arb_machine(), seed in 0u64..200) {
        struct Sum(u64);
        impl DispatchObserver for Sum {
            fn on_stall(&mut self, gap: u64, _cause: StallCause) {
                self.0 += gap;
            }
        }
        let profile = WorkloadProfile::builder("attr", Suite::Cpu2006).build();
        let trace = TraceGenerator::new(&profile, machine.cracking, seed);
        let mut sum = Sum(0);
        let r = simulate(&machine, trace, 8_000, &mut sum);
        prop_assert!(sum.0 <= r.cycles, "attributed {} of {} cycles", sum.0, r.cycles);
    }

    /// The cache's hit+miss accounting always balances, and a working set
    /// within capacity eventually stops missing.
    #[test]
    fn cache_accounting_balances(
        log2_size in 10u64..16,
        ways in 1usize..8,
        addrs in prop::collection::vec(0u64..1_000_000, 100..800),
    ) {
        let size = 1u64 << log2_size;
        if !(size / 64).is_multiple_of(ways as u64) {
            return Ok(()); // skip inconsistent geometry draws
        }
        let mut cache = Cache::new(size, 64, ways);
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// Fully-covered small working sets stop missing after one lap.
    #[test]
    fn resident_sets_hit(lines in 1u64..32, laps in 2u64..6) {
        let mut cache = Cache::new(16 * 1024, 64, 4);
        for lap in 0..laps {
            for l in 0..lines {
                let hit = cache.access(l * 64);
                if lap > 0 {
                    prop_assert!(hit, "line {l} missed on lap {lap}");
                }
            }
        }
    }

    /// Bigger caches never produce more misses on the same trace (LRU
    /// inclusion property for same-geometry scaling by ways).
    #[test]
    fn more_ways_never_more_misses(
        addrs in prop::collection::vec(0u64..65_536, 200..600),
    ) {
        let mut small = Cache::new(8 * 1024, 64, 2);
        let mut large = Cache::new(16 * 1024, 64, 4); // same sets, more ways
        for &a in &addrs {
            small.access(a);
            large.access(a);
        }
        prop_assert!(large.misses() <= small.misses());
    }
}

/// The lockstep edge cases, each pinned deterministically: no warm-up, a
/// warm-up and a budget of odd lengths, and a trace that ends during the
/// measurement, during the warm-up, or immediately.
#[test]
fn lockstep_edge_cases_equal_solo() {
    let base = MachineConfig::core2();
    let machines = vec![
        base.clone(),
        timing_variant(&base, (192, 32, 6, 14, 0)),
        timing_variant(&base, (48, 2, 2, 30, 150)),
    ];
    let profile = WorkloadProfile::builder("edges", Suite::Cpu2000).build();
    for (warmup, uops, len) in [
        (0, 1_024, None),
        (612, 768, None),
        (256, 1_287, None),
        (0, 769, None),
        (768, 1_024, Some(1_291)),
        (768, 1_024, Some(128)),
        (256, 256, Some(0)),
    ] {
        assert_lockstep_matches_solo(&machines, &profile, 9, len, warmup, uops);
    }
}

/// The geometry constraint in `cache_accounting_balances` skips draws; make
/// sure at least the canonical geometries are exercised deterministically.
#[test]
fn canonical_geometries_balance() {
    for (size, ways) in [(16 * 1024, 4), (32 * 1024, 8), (4 * 1024 * 1024, 16)] {
        let mut cache = Cache::new(size, 64, ways);
        for i in 0..10_000u64 {
            cache.access(i * 192 % (2 * size));
        }
        assert_eq!(cache.hits() + cache.misses(), 10_000);
    }
}
