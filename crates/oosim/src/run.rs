//! High-level entry points: run one benchmark (or a whole suite) on a
//! machine and get back [`RunRecord`]s — the simulated equivalent of the
//! paper's perfex measurement campaign.

use crate::machine::MachineConfig;
use crate::observer::{DispatchObserver, NullObserver};
use crate::pipeline::{simulate_lockstep, simulate_warmed_with, SimResult, SimScratch};
use pmu::RunRecord;
use specgen::{TraceGenerator, WorkloadProfile};

/// Default µop budget per benchmark run used by the experiment harness.
///
/// Real SPEC runs execute for hundreds of billions of instructions; the
/// synthetic workloads are statistically stationary, so a few million µops
/// give stable counter rates (see the stability test below).
pub const DEFAULT_UOPS: u64 = 2_000_000;

/// Runs `profile` on `machine` for `uops` micro-operations and packages the
/// counters as a [`RunRecord`].
///
/// `seed` controls workload generation; experiments use a fixed global seed
/// so every machine sees the same macro-instruction stream (cracked
/// per-machine, as on real hardware).
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
/// use oosim::run::run_workload;
/// use pmu::Suite;
/// use specgen::WorkloadProfile;
///
/// let profile = WorkloadProfile::builder("quick", Suite::Cpu2000).build();
/// let record = run_workload(&MachineConfig::core2(), &profile, 10_000, 42);
/// assert_eq!(record.benchmark(), "quick");
/// assert!(record.cpi() > 0.0);
/// ```
pub fn run_workload(
    machine: &MachineConfig,
    profile: &WorkloadProfile,
    uops: u64,
    seed: u64,
) -> RunRecord {
    run_workload_observed(machine, profile, uops, seed, &mut NullObserver)
}

/// Like [`run_workload`] but with an explicit warm-up budget in µops
/// (`run_workload` warms for `uops`, i.e. a 2× total cost per run).
/// Stationary workloads often reach steady-state counter rates well before
/// a full measurement-length warm-up; campaigns that verify this can halve
/// their simulation bill.
pub fn run_workload_warmed(
    machine: &MachineConfig,
    profile: &WorkloadProfile,
    warmup: u64,
    uops: u64,
    seed: u64,
) -> RunRecord {
    run_workload_with(
        machine,
        profile,
        warmup,
        uops,
        seed,
        &mut NullObserver,
        &mut SimScratch::new(),
    )
}

/// Like [`run_workload`] but reports dispatch stalls to `observer` (used by
/// the ground-truth CPI-stack accounting in `cpicounters`).
///
/// A warm-up phase of `uops` further micro-operations precedes the
/// measured region, so counter rates reflect steady-state behaviour rather
/// than compulsory misses — mirroring how real SPEC measurements, running
/// for hundreds of billions of instructions, never see their cold start.
pub fn run_workload_observed(
    machine: &MachineConfig,
    profile: &WorkloadProfile,
    uops: u64,
    seed: u64,
    observer: &mut dyn DispatchObserver,
) -> RunRecord {
    run_workload_with(
        machine,
        profile,
        uops,
        uops,
        seed,
        observer,
        &mut SimScratch::new(),
    )
}

/// The fully-general entry point behind every `run_workload*` variant:
/// explicit warm-up budget, stall observer, and caller-owned
/// [`SimScratch`] so campaign loops reuse one set of simulation buffers
/// across hundreds of runs. Bit-identical to the convenience wrappers.
pub fn run_workload_with(
    machine: &MachineConfig,
    profile: &WorkloadProfile,
    warmup: u64,
    uops: u64,
    seed: u64,
    observer: &mut dyn DispatchObserver,
    scratch: &mut SimScratch,
) -> RunRecord {
    let trace = TraceGenerator::new(profile, machine.cracking, seed);
    let result: SimResult = simulate_warmed_with(machine, trace, warmup, uops, observer, scratch);
    RunRecord::new(
        profile.name.clone(),
        profile.suite,
        machine.id,
        result.counters,
    )
}

/// [`run_workload_with`] for several machines that share a front end
/// ([`MachineConfig::front_key`]): `profile`'s trace is generated and
/// placed once and timed on every machine in lockstep
/// ([`simulate_lockstep`]). Record `k` is bit-identical to
/// `run_workload_with(machines[k], …)` with no observer.
///
/// # Panics
///
/// Panics if the machines' front keys differ.
pub fn run_workload_lockstep(
    machines: &[&MachineConfig],
    profile: &WorkloadProfile,
    warmup: u64,
    uops: u64,
    seed: u64,
    scratches: &mut Vec<SimScratch>,
) -> Vec<RunRecord> {
    let Some(first) = machines.first() else {
        return Vec::new();
    };
    let trace = TraceGenerator::new(profile, first.cracking, seed);
    simulate_lockstep(machines, trace, warmup, uops, scratches)
        .into_iter()
        .zip(machines)
        .map(|(result, machine)| {
            RunRecord::new(
                profile.name.clone(),
                profile.suite,
                machine.id,
                result.counters,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu::{Event, Suite};

    #[test]
    fn record_carries_identity() {
        let m = MachineConfig::pentium4();
        let p = WorkloadProfile::builder("idcheck", Suite::Cpu2006).build();
        let r = run_workload(&m, &p, 5_000, 7);
        assert_eq!(r.benchmark(), "idcheck");
        assert_eq!(r.suite(), Suite::Cpu2006);
        assert_eq!(r.machine(), m.id);
        assert_eq!(r.counters().get(Event::UopsRetired), 5_000);
    }

    #[test]
    fn explicit_full_warmup_matches_default() {
        let m = MachineConfig::core2();
        let p = WorkloadProfile::builder("warmcheck", Suite::Cpu2000).build();
        let implicit = run_workload(&m, &p, 20_000, 9);
        let explicit = run_workload_warmed(&m, &p, 20_000, 20_000, 9);
        assert_eq!(implicit, explicit);
        // A shorter warm-up measures a different (colder) region.
        let colder = run_workload_warmed(&m, &p, 2_000, 20_000, 9);
        assert_ne!(implicit, colder);
    }

    #[test]
    fn rates_stabilise_with_length() {
        // CPI at 400k µops should be close to CPI at 800k µops: the
        // synthetic workloads are stationary enough for counter-rate use.
        let m = MachineConfig::core2();
        let p = WorkloadProfile::builder("stability", Suite::Cpu2000).build();
        let short = run_workload(&m, &p, 400_000, 3).cpi();
        let long = run_workload(&m, &p, 800_000, 3).cpi();
        assert!(
            (short - long).abs() / long < 0.12,
            "short {short} vs long {long}"
        );
    }
}
