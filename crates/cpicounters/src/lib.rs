//! Ground-truth CPI stacks from inside the simulator — the reproduction of
//! the hardware performance-counter architecture of Eyerman, Eeckhout,
//! Karkhanis and Smith (ASPLOS 2006) that the paper uses to validate its
//! model's CPI components (Fig. 5).
//!
//! The ASPLOS'06 proposal attributes every dispatch slot lost at the front
//! of the window to the miss event responsible: I-cache and I-TLB misses
//! stall fetch; branch mispredictions flush and refill the front-end;
//! long-latency loads block the ROB head; dependence chains fill the ROB
//! without any miss event (resource stalls). Our simulator computes each
//! µop's dispatch constraints explicitly, so the same attribution falls out
//! of the [`DispatchObserver`] callbacks: every cycle by which dispatch
//! slips past its ideal slot is charged to the binding constraint.
//!
//! The result is a [`TrueCpiStack`] — "true" in the sense of being measured
//! *inside* the machine, with none of the model's approximations. Fig. 5
//! compares the model's inferred components against these.
//!
//! # Examples
//!
//! ```
//! use cpicounters::measure_stack;
//! use oosim::machine::MachineConfig;
//! use pmu::Suite;
//! use specgen::WorkloadProfile;
//!
//! let machine = MachineConfig::core2();
//! let profile = WorkloadProfile::builder("demo", Suite::Cpu2000).build();
//! let (record, stack) = measure_stack(&machine, &profile, 20_000, 42);
//! // The stack's components sum to the measured CPI.
//! assert!((stack.total() - record.cpi()).abs() < 1e-9);
//! ```

use oosim::machine::MachineConfig;
use oosim::observer::{DispatchObserver, StallCause};
use oosim::run::run_workload_observed;
use pmu::RunRecord;
use specgen::WorkloadProfile;
use std::fmt;

/// Accumulating observer: sums lost dispatch cycles per cause.
///
/// Attach to a simulation via
/// [`run_workload_observed`], then
/// convert to a [`TrueCpiStack`] with [`StackCounters::stack`].
#[derive(Debug, Clone, Default)]
pub struct StackCounters {
    lost: [u64; StallCause::ALL.len()],
    cycles: u64,
    uops: u64,
    width: u32,
    finished: bool,
}

impl StackCounters {
    /// Creates an empty counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lost cycles charged to `cause` so far.
    pub fn lost(&self, cause: StallCause) -> u64 {
        let idx = StallCause::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("cause in ALL");
        self.lost[idx]
    }

    /// Converts the accumulated counts into a per-µop CPI stack.
    ///
    /// # Panics
    ///
    /// Panics if called before the simulation finished (no
    /// [`DispatchObserver::on_finish`] yet) or if no µops ran.
    pub fn stack(&self) -> TrueCpiStack {
        assert!(self.finished, "simulation has not finished");
        assert!(self.uops > 0, "no µops were simulated");
        let n = self.uops as f64;
        let per = |cause: StallCause| self.lost(cause) as f64 / n;
        let base = 1.0 / self.width as f64;
        let attributed: u64 = self.lost.iter().sum();
        let ideal = self.uops as f64 / self.width as f64;
        let other = (self.cycles as f64 - ideal - attributed as f64) / n;
        TrueCpiStack {
            base,
            l1i: per(StallCause::L1InstrMiss),
            llc_i: per(StallCause::LlcInstrMiss),
            itlb: per(StallCause::ItlbMiss),
            branch: per(StallCause::BranchMispredict),
            llc_d: per(StallCause::LlcDataMiss),
            dtlb: per(StallCause::DtlbMiss),
            resource: per(StallCause::ResourceStall),
            other,
        }
    }
}

impl DispatchObserver for StackCounters {
    fn on_stall(&mut self, gap: u64, cause: StallCause) {
        let idx = StallCause::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("cause in ALL");
        self.lost[idx] = self.lost[idx].saturating_add(gap);
    }

    fn on_finish(&mut self, cycles: u64, uops: u64, width: u32) {
        self.cycles = cycles;
        self.uops = uops;
        self.width = width;
        self.finished = true;
    }
}

/// A measured (ground-truth) CPI stack: cycles per µop attributed to each
/// cause. Component names follow the paper's Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueCpiStack {
    /// Base component: `1/D` (the useful-work floor).
    pub base: f64,
    /// L1 I-cache miss component.
    pub l1i: f64,
    /// Last-level I-side miss component (instruction fetches from DRAM).
    pub llc_i: f64,
    /// I-TLB miss component.
    pub itlb: f64,
    /// Branch misprediction component (resolution + front-end refill).
    pub branch: f64,
    /// Long-latency (DRAM) load component.
    pub llc_d: f64,
    /// D-TLB miss component.
    pub dtlb: f64,
    /// Resource stall component (ROB full behind dependence chains and
    /// on-chip-latency instructions).
    pub resource: f64,
    /// Residual cycles the attribution could not bind: partially-used
    /// dispatch cycles around stalls, drain tails, and bandwidth
    /// second-order effects. Small relative to the total for healthy runs.
    pub other: f64,
}

impl TrueCpiStack {
    /// Sum of all components — equals the measured CPI exactly (the
    /// residual `other` component closes the accounting identity).
    pub fn total(&self) -> f64 {
        self.base
            + self.l1i
            + self.llc_i
            + self.itlb
            + self.branch
            + self.llc_d
            + self.dtlb
            + self.resource
            + self.other
    }

    /// Components as `(name, value)` pairs in reporting order.
    pub fn components(&self) -> [(&'static str, f64); 9] {
        [
            ("base", self.base),
            ("l1i_miss", self.l1i),
            ("llc_i_miss", self.llc_i),
            ("itlb_miss", self.itlb),
            ("branch_mispredict", self.branch),
            ("llc_d_miss", self.llc_d),
            ("dtlb_miss", self.dtlb),
            ("resource_stall", self.resource),
            ("other", self.other),
        ]
    }
}

impl fmt::Display for TrueCpiStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CPI {:.3} =", self.total())?;
        for (name, value) in self.components() {
            if value > 0.0005 {
                write!(f, " {name}:{value:.3}")?;
            }
        }
        Ok(())
    }
}

/// Runs `profile` on `machine` with stack accounting attached; returns both
/// the ordinary counter record and the ground-truth stack.
pub fn measure_stack(
    machine: &MachineConfig,
    profile: &WorkloadProfile,
    uops: u64,
    seed: u64,
) -> (RunRecord, TrueCpiStack) {
    let mut counters = StackCounters::new();
    let record = run_workload_observed(machine, profile, uops, seed, &mut counters);
    let stack = counters.stack();
    (record, stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu::Suite;
    use specgen::{AccessPattern, MemRegion};

    fn stack_for(profile: &WorkloadProfile, machine: &MachineConfig) -> (RunRecord, TrueCpiStack) {
        measure_stack(machine, profile, 60_000, 0xF00D)
    }

    #[test]
    fn components_sum_to_cpi() {
        let p = WorkloadProfile::builder("sum", Suite::Cpu2000).build();
        let (record, stack) = stack_for(&p, &MachineConfig::core2());
        assert!(
            (stack.total() - record.cpi()).abs() < 1e-9,
            "stack {} vs cpi {}",
            stack.total(),
            record.cpi()
        );
    }

    #[test]
    fn all_components_nonnegative() {
        let p = WorkloadProfile::builder("nn", Suite::Cpu2006)
            .fp(0.3)
            .build();
        for m in MachineConfig::paper_machines() {
            let (_, stack) = stack_for(&p, &m);
            for (name, v) in stack.components() {
                assert!(v >= 0.0, "{name} = {v}");
            }
        }
    }

    #[test]
    fn memory_bound_workload_shows_llc_component() {
        // Keep branches rare and predictable: a mispredicted branch whose
        // producers are chased loads resolves after the whole miss, and the
        // front-end stall would (correctly!) be charged to the branch.
        let p = WorkloadProfile::builder("membound", Suite::Cpu2000)
            .branches(0.03)
            .branch_behaviour(0.005, 0.9, 0.05)
            .regions(vec![MemRegion::kib(
                65536,
                1.0,
                AccessPattern::PointerChase,
            )])
            .build();
        let (_, stack) = stack_for(&p, &MachineConfig::core2());
        assert!(
            stack.llc_d > stack.total() * 0.35,
            "LLC-D should dominate a pointer chaser: {stack}"
        );
    }

    #[test]
    fn branchy_workload_shows_branch_component() {
        let p = WorkloadProfile::builder("branchy", Suite::Cpu2000)
            .branches(0.20)
            .branch_behaviour(0.5, 0.5, 0.1)
            .regions(vec![MemRegion::kib(
                8,
                1.0,
                AccessPattern::Sequential { stride: 8 },
            )])
            .build();
        let (_, stack) = stack_for(&p, &MachineConfig::pentium4());
        assert!(
            stack.branch > stack.total() * 0.25,
            "branch component should be large: {stack}"
        );
        assert!(stack.llc_d < stack.total() * 0.05);
    }

    #[test]
    fn fp_chains_show_resource_stalls() {
        let p = WorkloadProfile::builder("chains", Suite::Cpu2000)
            .fp(0.45)
            .ilp(2.0, 0.9)
            .branches(0.04)
            .branch_behaviour(0.01, 0.9, 0.1)
            .regions(vec![MemRegion::kib(
                8,
                1.0,
                AccessPattern::Sequential { stride: 8 },
            )])
            .build();
        let (_, stack) = stack_for(&p, &MachineConfig::core2());
        assert!(
            stack.resource > stack.total() * 0.3,
            "dependence chains should stall resources: {stack}"
        );
    }

    #[test]
    fn cached_workload_is_mostly_base() {
        let p = WorkloadProfile::builder("cached", Suite::Cpu2000)
            .branches(0.08)
            .branch_behaviour(0.005, 0.9, 0.1)
            .ilp(12.0, 0.1)
            .regions(vec![MemRegion::kib(
                8,
                1.0,
                AccessPattern::Sequential { stride: 8 },
            )])
            .code(8, 0.99, 0.9)
            .build();
        let (record, stack) = stack_for(&p, &MachineConfig::core_i7());
        assert!(
            record.cpi() < 0.9,
            "cached workload should be fast: {}",
            record.cpi()
        );
        assert!(stack.base / stack.total() > 0.25, "{stack}");
    }

    #[test]
    fn other_component_is_small() {
        let p = WorkloadProfile::builder("other", Suite::Cpu2000).build();
        let (_, stack) = stack_for(&p, &MachineConfig::core2());
        assert!(
            stack.other < stack.total() * 0.35,
            "unattributed cycles should not dominate: {stack}"
        );
    }

    #[test]
    #[should_panic(expected = "has not finished")]
    fn stack_before_finish_panics() {
        let c = StackCounters::new();
        let _ = c.stack();
    }

    #[test]
    fn display_prints_components() {
        let p = WorkloadProfile::builder("disp", Suite::Cpu2000).build();
        let (_, stack) = stack_for(&p, &MachineConfig::core2());
        let text = stack.to_string();
        assert!(text.starts_with("CPI "));
        assert!(text.contains("base"));
    }

    #[test]
    fn deeper_pipeline_grows_branch_component() {
        let p = WorkloadProfile::builder("depth", Suite::Cpu2000)
            .branches(0.18)
            .branch_behaviour(0.4, 0.5, 0.1)
            .regions(vec![MemRegion::kib(
                8,
                1.0,
                AccessPattern::Sequential { stride: 8 },
            )])
            .build();
        let shallow = MachineConfig::core2();
        let deep = MachineConfig::builder(shallow.clone())
            .frontend_depth(40)
            .build();
        let (_, s1) = stack_for(&p, &shallow);
        let (_, s2) = stack_for(&p, &deep);
        assert!(
            s2.branch > s1.branch * 1.5,
            "{} vs {}",
            s2.branch,
            s1.branch
        );
    }
}
