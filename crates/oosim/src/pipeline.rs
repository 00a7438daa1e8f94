//! The out-of-order superscalar pipeline model.
//!
//! This is a *timestamp-based* out-of-order model in the tradition of
//! interval simulation: instead of simulating every structure cycle by
//! cycle, each µop's dispatch, issue, completion and commit times are
//! computed from its constraints —
//!
//! * **front-end**: I-cache / I-TLB misses and branch-misprediction
//!   redirects delay availability,
//! * **dispatch bandwidth**: at most `D` µops enter the ROB per cycle,
//! * **ROB occupancy**: a µop cannot dispatch until the µop `R` slots ahead
//!   of it has committed (dispatch stalls on a full reorder buffer — the
//!   paper's resource-stall mechanism),
//! * **data flow**: a µop issues once its producers complete,
//! * **functional units**: divide units are unpipelined, FP shares a
//!   pipelined port, loads contend for load ports,
//! * **memory**: loads walk the hierarchy; DRAM accesses contend for a
//!   finite MSHR pool and DRAM bandwidth, so memory-level parallelism is an
//!   emergent, bounded quantity — exactly the property the paper's MLP
//!   correction factor (Eq. 3) exists to capture,
//! * **commit**: in order, `D` per cycle.
//!
//! The model deliberately produces the second-order behaviours that the
//! mechanistic-empirical model must *infer* through regression: variable
//! branch resolution times, workload-dependent MLP, and dependence-chain
//! resource stalls. Nothing in the simulator knows about Eq. 1–6.
//!
//! # Two stages: placement, then timing
//!
//! A run is split into two stages:
//!
//! * the **front end** (`FrontEnd`) drives the cache/TLB hierarchy and
//!   the branch predictor in program order and reports where each µop was
//!   served: the fetch outcome on an I-line change, the load/store
//!   [`DataOutcome`], and a mispredict bit;
//! * the **timing back-end** (`Backend`) turns µops and their placement
//!   into dispatch, issue, completion and commit times: dispatch width,
//!   ROB, data flow, functional units, MSHRs, DRAM bandwidth and row
//!   buffer, commit, the counters and the [`DispatchObserver`].
//!
//! The split is exact because placement never looks at time: LRU runs on
//! an access-count tick and the predictor updates in program order. So
//! machines that agree on every placement field — their
//! [`MachineConfig::front_key`] — see the same placements for the same
//! trace, and [`simulate_lockstep`] has one front end place each µop and
//! replays the placement on every machine's back-end: each trace is
//! generated and placed once, with no trace store. A single machine runs
//! the two stages fused per µop ([`simulate_warmed_with`]): the back-end
//! asks the live front end at the point of use, so the µop kind is
//! dispatched on once.

use crate::branch::Gshare;
use crate::machine::{Latencies, MachineConfig};
use crate::memory::{DataOutcome, FetchOutcome, Hierarchy, HitLevel};
use crate::observer::{DispatchObserver, NullObserver, StallCause};
use pmu::{CounterSet, Event};
use specgen::{MicroOp, UopKind};

/// Why a committed µop might block the ROB head (stored per ROB slot for
/// stall attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommitClass {
    /// Completed promptly; a stall behind it is a plain resource stall.
    Short,
    /// Long-latency computation or on-chip cache miss.
    LongLatency,
    /// Load that took a D-TLB page walk.
    DtlbLoad,
    /// Load serviced by DRAM.
    LlcLoad,
}

/// Result of simulating a workload on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The collected performance counters (includes `Event::Cycles`).
    pub counters: CounterSet,
    /// Total cycles (same as `counters.get(Event::Cycles)`, for convenience).
    pub cycles: u64,
}

impl SimResult {
    /// Measured cycles per µop.
    pub fn cpi(&self) -> f64 {
        self.counters.cpi()
    }
}

/// Maximum dependence distance the generator may emit.
const DEP_WINDOW: usize = 512;

/// Reusable per-simulation working memory: the completion/commit rings and
/// the functional-unit/MSHR availability arrays that [`simulate_warmed`]
/// would otherwise `vec!` afresh on every call.
///
/// A campaign runs hundreds of simulations back to back (103 benchmarks ×
/// 3 machines per paper run); hoisting this state into one scratch that
/// each worker thread reuses across its whole chunk removes every per-call
/// allocation from the hot path and keeps the rings cache-resident.
/// Purely an allocation cache: `SimScratch::prepare` resets every entry,
/// so results are bit-identical whether the scratch is fresh or reused —
/// across different machines too.
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
/// use oosim::observer::NullObserver;
/// use oosim::pipeline::{simulate, simulate_warmed_with, SimScratch};
/// use pmu::Suite;
/// use specgen::{TraceGenerator, WorkloadProfile};
///
/// let machine = MachineConfig::core2();
/// let profile = WorkloadProfile::builder("demo", Suite::Cpu2000).build();
/// let mut scratch = SimScratch::new();
/// let trace = || TraceGenerator::new(&profile, machine.cracking, 1);
/// let a = simulate_warmed_with(&machine, trace(), 0, 10_000, &mut NullObserver, &mut scratch);
/// let b = simulate(&machine, trace(), 10_000, &mut NullObserver);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Completion times of the last `rob` µops (data-flow lookups).
    done_ring: Vec<u64>,
    /// Commit time per ROB slot.
    commit_ring: Vec<u64>,
    /// Commit class per ROB slot (stall attribution).
    class_ring: Vec<CommitClass>,
    /// Earliest-free time per miss-status holding register.
    mshr: Vec<u64>,
    /// Earliest-free time per load port.
    load_ports: Vec<u64>,
}

impl SimScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes and zeroes every buffer for one run on `machine`.
    fn prepare(&mut self, machine: &MachineConfig) {
        let reset = |v: &mut Vec<u64>, len: usize| {
            v.clear();
            v.resize(len, 0);
        };
        // Power-of-two sized (≥ rob) so the per-dependence index is a
        // mask, never an integer division — the hot loop reads it up to
        // twice per µop.
        reset(&mut self.done_ring, machine.rob_size.next_power_of_two());
        reset(&mut self.commit_ring, machine.rob_size);
        reset(&mut self.mshr, machine.mshrs);
        reset(&mut self.load_ports, machine.fu.load_ports);
        self.class_ring.clear();
        self.class_ring.resize(machine.rob_size, CommitClass::Short);
    }
}

/// Where the front end placed one µop.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// The I-side access, present when the µop starts a new fetch line.
    fetch: Option<FetchOutcome>,
    /// The D-side access of a load, or of a store that carries an address.
    data: Option<DataOutcome>,
    /// A branch whose direction the predictor got wrong.
    mispredict: bool,
}

/// The placement outcomes of a µop, as the timing back-end asks for them:
/// the fetch for every µop, the data access only for loads and stores,
/// the prediction only for branches.
///
/// The live front end answers by driving its hierarchy and predictor at
/// that moment (the fused single-machine path); a recorded [`Placement`]
/// replays what the front end answered once for every machine (the
/// lockstep path). Both see the same calls in the same order.
trait Place {
    fn fetch(&mut self, op: &MicroOp) -> Option<FetchOutcome>;
    fn data(&mut self, op: &MicroOp) -> Option<DataOutcome>;
    fn mispredict(&mut self, op: &MicroOp) -> bool;
}

impl Place for Placement {
    #[inline(always)]
    fn fetch(&mut self, _op: &MicroOp) -> Option<FetchOutcome> {
        self.fetch
    }

    #[inline(always)]
    fn data(&mut self, _op: &MicroOp) -> Option<DataOutcome> {
        self.data
    }

    #[inline(always)]
    fn mispredict(&mut self, _op: &MicroOp) -> bool {
        self.mispredict
    }
}

/// The placement stage: the cache/TLB hierarchy and branch predictor of
/// one front key, driven in program order.
struct FrontEnd {
    hierarchy: Hierarchy,
    predictor: Gshare,
    /// The I-line of the previous µop (a fetch happens on a change).
    last_line: u64,
}

impl FrontEnd {
    #[inline(always)]
    fn new(machine: &MachineConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(machine),
            predictor: Gshare::new(
                machine.predictor.log2_entries,
                machine.predictor.history_bits,
            ),
            last_line: u64::MAX,
        }
    }

    /// Places one µop ahead of timing, asking exactly what
    /// [`Backend::step`] would ask of the live front end.
    #[inline(always)]
    fn place(&mut self, op: &MicroOp) -> Placement {
        let fetch = self.fetch(op);
        let (data, mispredict) = match op.kind {
            UopKind::Load | UopKind::Store => (self.data(op), false),
            UopKind::Branch => (None, self.mispredict(op)),
            _ => (None, false),
        };
        Placement {
            fetch,
            data,
            mispredict,
        }
    }
}

impl Place for FrontEnd {
    /// The I-side access when `op` starts a new fetch line.
    #[inline(always)]
    fn fetch(&mut self, op: &MicroOp) -> Option<FetchOutcome> {
        let line = op.pc >> 6;
        if line == self.last_line {
            return None;
        }
        self.last_line = line;
        Some(self.hierarchy.fetch(op.pc))
    }

    #[inline(always)]
    fn data(&mut self, op: &MicroOp) -> Option<DataOutcome> {
        if op.kind == UopKind::Load {
            Some(self.hierarchy.load(op.addr.unwrap_or(0)))
        } else {
            op.addr.map(|addr| self.hierarchy.store(addr))
        }
    }

    #[inline(always)]
    fn mispredict(&mut self, op: &MicroOp) -> bool {
        op.branch
            .is_some_and(|info| self.predictor.predict_and_update(op.pc, info.taken) != info.taken)
    }
}

/// The timing stage of one machine: everything that depends on time,
/// over rings borrowed from a [`SimScratch`].
struct Backend<'a> {
    machine: &'a MachineConfig,
    width: u64,
    rob: usize,
    lat: Latencies,
    /// Completion times of the last `rob` µops; see [`Backend::new`] for
    /// why ROB-sized suffices.
    done_ring: &'a mut [u64],
    done_mask: usize,
    /// Commit time and class per ROB slot (indexed `i % rob`): entry `i`
    /// holds µop `i - rob`'s values until overwritten, which is exactly
    /// what the ROB-occupancy constraint needs.
    commit_ring: &'a mut [u64],
    class_ring: &'a mut [CommitClass],
    /// The ROB slot of the next µop, `n % rob`, kept as a wrapping counter:
    /// ROB sizes (96, 112, 126, 192, …) are rarely powers of two, and a
    /// per-µop integer division would otherwise index both rings.
    rob_slot: usize,
    mshr: &'a mut [u64],
    load_ports: &'a mut [u64],
    counters: CounterSet,
    /// Dispatch bandwidth state.
    cur_cycle: u64,
    slots_left: u64,
    /// Front-end availability floor and its cause.
    fe_ready: u64,
    fe_cause: StallCause,
    /// Commit frontier.
    last_commit: u64,
    commit_slots: u64,
    /// Memory subsystem timing state.
    last_dram_start: u64,
    /// DRAM row-buffer state: accesses to the recently-open row are faster,
    /// row conflicts slower. This makes *effective* memory latency a
    /// workload-dependent quantity — one of the paper's §3.3 reasons why
    /// "memory access time is not constant" that the fitted MLP correction
    /// factor must absorb.
    open_row: u64,
    /// Functional-unit availability.
    fp_port_free: u64,
    int_div_free: u64,
    fp_div_free: u64,
    warmup: u64,
    cycle_offset: u64,
    /// µops timed so far, warm-up included.
    n: u64,
}

impl<'a> Backend<'a> {
    /// A cold back-end for `machine` over `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` fails [`MachineConfig::validate`].
    #[inline(always)]
    fn new(machine: &'a MachineConfig, warmup: u64, scratch: &'a mut SimScratch) -> Self {
        if let Err(e) = machine.validate() {
            panic!("invalid machine configuration: {e}");
        }
        let width = machine.dispatch_width as u64;
        scratch.prepare(machine);
        // `done_ring` holds the completion times of the last `rob` µops —
        // it is ROB-sized (rounded up to a power of two so indexing is a
        // mask), not DEP_WINDOW-sized: a producer `d >= rob` slots back can
        // never gate readiness. Proof: the ROB constraint forces `dispatch
        // >= rob_free = commit(i - rob)`; commit times are monotone
        // non-decreasing, so for `d >= rob` the producer's `commit(i - d)
        // <= commit(i - rob)`, and every µop's `exec_done < commit`. Hence
        // `done(i - d) < rob_free <= dispatch < dispatch + 1 <= ready` —
        // reading it was always a no-op, and skipping it is byte-identical
        // while shrinking the ring ~4×.
        let done_mask = scratch.done_ring.len() - 1;
        Self {
            machine,
            width,
            rob: machine.rob_size,
            lat: machine.lat,
            done_ring: &mut scratch.done_ring,
            done_mask,
            commit_ring: &mut scratch.commit_ring,
            class_ring: &mut scratch.class_ring,
            rob_slot: 0,
            mshr: &mut scratch.mshr,
            load_ports: &mut scratch.load_ports,
            counters: CounterSet::new(),
            cur_cycle: 0,
            slots_left: width,
            fe_ready: 0,
            fe_cause: StallCause::L1InstrMiss,
            last_commit: 0,
            commit_slots: width,
            last_dram_start: 0,
            open_row: u64::MAX,
            fp_port_free: 0,
            int_div_free: 0,
            fp_div_free: 0,
            warmup,
            cycle_offset: 0,
            n: 0,
        }
    }

    /// Times one µop, asking `place` where it was served.
    #[inline(always)]
    fn step(&mut self, op: &MicroOp, place: &mut impl Place, observer: &mut dyn DispatchObserver) {
        let machine = self.machine;
        let lat = self.lat;
        let width = self.width;
        let rob = self.rob;
        let counters = &mut self.counters;
        if self.n == self.warmup && self.warmup > 0 {
            // Warm-up ends: forget everything counted so far, but keep all
            // microarchitectural state (caches, TLBs, predictor, timing).
            counters.reset();
            self.cycle_offset = self.last_commit;
        }
        let measuring = self.n >= self.warmup;
        let i = self.n as usize;
        let slot = self.rob_slot;
        debug_assert_eq!(slot, i % rob);

        // --- Front end: I-cache / I-TLB penalty on a line change. ----------
        if let Some(fetch) = place.fetch(op) {
            let mut penalty = 0u64;
            if fetch.tlb_miss {
                counters.inc(Event::ItlbMisses);
                penalty += lat.tlb;
            }
            match fetch.level {
                HitLevel::L1 => {}
                HitLevel::L2 => {
                    counters.inc(Event::L1InstrMisses);
                    penalty += lat.l2;
                }
                HitLevel::L3 => {
                    counters.inc(Event::L1InstrMisses);
                    penalty += lat.l3;
                }
                HitLevel::Memory => {
                    counters.inc(Event::L1InstrMisses);
                    counters.inc(Event::LlcInstrMisses);
                    penalty += lat.mem;
                }
            }
            if penalty > 0 {
                self.fe_ready = self.fe_ready.max(self.cur_cycle) + penalty;
                self.fe_cause = if fetch.level == HitLevel::Memory {
                    StallCause::LlcInstrMiss
                } else if fetch.level != HitLevel::L1 {
                    StallCause::L1InstrMiss
                } else {
                    StallCause::ItlbMiss
                };
            }
        }

        // --- Dispatch: bandwidth, front-end, ROB occupancy. ----------------
        let rob_free = self.commit_ring[slot];
        let rob_cause = match self.class_ring[slot] {
            CommitClass::LlcLoad => StallCause::LlcDataMiss,
            CommitClass::DtlbLoad => StallCause::DtlbMiss,
            CommitClass::LongLatency | CommitClass::Short => StallCause::ResourceStall,
        };
        let earliest = self.fe_ready.max(rob_free);

        let mut slot_cycle = self.cur_cycle;
        if self.slots_left == 0 {
            slot_cycle += 1;
        }
        if earliest > slot_cycle {
            // Only fully-lost cycles are attributed: the partially-used
            // current cycle is already charged to the base component.
            let gap = earliest.saturating_sub(self.cur_cycle + 1);
            if gap > 0 && measuring {
                let cause = if self.fe_ready >= rob_free {
                    self.fe_cause
                } else {
                    rob_cause
                };
                observer.on_stall(gap, cause);
            }
            slot_cycle = earliest;
        }
        if slot_cycle != self.cur_cycle {
            self.cur_cycle = slot_cycle;
            self.slots_left = width;
        }
        self.slots_left -= 1;
        let dispatch = self.cur_cycle;

        // --- Data-flow readiness. ------------------------------------------
        let mut ready = dispatch + 1;
        for dep in [op.dep1, op.dep2].into_iter().flatten() {
            let d = dep.get() as usize;
            // `d >= rob` producers cannot gate readiness (see the ring's
            // sizing proof in `Backend::new`); `DEP_WINDOW` caps
            // manually-built ops.
            if d <= i && d < rob && d <= DEP_WINDOW {
                ready = ready.max(self.done_ring[(i - d) & self.done_mask]);
            }
        }

        // --- Issue + execute. ----------------------------------------------
        let mut class = CommitClass::Short;
        let exec_done = match op.kind {
            UopKind::IntAlu => ready + 1,
            UopKind::IntMul => ready + machine.fu.int_mul,
            UopKind::IntDiv => {
                let issue = ready.max(self.int_div_free);
                self.int_div_free = issue + machine.fu.int_div;
                class = CommitClass::LongLatency;
                self.int_div_free
            }
            UopKind::FpAdd | UopKind::FpMul => {
                counters.inc(Event::FpOps);
                let issue = ready.max(self.fp_port_free);
                self.fp_port_free = issue + 1;
                let l = if op.kind == UopKind::FpAdd {
                    machine.fu.fp_add
                } else {
                    machine.fu.fp_mul
                };
                if l > 3 {
                    class = CommitClass::LongLatency;
                }
                issue + l
            }
            UopKind::FpDiv => {
                counters.inc(Event::FpOps);
                let issue = ready.max(self.fp_div_free);
                self.fp_div_free = issue + machine.fu.fp_div;
                class = CommitClass::LongLatency;
                self.fp_div_free
            }
            UopKind::Store => {
                counters.inc(Event::Stores);
                if place.data(op).is_some_and(|outcome| outcome.tlb_miss) {
                    counters.inc(Event::DtlbMisses);
                }
                ready + 1
            }
            UopKind::Load => {
                counters.inc(Event::Loads);
                let port = self
                    .load_ports
                    .iter_mut()
                    .min_by_key(|t| **t)
                    .expect("at least one load port");
                let issue = ready.max(*port);
                *port = issue + 1;
                let outcome = place.data(op).expect("the front end places every load");
                if outcome.tlb_miss {
                    counters.inc(Event::DtlbMisses);
                }
                match outcome.level {
                    HitLevel::L1 => {
                        let mut done = issue + lat.l1d;
                        if outcome.tlb_miss {
                            done += lat.tlb;
                            class = CommitClass::DtlbLoad;
                        }
                        done
                    }
                    HitLevel::L2 => {
                        counters.inc(Event::L1DataMisses);
                        class = if outcome.tlb_miss {
                            CommitClass::DtlbLoad
                        } else {
                            CommitClass::LongLatency
                        };
                        issue + lat.l2 + if outcome.tlb_miss { lat.tlb } else { 0 }
                    }
                    HitLevel::L3 => {
                        counters.inc(Event::L2DataMisses);
                        class = if outcome.tlb_miss {
                            CommitClass::DtlbLoad
                        } else {
                            CommitClass::LongLatency
                        };
                        issue + lat.l3 + if outcome.tlb_miss { lat.tlb } else { 0 }
                    }
                    HitLevel::Memory => {
                        counters.inc(Event::L2DataMisses);
                        counters.inc(Event::LlcDataMisses);
                        class = CommitClass::LlcLoad;
                        // Page walk precedes the DRAM request.
                        let request = issue + if outcome.tlb_miss { lat.tlb } else { 0 };
                        // MSHR: wait for a free miss register.
                        let slot = self
                            .mshr
                            .iter_mut()
                            .min_by_key(|t| **t)
                            .expect("at least one MSHR");
                        // DRAM bandwidth: bursts cannot start back-to-back.
                        let start = request
                            .max(*slot)
                            .max(self.last_dram_start + machine.dram_gap);
                        self.last_dram_start = start;
                        // Row-buffer locality: hits shave latency, conflicts
                        // add a precharge+activate penalty.
                        let row = op.addr.unwrap_or(0) >> 14; // 16 KiB DRAM row
                        let effective = if row == self.open_row {
                            lat.mem - lat.mem / 4
                        } else {
                            lat.mem + lat.mem / 8
                        };
                        self.open_row = row;
                        let complete = start + effective;
                        *slot = complete;
                        complete
                    }
                }
            }
            UopKind::Branch => {
                counters.inc(Event::Branches);
                let done = ready + 1;
                if place.mispredict(op) {
                    counters.inc(Event::BranchMispredicts);
                    // Redirect: fetch restarts after resolution plus the
                    // front-end refill depth.
                    self.fe_ready = self.fe_ready.max(done + machine.frontend_depth as u64);
                    self.fe_cause = StallCause::BranchMispredict;
                }
                done
            }
        };

        // --- Commit: in order, `width` per cycle. --------------------------
        let mut commit = exec_done + 1;
        if commit < self.last_commit {
            commit = self.last_commit;
        }
        if commit == self.last_commit {
            if self.commit_slots == 0 {
                commit += 1;
                self.commit_slots = width - 1;
            } else {
                self.commit_slots -= 1;
            }
        } else {
            self.commit_slots = width - 1;
        }
        self.last_commit = commit;

        self.done_ring[i & self.done_mask] = exec_done;
        self.commit_ring[slot] = commit;
        self.class_ring[slot] = class;
        self.rob_slot = if slot + 1 == rob { 0 } else { slot + 1 };

        counters.inc(Event::UopsRetired);
        if op.macro_first {
            counters.inc(Event::InstrRetired);
        }
        self.n += 1;
    }

    /// Closes the run: cycles over the measured region.
    #[inline(always)]
    fn finish(mut self, observer: &mut dyn DispatchObserver) -> SimResult {
        let cycles = self.last_commit.saturating_sub(self.cycle_offset);
        self.counters.set(Event::Cycles, cycles);
        observer.on_finish(
            cycles,
            self.n.saturating_sub(self.warmup.min(self.n)),
            self.machine.dispatch_width,
        );
        SimResult {
            cycles,
            counters: self.counters,
        }
    }
}

/// Simulates `uops` micro-operations of `trace` on `machine`, reporting
/// dispatch stalls to `observer`. Equivalent to [`simulate_warmed`] with no
/// warm-up: counters include all compulsory (cold) misses.
///
/// The trace is consumed lazily; if it ends early the simulation stops at
/// the trace's end. All state (caches, TLBs, predictor) starts cold.
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
/// use oosim::observer::NullObserver;
/// use oosim::pipeline::simulate;
/// use pmu::Suite;
/// use specgen::{TraceGenerator, WorkloadProfile};
///
/// let machine = MachineConfig::core2();
/// let profile = WorkloadProfile::builder("demo", Suite::Cpu2000).build();
/// let trace = TraceGenerator::new(&profile, machine.cracking, 1);
/// let result = simulate(&machine, trace, 20_000, &mut NullObserver);
/// assert!(result.cpi() > 0.25); // cannot beat the dispatch width
/// ```
///
/// # Panics
///
/// Panics if `machine` fails [`MachineConfig::validate`].
pub fn simulate<T>(
    machine: &MachineConfig,
    trace: T,
    uops: u64,
    observer: &mut dyn DispatchObserver,
) -> SimResult
where
    T: IntoIterator<Item = MicroOp>,
{
    simulate_warmed(machine, trace, 0, uops, observer)
}

/// Simulates `warmup + uops` micro-operations, but counts events and cycles
/// only over the final `uops` — the standard cache/predictor warm-up
/// discipline.
///
/// Real SPEC runs execute for hundreds of billions of instructions, so
/// compulsory misses are invisible in their counter rates; a short
/// simulation without warm-up would instead be dominated by them. The
/// observer is likewise only notified of post-warm-up stalls.
///
/// # Panics
///
/// Panics if `machine` fails [`MachineConfig::validate`].
pub fn simulate_warmed<T>(
    machine: &MachineConfig,
    trace: T,
    warmup: u64,
    uops: u64,
    observer: &mut dyn DispatchObserver,
) -> SimResult
where
    T: IntoIterator<Item = MicroOp>,
{
    simulate_warmed_with(
        machine,
        trace,
        warmup,
        uops,
        observer,
        &mut SimScratch::new(),
    )
}

/// [`simulate_warmed`] with caller-owned working memory: campaigns reuse
/// one [`SimScratch`] across hundreds of runs instead of reallocating the
/// rings per call. Bit-identical to the allocating entry points.
///
/// Runs the placement and timing stages fused, one µop at a time.
///
/// # Panics
///
/// Panics if `machine` fails [`MachineConfig::validate`].
pub fn simulate_warmed_with<T>(
    machine: &MachineConfig,
    trace: T,
    warmup: u64,
    uops: u64,
    observer: &mut dyn DispatchObserver,
    scratch: &mut SimScratch,
) -> SimResult
where
    T: IntoIterator<Item = MicroOp>,
{
    let mut back = Backend::new(machine, warmup, scratch);
    let mut front = FrontEnd::new(machine);
    let total = usize::try_from(warmup.saturating_add(uops)).unwrap_or(usize::MAX);
    for op in trace.into_iter().take(total) {
        back.step(&op, &mut front, observer);
    }
    back.finish(observer)
}

/// Simulates one trace on several machines that share a front end:
/// the trace is generated and placed once, and every machine's timing
/// back-end times each placed µop in lockstep. Memory is one front end
/// plus one small timing state per machine. Result `k` is bit-identical
/// to [`simulate_warmed_with`] of
/// `machines[k]` on the same trace (with no observer); one machine takes
/// that fused path directly.
///
/// `scratches` grows to one [`SimScratch`] per machine and can be reused
/// across calls.
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
/// use oosim::observer::NullObserver;
/// use oosim::pipeline::{simulate_lockstep, simulate_warmed};
/// use pmu::Suite;
/// use specgen::{TraceGenerator, WorkloadProfile};
///
/// let base = MachineConfig::core2();
/// let big = MachineConfig::builder(base.clone()).rob_size(192).mshrs(32).build();
/// assert_eq!(base.front_key(), big.front_key());
/// let profile = WorkloadProfile::builder("demo", Suite::Cpu2000).build();
/// let trace = || TraceGenerator::new(&profile, base.cracking, 1);
/// let both = simulate_lockstep(&[&base, &big], trace(), 2_000, 10_000, &mut Vec::new());
/// assert_eq!(both[1], simulate_warmed(&big, trace(), 2_000, 10_000, &mut NullObserver));
/// ```
///
/// # Panics
///
/// Panics if the machines do not all share `machines[0]`'s
/// [`MachineConfig::front_key`], or if any fails
/// [`MachineConfig::validate`].
pub fn simulate_lockstep<T>(
    machines: &[&MachineConfig],
    trace: T,
    warmup: u64,
    uops: u64,
    scratches: &mut Vec<SimScratch>,
) -> Vec<SimResult>
where
    T: IntoIterator<Item = MicroOp>,
{
    let Some(first) = machines.first() else {
        return Vec::new();
    };
    let key = first.front_key();
    assert!(
        machines.iter().all(|m| m.front_key() == key),
        "lockstep machines must share one front end (MachineConfig::front_key)"
    );
    if scratches.len() < machines.len() {
        scratches.resize_with(machines.len(), SimScratch::new);
    }
    if let [machine] = machines {
        let result = simulate_warmed_with(
            machine,
            trace,
            warmup,
            uops,
            &mut NullObserver,
            &mut scratches[0],
        );
        return vec![result];
    }
    let mut backs: Vec<Backend> = machines
        .iter()
        .zip(scratches.iter_mut())
        .map(|(machine, scratch)| Backend::new(machine, warmup, scratch))
        .collect();
    let mut front = FrontEnd::new(first);
    let total = usize::try_from(warmup.saturating_add(uops)).unwrap_or(usize::MAX);
    // µop-major: each placed µop is timed on every back-end before the
    // next is generated, so the K independent timing chains overlap in
    // the core instead of each running alone over a buffered chunk.
    for op in trace.into_iter().take(total) {
        let placement = front.place(&op);
        for back in &mut backs {
            let mut replay = placement;
            back.step(&op, &mut replay, &mut NullObserver);
        }
    }
    backs
        .into_iter()
        .map(|back| back.finish(&mut NullObserver))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use pmu::Suite;
    use specgen::{AccessPattern, MemRegion, TraceGenerator, WorkloadProfile};

    fn run(machine: &MachineConfig, profile: &WorkloadProfile, uops: u64) -> SimResult {
        let trace = TraceGenerator::new(profile, machine.cracking, 0xBEEF);
        simulate(machine, trace, uops, &mut NullObserver)
    }

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile::builder("pipe-test", Suite::Cpu2000).build()
    }

    #[test]
    fn cpi_is_at_least_inverse_width() {
        let m = MachineConfig::core2();
        let r = run(&m, &small_profile(), 50_000);
        assert!(r.cpi() >= 1.0 / m.dispatch_width as f64);
        assert!(r.cpi() < 20.0, "CPI should be sane: {}", r.cpi());
    }

    #[test]
    fn deterministic() {
        let m = MachineConfig::core_i7();
        let a = run(&m, &small_profile(), 20_000);
        let b = run(&m, &small_profile(), 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn counters_are_consistent() {
        let m = MachineConfig::core2();
        let r = run(&m, &small_profile(), 30_000);
        let c = &r.counters;
        assert_eq!(c.get(Event::UopsRetired), 30_000);
        assert!(c.get(Event::InstrRetired) <= c.get(Event::UopsRetired));
        assert!(c.get(Event::BranchMispredicts) <= c.get(Event::Branches));
        assert!(c.get(Event::LlcDataMisses) <= c.get(Event::Loads));
        assert!(c.get(Event::LlcInstrMisses) <= c.get(Event::L1InstrMisses));
        assert_eq!(c.get(Event::Cycles), r.cycles);
    }

    #[test]
    fn pointer_chase_is_slower_than_streaming() {
        // Same footprint, same mix; only the access pattern differs. The
        // chaser serialises DRAM accesses (MLP ≈ 1) and must be much slower.
        let m = MachineConfig::core2();
        let chase = WorkloadProfile::builder("chase", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(
                32 * 1024,
                1.0,
                AccessPattern::PointerChase,
            )])
            .build();
        let stream = WorkloadProfile::builder("stream", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(
                32 * 1024,
                1.0,
                AccessPattern::Sequential { stride: 64 },
            )])
            .build();
        let slow = run(&m, &chase, 40_000);
        let fast = run(&m, &stream, 40_000);
        // Factor 1.6: the exact margin depends on the workload RNG's value
        // stream (the in-tree `rand` shim lands at ~1.8x); the claim under
        // test is the big MLP gap, not the third digit.
        assert!(
            slow.cpi() > fast.cpi() * 1.6,
            "chase {} vs stream {}",
            slow.cpi(),
            fast.cpi()
        );
    }

    #[test]
    fn bigger_cache_removes_misses() {
        // 2 MiB working set: P4's 1 MiB LLC thrashes, Core 2's 4 MiB holds it.
        let profile = WorkloadProfile::builder("ws2m", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(
                2048,
                1.0,
                AccessPattern::Sequential { stride: 64 },
            )])
            .build();
        let p4 = run(&MachineConfig::pentium4(), &profile, 400_000);
        let c2 = run(&MachineConfig::core2(), &profile, 400_000);
        // Compare per-load miss *rates*: the machines crack µops differently,
        // so absolute load counts differ for the same µop budget.
        let rate = |r: &SimResult| {
            r.counters.get(Event::LlcDataMisses) as f64 / r.counters.get(Event::Loads) as f64
        };
        assert!(
            rate(&p4) > rate(&c2) * 2.0,
            "P4 rate {} vs Core 2 rate {}",
            rate(&p4),
            rate(&c2)
        );
    }

    #[test]
    fn deep_pipeline_pays_more_per_mispredict() {
        // Branch-heavy, unpredictable workload; everything else cached.
        let profile = WorkloadProfile::builder("branchy", Suite::Cpu2000)
            .branches(0.20)
            .branch_behaviour(0.5, 0.5, 0.1)
            .regions(vec![MemRegion::kib(
                8,
                1.0,
                AccessPattern::Sequential { stride: 8 },
            )])
            .build();
        let p4 = run(&MachineConfig::pentium4(), &profile, 40_000);
        let c2 = run(&MachineConfig::core2(), &profile, 40_000);
        // Penalty per mispredict ≈ lost cycles / mispredict count; the P4's
        // 31-stage refill must show up.
        let per = |r: &SimResult, m: &MachineConfig| {
            let base = r.counters.get(Event::UopsRetired) as f64 / m.dispatch_width as f64;
            (r.cycles as f64 - base) / r.counters.get(Event::BranchMispredicts) as f64
        };
        let p4_pen = per(&p4, &MachineConfig::pentium4());
        let c2_pen = per(&c2, &MachineConfig::core2());
        assert!(
            p4_pen > c2_pen + 10.0,
            "P4 {p4_pen:.1} vs Core 2 {c2_pen:.1} cycles per mispredict"
        );
    }

    #[test]
    fn mshr_count_bounds_mlp() {
        // Streaming misses: with 1 MSHR, misses serialise.
        let profile = WorkloadProfile::builder("mlp", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(
                64 * 1024,
                1.0,
                AccessPattern::Sequential { stride: 64 },
            )])
            .build();
        let base = MachineConfig::core2();
        let serial = MachineConfig::builder(base.clone()).mshrs(1).build();
        let fast = run(&base, &profile, 30_000);
        let slow = run(&serial, &profile, 30_000);
        assert!(
            slow.cpi() > fast.cpi() * 1.5,
            "serialised {} vs parallel {}",
            slow.cpi(),
            fast.cpi()
        );
    }

    #[test]
    fn big_code_stresses_the_front_end() {
        let small = WorkloadProfile::builder("smallcode", Suite::Cpu2000)
            .code(16, 0.95, 0.5)
            .build();
        let big = WorkloadProfile::builder("bigcode", Suite::Cpu2000)
            .code(1024, 0.5, 0.05)
            .build();
        let m = MachineConfig::core2();
        let a = run(&m, &small, 300_000);
        let b = run(&m, &big, 300_000);
        assert!(
            b.counters.get(Event::L1InstrMisses) > a.counters.get(Event::L1InstrMisses) * 3,
            "big-code {} vs small-code {}",
            b.counters.get(Event::L1InstrMisses),
            a.counters.get(Event::L1InstrMisses)
        );
        assert!(b.cpi() > a.cpi());
    }

    #[test]
    fn scratch_reuse_is_byte_identical_across_machines() {
        // One scratch reused across runs — including a machine switch with
        // different ROB/MSHR/port sizes — must reproduce the fresh-scratch
        // results exactly.
        let profile = small_profile();
        let mut scratch = SimScratch::new();
        for machine in [
            MachineConfig::core2(),
            MachineConfig::pentium4(),
            MachineConfig::core2(),
            MachineConfig::core_i7(),
        ] {
            let trace = || TraceGenerator::new(&profile, machine.cracking, 0xBEEF);
            let reused = simulate_warmed_with(
                &machine,
                trace(),
                5_000,
                20_000,
                &mut NullObserver,
                &mut scratch,
            );
            let fresh = simulate_warmed(&machine, trace(), 5_000, 20_000, &mut NullObserver);
            assert_eq!(reused, fresh, "{:?}", machine.id);
        }
    }

    #[test]
    fn lockstep_matches_solo_runs() {
        let base = MachineConfig::core_i7();
        let variants = [
            MachineConfig::builder(base.clone()).rob_size(64).build(),
            base.clone(),
            MachineConfig::builder(base.clone())
                .mshrs(2)
                .dispatch_width(2)
                .frontend_depth(30)
                .build(),
        ];
        let machines: Vec<&MachineConfig> = variants.iter().collect();
        let profile = small_profile();
        let trace = || TraceGenerator::new(&profile, base.cracking, 3);
        let mut scratches = Vec::new();
        // Odd warm-up and budget lengths.
        let (warmup, uops) = (785, 9_001);
        let results = simulate_lockstep(&machines, trace(), warmup, uops, &mut scratches);
        for (machine, result) in variants.iter().zip(&results) {
            let solo = simulate_warmed(machine, trace(), warmup, uops, &mut NullObserver);
            assert_eq!(
                *result, solo,
                "rob {} mshrs {}",
                machine.rob_size, machine.mshrs
            );
        }
        // One machine takes the fused path; reused scratches change nothing.
        let one = simulate_lockstep(&machines[1..2], trace(), warmup, uops, &mut scratches);
        assert_eq!(one, results[1..2]);
    }

    #[test]
    #[should_panic(expected = "share one front end")]
    fn lockstep_rejects_mixed_front_ends() {
        let base = MachineConfig::core2();
        let no_pf = MachineConfig::builder(base.clone())
            .prefetch_depth(0)
            .build();
        let trace = TraceGenerator::new(&small_profile(), base.cracking, 1);
        simulate_lockstep(&[&base, &no_pf], trace, 0, 100, &mut Vec::new());
    }

    #[test]
    fn trace_shorter_than_budget_is_handled() {
        let m = MachineConfig::core2();
        let profile = small_profile();
        let trace: Vec<MicroOp> = TraceGenerator::new(&profile, m.cracking, 1)
            .take(500)
            .collect();
        let r = simulate(&m, trace, 10_000, &mut NullObserver);
        assert_eq!(r.counters.get(Event::UopsRetired), 500);
    }

    #[test]
    fn observer_receives_stalls() {
        struct Counting {
            stalls: u64,
            cycles: u64,
            finished: bool,
        }
        impl DispatchObserver for Counting {
            fn on_stall(&mut self, gap: u64, _cause: StallCause) {
                self.stalls += gap;
            }
            fn on_finish(&mut self, cycles: u64, _uops: u64, _width: u32) {
                self.cycles = cycles;
                self.finished = true;
            }
        }
        let m = MachineConfig::pentium4();
        let profile = small_profile();
        let mut obs = Counting {
            stalls: 0,
            cycles: 0,
            finished: false,
        };
        let trace = TraceGenerator::new(&profile, m.cracking, 2);
        let r = simulate(&m, trace, 20_000, &mut obs);
        assert!(obs.finished);
        assert_eq!(obs.cycles, r.cycles);
        assert!(obs.stalls > 0, "a real workload stalls somewhere");
        assert!(obs.stalls < r.cycles, "stalls are a subset of cycles");
    }
}
