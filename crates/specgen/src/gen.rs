//! The deterministic micro-operation trace generator.
//!
//! A [`TraceGenerator`] walks a synthetic program whose *static* structure is
//! derived deterministically from the profile: the code footprint is divided
//! into a hot region and a cold remainder; execution proceeds loop by loop
//! (pick a loop start, walk its body for a sampled iteration count, move on).
//! Each static program counter hashes to a fixed macro-instruction template
//! (operation class, branch class, skip distance), so the same PC always
//! carries the same instruction — which is what lets the simulator's branch
//! predictor and instruction cache behave like they do on real code.
//!
//! Machine-dependent CISC cracking is applied at generation time through
//! [`Cracking`]: the same macro-instruction stream expands into more µops on
//! a Netburst-like machine than on a Core-like machine, reproducing the
//! "µop fusion" effect the paper's delta stacks isolate.

use crate::op::{BranchClass, BranchInfo, MicroOp, UopKind};
use crate::profile::{AccessPattern, Cracking, WorkloadProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// Base virtual address of the code segment.
const CODE_BASE: u64 = 0x0040_0000;
/// Base virtual address of the first data region; regions are spaced apart.
const DATA_BASE: u64 = 0x1000_0000;
/// Virtual-address spacing between data regions.
const DATA_SPACING: u64 = 0x1000_0000;
/// Bytes per macro-instruction in the synthetic ISA.
const INSTR_BYTES: u64 = 4;

/// The geometric dep-distance sample the per-µop path historically computed:
/// `clamp(ceil(ln(max(m·2⁻⁵³, 1e-12)) / ln_q), 1, 512)` where `m` is the
/// 53-bit uniform mantissa drawn from the RNG. Kept as the oracle that
/// [`geometric_cutoffs`] tabulates (and that tests validate against).
fn geometric_sample(m: u64, ln_q: f64) -> u32 {
    let u = ((m as f64) * (1.0 / (1u64 << 53) as f64)).max(1e-12);
    let d = (u.ln() / ln_q).ceil();
    (d as u32).clamp(1, 512)
}

/// Mantissa bits that index the dep-distance guide table (1024 buckets).
const GUIDE_BITS: u32 = 10;
/// Shift taking a 53-bit mantissa to its guide bucket.
const GUIDE_SHIFT: u32 = 53 - GUIDE_BITS;

/// The tabulated geometric dep-distance sampler: exact integer cutoffs
/// plus a Chen–Asau guide table over them.
///
/// `geometric_sample(m, ln_q)` is a monotone non-increasing step function of
/// the integer mantissa `m` (ln is monotone for faithful rounding —
/// `u·|ln u| ≤ 1/e` keeps adjacent mantissa steps strictly larger than the
/// rounding error — and division by the negative constant plus `ceil`
/// preserve monotonicity). So the whole f64 pipeline collapses into a table:
/// `cutoffs[i]` is the smallest `m` whose sample is `i + 1`, found by binary
/// search *using the original formula as the oracle*, and the sample at `m`
/// is `cutoffs.partition_point(|&c| c > m) + 1`.
///
/// The guide table spares each call that binary search. The cutoffs fall
/// as the index grows, so the partition point is a non-increasing function
/// of `m`; `guide[b]` holds its value at the *last* mantissa of bucket `b`
/// (the bucket's smallest). Every cutoff below that index is above the
/// whole bucket, so a forward scan from `guide[b]` while `cutoffs[i] > m`
/// lands on exactly the partition point — usually after zero or one steps.
/// The scan always stops inside the table: `cutoffs` ends in `0`.
#[derive(Debug)]
struct DepTable {
    cutoffs: Box<[u64]>,
    guide: Box<[u16]>,
}

impl DepTable {
    /// The dep distance for 53-bit mantissa `m`, bit-identical to
    /// `geometric_sample(m, ln_q)`.
    #[inline]
    fn sample(&self, m: u64) -> u32 {
        let mut i = self.guide[(m >> GUIDE_SHIFT) as usize] as usize;
        while self.cutoffs[i] > m {
            i += 1;
        }
        i as u32 + 1
    }
}

/// The [`DepTable`] for `ln_q`, built once per `ln_q` bit pattern (one per
/// distinct `mean_dep_distance` across all profiles, ever) and shared by
/// every generator.
fn geometric_cutoffs(ln_q: f64) -> Arc<DepTable> {
    type CutoffCache = Mutex<Vec<(u64, Arc<DepTable>)>>;
    static CACHE: OnceLock<CutoffCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let key = ln_q.to_bits();
    let mut guard = cache.lock().expect("cutoff cache lock");
    if let Some((_, table)) = guard.iter().find(|(k, _)| *k == key) {
        return Arc::clone(table);
    }
    let dmax = geometric_sample(0, ln_q);
    let mut cutoffs = Vec::with_capacity(dmax as usize);
    for d in 1..=dmax {
        // Smallest m with sample(m) <= d; the predicate sample(m) > d is
        // true on a (possibly empty) prefix of m-space.
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if geometric_sample(mid, ln_q) > d {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        cutoffs.push(lo);
    }
    assert_eq!(
        cutoffs.last(),
        Some(&0),
        "sample(0) is the largest distance"
    );
    let guide = (0..1u64 << GUIDE_BITS)
        .map(|b| {
            let last = ((b + 1) << GUIDE_SHIFT) - 1;
            cutoffs.partition_point(|&c| c > last) as u16
        })
        .collect();
    let table = Arc::new(DepTable {
        cutoffs: cutoffs.into(),
        guide,
    });
    guard.push((key, Arc::clone(&table)));
    table
}

/// Splitmix64: cheap deterministic per-PC hashing.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a static program counter decodes to.
#[derive(Debug, Clone, Copy)]
struct StaticInstr {
    kind: UopKind,
    /// For branches: predictability class.
    branch_class: BranchClass,
    /// For taken non-loop branches: forward skip in instructions.
    skip: u64,
    /// For memory ops: which data region this PC's accesses touch.
    region: usize,
    /// Patterned branches: repeat period (2..=9).
    period: u32,
    /// Patterned branches: the per-PC hash that picks the sub-style and
    /// toggle slot (cached here so the dynamic path never rehashes).
    pat_h: u64,
}

/// Per-region address-generation state.
///
/// Random and pointer-chase regions access memory in *bursts* with page and
/// line locality: real irregular codes (hash tables, graph nodes, sparse
/// rows) touch several nearby fields per visited object before jumping.
/// Without bursts, every access lands on a fresh page and line, inflating
/// TLB and cache miss rates an order of magnitude beyond real workloads.
#[derive(Debug, Clone)]
struct RegionState {
    base: u64,
    footprint: u64,
    pattern: AccessPattern,
    cursor: u64,
    /// Remaining accesses in the current locality burst.
    burst_left: u32,
    /// Base offset of the current burst's neighbourhood.
    burst_base: u64,
    /// µop index of the most recent load in this region (pointer chasing).
    last_load: Option<u64>,
}

/// Byte span of one locality burst (a few cache lines of one "object").
const BURST_SPAN: u64 = 256;

/// The active loop being walked.
#[derive(Debug, Clone)]
struct LoopState {
    start_pc: u64,
    body_instrs: u64,
    iters_left: u64,
    /// Offset of the next instruction within the body, in instructions.
    offset: u64,
    /// Iteration index (drives patterned branch outcomes).
    iter_index: u64,
}

/// Deterministic µop trace generator for one workload profile on one
/// cracking configuration.
///
/// Implements [`Iterator`] over [`MicroOp`]s; the stream is infinite (SPEC
/// benchmarks run for hundreds of billions of instructions — callers `take`
/// what they need).
///
/// # Examples
///
/// ```
/// use pmu::Suite;
/// use specgen::{Cracking, TraceGenerator, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("demo", Suite::Cpu2000).build();
/// let mut a = TraceGenerator::new(&profile, Cracking::default(), 7);
/// let mut b = TraceGenerator::new(&profile, Cracking::default(), 7);
/// for _ in 0..100 {
///     assert_eq!(a.next(), b.next()); // bit-for-bit deterministic
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: SmallRng,
    pc_seed: u64,
    regions: Vec<RegionState>,
    current: LoopState,
    queue: VecDeque<MicroOp>,
    uop_index: u64,
    last_fp: Option<u64>,
    code_instrs: u64,
    hot_instrs: u64,
    /// Execution counts per static patterned branch (hash-indexed, aliased):
    /// drives run-length direction toggling.
    pattern_counts: Vec<u32>,
    /// Memoised [`TraceGenerator::decode`] results, indexed by static
    /// instruction slot. The decode of a PC is a pure function of
    /// `pc ^ pc_seed` and the (fixed) profile, so each static instruction
    /// is decoded at most once per run instead of once per dynamic visit.
    decode_cache: Vec<Option<StaticInstr>>,
    /// Tabulated geometric sampler (see [`DepTable`]): maps the RNG's
    /// 53-bit mantissa straight to a dep distance, bit-identical to the
    /// historical `ceil(ln(u)/ln(1-p))` computation.
    dep_table: Arc<DepTable>,
    /// µops per macro-instruction, `floor(uop_expansion × cracking)`.
    expansion_whole: u64,
    /// Probability of one extra µop per macro-instruction: the fractional
    /// part of `uop_expansion × cracking`, clamped to `[0, 1]`.
    expansion_frac: f64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` under `cracking`, seeded with
    /// `seed`. The profile's name participates in the stream so two
    /// different benchmarks never share a trace even with equal seeds.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: &WorkloadProfile, cracking: Cracking, seed: u64) -> Self {
        if let Err(e) = profile.validate() {
            panic!("{e}");
        }
        let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
        for b in profile.name.bytes() {
            name_hash ^= b as u64;
            name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mixed = splitmix64(seed ^ name_hash);
        let rng = SmallRng::seed_from_u64(mixed);
        let regions = profile
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionState {
                base: DATA_BASE + i as u64 * DATA_SPACING,
                footprint: r.footprint,
                pattern: r.pattern,
                cursor: 0,
                burst_left: 0,
                burst_base: 0,
                last_load: None,
            })
            .collect();
        let code_instrs = (profile.code_footprint / INSTR_BYTES).max(64);
        let hot_instrs =
            ((code_instrs as f64 * profile.code_hot_size_frac) as u64).clamp(64, code_instrs);
        // Expansion: baseline × machine factor, stochastically rounded per
        // macro-instruction (see `emit_macro`).
        let target = profile.uop_expansion * cracking.factor;
        let expansion_whole = target.floor() as u64;
        let mut this = Self {
            profile: profile.clone(),
            rng,
            pc_seed: splitmix64(mixed ^ 0xDEAD_10CC),
            regions,
            current: LoopState {
                start_pc: CODE_BASE,
                body_instrs: 1,
                iters_left: 0,
                offset: 0,
                iter_index: 0,
            },
            queue: VecDeque::with_capacity(16),
            uop_index: 0,
            last_fp: None,
            code_instrs,
            hot_instrs,
            pattern_counts: vec![0; 2048],
            decode_cache: vec![None; code_instrs as usize],
            dep_table: {
                let p = 1.0 / profile.mean_dep_distance;
                geometric_cutoffs((1.0f64 - p).ln())
            },
            expansion_whole,
            expansion_frac: (target - expansion_whole as f64).clamp(0.0, 1.0),
        };
        this.begin_loop();
        this
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Decodes the fixed template at a static PC.
    fn decode(&self, pc: u64) -> StaticInstr {
        let h = splitmix64(pc ^ self.pc_seed);
        let p = &self.profile;
        // Map the low 32 bits to a class by cumulative macro-level fractions.
        let u = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
        let class_weights = [
            (UopKind::Load, p.load_frac),
            (UopKind::Store, p.store_frac),
            (UopKind::Branch, p.branch_frac),
            (UopKind::FpAdd, p.fp_frac * 0.5),
            (UopKind::FpMul, p.fp_frac * 0.4),
            (UopKind::FpDiv, p.fp_frac * 0.1),
            (UopKind::IntMul, p.int_mul_frac),
            (UopKind::IntDiv, p.int_div_frac),
        ];
        let mut acc = 0.0;
        let mut kind = UopKind::IntAlu;
        for (candidate, weight) in class_weights {
            acc += weight;
            if u < acc {
                kind = candidate;
                break;
            }
        }
        // Branch class from the next hash bits.
        let v = ((h >> 32) & 0xFFFF) as f64 / u16::MAX as f64;
        let branch_class = if v < p.br_random_frac {
            BranchClass::DataDependent
        } else if v < p.br_random_frac + p.br_pattern_frac {
            BranchClass::Patterned
        } else {
            BranchClass::Biased
        };
        // Region choice by access fraction, from further hash bits.
        let w = ((h >> 48) & 0x7FFF) as f64 / 0x7FFF as f64;
        let mut racc = 0.0;
        let mut region = self.profile.regions.len() - 1;
        for (i, r) in self.profile.regions.iter().enumerate() {
            racc += r.access_fraction;
            if w <= racc {
                region = i;
                break;
            }
        }
        StaticInstr {
            kind,
            branch_class,
            skip: 1 + (h >> 17) % 6,
            region,
            period: 2 + ((h >> 23) % 8) as u32,
            pat_h: splitmix64(pc ^ self.pc_seed ^ 0xA17),
        }
    }

    /// Memoised [`TraceGenerator::decode`]: every PC the walk can visit lies
    /// in `[CODE_BASE, CODE_BASE + code_instrs × INSTR_BYTES)` (loops are
    /// placed inside the code span and skips clamp to the body), so the
    /// static instruction slot indexes the cache directly. Out-of-range PCs
    /// (none today) fall back to a direct decode.
    fn decode_cached(&mut self, pc: u64) -> StaticInstr {
        let slot = pc.wrapping_sub(CODE_BASE) / INSTR_BYTES;
        match self.decode_cache.get(slot as usize) {
            Some(Some(instr)) => *instr,
            Some(None) => {
                let instr = self.decode(pc);
                self.decode_cache[slot as usize] = Some(instr);
                instr
            }
            None => self.decode(pc),
        }
    }

    /// Starts the next loop: picks a region of code (hot or cold), a body
    /// length and an iteration count.
    fn begin_loop(&mut self) {
        let hot = self.rng.gen_bool(self.profile.code_hot_frac);
        let (lo, span) = if hot {
            (0u64, self.hot_instrs)
        } else {
            let cold = self.code_instrs - self.hot_instrs;
            if cold == 0 {
                (0u64, self.hot_instrs)
            } else {
                (self.hot_instrs, cold)
            }
        };
        // Body length 12..=162 instructions, short-biased.
        let body = 12 + self.rng.gen_range(0..150).min(self.rng.gen_range(0..150));
        let body = (body as u64).min(span.max(12));
        let max_start = span.saturating_sub(body);
        let start = lo
            + if max_start == 0 {
                0
            } else {
                self.rng.gen_range(0..=max_start)
            };
        // Iteration counts. Hot code is loopy: mostly modest trip counts
        // with occasional hot kernels — long enough for the predictor to
        // learn, short enough that code rotates at a realistic rate. Cold
        // code is nearly straight-line (initialisation, rarely-taken call
        // paths): if it looped, it would be hot — this is what gives
        // big-code workloads their real I-cache miss rates.
        let iters = if hot {
            match self.rng.gen_range(0..10u32) {
                0..=5 => self.rng.gen_range(4..24u64),
                6..=8 => self.rng.gen_range(24..96u64),
                _ => self.rng.gen_range(96..512u64),
            }
        } else {
            self.rng.gen_range(1..6u64)
        };
        self.current = LoopState {
            start_pc: CODE_BASE + start * INSTR_BYTES,
            body_instrs: body,
            iters_left: iters,
            offset: 0,
            iter_index: 0,
        };
    }

    /// Generates an effective address for a memory µop in `region`.
    fn gen_addr(&mut self, region: usize) -> u64 {
        let r = &mut self.regions[region];
        let offset = match r.pattern {
            AccessPattern::Sequential { stride } => {
                let o = r.cursor;
                r.cursor = (r.cursor + stride as u64) % r.footprint;
                o
            }
            AccessPattern::Random | AccessPattern::PointerChase => {
                // Bursty locality: pick a fresh object occasionally, then
                // touch a few fields within its neighbourhood.
                if r.burst_left == 0 {
                    r.burst_left = self.rng.gen_range(3..12);
                    let span = r.footprint.saturating_sub(BURST_SPAN).max(8);
                    r.burst_base = self.rng.gen_range(0..span);
                }
                r.burst_left -= 1;
                r.burst_base + self.rng.gen_range(0..BURST_SPAN.min(r.footprint))
            }
        };
        r.base + (offset & !7)
    }

    /// Samples a register dependence distance (geometric, mean
    /// `mean_dep_distance`, at least 1).
    fn dep_distance(&mut self) -> u32 {
        // Inverse-CDF geometric sampling via the precomputed table: one RNG
        // draw (the same draw the f64 formula consumes), one guide lookup
        // and a short scan.
        self.dep_table.sample(self.rng.next_u64() >> 11)
    }

    /// Cracks one macro-instruction into µops and pushes them on the queue.
    fn emit_macro(&mut self, pc: u64, instr: StaticInstr, branch: Option<BranchInfo>) {
        // Expansion: baseline × machine factor, stochastically rounded.
        let extra = u64::from(self.rng.gen_bool(self.expansion_frac));
        let n = (self.expansion_whole + extra).max(1);

        for slot in 0..n {
            let first = slot == 0;
            let kind = if first { instr.kind } else { UopKind::IntAlu };
            let mut op = MicroOp::new(kind, pc).with_macro_first(first);

            // Dependences.
            let d1 = if kind.is_fp() && self.rng.gen_bool(self.profile.fp_chain) {
                // Extend the running FP chain when there is one.
                self.last_fp
                    .map(|idx| (self.uop_index - idx) as u32)
                    .filter(|&d| (1..=512).contains(&d))
                    .unwrap_or(0)
            } else {
                0
            };
            let d1 = if d1 == 0 { self.dep_distance() } else { d1 };
            op = op.with_dep1(d1.min(self.uop_index.min(u32::MAX as u64) as u32));
            if self.rng.gen_bool(0.45) {
                let d2 = self.dep_distance();
                op = op.with_dep2(d2.min(self.uop_index.min(u32::MAX as u64) as u32));
            }

            if kind.is_mem() && first {
                let addr = self.gen_addr(instr.region);
                op = op.with_addr(addr);
                if kind == UopKind::Load {
                    // Pointer chasing: this load depends on the previous load
                    // in the same region, serialising the miss stream.
                    let r = &mut self.regions[instr.region];
                    if matches!(r.pattern, AccessPattern::PointerChase) {
                        if let Some(last) = r.last_load {
                            let d = (self.uop_index - last).min(512) as u32;
                            if d >= 1 {
                                op = op.with_dep1(d);
                            }
                        }
                        r.last_load = Some(self.uop_index);
                    }
                }
            }
            if kind == UopKind::Branch && first {
                op.branch = branch;
            }
            if kind.is_fp() {
                self.last_fp = Some(self.uop_index);
            }
            self.queue.push_back(op);
            self.uop_index += 1;
        }
    }

    /// Advances the program walk by one macro-instruction.
    fn step(&mut self) {
        let pc = self.current.start_pc + self.current.offset * INSTR_BYTES;
        let at_body_end = self.current.offset + 1 >= self.current.body_instrs;

        if at_body_end {
            // Loop back-edge (always a branch, whatever the hash says).
            let last_iter = self.current.iters_left <= 1;
            let info = BranchInfo {
                taken: !last_iter,
                target: self.current.start_pc,
                class: BranchClass::Loop,
            };
            let mut instr = self.decode_cached(pc);
            instr.kind = UopKind::Branch;
            self.emit_macro(pc, instr, Some(info));
            if last_iter {
                self.begin_loop();
            } else {
                self.current.iters_left -= 1;
                self.current.iter_index += 1;
                self.current.offset = 0;
            }
            return;
        }

        let instr = self.decode_cached(pc);
        if instr.kind == UopKind::Branch {
            let (taken, class) = match instr.branch_class {
                BranchClass::Biased => (self.rng.gen_bool(0.015), BranchClass::Biased),
                BranchClass::Patterned => {
                    // Two learnable sub-styles, split per static branch:
                    //
                    // * iteration-parity alternation — predictable only when
                    //   the predictor's global history reaches back to the
                    //   previous loop iteration (rewards long histories and
                    //   big tables, penalising the small-predictor machine),
                    // * slow run-length toggling — the branch holds one
                    //   direction for a stretch, then flips; 2-bit counters
                    //   mispredict only at the flips.
                    let h = instr.pat_h;
                    let taken = if h & 1 == 0 {
                        self.current.iter_index.is_multiple_of(2)
                    } else {
                        let slot = (h % 2048) as usize;
                        let count = self.pattern_counts[slot];
                        self.pattern_counts[slot] = count.wrapping_add(1);
                        let run = 8 + (instr.period * 6);
                        (count / run).is_multiple_of(2)
                    };
                    (taken, BranchClass::Patterned)
                }
                BranchClass::DataDependent => (
                    self.rng.gen_bool(self.profile.br_bias),
                    BranchClass::DataDependent,
                ),
                BranchClass::Loop => (true, BranchClass::Loop),
            };
            let skip = if taken { instr.skip } else { 0 };
            let target = pc + INSTR_BYTES * (1 + skip);
            self.emit_macro(
                pc,
                instr,
                Some(BranchInfo {
                    taken,
                    target,
                    class,
                }),
            );
            // Taken forward branches skip ahead within the body.
            self.current.offset =
                (self.current.offset + 1 + skip).min(self.current.body_instrs - 1);
        } else {
            self.emit_macro(pc, instr, None);
            self.current.offset += 1;
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        while self.queue.is_empty() {
            self.step();
        }
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MemRegion;
    use pmu::Suite;

    fn demo_profile() -> WorkloadProfile {
        WorkloadProfile::builder("gen-test", Suite::Cpu2000)
            .fp(0.10)
            .build()
    }

    #[test]
    fn deterministic_across_instances() {
        let p = demo_profile();
        let a: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 9)
            .take(5_000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 9)
            .take(5_000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = demo_profile();
        let a: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 1)
            .take(1_000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 2)
            .take(1_000)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn different_names_differ_with_same_seed() {
        let p1 = demo_profile();
        let mut p2 = demo_profile();
        p2.name = "other".into();
        let a: Vec<_> = TraceGenerator::new(&p1, Cracking::default(), 1)
            .take(1_000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(&p2, Cracking::default(), 1)
            .take(1_000)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn cracking_scales_uop_count() {
        let p = demo_profile();
        let n_macros = |factor: f64| {
            TraceGenerator::new(&p, Cracking::new(factor), 3)
                .take(50_000)
                .filter(|op| op.macro_first)
                .count()
        };
        // More cracking → fewer macro instructions in the same µop budget.
        let lean = n_macros(1.0);
        let fat = n_macros(1.6);
        assert!(
            (fat as f64) < lean as f64 * 0.75,
            "cracked: {fat}, fused: {lean}"
        );
    }

    #[test]
    fn branch_pcs_repeat_for_predictor_learning() {
        let p = demo_profile();
        let ops: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 5)
            .take(50_000)
            .collect();
        let mut branch_pcs: Vec<u64> = ops
            .iter()
            .filter(|o| o.branch.is_some())
            .map(|o| o.pc)
            .collect();
        let dynamic = branch_pcs.len();
        branch_pcs.sort_unstable();
        branch_pcs.dedup();
        let statics = branch_pcs.len();
        assert!(
            dynamic > statics * 5,
            "{dynamic} dynamic / {statics} static"
        );
    }

    #[test]
    fn pointer_chase_loads_depend_on_previous_load() {
        let p = WorkloadProfile::builder("chase", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(1024, 1.0, AccessPattern::PointerChase)])
            .build();
        let ops: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 1)
            .take(20_000)
            .collect();
        // Find consecutive loads; the later must name the earlier as dep1.
        let load_indices: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.kind == UopKind::Load)
            .map(|(i, _)| i)
            .collect();
        assert!(load_indices.len() > 100);
        let mut chained = 0;
        for pair in load_indices.windows(2) {
            let (prev, cur) = (pair[0], pair[1]);
            let d = (cur - prev) as u32;
            if d <= 512 && ops[cur].dep1.map(|x| x.get()) == Some(d) {
                chained += 1;
            }
        }
        assert!(
            chained * 10 >= load_indices.len() * 8,
            "only {chained} of {} loads chained",
            load_indices.len()
        );
    }

    #[test]
    fn sequential_region_addresses_stride_and_wrap() {
        let p = WorkloadProfile::builder("seq", Suite::Cpu2000)
            .regions(vec![MemRegion::kib(
                4,
                1.0,
                AccessPattern::Sequential { stride: 64 },
            )])
            .build();
        let addrs: Vec<u64> = TraceGenerator::new(&p, Cracking::default(), 1)
            .take(30_000)
            .filter_map(|o| o.addr)
            .collect();
        assert!(addrs.len() > 1000);
        let lo = *addrs.iter().min().unwrap();
        let hi = *addrs.iter().max().unwrap();
        assert!(hi - lo < 4096, "addresses stay within the 4 KiB footprint");
    }

    #[test]
    fn dep_distances_are_bounded_by_position() {
        let p = demo_profile();
        for (i, op) in TraceGenerator::new(&p, Cracking::default(), 11)
            .take(2_000)
            .enumerate()
        {
            if let Some(d) = op.dep1 {
                assert!(
                    (d.get() as usize) <= i.max(1),
                    "µop {i} depends {d} back, before the trace start"
                );
            }
        }
    }

    #[test]
    fn mix_tracks_profile_fractions() {
        let p = WorkloadProfile::builder("mix", Suite::Cpu2006)
            .mem_mix(0.30, 0.12)
            .branches(0.10)
            .fp(0.20)
            .build();
        let ops: Vec<_> = TraceGenerator::new(&p, Cracking::default(), 2)
            .take(200_000)
            .collect();
        let macros = ops.iter().filter(|o| o.macro_first).count() as f64;
        let loads = ops.iter().filter(|o| o.kind == UopKind::Load).count() as f64;
        let fps = ops.iter().filter(|o| o.kind.is_fp()).count() as f64;
        // Primary-op fractions are per macro-instruction.
        assert!(
            (loads / macros - 0.30).abs() < 0.05,
            "load frac {}",
            loads / macros
        );
        assert!(
            (fps / macros - 0.20).abs() < 0.05,
            "fp frac {}",
            fps / macros
        );
    }

    #[test]
    fn pcs_stay_inside_code_footprint() {
        let p = WorkloadProfile::builder("code", Suite::Cpu2000)
            .code(32, 0.9, 0.25)
            .build();
        for op in TraceGenerator::new(&p, Cracking::default(), 4).take(20_000) {
            assert!(op.pc >= CODE_BASE);
            assert!(op.pc < CODE_BASE + 32 * 1024);
        }
    }

    #[test]
    fn cutoff_table_matches_formula_oracle() {
        // The tabulated sampler must agree with the historical f64 formula
        // for every 53-bit mantissa. Exhaustive sweep is 2^53, so probe
        // where disagreement could hide: every table boundary ±1 (where the
        // binary search and the ceil/ln rounding must flip in lockstep),
        // the mantissa extremes, and a deterministic stride across the rest.
        for mean in [1.5f64, 3.0, 7.0, 15.0, 40.0, 120.0] {
            let ln_q = (1.0f64 - 1.0 / mean).ln();
            let table = geometric_cutoffs(ln_q);
            let mut probes: Vec<u64> = vec![0, 1, (1u64 << 53) - 1];
            for &c in table.cutoffs.iter() {
                probes.extend([c.saturating_sub(1), c, c + 1]);
            }
            probes.extend((0..4096u64).map(|i| i * ((1u64 << 53) / 4096) + 17));
            for m in probes {
                let m = m.min((1u64 << 53) - 1);
                assert_eq!(
                    table.sample(m),
                    geometric_sample(m, ln_q),
                    "table and formula disagree at mean {mean}, mantissa {m}"
                );
            }
        }
    }

    /// The binary search over the cutoffs that the guide table replaced:
    /// the oracle for [`DepTable::sample`].
    fn bisect(table: &DepTable, m: u64) -> u32 {
        table.cutoffs.partition_point(|&c| c > m) as u32 + 1
    }

    /// Every distinct `mean_dep_distance` of the shipped suites, plus the
    /// degenerate mean of 1 (a table of one cutoff).
    fn suite_dep_means() -> Vec<f64> {
        let mut means: Vec<f64> = crate::suites::cpu2000()
            .into_iter()
            .chain(crate::suites::cpu2006())
            .map(|p| p.mean_dep_distance)
            .chain([1.0])
            .collect();
        means.sort_by(f64::total_cmp);
        means.dedup();
        means
    }

    fn table_for(mean: f64) -> Arc<DepTable> {
        geometric_cutoffs((1.0f64 - 1.0 / mean).ln())
    }

    #[test]
    fn guide_table_matches_bisection_at_every_bucket_edge() {
        const TOP: u64 = (1u64 << 53) - 1;
        for mean in suite_dep_means() {
            let table = table_for(mean);
            let mut probes = vec![0, 1, TOP - 1, TOP];
            for b in 0..=1u64 << GUIDE_BITS {
                let edge = b << GUIDE_SHIFT;
                probes.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
            for &c in table.cutoffs.iter() {
                probes.extend([c.saturating_sub(1), c, c + 1]);
            }
            for m in probes.into_iter().map(|m| m.min(TOP)) {
                assert_eq!(
                    table.sample(m),
                    bisect(&table, m),
                    "guide and bisection disagree at mean {mean}, mantissa {m}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn guide_table_matches_bisection(pick in 0usize..1 << 16, m in 0u64..1 << 53) {
            let means = suite_dep_means();
            let mean = means[pick % means.len()];
            let table = table_for(mean);
            proptest::prop_assert_eq!(table.sample(m), bisect(&table, m));
        }
    }

    #[test]
    fn expansion_is_precomputed_from_profile_and_cracking() {
        // The per-macro expansion split must equal the formula the
        // per-macro path used to evaluate on every macro-instruction.
        for profile in crate::suites::cpu2000()
            .into_iter()
            .chain(crate::suites::cpu2006())
        {
            for factor in [1.0, 1.07, 1.3, 1.6] {
                let g = TraceGenerator::new(&profile, Cracking::new(factor), 1);
                let target = profile.uop_expansion * factor;
                let whole = target.floor() as u64;
                assert_eq!(g.expansion_whole, whole);
                assert_eq!(
                    g.expansion_frac.to_bits(),
                    (target - whole as f64).clamp(0.0, 1.0).to_bits()
                );
            }
        }
    }
}
