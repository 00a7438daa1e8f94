//! Machine configurations: the three Intel processors of Table 1–2, plus a
//! builder for custom designs.
//!
//! All latencies are in core clock cycles, so frequency differences between
//! the machines are already folded in (as in the paper's Table 2: the
//! Pentium 4's 313-cycle memory latency is partly its 3.4 GHz clock).

use pmu::MachineId;
use specgen::{Cracking, UopKind};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Convenience constructor with size in KiB.
    pub const fn kib(kib: u64, line: u64, ways: usize) -> Self {
        Self {
            size: kib * 1024,
            line,
            ways,
        }
    }
}

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Number of page translations held.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

/// Access latencies, in cycles (the paper's Table 2 row for each machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1 D-cache hit (load-to-use).
    pub l1d: u64,
    /// L2 hit.
    pub l2: u64,
    /// L3 hit (ignored when the machine has no L3).
    pub l3: u64,
    /// DRAM access.
    pub mem: u64,
    /// TLB miss (page walk) penalty.
    pub tlb: u64,
}

/// Branch predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the counter-table size.
    pub log2_entries: u32,
    /// Global history bits.
    pub history_bits: u32,
}

/// Functional-unit latencies and counts per µop class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer multiply latency.
    pub int_mul: u64,
    /// Integer divide latency (unpipelined).
    pub int_div: u64,
    /// FP add latency.
    pub fp_add: u64,
    /// FP multiply latency.
    pub fp_mul: u64,
    /// FP divide latency (unpipelined).
    pub fp_div: u64,
    /// Number of load ports.
    pub load_ports: usize,
}

impl FuConfig {
    /// Execution latency for a µop class, given an L1-hit load latency.
    pub fn latency(&self, kind: UopKind, l1d: u64) -> u64 {
        match kind {
            UopKind::IntAlu | UopKind::Store | UopKind::Branch => 1,
            UopKind::IntMul => self.int_mul,
            UopKind::IntDiv => self.int_div,
            UopKind::FpAdd => self.fp_add,
            UopKind::FpMul => self.fp_mul,
            UopKind::FpDiv => self.fp_div,
            UopKind::Load => l1d,
        }
    }
}

/// Full description of one simulated machine.
///
/// Use the presets ([`MachineConfig::pentium4`] etc.) for the paper's
/// machines or [`MachineConfig::builder`] for custom designs (used by the
/// ablation benches).
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
///
/// let core2 = MachineConfig::core2();
/// assert_eq!(core2.dispatch_width, 4);
/// assert_eq!(core2.frontend_depth, 14);
/// assert!(core2.l3.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Which commercial machine this models (custom designs keep the id of
    /// the preset they started from).
    pub id: MachineId,
    /// Human-readable name.
    pub name: String,
    /// Dispatch width `D` (µops per cycle into the ROB).
    pub dispatch_width: u32,
    /// Front-end pipeline depth `c_fe` (cycles to refill after a redirect).
    pub frontend_depth: u32,
    /// Reorder buffer capacity in µops.
    pub rob_size: usize,
    /// L1 instruction cache.
    pub l1i: CacheGeometry,
    /// L1 data cache.
    pub l1d: CacheGeometry,
    /// Unified L2.
    pub l2: CacheGeometry,
    /// Optional L3 (Core i7 only among the presets).
    pub l3: Option<CacheGeometry>,
    /// Instruction TLB.
    pub itlb: TlbGeometry,
    /// Data TLB.
    pub dtlb: TlbGeometry,
    /// Access latencies.
    pub lat: Latencies,
    /// Miss-status holding registers: maximum outstanding DRAM accesses
    /// (the hardware ceiling on memory-level parallelism).
    pub mshrs: usize,
    /// Minimum cycle gap between successive DRAM data bursts (bandwidth).
    pub dram_gap: u64,
    /// Stream-prefetcher aggressiveness: lines fetched ahead on a confident
    /// ascending miss stream (0 disables prefetching).
    pub prefetch_depth: u64,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// Functional units.
    pub fu: FuConfig,
    /// CISC cracking/fusion behaviour fed to the workload generator.
    pub cracking: Cracking,
}

impl MachineConfig {
    /// Intel Pentium 4 (Netburst, Prescott): 3-wide, 31-stage front-end,
    /// small L1s, 1 MiB L2, slow memory in cycles (3.4 GHz), aggressive
    /// µop cracking, but a comparatively *good* branch predictor.
    pub fn pentium4() -> Self {
        Self {
            id: MachineId::Pentium4,
            name: "Pentium 4 (Prescott)".into(),
            dispatch_width: 3,
            frontend_depth: 31,
            rob_size: 126,
            l1i: CacheGeometry::kib(16, 64, 4),
            l1d: CacheGeometry::kib(16, 64, 8),
            l2: CacheGeometry::kib(1024, 64, 8),
            l3: None,
            itlb: TlbGeometry {
                entries: 64,
                ways: 4,
            },
            dtlb: TlbGeometry {
                entries: 64,
                ways: 4,
            },
            lat: Latencies {
                l1d: 4,
                l2: 31,
                l3: 0,
                mem: 313,
                tlb: 70,
            },
            mshrs: 8,
            dram_gap: 12,
            prefetch_depth: 1,
            predictor: PredictorConfig {
                log2_entries: 14,
                history_bits: 12,
            },
            fu: FuConfig {
                int_mul: 10,
                int_div: 40,
                fp_add: 5,
                fp_mul: 7,
                fp_div: 40,
                load_ports: 1,
            },
            cracking: Cracking::new(1.25),
        }
    }

    /// Intel Core 2 (Conroe): 4-wide, 14-stage front-end, 32 KiB L1s,
    /// 4 MiB L2, µop fusion — but a *smaller* branch predictor than the
    /// Pentium 4 (the paper measures more mispredictions on Core 2).
    pub fn core2() -> Self {
        Self {
            id: MachineId::Core2,
            name: "Core 2 (Conroe)".into(),
            dispatch_width: 4,
            frontend_depth: 14,
            rob_size: 96,
            l1i: CacheGeometry::kib(32, 64, 8),
            l1d: CacheGeometry::kib(32, 64, 8),
            l2: CacheGeometry::kib(4096, 64, 16),
            l3: None,
            itlb: TlbGeometry {
                entries: 128,
                ways: 4,
            },
            dtlb: TlbGeometry {
                entries: 256,
                ways: 4,
            },
            lat: Latencies {
                l1d: 3,
                l2: 19,
                l3: 0,
                mem: 169,
                tlb: 30,
            },
            mshrs: 16,
            dram_gap: 8,
            prefetch_depth: 4,
            predictor: PredictorConfig {
                log2_entries: 12,
                history_bits: 8,
            },
            fu: FuConfig {
                int_mul: 3,
                int_div: 22,
                fp_add: 3,
                fp_mul: 5,
                fp_div: 18,
                load_ports: 1,
            },
            cracking: Cracking::new(0.95),
        }
    }

    /// Intel Core i7 (Nehalem, Bloomfield): 4-wide, 128-entry ROB, small
    /// fast 256 KiB L2 plus 8 MiB L3, integrated memory controller (high
    /// bandwidth, many MSHRs), best predictor of the three, macro-fusion.
    pub fn core_i7() -> Self {
        Self {
            id: MachineId::CoreI7,
            name: "Core i7 (Bloomfield)".into(),
            dispatch_width: 4,
            frontend_depth: 14,
            rob_size: 128,
            l1i: CacheGeometry::kib(32, 64, 8),
            l1d: CacheGeometry::kib(32, 64, 8),
            l2: CacheGeometry::kib(256, 64, 8),
            l3: Some(CacheGeometry::kib(8192, 64, 16)),
            itlb: TlbGeometry {
                entries: 128,
                ways: 4,
            },
            dtlb: TlbGeometry {
                entries: 512,
                ways: 4,
            },
            lat: Latencies {
                l1d: 4,
                l2: 14,
                l3: 30,
                mem: 160,
                tlb: 40,
            },
            mshrs: 32,
            dram_gap: 4,
            prefetch_depth: 8,
            predictor: PredictorConfig {
                log2_entries: 16,
                history_bits: 14,
            },
            fu: FuConfig {
                int_mul: 3,
                int_div: 20,
                fp_add: 3,
                fp_mul: 5,
                fp_div: 18,
                load_ports: 2,
            },
            cracking: Cracking::new(0.88),
        }
    }

    /// All three paper machines, in generation order.
    pub fn paper_machines() -> Vec<MachineConfig> {
        vec![Self::pentium4(), Self::core2(), Self::core_i7()]
    }

    /// The configuration for a given [`MachineId`].
    ///
    /// For the three presets this is the Table 1–2 machine. A design-space
    /// variant id (e.g. `core2+rob192+mshr32`) decodes to its base preset
    /// with the named axes overridden — the variant *name* is the full
    /// recipe, so any process that can parse the id can rebuild the
    /// machine. The decoded configuration is not validated here (sweep
    /// expansion validates before interning ids); call
    /// [`MachineConfig::validate`] before simulating untrusted ids.
    pub fn preset(id: MachineId) -> MachineConfig {
        match id {
            MachineId::Pentium4 => Self::pentium4(),
            MachineId::Core2 => Self::core2(),
            MachineId::CoreI7 => Self::core_i7(),
            MachineId::Variant(_) => Self::decode_variant(id),
        }
    }

    /// Rebuilds a variant configuration from its interned name.
    fn decode_variant(id: MachineId) -> MachineConfig {
        let name = id.name();
        let mut parts = name.split('+');
        let base: MachineId = parts
            .next()
            .expect("split is non-empty")
            .parse()
            .expect("variant names start with a preset");
        let mut config = Self::preset(base);
        for tok in parts {
            let digits = tok
                .find(|c: char| c.is_ascii_digit())
                .expect("variant tokens carry a value");
            let (axis, value) = tok.split_at(digits);
            match axis {
                "rob" => config.rob_size = value.parse().expect("digits"),
                "mshr" => config.mshrs = value.parse().expect("digits"),
                "dw" => config.dispatch_width = value.parse().expect("digits"),
                "pf" => config.prefetch_depth = value.parse().expect("digits"),
                other => unreachable!("pmu validated the token grammar, got `{other}`"),
            }
        }
        config.id = id;
        config.name = name.to_string();
        config
    }

    /// The placement-relevant part of this configuration: everything the
    /// trace generator, the cache/TLB hierarchy and the branch predictor
    /// read. Machines with equal keys place every µop of a trace
    /// identically, so one front end can feed all of their timing
    /// back-ends ([`crate::pipeline::simulate_lockstep`]).
    ///
    /// The destructuring below names every field with no `..`, so adding a
    /// field to [`MachineConfig`] fails to compile here until it is
    /// classified: placement (into the key) or timing (ignored).
    ///
    /// # Examples
    ///
    /// ```
    /// use oosim::machine::MachineConfig;
    ///
    /// let base = MachineConfig::core2();
    /// let big_rob = MachineConfig::builder(base.clone()).rob_size(192).build();
    /// let no_pf = MachineConfig::builder(base.clone()).prefetch_depth(0).build();
    /// assert_eq!(base.front_key(), big_rob.front_key()); // timing only
    /// assert_ne!(base.front_key(), no_pf.front_key()); // placement
    /// ```
    pub fn front_key(&self) -> FrontKey {
        let MachineConfig {
            // Identity and timing: the back-end's business.
            id: _,
            name: _,
            dispatch_width: _,
            frontend_depth: _,
            rob_size: _,
            lat: _,
            mshrs: _,
            dram_gap: _,
            fu: _,
            // Placement.
            l1i,
            l1d,
            l2,
            l3,
            itlb,
            dtlb,
            prefetch_depth,
            predictor,
            cracking,
        } = self;
        FrontKey {
            l1i: *l1i,
            l1d: *l1d,
            l2: *l2,
            l3: *l3,
            itlb: *itlb,
            dtlb: *dtlb,
            prefetch_depth: *prefetch_depth,
            predictor: *predictor,
            cracking: *cracking,
        }
    }

    /// Starts a builder from this configuration (for ablations and design
    /// sweeps).
    pub fn builder(base: MachineConfig) -> MachineConfigBuilder {
        MachineConfigBuilder { config: base }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.dispatch_width == 0 || self.dispatch_width > 16 {
            return Err(format!(
                "dispatch width {} unreasonable",
                self.dispatch_width
            ));
        }
        if self.rob_size < 8 {
            return Err("ROB too small".into());
        }
        if self.mshrs == 0 {
            return Err("need at least one MSHR".into());
        }
        if self.lat.l2 == 0 || self.lat.mem <= self.lat.l2 {
            return Err("memory latency must exceed L2 latency".into());
        }
        if self.l3.is_some() && (self.lat.l3 <= self.lat.l2 || self.lat.mem <= self.lat.l3) {
            return Err("L3 latency must sit between L2 and memory".into());
        }
        Ok(())
    }
}

/// The placement-relevant fields of a [`MachineConfig`]: µop cracking, the
/// caches and TLBs, the prefetcher and the branch predictor (see
/// [`MachineConfig::front_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontKey {
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    l2: CacheGeometry,
    l3: Option<CacheGeometry>,
    itlb: TlbGeometry,
    dtlb: TlbGeometry,
    prefetch_depth: u64,
    predictor: PredictorConfig,
    cracking: Cracking,
}

/// Builder over a base [`MachineConfig`], used by ablation benches to vary
/// one dimension at a time.
///
/// # Examples
///
/// ```
/// use oosim::machine::MachineConfig;
///
/// let wide = MachineConfig::builder(MachineConfig::core2())
///     .dispatch_width(6)
///     .rob_size(192)
///     .build();
/// assert_eq!(wide.dispatch_width, 6);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    config: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the dispatch width.
    pub fn dispatch_width(mut self, width: u32) -> Self {
        self.config.dispatch_width = width;
        self
    }

    /// Sets the front-end pipeline depth.
    pub fn frontend_depth(mut self, depth: u32) -> Self {
        self.config.frontend_depth = depth;
        self
    }

    /// Sets the ROB capacity.
    pub fn rob_size(mut self, rob: usize) -> Self {
        self.config.rob_size = rob;
        self
    }

    /// Sets the MSHR count (memory-level-parallelism ceiling).
    pub fn mshrs(mut self, mshrs: usize) -> Self {
        self.config.mshrs = mshrs;
        self
    }

    /// Sets the stream-prefetcher depth (0 disables prefetching).
    pub fn prefetch_depth(mut self, depth: u64) -> Self {
        self.config.prefetch_depth = depth;
        self
    }

    /// Sets the predictor configuration.
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// Sets the L2 geometry.
    pub fn l2(mut self, geometry: CacheGeometry) -> Self {
        self.config.l2 = geometry;
        self
    }

    /// Sets (or removes) the L3.
    pub fn l3(mut self, geometry: Option<CacheGeometry>) -> Self {
        self.config.l3 = geometry;
        self
    }

    /// Sets access latencies.
    pub fn latencies(mut self, lat: Latencies) -> Self {
        self.config.lat = lat;
        self
    }

    /// Renames the configuration (shown in reports).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn build(self) -> MachineConfig {
        if let Err(e) = self.config.validate() {
            panic!("invalid machine configuration: {e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_2() {
        let p4 = MachineConfig::pentium4();
        assert_eq!((p4.dispatch_width, p4.frontend_depth), (3, 31));
        assert_eq!((p4.lat.l2, p4.lat.mem, p4.lat.tlb), (31, 313, 70));
        let c2 = MachineConfig::core2();
        assert_eq!((c2.dispatch_width, c2.frontend_depth), (4, 14));
        assert_eq!((c2.lat.l2, c2.lat.mem, c2.lat.tlb), (19, 169, 30));
        let i7 = MachineConfig::core_i7();
        assert_eq!((i7.dispatch_width, i7.frontend_depth), (4, 14));
        assert_eq!(
            (i7.lat.l2, i7.lat.l3, i7.lat.mem, i7.lat.tlb),
            (14, 30, 160, 40)
        );
    }

    #[test]
    fn presets_match_table_1_cache_sizes() {
        let p4 = MachineConfig::pentium4();
        assert_eq!(p4.l2.size, 1024 * 1024);
        assert!(p4.l3.is_none());
        let c2 = MachineConfig::core2();
        assert_eq!(c2.l1d.size, 32 * 1024);
        assert_eq!(c2.l2.size, 4 * 1024 * 1024);
        let i7 = MachineConfig::core_i7();
        assert_eq!(i7.l2.size, 256 * 1024);
        assert_eq!(i7.l3.unwrap().size, 8 * 1024 * 1024);
    }

    #[test]
    fn all_presets_validate() {
        for m in MachineConfig::paper_machines() {
            m.validate().unwrap();
        }
    }

    #[test]
    fn predictor_quality_ladder() {
        // Paper §6: P4 predictor beats Core 2's; i7 beats both.
        let p4 = MachineConfig::pentium4().predictor;
        let c2 = MachineConfig::core2().predictor;
        let i7 = MachineConfig::core_i7().predictor;
        assert!(p4.log2_entries > c2.log2_entries);
        assert!(i7.log2_entries > p4.log2_entries);
    }

    #[test]
    fn cracking_ladder() {
        // Netburst cracks hardest; Nehalem fuses best.
        let p4 = MachineConfig::pentium4().cracking.factor;
        let c2 = MachineConfig::core2().cracking.factor;
        let i7 = MachineConfig::core_i7().cracking.factor;
        assert!(p4 > c2);
        assert!(c2 > i7);
    }

    #[test]
    fn builder_overrides() {
        let m = MachineConfig::builder(MachineConfig::core2())
            .mshrs(1)
            .name("core2-no-mlp")
            .build();
        assert_eq!(m.mshrs, 1);
        assert_eq!(m.name, "core2-no-mlp");
        // Base untouched elsewhere.
        assert_eq!(m.l2, MachineConfig::core2().l2);
    }

    #[test]
    #[should_panic(expected = "invalid machine")]
    fn builder_rejects_invalid() {
        let _ = MachineConfig::builder(MachineConfig::core2())
            .dispatch_width(0)
            .build();
    }

    #[test]
    fn fu_latency_table() {
        let fu = MachineConfig::core2().fu;
        assert_eq!(fu.latency(UopKind::IntAlu, 3), 1);
        assert_eq!(fu.latency(UopKind::Load, 3), 3);
        assert_eq!(fu.latency(UopKind::FpDiv, 3), 18);
    }

    #[test]
    fn preset_lookup_by_id() {
        for id in MachineId::ALL {
            assert_eq!(MachineConfig::preset(id).id, id);
        }
    }

    #[test]
    fn variant_ids_decode_to_overridden_presets() {
        let id = MachineId::variant("core2+rob192+mshr32+dw6+pf0").unwrap();
        let m = MachineConfig::preset(id);
        assert_eq!(m.id, id);
        assert_eq!(m.name, "core2+rob192+mshr32+dw6+pf0");
        assert_eq!(m.rob_size, 192);
        assert_eq!(m.mshrs, 32);
        assert_eq!(m.dispatch_width, 6);
        assert_eq!(m.prefetch_depth, 0);
        // Untouched axes keep the base preset's values.
        assert_eq!(m.l2, MachineConfig::core2().l2);
        assert_eq!(m.lat, MachineConfig::core2().lat);
        m.validate().unwrap();
    }

    #[test]
    fn front_key_separates_placement_from_timing() {
        let variant = |name: &str| MachineConfig::preset(MachineId::variant(name).unwrap());
        for base in MachineConfig::paper_machines() {
            let stem = base.id.name();
            // The timing axes of a sweep share the base's front end.
            for timing in ["rob192", "mshr4", "dw6", "rob64+mshr32+dw2"] {
                let config = variant(&format!("{stem}+{timing}"));
                assert_eq!(config.front_key(), base.front_key(), "{stem}+{timing}");
            }
            // The prefetcher places lines: a placement axis.
            let pf = base.prefetch_depth + 1;
            let config = variant(&format!("{stem}+pf{pf}"));
            assert_ne!(config.front_key(), base.front_key(), "{stem}+pf{pf}");
        }
        let machines = MachineConfig::paper_machines();
        for (i, a) in machines.iter().enumerate() {
            for b in &machines[i + 1..] {
                assert_ne!(a.front_key(), b.front_key(), "{:?} vs {:?}", a.id, b.id);
            }
        }
    }

    #[test]
    fn variant_decode_roundtrips_through_name_parse() {
        // A process that only ever saw the *name* (CSV, wire, snapshot
        // filename) rebuilds the identical machine.
        let id = MachineId::variant("corei7+pf0").unwrap();
        let direct = MachineConfig::preset(id);
        let reparsed = MachineConfig::preset("corei7+pf0".parse().unwrap());
        assert_eq!(direct, reparsed);
        assert_eq!(reparsed.prefetch_depth, 0);
    }
}
