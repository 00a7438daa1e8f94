//! Benchmark-run records: one benchmark, one machine, one counter bank.

use crate::counters::CounterSet;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

/// Which benchmark suite a workload belongs to.
///
/// The paper fits one model per suite per machine, and uses cross-suite
/// transfer (fit on CPU2000, evaluate on CPU2006 and vice versa) to probe
/// overfitting, so suite membership is first-class in a run record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Suite {
    /// SPEC CPU2000 (48 benchmark–input pairs in the paper).
    Cpu2000,
    /// SPEC CPU2006 (55 benchmark–input pairs in the paper).
    Cpu2006,
}

impl Suite {
    /// Stable lowercase identifier used in CSV files.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Cpu2000 => "cpu2000",
            Suite::Cpu2006 => "cpu2006",
        }
    }

    /// Both suites, in chronological order.
    pub const ALL: [Suite; 2] = [Suite::Cpu2000, Suite::Cpu2006];
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Suite`] or [`MachineId`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNameError {
    kind: &'static str,
    unknown: String,
    /// A well-formed variant name refused because the intern pool is full
    /// ([`MAX_VARIANT_NAMES`]).
    pool_full: bool,
}

impl ParseNameError {
    fn unknown(kind: &'static str, name: &str) -> Self {
        Self {
            kind,
            unknown: name.to_owned(),
            pool_full: false,
        }
    }
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pool_full {
            write!(
                f,
                "machine name `{}` refused: this process already holds \
                 {MAX_VARIANT_NAMES} distinct variant names",
                self.unknown
            )
        } else {
            write!(f, "unknown {} name `{}`", self.kind, self.unknown)
        }
    }
}

impl std::error::Error for ParseNameError {}

impl FromStr for Suite {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Suite::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .ok_or_else(|| ParseNameError::unknown("suite", s))
    }
}

/// The three commercial machines the paper models (Table 1), plus named
/// design-space variants of them.
///
/// A variant identifies a hypothetical machine derived from one of the
/// presets by overriding sweep axes, and is spelled
/// `<base>+<axis><value>...` with axes `rob` (ROB capacity), `mshr`
/// (MSHR count), `dw` (dispatch width) and `pf` (prefetch depth) — e.g.
/// `core2+rob192+mshr32`. Variant names are interned in a process-wide
/// pool, so the id stays `Copy` and two ids are equal exactly when their
/// names are equal. Parsing the same name twice (CSV, wire protocol,
/// snapshot files) always yields the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// Intel Pentium 4 (Netburst, Prescott): deep 31-stage pipeline, 3-wide.
    Pentium4,
    /// Intel Core 2 (Conroe): 14-stage pipeline, 4-wide, 4 MiB L2.
    Core2,
    /// Intel Core i7 (Nehalem, Bloomfield): 4-wide, 256 KiB L2 + 8 MiB L3.
    CoreI7,
    /// A named design-space variant of one of the presets; the payload is
    /// an index into the process-wide intern pool (see [`MachineId::variant`]).
    Variant(u32),
}

/// The most distinct variant names one process interns. Every name a
/// client sends is interned when parsed, registered or not, and interned
/// names live for the whole process, so the pool needs a ceiling:
/// sixteen full sweeps' worth ([`MAX_VARIANT_NAME_BYTES`] bytes each at
/// most, so at most 256 KiB in all). Past it, [`MachineId::variant`]
/// refuses new names; names already interned keep parsing.
pub const MAX_VARIANT_NAMES: usize = 4096;

/// The longest well-formed variant name, in bytes. The longest a sweep
/// mints is 59 (`pentium4` with all four axes at nine digits).
pub const MAX_VARIANT_NAME_BYTES: usize = 64;

/// Interned variant names: leaked to `&'static str` once and deduplicated
/// through a hash index, so index equality is name equality and `name()`
/// can keep returning `&'static str`.
#[derive(Debug, Default)]
struct VariantPool {
    names: Vec<&'static str>,
    index: HashMap<&'static str, u32>,
}

impl VariantPool {
    /// The index of `name`, interning it when it is new and the pool
    /// holds fewer than `capacity` names. `None` past the ceiling, having
    /// leaked nothing.
    fn intern(&mut self, name: &str, capacity: usize) -> Option<u32> {
        if let Some(&index) = self.index.get(name) {
            return Some(index);
        }
        if self.names.len() >= capacity {
            return None;
        }
        let index = u32::try_from(self.names.len()).ok()?;
        let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
        self.names.push(name);
        self.index.insert(name, index);
        Some(index)
    }
}

/// Why locking the pool cannot fail: no code panics while holding it.
const POOL_LOCK: &str = "the variant pool is never locked across a panic";

/// The process-wide [`VariantPool`].
fn variant_pool() -> &'static Mutex<VariantPool> {
    static POOL: OnceLock<Mutex<VariantPool>> = OnceLock::new();
    POOL.get_or_init(Mutex::default)
}

/// Is `s` a well-formed variant name: `<preset>+<axis><digits>...`, at
/// most [`MAX_VARIANT_NAME_BYTES`] long?
fn valid_variant_name(s: &str) -> bool {
    if s.len() > MAX_VARIANT_NAME_BYTES {
        return false;
    }
    let mut parts = s.split('+');
    let base_ok = parts
        .next()
        .is_some_and(|base| MachineId::ALL.iter().any(|m| m.name() == base));
    if !base_ok || !s.contains('+') {
        return false;
    }
    parts.all(|tok| {
        let digits = tok.find(|c: char| c.is_ascii_digit()).unwrap_or(tok.len());
        let (axis, value) = tok.split_at(digits);
        matches!(axis, "rob" | "mshr" | "dw" | "pf")
            && !value.is_empty()
            && value.len() <= 9
            && value.bytes().all(|b| b.is_ascii_digit())
    })
}

impl MachineId {
    /// Stable lowercase identifier used in CSV files.
    pub fn name(self) -> &'static str {
        match self {
            MachineId::Pentium4 => "pentium4",
            MachineId::Core2 => "core2",
            MachineId::CoreI7 => "corei7",
            MachineId::Variant(i) => variant_pool().lock().expect(POOL_LOCK).names[i as usize],
        }
    }

    /// Marketing name, matching Table 1's header row. Variants have no
    /// marketing name; their stable identifier is used everywhere.
    pub fn display_name(self) -> &'static str {
        match self {
            MachineId::Pentium4 => "Pentium 4",
            MachineId::Core2 => "Core 2",
            MachineId::CoreI7 => "Core i7",
            MachineId::Variant(_) => self.name(),
        }
    }

    /// Interns a design-space variant id, e.g. `core2+rob192+mshr32`.
    ///
    /// The name must be a preset name followed by one or more `+`-joined
    /// axis tokens (`rob`/`mshr`/`dw`/`pf` + digits), at most
    /// [`MAX_VARIANT_NAME_BYTES`] long. Interning is idempotent: the same
    /// name always returns the same id.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseNameError`] when the name is not well-formed, or
    /// when it is new and the process already interned
    /// [`MAX_VARIANT_NAMES`] names.
    pub fn variant(name: &str) -> Result<MachineId, ParseNameError> {
        Self::variant_in(
            &mut variant_pool().lock().expect(POOL_LOCK),
            name,
            MAX_VARIANT_NAMES,
        )
    }

    /// The preset `name` denotes — the preset itself, or the base of a
    /// well-formed variant name — without interning anything, so a
    /// caller that only needs the base (the cluster router's placement)
    /// never grows the pool. `None` for any other name.
    pub fn base_of(name: &str) -> Option<MachineId> {
        let base = name.split('+').next()?;
        let preset = MachineId::ALL.into_iter().find(|m| m.name() == base)?;
        (name == base || valid_variant_name(name)).then_some(preset)
    }

    /// [`MachineId::variant`] against an explicit pool and ceiling.
    fn variant_in(
        pool: &mut VariantPool,
        name: &str,
        capacity: usize,
    ) -> Result<MachineId, ParseNameError> {
        if !valid_variant_name(name) {
            return Err(ParseNameError::unknown("machine", name));
        }
        pool.intern(name, capacity)
            .map(MachineId::Variant)
            .ok_or_else(|| ParseNameError {
                pool_full: true,
                ..ParseNameError::unknown("machine", name)
            })
    }

    /// The preset a variant was derived from (`self` for the presets).
    pub fn base(self) -> MachineId {
        match self {
            MachineId::Variant(_) => {
                let base = self.name().split('+').next().expect("split is non-empty");
                base.parse().expect("variant names start with a preset")
            }
            preset => preset,
        }
    }

    /// Whether this id names a design-space variant rather than a preset.
    pub fn is_variant(self) -> bool {
        matches!(self, MachineId::Variant(_))
    }

    /// All three machines, in generation order (the order Fig. 2–6 use).
    pub const ALL: [MachineId; 3] = [MachineId::Pentium4, MachineId::Core2, MachineId::CoreI7];
}

impl Ord for MachineId {
    /// Presets sort in generation order before every variant; variants
    /// sort by name, so the order is stable across processes (the intern
    /// index is insertion order and would not be).
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(m: MachineId) -> u8 {
            match m {
                MachineId::Pentium4 => 0,
                MachineId::Core2 => 1,
                MachineId::CoreI7 => 2,
                MachineId::Variant(_) => 3,
            }
        }
        rank(*self)
            .cmp(&rank(*other))
            .then_with(|| match (self, other) {
                (MachineId::Variant(a), MachineId::Variant(b)) if a == b => Ordering::Equal,
                (MachineId::Variant(_), MachineId::Variant(_)) => self.name().cmp(other.name()),
                _ => Ordering::Equal,
            })
    }
}

impl PartialOrd for MachineId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for MachineId {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MachineId::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .map_or_else(|| MachineId::variant(s), Ok)
    }
}

/// A completed measurement: one benchmark–input pair run to completion on one
/// machine, with the full counter bank.
///
/// This is the unit of data flowing into model inference (Fig. 1 of the
/// paper): a set of `RunRecord`s for a suite on a machine is exactly the
/// training set for one model.
///
/// # Examples
///
/// ```
/// use pmu::{CounterSet, Event, MachineId, RunRecord, Suite};
///
/// let mut counters = CounterSet::new();
/// counters.add(Event::Cycles, 2_000);
/// counters.add(Event::UopsRetired, 1_000);
/// let record = RunRecord::new("gzip.graphic", Suite::Cpu2000, MachineId::Core2, counters);
/// assert_eq!(record.benchmark(), "gzip.graphic");
/// assert!((record.counters().cpi() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Interned: an `Arc<str>` rather than a `String`, because records are
    /// cloned throughout the serving stack (per-machine filtering, store
    /// snapshots, fitted-group payloads) — a campaign would otherwise
    /// reallocate every benchmark name on every copy. Cloning a record now
    /// bumps a refcount; the name bytes are shared with the workload
    /// profile that produced the run.
    benchmark: Arc<str>,
    suite: Suite,
    machine: MachineId,
    counters: CounterSet,
}

impl RunRecord {
    /// Creates a record from its parts. `benchmark` accepts `&str`,
    /// `String`, or — allocation-free — a shared `Arc<str>`.
    pub fn new(
        benchmark: impl Into<Arc<str>>,
        suite: Suite,
        machine: MachineId,
        counters: CounterSet,
    ) -> Self {
        Self {
            benchmark: benchmark.into(),
            suite,
            machine,
            counters,
        }
    }

    /// The interned benchmark name (share it to build further records or
    /// keys without copying the bytes).
    pub fn benchmark_arc(&self) -> Arc<str> {
        Arc::clone(&self.benchmark)
    }

    /// Benchmark–input pair name, e.g. `"gcc.200"`.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The suite this benchmark belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The machine the run executed on.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The collected counter bank.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Mutable access to the counter bank (used by the simulator while the
    /// run is in flight).
    pub fn counters_mut(&mut self) -> &mut CounterSet {
        &mut self.counters
    }

    /// Measured cycles per µop — the regression target.
    pub fn cpi(&self) -> f64 {
        self.counters.cpi()
    }
}

impl fmt::Display for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] on {}: CPI={:.3}",
            self.benchmark,
            self.suite,
            self.machine,
            self.cpi()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn sample() -> RunRecord {
        let mut c = CounterSet::new();
        c.add(Event::Cycles, 300);
        c.add(Event::UopsRetired, 100);
        RunRecord::new("mcf", Suite::Cpu2000, MachineId::Pentium4, c)
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.benchmark(), "mcf");
        assert_eq!(r.suite(), Suite::Cpu2000);
        assert_eq!(r.machine(), MachineId::Pentium4);
        assert!((r.cpi() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn suite_and_machine_parse_round_trip() {
        for s in Suite::ALL {
            assert_eq!(s.name().parse::<Suite>().unwrap(), s);
        }
        for m in MachineId::ALL {
            assert_eq!(m.name().parse::<MachineId>().unwrap(), m);
        }
        assert!("cpu99".parse::<Suite>().is_err());
        assert!("core9".parse::<MachineId>().is_err());
    }

    #[test]
    fn variant_interning_round_trips() {
        let v = MachineId::variant("core2+rob192+mshr32").unwrap();
        assert!(v.is_variant());
        assert_eq!(v.name(), "core2+rob192+mshr32");
        assert_eq!(v.display_name(), "core2+rob192+mshr32");
        assert_eq!(v.base(), MachineId::Core2);
        // Idempotent: every path to the same name is the same id.
        assert_eq!(MachineId::variant("core2+rob192+mshr32").unwrap(), v);
        assert_eq!("core2+rob192+mshr32".parse::<MachineId>().unwrap(), v);
        // A different spelling is a different machine.
        assert_ne!(MachineId::variant("core2+rob192").unwrap(), v);
    }

    #[test]
    fn variant_grammar_is_strict() {
        for bad in [
            "core9",               // unknown preset, no '+'
            "core9+rob192",        // unknown base
            "core2+",              // empty token
            "core2+rob",           // axis without value
            "core2+l2big",         // unknown axis
            "core2+rob19x2",       // trailing garbage in value
            "core2+rob1234567890", // value too long
            "+rob192",             // missing base
            "core2+ROB192",        // wrong case
        ] {
            assert!(bad.parse::<MachineId>().is_err(), "{bad} should not parse");
        }
        for good in ["core2+pf0", "pentium4+dw6", "corei7+rob256+mshr64+dw6+pf0"] {
            assert!(good.parse::<MachineId>().is_ok(), "{good} should parse");
        }
    }

    #[test]
    fn a_full_variant_pool_refuses_new_names_and_leaks_nothing() {
        let mut pool = VariantPool::default();
        let a = MachineId::variant_in(&mut pool, "core2+rob64", 2).unwrap();
        let b = MachineId::variant_in(&mut pool, "core2+rob96", 2).unwrap();
        assert_ne!(a, b);
        let refused = MachineId::variant_in(&mut pool, "core2+rob128", 2).unwrap_err();
        assert!(refused.to_string().contains("refused"), "{refused}");
        assert_eq!(pool.names.len(), 2, "a refused name is not interned");
        assert_eq!(pool.index.len(), 2);
        // Names interned before the ceiling keep resolving to their ids.
        assert_eq!(MachineId::variant_in(&mut pool, "core2+rob64", 2), Ok(a));
        assert_eq!(MachineId::variant_in(&mut pool, "core2+rob96", 2), Ok(b));
        // A malformed name is a plain parse error, full pool or not.
        let malformed = MachineId::variant_in(&mut pool, "core2+l2big", 2).unwrap_err();
        assert_eq!(malformed.to_string(), "unknown machine name `core2+l2big`");
    }

    #[test]
    fn base_of_names_the_preset_without_interning() {
        let before = variant_pool().lock().unwrap().names.len();
        assert_eq!(MachineId::base_of("core2"), Some(MachineId::Core2));
        assert_eq!(
            MachineId::base_of("corei7+pf2+rob9"),
            Some(MachineId::CoreI7)
        );
        assert_eq!(MachineId::base_of("core2+bogus1"), None);
        assert_eq!(MachineId::base_of("core9"), None);
        assert_eq!(MachineId::base_of(""), None);
        assert_eq!(variant_pool().lock().unwrap().names.len(), before);
    }

    #[test]
    fn variant_names_are_capped_in_length() {
        let longest = "pentium4+rob999999999+mshr999999999+dw999999999+pf999999999";
        assert!(longest.len() <= MAX_VARIANT_NAME_BYTES);
        assert!(longest.parse::<MachineId>().is_ok());
        let long = format!("core2{}", "+pf1".repeat(MAX_VARIANT_NAME_BYTES / 4));
        assert!(long.len() > MAX_VARIANT_NAME_BYTES);
        assert!(long.parse::<MachineId>().is_err());
    }

    #[test]
    fn variants_order_by_name_after_presets() {
        let a = MachineId::variant("core2+rob192").unwrap();
        let b = MachineId::variant("core2+mshr32").unwrap();
        // Interned out of alphabetical order on purpose; Ord uses names.
        assert!(b < a, "mshr32 sorts before rob192");
        assert!(MachineId::CoreI7 < b, "presets sort before variants");
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn cloning_a_record_shares_the_interned_name() {
        let name: Arc<str> = "gzip.graphic".into();
        let r = RunRecord::new(
            Arc::clone(&name),
            Suite::Cpu2000,
            MachineId::Core2,
            CounterSet::new(),
        );
        let copy = r.clone();
        // Record copies (store snapshots, group payloads) bump a refcount;
        // the name bytes are never reallocated.
        assert!(Arc::ptr_eq(&copy.benchmark_arc(), &name));
        assert_eq!(copy.benchmark(), "gzip.graphic");
    }

    #[test]
    fn counters_mut_updates_cpi() {
        let mut r = sample();
        r.counters_mut().add(Event::Cycles, 300);
        assert!((r.cpi() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_parts() {
        let text = sample().to_string();
        assert!(text.contains("mcf"));
        assert!(text.contains("cpu2000"));
        assert!(text.contains("Pentium 4"));
    }
}
