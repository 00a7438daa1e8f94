//! Live counter sources: performance events sampled in timed batches.
//!
//! The paper's measurement side runs on *real hardware*: perfex/perfmon read
//! the PMU while SPEC runs, and the modeling side consumes the resulting
//! counter dumps. This module is the live half of that workflow. A
//! [`LiveSource`] yields [`RunRecord`] batches one at a time — the streaming
//! analogue of a CSV campaign — and a consumer (the `cpistack watch` CLI,
//! `core`'s streaming pump) pushes each batch into a running service and
//! refits incrementally.
//!
//! Two sources are provided:
//!
//! * [`ReplaySource`] — deterministic and hardware-free: replays a recorded
//!   set of records (from memory or a CSV dump) in fixed-size batches,
//!   optionally for several rounds with a seeded ±1% counter jitter to mimic
//!   run-to-run sampling noise. Every streaming code path is CI-testable
//!   through it, and a recorded live session replays **byte-exact** on the
//!   first round.
//! * `PerfSource` — a Linux `perf_event_open(2)` backend behind the
//!   `perf-events` cargo feature. It samples the calling process's hardware
//!   counters over a configurable window via raw syscalls (no libc
//!   dependency) and maps the generic hardware events onto the subset of
//!   [`Event`](crate::Event)s a stock PMU exposes; unmapped events read zero.
//!
//! # Examples
//!
//! ```
//! use pmu::live::{LiveSource, ReplaySource};
//! use pmu::{CounterSet, Event, MachineId, RunRecord, Suite};
//!
//! let mut c = CounterSet::new();
//! c.add(Event::Cycles, 1_000);
//! c.add(Event::UopsRetired, 800);
//! let records = vec![RunRecord::new("swim", Suite::Cpu2000, MachineId::Core2, c)];
//! let mut source = ReplaySource::new(records.clone()).batch_size(4);
//! assert_eq!(source.next_batch(), Some(records));
//! assert_eq!(source.next_batch(), None);
//! ```

use crate::csv;
use crate::record::RunRecord;

/// A source of counter batches: the streaming analogue of a CSV campaign.
///
/// Implementations yield batches until the stream ends (`None`). The trait is
/// object-safe so consumers can hold a `Box<dyn LiveSource>` and swap a
/// hardware sampler for a deterministic replay in tests.
pub trait LiveSource {
    /// One-line human description of the source (used in watch banners).
    fn describe(&self) -> String;

    /// Produces the next batch of records, or `None` when the stream ends.
    ///
    /// A batch is never empty: sources skip over empty windows rather than
    /// yielding `Some(vec![])`.
    fn next_batch(&mut self) -> Option<Vec<RunRecord>>;
}

/// Deterministic, replayable counter source.
///
/// Replays a fixed record set in `batch_size`-sized batches, optionally for
/// several `rounds`. The first round replays the records **verbatim** (so a
/// recorded live session round-trips byte-exact); subsequent rounds can apply
/// a seeded ±1% multiplicative jitter to every non-zero counter, mimicking
/// the run-to-run noise of a stationary live workload. Everything is a pure
/// function of the inputs — two `ReplaySource`s built the same way yield
/// identical batches.
///
/// # Examples
///
/// ```
/// use pmu::live::{LiveSource, ReplaySource};
/// use pmu::{CounterSet, Event, MachineId, RunRecord, Suite};
///
/// let mut c = CounterSet::new();
/// c.add(Event::Cycles, 500);
/// let records = vec![
///     RunRecord::new("a", Suite::Cpu2000, MachineId::Core2, c.clone()),
///     RunRecord::new("b", Suite::Cpu2000, MachineId::Core2, c.clone()),
///     RunRecord::new("c", Suite::Cpu2000, MachineId::Core2, c),
/// ];
/// let mut source = ReplaySource::new(records).batch_size(2).rounds(2);
/// let mut batches = 0;
/// while let Some(batch) = source.next_batch() {
///     assert!(!batch.is_empty());
///     batches += 1;
/// }
/// assert_eq!(batches, 4); // ceil(3/2) batches per round, two rounds
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySource {
    records: Vec<RunRecord>,
    batch_size: usize,
    rounds: usize,
    jitter: Option<u64>,
    round: usize,
    cursor: usize,
}

impl ReplaySource {
    /// Creates a replay over `records` with a batch size of 8 and one round.
    pub fn new(records: Vec<RunRecord>) -> Self {
        ReplaySource {
            records,
            batch_size: 8,
            rounds: 1,
            jitter: None,
            round: 0,
            cursor: 0,
        }
    }

    /// Creates a replay from a CSV dump produced by [`csv::to_csv`] (or a
    /// recorded watch session).
    ///
    /// # Errors
    ///
    /// Returns [`csv::ParseCsvError`] when the text is not a valid record
    /// dump.
    pub fn from_csv(text: &str) -> Result<Self, csv::ParseCsvError> {
        Ok(ReplaySource::new(csv::from_csv(text)?))
    }

    /// Sets the number of records per batch (clamped to at least 1).
    #[must_use]
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Sets how many passes over the record set to replay (clamped to at
    /// least 1).
    #[must_use]
    pub fn rounds(mut self, n: usize) -> Self {
        self.rounds = n.max(1);
        self
    }

    /// Enables seeded ±1% counter jitter on rounds after the first.
    ///
    /// Round 0 always replays verbatim, so record-and-replay stays
    /// byte-exact; later rounds perturb each non-zero counter by a
    /// deterministic factor in `[0.99, 1.01)` keyed on
    /// `(seed, round, record, event)`.
    #[must_use]
    pub fn jitter(mut self, seed: u64) -> Self {
        self.jitter = Some(seed);
        self
    }

    /// Number of records in one replay round.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the replay holds no records (and will yield no batches).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total batches this source will yield across all rounds.
    pub fn total_batches(&self) -> usize {
        if self.records.is_empty() {
            0
        } else {
            self.records.len().div_ceil(self.batch_size) * self.rounds
        }
    }

    fn jittered(&self, record: &RunRecord, index: usize) -> RunRecord {
        let seed = match self.jitter {
            // Round 0 is always verbatim so recorded sessions replay exactly.
            Some(seed) if self.round > 0 => seed,
            _ => return record.clone(),
        };
        let mut out = record.clone();
        for event in crate::event::Event::ALL {
            let v = out.counters().get(event);
            if v == 0 {
                continue;
            }
            let h = mix64(
                seed ^ ((self.round as u64) << 48) ^ ((index as u64) << 24) ^ event.index() as u64,
            );
            // 53 uniform bits -> [0, 1), mapped to a factor in [0.99, 1.01).
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            let factor = 0.99 + 0.02 * unit;
            out.counters_mut()
                .set(event, ((v as f64 * factor).round() as u64).max(1));
        }
        out
    }
}

impl LiveSource for ReplaySource {
    fn describe(&self) -> String {
        format!(
            "replay: {} records x {} round(s), batch {}{}",
            self.records.len(),
            self.rounds,
            self.batch_size,
            match self.jitter {
                Some(seed) => format!(", jitter seed {seed}"),
                None => String::new(),
            }
        )
    }

    fn next_batch(&mut self) -> Option<Vec<RunRecord>> {
        if self.records.is_empty() || self.round >= self.rounds {
            return None;
        }
        let end = self
            .cursor
            .saturating_add(self.batch_size)
            .min(self.records.len());
        let batch: Vec<RunRecord> = (self.cursor..end)
            .map(|i| self.jittered(&self.records[i], i))
            .collect();
        self.cursor = end;
        if self.cursor >= self.records.len() {
            self.cursor = 0;
            self.round += 1;
        }
        Some(batch)
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer used to derive
/// per-(round, record, event) jitter without carrying RNG state.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(all(feature = "perf-events", target_os = "linux"))]
pub use perf::PerfSource;

/// `perf_event_open(2)` backend: samples the calling process's hardware
/// counters in timed windows. Linux-only, behind the `perf-events` feature.
#[cfg(all(feature = "perf-events", target_os = "linux"))]
pub mod perf {
    use super::LiveSource;
    use crate::counters::CounterSet;
    use crate::event::Event;
    use crate::record::{MachineId, RunRecord, Suite};
    use std::io;

    /// `PERF_ATTR_SIZE_VER0`: the original 64-byte `perf_event_attr`, enough
    /// for plain hardware counters on every kernel since 2.6.32.
    const PERF_ATTR_SIZE_VER0: u32 = 64;
    /// `PERF_TYPE_HARDWARE`.
    const PERF_TYPE_HARDWARE: u32 = 0;

    /// The leading fields of `perf_event_attr`, laid out exactly as the
    /// kernel's VER0 struct (the `size` field tells the kernel to ignore
    /// everything newer). Flag bits live in `flags`; all zero means "start
    /// enabled, count this task only".
    #[repr(C)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        config1: u64,
    }

    /// Maps a model [`Event`] onto a generic `PERF_COUNT_HW_*` config.
    ///
    /// Stock PMUs expose only a subset of the model's event set through the
    /// generic interface; unmapped events read zero in the produced records.
    /// Micro-ops are approximated by retired instructions (exact only for
    /// one-µop ISAs; a real deployment would program the machine-specific
    /// uops_retired event via `PERF_TYPE_RAW`).
    fn hw_config(event: Event) -> Option<u64> {
        match event {
            Event::Cycles => Some(0),            // PERF_COUNT_HW_CPU_CYCLES
            Event::UopsRetired => Some(1),       // approximated by instructions
            Event::InstrRetired => Some(1),      // PERF_COUNT_HW_INSTRUCTIONS
            Event::LlcDataMisses => Some(3),     // PERF_COUNT_HW_CACHE_MISSES
            Event::Branches => Some(4),          // PERF_COUNT_HW_BRANCH_INSTRUCTIONS
            Event::BranchMispredicts => Some(5), // PERF_COUNT_HW_BRANCH_MISSES
            _ => None,
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const PERF_EVENT_OPEN: u64 = 298;
        pub const READ: u64 = 0;
        pub const CLOSE: u64 = 3;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const PERF_EVENT_OPEN: u64 = 241;
        pub const READ: u64 = 63;
        pub const CLOSE: u64 = 57;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall5(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall5(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            options(nostack)
        );
        ret
    }

    /// Unsupported architectures fail at runtime with `ENOSYS` rather than
    /// failing the build: the feature gate still compiles everywhere.
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    unsafe fn syscall5(_n: u64, _a: u64, _b: u64, _c: u64, _d: u64, _e: u64) -> i64 {
        -38 // ENOSYS
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    fn sys_perf_event_open(attr: &PerfEventAttr, pid: i64, cpu: i64) -> io::Result<i32> {
        let ret = unsafe {
            syscall5(
                nr::PERF_EVENT_OPEN,
                attr as *const PerfEventAttr as u64,
                pid as u64,
                cpu as u64,
                (-1i64) as u64, // group_fd: no grouping
                0,              // flags
            )
        };
        Ok(check(ret)? as i32)
    }

    fn sys_read_u64(fd: i32) -> io::Result<u64> {
        let mut buf = 0u64;
        let ret = unsafe { syscall5(nr::READ, fd as u64, &mut buf as *mut u64 as u64, 8, 0, 0) };
        if check(ret)? != 8 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short counter read",
            ));
        }
        Ok(buf)
    }

    fn sys_close(fd: i32) {
        unsafe {
            syscall5(nr::CLOSE, fd as u64, 0, 0, 0, 0);
        }
    }

    /// Live hardware counters for the calling process.
    ///
    /// Each `next_batch` reads the counters, sleeps for the sampling window,
    /// reads them again, and yields one [`RunRecord`] holding the deltas.
    /// Counter file descriptors are opened once and closed on drop.
    pub struct PerfSource {
        benchmark: String,
        suite: Suite,
        machine: MachineId,
        window_ms: u64,
        batches: usize,
        emitted: usize,
        fds: Vec<(Event, i32)>,
    }

    impl PerfSource {
        /// Opens hardware counters for the calling process.
        ///
        /// # Errors
        ///
        /// Returns the OS error when no generic hardware event can be opened
        /// — typically `EACCES` under a restrictive
        /// `kernel.perf_event_paranoid`, or `ENOSYS` on unsupported
        /// architectures.
        pub fn open(benchmark: &str, suite: Suite, machine: MachineId) -> io::Result<Self> {
            let mut fds = Vec::new();
            let mut first_err = None;
            for event in Event::ALL {
                let Some(config) = hw_config(event) else {
                    continue;
                };
                let attr = PerfEventAttr {
                    type_: PERF_TYPE_HARDWARE,
                    size: PERF_ATTR_SIZE_VER0,
                    config,
                    sample_period: 0,
                    sample_type: 0,
                    read_format: 0,
                    flags: 0,
                    wakeup_events: 0,
                    bp_type: 0,
                    config1: 0,
                };
                // pid 0 = this task, cpu -1 = any CPU it runs on.
                match sys_perf_event_open(&attr, 0, -1) {
                    Ok(fd) => fds.push((event, fd)),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            if fds.is_empty() {
                return Err(first_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::Unsupported, "no hardware events")
                }));
            }
            Ok(PerfSource {
                benchmark: benchmark.to_owned(),
                suite,
                machine,
                window_ms: 100,
                batches: 1,
                emitted: 0,
                fds,
            })
        }

        /// Sets the sampling window per batch in milliseconds.
        #[must_use]
        pub fn window_ms(mut self, ms: u64) -> Self {
            self.window_ms = ms;
            self
        }

        /// Sets how many batches to emit before the stream ends.
        #[must_use]
        pub fn batches(mut self, n: usize) -> Self {
            self.batches = n.max(1);
            self
        }

        fn read_all(&self) -> io::Result<Vec<u64>> {
            self.fds.iter().map(|&(_, fd)| sys_read_u64(fd)).collect()
        }
    }

    impl Drop for PerfSource {
        fn drop(&mut self) {
            for &(_, fd) in &self.fds {
                sys_close(fd);
            }
        }
    }

    impl LiveSource for PerfSource {
        fn describe(&self) -> String {
            format!(
                "perf: {} hardware events, {} ms window, {} batch(es)",
                self.fds.len(),
                self.window_ms,
                self.batches
            )
        }

        fn next_batch(&mut self) -> Option<Vec<RunRecord>> {
            if self.emitted >= self.batches {
                return None;
            }
            let before = self.read_all().ok()?;
            std::thread::sleep(std::time::Duration::from_millis(self.window_ms));
            let after = self.read_all().ok()?;
            let mut counters = CounterSet::new();
            for ((&(event, _), b), a) in self.fds.iter().zip(&before).zip(&after) {
                counters.set(event, a.saturating_sub(*b));
            }
            self.emitted += 1;
            Some(vec![RunRecord::new(
                self.benchmark.as_str(),
                self.suite,
                self.machine,
                counters,
            )])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;
    use crate::event::Event;
    use crate::record::{MachineId, Suite};

    fn records(n: usize) -> Vec<RunRecord> {
        (0..n)
            .map(|i| {
                let mut c = CounterSet::new();
                c.set(Event::Cycles, 1_000 + i as u64 * 17);
                c.set(Event::UopsRetired, 800 + i as u64 * 13);
                c.set(Event::L1DataMisses, 5 + i as u64);
                RunRecord::new(
                    format!("bench.{i}").as_str(),
                    Suite::Cpu2000,
                    MachineId::Core2,
                    c,
                )
            })
            .collect()
    }

    #[test]
    fn batches_partition_the_record_set() {
        let recs = records(7);
        let mut src = ReplaySource::new(recs.clone()).batch_size(3);
        let mut seen = Vec::new();
        while let Some(batch) = src.next_batch() {
            assert!(!batch.is_empty() && batch.len() <= 3);
            seen.extend(batch);
        }
        assert_eq!(seen, recs);
    }

    #[test]
    fn rounds_repeat_without_jitter() {
        let recs = records(4);
        let mut src = ReplaySource::new(recs.clone()).batch_size(2).rounds(3);
        assert_eq!(src.total_batches(), 6);
        let mut seen = Vec::new();
        while let Some(batch) = src.next_batch() {
            seen.extend(batch);
        }
        assert_eq!(seen.len(), 12);
        assert_eq!(&seen[..4], &recs[..]);
        assert_eq!(&seen[4..8], &recs[..]);
        assert_eq!(&seen[8..], &recs[..]);
    }

    #[test]
    fn jitter_is_deterministic_and_first_round_exact() {
        let recs = records(3);
        let run = |seed| {
            let mut src = ReplaySource::new(recs.clone())
                .batch_size(2)
                .rounds(2)
                .jitter(seed);
            let mut seen = Vec::new();
            while let Some(batch) = src.next_batch() {
                seen.extend(batch);
            }
            seen
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay identically");
        // Round 0 is verbatim.
        assert_eq!(&a[..3], &recs[..]);
        // Round 1 is perturbed but within ±1%, never zeroing a live counter.
        let mut changed = false;
        for (orig, jit) in recs.iter().zip(&a[3..]) {
            assert_eq!(orig.benchmark(), jit.benchmark());
            for e in Event::ALL {
                let (o, j) = (orig.counters().get(e), jit.counters().get(e));
                if o == 0 {
                    assert_eq!(j, 0);
                    continue;
                }
                assert!(j >= 1);
                let rel = (j as f64 - o as f64).abs() / o as f64;
                assert!(rel <= 0.011, "jitter {rel} out of bounds for {e}");
                changed |= o != j;
            }
        }
        assert!(changed, "jitter should perturb at least one counter");
        let c = run(43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn csv_round_trip_replays_byte_exact() {
        let recs = records(5);
        let text = crate::csv::to_csv(&recs);
        let mut src = ReplaySource::from_csv(&text).unwrap().batch_size(2);
        let mut seen = Vec::new();
        while let Some(batch) = src.next_batch() {
            seen.extend(batch);
        }
        assert_eq!(seen, recs);
        assert_eq!(crate::csv::to_csv(&seen), text);
    }

    #[test]
    fn empty_replay_yields_nothing() {
        let mut src = ReplaySource::new(Vec::new());
        assert!(src.is_empty());
        assert_eq!(src.total_batches(), 0);
        assert_eq!(src.next_batch(), None);
    }

    #[test]
    fn describe_names_the_shape() {
        let src = ReplaySource::new(records(2))
            .batch_size(4)
            .rounds(3)
            .jitter(9);
        let d = src.describe();
        assert!(d.contains("2 records") && d.contains("3 round(s)") && d.contains("seed 9"));
    }
}
