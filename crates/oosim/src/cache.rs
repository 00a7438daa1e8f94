//! Set-associative cache model with LRU replacement.
//!
//! The simulator only needs tag arrays — hit/miss decisions and replacement —
//! never data. One [`Cache`] instance models one level; the
//! [`hierarchy`](crate::memory) composes levels per machine.

/// A set-associative, LRU, write-allocate tag array.
///
/// # Examples
///
/// ```
/// use oosim::cache::Cache;
///
/// // 4 KiB, 64-byte lines, 2-way.
/// let mut cache = Cache::new(4096, 64, 2);
/// assert!(!cache.access(0x1000)); // cold miss
/// assert!(cache.access(0x1000));  // hit
/// assert!(cache.access(0x1038));  // same line hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `log2(sets)` when the set count is a power of two (every paper
    /// cache and TLB): the set index is then a mask and the tag a shift.
    /// `None` keeps the division path for other geometries.
    set_shift: Option<u32>,
    /// Tag per (set, way); `u64::MAX` marks invalid.
    tags: Vec<u64>,
    /// LRU stamp per (set, way); larger = more recent.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `line_bytes` is not a power of two,
    /// or the geometry is inconsistent (size not divisible into whole sets).
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            size_bytes > 0 && line_bytes > 0 && ways > 0,
            "zero geometry"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        assert!(
            lines >= ways as u64 && lines.is_multiple_of(ways as u64),
            "size/line/ways geometry inconsistent: {lines} lines, {ways} ways"
        );
        let sets = (lines / ways as u64) as usize;
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1u64 << self.line_shift)
    }

    /// The first tag-array slot of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & ((1 << shift) - 1), line >> shift),
            None => (line % self.sets as u64, line / self.sets as u64),
        };
        (set as usize * self.ways, tag)
    }

    /// Looks up `addr`, updating LRU state and allocating on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (base, tag) = self.locate(addr);
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.tick;
            self.hits += 1;
            return true;
        }
        // Miss: replace the LRU way.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        self.misses += 1;
        false
    }

    /// Installs the line containing `addr` without touching hit/miss
    /// statistics — used for prefetch fills, which are not demand accesses.
    /// The installed line becomes most-recently-used.
    pub fn install(&mut self, addr: u64) {
        self.tick += 1;
        let (base, tag) = self.locate(addr);
        if let Some(way) = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
        {
            self.stamps[base + way] = self.tick;
            return;
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
    }

    /// Probe without updating state: would `addr` hit?
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = Cache::new(32 * 1024, 64, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_lines() {
        let _ = Cache::new(1024, 48, 2);
    }

    #[test]
    #[should_panic(expected = "geometry inconsistent")]
    fn rejects_inconsistent_geometry() {
        let _ = Cache::new(1024, 64, 3); // 16 lines do not divide into 3 ways
    }

    #[test]
    fn hit_after_miss() {
        let mut c = Cache::new(4096, 64, 2);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = Cache::new(4096, 64, 2);
        c.access(0x1000);
        assert!(c.access(0x103F));
        assert!(!c.access(0x1040), "next line is separate");
    }

    #[test]
    fn lru_eviction_order() {
        // Direct-mapped-per-set behaviour: 2 ways, force 3 conflicting lines.
        let mut c = Cache::new(4096, 64, 2);
        let sets = c.sets() as u64;
        let conflict = |i: u64| i * sets * 64; // same set, distinct tags
        c.access(conflict(0));
        c.access(conflict(1));
        c.access(conflict(0)); // touch 0 so 1 is LRU
        c.access(conflict(2)); // evicts 1
        assert!(c.probe(conflict(0)));
        assert!(!c.probe(conflict(1)));
        assert!(c.probe(conflict(2)));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(4096, 64, 4);
        // Two sweeps over 16 KiB: second sweep still misses everywhere (LRU).
        for sweep in 0..2 {
            for line in 0..256u64 {
                c.access(line * 64);
            }
            if sweep == 0 {
                assert_eq!(c.misses(), 256);
            }
        }
        assert_eq!(c.misses(), 512, "LRU gets zero reuse from a cyclic sweep");
    }

    #[test]
    fn working_set_smaller_than_capacity_fits() {
        let mut c = Cache::new(32 * 1024, 64, 8);
        for _ in 0..4 {
            for line in 0..128u64 {
                c.access(line * 64); // 8 KiB working set
            }
        }
        assert_eq!(c.misses(), 128, "only cold misses");
        assert_eq!(c.hits(), 3 * 128);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = Cache::new(4096, 64, 2);
        c.access(0x40);
        let before = (c.hits(), c.misses());
        assert!(c.probe(0x40));
        let _ = c.probe(0x4000_0040); // miss probe must not mutate either
        assert_eq!((c.hits(), c.misses()), before);
    }

    /// The same geometry forced onto the division path: the oracle for
    /// the mask-and-shift set index.
    fn division_path(c: &Cache) -> Cache {
        Cache {
            set_shift: None,
            ..c.clone()
        }
    }

    #[test]
    fn set_index_path_is_chosen_by_geometry() {
        assert_eq!(Cache::new(32 * 1024, 64, 8).set_shift, Some(6));
        assert_eq!(Cache::new(64 * 4096, 4096, 4).set_shift, Some(4));
        // 1536 sets: a 6 MiB, 64-byte-line, 64-way geometry.
        let odd = Cache::new(6 << 20, 64, 64);
        assert_eq!((odd.sets(), odd.set_shift), (1536, None));
    }

    /// Replays `ops` (`(addr, install?)`) on both caches; every access,
    /// install and probe must agree, as must the final tag and LRU state.
    fn replay_agrees(fast: &mut Cache, slow: &mut Cache, ops: &[(u64, bool)]) -> bool {
        for &(addr, install) in ops {
            if fast.probe(addr) != slow.probe(addr) {
                return false;
            }
            if install {
                fast.install(addr);
                slow.install(addr);
            } else if fast.access(addr) != slow.access(addr) {
                return false;
            }
        }
        fast.tags == slow.tags && fast.stamps == slow.stamps && fast.hits == slow.hits
    }

    /// A cache with a power-of-two set count, from log2 of its size, line
    /// and ways (clamped into a consistent geometry).
    fn pow2_geometry(size_log2: u32, line_log2: u32, ways_log2: u32) -> Cache {
        let line_log2 = line_log2.min(size_log2);
        let ways_log2 = ways_log2.min(size_log2 - line_log2);
        Cache::new(1 << size_log2, 1 << line_log2, 1 << ways_log2)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn mask_path_matches_division_path(
            size_log2 in 10u32..22,
            line_log2 in 5u32..13,
            ways_log2 in 0u32..4,
            ops in proptest::collection::vec((0u64..1 << 24, 0u8..8), 1..400),
        ) {
            let mut fast = pow2_geometry(size_log2, line_log2, ways_log2);
            proptest::prop_assert!(fast.set_shift.is_some());
            let mut slow = division_path(&fast);
            // Fold the draws onto a few times the capacity so sets see
            // both hits and conflict evictions; one op in eight installs.
            let span = fast.capacity() * 4;
            let ops: Vec<(u64, bool)> = ops
                .into_iter()
                .map(|(a, k)| (a % span, k == 0))
                .collect();
            proptest::prop_assert!(replay_agrees(&mut fast, &mut slow, &ops));
        }

        #[test]
        fn non_pow2_sets_keep_the_division_path(
            ops in proptest::collection::vec((0u64..1536, 0u64..8, 0u8..2, 0u64..64), 1..2000),
        ) {
            // 1536 sets × 4 ways × 64 B: every access must hit or miss as a
            // plain modulo/quotient LRU reference says. Lines are `k` sets
            // apart for `k` in 0..8 (more lines than ways per set), half of
            // them on the first 16 sets, so sets see reuse and evictions.
            let mut c = Cache::new(1536 * 4 * 64, 64, 4);
            proptest::prop_assert_eq!(c.set_shift, None);
            let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 1536];
            for (set, k, hot, offset) in ops {
                let set = if hot == 1 { set % 16 } else { set };
                let addr = ((k * 1536 + set) << 6) | offset;
                let line = addr >> 6;
                let (set, tag) = ((line % 1536) as usize, line / 1536);
                let lru = &mut reference[set];
                let hit = match lru.iter().position(|&t| t == tag) {
                    Some(p) => {
                        lru.remove(p);
                        true
                    }
                    None => {
                        if lru.len() == 4 {
                            lru.remove(0);
                        }
                        false
                    }
                };
                lru.push(tag);
                proptest::prop_assert_eq!(c.access(addr), hit);
            }
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(4096, 64, 2);
        c.access(0x40);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.probe(0x40));
    }
}
