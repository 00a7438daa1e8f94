//! Translation lookaside buffer model.
//!
//! A TLB is structurally a small set-associative cache of page translations;
//! we wrap [`Cache`] with page-granular addressing.

use crate::cache::Cache;

/// Page size used throughout the simulator (4 KiB, as on the modeled
/// machines' default configuration).
pub const PAGE_BYTES: u64 = 4096;

/// A set-associative TLB over 4 KiB pages.
///
/// # Examples
///
/// ```
/// use oosim::tlb::Tlb;
///
/// let mut tlb = Tlb::new(64, 4);
/// assert!(!tlb.access(0x1000));          // cold miss
/// assert!(tlb.access(0x1FFF));           // same page: hit
/// assert!(!tlb.access(0x2000));          // next page: miss
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Creates a TLB with `entries` translations and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, not divisible by `ways`, or `ways` is
    /// zero.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "zero TLB geometry");
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        Self {
            inner: Cache::new(entries as u64 * PAGE_BYTES, PAGE_BYTES, ways),
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.inner.sets() * self.inner.ways()
    }

    /// Translates the page of `addr`; returns `true` on TLB hit. Misses
    /// install the translation (page walk modeled as a fixed penalty by the
    /// pipeline, not here).
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_geometry() {
        let t = Tlb::new(64, 4);
        assert_eq!(t.entries(), 64);
    }

    #[test]
    fn page_granularity() {
        let mut t = Tlb::new(16, 4);
        t.access(0x0000);
        assert!(t.access(0x0FFF), "same page");
        assert!(!t.access(0x1000), "next page misses");
    }

    #[test]
    fn capacity_pressure() {
        let mut t = Tlb::new(16, 4);
        // Touch 64 distinct pages cyclically: every access misses under LRU.
        for round in 0..3 {
            for page in 0..64u64 {
                let hit = t.access(page * PAGE_BYTES);
                if round > 0 {
                    assert!(!hit, "64-page cyclic working set thrashes a 16-entry TLB");
                }
            }
        }
        assert_eq!(t.misses(), 192);
    }

    #[test]
    fn small_working_set_fits() {
        let mut t = Tlb::new(64, 4);
        for _ in 0..10 {
            for page in 0..32u64 {
                t.access(page * PAGE_BYTES);
            }
        }
        assert_eq!(t.misses(), 32, "only cold misses");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn rejects_ragged_geometry() {
        let _ = Tlb::new(10, 4);
    }
}
