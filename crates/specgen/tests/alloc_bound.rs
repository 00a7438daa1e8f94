//! Deterministic memory bounds for [`TraceGenerator`], measured by a counting
//! global allocator rather than by RSS (which depends on the allocator's
//! arenas and on what else the process has touched).
//!
//! A generator's decode memo must grow with the static code a run visits,
//! not with the profile's whole code footprint: building one is cheap for
//! every shipped profile, and a run allocates far less than one 32-byte
//! entry per static instruction.
//!
//! Run with `--nocapture` to see the measured bytes.

use specgen::{suites, Cracking, TraceGenerator, WorkloadProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread asks for; frees are not subtracted, so the
/// count is everything requested since the thread's last [`reset`].
struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn add(bytes: usize) {
    // `try_with`: a thread's destructors may still allocate after its
    // thread-local slots are gone.
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Builds and drops one generator for `profile`, so the process-wide
/// tables generators share (built once per distinct dep-distance mean, by
/// whichever thread asks first) exist before a measurement starts and the
/// count is the same whichever test runs first.
fn warm_shared_tables(profile: &WorkloadProfile) {
    drop(TraceGenerator::new(profile, Cracking::default(), 0));
}

/// Bytes this thread requests while running `f`.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Bytes of the dense memo this bound replaces: one 32-byte
/// `Option<StaticInstr>` per static instruction slot (4-byte instructions,
/// at least 64 slots).
fn dense_table_bytes(profile: &WorkloadProfile) -> u64 {
    (profile.code_footprint / 4).max(64) * 32
}

#[test]
fn construction_allocates_at_most_64_kib_for_every_shipped_profile() {
    const BOUND: u64 = 64 * 1024;
    let mut worst = (0u64, String::new());
    for profile in suites::cpu2000().into_iter().chain(suites::cpu2006()) {
        warm_shared_tables(&profile);
        let (gen, bytes) = requested_by(|| TraceGenerator::new(&profile, Cracking::default(), 1));
        drop(gen);
        assert!(
            bytes <= BOUND,
            "TraceGenerator::new({}) requested {bytes} bytes (bound {BOUND})",
            profile.name
        );
        if bytes > worst.0 {
            worst = (bytes, profile.name.to_string());
        }
    }
    eprintln!("largest construction: {} ({} bytes)", worst.1, worst.0);
}

#[test]
fn a_100k_uop_run_allocates_under_a_quarter_of_the_dense_table() {
    let profile = suites::cpu2006()
        .into_iter()
        .find(|p| p.name.as_ref() == "gcc.166")
        .expect("CPU2006 gcc.166");
    let dense = dense_table_bytes(&profile);
    warm_shared_tables(&profile);
    let (checksum, bytes) = requested_by(|| {
        TraceGenerator::new(&profile, Cracking::default(), 1)
            .take(100_000)
            .fold(0u64, |acc, op| acc.wrapping_add(op.pc))
    });
    eprintln!(
        "gcc.166 (CPU2006), 100k µops: {bytes} bytes requested; dense table {dense} bytes \
         (pc checksum {checksum:#x})"
    );
    assert!(
        bytes * 4 < dense,
        "100k µops of gcc.166 requested {bytes} bytes, not under a quarter of {dense}"
    );
}
