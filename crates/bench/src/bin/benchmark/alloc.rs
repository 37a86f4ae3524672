//! A counting global allocator, living in the benchmark bin only. While
//! the switch is off (every untraced iteration) an allocation pays one
//! relaxed load; while on, it also bumps two counters of its own thread,
//! which the span recorder snapshots at span open and close.
//!
//! The counters are per thread because shared ones cost `registry_jobs`
//! 83 % (two threads bouncing one cache line on every allocation) and
//! `world_build` 11 %. The price: only the harness thread's allocations
//! are attributed, so under `jobs = 2` the sweep workers' share is not
//! seen. Read the allocation metrics on `registry`, which does the same
//! work on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Counting;

// Relaxed: the switch publishes no data.
static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator neither allocates nor can fail.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// an atomic and two thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off, for every thread.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` the calling thread has counted so far.
pub fn counted() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
