//! A counting global allocator: counts allocations while switched on,
//! so the traced run can report allocations per committed transaction
//! as a deterministic work count.

// `GlobalAlloc` is an unsafe trait; this module is the benchmark's only
// unsafe code and forwards every call to the system allocator unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus a counter of `alloc` calls.
pub struct CountingAlloc;

/// Whether allocations are being counted. Off by default, so untimed
/// and untraced runs pay one relaxed load per allocation.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations made while counting was on. A statistic: it publishes
/// no other data, so relaxed ordering suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Every method forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over unchanged; the only addition is a
// relaxed atomic increment, which neither allocates nor touches memory.
// SAFETY: a pure forwarding wrapper around `System`, as stated above.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the contract is `GlobalAlloc::alloc`'s, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero size), which is exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the contract is `GlobalAlloc::alloc_zeroed`'s, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the contract is `GlobalAlloc::dealloc`'s, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, hence by
        // `System`, with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the contract is `GlobalAlloc::realloc`'s, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract, which `System` shares.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts the allocations `f` makes on every thread. Deterministic when
/// `f` is and runs single-threaded.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
