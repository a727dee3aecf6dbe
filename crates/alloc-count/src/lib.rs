//! A counting global allocator for allocation-budget tests.
//!
//! Install it in a test binary with
//! `#[global_allocator] static GLOBAL: CountingAllocator = CountingAllocator;`
//! and measure with [`allocations_in`]. Counting is **per thread** and off
//! until a measurement starts, so the tests of one binary can run in
//! parallel without seeing each other's allocations.
//!
//! This is the only crate in the workspace that contains `unsafe` (a
//! `GlobalAlloc` cannot be written without it); it is test-only and no
//! other crate depends on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is counting its allocations.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

/// The system allocator, counting every `alloc` and `realloc` of a thread
/// that is inside [`allocations_in`].
#[derive(Debug)]
pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter that never allocates (const-initialised `Cell`, no destructor)
// and never unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods of
        // this impl, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was returned by `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the number of allocations and
/// reallocations the calling thread made inside it.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let outer = ALLOCATIONS.replace(Some(0));
    let result = f();
    let counted = ALLOCATIONS.replace(outer).unwrap_or(0);
    (result, counted)
}

/// Runs `f` with the calling thread's counter paused — for the part of a
/// measured section that belongs to someone else (the server half of an
/// in-process round trip, say).
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let outer = ALLOCATIONS.replace(None);
    let result = f();
    ALLOCATIONS.set(outer);
    result
}
