//! A counting global allocator, standard library only.
//!
//! Counting is per thread and off by default, so the untraced run pays
//! one thread-local load per allocation and nothing else, and tests that
//! run on parallel threads never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting the blocks allocated (`alloc` and
/// `alloc_zeroed`; a `realloc` resizes a block and is not counted) on a
/// thread while [`counting`] is on there.
pub struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with` because the allocator can run while thread-locals are
    // being torn down; neither cell has a destructor, so this never
    // allocates or re-enters.
    let on = ON.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; `note` only
// touches two `const`-initialised thread-local `Cell`s and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller guarantees `layout` is valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller guarantees `layout` is valid.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the current thread.
pub fn counting(on: bool) {
    ON.with(|c| c.set(on));
}

/// Allocations counted on the current thread so far.
pub fn count() -> u64 {
    COUNT.with(Cell::get)
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations it made on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = count();
    counting(true);
    let out = f();
    counting(false);
    (out, count() - before)
}
