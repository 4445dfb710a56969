//! A counting global allocator for the traced run.
//!
//! Only the `distbench_traced` binary installs [`CountingAlloc`]; the
//! end-to-end binary keeps the system allocator untouched. Counting is
//! further gated by [`set_counting`], so the untraced reference operations
//! that the traced binary replays for its fidelity check count nothing.
//! Counts are kept per thread, which lets the span recorder attribute each
//! allocation to the innermost span open on the allocating thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised `Cell`s have no destructor and never allocate, so
    // the allocator may touch them at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Delegates to [`System`] and counts allocations while counting is on.
pub struct CountingAlloc;

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = PAUSED.try_with(|p| {
            if !p.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` without counting its allocations on this thread: the span
/// recorder's own bookkeeping must not be charged to the spans it records.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}
