//! Peak heap accounting: the system allocator, counting each thread's
//! live and peak bytes.
//!
//! A repetition's memory cost is the peak of the bytes it holds live on
//! the heap, above what its thread held when it started. Unlike the
//! process's peak resident set, this does not depend on how much freed
//! memory the allocator kept from earlier repetitions. Counters are
//! per thread, so concurrent tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(live, peak)` bytes allocated by this thread. Signed: a block
    /// freed on another thread than the one that allocated it lowers the
    /// freeing thread's count.
    static BYTES: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(delta: isize) {
    // `try_with` fails only while the thread's locals are torn down;
    // those allocations go uncounted.
    let _ = BYTES.try_with(|b| {
        let (live, peak) = b.get();
        let live = live + delta;
        b.set((live, peak.max(live)));
    });
}

/// The system allocator with per-thread byte counting.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so the `GlobalAlloc` contract holds exactly as it
// does for `System`. The counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // `System` with `layout`, and `new_size` is valid for its align.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts a measurement: resets this thread's peak to its live bytes,
/// and returns them.
pub fn mark() -> isize {
    BYTES
        .try_with(|b| {
            let (live, _) = b.get();
            b.set((live, live));
            live
        })
        .unwrap_or(0)
}

/// This thread's peak live bytes since `mark` returned `at`, above `at`.
pub fn peak_since(at: isize) -> usize {
    BYTES.try_with(|b| b.get().1 - at).unwrap_or(0).max(0) as usize
}
