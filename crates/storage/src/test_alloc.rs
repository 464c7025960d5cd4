//! Test allocator: the system allocator plus a per-thread record of the
//! largest single request, so a test can assert that decoding hostile bytes
//! never asks for memory out of proportion to what they declare. The
//! storage unit tests install it; `cohana-core`'s hostile-input integration
//! tests include this file through `#[path]` and install it too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Plain `Cell` with a const initializer: no lazy initialization and no
    /// destructor, so touching it from inside the allocator cannot recurse
    /// into an allocation or outlive the thread's teardown.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

pub(crate) struct LargestRequest;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

/// Forget what this thread has asked for so far.
pub(crate) fn reset_largest() {
    LARGEST.with(|l| l.set(0));
}

/// The largest single request this thread made since the last reset.
pub(crate) fn largest() -> usize {
    LARGEST.with(|l| l.get())
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only a thread-local `Cell<usize>` and neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (through this type) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's, under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
