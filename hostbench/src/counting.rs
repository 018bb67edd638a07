//! A counting global allocator that attributes heap allocations to the
//! span open on the calling thread.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` counts as one allocation,
//! with its requested size in bytes; frees are not counted. Calls made
//! while no span is open (and every call of an untraced pass, which opens
//! none) are not counted. Counters are thread-local, so worker threads
//! never contend on them and a thread's totals are read by that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::spans::LAYERS;

/// No span open.
const NONE: usize = usize::MAX;

/// The system allocator, counted.
pub struct Counting;

thread_local! {
    static OPEN: Cell<usize> = const { Cell::new(NONE) };
    static ALLOCS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static BYTES: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

/// Opens `layer` (an index below [`LAYERS`], or the value a previous call
/// returned) on this thread; returns the layer that was open before.
pub fn set_open(layer: usize) -> usize {
    OPEN.with(|open| open.replace(layer))
}

/// Takes and resets this thread's per-layer allocation and byte counts.
pub fn take() -> ([u64; LAYERS], [u64; LAYERS]) {
    let drain = |cells: &[Cell<u64>; LAYERS]| std::array::from_fn(|i| cells[i].take());
    (ALLOCS.with(drain), BYTES.with(drain))
}

fn note(size: usize) {
    // The thread-locals are const-initialised and have no destructor, so
    // reading them allocates nothing and cannot recurse into the
    // allocator; `try_with` covers calls made during thread teardown.
    let _ = OPEN.try_with(|open| {
        let i = open.get();
        if i < LAYERS {
            let _ = ALLOCS.try_with(|a| a[i].set(a[i].get() + 1));
            let _ = BYTES.try_with(|b| b[i].set(b[i].get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting around each call only
// touches thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
