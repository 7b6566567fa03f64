//! Allocation counting for the traced run only.
//!
//! The end-to-end numbers must come from the stock allocator, the
//! per-layer allocation counts from `vbatch_rt`'s `CountingAlloc`, and
//! both from one binary. So the global allocator is a switch: until
//! the traced run turns it on it hands every call straight to `System`
//! (one relaxed load away from not being there), afterwards it routes
//! through the counter.

use crate::layers::{AllocSnapshot, CountingAlloc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

pub struct SwitchAlloc {
    counting: CountingAlloc,
    on: AtomicBool,
}

impl SwitchAlloc {
    pub const fn new() -> Self {
        SwitchAlloc {
            counting: CountingAlloc::new(),
            on: AtomicBool::new(false),
        }
    }

    /// Start counting (traced run). Never switched back off: a block
    /// allocated on one side may be freed on the other, which is sound
    /// because both sides allocate from `System`.
    pub fn enable(&self) {
        // Relaxed: the flag publishes no other data; it only selects
        // which of two equivalent allocation paths runs.
        self.on.store(true, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> AllocSnapshot {
        self.counting.snapshot()
    }

    fn counting(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards its arguments unchanged either to
// `System` or to `CountingAlloc`, which itself defers to `System`; the
// caller's `GlobalAlloc` obligations are passed through as they came,
// and memory obtained on either path is valid to release on the other.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.counting() {
            self.counting.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if self.counting() {
            self.counting.dealloc(ptr, layout)
        } else {
            System.dealloc(ptr, layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if self.counting() {
            self.counting.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.counting() {
            self.counting.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}
