//! A counting global allocator for *proving* zero-allocation claims in
//! tests.
//!
//! The workspace pipeline promises that after warm-up a preconditioned
//! Krylov iteration performs no heap allocations. Inspection cannot
//! prove that — an innocent `entry().or_default()` or buffer
//! move-assign hides an alloc/free pair — so the zero-alloc tests
//! install [`CountingAlloc`] as their `#[global_allocator]` and assert
//! the counter delta across the measured region is exactly zero:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = ALLOC.snapshot();
//! hot_loop();
//! assert_eq!(ALLOC.snapshot().allocs_since(&before), 0);
//! ```
//!
//! The counters are relaxed atomics over [`std::alloc::System`]; the
//! overhead is a handful of nanoseconds per allocation, fine for a
//! test binary and deliberately not installed anywhere else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator and counts every allocation.
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations (including reallocs that moved).
    pub allocs: u64,
    /// Total deallocations.
    pub deallocs: u64,
    /// Total bytes ever requested.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Allocations performed since the earlier snapshot `start`.
    pub fn allocs_since(&self, start: &AllocSnapshot) -> u64 {
        self.allocs - start.allocs
    }

    /// Bytes requested since the earlier snapshot `start`.
    pub fn bytes_since(&self, start: &AllocSnapshot) -> u64 {
        self.bytes - start.bytes
    }
}

impl CountingAlloc {
    /// A fresh counting allocator (all counters zero).
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Read the current counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn count_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: defers every operation to `System`; the counters are plain
// relaxed atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count_alloc(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout` (the caller's `dealloc` contract, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count_alloc(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // a grow-in-place still touches the heap; count it as one
        // allocation so "zero allocations" really means untouched
        self.count_alloc(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout` (the caller's `realloc` contract, forwarded).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as #[global_allocator] here (the test binary would
    // count every harness allocation); exercise the counters directly.
    #[test]
    fn counters_track_manual_calls() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = a.snapshot();
        // SAFETY: `layout` has non-zero size, and `p` is freed once, by
        // the allocator that returned it, with the layout it was given.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        let after = a.snapshot();
        assert_eq!(after.allocs_since(&before), 1);
        assert_eq!(after.bytes_since(&before), 64);
        assert_eq!(after.deallocs - before.deallocs, 1);
    }

    #[test]
    fn snapshot_delta_is_zero_without_activity() {
        let a = CountingAlloc::new();
        let s1 = a.snapshot();
        let s2 = a.snapshot();
        assert_eq!(s2.allocs_since(&s1), 0);
        assert_eq!(s2.bytes_since(&s1), 0);
    }
}
