//! A counting allocator for this binary only: exact allocation counts and
//! bytes of single calls into the program, taken by the replay trace.
//!
//! Counting is off except inside [`count`], so the timed runs pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Relaxed: the counters publish no other data, and `count` reads them
    // on the thread that did the allocating.
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (calls, bytes requested) made by every thread while `f`
/// runs. Call it only while the rest of the process is idle.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - count, BYTES.load(Ordering::Relaxed) - bytes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_inside_the_call() {
        let warm: Vec<u8> = Vec::with_capacity(64);
        let (kept, count, bytes) = super::count(|| vec![0u8; 1000]);
        assert_eq!(kept.len(), 1000);
        // Other test threads may allocate meanwhile, so these are floors.
        assert!(count >= 1 && bytes >= 1000, "{count} allocations, {bytes} bytes");
        drop(warm);
    }
}
