//! A counting global allocator, so `*.allocs_per_*` metrics are exact
//! counts rather than estimates. All memory work is delegated to the
//! system allocator, with one of its settings fixed (see
//! [`fix_mmap_threshold`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

// Statistics that publish no other data: `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Wrapping: the two sizes' difference may be negative.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made by the whole
/// process so far, on every thread.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed, process-wide.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// glibc's `M_MMAP_THRESHOLD` from `<malloc.h>`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Hold glibc's mmap threshold at its initial 128 KiB, so that
/// `peak_rss_mb` measures what the program holds and not the history of
/// its heap. Left alone the threshold adapts: each freed mmapped block
/// raises it, later blocks of that size come from the heap instead and
/// stay resident after they are freed, and how far that goes depends on
/// the order of a seed's allocations. `sim_figures` then peaked anywhere
/// from 29 to 37 MB over ten seeds (spread 12 %); with the threshold
/// held, at 21.0-21.7 MB, and no timing moved. Call before the first
/// large allocation. Elsewhere than glibc it does nothing.
pub fn fix_mmap_threshold() {
    // SAFETY: `mallopt` only stores the value in the allocator's
    // parameters; both arguments are plain integers.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}
