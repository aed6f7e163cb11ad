//! Counting global allocator: allocation events, live bytes and peak live
//! bytes, so a phase can report its incremental peak heap and how many
//! allocations it made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts what passes through.
struct CountingAlloc;

// The counters publish no other data, so `Relaxed` is enough; the
// benchmark reads them from the thread that did the work.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's guarantee.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's valid size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A window over the allocator's counters: started before a phase, read
/// after it.
#[derive(Debug, Clone, Copy)]
pub struct HeapProbe {
    allocs_before: u64,
    live_before: u64,
}

/// Bytes live on the heap right now.
pub fn live_bytes() -> u64 {
    CURRENT_BYTES.load(Ordering::Relaxed)
}

impl HeapProbe {
    /// Open a window: the peak restarts from the bytes live right now.
    pub fn start() -> Self {
        Self::start_above(live_bytes())
    }

    /// Open a window whose peak is reported above `base` live bytes, an
    /// earlier [`live_bytes`] reading.
    pub fn start_above(base: u64) -> Self {
        PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
        HeapProbe {
            allocs_before: ALLOC_COUNT.load(Ordering::Relaxed),
            live_before: base,
        }
    }

    /// Highest live heap since the window opened, minus its base.
    pub fn peak_bytes(&self) -> u64 {
        PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(self.live_before)
    }

    /// Allocation events since [`HeapProbe::start`].
    pub fn allocs(&self) -> u64 {
        ALLOC_COUNT.load(Ordering::Relaxed) - self.allocs_before
    }
}
