//! Heap-allocation counting for the whole process.
//!
//! Every thread owns one cache-line-padded counter slot, claimed on its
//! first allocation, so counting adds no shared cache line to the
//! server's hot paths. Allocations and reallocations both count; frees
//! do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter slots. The last one is shared by every thread past the
/// first `SLOTS - 1` (and by threads already tearing down).
const SLOTS: usize = 1024;
const SHARED_SLOT: usize = SLOTS - 1;

#[repr(align(128))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`-initialised and without `Drop`, so reading it never
    // allocates and stays valid while the thread exits.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SHARED_SLOT));
            }
            slot.get()
        })
        .unwrap_or(SHARED_SLOT)
}

fn bump() {
    let slot = my_slot();
    let counter = &COUNTS[slot].0;
    if slot == SHARED_SLOT {
        counter.fetch_add(1, Ordering::Relaxed);
    } else {
        // Only the owning thread writes its slot, so a plain
        // load-then-store cannot lose an update.
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    COUNTS[my_slot()].0.load(Ordering::Relaxed)
}

/// Allocations made by every thread of the process so far.
pub fn process_allocs() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// The system allocator, counting each allocation and reallocation.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting side effect
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
