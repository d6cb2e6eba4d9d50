//! A forged collection length must not reserve memory for elements
//! that are not there. The length prefix is only checked against the
//! bytes left, and a `[u64; 64]` element takes 512 bytes in memory, so
//! sizing the vector by the prefix would reserve 512 bytes per byte of
//! input. This binary counts every allocation (its own global
//! allocator, so it holds one test only) and checks the largest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cedar_snap::{SnapError, SnapReader, SnapWriter, Snapshot, MAX_PREALLOC};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn forged_length_reserves_no_more_than_the_cap() {
    // 1 MiB of zero words: 2048 whole elements, then a forged length
    // claiming one element per remaining byte.
    let body_words = (1 << 20) / 8;
    let mut w = SnapWriter::new();
    w.put_usize(body_words * 8);
    for _ in 0..body_words {
        w.put_u64(0);
    }
    let bytes = w.into_bytes();

    LARGEST.store(0, Ordering::Relaxed);
    let result = Vec::<[u64; 64]>::restore(&mut SnapReader::new(&bytes));
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(result.unwrap_err(), SnapError::Truncated);
    // Unbounded, the vector would ask for 512 MiB up front.
    let cap_bytes = MAX_PREALLOC * std::mem::size_of::<[u64; 64]>();
    assert!(
        largest <= cap_bytes,
        "largest allocation {largest} B exceeds the {cap_bytes} B pre-allocation cap"
    );
}
