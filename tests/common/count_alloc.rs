//! Per-thread allocation counter for the zero-allocation gates.
//!
//! Installs a counting global allocator that wraps `System` and tallies
//! `alloc`/`realloc` calls in a `const`-initialised thread-local cell
//! (which itself never allocates). A test measures only its own thread,
//! so sibling tests allocating on other harness threads cannot leak
//! into its window and the gates can stay exact-equality checks.
//!
//! Included by each test binary that needs it:
//! `#[path = ".../tests/common/count_alloc.rs"] mod count_alloc;`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only bumps a thread-local
// `Cell` and never allocates or touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the heap allocations this thread
/// performed while it ran.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}
