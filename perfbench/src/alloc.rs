//! Heap accounting of the server under test.
//!
//! The benchmark's global allocator counts the bytes live on the heap and
//! their peak, leaving out what the benchmark itself allocates: threads
//! that call [`harness_thread`] (the main thread and the client threads)
//! are not counted, except inside [`serving`], which boots a server on the
//! calling thread.  Threads the server spawns count from their start.
//! Only the peak over a baseline is read ([`reset_peak`], [`peak`]), so a
//! block allocated on one side and freed on the other moves the live count
//! but not the figure, as long as no such block changes hands while the
//! figure is taken — the server hands nothing to the clients but bytes on
//! a socket.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static HARNESS: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !HARNESS.try_with(Cell::get).unwrap_or(false)
}

fn grow(bytes: usize) {
    if counted() {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if counted() {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        q
    }
}

/// Leave the calling thread's allocations out of the count.
pub fn harness_thread() {
    HARNESS.with(|h| h.set(true));
}

/// Run `f` with the calling thread's allocations counted.
pub fn serving<T>(f: impl FnOnce() -> T) -> T {
    let was = HARNESS.with(|h| h.replace(false));
    let out = f();
    HARNESS.with(|h| h.set(was));
    out
}

/// Restart the peak at the live count, and return that count: the
/// baseline [`peak`] is read against.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since [`reset_peak`].
pub fn peak() -> isize {
    PEAK.load(Relaxed)
}
