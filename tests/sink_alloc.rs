//! The chrome-trace sink allocates per rank, not per event, and its
//! streaming entry point holds a bounded amount of memory beside the
//! log.
//!
//! A counting global allocator wraps `System` (as in
//! `tests/alloc_free.rs`) and additionally tracks live bytes with a
//! high-water mark. On a 64-rank full-observability HCA3 log:
//!
//! - `chrome_trace` makes at most `64 × ranks` allocations (escaped
//!   names and one flow-id vector per rank, a handful of vectors per
//!   call), where one `String` per row would make several per event;
//! - `write_chrome_trace` into `io::sink()` never has more than
//!   `32 B × events + 1 MiB` live above the log: the flow-matching
//!   state and one chunk of text, not the trace.
//!
//! This file intentionally contains a single test: the counters are
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::{chrome_trace, write_chrome_trace};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if TRACKING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` plus atomic counter ops that
// never allocate or touch the arguments; every `GlobalAlloc` contract
// obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract;
    // forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    // SAFETY: as `alloc`; forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` validity per the
    // `GlobalAlloc::realloc` contract; forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with tracking on; returns its allocation count and the
/// high-water of live bytes above the level at entry.
fn tracked(f: impl FnOnce()) -> (u64, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        PEAK.load(Ordering::SeqCst) - base,
    )
}

#[test]
fn chrome_trace_allocates_per_rank_and_streams_in_bounded_memory() {
    let cluster = machines::testbed(8, 8)
        .cluster(19)
        .to_builder()
        .observability(ObsSpec::full())
        .build();
    let (_, log) = cluster.run_observed(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let _ = run_sync(&mut Hca3::skampi(20, 6), ctx, &mut comm, Box::new(clk));
    });
    let (ranks, events) = (log.ranks().len(), log.total_events());
    assert_eq!(ranks, 64);
    assert!(
        events > 10 * 64 * ranks,
        "{events} events cannot tell a per-rank bound from a per-event one"
    );

    let mut trace_len = 0;
    let (allocs, _) = tracked(|| trace_len = chrome_trace(&log).len());
    assert!(
        allocs <= 64 * ranks as u64,
        "chrome_trace made {allocs} allocations for {ranks} ranks and {events} events"
    );

    let (_, peak) = tracked(|| {
        write_chrome_trace(&log, &mut std::io::sink()).expect("io::sink never fails");
    });
    let bound = 32 * events + (1 << 20);
    assert!(
        peak <= bound,
        "write_chrome_trace held {peak} B above the log; bound {bound} B \
         for {events} events (the trace itself is {trace_len} B)"
    );
    assert!(
        bound < trace_len / 2,
        "a bound of {bound} B says nothing against holding the {trace_len} B trace"
    );
}
