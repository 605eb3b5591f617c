//! The small-message hot path must not allocate.
//!
//! A counting global allocator wraps `System`; after a warm-up phase
//! (mailbox ring buffers and the run loop's ready queue reach their
//! high-water capacity) the steady-state ping-pong loop — send with
//! inline payload, latency sampling, FIFO clamp, mailbox push/pop,
//! receive — must perform exactly zero heap allocations.
//!
//! This file intentionally contains a single test: the counter is
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hierarchical_clock_sync::prelude::*;

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus two atomic counter ops
// that never allocate or touch the arguments; every `GlobalAlloc`
// contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract;
    // forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` validity per the
    // `GlobalAlloc::realloc` contract; forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_small_messages_do_not_allocate() {
    // Observability explicitly off: the disabled recorder
    // (`Recorder::Off`) must stay on this zero-allocation path too.
    let cluster = machines::testbed(2, 1)
        .cluster(1)
        .to_builder()
        .observability(ObsSpec::off())
        .build();
    cluster.run(|ctx| {
        let peer = 1 - ctx.rank();
        let trip = |ctx: &mut RankCtx, i: u32| {
            if ctx.rank() == 0 {
                ctx.send_t(peer, i & 0x7, i as f64);
                let _: f64 = ctx.recv_t(peer, i & 0x7);
            } else {
                let v: f64 = ctx.recv_t(peer, i & 0x7);
                ctx.send_t(peer, i & 0x7, v + 1.0);
            }
        };
        // Warm-up: grow mailbox rings to their high-water capacity.
        for i in 0..512u32 {
            trip(ctx, i);
        }
        // The one run loop takes the ranks a slice at a time, so while
        // a rank has the counter armed only rank slices and the loop's
        // own park/wake steps run: every counted allocation comes from
        // this ping-pong.
        TRACKING.store(true, Ordering::SeqCst);
        for i in 0..2048u32 {
            trip(ctx, i);
        }
        TRACKING.store(false, Ordering::SeqCst);
    });
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state small-message path performed {n} heap allocations"
    );
}
