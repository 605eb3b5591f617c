//! The small-message hot path must not allocate.
//!
//! A counting global allocator wraps `System` and counts while the
//! calling thread has a rank armed in a const-initialised thread-local.
//! Only rank bodies arm it, so an allocation on any other host thread
//! (the test harness, a sibling run) is never counted. On fibers both
//! ranks and the run loop between their slices share one host thread
//! and so one flag; the counted window is therefore fenced by a barrier
//! at each end, as in `tests/alloc_collectives.rs`: it opens once both
//! ranks are through their warm-up and closes once both are through
//! their last trip, so every trip of both ranks is counted. After a
//! warm-up phase (the inbox rings and the run loop's ready queue reach
//! their high-water capacity) the steady-state ping-pong loop — send
//! with inline payload, latency sampling, FIFO clamp, inbox push and
//! match, receive — must perform exactly zero heap allocations, on
//! fibers and on thread-backed continuations alike.
//!
//! This file intentionally contains a single test: the counter is
//! process-global, and a sibling test allocating concurrently would
//! count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::EngineMode;

struct CountingAlloc;

thread_local! {
    /// Armed by a rank body for its counted loop (module docs).
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    // A thread being torn down counts nothing.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` plus a thread-local read and an
// atomic add that never allocate or touch the arguments; every
// `GlobalAlloc` contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract;
    // forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Sets the counting flag once both ranks are through the barrier.
fn fence(ctx: &mut RankCtx, comm: &mut Comm, tracking: bool) {
    comm.barrier(ctx, BarrierAlgorithm::Tree);
    TRACKING.set(tracking);
}

#[test]
fn steady_state_small_messages_do_not_allocate() {
    for mode in [EngineMode::Events, EngineMode::Threads] {
        ALLOCS.store(0, Ordering::SeqCst);
        // Observability explicitly off: the disabled recorder
        // (`Recorder::Off`) must stay on this zero-allocation path too.
        let cluster = machines::testbed(2, 1)
            .cluster(1)
            .to_builder()
            .engine(mode)
            .observability(ObsSpec::off())
            .build();
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
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
            // Warm-up: grow the inbox rings to their high-water capacity.
            // The opening fence's barrier is the run's first collective,
            // and it leaves the rendezvous buffers at theirs.
            for i in 0..512u32 {
                trip(ctx, i);
            }
            // On fibers the run loop's own park/wake steps between the
            // rank slices are counted too; on threads only the ranks are.
            fence(ctx, &mut comm, true);
            for i in 0..2048u32 {
                trip(ctx, i);
            }
            fence(ctx, &mut comm, false);
        });
        let n = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            n, 0,
            "{mode:?}: steady-state small-message path performed {n} heap allocations"
        );
    }
}
