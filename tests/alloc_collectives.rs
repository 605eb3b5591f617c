//! Steady-state collectives allocate a stated, fixed count.
//!
//! A counting global allocator wraps `System` and counts into the phase
//! the calling thread has armed in a const-initialised thread-local.
//! Only rank bodies arm a phase, so on thread-backed continuations only
//! the simulated path is counted. On fibers every rank, and the run loop
//! between their slices, shares one host thread and so one phase; each
//! phase is therefore opened right after a tree barrier, which every
//! member enters only once its allocations of the phase before have
//! happened, and the barriers allocate nothing. Both engine modes must
//! count the same.
//!
//! After a warm-up, 1,000 Round-Time-shaped iterations on a 16-rank
//! testbed (`bcast_time`, `allreduce` of the two `f64` flags,
//! `allreduce_f64`) allocate nothing but the `Vec` each `allreduce`
//! returns: zero per member for the `_f64` and `bcast_time` forms, one
//! per member for `allreduce`, and no constant per collective. A
//! payload past the inline size travels in a shared heap buffer, so an
//! `allreduce` of 64 bytes also allocates one per send whose buffer a
//! fold changed: four per member on 16 ranks. A split
//! allocates the same count per member at p = 64 and p = 256, plus a
//! constant per split: allocations that grow with p per member are the
//! regression this guards against.
//!
//! This file intentionally contains a single test: the counters are
//! process-global, and a sibling test allocating concurrently would
//! count into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::EngineMode;

/// The phases, by counter index; `OFF` counts nothing.
const OFF: usize = 0;
const BCAST_TIME: usize = 1;
const ALLREDUCE: usize = 2;
const ALLREDUCE_F64: usize = 3;
const ALLREDUCE_WIDE: usize = 4;
const SPLIT: usize = 5;
const PHASES: usize = 6;

/// Bytes of the wide `allreduce`: past the inline payload, so its
/// messages go to the heap.
const WIDE: usize = 64;

struct CountingAlloc;

thread_local! {
    static PHASE: Cell<usize> = const { Cell::new(OFF) };
}

static ALLOCS: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];

fn count() {
    // A thread being torn down counts nothing.
    let phase = PHASE.try_with(Cell::get).unwrap_or(OFF);
    if phase != OFF {
        ALLOCS[phase].fetch_add(1, Ordering::Relaxed);
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

/// Closes the running phase and opens `next` once every member is
/// through the barrier.
fn fence(ctx: &mut RankCtx, comm: &mut Comm, next: usize) {
    comm.barrier(ctx, BarrierAlgorithm::Tree);
    PHASE.set(next);
}

/// Every phase's count, taken over one run of `body` on `cluster`.
fn counted(cluster: &Cluster, body: impl Fn(&mut RankCtx) + Sync) -> [u64; PHASES] {
    for a in &ALLOCS {
        a.store(0, Ordering::SeqCst);
    }
    cluster.run(|ctx| {
        body(ctx);
        PHASE.set(OFF);
    });
    std::array::from_fn(|i| ALLOCS[i].load(Ordering::SeqCst))
}

/// One Round-Time repetition's collectives, each in its own phase:
/// the next start, the two flags, one `f64`.
fn repetition(ctx: &mut RankCtx, comm: &mut Comm, i: usize, counted: bool) {
    let phase = |p| if counted { p } else { OFF };
    let start = GlobalTime::from_raw_seconds(i as f64 * 1e-3);
    fence(ctx, comm, phase(BCAST_TIME));
    let start = comm.bcast_time(ctx, 0, start);
    let mut flags = [0u8; 16];
    flags[8..].copy_from_slice(&((i % 2) as f64).to_le_bytes());
    fence(ctx, comm, phase(ALLREDUCE));
    let flags = comm.allreduce(ctx, &flags, ReduceOp::F64LOr);
    fence(ctx, comm, phase(ALLREDUCE_F64));
    let late = comm.allreduce_f64(ctx, start.raw_seconds(), ReduceOp::F64Max);
    let mut wide = [i as u8; WIDE];
    wide[ctx.rank() % WIDE] = u8::MAX;
    fence(ctx, comm, phase(ALLREDUCE_WIDE));
    let wide = comm.allreduce(ctx, &wide, ReduceOp::ByteMax);
    fence(ctx, comm, OFF);
    assert_eq!(flags.len(), 16);
    assert_eq!(late, i as f64 * 1e-3);
    assert_eq!(wide[..comm.size()], [u8::MAX; 16]);
}

/// What 1,000 repetitions on 16 ranks allocate, after 50 uncounted.
fn round_time(mode: EngineMode) -> [u64; PHASES] {
    let cluster = machines::testbed(4, 4)
        .cluster(1)
        .to_builder()
        .engine(mode)
        .observability(ObsSpec::off())
        .build();
    counted(&cluster, |ctx| {
        let mut comm = Comm::world(ctx);
        for i in 0..50 {
            repetition(ctx, &mut comm, i, false);
        }
        for i in 0..1000 {
            repetition(ctx, &mut comm, i, true);
        }
    })
}

/// What one split by `rank % 4` of a `p`-rank world allocates, after an
/// uncounted one.
fn split(mode: EngineMode, p: usize) -> u64 {
    let cluster = machines::testbed(p / 16, 16)
        .cluster(2)
        .to_builder()
        .engine(mode)
        .observability(ObsSpec::off())
        .build();
    let counts = counted(&cluster, |ctx| {
        let mut world = Comm::world(ctx);
        let by4 = |ctx: &RankCtx| Some((ctx.rank() % 4) as u64);
        let warm = world.split(ctx, by4(ctx), ctx.rank() as u64);
        fence(ctx, &mut world, SPLIT);
        let sub = world.split(ctx, by4(ctx), ctx.rank() as u64);
        fence(ctx, &mut world, OFF);
        assert_eq!(sub.map(|c| c.size()), warm.map(|c| c.size()));
    });
    counts[SPLIT]
}

#[test]
fn steady_state_collectives_allocate_a_fixed_count_per_member() {
    /// Allocations per member of one split, and per split.
    const SPLIT_PER_MEMBER: u64 = 3;
    const SPLIT_PER_CALL: u64 = 1;
    for mode in [EngineMode::Events, EngineMode::Threads] {
        let counts = round_time(mode);
        assert_eq!(counts[BCAST_TIME], 0, "{mode:?}: bcast_time allocated");
        assert_eq!(
            counts[ALLREDUCE],
            16 * 1000,
            "{mode:?}: allreduce allocated more than the Vec it returns"
        );
        assert_eq!(
            counts[ALLREDUCE_F64], 0,
            "{mode:?}: allreduce_f64 allocated"
        );
        // Recursive doubling on 16 members sends in log2 16 = 4 rounds,
        // each after a fold, so each send shares a fresh heap buffer.
        assert_eq!(
            counts[ALLREDUCE_WIDE],
            16 * 1000 * (1 + 4),
            "{mode:?}: a {WIDE}-byte allreduce allocated more than the Vec it returns and \
             one buffer per send"
        );
        for p in [64, 256] {
            assert_eq!(
                split(mode, p),
                SPLIT_PER_MEMBER * p as u64 + SPLIT_PER_CALL,
                "{mode:?}: a split of {p} ranks"
            );
        }
    }
}
