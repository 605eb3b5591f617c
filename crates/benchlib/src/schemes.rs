//! Process-coordination schemes for measuring MPI collectives.
//!
//! Three ways to decide *when* each repetition starts:
//!
//! 1. **Barrier-based** ([`run_barrier_scheme`]) — `MPI_Barrier` before
//!    every repetition (OSU / Intel MPI Benchmarks). Cheap, but the
//!    barrier's own exit imbalance leaks into the measurement when the
//!    operation under test is of comparable latency.
//! 2. **Window-based** ([`run_window_scheme`]) — processes agree on a
//!    grid of start times `t_sync + i·w` on a logical global clock
//!    (SKaMPI / NBCBench). Needs a good window-size estimate; a single
//!    outlier invalidates *all* subsequent windows it overlaps.
//! 3. **Round-Time** ([`run_round_time`]) — the paper's Algorithm 5:
//!    the reference broadcasts the *next* start time before every
//!    repetition and a fixed time slice bounds the total effort; an
//!    `MPI_Allreduce` of `invalid`/`out_of_time` flags after each round
//!    keeps everyone consistent and makes single outliers cost exactly
//!    one repetition.

use hcs_clock::{busy_wait_until, Clock, GlobalTime, Span};
use hcs_mpi::{BarrierAlgorithm, Comm, ReduceOp};
use hcs_sim::obs::ClockReadings;
use hcs_sim::{secs, RankCtx, Wire};

/// The operation under test, e.g. one `MPI_Allreduce` call.
pub type OpUnderTest<'a> = &'a mut dyn FnMut(&mut RankCtx, &mut Comm);

/// One measured repetition, in the clock frame of the coordinating
/// scheme (local clock for barrier-based, global clock otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepSample {
    /// When this rank started the operation (for the window and
    /// Round-Time schemes this is the *common* start time).
    pub start: GlobalTime,
    /// When the operation returned on this rank.
    pub end: GlobalTime,
}

impl RepSample {
    /// This rank's local view of the operation latency.
    pub fn latency(&self) -> Span {
        self.end - self.start
    }
}

/// A repetition's global latency: the slowest rank's end minus the
/// common start, the `F64Max` allreduce of the end readings (which share
/// the global frame). Collective: every rank calls it for every sample.
pub fn global_latency(ctx: &mut RankCtx, comm: &mut Comm, s: &RepSample) -> Span {
    let end = comm.allreduce_f64(ctx, s.end.raw_seconds(), ReduceOp::F64Max);
    GlobalTime::from_raw_seconds(end) - s.start
}

/// Barrier-based measurement: `nreps` repetitions, each preceded by an
/// `MPI_Barrier` with the given algorithm. Returns this rank's local
/// samples (timed with `clk`).
pub fn run_barrier_scheme(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    clk: &mut dyn Clock,
    barrier_alg: BarrierAlgorithm,
    nreps: usize,
    op: OpUnderTest,
) -> Vec<RepSample> {
    let mut out = Vec::with_capacity(nreps);
    for i in 0..nreps {
        comm.barrier(ctx, barrier_alg);
        let start = clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_enter_read(
                "scheme/barrier/rep",
                i as u32,
                ClockReadings::global(start.raw_seconds()),
            );
        }
        op(ctx, comm);
        let end = clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_exit_read(ClockReadings::global(end.raw_seconds()));
        }
        out.push(RepSample { start, end });
    }
    out
}

/// Configuration of the window-based scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Window size — must exceed the operation latency or most windows
    /// invalidate.
    pub window_s: Span,
    /// Number of windows (= attempted repetitions).
    pub nreps: usize,
    /// Slack between "now" and the first window start.
    pub first_window_slack_s: Span,
}

/// Result of the window scheme on this rank.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// One sample per window (including invalid ones).
    pub samples: Vec<RepSample>,
    /// Whether *this rank* hit each window start in time. A repetition
    /// is globally valid only if every rank was on time — decided
    /// post-hoc (here via an allreduce so each rank knows).
    pub valid: Vec<bool>,
}

/// Window-based measurement over a logical global clock.
pub fn run_window_scheme(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    cfg: WindowConfig,
    op: OpUnderTest,
) -> WindowOutcome {
    // Agree on the window grid: the root broadcasts the base time.
    let now = g_clk.get_time(ctx);
    let base = comm.bcast_time(ctx, 0, now + cfg.first_window_slack_s);
    let mut samples = Vec::with_capacity(cfg.nreps);
    let mut on_time = Vec::with_capacity(cfg.nreps);
    for i in 0..cfg.nreps {
        let start = base + i as f64 * cfg.window_s;
        let before = g_clk.get_time(ctx);
        let late = before > start;
        busy_wait_until(g_clk, ctx, start);
        if ctx.obs_on() {
            ctx.obs_enter_read(
                "scheme/window/rep",
                i as u32,
                ClockReadings::global(start.raw_seconds()),
            );
            if late {
                ctx.obs_note("window/late");
            }
        }
        op(ctx, comm);
        let end = g_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_exit_read(ClockReadings::global(end.raw_seconds()));
        }
        samples.push(RepSample { start, end });
        on_time.push(!late);
    }
    // Validity is global: all ranks must have been on time.
    let mut valid = Vec::with_capacity(cfg.nreps);
    for &mine in &on_time {
        let ok = comm.allreduce_f64(ctx, if mine { 0.0 } else { 1.0 }, ReduceOp::F64LOr);
        valid.push(ok == 0.0);
    }
    WindowOutcome { samples, valid }
}

/// Configuration of the Round-Time scheme (paper Algorithm 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTimeConfig {
    /// The time slice allotted to this measurement (the paper uses 5 s
    /// per message size on Titan).
    pub max_time_slice_s: Span,
    /// Upper bound on valid repetitions (`max_nrep`).
    pub max_nrep: usize,
    /// Slack factor `B ≥ 1` applied to the broadcast latency estimate
    /// when picking the next start time.
    pub slack_b: f64,
    /// Estimated latency of `MPI_Bcast` (from
    /// [`estimate_bcast_latency`]).
    pub bcast_latency_s: Span,
}

impl Default for RoundTimeConfig {
    fn default() -> Self {
        Self {
            max_time_slice_s: secs(1.0),
            max_nrep: 1000,
            slack_b: 3.0,
            bcast_latency_s: secs(50e-6),
        }
    }
}

/// Round-Time measurement (Algorithm 5). Returns this rank's *valid*
/// samples; all ranks return equally many (validity is agreed on by the
/// per-round allreduce).
pub fn run_round_time(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    cfg: RoundTimeConfig,
    op: OpUnderTest,
) -> Vec<RepSample> {
    // Initial alignment: processes may reach this point at very
    // different times (the tree synchronization finishes leaves early).
    // ReproMPI separates phases with a barrier; here the global clock
    // itself provides the rendezvous — everyone waits for a first common
    // instant, which also anchors the time-slice accounting.
    let proposal = g_clk.get_time(ctx) + cfg.slack_b.max(2.0) * cfg.bcast_latency_s;
    let first = comm.bcast_time(ctx, 0, proposal);
    busy_wait_until(g_clk, ctx, first);
    let t_start = g_clk.get_time(ctx);
    let mut nrep = 0usize;
    let mut round = 0u32;
    let mut out = Vec::new();
    loop {
        // The reference picks and broadcasts the next start time.
        let proposal = g_clk.get_time(ctx) + cfg.slack_b * cfg.bcast_latency_s;
        let start_time = comm.bcast_time(ctx, 0, proposal);

        // Late processes invalidate this round.
        let mut invalid = g_clk.get_time(ctx) >= start_time;
        if !invalid {
            busy_wait_until(g_clk, ctx, start_time);
        }
        let t0 = g_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_enter_read(
                "scheme/roundtime/rep",
                round,
                ClockReadings::global(t0.raw_seconds()),
            );
        }
        op(ctx, comm);
        let t1 = g_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_exit_read(ClockReadings::global(t1.raw_seconds()));
        }
        round += 1;

        let out_of_time = t1 - t_start >= cfg.max_time_slice_s;
        // Single allreduce combining both flags (the paper's line 21),
        // encoded through the same `Wire` impl point-to-point uses.
        let flags = [
            if invalid { 1.0f64 } else { 0.0 },
            if out_of_time { 1.0f64 } else { 0.0 },
        ]
        .to_wire();
        let combined = comm.allreduce(ctx, flags.as_ref(), ReduceOp::F64LOr);
        let [inv, oot] = <[f64; 2]>::from_wire(&combined);
        invalid = inv != 0.0;
        let out_of_time = oot != 0.0;
        if ctx.obs_on() {
            if invalid {
                ctx.obs_note("roundtime/invalid");
            }
            if out_of_time {
                ctx.obs_note("roundtime/out_of_time");
            }
        }

        if !invalid {
            out.push(RepSample {
                start: t0.max(start_time),
                end: t1,
            });
            nrep += 1;
        }
        if out_of_time || nrep == cfg.max_nrep {
            break;
        }
    }
    out
}

/// Estimates the one-shot propagation latency of `MPI_Bcast` on this
/// communicator: the root broadcasts its clock reading; every rank
/// computes `its reading at receipt − root's reading at send` and the
/// maximum over ranks is averaged over `nreps` repetitions.
///
/// The differencing happens *across ranks*, so `g_clk` must be a
/// synchronized logical global clock (which the Round-Time scheme — the
/// consumer of this estimate — has anyway).
pub fn estimate_bcast_latency(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    nreps: usize,
) -> Span {
    assert!(nreps > 0);
    let mut total = Span::ZERO;
    for _ in 0..nreps {
        comm.barrier(ctx, BarrierAlgorithm::Tree);
        let sent = if comm.rank() == 0 {
            g_clk.get_time(ctx)
        } else {
            GlobalTime::ZERO
        };
        let t_send = comm.bcast_time(ctx, 0, sent);
        let lat = (g_clk.get_time(ctx) - t_send).max(Span::ZERO);
        total += secs(comm.allreduce_f64(ctx, lat.seconds(), ReduceOp::F64Max));
    }
    total / nreps as f64
}

/// Estimates the latency of an `msize`-byte `MPI_Allreduce` (mean of
/// `nreps` barrier-separated calls, reduced to the max over ranks).
pub fn estimate_allreduce_latency(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    clk: &mut dyn Clock,
    msize: usize,
    nreps: usize,
) -> Span {
    assert!(nreps > 0);
    let payload = vec![0u8; msize];
    let mut total = Span::ZERO;
    for _ in 0..nreps {
        comm.barrier(ctx, BarrierAlgorithm::Tree);
        let t0 = clk.get_time(ctx);
        let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
        total += clk.get_time(ctx) - t0;
    }
    secs(comm.allreduce_f64(ctx, (total / nreps as f64).seconds(), ReduceOp::F64Max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{LocalClock, TimeSource};
    use hcs_core::{ClockSync, Hca3};
    use hcs_sim::machines::testbed;

    fn allreduce_op(msize: usize) -> impl FnMut(&mut RankCtx, &mut Comm) {
        move |ctx, comm| {
            let payload = vec![0u8; msize];
            let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
        }
    }

    #[test]
    fn barrier_scheme_returns_positive_latencies() {
        let cluster = testbed(2, 2).cluster(1);
        let res = cluster.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut op = allreduce_op(8);
            run_barrier_scheme(
                ctx,
                &mut comm,
                &mut clk,
                BarrierAlgorithm::Tree,
                10,
                &mut op,
            )
        });
        for samples in res {
            assert_eq!(samples.len(), 10);
            for s in samples {
                assert!(s.latency() > Span::ZERO);
                assert!(s.latency() < secs(1e-3), "latency {:.3e}", s.latency());
            }
        }
    }

    #[test]
    fn round_time_produces_agreed_sample_counts() {
        let cluster = testbed(2, 2).cluster(2);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let cfg = RoundTimeConfig {
                max_time_slice_s: secs(0.02),
                max_nrep: 50,
                ..Default::default()
            };
            let mut op = allreduce_op(8);
            run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op).len()
        });
        assert!(res.iter().all(|&n| n == res[0]), "{res:?}");
        assert!(res[0] > 0, "no valid repetitions");
    }

    #[test]
    fn round_time_respects_time_slice() {
        let cluster = testbed(2, 1).cluster(3);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let before = ctx.now();
            let cfg = RoundTimeConfig {
                max_time_slice_s: secs(0.05),
                max_nrep: usize::MAX,
                ..Default::default()
            };
            let mut op = allreduce_op(8);
            let n = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op).len();
            (n, ctx.now() - before)
        });
        for &(n, dur) in &res {
            assert!(n > 10, "expected many reps, got {n}");
            // Bounded by the slice plus one round.
            assert!(dur < secs(0.08), "duration {dur}");
        }
    }

    #[test]
    fn round_time_caps_at_max_nrep() {
        let cluster = testbed(2, 1).cluster(4);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let cfg = RoundTimeConfig {
                max_time_slice_s: secs(10.0),
                max_nrep: 7,
                ..Default::default()
            };
            let mut op = allreduce_op(8);
            run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op).len()
        });
        assert!(res.iter().all(|&n| n == 7), "{res:?}");
    }

    #[test]
    fn window_scheme_validates_windows() {
        let cluster = testbed(2, 2).cluster(5);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            // Generous window: everything should validate.
            let cfg = WindowConfig {
                window_s: secs(500e-6),
                nreps: 20,
                first_window_slack_s: secs(1e-3),
            };
            let mut op = allreduce_op(8);
            run_window_scheme(ctx, &mut comm, g.as_mut(), cfg, &mut op)
        });
        let valid = res[0].valid.iter().filter(|&&v| v).count();
        assert!(valid >= 18, "valid {valid}/20");
        // All ranks agree on validity.
        for r in &res[1..] {
            assert_eq!(r.valid, res[0].valid);
        }
    }

    #[test]
    fn too_small_windows_invalidate_in_cascades() {
        let cluster = testbed(2, 2).cluster(6);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            // Window much smaller than the op latency: once a rank
            // overruns, subsequent windows invalidate.
            let cfg = WindowConfig {
                window_s: secs(3e-6),
                nreps: 20,
                first_window_slack_s: secs(1e-3),
            };
            let mut op = allreduce_op(64);
            run_window_scheme(ctx, &mut comm, g.as_mut(), cfg, &mut op)
        });
        let valid = res[0].valid.iter().filter(|&&v| v).count();
        assert!(
            valid <= 3,
            "tiny windows should mostly invalidate, got {valid} valid"
        );
    }

    #[test]
    fn latency_estimates_are_plausible() {
        let cluster = testbed(4, 1).cluster(7);
        let res = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let b = estimate_bcast_latency(ctx, &mut comm, g.as_mut(), 10);
            let a = estimate_allreduce_latency(ctx, &mut comm, g.as_mut(), 8, 10);
            (b, a)
        });
        for &(b, a) in &res {
            // Inter-node base is 3.3 us; bcast over 4 ranks = 2 hops.
            assert!(b > secs(1e-6) && b < secs(100e-6), "bcast {b:.3e}");
            assert!(a > secs(3e-6) && a < secs(200e-6), "allreduce {a:.3e}");
            assert_eq!(res[0].0, b, "all ranks share the root's estimate");
        }
    }
}
