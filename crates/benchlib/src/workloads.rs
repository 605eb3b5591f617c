//! Synthetic workloads, chiefly the **AMG2013 proxy** used for the
//! tracing case study (paper §V-C, Fig. 10).
//!
//! The paper profiles the DOE mini-app AMG2013 (inputs N=40, P=6),
//! which spends ~80 % of its time in 8-byte `MPI_Allreduce` calls. The
//! proxy reproduces the communication/timing structure that matters for
//! the Gantt-chart case study: iterations of *imbalanced* local compute
//! (a rank-dependent base plus random per-iteration noise) followed by a
//! small allreduce — without carrying the actual algebraic multigrid
//! solver along.

use hcs_clock::{Clock, Span};
use hcs_mpi::{tags, Comm, ReduceOp};
use hcs_sim::obs::ClockReadings;
use hcs_sim::rngx::{self, label};
use hcs_sim::{secs, RankCtx};

/// Span name of the AMG proxy's per-iteration allreduce (see
/// [`crate::trace::per_rank_events`]).
pub const AMG_SPAN: &str = "amg/allreduce";

/// Span name of the halo proxy's per-iteration exchange phase.
pub const HALO_SPAN: &str = "halo/exchange";

/// Parameters of the AMG proxy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmgProxyConfig {
    /// Number of solver iterations (each ends in one allreduce).
    pub iterations: u32,
    /// Allreduce payload, bytes (AMG2013: 8 B).
    pub msize: usize,
    /// Mean local compute per iteration.
    pub compute_mean_s: Span,
    /// Relative rank-dependent compute imbalance (0.2 = ±20 %).
    pub imbalance: f64,
    /// Relative random per-iteration compute noise.
    pub noise: f64,
}

impl Default for AmgProxyConfig {
    fn default() -> Self {
        Self {
            iterations: 20,
            msize: 8,
            compute_mean_s: secs(150e-6),
            imbalance: 0.25,
            noise: 0.1,
        }
    }
}

/// Runs the AMG proxy, tracing every allreduce with `trace_clk` (which
/// may be a raw local clock or a synchronized global clock — that is
/// the whole point of Fig. 10). Each allreduce is wrapped in an
/// [`AMG_SPAN`] observability span carrying the traced-clock readings;
/// retrieve the per-rank trace after the run with
/// [`crate::trace::per_rank_events`]. The clock reads happen whether or
/// not observability is on, so the timeline is identical either way.
pub fn amg_proxy(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    trace_clk: &mut dyn Clock,
    cfg: AmgProxyConfig,
) {
    let mut rng = rngx::stream_rng(ctx.master_seed(), label::rank_workload(ctx.rank()));
    // Deterministic rank-dependent imbalance factor in [1-i, 1+i].
    let spread = if comm.size() > 1 {
        comm.rank() as f64 / (comm.size() - 1) as f64 * 2.0 - 1.0
    } else {
        0.0
    };
    let my_base = cfg.compute_mean_s * (1.0 + cfg.imbalance * spread);
    let payload = vec![0u8; cfg.msize];
    for iter in 0..cfg.iterations {
        let noise = 1.0 + cfg.noise * (rng.next_f64() * 2.0 - 1.0);
        ctx.compute((my_base * noise).max(Span::ZERO));
        let enter = trace_clk.get_time(ctx);
        if ctx.obs_on() {
            // Spans store frame-agnostic raw readings of `trace_clk`.
            ctx.obs_enter_read(AMG_SPAN, iter, ClockReadings::global(enter.raw_seconds()));
        }
        let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
        let exit = trace_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_exit_read(ClockReadings::global(exit.raw_seconds()));
        }
    }
}

/// Parameters of the halo-exchange (stencil) proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloProxyConfig {
    /// Iterations.
    pub iterations: u32,
    /// Halo message size per neighbor, bytes.
    pub halo_bytes: usize,
    /// Mean local compute per iteration.
    pub compute_mean_s: Span,
    /// Residual allreduce every `k` iterations (0 = never).
    pub allreduce_every: u32,
}

impl Default for HaloProxyConfig {
    fn default() -> Self {
        Self {
            iterations: 20,
            halo_bytes: 1024,
            compute_mean_s: secs(120e-6),
            allreduce_every: 4,
        }
    }
}

/// A 1-D stencil proxy: each iteration exchanges halos with both ring
/// neighbors (eager send + two receives, like `MPI_Sendrecv` pairs) and
/// periodically runs a residual allreduce — the other common
/// communication pattern of the DOE mini-apps the paper motivates with.
/// Traces the halo phase per iteration with `trace_clk`, recorded as
/// [`HALO_SPAN`] observability spans like [`amg_proxy`] does.
pub fn halo_proxy(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    trace_clk: &mut dyn Clock,
    cfg: HaloProxyConfig,
) {
    let mut rng = rngx::stream_rng(ctx.master_seed(), label::rank_workload(ctx.rank()) ^ 0xA10);
    let p = comm.size();
    let me = comm.rank();
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    let halo = vec![0u8; cfg.halo_bytes];
    for iter in 0..cfg.iterations {
        let noise = 1.0 + 0.15 * (rng.next_f64() * 2.0 - 1.0);
        ctx.compute(cfg.compute_mean_s * noise);
        let enter = trace_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_enter_read(HALO_SPAN, iter, ClockReadings::global(enter.raw_seconds()));
        }
        if p > 1 {
            // Exchange with both neighbors (eager sends first, so the
            // pattern is deadlock-free like MPI_Sendrecv).
            comm.send(ctx, right, tags::HALO_R, &halo);
            comm.send(ctx, left, tags::HALO_L, &halo);
            let _ = comm.recv(ctx, left, tags::HALO_R);
            let _ = comm.recv(ctx, right, tags::HALO_L);
        }
        if cfg.allreduce_every > 0 && iter % cfg.allreduce_every == 0 {
            let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
        }
        let exit = trace_clk.get_time(ctx);
        if ctx.obs_on() {
            ctx.obs_exit_read(ClockReadings::global(exit.raw_seconds()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::per_rank_events;
    use hcs_clock::{LocalClock, TimeSource};
    use hcs_sim::machines::testbed;
    use hcs_sim::{Cluster, ObsSpec};

    fn observed(nodes: usize, cores: usize, seed: u64) -> Cluster {
        testbed(nodes, cores)
            .cluster(seed)
            .to_builder()
            .observability(ObsSpec::full())
            .build()
    }

    #[test]
    fn proxy_records_every_iteration() {
        let cluster = observed(2, 2, 1);
        let (_, log) = cluster.run_observed(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let cfg = AmgProxyConfig {
                iterations: 10,
                ..Default::default()
            };
            amg_proxy(ctx, &mut comm, &mut clk, cfg);
        });
        let per_rank = per_rank_events(&log, AMG_SPAN);
        assert_eq!(per_rank.len(), 4);
        assert!(per_rank.iter().all(|evs| evs.len() == 10));
    }

    #[test]
    fn allreduce_dominates_wait_time_for_fast_ranks() {
        // The slowest rank arrives last; fast ranks' allreduce time
        // includes waiting for it, so their traced durations exceed the
        // slow rank's.
        let cluster = observed(2, 2, 2);
        let (_, log) = cluster.run_observed(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let cfg = AmgProxyConfig {
                iterations: 8,
                compute_mean_s: secs(300e-6),
                imbalance: 0.5,
                noise: 0.0,
                ..Default::default()
            };
            amg_proxy(ctx, &mut comm, &mut clk, cfg);
        });
        let per_rank = per_rank_events(&log, AMG_SPAN);
        let mean = |evs: &[crate::trace::TraceEvent]| {
            evs.iter().map(|e| e.duration().seconds()).sum::<f64>() / evs.len() as f64
        };
        // Rank 0 (fastest compute) waits longest inside the allreduce;
        // the last rank (slowest) waits least.
        let fast = mean(&per_rank[0]);
        let slow = mean(&per_rank[3]);
        assert!(fast > slow, "fast rank {fast:.3e} vs slow rank {slow:.3e}");
    }

    #[test]
    fn halo_proxy_runs_and_records() {
        let cluster = observed(3, 2, 6);
        let (sent, log) = cluster.run_observed(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let cfg = HaloProxyConfig {
                iterations: 12,
                ..Default::default()
            };
            halo_proxy(ctx, &mut comm, &mut clk, cfg);
            ctx.counters().sent_msgs
        });
        let per_rank = per_rank_events(&log, HALO_SPAN);
        for evs in &per_rank {
            assert_eq!(evs.len(), 12);
        }
        for &s in &sent {
            // 2 halo sends per iteration + allreduce traffic.
            assert!(s >= 24, "sent {s}");
        }
    }

    #[test]
    fn halo_proxy_single_rank_degenerates_gracefully() {
        let cluster = observed(1, 1, 7);
        let (_, log) = cluster.run_observed(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            halo_proxy(ctx, &mut comm, &mut clk, HaloProxyConfig::default());
        });
        assert_eq!(per_rank_events(&log, HALO_SPAN)[0].len(), 20);
    }

    #[test]
    fn proxy_is_deterministic() {
        let run = || {
            let (_, log) = observed(2, 1, 5).run_observed(|ctx| {
                let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                let mut comm = Comm::world(ctx);
                amg_proxy(ctx, &mut comm, &mut clk, AmgProxyConfig::default());
            });
            per_rank_events(&log, AMG_SPAN)
                .iter()
                .map(|evs| evs.last().map(|e| e.exit))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn proxy_timeline_is_identical_with_observability_off() {
        let body = |ctx: &mut RankCtx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            amg_proxy(ctx, &mut comm, &mut clk, AmgProxyConfig::default());
            ctx.now()
        };
        let on = observed(2, 2, 9).run(body);
        let off = testbed(2, 2).cluster(9).run(body);
        assert_eq!(on, off);
    }
}
