//! End-to-end case studies: the tuner, span profiles read back from the
//! observability layer and the post-mortem pipeline, wired through the
//! whole stack.

use hierarchical_clock_sync::bench::postmortem::{interpolate, measure_epoch};
use hierarchical_clock_sync::bench::trace::per_rank_events;
use hierarchical_clock_sync::bench::tuner::{tune_allreduce, TuneScheme};
use hierarchical_clock_sync::bench::workloads::{halo_proxy, HaloProxyConfig, HALO_SPAN};
use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::ClockReadings;

/// Runs `body` inside span `name` (sequence `seq`), both edges carrying
/// `clk`'s readings.
fn timed(
    ctx: &mut RankCtx,
    clk: &mut dyn Clock,
    name: &str,
    seq: u32,
    body: impl FnOnce(&mut RankCtx, &mut dyn Clock),
) {
    let enter = clk.get_time(ctx);
    ctx.obs_enter_read(name, seq, ClockReadings::global(enter.raw_seconds()));
    body(ctx, clk);
    let exit = clk.get_time(ctx);
    ctx.obs_exit_read(ClockReadings::global(exit.raw_seconds()));
}

#[test]
fn tuner_decisions_are_deterministic_and_seed_sensitive() {
    let run = |seed: u64| {
        machines::testbed(4, 2)
            .cluster(seed)
            .run(|ctx| {
                let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                let mut comm = Comm::world(ctx);
                let mut sync = Hca3::skampi(25, 6);
                let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
                tune_allreduce(
                    ctx,
                    &mut comm,
                    g.as_mut(),
                    TuneScheme::RoundTime {
                        slice_s: secs(0.03),
                        max_reps: 30,
                    },
                    &[8],
                )
            })
            .remove(0)
            .unwrap()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a[0].candidates, b[0].candidates, "same seed, same table");
    let c = run(2);
    // Same winner is expected, but the raw latencies must differ.
    assert_ne!(
        a[0].candidates[0].latency_s, c[0].candidates[0].latency_s,
        "different seeds should perturb the measurements"
    );
}

#[test]
fn halo_spans_nest_inside_the_enclosing_span() {
    // Every halo span lies inside a span around the whole proxy read
    // with the same clock, so the enclosing span covers their sum.
    let cluster = machines::testbed(3, 1)
        .cluster(11)
        .to_builder()
        .observability(ObsSpec::full())
        .build();
    let (_, log) = cluster.run_observed(|ctx| {
        let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let cfg = HaloProxyConfig {
            iterations: 8,
            ..Default::default()
        };
        timed(ctx, &mut clk, "halo", 0, |ctx, clk| {
            halo_proxy(ctx, &mut comm, clk, cfg)
        });
    });
    let outer = per_rank_events(&log, "halo");
    let inner = per_rank_events(&log, HALO_SPAN);
    for (rank, (outer, inner)) in outer.iter().zip(&inner).enumerate() {
        let [outer] = outer[..] else {
            panic!("rank {rank}: {} enclosing spans", outer.len())
        };
        assert_eq!(inner.len(), 8, "rank {rank}");
        for e in inner {
            assert!(
                outer.enter <= e.enter && e.exit <= outer.exit,
                "rank {rank}: halo span {e:?} outside {outer:?}"
            );
        }
        let traced: Span = inner.iter().map(|e| e.duration()).sum();
        assert!(traced <= outer.duration(), "rank {rank}");
        assert!(outer.duration() > Span::ZERO);
    }
}

#[test]
fn postmortem_interpolation_beats_raw_on_drifting_cluster() {
    let res = machines::hydra()
        .with_shape(4, 1, 1)
        .cluster(13)
        .run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let oracle = LocalClock::new(ctx, TimeSource::MpiWtime);
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(15);
            let begin = measure_epoch(ctx, &comm, &mut clk, &mut alg);
            // 60 s of "application".
            ctx.compute(secs(60.0));
            // Mid-trace probe instant in local clock terms (oracle view).
            let mid_local = oracle.true_eval(SimTime::from_secs(30.0)).rebase_local();
            let end = measure_epoch(ctx, &comm, &mut clk, &mut alg);
            (
                mid_local.raw_seconds(),
                interpolate(begin, end, mid_local).raw_seconds(),
            )
        });
    let raw_spread = res
        .iter()
        .map(|r| (r.0 - res[0].0).abs())
        .fold(0.0f64, f64::max);
    let corrected_spread = res
        .iter()
        .map(|r| (r.1 - res[0].1).abs())
        .fold(0.0f64, f64::max);
    assert!(
        corrected_spread < raw_spread / 100.0,
        "interpolation {corrected_spread:.3e} should crush raw {raw_spread:.3e}"
    );
}

#[test]
fn profiled_allreduce_fraction_matches_amg_premise() {
    // Communication-bound iteration: the allreduce share of the spans
    // must dominate (the paper's AMG profile shows ~80%).
    let cluster = machines::jupiter()
        .with_shape(6, 2, 2)
        .cluster(17)
        .to_builder()
        .observability(ObsSpec::spans_only())
        .build();
    let (_, log) = cluster.run_observed(|ctx| {
        let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        for iter in 0..15 {
            timed(ctx, &mut clk, "compute", iter, |ctx, _| {
                ctx.compute(secs(8e-6))
            });
            timed(ctx, &mut clk, "allreduce", iter, |ctx, _| {
                let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
            });
        }
    });
    assert_eq!(log.total_dropped(), 0);
    let compute = per_rank_events(&log, "compute");
    let allreduce = per_rank_events(&log, "allreduce");
    let mut inside = Span::ZERO;
    let mut run = Span::ZERO;
    for (c, a) in compute.iter().zip(&allreduce) {
        assert_eq!((c.len(), a.len()), (15, 15));
        inside += a.iter().map(|e| e.duration()).sum::<Span>();
        run += a[14].exit - c[0].enter;
    }
    let frac = inside / run;
    assert!(frac > 0.6, "allreduce fraction {frac:.2}");
}
