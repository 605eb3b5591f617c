//! Randomized property tests over the core invariants.
//!
//! Each test draws its cases from a seeded in-tree [`Pcg64`] stream, so
//! the suite is fully deterministic, needs no external crates (the
//! workspace must build offline) and still sweeps a broad parameter
//! space per run.

use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::rngx::{self, Pcg64};

fn case_rng(label: u64) -> Pcg64 {
    // Fixed master seed: failures reproduce exactly.
    rngx::stream_rng(0xC0FFEE, label)
}

fn small_model(rng: &mut Pcg64) -> LinearModel {
    LinearModel::new(rng.range(-100e-6, 100e-6), rng.range(-1e-3, 1e-3))
}

#[test]
fn model_compose_is_associative() {
    let mut rng = case_rng(1);
    for _ in 0..64 {
        let (a, b, c) = (
            small_model(&mut rng),
            small_model(&mut rng),
            small_model(&mut rng),
        );
        let raw = rng.range(-1e4, 1e4);
        let x = LocalTime::from_raw_seconds(raw);
        let left = LinearModel::compose(&LinearModel::compose(&a, &b), &c);
        let right = LinearModel::compose(&a, &LinearModel::compose(&b, &c));
        let scale = 1.0 + raw.abs();
        assert!((left.apply(x) - right.apply(x)).abs() < secs(1e-9 * scale));
    }
}

#[test]
fn model_compose_matches_pointwise_composition() {
    // `compose(ab, bc)` must agree with applying the two hops in
    // sequence: c-frame -> b-frame -> a-frame. The intermediate
    // `GlobalTime` is rebased because `bc`'s output frame is `ab`'s
    // input frame.
    let mut rng = case_rng(14);
    for _ in 0..64 {
        let ab = small_model(&mut rng);
        let bc = small_model(&mut rng);
        let raw = rng.range(-1e4, 1e4);
        let x = LocalTime::from_raw_seconds(raw);
        let direct = LinearModel::compose(&ab, &bc).apply(x);
        let hops = ab.apply(bc.apply(x).rebase_local());
        assert!((direct - hops).abs() < secs(1e-9 * (1.0 + raw.abs())));
    }
}

#[test]
fn model_invert_roundtrips() {
    // `invert` after `apply` is the identity on `LocalTime` (within
    // float tolerance): global-frame projections lose no information.
    let mut rng = case_rng(2);
    for _ in 0..64 {
        let m = small_model(&mut rng);
        let raw = rng.range(-1e4, 1e4);
        let x = LocalTime::from_raw_seconds(raw);
        let g = m.apply(x);
        assert!((m.invert(g) - x).abs() < secs(1e-6 * (1.0 + raw.abs())));
    }
}

#[test]
fn fit_recovers_arbitrary_lines() {
    let mut rng = case_rng(3);
    for _ in 0..64 {
        let slope = rng.range(-1e-3, 1e-3);
        let intercept = rng.range(-1.0, 1.0);
        let x0 = rng.range(0.0, 1e4);
        let n = 2 + (rng.next_u64() % 58) as usize;
        let xs: Vec<LocalTime> = (0..n)
            .map(|i| LocalTime::from_raw_seconds(x0 + i as f64 * 0.25))
            .collect();
        let ys: Vec<Span> = xs
            .iter()
            .map(|x| secs(slope * x.raw_seconds() + intercept))
            .collect();
        let fit = fit_linear_model(&xs, &ys).model;
        assert!(
            (fit.slope - slope).abs() < 1e-9 + slope.abs() * 1e-6,
            "slope {} vs {}",
            fit.slope,
            slope
        );
        let mid = x0 + n as f64 * 0.125;
        let at_mid = fit.offset_at(LocalTime::from_raw_seconds(mid));
        assert!((at_mid - secs(slope * mid + intercept)).abs() < secs(1e-6));
    }
}

#[test]
fn rng_streams_never_collide() {
    let mut rng = case_rng(4);
    for _ in 0..256 {
        let master = rng.next_u64();
        let a = (rng.next_u64() % 100_000) as usize;
        let b = (rng.next_u64() % 100_000) as usize;
        if a == b {
            continue;
        }
        assert_ne!(
            rngx::derive_seed(master, rngx::label::rank_net(a)),
            rngx::derive_seed(master, rngx::label::rank_net(b))
        );
    }
}

#[test]
fn oscillator_displacement_is_continuous() {
    let mut rng = case_rng(5);
    let spec = ClockSpec::commodity();
    let o = Oscillator::for_node(&spec, 42, 3);
    for _ in 0..64 {
        let skew = rng.range(-1e-5, 1e-5);
        let t = SimTime::from_secs(rng.range(0.0, 1e3));
        let d1 = o.displacement(t);
        let d2 = o.displacement(t + secs(1e-6));
        // Rate is bounded by skew + wander amplitudes (well below 1e-4).
        assert!((d2 - d1).abs() < 1e-6 * 1e-4 + skew.abs() * 1e-6 + 1e-12);
    }
}

#[test]
fn collectives_compute_correct_values() {
    let mut rng = case_rng(6);
    for _ in 0..12 {
        let nodes = 1 + (rng.next_u64() % 4) as usize;
        let cores = 1 + (rng.next_u64() % 3) as usize;
        let len = 1 + (rng.next_u64() % 63) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let seed = rng.next_u64() % 1000;
        let cluster = machines::testbed(nodes, cores).cluster(seed);
        let p = nodes * cores;
        let pl = payload.clone();
        let results = cluster.run(move |ctx| {
            let mut comm = Comm::world(ctx);
            // Each rank XORs its rank id into the payload; byte-max over
            // all ranks is deterministic and order-independent.
            let mine: Vec<u8> = pl.iter().map(|&b| b ^ comm.rank() as u8).collect();
            let max = comm.allreduce(ctx, &mine, ReduceOp::ByteMax);
            let got = comm.bcast(ctx, 0, &max);
            (max, got)
        });
        let expect: Vec<u8> = payload
            .iter()
            .map(|&b| (0..p).map(|r| b ^ r as u8).max().unwrap())
            .collect();
        for (max, got) in results {
            assert_eq!(&max, &expect);
            assert_eq!(&got, &expect);
        }
    }
}

#[test]
fn barriers_always_synchronize() {
    let mut rng = case_rng(7);
    for _ in 0..6 {
        let nodes = 1 + (rng.next_u64() % 4) as usize;
        let cores = 1 + (rng.next_u64() % 3) as usize;
        let p = nodes * cores;
        if p <= 1 {
            continue;
        }
        let late_rank = (rng.next_u64() as usize) % p;
        let seed = rng.next_u64() % 1000;
        let cluster = machines::testbed(nodes, cores).cluster(seed);
        for alg in BarrierAlgorithm::ALL {
            let times = cluster.run(move |ctx| {
                let mut comm = Comm::world(ctx);
                if ctx.rank() == late_rank {
                    ctx.compute(secs(1e-3));
                }
                comm.barrier(ctx, alg);
                ctx.now()
            });
            for (r, &t) in times.iter().enumerate() {
                assert!(
                    t >= SimTime::from_secs(1e-3),
                    "{alg:?}: rank {r} exited at {t} before late entry"
                );
            }
        }
    }
}

#[test]
fn flatten_roundtrips_arbitrary_chains() {
    let mut rng = case_rng(8);
    for _ in 0..12 {
        let depth = (rng.next_u64() % 6) as usize;
        let models: Vec<(f64, f64)> = (0..depth)
            .map(|_| (rng.range(-50e-6, 50e-6), rng.range(-1e-2, 1e-2)))
            .collect();
        let raw_t = rng.range(0.0, 100.0);
        let t = SimTime::from_secs(raw_t);
        let build = |base: BoxClock| -> BoxClock {
            let mut c = base;
            for &(s, i) in &models {
                c = GlobalClockLM::new(c, LinearModel::new(s, i)).boxed();
            }
            c
        };
        let base1: BoxClock = Box::new(LocalClock::from_oscillator(Oscillator::with_skew(1e-6), 0));
        let base2: BoxClock = Box::new(LocalClock::from_oscillator(Oscillator::with_skew(1e-6), 0));
        let chain = build(base1);
        let bytes = hierarchical_clock_sync::clock::flatten_clock(chain.as_ref());
        let rebuilt = hierarchical_clock_sync::clock::unflatten_clock(base2, &bytes);
        assert!((rebuilt.true_eval(t) - chain.true_eval(t)).abs() < secs(1e-9 * (1.0 + raw_t)));
    }
}

#[test]
fn reduce_equals_allreduce_at_root() {
    let mut rng = case_rng(11);
    for _ in 0..12 {
        let nodes = 1 + (rng.next_u64() % 3) as usize;
        let cores = 1 + (rng.next_u64() % 2) as usize;
        let p = nodes * cores;
        let root = (rng.next_u64() as usize) % p;
        let seed = rng.next_u64() % 500;
        let cluster = machines::testbed(nodes, cores).cluster(seed);
        let results = cluster.run(move |ctx| {
            let mut comm = Comm::world(ctx);
            let x = (comm.rank() as f64 + 0.5).to_le_bytes();
            let reduced = comm.reduce(ctx, root, &x, ReduceOp::F64Sum);
            let all = comm.allreduce(ctx, &x, ReduceOp::F64Sum);
            (reduced, all)
        });
        for (r, (reduced, all)) in results.iter().enumerate() {
            if r == root {
                assert_eq!(reduced.as_ref().unwrap(), all, "root {}", root);
            } else {
                assert!(reduced.is_none());
            }
        }
    }
}

#[test]
fn busy_wait_terminates_and_never_undershoots() {
    let mut rng = case_rng(12);
    for _ in 0..12 {
        let skew = rng.range(-300.0, 300.0) * 1e-6;
        let wait_s = rng.range(1e-4, 2.0);
        let seed = rng.next_u64() % 500;
        let cluster = machines::testbed(1, 1).cluster(seed);
        let (reached, target) = cluster
            .run(move |ctx| {
                let mut clk: BoxClock =
                    Box::new(LocalClock::from_oscillator(Oscillator::with_skew(skew), 0));
                let start = clk.get_time(ctx);
                let target = start + secs(wait_s);
                (busy_wait_until(clk.as_mut(), ctx, target), target)
            })
            .remove(0);
        assert!(reached >= target);
        // Overshoot bounded by the polling quantum (generously).
        assert!(
            reached - target < secs(1e-4),
            "overshoot {}",
            reached - target
        );
    }
}

#[test]
fn virtual_time_is_monotonic_per_rank() {
    let mut rng = case_rng(13);
    for _ in 0..8 {
        let nodes = 2 + (rng.next_u64() % 2) as usize;
        let cores = 1 + (rng.next_u64() % 2) as usize;
        let seed = rng.next_u64() % 500;
        let cluster = machines::testbed(nodes, cores).cluster(seed);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let mut last = ctx.now();
            for i in 0..20u32 {
                let _ = comm.allreduce_f64(ctx, i as f64, ReduceOp::F64Sum);
                assert!(ctx.now() >= last, "virtual time went backwards");
                last = ctx.now();
            }
        });
    }
}
