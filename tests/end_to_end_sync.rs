//! End-to-end accuracy of every synchronization algorithm on every
//! machine profile (scaled shapes), cross-checked against the
//! true-clock oracle that only the simulation can provide.

use hierarchical_clock_sync::prelude::*;

/// Runs `make()` collectively and returns (max oracle error at sync end,
/// max oracle error 10 s later, max duration).
fn accuracy_of(
    machine: &MachineSpec,
    seed: u64,
    make: &(dyn Fn() -> Box<dyn ClockSync> + Sync),
) -> (f64, f64, f64) {
    let cluster = machine.cluster(seed);
    let out = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut alg = make();
        let outcome = run_sync(alg.as_mut(), ctx, &mut comm, Box::new(clk));
        (
            outcome.duration.seconds(),
            outcome
                .clock
                .true_eval(SimTime::from_secs(3.0))
                .raw_seconds(),
            outcome
                .clock
                .true_eval(SimTime::from_secs(13.0))
                .raw_seconds(),
        )
    });
    let dur = out.iter().map(|o| o.0).fold(0.0f64, f64::max);
    let e0 = out
        .iter()
        .map(|o| (o.1 - out[0].1).abs())
        .fold(0.0, f64::max);
    let e10 = out
        .iter()
        .map(|o| (o.2 - out[0].2).abs())
        .fold(0.0, f64::max);
    (e0, e10, dur)
}

fn all_algorithms() -> Vec<(&'static str, SyncFactory)> {
    vec![
        (
            "jk",
            Box::new(|| Box::new(Jk::skampi(60, 10)) as Box<dyn ClockSync>),
        ),
        (
            "hca",
            Box::new(|| Box::new(Hca::skampi(60, 10)) as Box<dyn ClockSync>),
        ),
        (
            "hca2",
            Box::new(|| Box::new(Hca2::skampi(60, 10)) as Box<dyn ClockSync>),
        ),
        (
            "hca3",
            Box::new(|| Box::new(Hca3::skampi(60, 10)) as Box<dyn ClockSync>),
        ),
        (
            "h2hca",
            Box::new(|| {
                Box::new(Hierarchical::h2(
                    Box::new(Hca3::skampi(60, 10)),
                    Box::new(ClockPropSync::verified()),
                )) as Box<dyn ClockSync>
            }),
        ),
        (
            "h3hca",
            Box::new(|| {
                Box::new(Hierarchical::h3(
                    Box::new(Hca3::skampi(60, 10)),
                    Box::new(ClockPropSync::verified()),
                    Box::new(ClockPropSync::verified()),
                )) as Box<dyn ClockSync>
            }),
        ),
    ]
}

#[test]
fn every_algorithm_synchronizes_every_machine() {
    let machines = [
        machines::jupiter().with_shape(4, 2, 2),
        machines::hydra().with_shape(4, 2, 2),
        machines::titan().with_shape(8, 1, 2),
    ];
    for machine in &machines {
        for (name, make) in all_algorithms() {
            let (e0, e10, _) = accuracy_of(machine, 42, make.as_ref());
            assert!(
                e0 < 10e-6,
                "{name} on {}: error right after sync {e0:.3e}",
                machine.name
            );
            assert!(
                e10 < 30e-6,
                "{name} on {}: error after 10 s {e10:.3e}",
                machine.name
            );
        }
    }
}

#[test]
fn unsynchronized_clocks_are_much_worse() {
    // Control experiment: without synchronization, clocks differ by the
    // node offsets (huge) — this is what makes the problem non-trivial.
    let cluster = machines::jupiter().with_shape(4, 1, 1).cluster(1);
    let evals = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        clk.true_eval(SimTime::from_secs(3.0)).raw_seconds()
    });
    let spread = evals.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - evals.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(
        spread > 1.0,
        "unsynchronized spread {spread:.3} s should be huge"
    );
}

#[test]
fn hierarchical_is_faster_than_flat_at_equal_accuracy() {
    let machine = machines::jupiter().with_shape(8, 2, 2);
    let flat: &(dyn Fn() -> Box<dyn ClockSync> + Sync) =
        &|| Box::new(Hca3::skampi(60, 10)) as Box<dyn ClockSync>;
    let hier: &(dyn Fn() -> Box<dyn ClockSync> + Sync) = &|| {
        Box::new(Hierarchical::h2(
            Box::new(Hca3::skampi(60, 10)),
            Box::new(ClockPropSync::verified()),
        )) as Box<dyn ClockSync>
    };
    let (fe0, _, fdur) = accuracy_of(&machine, 7, flat);
    let (he0, _, hdur) = accuracy_of(&machine, 7, hier);
    assert!(hdur < fdur, "hier {hdur:.3} vs flat {fdur:.3}");
    assert!(he0 < 10e-6 && fe0 < 10e-6);
}

#[test]
fn jk_duration_grows_linearly_hca3_logarithmically() {
    let small = machines::jupiter().with_shape(4, 1, 2);
    let large = machines::jupiter().with_shape(16, 1, 2);
    let jk: &(dyn Fn() -> Box<dyn ClockSync> + Sync) =
        &|| Box::new(Jk::skampi(20, 5)) as Box<dyn ClockSync>;
    let hca3: &(dyn Fn() -> Box<dyn ClockSync> + Sync) =
        &|| Box::new(Hca3::skampi(20, 5)) as Box<dyn ClockSync>;
    let (_, _, jk_small) = accuracy_of(&small, 3, jk);
    let (_, _, jk_large) = accuracy_of(&large, 3, jk);
    let (_, _, h_small) = accuracy_of(&small, 3, hca3);
    let (_, _, h_large) = accuracy_of(&large, 3, hca3);
    // 4x the ranks: JK ~4x, HCA3 ~log(32)/log(8) = 5/3.
    assert!(
        jk_large > 3.0 * jk_small,
        "jk {jk_small:.3} -> {jk_large:.3}"
    );
    assert!(h_large < 2.5 * h_small, "hca3 {h_small:.3} -> {h_large:.3}");
}

#[test]
fn estimator_and_oracle_agree() {
    // The paper's Algorithm 6 estimator must track the simulation's
    // ground truth.
    let cluster = machines::hydra().with_shape(4, 2, 2).cluster(5);
    let out = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut alg = Hca3::skampi(60, 10);
        let mut g = alg.sync_clocks(ctx, &mut comm, Box::new(clk));
        let mut probe = SkampiOffset::new(10);
        let report = check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, secs(0.1), 1.0);
        (report, g.true_eval(SimTime::from_secs(2.0)).raw_seconds())
    });
    let report = out[0].0.as_ref().unwrap();
    for &(c, off0, _) in &report.entries {
        let oracle = out[0].1 - out[c].1;
        assert!(
            (off0.seconds() - oracle).abs() < 2e-6,
            "client {c}: estimator {off0:.3e} oracle {oracle:.3e}"
        );
    }
}

#[test]
fn skampi_offset_inside_jk_beats_mean_rtt_offset() {
    // The paper's building-block finding (§III-C3): JK fitting its
    // model on SKaMPI-Offset exchanges ends up more accurate than on the
    // traditional Mean-RTT-Offset, seed after seed.
    let max_err = |seed: u64, make: &(dyn Fn() -> Box<dyn ClockSync> + Sync)| {
        let evals = machines::testbed(4, 2).cluster(seed).run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let g = make().sync_clocks(ctx, &mut comm, Box::new(clk));
            g.true_eval(SimTime::from_secs(5.0)).raw_seconds()
        });
        evals
            .iter()
            .map(|v| (v - evals[0]).abs())
            .fold(0.0, f64::max)
    };
    for seed in 11..=15 {
        let skampi = max_err(seed, &|| Box::new(Jk::skampi(30, 8)) as Box<dyn ClockSync>);
        let mean_rtt = max_err(seed, &|| {
            Box::new(Jk::mean_rtt(30, 8)) as Box<dyn ClockSync>
        });
        assert!(
            skampi <= mean_rtt,
            "seed {seed}: SKaMPI {skampi:.3e} vs Mean-RTT {mean_rtt:.3e}"
        );
    }
}
