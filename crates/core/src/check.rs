//! `Check-Global-Clock` (paper Algorithm 6): evaluate the accuracy of a
//! logical global clock right after synchronization and again after a
//! waiting period, by measuring the offset between the root's and every
//! client's *global* clocks.
//!
//! Because the hardware is simulated, a second, oracle-based view is
//! available: [`oracle_offset`] compares two clocks' noise-free readings
//! at the same true instant. Experiments report the paper's estimator;
//! tests cross-check it against the oracle.

use hcs_clock::{busy_wait_until, Clock, Span};
use hcs_mpi::{tags, Comm};
use hcs_sim::{rngx, RankCtx, SimTime};

use crate::offset::OffsetAlgorithm;

/// Result of one accuracy check, collected at the root.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// `(comm_rank, offset_after_sync, offset_after_wait)` per checked
    /// client (reference − client).
    pub entries: Vec<(usize, Span, Span)>,
    /// The waiting period between the two measurement phases.
    pub wait_time: Span,
}

impl AccuracyReport {
    /// Maximum absolute clock offset right after synchronization.
    pub fn max_abs_at_sync(&self) -> Span {
        self.entries
            .iter()
            .map(|e| e.1.abs())
            .fold(Span::ZERO, Span::max)
    }

    /// Maximum absolute clock offset after the waiting period.
    pub fn max_abs_after_wait(&self) -> Span {
        self.entries
            .iter()
            .map(|e| e.2.abs())
            .fold(Span::ZERO, Span::max)
    }
}

/// The stream the sample is drawn from: draw `c − 1` decides client `c`.
fn sample_rng(master_seed: u64) -> rngx::Pcg64 {
    rngx::stream_rng(master_seed, 0x6A11)
}

/// Which clients a check with `sample_frac` will visit (deterministic in
/// the master seed): those whose draw falls below `sample_frac`, or the
/// last client alone if none does. The root's view; a client asks
/// [`is_sampled`].
fn sampled_clients(master_seed: u64, p: usize, sample_frac: f64) -> Vec<usize> {
    let mut rng = sample_rng(master_seed);
    let sampled: Vec<usize> = (1..p).filter(|_| rng.next_f64() < sample_frac).collect();
    if sampled.is_empty() && p > 1 {
        vec![p - 1]
    } else {
        sampled
    }
}

/// Whether `sampled_clients(master_seed, p, sample_frac)` contains
/// client `me`, from `me`'s own draw in O(log p) — at 4096 ranks every
/// client building the whole list cost more than its ping-pongs. Only
/// the last client can be the empty-sample fallback, so only it looks
/// at the other draws.
fn is_sampled(master_seed: u64, p: usize, sample_frac: f64, me: usize) -> bool {
    debug_assert!((1..p).contains(&me), "clients are comm ranks 1..p");
    let mut own = sample_rng(master_seed);
    own.advance(me as u64 - 1);
    if own.next_f64() < sample_frac {
        return true;
    }
    let mut rng = sample_rng(master_seed);
    me == p - 1 && !(1..me).any(|_| rng.next_f64() < sample_frac)
}

/// Runs the accuracy check collectively. The root (comm rank 0) returns
/// `Some(report)`; clients return `None`.
///
/// Protocol per phase (all offsets end up at the root, as in Alg. 6):
/// the root serves one offset measurement per sampled client (root as
/// reference clock), and the client ships the resulting offset back.
///
/// `sample_frac < 1.0` checks only a deterministic random sample of the
/// clients (the paper uses 10 % on the 16k-process Titan runs). All
/// ranks must pass the same `sample_frac`.
pub fn check_clock_accuracy(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    offset_alg: &mut dyn OffsetAlgorithm,
    wait_time: Span,
    sample_frac: f64,
) -> Option<AccuracyReport> {
    let me = comm.rank();
    let p = comm.size();
    if p <= 1 {
        return (me == 0).then(|| AccuracyReport {
            entries: Vec::new(),
            wait_time,
        });
    }
    if me == 0 {
        let sampled = sampled_clients(ctx.master_seed(), p, sample_frac);
        let timestamp = g_clk.get_time(ctx);
        let mut first = Vec::with_capacity(sampled.len());
        for &c in &sampled {
            offset_alg.measure_offset(ctx, comm, g_clk, 0, c);
            first.push(Span::from_secs(comm.recv_t(ctx, c, tags::REPORT)));
        }
        // Busy-wait on the global clock, as the pseudo-code does.
        busy_wait_until(g_clk, ctx, timestamp + wait_time);
        let mut entries = Vec::with_capacity(sampled.len());
        for (&c, &off0) in sampled.iter().zip(&first) {
            offset_alg.measure_offset(ctx, comm, g_clk, 0, c);
            let off1 = Span::from_secs(comm.recv_t(ctx, c, tags::REPORT));
            entries.push((c, off0, off1));
        }
        Some(AccuracyReport { entries, wait_time })
    } else {
        if is_sampled(ctx.master_seed(), p, sample_frac, me) {
            for _phase in 0..2 {
                let o = offset_alg
                    .measure_offset(ctx, comm, g_clk, 0, me)
                    .expect("client obtains an offset");
                comm.send_t(ctx, 0, tags::REPORT, o.offset.seconds());
            }
        }
        None
    }
}

/// Oracle: the difference between two clocks' noise-free readings at the
/// same true simulated time (`a − b`).
pub fn oracle_offset(a: &dyn Clock, b: &dyn Clock, t: SimTime) -> Span {
    a.true_eval(t) - b.true_eval(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hca3::Hca3;
    use crate::offset::SkampiOffset;
    use crate::sync::run_sync;
    use hcs_clock::{GlobalClockLM, LinearModel, LocalClock, TimeSource};
    use hcs_sim::machines::testbed;
    use hcs_sim::secs;

    #[test]
    fn reports_planted_offsets() {
        // Clients get identical clocks; client 2 is deliberately 50 us
        // behind, which the check must report as +50 us (ref - client).
        let cluster = testbed(4, 1).cluster(1);
        let reports = cluster.run(|ctx| {
            let base = LocalClock::from_oscillator(hcs_clock::Oscillator::perfect(), 0);
            let mut clk: hcs_clock::BoxClock = if ctx.rank() == 2 {
                GlobalClockLM::new(Box::new(base), LinearModel::new(0.0, -50e-6)).boxed()
            } else {
                Box::new(base)
            };
            let mut comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(10);
            check_clock_accuracy(ctx, &mut comm, clk.as_mut(), &mut alg, secs(0.05), 1.0)
        });
        let report = reports[0].as_ref().unwrap();
        assert_eq!(report.entries.len(), 3);
        for &(c, off0, off1) in &report.entries {
            let want = if c == 2 { 50e-6 } else { 0.0 };
            assert!(
                (off0.seconds() - want).abs() < 2e-6,
                "client {c}: off0 {off0:.3e}"
            );
            assert!(
                (off1.seconds() - want).abs() < 2e-6,
                "client {c}: off1 {off1:.3e}"
            );
        }
    }

    #[test]
    fn estimator_agrees_with_oracle_after_hca3() {
        let cluster = testbed(4, 2).cluster(2);
        let out = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(40, 10);
            let mut g = run_sync(&mut sync, ctx, &mut comm, Box::new(clk)).clock;
            let mut alg = SkampiOffset::new(10);
            let report =
                check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut alg, secs(0.02), 1.0);
            // Export the oracle view at a common instant.
            (report, g.true_eval(SimTime::from_secs(2.0)).raw_seconds())
        });
        let report = out[0].0.as_ref().unwrap();
        let ref_eval = out[0].1;
        for &(c, off0, _) in &report.entries {
            let oracle = ref_eval - out[c].1;
            assert!(
                (off0.seconds() - oracle).abs() < 3e-6,
                "client {c}: estimator {off0:.3e} vs oracle {oracle:.3e}"
            );
        }
    }

    #[test]
    fn drift_grows_with_wait_time() {
        // With unsynchronized skewed clocks, the offset after a waiting
        // period must exceed the offset right after the (fake) sync.
        let cluster = testbed(2, 1).cluster(3);
        let reports = cluster.run(|ctx| {
            let skew = if ctx.rank() == 1 { 5e-6 } else { 0.0 };
            let mut clk = LocalClock::from_oscillator(hcs_clock::Oscillator::with_skew(skew), 0);
            let mut comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(10);
            check_clock_accuracy(ctx, &mut comm, &mut clk, &mut alg, secs(1.0), 1.0)
        });
        let r = reports[0].as_ref().unwrap();
        let (_, off0, off1) = r.entries[0];
        // Client gains 5 us per second; after 1 s the ref-client offset
        // shrinks by ~5 us (or grows in magnitude, depending on sign).
        assert!(
            (off1 - off0).abs() > secs(3e-6),
            "off0 {off0:.3e} off1 {off1:.3e}"
        );
    }

    #[test]
    fn sampling_reduces_checked_clients() {
        let all = sampled_clients(7, 100, 1.0);
        assert_eq!(all.len(), 99);
        let some = sampled_clients(7, 100, 0.1);
        assert!(
            !some.is_empty() && some.len() < 40,
            "sampled {}",
            some.len()
        );
        // Deterministic.
        assert_eq!(some, sampled_clients(7, 100, 0.1));
    }

    #[test]
    fn each_client_answers_membership_like_the_roots_list() {
        for p in [2usize, 3, 100, 4097] {
            for frac in [0.0, 1e-9, 0.1, 0.25, 1.0] {
                for seed in [0u64, 7, 0xDEAD_BEEF] {
                    let list = sampled_clients(seed, p, frac);
                    if frac < 1e-6 {
                        assert_eq!(list, vec![p - 1], "the empty-sample fallback");
                    }
                    for me in 1..p {
                        assert_eq!(
                            is_sampled(seed, p, frac, me),
                            list.contains(&me),
                            "p {p}, frac {frac}, seed {seed}, client {me}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_comm_returns_empty_report() {
        let cluster = testbed(1, 1).cluster(4);
        let reports = cluster.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(2);
            check_clock_accuracy(ctx, &mut comm, &mut clk, &mut alg, secs(0.1), 1.0)
        });
        assert!(reports[0].as_ref().unwrap().entries.is_empty());
    }
}
