//! Clock-offset measurement building blocks (paper §III-A).
//!
//! Both algorithms estimate the current offset `reference − client`
//! between two processes' clocks via ping-pongs, returning a
//! [`ClockOffset`] (offset + the client-clock timestamp it refers to) on
//! the client side:
//!
//! - [`SkampiOffset`] (Algorithm 7, from SKaMPI): keeps the *extreme*
//!   bounds `t_last − s_now` (lower) and `t_last − s_last` (upper) over
//!   all exchanges and returns their midpoint. No RTT estimate needed —
//!   "if a timing packet is lucky enough to experience the minimum
//!   delay, its timestamps have not been corrupted" (Ridoux & Veitch).
//! - [`MeanRttOffset`] (Algorithm 8, from Jones & Koenig): measures the
//!   mean RTT once per pair (cached), then takes the median of
//!   `local − ref − RTT/2` samples.

use std::collections::BTreeMap;

use hcs_clock::{Clock, GlobalTime, LocalTime, Span};
use hcs_mpi::{tags, Comm};
use hcs_sim::RankCtx;

/// One clock-offset fit point: at client-clock reading `timestamp`, the
/// reference clock was estimated to be `offset` ahead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockOffset {
    /// Client clock reading at (or near) the measurement, in the
    /// client's frame (the fit abscissa).
    pub timestamp: LocalTime,
    /// Estimated `reference − client` clock offset.
    pub offset: Span,
}

/// Common parameter of the offset algorithms: ping-pongs per fit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetParams {
    /// Number of ping-pong exchanges per `measure_offset` call
    /// (the paper's `nexchanges`, e.g. 100 for SKaMPI-Offset).
    pub nexchanges: usize,
}

impl Default for OffsetParams {
    fn default() -> Self {
        Self { nexchanges: 10 }
    }
}

/// A pairwise clock-offset estimator (the paper's `MEASURE_OFFSET`).
///
/// Called collectively by the reference and the client rank; other ranks
/// must not call it. Returns `Some(ClockOffset)` on the client, `None`
/// on the reference.
pub trait OffsetAlgorithm: Send {
    /// Short name as used in the paper's labels (e.g. `"SKaMPI-Offset"`).
    fn name(&self) -> &'static str;

    /// Measures the offset between `p_ref`'s and `client`'s clocks
    /// (communicator ranks); both pass their own current clock.
    fn measure_offset(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        clk: &mut dyn Clock,
        p_ref: usize,
        client: usize,
    ) -> Option<ClockOffset>;

    /// Ping-pongs per fit point (for labels).
    fn nexchanges(&self) -> usize;
}

/// SKaMPI's min-filtering offset estimator (paper Algorithm 7).
#[derive(Debug, Clone)]
pub struct SkampiOffset {
    /// Ping-pong count per measurement.
    pub params: OffsetParams,
}

impl SkampiOffset {
    /// With the given number of ping-pongs per fit point.
    pub fn new(nexchanges: usize) -> Self {
        assert!(nexchanges >= 1, "SKaMPI-Offset needs at least one exchange");
        Self {
            params: OffsetParams { nexchanges },
        }
    }
}

impl OffsetAlgorithm for SkampiOffset {
    fn name(&self) -> &'static str {
        "SKaMPI-Offset"
    }

    fn nexchanges(&self) -> usize {
        self.params.nexchanges
    }

    fn measure_offset(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        clk: &mut dyn Clock,
        p_ref: usize,
        client: usize,
    ) -> Option<ClockOffset> {
        let me = comm.rank();
        if me == p_ref {
            for _ in 0..self.params.nexchanges {
                // The client's ping carries its send stamp; only our
                // reply, one line below, matters.
                let _ping = comm.recv_t(ctx, client, tags::PING);
                let t_last = clk.get_time(ctx);
                comm.send_t(ctx, p_ref_partner(client), tags::PING, t_last);
            }
            None
        } else if me == client {
            let mut td_min = Span::from_secs(f64::NEG_INFINITY);
            let mut td_max = Span::from_secs(f64::INFINITY);
            for _ in 0..self.params.nexchanges {
                let s_slast = clk.get_time(ctx);
                comm.send_t(ctx, p_ref, tags::PING, s_slast);
                let t_last = comm.recv_t(ctx, p_ref, tags::PING);
                let s_now = clk.get_time(ctx);
                // t_last - s_now under-estimates (ref stamped a round
                // trip ago), t_last - s_slast over-estimates. The two
                // clocks assert different frames, so these differences
                // are exactly the offsets this estimator exists to find.
                td_min = td_min.max(t_last - s_now);
                td_max = td_max.min(t_last - s_slast);
            }
            let diff = (td_min + td_max) / 2.0;
            Some(ClockOffset {
                timestamp: clk.get_time(ctx).rebase_local(),
                offset: diff,
            })
        } else {
            panic!("measure_offset called by rank {me}, neither ref {p_ref} nor client {client}");
        }
    }
}

/// Helper making the send target explicit at the call site above.
#[inline]
fn p_ref_partner(client: usize) -> usize {
    client
}

/// Jones & Koenig's mean-RTT / median-offset estimator (Algorithm 8).
///
/// The RTT between a pair is measured once (with synchronous sends) and
/// cached across calls, exactly like the paper's `have_rtt` flag.
#[derive(Debug, Clone)]
pub struct MeanRttOffset {
    /// Ping-pong count per measurement.
    pub params: OffsetParams,
    /// Ping-pongs used for the one-time RTT estimate.
    pub rtt_pingpongs: usize,
    /// Per-pair RTT cache. A `BTreeMap` (not `HashMap`): its iteration
    /// order is the key order, so any output derived from walking the
    /// cache is deterministic across processes — the randomly seeded
    /// default hasher would break bit-identical replay.
    rtt_cache: BTreeMap<(usize, usize), Span>,
}

impl MeanRttOffset {
    /// With the given exchanges per fit point and 10 RTT ping-pongs.
    pub fn new(nexchanges: usize) -> Self {
        assert!(
            nexchanges >= 1,
            "Mean-RTT-Offset needs at least one exchange"
        );
        Self {
            params: OffsetParams { nexchanges },
            rtt_pingpongs: 10,
            rtt_cache: BTreeMap::new(),
        }
    }

    fn measure_rtt(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        clk: &mut dyn Clock,
        p_ref: usize,
        client: usize,
    ) -> Span {
        let me = comm.rank();
        let mut sum = Span::ZERO;
        // One untimed warm-up exchange: the two processes may reach this
        // point at very different times (e.g. JK's root has just served
        // another client); without it the first round trip measures that
        // scheduling gap instead of the network.
        for i in 0..=self.rtt_pingpongs {
            if me == client {
                let t0 = clk.get_time(ctx);
                comm.ssend_t(ctx, p_ref, tags::RTT, 0.0);
                comm.recv_t(ctx, p_ref, tags::RTT);
                let t1 = clk.get_time(ctx);
                if i > 0 {
                    sum += t1 - t0;
                }
            } else {
                comm.recv_t(ctx, client, tags::RTT);
                comm.ssend_t(ctx, client, tags::RTT, 0.0);
            }
        }
        sum / self.rtt_pingpongs as f64
    }
}

impl OffsetAlgorithm for MeanRttOffset {
    fn name(&self) -> &'static str {
        "Mean-RTT-Offset"
    }

    fn nexchanges(&self) -> usize {
        self.params.nexchanges
    }

    fn measure_offset(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        clk: &mut dyn Clock,
        p_ref: usize,
        client: usize,
    ) -> Option<ClockOffset> {
        let me = comm.rank();
        assert!(
            me == p_ref || me == client,
            "measure_offset called by rank {me}, neither ref {p_ref} nor client {client}"
        );
        let key = (p_ref, client);
        let rtt = match self.rtt_cache.get(&key) {
            Some(&rtt) => rtt,
            None => {
                let rtt = self.measure_rtt(ctx, comm, clk, p_ref, client);
                self.rtt_cache.insert(key, rtt);
                rtt
            }
        };
        if me == p_ref {
            for _ in 0..self.params.nexchanges {
                comm.recv_t(ctx, client, tags::PING);
                let tlocal = clk.get_time(ctx);
                comm.ssend_t(ctx, client, tags::PING, tlocal);
            }
            None
        } else {
            let n = self.params.nexchanges;
            let mut local_time = Vec::with_capacity(n);
            let mut time_var = Vec::with_capacity(n);
            for _ in 0..n {
                comm.ssend_t(ctx, p_ref, tags::PING, GlobalTime::ZERO);
                let ref_time = comm.recv_t(ctx, p_ref, tags::PING);
                let lt = clk.get_time(ctx);
                // ref stamped ~RTT/2 before our read; offset = ref - client.
                local_time.push(lt.rebase_local());
                time_var.push(ref_time + rtt / 2.0 - lt);
            }
            // Median by value; pick the sample realizing it (paper line 17).
            let mut sorted = time_var.clone();
            sorted.sort_by(|a, b| a.seconds().total_cmp(&b.seconds()));
            let median = sorted[sorted.len() / 2];
            let med_idx = time_var
                .iter()
                .position(|&v| v == median)
                .expect("median value present in samples");
            Some(ClockOffset {
                timestamp: local_time[med_idx],
                offset: time_var[med_idx],
            })
        }
    }
}

/// Declarative choice of offset algorithm — lets synchronization
/// algorithms be configured without carrying trait objects around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetSpec {
    /// [`SkampiOffset`] with `nexchanges` ping-pongs.
    Skampi {
        /// Ping-pongs per fit point.
        nexchanges: usize,
    },
    /// [`MeanRttOffset`] with `nexchanges` ping-pongs.
    MeanRtt {
        /// Ping-pongs per fit point.
        nexchanges: usize,
    },
}

impl OffsetSpec {
    /// Instantiates the algorithm.
    pub fn build(&self) -> Box<dyn OffsetAlgorithm> {
        match *self {
            OffsetSpec::Skampi { nexchanges } => Box::new(SkampiOffset::new(nexchanges)),
            OffsetSpec::MeanRtt { nexchanges } => Box::new(MeanRttOffset::new(nexchanges)),
        }
    }

    /// Label fragment, e.g. `"SKaMPI-Offset/100"`.
    pub fn label(&self) -> String {
        match *self {
            OffsetSpec::Skampi { nexchanges } => format!("SKaMPI-Offset/{nexchanges}"),
            OffsetSpec::MeanRtt { nexchanges } => format!("Mean-RTT-Offset/{nexchanges}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{LocalClock, Oscillator};
    use hcs_mpi::Comm;
    use hcs_sim::machines::testbed;

    /// Sets up a two-node pair with known constant clock offsets and
    /// measures; both estimators must find the planted offset within the
    /// network's jitter scale.
    fn measure_with(build: impl Fn() -> Box<dyn OffsetAlgorithm> + Sync) -> f64 {
        let planted = 125e-6; // ref is 125 us ahead
        let cluster = testbed(2, 1).cluster(99);
        let results = cluster.run(|ctx| {
            let comm = Comm::world(ctx);
            let osc = Oscillator::perfect();
            let mut clk = LocalClock::from_oscillator(osc, 0);
            let mut alg = build();
            if comm.rank() == 0 {
                // The reference runs `planted` ahead: emulate via a
                // decorated clock.
                let mut ref_clk = hcs_clock::GlobalClockLM::new(
                    Box::new(clk),
                    hcs_clock::LinearModel::new(0.0, planted),
                );
                alg.measure_offset(ctx, &comm, &mut ref_clk, 0, 1);
                None
            } else {
                alg.measure_offset(ctx, &comm, &mut clk, 0, 1)
            }
        });
        let got = results[1].expect("client got an offset");
        got.offset.seconds()
    }

    #[test]
    fn skampi_offset_finds_planted_offset() {
        let planted = 125e-6;
        let got = measure_with(|| Box::new(SkampiOffset::new(20)));
        assert!((got - planted).abs() < 2e-6, "got {got:.3e}");
    }

    #[test]
    fn mean_rtt_offset_finds_planted_offset() {
        let planted = 125e-6;
        let got = measure_with(|| Box::new(MeanRttOffset::new(20)));
        assert!((got - planted).abs() < 3e-6, "got {got:.3e}");
    }

    #[test]
    fn client_timestamp_is_in_client_frame() {
        let cluster = testbed(2, 1).cluster(7);
        let results = cluster.run(|ctx| {
            let comm = Comm::world(ctx);
            let mut clk = LocalClock::from_oscillator(Oscillator::perfect(), 0);
            // Client pre-advances its own time by 5 s.
            if comm.rank() == 1 {
                ctx.compute(hcs_sim::secs(5.0));
            }
            let mut alg = SkampiOffset::new(4);
            alg.measure_offset(ctx, &comm, &mut clk, 0, 1)
        });
        let off = results[1].unwrap();
        assert!(
            off.timestamp.raw_seconds() > 5.0,
            "timestamp {} must reflect client clock",
            off.timestamp
        );
    }

    #[test]
    fn mean_rtt_caches_rtt() {
        let cluster = testbed(2, 1).cluster(8);
        let counts = cluster.run(|ctx| {
            let comm = Comm::world(ctx);
            let mut clk = LocalClock::from_oscillator(Oscillator::perfect(), 0);
            let mut alg = MeanRttOffset::new(3);
            if comm.rank() <= 1 {
                for _ in 0..3 {
                    alg.measure_offset(ctx, &comm, &mut clk, 0, 1);
                }
            }
            ctx.counters().sent_msgs
        });
        // RTT phase: 10 timed + 1 warm-up ping-pongs -> 11 payload msgs (plus
        // engine acks, which are not counted as sent_msgs). Exchanges: 3
        // calls x 3 exchanges. Without caching the client would send far
        // more; with caching 11 + 9 = 20.
        assert_eq!(counts[1], 20, "client sent {}", counts[1]);
    }

    #[test]
    fn offset_spec_builds_and_labels() {
        assert_eq!(
            OffsetSpec::Skampi { nexchanges: 100 }.label(),
            "SKaMPI-Offset/100"
        );
        assert_eq!(
            OffsetSpec::MeanRtt { nexchanges: 20 }.label(),
            "Mean-RTT-Offset/20"
        );
        assert_eq!(
            OffsetSpec::Skampi { nexchanges: 5 }.build().name(),
            "SKaMPI-Offset"
        );
        assert_eq!(
            OffsetSpec::MeanRtt { nexchanges: 5 }.build().name(),
            "Mean-RTT-Offset"
        );
    }

    #[test]
    #[should_panic(expected = "neither ref")]
    fn third_party_call_panics() {
        let cluster = testbed(3, 1).cluster(9);
        cluster.run(|ctx| {
            let comm = Comm::world(ctx);
            let mut clk = LocalClock::from_oscillator(Oscillator::perfect(), 0);
            if comm.rank() == 2 {
                let mut alg = SkampiOffset::new(2);
                alg.measure_offset(ctx, &comm, &mut clk, 0, 1);
            }
        });
    }
}
