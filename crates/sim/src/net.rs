//! Network latency models.
//!
//! A message's one-way latency is
//! `base + per_byte * size + jitter (+ rare congestion spike) (+ link asymmetry)`,
//! where the level (`SameSocket` / `SameNode` / `InterNode`) selects the
//! parameter set. Jitter is log-normal (a common fit for MPI
//! point-to-point latencies: sharp left edge near the minimum, heavy
//! right tail); congestion spikes model the occasional outliers that the
//! window-based scheme of the paper suffers from and the Round-Time
//! scheme is designed to tolerate.
//!
//! All durations are typed as [`Span`] (seconds); the `_s` field-name
//! suffix is kept so the profile literals still read as seconds.

#![forbid(unsafe_code)]

use crate::detmath;
use crate::rngx::{self, Pcg64};
use crate::timebase::Span;
use crate::topology::Level;

/// Jitter model: log-normal body plus a rare exponential spike.
#[derive(Debug, Clone, PartialEq)]
pub struct Jitter {
    /// Median of the log-normal jitter body.
    pub median_s: Span,
    /// Shape (σ) of the log-normal body.
    pub sigma: f64,
    /// Probability of a congestion spike per message.
    pub spike_prob: f64,
    /// Mean of the exponential spike magnitude.
    pub spike_mean_s: Span,
}

impl Jitter {
    /// Jitter with only the log-normal body (no spikes).
    pub fn smooth(median_s: Span, sigma: f64) -> Self {
        Self {
            median_s,
            sigma,
            spike_prob: 0.0,
            spike_mean_s: Span::ZERO,
        }
    }

    /// Draws a non-negative jitter sample.
    pub fn sample(&self, rng: &mut Pcg64) -> Span {
        // The body's normal deviate comes first, even when jitter is
        // disabled, which keeps the stream aligned.
        let z = rngx::normal(rng);
        self.sample_after(z, rng)
    }

    /// The jitter sample whose body's standard normal deviate `z` was
    /// already drawn from `rng`: `median * exp(sigma * z)`, plus the
    /// spike drawn from `rng` now.
    pub(crate) fn sample_after(&self, z: f64, rng: &mut Pcg64) -> Span {
        let mut j = if self.median_s > Span::ZERO {
            Span::from_secs(self.median_s.seconds() * detmath::exp(self.sigma * z))
        } else {
            Span::ZERO
        };
        if self.spike_prob > 0.0 && rng.next_f64() < self.spike_prob {
            j += Span::from_secs(rngx::exponential(rng, self.spike_mean_s.seconds()));
        }
        j
    }
}

/// Latency parameters for one topology level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelLatency {
    /// Deterministic base one-way latency.
    pub base_s: Span,
    /// Per-byte cost (inverse bandwidth).
    pub per_byte_s: Span,
    /// Stochastic jitter added on top.
    pub jitter: Jitter,
}

impl LevelLatency {
    /// Convenience constructor with smooth jitter at `jitter_frac * base`.
    pub fn simple(base_s: Span, bandwidth_bps: f64, jitter_frac: f64, sigma: f64) -> Self {
        Self {
            base_s,
            per_byte_s: Span::from_secs(1.0 / bandwidth_bps),
            jitter: Jitter::smooth(base_s * jitter_frac, sigma),
        }
    }
}

/// Full network model: one [`LevelLatency`] per level, plus software
/// send/receive overheads and an optional deterministic per-link
/// asymmetry.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Intra-socket (shared L3) transfers.
    pub same_socket: LevelLatency,
    /// Intra-node, cross-socket transfers.
    pub same_node: LevelLatency,
    /// Network transfers.
    pub inter_node: LevelLatency,
    /// CPU time charged to the sender per send call.
    pub send_overhead_s: Span,
    /// CPU time charged to the receiver per matched receive.
    pub recv_overhead_s: Span,
    /// Relative magnitude of the deterministic directional asymmetry per
    /// ordered link (e.g. `0.01` means up to ±1 % of base). Clock-offset
    /// estimators cannot cancel this term; it sets their accuracy floor.
    pub asymmetry_frac: f64,
    /// Per-message NIC occupancy (LogGP-style gap). When a rank declares
    /// that `k` node peers are communicating concurrently (see
    /// `RankCtx::set_active_peers`, used by the collectives), each
    /// inter-node message queues behind `U(0, k-1)` peers' messages and
    /// pays `gap · U`. This statistical contention model is what spreads
    /// barrier exit times apart for NIC-heavy algorithms (paper Fig. 8).
    pub nic_gap_s: Span,
}

impl NetworkModel {
    /// Parameters for the given level.
    pub fn level(&self, level: Level) -> &LevelLatency {
        match level {
            Level::SameSocket => &self.same_socket,
            Level::SameNode => &self.same_node,
            Level::InterNode => &self.inter_node,
        }
    }

    /// Deterministic directional skew for the ordered link `src → dst`,
    /// as a fraction of the base latency in `[-asymmetry_frac, +asymmetry_frac]`.
    ///
    /// The skew is antisymmetric (`skew(a,b) = -skew(b,a)`), mirroring a
    /// real route imbalance: one direction is consistently faster.
    pub fn link_skew(&self, src: usize, dst: usize) -> f64 {
        if self.asymmetry_frac == 0.0 || src == dst {
            return 0.0;
        }
        let (lo, hi, sign) = if src < dst {
            (src, dst, 1.0)
        } else {
            (dst, src, -1.0)
        };
        let mut s = (lo as u64) << 32 | hi as u64;
        let h = rngx::splitmix64(&mut s);
        // Map to [-1, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        sign * u * self.asymmetry_frac
    }

    /// Samples the one-way latency of a `bytes`-sized message from `src`
    /// to `dst` at the given level, using the sender's RNG stream.
    pub fn sample_latency(
        &self,
        rng: &mut Pcg64,
        level: Level,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> Span {
        let z = rngx::normal(rng);
        self.sample_latency_after(z, rng, level, src, dst, bytes)
    }

    /// [`NetworkModel::sample_latency`] with the jitter's normal deviate
    /// `z` already drawn from `rng`.
    pub(crate) fn sample_latency_after(
        &self,
        z: f64,
        rng: &mut Pcg64,
        level: Level,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> Span {
        let p = self.level(level);
        let base = p.base_s * (1.0 + self.link_skew(src, dst));
        base + p.per_byte_s * bytes as f64 + p.jitter.sample_after(z, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngx::stream_rng;
    use crate::timebase::secs;

    fn model() -> NetworkModel {
        NetworkModel {
            same_socket: LevelLatency::simple(secs(0.3e-6), 8e9, 0.05, 0.4),
            same_node: LevelLatency::simple(secs(0.6e-6), 6e9, 0.05, 0.4),
            inter_node: LevelLatency::simple(secs(3.5e-6), 3e9, 0.05, 0.5),
            send_overhead_s: secs(50e-9),
            recv_overhead_s: secs(50e-9),
            asymmetry_frac: 0.01,
            nic_gap_s: Span::ZERO,
        }
    }

    #[test]
    fn latency_grows_with_level() {
        let m = model();
        let mut rng = stream_rng(0, 0);
        let s = m.sample_latency(&mut rng, Level::SameSocket, 0, 1, 8);
        let n = m.sample_latency(&mut rng, Level::SameNode, 0, 4, 8);
        let i = m.sample_latency(&mut rng, Level::InterNode, 0, 64, 8);
        assert!(s < n && n < i, "{s} {n} {i}");
    }

    #[test]
    fn latency_grows_with_size() {
        let m = model();
        // Compare deterministic parts: jitter medians are equal.
        let small = m.level(Level::InterNode).base_s + m.level(Level::InterNode).per_byte_s * 8.0;
        let large =
            m.level(Level::InterNode).base_s + m.level(Level::InterNode).per_byte_s * 1_000_000.0;
        assert!(large > small);
    }

    #[test]
    fn jitter_is_nonnegative_and_spiky() {
        let j = Jitter {
            median_s: secs(1e-7),
            sigma: 0.5,
            spike_prob: 0.05,
            spike_mean_s: secs(1e-5),
        };
        let mut rng = stream_rng(1, 1);
        let samples: Vec<Span> = (0..20_000).map(|_| j.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= Span::ZERO));
        let spikes = samples.iter().filter(|&&x| x > secs(5e-6)).count();
        // ~5% spike probability should produce a visible tail.
        assert!(spikes > 200, "spikes {spikes}");
    }

    #[test]
    fn link_skew_is_antisymmetric_and_bounded() {
        let m = model();
        for (a, b) in [(0usize, 5usize), (3, 17), (100, 2)] {
            let ab = m.link_skew(a, b);
            let ba = m.link_skew(b, a);
            assert!((ab + ba).abs() < 1e-15);
            assert!(ab.abs() <= m.asymmetry_frac);
        }
        assert_eq!(m.link_skew(4, 4), 0.0);
    }

    #[test]
    fn zero_jitter_stays_zero() {
        let j = Jitter::smooth(Span::ZERO, 0.5);
        let mut rng = stream_rng(2, 2);
        for _ in 0..100 {
            assert_eq!(j.sample(&mut rng), Span::ZERO);
        }
    }
}
