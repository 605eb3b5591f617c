//! OS-noise injection: random preemptions of local computation.
//!
//! HPC "system noise" (kernel ticks, daemons, NIC interrupts) preempts
//! application compute phases for tens of microseconds at a time. It is
//! a classic source of imbalance in collective benchmarks and one of
//! the external experimental factors the paper's Round-Time scheme is
//! designed to survive (a preempted rank misses a window / invalidates
//! one round instead of cascading).
//!
//! Noise events form a Poisson process per rank over *compute* time
//! (blocked time is not preempted in a way the application can see);
//! each event steals an exponentially distributed slice. Everything is
//! drawn from a dedicated per-rank RNG stream, so runs stay
//! bit-deterministic.

#![forbid(unsafe_code)]

use crate::timebase::{secs, Span};

/// Parameters of the per-rank OS-noise process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Mean noise-event rate, events per second of compute time.
    pub rate_hz: f64,
    /// Mean duration of one preemption.
    pub mean_preempt_s: Span,
}

impl NoiseSpec {
    /// A typical commodity-Linux profile: ~100 Hz of small ticks.
    pub fn commodity_linux() -> Self {
        Self {
            rate_hz: 100.0,
            mean_preempt_s: secs(5e-6),
        }
    }

    /// A noisy node (co-located daemons, unpinned IRQs).
    pub fn noisy() -> Self {
        Self {
            rate_hz: 500.0,
            mean_preempt_s: secs(20e-6),
        }
    }

    /// Expected slowdown factor of pure compute phases.
    pub fn expected_slowdown(&self) -> f64 {
        1.0 + self.rate_hz * self.mean_preempt_s.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::testbed;

    #[test]
    fn expected_slowdown_is_rate_times_duration() {
        let n = NoiseSpec {
            rate_hz: 1000.0,
            mean_preempt_s: secs(100e-6),
        };
        assert!((n.expected_slowdown() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn noise_extends_compute_time_by_the_expected_factor() {
        let spec = NoiseSpec {
            rate_hz: 2000.0,
            mean_preempt_s: secs(50e-6),
        };
        let mut machine = testbed(1, 2);
        machine.noise = Some(spec);
        let cluster = machine.cluster(3);
        let elapsed = cluster.run(|ctx| {
            let before = ctx.now();
            for _ in 0..1000 {
                ctx.compute(secs(1e-3));
            }
            ctx.now() - before
        });
        for &e in &elapsed {
            let factor = e / secs(1.0);
            assert!(
                (factor - spec.expected_slowdown()).abs() < 0.02,
                "slowdown {factor} vs expected {}",
                spec.expected_slowdown()
            );
        }
    }

    #[test]
    fn noise_is_deterministic_and_rank_specific() {
        let mut machine = testbed(1, 2);
        machine.noise = Some(NoiseSpec::noisy());
        let run = || {
            machine.cluster(7).run(|ctx| {
                ctx.compute(secs(0.1));
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "noise must be reproducible");
        assert_ne!(a[0], a[1], "ranks draw independent noise");
    }

    #[test]
    fn zero_noise_leaves_compute_exact() {
        let cluster = testbed(1, 1).cluster(9);
        cluster.run(|ctx| {
            ctx.compute(secs(0.25));
            assert_eq!(ctx.now().seconds(), 0.25);
        });
    }
}
