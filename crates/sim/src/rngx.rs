//! Deterministic seed derivation and distribution sampling.
//!
//! All stochastic inputs of the simulation (latency jitter, oscillator
//! parameters, clock read-out noise) are derived from a single master
//! seed through [`derive_seed`], so that a cluster run is a pure function
//! of `(spec, seed)`.
//!
//! The generator behind every stream is [`Pcg64`], a self-contained
//! implementation of the PCG XSL-RR 128/64 member of O'Neill's PCG
//! family. It is an order of magnitude cheaper per draw than the
//! ChaCha-based `StdRng` it replaced (two 128-bit multiplies vs. a full
//! stream-cipher block), which matters because the per-message jitter
//! sample sits on the engine's hot send path — and it keeps the
//! simulator free of external crates, so the workspace builds offline.
//!
//! The distributions evaluate their `ln`, `cos` and `exp` with
//! [`crate::detmath`], not the host libm, so a draw is the same bits on
//! every host and costs no call through the dynamic linker.

#![forbid(unsafe_code)]

use crate::detmath;

/// SplitMix64 step — the canonical 64-bit mixer, used to derive
/// independent sub-seeds from a master seed and a stream label.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit seed from `(master, label)`.
///
/// Streams with distinct labels are statistically independent for our
/// purposes; labels encode rank ids, node ids and usage domains.
#[inline]
pub fn derive_seed(master: u64, label: u64) -> u64 {
    let mut s = master ^ label.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(17)
}

/// Default LCG multiplier of the 128-bit PCG state transition.
const PCG_MULT: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// A small, fast, deterministic PRNG: PCG XSL-RR 128/64.
///
/// 128 bits of LCG state and a per-instance odd increment (stream
/// selector); the output permutation xors the state halves and applies
/// a data-dependent rotation. Passes BigCrush; a single draw is two
/// 128-bit multiply-adds — cheap enough for one sample per simulated
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

impl Pcg64 {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded to
    /// the full 256 bits of state + stream).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let c = splitmix64(&mut s);
        let d = splitmix64(&mut s);
        let mut rng = Self {
            state: (a as u128) << 64 | b as u128,
            inc: ((c as u128) << 64 | d as u128) | 1,
        };
        // One warm-up step so the first output already mixes the seed.
        let _ = rng.next_u64();
        rng
    }

    /// Creates the generator for sub-stream `stream` of `seed`: a pure
    /// function of the pair, statistically independent across stream
    /// indices (the pair is mixed through [`derive_seed`]).
    ///
    /// This is how sweep drivers derive per-repetition master seeds —
    /// run `i` of a sweep seeded `s` uses `Pcg64::stream(s, i)` — so a
    /// run's randomness depends only on its submission index, never on
    /// how runs interleave on the host.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(derive_seed(seed, stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }

    /// Skips the next `n` outputs in O(log n): afterwards the generator
    /// is in the state `n` calls of [`Pcg64::next_u64`] would have left
    /// it in. Lets a consumer read draw `i` of a shared stream without
    /// producing draws `0..i` (the standard LCG jump-ahead: the `n`-fold
    /// composition of `s -> a*s + c` is again affine, built by squaring).
    pub fn advance(&mut self, mut n: u64) {
        let (mut acc_mult, mut acc_inc) = (1u128, 0u128);
        let (mut mult, mut inc) = (PCG_MULT, self.inc);
        while n > 0 {
            if n & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(mult);
                acc_inc = acc_inc.wrapping_mul(mult).wrapping_add(inc);
            }
            inc = mult.wrapping_add(1).wrapping_mul(inc);
            mult = mult.wrapping_mul(mult);
            n >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_inc);
    }

    /// Uniform `f64` in `[0, 1)` (53 random bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe to feed into `ln()`.
    #[inline]
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Creates a [`Pcg64`] for a labeled stream of the master seed.
pub fn stream_rng(master: u64, label: u64) -> Pcg64 {
    Pcg64::seed_from_u64(derive_seed(master, label))
}

/// Label namespaces so different consumers never collide.
pub mod label {
    /// Per-rank message-jitter stream.
    pub fn rank_net(rank: usize) -> u64 {
        0x1000_0000_0000_0000 | rank as u64
    }
    /// Per-rank clock read-out noise stream.
    pub fn rank_clock_noise(rank: usize) -> u64 {
        0x2000_0000_0000_0000 | rank as u64
    }
    /// Per-node oscillator parameter stream.
    pub fn node_oscillator(node: usize) -> u64 {
        0x3000_0000_0000_0000 | node as u64
    }
    /// Per-rank time-source offset stream (e.g. per-core raw offsets).
    pub fn rank_timesource(rank: usize) -> u64 {
        0x4000_0000_0000_0000 | rank as u64
    }
    /// Per-rank workload (compute imbalance) stream.
    pub fn rank_workload(rank: usize) -> u64 {
        0x5000_0000_0000_0000 | rank as u64
    }
    /// Per-rank, per-fault-kind injection stream (`kind` is a
    /// `fault::FaultKind` discriminant). Dedicated streams keep fault
    /// draws out of the jitter/noise/oscillator sequences, so adding or
    /// removing fault clauses never perturbs a benign timeline.
    pub fn rank_fault(rank: usize, kind: u64) -> u64 {
        debug_assert!(kind < 1 << 12, "fault kind field is 12 bits");
        0x6000_0000_0000_0000 | (kind << 48) | rank as u64
    }
    /// The run scheduler's scrambled pick order (`EngineMode::Threads`).
    /// A run in heap order never draws from it.
    pub fn sched_scramble() -> u64 {
        0x7000_0000_0000_0000
    }
}

/// Samples a standard normal deviate via Box–Muller.
///
/// The polar rejection variant is avoided so the *number* of RNG draws
/// per sample is constant (two), which keeps streams aligned and
/// reproducible.
#[inline(always)]
pub fn normal(rng: &mut Pcg64) -> f64 {
    let u1 = rng.next_open01();
    let u2 = rng.next_f64();
    (-2.0 * detmath::ln(u1)).sqrt() * detmath::cos(std::f64::consts::TAU * u2)
}

/// Samples `N(mean, sd)`.
#[inline]
pub fn normal_with(rng: &mut Pcg64, mean: f64, sd: f64) -> f64 {
    mean + sd * normal(rng)
}

/// Samples a log-normal deviate with the given median and shape `sigma`:
/// `median * exp(sigma * z)`, `z ~ N(0,1)`.
#[inline]
pub fn lognormal(rng: &mut Pcg64, median: f64, sigma: f64) -> f64 {
    median * detmath::exp(sigma * normal(rng))
}

/// Samples an exponential deviate with the given mean.
#[inline]
pub fn exponential(rng: &mut Pcg64, mean: f64) -> f64 {
    -mean * detmath::ln(rng.next_open01())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn derive_seed_differs_by_label_and_master() {
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn label_namespaces_do_not_collide() {
        assert_ne!(label::rank_net(3), label::rank_clock_noise(3));
        assert_ne!(label::rank_net(3), label::node_oscillator(3));
        assert_ne!(label::rank_timesource(3), label::rank_workload(3));
        assert_ne!(label::sched_scramble(), label::rank_net(0));
    }

    #[test]
    fn pcg_outputs_are_well_distributed() {
        // Bit-balance sanity: each of the 64 output bits should be set
        // about half the time.
        let mut rng = Pcg64::seed_from_u64(123);
        let n = 8192;
        let mut ones = [0u32; 64];
        for _ in 0..n {
            let x = rng.next_u64();
            for (b, slot) in ones.iter_mut().enumerate() {
                *slot += ((x >> b) & 1) as u32;
            }
        }
        for (b, &c) in ones.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.03, "bit {b} set {frac}");
        }
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for seed in [0, 1, 42, u64::MAX] {
            for n in [0u64, 1, 2, 63, 4095] {
                let mut stepped = stream_rng(seed, 0x6A11);
                for _ in 0..n {
                    stepped.next_u64();
                }
                let mut jumped = stream_rng(seed, 0x6A11);
                jumped.advance(n);
                assert_eq!(jumped, stepped, "seed {seed}, n {n}");
                assert_eq!(jumped.next_u64(), stepped.next_u64());
            }
            // Too far to step: jumps compose instead.
            let big = (1u64 << 40) + 7;
            let mut once = stream_rng(seed, 3);
            once.advance(big);
            let mut parts = stream_rng(seed, 3);
            parts.advance(1 << 39);
            parts.advance(7);
            parts.advance(1 << 39);
            assert_eq!(once, parts, "seed {seed}");
            let mut base = stream_rng(seed, 3);
            assert_ne!(once.next_u64(), base.next_u64());
        }
    }

    #[test]
    fn pcg_f64_ranges_hold() {
        let mut rng = Pcg64::seed_from_u64(5);
        for _ in 0..10_000 {
            let a = rng.next_f64();
            assert!((0.0..1.0).contains(&a));
            let b = rng.next_open01();
            assert!(b > 0.0 && b <= 1.0);
            let c = rng.range(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&c));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = stream_rng(1, 2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_and_median_scaled() {
        let mut rng = stream_rng(3, 4);
        let mut samples: Vec<f64> = (0..10_001).map(|_| lognormal(&mut rng, 2.0, 0.5)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 2.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = stream_rng(5, 6);
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn stream_rngs_reproduce() {
        let mut a = stream_rng(9, 9);
        let mut b = stream_rng(9, 9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_streams_decorrelate() {
        let mut a = stream_rng(9, 1);
        let mut b = stream_rng(9, 2);
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }
}
