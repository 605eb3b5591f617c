//! The timing law's transcendental functions, owned by the simulator.
//!
//! Every message's jitter draw ([`crate::rngx::normal`] and the
//! log-normal and exponential built on it), every oscillator clock read
//! (`hcs-clock`'s wander terms) and the fault layer's periodic latency
//! factor evaluate `ln`, `exp`, `sin` or `cos`, and every clock read
//! floors its reading. Taken from the host's libm, those bits depend on
//! the libm and on which code path it picks for the CPU (glibc's FMA and
//! non-FMA paths differ by one ULP on some inputs). The kernels here are
//! plain Rust:
//!
//! - a fixed operation order: no `mul_add`, no target-feature dispatch,
//!   no `unsafe`, so a result is the same bits on every IEEE-754 host;
//! - `#[inline]` into the law, with no call through the dynamic linker;
//! - `ln` and `exp` below 0.52 ULP, `sin` and `cos` below 0.8 ULP (the
//!   error class of fdlibm's kernels, whose arrangement they follow),
//!   on normal results. The unit tests check each bound against a
//!   double-double reference on the ranges the law uses.
//!
//! Methods:
//!
//! - [`exp`] after Tang (ACM TOMS 15(2), 1989): `x = (128k + j) ln2/128
//!   + r`, a 128-entry table of `2^(j/128)` as a double plus a relative
//!   tail, and a degree-5 polynomial for `e^r - 1`, `|r| <= ln2/256`.
//! - [`ln`] after Tang (ACM TOMS 16(4), 1990): `x = 2^k z` with `z` in
//!   `[0.6875, 1.375)`, 128 cells with a tabulated reciprocal of the
//!   cell's centre `F` and `ln F` as a double-double, and `ln(1 + u)`,
//!   `|u| < 2^-8`, to degree 6. Inputs within 1/16 of 1 take a degree-13
//!   polynomial in `x - 1` instead, so a result near zero keeps its
//!   relative accuracy. Neither path divides.
//! - [`sin`] and [`cos`]: a Cody–Waite reduction by `pi/2` in three
//!   parts (exact products for `|x| < 1.6e6`, covering any oscillator
//!   phase of a run), the remainder kept as a double-double, a degree-5
//!   polynomial in `y^2` for `sin` and one for `cos` on `[-pi/4, pi/4]`,
//!   and a branchless pick of the quadrant. Larger finite arguments take
//!   a Payne–Hanek reduction against 1,280 bits of `2/pi`. The sign of
//!   a zero result is not kept (`sin(-0.0)` is `+0.0`).
//! - [`floor`] through an integer conversion, exact for every input.
//!
//! The constants and tables are in `tables.rs`, printed by
//! `gen_tables.py` (mpmath; minimax fits by a Remez exchange).

#![forbid(unsafe_code)]

// Generated: kept in the script's layout, one table row per line.
#[rustfmt::skip]
mod tables;

#[cfg(test)]
mod tests;

use tables::*;

/// `1.5 * 2^52`: adding it to `|v| < 2^51` rounds `v` to an integer
/// held in the low bits of the sum.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Largest argument of the Cody–Waite path of `sin`/`cos`: the quadrant
/// `n` stays below `2^20`, so `n * PIO2_1` and `n * PIO2_2` are exact.
const REDUCE_FAST_MAX: f64 = 1.6e6;

/// `floor(x)`: the largest integer not above `x`, with the sign of zero,
/// infinities and NaN kept.
#[inline]
pub fn floor(x: f64) -> f64 {
    // 2^52: from here on every double is an integer.
    if x > 0.0 && x < 4_503_599_627_370_496.0 {
        // A clock reading's case: truncation is the floor.
        (x as i64) as f64
    } else if x.abs() < 4_503_599_627_370_496.0 {
        let t = (x as i64) as f64;
        let f = if t > x { t - 1.0 } else { t };
        f.copysign(x)
    } else {
        x
    }
}

/// `e^x`, below 0.52 ULP for normal results.
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.abs() < 708.0 {
        let (k, hi, tail) = exp_split(x);
        // hi * 2^k is a normal double for k in [-1022, 1021].
        let s = f64::from_bits(hi.to_bits().wrapping_add((k as u64) << 52));
        s + s * tail
    } else {
        exp_far(x)
    }
}

/// Splits `e^x` into `2^k * hi * (1 + tail)`, `hi = 2^(j/128)` rounded.
#[inline(always)]
fn exp_split(x: f64) -> (i64, f64, f64) {
    let kd = x * EXP_INV_LN2_N + SHIFT;
    let n = (kd.to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64);
    let kd = kd - SHIFT;
    // kd * EXP_LN2_N_HI is exact and close to x, so the first
    // difference is exact too.
    let r = (x - kd * EXP_LN2_N_HI) - kd * EXP_LN2_N_LO;
    let [hi, lo] = EXP_TABLE[(n & 127) as usize];
    let r2 = r * r;
    let p = r2 * (EXP_C2 + r * EXP_C3) + (r2 * r2) * (EXP_C4 + r * EXP_C5);
    (n >> 7, hi, (lo + r) + p)
}

/// `exp` for `|x| >= 708` and NaN: overflow, underflow and subnormal
/// results (the last may be off by one unit of the subnormal grid).
#[cold]
fn exp_far(x: f64) -> f64 {
    if x.is_nan() {
        x
    } else if x > 709.8 {
        f64::INFINITY
    } else if x < -745.2 {
        0.0
    } else {
        let (k, hi, tail) = exp_split(x);
        let k1 = k / 2;
        (hi + hi * tail) * pow2(k1) * pow2(k - k1)
    }
}

/// `2^k` for `k` in `[-1022, 1023]`.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Bits of `1 - 1/16` and `1 + 1/16`: `ln` of an input between them
/// takes the polynomial in `x - 1`.
const NEAR1_LO: u64 = 0x3FEE_0000_0000_0000;
const NEAR1_HI: u64 = 0x3FF1_0000_0000_0000;
/// Bits of the smallest normal double and of infinity.
const MIN_NORMAL_BITS: u64 = 0x0010_0000_0000_0000;
const INF_BITS: u64 = 0x7FF0_0000_0000_0000;

/// `ln(x)`, below 0.52 ULP.
#[inline]
pub fn ln(x: f64) -> f64 {
    let ix = x.to_bits();
    if ix.wrapping_sub(NEAR1_LO) < NEAR1_HI - NEAR1_LO {
        ln_near1(x - 1.0)
    } else if ix.wrapping_sub(MIN_NORMAL_BITS) < INF_BITS - MIN_NORMAL_BITS {
        ln_cells(ix, 0)
    } else {
        ln_edge(x)
    }
}

/// `ln(1 + r)` for `|r| < 1/16`: `r - r^2/2 + r^3 g(r)`, with `r^2/2`
/// carried exactly into the last rounding.
#[inline(always)]
fn ln_near1(r: f64) -> f64 {
    // Veltkamp split: rhi has 26 significant bits, so rhi^2 is exact.
    let c = r * 134_217_729.0;
    let rhi = c - (c - r);
    let rlo = r - rhi;
    let w = -0.5 * (rhi * rhi);
    let hi = r + w;
    let lo = (r - hi) + w;
    // -(r^2 - rhi^2)/2.
    let wlo = -0.5 * rlo * (rhi + r);
    let g = &LN_NEAR1;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p = (g[0] + r * g[1])
        + r2 * (g[2] + r * g[3])
        + r4 * ((g[4] + r * g[5]) + r2 * (g[6] + r * g[7]))
        + r8 * ((g[8] + r * g[9]) + r2 * g[10]);
    hi + ((lo + wlo) + r2 * r * p)
}

/// `ln(2^adj * x)` for a positive normal `x` of bits `ix` outside the
/// window around 1.
#[inline(always)]
fn ln_cells(ix: u64, adj: i64) -> f64 {
    let tmp = ix.wrapping_sub(LN_OFF);
    let k = ((tmp as i64) >> 52) + adj;
    let iz = ix.wrapping_sub(tmp & (0xFFF << 52));
    let z = f64::from_bits(iz);
    // The cell's centre: z's leading bits, then a one. z - F is exact.
    let f = z - f64::from_bits((iz & !((1 << 45) - 1)) | (1 << 44));
    let [inv_f, lnf_hi, lnf_lo] = LN_TABLE[((tmp >> 45) & 127) as usize];
    let u = f * inv_f;
    let kd = k as f64;
    // Exact: both products and the sum lie on the 2^-42 grid. Outside
    // the window around 1, |w| > 0.05 while the rest is below 2^-7, so
    // the rest's own roundings are far below the last one.
    let w = kd * LN2_HI + lnf_hi;
    let g = &LN_POLY;
    let u2 = u * u;
    let p = u2 * (g[0] + u * g[1]) + (u2 * u2) * ((g[2] + u * g[3]) + u2 * g[4]);
    w + ((u + (lnf_lo + kd * LN2_LO)) + p)
}

/// `ln` of zero, negatives, subnormals, infinity and NaN.
#[cold]
fn ln_edge(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        x
    } else if x == 0.0 {
        f64::NEG_INFINITY
    } else if x < 0.0 {
        f64::NAN
    } else {
        // Subnormal: scale into the normal range, then take 52 back.
        ln_cells((x * 4_503_599_627_370_496.0).to_bits(), -52)
    }
}

/// `sin(x)`, below 0.55 ULP.
#[inline]
pub fn sin(x: f64) -> f64 {
    sin_quadrant(x, 0)
}

/// `cos(x)`, below 0.55 ULP.
#[inline]
pub fn cos(x: f64) -> f64 {
    sin_quadrant(x, 1)
}

/// `sin(x + shift * pi/2)`.
#[inline(always)]
fn sin_quadrant(x: f64, shift: u64) -> f64 {
    let reduced = if x.abs() < REDUCE_FAST_MAX {
        reduce_fast(x)
    } else {
        reduce_far(x)
    };
    sin_reduced(reduced, shift)
}

/// `sin(n pi/2 + y0 + y1 + shift * pi/2)` for `|y0| <= pi/4`, `|y1|`
/// below an ULP of `y0`, `z = y0^2`:
///
/// ```text
/// sin: y0 + (y0 z s(z) + y1 (1 - z/2))
/// cos: w + (z^2 c(z) + ((1 - w) - z/2 - y0 y1)),  w = 1 - z/2
/// ```
///
/// `s` and `c` are degree-5 polynomials (fdlibm's `__kernel_sin` and
/// `__kernel_cos` split the same way), each result a head plus a tail
/// rounded once. The quadrant `q` picks `sin`, `cos`, `-sin` or `-cos`
/// without a branch (the jitter draw's quadrant is a coin flip, and a
/// select of two doubles compiles to a branch on x86-64): the weights
/// `ws`, `wc` are `+-1` for the picked kernel and zero for the other,
/// so every weighted sum below is exactly one of its terms, and one
/// polynomial runs, with the picked kernel's coefficients.
#[inline(always)]
fn sin_reduced((n, y0, y1): (u64, f64, f64), shift: u64) -> f64 {
    const SIN_W: [f64; 4] = [1.0, 0.0, -1.0, 0.0];
    const COS_W: [f64; 4] = [0.0, 1.0, 0.0, -1.0];
    let q = n.wrapping_add(shift) & 3;
    let (ws, wc) = (SIN_W[q as usize], COS_W[q as usize]);
    let k = &SIN_COS_POLY[(q & 1) as usize];
    let z = y0 * y0;
    let z2 = z * z;
    let p = (k[0] + z * k[1]) + z2 * (k[2] + z * k[3]) + (z2 * z2) * (k[4] + z * k[5]);
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let head = ws * y0 + wc * w;
    let scale = ws * (z * y0) + wc * z2;
    let small = ws * (y1 * w) + wc * (((1.0 - w) - hz) - y0 * y1);
    head + (scale * p + small)
}

/// The polynomials of [`sin_reduced`], `s` then `c`.
const SIN_COS_POLY: [[f64; 6]; 2] = [SIN_POLY, COS_POLY];

/// `x = n pi/2 + y0 + y1` for `|x| < REDUCE_FAST_MAX`, `|y0| <= pi/4`;
/// returns `n`'s low bits. Cody–Waite with `pi/2` in three parts, the
/// first two exact in products with `n` (as in fdlibm's
/// `__ieee754_rem_pio2`), so the remainder is good to about 118 bits of
/// `pi/2`; `y1` collects the rounding errors off the critical path.
#[inline(always)]
fn reduce_fast(x: f64) -> (u64, f64, f64) {
    let kd = x * FRAC_2_PI + SHIFT;
    let n = kd.to_bits();
    let kd = kd - SHIFT;
    let t = x - kd * PIO2_1;
    let w = kd * PIO2_2;
    let w2 = kd * PIO2_2T;
    let y0 = t - (w + w2);
    (n, y0, ((t - y0) - w) - w2)
}

/// Payne–Hanek: `x = n pi/2 + y0 + y1` for any finite `x`, from the
/// 192 bits of `2/pi` that decide `x * 2/pi` modulo 4; NaN for
/// infinities and NaN.
#[cold]
fn reduce_far(x: f64) -> (u64, f64, f64) {
    if !x.is_finite() {
        return (0, f64::NAN, 0.0);
    }
    let bits = x.to_bits();
    // |x| = m * 2^e with m < 2^53; here e >= -32.
    let e = ((bits >> 52) & 0x7FF) as i64 - 1075;
    let m = ((bits & ((1 << 52) - 1)) | (1 << 52)) as u128;
    // Fraction bits b <= e - 2 of 2/pi add multiples of 4; the window
    // starts at bit e - 1, which is array bit e + 62.
    let start = (e + 62) as usize;
    let (wi, sh) = (start / 64, start % 64);
    let word = |i: usize| {
        let a = TWO_OVER_PI_BITS[wi + i];
        if sh == 0 {
            a
        } else {
            (a << sh) | (TWO_OVER_PI_BITS[wi + i + 1] >> (64 - sh))
        }
    };
    // m * window = x * 2/pi * 2^190 (mod 2^192), as three limbs.
    let p2 = m * word(2) as u128;
    let p1 = m * word(1) as u128 + (p2 >> 64);
    let p0 = m * word(0) as u128 + (p1 >> 64);
    let mut q = (p0 >> 62) as u64 & 3;
    // The top 128 bits of the fraction, read as signed: a fraction of a
    // half or more rounds the quadrant up.
    let frac = (((p0 & ((1 << 62) - 1)) << 66)
        | ((p1 as u64 as u128) << 2)
        | (p2 as u64 >> 62) as u128) as i128;
    q += (frac < 0) as u64;
    let f_hi = frac as f64;
    let f_lo = (frac - f_hi as i128) as f64;
    // y = (f_hi + f_lo) * 2^-128 * pi/2 in double-double.
    let scale = f64::from_bits((1023 - 128) << 52);
    let (f_hi, f_lo) = (f_hi * scale, f_lo * scale);
    let (p, err) = two_prod(f_hi, PIO2_HI);
    let err = err + (f_hi * PIO2_LO + f_lo * PIO2_HI);
    let y0 = p + err;
    let y1 = (p - y0) + err;
    if x < 0.0 {
        (0u64.wrapping_sub(q), -y0, -y1)
    } else {
        (q, y0, y1)
    }
}

/// `a * b = p + err` exactly (Dekker, with Veltkamp splits).
#[inline(always)]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let split = |v: f64| {
        let c = v * 134_217_729.0;
        let hi = c - (c - v);
        (hi, v - hi)
    };
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}
