//! Each kernel against a double-double reference computed here from
//! power series and from the published hexadecimal digits of pi, with
//! no libm and nothing from `tables.rs`. Errors are in ULPs of the
//! exact result; the bounds below are the ones the module doc states.

use super::*;
use crate::rngx::Pcg64;
use std::f64::consts::{FRAC_PI_2, TAU};

/// Bound of `ln` and `exp`, in ULPs.
const LN_EXP_ULP: f64 = 0.52;
/// Bound of `sin` and `cos`, in ULPs.
const SIN_COS_ULP: f64 = 0.8;

/// An unevaluated sum `hi + lo`, `|lo| <= ulp(hi) / 2`.
#[derive(Clone, Copy, Debug)]
struct Dd {
    hi: f64,
    lo: f64,
}

fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

fn dd(x: f64) -> Dd {
    Dd { hi: x, lo: 0.0 }
}

impl Dd {
    fn norm(hi: f64, lo: f64) -> Dd {
        let (hi, lo) = two_sum(hi, lo);
        Dd { hi, lo }
    }
    fn add(self, o: Dd) -> Dd {
        let (s, e) = two_sum(self.hi, o.hi);
        let (t, f) = two_sum(self.lo, o.lo);
        let (s, e) = two_sum(s, e + t);
        Dd::norm(s, e + f)
    }
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
    fn sub(self, o: Dd) -> Dd {
        self.add(o.neg())
    }
    fn mul(self, o: Dd) -> Dd {
        let (p, e) = two_prod(self.hi, o.hi);
        Dd::norm(p, e + (self.hi * o.lo + self.lo * o.hi))
    }
    fn div(self, o: Dd) -> Dd {
        let q1 = self.hi / o.hi;
        let r = self.sub(o.mul(dd(q1)));
        let q2 = r.hi / o.hi;
        let r = r.sub(o.mul(dd(q2)));
        let q3 = r.hi / o.hi;
        Dd::norm(q1, q2).add(dd(q3))
    }
    /// Times a power of two.
    fn scale(self, p: f64) -> Dd {
        Dd {
            hi: self.hi * p,
            lo: self.lo * p,
        }
    }
}

/// `sum c[k] v^k` by Horner.
fn horner(c: &[Dd], v: Dd) -> Dd {
    c.iter().rev().fold(dd(0.0), |acc, &ck| acc.mul(v).add(ck))
}

/// `1/k!` for `k` in `0..n`.
fn inv_factorials(n: usize) -> Vec<Dd> {
    let mut out = vec![dd(1.0)];
    for k in 1..n {
        out.push(out[k - 1].div(dd(k as f64)));
    }
    out
}

/// `ln 2 = sum 1 / (k 2^k)`, smallest terms first.
fn ln2() -> Dd {
    (1..=120).rev().fold(dd(0.0), |acc, k| {
        acc.add(dd(0.5f64.powi(k)).div(dd(k as f64)))
    })
}

/// `pi/2` in 24-bit pieces (each product with `|n| < 2^29` is exact),
/// from the hexadecimal expansion `pi = 3.243F6A88 85A308D3 ...`.
fn pio2_pieces() -> Vec<f64> {
    const PI_FRAC: [u32; 8] = [
        0x243F_6A88,
        0x85A3_08D3,
        0x1319_8A2E,
        0x0370_7344,
        0xA409_3822,
        0x299F_31D0,
        0x082E_FA98,
        0xEC4E_6C89,
    ];
    // pi = 11.0010 0100 ... in binary; read with the point after the
    // first bit, the same bits are pi/2.
    let mut bits = vec![1u8, 1];
    for w in PI_FRAC {
        bits.extend((0..32).rev().map(|b| (w >> b) as u8 & 1));
    }
    bits.chunks(24)
        .enumerate()
        .map(|(j, chunk)| {
            chunk.iter().enumerate().fold(0.0, |acc, (i, &b)| {
                acc + if b == 1 {
                    0.5f64.powi((24 * j + i) as i32)
                } else {
                    0.0
                }
            })
        })
        .collect()
}

struct Reference {
    ln2: Dd,
    pio2: Vec<f64>,
    /// `1/k!` for `k < 40`.
    inv_fact: Vec<Dd>,
}

impl Reference {
    fn new() -> Self {
        Self {
            ln2: ln2(),
            pio2: pio2_pieces(),
            inv_fact: inv_factorials(40),
        }
    }

    fn exp(&self, x: f64) -> Dd {
        let k = (x / self.ln2.hi).round();
        let r = dd(x).sub(self.ln2.mul(dd(k)));
        // In two steps, so a subnormal result does not flush to zero.
        let (k1, k2) = (k as i32 / 2, k as i32 - k as i32 / 2);
        horner(&self.inv_fact[..32], r)
            .scale(2f64.powi(k1))
            .scale(2f64.powi(k2))
    }

    fn ln(&self, x: f64) -> Dd {
        // x = 2^e m, m in [sqrt(1/2), sqrt(2)); ln m = 2 atanh((m-1)/(m+1)).
        let mut e = 0;
        let mut m = x;
        while m >= std::f64::consts::SQRT_2 {
            m *= 0.5;
            e += 1;
        }
        while m < std::f64::consts::FRAC_1_SQRT_2 {
            m *= 2.0;
            e -= 1;
        }
        let s = dd(m - 1.0).div(dd(m).add(dd(1.0)));
        let s2 = s.mul(s);
        let coef: Vec<Dd> = (0..30)
            .map(|k| dd(1.0).div(dd((2 * k + 1) as f64)))
            .collect();
        let atanh = s.mul(horner(&coef, s2));
        self.ln2.mul(dd(e as f64)).add(atanh.scale(2.0))
    }

    /// `(sin x, cos x)` for `|x| < 2^28`.
    fn sin_cos(&self, x: f64) -> (Dd, Dd) {
        let n = (x / FRAC_PI_2).round();
        let y = self.pio2.iter().fold(dd(x), |acc, &p| acc.sub(dd(n * p)));
        let y2 = y.mul(y);
        let sc: Vec<Dd> = (0..18)
            .map(|k| {
                let c = self.inv_fact[2 * k + 1];
                if k % 2 == 0 {
                    c
                } else {
                    c.neg()
                }
            })
            .collect();
        let cc: Vec<Dd> = (0..18)
            .map(|k| {
                let c = self.inv_fact[2 * k];
                if k % 2 == 0 {
                    c
                } else {
                    c.neg()
                }
            })
            .collect();
        let (s, c) = (y.mul(horner(&sc, y2)), horner(&cc, y2));
        match (n as i64).rem_euclid(4) {
            0 => (s, c),
            1 => (c, s.neg()),
            2 => (s.neg(), c.neg()),
            _ => (c.neg(), s),
        }
    }
}

/// `|got - want|` in ULPs of `want`: the spacing of doubles at `want`,
/// on the lower side of a power of two when `want` lies below it.
fn ulp_err(got: f64, want: Dd) -> f64 {
    let h = want.hi.abs();
    let mut ulp = f64::from_bits(h.to_bits() & 0x7FF0_0000_0000_0000) * f64::EPSILON;
    if h.to_bits() & ((1 << 52) - 1) == 0 && (want.lo < 0.0) == (want.hi > 0.0) {
        ulp *= 0.5;
    }
    ((got - want.hi) - want.lo).abs() / ulp.max(f64::from_bits(1))
}

/// Largest error of `f` against `reference` over `xs`, with its input.
fn worst(
    xs: impl IntoIterator<Item = f64>,
    f: impl Fn(f64) -> f64,
    reference: impl Fn(f64) -> Dd,
) -> (f64, f64) {
    xs.into_iter()
        .map(|x| (ulp_err(f(x), reference(x)), x))
        .fold((0.0, f64::NAN), |a, b| if b.0 > a.0 { b } else { a })
}

fn check(name: &str, bound: f64, (err, x): (f64, f64)) {
    assert!(
        err <= bound,
        "{name}: {err:.4} ULP at x = {x:e} (bits {:#018x}) exceeds {bound}",
        x.to_bits()
    );
}

/// `x` and its neighbours within `k` ULPs.
fn around(x: f64, k: i64) -> impl Iterator<Item = f64> {
    (-k..=k).map(move |d| f64::from_bits((x.to_bits() as i64 + d) as u64))
}

#[test]
fn ln_on_the_jitter_range() {
    let r = Reference::new();
    // (0, 1]: a dense grid, the powers of two down to 2^-53, both ends
    // of the window around 1 and the uniform draws' own lattice.
    let n = 20_000;
    let mut xs: Vec<f64> = (1..=n).map(|i| i as f64 / n as f64).collect();
    xs.extend((0..=53).map(|i| 0.5f64.powi(i)));
    xs.extend(around(1.0, 64).filter(|&x| x <= 1.0));
    xs.extend(around(1.0 - 1.0 / 16.0, 8).chain(around(0.6875, 8)));
    let mut rng = Pcg64::seed_from_u64(7);
    xs.extend((0..10_000).map(|_| rng.next_open01()));
    check("ln", LN_EXP_ULP, worst(xs, ln, |x| r.ln(x)));
    assert_eq!(ln(1.0).to_bits(), 0);
}

#[test]
fn ln_elsewhere_and_at_the_edges() {
    let r = Reference::new();
    let mut rng = Pcg64::seed_from_u64(8);
    // Positive normal doubles of every exponent, and above 1.
    let mut xs: Vec<f64> = (0..10_000)
        .map(|_| f64::from_bits(rng.next_u64() % 0x7FE0_0000_0000_0000 + 0x0010_0000_0000_0000))
        .collect();
    xs.extend((0..5_000).map(|_| rng.range(1.0, 3.0)));
    xs.extend(around(1.0 + 1.0 / 16.0, 8).chain(around(1.375, 8)));
    // Subnormals.
    xs.extend([
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        1e-310,
    ]);
    check("ln", LN_EXP_ULP, worst(xs, ln, |x| r.ln(x)));
    assert_eq!(ln(0.0), f64::NEG_INFINITY);
    assert_eq!(ln(-0.0), f64::NEG_INFINITY);
    assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan() && ln(f64::NEG_INFINITY).is_nan());
    assert_eq!(ln(f64::INFINITY), f64::INFINITY);
}

#[test]
fn exp_on_the_jitter_range() {
    let r = Reference::new();
    // sigma * z: |z| < 8.6 for 53-bit uniforms, sigma at most ~1.
    let n = 20_000;
    let mut xs: Vec<f64> = (0..=n)
        .map(|i| -10.0 + 20.0 * i as f64 / n as f64)
        .collect();
    let mut rng = Pcg64::seed_from_u64(9);
    xs.extend((0..10_000).map(|_| rng.range(-10.0, 10.0)));
    xs.extend((0..2_000).map(|_| rng.range(-1e-6, 1e-6)));
    check("exp", LN_EXP_ULP, worst(xs, exp, |x| r.exp(x)));
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(-0.0), 1.0);
}

#[test]
fn exp_elsewhere_and_at_the_edges() {
    let r = Reference::new();
    let mut rng = Pcg64::seed_from_u64(10);
    let mut xs: Vec<f64> = (0..10_000).map(|_| rng.range(-708.0, 709.7)).collect();
    xs.extend(around(708.0, 4).chain(around(-708.0, 4)));
    xs.push(709.78);
    check("exp", LN_EXP_ULP, worst(xs, exp, |x| r.exp(x)));
    // Subnormal results: within one unit of the subnormal grid.
    for x in [-709.0, -720.5, -740.0, -745.0] {
        let want = r.exp(x);
        assert!(
            ((exp(x) - want.hi) - want.lo).abs() <= f64::from_bits(1),
            "exp({x})"
        );
    }
    assert_eq!(exp(709.79), f64::INFINITY);
    assert_eq!(exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(exp(-746.0), 0.0);
    assert_eq!(exp(f64::NEG_INFINITY), 0.0);
    assert!(exp(f64::NAN).is_nan());
}

fn check_sin_cos(name: &str, r: &Reference, xs: &[f64]) {
    check(
        &format!("sin {name}"),
        SIN_COS_ULP,
        worst(xs.iter().copied(), sin, |x| r.sin_cos(x).0),
    );
    check(
        &format!("cos {name}"),
        SIN_COS_ULP,
        worst(xs.iter().copied(), cos, |x| r.sin_cos(x).1),
    );
}

#[test]
fn sin_cos_on_one_turn() {
    let r = Reference::new();
    let n = 10_000;
    let mut xs: Vec<f64> = (0..n).map(|i| TAU * i as f64 / n as f64).collect();
    let mut rng = Pcg64::seed_from_u64(11);
    xs.extend((0..5_000).map(|_| TAU * rng.next_f64()));
    xs.extend([0.0, 1e-300, 1e-20, 1e-9, f64::from_bits(1)]);
    check_sin_cos("on [0, 2pi)", &r, &xs);
}

#[test]
fn sin_cos_on_oscillator_phases() {
    // The wander term's phase 2 pi t / p + phi out to 10^4 s, at the
    // shortest period any machine draws (half of 10 s) and longer ones.
    let r = Reference::new();
    let mut rng = Pcg64::seed_from_u64(12);
    let n = 10_000;
    let mut xs: Vec<f64> = (0..n)
        .map(|i| TAU * (1e4 * i as f64 / n as f64) / 5.0 + TAU * rng.next_f64())
        .collect();
    xs.extend(
        (0..5_000).map(|_| TAU * rng.range(0.0, 1e4) / rng.range(5.0, 375.0) + rng.range(0.0, TAU)),
    );
    check_sin_cos("on oscillator phases", &r, &xs);
}

#[test]
fn sin_cos_next_to_multiples_of_half_pi() {
    // The double nearest k pi/2 and its neighbours: the reduction's
    // remainder is as small as it gets, so its error shows in full.
    let r = Reference::new();
    let pio2 = pio2_pieces();
    let near = |k: f64| pio2.iter().fold(dd(0.0), |acc, &p| acc.add(dd(k * p))).hi;
    let mut xs = Vec::new();
    for k in (1..600).chain([4_000, 65_535, 100_001, 1_000_000]) {
        xs.extend(around(near(k as f64), 3));
    }
    check_sin_cos("next to k pi/2", &r, &xs);
}

#[test]
fn sin_cos_of_negative_arguments_mirror_positive_ones() {
    let r = Reference::new();
    let mut rng = Pcg64::seed_from_u64(13);
    let xs: Vec<f64> = (0..5_000).map(|_| -rng.range(0.0, 2e4)).collect();
    check_sin_cos("on negatives", &r, &xs);
    for &x in &xs {
        assert_eq!(sin(x).to_bits(), (-sin(-x)).to_bits(), "sin({x})");
        assert_eq!(cos(x).to_bits(), cos(-x).to_bits(), "cos({x})");
    }
}

#[test]
fn the_large_argument_reduction_agrees_with_the_fast_one_and_the_reference() {
    let r = Reference::new();
    let mut rng = Pcg64::seed_from_u64(14);
    // Where both reductions apply, each result keeps the bound.
    let xs: Vec<f64> = (0..3_000)
        .map(|_| rng.range(1.0, REDUCE_FAST_MAX))
        .collect();
    for shift in [0, 1] {
        let far = |x: f64| sin_reduced(reduce_far(x), shift);
        let want = |x: f64| {
            if shift == 0 {
                r.sin_cos(x).0
            } else {
                r.sin_cos(x).1
            }
        };
        check(
            "far reduction",
            SIN_COS_ULP,
            worst(xs.iter().copied(), far, want),
        );
    }
    // Past the fast path's end, as far as the reference reaches.
    let xs: Vec<f64> = (0..3_000)
        .map(|_| rng.range(REDUCE_FAST_MAX, 2.6e8))
        .collect();
    check_sin_cos("past 1.6e6", &r, &xs);
}

#[test]
fn huge_arguments_match_mpmath() {
    // [x, sin hi, sin lo, cos hi, cos lo] as bits, from mpmath at 3000
    // bits. The fifth is the double closest to a multiple of pi/2.
    const CASES: [[u64; 5]; 11] = [
        [
            0x41386A0000000000,
            0xBFE153286220550F,
            0xBC7A38629DB3ED88,
            0x3FEAE78AD815D7C4,
            0xBC76525F9B856311,
        ],
        [
            0x4140000040000000,
            0x3FED826936582D64,
            0x3C39B90242E5A65D,
            0x3FD8C11BFCFF0BF3,
            0x3C7A8CD6386DDC34,
        ],
        [
            0x41CDCD6500200000,
            0x3FE78EB6B44AD0BD,
            0xBC7CA7DDDB641FF0,
            0x3FE5A84EF7DE42B8,
            0xBC77B50AA5BF049C,
        ],
        [
            0x432FFFFFFFFFFFFE,
            0x3FEC305FF352C3C8,
            0xBC81442D88B457DD,
            0x3FDE4A6E3EA69B14,
            0xBC789120329554F8,
        ],
        [
            0x7506AC5B262CA1FF,
            0x3FF0000000000000,
            0xB842B089EA1E692B,
            0xBC214AE72E6BA22F,
            0x38973EEF1477D90E,
        ],
        [
            0x4480F0CF064DD592,
            0xBFEB453AB76BF397,
            0xBC5F453790772648,
            0x3FE0BE2CEF01C8F4,
            0xBC8B2D1BC8018C4F,
        ],
        [
            0x4630000000000000,
            0xBFEBE8ED97AC1F59,
            0x3C805598CF86DD85,
            0x3FDF4EB3FF66E36D,
            0xBC6691C4F270021A,
        ],
        [
            0x6974E718D7D7625A,
            0xBFE49B644938C64C,
            0x3C5326DDAEED4B69,
            0x3FE87B4DF51F679E,
            0xBC8CEAEE16115A58,
        ],
        [
            0x7FEFFFFFFFFFFFFF,
            0x3F7452FC98B34E97,
            0xBC127BB193D960DF,
            0xBFEFFFE62ECFAB75,
            0xBC7E038D934070F1,
        ],
        [
            0xFE37E43C8800759C,
            0x3FEA2C16B010E385,
            0x3C8B900A1F54ECD2,
            0xBFE2699022ADC4C1,
            0x3C7EDD5594B5C574,
        ],
        [
            0x7E73C083126E978D,
            0xBFECBD4AF0761A98,
            0xBC871EC0B03546C5,
            0x3FDC254E443B9586,
            0xBC21FC30E8B30634,
        ],
    ];
    let f = f64::from_bits;
    for [x, sh, sl, ch, cl] in CASES {
        let x = f(x);
        check(
            "sin",
            SIN_COS_ULP,
            (
                ulp_err(
                    sin(x),
                    Dd {
                        hi: f(sh),
                        lo: f(sl),
                    },
                ),
                x,
            ),
        );
        check(
            "cos",
            SIN_COS_ULP,
            (
                ulp_err(
                    cos(x),
                    Dd {
                        hi: f(ch),
                        lo: f(cl),
                    },
                ),
                x,
            ),
        );
    }
    assert!(
        sin(f64::INFINITY).is_nan() && cos(f64::NEG_INFINITY).is_nan() && sin(f64::NAN).is_nan()
    );
}

#[test]
fn floor_is_exact() {
    let mut rng = Pcg64::seed_from_u64(15);
    for _ in 0..20_000 {
        let x = rng.range(-1e6, 1e6);
        let f = floor(x);
        assert!(f <= x && x < f + 1.0 && f == f.trunc(), "floor({x}) = {f}");
    }
    for (x, want) in [
        (-0.5, -1.0),
        (0.5, 0.0),
        (-3.0, -3.0),
        (4503599627370495.5, 4503599627370495.0),
        (-4503599627370495.5, -4503599627370496.0),
        (1e300, 1e300),
        (f64::INFINITY, f64::INFINITY),
    ] {
        assert_eq!(floor(x), want, "floor({x})");
    }
    assert_eq!(floor(-0.0).to_bits(), (-0.0f64).to_bits());
    assert!(floor(f64::NAN).is_nan());
}
