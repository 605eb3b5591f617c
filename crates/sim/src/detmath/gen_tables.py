#!/usr/bin/env python3
"""Derives the constants and tables of `detmath` and prints `tables.rs`.

    python3 crates/sim/src/detmath/gen_tables.py > crates/sim/src/detmath/tables.rs

Needs only `mpmath`. Every value is computed at 300 bits and rounded
once to the nearest double, so re-running the script reproduces the
committed file byte for byte. The polynomials are minimax fits found
by a plain Remez exchange; each fit prints its weighted error on
stderr.
"""

import sys

import mpmath as mp

mp.mp.prec = 300



def d(x):
    """Nearest double to the mpf `x`."""
    return float(mp.mpf(x))


def rust(x):
    """A Rust literal that parses to exactly the double `x`."""
    s = repr(float(x))
    if "e" in s or "inf" in s or "nan" in s:
        return s if "." in s.split("e")[0] else s.replace("e", ".0e")
    return s


def remez(f, w, a, b, deg, iters=30):
    """Minimax polynomial of degree `deg` for `f` on [a, b] under the
    weight `w`: minimizes max |w(x) (f(x) - p(x))|. Returns the
    coefficients (lowest first) and the levelled error."""
    n = deg + 2
    xs = [(a + b) / 2 - (b - a) / 2 * mp.cos(mp.pi * i / (n - 1)) for i in range(n)]
    err = None
    for _ in range(iters):
        m = mp.matrix(n, n)
        v = mp.matrix(n, 1)
        for i, x in enumerate(xs):
            for k in range(deg + 1):
                m[i, k] = w(x) * x ** k
            m[i, deg + 1] = (-1) ** i
            v[i] = w(x) * f(x)
        sol = mp.lu_solve(m, v)
        c = [sol[k] for k in range(deg + 1)]
        err = abs(sol[deg + 1])

        def e(x):
            return w(x) * (f(x) - mp.polyval(c[::-1], x))

        # New reference: the extremum of the error on each segment
        # between sign changes, found on a dense grid and refined.
        grid = [a + (b - a) * i / 4000 for i in range(4001)]
        vals = [e(x) for x in grid]
        ext = []
        i = 0
        while i < len(grid):
            j = i
            while j + 1 < len(grid) and mp.sign(vals[j + 1]) == mp.sign(vals[i]):
                j += 1
            k = max(range(i, j + 1), key=lambda t: abs(vals[t]))
            ext.append(grid[k])
            i = j + 1
        while len(ext) > n:
            # Drop the smaller end so the alternation keeps n points.
            if abs(e(ext[0])) < abs(e(ext[-1])):
                ext.pop(0)
            else:
                ext.pop()
        if len(ext) < n:
            break
        xs = ext
    worst = max(abs(e(a + (b - a) * i / 20000)) for i in range(20001))
    return c, worst


def emit_fn_doc(lines):
    for line in lines:
        print(f"/// {line}".rstrip())


def const(name, value, doc):
    emit_fn_doc(doc)
    print(f"pub(super) const {name}: f64 = {rust(value)};")


def main():
    print("//! Constants and tables of `detmath`, derived with mpmath by")
    print("//! `gen_tables.py` in this directory (which prints this file).")
    print("//! Do not edit by hand: change the script and re-run it.")
    print()
    print("// Entries such as 2^(64/128) and pi/2 are the nearest doubles, which")
    print("// the named `std::f64::consts` are too.")
    print("#![allow(clippy::approx_constant)]")
    print()

    # ---- exp -----------------------------------------------------
    n = 128
    ln2 = mp.log(2)
    print("// exp: x = (128 k + j) ln2/128 + r, exp(x) = 2^k 2^(j/128) e^r.")
    print()
    const("EXP_INV_LN2_N", d(n / ln2), ["`128 / ln 2`."])
    # k * hi exact for |k| < 2^18: 35 significant bits.
    hi = mp.mpf(mp.nint(ln2 / n * 2 ** 42)) / 2 ** 42
    const("EXP_LN2_N_HI", d(hi), ["`ln 2 / 128` to 35 bits, so `k * EXP_LN2_N_HI` is exact for", "`|k| < 2^18`."])
    const("EXP_LN2_N_LO", d(ln2 / n - hi), ["`ln 2 / 128 - EXP_LN2_N_HI`."])
    for i, name in [(2, "EXP_C2"), (3, "EXP_C3"), (4, "EXP_C4"), (5, "EXP_C5")]:
        const(name, d(mp.mpf(1) / mp.factorial(i)), [f"`1/{i}!`: `e^r - 1` to degree 5 leaves `r^6/720 < 2^-60`."])
    print()
    print("/// `2^(j/128)` for `j` in `0..128` as `[hi, lo / hi]`: `hi` is the")
    print("/// nearest double and `lo` the rest.")
    print("pub(super) static EXP_TABLE: [[f64; 2]; 128] = [")
    for j in range(n):
        v = mp.mpf(2) ** (mp.mpf(j) / n)
        h = d(v)
        print(f"    [{rust(h)}, {rust(d((v - mp.mpf(h)) / mp.mpf(h)))}],")
    print("];")
    print()

    # ---- ln ------------------------------------------------------
    print("// ln: x = 2^k z, z in [0.6875, 1.375) falls in one of 128 cells")
    print("// with centre F (9 significant bits); ln x = k ln2 + ln F + ln(1 + u),")
    print("// u = (z - F) / F.")
    print()
    # Both hi parts on the 2^-42 grid: k*LN2_HI (|k| < 2^11) and
    # k*LN2_HI + ln F fit in 53 bits.
    l2hi = mp.mpf(mp.nint(ln2 * 2 ** 42)) / 2 ** 42
    const("LN2_HI", d(l2hi), ["`ln 2` on the `2^-42` grid: `k * LN2_HI + LN_TABLE[i][1]` is exact."])
    const("LN2_LO", d(ln2 - l2hi), ["`ln 2 - LN2_HI`."])
    off = 0x3FE6000000000000
    print(f"/// Bits of 0.6875, the low end of the reduced range of `ln`.")
    print(f"pub(super) const LN_OFF: u64 = 0x{off:016X};")
    print()
    print("/// Per cell `i`: `[1/F, hi, lo]` with `hi + lo = ln F`, `hi` on the")
    print("/// `2^-42` grid. `F` is the cell's midpoint, whose bits are the cell's")
    print("/// leading bits followed by a one (`z`'s bits with the low 45 cleared,")
    print("/// bit 44 set).")
    print("pub(super) static LN_TABLE: [[f64; 3]; 128] = [")
    import struct

    def from_bits(b):
        return struct.unpack("<d", struct.pack("<Q", b))[0]

    for i in range(n):
        fb = off + (i << 45) + (1 << 44)
        fv = mp.mpf(from_bits(fb))
        lf = mp.log(fv)
        lhi = mp.mpf(mp.nint(lf * 2 ** 42)) / 2 ** 42
        print(f"    [{rust(d(1 / fv))}, {rust(d(lhi))}, {rust(d(lf - lhi))}],")
    print("];")
    print()
    # ln(1 + u) = u + u^2 g(u) on the cells: |u| <= 2^-8 / (1 + 2^-8).
    umax = mp.mpf(2) ** -8 / (1 + mp.mpf(2) ** -8) * (1 + mp.mpf(2) ** -40)

    def gu(u):
        if u == 0:
            return -mp.mpf(1) / 2
        return (mp.log1p(u) - u) / (u * u)

    c, worst = remez(gu, lambda u: mp.mpf(1), -umax, umax, 4)
    print(f"ln cells: |g - p| <= 2^{float(mp.log(worst, 2)):.2f}", file=sys.stderr)
    print("/// `g(u) = (ln(1 + u) - u) / u^2` on `|u| <= 2^-8`, minimax of degree 4")
    print(f"/// (lowest first); `|g - p| < 2^{int(mp.floor(mp.log(worst, 2))) + 1}`, so `u^2 (g - p)` is")
    print(f"/// below `2^{int(mp.floor(mp.log(worst * umax ** 2, 2))) + 1}`.")
    print("pub(super) const LN_POLY: [f64; 5] = [")
    for v in c:
        print(f"    {rust(d(v))},")
    print("];")
    print()
    # Near 1: ln(1+r) = r - r^2/2 + r^3 g(r), |r| < 1/16.
    a = mp.mpf(1) / 16

    def gl(r):
        if r == 0:
            return mp.mpf(1) / 3
        return (mp.log1p(r) - r + r * r / 2) / r ** 3

    c, worst = remez(gl, lambda r: mp.mpf(1), -a, a, 10)
    print(f"ln near 1: |g - p| <= 2^{float(mp.log(worst, 2)):.2f}", file=sys.stderr)
    print("/// `g(r) = (ln(1 + r) - r + r^2/2) / r^3` on `|r| < 1/16`, minimax of")
    print(f"/// degree 10 (lowest first); `|g - p| < 2^{int(mp.floor(mp.log(worst, 2))) + 1}`.")
    print("pub(super) const LN_NEAR1: [f64; 11] = [")
    for v in c:
        print(f"    {rust(d(v))},")
    print("];")
    print()

    # ---- sin / cos -----------------------------------------------
    pio2 = mp.pi / 2
    print("// sin/cos: x = n pi/2 + y, |y| <= pi/4.")
    print()
    const("FRAC_2_PI", d(2 / mp.pi), ["`2 / pi`."])
    p1 = mp.mpf(mp.floor(pio2 * 2 ** 32)) / 2 ** 32
    p2 = mp.mpf(mp.floor((pio2 - p1) * 2 ** 66)) / 2 ** 66
    const("PIO2_1", d(p1), ["The first 33 bits of `pi/2`: `n * PIO2_1` is exact for `|n| < 2^20`."])
    const("PIO2_2", d(p2), ["The next 33 bits of `pi/2`."])
    const("PIO2_2T", d(pio2 - p1 - p2), ["`pi/2 - PIO2_1 - PIO2_2`."])
    const("PIO2_HI", d(pio2), ["`pi/2` as a double-double, for the large-argument path."])
    const("PIO2_LO", d(pio2 - mp.mpf(d(pio2))), ["`pi/2 - PIO2_HI`."])
    b = (mp.pi / 4) ** 2

    def gs(z):
        if z == 0:
            return -mp.mpf(1) / 6
        s = mp.sqrt(z)
        return (mp.sin(s) - s) / (z * s)

    def gc(z):
        if z == 0:
            return mp.mpf(1) / 24
        s = mp.sqrt(z)
        return (mp.cos(s) - 1 + z / 2) / (z * z)

    # Weighted by the share of the result each error carries: z for
    # sin (x^3 g / x), z^2 for cos.
    cs, ws = remez(gs, lambda z: z if z > 0 else mp.mpf(0), 0, b, 5)
    cc, wc = remez(gc, lambda z: z * z if z > 0 else mp.mpf(0), 0, b, 5)
    print(f"sin: |z (g - p)| <= 2^{float(mp.log(ws, 2)):.2f}", file=sys.stderr)
    print(f"cos: |z^2 (g - p)| <= 2^{float(mp.log(wc, 2)):.2f}", file=sys.stderr)
    print("/// `sin y = y + y^3 s(y^2)` on `|y| <= pi/4`, `s` minimax of degree 5")
    print(f"/// (lowest first); relative error below `2^{int(mp.floor(mp.log(ws, 2))) + 1}`.")
    print("pub(super) const SIN_POLY: [f64; 6] = [")
    for v in cs:
        print(f"    {rust(d(v))},")
    print("];")
    print("/// `cos y = 1 - y^2/2 + y^4 c(y^2)` on `|y| <= pi/4`, `c` minimax of")
    print(f"/// degree 5 (lowest first); absolute error below `2^{int(mp.floor(mp.log(wc, 2))) + 1}`.")
    print("pub(super) const COS_POLY: [f64; 6] = [")
    for v in cc:
        print(f"    {rust(d(v))},")
    print("];")
    print()
    # 2/pi to 1280 bits after the point, behind one zero word so an
    # argument's window may start up to 64 bits before the point.
    words = 21
    with mp.workprec(64 * words + 64):
        v = int(mp.floor(2 / mp.pi * mp.mpf(2) ** (64 * (words - 1))))
    ws_ = [0] + [(v >> (64 * (words - 2 - i))) & (2 ** 64 - 1) for i in range(words - 1)]
    print("/// The bits of `2/pi` after the binary point, most significant first,")
    print("/// behind one zero word: bit `b` of the fraction is bit `b + 64` of")
    print("/// this array. 1,280 bits cover every finite double.")
    print(f"pub(super) static TWO_OVER_PI_BITS: [u64; {words}] = [")
    for w_ in ws_:
        print(f"    0x{w_:016X},")
    print("];")


main()
