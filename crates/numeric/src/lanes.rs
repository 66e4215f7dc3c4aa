//! The lane kernel: the transcendental functions under every served
//! transform factor, evaluated a whole abscissa batch at a time.
//!
//! Four branch-free polynomial primitives — `exp`, `ln`, `atan` and
//! `sin_cos` — each with a fixed rule per lane: inside its *fast range*
//! a lane gets the polynomial, outside it (NaN, ±∞, subnormals, huge
//! phases) it gets `std`'s value. The rule depends on the lane's input
//! alone, so a value never depends on its neighbours in a batch, on the
//! batch length or on the instruction set.
//!
//! | primitive | fast range | method |
//! |---|---|---|
//! | `exp(x)` | `−708 ≤ x ≤ 708` (result normal) | `x = k ln 2 + r`, ln 2 split hi/lo, degree-13 Taylor on `−ln2/2 ≤ r ≤ ln2/2`, `2^k` from the exponent bits |
//! | `ln(x)` | positive normal `x` | `x = 2^k m`, `m ∈ [√½, √2)`, atanh series in `s = (m−1)/(m+1)` to `s^21` |
//! | `atan(x)` | `x = ±0` or `2^−1020 ≤ abs(x) ≤ f64::MAX` | `1/abs(x)` above 1, two half-angle steps to `abs(x) ≤ tan(π/16)`, degree-23 odd series |
//! | `sin_cos(x)` | `−2^10 ≤ x ≤ 2^10` | three-part Cody–Waite `π/2`, degree-17 sine and degree-16 cosine Taylor on `−π/4 ≤ r ≤ π/4`, quadrant by bit selects |
//!
//! Inside its fast range each primitive is within 2 ulp of `std` on the
//! seeded sweeps in the tests below, and `sin_cos` also at the doubles
//! next to every multiple of `π/2` in its range, where the reduced
//! argument is smallest. Every constant is derived with Python's
//! `decimal` by `crates/numeric/tools/lane_constants.py`.
//!
//! The batch entry points, [`gamma_lst_batch`] (`(1 + s/β)^−α`) and
//! [`exp_scaled_batch`] (`e^{c·s}`), run every lane through the
//! polynomials and fall back to the scalar rule for the whole batch if
//! any lane left a fast range. Beside them run the complex arithmetic of
//! a device transform: [`inv_batch`] (Smith's reciprocal with its branch
//! turned into operand selects, [`inv`], and [`div`] on it) and
//! [`pk_waiting_batch`] (the Pollaczek–Khinchin waiting-time transform).
//!
//! Every batch loop — these and the model's own, through
//! [`at_lane_width`] — is compiled twice, baseline x86-64 (SSE2) and AVX-512, from the same
//! source, and AVX-512 is chosen once, on first use, when
//! `is_x86_feature_detected!` finds it. Rust never contracts a multiply
//! and an add into an FMA, and the loops use only IEEE-exact operations
//! (`+`, `−`, `×`, `÷`, `sqrt`, selects and bit moves), so both variants
//! return the same bits as the scalar rules ([`gamma_lst`],
//! [`exp_scaled`], `Complex64`'s `/`) lane by lane.

use crate::Complex64;
use std::f64::consts::{FRAC_2_PI, FRAC_PI_2, LOG2_E, SQRT_2};
use std::sync::OnceLock;

/// `1.5 · 2^52`: adding it to `|x| < 2^51` rounds `x` to the nearest
/// integer (ties to even), which the low mantissa bits then hold in two's
/// complement.
const SHIFTER: f64 = 6755399441055744.0;
/// `2^52`, whose low mantissa bits take an integer to convert.
const TWO_52: f64 = 4503599627370496.0;

/// ln 2 to 32 bits, so `k · LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = 0.6931471803691238;
const LN2_LO: f64 = 1.9082149292705877e-10;
/// π/2 in three parts of 33, 33 and 53 bits: `k · PIO2_1` and
/// `k · PIO2_2` are exact for `|k| < 2^20`.
const PIO2_1: f64 = 1.5707963267341256;
const PIO2_2: f64 = 6.077100506303966e-11;
const PIO2_3: f64 = 2.0222662487959506e-21;
/// π/2 − `FRAC_PI_2`.
const FRAC_PI_2_LO: f64 = 6.123233995736766e-17;
/// The smallest `|x|` on `atan`'s fast range: its half-angle steps divide
/// by up to 4, which must not reach the subnormals.
const ATAN_TINY: f64 = 8.900295434028806e-308; // 2^−1020
/// The largest `|x|` on `sin_cos`'s fast range. Served phases stay below
/// 2^5 (`α·arg w` for a fitted Gamma law, `c·Im s` for a point mass), so
/// this keeps them on the polynomials with room to spare, and the
/// reduction's error stays far below `r`'s ulp even where `x` is closest
/// to a multiple of `π/2`.
const SIN_COS_MAX: f64 = 1024.0; // 2^10
/// The largest `|x|` on `exp`'s fast range: `e^x` stays normal.
const EXP_MAX: f64 = 708.0;

/// `1/n!`, n = 2..=13: `e^r = 1 + r + r²·Σ_k EXP_TAYLOR[k]·r^k`.
const EXP_TAYLOR: [f64; 12] = [
    0.5,
    0.16666666666666666,
    0.041666666666666664,
    0.008333333333333333,
    0.001388888888888889,
    0.0001984126984126984,
    2.48015873015873e-05,
    2.7557319223985893e-06,
    2.755731922398589e-07,
    2.505210838544172e-08,
    2.08767569878681e-09,
    1.6059043836821613e-10,
];

/// `(−1)^n/(2n+1)!`, n = 1..=8: `sin r = r + r³·Σ_k SIN_TAYLOR[k]·r^{2k}`.
const SIN_TAYLOR: [f64; 8] = [
    -0.16666666666666666,
    0.008333333333333333,
    -0.0001984126984126984,
    2.7557319223985893e-06,
    -2.505210838544172e-08,
    1.6059043836821613e-10,
    -7.647163731819816e-13,
    2.8114572543455206e-15,
];

/// `(−1)^n/(2n)!`, n = 2..=8: `cos r = 1 − r²/2 + r⁴·Σ_k COS_TAYLOR[k]·r^{2k}`.
const COS_TAYLOR: [f64; 7] = [
    0.041666666666666664,
    -0.001388888888888889,
    2.48015873015873e-05,
    -2.755731922398589e-07,
    2.08767569878681e-09,
    -1.1470745597729725e-11,
    4.779477332387385e-14,
];

/// `2/(2k+1)`, k = 1..=10: `2 atanh s = 2s + s·s²·Σ_k LN_SERIES[k]·s^{2k}`.
const LN_SERIES: [f64; 10] = [
    0.6666666666666666,
    0.4,
    0.2857142857142857,
    0.2222222222222222,
    0.18181818181818182,
    0.15384615384615385,
    0.13333333333333333,
    0.11764705882352941,
    0.10526315789473684,
    0.09523809523809523,
];

/// `(−1)^k/(2k+1)`, k = 1..=11: `atan r = r + r³·Σ_k ATAN_SERIES[k]·r^{2k}`.
const ATAN_SERIES: [f64; 11] = [
    -0.3333333333333333,
    0.2,
    -0.14285714285714285,
    0.1111111111111111,
    -0.09090909090909091,
    0.07692307692307693,
    -0.06666666666666667,
    0.058823529411764705,
    -0.05263157894736842,
    0.047619047619047616,
    -0.043478260869565216,
];

/// `c[0] + x·(c[1] + x·(… + x·c[N−1]))`, Horner's rule.
#[inline(always)]
fn horner<const N: usize>(x: f64, c: &[f64; N]) -> f64 {
    let mut acc = c[N - 1];
    for k in (0..N - 1).rev() {
        acc = c[k] + x * acc;
    }
    acc
}

/// Selects `a` where `c` holds, else `b`, as a value select rather than a
/// branch.
#[inline(always)]
fn select(c: bool, a: f64, b: f64) -> f64 {
    if c {
        a
    } else {
        b
    }
}

#[inline(always)]
fn exp_fast(x: f64) -> bool {
    x.abs() <= EXP_MAX
}

#[inline(always)]
fn exp_poly(x: f64) -> f64 {
    let t = x * LOG2_E + SHIFTER;
    let k = t - SHIFTER;
    // Both parts are exact: Sterbenz, and k · LN2_HI has at most 42 bits.
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let q = r * r * horner(r, &EXP_TAYLOR);
    let y = 1.0 + (hi - (lo - q));
    let k_bits = t.to_bits().wrapping_sub(SHIFTER.to_bits());
    y * f64::from_bits(k_bits.wrapping_add(1023) << 52)
}

// `&`, not `&&` or `contains`: no branch in a lane.
#[allow(clippy::manual_range_contains)]
#[inline(always)]
fn ln_fast(x: f64) -> bool {
    (x >= f64::MIN_POSITIVE) & (x <= f64::MAX)
}

#[inline(always)]
fn ln_poly(x: f64) -> f64 {
    let bits = x.to_bits();
    let m0 = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 1f64.to_bits());
    let e0 = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - (TWO_52 + 1023.0);
    let big = m0 >= SQRT_2;
    let m = select(big, m0 * 0.5, m0);
    let k = select(big, e0 + 1.0, e0);
    // ln m = 2 atanh(s) = 2s + s·R(s²), and 2s = f − hfsq + s·hfsq.
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * horner(z, &LN_SERIES);
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

#[allow(clippy::manual_range_contains)]
#[inline(always)]
fn atan_fast(x: f64) -> bool {
    let a = x.abs();
    (a == 0.0) | ((a >= ATAN_TINY) & (a <= f64::MAX))
}

#[inline(always)]
fn atan_poly(x: f64) -> f64 {
    let a = x.abs();
    let big = a > 1.0;
    let r = select(big, 1.0 / a, a);
    // Two half-angle steps in one: with h = √(1 + r²),
    // r2 = tan(atan(r)/4) = r / (4 + δ), δ = (h − 1) + (√(2h(1 + h)) − 2),
    // both differences in cancellation-free forms. |r2| ≤ tan(π/16).
    let rr = r * r;
    let h = (1.0 + rr).sqrt();
    let e = rr / (1.0 + h);
    let delta = e + (2.0 * e + 2.0 * rr) / ((2.0 * h * (1.0 + h)).sqrt() + 2.0);
    // c = r/4 − r2, at most a fifth of r/4.
    let c = r * delta / (16.0 + 4.0 * delta);
    let r2 = 0.25 * r - c;
    let z = r2 * r2;
    // atan(r2) − r2, the degree-23 odd series less its first term.
    let tail = r2 * z * horner(z, &ATAN_SERIES);
    // atan r = 4 (r2 + tail) = r − 4 (c − tail): r exact, the correction
    // at most 22% of it.
    let p = r - 4.0 * (c - tail);
    select(big, FRAC_PI_2 - (p - FRAC_PI_2_LO), p).copysign(x)
}

#[inline(always)]
fn sin_cos_fast(x: f64) -> bool {
    x.abs() <= SIN_COS_MAX
}

#[inline(always)]
fn sin_cos_poly(x: f64) -> (f64, f64) {
    let t = x * FRAC_2_PI + SHIFTER;
    let k = t - SHIFTER;
    let quadrant = t.to_bits().wrapping_sub(SHIFTER.to_bits());
    // x − k·PIO2_1 and k·PIO2_2 are exact, so only the last two steps round.
    let r = ((x - k * PIO2_1) - k * PIO2_2) - k * PIO2_3;
    let z = r * r;
    let sin = r + r * z * horner(z, &SIN_TAYLOR);
    // 1 − z/2 with its rounding error added back.
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos = w + (((1.0 - w) - hz) + z * z * horner(z, &COS_TAYLOR));
    let swap = quadrant & 1 == 1;
    let (s, c) = (select(swap, cos, sin), select(swap, sin, cos));
    let sin_sign = (quadrant & 2) << 62;
    let cos_sign = (quadrant.wrapping_add(1) & 2) << 62;
    (
        f64::from_bits(s.to_bits() ^ sin_sign),
        f64::from_bits(c.to_bits() ^ cos_sign),
    )
}

/// `e^x` by the lane rule: the polynomial on `|x| ≤ 708`, else `std`.
#[inline]
pub(crate) fn exp(x: f64) -> f64 {
    if exp_fast(x) {
        exp_poly(x)
    } else {
        x.exp()
    }
}

/// `ln x` by the lane rule: the polynomial on positive normal `x`, else
/// `std`.
#[inline]
pub(crate) fn ln(x: f64) -> f64 {
    if ln_fast(x) {
        ln_poly(x)
    } else {
        x.ln()
    }
}

/// `atan x` by the lane rule: the polynomial on `±0` and
/// `2^−1020 ≤ |x| ≤ f64::MAX`, else `std`.
#[inline]
pub(crate) fn atan(x: f64) -> f64 {
    if atan_fast(x) {
        atan_poly(x)
    } else {
        x.atan()
    }
}

/// `(sin x, cos x)` by the lane rule: the polynomials on `|x| ≤ 2^10`,
/// else `std`.
#[inline]
pub(crate) fn sin_cos(x: f64) -> (f64, f64) {
    if sin_cos_fast(x) {
        sin_cos_poly(x)
    } else {
        x.sin_cos()
    }
}

/// `e^z`, the crate's one complex exponential: `e^{Re z}` times
/// `cos Im z + i sin Im z`, each by the lane rule.
#[inline]
pub(crate) fn cexp(z: Complex64) -> Complex64 {
    let modulus = exp(z.re);
    let (sin, cos) = sin_cos(z.im);
    Complex64::new(modulus * cos, modulus * sin)
}

/// `e^{c·s}`: the LST of a point mass at `−c`, and the extra-reads factor
/// of the union operation. Equal to `(s * c).exp()` bit for bit.
#[inline]
pub fn exp_scaled(c: f64, s: Complex64) -> Complex64 {
    cexp(s * c)
}

/// `(1 + s/β)^−α` on the principal branch: the Gamma LST with shape `α`
/// and rate `β`. With `w = 1 + s/β` it is `e^{−α ln w}` and
/// `ln w = ½ ln |w|² + i arg w`: one `ln`, one `atan`, one `exp` and one
/// `sin_cos`, with no complex division. `arg w = atan(Im w / Re w)` while
/// `Re w > 0`, which holds whenever `Re s > −β` (every inversion
/// contour); `std`'s `atan2` covers the rest of the plane.
#[inline]
pub fn gamma_lst(shape: f64, rate: f64, s: Complex64) -> Complex64 {
    let (re, im) = (1.0 + s.re / rate, s.im / rate);
    let arg = if re > 0.0 {
        atan(im / re)
    } else {
        im.atan2(re)
    };
    let modulus = exp(-0.5 * shape * ln(re * re + im * im));
    let (sin, cos) = sin_cos(-shape * arg);
    Complex64::new(modulus * cos, modulus * sin)
}

/// [`gamma_lst`] at every abscissa of `s`, bit-identical to it lane by
/// lane, through the widest instruction set the CPU has.
pub fn gamma_lst_batch(shape: f64, rate: f64, s: &[Complex64], out: &mut [Complex64]) {
    at_lane_width(
        #[inline(always)]
        || gamma_batch(shape, rate, s, out),
    )
}

/// [`exp_scaled`] at every abscissa of `s`, bit-identical to it lane by
/// lane, through the widest instruction set the CPU has.
pub fn exp_scaled_batch(c: f64, s: &[Complex64], out: &mut [Complex64]) {
    at_lane_width(
        #[inline(always)]
        || exp_batch(c, s, out),
    )
}

/// `1 / w` by Smith's rule, bit-identical to [`Complex64::inv`], without
/// its branch. With `x` the component of `w` larger in magnitude and `y`
/// the other, both of Smith's branches are `r = y/x`, `d = x + y·r` (the
/// branch for `|Re w| < |Im w|` writes it `Re w · r + Im w`, the same
/// sum), then `1/d` and `−r/d`, or `r/d` and `−1/d`: so the operands are
/// selected and each quotient is taken once, three divisions where
/// computing both branches would take six.
#[inline(always)]
pub fn inv(w: Complex64) -> Complex64 {
    let wide = w.re.abs() >= w.im.abs();
    let (x, y) = (select(wide, w.re, w.im), select(wide, w.im, w.re));
    let r = y / x;
    let d = x + y * r;
    Complex64::new(select(wide, 1.0, r) / d, select(wide, -r, -1.0) / d)
}

/// `z / w`, bit-identical to `Complex64`'s `/` (`z * w.inv()`), without a
/// branch: `z` times [`inv`].
#[inline(always)]
pub fn div(z: Complex64, w: Complex64) -> Complex64 {
    z * inv(w)
}

/// `out[i] = 1 / w[i]` by [`inv`] at every lane.
pub fn inv_batch(w: &[Complex64], out: &mut [Complex64]) {
    assert_eq!(w.len(), out.len(), "value/output length mismatch");
    at_lane_width(
        #[inline(always)]
        move || {
            for (o, w) in out.iter_mut().zip(w) {
                *o = inv(*w);
            }
        },
    )
}

/// The modulus below which [`pk_waiting_batch`] answers the P–K limit 1.
const PK_TINY: f64 = 1e-300;

/// The P–K waiting-time transform `(1 − ρ)·s / (s − λ(1 − L_B(s)))` at
/// every abscissa, in place over `values`, which hold `L_B(s)`: `rate` is
/// `λ` and `idle` is `1 − ρ`. Where the denominator's modulus is below
/// 1e-300 the answer is the limit 1, as in the scalar rule
/// (`Mg1::waiting_lst_given_service`), bit for bit.
///
/// That test is decided first by `max(|Re|, |Im|) < 1e-300`, and only a
/// batch with a lane that passes it pays for `hypot`, on those lanes. The
/// decision is the scalar rule's: a faithful `hypot` is never below the
/// larger component, so a lane that fails the pre-check fails the `hypot`
/// test too, and a NaN component fails both (`hypot` of it is NaN or
/// `+∞`).
pub fn pk_waiting_batch(rate: f64, idle: f64, s: &[Complex64], values: &mut [Complex64]) {
    assert_eq!(s.len(), values.len(), "abscissa/value length mismatch");
    // 32 lanes at a time, each piece's service transforms kept on the
    // stack for the lanes the pre-check sends to `hypot`.
    let mut service = [Complex64::ZERO; 32];
    for (s, values) in s
        .chunks(service.len())
        .zip(values.chunks_mut(service.len()))
    {
        let service = &mut service[..s.len()];
        service.copy_from_slice(values);
        let points = &mut *values;
        let maybe_tiny = at_lane_width(
            #[inline(always)]
            move || pk_lanes(rate, idle, s, points),
        );
        if maybe_tiny {
            for ((s, lb), v) in s.iter().zip(service.iter()).zip(values.iter_mut()) {
                if pk_denominator(rate, *s, *lb).abs() < PK_TINY {
                    *v = Complex64::ONE;
                }
            }
        }
    }
}

/// `s − λ(1 − L_B(s))`, the scalar rule's grouping.
#[inline(always)]
fn pk_denominator(rate: f64, s: Complex64, lb: Complex64) -> Complex64 {
    s - (Complex64::ONE - lb) * rate
}

/// The P–K quotient at every lane, and whether any lane's denominator
/// passed the `max(|Re|, |Im|) < 1e-300` pre-check. A function of its
/// slices rather than a closure over them, so that the compiler knows
/// they do not alias and keeps `rate` and `idle` in registers.
#[inline(always)]
fn pk_lanes(rate: f64, idle: f64, s: &[Complex64], values: &mut [Complex64]) -> bool {
    let mut any = false;
    for (s, v) in s.iter().zip(values.iter_mut()) {
        let d = pk_denominator(rate, *s, *v);
        // `&`, not `&&`: no branch in a lane.
        any |= (d.re.abs() < PK_TINY) & (d.im.abs() < PK_TINY);
        *v = div(*s * idle, d);
    }
    any
}

/// Runs `lanes` compiled for the widest instruction set the CPU has:
/// AVX-512 where it is found, detected once per process, else the
/// baseline. Its loops must use IEEE-exact operations only, so that every
/// variant returns the same bits.
///
/// Mark the closure `#[inline(always)]`. Without it, a closure that
/// inlines a large loop may stay a call of its own, compiled for the
/// baseline: the same bits, at the baseline's speed. And let it call a
/// `#[inline(always)]` function of the slices it loops over, or loop over
/// slices it took by `move`: a loop through references captured from the
/// caller's frame may not vectorize, since the compiler cannot tell that
/// its stores leave the captured values alone.
#[inline]
pub fn at_lane_width<R>(lanes: impl FnOnce() -> R) -> R {
    #[cfg(feature = "isa-override")]
    if let Some(isa) = FORCED.with(|forced| forced.get()) {
        assert!(isa.supported(), "{isa:?} is not supported by this CPU");
        // SAFETY: checked just above.
        return unsafe { isa.run(lanes) };
    }
    // SAFETY: `detected` picks AVX-512 only where the CPU has it, so no
    // call pays for a feature test.
    unsafe { Isa::detected().run(lanes) }
}

#[cfg(feature = "isa-override")]
thread_local! {
    static FORCED: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every lane loop it enters on this thread compiled for
/// `isa` instead of the detected one, so that a test can compare the
/// variants of loops it cannot call directly. Only the `isa-override`
/// feature compiles it, and only dev-dependencies enable that.
///
/// # Panics
/// Panics inside `f` if the CPU does not support `isa`.
#[cfg(feature = "isa-override")]
pub fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    let before = FORCED.with(|forced| forced.replace(Some(isa)));
    let out = f();
    FORCED.with(|forced| forced.set(before));
    out
}

/// One lane of [`gamma_lst`] through the polynomials alone, and whether
/// every primitive's input was in its fast range (then the value is
/// [`gamma_lst`]'s).
#[inline(always)]
fn gamma_lane(shape: f64, rate: f64, s: Complex64) -> (Complex64, bool) {
    let (re, im) = (1.0 + s.re / rate, s.im / rate);
    let ratio = im / re;
    let norm = re * re + im * im;
    let log_modulus = -0.5 * shape * ln_poly(norm);
    let phase = -shape * atan_poly(ratio);
    let modulus = exp_poly(log_modulus);
    let (sin, cos) = sin_cos_poly(phase);
    let fast =
        (re > 0.0) & atan_fast(ratio) & ln_fast(norm) & exp_fast(log_modulus) & sin_cos_fast(phase);
    (Complex64::new(modulus * cos, modulus * sin), fast)
}

/// One lane of [`exp_scaled`] through the polynomials alone, and whether
/// both inputs were in their fast ranges.
#[inline(always)]
fn exp_scaled_lane(c: f64, s: Complex64) -> (Complex64, bool) {
    let z = s * c;
    let modulus = exp_poly(z.re);
    let (sin, cos) = sin_cos_poly(z.im);
    (
        Complex64::new(modulus * cos, modulus * sin),
        exp_fast(z.re) & sin_cos_fast(z.im),
    )
}

/// The batch loop every variant compiles: every lane through the
/// polynomials (`$lane`, giving the value and whether it was fast), then
/// the scalar rule (`$scalar`) over the whole batch if any lane left a
/// fast range. A macro rather than a function taking closures, so the lane
/// is inlined into each variant whatever the inliner decides.
macro_rules! batch {
    ($s:expr, $out:expr, $z:ident => $lane:expr, $scalar:expr) => {{
        let (s, out): (&[Complex64], &mut [Complex64]) = ($s, $out);
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        let mut slow = false;
        for (z, o) in s.iter().zip(out.iter_mut()) {
            let $z = *z;
            let (value, fast) = $lane;
            *o = value;
            slow |= !fast;
        }
        if slow {
            for (z, o) in s.iter().zip(out.iter_mut()) {
                let $z = *z;
                *o = $scalar;
            }
        }
    }};
}

#[inline(always)]
fn gamma_batch(shape: f64, rate: f64, s: &[Complex64], out: &mut [Complex64]) {
    batch!(s, out, z => gamma_lane(shape, rate, z), gamma_lst(shape, rate, z))
}

#[inline(always)]
fn exp_batch(c: f64, s: &[Complex64], out: &mut [Complex64]) {
    batch!(s, out, z => exp_scaled_lane(c, z), exp_scaled(c, z))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// `lanes` compiled for AVX-512: an `#[inline(always)]` closure is
    /// inlined here, and with it every `#[inline]` loop and helper it
    /// calls.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) fn run_avx512<R>(lanes: impl FnOnce() -> R) -> R {
        lanes()
    }
}

/// The instruction sets the batch loops are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Baseline x86-64 (SSE2), or whatever the target guarantees elsewhere.
    Baseline,
    /// AVX-512F.
    Avx512,
}

impl Isa {
    /// The widest supported variant, detected once per process.
    fn detected() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if Isa::Avx512.supported() {
                Isa::Avx512
            } else {
                Isa::Baseline
            }
        })
    }

    /// Whether this CPU can run the variant.
    pub fn supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Runs `lanes` compiled for this instruction set (see
    /// [`at_lane_width`]).
    ///
    /// # Safety
    /// The CPU must support the variant ([`Isa::supported`]).
    #[inline]
    unsafe fn run<R>(self, lanes: impl FnOnce() -> R) -> R {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller guarantees the CPU has AVX-512F.
            Isa::Avx512 => unsafe { x86::run_avx512(lanes) },
            _ => lanes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// `±2^u · m` with `u` uniform in `[lo, hi)` and a random mantissa:
        /// every binade equally likely.
        fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            sign * self.uniform(lo, hi).exp2()
        }
    }

    /// Distance in units in the last place; 0 for equal values and for two
    /// NaNs.
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b || (a.is_nan() && b.is_nan()) {
            return 0;
        }
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    const SAMPLES: usize = 200_000;

    #[track_caller]
    fn assert_within_two_ulp(
        name: &str,
        xs: impl Iterator<Item = f64>,
        ours: impl Fn(f64) -> f64,
        std: impl Fn(f64) -> f64,
    ) {
        let (mut worst, mut at) = (0, 0.0);
        for x in xs {
            let d = ulps(ours(x), std(x));
            if d > worst {
                (worst, at) = (d, x);
            }
        }
        assert!(worst <= 2, "{name}: {worst} ulp from std at {at:e}");
    }

    #[test]
    fn each_primitive_is_within_two_ulp_of_std_on_its_fast_range() {
        let mut rng = Rng(0x1a_4e5);
        let mut xs = |f: &mut dyn FnMut(&mut Rng) -> f64| -> Vec<f64> {
            (0..SAMPLES).map(|_| f(&mut rng)).collect()
        };
        let exp_xs = xs(&mut |r| r.uniform(-EXP_MAX, EXP_MAX));
        let exp_near = xs(&mut |r| r.uniform(-1.0, 1.0));
        let ln_xs = xs(&mut |r| r.log_uniform(-1022.0, 1024.0).abs());
        let ln_near = xs(&mut |r| r.uniform(0.5, 2.0));
        let atan_xs = xs(&mut |r| r.log_uniform(-1020.0, 1024.0));
        let atan_near = xs(&mut |r| r.uniform(-4.0, 4.0));
        let trig_xs = xs(&mut |r| r.uniform(-SIN_COS_MAX, SIN_COS_MAX));
        let trig_near = xs(&mut |r| r.uniform(-8.0, 8.0));
        for (name, set) in [("exp", [&exp_xs, &exp_near])] {
            for xs in set {
                assert!(xs.iter().all(|&x| exp_fast(x)));
                assert_within_two_ulp(name, xs.iter().copied(), exp_poly, f64::exp);
            }
        }
        for xs in [&ln_xs, &ln_near] {
            assert!(xs.iter().all(|&x| ln_fast(x)));
            assert_within_two_ulp("ln", xs.iter().copied(), ln_poly, f64::ln);
        }
        for xs in [&atan_xs, &atan_near] {
            assert!(xs.iter().all(|&x| atan_fast(x)));
            assert_within_two_ulp("atan", xs.iter().copied(), atan_poly, f64::atan);
        }
        for xs in [&trig_xs, &trig_near] {
            assert!(xs.iter().all(|&x| sin_cos_fast(x)));
            assert_within_two_ulp("sin", xs.iter().copied(), |x| sin_cos_poly(x).0, f64::sin);
            assert_within_two_ulp("cos", xs.iter().copied(), |x| sin_cos_poly(x).1, f64::cos);
        }
    }

    /// The reduced argument `r = x − k·π/2` is smallest, and its error from
    /// the three-part `π/2` largest relative to it, at the doubles next to
    /// a multiple of `π/2`; a seeded sweep hits none of them. So check the
    /// nearest double to every such multiple in the fast range, and its
    /// neighbours.
    #[test]
    fn sin_cos_is_within_two_ulp_of_std_next_to_every_multiple_of_half_pi() {
        let last = (SIN_COS_MAX / FRAC_PI_2) as u32;
        let xs = (1..=last).flat_map(|k| {
            let k = f64::from(k);
            let nearest = k * PIO2_1 + (k * PIO2_2 + k * PIO2_3);
            [-1, 0, 1].map(|d| f64::from_bits(nearest.to_bits().wrapping_add_signed(d)))
        });
        let xs: Vec<f64> = xs
            .flat_map(|x| [x, -x])
            .filter(|&x| sin_cos_fast(x))
            .collect();
        assert!(xs.len() > 3000);
        assert_within_two_ulp("sin", xs.iter().copied(), |x| sin_cos_poly(x).0, f64::sin);
        assert_within_two_ulp("cos", xs.iter().copied(), |x| sin_cos_poly(x).1, f64::cos);
    }

    #[test]
    fn outside_its_fast_range_each_primitive_is_std() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            1e-310,
            -1e-310,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            709.5,
            -745.0,
            -708.5,
            1500.0,
            2e6,
            -3.1e7,
            1e300,
        ];
        for x in specials {
            let same = |ours: f64, std: f64| {
                ours.to_bits() == std.to_bits() || (ours.is_nan() && std.is_nan())
            };
            if !exp_fast(x) {
                assert!(same(exp(x), x.exp()), "exp({x:e})");
            }
            if !ln_fast(x) {
                assert!(same(ln(x), x.ln()), "ln({x:e})");
            }
            if !atan_fast(x) {
                assert!(same(atan(x), x.atan()), "atan({x:e})");
            }
            if !sin_cos_fast(x) {
                let (s, c) = sin_cos(x);
                assert!(same(s, x.sin()) && same(c, x.cos()), "sin_cos({x:e})");
            }
        }
        // Each special value is outside at least one range, and the
        // ranges have the stated edges.
        assert!(exp_fast(EXP_MAX) && !exp_fast(f64::from_bits(EXP_MAX.to_bits() + 1)));
        assert!(ln_fast(f64::MIN_POSITIVE) && !ln_fast(tiny) && !ln_fast(0.0) && !ln_fast(-1.0));
        assert!(atan_fast(0.0) && atan_fast(-0.0) && atan_fast(ATAN_TINY) && !atan_fast(1e-310));
        assert!(sin_cos_fast(-SIN_COS_MAX) && !sin_cos_fast(SIN_COS_MAX * (1.0 + f64::EPSILON)));
        // Exact points the transforms rely on: e^0 = 1 and e^{i·0} = 1.
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        assert_eq!(cexp(Complex64::ZERO), Complex64::ONE);
    }

    /// Seeded abscissae on Euler-like contours, with lanes that leave a
    /// fast range mixed in when `mixed`: `Re w ≤ 0` or an overflowing
    /// `|w|²` for the Gamma kernel, an underflowing modulus or a huge phase
    /// for the exponential.
    fn abscissae(rng: &mut Rng, n: usize, mixed: bool) -> Vec<Complex64> {
        (0..n)
            .map(|k| {
                let t = rng.log_uniform(-12.0, 4.0).abs();
                let s = Complex64::new(9.2 / t, k as f64 * std::f64::consts::PI / t);
                match rng.next() % 16 {
                    0 if mixed => Complex64::new(-rng.uniform(300.0, 1e4), s.im),
                    1 if mixed => Complex64::new(1e200, -1e200),
                    2 if mixed => Complex64::new(s.re, 1e9),
                    3 if mixed => Complex64::new(f64::NAN, s.im),
                    _ => s,
                }
            })
            .collect()
    }

    #[test]
    fn batches_equal_the_scalar_rule_lane_by_lane() {
        let mut rng = Rng(0x5eed);
        for round in 0..200 {
            let n = 1 + (rng.next() % 70) as usize;
            let s = abscissae(&mut rng, n, round % 2 == 1);
            let (shape, rate) = (rng.uniform(0.2, 40.0), rng.uniform(1.0, 2000.0));
            let c = -rng.uniform(0.0, 0.05);
            let mut out = vec![Complex64::ZERO; n];
            gamma_lst_batch(shape, rate, &s, &mut out);
            for (z, o) in s.iter().zip(&out) {
                assert_bits(*o, gamma_lst(shape, rate, *z), "gamma");
            }
            exp_scaled_batch(c, &s, &mut out);
            for (z, o) in s.iter().zip(&out) {
                assert_bits(*o, exp_scaled(c, *z), "exp");
                assert_bits(*o, (*z * c).exp(), "Complex64::exp");
            }
        }
    }

    #[track_caller]
    fn assert_bits(got: Complex64, want: Complex64, what: &str) {
        assert_eq!(
            (got.re.to_bits(), got.im.to_bits()),
            (want.re.to_bits(), want.im.to_bits()),
            "{what}: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn the_avx512_variant_equals_the_baseline_bit_for_bit() {
        let isa = Isa::Avx512;
        if !isa.supported() {
            eprintln!("skipped {isa:?}: this CPU does not support it");
            return;
        }
        let mut rng = Rng(0xa5a5);
        let mut slow_batches = 0;
        for round in 0..400 {
            let n = 1 + (rng.next() % 70) as usize;
            let s = abscissae(&mut rng, n, round % 2 == 1);
            let (shape, rate) = (rng.uniform(0.2, 40.0), rng.uniform(1.0, 2000.0));
            let c = -rng.uniform(0.0, 0.05);
            let (mut want, mut got) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
            with_isa(Isa::Baseline, || {
                gamma_lst_batch(shape, rate, &s, &mut want)
            });
            with_isa(isa, || gamma_lst_batch(shape, rate, &s, &mut got));
            for (g, w) in got.iter().zip(&want) {
                assert_bits(*g, *w, "AVX-512 gamma");
            }
            with_isa(Isa::Baseline, || exp_scaled_batch(c, &s, &mut want));
            with_isa(isa, || exp_scaled_batch(c, &s, &mut got));
            for (g, w) in got.iter().zip(&want) {
                assert_bits(*g, *w, "AVX-512 exp");
            }
            slow_batches += usize::from(s.iter().any(|z| !gamma_lane(shape, rate, *z).1));
        }
        assert!(slow_batches > 100, "the batches must exercise the fallback");
    }

    /// Complex values across the magnitudes and signs a division meets,
    /// with zeros, subnormals, infinities and NaNs mixed in when `special`.
    fn operands(rng: &mut Rng, n: usize, special: bool) -> Vec<Complex64> {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            1e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        let part = |rng: &mut Rng| match rng.next() % 12 {
            0 if special => specials[(rng.next() % specials.len() as u64) as usize],
            1 | 2 => rng.log_uniform(-1000.0, 1000.0),
            _ => rng.log_uniform(-30.0, 30.0),
        };
        (0..n)
            .map(|_| Complex64::new(part(rng), part(rng)))
            .collect()
    }

    #[test]
    fn div_and_inv_are_complex_division_bit_for_bit() {
        let mut rng = Rng(0xd17);
        for round in 0..400 {
            let z = operands(&mut rng, 64, round % 2 == 1);
            let w = operands(&mut rng, 64, round % 4 == 1);
            for (z, w) in z.iter().zip(&w) {
                assert_same(div(*z, *w), *z / *w, &format!("{z:?} / {w:?}"));
            }
            let mut got = z.clone();
            inv_batch(&w, &mut got);
            for (w, g) in w.iter().zip(&got) {
                assert_same(*g, w.inv(), &format!("1 / {w:?}"));
            }
        }
    }

    /// The scalar P–K rule, as `Mg1::waiting_lst_given_service` states it.
    fn pk_scalar(rate: f64, idle: f64, s: Complex64, lb: Complex64) -> Complex64 {
        let denom = s - rate * (Complex64::ONE - lb);
        if denom.abs() < 1e-300 {
            return Complex64::ONE;
        }
        s * idle / denom
    }

    /// Abscissae and service transforms whose P–K denominators are below
    /// 1e-300, just above it with both components below, NaN or infinite,
    /// mixed into ordinary lanes when `special`.
    fn pk_inputs(rng: &mut Rng, n: usize, special: bool, rate: f64) -> Vec<(Complex64, Complex64)> {
        (0..n)
            .map(|k| {
                let s = Complex64::new(rng.uniform(1.0, 1e4), k as f64 * rng.uniform(1.0, 3e3));
                let lb = Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
                match rng.next() % 8 {
                    0 if special => (Complex64::ZERO, Complex64::ONE),
                    1 if special => (Complex64::new(3e-301, -2e-301), Complex64::ONE),
                    // |denom| = 0.9e-300·√2: both parts below, modulus above.
                    2 if special => (Complex64::new(9e-301, 9e-301), Complex64::ONE),
                    3 if special => (s, Complex64::new(f64::NAN, lb.im)),
                    4 if special => (s, Complex64::new(lb.re, f64::INFINITY)),
                    5 if special => (Complex64::new(f64::NEG_INFINITY, 0.0), lb),
                    6 if special => {
                        // s − λ(1 − lb) = 0 up to rounding: a subnormal or zero denominator.
                        let lb = Complex64::new(1.0 - s.re / rate, -s.im / rate);
                        (s, lb)
                    }
                    _ => (s, lb),
                }
            })
            .collect()
    }

    #[test]
    fn pk_waiting_batch_is_the_scalar_rule_bit_for_bit() {
        let mut rng = Rng(0x9c);
        let mut tiny_batches = 0;
        for round in 0..400 {
            let n = 1 + (rng.next() % 40) as usize;
            let (rate, idle) = (rng.uniform(0.5, 500.0), rng.uniform(0.01, 1.0));
            let inputs = pk_inputs(&mut rng, n, round % 2 == 1, rate);
            let s: Vec<Complex64> = inputs.iter().map(|p| p.0).collect();
            let mut got: Vec<Complex64> = inputs.iter().map(|p| p.1).collect();
            pk_waiting_batch(rate, idle, &s, &mut got);
            for ((s, lb), g) in inputs.iter().zip(&got) {
                let want = pk_scalar(rate, idle, *s, *lb);
                assert_same(*g, want, &format!("s={s:?} lb={lb:?}"));
            }
            tiny_batches += usize::from(got.contains(&Complex64::ONE));
        }
        assert!(tiny_batches > 50, "the batches must exercise the limit");
    }

    #[test]
    fn the_avx512_arithmetic_loops_equal_the_baseline_bit_for_bit() {
        let isa = Isa::Avx512;
        if !isa.supported() {
            eprintln!("skipped {isa:?}: this CPU does not support it");
            return;
        }
        let mut rng = Rng(0xa512);
        for round in 0..200 {
            let n = 1 + (rng.next() % 40) as usize;
            let z = operands(&mut rng, n, round % 2 == 1);
            let w = operands(&mut rng, n, round % 3 == 1);
            let (mut want, mut got) = (z.clone(), z);
            with_isa(Isa::Baseline, || inv_batch(&w, &mut want));
            with_isa(isa, || inv_batch(&w, &mut got));
            for (g, w) in got.iter().zip(&want) {
                assert_same(*g, *w, "AVX-512 inv");
            }
            let (rate, idle) = (rng.uniform(0.5, 500.0), rng.uniform(0.01, 1.0));
            let (s, lb): (Vec<Complex64>, Vec<Complex64>) =
                pk_inputs(&mut rng, n, round % 2 == 1, rate)
                    .into_iter()
                    .unzip();
            let (mut want, mut got) = (lb.clone(), lb);
            with_isa(Isa::Baseline, || {
                pk_waiting_batch(rate, idle, &s, &mut want)
            });
            with_isa(isa, || pk_waiting_batch(rate, idle, &s, &mut got));
            for (g, w) in got.iter().zip(&want) {
                assert_same(*g, *w, "AVX-512 P–K");
            }
        }
    }

    /// Equal bits, or NaN in both: which NaN payload an operation passes
    /// on depends on its operand order, which the compiler may swap.
    #[track_caller]
    fn assert_same(got: Complex64, want: Complex64, what: &str) {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        assert!(
            same(got.re, want.re) && same(got.im, want.im),
            "{what}: {got:?} vs {want:?}"
        );
    }

    /// Best-of-7 cost of one 32-point batch per variant, against `std`.
    /// Run with `cargo test --release -p cos-numeric --lib variant_costs
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing report, not a check"]
    fn variant_costs() {
        use std::hint::black_box;
        use std::time::Instant;
        let mut rng = Rng(7);
        let s = abscissae(&mut rng, 32, false);
        let mut out = vec![Complex64::ZERO; 32];
        let reps = 20_000;
        let time = |f: &mut dyn FnMut()| {
            (0..7)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        f();
                    }
                    start.elapsed().as_nanos() as f64 / reps as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let std_gamma = time(&mut || {
            for (z, o) in s.iter().zip(out.iter_mut()) {
                let (re, im) = (1.0 + z.re / 250.0, z.im / 250.0);
                let arg = (im / re).atan();
                let modulus = (-0.5 * 3.0 * (re * re + im * im).ln()).exp();
                let (sin, cos) = (-3.0 * arg).sin_cos();
                *o = Complex64::new(modulus * cos, modulus * sin);
            }
            black_box(&mut out);
        });
        let std_exp = time(&mut || {
            for (z, o) in s.iter().zip(out.iter_mut()) {
                let (re, im) = (z.re * -0.0005, z.im * -0.0005);
                let modulus = re.exp();
                let (sin, cos) = im.sin_cos();
                *o = Complex64::new(modulus * cos, modulus * sin);
            }
            black_box(&mut out);
        });
        eprintln!("std: gamma {std_gamma:.0} ns, exp {std_exp:.0} ns per 32-point batch");
        for isa in [Isa::Baseline, Isa::Avx512] {
            if !isa.supported() {
                eprintln!("skipped {isa:?}: this CPU does not support it");
                continue;
            }
            let gamma = time(&mut || {
                with_isa(isa, || {
                    gamma_lst_batch(black_box(3.0), 250.0, black_box(&s), &mut out)
                })
            });
            let exp = time(&mut || {
                with_isa(isa, || {
                    exp_scaled_batch(black_box(-0.0005), black_box(&s), &mut out)
                })
            });
            eprintln!("{isa:?}: gamma {gamma:.0} ns, exp {exp:.0} ns per 32-point batch");
        }
    }
}
