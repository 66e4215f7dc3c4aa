//! Minimal double-precision complex arithmetic.
//!
//! The Laplace-transform machinery in this workspace evaluates
//! Laplace–Stieltjes transforms along contours in the complex plane, so we
//! need complex elementary functions. The offline crate set does not include
//! `num-complex`, so this module provides a small, self-contained `Complex64`
//! with exactly the operations the inversion algorithms require.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The complex zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The complex one.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared modulus `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for robustness against
    /// intermediate overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Principal argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        // Smith's algorithm avoids overflow when one component dominates.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex64::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex64::new(r / d, -1.0 / d)
        }
    }

    /// Complex exponential `e^z`, through the lane kernel's scalar rule
    /// ([`crate::lanes`]), so it equals every batch exponential bit for
    /// bit.
    #[inline]
    pub fn exp(self) -> Self {
        crate::lanes::cexp(self)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Complex64::new(self.abs().ln(), self.arg())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.im == 0.0 && self.re >= 0.0 {
            return Complex64::new(self.re.sqrt(), 0.0);
        }
        let r = self.abs();
        let re = ((r + self.re) * 0.5).sqrt();
        let im = ((r - self.re) * 0.5).sqrt().copysign(self.im);
        Complex64::new(re, im)
    }

    /// `z^n` for integer exponents by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex64::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex64::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// `z^a` for real exponents via the principal branch `exp(a ln z)`.
    #[inline]
    pub fn powf(self, a: f64) -> Self {
        if self == Complex64::ZERO {
            return if a == 0.0 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
        }
        (self.ln() * a).exp()
    }

    /// `z^w` for complex exponents via the principal branch.
    #[inline]
    pub fn powc(self, w: Complex64) -> Self {
        if self == Complex64::ZERO {
            return if w == Complex64::ZERO {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
        }
        (self.ln() * w).exp()
    }

    /// Returns true if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns true if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re + rhs, self.im)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        rhs + self
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re - rhs, self.im)
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self - rhs.re, -rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^{-1} by definition
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        rhs.inv().scale(self)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64, eps: f64) -> bool {
        (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        let w = Complex64::new(-1.5, 2.0);
        assert!(close(z + w - w, z, EPS));
        assert!(close(z * w / w, z, EPS));
        assert!(close(z * z.inv(), Complex64::ONE, EPS));
        assert_eq!((-z).re, -3.0);
        assert_eq!((-z).im, 4.0);
    }

    #[test]
    fn abs_and_arg() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        let i = Complex64::I;
        assert!((i.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let z = Complex64::new(0.7, -1.3);
        assert!(close(z.exp().ln(), z, 1e-11));
        assert!(close(z.ln().exp(), z, 1e-11));
    }

    #[test]
    fn euler_identity() {
        // e^{i pi} = -1
        let z = (Complex64::I * std::f64::consts::PI).exp();
        assert!(close(z, Complex64::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn sqrt_branches() {
        assert!(close(Complex64::new(-1.0, 0.0).sqrt(), Complex64::I, EPS));
        assert!(close(
            Complex64::new(4.0, 0.0).sqrt(),
            Complex64::new(2.0, 0.0),
            EPS
        ));
        let z = Complex64::new(1.0, 2.0);
        assert!(close(z.sqrt() * z.sqrt(), z, 1e-11));
        // Negative imaginary part maps to the lower half-plane root.
        let w = Complex64::new(-3.0, -4.0);
        let r = w.sqrt();
        assert!(r.im < 0.0);
        assert!(close(r * r, w, 1e-11));
    }

    #[test]
    fn integer_powers() {
        let z = Complex64::new(1.0, 1.0);
        assert!(close(z.powi(2), Complex64::new(0.0, 2.0), EPS));
        assert!(close(z.powi(0), Complex64::ONE, EPS));
        assert!(close(z.powi(-1), z.inv(), EPS));
        assert!(close(z.powi(8), Complex64::new(16.0, 0.0), 1e-11));
    }

    #[test]
    fn real_powers() {
        let z = Complex64::new(4.0, 0.0);
        assert!(close(z.powf(0.5), Complex64::new(2.0, 0.0), 1e-12));
        // (l/(l+s))^k form used by the Gamma LST must work off-axis.
        let s = Complex64::new(0.5, 2.0);
        let l = 3.0;
        let base = Complex64::from_real(l) / (Complex64::from_real(l) + s);
        let k = 2.0;
        assert!(close(base.powf(k), base * base, 1e-11));
    }

    #[test]
    fn inv_extreme_magnitudes() {
        let z = Complex64::new(1e300, 1e-300);
        let w = z.inv();
        assert!(w.is_finite());
        assert!((w.re - 1e-300).abs() < 1e-310);
    }

    #[test]
    fn sum_iterator() {
        let total: Complex64 = (0..10).map(|k| Complex64::new(k as f64, -(k as f64))).sum();
        assert!(close(total, Complex64::new(45.0, -45.0), EPS));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex64::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", Complex64::new(1.0, -2.0)), "1-2i");
    }

    #[test]
    fn mixed_real_ops() {
        let z = Complex64::new(2.0, 3.0);
        assert!(close(z + 1.0, Complex64::new(3.0, 3.0), EPS));
        assert!(close(1.0 + z, Complex64::new(3.0, 3.0), EPS));
        assert!(close(z - 1.0, Complex64::new(1.0, 3.0), EPS));
        assert!(close(1.0 - z, Complex64::new(-1.0, -3.0), EPS));
        assert!(close(2.0 * z, Complex64::new(4.0, 6.0), EPS));
        assert!(close(z / 2.0, Complex64::new(1.0, 1.5), EPS));
        assert!(close(1.0 / z, z.inv(), EPS));
    }
}
