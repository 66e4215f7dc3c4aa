#!/usr/bin/env python3
"""Derives the constants of the lane kernel (crates/numeric/src/lanes.rs).

Every value is computed with 80-digit decimal arithmetic from pi (Machin's
formula) and ln 2 (2 atanh(1/3)), then rounded once to the nearest double
(or truncated to the stated number of bits for the Cody-Waite splits).
Prints each constant as Rust writes it, with its IEEE bit pattern.

    python3 crates/numeric/tools/lane_constants.py
"""
from decimal import Decimal as D, getcontext
import math, struct
getcontext().prec = 80

def pi():
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    def atan_inv(n):
        x = D(1) / n; x2 = x * x; term = x; s = x; k = 1
        while True:
            term *= -x2; k += 2; t = term / k
            if abs(t) < D(10) ** -75: break
            s += t
        return s
    return 16 * atan_inv(5) - 4 * atan_inv(239)

def ln2():
    # ln 2 = 2 atanh(1/3)
    x = D(1) / 3; x2 = x * x; term = x; s = x; k = 1
    while True:
        term *= x2; k += 2; t = term / k
        if t < D(10) ** -75: break
        s += t
    return 2 * s

def f(d):  # correctly rounded double
    return float(d)

def trunc_bits(d, bits):
    # d truncated to `bits` significant bits (d > 0)
    e = 0
    while d >= 2: d /= 2; e += 1
    while d < 1: d *= 2; e -= 1
    m = int(d * (2 ** (bits - 1)))
    return D(m) / D(2) ** (bits - 1) * D(2) ** e

def show(name, x):
    print(f"{name} = {x!r}  # bits {struct.pack('>d', x).hex()}")

PI = pi(); LN2 = ln2()
print("pi", str(PI)[:40]); print("ln2", str(LN2)[:40])
show("LOG2_E (equals std::f64::consts::LOG2_E)", f(1 / LN2))
LN2_HI = trunc_bits(LN2, 32); show("LN2_HI", f(LN2_HI)); assert D(f(LN2_HI)) == LN2_HI
show("LN2_LO", f(LN2 - LN2_HI))
show("FRAC_2_PI (equals std::f64::consts::FRAC_2_PI)", f(2 / PI))
P = PI / 2
P1 = trunc_bits(P, 33); P2 = trunc_bits(P - P1, 33); P3 = P - P1 - P2
assert D(f(P1)) == P1 and D(f(P2)) == P2
show("PIO2_1", f(P1)); show("PIO2_2", f(P2)); show("PIO2_3", f(P3))
PH = D(f(P)); show("FRAC_PI_2 (equals std::f64::consts::FRAC_PI_2)", f(PH)); show("FRAC_PI_2_LO", f(P - PH))
show("SQRT_2 (equals std::f64::consts::SQRT_2)", f(D(2).sqrt()))
fact = lambda n: math.factorial(n)
print("EXP taylor 1/n!, n=2..13")
for n in range(2, 14): show(f"  E{n}", f(D(1) / fact(n)))
print("SIN (-1)^n/(2n+1)!, n=1..8")
for n in range(1, 9): show(f"  S{n}", f(D((-1) ** n) / fact(2 * n + 1)))
print("COS (-1)^n/(2n)!, n=2..8")
for n in range(2, 9): show(f"  C{n}", f(D((-1) ** n) / fact(2 * n)))
print("LN 2/(2k+1), k=1..10")
for k in range(1, 11): show(f"  L{k}", f(D(2) / (2 * k + 1)))
print("ATAN (-1)^k/(2k+1), k=1..11")
for k in range(1, 12): show(f"  A{k}", f(D((-1) ** k) / (2 * k + 1)))
