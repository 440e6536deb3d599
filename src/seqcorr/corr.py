"""Correlation spectra and demerit factors in exact arithmetic.

Aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} g_j with out-of-range terms treated as zero,
so the support is -(len(g)-1) <= s <= len(f)-1.  Periodic correlation
satisfies PC(s) = C(s) + C(s - l) for equal lengths l.

All values are integers; demerit factors are Fractions.  The private
kernel _corr is the only correlation site in the package: spectra, demerit
factors, Golay checks, the pair census and the Monte Carlo baseline all go
through it.  It has two paths.  While the shorter input is below the
crossover _FFT_MIN_LEN = 512 it is numpy's direct integer correlation on
int64 arrays, O(l^2) and free of floating point.  Above it, the spectrum is
irfft(rfft(a) * conj(rfft(b))) over a power-of-two length, O(l log l), one
transform fewer for autocorrelations, rounded to int64.  That result is
checked on every call: each value must lie within 0.25 of its integer
and the integers must satisfy sum_s C(s) = (sum a)(sum b) exactly;
otherwise the kernel returns the direct result instead.  Either way it
refuses lengths over the exact-length budget (see budget), within which
the values and their squared sums are exact in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .sequence import BinarySequence

# _corr takes the FFT path when both lengths reach this.  Measured on two
# cores the FFT overtakes the direct correlation near l = 300; the margin
# keeps short calls, where per-call overhead dominates, on the direct path.
_FFT_MIN_LEN = 512


def _corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_{a,b}(s) for s = -(len(b)-1) .. len(a)-1, from int64 term arrays.

    Direct below the crossover; above it the FFT result, returned only
    when it passes the exactness checks (see the module docstring).
    """
    budget.check("exact length", max(len(a), len(b)))
    if min(len(a), len(b)) >= _FFT_MIN_LEN:
        c = _fft_corr(a, b)
        if c is not None:
            return c
    return np.correlate(a, b, mode="full")


def _fft_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The FFT correlation as int64, or None if it fails an exactness check."""
    from numpy import fft  # loaded on first use, not at package import

    la, lb = len(a), len(b)
    size = 1 << (la + lb - 2).bit_length()  # >= la + lb - 1: no wraparound
    fa = fft.rfft(a, size)
    prod = fa.conj() if b is a else fft.rfft(b, size).conj()
    prod *= fa
    del fa
    circ = fft.irfft(prod, size)
    del prod
    # circ[k] = C(k) for k < la and C(k - size) for k > size - lb
    x = np.concatenate((circ[size - lb + 1 :], circ[:la]))
    del circ
    c = np.rint(x)
    x -= c
    np.abs(x, out=x)
    if not x.max() < 0.25:  # fails on NaN too
        return None
    c = c.astype(np.int64)
    if int(c.sum()) != int(a.sum()) * int(b.sum()):
        return None
    return c


def xcorr_values(f: BinarySequence, g: BinarySequence) -> list[int]:
    """C_{f,g}(s) for s = -(len(g)-1) .. len(f)-1, as Python ints."""
    return _corr(f.terms, g.terms).tolist()


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Dense map shift -> integer correlation over the full shift support,
    in increasing shift order."""

    values: dict


def aperiodic_xcorr(f: BinarySequence, g: BinarySequence) -> CorrelationSpectrum:
    return CorrelationSpectrum(dict(zip(range(1 - len(g), len(f)), xcorr_values(f, g))))


def periodic_xcorr(f: BinarySequence, g: BinarySequence) -> CorrelationSpectrum:
    if len(f) != len(g):
        raise ValueError("periodic crosscorrelation requires equal lengths")
    ell = len(f)
    # c[k] = C(k - (ell-1)): PC(s) = C(s) + C(s - ell) is c[ell-1+s] + c[s-1]
    c = _corr(f.terms, g.terms)
    pc = c[ell - 1 :]
    pc[1:] += c[: ell - 1]
    return CorrelationSpectrum(dict(zip(range(ell), pc.tolist())))


def adf(f: BinarySequence) -> Fraction:
    """Autocorrelation demerit factor: sum of C(s)^2 over s != 0, divided by l^2."""
    arr = f.terms
    c = _corr(arr, arr)
    ell = len(f)
    return Fraction(int(np.dot(c, c)) - ell * ell, ell * ell)


def cdf(f: BinarySequence, g: BinarySequence) -> Fraction:
    """Crosscorrelation demerit factor: sum of C(s)^2 over all s, divided by lf*lg."""
    if len(f) != len(g):
        raise ValueError("crosscorrelation demerit factor requires equal lengths")
    c = _corr(f.terms, g.terms)
    return Fraction(int(np.dot(c, c)), len(f) * len(g))


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class DemeritReport:
    """ADF(f), ADF(g), CDF(f,g), and the Pursley-Sarwate criterion
    PSC = sqrt(ADF(f)*ADF(g)) + CDF(f,g).

    psc_exact is a Fraction when sqrt(ADF(f)*ADF(g)) is rational, else None;
    psc is always available as a float.
    """

    adf_f: Fraction
    adf_g: Fraction
    cdf: Fraction
    psc_exact: Fraction | None
    psc: float


def psc(f: BinarySequence, g: BinarySequence) -> DemeritReport:
    if len(f) != len(g):
        raise ValueError("Pursley-Sarwate criterion requires equal lengths")
    af = adf(f)
    ag = adf(g)
    c = cdf(f, g)
    root = _sqrt_exact(af * ag)
    if root is not None:
        exact = root + c
        return DemeritReport(af, ag, c, exact, float(exact))
    return DemeritReport(af, ag, c, None, math.sqrt(float(af * ag)) + float(c))

