"""Correlation spectra and demerit factors in exact arithmetic.

Aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} g_j with out-of-range terms treated as zero,
so the support is -(len(g)-1) <= s <= len(f)-1.  Periodic correlation
satisfies PC(s) = C(s) + C(s - l) for equal lengths l.

All values are integers; demerit factors are Fractions.  The private kernel
_corr computes the correlations of spectra, demerit factors, Golay checks
and the Monte Carlo baseline; only the rotation walk of analysis, which
updates a spectrum from _corr one shift at a time, and golay._tail_keys,
the autocorrelation tails of every sign row for the seed census and the
pair search, compute correlations themselves.  While the shorter input is
below the crossover _FFT_MIN_LEN = 512 the kernel is numpy's direct integer
correlation on int64 arrays, O(l^2) and free of floating point.  Above it,
the spectrum is irfft(rfft(a) * conj(rfft(b))) over a power-of-two length,
O(l log l), one transform fewer for autocorrelations, rounded to int64.
Two equal-shape stacks of rows are correlated row by row and always take
the FFT path, since one transform call serves every row.  Every FFT result
is checked: each value must lie within 0.25 of its integer and each row
must satisfy sum_s C(s) = (sum a)(sum b) exactly; otherwise the kernel
returns the direct result, row by row for a stack.  Either way it refuses
lengths over the exact-length budget (see budget), within which the values
and their squared sums are exact in int64.
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
    """C_{a,b}(s) for s = -(len(b)-1) .. len(a)-1, from int64 term arrays;
    for two equal-shape stacks of rows, row i is C_{a_i,b_i}.

    Direct below the crossover; above it, and for every stack, the FFT
    result, returned only when it passes the exactness checks (see the
    module docstring).
    """
    budget.check("exact length", max(a.shape[-1], b.shape[-1]))
    if a.ndim == 2 or min(len(a), len(b)) >= _FFT_MIN_LEN:
        c = _fft_corr(a, b)
        if c is not None:
            return c
    if a.ndim == 2:
        return np.array([np.correlate(x, y, mode="full") for x, y in zip(a, b)])
    return np.correlate(a, b, mode="full")


def _fft_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The FFT correlation along the last axis as int64, or None if it
    fails an exactness check."""
    from numpy import fft  # loaded on first use, not at package import

    la, lb = a.shape[-1], b.shape[-1]
    size = 1 << (la + lb - 2).bit_length()  # >= la + lb - 1: no wraparound
    fa = fft.rfft(a, size)
    prod = fa.conj() if b is a else fft.rfft(b, size).conj()
    prod *= fa
    del fa
    circ = fft.irfft(prod, size)
    del prod
    # circ[k] = C(k) for k < la and C(k - size) for k > size - lb
    x = np.concatenate((circ[..., size - lb + 1 :], circ[..., :la]), axis=-1)
    del circ
    c = np.rint(x)
    x -= c
    np.abs(x, out=x)
    if not x.max() < 0.25:  # fails on NaN too
        return None
    c = c.astype(np.int64)
    # |sum a|, |sum b| <= 2^20 within the exact-length budget: int64 products
    if not np.array_equal(c.sum(axis=-1), a.sum(axis=-1) * b.sum(axis=-1)):
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

