"""Correlation spectra and demerit factors in exact arithmetic.

Aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} g_j with out-of-range terms treated as zero,
so the support is -(len(g)-1) <= s <= len(f)-1.  Periodic correlation
satisfies PC(s) = C(s) + C(s - l) for equal lengths l.

All values are integers; demerit factors are Fractions, and a DemeritReport
stores the three of a pair and derives PSC from them.  The private kernel
_corr computes the correlations of spectra, demerit factors, Golay checks,
the Monte Carlo baseline and the first rotation of a shift search's walk;
only the shift-search engines of analysis, which batch their own
transforms and check them with _rounded, and golay._tail_keys also sum
correlations themselves.  While the shorter input is below the crossover
_FFT_MIN_LEN = 512 the kernel is numpy's direct correlation, O(l^2), on
float64 copies of the +-1 terms, since numpy runs it on SIMD dot products
for float64 and as a plain loop for int64.  It is exact: every partial sum
is an integer of absolute value at most l <= 2^20 under the exact-length
budget, far below 2^53.  Above the crossover, the
spectrum is irfft(rfft(a) * conj(rfft(b))) over a power-of-two length,
O(l log l), one transform fewer for autocorrelations, rounded to int64.
Two equal-shape stacks of rows are correlated row by row and always take
the FFT path, since one transform call serves every row.  Every FFT result
is checked: each value must lie within 0.25 of its integer (_rounded) and
each row must satisfy sum_s C(s) = (sum a)(sum b) exactly; otherwise the
kernel returns the direct result, row by row for a stack.  Either way it
refuses lengths over the exact-length budget (see budget), within which
the values and their squared sums are exact in int64, and every value is
exact in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .sequence import BinarySequence

# _corr takes the FFT path when both lengths reach this.  Measured on two
# cores the direct float64 correlation loses to the FFT near l = 700 (59 vs
# 84 us a call at l = 512, 110 vs 124 us at 700); between 512 and 700 the
# two differ by under 25 us a call, so the crossover stays at 512.
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
    a, b = a.astype(np.float64), b.astype(np.float64)  # exact: see the module docstring
    if a.ndim == 2:
        return np.array([np.correlate(x, y, mode="full") for x, y in zip(a, b)]).astype(np.int64)
    return np.correlate(a, b, mode="full").astype(np.int64)


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
    c = _rounded(x)
    # |sum a|, |sum b| <= 2^20 within the exact-length budget: int64 products
    if c is None or not np.array_equal(c.sum(axis=-1), a.sum(axis=-1) * b.sum(axis=-1)):
        return None
    return c


def _rounded(x: np.ndarray) -> np.ndarray | None:
    """x (float64) rounded to int64, or None unless every value lies within
    0.25 of its integer.  Overwrites x, whose memory the result takes."""
    c = np.rint(x)
    x -= c
    np.abs(x, out=x)
    if not x.max() < 0.25:  # fails on NaN too
        return None
    out = x.view(np.int64)
    np.copyto(out, c, casting="unsafe")
    return out


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


def _adf_of(c: np.ndarray, ell: int) -> Fraction:
    """The ADF of a length-ell sequence from its autocorrelation c (all lags)."""
    return Fraction(int(np.dot(c, c)) - ell * ell, ell * ell)


def adf(f: BinarySequence) -> Fraction:
    """Autocorrelation demerit factor: sum of C(s)^2 over s != 0, divided by l^2."""
    return _adf_of(_corr(f.terms, f.terms), len(f))


def cdf(f: BinarySequence, g: BinarySequence) -> Fraction:
    """Crosscorrelation demerit factor: sum of C(s)^2 over all s, divided by lf*lg."""
    if len(f) != len(g):
        raise ValueError("crosscorrelation demerit factor requires equal lengths")
    c = _corr(f.terms, g.terms)
    return Fraction(int(np.dot(c, c)), len(f) * len(g))


@dataclass(frozen=True)
class DemeritReport:
    """ADF(f), ADF(g) and CDF(f,g); the Pursley-Sarwate criterion
    PSC = sqrt(ADF(f)*ADF(g)) + CDF(f,g) is derived from them."""

    adf_f: Fraction
    adf_g: Fraction
    cdf: Fraction

    @property
    def psc_exact(self) -> Fraction | None:
        """PSC when sqrt(ADF(f)*ADF(g)) is rational, else None.  In lowest
        terms n/d is a square exactly when n*d is; its root is sqrt(n*d)/d."""
        q = self.adf_f * self.adf_g
        nd = q.numerator * q.denominator
        root = math.isqrt(nd)
        if root * root != nd:
            return None
        return Fraction(root, q.denominator) + self.cdf

    @property
    def psc(self) -> float:
        if (exact := self.psc_exact) is not None:
            return float(exact)
        return math.sqrt(float(self.adf_f * self.adf_g)) + float(self.cdf)


def psc(f: BinarySequence, g: BinarySequence) -> DemeritReport:
    """ADF(f), ADF(g) and CDF(f,g) from the two autocorrelations alone: by
    sum_s C_fg(s)^2 = sum_t C_ff(t) C_gg(t) the CDF numerator is C_ff . C_gg.
    That int64 dot is exact: each term is at most (l-|t|)^2 in absolute
    value, so every partial sum is at most 2l^3/3 < 2^63 within the
    exact-length budget."""
    if len(f) != len(g):
        raise ValueError("Pursley-Sarwate criterion requires equal lengths")
    ell = len(f)
    cf, cg = (_corr(a.terms, a.terms) for a in (f, g))
    return DemeritReport(_adf_of(cf, ell), _adf_of(cg, ell), Fraction(int(np.dot(cf, cg)), ell * ell))
