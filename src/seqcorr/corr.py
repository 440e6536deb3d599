"""Correlation spectra and demerit factors in exact arithmetic.

Aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} g_j with out-of-range terms treated as zero,
so the support is -(len(g)-1) <= s <= len(f)-1.  Periodic correlation
satisfies PC(s) = C(s) + C(s - l) for equal lengths l.

All values are integers; demerit factors are Fractions, and a
DemeritReport stores the three of a pair and derives PSC from them.
Every correlation in the package comes from one private kernel,
_correlations(rows, products), whose entry t is C_{rows[i], rows[j]} for
(i, j) = products[t], row by row when the two are stacks of rows, or for
j = ~r the convolution of rows[i] with rows[r], a correlation with
rows[r] reversed; only golay._tail_keys (int8 sums, no FFT) and the
circular block sums of analysis._hankel_prefix_sums sum correlations of
another shape themselves.  _corr calls it for one pair of term arrays or
of stacks, the shift-search engines of analysis with several products of
one row each, and the Monte Carlo baseline with two products of stacks.
While the products times the rows of a stack times the shorter length is
at most _DIRECT_WORK = 768, the kernel is numpy's direct correlation,
O(l^2), on float64 copies of the rows, since numpy runs it on SIMD dot
products for float64 and as a plain loop for int64.  It is exact for
every caller: each partial sum is an integer far below 2^53, at most l
<= 2^20 in absolute value for +-1 rows within the exact-length budget,
and below 2l^2 <= 2^29 for the engines' rows (|V| <= 2l within the
shift-search length).  Above it, each row is transformed once at a power
of two of at least la + lb - 1 terms, so nothing wraps, and product t is
irfft(rfft(rows[i]) * conj(rfft(rows[j]))), O(l log l), without the
conjugate for a convolution: an autocorrelation takes one transform, and
a reversed row none.  Every FFT output in the package, the Hankel block
sums' too, passes one check, _exact: each value must lie within 0.25 of
its integer, and each row of each product must satisfy
sum_s C(s) = (sum a)(sum b) exactly, in int64.  Otherwise the kernel
computes the whole call directly, and the Hankel sums that level.  _corr
refuses lengths over the exact-length budget (see
budget), within which the values and their squared sums are exact in
int64, and every value is exact in float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .sequence import BinarySequence

# _correlations is direct while the products times the rows of a stack times
# the shorter length is at most this, else by FFTs.  Direct vs FFT on two
# cores, one crosscorrelation at l = 512 / 700 / 768 / 900: 0.070 / 0.114 /
# 0.170 / 0.218 vs 0.099 / 0.154 / 0.155 / 0.140 ms; 2 products at l = 384 /
# 500, 0.060 vs 0.069 / 0.086 vs 0.071 ms; 4 at l = 192 / 251, 0.068 vs
# 0.073 / 0.098 vs 0.080 ms; 8 at l = 100 / 128, 0.047 vs 0.052 / 0.104 vs
# 0.086 ms.
_DIRECT_WORK = 768


def _corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_{a,b}(s) for s = -(len(b)-1) .. len(a)-1, from int64 term arrays;
    for two equal-shape stacks of rows, row i is C_{a_i,b_i}."""
    budget.check("exact length", max(a.shape[-1], b.shape[-1]))
    rows = (a,) if b is a else (a, b)
    return _correlations(rows, [(0, len(rows) - 1)])[0]


def _correlations(rows, products) -> np.ndarray:
    """Entry t is C_{rows[i], rows[j]} for (i, j) = products[t], as int64;
    for stacks of rows, row by row (see _corr).  A negative j = ~r names
    rows[r] reversed, so that entry t is the convolution rows[i] * rows[r].
    rows is a sequence of 1-D arrays of integers, or of equal-shape stacks
    of them (an array is the sequence along its first axis).  Every product
    has the lengths la, lb of the first, so la + lb - 1 terms.

    Direct while the products times the rows of a stack times min(la, lb)
    is at most _DIRECT_WORK; else the FFT correlation, returned only when
    it passes both exactness checks (see the module docstring).  A reversed
    row is not transformed: the spectrum of the convolution is
    rfft(rows[i]) * rfft(rows[r]).
    """
    i, j = products[0]
    a, b = rows[i], rows[max(j, ~j)]
    la, lb = a.shape[-1], b.shape[-1]
    if len(products) * (a.size // la) * min(la, lb) > _DIRECT_WORK:
        from numpy import fft  # loaded on first use, not at package import

        n = 1 << (la + lb - 2).bit_length()  # >= la + lb - 1: no wraparound
        stacked = isinstance(rows, np.ndarray)
        spectra = fft.rfft(rows, n) if stacked else [fft.rfft(x, n) for x in rows]
        # exact in int64 (float64 rows hold integers, a tuple int64 terms):
        # |sum a| |sum b| <= 2^40 for +-1 rows, <= 2 l^3 for the engines' rows
        sums = rows.sum(axis=-1).astype(np.int64) if stacked else [x.sum(axis=-1) for x in rows]
        prod = np.empty((len(products), *spectra[i].shape), dtype=complex)
        expect, convolved = [], []
        for t, (i, j) in enumerate(products):  # views of the spectra: no copies
            if j < 0:
                np.multiply(spectra[i], spectra[~j], out=prod[t])
                convolved.append(t)
            else:
                np.conjugate(spectra[j], out=prod[t])
                prod[t] *= spectra[i]
            expect.append(sums[i] * sums[max(j, ~j)])
        del spectra
        circ = fft.irfft(prod, n)
        del prod
        # circ[k] = C(k) for k < la and C(k - n) for k > n - lb
        x = np.concatenate((circ[..., n - lb + 1 :], circ[..., :la]), axis=-1)
        for t in convolved:  # a convolution does not wrap
            x[t] = circ[t, ..., : la + lb - 1]
        del circ
        if (c := _exact(x, expect)) is not None:
            return c
    rows = [x.astype(np.float64) for x in rows]  # exact: see the module docstring
    out = np.empty((len(products), *a.shape[:-1], la + lb - 1), dtype=np.int64)
    for t, (i, j) in enumerate(products):
        x, y = rows[i], rows[j] if j >= 0 else rows[~j][..., ::-1]
        out[t] = np.correlate(x, y, "full") if x.ndim == 1 else [np.correlate(u, v, "full") for u, v in zip(x, y)]
    return out


def _exact(x: np.ndarray, expect) -> np.ndarray | None:
    """x (float64, an FFT output) rounded to int64, or None unless every
    value lies within 0.25 of its integer and the values along the last
    axis sum to expect (int64, broadcast against x's other axes) exactly.
    Overwrites x, whose memory the result takes."""
    c = np.rint(x)
    x -= c
    np.abs(x, out=x)
    if not x.max() < 0.25:  # fails on NaN too
        return None
    out = x.view(np.int64)
    np.copyto(out, c, casting="unsafe")
    return out if (out.sum(axis=-1) == expect).all() else None


@dataclass(frozen=True, eq=False)
class CorrelationSpectrum:
    """Correlations at shifts first, first + 1, ...: array is the kernel's int64
    output, made read-only; values, the shift -> int dict, is built on first read."""

    first: int
    array: np.ndarray

    def __post_init__(self):
        self.array.flags.writeable = False

    @functools.cached_property
    def values(self) -> dict:
        return dict(zip(range(self.first, self.first + len(self.array)), self.array.tolist()))


def aperiodic_xcorr(f: BinarySequence, g: BinarySequence) -> CorrelationSpectrum:
    return CorrelationSpectrum(1 - len(g), _corr(f.terms, g.terms))


def periodic_xcorr(f: BinarySequence, g: BinarySequence) -> CorrelationSpectrum:
    if len(f) != len(g):
        raise ValueError("periodic crosscorrelation requires equal lengths")
    return CorrelationSpectrum(0, _periodic(_corr(f.terms, g.terms)))


def _periodic(c: np.ndarray) -> np.ndarray:
    """PC(s) = C(s) + C(s - l), s = 0 .. l-1, as a new array, from the
    aperiodic c[k] = C(k - (l-1)) of two sequences of length l."""
    ell = (len(c) + 1) // 2
    pc = c[ell - 1 :].copy()
    pc[1:] += c[: ell - 1]
    return pc


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
