"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately the slow, obviously-correct double loop
written straight from the definitions, with no numpy, so the accelerated
paths in the package have something honest to be compared against.
"""

from fractions import Fraction

from seqcorr.sequence import BinarySequence


def oracle_xcorr(f, g, s: int) -> int:
    """sum_j f_{j+s} g_j with out-of-range terms zero."""
    total = 0
    for j in range(len(g)):
        if 0 <= j + s < len(f):
            total += f[j + s] * g[j]
    return total


def oracle_spectrum(f, g) -> dict:
    return {s: oracle_xcorr(f, g, s) for s in range(-(len(g) - 1), len(f))}


def oracle_periodic(f, g) -> dict:
    ell = len(f)
    out = {}
    for s in range(ell):
        out[s] = sum(f[(j + s) % ell] * g[j] for j in range(ell))
    return out


def oracle_adf(f) -> Fraction:
    ell = len(f)
    total = sum(oracle_xcorr(f, f, s) ** 2 for s in range(-(ell - 1), ell) if s != 0)
    return Fraction(total, ell * ell)


def oracle_cdf(f, g) -> Fraction:
    total = sum(oracle_xcorr(f, g, s) ** 2 for s in range(-(len(g) - 1), len(f)))
    return Fraction(total, len(f) * len(g))


def oracle_l4l2_adf(f) -> Fraction:
    """ADF via the norm identity ||f||_4^4 = sum_s C(s)^2, with ||f||_4^4
    taken from the coefficients of f(z) * f~(z) (f~ = reversed f)."""
    ell = len(f)
    rev = list(f)[::-1]
    prod = [0] * (2 * ell - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(rev):
            prod[i + j] += x * y
    return Fraction(sum(c * c for c in prod), ell * ell) - 1


def random_sequence(rng, length: int) -> BinarySequence:
    return BinarySequence(tuple(rng.choice((1, -1)) for _ in range(length)))
