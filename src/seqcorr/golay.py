"""Sign-recursion stems, Golay complementary pairs, and optimal seeds.

The recursion doubles a sequence at each step:

    f_{n+1}(z) = f_n(z) + sigma_n * z^len(f_n) * f_n*(-z)

where * is coefficient reversal, so the appended block is the reversal of
f_n with alternating signs, scaled by the step's sign sigma_n.

A pair (a, b) is Golay complementary when the autocorrelations cancel at
every nonzero shift.  GolayPair is the certification gate: building one
checks the pair from scratch.  The base pairs in _BASES are certified at
import; Turyn composition reaches every product of their lengths up to the
exact-length budget and certifies each composed pair once.  Stems and
compositions work on int64 term arrays.  The seed census and the pair
search share one enumerator of the 2^k rows of length k keyed by
autocorrelation tail: a Golay pair of length k (the halves of an optimal
seed of length 2k) has opposite tails.  Size limits come from budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import budget
from .corr import _corr
from .sequence import BinarySequence, parse_line


class CertificationError(RuntimeError):
    """A pair that was required to be Golay complementary is not."""


def rsl_stem(seed: BinarySequence, signs, depth: int) -> BinarySequence:
    """Stem f_depth of the doubling recursion; f_0 is the seed.  Only the
    current stem is kept while it doubles."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    signs = tuple(signs)
    if not set(signs) <= {1, -1}:
        raise ValueError("sign sequence entries must be +1 or -1")
    if depth > len(signs):
        raise ValueError(f"depth {depth} exceeds supply of {len(signs)} signs")
    budget.check("exact length", len(seed) << depth)
    cur = seed.terms
    for n in range(depth):
        block = signs[n] * cur[::-1]
        block[1::2] *= -1
        cur = np.concatenate((cur, block))
    return BinarySequence(cur)


# ---------------------------------------------------------------------------
# Golay pairs


def is_golay_pair(a: BinarySequence, b: BinarySequence) -> bool:
    """True iff C_{a,a}(s) + C_{b,b}(s) = 0 for every s != 0 (checked at
    s > 0; the rest follow by symmetry)."""
    if len(a) != len(b):
        raise ValueError("Golay check requires equal lengths")
    fa, fb = a.terms, b.terms
    return not (_corr(fa, fa) + _corr(fb, fb))[len(a) :].any()


@dataclass(frozen=True)
class GolayPair:
    """A certified Golay pair: construction raises CertificationError otherwise."""

    a: BinarySequence
    b: BinarySequence
    certified: ClassVar[bool] = True  # read-only; every instance passed the check

    def __post_init__(self):
        if not is_golay_pair(self.a, self.b):
            raise CertificationError(f"length-{len(self.a)} pair failed the Golay certification")

    @property
    def length(self) -> int:
        return len(self.a)


certify = GolayPair


def _mask_to_sequence(mask: int, length: int) -> BinarySequence:
    """Bit j set means term j is +1; this fixes the enumeration order."""
    return BinarySequence(2 * (mask >> np.arange(length) & 1) - 1)


def _tail_keys(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the autocorrelation tails C(1..k-1) of the 2^k sign rows of
    length k in mask order, and keys of the negated tails.  C(s) has the
    parity of k-s and |C(s)| <= k-s, so (C(s)+k-s)/2 is a digit in [0, k-s]
    and the mixed-radix key is exact and below k!."""
    rows = np.empty((k, 1 << k), dtype=np.int8)  # int8 suffices: |C(s)| < 2^7
    for j in range(k):
        rows[j] = 2 * (np.arange(1 << k) >> j & 1) - 1
    keys, negated = np.zeros((2, 1 << k), dtype=np.int64)
    for s in range(1, k):
        tail = (rows[s:] * rows[: k - s]).sum(axis=0, dtype=np.int8).astype(np.int64)
        keys = keys * (k - s + 1) + (k - s + tail) // 2
        negated = negated * (k - s + 1) + (k - s - tail) // 2
    return keys, negated


def _golay_masks(k: int) -> list[tuple[int, int]]:
    """Masks (a, b) of every Golay pair of length k, by a and then b.  The
    partners of a have a's negated key: one run of the sorted keys."""
    keys, negated = _tail_keys(k)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lo = np.searchsorted(keys, negated, side="left")
    hi = np.searchsorted(keys, negated, side="right")
    return [(int(a), int(b)) for a in np.flatnonzero(hi > lo) for b in order[lo[a] : hi[a]]]


def check_census_length(length: int) -> None:
    """Raise ValueError for a census length below 1 or halves over budget."""
    if length < 1:
        raise ValueError(f"census length must be >= 1, got {length}")
    budget.check("census half-length", (length + 1) // 2)


def search_optimal_seeds(length: int):
    """(count, exemplars) of the optimal seeds among all 2^length: for length
    2k, the Golay pairs of length k interleaved; none for odd lengths above 1.
    Exemplars are the first ten seeds in increasing bitmask order."""
    check_census_length(length)
    if length == 1:
        return 2, [_mask_to_sequence(0, 1), _mask_to_sequence(1, 1)]
    if length % 2:
        return 0, []
    seeds = sorted(
        sum((a >> j & 1) << 2 * j | (b >> j & 1) << 2 * j + 1 for j in range(length // 2))
        for a, b in _golay_masks(length // 2)
    )
    return len(seeds), [_mask_to_sequence(m, length) for m in seeds[:10]]


# ---------------------------------------------------------------------------
# Composition and base pairs


def _compose_once(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Turyn's composition of the term arrays x = (a,b) of a pair of length
    m with y = (c,d) of length n, giving the arrays of a pair of length m*n.

    Block i of the result is u_i*a + v_i*b~ (first sequence) and
    u_i*b - v_i*a~ (second), where ~ is reversal, u = (c+d)/2 and
    v = (c-d)/2.  Exactly one of u_i, v_i is nonzero, so every term is +-1.
    """
    (aa, ab), (ac, ad) = x, y
    u = (ac + ad) // 2
    v = (ac - ad) // 2
    f = np.outer(u, aa) + np.outer(v, ab[::-1])
    g = np.outer(u, ab) - np.outer(v, aa[::-1])
    return f.ravel(), g.ravel()


# The base pairs by length, certified once at import: the one table of base
# pairs and of the lengths composition multiplies.  Length 10 is the first
# pair in bitmask order: search_golay_pairs(10) finds it again.
_BASES = {len(a): GolayPair(parse_line(a), parse_line(b))
          for a, b in (("++", "+-"), ("-++-+-----", "+-+---++--"))}


def check_composable(length: int) -> list[int]:
    """The base lengths whose product is length, shortest first, after
    refusing lengths below 2, over the exact-length budget, or of any other
    form.  The longest base is divided out first, so it is used the most."""
    if length < 2:
        raise ValueError("composed pair length must be at least 2")
    budget.check("exact length", length)
    steps, rest = [], length
    for base in sorted(_BASES, reverse=True):
        while rest % base == 0:
            rest //= base
            steps.append(base)
    if rest != 1:
        raise ValueError(f"{length} is not of the form 2^a * 10^b")
    return steps[::-1]


def compose_to_length(length: int) -> GolayPair:
    """Certified pair of the given length: Turyn steps on the term arrays of
    the base pairs, certified once at the end.  Lengths over the
    exact-length budget, which certification could not check, are refused
    before any work."""
    steps = ((_BASES[n].a.terms, _BASES[n].b.terms) for n in check_composable(length))
    return GolayPair(*map(BinarySequence, functools.reduce(_compose_once, steps)))


# ---------------------------------------------------------------------------
# Searches


def search_golay_pairs(length: int) -> GolayPair | None:
    """First Golay pair of the given length in bitmask enumeration order:
    the smallest a that has a partner, with its smallest partner b.  At
    length 10 it reproduces the built-in base pair."""
    if length < 2:
        raise ValueError(f"exhaustive pair search needs length >= 2, got {length}")
    budget.check("census half-length", length)
    pairs = _golay_masks(length)
    return GolayPair(*(_mask_to_sequence(m, length) for m in pairs[0])) if pairs else None
