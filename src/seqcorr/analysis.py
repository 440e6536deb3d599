"""Sweeps, shift searches, Monte Carlo baselines, and asymptotic targets.

All demerit-factor numerators here are exact integers, returned as int64;
division by the squared length happens only at the edge.  A shift search
scores 2 sum_{s=1}^{m-1} C^f(s) C^g(s) over the aperiodic autocorrelations
of two windows of length m at every shift: with g = f an ADF numerator,
and m^2 plus it a CDF numerator, since sum_s C_fg(s)^2 = sum_t C_ff(t)
C_gg(t).  Every search reads its numerators from one entry, _numerators,
for one sequence or two of equal length, and takes its answer from
_first_minimum.

Windows resize(cyclic_shift(f, r), m) with m < l (the half-Legendre
halves), the short windows below and a pair's at m != l are walked:
C(1..m-1) of the first window from corr._corr, an O(m) update to each
next rotation and one dot product per product a shift, in float64, exact
since every partial sum is an integer below m^3/3 < 2^45, a walk of one
sequence having m < 2l terms and a pair's at most 2^14 (shift-search
length).  Reversal or negation leaves C unchanged, so when
_reversal_centre(f, g) finds a c with g[i] = eps f[(c - i) mod l] for every
i and one eps = +-1, g's window at sigma - r, sigma = (c - m + 1) mod l, is
eps times f's window at r reversed, and product (i, j) at r equals product
(k - j, k - i) at sigma - r, k = len(seqs) - 1.  A sequence that is its own
reversal (Legendre p = 1 mod 4, quartic p = 1 mod 8) is such a swap of
itself, N(r) = N(sigma - r); of the pairs, the half-Legendre halves with
p = 1 mod 4 are one, about c = -half, whose walks mirror the cross product
to itself and f's ADF numerators to g's.  A mirrored walk takes l//2 + 1
rotations and copies each numerator to its partner's mirror.

A full-period window (m = l) is read from periodic correlations, as
Hoholdt & Jensen read the merit factor of rotated Legendre sequences.
PC(s) = C(s) + C(l-s) is the same at every rotation, so

    2 sum_{s=1}^{l-1} C^f_a(s) C^g_a(s) = w^f_a . w^g_a + PC^f . PC^g / 2

with w_a(s) = C_a(s) - C_a(l-s), s = 1 .. h = (l-1)//2.  Rotation a + 1
moves x[a] from the front of the window to the back, so w_{a+1} - w_a is
d_a(s) = 2 x[a] (x[a-s] - x[a+s]), indices mod l, and for x = f, y = g

    d^f_i . d^g_j = 4 x[i] y[j] (P(j-i) - Q(i+j)),
    P(d) = sum_t x[t] y[t+d],   Q(e) = sum_t x[t] y[e-t]:

the two h-term sums x[i-s] y[j-s] + x[i+s] y[j+s] and x[i-s] y[j+s] +
x[i+s] y[j-s] fill whole periods of x[i+t] y[j+t] and x[i+t] y[j-t] but
for t = 0, and for an even l t = l/2, where the two periods have the same
terms, x[i] y[j] and x[i+l/2] y[j+l/2], which cancel.  Every term below is
a correlation or a convolution of the sequences or of vectors they yield,
taken by corr._correlations for every requested product at once, so each
passes the kernel's exactness checks or is taken directly.  _pair_grid
fills the (l-1)^2 second differences of the grid from a circulant view of
P minus a Hankel view of Q, its first row and column from w^f_0 . d^g_b
and d^f_a . w^g_0, and sums its columns and rows in place: O(l^2), one
l x l array, every partial sum an integer below l^3 <= 2^27 (_GRID_LENGTH).
_periodic_numerators sums the diagonal D(a) = w^f_a . w^g_a over steps
d^f_a . w^g_0 + w^f_0 . d^g_a + d^f_a . d^g_a plus the triangle sums
sum_{j<a} d^f_a . d^g_j and sum_{i<a} d^f_i . d^g_a, each a causal
convolution with P minus a truncated Hankel sum S(a) = sum_{j<a} y[j]
Q(a+j) (_hankel_prefix_sums): O(l log^2 l), values below l^3/2 < 2^41
(shift-search length).  Every FFT output it reads passes corr._exact, or
that correlation or Hankel level is taken directly; and the steps must
sum to 0 over a period, since rotation l is rotation 0, else the search
walks.

A window of m = l + e terms, 0 < e < l, of one sequence x has C(s) =
A_r(s) + E_r(s) at s < l, A_r of the full period at r and E_r(s) =
sum_{k<e} x[r+k] x[r+k-s], and C(l+u) = B_r(u) of the e-term window, so

    N_m = N_l + 4 X + 2 Y + 2 e^2 + N_e,   X = sum_s A_r E_r,  Y = sum_s E_r^2.

_appended_numerators sums N_l + 4X + 2Y + 2e^2 from steps, in which the
Hankel sums S cancel; their terms are rf, the P tails and Hankel sums of x
against Q rolled by +e and by -e (the README has the derivation), under the
same checks, and N_e is walked.  So a search costs O(l log^2 l + l e), not
O(l m).  At e = 0 the two Hankel rows are one, and the steps are those of
_periodic_numerators.  A window of m = (q + 1) l + e terms, q >= 1, is its
first m0 = l + e terms and q more periods, C_m(kl + u) = C_{m0}(u) + (q -
k) P(u) for k < q, so that N_m = (q+1) U + N_e + q(q+1) (S + 2el + 2
sum_{k<e} z[r+k]) + q(q+1)(2q+1)/3 (S + l^2), U = N_{m0} - N_e being the
steps' sum, S = sum_{u=1}^{l-1} P(u)^2 and z = x fold (see the README):
an integer below 2m^3/3 < 2^63 (exact length).

The RNG is SplitMix64, fixed by its constants so that any implementation
can reproduce the streams.  With G = 0x9E3779B97F4A7C15 and

    mix(z) = z2 ^ (z2 >> 31), where z1 = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                                    z2 = (z1 ^ (z1 >> 27)) * 0x94D049BB133111EB

(all mod 2^64), word w = 1, 2, ... of the generator seeded s is
mix(s + w * G), so no state is kept.  Draw i of a run with seed S is the
generator seeded mix(mix(S) + i * G); its +-1 terms are the low bits of
its successive words, least significant bit first, and bit 1 maps to +1.
Trial t of the Monte Carlo baseline uses draws 2t and 2t+1, so
partitioning trials into blocks or across workers cannot change the results.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import budget, corr, families, golay
from .families import FamilySpec, cyclic_shift, resize
from .sequence import BinarySequence

# ---------------------------------------------------------------------------
# SplitMix64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """mix of the module docstring on a uint64 array, which wraps mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_rows(run_seed: int, first: int, count: int, length: int) -> np.ndarray:
    """Draws first .. first+count-1 of the run seeded run_seed, as a
    (count, length) int64 array of +-1 terms (see the module docstring)."""
    # Arrays throughout: uint64 arrays wrap mod 2^64 silently, numpy scalars warn.
    base = _mix64(np.array([run_seed % (1 << 64)], dtype=np.uint64))
    seeds = _mix64(base + np.arange(first, first + count, dtype=np.uint64) * _GOLDEN)
    steps = np.arange(1, (length + 63) // 64 + 1, dtype=np.uint64) * _GOLDEN
    words = _mix64(seeds[:, None] + steps).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :length]
    return bits.astype(np.int64) * 2 - 1


# ---------------------------------------------------------------------------
# Cubic roots and asymptotic targets


def cubic_root(c3: int, c2: int, c1: int, c0: int, selector: str) -> float:
    """A real root of c3 x^3 + c2 x^2 + c1 x + c0, Newton-polished.

    selector is smallest_real or middle_real; middle_real requires all
    three roots to be real.
    """
    if c3 == 0:
        raise ValueError("cubic leading coefficient must be nonzero")
    roots = np.roots([c3, c2, c1, c0])
    scale = max(1.0, *(abs(float(r.real)) for r in roots))
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * scale)
    if selector == "middle_real":
        if len(real) != 3:
            raise ValueError("middle_real requires three real roots")
        x = real[1]
    elif selector == "smallest_real":
        x = real[0]
    else:
        raise ValueError(f"unknown root selector {selector!r}")
    for _ in range(8):
        p = ((c3 * x + c2) * x + c1) * x + c0
        dp = (3 * c3 * x + 2 * c2) * x + c1
        if dp == 0:
            break
        x -= p / dp
    return x


def _residual(c3, c2, c1, c0, x) -> float:
    return abs(((c3 * x + c2) * x + c1) * x + c0)


@dataclass(frozen=True)
class AsymptoticTarget:
    name: str
    value: float
    definition: str
    cubic: tuple[int, int, int, int] | None = None

    def residual(self) -> float | None:
        if self.cubic is None:
            return None
        return _residual(*self.cubic, self.value)


def _cubic_target(name, coeffs, selector, definition) -> AsymptoticTarget:
    value = cubic_root(*coeffs, selector)
    assert _residual(*coeffs, value) < 1e-12
    return AsymptoticTarget(name, value, definition, cubic=coeffs)


TARGETS: dict[str, AsymptoticTarget] = {
    t.name: t
    for t in [
        AsymptoticTarget("mseq-adf", 1 / 3, "limiting ADF of m-sequences at natural length"),
        _cubic_target(
            "mseq-appended-adf", (3, -33, 33, -7), "smallest_real",
            "limiting ADF of appended m-sequences; smallest real root of 3x^3-33x^2+33x-7",
        ),
        _cubic_target(
            "mseq-append-ratio", (1, 0, -12, 12), "middle_real",
            "optimal append ratio for m-sequences; middle root of x^3-12x+12",
        ),
        AsymptoticTarget("legendre-shifted-adf", 1 / 6, "limiting ADF of best-shift Legendre sequences"),
        _cubic_target(
            "legendre-appended-adf", (27, -417, 249, -29), "smallest_real",
            "limiting ADF of shifted+appended Legendre; smallest real root of 27x^3-417x^2+249x-29",
        ),
        _cubic_target(
            "legendre-append-ratio", (4, 0, -30, 27), "middle_real",
            "optimal append ratio for shifted Legendre; middle root of 4x^3-30x+27",
        ),
        AsymptoticTarget("random-adf", 1.0, "large-length limit of E[ADF] = 1 - 1/l for random sequences"),
        AsymptoticTarget("random-cdf", 1.0, "E[CDF] = 1 for random pairs of any length"),
        AsymptoticTarget("psc-typical-mseq", 4 / 3, "limiting PSC of typical m-sequence pairs"),
        AsymptoticTarget("psc-reversing-mseq", 7 / 6, "limiting PSC of best-shift reversing m-sequence pairs"),
        AsymptoticTarget("cdf-reversing-mseq", 5 / 6, "limiting CDF of best-shift reversing m-sequence pairs"),
        AsymptoticTarget("psc-half-legendre", 7 / 6, "limiting PSC of half-Legendre pairs"),
        AsymptoticTarget("demerit-half-legendre", 7 / 12, "limiting ADF and CDF of half-Legendre pairs"),
        AsymptoticTarget("psc-quartic", 7 / 6, "limiting PSC of shifted quartic cyclotomic pairs"),
        AsymptoticTarget("psc-legendre-quartic", 7 / 6, "limiting PSC of shifted Legendre + quartic pairs"),
        AsymptoticTarget("psc-rsl-best", 331 / 300, "best known limiting PSC over sign-recursion seed pairs"),
        AsymptoticTarget("psc-golay", 1.0, "PSC of every Golay complementary pair"),
    ]
}


def lookup_target(text: str) -> AsymptoticTarget:
    """A registry name, or a finite number for ad hoc targets."""
    if text in TARGETS:
        return TARGETS[text]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unknown target {text!r}; known: {', '.join(sorted(TARGETS))}") from None
    if not np.isfinite(value):
        raise ValueError(f"target {text} must be a finite number")
    return AsymptoticTarget(text, value, "user-supplied constant")


# ---------------------------------------------------------------------------
# Exact all-shift engines


# OpenBLAS spreads a ddot of more than 10000 terms over several threads, and
# waking them between two walk steps costs more than the product: on two
# cores the ADF of every shift of the Legendre sequence p = 16381 at
# m = 10156 takes 0.41 s with one ddot per step and 0.096 s in pieces.
# Splitting every vector made the shift_search benchmark (m < 10000) 8%
# slower, and np.einsum, which has no threads, 33% slower.
_DOT_PIECE = 10000


def _dot_with(a: np.ndarray) -> Callable[[np.ndarray], float]:
    """The function b -> a . b for float64 vectors of a's length, as ddot
    calls of at most _DOT_PIECE terms.  The bound method a.dot, returned for
    short vectors, skips both the dispatch of a @ b (0.3-0.7 us a call) and
    a Python call around it at every step of a walk."""
    if len(a) <= _DOT_PIECE:
        return a.dot
    cuts = range(0, len(a), _DOT_PIECE)
    return lambda b: sum(a[i : i + _DOT_PIECE].dot(b[i : i + _DOT_PIECE]) for i in cuts)


class _Walk(NamedTuple):
    """A rotation walk of f over windows of length m (see _rotation_walk):
    w is the one vector that every step updates and vectors yields."""

    w: np.ndarray
    vectors: Iterator[np.ndarray]


def _rotation_walk(arr: np.ndarray, m: int, start: int = 0) -> _Walk:
    """The rotation walk of f over windows of length m, from rotation start.

    vectors yields, for r = start, start+1, .., start+l-1 (mod l), the
    float64 vector w_r = C_r(1), .., C_r(m-1) of exact integers, C_r being
    the aperiodic autocorrelation of resize(cyclic_shift(f, r), m), so that
    2 sum_s C^f_r(s) C^g_r(s) is twice w^f_r . w^g_r.  A caller may stop
    taking vectors early; no step runs ahead of the vector it yields.

    With x = resize(cyclic_shift(f, start), l+m), step j of the walk is the
    window x[j : j+m].  Moving to j+1 drops x[j] and appends x[j+m], so
    every C(s) gains x[j+m] x[j+m-s] - x[j] x[j+s]: one in-place add or
    subtract of a row of x reversed and one of a row of x, the rows and
    which of add or subtract each step takes being set before the first
    step.  The first vector comes from corr._corr.  The same array w is
    yielded each time and updated in place; copy it to keep it.
    """
    ell = len(arr)
    n, k = ell + m, m - 1
    x = np.resize(np.asarray(arr, dtype=np.int64), start + n)[start:]
    first = x[:m]
    w = corr._corr(first, first)[m:].astype(np.float64)
    up = (x > 0).astype(np.intp)
    x = x.astype(np.float64)
    xr = x[::-1].copy()  # contiguous, so the adds stay vectorised
    # Row j of gained is xr[l-j : l-j+k], x reversed from x[j+m-1]; row j
    # of dropped is x[j+1 : j+1+k].  Step j adds x[j+m] times the first and
    # subtracts x[j] times the second.
    gained = as_strided(xr, (ell + 1, k), (xr.itemsize,) * 2, writeable=False)[ell:1:-1]
    dropped = as_strided(x, (ell, k), (x.itemsize,) * 2, writeable=False)[1:]
    subtract_add = np.array([np.subtract, np.add], dtype=object)
    gain, drop = subtract_add[up[m : n - 1]], subtract_add[1 - up[: ell - 1]]

    def vectors():
        yield w
        for gain_op, row_in, drop_op, row_out in zip(gain, gained, drop, dropped):
            gain_op(w, row_in, w)
            drop_op(w, row_out, w)
            yield w

    return _Walk(w, vectors())


def _reversal_centre(a: np.ndarray, b: np.ndarray) -> int | None:
    """A c with a[(c - i) mod l] = eps b[i] for every i and one eps = +-1,
    or None: b is eps times a reversed about c.  With b = a,
    cyclic_shift(a, c + 1) reversed is eps a.

    One bytes.find of b's reversed sign string in a's doubled one, linear
    in l, finds c for each eps, and np.array_equal on the terms confirms it.
    For b = a of odd length l there is an i with 2i = c (mod l), where
    eps = -1 would need a[i] = -a[i], so that case tries eps = 1 only.
    """
    a, b = np.asarray(a), np.asarray(b)
    ell = len(a)
    up = b > 0
    doubled = (a > 0).tobytes() * 2
    for eps in (1,) if b is a and ell % 2 else (1, -1):
        j = doubled.find((up if eps > 0 else ~up)[::-1].tobytes())
        if j >= 0:
            c = (j - 1) % ell
            if np.array_equal(np.roll(b[::-1], c + 1), eps * a):
                return c
    return None


def _arc(c: int | None, m: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(shifts, mirrors) for a walk over windows of length m: the walk
    starts at shifts[0] and takes shifts in order, and its numerator t
    belongs to shifts[t] and to mirrors[t].  Without a centre c these are
    every shift, each its own mirror.  With one, the windows at r and at
    sigma - r mirror, sigma = (c - m + 1) mod l, and the walk takes the
    l//2 + 1 shifts from the fixed point of r -> sigma - r (the first shift
    past it when there is none), whose mirrors are the rest."""
    if c is None:
        shifts = np.arange(ell)
        return shifts, shifts
    sigma = (c - m + 1) % ell
    if sigma % 2 and ell % 2:
        sigma += ell  # so that 2 start = sigma (mod l), l being odd
    shifts = ((sigma + 1) // 2 + np.arange(ell // 2 + 1)) % ell
    return shifts, (sigma - shifts) % ell


# A window of l < m < 2l terms of one sequence is read from periodic
# correlations and the walk of its windows of m - l terms when its own walk
# would take more rotations than this.  That saves l terms a rotation against
# one O(l log^2 l) pass, so the crossover is a number of rotations, nearly
# whatever l and m.  Medians of 21 calls alternating with the walk, two
# cores, resize=1.0578: walked in full at l = 1511 / 1723 / 2003, 1.07 /
# 0.93 / 0.93 of its time; mirrored, 1261 / 1501 / 2065 rotations
# (l = 2521 / 3001 / 4129), 1.02 / 0.96 / 0.83.
_WALK_ROTATIONS = 1500


def _numerators(seqs, m: int, pairs: tuple[tuple[int, int], ...]) -> list[np.ndarray]:
    """For each (i, j) in pairs, 2 sum_{s=1}^{m-1} C^i_r(s) C^j_r(s) for
    every rotation r, as int64, C^i_r being the autocorrelation of window r
    of seqs[i] (see _rotation_walk); seqs is one sequence or two of equal
    length.  At m = l they come from _periodic_numerators, and one
    sequence's at m > l from _appended_numerators when m >= 2l or its walk
    would take more than _WALK_ROTATIONS rotations.  Else, or if a wrap
    check fails at m < 2l, each sequence is walked once, in lockstep, one
    dot product per product a step (a pair's m is a shift-search length
    too).  When the last sequence is the first reversed about a centre
    (_reversal_centre), the walk takes the arc of l//2 + 1 rotations, and
    product (i, j) at rotation r is product (k - j, k - i) at the mirror of
    r, k = len(seqs) - 1; so (0, 1) and a lone sequence's (0, 0) mirror to
    themselves, and the partner (1, 1) of (0, 0) is taken too.
    """
    ell = len(seqs[0])
    budget.check("shift-search length", ell if len(seqs) == 1 else max(ell, m))
    budget.check("exact length", m)
    if m == ell and (got := _periodic_numerators(seqs, pairs)) is not None:
        return got
    c = _reversal_centre(seqs[0], seqs[-1])
    shifts, mirrors = _arc(c, m, ell)
    if (
        len(seqs) == 1
        and m > ell
        and (m >= 2 * ell or len(shifts) > _WALK_ROTATIONS)
        and (got := _appended_numerators(seqs[0], m - ell)) is not None
    ):
        return [got]
    k = len(seqs) - 1
    partner = {(i, j): (i, j) if c is None else (k - j, k - i) for i, j in pairs}
    taken = list(dict.fromkeys([*pairs, *partner.values()]))
    walks = [_rotation_walk(x, m, int(shifts[0])) for x in seqs]
    if len(walks) == 1:  # (0, 0) alone: a loop over products took 2-15% longer
        dots = map(_dot_with(walks[0].w), walks[0].vectors)
    else:
        products = [(_dot_with(walks[i].w), walks[j].w) for i, j in taken]
        dots = (dot(b) for _ in zip(*(walk.vectors for walk in walks)) for dot, b in products)
    count = len(shifts)
    cols = np.fromiter(dots, np.float64, count * len(taken)).reshape(count, len(taken)).T
    walked = {pair: 2 * col.astype(np.int64) for col, pair in zip(cols, taken)}
    out = []
    for pair in pairs:
        nums = np.empty(ell, dtype=np.int64)
        nums[mirrors] = walked[partner[pair]]
        nums[shifts] = walked[pair]
        out.append(nums)
    return out


def adf_numerators_all_shifts(arr: np.ndarray, m: int | None = None) -> np.ndarray:
    """ADF numerator (sum of squared off-peak correlations) of
    resize(cyclic_shift(f, r), m) for every shift r, as int64; divide by m^2
    (see _numerators).
    """
    if m is None:
        m = len(arr)
    if m < 1:
        raise ValueError(f"resized length {m} must be >= 1")
    return _numerators((arr,), m, ((0, 0),))[0]


def _cyclic(row: np.ndarray, ell: int) -> np.ndarray:
    """sum_t a[t] b[(k-t) mod l], k = 0 .. l-1, from the convolution a * b
    of a and b of at most l terms."""
    c = row[:ell].copy()
    c[: len(row) - ell] += row[ell:]
    return c


class _Parts(NamedTuple):
    """The periodic-correlation terms of one product (see _periodic_parts)."""

    n0: int
    rf: np.ndarray
    rg: np.ndarray
    p: np.ndarray
    q: np.ndarray
    tf: np.ndarray | None
    tg: np.ndarray | None


def _periodic_parts(seqs, pairs, tails: bool = False) -> list[_Parts]:
    """For each (i, j) in pairs, with x = seqs[i] and y = seqs[j] (see the
    module docstring), all int64 but n0: the numerator n0 at rotation 0,
    rf[a] = d^f_a . w^g_0, rg[a] = w^f_0 . d^g_a, p = P, q = Q and, given
    tails, the convolutions whose first l terms are the P parts of the
    triangle sums, tf[a] = sum_{j<a} y[j] P(j-a) and tg[a] = sum_{i<a} x[i]
    P(a-i), and whose cyclic sums are sum_{j != a} y[j] P(j-a) and
    sum_{i != a} x[i] P(a-i).  With V(s) = C_0(s) - C_0(l-s), so
    that w_0 = V(1 .. h) and V(-s) = -V(s), d^f_a . w^g_0 = 2 x[a]
    sum_{0<|s|<=h} x[a-s] V^g(s) = -2 x[a] sum_t x[t+a] V^g(t).

    Each term is a correlation or a convolution, so two rounds of
    corr._correlations give every pair's: the autocorrelations, P and Q of
    the sequences, then the terms of the V and P rows that the first round
    yields.  Row l - 1 + d of C_{a,b} is sum_t a[t+d] b[t], and row e of
    the convolution a * b is sum_t a[t] b[e-t].
    """
    x = np.asarray(seqs, dtype=np.int64)
    k, ell = x.shape

    # C_i from (i, i), P from (j, i), Q from the convolution (i, ~j)
    first = [*((i, i) for i in range(k)), *((j, i) for i, j in pairs), *((i, ~j) for i, j in pairs)]
    first = list(dict.fromkeys(first))
    # float64 rows: a stack of int64 rows transforms at half the speed
    got = dict(zip(first, corr._correlations(x.astype(np.float64), first)))
    autos = [got[i, i][ell - 1 :].copy() for i in range(k)]  # C(0 .. l-1)
    ps = [corr._periodic(got[j, i]) for i, j in pairs]
    qs = [_cyclic(got[i, ~j], ell) for i, j in pairs]
    del got
    # row k + i is [0, V_i(1), .., V_i(l-1)]; tails add the rows
    # [0, P(-1), P(-2), ..] for tf, convolved with y, and [0, P(1), P(2), ..]
    # for tg, with x
    second = [prod for i, j in pairs for prod in ((i, k + j), (j, k + i))]
    tail_prods, tail_ps = [], []
    for (i, j), p in zip(pairs, ps if tails else ()):
        tf = (j, ~(2 * k + len(tail_ps)))
        tail_ps.append(p[:0:-1])
        tg = tf  # when y is x, as P(-d) = P(d)
        if i != j:
            tg = (i, ~(2 * k + len(tail_ps)))
            tail_ps.append(p[1:])
        tail_prods.append((tf, tg))
        second += [tf, tg]
    rows = np.zeros((2 * k + len(tail_ps), ell))
    rows[:k] = x
    for i, c in enumerate(autos):
        rows[k + i, 1:] = c[1:] - c[:0:-1]
    for row, tail in zip(rows[2 * k :], tail_ps):
        row[1:] = tail
    second = list(dict.fromkeys(second))
    got = dict(zip(second, corr._correlations(rows, second)))
    parts = []
    for t, ((i, j), p, q) in enumerate(zip(pairs, ps, qs)):
        rf, rg = (-2 * x[a] * corr._periodic(got[a, k + b]) for a, b in ((i, j), (j, i)))
        tf, tg = (got[prod] for prod in tail_prods[t]) if tails else (None, None)
        parts.append(_Parts(2 * int(autos[i][1:] @ autos[j][1:]), rf, rg, p, q, tf, tg))
    return parts


# A level of _hankel_prefix_sums is one float64 einsum when its half-blocks
# h are at most the first of these or its products at most the second, else
# one batched FFT.  Direct vs FFT on two cores, padded length n: n = 1024,
# h = 256 / 512 (2^17 / 2^18 products), 61 vs 78 / 122 vs 77 us; n = 4096,
# h = 128 / 256, 128 vs 152 / 250 vs 164 us; n = 16384, h = 64 / 128, 282 vs
# 454 / 505 vs 433 us.
_HANKEL_DIRECT_HALF, _HANKEL_DIRECT_WORK = 64, 1 << 17


def _hankel_prefix_sums(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S[k, a] = sum_{j<a} w[k, j] q[k, (a + j) mod l] for each row k of
    the int64 arrays w (k x L) and q (k x l), L >= l, and a = 0 .. L-1,
    int64.

    The length is padded to a power of two n.  Each (j, a), j < a, lies in
    one 2h-block with j in its lower half and a in its upper half, for one
    h; so level h adds to a = b0 + h + u the correlation sum_{v<h} w[b0+v]
    q[2 b0 + h + u + v] of the lower half of the block at b0 with a window
    of q, for the blocks whose upper half starts below l, by one einsum over
    a strided Hankel view of q or by FFTs of all blocks at once.  An FFT
    level's circular correlation of each lower half with its 2h-window must
    pass corr._exact, its sum being (sum of the half)(sum of the window),
    or the level is taken by the einsum.
    """
    from numpy import fft  # loaded on first use, as in corr

    rows, ell = w.shape
    n = 1 << (ell - 1).bit_length()
    wp = np.zeros((rows, n))
    wp[:, :ell] = w
    qe = np.ascontiguousarray(q[:, np.arange(3 * n) % q.shape[1]], dtype=np.float64)
    # hankel[k, i, v] = qe[k, i + v]; its rows from h on, taken 4h at a time,
    # are the blocks' windows
    hankel = as_strided(qe, (rows, 5 * n // 2, n // 2), (qe.strides[0], qe.itemsize, qe.itemsize), writeable=False)
    out = np.zeros((rows, n))  # exact: every sum is an integer below l^2
    h = 1
    while h < n:
        blocks = (ell + h - 1) // (2 * h)
        span = h if blocks > 1 else min(h, ell - h)  # the a of each upper half that count
        lower = wp.reshape(rows, -1, 2 * h)[:, :blocks, :h]
        upper = out.reshape(rows, -1, 2 * h)[:, :blocks, h : h + span]
        rows_q = slice(h, h + 4 * h * blocks)
        sums = None
        if h > _HANKEL_DIRECT_HALF and blocks * span * h > _HANKEL_DIRECT_WORK:
            window = qe[:, rows_q].reshape(rows, blocks, 4 * h)[..., : 2 * h]
            prod = fft.rfft(lower, 2 * h)
            np.conjugate(prod, out=prod)
            prod *= fft.rfft(window)
            # exact in int64: float64 sums of integers below 2^53
            expect = lower.sum(axis=-1).astype(np.int64) * window.sum(axis=-1).astype(np.int64)
            circ = fft.irfft(prod, 2 * h)
            del prod
            sums = corr._exact(circ, expect)
        if sums is None:
            windows = hankel[:, rows_q].reshape(rows, blocks, 4 * h, -1)[:, :, :span, :h]
            sums = np.einsum("kbuv,kbv->kbu", windows, lower)
        upper += sums[..., :span]
        h *= 2
    return out[:, :ell].astype(np.int64)


def _periodic_numerators(seqs, pairs) -> list[np.ndarray] | None:
    """The numerators of _numerators at m = l, for each (i, j) in pairs and
    every rotation a of seqs[i] and seqs[j], from periodic correlations in
    O(l log^2 l) (see the module docstring); None unless the steps of each
    product sum to 0 over a period.
    """
    parts = _periodic_parts(seqs, pairs, tails=True)
    x = np.asarray(seqs, dtype=np.int64)
    ell = x.shape[1]
    # the Hankel sums of each pair, over y and, unless y is x, over x
    over = [(a, part.q) for (i, j), part in zip(pairs, parts) for a in dict.fromkeys((j, i))]
    sums = iter(_hankel_prefix_sums(x[[a for a, _ in over]], np.array([q for _, q in over])))
    out = []
    for (i, j), part in zip(pairs, parts):
        # t_f[a] = sum_{j<a} d^f_a . d^g_j = 4 x[a] sum_{j<a} y[j] (P(j-a) - Q(a+j)),
        # t_g[a] = sum_{i<a} d^f_i . d^g_a likewise
        t_f = 4 * x[i] * (part.tf[:ell] - next(sums))
        t_g = t_f if i == j else 4 * x[j] * (part.tg[:ell] - next(sums))
        steps = part.rf + part.rg + t_f + t_g + 4 * x[i] * x[j] * (part.p[0] - part.q[2 * np.arange(ell) % ell])
        if (nums := _summed(part.n0, steps)) is None:
            return None
        out.append(nums)
    return out


def _summed(first: int, steps: np.ndarray) -> np.ndarray | None:
    """first, then first plus each partial sum of steps, at every rotation;
    None unless the steps sum to 0 over a period, rotation l being rotation
    0."""
    if steps.sum() != 0:
        return None
    out = np.empty(len(steps), dtype=np.int64)
    out[0] = first
    np.cumsum(steps[:-1], out=out[1:])
    out[1:] += first
    return out


def _appended_numerators(arr: np.ndarray, extra: int) -> np.ndarray | None:
    """The numerators of _numerators for one sequence and windows of m = l
    + extra terms, extra > 0, at every rotation: U from steps, N_e from the
    walk and the block terms (see the module docstring).  If the steps do
    not sum to 0 over a period, None at m < 2l, else U from the m0 walk."""
    (part,) = _periodic_parts((arr,), ((0, 0),), tails=True)
    x = np.asarray(arr, dtype=np.int64)
    ell = len(x)
    q, e = divmod(extra, ell)
    tf = part.tf
    # the Hankel rows S+(r+e) = sum_{j<r+e} x[j mod l] Q(r+j) and S-(r) = sum_{j<r} x[j] Q(r+e+j)
    s_plus = _hankel_prefix_sums(np.resize(x, ell + e)[None], np.roll(part.q, e)[None])[0, e:]
    s_minus = _hankel_prefix_sums(x[None], np.roll(part.q, -e)[None])[0] if e else s_plus.copy()
    r = np.arange(ell)
    xe = x[(r + e) % ell]  # x[r+e]
    fold = _cyclic(tf, ell)  # sum_{a != c} x[a] PA(c-a)
    s_plus -= tf[:ell]
    s_minus -= np.concatenate((tf[e:ell], fold[:e] + ell * x[:e] + tf[:e]))  # T(r+e)
    z = x * fold
    j = z + part.rf // 2
    steps = np.roll(j, -e) - j
    steps += part.rf + 2 * ell
    steps -= 2 * (x * s_plus + xe * s_minus + x * xe * part.q[(2 * r + e) % ell])
    steps *= 2
    b0 = corr._corr(x[:e], x[:e])[e:] if e else x[:0]  # B_0(1 .. e-1)
    u = _summed(part.n0 + 2 * int(j[:e].sum()) + 2 * e * ell + 4 * int(part.p[1:e] @ b0), steps)
    if u is None and q == 0:
        return None
    n_e = _numerators((x,), e, ((0, 0),))[0] if e else 0
    if u is None:  # the m0-term search fails the same check, and walks
        u = _numerators((x,), ell + e, ((0, 0),))[0] - n_e
    sums = np.concatenate(([0], np.cumsum(np.resize(z, ell + e))))
    w = sums[e : ell + e] - sums[:ell]  # sum_{k<e} z[r+k]
    s, blocks = int(part.p[1:] @ part.p[1:]), q * (q + 1)
    return (q + 1) * u + n_e + blocks * (s + 2 * e * ell + 2 * w) + blocks * (2 * q + 1) // 3 * (s + ell * ell)


def _pair_grid(af: np.ndarray, ag: np.ndarray) -> np.ndarray:
    """CDF numerators of (cyclic_shift(f, rf), cyclic_shift(g, rg)) over
    the full (rf, rg) grid, float64; divide by l^2.  Entry (a, b) is
    l^2 + 2 sum_s C^f_a(s) C^g_b(s), summed in place from its second
    differences d^f_a . d^g_b (see the module docstring).  Its caller has
    checked that af and ag have one length, at most _GRID_LENGTH."""
    ell = len(af)
    (part,) = _periodic_parts((af, ag), ((0, 1),))
    grid = np.empty((ell, ell))
    inner = grid[1:, 1:]
    pp, qq = (np.concatenate((v, v)).astype(np.float64) for v in (part.p, part.q))
    # row i of the first view is P(j - i), of the second Q(i + j), j < l-1
    circulant = as_strided(pp[ell:], (ell - 1, ell - 1), (-pp.itemsize, pp.itemsize), writeable=False)
    hankel = as_strided(qq, (ell - 1, ell - 1), (qq.itemsize,) * 2, writeable=False)
    np.subtract(circulant, hankel, out=inner)
    inner *= 4.0 * af[:-1, None]
    inner *= ag[:-1]
    grid[0, 0] = ell * ell + part.n0
    grid[1:, 0], grid[0, 1:] = part.rf[:-1], part.rg[:-1]
    np.cumsum(grid, axis=0, out=grid)
    np.cumsum(grid, axis=1, out=grid)
    return grid


def _first_minimum(cdf: np.ndarray, adf_f: np.ndarray | None = None, adf_g: np.ndarray | None = None) -> int:
    """Flat index of the first minimum of the CDF numerators cdf or, given
    ADF numerators, of sqrt(adf_f adf_g) + cdf (l^2 PSC; a column adf_f and
    a row adf_g score the grid).  Every shift search breaks its ties here."""
    score = cdf
    if adf_f is not None:
        score = np.multiply(adf_f, adf_g, dtype=np.float64)
        np.sqrt(score, out=score)
        score += cdf
    return int(np.argmin(score))


# ---------------------------------------------------------------------------
# Shift searches

_GRID_LENGTH = 512  # best_pair_shifts' longest full (rf, rg) grid: l x l float64, entries < l^3 <= 2^27 < 2^53


def best_shift(
    f: BinarySequence, objective: str = "adf", resize_len: int | None = None
) -> tuple[int, Fraction]:
    """Cyclic shift minimizing the ADF (of the resized sequence when
    resize_len is given); ties break to the smallest shift index."""
    if objective != "adf":
        raise ValueError("single-sequence shift search minimizes adf only")
    m = resize_len if resize_len is not None else len(f)
    nums = adf_numerators_all_shifts(f.terms, m)
    r = _first_minimum(nums)
    return r, Fraction(int(nums[r]), m * m)


def best_pair_shifts(f: BinarySequence, g: BinarySequence, objective: str = "cdf") -> tuple[int, int]:
    """Shift pair (rf, rg) minimizing cdf or psc.

    Lengths up to _GRID_LENGTH search the full (rf, rg) grid; longer
    sequences use the equal-shift diagonal heuristic.  The PSC's ADF
    numerators, of every rotation of f and of g, are taken only for that
    objective.  Ties break to the first (smallest rf, then rg) candidate.
    """
    if len(f) != len(g):
        raise ValueError("pair shift search requires equal lengths")
    if objective not in ("cdf", "psc"):
        raise ValueError("pair objective must be cdf or psc")
    ell = len(f)
    af, ag = f.terms, g.terms
    if ell <= _GRID_LENGTH:
        cdf = _pair_grid(af, ag)
        if objective == "cdf":
            return divmod(_first_minimum(cdf), ell)
        adf_f, adf_g = _numerators((af, ag), ell, ((0, 0), (1, 1)))
        return divmod(_first_minimum(cdf, adf_f[:, None], adf_g), ell)
    pairs = ((0, 1), (0, 0), (1, 1)) if objective == "psc" else ((0, 1),)
    cross, *adfs = _numerators((af, ag), ell, pairs)
    r = _first_minimum(ell * ell + cross, *adfs)
    return r, r


def realize(spec: FamilySpec) -> tuple[BinarySequence, int]:
    """Build the sequence for a family spec, searching when shift='best'.

    Returns (sequence, shift actually used).
    """
    return _realize(spec, families.realized_length(spec))


def _realize(spec: FamilySpec, m: int) -> tuple[BinarySequence, int]:
    """realize(spec) for m = families.realized_length(spec), which has checked it."""
    base = families.build_base(spec)
    if spec.shift == "best":
        r, _ = best_shift(base, "adf", resize_len=m)
    else:
        r = int(spec.shift) % len(base)
    return resize(cyclic_shift(base, r), m), r


# ---------------------------------------------------------------------------
# Rows, sweeps, reports


@dataclass(frozen=True)
class SweepRow:
    family: str
    length: int
    params: str
    adf_f: float | None = None
    adf_g: float | None = None
    cdf: float | None = None
    psc: float | None = None
    target: float | None = None
    abs_err: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([{c: getattr(r, c) for c in CSV_COLUMNS} for r in rows], indent=2) + "\n"


def convergence_sweep(spec: FamilySpec, sizes, target: AsymptoticTarget | None) -> list[SweepRow]:
    """One row per size: realize the family, measure ADF, compare to target.
    Every size is checked against every budget before the first one runs,
    and each distinct size is realized once: a repeated size repeats its
    row."""
    if not sizes:
        raise ValueError("sizes must list at least one size")
    checked = []
    for size in sizes:
        spec_i = replace(spec, size=size)
        m = families.realized_length(spec_i)
        budget.check("exact length", m)
        checked.append((spec_i, m))
    budget.check("list length", sum(m for _, m in checked))
    rows: dict[FamilySpec, SweepRow] = {}
    for spec_i, m in checked:
        if spec_i in rows:
            continue
        seq, shift_used = _realize(spec_i, m)
        a = float(corr.adf(seq))
        params = f"size={spec_i.size} shift={shift_used}"
        if spec.resize_ratio is not None:
            params += f" resize={spec.resize_ratio:g}"
        rows[spec_i] = SweepRow(
            family=spec.kind,
            length=len(seq),
            params=params,
            adf_f=a,
            target=None if target is None else target.value,
            abs_err=None if target is None else abs(a - target.value),
        )
    return [rows[spec_i] for spec_i, _ in checked]


# Trials per block of the Monte Carlo baseline are this many work units
# (see budget) over the units of one trial, and at least one.
_BASELINE_BLOCK = 1 << 16


def monte_carlo_baseline(length: int, trials: int, rng_seed: int) -> tuple[Fraction, Fraction]:
    """Sample means of ADF(f) and CDF(f, g) over trials independent uniform
    random pairs (f, g) of the given length, as exact Fractions.

    Trial t takes f from draw 2t and g from draw 2t+1 of the run seeded
    rng_seed, so any partitioning of the trial range reproduces the same
    means.  Trials run in blocks: one draw and one corr._correlations call
    for C_ff and C_fg per block, so each f is transformed once.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    budget.check("exact length", length)
    budget.check("baseline work", trials * max(length, 64))
    per_block = max(1, _BASELINE_BLOCK // max(length, 64))
    adf_num = -trials * length * length
    cdf_num = 0
    for t in range(0, trials, per_block):
        rows = random_rows(rng_seed, 2 * t, 2 * min(per_block, trials - t), length)
        fg = rows.reshape(-1, 2, length).swapaxes(0, 1)  # the stack of f, then of g
        c = corr._correlations(fg, [(0, 0), (0, 1)])
        adf_sq, cdf_sq = np.einsum("tij,tij->ti", c, c).tolist()
        adf_num += sum(adf_sq)
        cdf_num += sum(cdf_sq)
    denom = trials * length * length
    return Fraction(adf_num, denom), Fraction(cdf_num, denom)


def _pair_row(name, params, f, g, target: float) -> SweepRow:
    rep = corr.psc(f, g)
    return SweepRow(
        family=name,
        length=len(f),
        params=params,
        adf_f=float(rep.adf_f),
        adf_g=float(rep.adf_g),
        cdf=float(rep.cdf),
        psc=rep.psc,
        target=target,
        abs_err=abs(rep.psc - target),
    )


def _half_legendre(p):
    """The half-Legendre pair at the shift minimizing its PSC (first on ties).

    At shift r the halves are the length-half windows of the Legendre
    sequence starting at r and at r + half, so one _numerators pass over
    the sequence and its rotation by half gives every ADF numerator of the
    first half and every CDF numerator; the second half's ADF numerators
    are the first's, rotated by half.
    """
    budget.check("shift-search length", p)
    arr = families.legendre(p).terms
    half = (p - 1) // 2
    adf_a, cross = _numerators((arr, np.roll(arr, -half)), half, ((0, 0), (0, 1)))
    r = _first_minimum(half * half + cross, adf_a, np.roll(adf_a, -half))
    yield f"p={p} shift={r}", *families.half_legendre_pair(p, r)


def _golay(lengths):
    if not lengths:
        raise ValueError("lengths must list at least one length")
    for ell in lengths:
        golay.check_composable(ell)
    budget.check("list length", sum(lengths))
    first: dict[int, int] = {}
    for t, ell in enumerate(lengths):
        if ell in first:
            yield first[ell]
        else:
            first[ell] = t
            pair = golay.compose_to_length(ell)
            yield "composed", pair.a, pair.b


def _typical_mseq(n, d):
    ctx = families.make_binary_field(n)
    ell = ctx.order
    budget.check("exact length", ell)
    pows = families.power_of_two_residues(ell)
    if d % ell in pows or (-d) % ell in pows:
        raise ValueError(f"typical construction requires |d| not a power of 2 mod {ell}")
    yield f"n={n} d={d} shifts=0/0", *families.msequence_pair(ctx, d)


def _reversing_mseq(n, k=0):
    """The m-sequence f and its decimation by d = -2^k, at the best CDF
    shifts.  Decimation by 2 fixes the trace-form m-sequence, Tr(x^2) =
    Tr(x), so decimation by -2^k is decimation by -1 for every k: the pair,
    g[i] = f[-i], is a swap pair (see the module docstring), and k changes
    only the d text of the row."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ctx = families.make_binary_field(n)
    budget.check("shift-search length", ctx.order)
    f0, g0 = families.msequence_pair(ctx, -pow(2, k, ctx.order) % ctx.order)
    rf, rg = best_pair_shifts(f0, g0, "cdf")
    yield f"n={n} d=-2^{k} shifts={rf}/{rg}", cyclic_shift(f0, rf), cyclic_shift(g0, rg)


def _quartic_pair(p):
    budget.check("shift-search length", p)
    ctx = families.make_prime_field(p)
    f0, g0 = families.quartic_f(ctx), families.quartic_g(ctx)
    rf, rg = best_pair_shifts(f0, g0, "psc")
    yield f"p={p} shifts={rf}/{rg}", cyclic_shift(f0, rf), cyclic_shift(g0, rg)


def _legendre_plus_quartic(p):
    budget.check("shift-search length", p)
    ctx = families.make_prime_field(p)
    hf, qf = families.legendre(p), families.quartic_f(ctx)
    rf, rg = map(_first_minimum, _numerators((hf.terms, qf.terms), p, ((0, 0), (1, 1))))
    yield f"p={p} shifts={rf}/{rg}", cyclic_shift(hf, rf), cyclic_shift(qf, rg)


def _rsl_pair(seed_f, seed_g, signs, depth):
    if len(seed_f) != len(seed_g):
        raise ValueError("seed lengths must match")
    f, g = (golay.rsl_stem(seed, signs, depth) for seed in (seed_f, seed_g))
    yield f"seed_len={len(seed_f)} depth={depth}", f, g


# Pair constructions: name -> (builder, TARGETS name of the limiting PSC).
# A builder's signature is the one list of its parameters and defaults; it
# yields (params text, f, g) for each pair it reports, golay one per length,
# or the index of an earlier pair whose row repeats (a repeated length).
PAIR_CONSTRUCTIONS = {
    "typical_mseq": (_typical_mseq, "psc-typical-mseq"),
    "reversing_mseq": (_reversing_mseq, "psc-reversing-mseq"),
    "half_legendre": (_half_legendre, "psc-half-legendre"),
    "quartic_pair": (_quartic_pair, "psc-quartic"),
    "legendre_plus_quartic": (_legendre_plus_quartic, "psc-legendre-quartic"),
    "rsl_pair": (_rsl_pair, "psc-rsl-best"),
    "golay": (_golay, "psc-golay"),
}


def report_pairs(construction: str, **params) -> list[SweepRow]:
    """Build a pair construction, search shifts where required, and report
    measured demerit factors against the construction's asymptotic PSC."""
    if construction not in PAIR_CONSTRUCTIONS:
        raise ValueError(f"unknown pair construction {construction!r}")
    build, target = PAIR_CONSTRUCTIONS[construction]
    try:
        inspect.signature(build).bind(**params)
    except TypeError as e:  # a missing or an unexpected parameter, named
        raise ValueError(f"construction {construction}: {e}") from None
    rows = []
    for built in build(**params):
        rows.append(rows[built] if isinstance(built, int) else _pair_row(construction, *built, TARGETS[target].value))
    return rows
