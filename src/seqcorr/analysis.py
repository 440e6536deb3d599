"""Sweeps, shift searches, Monte Carlo baselines, and asymptotic targets.

All demerit-factor numerators here are exact integers, returned as int64;
division by the squared length happens only at the edge (Fraction or
float).  The all-shift engines share one rotation walk over the windows
resize(cyclic_shift(f, r), m), r = 0 .. l-1: the off-peak autocorrelation
of the first window is taken from corr._corr and then updated in O(m) per
step to r + 1.  Every numerator is built from 2 sum_{s=1}^{m-1} C^f(s) C^g(s)
over two windows: an ADF numerator is that sum with g = f, and since
sum_s C_fg(s)^2 = sum_t C_ff(t) C_gg(t) a CDF numerator is m^2 plus it.
adf_numerators_all_shifts walks one sequence, one dot product per shift.
The pair searches use two private engines: the lockstep pass (two walks in
step, one dot product per requested product per shift) and the pair grid
(g's walk kept as rows, f's streamed, one matrix-vector product per shift
of f).  Every search takes its answer from _first_minimum.

A full-period window (m = l) is folded.  Its periodic autocorrelation
PC(s) = C(s) + C(l-s) is the same at every rotation (Hoholdt & Jensen use
this for the merit factor of Legendre sequences), so the walk carries only
v(s) = C(s) - C(l-s) for s = 1 .. h = (l-1)//2.  Pairing lag s with l-s,
where C = (PC + v)/2 and (PC - v)/2, and the middle lag l/2 of an even l,
where v = 0 and C = PC/2, gives

    2 sum_{s=1}^{l-1} C^f(s) C^g(s) = v^f . v^g + PC^f . PC^g / 2,

the last term one exact int64 constant per call (|PC(s)| <= l).  Other
windows (resize=, half-Legendre halves) carry C(1), .., C(m-1) and take
twice its dot product.  Size limits come from budget.

A sequence that is a rotation of its own reversal up to sign, that is
x[(c - i) mod l] = eps x[i] for every i and one eps = +-1, has mirrored
ADF numerators.  Reversing the window of length m at rotation r gives eps
times the window at rotation sigma - r, where sigma = (c - m + 1) mod l,
and the aperiodic autocorrelation does not change when a sequence is
reversed or negated, so N(r) = N((sigma - r) mod l) for every window
length: m < l, m = l (folded) and resize= windows.  The Legendre sequences
with p = 1 mod 4 are their own reversals (x[-i] = x[i]; Hoholdt & Jensen),
and so are the quartic sequences with p = 1 mod 8.  For such an input
adf_numerators_all_shifts walks the l//2 + 1 rotations from the fixed
point of r -> sigma - r (the first rotation past it when there is none)
and copies each numerator to its mirror.  This is exact: symmetry is
decided by comparing the integer terms, and the mirrored numerators are
the walked int64 values themselves.

The pair engines take the same rule to two sequences: _reversal_centre(f,
g) finds a c with g[i] = eps f[(c - i) mod l], and then the window of f at
r reversed is eps times g's at sigma - r.  Every numerator they form is
2 sum_s C^i_r(s) C^j_r(s) over the autocorrelations of two windows, which
do not change when a window is reversed or negated, so it mirrors in two
cases.  Without a swap, f and g are each a rotation of their own reversal
about one c, and C^f and C^g each mirror; the quartic pairs with p = 1
mod 8 are, both about c = 0.  With a swap, g is eps times f reversed about
c, and C^f at sigma - r is C^g at r and back: the cross product mirrors to
itself, and the ADF numerators of f to those of g.  The reversing
m-sequence pairs are swaps for every k: decimation by 2 fixes the
trace-form m-sequence, since Tr(x^2) = Tr(x), so decimation by -2^k is
decimation by -1, g[i] = f[-i].  So are the half-Legendre pairs with p = 1
mod 4, whose halves are windows of the Legendre sequence and of its
rotation by half, that rotation being the sequence reversed about
c = -half.  The lockstep pass walks the arc of l//2 + 1 rotations, and
under a swap also takes the partner of each ADF product asked for.  A row
of the pair grid depends on f's rotation only and a column on g's only,
through the folded vectors, which depend on C alone.  So the grid walks
the arc of each sequence that is its own reversal, about any centre, and
copies rows and columns to their mirrors; for a swap it walks f once and
takes g's vectors from f's.  Every engine still hands _first_minimum the
same arrays, value for value.

The walk and its dot products run in float64, where numpy uses SIMD and
BLAS (ddot, dgemv) and int64 gets plain loops.  They are exact because the
budgets keep every partial sum an integer below 2^53.  Unfolded, a walk
step adds +-1 to values |C(s)| <= m - s, and every partial sum of a product
of two such vectors is at most sum_s (m-s)^2 < m^3/3 in absolute value, so
an ADF numerator is at most 2m^3/3 < 2^46 for windows m <= 2^15
(shift-search window), and a diagonal dot product is below m^3 <= 2^42 for
m <= l <= 2^14 (shift-search length).  Folded, |v(s)| <= (l-s) + s = l, a
step adds +-2 so |v(s)| <= l + 2 between its two adds, and every partial
sum of a product of two folded vectors is at most h l^2 < l^3/2: below 2^41
for l <= 2^14 (shift-search length) and below 2^26 for l <= 512 (pair-grid
length), where a grid entry, l^2 plus the constant plus that product, is
below l^3 <= 2^27.  The grid is formed from matrix-vector products only: a
two-matrix product makes OpenBLAS allocate its gemm buffer, which costs
peak memory and gains nothing here.

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
# waking them between two walk steps costs more than the product.  A folded
# vector has at most 8191 terms within the shift-search length, so only
# unfolded windows of more than 10000 lags take the split, which means
# resize= windows.  On two cores the ADF of every shift of the Legendre
# sequence p = 16381 at resize=1.0578 (m = 17328) takes 1.3 s with one ddot
# per step and 0.30 s in pieces.  Shorter vectors skip the split, whose
# per-step Python cost made the shift_search benchmark (m < 10000) 8% slower
# when every vector took it; np.einsum, which has no threads, made it 33%
# slower.
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

    scale: int
    pc: np.ndarray
    w: np.ndarray
    vectors: Iterator[np.ndarray]

    def offset(self, other: _Walk) -> int:
        """pc^f . pc^g / 2, exact in int64 (|PC(s)| <= l)."""
        return int(self.pc @ other.pc) // 2

    def numerators(self, other: _Walk, dots: np.ndarray) -> np.ndarray:
        """2 sum_s C^f_r(s) C^g_r(s) as int64, from dots[r] = w^f_r . w^g_r."""
        return self.scale * dots.astype(np.int64) + self.offset(other)


def _rotation_walk(arr: np.ndarray, m: int, start: int = 0) -> _Walk:
    """The rotation walk of f over windows of length m, from rotation start.

    vectors yields, for r = start, start+1, .., start+l-1 (mod l), a float64
    vector w_r of exact integers such that, for the walks of two sequences
    of one length l and one m,

        2 sum_{s=1}^{m-1} C^f_r(s) C^g_r(s) = scale (w^f_r . w^g_r) + pc^f . pc^g / 2,

    C_r being the aperiodic autocorrelation of resize(cyclic_shift(f, r), m)
    (see the module docstring).  For m != l, w_r is C_r(1), .., C_r(m-1),
    scale is 2 and pc is empty.  For m = l the walk is folded: w_r(s) is
    C_r(s) - C_r(l-s) for s = 1 .. (l-1)//2, scale is 1 and pc is the int64
    periodic autocorrelation PC(1), .., PC(l-1), the same at every r.  A
    caller may stop taking vectors early; no step runs ahead of the vector
    it yields.

    With x = resize(cyclic_shift(f, start), l+m), step j of the walk is the
    window x[j : j+m].  Moving to j+1 drops x[j] and appends x[j+m], so
    every C(s) gains x[j+m] x[j+m-s] - x[j] x[j+s].  For m = l,
    x[j+l] = x[j], so C(l-s) gains minus what C(s) gains and w(s) gains
    twice it.  Either way a step is one in-place add or subtract of a row
    of x reversed and one of a row of x, with x doubled when folded; the
    rows and which of add or subtract each step takes are set before the
    first step.  The first vector comes from corr._corr.  The same array w
    is yielded each time and updated in place; copy it to keep it.
    """
    ell = len(arr)
    n = ell + m
    x = np.resize(np.asarray(arr, dtype=np.int64), start + n)[start:]
    c = corr._corr(x[:m], x[:m])[m:]
    up = (x > 0).astype(np.intp)
    if m == ell:
        k, scale, pc = (ell - 1) // 2, 1, c + c[::-1]
        w, x = c[:k] - c[::-1][:k], 2 * x
    else:
        k, scale, pc, w = m - 1, 2, c[:0], c
    w = w.astype(np.float64)
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

    return _Walk(scale, pc, w, vectors())


def _reversal_centre(a: np.ndarray, b: np.ndarray | None = None) -> int | None:
    """A c with a[(c - i) mod l] = eps b[i] for every i and one eps = +-1,
    b being a unless given; or None.  For one sequence, cyclic_shift(f,
    c + 1) reversed is eps f; for two, g is eps times f reversed about c.

    One bytes.find of b's reversed sign string in a's doubled one, linear
    in l, finds c for each eps, and np.array_equal on the terms confirms it.
    For one sequence of odd length l there is an i with 2i = c (mod l),
    where eps = -1 would need x[i] = -x[i], so that case tries eps = 1 only.
    """
    a = np.asarray(a)
    b = a if b is None else np.asarray(b)
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


def _lockstep_numerators(
    af: np.ndarray, ag: np.ndarray, m: int, pairs: tuple[tuple[int, int], ...]
) -> list[np.ndarray]:
    """For each (i, j) in pairs, where 0 stands for f and 1 for g,
    2 sum_{s=1}^{m-1} C^i_r(s) C^j_r(s) for every rotation r, as int64, C^f_r
    and C^g_r being the autocorrelations of window r of f and of g (see
    _rotation_walk).  f and g are walked once each, in lockstep, with one
    dot product per product taken a step.

    When the pair's windows mirror (see the module docstring) only the arc
    of l//2 + 1 rotations is walked.  Each product is copied to its mirror,
    (0, 1) as itself; under a swap (0, 0) mirrors to (1, 1) and back, so the
    partner of each ADF product asked for is taken too.
    """
    c, swap = _reversal_centre(af), False
    if c is None or c != _reversal_centre(ag):
        c = _reversal_centre(af, ag)
        swap = c is not None
    shifts, mirrors = _arc(c, m, len(af))
    partner = {(i, j): (1 - j, 1 - i) if swap else (i, j) for i, j in pairs}
    taken = list(dict.fromkeys([*pairs, *partner.values()]))
    start = int(shifts[0])
    walks = _rotation_walk(af, m, start), _rotation_walk(ag, m, start)
    products = [(_dot_with(walks[i].w), walks[j].w) for i, j in taken]
    steps = zip(walks[0].vectors, walks[1].vectors)
    count = len(shifts)
    dots = np.fromiter((dot(b) for _ in steps for dot, b in products), np.float64, count * len(taken))
    cols = dots.reshape(count, len(taken)).T
    walked = {(i, j): walks[i].numerators(walks[j], col) for col, (i, j) in zip(cols, taken)}
    out = []
    for pair in pairs:
        nums = np.empty(len(af), dtype=np.int64)
        nums[mirrors] = walked[partner[pair]]
        nums[shifts] = walked[pair]
        out.append(nums)
    return out


def adf_numerators_all_shifts(arr: np.ndarray, m: int | None = None) -> np.ndarray:
    """ADF numerator (sum of squared off-peak correlations) of
    resize(cyclic_shift(f, r), m) for every shift r, as int64; divide by m^2.

    Each numerator is scale w . w + pc . pc / 2 over the rotation walk's
    vector, O(m) per shift and half that for m = l, exact in float64 within
    the shift-search window budget (see the module docstring).  When f is a
    rotation of its own reversal, up to sign, the numerators are mirrored,
    N(r) = N(sigma - r), and only l//2 + 1 rotations are walked.
    """
    ell = len(arr)
    if m is None:
        m = ell
    if m < 1:
        raise ValueError(f"resized length {m} must be >= 1")
    budget.check("shift-search length", ell)
    budget.check("shift-search window", m)
    shifts, mirrors = _arc(_reversal_centre(arr), m, ell)
    # A single walk keeps its own loop: through _lockstep_numerators, whose
    # pair loop runs every step, this took 3-5% longer at l = 1000-2000.
    walk = _rotation_walk(arr, m, int(shifts[0]))
    walked = walk.numerators(walk, np.fromiter(map(_dot_with(walk.w), walk.vectors), np.float64, len(shifts)))
    nums = np.empty(ell, dtype=np.int64)
    nums[mirrors] = walked
    nums[shifts] = walked
    return nums


def _pair_grid(af: np.ndarray, ag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CDF numerators of (cyclic_shift(f, rf), cyclic_shift(g, rg)) over
    the full (rf, rg) grid and ADF numerators of every rotation of f and of
    g, all float64; divide by l^2.

    With g's folded walk kept as rows R_g (l x (l-1)//2), row rf of the
    grid is l^2 + pc_f . pc_g / 2 + R_g w^f_rf, one dgemv per step of f's
    walk, which is not kept.  Every entry is below l^3, exact in float64
    within the pair-grid budget.  Peak memory is 1.5 l^2 words: R_g and the
    grid.  Only psc reads the ADF numerators (the walks' squared norms), but
    at O(l^2) next to the grid's O(l^3 / 2) they are formed for every caller.

    A rotation's folded vector is its mirror's (see the module docstring).
    So for a g that is a rotation of its own reversal R_g holds the l//2 + 1
    rows of its arc, and each row of the grid is taken from R_g w^f_rf; for
    such an f only its arc is walked, and each row is copied to its mirror.
    For a swap pair g's vector at sigma - r is f's at r: f is walked once
    into R_g and g not at all.
    """
    ell = len(af)
    if len(ag) != ell:
        raise ValueError("pair shift grid requires equal lengths")
    budget.check("pair-grid length", ell)
    cf, cg = _reversal_centre(af), _reversal_centre(ag)
    c = _reversal_centre(af, ag) if cf is None and cg is None else None
    if c is None:
        (g_shifts, g_mirrors), (f_shifts, f_mirrors) = _arc(cg, ell, ell), _arc(cf, ell, ell)
        gw = _rotation_walk(ag, ell, int(g_shifts[0]))
        rows_g = np.empty((len(g_shifts), (ell - 1) // 2))
        for row, w in zip(rows_g, gw.vectors):
            row[:] = w
        fw = _rotation_walk(af, ell, int(f_shifts[0]))
        f_steps = zip(f_shifts.tolist(), f_mirrors.tolist(), fw.vectors)
    else:
        fw = gw = _rotation_walk(af, ell)  # pc_g = pc_f: g is f reversed
        rows_g = np.empty((ell, (ell - 1) // 2))
        g_of_f = (c + 1 - np.arange(ell)) % ell  # sigma - r, with m = l
        for rg, w in zip(g_of_f, fw.vectors):
            rows_g[rg] = w
        f_steps = ((rf, rf, rows_g[rg]) for rf, rg in enumerate(g_of_f.tolist()))
    col_g = None
    if cg is not None:  # column rg of the grid is row col_g[rg] of R_g
        col_g = np.empty(ell, dtype=np.intp)
        col_g[g_mirrors] = col_g[g_shifts] = np.arange(len(g_shifts))
    grid, adf_f = np.empty((ell, ell)), np.empty(ell)
    for rf, rf_mirror, w in f_steps:
        row = grid[rf]
        if col_g is None:
            np.dot(rows_g, w, out=row)
        else:
            np.take(rows_g @ w, col_g, out=row)
        if rf_mirror != rf:
            grid[rf_mirror] = row
        adf_f[rf] = adf_f[rf_mirror] = w.dot(w)
    grid += ell * ell + fw.offset(gw)
    adf_f += fw.offset(fw)
    adf_g = np.einsum("ij,ij->i", rows_g, rows_g) + gw.offset(gw)
    return grid, adf_f, adf_g if col_g is None else adf_g[col_g]


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

    Lengths within the pair-grid budget search the full (rf, rg) grid;
    longer sequences use the equal-shift diagonal heuristic.  Either way f
    and g are walked at most once each, over half their rotations when they
    mirror: the PSC's ADF numerators come from the grid's walks or from the
    diagonal's lockstep pass.  Ties break to the
    first (smallest rf, then rg) candidate.
    """
    if len(f) != len(g):
        raise ValueError("pair shift search requires equal lengths")
    if objective not in ("cdf", "psc"):
        raise ValueError("pair objective must be cdf or psc")
    ell = len(f)
    af, ag = f.terms, g.terms
    if ell <= budget.BUDGETS["pair-grid length"].limit:
        cdf, adf_f, adf_g = _pair_grid(af, ag)
        adfs = (adf_f[:, None], adf_g) if objective == "psc" else ()
        return divmod(_first_minimum(cdf, *adfs), ell)
    budget.check("shift-search length", ell)
    pairs = ((0, 1), (0, 0), (1, 1)) if objective == "psc" else ((0, 1),)
    cross, *adfs = _lockstep_numerators(af, ag, ell, pairs)
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
    Every size is checked against every budget before the first one runs."""
    if not sizes:
        raise ValueError("sizes must list at least one size")
    checked = []
    for size in sizes:
        spec_i = replace(spec, size=size)
        m = families.realized_length(spec_i)
        budget.check("exact length", m)
        checked.append((spec_i, m))
    rows = []
    for spec_i, m in checked:
        seq, shift_used = _realize(spec_i, m)
        a = float(corr.adf(seq))
        params = f"size={spec_i.size} shift={shift_used}"
        if spec.resize_ratio is not None:
            params += f" resize={spec.resize_ratio:g}"
        rows.append(
            SweepRow(
                family=spec.kind,
                length=len(seq),
                params=params,
                adf_f=a,
                target=None if target is None else target.value,
                abs_err=None if target is None else abs(a - target.value),
            )
        )
    return rows


# Trials per block of the Monte Carlo baseline are this many work units
# (see budget) over the units of one trial, and at least one.
_BASELINE_BLOCK = 1 << 16


def monte_carlo_baseline(length: int, trials: int, rng_seed: int) -> tuple[Fraction, Fraction]:
    """Sample means of ADF(f) and CDF(f, g) over trials independent uniform
    random pairs (f, g) of the given length, as exact Fractions.

    Trial t takes f from draw 2t and g from draw 2t+1 of the run seeded
    rng_seed, so any partitioning of the trial range reproduces the same
    means.  Trials run in blocks: one draw and two stacked correlations
    per block.
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
        f, g = rows[0::2], rows[1::2]
        cff = corr._corr(f, f)
        cfg = corr._corr(f, g)
        adf_num += sum(np.einsum("ij,ij->i", cff, cff).tolist())
        cdf_num += sum(np.einsum("ij,ij->i", cfg, cfg).tolist())
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
    sequence starting at r and at r + half, so one lockstep pass of the
    walks of the sequence and of its rotation by half gives every ADF
    numerator of the first half and every CDF numerator; the second half's
    ADF numerators are the first's, rotated by half.
    """
    budget.check("shift-search length", p)
    arr = families.legendre(p).terms
    half = (p - 1) // 2
    adf_a, cross = _lockstep_numerators(arr, np.roll(arr, -half), half, ((0, 0), (0, 1)))
    r = _first_minimum(half * half + cross, adf_a, np.roll(adf_a, -half))
    yield f"p={p} shift={r}", *families.half_legendre_pair(p, r)


def _golay(lengths):
    if not lengths:
        raise ValueError("lengths must list at least one length")
    for ell in lengths:
        golay.check_composable(ell)
    for pair in map(golay.compose_to_length, lengths):
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
    (rf, _), (rg, _) = best_shift(hf), best_shift(qf)
    yield f"p={p} shifts={rf}/{rg}", cyclic_shift(hf, rf), cyclic_shift(qf, rg)


def _rsl_pair(seed_f, seed_g, signs, depth):
    if len(seed_f) != len(seed_g):
        raise ValueError("seed lengths must match")
    f, g = (golay.rsl_stem(seed, signs, depth) for seed in (seed_f, seed_g))
    yield f"seed_len={len(seed_f)} depth={depth}", f, g


# Pair constructions: name -> (builder, TARGETS name of the limiting PSC).
# A builder's signature is the one list of its parameters and defaults; it
# yields (params text, f, g) for each pair it reports, golay one per length.
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
    return [_pair_row(construction, text, f, g, TARGETS[target].value) for text, f, g in build(**params)]
