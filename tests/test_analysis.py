import inspect
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcorr import (
    BinarySequence,
    adf,
    analysis,
    budget,
    cdf,
    cli,
    corr,
    cyclic_shift,
    families,
    golay,
    half_legendre_pair,
    legendre,
    psc,
    resize,
)
from seqcorr.analysis import (
    PAIR_CONSTRUCTIONS,
    TARGETS,
    _mix64,
    adf_numerators_all_shifts,
    best_pair_shifts,
    best_shift,
    convergence_sweep,
    cubic_root,
    lookup_target,
    monte_carlo_baseline,
    random_rows,
    realize,
    report_pairs,
    rows_to_csv,
    rows_to_json,
)
from seqcorr.families import parse_family
from seqcorr.sequence import parse_line

from oracles import (
    SplitMix64,
    oracle_adf,
    oracle_cdf,
    oracle_first_minimum,
    oracle_shift_numerators,
    random_sequence,
)
from test_golden_cli import CASES as GOLDEN_CASES


def diagonal_of(af, ag, m=None):
    """The CDF numerators m^2 + 2 sum_s C^f_r(s) C^g_r(s) of the windows
    of length m (l by default) of f and g at every equal shift r."""
    m = len(af) if m is None else m
    return m * m + analysis._numerators((af, ag), m, ((0, 1),))[0]


@pytest.fixture
def walk_counts(monkeypatch):
    """[window, rotations taken] of each rotation walk started, in order."""
    walks = []
    walk = analysis._rotation_walk

    def counted(arr, m, start=0):
        taken = [m, 0]
        walks.append(taken)
        inner = walk(arr, m, start)

        def vectors():
            for v in inner.vectors:
                taken[1] += 1
                yield v

        return inner._replace(vectors=vectors())

    monkeypatch.setattr(analysis, "_rotation_walk", counted)
    return walks


class TestSplitMix:
    def test_reference_vectors_seed_zero(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_mix_is_pure(self):
        z = np.array([12345, 1, 2, 0, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(_mix64(z), _mix64(z.copy()))
        assert _mix64(z).tolist() == [SplitMix64.mix(int(v)) for v in z]

    def test_draws_equal_the_generator(self):
        rng = random.Random(12)
        for _ in range(40):
            seed = rng.choice([rng.randrange(-(2**70), 0), rng.randrange(2**64, 2**80),
                               rng.randrange(2**64)])
            length = rng.randrange(1, 301)
            first = rng.randrange(2**40)
            count = rng.randrange(1, 4)
            rows = random_rows(seed, first, count, length)
            assert rows.dtype == np.int64 and rows.shape == (count, length)
            for i, row in enumerate(rows.tolist()):
                assert row == SplitMix64.draw(seed, first + i, length)

    def test_draws_distinct_and_stable(self):
        rows = random_rows(99, 0, 100, 64)
        assert len({r.tobytes() for r in rows}) == 100
        assert np.array_equal(rows, random_rows(99, 0, 100, 64))

    def test_draws_partition(self):
        whole = random_rows(-7, 0, 30, 150)
        parts = [random_rows(-7, a, b - a, 150) for a, b in ((0, 1), (1, 12), (12, 30))]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_draw_bit_convention(self):
        word = SplitMix64(SplitMix64.mix(SplitMix64.mix(0))).next_u64()
        row = random_rows(0, 0, 1, 70)[0]
        for j in range(64):
            assert row[j] == ((word >> j) & 1) * 2 - 1


class TestCubicRoots:
    @staticmethod
    def _bisect(c3, c2, c1, c0, lo, hi):
        """Exact-sign bisection oracle over the rationals."""
        p = lambda x: ((c3 * x + c2) * x + c1) * x + c0
        lo, hi = Fraction(lo), Fraction(hi)
        assert p(lo) * p(hi) < 0
        for _ in range(120):
            mid = (lo + hi) / 2
            if p(lo) * p(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)

    def test_shipped_roots_match_bisection(self):
        cases = [
            ((27, -417, 249, -29), "smallest_real", 0, Fraction(1, 5), "0.157"),
            ((4, 0, -30, 27), "middle_real", 1, Fraction(3, 2), "1.057"),
            ((1, 0, -12, 12), "middle_real", 1, Fraction(3, 2), "1.115"),
            ((3, -33, 33, -7), "smallest_real", 0, Fraction(1, 2), "0.299"),
        ]
        for coeffs, sel, lo, hi, prefix in cases:
            got = cubic_root(*coeffs, sel)
            assert got == pytest.approx(self._bisect(*coeffs, lo, hi), abs=1e-12)
            assert str(got).startswith(prefix)

    def test_selectors_on_split_cubic(self):
        # roots of x^3 - x are -1, 0, 1
        assert cubic_root(1, 0, -1, 0, "smallest_real") == pytest.approx(-1.0)
        assert cubic_root(1, 0, -1, 0, "middle_real") == pytest.approx(0.0, abs=1e-12)

    def test_middle_requires_three_real_roots(self):
        with pytest.raises(ValueError):
            cubic_root(1, 0, 1, 0, "middle_real")  # x^3 + x has one real root

    def test_validation(self):
        with pytest.raises(ValueError):
            cubic_root(0, 1, 1, 1, "smallest_real")
        with pytest.raises(ValueError):
            cubic_root(1, 0, -1, 0, "nope")

    def test_registry_residuals(self):
        for t in TARGETS.values():
            res = t.residual()
            if res is not None:
                assert res < 1e-12

    def test_lookup(self):
        assert lookup_target("psc-golay").value == 1.0
        assert lookup_target("0.25").value == 0.25
        with pytest.raises(ValueError):
            lookup_target("no-such-target")


class TestEngines:
    def test_adf_numerators_match_oracle(self):
        rng = random.Random(61)
        for _ in range(12):
            ell = rng.randrange(2, 13)
            f = random_sequence(rng, ell)
            for m in (ell, max(1, ell - 2), ell + 4, 2 * ell + 1):
                nums = adf_numerators_all_shifts(f.terms, m)
                for r in range(ell):
                    variant = resize(cyclic_shift(f, r), m)
                    assert Fraction(int(nums[r]), m * m) == oracle_adf(variant)

    def test_cdf_grid_matches_oracle(self):
        rng = random.Random(62)
        for _ in range(5):
            ell = rng.randrange(2, 11)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            grid = analysis._pair_grid(f.terms, g.terms)
            for rf in range(ell):
                for rg in range(ell):
                    expect = oracle_cdf(cyclic_shift(f, rf), cyclic_shift(g, rg))
                    assert Fraction(int(grid[rf, rg]), ell * ell) == expect

    def test_diagonal_matches_grid(self):
        rng = random.Random(63)
        for _ in range(6):
            ell = rng.randrange(2, 14)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            grid = analysis._pair_grid(f.terms, g.terms)
            diag = diagonal_of(f.terms, g.terms)
            assert np.array_equal(np.diag(grid), diag)

    def test_diagonal_window_matches_oracle(self):
        rng = random.Random(67)
        for _ in range(8):
            ell = rng.randrange(2, 13)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            # m = l + 1: an appended window, as _numerators takes any m
            for m in range(1, ell + 2):
                diag = diagonal_of(f.terms, g.terms, m)
                for r in range(ell):
                    expect = oracle_cdf(resize(cyclic_shift(f, r), m), resize(cyclic_shift(g, r), m))
                    assert Fraction(int(diag[r]), m * m) == expect

    def test_engine_input_validation(self):
        arr = np.ones(5, dtype=np.int64)
        for m in (0, -3):
            with pytest.raises(ValueError):
                adf_numerators_all_shifts(arr, m)
        # _numerators and _pair_grid trust their callers; best_pair_shifts
        # checks lengths, on the grid and above it
        longer = analysis._GRID_LENGTH + 1
        for ell_f, ell_g in ((5, 4), (longer, longer + 1), (longer, longer - 1)):
            with pytest.raises(ValueError, match="equal lengths"):
                best_pair_shifts(BinarySequence((1,) * ell_f), BinarySequence((1,) * ell_g))

    def test_walk_seeded_above_fft_crossover(self):
        m = corr._DIRECT_WORK + 1  # the first rotation is correlated on the FFT path
        ell = m - 50
        rng = random.Random(68)
        f = random_sequence(rng, ell)
        g = random_sequence(rng, ell)
        nums = adf_numerators_all_shifts(f.terms, m)
        diag = diagonal_of(f.terms, g.terms)
        for r in (0, 1, 2, ell // 2 - 1, ell - 2, ell - 1):
            fr, gr = cyclic_shift(f, r), cyclic_shift(g, r)
            assert Fraction(int(nums[r]), m * m) == adf(resize(fr, m))
            assert Fraction(int(diag[r]), ell * ell) == cdf(fr, gr)

    @pytest.mark.parametrize("p, m, rotations", [(16381, 10156, 8191), (10007, 10006, 10007)])  # mirrored, then not
    def test_walk_in_dot_pieces(self, p, m, rotations, walk_counts):
        assert m - 1 > analysis._DOT_PIECE  # m - 1 lags, more than one ddot piece at every step
        f = legendre(p)
        walk_counts.clear()
        nums = adf_numerators_all_shifts(f.terms, m)
        assert walk_counts == [[m, rotations]]  # m < l walks
        for r in (0, 1, p // 3, 2 * p // 3, p - 1, int(nums.argmin())):
            assert Fraction(int(nums[r]), m * m) == adf(resize(cyclic_shift(f, r), m))

    def test_engines_return_int64(self):
        rng = random.Random(70)
        f, g = random_sequence(rng, 9).terms, random_sequence(rng, 9).terms
        pairs = ((0, 1), (0, 0), (1, 1))
        for out in (adf_numerators_all_shifts(f, 12), *analysis._numerators((f, g), 9, pairs)):
            assert out.dtype == np.int64
        # the pair grid stays float64, every entry an exact integer
        grid = analysis._pair_grid(f, g)
        assert grid.dtype == np.float64 and np.array_equal(grid, grid.astype(np.int64))

    @pytest.mark.parametrize(
        "search, words",
        [
            # the grid, filled and summed in place; every other array is O(l)
            (lambda f, g: analysis._pair_grid(f.terms, g.terms), 1.5),
            # then the grid and the PSC's root term
            (lambda f, g: best_pair_shifts(f, g, "psc"), 2),
        ],
        ids=["grid", "psc_pair_search"],
    )
    def test_grid_peak_memory(self, search, words):
        # words: the peak in l^2 float64 words, for a random pair, a pair of
        # sequences that are their own reversals and a swap pair
        ell = analysis._GRID_LENGTH
        rng = random.Random(69)
        f, g = random_sequence(rng, ell), random_sequence(rng, ell)
        for f, g in ((f, g), (_mirror_of(f.terms, 1, 0), _mirror_of(g.terms, -1, 7)), (f, _swap_of(f.terms, 100, -1))):
            search(f, g)  # lazy imports and BLAS set-up are not the search's own memory
            tracemalloc.start()
            try:
                search(f, g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * words * ell * ell * 8

    def test_budgets(self):
        big = np.ones(1 << 15, dtype=np.int64)
        with pytest.raises(ValueError):
            adf_numerators_all_shifts(big)


def _pm1(min_size, max_size):
    return st.lists(st.sampled_from((1, -1)), min_size=min_size, max_size=max_size).map(
        lambda terms: BinarySequence(tuple(terms))
    )


# Full-period (m = l) examples, which the periodic engine reads: l = 1 .. 4,
# then an odd and an even l above the FFT crossover, which the engine's
# correlations of two or more products of l terms pass at l > 384 (for an
# even l its two middle terms cancel), and the largest odd and even
# pair-grid l.
_ODD, _ODD_G, _EVEN, _EVEN_G = (
    random_sequence(random.Random(71 + i), corr._DIRECT_WORK // 2 + 217 - i // 2) for i in range(4)
)
_GRID_ODD, _GRID_ODD_G, _GRID_EVEN, _GRID_EVEN_G = (
    random_sequence(random.Random(75 + i), analysis._GRID_LENGTH - 1 + i // 2) for i in range(4)
)


# Long inputs that are rotations of their own reversal: a rotated Legendre
# sequence with p = 1 mod 4 above the FFT crossover, whose ADF numerators
# at m = l come from the periodic engine and at m = l + 30 are walked on an
# arc of l//2 + 1 shifts and mirrored to the rest.
_MIRRORED = cyclic_shift(legendre(521), 100)


def _shifts(ell):
    """Every shift of a generated case.  Of a long example, whose oracle
    costs O(l^2) Python steps a shift: the first, the last, which carries
    every step of a walk from shift 0, and two a third of the period apart.
    Any l//2 - 1 consecutive shifts hold one of the four, so a mirrored
    input has checked shifts both on its walked arc and on its mirror."""
    return range(ell) if ell <= 24 else [0, ell // 3, 2 * ell // 3, ell - 1]


def _mirror_of(terms, eps, c):
    """terms made to satisfy x[(c - i) mod l] = eps x[i] for every i, which
    for eps = -1 needs no i with 2i = c (mod l): an even l and an odd c."""
    x = list(terms)
    for i in range(len(x)):
        x[(c - i) % len(x)] = eps * x[i]
    return BinarySequence(tuple(x))


def _mirrored(n):
    """Sequences of length n that are rotations of their own reversal, up
    to sign: eps = +1 about any centre, and eps = -1 for an even n."""
    centres = st.tuples(st.just(1), st.integers(0, n - 1))
    if n % 2 == 0:
        centres |= st.tuples(st.just(-1), st.integers(0, n // 2 - 1).map(lambda k: 2 * k + 1))
    return st.tuples(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), centres).map(
        lambda tc: _mirror_of(tc[0], *tc[1]))


class TestEngineProperties:
    """The all-shift engines against the brute-force oracles, on the
    materialised resize(cyclic_shift(...)) sequences."""

    @settings(max_examples=120, deadline=None)
    @given(case=st.integers(1, 24).flatmap(
        lambda n: st.tuples(_pm1(n, n) | _mirrored(n), st.integers(1, 2 * n + 3))))
    @example(case=(BinarySequence((1,)), 1))  # l = m = 1: the lag vector is empty
    @example(case=(BinarySequence((1, -1)), 2))  # one lag, so (l-1)//2 = 0 folded
    @example(case=(BinarySequence((1, 1, -1)), 3))
    @example(case=(BinarySequence((1, -1, -1, -1)), 4))
    @example(case=(_ODD, len(_ODD)))
    @example(case=(_EVEN, len(_EVEN)))
    @example(case=(_MIRRORED, len(_MIRRORED)))
    @example(case=(_MIRRORED, len(_MIRRORED) + 30))
    def test_adf_all_shifts(self, case):
        f, m = case
        nums = adf_numerators_all_shifts(f.terms, m)
        assert nums.shape == (len(f),) and nums.dtype == np.int64
        for r in _shifts(len(f)):
            assert Fraction(int(nums[r]), m * m) == oracle_adf(resize(cyclic_shift(f, r), m))

    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 20).flatmap(
        lambda n: st.tuples(_pm1(n, n), _pm1(n, n), st.integers(1, n))))
    @example(case=(BinarySequence((1,)), BinarySequence((-1,)), 1))
    @example(case=(BinarySequence((1, -1)), BinarySequence((1, 1)), 2))
    @example(case=(BinarySequence((1, 1, -1)), BinarySequence((-1, 1, 1)), 3))
    @example(case=(BinarySequence((1, -1, -1, -1)), BinarySequence((1, 1, 1, -1)), 4))
    @example(case=(_ODD, _ODD_G, len(_ODD)))
    @example(case=(_EVEN, _EVEN_G, len(_EVEN)))
    def test_diagonal_windows(self, case):
        f, g, m = case
        diag = diagonal_of(f.terms, g.terms, m)
        assert diag.shape == (len(f),) and diag.dtype == np.int64
        for r in _shifts(len(f)):
            expect = oracle_cdf(resize(cyclic_shift(f, r), m), resize(cyclic_shift(g, r), m))
            assert Fraction(int(diag[r]), m * m) == expect

    @settings(max_examples=30, deadline=None)
    @given(fg=st.integers(1, 12).flatmap(lambda n: st.tuples(_pm1(n, n), _pm1(n, n))))
    @example(fg=(BinarySequence((1,)), BinarySequence((-1,))))
    @example(fg=(BinarySequence((1, -1)), BinarySequence((1, 1))))
    @example(fg=(BinarySequence((1, 1, -1)), BinarySequence((-1, 1, 1))))
    @example(fg=(BinarySequence((1, -1, -1, -1)), BinarySequence((1, 1, 1, -1))))
    @example(fg=(_GRID_ODD, _GRID_ODD_G))
    @example(fg=(_GRID_EVEN, _GRID_EVEN_G))
    def test_grid(self, fg):
        f, g = fg
        ell = len(f)
        grid = analysis._pair_grid(f.terms, g.terms)
        # the ADF numerators that the PSC grid takes
        adf_f, adf_g = analysis._numerators((f.terms, g.terms), ell, ((0, 0), (1, 1)))
        assert grid.shape == (ell, ell) and adf_f.shape == adf_g.shape == (ell,)
        shifts = _shifts(ell)
        cells = [(rf, rg) for rf in shifts for rg in shifts] if ell <= 24 else zip(shifts, reversed(shifts))
        for rf, rg in cells:
            fr, gr = cyclic_shift(f, rf), cyclic_shift(g, rg)
            assert Fraction(int(grid[rf, rg]), ell * ell) == oracle_cdf(fr, gr)
            assert Fraction(int(adf_f[rf]), ell * ell) == oracle_adf(fr)
            assert Fraction(int(adf_g[rg]), ell * ell) == oracle_adf(gr)


def _swap_of(terms, c, eps):
    """eps times terms reversed about c: term i is eps terms[(c - i) mod l]."""
    x = list(terms)
    return BinarySequence(tuple(eps * x[(c - i) % len(x)] for i in range(len(x))))


def _flip(f, i):
    """f with term i negated."""
    x = list(f.terms)
    x[i] = -x[i]
    return BinarySequence(tuple(x))


def _mirror_pairs(n):
    """Pairs of length n whose windows may mirror (see analysis): a swap,
    g = eps f reversed about c, which the walk mirrors, or two sequences
    that are each their own reversal about one centre c, each with its own
    sign (-1 only for an even n and an odd c), which it mirrors only if
    they also form a swap."""
    terms = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)

    def signs(c):
        return st.sampled_from((1, -1)) if n % 2 == 0 and c % 2 else st.just(1)

    same = st.integers(0, n - 1).flatmap(lambda c: st.tuples(terms, signs(c), terms, signs(c)).map(
        lambda t: (_mirror_of(t[0], t[1], c), _mirror_of(t[2], t[3], c))))
    swap = st.tuples(terms, st.integers(0, n - 1), st.sampled_from((1, -1))).map(
        lambda t: (BinarySequence(tuple(t[0])), _swap_of(*t)))
    return same | swap


class TestPairMirror:
    """The pair engines on pairs whose windows mirror, or nearly do, against
    the brute-force oracles: every numerator, and the first minimiser that
    the searches take, ties included."""

    @staticmethod
    def check_lockstep(f, g, m):
        ell = len(f)
        cdf, adf_f, adf_g = oracle_shift_numerators(f, g, [(r, r) for r in range(ell)], m)
        expect = {(0, 1): [c - m * m for c in cdf], (0, 0): adf_f, (1, 1): adf_g}
        # half_legendre asks for ((0, 0), (0, 1)), the psc diagonal for all three
        for pairs in (((0, 1), (0, 0), (1, 1)), ((0, 0), (0, 1)), ((0, 1),), ((1, 1),)):
            for pair, nums in zip(pairs, analysis._numerators((f.terms, g.terms), m, pairs)):
                assert nums.dtype == np.int64 and nums.tolist() == expect[pair], pair
        cross, nf, ng = analysis._numerators((f.terms, g.terms), m, ((0, 1), (0, 0), (1, 1)))
        assert analysis._first_minimum(m * m + cross) == oracle_first_minimum(cdf)
        assert analysis._first_minimum(m * m + cross, nf, ng) == oracle_first_minimum(cdf, adf_f, adf_g)

    @staticmethod
    def check_grid(f, g):
        ell = len(f)
        cdf, adf_f, adf_g = oracle_shift_numerators(f, g, [(rf, rg) for rf in range(ell) for rg in range(ell)])
        grid = analysis._pair_grid(f.terms, g.terms)
        grid_adf_f, grid_adf_g = analysis._numerators((f.terms, g.terms), ell, ((0, 0), (1, 1)))
        assert grid.ravel().tolist() == cdf
        assert grid_adf_f.tolist() == adf_f[::ell] and grid_adf_g.tolist() == adf_g[:ell]
        assert best_pair_shifts(f, g, "cdf") == divmod(oracle_first_minimum(cdf), ell)
        assert best_pair_shifts(f, g, "psc") == divmod(oracle_first_minimum(cdf, adf_f, adf_g), ell)

    @settings(max_examples=80, deadline=None)
    @given(case=st.integers(1, 16).flatmap(lambda n: st.tuples(_mirror_pairs(n), st.integers(1, n + 3))))
    @example(case=((BinarySequence((1, 1, 1)), BinarySequence((1, 1, 1))), 3))  # every shift ties
    def test_lockstep_pass(self, case):
        (f, g), m = case
        self.check_lockstep(f, g, m)

    @settings(max_examples=40, deadline=None)
    @given(fg=st.integers(1, 10).flatmap(
        lambda n: _mirror_pairs(n) | st.tuples(_pm1(n, n) | _mirrored(n), _pm1(n, n) | _mirrored(n))))
    @example(fg=(BinarySequence((1,) * 4), BinarySequence((1,) * 4)))
    def test_grid(self, fg):
        self.check_grid(*fg)

    @pytest.mark.parametrize("ell", [14, 15])
    def test_unmirrored_pairs_walk_in_full(self, ell, walk_counts):
        rng = random.Random(82 + ell)
        f = _mirror_of(random_sequence(rng, ell).terms, 1, 3)
        h = random_sequence(rng, ell)
        cases = {
            "different centres": (f, _mirror_of(random_sequence(rng, ell).terms, 1, 4)),
            "one term off a common centre": (f, _flip(_mirror_of(random_sequence(rng, ell).terms, 1, 3), 5)),
            "one term off a swap": (h, _flip(_swap_of(h.terms, 6, -1), 2)),
            # each its own reversal about centre 3, but not a swap: only a
            # swap mirrors
            "a common centre": (f, _mirror_of(random_sequence(rng, ell).terms, 1, 3)),
        }
        for name, (f, g) in cases.items():
            assert analysis._reversal_centre(f.terms, g.terms) is None, name
            for m in (ell - 4, ell + 3):
                walk_counts.clear()
                self.check_lockstep(f, g, m)
                assert walk_counts and all(taken == [m, ell] for taken in walk_counts), name
                walk_counts.clear()
                analysis._numerators((f.terms, g.terms), m, ((0, 1), (0, 0), (1, 1)))
                assert walk_counts == [[m, ell], [m, ell]], name
            walk_counts.clear()
            self.check_lockstep(f, g, ell)  # a full period is not walked
            assert walk_counts == [], name
            self.check_grid(f, g)

    @pytest.mark.parametrize("ell", [512, 513])  # the largest grid, then the diagonal
    def test_mirrored_searches_equal_full_walks(self, ell, monkeypatch, walk_counts):
        grid = ell <= analysis._GRID_LENGTH
        pairs3 = ((0, 1), (0, 0), (1, 1))

        def search(f, g):
            """The engine's arrays, then the answers of both objectives."""
            if grid:
                adfs = analysis._numerators((f.terms, g.terms), ell, ((0, 0), (1, 1)))
                arrays = analysis._pair_grid(f.terms, g.terms), *adfs
            else:
                arrays = analysis._numerators((f.terms, g.terms), ell, pairs3)
            return arrays, [best_pair_shifts(f, g, objective) for objective in ("cdf", "psc")]

        rng = random.Random(84 + ell)
        f = random_sequence(rng, ell)
        pairs = {
            "self_reversed": (_mirror_of(f.terms, 1, 5), _mirror_of(random_sequence(rng, ell).terms, 1, 5)),
            "swap": (f, _swap_of(f.terms, 200, -1)),
        }
        for name, (f, g) in pairs.items():
            walk_counts.clear()
            arrays, answers = search(f, g)
            # full-period searches read every rotation from periodic correlations
            assert walk_counts == [], name
            with monkeypatch.context() as mp:
                mp.setattr(analysis, "_reversal_centre", lambda a, b: None)
                mp.setattr(analysis, "_periodic_numerators", lambda seqs, pairs: None)
                walk_counts.clear()
                if grid:
                    full_arrays = _walked_grid(f, g), *_walked(f, g, ((0, 0), (1, 1)))
                    cdf, adf_f, adf_g = full_arrays
                    full_answers = [divmod(analysis._first_minimum(cdf, *adfs), ell)
                                    for adfs in ((), (adf_f[:, None], adf_g))]
                else:
                    full_arrays, full_answers = search(f, g)
                assert walk_counts and all(taken == ell for _, taken in walk_counts), name
            assert answers == full_answers, name
            for got, expect in zip(arrays, full_arrays):
                assert got.dtype == expect.dtype and np.array_equal(got, expect), name
            # and the CDF of the answer is the oracle's
            rf, rg = answers[0]
            cdf_num = arrays[0][rf, rg] if grid else ell * ell + arrays[0][rf]
            assert Fraction(int(cdf_num), ell * ell) == oracle_cdf(cyclic_shift(f, rf), cyclic_shift(g, rg))


def _walked_grid(f, g):
    """The grid as _pair_grid returns it, from a full rotation walk of each
    sequence: entry (a, b) is l^2 plus twice the dot product of the walks'
    vectors at rotations a and b."""
    ell = len(f)
    rows = [np.array([w.copy() for w in analysis._rotation_walk(s.terms, ell).vectors]).reshape(ell, ell - 1)
            for s in (f, g)]
    return ell * ell + 2 * rows[0] @ rows[1].T


def _walked(f, g, pairs=((0, 1), (0, 0), (1, 1)), m=None):
    """_numerators at m (l by default) from full rotation walks of f and g:
    the numerators that the periodic engines must equal."""
    names = "_periodic_numerators", "_appended_numerators", "_reversal_centre"
    saved = [getattr(analysis, name) for name in names]
    for name in names:
        setattr(analysis, name, lambda *args: None)
    try:
        return analysis._numerators((f.terms, g.terms), m or len(f), pairs)
    finally:
        for name, fn in zip(names, saved):
            setattr(analysis, name, fn)


def _quartic(p):
    ctx = families.make_prime_field(p)
    return families.quartic_f(ctx), families.quartic_g(ctx)


def _reversing(n):
    ctx = families.make_binary_field(n)
    return families.msequence_pair(ctx, ctx.order - 1)


class TestPeriodicEngine:
    """The full-period engines, which read every rotation from periodic
    correlations, against full rotation walks, value for value."""

    @staticmethod
    def check(f, g):
        """Every product alone, all three at once, _numerators and the
        grid."""
        ell, pairs = len(f), ((0, 1), (0, 0), (1, 1))
        walked = _walked(f, g)
        x, y = f.terms, g.terms
        alone = [analysis._periodic_numerators((x, y), (pair,))[0] for pair in pairs]
        for got in (alone, analysis._periodic_numerators((x, y), pairs), analysis._numerators((x, y), ell, pairs)):
            for nums, expect in zip(got, walked):
                assert nums.dtype == np.int64 and np.array_equal(nums, expect)
        if ell <= analysis._GRID_LENGTH:
            grid = analysis._pair_grid(x, y)
            assert grid.dtype == np.float64 and np.array_equal(grid, _walked_grid(f, g))

    def test_random_pairs_every_length_to_70(self):
        rng = random.Random(90)
        for ell in range(1, 71):
            for _ in range(2):
                self.check(random_sequence(rng, ell), random_sequence(rng, ell))

    @pytest.mark.parametrize("p", [1019, 1021, 4099, 4129])  # 3 and 1 mod 4
    def test_legendre(self, p):
        f = legendre(p)
        nums = adf_numerators_all_shifts(f.terms)
        assert np.array_equal(nums, _walked(f, f, ((0, 0),))[0])
        r = int(nums.argmin())
        assert Fraction(int(nums[r]), p * p) == adf(cyclic_shift(f, r))

    @pytest.mark.parametrize("p", [257, 389, 521, 1013])  # 1, 5, 1, 5 mod 8; grid, then diagonal
    def test_quartic_pairs(self, p):
        self.check(*_quartic(p))

    @pytest.mark.parametrize("n", [7, 10])  # swap pairs, g[i] = f[-i]: grid, then diagonal
    def test_reversing_mseq_pairs(self, n):
        self.check(*_reversing(n))

    def test_lengths_about_the_grid_budget_and_mirrored_pairs(self):
        rng = random.Random(91)
        limit = analysis._GRID_LENGTH
        for ell in (limit - 1, limit, limit + 1):
            self.check(random_sequence(rng, ell), random_sequence(rng, ell))
        # own reversals about one centre, swaps, and a mirrored f with a g
        # that is not
        for ell in (2, 3, 111, 112, limit + 1):
            f = _mirror_of(random_sequence(rng, ell).terms, 1, 3)
            self.check(f, _mirror_of(random_sequence(rng, ell).terms, 1, 3))
            self.check(f, _swap_of(f.terms, 4, -1))
            self.check(f, random_sequence(rng, ell))

    def test_refused_fft_outputs_are_taken_directly(self, monkeypatch, walk_counts):
        """With every FFT output refused, the engines return the same arrays
        without a walk: the kernel correlates directly, and each Hankel
        level is taken by its einsum (at l = 1000 the top level is an FFT)."""
        ell = 1000
        rng = random.Random(92)
        f, g = random_sequence(rng, ell), random_sequence(rng, ell)
        pairs = ((0, 1), (0, 0), (1, 1))
        expect = analysis._periodic_numerators((f.terms, g.terms), pairs)
        expect_adf = adf_numerators_all_shifts(f.terms)
        small = f.terms[:300], g.terms[:300]
        expect_grid = analysis._pair_grid(*small)
        refused = []
        monkeypatch.setattr(corr, "_exact", lambda x, expect: refused.append(x.shape))
        assert np.array_equal(analysis._pair_grid(*small), expect_grid)
        got = analysis._periodic_numerators((f.terms, g.terms), pairs)
        got_adf = adf_numerators_all_shifts(f.terms)
        assert walk_counts == []
        assert any(len(shape) == 3 for shape in refused)  # a Hankel level was refused
        for a, b in zip([*got, got_adf], [*expect, expect_adf]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_integer_error_in_a_batched_inverse_is_caught(self, monkeypatch, walk_counts):
        """An FFT output moved by a whole integer rounds cleanly; the kernel's
        sum identity refuses it and correlates directly, so the grid, which
        has no wrap check behind it, and the periodic ADF numerators, which
        do not walk, come out unchanged."""
        f, g = _quartic(389)
        h = legendre(4099).terms
        expect_grid = analysis._pair_grid(f.terms, g.terms)
        expect_adf = adf_numerators_all_shifts(h)
        real = np.fft.irfft

        def irfft(*args, **kwargs):
            out = real(*args, **kwargs)
            if out.ndim == 2:
                out[0, 0] += 1.0
            return out

        monkeypatch.setattr(np.fft, "irfft", irfft)
        walk_counts.clear()
        assert np.array_equal(analysis._pair_grid(f.terms, g.terms), expect_grid)
        assert np.array_equal(adf_numerators_all_shifts(h), expect_adf)
        assert walk_counts == []

    def test_integer_error_in_a_hankel_level_is_caught(self, monkeypatch, walk_counts):
        """Whole-integer errors in one Hankel level that cancel in the wrap
        check: block sums refuse the level, and its einsum takes it, so the
        numerators come out unchanged and nothing walks.  For Legendre
        p = 4099 the first 3-D inverse is the h = 128 level, (1, 16, 256)."""
        h = legendre(4099).terms
        expect = adf_numerators_all_shifts(h)
        real = np.fft.irfft
        perturbed = []

        def irfft(*args, **kwargs):
            out = real(*args, **kwargs)
            if out.ndim == 3 and not perturbed:
                perturbed.append(out.shape)
                out[0, :2, 0] += 1.0
            return out

        monkeypatch.setattr(np.fft, "irfft", irfft)
        walk_counts.clear()
        assert np.array_equal(adf_numerators_all_shifts(h), expect)
        assert perturbed == [(1, 16, 256)]
        assert walk_counts == []

    def test_failed_wrap_check_falls_back_to_the_walk(self, monkeypatch, walk_counts):
        """An error in one Hankel sum breaks sum_a (D(a+1) - D(a)) = 0,
        rotation l being rotation 0, and the search walks instead."""
        f = legendre(1031)
        expect = adf_numerators_all_shifts(f.terms)
        hankel = analysis._hankel_prefix_sums

        def off_by_one(w, q):
            s = hankel(w, q)
            s[0, 500] += 1
            return s

        monkeypatch.setattr(analysis, "_hankel_prefix_sums", off_by_one)
        assert analysis._periodic_numerators((f.terms,), ((0, 0),)) is None
        walk_counts.clear()
        assert np.array_equal(adf_numerators_all_shifts(f.terms), expect)
        assert walk_counts == [[1031, 1031]]


def _walked_windows(f, m):
    """adf_numerators_all_shifts(f.terms, m) from full rotation walks."""
    return _walked(f, f, ((0, 0),), m)[0]


def _numerators_by_correlate(x, m):
    """2 sum_{s=1}^{m-1} C_r(s)^2 of resize(cyclic_shift(x, r), m) at every r,
    each window correlated by np.correlate."""
    out = []
    for r in range(len(x)):
        w = np.resize(np.roll(x, -r), m)
        c = np.correlate(w, w, "full")[m:]
        out.append(2 * int(c @ c))
    return out


class TestBlockIdentity:
    """Windows of m >= 2l terms of one sequence, m = (q + 1) l + e, from the
    m0 = l + e windows and the q blocks of l lags past them (see analysis),
    against brute force at every rotation."""

    def test_random_sequences_every_length_to_40(self):
        rng = random.Random(94)
        for ell in range(1, 41):
            x = random_sequence(rng, ell).terms
            for m in sorted({*range(2 * ell, 3 * ell), 3 * ell, 5 * ell + 3}):
                got = adf_numerators_all_shifts(x, m)
                assert got.dtype == np.int64 and got.tolist() == _numerators_by_correlate(x, m), (ell, m)

    @pytest.mark.parametrize("p", [13, 19, 101, 103, 1021, 1031])  # 1 and 3 mod 4
    def test_legendre(self, p):
        f = legendre(p)
        for m in (2 * p, 2 * p + 1, 2 * p + round(0.0578 * p), 3 * p - 1, 3 * p, 5 * p + 3):
            assert np.array_equal(adf_numerators_all_shifts(f.terms, m), _walked_windows(f, m)), m
        if p < 1000:  # np.correlate takes O(m^2) a window
            assert adf_numerators_all_shifts(f.terms, 3 * p + 2).tolist() == _numerators_by_correlate(f.terms, 3 * p + 2)

    def test_length_one_at_exact_length(self, walk_counts):
        m = 1 << 20
        walk_counts.clear()
        assert adf_numerators_all_shifts(np.ones(1, dtype=np.int64), m).tolist() == [m * (m - 1) * (2 * m - 1) // 3]
        assert walk_counts == []

    def test_whole_periods_take_the_full_period_shift(self):
        # N_{ql}(r) = q N_l(r) + c: every ratio q finds the shift of q = 1
        for p in (1019, 1033):
            f = legendre(p)
            full = adf_numerators_all_shifts(f.terms)
            for q in (2, 3, 7):
                nums = adf_numerators_all_shifts(f.terms, q * p)
                assert len(set((nums - q * full).tolist())) == 1
                assert best_shift(f, resize_len=q * p)[0] == best_shift(f)[0]


class TestAppendedEngine:
    """The engine for windows of l < m < 2l terms of one sequence, N_l +
    4X + 2Y + 2e^2 from steps plus the walk of its e-term windows, against
    full rotation walks, value for value."""

    def test_random_sequences_every_length_to_40_and_every_e(self):
        rng = random.Random(93)
        for ell in range(2, 41):
            for e in range(1, ell):
                f = random_sequence(rng, ell)
                got = analysis._appended_numerators(f.terms, e)
                assert got.dtype == np.int64 and np.array_equal(got, _walked_windows(f, ell + e)), (ell, e)
        ones = BinarySequence((1,) * 17)
        for e in range(1, 17):
            assert np.array_equal(analysis._appended_numerators(ones.terms, e), _walked_windows(ones, 17 + e))

    @pytest.mark.parametrize("p", [1049, 1051, 2069, 2083])  # 1 and 3 mod 4
    def test_legendre(self, p):
        f = legendre(p)
        for e in (1, round(0.0578 * p), p // 3, p - 1):
            assert np.array_equal(analysis._appended_numerators(f.terms, e), _walked_windows(f, p + e)), e

    @pytest.mark.parametrize("p", [13, 389, 521, 1013])  # 5, 5, 1, 5 mod 8
    def test_quartic(self, p):
        for f in _quartic(p):
            for e in sorted({1, 2, max(1, p // 17), p // 2, p - 1}):
                assert np.array_equal(analysis._appended_numerators(f.terms, e), _walked_windows(f, p + e)), e

    def test_mseq(self):
        f = families.msequence(families.make_binary_field(8), 1)
        for e in (1, 15, 128, 254):
            assert np.array_equal(analysis._appended_numerators(f.terms, e), _walked_windows(f, 255 + e)), e

    @pytest.mark.parametrize("p, rotations", [(4099, 4099), (8233, 4117)])  # 3 mod 4, then mirrored
    def test_searches_above_the_crossover_walk_only_the_e_windows(self, p, rotations, walk_counts):
        f = legendre(p)
        m = round(1.0578 * p)
        assert rotations > analysis._WALK_ROTATIONS
        walk_counts.clear()
        got = adf_numerators_all_shifts(f.terms, m)
        assert walk_counts == [[m - p, rotations]]
        assert np.array_equal(got, _walked_windows(f, m))

    def test_windows_past_two_periods_walk_only_the_e_windows(self, walk_counts):
        x = legendre(2903)  # 2903 rotations, above the crossover
        for m, walks in ((2 * 2903, []), (2 * 2903 + 237, [[237, 2903]])):
            walk_counts.clear()
            got = adf_numerators_all_shifts(x.terms, m)
            assert walk_counts == walks
            assert np.array_equal(got, _walked_windows(x, m))

    def test_failed_wrap_check_at_2l_and_more_walks_no_m_window(self, monkeypatch, walk_counts):
        """An error in one Hankel sum breaks the wrap check, and a search at
        m >= 2l walks its e-term and m0-term windows, never its m-term
        ones."""
        x = legendre(4099).terms
        m = 3 * 4099 + 237
        expect = adf_numerators_all_shifts(x, m)
        hankel = analysis._hankel_prefix_sums

        def off_by_one(w, q):
            s = hankel(w, q)
            s[0, 500] += 1
            return s

        monkeypatch.setattr(analysis, "_hankel_prefix_sums", off_by_one)
        walk_counts.clear()
        assert np.array_equal(adf_numerators_all_shifts(x, m), expect)
        assert walk_counts == [[237, 4099], [4336, 4099]]

    def test_refused_fft_outputs_are_taken_directly(self, monkeypatch, walk_counts):
        """With every FFT output refused, the kernel correlates directly and
        each Hankel level is taken by its einsum: the same arrays, and no
        m-window walked."""
        x = legendre(4099).terms
        expect = adf_numerators_all_shifts(x, 4336)
        refused = []
        monkeypatch.setattr(corr, "_exact", lambda x, expect: refused.append(x.shape))
        walk_counts.clear()
        got = adf_numerators_all_shifts(x, 4336)
        assert walk_counts == [[237, 4099]]
        assert any(len(shape) == 3 for shape in refused)  # a Hankel level was refused
        assert got.dtype == np.int64 and np.array_equal(got, expect)

    @pytest.mark.parametrize("row", [0, 1])  # against Q rolled by +e, then by -e
    def test_off_by_one_in_a_hankel_row_walks(self, row, monkeypatch, walk_counts):
        """An error in either Hankel row breaks the wrap check, and the
        search walks its m-windows."""
        x = legendre(4099).terms
        expect = adf_numerators_all_shifts(x, 4336)
        hankel = analysis._hankel_prefix_sums
        calls = []

        def off_by_one(w, q):
            s = hankel(w, q)
            if len(calls) == row:
                s[0, 500] += 1
            calls.append(w.shape)
            return s

        monkeypatch.setattr(analysis, "_hankel_prefix_sums", off_by_one)
        walk_counts.clear()
        assert np.array_equal(adf_numerators_all_shifts(x, 4336), expect)
        assert walk_counts == [[4336, 4099]]
        assert calls == [(1, 4336), (1, 4099)]

    def test_peak_memory(self):
        # the Legendre p = 8231 search at resize=1.0578 holds at most 37
        # int64 l-words, 2.44 MB, below the quartic_pair p = 389 grid's
        # 2.45 MB peak (test_grid_peak_memory); it peaks at 28, in the
        # full period's correlations, and the full-period search at 27
        x = legendre(8231).terms
        adf_numerators_all_shifts(x, 8707)  # lazy imports and BLAS set-up are not the search's own memory
        tracemalloc.start()
        try:
            adf_numerators_all_shifts(x, 8707)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 37 * 8231 * 8


class TestShiftSearch:
    def test_near_mirror_walks_every_shift(self):
        # A Legendre sequence with p = 3 mod 4 is minus its reversal at every
        # term but term 0, and an antisymmetric sequence of even length with
        # one term flipped is one term off too: neither may be mirrored.
        near = [legendre(31), legendre(43)]
        x = list(_mirror_of(random_sequence(random.Random(81), 14).terms, -1, 5).terms)
        x[3] = -x[3]
        near.append(BinarySequence(tuple(x)))
        for f in near:
            assert analysis._reversal_centre(f.terms, f.terms) is None
            ell = len(f)
            for m in (ell, ell - 5, ell + 4):
                nums = adf_numerators_all_shifts(f.terms, m)
                for r in range(ell):
                    assert Fraction(int(nums[r]), m * m) == oracle_adf(resize(cyclic_shift(f, r), m))

    def test_constant_sequence_ties_break_to_zero(self):
        f = BinarySequence((1,) * 9)
        r, val = best_shift(f)
        assert r == 0
        assert val == adf(f)

    def test_legendre_search_improves_on_unshifted(self):
        from seqcorr.families import build_base

        f = build_base(parse_family("legendre:p=127"))
        r, val = best_shift(f)
        assert val < adf(f)
        assert val == adf(cyclic_shift(f, r))

    def test_best_shift_equals_brute_force(self):
        rng = random.Random(64)
        f = random_sequence(rng, 11)
        r, val = best_shift(f)
        brute = min((adf(cyclic_shift(f, r0)), r0) for r0 in range(11))
        assert (val, r) == brute

    def test_pair_search_grid_equals_brute_force(self):
        rng = random.Random(65)
        f = random_sequence(rng, 8)
        g = random_sequence(rng, 8)
        rf, rg = best_pair_shifts(f, g, "cdf")
        brute = min(
            (cdf(cyclic_shift(f, a), cyclic_shift(g, b)), a, b)
            for a in range(8)
            for b in range(8)
        )
        assert (brute[1], brute[2]) == (rf, rg)
        assert cdf(cyclic_shift(f, rf), cyclic_shift(g, rg)) == brute[0]

    @pytest.mark.parametrize("ell", [1, 2, 7, 8, 64, 511, 512, 600])  # 600: the diagonal
    def test_psc_pair_search_equals_separate_engines(self, ell):
        rng = random.Random(80 + ell)
        f, g = random_sequence(rng, ell), random_sequence(rng, ell)
        adf_f, adf_g = (adf_numerators_all_shifts(s.terms).astype(np.float64) for s in (f, g))
        if ell <= analysis._GRID_LENGTH:
            grid = analysis._pair_grid(f.terms, g.terms)
            # the search's ADF numerators are those of adf_numerators_all_shifts
            search_adfs = analysis._numerators((f.terms, g.terms), ell, ((0, 0), (1, 1)))
            assert all(np.array_equal(a, b) for a, b in zip(search_adfs, (adf_f, adf_g)))
            expect = divmod(int(np.argmin(grid + np.sqrt(np.outer(adf_f, adf_g)))), ell)
        else:
            r = int(np.argmin(diagonal_of(f.terms, g.terms) + np.sqrt(adf_f * adf_g)))
            expect = (r, r)
        assert best_pair_shifts(f, g, "psc") == expect

    def test_pair_search_ties_break_to_first(self):
        ones = BinarySequence((1,) * 9)
        assert best_pair_shifts(ones, ones, "psc") == best_pair_shifts(ones, ones, "cdf") == (0, 0)
        long_ones = BinarySequence((1,) * 600)
        assert best_pair_shifts(long_ones, long_ones, "psc") == (0, 0)

    def test_one_walk_per_sequence(self, walk_counts):
        walks = walk_counts
        rng = random.Random(79)
        # Full-period searches read every rotation from periodic
        # correlations: the grid, its PSC's ADF numerators and the diagonal
        # take no walk step, at every length.
        for ell in (2, 20, 600):  # the grid, then the diagonal
            f, g = random_sequence(rng, ell), random_sequence(rng, ell)
            for objective in ("cdf", "psc"):
                walks.clear()
                best_pair_shifts(f, g, objective)
                assert walks == []
        # Windows shorter than the period walk the arc of l//2 + 1 rotations
        # when the pair mirrors: the half-Legendre halves (p = 1 mod 4) are a
        # swap.  The reversing m-sequences and the quartic pairs search full
        # periods.
        for construction, params, expect in (
            ("half_legendre", {"p": 29}, [[14, 15], [14, 15]]),
            ("half_legendre", {"p": 509}, [[254, 255], [254, 255]]),
            ("half_legendre", {"p": 31}, [[15, 31], [15, 31]]),
            ("reversing_mseq", {"n": 10, "k": 3}, []),
            ("reversing_mseq", {"n": 7, "k": 1}, []),
            ("quartic_pair", {"p": 257}, []),
        ):
            walks.clear()
            report_pairs(construction, **params)
            assert walks == expect, construction
        walks.clear()
        best_shift(random_sequence(rng, 600))
        assert walks == []
        # p = 1 mod 4: the Legendre sequence is its own reversal, so half
        # the rotations and the shift they mirror to give every numerator;
        # resize= windows walk, full periods do not
        for p, rotations in ((29, 15), (31, 31), (1033, 517), (1031, 1031)):
            for m in (p, p + 3, round(1.0578 * p)):
                walks.clear()
                best_shift(legendre(p), resize_len=m)
                assert walks == ([] if m == p else [[m, rotations]])

    def test_golden_walks(self, walk_counts):
        """The walks of the golden corpus's shift searches: resize= below
        the crossover and the half-Legendre halves walk a mirrored arc,
        resize= above it or at m >= 2l only its windows of m mod l terms,
        full periods and whole numbers of them none."""
        expect = {
            "generate_legendre_1033_best_resize": [[1093, 517]],
            "generate_legendre_4099_best_resize": [[237, 4099]],
            "generate_legendre_1033_best_resize_3_1": [[103, 517]],
            "generate_legendre_4099_best_resize_2_0578": [[237, 4099]],
            "sweep_legendre_best_resize_2": [],
            "pairs_half_legendre_29": [[14, 15], [14, 15]],
            "pairs_half_legendre_509": [[254, 255], [254, 255]],
            "sweep_quartic_f_best": [],
            "pairs_quartic_pair_337": [],
            "pairs_reversing_mseq": [],
            "pairs_reversing_mseq_grid511": [],
            "pairs_reversing_mseq_diag1023": [],
        }
        for name, walks in expect.items():
            argv, code = GOLDEN_CASES[name]
            walk_counts.clear()
            assert cli.main(argv) == code, name
            assert walk_counts == walks, name

    @pytest.mark.parametrize("p", [13, 101, 509])
    def test_legendre_plus_quartic_asks_the_engines_once(self, p, monkeypatch, walk_counts):
        hf, qf = legendre(p), families.quartic_f(families.make_prime_field(p))
        (rf, _), (rg, _) = best_shift(hf), best_shift(qf)
        target = TARGETS["psc-legendre-quartic"].value
        expect = [analysis._pair_row("legendre_plus_quartic", f"p={p} shifts={rf}/{rg}",
                                     cyclic_shift(hf, rf), cyclic_shift(qf, rg), target)]
        calls = []
        numerators = analysis._numerators

        def counted(seqs, m, pairs):
            calls.append((m, pairs))
            return numerators(seqs, m, pairs)

        monkeypatch.setattr(analysis, "_numerators", counted)
        walk_counts.clear()
        assert report_pairs("legendre_plus_quartic", p=p) == expect
        assert calls == [(p, ((0, 0), (1, 1)))]
        assert walk_counts == []

    def test_pair_search_validates(self):
        rng = random.Random(66)
        f = random_sequence(rng, 8)
        with pytest.raises(ValueError):
            best_pair_shifts(f, random_sequence(rng, 7))
        with pytest.raises(ValueError):
            best_pair_shifts(f, f, "adf")
        with pytest.raises(ValueError):
            best_shift(f, "cdf")
        for m in (0, -3):
            with pytest.raises(ValueError):
                best_shift(f, resize_len=m)

    def test_realize_with_best_shift_and_resize(self):
        seq, r = realize(parse_family("legendre:p=31,shift=best,resize=1.5"))
        assert len(seq) == round(1.5 * 31)
        p31 = legendre(31)
        brute = min(
            (adf(resize(cyclic_shift(p31, r0), 46)), r0) for r0 in range(31)
        )
        assert adf(seq) == brute[0] and r == brute[1]


class TestBaseline:
    def test_length_one_is_exact(self):
        mean_adf, mean_cdf = monte_carlo_baseline(1, 7, 3)
        assert mean_adf == 0
        assert mean_cdf == 1

    def test_deterministic_and_fractional(self):
        a1, c1 = monte_carlo_baseline(16, 25, 9)
        a2, c2 = monte_carlo_baseline(16, 25, 9)
        assert (a1, c1) == (a2, c2)
        assert isinstance(a1, Fraction) and isinstance(c1, Fraction)
        a3, _ = monte_carlo_baseline(16, 25, 10)
        assert a3 != a1

    # 1 is direct throughout; above 1 the blocks take the FFT path, and one
    # trial a block takes it only for the last length
    @pytest.mark.parametrize("length", [1, 40, 64, corr._DIRECT_WORK // 2 + 316])
    def test_partition_invariance(self, monkeypatch, length):
        blocked = monte_carlo_baseline(length, 23, -3)
        monkeypatch.setattr(analysis, "_BASELINE_BLOCK", 1)  # one trial per block
        assert monte_carlo_baseline(length, 23, -3) == blocked

    def test_means_from_the_generator(self):
        length, trials, seed = 37, 6, 2**64 + 5
        adf_num = cdf_num = 0
        for t in range(trials):
            f = BinarySequence(SplitMix64.draw(seed, 2 * t, length))
            g = BinarySequence(SplitMix64.draw(seed, 2 * t + 1, length))
            adf_num += oracle_adf(f) * length**2
            cdf_num += oracle_cdf(f, g) * length**2
        denom = trials * length**2
        assert monte_carlo_baseline(length, trials, seed) == (adf_num / denom, cdf_num / denom)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_baseline(8, 0, 1)
        with pytest.raises(ValueError):
            monte_carlo_baseline(0, 5, 1)


def _exact_order(a, b):
    """-1, 0 or 1 as c + sqrt(q) is below, equal to or above c' + sqrt(q')
    for a = (c, q) and b = (c', q'), in integers.

    The two are equal only if (c, q) = (c', q') or both q are squares with
    equal c + sqrt(q): otherwise sqrt(q) - sqrt(q') would be a rational
    c' - c with q or q' not a square.  Unequal scores are told apart by
    bracketing k (c + sqrt(q)) in [k c + isqrt(k^2 q), k c + isqrt(k^2 q) + 1)
    for k = 1, 2, 4, ... until the brackets are disjoint.
    """
    (c1, q1), (c2, q2) = a, b
    r1, r2 = math.isqrt(q1), math.isqrt(q2)
    if a == b or (r1 * r1 == q1 and r2 * r2 == q2 and c1 + r1 == c2 + r2):
        return 0
    k = 1
    while True:
        lo1, lo2 = k * c1 + math.isqrt(k * k * q1), k * c2 + math.isqrt(k * k * q2)
        if lo1 + 1 <= lo2:
            return -1
        if lo2 + 1 <= lo1:
            return 1
        k *= 2


class TestSweepsAndReports:
    def test_sweep_rows_and_csv_stability(self):
        spec = parse_family("mseq:n=5")
        rows = convergence_sweep(spec, [5, 6, 7], lookup_target("mseq-adf"))
        assert [r.length for r in rows] == [31, 63, 127]
        for r in rows:
            assert r.abs_err == abs(r.adf_f - 1 / 3)
        again = convergence_sweep(spec, [5, 6, 7], lookup_target("mseq-adf"))
        assert rows_to_csv(rows) == rows_to_csv(again)
        header = rows_to_csv(rows).splitlines()[0]
        assert header == "family,length,params,adf_f,adf_g,cdf,psc,target,abs_err"

    def test_sweep_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            convergence_sweep(parse_family("legendre:p=7"), [15], None)
        with pytest.raises(ValueError):
            convergence_sweep(parse_family("mseq:n=3"), [1], None)
        with pytest.raises(ValueError, match="at least one size"):
            convergence_sweep(parse_family("mseq:n=3"), [], None)

    def test_sweep_checks_each_size_once_before_building(self, monkeypatch):
        calls = []
        check = families.check_odd_prime
        monkeypatch.setattr(families, "check_odd_prime", lambda p: calls.append(p) or check(p))
        rows = convergence_sweep(parse_family("legendre:p=3,shift=best"), [101, 211], None)
        assert [r.length for r in rows] == [101, 211]
        # the sweep checks both sizes before the first row is built; then
        # legendre, as a public builder, checks its own argument
        assert calls == [101, 211, 101, 211]

    def test_repeated_entries_are_built_once(self, monkeypatch):
        """A repeated size or length repeats its row: each distinct entry is
        realized, or composed and measured, once, and the list budget still
        sums every entry."""
        spec = parse_family("legendre:p=3,shift=best,resize=1.0578")
        once = convergence_sweep(spec, [101, 211], None)
        golay_once = report_pairs("golay", lengths=[2, 40, 10])
        calls = []
        for module, name in ((analysis, "_realize"), (golay, "compose_to_length"), (corr, "psc")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        assert convergence_sweep(spec, [101, 211, 101, 101], None) == [once[0], once[1], once[0], once[0]]
        assert calls == ["_realize"] * 2
        calls.clear()
        rows = report_pairs("golay", lengths=[2, 40, 2, 10, 40, 2])
        assert rows == [golay_once[i] for i in (0, 1, 0, 2, 1, 0)]
        assert calls == ["compose_to_length", "psc"] * 3
        limit = budget.BUDGETS["list length"]
        monkeypatch.setitem(budget.BUDGETS, "list length", limit._replace(limit=250))
        with pytest.raises(ValueError, match="list length 321"):
            convergence_sweep(spec, [101, 101, 101], None)  # 3 x 107 terms
        with pytest.raises(ValueError, match="list length 260"):
            report_pairs("golay", lengths=[40] * 6 + [20])

    def test_json_matches_rows(self):
        rows = convergence_sweep(parse_family("legendre:p=7"), [7, 11], None)
        data = json.loads(rows_to_json(rows))
        assert data[0]["length"] == 7 and data[1]["length"] == 11
        assert data[0]["target"] is None

    def test_report_golay_rows_exact(self):
        rows = report_pairs("golay", lengths=[2, 4, 8, 10, 16, 20])
        assert [r.length for r in rows] == [2, 4, 8, 10, 16, 20]
        for r in rows:
            assert r.psc == 1.0 and r.abs_err == 0.0
            assert r.adf_f == r.adf_g

    def test_report_typical_mseq(self):
        (row,) = report_pairs("typical_mseq", n=6, d=5)
        assert row.length == 63
        assert row.target == pytest.approx(4 / 3)
        with pytest.raises(ValueError):
            report_pairs("typical_mseq", n=6, d=8)  # power of 2
        with pytest.raises(ValueError):
            report_pairs("typical_mseq", n=6, d=-4)  # reversing, not typical

    def test_report_reversing_mseq(self):
        (row,) = report_pairs("reversing_mseq", n=6)
        assert row.length == 63
        assert row.target == pytest.approx(7 / 6)
        assert row.cdf < 1.2

    def test_report_half_legendre(self):
        (row,) = report_pairs("half_legendre", p=29)
        assert row.length == 14
        assert row.target == pytest.approx(7 / 6)

    def test_half_legendre_shift_minimizes_psc(self):
        for p in (13, 29, 37, 101):
            # (h^2 CDF, h^4 ADF_a ADF_b) at every shift: the score h^2 PSC
            # is c + sqrt(q), compared exactly
            h2 = ((p - 1) // 2) ** 2
            reports = [psc(*half_legendre_pair(p, r)) for r in range(p)]
            scores = [(int(rep.cdf * h2), int(rep.adf_f * h2) * int(rep.adf_g * h2)) for rep in reports]
            first = 0
            for r, score in enumerate(scores):
                if _exact_order(score, scores[first]) < 0:
                    first = r
            (row,) = report_pairs("half_legendre", p=p)
            assert row.params == f"p={p} shift={first}"
            assert row.psc == pytest.approx(reports[first].psc)
            # a later shift ties exactly: the reported one is the first of them
            assert any(_exact_order(score, scores[first]) == 0 for score in scores[first + 1 :])

    def test_report_quartic_and_mixed(self):
        (row,) = report_pairs("quartic_pair", p=29)
        assert row.length == 29
        (row2,) = report_pairs("legendre_plus_quartic", p=29)
        assert row2.length == 29
        with pytest.raises(ValueError):
            report_pairs("quartic_pair", p=31)  # 31 = 3 mod 4

    def test_report_rsl_pair(self):
        (row,) = report_pairs(
            "rsl_pair",
            seed_f=parse_line("++-+"),
            seed_g=parse_line("+-++"),
            signs=(1, 1, -1, 1, 1),
            depth=5,
        )
        assert row.length == 4 * 32
        assert row.target == pytest.approx(331 / 300)

    def test_report_unknown_construction(self):
        with pytest.raises(ValueError):
            report_pairs("bogus")
        with pytest.raises(ValueError):
            report_pairs("half_legendre", p=29, extra=1)
        for construction, params, missing in (
            ("typical_mseq", {"n": 5}, "d"),
            ("golay", {}, "lengths"),
            ("half_legendre", {}, "p"),
            ("rsl_pair", {"seed_f": parse_line("+"), "signs": (1,), "depth": 1}, "seed_g"),
        ):
            with pytest.raises(ValueError, match=missing):
                report_pairs(construction, **params)

    @pytest.mark.parametrize("construction", list(PAIR_CONSTRUCTIONS))
    def test_report_rejects_extra_keyword(self, construction):
        names = inspect.signature(PAIR_CONSTRUCTIONS[construction][0]).parameters
        with pytest.raises(ValueError, match=f"{construction}: .*unexpected keyword argument 'bogus'"):
            report_pairs(construction, bogus=1, **dict.fromkeys(names))

    def test_report_validates_parameters_by_name(self):
        with pytest.raises(ValueError, match="lengths"):
            report_pairs("golay", lengths=[])
        with pytest.raises(ValueError, match="k must be >= 0"):
            report_pairs("reversing_mseq", n=5, k=-1)
        seed = parse_line("+")
        with pytest.raises(ValueError, match="depth must be >= 0"):
            report_pairs("rsl_pair", seed_f=seed, seed_g=seed, signs=(1,), depth=-1)
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            report_pairs("rsl_pair", seed_f=seed, seed_g=seed, signs=(1,) * 21, depth=21)

    def test_reversing_mseq_rows_do_not_depend_on_k(self):
        # decimation by 2 fixes the m-sequence, so -2^k decimates as -1 does
        for n in range(5, 11):
            first, *rest = (report_pairs("reversing_mseq", n=n, k=k)[0] for k in range(n))
            for k, row in enumerate(rest, 1):
                assert row.params == first.params.replace("d=-2^0 ", f"d=-2^{k} ")
                assert replace(row, params=first.params) == first

    def test_reversing_mseq_large_k_wraps(self):
        # d = -2^k mod 2^n - 1 depends on k mod n only.
        (row,) = report_pairs("reversing_mseq", n=5, k=2)
        (wrapped,) = report_pairs("reversing_mseq", n=5, k=2 + 5 * 10**6)
        assert (wrapped.adf_f, wrapped.adf_g, wrapped.cdf) == (row.adf_f, row.adf_g, row.cdf)
