import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcorr import (
    BinarySequence,
    adf,
    analysis,
    cdf,
    corr,
    cyclic_shift,
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
    cdf_numerators_diagonal,
    cdf_numerators_grid,
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

from oracles import SplitMix64, oracle_adf, oracle_cdf, random_sequence


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
            grid = cdf_numerators_grid(f.terms, g.terms)
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
            grid = cdf_numerators_grid(f.terms, g.terms)
            diag = cdf_numerators_diagonal(f.terms, g.terms)
            assert np.array_equal(np.diag(grid), diag)

    def test_diagonal_window_matches_oracle(self):
        rng = random.Random(67)
        for _ in range(8):
            ell = rng.randrange(2, 13)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            for m in range(1, ell):
                diag = cdf_numerators_diagonal(f.terms, g.terms, m)
                for r in range(ell):
                    expect = oracle_cdf(resize(cyclic_shift(f, r), m), resize(cyclic_shift(g, r), m))
                    assert Fraction(int(diag[r]), m * m) == expect
        with pytest.raises(ValueError):
            cdf_numerators_diagonal(f.terms, g.terms, ell + 1)

    def test_engine_input_validation(self):
        arr = np.ones(5, dtype=np.int64)
        for m in (0, -3):
            with pytest.raises(ValueError):
                adf_numerators_all_shifts(arr, m)
        with pytest.raises(ValueError):
            cdf_numerators_grid(arr, np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            cdf_numerators_diagonal(arr, np.ones(6, dtype=np.int64))
        with pytest.raises(ValueError):
            cdf_numerators_diagonal(arr, np.ones(4, dtype=np.int64), 2)

    def test_walk_seeded_above_fft_crossover(self):
        rng = random.Random(68)
        f = random_sequence(rng, 600)
        g = random_sequence(rng, 600)
        assert 600 >= corr._FFT_MIN_LEN  # the first rotation is correlated on the FFT path
        nums = adf_numerators_all_shifts(f.terms, 650)
        diag = cdf_numerators_diagonal(f.terms, g.terms, 600)
        for r in (0, 1, 2, 299, 598, 599):
            fr, gr = cyclic_shift(f, r), cyclic_shift(g, r)
            assert Fraction(int(nums[r]), 650 * 650) == adf(resize(fr, 650))
            assert Fraction(int(diag[r]), 600 * 600) == cdf(fr, gr)

    def test_budgets(self):
        big = np.ones(1 << 15, dtype=np.int64)
        with pytest.raises(ValueError):
            adf_numerators_all_shifts(big)
        with pytest.raises(ValueError):
            cdf_numerators_grid(np.ones(513, dtype=np.int64), np.ones(513, dtype=np.int64))


def _pm1(min_size, max_size):
    return st.lists(st.sampled_from((1, -1)), min_size=min_size, max_size=max_size).map(
        lambda terms: BinarySequence(tuple(terms))
    )


class TestEngineProperties:
    """The all-shift engines against the brute-force oracles, on the
    materialised resize(cyclic_shift(...)) sequences."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 24).flatmap(lambda n: st.tuples(_pm1(n, n), st.integers(1, 2 * n + 3))))
    @example(case=(BinarySequence((1,)), 1))  # l = m = 1: the lag vector is empty
    def test_adf_all_shifts(self, case):
        f, m = case
        nums = adf_numerators_all_shifts(f.terms, m)
        assert nums.shape == (len(f),) and nums.dtype == np.int64
        for r in range(len(f)):
            assert Fraction(int(nums[r]), m * m) == oracle_adf(resize(cyclic_shift(f, r), m))

    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 20).flatmap(
        lambda n: st.tuples(_pm1(n, n), _pm1(n, n), st.integers(1, n))))
    @example(case=(BinarySequence((1,)), BinarySequence((-1,)), 1))
    def test_diagonal_windows(self, case):
        f, g, m = case
        diag = cdf_numerators_diagonal(f.terms, g.terms, m)
        assert diag.shape == (len(f),) and diag.dtype == np.int64
        for r in range(len(f)):
            expect = oracle_cdf(resize(cyclic_shift(f, r), m), resize(cyclic_shift(g, r), m))
            assert Fraction(int(diag[r]), m * m) == expect

    @settings(max_examples=30, deadline=None)
    @given(fg=st.integers(1, 12).flatmap(lambda n: st.tuples(_pm1(n, n), _pm1(n, n))))
    def test_grid(self, fg):
        f, g = fg
        ell = len(f)
        grid = cdf_numerators_grid(f.terms, g.terms)
        assert grid.shape == (ell, ell) and grid.dtype == np.int64
        for rf in range(ell):
            for rg in range(ell):
                expect = oracle_cdf(cyclic_shift(f, rf), cyclic_shift(g, rg))
                assert Fraction(int(grid[rf, rg]), ell * ell) == expect


class TestShiftSearch:
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
        (rf, rg), val = best_pair_shifts(f, g, "cdf")
        brute = min(
            (float(cdf(cyclic_shift(f, a), cyclic_shift(g, b))), a, b)
            for a in range(8)
            for b in range(8)
        )
        assert (brute[1], brute[2]) == (rf, rg)
        assert val == pytest.approx(brute[0])

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

    @pytest.mark.parametrize("length", [1, 40, 64, 700])  # 700 is above the FFT crossover
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
        for p in (13, 29, 37):
            (row,) = report_pairs("half_legendre", p=p)
            brute = min(psc(*half_legendre_pair(p, r)).psc for r in range(p))
            assert row.psc == pytest.approx(brute)

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
        _, names, _ = PAIR_CONSTRUCTIONS[construction]
        with pytest.raises(ValueError, match="unexpected bogus"):
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

    def test_reversing_mseq_large_k_wraps(self):
        # d = -2^k mod 2^n - 1 depends on k mod n only.
        (row,) = report_pairs("reversing_mseq", n=5, k=2)
        (wrapped,) = report_pairs("reversing_mseq", n=5, k=2 + 5 * 10**6)
        assert (wrapped.adf_f, wrapped.adf_g, wrapped.cdf) == (row.adf_f, row.adf_g, row.cdf)
