"""The budget table: each limit is accepted and one past it refused, at the
table and at the entry points that enforce it, and over-budget inputs are
refused before anything is built."""

import time

import numpy as np
import pytest

from seqcorr import analysis, budget, corr, families, golay
from seqcorr.budget import BUDGETS
from seqcorr.families import FamilySpec, parse_family
from seqcorr.sequence import BinarySequence


def limit(name):
    return BUDGETS[name].limit


@pytest.mark.parametrize("name", list(BUDGETS))
def test_table_boundary(name):
    entry = BUDGETS[name]
    budget.check(name, entry.limit)
    with pytest.raises(ValueError) as err:
        budget.check(name, entry.limit + 1)
    assert str(err.value) == f"{name} {entry.limit + 1} exceeds the {entry.phrase} {entry.limit}"


def test_table_values():
    assert {name: entry.limit for name, entry in BUDGETS.items()} == {
        "exact length": 1 << 20,
        "sequence length": 1 << 24,
        "shift-search length": 1 << 14,
        "shift-search window": 1 << 15,
        "pair-grid length": 512,
        "census half-length": 20,
        "baseline work": 1 << 26,
    }


def test_budgets_keep_float64_sums_exact():
    """corr and analysis sum +-1 products in float64, exact while every
    partial sum is an integer below 2^53; these budgets bound those sums."""
    assert limit("exact length") <= 2**53  # a direct correlation value: |C(s)| <= l
    w = limit("shift-search window")
    assert 2 * w**3 < 3 * 2**53  # an ADF numerator: 2 sum_s (w-s)^2 < 2w^3/3
    assert limit("shift-search length") ** 3 < 2**53  # a diagonal dot product, window <= l
    assert limit("pair-grid length") ** 3 < 2**53  # a pair-grid entry
    # Full-period windows walk the folded v(s) = C(s) - C(l-s), s <= (l-1)/2:
    # |v(s)| <= (l-s) + s = l, so the sums of products stay below (l-1)/2 * l^2.
    ell = limit("shift-search length")
    assert ell + 2 < 2**53  # a folded lag between the walk's two adds of +-2
    assert ell**3 < 2 * 2**53  # sum v^2, an ADF or diagonal product: below l^3/2
    assert limit("pair-grid length") ** 3 < 2 * 2**53  # a folded grid product: below l^3/2


def all_ones_numerator(m):
    """m^2 + 2 sum_{s=1}^{m-1} (m-s)^2: the CDF numerator of two all-ones
    windows, each lag's correlation at its largest."""
    return m * m + (m - 1) * m * (2 * m - 1) // 3


class TestEntryPointBoundaries:
    def test_exact_length(self):
        one = np.ones(1, dtype=np.int64)
        assert len(corr._corr(np.ones(limit("exact length"), dtype=np.int64), one)) == 1 << 20
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            corr._corr(np.ones(limit("exact length") + 1, dtype=np.int64), one)

    def test_stems_refused_past_exact_length(self):
        seed = BinarySequence((1, -1))
        assert len(golay.rsl_stem(seed, (1,) * 19, 19)) == limit("exact length")
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            golay.rsl_stem(seed, (1,) * 20, 20)

    def test_sequence_length(self):
        assert families.binary_field_order(24) == (1 << 24) - 1
        with pytest.raises(ValueError, match=r"2\^25 - 1 exceeds the field-size limit"):
            families.binary_field_order(25)
        with pytest.raises(ValueError, match="not an odd prime"):  # the budget let it through
            families.legendre(limit("sequence length"))
        with pytest.raises(ValueError, match="field-size limit"):
            families.legendre(limit("sequence length") + 1)

    def test_resized_length(self):
        base = families.binary_field_order(20)
        at = FamilySpec("mseq", 20, resize_ratio=limit("sequence length") / base)
        assert families.realized_length(at) == limit("sequence length")
        over = FamilySpec("mseq", 20, resize_ratio=(limit("sequence length") + 1) / base)
        with pytest.raises(ValueError, match=rf"sequence length \S+ \* {base} exceeds the field-size limit"):
            families.realized_length(over)

    def test_shift_search_length(self):
        ell = limit("shift-search length")
        assert len(analysis.adf_numerators_all_shifts(np.ones(ell, dtype=np.int64), 1)) == ell
        with pytest.raises(ValueError, match="shift-search budget"):
            analysis.adf_numerators_all_shifts(np.ones(ell + 1, dtype=np.int64), 1)

    def test_diagonal_at_shift_search_length(self):
        ell = limit("shift-search length")
        ones = np.ones(ell, dtype=np.int64)
        (cross,) = analysis._lockstep_numerators(ones, ones, ell, ((0, 1),))
        assert (ell * ell + cross == all_ones_numerator(ell)).all()
        longer = BinarySequence((1,) * (ell + 1))
        with pytest.raises(ValueError, match="shift-search budget"):
            analysis.best_pair_shifts(longer, longer)

    def test_shift_search_window(self):
        m = limit("shift-search window")
        one = np.ones(1, dtype=np.int64)
        assert analysis.adf_numerators_all_shifts(one, m).tolist() == [m * (m - 1) * (2 * m - 1) // 3]
        with pytest.raises(ValueError, match="shift-search budget"):
            analysis.adf_numerators_all_shifts(one, m + 1)

    def test_pair_grid_length(self):
        ell = limit("pair-grid length")
        ones = np.ones(ell, dtype=np.int64)
        grid = analysis._pair_grid(ones, ones)
        assert grid.shape == (ell, ell)
        assert (grid == all_ones_numerator(ell)).all()
        with pytest.raises(ValueError, match="pair-grid budget"):
            analysis._pair_grid(np.ones(ell + 1, dtype=np.int64), np.ones(ell + 1, dtype=np.int64))

    def test_census_half_length(self):
        golay.check_census_length(2 * limit("census half-length"))
        with pytest.raises(ValueError, match="census length budget"):
            golay.check_census_length(2 * limit("census half-length") + 1)
        with pytest.raises(ValueError, match="census length budget"):
            golay.search_golay_pairs(limit("census half-length") + 1)

    def test_baseline_work(self):
        # a run at the limit takes seconds; the first unit past it is refused at once
        with pytest.raises(ValueError, match="baseline budget"):
            analysis.monte_carlo_baseline(1, limit("baseline work") // 64 + 1, 1)
        with pytest.raises(ValueError, match="baseline budget"):
            analysis.monte_carlo_baseline(1024, limit("baseline work") // 1024 + 1, 1)


@pytest.fixture
def nothing_built(monkeypatch):
    """Every sequence or pair builder the composite entry points reach raises."""
    def built(*args, **kwargs):
        raise AssertionError("built before the budget check")

    for module, name in ((families, "msequence"), (families, "legendre"),
                         (families, "make_prime_field"), (golay, "compose_to_length"),
                         (analysis, "random_rows")):
        monkeypatch.setattr(module, name, built)


SEED = BinarySequence((1,))

REFUSED_BEFORE_BUILDING = {
    "realize_mseq_best": (lambda: analysis.realize(parse_family("mseq:n=24,shift=best")),
                          "shift-search budget"),
    "realize_resize": (lambda: analysis.realize(parse_family("legendre:p=1019,resize=1e12")),
                       "field-size limit"),
    "sweep_last_size": (lambda: analysis.convergence_sweep(
        parse_family("legendre:p=3,shift=best"), [101, 16411], None), "shift-search budget"),
    "sweep_exact": (lambda: analysis.convergence_sweep(parse_family("mseq:n=2"), [3, 24], None),
                    "exact-arithmetic budget"),
    "sweep_not_prime": (lambda: analysis.convergence_sweep(
        parse_family("legendre:p=3,shift=best"), [16381, 16382], None), "not an odd prime"),
    "sweep_quartic_residue": (lambda: analysis.convergence_sweep(
        parse_family("quartic_f:p=5"), [13, 7], None), "p = 1 mod 4"),
    "sweep_char_shift": (lambda: analysis.convergence_sweep(
        parse_family("mseq:n=3,char=40"), [18, 5], None), "not a nonzero field element"),
    "typical_exact": (lambda: analysis.report_pairs("typical_mseq", n=21, d=11),
                      "exact-arithmetic budget"),
    "typical_decimation": (lambda: analysis.report_pairs("typical_mseq", n=20, d=5),
                           "not invertible"),
    "reversing": (lambda: analysis.report_pairs("reversing_mseq", n=24, k=1),
                  "shift-search budget"),
    "half_legendre": (lambda: analysis.report_pairs("half_legendre", p=16411),
                      "shift-search budget"),
    "quartic_pair": (lambda: analysis.report_pairs("quartic_pair", p=16421),
                     "shift-search budget"),
    "legendre_plus_quartic": (lambda: analysis.report_pairs("legendre_plus_quartic", p=16421),
                              "shift-search budget"),
    "golay_lengths": (lambda: analysis.report_pairs("golay", lengths=[1 << 20, 1 << 21]),
                      "exact-arithmetic budget"),
    "golay_form": (lambda: analysis.report_pairs("golay", lengths=[1 << 20, 3]),
                   "not of the form"),
    "rsl_pair": (lambda: analysis.report_pairs("rsl_pair", seed_f=SEED, seed_g=SEED,
                                               signs=(1,) * 21, depth=21),
                 "exact-arithmetic budget"),
    "baseline_work": (lambda: analysis.monte_carlo_baseline(1024, 10**9, 1), "baseline budget"),
    "baseline_exact": (lambda: analysis.monte_carlo_baseline((1 << 20) + 1, 1, 1),
                       "exact-arithmetic budget"),
}


@pytest.mark.parametrize("case", list(REFUSED_BEFORE_BUILDING))
def test_refused_before_building(nothing_built, case):
    call, phrase = REFUSED_BEFORE_BUILDING[case]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=phrase):
        call()
    assert time.perf_counter() - start < 1
