"""The budget table: each limit is accepted and one past it refused, at the
table and at the entry points that enforce it, and over-budget inputs are
refused before anything is built."""

import io
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqcorr import analysis, budget, cli, corr, families, golay, sequence
from seqcorr.budget import BUDGETS
from seqcorr.families import FamilySpec, parse_family
from seqcorr.sequence import BinarySequence

README = Path(__file__).resolve().parents[1] / "README.md"


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
        "census half-length": 20,
        "baseline work": 1 << 26,
        "pair file size": 1 << 22,
        "list length": 1 << 22,
    }


def test_readme_table_is_the_budget_table():
    """README's "Budgets" table lists every entry of BUDGETS, in order, each
    with its limit written as a power of two or a number."""
    section = README.read_text(encoding="utf-8").split("\n## Budgets\n")[1].split("\n## ")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("|")][2:]
    assert [name.strip() for name, _ in rows] == list(BUDGETS)
    for name, cell in rows:
        base, _, exponent = cell.strip().strip("`").partition("^")
        assert int(base) ** int(exponent or 1) == BUDGETS[name.strip()].limit, name


def test_budgets_keep_float64_sums_exact():
    """corr and analysis sum +-1 products in float64, exact while every
    partial sum is an integer below 2^53; these budgets bound those sums,
    and the int64 sums that the FFT check compares with."""
    assert limit("exact length") <= 2**53  # a direct correlation value: |C(s)| <= l
    # a walked ADF numerator, 2 sum_s (w-s)^2 < 2w^3/3: every walked window
    # has fewer than w = 2l terms
    w = 2 * limit("shift-search length")
    assert 2 * w**3 < 3 * 2**53
    m = limit("exact length")
    assert 2 * m**3 < 3 * 2**63  # an int64 ADF numerator of a shift search's window, N_m < 2m^3/3
    assert limit("shift-search length") ** 3 < 2**53  # a diagonal dot product, window <= l
    assert analysis._GRID_LENGTH**3 < 2**53  # a pair-grid entry
    # Full-period windows are read from periodic correlations (see analysis):
    # w_a(s) = C_a(s) - C_a(l-s), s <= (l-1)/2, whose rotation 0 is the V row,
    # has |w| <= (l-s) + s = l at every rotation a, and P, Q and PC are at most l.
    ell = limit("shift-search length")
    assert ell + 2 < 2**53  # a V value, |V| <= l, held in the kernel's float64 rows
    # a numerator w^f_a . w^g_a + PC^f . PC^g / 2, below l^3/2 (int64 in the
    # periodic engine, float64 in the walk that its wrap check falls back to)
    assert ell**3 < 2 * 2**53
    # the grid, summed in place in float64 from its second differences:
    # every partial sum is an entry, in [0, l^3), or a difference of two
    assert analysis._GRID_LENGTH**3 < 2 * 2**53
    # The bounds the periodic engine relies on, at shift-search length:
    assert ell**2 < 2**53  # a Hankel partial sum, sum_{j<a} y[j] Q(a+j), in float64: below l^2
    assert 2 * ell**2 < 2**53  # a direct kernel sum on a V or P row, l terms of at most l: below 2l^2
    assert 2 * ell**3 < 2**63  # corr._exact's int64 expect |sum x| |sum V| <= l * l^2 <= 2l^3


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
        (cross,) = analysis._numerators((ones, ones), ell, ((0, 1),))
        assert (ell * ell + cross == all_ones_numerator(ell)).all()
        longer = BinarySequence((1,) * (ell + 1))
        with pytest.raises(ValueError, match="shift-search budget"):
            analysis.best_pair_shifts(longer, longer)

    def test_exact_length_of_a_shift_search(self):
        m = limit("exact length")
        one = np.ones(1, dtype=np.int64)
        assert analysis.adf_numerators_all_shifts(one, m).tolist() == [m * (m - 1) * (2 * m - 1) // 3]
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            analysis.adf_numerators_all_shifts(one, m + 1)
        at = FamilySpec("legendre", 3, shift="best", resize_ratio=m / 3)
        assert families.realized_length(at) == m
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            families.realized_length(replace(at, resize_ratio=(m + 1) / 3))

    def test_pair_windows_at_shift_search_length(self):
        # a pair is walked at every m != l, so its window is a shift-search length
        m = limit("shift-search length")
        ones = np.ones(2, dtype=np.int64)
        (cross,) = analysis._numerators((ones, ones), m, ((0, 1),))
        assert (m * m + cross == all_ones_numerator(m)).all()
        with pytest.raises(ValueError, match="shift-search budget"):
            analysis._numerators((ones, ones), m + 1, ((0, 1),))

    def test_pair_grid_length(self):
        # not a budget: the crossover from the grid to the diagonal, exact at l^3 < 2^53
        ell = analysis._GRID_LENGTH
        ones = np.ones(ell, dtype=np.int64)
        grid = analysis._pair_grid(ones, ones)
        assert grid.shape == (ell, ell)
        assert (grid == all_ones_numerator(ell)).all()

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
    "golay_list": (lambda: analysis.report_pairs("golay", lengths=[1 << 20] * 5), "list budget"),
    "sweep_list": (lambda: analysis.convergence_sweep(parse_family("legendre:p=3"), [1048573] * 5, None),
                   "list budget"),
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


@pytest.mark.parametrize("call", [
    lambda: analysis.report_pairs("golay", lengths=[1 << 20] * 4),
    lambda: analysis.convergence_sweep(parse_family("legendre:p=3"), [1048573] * 4, None),
], ids=["golay", "sweep"])
def test_list_at_its_limit_reaches_the_builder(nothing_built, call):
    with pytest.raises(AssertionError, match="built before the budget check"):
        call()


# Each budget entry, and the argv of every command that refuses it one past its
# limit; {pair} is a pair file whose first line has exact length + 1 terms, and
# {big} one of pair file size + 1 characters.
CLI_REFUSALS = {
    "exact length": ("pairs golay --lengths 2097152", "correlate {pair}", "correlate --periodic {pair}",
                     "demerit {pair}", "golay verify {pair}",
                     "pairs rsl_pair --seeds {pair} --signs + --depth 0",
                     "generate legendre:p=3,shift=best,resize=400000"),  # m = 1.2e6
    "sequence length": ("generate mseq:n=25",),
    "shift-search length": ("generate legendre:p=16411,shift=best",),
    "census half-length": ("seed-search --max-len 41",),
    "baseline work": ("baseline --len 1024 --trials 65537",),
    "pair file size": ("demerit {big}",),
    "list length": ("pairs golay --lengths 1048576,1048576,1048576,1048576,1048576",
                    "sweep legendre:p=3 --sizes 1048573,1048573,1048573,1048573,1048573"),
}


def test_every_budget_entry_has_a_cli_refusal():
    assert CLI_REFUSALS.keys() == BUDGETS.keys()


@pytest.fixture(scope="module")
def over_exact_pair(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs") / "over.txt"
    path.write_text("+-" * (limit("exact length") // 2) + "+\n+\n")
    return path


@pytest.fixture(scope="module")
def over_size_pair(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs") / "big.txt"
    path.write_text("#" * limit("pair file size") + "\n")  # one long comment line
    return path


@pytest.mark.parametrize("name,argv", [(name, argv) for name, argvs in CLI_REFUSALS.items() for argv in argvs])
def test_cli_refuses_before_building(nothing_built, monkeypatch, capsys, over_exact_pair, over_size_pair,
                                     name, argv):
    def built(*args, **kwargs):
        raise AssertionError("a sequence line parsed before the budget check")

    monkeypatch.setattr(sequence, "parse_line", built)
    entry = BUDGETS[name]
    start = time.perf_counter()
    code = cli.main([arg.format(pair=over_exact_pair, big=over_size_pair) for arg in argv.split()])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} ") and err.endswith(f" exceeds the {entry.phrase} {entry.limit}\n")
    assert "Traceback" not in err
    if "{pair}" in argv:
        assert err == f"error: exact length {entry.limit + 1} exceeds the exact-arithmetic budget {entry.limit}\n"
    if "{big}" in argv:
        assert err == f"error: pair file size at least {entry.limit + 1} exceeds the pair-file budget {entry.limit}\n"
    assert elapsed < 1


def test_pair_file_at_exact_length_passes(capsys, tmp_path):
    rng = np.random.default_rng(5)
    lines = ("".join(np.where(rng.integers(0, 2, limit("exact length")) > 0, "+", "-")) for _ in range(2))
    path = tmp_path / "at.txt"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["demerit", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith(f"length = {limit('exact length')}\n")


class EndlessText(io.TextIOBase):
    """An endless text stream of one repeated unit, such as /dev/zero or
    `yes '#'` gives, that fails the test rather than serve more than 8 times
    the pair file size."""

    def __init__(self, unit):
        self.unit, self.served = unit, 0

    def _next(self, size, line):
        most = 8 * limit("pair file size")
        size = most + 1 if size < 0 else size
        start = self.served % len(self.unit)
        if line and "\n" in self.unit:  # up to the next line end
            size = min(size, (self.unit[start:] + self.unit).index("\n") + 1)
        text = (self.unit * (size // len(self.unit) + 2))[start:start + size]
        self.served += len(text)
        if self.served > most:
            raise AssertionError(f"served {self.served} characters of an endless input")
        return text

    def read(self, size=-1):
        return self._next(size, False)

    def readline(self, size=-1):
        return self._next(size, True)


@pytest.mark.parametrize("unit", ["\0", "#\n", "\n"], ids=["nul", "comments", "blanks"])
@pytest.mark.parametrize("argv", ["demerit F", "correlate F", "golay verify F",
                                  "pairs rsl_pair --seeds F --signs + --depth 0"])
def test_endless_inputs_end(monkeypatch, capsys, unit, argv):
    monkeypatch.setattr(sequence, "open", lambda *args, **kwargs: EndlessText(unit), raising=False)
    start = time.perf_counter()
    code = cli.main(argv.split())
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: pair file size ")
    assert err.endswith(f" exceeds the pair-file budget {limit('pair file size')}\n")
    assert elapsed < 1


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_dev_zero_ends(capsys):
    start = time.perf_counter()
    assert cli.main(["demerit", "/dev/zero"]) == 2
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: pair file size ") and elapsed < 1
