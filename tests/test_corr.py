import ast
import contextlib
import io
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcorr import (
    BinarySequence,
    adf,
    aperiodic_xcorr,
    cdf,
    periodic_xcorr,
    psc,
)
from seqcorr import cli, corr
from seqcorr.budget import BUDGETS
from seqcorr.sequence import dump_sequences, load_pair, parse_line

from oracles import (
    oracle_adf,
    oracle_cdf,
    oracle_l4l2_adf,
    oracle_periodic,
    oracle_psc_at_least_one,
    oracle_spectrum,
    random_sequence,
)

PLUS = BinarySequence((1,))
RS2 = BinarySequence((1, 1, 1, -1))


def seq(text):
    return parse_line(text)


class TestBinarySequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinarySequence(())

    def test_rejects_non_unit_terms(self):
        with pytest.raises(ValueError):
            BinarySequence((1, 0, -1))

    def test_text_round_trip(self):
        s = seq("+--+-")
        assert s.terms.tolist() == [1, -1, -1, 1, -1]
        assert s.to_line() == "+--+-"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_line("+-x")
        with pytest.raises(ValueError):
            parse_line("")

    def test_file_format_skips_comments(self, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("# header\n++\n\n# middle\n+-\n")
        seqs = load_pair(path)
        assert [s.to_line() for s in seqs] == ["++", "+-"]
        assert dump_sequences(seqs, comment="header").startswith("# header\n++")


class TestAperiodicXcorr:
    def test_single_term_identity(self):
        assert aperiodic_xcorr(PLUS, PLUS).values == {0: 1}

    def test_two_term_example(self):
        spec = aperiodic_xcorr(seq("++"), seq("+-"))
        assert spec.values == {-1: -1, 0: 0, 1: 1}

    def test_rudin_shapiro_autocorrelation(self):
        spec = aperiodic_xcorr(RS2, RS2)
        assert spec.values == {-3: -1, -2: 0, -1: 1, 0: 4, 1: 1, 2: 0, 3: -1}

    def test_matches_oracle_including_unequal_lengths(self):
        rng = random.Random(101)
        for _ in range(40):
            f = random_sequence(rng, rng.randrange(1, 20))
            g = random_sequence(rng, rng.randrange(1, 20))
            assert aperiodic_xcorr(f, g).values == oracle_spectrum(f, g)

    def test_symmetry_against_reversed_arguments(self):
        rng = random.Random(102)
        for _ in range(25):
            f = random_sequence(rng, rng.randrange(1, 16))
            g = random_sequence(rng, rng.randrange(1, 16))
            fg = aperiodic_xcorr(f, g)
            gf = aperiodic_xcorr(g, f)
            for s, v in fg.values.items():
                assert v == gf.values[-s]

    def test_support_and_magnitude_bounds(self):
        rng = random.Random(103)
        for _ in range(20):
            f = random_sequence(rng, rng.randrange(1, 24))
            g = random_sequence(rng, rng.randrange(1, 24))
            spec = aperiodic_xcorr(f, g)
            assert list(spec.values) == list(range(-(len(g) - 1), len(f)))
            for s, v in spec.values.items():
                assert abs(v) <= min(len(f), len(g), len(f) - s, len(g) + s)

    def test_shift_zero_energy_is_length(self):
        rng = random.Random(104)
        for _ in range(10):
            f = random_sequence(rng, rng.randrange(1, 40))
            assert aperiodic_xcorr(f, f).values[0] == len(f)


# X is the shortest length whose correlation with another of its length (one
# product) takes the FFT path.  N is the longest length whose correlation
# with another of its length is transformed at 1024 points, 2N - 1 < 1024 <
# 2(N + 1) - 1: one product takes the direct path there, a stack of five
# the FFT.
X = corr._DIRECT_WORK + 1
N = 512


def spectrum_of(c, len_g):
    return {s - (len_g - 1): v for s, v in enumerate(c.tolist())}


class TestKernel:
    """corr._corr on both sides of the FFT crossover."""

    @pytest.mark.parametrize(
        "len_f, len_g",
        [
            (1, 1), (N - 1, N - 1), (N, N), (N + 1, N + 1), (N + 37, N), (N, N + 3), (N + 5, 3),
            (X - 1, X - 1), (X, X), (X + 37, X), (X + 5, 3),
        ],
    )
    def test_matches_oracle(self, len_f, len_g):
        rng = random.Random(len_f * 1000 + len_g)
        f = random_sequence(rng, len_f)
        g = random_sequence(rng, len_g)
        c = corr._corr(f.terms, g.terms)
        assert c.dtype == np.int64
        assert spectrum_of(c, len_g) == oracle_spectrum(f, g)

    @pytest.mark.parametrize("ell", [1, N - 1, N, N + 1, X - 1, X])
    def test_autocorrelation_of_one_array(self, ell):
        f = random_sequence(random.Random(ell), ell)
        arr = f.terms
        c = corr._corr(arr, arr)
        assert c.dtype == np.int64
        assert spectrum_of(c, ell) == oracle_spectrum(f, f)

    def test_crossover_selects_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        below = rng.choice([-1, 1], X - 1).astype(np.int64)
        at = rng.choice([-1, 1], X).astype(np.int64)
        expected = np.correlate(at, at, mode="full")

        def no_direct(*args, **kwargs):
            raise AssertionError("direct correlation called")

        monkeypatch.setattr(np, "correlate", no_direct)
        assert np.array_equal(corr._corr(at, at), expected)
        with pytest.raises(AssertionError):
            corr._corr(below, below)
        # one product decides on its shorter length: 3 terms against many
        # stay direct
        with pytest.raises(AssertionError):
            corr._corr(rng.choice([-1, 1], 50 * X).astype(np.int64), at[:3])

    def test_demerit_factors_above_crossover(self):
        rng = random.Random(600)
        f = random_sequence(rng, X + 31)
        g = random_sequence(rng, X + 31)
        assert adf(f) == oracle_adf(f)
        assert cdf(f, g) == oracle_cdf(f, g)

    def test_length_budget_checked_first(self):
        big = np.ones(BUDGETS["exact length"].limit + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            corr._corr(big, big[:X])


class TestStackedKernel:
    # five products: direct while 5 l <= corr._DIRECT_WORK, to l = 153
    @pytest.mark.parametrize("ell", [1, 2, 63, 153, 154, N - 1, N, 700])
    @pytest.mark.parametrize("auto", [True, False])
    def test_rows_equal_one_dimensional_calls(self, ell, auto):
        rng = np.random.default_rng(ell)
        a = rng.choice([-1, 1], (5, ell)).astype(np.int64)
        b = a if auto else rng.choice([-1, 1], (5, ell)).astype(np.int64)
        c = corr._corr(a, b)
        assert c.dtype == np.int64 and c.shape == (5, 2 * ell - 1)
        for x, y, row in zip(a, b, c):
            assert np.array_equal(row, corr._corr(x, y))


class TestKernelGuard:
    """A wrong FFT result is caught and replaced by the direct one, for each
    kind of kernel call."""

    @pytest.fixture
    def perturbed(self, monkeypatch, request):
        """Counts of [irfft, np.correlate] calls, with irfft's shift-0 value
        moved by request.param."""
        delta, calls = request.param, [0, 0]
        real_irfft, real_correlate = np.fft.irfft, np.correlate

        def irfft(*args, **kwargs):
            calls[0] += 1
            out = real_irfft(*args, **kwargs)
            rows = out.reshape(-1, out.shape[-1])
            rows[0, 0] += delta
            if len(rows) > 1:  # rows 0 and 1 cancel, so only a per-row check sees them
                rows[1, 0] -= delta
            return out

        def correlate(*args, **kwargs):
            calls[1] += 1
            return real_correlate(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft)
        monkeypatch.setattr(np, "correlate", correlate)
        return calls

    # 0.3 fails the rounding margin; 1.0 rounds cleanly and fails the sum identity
    deltas = pytest.mark.parametrize("perturbed", [0.3, 1.0], indirect=True, ids=["0.3", "1.0"])

    @deltas
    @pytest.mark.parametrize("auto", [True, False])
    def test_perturbed_inverse_falls_back(self, perturbed, auto):
        rng = np.random.default_rng(11)
        a = rng.choice([-1, 1], 2 * X).astype(np.int64)
        b = a if auto else rng.choice([-1, 1], 2 * X).astype(np.int64)
        expected = np.correlate(a, b, mode="full")
        perturbed[:] = [0, 0]
        c = corr._corr(a, b)
        assert perturbed == [1, 1]  # one transform round, then the direct path
        assert c.dtype == np.int64
        assert np.array_equal(c, expected)

    @deltas
    @pytest.mark.parametrize("auto", [True, False])
    def test_perturbed_inverse_falls_back_on_a_stack(self, perturbed, auto):
        rng = np.random.default_rng(12)
        a = rng.choice([-1, 1], (3, 300)).astype(np.int64)
        b = a if auto else rng.choice([-1, 1], (3, 300)).astype(np.int64)
        expected = np.array([np.correlate(x, y, mode="full") for x, y in zip(a, b)])
        perturbed[:] = [0, 0]
        c = corr._corr(a, b)
        assert perturbed == [1, 3]
        assert c.dtype == np.int64
        assert np.array_equal(c, expected)

    @deltas
    def test_perturbed_inverse_falls_back_on_products(self, perturbed):
        """A products call whose rows repeat, with a convolution (a reversed
        row), on float64 rows as the engines pass them."""
        rng = np.random.default_rng(13)
        rows = rng.choice([-1.0, 1.0], (3, 300))
        rows[2] = np.cumsum(rows[2])  # integers beyond +-1
        products = [(0, 1), (0, 0), (2, 0), (1, ~2), (0, 1)]
        expected = np.array([np.correlate(rows[i], rows[j], mode="full") for i, j in products[:3]]
                            + [np.convolve(rows[1], rows[2]), np.correlate(rows[0], rows[1], mode="full")])
        perturbed[:] = [0, 0]
        c = corr._correlations(rows, products)
        assert perturbed == [1, len(products)]
        assert c.dtype == np.int64
        assert np.array_equal(c, expected)


class TestProductsKernel:
    @pytest.mark.parametrize("ell", [1, 40, 300])  # direct, then FFT
    def test_rows_equal_one_dimensional_calls(self, ell):
        """Repeated rows and products, and convolutions: ~j names row j
        reversed."""
        rng = np.random.default_rng(ell)
        rows = rng.choice([-1, 1], (4, ell)).astype(np.int64)
        products = [(0, 0), (1, 0), (0, 1), (3, 3), (2, 0), (0, 0), (0, ~1), (2, ~2)]
        c = corr._correlations(rows, products)
        assert c.dtype == np.int64 and c.shape == (len(products), 2 * ell - 1)
        for (i, j), row in zip(products, c):
            expect = corr._corr(rows[i], rows[j]) if j >= 0 else np.convolve(rows[i], rows[~j])
            assert np.array_equal(row, expect)
        long = rng.choice([-1, 1], (2, ell + X)).astype(np.int64)  # one convolution, by FFT
        assert np.array_equal(corr._correlations(long, [(1, ~0)])[0], np.convolve(long[1], long[0]))

    def test_only_the_kernel_transforms(self):
        """Every FFT output passes one check: numpy.fft is used only by
        corr._correlations and by the circular block sums of
        analysis._hankel_prefix_sums, and only corr._exact rounds."""
        names = set(np.fft.__all__)
        users, rounders = set(), set()

        def scan(node, module, scope):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
                if (
                    isinstance(child, ast.Attribute) and child.attr in names
                    or isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy")
                    and ("fft" in (child.module or "") or any(a.name == "fft" for a in child.names))
                ):
                    users.add((module, scope))
                if isinstance(child, ast.Attribute) and child.attr in ("rint", "round", "around"):
                    rounders.add((module, scope))
                scan(child, module, inner)

        for path in sorted(Path(corr.__file__).parent.glob("*.py")):
            scan(ast.parse(path.read_text()), path.stem, None)
        assert users == {("corr", "_correlations"), ("analysis", "_hankel_prefix_sums")}
        assert rounders == {("corr", "_exact")}


class TestPeriodicXcorr:
    def test_single_term(self):
        assert periodic_xcorr(PLUS, PLUS).values == {0: 1}

    def test_legendre7_two_level(self):
        h = seq("+++-+--")
        spec = periodic_xcorr(h, h)
        assert spec.values == {0: 7, **dict.fromkeys(range(1, 7), -1)}

    def test_periodic_equals_aperiodic_identity(self):
        rng = random.Random(105)
        for _ in range(20):
            ell = rng.randrange(1, 24)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            ap = aperiodic_xcorr(f, g).values
            pe = periodic_xcorr(f, g).values
            for s in range(ell):
                assert pe[s] == ap[s] + ap.get(s - ell, 0)

    def test_length_eight_instance(self):
        rng = random.Random(106)
        f = random_sequence(rng, 8)
        g = random_sequence(rng, 8)
        ap = aperiodic_xcorr(f, g).values
        assert periodic_xcorr(f, g).values[3] == ap[3] + ap[-5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            periodic_xcorr(seq("++"), seq("+"))

    @settings(max_examples=30, deadline=None)
    @given(ell=st.one_of(st.integers(1, 40),
                         st.integers(X - 24, X + 24)),
           seed=st.integers(0, 2**32))
    def test_matches_oracle_across_kernel_crossover(self, ell, seed):
        rng = random.Random(seed)
        f = random_sequence(rng, ell)
        g = random_sequence(rng, ell)
        if g == f:
            g = BinarySequence(np.concatenate(([-g.terms[0]], g.terms[1:])))
        spec = periodic_xcorr(f, g)
        assert list(spec.values) == list(range(ell))
        assert spec.values == oracle_periodic(f, g)


class TestSpectrumArray:
    """A spectrum holds the kernel's read-only int64 array and its lowest
    shift; its values dict is built once, on first read."""

    # lengths on both sides of the kernel's FFT crossover
    LENGTHS = [(1, 1), (5, 3), (3, 5), (17, 17), (X, X), (X + 9, X - 4)]

    @pytest.mark.parametrize("lf, lg", LENGTHS)
    def test_read_only_int64_array_from_lowest_shift(self, lf, lg):
        rng = random.Random(112 + lf + lg)
        f, g = random_sequence(rng, lf), random_sequence(rng, lg)
        spectra = [(aperiodic_xcorr(f, g), 1 - lg, lf + lg - 1)]
        if lf == lg:
            spectra.append((periodic_xcorr(f, g), 0, lf))
        for spec, first, size in spectra:
            assert spec.first == first
            assert spec.array.dtype == np.int64 and spec.array.shape == (size,)
            assert not spec.array.flags.writeable
            with pytest.raises(ValueError):
                spec.array[0] = 0

    @pytest.mark.parametrize("lf, lg", LENGTHS)
    def test_values_match_oracle_and_are_built_once(self, lf, lg):
        rng = random.Random(113 + lf + lg)
        f, g = random_sequence(rng, lf), random_sequence(rng, lg)
        spec = aperiodic_xcorr(f, g)
        assert spec.values == oracle_spectrum(f, g)
        assert list(spec.values) == list(range(1 - lg, lf))
        assert spec.values is spec.values
        if lf == lg:
            pe = periodic_xcorr(f, g)
            assert pe.values == oracle_periodic(f, g)
            assert pe.values is pe.values

    # Peak bytes a row of `correlate` at 2^16 terms: writing the rows from the
    # array peaks near 100 B a row aperiodic and 111 B periodic, and building
    # the shift -> int dict first near 132 and 139 B.
    @pytest.mark.parametrize("extra, rows, per_row", [([], 2 * (1 << 16) - 1, 116), (["--periodic"], 1 << 16, 125)])
    def test_correlate_writes_rows_without_a_dict(self, tmp_path, extra, rows, per_row):
        rng = np.random.default_rng(31)
        path = tmp_path / "pair.txt"
        path.write_text(dump_sequences([BinarySequence(rng.choice((1, -1), 1 << 16)) for _ in range(2)]))
        argv = ["correlate", str(path), *extra]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(argv)  # warm: imports and the FFT plans
            tracemalloc.start()
            try:
                rc = cli.main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert rc == 0 and out.getvalue().count("\n") == 2 * (rows + 1)
        assert peak <= per_row * rows

class TestDemeritFactors:
    def test_adf_examples(self):
        assert adf(PLUS) == 0
        assert adf(RS2) == Fraction(1, 4)
        assert adf(seq("++++")) == Fraction(7, 4)

    def test_adf_is_cdf_self_minus_one(self):
        rng = random.Random(107)
        for _ in range(25):
            f = random_sequence(rng, rng.randrange(1, 32))
            assert cdf(f, f) - 1 == adf(f)

    def test_cdf_examples(self):
        assert cdf(PLUS, PLUS) == 1
        assert cdf(seq("++++"), seq("+-+-")) == Fraction(1, 4)
        assert cdf(seq("++"), seq("+-")) == Fraction(1, 2)

    def test_cdf_symmetric_and_checked(self):
        rng = random.Random(108)
        f = random_sequence(rng, 12)
        g = random_sequence(rng, 12)
        assert cdf(f, g) == cdf(g, f)
        with pytest.raises(ValueError):
            cdf(f, random_sequence(rng, 11))

    def test_matches_oracles(self):
        rng = random.Random(109)
        for _ in range(25):
            ell = rng.randrange(1, 24)
            f = random_sequence(rng, ell)
            g = random_sequence(rng, ell)
            assert adf(f) == oracle_adf(f)
            assert cdf(f, g) == oracle_cdf(f, g)

    def test_l4l2_identity(self):
        assert oracle_l4l2_adf(PLUS) == 0
        assert oracle_l4l2_adf(RS2) == Fraction(1, 4)
        rng = random.Random(110)
        for _ in range(20):
            f = random_sequence(rng, rng.randrange(1, 65))
            assert oracle_l4l2_adf(f) == adf(f)


class TestPursleySarwate:
    def test_minimal_golay_pair_is_exactly_one(self):
        rep = psc(seq("++"), seq("+-"))
        assert rep.adf_f == Fraction(1, 2)
        assert rep.adf_g == Fraction(1, 2)
        assert rep.cdf == Fraction(1, 2)
        assert rep.psc_exact == 1
        assert rep.psc == 1.0

    def test_self_pair_arithmetic(self):
        rep = psc(seq("++"), seq("++"))
        assert rep.adf_f == Fraction(1, 2)
        assert rep.cdf == Fraction(3, 2)
        assert rep.psc_exact == 2

    def test_irrational_root_reported_as_float(self):
        f = seq("+++-+")
        g = seq("++-++")
        rep = psc(f, g)
        if rep.psc_exact is None:
            expected = math.sqrt(float(rep.adf_f * rep.adf_g)) + float(rep.cdf)
            assert rep.psc == pytest.approx(expected, rel=1e-15)
        assert rep.psc >= 1 - 1e-12

    def test_random_pairs_respect_lower_bound(self):
        rng = random.Random(111)
        for _ in range(60):
            f = random_sequence(rng, 32)
            g = random_sequence(rng, 32)
            rep = psc(f, g)
            assert oracle_psc_at_least_one(rep)
            assert rep.psc >= 1 - 1e-12
            # the two-sided envelope on cdf
            root = math.sqrt(float(rep.adf_f * rep.adf_g))
            assert 1 - root - 1e-12 <= float(rep.cdf) <= 1 + root + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psc(seq("++"), seq("+"))
