import math
import random
from fractions import Fraction

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
from seqcorr import corr
from seqcorr.budget import BUDGETS
from seqcorr.sequence import dump_sequences, parse_line, parse_sequences

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

    def test_file_format_skips_comments(self):
        text = "# header\n++\n\n# middle\n+-\n"
        seqs = parse_sequences(text)
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


X = corr._FFT_MIN_LEN


def spectrum_of(c, len_g):
    return {s - (len_g - 1): v for s, v in enumerate(c.tolist())}


class TestKernel:
    """corr._corr on both sides of the FFT crossover."""

    @pytest.mark.parametrize(
        "len_f, len_g",
        [(1, 1), (X - 1, X - 1), (X, X), (X + 1, X + 1), (X + 37, X), (X, X + 3), (X + 5, 3)],
    )
    def test_matches_oracle(self, len_f, len_g):
        rng = random.Random(len_f * 1000 + len_g)
        f = random_sequence(rng, len_f)
        g = random_sequence(rng, len_g)
        c = corr._corr(f.terms, g.terms)
        assert c.dtype == np.int64
        assert spectrum_of(c, len_g) == oracle_spectrum(f, g)

    @pytest.mark.parametrize("ell", [1, X - 1, X, X + 1])
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

    def test_demerit_factors_above_crossover(self):
        rng = random.Random(600)
        f = random_sequence(rng, 600)
        g = random_sequence(rng, 600)
        assert adf(f) == oracle_adf(f)
        assert cdf(f, g) == oracle_cdf(f, g)

    def test_length_budget_checked_first(self):
        big = np.ones(BUDGETS["exact length"].limit + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            corr._corr(big, big[:X])


class TestKernelGuard:
    """A wrong FFT result is caught and replaced by the direct one."""

    @staticmethod
    def perturb_irfft(monkeypatch, delta):
        real = np.fft.irfft

        def irfft(*args, **kwargs):
            out = real(*args, **kwargs)
            out[0] += delta  # the shift-0 value
            return out

        monkeypatch.setattr(np.fft, "irfft", irfft)

    @pytest.mark.parametrize("delta", [0.3, 1.0])  # rounding margin; sum identity
    @pytest.mark.parametrize("auto", [True, False])
    def test_perturbed_inverse_falls_back(self, monkeypatch, delta, auto):
        rng = np.random.default_rng(11)
        a = rng.choice([-1, 1], 2 * X).astype(np.int64)
        b = a if auto else rng.choice([-1, 1], 2 * X).astype(np.int64)
        expected = np.correlate(a, b, mode="full")
        self.perturb_irfft(monkeypatch, delta)
        assert corr._fft_corr(a, b) is None
        c = corr._corr(a, b)
        assert c.dtype == np.int64
        assert np.array_equal(c, expected)


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
                         st.integers(corr._FFT_MIN_LEN - 24, corr._FFT_MIN_LEN + 24)),
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
