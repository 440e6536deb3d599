import random
from fractions import Fraction

import numpy as np
import pytest

import seqcorr
from seqcorr import (
    BinarySequence,
    CertificationError,
    adf,
    cdf,
    certify,
    compose_to_length,
    golay_base,
    is_golay_pair,
    psc,
    rsl_stem,
    search_golay_pairs,
    search_optimal_seeds,
)
from seqcorr.budget import BUDGETS
from seqcorr.analysis import report_pairs
from seqcorr.golay import _tail_keys, base_factorization

MAX_EXACT_LEN = BUDGETS["exact length"].limit
MAX_HALF_LENGTH = BUDGETS["census half-length"].limit
from seqcorr.sequence import parse_line

from oracles import oracle_interleave, oracle_is_optimal_seed, random_sequence


def seq(text):
    return parse_line(text)


def test_public_names_resolve_on_the_package():
    for name in seqcorr.__all__:
        assert hasattr(seqcorr, name), name
    assert "rsl_pair_stems" not in seqcorr.__all__


class TestStem:
    def test_classic_depth_two(self):
        stems = [rsl_stem(seq("+"), (1, 1), n).to_line() for n in range(3)]
        assert stems == ["+", "++", "+++-"]

    def test_lengths_double(self):
        rng = random.Random(41)
        seed = random_sequence(rng, 5)
        lengths = [len(rsl_stem(seed, (1, -1, 1, -1), n)) for n in range(5)]
        assert lengths == [5, 10, 20, 40, 80]

    def test_depth_needs_signs(self):
        with pytest.raises(ValueError):
            rsl_stem(seq("+"), (1,), 2)

    def test_negative_depth_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            rsl_stem(seq("+"), (1,), -1)

    def test_sign_values_checked(self):
        with pytest.raises(ValueError):
            rsl_stem(seq("+"), (1, 0), 2)

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            rsl_stem(seq("+" * 64), (1,) * 30, 30)

    def test_seed_length_one_closed_form(self):
        rng = random.Random(42)
        for _ in range(5):
            signs = tuple(rng.choice((1, -1)) for _ in range(9))
            for n in range(10):
                assert adf(rsl_stem(seq("+"), signs, n)) == (1 - Fraction(-1, 2) ** n) / 3

    def test_negating_seed_or_signs_preserves_magnitudes(self):
        rng = random.Random(43)
        seed = random_sequence(rng, 4)
        signs = (1, -1, 1)
        for n in range(4):
            base = rsl_stem(seed, signs, n)
            neg_seed = rsl_stem(-seed, signs, n)
            neg_signs = rsl_stem(seed, tuple(-s for s in signs), n)
            assert adf(base) == adf(neg_seed) == adf(neg_signs)

    def test_pair_stems_share_signs(self):
        rng = random.Random(44)
        seed_f = random_sequence(rng, 8)
        seed_g = random_sequence(rng, 8)
        signs = (1, -1, 1, 1, -1, 1)
        (row,) = report_pairs("rsl_pair", seed_f=seed_f, seed_g=seed_g, signs=signs, depth=6)
        f6, g6 = rsl_stem(seed_f, signs, 6), rsl_stem(seed_g, signs, 6)
        assert row.length == len(f6) == len(g6) == 8 * 64
        assert (row.adf_f, row.adf_g, row.cdf) == tuple(map(float, (adf(f6), adf(g6), cdf(f6, g6))))
        # self-pair identity and negated-seed identity
        for n in range(4):
            fn = rsl_stem(seed_f, (1, -1, 1), n)
            assert cdf(fn, fn) == adf(fn) + 1
            fn, gn = (rsl_stem(seq(text), (1, 1, -1), n) for text in "+-")
            assert gn == -fn
            assert cdf(fn, gn) == adf(fn) + 1

    def test_pair_stems_need_equal_seed_lengths(self):
        with pytest.raises(ValueError, match="seed lengths must match"):
            report_pairs("rsl_pair", seed_f=seq("++"), seed_g=seq("+"), signs=(1,), depth=1)


class TestGolayChecks:
    def test_examples(self):
        assert is_golay_pair(seq("++"), seq("+-"))
        assert not is_golay_pair(seq("++"), seq("++"))
        assert is_golay_pair(seq("+"), seq("+"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_golay_pair(seq("++"), seq("+"))

    def test_certify(self):
        pair = certify(seq("++"), seq("+-"))
        assert pair.certified and pair.length == 2
        with pytest.raises(CertificationError):
            certify(seq("++"), seq("++"))

    def test_interleave_examples(self):
        assert oracle_interleave(seq("+-"), seq("--")).to_line() == "+---"
        with pytest.raises(ValueError):
            oracle_interleave(seq("+-"), seq("-"))

    def test_optimal_seed_classification(self):
        assert oracle_is_optimal_seed(seq("+"))
        assert oracle_is_optimal_seed(seq("-"))
        assert oracle_is_optimal_seed(oracle_interleave(seq("++"), seq("+-")))
        assert oracle_is_optimal_seed(seq("+++-"))
        for text in ("+++", "--+", "+-+"):
            assert not oracle_is_optimal_seed(seq(text))


class TestSeedCensus:
    def test_small_counts(self):
        count1, ex1 = search_optimal_seeds(1)
        assert count1 == 2 and [e.to_line() for e in ex1] == ["-", "+"]
        count2, ex2 = search_optimal_seeds(2)
        assert count2 == 4  # every pair of length-1 halves is complementary
        count3, _ = search_optimal_seeds(3)
        assert count3 == 0
        count6, _ = search_optimal_seeds(6)
        assert count6 == 0

    def test_census_matches_direct_classification(self):
        for length in (2, 4, 5, 6, 8, 10, 12):
            count, exemplars = search_optimal_seeds(length)
            direct = []
            for mask in range(1 << length):
                s = BinarySequence(
                    tuple(1 if (mask >> j) & 1 else -1 for j in range(length))
                )
                if oracle_is_optimal_seed(s):
                    direct.append(s)
            assert count == len(direct)
            assert exemplars == direct[:10]

    def test_counts_match_borwein_ferguson(self):
        # Golay pairs of lengths 16 and 20 (Borwein & Ferguson 2003).
        assert search_optimal_seeds(32)[0] == 1536
        assert search_optimal_seeds(40)[0] == 1088

    def test_tail_keys_encode_tails_exactly(self):
        for k in range(1, 9):
            keys, negated = _tail_keys(k)
            tails = []
            for mask in range(1 << k):
                row = [1 if (mask >> j) & 1 else -1 for j in range(k)]
                tails.append(tuple(np.correlate(row, row, mode="full")[k:].tolist()))
            key_of = {}
            for tail, key in zip(tails, keys.tolist()):
                assert key_of.setdefault(tail, key) == key
            tail_of = {key: tail for tail, key in key_of.items()}
            assert len(tail_of) == len(key_of)
            for tail, neg in zip(tails, negated.tolist()):
                opposite = tuple(-c for c in tail)
                assert tail_of.get(neg) == (opposite if opposite in key_of else None)

    def test_budget(self):
        assert 2 * MAX_HALF_LENGTH == 40
        with pytest.raises(ValueError):
            search_optimal_seeds(41)
        with pytest.raises(ValueError):
            search_optimal_seeds(0)


class TestComposition:
    def test_double_and_mixed_lengths(self):
        lengths = {2**a * 10**b for a in range(15) for b in range(5)} & set(range(2, 2**14 + 1))
        assert len(lengths) == 39  # every 2^a * 10^b from 2 to 2^14
        for length in sorted(lengths):
            pair = compose_to_length(length)
            assert pair.length == length and pair.certified
            assert is_golay_pair(pair.a, pair.b)
            assert psc(pair.a, pair.b).psc_exact == 1

    def test_composed_pairs_have_equal_adf_and_unit_psc(self):
        for length in (4, 8, 20, 40):
            pair = compose_to_length(length)
            rep = psc(pair.a, pair.b)
            assert rep.adf_f == rep.adf_g
            assert rep.psc_exact == 1

    def test_one_flipped_term_above_fft_crossover_fails_certification(self):
        pair = compose_to_length(2560)
        terms = list(pair.a.terms)
        terms[1000] = -terms[1000]
        broken = BinarySequence(tuple(terms))
        assert is_golay_pair(pair.a, pair.b)
        assert not is_golay_pair(broken, pair.b)
        with pytest.raises(CertificationError):
            certify(broken, pair.b)

    def test_base_factorization(self):
        assert base_factorization(200) == (1, 2)
        assert base_factorization(26) is None
        assert base_factorization(520) is None
        assert base_factorization(12) is None
        with pytest.raises(ValueError):
            compose_to_length(12)
        with pytest.raises(ValueError):
            compose_to_length(1)

    def test_base_pairs(self):
        p2 = golay_base(2)
        assert (p2.a.to_line(), p2.b.to_line()) == ("++", "+-")
        p10 = golay_base(10)
        assert p10.certified and p10.length == 10
        with pytest.raises(ValueError, match="^base pair lengths are 2 and 10; got 4$"):
            golay_base(4)

    def test_composition_certified_once(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return is_golay_pair(a, b)

        monkeypatch.setattr(seqcorr.golay, "is_golay_pair", counted)
        pair = compose_to_length(20)
        assert calls == [20] and pair.certified and pair.length == 20

    def test_compose_refuses_lengths_above_exact_budget(self):
        assert compose_to_length(MAX_EXACT_LEN).length == MAX_EXACT_LEN
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            compose_to_length(2 * MAX_EXACT_LEN)


class TestSearches:
    def test_exhaustive_length_ten_is_deterministic(self):
        pair = search_golay_pairs(10)
        assert pair.certified
        assert pair.a.to_line() == "-++-+-----"
        assert pair.b.to_line() == "+-+---++--"

    def test_exhaustive_matches_built_in_base(self):
        pair = search_golay_pairs(10)
        base = golay_base(10)
        assert pair.a == base.a
        assert pair.b == base.b

    def test_exhaustive_small_lengths(self):
        pair2 = search_golay_pairs(2)
        assert pair2.certified and pair2.length == 2
        assert search_golay_pairs(5) is None
        with pytest.raises(ValueError):
            search_golay_pairs(21)

    def test_exhaustive_reaches_half_length_bound(self):
        pair = search_golay_pairs(MAX_HALF_LENGTH)
        assert pair.certified and pair.length == MAX_HALF_LENGTH
