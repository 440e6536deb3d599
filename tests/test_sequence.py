"""The array-backed BinarySequence and the transforms built on it.

Each vectorised transform is checked against the tuple formula it replaced
(kept in tests/oracles.py) on random inputs; the representation itself is
checked for read-only storage, validation, equality, hashing and text I/O.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcorr import BinarySequence, cyclic_shift, decimate, resize, rsl_stem
from seqcorr.golay import _mask_to_sequence
from seqcorr.sequence import parse_line

from oracles import (
    oracle_cyclic_shift,
    oracle_decimate,
    oracle_mask_terms,
    oracle_neg,
    oracle_resize,
    oracle_rsl_stem,
)

_TERMS = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=40)


class TestRepresentation:
    def test_terms_are_the_read_only_int64_array(self):
        f = parse_line("+--+")
        assert f.terms.dtype == np.int64 and f.terms.ndim == 1
        with pytest.raises(ValueError):
            f.terms[0] = -1
        assert f.to_line() == "+--+"

    def test_constructor_copies_its_input(self):
        arr = np.array([1, -1, 1])
        f = BinarySequence(arr)
        arr[0] = -1
        assert arr.flags.writeable
        assert f.terms.tolist() == [1, -1, 1]

    @pytest.mark.parametrize("terms", [
        [1, -1], (1, -1), np.array([1, -1], dtype=np.int8), np.array([1.0, -1.0]),
        iter([1, -1]), (t for t in (1, -1)),
    ])
    def test_accepts_any_pm1_iterable(self, terms):
        assert BinarySequence(terms) == BinarySequence((1, -1))

    @pytest.mark.parametrize("terms", [
        (), np.array([]), [[1, -1], [-1, 1]], np.ones((2, 2)),
        (1, 0), (1, 2), (1, -1, 0.5), np.array([1, -2]), (1, float("nan")), "+-", ["+", "-"],
    ])
    def test_rejects_malformed_terms(self, terms):
        with pytest.raises(ValueError):
            BinarySequence(terms)

    @settings(max_examples=60, deadline=None)
    @given(terms=_TERMS)
    def test_equality_and_hash(self, terms):
        f, g = BinarySequence(terms), BinarySequence(np.array(terms))
        assert f == g and hash(f) == hash(g)
        assert len({f, g, -f}) == 2
        assert f != -f
        assert f != BinarySequence(terms + [1])
        assert f != tuple(terms)

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(alphabet="+-", min_size=1, max_size=80))
    def test_text_round_trip(self, text):
        f = parse_line(f"  {text}\n")
        assert f.to_line() == text
        assert f.terms.tolist() == [1 if c == "+" else -1 for c in text]
        assert parse_line(BinarySequence(f.terms.tolist()).to_line()) == f

    @pytest.mark.parametrize("line", ["", "   ", "+-x", "+ -", "+−", "01", "++\x00"])
    def test_parse_rejects_non_sign_text(self, line):
        with pytest.raises(ValueError):
            parse_line(line)


class TestTransformsMatchTupleFormulas:
    @settings(max_examples=80, deadline=None)
    @given(terms=_TERMS, r=st.integers(-200, 200))
    def test_cyclic_shift(self, terms, r):
        assert cyclic_shift(BinarySequence(terms), r).terms.tolist() == list(
            oracle_cyclic_shift(terms, r))

    @settings(max_examples=80, deadline=None)
    @given(terms=_TERMS, m=st.integers(1, 130))
    def test_resize(self, terms, m):
        assert resize(BinarySequence(terms), m).terms.tolist() == list(oracle_resize(terms, m))

    @settings(max_examples=80, deadline=None)
    @given(terms=_TERMS, d=st.integers(-(10**18), 10**18))
    def test_decimate(self, terms, d):
        f = BinarySequence(terms)
        if math.gcd(d % len(terms), len(terms)) != 1:
            with pytest.raises(ValueError):
                decimate(f, d)
            return
        assert decimate(f, d).terms.tolist() == list(oracle_decimate(terms, d))

    @settings(max_examples=40, deadline=None)
    @given(terms=_TERMS)
    def test_negation(self, terms):
        assert (-BinarySequence(terms)).terms.tolist() == list(oracle_neg(terms))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=8),
           signs=st.lists(st.sampled_from((1, -1)), min_size=7, max_size=7),
           depth=st.integers(0, 7))
    def test_rsl_stem(self, seed, signs, depth):
        stem = rsl_stem(BinarySequence(seed), signs, depth)
        assert tuple(stem) == oracle_rsl_stem(seed, signs, depth)[-1]

    @settings(max_examples=80, deadline=None)
    @given(case=st.integers(1, 22).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_mask_to_sequence(self, case):
        length, mask = case
        assert tuple(_mask_to_sequence(mask, length)) == oracle_mask_terms(mask, length)
