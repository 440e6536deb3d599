"""The array-backed BinarySequence and the transforms built on it.

Each vectorised transform is checked against the tuple formula it replaced
(kept in tests/oracles.py) on random inputs; the representation itself is
checked for read-only storage, validation, equality, hashing and text I/O.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcorr import BinarySequence, cyclic_shift, decimate, resize, rsl_stem
from seqcorr.budget import BUDGETS
from seqcorr.golay import _mask_to_sequence
from seqcorr.sequence import load_pair, parse_line

from oracles import (
    oracle_cyclic_shift,
    oracle_decimate,
    oracle_mask_terms,
    oracle_neg,
    oracle_resize,
    oracle_rsl_stem,
    oracle_sequence_lines,
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

    def test_to_line_peak_memory(self):
        # the uint8 codes and the line's bytes, no int64 temporary
        f = BinarySequence(np.random.default_rng(20).choice((1, -1), 1 << 20))
        f.to_line()
        tracemalloc.start()
        try:
            f.to_line()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2 * len(f)

    def test_parse_line_peak_memory(self):
        # the int8 terms and the int64 copy the constructor keeps, no int64 temporary
        line = BinarySequence(np.random.default_rng(21).choice((1, -1), 1 << 20)).to_line()
        parse_line(line)
        tracemalloc.start()
        try:
            f = parse_line(line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(f) == len(line) and peak <= 10 * len(f)

    # every character 0-255 but '+', '-' and ' ' (listed) between a '+' and a
    # '-', and a lone surrogate, such as a non-UTF-8 argument decodes to
    @pytest.mark.parametrize("line", ["", "   ", "+-x", "+ -", "+−", "01", "++\x00"]
                             + [f"+{chr(b)}-" for b in range(256) if chr(b) not in "+- "] + ["+\udcff"])
    def test_parse_rejects_non_sign_text(self, line):
        with pytest.raises(ValueError) as err:
            parse_line(line)
        assert str(err.value) == f"sequence line must be nonempty '+'/'-' text, got {line.strip()!r}"


# Pair-file text: sign runs, comments, blanks, indentation, and every line end
# that str.splitlines knows in ASCII, CRLF and a lone CR among them.
_PAIR_TEXT = st.lists(st.sampled_from(
    ["+", "-", "++-", "#", "# +-", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "x"]
), max_size=30).map("".join)


class TestLoadPair:
    """load_pair reads at most pair file size characters of a pair file, and
    refuses a longer file, and a sequence line over exact length before
    parse_line builds anything from it."""

    @staticmethod
    def load(path, text, exact_length=None):
        with open(path, "w", newline="") as fh:  # the line ends as written
            fh.write(text)
        with pytest.MonkeyPatch.context() as mp:
            if exact_length is not None:  # lines over a small budget
                mp.setitem(BUDGETS, "exact length", BUDGETS["exact length"]._replace(limit=exact_length))
            return load_pair(path)

    @settings(max_examples=300, deadline=None)
    @given(text=_PAIR_TEXT, exact_length=st.sampled_from([None, 1, 2, 3, 5]))
    @example(text="# c\n\n  +-+ \r\n\t--\r\n", exact_length=None)  # comment, blank, indented, CRLF
    @example(text="+-+\r--", exact_length=None)  # a lone CR, and no final line end
    @example(text="+-+\x0c--\n", exact_length=None)  # a form feed ends a line too
    def test_same_lines_as_the_whole_text(self, tmp_path_factory, text, exact_length):
        path = tmp_path_factory.mktemp("pair") / "pair.txt"
        lines = oracle_sequence_lines(text)
        limit = BUDGETS["exact length"].limit if exact_length is None else exact_length
        if len(lines) != 2 or any(line.strip("+-") for line in lines):
            with pytest.raises(ValueError):
                self.load(path, text, exact_length)
        elif over := [line for line in lines if len(line) > limit]:
            with pytest.raises(ValueError, match=f"^exact length {len(over[0])} exceeds"):
                self.load(path, text, exact_length)
        else:
            assert [s.to_line() for s in self.load(path, text, exact_length)] == lines

    def test_file_at_the_size_budget(self, tmp_path):
        size, ell = BUDGETS["pair file size"].limit, BUDGETS["exact length"].limit
        pad = " " * (ell // 4)
        lines = f"\n{pad}\n{pad}{'+' * ell}{pad}\n{'-' * ell}\n"
        text = "#" * (size - len(lines)) + lines  # a comment fills the file to the budget
        assert len(text) == size
        f, g = self.load(tmp_path / "p.txt", text)
        assert len(f) == len(g) == ell and f.terms.min() == 1 and g.terms.max() == -1
        with pytest.raises(ValueError, match=f"^pair file size at least {size + 1} exceeds the pair-file budget {size}$"):
            self.load(tmp_path / "p.txt", text + "\n")

    def test_counts_and_errors_as_before(self, tmp_path):
        with pytest.raises(ValueError, match="exactly 2 sequences, found 1"):
            self.load(tmp_path / "p.txt", "# c\n+-\n")
        with pytest.raises(ValueError, match="exactly 2 sequences, found 4"):
            self.load(tmp_path / "p.txt", "+\n-\n+\n-\n")
        with pytest.raises(ValueError, match="'\\+x'"):  # a line past the second is still parsed
            self.load(tmp_path / "p.txt", "+\n-\n+x\n")


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
