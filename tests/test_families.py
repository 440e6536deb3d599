import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcorr import (
    BinarySequence,
    cyclic_shift,
    decimate,
    half_legendre_pair,
    legendre,
    make_binary_field,
    make_prime_field,
    trace,
    msequence,
    msequence_pair,
    periodic_xcorr,
    quartic_f,
    quartic_g,
    resize,
)
from seqcorr.analysis import realize
from seqcorr.families import (
    FAMILY_KINDS,
    FamilySpec,
    build_base,
    parse_family,
    power_of_two_residues,
)

from oracles import oracle_msequence, oracle_odd_primes, oracle_quadratic_character, random_sequence


def all_rotations(f):
    return {cyclic_shift(f, r) for r in range(len(f))}


class TestMSequence:
    def test_degree_three_galois_form(self):
        ctx = make_binary_field(3)
        assert msequence(ctx).to_line() == "-++-+--"

    def test_degree_two_shape_and_balance(self):
        seq = msequence(make_binary_field(2))
        assert len(seq) == 3
        assert sum(1 for t in seq if t == 1) == 1

    def test_character_shift_rotates(self):
        ctx = make_binary_field(4)
        base = msequence(ctx, 1)
        for c in (2, 3, 7, 11):
            assert msequence(ctx, c) in all_rotations(base)

    @settings(max_examples=40, deadline=None)
    @given(nc=st.integers(2, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, (1 << n) - 1))))
    def test_matches_per_term_walk(self, nc):
        n, c = nc
        ctx = make_binary_field(n)
        for char in {1, c, ctx.order}:
            assert tuple(msequence(ctx, char)) == oracle_msequence(ctx, char)

    @pytest.mark.parametrize("n", range(15, 25))
    def test_defining_properties_past_the_oracle(self, n):
        """The first n terms are (-1)^Tr(c x^j); each later term is the XOR
        of the n before it, with taps from the modulus itself (x^n = sum of
        the x^i below it); the length is 2^n - 1 and the sum is -1."""
        ctx = make_binary_field(n)
        taps = [i for i in range(n) if ctx.modulus >> i & 1]
        for c in (1, ctx.order // 3):
            seq = msequence(ctx, c)
            assert len(seq) == ctx.order and int(seq.terms.sum()) == -1
            bits = (seq.terms < 0).view(np.uint8)
            assert bits[:n].tolist() == [trace(ctx, ctx.mul(c, 1 << j)) for j in range(n)]
            later = np.zeros(ctx.order - n, dtype=np.uint8)
            for i in taps:
                later ^= bits[i : i + len(later)]
            assert np.array_equal(bits[n:], later)

    def test_peak_memory(self):
        # the int8 bits, then the int64 terms of the sequence itself
        ctx = make_binary_field(20)
        msequence(ctx)
        tracemalloc.start()
        try:
            msequence(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 10 * ctx.order

    def test_trivial_character_rejected(self):
        ctx = make_binary_field(3)
        with pytest.raises(ValueError):
            msequence(ctx, 0)

    def test_balance_and_two_level_autocorrelation(self):
        for n in range(2, 11):
            seq = msequence(make_binary_field(n))
            assert sum(seq.terms) == -1
            spec = periodic_xcorr(seq, seq)
            assert spec.values == {0: len(seq), **dict.fromkeys(range(1, len(seq)), -1)}


class TestDecimate:
    def test_identity(self):
        f = BinarySequence((1, -1, 1, 1, -1))
        assert decimate(f, 1) == f

    def test_degenerate_decimation_fixes_galois_sequence(self):
        seq = msequence(make_binary_field(3))
        assert decimate(seq, 2) == seq
        seq5 = msequence(make_binary_field(5))
        for d in (2, 4, 8, 16):
            assert decimate(seq5, d) == seq5

    def test_reversing_decimation_reverses_up_to_rotation(self):
        seq = msequence(make_binary_field(3))
        rev = BinarySequence(seq.terms[::-1])
        assert decimate(seq, -1) in all_rotations(rev)

    def test_non_coprime_rejected(self):
        f = BinarySequence((1,) * 6)
        with pytest.raises(ValueError):
            decimate(f, 2)

    def test_composition_law(self):
        rng = random.Random(31)
        f = random_sequence(rng, 15)
        for d1, d2 in ((2, 4), (7, 11), (4, 13)):
            assert decimate(decimate(f, d1), d2) == decimate(f, d1 * d2 % 15)

    def test_power_of_two_residues(self):
        assert power_of_two_residues(7) == {1, 2, 4}
        assert power_of_two_residues(31) == {1, 2, 4, 8, 16}


class TestLegendre:
    def test_small_primes(self):
        assert legendre(3).to_line() == "++-"
        assert legendre(5).to_line() == "++--+"
        assert legendre(7).to_line() == "+++-+--"

    def test_rejects_non_odd_primes(self):
        for bad in (2, 9, 15):
            with pytest.raises(ValueError):
                legendre(bad)

    def test_matches_quadratic_character(self):
        for p in oracle_odd_primes(700) + [4099]:
            expected = [1] + [oracle_quadratic_character(p, j) for j in range(1, p)]
            assert list(legendre(p)) == expected

    def test_rejects_primes_above_field_limit(self):
        with pytest.raises(ValueError, match="field-size limit"):
            legendre(1000000007)

    def test_two_level_periodic_autocorrelation_for_three_mod_four(self):
        for p in (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127, 131, 139,
                  151, 163, 167, 179, 191, 199):
            assert p % 4 == 3 and p in oracle_odd_primes(200)
            h = legendre(p)
            spec = periodic_xcorr(h, h)
            assert all(spec.values[s] == -1 for s in range(1, p))


class TestQuartic:
    def test_p13_supports(self):
        ctx = make_prime_field(13)
        f = quartic_f(ctx)
        g = quartic_g(ctx)
        assert {j for j in range(13) if f[j] == 1} == {0, 1, 2, 3, 5, 6, 9}
        assert {j for j in range(13) if g[j] == 1} == {0, 1, 3, 9, 8, 11, 7}

    def test_product_is_legendre_pattern(self):
        for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137, 149, 157,
                  173, 181, 193, 197):
            ctx = make_prime_field(p)
            f = quartic_f(ctx)
            g = quartic_g(ctx)
            h = legendre(p)
            assert [a * b for a, b in zip(f, g)] == h.terms.tolist()

    def test_rejects_three_mod_four(self):
        ctx = make_prime_field(7)
        with pytest.raises(ValueError):
            quartic_f(ctx)
        with pytest.raises(ValueError):
            quartic_g(ctx)


class TestTransforms:
    def test_cyclic_shift_examples(self):
        f = BinarySequence((1, -1, -1))
        assert cyclic_shift(f, 0) == f
        assert cyclic_shift(f, 3) == f
        assert cyclic_shift(f, 1).terms.tolist() == [-1, -1, 1]
        assert cyclic_shift(f, -1).terms.tolist() == [-1, 1, -1]

    def test_resize_examples(self):
        f = BinarySequence((1, -1, 1))
        assert resize(f, 3) == f
        assert resize(f, 5).terms.tolist() == [1, -1, 1, 1, -1]
        assert resize(f, 2).terms.tolist() == [1, -1]
        with pytest.raises(ValueError):
            resize(f, 0)

    def test_resize_round_trip(self):
        rng = random.Random(32)
        f = random_sequence(rng, 9)
        for m in (9, 13, 27, 40):
            assert resize(resize(f, m), 9) == f


class TestHalfLegendre:
    def test_p5_example(self):
        a, b = half_legendre_pair(5, 0)
        assert a.to_line() == "++"
        assert b.to_line() == "--"

    def test_p7_example(self):
        a, b = half_legendre_pair(7, 0)
        assert a.to_line() == "+++"
        assert b.to_line() == "-+-"

    def test_shapes_for_various_shifts(self):
        for p in (5, 7, 13, 29):
            for r in (0, 1, p - 1):
                a, b = half_legendre_pair(p, r)
                assert len(a) == len(b) == (p - 1) // 2

    def test_shift_slides_the_window(self):
        p = 11
        h = legendre(p)
        a, b = half_legendre_pair(p, 4)
        expect = cyclic_shift(h, 4).terms[: p - 1].tolist()
        assert a.terms.tolist() + b.terms.tolist() == expect


class TestMSequencePair:
    def test_degenerate_decimations_rejected(self):
        ctx = make_binary_field(5)
        for d in (1, 2, 4, 8, 16, 32, 64):
            with pytest.raises(ValueError):
                msequence_pair(ctx, d)

    def test_typical_pair_is_cyclically_inequivalent(self):
        ctx = make_binary_field(5)
        f, g = msequence_pair(ctx, 3)
        assert g not in all_rotations(f)

    def test_reversing_pair_reverses(self):
        ctx = make_binary_field(5)
        f, g = msequence_pair(ctx, -1)
        assert g in all_rotations(BinarySequence(f.terms[::-1]))

    def test_shifts_applied(self):
        ctx = make_binary_field(5)
        f0, g0 = msequence_pair(ctx, 3)
        f2, g5 = msequence_pair(ctx, 3, shift_f=2, shift_g=5)
        assert f2 == cyclic_shift(f0, 2)
        assert g5 == cyclic_shift(g0, 5)


class TestFamilySpec:
    def test_parse_mseq(self):
        spec = parse_family("mseq:n=10,char=3")
        assert spec.kind == "mseq" and spec.size == 10 and spec.char_shift == 3

    def test_parse_legendre_with_search_and_resize(self):
        spec = parse_family("legendre:p=1019,shift=best,resize=1.0578")
        assert spec.size == 1019
        assert spec.shift == "best"
        assert spec.resize_ratio == pytest.approx(1.0578)

    def test_parse_fixed_shift(self):
        spec = parse_family("quartic_f:p=13,shift=5")
        assert spec.shift == 5
        seq, r = realize(spec)
        assert r == 5
        assert seq == cyclic_shift(quartic_f(make_prime_field(13)), 5)

    def test_parse_errors(self):
        for bad in (
            "unknown:p=3",
            "legendre",
            "legendre:p",
            "legendre:p=abc",
            "legendre:p=13,bogus=1",
            "mseq:char=1",
            "legendre:p=13,resize=-1",
            "legendre:p=7,p=11",
            "legendre:p=7,shift=1,shift=best",
        ):
            with pytest.raises(ValueError):
                parse_family(bad)

    def test_resize_must_be_a_number(self):
        with pytest.raises(ValueError, match="resize must be a number"):
            parse_family("legendre:p=7,resize=abc")

    def test_with_size_and_build_base(self):
        spec = parse_family("legendre:p=7")
        assert build_base(replace(spec, size=11)).to_line() == legendre(11).to_line()
        mspec = FamilySpec("mseq", 3)
        assert build_base(mspec).to_line() == "-++-+--"

    # kind -> (descriptor with every optional key set, its size, a second size)
    DESCRIPTORS = {
        "mseq": ("mseq:n=5,char=3,shift=2,resize=1.5", 5, 7),
        "legendre": ("legendre:p=13,shift=best,resize=0.5", 13, 17),
        "quartic_f": ("quartic_f:p=13,shift=4", 13, 29),
        "quartic_g": ("quartic_g:p=17,resize=2", 17, 37),
    }

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_size_and_with_size_per_kind(self, kind):
        text, size, other = self.DESCRIPTORS[kind]
        spec = parse_family(text)
        assert (spec.kind, spec.size) == (kind, size)
        resized = replace(spec, size=other)
        assert resized.size == other
        kept = ("kind", "char_shift", "shift", "resize_ratio")
        assert [getattr(resized, a) for a in kept] == [getattr(spec, a) for a in kept]

    def test_build_base_equals_direct_builders(self):
        direct = {
            "mseq:n=5,char=3": msequence(make_binary_field(5), 3),
            "legendre:p=13": legendre(13),
            "quartic_f:p=13": quartic_f(make_prime_field(13)),
            "quartic_g:p=17": quartic_g(make_prime_field(17)),
        }
        assert sorted({text.partition(":")[0] for text in direct}) == sorted(FAMILY_KINDS)
        for text, expected in direct.items():
            assert build_base(parse_family(text)) == expected
