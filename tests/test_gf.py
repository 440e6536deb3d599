import time

import numpy as np
import pytest

from seqcorr.gf import (
    check_odd_prime,
    find_primitive_element,
    make_binary_field,
    make_prime_field,
    prime_factors,
    trace,
)

from oracles import (
    oracle_coset_table,
    oracle_odd_primes,
    oracle_quadratic_character,
    oracle_quartic_coset_index,
)


def accepts_odd_prime(n: int) -> bool:
    try:
        check_odd_prime(n)
    except ValueError:
        return False
    return True


class TestPrimality:
    def test_small_values(self):
        primes = {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 997, 1009}
        for n in range(-2, 50):
            assert accepts_odd_prime(n) == (n in primes)
        assert accepts_odd_prime(997) and accepts_odd_prime(1009)
        assert not accepts_odd_prime(1001) and not accepts_odd_prime(2**16 + 1 - 2)

    def test_trial_division_matches_sieve(self):
        """Exactly the odd primes below 2^16 pass; so does the largest prime
        below the 2^24 budget, 2^24 - 3, and the odd composite 2^24 - 1 fails."""
        assert [n for n in range(1 << 16) if accepts_odd_prime(n)] == oracle_odd_primes(1 << 16)
        assert accepts_odd_prime(16777213)
        with pytest.raises(ValueError, match="16777215 is not an odd prime"):
            check_odd_prime(16777215)

    def test_prime_factors(self):
        assert prime_factors(1) == []
        assert prime_factors(2**5 * 3 * 49) == [2, 3, 7]
        assert prime_factors(1023) == [3, 11, 31]


class TestBinaryField:
    def test_degree_three_modulus_is_least_primitive(self):
        ctx = make_binary_field(3)
        assert ctx.modulus == 0b1011  # x^3 + x + 1
        assert ctx.generator == 0b10

    def test_degree_two_modulus(self):
        assert make_binary_field(2).modulus == 0b111  # only irreducible quadratic

    def test_out_of_range_degrees(self):
        for n in (1, 0, -3, 25, 1, 25):  # refusals are not cached: every call raises
            with pytest.raises(ValueError):
                make_binary_field(n)

    def test_context_built_once_per_degree(self):
        for n in range(2, 25):
            ctx = make_binary_field(n)
            assert ctx == make_binary_field.__wrapped__(n)  # same modulus and trace mask
            assert make_binary_field(n) is ctx

    def test_generator_has_full_order(self):
        for n in (2, 3, 4, 5, 8, 11):
            ctx = make_binary_field(n)
            seen = set()
            cur = 1
            for _ in range(ctx.order):
                seen.add(cur)
                cur = ctx.mul(cur, ctx.generator)
            assert cur == 1
            assert len(seen) == ctx.order

    def test_trace_examples(self):
        ctx = make_binary_field(3)
        assert trace(ctx, 0) == 0
        assert trace(ctx, 1) == 1
        assert trace(ctx, ctx.generator) == 0

    def test_trace_linearity_and_frobenius(self):
        for n in (2, 3, 4, 6, 8):
            ctx = make_binary_field(n)
            for x in range(1 << n):
                assert trace(ctx, x) == trace(ctx, ctx.mul(x, x))
                for y in range(0, 1 << n, 5):
                    assert trace(ctx, x ^ y) == trace(ctx, x) ^ trace(ctx, y)

    def test_trace_balance(self):
        for n in range(2, 17):
            ctx = make_binary_field(n)
            ones = sum(trace(ctx, x) for x in range(1 << n))
            assert ones == 1 << (n - 1)

    def test_element_range_checked(self):
        ctx = make_binary_field(3)
        with pytest.raises(ValueError):
            trace(ctx, 8)


class TestPrimeField:
    def test_least_primitive_roots(self):
        assert find_primitive_element(7) == 3
        assert find_primitive_element(13) == 2
        assert find_primitive_element(3) == 2

    def test_rejects_non_primes_and_even(self):
        for bad in (2, 8, 15, 1):
            with pytest.raises(ValueError):
                find_primitive_element(bad)

    def test_primitive_element_refuses_primes_above_field_limit(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="field-size limit"):
            find_primitive_element(4611686018427377339)  # 62-bit safe prime
        assert time.perf_counter() - start < 10

    def test_quadratic_character_examples(self):
        assert oracle_quadratic_character(7, 2) == 1
        assert oracle_quadratic_character(7, 3) == -1
        assert oracle_quadratic_character(7, 0) == 0

    def test_quadratic_character_multiplicative(self):
        p = 13
        for a in range(1, p):
            for b in range(1, p):
                assert oracle_quadratic_character(p, a * b % p) == oracle_quadratic_character(
                    p, a
                ) * oracle_quadratic_character(p, b)

    def test_quadratic_character_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            oracle_quadratic_character(9, 2)
        with pytest.raises(ValueError):
            oracle_quadratic_character(2, 1)

    def test_quartic_cosets_p13(self):
        ctx = make_prime_field(13)
        assert ctx.generator == 2
        assert ctx.coset_index[3] == oracle_quartic_coset_index(ctx, 3) == 0
        assert ctx.coset_index[6] == oracle_quartic_coset_index(ctx, 6) == 1
        assert ctx.coset_index[11] == oracle_quartic_coset_index(ctx, 11) == 3
        # fourth powers mod 13 are {1, 3, 9}
        assert {j for j in range(1, 13) if ctx.coset_index[j] == 0} == {1, 3, 9}

    def test_quartic_coset_sizes_and_product_law(self):
        for p in (13, 17, 29, 37):
            ctx = make_prime_field(p)
            sizes = [0, 0, 0, 0]
            for j in range(1, p):
                sizes[ctx.coset_index[j]] += 1
            assert sizes == [(p - 1) // 4] * 4
            for a in range(1, p, 3):
                for b in range(1, p, 5):
                    lhs = (ctx.coset_index[a] + ctx.coset_index[b]) % 4
                    assert lhs == ctx.coset_index[a * b % p]

    def test_quartic_requires_one_mod_four(self):
        ctx = make_prime_field(7)
        assert ctx.coset_index is None
        with pytest.raises(ValueError):
            oracle_quartic_coset_index(ctx, 3)
        ctx13 = make_prime_field(13)
        with pytest.raises(ValueError):
            oracle_quartic_coset_index(ctx13, 0)

    def test_blocked_coset_table_matches_power_walk(self):
        """The blocked-powers table equals the one-power-at-a-time walk and
        the quartic Euler criterion, for single and many blocks."""
        primes = [p for p in oracle_odd_primes(1200) if p % 4 == 1] + [4129, 65537, 1000033]
        for p in primes:
            ctx = make_prime_field(p)
            table = ctx.coset_index
            assert table.dtype == np.int8 and len(table) == p
            assert not table.flags.writeable
            assert table.tolist() == oracle_coset_table(p, ctx.generator)
        for p in (5, 13, 4129):
            ctx = make_prime_field(p)
            assert all(ctx.coset_index[j] == oracle_quartic_coset_index(ctx, j) for j in range(1, p))

    def test_context_equality_ignores_table(self):
        assert make_prime_field(13) == make_prime_field(13)
        assert hash(make_prime_field(13)) == hash(make_prime_field(13))
        assert make_prime_field(13) != make_prime_field(17)

    def test_rejects_fields_above_size_limit(self):
        assert make_prime_field(16777199).p == 16777199  # below 2^24, 3 mod 4: no coset table
        with pytest.raises(ValueError, match="field-size limit"):
            make_prime_field(1000000007)
