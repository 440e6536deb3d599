"""Finite fields GF(2^n) and GF(p): contexts, traces, and characters.

GF(2^n) elements are bitmask polynomials over GF(2); multiplication is
shift-and-reduce against an irreducible modulus.  The modulus is chosen
deterministically as the lexicographically least primitive polynomial of
the requested degree, and the generator is the residue class of x, so
every derived sequence is reproducible across runs.  Primality and the
factors of p - 1 and 2^n - 1 come from one trial division, which the size
limits of budget keep small.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import budget


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# GF(2^n)

def gf2_mul(a: int, b: int, modulus: int, n: int) -> int:
    """Carry-less multiply then reduce mod the degree-n modulus."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= modulus
    return acc


def gf2_pow(a: int, e: int, modulus: int, n: int) -> int:
    acc = 1
    while e:
        if e & 1:
            acc = gf2_mul(acc, a, modulus, n)
        a = gf2_mul(a, a, modulus, n)
        e >>= 1
    return acc


def _x_is_primitive(modulus: int, n: int) -> bool:
    """True iff x has multiplicative order 2^n - 1 modulo the given modulus.

    Full order of x forces the modulus to be irreducible, so this single
    test certifies primitivity of the polynomial.
    """
    order = (1 << n) - 1
    if gf2_pow(2, order, modulus, n) != 1:
        return False
    return all(gf2_pow(2, order // q, modulus, n) != 1 for q in prime_factors(order))


@dataclass(frozen=True)
class BinaryFieldContext:
    """GF(2^n) with a primitive modulus and generator alpha = x."""

    n: int
    modulus: int
    generator: int
    trace_mask: int = field(repr=False)

    @property
    def order(self) -> int:
        return (1 << self.n) - 1

    def mul(self, a: int, b: int) -> int:
        return gf2_mul(a, b, self.modulus, self.n)


def binary_field_order(n: int) -> int:
    """2^n - 1 for a degree n >= 2, checked against the sequence-length budget."""
    if n < 2:
        raise ValueError(f"extension degree must be >= 2, got {n}")
    # every n past 64 is over budget; the cap keeps 1 << n small
    budget.check("sequence length", (1 << min(n, 64)) - 1, f"2^{n} - 1")
    return (1 << n) - 1


@functools.cache  # at most 23 degrees fit the budget, and the context is frozen
def make_binary_field(n: int) -> BinaryFieldContext:
    binary_field_order(n)
    modulus = None
    for cand in range((1 << n) + 1, 1 << (n + 1), 2):
        if _x_is_primitive(cand, n):
            modulus = cand
            break
    assert modulus is not None  # primitive polynomials exist for every degree
    # Tr(x) = popcount(x & mask) mod 2, with mask bit i = Tr(x^i); this uses
    # GF(2)-linearity of the trace over the monomial basis.
    mask = 0
    for i in range(n):
        t = 0
        e = gf2_pow(2, i, modulus, n)
        for _ in range(n):
            t ^= e
            e = gf2_mul(e, e, modulus, n)
        assert t in (0, 1)  # the trace lands in the prime field
        mask |= t << i
    return BinaryFieldContext(n=n, modulus=modulus, generator=0b10, trace_mask=mask)


def trace(ctx: BinaryFieldContext, x: int) -> int:
    """Absolute trace Tr(x) = x + x^2 + ... + x^(2^(n-1)), in {0, 1}."""
    if not 0 <= x < (1 << ctx.n):
        raise ValueError(f"element {x} out of range for GF(2^{ctx.n})")
    return bin(x & ctx.trace_mask).count("1") & 1


# ---------------------------------------------------------------------------
# GF(p)

def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime within the sequence-length
    budget.  The budget is checked first, so trial division tries at most
    2^11 odd divisors."""
    budget.check("sequence length", p)
    if p == 2 or prime_factors(p) != [p]:
        raise ValueError(f"{p} is not an odd prime")


def find_primitive_element(p: int) -> int:
    """Least primitive root of the odd prime p, checked before any work."""
    check_odd_prime(p)
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("every prime has a primitive root")


@dataclass(frozen=True)
class PrimeFieldContext:
    """GF(p) with its least primitive root; for p = 1 mod 4 also the quartic
    coset table, a read-only int8 array whose entry j is the k in {0,1,2,3}
    with j in R_k = generator^k * (fourth powers).  The table follows from p
    and is left out of comparisons."""

    p: int
    generator: int
    coset_index: np.ndarray | None = field(default=None, repr=False, compare=False)


def _powers(x: int, count: int, p: int) -> np.ndarray:
    """x^e mod p for e = 0 .. count-1, by doubling the known block; each
    product of two residues is below p^2, exact in int64 within budget."""
    out = np.ones(1, dtype=np.int64)
    while len(out) < count:
        out = np.concatenate((out, out * pow(x, len(out), p) % p))
    return out[:count]


def make_prime_field(p: int) -> PrimeFieldContext:
    g = find_primitive_element(p)
    cosets = None
    if p % 4 == 1:
        # cosets[j] = discrete log of j base g, mod 4 (slot 0 holds 0).  Row k,
        # column i of the blocked powers is g^(i + B k) = g^i g^(B k) mod p.
        # With 4 | B the log mod 4 of column i is i mod 4, and exponents past
        # p - 2 wrap onto g^(e - (p - 1)), whose log mod 4 is the same since
        # 4 | p - 1.
        block = 4 * -(-math.isqrt(p) // 4)
        rows = -(-(p - 1) // block)
        powers = np.multiply.outer(_powers(pow(g, block, p), rows, p), _powers(g, block, p))
        powers %= p
        cosets = np.zeros(p, dtype=np.int8)
        cosets[powers] = np.arange(block) & 3
        cosets.flags.writeable = False
    return PrimeFieldContext(p=p, generator=g, coset_index=cosets)
