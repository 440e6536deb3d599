"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately the slow, obviously-correct double loop
written straight from the definitions, with no numpy (sequences are read
as lists of Python ints first), so the accelerated paths in the package
have something honest to be compared against.  The
sequence transforms take any iterable of +-1 terms and return tuples: they
are the tuple formulas the package used before its terms became arrays.
SplitMix64 is the stateful generator whose words the package's closed-form
draws must reproduce.
"""

from fractions import Fraction

from seqcorr.gf import trace
from seqcorr.sequence import BinarySequence


def _ints(terms) -> list[int]:
    """The terms of a BinarySequence or of any +-1 iterable, as Python ints."""
    return [int(t) for t in terms]


def oracle_xcorr(f, g, s: int) -> int:
    """sum_j f_{j+s} g_j with out-of-range terms zero."""
    f, g = _ints(f), _ints(g)
    total = 0
    for j in range(len(g)):
        if 0 <= j + s < len(f):
            total += f[j + s] * g[j]
    return total


def oracle_spectrum(f, g) -> dict:
    f, g = _ints(f), _ints(g)
    return {s: oracle_xcorr(f, g, s) for s in range(-(len(g) - 1), len(f))}


def oracle_periodic(f, g) -> dict:
    f, g = _ints(f), _ints(g)
    ell = len(f)
    out = {}
    for s in range(ell):
        out[s] = sum(f[(j + s) % ell] * g[j] for j in range(ell))
    return out


def oracle_adf(f) -> Fraction:
    f = _ints(f)
    ell = len(f)
    total = sum(oracle_xcorr(f, f, s) ** 2 for s in range(-(ell - 1), ell) if s != 0)
    return Fraction(total, ell * ell)


def oracle_cdf(f, g) -> Fraction:
    f, g = _ints(f), _ints(g)
    total = sum(oracle_xcorr(f, g, s) ** 2 for s in range(-(len(g) - 1), len(f)))
    return Fraction(total, len(f) * len(g))


def oracle_l4l2_adf(f) -> Fraction:
    """ADF via the norm identity ||f||_4^4 = sum_s C(s)^2, with ||f||_4^4
    taken from the coefficients of f(z) * f~(z) (f~ = reversed f)."""
    ell = len(f)
    rev = _ints(f)[::-1]
    prod = [0] * (2 * ell - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(rev):
            prod[i + j] += x * y
    return Fraction(sum(c * c for c in prod), ell * ell) - 1


def oracle_psc_at_least_one(report) -> bool:
    """Exact check that PSC >= 1, i.e. sqrt(adf_f*adf_g) >= 1 - cdf."""
    gap = 1 - report.cdf
    if gap <= 0:
        return True
    return report.adf_f * report.adf_g >= gap * gap


# ---------------------------------------------------------------------------
# Characters of GF(2^n) and GF(p)


def oracle_msequence(ctx, c: int) -> tuple:
    """Term j = (-1)^Tr(c * alpha^j), stepping one field multiplication and
    one trace per term."""
    cur = c
    terms = []
    for _ in range(ctx.order):
        terms.append(-1 if trace(ctx, cur) else 1)
        cur = ctx.mul(cur, ctx.generator)
    return tuple(terms)


def oracle_odd_primes(limit: int) -> list[int]:
    """The odd primes below limit, by the sieve of Eratosthenes."""
    composite = [False] * limit
    out = []
    for n in range(2, limit):
        if not composite[n]:
            out.append(n)
            for m in range(n * n, limit, n):
                composite[m] = True
    return out[1:]


def oracle_quadratic_character(p: int, j: int) -> int:
    """Legendre symbol (j|p) in {+1, -1, 0}, via Euler's criterion."""
    if p == 2 or p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not an odd prime")
    j %= p
    if j == 0:
        return 0
    return 1 if pow(j, (p - 1) // 2, p) == 1 else -1


def oracle_quartic_coset_index(ctx, j: int) -> int:
    """The k in {0,1,2,3} with j in R_k = generator^k * (fourth powers),
    by the quartic Euler criterion: (j / g^k)^((p-1)/4) = 1 exactly for k."""
    p, g = ctx.p, ctx.generator
    if p % 4 != 1:
        raise ValueError(f"quartic cosets require p = 1 mod 4, got p = {p}")
    j %= p
    if j == 0:
        raise ValueError("quartic coset index is undefined at 0")
    (k,) = [k for k in range(4) if pow(j * pow(g, -k, p) % p, (p - 1) // 4, p) == 1]
    return k


def oracle_coset_table(p: int, g: int) -> list[int]:
    """Discrete log of j base g, mod 4, at index j (index 0 holds 0), by
    walking the powers of g one at a time."""
    table = [0] * p
    acc = 1
    for e in range(p - 1):
        table[acc] = e & 3
        acc = acc * g % p
    return table


# ---------------------------------------------------------------------------
# Sequence transforms on tuples


def oracle_neg(terms) -> tuple:
    return tuple(-t for t in _ints(terms))


def oracle_cyclic_shift(terms, r: int) -> tuple:
    terms = tuple(_ints(terms))
    r %= len(terms)
    return terms[r:] + terms[:r]


def oracle_resize(terms, m: int) -> tuple:
    terms = tuple(_ints(terms))
    reps = -(-m // len(terms))
    return (terms * reps)[:m]


def oracle_decimate(terms, d: int) -> tuple:
    terms = tuple(_ints(terms))
    ell = len(terms)
    return tuple(terms[d * j % ell] for j in range(ell))


def oracle_interleave(a, b) -> BinarySequence:
    if len(a) != len(b):
        raise ValueError("interleave requires equal lengths")
    out = []
    for x, y in zip(a, b):
        out.append(x)
        out.append(y)
    return BinarySequence(tuple(out))


def oracle_deinterleave(terms) -> tuple[tuple, tuple]:
    terms = tuple(_ints(terms))
    return terms[0::2], terms[1::2]


def oracle_is_optimal_seed(seed) -> bool:
    """Length-1 seeds are optimal; longer seeds are optimal exactly when their
    even- and odd-indexed terms form a Golay complementary pair (impossible
    for odd lengths)."""
    terms = _ints(seed)
    if len(terms) == 1:
        return True
    if len(terms) % 2:
        return False
    a, b = oracle_deinterleave(terms)
    return all(oracle_xcorr(a, a, s) + oracle_xcorr(b, b, s) == 0 for s in range(1, len(a)))


def oracle_rsl_stem(seed, signs, depth: int) -> list[tuple]:
    """f_0 .. f_depth of f_{n+1} = f_n + sigma_n z^len(f_n) f_n*(-z)."""
    cur = _ints(seed)
    out = [tuple(cur)]
    for n in range(depth):
        ln = len(cur)
        block = [signs[n] * (1 if k % 2 == 0 else -1) * cur[ln - 1 - k] for k in range(ln)]
        cur = cur + block
        out.append(tuple(cur))
    return out


def oracle_mask_terms(mask: int, length: int) -> tuple:
    """Bit j of mask set means term j is +1."""
    return tuple(1 if (mask >> j) & 1 else -1 for j in range(length))


def random_sequence(rng, length: int) -> BinarySequence:
    return BinarySequence(tuple(rng.choice((1, -1)) for _ in range(length)))


class SplitMix64:
    """The stateful SplitMix64 generator, one Python-int word at a time:
    the reference for analysis.random_rows."""

    MASK = (1 << 64) - 1
    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    @classmethod
    def mix(cls, z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & cls.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & cls.MASK
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        self.state = (self.state + self.GOLDEN) & self.MASK
        return self.mix(self.state)

    @classmethod
    def draw(cls, run_seed: int, index: int, length: int) -> list[int]:
        """Draw index of the run seeded run_seed: length +-1 terms from the
        words of the generator seeded mix(mix(run_seed) + index * GOLDEN),
        least significant bit first, bit 1 -> +1."""
        gen = cls(cls.mix((cls.mix(run_seed & cls.MASK) + index * cls.GOLDEN) & cls.MASK))
        terms = []
        while len(terms) < length:
            word = gen.next_u64()
            terms.extend(1 if (word >> j) & 1 else -1 for j in range(64))
        return terms[:length]
