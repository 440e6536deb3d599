"""Character-based sequence families and shift/decimate/resize transforms.

Families: m-sequences over GF(2^n) (additive character of traces), Legendre
sequences (quadratic character), and the two quartic cyclotomic sequences
for p = 1 mod 4.  Transforms: cyclic shift, decimation, truncation and
periodic appending to an arbitrary length.  A FamilySpec is a kind and its
size (n or p); one table holds each kind's descriptor key and builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import budget
from .gf import (
    BinaryFieldContext,
    PrimeFieldContext,
    binary_field_order,
    check_odd_prime,
    make_binary_field,
    make_prime_field,
    trace,
)
from .sequence import BinarySequence


def msequence(ctx: BinaryFieldContext, char_shift: int = 1) -> BinarySequence:
    """Length 2^n - 1 sequence with term j = (-1)^Tr(char_shift * alpha^j).

    char_shift = 1 gives the naturally shifted (Galois) form; any other
    nonzero value only rotates it cyclically.

    The powers alpha^j are built as bitmasks by doubling a block: alpha^(j+B)
    = alpha^j * alpha^B, and multiplying by the fixed element alpha^B is
    GF(2)-linear, so it is the XOR over the set bits i of alpha^j of
    x^i * alpha^B: n vector XORs over the block already built.  The trace is
    linear too: Tr(c * alpha^j) = parity(alpha^j & mask), where bit i of mask
    is Tr(c * x^i), so n scalar traces serve every term.
    """
    _check_char_shift(char_shift, ctx.order)
    n, order = ctx.n, ctx.order
    powers = np.ones(order, dtype=np.int32)  # int32: the sequence budget keeps n <= 24
    done, alpha_done = 1, ctx.generator  # alpha_done = alpha^done
    while done < order:
        out = powers[done : 2 * done]
        src, bit = powers[: len(out)], np.empty_like(out)
        out[:] = 0
        for i in range(n):  # out ^= (bit i of src) * x^i * alpha^done
            np.right_shift(src, i, out=bit)
            bit &= 1
            bit *= ctx.mul(1 << i, alpha_done)
            out ^= bit
        done *= 2
        alpha_done = ctx.mul(alpha_done, alpha_done)
    powers &= sum(trace(ctx, ctx.mul(char_shift, 1 << i)) << i for i in range(n))
    for k in reversed(range((n - 1).bit_length())):  # parity of the n low bits into bit 0
        powers ^= powers >> (1 << k)
    powers &= 1
    powers *= -2
    powers += 1
    return BinarySequence(powers)


def _check_char_shift(char_shift: int, order: int) -> None:
    if char_shift == 0:
        raise ValueError("character shift 0 gives the trivial character")
    if not 0 < char_shift <= order:
        raise ValueError(f"character shift {char_shift} is not a nonzero field element")


def decimate(f: BinarySequence, d: int) -> BinarySequence:
    """Term j of the output is term (d*j mod l) of the input."""
    ell = len(f)
    if math.gcd(d % ell, ell) != 1:
        raise ValueError(f"decimation {d} is not invertible mod {ell}")
    return BinarySequence(f.terms[d % ell * np.arange(ell) % ell])


def power_of_two_residues(ell: int) -> set[int]:
    """The residues 2^k mod ell; decimating by these is degenerate for
    m-sequences of length ell = 2^n - 1."""
    out = set()
    v = 1 % ell
    while v not in out:
        out.add(v)
        v = v * 2 % ell
    return out


def legendre(p: int) -> BinarySequence:
    """Length-p sequence: +1 at 0 and at nonzero squares, -1 at nonsquares."""
    check_odd_prime(p)
    terms = np.full(p, -1, dtype=np.int64)
    roots = np.arange(p // 2 + 1, dtype=np.int64)  # j and p - j share j^2
    terms[roots * roots % p] = 1
    return BinarySequence(terms)


def _check_quartic(p: int) -> None:
    if p % 4 != 1:
        raise ValueError(f"quartic sequences require p = 1 mod 4, got p = {p}")


def _quartic(ctx: PrimeFieldContext, plus_cosets: tuple[int, int]) -> BinarySequence:
    _check_quartic(ctx.p)
    # the table's unused slot 0 holds coset 0, so term 0 is +1
    return BinarySequence(np.where(np.isin(ctx.coset_index, plus_cosets), 1, -1))


def quartic_f(ctx: PrimeFieldContext) -> BinarySequence:
    """+1 on {0} and cosets R0, R1 of the fourth powers; -1 on R2, R3."""
    return _quartic(ctx, (0, 1))


def quartic_g(ctx: PrimeFieldContext) -> BinarySequence:
    """+1 on {0} and cosets R0, R3 of the fourth powers; -1 on R1, R2."""
    return _quartic(ctx, (0, 3))


def cyclic_shift(f: BinarySequence, r: int) -> BinarySequence:
    """Term j of the output is term (j + r mod l) of the input."""
    r %= len(f)
    if r == 0:
        return f
    return BinarySequence(np.roll(f.terms, -r))


def resize(f: BinarySequence, m: int) -> BinarySequence:
    """Truncate (m < l) or periodically append (m > l) to length m."""
    if m < 1:
        raise ValueError(f"target length must be >= 1, got {m}")
    if m == len(f):
        return f
    return BinarySequence(np.resize(f.terms, m))


def half_legendre_pair(p: int, r: int = 0) -> tuple[BinarySequence, BinarySequence]:
    """Shift the Legendre sequence by r, drop the last term, cut into halves."""
    h = cyclic_shift(legendre(p), r)
    half = (p - 1) // 2
    return (
        BinarySequence(h.terms[:half]),
        BinarySequence(h.terms[half : 2 * half]),
    )


def msequence_pair(
    ctx: BinaryFieldContext, d: int, shift_f: int = 0, shift_g: int = 0
) -> tuple[BinarySequence, BinarySequence]:
    """(shifted Galois sequence, shifted decimation of it by d).

    Decimations by powers of 2 are degenerate (they reproduce the sequence)
    and are rejected; d = -2^k gives the reversing construction.
    """
    ell = ctx.order
    if d % ell in power_of_two_residues(ell):
        raise ValueError(f"degenerate decimation: {d} is a power of 2 mod {ell}")
    if math.gcd(d % ell, ell) != 1:
        raise ValueError(f"decimation {d} is not invertible mod {ell}")
    base = msequence(ctx, 1)
    return cyclic_shift(base, shift_f), cyclic_shift(decimate(base, d), shift_g)


# ---------------------------------------------------------------------------
# Family descriptors: `kind:key=value,...`, e.g.
#   mseq:n=10,char=1
#   legendre:p=1019,shift=best,resize=1.0578
#   quartic_f:p=1013,shift=5


@dataclass(frozen=True)
class FamilySpec:
    """A base family plus shift/resize transform parameters.

    size is the degree n for mseq and the prime p otherwise; char_shift is
    read for mseq only.  shift is an integer, or the string "best" to
    request a search; resize_ratio scales the base length: m = round(ratio * l).
    """

    kind: str
    size: int
    char_shift: int = 1
    shift: int | str = 0
    resize_ratio: float | None = None
    descriptor: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.descriptor or self.kind


# kind -> (descriptor key of its size, what that key names, base builder).
# The builders call module functions by name, so patches and wrappers apply.
_KINDS = {
    "mseq": ("n", "degree", lambda s: msequence(make_binary_field(s.size), s.char_shift)),
    "legendre": ("p", "prime", lambda s: legendre(s.size)),
    "quartic_f": ("p", "prime", lambda s: quartic_f(make_prime_field(s.size))),
    "quartic_g": ("p", "prime", lambda s: quartic_g(make_prime_field(s.size))),
}
FAMILY_KINDS = tuple(_KINDS)


def parse_family(text: str) -> FamilySpec:
    head, _, rest = text.partition(":")
    kind = head.strip()
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    kv = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed descriptor item {item!r}; expected key=value")
            key = key.strip()
            if key in kv:
                raise ValueError(f"descriptor key {key} is given more than once")
            kv[key] = value.strip()

    def take_int(key, default=None):
        if key not in kv:
            return default
        try:
            return int(kv.pop(key))
        except ValueError:
            raise ValueError(f"descriptor key {key} must be an integer") from None

    shift: int | str = 0
    if kv.get("shift") == "best":
        kv.pop("shift")
        shift = "best"
    else:
        shift = take_int("shift", 0)
    ratio = None
    if "resize" in kv:
        try:
            ratio = float(kv.pop("resize"))
        except ValueError:
            raise ValueError("descriptor key resize must be a number") from None
        if not 0 < ratio < math.inf:  # refuses NaN too
            raise ValueError(f"resize ratio {ratio} must be positive and finite")

    size_key, noun, _ = _KINDS[kind]
    size = take_int(size_key)
    if size is None:
        raise ValueError(f"{kind} descriptor requires {size_key}=<{noun}>")
    char_shift = take_int("char", 1) if kind == "mseq" else 1
    if kv:
        raise ValueError(f"unknown descriptor keys {sorted(kv)} for {kind}")
    return FamilySpec(kind, size, char_shift, shift, ratio, descriptor=text)


def with_size(spec: FamilySpec, size: int) -> FamilySpec:
    """Copy of spec with its size (n or p) replaced and no descriptor."""
    return replace(spec, size=size, descriptor="")


def base_length(spec: FamilySpec) -> int:
    """The base sequence's length from the spec alone, after refusing every
    parameter its builder would refuse, so that nothing is built first."""
    if spec.kind == "mseq":
        order = binary_field_order(spec.size)
        _check_char_shift(spec.char_shift, order)
        return order
    check_odd_prime(spec.size)
    if spec.kind != "legendre":
        _check_quartic(spec.size)
    return spec.size


def build_base(spec: FamilySpec) -> BinarySequence:
    """The family's base sequence, before shift/resize transforms."""
    base_length(spec)
    _, _, build = _KINDS[spec.kind]
    return build(spec)


def resized_length(spec: FamilySpec, base_len: int) -> int:
    if spec.resize_ratio is None:
        return base_len
    m = spec.resize_ratio * base_len  # checked before round(), which fails on inf
    budget.check("sequence length", m, f"{spec.resize_ratio:g} * {base_len}")
    return max(round(m), 1)
