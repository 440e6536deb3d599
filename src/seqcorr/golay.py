"""Sign-recursion stems, Golay complementary pairs, and optimal seeds.

The recursion doubles a sequence at each step:

    f_{n+1}(z) = f_n(z) + sigma_n * z^len(f_n) * f_n*(-z)

where * is coefficient reversal, so the appended block is the reversal of
f_n with alternating signs, scaled by the step's sign sigma_n.

A pair (a, b) is Golay complementary when the autocorrelations cancel at
every nonzero shift.  Certification is always re-checked from scratch; no
constructed pair is trusted without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .corr import _corr
from .sequence import BinarySequence, from_array, parse_sequences

STEM_LENGTH_LIMIT = 1 << 24


class CertificationError(RuntimeError):
    """A pair that was required to be Golay complementary is not."""


def _check_signs(signs) -> tuple[int, ...]:
    signs = tuple(signs)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("sign sequence entries must be +1 or -1")
    return signs


def rsl_stem(seed: BinarySequence, signs, depth: int) -> list[BinarySequence]:
    """Stem f_0 ... f_depth of the doubling recursion; f_0 is the seed."""
    signs = _check_signs(signs)
    if depth > len(signs):
        raise ValueError(f"depth {depth} exceeds supply of {len(signs)} signs")
    if len(seed) << depth > STEM_LENGTH_LIMIT:
        raise ValueError(f"stem would exceed length limit {STEM_LENGTH_LIMIT}")
    cur = list(seed.terms)
    out = [seed]
    for n in range(depth):
        ln = len(cur)
        block = [signs[n] * (1 if k % 2 == 0 else -1) * cur[ln - 1 - k] for k in range(ln)]
        cur = cur + block
        out.append(BinarySequence(tuple(cur)))
    return out


def rsl_pair_stems(seed_f: BinarySequence, seed_g: BinarySequence, signs, depth: int):
    """Run the recursion on two seeds with a shared sign sequence."""
    if len(seed_f) != len(seed_g):
        raise ValueError("seed lengths must match")
    return list(zip(rsl_stem(seed_f, signs, depth), rsl_stem(seed_g, signs, depth)))


# ---------------------------------------------------------------------------
# Golay pairs


def _acorr_tail(arr: np.ndarray) -> np.ndarray:
    """Autocorrelations at shifts 1 .. len-1 (the rest follow by symmetry)."""
    return _corr(arr, arr)[len(arr) :]


def is_golay_pair(a: BinarySequence, b: BinarySequence) -> bool:
    """True iff C_{a,a}(s) + C_{b,b}(s) = 0 for every s != 0."""
    if len(a) != len(b):
        raise ValueError("Golay check requires equal lengths")
    return not (_acorr_tail(a.as_array()) + _acorr_tail(b.as_array())).any()


@dataclass(frozen=True)
class GolayPair:
    a: BinarySequence
    b: BinarySequence
    certified: bool = False

    @property
    def length(self) -> int:
        return len(self.a)


def certify(a: BinarySequence, b: BinarySequence) -> GolayPair:
    if not is_golay_pair(a, b):
        raise CertificationError(f"length-{len(a)} pair failed the Golay certification")
    return GolayPair(a, b, certified=True)


def interleave(a: BinarySequence, b: BinarySequence) -> BinarySequence:
    if len(a) != len(b):
        raise ValueError("interleave requires equal lengths")
    terms = []
    for x, y in zip(a.terms, b.terms):
        terms.append(x)
        terms.append(y)
    return BinarySequence(tuple(terms))


def deinterleave(f: BinarySequence) -> tuple[BinarySequence, BinarySequence]:
    if len(f) % 2:
        raise ValueError("deinterleave requires even length")
    return BinarySequence(f.terms[0::2]), BinarySequence(f.terms[1::2])


def is_optimal_seed(seed: BinarySequence) -> bool:
    """Length-1 seeds are optimal; longer seeds are optimal exactly when
    they deinterleave into a Golay complementary pair (impossible for odd
    lengths)."""
    if len(seed) == 1:
        return True
    if len(seed) % 2:
        return False
    return is_golay_pair(*deinterleave(seed))


def _mask_to_sequence(mask: int, length: int) -> BinarySequence:
    """Bit j set means term j is +1; this fixes the enumeration order."""
    return BinarySequence(tuple(1 if (mask >> j) & 1 else -1 for j in range(length)))


def search_optimal_seeds(length: int, exemplar_cap: int = 10):
    """Exhaustively classify all 2^length seeds; returns (count, exemplars).

    Seeds are enumerated in increasing order of their sign bitmask (bit j
    set = +1 at position j), so exemplars are deterministic.  Odd lengths
    above 1 are known to contain no optimal seeds, so they short-circuit.
    """
    if not 1 <= length <= 22:
        raise ValueError(f"census length must be in [1, 22], got {length}")
    if length == 1:
        return 2, [_mask_to_sequence(0, 1), _mask_to_sequence(1, 1)]
    if length % 2:
        return 0, []

    half = length // 2
    count = 0
    exemplars: list[BinarySequence] = []
    block_bits = min(length, 16)
    block = 1 << block_bits
    for start in range(0, 1 << length, block):
        masks = np.arange(start, start + block, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(length)[None, :]) & 1
        signs = (2 * bits - 1).astype(np.int16)
        a = signs[:, 0::2]
        b = signs[:, 1::2]
        ok = np.ones(block, dtype=bool)
        for s in range(1, half):
            tail = (a[:, s:] * a[:, : half - s]).sum(axis=1, dtype=np.int32)
            tail += (b[:, s:] * b[:, : half - s]).sum(axis=1, dtype=np.int32)
            ok &= tail == 0
        count += int(ok.sum())
        if len(exemplars) < exemplar_cap:
            for m in masks[ok][: exemplar_cap - len(exemplars)]:
                exemplars.append(_mask_to_sequence(int(m), length))
    return count, exemplars


# ---------------------------------------------------------------------------
# Composition and base pairs


def _compose_once(pa: GolayPair, pb: GolayPair) -> GolayPair:
    """Turyn's composition of pa = (a,b) of length m with pb = (c,d) of
    length n, giving an uncertified pair of length m*n.

    Block i of the result is u_i*a + v_i*b~ (first sequence) and
    u_i*b - v_i*a~ (second), where ~ is reversal, u = (c+d)/2 and
    v = (c-d)/2.  Exactly one of u_i, v_i is nonzero, so every term is +-1.
    """
    aa, ab = pa.a.as_array(), pa.b.as_array()
    ac, ad = pb.a.as_array(), pb.b.as_array()
    u = (ac + ad) // 2
    v = (ac - ad) // 2
    f = np.outer(u, aa) + np.outer(v, ab[::-1])
    g = np.outer(u, ab) - np.outer(v, aa[::-1])
    return GolayPair(from_array(f.ravel()), from_array(g.ravel()))


def golay_compose(pa: GolayPair, pb: GolayPair) -> GolayPair:
    """Compose two certified pairs into a pair of product length by one
    Turyn step (Turyn 1974), then certify the result once."""
    if not (pa.certified and pb.certified):
        raise ValueError("composition inputs must be certified Golay pairs")
    pair = _compose_once(pa, pb)
    return certify(pair.a, pair.b)


_BASE2 = (BinarySequence((1, 1)), BinarySequence((1, -1)))


def _load_pair_asset(name: str) -> tuple[BinarySequence, BinarySequence]:
    path = resources.files("seqcorr").joinpath(f"data/{name}")
    if not path.is_file():
        raise FileNotFoundError(
            f"base pair asset {name} is not installed; populate src/seqcorr/data/{name} "
            "(random_pair_search can find one offline)"
        )
    seqs = parse_sequences(path.read_text(encoding="ascii"))
    if len(seqs) != 2:
        raise CertificationError(f"asset {name} must contain exactly two sequences")
    return seqs[0], seqs[1]


def golay_base(length: int) -> GolayPair:
    """A certified base pair of length 2, 10, or 26.

    Length 2 is built in; length 10 was found once by exhaustive search and
    is shipped as a data file; length 26 is loaded from an optional data
    file and raises if absent.  Every asset is re-certified at load time.
    """
    if length == 2:
        return certify(*_BASE2)
    if length == 10:
        return certify(*_load_pair_asset("golay10.txt"))
    if length == 26:
        return certify(*_load_pair_asset("golay26.txt"))
    raise ValueError(f"base pair lengths are 2, 10, and 26; got {length}")


def base_factorization(length: int) -> tuple[int, int, int] | None:
    """Exponents (a, b, c) with length = 2^a * 10^b * 26^c, or None."""
    best = None
    c = 0
    p26 = 1
    while p26 <= length:
        if length % p26 == 0:
            rest = length // p26
            b = 0
            p10 = 1
            while p10 <= rest:
                if rest % p10 == 0:
                    rem = rest // p10
                    if rem & (rem - 1) == 0:
                        cand = (rem.bit_length() - 1, b, c)
                        if best is None or (cand[2], cand[1]) > (best[2], best[1]):
                            best = cand
                b += 1
                p10 *= 10
        c += 1
        p26 *= 26
    return best


def compose_to_length(length: int) -> GolayPair:
    """Certified pair of the given length: Turyn steps from the base pairs,
    certified once at the end."""
    if length < 2:
        raise ValueError("composed pair length must be at least 2")
    expo = base_factorization(length)
    if expo is None:
        raise ValueError(f"{length} is not of the form 2^a * 10^b * 26^c")
    a, b, c = expo
    factors = [2] * a + [10] * b + [26] * c
    bases = {fac: golay_base(fac) for fac in dict.fromkeys(factors)}
    pair = bases[factors[0]]
    for fac in factors[1:]:
        pair = _compose_once(pair, bases[fac])
    return pair if pair.certified else certify(pair.a, pair.b)


# ---------------------------------------------------------------------------
# Searches


def search_golay_pairs(length: int) -> GolayPair | None:
    """First Golay pair of the given length in bitmask enumeration order.

    Groups all 2^length sequences by autocorrelation tail, then scans a in
    increasing mask order for a partner b whose tail is the negation.  Used
    once to produce the length-10 asset; practical through length ~16.
    """
    if not 2 <= length <= 16:
        raise ValueError(f"exhaustive pair search supports lengths 2..16, got {length}")
    seqs = [_mask_to_sequence(m, length) for m in range(1 << length)]
    tails = [tuple(_acorr_tail(s.as_array()).tolist()) for s in seqs]
    first = {}
    for m, tail in enumerate(tails):
        first.setdefault(tail, m)
    for m, tail in enumerate(tails):
        partner = first.get(tuple(-v for v in tail))
        if partner is not None:
            return certify(seqs[m], seqs[partner])
    return None


def random_pair_search(
    length: int, rng_seed: int = 0, restarts: int = 2000, steps: int = 3000
) -> GolayPair | None:
    """Randomized local search for a Golay pair of the given even length.

    Iterated steepest descent on the energy sum((C_aa(s)+C_bb(s))^2, s>0)
    with sideways moves and small random perturbations at local minima.
    Intended for offline population of the length-26 base asset; returns the
    first certified pair found, or None when the budget is exhausted.
    """
    if length % 2 or length < 2:
        raise ValueError("Golay pairs have even length")
    rng = np.random.default_rng(rng_seed)
    ell = length
    ks = np.arange(ell)[:, None]
    ss = np.arange(1, ell)[None, :]
    up_ok = ks + ss < ell
    dn_ok = ks - ss >= 0
    up_ix = np.where(up_ok, ks + ss, 0)
    dn_ix = np.where(dn_ok, ks - ss, 0)

    def tail(v):
        return np.array(
            [int(np.dot(v[s:], v[: ell - s])) for s in range(1, ell)], dtype=np.int64
        )

    def flip_deltas(v):
        up = np.where(up_ok, v[up_ix], 0)
        dn = np.where(dn_ok, v[dn_ix], 0)
        return -2 * v[:, None] * (up + dn)

    for _ in range(restarts):
        a = rng.choice((-1, 1), size=ell).astype(np.int64)
        b = rng.choice((-1, 1), size=ell).astype(np.int64)
        c = tail(a) + tail(b)
        energy = int(np.dot(c, c))
        sideways = 0
        for _ in range(steps):
            if energy == 0:
                return certify(from_array(a), from_array(b))
            da, db = flip_deltas(a), flip_deltas(b)
            gain = np.concatenate(
                [
                    (2 * c[None, :] * da + da * da).sum(axis=1),
                    (2 * c[None, :] * db + db * db).sum(axis=1),
                ]
            )
            best = int(gain.min())
            if best > 0 or (best == 0 and sideways > 4 * ell):
                sideways = 0
                for k in rng.integers(0, 2 * ell, size=3):
                    k = int(k)
                    if k < ell:
                        c += flip_deltas(a)[k]
                        a[k] = -a[k]
                    else:
                        c += flip_deltas(b)[k - ell]
                        b[k - ell] = -b[k - ell]
                energy = int(np.dot(c, c))
                continue
            sideways = sideways + 1 if best == 0 else 0
            choices = np.flatnonzero(gain == best)
            k = int(choices[rng.integers(0, len(choices))])
            if k < ell:
                c += da[k]
                a[k] = -a[k]
            else:
                c += db[k - ell]
                b[k - ell] = -b[k - ell]
            energy += best
    return None
