"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test computes a single boolean, prints one `criterion N (...): PASS/FAIL`
line, and asserts it.  Exact criteria use rational arithmetic with zero
tolerance; convergence criteria use the stated finite-length tolerances.
"""

import random
from fractions import Fraction

from seqcorr import (
    BinarySequence,
    adf,
    aperiodic_xcorr,
    cdf,
    periodic_xcorr,
    psc,
)
from seqcorr.analysis import (
    cubic_root,
    monte_carlo_baseline,
    realize,
    report_pairs,
)
from seqcorr.families import (
    decimate,
    legendre,
    make_binary_field,
    msequence,
    parse_family,
    resize,
)
from seqcorr.golay import compose_to_length, rsl_stem, search_optimal_seeds

from oracles import oracle_l4l2_adf, oracle_psc_at_least_one


def _report(num: int, name: str, ok: bool):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_seq(rng: random.Random, length: int) -> BinarySequence:
    return BinarySequence(tuple(rng.choice((-1, 1)) for _ in range(length)))


def test_criterion_1_exact_stem_adf():
    """Seed (+1): every stem has ADF (1-(-1/2)^n)/3 for any sign choices."""
    rng = random.Random(11)
    seed = BinarySequence((1,))
    ok = True
    for _ in range(50):
        signs = [rng.choice((-1, 1)) for _ in range(12)]
        for n in range(13):
            expected = (1 - Fraction(-1, 2) ** n) / 3
            if adf(rsl_stem(seed, signs, n)) != expected:
                ok = False
    _report(1, "exact stem ADF formula", ok)


def test_criterion_2_golay_psc_exactly_one():
    lengths = (2, 4, 8, 10, 16, 20, 32, 40, 80, 100, 160, 200)
    ok = True
    for ell in lengths:
        pair = compose_to_length(ell)
        rep = psc(pair.a, pair.b)
        if rep.psc_exact != 1 or len(pair.a) != ell:
            ok = False
    _report(2, "composed Golay pairs reach PSC = 1 exactly", ok)


def test_criterion_3_optimal_seed_census():
    counts = {L: search_optimal_seeds(L)[0] for L in range(1, 21)}
    nonzero = {L for L, c in counts.items() if c > 0}
    ok = nonzero == {1, 2, 4, 8, 16, 20}
    _report(3, "optimal-seed census lengths 1..20", ok)


def test_criterion_4_oracle_equivalence():
    rng = random.Random(4)
    ok = True
    for _ in range(1000):
        f = _random_seq(rng, rng.randint(1, 64))
        g = _random_seq(rng, rng.randint(1, 64))
        fast = aperiodic_xcorr(f, g).array.tolist()
        direct = [
            sum(
                f[j + s] * g[j]
                for j in range(len(g))
                if 0 <= j + s < len(f)
            )
            for s in range(-(len(g) - 1), len(f))
        ]
        if fast != direct:
            ok = False
        if oracle_l4l2_adf(f) != adf(f) or oracle_l4l2_adf(g) != adf(g):
            ok = False
    _report(4, "accelerated correlation matches direct summation", ok)


def test_criterion_5_random_baselines():
    mean_adf, mean_cdf = monte_carlo_baseline(128, 2000, 1)
    err_adf = abs(float(mean_adf) - (1 - 1 / 128))
    err_cdf = abs(float(mean_cdf) - 1)
    ok = err_adf < 0.03 and err_cdf < 0.03
    _report(5, "Monte Carlo ADF/CDF baselines", ok)


def test_criterion_6_msequence_convergence():
    ok = True
    final = None
    for n in range(8, 13):
        f = msequence(make_binary_field(n))
        final = float(adf(f))
    ok &= abs(final - 1 / 3) < 0.05

    target = cubic_root(3, -33, 33, -7, "smallest_real")
    ratio = cubic_root(1, 0, -12, 12, "middle_real")
    f12 = msequence(make_binary_field(12))
    appended = resize(f12, round(ratio * len(f12)))
    ok &= abs(float(adf(appended)) - target) < 0.04
    _report(6, "m-sequence ADF convergence (plain and appended)", ok)


def test_criterion_7_legendre_convergence():
    primes = (983, 991, 997, 1009, 1013)
    target = cubic_root(27, -417, 249, -29, "smallest_real")
    ratio = cubic_root(4, 0, -30, 27, "middle_real")
    ok = True
    for p in primes:
        seq, _ = realize(parse_family(f"legendre:p={p},shift=best"))
        ok &= abs(float(adf(seq)) - 1 / 6) < 0.03
        seq2, _ = realize(parse_family(f"legendre:p={p},shift=best,resize={ratio}"))
        ok &= abs(float(adf(seq2)) - target) < 0.03
    _report(7, "Legendre ADF convergence (shifted and appended)", ok)


def test_criterion_8_pair_convergence():
    # d = 3 requires gcd(3, 2^n - 1) = 1, which holds at n = 9 but not n = 10
    ok = True
    row = report_pairs("typical_mseq", n=9, d=3)[0]
    ok &= abs(row.cdf - 1) < 0.15

    row = report_pairs("reversing_mseq", n=9)[0]
    ok &= abs(row.cdf - 5 / 6) < 0.1

    row = report_pairs("half_legendre", p=997)[0]
    for value in (row.adf_f, row.adf_g, row.cdf):
        ok &= abs(value - 7 / 12) < 0.1
    _report(8, "pair-construction convergence", ok)


def test_criterion_9_property_suite():
    rng = random.Random(9)
    ok = True

    for _ in range(1000):
        ell = rng.randint(1, 48)
        f = _random_seq(rng, ell)
        g = _random_seq(rng, ell)
        fg = aperiodic_xcorr(f, g).values
        gf = aperiodic_xcorr(g, f).values
        if any(v != gf[-s] for s, v in fg.items()):
            ok = False
        pc = periodic_xcorr(f, g).values
        if any(pc[s] != fg[s] + fg.get(s - ell, 0) for s in range(ell)):
            ok = False
        if not oracle_psc_at_least_one(psc(f, g)):
            ok = False

    for n in range(3, 9):
        f = msequence(make_binary_field(n))
        pc = periodic_xcorr(f, f).values
        ok &= all(pc[s] == -1 for s in range(1, len(f)))
    for p in (7, 11, 19, 23):
        f = legendre(p)
        pc = periodic_xcorr(f, f).values
        ok &= all(pc[s] == -1 for s in range(1, p))

    f = legendre(31)
    for d1, d2 in ((3, 5), (7, 11), (2, 9)):
        lhs = decimate(decimate(f, d1), d2)
        rhs = decimate(f, (d1 * d2) % 31)
        ok &= lhs == rhs
    _report(9, "correlation property suite", ok)
