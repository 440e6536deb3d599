"""Job kinds: the timed library calls and the output check for each.

``run(job)`` is the timed region: only calls into seqcorr's public API.
``check(job, out)`` runs after the timer stops and returns ``(ok, text)``:
``ok`` says whether the exact invariants that hold for every seed are met,
and ``text`` is the canonical form of the exact output, whose digest is
compared with the digests recorded for the shipped seeds.  Checks use their
own arithmetic and never call seqcorr, so they are not traced and cannot
share a defect with the code they check.

seqcorr functions are looked up on the module at call time (never bound
at import) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from fractions import Fraction

import numpy as np

import seqcorr
import seqcorr.analysis
import seqcorr.cli
import seqcorr.sequence

# Optimal seeds of length 2k deinterleave into Golay pairs of length k, so
# the census counts are the Golay pair counts: 4, 8, 32, 192 for k = 1, 2,
# 4, 8, and none for the other k <= 9.  Length 1 is optimal by definition.
KNOWN_OPTIMAL_SEEDS = {1: 2, 2: 4, 4: 8, 8: 32, 16: 192}


def _line(seq) -> str:
    return "".join("+" if t > 0 else "-" for t in seq.terms)


def _scaled_int(q: Fraction, ell2: int) -> bool:
    return (q * ell2).denominator == 1


def _psc_at_least_one(rep) -> bool:
    """Pursley-Sarwate: sqrt(adf_f * adf_g) + cdf >= 1, decided exactly."""
    gap = 1 - rep.cdf
    return gap <= 0 or rep.adf_f * rep.adf_g >= gap * gap


def _report_ok(rep, ell: int) -> bool:
    """Exact facts of any DemeritReport of a length-ell pair: each factor
    times l^2 is an integer, the ADF numerators 2 * sum_{s>0} C(s)^2 are
    even, the CDF numerator is l mod 2 (C(s) = l - |s| mod 2, and those sum
    to l^2), and PSC >= 1."""
    ell2 = ell * ell
    return (
        all(_scaled_int(q, ell2) for q in (rep.adf_f, rep.adf_g, rep.cdf))
        and (rep.adf_f * ell2).numerator % 2 == 0
        and (rep.adf_g * ell2).numerator % 2 == 0
        and (rep.cdf * ell2).numerator % 2 == ell % 2
        and _psc_at_least_one(rep)
    )


def _report_text(rep) -> str:
    return f"{rep.adf_f} {rep.adf_g} {rep.cdf} {rep.psc_exact} {rep.psc!r}"


def _own_adf_numerator(terms, shift: int, m: int) -> int:
    """Sum of squared off-peak aperiodic autocorrelations of the sequence
    cyclically shifted by ``shift`` and cyclically resized to m terms."""
    x = np.resize(np.roll(np.array(terms, dtype=np.int64), -shift), m)
    c = np.correlate(x, x, mode="full")
    return int(np.dot(c, c)) - m * m


# ---------------------------------------------------------------------------
# exact_large


def run_mseq_adf(job):
    m = seqcorr.msequence(seqcorr.make_binary_field(job["n"]), job["char"])
    return m, seqcorr.adf(m)


def check_mseq_adf(job, out):
    m, a = out
    ell = (1 << job["n"]) - 1
    # An m-sequence is balanced: 2^(n-1) terms -1 and 2^(n-1) - 1 terms +1.
    ok = len(m.terms) == ell and sum(m.terms) == -1 and _scaled_int(a, ell * ell) and a > 0
    return ok, str(a)


def run_mseq_periodic(job):
    m = seqcorr.msequence(seqcorr.make_binary_field(job["n"]), job["char"])
    return m, seqcorr.periodic_xcorr(m, m)


def check_mseq_periodic(job, out):
    m, spec = out
    ell = (1 << job["n"]) - 1
    vals = spec.values
    # Two-level periodic autocorrelation, and sum_s PC(s) = (sum f)^2 = 1.
    ok = (
        len(vals) == ell
        and vals.get(0) == ell
        and all(v == -1 for s, v in vals.items() if s != 0)
        and sum(vals.values()) == sum(m.terms) ** 2
    )
    return ok, f"{ell} {vals.get(0)} {sum(vals.values())}"


def run_reversing_pair_psc(job):
    ctx = seqcorr.make_binary_field(job["n"])
    d = (-(1 << job["j"])) % ctx.order
    f, g = seqcorr.msequence_pair(ctx, d, job["shift_f"], job["shift_g"])
    return f, g, seqcorr.psc(f, g)


def check_reversing_pair_psc(job, out):
    f, g, rep = out
    ell = (1 << job["n"]) - 1
    ok = len(f.terms) == len(g.terms) == ell and sum(f.terms) == sum(g.terms) == -1
    return ok and _report_ok(rep, ell), _report_text(rep)


def run_legendre_adf(job):
    h = seqcorr.cyclic_shift(seqcorr.legendre(job["p"]), job["shift"])
    return h, seqcorr.adf(h)


def check_legendre_adf(job, out):
    h, a = out
    p = job["p"]
    # (p + 1) / 2 terms +1 (zero and the squares), (p - 1) / 2 terms -1.
    ok = len(h.terms) == p and sum(h.terms) == 1 and _scaled_int(a, p * p) and a > 0
    return ok, str(a)


def run_quartic_pair_psc(job):
    ctx = seqcorr.make_prime_field(job["p"])
    f = seqcorr.cyclic_shift(seqcorr.quartic_f(ctx), job["shift_f"])
    g = seqcorr.cyclic_shift(seqcorr.quartic_g(ctx), job["shift_g"])
    return f, g, seqcorr.psc(f, g)


def check_quartic_pair_psc(job, out):
    f, g, rep = out
    p = job["p"]
    # +1 on zero and two of the four quartic cosets: sum 1 for both.
    ok = len(f.terms) == len(g.terms) == p and sum(f.terms) == sum(g.terms) == 1
    return ok and _report_ok(rep, p), _report_text(rep)


def run_compose_psc(job):
    pair = seqcorr.compose_to_length(job["length"])
    return pair, seqcorr.psc(pair.a, pair.b)


def check_compose_psc(job, out):
    pair, rep = out
    ell = job["length"]
    ok = (
        pair.certified
        and len(pair.a.terms) == len(pair.b.terms) == ell
        and rep.psc_exact == 1
        and _report_ok(rep, ell)
    )
    return ok, f"{_line(pair.a)}\n{_line(pair.b)}\n{_report_text(rep)}"


def run_cli(job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = seqcorr.cli.main(job["argv"])
    return rc, buf.getvalue()


def check_cli(job, out):
    rc, text = out
    lines = text.splitlines()
    expect = job["expect"]
    command = job["argv"][0]
    if rc != 0 or not lines:
        return False, text
    if command == "demerit":
        ok = lines[0] == f"length = {expect['length']}" and lines[-1].startswith("psc")
    elif command == "correlate":
        # Aperiodic spectrum over -(l-1)..l-1 with sum_s C(s) = (sum f)(sum g).
        ell = expect["length"]
        rows = [row.split(",") for row in lines[1:]]
        ok = (
            lines[0] == "shift,value"
            and [int(s) for s, _ in rows] == list(range(-(ell - 1), ell))
            and sum(int(v) for _, v in rows) == expect["sum"]
        )
    elif command == "generate":
        seq = lines[1] if len(lines) == 2 else ""
        ok = lines[0].startswith("# ") and len(seq) == expect["length"] and not set(seq) - set("+-")
    else:
        ok = True
    return ok, text


# ---------------------------------------------------------------------------
# shift_search


def run_best_shift(job):
    h = seqcorr.legendre(job["p"])
    m = None if job["resize"] is None else round(job["resize"] * job["p"])
    r, val = seqcorr.analysis.best_shift(h, "adf", resize_len=m)
    return h, m, r, val


def check_best_shift(job, out):
    h, m, r, val = out
    m = len(h.terms) if m is None else m
    # The reported minimum is the exact ADF at the returned shift and is no
    # worse than the unshifted sequence.
    num = _own_adf_numerator(h.terms, r, m)
    ok = (
        0 <= r < job["p"]
        and val == Fraction(num, m * m)
        and num <= _own_adf_numerator(h.terms, 0, m)
    )
    return ok, f"{r} {val}"


def _rows_text(rows) -> str:
    return "\n".join(repr(dataclasses.astuple(row)) for row in rows)


def run_pairs(job):
    return seqcorr.analysis.report_pairs(job["construction"], **job["params"])


def check_pairs(job, out):
    ok = len(out) == 1 and out[0].length == job["length"] and out[0].psc >= 1 - 1e-12
    return ok, _rows_text(out)


def run_sweep(job):
    spec = seqcorr.parse_family(job["family"])
    target = seqcorr.analysis.lookup_target(job["target"])
    return seqcorr.analysis.convergence_sweep(spec, job["sizes"], target)


def check_sweep(job, out):
    ok = [row.length for row in out] == job["sizes"] and all(row.adf_f > 0 for row in out)
    return ok, _rows_text(out)


# ---------------------------------------------------------------------------
# small_batch


def run_psc_random(job):
    f = seqcorr.sequence.parse_line(job["f"])
    g = seqcorr.sequence.parse_line(job["g"])
    return seqcorr.psc(f, g)


def check_psc_random(job, rep):
    ell = len(job["f"])
    # Cauchy-Schwarz on the 2l-1 crosscorrelations, whose sum is (sum f)(sum g).
    cs = rep.cdf * ell * ell * (2 * ell - 1) >= job["sum"] ** 2
    return _report_ok(rep, ell) and cs, _report_text(rep)


def run_census(job):
    return seqcorr.search_optimal_seeds(job["length"])


def check_census(job, out):
    count, exemplars = out
    ell = job["length"]
    ok = (
        count == KNOWN_OPTIMAL_SEEDS.get(ell, 0)
        and len(exemplars) == min(count, 10)
        and all(len(e.terms) == ell for e in exemplars)
    )
    return ok, f"{count} " + " ".join(_line(e) for e in exemplars)


def run_baseline(job):
    return seqcorr.analysis.monte_carlo_baseline(job["length"], job["trials"], job["rng_seed"])


def check_baseline(job, out):
    mean_adf, mean_cdf = out
    denom = job["trials"] * job["length"] ** 2
    ok = all(q > 0 and _scaled_int(q, denom) for q in (mean_adf, mean_cdf))
    return ok, f"{mean_adf} {mean_cdf}"


KINDS = {
    kind: (globals()["run_" + kind], globals()["check_" + kind])
    for kind in (
        "mseq_adf", "mseq_periodic", "reversing_pair_psc", "legendre_adf",
        "quartic_pair_psc", "compose_psc", "cli", "best_shift", "pairs", "sweep",
        "psc_random", "census", "baseline",
    )
}
