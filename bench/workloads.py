"""Seeded job lists for the three benchmark workloads.

Nothing here imports seqcorr: the job lists and their input files are made
before the program is loaded, so the program sees only generated inputs.
A job is a JSON-ready dict with a ``kind`` (see ``jobs.KINDS``) and the
arguments for it.  Job counts per workload do not depend on the seed, so the
percentile used for ``job_tail_s`` is fixed per workload.

Why each workload exists (recorded in BENCHMARK.json as well):

* exact_large: a few long exact jobs at l ~ 2^11..2^14.  The O(l^2)
  correlation kernel, CLI text output and Golay certification dominate; the
  all-shift search engines take no time.  A kernel or sequence-representation
  change must show here; a shift-search engine change must not.
* shift_search: the all-shift engines of ``analysis`` (best Legendre shift,
  pair shift grids and diagonals, half-Legendre, a shift=best sweep).  The
  correlation kernel only computes the final rows; Golay code does nothing.
* small_batch: the same corr, golay and cli layers as exact_large but as many
  short calls, where per-call overhead dominates and an FFT path loses.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact_large", "shift_search", "small_batch")
# Outputs are digested, and checked against recorded digests, in chunks of
# this many consecutive jobs.
DIGEST_CHUNK = 25

_PM = str.maketrans("01", "-+")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primes_from(start: int, count: int, mod4: int | None = None) -> list[int]:
    out = []
    n = start
    while len(out) < count:
        if _is_prime(n) and n > 2 and (mod4 is None or n % 4 == mod4):
            out.append(n)
        n += 1
    return out


def _pick_prime(rng: random.Random, near: int, mod4: int | None = None, choices: int = 4) -> int:
    """One of the first few primes at or above ``near``; their costs differ
    by well under the benchmark's bounds, so the seed moves inputs, not load."""
    return rng.choice(_primes_from(near, choices, mod4))


def _random_line(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b").translate(_PM)


def _line_sum(line: str) -> int:
    return 2 * line.count("+") - len(line)


def make(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """(jobs, input files by name) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"seqcorr-bench/{workload}/{seed}")
    return _MAKERS[workload](rng)


def _exact_large(rng: random.Random):
    jobs: list[dict] = []
    files: dict[str, str] = {}
    for k in (11, 12, 13, 14):
        n, order = k, (1 << k) - 1
        jobs.append({"kind": "mseq_adf", "n": n, "char": rng.randrange(1, 1 << n)})
        jobs.append({"kind": "mseq_periodic", "n": n, "char": rng.randrange(1, 1 << n)})
        jobs.append({"kind": "reversing_pair_psc", "n": n, "j": rng.randrange(n),
                     "shift_f": rng.randrange(order), "shift_g": rng.randrange(order)})
        p = _pick_prime(rng, 1 << k)
        jobs.append({"kind": "legendre_adf", "p": p, "shift": rng.randrange(p)})
        q = _pick_prime(rng, 1 << k, mod4=1)
        jobs.append({"kind": "quartic_pair_psc", "p": q,
                     "shift_f": rng.randrange(q), "shift_g": rng.randrange(q)})
        jobs.append({"kind": "compose_psc", "length": 1 << k})
        jobs.append({"kind": "compose_psc", "length": 10 << (k - 4)})
        ell = (1 << k) - rng.randrange(16)
        f, g = _random_line(rng, ell), _random_line(rng, ell)
        name = f"pair{k}.txt"
        files[name] = f"# random pair, length {ell}\n{f}\n{g}\n"
        expect = {"length": ell, "sum": _line_sum(f) * _line_sum(g)}
        jobs.append({"kind": "cli", "argv": ["demerit", "{dir}/" + name], "expect": expect})
        jobs.append({"kind": "cli", "argv": ["correlate", "{dir}/" + name], "expect": expect})
        r = _pick_prime(rng, 1 << k)
        jobs.append({"kind": "cli", "argv": ["generate", f"legendre:p={r},shift={rng.randrange(r)}"],
                     "expect": {"length": r}})
    return jobs, files


def _shift_search(rng: random.Random):
    jobs: list[dict] = []
    for k, count in ((10, 4), (11, 3), (12, 2), (13, 1)):
        for p in rng.sample(_primes_from(1 << k, 8), count):
            jobs.append({"kind": "best_shift", "p": p, "resize": None})
            jobs.append({"kind": "best_shift", "p": p, "resize": 1.0578})
    for n, count in ((7, 3), (8, 1), (10, 2), (11, 1), (12, 1)):
        for k in sorted(rng.sample(range(n), count)):
            jobs.append({"kind": "pairs", "construction": "reversing_mseq",
                         "params": {"n": n, "k": k}, "length": (1 << n) - 1})
    for near in (257, 313, 389):
        p = _pick_prime(rng, near, mod4=1, choices=3)
        jobs.append({"kind": "pairs", "construction": "quartic_pair",
                     "params": {"p": p}, "length": p})
    for near in (509, 601, 701, 809, 907, 997):
        p = _pick_prime(rng, near, mod4=1, choices=3)
        jobs.append({"kind": "pairs", "construction": "legendre_plus_quartic",
                     "params": {"p": p}, "length": p})
    for near in (503, 907):
        p = _pick_prime(rng, near, choices=3)
        jobs.append({"kind": "pairs", "construction": "half_legendre",
                     "params": {"p": p}, "length": (p - 1) // 2})
    sizes = [_pick_prime(rng, 1 << k) for k in (8, 9, 10, 11, 12)]
    jobs.append({"kind": "sweep", "family": "legendre:p=3,shift=best", "sizes": sizes,
                 "target": "legendre-shifted-adf"})
    return jobs, {}


def _small_batch(rng: random.Random):
    jobs: list[dict] = []
    for _ in range(1500):
        ell = rng.randint(16, 512)
        f, g = _random_line(rng, ell), _random_line(rng, ell)
        jobs.append({"kind": "psc_random", "f": f, "g": g,
                     "sum": _line_sum(f) * _line_sum(g)})
    lengths = sorted({(2 ** a) * (10 ** b) for a in range(10) for b in range(3)})
    for ell in lengths:
        if 2 <= ell <= 640:
            jobs.append({"kind": "compose_psc", "length": ell})
    for ell in range(2, 19):
        jobs.append({"kind": "census", "length": ell})
    for _ in range(40):
        jobs.append({"kind": "baseline", "length": 128, "trials": 100,
                     "rng_seed": rng.getrandbits(63)})
    for _ in range(100):
        jobs.append({"kind": "cli", "argv": ["generate", "legendre:p=251,shift=best"],
                     "expect": {"length": 251}})
        jobs.append({"kind": "cli", "argv": ["roots"], "expect": {}})
    return jobs, {}


_MAKERS = {"exact_large": _exact_large, "shift_search": _shift_search, "small_batch": _small_batch}
