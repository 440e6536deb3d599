"""Sweeps, shift searches, Monte Carlo baselines, and asymptotic targets.

All demerit-factor numerators here are exact int64 sums; division by the
squared length happens only at the edge (Fraction or float).  The all-shift
engines share one rotation walk: the off-peak autocorrelation C(1..m-1) of
resize(cyclic_shift(f, r), m) is taken once from corr._corr at r = 0 and then
updated in O(m) per step to r + 1.  ADF numerators are 2 sum C^2 per shift;
CDF numerators follow from sum_s C_fg(s)^2 = sum_t C_ff(t) C_gg(t), a dot
product per shift on the diagonal and one integer matrix product for the
full shift grid.  Size limits come from budget.

The RNG is SplitMix64, fixed by its constants so that any implementation
can reproduce the streams.  With G = 0x9E3779B97F4A7C15 and

    mix(z) = z2 ^ (z2 >> 31), where z1 = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                                    z2 = (z1 ^ (z1 >> 27)) * 0x94D049BB133111EB

(all mod 2^64), word w = 1, 2, ... of the generator seeded s is
mix(s + w * G), so no state is kept.  Draw i of a run with seed S is the
generator seeded mix(mix(S) + i * G); its +-1 terms are the low bits of
its successive words, least significant bit first, and bit 1 maps to +1.
Trial t of the Monte Carlo baseline uses draws 2t and 2t+1, so
partitioning trials into blocks or across workers cannot change the results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import budget, corr, families, golay
from .families import FamilySpec, cyclic_shift, resize
from .sequence import BinarySequence

# ---------------------------------------------------------------------------
# SplitMix64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """mix of the module docstring on a uint64 array, which wraps mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_rows(run_seed: int, first: int, count: int, length: int) -> np.ndarray:
    """Draws first .. first+count-1 of the run seeded run_seed, as a
    (count, length) int64 array of +-1 terms (see the module docstring)."""
    # Arrays throughout: uint64 arrays wrap mod 2^64 silently, numpy scalars warn.
    base = _mix64(np.array([run_seed % (1 << 64)], dtype=np.uint64))
    seeds = _mix64(base + np.arange(first, first + count, dtype=np.uint64) * _GOLDEN)
    steps = np.arange(1, (length + 63) // 64 + 1, dtype=np.uint64) * _GOLDEN
    words = _mix64(seeds[:, None] + steps).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :length]
    return bits.astype(np.int64) * 2 - 1


# ---------------------------------------------------------------------------
# Cubic roots and asymptotic targets


def cubic_root(c3: int, c2: int, c1: int, c0: int, selector: str) -> float:
    """A real root of c3 x^3 + c2 x^2 + c1 x + c0, Newton-polished.

    selector is smallest_real or middle_real; middle_real requires all
    three roots to be real.
    """
    if c3 == 0:
        raise ValueError("cubic leading coefficient must be nonzero")
    roots = np.roots([c3, c2, c1, c0])
    scale = max(1.0, *(abs(float(r.real)) for r in roots))
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * scale)
    if selector == "middle_real":
        if len(real) != 3:
            raise ValueError("middle_real requires three real roots")
        x = real[1]
    elif selector == "smallest_real":
        x = real[0]
    else:
        raise ValueError(f"unknown root selector {selector!r}")
    for _ in range(8):
        p = ((c3 * x + c2) * x + c1) * x + c0
        dp = (3 * c3 * x + 2 * c2) * x + c1
        if dp == 0:
            break
        x -= p / dp
    return x


def _residual(c3, c2, c1, c0, x) -> float:
    return abs(((c3 * x + c2) * x + c1) * x + c0)


@dataclass(frozen=True)
class AsymptoticTarget:
    name: str
    value: float
    definition: str
    cubic: tuple[int, int, int, int] | None = None

    def residual(self) -> float | None:
        if self.cubic is None:
            return None
        return _residual(*self.cubic, self.value)


def _cubic_target(name, coeffs, selector, definition) -> AsymptoticTarget:
    value = cubic_root(*coeffs, selector)
    assert _residual(*coeffs, value) < 1e-12
    return AsymptoticTarget(name, value, definition, cubic=coeffs)


TARGETS: dict[str, AsymptoticTarget] = {
    t.name: t
    for t in [
        AsymptoticTarget("mseq-adf", 1 / 3, "limiting ADF of m-sequences at natural length"),
        _cubic_target(
            "mseq-appended-adf", (3, -33, 33, -7), "smallest_real",
            "limiting ADF of appended m-sequences; smallest real root of 3x^3-33x^2+33x-7",
        ),
        _cubic_target(
            "mseq-append-ratio", (1, 0, -12, 12), "middle_real",
            "optimal append ratio for m-sequences; middle root of x^3-12x+12",
        ),
        AsymptoticTarget("legendre-shifted-adf", 1 / 6, "limiting ADF of best-shift Legendre sequences"),
        _cubic_target(
            "legendre-appended-adf", (27, -417, 249, -29), "smallest_real",
            "limiting ADF of shifted+appended Legendre; smallest real root of 27x^3-417x^2+249x-29",
        ),
        _cubic_target(
            "legendre-append-ratio", (4, 0, -30, 27), "middle_real",
            "optimal append ratio for shifted Legendre; middle root of 4x^3-30x+27",
        ),
        AsymptoticTarget("random-adf", 1.0, "large-length limit of E[ADF] = 1 - 1/l for random sequences"),
        AsymptoticTarget("random-cdf", 1.0, "E[CDF] = 1 for random pairs of any length"),
        AsymptoticTarget("psc-typical-mseq", 4 / 3, "limiting PSC of typical m-sequence pairs"),
        AsymptoticTarget("psc-reversing-mseq", 7 / 6, "limiting PSC of best-shift reversing m-sequence pairs"),
        AsymptoticTarget("cdf-reversing-mseq", 5 / 6, "limiting CDF of best-shift reversing m-sequence pairs"),
        AsymptoticTarget("psc-half-legendre", 7 / 6, "limiting PSC of half-Legendre pairs"),
        AsymptoticTarget("demerit-half-legendre", 7 / 12, "limiting ADF and CDF of half-Legendre pairs"),
        AsymptoticTarget("psc-quartic", 7 / 6, "limiting PSC of shifted quartic cyclotomic pairs"),
        AsymptoticTarget("psc-legendre-quartic", 7 / 6, "limiting PSC of shifted Legendre + quartic pairs"),
        AsymptoticTarget("psc-rsl-best", 331 / 300, "best known limiting PSC over sign-recursion seed pairs"),
        AsymptoticTarget("psc-golay", 1.0, "PSC of every Golay complementary pair"),
    ]
}


def lookup_target(text: str) -> AsymptoticTarget:
    """A registry name, or a finite number for ad hoc targets."""
    if text in TARGETS:
        return TARGETS[text]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unknown target {text!r}; known: {', '.join(sorted(TARGETS))}") from None
    if not np.isfinite(value):
        raise ValueError(f"target {text} must be a finite number")
    return AsymptoticTarget(text, value, "user-supplied constant")


# ---------------------------------------------------------------------------
# Exact all-shift engines


def _rotation_acorrs(arr: np.ndarray, m: int):
    """Yield, for r = 0 .. l-1, the int64 vector C(1), .., C(m-1) of the
    aperiodic autocorrelation of resize(cyclic_shift(f, r), m).

    Rotation r is the window x[r : r+m] of x = resize(f, l+m).  Moving to
    r+1 drops x[r] and appends x[r+m], so every C(s) gains
    x[r+m] x[r+m-s] - x[r] x[r+s]: with +-1 terms, one in-place add or
    subtract of a slice of x reversed and one of a slice of x.  The first
    vector comes from corr._corr.  The same array is yielded each time and
    updated in place; copy it to keep it.
    """
    n = len(arr) + m
    x = np.resize(np.asarray(arr, dtype=np.int64), n)
    xr = x[::-1].copy()  # contiguous, so the adds stay vectorised
    first = x[:m]
    c = corr._corr(first, first)[m:]
    signs = x.tolist()
    yield c
    for r in range(len(arr) - 1):
        (np.add if signs[r + m] > 0 else np.subtract)(c, xr[n - r - m : n - r - 1], out=c)
        (np.subtract if signs[r] > 0 else np.add)(c, x[r + 1 : r + m], out=c)
        yield c


def adf_numerators_all_shifts(arr: np.ndarray, m: int | None = None) -> np.ndarray:
    """ADF numerator (sum of squared off-peak correlations) of
    resize(cyclic_shift(f, r), m) for every shift r, as int64; divide by m^2.

    Each numerator is 2 sum_s C(s)^2 over the rotation walk's vector, O(m)
    per shift; |C(s)| <= m and the sum stays below 2m^3/3, so int64 is exact.
    """
    ell = len(arr)
    if m is None:
        m = ell
    if m < 1:
        raise ValueError(f"resized length {m} must be >= 1")
    budget.check("shift-search length", ell)
    budget.check("shift-search window", m)
    return 2 * np.fromiter((c @ c for c in _rotation_acorrs(arr, m)), np.int64, ell)


def cdf_numerators_grid(af: np.ndarray, ag: np.ndarray) -> np.ndarray:
    """CDF numerators of (cyclic_shift(f, rf), cyclic_shift(g, rg)) for the
    full (rf, rg) grid, as int64; divide by l^2.

    For equal lengths sum_s C_fg(s)^2 = sum_t C_ff(t) C_gg(t), so with the
    rotation walks stacked as rows R_f and R_g (l x (l-1), lags 1 .. l-1)
    the grid is l^2 + 2 R_f R_g^T, one integer matrix product.  Every entry
    is below l^3, so int64 is exact within the pair-grid budget.
    """
    ell = len(af)
    if len(ag) != ell:
        raise ValueError("pair shift grid requires equal lengths")
    budget.check("pair-grid length", ell)
    rows_f, rows_g = (np.stack([c.copy() for c in _rotation_acorrs(a, ell)]) for a in (af, ag))
    return ell * ell + 2 * (rows_f @ rows_g.T)


def cdf_numerators_diagonal(af: np.ndarray, ag: np.ndarray, m: int | None = None) -> np.ndarray:
    """CDF numerators of (resize(cyclic_shift(f, r), m), resize(cyclic_shift(g, r), m))
    for every r (the equal-shift diagonal, windows of length m <= l), as
    int64; divide by m^2.

    By sum_s C_fg(s)^2 = sum_t C_ff(t) C_gg(t) each numerator is
    m^2 + 2 C_f . C_g over two rotation walks in step, O(m) per shift.
    """
    ell = len(af)
    if len(ag) != ell:
        raise ValueError("diagonal shift search requires equal lengths")
    if m is None:
        m = ell
    if not 1 <= m <= ell:
        raise ValueError(f"window length {m} must be in [1, {ell}]")
    budget.check("shift-search length", ell)
    walks = zip(_rotation_acorrs(af, m), _rotation_acorrs(ag, m))
    return m * m + 2 * np.fromiter((cf @ cg for cf, cg in walks), np.int64, ell)


# ---------------------------------------------------------------------------
# Shift searches


def best_shift(
    f: BinarySequence, objective: str = "adf", resize_len: int | None = None
) -> tuple[int, Fraction]:
    """Cyclic shift minimizing the ADF (of the resized sequence when
    resize_len is given); ties break to the smallest shift index."""
    if objective != "adf":
        raise ValueError("single-sequence shift search minimizes adf only")
    m = resize_len if resize_len is not None else len(f)
    nums = adf_numerators_all_shifts(f.terms, m)
    r = int(np.argmin(nums))
    return r, Fraction(int(nums[r]), m * m)


def best_pair_shifts(
    f: BinarySequence, g: BinarySequence, objective: str = "cdf"
) -> tuple[tuple[int, int], float]:
    """Shift pair minimizing cdf or psc.

    Lengths within the pair-grid budget search the full (rf, rg) grid;
    longer sequences use the equal-shift diagonal heuristic.  Ties break to
    the first (smallest rf, then rg) candidate.
    """
    if len(f) != len(g):
        raise ValueError("pair shift search requires equal lengths")
    if objective not in ("cdf", "psc"):
        raise ValueError("pair objective must be cdf or psc")
    ell = len(f)
    af, ag = f.terms, g.terms
    if objective == "psc":
        adf_f, adf_g = (adf_numerators_all_shifts(a).astype(np.float64) for a in (af, ag))
    if ell <= budget.BUDGETS["pair-grid length"].limit:
        grid = cdf_numerators_grid(af, ag).astype(np.float64)
        if objective == "psc":
            grid = grid + np.sqrt(np.outer(adf_f, adf_g))
        k = int(np.argmin(grid))
        rf, rg = divmod(k, ell)
        return (rf, rg), float(grid[rf, rg]) / (ell * ell)
    diag = cdf_numerators_diagonal(af, ag).astype(np.float64)
    if objective == "psc":
        diag = diag + np.sqrt(adf_f * adf_g)
    r = int(np.argmin(diag))
    return (r, r), float(diag[r]) / (ell * ell)


def _realized_length(spec: FamilySpec) -> int:
    """Length of realize(spec), from the spec alone, with realize's budgets checked."""
    ell = families.base_length(spec)
    m = families.resized_length(spec, ell)
    if spec.shift == "best":
        budget.check("shift-search length", ell)
        budget.check("shift-search window", m)
    return m


def realize(spec: FamilySpec) -> tuple[BinarySequence, int]:
    """Build the sequence for a family spec, searching when shift='best'.

    Returns (sequence, shift actually used).
    """
    m = _realized_length(spec)
    base = families.build_base(spec)
    if spec.shift == "best":
        r, _ = best_shift(base, "adf", resize_len=m)
    else:
        r = int(spec.shift) % len(base)
    return resize(cyclic_shift(base, r), m), r


# ---------------------------------------------------------------------------
# Rows, sweeps, reports


@dataclass(frozen=True)
class SweepRow:
    family: str
    length: int
    params: str
    adf_f: float | None = None
    adf_g: float | None = None
    cdf: float | None = None
    psc: float | None = None
    target: float | None = None
    abs_err: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([{c: getattr(r, c) for c in CSV_COLUMNS} for r in rows], indent=2) + "\n"


def convergence_sweep(spec: FamilySpec, sizes, target: AsymptoticTarget | None) -> list[SweepRow]:
    """One row per size: realize the family, measure ADF, compare to target.
    Every size is checked against every budget before the first one runs."""
    for size in sizes:
        budget.check("exact length", _realized_length(families.with_size(spec, size)))
    rows = []
    for size in sizes:
        spec_i = families.with_size(spec, size)
        seq, shift_used = realize(spec_i)
        a = float(corr.adf(seq))
        params = f"size={size} shift={shift_used}"
        if spec.resize_ratio is not None:
            params += f" resize={spec.resize_ratio:g}"
        rows.append(
            SweepRow(
                family=spec.kind,
                length=len(seq),
                params=params,
                adf_f=a,
                target=None if target is None else target.value,
                abs_err=None if target is None else abs(a - target.value),
            )
        )
    return rows


# Trials per block of the Monte Carlo baseline are this many work units
# (see budget) over the units of one trial, and at least one.
_BASELINE_BLOCK = 1 << 16


def monte_carlo_baseline(length: int, trials: int, rng_seed: int) -> tuple[Fraction, Fraction]:
    """Sample means of ADF(f) and CDF(f, g) over trials independent uniform
    random pairs (f, g) of the given length, as exact Fractions.

    Trial t takes f from draw 2t and g from draw 2t+1 of the run seeded
    rng_seed, so any partitioning of the trial range reproduces the same
    means.  Trials run in blocks: one draw and two stacked correlations
    per block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    budget.check("exact length", length)
    budget.check("baseline work", trials * max(length, 64))
    per_block = max(1, _BASELINE_BLOCK // max(length, 64))
    adf_num = -trials * length * length
    cdf_num = 0
    for t in range(0, trials, per_block):
        rows = random_rows(rng_seed, 2 * t, 2 * min(per_block, trials - t), length)
        f, g = rows[0::2], rows[1::2]
        cff = corr._corr(f, f)
        cfg = corr._corr(f, g)
        adf_num += sum(np.einsum("ij,ij->i", cff, cff).tolist())
        cdf_num += sum(np.einsum("ij,ij->i", cfg, cfg).tolist())
    denom = trials * length * length
    return Fraction(adf_num, denom), Fraction(cdf_num, denom)


def _pair_row(name, params, f, g, target: float) -> SweepRow:
    rep = corr.psc(f, g)
    return SweepRow(
        family=name,
        length=len(f),
        params=params,
        adf_f=float(rep.adf_f),
        adf_g=float(rep.adf_g),
        cdf=float(rep.cdf),
        psc=rep.psc,
        target=target,
        abs_err=abs(rep.psc - target),
    )


def _half_legendre(p):
    """The half-Legendre pair at the shift minimizing its PSC (first on ties).

    At shift r the halves are the length-half windows of the Legendre
    sequence starting at r and at r + half, so the all-shift engines give
    every ADF and CDF numerator at once.
    """
    budget.check("shift-search length", p)
    arr = families.legendre(p).terms
    half = (p - 1) // 2
    n = half * half
    adf_a = adf_numerators_all_shifts(arr, half) / n
    adf_b = np.roll(adf_a, -half)
    cross = cdf_numerators_diagonal(arr, np.roll(arr, -half), half) / n
    r = int(np.argmin(np.sqrt(adf_a * adf_b) + cross))
    yield f"p={p} shift={r}", *families.half_legendre_pair(p, r)


def _golay(lengths):
    if not lengths:
        raise ValueError("lengths must list at least one length")
    budget.check("exact length", max(lengths))
    for ell in lengths:
        pair = golay.compose_to_length(ell)
        yield "composed", pair.a, pair.b


def _typical_mseq(n, d):
    ctx = families.make_binary_field(n)
    ell = ctx.order
    budget.check("exact length", ell)
    pows = families.power_of_two_residues(ell)
    if d % ell in pows or (-d) % ell in pows:
        raise ValueError(f"typical construction requires |d| not a power of 2 mod {ell}")
    yield f"n={n} d={d} shifts=0/0", *families.msequence_pair(ctx, d)


def _reversing_mseq(n, k):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ctx = families.make_binary_field(n)
    budget.check("shift-search length", ctx.order)
    f0, g0 = families.msequence_pair(ctx, -pow(2, k, ctx.order) % ctx.order)
    (rf, rg), _ = best_pair_shifts(f0, g0, "cdf")
    yield f"n={n} d=-2^{k} shifts={rf}/{rg}", cyclic_shift(f0, rf), cyclic_shift(g0, rg)


def _quartic_pair(p):
    budget.check("shift-search length", p)
    ctx = families.make_prime_field(p)
    f0, g0 = families.quartic_f(ctx), families.quartic_g(ctx)
    (rf, rg), _ = best_pair_shifts(f0, g0, "psc")
    yield f"p={p} shifts={rf}/{rg}", cyclic_shift(f0, rf), cyclic_shift(g0, rg)


def _legendre_plus_quartic(p):
    budget.check("shift-search length", p)
    ctx = families.make_prime_field(p)
    hf, qf = families.legendre(p), families.quartic_f(ctx)
    (rf, _), (rg, _) = best_shift(hf), best_shift(qf)
    yield f"p={p} shifts={rf}/{rg}", cyclic_shift(hf, rf), cyclic_shift(qf, rg)


def _rsl_pair(seed_f, seed_g, signs, depth):
    if len(seed_f) != len(seed_g):
        raise ValueError("seed lengths must match")
    f, g = (golay.rsl_stem(seed, signs, depth) for seed in (seed_f, seed_g))
    yield f"seed_len={len(seed_f)} depth={depth}", f, g


# Pair constructions: name -> (builder, parameter names, TARGETS name of the
# limiting PSC).  A builder takes the parameters as keywords and yields
# (params text, f, g) for each pair it reports; golay yields one per length.
PAIR_CONSTRUCTIONS = {
    "typical_mseq": (_typical_mseq, ("n", "d"), "psc-typical-mseq"),
    "reversing_mseq": (_reversing_mseq, ("n", "k"), "psc-reversing-mseq"),
    "half_legendre": (_half_legendre, ("p",), "psc-half-legendre"),
    "quartic_pair": (_quartic_pair, ("p",), "psc-quartic"),
    "legendre_plus_quartic": (_legendre_plus_quartic, ("p",), "psc-legendre-quartic"),
    "rsl_pair": (_rsl_pair, ("seed_f", "seed_g", "signs", "depth"), "psc-rsl-best"),
    "golay": (_golay, ("lengths",), "psc-golay"),
}
PAIR_DEFAULTS = {"k": 0}


def report_pairs(construction: str, **params) -> list[SweepRow]:
    """Build a pair construction, search shifts where required, and report
    measured demerit factors against the construction's asymptotic PSC."""
    if construction not in PAIR_CONSTRUCTIONS:
        raise ValueError(f"unknown pair construction {construction!r}")
    build, names, target = PAIR_CONSTRUCTIONS[construction]
    given = {**PAIR_DEFAULTS, **params}
    wrong = [f"missing {name}" for name in names if name not in given]
    wrong += [f"unexpected {name}" for name in sorted(set(params) - set(names))]
    if wrong:
        raise ValueError(f"construction {construction} takes {', '.join(names)}: {'; '.join(wrong)}")
    pairs = build(**{name: given[name] for name in names})
    return [_pair_row(construction, text, f, g, TARGETS[target].value) for text, f, g in pairs]
