"""Spans and counts around seqcorr's public functions, from outside.

The tracer replaces each listed function by a wrapper in every seqcorr
namespace that holds it (the package, its modules, and ``from`` imports
between them), so calls the library makes internally are spanned too.
``uninstall`` puts the originals back; untraced passes run the original
functions.

A span has a name (``<module>.<function>``), start, end, parent span and
job id.  A layer's busy time is the self time of its spans: each span's
duration minus the part covered by its child spans.  Self times of all
layers therefore sum to at most the traced wall time.

Per-term and per-word helpers (``gf.trace``, ``gf.quadratic_character``,
``gf.is_prime``, ``gf.gf2_mul``, ``analysis.mix64`` and the like) are not
wrapped: they run once per sequence term, so a span on each would cost
more than the work, and their time belongs to the generator that loops
over them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "sequence", "families", "corr", "analysis", "golay", "cli")

WRAPPED = {
    "gf": ("make_binary_field", "make_prime_field", "find_primitive_element"),
    "sequence": (
        "BinarySequence.__post_init__", "BinarySequence.as_array", "BinarySequence.to_line",
        "from_array", "parse_line", "parse_sequences", "load_sequences", "load_pair",
        "dump_sequences",
    ),
    "families": (
        "msequence", "decimate", "legendre", "quartic_f", "quartic_g", "cyclic_shift",
        "resize", "half_legendre_pair", "msequence_pair", "parse_family", "with_size",
        "build_base", "realize_fixed",
    ),
    "corr": (
        "xcorr_values", "aperiodic_xcorr", "periodic_xcorr", "adf", "cdf", "l4l2_adf",
        "psc", "psc_at_least_one",
    ),
    "analysis": (
        "adf_numerators_all_shifts", "cdf_numerators_grid", "cdf_numerators_diagonal",
        "best_shift", "best_pair_shifts", "realize", "shift_search", "convergence_sweep",
        "monte_carlo_baseline", "random_pm1", "report_pairs", "lookup_target",
        "rows_to_csv", "rows_to_json",
    ),
    "golay": (
        "rsl_stem", "rsl_pair_stems", "is_golay_pair", "certify", "interleave",
        "deinterleave", "is_optimal_seed", "search_optimal_seeds", "golay_compose",
        "golay_base", "base_factorization", "compose_to_length", "search_golay_pairs",
        "random_pair_search",
    ),
    "cli": ("main", "build_parser"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counts computed from each call's arguments and result, so they repeat
# exactly between runs of the same job list.
def _count_binary_field(tr, args, kwargs, out):
    tr.counts["gf.field_order"] += 1 << out.n


def _count_prime_field(tr, args, kwargs, out):
    tr.counts["gf.field_order"] += out.p


def _count_validated(tr, args, kwargs, out):
    tr.counts["sequence.terms"] += len(args[0].terms)


def _count_generated(tr, args, kwargs, out):
    tr.counts["families.terms"] += len(out.terms)


def _count_xcorr(tr, args, kwargs, out):
    lf, lg = len(_arg(args, kwargs, 0, "f").terms), len(_arg(args, kwargs, 1, "g").terms)
    tr.counts["corr.macs"] += lf * lg
    tr.counts["corr.max_len"] = max(tr.counts["corr.max_len"], lf, lg)


def _count_l4l2(tr, args, kwargs, out):
    ell = len(_arg(args, kwargs, 0, "f").terms)
    tr.counts["corr.macs"] += ell * ell
    tr.counts["corr.max_len"] = max(tr.counts["corr.max_len"], ell)


def _count_candidates(power):
    def count(tr, args, kwargs, out):
        tr.counts["analysis.candidates"] += len(args[0]) ** power
    return count


def _count_report_pairs(tr, args, kwargs, out):
    # The half-Legendre search is private to report_pairs: it scans p shifts.
    if _arg(args, kwargs, 0, "construction") == "half_legendre":
        tr.counts["analysis.candidates"] += kwargs["p"]


def _count_rng(tr, args, kwargs, out):
    tr.counts["analysis.rng_words"] += (_arg(args, kwargs, 1, "length") + 63) // 64


def _count_golay_check(tr, args, kwargs, out):
    tr.counts["golay.checks"] += 1
    tr.counts["golay.check_passes"] += bool(out)
    tr.counts["golay.check_terms"] += len(_arg(args, kwargs, 0, "a").terms)
    if tr.inside("golay.compose_to_length"):
        tr.counts["golay.compose_checks"] += 1


def _count_compose(tr, args, kwargs, out):
    tr.counts["golay.composes"] += 1


def _count_census(tr, args, kwargs, out):
    ell = _arg(args, kwargs, 0, "length")
    # Odd lengths above 1 short-circuit; the others enumerate every seed.
    tr.counts["golay.seeds_scanned"] += 1 << ell if ell == 1 or ell % 2 == 0 else 0


COUNTERS = {
    "gf.make_binary_field": _count_binary_field,
    "gf.make_prime_field": _count_prime_field,
    "sequence.BinarySequence.__post_init__": _count_validated,
    "families.msequence": _count_generated,
    "families.legendre": _count_generated,
    "families.quartic_f": _count_generated,
    "families.quartic_g": _count_generated,
    "corr.xcorr_values": _count_xcorr,
    "corr.l4l2_adf": _count_l4l2,
    "analysis.adf_numerators_all_shifts": _count_candidates(1),
    "analysis.cdf_numerators_grid": _count_candidates(2),
    "analysis.cdf_numerators_diagonal": _count_candidates(1),
    "analysis.report_pairs": _count_report_pairs,
    "analysis.random_pm1": _count_rng,
    "golay.is_golay_pair": _count_golay_check,
    "golay.compose_to_length": _count_compose,
    "golay.search_optimal_seeds": _count_census,
}


class Tracer:
    """Records spans and counts while a job runs (between begin and end)."""

    def __init__(self, package):
        self.package = package
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[list] = []
        self.job: int | None = None
        self.active = False

    def begin(self, job: int):
        self.job = job
        self.active = True

    def end(self):
        self.active = False
        self.job = None

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _wrap(self, layer: str, qual: str, fn):
        counter = COUNTERS.get(qual)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][2] if stack else None
            frame = [qual, 0.0, len(tracer.spans) + len(stack)]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.busy[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((frame[2], qual, t0, t1, parent, tracer.job))
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every listed function in every seqcorr namespace holding it.

        Names a later version of seqcorr no longer has are skipped and listed
        in ``missing``.
        """
        prefix = self.package.__name__
        self.missing = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer in LAYERS:
            module = sys.modules.get(f"{prefix}.{layer}")
            for name in WRAPPED[layer]:
                qual = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = owner.__dict__.get(attr) if owner is not None else None
                if fn is None:
                    self.missing.append(qual)
                    continue
                wrapper = self._wrap(layer, qual, fn)
                targets = [owner] if owner_name else namespaces
                for ns in targets:
                    if vars(ns).get(attr) is fn:
                        self.patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self.patches):
            setattr(ns, attr, fn)
        self.patches.clear()
