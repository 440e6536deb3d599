"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad arguments, malformed input),
3 certification failure (a pair required to be Golay complementary is not).
The parser is built once, at import; the seqcorr package does not import cli.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction
from itertools import chain

from . import analysis, corr, families, golay
from .sequence import dump_sequences, load_pair, parse_line


def _frac(q: Fraction) -> str:
    return f"{q} ({float(q):.6g})"


def _cmd_generate(args) -> int:
    spec = families.parse_family(args.family)
    seq, shift_used = analysis.realize(spec)
    print(f"# {args.family}  shift={shift_used}  length={len(seq)}")
    print(seq.to_line())
    return 0


def _cmd_correlate(args) -> int:
    f, g = load_pair(args.pairfile)
    spec = corr.periodic_xcorr(f, g) if args.periodic else corr.aperiodic_xcorr(f, g)
    shifts = range(spec.first, spec.first + len(spec.array))
    rows = ("%d,%d\n" * len(shifts)) % tuple(chain.from_iterable(zip(shifts, spec.array.tolist())))
    sys.stdout.write("shift,value\n" + rows)
    return 0


def _cmd_demerit(args) -> int:
    f, g = load_pair(args.pairfile)
    rep = corr.psc(f, g)
    print(f"length = {len(f)}")
    print(f"adf_f = {_frac(rep.adf_f)}")
    print(f"adf_g = {_frac(rep.adf_g)}")
    print(f"cdf   = {_frac(rep.cdf)}")
    exact = rep.psc_exact
    print(f"psc   = {_frac(exact)} [exact]" if exact is not None else f"psc   = {rep.psc:.15g}")
    return 0


def _emit(rows, as_json: bool):
    text = analysis.rows_to_json(rows) if as_json else analysis.rows_to_csv(rows)
    sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            values.append(int(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{item.strip()!r} is not an integer") from None
    return values


def _cmd_sweep(args) -> int:
    spec = families.parse_family(args.family)
    target = analysis.lookup_target(args.target) if args.target else None
    _emit(analysis.convergence_sweep(spec, args.sizes, target), args.json)
    return 0


# Each `pairs` option: argparse type, help, the builder keywords it becomes (a
# construction takes it if its builder takes the first), and how the parsed
# value becomes theirs (None: as it is).
_PAIR_OPTIONS = {
    "n": (int, None, ("n",), None),
    "d": (int, None, ("d",), None),
    "k": (int, "reversing decimation is -2^k", ("k",), None),
    "p": (int, None, ("p",), None),
    "lengths": (_int_list, "comma-separated Golay lengths", ("lengths",), None),
    "seeds": (str, "pair file with two recursion seeds", ("seed_f", "seed_g"), load_pair),
    "signs": (str, "sign sequence as +/- text", ("signs",), lambda text: (parse_line(text).terms,)),
    "depth": (int, None, ("depth",), None),
}


def _cmd_pairs(args) -> int:
    params = {}
    for option, (_, _, keywords, convert) in _PAIR_OPTIONS.items():
        if hasattr(args, option):  # given, so taken by the construction
            value = getattr(args, option)
            params.update(zip(keywords, convert(value) if convert else (value,)))
    _emit(analysis.report_pairs(args.construction, **params), args.json)
    return 0


def _cmd_seed_search(args) -> int:
    golay.check_census_length(args.max_len)
    for length in range(1, args.max_len + 1):
        count, exemplars = golay.search_optimal_seeds(length)
        shown = " ".join(e.to_line() for e in exemplars)
        suffix = f"  exemplars: {shown}" if shown else ""
        print(f"length {length:2d}: {count} optimal seeds{suffix}")
    return 0


def _cmd_golay(args) -> int:
    if args.action == "verify":
        pair = golay.certify(*load_pair(args.pairfile))
        print(f"certified Golay pair of length {pair.length}; psc = {corr.psc(pair.a, pair.b).psc_exact}")
    elif args.action == "bases":
        for length in golay._BASES:  # certified at import
            print(f"length {length:2d}: available, certified")
    else:
        if args.action == "compose":
            pair = golay.compose_to_length(args.length)
            comment = f"certified Golay pair, length {pair.length}"
        else:
            pair, comment = golay.search_golay_pairs(10), "first length-10 Golay pair in enumeration order"
        sys.stdout.write(dump_sequences([pair.a, pair.b], comment=comment))
    return 0


def _cmd_baseline(args) -> int:
    mean_adf, mean_cdf = analysis.monte_carlo_baseline(args.len, args.trials, args.seed)
    expect_adf = Fraction(args.len - 1, args.len)
    print(f"length={args.len} trials={args.trials} seed={args.seed}")
    print(f"mean_adf = {_frac(mean_adf)}  expected {_frac(expect_adf)}")
    print(f"mean_cdf = {_frac(mean_cdf)}  expected 1")
    return 0


def _cmd_roots(args) -> int:
    for name in sorted(analysis.TARGETS):
        t = analysis.TARGETS[name]
        res = t.residual()
        tail = f"  residual={res:.3g}" if res is not None else ""
        print(f"{name} = {t.value:.15g}{tail}")
        print(f"    {t.definition}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses arguments it was given but does not take with its own usage,
    so that a sub-command's refusal shows that sub-command's options
    (argparse would hand them up to the top-level parser)."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="seqcorr",
        description="Binary sequence families, exact correlation spectra, and demerit factors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a sequence from a family descriptor")
    p.add_argument("family", help="descriptor, e.g. legendre:p=1019,shift=best or mseq:n=10")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("correlate", help="correlation spectrum of a pair file")
    p.add_argument("pairfile")
    p.add_argument("--periodic", action="store_true", help="periodic instead of aperiodic")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("demerit", help="ADF/CDF/PSC report for a pair file")
    p.add_argument("pairfile")
    p.set_defaults(func=_cmd_demerit)

    p = sub.add_parser("sweep", help="ADF convergence sweep over family sizes (CSV)")
    p.add_argument("family")
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated sizes (n or p values)")
    p.add_argument("--target", help="target name (see `seqcorr roots`) or a number")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pairs", help="pair-construction report (CSV)")
    constructions = p.add_subparsers(dest="construction", required=True, metavar="construction")
    for name, (build, target) in analysis.PAIR_CONSTRUCTIONS.items():
        # no abbreviations: --d is not --depth to a construction without d
        q = constructions.add_parser(name, help=f"target {target}", allow_abbrev=False)
        taken = inspect.signature(build).parameters
        for option, (kind, text, keywords, _) in _PAIR_OPTIONS.items():
            if keywords[0] in taken:
                q.add_argument(f"--{option}", type=kind, help=text, default=argparse.SUPPRESS,
                               required=taken[keywords[0]].default is inspect.Parameter.empty)
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("seed-search", help="census of optimal seeds per length")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_seed_search)

    p = sub.add_parser("golay", help="verify / compose / search Golay pairs")
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("verify").add_argument("pairfile")
    actions.add_parser("compose").add_argument("--length", type=int, required=True)
    actions.add_parser("search10")
    actions.add_parser("bases")
    p.set_defaults(func=_cmd_golay)

    p = sub.add_parser("baseline", help="Monte Carlo means of ADF and CDF")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("roots", help="list the built-in asymptotic targets")
    p.set_defaults(func=_cmd_roots)

    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except golay.CertificationError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
