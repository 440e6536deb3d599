"""End-to-end checks of the command-line interface via main(argv)."""

import argparse
import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import seqcorr
from seqcorr import analysis, corr
from seqcorr.cli import _PARSER, _PAIR_OPTIONS, main
from seqcorr.families import parse_family
from seqcorr.sequence import load_pair


GOLAY4 = "+++-\n++-+\n"
NOT_GOLAY = "++++\n++++\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def pair_options(construction):
    """The `pairs` options of a construction's builder, each mapped to
    whether it is required (the builder gives it no default)."""
    params = inspect.signature(analysis.PAIR_CONSTRUCTIONS[construction][0]).parameters
    return {option: params[keywords[0]].default is inspect.Parameter.empty
            for option, (_, _, keywords, _) in _PAIR_OPTIONS.items() if keywords[0] in params}


def pair_argv(construction, options):
    """pairs argv giving each of the options a value that parses."""
    values = {"n": "5", "d": "3", "k": "1", "p": "29", "lengths": "2",
              "seeds": "seeds.txt", "signs": "+", "depth": "1"}
    return ["pairs", construction, *itertools.chain.from_iterable((f"--{o}", values[o]) for o in options)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_mseq(self, capsys):
        code, out, _ = run(capsys, "generate", "mseq:n=3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert "length=7" in lines[0]
        assert lines[1] == "-++-+--"

    def test_mseq_n20_is_built_by_array(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "generate", "mseq:n=20")
        assert code == 0
        assert len(out.splitlines()[1]) == (1 << 20) - 1
        assert time.perf_counter() - start < 10

    def test_legendre_best_shift_header(self, capsys):
        code, out, _ = run(capsys, "generate", "legendre:p=31,shift=best")
        assert code == 0
        assert "shift=" in out.splitlines()[0]

    def test_bad_descriptor_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "nosuchfamily:p=7")
        assert code == 2
        assert "error" in err

    def test_bad_param_exits_2(self, capsys):
        code, _, _ = run(capsys, "generate", "legendre:p=8")
        assert code == 2

    def test_huge_prime_fails_fast(self, capsys):
        for family in ("legendre", "quartic_f"):
            start = time.perf_counter()
            code, out, err = run(capsys, "generate", f"{family}:p=1000000007")
            assert code == 2 and out == ""
            assert "field-size limit" in err
            assert time.perf_counter() - start < 10


class TestCorrelate:
    def test_aperiodic_csv(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text("++-\n++-\n")
        code, out, _ = run(capsys, "correlate", str(pf))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "shift,value"
        got = {int(a): int(b) for a, b in (ln.split(",") for ln in lines[1:])}
        assert got == {-2: -1, -1: 0, 0: 3, 1: 0, 2: -1}

    def test_periodic_flag(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text("-++-+--\n-++-+--\n")
        code, out, _ = run(capsys, "correlate", str(pf), "--periodic")
        assert code == 0
        vals = [int(ln.split(",")[1]) for ln in out.splitlines()[1:]]
        assert vals[0] == 7
        assert all(v == -1 for v in vals[1:])

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "correlate", str(tmp_path / "absent.txt"))
        assert code == 2

    def test_three_sequences_exits_2(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text("++\n++\n++\n")
        code, _, _ = run(capsys, "correlate", str(pf))
        assert code == 2


class TestDemerit:
    def test_golay_pair_exact_psc(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text(GOLAY4)
        code, out, _ = run(capsys, "demerit", str(pf))
        assert code == 0
        assert "psc   = 1 (1) [exact]" in out
        assert "adf_f = 1/4" in out

    def test_irrational_psc_floats(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text("+++-\n++++\n")
        code, out, _ = run(capsys, "demerit", str(pf))
        assert code == 0
        assert "[exact]" not in out
        assert "psc   = " in out

    @pytest.mark.parametrize("family_f, family_g", [
        ("mseq:n=7", "mseq:n=7,char=5,shift=3"),
        ("legendre:p=61,shift=best,resize=1.0578", "legendre:p=61,shift=9,resize=1.0578"),
        ("quartic_f:p=29", "quartic_g:p=29"),
    ])
    def test_generate_round_trip(self, capsys, tmp_path, family_f, family_g):
        """Two generate outputs, written as a pair file, get the factors of
        the realized sequences."""
        pf = tmp_path / "pair.txt"
        outs = [run(capsys, "generate", family) for family in (family_f, family_g)]
        assert [code for code, _, _ in outs] == [0, 0]
        pf.write_text("".join(out for _, out, _ in outs))
        code, out, _ = run(capsys, "demerit", str(pf))
        assert code == 0
        report = dict(tuple(part.strip() for part in line.split("=", 1)) for line in out.splitlines())
        f, g = (analysis.realize(parse_family(family))[0] for family in (family_f, family_g))
        expected = corr.psc(f, g)
        assert int(report["length"]) == len(f) == len(g)
        for name in ("adf_f", "adf_g", "cdf"):
            assert Fraction(report[name].split()[0]) == getattr(expected, name)

    def test_garbage_line_exits_2(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text("++x-\n++++\n")
        code, _, _ = run(capsys, "demerit", str(pf))
        assert code == 2


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "mseq:n=1", "--sizes", "3,4,5", "--target", "mseq-adf"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,length,params,adf_f,adf_g,cdf,psc,target,abs_err"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "7"

    def test_json_flag(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "legendre:p=1,shift=best", "--sizes", "11,19", "--json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["length"] for r in rows] == [11, 19]
        assert rows[0]["target"] is None

    def test_numeric_target(self, capsys):
        code, out, _ = run(capsys, "sweep", "mseq:n=1", "--sizes", "4", "--target", "0.25")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[-2] == "0.25"

    def test_empty_sizes_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "mseq:n=1", "--sizes", ",")
        assert code == 2

    @pytest.mark.parametrize("argv,option", [
        (["sweep", "mseq:n=1", "--sizes", "3,abc,5"], "--sizes"),
        (["pairs", "golay", "--lengths", "2, abc"], "--lengths"),
    ])
    def test_non_integer_size_exits_2(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: 'abc' is not an integer" in err

    def test_unknown_target_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "mseq:n=1", "--sizes", "4", "--target", "nope")
        assert code == 2


class TestPairs:
    def test_golay_lengths(self, capsys):
        code, out, _ = run(capsys, "pairs", "golay", "--lengths", "2,4,8")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for ln in lines[1:]:
            cells = ln.split(",")
            assert cells[0] == "golay"
            assert cells[6] == "1" and cells[8] == "0"

    def test_typical_requires_params(self, capsys):
        code, _, err = run(capsys, "pairs", "typical_mseq", "--n", "5")
        assert code == 2
        assert "--d" in err

    def test_typical_rejects_degenerate_d(self, capsys):
        code, _, _ = run(capsys, "pairs", "typical_mseq", "--n", "5", "--d", "2")
        assert code == 2

    def test_typical_row(self, capsys):
        code, out, _ = run(capsys, "pairs", "typical_mseq", "--n", "5", "--d", "3")
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[1] == "31"
        assert "d=3" in cells[2]

    def test_rsl_pair(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("+\n+\n")
        code, out, _ = run(
            capsys, "pairs", "rsl_pair",
            "--seeds", str(seeds), "--signs", "+++", "--depth", "3",
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[0] == "rsl_pair"
        assert cells[1] == "8"

    def test_rsl_pair_missing_signs(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("+\n+\n")
        code, _, _ = run(capsys, "pairs", "rsl_pair", "--seeds", str(seeds), "--depth", "2")
        assert code == 2

    def test_half_legendre_over_search_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "pairs", "half_legendre", "--p", "16411")
        assert code == 2 and out == ""
        assert "shift-search budget" in err
        assert time.perf_counter() - start < 10

    def test_unknown_construction_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "pairs", "nonsense")
        assert code == 2

    def test_rsl_pair_over_exact_budget_fails_fast(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("+\n+\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "pairs", "rsl_pair", "--seeds", str(seeds), "--signs", "+" * 24, "--depth", "24"
        )
        assert code == 2 and out == ""
        assert "exact-arithmetic budget" in err
        assert time.perf_counter() - start < 10

    def test_empty_lengths_exits_2(self, capsys):
        code, out, err = run(capsys, "pairs", "golay", "--lengths", ",")
        assert code == 2 and out == ""
        assert "lengths" in err

    def test_negative_k_exits_2(self, capsys):
        code, out, err = run(capsys, "pairs", "reversing_mseq", "--n", "5", "--k", "-1")
        assert code == 2 and out == ""
        assert "k must be >= 0" in err

    @pytest.mark.parametrize("construction,option", [
        (construction, option)
        for construction in analysis.PAIR_CONSTRUCTIONS
        for option, required in pair_options(construction).items() if required
    ])
    def test_missing_option_exits_2(self, capsys, construction, option):
        others = [o for o in pair_options(construction) if o != option]
        code, out, err = run(capsys, *pair_argv(construction, others))
        assert code == 2 and out == ""
        assert "the following arguments are required" in err and f"--{option}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("construction,option", [
        (construction, option)
        for construction in analysis.PAIR_CONSTRUCTIONS
        for option in _PAIR_OPTIONS if option not in pair_options(construction)
    ])
    def test_option_not_taken_exits_2(self, capsys, construction, option):
        code, out, err = run(capsys, *pair_argv(construction, [*pair_options(construction), option]))
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --{option}" in err
        # refused with the construction's own usage, which lists what it takes
        assert err.startswith(f"usage: seqcorr pairs {construction} ")

    def test_refusal_shows_the_construction_usage(self, capsys):
        code, out, err = run(capsys, "pairs", "typical_mseq", "--n", "7", "--d", "5", "--p", "13")
        assert code == 2 and out == ""
        assert err.startswith("usage: seqcorr pairs typical_mseq [-h] --n N --d D")
        assert "seqcorr pairs typical_mseq: error: unrecognized arguments: --p 13" in err

    @pytest.mark.parametrize("construction", list(analysis.PAIR_CONSTRUCTIONS))
    def test_construction_help_lists_its_builder_options(self, capsys, construction):
        assert main(["pairs", construction, "--help"]) == 0
        out = capsys.readouterr().out
        usage, _, listing = out.partition("\n\n")
        expected = {f"--{option}" for option in pair_options(construction)}
        assert set(re.findall(r"--\w+", listing)) == expected | {"--help", "--json"}
        # a required option is bare in the usage line, an optional one bracketed
        for option, required in pair_options(construction).items():
            assert (f"[--{option}" not in usage) == required and f"--{option}" in usage

    def test_json_goes_after_the_construction(self, capsys):
        assert run(capsys, "pairs", "golay", "--lengths", "2", "--json")[0] == 0
        code, out, err = run(capsys, "pairs", "--json", "golay", "--lengths", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --json" in err

    def test_help_lists_every_construction(self, capsys):
        assert main(["pairs", "--help"]) == 0
        out = capsys.readouterr().out
        for construction in analysis.PAIR_CONSTRUCTIONS:
            assert construction in out


class TestSeedSearch:
    def test_counts_through_length_five(self, capsys):
        code, out, _ = run(capsys, "seed-search", "--max-len", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("length  1: 2 optimal seeds")
        assert lines[1].startswith("length  2: 4 optimal seeds")
        assert lines[2].startswith("length  3: 0 optimal seeds")
        assert lines[3].startswith("length  4: 8 optimal seeds")
        assert lines[4].startswith("length  5: 0 optimal seeds")
        assert "exemplars" in lines[1]
        assert "exemplars" not in lines[2]

    def test_zero_exits_2(self, capsys):
        code, _, _ = run(capsys, "seed-search", "--max-len", "0")
        assert code == 2

    def test_over_census_bound_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "seed-search", "--max-len", "41")
        assert code == 2 and out == ""
        assert "census length" in err
        assert time.perf_counter() - start < 10


class TestGolayCommand:
    def test_verify_good_pair(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text(GOLAY4)
        code, out, _ = run(capsys, "golay", "verify", str(pf))
        assert code == 0
        assert "certified Golay pair of length 4" in out
        assert "psc = 1" in out

    def test_verify_bad_pair_exits_3(self, capsys, tmp_path):
        pf = tmp_path / "pair.txt"
        pf.write_text(NOT_GOLAY)
        code, _, err = run(capsys, "golay", "verify", str(pf))
        assert code == 3
        assert "certification failure" in err

    def test_verify_without_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "golay", "verify")
        assert code == 2

    def test_compose_roundtrips_through_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "golay", "compose", "--length", "40")
        assert code == 0
        pf = tmp_path / "pair.txt"
        pf.write_text(out)
        seqs = load_pair(pf)
        assert len(seqs) == 2 and len(seqs[0]) == 40
        code2, _, _ = run(capsys, "golay", "verify", str(pf))
        assert code2 == 0

    def test_compose_without_length_exits_2(self, capsys):
        code, out, err = run(capsys, "golay", "compose")
        assert code == 2 and out == ""
        assert "the following arguments are required: --length" in err

    @pytest.mark.parametrize("argv,extra", [
        ("golay bases --length 5", "--length 5"),
        ("golay search10 x.txt", "x.txt"),
        ("golay compose x.txt --length 10", "x.txt"),
        ("golay verify x.txt --length 10", "--length 10"),
    ])
    def test_input_an_action_does_not_take_exits_2(self, capsys, argv, extra):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {extra}" in err
        assert err.startswith(f"usage: seqcorr golay {argv.split()[1]} ")

    def test_compose_impossible_length_exits_2(self, capsys):
        code, _, _ = run(capsys, "golay", "compose", "--length", "6")
        assert code == 2

    def test_compose_length_26_exits_2(self, capsys):
        code, out, err = run(capsys, "golay", "compose", "--length", "26")
        assert code == 2 and out == ""
        assert "2^a * 10^b" in err

    def test_compose_over_exact_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "golay", "compose", "--length", "20000000")
        assert code == 2 and out == ""
        assert "exact-arithmetic budget" in err
        assert time.perf_counter() - start < 10

    def test_search10(self, capsys, tmp_path):
        code, out, _ = run(capsys, "golay", "search10")
        assert code == 0
        pf = tmp_path / "pair.txt"
        pf.write_text(out)
        seqs = load_pair(pf)
        assert [len(s) for s in seqs] == [10, 10]
        assert seqs[0].to_line() == "-++-+-----"

    def test_bases_listing(self, capsys):
        code, out, _ = run(capsys, "golay", "bases")
        assert code == 0
        assert "length  2: available, certified" in out
        assert "length 10: available, certified" in out


class TestBaselineAndRoots:
    def test_baseline_output(self, capsys):
        code, out, _ = run(capsys, "baseline", "--len", "4", "--trials", "64", "--seed", "1")
        assert code == 0
        assert "mean_adf" in out and "mean_cdf" in out
        assert "expected 3/4" in out

    def test_baseline_rejects_zero_trials(self, capsys):
        code, _, _ = run(capsys, "baseline", "--len", "4", "--trials", "0")
        assert code == 2

    def test_baseline_over_exact_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "baseline", "--len", "2000000", "--trials", "1")
        assert code == 2 and out == ""
        assert "exact-arithmetic budget" in err
        assert time.perf_counter() - start < 10

    def test_roots_lists_targets(self, capsys):
        code, out, _ = run(capsys, "roots")
        assert code == 0
        assert "psc-typical-mseq = 1.33333333333333" in out
        assert "mseq-appended-adf" in out
        assert "residual" in out


FAIL_FAST = [
    ("pairs reversing_mseq --n 24 --k 1", "shift-search budget"),
    ("pairs typical_mseq --n 20 --d 5", "not invertible"),
    ("pairs typical_mseq --n 21 --d 11", "exact-arithmetic budget"),
    ("sweep mseq:n=2 --sizes 24", "exact-arithmetic budget"),
    ("generate mseq:n=24,shift=best", "shift-search budget"),
    ("sweep legendre:p=3,shift=best --sizes 16381,8191,16411", "shift-search budget"),
    ("pairs golay --lengths 1048576,2097152", "exact-arithmetic budget"),
    ("generate legendre:p=1019,resize=1e12", "field-size limit"),
    ("generate legendre:p=1019,resize=1e300", "field-size limit"),
    ("generate legendre:p=1019,resize=inf", "resize ratio inf must be positive and finite"),
    ("generate legendre:p=1019,resize=nan", "resize ratio nan must be positive and finite"),
    ("generate legendre:p=1000003,resize=20", "field-size limit"),
    ("baseline --len 1024 --trials 1000000000", "baseline budget"),
    ("sweep legendre:p=3,shift=best --sizes 16381,16382", "16382 is not an odd prime"),
    ("sweep legendre:p=3 --sizes 1000003,1000004", "1000004 is not an odd prime"),
    ("sweep mseq:n=3,char=40 --sizes 18,5", "character shift 40 is not a nonzero field element"),
    ("sweep legendre:p=3 --sizes 7 --target nan", "target nan must be a finite number"),
    ("sweep legendre:p=3 --sizes 7 --target inf --json", "target inf must be a finite number"),
    ("sweep legendre:p=3 --sizes 7 --target=-inf", "target -inf must be a finite number"),
    ("sweep legendre:p=3 --sizes 7 --target 1e999", "target 1e999 must be a finite number"),
    ("generate legendre:p=7,p=11", "descriptor key p is given more than once"),
    ("generate legendre:p=7,shift=1,shift=best", "descriptor key shift is given more than once"),
]


@pytest.mark.parametrize("argv,phrase", FAIL_FAST)
def test_over_budget_input_fails_fast(capsys, argv, phrase):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert phrase in err and "Traceback" not in err
    assert time.perf_counter() - start < 10


class TestArgparseBehavior:
    def test_calls_build_no_parser(self, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("main built an ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", built)
        for _ in range(2):
            assert main(["roots"]) == 0
        assert "psc-golay" in capsys.readouterr().out

    def test_package_import_leaves_cli_out(self):
        # The parser is built when seqcorr.cli is imported; the package must not import it.
        probe = ("import sys, seqcorr; "
                 "print(*(m for m in ('seqcorr.cli', 'argparse', 'numpy.fft') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(seqcorr.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")

    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_readme_command_lines_parse(self):
        """Every seqcorr line in the README's command-line section parses, each
        bracketed part both with and without it; nothing is opened or run."""
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Command line\n")[1].split("\n## ")[0]
        blocks = section.split("```")[1::2]
        lines = [line.removeprefix("$ ") for block in blocks for line in block.splitlines()]
        parsed = []
        for line in (line for line in lines if line.startswith("seqcorr ")):
            parts = re.split(r"\[([^]]*)\]", line)  # text, bracketed, text, ...
            for kept in itertools.product((False, True), repeat=len(parts) // 2):
                chosen = [part for i, part in enumerate(parts) if i % 2 == 0 or kept[i // 2]]
                argv = shlex.split(" ".join(chosen), comments=True)[1:]
                try:
                    parsed.append(_PARSER.parse_args(argv))
                except SystemExit:
                    pytest.fail(f"README line does not parse: {' '.join(argv)}")
        assert {a.construction for a in parsed if a.command == "pairs"} == set(analysis.PAIR_CONSTRUCTIONS)
        assert {a.action for a in parsed if a.command == "golay"} == {"verify", "compose", "search10", "bases"}
        assert {a.command for a in parsed} == {"generate", "correlate", "demerit", "sweep", "pairs",
                                               "seed-search", "golay", "baseline", "roots"}

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "generate" in out and "baseline" in out
