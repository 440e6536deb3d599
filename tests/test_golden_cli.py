"""Golden CLI corpus: exact stdout and exit code of seqcorr commands.

Each expected file under tests/golden/ holds the stdout of one command,
recorded once from the CLI; a refactor that changes any byte of them
changes user-visible output.  The input files beside them (the length-10
Golay base pair, non-Golay pairs of lengths 7 and 1021, the longer one
above the correlation kernel's FFT crossover, an m-sequence and its
decimation by 5 at length 1023, and two recursion seeds) are
the pair files the cases read.  Some cases run the shift-search
engines near their limits: the full pair grid at l = 511 and, with the PSC
objective, at p = 389; the equal-shift diagonal at l = 1023 and, with the
PSC objective, at p = 521; and a resized best shift at p = 4099.  Two
baseline cases take the stacked FFT kernel at length 600 with a negative
seed, and three words per draw with a seed past 2^64, which reads as
seed 3.

The package needs no data files: a copy of its .py files alone, run as a
fresh interpreter, prints the same Golay bases, compositions and reports.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import seqcorr
from seqcorr.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLAY10 = str(GOLDEN / "golay10.txt")
PAIR7 = str(GOLDEN / "pair7.txt")
PAIR1021 = str(GOLDEN / "pair1021.txt")
MSEQ1023 = str(GOLDEN / "mseq_pair1023.txt")
SEEDS = str(GOLDEN / "seeds2.txt")

# name -> (argv, exit code); stdout is compared with golden/<name>.out
CASES = {
    "generate_mseq": (["generate", "mseq:n=10,char=3"], 0),
    "generate_legendre_best_resize": (["generate", "legendre:p=1019,shift=best,resize=1.0578"], 0),
    "generate_legendre_4099_best_resize": (
        ["generate", "legendre:p=4099,shift=best,resize=1.0578"], 0),
    "generate_quartic_g": (["generate", "quartic_g:p=101,shift=7"], 0),
    "generate_mseq_shift_resize": (["generate", "mseq:n=5,shift=3,resize=1.5"], 0),
    "generate_quartic_f_4129": (["generate", "quartic_f:p=4129,shift=17"], 0),
    "generate_mseq_13_char8191": (["generate", "mseq:n=13,char=8191"], 0),
    "correlate_golay10": (["correlate", GOLAY10], 0),
    "correlate_golay10_periodic": (["correlate", GOLAY10, "--periodic"], 0),
    "correlate_pair7": (["correlate", PAIR7], 0),
    "demerit_golay10": (["demerit", GOLAY10], 0),
    "demerit_pair7": (["demerit", PAIR7], 0),
    "correlate_pair1021": (["correlate", PAIR1021], 0),
    "correlate_pair1021_periodic": (["correlate", PAIR1021, "--periodic"], 0),
    "correlate_mseq_pair1023_periodic": (["correlate", MSEQ1023, "--periodic"], 0),
    "demerit_pair1021": (["demerit", PAIR1021], 0),
    "sweep_legendre_csv": (
        ["sweep", "legendre:p=3,shift=best", "--sizes", "101,211",
         "--target", "legendre-shifted-adf"], 0),
    "sweep_legendre_json": (
        ["sweep", "legendre:p=3,shift=best", "--sizes", "101,211",
         "--target", "legendre-shifted-adf", "--json"], 0),
    "pairs_typical_mseq": (["pairs", "typical_mseq", "--n", "7", "--d", "5"], 0),
    "pairs_reversing_mseq": (["pairs", "reversing_mseq", "--n", "7", "--k", "1"], 0),
    "pairs_half_legendre_29": (["pairs", "half_legendre", "--p", "29"], 0),
    "pairs_half_legendre_503": (["pairs", "half_legendre", "--p", "503"], 0),
    "pairs_quartic_pair": (["pairs", "quartic_pair", "--p", "29"], 0),
    "pairs_quartic_pair_389": (["pairs", "quartic_pair", "--p", "389"], 0),
    "pairs_quartic_pair_521": (["pairs", "quartic_pair", "--p", "521"], 0),
    "pairs_reversing_mseq_grid511": (["pairs", "reversing_mseq", "--n", "9", "--k", "2"], 0),
    "pairs_reversing_mseq_diag1023": (["pairs", "reversing_mseq", "--n", "10", "--k", "3"], 0),
    "pairs_legendre_plus_quartic": (["pairs", "legendre_plus_quartic", "--p", "101"], 0),
    "pairs_rsl_pair": (
        ["pairs", "rsl_pair", "--seeds", SEEDS, "--signs", "+-+-", "--depth", "4"], 0),
    "pairs_rsl_pair_depth8": (
        ["pairs", "rsl_pair", "--seeds", SEEDS, "--signs", "+-+-+--+", "--depth", "8"], 0),
    "pairs_golay": (["pairs", "golay", "--lengths", "2,4,8,10,20,40,80,160,640"], 0),
    "pairs_golay_json": (["pairs", "golay", "--lengths", "10,20", "--json"], 0),
    "seed_search": (["seed-search", "--max-len", "10"], 0),
    "golay_compose_160": (["golay", "compose", "--length", "160"], 0),
    "golay_compose_2560": (["golay", "compose", "--length", "2560"], 0),
    "golay_compose_1000": (["golay", "compose", "--length", "1000"], 0),
    "golay_verify": (["golay", "verify", GOLAY10], 0),
    "golay_search10": (["golay", "search10"], 0),
    "golay_bases": (["golay", "bases"], 0),
    "baseline": (["baseline", "--len", "64", "--trials", "50", "--seed", "3"], 0),
    "baseline_600_negative_seed": (
        ["baseline", "--len", "600", "--trials", "30", "--seed=-5"], 0),
    "baseline_130_seed_past_2_64": (
        ["baseline", "--len", "130", "--trials", "9", "--seed", "18446744073709551619"], 0),
    "roots": (["roots"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="ascii")


def test_python_files_alone_run_the_golay_commands(tmp_path):
    (tmp_path / "seqcorr").mkdir()
    for source in Path(seqcorr.__file__).parent.glob("*.py"):
        shutil.copy(source, tmp_path / "seqcorr")
    golden = {name: (GOLDEN / f"{name}.out").read_text(encoding="ascii")
              for name in ("golay_bases", "golay_compose_1000", "pairs_golay")}
    header, *rows = golden["pairs_golay"].splitlines(keepends=True)
    expected = {
        "golay bases": golden["golay_bases"],
        "golay compose --length 1000": golden["golay_compose_1000"],
        "pairs golay --lengths 20": header + next(r for r in rows if r.startswith("golay,20,")),
    }
    # With -m the working directory leads sys.path, so the copy is what runs.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for argv, stdout in expected.items():
        run = subprocess.run([sys.executable, "-m", "seqcorr.cli", *argv.split()], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, stdout, ""), argv
