"""Checks of the benchmark itself.

Every computed count of a traced run repeats exactly for the same seed,
the traced layers cover the program, and a directory without the program
makes the benchmark fail.  Run from the repository root (takes about a
minute):

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics computed from call arguments and results, not clocks.
COUNTED = {
    "calls", "field_order", "terms", "macs", "max_len", "candidates", "rng_words",
    "checks", "checks_per_compose", "check_pass_ratio", "check_terms", "seeds_scanned",
    "stdout_bytes",
}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def traced(workload: str) -> dict:
    out = bench(ROOT, workload, 1)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {w: (traced(w), traced(w)) for w in WORKLOADS}


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.split(".", 1)[1] in COUNTED}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert counts(first) == counts(second)


def test_largest_layer_shares(runs):
    for workload, layer in (("exact_large", "corr"), ("shift_search", "analysis")):
        metrics = runs[workload][0]["metrics"]
        assert max(LAYERS, key=lambda name: metrics[f"{name}.share"]["value"]) == layer


def test_every_layer_is_called(runs):
    for layer in LAYERS:
        assert any(runs[w][0]["metrics"][f"{layer}.calls"]["value"] > 0 for w in WORKLOADS)


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = bench(bare, "small_batch", 0)
        assert out.returncode != 0
        assert out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
