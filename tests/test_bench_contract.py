"""The benchmark's job contract, in process: for each workload at seed 0,
the first job of every kind runs through bench/jobs.py's own ``run`` and
passes its own ``check``.  Each pair construction and each CLI command
counts as a kind of its own, so every library call the benchmark times is
made once.  Only bench/ is read; nothing there is changed."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import workloads  # noqa: E402


def _kind(job):
    if job["kind"] == "pairs":
        return "pairs", job["construction"]
    if job["kind"] == "cli":
        return "cli", job["argv"][0]
    return (job["kind"],)


def _first_of_each_kind(workload, tmp_path):
    """The seed-0 job list with its input files written to tmp_path and
    ``{dir}`` replaced as bench/run.py does, one job per kind."""
    job_list, files = workloads.make(workload, 0)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    first = {}
    for job in job_list:
        if "argv" in job:
            job["argv"] = [a.replace("{dir}", str(tmp_path)) for a in job["argv"]]
        first.setdefault(_kind(job), job)
    return first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_job_of_each_kind_passes_its_check(workload, tmp_path):
    failed = []
    for kind, job in _first_of_each_kind(workload, tmp_path).items():
        run, check = jobs.KINDS[job["kind"]]
        ok, _ = check(job, run(job))
        if not ok:
            failed.append(kind)
    assert failed == []
