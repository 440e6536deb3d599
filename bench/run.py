"""seqcorr benchmark: time to result on three seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload exact_large --seed 1 --seconds 30 --trace 0

Workloads: exact_large, shift_search, small_batch (see workloads.py for
what each runs and why).  The job list and its input files are made from
the seed before the program is loaded.  A fresh worker interpreter then
imports seqcorr from ``src/`` and runs the job list in passes, one job at a
time (a closed loop with one client), for as many whole passes as fit in
``--seconds``, and at least two.  Every job's output is checked:
exact invariants for any seed, and digests of the exact outputs for the
seeds recorded in ``digests.json``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median time for ``import seqcorr`` to return in a fresh
  interpreter, over several interpreters started by this run, each scaled
  like the job times below.
* ``wall_s``: time to finish the job list: the sum over jobs of each job's
  median time over the run's passes.  Output checks run between jobs,
  untimed.  Job times are scaled by a calibration snippet timed between
  jobs (see ``scaled_latencies``), so they read as seconds on a machine of
  fixed speed rather than on a shared machine whose speed drifts.  The
  ``env`` line gives the same sum unscaled as ``raw_wall_s``, to show how
  large the correction is.
* ``job_p50_s``: median over jobs of those per-job times.
* ``job_tail_s``: the highest percentile of those per-job times that has
  at least ten jobs beyond it (the percentile is printed in the ``env``
  line and fixed per workload, because job counts are).
* ``peak_rss_mb``: peak resident memory of the worker process.  The
  worker keeps no per-pass data in memory, so this does not depend on how
  many passes fit in the run.
* ``ok_frac``: jobs that passed their check over jobs attempted, over all
  passes; that is, 1 - failed_frac, which is reported this way round so
  that the metric is never 0.

With ``--trace 1`` the metrics are per layer, from passes in which spans
wrap seqcorr's public functions (see tracing.py), alternated with untraced
passes that give ``trace.overhead_frac``.  The per-layer times (``busy_s``
and the ``*_per_s`` rates) are raw wall-clock times, not scaled; ``share``
and ``trace.overhead_frac`` are ratios of raw and of scaled times
respectively, so the machine's speed cancels in both.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it describes the
environment.  Exit code 2 means the benchmark could not run (for example,
no ``src/seqcorr`` next to it); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
TAIL_BEYOND = 10
DEADLINE_S = 170.0
# Time of worker.calibrate on the 2-core machine the benchmark was defined
# on when no other load slowed it; scaled times are seconds on that machine.
CALIBRATION_REF_S = 0.006
# A fresh interpreter times its import of seqcorr, then (after one warm-up
# call) the calibration three times.
PROBE = (
    "import time; t = time.perf_counter(); import seqcorr; d = time.perf_counter() - t; "
    "import worker; worker.calibrate(); print(d, *(worker.calibrate() for _ in range(3)))"
)


def worker_env() -> tuple[dict, dict]:
    cores = len(os.sched_getaffinity(0))
    caps = {name: str(cores) for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(SRC), **caps)
    return env, caps


def tail_index(n_jobs: int) -> tuple[int, float]:
    """Index into sorted job times with exactly TAIL_BEYOND jobs beyond it,
    and the percentile that index stands for."""
    return n_jobs - TAIL_BEYOND - 1, 100.0 * (n_jobs - TAIL_BEYOND) / n_jobs


def make_workdir(workload: str, seed: int) -> tuple[Path, list[dict]]:
    """Write the seeded job list and its input files to a fresh directory."""
    jobs, files = workloads.make(workload, seed)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    for name, text in files.items():
        (workdir / name).write_text(text)
    for job in jobs:
        if "argv" in job:
            job["argv"] = [a.replace("{dir}", str(workdir)) for a in job["argv"]]
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    return workdir, jobs


def run_worker(workdir: Path, seconds: float, trace: bool, spans_path: Path, env: dict,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(workdir), str(seconds),
           "1" if trace else "0", str(spans_path)]
    subprocess.run(cmd, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads((workdir / "result.json").read_text())
    with open(workdir / "passes.jsonl") as fh:
        result["passes"] = [json.loads(line) for line in fh]
    return result


def setup_probes(env: dict, deadline: float) -> list[float]:
    """Import times of SETUP_PROBES fresh interpreters, each scaled by the
    median of three calibrations taken right after its import."""
    env = dict(env, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                             capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        d, *cal = map(float, res.stdout.split())
        out.append(d * CALIBRATION_REF_S / statistics.median(cal))
    return out


def count_failed(passes: list[dict], expected: list[str] | None) -> int:
    """Jobs, summed over passes, whose check failed or whose digest chunk
    differs from the recorded one (for a seed without a record, from the
    first pass)."""
    reference, size = expected or passes[0]["chunks"], workloads.DIGEST_CHUNK
    total = 0
    for p in passes:
        n, got = len(p["latencies"]), p["chunks"]
        bad = set(p["failed"]) if len(got) == len(reference) else set(range(n))
        for c, (have, want) in enumerate(zip(got, reference)):
            if have != want:
                bad.update(range(c * size, min(n, (c + 1) * size)))
        total += len(bad)
    return total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_latencies(p: dict) -> list[float]:
    """A pass's job times scaled to the reference machine speed.

    Other tenants of a shared machine slow it by up to 2x for seconds at a
    time.  Each job's time is multiplied by CALIBRATION_REF_S over the mean
    of the calibration times taken just before and just after it, which
    cancels that slowdown.  The calibration uses no seqcorr code, so a
    change to seqcorr shows in full, except where the state a job leaves
    behind (caches, allocator) changes the calibration timed after it.
    """
    cal, before = p["calibration"], p["job_cal"]
    return [t * 2 * CALIBRATION_REF_S / (cal[b] + cal[b + 1])
            for t, b in zip(p["latencies"], before)]


def job_times(passes: list[dict]) -> list[float]:
    """Each job's median scaled time over the given passes."""
    return [statistics.median(col) for col in zip(*map(scaled_latencies, passes))]


def end_to_end(result: dict, probes: list[float], tail_at: int, ok_frac: float) -> dict:
    times = job_times([p for p in result["passes"] if not p["traced"]])
    return {
        "setup_s": metric(statistics.median(probes), "s"),
        "wall_s": metric(sum(times), "s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(sorted(times)[tail_at], "s"),
        "peak_rss_mb": metric(result["maxrss_kb"] / 1024, "MB"),
        "ok_frac": metric(ok_frac, "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    counts = traced[0]["counts"]
    out = {}
    busy = {}
    for layer in tracing.LAYERS:
        busy[layer] = statistics.median(p["busy_s"].get(layer, 0.0) for p in traced)
        share = statistics.median(
            _ratio(p["busy_s"].get(layer, 0.0), sum(p["latencies"])) for p in traced)
        out[f"{layer}.calls"] = metric(traced[0]["calls"].get(layer, 0), "count")
        out[f"{layer}.busy_s"] = metric(busy[layer], "s")
        out[f"{layer}.share"] = metric(share, "ratio")

    def count(key):
        return counts.get(key, 0)

    for key in ("gf.field_order", "sequence.terms", "families.terms", "corr.macs",
                "corr.max_len", "analysis.candidates", "analysis.rng_words", "golay.checks",
                "golay.check_terms", "golay.seeds_scanned"):
        out[key] = metric(count(key), "count")
    for key in ("families.terms", "corr.macs", "analysis.candidates"):
        out[f"{key}_per_s"] = metric(_ratio(count(key), busy[key.split(".")[0]]), "1/s")
    out["golay.checks_per_compose"] = metric(
        _ratio(count("golay.compose_checks"), count("golay.composes")), "ratio")
    out["golay.check_pass_ratio"] = metric(
        _ratio(count("golay.check_passes"), count("golay.checks")), "ratio")
    out["cli.stdout_bytes"] = metric(count("cli.stdout_bytes"), "bytes")
    wall_t, wall_u = sum(job_times(traced)), sum(job_times(untraced))
    out["trace.overhead_frac"] = metric(_ratio(wall_t - wall_u, wall_u), "ratio")
    return out


def load_expected(workload: str, seed: int) -> list[str] | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "seqcorr" / "__init__.py").is_file():
        print(f"error: no seqcorr package under {SRC}", file=sys.stderr)
        return 2
    env, caps = worker_env()
    workdir, jobs = make_workdir(args.workload, args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        probes = [] if args.trace else setup_probes(env, deadline)
        result = run_worker(workdir, args.seconds, bool(args.trace), spans_path, env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = load_expected(args.workload, args.seed)
    failed = count_failed(result["passes"], expected)
    attempted = len(jobs) * len(result["passes"])
    tail_at, tail_pct = tail_index(len(jobs))
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, probes, tail_at, 1 - failed / attempted)
    env_line = {
        "workload": args.workload, "seed": args.seed, "cores": result["cores"],
        "python": result["python"], "numpy": result["numpy"], "thread_caps": caps,
        "jobs_per_pass": len(jobs), "job_tail_percentile": round(tail_pct, 2),
        "passes": len(result["passes"]),
        "raw_wall_s": sum(statistics.median(col) for col in zip(
            *(p["latencies"] for p in result["passes"] if not p["traced"]))),
        "traced_passes": sum(p["traced"] for p in result["passes"]),
        "digests_recorded": expected is not None,
    }
    if args.trace:
        env_line["spans_file"] = str(spans_path.relative_to(ROOT))
        env_line["untraced_names"] = result["passes"][0].get("untraced_names", [])
    print(json.dumps({"env": env_line}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
