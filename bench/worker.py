"""One benchmark run in a fresh interpreter: import seqcorr, run passes.

Usage: worker.py SRC WORKDIR SECONDS TRACE SPANS_PATH

Reads WORKDIR/jobs.json, runs the job list in passes, one job after the
other (a closed loop with one client), for as many whole passes as fit in
SECONDS (at least MIN_PASSES).  Each job is timed around its library
calls only; its output check runs after the timer stops.  A fixed
calibration snippet, which uses no seqcorr code, is timed once as a
warm-up, then before the first job of each pass and after every
CALIBRATE_EVERY_S of job time, so that run.py can scale each job's time by
the machine's speed around it.
With TRACE=1 the passes alternate traced and untraced, starting traced,
so tracing overhead can be measured; the spans of the last traced pass are
written to SPANS_PATH as JSON lines.

Each pass's record (job times, calibrations, one output digest per
DIGEST_CHUNK jobs, failed jobs) is appended to WORKDIR/passes.jsonl as
soon as the pass ends and is not kept, so the process's peak memory does
not grow with the number of passes.  WORKDIR/result.json gets the peak
memory and the environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import DIGEST_CHUNK

MAX_TRACEBACKS = 3
CALIBRATE_EVERY_S = 0.05
# Two passes at least: one traced and one untraced with TRACE=1, and a
# steady peak memory.  The first pass of small_batch peaks about 7 MB lower
# than the later ones, which all peak alike, because glibc's malloc raises
# its mmap threshold when the first large block is freed, so later passes
# take the census's large arrays from the heap instead.
MIN_PASSES = 2


def calibrate() -> float:
    """Time a fixed snippet (a few ms) that uses no seqcorr code: a numpy
    kernel, interpreter work, and a loop of small numpy operations."""
    x = np.resize(np.array([1, -1, -1, 1, -1], dtype=np.int64), 2048)
    y = np.resize(x, 4096)
    t0 = time.perf_counter()
    np.correlate(x, x, mode="full")
    tuple(1 if (i * 7919) % 13 < 6 else -1 for i in range(20000))
    acc = np.zeros(len(y), dtype=np.int64)
    for s in range(1, 60):
        c = np.cumsum(np.roll(y, s) * y)
        acc += c * c
    return time.perf_counter() - t0


def run_pass(jobs, kinds, tracer, tracebacks):
    """Run the job list once.  ``job_cal[i]`` is the index of the
    calibration taken before job i; another is always taken after it.
    ``chunks[c]`` is the first 16 hex digits of the sha256 of the
    concatenated sha256 hex digests of the outputs of chunk c, the
    DIGEST_CHUNK jobs from job c*DIGEST_CHUNK on."""
    lat, chunks, failed = [], [], []
    chunk = hashlib.sha256()
    cal, job_cal, since = [calibrate()], [], 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            run, check = kinds[job["kind"]]
            if tracer is not None:
                tracer.begin(i)
            t0 = time.perf_counter()
            try:
                out = run(job)
                err = None
            except Exception:  # a failing job is counted, not fatal
                out, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end()
            lat.append(t1 - t0)
            if err is None:
                try:
                    ok, text = check(job, out)
                except Exception:
                    ok, text, err = False, "", traceback.format_exc()
            else:
                ok, text = False, ""
            if err is not None and len(tracebacks) < MAX_TRACEBACKS:
                tracebacks.append(err)
            if not ok:
                failed.append(i)
            if tracer is not None and job["kind"] == "cli" and err is None:
                tracer.counts["cli.stdout_bytes"] += len(out[1].encode())
            chunk.update(hashlib.sha256(text.encode()).hexdigest().encode())
            if (i + 1) % DIGEST_CHUNK == 0 or i == len(jobs) - 1:
                chunks.append(chunk.hexdigest()[:16])
                chunk = hashlib.sha256()
            job_cal.append(len(cal) - 1)
            since += t1 - t0
            if since >= CALIBRATE_EVERY_S or i == len(jobs) - 1:
                cal.append(calibrate())
                since = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"traced": tracer is not None, "latencies": lat, "chunks": chunks,
              "failed": failed, "calibration": cal, "job_cal": job_cal}
    if tracer is not None:
        record["calls"] = dict(tracer.calls)
        record["busy_s"] = dict(tracer.busy)
        record["counts"] = dict(tracer.counts)
        record["untraced_names"] = tracer.missing
    return record


def main(argv):
    src, workdir, seconds, trace, spans_path = argv
    seconds, trace, workdir = float(seconds), trace == "1", Path(workdir)

    import seqcorr

    if not Path(seqcorr.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"seqcorr imported from {seqcorr.__file__}, not from {src}")

    import jobs as job_kinds
    import tracing

    jobs = json.loads((workdir / "jobs.json").read_text())
    tracer = tracing.Tracer(seqcorr) if trace else None
    tracebacks, spans, n_passes = [], None, 0
    calibrate()  # warm-up, so the first pass's first calibration is not cold
    start = time.perf_counter()
    with open(workdir / "passes.jsonl", "w") as passes:
        while True:
            traced = trace and n_passes % 2 == 0
            record = run_pass(jobs, job_kinds.KINDS, tracer if traced else None, tracebacks)
            passes.write(json.dumps(record) + "\n")
            n_passes += 1
            if traced:
                spans = tracer.spans
            elapsed = time.perf_counter() - start
            # Whole passes only, while another one is expected to fit.
            if elapsed * (n_passes + 1) / n_passes > seconds and n_passes >= MIN_PASSES:
                break
    for tb in tracebacks:
        print(tb, file=sys.stderr)
    if spans is not None:
        with open(spans_path, "w") as fh:
            for sid, name, t_start, t_end, parent, job in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t_start, "end": t_end,
                                     "parent": parent, "job": job}) + "\n")
    result = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
    }
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
