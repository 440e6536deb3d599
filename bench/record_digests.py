"""Record the output digests that run.py checks for the shipped seeds.

Usage (from the repository root):

    python3 bench/record_digests.py

Runs one pass of every workload for each seed in SEEDS and writes
bench/digests.json.  A seed whose jobs fail their invariant checks
is not recorded.  Rerun only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEEDS = range(32)


def record() -> dict:
    env, _ = run.worker_env()
    out: dict[str, dict[str, list[str]]] = {w: {} for w in workloads.WORKLOADS}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            workdir, _ = run.make_workdir(workload, seed)
            try:
                result = run.run_worker(workdir, 0.0, False, workdir / "spans.jsonl", env,
                                        time.monotonic() + run.DEADLINE_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            first = result["passes"][0]
            if first["failed"]:
                print(f"{workload} seed {seed}: jobs {first['failed']} failed; not recorded",
                      file=sys.stderr)
                continue
            out[workload][str(seed)] = first["chunks"]
            print(f"{workload} seed {seed}: recorded", flush=True)
    return out


def main() -> int:
    digests = record()
    lines = []
    for workload, by_seed in digests.items():
        rows = [f'    "{seed}": {json.dumps(chunks)}' for seed, chunks in by_seed.items()]
        lines.append(f'  "{workload}": {{\n' + ",\n".join(rows) + "\n  }")
    (run.HERE / "digests.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
