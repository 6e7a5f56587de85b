#!/usr/bin/env python3
"""The partembed benchmark: one workload per process, checked and timed.

    python3 perfbench/run.py --workload fewshot --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. The seed makes the inputs; the program
only sees the generated corpus. Each timed pass follows its own set-up
(``setup_s`` is their median); passes repeat, at least three times, until
another would overrun ``--seconds``. With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` passes alternate untraced and
traced and it carries the per-layer metrics. Lines before it, starting with
``#``, give the machine, the stage metrics and the checks. A full record
and, when traced, every span go under ``.perfbench/`` in the checkout.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS reads its thread count once, at load: fix it before numpy is imported.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "partembed").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} holds no partembed sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import json
    import shutil

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                             out_dir, spec, BLAS_THREADS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in harness.report_lines(record):
        print("# " + line)
    print(json.dumps(record["result"], sort_keys=True))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
