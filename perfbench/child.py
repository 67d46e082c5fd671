"""Benchmark child process: imports the threepass CLI, then runs one pass of a workload.

Started by run.py, not by hand:

    child.py --setup-only
    child.py --workload NAME --seed N --outdir DIR [--trace] [--spans PATH]

The first thing the child does is import ``threepass.cli`` from the
checkout's ``src``; the CLOCK_MONOTONIC reading right after that import is
reported as ``ready``, so the parent can time set-up from its spawn.  The
child then calls ``threepass.cli.main`` for each command of the workload, one
after the other, with the tracer installed under ``--trace``.  The last line
of stdout is one JSON object with the pass's wall time, every command's exit
code and captured output, and the child's peak resident set.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import threepass.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, invoke  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="save the traced pass's spans here (.npz)")
    args = parser.parse_args()

    source = os.path.abspath(threepass.cli.__file__)
    if not source.startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"threepass imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    result = {"ready": READY, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    commands = WORKLOADS[args.workload].commands(args.outdir, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    main_fn = tracer.main if tracer else threepass.cli.main
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        outcomes = [invoke(main_fn, argv) for argv in commands]
        wall = time.perf_counter() - t0
    if tracer:
        result["layers"] = tracer.metrics()
        if args.spans:
            np.savez_compressed(args.spans, span_names=np.array(tracer.span_names),
                                **tracer.spans())
    result["wall_s"] = wall
    result["outcomes"] = outcomes
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
