"""Benchmark of the threepass CLI: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload mc|roots|surface|scan --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload is one fresh
child process (child.py) that imports ``threepass.cli`` and calls its
``main`` for every command of the workload, one after the other; the next
pass starts when the previous one has ended and its outputs are checked.
Passes start while they are expected to end within ``--seconds`` (at least
three passes).

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: from spawning a child until ``threepass.cli`` is imported,
  median over the passes;
* ``wall_s``: wall time of one pass of the command list, after set-up, mean
  over the passes;
* ``peak_rss_mb``: peak resident set of a child, median over the passes;
* ``items_per_s``: work items of one pass divided by ``wall_s``, that is all
  items of the run over all its pass time (simulated rounds on mc,
  thresholds solved on roots, CSV data rows written on surface and scan).

With ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of tracing.py, medians over the traced passes, plus
``trace.wall_s``, the traced median ``wall_s``, and ``trace.overhead_s``,
traced minus untraced median ``wall_s``.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; an operation is one CLI command.  The line before it
holds the machine and run info, which is also written, with every pass, to
``.perfbench_out/`` in the checkout; traced runs leave the spans of their last
traced pass there.  Command outputs go to a temporary directory under
``.perfbench_out/``, removed at the end.  Children run with one BLAS/OpenMP
thread and a fixed ``SOURCE_DATE_EPOCH``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import ROOT, WORKLOADS, Outcome

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 3
# Every child must have ended by then, so that a run ends within 180 s.
RUN_BUDGET_S = 170

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "1700000000",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "THREEPASS_SEED", "PYTHONDONTWRITEBYTECODE")}
    env.update(CHILD_ENV)
    return env


def spawn(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run child.py to completion; return its spawn time and its JSON result."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"child printed no result ({exc!r})") from exc


def run_passes(workload, args, outdir: str, spans: str) -> tuple[list[dict], str]:
    """Spawn one child per pass until the run length is used up; check each pass.

    With tracing, untraced and traced passes alternate.  Returns the passes
    and the numpy version the children ran with.
    """
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    spawn(["--setup-only"], deadline - time.monotonic())  # may still compile bytecode
    passes, longest = [], 0.0
    while (len(passes) < MIN_PASSES * (1 + args.trace)
           or time.monotonic() - started + longest < args.seconds):
        pass_started = time.monotonic()
        argv = ["--workload", workload.name, "--seed", str(args.seed), "--outdir", outdir]
        traced = bool(args.trace and len(passes) % 2)
        if traced:
            argv += ["--trace", "--spans", spans]
        spawned, result = spawn(argv, deadline - time.monotonic())
        outcomes = [Outcome(*o) for o in result["outcomes"]]
        record = {"setup_s": result["ready"] - spawned, "wall_s": result["wall_s"],
                  "peak_rss_kb": result["peak_rss_kb"],
                  "errors": workload.check(outcomes, outdir)}
        if traced:
            record["layers"] = result["layers"]
        passes.append(record)
        longest = max(longest, time.monotonic() - pass_started)
    return passes, result["numpy"]


def end_to_end(workload, passes: list[dict]) -> dict:
    def median(fn):
        return statistics.median(fn(p) for p in passes)

    # wall_s is a mean over the whole run, not a median: the host's slowdowns
    # come in spells of several seconds, so pass times mix a fast and a slow
    # level, and a median jumps between the two from run to run.
    wall = statistics.fmean(p["wall_s"] for p in passes)
    return {
        "setup_s": {"value": median(lambda p: p["setup_s"]), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": median(lambda p: p["peak_rss_kb"]) / 1024.0, "unit": "MB"},
        "items_per_s": {"value": workload.items / wall, "unit": "1/s"},
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if "layers" in p]
    # median_low keeps each value one that a pass measured, so counts stay whole.
    metrics = {name: {"value": statistics.median_low(p["layers"][name]["value"] for p in traced),
                      "unit": metric["unit"]}
               for name, metric in traced[0]["layers"].items()}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in passes if "layers" not in p)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_head() -> str | None:
    """The checkout's commit, or None where the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="becomes --seed of the mc commands; the others ignore it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length: passes start while they are expected to end within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": sys.version.split()[0],
        "git_head": git_head(), "loadavg_start": os.getloadavg(),
    }
    try:
        with tempfile.TemporaryDirectory(prefix="outputs-", dir=OUT_DIR) as outdir:
            passes, info["numpy"] = run_passes(
                workload, args, outdir, os.path.join(OUT_DIR, f"{tag}-spans.npz"))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["loadavg_end"] = os.getloadavg()

    errors = [e for p in passes for e in p["errors"]]
    failed = sum(e is not None for e in errors)
    metrics = per_layer(passes) if args.trace else end_to_end(workload, passes)
    summary = {"correct": failed == 0, "attempted": len(errors), "failed": failed,
               "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "passes": passes, **summary}, fh, indent=1)
    for message in sorted({e for e in errors if e is not None}):
        print(f"perfbench: failed check: {message}", file=sys.stderr)
    print(json.dumps({"run_info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
