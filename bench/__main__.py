"""``python -m bench``: run the workloads, print every metric, check outputs.

    python -m bench [--workload NAME]... [--seed N] [--repeats R]
                    [--json PATH] [--smoke]
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare A.json B.json

The first form runs each workload R times untraced (end-to-end metrics:
median and quartiles) and then once traced (per-layer metrics).  Every
repetition is a fresh single-threaded process and only one runs at a
time.  It exits 1 when any check fails.

The second form measures one workload for a fixed time: untraced
repetitions until S seconds have passed, or with ``--trace 1`` one
untraced and one traced repetition.  Its last output line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``compare`` applies each metric's bound from ``BENCHMARK.json`` and
exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT
from bench.report import (
    compare,
    consistency_problems,
    format_summary,
    load_spec,
    summarize,
    trace_overhead,
    write_results,
)
from bench.workloads import WORKLOADS

#: A repetition that runs longer than this has hung.
WORKER_TIMEOUT_S = 150


def spawn(name: str, seed: int, *, traced: bool, smoke: bool) -> dict:
    """One repetition in a fresh process; returns its report."""
    command = [sys.executable, "-m", "bench.worker", name, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    # One hash seed for every worker: string hashing sets dict and set
    # layouts, which moved peak RSS by about 5% between processes.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: the {name} worker exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_for(args, spec: dict) -> int:
    """The fixed-time form: one JSON result line, printed last."""
    name = args.workload[0]
    started = time.perf_counter()
    runs = [spawn(name, args.seed, traced=False, smoke=args.smoke)]
    while not args.trace and time.perf_counter() - started < args.seconds:
        runs.append(spawn(name, args.seed, traced=False, smoke=args.smoke))
    everything = list(runs)
    if args.trace:
        traced = spawn(name, args.seed, traced=True, smoke=args.smoke)
        everything.append(traced)
        layers = {**traced["layers"],
                  "trace.overhead": trace_overhead(runs, traced)}
        metrics = {metric["name"]: {"value": layers[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in spec["per_layer"]}
    else:
        metrics = {metric["name"]: {
            "value": statistics.median(run[metric["name"]] for run in runs),
            "unit": metric["unit"]} for metric in spec["end_to_end"]}
    problems = consistency_problems(everything)
    for problem in problems:
        print(f"FAIL {name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in everything),
        "failed": sum(run["failed"] for run in everything),
        "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    summaries = {}
    for name in args.workload or list(WORKLOADS):
        runs = [spawn(name, args.seed, traced=False, smoke=args.smoke)
                for _ in range(args.repeats)]
        traced = spawn(name, args.seed, traced=True, smoke=args.smoke)
        summaries[name] = summarize(runs, traced, spec)
        print(format_summary(name, summaries[name]), flush=True)
    if args.json is not None:
        write_results(args.json, seed=args.seed, smoke=args.smoke,
                      summaries=summaries)
    return 1 if any(summary["problems"] for summary in summaries.values()) \
        else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        lines, worse = compare(args.a, args.b, load_spec())
        print("\n".join(lines))
        return 1 if worse else 0

    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run the named workloads through the whole middleware.")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced repetitions per workload")
    parser.add_argument("--json", type=Path,
                        help="append this invocation's results to a file")
    parser.add_argument("--smoke", action="store_true",
                        help="small populations, for a quick check")
    parser.add_argument("--seconds", type=float,
                        help="fixed-time form: measure one workload this "
                             "long and print one JSON result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    spec = load_spec()
    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds needs exactly one --workload")
        return measure_for(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
