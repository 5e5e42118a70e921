"""One repetition of one workload, in a fresh process.

``python -m bench.worker NAME --seed N [--traced] [--smoke]`` builds the
deployment at least :data:`SETUP_BUILDS` times and for at least
:data:`SETUP_MIN_S` (set-up time is the median build), runs the last
build in :data:`SLICES` steps, checks it outside the timed window and
prints one JSON object.  Times are reported in reference seconds (see
:class:`SpeedReference`) and in wall seconds.  ``python -m bench``
starts one of these per repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import time

from bench.trace import Tracer, import_all, layer_metrics
from bench.workloads import WORKLOADS

SETUP_BUILDS = 3
#: A lazy deployment builds in well under a millisecond; building it
#: for this long keeps its median steady.
SETUP_MIN_S = 0.25

#: The measured phase runs in this many steps, each followed by a
#: speed sample.
SLICES = 200

#: ``--smoke`` only checks that everything runs, so it takes the
#: minimum of builds and these few slices.
SMOKE_SLICES = 10

#: One warm :class:`SpeedReference` pass on the reference machine.
REFERENCE_S = 0.0012


class SpeedReference:
    """Converts wall seconds just spent into reference-machine seconds.

    The host's speed drifts by up to 20% over stretches of 30 to 60 s,
    by more within single seconds, and by up to twofold between hours.
    A fixed loop of dictionary reads, timed right after a piece of work,
    tells how fast the machine was just then.  The timed pass follows an
    untimed one, so it runs from a warm cache: it measures the
    processor, not what the workload left in the cache.  It allocates
    no containers and its entries hold only atomic values, so it never
    runs or feeds the garbage collector.
    """

    def __init__(self, size: int = 2_000, reads: int = 15_000):
        self._entries = [{"key": index, "name": str(index)}
                         for index in range(size)]
        rng = random.Random(size)
        self._order = [rng.randrange(size) for _ in range(reads)]
        #: This machine's speed relative to the reference, per sample.
        self.speeds: list[float] = []

    def _pass(self) -> int:
        entries, total = self._entries, 0
        for index in self._order:
            entry = entries[index]
            total += entry["key"] + len(entry["name"])
        return total

    def scale(self, elapsed: float) -> float:
        """``elapsed`` wall seconds just spent, in reference seconds."""
        self._pass()
        started = time.perf_counter()
        self._pass()
        self.speeds.append(REFERENCE_S / (time.perf_counter() - started))
        return elapsed * self.speeds[-1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted ``values``."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_metrics(counts: dict[str, int]) -> dict[str, float]:
    """Per-layer work ratios from a deployment's end-of-run counters."""
    return {
        "mobile.sends_per_record": _ratio(counts["sends"], counts["emitted"]),
        "mobile.records_per_batch": _ratio(counts["sends"],
                                           counts["uplink_messages"]),
        "net.messages_per_record": _ratio(counts["net_messages"],
                                          counts["ingested"]),
        "mqtt.publishes": counts["publishes"],
        "mqtt.routing_checks_per_publish": _ratio(counts["routing_checks"],
                                                  counts["publishes"]),
        "server.duplicate_ratio": _ratio(counts["duplicates"],
                                         counts["ingested"]),
        "durability.journal_bytes_per_record": _ratio(
            counts["journal_bytes"], counts["ingested"]),
        "docstore.candidates_per_query": _ratio(counts["candidates"],
                                                counts["queries"]),
        "osn.actions": counts["actions"],
        "scenarios.rehydrations": counts["rehydrations"],
    }


def run_once(name: str, seed: int, *, traced: bool = False,
             smoke: bool = False) -> dict:
    """Build, run and check one repetition; returns its report."""
    import_all()
    reference = SpeedReference()
    min_setup_s, slices = (0.0, SMOKE_SLICES) if smoke \
        else (SETUP_MIN_S, SLICES)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        builds: list[float] = []
        setups: list[float] = []
        gc.collect()
        setup_started = time.perf_counter()
        while (len(setups) < SETUP_BUILDS
               or time.perf_counter() - setup_started < min_setup_s):
            deployment = None  # the previous build goes before the next
            started = time.perf_counter()
            deployment = WORKLOADS[name](seed, smoke)
            builds.append(time.perf_counter() - started)
            setups.append(reference.scale(builds[-1]))
        steps = deployment.slices(slices)
        ingested_before = deployment.ingested()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        wall_s = reference_s = 0.0
        for step in steps:
            started = time.perf_counter()
            step()
            elapsed = time.perf_counter() - started
            wall_s += elapsed
            reference_s += reference.scale(elapsed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The high-water mark of the build and the run, before the checks
    # below allocate their own copies of the store.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts = deployment.counters()
    failed = counts["emitted"] - counts["ingested"] - counts["queued"]
    lost = failed - counts["shed"] - counts["quarantined"] - counts["evicted"]
    problems = deployment.problems()
    if lost:
        problems.append(
            f"conservation: emitted {counts['emitted']} != ingested "
            f"{counts['ingested']} + queued {counts['queued']} + shed "
            f"{counts['shed']} + quarantined {counts['quarantined']} + "
            f"evicted {counts['evicted']} ({lost} lost)")
    listener = deployment.listener
    if len(listener.delays) != counts["ingested"]:
        problems.append(f"the listener saw {len(listener.delays)} of "
                        f"{counts['ingested']} ingested records")

    records = counts["ingested"] - ingested_before
    report = {
        "workload": name, "seed": seed, "traced": traced, "smoke": smoke,
        "setup_s": statistics.median(setups),
        "setup_wall_s": statistics.median(builds), "setup_builds": len(builds),
        "wall_s": wall_s, "records": records,
        "records_per_ref_s": records / reference_s,
        "records_per_wall_s": records / wall_s,
        "machine_speed": statistics.median(reference.speeds),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": _ratio(failed, counts["emitted"]),
        "attempted": counts["emitted"], "failed": failed,
        "counts": counts,
        "fingerprint": deployment.fingerprint(),
        "problems": problems,
    }
    for prefix, values in (("delivery_delay", listener.delays),
                           ("action_to_record", listener.action_delays)):
        values = sorted(values)
        report[f"{prefix}_samples"] = len(values)
        if values:
            report[f"{prefix}_p50_s"] = percentile(values, 0.50)
            report[f"{prefix}_p99_s"] = percentile(values, 0.99)
    if tracer is not None:
        report["layers"] = {**layer_metrics(tracer, wall_s),
                            **counter_metrics(counts)}
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_once(args.workload, args.seed, traced=args.traced,
                              smoke=args.smoke)))


if __name__ == "__main__":
    main()
