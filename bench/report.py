"""Summaries of repetitions, the results file, and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

from bench import ROOT

#: Metrics on the virtual clock.  The seed fixes them, so a change that
#: only moves wall-clock speed must leave them bit-identical: ``compare``
#: reads any difference as a change in behaviour, never as noise.
EXACT = {
    "delivery_delay_p50_s": "s",
    "delivery_delay_p99_s": "s",
    "action_to_record_p50_s": "s",
    "action_to_record_p99_s": "s",
    "error_rate": "ratio",
}

#: Printed and kept beside the bounded metrics, with no bound of their
#: own: the raw wall-clock numbers, and how fast the machine ran.
CONTEXT = {
    "records_per_wall_s": "records/s",
    "setup_wall_s": "s",
    "machine_speed": "ratio",
}

_COUNT_SUFFIXES = (".calls", ".events", ".publishes", ".actions",
                   ".rehydrations")


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(_COUNT_SUFFIXES) else "ratio"


def spread(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles`` gives them."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": list(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def consistency_problems(runs: list[dict]) -> list[str]:
    """Every repetition's own checks, plus agreement between them: one
    seed must give one store and one virtual-clock history, traced or
    not."""
    problems = []
    for run in runs:
        kind = "traced run" if run["traced"] else "run"
        problems += [f"{kind}: {problem}" for problem in run["problems"]
                     if f"{kind}: {problem}" not in problems]
    if len({run["fingerprint"] for run in runs}) > 1:
        problems.append("docstore fingerprints differ between repetitions")
    for name in EXACT:
        if len({run.get(name) for run in runs}) > 1:
            problems.append(f"{name} differs between repetitions")
    return problems


def trace_overhead(runs: list[dict], traced: dict) -> float:
    """Traced over untraced time of the same work, in reference seconds
    so that the machine's drift between the runs cancels."""
    return statistics.median(run["records_per_ref_s"] for run in runs) \
        / traced["records_per_ref_s"]


def summarize(runs: list[dict], traced: dict, spec: dict) -> dict:
    """One workload: end-to-end metrics over the untraced ``runs``,
    per-layer metrics from the ``traced`` run."""
    first = runs[0]
    per_layer = {**traced["layers"],
                 "trace.overhead": trace_overhead(runs, traced)}
    return {
        "end_to_end": {
            metric["name"]: {"unit": metric["unit"],
                             "better": metric["better"],
                             "bound": metric["bound"],
                             **spread([run[metric["name"]] for run in runs])}
            for metric in spec["end_to_end"]},
        "context": {name: {"unit": unit,
                           **spread([run[name] for run in runs])}
                    for name, unit in CONTEXT.items()},
        "exact": {name: {"unit": unit, "value": first.get(name)}
                  for name, unit in EXACT.items()},
        "samples": {"delivery_delay": first["delivery_delay_samples"],
                    "action_to_record": first["action_to_record_samples"]},
        "per_layer": per_layer,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "fingerprint": first["fingerprint"],
        "problems": consistency_problems(runs + [traced]),
    }


def format_summary(name: str, summary: dict) -> str:
    lines = [f"== {name} ==",
             f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12}  unit"]
    rows = [(metric, entry, f"{entry['better']} is better, bound "
                            f"{entry['bound']:.0%}")
            for metric, entry in summary["end_to_end"].items()]
    rows += [(metric, entry, "unbounded")
             for metric, entry in summary["context"].items()]
    for metric, entry, note in rows:
        lines.append(
            f"  {metric:40} {entry['median']:12.6g} {entry['q1']:12.6g} "
            f"{entry['q3']:12.6g}  {entry['unit']} ({note})")
    samples = summary["samples"]
    for metric, entry in summary["exact"].items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        source = metric.rsplit("_p", 1)[0]
        count = (f", n={samples[source]}" if source in samples
                 else f", {summary['failed']} of {summary['attempted']}")
        lines.append(f"  {metric:40} {value:>12}  {entry['unit']} "
                     f"(virtual clock, exact{count})")
    lines.append("  per-layer, from one traced run:")
    for metric, value in summary["per_layer"].items():
        lines.append(f"  {metric:40} {value:12.6g}  {layer_unit(metric)}")
    lines += [f"  FAIL {problem}" for problem in summary["problems"]] \
        or ["  checks ok: conservation, replay, fingerprints, determinism"]
    return "\n".join(lines)


# -- results files ------------------------------------------------------

def write_results(path: Path, *, seed: int, smoke: bool,
                  summaries: dict) -> None:
    """Append this invocation to ``path`` (created when missing)."""
    document = {"schema": 1, "seed": seed, "smoke": smoke,
                "invocations": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        if (document.get("seed"), document.get("smoke")) != (seed, smoke):
            raise SystemExit(f"bench: {path} holds seed {document.get('seed')}"
                             f" smoke={document.get('smoke')}; not appending "
                             f"seed {seed} smoke={smoke}")
    document["invocations"].append({
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "workloads": summaries})
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def pooled(document: dict) -> dict[str, dict]:
    """Per workload, every invocation's values in one sample."""
    merged: dict[str, dict] = {}
    for invocation in document["invocations"]:
        for name, summary in invocation["workloads"].items():
            entry = merged.setdefault(name, {"end_to_end": {}, "exact": {}})
            for metric, stats in summary["end_to_end"].items():
                values = entry["end_to_end"].get(metric, {}).get("values", [])
                entry["end_to_end"][metric] = {
                    **stats, **spread(values + stats["values"])}
            for metric, stats in summary["exact"].items():
                entry["exact"].setdefault(metric, set()).add(stats["value"])
    return merged


# -- compare --------------------------------------------------------------

def bounded_verdict(a: dict, b: dict, metric: dict) -> tuple[float, str]:
    """``(relative change, verdict)`` under ``metric``'s direction and
    bound; a positive change is worse."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread_a = (a["q3"] - a["q1"]) / a["median"]
    spread_b = (b["q3"] - b["q1"]) / b["median"]
    b_wins_all = all(sign * (y - x) < 0
                     for x in a["values"] for y in b["values"])
    if max(spread_a, spread_b) > bound:
        return change, "better" if b_wins_all else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def exact_verdict(a: set, b: set) -> str:
    if len(a) != 1 or len(b) != 1:
        return "unresolved"  # one side disagrees with itself
    (x,), (y,) = a, b
    if x == y:
        return "same"
    if x is None or y is None:
        return "unresolved"
    return "better" if y < x else "worse"


def compare(path_a: Path, path_b: Path,
            spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any verdict is ``worse``.  Bounds come
    from ``spec``, not from the files."""
    docs = [json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (path_a, path_b)]
    same_seed = docs[0]["seed"] == docs[1]["seed"]
    a, b = (pooled(doc) for doc in docs)
    lines = [f"{'workload':16} {'metric':24} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'change':>8}  verdict"]
    if not same_seed:
        lines.append("  (different seeds: exact metrics are not comparable)")
    worse = False
    for workload in [name for name in a if name in b]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload]["end_to_end"] \
                    or name not in b[workload]["end_to_end"]:
                continue
            stats_a = a[workload]["end_to_end"][name]
            stats_b = b[workload]["end_to_end"][name]
            change, verdict = bounded_verdict(stats_a, stats_b, metric)
            worse |= verdict == "worse"
            lines.append(
                f"{workload:16} {name:24} {_quartiles(stats_a):>34} "
                f"{_quartiles(stats_b):>34} {change:+8.1%}  {verdict}")
        for metric, values_a in a[workload]["exact"].items():
            values_b = b[workload]["exact"][metric]
            verdict = exact_verdict(values_a, values_b) if same_seed \
                else "unresolved"
            worse |= verdict == "worse"
            lines.append(f"{workload:16} {metric:24} {_exact(values_a):>34} "
                         f"{_exact(values_b):>34} {'exact':>8}  {verdict}")
    return lines, worse


def _quartiles(stats: dict) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def _exact(values: set) -> str:
    return " / ".join("n/a" if value is None else f"{value:.6g}"
                      for value in sorted(values, key=str))
