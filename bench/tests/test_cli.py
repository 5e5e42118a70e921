"""``python -m bench`` end to end, ``BENCHMARK.json`` and ``compare``."""

from __future__ import annotations

import json
import subprocess
import sys
import time

from bench import ROOT
from bench.report import bounded_verdict, exact_verdict, layer_unit, load_spec
from bench.workloads import WORKLOADS

SPEC = load_spec()


def bench(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def test_the_spec_names_the_workloads_the_code_builds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == layer_unit(metric["name"]), metric["name"]


def test_a_smoke_run_of_every_workload_passes_within_30_s(tmp_path):
    started = time.perf_counter()
    done = bench("--smoke", "--repeats", "2", "--json",
                 str(tmp_path / "smoke.json"))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30
    for name in WORKLOADS:
        assert f"== {name} ==" in done.stdout
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} " in done.stdout, metric["name"]
    assert "FAIL" not in done.stdout
    same = bench("compare", str(tmp_path / "smoke.json"),
                 str(tmp_path / "smoke.json"))
    assert same.returncode == 0
    assert "worse" not in same.stdout


def test_the_fixed_time_form_prints_one_result_line_last():
    for trace, metrics in (("0", SPEC["end_to_end"]),
                           ("1", SPEC["per_layer"])):
        done = bench("--workload", "osn-geo-social", "--seed", "3",
                     "--seconds", "0", "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] > 0 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in metrics]


def test_verdicts():
    def stats(*values):
        ordered = sorted(values)
        return {"values": list(values), "median": ordered[1],
                "q1": ordered[0], "q3": ordered[2]}

    higher = {"better": "higher", "bound": 0.08}
    base = stats(100, 101, 102)
    assert bounded_verdict(base, stats(99, 100, 101), higher)[1] == "same"
    assert bounded_verdict(base, stats(80, 81, 82), higher)[1] == "worse"
    assert bounded_verdict(base, stats(120, 121, 122), higher)[1] == "better"
    assert bounded_verdict(base, stats(70, 100, 130), higher)[1] \
        == "unresolved"
    assert bounded_verdict(stats(1.0, 1.0, 1.0), stats(1.2, 1.2, 1.2),
                           {"better": "lower", "bound": 0.1})[1] == "worse"
    assert exact_verdict({0.5}, {0.5}) == "same"
    assert exact_verdict({0.5}, {0.4}) == "better"
    assert exact_verdict({0.5}, {0.5, 0.6}) == "unresolved"
