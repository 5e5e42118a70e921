"""The span arithmetic and the patches of :mod:`bench.trace`."""

from __future__ import annotations

import importlib

import pytest

from bench.trace import HOOKS, Tracer, layer_metrics
from bench.workloads import WORKLOADS


class ScriptedClock:
    """Returns scripted nanosecond readings, one per call — the
    ``DeterministicTimer`` pattern: the arithmetic is checked against
    exact numbers, not against a real clock."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self) -> int:
        return next(self._readings)


def test_nested_spans_subtract_children_exactly():
    # outer [0, 100) encloses one [10, 30) and two [40, 45), and two
    # encloses grand [41, 43).
    tracer = Tracer(clock=ScriptedClock([0, 10, 30, 40, 41, 43, 45, 100]))
    grand = tracer.timed("c.grand", lambda: None)
    one = tracer.timed("b.one", lambda: None)
    two = tracer.timed("b.two", grand)
    outer = tracer.timed("a.outer", lambda: (one(), two()))

    outer()

    assert tracer.self_ns == {"a.outer": 75, "b.one": 20, "b.two": 3,
                              "c.grand": 2}
    assert sum(tracer.self_ns.values()) == 100
    assert tracer.calls == {"a.outer": 1, "b.one": 1, "b.two": 1,
                            "c.grand": 1}


def test_a_key_entered_from_itself_is_one_span():
    tracer = Tracer(clock=ScriptedClock([0, 7]))
    inner = tracer.timed("k", lambda: None)
    tracer.timed("k", inner)()
    assert tracer.self_ns == {"k": 7}
    assert tracer.calls == {"k": 1}


def test_a_raising_span_still_closes():
    tracer = Tracer(clock=ScriptedClock([0, 4, 9, 10]))
    inner = tracer.timed("inner", lambda: 1 / 0)

    def body():
        with pytest.raises(ZeroDivisionError):
            inner()

    tracer.timed("outer", body)()
    assert tracer.self_ns == {"outer": 5, "inner": 5}


def test_layer_metrics_charge_the_uncovered_rest_to_the_loop():
    tracer = Tracer(clock=ScriptedClock([0, 10, 30, 100]))
    child = tracer.timed("net.send", lambda: None)
    tracer.timed("server.event", child)()

    metrics = layer_metrics(tracer, wall_s=400e-9)

    assert metrics["net.send.self_s"] == pytest.approx(20e-9)
    assert metrics["server.event.self_s"] == pytest.approx(80e-9)
    assert metrics["simkit.loop.self_s"] == pytest.approx(300e-9)
    assert metrics["trace.attributed_share"] == pytest.approx(0.25)
    assert metrics["simkit.share"] == pytest.approx(0.75)
    assert metrics["server.share"] == pytest.approx(0.2)
    assert metrics["simkit.events"] == 1


def test_every_hook_names_code_that_exists():
    for key, module, name, methods in HOOKS:
        cls = getattr(importlib.import_module(module), name, None)
        assert cls is not None, f"{key}: {module}.{name} is gone"
        for method in methods or ():
            assert hasattr(cls, method), f"{key}: {name}.{method} is gone"


def test_every_patch_is_restored_after_a_traced_run():
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        for cls, attr, original in patched:
            assert cls.__dict__[attr] is not original
        for step in WORKLOADS["partition-batch"](0, True).slices(4):
            step()
    finally:
        tracer.uninstall()

    assert len(patched) > 60
    for cls, attr, original in patched:
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
    assert not tracer.patched
    events = {key for key in tracer.calls if key.endswith(".event")}
    assert {"device.event", "mobile.event", "net.event",
            "durability.event"} <= events
    assert "unmapped.event" not in events
    assert tracer.calls["cluster.deliver"] > 0
