"""Every module under ``src/repro`` belongs to a named layer."""

from __future__ import annotations

from bench import SRC
from bench.trace import API_PACKAGES, LAYER_PREFIXES, LAYERS, layer_of


def source_modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_every_module_maps_to_a_named_layer():
    modules = source_modules()
    assert len(modules) > 150
    unmapped = [module for module in modules if layer_of(module) is None]
    assert unmapped == []


def test_each_benchmark_layer_owns_modules():
    owners = {layer_of(module) for module in source_modules()}
    assert set(LAYERS) <= owners
    assert owners <= set(LAYER_PREFIXES.values()) | set(API_PACKAGES.values())


def test_the_longest_prefix_wins():
    assert layer_of("repro.core.mobile.outbox") == "mobile"
    assert layer_of("repro.core.common.batch") == "common"
    assert layer_of("repro.core") == "api"
    assert layer_of("repro.sensing.manager") == "device"
    assert layer_of("repro.plugins.facebook") == "osn"
    assert layer_of("bench.workloads") is None
    assert layer_of("repro_extras") is None
