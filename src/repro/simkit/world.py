"""The :class:`World`: the root container of a simulation.

A world owns the scheduler, the random streams, and a registry of named
components.  Substrates (network, broker, OSN service, devices) attach
themselves to a world so the middleware can find them without global
state — mirroring how the real SenSocial wires its singletons, but kept
testable because each test builds its own world.
"""

from __future__ import annotations

import random
from typing import Any

from repro.simkit.errors import SimulationError
from repro.simkit.randomness import RandomStreams
from repro.simkit.scheduler import Scheduler


class World:
    """A self-contained simulation universe."""

    def __init__(self, seed: int = 0, start_time: float = 0.0):
        self.scheduler = Scheduler(start_time)
        self.randoms = RandomStreams(seed)
        self._components: dict[str, Any] = {}
        self._sequences: dict[str, int] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.scheduler.now

    def rng(self, name: str) -> random.Random:
        """Named deterministic RNG stream (see :class:`RandomStreams`)."""
        return self.randoms.stream(name)

    def sequence(self, name: str) -> int:
        """Next value (1, 2, 3, …) of a named per-world counter.

        Entity-naming counters (device ids, OSN action ids) live here
        rather than in module globals so that two simulations run
        back-to-back in one process assign identical names — a module
        global would keep counting across worlds.
        """
        value = self._sequences.get(name, 0) + 1
        self._sequences[name] = value
        return value

    def attach(self, name: str, component: Any) -> Any:
        """Register a component under a unique name and return it."""
        if name in self._components:
            raise SimulationError(f"component {name!r} already attached")
        self._components[name] = component
        return component

    def detach(self, name: str) -> Any:
        """Remove and return a registered component."""
        try:
            return self._components.pop(name)
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    def component(self, name: str) -> Any:
        """Look up a component registered with :meth:`attach`."""
        try:
            return self._components[name]
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    def component_or_none(self, name: str) -> Any | None:
        """Like :meth:`component`, but ``None`` when absent — the cheap
        lookup instrumentation uses to find the observability hub."""
        return self._components.get(name)

    def has_component(self, name: str) -> bool:
        return name in self._components

    def components(self) -> dict[str, Any]:
        """A snapshot of the component registry."""
        return dict(self._components)

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.scheduler.run_for(duration)

    def run_until(self, time: float) -> None:
        """Advance simulated time to the absolute instant ``time``."""
        self.scheduler.run_until(time)
