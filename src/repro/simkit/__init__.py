"""Discrete-event simulation kernel.

Everything in the reproduction runs on top of this kernel: a virtual
clock, a deterministic event scheduler, named seeded random streams and
a :class:`World` container that wires components together.  The kernel
is deliberately small and dependency-free so that every higher layer
(network, MQTT broker, devices, middleware) shares one notion of time.

Pending events live in one binary heap, :class:`EventQueue`, which
fires them in ``(time, seq)`` order: by instant, and by scheduling
order within an instant.
"""

from repro.simkit.errors import SimulationError, SchedulingError
from repro.simkit.scheduler import (
    EventHandle,
    EventQueue,
    PeriodicTask,
    Scheduler,
)
from repro.simkit.randomness import RandomStreams
from repro.simkit.world import World

__all__ = [
    "EventHandle",
    "EventQueue",
    "PeriodicTask",
    "RandomStreams",
    "Scheduler",
    "SchedulingError",
    "SimulationError",
    "World",
]
