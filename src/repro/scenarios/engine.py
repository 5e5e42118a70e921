"""The scenario engine: runs a named scenario over a streaming population.

One engine = one world + one :class:`Population` + one record sink.
Devices are materialized lazily when their arrival fires, kept in a
bounded LRU of :class:`ActiveDevice` flyweights, and hibernated back
into the columnar store when the resident set exceeds ``active_cap`` —
resident state is O(cap), not O(population).

Residency never changes the event program: one arrival pump admits
devices in index order, and every device event draws only from that
device's own counter RNG, so the sequence of scheduler calls (and with
it every ``seq`` and the firing order, even on exact-time ties) does
not depend on the cap.  Hibernation round-trips device state exactly
(doubles and 64-bit ints through typed arrays), so a run that
hibernates on nearly every event and a run that never hibernates
produce the same docstore fingerprint, the same delivery order and the
same terminal accounting — ``tests/test_population.py`` pins this.

The engine's accounting invariant, checked by :meth:`verify`::

    emitted == delivered + buffered_residual + dropped
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from hashlib import blake2b

from repro.scenarios.library import ScenarioSpec
from repro.scenarios.population import (
    ActiveDevice,
    DeviceRng,
    HibernationStore,
    Population,
    hash64,
    hash_unit,
)
from repro.simkit.errors import SimulationError
from repro.simkit.world import World

#: How far a device may drift from its initial position, degrees.
MAX_ROAM_DEG = 0.05
#: Per-event random-walk step, degrees.
STEP_DEG = 0.004
#: Extra virtual time after the horizon for in-flight deliveries.
DRAIN_S = 60.0


def _positive(name: str, value: float) -> float:
    """``value`` as a float, or :class:`SimulationError` unless it is
    finite and > 0 (a zero rate or an infinite horizon never ends)."""
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise SimulationError(f"{name} must be finite and > 0, got {value}")
    return value


class StatsSink:
    """Counting sink: rolling blake2b over delivered record ids.

    The 100k-scale sink — O(1) memory, yet the digest still pins the
    exact delivery order for cross-run comparisons.
    """

    kind = "stats"

    def __init__(self):
        self.delivered = 0
        self._digest = blake2b(digest_size=16)

    def deliver(self, record_id: str, user_id: str, timestamp: float,
                modality: str, value: dict) -> None:
        self.delivered += 1
        self._digest.update(record_id.encode("utf-8"))

    def fingerprint(self) -> str:
        return self._digest.copy().hexdigest()

    def report(self) -> dict:
        return {"sink": self.kind, "sink_delivered": self.delivered,
                "delivery_fingerprint": self.fingerprint()}


class ServerSink:
    """Full-fidelity sink: records ride the simulated network into a
    real :class:`ServerSenSocialManager` (ingest, dedup, docstore).

    Used by the identity tests: the docstore fingerprint and the
    server-side delivery order are the strongest available witnesses
    that two runs were bit-identical.
    """

    kind = "server"
    GATEWAY = "population-gateway"

    def __init__(self, world: World):
        from repro.core.server.manager import ServerSenSocialManager
        from repro.net.network import Network

        self.network = Network(world)
        self.server = ServerSenSocialManager(world, self.network)
        self.delivered = 0
        self.acks = 0
        self.delivery_order: list[str] = []
        self.network.register(self.GATEWAY, self._on_message)
        self.server.register_listener(
            lambda record: self.delivery_order.append(
                record.details.get("record_id", "")))

    def _on_message(self, message) -> None:
        if message.headers.get("protocol") == "stream-batch-ack":
            self.acks += len(message.payload["record_ids"])

    def deliver(self, record_id: str, user_id: str, timestamp: float,
                modality: str, value: dict) -> None:
        self.delivered += 1
        self.network.send(
            self.GATEWAY, self.server.address,
            {"stream_id": f"scn-{user_id}", "user_id": user_id,
             "device_id": f"dev-{user_id}", "modality": modality,
             "granularity": "classified", "timestamp": timestamp,
             "value": value, "details": {"record_id": record_id},
             "osn_action": None, "record_id": record_id},
            headers={"protocol": "stream-data"})

    def fingerprint(self) -> str:
        digest = blake2b(digest_size=16)
        for record_id in self.delivery_order:
            digest.update(record_id.encode("utf-8"))
        return digest.hexdigest()

    def docstore_fingerprint(self) -> str:
        from repro.durability.codec import fingerprint_store
        return fingerprint_store(self.server.database.store)

    def report(self) -> dict:
        return {"sink": self.kind, "sink_delivered": self.delivered,
                "acks": self.acks,
                "server_received": self.server.records_received,
                "delivery_fingerprint": self.fingerprint(),
                "docstore_fingerprint": self.docstore_fingerprint()}


class ScenarioEngine:
    """Execute one :class:`ScenarioSpec` over a device population."""

    def __init__(self, spec: ScenarioSpec, devices: int, *, seed: int = 0,
                 sink: str = "stats", sim_seconds: float | None = None,
                 events_per_device: float | None = None,
                 active_cap: int = 4096, chaos: bool = False):
        if active_cap < 1:
            raise SimulationError(
                f"active cap must be >= 1, got {active_cap}")
        if chaos and spec.chaos is None:
            raise SimulationError(
                f"scenario {spec.name!r} has no chaos episode")
        self.spec = spec
        self.seed = seed
        self.chaos = chaos
        self.horizon = _positive(
            "horizon", spec.horizon_s if sim_seconds is None else sim_seconds)
        self.events_per_device = _positive(
            "events per device", spec.events_per_device
            if events_per_device is None else events_per_device)
        self.active_cap = active_cap
        self.world = World(seed=seed)
        self.population = Population(devices, seed)
        self.store = HibernationStore()
        self._active: "OrderedDict[int, ActiveDevice]" = OrderedDict()
        self._admitted = 0
        self.peak_active = 0
        self.delivered = 0
        self.flushes = 0
        self.cascade_actions = 0
        self.cascade_skipped = 0
        self._infected: bytearray | None = None
        self._cascade_rng = DeviceRng(hash64(seed, 0xCA5C))
        if sink == "stats":
            self.sink: StatsSink | ServerSink = StatsSink()
        elif sink == "server":
            self.sink = ServerSink(self.world)
        else:
            raise SimulationError(
                f"unknown sink {sink!r}; expected 'stats' or 'server'")
        self._mean_gap = self.horizon / self.events_per_device
        self._started = False

    # -- residency -----------------------------------------------------

    def _touch(self, index: int) -> ActiveDevice:
        """The resident device for ``index`` — rehydrating on a miss."""
        device = self._active.get(index)
        if device is not None:
            self._active.move_to_end(index)
            return device
        device = self.store.rehydrate(index)
        self._active[index] = device
        return device

    def _settle(self, current: int) -> None:
        """Enforce the residency cap after an event."""
        while len(self._active) > self.active_cap:
            index, device = self._active.popitem(last=False)
            if index == current:
                # Never evict the device that just fired; re-admit it
                # as most-recent and keep sweeping.
                self._active[index] = device
                self._active.move_to_end(index)
                if len(self._active) <= 1:
                    break
                continue
            self.store.hibernate(device)
        if len(self._active) > self.peak_active:
            self.peak_active = len(self._active)

    # -- the arrival pump ----------------------------------------------

    def start(self) -> "ScenarioEngine":
        if self._started:
            return self
        self._started = True
        self.world.scheduler.schedule_at(
            self.spec.arrival_time(0, self.population.size, self.horizon),
            self._pump, 0)
        if self.spec.cascade is not None:
            self.world.scheduler.schedule_at(
                self.horizon * self.spec.cascade.at_frac, self._cascade_seed)
        return self

    def _pump(self, index: int) -> None:
        """Admit device ``index`` and fire its first event — then chain
        to the next arrival.  One pump event per device, in index
        order."""
        self.store.append_initial(*self.population.initial_state(index))
        self._admitted += 1
        self._device_event(index)
        nxt = index + 1
        if nxt < self.population.size:
            self.world.scheduler.schedule_at(
                self.spec.arrival_time(nxt, self.population.size,
                                       self.horizon),
                self._pump, nxt)

    # -- per-device dynamics -------------------------------------------

    def _in_burst(self, index: int, now: float) -> bool:
        burst = self.spec.burst
        if burst is None:
            return False
        phase = now / self.horizon
        if not (burst.start_frac <= phase < burst.end_frac):
            return False
        return hash_unit(self.seed, 0xF1A5, index) \
            < burst.participant_fraction

    def _chaos_partitioned(self, index: int, now: float) -> bool:
        episode = self.spec.chaos
        if not self.chaos or episode is None:
            return False
        phase = now / self.horizon
        if not (episode.start_frac <= phase < episode.end_frac):
            return False
        return hash_unit(self.seed, 0xC4A0, index) < episode.fraction

    def _connectivity_step(self, device: ActiveDevice, now: float) -> bool:
        """Advance the device's link state; returns True on reconnect
        (the caller then flushes the carry buffer)."""
        spec = self.spec.connectivity
        came_online = False
        if spec is not None:
            # One draw per event regardless of state keeps the per-device
            # RNG sequence a function of event count alone.
            draw = device.rng.random()
            if device.online:
                if draw < spec.offline_probability:
                    device.online = False
            elif draw < spec.reconnect_probability:
                device.online = True
                came_online = True
        if self._chaos_partitioned(device.index, now):
            if came_online:
                came_online = False
            device.online = False
        elif self.chaos and not device.online and spec is not None \
                and self.spec.chaos is not None \
                and now / self.horizon >= self.spec.chaos.end_frac:
            # The partition window is over: partitioned devices rejoin
            # at their first event past the window.
            device.online = True
            came_online = True
        return came_online

    def _emit(self, device: ActiveDevice, now: float, modality: str,
              value: dict) -> None:
        record_id = f"r{device.index}-{device.emitted}"
        device.emitted += 1
        if device.online:
            self.delivered += 1
            self.sink.deliver(record_id, self.population.user_id(device.index),
                              now, modality, value)
        else:
            device.buffered += 1
            cap = self.spec.connectivity.buffer_cap \
                if self.spec.connectivity is not None else 0
            if cap and device.buffered > cap:
                # Store-carry-forward with a bounded buffer: the oldest
                # record falls off; ids stay contiguous because the
                # buffer is always [emitted - buffered, emitted).
                device.buffered = cap
                device.dropped += 1

    def _flush(self, device: ActiveDevice, now: float) -> None:
        """Deliver the carried buffer in emission order."""
        if device.buffered == 0:
            return
        user_id = self.population.user_id(device.index)
        for seq in range(device.emitted - device.buffered, device.emitted):
            self.delivered += 1
            self.sink.deliver(f"r{device.index}-{seq}", user_id, now,
                              "location", {"carried": True})
        device.buffered = 0
        self.flushes += 1

    def _device_event(self, index: int) -> None:
        now = self.world.now
        device = self._touch(index)
        # Mobility: a bounded random walk around the home position.
        bearing = device.rng.uniform(0.0, 2.0 * math.pi)
        step = device.rng.random() * STEP_DEG
        lon = device.lon + step * math.cos(bearing)
        lat = device.lat + step * math.sin(bearing)
        home = self.population.home_city(index)
        if abs(lon - home.lon) < MAX_ROAM_DEG:
            device.lon = lon
        if abs(lat - home.lat) < MAX_ROAM_DEG:
            device.lat = lat
        device.record_position()
        came_online = self._connectivity_step(device, now)
        if came_online:
            self._flush(device, now)
        self._emit(device, now, "location",
                   {"lon": device.lon, "lat": device.lat})
        # Next occurrence: exponential gap shaped by the rate profile
        # and any burst the device participates in.
        rate = self.spec.rate(now / self.horizon)
        if self._in_burst(index, now):
            rate *= self.spec.burst.rate_multiplier
        gap = device.rng.expovariate(self._mean_gap / rate)
        nxt = now + gap
        if nxt <= self.horizon:
            self.world.scheduler.schedule_at(nxt, self._device_event, index)
        self._settle(index)

    # -- the reshare cascade -------------------------------------------

    def _cascade_seed(self) -> None:
        cascade = self.spec.cascade
        size = self.population.size
        self._infected = bytearray(size)
        now = self.world.now
        planted = 0
        attempt = 0
        while planted < self.spec.seeds(size) and attempt < size:
            index = hash64(self.seed, 0x5EED, attempt) % size
            attempt += 1
            if self._infected[index]:
                continue
            self._infected[index] = 1
            planted += 1
            delay = self._cascade_rng.uniform(0.0, cascade.min_delay_s)
            self.world.scheduler.schedule_at(
                now + delay, self._cascade_post, index, cascade.max_depth)

    def _cascade_post(self, index: int, depth: int) -> None:
        if index >= self._admitted:
            # The reshare reached a device that has not arrived yet —
            # count it rather than conjuring state out of order.
            self.cascade_skipped += 1
            return
        now = self.world.now
        device = self._touch(index)
        self.cascade_actions += 1
        self._emit(device, now, "facebook_activity",
                   {"action": "reshare", "depth": depth})
        cascade = self.spec.cascade
        if depth > 0:
            for friend in self.population.friends(index):
                if self._cascade_rng.random() < cascade.reshare_probability \
                        and not self._infected[friend]:
                    self._infected[friend] = 1
                    nxt = now + self._cascade_rng.uniform(
                        cascade.min_delay_s, cascade.max_delay_s)
                    if nxt <= self.horizon:
                        self.world.scheduler.schedule_at(
                            nxt, self._cascade_post, friend, depth - 1)
        self._settle(index)

    # -- run & report --------------------------------------------------

    def run(self) -> dict:
        """Run the scenario to its horizon and return the report."""
        self.start()
        wall_start = time.perf_counter()
        self.world.run_until(self.horizon + DRAIN_S)
        wall = time.perf_counter() - wall_start
        return self.report(wall_s=wall)

    def _sync_accounting(self) -> None:
        """Write every resident device's scalars back to the columns so
        the columnar totals cover the whole population."""
        for device in self._active.values():
            self.store.writeback(device)

    def report(self, wall_s: float | None = None) -> dict:
        self._sync_accounting()
        if len(self._active) > self.peak_active:
            self.peak_active = len(self._active)
        events = self.world.scheduler.events_processed
        report = {
            "scenario": self.spec.name,
            "devices": self.population.size,
            "horizon_s": self.horizon,
            "chaos": self.chaos,
            "events": events,
            "activated": self._admitted,
            "emitted": self.store.emitted_total(),
            "delivered": self.delivered,
            "buffered_residual": self.store.buffered_total(),
            "dropped": self.store.dropped_total(),
            "flushes": self.flushes,
            "cascade_actions": self.cascade_actions,
            "cascade_skipped": self.cascade_skipped,
            "peak_active": self.peak_active,
            "active_cap": self.active_cap,
            "hibernations": self.store.hibernations,
            "rehydrations": self.store.rehydrations,
            "store_bytes": self.store.nbytes(),
            "store_bytes_per_device": self.store.nbytes()
            / max(1, len(self.store)),
        }
        report.update(self.sink.report())
        if wall_s is not None:
            report["wall_s"] = wall_s
            report["events_per_wall_s"] = events / wall_s if wall_s else 0.0
        return report

    def verify(self) -> list[str]:
        """Accounting invariants; an empty list means all hold."""
        self._sync_accounting()
        problems = []
        emitted = self.store.emitted_total()
        buffered = self.store.buffered_total()
        dropped = self.store.dropped_total()
        if emitted != self.delivered + buffered + dropped:
            problems.append(
                f"record accounting broken: emitted {emitted} != "
                f"delivered {self.delivered} + buffered {buffered} + "
                f"dropped {dropped}")
        if self._admitted != self.population.size:
            problems.append(
                f"arrival pump incomplete: admitted {self._admitted} of "
                f"{self.population.size}")
        if self.delivered != self.sink.delivered:
            problems.append(
                f"sink saw {self.sink.delivered} deliveries, engine "
                f"counted {self.delivered}")
        if len(self._active) > self.active_cap:
            problems.append(
                f"residency cap violated: {len(self._active)} active > "
                f"cap {self.active_cap}")
        return problems


def run_scenario(name: str, devices: int, **kwargs) -> dict:
    """Build, run and verify a named scenario; returns its report.

    The report gains a ``verify_problems`` list — empty on a clean run.
    """
    from repro.scenarios.library import get_scenario

    engine = ScenarioEngine(get_scenario(name), devices, **kwargs)
    report = engine.run()
    report["verify_problems"] = engine.verify()
    return report
