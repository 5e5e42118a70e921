"""The four named workloads.

Names are fixed: later changes cite them.  Each workload builds its
deployment through public constructors only and passes neither
``scheduler=`` nor ``substrate=``, so whatever default the code has is
what gets measured.  The load is an open loop on the virtual clock:
sensing, arrival and OSN-action schedules are fixed by the seed and
never slow down when the server does, so on the wall clock each
workload is a batch job of fixed size.  ``smoke`` shrinks the
population, never the shape.
"""

from __future__ import annotations

import functools

from repro import Granularity, ModalityType, SenSocialTestbed
from repro.core.common import Condition, Filter, ModalityValue, Operator
from repro.core.server import MulticastQuery
from repro.durability.codec import fingerprint, fingerprint_store
from repro.osn.generator import ActionWorkloadGenerator
from repro.scenarios import ScenarioEngine, get_scenario

CITIES = ("Paris", "Bordeaux", "London")

#: One classified accelerometer record per user every 10 virtual s.
CONTINUOUS = {"duty_cycle_s": 10.0}


class Listener:
    """The server application: one record listener that times each
    delivery on the virtual clock."""

    def __init__(self, world, keep_keys: bool):
        self._world = world
        self.delays: list[float] = []
        self.action_delays: list[float] = []
        #: ``(device, stream, timestamp)`` of every delivered record, so
        #: an outbox entry whose ack is still in flight is not counted
        #: as both ingested and queued.
        self.keys: set | None = set() if keep_keys else None

    def __call__(self, record) -> None:
        now = self._world.now
        self.delays.append(now - record.timestamp)
        if record.osn_action:
            self.action_delays.append(now - record.osn_action["created_at"])
        if self.keys is not None:
            self.keys.add((record.device_id, record.stream_id,
                           record.timestamp))


def _store_counters(stores) -> dict[str, int]:
    collections = [store[name] for store in stores
                   for name in store.collection_names()]
    return {
        "candidates": sum(c.candidates_examined for c in collections),
        "queries": sum(c.scans + c.index_lookups for c in collections),
    }


class DeployedTestbed:
    """A :class:`SenSocialTestbed` run for a fixed virtual horizon.

    Wrap the testbed before deploying users: records flow as soon as
    the first stream exists, and the listener must see every one.
    """

    def __init__(self, testbed: SenSocialTestbed, horizon_s: float):
        self.testbed = testbed
        self.world = testbed.world
        self.horizon_s = horizon_s
        self.listener = Listener(self.world, keep_keys=True)
        testbed.server.register_listener(self.listener)

    def slices(self, count: int) -> list:
        """``testbed.run(horizon_s)`` as ``count`` consecutive steps; the
        event order is the same however the horizon is cut."""
        start = self.world.now
        ends = [start + self.horizon_s * index / count
                for index in range(1, count)] + [start + self.horizon_s]
        return [functools.partial(self.world.run_until, end) for end in ends]

    def ingested(self) -> int:
        return sum(s.records_received for s in self._servers())

    def _servers(self) -> list:
        server = self.testbed.server
        return server.all_shard_workers() if self.testbed.shards \
            else [server]

    def counters(self) -> dict[str, int]:
        """Raw end-of-run counts (see :func:`bench.worker.run_once`)."""
        managers = [node.manager for node in self.testbed.nodes.values()]
        servers = self._servers()
        durable = [s.durability for s in servers if s.durability is not None]
        queued = unsent = 0
        for manager in managers:
            outbox = manager.outbox
            for record_id in outbox.pending_ids():
                entry = outbox.get(record_id)
                doc = entry.payload
                key = (doc["device_id"], doc["stream_id"], doc["timestamp"])
                queued += key not in self.listener.keys
                unsent += entry.sends == 0
        emitted = sum(m.outbox.enqueued for m in managers)
        sends = emitted - unsent + sum(m.outbox.retransmissions
                                       for m in managers)
        broker = self.testbed.broker
        return {
            "emitted": emitted,
            "ingested": self.ingested(),
            "queued": queued,
            "shed": sum(d.records_shed for d in durable),
            "quarantined": sum(d.records_quarantined for d in durable),
            "evicted": sum(m.outbox.dropped_oldest for m in managers),
            "duplicates": sum(s.records_duplicate for s in servers),
            "sends": sends,
            "uplink_messages": (sum(m.batches_sent for m in managers)
                                if self.testbed.batch_max else sends),
            "net_messages": self.testbed.network.messages_sent,
            "publishes": broker.publishes_received,
            "routing_checks": broker.routing_checks,
            "journal_bytes": sum(d.medium.log_bytes for d in durable),
            "actions": (self.testbed.facebook.actions_performed
                        + self.testbed.twitter.actions_performed),
            "rehydrations": 0,
            **_store_counters([s.database.store for s in servers]),
        }

    def problems(self) -> list[str]:
        """The durable workloads' replay oracle."""
        if self.testbed.shards:
            replay = self.testbed.server.verify_replay()
            if replay["shards_verified"] != len(self._servers()):
                return [f"verify_replay checked {replay['shards_verified']}"
                        f" of {len(self._servers())} shards"]
        elif self.testbed.durability is not None:
            replay = self.testbed.durability.verify_replay()
        else:
            return []
        return [] if replay["match"] else [
            "verify_replay: the live store differs from its journal replay"]

    def fingerprint(self) -> str:
        return fingerprint([fingerprint_store(s.database.store)
                            for s in self._servers()])


class DeployedScenario:
    """A population :class:`ScenarioEngine` on the server sink."""

    def __init__(self, engine: ScenarioEngine):
        self.engine = engine
        self.world = engine.world
        self.listener = Listener(self.world, keep_keys=False)
        engine.sink.server.register_listener(self.listener)
        self.report: dict | None = None

    def slices(self, count: int) -> list:
        """``engine.run()`` as ``count`` consecutive steps."""
        engine = self.engine
        engine.start()
        return [functools.partial(engine.world.run_until,
                                  engine.horizon * index / count)
                for index in range(1, count)] + [self._finish]

    def _finish(self) -> None:
        # ``run`` drains the tail and ends with the engine's own report,
        # docstore fingerprint included: that is part of what a caller
        # pays.
        self.report = self.engine.run()

    def ingested(self) -> int:
        return self.engine.sink.server.records_received

    def counters(self) -> dict[str, int]:
        report = self.report
        server = self.engine.sink.server
        return {
            "emitted": report["emitted"],
            "ingested": self.ingested(),
            "queued": report["buffered_residual"],
            "shed": 0,
            "quarantined": 0,
            "evicted": report["dropped"],
            "duplicates": server.records_duplicate,
            "sends": 0,
            "uplink_messages": 0,
            "net_messages": self.engine.sink.network.messages_sent,
            "publishes": 0,
            "routing_checks": 0,
            "journal_bytes": 0,
            "actions": 0,
            "rehydrations": report["rehydrations"],
            **_store_counters([server.database.store]),
        }

    def problems(self) -> list[str]:
        return [f"engine.verify: {problem}"
                for problem in self.engine.verify()]

    def fingerprint(self) -> str:
        return fingerprint([fingerprint_store(
            self.engine.sink.server.database.store)])


def _deploy_continuous(testbed: SenSocialTestbed, users: int) -> None:
    for index in range(users):
        node = testbed.add_user(f"user{index:03d}",
                                home_city=CITIES[index % len(CITIES)])
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True, settings=CONTINUOUS)


def sense_durable(seed: int, smoke: bool) -> DeployedTestbed:
    deployed = DeployedTestbed(SenSocialTestbed(seed, durability=True),
                               horizon_s=1500 + 60)
    _deploy_continuous(deployed.testbed, 16 if smoke else 160)
    return deployed


def osn_geo_social(seed: int, smoke: bool) -> DeployedTestbed:
    users = 30 if smoke else 300
    deployed = DeployedTestbed(SenSocialTestbed(seed), horizon_s=1800)
    testbed = deployed.testbed
    on_action = Filter([Condition(ModalityType.FACEBOOK_ACTIVITY,
                                  Operator.EQUALS, ModalityValue.ACTIVE)])
    user_ids = [f"user{index:03d}" for index in range(users)]
    for index, user_id in enumerate(user_ids):
        node = testbed.add_user(user_id, home_city=CITIES[index % len(CITIES)])
        for modality in (ModalityType.LOCATION, ModalityType.ACCELEROMETER,
                         ModalityType.MICROPHONE):
            node.manager.create_stream(modality, Granularity.CLASSIFIED,
                                       stream_filter=on_action,
                                       send_to_server=True)
    for index, user_id in enumerate(user_ids):
        testbed.befriend(user_id, user_ids[(index + 1) % users])
        testbed.befriend(user_id, user_ids[(index + 7) % users])
    testbed.server.create_multicast_stream(
        ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
        MulticastQuery(place="Paris"), stream_filter=on_action)
    ActionWorkloadGenerator(testbed.world, testbed.facebook,
                            actions_per_hour=20.0).stream_arrivals(user_ids)
    return deployed


def partition_batch(seed: int, smoke: bool) -> DeployedTestbed:
    deployed = DeployedTestbed(
        SenSocialTestbed(seed, durability=True, batching=64, shards=2),
        horizon_s=1800 + 300)
    testbed = deployed.testbed
    _deploy_continuous(testbed, 12 if smoke else 120)
    now = testbed.world.now
    for index, node in enumerate(testbed.nodes.values()):
        testbed.network.schedule_flaps(
            node.phone.address, now + 30 + (7 * index) % 240, cycles=6,
            down_for=120, up_for=180)
    return deployed


def city_day_server(seed: int, smoke: bool) -> DeployedScenario:
    return DeployedScenario(ScenarioEngine(
        get_scenario("city-day"), 2_000 if smoke else 20_000, seed=seed,
        sink="server"))


#: Workload name -> ``build(seed, smoke)``.  ``BENCHMARK.json`` says why
#: each one is in the benchmark.
WORKLOADS = {
    "sense-durable": sense_durable,
    "osn-geo-social": osn_geo_social,
    "partition-batch": partition_batch,
    "city-day-server": city_day_server,
}
