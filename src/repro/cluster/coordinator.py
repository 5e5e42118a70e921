"""The cluster coordinator: placement, routing and merged views.

:class:`ClusterCoordinator` fronts N :class:`ShardWorker`\\ s, each a
full ``ServerSenSocialManager`` over one partition.  It owns the
consistent-hash ring that maps devices to workers, routes ingest to
the owning shard, merges the shards' databases behind one facade and
aggregates per-shard health into one cluster document.  The
application plane — plug-ins, listeners, multicasts, aggregators and
OSN action intake with its trigger fan-out — is the monolith's own
:class:`~repro.core.server.manager.ApplicationPlane`, which reaches
the shards through :meth:`shard_workers`, :meth:`shard_for_user` and
:meth:`shard_for_device`.  Server applications talk to the coordinator
exactly as they talked to the monolith.

One code path at every shard count: the coordinator registers the
public server address itself and forwards each data-plane message
synchronously to the shard the ring places its device on.  Every shard
sits behind its own address and subscribes with a ring partition spec;
shards share one :class:`ServerFilterManager` (cross-user conditions
see context from users on other shards, like the monolith) and one
stream-id sequence (``srv-sN`` ids stay globally unique and
creation-ordered).  A one-shard cluster is this same machine over a
one-member ring, and its runs match the monolithic server's (pinned by
``tests/test_cluster.py``).

Failure handling: :meth:`crash_shard` kills one worker;
:meth:`rebalance` removes dead workers from the ring, re-subscribes
survivors (the broker replays retained registrations of inherited
devices), replays the dead shard's write-ahead journal and migrates
its documents, dedup ids and live stream handles to the new owners —
the zero-acknowledged-loss protocol detailed in ``docs/SCALING.md``.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable

from repro.cluster.database import ClusterDatabase, merge_status, sum_counters
from repro.cluster.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.cluster.worker import REGISTRATION_KEY_LEVEL, ShardWorker
from repro.core.common.errors import MiddlewareError
from repro.core.common.filters import Filter
from repro.core.common.granularity import Granularity
from repro.core.common.stream_config import StreamMode
from repro.core.server.filter_manager import ServerFilterManager
from repro.core.server.manager import ApplicationPlane
from repro.core.server.multicast import MulticastQuery, select_users
from repro.core.server.server_stream import ServerStream
from repro.core.server.storage import ServerDatabase
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.obs import Healthcheck, Observability
from repro.obs.health import STATUS_DEGRADED, STATUS_DOWN
from repro.simkit.world import World


class ClusterCoordinator(ApplicationPlane, Endpoint):
    """N shard workers behind the monolithic server's API."""

    def __init__(self, world: World, network: Network, shards: int = 1, *,
                 broker_address: str = "mqtt-broker",
                 address: str = "sensocial-server",
                 processing_delay=None, vnodes: int = DEFAULT_VNODES,
                 durability_factory=None):
        if shards < 1:
            raise MiddlewareError(f"a cluster needs >= 1 shard, got {shards}")
        super().__init__()
        self.world = world
        self.network = network
        self.address = address
        self.obs = Observability.of(world)
        self._broker_address = broker_address
        self._processing_delay = processing_delay
        self._shard_address_base = address.rsplit('-', 1)[0]
        #: Builds a fresh durability controller for every shard, initial
        #: or joining (``None`` on non-durable clusters).
        self._durability_factory = durability_factory
        #: Shared cross-user filter context.
        self.filters = ServerFilterManager(world)
        #: Shared stream-id sequence.
        self._stream_seq = itertools.count(1)
        self._shards: dict[str, ShardWorker] = {}
        self._order: list[str] = []
        #: Learned placement maps, fed by per-shard registration hooks.
        self._user_device: dict[str, str] = {}
        self._user_shard: dict[str, str] = {}
        #: Record listeners tracked cluster-side so shards added later
        #: inherit every listener registered before they existed.
        self._record_listeners: list[Callable] = []
        self.rebalances = 0
        self.scale_outs = 0
        self.scale_ins = 0
        self.rolling_upgrades = 0
        #: One entry per lifecycle operation (rebalance / add / remove /
        #: upgrade): moved-device counts, migrated document counts and
        #: wall-clock step timings — the ``repro cluster`` CLI surface.
        self.lifecycle_log: list[dict] = []
        #: SLO control plane, when one is deployed over this cluster
        #: (set by :class:`repro.obs.control.SloControlPlane`).
        self.slo_control = None
        for index in range(shards):
            self._spawn_worker(f"shard-{index}")
        #: Monotonic shard-id allocator — retired ids are never reused,
        #: so journal state and broker sessions can't be inherited by
        #: an unrelated later shard.
        self._shard_seq = itertools.count(shards)
        self.ring = ConsistentHashRing(self._order, vnodes=vnodes)
        # The coordinator is the cluster's public ingress; shards hide
        # behind their own addresses.
        network.register(address, self)
        self.database = ClusterDatabase(self)

    # -- wiring -------------------------------------------------------

    def _hook_registration(self, shard: ShardWorker) -> None:
        def hook(user_id: str, device_id: str) -> None:
            self._user_device[user_id] = device_id
            self._user_shard[user_id] = shard.shard_id
            for listener in list(self._registration_listeners):
                listener(user_id, device_id)
        shard.on_registration(hook)

    def _partition_for(self, shard_id: str) -> dict:
        spec = self.ring.to_spec()
        spec["owner"] = shard_id
        spec["key_level"] = REGISTRATION_KEY_LEVEL
        return spec

    # -- shard access -------------------------------------------------

    @property
    def _first_active(self) -> ShardWorker:
        """The first active shard: it stands in for the cluster where
        the facade exposes one per-shard object, and takes payloads
        that carry no routing key."""
        return self.shard_workers()[0]

    def shard_workers(self) -> list[ShardWorker]:
        """Active (non-retired) workers in shard order."""
        return [self._shards[shard_id] for shard_id in self._order
                if not self._shards[shard_id].retired]

    def all_shard_workers(self) -> list[ShardWorker]:
        """Every worker ever on the ring, retired ones included —
        the population cluster-wide counters aggregate over."""
        return [self._shards[shard_id] for shard_id in self._order]

    def shard_for_device(self, device_id: str) -> ShardWorker:
        return self._shards[self.ring.owner(device_id)]

    def shard_for_user(self, user_id: str) -> ShardWorker:
        """The worker holding ``user_id``'s documents.

        Registered users live with their device; users the cluster has
        never seen register (e.g. OSN-only participants) are homed by a
        deterministic user-hash so their action history still lands on
        one stable shard.
        """
        shard_id = self._user_shard.get(user_id)
        if shard_id is not None and not self._shards[shard_id].retired:
            return self._shards[shard_id]
        device_id = self._user_device.get(user_id)
        if device_id is not None:
            return self.shard_for_device(device_id)
        return self._shards[self.ring.owner(f"user:{user_id}")]

    # -- facade attributes --------------------------------------------

    @property
    def durability(self):
        """The first active shard's durability controller (the
        storage-fault target)."""
        return self._first_active.durability

    @property
    def mqtt(self):
        return self._first_active.mqtt

    @property
    def dedup(self):
        return self._first_active.dedup

    @property
    def streams(self) -> dict[str, ServerStream]:
        merged: dict[str, ServerStream] = {}
        for shard in self.shard_workers():
            merged.update(shard.streams)
        return merged

    @property
    def crashed(self) -> bool:
        active = self.shard_workers()
        return bool(active) and all(shard.crashed for shard in active)

    def fault_addresses(self) -> list[str]:
        """Every network address a ``server``-targeted fault hits."""
        addresses = [self.address]
        for shard in self.shard_workers():
            addresses.extend([shard.address, shard.mqtt.address])
        return addresses

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        for shard_id in self._order:
            self._shards[shard_id].start(
                partition=self._partition_for(shard_id))

    def crash(self) -> None:
        """Whole-tier outage: every active shard dies, and the public
        ingress partitions like the monolith's address does."""
        self.network.set_down(self.address)
        for shard in self.shard_workers():
            shard.crash()

    def restart(self) -> None:
        self.network.set_down(self.address, False)
        for shard in self.shard_workers():
            if shard.crashed:
                shard.restart()

    def crash_shard(self, index: int) -> ShardWorker:
        """Kill one shard worker (``shard_crash`` chaos fault)."""
        shard = self._shard_at(index)
        shard.crash()
        return shard

    def restart_shard(self, index: int) -> ShardWorker:
        shard = self._shard_at(index)
        if shard.retired:
            raise MiddlewareError(
                f"shard {shard.shard_id!r} was rebalanced away; "
                f"a retired shard never rejoins the ring")
        shard.restart()
        return shard

    def _shard_at(self, index: int) -> ShardWorker:
        if not 0 <= index < len(self._order):
            raise MiddlewareError(
                f"no shard {index} in a {len(self._order)}-shard cluster")
        return self._shards[self._order[index]]

    # -- rebalance ----------------------------------------------------

    def rebalance(self) -> dict:
        """Fail crashed shards out of the ring and migrate their state.

        Protocol (each step deterministic, all on the world scheduler's
        current instant):

        1. remove every crashed shard from the ring and retire it;
        2. re-subscribe the survivors with the new ring — the broker
           replays retained registrations, so every inherited device
           re-registers on its new owner without the phone sending a
           byte;
        3. for each dead shard, replay its write-ahead journal
           (snapshot + tail) and copy users, records and OSN actions to
           the shards the new ring places them on;
        4. replicate the dead shard's dedup ids to all survivors, so a
           retransmission of a record the dead shard acknowledged is
           absorbed as a duplicate, never double-ingested;
        5. re-home the dead shard's live :class:`ServerStream` handles
           (listeners intact) onto the inheriting shards.

        A dead shard without a journal loses its documents (the same
        amnesia a non-durable monolith restart has) but devices still
        migrate via the retained-registration replay.  Acknowledged
        records are never lost when durability is on: acked ⇒
        journaled ⇒ replayed here.
        """
        dead = [shard for shard in self.shard_workers() if shard.crashed]
        if not dead:
            return {"retired": [], "migrated": {}}
        if len(dead) == len(self.shard_workers()):
            raise MiddlewareError("cannot rebalance: no live shard left")
        timings: dict[str, float] = {}
        moved, migrated = self._hand_off(dead, _recovered_state, timings)
        self.rebalances += 1
        if self.obs is not None:
            self.obs.telemetry.counter("cluster_rebalances").inc()
        entry = {"op": "rebalance", "at": self.world.now,
                 "retired": [shard.shard_id for shard in dead],
                 "migrated": migrated,
                 "moved_devices": len(moved),
                 "step_timings_s": timings}
        self.lifecycle_log.append(entry)
        return {"retired": entry["retired"], "migrated": migrated}

    def _hand_off(self, leaving: list[ShardWorker],
                  state_of: Callable[[ShardWorker], tuple],
                  timings: dict) -> tuple[list[str], dict]:
        """Retire ``leaving`` and move everything it held to the ring's
        new owners — the one hand-off behind crash rebalance and
        scale-in.

        ``state_of(shard)`` says where a leaving shard's documents and
        dedup ids come from: ``(database, dedup_ids)``, with ``None``
        for a shard whose documents died with it.  Returns the devices
        whose owner changed and the migrated counts.
        """
        step = time.perf_counter()
        leaving_ids = {shard.shard_id for shard in leaving}
        moved = [device for device in sorted(set(self._user_device.values()))
                 if self.ring.owner(device) in leaving_ids]
        for shard in leaving:
            self.ring.remove(shard.shard_id)
            shard.retire()
        timings["retire"] = time.perf_counter() - step
        step = time.perf_counter()
        survivors = self.shard_workers()
        for survivor in survivors:
            survivor.update_partition(self._partition_for(survivor.shard_id))
        timings["resubscribe"] = time.perf_counter() - step
        step = time.perf_counter()
        migrated = {"users": 0, "records": 0, "actions": 0,
                    "dedup_ids": 0, "streams": 0}
        for shard in leaving:
            database, dedup_ids = state_of(shard)
            if database is not None:
                self._migrate_documents(database, migrated)
            # Over-approximate: any survivor may receive the
            # retransmission (the ring moved), so all of them must
            # recognise it as already acknowledged.  The merge is
            # bounded — replicated ids enter as the oldest entries of
            # each survivor's window and evict by the same window
            # policy as local inserts.
            for survivor in survivors:
                survivor.dedup.merge_replicated(dedup_ids)
            migrated["dedup_ids"] += len(dedup_ids)
            self._migrate_streams(shard, migrated)
        timings["migrate"] = time.perf_counter() - step
        return moved, migrated

    def _migrate_documents(self, database: ServerDatabase,
                           migrated: dict) -> None:
        """Copy a departing shard's documents to their new ring owners."""
        for doc in list(database.users.find()):
            owner = self.shard_for_device(doc["device_id"])
            owner.database.register_device(
                doc["user_id"], doc["device_id"],
                doc.get("modalities", []))
            if doc.get("friends"):
                owner.database.set_friends(doc["user_id"],
                                           doc["friends"])
            if doc.get("location") is not None:
                owner.database.users.update_one(
                    {"user_id": doc["user_id"]},
                    {"$set": {"location": doc["location"]}})
            self._user_device[doc["user_id"]] = doc["device_id"]
            self._user_shard[doc["user_id"]] = owner.shard_id
            migrated["users"] += 1
        for doc in list(database.records.find()):
            owner = self.shard_for_device(doc["device_id"])
            owner.database.records.insert_one(_without_id(doc))
            migrated["records"] += 1
        for doc in list(database.actions.find()):
            owner = self.shard_for_user(doc["user_id"])
            owner.database.actions.insert_one(_without_id(doc))
            migrated["actions"] += 1

    def _migrate_streams(self, source: ShardWorker, migrated: dict,
                         devices: set[str] | None = None) -> None:
        """Re-home ``source``'s live stream handles onto ring owners.

        With ``devices`` given, only streams on those devices move
        (scale-out moves a slice); otherwise every stream moves
        (crash rebalance and drain move everything).
        """
        for stream_id in list(source.streams):
            stream = source.streams[stream_id]
            if devices is not None and stream.device_id not in devices:
                continue
            released = source.release_stream(stream_id)
            if released is None or released.destroyed:
                continue
            self.shard_for_device(released.device_id).adopt_stream(released)
            migrated["streams"] += 1

    # -- elastic lifecycle --------------------------------------------

    def _spawn_worker(self, shard_id: str) -> ShardWorker:
        """Construct the worker for ``shard_id``, with its own journal
        when the cluster is durable, and wire it into the coordinator's
        listener planes."""
        worker = ShardWorker(
            self.world, self.network, shard_id,
            broker_address=self._broker_address,
            address=f"{self._shard_address_base}-{shard_id}",
            durability=(self._durability_factory()
                        if self._durability_factory is not None else None),
            filters=self.filters, stream_seq=self._stream_seq,
            processing_delay=self._processing_delay)
        self._shards[shard_id] = worker
        self._order.append(shard_id)
        self._hook_registration(worker)
        for listener in self._record_listeners:
            worker.register_listener(listener)
        return worker

    def add_shard(self) -> dict:
        """Scale out: grow the ring by one freshly bootstrapped shard.

        Protocol (all on the scheduler's current instant — no window in
        which a record can route to a shard that doesn't own it):

        1. a new worker spawns on a never-used shard id, with its own
           journal when the cluster is durable;
        2. the ring grows; the devices whose ownership moved are
           exactly the consistent-hash delta (≈1/N of the fleet);
        3. the moved slice migrates: documents copy over (and are
           *deleted* from the old owners — both stay active, so a stale
           copy would double-count in merged reads), dedup ids
           replicate bounded, live stream handles re-home;
        4. the new shard subscribes with the grown ring and the
           broker replays its slice's retained registrations; the old
           owners re-subscribe with narrowed slices.

        A durable new shard loads the migrated documents through
        :meth:`~repro.durability.ServerDurability.import_state`: a
        bulk import under a suspended journal that pays one checkpoint
        instead of one journal append per document.
        """
        timings: dict[str, float] = {}
        step = time.perf_counter()
        shard_id = f"shard-{next(self._shard_seq)}"
        worker = self._spawn_worker(shard_id)
        timings["spawn"] = time.perf_counter() - step
        step = time.perf_counter()
        devices = sorted(set(self._user_device.values()))
        old_owner = {device: self.ring.owner(device) for device in devices}
        self.ring.add(shard_id)
        moved = [device for device in devices
                 if self.ring.owner(device) == shard_id
                 and old_owner[device] != shard_id]
        timings["ring"] = time.perf_counter() - step
        step = time.perf_counter()
        migrated = {"users": 0, "records": 0, "actions": 0,
                    "dedup_ids": 0, "streams": 0}
        bootstrap = self._bootstrap_new_shard(worker, moved, migrated)
        timings["migrate"] = time.perf_counter() - step
        step = time.perf_counter()
        worker.start(partition=self._partition_for(shard_id))
        for shard in self.shard_workers():
            if shard is not worker:
                shard.update_partition(self._partition_for(shard.shard_id))
        timings["resubscribe"] = time.perf_counter() - step
        self.scale_outs += 1
        if self.obs is not None:
            self.obs.telemetry.counter("cluster_scale_outs").inc()
        entry = {"op": "add_shard", "at": self.world.now,
                 "shard": shard_id, "moved_devices": len(moved),
                 "migrated": migrated, "bootstrap": bootstrap,
                 "step_timings_s": timings}
        self.lifecycle_log.append(entry)
        return entry

    def _bootstrap_new_shard(self, worker: ShardWorker, moved: list[str],
                             migrated: dict) -> dict:
        """Move the ownership delta onto a joining shard and load it.

        Dedup ids replicate *before* the document import so the
        import's checkpoint persists the seeded window alongside the
        store — a crash right after the import recovers both.
        """
        moved_set = set(moved)
        moved_list = sorted(moved_set)
        zeros = {"journal_appends": 0, "checkpoints": 0}
        work_before = worker.durability.bootstrap_work() \
            if worker.durability is not None else zeros
        sources = [shard for shard in self.shard_workers()
                   if shard is not worker]
        for source in sources:
            migrated["dedup_ids"] += worker.dedup.merge_replicated(
                source.dedup.snapshot())
        documents: dict[str, list[dict]] = {"users": [], "records": [],
                                            "actions": []}
        moving_users: set[str] = set()
        if moved_list:
            device_query = {"device_id": {"$in": moved_list}}
            for source in sources:
                for doc in list(source.database.users.find(device_query)):
                    documents["users"].append(doc)
                    moving_users.add(doc["user_id"])
                    self._user_device[doc["user_id"]] = doc["device_id"]
                    self._user_shard[doc["user_id"]] = worker.shard_id
                documents["records"].extend(
                    source.database.records.find(device_query))
                source.database.users.delete_many(device_query)
                source.database.records.delete_many(device_query)
            if moving_users:
                user_query = {"user_id": {"$in": sorted(moving_users)}}
                for source in sources:
                    documents["actions"].extend(
                        source.database.actions.find(user_query))
                    source.database.actions.delete_many(user_query)
        if worker.durability is not None:
            worker.durability.import_state(documents)
        else:
            for name, docs in documents.items():
                worker.database.store[name].insert_many(map(_without_id, docs))
        for name, docs in documents.items():
            migrated[name] += len(docs)
        for source in sources:
            self._migrate_streams(source, migrated, devices=moved_set)
        work_after = worker.durability.bootstrap_work() \
            if worker.durability is not None else zeros
        return {"documents": sum(len(docs) for docs in documents.values()),
                "journal_appends": (work_after["journal_appends"]
                                    - work_before["journal_appends"]),
                "checkpoints": (work_after["checkpoints"]
                                - work_before["checkpoints"])}

    def remove_shard(self, index: int) -> dict:
        """Scale in: drain a *healthy* shard and retire it from the ring.

        Unlike :meth:`rebalance` (which salvages a crashed shard's
        state from its journal), scale-in hands off from the live
        process: the durable intake queue is flushed first, so every
        admitted record is applied and journaled before the handoff
        reads the store — nothing acked dies with the shard.  The
        retired shard keeps its documents (the merged views read only
        active shards, exactly like the crash path) and cleanly drops
        its broker session.
        """
        shard = self._shard_at(index)
        if shard.retired:
            raise MiddlewareError(
                f"shard {shard.shard_id!r} is already retired")
        if shard.crashed:
            raise MiddlewareError(
                f"shard {shard.shard_id!r} crashed; use rebalance() — "
                f"scale-in drains a healthy shard")
        if len(self.shard_workers()) == 1:
            raise MiddlewareError("cannot remove the last active shard")
        timings: dict[str, float] = {}
        step = time.perf_counter()
        drained = shard.drain()
        timings["drain"] = time.perf_counter() - step
        moved, migrated = self._hand_off([shard], _live_state, timings)
        self.scale_ins += 1
        if self.obs is not None:
            self.obs.telemetry.counter("cluster_scale_ins").inc()
        entry = {"op": "remove_shard", "at": self.world.now,
                 "shard": shard.shard_id, "drained": drained,
                 "moved_devices": len(moved), "migrated": migrated,
                 "step_timings_s": timings}
        self.lifecycle_log.append(entry)
        return entry

    def upgrade_shard(self, index: int) -> dict:
        """Drain → restart → rejoin one shard (one rolling-upgrade step).

        The restart is atomic at the current instant: the shard's
        endpoints are never down across a scheduler tick, so nothing
        in flight drops.  A durable shard replays its journal and
        resumes exactly-once; a non-durable one restarts amnesiac but
        re-learns its devices from the retained-registration replay the
        rejoin subscription triggers.
        """
        shard = self._shard_at(index)
        if shard.retired:
            raise MiddlewareError(
                f"shard {shard.shard_id!r} was rebalanced away; "
                f"a retired shard cannot be upgraded")
        timings: dict[str, float] = {}
        step = time.perf_counter()
        drained = shard.drain()
        timings["drain"] = time.perf_counter() - step
        step = time.perf_counter()
        shard.crash()
        shard.restart()
        timings["restart"] = time.perf_counter() - step
        step = time.perf_counter()
        shard.resubscribe()
        timings["rejoin"] = time.perf_counter() - step
        if self.obs is not None:
            self.obs.telemetry.counter("cluster_shard_upgrades").inc()
        entry = {"op": "upgrade_shard", "at": self.world.now,
                 "shard": shard.shard_id, "drained": drained,
                 "recovered": shard.durability is not None,
                 "step_timings_s": timings}
        self.lifecycle_log.append(entry)
        return entry

    def rolling_restart(self) -> dict:
        """Upgrade every active shard in sequence, cluster serving
        throughout — at most one shard is mid-restart at any time."""
        steps = [self.upgrade_shard(index)
                 for index, shard in enumerate(self.all_shard_workers())
                 if not shard.retired]
        return self.finish_rolling_upgrade(steps)

    def finish_rolling_upgrade(self, steps: list[dict]) -> dict:
        """Account one completed rolling-upgrade sweep from its
        :meth:`upgrade_shard` entries, however far apart they ran: the
        ``cluster_rolling_upgrades`` counter and one ``rolling_restart``
        summary in the lifecycle log."""
        self.rolling_upgrades += 1
        if self.obs is not None:
            self.obs.telemetry.counter("cluster_rolling_upgrades").inc()
        summary = {"op": "rolling_restart", "at": self.world.now,
                   "shards": [step["shard"] for step in steps],
                   "drained": sum(step["drained"] for step in steps)}
        self.lifecycle_log.append(summary)
        return summary

    # -- consistency + elasticity -------------------------------------

    def verify_consistent(self) -> list[str]:
        """Cross-check ring, shard set and placement; [] when sound.

        The ``repro cluster`` CLI exits non-zero on any problem — the
        invariants every lifecycle operation must restore:

        - ring members == active (non-retired) shard ids;
        - every active shard's subscription carries the current ring
          (same members, same version);
        - every registered device's documents live on the shard the
          ring places it on.
        """
        problems: list[str] = []
        active = [shard_id for shard_id in self._order
                  if not self._shards[shard_id].retired]
        if sorted(self.ring.members()) != sorted(active):
            problems.append(
                f"ring members {sorted(self.ring.members())} != "
                f"active shards {sorted(active)}")
        for shard_id in active:
            spec = self._shards[shard_id].registration_partition
            if spec is None:
                problems.append(f"{shard_id}: no partition spec")
                continue
            if sorted(spec.get("members", [])) != sorted(
                    self.ring.members()):
                problems.append(
                    f"{shard_id}: subscription members "
                    f"{sorted(spec.get('members', []))} != ring")
            if spec.get("version") != self.ring.version:
                problems.append(
                    f"{shard_id}: subscription ring version "
                    f"{spec.get('version')} != {self.ring.version}")
        for shard_id in active:
            shard = self._shards[shard_id]
            if shard.crashed:
                continue
            for doc in shard.database.users.find():
                owner = self.ring.owner(doc["device_id"])
                if owner != shard_id:
                    problems.append(
                        f"device {doc['device_id']!r} lives on "
                        f"{shard_id} but the ring owns it to {owner}")
        return problems

    def elasticity_advice(self, threshold: float = 1.5) -> dict:
        """Hot-shard detection from the deterministic work counters.

        A shard is *hot* when its work exceeds ``threshold`` × the
        cluster mean; any hot shard with overall skew past the
        threshold recommends a scale-out.  Pure observation — calling
        this never changes cluster state (:meth:`maybe_autoscale`
        acts on it).
        """
        work = {shard.shard_id: shard.work_done()
                for shard in self.shard_workers()}
        mean = sum(work.values()) / len(work) if work else 0.0
        skew = (max(work.values()) / mean) if mean else 1.0
        hot = sorted(shard_id for shard_id, done in work.items()
                     if mean and done > threshold * mean)
        if self.obs is not None:
            self.obs.telemetry.gauge("cluster_work_skew").set(skew)
            self.obs.telemetry.gauge("cluster_hot_shards").set(len(hot))
        return {"work": work, "mean_work": mean, "skew": skew,
                "hot_shards": hot, "threshold": threshold,
                "recommend_add_shard": bool(hot) and skew >= threshold}

    def maybe_autoscale(self, threshold: float = 1.5,
                        max_shards: int = 8) -> dict:
        """Telemetry-driven elasticity: scale out when a shard runs hot
        (and the cluster is still below ``max_shards``)."""
        advice = self.elasticity_advice(threshold)
        advice["scaled"] = False
        if (advice["recommend_add_shard"]
                and len(self.shard_workers()) < max_shards):
            advice["added"] = self.add_shard()
            advice["scaled"] = True
        return advice

    # -- ingress data plane -------------------------------------------

    def deliver(self, message: Message) -> None:
        """Route one data-plane message to its owner shard.

        The forward is a synchronous method call — the coordinator and
        its shards are one process tier, so routing adds no network hop
        and no latency, preserving the monolith's timing exactly.
        """
        protocol = message.headers.get("protocol")
        if protocol == "stream-data" or protocol == "stream-batch":
            # A record and an envelope both carry their (single)
            # originating device at the payload top level.
            self._owner(message.payload, "device_id",
                        self.shard_for_device).deliver(message)
        elif protocol == "location-update":
            shard = self._owner(message.payload, "user_id",
                                self.shard_for_user)
            # The owning shard refreshed nothing: multicasts live here.
            if not shard.crashed and shard._on_location_update(
                    message.payload):
                self._refresh_geo_multicasts()

    def _owner(self, payload, key: str, place) -> ShardWorker:
        """The shard ``place`` puts ``payload[key]`` on.

        The payload comes from outside the program.  One that is not a
        dict, or whose routing key is not a string, goes to the first
        active shard, whose edge checks drop it as invalid (or ingest
        it, as the monolith would, when only the key's type is off).
        """
        key_value = payload.get(key) if isinstance(payload, dict) else None
        return place(key_value) if isinstance(key_value, str) \
            else self._first_active

    # -- listeners ----------------------------------------------------

    def register_listener(self, listener) -> None:
        # Records are dispatched by whichever shard ingests them, so
        # the listener must ride every shard; global callback order is
        # record arrival order, exactly as on the monolith.  Tracked
        # cluster-side too, so shards added later inherit it.
        self._record_listeners.append(listener)
        for shard in self.shard_workers():
            shard.register_listener(listener)

    # -- remote stream lifecycle --------------------------------------

    def create_stream(self, user_id: str, modality, granularity=Granularity.CLASSIFIED, *,
                      stream_filter: Filter | None = None,
                      settings: dict | None = None,
                      mode: StreamMode = StreamMode.CONTINUOUS) -> ServerStream:
        device_id = self.database.device_of(user_id)
        if device_id is None:
            raise MiddlewareError(f"user {user_id!r} has no registered device")
        return self.shard_for_device(device_id).create_stream(
            user_id, modality, granularity, stream_filter=stream_filter,
            settings=settings, mode=mode)

    def destroy_stream(self, stream_id: str) -> None:
        for shard in self.shard_workers():
            if stream_id in shard.streams:
                shard.destroy_stream(stream_id)
                return

    # -- multicast membership -----------------------------------------

    def select_users(self, query: MulticastQuery) -> list[str]:
        """Monolith membership semantics over the merged database."""
        return select_users(self.database, query)

    # -- observability ------------------------------------------------

    def action_latencies(self) -> list[float]:
        merged: list[float] = []
        for shard in self.all_shard_workers():
            merged.extend(shard.action_latencies())
        return merged

    def health(self) -> dict:
        """One cluster document aggregating every shard's health.

        Counters are summed over *all* shards, retired ones included —
        records a dead shard ingested before its crash stay counted, so
        delivery accounting (``ChaosReport.records_lost``) holds across
        a rebalance.
        """
        shard_docs = {shard.shard_id: shard.health()
                      for shard in self.all_shard_workers()}
        counters = sum_counters(shard_docs.values())
        # Uplinks address the public ingress, so drops there are the
        # cluster's, as they are the monolith's at the same address.
        counters["net_drops"] += self.network.drop_count(self.address)
        active = self.shard_workers()
        down = [shard for shard in active if shard.crashed]
        if active and len(down) == len(active):
            status = STATUS_DOWN
        elif down or len(active) < len(self._order):
            status = STATUS_DEGRADED
        else:
            status = merge_status(doc["status"]
                                  for doc in shard_docs.values())
        detail = (f"cluster {self.address}: "
                  f"{len(active) - len(down)}/{len(self._order)} shards up, "
                  f"{int(counters.get('records_received', 0))} records "
                  f"ingested")
        last_seen = [shard.last_record_at for shard in self.all_shard_workers()
                     if shard.last_record_at is not None]
        extras: dict = {
            "connected": any(shard.mqtt.connected for shard in active),
            "last_seen": max(last_seen) if last_seen else None,
            "database": self.database.health(),
            "ring": self.ring.to_spec(),
            "rebalances": self.rebalances,
            "shards": shard_docs,
        }
        durable = [shard for shard in self.all_shard_workers()
                   if shard.durability is not None]
        if durable:
            extras["durability"] = self._durability_health(durable)
        return Healthcheck.build(status=status, detail=detail,
                                 counters=counters, **extras)

    def _durability_health(self, durable: list[ShardWorker]) -> dict:
        docs = {shard.shard_id: shard.durability.health()
                for shard in durable}
        return Healthcheck.build(
            status=merge_status(doc["status"] for doc in docs.values()),
            detail=f"cluster durability over {len(docs)} shards",
            counters=sum_counters(docs.values()), shards=docs)

    def verify_replay(self) -> dict:
        """Per-shard replay divergence oracle.

        Runs :meth:`ServerDurability.verify_replay` on every active,
        non-crashed durable shard: each shard's live store is
        fingerprint-compared against an offline re-derivation from its
        own snapshot + journal.  ``match`` is True only when *every*
        shard matches — ``repro replay --verify`` exits nonzero
        otherwise.
        """
        shards: dict[str, dict] = {}
        for shard in self.shard_workers():
            if shard.durability is None or shard.crashed:
                continue
            shards[shard.shard_id] = shard.durability.verify_replay()
        return {
            "match": all(doc["match"] for doc in shards.values()),
            "shards_verified": len(shards),
            "shards": shards,
        }

    def slo_rollup(self) -> dict:
        """Per-shard health rollup for the SLO work-skew probe.

        A crashed (or otherwise unreporting) active shard lands in
        ``missing`` — the evaluator treats a missing shard as burning,
        never as healthy-by-absence.
        """
        statuses: dict[str, str] = {}
        missing: list[str] = []
        for shard in self.shard_workers():
            if shard.crashed:
                missing.append(shard.shard_id)
                continue
            try:
                statuses[shard.shard_id] = shard.health()["status"]
            except Exception:
                missing.append(shard.shard_id)
        advice = self.elasticity_advice()
        return {
            "statuses": statuses,
            "missing": sorted(missing),
            "skew": advice["skew"],
            "hot_shards": advice["hot_shards"],
            "recommend_add_shard": advice["recommend_add_shard"],
        }

    def cluster_report(self) -> dict:
        """Placement + per-shard work snapshot (the ``repro cluster``
        CLI surface and the scaling benchmark's raw material)."""
        return {
            "shards": len(self._order),
            "active": len(self.shard_workers()),
            "ring": self.ring.to_spec(),
            "rebalances": self.rebalances,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "rolling_upgrades": self.rolling_upgrades,
            "work": {shard.shard_id: shard.work_done()
                     for shard in self.all_shard_workers()},
            "records": {shard.shard_id: shard.records_received
                        for shard in self.all_shard_workers()},
            "devices": self.ring.assignments(
                sorted(set(self._user_device.values()))),
            "lifecycle": list(self.lifecycle_log),
            "elasticity": self.elasticity_advice(),
            "slo": (self.slo_control.summary()
                    if self.slo_control is not None else None),
        }


def _without_id(doc: dict) -> dict:
    """``doc`` without its store-assigned ``_id``, ready to insert
    into another shard's store."""
    return {key: value for key, value in doc.items() if key != "_id"}


def _recovered_state(shard: ShardWorker) -> tuple[ServerDatabase | None,
                                                  list[str]]:
    """A crashed shard's documents and dedup ids, rebuilt from its
    journal (snapshot + tail).  Without a journal they died with it."""
    if shard.durability is None:
        return None, []
    store, dedup_ids = shard.durability.recover()
    return ServerDatabase(store=store), dedup_ids


def _live_state(shard: ShardWorker) -> tuple[ServerDatabase, list[str]]:
    """A drained shard's documents and dedup ids, read from its live
    store and window."""
    return shard.database, shard.dedup.snapshot()
