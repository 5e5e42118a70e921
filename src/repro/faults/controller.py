"""The chaos controller: applies a :class:`FaultPlan` to a deployment.

The controller resolves a plan's symbolic targets against a wired
:class:`repro.scenarios.SenSocialTestbed` (or any object exposing the
same ``world`` / ``network`` / ``broker`` / ``server`` / ``nodes``
attributes), schedules every fault on the world scheduler, and keeps a
log of what fired when.  Because scheduling and all fault randomness
ride the seeded world, a chaos run is exactly as reproducible as a
fault-free one — and applying an *empty* plan changes nothing at all.
"""

from __future__ import annotations

from typing import Any

from repro.faults.errors import FaultTargetError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.report import ChaosReport


class ChaosController:
    """Scripts faults against a testbed, reproducibly from the seed."""

    def __init__(self, testbed: Any):
        self.testbed = testbed
        self.world = testbed.world
        self.network = testbed.network
        self.broker = testbed.broker
        self.server = testbed.server
        self.injected: list[tuple[float, str]] = []
        self.plans_applied: list[FaultPlan] = []
        self._last_broker_restart_at: float | None = None
        self._recovery: dict[str, float] = {}

    # -- applying plans -----------------------------------------------

    def apply(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` on the world scheduler.

        Event times are absolute simulated instants; an event already
        in the past fires immediately.
        """
        self.plans_applied.append(plan)
        now = self.world.now
        for event in plan.events():
            self.world.scheduler.schedule_at(max(event.at, now),
                                             self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_do_{event.kind}", None)
        if handler is None:
            raise FaultTargetError(f"unknown fault kind {event.kind!r}")
        handler(event)
        self.injected.append((self.world.now, event.describe()))

    # -- fault handlers -----------------------------------------------

    def _do_link_down(self, event: FaultEvent) -> None:
        for address in self._addresses(event.target):
            self.network.set_down(address)

    def _do_link_up(self, event: FaultEvent) -> None:
        for address in self._addresses(event.target):
            self.network.set_down(address, False)

    _do_device_down = _do_link_down
    _do_device_up = _do_link_up

    def _do_loss(self, event: FaultEvent) -> None:
        for address in self._addresses(event.target):
            self.network.set_endpoint_loss(address, event.params["rate"])

    def _do_jitter(self, event: FaultEvent) -> None:
        for address in self._addresses(event.target):
            self.network.set_endpoint_jitter(address, event.params["model"])

    def _do_broker_crash(self, event: FaultEvent) -> None:
        self.broker.crash(preserve_persistent_sessions=event.params.get(
            "preserve_sessions", True))

    def _do_broker_restart(self, event: FaultEvent) -> None:
        self.broker.restart()
        restart_at = self.world.now
        self._last_broker_restart_at = restart_at
        self._recovery.clear()
        for _, node in sorted(self.testbed.nodes.items()):
            self._watch_recovery(node.manager.mqtt.client, restart_at)

    def _watch_recovery(self, client, restart_at: float) -> None:
        """Record the *first* reconnection after this restart — a later
        unrelated fault must not inflate the recovery delay."""
        def callback(connected: bool) -> None:
            if (connected
                    and self._last_broker_restart_at == restart_at
                    and client.client_id not in self._recovery):
                self._recovery[client.client_id] = self.world.now - restart_at
        client.on_connection_change(callback)

    def _do_server_crash(self, event: FaultEvent) -> None:
        self.server.crash()

    def _do_server_restart(self, event: FaultEvent) -> None:
        self.server.restart()

    def _do_shard_crash(self, event: FaultEvent) -> None:
        self._cluster().crash_shard(event.params["shard"])

    def _do_shard_restart(self, event: FaultEvent) -> None:
        self._cluster().restart_shard(event.params["shard"])

    def _do_shard_rebalance(self, event: FaultEvent) -> None:
        self._cluster().rebalance()

    def _do_shard_add(self, event: FaultEvent) -> None:
        self._cluster().add_shard()

    def _do_shard_drain(self, event: FaultEvent) -> None:
        self._cluster().remove_shard(event.params["shard"])

    def _do_rolling_upgrade(self, event: FaultEvent) -> None:
        cluster = self._cluster()
        stagger = event.params.get("stagger", 0.0)
        if stagger <= 0:
            cluster.rolling_restart()
            return
        # Space the per-shard upgrades out so live traffic lands on a
        # cluster that is mid-upgrade — the window the zero-loss chaos
        # tests exercise.  Shards retired between scheduling and firing
        # are skipped; the final step accounts the completed sweep.
        delay = 0.0
        steps: list[dict] = []
        active = [index for index, shard
                  in enumerate(cluster.all_shard_workers())
                  if not shard.retired]
        for position, index in enumerate(active):
            last = position == len(active) - 1
            self.world.scheduler.schedule(
                delay, self._upgrade_one, (cluster, index, last, steps))
            delay += stagger

    def _upgrade_one(self, step: tuple) -> None:
        cluster, index, last, steps = step
        shard = cluster.all_shard_workers()[index]
        if not shard.retired:
            steps.append(cluster.upgrade_shard(index))
            self.injected.append(
                (self.world.now, f"rolling_upgrade_step {shard.shard_id}"))
        if last:
            cluster.finish_rolling_upgrade(steps)

    def _cluster(self):
        if not hasattr(self.server, "crash_shard"):
            raise FaultTargetError(
                "shard faults need a sharded server cluster (testbed "
                "shards=N / repro cluster)")
        return self.server

    def _do_storage_write_error(self, event: FaultEvent) -> None:
        self._storage_medium().inject_write_failures(event.params["count"])

    def _do_storage_latency(self, event: FaultEvent) -> None:
        self._storage_medium().write_latency_s = event.params["seconds"]

    def _do_journal_torn_write(self, event: FaultEvent) -> None:
        """Power dies mid-append: half a frame lands on the platter and
        the server is down.  The torn frame is new, never-acked work,
        so recovery truncates it with zero acked loss — the sender's
        retry path redelivers it after the restart."""
        self._storage_medium().simulate_torn_append()
        self.server.crash()

    def _do_journal_corrupt_frame(self, event: FaultEvent) -> None:
        self._storage_medium().corrupt_frame()

    def _do_snapshot_corrupt(self, event: FaultEvent) -> None:
        self._storage_medium().corrupt_snapshot()

    def _storage_medium(self):
        durability = getattr(self.server, "durability", None)
        if durability is None:
            raise FaultTargetError(
                "storage faults need a durable server (testbed "
                "durability=True / repro chaos --durability)")
        return durability.medium

    def _do_plugin_stop(self, event: FaultEvent) -> None:
        self._plugin(event.target).stop()

    def _do_plugin_start(self, event: FaultEvent) -> None:
        self._plugin(event.target).start()

    # -- target resolution --------------------------------------------

    def _addresses(self, target: str | None) -> list[str]:
        """Resolve a symbolic target to concrete network addresses."""
        if target is None:
            raise FaultTargetError("fault event has no target")
        if target == "broker":
            return [self.broker.address]
        if target == "server":
            # A cluster exposes every shard's addresses (plus its own
            # ingress); the monolith pair is the degenerate case.
            fault_addresses = getattr(self.server, "fault_addresses", None)
            if fault_addresses is not None:
                return fault_addresses()
            return [self.server.address, self.server.mqtt.address]
        if target == "devices":
            addresses: list[str] = []
            for user_id in sorted(self.testbed.nodes):
                addresses.extend(self._device_addresses(user_id))
            return addresses
        if target.startswith("device:"):
            return self._device_addresses(target.split(":", 1)[1])
        return [target]  # a raw network address

    def _device_addresses(self, user_id: str) -> list[str]:
        node = self.testbed.nodes.get(user_id)
        if node is None:
            raise FaultTargetError(f"no deployed user {user_id!r}")
        return [node.phone.address, node.manager.mqtt.client.address]

    def _plugin(self, platform: str | None):
        for plugin in self.server.plugins():
            if plugin.platform == platform:
                return plugin
        raise FaultTargetError(f"no plug-in for platform {platform!r}")

    # -- reporting ----------------------------------------------------

    def report(self) -> ChaosReport:
        """Snapshot delivery/drop/recovery accounting for the run."""
        devices = [node.manager.health()
                   for _, node in sorted(self.testbed.nodes.items())]
        obs_doc = None
        plane = getattr(self.testbed, "slo", None)
        hub = self.world.component_or_none("obs")
        if hub is not None:
            depths = {f"outbox:{user_id}": len(node.manager.outbox)
                      for user_id, node in sorted(self.testbed.nodes.items())}
            obs_doc = hub.report(queue_depths=depths,
                                 network=self.network, slo=plane).to_dict()
        return ChaosReport(
            plan_name=", ".join(plan.name for plan in self.plans_applied)
            or "(none)",
            injected=list(self.injected),
            network={
                "messages_sent": self.network.messages_sent,
                "messages_delivered": self.network.messages_delivered,
                "messages_dropped": self.network.messages_dropped,
                "partition_drops": self.network.partition_drops,
                "loss_drops": self.network.loss_drops,
            },
            broker={
                "crashes": self.broker.crashes,
                "restarts": self.broker.restarts,
                "sessions_expired": self.broker.sessions_expired,
            },
            server=self.server.health(),
            devices=devices,
            recovery_delays=dict(self._recovery),
            obs=obs_doc,
            slo=plane.report() if plane is not None else None,
        )
