"""The shard worker: one partition of the server tier.

A :class:`ShardWorker` is a full ``ServerSenSocialManager`` behind the
cluster coordinator: the ingest pump, dedup window, filter gates,
trigger manager and per-shard document store (plus an optional
write-ahead journal) — everything that scales with *this partition's*
devices.  Placement, cross-shard routing and the merged views live in
:class:`repro.cluster.ClusterCoordinator`, which runs the shared
application plane (OSN intake, trigger fan-out, multicasts) over its
workers.

Each worker owns its own network address, MQTT session and database.
Its registration subscription carries a consistent-hash *partition
spec*, so the broker delivers only the retained registrations of
devices the ring places on this shard — re-subscribing with a newer
ring is how a worker inherits devices during a rebalance.
"""

from __future__ import annotations

from repro.core.mobile.mqtt_service import REGISTRATION_FILTER
from repro.core.server.manager import ServerSenSocialManager

#: Topic level carrying the device id in ``sensocial/register/+``.
REGISTRATION_KEY_LEVEL = 2


class ShardWorker(ServerSenSocialManager):
    """One consistent-hash partition of the server tier."""

    def __init__(self, world, network, shard_id: str, *, address: str,
                 broker_address: str = "mqtt-broker",
                 durability=None, filters=None, stream_seq=None,
                 processing_delay=None):
        super().__init__(
            world, network, broker_address=broker_address, address=address,
            processing_delay=processing_delay, durability=durability,
            filters=filters, stream_seq=stream_seq)
        self.shard_id = shard_id
        #: Current partition spec for the registration subscription
        #: (set by :meth:`start`; one member on a one-shard cluster).
        self.registration_partition: dict | None = None
        #: True once :meth:`retire` ran — a dead shard whose devices
        #: migrated away never rejoins the ring.
        self.retired = False

    # -- partition management -----------------------------------------

    def start(self, partition: dict) -> None:
        """Connect and subscribe to this shard's registration slice."""
        self.registration_partition = partition
        self.mqtt.connect(clean_session=False)
        self.mqtt.subscribe(REGISTRATION_FILTER, self._on_registration,
                            partition=partition)

    def update_partition(self, partition: dict) -> None:
        """Re-subscribe with a newer ring.

        The broker replays retained registrations matching the widened
        slice, which is the device-migration mechanism: every device
        this shard inherits re-registers here without the phone sending
        a byte.
        """
        self.registration_partition = partition
        self.mqtt.subscribe(REGISTRATION_FILTER, self._on_registration,
                            partition=partition)

    def resubscribe(self) -> None:
        """Re-issue the registration subscription with the current
        partition — the rejoin step of a rolling upgrade.  The broker
        replays the retained registrations of this shard's slice, so a
        worker that restarted amnesiac (no journal) re-learns its
        devices without any phone resending."""
        self.mqtt.subscribe(REGISTRATION_FILTER, self._on_registration,
                            partition=self.registration_partition)

    def drain(self) -> int:
        """Synchronously flush the durable intake queue (see
        :meth:`repro.durability.ServerDurability.drain`).

        Scale-in and rolling upgrades drain a *healthy* shard before
        touching it, so the handoff starts from a settled store and
        nothing admitted dies un-acked with the shard.  Returns the
        number of intake items applied.
        """
        return self.durability.drain() if self.durability is not None else 0

    def retire(self) -> None:
        """Mark this worker permanently out of the cluster.

        A *drained* shard retires cleanly: its broker session drops the
        registration subscription and disconnects, so no dead
        subscription lingers to queue offline registrations forever.  A
        *crashed* shard cannot — its network endpoints are down — and
        keeps the session; the broker's partition gate already stops
        routing it anything it no longer owns.
        """
        self.retired = True
        if not self.crashed and self.mqtt.connected:
            self.mqtt.unsubscribe(REGISTRATION_FILTER)
            self.mqtt.disconnect()

    # -- scaling metrics ----------------------------------------------

    def work_done(self) -> int:
        """Deterministic per-shard work counter: records this shard
        ingested + replayed duplicates it absorbed + OSN actions it
        stored.  Each unit drives exactly one dedup probe, one filter
        observation and one document-store write, so the counter tracks
        the shard's share of ingest+filter work machine-independently
        (the quantity ``benchmarks/test_cluster_scaling.py`` asserts
        shrinks as shards are added)."""
        return (self.records_received + self.records_duplicate
                + self.actions_received)

    def health(self) -> dict:
        document = super().health()
        document["shard_id"] = self.shard_id
        document["retired"] = self.retired
        document["counters"]["shard_work"] = self.work_done()
        document["shard_work"] = self.work_done()
        return document
