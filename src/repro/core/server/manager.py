"""The server SenSocial Manager: entry point of the server middleware.

Responsibilities (Figure 3, right side): device registration over
MQTT, OSN plug-in intake, trigger routing, remote stream lifecycle
(XML config push / destroy), incoming record ingest with server-side
filtering, aggregators, multicast streams, and the database of users,
links and locations.

Every inbound record takes one path.  ``deliver`` decodes a
``stream-data`` record or a ``stream-batch`` envelope into a
:class:`~repro.core.common.batch.RecordBatch` (a record is a batch of
one); ``_on_stream_batch`` then ingests it through the volatile branch
or, on a durable server, through admission and the write-ahead journal
(``_apply_intake``).  The server acks with one shape,
``stream-batch-ack``, listing every record id it settles.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import replace
from typing import Callable

from repro.core.common.batch import RecordBatch, ack_size as batch_ack_size
from repro.core.common.filters import Filter
from repro.core.common.granularity import Granularity
from repro.core.common.location import valid_location_update
from repro.core.common.modality import ModalityType
from repro.core.common.records import StreamRecord
from repro.core.common.stream_config import StreamConfig, StreamMode
from repro.core.mobile.mqtt_service import REGISTRATION_FILTER
from repro.core.server.aggregator import Aggregator
from repro.core.server.dedup import RecordDeduper
from repro.core.server.filter_manager import ServerFilterManager
from repro.core.server.multicast import (MulticastQuery, MulticastStream,
                                        select_users)
from repro.core.server.server_stream import ServerStream
from repro.core.server.storage import ServerDatabase
from repro.core.server.trigger import TriggerManager
from repro.core.common.errors import MiddlewareError
from repro.mqtt.client import MqttClient
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.obs import Healthcheck, Observability
from repro.obs.health import STATUS_DOWN
from repro.osn.actions import ActionType, OsnAction
from repro.plugins.base import OsnPlugin
from repro.simkit.world import World

ActionListener = Callable[[OsnAction], None]
RecordListener = Callable[[StreamRecord], None]

_PLATFORM_MODALITY = {
    "facebook": ModalityType.FACEBOOK_ACTIVITY,
    "twitter": ModalityType.TWITTER_ACTIVITY,
}

class ApplicationPlane:
    """The server's application plane, shared by every server topology.

    Plug-ins, listeners, the user and graph API, aggregators, multicasts
    and OSN action intake (§4).  It reaches partitions only through
    ``shard_workers()``, ``shard_for_user()`` and ``shard_for_device()``:
    the monolith answers them with itself, a
    :class:`repro.cluster.ClusterCoordinator` with its shard workers.
    """

    def __init__(self) -> None:
        self.multicasts: list[MulticastStream] = []
        self._plugins: list[OsnPlugin] = []
        self._action_listeners: list[ActionListener] = []
        self._registration_listeners: list[Callable[[str, str], None]] = []
        #: Per-manager multicast naming counter: module-global state
        #: here used to leak across simulations in one process, making
        #: back-to-back runs disagree on stream names.
        self._multicast_seq = itertools.count(1)

    def attach_plugin(self, plugin: OsnPlugin) -> None:
        """Consume a platform plug-in's captured actions."""
        self._plugins.append(plugin)
        plugin.add_listener(self._on_osn_action)

    def plugins(self) -> list[OsnPlugin]:
        return list(self._plugins)

    # -- application API -------------------------------------------------------

    def add_action_listener(self, listener: ActionListener) -> None:
        """Server-app callback for every captured OSN action."""
        self._action_listeners.append(listener)

    def on_registration(self, listener: Callable[[str, str], None]) -> None:
        """Callback fired as ``(user_id, device_id)`` register."""
        self._registration_listeners.append(listener)

    # -- user/graph management ----------------------------------------------------

    def sync_social_graph(self, graph) -> None:
        """Mirror an OSN social graph's friendships into the database."""
        for user_id in graph.users():
            if self.database.is_registered(user_id):
                self.database.set_friends(user_id, [
                    friend for friend in graph.friends(user_id)
                    if self.database.is_registered(friend)])

    def registered_users(self) -> list[str]:
        return self.database.user_ids()

    def device_of(self, user_id: str) -> str | None:
        return self.database.device_of(user_id)

    # -- aggregation and multicast ------------------------------------------------------

    def allocate_multicast_name(self) -> str:
        """Next default multicast stream name, scoped to this manager."""
        return f"mcast-{next(self._multicast_seq)}"

    def create_aggregator(self, name: str,
                          streams: list[ServerStream]) -> Aggregator:
        return Aggregator.wrap(name, streams)

    def create_multicast_stream(self, modality: ModalityType,
                                granularity: Granularity,
                                query: MulticastQuery, *,
                                stream_filter: Filter | None = None,
                                settings: dict | None = None,
                                mode: StreamMode = StreamMode.CONTINUOUS,
                                name: str | None = None) -> MulticastStream:
        """Instantiate a multicast stream and populate its membership."""
        multicast = MulticastStream(
            self, modality, granularity, query, stream_filter=stream_filter,
            settings=settings, mode=mode, name=name)
        self.multicasts.append(multicast)
        multicast.refresh()
        return multicast

    def on_multicast_destroyed(self, multicast: MulticastStream) -> None:
        if multicast in self.multicasts:
            self.multicasts.remove(multicast)

    def _refresh_geo_multicasts(self) -> None:
        # Called after an applied location update: geo-qualified
        # memberships may have changed — the §3.2 geo-fenced pattern
        # (streams follow users as they move).
        for multicast in list(self.multicasts):
            if multicast.query.is_geo_dependent:
                multicast.refresh()

    # -- OSN action intake --------------------------------------------------------------

    def _on_osn_action(self, action: OsnAction) -> None:
        """Take in one captured action on its user's partition (§4)."""
        home = self.shard_for_user(action.user_id)
        if home.crashed:
            # Plug-in listeners call us synchronously (no network hop
            # to drop the message): a dead process simply misses them.
            home.actions_lost_crashed += 1
            return
        home.actions_received += 1
        delay = self.world.now - action.created_at
        home._recent_action_latencies.append(delay)
        if self.obs is not None:
            self.obs.telemetry.timer(
                "osn_action_delay", platform=action.platform).observe(delay)
        home.database.store_action(action)
        modality = _PLATFORM_MODALITY.get(action.platform)
        if modality is not None:
            self.filters.mark_osn_active(action.user_id, modality)
        self._maintain_friendships(action)
        for listener in list(self._action_listeners):
            listener(action)
        self._route_action_triggers(action)

    def _maintain_friendships(self, action: OsnAction) -> None:
        """Classify friendship actions to keep OSN links fresh (§4)."""
        friend_id = action.payload.get("friend_id")
        if friend_id is None:
            return
        if action.type is ActionType.FRIEND_ADD:
            self.database.add_friend(action.user_id, friend_id)
        elif action.type is ActionType.FRIEND_REMOVE:
            self.database.remove_friend(action.user_id, friend_id)

    def _route_action_triggers(self, action: OsnAction) -> None:
        """Decide which devices must sense because of this action."""
        own_device = self.database.device_of(action.user_id)
        if own_device is not None:
            self.shard_for_device(own_device).triggers.send_action_trigger(
                own_device, action)
        # Streams conditioned on *this* user's OSN activity from other
        # devices (cross-user OSN conditions) get a targeted trigger.
        # Each partition indexes exactly those streams; merging the
        # buckets in creation (``srv-sN``) order gives one fan-out order
        # whatever partitions the streams live on.
        targets = [(stream, shard) for shard in self.shard_workers()
                   for stream in shard._osn_trigger_index.get(
                       action.user_id, {}).values()
                   if not (stream.destroyed or stream.device_id == own_device
                           or shard.streams.get(stream.stream_id)
                           is not stream)]
        for stream, shard in sorted(targets, key=lambda target: target[0].seq):
            shard.triggers.send_action_trigger(
                stream.device_id, action, stream_ids=[stream.stream_id])


class ServerSenSocialManager(ApplicationPlane, Endpoint):
    """Singleton-style server middleware core."""

    def __init__(self, world: World, network: Network, *,
                 broker_address: str = "mqtt-broker",
                 address: str = "sensocial-server",
                 processing_delay: LatencyModel | None = None,
                 durability=None,
                 filters: ServerFilterManager | None = None,
                 stream_seq=None):
        super().__init__()
        self.world = world
        self.network = network
        self.address = address
        #: Durability controller (:class:`repro.durability.ServerDurability`)
        #: or ``None`` — then ingest is the classic volatile fast path.
        self.durability = durability
        if durability is not None:
            durability.bind(self)
            self.database = ServerDatabase(store=durability.build_store())
        else:
            self.database = ServerDatabase()
        self.mqtt = MqttClient(world, network, client_id=address,
                               address=f"mqtt/{address}",
                               broker_address=broker_address)
        self.triggers = TriggerManager(world, self.mqtt, processing_delay)
        #: Cross-user filter context.  Injectable so a shard cluster
        #: can hand every worker the same manager — cross-user
        #: conditions then see context from users on *other* shards,
        #: exactly like the monolithic server did.
        self.filters = filters if filters is not None \
            else ServerFilterManager(world)
        self.streams: dict[str, ServerStream] = {}
        self._record_listeners: list[RecordListener] = []
        #: Stream-id sequence.  Injectable (shared ``itertools.count``)
        #: so every shard of a cluster draws globally unique, globally
        #: creation-ordered ``srv-sN`` ids.
        self._stream_seq = stream_seq if stream_seq is not None \
            else itertools.count(1)
        #: OSN trigger routing index: acting user id -> streams whose
        #: filters carry a cross-user OSN condition on that user, so an
        #: action only touches the streams it can trigger instead of
        #: scanning every stream (see ``_route_action_triggers``).
        self._osn_trigger_index: dict[str, dict[str, ServerStream]] = {}
        self._trigger_users: dict[str, tuple[str, ...]] = {}
        #: Cached telemetry counter handles for the ingest hot loop
        #: (avoids re-resolving name+labels per record).
        self._counter_handles: dict[tuple, object] = {}
        self._recent_action_latencies: deque[float] = deque(maxlen=1000)
        #: Observability hub (``None`` when tracing/telemetry is off).
        self.obs = Observability.of(world)
        #: Sliding window of record ids making QoS-1 replays idempotent.
        self.dedup = RecordDeduper()
        self.records_received = 0
        self.records_duplicate = 0
        #: Records whose payload failed the edge decode (dropped).
        self.records_invalid = 0
        #: Location updates dropped by :func:`valid_location_update`.
        self.location_updates_invalid = 0
        self.acks_sent = 0
        self.actions_received = 0
        self.last_record_at: float | None = None
        #: Crash/restart state (``repro.faults`` server_crash fault).
        self.crashed = False
        self.crashes = 0
        self.restarts = 0
        #: OSN actions that arrived (synchronously, plugin-side) while
        #: the server process was down — lost, like a real outage.
        self.actions_lost_crashed = 0
        network.register(address, self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Connect to the broker and begin accepting registrations."""
        self.mqtt.connect(clean_session=False)
        self.mqtt.subscribe(REGISTRATION_FILTER, self._on_registration)

    def crash(self) -> None:
        """Kill the server process mid-run (fault injection).

        Both network endpoints partition (in-flight messages drop and
        QoS layers retry), the durable intake queue is wiped — those
        records are unacked, so mobile outboxes retransmit them after
        the restart — held MQTT publishes are dropped, and synchronously
        delivered OSN actions are lost until :meth:`restart`.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.network.set_down(self.address)
        self.network.set_down(self.mqtt.address)
        if self.durability is not None:
            self.durability.on_crash()
        self.mqtt.discard_held()
        if self.obs is not None:
            self.obs.telemetry.counter("server_crashes").inc()

    def restart(self) -> None:
        """Bring a crashed server back.

        With durability, the database and the dedup window rebuild
        from the medium's snapshot + journal replay, so post-restart
        ingest stays exactly-once.  Without it the restart is amnesiac:
        registrations, friendships, locations and records are gone —
        the failure mode the journal exists to prevent.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.restarts += 1
        self.network.set_down(self.address, False)
        self.network.set_down(self.mqtt.address, False)
        self.dedup = RecordDeduper(window=self.dedup.window)
        if self.durability is not None:
            store, dedup_ids = self.durability.recover()
            self.database = ServerDatabase(store=store)
            for record_id in dedup_ids:
                self.dedup.remember(record_id)
            self.durability.finish_recovery()
        else:
            self.database = ServerDatabase()
        if self.obs is not None:
            self.obs.telemetry.counter("server_restarts").inc()
        self._update_dedup_metrics()

    # -- partitions: the monolith is its own single partition ---------------

    def shard_workers(self) -> list[ServerSenSocialManager]:
        return [self]

    def shard_for_user(self, user_id: str) -> ServerSenSocialManager:
        return self

    def shard_for_device(self, device_id: str) -> ServerSenSocialManager:
        return self

    # -- application API -------------------------------------------------------

    def register_listener(self, listener: RecordListener) -> None:
        """Server-app callback for every incoming stream record (the
        paper's server-side ``registerListener()``)."""
        self._record_listeners.append(listener)

    # -- remote stream lifecycle -----------------------------------------------------

    def create_stream(self, user_id: str, modality: ModalityType | str,
                      granularity: Granularity | str = Granularity.CLASSIFIED, *,
                      stream_filter: Filter | None = None,
                      settings: dict | None = None,
                      mode: StreamMode = StreamMode.CONTINUOUS) -> ServerStream:
        """Create a stream on ``user_id``'s device, managed from here."""
        modality = ModalityType(modality)
        granularity = Granularity.parse(granularity)
        device_id = self.database.device_of(user_id)
        if device_id is None:
            raise MiddlewareError(f"user {user_id!r} has no registered device")
        stream_filter = stream_filter if stream_filter is not None else Filter()
        # Any OSN condition (own or cross-user) makes sampling
        # trigger-driven, so the pushed config must say so explicitly —
        # the mobile cannot see cross-user conditions.
        if stream_filter.osn_conditions():
            mode = StreamMode.SOCIAL_EVENT
        seq = next(self._stream_seq)
        config = StreamConfig(
            stream_id=f"srv-s{seq}",
            device_id=device_id,
            modality=modality,
            granularity=granularity,
            mode=mode,
            filter=stream_filter,
            settings=dict(settings or {}),
            send_to_server=True,
            created_by="server",
        )
        stream = ServerStream(self, config, user_id, seq)
        self.streams[config.stream_id] = stream
        self._index_stream_triggers(stream)
        self.triggers.push_config(config)
        return stream

    def update_stream_filter(self, stream: ServerStream,
                             stream_filter: Filter) -> None:
        stream.config = stream.config.with_filter(stream_filter)
        self._index_stream_triggers(stream)
        self.triggers.push_config(stream.config)

    def update_stream_settings(self, stream: ServerStream, settings: dict) -> None:
        merged = dict(stream.config.settings)
        merged.update(settings)
        stream.config = replace(stream.config, settings=merged)
        self.triggers.push_config(stream.config)

    def destroy_stream(self, stream_id: str) -> None:
        stream = self.streams.pop(stream_id, None)
        self._unindex_stream_triggers(stream_id)
        self.filters.drop_gate(stream_id)
        if stream is None or stream.destroyed:
            return
        stream.destroyed = True
        self.triggers.push_destroy(stream.device_id, stream_id)

    def _index_stream_triggers(self, stream: ServerStream) -> None:
        """(Re-)file ``stream`` under each user whose OSN activity can
        trigger it cross-device."""
        self._unindex_stream_triggers(stream.stream_id)
        users: list[str] = []
        for condition in stream.config.filter.osn_conditions():
            if condition.is_cross_user and condition.user_id not in users:
                users.append(condition.user_id)
        for user_id in users:
            self._osn_trigger_index.setdefault(
                user_id, {})[stream.stream_id] = stream
        if users:
            self._trigger_users[stream.stream_id] = tuple(users)

    def _unindex_stream_triggers(self, stream_id: str) -> None:
        for user_id in self._trigger_users.pop(stream_id, ()):
            bucket = self._osn_trigger_index.get(user_id)
            if bucket is not None:
                bucket.pop(stream_id, None)
                if not bucket:
                    del self._osn_trigger_index[user_id]

    # -- shard migration ------------------------------------------------------

    def adopt_stream(self, stream: ServerStream) -> None:
        """Take ownership of a stream created on another manager.

        Used by the cluster rebalance protocol: when a shard dies, its
        live :class:`ServerStream` handles (listeners and all) are
        re-homed onto the shards that inherit the underlying devices.
        The stream keeps its id — the device keeps publishing under it
        — and its creation ``seq``, so trigger fan-out order is
        unchanged.
        """
        stream._manager = self
        self.streams[stream.stream_id] = stream
        self._index_stream_triggers(stream)

    def release_stream(self, stream_id: str) -> ServerStream | None:
        """Forget a stream without destroying it on the device (the
        adopting manager keeps serving it)."""
        stream = self.streams.pop(stream_id, None)
        self._unindex_stream_triggers(stream_id)
        self.filters.drop_gate(stream_id)
        return stream

    # -- multicast membership ------------------------------------------------------------

    def select_users(self, query: MulticastQuery) -> list[str]:
        """Evaluate a multicast membership query against the database."""
        return select_users(self.database, query)

    # -- inbound paths --------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        if self.crashed:
            return  # belt-and-braces; the network partitions us anyway
        protocol = message.headers.get("protocol")
        if protocol == "stream-data" or protocol == "stream-batch":
            batch = self._decode(protocol, message.payload, message.src)
            if batch is not None:
                self._on_stream_batch(batch, reply_to=message.src,
                                      sent_at=message.sent_at)
        elif protocol == "location-update":
            self._on_location_update(message.payload)

    def _decode(self, protocol: str, payload,
                reply_to: str | None) -> RecordBatch | None:
        """Edge decode: a ``stream-data`` record becomes a batch of one,
        a ``stream-batch`` envelope a batch of N.

        The payload comes from outside the program.  One that does not
        decode — a missing field, ragged columns, a newer wire version —
        is dropped as ``invalid`` instead of aborting the run: the ids
        it carries are acked so the sender stops retrying, and a
        durable server dead-letters the raw payload.
        """
        try:
            if protocol == "stream-data":
                return RecordBatch.from_documents((payload,))
            return RecordBatch.from_payload(payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
        record_ids = _carried_ids(protocol, payload)
        dropped = max(1, len(record_ids))
        self.records_invalid += dropped
        self._send_batch_ack(record_ids, reply_to)
        if self.durability is not None:
            self.durability.quarantine.put(
                record_id=record_ids[0] if len(record_ids) == 1 else None,
                reason="invalid", at=self.world.now, payload=payload)
        if self.obs is not None:
            self._counter("records_dropped", stage="ingest",
                          reason="invalid").inc(dropped)
        return None

    def _on_registration(self, topic: str, payload: str) -> None:
        document = json.loads(payload)
        self.database.register_device(document["user_id"],
                                      document["device_id"],
                                      document.get("modalities", []))
        for listener in list(self._registration_listeners):
            listener(document["user_id"], document["device_id"])

    def _send_batch_ack(self, record_ids, reply_to: str | None) -> None:
        """One ack envelope listing every id it settles."""
        # Counts, byte-accounts (explicit size = exact sum of the N
        # one-record ack estimates) and RNG-draws (``coalesced=N`` link
        # draws) as N one-record acks, so the sender's outbox and the
        # fault model see the same world whatever the batch size.
        ids = [record_id for record_id in record_ids if record_id is not None]
        if not ids or reply_to is None:
            return
        self.acks_sent += len(ids)
        self.network.send(self.address, reply_to, {"record_ids": ids},
                          headers={"protocol": "stream-batch-ack"},
                          size=batch_ack_size(ids), coalesced=len(ids))

    def _counter(self, name: str, **labels):
        """Resolve-once telemetry counter handles for per-record loops
        (``Telemetry.counter`` sorts the label set on every call)."""
        key = (name,) + tuple(sorted(labels.items()))
        handle = self._counter_handles.get(key)
        if handle is None:
            handle = self.obs.telemetry.counter(name, **labels)
            self._counter_handles[key] = handle
        return handle

    def _update_dedup_metrics(self) -> None:
        """Surface the dedup window in the telemetry registry."""
        if self.obs is None:
            return
        self.obs.telemetry.gauge("dedup_window_size").set(len(self.dedup))
        self.obs.telemetry.gauge("dedup_duplicates").set(self.dedup.duplicates)

    def _on_stream_batch(self, batch: RecordBatch,
                         reply_to: str | None = None,
                         sent_at: float | None = None) -> None:
        """Ingest one decoded batch (a record is a batch of one)."""
        # Per-record semantics hold whatever the batch size —
        # ack-before-dedup, the same duplicate accounting, the same
        # observe→dispatch order per record — only the per-message
        # costs (transport, journal frames, index passes, acks)
        # amortize across the batch.
        obs = self.obs
        if self.durability is not None:
            # Durable path: admission-controlled, write-ahead journaled
            # ingest.  The ack moves to apply time — a record is only
            # acknowledged once it is journaled (or terminally shed /
            # quarantined), never while it could still die in a crash.
            self.durability.submit_batch(batch, reply_to=reply_to,
                                         sent_at=sent_at)
            return
        record_ids = batch.record_ids
        # Acknowledge before the dedup decision: the ack for the first
        # copy may have been lost, and the sender keeps retrying until
        # one lands (idempotent ingest makes the repeat ack harmless).
        self._send_batch_ack(record_ids, reply_to)
        flags = self.dedup.check_batch(record_ids)
        fresh = [index for index, dup in enumerate(flags) if not dup]
        if len(fresh) != len(record_ids):
            self.records_duplicate += len(record_ids) - len(fresh)
            if obs is not None:
                from repro.obs.trace import TraceContext
                for index, duplicate in enumerate(flags):
                    if not duplicate:
                        continue
                    trace = batch.traces[index]
                    # Not a loss: the first copy already terminated this
                    # trace; the replay is only an event on the journey.
                    obs.tracer.event(
                        None if trace is None
                        else TraceContext.from_dict(trace),
                        "duplicate_ingest", record_id=record_ids[index])
                    self._counter("records_duplicate").inc()
            batch = batch.select(fresh)
        self._update_dedup_metrics()
        if not fresh:
            return
        arrived_at = self.world.now
        self.database.store_batch(batch.store_documents())
        self.records_received += len(batch)
        self.last_record_at = arrived_at
        self._dispatch_batch(
            batch, arrived_at=arrived_at, ingest_start=arrived_at,
            pre_span=("transport",
                      arrived_at if sent_at is None else sent_at))

    def _apply_intake(self, item) -> None:
        """Apply one admitted batch through the write-ahead journal.

        The journal frame is composite — record documents + dedup ids —
        so recovery restores both atomically: there is no window where
        a replayed record is deduped but absent from the database (a
        loss) or present but not deduped (a duplicate).  Raises
        :class:`repro.durability.StorageWriteError` without side
        effects when the journal append fails; the drain pump owns the
        retry/quarantine decision.
        """
        batch = item.batch
        now = self.world.now
        record_ids = batch.record_ids
        documents = batch.store_documents()
        with self.durability.journal.ingest("records", batch, documents):
            self.database.store_batch(documents)
            dedup_seen = self.dedup.seen
            for record_id in record_ids:
                if record_id is not None:
                    dedup_seen(record_id)
        self.records_received += len(record_ids)
        self.last_record_at = now
        self._update_dedup_metrics()
        self._send_batch_ack(record_ids, item.reply_to)
        self._dispatch_batch(batch, arrived_at=now,
                             ingest_start=item.enqueued_at,
                             pre_span=("journal_append", now))

    def _dispatch_batch(self, batch, *, arrived_at: float,
                        ingest_start: float, pre_span) -> None:
        """Per-record observe→dispatch tail of the volatile and durable
        ingest branches, in batch order."""
        obs = self.obs
        if obs is None and not self.streams and not self._record_listeners:
            # Nothing downstream needs record objects; fold the columns
            # straight into the filter context (mutation-identical).
            self.filters.observe_batch(batch)
            return
        span_name, span_start = pre_span
        record_ids = batch.record_ids
        for index, record in enumerate(batch.iter_records()):
            trace = record.trace if obs is not None else None
            self.filters.observe_record(record)
            if obs is not None:
                obs.tracer.span(trace, span_name, start=span_start)
                obs.tracer.span(trace, "ingest", start=ingest_start,
                                record_id=record_ids[index])
                self._counter("records_ingested",
                              modality=record.modality.value).inc()
            self._dispatch_record(record, trace, arrived_at)

    def _dispatch_record(self, record: StreamRecord, trace,
                         arrived_at: float) -> None:
        """Post-ingest delivery: server-side filtering, stream and
        listener fan-out, and the trace's delivered terminal."""
        obs = self.obs
        stream = self.streams.get(record.stream_id)
        if stream is not None:
            if not self.filters.stream_allows(record.stream_id,
                                              stream.config.filter):
                stream.records_suppressed += 1
                if obs is not None:
                    obs.tracer.mark_dropped(
                        trace, "server_filter", "cross_user_condition")
                    self._counter("records_dropped", stage="server_filter",
                                  reason="cross_user_condition").inc()
                return
            stream.deliver(record)
        if obs is not None:
            obs.tracer.span(trace, "stream_delivery", start=arrived_at,
                            listeners=len(self._record_listeners))
            obs.tracer.mark_delivered(trace)
        for listener in list(self._record_listeners):
            listener(record)

    def _on_location_update(self, payload) -> bool:
        """Apply one ``location-update``; False when it was dropped.

        The payload comes from outside the program.  One that fails
        :func:`valid_location_update` changes nothing, refreshes no
        multicast and is counted as invalid instead of aborting the run.
        """
        if not valid_location_update(payload):
            self.location_updates_invalid += 1
            return False
        self.database.update_location(
            payload["user_id"], payload["lon"], payload["lat"],
            payload.get("place"), payload["timestamp"])
        self.filters.observe_location(payload["user_id"], payload.get("place"))
        self._refresh_geo_multicasts()
        return True

    # -- observability ---------------------------------------------------------------------

    def action_latencies(self) -> list[float]:
        """OSN action → server arrival delays (Table 3's first row)."""
        return list(self._recent_action_latencies)

    def health(self) -> dict:
        """Degraded-operation status of the server middleware.

        Uniform :class:`repro.obs.Healthcheck` schema (``status`` /
        ``detail`` / ``counters``) with the counters also flattened at
        the top level for older consumers.
        """
        if self.crashed:
            status = STATUS_DOWN
            detail = f"server {self.address}: crashed"
        else:
            status = Healthcheck.status_for(self.mqtt.connected)
            detail = (f"server {self.address}: "
                      f"{'connected' if self.mqtt.connected else 'disconnected'}"
                      f", {self.records_received} records ingested")
        extras: dict = {
            "connected": self.mqtt.connected,
            "last_seen": self.last_record_at,
            "last_net_drop": self.network.last_drop(self.address),
            "database": self.database.health(),
        }
        if self.durability is not None:
            extras["durability"] = self.durability.health()
        return Healthcheck.build(
            status=status,
            detail=detail,
            counters={
                "records_received": self.records_received,
                "duplicates_dropped": self.records_duplicate,
                "records_invalid": self.records_invalid,
                "location_updates_invalid": self.location_updates_invalid,
                "acks_sent": self.acks_sent,
                "actions_received": self.actions_received,
                "connection_losses": self.mqtt.connection_losses,
                "reconnects": self.mqtt.reconnects,
                "net_drops": self.network.drop_count(self.address),
                "crashes": self.crashes,
                "restarts": self.restarts,
                "actions_lost_crashed": self.actions_lost_crashed,
                "publishes_held": self.mqtt.publishes_held,
            },
            **extras,
        )


def _carried_ids(protocol: str, payload) -> list[str]:
    """The record ids an undecodable uplink payload still names."""
    if not isinstance(payload, dict):
        return []
    ids = ([payload.get("record_id")] if protocol == "stream-data"
           else payload.get("record_ids"))
    if not isinstance(ids, (list, tuple)):
        return []
    return [record_id for record_id in ids if isinstance(record_id, str)]
