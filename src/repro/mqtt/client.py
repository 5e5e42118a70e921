"""The MQTT client.

Each simulated phone (and the SenSocial server component) owns one
client.  The client keeps its subscription callbacks, performs QoS-1
retransmission towards the broker, and sends keep-alive pings — the
periodic cost that the battery model charges as the price of push
connectivity.

Connectivity is supervised: a watchdog declares the connection lost
when nothing has been heard from the broker for 1.5 keep-alive
periods (the same grace the broker applies in the other direction) and
then reconnects with exponential backoff plus jitter.  On reconnection
the client re-sends unacknowledged QoS-1 publishes and, when the
broker reports no stored session, replays every subscription — so a
broker restart that wiped its state is survived transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.mqtt import packets
from repro.mqtt.errors import MqttProtocolError
from repro.mqtt.topics import topic_matches, validate_filter, validate_topic
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.obs import Healthcheck, Observability
from repro.simkit.scheduler import EventHandle, PeriodicTask
from repro.simkit.world import World

#: Signature of a subscription callback: (topic, payload).
MessageCallback = Callable[[str, Any], None]

#: Signature of a connection-state callback: (connected: bool).
ConnectionCallback = Callable[[bool], None]


@dataclass
class _PendingPublish:
    packet: packets.Publish
    retries_left: int
    timer: EventHandle | None = None
    on_ack: Callable[[], None] | None = None
    #: First-send instant (virtual clock), so the ack delay — the
    #: MQTT-publish→ack stage of the pipeline — can be measured.
    sent_at: float = 0.0


class MqttClient(Endpoint):
    """A single MQTT connection to the broker."""

    RETRY_INTERVAL = 5.0
    MAX_RETRIES = 5
    #: Silence (in keep-alive periods) before the watchdog declares the
    #: connection lost; matches the broker's expiry grace.
    WATCHDOG_GRACE = 1.5
    #: First reconnect delay; doubles per failed attempt.
    RECONNECT_BASE_S = 2.0
    #: Backoff ceiling, so a long outage is probed every ~30 s.
    RECONNECT_MAX_S = 30.0
    #: Jitter fraction added to each backoff (decorrelates a fleet of
    #: clients reconnecting after the same broker restart).
    RECONNECT_JITTER = 0.25

    def __init__(self, world: World, network: Network, *, client_id: str,
                 address: str, broker_address: str = "mqtt-broker",
                 keepalive: float = 60.0, radio=None,
                 auto_reconnect: bool = True):
        self._world = world
        self._network = network
        self.client_id = client_id
        self.address = address
        self.broker_address = broker_address
        self.keepalive = keepalive
        self.radio = radio
        self.auto_reconnect = auto_reconnect
        self.connected = False
        self._callbacks: dict[str, list[MessageCallback]] = {}
        self._subscription_qos: dict[str, int] = {}
        #: Shard partition spec per topic filter, replayed alongside
        #: the qos when a lost broker session forces re-subscription.
        self._subscription_partition: dict[str, dict] = {}
        self._pending: dict[int, _PendingPublish] = {}
        self._next_packet_id = 1
        self._ping_task: PeriodicTask | None = None
        self._watchdog_task: PeriodicTask | None = None
        self._seen_inbound: set[int] = set()
        self._connection_callbacks: list[ConnectionCallback] = []
        self._reconnect_rng = world.rng(f"mqtt-reconnect-{client_id}")
        self._reconnect_handle: EventHandle | None = None
        self._reconnect_backoff = self.RECONNECT_BASE_S
        self._awaiting_connack = False
        self._clean_session = True
        self._will_topic: str | None = None
        self._will_payload: Any = None
        self.publishes_sent = 0
        self.publishes_received = 0
        #: ``(topic, payload, qos)`` of :meth:`publish_or_hold`
        #: calls made while the session was down, in order.
        self._held: list[tuple[str, Any, int]] = []
        #: Publishes ever held for a reconnect.
        self.publishes_deferred = 0
        #: Resilience counters, surfaced through :meth:`health`.
        self.connection_losses = 0
        self.reconnects = 0
        self.last_inbound = world.now
        self.last_reconnected_at: float | None = None
        #: Observability hub (``None`` when tracing/telemetry is off).
        self.obs = Observability.of(world)
        if not network.is_registered(address):
            network.register(address, self)

    # -- connection lifecycle -----------------------------------------

    def connect(self, clean_session: bool = True,
                will_topic: str | None = None, will_payload: Any = None) -> None:
        """Open the session; CONNACK arrives asynchronously."""
        self._clean_session = clean_session
        self._will_topic = will_topic
        self._will_payload = will_payload
        self._network.send(self.address, self.broker_address, packets.Connect(
            client_id=self.client_id, clean_session=clean_session,
            keepalive=self.keepalive, will_topic=will_topic,
            will_payload=will_payload))
        self.connected = True  # optimistic; simulation has no refusals
        self.last_inbound = self._world.now
        if self._ping_task is None and self.keepalive > 0:
            self._ping_task = self._world.scheduler.every(
                self.keepalive, self._ping, delay=self.keepalive)
        if (self._watchdog_task is None and self.auto_reconnect
                and self.keepalive > 0):
            self._watchdog_task = self._world.scheduler.every(
                self.keepalive, self._watchdog_check, delay=self.keepalive)

    def disconnect(self) -> None:
        """Close the session cleanly."""
        self._cancel_reconnect()
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            self._watchdog_task = None
        if not self.connected:
            return
        self._network.send(self.address, self.broker_address, packets.Disconnect())
        self.connected = False
        if self._ping_task is not None:
            self._ping_task.cancel()
            self._ping_task = None
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._notify_connection(False)

    def on_connection_change(self, callback: ConnectionCallback) -> None:
        """Register a callback fired on every connect/disconnect edge.

        The mobile middleware hooks this to flush its store-and-forward
        outbox the moment connectivity returns.
        """
        self._connection_callbacks.append(callback)

    def health(self) -> dict[str, Any]:
        """Connectivity status for degraded-operation dashboards.

        Uniform :class:`repro.obs.Healthcheck` schema (``status`` /
        ``detail`` / ``counters``) with the counters also flattened at
        the top level for older consumers.
        """
        status = Healthcheck.status_for(self.connected,
                                        backlog=len(self._pending))
        return Healthcheck.build(
            status=status,
            detail=(f"mqtt client {self.client_id}: "
                    f"{'connected' if self.connected else 'disconnected'}, "
                    f"{len(self._pending)} unacked QoS-1"),
            counters={
                "pending_qos1": len(self._pending),
                "publishes_sent": self.publishes_sent,
                "publishes_received": self.publishes_received,
                "connection_losses": self.connection_losses,
                "reconnects": self.reconnects,
            },
            client_id=self.client_id,
            connected=self.connected,
            last_seen=self.last_inbound,
        )

    # -- pub/sub ------------------------------------------------------

    def subscribe(self, topic_filter: str, callback: MessageCallback,
                  qos: int = 1, partition: dict | None = None) -> None:
        """Register ``callback`` for messages matching ``topic_filter``.

        ``partition`` is an optional shard partition spec (see
        :class:`repro.mqtt.packets.Subscribe`); re-subscribing to the
        same filter replaces both callbacks and partition — which is
        how a shard worker narrows or widens its slice of a wildcard
        topic after a rebalance.
        """
        validate_filter(topic_filter)
        self._require_connected()
        if partition is not None:
            # A partition change is a *replacement* subscription: the
            # old callbacks would double-fire once the broker rebinds
            # the filter to the new ring slice.
            self._callbacks[topic_filter] = [callback]
        else:
            self._callbacks.setdefault(topic_filter, []).append(callback)
        self._subscription_qos[topic_filter] = qos
        if partition is None:
            self._subscription_partition.pop(topic_filter, None)
        else:
            self._subscription_partition[topic_filter] = partition
        self._network.send(self.address, self.broker_address, packets.Subscribe(
            packet_id=self._take_packet_id(), topic_filter=topic_filter,
            qos=qos, partition=partition))

    def unsubscribe(self, topic_filter: str) -> None:
        """Drop every callback for ``topic_filter``."""
        self._require_connected()
        self._callbacks.pop(topic_filter, None)
        self._subscription_qos.pop(topic_filter, None)
        self._subscription_partition.pop(topic_filter, None)
        self._network.send(self.address, self.broker_address, packets.Unsubscribe(
            packet_id=self._take_packet_id(), topic_filter=topic_filter))

    def publish(self, topic: str, payload: Any, qos: int = 0,
                retain: bool = False, on_ack: Callable[[], None] | None = None) -> None:
        """Publish ``payload`` on ``topic``.

        With QoS 1 the packet is retransmitted until the broker
        acknowledges it, surviving transient partitions injected by
        :meth:`repro.net.Network.set_down`; unacknowledged packets are
        also replayed after an automatic reconnection.
        """
        validate_topic(topic)
        self._require_connected()
        packet = packets.Publish(topic=topic, payload=payload, qos=qos, retain=retain)
        self.publishes_sent += 1
        if self.obs is not None:
            self.obs.telemetry.counter("mqtt_publishes",
                                       client=self.client_id, qos=qos).inc()
        if qos >= 1:
            packet.packet_id = self._take_packet_id()
            pending = _PendingPublish(packet, self.MAX_RETRIES, on_ack=on_ack,
                                      sent_at=self._world.now)
            self._pending[packet.packet_id] = pending
            pending.timer = self._world.scheduler.schedule(
                self.RETRY_INTERVAL, self._retry, packet.packet_id)
        self._network.send(self.address, self.broker_address, packet)

    def publish_or_hold(self, topic: str, payload: Any,
                        qos: int = 0) -> None:
        """:meth:`publish`, or hold the message while the session is down.

        For a publisher whose messages follow events that can fall in
        any outage, such as the server's trigger manager, where
        :meth:`publish` would raise.  Held messages are published in
        order on the reconnect edge, before the connection callbacks
        run; :meth:`discard_held` drops them.
        """
        if self.connected:
            self.publish(topic, payload, qos=qos)
            return
        validate_topic(topic)
        self.publishes_deferred += 1
        self._held.append((topic, payload, qos))

    @property
    def publishes_held(self) -> int:
        """Messages waiting in :meth:`publish_or_hold`'s hold."""
        return len(self._held)

    def discard_held(self) -> None:
        """Drop every held message: its publisher's process died."""
        self._held.clear()

    def publish_batch(self, topic: str, payloads, qos: int = 0,
                      retain: bool = False,
                      on_ack: Callable[[], None] | None = None) -> None:
        """Publish N payloads as one columnar batch envelope.

        The broker walks the subscription trie once for the whole
        envelope instead of once per payload; subscribers receive the
        envelope dict (``batch_wire`` marker, ``n``, ``payloads``) and
        unpack it themselves.  QoS applies to the envelope: one PUBACK
        covers all members, and a retransmission replays them all —
        receivers dedup members, not packets.
        """
        payloads = list(payloads)
        envelope = {"batch_wire": 1, "n": len(payloads),
                    "payloads": payloads}
        self.publish(topic, envelope, qos=qos, retain=retain, on_ack=on_ack)

    def subscription_filters(self) -> list[str]:
        return sorted(self._callbacks)

    # -- endpoint interface -------------------------------------------

    def deliver(self, message: Message) -> None:
        self.last_inbound = self._world.now
        packet = message.payload
        if isinstance(packet, packets.Publish):
            self._on_publish(packet)
        elif isinstance(packet, packets.PubAck):
            self._on_puback(packet)
        elif isinstance(packet, packets.ConnAck):
            self._on_connack(packet)
        elif isinstance(packet, (packets.SubAck,
                                 packets.UnsubAck, packets.PingResp)):
            pass  # session bookkeeping only; nothing to do in-model
        else:
            raise MqttProtocolError(f"client cannot handle {type(packet).__name__}")

    # -- reconnect machinery ------------------------------------------

    def _watchdog_check(self) -> None:
        if not self.connected or self.keepalive <= 0:
            return
        if (self._world.now - self.last_inbound
                > self.keepalive * self.WATCHDOG_GRACE):
            self._connection_lost()

    def _connection_lost(self) -> None:
        """The broker went silent: drop to disconnected and start the
        backoff loop (if auto-reconnect is on)."""
        if not self.connected:
            return
        self.connected = False
        self.connection_losses += 1
        if self.obs is not None:
            self.obs.telemetry.counter("mqtt_connection_losses",
                                       client=self.client_id).inc()
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None
        self._notify_connection(False)
        if self.auto_reconnect:
            self._reconnect_backoff = self.RECONNECT_BASE_S
            self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        delay = self._reconnect_backoff * (
            1.0 + self._reconnect_rng.uniform(0.0, self.RECONNECT_JITTER))
        self._reconnect_backoff = min(self._reconnect_backoff * 2.0,
                                      self.RECONNECT_MAX_S)
        self._reconnect_handle = self._world.scheduler.schedule(
            delay, self._attempt_reconnect)

    def _attempt_reconnect(self) -> None:
        if self.connected:
            return
        self._awaiting_connack = True
        self._network.send(self.address, self.broker_address, packets.Connect(
            client_id=self.client_id, clean_session=self._clean_session,
            keepalive=self.keepalive, will_topic=self._will_topic,
            will_payload=self._will_payload))
        # If the CONNECT (or its CONNACK) is eaten, try again later.
        self._schedule_reconnect()

    def _on_connack(self, packet: packets.ConnAck) -> None:
        if not self._awaiting_connack:
            return  # initial optimistic connect; nothing to restore
        self._awaiting_connack = False
        self._cancel_reconnect()
        self.connected = True
        self.reconnects += 1
        self.last_reconnected_at = self._world.now
        if self.obs is not None:
            self.obs.telemetry.counter("mqtt_reconnects",
                                       client=self.client_id).inc()
        self._reconnect_backoff = self.RECONNECT_BASE_S
        if not packet.session_present:
            # The broker lost our session (restart with wiped state, or
            # expiry of a clean session): replay every subscription.
            self._seen_inbound.clear()
            for topic_filter in sorted(self._subscription_qos):
                self._network.send(
                    self.address, self.broker_address,
                    packets.Subscribe(
                        packet_id=self._take_packet_id(),
                        topic_filter=topic_filter,
                        qos=self._subscription_qos[topic_filter],
                        partition=self._subscription_partition.get(
                            topic_filter)))
        for packet_id in sorted(self._pending):
            pending = self._pending[packet_id]
            pending.retries_left = self.MAX_RETRIES
            pending.packet.duplicate = True
            self._network.send(self.address, self.broker_address, pending.packet)
            pending.timer = self._world.scheduler.schedule(
                self.RETRY_INTERVAL, self._retry, packet_id)
        held, self._held = self._held, []
        for topic, payload, qos in held:
            self.publish(topic, payload, qos=qos)
        self._notify_connection(True)

    def _cancel_reconnect(self) -> None:
        if self._reconnect_handle is not None:
            self._reconnect_handle.cancel()
            self._reconnect_handle = None
        self._awaiting_connack = False

    def _notify_connection(self, connected: bool) -> None:
        for callback in list(self._connection_callbacks):
            callback(connected)

    # -- internals ----------------------------------------------------

    def _on_publish(self, packet: packets.Publish) -> None:
        if packet.qos >= 1 and packet.packet_id is not None:
            self._network.send(self.address, self.broker_address,
                               packets.PubAck(packet.packet_id))
            if packet.packet_id in self._seen_inbound and packet.duplicate:
                return  # de-duplicate QoS-1 redelivery
            self._seen_inbound.add(packet.packet_id)
        self.publishes_received += 1
        for topic_filter in sorted(self._callbacks):
            if topic_matches(topic_filter, packet.topic):
                for callback in list(self._callbacks[topic_filter]):
                    callback(packet.topic, packet.payload)

    def _on_puback(self, packet: packets.PubAck) -> None:
        pending = self._pending.pop(packet.packet_id, None)
        if pending is not None:
            if pending.timer is not None:
                pending.timer.cancel()
            if self.obs is not None:
                self.obs.telemetry.timer(
                    "mqtt_ack_delay", client=self.client_id).stop(
                        pending.sent_at, self._world.now)
            if pending.on_ack is not None:
                pending.on_ack()

    def _retry(self, packet_id: int) -> None:
        pending = self._pending.get(packet_id)
        if pending is None or not self.connected:
            return
        if pending.retries_left <= 0:
            # Keep the packet for replay after a reconnection instead
            # of dropping it: the watchdog will notice the dead link.
            return
        pending.retries_left -= 1
        pending.packet.duplicate = True
        self._network.send(self.address, self.broker_address, pending.packet)
        pending.timer = self._world.scheduler.schedule(
            self.RETRY_INTERVAL, self._retry, packet_id)

    def _ping(self) -> None:
        if self.connected:
            self._network.send(self.address, self.broker_address, packets.PingReq())

    def _take_packet_id(self) -> int:
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        return packet_id

    def _require_connected(self) -> None:
        if not self.connected:
            raise MqttProtocolError(f"client {self.client_id!r} is not connected")
