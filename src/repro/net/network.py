"""The network: endpoint registry and message delivery.

Endpoints register under unique string addresses.  ``send`` schedules
delivery on the world scheduler after a latency draw; the receiving
endpoint's ``deliver`` runs at the delivery instant.  Endpoints may
expose a ``radio`` attribute (see :mod:`repro.device.radio`) whose
``account_tx`` / ``account_rx`` hooks are charged per message — this is
how transmission energy reaches the battery model.

Fault models live here too: probabilistic per-link packet loss,
latency jitter, and partition windows / flap schedules driven by the
world scheduler.  Every drop is counted (globally and per endpoint) so
resilience tests can assert on exactly what the network ate.  All
randomness comes from the dedicated ``net-faults`` RNG stream, so a run
with no faults configured draws nothing from it and is bit-identical
to a run on a network without the fault machinery.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.net.errors import DuplicateEndpointError, UnknownEndpointError
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message, estimate_size
from repro.simkit.world import World


class Endpoint(ABC):
    """Anything that can receive network messages."""

    #: Optional radio energy accounting hook; devices set this.
    radio = None

    @abstractmethod
    def deliver(self, message: Message) -> None:
        """Handle an incoming message (called at the delivery instant)."""


class _CallbackEndpoint(Endpoint):
    """Adapter turning a plain callable into an endpoint."""

    def __init__(self, fn: Callable[[Message], None]):
        self._fn = fn

    def deliver(self, message: Message) -> None:
        self._fn(message)


class Network:
    """Message fabric connecting every simulated host."""

    DEFAULT_LATENCY = FixedLatency(0.05)

    def __init__(self, world: World, default_latency: LatencyModel | None = None):
        self._world = world
        self._scheduler = world.scheduler
        self._rng = world.rng("network")
        self._fault_rng = world.rng("net-faults")
        self._endpoints: dict[str, Endpoint] = {}
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        self._endpoint_latency: dict[str, LatencyModel] = {}
        self.default_latency = default_latency or self.DEFAULT_LATENCY
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_delivered = 0
        #: Messages eaten by any fault: partitions + probabilistic loss.
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Messages dropped because an endpoint was partitioned.
        self.partition_drops = 0
        #: Messages dropped by a probabilistic loss draw.
        self.loss_drops = 0
        self._drops_by_endpoint: dict[str, int] = {}
        #: address -> (reason, simulated time) of the latest drop
        #: charged against it — the taxonomy detail ObsReport and the
        #: managers' health() both read, so they cannot disagree.
        self._last_drop: dict[str, tuple[str, float]] = {}
        #: Observability hub, when one is installed on this world.
        self._obs = world.component_or_none("obs")
        self._down: set[str] = set()
        self._last_delivery: dict[tuple[str, str], float] = {}
        self.default_loss = 0.0
        self._link_loss: dict[tuple[str, str], float] = {}
        self._endpoint_loss: dict[str, float] = {}
        self._link_jitter: dict[tuple[str, str], LatencyModel] = {}
        self._endpoint_jitter: dict[str, LatencyModel] = {}

    # -- topology -----------------------------------------------------

    def register(self, address: str, endpoint: Endpoint | Callable[[Message], None]) -> str:
        """Attach an endpoint under ``address``; returns the address."""
        if address in self._endpoints:
            raise DuplicateEndpointError(
                f"address {address!r} already registered", address=address)
        if not isinstance(endpoint, Endpoint):
            endpoint = _CallbackEndpoint(endpoint)
        self._endpoints[address] = endpoint
        return address

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)
        self._endpoint_latency.pop(address, None)
        self._down.discard(address)

    def is_registered(self, address: str) -> bool:
        return address in self._endpoints

    def set_link_latency(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override latency for the directed link ``src -> dst``."""
        self._link_latency[(src, dst)] = model

    def set_endpoint_latency(self, address: str, model: LatencyModel) -> None:
        """Override latency for every message *to* ``address``."""
        self._endpoint_latency[address] = model

    # -- fault models -------------------------------------------------

    def set_down(self, address: str, down: bool = True) -> None:
        """Partition an endpoint: messages to or from it are dropped.

        Used by failure injection; mirrors a phone losing connectivity,
        which the MQTT QoS-1 retry path must survive.  Every message a
        partition eats is counted in :attr:`partition_drops` and
        against the partitioned address (:meth:`drop_count`).
        """
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    def is_down(self, address: str) -> bool:
        return address in self._down

    def schedule_partition(self, address: str, start: float,
                           duration: float) -> None:
        """Partition ``address`` during ``[start, start + duration)``.

        Times are absolute simulated instants; scheduling in the past
        raises, same as any scheduler use.
        """
        scheduler = self._world.scheduler
        scheduler.schedule_at(start, self.set_down, address, True)
        scheduler.schedule_at(start + duration, self.set_down, address, False)

    def schedule_flaps(self, address: str, start: float, cycles: int,
                       down_for: float, up_for: float) -> None:
        """Flap ``address``: ``cycles`` windows of down/up starting at
        ``start``.  Models a walk through patchy coverage."""
        at = start
        for _ in range(cycles):
            self.schedule_partition(address, at, down_for)
            at += down_for + up_for

    def set_default_loss(self, rate: float) -> None:
        """Probability that any message is silently lost in transit."""
        self.default_loss = self._check_rate(rate)

    def set_link_loss(self, src: str, dst: str, rate: float) -> None:
        """Loss probability for the directed link ``src -> dst``."""
        self._link_loss[(src, dst)] = self._check_rate(rate)

    def set_endpoint_loss(self, address: str, rate: float) -> None:
        """Loss probability for every message to *or from* ``address``
        (a flaky radio eats traffic in both directions)."""
        self._endpoint_loss[address] = self._check_rate(rate)

    def set_link_jitter(self, src: str, dst: str,
                        model: LatencyModel | None) -> None:
        """Extra random delay added on the link ``src -> dst``."""
        if model is None:
            self._link_jitter.pop((src, dst), None)
        else:
            self._link_jitter[(src, dst)] = model

    def set_endpoint_jitter(self, address: str,
                            model: LatencyModel | None) -> None:
        """Extra random delay added to every message *to* ``address``."""
        if model is None:
            self._endpoint_jitter.pop(address, None)
        else:
            self._endpoint_jitter[address] = model

    def drop_count(self, address: str) -> int:
        """Messages dropped charged against ``address`` (partitioned
        endpoint, or destination of a lossy link draw)."""
        return self._drops_by_endpoint.get(address, 0)

    def drop_counts(self) -> dict[str, int]:
        """Per-endpoint drop counters, for fault reports."""
        return dict(self._drops_by_endpoint)

    def last_drop(self, address: str) -> dict[str, object] | None:
        """Latest drop charged against ``address``: reason + instant."""
        entry = self._last_drop.get(address)
        if entry is None:
            return None
        return {"reason": entry[0], "at": entry[1]}

    def drop_details(self) -> dict[str, dict[str, object]]:
        """Per-endpoint drop taxonomy: count, last reason, last time."""
        details: dict[str, dict[str, object]] = {}
        for address, count in self._drops_by_endpoint.items():
            reason, at = self._last_drop[address]
            details[address] = {"count": count, "last_reason": reason,
                                "last_at": at}
        return details

    # -- data path ----------------------------------------------------

    def send(self, src: str, dst: str, payload, *,
             size: int | None = None, headers: dict | None = None,
             coalesced: int = 1) -> Message:
        """Send ``payload`` from ``src`` to ``dst``; returns the message.

        Delivery is scheduled for ``now + latency``.  The sender's radio
        is charged immediately (transmission happens now); the
        receiver's radio is charged at delivery.

        ``coalesced`` declares how many logical messages this one
        physical message replaces (batch envelopes).  The link then
        draws loss/latency/jitter once *per logical message*, in the
        same interleaved order N singleton sends would have, and
        delivers at the FIFO-clamped arrival of the last one — so a
        batched run consumes the RNG streams identically to the
        per-record run it replaces and every later draw stays aligned.
        If any logical message draws a loss, the whole envelope is
        dropped (one TCP segment; QoS layers retransmit the members),
        and — matching a singleton send, which returns before its
        latency draw — the remaining draws are not consumed: under
        probabilistic loss batching guarantees exactly-once, not
        bit-identity.
        """
        endpoints = self._endpoints
        if dst not in endpoints:
            raise UnknownEndpointError(f"unknown destination {dst!r}")
        scheduler = self._scheduler
        now = scheduler.now
        if size is None:
            size = estimate_size(payload)
        message = Message(src, dst, payload, size, now,
                          dict(headers) if headers else {})
        self.messages_sent += 1
        self.bytes_sent += size

        sender = endpoints.get(src)
        if sender is not None and sender.radio is not None:
            sender.radio.account_tx(size)

        down = self._down
        if down and (dst in down or src in down):
            self._account_drop(message, dst if dst in down else src,
                               partition=True)
            return message  # dropped by the partition; QoS layers retry

        # The override tables are read only once a fault or a test has
        # configured one; an unconfigured network uses the defaults.
        loss = (self._loss_for(src, dst)
                if self._link_loss or self._endpoint_loss
                else self.default_loss)
        latency_model = (self._latency_for(src, dst)
                         if self._link_latency or self._endpoint_latency
                         else self.default_latency)
        jitter = (self._jitter_for(src, dst)
                  if self._link_jitter or self._endpoint_jitter else None)
        latency = 0.0
        for _ in range(coalesced):
            if loss > 0.0 and self._fault_rng.random() < loss:
                self._account_drop(message, dst, partition=False)
                return message  # lost in transit; QoS layers retry
            sample = latency_model.sample(self._rng)
            if jitter is not None:
                sample += jitter.sample(self._fault_rng)
            # FIFO within the envelope: the slowest member gates it, the
            # same arrival the per-link clamp below would give the Nth
            # of N singleton sends.
            if sample > latency:
                latency = sample
        # Per-link FIFO: messages between the same pair ride one TCP
        # connection and never overtake each other.
        link = (src, dst)
        delivery_at = now + latency
        last = self._last_delivery.get(link, 0.0)
        if last > delivery_at:
            delivery_at = last
        self._last_delivery[link] = delivery_at
        scheduler.schedule_at(delivery_at, self._deliver, message)
        return message

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        model = self._link_latency.get((src, dst))
        if model is not None:
            return model
        model = self._endpoint_latency.get(dst)
        if model is not None:
            return model
        return self.default_latency

    def _loss_for(self, src: str, dst: str) -> float:
        rate = self._link_loss.get((src, dst))
        if rate is not None:
            return rate
        endpoint = max(self._endpoint_loss.get(dst, 0.0),
                       self._endpoint_loss.get(src, 0.0))
        if endpoint > 0.0:
            return endpoint
        return self.default_loss

    def _jitter_for(self, src: str, dst: str) -> LatencyModel | None:
        model = self._link_jitter.get((src, dst))
        if model is not None:
            return model
        return self._endpoint_jitter.get(dst)

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        endpoint = self._endpoints.get(dst)
        if endpoint is None or dst in self._down:
            # Endpoint vanished or went down while the message was in
            # flight; account it like any other partition drop.
            self._account_drop(message, dst, partition=True)
            return
        message.delivered_at = self._scheduler.now
        self.messages_delivered += 1
        if endpoint.radio is not None:
            endpoint.radio.account_rx(message.size)
        endpoint.deliver(message)

    def _account_drop(self, message: Message, address: str,
                      partition: bool) -> None:
        self.messages_dropped += 1
        self.bytes_dropped += message.size
        reason = "partition" if partition else "loss"
        if partition:
            self.partition_drops += 1
        else:
            self.loss_drops += 1
        self._drops_by_endpoint[address] = \
            self._drops_by_endpoint.get(address, 0) + 1
        self._last_drop[address] = (reason, self._world.now)
        if self._obs is not None:
            self._obs.telemetry.counter(
                "net_messages_dropped", reason=reason,
                endpoint=address).inc()

    @staticmethod
    def _check_rate(rate: float) -> float:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        return float(rate)
