"""The mobile SenSocial Manager: entry point of the client middleware.

Implements the paper's client API (Figure 7): ``get_sensocial_manager``
→ ``get_user`` → ``get_device`` → ``get_stream(modality, granularity)``
→ ``set_filter`` / ``register_listener``, plus the machinery behind it:
stream lifecycle, privacy re-screening, condition-gated duty cycles,
OSN trigger handling, and periodic location reporting to the server.

The uplink speaks one wire shape: the store-and-forward outbox sends
columnar ``stream-batch`` envelopes (:mod:`repro.core.common.batch`).
A fresh record on a connected link flushes immediately as a batch of
one, while backlog — reconnect flushes, retry sweeps — leaves in
chunks of up to ``batch_max``.  Whatever the chunk size, the byte
counters, link draws and ack bookkeeping are record-for-record
identical; a larger ``batch_max`` only amortizes the per-message
overhead.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.classify import ClassifierRegistry
from repro.core.common.batch import RecordBatch
from repro.core.common.errors import StreamStateError
from repro.core.common.filters import Filter
from repro.core.common.granularity import Granularity
from repro.core.common.modality import ModalityType, OSN_MODALITIES
from repro.core.common.records import StreamRecord
from repro.core.common.stream_config import StreamConfig, StreamMode, merge_configs
from repro.core.mobile.filter_manager import MobileFilterManager
from repro.core.mobile.mqtt_service import MqttService
from repro.core.mobile.outbox import Outbox
from repro.core.mobile.privacy import PrivacyPolicyManager
from repro.core.mobile.stream import MobileStream, StreamState
from repro.device import calibration
from repro.device.phone import Smartphone
from repro.device.sensors.base import SensorReading
from repro.net.network import Network
from repro.obs import Healthcheck, Observability
from repro.sensing import ESSensorManager, SensingConfig
from repro.simkit.scheduler import PeriodicTask
from repro.simkit.world import World

#: Default period for reporting the device's location to the server
#: ("the user's geographic location is updated periodically at a time
#: interval that can be configured via the SenSocial Manager", §4).
DEFAULT_LOCATION_UPDATE_PERIOD_S = 300.0

#: Application-layer framing overhead per transmitted record, bytes.
_RECORD_FRAMING_BYTES = 96

#: How often the outbox sweep re-offers unacknowledged records.
OUTBOX_SWEEP_PERIOD_S = 15.0

#: Age after which an unacknowledged transmission is presumed lost.
OUTBOX_RETRY_TIMEOUT_S = 20.0

_PLATFORM_MODALITY = {
    "facebook": ModalityType.FACEBOOK_ACTIVITY,
    "twitter": ModalityType.TWITTER_ACTIVITY,
}


class User:
    """Client-side user handle (the paper's ``User`` instance)."""

    def __init__(self, manager: "MobileSenSocialManager", user_id: str):
        self._manager = manager
        self.user_id = user_id

    def get_device(self) -> "Device":
        return Device(self._manager)


class Device:
    """Client-side device handle exposing ``get_stream`` (Figure 7)."""

    def __init__(self, manager: "MobileSenSocialManager"):
        self._manager = manager
        self.device_id = manager.phone.device_id

    def get_stream(self, modality: ModalityType | str,
                   granularity: Granularity | str = Granularity.RAW,
                   send_to_server: bool = False) -> MobileStream:
        """Create a stream of ``modality`` at ``granularity``."""
        return self._manager.create_stream(
            ModalityType(modality), Granularity.parse(granularity),
            send_to_server=send_to_server)


class MobileSenSocialManager:
    """Singleton-per-device middleware core (mobile half)."""

    _instances: dict[str, "MobileSenSocialManager"] = {}

    def __init__(self, world: World, phone: Smartphone, network: Network,
                 classifiers: ClassifierRegistry | None = None,
                 broker_address: str = "mqtt-broker",
                 server_address: str = "sensocial-server",
                 batch_max: int = 1):
        if not isinstance(batch_max, int) or batch_max < 1:
            raise ValueError(f"batch_max must be an int >= 1, "
                             f"got {batch_max!r}")
        #: Coalesce up to this many queued records per wire envelope.
        #: Flush boundaries come from the virtual clock (outbox sweep /
        #: reconnect), never wall time, so batching stays deterministic.
        self.batch_max = batch_max
        self.world = world
        self.phone = phone
        self.network = network
        self.server_address = server_address
        self.classifiers = classifiers if classifiers is not None else ClassifierRegistry()
        self.sensing = ESSensorManager.get_for(world, phone)
        self.filter_manager = MobileFilterManager(
            world, phone, self.sensing, self.classifiers)
        self.privacy = PrivacyPolicyManager()
        self.privacy.on_policy_change(self._rescreen_streams)
        self.mqtt = MqttService(world, network, self, broker_address)
        self.streams: dict[str, MobileStream] = {}
        self._tasks: dict[str, PeriodicTask] = {}
        self._stream_classifiers: dict[str, Any] = {}
        self._privacy_reasons: dict[str, str] = {}
        self._stream_seq = itertools.count(1)
        self._record_seq = itertools.count(1)
        self._location_task: PeriodicTask | None = None
        self._outbox_task: PeriodicTask | None = None
        self._location_classifier = self.classifiers.create(
            "location", phone.battery, phone.cpu)
        self.triggers_handled = 0
        self.records_transmitted = 0
        self.records_acked = 0
        #: Envelope accounting, the uplink mirror of the broker's
        #: ``batch_publishes`` / ``batched_records_routed``: wire
        #: envelopes sent and the records they carried.  Equal values
        #: mean every flush was a batch of one (no backlog coalesced).
        self.batches_sent = 0
        self.batched_records_sent = 0
        #: Server-pushed sensing-rate backoff: continuous duty cycles
        #: are stretched by this factor.  1.0 = nominal rate, and the
        #: multiplication by exactly 1.0 keeps unbackoffed runs
        #: bit-identical.
        self.rate_backoff_factor = 1.0
        self.rate_backoffs_applied = 0
        #: Observability hub (``None`` when tracing/telemetry is off).
        self.obs = Observability.of(world)
        #: Store-and-forward queue for server-bound records: survives
        #: partitions and broker restarts; drained by server acks.
        self.outbox = Outbox()
        self.outbox.on_evict = self._on_outbox_evict
        phone.on_protocol("stream-batch-ack", self._on_stream_batch_ack)
        self.mqtt.client.on_connection_change(self._on_connectivity_change)
        #: OSN action → trigger arrival delays (Table 3's second row).
        self.trigger_latencies: list[float] = []
        phone.heap.allocate("sensocial-core",
                            calibration.HEAP_SENSOCIAL_CORE_MB,
                            calibration.HEAP_SENSOCIAL_CORE_OBJECTS)
        phone.cpu.set_load("sensocial-core", calibration.CPU_BASE_LOAD_PCT)

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def get_sensocial_manager(cls, world: World, phone: Smartphone,
                              network: Network,
                              **kwargs) -> "MobileSenSocialManager":
        """The paper's ``SenSocialManager.getSenSocialManager()``."""
        manager = cls._instances.get(phone.device_id)
        if manager is None or manager.world is not world:
            manager = cls(world, phone, network, **kwargs)
            cls._instances[phone.device_id] = manager
        return manager

    @classmethod
    def reset_instances(cls) -> None:
        """Forget all per-device singletons (tests/benches)."""
        cls._instances.clear()
        ESSensorManager.reset_instances()

    def start(self, location_update_period_s: float | None =
              DEFAULT_LOCATION_UPDATE_PERIOD_S) -> None:
        """Connect to the broker, register, begin location reporting."""
        self.mqtt.start()
        if location_update_period_s is not None and self._location_task is None:
            self._location_task = self.world.scheduler.every(
                location_update_period_s, self._report_location,
                delay=location_update_period_s / 2)
        if self._outbox_task is None:
            self._outbox_task = self.world.scheduler.every(
                OUTBOX_SWEEP_PERIOD_S, self._outbox_sweep,
                delay=OUTBOX_SWEEP_PERIOD_S)

    def stop(self) -> None:
        for stream_id in list(self.streams):
            self.destroy_stream(stream_id)
        if self._location_task is not None:
            self._location_task.cancel()
            self._location_task = None
        if self._outbox_task is not None:
            self._outbox_task.cancel()
            self._outbox_task = None
        self.mqtt.stop()

    # -- the paper's client API ------------------------------------------------

    def get_user_id(self) -> str:
        return self.phone.user_id

    def get_user(self, user_id: str) -> User:
        return User(self, user_id)

    # -- stream lifecycle ----------------------------------------------------------

    def create_stream(self, modality: ModalityType | str,
                      granularity: Granularity | str = Granularity.RAW, *,
                      stream_filter: Filter | None = None,
                      mode: StreamMode = StreamMode.CONTINUOUS,
                      settings: dict | None = None,
                      send_to_server: bool = False,
                      created_by: str = "mobile",
                      stream_id: str | None = None) -> MobileStream:
        """Create and activate a stream on this device."""
        modality = ModalityType(modality)
        granularity = Granularity.parse(granularity)
        if stream_id is None:
            stream_id = f"{self.phone.device_id}-s{next(self._stream_seq)}"
        config = StreamConfig(
            stream_id=stream_id,
            device_id=self.phone.device_id,
            modality=modality,
            granularity=granularity,
            mode=mode,
            filter=stream_filter if stream_filter is not None else Filter(),
            settings=dict(settings or {}),
            send_to_server=send_to_server,
            created_by=created_by,
        )
        return self.create_stream_from_config(config)

    def create_stream_from_config(self, config: StreamConfig) -> MobileStream:
        if config.stream_id in self.streams:
            raise StreamStateError(f"stream {config.stream_id!r} already exists")
        stream = MobileStream(self, config)
        self.streams[config.stream_id] = stream
        self.phone.heap.allocate(f"stream-{config.stream_id}",
                                 calibration.HEAP_PER_STREAM_MB,
                                 calibration.HEAP_PER_STREAM_OBJECTS)
        violation = self.privacy.screen(config)
        if self.obs is not None:
            self.obs.telemetry.counter(
                "privacy_screens", device=self.phone.device_id,
                blocked=violation is not None).inc()
        if violation is not None:
            stream.state = StreamState.PAUSED_PRIVACY
            self._privacy_reasons[config.stream_id] = violation
        else:
            self._activate(stream)
        return stream

    def get_stream(self, stream_id: str) -> MobileStream | None:
        return self.streams.get(stream_id)

    def active_streams(self) -> list[MobileStream]:
        return [stream for stream in self.streams.values()
                if stream.state is StreamState.ACTIVE]

    def privacy_block_reason(self, stream_id: str) -> str | None:
        """Why a stream is privacy-paused (``None`` if it is not)."""
        return self._privacy_reasons.get(stream_id)

    def reconfigure_stream(self, stream: MobileStream,
                           new_config: StreamConfig) -> None:
        """Swap a stream's config, re-screening and re-wiring sampling."""
        was_active = stream.state is StreamState.ACTIVE
        if was_active:
            self._deactivate(stream)
        stream.config = new_config
        violation = self.privacy.screen(new_config)
        if violation is not None:
            stream.state = StreamState.PAUSED_PRIVACY
            self._privacy_reasons[stream.stream_id] = violation
            return
        self._privacy_reasons.pop(stream.stream_id, None)
        if was_active or stream.state is StreamState.PAUSED_PRIVACY:
            stream.state = StreamState.ACTIVE
            self._activate(stream)

    def destroy_stream(self, stream_id: str, from_server: bool = False) -> None:
        stream = self.streams.pop(stream_id, None)
        if stream is None:
            return
        if stream.state is StreamState.ACTIVE:
            self._deactivate(stream)
        stream.state = StreamState.DESTROYED
        self._privacy_reasons.pop(stream_id, None)
        self._stream_classifiers.pop(stream_id, None)
        self.phone.heap.free(f"stream-{stream_id}")

    def on_stream_state_changed(self, stream: MobileStream) -> None:
        """Hook for application pause/resume."""
        if stream.state is StreamState.ACTIVE:
            self._activate(stream)
        else:
            self._deactivate(stream)

    # -- remote management ---------------------------------------------------------

    def handle_config_xml(self, xml: str) -> None:
        """A pushed stream definition arrived over MQTT."""
        downloaded = StreamConfig.from_xml(xml)
        if downloaded.device_id != self.phone.device_id:
            return
        existing = self.streams.get(downloaded.stream_id)
        if existing is None:
            self.create_stream_from_config(downloaded)
            return
        merged = merge_configs([existing.config], downloaded)[0]
        self.reconfigure_stream(existing, merged)

    def handle_trigger(self, trigger: dict) -> None:
        """An OSN action trigger arrived: run one-off sensing (§4)."""
        self.triggers_handled += 1
        action = trigger.get("action", {})
        if "created_at" in action:
            self.trigger_latencies.append(self.world.now - action["created_at"])
            if self.obs is not None:
                self.obs.telemetry.timer(
                    "trigger_arrival_delay",
                    device=self.phone.device_id).observe(
                        self.world.now - action["created_at"])
        platform_modality = _PLATFORM_MODALITY.get(action.get("platform"))
        if platform_modality is not None:
            self.filter_manager.context.mark_osn_active(platform_modality)
        target_ids = trigger.get("stream_ids")
        for stream in list(self.streams.values()):
            if stream.state is not StreamState.ACTIVE:
                continue
            if stream.mode is not StreamMode.SOCIAL_EVENT:
                continue
            if target_ids is not None and stream.stream_id not in target_ids:
                continue
            if not self._osn_conditions_match(stream, action):
                continue
            local = [condition for condition in
                     stream.config.filter.local_conditions()
                     if condition.modality not in OSN_MODALITIES]
            if not self.filter_manager.local_conditions_satisfied(local):
                stream.cycles_skipped += 1
                continue
            self.sensing.sense_once(
                stream.modality.value,
                lambda reading, stream=stream: self._on_reading(
                    stream, reading, osn_action=dict(action)))

    def _osn_conditions_match(self, stream: MobileStream, action: dict) -> bool:
        osn_conditions = [condition for condition in
                          stream.config.filter.osn_conditions()
                          if not condition.is_cross_user]
        return all(self.filter_manager.osn_condition_satisfied(condition, action)
                   for condition in osn_conditions)

    def apply_rate_backoff(self, factor: float) -> None:
        """Server-pushed adaptive sensing: stretch duty cycles by
        ``factor`` (1.0 restores the nominal rate).

        Reschedules every active continuous stream's sampling task at
        the scaled period; one-off (SOCIAL_EVENT) sensing is untouched,
        so OSN-triggered records keep flowing at full fidelity.
        """
        factor = max(1.0, float(factor))
        if factor == self.rate_backoff_factor:
            return
        self.rate_backoff_factor = factor
        self.rate_backoffs_applied += 1
        for stream in self.streams.values():
            if stream.state is not StreamState.ACTIVE:
                continue
            if stream.mode is not StreamMode.CONTINUOUS:
                continue
            task = self._tasks.pop(stream.stream_id, None)
            if task is None:
                continue
            task.cancel()
            sensing_config = SensingConfig.from_settings(
                stream.config.settings).scaled(factor)
            self._tasks[stream.stream_id] = self.world.scheduler.every(
                sensing_config.duty_cycle_s,
                lambda stream=stream: self._cycle(stream),
                delay=sensing_config.duty_cycle_s)
        if self.obs is not None:
            self.obs.telemetry.gauge(
                "sensing_rate_factor",
                device=self.phone.device_id).set(factor)
            self.obs.telemetry.counter(
                "rate_backoffs_applied",
                device=self.phone.device_id).inc()

    # -- sampling machinery -----------------------------------------------------------

    def _activate(self, stream: MobileStream) -> None:
        self.filter_manager.acquire_monitors(
            stream.config.filter.conditional_sensors())
        if stream.mode is StreamMode.CONTINUOUS:
            sensing_config = SensingConfig.from_settings(
                stream.config.settings).scaled(self.rate_backoff_factor)
            self._tasks[stream.stream_id] = self.world.scheduler.every(
                sensing_config.duty_cycle_s,
                lambda: self._cycle(stream),
                delay=self.phone.sensor(stream.modality.value).window_seconds)
        load = (calibration.CPU_SERVER_STREAM_PCT if stream.is_server_bound
                else calibration.CPU_LOCAL_STREAM_PCT)
        self.phone.cpu.set_load(f"stream-{stream.stream_id}", load)

    def _deactivate(self, stream: MobileStream) -> None:
        task = self._tasks.pop(stream.stream_id, None)
        if task is not None:
            task.cancel()
        self.filter_manager.release_monitors(
            stream.config.filter.conditional_sensors())
        self.phone.cpu.clear_load(f"stream-{stream.stream_id}")

    def _cycle(self, stream: MobileStream) -> None:
        """One duty cycle of a continuous stream: gate, then sample."""
        if stream.state is not StreamState.ACTIVE:
            return
        if not self.filter_manager.local_conditions_satisfied(
                stream.config.filter.local_conditions()):
            stream.cycles_skipped += 1
            if self.obs is not None:
                self.obs.telemetry.counter(
                    "filter_cycles_skipped", device=self.phone.device_id,
                    stream=stream.stream_id).inc()
            return
        self.sensing.sense_once(
            stream.modality.value,
            lambda reading: self._on_reading(stream, reading, osn_action=None))

    def _on_reading(self, stream: MobileStream, reading: SensorReading,
                    osn_action: dict | None) -> None:
        if stream.state is not StreamState.ACTIVE:
            return  # privacy or app pause landed while sensing
        obs = self.obs
        trace = None
        if obs is not None:
            trace = obs.tracer.start_trace(
                device=self.phone.device_id, stream=stream.stream_id,
                modality=stream.modality.value)
            obs.tracer.span(trace, "sense", start=reading.timestamp,
                            osn_triggered=osn_action is not None)
            obs.telemetry.counter("records_sensed",
                                  device=self.phone.device_id,
                                  modality=stream.modality.value).inc()
        self.filter_manager.context.update(stream.modality, reading.raw)
        if stream.granularity is Granularity.CLASSIFIED:
            classifier = self._stream_classifiers.get(stream.stream_id)
            if classifier is None:
                classifier = self.classifiers.create(
                    stream.modality.value, self.phone.battery, self.phone.cpu)
                self._stream_classifiers[stream.stream_id] = classifier
            classified = classifier.classify(reading)
            value, details = classified.label, classified.details
            wire_bytes = classified.wire_bytes
            if obs is not None:
                obs.tracer.span(trace, "classify", label=str(value))
        else:
            value, details = reading.raw, dict(reading.meta)
            wire_bytes = reading.wire_bytes
        record = StreamRecord(
            stream_id=stream.stream_id,
            user_id=self.phone.user_id,
            device_id=self.phone.device_id,
            modality=stream.modality,
            granularity=stream.granularity,
            timestamp=reading.timestamp,
            value=value,
            details=details,
            osn_action=osn_action,
            wire_bytes=wire_bytes,
            trace=trace,
        )
        stream.deliver(record)
        if obs is not None:
            obs.tracer.span(trace, "deliver_local",
                            listeners=stream.listener_count())
        if stream.is_server_bound:
            self.records_transmitted += 1
            payload = record.to_dict()
            payload["record_id"] = \
                f"{self.phone.device_id}-r{next(self._record_seq)}"
            entry = self.outbox.put(payload["record_id"], payload,
                                    wire_bytes + _RECORD_FRAMING_BYTES,
                                    self.world.now)
            if trace is not None:
                entry.meta["trace"] = trace
            if obs is not None:
                obs.tracer.event(trace, "outbox_enqueue",
                                 record_id=payload["record_id"])
                obs.telemetry.gauge(
                    "outbox_depth",
                    device=self.phone.device_id).set(len(self.outbox))
            if self.mqtt.client.connected:
                self._transmit_batch([entry])
        elif obs is not None:
            # Local-only records terminate here: the journey's scope
            # never includes the server.
            obs.tracer.mark_delivered(trace, scope="local")

    # -- reliable record transport ------------------------------------

    def _transmit_batch(self, entries) -> None:
        """Send queued records as one columnar wire envelope.

        The envelope's explicit size is the sum of the member sizes and
        the link draws once per member (``coalesced``), so radios, byte
        counters and the fault model account exactly as one-record
        envelopes would.  Each member is still individually
        outbox-tracked and individually acked (the server acks whole
        batches with a ``stream-batch-ack`` listing every id).
        """
        batch = RecordBatch.from_documents(
            [entry.payload for entry in entries])
        self.phone.send(self.server_address, "stream-batch",
                        batch.to_payload(),
                        size=sum(entry.size for entry in entries),
                        coalesced=len(entries))
        self.batches_sent += 1
        self.batched_records_sent += len(entries)
        now = self.world.now
        obs = self.obs
        for entry in entries:
            self.outbox.mark_sent(entry.record_id, now)
            if obs is not None:
                obs.tracer.event(entry.meta.get("trace"), "transmit",
                                 attempt=entry.sends)
                obs.telemetry.counter(
                    "records_transmitted", device=self.phone.device_id,
                    retry=entry.sends > 1).inc()
        if obs is not None:
            obs.telemetry.histogram(
                "batch_size", stage="publish").observe(len(entries))

    def _flush_outbox(self, force: bool = False) -> None:
        """(Re)send every due unacknowledged record while connected.

        Due records coalesce into envelopes of up to ``batch_max``
        members — the flush boundary (sweep tick or reconnect) is the
        batch boundary.
        """
        if not self.mqtt.client.connected:
            return  # store and forward: the reconnect callback flushes
        due = list(self.outbox.due(self.world.now, OUTBOX_RETRY_TIMEOUT_S,
                                   force=force))
        for start in range(0, len(due), self.batch_max):
            self._transmit_batch(due[start:start + self.batch_max])

    def _outbox_sweep(self) -> None:
        self._flush_outbox(force=False)

    def _on_connectivity_change(self, connected: bool) -> None:
        if connected:
            # Anything sent into the dying link is suspect: replay it
            # all; the server's dedup window absorbs the duplicates.
            self._flush_outbox(force=True)

    def _on_stream_batch_ack(self, payload, message) -> None:
        """One ack envelope settles every member it lists."""
        outbox = self.outbox
        obs = self.obs
        acked = 0
        for record_id in payload["record_ids"]:
            entry = outbox.get(record_id)
            if not outbox.ack(record_id):
                continue
            acked += 1
            if obs is not None and entry is not None:
                # The outbox span closes on the server's ack: the full
                # store-and-forward residence time of the record.
                obs.tracer.span(entry.meta.get("trace"), "outbox",
                                start=entry.enqueued_at,
                                sends=entry.sends)
        self.records_acked += acked
        if obs is not None and acked:
            obs.telemetry.gauge(
                "outbox_depth",
                device=self.phone.device_id).set(len(outbox))

    def _on_outbox_evict(self, entry) -> None:
        """The bounded outbox overflowed: the oldest record is gone."""
        if self.obs is not None:
            self.obs.tracer.mark_dropped(entry.meta.get("trace"),
                                         "outbox", "evicted_oldest")
            self.obs.telemetry.counter(
                "records_dropped", device=self.phone.device_id,
                stage="outbox", reason="evicted_oldest").inc()

    def health(self) -> dict[str, Any]:
        """Degraded-operation status of this device's middleware.

        Uniform :class:`repro.obs.Healthcheck` schema (``status`` /
        ``detail`` / ``counters``) with the counters also flattened at
        the top level for older consumers.
        """
        client = self.mqtt.client
        status = Healthcheck.status_for(client.connected,
                                        backlog=len(self.outbox))
        last_drop = (self.network.last_drop(self.phone.address)
                     or self.network.last_drop(client.address))
        return Healthcheck.build(
            status=status,
            detail=(f"device {self.phone.device_id}: "
                    f"{'connected' if client.connected else 'disconnected'}, "
                    f"{len(self.outbox)} queued"),
            counters={
                "queued": len(self.outbox),
                "enqueued": self.outbox.enqueued,
                "dropped": self.outbox.dropped_oldest,
                "acked": self.records_acked,
                "retransmissions": self.outbox.retransmissions,
                "connection_losses": client.connection_losses,
                "reconnects": client.reconnects,
                "net_drops": (self.network.drop_count(self.phone.address)
                              + self.network.drop_count(client.address)),
            },
            device_id=self.phone.device_id,
            connected=client.connected,
            last_seen=client.last_inbound,
            last_net_drop=last_drop,
        )

    # -- location reporting ------------------------------------------------------------

    def _report_location(self) -> None:
        self.sensing.sense_once("location", self._send_location)

    def _send_location(self, reading: SensorReading) -> None:
        classified = self._location_classifier.classify(reading)
        self.phone.send(self.server_address, "location-update", {
            "user_id": self.phone.user_id,
            "device_id": self.phone.device_id,
            "lon": reading.raw["lon"],
            "lat": reading.raw["lat"],
            "place": classified.label,
            "timestamp": reading.timestamp,
        })

    # -- privacy ----------------------------------------------------------------------

    def _rescreen_streams(self) -> None:
        """Policy change: pause violators, resume cleared streams (§4)."""
        for stream in self.streams.values():
            violation = self.privacy.screen(stream.config)
            if violation is not None and stream.state is StreamState.ACTIVE:
                self._deactivate(stream)
                stream.state = StreamState.PAUSED_PRIVACY
                self._privacy_reasons[stream.stream_id] = violation
            elif violation is None and stream.state is StreamState.PAUSED_PRIVACY:
                self._privacy_reasons.pop(stream.stream_id, None)
                stream.state = StreamState.ACTIVE
                self._activate(stream)
