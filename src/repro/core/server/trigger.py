"""Trigger Manager: the controlled server→mobile communication link.

"Triggers can carry either stream configuration information or signals
to start sensing based on an OSN action" (§3.2).  Action triggers are
compiled into a JSON-formatted string and handed to the MQTT broker
(§4).  Server-side processing (querying the user registry, compiling
the trigger) takes a few seconds — the ~9 s gap between Table 3's
OSN-to-server and OSN-to-mobile delays — modelled as a delay drawn
before the publish.
"""

from __future__ import annotations

import json

from repro.core.common.stream_config import StreamConfig
from repro.core.mobile.mqtt_service import (
    device_config_topic,
    device_destroy_topic,
    device_rate_topic,
    device_trigger_topic,
)
from repro.device import calibration
from repro.mqtt.client import MqttClient
from repro.net.latency import GaussianLatency, LatencyModel
from repro.osn.actions import OsnAction
from repro.simkit.world import World


class TriggerManager:
    """Publishes triggers, stream configs and destroy notices to devices."""

    def __init__(self, world: World, client: MqttClient,
                 processing_delay: LatencyModel | None = None):
        self._world = world
        self._client = client
        if processing_delay is None:
            processing_delay = GaussianLatency(
                calibration.SERVER_PROCESSING_MEAN_S,
                calibration.SERVER_PROCESSING_SIGMA_S,
                floor=0.5)
        self._processing_delay = processing_delay
        self._rng = world.rng("trigger-manager")
        self.triggers_sent = 0
        self.configs_pushed = 0
        self.rates_pushed = 0

    def send_action_trigger(self, device_id: str, action: OsnAction,
                            stream_ids: list[str] | None = None) -> None:
        """Compile the OSN action into a JSON trigger and push it.

        ``stream_ids`` targets specific social-event streams; ``None``
        lets every event-based stream on the device react (the user's
        own actions).
        """
        payload = json.dumps({
            "action": action.to_document(),
            "stream_ids": stream_ids,
        })
        delay = self._processing_delay.sample(self._rng)
        self._world.scheduler.schedule(delay, self._publish,
                                       device_trigger_topic(device_id), payload)

    def push_config(self, config: StreamConfig) -> None:
        """Notify the device to download/merge a stream definition."""
        self.configs_pushed += 1
        self._client.publish_or_hold(device_config_topic(config.device_id),
                                     config.to_xml(), qos=1)

    def push_rate(self, device_id: str, factor: float,
                  reason: str = "") -> None:
        """Push a sensing-rate backoff/restore (SLO control loop)."""
        self.rates_pushed += 1
        self._client.publish_or_hold(device_rate_topic(device_id),
                                     json.dumps({"factor": factor,
                                                 "reason": reason}), qos=1)

    def push_destroy(self, device_id: str, stream_id: str) -> None:
        self._client.publish_or_hold(device_destroy_topic(device_id),
                                     json.dumps({"stream_id": stream_id}), qos=1)

    def _publish(self, topic: str, payload: str) -> None:
        self.triggers_sent += 1
        # An OSN action can arrive during any outage of the server's
        # MQTT session; the client holds the trigger until it is back.
        self._client.publish_or_hold(topic, payload, qos=1)
