"""Server-side stream handles.

"If instantiated on the server, a stream transparently controls sensor
sampling on the associated mobile(s)" (§4): the handle's mutations are
pushed to the device as configuration XML, and records flowing back
from the device are delivered to the handle's listeners after
server-side filtering.
"""

from __future__ import annotations

from typing import Callable

from repro.core.common.filters import Filter
from repro.core.common.records import StreamRecord
from repro.core.common.stream_config import StreamConfig

RecordListener = Callable[[StreamRecord], None]


class ServerStream:
    """A remotely managed stream, owned by the server manager."""

    def __init__(self, manager, config: StreamConfig, user_id: str,
                 seq: int):
        self._manager = manager
        self.config = config
        self.user_id = user_id
        #: Creation order (the ``N`` of ``srv-sN``): OSN trigger fan-out
        #: goes out in this order, on whichever partition holds the stream.
        self.seq = seq
        self.destroyed = False
        self._listeners: list[RecordListener] = []
        self.records_received = 0
        self.records_suppressed = 0  # failed a cross-user condition

    @property
    def stream_id(self) -> str:
        return self.config.stream_id

    @property
    def device_id(self) -> str:
        return self.config.device_id

    # -- application API -----------------------------------------------------

    def add_listener(self, listener: RecordListener) -> "ServerStream":
        self._listeners.append(listener)
        return self

    def remove_listener(self, listener: RecordListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def set_filter(self, stream_filter: Filter) -> "ServerStream":
        """Replace the filter and re-push the configuration."""
        self._manager.update_stream_filter(self, stream_filter)
        return self

    def configure(self, settings: dict) -> "ServerStream":
        """Update the sensing settings and re-push the configuration."""
        self._manager.update_stream_settings(self, settings)
        return self

    def destroy(self) -> None:
        self._manager.destroy_stream(self.stream_id)

    # -- manager-facing ---------------------------------------------------------

    def deliver(self, record: StreamRecord) -> None:
        self.records_received += 1
        for listener in list(self._listeners):
            listener(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ServerStream {self.stream_id} user={self.user_id} "
                f"{self.config.modality.value}/{self.config.granularity.value}>")
