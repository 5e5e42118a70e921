"""Aggregators: many streams in, one joined stream out (§3.1).

"In an aggregator, data from individual streams is multiplexed to the
same join stream, which can further be processed as any other stream
in the system" — so an aggregator exposes the same listener/filter
surface as a stream and remembers arrival order.
"""

from __future__ import annotations

from typing import Callable

from repro.core.common.filters import Filter
from repro.core.common.records import StreamRecord
from repro.core.server.server_stream import ServerStream

RecordListener = Callable[[StreamRecord], None]


class Aggregator:
    """Wraps streams into a single aggregated stream."""

    def __init__(self, name: str):
        self.name = name
        self._members: list[ServerStream] = []
        self._listeners: list[RecordListener] = []
        self._filter = Filter()
        self.records_out = 0

    # -- membership ------------------------------------------------------------

    def add_stream(self, stream: ServerStream) -> "Aggregator":
        """Multiplex ``stream`` into this aggregator."""
        if stream not in self._members:
            self._members.append(stream)
            stream.add_listener(self._on_record)
        return self

    def remove_stream(self, stream: ServerStream) -> None:
        if stream in self._members:
            self._members.remove(stream)
            stream.remove_listener(self._on_record)

    @classmethod
    def wrap(cls, name: str, streams: list[ServerStream]) -> "Aggregator":
        """Build an aggregator over ``streams`` in one call."""
        aggregator = cls(name)
        for stream in streams:
            aggregator.add_stream(stream)
        return aggregator

    # -- stream-like surface ------------------------------------------------------

    def add_listener(self, listener: RecordListener) -> "Aggregator":
        self._listeners.append(listener)
        return self

    def set_filter(self, aggregate_filter: Filter) -> "Aggregator":
        """Post-filter the joined stream (local, value-based conditions).

        Evaluated against each record's classified value: a condition
        on the record's own modality family passes records through,
        any other modality is ignored (the member streams already did
        their own filtering).
        """
        self._filter = aggregate_filter
        return self

    def _on_record(self, record: StreamRecord) -> None:
        for condition in self._filter.conditions:
            if condition.is_cross_user:
                continue
            if not condition.evaluate(record.value):
                return
        self.records_out += 1
        for listener in list(self._listeners):
            listener(record)
