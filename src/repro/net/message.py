"""Network messages and payload size estimation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def estimate_size(payload: Any) -> int:
    """Approximate the wire size of a payload, in bytes.

    The simulation does not serialise payloads for real; it charges
    radio energy proportionally to this estimate, which mimics a JSON
    encoding: strings and numbers cost their textual length, containers
    add per-element framing overhead.

    One walk per payload: the exact builtin types are dispatched first,
    and a dict's or list's ``str``/``int``/``float``/``None`` members
    are sized inline rather than by a call each.  An ASCII string's
    UTF-8 length is its ``len`` (``str.isascii`` is O(1)).  Everything
    else (bools, bytes, sets, subclasses such as ``str`` enums, MQTT
    packets) takes :func:`_estimate_other`, and every type costs what
    it always has.
    """
    cls = type(payload)
    if cls is dict:
        total = 2
        for key, value in payload.items():
            if type(key) is str and key.isascii():
                total += len(key) + 4  # quotes, plus the pair's framing
            else:
                total += estimate_size(key) + 2
            cls = type(value)
            if cls is str:
                total += (len(value) if value.isascii()
                          else len(value.encode("utf-8"))) + 2
            elif cls is int or cls is float:
                total += len(repr(value))
            elif value is None:
                total += 4
            else:
                total += estimate_size(value)
        return total
    if cls is list or cls is tuple:
        total = 2 + len(payload)  # brackets, plus one separator per item
        for item in payload:
            cls = type(item)
            if cls is str:
                total += (len(item) if item.isascii()
                          else len(item.encode("utf-8"))) + 2
            elif cls is int or cls is float:
                total += len(repr(item))
            elif item is None:
                total += 4
            else:
                total += estimate_size(item)
        return total
    if cls is str:
        return (len(payload) if payload.isascii()
                else len(payload.encode("utf-8"))) + 2
    if cls is int or cls is float:
        return len(repr(payload))
    if payload is None:
        return 4
    return _estimate_other(payload)


def _estimate_other(payload: Any) -> int:
    """Sizes of the types :func:`estimate_size` does not dispatch."""
    if isinstance(payload, bool):
        return 5
    if isinstance(payload, (int, float)):
        return len(repr(payload))
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 2
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 2 + sum(estimate_size(k) + estimate_size(v) + 2
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 2 + sum(estimate_size(item) + 1 for item in payload)
    return len(repr(payload))


@dataclass(slots=True)
class Message:
    """One message in flight between two endpoints."""

    src: str
    dst: str
    payload: Any
    size: int
    sent_at: float
    headers: dict[str, Any] = field(default_factory=dict)
    delivered_at: float | None = None

    @property
    def latency(self) -> float | None:
        """One-way delay, available once delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at
