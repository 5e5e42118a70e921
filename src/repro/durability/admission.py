"""Admission control: a bounded intake queue with watermark shedding.

The server's durable ingest path decouples *receiving* a record from
*applying* it: arrivals enter a bounded FIFO intake queue and a drain
pump applies them at the pace the storage medium sustains.  When
intake outruns drain the queue sheds load instead of growing without
bound:

- past the **high watermark** it sheds down to the **low watermark**,
  oldest lowest-priority first;
- watermark shedding only ever victimises *continuous* records
  (priority 0) — OSN-triggered records (priority 1) are the events
  the middleware exists to capture and are never shed before every
  continuous record is gone;
- only a **hard capacity** overflow may shed an OSN record, and then
  only when the queue holds nothing of lower priority.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any


@dataclass
class IntakeItem:
    """One admitted batch waiting in the intake queue."""

    #: The :class:`~repro.core.common.batch.RecordBatch` to apply.
    batch: Any
    reply_to: str | None
    #: 1 when any member is OSN-triggered, 0 for continuous samples.
    priority: int
    enqueued_at: float
    #: Failed apply attempts (storage write errors) so far.
    attempts: int = 0

    def record_ids(self) -> tuple[str, ...]:
        """The dedupable ids of the members.  Pending-id bookkeeping
        must cover every member — a retransmission of a record queued
        inside a larger batch has to hit the pending short-circuit,
        not re-enter intake."""
        return tuple(record_id for record_id in self.batch.record_ids
                     if record_id is not None)


class AdmissionController:
    """Bounded FIFO intake with priority-aware load shedding."""

    def __init__(self, capacity: int, high_watermark: float = 0.75,
                 low_watermark: float = 0.5):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._queue: deque[IntakeItem] = deque()
        self._pending_ids: set[str] = set()
        self.admitted = 0
        self.shed = 0
        self.max_depth = 0

    # -- intake -------------------------------------------------------

    def admit(self, item: IntakeItem) -> list[IntakeItem]:
        """Enqueue ``item``; returns the records shed to make room.

        The new item itself may be among the victims when it is the
        lowest-priority entry of a full queue.
        """
        self._queue.append(item)
        self._pending_ids.update(item.record_ids())
        self.admitted += 1
        self.max_depth = max(self.max_depth, len(self._queue))
        victims: list[IntakeItem] = []
        if len(self._queue) > self.capacity:
            # Hard overflow: get back under capacity no matter what.
            victims.extend(self._shed_to(self.capacity, continuous_only=False))
        if len(self._queue) >= self.high_watermark * self.capacity:
            target = int(self.low_watermark * self.capacity)
            victims.extend(self._shed_to(target, continuous_only=True))
        for victim in victims:
            self.shed += 1
        return victims

    def _shed_to(self, target: int, *, continuous_only: bool) -> list[IntakeItem]:
        victims: list[IntakeItem] = []
        while len(self._queue) > target:
            victim = self._pick_victim(continuous_only)
            if victim is None:
                break  # only OSN records left; watermark shedding stops
            self._queue.remove(victim)
            self._forget(victim)
            victims.append(victim)
        return victims

    def _pick_victim(self, continuous_only: bool) -> IntakeItem | None:
        """Oldest continuous record, else (hard overflow only) oldest."""
        for item in self._queue:
            if item.priority == 0:
                return item
        if continuous_only or not self._queue:
            return None
        return self._queue[0]

    # -- drain --------------------------------------------------------

    def pop(self) -> IntakeItem | None:
        """Oldest admitted record, or None when the queue is idle."""
        if not self._queue:
            return None
        item = self._queue.popleft()
        self._forget(item)
        return item

    def requeue(self, item: IntakeItem) -> None:
        """Put a failed-apply record back at the head for a retry."""
        self._queue.appendleft(item)
        self._pending_ids.update(item.record_ids())

    def pending(self, record_id: str) -> bool:
        """True when ``record_id`` is waiting in the queue — the
        retransmission of a not-yet-durable record is ignored, not
        acked, so the sender keeps retrying until the apply lands."""
        return record_id in self._pending_ids

    def wipe(self) -> list[IntakeItem]:
        """Crash: volatile intake is lost.  Returns what was wiped —
        unacked, so senders retransmit it all after the restart."""
        wiped = list(self._queue)
        self._queue.clear()
        self._pending_ids.clear()
        return wiped

    def _forget(self, item: IntakeItem) -> None:
        for record_id in item.record_ids():
            self._pending_ids.discard(record_id)

    def __len__(self) -> int:
        return len(self._queue)
