"""Per-source fair admission: weighted queues behind the intake API.

The single global FIFO of :class:`~repro.durability.admission.
AdmissionController` lets one chatty device starve everyone else: its
records fill the queue, and watermark shedding victimises whoever's
records happen to be oldest.  :class:`FairAdmissionController` keeps
one FIFO *per source* (device/tenant) behind the exact same external
API and changes two policies:

- **draining** is weighted round-robin across sources — a source with
  weight *w* gets *w* pops per cycle, so a backlogged device cannot
  monopolise the drain pump;
- **shedding** victimises the source with the largest backlog first
  (the heaviest talker pays for the overload it caused), oldest
  continuous record within it.  OSN-triggered records (priority 1)
  keep their global protection: watermark shedding never touches
  them, and only a hard capacity overflow with *no* continuous record
  anywhere may take one.

Deterministic throughout: round-robin order is source insertion
order, backlog ties break lexicographically, and nothing draws from
an RNG — a run with fair admission enabled is exactly reproducible
from the seed.
"""

from __future__ import annotations

from collections import deque

from repro.durability.admission import IntakeItem


class FairAdmissionController:
    """Weighted per-source intake, API-compatible with the global FIFO."""

    def __init__(self, capacity: int, high_watermark: float = 0.75,
                 low_watermark: float = 0.5,
                 weights: dict[str, int] | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._weights = dict(weights or {})
        self._queues: dict[str, deque[IntakeItem]] = {}
        #: Source order for the round-robin cursor (insertion order).
        self._order: list[str] = []
        self._cursor = 0
        self._served = 0
        #: Failed-apply retries jump every queue (same retry-next-tick
        #: semantics as the global controller's appendleft).
        self._retry: deque[IntakeItem] = deque()
        self._pending_ids: set[str] = set()
        self._size = 0
        self.admitted = 0
        self.shed = 0
        self.max_depth = 0
        self.admitted_by_source: dict[str, int] = {}
        self.shed_by_source: dict[str, int] = {}

    # -- sources ------------------------------------------------------

    @staticmethod
    def source_of(item: IntakeItem) -> str:
        source = item.batch.device_id
        return source if source is not None else "?"

    def weight(self, source: str) -> int:
        return max(1, int(self._weights.get(source, 1)))

    def _queue_for(self, source: str) -> deque:
        queue = self._queues.get(source)
        if queue is None:
            queue = self._queues[source] = deque()
            self._order.append(source)
        return queue

    # -- intake -------------------------------------------------------

    def admit(self, item: IntakeItem) -> list[IntakeItem]:
        """Enqueue ``item``; returns the records shed to make room."""
        source = self.source_of(item)
        self._queue_for(source).append(item)
        self._size += 1
        self._pending_ids.update(item.record_ids())
        self.admitted += 1
        self.admitted_by_source[source] = \
            self.admitted_by_source.get(source, 0) + 1
        self.max_depth = max(self.max_depth, self._size)
        victims: list[IntakeItem] = []
        if self._size > self.capacity:
            victims.extend(self._shed_to(self.capacity,
                                         continuous_only=False))
        if self._size >= self.high_watermark * self.capacity:
            target = int(self.low_watermark * self.capacity)
            victims.extend(self._shed_to(target, continuous_only=True))
        for victim in victims:
            self.shed += 1
            victim_source = self.source_of(victim)
            self.shed_by_source[victim_source] = \
                self.shed_by_source.get(victim_source, 0) + 1
        return victims

    def _shed_to(self, target: int, *,
                 continuous_only: bool) -> list[IntakeItem]:
        victims: list[IntakeItem] = []
        while self._size > target:
            victim = self._pick_victim(continuous_only)
            if victim is None:
                break  # only OSN records left; watermark shedding stops
            source, item = victim
            self._queues[source].remove(item)
            self._size -= 1
            self._forget(item)
            victims.append(item)
        return victims

    def _pick_victim(self,
                     continuous_only: bool) -> tuple[str, IntakeItem] | None:
        """Oldest continuous record of the most-backlogged source; on
        hard overflow with no continuous anywhere, the oldest record of
        the most-backlogged source regardless of priority."""
        by_backlog = sorted(
            (source for source in self._order if self._queues[source]),
            key=lambda source: (-len(self._queues[source]), source))
        for source in by_backlog:
            for item in self._queues[source]:
                if item.priority == 0:
                    return source, item
        if continuous_only or not by_backlog:
            return None
        source = by_backlog[0]
        return source, self._queues[source][0]

    # -- drain --------------------------------------------------------

    def pop(self) -> IntakeItem | None:
        """Next record by weighted round-robin, or ``None`` when idle."""
        if self._retry:
            item = self._retry.popleft()
            self._size -= 1
            self._forget(item)
            return item
        if self._size == 0:
            return None
        occupied = [source for source in self._order if self._queues[source]]
        if not occupied:
            return None
        # Advance the cursor to the next occupied source, honouring the
        # current source's remaining weight credit.
        for _ in range(len(self._order) + 1):
            source = self._order[self._cursor % len(self._order)]
            queue = self._queues.get(source)
            if queue and self._served < self.weight(source):
                self._served += 1
                item = queue.popleft()
                self._size -= 1
                self._forget(item)
                if self._served >= self.weight(source):
                    self._cursor = (self._cursor + 1) % len(self._order)
                    self._served = 0
                return item
            self._cursor = (self._cursor + 1) % len(self._order)
            self._served = 0
        return None  # pragma: no cover - occupied is non-empty above

    def requeue(self, item: IntakeItem) -> None:
        """Put a failed-apply record back at the head for a retry."""
        self._retry.appendleft(item)
        self._size += 1
        self._pending_ids.update(item.record_ids())

    def pending(self, record_id: str) -> bool:
        return record_id in self._pending_ids

    def wipe(self) -> list[IntakeItem]:
        """Crash: volatile intake is lost (unacked, will retransmit)."""
        wiped = list(self._retry)
        for source in self._order:
            wiped.extend(self._queues[source])
            self._queues[source].clear()
        self._retry.clear()
        self._pending_ids.clear()
        self._size = 0
        self._served = 0
        return wiped

    def _forget(self, item: IntakeItem) -> None:
        for record_id in item.record_ids():
            self._pending_ids.discard(record_id)

    def __len__(self) -> int:
        return self._size

    # -- introspection ------------------------------------------------

    def fairness_report(self) -> dict[str, dict[str, int]]:
        """Per-source admitted/shed/depth/weight accounting."""
        return {source: {
            "admitted": self.admitted_by_source.get(source, 0),
            "shed": self.shed_by_source.get(source, 0),
            "depth": len(self._queues[source]),
            "weight": self.weight(source),
        } for source in sorted(self._order)}
