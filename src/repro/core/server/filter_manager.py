"""Server Filter Manager: cross-user conditions over incoming streams.

"These filters can include data from multiple users, as streams coming
from one user can be conditioned on data coming from another user"
(§3.2).  The manager keeps a per-user context cache fed by every
incoming record and by OSN actions, and suppresses records whose
cross-user conditions do not hold.

Hot-path design: streams register their filters as *gates*.  A gate
pre-extracts the cross-user conditions once, records which
``(user, modality)`` context cells they read, and caches its verdict.
Incoming records only invalidate the gates that actually depend on the
modality they carry — so a stream conditioned on user A's activity is
never re-evaluated because user B sent an accelerometer sample.  Time
only enters through OSN activity windows, so a cached verdict computed
while a window was open carries a ``valid_until`` at the earliest
window expiry; everything else stays valid until an invalidation.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.common.conditions import Condition, Operator
from repro.core.common.filters import Filter
from repro.core.common.modality import (
    CLASSIFIED_FOR,
    OSN_MODALITIES,
    ModalityType,
    ModalityValue,
)
from repro.core.common.granularity import Granularity
from repro.core.common.records import StreamRecord
from repro.simkit.world import World

#: How long an OSN action keeps a user's platform modality "active"
#: for cross-user conditions.
OSN_ACTIVE_WINDOW_S = 120.0

_VIRTUAL_OF_SENSOR = {sensor: virtual for virtual, sensor in CLASSIFIED_FOR.items()}


class _Gate:
    """One stream's cross-user conditions plus its cached verdict."""

    __slots__ = ("source", "cross", "deps", "verdict", "valid_until")

    def __init__(self, source: Filter):
        self.source = source
        self.cross: list[Condition] = source.server_conditions()
        self.deps: frozenset[tuple[str, ModalityType]] = frozenset(
            (condition.user_id, condition.modality)
            for condition in self.cross)
        self.verdict: bool | None = None
        self.valid_until = -math.inf


class ServerFilterManager:
    """Per-user context plus cross-user condition evaluation."""

    def __init__(self, world: World):
        self._world = world
        self._context: dict[str, dict[ModalityType, Any]] = {}
        self._osn_active_until: dict[tuple[str, ModalityType], float] = {}
        self.conditions_evaluated = 0
        #: Stream gates keyed by stream id, and the inverted dependency
        #: index (context cell -> gate keys) that drives invalidation.
        self._gates: dict[str, _Gate] = {}
        self._dependents: dict[tuple[str, ModalityType], set[str]] = {}
        self.gate_cache_hits = 0
        self.gate_evaluations = 0

    # -- context maintenance ---------------------------------------------------

    def observe_record(self, record: StreamRecord) -> None:
        """Fold an incoming record into its user's context."""
        user_context = self._context.setdefault(record.user_id, {})
        user_context[record.modality] = record.value
        self._invalidate(record.user_id, record.modality)
        if record.granularity is Granularity.CLASSIFIED:
            virtual = _VIRTUAL_OF_SENSOR.get(record.modality)
            if virtual is not None:
                user_context[virtual] = record.value
                self._invalidate(record.user_id, virtual)

    def observe_batch(self, batch) -> None:
        """Columnar :meth:`observe_record`: fold a whole batch into the
        context without materializing record objects."""
        # Mutation-for-mutation identical to observe_record per
        # reconstructed record in batch order — the batched ingest
        # fast path uses it when nothing downstream needs the records,
        # so the context (and every later gate verdict) cannot tell
        # the two apart.
        modality_of: dict[str, ModalityType] = {}
        context = self._context
        classified = Granularity.CLASSIFIED.value
        for user_id, wire_modality, value, granularity in zip(
                batch.user_ids, batch.modalities, batch.values,
                batch.granularities):
            modality = modality_of.get(wire_modality)
            if modality is None:
                modality = modality_of[wire_modality] = (
                    ModalityType(wire_modality))
            user_context = context.setdefault(user_id, {})
            user_context[modality] = value
            self._invalidate(user_id, modality)
            if granularity == classified:
                virtual = _VIRTUAL_OF_SENSOR.get(modality)
                if virtual is not None:
                    user_context[virtual] = value
                    self._invalidate(user_id, virtual)

    def observe_location(self, user_id: str, place: str | None) -> None:
        if place is not None:
            self._context.setdefault(user_id, {})[ModalityType.PLACE] = place
            self._invalidate(user_id, ModalityType.PLACE)

    def mark_osn_active(self, user_id: str, modality: ModalityType,
                        window_s: float = OSN_ACTIVE_WINDOW_S) -> None:
        self._osn_active_until[(user_id, modality)] = self._world.now + window_s
        self._invalidate(user_id, modality)

    # -- stream gates ----------------------------------------------------------

    def stream_allows(self, key: str, stream_filter: Filter) -> bool:
        """Do ``stream_filter``'s cross-user conditions hold right now?

        Registration is implicit and keyed on the filter's identity, so
        a stream whose filter was swapped re-registers on first use.
        Verdicts are cached until a depended-on context cell changes or
        an OSN activity window involved in the verdict expires.
        """
        gate = self._gates.get(key)
        if gate is None or gate.source is not stream_filter:
            gate = self._register(key, stream_filter)
        if not gate.cross:
            return True
        if gate.verdict is not None and self._world.now < gate.valid_until:
            self.gate_cache_hits += 1
            return gate.verdict
        self.gate_evaluations += 1
        verdict, valid_until = self._evaluate(gate.cross)
        gate.verdict = verdict
        gate.valid_until = valid_until
        return verdict

    def drop_gate(self, key: str) -> None:
        """Forget a destroyed stream's gate."""
        gate = self._gates.pop(key, None)
        if gate is None:
            return
        for dep in gate.deps:
            dependents = self._dependents.get(dep)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._dependents[dep]

    def _register(self, key: str, stream_filter: Filter) -> _Gate:
        self.drop_gate(key)
        gate = _Gate(stream_filter)
        self._gates[key] = gate
        for dep in gate.deps:
            self._dependents.setdefault(dep, set()).add(key)
        return gate

    def _invalidate(self, user_id: str, modality: ModalityType) -> None:
        dependents = self._dependents.get((user_id, modality))
        if not dependents:
            return
        for key in dependents:
            self._gates[key].verdict = None

    # -- evaluation -----------------------------------------------------------------

    def _evaluate(self, cross: list[Condition]) -> tuple[bool, float]:
        """Evaluate pre-filtered cross-user conditions; also returns
        how long the verdict stays valid absent context changes (open
        OSN windows are the only time-dependent input)."""
        now = self._world.now
        valid_until = math.inf
        for condition in cross:
            self.conditions_evaluated += 1
            if condition.modality in OSN_MODALITIES:
                until = self._osn_active_until.get(
                    (condition.user_id, condition.modality), -1.0)
                active = now < until
                if active:
                    valid_until = min(valid_until, until)
                observed: Any = (ModalityValue.ACTIVE if active
                                 else "inactive")
                # "equals active" means the user acted recently; other
                # operators compare against the same activity flag.
                if condition.operator is Operator.EQUALS and \
                        condition.value == ModalityValue.ACTIVE:
                    if not active:
                        return False, valid_until
                    continue
            else:
                observed = self._context.get(
                    condition.user_id, {}).get(condition.modality)
            if not condition.evaluate(observed):
                return False, valid_until
        return True, valid_until
