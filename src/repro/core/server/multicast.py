"""Multicast streams: one handle over many geographically or
OSN-related devices (§3.1/§3.2).

A multicast stream selects its member users through a query over the
server database — geographic location ("users in Paris", "users within
2 km of a point") and/or OSN links ("friends of A") — instantiates a
per-device stream on every member, and transparently distributes
filters and settings to all of them.  ``refresh()`` re-evaluates the
query; the manager calls it when member-relevant state (a location
update) changes, which implements the §3.2 geo-fenced example where
streams follow a moving person.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.common.errors import MiddlewareError
from repro.core.common.filters import Filter
from repro.core.common.granularity import Granularity
from repro.core.common.modality import ModalityType
from repro.core.common.records import StreamRecord
from repro.core.common.stream_config import StreamMode
from repro.core.server.server_stream import ServerStream

RecordListener = Callable[[StreamRecord], None]


@dataclass(frozen=True)
class MulticastQuery:
    """Member selection: geo and OSN clauses are ANDed together."""

    #: Users whose classified place equals this city name.
    place: str | None = None
    #: Users within ``near_km`` of ``near_point`` ([lon, lat]).
    near_point: tuple[float, float] | None = None
    near_km: float = 5.0
    #: Users currently collocated with this user (§3.2's "sensor data
    #: gathering from users who are collocated with a specific person");
    #: membership follows the person as they move.
    near_user: str | None = None
    near_user_km: float = 1.0
    #: OSN friends of this user (within ``hops`` friendship hops).
    friends_of: str | None = None
    hops: int = 1
    #: Explicit user list (intersected with the other clauses).
    user_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.place is None and self.near_point is None
                and self.near_user is None and self.friends_of is None
                and self.user_ids is None):
            raise MiddlewareError("a multicast query needs at least one clause")
        if self.hops < 1:
            raise MiddlewareError(f"hops must be >= 1, got {self.hops}")
        if self.near_km <= 0:
            raise MiddlewareError(f"near_km must be > 0, got {self.near_km}")
        if self.near_user_km <= 0:
            raise MiddlewareError(
                f"near_user_km must be > 0, got {self.near_user_km}")

    @property
    def is_geo_dependent(self) -> bool:
        """Does membership depend on anyone's location?"""
        return (self.place is not None or self.near_point is not None
                or self.near_user is not None)


def select_users(database, query: MulticastQuery) -> list[str]:
    """Evaluate a membership query against a server or cluster database.

    A geo clause is answered from the ``users`` collection, so it names
    registered users only and the registered-set scan is skipped.  A
    ``user_ids`` or friends list can name someone who never registered,
    so without a geo clause the answer starts from ``user_ids()``.
    """
    geo: list[set[str]] = []
    if query.place is not None:
        geo.append(set(database.users_in_place(query.place)))
    if query.near_point is not None:
        geo.append(set(database.users_near(list(query.near_point),
                                           query.near_km)))
    if query.near_user is not None:
        location = database.location_of(query.near_user)
        nearby = set() if location is None else set(database.users_near(
            location["point"], query.near_user_km))
        nearby.discard(query.near_user)
        geo.append(nearby)
    candidates = set.intersection(*geo) if geo else set(database.user_ids())
    if query.user_ids is not None:
        candidates &= set(query.user_ids)
    if query.friends_of is not None:
        candidates &= _friends_within(database, query.friends_of, query.hops)
    return sorted(candidates)


def _friends_within(database, user_id: str, hops: int) -> set[str]:
    seen = {user_id}
    frontier = {user_id}
    reached: set[str] = set()
    for _ in range(hops):
        next_frontier: set[str] = set()
        for current in frontier:
            for friend in database.friends_of(current):
                if friend not in seen:
                    seen.add(friend)
                    reached.add(friend)
                    next_frontier.add(friend)
        frontier = next_frontier
    return reached


class MulticastStream:
    """Related streams of multiple clients abstracted into one entity."""

    def __init__(self, manager, modality: ModalityType,
                 granularity: Granularity, query: MulticastQuery, *,
                 stream_filter: Filter | None = None,
                 settings: dict | None = None,
                 mode: StreamMode = StreamMode.CONTINUOUS,
                 name: str | None = None):
        self._manager = manager
        # Naming is scoped to the owning manager (not a module global):
        # back-to-back simulations in one process must produce the same
        # stream names.
        self.name = name or manager.allocate_multicast_name()
        self.modality = modality
        self.granularity = granularity
        self.query = query
        self.mode = mode
        self._filter = stream_filter if stream_filter is not None else Filter()
        self._settings = dict(settings or {})
        self._listeners: list[RecordListener] = []
        self._members: dict[str, ServerStream] = {}  # user_id -> stream
        self.destroyed = False
        self.refreshes = 0

    # -- membership ---------------------------------------------------------

    def members(self) -> list[str]:
        return sorted(self._members)

    def member_stream(self, user_id: str) -> ServerStream | None:
        return self._members.get(user_id)

    def refresh(self) -> tuple[list[str], list[str]]:
        """Re-evaluate the query; returns (joined, left) user ids."""
        if self.destroyed:
            return [], []
        self.refreshes += 1
        selected = set(self._manager.select_users(self.query))
        joined, left = [], []
        for user_id in sorted(selected - set(self._members)):
            stream = self._manager.create_stream(
                user_id, self.modality, self.granularity,
                stream_filter=self._filter, settings=self._settings,
                mode=self.mode)
            for listener in self._listeners:
                stream.add_listener(listener)
            self._members[user_id] = stream
            joined.append(user_id)
        for user_id in sorted(set(self._members) - selected):
            self._members.pop(user_id).destroy()
            left.append(user_id)
        return joined, left

    # -- stream-like surface ---------------------------------------------------

    def add_listener(self, listener: RecordListener) -> "MulticastStream":
        """Listen on every member stream, present and future."""
        self._listeners.append(listener)
        for stream in self._members.values():
            stream.add_listener(listener)
        return self

    def set_filter(self, stream_filter: Filter) -> "MulticastStream":
        """Distribute a filter to every member device (§3.1)."""
        self._filter = stream_filter
        for stream in self._members.values():
            stream.set_filter(stream_filter)
        return self

    def configure(self, settings: dict) -> "MulticastStream":
        self._settings.update(settings)
        for stream in self._members.values():
            stream.configure(settings)
        return self

    def destroy(self) -> None:
        for stream in self._members.values():
            stream.destroy()
        self._members.clear()
        self.destroyed = True
        self._manager.on_multicast_destroyed(self)
