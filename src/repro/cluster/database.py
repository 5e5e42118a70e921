"""Merged database view over every shard's document store.

The monolithic server exposed one :class:`ServerDatabase`; a cluster
has one per shard, each holding only its partition's users, records
and actions.  :class:`ClusterDatabase` re-presents the same typed API
by routing writes to the owning shard and merging reads across all of
them, so server applications (and the testbed's ``befriend`` helper)
run unchanged against a cluster.

Placement rules:

- a *registered* user's documents live on the shard that owns their
  device (consistent-hash ring over device ids);
- documents about users the cluster has never seen registered (e.g.
  OSN actions of a non-participant) are homed by a deterministic
  user-hash over the same ring, so back-to-back runs place them
  identically.
"""

from __future__ import annotations

from typing import Any

from repro.obs.health import STATUS_DEGRADED, STATUS_DOWN, STATUS_OK
from repro.osn.actions import OsnAction

_STATUS_RANK = {STATUS_OK: 0, STATUS_DEGRADED: 1, STATUS_DOWN: 2}


def merge_status(statuses) -> str:
    """The least healthy of ``statuses`` (ok < degraded < down)."""
    worst = STATUS_OK
    for status in statuses:
        if _STATUS_RANK.get(status, 1) > _STATUS_RANK[worst]:
            worst = status
    return worst


def sum_counters(documents) -> dict[str, float]:
    """Key-by-key sum of the numeric counters of health ``documents``."""
    counters: dict[str, float] = {}
    for doc in documents:
        for key, value in doc.get("counters", {}).items():
            if isinstance(value, (int, float)):
                counters[key] = counters.get(key, 0) + value
    return counters


class ClusterDatabase:
    """Typed facade routing the :class:`ServerDatabase` API by shard."""

    def __init__(self, coordinator):
        self._coordinator = coordinator

    # -- routing helpers ----------------------------------------------

    def _shards(self):
        return self._coordinator.shard_workers()

    def _db_of_user(self, user_id: str):
        """The database holding ``user_id``'s documents."""
        return self._coordinator.shard_for_user(user_id).database

    # -- registration -------------------------------------------------

    def register_device(self, user_id: str, device_id: str,
                        modalities: list[str]) -> None:
        shard = self._coordinator.shard_for_device(device_id)
        shard.database.register_device(user_id, device_id, modalities)

    def device_of(self, user_id: str) -> str | None:
        for shard in self._shards():
            device = shard.database.device_of(user_id)
            if device is not None:
                return device
        return None

    def user_ids(self) -> list[str]:
        users: set[str] = set()
        for shard in self._shards():
            users.update(shard.database.user_ids())
        return sorted(users)

    def is_registered(self, user_id: str) -> bool:
        return any(shard.database.is_registered(user_id)
                   for shard in self._shards())

    # -- social links -------------------------------------------------

    def set_friends(self, user_id: str, friends: list[str]) -> None:
        self._db_of_user(user_id).set_friends(user_id, friends)

    def add_friend(self, user_id: str, friend_id: str) -> None:
        # Friendship is symmetric, but each side's document lives on
        # its own shard — exactly the cross-shard write the monolith's
        # single update pair never had to think about.
        self._db_of_user(user_id).users.update_one(
            {"user_id": user_id}, {"$addToSet": {"friends": friend_id}})
        self._db_of_user(friend_id).users.update_one(
            {"user_id": friend_id}, {"$addToSet": {"friends": user_id}})

    def remove_friend(self, user_id: str, friend_id: str) -> None:
        self._db_of_user(user_id).users.update_one(
            {"user_id": user_id}, {"$pull": {"friends": friend_id}})
        self._db_of_user(friend_id).users.update_one(
            {"user_id": friend_id}, {"$pull": {"friends": user_id}})

    def friends_of(self, user_id: str) -> list[str]:
        return self._db_of_user(user_id).friends_of(user_id)

    # -- geography ----------------------------------------------------

    def update_location(self, user_id: str, lon: float, lat: float,
                        place: str | None, timestamp: float) -> None:
        self._db_of_user(user_id).update_location(user_id, lon, lat,
                                                  place, timestamp)

    def location_of(self, user_id: str) -> dict[str, Any] | None:
        return self._db_of_user(user_id).location_of(user_id)

    def users_in_place(self, place: str) -> list[str]:
        found: set[str] = set()
        for shard in self._shards():
            found.update(shard.database.users_in_place(place))
        return sorted(found)

    def users_near(self, point: list[float], max_km: float) -> list[str]:
        found: set[str] = set()
        for shard in self._shards():
            found.update(shard.database.users_near(point, max_km))
        return sorted(found)

    # -- history ------------------------------------------------------

    def store_action(self, action: OsnAction) -> None:
        self._db_of_user(action.user_id).store_action(action)

    def actions_of(self, user_id: str) -> list[dict]:
        merged: list[dict] = []
        for shard in self._shards():
            merged.extend(shard.database.actions_of(user_id))
        merged.sort(key=lambda doc: doc["created_at"])
        return merged

    def records_of(self, user_id: str, modality: str | None = None) -> list[dict]:
        merged: list[dict] = []
        for shard in self._shards():
            merged.extend(shard.database.records_of(user_id, modality))
        merged.sort(key=lambda doc: doc["timestamp"])
        return merged

    # -- observability ------------------------------------------------

    def health(self) -> dict:
        shard_docs = {shard.shard_id: shard.database.health()
                      for shard in self._shards()}
        counters = sum_counters(shard_docs.values())
        status = merge_status(doc.get("status", STATUS_OK)
                              for doc in shard_docs.values())
        return {
            "status": status,
            "detail": f"cluster database over {len(shard_docs)} shards",
            "counters": counters,
            "shards": shard_docs,
            **{key: value for key, value in counters.items()
               if key not in ("status", "detail", "counters")},
        }
