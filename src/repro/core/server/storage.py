"""Server-side persistence (the MongoDB of §4).

Stores "information about user registration, user's OSN friendship and
geographic location information", plus the captured OSN actions and
stream records so server applications can run complex multi-user
queries over them.
"""

from __future__ import annotations

from typing import Any

from repro.docstore import DocumentStore
from repro.osn.actions import OsnAction


class ServerDatabase:
    """Typed facade over the document store.  Reads project the field
    they return, so none copies a whole user document."""

    def __init__(self, store: DocumentStore | None = None):
        self.store = store if store is not None else DocumentStore()
        self.users = self.store["users"]
        self.actions = self.store["actions"]
        self.records = self.store["records"]
        self.users.create_index("user_id", unique=True)
        self.actions.create_index("user_id")
        self.records.create_index("user_id")
        self.records.create_index("stream_id")

    # -- registration ------------------------------------------------------

    def register_device(self, user_id: str, device_id: str,
                        modalities: list[str]) -> None:
        """Upsert a user's device registration.

        One code path for both cases: a re-registration replaces the
        device id and the modality list wholesale (the device declares
        what it can sense *now*), while friends and location survive —
        they are seeded only when the user is first inserted.
        """
        self.users.update_one(
            {"user_id": user_id},
            {"$set": {"device_id": device_id,
                      "modalities": list(modalities)},
             "$setOnInsert": {"friends": [], "location": None}},
            upsert=True)

    def _field_of(self, user_id: str, field: str, default=None):
        document = self.users.find_one({"user_id": user_id},
                                       {field: 1, "_id": 0})
        return default if document is None else document.get(field, default)

    def _ids_where(self, query: dict) -> list[str]:
        return sorted(document["user_id"] for document in
                      self.users.find(query, {"user_id": 1, "_id": 0}))

    def device_of(self, user_id: str) -> str | None:
        return self._field_of(user_id, "device_id")

    def user_ids(self) -> list[str]:
        return self._ids_where({})

    def is_registered(self, user_id: str) -> bool:
        return self.users.count({"user_id": user_id}) > 0

    # -- social links -------------------------------------------------------

    def set_friends(self, user_id: str, friends: list[str]) -> None:
        self.users.update_one({"user_id": user_id},
                              {"$set": {"friends": sorted(friends)}})

    def add_friend(self, user_id: str, friend_id: str) -> None:
        self.users.update_one({"user_id": user_id},
                              {"$addToSet": {"friends": friend_id}})
        self.users.update_one({"user_id": friend_id},
                              {"$addToSet": {"friends": user_id}})

    def remove_friend(self, user_id: str, friend_id: str) -> None:
        self.users.update_one({"user_id": user_id},
                              {"$pull": {"friends": friend_id}})
        self.users.update_one({"user_id": friend_id},
                              {"$pull": {"friends": user_id}})

    def friends_of(self, user_id: str) -> list[str]:
        return self._field_of(user_id, "friends", [])

    # -- geography -----------------------------------------------------------

    def update_location(self, user_id: str, lon: float, lat: float,
                        place: str | None, timestamp: float) -> None:
        self.users.update_one({"user_id": user_id}, {"$set": {"location": {
            "point": [lon, lat], "place": place, "timestamp": timestamp,
        }}})

    def location_of(self, user_id: str) -> dict[str, Any] | None:
        return self._field_of(user_id, "location")

    def users_in_place(self, place: str) -> list[str]:
        """Users whose last classified location is ``place``."""
        return self._ids_where({"location.place": place})

    def users_near(self, point: list[float], max_km: float) -> list[str]:
        """Users whose last fix is within ``max_km`` of ``point``.

        MongoDB "natively supports geospatial querying.  This translates
        to fast return of nearby users" (§5.5).
        """
        return self._ids_where({
            "location.point": {"$near": {"$point": list(point),
                                         "$maxDistance": max_km}},
        })

    # -- history -------------------------------------------------------------

    def store_action(self, action: OsnAction) -> None:
        self.actions.insert_one(action.to_document())

    def store_batch(self, documents: list[dict]) -> list[int]:
        """Insert a batch of record documents in one index pass."""
        # Ownership transfer: ``documents`` must be freshly built (the
        # batch ingest path builds them from the wire columns), so the
        # collection may store them without the per-document deepcopy.
        return self.records.insert_many(documents, copy_documents=False)

    def actions_of(self, user_id: str) -> list[dict]:
        return list(self.actions.find({"user_id": user_id}).sort("created_at"))

    def records_of(self, user_id: str, modality: str | None = None) -> list[dict]:
        query: dict[str, Any] = {"user_id": user_id}
        if modality is not None:
            query["modality"] = modality
        return list(self.records.find(query).sort("timestamp"))

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        """The underlying store's :class:`repro.obs.Healthcheck`
        document — collection counts, plus journal lag when the store
        is journaled (see :mod:`repro.docstore.journaled`)."""
        return self.store.health()
