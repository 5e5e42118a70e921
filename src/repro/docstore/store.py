"""The document store: a namespace of collections."""

from __future__ import annotations

from repro.docstore.collection import Collection
from repro.obs.health import STATUS_OK, Healthcheck


class DocumentStore:
    """MongoDB-style database: named collections created on first use."""

    def __init__(self, name: str = "sensocial"):
        self.name = name
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Return the collection ``name``, creating it if needed."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    # -- snapshot / restore -------------------------------------------

    def snapshot(self) -> dict:
        """Full recoverable state of every collection.

        Like :meth:`Collection.snapshot`, the result shares the live
        documents and must not be mutated; :meth:`restore` copies.
        """
        return {"name": self.name,
                "collections": {name: self._collections[name].snapshot()
                                for name in self.collection_names()}}

    def restore(self, state: dict) -> None:
        """Replace this store's contents with ``state``.  Collections
        are created through :meth:`collection`, so a subclass (e.g. the
        journaled store) restores into its own collection type."""
        self._collections.clear()
        for name, collection_state in state.get("collections", {}).items():
            self.collection(name).restore(collection_state)

    # -- observability ------------------------------------------------

    def health(self) -> dict:
        """Uniform :class:`repro.obs.Healthcheck` document: per-
        collection document counts (an in-memory store is never
        down on its own; journaled subclasses add journal state)."""
        counters = {f"docs_{name}": len(self._collections[name])
                    for name in self.collection_names()}
        total = sum(counters.values())
        counters["collections"] = len(self._collections)
        counters["documents"] = total
        return Healthcheck.build(
            status=STATUS_OK,
            detail=(f"docstore {self.name!r}: {len(self._collections)} "
                    f"collections, {total} documents"),
            counters=counters,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DocumentStore {self.name!r} collections={self.collection_names()}>"
