"""Collections and cursors."""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable, Iterator

from repro.docstore.compiler import CompiledQuery, compile_query
from repro.docstore.errors import DocStoreError, QueryError
from repro.docstore.index import HashIndex
from repro.docstore.paths import MISSING, get_path, set_path
from repro.docstore.update import apply_update

#: Marks "no exclusion here" in exclusion trees (``None`` is a leaf).
_KEEP = object()


class Cursor:
    """A lazy, chainable view over query results.

    ``sort`` / ``skip`` / ``limit`` compose like their MongoDB
    namesakes; iteration yields *copies* of documents so callers cannot
    corrupt the store by mutating results.

    Matching is streamed: an unsorted cursor pulls documents from the
    collection only as far as ``skip``/``limit`` require (``find_one``
    stops at the first match), and already-pulled matches are cached so
    the cursor stays re-iterable.  ``sort`` forces a full drain, since
    ordering needs every match.
    """

    def __init__(self, documents: Iterable[dict]):
        self._source = iter(documents)
        self._cache: list[dict] = []
        self._exhausted = False
        self._sort_spec: list[tuple[str, int]] = []
        self._skip = 0
        self._limit: int | None = None
        self._projection: dict[str, int] | None = None

    def sort(self, path: str | list[tuple[str, int]], direction: int = 1) -> "Cursor":
        """Order results by one or more dot-paths (1 asc, -1 desc)."""
        if isinstance(path, str):
            self._sort_spec = [(path, direction)]
        else:
            self._sort_spec = list(path)
        return self

    def skip(self, count: int) -> "Cursor":
        self._skip = max(0, count)
        return self

    def limit(self, count: int) -> "Cursor":
        self._limit = max(0, count)
        return self

    def project(self, projection: dict) -> "Cursor":
        """Restrict returned fields (MongoDB projection semantics)."""
        flags = {bool(value) for key, value in projection.items()
                 if key != "_id"}
        if len(flags) > 1:
            raise QueryError("cannot mix include and exclude in a projection")
        self._projection = dict(projection)
        return self

    def count(self) -> int:
        """Matching documents, ignoring skip/limit (MongoDB classic).

        Never sorts and never copies — a count is just a drain of the
        match stream.
        """
        return len(self._drain())

    def _matches(self) -> Iterator[dict]:
        """Stream matched documents, sharing one cache across iterators
        so the cursor is re-iterable and interleavable."""
        index = 0
        while True:
            if index < len(self._cache):
                yield self._cache[index]
                index += 1
                continue
            if self._exhausted:
                return
            try:
                document = next(self._source)
            except StopIteration:
                self._exhausted = True
                return
            self._cache.append(document)

    def _drain(self) -> list[dict]:
        if not self._exhausted:
            for _ in self._matches():
                pass
        return self._cache

    def __iter__(self) -> Iterator[dict]:
        if self._sort_spec:
            documents: list[dict] = self._drain()
            for path, direction in reversed(self._sort_spec):
                documents = sorted(
                    documents,
                    key=lambda doc: _sort_key(get_path(doc, path)),
                    reverse=direction < 0,
                )
            selected = documents[self._skip:]
            if self._limit is not None:
                selected = selected[:self._limit]
            for document in selected:
                yield self._emit(document)
            return
        if self._limit == 0:
            return
        remaining = self._limit
        skipped = 0
        for document in self._matches():
            if skipped < self._skip:
                skipped += 1
                continue
            yield self._emit(document)
            if remaining is not None:
                remaining -= 1
                if remaining == 0:
                    return

    def _emit(self, document: dict) -> dict:
        """Copy ``document`` for the caller — deep-copying only the
        parts the projection actually returns."""
        if self._projection is None:
            return copy.deepcopy(document)
        include_id = bool(self._projection.get("_id", 1))
        paths = {key: bool(value) for key, value in self._projection.items()
                 if key != "_id"}
        if not paths:  # only ``_id`` named: 1 keeps just it, 0 drops it
            projected = {} if include_id else {
                key: copy.deepcopy(value) for key, value in document.items()}
        elif any(paths.values()):  # include mode
            projected = {}
            for path in paths:
                value = get_path(document, path)
                if value is not MISSING:
                    set_path(projected, path, copy.deepcopy(value))
        else:  # exclude mode
            projected = _copy_excluding(document, _exclusion_tree(paths))
        if include_id and "_id" in document:
            projected["_id"] = copy.deepcopy(document["_id"])
        elif not include_id:
            projected.pop("_id", None)
        return projected

    def to_list(self) -> list[dict]:
        # Not ``list(self)``: that consults ``__len__`` as a length
        # hint, which would drain past an early ``limit`` exit.
        return [document for document in self]

    def __len__(self) -> int:
        """``count()`` clamped by skip/limit — computed without sorting
        or copying (sorting cannot change how many results come back).

        With a ``limit`` the stream is only drained far enough to know
        the answer, so ``len``/``list`` keep the early-exit property.
        """
        if self._limit is not None:
            needed = self._skip + self._limit
            matched = 0
            for _ in self._matches():
                matched += 1
                if matched >= needed:
                    return self._limit
            return max(0, matched - self._skip)
        return max(0, len(self._drain()) - self._skip)


def _exclusion_tree(paths: dict[str, bool]) -> dict:
    """Nest exclusion dot-paths into a tree; ``None`` marks a leaf
    (whole subtree excluded), which always wins over deeper paths —
    matching sequential ``delete_path`` calls in either order."""
    tree: dict = {}
    for path in paths:
        segments = path.split(".")
        node = tree
        for segment in segments[:-1]:
            child = node.get(segment, _KEEP)
            if child is None:  # already excluded wholesale
                node = None
                break
            if child is _KEEP:
                child = node[segment] = {}
            node = child
        if node is not None:
            node[segments[-1]] = None
    return tree


def _copy_excluding(value: Any, tree: dict) -> Any:
    """Deep-copy ``value`` skipping excluded subtrees.

    Mirrors ``delete_path`` exactly: leaf exclusions only remove dict
    keys (a leaf landing on a list index removes nothing), numeric
    segments descend into lists, and paths that don't resolve are
    no-ops.
    """
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            sub = tree.get(key, _KEEP)
            if sub is None:
                continue
            if sub is _KEEP:
                out[key] = copy.deepcopy(val)
            else:
                out[key] = _copy_excluding(val, sub)
        return out
    if isinstance(value, list):
        out_list = []
        for position, item in enumerate(value):
            sub = tree.get(str(position), _KEEP)
            if sub is _KEEP or sub is None:
                out_list.append(copy.deepcopy(item))
            else:
                out_list.append(_copy_excluding(item, sub))
        return out_list
    return copy.deepcopy(value)


def _sort_key(value: Any):
    """Total order over mixed types: missing < None < numbers < strings."""
    if value is MISSING:
        return (0, 0)
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (2, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, repr(value))


class Collection:
    """A named set of documents with optional secondary indexes."""

    def __init__(self, name: str):
        self.name = name
        self._documents: dict[int, dict] = {}
        #: Next auto-assigned ``_id``; a plain int (not a generator) so
        #: snapshot/restore can persist the exact allocation state.
        self._next_id = 1
        self._indexes: dict[str, HashIndex] = {}
        #: Opaque per-document bytes a serializer derived, keyed like
        #: ``_documents`` (see :meth:`cached_encodings`).  Every write
        #: path drops the entry of the document it touches.
        self._encoded: dict[int, bytes] = {}
        self.scans = 0          # full scans performed (observability)
        self.index_lookups = 0  # queries served via an index
        #: Candidate documents actually tested against a predicate —
        #: the planner's effectiveness metric (see
        #: ``benchmarks/test_hotpath_perf.py``).
        self.candidates_examined = 0

    # -- writes -------------------------------------------------------

    def insert_one(self, document: dict) -> int:
        """Insert a copy of ``document``; returns its ``_id``."""
        if not isinstance(document, dict):
            raise DocStoreError(f"documents must be dicts, got {type(document).__name__}")
        stored = copy.deepcopy(document)
        # The counter advances on every insert, even when the caller
        # supplies an explicit ``_id`` (itertools.count semantics).
        default_id = self._next_id
        self._next_id += 1
        doc_id = stored.setdefault("_id", default_id)
        if doc_id in self._documents:
            raise DocStoreError(f"_id {doc_id!r} already present in {self.name!r}")
        for index in self._indexes.values():
            index.add(doc_id, stored)
        self._documents[doc_id] = stored
        return doc_id

    def insert_many(self, documents: Iterable[dict], *,
                    copy_documents: bool = True) -> list[int]:
        """Insert a batch; returns the assigned ``_id``s in order.

        The batch hot path: ids are assigned in one sweep and each
        secondary index is updated in one pass over the whole batch
        instead of once per document.  Semantics match a sequential
        ``insert_one`` loop exactly — same ids, same key order
        (``_id`` appended last), same partial-failure behaviour — so
        any document carrying an explicit ``_id`` (possible conflicts,
        counter interleaving) falls back to that loop verbatim.

        ``copy_documents=False`` transfers ownership: the caller
        promises the dicts are freshly built and never mutated after
        the call (the batched ingest path builds them from the wire
        columns), which skips the dominant per-record ``deepcopy``.
        """
        docs = list(documents)
        for document in docs:
            if not isinstance(document, dict) or "_id" in document:
                return [self.insert_one(document) for document in docs]
        stored_docs = copy.deepcopy(docs) if copy_documents else docs
        doc_ids = []
        storage = self._documents
        for stored in stored_docs:
            doc_id = self._next_id
            self._next_id += 1
            stored["_id"] = doc_id
            storage[doc_id] = stored
            doc_ids.append(doc_id)
        for index in self._indexes.values():
            add = index.add
            for doc_id, stored in zip(doc_ids, stored_docs):
                add(doc_id, stored)
        return doc_ids

    def update_one(self, query: dict, update: dict, upsert: bool = False) -> int:
        """Update the first match; returns number of documents changed."""
        plan = compile_query(query)
        for doc_id, document in self._candidates(plan):
            self.candidates_examined += 1
            if plan.always_true or plan.predicate(document):
                self._reindex(doc_id, document, update)
                return 1
        if upsert:
            seed = {key: value for key, value in query.items()
                    if not key.startswith("$") and not isinstance(value, dict)}
            if any(key.startswith("$") for key in update):
                # ``$setOnInsert`` only acts on this insert branch (a
                # matched update ignores it); seeded first so explicit
                # ``$set`` paths in the same update still win.
                for path, value in update.get("$setOnInsert", {}).items():
                    set_path(seed, path, value)
                apply_update(seed, update)
            else:
                seed.update(update)
            self.insert_one(seed)
            return 1
        return 0

    def update_many(self, query: dict, update: dict) -> int:
        plan = compile_query(query)
        changed = 0
        for doc_id, document in list(self._candidates(plan)):
            self.candidates_examined += 1
            if plan.always_true or plan.predicate(document):
                self._reindex(doc_id, document, update)
                changed += 1
        return changed

    def replace_one(self, query: dict, replacement: dict) -> int:
        """Replace the first match wholesale (keeps ``_id``)."""
        if any(key.startswith("$") for key in replacement):
            raise DocStoreError("replace_one takes a plain document")
        return self.update_one(query, replacement)

    def delete_one(self, query: dict) -> int:
        plan = compile_query(query)
        for doc_id, document in self._candidates(plan):
            self.candidates_examined += 1
            if plan.always_true or plan.predicate(document):
                self._remove(doc_id)
                return 1
        return 0

    def delete_many(self, query: dict) -> int:
        plan = compile_query(query)
        doomed = []
        for doc_id, document in self._candidates(plan):
            self.candidates_examined += 1
            if plan.always_true or plan.predicate(document):
                doomed.append(doc_id)
        for doc_id in doomed:
            self._remove(doc_id)
        return len(doomed)

    def drop(self) -> None:
        self._documents.clear()
        self._encoded.clear()
        for index in self._indexes.values():
            for doc_id in list(index._doc_keys):
                index.remove(doc_id)

    # -- reads --------------------------------------------------------

    def find(self, query: dict | None = None,
             projection: dict | None = None) -> Cursor:
        """All documents matching ``query`` (all documents when None).

        ``projection`` selects fields MongoDB-style: ``{"name": 1}``
        keeps only the named paths (plus ``_id``); ``{"secret": 0}``
        drops the named paths.  Mixing include and exclude is rejected.

        The candidate set is pinned when ``find`` returns (inserts
        after this call are not seen), but match evaluation streams
        lazily as the cursor is consumed.
        """
        query = query or {}
        plan = compile_query(query)
        cursor = Cursor(self._matching(plan, self._candidates(plan)))
        if projection:
            cursor.project(projection)
        return cursor

    def _matching(self, plan: CompiledQuery,
                  candidates: list[tuple[int, dict]]) -> Iterator[dict]:
        for _doc_id, document in candidates:
            self.candidates_examined += 1
            if plan.always_true or plan.predicate(document):
                yield document

    def find_one(self, query: dict | None = None,
                 projection: dict | None = None) -> dict | None:
        for document in self.find(query, projection).limit(1):
            return document
        return None

    def count(self, query: dict | None = None) -> int:
        if not query:
            return len(self._documents)
        return self.find(query).count()

    def distinct(self, path: str, query: dict | None = None) -> list:
        seen = []
        for document in self.find(query):
            value = get_path(document, path)
            if value is not MISSING and value not in seen:
                seen.append(value)
        return seen

    # -- indexes ------------------------------------------------------

    def create_index(self, path: str, unique: bool = False) -> None:
        """Build a hash index over ``path`` (idempotent)."""
        if path in self._indexes:
            return
        index = HashIndex(path, unique=unique)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._indexes[path] = index

    def index_paths(self) -> list[str]:
        return sorted(self._indexes)

    # -- snapshot / restore -------------------------------------------

    def snapshot(self) -> dict:
        """Full recoverable state: documents, id counter, index specs.

        The documents are the live ones, not copies: the result shares
        them with this collection and must not be mutated.  It is meant
        to be encoded, compared or restored from, and :meth:`restore`
        copies what it loads, so a store restored from this snapshot
        shares nothing with this one.
        """
        return {
            "documents": list(self._documents.values()),
            "next_id": self._next_id,
            "indexes": [[index.path, index.unique]
                        for index in self._indexes.values()],
        }

    def cached_encodings(self, encode: Callable[[dict], bytes]
                         ) -> tuple[list[bytes], int]:
        """``encode(document)`` for every document, in snapshot order,
        and how many of them this call computed.

        Each result is kept until its document changes, so repeated
        calls encode only the documents written since the last one.
        The bytes are opaque here: the durability codec supplies
        ``encode`` at checkpoint time, which keeps this package free of
        ``repro.durability`` imports.  The cache does not record which
        function filled it, so every caller must pass the same one.
        Nothing else fills it, so a store that is never checkpointed
        holds none.
        """
        cache = self._encoded
        encodings = []
        computed = 0
        for doc_id, document in self._documents.items():
            encoding = cache.get(doc_id)
            if encoding is None:
                encoding = cache[doc_id] = encode(document)
                computed += 1
            encodings.append(encoding)
        return encodings, computed

    def restore(self, state: dict) -> None:
        """Replace this collection's contents with a deep copy of
        ``state``."""
        self._documents.clear()
        self._encoded.clear()
        self._indexes.clear()
        for path, unique in state.get("indexes", []):
            self._indexes[path] = HashIndex(path, unique=unique)
        for document in state.get("documents", []):
            stored = copy.deepcopy(document)
            doc_id = stored["_id"]
            for index in self._indexes.values():
                index.add(doc_id, stored)
            self._documents[doc_id] = stored
        self._next_id = state.get("next_id", len(self._documents) + 1)

    # -- internals ----------------------------------------------------

    def _candidates(self, plan: CompiledQuery) -> list[tuple[int, dict]]:
        """Documents to test, narrowed through the indexes when the
        compiled plan allows it.

        Conjunctive equality constraints (top level and inside
        ``$and``) intersect their index buckets; indexed ``$in`` lists
        union per-item buckets before intersecting.  Candidate ids come
        back sorted — the order indexed queries have always used.
        """
        ids = self._plan_ids(plan)
        if ids is None:
            self.scans += 1
            return list(self._documents.items())
        self.index_lookups += 1
        return [(doc_id, self._documents[doc_id])
                for doc_id in sorted(ids) if doc_id in self._documents]

    def _plan_ids(self, plan: CompiledQuery) -> set | None:
        """Intersected candidate id set, or None for a full scan."""
        if not self._indexes or (not plan.equalities and not plan.in_lists):
            return None
        result: set | frozenset | None = None
        for path, operand in plan.equalities:
            index = self._indexes.get(path)
            if index is None or not index.usable_for(operand):
                continue
            try:
                bucket = index.lookup(operand)
            except TypeError:  # unhashable exotic operand
                continue
            result = bucket if result is None else result & bucket
            if not result:
                return set()
        for path, items in plan.in_lists:
            index = self._indexes.get(path)
            if index is None or not all(index.usable_for(item)
                                        for item in items):
                continue
            try:
                union: set = set()
                for item in items:
                    union |= index.lookup(item)
            except TypeError:
                continue
            result = union if result is None else result & union
            if not result:
                return set()
        return set(result) if result is not None else None

    def _reindex(self, doc_id: int, document: dict, update: dict) -> None:
        # Before the apply: an update that fails partway has still
        # changed the document.
        self._encoded.pop(doc_id, None)
        for index in self._indexes.values():
            index.remove(doc_id)
        try:
            apply_update(document, update)
        finally:
            for index in self._indexes.values():
                index.add(doc_id, document)

    def _remove(self, doc_id: int) -> None:
        for index in self._indexes.values():
            index.remove(doc_id)
        del self._documents[doc_id]
        self._encoded.pop(doc_id, None)

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Collection {self.name!r} docs={len(self)} indexes={self.index_paths()}>"
