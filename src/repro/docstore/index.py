"""Secondary indexes.

A :class:`HashIndex` maps a dot-path value to the set of document ids
holding it; it accelerates equality lookups and enforces uniqueness
when requested.  MongoDB's inefficient unindexed scans are what the
paper's §5.5 warns about ("querying from MongoDB can be inefficient...
addressed by building indices"); the collection's planner intersects
and unions these indexes for conjunctive equality and ``$in`` queries
and falls back to a full scan otherwise, so the trade-off is
observable in the benchmarks.

Indexes are *multikey*, like MongoDB's: a document whose indexed field
is a list is registered under the whole (frozen) list **and** under
each element, so a scalar-equality lookup finds array-element matches
too.  Buckets may therefore over-approximate — the query predicate
always re-checks candidates — but they never miss a matching document,
except for ``None`` operands (a missing field equals ``None`` in query
semantics but is never indexed; the planner refuses the index there,
see :meth:`HashIndex.usable_for`).

``lookup`` returns a cached :class:`frozenset` view — no per-call
copying — invalidated per-bucket on writes, so the planner can
intersect buckets as cheaply as set algebra allows.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.docstore.errors import DuplicateKeyError
from repro.docstore.paths import MISSING, get_path

_EMPTY: frozenset = frozenset()


def _freeze(value: Any) -> Hashable:
    """Make a document value hashable for index bucketing."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(val)) for key, val in value.items()))
    return value


class HashIndex:
    """Multikey equality index over one dot-path field."""

    def __init__(self, path: str, unique: bool = False):
        self.path = path
        self.unique = unique
        self._buckets: dict[Hashable, set[int]] = {}
        self._doc_keys: dict[int, tuple[Hashable, ...]] = {}
        #: Uniqueness applies to the *whole* field value only (element
        #: registrations of list values never conflict).
        self._primary_owner: dict[Hashable, int] = {}
        #: Lazily-built frozenset views of buckets, handed out by
        #: ``lookup`` without copying; invalidated per-key on writes.
        self._frozen: dict[Hashable, frozenset] = {}

    def add(self, doc_id: int, document: dict) -> None:
        value = get_path(document, self.path)
        if value is MISSING:
            return
        if not isinstance(value, (list, dict)):
            # A scalar is its own key: ``_freeze`` would return it.
            if self.unique:
                self._claim(value, value, doc_id)
            bucket = self._buckets.get(value)
            if bucket is None:
                self._buckets[value] = {doc_id}
            else:
                bucket.add(doc_id)
            self._frozen.pop(value, None)
            self._doc_keys[doc_id] = (value,)
            return
        primary = _freeze(value)
        if self.unique:
            self._claim(primary, value, doc_id)
        keys = [primary]
        if isinstance(value, list):
            keys.extend(_freeze(element) for element in value)
        for key in keys:
            self._buckets.setdefault(key, set()).add(doc_id)
            self._frozen.pop(key, None)
        self._doc_keys[doc_id] = tuple(keys)

    def _claim(self, primary: Hashable, value: Any, doc_id: int) -> None:
        owner = self._primary_owner.get(primary)
        if owner is not None and owner != doc_id:
            raise DuplicateKeyError(
                f"duplicate value {value!r} for unique index on {self.path!r}")
        self._primary_owner[primary] = doc_id

    def remove(self, doc_id: int) -> None:
        keys = self._doc_keys.pop(doc_id, None)
        if keys is None:
            return
        if self.unique and self._primary_owner.get(keys[0]) == doc_id:
            del self._primary_owner[keys[0]]
        for key in keys:
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            bucket.discard(doc_id)
            self._frozen.pop(key, None)
            if not bucket:
                del self._buckets[key]

    def lookup(self, value: Any) -> frozenset:
        """Ids of documents whose indexed field equals (or, for list
        fields, contains) ``value`` — a read-only cached view, not a
        fresh copy per call."""
        return self.lookup_key(_freeze(value))

    def lookup_key(self, key: Hashable) -> frozenset:
        """Like :meth:`lookup` but for an already-frozen key."""
        view = self._frozen.get(key)
        if view is None:
            bucket = self._buckets.get(key)
            if bucket is None:
                return _EMPTY
            view = frozenset(bucket)
            self._frozen[key] = view
        return view

    def usable_for(self, operand: Any) -> bool:
        """Is a ``lookup(operand)`` *complete* (no false negatives)?

        ``None`` operands also match documents where the field is
        missing entirely — and those are never indexed — so the planner
        must fall back to a scan for them.
        """
        return operand is not None

    def __len__(self) -> int:
        return len(self._doc_keys)
