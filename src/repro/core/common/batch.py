"""Versioned batch wire envelope: N stream records packed column-wise.

Every uplink record travels as a :class:`RecordBatch`, from the mobile
outbox to the server's docstore.  A fresh record on a connected link
leaves as a batch of one; backlog (reconnect flushes, retry sweeps)
leaves in batches of up to the sender's ``batch_max``, so the
per-message costs (transport, scheduling, journal frames, index
passes) amortize across N records exactly when there are N to send.

The envelope packs N records as tuple-packed parallel arrays
(struct-of-arrays): one tuple per field, index ``i`` across all tuples
describing record ``i``.  The columnar shape is not cosmetic — the
journal appends the *columns* of a multi-record batch as one
``ingest_batch`` frame, which encodes roughly half the tokens of N
per-record documents (field names are written once per batch instead
of once per record), and replay rebuilds the per-record documents
record-for-record identically to N one-record ``ingest`` frames.

The batch size is a transport/execution choice ONLY.  Delivery order,
dedup semantics, trace accounting and docstore contents must stay
bit-identical between N batches of one and one batch of N; the
invariants that make that hold are:

* ``store_documents()`` rebuilds dicts in exactly the key order of
  :meth:`StreamRecord.to_dict` (``trace`` present only when the record
  carried one), so fingerprints over the docstore cannot tell batch
  sizes apart.
* ``iter_records()`` reconstructs :class:`StreamRecord`s exactly as
  :meth:`StreamRecord.from_dict` would from the wire documents.
* Flush boundaries are derived from the virtual clock (outbox sweep /
  reconnect flush), never wall time.

Wire payloads are plain dict/tuple/scalar trees, so they ride the
in-sim network by reference and the canonical codec
(:mod:`repro.durability.codec`) losslessly — tuples are a first-class
codec type.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.common.granularity import Granularity
from repro.core.common.modality import ModalityType
from repro.core.common.records import StreamRecord
from repro.net.message import estimate_size

#: Version stamped into every batch payload under :data:`BATCH_MARKER`.
#: Bump when the column set or their meaning changes; decoders reject
#: versions newer than they understand instead of misreading them.
BATCH_WIRE_VERSION = 1

#: Payload key whose presence marks a dict as a batch envelope (value =
#: wire version).  The MQTT broker keys its batch accounting off the
#: same marker so envelopes are recognized without importing this
#: module.
BATCH_MARKER = "batch_wire"

#: The parallel-array fields, in wire order.
_COLUMNS = ("record_ids", "stream_ids", "user_ids", "device_ids",
            "modalities", "granularities", "timestamps", "values",
            "details", "osn_actions", "wire_bytes", "traces")

#: Wire value → enum member: the values this decoder knows.  A dict hit
#: replaces the enum's own lookup on every record; an unknown value
#: still raises the enum's ValueError.
_MODALITY_OF = {member.value: member for member in ModalityType}
_GRANULARITY_OF = {member.value: member for member in Granularity}


class RecordBatch:
    """N stream records as tuple-packed parallel arrays.

    The constructor trusts its columns to be equal-length tuples, which
    every ``from_*`` classmethod here guarantees by construction;
    :meth:`from_payload` checks it for envelopes arriving from outside
    the program.
    """

    __slots__ = _COLUMNS

    def __init__(self, record_ids=(), stream_ids=(), user_ids=(),
                 device_ids=(), modalities=(), granularities=(),
                 timestamps=(), values=(), details=(), osn_actions=(),
                 wire_bytes=(), traces=()):
        self.record_ids = record_ids
        self.stream_ids = stream_ids
        self.user_ids = user_ids
        self.device_ids = device_ids
        self.modalities = modalities
        self.granularities = granularities
        self.timestamps = timestamps
        self.values = values
        self.details = details
        self.osn_actions = osn_actions
        self.wire_bytes = wire_bytes
        self.traces = traces

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[StreamRecord],
                     record_ids: Iterable[str | None] | None = None,
                     ) -> "RecordBatch":
        """Pack records column-wise; lossless against ``iter_records``.

        ``record_ids`` supplies the wire-level dedup ids (the record
        dataclass itself does not carry one); omitted ids become
        ``None`` — such records ride the batch but are never acked or
        deduped.
        """
        rows = [(r.stream_id, r.user_id, r.device_id, r.modality.value,
                 r.granularity.value, r.timestamp, r.value, dict(r.details),
                 dict(r.osn_action) if r.osn_action else None, r.wire_bytes,
                 r.trace.to_dict() if r.trace is not None else None)
                for r in records]
        if record_ids is None:
            ids: tuple[Any, ...] = (None,) * len(rows)
        else:
            ids = tuple(record_ids)
            if len(ids) != len(rows):
                raise ValueError(
                    f"{len(ids)} record ids for {len(rows)} records")
        return cls(ids, *zip(*rows)) if rows else cls()

    @classmethod
    def from_documents(cls, documents: Iterable[dict[str, Any]],
                       ) -> "RecordBatch":
        """Pack wire documents (``StreamRecord.to_dict()`` shape, plus
        an optional ``record_id`` key as the mobile outbox appends).

        A document missing a required field raises ``KeyError``.
        """
        rows = [(d.get("record_id"), d["stream_id"], d["user_id"],
                 d["device_id"], d["modality"], d["granularity"],
                 d["timestamp"], d["value"], d.get("details") or {},
                 d.get("osn_action"), 0, d.get("trace"))
                for d in documents]
        return cls(*zip(*rows)) if rows else cls()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def device_id(self) -> str | None:
        """Routing hint: the (single) originating device of the batch."""
        return self.device_ids[0] if self.device_ids else None

    def unknown_members(self) -> list[int]:
        """Positions whose modality or granularity is not a wire value
        this decoder knows (``iter_records`` would raise on them)."""
        return [index for index, (modality, granularity) in enumerate(
                    zip(self.modalities, self.granularities))
                if modality not in _MODALITY_OF
                or granularity not in _GRANULARITY_OF]

    def select(self, indices: Iterable[int]) -> "RecordBatch":
        """A sub-batch of the given record positions, in order."""
        keep = list(indices)
        return RecordBatch(**{
            column: tuple([getattr(self, column)[i] for i in keep])
            for column in _COLUMNS})

    # -- unpacking -----------------------------------------------------

    def iter_records(self) -> Iterator[StreamRecord]:
        """Rebuild records exactly as ``StreamRecord.from_dict`` would."""
        trace_cls = None
        for (stream_id, user_id, device_id, modality, granularity,
             timestamp, value, details, osn_action, wire_bytes,
             trace) in zip(self.stream_ids, self.user_ids, self.device_ids,
                           self.modalities, self.granularities,
                           self.timestamps, self.values, self.details,
                           self.osn_actions, self.wire_bytes, self.traces):
            if trace is not None:
                if trace_cls is None:
                    from repro.obs.trace import TraceContext as trace_cls
                trace = trace_cls.from_dict(trace)
            yield StreamRecord(
                stream_id=stream_id,
                user_id=user_id,
                device_id=device_id,
                modality=_MODALITY_OF.get(modality)
                or ModalityType(modality),
                granularity=_GRANULARITY_OF.get(granularity)
                or Granularity(granularity),
                timestamp=timestamp,
                value=value,
                details=dict(details),
                osn_action=osn_action,
                wire_bytes=wire_bytes,
                trace=trace,
            )

    def store_documents(self) -> list[dict[str, Any]]:
        """Fresh per-record documents in ``StreamRecord.to_dict`` shape.

        Key order matches ``to_dict`` exactly and ``trace`` appears
        only when the record carried one, so docstore contents
        fingerprint identically whatever the batch size.  The returned
        dicts are newly built (callers may hand them to
        ``insert_many(copy=False)``); nested ``value`` objects are
        shared with the wire payload — safe because stored records are
        never mutated in place.
        """
        documents = []
        for i in range(len(self.record_ids)):
            osn_action = self.osn_actions[i]
            document = {
                "stream_id": self.stream_ids[i],
                "user_id": self.user_ids[i],
                "device_id": self.device_ids[i],
                "modality": self.modalities[i],
                "granularity": self.granularities[i],
                "timestamp": self.timestamps[i],
                "value": self.values[i],
                "details": dict(self.details[i]),
                "osn_action": dict(osn_action) if osn_action else None,
            }
            trace = self.traces[i]
            if trace is not None:
                document["trace"] = trace
            documents.append(document)
        return documents

    # -- wire ----------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The versioned wire dict (rides networks and journal frames)."""
        payload: dict[str, Any] = {
            BATCH_MARKER: BATCH_WIRE_VERSION,
            "n": len(self.record_ids),
            "device_id": self.device_id,
        }
        for column in _COLUMNS:
            payload[column] = getattr(self, column)
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RecordBatch":
        """Decode a wire envelope, rejecting (``ValueError``) a missing
        or newer wire version and columns of unequal length."""
        version = payload.get(BATCH_MARKER)
        if version is None:
            raise ValueError("payload is not a batch envelope "
                             f"(missing {BATCH_MARKER!r})")
        if not isinstance(version, int) or version > BATCH_WIRE_VERSION:
            raise ValueError(f"unsupported batch wire version {version!r} "
                             f"(decoder speaks <= {BATCH_WIRE_VERSION})")
        columns = [tuple(payload.get(column, ())) for column in _COLUMNS]
        n = len(columns[0])
        for name, column in zip(_COLUMNS, columns):
            if len(column) != n:
                raise ValueError(
                    f"ragged batch: column {name!r} has {len(column)} "
                    f"entries, expected {n}")
        return cls(*columns)

    def encode(self) -> bytes:
        """Canonical bytes via the durability codec (lossless)."""
        from repro.durability import codec
        return codec.dumps(self.to_payload())

    @classmethod
    def decode(cls, data: bytes) -> "RecordBatch":
        from repro.durability import codec
        return cls.from_payload(codec.loads(data))


# estimate_size({"record_id": x}) - estimate_size(x): the framing a
# one-record ack dict adds around its record id — dict wrapper, key and
# separator.  Computed once so batch-ack accounting never walks N
# throwaway dicts.
_ACK_OVERHEAD = (estimate_size({"record_id": ""}) - estimate_size(""))


def ack_size(record_ids: Iterable[str]) -> int:
    """Wire bytes of a ``stream-batch-ack``: the *exact* sum of the N
    one-record ``{"record_id": id}`` ack estimates, so byte counters
    read the same whatever the batch size."""
    return sum(_ACK_OVERHEAD + estimate_size(record_id)
               for record_id in record_ids)
