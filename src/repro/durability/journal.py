"""Write-ahead journal over a simulated durable medium.

Every mutating docstore operation appends a compact, replayable
:class:`JournalEntry` *before* applying in memory (write-ahead), so a
server crash loses at most work that was never acknowledged.  The
journal periodically folds itself into a checkpoint: the medium keeps
one full-state snapshot plus a *tail pointer* into its byte log, and
recovery is ``restore(snapshot)`` followed by :func:`replay` of the
tail.

Entries and snapshots are durable **bytes**, not shared object
references: each append encodes the entry through
:mod:`repro.durability.codec` into a length-prefixed, CRC-checksummed
frame on a contiguous byte log.  That makes the medium honest about
what a real device delivers — a crash mid-write leaves a *torn tail*,
bit rot leaves a frame whose CRC no longer matches — and it makes the
log a verifiable history: by default a checkpoint only advances the
tail pointer (``retain_history``), so the full frame sequence from
genesis backs ``repro replay``, backfill, and the snapshot-corruption
fallback in :mod:`repro.durability.recovery`.

Invariants:

- **Append-before-apply** — an entry is on the medium before the
  in-memory structures change; a crash between the two replays the
  entry and converges to the post-apply state.
- **Outermost-only journaling** — compound operations (an upsert that
  inserts, the server's composite ``ingest``) journal one entry; the
  nested ops they perform are suppressed by a depth guard so replay
  never double-applies.
- **Checkpoint-after-apply** — checkpoints are only taken after the
  current operation has fully applied, so a snapshot can never miss
  the effect of an entry the truncation discards.
- **Replay idempotence from the snapshot** — replaying the tail onto
  the snapshot state reproduces the pre-crash state exactly; an entry
  whose original application failed fails identically on replay (the
  store raises the same error from the same state) and is skipped.
- **Capture-at-append** — the encode happens inside ``append``, so a
  caller mutating its payload dict afterwards cannot retroactively
  change what was journaled.

The medium is deliberately simple — an in-process byte log standing in
for an fsync'd file — but it is the *fault point*: the chaos
controller injects write failures, latency, torn writes and flipped
bits here, which is what the circuit breaker and the recovery scan
react to.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.docstore.errors import DocStoreError
from repro.durability import codec
from repro.durability.codec import (
    FRAME_CORRUPT,
    FRAME_OK,
    FRAME_TORN,
    read_frame,
)
from repro.durability.errors import (
    DurabilityError,
    SnapshotCorruptError,
    StorageWriteError,
)


@dataclass(frozen=True)
class JournalEntry:
    """One replayable mutation: ``op`` on ``collection`` with ``payload``."""

    seq: int
    op: str
    collection: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "op": self.op,
                "collection": self.collection, "payload": self.payload}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "JournalEntry":
        return cls(seq=doc["seq"], op=doc["op"],
                   collection=doc["collection"],
                   payload=doc.get("payload", {}))


class StorageMedium:
    """The simulated durable device the journal writes to.

    Holds one framed checkpoint snapshot plus a contiguous byte log of
    framed journal entries.  ``_tail_offset`` marks where the entries
    newer than the snapshot begin; everything before it is retained
    history (unless ``retain_history`` is off, in which case a
    checkpoint physically drops it, old-style).

    This is the injection point for storage faults: deterministic
    write failures (``inject_write_failures``), per-write latency
    (``write_latency_s``), torn appends (``simulate_torn_append``),
    frame bit rot (``corrupt_frame``) and snapshot bit rot
    (``corrupt_snapshot``).
    """

    def __init__(self) -> None:
        self._log = bytearray()
        self._tail_offset = 0
        self._tail_frames = 0
        self._snapshot_blob: bytes | None = None
        #: Extra seconds each durable write costs (drain pacing).
        self.write_latency_s = 0.0
        #: Keep pre-snapshot frames at checkpoints (journal-as-history).
        self.retain_history = True
        #: True while the log holds every frame since seq 0 — the
        #: precondition for full-history replay when the snapshot rots.
        self.history_complete = True
        #: Optional ``(counter_name, amount)`` callback the durability
        #: controller wires to Telemetry.
        self.observer: Callable[[str, int], None] | None = None
        self._fail_writes = 0
        self._corrupt_next_append = False
        self.appends = 0
        self.append_failures = 0
        self.checkpoints = 0
        self.truncated_entries = 0
        self.torn_writes = 0
        self.frames_corrupted = 0
        self.snapshot_corruptions = 0

    def _observe(self, name: str, amount: int = 1) -> None:
        if self.observer is not None and amount:
            self.observer(name, amount)

    # -- fault injection ----------------------------------------------

    def inject_write_failures(self, count: int) -> None:
        """Make the next ``count`` appends raise ``StorageWriteError``."""
        if count < 0:
            raise ValueError(f"failure count must be >= 0, got {count}")
        self._fail_writes += count

    @property
    def pending_write_failures(self) -> int:
        return self._fail_writes

    def raise_for_write(self) -> None:
        if self._fail_writes > 0:
            self._fail_writes -= 1
            self.append_failures += 1
            self._observe("journal_append_failures")
            raise StorageWriteError("journal append failed (injected)")

    def simulate_torn_append(self,
                             entry: JournalEntry | None = None) -> int:
        """A crash mid-append: half a frame reaches the platter.

        The torn frame models *new, never-acknowledged* work — the
        write that was in flight when the power died — so recovery can
        truncate it with zero acked loss.  Returns the number of bytes
        that never made it.  Does not count as an append: the caller
        (the chaos controller) crashes the server in the same breath,
        exactly like a real torn write.
        """
        if entry is None:
            entry = JournalEntry(seq=-1, op="insert_one",
                                 collection="__torn__",
                                 payload={"document": {"torn": True}})
        frame_bytes = codec.encode_entry(entry)
        cut = max(codec.FRAME_HEADER.size + 1, len(frame_bytes) // 2)
        self._log += frame_bytes[:cut]
        self.torn_writes += 1
        return len(frame_bytes) - cut

    def corrupt_frame(self) -> bool:
        """Bit rot: flip a byte in the middle frame of the journal tail.

        Returns True when a frame was damaged in place.  With an empty
        tail the corruption is *armed* instead — the next append lands
        damaged — so a plan firing this fault right after a checkpoint
        still produces exactly one bad frame.
        """
        spans = self._tail_spans()
        if not spans:
            self._corrupt_next_append = True
            return False
        body_start, body_length = spans[len(spans) // 2]
        self._log[body_start + body_length // 2] ^= 0xFF
        self.frames_corrupted += 1
        return True

    def corrupt_snapshot(self) -> bool:
        """Bit rot in the checkpoint snapshot frame.  Returns True when
        there was a snapshot to damage."""
        if self._snapshot_blob is None:
            return False
        blob = bytearray(self._snapshot_blob)
        index = codec.FRAME_HEADER.size + (
            len(blob) - codec.FRAME_HEADER.size) // 2
        blob[index] ^= 0xFF
        self._snapshot_blob = bytes(blob)
        self.snapshot_corruptions += 1
        return True

    def _tail_spans(self) -> list[tuple[int, int]]:
        """``(body_start, body_length)`` of each intact tail frame."""
        spans: list[tuple[int, int]] = []
        offset = self._tail_offset
        while offset < len(self._log):
            status, body, next_offset = read_frame(self._log, offset)
            if status != FRAME_OK:
                break
            spans.append((offset + codec.FRAME_HEADER.size, len(body)))
            offset = next_offset
        return spans

    # -- durable surface ----------------------------------------------

    def append(self, entry: JournalEntry) -> None:
        self.raise_for_write()
        frame_bytes = codec.encode_entry(entry)
        if self._corrupt_next_append:
            self._corrupt_next_append = False
            damaged = bytearray(frame_bytes)
            damaged[codec.FRAME_HEADER.size + len(damaged) // 2] ^= 0xFF
            frame_bytes = bytes(damaged)
            self.frames_corrupted += 1
        self._log += frame_bytes
        self._tail_frames += 1
        self.appends += 1

    def store_snapshot(self, state: dict[str, Any]) -> None:
        """Checkpoint: persist ``state`` and advance the tail pointer.

        With ``retain_history`` (the default) the folded frames stay on
        the log as replayable history; without it they are physically
        dropped — the pre-history behaviour — which forfeits the
        snapshot-corruption fallback (``history_complete`` goes False).
        """
        self._snapshot_blob = codec.encode_snapshot(state)
        self.checkpoints += 1
        self.truncated_entries += self._tail_frames
        self._observe("journal_truncated_entries", self._tail_frames)
        if self.retain_history:
            self._tail_offset = len(self._log)
        else:
            if self._log:
                self.history_complete = False
            del self._log[:]
            self._tail_offset = 0
        self._tail_frames = 0

    def load_snapshot(self) -> dict[str, Any] | None:
        """Decode the checkpoint snapshot, or None when none was taken.

        Raises :class:`SnapshotCorruptError` when the snapshot frame
        fails its integrity check — the recovery scan catches this and
        falls back to full-history replay when the log allows it.
        """
        if self._snapshot_blob is None:
            return None
        status, body, _ = read_frame(self._snapshot_blob, 0)
        if status != FRAME_OK:
            raise SnapshotCorruptError(
                f"checkpoint snapshot frame is {status}")
        return codec.decode_snapshot(body)

    def snapshot_status(self) -> str:
        """``"none"``, ``"ok"`` or ``"corrupt"`` without raising."""
        if self._snapshot_blob is None:
            return "none"
        status, _, _ = read_frame(self._snapshot_blob, 0)
        return "ok" if status == FRAME_OK else "corrupt"

    @property
    def has_snapshot(self) -> bool:
        return self._snapshot_blob is not None

    @property
    def entries(self) -> list[JournalEntry]:
        """The decoded journal tail (intact frames, in order).  Damaged
        frames are the recovery scan's business — see
        :func:`repro.durability.recovery.run_recovery_scan`."""
        decoded: list[JournalEntry] = []
        offset = self._tail_offset
        while offset < len(self._log):
            status, body, next_offset = read_frame(self._log, offset)
            if status == FRAME_TORN:
                break
            if status == FRAME_OK:
                decoded.append(codec.decode_entry(body))
            if next_offset <= offset:
                break
            offset = next_offset
        return decoded

    def mark_history_incomplete(self) -> None:
        """The log no longer reproduces state from seq 0 (a snapshot
        bootstrap bulk-loaded documents past the journal), so a rotten
        snapshot cannot fall back to full-history replay."""
        self.history_complete = False

    # -- raw log access (recovery scan / history readers) -------------

    def log_view(self) -> bytes:
        """An immutable copy of the full byte log, history included."""
        return bytes(self._log)

    @property
    def tail_offset(self) -> int:
        return self._tail_offset

    @property
    def log_bytes(self) -> int:
        return len(self._log)

    def truncate_log(self, offset: int) -> int:
        """Cut the log at ``offset`` (torn-tail repair).  Returns the
        number of bytes dropped."""
        if offset < self._tail_offset:
            raise DurabilityError(
                f"refusing to truncate into checkpointed history "
                f"({offset} < tail offset {self._tail_offset})")
        dropped = len(self._log) - offset
        del self._log[offset:]
        return dropped

    def __len__(self) -> int:
        return self._tail_frames


class WriteAheadJournal:
    """Append-before-apply journaling with periodic checkpoints."""

    def __init__(self, medium: StorageMedium, checkpoint_interval: int,
                 state_provider: Callable[[], dict[str, Any]] | None = None):
        self.medium = medium
        self.checkpoint_interval = checkpoint_interval
        #: Callable returning the full state a checkpoint must persist
        #: (the journaled store plus any companion state, e.g. the
        #: server's dedup window).
        self.state_provider = state_provider
        self._seq = 0
        self._depth = 0
        self._suspend = 0
        self.entries_written = 0
        #: Non-strict ops whose append failed: applied in memory only,
        #: durable at the next checkpoint, lost by a crash before it.
        self.lost_appends = 0

    # -- journaling ---------------------------------------------------

    @property
    def suspended_now(self) -> bool:
        return self._suspend > 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No-journal window: replay and snapshot restore run inside it
        so recovering an op never journals it again."""
        self._suspend += 1
        try:
            yield
        finally:
            self._suspend -= 1

    @contextmanager
    def op(self, op: str, collection: str, *, strict: bool = False,
           **payload: Any) -> Iterator[bool]:
        """Journal one mutating operation around its in-memory apply.

        Appends the entry *before* yielding (write-ahead); nested ops
        opened while another is active are suppressed, so a compound
        operation replays as exactly one entry.  Yields True when this
        op was journaled.  The checkpoint check runs only after the
        outermost apply completes, never between append and apply.

        When the medium rejects the append, a ``strict`` op raises
        :class:`StorageWriteError` *before* any in-memory change — the
        server's ingest pump uses this so unjournaled records are never
        acknowledged.  A non-strict op absorbs the failure and applies
        in memory anyway: a dirty write that was never flushed, visible
        until the next crash and lost by it (``lost_appends`` counts
        them).
        """
        if self._suspend > 0 or self._depth > 0:
            self._depth += 1
            try:
                yield False
            finally:
                self._depth -= 1
            return
        journaled = True
        try:
            self._append(op, collection, payload)
        except StorageWriteError:
            if strict:
                raise
            self.lost_appends += 1
            self.medium._observe("journal_lost_appends")
            journaled = False
        self._depth += 1
        try:
            yield journaled
        finally:
            self._depth -= 1
        if journaled:
            self.maybe_checkpoint()

    def ingest(self, collection: str, batch,
               documents: list[dict[str, Any]]):
        """Journal the server's composite ingest of ``batch`` (a strict
        :meth:`op`): record documents and dedup ids in one frame.

        The frame encoding follows the batch size.  A one-record batch
        is written as an ``ingest`` frame (its stored document and
        record id); a larger one as a single ``ingest_batch`` frame
        carrying the wire columns.  :func:`replay` decodes both
        record-for-record identically — and must decode ``ingest``
        anyway, because retained history holds it.  ``documents`` are
        the batch's store documents, so the one-record frame does not
        rebuild them.
        """
        if len(documents) == 1:
            return self.op("ingest", collection, strict=True,
                           document=documents[0],
                           record_id=batch.record_ids[0])
        return self.op("ingest_batch", collection, strict=True,
                       batch=batch.to_payload())

    def _append(self, op: str, collection: str,
                payload: dict[str, Any]) -> None:
        # No defensive payload copy: the medium encodes the entry to
        # bytes inside ``append``, which *is* the point-in-time capture.
        entry = JournalEntry(seq=self._seq, op=op, collection=collection,
                             payload=payload)
        self.medium.append(entry)  # raises StorageWriteError on fault
        self._seq += 1
        self.entries_written += 1

    # -- checkpoints --------------------------------------------------

    @property
    def lag(self) -> int:
        """Journal entries not yet folded into a checkpoint."""
        return len(self.medium)

    def maybe_checkpoint(self) -> None:
        if len(self.medium) >= self.checkpoint_interval:
            self.checkpoint()

    def checkpoint(self, state: dict[str, Any] | None = None) -> None:
        """Snapshot full state to the medium and truncate the journal."""
        if state is None:
            if self.state_provider is None:
                raise DurabilityError(
                    "checkpoint needs a state or a state_provider")
            state = self.state_provider()
        self.medium.store_snapshot(state)


@dataclass
class ReplayResult:
    """Outcome of replaying a journal tail onto a restored store."""

    applied: int = 0
    #: Entries whose original application failed; they fail identically
    #: on replay and leave the store unchanged.
    failed: int = 0
    #: Failure taxonomy: ``{seq, op, collection, error}`` per failed
    #: entry, in journal order — surfaced in the chaos report's
    #: recovery section so a replay that skips work names the work.
    failures: list[dict[str, Any]] = field(default_factory=list)
    #: Record ids from composite ``ingest`` entries, in journal order —
    #: the dedup-window state to restore on top of the snapshot's.
    dedup_ids: list[str] = field(default_factory=list)
    #: ``(record_id, trace_dict)`` for replayed ingests that carried a
    #: trace context, so recovery can emit ``replay`` spans.
    traces: list[tuple[str | None, dict[str, Any]]] = field(
        default_factory=list)


def replay(store, entries: list[JournalEntry]) -> ReplayResult:
    """Apply journal ``entries`` to ``store`` in order.

    Callers run this under ``journal.suspended()`` so a journaled store
    does not re-journal its own recovery.
    """
    result = ReplayResult()
    for entry in entries:
        try:
            _apply(store, entry, result)
        except DocStoreError as exc:
            result.failed += 1
            result.failures.append({
                "seq": entry.seq, "op": entry.op,
                "collection": entry.collection,
                "error": f"{type(exc).__name__}: {exc}"})
        else:
            result.applied += 1
    return result


def _apply(store, entry: JournalEntry, result: ReplayResult) -> None:
    op, payload = entry.op, entry.payload
    if op == "drop_collection":
        store.drop_collection(entry.collection)
        return
    collection = store.collection(entry.collection)
    if op == "insert_one":
        collection.insert_one(payload["document"])
    elif op == "update_one":
        collection.update_one(payload["query"], payload["update"],
                              payload.get("upsert", False))
    elif op == "update_many":
        collection.update_many(payload["query"], payload["update"])
    elif op == "delete_one":
        collection.delete_one(payload["query"])
    elif op == "delete_many":
        collection.delete_many(payload["query"])
    elif op == "drop":
        collection.drop()
    elif op == "create_index":
        collection.create_index(payload["path"], payload.get("unique", False))
    elif op == "insert_many":
        for document in payload["documents"]:
            collection.insert_one(document)
    elif op == "ingest":
        # Composite server entry: record document + dedup id move
        # together, so recovery can never ack-then-lose or double-store.
        collection.insert_one(payload["document"])
        record_id = payload.get("record_id")
        if record_id is not None:
            result.dedup_ids.append(record_id)
        trace = payload["document"].get("trace")
        if trace is not None:
            result.traces.append((record_id, trace))
    elif op == "ingest_batch":
        # One frame for N records, stored column-wise (the frame is the
        # wire envelope).  Replay walks the columns record-for-record in
        # order — document insert, dedup id, trace — so the journal is
        # indistinguishable from N one-record ``ingest`` frames to every
        # downstream consumer (fingerprints, dedup restore, replay
        # spans).
        from repro.core.common.batch import RecordBatch
        batch = RecordBatch.from_payload(payload["batch"])
        record_ids = batch.record_ids
        for index, document in enumerate(batch.store_documents()):
            collection.insert_one(document)
            record_id = record_ids[index]
            if record_id is not None:
                result.dedup_ids.append(record_id)
            trace = document.get("trace")
            if trace is not None:
                result.traces.append((record_id, trace))
    else:
        raise DurabilityError(f"unknown journal op {op!r}")
