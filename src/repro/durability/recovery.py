"""Corruption-tolerant recovery: frame classification, scan policy,
and bounded journal backfill.

A real durable medium does not fail politely.  The recovery scan
(:func:`run_recovery_scan`) walks the byte log frame by frame and
classifies every damaged stretch instead of crashing on it:

- **Torn tail** — the final frame is truncated (a crash mid-append).
  The write never completed, so it was never acknowledged: the scan
  truncates it cleanly and accounts the loss (``truncated_bytes``,
  ``torn_frames``).  Recovery converges with zero acked loss.
- **Mid-log CRC mismatch** — bit rot inside the tail.  The damaged
  frame is *quarantined* and recovery restores the snapshot plus the
  longest valid prefix before it; intact frames after it are
  *discarded* (their effects may depend on the lost one).  This is
  acked data loss, so it fails loudly: the scan is flagged, the
  controller degrades its health, and the chaos CLI exits nonzero
  unless the plan declared the injection.
- **Snapshot corruption** — the checkpoint frame fails its CRC.  When
  the log still holds every frame since genesis
  (``medium.history_complete``), recovery falls back to full-history
  replay and loses nothing; when it does not (a snapshot-bootstrapped
  shard), the scan reports the state unrecoverable and recovers the
  tail prefix best-effort.

The same scan (with ``repair=False``) backs the ``repro replay``
divergence oracle: re-derive a store offline from snapshot + scanned
entries and fingerprint-compare it against the live one.

:class:`JournalBackfill` is the journal-as-history payoff: a bounded,
idempotent re-publication of a seq window (e.g. every retained
``ingest``) through a newly registered stream or filter, with a
resumable progress checkpoint — the ``replay_backfill`` pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.durability.codec import (
    FRAME_CORRUPT,
    FRAME_OK,
    FRAME_TORN,
    decode_entry,
    read_frame,
)
from repro.durability.errors import CodecError, SnapshotCorruptError
from repro.durability.journal import JournalEntry, StorageMedium


@dataclass(frozen=True)
class FrameIssue:
    """One damaged stretch of the log, classified."""

    kind: str  # "torn_tail" | "crc_mismatch" | "undecodable"
    offset: int
    detail: str


@dataclass
class RecoveryScan:
    """What a recovery pass found on the medium and what it salvaged."""

    #: Safe-to-replay entries: the longest valid prefix of the scanned
    #: region (the whole region when nothing was damaged).
    entries: list[JournalEntry] = field(default_factory=list)
    issues: list[FrameIssue] = field(default_factory=list)
    #: Decoded checkpoint state to restore under the entries, or None
    #: (no checkpoint yet, or full-history fallback in force).
    snapshot: dict[str, Any] | None = None
    snapshot_status: str = "none"  # "none" | "ok" | "corrupt"
    #: Frames quarantined by a CRC mismatch (acked-loss candidates).
    quarantined_frames: int = 0
    #: Truncated final frames (never acknowledged; zero acked loss).
    torn_frames: int = 0
    #: Intact frames after the first quarantined one — unreplayable
    #: because their effects may depend on the lost frame.
    discarded_frames: int = 0
    #: Torn bytes cut from the log end (when ``repair`` ran).
    truncated_bytes: int = 0
    scanned_frames: int = 0
    #: The snapshot rotted and recovery replayed from genesis instead.
    used_full_history: bool = False
    #: The snapshot rotted *and* the log cannot reproduce it (history
    #: incomplete): state before the tail is unrecoverable.
    snapshot_unrecoverable: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing acked can have been lost: no quarantined
        frames and no unrecoverable snapshot (torn tails are clean)."""
        return (self.quarantined_frames == 0
                and not self.snapshot_unrecoverable)

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": len(self.entries),
            "scanned_frames": self.scanned_frames,
            "quarantined_frames": self.quarantined_frames,
            "torn_frames": self.torn_frames,
            "discarded_frames": self.discarded_frames,
            "truncated_bytes": self.truncated_bytes,
            "snapshot_status": self.snapshot_status,
            "used_full_history": self.used_full_history,
            "snapshot_unrecoverable": self.snapshot_unrecoverable,
            "clean": self.clean,
            "issues": [{"kind": issue.kind, "offset": issue.offset,
                        "detail": issue.detail}
                       for issue in self.issues],
        }


def _scan_region(data: bytes, start: int, scan: RecoveryScan) -> int:
    """Walk frames in ``data[start:]`` into ``scan``.  Returns the
    offset where a torn tail begins, or ``len(data)`` when none."""
    offset = start
    poisoned = False
    while offset < len(data):
        status, body, next_offset = read_frame(data, offset)
        if status == FRAME_TORN:
            scan.torn_frames += 1
            scan.issues.append(FrameIssue(
                "torn_tail", offset,
                f"{len(data) - offset} bytes of incomplete final frame"))
            return offset
        scan.scanned_frames += 1
        if status == FRAME_CORRUPT:
            scan.quarantined_frames += 1
            scan.issues.append(FrameIssue(
                "crc_mismatch", offset, "frame body fails its CRC"))
            poisoned = True
        elif poisoned:
            scan.discarded_frames += 1
        else:
            try:
                scan.entries.append(decode_entry(body))
            except CodecError as exc:
                scan.quarantined_frames += 1
                scan.issues.append(FrameIssue(
                    "undecodable", offset, str(exc)))
                poisoned = True
        if next_offset <= offset:  # unparseable header: nothing beyond
            scan.issues.append(FrameIssue(
                "crc_mismatch", offset, "unresynchronizable frame header"))
            return len(data)
        offset = next_offset
    return len(data)


def run_recovery_scan(medium: StorageMedium, *,
                      repair: bool = True) -> RecoveryScan:
    """Classify the medium's damage and salvage what the policy allows.

    With ``repair`` (the recovery path) a torn tail is physically
    truncated from the log so later appends start on a frame boundary;
    without it (the verify path) the medium is left untouched.
    """
    scan = RecoveryScan()
    scan.snapshot_status = medium.snapshot_status()
    data = medium.log_view()
    if scan.snapshot_status == "corrupt":
        if medium.history_complete:
            # The log still holds every frame since genesis: replay it
            # all and the rotten snapshot costs nothing.
            scan.used_full_history = True
            start = 0
        else:
            scan.snapshot_unrecoverable = True
            start = medium.tail_offset
    else:
        if scan.snapshot_status == "ok":
            try:
                scan.snapshot = medium.load_snapshot()
            except SnapshotCorruptError:  # pragma: no cover - raced rot
                scan.snapshot_status = "corrupt"
                scan.snapshot_unrecoverable = True
        start = medium.tail_offset
    torn_at = _scan_region(data, start, scan)
    if torn_at < len(data):
        scan.truncated_bytes = len(data) - torn_at
        if repair:
            medium.truncate_log(torn_at)
    return scan


# -- backfill ---------------------------------------------------------

@dataclass
class BackfillCheckpoint:
    """Resumable progress cursor for a journal backfill."""

    #: The next journal seq to examine (everything below is done).
    next_seq: int = 0
    published: int = 0
    #: Entries in the window that the op/collection filter rejected.
    skipped: int = 0
    #: True once the cursor has moved past the whole requested window.
    exhausted: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"next_seq": self.next_seq, "published": self.published,
                "skipped": self.skipped, "exhausted": self.exhausted}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "BackfillCheckpoint":
        return cls(next_seq=doc.get("next_seq", 0),
                   published=doc.get("published", 0),
                   skipped=doc.get("skipped", 0),
                   exhausted=doc.get("exhausted", False))


class JournalBackfill:
    """Bounded, idempotent re-publication of a journal window.

    Walks the medium's *full* retained history (snapshot checkpoints
    do not hide frames), filters entries by op and collection, and
    hands each to ``publish`` — typically an adapter that pushes the
    record through a newly registered stream or filter.  Progress
    lives in a :class:`BackfillCheckpoint`: re-running with the
    returned checkpoint resumes exactly where the last batch stopped
    and never re-publishes an entry, so a crashed backfill is safe to
    restart.  Damaged frames are skipped (they are the recovery scan's
    business, already accounted there).
    """

    def __init__(self, medium: StorageMedium, *,
                 ops: Iterable[str] = ("ingest",),
                 collection: str | None = None):
        self.medium = medium
        self.ops = frozenset(ops)
        # Multi-record batches journal composite ``ingest_batch``
        # frames; a backfill asking for ingests must see those records
        # too, each expanded to a synthetic one-record ``ingest`` entry
        # so ``publish`` consumers keep their one-document contract.
        if "ingest" in self.ops:
            self.ops |= {"ingest_batch"}
        self.collection = collection

    @staticmethod
    def _expand(entry: JournalEntry) -> list[JournalEntry]:
        if entry.op != "ingest_batch":
            return [entry]
        from repro.core.common.batch import RecordBatch
        batch = RecordBatch.from_payload(entry.payload["batch"])
        return [JournalEntry(seq=entry.seq, op="ingest",
                             collection=entry.collection,
                             payload={"document": document,
                                      "record_id": batch.record_ids[index]})
                for index, document in enumerate(batch.store_documents())]

    def _history(self) -> Iterable[JournalEntry]:
        data = self.medium.log_view()
        offset = 0
        while offset < len(data):
            status, body, next_offset = read_frame(data, offset)
            if status == FRAME_TORN or next_offset <= offset:
                return
            if status == FRAME_OK:
                try:
                    yield decode_entry(body)
                except CodecError:
                    pass
            offset = next_offset

    def window(self, start_seq: int = 0,
               end_seq: int | None = None) -> list[JournalEntry]:
        """The matching entries with ``start_seq <= seq < end_seq``."""
        return [entry for entry in self._history()
                if entry.seq >= start_seq
                and (end_seq is None or entry.seq < end_seq)
                and self._matches(entry)]

    def _matches(self, entry: JournalEntry) -> bool:
        return (entry.op in self.ops
                and (self.collection is None
                     or entry.collection == self.collection))

    def run(self, publish: Callable[[JournalEntry], None], *,
            start_seq: int = 0, end_seq: int | None = None,
            limit: int | None = None,
            checkpoint: BackfillCheckpoint | None = None,
            ) -> BackfillCheckpoint:
        """Publish up to ``limit`` matching entries from the window,
        resuming from ``checkpoint`` and returning the advanced one."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        checkpoint = checkpoint or BackfillCheckpoint(next_seq=start_seq)
        cursor = max(start_seq, checkpoint.next_seq)
        batch = 0
        for entry in self._history():
            if entry.seq < cursor:
                continue
            if end_seq is not None and entry.seq >= end_seq:
                break
            if limit is not None and batch >= limit:
                return checkpoint  # bounded: resume from next_seq later
            if self._matches(entry):
                for expanded in self._expand(entry):
                    publish(expanded)
                checkpoint.published += 1
                batch += 1
            else:
                checkpoint.skipped += 1
            checkpoint.next_seq = entry.seq + 1
        checkpoint.exhausted = True
        return checkpoint
