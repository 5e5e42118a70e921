"""The server durability controller.

Binds the durable-ingest machinery to a
:class:`~repro.core.server.manager.ServerSenSocialManager`:

- **intake** — ``submit_batch()`` short-circuits duplicates against
  the dedup window, quarantines members that fail validation, and
  admits the rest as one item to the bounded intake queue (shedding
  lowest-priority continuous items first);
- **drain** — a self-rescheduling pump applies one item per tick
  through the write-ahead journal, paced by the storage medium's
  write latency and gated by the circuit breaker;
- **crash/restart** — ``on_crash()`` wipes the volatile queue (those
  records are unacked and will be retransmitted); ``recover()``
  rebuilds the journaled store from the medium's snapshot + journal
  tail and returns the dedup ids to restore, so post-restart ingest
  stays exactly-once.

The controller never touches an RNG stream and schedules work only
while the durable path is active, so a run with durability disabled
(no controller) is bit-identical to one on a build without this
module.  It also never imports ``repro.core.server`` — the manager
owns the typed objects (``ServerDatabase``, ``RecordDeduper``) and
hands itself in via :meth:`bind`.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.journaled import JournaledDocumentStore
from repro.durability import codec
from repro.durability.admission import AdmissionController, IntakeItem
from repro.durability.breaker import CircuitBreaker
from repro.durability.config import DurabilityConfig
from repro.durability.errors import StorageWriteError
from repro.durability.fair import FairAdmissionController
from repro.durability.journal import StorageMedium, WriteAheadJournal, replay
from repro.durability.quarantine import DeadLetterQuarantine
from repro.durability.recovery import (
    BackfillCheckpoint,
    JournalBackfill,
    run_recovery_scan,
)
from repro.obs.health import STATUS_DEGRADED, STATUS_OK, Healthcheck

class ServerDurability:
    """Write-ahead journaling + overload protection for one server."""

    def __init__(self, world, config: DurabilityConfig | None = None,
                 medium: StorageMedium | None = None):
        self.world = world
        self.config = config if config is not None else DurabilityConfig()
        self.medium = medium if medium is not None else StorageMedium()
        self.server: Any = None
        self.journal: WriteAheadJournal | None = None
        self.store: JournaledDocumentStore | None = None
        if self.config.fair_admission:
            self.admission = FairAdmissionController(
                self.config.intake_capacity,
                high_watermark=self.config.high_watermark,
                low_watermark=self.config.low_watermark,
                weights=dict(self.config.fair_weights))
        else:
            self.admission = AdmissionController(
                self.config.intake_capacity,
                high_watermark=self.config.high_watermark,
                low_watermark=self.config.low_watermark)
        self.breaker = CircuitBreaker(self.config.breaker_trip_after,
                                      self.config.breaker_reset_s)
        self.quarantine = DeadLetterQuarantine(self.config.quarantine_capacity)
        self.medium.retain_history = self.config.retain_history
        self.medium.observer = self._observe_medium
        self.records_shed = 0
        self.records_quarantined = 0
        self.pending_duplicates = 0
        self.crash_wiped = 0
        self.replayed_entries = 0
        self.recoveries = 0
        #: Documents checkpoints actually encoded (the rest were
        #: spliced from cached encodings).
        self.checkpoint_documents_encoded = 0
        #: Corruption accounting, aggregated across recoveries.
        self.frames_quarantined = 0
        self.frames_torn = 0
        self.frames_discarded = 0
        self.bytes_truncated = 0
        self.snapshot_fallbacks = 0
        self.snapshot_unrecoverable = 0
        #: Sticky: a recovery scan found acked-loss damage (a
        #: quarantined frame or an unrecoverable snapshot).  Health
        #: stays degraded — this store diverged from what it acked.
        self.corruption_detected = False
        #: ``RecoveryScan.to_dict()`` + replay outcome of the last
        #: recovery, for the chaos report's recovery section.
        self.last_recovery: dict[str, Any] | None = None
        #: Replay failure taxonomy across recoveries (op/collection/
        #: error per entry whose apply failed).
        self.replay_failures: list[dict[str, Any]] = []
        #: Bumped on every crash; a drain step scheduled before the
        #: crash sees a stale epoch and dies instead of running twice.
        self._epoch = 0
        self._pump_active = False

    # -- wiring -------------------------------------------------------

    def bind(self, server) -> None:
        """Attach to the server manager this controller protects."""
        self.server = server

    def build_store(self) -> JournaledDocumentStore:
        """The journaled store the server database must be built on."""
        self.journal = WriteAheadJournal(
            self.medium, self.config.checkpoint_interval,
            state_provider=self._snapshot_state)
        self.store = JournaledDocumentStore(self.journal)
        return self.store

    def _snapshot_state(self) -> dict[str, Any]:
        """The checkpoint state: the store snapshot, with each
        collection's documents spliced from their cached encodings
        (same frame bytes, see :func:`codec.encode_documents`), and the
        dedup window."""
        snapshot = self.store.snapshot()
        for name, collection_state in snapshot["collections"].items():
            collection_state["documents"], encoded = codec.encode_documents(
                self.store[name])
            self.checkpoint_documents_encoded += encoded
        state: dict[str, Any] = {"store": snapshot}
        if self.server is not None:
            state["dedup"] = self.server.dedup.snapshot()
        return state

    @property
    def _obs(self):
        return self.server.obs if self.server is not None else None

    def _observe_medium(self, name: str, amount: int) -> None:
        """Medium-level counter callback → Telemetry (when wired)."""
        obs = self._obs
        if obs is not None:
            obs.telemetry.counter(name).inc(amount)

    # -- intake -------------------------------------------------------

    def submit_batch(self, batch, *, reply_to: str | None,
                     sent_at: float | None) -> None:
        """Admit one arriving batch to the durable path (a record is a
        batch of one).

        Members partition exactly as N one-record batches would:
        already-seen ids re-ack (one ack envelope), ids still pending
        in intake stay silent — not yet durable, so the sender keeps
        its retry timer running — poison members quarantine
        individually, and the fresh remainder enters the queue as ONE
        intake item carrying the (sub-)batch — admission, journaling
        and the eventual ack all amortize across it.  A mixed batch
        takes the max member priority, so an OSN-triggered member
        shields its batch from watermark shedding just as it would
        shield itself.
        """
        server = self.server
        obs = self._obs
        now = self.world.now
        record_ids = batch.record_ids
        traces: list[Any] | None = None
        if obs is not None:
            from repro.obs.trace import TraceContext
            traces = [TraceContext.from_dict(trace) if trace is not None
                      else None for trace in batch.traces]
            started = now if sent_at is None else sent_at
            for trace in traces:
                obs.tracer.span(trace, "transport", start=started)
            obs.telemetry.histogram(
                "batch_size", stage="admission").observe(len(record_ids))
        dedup = server.dedup
        pending = self.admission.pending
        duplicate_ids = []
        fresh: list[int] = []
        for index, record_id in enumerate(record_ids):
            if record_id is not None and record_id in dedup:
                # Applied (or terminally disposed) before: re-ack so the
                # sender stops retrying; idempotent ingest absorbs it.
                dedup.seen(record_id)
                server.records_duplicate += 1
                duplicate_ids.append(record_id)
                if obs is not None:
                    obs.tracer.event(traces[index], "duplicate_ingest",
                                     record_id=record_id)
                    obs.telemetry.counter("records_duplicate").inc()
                continue
            if record_id is not None and pending(record_id):
                self.pending_duplicates += 1
                if obs is not None:
                    obs.tracer.event(traces[index], "duplicate_pending",
                                     record_id=record_id)
                continue
            fresh.append(index)
        if duplicate_ids:
            server._send_batch_ack(duplicate_ids, reply_to)
        if not fresh:
            return
        # Poison screen: a member the apply step could not rebuild as a
        # record is quarantined here instead of raising there.
        unknown = set(batch.unknown_members())
        poison = [index for index in fresh if index in unknown]
        if poison:
            self._quarantine(batch.select(poison), reply_to, "invalid")
        admitted = [index for index in fresh if index not in unknown]
        if not admitted:
            return
        sub = batch if len(admitted) == len(record_ids) \
            else batch.select(admitted)
        item = IntakeItem(
            batch=sub, reply_to=reply_to,
            priority=1 if any(sub.osn_actions) else 0, enqueued_at=now)
        victims = self.admission.admit(item)
        if obs is not None:
            depth = len(self.admission)
            for index in admitted:
                obs.tracer.span(traces[index], "admission",
                                start=now, depth=depth)
            obs.telemetry.gauge("intake_depth").set(depth)
        for victim in victims:
            self._shed(victim)
        self._ensure_pump()

    # -- drain pump ---------------------------------------------------

    def _ensure_pump(self) -> None:
        if self._pump_active or not len(self.admission):
            return
        self._pump_active = True
        delay = self.config.drain_interval_s + self.medium.write_latency_s
        self.world.scheduler.schedule(delay, self._drain_step, self._epoch)

    def _drain_step(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # scheduled before a crash; the restart superseded it
        self._pump_active = False
        now = self.world.now
        if not len(self.admission):
            return
        if not self.breaker.allow(now):
            self._ensure_pump()  # keep polling until the breaker half-opens
            return
        if self._apply_next():
            self.breaker.record_success()
        else:
            self.breaker.record_failure(now)
        self._ensure_pump()

    def drain(self) -> int:
        """Synchronously flush the intake queue.

        A cluster drains a healthy shard before scale-in or an upgrade
        restart: every admitted item is applied through the journal
        now, with the pump's requeue-or-quarantine decision on a failed
        append, so the queue ends empty and nothing admitted dies
        un-acked.  The breaker is the pump's pacing and is left alone.
        Returns the number of intake items applied.
        """
        drained = 0
        while len(self.admission):
            drained += self._apply_next()
        return drained

    def _apply_next(self) -> bool:
        """Apply the queue's next item; True when it was journaled.

        A failed append requeues the item, or quarantines it once it
        has failed ``max_apply_attempts`` times.
        """
        item = self.admission.pop()
        try:
            self.server._apply_intake(item)
        except StorageWriteError:
            item.attempts += 1
            if item.attempts >= self.config.max_apply_attempts:
                self._quarantine(item.batch, item.reply_to,
                                 "repeated_write_failure")
            else:
                self.admission.requeue(item)
            return False
        return True

    # -- drops --------------------------------------------------------

    def _shed(self, victim: IntakeItem) -> None:
        """Load-shed one queued item, every member of it: ack (a
        deliberate drop must not be retried), remember the ids so a
        late retransmission is not re-admitted, and attribute each
        drop."""
        reason = "breaker_open" if self.breaker.is_open else "shed"
        server = self.server
        batch = victim.batch
        self.records_shed += len(batch)
        for record_id in batch.record_ids:
            if record_id is not None:
                server.dedup.remember(record_id)
        server._send_batch_ack(batch.record_ids, victim.reply_to)
        obs = self._obs
        if obs is not None:
            for trace in self._batch_traces(batch):
                obs.tracer.mark_dropped(trace, "admission", reason)
            obs.telemetry.counter("records_dropped", stage="admission",
                                  reason=reason).inc(len(batch))

    def _batch_traces(self, batch):
        from repro.obs.trace import TraceContext
        return [TraceContext.from_dict(trace) if trace is not None else None
                for trace in batch.traces]

    def _quarantine(self, batch, reply_to: str | None, reason: str) -> None:
        """Dead-letter every member of ``batch`` (each quarantine entry
        stays individually inspectable), remember the ids so a
        retransmission dedups quietly, and ack them all at once."""
        server = self.server
        record_ids = batch.record_ids
        now = self.world.now
        for record_id, document in zip(record_ids, batch.store_documents()):
            if record_id is not None:
                document["record_id"] = record_id
                server.dedup.remember(record_id)
            self.quarantine.put(record_id=record_id, reason=reason,
                                at=now, payload=document)
        self.records_quarantined += len(record_ids)
        server._send_batch_ack(record_ids, reply_to)
        obs = self._obs
        if obs is not None:
            for trace in self._batch_traces(batch):
                obs.tracer.mark_dropped(trace, "ingest", "quarantined")
            obs.telemetry.counter("records_dropped", stage="ingest",
                                  reason="quarantined",
                                  quarantine_reason=reason).inc(
                                      len(record_ids))

    # -- crash / recovery ---------------------------------------------

    def on_crash(self) -> None:
        """The server process died: volatile intake is gone.  Wiped
        records are unacked — their traces stay in flight and the
        mobile outboxes retransmit them after the restart."""
        self._epoch += 1
        self._pump_active = False
        wiped = self.admission.wipe()
        self.crash_wiped += len(wiped)

    def recover(self) -> tuple[JournaledDocumentStore, list[str]]:
        """Rebuild the store from snapshot + journal replay.

        The medium is scanned and classified first
        (:func:`~repro.durability.recovery.run_recovery_scan`): a torn
        tail is truncated (never acked, zero acked loss), a mid-log CRC
        mismatch quarantines the frame and recovers the longest valid
        prefix while flagging sticky-degraded health, and a rotten
        snapshot falls back to full-history replay when the log still
        reaches back to genesis.

        Returns the recovered store and the record ids (snapshot dedup
        state, then replayed ingests in journal order) the manager must
        feed back into a fresh dedup window.
        """
        store = self.build_store()  # fresh journal bound to the medium
        journal = self.journal
        dedup_ids: list[str] = []
        scan = run_recovery_scan(self.medium, repair=True)
        with journal.suspended():
            if scan.snapshot is not None:
                store.restore(scan.snapshot["store"])
                dedup_ids.extend(scan.snapshot.get("dedup", []))
            result = replay(store, scan.entries)
        dedup_ids.extend(result.dedup_ids)
        self.replayed_entries += result.applied
        self.recoveries += 1
        self.frames_quarantined += scan.quarantined_frames
        self.frames_torn += scan.torn_frames
        self.frames_discarded += scan.discarded_frames
        self.bytes_truncated += scan.truncated_bytes
        self.snapshot_fallbacks += int(scan.used_full_history)
        self.snapshot_unrecoverable += int(scan.snapshot_unrecoverable)
        if not scan.clean:
            self.corruption_detected = True
        self.replay_failures.extend(result.failures)
        self.last_recovery = {
            "scan": scan.to_dict(),
            "replayed": result.applied,
            "replay_failed": result.failed,
            "replay_failures": list(result.failures),
        }
        obs = self._obs
        if obs is not None:
            from repro.obs.trace import TraceContext
            for record_id, trace_doc in result.traces:
                obs.tracer.span(TraceContext.from_dict(trace_doc), "replay",
                                record_id=record_id)
            obs.telemetry.counter("journal_entries_replayed").inc(
                result.applied)
            obs.telemetry.counter("recovery_scans").inc()
            for name, amount in (
                    ("journal_frames_quarantined", scan.quarantined_frames),
                    ("journal_frames_torn", scan.torn_frames),
                    ("journal_frames_discarded", scan.discarded_frames),
                    ("journal_bytes_truncated", scan.truncated_bytes),
                    ("journal_snapshot_fallbacks",
                     int(scan.used_full_history)),
                    ("journal_replay_failures", result.failed)):
                if amount:
                    obs.telemetry.counter(name).inc(amount)
        return store, dedup_ids

    def finish_recovery(self) -> None:
        """Fold the replayed tail into a fresh checkpoint so the next
        crash does not replay it again.  Called after the manager has
        rebuilt its database and dedup window on the recovered store."""
        self.journal.checkpoint()

    def import_state(self, documents: dict[str, list[dict]]) -> int:
        """Snapshot-bootstrap: bulk-load a migrated state slice.

        A shard joining the cluster inherits documents from the shards
        that owned them before the ring change.  Loading them through
        the journal would append one entry per document; instead the
        writes run with the journal suspended and the whole imported
        state is folded into a single checkpoint — the new shard's
        journal cost is one snapshot write regardless of slice size
        (``docs/SCALING.md`` §4).

        The caller must seed the server's dedup window *before* calling
        this: the checkpoint persists the dedup snapshot alongside the
        store, so a crash right after the import recovers both.

        Returns the number of documents imported.
        """
        imported = 0
        with self.journal.suspended():
            for collection_name, docs in documents.items():
                collection = self.store[collection_name]
                for doc in docs:
                    collection.insert_one(
                        {key: value for key, value in doc.items()
                         if key != "_id"})
                    imported += 1
        # The bulk load bypassed the journal: the log can no longer
        # reproduce state from seq 0, so a rotten snapshot has no
        # full-history fallback on this shard.
        self.medium.mark_history_incomplete()
        self.journal.checkpoint()
        return imported

    # -- replay oracle / backfill -------------------------------------

    def replay_store(self):
        """Re-derive a store offline from the medium, without touching
        the live one: a read-only recovery scan (no torn-tail repair)
        replayed onto a fresh plain :class:`DocumentStore`.

        Returns ``(store, scan, replay_result)``.
        """
        from repro.docstore.store import DocumentStore

        scan = run_recovery_scan(self.medium, repair=False)
        name = self.store.name if self.store is not None else "sensocial"
        store = DocumentStore(name)
        if scan.snapshot is not None:
            store.restore(scan.snapshot["store"])
        result = replay(store, scan.entries)
        return store, scan, result

    def verify_replay(self) -> dict[str, Any]:
        """The divergence oracle: fingerprint the live store against an
        offline snapshot+journal re-derivation.

        A mismatch means the durable history does not reproduce the
        state the server is serving — a dirty write the journal
        absorbed (``lost_appends``), unrepaired damage, or a bug.
        ``repro replay --verify`` exits nonzero on it.
        """
        replayed, scan, result = self.replay_store()
        live = codec.fingerprint_store(self.store)
        derived = codec.fingerprint_store(replayed)
        return {
            "match": live == derived,
            "live_fingerprint": live,
            "replayed_fingerprint": derived,
            "lost_appends": self.journal.lost_appends if self.journal else 0,
            "replayed": result.applied,
            "replay_failed": result.failed,
            "scan": scan.to_dict(),
        }

    def backfill(self, publish, *, ops=("ingest",),
                 collection: str | None = None, start_seq: int = 0,
                 end_seq: int | None = None, limit: int | None = None,
                 checkpoint: BackfillCheckpoint | None = None,
                 ) -> BackfillCheckpoint:
        """Re-publish a bounded window of retained journal history
        through ``publish`` (a newly registered stream/filter adapter);
        see :class:`~repro.durability.recovery.JournalBackfill`."""
        backfill = JournalBackfill(self.medium, ops=ops,
                                   collection=collection)
        return backfill.run(publish, start_seq=start_seq, end_seq=end_seq,
                            limit=limit, checkpoint=checkpoint)

    def bootstrap_work(self) -> dict[str, int]:
        """Deterministic cost counters of this shard's journal medium
        (appends + checkpoints); a cluster diffs them across a joining
        shard's bootstrap to report what loading its slice cost."""
        return {"journal_appends": self.medium.appends,
                "checkpoints": self.medium.checkpoints}

    # -- observability ------------------------------------------------

    def health(self) -> dict:
        degraded = (self.breaker.is_open or len(self.admission) > 0
                    or len(self.quarantine) > 0
                    or self.corruption_detected)
        extra: dict[str, Any] = {}
        if isinstance(self.admission, FairAdmissionController):
            extra["fair_admission"] = True
            extra["fair_sources"] = len(self.admission.fairness_report())
        if self.last_recovery is not None:
            extra["recovery"] = self.last_recovery
        if self.corruption_detected:
            extra["corruption_detected"] = True
        return Healthcheck.build(
            status=STATUS_DEGRADED if degraded else STATUS_OK,
            detail=(f"durability: breaker {self.breaker.state}, "
                    f"intake {len(self.admission)}/{self.config.intake_capacity}, "
                    f"journal lag {self.journal.lag if self.journal else 0}"),
            counters={
                "intake_depth": len(self.admission),
                "intake_max_depth": self.admission.max_depth,
                "records_shed": self.records_shed,
                "records_quarantined": self.records_quarantined,
                "pending_duplicates": self.pending_duplicates,
                "crash_wiped": self.crash_wiped,
                "journal_lag": self.journal.lag if self.journal else 0,
                "journal_appends": self.medium.appends,
                "journal_append_failures": self.medium.append_failures,
                "journal_lost_appends":
                    self.journal.lost_appends if self.journal else 0,
                "checkpoints": self.medium.checkpoints,
                "replayed_entries": self.replayed_entries,
                "recoveries": self.recoveries,
                "checkpoint_documents_encoded":
                    self.checkpoint_documents_encoded,
                "journal_frames_quarantined": self.frames_quarantined,
                "journal_frames_torn": self.frames_torn,
                "journal_frames_discarded": self.frames_discarded,
                "journal_bytes_truncated": self.bytes_truncated,
                "journal_snapshot_fallbacks": self.snapshot_fallbacks,
                "journal_snapshot_unrecoverable": self.snapshot_unrecoverable,
                "journal_truncated_entries": self.medium.truncated_entries,
                "replay_failures": len(self.replay_failures),
                "breaker_trips": self.breaker.trips,
                **extra,
            },
            breaker=self.breaker.to_dict(),
            quarantine_reasons=self.quarantine.reasons(),
        )
