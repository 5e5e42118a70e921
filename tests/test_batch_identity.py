"""The batch size must be an invisible optimization.

Every uplink record travels as a columnar wire envelope.  The default
deployment (``batching=None``) sends every record as a batch of one;
``batching=N`` lets backlog leave in batches of up to N (one message,
one journal frame, one index pass, one ack per batch).  The batch size
is a transport and execution choice ONLY.  These are the property
tests pinning that claim: for the same seed and workload, a
batch-of-one run and a batch-of-N run must produce

* bit-identical docstore contents (canonical store fingerprints),
* the same stream delivery order at server applications,
* the same trace terminal accounting (delivered/dropped taxonomy),
* journal replays that re-derive the store exactly
  (``repro replay --verify``'s oracle, ``verify_replay()``),

on the monolithic server AND on a sharded cluster, through faults —
including a server crash landing mid-batch, where in-flight envelopes
die and outboxes retransmit their members after the restart.
"""

from __future__ import annotations

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.mobile.manager import MobileSenSocialManager
from repro.durability import codec
from repro.durability.codec import fingerprint_store
from repro.faults import ChaosController, FaultPlan
from repro.scenarios.testbed import SenSocialTestbed

USERS = ("alice", "bob")

#: Main sensing window; faults land inside it, the tail drains after.
HORIZON_S = 500.0
DRAIN_S = 120.0


def run_deployment(seed: int, *, batching, durability=True, shards=None,
                   observability=False, plan: FaultPlan | None = None):
    """One full deployment; returns ``(testbed, delivery_order)``."""
    testbed = SenSocialTestbed(seed=seed, durability=durability,
                               shards=shards, observability=observability,
                               batching=batching)
    delivered: list[tuple] = []
    testbed.server.register_listener(
        lambda record: delivered.append(
            (record.user_id, record.timestamp, record.modality.value,
             record.value)))
    for user_id in USERS:
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    if plan is not None:
        ChaosController(testbed).apply(plan)
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)
    return testbed, delivered


def store_fingerprints(testbed) -> list[str]:
    """Canonical digests of every server-side store (one per shard)."""
    if testbed.shards is None:
        return [fingerprint_store(testbed.server.database.store)]
    return [fingerprint_store(worker.database.store)
            for worker in testbed.server.shard_workers()]


def replay_matches(testbed) -> list[bool]:
    """``repro replay --verify``'s oracle for every journal."""
    controllers = (testbed.durabilities if testbed.durabilities is not None
                   else [testbed.durability])
    return [controller.verify_replay()["match"]
            for controller in controllers]


def ingest_counters(testbed) -> tuple[int, int]:
    """(records ingested, duplicates dropped), mono or cluster-summed."""
    counters = testbed.server.health()["counters"]
    return (int(counters["records_received"]),
            int(counters["duplicates_dropped"]))


def assert_identical(batch_of_one, batched) -> None:
    """The full identity contract between two ``run_deployment`` results."""
    base_testbed, base_order = batch_of_one
    batch_testbed, batch_order = batched
    assert ingest_counters(base_testbed)[0] > 0
    assert store_fingerprints(batch_testbed) == \
        store_fingerprints(base_testbed)
    assert batch_order == base_order
    assert ingest_counters(batch_testbed) == ingest_counters(base_testbed)


class TestPlainIdentity:
    @pytest.mark.parametrize("seed", [7, 21])
    def test_durable_mono(self, seed):
        base = run_deployment(seed, batching=None)
        batched = run_deployment(seed, batching=4)
        assert_identical(base, batched)
        assert replay_matches(batched[0]) == [True]

    def test_volatile_mono(self):
        """No durability: the volatile branch of ``_on_stream_batch``."""
        base = run_deployment(7, batching=None, durability=False)
        batched = run_deployment(7, batching=8, durability=False)
        assert_identical(base, batched)

    def test_durable_sharded(self):
        base = run_deployment(11, batching=None, shards=2)
        batched = run_deployment(11, batching=16, shards=2)
        assert_identical(base, batched)
        assert replay_matches(batched[0]) == [True, True]


class TestIdentityUnderFaults:
    def test_server_crash_mid_batch(self):
        """A crash lands while envelopes are in flight: the members die
        un-acked, outboxes retransmit them after the restart, and the
        replayed journal still re-derives the exact same store."""
        def plan():
            return FaultPlan("crash").server_crash(at=400.0, downtime=60.0)
        base = run_deployment(13, batching=None, observability=True,
                              plan=plan())
        batched = run_deployment(13, batching=8, observability=True,
                                 plan=plan())
        assert_identical(base, batched)
        assert replay_matches(batched[0]) == [True]
        # Trace terminal accounting: same journeys, same endings.
        assert batched[0].obs.tracer.terminal_counts() == \
            base[0].obs.tracer.terminal_counts()
        assert batched[0].obs.tracer.drop_taxonomy() == \
            base[0].obs.tracer.drop_taxonomy()

    def test_partition_plus_crash_flushes_real_batches(self):
        """A partition backs the outbox up, so the reconnect flush
        sends genuinely multi-record envelopes — then a crash forces
        retransmission through the durable path.  Identity must hold
        AND the run must prove batches actually flowed."""
        def plan():
            return (FaultPlan("partition-crash")
                    .partition("device:alice", start=120.0, duration=180.0)
                    .server_crash(at=500.0, downtime=60.0))
        base = run_deployment(17, batching=None, observability=True,
                              plan=plan())
        batched = run_deployment(17, batching=8, observability=True,
                                 plan=plan())
        assert_identical(base, batched)
        assert replay_matches(batched[0]) == [True]
        assert batched[0].obs.tracer.terminal_counts() == \
            base[0].obs.tracer.terminal_counts()
        # Proof of multi-record envelopes: the publish-stage batch-size
        # histogram saw at least one flush bigger than a singleton.
        histogram = batched[0].obs.telemetry.histogram(
            "batch_size", stage="publish")
        assert histogram.count > 0
        assert histogram.max is not None and histogram.max > 1

    def test_sharded_crash(self):
        """Same contract on a 2-shard cluster with a mid-run crash."""
        def plan():
            return FaultPlan("crash").server_crash(at=300.0, downtime=45.0)
        base = run_deployment(23, batching=None, shards=2, plan=plan())
        batched = run_deployment(23, batching=8, shards=2, plan=plan())
        assert_identical(base, batched)
        assert all(replay_matches(batched[0]))


INGEST_OPS = {"ingest", "ingest_batch"}


def journal_ops(controller) -> set[str]:
    """Every frame kind in a journal's full retained history."""
    data, offset, ops = controller.medium.log_view(), 0, set()
    while offset < len(data):
        status, body, offset = codec.read_frame(data, offset)
        assert status == codec.FRAME_OK
        ops.add(codec.decode_entry(body).op)
    return ops


class TestJournalFrames:
    """The writer picks the ingest frame from the batch size: a batch
    of one is an ``ingest`` frame, a larger batch one ``ingest_batch``
    frame.  Replay must re-derive the store from either."""

    def test_batches_of_one_journal_ingest_frames(self):
        testbed, _ = run_deployment(7, batching=None)
        assert journal_ops(testbed.durability) & INGEST_OPS == {"ingest"}
        assert replay_matches(testbed) == [True]

    def test_backlog_journals_ingest_batch_frames(self):
        plan = FaultPlan("partition").partition(
            "device:alice", start=120.0, duration=180.0)
        testbed, _ = run_deployment(17, batching=8, shards=2, plan=plan)
        ops = set().union(*(journal_ops(controller)
                            for controller in testbed.durabilities))
        assert "ingest_batch" in ops
        assert all(replay_matches(testbed))


def test_batch_max_must_be_a_positive_int():
    testbed = SenSocialTestbed(seed=0)
    node = testbed.add_user("alice", "Paris")
    for bad in (None, 0):
        with pytest.raises(ValueError):
            MobileSenSocialManager(testbed.world, node.phone,
                                   testbed.network, batch_max=bad)
