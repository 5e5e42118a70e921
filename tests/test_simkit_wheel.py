"""Event-queue mechanics and firing-order goldens.

These tests were written for a calendar-queue event wheel that ran
beside the binary heap and had to fire the *identical* ``(time, seq)``
total order.  The wheel is deleted; the heap-backed
:class:`~repro.simkit.scheduler.EventQueue` is the only queue.  Each
test keeps its name and now checks the same property on that queue,
or, where it used to diff the wheel's firing log against the heap's,
pins the log to a golden recorded while both queues still ran the
program and agreed.
"""

from __future__ import annotations

import random
from hashlib import blake2b

import pytest

from repro.simkit import Scheduler, World


def _drive_program(seed: int, ops: int) -> list:
    """One randomized event program, logged as (clock, label) pairs.

    The program exercises everything the scheduler contract promises:
    nested scheduling from inside callbacks, same-instant ties (fire in
    scheduling order), cancellation (including cancel-after-pop no-ops
    and periodic churn that leaks cancelled entries), and interleaved
    ``run_until`` clock reads.
    """
    scheduler = Scheduler()
    rng = random.Random(seed)
    log: list = []
    handles = []
    periodics = []

    def fire(label: int, depth: int) -> None:
        log.append((scheduler.now, label))
        if depth > 0 and rng.random() < 0.6:
            # Nested schedules, sometimes at the exact current instant
            # (a zero delay) to force (time, seq) tie-breaking.
            delay = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 40.0)
            handles.append(scheduler.schedule(
                delay, fire, rng.randrange(1000), depth - 1))
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    for index in range(ops):
        at = rng.uniform(0.0, 250.0)
        handles.append(scheduler.schedule_at(at, fire, index, 2))
        if rng.random() < 0.15:
            periodics.append(scheduler.every(
                rng.uniform(0.5, 20.0), fire, 10_000 + index, 0,
                delay=rng.uniform(0.0, 30.0)))
        if periodics and rng.random() < 0.25:
            periodics.pop(rng.randrange(len(periodics))).cancel()
        if rng.random() < 0.1:
            log.append(("peek", scheduler.peek_time()))
    horizon = 0.0
    while scheduler.pending_count() and horizon < 400.0:
        horizon += rng.uniform(5.0, 50.0)
        scheduler.run_until(horizon)
        log.append(("clock", scheduler.now, scheduler.pending_count()))
    for task in periodics:
        task.cancel()
    scheduler.run_until(horizon + 60.0)
    log.append(("end", scheduler.now, scheduler.events_processed))
    return log


#: ``(seed, ops) -> (log entries, blake2b-128 of repr(log))``.  The
#: ``ops=200`` programs are the ones the wheel ran with buckets far
#: narrower than the event spacing (seed 3) and far wider than the
#: horizon (seed 4); ``(7, 120)`` is the wheel's admission check.
PROGRAM_GOLDENS = {
    (0, 250): (603, "bfd4b04d7a4bd6c1916e119c7e4a5bed"),
    (1, 250): (487, "fbd9f25dbce80865f4f4dde663a01b05"),
    (2, 250): (433, "273708bbad7a0a36df7a0a10eeee07c5"),
    (3, 250): (465, "022ee4464c61691d300cc3f7defa1d0d"),
    (4, 250): (482, "c79ee5cc87dd5db93d91f16bab110b52"),
    (5, 250): (512, "626603d3cde99102267c7394e3c69239"),
    (6, 250): (421, "2c712111aa77c9484c81e273b6a4095a"),
    (7, 250): (500, "e4b7271d73f0b5a99b1b5aa9c23a6a75"),
    (3, 200): (477, "532dd65cd4cacbf52405a2e6960b2bc8"),
    (4, 200): (352, "8cd1254ee6cbe8028962003fc4657a03"),
    (7, 120): (209, "dcad2261ec8a023ccfe3af108b0f0fb9"),
}


def _program_digest(seed: int, ops: int) -> tuple[int, str]:
    log = _drive_program(seed, ops)
    digest = blake2b(repr(log).encode("utf-8"), digest_size=16)
    return len(log), digest.hexdigest()


class TestEquivalenceOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_fire_identically(self, seed):
        entries, digest = _program_digest(seed, ops=250)
        assert entries > 100  # the program actually ran
        assert (entries, digest) == PROGRAM_GOLDENS[seed, 250]

    def test_narrow_buckets_still_identical(self):
        assert _program_digest(3, ops=200) == PROGRAM_GOLDENS[3, 200]

    def test_wide_buckets_still_identical(self):
        assert _program_digest(4, ops=200) == PROGRAM_GOLDENS[4, 200]

    def test_oracle_gate_passes_and_caches(self):
        # The admission check's program still gives its recorded log,
        # and a second run in the same process repeats it exactly: no
        # queue state leaks from one scheduler into the next.
        assert _program_digest(7, ops=120) == PROGRAM_GOLDENS[7, 120]
        assert _program_digest(7, ops=120) == PROGRAM_GOLDENS[7, 120]

    def test_world_rejects_unknown_selector(self):
        # There is no queue selector left to name: World refuses any.
        with pytest.raises(TypeError, match="scheduler"):
            World(scheduler="fibonacci")


class TestCalendarQueueMechanics:
    def test_pops_in_time_seq_order_across_buckets(self):
        scheduler = Scheduler()
        times = (5.5, 0.25, 3.75, 0.75, 3.25, 5.0, 0.5)
        for at in times:
            scheduler.schedule_at(at, lambda: None)
        popped = []
        while (handle := scheduler.queue.pop()) is not None:
            popped.append(handle.time)
        assert popped == sorted(times)

    def test_ties_fire_in_scheduling_order(self):
        scheduler = Scheduler()
        fired = []
        for label in range(6):
            scheduler.schedule_at(2.0, fired.append, label)
        scheduler.run()
        assert fired == list(range(6))

    def test_same_instant_pileup_never_resizes(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        fired = []
        for label in range(300):
            scheduler.schedule_at(0.5, fired.append, label)
        # Nothing was cancelled, so the heap never rebuilds itself.
        assert queue.compactions == 0
        assert queue.live_count() == 300
        scheduler.run()
        assert fired == list(range(300))

    def test_cancellation_compaction_sweep(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        handles = [scheduler.schedule_at(float(index), lambda: None)
                   for index in range(200)]
        for handle in handles[:120]:
            handle.cancel()
        # More than half cancelled => at least one sweep rebuilt the
        # heap, and dead entries never reach a majority of the
        # physical size afterwards.
        assert queue.compactions >= 1
        assert queue.live_count() == 80
        physical = len(queue._heap)
        assert physical < 200
        assert (physical - queue.live_count()) * 2 <= physical

    def test_peek_skips_cancelled_head(self):
        scheduler = Scheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        second = scheduler.schedule_at(2.0, lambda: None)
        first.cancel()
        assert scheduler.queue.peek() is second
        assert scheduler.peek_time() == 2.0

    def test_empty_buckets_are_reclaimed(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        for at in (0.5, 10.5, 20.5):
            scheduler.schedule_at(at, lambda: None)
        scheduler.schedule_at(30.5, lambda: None).cancel()
        scheduler.run()
        # Fired and cancelled entries alike have left the heap.
        assert queue._heap == []
        assert queue.live_count() == 0


class TestHeapCompactionSweep:
    def test_cancelled_majority_triggers_sweep(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        handles = [scheduler.schedule_at(float(index), lambda: None)
                   for index in range(128)]
        for handle in handles[:100]:
            handle.cancel()
        assert queue.compactions >= 1
        # The sweep reclaimed the bulk of the dead entries: the heap
        # shrank well below its 128-entry physical peak.
        assert queue.live_count() == 28
        assert len(queue._heap) < 128
        # Residual dead entries are bounded: below COMPACT_MIN the
        # sweep doesn't bother, so the slack never exceeds that floor.
        assert len(queue._heap) - queue.live_count() <= queue.COMPACT_MIN

    def test_small_queues_skip_compaction(self):
        scheduler = Scheduler()
        handles = [scheduler.schedule_at(float(index), lambda: None)
                   for index in range(10)]
        for handle in handles:
            handle.cancel()
        assert scheduler.queue.compactions == 0  # below COMPACT_MIN

    def test_periodic_churn_stays_bounded(self):
        # The original leak: cancelling periodic tasks left their
        # pending occurrences in the heap forever.
        scheduler = Scheduler()
        queue = scheduler.queue
        for round_index in range(300):
            task = scheduler.every(1.0, lambda: None, delay=500.0)
            scheduler.schedule_at(float(round_index), lambda: None)
            task.cancel()
        assert len(queue._heap) <= 2 * queue.live_count() + queue.COMPACT_MIN

    def test_firing_order_unaffected_by_sweep(self):
        def run(with_cancels):
            scheduler = Scheduler()
            fired = []
            for i in range(0, 200, 4):
                scheduler.schedule_at(float(i), fired.append, i)
            dead = [scheduler.schedule_at(float(i), fired.append, i)
                    for i in range(200) if i % 4]
            if with_cancels:
                for handle in dead:
                    handle.cancel()
                assert scheduler.queue.compactions >= 1
            scheduler.run()
            return [label for label in fired if label % 4 == 0]
        assert run(True) == run(False) == list(range(0, 200, 4))


class TestWheelDrivesFullTestbed:
    def test_testbed_fingerprints_identical_on_wheel(self):
        """The strongest end-to-end witness: a full SenSocial testbed
        (phones, MQTT, server ingest) gives the event count and docstore
        fingerprint that heap and wheel both gave when recorded."""
        from repro import Granularity, ModalityType, SenSocialTestbed
        from repro.durability.codec import fingerprint_store

        testbed = SenSocialTestbed(seed=11)
        for index, city in enumerate(("Paris", "Bordeaux")):
            node = testbed.add_user(f"user{index}", home_city=city)
            node.manager.create_stream(ModalityType.ACCELEROMETER,
                                       Granularity.CLASSIFIED,
                                       send_to_server=True)
        testbed.run(600.0)
        assert (testbed.world.scheduler.events_processed,
                fingerprint_store(testbed.server.database.store)) \
            == (460, "6c6fa6472905b55dac7b9578e7c3d2cd")
