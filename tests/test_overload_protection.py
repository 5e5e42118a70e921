"""Overload protection: bounded admission with watermark shedding,
the storage circuit breaker, and the dead-letter quarantine."""

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.common.batch import RecordBatch
from repro.core.common.records import StreamRecord
from repro.durability import (
    AdmissionController,
    CircuitBreaker,
    DeadLetterQuarantine,
    DurabilityConfig,
    IntakeItem,
)
from repro.scenarios.testbed import SenSocialTestbed


def item(record_id, priority=0, enqueued_at=0.0):
    batch = RecordBatch.from_documents([{
        "stream_id": "s1", "user_id": "alice", "device_id": "d1",
        "modality": "accelerometer", "granularity": "classified",
        "timestamp": enqueued_at, "value": "walking",
        "record_id": record_id}])
    return IntakeItem(batch=batch, reply_to=None, priority=priority,
                      enqueued_at=enqueued_at)


class TestAdmissionController:
    def test_bounded_by_capacity(self):
        admission = AdmissionController(4, high_watermark=1.0,
                                        low_watermark=1.0)
        victims = []
        for index in range(10):
            victims += admission.admit(item(f"r{index}"))
        assert len(admission) <= 4
        assert len(victims) == 6
        assert admission.max_depth <= 5

    def test_watermark_sheds_to_low(self):
        admission = AdmissionController(10, high_watermark=0.8,
                                        low_watermark=0.5)
        victims = []
        for index in range(8):
            victims += admission.admit(item(f"r{index}"))
        # Crossing 8 = high*10 sheds down to int(0.5*10) = 5.
        assert len(admission) == 5
        assert [victim.record_ids()[0] for victim in victims] == ["r0", "r1", "r2"]

    def test_continuous_shed_before_osn(self):
        admission = AdmissionController(4, high_watermark=1.0,
                                        low_watermark=1.0)
        admission.admit(item("osn0", priority=1))
        admission.admit(item("c0", priority=0))
        admission.admit(item("osn1", priority=1))
        admission.admit(item("c1", priority=0))
        victims = admission.admit(item("c2", priority=0))
        # Hard overflow: the oldest continuous record goes, never an
        # OSN-triggered one while a continuous is available.
        assert [victim.record_ids()[0] for victim in victims] == ["c0"]
        assert admission.pending("osn0") and admission.pending("osn1")

    def test_osn_shed_only_when_nothing_else(self):
        admission = AdmissionController(2, high_watermark=1.0,
                                        low_watermark=1.0)
        admission.admit(item("osn0", priority=1))
        admission.admit(item("osn1", priority=1))
        victims = admission.admit(item("osn2", priority=1))
        assert [victim.record_ids()[0] for victim in victims] == ["osn0"]

    def test_pop_requeue_pending(self):
        admission = AdmissionController(4)
        admission.admit(item("r0"))
        admission.admit(item("r1"))
        popped = admission.pop()
        assert popped.record_ids()[0] == "r0"
        assert not admission.pending("r0")
        admission.requeue(popped)
        assert admission.pending("r0")
        assert admission.pop().record_ids()[0] == "r0"

    def test_wipe_clears_everything(self):
        admission = AdmissionController(4)
        admission.admit(item("r0"))
        admission.admit(item("r1"))
        wiped = admission.wipe()
        assert len(wiped) == 2
        assert len(admission) == 0
        assert not admission.pending("r0")


class TestDurabilityConfig:
    # Each value used to be accepted and silently switch machinery off:
    # a NaN or infinite interval never checkpoints, a negative or NaN
    # drain interval dies at the first schedule, a NaN reset never
    # half-opens a tripped breaker.
    @pytest.mark.parametrize("field, value", [
        ("checkpoint_interval", float("nan")),
        ("checkpoint_interval", float("inf")),
        ("drain_interval_s", -0.02),
        ("drain_interval_s", float("nan")),
        ("drain_interval_s", float("inf")),
        ("breaker_reset_s", -1.0),
        ("breaker_reset_s", float("nan")),
        ("breaker_reset_s", float("inf")),
    ])
    def test_rejects_values_that_switch_machinery_off(self, field, value):
        with pytest.raises(ValueError, match=field):
            DurabilityConfig(**{field: value})


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        breaker = CircuitBreaker(trip_after=3, reset_s=10.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.is_open
        assert not breaker.allow(5.0)
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(trip_after=3, reset_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert not breaker.is_open

    def test_half_open_then_closed_on_success(self):
        breaker = CircuitBreaker(trip_after=1, reset_s=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.allow(10.0)  # half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(trip_after=5, reset_s=10.0)
        for _ in range(5):
            breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)  # the probe failed
        assert breaker.is_open
        assert not breaker.allow(15.0)
        assert breaker.trips == 2


class TestQuarantine:
    def test_bounded_with_evictions(self):
        quarantine = DeadLetterQuarantine(capacity=2)
        for index in range(3):
            quarantine.put(record_id=f"r{index}", reason="invalid",
                           at=float(index), payload={})
        assert len(quarantine) == 2
        assert quarantine.evictions == 1
        assert quarantine.total == 3
        assert quarantine.reasons() == {"invalid": 2}


def overload_testbed(seed=21, **config):
    defaults = dict(intake_capacity=8, high_watermark=0.75,
                    low_watermark=0.5, drain_interval_s=0.02)
    defaults.update(config)
    testbed = SenSocialTestbed(
        seed=seed, observability=True,
        durability=DurabilityConfig(**defaults))
    return testbed


def make_payload(testbed, index, *, osn=False, modality="accelerometer"):
    record = StreamRecord(
        stream_id="s1", user_id="alice", device_id="d1",
        modality=ModalityType.ACCELEROMETER,
        granularity=Granularity.CLASSIFIED,
        timestamp=testbed.world.now, value="walking",
        osn_action={"type": "post"} if osn else None)
    payload = record.to_dict()
    payload["modality"] = modality  # poison hook: an unknown modality
    payload["record_id"] = f"load-{index}"
    return payload


def submit(testbed, payload):
    testbed.server.durability.submit_batch(
        RecordBatch.from_documents([payload]), reply_to=None, sent_at=None)


class TestOverloadIntegration:
    def test_queue_stays_bounded_and_sheds_continuous_first(self):
        testbed = overload_testbed()
        durability = testbed.server.durability
        # Storage is slow; a burst arrives faster than the drain pump.
        durability.medium.write_latency_s = 5.0
        for index in range(30):
            submit(testbed, make_payload(testbed, index,
                                         osn=(index % 3 == 0)))
        assert len(durability.admission) <= durability.config.intake_capacity
        assert durability.records_shed > 0
        # OSN-triggered records are kept preferentially: with 10 OSN
        # arrivals against capacity 8, the queue ends holding only OSN
        # records (every continuous was shed first; only hard overflow
        # among OSN-only contents ever sheds an OSN record).
        queue = list(durability.admission._queue)
        assert all(entry.priority == 1 for entry in queue)
        assert len(queue) == durability.config.intake_capacity
        # Shed drops carry (stage, reason) through the obs taxonomy.
        taxonomy = testbed.obs.tracer.drop_taxonomy()
        # (traces are None here, so check telemetry instead)
        counter = testbed.obs.telemetry.counter(
            "records_dropped", stage="admission", reason="shed")
        assert counter.value == durability.records_shed
        assert taxonomy == {}  # no traces attached in this synthetic run

    def test_backlog_drains_when_storage_recovers(self):
        testbed = overload_testbed()
        durability = testbed.server.durability
        durability.medium.write_latency_s = 5.0
        for index in range(6):
            submit(testbed, make_payload(testbed, index))
        durability.medium.write_latency_s = 0.0
        testbed.run(60.0)
        assert len(durability.admission) == 0
        assert testbed.server.database.records.count() >= 6 - \
            durability.records_shed

    def test_poison_record_is_quarantined(self):
        testbed = overload_testbed()
        durability = testbed.server.durability
        submit(testbed, make_payload(testbed, 0, modality="antigravity"))
        assert durability.records_quarantined == 1
        assert durability.quarantine.reasons() == {"invalid": 1}
        # The poison id is remembered: a retransmission dedups quietly.
        submit(testbed, make_payload(testbed, 0, modality="antigravity"))
        assert durability.records_quarantined == 1
        assert testbed.server.records_duplicate == 1

    def test_repeated_write_failures_quarantine_after_retries(self):
        testbed = overload_testbed(breaker_trip_after=100,
                                   max_apply_attempts=3)
        durability = testbed.server.durability
        durability.medium.inject_write_failures(1000)
        submit(testbed, make_payload(testbed, 0))
        testbed.run(30.0)
        assert durability.records_quarantined == 1
        assert durability.quarantine.reasons() == {
            "repeated_write_failure": 1}

    def test_breaker_trips_and_recovers(self):
        testbed = overload_testbed(breaker_trip_after=2, breaker_reset_s=5.0,
                                   max_apply_attempts=100)
        durability = testbed.server.durability
        durability.medium.inject_write_failures(2)
        submit(testbed, make_payload(testbed, 0))
        testbed.run(1.0)
        assert durability.breaker.trips >= 1
        testbed.run(30.0)  # half-open probe succeeds once faults burn off
        assert durability.breaker.state == "closed"
        assert testbed.server.database.records.count() == 1

    def test_pending_retransmission_not_acked_not_duplicated(self):
        testbed = overload_testbed()
        durability = testbed.server.durability
        durability.medium.write_latency_s = 5.0
        payload = make_payload(testbed, 0)
        submit(testbed, payload)
        acks_before = testbed.server.acks_sent
        submit(testbed, payload)  # retransmission while still queued
        assert durability.pending_duplicates == 1
        assert testbed.server.acks_sent == acks_before  # silent: no ack
        durability.medium.write_latency_s = 0.0
        testbed.run(30.0)
        assert testbed.server.database.records.count() == 1

    def test_health_degrades_under_pressure(self):
        testbed = overload_testbed()
        durability = testbed.server.durability
        assert durability.health()["status"] == "ok"
        durability.medium.write_latency_s = 5.0
        submit(testbed, make_payload(testbed, 0))
        assert durability.health()["status"] == "degraded"
        testbed.run(60.0)
        assert durability.health()["status"] == "ok"


class TestOverloadWithTraces:
    def test_shed_drops_reach_obs_report(self):
        """End-to-end: real traced records shed under load carry
        (stage=admission, reason=shed) into the ObsReport taxonomy."""
        testbed = overload_testbed(seed=5, intake_capacity=2,
                                   high_watermark=0.75, low_watermark=0.5)
        node = testbed.add_user("alice", "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True,
                                   settings={"duty_cycle_s": 5.0})
        testbed.server.durability.medium.write_latency_s = 120.0
        testbed.run(600.0)
        durability = testbed.server.durability
        assert durability.records_shed > 0
        taxonomy = testbed.obs.tracer.drop_taxonomy()
        assert taxonomy.get(("admission", "shed"), 0) > 0
        assert testbed.obs.tracer.terminal_conflicts == 0
