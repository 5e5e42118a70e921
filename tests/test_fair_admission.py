"""Tests for the per-source fair admission controller: weighted
round-robin service, heaviest-source-first shedding, and the OSN
priority guarantee (triggered records survive watermark shedding)."""

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.common.batch import RecordBatch
from repro.durability import (
    DurabilityConfig,
    FairAdmissionController,
    ServerDurability,
)
from repro.durability.admission import AdmissionController, IntakeItem
from repro.scenarios.testbed import SenSocialTestbed


def item(record_id, source, priority=0):
    batch = RecordBatch.from_documents([{
        "stream_id": "s1", "user_id": source, "device_id": source,
        "modality": "accelerometer", "granularity": "classified",
        "timestamp": 0.0, "value": "walking", "record_id": record_id}])
    return IntakeItem(batch=batch, reply_to=None, priority=priority,
                      enqueued_at=0.0)


def fill(controller, source, count, *, start=0, priority=0):
    for n in range(count):
        controller.admit(item(f"{source}-{start + n}", source, priority))


class TestWeightedService:
    def test_round_robin_interleaves_sources(self):
        controller = FairAdmissionController(capacity=100)
        fill(controller, "a", 3)
        fill(controller, "b", 3)
        order = [controller.pop().record_ids()[0] for _ in range(6)]
        assert order == ["a-0", "b-0", "a-1", "b-1", "a-2", "b-2"]

    def test_weights_grant_extra_turns(self):
        controller = FairAdmissionController(
            capacity=100, weights={"a": 2})
        fill(controller, "a", 4)
        fill(controller, "b", 2)
        order = [controller.pop().record_ids()[0] for _ in range(6)]
        assert order == ["a-0", "a-1", "b-0", "a-2", "a-3", "b-1"]

    def test_exhausted_source_cedes_turn(self):
        controller = FairAdmissionController(capacity=100)
        fill(controller, "a", 1)
        fill(controller, "b", 3)
        order = [controller.pop().record_ids()[0] for _ in range(4)]
        assert order == ["a-0", "b-0", "b-1", "b-2"]
        assert controller.pop() is None

    def test_requeue_served_before_fresh_work(self):
        controller = FairAdmissionController(capacity=100)
        fill(controller, "a", 2)
        first = controller.pop()
        controller.requeue(first)
        assert controller.pop() is first
        assert controller.pop().record_ids()[0] == "a-1"

    def test_pending_and_wipe(self):
        controller = FairAdmissionController(capacity=100)
        fill(controller, "a", 2)
        fill(controller, "b", 1)
        assert len(controller) == 3
        assert controller.pending("a-0")
        assert not controller.pending("zzz")
        wiped = controller.wipe()
        assert len(wiped) == 3
        assert len(controller) == 0
        assert not controller.pending("a-0")


class TestFairShedding:
    def test_watermark_sheds_heaviest_source_first(self):
        controller = FairAdmissionController(
            capacity=10, high_watermark=0.8, low_watermark=0.5)
        fill(controller, "hog", 7)
        fill(controller, "meek", 1)
        # Depth 8 hits the 0.8 watermark; shed down to 5, every
        # victim drawn from the deepest backlog.
        assert len(controller) == 5
        assert controller.shed == 3
        report = controller.fairness_report()
        assert report["hog"]["shed"] == 3
        assert report["meek"]["shed"] == 0
        assert report["meek"]["depth"] == 1

    def test_osn_records_survive_watermark_shedding(self):
        controller = FairAdmissionController(
            capacity=10, high_watermark=0.8, low_watermark=0.5)
        fill(controller, "hog", 5, priority=1)  # OSN-triggered
        fill(controller, "hog", 2, start=5)     # continuous
        fill(controller, "meek", 1)
        # Watermark shedding consumed every continuous record before
        # it would touch priority-1 work; all five OSN records drain.
        popped = []
        while (entry := controller.pop()) is not None:
            popped.append(entry)
        assert sum(1 for e in popped if e.priority == 1) == 5
        assert all(e.priority == 1 for e in popped
                   if e.batch.device_id == "hog")
        assert controller.shed >= 2

    def test_watermark_stops_rather_than_shed_osn_records(self):
        controller = FairAdmissionController(
            capacity=4, high_watermark=0.5, low_watermark=0.25)
        fill(controller, "a", 4, priority=1)
        # Far over the watermark, but nothing continuous to shed:
        # the queue keeps all four rather than drop triggered work.
        assert len(controller) == 4
        assert controller.shed == 0

    def test_hard_overflow_sheds_even_priority_as_last_resort(self):
        controller = FairAdmissionController(
            capacity=3, high_watermark=1.0, low_watermark=1.0)
        fill(controller, "a", 4, priority=1)
        assert len(controller) == 3
        assert controller.shed == 1
        # The oldest record of the deepest source went, not the newest.
        remaining = {controller.pop().record_ids()[0] for _ in range(3)}
        assert "a-0" not in remaining and "a-3" in remaining

    def test_tie_breaks_lexicographically(self):
        controller = FairAdmissionController(
            capacity=4, high_watermark=1.0, low_watermark=0.75)
        fill(controller, "b", 2)
        fill(controller, "a", 2)
        report = controller.fairness_report()
        # Equal depths: "a" sorts first and takes the hit.
        assert report["a"]["shed"] == 1
        assert report["b"]["shed"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FairAdmissionController(capacity=0)
        with pytest.raises(ValueError):
            FairAdmissionController(capacity=10, high_watermark=0.5,
                                    low_watermark=0.8)


class TestDurabilityWiring:
    def test_config_selects_fair_controller(self):
        testbed = SenSocialTestbed(seed=3, durability=DurabilityConfig(
            fair_admission=True, fair_weights=(("device-1", 2),)))
        admission = testbed.durability.admission
        assert isinstance(admission, FairAdmissionController)
        assert admission.weight("device-1") == 2
        counters = testbed.durability.health()["counters"]
        assert counters["fair_admission"] is True
        assert counters["fair_sources"] == 0

    def test_default_config_keeps_fifo_controller(self):
        testbed = SenSocialTestbed(seed=3, durability=True)
        admission = testbed.durability.admission
        assert isinstance(admission, AdmissionController)
        assert not isinstance(admission, FairAdmissionController)

    def test_fair_weights_validated(self):
        with pytest.raises(ValueError):
            DurabilityConfig(fair_admission=True, fair_weights=(("d", 0),))

    def test_chatty_device_pays_for_overload_end_to_end(self):
        """Under a slow drain, fair admission sheds the chatty
        device's backlog and spares the quiet one."""
        config = DurabilityConfig(fair_admission=True, intake_capacity=8,
                                  high_watermark=0.75, low_watermark=0.5)
        testbed = SenSocialTestbed(seed=11, durability=config)
        testbed.durability.medium.write_latency_s = 6.0
        chatty = testbed.add_user("chatty", "Paris")
        chatty.manager.create_stream(
            ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
            send_to_server=True, settings={"duty_cycle_s": 2.0})
        quiet = testbed.add_user("quiet", "Paris")
        quiet.manager.create_stream(
            ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
            send_to_server=True, settings={"duty_cycle_s": 45.0})
        testbed.run(120.0)
        report = testbed.durability.admission.fairness_report()
        chatty_id = chatty.phone.device_id
        quiet_id = quiet.phone.device_id
        assert report[chatty_id]["shed"] > 0
        assert report[quiet_id]["shed"] == 0
        assert report[chatty_id]["admitted"] > report[quiet_id]["admitted"]
        counters = testbed.durability.health()["counters"]
        assert counters["fair_sources"] >= 2
