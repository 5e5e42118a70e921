"""Server fan-out fast path: filter gates and the OSN trigger index.

The gate cache must be invisible except in the work counters — a
stream's cross-user verdict is identical to evaluating its conditions
from scratch, but repeated checks between context changes cost zero
condition evaluations.  Invalidations are surgical: only gates that
depend on the touched ``(user, modality)`` cell re-evaluate.
"""

import pytest

from repro.core.common import (
    Condition,
    Filter,
    Granularity,
    ModalityType,
    ModalityValue,
    Operator,
)
from repro.core.common.records import StreamRecord
from repro.core.server.filter_manager import (
    OSN_ACTIVE_WINDOW_S,
    ServerFilterManager,
)
from repro.device import ActivityState
from repro.scenarios.testbed import SenSocialTestbed
from repro.simkit.world import World


def _record(user_id: str, modality: ModalityType, value,
            granularity: Granularity = Granularity.CLASSIFIED) -> StreamRecord:
    return StreamRecord(stream_id="s", user_id=user_id, device_id="d",
                        modality=modality, granularity=granularity,
                        timestamp=0.0, value=value)


def _walking_filter(user_id: str = "bob") -> Filter:
    return Filter([Condition(ModalityType.PHYSICAL_ACTIVITY, Operator.EQUALS,
                             ModalityValue.WALKING, user_id=user_id)])


class TestGateCache:
    @pytest.fixture
    def manager(self):
        return ServerFilterManager(World(seed=1))

    def test_verdict_cached_between_context_changes(self, manager):
        gate_filter = _walking_filter()
        manager.observe_record(_record(
            "bob", ModalityType.PHYSICAL_ACTIVITY, ModalityValue.WALKING))
        assert manager.stream_allows("s1", gate_filter)
        evaluated = manager.conditions_evaluated
        for _ in range(10):
            assert manager.stream_allows("s1", gate_filter)
        assert manager.conditions_evaluated == evaluated
        assert manager.gate_cache_hits == 10

    def test_dependent_record_invalidates_and_flips_verdict(self, manager):
        gate_filter = _walking_filter()
        manager.observe_record(_record(
            "bob", ModalityType.PHYSICAL_ACTIVITY, ModalityValue.WALKING))
        assert manager.stream_allows("s1", gate_filter)
        manager.observe_record(_record(
            "bob", ModalityType.PHYSICAL_ACTIVITY, "still"))
        assert not manager.stream_allows("s1", gate_filter)

    def test_unrelated_records_do_not_invalidate(self, manager):
        gate_filter = _walking_filter()
        manager.observe_record(_record(
            "bob", ModalityType.PHYSICAL_ACTIVITY, ModalityValue.WALKING))
        assert manager.stream_allows("s1", gate_filter)
        evaluations = manager.gate_evaluations
        # Another user's activity, and bob's *other* modalities, leave
        # the cached verdict standing.
        manager.observe_record(_record(
            "carol", ModalityType.PHYSICAL_ACTIVITY, "still"))
        manager.observe_record(_record("bob", ModalityType.WIFI, ["ap1"],
                                       granularity=Granularity.RAW))
        assert manager.stream_allows("s1", gate_filter)
        assert manager.gate_evaluations == evaluations

    def test_classified_record_invalidates_virtual_modality_gates(self, manager):
        """A classified accelerometer record feeds PHYSICAL_ACTIVITY
        context, so it must invalidate gates watching that modality."""
        gate_filter = _walking_filter()
        manager.observe_record(_record(
            "bob", ModalityType.ACCELEROMETER, ActivityState.WALKING.value))
        assert manager.stream_allows("s1", gate_filter)
        manager.observe_record(_record(
            "bob", ModalityType.ACCELEROMETER, ActivityState.STILL.value))
        assert not manager.stream_allows("s1", gate_filter)

    def test_swapped_filter_re_registers(self, manager):
        manager.observe_record(_record(
            "bob", ModalityType.PHYSICAL_ACTIVITY, ModalityValue.WALKING))
        assert manager.stream_allows("s1", _walking_filter())
        still = Filter([Condition(ModalityType.PHYSICAL_ACTIVITY,
                                  Operator.EQUALS, "still", user_id="bob")])
        assert not manager.stream_allows("s1", still)

    def test_empty_cross_conditions_short_circuit(self, manager):
        local_only = Filter([Condition(ModalityType.PHYSICAL_ACTIVITY,
                                       Operator.EQUALS, "walking")])
        evaluated = manager.conditions_evaluated
        assert manager.stream_allows("s1", local_only)
        assert manager.stream_allows("s1", Filter())
        assert manager.conditions_evaluated == evaluated

    def test_drop_gate_cleans_the_dependency_index(self, manager):
        gate_filter = _walking_filter()
        manager.stream_allows("s1", gate_filter)
        assert manager._dependents
        manager.drop_gate("s1")
        assert not manager._gates
        assert not manager._dependents


class TestOsnWindowExpiry:
    def test_cached_active_verdict_expires_with_the_window(self):
        world = World(seed=2)
        manager = ServerFilterManager(world)
        gate_filter = Filter([Condition(ModalityType.FACEBOOK_ACTIVITY,
                                        Operator.EQUALS, ModalityValue.ACTIVE,
                                        user_id="bob")])
        manager.mark_osn_active("bob", ModalityType.FACEBOOK_ACTIVITY)
        assert manager.stream_allows("s1", gate_filter)
        # Mid-window: cached, no re-evaluation.
        world.run_for(OSN_ACTIVE_WINDOW_S / 2)
        evaluations = manager.gate_evaluations
        assert manager.stream_allows("s1", gate_filter)
        assert manager.gate_evaluations == evaluations
        # Past the window: the verdict must flip with NO invalidation
        # event — time alone expires it.
        world.run_for(OSN_ACTIVE_WINDOW_S)
        assert not manager.stream_allows("s1", gate_filter)

    def test_inactive_verdict_holds_until_marked_active(self):
        world = World(seed=3)
        manager = ServerFilterManager(world)
        gate_filter = Filter([Condition(ModalityType.FACEBOOK_ACTIVITY,
                                        Operator.EQUALS, ModalityValue.ACTIVE,
                                        user_id="bob")])
        assert not manager.stream_allows("s1", gate_filter)
        evaluations = manager.gate_evaluations
        world.run_for(1000.0)
        assert not manager.stream_allows("s1", gate_filter)
        assert manager.gate_evaluations == evaluations
        manager.mark_osn_active("bob", ModalityType.FACEBOOK_ACTIVITY)
        assert manager.stream_allows("s1", gate_filter)


class TestTriggerIndex:
    """OSN trigger routing on the monolith.

    :class:`TestTriggerIndexOnTwoShards` reruns every case on a
    two-shard cluster, whose coordinator merges the partitions' trigger
    buckets.  The spies and index checks go through ``shard_workers()``,
    which the monolith answers with itself.
    """

    shards = None

    @pytest.fixture
    def testbed(self):
        return SenSocialTestbed(seed=7, shards=self.shards)

    @staticmethod
    def spy_on_triggers(server) -> list[str]:
        """Stream ids of every targeted trigger, in the order every
        partition's Trigger Manager was asked to send them."""
        sent: list[str] = []
        for partition in server.shard_workers():
            send = partition.triggers.send_action_trigger

            def spy(device_id, action, stream_ids=None, send=send):
                sent.extend(stream_ids or ())
                return send(device_id, action, stream_ids=stream_ids)

            partition.triggers.send_action_trigger = spy
        return sent

    def test_only_streams_watching_the_actor_fire(self, testbed):
        """§4.2 trigger routing through the index: an OSN action must
        reach exactly the streams conditioned on the acting user."""
        testbed.add_user("alice", "Paris")
        testbed.add_user("bob", "Paris")
        testbed.add_user("carol", "Paris")

        def watch(user_id):
            return testbed.server.create_stream(
                "alice", ModalityType.WIFI, Granularity.RAW,
                stream_filter=Filter([Condition(
                    ModalityType.FACEBOOK_ACTIVITY, Operator.EQUALS,
                    ModalityValue.ACTIVE, user_id=user_id)]))

        on_bob, on_carol = watch("bob"), watch("carol")
        bob_records, carol_records = [], []
        on_bob.add_listener(bob_records.append)
        on_carol.add_listener(carol_records.append)
        testbed.run(100.0)
        testbed.facebook.perform_action("bob", "post", content="ping")
        testbed.run(100.0)
        assert len(bob_records) >= 1
        assert carol_records == []

    def test_destroyed_stream_leaves_the_index(self, testbed):
        testbed.add_user("alice", "Paris")
        testbed.add_user("bob", "Paris")
        stream = testbed.server.create_stream(
            "alice", ModalityType.WIFI, Granularity.RAW,
            stream_filter=Filter([Condition(
                ModalityType.FACEBOOK_ACTIVITY, Operator.EQUALS,
                ModalityValue.ACTIVE, user_id="bob")]))
        partitions = testbed.server.shard_workers()
        assert any(partition._osn_trigger_index.get("bob")
                   for partition in partitions)
        testbed.server.destroy_stream(stream.stream_id)
        assert not any(partition._osn_trigger_index.get("bob")
                       for partition in partitions)
        records = []
        stream.add_listener(records.append)
        testbed.run(50.0)
        testbed.facebook.perform_action("bob", "post", content="ping")
        testbed.run(100.0)
        assert records == []

    def test_updated_filter_keeps_creation_order_fanout(self, testbed):
        """Triggers go out in creation (``srv-sN``) order: a stream
        re-filed under new trigger users keeps its place, and on a
        cluster the partitions' buckets interleave by creation order."""
        for user_id in ("alice", "bob", "carol", "dave", "erin", "frank"):
            testbed.add_user(user_id, "Paris")

        def watching_bob():
            return Filter([Condition(
                ModalityType.FACEBOOK_ACTIVITY, Operator.EQUALS,
                ModalityValue.ACTIVE, user_id="bob")])

        server = testbed.server
        streams = [server.create_stream(
            watcher, ModalityType.WIFI, Granularity.RAW,
            stream_filter=watching_bob())
            for watcher in ("alice", "carol", "dave", "erin", "frank",
                            "alice")]
        holders = [server.shard_for_device(stream.device_id)
                   for stream in streams]
        if self.shards:
            # srv-s5 sits on the other shard, between shard-0 streams.
            assert [holder.shard_id for holder in holders] == [
                "shard-0"] * 4 + ["shard-1", "shard-0"]
        # Touch srv-s2's filter: its bucket re-inserts it last.
        streams[1].set_filter(watching_bob())
        sent = self.spy_on_triggers(server)
        testbed.run(50.0)
        testbed.facebook.perform_action("bob", "post", content="ping")
        testbed.run(100.0)
        assert sent[:6] == [stream.stream_id for stream in streams]

    def test_gate_cache_pays_off_in_a_real_run(self, testbed):
        """End to end: a continuous stream whose cross-user dependency
        never changes evaluates its conditions once; every further
        record rides the cached verdict."""
        alice = testbed.add_user("alice", "Paris")
        alice.mobility.stop()
        testbed.add_user("bob", "Paris")
        # Bob streams nothing, so his activity context never changes —
        # the gate's verdict (False: unobserved never satisfies) is
        # computed once and cached for the whole run.
        stream = testbed.server.create_stream(
            "alice", ModalityType.WIFI, Granularity.RAW,
            stream_filter=_walking_filter("bob"))
        testbed.run(600.0)
        assert stream.records_suppressed > 1
        filters = testbed.server.filters
        assert filters.gate_cache_hits > 0
        total_checks = filters.gate_cache_hits + filters.gate_evaluations
        assert filters.gate_evaluations < total_checks


class TestTriggerIndexOnTwoShards(TestTriggerIndex):
    shards = 2
