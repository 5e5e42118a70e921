"""Server crash/restart recovery: a durable server loses nothing and
ingests exactly once across a mid-run crash; an amnesiac one forgets.

The crash model: both server endpoints partition (in-flight messages
drop, QoS layers retry), the volatile intake queue is wiped, OSN
actions delivered while down are lost.  On restart a durable server
rebuilds its database and dedup window from the storage medium's
snapshot + journal replay; without durability the restart wipes
registrations, friendships, locations and records — the contrast these
tests pin.
"""

from repro.core.common import Granularity, ModalityType
from repro.faults import ChaosController, FaultPlan
from repro.scenarios.testbed import SenSocialTestbed

USERS = ("alice", "bob")
HORIZON_S = 900.0
DRAIN_S = 240.0
CRASH_AT = 400.0
DOWNTIME_S = 60.0


def run_crash_scenario(seed: int, *, durability, observability=True):
    testbed = SenSocialTestbed(seed=seed, observability=observability,
                               durability=durability)
    delivered = []
    testbed.server.register_listener(
        lambda record: delivered.append((record.user_id, record.timestamp,
                                         record.value)))
    for user_id in USERS:
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = ChaosController(testbed)
    controller.apply(FaultPlan("server-crash").server_crash(
        at=CRASH_AT, downtime=DOWNTIME_S))
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)  # quiet tail: outboxes retransmit and drain
    return testbed, controller, delivered


class TestDurableRecovery:
    def test_zero_loss_exactly_once(self):
        testbed, controller, delivered = run_crash_scenario(3,
                                                            durability=True)
        report = controller.report()
        # The crash actually happened and cost something on the wire.
        assert testbed.server.crashes == 1
        assert testbed.server.restarts == 1
        assert report.network["partition_drops"] > 0
        # ...and yet: zero loss, exactly-once.
        assert report.records_lost == 0
        assert report.records_queued == 0
        assert report.records_ingested == report.records_enqueued
        assert len(delivered) == len(set(delivered))

    def test_recovery_replayed_the_journal(self):
        testbed, _, _ = run_crash_scenario(3, durability=True)
        durability = testbed.durability
        assert durability.recoveries == 1
        assert durability.replayed_entries > 0 or durability.medium.has_snapshot
        # finish_recovery folded the replayed tail into a checkpoint.
        assert durability.medium.checkpoints >= 1

    def test_terminal_accounting_is_clean(self):
        """Every trace ends in exactly one terminal — the retransmitted
        records around the crash never double-deliver or double-drop."""
        testbed, _, _ = run_crash_scenario(3, durability=True)
        tracer = testbed.obs.tracer
        assert tracer.terminal_conflicts == 0
        counts = tracer.terminal_counts()
        assert counts["in_flight"] == 0
        assert counts["delivered"] == testbed.server.records_received

    def test_registrations_survive(self):
        testbed, _, _ = run_crash_scenario(4, durability=True)
        assert testbed.server.registered_users() == sorted(USERS)
        for user_id in USERS:
            assert testbed.server.database.device_of(user_id) is not None

    def test_replay_spans_emitted(self):
        testbed, _, _ = run_crash_scenario(3, durability=True)
        replayed = [state for state in testbed.obs.tracer.traces()
                    if "replay" in state.stages()]
        # Records ingested before the crash and still in the journal
        # tail get a replay span on recovery.
        assert testbed.durability.replayed_entries == 0 or replayed

    def test_health_reports_crash_counters(self):
        testbed, _, _ = run_crash_scenario(3, durability=True)
        health = testbed.server.health()
        assert health["counters"]["crashes"] == 1
        assert health["counters"]["restarts"] == 1
        assert health["durability"]["counters"]["recoveries"] == 1
        assert health["database"]["counters"]["documents"] > 0


class TestAmnesiacContrast:
    def test_without_durability_registrations_are_lost(self):
        testbed, _, _ = run_crash_scenario(3, durability=False)
        assert testbed.server.crashes == 1
        # The database restarted empty; devices do not re-register
        # (their MQTT session already exists), so users are gone.
        assert testbed.server.registered_users() == []

    def test_without_durability_precrash_records_are_lost(self):
        testbed, _, _ = run_crash_scenario(3, durability=False)
        stored = testbed.server.database.records.count()
        received = testbed.server.records_received
        # Everything ingested before the crash vanished from the store;
        # only post-restart arrivals remain.
        assert stored < received

    def test_durable_store_keeps_everything(self):
        testbed, _, _ = run_crash_scenario(3, durability=True)
        assert (testbed.server.database.records.count()
                == testbed.server.records_received)


class TestCrashWhileDown:
    def test_server_down_status_and_lost_actions(self):
        testbed = SenSocialTestbed(seed=9, durability=True)
        node = testbed.add_user("alice", "Paris")
        testbed.server.crash()
        assert testbed.server.health()["status"] == "down"
        # An OSN action captured while the process is down is lost
        # (the plug-in hands it over synchronously — no retry path).
        testbed.facebook.perform_action("alice", "post", content="hello?")
        testbed.run(600.0)  # let the webhook's notification delay elapse
        assert testbed.server.actions_lost_crashed >= 1
        testbed.server.restart()
        testbed.run(120.0)  # MQTT keepalive/reconnect settles
        assert testbed.server.health()["status"] != "down"

    def test_crash_discards_held_publishes(self):
        testbed = SenSocialTestbed(seed=9)
        testbed.add_user("alice", "Paris")
        testbed.run(10.0)
        server = testbed.server
        server.mqtt._connection_lost()
        server.triggers.push_destroy(server.device_of("alice"), "s1")
        assert server.health()["counters"]["publishes_held"] == 1
        server.crash()
        assert server.health()["counters"]["publishes_held"] == 0
        assert server.mqtt.publishes_deferred == 1
        server.restart()
        testbed.run(120.0)  # the session comes back with nothing held
        assert server.mqtt.reconnects == 1
        assert server.mqtt.publishes_held == 0

    def test_crash_and_restart_are_idempotent(self):
        testbed = SenSocialTestbed(seed=9, durability=True)
        testbed.server.crash()
        testbed.server.crash()
        assert testbed.server.crashes == 1
        testbed.server.restart()
        testbed.server.restart()
        assert testbed.server.restarts == 1


class TestDeterminism:
    def test_same_seed_same_crash_same_run(self):
        first = run_crash_scenario(5, durability=True)
        second = run_crash_scenario(5, durability=True)

        def signature(testbed, delivered):
            return (testbed.world.now, testbed.server.records_received,
                    testbed.network.messages_sent, tuple(delivered))

        assert signature(first[0], first[2]) == signature(second[0],
                                                          second[2])
