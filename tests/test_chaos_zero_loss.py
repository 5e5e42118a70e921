"""Chaos acceptance scenarios: zero QoS-1 record loss and exactly-once
ingest across a scripted broker restart plus a 60 s partition — and
determinism guarantees (same seed, same plan → same run; the fault
machinery disabled changes nothing).

`TestElasticChaos` (ISSUE 6) runs the elastic-lifecycle faults on a
sharded durable cluster: a shard crash landing mid-scale-out, a crash
interleaved with a staggered rolling upgrade, and a drain-based
scale-in — each must end with zero acknowledged-record loss and a
consistent ring."""

from repro.core.common import Granularity, ModalityType
from repro.faults import ChaosController, FaultPlan
from repro.scenarios.testbed import SenSocialTestbed

USERS = ("alice", "bob")
HORIZON_S = 1200.0
DRAIN_S = 180.0


def run_scenario(seed: int, plan: FaultPlan | None, *,
                 attach_controller: bool = True):
    """Run the standard chaos scenario; return (testbed, controller)."""
    testbed = SenSocialTestbed(seed=seed)
    ingested = []
    testbed.server.register_listener(
        lambda record: ingested.append((record.user_id, record.timestamp,
                                        record.value)))
    for user_id in USERS:
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = None
    if attach_controller:
        controller = ChaosController(testbed)
        if plan is not None:
            controller.apply(plan)
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)  # quiet tail: reconnects land, outboxes drain
    return testbed, controller, ingested


def rough_day_plan() -> FaultPlan:
    """The acceptance plan: broker crash+restart AND a 60 s partition."""
    return (FaultPlan("rough-day")
            .broker_restart(at=300.0, downtime=120.0)
            .partition("devices", start=700.0, duration=60.0))


def signature(testbed, ingested):
    """Everything that should be identical between identical runs."""
    return (
        testbed.world.now,
        testbed.server.records_received,
        testbed.server.records_duplicate,
        testbed.network.messages_sent,
        testbed.network.bytes_sent,
        testbed.network.messages_dropped,
        tuple(ingested),
        tuple(sorted((user_id, node.manager.health()["enqueued"])
                     for user_id, node in testbed.nodes.items())),
    )


class TestZeroLoss:
    def test_no_record_lost_no_duplicate_ingested(self):
        testbed, controller, ingested = run_scenario(3, rough_day_plan())
        report = controller.report()
        # Faults actually happened: drops, a crash, reconnections.
        assert report.broker["crashes"] == 1
        assert report.network["partition_drops"] > 0
        assert any(device["reconnects"] > 0 for device in report.devices)
        # ...and yet: every record that entered an outbox was ingested
        # exactly once.
        assert report.records_lost == 0
        assert report.records_queued == 0
        assert report.records_dropped == 0  # no outbox overflow either
        assert report.records_ingested == report.records_enqueued
        assert len(ingested) == len(set(ingested))

    def test_at_least_once_under_the_hood(self):
        """The zero-loss result must come from real retransmission work,
        not from the faults failing to bite: the devices re-sent records
        and the server's dedup window absorbed the extras."""
        testbed, controller, _ = run_scenario(3, rough_day_plan())
        retransmissions = sum(device["retransmissions"]
                              for device in controller.report().devices)
        assert retransmissions > 0
        assert testbed.server.acks_sent > testbed.server.records_received \
            or testbed.server.records_duplicate >= 0


CLUSTER_USERS = ("alice", "bob", "carol", "dave", "erin", "frank")


def run_cluster_scenario(seed: int, plan: FaultPlan | None, *,
                         shards: int = 3, observability: bool = False):
    """A sharded durable cluster under a fault plan; returns the
    testbed and controller after the horizon plus a quiet tail."""
    testbed = SenSocialTestbed(seed=seed, shards=shards, durability=True,
                               observability=observability)
    for user_id in CLUSTER_USERS:
        testbed.add_user(user_id, "Paris")
    for user_id in CLUSTER_USERS:
        testbed.server.create_stream(user_id, ModalityType.ACCELEROMETER,
                                     Granularity.CLASSIFIED)
    controller = ChaosController(testbed)
    if plan is not None:
        controller.apply(plan)
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)
    return testbed, controller


class TestElasticChaos:
    def test_crash_lands_mid_scale_out(self):
        """A shard dies 30 s after a scale-out: the in-flight migration
        (re-subscriptions still landing, moved devices re-homing) must
        recover through the ordinary rebalance path with nothing acked
        lost and the ring consistent."""
        plan = (FaultPlan("crash-mid-scale-out")
                .shard_add(at=400.0)
                .shard_crash(at=430.0, shard=1, rebalance_after=60.0))
        testbed, controller = run_cluster_scenario(17, plan)
        report = controller.report()
        cluster = testbed.server.cluster_report()
        assert cluster["scale_outs"] == 1
        assert cluster["rebalances"] == 1
        assert report.records_lost == 0
        assert testbed.server.verify_consistent() == []

    def test_crash_lands_mid_rolling_upgrade(self):
        """A staggered rolling upgrade with a shard crash landing
        between two upgrade steps: the crashed shard restarts via its
        own upgrade step or the scripted restart, and the sweep still
        completes with zero acked loss."""
        plan = (FaultPlan("crash-mid-rolling-upgrade")
                .rolling_upgrade(at=400.0, stagger=60.0)
                .shard_crash(at=430.0, shard=2)
                .shard_restart(at=490.0, shard=2))
        testbed, controller = run_cluster_scenario(19, plan)
        report = controller.report()
        cluster = testbed.server.cluster_report()
        assert cluster["rolling_upgrades"] == 1
        assert report.records_lost == 0
        assert testbed.server.verify_consistent() == []
        # The staggered sweep really ran step by step.
        steps = [entry for entry in controller.injected
                 if "rolling_upgrade_step" in entry[1]]
        assert len(steps) == 3

    def test_staggered_sweep_is_accounted_like_an_instant_one(self):
        """Spacing a rolling upgrade's steps out changes when they run,
        not how the finished sweep is accounted: the same sweep count,
        the same telemetry counter and the same ``rolling_restart``
        summary as an instant sweep."""
        def sweep(stagger):
            plan = FaultPlan("upgrade").rolling_upgrade(at=400.0,
                                                        stagger=stagger)
            testbed, _ = run_cluster_scenario(3, plan, shards=2,
                                              observability=True)
            cluster = testbed.server
            [summary] = [entry for entry in cluster.lifecycle_log
                         if entry["op"] == "rolling_restart"]
            counter = testbed.obs.telemetry.counter(
                "cluster_rolling_upgrades")
            return (cluster.rolling_upgrades, counter.value,
                    summary["shards"], summary["drained"])

        assert sweep(60.0) == sweep(0.0) == (1, 1, ["shard-0", "shard-1"], 0)

    def test_scale_in_hands_off_without_loss(self):
        plan = (FaultPlan("scale-in")
                .shard_drain(at=500.0, shard=0))
        testbed, controller = run_cluster_scenario(23, plan)
        report = controller.report()
        cluster = testbed.server.cluster_report()
        assert cluster["scale_ins"] == 1
        assert cluster["active"] == 2
        assert report.records_lost == 0
        assert testbed.server.verify_consistent() == []

    def test_full_lifecycle_gauntlet(self):
        """Scale out, upgrade the fleet, crash+rebalance, scale in —
        the whole lifecycle in one run, ending consistent and lossless."""
        plan = (FaultPlan("lifecycle-gauntlet")
                .shard_add(at=240.0)
                .rolling_upgrade(at=480.0, stagger=30.0)
                .shard_crash(at=720.0, shard=0, rebalance_after=60.0)
                .shard_drain(at=960.0, shard=1))
        testbed, controller = run_cluster_scenario(29, plan)
        report = controller.report()
        cluster = testbed.server.cluster_report()
        assert cluster["scale_outs"] == 1
        assert cluster["scale_ins"] == 1
        assert cluster["rebalances"] == 1
        assert report.records_lost == 0
        assert testbed.server.verify_consistent() == []
        window = testbed.server.shard_workers()[0].dedup.window
        for shard in testbed.server.shard_workers():
            assert len(shard.dedup) <= window

    def test_elastic_chaos_is_deterministic(self):
        plan = (FaultPlan("crash-mid-scale-out")
                .shard_add(at=400.0)
                .shard_crash(at=430.0, shard=1, rebalance_after=60.0))
        def run():
            testbed, _ = run_cluster_scenario(31, plan)
            return (testbed.world.now,
                    testbed.server.health()["records_received"],
                    testbed.network.messages_sent,
                    testbed.network.bytes_sent)
        assert run() == run()


class TestDeterminism:
    def test_same_seed_same_plan_same_run(self):
        first = run_scenario(5, rough_day_plan())
        second = run_scenario(5, rough_day_plan())
        assert signature(first[0], first[2]) == signature(second[0], second[2])

    def test_empty_plan_is_a_no_op(self):
        """Attaching the chaos machinery without faults must not perturb
        the simulation: same seed, identical trace with and without."""
        with_controller = run_scenario(5, None, attach_controller=True)
        without = run_scenario(5, None, attach_controller=False)
        assert signature(with_controller[0], with_controller[2]) \
            == signature(without[0], without[2])

    def test_different_seeds_diverge(self):
        """Sanity check that the signature is actually sensitive."""
        one = run_scenario(5, rough_day_plan())
        other = run_scenario(6, rough_day_plan())
        assert signature(one[0], one[2]) != signature(other[0], other[2])
