"""Scalability — sharded server cluster (ISSUE 5 acceptance bench).

Not a paper table: the paper's deployment runs one server process
(§5.5 measures its database, not its horizontal scaling).  This bench
pins the two properties the cluster refactor exists for:

1. **work scaling** — at a fixed device population, the hottest
   shard's deterministic ingest+filter work counter drops by at least
   3x going from 1 to 4 shards (consistent-hash placement actually
   spreads the load);
2. **zero acknowledged loss** — a 4-shard run that crashes a shard
   mid-run, fails it out of the ring and replays its write-ahead
   journal ends with every acknowledged record either ingested or
   still queued on a device: nothing acknowledged dies with a shard.

Work counters (records ingested + replayed duplicates + OSN actions
per shard) are deterministic across machines, so the 3x floor is a
hard CI assertion while wall-clock figures stay informational.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.common import Granularity, ModalityType
from repro.faults import ChaosController, FaultPlan
from repro.perf.harness import bench_elasticity, bench_shard_scaling
from repro.scenarios.testbed import SenSocialTestbed

USERS = 16
SIM_MINUTES = 10.0
CRASH_AT_S = 240.0
REBALANCE_AFTER_S = 60.0
SCALING_FLOOR = 3.0


def crash_run() -> dict:
    """4-shard durable run with a mid-run shard crash + rebalance."""
    testbed = SenSocialTestbed(seed=11, shards=4, durability=True)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(USERS):
        testbed.add_user(f"user{index:02d}",
                         home_city=cities[index % len(cities)])
    for user_id in sorted(testbed.nodes):
        testbed.server.create_stream(user_id, ModalityType.ACCELEROMETER,
                                     Granularity.CLASSIFIED)
    controller = ChaosController(testbed)
    controller.apply(FaultPlan("shard-crash").shard_crash(
        at=CRASH_AT_S, shard=0, rebalance_after=REBALANCE_AFTER_S))
    testbed.run(SIM_MINUTES * 60.0)
    testbed.run(120.0)  # quiet tail: retries land, outboxes drain
    report = controller.report()
    cluster = testbed.server.cluster_report()
    return {
        "records_lost": report.records_lost,
        "records_ingested": report.records_ingested,
        "duplicates": report.duplicates_dropped,
        "rebalances": cluster["rebalances"],
        "active_shards": cluster["active"],
        "per_user_records": {
            user_id: len(testbed.server.database.records_of(user_id))
            for user_id in sorted(testbed.nodes)},
    }


class TestShardScaling:
    def test_work_per_shard_drops_3x_from_1_to_4_shards(self, benchmark,
                                                        report):
        result = run_once(benchmark, lambda: bench_shard_scaling(
            shard_counts=(1, 4), users=USERS, sim_minutes=SIM_MINUTES))
        rows = [[point["shards"], point["users"], point["total_work"],
                 point["max_shard_work"]]
                for point in result["points"]]
        report("cluster scaling — hottest-shard work, fixed devices",
               ["shards", "users", "total work", "max shard work"], rows)
        one, four = result["points"]
        # Same deployment, same total demand on both cluster sizes.
        assert four["records_ingested"] == one["records_ingested"] > 0
        assert four["total_work"] == one["total_work"]
        assert result["scaling_factor"] >= SCALING_FLOOR

    def test_shard_crash_loses_zero_acknowledged_records(self, benchmark,
                                                         report):
        result = run_once(benchmark, crash_run)
        report("cluster crash — delivery across shard failure",
               ["metric", "value"],
               [["records ingested", result["records_ingested"]],
                ["duplicates absorbed", result["duplicates"]],
                ["records lost", result["records_lost"]],
                ["rebalances", result["rebalances"]],
                ["active shards", result["active_shards"]]])
        assert result["rebalances"] == 1
        assert result["active_shards"] == 3
        assert result["records_lost"] == 0
        # Every user's history kept growing across the failure: the
        # migrated streams and devices all landed somewhere live.
        assert all(count > 0 for count in result["per_user_records"].values())
        assert result["records_ingested"] > 0


class TestElasticity:
    def test_snapshot_bootstrap_beats_replay(self, benchmark, report):
        """A mid-run scale-out bulk-imports the migrated slice with
        zero journal appends and a single checkpoint, instead of one
        append per migrated document, on deterministic counters, losing
        nothing."""
        result = run_once(benchmark, lambda: bench_elasticity(
            users=USERS, sim_minutes=SIM_MINUTES))
        report("cluster elasticity — scale-out bootstrap cost",
               ["moved devices", "documents", "journal appends",
                "checkpoints", "records lost"],
               [[result["moved_devices"], result["documents"],
                 result["journal_appends"], result["checkpoints"],
                 result["records_lost"]]])
        assert result["moved_devices"] > 0
        assert result["documents"] > 0
        # The bootstrap skips the journal: one checkpoint, no appends.
        assert result["journal_appends"] == 0
        assert result["checkpoints"] == 1
        # No acked record lost, no ring drift.
        assert result["records_lost"] == 0
        assert result["consistency_problems"] == 0
        assert result["records_ingested"] > 0
