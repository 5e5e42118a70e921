"""Command-line interface: canned demos, fault-plan and population
runs, and the experiment index.

Usage::

    python -m repro demo paris --hours 3
    python -m repro demo sensor-map --users 3 --minutes 60
    python -m repro chaos --plan broker-restart --minutes 10
    python -m repro scenario city-day --devices 100000
    python -m repro scenario flash-crowd --chaos --seed 7
    python -m repro obs --scenario paris --ticks 900
    python -m repro slo --plan slo-burn --minutes 10
    python -m repro experiments
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import __version__

EXPERIMENTS = [
    ("table1", "benchmarks/test_table1_source_code.py",
     "source code details (mobile vs server LOC)"),
    ("table2", "benchmarks/test_table2_memory.py",
     "memory footprint vs GAR"),
    ("figure4", "benchmarks/test_figure4_energy.py",
     "battery charge per sensing cycle"),
    ("table3", "benchmarks/test_table3_delay.py",
     "OSN notification delay"),
    ("table4", "benchmarks/test_table4_osn_burst.py",
     "battery vs burst of OSN actions"),
    ("figure5", "benchmarks/test_figure5_cpu.py",
     "CPU load vs number of streams"),
    ("table5", "benchmarks/test_table5_programming_effort.py",
     "programming effort with/without the middleware"),
    ("ablation-push", "benchmarks/test_ablation_push_vs_poll.py",
     "MQTT push vs HTTP polling"),
    ("ablation-filter", "benchmarks/test_ablation_filter_energy.py",
     "filter placement energy savings"),
    ("ablation-db", "benchmarks/test_ablation_db_indexing.py",
     "document-store indexing"),
    ("recovery", "benchmarks/test_recovery_delay.py",
     "time-to-recovery and zero-loss under faults"),
    ("wal-overhead", "benchmarks/test_wal_overhead.py",
     "write-ahead journal overhead bound"),
    ("hotpath", "benchmarks/test_hotpath_perf.py",
     "broker trie / query planner / ingest hot paths"),
    ("cluster-scaling", "benchmarks/test_cluster_scaling.py",
     "sharded-cluster work scaling and crash zero-loss"),
]


def _demo_paris(args) -> int:
    from repro import Granularity, ModalityType, MulticastQuery
    from repro.scenarios import build_paris_scenario

    testbed = build_paris_scenario(seed=args.seed)
    testbed.run(400.0)
    notified = []
    multicast = testbed.server.create_multicast_stream(
        ModalityType.LOCATION, Granularity.CLASSIFIED,
        MulticastQuery(friends_of="A"), name="friends-of-A")
    multicast.add_listener(lambda record: notified.append(record)
                           if record.value == "Paris" else None)
    print(f"users: {', '.join(sorted(testbed.nodes))}; "
          f"A's friends: {testbed.server.database.friends_of('A')}")
    print("C travels Bordeaux -> Paris...")
    testbed.node("C").mobility.travel_to("Paris",
                                         duration_s=args.hours * 1800.0)
    testbed.run(args.hours * 3600.0)
    arrivals = sorted({record.user_id for record in notified})
    print(f"friends seen in Paris: {arrivals or 'none'}")
    return 0 if arrivals == ["C"] else 1


def _demo_sensor_map(args) -> int:
    from repro import SenSocialTestbed
    from repro.analysis import markers_to_geojson
    from repro.apps.sensor_map import (
        FacebookSensorMapServer,
        FacebookSensorMapService,
    )

    testbed = SenSocialTestbed(seed=args.seed)
    map_server = FacebookSensorMapServer(testbed.server)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(args.users):
        node = testbed.add_user(f"user{index}",
                                home_city=cities[index % len(cities)])
        FacebookSensorMapService(node.manager)
    testbed.workload.actions_per_hour = 6.0
    testbed.workload.start_all()
    testbed.run(args.minutes * 60.0)
    geojson = markers_to_geojson(map_server.markers())
    print(f"markers: {len(map_server.markers())} "
          f"({map_server.complete_marker_count()} complete); "
          f"geojson features: {len(geojson['features'])}")
    for feature in geojson["features"][:5]:
        properties = feature["properties"]
        print(f"  {properties['user_id']}: {properties['action_type']} "
              f"while {properties['activity']}")
    return 0


def _chaos(args) -> int:
    from repro import Granularity, ModalityType, SenSocialTestbed
    from repro.faults import ChaosController, build_plan

    horizon = args.minutes * 60.0
    plan = build_plan(args.plan, horizon)
    # A plan that declares expected SLO alerts needs the control plane
    # (and the durable ingest path its storage faults act on); plans
    # that damage the journal itself need a journal to damage.
    slo = getattr(args, "slo", False) or bool(plan.expected_alerts)
    durability = args.durability or slo or plan.needs_durable_journal
    testbed = SenSocialTestbed(seed=args.seed, observability=args.obs,
                               durability=durability, slo=slo)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(args.users):
        node = testbed.add_user(f"user{index}",
                                home_city=cities[index % len(cities)])
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = ChaosController(testbed)
    controller.apply(plan)
    testbed.run(horizon)
    # Quiet tail: let reconnects land and outboxes drain before judging.
    testbed.run(args.drain)
    report = controller.report()
    print(report.format())
    failed = report.records_lost != 0
    if testbed.slo is not None:
        unfired = [name for name in plan.expected_alerts
                   if not testbed.slo.log.fired(name)]
        for name in unfired:
            print(f"EXPECTED ALERT NEVER FIRED: {name}", file=sys.stderr)
        problems = testbed.slo.log.verify(testbed.slo.evaluator.alerts)
        for problem in problems:
            print(f"ALERT ACCOUNTING: {problem}", file=sys.stderr)
        failed = failed or unfired or problems
    failed = _check_recovery_expectations(plan, report) or failed
    return 1 if failed else 0


def _check_recovery_expectations(plan, report) -> bool:
    """Durable runs must account every injected corruption — and show
    none the plan didn't declare.  The expectations derive from the
    plan's own events (one torn frame per ``journal_torn_write``, ...),
    so an *undeclared* quarantined/torn frame fails the run loudly.
    Returns True when the run must fail."""
    durability = report.server.get("durability")
    if durability is None:
        return False
    counters = durability.get("counters", {})
    failed = False
    for name, want in sorted(plan.expected_recovery().items()):
        got = int(counters.get(name, 0))
        if got != want:
            print(f"RECOVERY ACCOUNTING: {name} = {got}, "
                  f"plan expected {want}", file=sys.stderr)
            failed = True
    return failed


def _replay(args) -> int:
    """Run a (possibly chaotic) durable scenario, then re-derive every
    store from its journal and fingerprint-compare against the live
    state — the divergence oracle.  ``--verify`` exits 1 on mismatch."""
    from repro import Granularity, ModalityType, SenSocialTestbed
    from repro.faults import ChaosController, build_plan

    horizon = args.minutes * 60.0
    plan = build_plan(args.plan, horizon)
    testbed = SenSocialTestbed(seed=args.seed, durability=True,
                               shards=args.shards)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(args.users):
        node = testbed.add_user(f"user{index}",
                                home_city=cities[index % len(cities)])
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = ChaosController(testbed)
    if not plan.is_empty:
        controller.apply(plan)
    testbed.run(horizon)
    testbed.run(args.drain)
    server = testbed.server
    if hasattr(server, "verify_replay"):  # sharded cluster coordinator
        verdict = server.verify_replay()
    else:
        doc = server.durability.verify_replay()
        verdict = {"match": doc["match"], "shards_verified": 1,
                   "shards": {"server": doc}}
    print(f"replay report — plan {plan.name!r} @ {testbed.world.now:.1f}s "
          f"({verdict['shards_verified']} store(s) verified)")
    for name, doc in sorted(verdict["shards"].items()):
        scan = doc["scan"]
        state = "match" if doc["match"] else "DIVERGED"
        print(f"  {name:12s} {state:9s} live={doc['live_fingerprint']} "
              f"replayed={doc['replayed_fingerprint']}")
        print(f"  {'':12s} {doc['replayed']} entries replayed "
              f"({doc['replay_failed']} failed, "
              f"{doc['lost_appends']} lost appends), "
              f"snapshot {scan['snapshot_status']}, "
              f"{scan['scanned_frames']} frames scanned "
              f"({scan['quarantined_frames']} quarantined, "
              f"{scan['torn_frames']} torn)")
    if args.backfill:
        # Bounded, idempotent backfill demo over the retained history:
        # batches of --backfill entries, resumed from the returned
        # progress checkpoint until the window is exhausted.
        durability = getattr(server, "durability", None)
        republished: list = []
        checkpoint, batches = None, 0
        while True:
            checkpoint = durability.backfill(republished.append,
                                             limit=args.backfill,
                                             checkpoint=checkpoint)
            batches += 1
            if checkpoint.exhausted:
                break
        print(f"  backfill     {checkpoint.published} ingest entries "
              f"re-published in {batches} batches of <= {args.backfill}")
    if not verdict["match"]:
        diverged = [name for name, doc in sorted(verdict["shards"].items())
                    if not doc["match"]]
        print(f"REPLAY DIVERGENCE: live state does not match the "
              f"journal-derived state on {', '.join(diverged)}",
              file=sys.stderr)
        if args.verify:
            return 1
    return 0


def _slo(args) -> int:
    from repro import Granularity, ModalityType, SenSocialTestbed
    from repro.faults import ChaosController, build_plan

    horizon = args.minutes * 60.0
    plan = build_plan(args.plan, horizon)
    testbed = SenSocialTestbed(seed=args.seed, durability=True, slo=True,
                               shards=args.shards)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(args.users):
        node = testbed.add_user(f"user{index}",
                                home_city=cities[index % len(cities)])
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = ChaosController(testbed)
    if not plan.is_empty:
        controller.apply(plan)
    testbed.run(horizon)
    testbed.run(args.drain)
    plane = testbed.slo
    report = plane.report()
    print(f"slo report — plan {plan.name!r} @ {testbed.world.now:.1f}s")
    print(f"  evaluations          {report['evaluations']}")
    for name in sorted(report["slos"]):
        doc = report["slos"][name]
        print(f"  {name:22s} {doc['state']:9s} "
              f"err={doc['last_error']:5.3f} "
              f"fast={doc['burn_fast']:6.2f} slow={doc['burn_slow']:6.2f} "
              f"fired={doc['firings']} resolved={doc['resolutions']}")
    if report["alert_log"]:
        print("  alert transitions:")
        for entry in report["alert_log"]:
            print(f"    [{entry['at']:8.1f}s] {entry['alert']:22s} "
                  f"{entry['from']} -> {entry['to']} "
                  f"({entry['severity'] or '-'})")
    actions = report["actions"]
    print(f"  actions: backoff x{actions['backoff_factor']}, "
          f"{actions['backoffs_pushed']} backoffs, "
          f"{actions['restores_pushed']} restores, "
          f"{actions['rate_pushes']} rate pushes, "
          f"{actions['autoscales']} autoscales")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(plane.to_jsonl())
        print(f"  alert log written to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(plane.to_prometheus())
        print(f"  alert states written to {args.prom}")
    unfired = [name for name in plan.expected_alerts
               if not plane.log.fired(name)]
    for name in unfired:
        print(f"EXPECTED ALERT NEVER FIRED: {name}", file=sys.stderr)
    problems = report["accounting_problems"]
    for problem in problems:
        print(f"ALERT ACCOUNTING: {problem}", file=sys.stderr)
    return 1 if (unfired or problems) else 0


def _obs(args) -> int:
    from repro import Granularity, ModalityType
    from repro.scenarios import build_paris_scenario

    testbed = build_paris_scenario(seed=args.seed, observability=True)
    for node in testbed.nodes.values():
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    testbed.run(args.ticks)
    # Quiet tail so in-flight records settle into terminal states.
    testbed.run(args.drain)
    depths = {f"outbox:{user_id}": len(node.manager.outbox)
              for user_id, node in sorted(testbed.nodes.items())}
    report = testbed.obs.report(queue_depths=depths, network=testbed.network)
    print(report.format())
    db_health = testbed.server.database.health()
    print(f"\nserver database: {db_health['status']} — "
          f"{db_health['detail']}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(testbed.obs.tracer.to_jsonl())
        print(f"\nspan log written to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(testbed.obs.telemetry.to_prometheus())
        print(f"metrics dump written to {args.prom}")
    return 0


def _cluster(args) -> int:
    from repro import Granularity, ModalityType, SenSocialTestbed
    from repro.faults import ChaosController, FaultPlan

    horizon = args.minutes * 60.0
    testbed = SenSocialTestbed(seed=args.seed, shards=args.shards,
                               durability=args.durability)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(args.users):
        testbed.add_user(f"user{index:02d}",
                         home_city=cities[index % len(cities)])
    for user_id in sorted(testbed.nodes):
        testbed.server.create_stream(user_id, ModalityType.ACCELEROMETER,
                                     Granularity.CLASSIFIED)
    controller = ChaosController(testbed)
    plan = FaultPlan("cluster-lifecycle")
    if args.crash_shard is not None:
        plan.shard_crash(at=horizon * 0.4, shard=args.crash_shard,
                         rebalance_after=args.rebalance_after)
    if args.add_shard_at is not None:
        plan.shard_add(at=args.add_shard_at)
    if args.remove_shard is not None:
        plan.shard_drain(at=args.remove_shard_at, shard=args.remove_shard)
    if args.rolling_upgrade_at is not None:
        plan.rolling_upgrade(at=args.rolling_upgrade_at,
                             stagger=args.upgrade_stagger)
    if not plan.is_empty:
        controller.apply(plan)
    testbed.run(horizon)
    testbed.run(args.drain)  # quiet tail: let outboxes drain first
    report = controller.report()
    cluster = testbed.server.cluster_report()
    print(report.format())
    print("\ncluster:")
    print(f"  shards               {cluster['active']}/{cluster['shards']} "
          f"active, {cluster['rebalances']} rebalances, "
          f"{cluster['scale_outs']} scale-outs, "
          f"{cluster['scale_ins']} scale-ins, "
          f"{cluster['rolling_upgrades']} rolling upgrades")
    for shard_id in sorted(cluster["work"]):
        devices = len(cluster["devices"].get(shard_id, []))
        print(f"  {shard_id:12s} work={cluster['work'][shard_id]:<6d} "
              f"records={cluster['records'][shard_id]:<6d} "
              f"devices={devices}")
    elasticity = cluster["elasticity"]
    print(f"  work skew            {elasticity['skew']:.2f} "
          f"(hot: {', '.join(elasticity['hot_shards']) or 'none'})")
    if cluster["lifecycle"]:
        print("\nlifecycle:")
        for entry in cluster["lifecycle"]:
            timings = " ".join(
                f"{step}={seconds * 1000.0:.1f}ms" for step, seconds
                in entry.get("step_timings_s", {}).items())
            detail = ""
            if "moved_devices" in entry:
                detail += f" moved={entry['moved_devices']}"
            if "migrated" in entry:
                migrated = entry["migrated"]
                detail += (f" users={migrated['users']} "
                           f"records={migrated['records']} "
                           f"dedup={migrated['dedup_ids']}")
            if "drained" in entry:
                detail += f" drained={entry['drained']}"
            subject = entry.get("shard") or ",".join(
                entry.get("shards", entry.get("retired", [])))
            print(f"  t={entry['at']:<8.1f} {entry['op']:16s} "
                  f"{subject:12s}{detail} {timings}".rstrip())
    problems = testbed.server.verify_consistent()
    for problem in problems:
        print(f"INCONSISTENT: {problem}", file=sys.stderr)
    return 0 if report.records_lost == 0 and not problems else 1


def _format_scenario(report: dict) -> str:
    """Digest of a :func:`repro.scenarios.run_scenario` report."""
    lines = [f"scenario {report['scenario']} "
             f"({report['devices']:,} devices)"]
    lines.append(
        f"  events   {report['events']:,} in {report['wall_s']:.2f} wall-s "
        f"({report['events_per_wall_s']:,.0f} events/s, horizon "
        f"{report['horizon_s']:.0f} sim-s)")
    lines.append(
        f"  records  {report['emitted']:,} emitted = "
        f"{report['delivered']:,} delivered + "
        f"{report['buffered_residual']:,} carried + "
        f"{report['dropped']:,} dropped "
        f"({report['flushes']} reconnect flushes)")
    lines.append(
        f"  memory   peak {report['peak_active']:,} resident devices "
        f"(cap {report['active_cap']:,}), cold store "
        f"{report['store_bytes']:,} B "
        f"({report['store_bytes_per_device']:.0f} B/device), "
        f"{report['hibernations']:,} hibernations / "
        f"{report['rehydrations']:,} rehydrations")
    if report["cascade_actions"]:
        lines.append(f"  cascade  {report['cascade_actions']:,} OSN actions "
                     f"({report['cascade_skipped']} skipped)")
    lines.append(f"  order    delivery fingerprint "
                 f"{report['delivery_fingerprint']}")
    problems = report["verify_problems"]
    lines.append("  verify   " + ("ok" if not problems
                                  else "; ".join(problems)))
    return "\n".join(lines)


def _scenario(args) -> int:
    """Run one named population scenario and judge its accounting;
    ``--chaos`` runs its partition episode, which must end in
    reconnect flushes."""
    from repro.scenarios import run_scenario

    report = run_scenario(
        args.name, args.devices, seed=args.seed,
        sim_seconds=args.sim_seconds,
        events_per_device=args.events_per_device,
        active_cap=args.active_cap, chaos=args.chaos)
    print(_format_scenario(report))
    problems = list(report["verify_problems"])
    if args.chaos and report["flushes"] == 0:
        problems.append("partition episode produced no reconnect flushes")
    for problem in problems:
        print(f"INCONSISTENT: {problem}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if problems else 0


def _experiments(args) -> int:
    print(f"{'id':16s} {'bench':48s} description")
    for exp_id, path, description in EXPERIMENTS:
        print(f"{exp_id:16s} {path:48s} {description}")
    print("\nrun all with: pytest benchmarks/ --benchmark-only")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SenSocial reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run a canned scenario")
    demo_sub = demo.add_subparsers(dest="scenario", required=True)

    paris = demo_sub.add_parser("paris", help="Figure 2 geo notifications")
    paris.add_argument("--seed", type=int, default=2)
    paris.add_argument("--hours", type=float, default=3.0)
    paris.set_defaults(handler=_demo_paris)

    sensor_map = demo_sub.add_parser("sensor-map",
                                     help="Facebook Sensor Map (§6.1)")
    sensor_map.add_argument("--seed", type=int, default=6)
    sensor_map.add_argument("--users", type=int, default=3)
    sensor_map.add_argument("--minutes", type=float, default=60.0)
    sensor_map.set_defaults(handler=_demo_sensor_map)

    from repro.faults.plans import NAMED_PLANS

    chaos = subparsers.add_parser(
        "chaos", help="run a scenario under a named fault plan")
    chaos.add_argument("--plan", choices=sorted(NAMED_PLANS),
                       default="broker-restart")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--users", type=int, default=3)
    chaos.add_argument("--minutes", type=float, default=10.0)
    chaos.add_argument("--drain", type=float, default=120.0,
                       help="quiet seconds appended before the report")
    chaos.add_argument("--obs", action="store_true",
                       help="enable record tracing and attach the obs "
                            "section to the chaos report")
    chaos.add_argument("--durability", action="store_true",
                       help="journaled server: write-ahead log, crash "
                            "recovery, admission control (required by "
                            "server-crash / storage-stress plans)")
    chaos.add_argument("--slo", action="store_true",
                       help="deploy the SLO control plane (burn-rate "
                            "alerts + adaptive sensing backoff); implied "
                            "by plans that declare expected alerts")
    chaos.set_defaults(handler=_chaos)

    replay = subparsers.add_parser(
        "replay", help="run a durable scenario, re-derive every store "
                       "from snapshot+journal, and fingerprint-compare "
                       "against the live state")
    replay.add_argument("--plan", choices=sorted(NAMED_PLANS),
                        default="none",
                        help="optional fault plan to run underneath")
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument("--users", type=int, default=3)
    replay.add_argument("--shards", type=int, default=None,
                        help="deploy a sharded cluster and verify each "
                             "shard's store against its own journal")
    replay.add_argument("--minutes", type=float, default=10.0)
    replay.add_argument("--drain", type=float, default=120.0,
                        help="quiet seconds appended before verifying")
    replay.add_argument("--verify", action="store_true",
                        help="exit 1 on any live-vs-replayed "
                             "fingerprint divergence")
    replay.add_argument("--backfill", type=int, default=None, metavar="N",
                        help="also re-publish the retained ingest "
                             "history in bounded batches of N (backfill "
                             "demo)")
    replay.set_defaults(handler=_replay)

    slo = subparsers.add_parser(
        "slo", help="run a durable, SLO-managed scenario under a fault "
                    "plan and print the burn-rate/alert report")
    slo.add_argument("--plan", choices=sorted(NAMED_PLANS),
                     default="slo-burn")
    slo.add_argument("--seed", type=int, default=7)
    slo.add_argument("--users", type=int, default=3)
    slo.add_argument("--shards", type=int, default=None,
                     help="deploy a sharded cluster (enables the "
                          "work-skew SLO)")
    slo.add_argument("--minutes", type=float, default=10.0)
    slo.add_argument("--drain", type=float, default=120.0,
                     help="quiet seconds appended before the report")
    slo.add_argument("--jsonl", metavar="PATH",
                     help="write the alert transition log as JSONL")
    slo.add_argument("--prom", metavar="PATH",
                     help="write alert states in Prometheus format")
    slo.set_defaults(handler=_slo)

    obs = subparsers.add_parser(
        "obs", help="run a traced scenario and print the obs report")
    obs.add_argument("--scenario", choices=["paris"], default="paris")
    obs.add_argument("--seed", type=int, default=2)
    obs.add_argument("--ticks", type=float, default=900.0,
                     help="simulated seconds to run")
    obs.add_argument("--drain", type=float, default=60.0,
                     help="quiet seconds appended before the report")
    obs.add_argument("--jsonl", metavar="PATH",
                     help="write the span/event log as JSONL")
    obs.add_argument("--prom", metavar="PATH",
                     help="write a Prometheus-style metrics dump")
    obs.set_defaults(handler=_obs)

    cluster = subparsers.add_parser(
        "cluster", help="run a sharded server cluster, optionally "
                        "crashing, scaling or rolling-upgrading shards "
                        "mid-run")
    cluster.add_argument("--shards", type=int, default=4)
    cluster.add_argument("--seed", type=int, default=11)
    cluster.add_argument("--users", type=int, default=8)
    cluster.add_argument("--minutes", type=float, default=10.0)
    cluster.add_argument("--drain", type=float, default=120.0,
                         help="quiet seconds appended before the report")
    cluster.add_argument("--durability", action="store_true",
                         help="per-shard write-ahead journals (required "
                              "for zero acknowledged-record loss across "
                              "a shard crash)")
    cluster.add_argument("--crash-shard", type=int, default=None,
                         metavar="N", help="crash shard N at 40%% of the "
                                           "run")
    cluster.add_argument("--rebalance-after", type=float, default=60.0,
                         help="seconds between the crash and the ring "
                              "rebalance")
    cluster.add_argument("--add-shard-at", type=float, default=None,
                         metavar="T", help="scale out by one shard at "
                                           "T seconds into the run")
    cluster.add_argument("--remove-shard", type=int, default=None,
                         metavar="N", help="drain and retire shard N")
    cluster.add_argument("--remove-shard-at", type=float, default=300.0,
                         metavar="T", help="when the scale-in fires")
    cluster.add_argument("--rolling-upgrade-at", type=float, default=None,
                         metavar="T", help="drain+restart+rejoin every "
                                           "shard in sequence from T")
    cluster.add_argument("--upgrade-stagger", type=float, default=60.0,
                         help="seconds between per-shard upgrade steps "
                              "(0 = all at one instant)")
    cluster.set_defaults(handler=_cluster)

    from repro.scenarios import SCENARIOS

    scenario = subparsers.add_parser(
        "scenario", help="run a named population scenario and check its "
                         "record accounting")
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument("--devices", type=int, default=10_000,
                          help="population size")
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--sim-seconds", type=float, default=None,
                          help="override the scenario's horizon "
                               "(compressed CI runs)")
    scenario.add_argument("--events-per-device", type=float, default=None,
                          help="override the scenario's mean sense events "
                               "per device")
    scenario.add_argument("--active-cap", type=int, default=4096,
                          help="max resident devices (streaming substrate)")
    scenario.add_argument("--chaos", action="store_true",
                          help="run the scenario's partition episode; "
                               "exit 1 if it made no reconnect flushes")
    scenario.add_argument("--output", metavar="PATH",
                          help="write the run's report as one JSON "
                               "document")
    scenario.set_defaults(handler=_scenario)

    experiments = subparsers.add_parser(
        "experiments", help="list the paper experiments and their benches")
    experiments.set_defaults(handler=_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
