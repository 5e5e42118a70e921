"""Microbenchmarks for the three hot paths, plus the perf trajectory.

The paper's evaluation (§5.5, Tables 3/4) measures how the middleware
degrades under load and prescribes indices for the data path; the
ROADMAP's north star is "as fast as the hardware allows".  This module
is the repo's proof layer for both: three microbenchmarks — broker
fan-out, docstore querying, end-to-end ingest on the virtual clock —
that report *algorithmic* work counters (routing checks per publish,
candidate documents examined per query) alongside wall-clock ops/sec,
and a persistent trajectory file (``BENCH_PERF.json``) so every later
change is measured against the history.

Work counters, not just timings, are the primary metrics: they are
deterministic across machines, so CI can assert on them with tight
bounds while wall-clock numbers stay informational.

Run via ``repro perf`` or ``pytest benchmarks/test_hotpath_perf.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

BENCH_PERF_FILENAME = "BENCH_PERF.json"

#: Constant number of wildcard subscribers mixed into the fan-out
#: benchmark (they match every publish; exact subscribers don't).
_WILDCARD_SUBSCRIBERS = 4

#: Wall-clock samples per timed point (the minimum is reported): work
#: counters are exact either way, but one noisy scheduler interruption
#: used to make mid-size points report slower than larger ones.
_WALL_SAMPLES = 3


def bench_broker_fanout(subscriber_counts: tuple[int, ...] = (100, 400, 1600),
                        publishes: int = 200, seed: int = 41) -> dict:
    """Routing work per PUBLISH as the subscriber population grows.

    Each of N clients subscribes to its own exact topic; a constant
    handful subscribe through ``+``/``#`` wildcards.  Every publish
    targets one user's topic, so the *match set* stays constant while N
    grows — a linear-scan router does O(N) work per publish anyway,
    which is exactly what the trie removes.  ``checks_per_publish`` is
    the trie's own work counter (nodes visited + subscriber entries
    considered); ``scan_equivalent`` is what the old implementation
    examined (every subscription).
    """
    from repro.mqtt import packets
    from repro.mqtt.broker import MqttBroker
    from repro.net.network import Network
    from repro.simkit.world import World

    points = []
    for count in subscriber_counts:
        world = World(seed=seed)
        network = Network(world)
        broker = MqttBroker(world, network, address="perf-broker")
        for i in range(count):
            address = network.register(f"perf-c{i}", lambda message: None)
            broker._on_connect(address, packets.Connect(client_id=f"c{i}"))
            broker._on_subscribe(address, packets.Subscribe(
                packet_id=1, topic_filter=f"sensocial/data/u{i}/accel"))
            if i < _WILDCARD_SUBSCRIBERS:
                broker._on_subscribe(address, packets.Subscribe(
                    packet_id=2, topic_filter="sensocial/data/+/accel"))
        subscriptions = count + _WILDCARD_SUBSCRIBERS
        packet = packets.Publish(topic="sensocial/data/u0/accel",
                                 payload={"v": 1}, qos=0)
        # Warm-up pass: the first routes pay one-off dict allocations
        # and cold caches, and a single publish was not enough — the
        # mid-size point used to report *lower* publish/s than both its
        # neighbours purely from allocator/branch-cache noise.
        for _ in range(max(1, publishes // 4)):
            broker.route(packet)
        checks_before = broker.routing_checks
        delivered = 0
        elapsed = None
        # Best-of-3 wall-clock: work counters are deterministic (summed
        # over every sample), timing keeps the least-interrupted run.
        for _ in range(_WALL_SAMPLES):
            started = time.perf_counter()
            delivered = 0
            for _ in range(publishes):
                delivered += broker.route(packet)
            sample = time.perf_counter() - started
            elapsed = sample if elapsed is None else min(elapsed, sample)
        checks = (broker.routing_checks - checks_before) \
            / (publishes * _WALL_SAMPLES)
        points.append({
            "subscribers": count,
            "subscriptions": subscriptions,
            "matches_per_publish": delivered / publishes,
            "checks_per_publish": checks,
            "scan_equivalent": subscriptions,
            "publishes_per_s": publishes / elapsed if elapsed > 0 else None,
        })
    first, last = points[0], points[-1]
    growth = {
        "subscription_growth":
            last["subscriptions"] / first["subscriptions"],
        "checks_growth":
            last["checks_per_publish"] / first["checks_per_publish"],
    }
    return {"points": points, "growth": growth}


def bench_docstore_query(n_docs: int = 2000, rounds: int = 200,
                         seed: int = 42) -> dict:
    """Candidate documents examined per query, indexed vs full scan.

    The workload is the server's own shape: records keyed by user and
    modality, queried conjunctively (``records_of``) and with ``$in``
    over users.  The planner intersects the two hash-index buckets (or
    unions ``$in`` buckets), so examined candidates collapse from
    "every document" to "documents that could match".
    """
    from repro.docstore import DocumentStore
    from repro.docstore import compiler

    modalities = ["accelerometer", "location", "activity", "place"]
    users = max(10, n_docs // 100)
    documents = [
        {"user_id": f"user-{i % users}",
         "modality": modalities[i % len(modalities)],
         "seq": i,
         "value": {"x": i}}
        for i in range(n_docs)
    ]
    unindexed = DocumentStore()["records"]
    unindexed.insert_many(documents)
    indexed = DocumentStore()["records"]
    indexed.create_index("user_id")
    indexed.create_index("modality")
    indexed.insert_many(documents)

    # "place" = modalities[3] co-occurs with user-7 (and user-3) at any
    # population size: document 7 is always user-7/place, document 3
    # always user-3/place — so both queries have matches regardless of
    # how ``users`` and the modality cycle align.
    conjunctive = {"user_id": "user-7", "modality": "place"}
    in_query = {"user_id": {"$in": ["user-3", "user-5", "user-7"]},
                "modality": "place"}

    def measure(collection, query):
        collection.find(query).to_list()  # warm the compiler cache
        before = collection.candidates_examined
        started = time.perf_counter()
        results = 0
        for _ in range(rounds):
            results = len(collection.find(query).to_list())
        elapsed = time.perf_counter() - started
        return {
            "results": results,
            "candidates_per_query":
                (collection.candidates_examined - before) / rounds,
            "queries_per_s": rounds / elapsed if elapsed > 0 else None,
        }

    cache_before = compiler.cache_info()
    metrics = {
        "n_docs": n_docs,
        "conjunctive": {
            "scan": measure(unindexed, conjunctive),
            "indexed": measure(indexed, conjunctive),
        },
        "in_union": {
            "scan": measure(unindexed, in_query),
            "indexed": measure(indexed, in_query),
        },
    }
    cache_after = compiler.cache_info()
    metrics["compiler_cache_hits"] = cache_after["hits"] - cache_before["hits"]
    for group in ("conjunctive", "in_union"):
        scan = metrics[group]["scan"]["candidates_per_query"]
        indexed_c = metrics[group]["indexed"]["candidates_per_query"]
        metrics[group]["candidate_reduction"] = (
            scan / indexed_c if indexed_c else None)
    return metrics


def bench_end_to_end_ingest(users: int = 8, sim_minutes: float = 10.0,
                            seed: int = 43) -> dict:
    """A whole simulated deployment: devices sense, the broker routes,
    the server ingests, filters and stores — wall-clock throughput of
    the full virtual-clock pipeline plus the hot-path work counters."""
    from repro import Granularity, ModalityType, SenSocialTestbed

    testbed = SenSocialTestbed(seed=seed)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(users):
        node = testbed.add_user(f"user{index}",
                                home_city=cities[index % len(cities)])
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    sim_seconds = sim_minutes * 60.0
    started = time.perf_counter()
    testbed.run(sim_seconds)
    elapsed = time.perf_counter() - started
    server = testbed.server
    records_collection = server.database.records
    return {
        "users": users,
        "sim_seconds": sim_seconds,
        "wall_seconds": elapsed,
        "sim_speedup": sim_seconds / elapsed if elapsed > 0 else None,
        "records_ingested": server.records_received,
        "records_per_wall_s":
            server.records_received / elapsed if elapsed > 0 else None,
        "broker_publishes": testbed.broker.publishes_received,
        "broker_checks_per_publish": (
            testbed.broker.routing_checks / testbed.broker.publishes_received
            if testbed.broker.publishes_received else None),
        "db_candidates_examined": records_collection.candidates_examined,
        "db_scans": records_collection.scans,
        "db_index_lookups": records_collection.index_lookups,
        "filter_gate_hits": server.filters.gate_cache_hits,
        "filter_gate_evaluations": server.filters.gate_evaluations,
    }


def bench_batch_ingest(batch_sizes: tuple[int, ...] = (1, 16, 64, 256),
                       records: int = 2048, cadence_s: float = 0.025,
                       seed: int = 46) -> dict:
    """Durable ingest throughput vs transport batch size.

    Drives the durable server hot path directly: a bench device emits
    ``records`` identical-rate stream records (one every ``cadence_s``
    virtual seconds — far below the admission watermarks in every
    mode, so nothing is shed and every batch size ingests the exact
    same set), as one ``stream-batch`` envelope per ``batch`` records,
    flushed when its last member is due — batch 1 is the envelope of
    one that phones send for every fresh record.

    ``records_per_wall_s`` (best-of-``_WALL_SAMPLES``) is the headline;
    the *amortization evidence* is deterministic per-record work
    counters — network messages, journal appends, ack envelopes and
    broker trie routings all fall as ``1/batch`` while the ingested
    set stays bit-identical (``tests/test_batch_identity.py`` pins
    identity; this bench and ``benchmarks/test_hotpath_perf.py`` pin
    the speed).  The broker leg publishes the same record stream
    through the subscription trie singleton vs enveloped, since
    batched *messages* also collapse MQTT routing work.
    """
    from repro.core.common.batch import RecordBatch
    from repro.core.server.manager import ServerSenSocialManager
    from repro.durability import ServerDurability
    from repro.mqtt import packets
    from repro.mqtt.broker import MqttBroker
    from repro.net.network import Network
    from repro.simkit.world import World

    def documents_for_run() -> list[dict]:
        return [
            {"stream_id": "bench-s1", "user_id": "bench-user",
             "device_id": "bench-device", "modality": "accelerometer",
             "granularity": "classified", "timestamp": index * cadence_s,
             "value": {"x": float(index)}, "details": {},
             "osn_action": None, "record_id": f"bench-r{index}"}
            for index in range(records)
        ]

    def ingest_run(batch: int) -> dict:
        world = World(seed=seed)
        network = Network(world)
        durability = ServerDurability(world)
        server = ServerSenSocialManager(world, network,
                                        durability=durability)
        acks = {"messages": 0, "records": 0}

        def bench_device(message):
            if message.headers.get("protocol") == "stream-batch-ack":
                acks["messages"] += 1
                acks["records"] += len(message.payload["record_ids"])

        network.register("bench-device", bench_device)
        documents = documents_for_run()
        schedule = world.scheduler.schedule_at
        # The mobile outbox estimates each record's wire size once, at
        # *enqueue* time, and every send carries that explicit size (an
        # envelope charges the sum of its members).  Enqueue-side prep
        # is identical at every batch size, so it stays outside the
        # timed window — the measurement is flush + transport + ingest.
        from repro.net.message import estimate_size
        sizes = [estimate_size(document) for document in documents]
        started = time.perf_counter()

        def send_envelope(chunk, size):
            # Packing happens at flush time, as the mobile outbox does
            # it — the cost belongs inside the measurement.
            payload = RecordBatch.from_documents(chunk).to_payload()
            network.send("bench-device", server.address, payload,
                         size=size, coalesced=len(chunk),
                         headers={"protocol": "stream-batch"})
        for start in range(0, records, batch):
            chunk = documents[start:start + batch]
            # The envelope leaves when its *last* record is due, so the
            # record rate is the same at every batch size.
            schedule((start + len(chunk) - 1) * cadence_s,
                     send_envelope, chunk, sum(sizes[start:start + batch]))
        world.run_for(records * cadence_s + 30.0)  # tail: intake drains
        elapsed = time.perf_counter() - started
        return {
            "wall_seconds": elapsed,
            "records_ingested": server.records_received,
            "records_shed": durability.records_shed,
            "records_quarantined": durability.records_quarantined,
            "network_messages": network.messages_sent,
            "journal_appends": durability.medium.appends,
            "checkpoints": durability.medium.checkpoints,
            "ack_messages": acks["messages"],
            "acked_records": acks["records"],
        }

    def broker_run(batch: int) -> dict:
        world = World(seed=seed)
        network = Network(world)
        broker = MqttBroker(world, network, address="perf-broker")
        address = network.register("perf-sub", lambda message: None)
        broker._on_connect(address, packets.Connect(client_id="sub"))
        broker._on_subscribe(address, packets.Subscribe(
            packet_id=1, topic_filter="sensocial/data/u0/accel"))
        if batch == 1:
            for index in range(records):
                broker._on_publish(address, packets.Publish(
                    topic="sensocial/data/u0/accel",
                    payload={"v": index}, qos=0))
        else:
            for start in range(0, records, batch):
                size = min(batch, records - start)
                broker._on_publish(address, packets.Publish(
                    topic="sensocial/data/u0/accel",
                    payload={"batch_wire": 1, "n": size,
                             "payloads": [{"v": start + offset}
                                          for offset in range(size)]},
                    qos=0))
        return {
            "publishes": broker.publishes_received,
            "routing_checks": broker.routing_checks,
            "batched_records_routed": broker.batched_records_routed,
        }

    points = []
    for batch in batch_sizes:
        best = None
        for _ in range(_WALL_SAMPLES):
            run = ingest_run(batch)
            if best is None or run["wall_seconds"] < best["wall_seconds"]:
                best = run
        broker_work = broker_run(batch)
        points.append({
            "batch": batch,
            "records": records,
            "records_ingested": best["records_ingested"],
            "records_shed": best["records_shed"],
            "records_quarantined": best["records_quarantined"],
            "wall_seconds": best["wall_seconds"],
            "records_per_wall_s": (records / best["wall_seconds"]
                                   if best["wall_seconds"] > 0 else None),
            # Per-record amortization: every per-message cost divides
            # by the batch size; per-record outputs stay identical.
            "messages_per_record": best["network_messages"] / records,
            "journal_appends_per_record":
                best["journal_appends"] / records,
            "ack_messages_per_record": best["ack_messages"] / records,
            "acked_records": best["acked_records"],
            "checkpoints": best["checkpoints"],
            "trie_routings_per_record": broker_work["publishes"] / records,
            "broker_checks_per_record":
                broker_work["routing_checks"] / records,
            "batched_records_routed":
                broker_work["batched_records_routed"],
        })
    baseline = next((p for p in points if p["batch"] == 1), points[0])
    for point in points:
        point["speedup_vs_singleton"] = (
            point["records_per_wall_s"] / baseline["records_per_wall_s"]
            if baseline["records_per_wall_s"] else None)
    gate_points = [p for p in points
                   if p["batch"] >= 64 and p["speedup_vs_singleton"]]
    return {
        "records": records,
        "cadence_s": cadence_s,
        "wall_samples": _WALL_SAMPLES,
        "points": points,
        #: Best speedup among batch >= 64 — the ISSUE 9 >=10x gate.
        "gate_speedup": (max(p["speedup_vs_singleton"]
                             for p in gate_points)
                         if gate_points else None),
    }


def bench_shard_scaling(shard_counts: tuple[int, ...] = (1, 4),
                        users: int = 16, sim_minutes: float = 10.0,
                        seed: int = 44) -> dict:
    """Per-shard ingest+filter work as the cluster widens.

    The same deployment — ``users`` devices, one continuous stream each
    — runs against clusters of each size in ``shard_counts``.  The
    metric is the *maximum* per-shard deterministic work counter
    (records ingested + replayed duplicates + OSN actions; see
    ``ShardWorker.work_done``): the hottest shard bounds the cluster's
    capacity, so ``max_shard_work(1) / max_shard_work(N)`` is the
    scaling factor the consistent-hash placement actually delivers.
    Work counters are deterministic, so CI asserts a floor on the
    1→4-shard factor (``benchmarks/test_cluster_scaling.py``).
    """
    from repro import Granularity, ModalityType, SenSocialTestbed

    points = []
    for shards in shard_counts:
        testbed = SenSocialTestbed(seed=seed, shards=shards)
        cities = ["Paris", "Bordeaux", "London"]
        for index in range(users):
            testbed.add_user(f"user{index:02d}",
                             home_city=cities[index % len(cities)])
        for user_id in sorted(testbed.nodes):
            testbed.server.create_stream(user_id, ModalityType.ACCELEROMETER,
                                         Granularity.CLASSIFIED)
        started = time.perf_counter()
        testbed.run(sim_minutes * 60.0)
        elapsed = time.perf_counter() - started
        work = testbed.server.cluster_report()["work"]
        health = testbed.server.health()
        points.append({
            "shards": shards,
            "users": users,
            "records_ingested": int(health["records_received"]),
            "total_work": sum(work.values()),
            "max_shard_work": max(work.values()),
            "per_shard_work": work,
            "wall_seconds": elapsed,
        })
    first, last = points[0], points[-1]
    return {
        "points": points,
        "scaling_factor": (first["max_shard_work"] / last["max_shard_work"]
                           if last["max_shard_work"] else None),
    }


def bench_elasticity(users: int = 12, sim_minutes: float = 10.0,
                     seed: int = 45) -> dict:
    """Mid-run scale-out cost of the snapshot bootstrap.

    A durable 2-shard cluster runs the workload; halfway through, a
    third shard joins and bulk-imports the migrated documents.
    ``journal_appends`` (zero) and ``checkpoints`` (one) are the
    deterministic work counters the CI bound asserts on, next to
    zero-loss accounting and ring consistency.
    """
    from repro import Granularity, ModalityType, SenSocialTestbed

    sim_seconds = sim_minutes * 60.0
    testbed = SenSocialTestbed(seed=seed, shards=2, durability=True)
    cities = ["Paris", "Bordeaux", "London"]
    for index in range(users):
        testbed.add_user(f"user{index:02d}",
                         home_city=cities[index % len(cities)])
    for user_id in sorted(testbed.nodes):
        testbed.server.create_stream(user_id, ModalityType.ACCELEROMETER,
                                     Granularity.CLASSIFIED)
    started = time.perf_counter()
    testbed.run(sim_seconds / 2)
    entry = testbed.server.add_shard()
    testbed.run(sim_seconds / 2)
    testbed.run(120.0)  # quiet tail: outboxes drain, retries land
    elapsed = time.perf_counter() - started
    enqueued = sum(node.manager.health()["enqueued"]
                   for node in testbed.nodes.values())
    queued = sum(node.manager.health()["queued"]
                 for node in testbed.nodes.values())
    dropped = sum(node.manager.health()["dropped"]
                  for node in testbed.nodes.values())
    ingested = testbed.server.health()["records_received"]
    return {
        "users": users,
        "sim_seconds": sim_seconds,
        "moved_devices": entry["moved_devices"],
        "documents": entry["bootstrap"]["documents"],
        "journal_appends": entry["bootstrap"]["journal_appends"],
        "checkpoints": entry["bootstrap"]["checkpoints"],
        "records_ingested": int(ingested),
        "records_lost": int(enqueued - queued - dropped - ingested),
        "consistency_problems": len(testbed.server.verify_consistent()),
        "wall_seconds": elapsed,
    }


def run_all(*, quick: bool = False) -> dict:
    """Run the six benchmark groups; ``quick`` shrinks sizes for CI
    smoke runs while keeping every metric meaningful."""
    if quick:
        broker = bench_broker_fanout(subscriber_counts=(50, 200, 800),
                                     publishes=50)
        docstore = bench_docstore_query(n_docs=1000, rounds=50)
        ingest = bench_end_to_end_ingest(users=4, sim_minutes=5.0)
        batch = bench_batch_ingest(records=512)
        shard = bench_shard_scaling(users=16, sim_minutes=5.0)
        elasticity = bench_elasticity(users=8, sim_minutes=5.0)
    else:
        broker = bench_broker_fanout()
        docstore = bench_docstore_query()
        ingest = bench_end_to_end_ingest()
        batch = bench_batch_ingest()
        shard = bench_shard_scaling()
        elasticity = bench_elasticity()
    return {
        "run_at": time.time(),
        "quick": quick,
        # Every trajectory datapoint is labelled with what workload
        # produced it, so mixed histories (classic suite entries next
        # to named-scenario entries) stay self-describing.
        "labels": {"scenario": "hotpath-suite",
                   "population": ingest["users"]
                   if "users" in ingest else 4},
        "broker_fanout": broker,
        "docstore_query": docstore,
        "end_to_end_ingest": ingest,
        "batch_ingest": batch,
        "shard_scaling": shard,
        "elasticity": elasticity,
    }


def bench_scenario(name: str, devices: int, *, seed: int = 0,
                   sim_seconds: float | None = None,
                   events_per_device: float | None = None,
                   active_cap: int = 4096, sink: str = "stats",
                   chaos: bool = False) -> dict:
    """Run one named population scenario as a benchmark datapoint.

    The scenario engine already measures wall time and counts events;
    this wraps its report in a trajectory entry shaped like
    :func:`run_all`'s — same ``labels`` contract, so ``repro perf
    --scenario`` datapoints land in the same ``BENCH_PERF.json``
    history as the classic suite.
    """
    from repro.scenarios import run_scenario

    report = run_scenario(name, devices, seed=seed, sim_seconds=sim_seconds,
                          events_per_device=events_per_device,
                          active_cap=active_cap, sink=sink, chaos=chaos)
    return {
        "run_at": time.time(),
        "quick": False,
        "labels": {"scenario": name, "population": devices},
        "scenario": report,
    }


def format_scenario_summary(entry: dict) -> str:
    """Digest of a ``bench_scenario`` trajectory entry."""
    report = entry["scenario"]
    labels = entry["labels"]
    lines = [f"scenario {labels['scenario']} "
             f"({labels['population']:,} devices)"]
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
    problems = report.get("verify_problems", [])
    lines.append("  verify   " + ("ok" if not problems
                                  else "; ".join(problems)))
    return "\n".join(lines)


def write_report(entry: dict, path: str | Path = BENCH_PERF_FILENAME,
                 history_limit: int = 50) -> dict:
    """Append ``entry`` to the perf trajectory file and return the full
    document (``latest`` plus a bounded ``history``)."""
    path = Path(path)
    document: dict[str, Any] = {"schema": 1, "history": []}
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(previous, dict) and isinstance(
                    previous.get("history"), list):
                document["history"] = previous["history"]
        except (ValueError, OSError):
            pass  # corrupt/unreadable trajectory: start a fresh one
    document["history"].append(entry)
    document["history"] = document["history"][-history_limit:]
    document["latest"] = entry
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return document


def format_summary(entry: dict) -> str:
    """A terse human-readable digest of one benchmark entry."""
    lines = ["hot-path benchmarks"]
    broker = entry["broker_fanout"]
    for point in broker["points"]:
        lines.append(
            f"  broker   {point['subscribers']:>5} subs: "
            f"{point['checks_per_publish']:8.1f} checks/publish "
            f"(scan would do {point['scan_equivalent']}), "
            f"{point['publishes_per_s']:,.0f} publish/s")
    growth = broker["growth"]
    lines.append(
        f"  broker   growth: x{growth['subscription_growth']:.0f} "
        f"subscriptions -> x{growth['checks_growth']:.2f} routing work")
    docstore = entry["docstore_query"]
    for group in ("conjunctive", "in_union"):
        metrics = docstore[group]
        reduction = metrics["candidate_reduction"]
        lines.append(
            f"  docstore {group}: {metrics['indexed']['candidates_per_query']:.1f} "
            f"candidates/query indexed vs {metrics['scan']['candidates_per_query']:.1f} "
            f"scanned ({f'{reduction:.0f}x fewer' if reduction else 'n/a'}), "
            f"{metrics['indexed']['queries_per_s']:,.0f} q/s")
    ingest = entry["end_to_end_ingest"]
    lines.append(
        f"  ingest   {ingest['records_ingested']} records / "
        f"{ingest['sim_seconds']:.0f} sim-s in {ingest['wall_seconds']:.2f} "
        f"wall-s ({ingest['sim_speedup']:.0f}x real time, "
        f"{ingest['records_per_wall_s']:,.0f} records/wall-s)")
    batch = entry.get("batch_ingest")
    if batch is not None:
        for point in batch["points"]:
            lines.append(
                f"  batch    b={point['batch']:>3}: "
                f"{point['records_per_wall_s']:,.0f} records/wall-s, "
                f"{point['messages_per_record']:.3f} msgs + "
                f"{point['journal_appends_per_record']:.3f} appends + "
                f"{point['trie_routings_per_record']:.3f} routings /record")
        gate = batch["gate_speedup"]
        lines.append(
            f"  batch    speedup at batch>=64: "
            f"{f'x{gate:.1f}' if gate else 'n/a'} (gate: >=10x)")
    shard = entry.get("shard_scaling")
    if shard is not None:
        for point in shard["points"]:
            lines.append(
                f"  cluster  {point['shards']} shard(s), "
                f"{point['users']} users: max shard work "
                f"{point['max_shard_work']} of {point['total_work']}")
        factor = shard["scaling_factor"]
        lines.append(
            f"  cluster  hottest-shard work scaling 1->"
            f"{shard['points'][-1]['shards']} shards: "
            f"{f'x{factor:.2f}' if factor else 'n/a'}")
    elasticity = entry.get("elasticity")
    if elasticity is not None:
        lines.append(
            f"  elastic  bootstrap: {elasticity['documents']} docs moved, "
            f"{elasticity['journal_appends']} journal appends + "
            f"{elasticity['checkpoints']} checkpoints, "
            f"{elasticity['records_lost']} lost")
    return "\n".join(lines)
