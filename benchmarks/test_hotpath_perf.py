"""Hot-path benchmark gate — broker trie, query planner, batched ingest.

The paper's §5.5 prescribes indices for the data path and Tables 3/4
measure delay degradation under load; this bench asserts the
*algorithmic* wins installed by the hot-path overhaul (see
``docs/PERFORMANCE.md``), each with its microbenchmark beside it:

* broker routing work per PUBLISH stays sublinear in the subscriber
  population (the trie walks topic levels, not subscription tables);
* indexed conjunctive queries examine >= 10x fewer candidate documents
  than a full scan at 1k+ documents (hash-bucket intersection);
* the whole middleware still ingests end to end (the ``sense-durable``
  workload of ``python -m bench``, at smoke size);
* a steady-state geo multicast refresh scans the ``users`` collection
  once (the geo answer already holds only registered users);
* batched durable ingest amortizes every per-message cost.

Assertions ride on deterministic work counters (``routing_checks``,
``candidates_examined``, messages/appends/acks per record); the one
wall-clock bar is the batch gate's ratio of two runs measured back to
back.  Thresholds are generous: the measured numbers (constant routing
work under a 16x population growth, ~20x candidate reduction) clear
them several times over, so a breach means a real regression.  The
whole-middleware speed trajectory is ``python -m bench --json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro import Granularity, ModalityType, SenSocialTestbed
from repro.core.common.batch import RecordBatch
from repro.core.server import MulticastQuery
from repro.core.server.manager import ServerSenSocialManager
from repro.docstore import DocumentStore, compiler
from repro.durability import ServerDurability
from repro.mqtt import packets
from repro.mqtt.broker import MqttBroker
from repro.net.message import estimate_size
from repro.net.network import Network
from repro.simkit.world import World

ROOT = Path(__file__).resolve().parent.parent

#: Routing work may grow at most this fraction of the subscriber
#: growth before the gate trips (a linear scan scores 1.0).
MAX_SUBLINEARITY_RATIO = 0.25

#: Required candidate-evaluation reduction for indexed conjunctive
#: queries at 1k+ documents (ISSUE 4 acceptance floor).
MIN_CONJUNCTIVE_REDUCTION = 10.0

#: ``$in`` unions intersect coarser buckets, so the floor is lower.
MIN_IN_UNION_REDUCTION = 3.0

#: Required durable-ingest throughput multiple at batch >= 64 (ISSUE 9
#: acceptance gate; measured ~12-13x, so a breach is a real
#: regression, not machine noise — both sides of the ratio run on the
#: same machine back to back).
MIN_BATCH_SPEEDUP = 10.0

#: Per-record *work* at batch >= 64 must fall at least this much vs
#: the singleton path — deterministic counters, immune to wall noise.
MIN_WORK_REDUCTION = 10.0

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
    counters — network messages, journal appends and ack envelopes all
    fall as ``1/batch`` while the ingested set stays bit-identical
    (``tests/test_batch_identity.py`` pins identity; this bench pins
    the speed).
    """
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

    points = []
    for batch in batch_sizes:
        best = None
        for _ in range(_WALL_SAMPLES):
            run = ingest_run(batch)
            if best is None or run["wall_seconds"] < best["wall_seconds"]:
                best = run
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
        #: Best speedup among batch >= 64 — what the >=10x gate reads.
        "gate_speedup": (max(p["speedup_vs_singleton"]
                             for p in gate_points)
                         if gate_points else None),
    }


def test_broker_routing_sublinear(report):
    metrics = bench_broker_fanout(subscriber_counts=(100, 400, 1600),
                                  publishes=100)
    points = metrics["points"]
    report("broker fan-out: routing work per publish",
           ["subscribers", "checks/publish", "scan would do", "publish/s"],
           [[p["subscribers"], f"{p['checks_per_publish']:.1f}",
             p["scan_equivalent"], f"{p['publishes_per_s']:,.0f}"]
            for p in points])
    growth = metrics["growth"]
    assert growth["subscription_growth"] >= 15
    # Sublinear: 16x more subscriptions must NOT mean 16x more routing
    # work per publish.  (Measured: the work is constant.)
    assert growth["checks_growth"] <= \
        growth["subscription_growth"] * MAX_SUBLINEARITY_RATIO
    # And the trie must beat the old scan outright at every size.
    for point in points:
        assert point["checks_per_publish"] < point["scan_equivalent"]
    # The match set is constant by construction; delivery must agree.
    matches = {p["matches_per_publish"] for p in points}
    assert len(matches) == 1


def test_docstore_conjunctive_index_reduction(report):
    metrics = bench_docstore_query(n_docs=1000, rounds=50)
    rows = []
    for group in ("conjunctive", "in_union"):
        group_metrics = metrics[group]
        rows.append([group,
                     f"{group_metrics['scan']['candidates_per_query']:.0f}",
                     f"{group_metrics['indexed']['candidates_per_query']:.0f}",
                     f"{group_metrics['candidate_reduction']:.1f}x"])
        # Indexed and scanned queries must agree on the result set size
        # (the equivalence property tests pin contents and order).
        assert group_metrics["scan"]["results"] == \
            group_metrics["indexed"]["results"]
        assert group_metrics["indexed"]["results"] > 0
    report("docstore: candidates examined per query (1000 docs)",
           ["query", "full scan", "indexed", "reduction"], rows)
    assert metrics["conjunctive"]["candidate_reduction"] >= \
        MIN_CONJUNCTIVE_REDUCTION
    assert metrics["in_union"]["candidate_reduction"] >= \
        MIN_IN_UNION_REDUCTION
    # Repeated queries must hit the compiled-plan cache.
    assert metrics["compiler_cache_hits"] > 0


def test_end_to_end_ingest_pipeline(report):
    """One ``sense-durable`` repetition at smoke size, run the way
    ``python -m bench`` runs it: a fresh worker process whose last
    stdout line is its report."""
    worker = subprocess.run(
        [sys.executable, "-m", "bench.worker", "sense-durable",
         "--seed", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True)
    assert worker.returncode == 0, worker.stderr
    result = json.loads(worker.stdout.splitlines()[-1])
    counts = result["counts"]
    report("end-to-end ingest (bench sense-durable, smoke)",
           ["records", "publishes", "checks/publish", "wall s",
            "records/wall-s"],
           [[result["records"], counts["publishes"],
             f"{counts['routing_checks'] / max(1, counts['publishes']):.1f}",
             f"{result['wall_s']:.2f}",
             f"{result['records_per_wall_s']:,.0f}"]])
    # The worker's own checks: conservation, replay, listener delivery.
    assert result["problems"] == []
    assert result["records"] > 0
    # Routing checks per publish are defined only over some publishes.
    assert counts["publishes"] > 0


def test_geo_multicast_refresh_scans_users_once(report):
    users = 60
    testbed = SenSocialTestbed(seed=0, location_update_period_s=None)
    database = testbed.server.database
    for index in range(users):
        user_id = f"u{index}"
        database.register_device(user_id, f"dev-{index}", [])
        place = "Paris" if index % 3 else "Bordeaux"
        database.update_location(user_id, 2.35, 48.85, place,
                                 testbed.world.now)
    multicast = testbed.server.create_multicast_stream(
        ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
        MulticastQuery(place="Paris"))
    collection = database.users
    scans, examined = collection.scans, collection.candidates_examined
    # Steady state: nobody moved, so nobody joins or leaves.
    assert multicast.refresh() == ([], [])
    scans = collection.scans - scans
    examined = collection.candidates_examined - examined
    report("geo multicast refresh: users-collection work",
           ["users", "members", "scans/refresh", "candidates/refresh"],
           [[users, len(multicast.members()), scans, examined]])
    assert len(multicast.members()) == 40
    # One scan answers the place clause; the registered-set scan the
    # geo answer makes redundant is skipped (it would double both).
    assert scans == 1
    assert examined == users


class TestBatchIngest:
    """The ISSUE 9 tentpole gate: batched transport+ingest must beat
    per-record by >= 10x records/wall-s at batch >= 64, with the win
    explained by deterministic work counters (journal appends, ack
    envelopes and network messages per record all fall as 1/batch) —
    and the outputs stay bit-identical either way
    (``tests/test_batch_identity.py``)."""

    def test_batch_throughput_gate(self, report):
        metrics = bench_batch_ingest(records=2048)
        points = {point["batch"]: point for point in metrics["points"]}
        report("durable ingest: batched vs per-record transport",
               ["batch", "records/wall-s", "speedup", "msgs/rec",
                "appends/rec", "acks/rec"],
               [[p["batch"], f"{p['records_per_wall_s']:,.0f}",
                 f"{p['speedup_vs_singleton']:.1f}x",
                 f"{p['messages_per_record']:.3f}",
                 f"{p['journal_appends_per_record']:.3f}",
                 f"{p['ack_messages_per_record']:.3f}"]
                for p in metrics["points"]])
        # Both paths must ingest the *entire* record set — a speedup
        # bought by shedding or quarantining records would be a lie.
        for point in metrics["points"]:
            assert point["records_ingested"] == metrics["records"]
            assert point["records_shed"] == 0
            assert point["records_quarantined"] == 0
            assert point["acked_records"] == metrics["records"]
        base = points[1]
        # Singleton shape: one data message + one ack + one journal
        # frame per record.
        assert base["messages_per_record"] >= 2.0
        assert base["journal_appends_per_record"] >= 1.0
        assert base["ack_messages_per_record"] == 1.0
        # Deterministic amortization evidence at every gated size.
        for batch in (64, 256):
            point = points[batch]
            for counter in ("messages_per_record",
                            "journal_appends_per_record",
                            "ack_messages_per_record"):
                assert point[counter] * MIN_WORK_REDUCTION <= base[counter]
        # The wall-clock gate itself: >= 10x records/wall-s at some
        # batch >= 64 (best point; both sides measured back to back).
        assert metrics["gate_speedup"] >= MIN_BATCH_SPEEDUP
