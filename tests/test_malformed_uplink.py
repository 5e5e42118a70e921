"""A malformed uplink payload is dropped at the server's edge decode
instead of raising out of the run.

Uplink payloads come from outside the program.  A ``stream-data``
record missing a field, a ``stream-batch`` envelope with ragged
columns, one stamped with a newer wire version, or a payload that is
not a dict at all is dropped as ``invalid``: the record ids it carries
are acked so the sender stops retrying, the drop is counted, a durable
server dead-letters the raw payload — and the next valid record
ingests as usual.  The monolith and clusters of one and two shards
behave alike: the coordinator hands a payload without a string routing
key to its first active shard, whose edge decode does the rest.

A ``location-update`` is an uplink too: one that is not a dict with a
string ``user_id``, finite real coordinates and timestamp, and a
string or absent ``place`` is counted as invalid and changes nothing.
"""

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.common.batch import (
    BATCH_MARKER,
    BATCH_WIRE_VERSION,
    RecordBatch,
)
from repro.core.server.multicast import MulticastQuery
from repro.scenarios.testbed import SenSocialTestbed

SENDER = "uplink-sender"

TOPOLOGIES = pytest.mark.parametrize(
    "shards", [None, 1, 2], ids=["monolith", "one-shard", "two-shard"])


def document(record_id):
    return {"stream_id": "s1", "user_id": "alice", "device_id": "d1",
            "modality": "accelerometer", "granularity": "classified",
            "timestamp": 0.0, "value": "walking", "details": {},
            "osn_action": None, "record_id": record_id}


def missing_field():
    payload = document("r1")
    del payload["stream_id"]
    return "stream-data", payload, ["r1"]


def ragged_columns():
    payload = RecordBatch.from_documents(
        [document("r1"), document("r2")]).to_payload()
    payload["values"] = payload["values"][:1]
    return "stream-batch", payload, ["r1", "r2"]


def newer_wire_version():
    payload = RecordBatch.from_documents([document("r1")]).to_payload()
    payload[BATCH_MARKER] = BATCH_WIRE_VERSION + 1
    return "stream-batch", payload, ["r1"]


def not_a_dict():
    return "stream-data", [document("r1")], []


def workers(testbed):
    server = testbed.server
    return server.all_shard_workers() if testbed.shards else [server]


@TOPOLOGIES
@pytest.mark.parametrize("durable", [False, True],
                         ids=["volatile", "durable"])
@pytest.mark.parametrize("case", [missing_field, ragged_columns,
                                  newer_wire_version, not_a_dict])
def test_invalid_payload_is_acked_counted_and_dropped(case, durable, shards):
    protocol, payload, record_ids = case()
    # A payload naming no record id still counts as one dropped record.
    dropped = max(1, len(record_ids))
    testbed = SenSocialTestbed(seed=3, observability=True,
                               durability=durable, shards=shards)
    server = testbed.server
    acked: list[str] = []
    testbed.network.register(
        SENDER, lambda message: acked.extend(message.payload["record_ids"]))
    testbed.network.send(SENDER, server.address, payload,
                         headers={"protocol": protocol})
    testbed.run(5.0)
    assert acked == record_ids
    counters = server.health()["counters"]
    assert counters["records_received"] == 0
    assert counters["records_invalid"] == dropped
    assert testbed.obs.telemetry.counter(
        "records_dropped", stage="ingest",
        reason="invalid").value == dropped
    if durable:
        [entry] = [entry for worker in workers(testbed)
                   for entry in worker.durability.quarantine.items()]
        assert entry["reason"] == "invalid"
        assert entry["payload"] is payload
    # The server keeps serving: a valid record ingests next.
    testbed.network.send(SENDER, server.address, document("r9"),
                         headers={"protocol": "stream-data"})
    testbed.run(5.0)
    assert server.health()["counters"]["records_received"] == 1
    assert acked == record_ids + ["r9"]


@TOPOLOGIES
def test_non_string_device_id_is_ingested(shards):
    """The ring routes only string device ids; the monolith ingests a
    record whatever its device id's type, and so does every cluster."""
    testbed = SenSocialTestbed(seed=3, shards=shards)
    acked: list[str] = []
    testbed.network.register(
        SENDER, lambda message: acked.extend(message.payload["record_ids"]))
    payload = document("r1")
    payload["device_id"] = 5
    testbed.network.send(SENDER, testbed.server.address, payload,
                         headers={"protocol": "stream-data"})
    testbed.run(5.0)
    assert acked == ["r1"]
    counters = testbed.server.health()["counters"]
    assert counters["records_received"] == 1
    assert counters["records_invalid"] == 0


def location_update(**changes):
    payload = {"user_id": "alice", "device_id": "d0001", "lon": 2.35,
               "lat": 48.86, "place": "Paris", "timestamp": 42.0}
    payload.update(changes)
    return payload


def without(key):
    payload = location_update()
    del payload[key]
    return payload


BAD_LOCATION_UPDATES = {
    "not-a-dict": ["alice", 2.35, 48.86],
    "no-user-id": without("user_id"),
    "int-user-id": location_update(user_id=5),
    "string-lon": location_update(lon="2.35"),
    "bool-lat": location_update(lat=True),
    "nan-lat": location_update(lat=float("nan")),
    "infinite-timestamp": location_update(timestamp=float("inf")),
    "no-timestamp": without("timestamp"),
    "int-place": location_update(place=7),
}


@TOPOLOGIES
@pytest.mark.parametrize("payload", list(BAD_LOCATION_UPDATES.values()),
                         ids=list(BAD_LOCATION_UPDATES))
def test_malformed_location_update_is_counted_and_dropped(payload, shards):
    """A location update that does not validate changes nothing and
    refreshes no multicast; the next valid one applies as usual."""
    testbed = SenSocialTestbed(seed=3, shards=shards,
                               location_update_period_s=None)
    testbed.add_user("alice", "Paris")
    server = testbed.server
    multicast = server.create_multicast_stream(
        ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
        MulticastQuery(place="Paris"))
    refreshes = multicast.refreshes
    testbed.network.send(SENDER, server.address, payload,
                         headers={"protocol": "location-update"})
    testbed.run(5.0)
    assert server.health()["counters"]["location_updates_invalid"] == 1
    assert server.database.location_of("alice") is None
    assert multicast.refreshes == refreshes
    testbed.network.send(SENDER, server.address, location_update(),
                         headers={"protocol": "location-update"})
    testbed.run(5.0)
    assert server.database.location_of("alice") == {
        "point": [2.35, 48.86], "place": "Paris", "timestamp": 42.0}
    assert multicast.refreshes == refreshes + 1
    assert multicast.members() == ["alice"]
    assert server.health()["counters"]["location_updates_invalid"] == 1
