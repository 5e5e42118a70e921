"""A malformed uplink payload is dropped at the server's edge decode
instead of raising out of the run.

Uplink payloads come from outside the program.  A ``stream-data``
record missing a field, a ``stream-batch`` envelope with ragged
columns, or one stamped with a newer wire version is dropped as
``invalid``: the record ids it carries are acked so the sender stops
retrying, the drop is counted, a durable server dead-letters the raw
payload — and the next valid record ingests as usual.
"""

import pytest

from repro.core.common.batch import (
    BATCH_MARKER,
    BATCH_WIRE_VERSION,
    RecordBatch,
)
from repro.scenarios.testbed import SenSocialTestbed

SENDER = "uplink-sender"


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


@pytest.mark.parametrize("durable", [False, True],
                         ids=["volatile", "durable"])
@pytest.mark.parametrize("case", [missing_field, ragged_columns,
                                  newer_wire_version])
def test_invalid_payload_is_acked_counted_and_dropped(case, durable):
    protocol, payload, record_ids = case()
    testbed = SenSocialTestbed(seed=3, observability=True,
                               durability=durable)
    server = testbed.server
    acked: list[str] = []
    testbed.network.register(
        SENDER, lambda message: acked.extend(message.payload["record_ids"]))
    testbed.network.send(SENDER, server.address, payload,
                         headers={"protocol": protocol})
    testbed.run(5.0)
    assert acked == record_ids
    assert server.records_received == 0
    assert server.health()["counters"]["records_invalid"] == len(record_ids)
    assert testbed.obs.telemetry.counter(
        "records_dropped", stage="ingest",
        reason="invalid").value == len(record_ids)
    if durable:
        [entry] = server.durability.quarantine.items()
        assert entry["reason"] == "invalid"
        assert entry["payload"] is payload
    # The server keeps serving: a valid record ingests next.
    testbed.network.send(SENDER, server.address, document("r9"),
                         headers={"protocol": "stream-data"})
    testbed.run(5.0)
    assert server.records_received == 1
    assert acked == record_ids + ["r9"]
