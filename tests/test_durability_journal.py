"""Write-ahead journal unit tests: append-before-apply, nested-op
suppression, checkpoints, replay equivalence, fault injection, and
checkpoint frames spliced from cached document encodings."""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.server.dedup import RecordDeduper
from repro.docstore import DocumentStore, JournaledDocumentStore
from repro.docstore.errors import DocStoreError, DuplicateKeyError, UpdateError
from repro.durability import (
    DurabilityError,
    JournalEntry,
    ServerDurability,
    StorageMedium,
    StorageWriteError,
    WriteAheadJournal,
    codec,
    replay,
)
from repro.simkit.world import World


def make_store(checkpoint_interval=1_000_000):
    medium = StorageMedium()
    journal = WriteAheadJournal(medium, checkpoint_interval)
    store = JournaledDocumentStore(journal)
    journal.state_provider = lambda: {"store": store.snapshot()}
    return medium, journal, store


def recover(medium):
    """Fresh store rebuilt from the medium: snapshot + journal tail."""
    fresh_medium = StorageMedium()
    journal = WriteAheadJournal(fresh_medium, 1_000_000)
    store = JournaledDocumentStore(journal)
    snapshot = medium.load_snapshot()
    with journal.suspended():
        if snapshot is not None:
            store.restore(snapshot["store"])
        result = replay(store, list(medium.entries))
    return store, result


class TestJournaling:
    def test_append_before_apply(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        assert [entry.op for entry in medium.entries][-1] == "insert_one"

    def test_every_mutating_op_journaled(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        users.update_one({"user_id": "a"}, {"$set": {"x": 1}})
        users.update_many({}, {"$set": {"y": 2}})
        users.delete_one({"user_id": "missing"})
        users.delete_many({"user_id": "missing"})
        ops = [entry.op for entry in medium.entries]
        assert ops == ["create_index", "insert_one", "update_one",
                       "update_many", "delete_one", "delete_many"]

    def test_upsert_journals_one_entry(self):
        medium, journal, store = make_store()
        store["users"].update_one({"user_id": "a"},
                                  {"$set": {"x": 1}}, upsert=True)
        # The upsert's internal insert is suppressed by the depth guard.
        assert [entry.op for entry in medium.entries] == ["update_one"]

    def test_index_recreation_not_journaled(self):
        medium, journal, store = make_store()
        store["users"].create_index("user_id")
        store["users"].create_index("user_id")
        assert [entry.op for entry in medium.entries] == ["create_index"]

    def test_suspended_ops_not_journaled(self):
        medium, journal, store = make_store()
        with journal.suspended():
            store["users"].insert_one({"user_id": "a"})
        assert len(medium.entries) == 0
        assert store["users"].count() == 1

    def test_payload_deep_copied(self):
        medium, journal, store = make_store()
        doc = {"user_id": "a", "tags": ["x"]}
        store["users"].insert_one(doc)
        doc["tags"].append("y")
        assert medium.entries[0].payload["document"]["tags"] == ["x"]


class TestReplay:
    def test_replay_reproduces_state(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a", "n": 0})
        users.update_one({"user_id": "a"}, {"$inc": {"n": 5}})
        users.update_one({"user_id": "b"}, {"$set": {"n": 9}}, upsert=True)
        users.delete_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 0
        assert sorted(d["user_id"] for d in recovered["users"].find()) == ["b"]
        assert recovered["users"].find_one({"user_id": "b"})["n"] == 9

    def test_replay_preserves_ids(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["users"].insert_one({"user_id": "b"})
        original = {d["user_id"]: d["_id"] for d in store["users"].find()}
        recovered, _ = recover(medium)
        assert {d["user_id"]: d["_id"]
                for d in recovered["users"].find()} == original

    def test_failed_op_fails_identically_on_replay(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        with pytest.raises(DuplicateKeyError):
            users.insert_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 1
        assert recovered["users"].count() == 1

    def test_ingest_entry_restores_dedup_ids(self):
        medium, journal, store = make_store()
        with journal.op("ingest", "records", document={"value": 1},
                        record_id="r1"):
            store["records"].insert_one({"value": 1})
        recovered, result = recover(medium)
        assert result.dedup_ids == ["r1"]
        assert recovered["records"].count() == 1

    def test_unknown_op_raises(self):
        store = DocumentStore()
        entry = JournalEntry(seq=0, op="explode", collection="x")
        with pytest.raises(DurabilityError):
            replay(store, [entry])


class TestCheckpoints:
    def test_checkpoint_truncates_and_recovery_survives(self):
        medium, journal, store = make_store(checkpoint_interval=3)
        for index in range(7):
            store["users"].insert_one({"n": index})
        assert medium.checkpoints >= 1
        assert len(medium.entries) < 7
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 7

    def test_lag_returns_to_zero_after_checkpoint(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"n": 1})
        assert journal.lag == 1
        journal.checkpoint()
        assert journal.lag == 0
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 1

    def test_checkpoint_without_provider_raises(self):
        journal = WriteAheadJournal(StorageMedium(), 10)
        with pytest.raises(DurabilityError):
            journal.checkpoint()


class TestSnapshotRestore:
    def test_collection_roundtrip_preserves_next_id(self):
        store = DocumentStore()
        store["users"].create_index("user_id", unique=True)
        store["users"].insert_one({"user_id": "a"})
        state = store.snapshot()
        other = DocumentStore()
        other.restore(state)
        # The id allocator position must survive: the next insert on
        # the restored store gets the same _id the original would.
        original_id = store["users"].insert_one({"user_id": "b"})
        restored_id = other["users"].insert_one({"user_id": "b"})
        assert original_id == restored_id
        with pytest.raises(DuplicateKeyError):
            other["users"].insert_one({"user_id": "a"})

    def test_restored_store_shares_no_document_with_its_source(self):
        # ``snapshot()`` hands out the live documents; ``restore`` must
        # copy them, or an update on the source would show through.
        source = DocumentStore()
        source["users"].insert_one({"user_id": "a", "tags": ["x"],
                                    "home": {"city": "Paris"}})
        restored = DocumentStore()
        restored.restore(source.snapshot())
        source["users"].update_one(
            {"user_id": "a"},
            {"$set": {"home.city": "London"}, "$push": {"tags": "y"}})
        assert restored["users"].find_one({"user_id": "a"}) == {
            "user_id": "a", "tags": ["x"], "home": {"city": "Paris"},
            "_id": 1}


class TestWriteFaults:
    def test_strict_failure_raises_without_apply(self):
        medium, journal, store = make_store()
        medium.inject_write_failures(1)
        with pytest.raises(StorageWriteError):
            with journal.op("ingest", "records", strict=True,
                            document={"v": 1}, record_id="r1"):
                raise AssertionError("body must not run")
        assert store["records"].count() == 0
        assert medium.append_failures == 1

    def test_nonstrict_failure_applies_in_memory_only(self):
        medium, journal, store = make_store()
        medium.inject_write_failures(1)
        store["users"].insert_one({"user_id": "a"})
        assert store["users"].count() == 1  # dirty write, visible now
        assert journal.lost_appends == 1
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 0  # ...and lost by a crash

    def test_failures_burn_down(self):
        medium = StorageMedium()
        medium.inject_write_failures(2)
        for _ in range(2):
            with pytest.raises(StorageWriteError):
                medium.append(JournalEntry(0, "insert_one", "x"))
        medium.append(JournalEntry(0, "insert_one", "x", {"document": {}}))
        assert medium.pending_write_failures == 0
        assert len(medium.entries) == 1


class TestApplyCoverage:
    """Replay coverage for the less-travelled ``_apply`` branches."""

    def test_drop_collection_replays(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["stale"].insert_one({"user_id": "b"})
        store.drop_collection("stale")
        recovered, result = recover(medium)
        assert result.failed == 0
        assert "stale" not in recovered.collection_names()
        assert recovered["users"].count() == 1

    def test_drop_replays_and_leaves_collection_usable(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["users"].drop()
        store["users"].insert_one({"user_id": "b"})
        recovered, result = recover(medium)
        assert result.failed == 0
        assert [d["user_id"] for d in recovered["users"].find()] == ["b"]
        # The id allocator restarted with the drop on both sides.
        assert ({d["_id"] for d in recovered["users"].find()}
                == {d["_id"] for d in store["users"].find()})

    def test_create_index_replays_with_uniqueness(self):
        medium, journal, store = make_store()
        store["users"].create_index("user_id", unique=True)
        store["users"].insert_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 0
        with pytest.raises(DuplicateKeyError):
            recovered["users"].insert_one({"user_id": "a"})

    def test_unknown_op_identifies_itself(self):
        store = DocumentStore()
        entry = JournalEntry(seq=3, op="explode", collection="x")
        with pytest.raises(DurabilityError, match="explode"):
            replay(store, [entry])

    def test_failed_entry_taxonomy_and_replay_idempotence(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        with pytest.raises(DuplicateKeyError):
            users.insert_one({"user_id": "a"})
        users.insert_one({"user_id": "b"})  # life goes on after the fail
        recovered, result = recover(medium)
        # The failed entry fails identically on replay and is skipped...
        assert result.failed == 1
        assert sorted(d["user_id"]
                      for d in recovered["users"].find()) == ["a", "b"]
        # ...and the taxonomy names the op, collection and error.
        [failure] = result.failures
        assert failure["op"] == "insert_one"
        assert failure["collection"] == "users"
        assert failure["seq"] == 2  # create_index=0, insert a=1, dup=2
        assert "DuplicateKeyError" in failure["error"]
        # Replaying the same journal twice is deterministic: identical
        # taxonomy, identical state.
        recovered2, result2 = recover(medium)
        assert result2.failures == result.failures
        assert recovered2.snapshot() == recovered.snapshot()


# -- checkpoint frames spliced from cached encodings -------------------

def make_durability():
    """A durability controller on a small store, bound to a stand-in
    server that contributes only its dedup window (all a checkpoint
    reads from the server)."""
    durability = ServerDurability(World(seed=1))
    dedup = RecordDeduper()
    dedup.seen("r-1")
    durability.bind(SimpleNamespace(dedup=dedup, obs=None))
    store = durability.build_store()
    users = store["users"]
    users.create_index("user_id", unique=True)
    users.insert_many([{"user_id": f"u{index}", "name": f"user {index}",
                        "tags": ["a"], "home": {"city": "Paris"}}
                       for index in range(6)])
    store["records"].insert_one({"value": 1.5, "trace": None})
    return durability, store


def reference_frame(durability) -> bytes:
    """The checkpoint encoding before documents were cached: a deep
    copy of the store snapshot and the dedup window, encoded afresh."""
    return codec.frame(codec.dumps({
        "store": copy.deepcopy(durability.store.snapshot()),
        "dedup": durability.server.dedup.snapshot()}))


def checkpoint(durability) -> bytes:
    durability.journal.checkpoint()
    return durability.medium._snapshot_blob


def _failed_update(store):
    # ``$set`` applies, then ``$inc`` on a string raises: the live
    # document changed even though the update failed.
    with pytest.raises(UpdateError):
        store["users"].update_one(
            {"user_id": "u1"}, {"$set": {"a": 1}, "$inc": {"name": 1}})
    assert store["users"].find_one({"user_id": "u1"})["a"] == 1


def _delete_then_reinsert_same_id(store):
    store["users"].delete_one({"_id": 3})
    store["users"].insert_one({"_id": 3, "user_id": "again"})


def _drop_then_reinsert_same_id(store):
    store["users"].drop()
    store["users"].insert_one({"_id": 1, "user_id": "back"})


def _drop_collection_then_recreate(store):
    store.drop_collection("users")
    store["users"].insert_one({"_id": 1, "user_id": "new"})


def _other_snapshot() -> dict:
    other = DocumentStore()
    other["users"].insert_many([{"user_id": "other", "name": "o"},
                                {"user_id": "more"}])
    return other.snapshot()


MUTATIONS = {
    "insert_one": lambda store: store["users"].insert_one(
        {"user_id": "new"}),
    "insert_many": lambda store: store["users"].insert_many(
        [{"user_id": "n1"}, {"user_id": "n2"}]),
    "insert_many_owned": lambda store: store["records"].insert_many(
        [{"value": 2.0}, {"value": 3.0}], copy_documents=False),
    "update_one": lambda store: store["users"].update_one(
        {"user_id": "u1"}, {"$set": {"home.city": "London"}}),
    "update_many": lambda store: store["users"].update_many(
        {}, {"$push": {"tags": "b"}}),
    "replace_one": lambda store: store["users"].replace_one(
        {"user_id": "u2"}, {"user_id": "u2", "name": "replaced"}),
    "upsert_inserts": lambda store: store["users"].update_one(
        {"user_id": "u9"}, {"$set": {"name": "upserted"}}, upsert=True),
    "upsert_updates": lambda store: store["users"].update_one(
        {"user_id": "u4"}, {"$set": {"name": "upserted"}}, upsert=True),
    "failed_update": _failed_update,
    "delete_one": lambda store: store["users"].delete_one(
        {"user_id": "u3"}),
    "delete_many": lambda store: store["users"].delete_many(
        {"user_id": {"$in": ["u0", "u5"]}}),
    "delete_then_reinsert_same_id": _delete_then_reinsert_same_id,
    "drop": _drop_then_reinsert_same_id,
    "drop_collection": _drop_collection_then_recreate,
    "create_index": lambda store: store["users"].create_index("name"),
    "restore_collection": lambda store: store["users"].restore(
        _other_snapshot()["collections"]["users"]),
    "restore_store": lambda store: store.restore(_other_snapshot()),
}


class TestCheckpointFrameIdentity:
    """A checkpoint splices cached document encodings into its frame;
    the frame must equal encoding a deep copy of the store afresh,
    whatever changed since the last checkpoint filled the cache."""

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS)
    def test_frame_equals_reference_after(self, mutate):
        durability, store = make_durability()
        assert checkpoint(durability) == reference_frame(durability)
        mutate(store)
        assert checkpoint(durability) == reference_frame(durability)

    def test_only_written_documents_are_encoded(self):
        durability, store = make_durability()
        checkpoint(durability)
        assert durability.checkpoint_documents_encoded == 7
        checkpoint(durability)
        assert durability.checkpoint_documents_encoded == 7
        store["users"].update_one({"user_id": "u1"}, {"$set": {"x": 1}})
        store["records"].insert_one({"value": 9.0})
        checkpoint(durability)
        counters = durability.health()["counters"]
        assert counters["checkpoint_documents_encoded"] == 9

    def test_import_state(self):
        durability, store = make_durability()
        checkpoint(durability)
        durability.import_state({
            "users": [{"_id": 99, "user_id": "migrated"}],
            "records": [{"value": 7.0}]})
        assert durability.medium._snapshot_blob == reference_frame(durability)
        store["users"].update_one({"user_id": "migrated"},
                                  {"$set": {"name": "m"}})
        assert checkpoint(durability) == reference_frame(durability)

    def test_recover_then_finish_recovery(self):
        durability, store = make_durability()
        checkpoint(durability)
        store["users"].update_one({"user_id": "u1"}, {"$set": {"x": 1}})
        store["users"].insert_one({"user_id": "tail"})
        durability.on_crash()
        recovered, _ = durability.recover()
        durability.finish_recovery()
        assert durability.medium._snapshot_blob == reference_frame(durability)
        recovered["users"].update_one({"user_id": "tail"},
                                      {"$set": {"x": 2}})
        assert checkpoint(durability) == reference_frame(durability)


#: ``(op, key)`` steps over documents ``{"k": key, "name": str, ...}``.
_STEPS = st.lists(st.tuples(
    st.sampled_from(["insert", "insert_owned", "set", "push", "replace",
                     "upsert", "failed_update", "delete", "delete_many",
                     "reinsert", "drop", "create_index", "checkpoint"]),
    st.integers(min_value=0, max_value=4)), max_size=40)


def _step(durability, op: str, key: int) -> None:
    users = durability.store["users"]
    if op == "insert":
        users.insert_one({"k": key, "name": "n", "tags": []})
    elif op == "insert_owned":
        users.insert_many([{"k": key, "name": "n", "tags": []}],
                          copy_documents=False)
    elif op == "set":
        users.update_one({"k": key}, {"$set": {"v": key}})
    elif op == "push":
        users.update_many({"k": key}, {"$push": {"tags": key}})
    elif op == "replace":
        users.replace_one({"k": key}, {"k": key, "name": "r"})
    elif op == "upsert":
        users.update_one({"k": key}, {"$inc": {"n": 1}}, upsert=True)
    elif op == "failed_update":
        try:
            users.update_one({"k": key},
                             {"$set": {"partial": key}, "$inc": {"name": 1}})
        except UpdateError:
            pass
    elif op == "delete":
        users.delete_one({"k": key})
    elif op == "delete_many":
        users.delete_many({"k": {"$gte": key}})
    elif op == "reinsert":
        try:
            users.insert_one({"_id": key + 1, "k": key, "name": "again"})
        except DocStoreError:
            pass  # that ``_id`` is taken
    elif op == "drop":
        users.drop()
    elif op == "create_index":
        users.create_index("k")
    else:
        assert checkpoint(durability) == reference_frame(durability)


class TestCheckpointFrameProperty:
    @settings(max_examples=60, deadline=None)
    @given(_STEPS)
    def test_every_checkpoint_equals_reference(self, steps):
        durability, _ = make_durability()
        checkpoint(durability)
        for op, key in steps:
            _step(durability, op, key)
        assert checkpoint(durability) == reference_frame(durability)


class TestReplayOracleSeesStaleCache:
    def test_stale_cached_encoding_fails_verify_replay(self):
        # ``fingerprint_store`` must encode the live documents, never
        # the cached bytes, or the oracle would vouch for a snapshot
        # that no longer matches the store.
        durability, store = make_durability()
        checkpoint(durability)
        users = store["users"]
        doc_id = next(iter(users._documents))
        users._documents[doc_id]["name"] = "changed behind the cache"
        checkpoint(durability)
        assert durability.verify_replay()["match"] is False
