"""Tests for MongoDB-style projections and lifecycle edge cases."""

import pytest

from repro.docstore import DocumentStore, QueryError


@pytest.fixture
def people():
    collection = DocumentStore()["people"]
    collection.insert_many([
        {"name": "alice", "age": 30, "home": {"city": "Paris", "zip": "75001"},
         "secret": "s1"},
        {"name": "bob", "age": 25, "home": {"city": "Lyon", "zip": "69001"},
         "secret": "s2"},
    ])
    return collection


class TestProjection:
    def test_include_mode_keeps_named_fields_and_id(self, people):
        document = people.find_one({"name": "alice"}, projection={"name": 1})
        assert set(document) == {"name", "_id"}

    def test_include_mode_with_dot_path(self, people):
        document = people.find_one({"name": "alice"},
                                   projection={"home.city": 1})
        assert document["home"] == {"city": "Paris"}
        assert "age" not in document

    def test_exclude_mode_drops_named_fields(self, people):
        document = people.find_one({"name": "alice"},
                                   projection={"secret": 0})
        assert "secret" not in document
        assert document["age"] == 30

    def test_id_can_be_suppressed(self, people):
        document = people.find_one({"name": "alice"},
                                   projection={"name": 1, "_id": 0})
        assert set(document) == {"name"}

    def test_id_only_projection_returns_just_the_id(self, people):
        rows = people.find({}, projection={"_id": 1}).to_list()
        assert rows == [{"_id": 1}, {"_id": 2}]

    def test_id_exclusion_alone_keeps_every_other_field(self, people):
        document = people.find_one({"name": "alice"}, projection={"_id": 0})
        assert "_id" not in document
        assert set(document) == {"name", "age", "home", "secret"}

    def test_mixed_modes_rejected(self, people):
        with pytest.raises(QueryError):
            people.find({}, projection={"name": 1, "secret": 0}).to_list()

    def test_projection_composes_with_sort_and_limit(self, people):
        rows = people.find({}, projection={"name": 1}).sort(
            "name", -1).limit(1).to_list()
        assert rows == [{"name": "bob", "_id": rows[0]["_id"]}]

    def test_missing_projected_field_omitted(self, people):
        people.insert_one({"name": "carol"})
        document = people.find_one({"name": "carol"}, projection={"age": 1})
        assert "age" not in document

    def test_projection_does_not_mutate_store(self, people):
        people.find_one({"name": "alice"}, projection={"secret": 0})
        assert people.find_one({"name": "alice"})["secret"] == "s1"
