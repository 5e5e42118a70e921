"""Property-based tests (hypothesis) for the document store."""

import string

from hypothesis import given, settings, strategies as st

from repro.docstore import DocumentStore, matches
from repro.docstore.paths import MISSING, delete_path, get_path, set_path

field_names = st.text(string.ascii_lowercase, min_size=1, max_size=6)
scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
flat_documents = st.dictionaries(field_names, scalars, max_size=6)


class TestPathProperties:
    @given(flat_documents, field_names, scalars)
    def test_set_then_get_round_trips(self, document, path, value):
        set_path(document, path, value)
        assert get_path(document, path) == value

    @given(field_names, field_names, scalars)
    def test_nested_set_then_get(self, outer, inner, value):
        document = {}
        set_path(document, f"{outer}.{inner}", value)
        assert get_path(document, f"{outer}.{inner}") == value

    @given(flat_documents, field_names)
    def test_delete_makes_path_missing(self, document, path):
        set_path(document, path, 1)
        assert delete_path(document, path)
        assert get_path(document, path) is MISSING

    @given(flat_documents, field_names)
    def test_delete_missing_returns_false(self, document, path):
        document.pop(path, None)
        assert not delete_path(document, path)


class TestQueryProperties:
    @given(flat_documents)
    def test_every_document_matches_empty_query(self, document):
        assert matches(document, {})

    @given(flat_documents)
    def test_document_matches_itself_as_query(self, document):
        assert matches(document, {key: value for key, value in document.items()
                                  if not isinstance(value, list)})

    @given(flat_documents, flat_documents)
    def test_and_of_or_identity(self, document, query):
        """doc matches q  ⟺  doc matches {$and: [q]} ⟺ {$or: [q]}."""
        direct = matches(document, query)
        assert matches(document, {"$and": [query]}) == direct
        assert matches(document, {"$or": [query]}) == direct
        assert matches(document, {"$nor": [query]}) == (not direct)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100))
    def test_comparison_trichotomy(self, field_value, operand):
        document = {"x": field_value}
        gt = matches(document, {"x": {"$gt": operand}})
        lt = matches(document, {"x": {"$lt": operand}})
        eq = matches(document, {"x": operand})
        assert gt + lt + eq == 1


class TestCollectionProperties:
    @settings(max_examples=50)
    @given(st.lists(flat_documents, max_size=20))
    def test_insert_then_count(self, documents):
        collection = DocumentStore()["c"]
        collection.insert_many(documents)
        assert collection.count() == len(documents)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=30))
    def test_find_partition(self, values):
        """find(q) ∪ find(not q) is the whole collection, disjointly."""
        collection = DocumentStore()["c"]
        collection.insert_many([{"v": value} for value in values])
        low = collection.find({"v": {"$lt": 25}}).count()
        high = collection.find({"v": {"$gte": 25}}).count()
        assert low + high == len(values)

    @settings(max_examples=50)
    @given(st.lists(st.integers(), min_size=1, max_size=30))
    def test_sort_is_ordered(self, values):
        collection = DocumentStore()["c"]
        collection.insert_many([{"v": value} for value in values])
        sorted_values = [doc["v"] for doc in collection.find().sort("v")]
        assert sorted_values == sorted(values)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=30))
    def test_indexed_and_scan_queries_agree(self, values):
        plain = DocumentStore()["plain"]
        indexed = DocumentStore()["indexed"]
        documents = [{"v": value} for value in values]
        plain.insert_many(documents)
        indexed.insert_many(documents)
        indexed.create_index("v")
        for needle in range(10):
            assert (plain.count({"v": needle})
                    == indexed.count({"v": needle}))

    # Every supported query shape, generated over small value domains
    # so collisions (and therefore matches) are common.
    small_values = st.one_of(st.integers(min_value=0, max_value=3),
                             st.sampled_from(["a", "b"]), st.none())
    query_shapes = st.one_of(
        st.builds(lambda v: {"v": v}, small_values),
        st.builds(lambda v: {"v": {"$eq": v}}, small_values),
        st.builds(lambda v: {"v": {"$ne": v}}, small_values),
        st.builds(lambda v: {"v": {"$gt": v}},
                  st.integers(min_value=0, max_value=3)),
        st.builds(lambda lo, hi: {"v": {"$gte": lo, "$lte": hi}},
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=3)),
        st.builds(lambda items: {"v": {"$in": items}},
                  st.lists(small_values, max_size=3)),
        st.builds(lambda items: {"v": {"$nin": items}},
                  st.lists(small_values, max_size=3)),
        st.builds(lambda flag: {"v": {"$exists": flag}}, st.booleans()),
        st.builds(lambda v, w: {"v": v, "w": w}, small_values, small_values),
        st.builds(lambda v, w: {"$and": [{"v": v}, {"w": w}]},
                  small_values, small_values),
        st.builds(lambda v, w: {"$or": [{"v": v}, {"w": w}]},
                  small_values, small_values),
        st.builds(lambda v: {"$nor": [{"v": v}]}, small_values),
        st.builds(lambda v: {"v": {"$not": {"$eq": v}}}, small_values),
        st.builds(lambda n: {"v": {"$size": n}},
                  st.integers(min_value=0, max_value=3)),
        st.builds(lambda v: {"v": {"$elemMatch": {"$eq": v}}}, small_values),
    )
    small_documents = st.fixed_dictionaries(
        {},
        optional={
            "v": st.one_of(small_values,
                           st.lists(st.integers(min_value=0, max_value=3),
                                    max_size=3)),
            "w": small_values,
        },
    )

    # The indexed-vs-scan property also covers a dotted path (``n.x``),
    # dict-valued fields, a unique index (``k``) and writes after the
    # inserts, whose removals read back the keys ``add`` filed.
    indexed_documents = st.fixed_dictionaries(
        {},
        optional={
            "v": st.one_of(small_values,
                           st.lists(st.integers(min_value=0, max_value=3),
                                    max_size=3),
                           st.fixed_dictionaries({"x": small_values})),
            "w": small_values,
            "n": st.fixed_dictionaries({}, optional={"x": small_values}),
        },
    )
    indexed_queries = st.one_of(
        query_shapes,
        st.builds(lambda v: {"n.x": v}, small_values),
        st.builds(lambda items: {"n.x": {"$in": items}},
                  st.lists(small_values, max_size=3)),
        st.builds(lambda v: {"v": {"x": v}}, small_values),
    )
    writes = st.lists(st.one_of(
        st.builds(lambda query, v: ("update_one", query, {"$set": {"v": v}}),
                  indexed_queries, small_values),
        st.builds(lambda query, v: ("update_one", query,
                                    {"$set": {"n.x": v}}),
                  indexed_queries, small_values),
        st.builds(lambda query: ("delete_one", query), indexed_queries),
    ), max_size=4)

    @settings(max_examples=120)
    @given(st.lists(indexed_documents, max_size=15), writes, indexed_queries)
    def test_indexed_unindexed_same_results_and_order(self, documents,
                                                      writes, query):
        """The planner must be invisible: any query over any data set
        returns identical documents in identical order with and without
        indexes on the queried paths."""
        documents = [dict(document, k=position)
                     for position, document in enumerate(documents)]
        plain = DocumentStore()["plain"]
        indexed = DocumentStore()["indexed"]
        plain.insert_many(documents)
        indexed.create_index("v")
        indexed.create_index("w")
        indexed.create_index("n.x")
        indexed.create_index("k", unique=True)
        indexed.insert_many(documents)
        for operation, *arguments in writes:
            assert (getattr(plain, operation)(*arguments)
                    == getattr(indexed, operation)(*arguments))
        # A deleted document's unique key is free again only if its
        # removal found every key its insert filed.
        for position in range(len(documents)):
            if not plain.count({"k": position}):
                plain.insert_one({"k": position})
                indexed.insert_one({"k": position})
        # Auto-assigned ids make sorted(ids) == insertion order, so the
        # full result lists — order included — must be equal.
        assert plain.find(query).to_list() == indexed.find(query).to_list()
        assert plain.count(query) == indexed.count(query)
        for position in range(len(documents)):
            assert (plain.find({"k": position}).to_list()
                    == indexed.find({"k": position}).to_list())

    @settings(max_examples=60)
    @given(st.lists(small_documents, max_size=12), query_shapes)
    def test_compiled_matches_interpreter_per_document(self, documents, query):
        from repro.docstore.compiler import compile_query
        from repro.docstore.query import matches
        compiled = compile_query(query)
        for document in documents:
            assert compiled(document) == matches(document, query)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=20),
           st.integers(min_value=0, max_value=9))
    def test_delete_many_removes_exactly_matches(self, values, needle):
        collection = DocumentStore()["c"]
        collection.insert_many([{"v": value} for value in values])
        deleted = collection.delete_many({"v": needle})
        assert deleted == values.count(needle)
        assert collection.count() == len(values) - deleted
