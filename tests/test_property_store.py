"""Property-based tests for the document store and file store."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import RESPONSE_IDENTITY, RESPONSES_COLLECTION
from repro.storage.documentstore import Collection, CompoundIndex
from repro.storage.filestore import FileStore
from repro.store import ShardedDocumentStore

field_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
json_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.text(alphabet=string.ascii_letters, max_size=8),
    st.booleans(),
    st.none(),
)
documents = st.dictionaries(field_names, json_scalars, min_size=0, max_size=5)


class TestCollectionProperties:
    @given(st.lists(documents, max_size=20))
    @settings(max_examples=100)
    def test_insert_then_find_all_returns_everything(self, docs):
        collection = Collection("c")
        collection.insert_many(docs)
        assert collection.count() == len(docs)
        found = collection.find()
        stripped = [{k: v for k, v in d.items() if k != "_id"} for d in found]
        assert sorted(map(repr, stripped)) == sorted(map(repr, docs))

    @given(st.lists(documents, min_size=1, max_size=20), field_names)
    @settings(max_examples=100)
    def test_equality_query_partitions_collection(self, docs, field):
        collection = Collection("c")
        collection.insert_many(docs)
        values = {repr(d.get(field)) for d in docs}
        total_matched = 0
        for doc in docs:
            if field in doc:
                total_matched = total_matched  # placeholder for readability
        matched = collection.find({field: {"$exists": True}})
        unmatched = collection.find({field: {"$exists": False}})
        assert len(matched) + len(unmatched) == len(docs)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_range_query_matches_python_filter(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        threshold = values[0]
        found = collection.find({"v": {"$gt": threshold}})
        assert len(found) == sum(1 for v in values if v > threshold)

    @given(st.lists(documents, max_size=15))
    @settings(max_examples=50)
    def test_delete_inverse_of_insert(self, docs):
        collection = Collection("c")
        ids = collection.insert_many(docs)
        for doc_id in ids:
            collection.delete_many({"_id": doc_id})
        assert collection.count() == 0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_sort_is_sorted(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        found = [d["v"] for d in collection.find({}, sort=[("v", 1)])]
        assert found == sorted(values)


INDEX_FIELDS = ("a", "b", "c")
#: A tiny value domain, so documents and queries collide often.
equality_operands = st.one_of(st.integers(0, 2), st.just("x"), st.booleans())
index_scalars = st.one_of(equality_operands, st.none())
#: A field is absent (key not drawn), scalar, ``None``, an array or an
#: embedded document — every shape an index has to be exact about.
field_values = st.one_of(
    index_scalars,
    st.lists(index_scalars, max_size=3),
    st.dictionaries(st.just("k"), index_scalars, max_size=1),
)
index_docs = st.dictionaries(st.sampled_from(INDEX_FIELDS), field_values, max_size=3)
#: Scalar equality, the only clause an index serves, is drawn most often.
conditions = st.one_of(
    equality_operands,
    equality_operands,
    equality_operands,
    index_scalars,
    st.lists(index_scalars, max_size=2),
    st.dictionaries(st.just("k"), index_scalars, min_size=1, max_size=1),
    st.lists(index_scalars, max_size=3).map(lambda v: {"$in": v}),
    index_scalars.map(lambda v: {"$ne": v}),
    st.booleans().map(lambda v: {"$exists": v}),
)
index_queries = st.dictionaries(st.sampled_from(INDEX_FIELDS), conditions, max_size=3)
mutations = st.one_of(
    st.tuples(st.just("insert"), index_docs),
    st.tuples(st.just("delete"), index_queries),
    st.tuples(
        st.just("update"),
        index_queries,
        st.dictionaries(st.sampled_from(INDEX_FIELDS), field_values, min_size=1),
    ),
)
INDEX_LAYOUTS = (
    (),
    ("a", "b", "c"),
    (("a", "b"), ("a", "c"), ("a", "b", "c"), ("c", "b")),
)


def answers(collection, query):
    return (
        collection.find(query),
        collection.find_one(query),
        collection.count(query),
        [collection.distinct(field, query) for field in INDEX_FIELDS],
    )


class TestIndexExactness:
    @given(
        st.lists(index_docs, max_size=15),
        st.lists(mutations, max_size=6),
        st.lists(index_queries, min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_indexes_never_change_answers(self, docs, ops, queries):
        """No index, single-field indexes and compound indexes give
        identical answers — scalar, missing, null and array fields alike,
        through inserts, deletes and updates."""
        collections = []
        for layout in INDEX_LAYOUTS:
            collection = Collection("c")
            for fields in layout:
                collection.create_index(fields)
            collection.insert_many(docs)
            collections.append(collection)
        for op in ops:
            for collection in collections:
                if op[0] == "insert":
                    collection.insert_one(op[1])
                elif op[0] == "delete":
                    collection.delete_many(op[1])
                else:
                    collection.update_many(op[1], {"$set": op[2]})
        for query in queries:
            expected = answers(collections[0], query)
            for collection in collections[1:]:
                assert answers(collection, query) == expected
        # Maintained through every write, each index equals one built from
        # scratch over the final documents — no stale ids, no lost ones.
        for collection in collections[1:]:
            for fields, index in collection._indexes.items():
                rebuilt = CompoundIndex(fields)
                for document in collection._documents.values():
                    rebuilt.add(document)
                assert index.entries == rebuilt.entries
                assert index.residue == rebuilt.residue


identity_rows = st.fixed_dictionaries(
    {
        "test_id": st.sampled_from(["t1", "t2"]),
        "worker_id": st.sampled_from(["w1", "w2", "w3"]),
    },
    optional={"idempotency_key": st.one_of(
        st.sampled_from(["k1", "k2"]), st.none(), st.lists(st.just("k1"), max_size=1)
    )},
)
identity_queries = st.one_of(
    st.fixed_dictionaries(
        {"test_id": st.sampled_from(["t1", "t2"]),
         "worker_id": st.sampled_from(["w1", "w2", "w3", "w4"])}
    ),
    st.fixed_dictionaries(
        {"test_id": st.sampled_from(["t1", "t2"]),
         "idempotency_key": st.sampled_from(["k1", "k2", "k3"])}
    ),
)


class TestSpillIdentityExactness:
    @given(
        st.lists(identity_rows, max_size=15),
        st.lists(identity_queries, min_size=1, max_size=6),
    )
    @settings(max_examples=75, deadline=None)
    def test_spilled_identity_lookups_match_memory_collection(self, rows, queries):
        """The sharded store's spill index (the same compound index class)
        answers identity lookups exactly as an indexed in-memory collection —
        falling back to a log scan for array-valued identity fields."""
        reference = Collection(RESPONSES_COLLECTION)
        for fields in RESPONSE_IDENTITY:
            reference.create_index(fields)
        store = ShardedDocumentStore(shards=3, spill=(RESPONSES_COLLECTION,))
        spilled = store.collection(RESPONSES_COLLECTION)
        for row in rows:
            reference.insert_one(row)
            spilled.insert_one(row)
        for query in queries:
            assert (spilled.find_one(query) is None) == (
                reference.find_one(query) is None
            )
            assert spilled.count(query) == reference.count(query)
            test_only = {"test_id": query["test_id"]}
            for field in ("worker_id", "idempotency_key"):
                assert spilled.distinct(field, test_only) == reference.distinct(
                    field, test_only
                )


safe_segment = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
safe_paths = st.lists(safe_segment, min_size=1, max_size=4).map("/".join)


class TestFileStoreProperties:
    @given(st.dictionaries(safe_paths, st.text(max_size=50), max_size=15))
    @settings(max_examples=100)
    def test_write_read_round_trip(self, files):
        store = FileStore()
        for path, content in files.items():
            store.write(path, content)
        for path, content in files.items():
            assert store.read(path) == content

    @given(st.dictionaries(safe_paths, st.text(max_size=20), min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_list_files_complete_and_sorted(self, files):
        store = FileStore()
        for path, content in files.items():
            store.write(path, content)
        listed = store.list_files()
        assert listed == sorted(listed)
        assert set(listed) == set(files)

    @given(
        st.dictionaries(safe_paths, st.text(max_size=20), min_size=1, max_size=10),
        safe_segment,
    )
    @settings(max_examples=50)
    def test_delete_tree_removes_exactly_prefix(self, files, prefix):
        store = FileStore()
        for path, content in files.items():
            store.write(path, content)
        in_prefix = {
            p for p in files if p == prefix or p.startswith(prefix + "/")
        }
        removed = store.delete_tree(prefix) if in_prefix else 0
        assert removed == len(in_prefix)
        assert set(store.list_files()) == set(files) - in_prefix
