"""Tests for the Mongo-like embedded document store."""

import pytest

from repro.errors import DuplicateKeyError, QueryError
from repro.storage.documentstore import Collection, DocumentStore, match_document


@pytest.fixture
def people():
    collection = Collection("people")
    collection.insert_many(
        [
            {"name": "ada", "age": 36, "tags": ["math", "eng"], "address": {"city": "london"}},
            {"name": "grace", "age": 85, "tags": ["navy", "eng"], "address": {"city": "nyc"}},
            {"name": "alan", "age": 41, "tags": ["math"], "address": {"city": "london"}},
        ]
    )
    return collection


class TestInsert:
    def test_auto_ids_sequential(self):
        collection = Collection("c")
        assert collection.insert_one({"a": 1}) == 1
        assert collection.insert_one({"a": 2}) == 2

    def test_explicit_id_kept(self):
        collection = Collection("c")
        assert collection.insert_one({"_id": "x", "a": 1}) == "x"

    def test_duplicate_id_rejected(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(QueryError):
            Collection("c").insert_one([1, 2])

    def test_insert_does_not_alias_caller_document(self):
        collection = Collection("c")
        doc = {"xs": [1]}
        collection.insert_one(doc)
        doc["xs"].append(2)
        assert collection.find_one({})["xs"] == [1]


class TestFind:
    def test_equality(self, people):
        assert len(people.find({"name": "ada"})) == 1

    def test_dotted_path(self, people):
        assert len(people.find({"address.city": "london"})) == 2

    def test_operators(self, people):
        assert {d["name"] for d in people.find({"age": {"$gt": 40}})} == {"grace", "alan"}
        assert {d["name"] for d in people.find({"age": {"$lte": 41}})} == {"ada", "alan"}
        assert {d["name"] for d in people.find({"name": {"$in": ["ada", "alan"]}})} == {"ada", "alan"}
        assert {d["name"] for d in people.find({"name": {"$ne": "ada"}})} == {"grace", "alan"}
        assert {d["name"] for d in people.find({"name": {"$nin": ["ada"]}})} == {"grace", "alan"}

    def test_exists(self, people):
        people.insert_one({"name": "nobody"})
        assert {d["name"] for d in people.find({"age": {"$exists": False}})} == {"nobody"}
        assert len(people.find({"age": {"$exists": True}})) == 3

    def test_regex(self, people):
        assert {d["name"] for d in people.find({"name": {"$regex": "^a"}})} == {"ada", "alan"}

    def test_array_contains(self, people):
        assert {d["name"] for d in people.find({"tags": "math"})} == {"ada", "alan"}

    def test_and_or(self, people):
        query = {"$or": [{"name": "ada"}, {"age": {"$gt": 80}}]}
        assert {d["name"] for d in people.find(query)} == {"ada", "grace"}
        query = {"$and": [{"address.city": "london"}, {"age": {"$gt": 40}}]}
        assert {d["name"] for d in people.find(query)} == {"alan"}

    def test_not_operator(self, people):
        assert {d["name"] for d in people.find({"age": {"$not": {"$gt": 40}}})} == {"ada"}

    def test_unknown_operator_raises(self, people):
        with pytest.raises(QueryError):
            people.find({"age": {"$frob": 1}})

    def test_sort_skip_limit(self, people):
        names = [d["name"] for d in people.find({}, sort=[("age", 1)])]
        assert names == ["ada", "alan", "grace"]
        names = [d["name"] for d in people.find({}, sort=[("age", -1)], skip=1, limit=1)]
        assert names == ["alan"]

    def test_find_returns_copies(self, people):
        first = people.find_one({"name": "ada"})
        first["age"] = 0
        assert people.find_one({"name": "ada"})["age"] == 36

    def test_find_one_missing_is_none(self, people):
        assert people.find_one({"name": "zzz"}) is None

    def test_count_and_distinct(self, people):
        assert people.count({"address.city": "london"}) == 2
        assert people.distinct("address.city") == ["london", "nyc"]


class TestUpdate:
    def test_set_and_inc(self, people):
        people.update_one({"name": "ada"}, {"$set": {"age": 37}})
        assert people.find_one({"name": "ada"})["age"] == 37
        people.update_one({"name": "ada"}, {"$inc": {"age": 3}})
        assert people.find_one({"name": "ada"})["age"] == 40

    def test_inc_creates_missing_field(self, people):
        people.update_one({"name": "ada"}, {"$inc": {"visits": 2}})
        assert people.find_one({"name": "ada"})["visits"] == 2

    def test_set_dotted_path_creates_intermediates(self, people):
        people.update_one({"name": "ada"}, {"$set": {"meta.source.kind": "import"}})
        assert people.find_one({"name": "ada"})["meta"]["source"]["kind"] == "import"

    def test_unset(self, people):
        people.update_one({"name": "ada"}, {"$unset": {"age": ""}})
        assert "age" not in people.find_one({"name": "ada"})

    def test_push_and_pull(self, people):
        people.update_one({"name": "ada"}, {"$push": {"tags": "pioneer"}})
        assert people.find_one({"name": "ada"})["tags"] == ["math", "eng", "pioneer"]
        people.update_one({"name": "ada"}, {"$pull": {"tags": "eng"}})
        assert people.find_one({"name": "ada"})["tags"] == ["math", "pioneer"]

    def test_push_to_non_array_raises(self, people):
        with pytest.raises(QueryError):
            people.update_one({"name": "ada"}, {"$push": {"age": 1}})

    def test_update_many_returns_count(self, people):
        assert people.update_many({"address.city": "london"}, {"$set": {"uk": True}}) == 2

    def test_whole_document_replacement_keeps_id(self, people):
        original_id = people.find_one({"name": "ada"})["_id"]
        people.update_one({"name": "ada"}, {"name": "ada lovelace"})
        replaced = people.find_one({"name": "ada lovelace"})
        assert replaced["_id"] == original_id
        assert "age" not in replaced

    def test_replace_one(self, people):
        assert people.replace_one({"name": "alan"}, {"name": "turing"}) == 1
        assert people.find_one({"name": "turing"}) is not None

    def test_unknown_update_operator(self, people):
        with pytest.raises(QueryError):
            people.update_one({"name": "ada"}, {"$rename": {"a": "b"}})


class TestDelete:
    def test_delete_many(self, people):
        assert people.delete_many({"address.city": "london"}) == 2
        assert people.count() == 1


class TestIndexes:
    def test_unique_index_enforced(self):
        collection = Collection("c")
        collection.create_index("email", unique=True)
        collection.insert_one({"email": "a@x"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"email": "a@x"})

    def test_unique_index_on_existing_data(self):
        collection = Collection("c")
        collection.insert_one({"k": 1})
        collection.insert_one({"k": 1})
        with pytest.raises(DuplicateKeyError):
            collection.create_index("k", unique=True)

    def test_index_lookup_matches_scan(self, people):
        people.create_index("name")
        assert people.find({"name": "grace"})[0]["age"] == 85

    def test_index_updates_after_update(self, people):
        people.create_index("name")
        people.update_one({"name": "ada"}, {"$set": {"name": "ada2"}})
        assert people.find({"name": "ada"}) == []
        assert len(people.find({"name": "ada2"})) == 1

    def test_array_valued_field_still_found_through_index(self):
        # An array matches any element it holds; the index keeps such a
        # document in its residue instead of silently dropping it.
        collection = Collection("c")
        collection.insert_one({"test_id": "t", "worker_id": "w"})
        collection.insert_one({"test_id": ["t"], "worker_id": "w"})
        assert collection.count({"test_id": "t"}) == 2
        collection.create_index("test_id")
        collection.create_index(("test_id", "worker_id"))
        assert collection.count({"test_id": "t"}) == 2
        assert collection.count({"test_id": "t", "worker_id": "w"}) == 2
        assert collection.find_one({"test_id": "t", "worker_id": "w"})["_id"] == 1

    def test_null_condition_on_indexed_field_matches_missing(self):
        collection = Collection("c")
        collection.insert_many([{"k": 1}, {"k": None}, {}])
        collection.create_index("k")
        assert collection.count({"k": None}) == 2
        assert len(collection.find({"k": None})) == 2

    def test_narrowest_index_serves_compound_query(self):
        collection = Collection("c")
        collection.create_index("test_id")
        collection.create_index(("test_id", "worker_id"))
        collection.insert_many(
            [{"test_id": "t", "worker_id": f"w{i}"} for i in range(50)]
        )
        before = collection.docs_examined
        assert collection.find_one({"test_id": "t", "worker_id": "w7"}) is not None
        assert collection.find_one({"test_id": "t", "worker_id": "nope"}) is None
        assert collection.docs_examined - before == 1

    def test_index_after_delete(self, people):
        people.create_index("name")
        people.delete_many({"name": "ada"})
        assert people.find({"name": "ada"}) == []


class TestMatchDocument:
    def test_missing_field_matches_none(self):
        assert match_document({}, {"x": None})
        assert not match_document({}, {"x": 1})

    def test_nor(self):
        assert match_document({"a": 3}, {"$nor": [{"a": 1}, {"a": 2}]})

    def test_unknown_top_level_operator(self):
        with pytest.raises(QueryError):
            match_document({}, {"$xor": []})


class TestDocumentStore:
    def test_collections_are_singletons(self):
        store = DocumentStore()
        assert store.collection("a") is store.collection("a")

    def test_drop(self):
        store = DocumentStore()
        store.collection("a").insert_one({"x": 1})
        store.drop_collection("a")
        assert store.collection("a").count() == 0

    def test_collection_names_sorted(self):
        store = DocumentStore()
        store.collection("b")
        store.collection("a")
        assert store.collection_names() == ["a", "b"]
