"""Tests for the hash-sharded, WAL-backed document store."""

import pytest

from repro.core.aggregator import RESPONSE_IDENTITY, RESPONSES_COLLECTION
from repro.core.server import CoreServer
from repro.errors import DuplicateKeyError, StorageError, ValidationError
from repro.storage.documentstore import CompoundIndex, DocumentStore
from repro.storage.filestore import FileStore
from repro.store import ShardedDocumentStore
from repro.store.sharded import _Shard, shard_for
from repro.util.jsonutil import dumps_canonical
from repro.store.wal import decode_wal_line, encode_wal_record


def make_store(**kwargs):
    kwargs.setdefault("shards", 4)
    return ShardedDocumentStore(**kwargs)


def response_row(worker_id, test_id="t1", **extra):
    row = {"test_id": test_id, "worker_id": worker_id, "answers": []}
    row.update(extra)
    return row


class TestSharding:
    def test_shard_for_is_stable(self):
        assert shard_for("w1", 4) == shard_for("w1", 4)
        assert 0 <= shard_for("anything", 7) < 7

    def test_documents_partition_by_shard_key(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(40):
            responses.insert_one(response_row(f"w{i}"))
        per_shard = store.digest()["documents"]
        assert sum(per_shard) == 40
        assert sum(1 for count in per_shard if count) > 1  # actually spread

    def test_unsharded_collections_ride_shard_zero(self):
        store = make_store()
        store.collection("tests").insert_one({"test_id": "t1"})
        assert store.digest()["documents"] == [1, 0, 0, 0]

    def test_global_id_order_is_insertion_order(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(25):
            responses.insert_one(response_row(f"w{i}", seq=i))
        rows = responses.find({})
        assert [r["seq"] for r in rows] == list(range(25))

    def test_scalar_shard_key_query_hits_one_shard(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(10):
            responses.insert_one(response_row(f"w{i}"))
        assert responses.find_one({"worker_id": "w3"})["worker_id"] == "w3"
        assert responses.count({"worker_id": "w3"}) == 1


class TestCrud:
    def test_find_sort_skip_limit(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"n": n} for n in (3, 1, 2)])
        assert [d["n"] for d in c.find({}, sort=[("n", 1)])] == [1, 2, 3]
        assert [d["n"] for d in c.find({}, sort=[("n", -1)], limit=2)] == [3, 2]
        assert [d["n"] for d in c.find({}, sort=[("n", 1)], skip=1)] == [2, 3]

    def test_update_and_delete(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"n": n} for n in range(5)])
        assert c.update_many({"n": {"$lt": 2}}, {"$set": {"low": True}}) == 2
        assert c.count({"low": True}) == 2
        assert c.delete_many({"low": True}) == 2
        assert len(c) == 3

    def test_distinct_dedupes_in_first_seen_order(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"v": v} for v in ("b", "a", "b", "c", "a")])
        assert c.distinct("v") == ["b", "a", "c"]

    def test_drop_collection(self):
        store = make_store()
        store.collection("tmp").insert_one({"a": 1})
        store.drop_collection("tmp")
        assert "tmp" not in store.collection_names()

    def test_dump_load_round_trip(self):
        store = make_store()
        store.collection("tests").insert_one({"test_id": "t1"})
        store.collection("tests").create_index("test_id", unique=True)
        clone = ShardedDocumentStore.load(store.dump(), shards=4)
        assert clone.collection("tests").find_one({"test_id": "t1"}) is not None
        assert clone.dump() == store.dump()

    def test_load_restores_id_counter_with_string_ids(self):
        # The shared highest_numeric_id helper: all-digit strings count,
        # other strings don't, and fresh inserts never collide.
        snapshot = {
            "c": {
                "documents": [{"_id": "7", "a": 1}, {"_id": "x", "a": 2}],
                "indexes": [],
            }
        }
        store = ShardedDocumentStore.load(snapshot, shards=2)
        new_id = store.collection("c").insert_one({"a": 3})
        assert new_id == 8


class TestSpill:
    def test_spilled_rows_not_in_memory_but_streamable(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(20):
            responses.insert_one(response_row(f"w{i}", seq=i))
        for shard in store._shards:
            assert RESPONSES_COLLECTION not in shard.store._collections
        rows = list(store.stream_collection(RESPONSES_COLLECTION))
        assert [r["seq"] for r in rows] == list(range(20))

    def test_identity_point_lookups_served_from_index(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1", idempotency_key="k1"))
        hit = responses.find_one({"test_id": "t1", "worker_id": "w1"})
        assert hit is not None and "_id" in hit
        assert responses.find_one({"test_id": "t1", "worker_id": "nope"}) is None
        assert (
            responses.find_one({"test_id": "t1", "idempotency_key": "k1"})
            is not None
        )

    def test_count_and_distinct_served_from_index(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(12):
            responses.insert_one(response_row(f"w{i}"))
        assert responses.count({"test_id": "t1"}) == 12
        assert responses.count({}) == 12
        assert sorted(responses.distinct("worker_id", {"test_id": "t1"})) == sorted(
            f"w{i}" for i in range(12)
        )

    def test_identity_lookups_use_the_shared_compound_index(self, monkeypatch):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(8):
            responses.insert_one(response_row(f"w{i}", idempotency_key=f"k{i}"))
        for shard in store._shards:
            if RESPONSES_COLLECTION in shard.spill:
                identity = shard.spill[RESPONSES_COLLECTION].identity
                assert all(isinstance(i, CompoundIndex) for i in identity)
                assert tuple(i.fields for i in identity) == RESPONSE_IDENTITY

        def no_log_scan(self, name):
            raise AssertionError("identity query fell back to a log scan")

        monkeypatch.setattr(_Shard, "scan_spilled", no_log_scan)
        assert responses.find_one({"test_id": "t1", "worker_id": "w3"}) is not None
        assert responses.find_one({"test_id": "t1", "idempotency_key": "k9"}) is None
        assert responses.count({"test_id": "t1", "idempotency_key": "k2"}) == 1
        assert responses.distinct("worker_id", {"test_id": "t1"}) == [
            f"w{i}" for i in range(8)
        ]

    def test_array_identity_values_are_found_by_log_scan(self):
        # An array matches any element it holds, so a row whose identity
        # field is an array lands in the index's residue, and lookups on
        # that shard fall back to scanning the log instead of missing it.
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1", idempotency_key=["k1", "k2"]))
        responses.insert_one(response_row("w2", idempotency_key="k2"))
        hit = responses.find_one({"test_id": "t1", "idempotency_key": "k1"})
        assert hit is not None and hit["worker_id"] == "w1"
        assert responses.count({"test_id": "t1", "idempotency_key": "k2"}) == 2
        assert responses.distinct("idempotency_key", {"test_id": "t1"}) == [
            ["k1", "k2"],
            "k2",
        ]

    def test_unservable_query_falls_back_to_log_scan(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(6):
            responses.insert_one(response_row(f"w{i}", score=i))
        assert responses.count({"score": {"$gte": 3}}) == 3
        found = responses.find_one({"worker_id": "w2", "score": 2})
        assert found is not None and found["score"] == 2

    def test_spilled_collections_are_append_only(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1"))
        with pytest.raises(StorageError):
            responses.update_many({}, {"$set": {"x": 1}})
        with pytest.raises(StorageError):
            responses.delete_many({})
        with pytest.raises(StorageError):
            store.drop_collection(RESPONSES_COLLECTION)


class TestDurability:
    def test_disk_recovery_replays_wal(self, tmp_path):
        store = make_store(directory=tmp_path, spill=(RESPONSES_COLLECTION,))
        store.collection("tests").insert_one({"test_id": "t1"})
        for i in range(9):
            store.collection(RESPONSES_COLLECTION).insert_one(
                response_row(f"w{i}", seq=i)
            )
        store.close()
        revived = make_store(directory=tmp_path, spill=(RESPONSES_COLLECTION,))
        assert revived.collection("tests").find_one({"test_id": "t1"}) is not None
        rows = list(revived.stream_collection(RESPONSES_COLLECTION))
        assert [r["seq"] for r in rows] == list(range(9))
        # Fresh inserts continue past the recovered id high-water mark.
        old_ids = {r["_id"] for r in rows}
        new_id = revived.collection(RESPONSES_COLLECTION).insert_one(
            response_row("w-new")
        )
        assert new_id not in old_ids

    def test_recover_on_live_store_is_idempotent(self, tmp_path):
        store = make_store(directory=tmp_path)
        store.collection("items").insert_many([{"n": n} for n in range(5)])
        before = store.dump()
        store.recover()
        assert store.dump() == before

    def test_snapshot_then_compaction_trims_wal(self, tmp_path):
        store = make_store(
            shards=1, directory=tmp_path, snapshot_every=10
        )
        c = store.collection("items")
        for n in range(35):
            c.insert_one({"n": n})
        stats = store.stats()
        assert stats["compactions"] >= 3
        # Compacted: the on-disk WAL holds fewer records than were appended.
        shard = store._shards[0]
        assert sum(1 for _ in shard.wal.replay()) < 35
        store.close()
        revived = make_store(shards=1, directory=tmp_path, snapshot_every=10)
        assert revived.collection("items").count({}) == 35

    def test_compound_index_survives_wal_replay_and_snapshot(self, tmp_path):
        kwargs = dict(directory=tmp_path, spill=(RESPONSES_COLLECTION,))
        store = make_store(**kwargs)
        store.collection("items").create_index(("kind", "n"), unique=True)
        store.collection(RESPONSES_COLLECTION).create_index(RESPONSE_IDENTITY[0])
        store.collection("items").insert_one({"kind": "x", "n": 1})
        store.collection(RESPONSES_COLLECTION).insert_one(response_row("w1"))
        snapshot = store.dump()
        assert snapshot["items"]["indexes"] == [
            {"field": ["kind", "n"], "unique": True}
        ]
        assert snapshot[RESPONSES_COLLECTION]["indexes"] == [
            {"field": ["test_id", "worker_id"], "unique": False}
        ]
        store.close()
        replayed = make_store(**kwargs)  # from the WAL's index records
        assert replayed.dump() == snapshot
        replayed.snapshot_all()
        replayed.close()
        recovered = make_store(**kwargs)  # from the shard snapshots
        assert recovered.dump() == snapshot
        with pytest.raises(DuplicateKeyError):
            recovered.collection("items").insert_one({"kind": "x", "n": 1})

    def test_pre_compound_shard_snapshot_still_loads(self):
        store = make_store(shards=1)
        shard = store._shards[0]
        shard.backend.write_snapshot(
            dumps_canonical(
                {
                    "applied_seq": 0,
                    "next_seq": 1,
                    "next_id": 1,
                    "collections": {
                        "tests": {
                            "documents": [{"_id": 1, "test_id": "t1"}],
                            "indexes": [{"field": "test_id", "unique": True}],
                        }
                    },
                    "index_defs": {RESPONSES_COLLECTION: {"test_id": False}},
                }
            )
        )
        store.recover()
        assert shard.index_defs[RESPONSES_COLLECTION] == {("test_id",): False}
        with pytest.raises(DuplicateKeyError):
            store.collection("tests").insert_one({"test_id": "t1"})

    def test_spilled_inserts_do_not_trigger_compaction(self):
        store = make_store(
            shards=1, spill=(RESPONSES_COLLECTION,), snapshot_every=10
        )
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(100):
            responses.insert_one(response_row(f"w{i}"))
        assert store.stats()["compactions"] == 0

    def test_torn_wal_tail_is_discarded(self, tmp_path):
        store = make_store(shards=1, directory=tmp_path)
        c = store.collection("items")
        for n in range(4):
            c.insert_one({"n": n})
        store.close()
        wal_path = tmp_path / "shard-00" / "wal.log"
        text = wal_path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        wal_path.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        revived = make_store(shards=1, directory=tmp_path)
        assert revived.collection("items").count({}) == 3
        assert revived.stats()["shards"][0]["wal_tail_discarded"] == 1
        # The store keeps accepting writes after a torn-tail recovery.
        revived.collection("items").insert_one({"n": 99})
        assert revived.collection("items").count({}) == 4

    def test_wal_record_round_trip_and_corruption(self):
        record = {"op": "insert", "c": "x", "doc": {"_id": 1, "a": "b"}, "seq": 3}
        line = encode_wal_record(record)
        assert decode_wal_line(line) == record
        assert decode_wal_line(line[:-5]) is None
        corrupted = line.replace('"a"', '"z"')
        assert decode_wal_line(corrupted) is None


class TestObservabilityAndValidation:
    def test_metrics_counted_when_registry_injected(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = make_store(spill=(RESPONSES_COLLECTION,), metrics=registry)
        store.collection(RESPONSES_COLLECTION).insert_one(response_row("w1"))
        store.collection("tests").insert_one({"test_id": "t1"})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["store.inserts"] == 2
        assert snapshot["counters"]["store.spilled_docs"] == 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(StorageError):
            ShardedDocumentStore(shards=0)
        with pytest.raises(StorageError):
            ShardedDocumentStore(shards=1, snapshot_every=0)


class TestServerStoreKwargShim:
    def test_both_database_and_store_rejected(self):
        # The store= alias is gone: CoreServer takes only database=.
        with pytest.raises(TypeError):
            CoreServer(
                database=DocumentStore(),
                storage=FileStore(),
                store=DocumentStore(),
            )

    def test_database_still_required(self):
        with pytest.raises(ValidationError):
            CoreServer(storage=FileStore())
