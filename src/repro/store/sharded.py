"""A hash-sharded, WAL-backed document store.

:class:`ShardedDocumentStore` is a drop-in replacement for
:class:`~repro.storage.documentstore.DocumentStore` that partitions each
collection's documents across N shards by a stable blake2b hash of the
collection's shard key (``worker_id`` for responses — the participant id —
so one participant's writes always land on one shard). Every mutation is
applied in memory and then journaled to the owning shard's write-ahead log
before the call returns, so a store rebuilt over the same backends recovers
exactly the acknowledged state: snapshot first, then the WAL tail, with
per-shard sequence numbers making double replay a no-op.

Two durability mechanisms compose:

* **Snapshot + compaction** — once ``snapshot_every`` non-spill records
  accumulate on a shard, its in-memory collections are dumped to the
  snapshot file and the WAL is rewritten to keep only records the snapshot
  does not cover (spilled-collection records). Recovery cost is then
  O(snapshot + spill tail), not O(full history).
* **Spill mode** — collections named in ``spill`` (the campaign response
  firehose) are *not* kept in memory at all: the WAL is their primary
  storage, and the shard keeps only a compact identity index — the key
  tuples the server's dedupe point-lookups ask about, per-value counts for
  the configured count fields, and nothing proportional to document size.
  Point lookups answer from the index (returning a stub of the queried
  fields), streaming reads replay the log; anything else falls back to a
  log scan. Spilled collections are append-only by design.

Ids are assigned from a single store-wide monotonic counter, so the global
``_id`` order *is* insertion order even across shards —
:meth:`ShardedDocumentStore.stream_collection` k-way-merges the per-shard
iterators back into exactly the upload order the batch pipeline sees.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.aggregator import RESPONSE_IDENTITY, RESPONSES_COLLECTION
from repro.errors import StorageError
from repro.storage.documentstore import (
    _MISSING,
    CompoundIndex,
    DocumentStore,
    get_path,
    highest_numeric_id,
    index_fields,
    index_spec,
    match_document,
    scalar_condition,
)
from repro.util.jsonutil import deep_copy_json, dumps_canonical, loads
from repro.store.wal import DiskShardBackend, MemoryShardBackend, WriteAheadLog

#: Collections partitioned by a document field (everything else rides on
#: shard 0 — test/integrated records are few and queried whole).
DEFAULT_SHARD_KEYS: Dict[str, str] = {RESPONSES_COLLECTION: "worker_id"}

#: Identity-key groups per spilled collection: the exact-equality point
#: lookups the index must answer (the server's duplicate and idempotency
#: checks) — the same groups the aggregator declares as indexes.
DEFAULT_SPILL_IDENTITY: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    RESPONSES_COLLECTION: RESPONSE_IDENTITY,
}

#: Fields with per-value counts on spilled collections (``count`` queries).
#: Deliberately *not* ``worker_id``: a million-participant campaign would
#: put a million Counter entries per shard back on the heap.
DEFAULT_SPILL_COUNT_FIELDS: Dict[str, Tuple[str, ...]] = {
    RESPONSES_COLLECTION: ("test_id",),
}

DEFAULT_SNAPSHOT_EVERY = 512

#: Sentinel from ``_spill_lookup``: the identity index answered the query
#: authoritatively and the document is absent — no log scan needed.
_SPILL_MISS: Any = object()


def shard_for(value, shard_count: int) -> int:
    """Stable shard index for a routing key (blake2b, like the overload
    plane's admission lottery — independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(str(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


class _SpillIndex:
    """Compact per-shard index for one spilled collection.

    Holds one :class:`~repro.storage.documentstore.CompoundIndex` per
    identity group — the same index class the in-memory collections use —
    per-value counts for the count fields, and the document count:
    everything the hot-path queries need, nothing proportional to document
    size.
    """

    def __init__(
        self,
        identity_keys: Tuple[Tuple[str, ...], ...],
        count_fields: Tuple[str, ...],
    ):
        if not identity_keys:
            raise StorageError(
                "spilled collections need at least one identity-key group"
            )
        self.identity = [CompoundIndex(index_fields(g)) for g in identity_keys]
        self.count_fields = count_fields
        self.field_counts: Dict[str, Dict[Any, int]] = {
            field: {} for field in count_fields
        }
        self.count = 0

    def add(self, doc: dict) -> None:
        self.count += 1
        for index in self.identity:
            index.add(doc)
        for field in self.count_fields:
            if field in doc:
                counts = self.field_counts[field]
                counts[doc[field]] = counts.get(doc[field], 0) + 1

    def identity_index(self, fields: Iterable[str]) -> Optional[CompoundIndex]:
        """The identity index over exactly ``fields``, or ``None`` when there
        is none — or when it holds residue, whose documents live only in
        the log, so that only a log scan answers exactly."""
        wanted = set(fields)
        for index in self.identity:
            if set(index.fields) == wanted and not index.residue:
                return index
        return None

    def ids_for(self, query: dict):
        """The ids of the documents matching an identity-group query, or
        ``None`` when the index cannot answer the query's shape."""
        index = self.identity_index(query)
        key = index.query_key(query) if index is not None else None
        return None if key is None else index.ids(key)

    def count_for(self, query: dict) -> Optional[int]:
        if not query:
            return self.count
        if len(query) == 1:
            (field, condition), = query.items()
            if field in self.field_counts and scalar_condition(condition):
                return self.field_counts[field].get(condition, 0)
        ids = self.ids_for(query)
        return None if ids is None else len(ids)


class _StoreConfig:
    """Sharding policy shared by every shard."""

    def __init__(self, shard_keys, spill, spill_identity, spill_count_fields):
        self.shard_keys = dict(
            DEFAULT_SHARD_KEYS if shard_keys is None else shard_keys
        )
        self.spill = tuple(spill)
        self.spill_identity = dict(
            DEFAULT_SPILL_IDENTITY if spill_identity is None else spill_identity
        )
        self.spill_count_fields = dict(
            DEFAULT_SPILL_COUNT_FIELDS
            if spill_count_fields is None
            else spill_count_fields
        )


class _Shard:
    """One partition: an in-memory store for regular collections, a spill
    index for logged-only ones, and the WAL that makes both durable."""

    def __init__(self, index: int, backend, config: _StoreConfig):
        self.index = index
        self.backend = backend
        self.wal = WriteAheadLog(backend)
        self.store = DocumentStore()
        self.config = config
        self.spill: Dict[str, _SpillIndex] = {}
        self.next_seq = 1
        self.applied_seq = 0       # non-spill high-water (snapshot-aware)
        self.spill_seen_seq = 0    # spilled-record high-water (replay dedupe)
        self.records_since_snapshot = 0
        self.snapshots = 0
        self.compactions = 0
        #: Index definitions per collection, ``{fields: unique}`` — kept for
        #: spilled collections too, which have no in-memory index to carry
        #: them into ``dump()``.
        self.index_defs: Dict[str, Dict[Tuple[str, ...], bool]] = {}

    def spill_index(self, name: str) -> _SpillIndex:
        if name not in self.spill:
            self.spill[name] = _SpillIndex(
                self.config.spill_identity.get(name, (("_id",),)),
                self.config.spill_count_fields.get(name, ()),
            )
        return self.spill[name]

    # -- journal + apply ----------------------------------------------------

    def journal(self, record: dict) -> None:
        """Append a record with the next sequence number. Spilled records do
        not count toward the snapshot trigger — their log *is* their
        storage, so snapshotting buys them nothing and compacting after
        every ``snapshot_every`` appends would rewrite the full log
        O(n^2/snapshot_every) times over a million uploads."""
        record = dict(record)
        record["seq"] = self.next_seq
        self.next_seq += 1
        self.wal.append(record)
        if record["c"] not in self.config.spill:
            self.records_since_snapshot += 1

    def apply(self, record: dict, replay: bool) -> None:
        """Apply one WAL record; idempotent under double replay thanks to
        the per-shard sequence high-water marks."""
        seq = int(record.get("seq", 0))
        name = record["c"]
        op = record["op"]
        if name in self.config.spill:
            if op == "insert":
                if seq > self.spill_seen_seq:
                    self.spill_index(name).add(record["doc"])
                    self.spill_seen_seq = seq
                return
            if op == "index":
                # No in-memory index to build; remember the definition for
                # dump()/snapshot parity. Idempotent, no seq guard needed.
                self.define_index(name, record["field"], record["unique"])
                return
            raise StorageError(
                f"spilled collection {name!r} is append-only; got {op!r}"
            )
        if replay and seq <= self.applied_seq:
            return
        if op == "insert":
            self.store.collection(name).insert_one(record["doc"])
        elif op == "update_many":
            self.store.collection(name).update_many(record["q"], record["u"])
        elif op == "update_one":
            self.store.collection(name).update_one(record["q"], record["u"])
        elif op == "replace_one":
            self.store.collection(name).replace_one(record["q"], record["u"])
        elif op == "delete_many":
            self.store.collection(name).delete_many(record["q"])
        elif op == "index":
            self.store.collection(name).create_index(
                record["field"], unique=record["unique"]
            )
            self.define_index(name, record["field"], record["unique"])
        elif op == "drop":
            self.store.drop_collection(name)
        else:
            raise StorageError(f"unknown WAL op {op!r}")
        self.applied_seq = max(self.applied_seq, seq)

    def define_index(self, name: str, field, unique: bool) -> None:
        """Record an index definition; ``field`` is a field name or, for a
        compound index, a sequence of them (a list once through JSON)."""
        self.index_defs.setdefault(name, {})[index_fields(field)] = unique

    def scan_spilled(self, name: str) -> Iterator[dict]:
        """Replay the WAL yielding this shard's spilled documents for
        ``name`` in insertion order, without materializing the log."""
        for record in self.wal.replay():
            if record.get("c") == name and record.get("op") == "insert":
                yield record["doc"]

    # -- snapshot + compaction ---------------------------------------------

    def write_snapshot(self, next_id: int) -> None:
        payload = {
            "applied_seq": self.applied_seq,
            "next_seq": self.next_seq,
            "next_id": next_id,
            "collections": self.store.dump(),
            "index_defs": {
                name: [
                    {"field": index_spec(fields), "unique": unique}
                    for fields, unique in defs.items()
                ]
                for name, defs in self.index_defs.items()
            },
        }
        self.backend.write_snapshot(dumps_canonical(payload))
        self.snapshots += 1

    def compact(self, next_id: int) -> None:
        """Snapshot the in-memory collections, then rewrite the WAL keeping
        only spilled-collection records (their log *is* their storage).
        Retained records keep their original sequence numbers — compaction
        preserves log order, so the WAL stays seq-monotone."""
        self.write_snapshot(next_id)
        retained = (
            record
            for record in self.wal.replay()
            if record.get("c") in self.config.spill
        )
        self.wal.rewrite(retained)
        self.records_since_snapshot = 0
        self.compactions += 1

    def recover(self) -> Tuple[int, int]:
        """Rebuild state from snapshot + WAL; returns ``(max_doc_id,
        snapshot_next_id)`` for the store-wide id counter restore."""
        snapshot_next_id = 0
        text = self.backend.read_snapshot()
        if text:
            payload = loads(text)
            self.store = DocumentStore.load(payload.get("collections", {}))
            self.applied_seq = int(payload.get("applied_seq", 0))
            self.next_seq = int(payload.get("next_seq", self.applied_seq + 1))
            snapshot_next_id = int(payload.get("next_id", 0))
            self.index_defs = {}
            for name, defs in payload.get("index_defs", {}).items():
                if isinstance(defs, dict):
                    # Snapshots written before compound indexes: {field: unique}.
                    defs = [{"field": f, "unique": u} for f, u in defs.items()]
                for entry in defs:
                    self.define_index(name, entry["field"], entry["unique"])
        max_doc_id = 0
        max_seq = self.next_seq - 1
        for record in self.wal.replay():
            self.apply(record, replay=True)
            max_seq = max(max_seq, int(record.get("seq", 0)))
            if record.get("op") == "insert":
                max_doc_id = max(
                    max_doc_id, highest_numeric_id([record["doc"].get("_id")])
                )
        self.next_seq = max_seq + 1
        for collection in self.store._collections.values():
            max_doc_id = max(
                max_doc_id, highest_numeric_id(collection._documents)
            )
        return max_doc_id, snapshot_next_id

    # -- stats -------------------------------------------------------------

    def spilled_count(self) -> int:
        return sum(index.count for index in self.spill.values())

    def document_count(self) -> int:
        in_memory = sum(len(c) for c in self.store._collections.values())
        return in_memory + self.spilled_count()

    def stats(self) -> dict:
        return {
            "shard": self.index,
            "next_seq": self.next_seq,
            "applied_seq": self.applied_seq,
            "wal_records": self.wal.records_appended,
            "wal_bytes": self.wal.size_bytes(),
            "wal_tail_discarded": self.wal.tail_discarded,
            "snapshots": self.snapshots,
            "compactions": self.compactions,
            "documents": self.document_count(),
            "spilled": self.spilled_count(),
        }


class ShardedCollection:
    """The per-collection facade routing queries to the owning shard(s)."""

    def __init__(self, store: "ShardedDocumentStore", name: str):
        self._store = store
        self.name = name
        self._shard_key = store._config.shard_keys.get(name)
        self._spilled = name in store._config.spill

    # -- routing ------------------------------------------------------------

    def _shard_for_doc(self, doc: dict) -> _Shard:
        shards = self._store._shards
        if self._shard_key is None:
            return shards[0]
        key = doc.get(self._shard_key, doc.get("_id"))
        return shards[shard_for(key, len(shards))]

    def _shards_for_query(self, query: dict) -> List[_Shard]:
        shards = self._store._shards
        if self._shard_key is None:
            return [shards[0]]
        condition = query.get(self._shard_key)
        if scalar_condition(condition):
            return [shards[shard_for(condition, len(shards))]]
        return list(shards)

    # -- writes -------------------------------------------------------------

    def insert_one(self, document: dict) -> Any:
        stored = deep_copy_json(document)
        if "_id" not in stored:
            stored["_id"] = next(self._store._id_counter)
        shard = self._shard_for_doc(stored)
        record = {"op": "insert", "c": self.name, "doc": stored}
        # Apply first, journal second: a crash between the two loses only
        # the not-yet-acknowledged record (the caller never saw the insert
        # return), and replayed records always apply cleanly.
        shard.apply({**record, "seq": shard.next_seq}, replay=False)
        shard.journal(record)
        self._store._count("store.inserts")
        if self._spilled:
            self._store._count("store.spilled_docs")
        self._store._after_write(shard)
        return stored["_id"]

    def insert_many(self, documents: Iterable[dict]) -> List:
        return [self.insert_one(d) for d in documents]

    def _mutate(self, op: str, query: dict, update) -> int:
        if self._spilled:
            raise StorageError(
                f"spilled collection {self.name!r} is append-only"
            )
        total = 0
        for shard in self._shards_for_query(query):
            collection = shard.store.collection(self.name)
            if op == "update_many":
                changed = collection.update_many(query, update)
            elif op == "update_one":
                changed = collection.update_one(query, update)
            elif op == "replace_one":
                changed = collection.replace_one(query, update)
            else:
                changed = collection.delete_many(query)
            if changed:
                record = {"op": op, "c": self.name, "q": query}
                if update is not None:
                    record["u"] = update
                shard.journal(record)
                shard.applied_seq = shard.next_seq - 1
                self._store._after_write(shard)
            total += changed
            if op in ("update_one", "replace_one") and changed:
                break
        return total

    def update_many(self, query: dict, update: dict) -> int:
        return self._mutate("update_many", query, update)

    def update_one(self, query: dict, update: dict) -> int:
        return self._mutate("update_one", query, update)

    def replace_one(self, query: dict, replacement: dict) -> int:
        return self._mutate("replace_one", query, replacement)

    def delete_many(self, query: dict) -> int:
        return self._mutate("delete_many", query, None)

    def create_index(self, field, unique: bool = False) -> None:
        """Create an index on one field, or a compound index when ``field``
        is a sequence of field names."""
        record = {
            "op": "index",
            "c": self.name,
            "field": index_spec(index_fields(field)),
            "unique": unique,
        }
        if self._spilled:
            # No in-memory index to build; record the definition on shard 0
            # only (dump parity).
            shard = self._store._shards[0]
            shard.apply({**record, "seq": shard.next_seq}, replay=False)
            shard.journal(record)
            return
        for shard in self._store._shards:
            shard.apply({**record, "seq": shard.next_seq}, replay=False)
            shard.journal(record)

    # -- reads --------------------------------------------------------------

    def _iter_merged(self, query: dict) -> Iterator[dict]:
        """Matching documents across shards, merged in global ``_id``
        (insertion) order — the exact order a single Collection yields."""

        def shard_iter(shard: _Shard) -> Iterator[dict]:
            if self._spilled:
                for doc in shard.scan_spilled(self.name):
                    if match_document(doc, query):
                        yield deep_copy_json(doc)
            elif self.name in shard.store._collections:
                collection = shard.store.collection(self.name)
                for doc in collection._iter_matching(query):
                    yield deep_copy_json(doc)

        iterators = [shard_iter(s) for s in self._shards_for_query(query)]
        if len(iterators) == 1:
            yield from iterators[0]
            return
        yield from heapq.merge(*iterators, key=lambda d: d["_id"])

    def find(
        self,
        query: Optional[dict] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        skip: int = 0,
        limit: Optional[int] = None,
    ) -> List[dict]:
        query = query or {}
        results = list(self._iter_merged(query))
        if sort:
            for field, direction in reversed(sort):
                results.sort(
                    key=lambda d: (
                        get_path(d, field) is _MISSING,
                        get_path(d, field),
                    ),
                    reverse=direction < 0,
                )
        if skip:
            results = results[skip:]
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        query = query or {}
        if self._spilled and query:
            hit = self._spill_lookup(query)
            if hit is _SPILL_MISS:
                return None
            if hit is not None:
                return hit
        for document in self._iter_merged(query):
            return document
        return None

    def _spill_lookup(self, query: dict):
        """Index-served point lookup on a spilled collection.

        Returns a *stub* carrying the queried fields plus ``_id`` when the
        identity index holds the key (the callers — the server's duplicate
        and idempotency checks — only test presence), :data:`_SPILL_MISS`
        when every candidate shard answered authoritatively that the key is
        absent, or ``None`` when the query shape is not index-servable and
        the caller must fall back to a log scan.
        """
        for shard in self._shards_for_query(query):
            if self.name not in shard.spill:
                continue  # nothing ever landed here: authoritative miss
            ids = shard.spill_index(self.name).ids_for(query)
            if ids is None:
                return None  # unservable here: scan the log instead
            if ids:
                stub = dict(query)
                stub["_id"] = min(ids)
                return stub
        return _SPILL_MISS

    def count(self, query: Optional[dict] = None) -> int:
        query = query or {}
        total = 0
        for shard in self._shards_for_query(query):
            if self._spilled:
                if self.name not in shard.spill:
                    continue
                served = shard.spill_index(self.name).count_for(query)
                if served is not None:
                    total += served
                else:
                    total += sum(
                        1
                        for doc in shard.scan_spilled(self.name)
                        if match_document(doc, query)
                    )
            elif self.name in shard.store._collections:
                total += shard.store.collection(self.name).count(query)
        return total

    def distinct(self, field: str, query: Optional[dict] = None) -> List:
        query = query or {}
        pairs: List[Tuple[Any, Any]] = []
        for shard in self._shards_for_query(query):
            if self._spilled:
                if self.name not in shard.spill:
                    continue
                index = shard.spill_index(self.name).identity_index(
                    set(query) | {field}
                )
                served = None if index is None else index.pairs(field, query)
                if served is None:
                    served = [
                        (doc["_id"], get_path(doc, field))
                        for doc in shard.scan_spilled(self.name)
                        if match_document(doc, query)
                        and get_path(doc, field) is not _MISSING
                    ]
                pairs.extend(served)
            elif self.name in shard.store._collections:
                collection = shard.store.collection(self.name)
                for doc in collection._iter_matching(query):
                    value = get_path(doc, field)
                    if value is not _MISSING:
                        pairs.append((doc["_id"], value))
        pairs.sort(key=lambda item: item[0])
        seen: List = []
        for _, value in pairs:
            if value not in seen:
                seen.append(value)
        return deep_copy_json(seen)

    def __len__(self) -> int:
        return self.count({})


class ShardedDocumentStore:
    """N WAL-backed shards behind the :class:`DocumentStore` interface.

    ``directory=None`` keeps shard logs and snapshots in memory (tests,
    small campaigns); a path gives each shard an on-disk backend under
    ``directory/shard-NN/`` and makes the store crash-recoverable: building
    a new store over the same directory (same shard count and policy)
    replays snapshot + WAL back to the acknowledged state.
    """

    def __init__(
        self,
        shards: int = 4,
        directory=None,
        shard_keys: Optional[Dict[str, str]] = None,
        spill: Sequence[str] = (),
        spill_identity: Optional[Dict[str, Tuple[Tuple[str, ...], ...]]] = None,
        spill_count_fields: Optional[Dict[str, Tuple[str, ...]]] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        metrics=None,
    ):
        if shards < 1:
            raise StorageError(f"shards must be >= 1, got {shards}")
        if snapshot_every < 1:
            raise StorageError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.shard_count = shards
        self.directory = directory
        self.snapshot_every = snapshot_every
        self._metrics = metrics
        self._config = _StoreConfig(
            shard_keys, spill, spill_identity, spill_count_fields
        )
        self._shards: List[_Shard] = []
        for index in range(shards):
            if directory is None:
                backend = MemoryShardBackend()
            else:
                from pathlib import Path

                backend = DiskShardBackend(Path(directory) / f"shard-{index:02d}")
            self._shards.append(_Shard(index, backend, self._config))
        self._collections: Dict[str, ShardedCollection] = {}
        self._id_counter = itertools.count(1)
        self.recover()

    # -- metrics ------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.add(name, amount)

    def _after_write(self, shard: _Shard) -> None:
        self._count("store.wal_records")
        if shard.records_since_snapshot >= self.snapshot_every:
            shard.compact(self._peek_next_id())
            self._count("store.snapshots")
            self._count("store.compactions")

    def _peek_next_id(self) -> int:
        value = next(self._id_counter)
        self._id_counter = itertools.count(value)
        return value

    # -- DocumentStore interface --------------------------------------------

    def collection(self, name: str) -> ShardedCollection:
        if name not in self._collections:
            self._collections[name] = ShardedCollection(self, name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        if name in self._config.spill:
            raise StorageError(
                f"spilled collection {name!r} is append-only; cannot drop"
            )
        record = {"op": "drop", "c": name}
        for shard in self._shards:
            if name in shard.store._collections:
                shard.apply({**record, "seq": shard.next_seq}, replay=False)
                shard.journal(record)
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        names = set()
        for shard in self._shards:
            names.update(shard.store._collections)
            names.update(shard.spill)
        return sorted(names)

    # -- durability ---------------------------------------------------------

    def snapshot_all(self) -> None:
        """Force a snapshot + compaction on every shard (checkpointing)."""
        for shard in self._shards:
            shard.compact(self._peek_next_id())
            self._count("store.snapshots")
            self._count("store.compactions")

    def recover(self) -> None:
        """(Re)build in-memory state from each shard's snapshot + WAL.

        Idempotent: per-shard sequence high-water marks make a second
        replay over the same log a no-op, so calling this on a live store
        (or twice after a crash) cannot double-apply records.
        """
        max_id = 0
        for shard in self._shards:
            max_doc_id, snapshot_next_id = shard.recover()
            max_id = max(max_id, max_doc_id, snapshot_next_id - 1)
        if max_id + 1 > self._peek_next_id():
            self._id_counter = itertools.count(max_id + 1)

    def stream_collection(
        self, name: str, query: Optional[dict] = None
    ) -> Iterator[dict]:
        """Every document of ``name`` in global insertion (``_id``) order,
        streamed — spilled shards replay their WAL lazily, so memory stays
        O(shards), not O(documents)."""
        query = query or {}
        spilled = name in self._config.spill

        def shard_iter(shard: _Shard) -> Iterator[dict]:
            if spilled:
                for doc in shard.scan_spilled(name):
                    if match_document(doc, query):
                        yield deep_copy_json(doc)
            elif name in shard.store._collections:
                collection = shard.store.collection(name)
                for doc in collection._iter_matching(query):
                    yield deep_copy_json(doc)

        yield from heapq.merge(
            *[shard_iter(s) for s in self._shards], key=lambda d: d["_id"]
        )

    # -- persistence (DocumentStore.dump/load parity) ------------------------

    def dump(self) -> dict:
        snapshot: Dict[str, dict] = {}
        for name in self.collection_names():
            index_defs: Dict[Tuple[str, ...], bool] = {}
            for shard in self._shards:
                index_defs.update(shard.index_defs.get(name, {}))
                if name in shard.store._collections:
                    for fields, index in shard.store.collection(
                        name
                    )._indexes.items():
                        index_defs[fields] = index.unique
            snapshot[name] = {
                "documents": list(self.stream_collection(name)),
                "indexes": [
                    {"field": index_spec(fields), "unique": unique}
                    for fields, unique in sorted(index_defs.items())
                ],
            }
        return deep_copy_json(snapshot)

    @classmethod
    def load(cls, snapshot: dict, **kwargs) -> "ShardedDocumentStore":
        """Rebuild a sharded store from a :meth:`dump` (or a plain
        ``DocumentStore.dump``) snapshot; ``kwargs`` set the shard policy.

        The id counter restore reuses the same shared helper as
        ``DocumentStore.load`` — all-digit string ids count.
        """
        store = cls(**kwargs)
        max_id = 0
        for name, payload in snapshot.items():
            collection = store.collection(name)
            for index in payload.get("indexes", []):
                collection.create_index(index["field"], unique=index["unique"])
            for document in payload.get("documents", []):
                collection.insert_one(document)
                max_id = max(max_id, highest_numeric_id([document.get("_id")]))
        if max_id + 1 > store._peek_next_id():
            store._id_counter = itertools.count(max_id + 1)
        return store

    # -- introspection -------------------------------------------------------

    def digest(self) -> dict:
        """Compact per-shard durability summary, JSON-safe — carried in
        campaign checkpoints so a resume can verify routing consistency."""
        return {
            "mode": "sharded",
            "shards": self.shard_count,
            "documents": [shard.document_count() for shard in self._shards],
            "spilled": [shard.spilled_count() for shard in self._shards],
        }

    def stats(self) -> dict:
        shards = [shard.stats() for shard in self._shards]
        return {
            "shards": shards,
            "wal_records": sum(s["wal_records"] for s in shards),
            "wal_bytes": sum(s["wal_bytes"] for s in shards),
            "snapshots": sum(s["snapshots"] for s in shards),
            "compactions": sum(s["compactions"] for s in shards),
            "documents": sum(s["documents"] for s in shards),
            "spilled_documents": sum(s["spilled"] for s in shards),
        }

    def close(self) -> None:
        for shard in self._shards:
            close = getattr(shard.backend, "close", None)
            if close is not None:
                close()
