"""An embedded, Mongo-flavoured document store.

Implements the subset of MongoDB the Kaleidoscope core server relies on:

* schemaless collections of JSON documents with auto-assigned ``_id``;
* ``find`` with equality matching, dotted paths, and the query operators
  ``$eq $ne $gt $gte $lt $lte $in $nin $exists $regex $and $or $not``;
* ``update`` with ``$set $unset $inc $push $pull`` (and whole-document
  replacement);
* unique and non-unique indexes on one field or on a tuple of fields
  (equality lookups use the narrowest one that applies);
* sort / skip / limit, ``count``, ``distinct``, and ``delete``.

Documents are deep-copied on the way in and out, so callers can never mutate
stored state through aliasing — the same isolation a real client/server
boundary provides.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import DuplicateKeyError, QueryError
from repro.util.jsonutil import deep_copy_json

_MISSING = object()


def highest_numeric_id(ids: Iterable) -> int:
    """The largest numeric document id in ``ids`` (0 when there is none).

    Counts both integer ids and all-digit string ids: snapshots that passed
    through JSON object keys (or an external system) come back as strings,
    and an auto-id counter that ignores them would hand out ids that collide
    logically with the stored documents.
    """
    highest = 0
    for doc_id in ids:
        if isinstance(doc_id, bool):
            continue
        if isinstance(doc_id, int):
            highest = max(highest, doc_id)
        elif isinstance(doc_id, str) and doc_id.isdigit():
            highest = max(highest, int(doc_id))
    return highest


def get_path(document: dict, path: str):
    """Resolve a dotted path in a document; returns ``_MISSING`` sentinel absent."""
    current: Any = document
    for part in path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        elif isinstance(current, list) and part.isdigit() and int(part) < len(current):
            current = current[int(part)]
        else:
            return _MISSING
    return current


def set_path(document: dict, path: str, value) -> None:
    """Set a dotted path, creating intermediate objects as needed."""
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        if part not in current or not isinstance(current[part], dict):
            current[part] = {}
        current = current[part]
    current[parts[-1]] = value


def unset_path(document: dict, path: str) -> None:
    """Remove a dotted path if present."""
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        if not isinstance(current, dict) or part not in current:
            return
        current = current[part]
    if isinstance(current, dict):
        current.pop(parts[-1], None)


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda value, operand: value == operand,
    "$ne": lambda value, operand: value != operand,
    "$gt": lambda value, operand: value is not _MISSING and value > operand,
    "$gte": lambda value, operand: value is not _MISSING and value >= operand,
    "$lt": lambda value, operand: value is not _MISSING and value < operand,
    "$lte": lambda value, operand: value is not _MISSING and value <= operand,
    "$in": lambda value, operand: value in operand,
    "$nin": lambda value, operand: value not in operand,
}


def _match_condition(value, condition) -> bool:
    """Match one field value against a condition (literal or operator doc)."""
    if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
        for op, operand in condition.items():
            if op in _COMPARATORS:
                if not _COMPARATORS[op](value, operand):
                    return False
            elif op == "$exists":
                if bool(operand) != (value is not _MISSING):
                    return False
            elif op == "$regex":
                if value is _MISSING or not isinstance(value, str):
                    return False
                if re.search(operand, value) is None:
                    return False
            elif op == "$not":
                if _match_condition(value, operand):
                    return False
            else:
                raise QueryError(f"unknown query operator {op!r}")
        return True
    if isinstance(value, list) and not isinstance(condition, list):
        # Mongo semantics: equality against an array matches any element.
        return condition in value or value == condition
    if value is _MISSING:
        return condition is None
    return value == condition


def match_document(document: dict, query: dict) -> bool:
    """Return True when ``document`` satisfies ``query``."""
    for key, condition in query.items():
        if key == "$and":
            if not all(match_document(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(match_document(document, sub) for sub in condition):
                return False
        elif key == "$nor":
            if any(match_document(document, sub) for sub in condition):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        else:
            if not _match_condition(get_path(document, key), condition):
                return False
    return True


#: ``CompoundIndex.entries`` lookup default: no document holds the key.
_ABSENT = object()
#: ``CompoundIndex._key`` result for a document whose indexed values are
#: unhashable (an array or an embedded document).
_UNHASHABLE = object()


def index_fields(field) -> Tuple[str, ...]:
    """Normalise an index definition — one field name, or a sequence of
    them for a compound index — to a tuple of field names."""
    fields = (field,) if isinstance(field, str) else tuple(field)
    if not fields or not all(isinstance(name, str) and name for name in fields):
        raise QueryError(f"invalid index fields {field!r}")
    return fields


def index_spec(fields: Tuple[str, ...]):
    """The JSON form of an index definition, as :meth:`DocumentStore.dump`
    and the sharded store's WAL write it: the bare field name for a
    single-field index, a list of names for a compound one."""
    return fields[0] if len(fields) == 1 else list(fields)


def scalar_condition(condition) -> bool:
    """True when a query condition is a plain scalar equality operand — the
    only clause an index answers. ``None`` also matches documents missing
    the field, and operator or array conditions need the matcher."""
    return condition is not None and not isinstance(condition, (dict, list))


class CompoundIndex:
    """An equality index over one or more fields: value tuple -> ``_id``.

    A key holds a bare ``_id`` and becomes a set only once a second
    document shares it, so a unique key costs a single dict slot.

    The index is exact for queries whose clauses on its fields are all
    scalar equalities (:func:`scalar_condition`): documents missing an
    indexed field can never match such a query and are left out, and
    documents whose indexed values are unhashable — arrays, which match
    any element they contain, and embedded documents — go to the
    ``residue``, a set of ids every lookup must still scan.
    """

    def __init__(self, fields: Tuple[str, ...], unique: bool = False):
        self.fields = fields
        self.unique = unique
        self.entries: Dict[tuple, Any] = {}
        self.residue: set = set()

    def _key(self, document: dict):
        values = []
        for field in self.fields:
            value = get_path(document, field)
            if value is _MISSING:
                return None
            values.append(value)
        key = tuple(values)
        try:
            hash(key)
        except TypeError:
            return _UNHASHABLE
        return key

    def add(self, document: dict) -> None:
        key = self._key(document)
        if key is None:
            return
        doc_id = document["_id"]
        if key is _UNHASHABLE:
            self.residue.add(doc_id)
            return
        held = self.entries.get(key, _ABSENT)
        if held is _ABSENT:
            self.entries[key] = doc_id
        elif type(held) is set:
            held.add(doc_id)
        elif held != doc_id:
            # Uniqueness ignores null values: any number of documents may
            # leave a unique field null.
            if self.unique and None not in key:
                raise DuplicateKeyError(
                    f"duplicate value {key!r} for unique index on "
                    f"{index_spec(self.fields)!r}"
                )
            self.entries[key] = {held, doc_id}

    def remove(self, document: dict) -> None:
        key = self._key(document)
        if key is None:
            return
        doc_id = document["_id"]
        if key is _UNHASHABLE:
            self.residue.discard(doc_id)
            return
        held = self.entries.get(key, _ABSENT)
        if type(held) is set:
            held.discard(doc_id)
            if len(held) == 1:
                self.entries[key] = next(iter(held))
        elif held is not _ABSENT and held == doc_id:
            del self.entries[key]

    def query_key(self, query: dict) -> Optional[tuple]:
        """The lookup key when every indexed field is a scalar equality
        clause of ``query``; ``None`` when the index cannot serve it."""
        values = []
        for field in self.fields:
            condition = query.get(field)
            if not scalar_condition(condition):
                return None
            values.append(condition)
        key = tuple(values)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def ids(self, key: tuple):
        """The ids of the documents holding exactly ``key`` (the residue excluded)."""
        held = self.entries.get(key, _ABSENT)
        if held is _ABSENT:
            return ()
        return held if type(held) is set else (held,)

    def candidates(self, key: tuple) -> List:
        """Every ``_id`` that can match a lookup of ``key``, in ``_id``
        order: the key's documents plus the residue."""
        ids = self.ids(key)
        return sorted(self.residue.union(ids) if self.residue else ids)

    def pairs(self, field: str, query: dict) -> Optional[List[Tuple[Any, Any]]]:
        """``(_id, value of field)`` for every indexed document whose key
        agrees with ``query`` — a walk of the index, not the documents.

        ``None`` unless ``query`` holds only scalar equality clauses on
        indexed fields and ``field`` is indexed too; the residue is not
        included."""
        positions = {name: at for at, name in enumerate(self.fields)}
        if field not in positions or not all(
            name in positions and scalar_condition(condition)
            for name, condition in query.items()
        ):
            return None
        wanted = [(positions[name], condition) for name, condition in query.items()]
        at = positions[field]
        out = []
        for key, held in self.entries.items():
            if all(key[i] == condition for i, condition in wanted):
                for doc_id in held if type(held) is set else (held,):
                    out.append((doc_id, key[at]))
        return out


class Collection:
    """A named collection of documents."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[int, dict] = {}
        self._id_counter = itertools.count(1)
        self._indexes: Dict[Tuple[str, ...], CompoundIndex] = {}
        #: Documents tested against a query so far — the work counter the
        #: upload path's O(1) dedupe is gated on.
        self.docs_examined = 0

    def __len__(self) -> int:
        return len(self._documents)

    def restore_id_counter(self) -> None:
        """Point the auto-id counter past every numeric id already stored.

        Shared by :meth:`DocumentStore.load` and the sharded store's
        snapshot recovery: after bulk-inserting documents that carry
        explicit ids, the counter must resume above them — including
        all-digit *string* ids — or the next auto-assigned id collides
        with an existing document.
        """
        self._id_counter = itertools.count(
            highest_numeric_id(self._documents) + 1
        )

    # -- indexes ----------------------------------------------------------

    def create_index(self, field, unique: bool = False) -> None:
        """Create (or replace) an index on one field, or a compound index
        when ``field`` is a sequence of field names."""
        fields = index_fields(field)
        index = CompoundIndex(fields, unique)
        for document in self._documents.values():
            index.add(document)
        self._indexes[fields] = index

    # -- writes -----------------------------------------------------------

    def insert_one(self, document: dict) -> int:
        """Insert a document; returns the assigned (or provided) ``_id``."""
        if not isinstance(document, dict):
            raise QueryError("documents must be dicts")
        stored = deep_copy_json(document)
        if "_id" not in stored:
            stored["_id"] = next(self._id_counter)
        doc_id = stored["_id"]
        if doc_id in self._documents:
            raise DuplicateKeyError(f"_id {doc_id!r} already exists")
        for index in self._indexes.values():
            index.add(stored)
        self._documents[doc_id] = stored
        return doc_id

    def insert_many(self, documents: Iterable[dict]) -> List[int]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(d) for d in documents]

    def update_many(self, query: dict, update: dict) -> int:
        """Apply an update document to every match; returns the match count."""
        matched = list(self._iter_matching(query))
        for document in matched:
            for index in self._indexes.values():
                index.remove(document)
            self._apply_update(document, update)
            for index in self._indexes.values():
                index.add(document)
        return len(matched)

    def update_one(self, query: dict, update: dict) -> int:
        """Apply an update to the first match; returns 0 or 1."""
        for document in self._iter_matching(query):
            for index in self._indexes.values():
                index.remove(document)
            self._apply_update(document, update)
            for index in self._indexes.values():
                index.add(document)
            return 1
        return 0

    def replace_one(self, query: dict, replacement: dict) -> int:
        """Replace the first match wholesale, keeping its ``_id``."""
        for document in self._iter_matching(query):
            for index in self._indexes.values():
                index.remove(document)
            doc_id = document["_id"]
            new_doc = deep_copy_json(replacement)
            new_doc["_id"] = doc_id
            self._documents[doc_id] = new_doc
            for index in self._indexes.values():
                index.add(new_doc)
            return 1
        return 0

    def delete_many(self, query: dict) -> int:
        """Delete every match; returns the number removed."""
        matched = list(self._iter_matching(query))
        for document in matched:
            for index in self._indexes.values():
                index.remove(document)
            del self._documents[document["_id"]]
        return len(matched)

    @staticmethod
    def _apply_update(document: dict, update: dict) -> None:
        has_operator = any(k.startswith("$") for k in update)
        if not has_operator:
            doc_id = document["_id"]
            document.clear()
            document.update(deep_copy_json(update))
            document["_id"] = doc_id
            return
        for op, spec in update.items():
            if op == "$set":
                for path, value in spec.items():
                    set_path(document, path, deep_copy_json(value))
            elif op == "$unset":
                for path in spec:
                    unset_path(document, path)
            elif op == "$inc":
                for path, amount in spec.items():
                    current = get_path(document, path)
                    base = 0 if current is _MISSING else current
                    set_path(document, path, base + amount)
            elif op == "$push":
                for path, value in spec.items():
                    current = get_path(document, path)
                    if current is _MISSING:
                        current = []
                        set_path(document, path, current)
                    if not isinstance(current, list):
                        raise QueryError(f"$push target {path!r} is not an array")
                    current.append(deep_copy_json(value))
            elif op == "$pull":
                for path, value in spec.items():
                    current = get_path(document, path)
                    if isinstance(current, list):
                        current[:] = [item for item in current if item != value]
            else:
                raise QueryError(f"unknown update operator {op!r}")

    # -- reads ------------------------------------------------------------

    def _candidate_ids(self, query: dict) -> Optional[List]:
        """Candidate document ids, in ``_id`` order, from the narrowest index
        whose fields are all scalar equality clauses of ``query``; ``None``
        when no index applies and every document must be scanned."""
        best = None
        best_size = 0
        for index in self._indexes.values():
            key = index.query_key(query)
            if key is None:
                continue
            size = len(index.ids(key)) + len(index.residue)
            if best is None or size < best_size:
                best, best_key, best_size = index, key, size
        return None if best is None else best.candidates(best_key)

    def _exact_index(self, query: dict):
        """``(index, key)`` for an index whose fields are exactly the
        clauses of ``query``, all scalar equalities, or ``None``.

        Every document under such a key matches the query, so ``count`` and
        ``distinct`` skip per-document matching for all but the residue.
        """
        for index in self._indexes.values():
            if len(index.fields) == len(query):
                key = index.query_key(query)
                if key is not None:
                    return index, key
        return None

    def _scan(self, ids: Iterable, query: dict):
        """The documents among ``ids`` that match ``query``, in ``ids`` order."""
        documents = self._documents
        for doc_id in ids:
            document = documents.get(doc_id)
            if document is None:
                continue
            self.docs_examined += 1
            if match_document(document, query):
                yield document

    def _iter_matching(self, query: dict):
        candidates = self._candidate_ids(query)
        if candidates is None:
            candidates = sorted(self._documents)
        return self._scan(candidates, query)

    def find(
        self,
        query: Optional[dict] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        skip: int = 0,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """Return deep copies of matching documents."""
        query = query or {}
        results = list(self._iter_matching(query))
        if sort:
            for field, direction in reversed(sort):
                results.sort(
                    key=lambda d: (get_path(d, field) is _MISSING, get_path(d, field)),
                    reverse=direction < 0,
                )
        if skip:
            results = results[skip:]
        if limit is not None:
            results = results[:limit]
        return [deep_copy_json(d) for d in results]

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        """Return a deep copy of the first match, or None."""
        for document in self._iter_matching(query or {}):
            return deep_copy_json(document)
        return None

    def count(self, query: Optional[dict] = None) -> int:
        """Number of matching documents.

        A query that is exactly an index's key is answered from the size of
        the key's entry, plus a match over the index's residue.
        """
        query = query or {}
        exact = self._exact_index(query)
        if exact is not None:
            index, key = exact
            residue = sum(1 for _ in self._scan(index.residue, query))
            return len(index.ids(key)) + residue
        return sum(1 for _ in self._iter_matching(query))

    def distinct(self, field: str, query: Optional[dict] = None) -> List:
        """Distinct values of ``field`` over matches, in first-seen order.

        A query that is exactly an index's key walks the key's documents
        (in ``_id`` order, preserving first-seen order) without re-matching
        each one; only the index's residue is matched.
        """
        query = query or {}
        exact = self._exact_index(query)
        if exact is not None:
            index, key = exact
            ids = set(index.ids(key))
            ids.update(d["_id"] for d in self._scan(index.residue, query))
            documents = (self._documents[i] for i in sorted(ids))
        else:
            documents = self._iter_matching(query)
        seen = []
        for document in documents:
            value = get_path(document, field)
            if value is _MISSING:
                continue
            if value not in seen:
                seen.append(value)
        return deep_copy_json(seen)


class DocumentStore:
    """A named set of collections — the reproduction's "MongoDB"."""

    def __init__(self):
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        """Remove a collection and its documents."""
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        """Sorted names of existing collections."""
        return sorted(self._collections)

    # -- persistence --------------------------------------------------------

    def dump(self) -> dict:
        """A JSON-compatible snapshot of every collection.

        Index definitions travel with the data so :meth:`load` restores an
        equivalent store — the durability a real MongoDB gives the core
        server across restarts.
        """
        snapshot: Dict[str, dict] = {}
        for name, collection in self._collections.items():
            snapshot[name] = {
                "documents": collection.find(),
                "indexes": [
                    {"field": index_spec(index.fields), "unique": index.unique}
                    for index in collection._indexes.values()
                ],
            }
        return deep_copy_json(snapshot)

    @classmethod
    def load(cls, snapshot: dict) -> "DocumentStore":
        """Rebuild a store from a :meth:`dump` snapshot."""
        store = cls()
        for name, payload in snapshot.items():
            collection = store.collection(name)
            for document in payload.get("documents", []):
                collection.insert_one(document)
            collection.restore_id_counter()
            for index in payload.get("indexes", []):
                collection.create_index(index["field"], unique=index["unique"])
        return store

    def save_file(self, path) -> None:
        """Persist the snapshot as a JSON file."""
        from pathlib import Path

        from repro.util.jsonutil import dumps_pretty

        Path(path).write_text(dumps_pretty(self.dump()) + "\n", encoding="utf-8")

    @classmethod
    def load_file(cls, path) -> "DocumentStore":
        """Restore a store from a JSON snapshot file."""
        from repro.util.jsonutil import load_file

        return cls.load(load_file(path))
