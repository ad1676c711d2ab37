"""An in-process document store with a MongoDB-like query subset.

The paper stores the framework's persistent state in MongoDB (§3.5). To
keep the reproduction dependency-free and runnable offline, this module
implements the subset of MongoDB behaviour the framework relies on:
named collections of JSON-like documents, automatic ``_id`` assignment,
``insert`` / ``find`` / ``find_one`` / ``update`` / ``delete`` operations
with equality and operator filters (``$gt``, ``$gte``, ``$lt``, ``$lte``,
``$ne``, ``$in``), sorting, and optional JSON-file persistence.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import threading
from typing import Dict, Iterable, List, Optional

from repro.exceptions import DatabaseError, DuplicateKeyError, NotFoundError

__all__ = ["Collection", "DocumentStore"]

def _compare(value, bound, operator) -> bool:
    """Order comparison that treats incomparable types as a non-match."""
    if value is None:
        return False
    try:
        return operator(value, bound)
    except TypeError:
        return False


_OPERATORS = {
    "$gt": lambda value, bound: _compare(value, bound, lambda a, b: a > b),
    "$gte": lambda value, bound: _compare(value, bound, lambda a, b: a >= b),
    "$lt": lambda value, bound: _compare(value, bound, lambda a, b: a < b),
    "$lte": lambda value, bound: _compare(value, bound, lambda a, b: a <= b),
    "$ne": lambda value, bound: value != bound,
    "$in": lambda value, bound: value in bound,
}


def _matches(document: dict, query: Optional[dict]) -> bool:
    """Whether ``document`` satisfies the Mongo-style ``query``."""
    if not query:
        return True
    for field, condition in query.items():
        value = document.get(field)
        is_operator_query = isinstance(condition, dict) and any(
            isinstance(key, str) and key.startswith("$") for key in condition
        )
        if is_operator_query:
            for operator, bound in condition.items():
                if operator not in _OPERATORS:
                    raise DatabaseError(f"Unsupported query operator {operator!r}")
                if not _OPERATORS[operator](value, bound):
                    return False
        elif value != condition:
            return False
    return True


class Collection:
    """A named collection of documents."""

    def __init__(self, name: str, counter: itertools.count, lock: threading.RLock):
        self.name = name
        self._documents: Dict[str, dict] = {}
        self._counter = counter
        self._lock = lock
        self._unique_fields: List[str] = []

    def ensure_unique(self, field: str) -> None:
        """Enforce a unique constraint on ``field`` for future inserts."""
        if field not in self._unique_fields:
            self._unique_fields.append(field)

    # ------------------------------------------------------------------ #
    def insert(self, document: dict) -> str:
        """Insert a document and return its ``_id``."""
        if not isinstance(document, dict):
            raise DatabaseError("Documents must be dictionaries")
        with self._lock:
            for field in self._unique_fields:
                value = document.get(field)
                if value is not None and any(
                    existing.get(field) == value for existing in self._documents.values()
                ):
                    raise DuplicateKeyError(
                        f"{self.name}: a document with {field}={value!r} already exists"
                    )
            document = copy.deepcopy(document)
            doc_id = document.get("_id") or f"{self.name}-{next(self._counter)}"
            if doc_id in self._documents:
                raise DuplicateKeyError(f"{self.name}: duplicate _id {doc_id!r}")
            document["_id"] = doc_id
            self._documents[doc_id] = document
            return doc_id

    def insert_many(self, documents: Iterable[dict]) -> List[str]:
        """Insert several documents, returning their ids."""
        return [self.insert(document) for document in documents]

    def find(self, query: Optional[dict] = None, sort: Optional[str] = None,
             reverse: bool = False, limit: Optional[int] = None) -> List[dict]:
        """Return copies of every document matching ``query``."""
        with self._lock:
            results = [
                copy.deepcopy(document)
                for document in self._documents.values()
                if _matches(document, query)
            ]
        if sort is not None:
            results.sort(key=lambda doc: (doc.get(sort) is None, doc.get(sort)),
                         reverse=reverse)
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        """Return the first matching document or ``None``."""
        results = self.find(query, limit=1)
        return results[0] if results else None

    def get(self, doc_id: str) -> dict:
        """Return the document with the given ``_id`` (raises if missing)."""
        with self._lock:
            if doc_id not in self._documents:
                raise NotFoundError(f"{self.name}: no document with _id {doc_id!r}")
            return copy.deepcopy(self._documents[doc_id])

    def update(self, query: dict, changes: dict) -> int:
        """Apply ``changes`` to every matching document; return the count."""
        if "_id" in changes:
            raise DatabaseError("The _id field cannot be updated")
        count = 0
        with self._lock:
            for document in self._documents.values():
                if _matches(document, query):
                    document.update(copy.deepcopy(changes))
                    count += 1
        return count

    def delete(self, query: dict) -> int:
        """Delete every matching document; return the count."""
        with self._lock:
            to_delete = [
                doc_id for doc_id, document in self._documents.items()
                if _matches(document, query)
            ]
            for doc_id in to_delete:
                del self._documents[doc_id]
        return len(to_delete)

    def count(self, query: Optional[dict] = None) -> int:
        """Number of documents matching ``query``."""
        return len(self.find(query))

    def __len__(self) -> int:
        return len(self._documents)

    # ------------------------------------------------------------------ #
    def to_list(self) -> List[dict]:
        """Every document, for serialization."""
        with self._lock:
            return [copy.deepcopy(document) for document in self._documents.values()]

    def load_documents(self, documents: Iterable[dict]) -> None:
        """Bulk-load documents (used when restoring from disk)."""
        with self._lock:
            for document in documents:
                self._documents[document["_id"]] = copy.deepcopy(document)


class DocumentStore:
    """A database: a set of named collections with optional JSON persistence."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._collections: Dict[str, Collection] = {}
        self._counter = itertools.count(1)
        self._lock = threading.RLock()
        if path and os.path.exists(path):
            self._load()

    def collection(self, name: str) -> Collection:
        """Get (or lazily create) a collection."""
        with self._lock:
            if name not in self._collections:
                self._collections[name] = Collection(name, self._counter, self._lock)
            return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def list_collections(self) -> List[str]:
        """Sorted names of the existing collections."""
        return sorted(self._collections)

    def drop(self) -> None:
        """Remove every collection (and the persisted file, if any)."""
        with self._lock:
            self._collections.clear()
            if self.path and os.path.exists(self.path):
                os.remove(self.path)

    # ------------------------------------------------------------------ #
    def save(self, path: Optional[str] = None) -> None:
        """Persist every collection to a JSON file."""
        path = path or self.path
        if not path:
            raise DatabaseError("No path configured for persistence")
        payload = {
            name: collection.to_list()
            for name, collection in self._collections.items()
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)

    def _load(self) -> None:
        with open(self.path) as handle:
            payload = json.load(handle)
        for name, documents in payload.items():
            self.collection(name).load_documents(documents)
