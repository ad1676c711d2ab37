"""The knowledge-base schema (Figure 6 of the paper).

The schema mirrors the entities and relationships shown in the paper's
high-level database diagram:

* machine-generated entities: ``Dataset`` → ``Signal``, ``Template`` →
  ``Pipeline``, ``Experiment`` → ``Datarun`` → ``Signalrun`` → ``Event``;
* human-generated entities: ``Annotation`` and ``Interaction`` attached to
  events (and events may also be created by humans);
* ``Event`` carries a ``source`` field distinguishing machine, human, or
  both.

Every entity is stored as a document in its own collection; this module
defines the collection names, the required fields, and small helpers that
validate documents before insertion.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.exceptions import DatabaseError

__all__ = ["COLLECTIONS", "EVENT_SOURCES", "ANNOTATION_TAGS",
           "TENANT_STATUSES",
           "validate_document", "new_document"]

#: Collection name -> required fields (besides ``_id`` and ``created_at``).
COLLECTIONS: Dict[str, List[str]] = {
    "datasets": ["name"],
    "signals": ["name", "dataset_id"],
    "templates": ["name", "spec"],
    "pipelines": ["name", "template_id", "hyperparameters"],
    "experiments": ["name", "project"],
    "dataruns": ["experiment_id", "pipeline_id"],
    "signalruns": ["datarun_id", "signal_id", "status"],
    "events": ["signalrun_id", "signal_id", "start_time", "stop_time", "source"],
    "annotations": ["event_id", "user", "tag"],
    "interactions": ["event_id", "user", "action"],
    "comments": ["event_id", "user", "text"],
    # Streaming sessions (live ingestion API): one document per opened
    # stream; its emitted anomalies are stored as events whose
    # ``signalrun_id`` is the stream document id.
    "streams": ["pipeline", "status"],
    # API gateway tenants: one document per provisioned tenant. Only a
    # salted hash of the API key is stored; the cleartext key is returned
    # exactly once at provisioning time (see repro.api.tenants).
    "tenants": ["name", "key_hash", "status"],
}

#: Allowed values of the ``source`` field on events (Figure 6 legend).
EVENT_SOURCES = ("machine", "human", "both")

#: Lifecycle states of an API tenant: ``active`` keys authenticate,
#: ``revoked`` keys are refused at the gateway.
TENANT_STATUSES = ("active", "revoked")

#: Tag taxonomy used in the real-world study (Figure 8b / Table 4).
ANNOTATION_TAGS = ("normal", "problematic", "investigate", "anomaly", "eclipse")


def validate_document(collection: str, document: dict) -> None:
    """Raise :class:`DatabaseError` if the document misses required fields."""
    if collection not in COLLECTIONS:
        raise DatabaseError(
            f"Unknown collection {collection!r}. Known: {sorted(COLLECTIONS)}"
        )
    missing = [field for field in COLLECTIONS[collection] if field not in document]
    if missing:
        raise DatabaseError(
            f"Document for {collection!r} is missing required fields: {missing}"
        )
    if collection == "events" and document.get("source") not in EVENT_SOURCES:
        raise DatabaseError(
            f"Event source must be one of {EVENT_SOURCES}, "
            f"got {document.get('source')!r}"
        )
    if collection == "events" and document["stop_time"] < document["start_time"]:
        raise DatabaseError("Event stop_time must not precede start_time")
    if collection == "tenants" \
            and document.get("status") not in TENANT_STATUSES:
        raise DatabaseError(
            f"Tenant status must be one of {TENANT_STATUSES}, "
            f"got {document.get('status')!r}"
        )


def new_document(collection: str, **fields) -> dict:
    """Build a validated document with a creation timestamp."""
    document = dict(fields)
    document.setdefault("created_at", time.time())
    validate_document(collection, document)
    return document
