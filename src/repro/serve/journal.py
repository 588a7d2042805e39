"""The structured request journal and the in-memory trace store.

Two request-scoped memories the server keeps besides ``/metrics``:

* :class:`RequestJournal` — one deterministic JSON record per request
  (trace id, kb, kind, status, degradation reason, duration, cache
  hit, engine used, worker incarnation), held in a bounded ring,
  optionally appended to a JSONL sink file, with *automatic capture*:
  the full span forest of a slow-or-UNKNOWN request is written to
  ``<capture_dir>/<trace_id>.jsonl`` under the latency/verdict policy,
  so the trace of the request worth debugging is already on disk when
  the operator goes looking;
* :class:`TraceStore` — the bounded, thread-safe map behind
  ``GET /trace/<id>``: reassembled span forests keyed by trace id,
  evicting oldest-first.

Journal records are "deterministic" in the schema sense: a fixed key
set (absent values are explicit ``null``), sorted keys, no volatile
fields beyond the ids and timings the record exists to report.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.export import spans_to_jsonl
from ..obs.spans import Span

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalEntry",
    "RequestJournal",
    "TraceStore",
    "derive_execution",
]

#: Bumped whenever a journal field is added, renamed, or re-typed.
JOURNAL_SCHEMA_VERSION = 1


def derive_execution(
    roots: Sequence[Span],
) -> Tuple[Optional[bool], Optional[str]]:
    """``(cache_hit, engine)`` read off a request's span forest.

    ``cache_hit`` is the ``hit`` attribute of the ``cache_probe`` span
    (``None`` when no cache probe ran — e.g. tracing disabled or the
    request never reached a reasoner).  ``engine`` is which machinery
    decided the answer: ``"tableau"`` when a tableau ran (it is always
    the engine of last resort), else ``"model"`` when a kept verified
    model witnessed a probe, else ``"saturation"``, else ``"cache"``
    for a pure cache hit.
    """
    cache_hit: Optional[bool] = None
    saw_saturation = saw_model = saw_tableau = False
    for root in roots:
        for span in root.walk():
            if span.name == "cache_probe" and cache_hit is None:
                hit = span.attributes.get("hit")
                if isinstance(hit, bool):
                    cache_hit = hit
            elif span.name == "saturation_run":
                saw_saturation = True
            elif span.name == "model_check":
                if span.attributes.get("witnessed") is True:
                    saw_model = True
            elif span.name == "tableau_run":
                saw_tableau = True
    if saw_tableau:
        return cache_hit, "tableau"
    if saw_model:
        return cache_hit, "model"
    if saw_saturation:
        return cache_hit, "saturation"
    if cache_hit:
        return cache_hit, "cache"
    return cache_hit, None


@dataclass(frozen=True)
class JournalEntry:
    """One request's structured journal record (the line ``to_record``
    serialises).  ``duration_ms`` covers admission through response;
    ``worker``/``incarnation`` identify which pool process answered
    (``inline``/0 without fork workers, ``None`` when the request never
    reached the pool); ``captured`` is the capture-file path when the
    slow-or-UNKNOWN policy fired."""

    trace_id: str
    status: str
    duration_ms: float
    kind: Optional[str] = None
    kb: Optional[str] = None
    reason: Optional[str] = None
    request_id: Optional[str] = None
    cache_hit: Optional[bool] = None
    engine: Optional[str] = None
    worker: Optional[str] = None
    incarnation: Optional[int] = None
    captured: Optional[str] = None

    def to_record(self) -> Dict:
        """The JSON-able record: fixed key set, stable formatting."""
        return {
            "schema": JOURNAL_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "kind": self.kind,
            "kb": self.kb,
            "status": self.status,
            "reason": self.reason,
            "duration_ms": round(self.duration_ms, 3),
            "cache_hit": self.cache_hit,
            "engine": self.engine,
            "worker": self.worker,
            "incarnation": self.incarnation,
            "captured": self.captured,
        }


class RequestJournal:
    """A bounded, thread-safe journal of served requests.

    ``capacity`` bounds the in-memory ring (oldest entries fall off);
    ``sink_path`` appends every record as one JSON line; ``capture_dir``
    arms the capture policy: the span forest of a request that degraded
    to UNKNOWN (``capture_unknown``) or took at least ``slow_ms``
    milliseconds is written to ``<capture_dir>/<trace_id>.jsonl``.
    Capture failures are swallowed — the journal must never fail a
    request.
    """

    def __init__(
        self,
        capacity: int = 1024,
        sink_path: Optional[str] = None,
        capture_dir: Optional[str] = None,
        slow_ms: float = 1000.0,
        capture_unknown: bool = True,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._lock = threading.Lock()
        self._entries: collections.deque = collections.deque(maxlen=capacity)
        self._sink_path = sink_path
        self._sink = open(sink_path, "a") if sink_path else None
        self.capture_dir = capture_dir
        self.slow_ms = slow_ms
        self.capture_unknown = capture_unknown
        self.lines_total = 0
        self.captured_total = 0

    def should_capture(self, status: str, duration_ms: float) -> bool:
        """Whether the slow-or-UNKNOWN policy fires for this request."""
        if self.capture_dir is None:
            return False
        if self.capture_unknown and status == "unknown":
            return True
        return duration_ms >= self.slow_ms

    def record(
        self, entry: JournalEntry, roots: Optional[Sequence[Span]] = None
    ) -> JournalEntry:
        """Journal one request; returns the entry actually recorded.

        When the capture policy fires and a span forest was supplied,
        the forest is written to the capture dir first and the entry is
        re-issued with ``captured`` pointing at the file.
        """
        if (
            roots
            and entry.captured is None
            and self.should_capture(entry.status, entry.duration_ms)
        ):
            path = os.path.join(self.capture_dir, f"{entry.trace_id}.jsonl")
            try:
                with open(path, "w") as handle:
                    handle.write(spans_to_jsonl(roots))
            except OSError:
                path = None
            if path is not None:
                entry = dataclasses.replace(entry, captured=path)
        line = json.dumps(entry.to_record(), sort_keys=True)
        with self._lock:
            self._entries.append(entry)
            self.lines_total += 1
            if entry.captured is not None:
                self.captured_total += 1
            if self._sink is not None:
                try:
                    self._sink.write(line + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    pass
        return entry

    def recent(self, count: Optional[int] = None) -> List[JournalEntry]:
        """The newest ``count`` entries (all of them by default), oldest
        first — the order a log reader expects."""
        with self._lock:
            entries = list(self._entries)
        if count is not None:
            entries = entries[-count:]
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        """Close the sink file (idempotent)."""
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None


class TraceStore:
    """Bounded, thread-safe storage of reassembled trace forests.

    The memory behind ``GET /trace/<id>``: at most ``capacity`` traces,
    evicting oldest-first (a trace store is a debugging window, not an
    archive — the journal's capture policy is the durable path).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "collections.OrderedDict[str, List[Span]]" = (
            collections.OrderedDict()
        )

    def put(self, trace_id: str, roots: Sequence[Span]) -> None:
        """Store (or replace) one trace; evicts the oldest past capacity."""
        with self._lock:
            if trace_id in self._traces:
                self._traces.pop(trace_id)
            self._traces[trace_id] = list(roots)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[List[Span]]:
        """The stored forest, or ``None`` for unknown/evicted ids."""
        with self._lock:
            roots = self._traces.get(trace_id)
            return list(roots) if roots is not None else None

    def ids(self) -> List[str]:
        """Stored trace ids, newest first."""
        with self._lock:
            return list(reversed(self._traces))

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
