"""Low-overhead span tracing for the reasoning pipeline.

A *span* is one named, timed phase of work (``query``, ``transform``,
``cache_probe``, ``tableau_run``, ``justify``, ``shrink_probe``, ...).
Spans nest: the tracer keeps an open-span stack, so a tableau run started
while answering a query becomes a child of the query span, and the
finished trees expose exactly where the wall-clock time of a service
call went.  Each span can carry

* **attributes** — small key/value annotations (probe count, cache
  hit, verdict);
* **events** — point-in-time marks (budget aborts, UNKNOWN degradations,
  cache evictions), stamped with their offset from the span start;
* a **stats delta** — the :class:`~repro.dl.stats.ReasonerStats`
  counters incremented while the span was open, when the instrumentation
  site passed its stats object in.

Tracing is **off by default** and the disabled path is allocation-free:
:func:`span` returns one shared no-op singleton, so the hot reasoning
loop pays a global read, a ``None`` check, and two empty method calls
per instrumented site — no objects, no clock reads, no counter drift
(the stats-guard benchmark pins this).  Install a :class:`Tracer` with
:func:`tracing` to record::

    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        reasoner.assertion_value(individual, concept)
    for root in tracer.roots:
        print(root.name, root.duration)

The span *names* used by the built-in instrumentation points are a
stable schema, documented in ``docs/OBSERVABILITY.md`` and validated by
``scripts/check_span_schema.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "tracing",
    "active_tracer",
    "span",
    "add_event",
    "set_gauge",
]


class SpanEvent:
    """A point-in-time mark inside a span (e.g. a budget abort).

    ``at`` is the offset in seconds from the owning span's start.
    """

    __slots__ = ("name", "at", "attributes")

    def __init__(self, name: str, at: float, attributes: Optional[Dict] = None):
        self.name = name
        self.at = at
        self.attributes = attributes or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<event {self.name} @{self.at:.6f}s {self.attributes}>"


class Span:
    """One named, timed phase of work in a span tree.

    Spans are context managers handed out by a :class:`Tracer` (user
    code normally goes through the module-level :func:`span` helper).
    ``start`` is the offset from the tracer's epoch, ``duration`` the
    wall-clock seconds the span was open, ``stats_delta`` the non-zero
    :class:`~repro.dl.stats.ReasonerStats` counter increments observed
    while it ran (``None`` when no stats object was attached).
    """

    __slots__ = (
        "name",
        "start",
        "duration",
        "attributes",
        "events",
        "children",
        "stats_delta",
        "trace_id",
        "process",
        "_tracer",
        "_stats",
        "_stats_before",
    )

    def __init__(self, tracer: "Tracer", name: str, stats=None):
        self.name = name
        self.start = 0.0
        self.duration = 0.0
        self.attributes: Dict[str, Any] = {}
        self.events: List[SpanEvent] = []
        self.children: List["Span"] = []
        self.stats_delta: Optional[Dict[str, int]] = None
        #: Distributed-trace correlation id, inherited from the tracer
        #: (``None`` outside a traced service request).
        self.trace_id: Optional[str] = tracer.trace_id
        #: Which process recorded this span (``server``, ``worker-0``,
        #: ...), inherited from the tracer; ``None`` for local tracing.
        self.process: Optional[str] = tracer.process
        self._tracer = tracer
        self._stats = stats
        self._stats_before: Optional[Dict[str, int]] = None

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start = time.perf_counter() - tracer.epoch
        if self._stats is not None:
            tracer.watch_stats(self._stats)
            self._stats_before = self._stats.as_dict()
        tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        self.duration = (time.perf_counter() - tracer.epoch) - self.start
        if self._stats_before is not None:
            after = self._stats.as_dict()
            before = self._stats_before
            self.stats_delta = {
                name: after[name] - before[name]
                for name in after
                if after[name] != before[name]
            }
        if exc is not None:
            # A budget abort carries a DegradationReason in .reason; any
            # other exception is recorded generically.  Duck-typed so
            # this module never imports the reasoner's error types.
            reason = getattr(exc, "reason", None)
            if reason is not None and hasattr(reason, "value"):
                self.event("budget_abort", {"reason": reason.value})
            else:
                self.event("exception", {"type": type(exc).__name__})
        tracer._pop(self)

    # -- annotation ------------------------------------------------------
    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def event(self, name: str, attributes: Optional[Dict] = None) -> None:
        """Record a point-in-time event at the current offset."""
        at = (time.perf_counter() - self._tracer.epoch) - self.start
        self.events.append(SpanEvent(name, max(at, 0.0), attributes))

    # -- queries ---------------------------------------------------------
    @property
    def self_time(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span {self.name} {self.duration:.6f}s>"


class _NullSpan:
    """The shared no-op span of the disabled tracing path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value) -> None:
        return None

    def event(self, name: str, attributes: Optional[Dict] = None) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveState(threading.local):
    """Per-thread active-tracer slot (``None`` = tracing disabled).

    Thread-local rather than a module global so concurrent server
    threads (the :class:`http.server.ThreadingHTTPServer` request
    plane) can each install a per-request tracer without corrupting
    one another's open-span stacks.  Single-threaded callers (the CLI,
    benchmarks) behave exactly as before.
    """

    tracer: Optional["Tracer"] = None


_ACTIVE = _ActiveState()


class Tracer:
    """Records a forest of span trees plus span-duration metrics.

    One tracer covers one profiled activity (a CLI command, a benchmark
    run).  Finished top-level spans accumulate in :attr:`roots`; every
    span close also feeds the duration histogram of the tracer's
    :class:`~repro.obs.metrics.MetricsRegistry` (one histogram per span
    name) so the same run yields both the tree view and the aggregate
    view.  Distinct :class:`~repro.dl.stats.ReasonerStats` objects seen
    by instrumented spans are remembered (by identity) so counter totals
    can be exported without double counting nested spans.
    """

    def __init__(
        self,
        registry=None,
        trace_id: Optional[str] = None,
        process: Optional[str] = None,
    ):
        from .metrics import MetricsRegistry

        #: perf_counter value all span offsets are relative to.
        self.epoch = time.perf_counter()
        #: Distributed-trace id stamped onto every span (``None`` for
        #: plain local tracing).
        self.trace_id = trace_id
        #: Label of the recording process (``server``, ``worker-1``...).
        self.process = process
        #: Finished top-level spans, in completion order.
        self.roots: List[Span] = []
        #: Aggregated metrics (span-duration histograms, gauges).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stack: List[Span] = []
        self._watched: Dict[int, Any] = {}

    # -- span lifecycle (called by Span) --------------------------------
    def span(self, name: str, stats=None) -> Span:
        """A new unstarted span (start it with ``with``)."""
        return Span(self, name, stats=stats)

    def _push(self, span_: Span) -> None:
        self._stack.append(span_)

    def _pop(self, span_: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span_:
            stack.pop()
        elif span_ in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(span_)
        if stack:
            stack[-1].children.append(span_)
        else:
            self.roots.append(span_)
        self.registry.span_duration(span_.name).observe(span_.duration)

    # -- stats bookkeeping ----------------------------------------------
    def watch_stats(self, stats) -> None:
        """Remember a stats object (by identity) for counter export."""
        self._watched.setdefault(id(stats), stats)

    @property
    def watched_stats(self) -> List[Any]:
        """Every distinct stats object seen by instrumented spans."""
        return list(self._watched.values())

    def counter_totals(self) -> Dict[str, int]:
        """Summed final counters across all watched stats objects.

        Summing *final values of distinct objects* (rather than span
        deltas) is what makes the export double-count-proof: nested
        spans observing the same stats object contribute it once.
        """
        totals: Dict[str, int] = {}
        for stats in self._watched.values():
            for name, value in stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # -- convenience -----------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None


class tracing:
    """Context manager installing ``tracer`` as the active tracer.

    Re-entrant: the previous tracer (usually ``None``) is restored on
    exit.  ``tracing(None)`` explicitly disables tracing for a scope.
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = _ACTIVE.tracer
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tracer = self._previous


def active_tracer() -> Optional[Tracer]:
    """The tracer installed on this thread, or ``None`` (disabled)."""
    return _ACTIVE.tracer


def span(name: str, stats=None):
    """A context-managed span under the active tracer.

    The instrumentation entry point: cheap enough for hot paths because
    the disabled case returns a shared no-op singleton without touching
    the clock or allocating.

    >>> with span("tableau_run") as sp:
    ...     sp.set("probes", 1)   # no-op: tracing disabled
    """
    tracer = _ACTIVE.tracer
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, stats=stats)


def add_event(name: str, attributes: Optional[Dict] = None) -> None:
    """Record an event on the innermost open span, if tracing is active."""
    tracer = _ACTIVE.tracer
    if tracer is None:
        return
    current = tracer.current
    if current is not None:
        current.event(name, attributes)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active tracer's registry, if tracing is active."""
    tracer = _ACTIVE.tracer
    if tracer is None:
        return
    tracer.registry.gauge(name).set(value)
