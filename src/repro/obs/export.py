"""Machine-readable exporters for spans and metrics.

Three output formats, all plain text:

* **JSON lines** — one JSON object per span (depth-first, parents
  before children), linked by ``id``/``parent`` fields.  The schema is
  stable (see :data:`SPAN_FIELDS`; ``scripts/check_span_schema.py``
  validates dumps in CI) and :func:`read_spans_jsonl` reconstructs the
  exact span forest, so dumps round-trip;
* **Prometheus text format** — histograms (cumulative ``_bucket`` /
  ``_sum`` / ``_count`` series), gauges, and the reasoner's monotone
  counters as ``repro_<counter>_total``;
* **folded stacks** — ``root;child;leaf <microseconds>`` lines keyed by
  span *self time*, the input format of Brendan Gregg's
  ``flamegraph.pl`` (``flamegraph.pl out.folded > flame.svg``).

Plus two human renderings used by the CLI: an indented span tree and an
aggregated per-phase breakdown table.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, percentile
from .spans import Span, SpanEvent, Tracer

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "SPAN_FIELDS",
    "SPAN_OPTIONAL_FIELDS",
    "PHASE_SPANS",
    "span_to_dict",
    "spans_to_jsonl",
    "spans_to_records",
    "spans_from_records",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "validate_span_record",
    "folded_stacks",
    "render_prometheus",
    "render_span_tree",
    "phase_breakdown",
    "phase_durations",
]

#: Bumped whenever a field is added/renamed; exported in every line.
SPAN_SCHEMA_VERSION = 1

#: Required fields of one JSON-lines span record and their types.
SPAN_FIELDS = {
    "schema": int,
    "id": int,
    "parent": (int, type(None)),
    "name": str,
    "start": (int, float),
    "duration": (int, float),
    "attributes": dict,
    "events": list,
    "stats": (dict, type(None)),
}

#: Optional fields of the distributed-tracing extension: emitted only
#: when set (so pre-existing dumps — and local, non-service tracing —
#: stay byte-identical), validated when present.  ``trace_id`` is the
#: cross-process correlation id, ``process`` the label of the process
#: that recorded the span (``server``, ``worker-0``, ...).
SPAN_OPTIONAL_FIELDS = {
    "trace_id": str,
    "process": str,
}

#: The canonical pipeline phases (every name the built-in
#: instrumentation emits below the per-command root span).
PHASE_SPANS = frozenset(
    {
        "parse",
        "transform",
        "incremental_update",
        "cache_probe",
        "saturation_run",
        "model_check",
        "tableau_run",
        "justify",
        "shrink_probe",
        "evidence_probe",
        "classify",
        "serve_request",
        "probe_execute",
    }
)


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------

def span_to_dict(span: Span, span_id: int, parent_id: Optional[int]) -> Dict:
    """The JSON-able record of one span (children serialised separately)."""
    record: Dict = {
        "schema": SPAN_SCHEMA_VERSION,
        "id": span_id,
        "parent": parent_id,
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "attributes": dict(span.attributes),
        "events": [
            {"name": event.name, "at": event.at, "attributes": dict(event.attributes)}
            for event in span.events
        ],
        "stats": dict(span.stats_delta) if span.stats_delta is not None else None,
    }
    if span.trace_id is not None:
        record["trace_id"] = span.trace_id
    if span.process is not None:
        record["process"] = span.process
    return record


def spans_to_records(roots: Sequence[Span]) -> List[Dict]:
    """The whole span forest as records (parents before children).

    The dict form of :func:`spans_to_jsonl`, used when the forest rides
    an in-process channel (the worker result queue) instead of a file.
    """
    records: List[Dict] = []

    def emit(span: Span, parent_id: Optional[int]) -> None:
        span_id = len(records)
        records.append(span_to_dict(span, span_id, parent_id))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return records


def spans_to_jsonl(roots: Sequence[Span]) -> str:
    """The whole span forest as JSON lines (parents before children)."""
    lines = [
        json.dumps(record, sort_keys=True) for record in spans_to_records(roots)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_spans_jsonl(roots: Sequence[Span], path: str) -> int:
    """Write the forest to ``path``; returns the number of spans written."""
    text = spans_to_jsonl(roots)
    with open(path, "w") as handle:
        handle.write(text)
    return text.count("\n")


def _span_from_record(record: Dict, tracer: Tracer) -> Span:
    """One validated record rebuilt as a :class:`Span` (children detached)."""
    span = Span(tracer, record["name"])
    span.start = float(record["start"])
    span.duration = float(record["duration"])
    span.attributes = dict(record["attributes"])
    span.events = [
        SpanEvent(e["name"], e["at"], dict(e.get("attributes") or {}))
        for e in record["events"]
    ]
    span.stats_delta = (
        dict(record["stats"]) if record["stats"] is not None else None
    )
    span.trace_id = record.get("trace_id")
    span.process = record.get("process")
    return span


def _link_record_span(
    record: Dict,
    span: Span,
    by_id: Dict[int, Span],
    roots: List[Span],
    where: str,
) -> None:
    by_id[record["id"]] = span
    parent_id = record["parent"]
    if parent_id is None:
        roots.append(span)
    else:
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(f"{where}: parent {parent_id} not seen yet")
        parent.children.append(span)


def spans_from_records(records: Sequence[Dict]) -> List[Span]:
    """Reconstruct a span forest from parsed record dicts.

    The in-memory sibling of :func:`read_spans_jsonl` (same validation,
    same parents-before-children contract), used by the server-side
    trace collector to reassemble forests shipped over the worker
    result queue.  Raises ``ValueError`` on malformed records.
    """
    tracer = Tracer()  # donor for Span construction; epoch unused
    by_id: Dict[int, Span] = {}
    roots: List[Span] = []
    for index, record in enumerate(records):
        problems = validate_span_record(record)
        if problems:
            raise ValueError(f"record {index}: {'; '.join(problems)}")
        span = _span_from_record(record, tracer)
        _link_record_span(record, span, by_id, roots, f"record {index}")
    return roots


def read_spans_jsonl(text: str) -> List[Span]:
    """Reconstruct the span forest from a JSON-lines dump.

    The inverse of :func:`spans_to_jsonl`: names, timings, attributes,
    events, stats deltas, trace ids/process labels, and the
    parent/child structure all round-trip.  Raises ``ValueError`` on
    malformed input.
    """
    tracer = Tracer()  # donor for Span construction; epoch unused
    by_id: Dict[int, Span] = {}
    roots: List[Span] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {line_number}: not JSON ({error})") from None
        problems = validate_span_record(record)
        if problems:
            raise ValueError(f"line {line_number}: {'; '.join(problems)}")
        span = _span_from_record(record, tracer)
        _link_record_span(record, span, by_id, roots, f"line {line_number}")
    return roots


def validate_span_record(record: object) -> List[str]:
    """Schema problems of one parsed JSON-lines record (empty = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    for field, expected in SPAN_FIELDS.items():
        if field not in record:
            problems.append(f"missing field {field!r}")
        elif not isinstance(record[field], expected):
            problems.append(
                f"field {field!r} has type {type(record[field]).__name__}"
            )
    for field, expected in SPAN_OPTIONAL_FIELDS.items():
        if field in record and not isinstance(record[field], expected):
            problems.append(
                f"field {field!r} has type {type(record[field]).__name__}"
            )
    if isinstance(record.get("events"), list):
        for index, event in enumerate(record["events"]):
            if not isinstance(event, dict) or not {
                "name",
                "at",
            } <= set(event):
                problems.append(f"event #{index} malformed")
    if isinstance(record.get("duration"), (int, float)):
        if record["duration"] < 0:
            problems.append("negative duration")
    if record.get("schema") not in (None, SPAN_SCHEMA_VERSION):
        problems.append(f"unknown schema version {record.get('schema')!r}")
    return problems


# ---------------------------------------------------------------------------
# Folded stacks (flamegraph.pl input)
# ---------------------------------------------------------------------------

def _frame(name: str) -> str:
    """A span name made safe for the folded-stack format."""
    return name.replace(";", ":").replace(" ", "_") or "anonymous"


def folded_stacks(roots: Sequence[Span]) -> str:
    """The span forest as ``flamegraph.pl``-compatible folded stacks.

    One line per span: the semicolon-joined path from its root, then a
    space, then the span's *self time* in integer microseconds (so the
    values of a stack and its children sum to the root's total, the
    invariant flame graphs rely on).  Zero-self-time spans still emit a
    line with value 0 only when they have no children (so leaf phases
    never vanish); interior zero frames are implied by their children.
    """
    lines: List[str] = []

    def emit(span: Span, prefix: str) -> None:
        path = f"{prefix};{_frame(span.name)}" if prefix else _frame(span.name)
        micros = int(round(span.self_time * 1e6))
        if micros > 0 or not span.children:
            lines.append(f"{path} {micros}")
        for child in span.children:
            emit(child, path)

    for root in roots:
        emit(root, "")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    return repr(float(value))


def render_prometheus(
    registry: MetricsRegistry,
    counters: Optional[Dict[str, int]] = None,
) -> str:
    """The registry (and optional counter totals) in Prometheus text format.

    Emits the labelled span-duration histogram family, free-form
    histograms, gauges, and — when ``counters`` is given (usually
    :meth:`repro.obs.spans.Tracer.counter_totals`) — one
    ``repro_<counter>_total`` series per reasoner counter.
    """
    lines: List[str] = []

    def histogram_lines(name: str, labels: str, histogram) -> None:
        for bound, cumulative in histogram.cumulative_buckets():
            le = _format_value(bound)
            sep = "," if labels else ""
            lines.append(
                f'{name}_bucket{{{labels}{sep}le="{le}"}} {cumulative}'
            )
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}_sum{suffix} {_format_value(histogram.sum)}")
        lines.append(f"{name}_count{suffix} {histogram.count}")

    if registry.span_durations:
        name = "repro_span_duration_seconds"
        lines.append(f"# HELP {name} Wall-clock duration of reasoning spans.")
        lines.append(f"# TYPE {name} histogram")
        for span_name in sorted(registry.span_durations):
            histogram_lines(
                name,
                f'span="{span_name}"',
                registry.span_durations[span_name],
            )
    for hist_name in sorted(registry.histograms):
        lines.append(f"# HELP {hist_name} Observed values.")
        lines.append(f"# TYPE {hist_name} histogram")
        histogram_lines(hist_name, "", registry.histograms[hist_name])
    for gauge_name in sorted(registry.gauges):
        lines.append(f"# HELP {gauge_name} Instantaneous reading.")
        lines.append(f"# TYPE {gauge_name} gauge")
        lines.append(
            f"{gauge_name} {_format_value(registry.gauges[gauge_name].value)}"
        )
    if counters:
        for counter_name in sorted(counters):
            metric = f"repro_{counter_name}_total"
            lines.append(
                f"# HELP {metric} Monotone ReasonerStats counter "
                f"{counter_name}."
            )
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counters[counter_name]}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Human renderings
# ---------------------------------------------------------------------------

def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_span_tree(roots: Sequence[Span], max_depth: int = 12) -> str:
    """An indented, human-readable rendering of the span forest."""
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        indent = "  " * depth
        parts = [f"{indent}{span.name}  {_format_seconds(span.duration)}"]
        if span.process is not None:
            parts.append(f"<{span.process}>")
        if span.attributes:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
            parts.append(f"[{attrs}]")
        if span.stats_delta:
            busiest = sorted(
                span.stats_delta.items(), key=lambda kv: -abs(kv[1])
            )[:4]
            parts.append(
                "{" + ", ".join(f"{k}+{v}" for k, v in busiest) + "}"
            )
        lines.append("  ".join(parts))
        for event in span.events:
            lines.append(
                f"{indent}  ! {event.name} @{_format_seconds(event.at)}"
                + (f" {event.attributes}" if event.attributes else "")
            )
        if depth + 1 < max_depth:
            for child in span.children:
                emit(child, depth + 1)
        elif span.children:
            lines.append(f"{indent}  ... ({len(span.children)} children elided)")

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def phase_durations(roots: Sequence[Span]) -> Dict[str, float]:
    """Total seconds per pipeline phase, attributed exclusively.

    A span counts toward its phase only when no *ancestor* is also a
    phase span (so a ``tableau_run`` nested inside a ``shrink_probe``
    is attributed to the shrink probe, never twice).  The values of the
    returned mapping therefore sum to at most the root durations.
    """
    totals: Dict[str, float] = {}

    def walk(span: Span, inside_phase: bool) -> None:
        is_phase = span.name in PHASE_SPANS and not inside_phase
        if is_phase:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        for child in span.children:
            walk(child, inside_phase or is_phase)

    for root in roots:
        walk(root, False)
    return totals


def phase_breakdown(
    roots: Sequence[Span],
) -> List[Tuple[str, int, float, float, float, float, str]]:
    """Aggregate rows for the ``repro profile`` table.

    One row per span name: ``(name, count, total_s, p50_s, p95_s,
    max_s, share)`` where ``share`` is the phase's exclusively-attributed
    time as a percentage of the total root duration (blank for spans
    that only ever appear nested inside another phase).
    """
    samples: Dict[str, List[float]] = {}
    for root in roots:
        for span in root.walk():
            samples.setdefault(span.name, []).append(span.duration)
    exclusive = phase_durations(roots)
    total = sum(root.duration for root in roots) or 1.0
    rows = []
    for name in sorted(samples, key=lambda n: -sum(samples[n])):
        values = samples[name]
        share = (
            f"{100.0 * exclusive[name] / total:.1f}%" if name in exclusive else ""
        )
        rows.append(
            (
                name,
                len(values),
                sum(values),
                percentile(values, 0.5),
                percentile(values, 0.95),
                max(values),
                share,
            )
        )
    return rows
