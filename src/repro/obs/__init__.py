"""Observability: span tracing, metric histograms, machine-readable export.

The measurement substrate of the reasoning stack.  Three layers:

* :mod:`repro.obs.spans` — nested named spans with wall-clock duration,
  attributes, point events (budget aborts, UNKNOWN degradations), and
  attached :class:`~repro.dl.stats.ReasonerStats` deltas.  Disabled by
  default with an allocation-free null path, so the uninstrumented hot
  path costs nothing measurable and drifts no counters;
* :mod:`repro.obs.metrics` — fixed log-scale-bucket timing histograms
  (p50/p95/max) and gauges, aggregated per span name by the tracer;
* :mod:`repro.obs.export` — JSON-lines span dumps (round-trippable),
  Prometheus-style text metrics, ``flamegraph.pl``-compatible folded
  stacks, and the human span-tree / phase-breakdown renderings behind
  ``repro ... --profile`` and ``repro profile``.

Typical use::

    from repro.obs import Tracer, tracing, render_span_tree

    tracer = Tracer()
    with tracing(tracer):
        reasoner.classify()
    print(render_span_tree(tracer.roots))

See ``docs/OBSERVABILITY.md`` for the span and metric name schema.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    globals(),
    {
        ".bench": (
            "BENCH_OUT_ENV",
            "BenchRecord",
            "maybe_write_bench_record",
            "write_bench_record",
        ),
        ".export": (
            "PHASE_SPANS",
            "SPAN_SCHEMA_VERSION",
            "folded_stacks",
            "phase_breakdown",
            "phase_durations",
            "read_spans_jsonl",
            "render_prometheus",
            "render_span_tree",
            "spans_from_records",
            "spans_to_jsonl",
            "spans_to_records",
            "validate_span_record",
            "write_spans_jsonl",
        ),
        ".metrics": (
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "percentile",
        ),
        ".spans": (
            "Span",
            "SpanEvent",
            "Tracer",
            "active_tracer",
            "add_event",
            "set_gauge",
            "span",
            "tracing",
        ),
        ".trace": (
            "fit_within",
            "graft_spans",
            "new_trace_id",
            "rebase_spans",
            "sanitize_trace_id",
        ),
    },
)
