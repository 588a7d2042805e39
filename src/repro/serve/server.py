"""The HTTP front of the reasoning service: admission, degradation, drain.

A thin, stdlib-only layer (:class:`http.server.ThreadingHTTPServer`)
over the worker pool.  Its job is to make every operational failure an
*explicit, bounded* response — the service-level reading of the paper's
paraconsistent stance that surprising inputs degrade answers instead of
destroying them:

* **Admission control.**  A counting semaphore bounds how many requests
  may be queued or running at once; when it is full the server answers
  ``429`` with a ``Retry-After`` hint *immediately* rather than letting
  latency grow without bound.  The client's ``deadline_ms`` is converted
  into a wall-clock :class:`~repro.dl.budget.Budget` at admission — a
  non-positive remaining deadline short-circuits to a structured UNKNOWN
  (``reason=deadline``, HTTP 504) before any reasoning starts, because
  :class:`~repro.dl.budget.Budget` itself refuses dead-on-arrival
  deadlines.
* **Degradation mapping.**  Decided verdicts are ``200``; UNKNOWN maps
  by reason — budget exhaustion (deadline / nodes / branches) to
  ``504``, ``worker_crash`` and drain cancellation to ``503`` (the
  condition is the server's, not the question's); usage errors are
  ``400``/``404``.  Response *bodies* are deterministic (sorted-key
  JSON, no timestamps or ids) so the chaos suite can byte-compare a
  recovered server against a cold one; the client's ``request_id`` is
  echoed in the ``X-Request-Id`` header only.
* **Graceful shutdown.**  SIGTERM (wired up by the CLI) flips the
  server into draining: ``/readyz`` goes 503 so load balancers stop
  sending traffic, new probes are rejected, in-flight requests get up
  to ``drain_timeout`` seconds to finish, stragglers are cancelled
  cooperatively and answered UNKNOWN, and only then does the listener
  close.

``/healthz`` answers liveness (the process serves HTTP), ``/readyz``
answers readiness (every worker shard alive, circuit closed, not
draining), ``/metrics`` renders the ``repro_serve_*`` series documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..dl.errors import DegradationReason
from ..obs.export import spans_to_jsonl
from ..obs.metrics import Histogram
from ..obs.spans import Span, Tracer, span as obs_span, tracing
from ..obs.trace import graft_spans, new_trace_id, sanitize_trace_id
from .journal import JournalEntry, RequestJournal, TraceStore, derive_execution
from .pool import InlineExecutor, WorkerPool
from .protocol import ProbeRequest, ProbeResponse, ProtocolError

__all__ = ["ServeMetrics", "ReproServer"]

#: UNKNOWN reasons that mean "the server was in trouble, not the
#: question": mapped to 503 (retryable against a healthy replica)
#: instead of 504 (the question itself blew its budget).
_SERVER_SIDE_REASONS = frozenset(
    {DegradationReason.WORKER_CRASH.value, DegradationReason.CANCELLED.value}
)


#: The largest probe body the server reads, in bytes.  A longer declared
#: ``Content-Length`` is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20

#: Seconds a handler thread waits on a silent client socket (say, a body
#: shorter than its ``Content-Length``) before it drops the connection.
SOCKET_TIMEOUT_S = 10.0


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    return repr(float(value))


class ServeMetrics:
    """Thread-safe counters for the service plane.

    Rendered as the ``repro_serve_*`` Prometheus series; the worker
    restart count lives on the pool (the supervisor owns that truth)
    and is merged in at render time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total: Dict[str, int] = {}
        self.rejections_total: Dict[str, int] = {}
        self.unknown_total: Dict[str, int] = {}
        self.cache_hits_total: Dict[str, int] = {}
        self.cache_misses_total: Dict[str, int] = {}
        self.inflight = 0
        self.request_seconds = Histogram("repro_serve_request_seconds")

    def admitted(self) -> None:
        """One request passed admission control (in flight from now)."""
        with self._lock:
            self.inflight += 1

    def rejected(self, why: str) -> None:
        """One request refused at admission (``queue_full``/``draining``)."""
        with self._lock:
            self.rejections_total[why] = self.rejections_total.get(why, 0) + 1

    def finished(self, response: ProbeResponse, seconds: float) -> None:
        """One admitted request completed (any status)."""
        with self._lock:
            self.inflight -= 1
            status = response.status
            self.requests_total[status] = self.requests_total.get(status, 0) + 1
            if status == "unknown" and response.reason:
                self.unknown_total[response.reason] = (
                    self.unknown_total.get(response.reason, 0) + 1
                )
            self.request_seconds.observe(seconds)

    def cache_result(self, kb: Optional[str], hit: Optional[bool]) -> None:
        """Count one per-KB query-cache probe outcome (``None`` = unseen).

        Fed from the request's span forest (the ``cache_probe`` span's
        ``hit`` attribute), so the series exists only while tracing is
        enabled — the per-KB hit *rate* is
        ``hits / (hits + misses)`` per kb label.
        """
        if kb is None or hit is None:
            return
        with self._lock:
            target = self.cache_hits_total if hit else self.cache_misses_total
            target[kb] = target.get(kb, 0) + 1

    def render(
        self,
        queue_capacity: int,
        queue_free: int,
        worker_restarts: int,
        workers_alive: int,
        trace_store_traces: int = 0,
        journal_entries: int = 0,
        journal_lines: int = 0,
        journal_captured: int = 0,
    ) -> str:
        """The Prometheus text exposition of the service plane."""
        with self._lock:
            lines = []

            def counter(name: str, help_text: str, by_label) -> None:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} counter")
                for (label, key), count in by_label:
                    lines.append(f'{name}{{{label}="{key}"}} {count}')

            def gauge(name: str, help_text: str, value: float) -> None:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(value)}")

            gauge(
                "repro_serve_queue_depth",
                "Admitted requests currently queued or running.",
                queue_capacity - queue_free,
            )
            gauge(
                "repro_serve_inflight",
                "Requests currently being answered.",
                self.inflight,
            )
            gauge(
                "repro_serve_workers_alive",
                "Worker shards with a living process.",
                workers_alive,
            )
            lines.append(
                "# HELP repro_serve_worker_restarts_total "
                "Worker processes restarted after a crash or kill."
            )
            lines.append("# TYPE repro_serve_worker_restarts_total counter")
            lines.append(
                f"repro_serve_worker_restarts_total {worker_restarts}"
            )
            counter(
                "repro_serve_requests_total",
                "Completed requests by response status.",
                sorted(
                    (("status", key), count)
                    for key, count in self.requests_total.items()
                ),
            )
            counter(
                "repro_serve_admission_rejections_total",
                "Requests refused at admission control.",
                sorted(
                    (("why", key), count)
                    for key, count in self.rejections_total.items()
                ),
            )
            counter(
                "repro_serve_unknown_total",
                "Structured UNKNOWN answers by degradation reason.",
                sorted(
                    (("reason", key), count)
                    for key, count in self.unknown_total.items()
                ),
            )
            counter(
                "repro_serve_cache_hits_total",
                "Query-cache hits by KB (derived from request traces).",
                sorted(
                    (("kb", key), count)
                    for key, count in self.cache_hits_total.items()
                ),
            )
            counter(
                "repro_serve_cache_misses_total",
                "Query-cache misses by KB (derived from request traces).",
                sorted(
                    (("kb", key), count)
                    for key, count in self.cache_misses_total.items()
                ),
            )
            gauge(
                "repro_serve_trace_store_traces",
                "Reassembled traces held by the in-memory trace store.",
                trace_store_traces,
            )
            gauge(
                "repro_serve_journal_entries",
                "Request-journal entries currently in the ring.",
                journal_entries,
            )
            lines.append(
                "# HELP repro_serve_journal_lines_total "
                "Requests journalled since startup."
            )
            lines.append("# TYPE repro_serve_journal_lines_total counter")
            lines.append(f"repro_serve_journal_lines_total {journal_lines}")
            lines.append(
                "# HELP repro_serve_journal_captured_total "
                "Slow-or-UNKNOWN traces captured to disk."
            )
            lines.append("# TYPE repro_serve_journal_captured_total counter")
            lines.append(
                f"repro_serve_journal_captured_total {journal_captured}"
            )
            name = "repro_serve_request_seconds"
            lines.append(
                f"# HELP {name} Wall-clock latency of admitted requests."
            )
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in self.request_seconds.cumulative_buckets():
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(
                f"{name}_sum {_format_value(self.request_seconds.sum)}"
            )
            lines.append(f"{name}_count {self.request_seconds.count}")
            return "\n".join(lines) + "\n"


class ReproServer:
    """The long-lived reasoning daemon (HTTP + admission + worker pool).

    ``kb_paths`` maps KB names to ontology files; they are loaded lazily
    inside the workers and stay warm for the server's lifetime.
    ``workers=0`` selects inline execution (no crash isolation — for
    tests and single-user setups); ``chaos=True`` arms the
    ``debug_crash``/``debug_stall`` probe kinds used by the
    fault-injection suite and must never be set in production.

    ``max_queue`` is the admission bound: requests admitted but not yet
    answered.  ``default_deadline_ms`` applies when a client sends no
    deadline, so no request can hold a slot forever.

    **Tracing and the journal.**  With ``tracing_enabled`` (the
    default) every request gets a per-request tracer rooted at a
    ``serve_request`` span carrying the request's trace id (minted at
    admission unless the client sent ``X-Trace-Id``); worker-side span
    forests ship back over the result queue and are grafted under the
    server's ``dispatch`` span, and the reassembled tree is kept in a
    bounded :class:`~repro.serve.journal.TraceStore` behind
    ``GET /trace/<id>``.  Every request — including rejections and
    errors — is journalled (:class:`~repro.serve.journal.RequestJournal`);
    ``journal_path`` appends the records to a JSONL file, and
    ``capture_dir`` + ``slow_trace_ms`` arm the slow-or-UNKNOWN trace
    capture policy.  Response *bodies* stay byte-deterministic — ids
    travel in headers only.
    """

    def __init__(
        self,
        kb_paths: Dict[str, str],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 16,
        default_deadline_ms: Optional[float] = 30_000.0,
        retry_after: float = 1.0,
        drain_timeout: float = 5.0,
        chaos: bool = False,
        quiet: bool = True,
        tracing_enabled: bool = True,
        trace_capacity: int = 256,
        journal_capacity: int = 1024,
        journal_path: Optional[str] = None,
        capture_dir: Optional[str] = None,
        slow_trace_ms: float = 1000.0,
        **pool_options,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        self.kb_paths = dict(kb_paths)
        self.default_deadline_ms = default_deadline_ms
        self.retry_after = retry_after
        self.drain_timeout = drain_timeout
        self.quiet = quiet
        self.metrics = ServeMetrics()
        self.tracing_enabled = tracing_enabled
        self.traces = TraceStore(capacity=trace_capacity)
        self.journal = RequestJournal(
            capacity=journal_capacity,
            sink_path=journal_path,
            capture_dir=capture_dir,
            slow_ms=slow_trace_ms,
        )
        self.max_queue = max_queue
        self._slots = threading.Semaphore(max_queue)
        self._slots_free = max_queue
        self._slots_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Event()
        if workers >= 1:
            self.pool = WorkerPool(
                self.kb_paths, workers=workers, allow_chaos=chaos, **pool_options
            )
        else:
            self.pool = InlineExecutor(self.kb_paths)
        self._httpd = _ServeHTTPServer((host, port), _Handler, app=self)
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Start the workers and the HTTP listener (returns immediately)."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Block until the server drains and shuts down (CLI entry)."""
        if self._serve_thread is None:
            self.start()
        self._drained.wait()

    def shutdown_gracefully(self, drain_timeout: Optional[float] = None) -> bool:
        """Drain and stop: the SIGTERM pathway.

        Flips into draining (readiness 503, new probes rejected), waits
        up to the drain deadline for in-flight requests, cancels and
        degrades the rest, stops the pool and the listener.  Idempotent;
        returns ``True`` when everything in flight finished in time.
        """
        if self._draining.is_set():
            self._drained.wait()
            return True
        self._draining.set()
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        deadline = time.monotonic() + max(timeout, 0.0)
        while time.monotonic() < deadline:
            with self._slots_lock:
                quiet = self._slots_free == self.max_queue
            if quiet:
                break
            time.sleep(0.02)
        with self._slots_lock:
            drained = self._slots_free == self.max_queue
        remaining = max(deadline - time.monotonic(), 0.1)
        drained = self.pool.stop(drain_timeout=remaining) and drained
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=2.0)
        self.journal.close()
        self._drained.set()
        return drained

    def close(self) -> None:
        """Tear down without draining (tests and emergency exits)."""
        self.shutdown_gracefully(drain_timeout=0.0)

    # -- request plane -----------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether SIGTERM/drain has been initiated."""
        return self._draining.is_set()

    def ready(self) -> bool:
        """Readiness: workers up, circuit closed, not draining."""
        return not self.draining and self.pool.ready()

    def queue_free(self) -> int:
        """Unclaimed admission slots right now."""
        with self._slots_lock:
            return self._slots_free

    def _try_admit(self) -> bool:
        if not self._slots.acquire(blocking=False):
            return False
        with self._slots_lock:
            self._slots_free -= 1
        return True

    def _release(self) -> None:
        with self._slots_lock:
            self._slots_free += 1
        self._slots.release()

    def handle_probe(
        self,
        body: str,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, ProbeResponse, str]:
        """Answer one ``POST /probe`` body: ``(status, response, trace_id)``.

        Pure request-plane logic, independent of the socket layer so
        tests can drive it directly.  Never raises for client input.
        A usable client-supplied ``trace_id`` is honoured, anything
        else replaced with a freshly minted id; the request runs under
        a per-request tracer (when tracing is enabled), the reassembled
        span forest lands in the trace store, and a journal line is
        written for every outcome — including rejections and errors.
        """
        trace_id = sanitize_trace_id(trace_id) or new_trace_id()
        started = time.monotonic()
        detail: Dict[str, object] = {}
        if not self.tracing_enabled:
            status, response = self._handle_request(body, detail)
            roots = []
        else:
            tracer = Tracer(trace_id=trace_id, process="server")
            with tracing(tracer):
                with obs_span("serve_request") as root:
                    status, response = self._handle_request(body, detail)
                    root.set("status", response.status)
                    if response.kind is not None:
                        root.set("kind", response.kind)
                    if response.kb is not None:
                        root.set("kb", response.kb)
            roots = tracer.roots
            trace_blob = detail.get("trace")
            target = detail.get("dispatch_span")
            if trace_blob and isinstance(target, Span):
                try:
                    graft_spans(target, trace_blob, tracer.epoch)
                except (ValueError, TypeError):
                    pass  # a malformed trace never fails the request
            if roots:
                self.traces.put(trace_id, roots)
        self._journal_request(
            trace_id, request_id, started, response, detail, roots
        )
        return status, response, trace_id

    def _journal_request(
        self,
        trace_id: str,
        request_id: Optional[str],
        started: float,
        response: ProbeResponse,
        detail: Dict[str, object],
        roots,
    ) -> None:
        duration_ms = (time.monotonic() - started) * 1000.0
        request = detail.get("request")
        if request_id is None and isinstance(request, ProbeRequest):
            request_id = request.request_id
        cache_hit, engine = derive_execution(roots)
        if detail.get("admitted") and response.kb is not None:
            self.metrics.cache_result(response.kb, cache_hit)
        self.journal.record(
            JournalEntry(
                trace_id=trace_id,
                status=response.status,
                duration_ms=duration_ms,
                kind=response.kind,
                kb=response.kb,
                reason=response.reason,
                request_id=request_id,
                cache_hit=cache_hit,
                engine=engine,
                worker=detail.get("worker"),
                incarnation=detail.get("incarnation"),
            ),
            roots=roots or None,
        )

    def _handle_request(
        self, body: str, detail: Dict[str, object]
    ) -> Tuple[int, ProbeResponse]:
        with obs_span("admission") as adm:
            try:
                request = ProbeRequest.from_json(body)
            except ProtocolError as exc:
                adm.set("outcome", "bad_request")
                return 400, ProbeResponse.error(str(exc))
            detail["request"] = request
            adm.set("kind", request.kind)
            adm.set("kb", request.kb)
            if request.kind not in ("debug_crash", "debug_stall") and (
                request.kb not in self.kb_paths
            ):
                adm.set("outcome", "unknown_kb")
                return 404, ProbeResponse.error(
                    f"unknown kb {request.kb!r}; serving "
                    f"{sorted(self.kb_paths)}"
                )
            if self.draining:
                adm.set("outcome", "draining")
                self.metrics.rejected("draining")
                return 503, ProbeResponse.rejected(
                    self.retry_after, "server is draining"
                )
            if not self._try_admit():
                adm.set("outcome", "queue_full")
                self.metrics.rejected("queue_full")
                return 429, ProbeResponse.rejected(
                    self.retry_after,
                    f"admission queue full ({self.max_queue} slots)",
                )
            adm.set("outcome", "admitted")
        detail["admitted"] = True
        self.metrics.admitted()
        started = time.monotonic()
        status, response = 500, ProbeResponse.error("internal server error")
        try:
            status, response = self._run_admitted(request, started, detail)
        finally:
            self._release()
            self.metrics.finished(response, time.monotonic() - started)
        return status, response

    def _run_admitted(
        self, request: ProbeRequest, started: float, detail: Dict[str, object]
    ) -> Tuple[int, ProbeResponse]:
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            # Already over deadline at admission: Budget would refuse a
            # non-positive deadline, so degrade before building one.
            return 504, ProbeResponse.unknown(
                DegradationReason.DEADLINE,
                f"deadline_ms={deadline_ms!r} is already exhausted "
                "at admission",
                request,
            )
        deadline_at = (
            started + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        with obs_span("dispatch") as dsp:
            trace_id = None
            if isinstance(dsp, Span):
                detail["dispatch_span"] = dsp
                trace_id = dsp.trace_id
            pending = self.pool.submit(
                request, deadline_at=deadline_at, trace_id=trace_id
            )
            wait = None
            if deadline_at is not None:
                # The watchdog escalates a wedged worker at
                # deadline+grace; give it room to do so before the HTTP
                # layer gives up.
                wait = (deadline_at - time.monotonic()) + 2.0 * getattr(
                    self.pool, "stall_grace", 1.0
                ) + 0.5
            response = pending.wait(wait)
            if response is None:
                response = ProbeResponse.unknown(
                    DegradationReason.DEADLINE,
                    "request exceeded its deadline in flight",
                    request,
                )
            pool_detail = pending.detail
            if pool_detail:
                detail.update(pool_detail)
                if pool_detail.get("worker") is not None:
                    dsp.set("worker", pool_detail["worker"])
                if pool_detail.get("incarnation") is not None:
                    dsp.set("incarnation", pool_detail["incarnation"])
                if pool_detail.get("crashed"):
                    dsp.set("crashed", True)
        return self._http_status(response), response

    @staticmethod
    def _http_status(response: ProbeResponse) -> int:
        if response.status == "ok":
            return 200
        if response.status == "unknown":
            if response.reason in _SERVER_SIDE_REASONS:
                return 503
            return 504
        if response.status == "rejected":
            return 429
        return 400


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, app: ReproServer):
        self.app = app
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    timeout = SOCKET_TIMEOUT_S

    @property
    def app(self) -> ReproServer:
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.app.quiet:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------
    def _send(
        self,
        status: int,
        body: str,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = body.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; the answer (and any
            # cache warmth it produced) is simply dropped.  Nothing to
            # clean up: admission slots are released by the caller.
            self.close_connection = True

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        app = self.app
        if self.path == "/healthz":
            self._send(200, json.dumps({"status": "alive"}, sort_keys=True))
        elif self.path == "/readyz":
            if app.ready():
                self._send(200, json.dumps({"status": "ready"}, sort_keys=True))
            else:
                self._send(
                    503,
                    json.dumps(
                        {
                            "status": "unready",
                            "draining": app.draining,
                        },
                        sort_keys=True,
                    ),
                    headers={"Retry-After": str(app.retry_after)},
                )
        elif self.path == "/metrics":
            body = app.metrics.render(
                queue_capacity=app.max_queue,
                queue_free=app.queue_free(),
                worker_restarts=app.pool.restarts_total(),
                workers_alive=app.pool.workers_alive(),
                trace_store_traces=len(app.traces),
                journal_entries=len(app.journal),
                journal_lines=app.journal.lines_total,
                journal_captured=app.journal.captured_total,
            )
            self._send(200, body, content_type="text/plain; version=0.0.4")
        elif self.path == "/kbs":
            self._send(
                200, json.dumps({"kbs": sorted(app.kb_paths)}, sort_keys=True)
            )
        elif self.path == "/traces":
            self._send(
                200, json.dumps({"traces": app.traces.ids()}, sort_keys=True)
            )
        elif self.path.startswith("/trace/"):
            trace_id = self.path[len("/trace/"):]
            roots = app.traces.get(trace_id)
            if roots is None:
                self._send(
                    404,
                    ProbeResponse.error(
                        f"no stored trace {trace_id!r} (expired or never "
                        "recorded; the store is bounded)"
                    ).to_json(),
                )
            else:
                self._send(
                    200,
                    spans_to_jsonl(roots),
                    content_type="application/x-ndjson",
                )
        elif self.path == "/journal":
            body = "".join(
                json.dumps(entry.to_record(), sort_keys=True) + "\n"
                for entry in self.app.journal.recent()
            )
            self._send(200, body, content_type="application/x-ndjson")
        else:
            self._send(
                404,
                ProbeResponse.error(f"no such endpoint {self.path!r}").to_json(),
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path != "/probe":
            self._send(
                404,
                ProbeResponse.error(f"no such endpoint {self.path!r}").to_json(),
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            length, problem = -1, f"unreadable Content-Length: {exc}"
        else:
            problem = f"negative Content-Length {length}"
        if length < 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                status = 413
                problem = (
                    f"Content-Length {length} exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            else:
                status = 400
            self._send(status, ProbeResponse.error(problem).to_json())
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
        except TimeoutError:
            self.close_connection = True
            self._send(
                408,
                ProbeResponse.error(
                    f"body shorter than its Content-Length {length}"
                ).to_json(),
            )
            return
        except (UnicodeDecodeError, ConnectionError) as exc:
            self._send(
                400, ProbeResponse.error(f"unreadable body: {exc}").to_json()
            )
            return
        request_id = self.headers.get("X-Request-Id")
        if request_id is None:
            try:
                record = json.loads(body)
                if isinstance(record, dict):
                    request_id = record.get("request_id")
            except (json.JSONDecodeError, ValueError):
                request_id = None
        status, response, trace_id = self.app.handle_probe(
            body,
            trace_id=self.headers.get("X-Trace-Id"),
            request_id=request_id if isinstance(request_id, str) else None,
        )
        headers: Dict[str, str] = {"X-Trace-Id": trace_id}
        if isinstance(request_id, str) and request_id:
            headers["X-Request-Id"] = request_id
        if status in (429, 503):
            headers["Retry-After"] = str(self.app.retry_after)
        self._send(status, response.to_json(), headers=headers)
