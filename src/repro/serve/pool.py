"""KB registry, probe execution, and the supervised worker process pool.

CPython reasoning is CPU-bound, so the service executes probes in
worker *processes*, sharded by KB name: every request for one KB lands
on the same worker, whose :class:`~repro.four_dl.reasoner4.Reasoner4`
(and therefore its :class:`~repro.dl.cache.QueryCache` and transform
memo) stays warm across requests — the whole point of a long-lived
daemon versus paying process startup and a cold parse per query.

Crash isolation is the contract, not an accident:

* a worker that dies (segfault, ``os._exit``, OOM-kill) is detected by
  the supervisor within one poll interval; its in-flight requests are
  answered with structured UNKNOWN (``reason=worker_crash``) instead of
  hanging, and the worker is restarted under exponential backoff;
* a *wedged* worker (in-flight request far past its deadline without
  the budget meter firing) is first cancelled cooperatively through a
  shared :class:`~repro.dl.budget.CancelToken` event, then killed and
  treated as a crash;
* repeated deaths trip a circuit breaker: after
  ``circuit_threshold`` consecutive crashes the shard fails fast
  (immediate UNKNOWN) until a long cool-down elapses, so a poison
  request cannot melt the pool with restart churn;
* requests that arrive while a shard is between incarnations wait in a
  bounded-by-deadline backlog and are dispatched after the restart —
  graceful degradation, never silent loss.

Because a worker's caches die with it, answers after a restart are
computed cold — which is exactly why the server-level chaos suite can
demand byte-identical bodies before and after a crash: the cache can
accelerate answers but never change them.

:class:`InlineExecutor` provides the same ``submit`` surface without
processes (probes run on the calling thread, per-KB locked) for
single-process deployments and tests; it refuses chaos probes since a
``debug_crash`` would take the whole server down with it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from ..dl.budget import Budget, CancelToken
from ..dl.errors import DegradationReason, ParseError, ReproError
from ..dl.individuals import Individual
from ..dl.parser import ConceptParser, parse_kb4
from ..four_dl.axioms4 import ConceptInclusion4, InclusionKind
from ..four_dl.reasoner4 import Reasoner4
from ..obs.export import spans_to_records
from ..obs.spans import Tracer, span as obs_span, tracing
from .protocol import CHAOS_KINDS, ProbeRequest, ProbeResponse

__all__ = [
    "KBRegistry",
    "execute_probe",
    "PendingProbe",
    "WorkerPool",
    "InlineExecutor",
]

#: How long a request without a client deadline may hold a worker
#: before the stall watchdog steps in.
DEFAULT_MAX_REQUEST_S = 60.0


class KBRegistry:
    """Named ontologies, parsed once and served warm.

    Maps KB names to file paths; each KB is parsed and wrapped in a
    :class:`~repro.four_dl.reasoner4.Reasoner4` on first use and kept
    for the registry's lifetime, so every later probe shares the same
    query cache and transform memo.  Probe execution is serialised
    per KB by a lock: the reasoner's tableau state is single-threaded
    even though its cache is now concurrency-safe.
    """

    def __init__(self, kb_paths: Dict[str, str]):
        self._paths = dict(kb_paths)
        self._lock = threading.Lock()
        self._loaded: Dict[str, Tuple[Reasoner4, threading.Lock]] = {}
        # Per KB: (KB4 version, concept parser built for that version).
        self._parsers: Dict[str, Tuple[int, ConceptParser]] = {}

    @property
    def names(self) -> Tuple[str, ...]:
        """The registered KB names, sorted."""
        return tuple(sorted(self._paths))

    def __contains__(self, name: str) -> bool:
        return name in self._paths

    def reasoner(self, name: str) -> Tuple[Reasoner4, threading.Lock]:
        """The warm reasoner and its execution lock for one KB.

        Raises ``KeyError`` for unregistered names (the server turns
        that into a 404 at admission, before any work is queued).
        """
        with self._lock:
            found = self._loaded.get(name)
            if found is not None:
                return found
            path = self._paths[name]
        with open(path) as handle:
            kb4 = parse_kb4(handle.read())
        entry = (Reasoner4(kb4), threading.Lock())
        with self._lock:
            return self._loaded.setdefault(name, entry)

    def concept_parser(self, name: str) -> ConceptParser:
        """The concept parser of one loaded KB, for its current version.

        The parser needs the KB's datatype roles, a scan of the whole
        KB, so it is built once per KB version instead of per request.
        Call it under the KB's execution lock.
        """
        kb4 = self.reasoner(name)[0].kb4
        cached = self._parsers.get(name)
        if cached is None or cached[0] != kb4.version:
            roles = kb4.datatype_roles_in_signature()
            cached = (kb4.version, ConceptParser(role.name for role in roles))
            self._parsers[name] = cached
        return cached[1]


def request_budget(
    request: ProbeRequest,
    deadline_at: Optional[float],
    cancel: Optional[CancelToken] = None,
) -> Optional[Budget]:
    """The resource envelope admission granted this request.

    ``deadline_at`` is the absolute monotonic instant the client's
    deadline expires (queue wait counts against it, which is the honest
    reading of "remaining deadline").  Returns ``None`` when the
    deadline has already passed — the caller must degrade to UNKNOWN
    without running anything, since :class:`~repro.dl.budget.Budget`
    correctly refuses non-positive deadlines.
    """
    deadline = None
    if deadline_at is not None:
        deadline = deadline_at - time.monotonic()
        if deadline <= 0:
            return None
    return Budget(
        deadline=deadline,
        max_nodes=request.max_nodes,
        max_branches=request.max_branches,
        cancel=cancel,
    )


def execute_probe(
    registry: KBRegistry,
    request: ProbeRequest,
    budget: Optional[Budget] = None,
    allow_chaos: bool = False,
) -> ProbeResponse:
    """Answer one probe against the registry (never raises for user input).

    Usage problems — unknown KB, unparsable concept expressions —
    return ``status="error"`` responses; resource exhaustion surfaces
    as the structured UNKNOWN the underlying verdict APIs produce.
    Chaos probes (``debug_crash`` / ``debug_stall``) are honoured only
    under ``allow_chaos`` and exist so the fault-injection suite can
    address a deterministic worker step from outside the process.
    """
    with obs_span("probe_execute") as span:
        span.set("kind", request.kind)
        span.set("kb", request.kb)
        if request.kind in CHAOS_KINDS:
            if not allow_chaos:
                return ProbeResponse.error(
                    f"probe kind {request.kind!r} requires a --chaos server"
                )
            if request.kind == "debug_crash":
                # Simulates a worker dying mid-request: no response is
                # ever written, the supervisor must notice the corpse.
                os._exit(43)
            time.sleep(request.stall_s)
            return ProbeResponse(
                status="ok", kind=request.kind, kb=request.kb, value=True
            )
        if request.kb not in registry:
            return ProbeResponse.error(f"unknown kb {request.kb!r}")
        try:
            reasoner, lock = registry.reasoner(request.kb)
        except (OSError, ParseError) as exc:
            return ProbeResponse.error(
                f"kb {request.kb!r} failed to load: {exc}"
            )
        try:
            with lock:
                parser = registry.concept_parser(request.kb)
                response = _dispatch(reasoner, parser, request, budget)
        except ReproError as exc:
            response = ProbeResponse.error(f"{type(exc).__name__}: {exc}")
        span.set("status", response.status)
        return response


def _dispatch(
    reasoner: Reasoner4,
    parser: ConceptParser,
    request: ProbeRequest,
    budget: Optional[Budget],
) -> ProbeResponse:
    if request.kind == "satisfiable":
        return ProbeResponse.from_verdict(
            request, reasoner.is_satisfiable_verdict(budget=budget)
        )
    if request.kind == "instance":
        concept = parser.parse(request.concept)
        verdict = reasoner.evidence_for_verdict(
            Individual(request.individual), concept, budget=budget
        )
        return ProbeResponse.from_verdict(request, verdict)
    if request.kind == "subsumption":
        sub = parser.parse(request.sub)
        sup = parser.parse(request.sup)
        inclusion = ConceptInclusion4(
            sub, sup, InclusionKind[request.inclusion.upper()]
        )
        verdict = reasoner.entails_verdict(inclusion, budget=budget)
        return ProbeResponse.from_verdict(request, verdict)
    if request.kind == "assertion_value":
        concept = parser.parse(request.concept)
        bounded = reasoner.assertion_value_bounded(
            Individual(request.individual), concept, budget=budget
        )
        return ProbeResponse.from_four_value(request, bounded)
    return ProbeResponse.error(f"unhandled probe kind {request.kind!r}")


# ---------------------------------------------------------------------------
# Worker process pool
# ---------------------------------------------------------------------------

def shard_of(kb: str, workers: int) -> int:
    """The stable shard index of a KB name (survives restarts)."""
    return zlib.crc32(kb.encode("utf-8")) % workers


class PendingProbe:
    """A one-shot future for an in-flight request (first resolve wins)."""

    __slots__ = (
        "_event",
        "_response",
        "deadline_at",
        "detail",
        "kill_at",
        "request_id",
    )

    def __init__(
        self,
        request_id: str,
        deadline_at: Optional[float],
        kill_at: float,
    ):
        self._event = threading.Event()
        self._response: Optional[ProbeResponse] = None
        self.request_id = request_id
        #: Absolute monotonic client deadline (None = no client deadline).
        self.deadline_at = deadline_at
        #: When the stall watchdog may escalate to killing the worker.
        self.kill_at = kill_at
        #: Execution metadata set at resolve time: which worker/
        #: incarnation answered, plus the shipped span forest
        #: (``{"trace": {...}, "worker": ..., "incarnation": ...}``).
        self.detail: Optional[Dict] = None

    def resolve(
        self, response: ProbeResponse, detail: Optional[Dict] = None
    ) -> bool:
        """Deliver the response; returns False if already resolved."""
        if self._event.is_set():
            return False
        self.detail = detail
        self._response = response
        self._event.set()
        return True

    @property
    def resolved(self) -> bool:
        """Whether a response has been delivered."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float]) -> Optional[ProbeResponse]:
        """Block for the response; ``None`` on timeout."""
        if self._event.wait(timeout):
            return self._response
        return None


class _Incarnation:
    """One living worker process plus its private channels."""

    def __init__(self, proc, task_queue, result_queue, cancel_event, number):
        self.proc = proc
        self.task_queue = task_queue
        self.result_queue = result_queue
        self.cancel_event = cancel_event
        #: 1-based incarnation counter within the shard (so a journal
        #: line can say "the third worker this shard has had").
        self.number = number
        self.pending: Dict[str, PendingProbe] = {}


class _Shard:
    """Supervisor-side state of one KB shard."""

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.RLock()
        self.incarnation: Optional[_Incarnation] = None
        #: Requests awaiting a live worker (shard between incarnations):
        #: ``(pending, envelope, deadline_at, trace_id)``.
        self.backlog: List[
            Tuple[PendingProbe, dict, Optional[float], Optional[str]]
        ] = []
        self.consecutive_crashes = 0
        self.restarts = 0
        self.incarnations = 0
        self.next_restart_at = 0.0

    @property
    def worker_label(self) -> str:
        """The stable process label of this shard's workers."""
        return f"worker-{self.index}"


def _worker_main(
    kb_paths: Dict[str, str],
    allow_chaos: bool,
    task_queue,
    result_queue,
    cancel_event,
    process_label: str = "worker",
) -> None:
    """The worker loop: parse envelope, run probe, ship the wire response.

    Runs in the child process.  The cancel event is shared with the
    supervisor, which sets it to abort the *current* probe (cleared
    before each request); the probe's budget polls it through its
    :class:`~repro.dl.budget.CancelToken`, so cross-process
    cancellation rides the same cooperative pathway as local cancels.

    When the envelope carries a ``trace_id`` the probe runs under a
    per-request :class:`~repro.obs.spans.Tracer` labelled with this
    process, and the finished span forest ships back alongside the
    response (records + the tracer's perf_counter epoch, so the server
    can rebase the spans onto its own clock).
    """
    registry = KBRegistry(kb_paths)
    while True:
        envelope = task_queue.get()
        if envelope is None:
            return
        request_id, wire, deadline_at, trace_id = envelope
        cancel_event.clear()
        tracer: Optional[Tracer] = None
        if trace_id is not None:
            tracer = Tracer(trace_id=trace_id, process=process_label)
        try:
            request = ProbeRequest.from_wire(wire)
            budget = request_budget(
                request, deadline_at, cancel=CancelToken(event=cancel_event)
            )
            if deadline_at is not None and budget is None:
                response = ProbeResponse.unknown(
                    DegradationReason.DEADLINE,
                    "deadline exhausted while queued",
                    request,
                )
            else:
                with tracing(tracer):
                    response = execute_probe(
                        registry,
                        request,
                        budget=budget,
                        allow_chaos=allow_chaos,
                    )
        except Exception as exc:  # defensive: a worker must keep serving
            response = ProbeResponse.error(f"{type(exc).__name__}: {exc}")
        trace_blob = None
        if tracer is not None and tracer.roots:
            try:
                trace_blob = {
                    "epoch": tracer.epoch,
                    "spans": spans_to_records(tracer.roots),
                }
            except Exception:  # never fail a request over telemetry
                trace_blob = None
        result_queue.put((request_id, response.to_wire(), trace_blob))


class WorkerPool:
    """A supervised, KB-sharded pool of reasoning worker processes.

    ``workers`` processes are started eagerly (so ``/readyz`` reflects
    genuine capacity); each KB name maps to one shard by stable hash,
    giving every KB cache affinity with exactly one worker.  The
    supervisor (a monitor thread polling every ``poll_interval``
    seconds) implements the failure policy described in the module
    docstring; ``stall_grace`` is how far past a request's deadline the
    supervisor waits before cancelling and then killing a wedged
    worker, and ``circuit_cooldown`` is the fail-fast window after
    ``circuit_threshold`` consecutive crashes.
    """

    def __init__(
        self,
        kb_paths: Dict[str, str],
        workers: int = 2,
        allow_chaos: bool = False,
        restart_backoff: float = 0.1,
        backoff_cap: float = 5.0,
        circuit_threshold: int = 5,
        circuit_cooldown: float = 30.0,
        stall_grace: float = 1.0,
        poll_interval: float = 0.02,
        max_request_s: float = DEFAULT_MAX_REQUEST_S,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.kb_paths = dict(kb_paths)
        self.workers = workers
        self.allow_chaos = allow_chaos
        self.restart_backoff = restart_backoff
        self.backoff_cap = backoff_cap
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown = circuit_cooldown
        self.stall_grace = stall_grace
        self.poll_interval = poll_interval
        self.max_request_s = max_request_s
        self._context = multiprocessing.get_context("fork")
        self._shards = [_Shard(index) for index in range(workers)]
        self._ids = itertools.count(1)
        self._stopping = False
        self._started = False
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every shard's first worker and the supervisor thread."""
        if self._started:
            return
        self._started = True
        for shard in self._shards:
            self._start_incarnation(shard)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self, drain_timeout: float = 5.0) -> bool:
        """Drain in-flight work, then shut every worker down.

        Waits up to ``drain_timeout`` seconds for in-flight requests to
        finish; whatever remains is cancelled cooperatively, answered
        UNKNOWN (``cancelled``), and the workers are terminated.
        Returns ``True`` when the drain completed with nothing left
        in flight.
        """
        self._stopping = True
        deadline = time.monotonic() + max(drain_timeout, 0.0)
        drained = True
        while time.monotonic() < deadline:
            if self.inflight() == 0:
                break
            time.sleep(min(self.poll_interval, 0.05))
        else:
            drained = self.inflight() == 0
        for shard in self._shards:
            with shard.lock:
                incarnation = shard.incarnation
                shard.incarnation = None
                leftovers = []
                if incarnation is not None:
                    leftovers.extend(incarnation.pending.values())
                    incarnation.pending.clear()
                leftovers.extend(entry[0] for entry in shard.backlog)
                shard.backlog.clear()
            for pending in leftovers:
                drained = False
                pending.resolve(
                    ProbeResponse.unknown(
                        DegradationReason.CANCELLED, "server draining"
                    )
                )
            if incarnation is not None:
                incarnation.cancel_event.set()
                try:
                    incarnation.task_queue.put_nowait(None)
                except Exception:
                    pass
                incarnation.proc.join(timeout=1.0)
                if incarnation.proc.is_alive():
                    incarnation.proc.terminate()
                    incarnation.proc.join(timeout=1.0)
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        return drained

    # -- introspection ---------------------------------------------------
    def ready(self) -> bool:
        """Whether every shard has a live worker and a closed circuit."""
        if not self._started or self._stopping:
            return False
        for shard in self._shards:
            with shard.lock:
                incarnation = shard.incarnation
                if incarnation is None or not incarnation.proc.is_alive():
                    return False
                if shard.consecutive_crashes >= self.circuit_threshold:
                    return False
        return True

    def inflight(self) -> int:
        """Requests currently dispatched or backlogged across all shards."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                if shard.incarnation is not None:
                    total += len(shard.incarnation.pending)
                total += len(shard.backlog)
        return total

    def restarts_total(self) -> int:
        """Worker restarts since the pool started (first starts excluded)."""
        return sum(shard.restarts for shard in self._shards)

    def workers_alive(self) -> int:
        """How many shards currently have a living worker process."""
        alive = 0
        for shard in self._shards:
            with shard.lock:
                incarnation = shard.incarnation
                if incarnation is not None and incarnation.proc.is_alive():
                    alive += 1
        return alive

    def worker_pids(self) -> List[int]:
        """The PIDs of the living workers (the chaos/CI kill target)."""
        pids = []
        for shard in self._shards:
            with shard.lock:
                incarnation = shard.incarnation
                if incarnation is not None and incarnation.proc.is_alive():
                    pids.append(incarnation.proc.pid)
        return pids

    # -- submission ------------------------------------------------------
    def submit(
        self,
        request: ProbeRequest,
        deadline_at: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> PendingProbe:
        """Dispatch a request to its KB shard; returns its future.

        Never blocks and never raises for runtime conditions: a
        stopping pool, an open circuit, or a dead shard resolve the
        future immediately with the matching structured response.
        ``trace_id`` (when given) rides the task envelope and turns on
        per-request tracing inside the worker.
        """
        now = time.monotonic()
        kill_at = (
            deadline_at if deadline_at is not None else now + self.max_request_s
        ) + self.stall_grace
        pending = PendingProbe(
            request_id=f"r{next(self._ids)}",
            deadline_at=deadline_at,
            kill_at=kill_at,
        )
        if self._stopping or not self._started:
            pending.resolve(
                ProbeResponse.unknown(
                    DegradationReason.CANCELLED, "server draining"
                )
            )
            return pending
        shard = self._shards[shard_of(request.kb, self.workers)]
        envelope = request.to_wire()
        with shard.lock:
            if shard.consecutive_crashes >= self.circuit_threshold:
                pending.resolve(
                    ProbeResponse.unknown(
                        DegradationReason.WORKER_CRASH,
                        f"circuit open after {shard.consecutive_crashes} "
                        f"consecutive worker crashes; retrying at most every "
                        f"{self.circuit_cooldown:.0f}s",
                        request,
                    )
                )
                return pending
            incarnation = shard.incarnation
            if incarnation is None or not incarnation.proc.is_alive():
                shard.backlog.append((pending, envelope, deadline_at, trace_id))
                return pending
            incarnation.pending[pending.request_id] = pending
            incarnation.task_queue.put(
                (pending.request_id, envelope, deadline_at, trace_id)
            )
        return pending

    # -- supervision -------------------------------------------------
    def _start_incarnation(self, shard: _Shard) -> None:
        task_queue = self._context.Queue()
        result_queue = self._context.Queue()
        cancel_event = self._context.Event()
        proc = self._context.Process(
            target=_worker_main,
            args=(
                self.kb_paths,
                self.allow_chaos,
                task_queue,
                result_queue,
                cancel_event,
                shard.worker_label,
            ),
            name=f"repro-serve-worker-{shard.index}",
            daemon=True,
        )
        proc.start()
        with shard.lock:
            shard.incarnations += 1
            number = shard.incarnations
        incarnation = _Incarnation(
            proc, task_queue, result_queue, cancel_event, number
        )
        with shard.lock:
            shard.incarnation = incarnation
            backlog, shard.backlog = shard.backlog, []
            for pending, envelope, deadline_at, trace_id in backlog:
                incarnation.pending[pending.request_id] = pending
                task_queue.put(
                    (pending.request_id, envelope, deadline_at, trace_id)
                )
        collector = threading.Thread(
            target=self._collect,
            args=(shard, incarnation),
            name=f"repro-serve-collector-{shard.index}",
            daemon=True,
        )
        collector.start()

    def _collect(self, shard: _Shard, incarnation: _Incarnation) -> None:
        """Drain one incarnation's result queue until it dies or drains."""
        while True:
            try:
                item = incarnation.result_queue.get(timeout=0.1)
            except queue_module.Empty:
                if not incarnation.proc.is_alive():
                    return
                continue
            except (EOFError, OSError):
                return
            if item is None:
                return
            request_id, wire, trace_blob = item
            with shard.lock:
                pending = incarnation.pending.pop(request_id, None)
                shard.consecutive_crashes = 0
            if pending is not None:
                detail = {
                    "worker": shard.worker_label,
                    "incarnation": incarnation.number,
                    "trace": trace_blob,
                }
                try:
                    pending.resolve(ProbeResponse.from_wire(wire), detail)
                except Exception:
                    pending.resolve(
                        ProbeResponse.error("worker sent a malformed response"),
                        detail,
                    )

    def _fail_incarnation(self, shard: _Shard, now: float) -> None:
        """Handle one dead worker: fail in-flight, schedule the restart."""
        with shard.lock:
            incarnation = shard.incarnation
            shard.incarnation = None
            if incarnation is None:
                return
            victims = list(incarnation.pending.values())
            incarnation.pending.clear()
            shard.consecutive_crashes += 1
            crashes = shard.consecutive_crashes
            if crashes >= self.circuit_threshold:
                delay = self.circuit_cooldown
            else:
                delay = min(
                    self.backoff_cap,
                    self.restart_backoff * (2.0 ** (crashes - 1)),
                )
            shard.next_restart_at = now + delay
        incarnation.proc.join(timeout=0.5)
        exitcode = incarnation.proc.exitcode
        for pending in victims:
            pending.resolve(
                ProbeResponse.unknown(
                    DegradationReason.WORKER_CRASH,
                    f"worker for this KB shard died (exit {exitcode}) "
                    "before answering; it is being restarted",
                ),
                {
                    "worker": shard.worker_label,
                    "incarnation": incarnation.number,
                    "crashed": True,
                },
            )

    def _monitor_loop(self) -> None:
        while not self._stopping:
            now = time.monotonic()
            for shard in self._shards:
                with shard.lock:
                    incarnation = shard.incarnation
                    crashed = (
                        incarnation is not None
                        and not incarnation.proc.is_alive()
                    )
                if crashed:
                    self._fail_incarnation(shard, now)
                    continue
                if incarnation is None:
                    if now >= shard.next_restart_at and not self._stopping:
                        shard.restarts += 1
                        if shard.consecutive_crashes >= self.circuit_threshold:
                            # Half-open: one probe incarnation; a further
                            # crash re-opens the circuit for a full
                            # cool-down, a success closes it.
                            shard.consecutive_crashes = (
                                self.circuit_threshold - 1
                            )
                        self._start_incarnation(shard)
                    else:
                        self._expire_backlog(shard, now)
                    continue
                self._watch_stalls(shard, incarnation, now)
            time.sleep(self.poll_interval)

    def _expire_backlog(self, shard: _Shard, now: float) -> None:
        expired = []
        with shard.lock:
            keep = []
            for entry in shard.backlog:
                pending = entry[0]
                if pending.deadline_at is not None and now > pending.deadline_at:
                    expired.append(pending)
                else:
                    keep.append(entry)
            shard.backlog = keep
        for pending in expired:
            pending.resolve(
                ProbeResponse.unknown(
                    DegradationReason.DEADLINE,
                    "deadline exhausted while waiting for a worker restart",
                )
            )

    def _watch_stalls(
        self, shard: _Shard, incarnation: _Incarnation, now: float
    ) -> None:
        """Escalate wedged requests: cooperative cancel, then kill."""
        with shard.lock:
            if incarnation is not shard.incarnation:
                return
            stalled = [
                pending
                for pending in incarnation.pending.values()
                if now > pending.kill_at
            ]
            hard_stalled = any(
                now > pending.kill_at + self.stall_grace for pending in stalled
            )
        if not stalled:
            return
        # First escalation: ask nicely through the shared cancel event —
        # a healthy-but-slow worker aborts with UNKNOWN(cancelled).
        incarnation.cancel_event.set()
        if hard_stalled:
            # Second escalation: the worker ignored cancellation for a
            # full extra grace period; treat it as wedged and kill it.
            # The crash pathway answers its in-flight requests.
            incarnation.proc.kill()


class InlineExecutor:
    """The pool surface without processes: probes run on the caller.

    Used by ``repro serve --workers 0`` and by tests that want the
    admission/HTTP layers without fork overhead.  There is no crash
    isolation here — chaos probes are refused rather than honoured.
    """

    def __init__(self, kb_paths: Dict[str, str]):
        self.registry = KBRegistry(kb_paths)
        self._stopping = False

    def start(self) -> None:
        """Nothing to spawn; present for interface parity."""

    def stop(self, drain_timeout: float = 5.0) -> bool:
        """Mark the executor stopped (in-flight probes finish inline)."""
        self._stopping = True
        return True

    def ready(self) -> bool:
        """Inline execution is ready as soon as the server is up."""
        return not self._stopping

    def inflight(self) -> int:
        """Inline probes resolve synchronously; nothing is ever queued."""
        return 0

    def restarts_total(self) -> int:
        """No workers, no restarts."""
        return 0

    def workers_alive(self) -> int:
        """No worker processes exist in inline mode."""
        return 0

    def worker_pids(self) -> List[int]:
        """No worker processes exist in inline mode."""
        return []

    def submit(
        self,
        request: ProbeRequest,
        deadline_at: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> PendingProbe:
        """Execute the probe synchronously; the future is born resolved.

        ``trace_id`` is accepted for interface parity but unused: the
        probe runs on the caller's thread, so its spans land directly
        inside the server's per-request tracer — no shipping needed.
        """
        pending = PendingProbe(
            request_id="inline", deadline_at=deadline_at, kill_at=0.0
        )
        detail = {"worker": "inline", "incarnation": 0}
        if self._stopping:
            pending.resolve(
                ProbeResponse.unknown(
                    DegradationReason.CANCELLED, "server draining"
                ),
                detail,
            )
            return pending
        if request.kind in CHAOS_KINDS:
            pending.resolve(
                ProbeResponse.error(
                    "chaos probes need a worker pool (--workers >= 1)"
                ),
                detail,
            )
            return pending
        budget = request_budget(request, deadline_at, cancel=CancelToken())
        if deadline_at is not None and budget is None:
            pending.resolve(
                ProbeResponse.unknown(
                    DegradationReason.DEADLINE,
                    "deadline exhausted while queued",
                    request,
                ),
                detail,
            )
            return pending
        pending.resolve(
            execute_probe(self.registry, request, budget=budget), detail
        )
        return pending
