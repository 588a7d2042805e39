"""Server-level fault injection: chaos testing for :mod:`repro.serve`.

The library-level harness (:mod:`repro.harness.chaos`) proves the
degradation layer can absorb mid-search faults; this module proves the
*service* built on top of it absorbs operational faults — the kinds a
deployment actually sees:

* ``worker_kill`` — SIGKILL a worker with a request in flight; the
  request must be answered with structured UNKNOWN
  (``reason=worker_crash``), the worker must restart, and readiness
  must recover;
* ``stall`` — wedge a worker past a request's deadline; the stall
  watchdog must cancel, then kill, and the request must degrade rather
  than hang;
* ``malformed`` — a battery of broken payloads (invalid JSON, wrong
  types, unknown kinds, missing required fields, bad schema versions)
  must each earn a 400-style usage error and leave the server ready,
  and hostile ``Content-Length`` headers (negative, or past the body
  cap) must be answered 400 / 413 within two seconds on a keep-alive
  socket, never holding a handler thread;
* ``disconnect`` — a client that sends a probe and slams the
  connection must not wedge a handler thread or leak an admission slot;
* ``queue_saturation`` — a burst beyond the admission bound must be
  shed with 429 + ``Retry-After``, never queued unboundedly.

After every fault the verifier replays a deterministic probe battery
and demands the response bodies be **byte-identical** to a cold
server's (one that never saw the fault).  Because responses are
canonical JSON with no volatile fields, byte equality is exactly the
"cache never poisoned, recovery is complete" invariant: a worker that
restarted answers from a cold cache, and a warm survivor may only ever
*agree* faster.

Every scenario runs with per-request tracing enabled (the default), so
the byte-identity check doubles as proof that trace collection never
leaks into response bodies; a final trace-plane check demands the
replayed battery left served traces and journal lines behind.

Typical use::

    from repro.harness.server_chaos import run_server_chaos_suite
    report = run_server_chaos_suite("ontologies/university.kb4")
    assert report.ok, report.render()
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dl.parser import parse_kb4
from ..serve.protocol import ProbeRequest, ProbeResponse
from ..serve.server import MAX_BODY_BYTES, ReproServer

__all__ = [
    "SERVER_FAULT_KINDS",
    "ServerChaosCaseResult",
    "ServerChaosReport",
    "battery_for",
    "run_server_chaos_case",
    "run_server_chaos_suite",
]

#: The injectable service-level fault kinds.
SERVER_FAULT_KINDS: Tuple[str, ...] = (
    "worker_kill",
    "stall",
    "malformed",
    "disconnect",
    "queue_saturation",
)

#: Payloads for the ``malformed`` fault: every way a request can be
#: broken without being a transport error.
MALFORMED_BODIES: Tuple[str, ...] = (
    "this is not json",
    "[1, 2, 3]",
    '{"kind": "satisfiable"}',
    '{"kind": "made_up_kind", "kb": "university"}',
    '{"kind": "instance", "kb": "university"}',
    '{"kind": "satisfiable", "kb": "university", "deadline_ms": "soon"}',
    '{"kind": "satisfiable", "kb": "university", "schema": 999}',
    '{"kind": "subsumption", "kb": "university", "sub": "A", "sup": "B",'
    ' "inclusion": "sideways"}',
)

#: Hostile ``Content-Length`` headers for the ``malformed`` fault, each
#: with the status it must earn: ``-1`` would read to an EOF a
#: keep-alive client never sends; past the cap the body goes unread.
HOSTILE_LENGTHS: Tuple[Tuple[str, int], ...] = (
    ("-1", 400),
    (str(MAX_BODY_BYTES + 1), 413),
)


def battery_for(
    kb_name: str,
    kb_path: str,
    deadline_ms: float = 20_000.0,
    max_atoms: int = 3,
    max_individuals: int = 2,
) -> List[ProbeRequest]:
    """A deterministic probe battery over one served KB's signature.

    Mirrors :func:`repro.harness.chaos.probe_plan` but speaks the wire
    protocol: satisfiability first, then subsumption pairs over the
    first atoms, then instance and Belnap-value checks over the first
    individuals.  Deterministic ordering makes the replies a canonical
    transcript a chaos case can byte-compare.
    """
    with open(kb_path) as handle:
        kb4 = parse_kb4(handle.read())
    atoms = sorted(
        (atom.name for atom in kb4.concepts_in_signature())
    )[:max_atoms]
    individuals = sorted(
        (individual.name for individual in kb4.individuals_in_signature())
    )[:max_individuals]
    battery = [
        ProbeRequest(kind="satisfiable", kb=kb_name, deadline_ms=deadline_ms)
    ]
    for sub in atoms:
        for sup in atoms:
            if sub != sup:
                battery.append(
                    ProbeRequest(
                        kind="subsumption",
                        kb=kb_name,
                        sub=sub,
                        sup=sup,
                        deadline_ms=deadline_ms,
                    )
                )
    for individual in individuals:
        for atom in atoms:
            battery.append(
                ProbeRequest(
                    kind="instance",
                    kb=kb_name,
                    individual=individual,
                    concept=atom,
                    deadline_ms=deadline_ms,
                )
            )
            battery.append(
                ProbeRequest(
                    kind="assertion_value",
                    kb=kb_name,
                    individual=individual,
                    concept=atom,
                    deadline_ms=deadline_ms,
                )
            )
    return battery


@dataclass
class ServerChaosCaseResult:
    """The outcome of one service-level fault scenario."""

    fault: str
    #: Scenario observations worth surfacing (restart counts, statuses).
    notes: List[str] = field(default_factory=list)
    #: Invariant violations; empty means the case passed.
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this scenario."""
        return not self.mismatches


@dataclass
class ServerChaosReport:
    """Aggregate over a server chaos suite run."""

    cases: List[ServerChaosCaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every scenario passed."""
        return all(case.ok for case in self.cases)

    def failures(self) -> List[ServerChaosCaseResult]:
        """The scenarios with at least one violation."""
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        """A short human summary, listing violations if any."""
        lines = [
            f"server chaos: {len(self.cases)} scenarios, "
            f"{len(self.failures())} failing"
        ]
        for case in self.cases:
            status = "ok" if case.ok else "FAIL"
            lines.append(f"  [{status}] {case.fault}")
            lines.extend(f"    note: {note}" for note in case.notes)
            lines.extend(f"    violation: {bad}" for bad in case.mismatches)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Raw-socket helpers (the harness must misbehave below urllib's level)
# ---------------------------------------------------------------------------

def _post(
    address: Tuple[str, int], body: str, timeout: float = 30.0
) -> Tuple[int, str, Dict[str, str]]:
    """One raw POST /probe: ``(status, body, headers)`` without retries."""
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}/probe",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as raw:
            return raw.status, raw.read().decode("utf-8"), dict(raw.headers)
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.read().decode("utf-8", errors="replace"),
            dict(error.headers),
        )


def _get(address: Tuple[str, int], path: str, timeout: float = 5.0) -> int:
    host, port = address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=timeout
        ) as raw:
            return raw.status
    except urllib.error.HTTPError as error:
        return error.code


def _wait_ready(
    address: Tuple[str, int], timeout: float = 10.0
) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if _get(address, "/readyz") == 200:
                return True
        except (urllib.error.URLError, ConnectionError, socket.timeout):
            pass
        time.sleep(0.02)
    return False


def _transcript(
    address: Tuple[str, int], battery: Sequence[ProbeRequest]
) -> List[str]:
    """The canonical response bodies of one battery replay."""
    bodies = []
    for request in battery:
        _, body, _ = _post(address, json.dumps(request.to_wire()))
        # Re-canonicalise through the protocol layer so header-order or
        # whitespace quirks can never mask (or fake) a real mismatch.
        bodies.append(ProbeResponse.from_json(body).to_json())
    return bodies


def _server(kb_name: str, kb_path: str, **overrides) -> ReproServer:
    options = dict(
        workers=1,
        chaos=True,
        restart_backoff=0.05,
        backoff_cap=0.5,
        poll_interval=0.01,
        stall_grace=0.25,
        default_deadline_ms=30_000.0,
    )
    options.update(overrides)
    server = ReproServer({kb_name: kb_path}, port=0, **options)
    server.start()
    return server


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _inject_worker_kill(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """Kill the worker with a request in flight (SIGKILL via debug_crash)."""
    kb = next(iter(server.kb_paths))
    status, body, _ = _post(
        server.address,
        json.dumps(
            ProbeRequest(
                kind="debug_crash", kb=kb, deadline_ms=5_000.0
            ).to_wire()
        ),
    )
    response = ProbeResponse.from_json(body)
    if response.status != "unknown" or response.reason != "worker_crash":
        result.mismatches.append(
            f"in-flight request over a killed worker answered "
            f"{status}/{body!r}, expected UNKNOWN(worker_crash)"
        )
    if not _wait_ready(server.address):
        result.mismatches.append("server never became ready after the kill")
    restarts = server.pool.restarts_total()
    if restarts < 1:
        result.mismatches.append(
            f"expected at least one worker restart, counted {restarts}"
        )
    result.notes.append(f"worker restarts: {restarts}")


def _inject_stall(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """Wedge the worker far past a short deadline; it must degrade."""
    kb = next(iter(server.kb_paths))
    started = time.monotonic()
    status, body, _ = _post(
        server.address,
        json.dumps(
            ProbeRequest(
                kind="debug_stall",
                kb=kb,
                deadline_ms=200.0,
                stall_s=30.0,
            ).to_wire()
        ),
        timeout=30.0,
    )
    elapsed = time.monotonic() - started
    response = ProbeResponse.from_json(body)
    if response.status != "unknown":
        result.mismatches.append(
            f"stalled request answered {status}/{body!r}, expected UNKNOWN"
        )
    if elapsed > 10.0:
        result.mismatches.append(
            f"stalled request took {elapsed:.1f}s to degrade — the "
            "watchdog did not escalate"
        )
    result.notes.append(
        f"stall degraded to {response.reason!r} in {elapsed:.2f}s"
    )
    if not _wait_ready(server.address):
        result.mismatches.append("server never became ready after the stall")


def _inject_malformed(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """Every broken payload earns a usage error; none disturbs serving."""
    for payload in MALFORMED_BODIES:
        status, body, _ = _post(server.address, payload)
        try:
            response = ProbeResponse.from_json(body)
        except Exception:  # noqa: BLE001 - the assertion below reports it
            result.mismatches.append(
                f"malformed payload {payload!r} earned a non-protocol "
                f"body {body!r}"
            )
            continue
        if status not in (400, 404) or response.status != "error":
            result.mismatches.append(
                f"malformed payload {payload!r} answered "
                f"{status}/{response.status}, expected 400/error"
            )
    for length, expected in HOSTILE_LENGTHS:
        head = (
            "POST /probe HTTP/1.1\r\nHost: chaos\r\n"
            "Connection: keep-alive\r\n"
            f"Content-Length: {length}\r\n\r\n{{\"kind\":"
        ).encode("ascii")
        try:
            with socket.create_connection(server.address, timeout=2.0) as raw:
                raw.sendall(head)
                answer = http.client.HTTPResponse(raw)
                answer.begin()
                status = answer.status
        except (OSError, http.client.HTTPException) as exc:
            result.mismatches.append(
                f"Content-Length {length} earned no status within 2s: {exc!r}"
            )
            continue
        if status != expected:
            result.mismatches.append(
                f"Content-Length {length} answered {status}, "
                f"expected {expected}"
            )
    result.notes.append(
        f"{len(MALFORMED_BODIES)} malformed payloads and "
        f"{len(HOSTILE_LENGTHS)} hostile lengths shed"
    )


def _inject_disconnect(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """Send probes and hang up before reading; nothing may leak or wedge."""
    kb = next(iter(server.kb_paths))
    host, port = server.address
    payload = json.dumps(
        ProbeRequest(
            kind="satisfiable", kb=kb, deadline_ms=5_000.0
        ).to_wire()
    ).encode("utf-8")
    for _ in range(4):
        with socket.create_connection((host, port), timeout=5.0) as raw:
            raw.sendall(
                b"POST /probe HTTP/1.1\r\n"
                b"Host: chaos\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii")
                + payload
            )
            # Slam the connection without reading the response.
    # One slow path: disconnect mid-body so the read itself fails.
    with socket.create_connection((host, port), timeout=5.0) as raw:
        raw.sendall(
            b"POST /probe HTTP/1.1\r\nHost: chaos\r\n"
            b"Content-Length: 500\r\n\r\n{\"kind\":"
        )
    time.sleep(0.2)
    free = server.queue_free()
    if free != server.max_queue:
        result.mismatches.append(
            f"admission slots leaked after disconnects: "
            f"{free}/{server.max_queue} free"
        )
    result.notes.append("5 abandoned connections absorbed")


def _inject_queue_saturation(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """A burst past the admission bound is shed with 429 + Retry-After."""
    kb = next(iter(server.kb_paths))
    stall_body = json.dumps(
        ProbeRequest(
            kind="debug_stall",
            kb=kb,
            deadline_ms=10_000.0,
            stall_s=0.5,
        ).to_wire()
    )
    outcomes: List[Tuple[int, str, Dict[str, str]]] = []
    lock = threading.Lock()

    def fire() -> None:
        outcome = _post(server.address, stall_body, timeout=20.0)
        with lock:
            outcomes.append(outcome)

    burst = [
        threading.Thread(target=fire)
        for _ in range(server.max_queue + 6)
    ]
    for thread in burst:
        thread.start()
    for thread in burst:
        thread.join(timeout=30.0)
    rejected = [
        (status, body, headers)
        for status, body, headers in outcomes
        if status == 429
    ]
    if not rejected:
        result.mismatches.append(
            "no request was shed by admission control during the burst"
        )
    for status, body, headers in rejected:
        if "Retry-After" not in headers:
            result.mismatches.append("a 429 response lacked Retry-After")
            break
        if ProbeResponse.from_json(body).status != "rejected":
            result.mismatches.append(
                f"a 429 response carried a non-rejected body: {body!r}"
            )
            break
    result.notes.append(
        f"burst of {len(burst)}: {len(rejected)} shed with 429"
    )


def _check_trace_plane(
    server: ReproServer, result: ServerChaosCaseResult
) -> None:
    """The tracing plane survived the fault: traces stored and served."""
    if not server.tracing_enabled:
        return
    trace_ids = server.traces.ids()
    if not trace_ids:
        result.mismatches.append("trace store empty after recovery replay")
        return
    if _get(server.address, f"/trace/{trace_ids[0]}") != 200:
        result.mismatches.append(
            f"stored trace {trace_ids[0]!r} not served by GET /trace/<id>"
        )
    if len(server.journal) == 0:
        result.mismatches.append("request journal empty after recovery replay")
    result.notes.append(
        f"trace plane: {len(trace_ids)} stored traces, "
        f"{server.journal.lines_total} journal lines"
    )


_SCENARIOS = {
    "worker_kill": _inject_worker_kill,
    "stall": _inject_stall,
    "malformed": _inject_malformed,
    "disconnect": _inject_disconnect,
    "queue_saturation": _inject_queue_saturation,
}


def run_server_chaos_case(
    fault: str,
    kb_path: str,
    kb_name: str = "university",
    cold_transcript: Optional[List[str]] = None,
    battery: Optional[List[ProbeRequest]] = None,
) -> ServerChaosCaseResult:
    """One scenario: inject the fault, then byte-compare recovery.

    ``cold_transcript`` (the battery bodies of a server that never saw
    a fault) may be passed in so a suite pays the cold run once; when
    omitted it is produced by a dedicated cold server first.
    """
    if fault not in _SCENARIOS:
        raise ValueError(
            f"unknown server fault {fault!r}; pick from {SERVER_FAULT_KINDS}"
        )
    result = ServerChaosCaseResult(fault=fault)
    if battery is None:
        battery = battery_for(kb_name, kb_path)
    if cold_transcript is None:
        cold = _server(kb_name, kb_path, chaos=False)
        try:
            if not _wait_ready(cold.address):
                result.mismatches.append("cold server never became ready")
                return result
            cold_transcript = _transcript(cold.address, battery)
        finally:
            cold.close()

    queue_bound = 2 if fault == "queue_saturation" else 16
    server = _server(kb_name, kb_path, max_queue=queue_bound)
    try:
        if not _wait_ready(server.address):
            result.mismatches.append("chaos server never became ready")
            return result
        # Warm the caches first so the fault hits a *warm* server — the
        # strictest reading of "recovery must equal a cold server".
        _transcript(server.address, battery[:3])
        _SCENARIOS[fault](server, result)
        if not _wait_ready(server.address):
            result.mismatches.append("server unready after fault recovery")
            return result
        recovered = _transcript(server.address, battery)
        for index, (cold_body, warm_body) in enumerate(
            zip(cold_transcript, recovered)
        ):
            if cold_body != warm_body:
                result.mismatches.append(
                    f"probe {index} diverged after recovery: "
                    f"cold={cold_body!r} recovered={warm_body!r}"
                )
        _check_trace_plane(server, result)
    finally:
        server.close()
    return result


def run_server_chaos_suite(
    kb_path: str = "ontologies/university.kb4",
    kb_name: str = "university",
    faults: Sequence[str] = SERVER_FAULT_KINDS,
) -> ServerChaosReport:
    """Every fault scenario against one served KB, sharing one cold run."""
    battery = battery_for(kb_name, kb_path)
    report = ServerChaosReport()
    cold = _server(kb_name, kb_path, chaos=False)
    try:
        if not _wait_ready(cold.address):
            case = ServerChaosCaseResult(fault="setup")
            case.mismatches.append("cold server never became ready")
            report.cases.append(case)
            return report
        cold_transcript = _transcript(cold.address, battery)
    finally:
        cold.close()
    for fault in faults:
        report.cases.append(
            run_server_chaos_case(
                fault,
                kb_path,
                kb_name=kb_name,
                cold_transcript=cold_transcript,
                battery=battery,
            )
        )
    return report
