"""HTTP service tests: admission control, degradation mapping, drain."""

import http.client
import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.dl.budget import Verdict
from repro.dl.errors import DegradationReason
from repro.serve.protocol import ProbeRequest, ProbeResponse
from repro.serve.server import MAX_BODY_BYTES, ReproServer, ServeMetrics

ONTOLOGY_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ontologies"
)
UNIVERSITY = os.path.join(ONTOLOGY_DIR, "university.kb4")


@pytest.fixture(scope="module")
def server():
    """One inline-mode server shared by the read-only tests."""
    instance = ReproServer(
        {"university": UNIVERSITY}, port=0, workers=0, max_queue=4
    )
    instance.start()
    yield instance
    instance.close()


def post(server, body, headers=None):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}/probe",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as raw:
            return raw.status, raw.read().decode("utf-8"), dict(raw.headers)
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.read().decode("utf-8"),
            dict(error.headers),
        )


def get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10.0
        ) as raw:
            return raw.status, raw.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "alive"}

    def test_readyz(self, server):
        status, body = get(server, "/readyz")
        assert status == 200
        assert json.loads(body) == {"status": "ready"}

    def test_kbs(self, server):
        status, body = get(server, "/kbs")
        assert status == 200
        assert json.loads(body) == {"kbs": ["university"]}

    def test_unknown_endpoint_is_404(self, server):
        status, body = get(server, "/made-up")
        assert status == 404
        assert ProbeResponse.from_json(body).status == "error"

    def test_metrics_exposes_the_serve_series(self, server):
        # Answer one probe first so counters have something to count.
        post(server, json.dumps(
            ProbeRequest(kind="satisfiable", kb="university").to_wire()
        ))
        status, body = get(server, "/metrics")
        assert status == 200
        for series in (
            "repro_serve_queue_depth",
            "repro_serve_inflight",
            "repro_serve_workers_alive",
            "repro_serve_worker_restarts_total",
            'repro_serve_requests_total{status="ok"}',
            "repro_serve_request_seconds_bucket",
            "repro_serve_request_seconds_count",
        ):
            assert series in body, f"missing {series}"


class TestProbeEndpoint:
    def test_decided_probe_is_200_with_deterministic_body(self, server):
        body = json.dumps(
            ProbeRequest(kind="satisfiable", kb="university").to_wire()
        )
        first = post(server, body)
        second = post(server, body)
        assert first[0] == second[0] == 200
        assert first[1] == second[1]  # byte-identical
        assert ProbeResponse.from_json(first[1]).value is True

    def test_request_id_echoed_in_header_not_body(self, server):
        body = json.dumps(
            ProbeRequest(
                kind="satisfiable", kb="university", request_id="corr-7"
            ).to_wire()
        )
        status, text, headers = post(server, body)
        assert status == 200
        assert headers.get("X-Request-Id") == "corr-7"
        assert "corr-7" not in text

    def test_unknown_kb_is_404(self, server):
        status, body, _ = post(server, json.dumps(
            ProbeRequest(kind="satisfiable", kb="ghosts").to_wire()
        ))
        assert status == 404
        response = ProbeResponse.from_json(body)
        assert response.status == "error"
        assert "ghosts" in response.message

    def test_malformed_body_is_400(self, server):
        status, body, _ = post(server, "{not json")
        assert status == 400
        assert ProbeResponse.from_json(body).status == "error"

    @pytest.mark.parametrize("deadline_ms", [0.0, -150.0])
    def test_dead_on_arrival_deadline_degrades_to_504(
        self, server, deadline_ms
    ):
        # The admission edge case: a non-positive remaining deadline
        # must short-circuit to structured UNKNOWN (Budget would raise).
        status, body, _ = post(server, json.dumps(
            ProbeRequest(
                kind="satisfiable", kb="university", deadline_ms=deadline_ms
            ).to_wire()
        ))
        assert status == 504
        response = ProbeResponse.from_json(body)
        assert response.status == "unknown"
        assert response.reason == "deadline"
        verdict = response.verdict
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.DEADLINE


def raw_status(server, head, timeout=2.0):
    """Send a hand-made request on a raw socket; ``(status, body)``.

    Raises ``socket.timeout`` when no status arrives within ``timeout``
    seconds (the hostile-header cases must never hold a handler).
    """
    with socket.create_connection(server.address, timeout=timeout) as raw:
        raw.sendall(head)
        response = http.client.HTTPResponse(raw)
        response.begin()
        return response.status, response.read().decode("utf-8")


class TestHostileContentLength:
    """A keep-alive client that never sends EOF, or declares a body far
    larger than it sends, must get a status at once, not hold a thread."""

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), (str(MAX_BODY_BYTES + 1), 413), ("10" * 20, 413)],
    )
    def test_answered_within_two_seconds(self, server, length, status):
        head = (
            "POST /probe HTTP/1.1\r\nHost: test\r\n"
            "Connection: keep-alive\r\n"
            f"Content-Length: {length}\r\n\r\n"
            '{"kind": "satisfiable"'
        ).encode("ascii")
        answered, body = raw_status(server, head)
        assert answered == status
        assert ProbeResponse.from_json(body).status == "error"
        # The server still serves afterwards.
        assert get(server, "/readyz")[0] == 200

    def test_a_body_shorter_than_its_length_times_out(self, monkeypatch):
        """The handler's socket timeout frees the thread (shortened here
        from ``SOCKET_TIMEOUT_S`` so the test stays fast)."""
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module._Handler, "timeout", 0.3)
        instance = ReproServer(
            {"university": UNIVERSITY}, port=0, workers=0, max_queue=4
        )
        instance.start()
        try:
            head = (
                b"POST /probe HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 100\r\n\r\n{\"kind\":"
            )
            answered, body = raw_status(instance, head)
            assert answered == 408
            assert ProbeResponse.from_json(body).status == "error"
        finally:
            instance.close()


class TestAdmissionControl:
    def test_queue_full_is_429_with_retry_after(self):
        server = ReproServer(
            {"university": UNIVERSITY}, port=0, workers=0, max_queue=2,
            retry_after=2.0,
        )
        server.start()
        try:
            # Drain the admission slots directly: deterministic, no
            # timing games with concurrent slow probes.
            assert server._try_admit() and server._try_admit()
            status, body, headers = post(server, json.dumps(
                ProbeRequest(kind="satisfiable", kb="university").to_wire()
            ))
            assert status == 429
            assert headers.get("Retry-After") == "2.0"
            response = ProbeResponse.from_json(body)
            assert response.status == "rejected"
            assert response.retry_after == 2.0
            server._release()
            server._release()
            status, _, _ = post(server, json.dumps(
                ProbeRequest(kind="satisfiable", kb="university").to_wire()
            ))
            assert status == 200
        finally:
            server.close()

    def test_rejections_are_counted(self):
        server = ReproServer(
            {"university": UNIVERSITY}, port=0, workers=0, max_queue=1
        )
        server.start()
        try:
            assert server._try_admit()
            post(server, json.dumps(
                ProbeRequest(kind="satisfiable", kb="university").to_wire()
            ))
            server._release()
            _, metrics = get(server, "/metrics")
            assert (
                'repro_serve_admission_rejections_total{why="queue_full"} 1'
                in metrics
            )
        finally:
            server.close()


class TestStatusMapping:
    def test_mapping_table(self):
        request = ProbeRequest(kind="satisfiable", kb="uni")
        cases = [
            (ProbeResponse.from_verdict(request, Verdict.TRUE), 200),
            (ProbeResponse.unknown(DegradationReason.DEADLINE, "", request), 504),
            (ProbeResponse.unknown(DegradationReason.NODES, "", request), 504),
            (ProbeResponse.unknown(
                DegradationReason.WORKER_CRASH, "", request), 503),
            (ProbeResponse.unknown(
                DegradationReason.CANCELLED, "", request), 503),
            (ProbeResponse.rejected(1.0, "busy"), 429),
            (ProbeResponse.error("nope"), 400),
        ]
        for response, expected in cases:
            assert ReproServer._http_status(response) == expected, response


class TestGracefulShutdown:
    def test_draining_rejects_then_stops(self):
        server = ReproServer(
            {"university": UNIVERSITY}, port=0, workers=0, drain_timeout=2.0
        )
        server.start()
        address = server.address
        # Warm check: serving normally first.
        status, _, _ = post(server, json.dumps(
            ProbeRequest(kind="satisfiable", kb="university").to_wire()
        ))
        assert status == 200
        drained = server.shutdown_gracefully()
        assert drained is True
        assert server.draining
        # The listener is gone: connections are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/healthz", timeout=2.0
            )

    def test_shutdown_is_idempotent_and_serve_forever_returns(self):
        server = ReproServer({"university": UNIVERSITY}, port=0, workers=0)
        server.start()
        waiter = threading.Thread(target=server.serve_forever, daemon=True)
        waiter.start()
        assert server.shutdown_gracefully() is True
        assert server.shutdown_gracefully() is True
        waiter.join(timeout=5.0)
        assert not waiter.is_alive(), "serve_forever did not return"

    def test_readyz_is_503_while_draining(self):
        server = ReproServer({"university": UNIVERSITY}, port=0, workers=0)
        server.start()
        try:
            server._draining.set()
            status, body = get(server, "/readyz")
            assert status == 503
            assert json.loads(body)["draining"] is True
            code, response, _ = server.handle_probe(json.dumps(
                ProbeRequest(kind="satisfiable", kb="university").to_wire()
            ))
            assert code == 503
            assert response.status == "rejected"
        finally:
            server._draining.clear()
            server.close()


class TestServeMetricsUnit:
    def test_lifecycle_accounting(self):
        metrics = ServeMetrics()
        metrics.admitted()
        assert metrics.inflight == 1
        metrics.finished(ProbeResponse.error("x"), 0.01)
        assert metrics.inflight == 0
        metrics.rejected("queue_full")
        metrics.admitted()
        metrics.finished(
            ProbeResponse.unknown(DegradationReason.DEADLINE, "late"), 0.2
        )
        text = metrics.render(
            queue_capacity=4, queue_free=4, worker_restarts=3, workers_alive=2
        )
        assert 'repro_serve_requests_total{status="error"} 1' in text
        assert 'repro_serve_requests_total{status="unknown"} 1' in text
        assert 'repro_serve_unknown_total{reason="deadline"} 1' in text
        assert 'repro_serve_admission_rejections_total{why="queue_full"} 1' in text
        assert "repro_serve_worker_restarts_total 3" in text
        assert "repro_serve_request_seconds_count 2" in text

    def test_invalid_queue_bound_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            ReproServer({"university": UNIVERSITY}, max_queue=0, workers=0)
