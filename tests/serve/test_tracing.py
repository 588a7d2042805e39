"""End-to-end distributed tracing and request-journal tests.

The acceptance path of the tracing subsystem: a probe through fork
workers yields, via ``GET /trace/<id>``, a single reassembled span tree
containing both the server-side admission spans and the worker-side
reasoner spans, every span stamped with the request's trace id — while
response *bodies* stay byte-identical with tracing on, off, or absent.
"""

import json
import os
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.obs.export import read_spans_jsonl
from repro.obs.spans import Span, Tracer
from repro.serve.client import ReproClient
from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalEntry,
    RequestJournal,
    TraceStore,
    derive_execution,
)
from repro.serve.protocol import ProbeRequest, ProbeResponse
from repro.serve.server import ReproServer

ONTOLOGY_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ontologies"
)
UNIVERSITY = os.path.join(ONTOLOGY_DIR, "university.kb4")

#: Supervision timings tuned for tests: fast polls, fast restarts.
FAST = dict(
    restart_backoff=0.05,
    backoff_cap=0.2,
    poll_interval=0.01,
    stall_grace=0.15,
)

SATISFIABLE = json.dumps(
    ProbeRequest(kind="satisfiable", kb="university").to_wire()
)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


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
        return error.code, error.read().decode("utf-8"), dict(error.headers)


def get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10.0
        ) as raw:
            return raw.status, raw.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def fetch_trace(server, trace_id):
    status, body = get(server, f"/trace/{trace_id}")
    assert status == 200, body
    return read_spans_jsonl(body)


def span_names(roots):
    return [s.name for root in roots for s in root.walk()]


@pytest.fixture(scope="module")
def inline_server():
    server = ReproServer(
        {"university": UNIVERSITY}, port=0, workers=0, max_queue=8
    )
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def fork_server():
    server = ReproServer(
        {"university": UNIVERSITY},
        port=0,
        workers=1,
        max_queue=8,
        chaos=True,
        **FAST,
    )
    server.start()
    assert wait_until(server.ready)
    yield server
    server.close()


class TestInlineTracing:
    def test_trace_endpoint_returns_single_reassembled_tree(
        self, inline_server
    ):
        status, _, headers = post(inline_server, SATISFIABLE)
        assert status == 200
        trace_id = headers.get("X-Trace-Id")
        assert trace_id
        roots = fetch_trace(inline_server, trace_id)
        assert [root.name for root in roots] == ["serve_request"]
        names = span_names(roots)
        assert names.count("serve_request") == 1
        assert "admission" in names and "dispatch" in names
        assert "probe_execute" in names
        for root in roots:
            for span in root.walk():
                assert span.trace_id == trace_id

    def test_client_supplied_trace_id_is_honoured(self, inline_server):
        status, _, headers = post(
            inline_server, SATISFIABLE, headers={"X-Trace-Id": "my-trace-1"}
        )
        assert status == 200
        assert headers.get("X-Trace-Id") == "my-trace-1"
        roots = fetch_trace(inline_server, "my-trace-1")
        assert roots[0].trace_id == "my-trace-1"

    def test_hostile_trace_id_is_replaced_not_used(self, inline_server):
        hostile = "../../etc/passwd"
        status, _, headers = post(
            inline_server, SATISFIABLE, headers={"X-Trace-Id": hostile}
        )
        assert status == 200
        minted = headers.get("X-Trace-Id")
        assert minted and minted != hostile
        status, _ = get(inline_server, "/trace/" + hostile)
        assert status == 404

    def test_unknown_trace_is_404_with_protocol_body(self, inline_server):
        status, body = get(inline_server, "/trace/never-recorded")
        assert status == 404
        assert ProbeResponse.from_json(body).status == "error"

    def test_rejected_request_is_still_journalled(self, inline_server):
        status, _, headers = post(inline_server, "{not json")
        assert status == 400
        trace_id = headers.get("X-Trace-Id")
        entries = {
            entry.trace_id: entry for entry in inline_server.journal.recent()
        }
        assert entries[trace_id].status == "error"
        assert entries[trace_id].worker is None

    def test_journal_records_execution_detail(self, inline_server):
        status, _, headers = post(inline_server, SATISFIABLE)
        assert status == 200
        entry = {
            e.trace_id: e for e in inline_server.journal.recent()
        }[headers["X-Trace-Id"]]
        assert entry.status == "ok"
        assert entry.kind == "satisfiable"
        assert entry.kb == "university"
        assert entry.worker == "inline"
        assert entry.incarnation == 0
        assert entry.duration_ms >= 0.0
        assert entry.cache_hit in (True, False)
        assert entry.engine in ("cache", "saturation", "tableau")

    def test_journal_endpoint_serves_schema_records(self, inline_server):
        post(inline_server, SATISFIABLE)
        status, body = get(inline_server, "/journal")
        assert status == 200
        records = [json.loads(line) for line in body.splitlines() if line]
        assert records
        for record in records:
            assert record["schema"] == JOURNAL_SCHEMA_VERSION
            assert set(record) == {
                "schema",
                "trace_id",
                "request_id",
                "kind",
                "kb",
                "status",
                "reason",
                "duration_ms",
                "cache_hit",
                "engine",
                "worker",
                "incarnation",
                "captured",
            }

    def test_metrics_expose_trace_and_journal_series(self, inline_server):
        post(inline_server, SATISFIABLE)
        post(inline_server, SATISFIABLE)  # second probe is a cache hit
        status, body = get(inline_server, "/metrics")
        assert status == 200
        for series in (
            "repro_serve_trace_store_traces",
            "repro_serve_journal_entries",
            "repro_serve_journal_lines_total",
            "repro_serve_journal_captured_total",
            'repro_serve_cache_hits_total{kb="university"}',
        ):
            assert series in body, f"missing {series}"

    def test_traces_index_lists_newest_first(self, inline_server):
        _, _, first = post(inline_server, SATISFIABLE)
        _, _, second = post(inline_server, SATISFIABLE)
        status, body = get(inline_server, "/traces")
        assert status == 200
        ids = json.loads(body)["traces"]
        assert ids.index(second["X-Trace-Id"]) < ids.index(
            first["X-Trace-Id"]
        )


class TestForkTracing:
    def test_worker_spans_graft_into_one_tree(self, fork_server):
        status, _, headers = post(fork_server, SATISFIABLE)
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        roots = fetch_trace(fork_server, trace_id)
        assert [root.name for root in roots] == ["serve_request"]
        names = span_names(roots)
        assert names.count("serve_request") == 1
        assert "admission" in names and "dispatch" in names
        assert "probe_execute" in names, (
            "worker-side reasoner spans missing from the reassembled tree"
        )
        (root,) = roots
        assert root.process == "server"
        dispatch = next(s for s in root.walk() if s.name == "dispatch")
        worker_spans = [
            s
            for s in root.walk()
            if s.process is not None and s.process.startswith("worker-")
        ]
        assert worker_spans, "no spans attributed to the worker process"
        # Every span — both processes — carries the request's trace id
        # and lies inside its parent's window.
        for span in root.walk():
            assert span.trace_id == trace_id

        def check_nesting(span):
            lo, hi = span.start, span.start + span.duration
            for child in span.children:
                assert child.start >= lo - 1e-9
                assert child.start + child.duration <= hi + 1e-9
                check_nesting(child)

        check_nesting(root)
        probe_span = next(
            s for s in dispatch.walk() if s.name == "probe_execute"
        )
        assert {"cache_probe"} <= {s.name for s in probe_span.walk()}

    def test_repeat_probe_journals_a_cache_hit(self, fork_server):
        post(fork_server, SATISFIABLE)
        _, _, headers = post(fork_server, SATISFIABLE)
        entry = {
            e.trace_id: e for e in fork_server.journal.recent()
        }[headers["X-Trace-Id"]]
        assert entry.cache_hit is True
        assert entry.engine == "cache"
        assert entry.worker == "worker-0"

    def test_worker_crash_still_writes_journal_line(self, fork_server):
        body = json.dumps(
            ProbeRequest(kind="debug_crash", kb="university").to_wire()
        )
        status, text, headers = post(fork_server, body)
        assert status == 503
        response = ProbeResponse.from_json(text)
        assert response.status == "unknown"
        assert response.reason == "worker_crash"
        entry = {
            e.trace_id: e for e in fork_server.journal.recent()
        }[headers["X-Trace-Id"]]
        assert entry.status == "unknown"
        assert entry.reason == "worker_crash"
        assert entry.worker == "worker-0"
        # The truncated trace is still served: the server-side spans
        # exist even though the worker died before shipping its forest.
        roots = fetch_trace(fork_server, headers["X-Trace-Id"])
        names = span_names(roots)
        assert "serve_request" in names and "dispatch" in names
        assert "probe_execute" not in names
        assert wait_until(fork_server.ready)

    def test_bodies_stay_byte_identical_with_tracing_on(self, fork_server):
        first = post(fork_server, SATISFIABLE)
        second = post(fork_server, SATISFIABLE)
        assert first[0] == second[0] == 200
        assert first[1] == second[1]
        assert first[2]["X-Trace-Id"] != second[2]["X-Trace-Id"]


class TestTracingDisabled:
    def test_no_trace_mode_answers_identically_but_stores_nothing(self):
        server = ReproServer(
            {"university": UNIVERSITY},
            port=0,
            workers=0,
            tracing_enabled=False,
        )
        server.start()
        try:
            status, body, headers = post(server, SATISFIABLE)
            assert status == 200
            trace_id = headers["X-Trace-Id"]
            assert len(server.traces) == 0
            status, _ = get(server, f"/trace/{trace_id}")
            assert status == 404
            # The journal still records every request (without the
            # trace-derived execution fields).
            entry = {
                e.trace_id: e for e in server.journal.recent()
            }[trace_id]
            assert entry.status == "ok"
            assert entry.cache_hit is None and entry.engine is None
        finally:
            server.close()
        traced = ReproServer(
            {"university": UNIVERSITY}, port=0, workers=0
        )
        traced.start()
        try:
            assert post(traced, SATISFIABLE)[1] == body
        finally:
            traced.close()


class TestCapturePolicy:
    def test_slow_or_unknown_requests_capture_their_trace(self, tmp_path):
        capture_dir = tmp_path / "captures"
        capture_dir.mkdir()
        journal_file = tmp_path / "journal.jsonl"
        server = ReproServer(
            {"university": UNIVERSITY},
            port=0,
            workers=0,
            journal_path=str(journal_file),
            capture_dir=str(capture_dir),
            slow_trace_ms=0.0,  # every request counts as slow
        )
        server.start()
        try:
            status, _, headers = post(server, SATISFIABLE)
            assert status == 200
            trace_id = headers["X-Trace-Id"]
        finally:
            server.close()
        capture_file = capture_dir / f"{trace_id}.jsonl"
        assert capture_file.exists()
        roots = read_spans_jsonl(capture_file.read_text())
        assert [root.name for root in roots] == ["serve_request"]
        lines = [
            json.loads(line)
            for line in journal_file.read_text().splitlines()
            if line
        ]
        record = {r["trace_id"]: r for r in lines}[trace_id]
        assert record["captured"] == str(capture_file)

    def test_cli_trace_renders_a_capture_file(self, tmp_path, capsys):
        tracer = Tracer(trace_id="t-cli", process="server")
        root = Span(tracer, "serve_request")
        root.start, root.duration = 0.0, 0.02
        child = Span(tracer, "dispatch")
        child.start, child.duration = 0.005, 0.01
        child.process = "worker-0"
        root.children.append(child)
        dump = tmp_path / "t-cli.jsonl"
        from repro.obs.export import write_spans_jsonl

        write_spans_jsonl([root], str(dump))
        folded = tmp_path / "out.folded"
        assert cli_main(["trace", str(dump), "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "trace: t-cli" in out
        assert "serve_request" in out
        assert "<worker-0>" in out
        assert "serve_request;dispatch" in folded.read_text()

    def test_cli_trace_rejects_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert cli_main(["trace", str(bad)]) == 2


class TestClientTraceContext:
    def test_probe_exposes_server_ids_and_trace_fetches(self, inline_server):
        host, port = inline_server.address
        client = ReproClient(f"http://{host}:{port}")
        response = client.probe(
            ProbeRequest(kind="satisfiable", kb="university")
        )
        assert response.value is True
        assert response.trace_id
        assert response.request_id
        roots = client.trace(response.trace_id)
        assert "serve_request" in span_names(roots)
        # The minted request id reached the server journal too.
        journal = client.journal()
        record = {r["trace_id"]: r for r in journal}[response.trace_id]
        assert record["request_id"] == response.request_id

    def test_ids_never_appear_in_the_body(self, inline_server):
        _, body, headers = post(inline_server, SATISFIABLE)
        assert headers["X-Trace-Id"] not in body
        record = json.loads(body)
        assert "trace_id" not in record and "request_id" not in record

    def test_retries_reuse_the_same_ids(self):
        client = ReproClient(
            "http://test.invalid",
            retries=2,
            backoff=0.0,
            rng=random.Random(0),
            sleep=lambda _s: None,
        )
        calls = []
        from repro.dl.budget import Verdict

        ok = ProbeResponse.from_verdict(
            ProbeRequest(kind="satisfiable", kb="university"), Verdict.TRUE
        )

        def fake_attempt(request, trace_id=None):
            calls.append((request.request_id, trace_id))
            if len(calls) < 3:
                raise urllib.error.URLError("refused")
            return ok

        client._attempt = fake_attempt
        response = client.probe(
            ProbeRequest(kind="satisfiable", kb="university")
        )
        assert response.status == "ok"
        assert len(calls) == 3
        request_ids = {request_id for request_id, _ in calls}
        trace_ids = {trace_id for _, trace_id in calls}
        assert len(request_ids) == 1 and None not in request_ids
        assert len(trace_ids) == 1 and None not in trace_ids

    def test_caller_supplied_request_id_is_kept(self):
        client = ReproClient("http://test.invalid", retries=0)
        seen = []

        def fake_attempt(request, trace_id=None):
            seen.append(request.request_id)
            return ProbeResponse.error("nope")

        client._attempt = fake_attempt
        client.probe(
            ProbeRequest(
                kind="satisfiable", kb="university", request_id="mine-1"
            )
        )
        assert seen == ["mine-1"]


class TestJournalUnit:
    def entry(self, **overrides):
        fields = dict(trace_id="t", status="ok", duration_ms=1.0)
        fields.update(overrides)
        return JournalEntry(**fields)

    def test_ring_is_bounded(self):
        journal = RequestJournal(capacity=3)
        for index in range(5):
            journal.record(self.entry(trace_id=f"t{index}"))
        assert len(journal) == 3
        assert [e.trace_id for e in journal.recent()] == ["t2", "t3", "t4"]
        assert journal.lines_total == 5

    def test_capture_policy_gating(self, tmp_path):
        no_dir = RequestJournal()
        assert not no_dir.should_capture("unknown", 10_000.0)
        journal = RequestJournal(
            capture_dir=str(tmp_path), slow_ms=100.0
        )
        assert journal.should_capture("unknown", 0.0)
        assert journal.should_capture("ok", 150.0)
        assert not journal.should_capture("ok", 50.0)
        silent = RequestJournal(
            capture_dir=str(tmp_path), slow_ms=100.0, capture_unknown=False
        )
        assert not silent.should_capture("unknown", 0.0)

    def test_capture_failure_never_fails_the_request(self):
        journal = RequestJournal(capture_dir="/nonexistent/nowhere")
        tracer = Tracer()
        root = Span(tracer, "serve_request")
        recorded = journal.record(
            self.entry(status="unknown"), roots=[root]
        )
        assert recorded.captured is None
        assert len(journal) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RequestJournal(capacity=0)
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_trace_store_evicts_oldest(self):
        store = TraceStore(capacity=2)
        tracer = Tracer()
        for index in range(3):
            store.put(f"t{index}", [Span(tracer, "serve_request")])
        assert len(store) == 2
        assert store.get("t0") is None
        assert store.get("t2") is not None
        assert store.ids() == ["t2", "t1"]

    def test_derive_execution(self):
        tracer = Tracer()

        def named(name, **attrs):
            built = Span(tracer, name)
            built.attributes.update(attrs)
            return built

        assert derive_execution([]) == (None, None)
        hit = named("cache_probe", hit=True)
        root = named("serve_request")
        root.children.append(hit)
        assert derive_execution([root]) == (True, "cache")
        miss_sat = named("serve_request")
        miss_sat.children.extend(
            [named("cache_probe", hit=False), named("saturation_run")]
        )
        assert derive_execution([miss_sat]) == (False, "saturation")
        tableau = named("serve_request")
        tableau.children.extend(
            [named("saturation_run"), named("tableau_run")]
        )
        assert derive_execution([tableau]) == (None, "tableau")

    def test_derive_execution_orders_tableau_model_saturation_cache(self):
        """tableau > model > saturation > cache: the dearest engine that
        decided any probe of the request names it."""
        tracer = Tracer()

        def request(*children):
            root = Span(tracer, "serve_request")
            for name, attrs in children:
                child = Span(tracer, name)
                child.attributes.update(attrs)
                root.children.append(child)
            return [root]

        miss = ("cache_probe", {"hit": False})
        saturation = ("saturation_run", {"answered": False})
        witnessed = ("model_check", {"witnessed": True})
        declined = ("model_check", {"witnessed": False})
        tableau = ("tableau_run", {"satisfiable": True})
        assert derive_execution(request(miss, saturation, witnessed)) == (
            False,
            "model",
        )
        assert derive_execution(
            request(miss, saturation, declined, tableau)
        ) == (False, "tableau")
        assert derive_execution(
            request(miss, saturation, witnessed, declined, tableau)
        ) == (False, "tableau")
        assert derive_execution(request(miss, saturation, declined)) == (
            False,
            "saturation",
        )
