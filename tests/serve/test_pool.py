"""KB registry, probe execution, and worker-pool supervision tests."""

import os
import time

import pytest

from repro.dl.budget import Budget, CancelToken
from repro.serve.pool import (
    InlineExecutor,
    KBRegistry,
    WorkerPool,
    execute_probe,
    request_budget,
    shard_of,
)
from repro.serve.protocol import ProbeRequest

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


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def registry():
    return KBRegistry({"university": UNIVERSITY})


class TestKBRegistry:
    def test_names_and_membership(self, registry):
        assert registry.names == ("university",)
        assert "university" in registry
        assert "missing" not in registry

    def test_reasoner_loaded_once(self, registry):
        first, lock_one = registry.reasoner("university")
        second, lock_two = registry.reasoner("university")
        assert first is second
        assert lock_one is lock_two

    def test_unknown_name_raises(self, registry):
        with pytest.raises(KeyError):
            registry.reasoner("missing")


class TestConceptParserPerVersion:
    """The concept parser reads the KB's datatype roles, a scan of the
    whole KB, once per KB version rather than once per request."""

    REQUESTS = (
        ProbeRequest(kind="instance", kb="university",
                     individual="ada", concept="Person"),
        ProbeRequest(kind="subsumption", kb="university",
                     sub="Professor", sup="Staff", inclusion="internal"),
        ProbeRequest(kind="assertion_value", kb="university",
                     individual="grace", concept="Doctorate"),
        ProbeRequest(kind="satisfiable", kb="university"),
        ProbeRequest(kind="subsumption", kb="university",
                     sub="Student", sup="not Staff", inclusion="material"),
    )

    def test_fifty_requests_scan_once_and_an_edit_once_more(
        self, monkeypatch
    ):
        from repro.dl import ConceptAssertion
        from repro.dl.concepts import AtomicConcept
        from repro.dl.individuals import Individual
        from repro.four_dl.axioms4 import KnowledgeBase4

        registry = KBRegistry({"university": UNIVERSITY})
        kb4 = registry.reasoner("university")[0].kb4
        scans = []
        scan = KnowledgeBase4.datatype_roles_in_signature

        def counted(self):
            scans.append(self.version)
            return scan(self)

        monkeypatch.setattr(
            KnowledgeBase4, "datatype_roles_in_signature", counted
        )

        def ask_fifty():
            for index in range(50):
                request = self.REQUESTS[index % len(self.REQUESTS)]
                assert execute_probe(registry, request).status == "ok"

        ask_fifty()
        assert len(scans) == 1
        kb4.add_axiom(
            ConceptAssertion(Individual("newcomer"), AtomicConcept("Person"))
        )
        ask_fifty()
        assert len(scans) == 2
        assert scans[1] == kb4.version


class TestRequestBudget:
    REQUEST = ProbeRequest(kind="satisfiable", kb="uni", max_nodes=50)

    def test_no_deadline_carries_caps(self):
        budget = request_budget(self.REQUEST, None)
        assert budget.deadline is None
        assert budget.max_nodes == 50

    def test_future_deadline_becomes_remaining_seconds(self):
        budget = request_budget(self.REQUEST, time.monotonic() + 5.0)
        assert 0.0 < budget.deadline <= 5.0

    def test_expired_deadline_yields_none_not_valueerror(self):
        # Budget itself refuses deadline <= 0; the conversion must
        # short-circuit instead of constructing one.
        assert request_budget(self.REQUEST, time.monotonic() - 1.0) is None
        assert request_budget(self.REQUEST, time.monotonic()) is None
        with pytest.raises(ValueError):
            Budget(deadline=0.0)

    def test_cancel_token_rides_along(self):
        token = CancelToken()
        budget = request_budget(self.REQUEST, None, cancel=token)
        assert budget.cancel is token


class TestExecuteProbe:
    def test_satisfiable(self, registry):
        response = execute_probe(
            registry, ProbeRequest(kind="satisfiable", kb="university")
        )
        assert response.status == "ok"
        assert response.value is True

    def test_instance_and_assertion_value(self, registry):
        instance = execute_probe(
            registry,
            ProbeRequest(kind="instance", kb="university",
                         individual="ada", concept="Person"),
        )
        assert instance.status == "ok" and instance.value is True
        belnap = execute_probe(
            registry,
            ProbeRequest(kind="assertion_value", kb="university",
                         individual="grace", concept="Doctorate"),
        )
        assert belnap.status == "ok"
        assert belnap.value in {"TRUE", "FALSE", "BOTH", "NEITHER"}

    def test_subsumption_with_complex_concepts(self, registry):
        response = execute_probe(
            registry,
            ProbeRequest(kind="subsumption", kb="university",
                         sub="Professor and Person", sup="Person"),
        )
        assert response.status == "ok" and response.value is True

    def test_unknown_kb_is_a_usage_error(self, registry):
        response = execute_probe(
            registry, ProbeRequest(kind="satisfiable", kb="nope")
        )
        assert response.status == "error"
        assert "nope" in response.message

    def test_unparsable_concept_is_a_usage_error(self, registry):
        response = execute_probe(
            registry,
            ProbeRequest(kind="instance", kb="university",
                         individual="ada", concept="and and ("),
        )
        assert response.status == "error"

    def test_chaos_probe_refused_without_opt_in(self, registry):
        response = execute_probe(
            registry, ProbeRequest(kind="debug_stall", kb="university")
        )
        assert response.status == "error"
        assert "chaos" in response.message

    def test_exhausted_budget_degrades(self):
        # Fresh registry: the shared one has already decided this probe
        # and the cross-request cache would serve it budget-free.
        response = execute_probe(
            KBRegistry({"university": UNIVERSITY}),
            ProbeRequest(kind="satisfiable", kb="university"),
            budget=Budget(max_nodes=1),
        )
        assert response.status == "unknown"
        assert response.reason == "nodes"


class TestShardOf:
    def test_stable_and_in_range(self):
        for workers in (1, 2, 5):
            for kb in ("university", "medical", "penguin"):
                index = shard_of(kb, workers)
                assert 0 <= index < workers
                assert shard_of(kb, workers) == index


class TestInlineExecutor:
    def test_submit_resolves_synchronously(self):
        executor = InlineExecutor({"university": UNIVERSITY})
        pending = executor.submit(
            ProbeRequest(kind="satisfiable", kb="university")
        )
        assert pending.resolved
        assert pending.wait(0).value is True

    def test_chaos_refused_inline(self):
        executor = InlineExecutor({"university": UNIVERSITY})
        response = executor.submit(
            ProbeRequest(kind="debug_crash", kb="university")
        ).wait(0)
        assert response.status == "error"

    def test_expired_deadline_degrades(self):
        executor = InlineExecutor({"university": UNIVERSITY})
        response = executor.submit(
            ProbeRequest(kind="satisfiable", kb="university"),
            deadline_at=time.monotonic() - 0.5,
        ).wait(0)
        assert response.status == "unknown"
        assert response.reason == "deadline"

    def test_stopped_executor_drains(self):
        executor = InlineExecutor({"university": UNIVERSITY})
        assert executor.stop() is True
        response = executor.submit(
            ProbeRequest(kind="satisfiable", kb="university")
        ).wait(0)
        assert response.status == "unknown"
        assert response.reason == "cancelled"
        assert not executor.ready()


class TestWorkerPool:
    def test_answers_and_drains(self):
        pool = WorkerPool({"university": UNIVERSITY}, workers=1, **FAST)
        pool.start()
        try:
            assert wait_until(pool.ready)
            response = pool.submit(
                ProbeRequest(kind="satisfiable", kb="university"),
                deadline_at=time.monotonic() + 30.0,
            ).wait(30.0)
            assert response is not None and response.value is True
            assert pool.restarts_total() == 0
            assert len(pool.worker_pids()) == 1
        finally:
            assert pool.stop(drain_timeout=5.0) is True
        assert not pool.ready()

    def test_crash_degrades_inflight_and_restarts(self):
        pool = WorkerPool(
            {"university": UNIVERSITY}, workers=1, allow_chaos=True, **FAST
        )
        pool.start()
        try:
            assert wait_until(pool.ready)
            crashed = pool.submit(
                ProbeRequest(kind="debug_crash", kb="university"),
                deadline_at=time.monotonic() + 30.0,
            ).wait(30.0)
            assert crashed is not None
            assert crashed.status == "unknown"
            assert crashed.reason == "worker_crash"
            # The supervisor restarts the shard and service resumes.
            assert wait_until(pool.ready)
            assert pool.restarts_total() >= 1
            again = pool.submit(
                ProbeRequest(kind="satisfiable", kb="university"),
                deadline_at=time.monotonic() + 30.0,
            ).wait(30.0)
            assert again is not None and again.value is True
        finally:
            pool.stop(drain_timeout=5.0)

    def test_circuit_breaker_fails_fast_after_repeated_crashes(self):
        pool = WorkerPool(
            {"university": UNIVERSITY},
            workers=1,
            allow_chaos=True,
            circuit_threshold=2,
            circuit_cooldown=60.0,
            **FAST,
        )
        pool.start()
        try:
            assert wait_until(pool.ready)
            for _ in range(2):
                response = pool.submit(
                    ProbeRequest(kind="debug_crash", kb="university"),
                    deadline_at=time.monotonic() + 30.0,
                ).wait(30.0)
                assert response is not None
                assert response.reason == "worker_crash"
                wait_until(lambda: pool.workers_alive() in (0, 1))
            # Wait for the supervisor to register the second corpse.
            assert wait_until(lambda: not pool.ready(), timeout=5.0)
            fast_fail = pool.submit(
                ProbeRequest(kind="satisfiable", kb="university")
            ).wait(5.0)
            assert fast_fail is not None
            assert fast_fail.status == "unknown"
            assert fast_fail.reason == "worker_crash"
            assert "circuit" in fast_fail.message
        finally:
            pool.stop(drain_timeout=1.0)

    def test_stalled_worker_is_escalated(self):
        pool = WorkerPool(
            {"university": UNIVERSITY}, workers=1, allow_chaos=True, **FAST
        )
        pool.start()
        try:
            assert wait_until(pool.ready)
            started = time.monotonic()
            response = pool.submit(
                ProbeRequest(
                    kind="debug_stall", kb="university", stall_s=30.0
                ),
                deadline_at=time.monotonic() + 0.2,
            ).wait(15.0)
            elapsed = time.monotonic() - started
            assert response is not None, "stalled request hung"
            assert response.status == "unknown"
            assert elapsed < 10.0
        finally:
            pool.stop(drain_timeout=1.0)

    def test_stop_degrades_unsubmitted_requests(self):
        pool = WorkerPool({"university": UNIVERSITY}, workers=1, **FAST)
        pool.start()
        pool.stop(drain_timeout=1.0)
        response = pool.submit(
            ProbeRequest(kind="satisfiable", kb="university")
        ).wait(1.0)
        assert response is not None
        assert response.status == "unknown"
        assert response.reason == "cancelled"

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool({"university": UNIVERSITY}, workers=0)
