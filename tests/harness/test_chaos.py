"""Fault-injection suite: the chaos harness and its two invariants.

The heavyweight guarantee lives in the suite classes: across 60 seeded
(KB, fault) cases — every fault kind — an aborted search never poisons
the cache and the reasoner stays reusable, answering exactly like a
cold one.
"""

import random

import pytest

from repro.dl import Budget, BudgetExceeded, DegradationReason, Reasoner
from repro.harness.chaos import (
    CHAOS_KB,
    FAULT_KINDS,
    ChaosError,
    ScriptedCancelToken,
    SteppedClock,
    fault_budget,
    probe_plan,
    run_chaos_case,
    run_chaos_suite,
)
from repro.workloads import GeneratorConfig, generate_kb


class TestFaultPrimitives:
    def test_scripted_token_fires_at_the_nth_poll(self):
        token = ScriptedCancelToken(fire_at=3)
        assert not token.is_set()
        assert not token.is_set()
        assert token.is_set()
        assert token.is_set()  # stays fired

    def test_scripted_token_can_raise_instead(self):
        token = ScriptedCancelToken(fire_at=2, raise_error=True)
        assert not token.is_set()
        with pytest.raises(ChaosError):
            token.is_set()

    def test_scripted_token_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ScriptedCancelToken(fire_at=0)

    def test_stepped_clock_is_deterministic(self):
        clock = SteppedClock(start=5.0, step=2.0)
        assert [clock(), clock(), clock()] == [5.0, 7.0, 9.0]
        assert clock.readings == 3

    @pytest.mark.parametrize("fault", FAULT_KINDS)
    def test_fault_budget_builds_every_kind(self, fault):
        budget = fault_budget(fault, random.Random(0))
        assert isinstance(budget, Budget)

    def test_fault_budget_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fault_budget("gamma-rays", random.Random(0))


class TestInjectedFaultsActuallyFire:
    """Each pathway must produce a real abort on a branching KB."""

    def _kb(self, seed=3):
        return generate_kb(GeneratorConfig(seed=seed, **CHAOS_KB))

    def test_cancellation_mid_search(self):
        reasoner = Reasoner(self._kb())
        budget = Budget(cancel=ScriptedCancelToken(fire_at=2))
        verdict = reasoner.consistency_verdict(budget=budget)
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.CANCELLED

    def test_injected_exception_contained_as_error(self):
        reasoner = Reasoner(self._kb())
        budget = Budget(
            cancel=ScriptedCancelToken(fire_at=2, raise_error=True)
        )
        verdict = reasoner.consistency_verdict(budget=budget)
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.ERROR
        assert "ChaosError" in verdict.message

    def test_deadline_via_fake_clock(self):
        reasoner = Reasoner(self._kb())
        # deadline_at = 0 + 0.5; the first tick reads 1.0 and expires
        budget = Budget(
            deadline=0.5, clock=SteppedClock(step=1.0), check_interval=1
        )
        verdict = reasoner.consistency_verdict(budget=budget)
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.DEADLINE

    def test_injected_exception_propagates_on_boolean_api(self):
        """Boolean APIs don't swallow arbitrary faults — only verdict
        APIs contain them."""
        reasoner = Reasoner(
            self._kb(),
            budget=Budget(
                cancel=ScriptedCancelToken(fire_at=2, raise_error=True)
            ),
        )
        with pytest.raises(ChaosError):
            reasoner.is_consistent()


class TestSingleCase:
    def test_case_reports_its_parameters(self):
        result = run_chaos_case(0, fault="nodes")
        assert (result.seed, result.fault) == (0, "nodes")
        assert result.ok, result.mismatches
        assert result.decided + result.unknowns == len(
            probe_plan(generate_kb(GeneratorConfig(seed=0, **CHAOS_KB)))
        )

    def test_same_seed_same_outcome(self):
        first = run_chaos_case(7, fault="branches")
        second = run_chaos_case(7, fault="branches")
        assert (first.decided, first.unknowns) == (
            second.decided,
            second.unknowns,
        )


class TestChaosSuiteInvariants:
    """The tentpole guarantee: 60 seeded cases, all faults.

    One case per seed; the suite rotates through all six fault kinds, so
    every degradation pathway is hit ten times.  A failure prints the
    exact (seed, fault) pair.
    """

    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos_suite(range(60))

    def test_no_invariant_violations(self, report):
        assert report.ok, report.render()

    def test_matrix_size_floor(self, report):
        assert len(report.cases) >= 60

    def test_faults_actually_degraded_probes(self, report):
        # the suite is vacuous if no injected fault ever fired
        assert report.unknowns > 0

    def test_most_probes_still_decide(self, report):
        # and useless if faults killed everything
        assert report.decided > report.unknowns

    def test_every_fault_kind_ran(self, report):
        assert {case.fault for case in report.cases} == set(FAULT_KINDS)

    def test_render_summarises(self, report):
        text = report.render()
        assert "cases" in text and "UNKNOWN" in text


class TestReasonerReusabilityAfterHardAborts:
    """Raw BudgetExceeded (boolean API) must also leave a clean state."""

    @pytest.mark.parametrize("seed", range(16))
    def test_abort_then_reuse(self, seed):
        kb = generate_kb(GeneratorConfig(seed=seed, **CHAOS_KB))
        cold = Reasoner(kb, use_cache=False)
        victim = Reasoner(kb)
        atoms = sorted(kb.concepts_in_signature(), key=lambda a: a.name)[:2]
        individuals = sorted(
            kb.individuals_in_signature(), key=lambda i: i.name
        )[:2]
        victim.budget = Budget(max_nodes=1)
        try:
            victim.is_consistent()
        except BudgetExceeded:
            pass
        victim.budget = None
        assert victim.is_consistent() == cold.is_consistent()
        for individual in individuals:
            for atom in atoms:
                assert victim.is_instance(individual, atom) == cold.is_instance(
                    individual, atom
                ), f"seed={seed}"
