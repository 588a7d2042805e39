"""Unit tests for the resource-governance layer (budget.py).

Budget validation and scaling, meter semantics (latching, amortised
clock reads, cumulative caps), the three-way Verdict type, degrading
reasoner services, and retry_with_escalation.
"""

import pytest

from repro.dl import (
    AtomicConcept,
    Budget,
    BudgetExceeded,
    CancelToken,
    ConceptAssertion,
    ConceptInclusion,
    DegradationReason,
    DegradationRecord,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Reasoner,
    Verdict,
    retry_with_escalation,
)
from repro.dl.budget import DEFAULT_CHECK_INTERVAL


class FakeClock:
    """A clock advanced manually by the test."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def small_kb():
    A, B = AtomicConcept("A"), AtomicConcept("B")
    x, y = Individual("x"), Individual("y")
    kb = KnowledgeBase()
    kb.add(
        ConceptAssertion(x, A),
        ConceptInclusion(A, Or.of(B, Not(A))),
        ConceptAssertion(y, Not(B)),
    )
    return kb, A, B, x


class TestBudgetValidation:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            Budget(deadline=0)
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)

    @pytest.mark.parametrize("axis", ["max_nodes", "max_branches", "max_trail"])
    def test_rejects_caps_below_one(self, axis):
        with pytest.raises(ValueError):
            Budget(**{axis: 0})

    def test_rejects_bad_check_interval(self):
        with pytest.raises(ValueError):
            Budget(check_interval=0)

    def test_unlimited_budget_is_fine(self):
        meter = Budget().start()
        for _ in range(1000):
            meter.tick()
            meter.note_branch()

    def test_scaled_multiplies_finite_axes_only(self):
        budget = Budget(deadline=2.0, max_nodes=10, max_branches=None)
        bigger = budget.scaled(4.0)
        assert bigger.deadline == 8.0
        assert bigger.max_nodes == 40
        assert bigger.max_branches is None

    def test_scaled_keeps_token_and_clock(self):
        token = CancelToken()
        clock = FakeClock()
        budget = Budget(deadline=1.0, cancel=token, clock=clock)
        bigger = budget.scaled(2.0)
        assert bigger.cancel is token
        assert bigger.clock is clock

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            Budget(max_nodes=5).scaled(0)


class TestBudgetMeter:
    def test_deadline_expiry_raises_with_reason(self):
        clock = FakeClock()
        meter = Budget(deadline=1.0, clock=clock, check_interval=1).start()
        meter.tick()  # within deadline
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.tick()
        assert excinfo.value.reason is DegradationReason.DEADLINE

    def test_expired_meter_latches(self):
        clock = FakeClock()
        meter = Budget(deadline=1.0, clock=clock, check_interval=1).start()
        clock.advance(5.0)
        with pytest.raises(BudgetExceeded):
            meter.tick()
        # keeps raising even if the clock were rolled back
        clock.now = 0.0
        with pytest.raises(BudgetExceeded):
            meter.tick()

    def test_clock_reads_are_amortised(self):
        reads = []
        clock = FakeClock()

        def counting_clock():
            reads.append(1)
            return clock()

        meter = Budget(deadline=100.0, clock=counting_clock).start()
        for _ in range(DEFAULT_CHECK_INTERVAL * 3):
            meter.tick()
        # one read at start() plus one per interval, not one per tick
        assert len(reads) == 1 + 3

    def test_each_scope_gets_a_fresh_deadline_window(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock, check_interval=1)
        first = budget.start()
        clock.advance(10.0)
        with pytest.raises(BudgetExceeded):
            first.tick()
        # a new metered scope measures its deadline from its own start
        budget.start().tick()

    def test_cancel_polled_every_tick(self):
        token = CancelToken()
        meter = Budget(cancel=token).start()
        meter.tick()
        token.cancel()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.tick()
        assert excinfo.value.reason is DegradationReason.CANCELLED

    def test_branch_cap_is_cumulative(self):
        meter = Budget(max_branches=3).start()
        meter.note_branch()
        meter.note_branch()
        meter.note_branch()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.note_branch()
        assert excinfo.value.reason is DegradationReason.BRANCHES

    def test_trail_cap_is_cumulative(self):
        meter = Budget(max_trail=10).start()
        meter.note_trail(6)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.note_trail(6)
        assert excinfo.value.reason is DegradationReason.TRAIL


class TestVerdict:
    def test_singletons_and_of(self):
        assert Verdict.of(True) is Verdict.TRUE
        assert Verdict.of(False) is Verdict.FALSE

    def test_three_way_predicates(self):
        unknown = Verdict.unknown(DegradationReason.DEADLINE)
        assert Verdict.TRUE.is_true() and not Verdict.TRUE.is_unknown()
        assert Verdict.FALSE.is_false()
        assert unknown.is_unknown()
        assert not unknown.is_true() and not unknown.is_false()

    def test_bool_raises_on_unknown(self):
        unknown = Verdict.unknown(DegradationReason.NODES, "cap hit")
        with pytest.raises(TypeError):
            bool(unknown)
        assert bool(Verdict.TRUE) is True
        assert bool(Verdict.FALSE) is False

    def test_negate_keeps_unknown(self):
        unknown = Verdict.unknown(DegradationReason.BRANCHES)
        assert Verdict.TRUE.negate() is Verdict.FALSE
        assert Verdict.FALSE.negate() is Verdict.TRUE
        assert unknown.negate() is unknown

    def test_str_forms(self):
        assert str(Verdict.TRUE) == "TRUE"
        assert str(Verdict.FALSE) == "FALSE"
        assert (
            str(Verdict.unknown(DegradationReason.DEADLINE))
            == "UNKNOWN(deadline)"
        )

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            Verdict(value=None)  # unknown without a reason
        with pytest.raises(ValueError):
            Verdict(value=True, reason=DegradationReason.NODES)

    def test_degradation_record_renders(self):
        record = DegradationRecord("stratum 2", DegradationReason.DEADLINE)
        assert str(record) == "stratum 2: deadline"


class TestDegradingReasonerServices:
    def test_node_budget_degrades_to_unknown(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        verdict = reasoner.instance_verdict(x, B, budget=Budget(max_nodes=1))
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.NODES
        assert reasoner.stats.unknown_verdicts >= 1
        assert reasoner.stats.budget_aborts >= 1

    def test_unbudgeted_verdicts_are_decided(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.consistency_verdict().is_true()
        assert not reasoner.instance_verdict(x, B).is_unknown()
        assert not reasoner.subsumption_verdict(B, A).is_unknown()
        assert not reasoner.satisfiable_verdict(A).is_unknown()

    def test_cancelled_budget_degrades(self):
        kb, A, B, x = small_kb()
        token = CancelToken()
        token.cancel()
        verdict = Reasoner(kb).consistency_verdict(
            budget=Budget(cancel=token)
        )
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.CANCELLED

    def test_constructor_budget_applies_to_boolean_api(self):
        kb, A, B, x = small_kb()
        bounded = Reasoner(kb, budget=Budget(max_nodes=1))
        with pytest.raises(BudgetExceeded):
            bounded.is_consistent()

    def test_entails_verdict_matches_entails(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        axiom = ConceptAssertion(x, A)
        assert bool(reasoner.entails_verdict(axiom)) == reasoner.entails(axiom)

    def test_degrades_and_stays_reusable(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        verdict = reasoner.instance_verdict(x, B, budget=Budget(max_nodes=1))
        assert verdict.is_unknown()
        # and stay reusable afterwards
        assert reasoner.is_consistent() is True

    def test_verdict_never_flips_the_unbudgeted_answer(self):
        kb, A, B, x = small_kb()
        reference = Reasoner(kb, use_cache=False)
        for cap in (1, 2, 3, 4, 50):
            probe = Reasoner(kb, use_cache=False)
            verdict = probe.instance_verdict(
                x, B, budget=Budget(max_nodes=cap)
            )
            if not verdict.is_unknown():
                assert bool(verdict) == reference.is_instance(x, B)


class TestClassifyBounded:
    def test_unbudgeted_matches_classify(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        partial = reasoner.classify_bounded()
        assert partial.complete
        assert partial.reason is None
        assert dict(partial.hierarchy) == dict(reasoner.classify())

    def test_tight_budget_yields_undecided_pairs(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        partial = reasoner.classify_bounded(budget=Budget(max_nodes=1))
        assert not partial.complete
        assert partial.reason is not None
        atoms = sorted(kb.concepts_in_signature(), key=lambda a: a.name)
        total_pairs = len(atoms) * len(atoms)
        decided_rows = sum(len(atoms) for _ in partial.hierarchy)
        assert decided_rows + len(partial.undecided) == total_pairs

    def test_partial_rows_agree_with_full_classification(self):
        kb, A, B, x = small_kb()
        full = Reasoner(kb).classify()
        partial = Reasoner(kb).classify_bounded(budget=Budget(max_branches=6))
        for atom, supers in partial.hierarchy.items():
            assert supers == full[atom]


class TestRetryWithEscalation:
    def test_decided_probe_returns_immediately(self):
        calls = []

        def probe(budget):
            calls.append(budget)
            return Verdict.TRUE

        verdict = retry_with_escalation(probe, Budget(max_nodes=2))
        assert verdict is Verdict.TRUE
        assert len(calls) == 1

    def test_escalates_until_decidable(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)

        def probe(budget):
            return reasoner.instance_verdict(x, B, budget=budget)

        verdict = retry_with_escalation(
            probe, Budget(max_nodes=1), factor=4.0, attempts=3,
            stats=reasoner.stats,
        )
        assert not verdict.is_unknown()
        assert reasoner.stats.escalations >= 1

    def test_gives_up_after_attempts(self):
        calls = []

        def probe(budget):
            calls.append(budget.max_nodes)
            return Verdict.unknown(DegradationReason.NODES)

        verdict = retry_with_escalation(
            probe, Budget(max_nodes=1), factor=2.0, attempts=3
        )
        assert verdict.is_unknown()
        assert calls == [1, 2, 4]

    def test_cancellation_is_not_escalated(self):
        calls = []

        def probe(budget):
            calls.append(budget)
            return Verdict.unknown(DegradationReason.CANCELLED)

        verdict = retry_with_escalation(probe, Budget(max_nodes=1), attempts=5)
        assert verdict.reason is DegradationReason.CANCELLED
        assert len(calls) == 1

    def test_ceiling_stops_escalation_early(self):
        calls = []

        def probe(budget):
            calls.append(budget.max_nodes)
            return Verdict.unknown(DegradationReason.NODES)

        verdict = retry_with_escalation(
            probe,
            Budget(max_nodes=4),
            factor=10.0,
            attempts=10,
            ceiling=Budget(max_nodes=40),
        )
        assert verdict.is_unknown()
        # 4 -> 40 (clamped) -> clamp again equals current -> stop
        assert calls == [4, 40]

    def test_reasoner_entails_with_escalation(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        verdict = reasoner.entails_with_escalation(
            ConceptAssertion(x, A), Budget(max_nodes=1), attempts=4
        )
        assert verdict.is_true()

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            retry_with_escalation(lambda b: Verdict.TRUE, Budget(), attempts=0)
        with pytest.raises(ValueError):
            retry_with_escalation(lambda b: Verdict.TRUE, Budget(), factor=1.0)


class TestStatsCounters:
    def test_deadline_checks_counted(self):
        kb, A, B, x = small_kb()
        clock = FakeClock()
        reasoner = Reasoner(kb)
        reasoner.consistency_verdict(
            budget=Budget(deadline=100.0, clock=clock, check_interval=1)
        )
        assert reasoner.stats.deadline_checks >= 1

    def test_render_mentions_budget_after_abort(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        reasoner.instance_verdict(x, B, budget=Budget(max_nodes=1))
        assert "budget:" in reasoner.stats.render()

    def test_render_quiet_without_budget_activity(self):
        kb, A, B, x = small_kb()
        reasoner = Reasoner(kb)
        reasoner.is_consistent()
        # No budget group is rendered; it is listed in the elision trailer.
        rendered = reasoner.stats.render()
        assert "budget:" not in rendered
        assert "zero:" in rendered and "budget" in rendered.split("zero:")[1]
