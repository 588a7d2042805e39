"""End-to-end degradation: every public service answers UNKNOWN, not a crash.

Covers the acceptance scenario (an exponential KB blowing a 100ms
deadline degrades fast and decides under escalation), the four-valued
degrading services, skip-and-record in all four baselines, and the CLI
budget flags with exit status 3.
"""

import time

import pytest

from repro.cli import main
from repro.dl import (
    And,
    AtomicConcept,
    Budget,
    ConceptAssertion,
    ConceptInclusion,
    DegradationReason,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Reasoner,
    retry_with_escalation,
)
from repro.four_dl import ConceptInclusion4, InclusionKind, Reasoner4, from_classical
from repro.fourvalued.truth import FourValue
from repro.workloads import ScalingConfig, ScalingProfile, generate_scaling_kb4

X = Individual("x")


def exponential_kb(levels):
    """Forced full exploration: x picks one of {A_i, B_i} per level, every
    total choice derives all Q_i, their conjunction forces P, and x : not P
    clashes only at the leaves — so refutation visits ~2^levels branches
    and dependency-directed backjumping cannot prune (each clash depends
    on every level's choice)."""
    kb = KnowledgeBase()
    P = AtomicConcept("P")
    picks, qs = [], []
    for i in range(levels):
        A, B, Q = (
            AtomicConcept(f"A{i}"),
            AtomicConcept(f"B{i}"),
            AtomicConcept(f"Q{i}"),
        )
        kb.add(ConceptInclusion(A, Q), ConceptInclusion(B, Q))
        picks.append(Or.of(A, B))
        qs.append(Q)
    kb.add(ConceptInclusion(And.of(*qs), P))
    kb.add(ConceptAssertion(X, And.of(*picks)))
    kb.add(ConceptAssertion(X, Not(P)))
    return kb


def conflicted_kb4():
    kb = KnowledgeBase()
    Penguin, Bird, CanFly = (
        AtomicConcept("Penguin"),
        AtomicConcept("Bird"),
        AtomicConcept("CanFly"),
    )
    tweety = Individual("tweety")
    kb.add(
        ConceptInclusion(Penguin, Bird),
        ConceptInclusion(Penguin, Not(CanFly)),
        ConceptInclusion(Bird, CanFly),
        ConceptAssertion(tweety, Penguin),
    )
    return from_classical(kb), tweety, CanFly


class TestExponentialKBAcceptance:
    """The headline robustness scenario from the issue."""

    def test_100ms_deadline_degrades_within_500ms(self):
        reasoner = Reasoner(exponential_kb(12), use_cache=False)
        started = time.monotonic()
        verdict = reasoner.consistency_verdict(budget=Budget(deadline=0.1))
        elapsed = time.monotonic() - started
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.DEADLINE
        assert elapsed < 0.5, f"degradation took {elapsed:.3f}s"
        assert reasoner.stats.budget_aborts == 1

    def test_escalation_turns_unknown_into_a_decision(self):
        reasoner = Reasoner(exponential_kb(12), use_cache=False)

        def probe(budget):
            return reasoner.consistency_verdict(budget=budget)

        verdict = retry_with_escalation(
            probe,
            Budget(deadline=0.1),
            factor=8.0,
            attempts=3,
            stats=reasoner.stats,
        )
        assert verdict.is_false()  # the KB is inconsistent by construction
        assert reasoner.stats.escalations >= 1

    def test_branch_escalation_is_deterministic(self):
        """Timing-free variant: escalate a branch cap, not a deadline."""
        reasoner = Reasoner(exponential_kb(8), use_cache=False)

        def probe(budget):
            return reasoner.consistency_verdict(budget=budget)

        first = probe(Budget(max_branches=100))
        assert first.is_unknown()
        assert first.reason is DegradationReason.BRANCHES
        verdict = retry_with_escalation(
            probe, Budget(max_branches=100), factor=16.0, attempts=3
        )
        assert verdict.is_false()


class TestDeadlineOnALargeABox:
    """The deadline must hold inside one tableau run, not just between passes.

    On the 2,000-axiom ABox-heavy corpus point this probe takes a single
    tableau run whose expansion passes each visit every individual's
    node and take 0.1-0.3 s.  Ticked once per pass, a meter that reads
    the clock every 16 ticks let the answer come seconds late.
    """

    def test_half_second_deadline_answers_within_a_second(self):
        kb4 = generate_scaling_kb4(
            ScalingConfig(
                n_axioms=2000, profile=ScalingProfile.ABOX_HEAVY, seed=0
            )
        )
        reasoner = Reasoner4(kb4)
        axiom = ConceptInclusion4(
            AtomicConcept("C16"), AtomicConcept("C20"), InclusionKind.STRONG
        )
        started = time.monotonic()
        verdict = reasoner.entails_verdict(axiom, budget=Budget(deadline=0.5))
        elapsed = time.monotonic() - started
        assert verdict.is_unknown()
        assert verdict.reason is DegradationReason.DEADLINE
        assert elapsed < 1.0, f"degradation took {elapsed:.3f}s"


class TestReasoner4Degradation:
    def test_satisfiability_verdict_degrades(self):
        kb4, tweety, CanFly = conflicted_kb4()
        # Work caps are tableau-specific; pin the engine so the tiny
        # trail budget actually bites instead of saturation answering.
        reasoner = Reasoner4(kb4, engine="tableau")
        verdict = reasoner.is_satisfiable_verdict(budget=Budget(max_trail=1))
        assert verdict.is_unknown()
        assert reasoner.is_satisfiable() is True  # reusable afterwards

    def test_assertion_value_bounded_degrades_and_recovers(self):
        kb4, tweety, CanFly = conflicted_kb4()
        reasoner = Reasoner4(kb4, engine="tableau")
        bounded = reasoner.assertion_value_bounded(
            tweety, CanFly, budget=Budget(max_trail=1)
        )
        assert bounded.is_unknown()
        assert bounded.value is None
        full = reasoner.assertion_value_bounded(tweety, CanFly)
        assert not full.is_unknown()
        assert full.value is FourValue.BOTH
        assert reasoner.assertion_value(tweety, CanFly) is FourValue.BOTH

    def test_entails_verdict_matches_entails(self):
        kb4, tweety, CanFly = conflicted_kb4()
        reasoner = Reasoner4(kb4)
        axiom = ConceptAssertion(tweety, CanFly)
        assert bool(reasoner.entails_verdict(axiom)) == reasoner.entails(axiom)

    def test_classify_bounded_partial_rows_match_full(self):
        kb4, tweety, CanFly = conflicted_kb4()
        full = Reasoner4(kb4).classify(kind=InclusionKind.INTERNAL)
        partial = Reasoner4(kb4).classify_bounded(
            kind=InclusionKind.INTERNAL, budget=Budget(max_branches=8)
        )
        for atom, supers in partial.hierarchy.items():
            assert supers == full[atom]
        decided = sum(1 for _ in partial.hierarchy)
        assert decided < len(full) or partial.complete

    def test_classify_bounded_unbudgeted_is_complete(self):
        kb4, tweety, CanFly = conflicted_kb4()
        reasoner = Reasoner4(kb4)
        partial = reasoner.classify_bounded(kind=InclusionKind.INTERNAL)
        assert partial.complete
        assert partial.hierarchy == reasoner.classify(
            kind=InclusionKind.INTERNAL
        )


class TestBaselineDegradation:
    def _classical_conflicted(self):
        kb4, tweety, CanFly = conflicted_kb4()
        from repro.four_dl import collapse_to_classical

        return collapse_to_classical(kb4), tweety, CanFly

    def _residual_conflicted(self):
        """The conflicted KB with its clash routed through a disjunction.

        ``Or`` keeps every consistency probe outside the saturation
        fragment, so the baselines' internal reasoners must run the
        tableau and the crafted work budgets below genuinely bite.
        """
        from repro.dl import BOTTOM, ConceptInclusion, KnowledgeBase, Or

        kb, tweety, CanFly = self._classical_conflicted()
        residual = KnowledgeBase()
        for axiom in kb.axioms():
            if isinstance(axiom, ConceptInclusion) and axiom.sup == CanFly:
                residual.add(
                    ConceptInclusion(axiom.sub, Or.of(CanFly, BOTTOM))
                )
            else:
                residual.add(axiom)
        return residual, tweety, CanFly

    def test_repair_reasoner_records_and_returns(self):
        from repro.baselines import RepairReasoner

        kb, tweety, CanFly = self._residual_conflicted()
        repairer = RepairReasoner(kb, budget=Budget(max_trail=1))
        assert repairer.justifications == []
        assert repairer.degradations, "expected skip-and-record entries"
        assert all(
            record.reason is DegradationReason.TRAIL
            for record in repairer.degradations
        )

    def test_repair_reasoner_unbudgeted_still_works(self):
        from repro.baselines import RepairReasoner

        kb, tweety, CanFly = self._classical_conflicted()
        repairer = RepairReasoner(kb)
        assert repairer.justifications
        assert repairer.degradations == []
        assert repairer.query(tweety, CanFly) in {
            "accepted",
            "rejected",
            "undetermined",
        }

    def test_selection_reasoner_degrades_to_undetermined(self):
        from repro.baselines import SelectionReasoner

        kb, tweety, CanFly = self._residual_conflicted()
        selector = SelectionReasoner(kb, budget=Budget(max_trail=1))
        # the undecidable ring stops the linear extension and is recorded;
        # the query still answers soundly over the rings decided so far
        assert selector.query(tweety, CanFly) in {
            "accepted",
            "rejected",
            "undetermined",
        }
        assert selector.degradations

    def test_selection_reasoner_unbudgeted_unchanged(self):
        from repro.baselines import SelectionReasoner

        kb, tweety, CanFly = self._classical_conflicted()
        selector = SelectionReasoner(kb)
        assert selector.query(tweety, CanFly) in {
            "accepted",
            "rejected",
            "undetermined",
        }
        assert selector.degradations == []

    def test_stratified_reasoner_drops_undecidable_strata(self):
        from repro.baselines import StratifiedReasoner, default_stratification

        kb, tweety, CanFly = self._residual_conflicted()
        bounded = StratifiedReasoner(
            default_stratification(kb), budget=Budget(max_trail=1)
        )
        assert bounded.degradations
        # conservative: nothing retained when nothing was provable
        assert bounded.query(tweety, CanFly) == "undetermined"

    def test_stratified_reasoner_unbudgeted_unchanged(self):
        from repro.baselines import StratifiedReasoner, default_stratification

        kb, tweety, CanFly = self._classical_conflicted()
        plain = StratifiedReasoner(default_stratification(kb))
        assert plain.degradations == []
        assert plain.query(tweety, CanFly) in {
            "accepted",
            "rejected",
            "undetermined",
        }

    def test_classical_baseline_query_status_unknown(self):
        from repro.baselines import ClassicalBaseline

        kb, tweety, CanFly = self._classical_conflicted()
        baseline = ClassicalBaseline(kb, budget=Budget(max_trail=1))
        assert baseline.query_status(tweety, CanFly) == "unknown"
        unbounded = ClassicalBaseline(kb)
        assert unbounded.query_status(tweety, CanFly) == "both"


CONFLICTED_TEXT = """
Penguin subclassof Bird
Penguin subclassof not CanFly
Bird subclassof CanFly
tweety : Penguin
"""


class TestCLIBudgetFlags:
    @pytest.fixture()
    def ontology(self, tmp_path):
        path = tmp_path / "conflicted.kb4"
        path.write_text(CONFLICTED_TEXT)
        return str(path)

    def test_check_timeout_exits_3(self, ontology, capsys):
        code = main(["check", ontology, "--timeout", "0.000001"])
        out = capsys.readouterr().out
        assert code == 3
        assert "unknown" in out
        assert "Traceback" not in out

    def test_check_generous_budget_decides(self, ontology, capsys):
        code = main(["check", ontology, "--timeout", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "four-valued satisfiable: True" in out

    def test_query_branch_cap_exits_3(self, ontology, capsys):
        code = main(
            [
                "query",
                ontology,
                "tweety",
                "CanFly",
                "--max-branches",
                "1",
                "--engine",
                "tableau",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "unknown" in out

    def test_query_unbudgeted_still_answers_both(self, ontology, capsys):
        code = main(["query", ontology, "tweety", "CanFly"])
        out = capsys.readouterr().out
        assert code == 0
        assert "contradictory evidence" in out

    def test_classify_partial_hierarchy_exits_3(self, ontology, capsys):
        code = main(
            ["classify", ontology, "--max-branches", "1", "--engine", "tableau"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "undecided" in out

    def test_classify_with_room_exits_0(self, ontology, capsys):
        code = main(["classify", ontology, "--timeout", "30"])
        assert code == 0

    def test_repair_timeout_exits_3(self, ontology, capsys):
        code = main(["repair", ontology, "--timeout", "0.000001"])
        out = capsys.readouterr().out
        assert code == 3
        assert "unknown" in out

    def test_repair_unbudgeted_unchanged(self, ontology, capsys):
        code = main(["repair", ontology])
        out = capsys.readouterr().out
        assert code == 1
        assert "justifications found" in out

    def test_max_nodes_flag_exits_3(self, tmp_path, capsys):
        # an existential forces a second completion-graph node
        path = tmp_path / "deep.kb4"
        path.write_text(
            CONFLICTED_TEXT + "tweety : hasAncestor some Bird\n"
        )
        code = main(
            ["check", str(path), "--max-nodes", "1", "--engine", "tableau"]
        )
        assert code == 3
