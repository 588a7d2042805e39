"""Trail-based search: verdicts, backjumping and its counters.

On clashes independent of recent choices the engine must *backjump*,
skipping choice points chronological backtracking would re-explore.
The crafted KB below is built so that BCP cannot screen the padding
disjuncts (they are conjunctions, not literals), forcing genuine choice
points.  Verdicts on random KBs are checked against independent oracles
(verified models and finite-model enumeration) in
``tests/integration/test_differential_fuzz.py``.
"""

import pytest

from repro.dl import (
    And,
    AtomicConcept,
    AtomicRole,
    ConceptAssertion,
    ConceptInclusion,
    Exists,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Reasoner,
    RoleAssertion,
    Tableau,
)
from repro.dl.errors import ReasonerLimitExceeded
from repro.four_dl import KnowledgeBase4, Reasoner4

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
r = AtomicRole("r")
a, b = Individual("a"), Individual("b")


def atom(name):
    return AtomicConcept(name)


def deep_disjunction_kb(padding):
    """A KB whose inconsistency is independent of ``padding`` open choices.

    Individuals ``a1..aN`` each carry a satisfiable disjunction of
    conjunctions (opaque to BCP), and ``z`` carries a disjunction both of
    whose disjuncts clash only after absorption expands the TBox — so the
    refutation of ``z`` happens *below* the padding choice points on the
    search stack, and its clash depends on none of them.
    """
    kb = KnowledgeBase()
    kb.add(ConceptInclusion(atom("P1"), Not(atom("P2"))))
    kb.add(ConceptInclusion(atom("Q1"), Not(atom("Q2"))))
    for i in range(1, padding + 1):
        kb.add(
            ConceptAssertion(
                Individual(f"a{i}"),
                Or.of(
                    And.of(atom(f"A{i}x"), atom(f"A{i}y")),
                    And.of(atom(f"B{i}x"), atom(f"B{i}y")),
                ),
            )
        )
    kb.add(
        ConceptAssertion(
            Individual("z"),
            Or.of(
                And.of(atom("P1"), atom("P2")),
                And.of(atom("Q1"), atom("Q2")),
            ),
        )
    )
    return kb


class TestOneConfiguration:
    @pytest.mark.parametrize("switch", ["search", "track_provenance"])
    def test_tableau_has_no_engine_switches(self, switch):
        with pytest.raises(TypeError):
            Tableau(KnowledgeBase(), **{switch: True})

    @pytest.mark.parametrize("switch", ["search", "incremental"])
    def test_reasoners_have_no_engine_switches(self, switch):
        with pytest.raises(TypeError):
            Reasoner(KnowledgeBase(), **{switch: True})
        with pytest.raises(TypeError):
            Reasoner4(KnowledgeBase4(), **{switch: True})

    def test_every_tableau_tracks_provenance(self):
        kb = deep_disjunction_kb(0)
        tableau = Tableau(kb)
        assert not tableau.is_satisfiable()
        assert tableau.last_unsat_core


class TestVerdicts:
    def test_crafted_kb_is_inconsistent(self):
        for padding in (0, 2, 4):
            kb = deep_disjunction_kb(padding)
            assert not Reasoner(kb, use_cache=False).is_consistent()

    def test_satisfiable_kb_is_consistent(self):
        kb = KnowledgeBase()
        kb.add(
            ConceptAssertion(a, Or.of(And.of(A, B), And.of(B, C))),
            ConceptAssertion(b, Exists(r, Or.of(A, C))),
            RoleAssertion(r, a, b),
            ConceptInclusion(A, Not(C)),
        )
        assert Reasoner(kb, use_cache=False).is_consistent()

    def test_repeated_queries_on_one_tableau_are_stable(self):
        # the trail must fully restore the shared graph between queries
        kb = KnowledgeBase()
        kb.add(
            ConceptAssertion(a, Or.of(A, B)),
            ConceptInclusion(A, Not(B)),
        )
        reasoner = Reasoner(kb, use_cache=False)
        answers = [
            reasoner.is_consistent(),
            reasoner.is_instance(a, Or.of(A, B)),
            reasoner.is_instance(a, A),
            reasoner.is_consistent(),
            reasoner.is_instance(a, Or.of(A, B)),
        ]
        assert answers == [True, True, False, True, True]


class TestBackjumping:
    def test_trail_backjumps_over_the_padding(self):
        kb = deep_disjunction_kb(4)
        trail = Reasoner(kb, use_cache=False)
        assert not trail.is_consistent()
        assert trail.stats.backjumps > 0
        assert trail.stats.branch_points_skipped >= 4

    def test_branches_grow_linearly_with_padding_depth(self):
        # chronological backtracking pays 2^(N+2) - 1; backjumping pays N + 3
        counts = []
        for padding in (2, 4, 6):
            trail = Reasoner(deep_disjunction_kb(padding), use_cache=False)
            assert not trail.is_consistent()
            counts.append(trail.stats.branches_explored)
        assert counts == [padding + 3 for padding in (2, 4, 6)]

    def test_trail_records_its_length(self):
        kb = deep_disjunction_kb(3)
        trail = Reasoner(kb, use_cache=False)
        assert not trail.is_consistent()
        assert trail.stats.trail_length > 0


class TestBranchBudget:
    def test_backjumping_fits_a_cap_chronological_search_would_blow(self):
        # 2^(8+2) - 1 = 1023 chronological branches; the trail needs 11
        kb = deep_disjunction_kb(8)
        trail = Reasoner(kb, use_cache=False, max_branches=64)
        assert not trail.is_consistent()
        assert trail.stats.branches_explored <= 11

    def test_max_branches_aborts_the_search(self):
        kb = deep_disjunction_kb(8)
        with pytest.raises(ReasonerLimitExceeded):
            Reasoner(kb, use_cache=False, max_branches=4).is_consistent()
