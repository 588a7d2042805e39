"""Cache-soundness regressions: no stale answers, traversal == pairwise.

The query cache and the traversal classifier are pure optimisations —
they must be observationally invisible.  These tests pin that down on the
shipped paper ontologies and on explicit mutate-after-query scenarios,
the exact situations where an unsound cache would first leak.
"""

import glob
import os

import pytest

from repro.dl import (
    AtomicConcept,
    ConceptAssertion,
    ConceptInclusion,
    Individual,
    KnowledgeBase,
    Not,
    Reasoner,
)
from repro.dl.parser import parse_kb4
from repro.four_dl import Reasoner4, transform_kb
from repro.fourvalued.truth import FourValue
from tests.oracles import classify_pairwise

ONTOLOGY_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ontologies"
)
ONTOLOGY_FILES = sorted(glob.glob(os.path.join(ONTOLOGY_DIR, "*.kb4")))


def _load(path):
    with open(path) as handle:
        return parse_kb4(handle.read())


@pytest.mark.parametrize(
    "path", ONTOLOGY_FILES, ids=[os.path.basename(p) for p in ONTOLOGY_FILES]
)
def test_model_driven_classification_matches_pairwise(path):
    """The model-driven classifier equals the pairwise sweep exactly.

    Runs on the induced classical KB of each shipped ontology — the
    hierarchies the four-valued layer actually computes over — against
    a cold tableau-only reasoner, so neither kept models nor saturation
    reach the reference.
    """
    induced = transform_kb(_load(path))
    classified = Reasoner(induced).classify()
    pairwise = classify_pairwise(
        Reasoner(induced, use_cache=False, engine="tableau")
    )
    assert classified == pairwise


@pytest.mark.parametrize(
    "path", ONTOLOGY_FILES, ids=[os.path.basename(p) for p in ONTOLOGY_FILES]
)
def test_cached_and_cold_audits_agree(path):
    """Full contradiction audits with and without the cache coincide."""
    kb4 = _load(path)
    assert (
        Reasoner4(kb4).contradictory_facts()
        == Reasoner4(kb4, use_cache=False).contradictory_facts()
    )


class TestMutationInvalidation:
    def test_new_inclusion_changes_the_answer(self):
        A, B = AtomicConcept("A"), AtomicConcept("B")
        x = Individual("x")
        kb = KnowledgeBase()
        kb.add(ConceptAssertion(x, A))
        reasoner = Reasoner(kb)
        assert not reasoner.is_instance(x, B)
        kb.add(ConceptInclusion(A, B))
        assert reasoner.is_instance(x, B)

    def test_new_assertion_flips_consistency(self):
        A = AtomicConcept("A")
        x = Individual("x")
        kb = KnowledgeBase()
        kb.add(ConceptAssertion(x, A))
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        kb.add(ConceptAssertion(x, Not(A)))
        assert not reasoner.is_consistent()

    def test_subsumption_cache_invalidates(self):
        A, B = AtomicConcept("A"), AtomicConcept("B")
        kb = KnowledgeBase()
        kb.add(ConceptAssertion(Individual("x"), A))
        reasoner = Reasoner(kb)
        assert not reasoner.subsumes(B, A)
        kb.add(ConceptInclusion(A, B))
        assert reasoner.subsumes(B, A)

    def test_classification_recomputes_after_mutation(self):
        A, B = AtomicConcept("A"), AtomicConcept("B")
        kb = KnowledgeBase()
        kb.add(ConceptAssertion(Individual("x"), A))
        kb.add(ConceptAssertion(Individual("y"), B))
        reasoner = Reasoner(kb)
        before = reasoner.classify()
        assert B not in before[A]
        kb.add(ConceptInclusion(A, B))
        after = reasoner.classify()
        assert B in after[A]

    def test_reasoner4_notices_kb4_mutation(self):
        A = AtomicConcept("A")
        x = Individual("x")
        kb4 = _load(os.path.join(ONTOLOGY_DIR, "adoption.kb4"))
        reasoner = Reasoner4(kb4)
        assert reasoner.assertion_value(x, A) is FourValue.NEITHER
        kb4.add(ConceptAssertion(x, A))
        assert reasoner.assertion_value(x, A) is FourValue.TRUE
        kb4.add(ConceptAssertion(x, Not(A)))
        assert reasoner.assertion_value(x, A) is FourValue.BOTH

    def test_transform_memo_refreshes_on_mutation(self):
        kb4 = _load(os.path.join(ONTOLOGY_DIR, "penguin.kb4"))
        first = transform_kb(kb4)
        from repro.four_dl import cached_transform_kb

        memoised = cached_transform_kb(kb4)
        assert memoised == first
        assert cached_transform_kb(kb4) is memoised  # served from the memo
        kb4.add(ConceptAssertion(Individual("opus"), AtomicConcept("Bird")))
        refreshed = cached_transform_kb(kb4)
        # The memo is updated *in place* (same object, so delegated
        # reasoners can watch its change log) and matches a transform
        # from scratch.
        assert refreshed is memoised
        assert refreshed == transform_kb(kb4)
        assert sorted(map(repr, refreshed.axioms())) == sorted(
            map(repr, transform_kb(kb4).axioms())
        )


class TestSharedCache:
    def test_two_reasoners_over_one_kb_share_verdicts(self):
        A, B = AtomicConcept("A"), AtomicConcept("B")
        x = Individual("x")
        kb = KnowledgeBase()
        kb.add(ConceptAssertion(x, A), ConceptInclusion(A, B))
        from repro.dl import QueryCache

        shared = QueryCache()
        first = Reasoner(kb, cache=shared)
        second = Reasoner(kb, cache=shared)
        assert first.is_instance(x, B)
        baseline = second.stats.snapshot()
        assert second.is_instance(x, B)
        delta = second.stats - baseline
        assert delta.tableau_runs == 0
        assert delta.cache_hits == 1

    def test_reasoner4_and_its_classical_reasoner_share_one_cache(self):
        kb4 = _load(os.path.join(ONTOLOGY_DIR, "penguin.kb4"))
        reasoner4 = Reasoner4(kb4)
        assert reasoner4.cache is reasoner4.classical_reasoner.cache
        assert reasoner4.stats is reasoner4.classical_reasoner.stats


class TestAbortedProbesNeverPoison:
    """Decided-only commit: aborted searches must leave no cache entry.

    Interleaves budget-aborted probes with successful ones on a single
    reasoner and demands that (a) nothing was stored for the aborted
    ask and (b) every later answer equals a cold reasoner's.
    """

    def _conflicted_kb(self):
        A, B = AtomicConcept("A"), AtomicConcept("B")
        x = Individual("x")
        kb = KnowledgeBase()
        kb.add(
            ConceptAssertion(x, A),
            ConceptInclusion(A, B),
            ConceptAssertion(Individual("y"), Not(B)),
        )
        return kb, A, B, x

    def test_aborted_probe_stores_nothing(self):
        from repro.dl import Budget

        kb, A, B, x = self._conflicted_kb()
        # Node caps only constrain the tableau; pin the engine so the
        # tiny budget actually aborts instead of saturation answering.
        reasoner = Reasoner(kb, engine="tableau")
        tight = Budget(max_nodes=1)
        verdict = reasoner.instance_verdict(x, B, budget=tight)
        # The probe must actually have been aborted for this test to bite.
        assert verdict.is_unknown()
        assert len(reasoner.cache) == 0
        assert reasoner.stats.budget_aborts >= 1

    def test_interleaved_aborts_match_cold_answers(self):
        from repro.dl import Budget

        kb, A, B, x = self._conflicted_kb()
        victim = Reasoner(kb)
        cold = Reasoner(kb, use_cache=False)
        tight = Budget(max_nodes=1)
        probes = [
            lambda r, budget=None: r.consistency_verdict(budget=budget),
            lambda r, budget=None: r.instance_verdict(x, B, budget=budget),
            lambda r, budget=None: r.instance_verdict(x, Not(A), budget=budget),
        ]
        for probe in probes:
            probe(victim, tight)  # may abort; must not commit
            warm = probe(victim)  # unbudgeted: decides and commits
            probe(victim, tight)  # abort again, now with a warm cache
            again = probe(victim)
            reference = probe(cold)
            assert not warm.is_unknown()
            assert bool(warm) == bool(again) == bool(reference)

    def test_abort_then_mutation_then_fresh_answers(self):
        from repro.dl import Budget

        kb, A, B, x = self._conflicted_kb()
        reasoner = Reasoner(kb, engine="tableau")
        tight = Budget(max_nodes=1)
        assert reasoner.instance_verdict(x, B, budget=tight).is_unknown()
        kb.add(ConceptAssertion(x, Not(B)))
        fresh = Reasoner(kb, use_cache=False)
        assert reasoner.is_consistent() == fresh.is_consistent()
        assert reasoner.is_instance(x, B) == fresh.is_instance(x, B)
