"""The verified models a reasoner keeps, and the SAT answers they give.

A SAT tableau run leaves a model that ``Tableau.extract_model`` reads
off and ``Interpretation.is_model`` verifies; the reasoner keeps a few
and answers a later probe SAT, without the tableau, when one of them
satisfies it.  These tests pin the rules that keep that sound: when a
model is a witness, which edits a model survives, and that
``engine="tableau"`` keeps none.
"""

import pytest

from repro.dl import (
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    Reasoner,
    RoleAssertion,
    SameIndividual,
)
from repro.dl.concepts import And, AtomicConcept, Exists, Not, OneOf, Or
from repro.dl.incremental import LOG_LIMIT
from repro.dl.individuals import Individual
from repro.dl.reasoner import KEPT_MODELS, _witnesses
from repro.dl.roles import AtomicRole
from repro.semantics import Interpretation

A, B, C, D = (AtomicConcept(name) for name in "ABCD")
R = AtomicRole("R")
a, b, x = Individual("a"), Individual("b"), Individual("x")


def small_kb():
    """``A [= B``, ``C [= A or D``, ``a : A``, ``b : C``: many models,
    few entailments, and a disjunction that keeps saturation from
    deciding satisfiable probes (so the models and the tableau do)."""
    return KnowledgeBase.of(
        [
            ConceptInclusion(A, B),
            ConceptInclusion(C, Or.of(A, D)),
            ConceptAssertion(a, A),
            ConceptAssertion(b, C),
        ]
    )


def kept(reasoner):
    return [model for _, model in reasoner._models]


class TestWitnessRule:
    """``_witnesses`` on a hand-built model of ``{a : A, b : B}``."""

    model = Interpretation(
        domain=frozenset({1, 2, 3}),
        concept_ext={A: frozenset({1, 3}), B: frozenset({2, 3})},
        role_ext={R: frozenset({(1, 2)})},
        individual_map={a: 1, b: 2},
    )

    def test_mapped_individuals_keep_their_elements(self):
        assert _witnesses(self.model, [ConceptAssertion(a, Not(B))])
        assert not _witnesses(self.model, [ConceptAssertion(a, B)])
        assert _witnesses(self.model, [RoleAssertion(R, a, b)])
        assert not _witnesses(self.model, [RoleAssertion(R, b, a)])

    def test_a_fresh_individual_may_denote_any_element(self):
        # Only element 3 lies in both A and B.
        assert _witnesses(
            self.model, [ConceptAssertion(x, A), ConceptAssertion(x, B)]
        )
        assert not _witnesses(
            self.model,
            [
                ConceptAssertion(x, A),
                ConceptAssertion(x, B),
                ConceptAssertion(x, Exists(R, B)),
            ],
        )

    @pytest.mark.parametrize(
        "probe",
        [
            ConceptAssertion(a, Not(OneOf(frozenset({x})))),
            RoleAssertion(R, a, x),
            SameIndividual(a, x),
        ],
        ids=["nominal", "role-assertion", "same-individual"],
    )
    def test_an_unmapped_individual_outside_a_concept_assertion_declines(
        self, probe
    ):
        # Each probe is satisfiable (x may be a fresh element, or 2), but
        # the model cannot say so without choosing x's element.
        assert not _witnesses(self.model, [probe])


class TestAnswers:
    def test_models_answer_non_entailments_and_never_entailments(self):
        reasoner = Reasoner(small_kb())
        assert reasoner.is_consistent()
        assert reasoner.stats.models_extracted == 1
        runs = reasoner.stats.tableau_runs
        # b need not be a D: the consistency model (whose tableau run
        # chose A for b) already shows it.
        assert not reasoner.is_instance(b, D)
        assert reasoner.stats.model_witnesses == 1
        assert reasoner.stats.tableau_runs == runs
        # An entailment is never answered by a model: the tableau proves it.
        assert reasoner.is_instance(b, Or.of(A, D))
        assert reasoner.stats.model_witnesses == 1
        assert reasoner.stats.tableau_runs == runs + 1

    def test_the_tableau_engine_keeps_no_model(self):
        reasoner = Reasoner(small_kb(), engine="tableau")
        assert reasoner.is_consistent()
        assert not reasoner.is_instance(b, D)
        assert kept(reasoner) == []
        assert reasoner.stats.model_witnesses == 0

    def test_the_list_is_bounded_and_most_recently_useful_first(self):
        reasoner = Reasoner(small_kb())
        atoms = [AtomicConcept(f"N{i}") for i in range(KEPT_MODELS + 3)]
        reasoner.kb.add(*(ConceptInclusion(atom, B) for atom in atoms))
        reasoner.is_consistent()
        for atom in atoms:
            # Each atom is empty in every earlier model, so each test
            # runs the tableau and keeps one more model.
            assert reasoner.is_satisfiable(atom)
        assert len(reasoner._models) == KEPT_MODELS
        oldest = reasoner._models[-1][1]
        witnessed = atoms[len(atoms) - KEPT_MODELS]
        # Only the oldest kept model holds an element of ``witnessed``.
        assert reasoner.is_satisfiable(And.of(witnessed, Not(A)))
        assert reasoner._models[0][1] is oldest


class TestEdits:
    def test_an_added_fact_the_model_violates_drops_it(self):
        kb = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        # The consistency model puts b in A, hence in B.
        kb.add(ConceptAssertion(b, Not(B)))
        assert reasoner.is_instance(b, D)
        assert reasoner.stats.models_survived == 0
        assert all(model.is_model(kb) for model in kept(reasoner))

    def test_an_added_fact_the_model_satisfies_keeps_it(self):
        kb = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        model = kept(reasoner)[0]
        kb.add(ConceptAssertion(a, B))
        assert reasoner.is_consistent()
        assert reasoner.stats.models_survived == 1
        assert kept(reasoner) == [model]

    def test_an_added_fact_naming_a_new_individual_drops_it(self):
        kb = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        kb.add(ConceptAssertion(Individual("newcomer"), Not(C)))
        assert reasoner.is_consistent()
        assert reasoner.stats.models_survived == 0

    def test_a_retraction_keeps_every_model(self):
        kb = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        before = kept(reasoner)
        kb.remove_axiom(ConceptAssertion(b, C))
        assert not reasoner.is_instance(a, C)
        assert reasoner.stats.models_survived == len(before)
        assert kept(reasoner)[: len(before)] == before
        assert reasoner.stats.model_witnesses == 1

    def test_the_wholesale_rebuild_drops_every_model(self):
        kb = small_kb()
        reasoner = Reasoner(kb)
        assert reasoner.is_consistent()
        assert kept(reasoner)
        synced = kb.version
        # The log keeps between LOG_LIMIT and 2 * LOG_LIMIT records, so
        # this many edits push the reasoner's version below its window.
        extra = ConceptAssertion(b, B)
        for _ in range(LOG_LIMIT + 1):
            kb.add_axiom(extra)
            kb.remove_axiom(extra)
        assert kb.delta_since(synced) is None
        reasoner._sync()
        assert reasoner._models == []
