"""Reasoner4.explain: original-KB4 citations with Table 3 strengths."""

import pytest

from repro.dl import (
    And,
    AtomicConcept,
    AtomicRole,
    BOTTOM,
    ConceptAssertion,
    Exists,
    Individual,
    Not,
    RoleAssertion,
    TOP,
)
from repro.four_dl import (
    InclusionKind,
    KnowledgeBase4,
    Reasoner4,
    internal,
    material,
    strong,
)
from repro.explain import is_minimal, render_explanation
from repro.fourvalued.truth import FourValue
from repro.harness.experiments import example3_kb4

bird = AtomicConcept("Bird")
penguin = AtomicConcept("Penguin")
fly = AtomicConcept("Fly")
tweety = Individual("tweety")


def entails4_via_fresh_reasoner(axiom):
    """Independent minimality check rebuilding a Reasoner4 from scratch."""

    def check(axioms4):
        return Reasoner4(KnowledgeBase4.of(axioms4), use_cache=False).entails(
            axiom
        )

    return check


def test_citations_are_original_kb4_axioms():
    kb4 = example3_kb4()
    query = ConceptAssertion(tweety, Not(fly))
    explanation = Reasoner4(kb4).explain(query)
    assert explanation.entailed
    kb4_axioms = set(kb4.axioms())
    for axiom in explanation.justification:
        assert axiom in kb4_axioms
    # Never the reduced A__pos/A__neg artifacts.
    assert "__pos" not in render_explanation(explanation)
    assert "__neg" not in render_explanation(explanation)


def test_inclusion_strength_annotated_in_rendering():
    kb4 = example3_kb4()
    text = render_explanation(
        Reasoner4(kb4).explain(ConceptAssertion(tweety, Not(fly)))
    )
    assert "internal inclusion (<)" in text
    assert "Penguin < not Fly" in text
    assert "tweety : Penguin" in text


def test_justification_is_minimal_four_valuedly():
    kb4 = example3_kb4()
    query = ConceptAssertion(tweety, Not(fly))
    justification = Reasoner4(kb4).explain(query).justification
    assert is_minimal(justification, entails4_via_fresh_reasoner(query))


def test_material_inclusions_do_not_chain():
    """|-> does not compose (Table 4): explain agrees with entails."""
    kb4 = KnowledgeBase4().add(material(bird, fly), internal(penguin, bird))
    explanation = Reasoner4(kb4).explain(material(penguin, fly))
    assert not explanation.entailed


def test_material_inclusion_entailment_and_citation():
    kb4 = KnowledgeBase4().add(internal(TOP, fly), internal(penguin, bird))
    query = material(bird, fly)
    explanation = Reasoner4(kb4).explain(query)
    assert explanation.entailed
    assert list(explanation.justification) == [internal(TOP, fly)]
    assert is_minimal(
        explanation.justification, entails4_via_fresh_reasoner(query)
    )


def test_strong_inclusion_merges_both_directions():
    A, B, C = (AtomicConcept(n) for n in "ABC")
    kb4 = KnowledgeBase4().add(strong(A, B), strong(B, C))
    query = strong(A, C)
    explanation = Reasoner4(kb4).explain(query)
    assert explanation.entailed
    # Both probe directions must hold, so both axioms survive shrinking.
    assert set(explanation.justification) == {strong(A, B), strong(B, C)}
    assert is_minimal(
        explanation.justification, entails4_via_fresh_reasoner(query)
    )


def test_not_entailed_four_valued_query():
    kb4 = example3_kb4()
    fish = AtomicConcept("Fish")
    explanation = Reasoner4(kb4).explain(ConceptAssertion(tweety, fish))
    assert not explanation.entailed
    assert explanation.justification is None


def test_role_assertion_evidence_explained():
    has_wing = AtomicRole("hasWing")
    kb4 = example3_kb4()
    query = RoleAssertion(has_wing, tweety, Individual("w"))
    explanation = Reasoner4(kb4).explain(query)
    assert explanation.entailed
    assert list(explanation.justification) == [query]


def test_deterministic_across_cache_states():
    query = ConceptAssertion(tweety, Not(fly))
    reasoner = Reasoner4(example3_kb4())
    first = reasoner.explain(query).justification.axioms
    reasoner.assertion_value(tweety, fly)  # warm the cache both directions
    second = reasoner.explain(query).justification.axioms
    third = (
        Reasoner4(example3_kb4(), use_cache=False)
        .explain(query)
        .justification.axioms
    )
    assert first == second == third


def test_defeated_default_is_not_entailed():
    """tweety flies is NOT evidenced: the material default is defeated."""
    reasoner = Reasoner4(example3_kb4())
    assert reasoner.assertion_value(tweety, fly) is FourValue.FALSE
    assert not reasoner.explain(ConceptAssertion(tweety, fly)).entailed


def test_conflicting_evidence_explained_per_direction():
    """A BOTH fact has two separate justifications, one per direction."""
    doctor = AtomicConcept("Doctor")
    john = Individual("john")
    kb4 = KnowledgeBase4().add(
        ConceptAssertion(john, doctor),
        ConceptAssertion(john, Not(doctor)),
        internal(penguin, bird),
    )
    reasoner = Reasoner4(kb4)
    assert reasoner.assertion_value(john, doctor) is FourValue.BOTH
    pro = reasoner.explain(ConceptAssertion(john, doctor))
    con = reasoner.explain(ConceptAssertion(john, Not(doctor)))
    assert pro.entailed and con.entailed
    assert list(pro.justification) == [ConceptAssertion(john, doctor)]
    assert list(con.justification) == [ConceptAssertion(john, Not(doctor))]


def test_explain_unsatisfiability():
    kb4 = KnowledgeBase4().add(
        internal(bird, BOTTOM),
        ConceptAssertion(tweety, bird),
        ConceptAssertion(Individual("other"), penguin),
    )
    reasoner = Reasoner4(kb4)
    assert not reasoner.is_satisfiable()
    result = reasoner.explain_unsatisfiability()
    assert not result.consistent
    assert set(result.justification) == {
        internal(bird, BOTTOM),
        ConceptAssertion(tweety, bird),
    }

    def still_unsat(axioms4):
        return not Reasoner4(
            KnowledgeBase4.of(axioms4), use_cache=False
        ).is_satisfiable()

    assert is_minimal(result.justification, still_unsat)


def test_explanations_see_edits_made_after_the_first_query():
    kb4 = KnowledgeBase4().add(ConceptAssertion(tweety, penguin))
    reasoner = Reasoner4(kb4)
    query = ConceptAssertion(tweety, bird)
    assert not reasoner.entails(query)
    kb4.add(internal(penguin, bird))
    explanation = reasoner.explain(query)
    assert explanation.entailed
    assert set(explanation.justifications[0]) == {
        internal(penguin, bird),
        ConceptAssertion(tweety, penguin),
    }
    kb4.add(internal(bird, BOTTOM))
    assert not reasoner.explain_unsatisfiability().consistent


def test_explain_unsatisfiability_on_satisfiable_kb4():
    result = Reasoner4(example3_kb4()).explain_unsatisfiability()
    assert result.consistent
    assert result.justification is None


def test_four_valued_explanation_stats():
    reasoner = Reasoner4(example3_kb4())
    reasoner.explain(ConceptAssertion(tweety, Not(fly)), trace=True)
    assert reasoner.stats.explanations_computed == 1
    assert reasoner.stats.shrink_probes > 0
    assert reasoner.stats.trace_events > 0
