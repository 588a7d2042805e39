"""Individuals named only inside a probe concept's nominal.

An entailment probe such as ``a : all R.not {b}`` (for ``R(a, b)``) or
``a : not {b}`` (for ``a = b``) may name an individual ``b`` the KB
never mentions.  The tableau must still give ``b`` a root node, or the
probe's ``not {b}`` is never checked against ``b`` and the entailment
is missed.  Each answer is checked against the enumeration oracle,
which shares no code with the tableau.
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
from repro.dl.concepts import AtomicConcept, Exists, Forall, Not, OneOf, Top
from repro.dl.individuals import Individual
from repro.dl.roles import AtomicRole
from repro.four_dl import (
    ConceptInclusion4,
    InclusionKind,
    KnowledgeBase4,
    Reasoner4,
)
from repro.semantics import classical_satisfiable_by_enumeration

A = AtomicConcept("A")
R = AtomicRole("R")
a = Individual("a")
b = Individual("b")


def nominal(individual):
    return OneOf(frozenset({individual}))


def everything_is_reached_from_a():
    """``T [= exists R-.{a}``: every element, ``b`` included, is an
    R-successor of ``a``."""
    return [
        ConceptInclusion(Top(), Exists(R.inverse(), nominal(a))),
        ConceptAssertion(a, A),
    ]


def everything_is_a():
    """``T [= {a}``: the domain is the single element ``a``."""
    return [ConceptInclusion(Top(), nominal(a)), ConceptAssertion(a, A)]


def oracle_has_model(axioms):
    return classical_satisfiable_by_enumeration(
        KnowledgeBase.of(axioms), max_extra_elements=1
    )


@pytest.mark.parametrize("engine", ["auto", "tableau"])
def test_role_assertion_to_an_unknown_individual_is_entailed(engine):
    axioms = everything_is_reached_from_a()
    refutation = ConceptAssertion(a, Forall(R, Not(nominal(b))))
    assert not oracle_has_model(axioms + [refutation])
    reasoner = Reasoner(KnowledgeBase.of(axioms), engine=engine)
    assert reasoner.entails(RoleAssertion(R, a, b))


@pytest.mark.parametrize("engine", ["auto", "tableau"])
def test_same_individual_as_an_unknown_individual_is_entailed(engine):
    axioms = everything_is_a()
    refutation = ConceptAssertion(a, Not(nominal(b)))
    assert not oracle_has_model(axioms + [refutation])
    reasoner = Reasoner(KnowledgeBase.of(axioms), engine=engine)
    assert reasoner.entails(SameIndividual(a, b))


@pytest.mark.parametrize("engine", ["auto", "tableau"])
def test_four_valued_role_evidence_for_an_unknown_individual(engine):
    kb4 = KnowledgeBase4.of(
        [
            ConceptInclusion4(
                Top(), Exists(R.inverse(), nominal(a)), InclusionKind.INTERNAL
            ),
            ConceptAssertion(a, A),
        ]
    )
    reasoner = Reasoner4(kb4, engine=engine)
    refutation = ConceptAssertion(
        a, Forall(AtomicRole("R__pos"), Not(nominal(b)))
    )
    induced = list(reasoner.classical_kb.axioms())
    assert not oracle_has_model(induced + [refutation])
    assert reasoner.role_evidence_for(R, a, b)


def test_the_answers_do_not_depend_on_mentioning_the_individual():
    """The answers equal those of the same KB with ``b : T`` asserted."""
    for axioms, query in (
        (everything_is_reached_from_a(), RoleAssertion(R, a, b)),
        (everything_is_a(), SameIndividual(a, b)),
    ):
        mentioned = axioms + [ConceptAssertion(b, Top())]
        assert Reasoner(KnowledgeBase.of(mentioned)).entails(query)
        assert Reasoner(KnowledgeBase.of(axioms)).entails(query)
