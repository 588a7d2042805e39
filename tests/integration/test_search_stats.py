"""Trail search with backjumping on the shipped university ontology.

Acceptance is measured in *work* (branch counters), not wall-clock: on a
refutation query whose clash is independent of the ontology's many
root-level disjunction choices, the trail engine must answer within a
small branch budget.  Its answers are checked against finite models read
off completed graphs (:meth:`Tableau.extract_model`) and verified with
:meth:`Interpretation.is_model`, which shares no code with the search.
"""

import os

from repro.dl import (
    And,
    ConceptAssertion,
    Exists,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Reasoner,
    Tableau,
)
from repro.dl.concepts import AtomicConcept
from repro.dl.parser import parse_kb4
from repro.dl.roles import AtomicRole
from repro.four_dl import positive_concept, positive_role, transform_kb

ONTOLOGY_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ontologies"
)

PROBE = Individual("__probe__")


def _induced(name):
    with open(os.path.join(ONTOLOGY_DIR, name)) as handle:
        return transform_kb(parse_kb4(handle.read()))


def _pos(name):
    return positive_concept(AtomicConcept(name))


def _verified_model(tableau, probes):
    """The model of a SAT run, if it verifies against the KB plus probes."""
    assert tableau.is_satisfiable(probes)
    model = tableau.extract_model()
    whole = KnowledgeBase.of(list(tableau.kb.axioms()) + list(probes))
    return model if model is not None and model.is_model(whole) else None


#: A concept unsatisfiable w.r.t. the university TBox: anything supervised
#: that is a professor or a lecturer is a person (via the Faculty/Staff
#: chain), so it cannot also lack positive Person evidence.  Refuting it
#: requires branching on the Professor/Lecturer disjunct *below* every
#: unrelated root-level choice the ontology's ABox opens.
def _impossible_supervisee():
    return Exists(
        positive_role(AtomicRole("supervises")),
        And.of(Or.of(_pos("Professor"), _pos("Lecturer")), Not(_pos("Person"))),
    )


def test_university_refutation_backjumps_within_a_small_budget():
    induced = _induced("university.kb4")
    trail = Reasoner(induced, use_cache=False)
    assert not trail.is_satisfiable(_impossible_supervisee())
    assert trail.stats.branches_explored < 100
    assert trail.stats.backjumps > 0
    assert trail.stats.branch_points_skipped > 0
    # the probe grows fresh successors, so incremental blocking actually ran
    assert trail.stats.blocking_checks > 0


#: The instance answers of the battery below that the KB entails.
ENTAILED = [
    ("ada", "Doctorate__pos"),
    ("ada", "Faculty__pos"),
    ("ada", "Person__pos"),
    ("ada", "Professor__pos"),
    ("ada", "ProjectLead__pos"),
    ("ada", "Staff__pos"),
    ("alan", "Person__pos"),
    ("alan", "Student__pos"),
    ("emmy", "FundedStudent__pos"),
    ("emmy", "Person__pos"),
    ("emmy", "Student__pos"),
    ("grace", "Doctorate__neg"),
    ("grace", "Faculty__pos"),
    ("grace", "Lecturer__pos"),
    ("grace", "Person__pos"),
    ("grace", "Staff__pos"),
]


def test_university_battery_non_entailments_are_witnessed():
    """4 individuals x 19 atoms: 16 entailed, 60 witnessed by models."""
    induced = _induced("university.kb4")
    atoms = sorted(induced.concepts_in_signature(), key=lambda c: c.name)
    individuals = sorted(induced.individuals_in_signature())[:4]
    tableau = Tableau(induced)
    assert _verified_model(tableau, ()) is not None
    reasoner = Reasoner(induced, use_cache=False)
    entailed = []
    witnessed = 0
    for individual in individuals:
        for atom in atoms:
            if reasoner.is_instance(individual, atom):
                entailed.append((individual.name, atom.name))
                continue
            probe = ConceptAssertion(individual, Not(atom))
            witnessed += _verified_model(tableau, (probe,)) is not None
    assert entailed == ENTAILED
    assert witnessed == len(individuals) * len(atoms) - len(ENTAILED) == 60


def test_university_taxonomy_non_subsumptions_are_witnessed():
    """Every pair ``classify`` leaves out is refuted by a verified model.

    One model per atom (satisfiability of a fresh instance) refutes
    most non-subsumptions at once: any element in ``A`` but not in
    ``B`` refutes ``A [= B``.  The few pairs no such model separates
    get a model of ``A and not B`` of their own.  No subsumption that
    ``classify`` reports may be refuted by any of these models.
    """
    induced = _induced("university.kb4")
    atoms = sorted(induced.concepts_in_signature(), key=lambda c: c.name)
    hierarchy = Reasoner(induced).classify()
    tableau = Tableau(induced)
    refuted = set()

    def refute_with(model):
        for element in model.domain:
            members = {a for a in atoms if element in model.concept_ext[a]}
            refuted.update((a, b) for a in members for b in atoms if b not in members)

    for atom in atoms:
        model = _verified_model(tableau, (ConceptAssertion(PROBE, atom),))
        assert model is not None, atom
        refute_with(model)
    claimed = {(sub, sup) for sub in atoms for sup in hierarchy[sub]}
    assert not claimed & refuted
    left_over = sorted(
        (
            (sub, sup)
            for sub in atoms
            for sup in atoms
            if (sub, sup) not in claimed | refuted
        ),
        key=repr,
    )
    for sub, sup in left_over:
        probe = ConceptAssertion(PROBE, And.of(sub, Not(sup)))
        model = _verified_model(tableau, (probe,))
        assert model is not None, (sub, sup)
        refute_with(model)
    assert not claimed & refuted
    assert len(claimed) + len(refuted) == len(atoms) ** 2
