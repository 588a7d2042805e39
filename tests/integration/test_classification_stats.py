"""Counter-backed evidence that model-driven classification beats pairwise.

The acceptance criterion for the classifier is not wall-clock
(machine-dependent) but *work*: on the university ontology verified
models refute the non-subsumptions, so the tableau runs only for the
atoms no model instantiates and for the candidates no model refutes —
measured by the reasoner's own counters.
"""

import os

from repro.dl import Reasoner
from repro.dl.parser import parse_kb4
from repro.four_dl import Reasoner4, transform_kb
from tests.oracles import classify_pairwise

ONTOLOGY_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ontologies"
)


def _kb4(name):
    with open(os.path.join(ONTOLOGY_DIR, name)) as handle:
        return parse_kb4(handle.read())


def _induced(name):
    return transform_kb(_kb4(name))


def test_university_internal_taxonomy_counts_are_pinned():
    """A fresh ``Reasoner4(university).classify()``: 13 tableau runs,
    the consistency check included (106 under the told-subsumer /
    traversal classifier it replaced)."""
    reasoner = Reasoner4(_kb4("university.kb4"))
    reasoner.classify()
    stats = reasoner.stats
    assert stats.tableau_runs == 13
    # Seven runs end SAT and each leaves a verified model; the six UNSAT
    # runs prove subsumptions saturation's closure could not.
    assert stats.models_extracted == 7
    # Only the 24 candidates no model refutes are asked, of the 13 * 12
    # ordered pairs of distinct atoms.
    assert stats.subsumption_tests == 24
    assert stats.saturation_queries == 13
    assert stats.budget_aborts == 0


def test_university_model_driven_beats_pairwise_in_tableau_runs():
    induced = _induced("university.kb4")
    n = len(induced.concepts_in_signature())
    assert n >= 15  # the ontology is big enough for the gap to matter
    reasoner = Reasoner(induced)
    reasoner.classify()
    assert reasoner.stats.tableau_runs < n * n
    # the saving comes from the models the SAT runs leave behind
    assert reasoner.stats.models_extracted > 0
    assert reasoner.stats.subsumption_tests < n * (n - 1)


def test_pairwise_counter_baseline_is_quadratic():
    """The pairwise oracle honestly performs n^2 distinct tableau runs."""
    induced = _induced("penguin.kb4")
    n = len(induced.concepts_in_signature())
    # The counter baseline is about tableau work, so pin the engine.
    reasoner = Reasoner(induced, use_cache=False, engine="tableau")
    classify_pairwise(reasoner)
    assert reasoner.stats.tableau_runs == n * n


def test_university_model_driven_beats_pairwise_head_to_head():
    """Same ontology, both classifiers, counters compared directly."""
    induced = _induced("university.kb4")
    classified = Reasoner(induced)
    hierarchy = classified.classify()
    pairwise = Reasoner(induced, use_cache=False, engine="tableau")
    assert classify_pairwise(pairwise) == hierarchy
    assert classified.stats.tableau_runs < pairwise.stats.tableau_runs


def test_tableau_engine_keeps_no_models():
    """``engine="tableau"`` stays the plain reference: no model is kept,
    so no probe is answered by one."""
    reasoner = Reasoner(_induced("university.kb4"), engine="tableau")
    reasoner.classify()
    assert reasoner.stats.models_extracted == 0
    assert reasoner.stats.model_witnesses == 0


def test_classify_stats_survive_in_reasoner4():
    kb4 = _kb4("university.kb4")
    reasoner4 = Reasoner4(kb4)
    reasoner4.classify()
    n = len(transform_kb(kb4).concepts_in_signature())
    assert 0 < reasoner4.stats.tableau_runs < n * n
    assert reasoner4.stats.subsumption_tests > 0
