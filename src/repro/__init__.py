"""repro: a paraconsistent OWL DL reasoning library.

Reproduction of "Inferring with Inconsistent OWL DL Ontology: A
Multi-valued Logic Approach" (Ma, Lin & Lin, 2006): the four-valued
description logic SHOIN(D)4, its polynomial reduction to classical
SHOIN(D), a from-scratch SHOIN(D) tableau reasoner, explicit model
theory for both semantics, baselines, workloads, and an experiment
harness regenerating every table and example of the paper.

Quick start::

    from repro.dl import AtomicConcept, ConceptAssertion, Individual, Not
    from repro.four_dl import KnowledgeBase4, Reasoner4, internal

    A = AtomicConcept("Penguin")
    kb4 = KnowledgeBase4().add(
        ConceptAssertion(Individual("tweety"), A),
        ConceptAssertion(Individual("tweety"), Not(A)),
    )
    Reasoner4(kb4).assertion_value(Individual("tweety"), A)  # -> BOTH
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __dir__, _subpackages = lazy_exports(
    __name__,
    globals(),
    {
        ".baselines": ("baselines",),
        ".dl": ("dl",),
        ".eval": ("eval",),
        ".explain": ("explain",),
        ".four_dl": ("four_dl",),
        ".fourvalued": ("fourvalued",),
        ".harness": ("harness",),
        ".obs": ("obs",),
        ".semantics": ("semantics",),
        ".workloads": ("workloads",),
    },
)

__all__ = ["__version__", *_subpackages]
