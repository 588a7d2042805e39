"""Belnap's four-valued logic FOUR and bilattices of evidence pairs.

This package is the multi-valued substrate of the reproduction (paper
Section 2.2): the four truth values with both bilattice orders, the three
implications that the SHOIN(D)4 inclusion axioms mirror, evidence pairs
``<P, N>`` with the Definition 1 projections, and a propositional
four-valued logic with an exact consequence checker.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    globals(),
    {
        ".truth": (
            "ALL_VALUES",
            "DESIGNATED",
            "FourValue",
            "big_conj",
            "big_disj",
            "from_classical",
            "from_evidence",
        ),
        ".bilattice": (
            "BilatticePair",
            "bottom",
            "top",
        ),
        ".reduction": (
            "dpll",
            "entails_by_reduction",
            "neg_encode",
            "pos_encode",
            "satisfiable_by_reduction",
            "tautology_by_reduction",
            "to_cnf",
        ),
        ".propositional": (
            "And",
            "Atom",
            "Formula",
            "InternalImplies",
            "MaterialImplies",
            "Not",
            "Or",
            "StrongImplies",
            "entails",
            "equivalent",
            "multi_entails",
            "tautology",
            "valuations",
        ),
    },
)
