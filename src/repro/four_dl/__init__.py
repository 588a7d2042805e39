"""SHOIN(D)4 — the paper's core contribution.

Four-valued knowledge bases with the three inclusion strengths
(:mod:`~repro.four_dl.axioms4`), the polynomial transformation to
classical SHOIN(D) of Definitions 5-7 (:mod:`~repro.four_dl.transform`),
the Definition 8/9 interpretation correspondences
(:mod:`~repro.four_dl.induced`), and the reduction-based paraconsistent
reasoner (:mod:`~repro.four_dl.reasoner4`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    globals(),
    {
        ".axioms4": (
            "Axiom4",
            "ConceptInclusion4",
            "DatatypeRoleInclusion4",
            "InclusionKind",
            "KnowledgeBase4",
            "RoleInclusion4",
            "Transitivity4",
            "collapse_to_classical",
            "from_classical",
            "internal",
            "material",
            "strong",
        ),
        ".transform": (
            "EQ_SUFFIX",
            "NEGATIVE_SUFFIX",
            "POSITIVE_SUFFIX",
            "base_name",
            "eq_data_role",
            "eq_role",
            "neg_transform",
            "negative_concept",
            "pos_transform",
            "positive_concept",
            "positive_data_role",
            "positive_role",
            "transform_axiom",
            "cached_transform_kb",
            "transform_kb",
        ),
        ".induced": (
            "classical_induced",
            "four_induced",
        ),
        ".reasoner4": (
            "BoundedFourValue",
            "Reasoner4",
        ),
        ".defeasible": (
            "AdjudicatedFact",
            "DefeasibleReasoner4",
            "default_stratification4",
        ),
        ".metrics": (
            "ConflictProfile",
            "conflict_profile",
            "inconsistency_degree",
            "information_degree",
        ),
    },
)
