"""Explicit model theory: Table 1 / Table 2-3 evaluators and enumerators.

The classes here are executable transcriptions of the paper's semantic
tables over finite structures, plus brute-force model enumeration used to
cross-validate the tableau and to regenerate Table 4.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    globals(),
    {
        ".interpretation": ("Interpretation",),
        ".four_interpretation": (
            "DataRolePair",
            "FourInterpretation",
            "RolePair",
        ),
        ".enumeration": (
            "classical_satisfiable_by_enumeration",
            "enumerate_classical_models",
            "enumerate_four_models",
            "four_satisfiable_by_enumeration",
            "truth_patterns",
        ),
    },
)
