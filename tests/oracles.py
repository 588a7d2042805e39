"""Reference procedures the tests compare the shipped code against.

``classify_pairwise`` is the O(n^2) classification the model-driven
classifier of :meth:`repro.dl.reasoner.Reasoner.classify` must equal:
one :meth:`~repro.dl.reasoner.Reasoner.subsumes` question per ordered
pair of atoms.  Pass it a reasoner built with ``engine="tableau"`` (and,
for a counter baseline, ``use_cache=False``) to keep the kept models and
the saturation fast path out of the reference.
"""

from typing import Dict, FrozenSet, Iterable, Optional

from repro.dl.concepts import AtomicConcept
from repro.dl.reasoner import Reasoner


def classify_pairwise(
    reasoner: Reasoner, atoms: Optional[Iterable[AtomicConcept]] = None
) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
    """Each atom's (not necessarily strict) atomic subsumers, pair by pair."""
    if atoms is None:
        atoms = reasoner.kb.concepts_in_signature()
    ordered = sorted(set(atoms), key=lambda atom: atom.name)
    return {
        sub: frozenset(sup for sup in ordered if reasoner.subsumes(sup, sub))
        for sub in ordered
    }
