"""Probe vocabulary, seeded probe streams, and in-process execution.

A probe is a tuple in the wire's own terms:

* ``("satisfiable",)``
* ``("instance", individual, atom)`` -- positive evidence for ``a : C``
* ``("assertion_value", individual, atom)`` -- the Belnap value
* ``("subsumption", sub, sup, kind)`` -- ``kind`` in material, internal,
  strong

Answers are ``True``/``False`` or a Belnap value name; an UNKNOWN comes
back as :class:`Unknown` with its reason, and the benchmark counts it as
a failed operation.
"""

import random

from repro.dl.concepts import AtomicConcept
from repro.dl.individuals import Individual
from repro.four_dl.axioms4 import ConceptInclusion4, InclusionKind

from reference import KINDS

#: The kinds a stream draws, each equally often: the wire's probe
#: kinds, with subsumption split by inclusion kind.  No recorded traffic
#: exists to weight them otherwise.
STREAM_KINDS = (
    "assertion_value", "instance", "material", "internal", "strong",
    "satisfiable",
)


class Unknown:
    """An undecided answer and why (a degradation reason or a status)."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"UNKNOWN({self.reason})"


class ProbeSpace:
    """The probes of one KB: its atoms and individuals, and which kinds."""

    def __init__(self, atoms, individuals, kinds=STREAM_KINDS):
        self.atoms = sorted(atoms)
        self.individuals = sorted(individuals)
        self.kinds = tuple(kinds)

    def draw(self, rng, kind):
        """One probe of ``kind``, its atoms and individuals drawn uniformly."""
        if kind == "satisfiable":
            return ("satisfiable",)
        if kind in KINDS:
            return ("subsumption", rng.choice(self.atoms),
                    rng.choice(self.atoms), kind)
        return (kind, rng.choice(self.individuals), rng.choice(self.atoms))


class Stream:
    """A seeded, endless stream of probes, in rounds that hold every kind
    of the space equally often.

    A round draws ``per_kind`` probes of each kind and shuffles them.
    Fixing the count of each kind per round, instead of drawing the kind
    too, keeps the seed from changing the mix: with the kind drawn, the
    number of assertion values (the dearest kind on ``university``, a
    median 28 ms against 15-19 ms for the others) in a 96-probe slice had
    a standard deviation of a quarter of its mean.

    There is no separate repeat share: a probe recurs when the draw
    meets it again, which on a small KB is most of the time (university
    has about 740 probes) and on a large one mostly the one
    ``satisfiable`` probe.
    """

    def __init__(self, space, seed, label, per_kind):
        self.space = space
        self.rng = random.Random(f"perfbench:{label}:{seed}")
        self.per_kind = per_kind

    def round(self):
        probes = [
            self.space.draw(self.rng, kind)
            for kind in self.space.kinds
            for _ in range(self.per_kind)
        ]
        self.rng.shuffle(probes)
        return probes


def run_probe(reasoner, probe):
    """Answer one probe through the public ``Reasoner4`` verdict APIs."""
    kind = probe[0]
    if kind == "satisfiable":
        verdict = reasoner.is_satisfiable_verdict()
    elif kind == "instance":
        verdict = reasoner.evidence_for_verdict(
            Individual(probe[1]), AtomicConcept(probe[2])
        )
    elif kind == "assertion_value":
        bounded = reasoner.assertion_value_bounded(
            Individual(probe[1]), AtomicConcept(probe[2])
        )
        if bounded.is_unknown():
            return Unknown(bounded.reason.value)
        return bounded.value.name
    else:
        inclusion = ConceptInclusion4(
            AtomicConcept(probe[1]),
            AtomicConcept(probe[2]),
            InclusionKind[probe[3].upper()],
        )
        verdict = reasoner.entails_verdict(inclusion)
    if verdict.is_unknown():
        return Unknown(verdict.reason.value)
    return bool(verdict)


def wire_request(probe, kb):
    """The ``repro serve`` request of one probe against KB ``kb``."""
    # Imported here: ``repro.serve`` loads the whole service stack, which
    # would count in the in-process workload's set-up time and memory.
    from repro.serve.protocol import ProbeRequest

    kind = probe[0]
    if kind == "satisfiable":
        return ProbeRequest(kind="satisfiable", kb=kb)
    if kind == "subsumption":
        return ProbeRequest(
            kind="subsumption", kb=kb, sub=probe[1], sup=probe[2],
            inclusion=probe[3],
        )
    return ProbeRequest(
        kind=kind, kb=kb, individual=probe[1], concept=probe[2]
    )


def wire_answer(response):
    """A probe answer from a wire response."""
    if response.status != "ok":
        return Unknown(response.reason or response.status)
    return response.value
