"""Correctness references computed apart from the program under test.

Nothing here imports ``repro``: the references read the ontology text
themselves and decide four-valued questions from the paper's semantics.

**Generated KBs** (:class:`AtomicKB4`).  Every inclusion of a generated
KB has an atomic left side, so in four-valued semantics it constrains
each domain element separately.  Write ``pX`` for "the element is in
the positive projection of ``X``" and ``nX`` for the negative one:

* internal ``X < Y`` is ``pX -> pY``; ``X < not Y`` is ``pX -> nY``;
* strong ``X -> Y`` adds the contrapositive ``nY -> nX`` (for
  ``not Y``: ``pY -> nX``);
* material ``X |-> Y`` is ``nX or pY`` (for ``not Y``: ``nX or nY``);
* an existential right side only asks for a successor, which a fresh
  element always supplies, and role assertions constrain nothing,
  because no generated concept looks along a role.

Those are two-literal clauses whose literals are all positive, so
setting every letter true satisfies them: no concept can be empty.  A
question is then a 2-SAT entailment, decided by unit propagation over
the implication graph (complete for satisfiable 2-CNF).  The taxonomy
reduces to the reflexive-transitive closure of the told internal and
strong atom-to-atom edges, and positive evidence for ``a : C`` to
reachability of ``C`` from an atom asserted of ``a``.

**University** (``ontologies/university.kb4``).  The hand-derived full
taxonomy, inclusions between atoms and a list of assertion values, plus
structural checks: told facts keep their polarity, and the
knowledge-order laws of the edit path hold.
"""

import re
from collections import defaultdict

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_INCLUSION = re.compile(
    rf"^({_NAME})\s+(\|->|<|->)\s+(?:(not)\s+)?({_NAME})$"
)
_EXISTS = re.compile(rf"^({_NAME})\s+(\|->|<|->)\s+{_NAME}\s+some\s+{_NAME}$")
_ASSERTION = re.compile(rf"^({_NAME})\s*:\s*(?:(not)\s+)?({_NAME})$")
_ROLE = re.compile(rf"^{_NAME}\(\s*{_NAME}\s*,\s*{_NAME}\s*\)$")

KINDS = ("material", "internal", "strong")
_SYMBOL_KIND = {"|->": "material", "<": "internal", "->": "strong"}

#: Belnap values by (evidence for, evidence against).
_BELNAP = {
    (True, False): "TRUE",
    (False, True): "FALSE",
    (True, True): "BOTH",
    (False, False): "NEITHER",
}


def belnap(evidence_for, evidence_against):
    """The Belnap value name of a pair of evidence verdicts."""
    return _BELNAP[(bool(evidence_for), bool(evidence_against))]


def _neg(literal):
    return (literal[0], not literal[1])


class AtomicKB4:
    """A four-valued KB whose inclusions all have an atomic left side.

    Literals are ``(letter, truth)`` with letters ``("p", atom)`` and
    ``("n", atom)``.  Parsing rejects any line outside that shape, so a
    reference is never silently applied to a KB it does not cover.
    """

    def __init__(self, text):
        self.atoms = set()
        self.facts = defaultdict(set)
        self._edges = defaultdict(set)
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            match = _INCLUSION.match(line)
            if match:
                sub, symbol, negated, sup = match.groups()
                self._inclusion(sub, _SYMBOL_KIND[symbol], sup, bool(negated))
                continue
            match = _EXISTS.match(line)
            if match:
                self.atoms.add(match.group(1))
                continue
            match = _ASSERTION.match(line)
            if match:
                name, negated, atom = match.groups()
                self.atoms.add(atom)
                self.facts[name].add(("n" if negated else "p", atom))
                continue
            if _ROLE.match(line):
                continue
            raise ValueError(f"line outside the atomic-left fragment: {line!r}")

    def _clause(self, first, second):
        """Add the clause ``first or second`` to the implication graph."""
        self._edges[_neg(first)].add(second)
        self._edges[_neg(second)].add(first)

    def _inclusion(self, sub, kind, sup, negated):
        self.atoms.update((sub, sup))
        p_sub, n_sub = (("p", sub), True), (("n", sub), True)
        p_sup, n_sup = (("p", sup), True), (("n", sup), True)
        head = n_sup if negated else p_sup
        if kind == "material":
            self._clause(n_sub, head)
            return
        self._clause(_neg(p_sub), head)
        if kind == "strong":
            tail = p_sup if negated else n_sup
            self._clause(_neg(tail), n_sub)

    def _refuted(self, literals):
        """Whether the clauses plus ``literals`` are unsatisfiable."""
        seen = set(literals)
        frontier = list(literals)
        while frontier:
            literal = frontier.pop()
            if _neg(literal) in seen:
                return True
            for implied in self._edges.get(literal, ()):
                if implied not in seen:
                    seen.add(implied)
                    frontier.append(implied)
        return False

    def _entails(self, units, goals):
        """Whether ``units`` entail the disjunction of ``goals``."""
        assumed = [(letter, True) for letter in units]
        assumed += [(letter, False) for letter in goals]
        return self._refuted(assumed)

    # -- the four-valued questions ------------------------------------
    def evidence_for(self, individual, atom):
        return self._entails(self.facts.get(individual, ()), [("p", atom)])

    def evidence_against(self, individual, atom):
        return self._entails(self.facts.get(individual, ()), [("n", atom)])

    def assertion_value(self, individual, atom):
        return belnap(
            self.evidence_for(individual, atom),
            self.evidence_against(individual, atom),
        )

    def subsumption(self, sub, sup, kind):
        """Four-valued entailment of ``sub <kind> sup`` between atoms."""
        if kind == "material":
            return self._entails((), [("n", sub), ("p", sup)])
        internal = sub == sup or self._entails([("p", sub)], [("p", sup)])
        if kind == "internal" or not internal:
            return internal
        return sub == sup or self._entails([("n", sup)], [("n", sub)])

    def satisfiable(self):
        """Always true: every letter true is a model (see module doc)."""
        return True

    def answer(self, probe):
        """The reference answer of one probe tuple (see :mod:`probes`)."""
        kind = probe[0]
        if kind == "satisfiable":
            return self.satisfiable()
        if kind == "instance":
            return self.evidence_for(probe[1], probe[2])
        if kind == "assertion_value":
            return self.assertion_value(probe[1], probe[2])
        return self.subsumption(probe[1], probe[2], probe[3])


# ---------------------------------------------------------------------------
# University (ontologies/university.kb4)
# ---------------------------------------------------------------------------

#: The full internal taxonomy, derived by hand: each atom's strict
#: subsumers.  Apart from Rector's row it is the closure of the told
#: atom-to-atom inclusions.  Not entailed, among others: ``Faculty <
#: Doctorate`` (``Faculty |-> Doctorate`` is material only, and grace is
#: the exception) and ``ProjectLead < Person`` (nothing types whoever
#: supervises two funded students).
UNIVERSITY_ROWS = {
    "Course": (),
    "Department": ("Organisation",),
    "Doctorate": (),
    "Faculty": ("Staff", "Person"),
    "FundedStudent": ("Student", "Person"),
    "Lecturer": ("Faculty", "Staff", "Person"),
    "Organisation": (),
    "Person": (),
    "Professor": ("Faculty", "Staff", "Person"),
    "ProjectLead": (),
    # Rector < {ada}: a Rector is ada, so it has ada's types: Professor
    # and above, Doctorate (told), and ProjectLead (ada supervises kurt
    # and emmy, two distinct FundedStudents).
    "Rector": (
        "Professor", "Faculty", "Staff", "Person", "Doctorate", "ProjectLead",
    ),
    "Staff": ("Person",),
    "Student": ("Person",),
}


def university_taxonomy():
    """:data:`UNIVERSITY_ROWS` as a reflexive taxonomy (atom -> subsumers)."""
    return {
        atom: frozenset(sups + (atom,)) for atom, sups in UNIVERSITY_ROWS.items()
    }


#: Hand-derived Belnap values.
UNIVERSITY_VALUES = (
    # grace : not Doctorate is told, and the material default is defeated.
    ("grace", "Doctorate", "FALSE"),
    ("grace", "Staff", "TRUE"),
    ("ada", "Doctorate", "TRUE"),
    ("ada", "ProjectLead", "TRUE"),
    ("alan", "Student", "TRUE"),
    ("alan", "Staff", "NEITHER"),
    ("kurt", "Person", "TRUE"),
    ("mathsDept", "Organisation", "TRUE"),
    ("logic101", "Course", "TRUE"),
)

#: The only material inclusion between university atoms: the told one.
#: ``X |-> X`` fails for an element with no evidence either way, and a
#: material inclusion does not follow an internal one (an element may
#: have no evidence against ``Professor`` yet some against ``Faculty``).
UNIVERSITY_MATERIAL = frozenset({("Faculty", "Doctorate")})


def check_university_inclusion(sub, sup, kind, answer):
    """Mismatch of one inclusion between university atoms, or ``None``.

    Internal inclusions follow :data:`UNIVERSITY_ROWS`.  No told strong
    inclusion has an atomic left side, and a strong inclusion also needs
    the right side's negative evidence to reach the left side, which no
    internal edge gives: between atoms only ``X -> X`` holds (so an
    entailed strong inclusion implies the internal one).
    """
    if kind == "internal":
        expected = sup == sub or sup in UNIVERSITY_ROWS[sub]
    elif kind == "strong":
        expected = sub == sup
    else:
        expected = (sub, sup) in UNIVERSITY_MATERIAL
    if answer != expected:
        return f"{sub} {kind} {sup} is {answer}, should be {expected}"
    return None


_TOLD_EDGE = re.compile(rf"^({_NAME})\s+(<|->)\s+({_NAME})$")


def told_edges(text):
    """Told internal/strong atom-to-atom inclusions of a KB text."""
    edges = defaultdict(set)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        match = _TOLD_EDGE.match(line)
        if match:
            edges[match.group(1)].add(match.group(3))
    return edges


def told_facts(text):
    """Told atomic concept assertions: ``(individual, atom, positive)``."""
    facts = []
    for raw in text.splitlines():
        match = _ASSERTION.match(raw.split("#", 1)[0].strip())
        if match:
            name, negated, atom = match.groups()
            facts.append((name, atom, not negated))
    return facts


def check_taxonomy_preorder(taxonomy, text):
    """Mismatches of a taxonomy against the structural laws.

    ``taxonomy`` maps each atom name to the set of its subsumer names.
    It must be reflexive and transitive and contain the closure of the
    told internal and strong atom-to-atom edges.  The self-test holds
    :data:`UNIVERSITY_ROWS` to these laws against the shipped text.
    """
    problems = []
    for atom, sups in taxonomy.items():
        if atom not in sups:
            problems.append(f"{atom} not reflexive")
        for sup in sups:
            missing = set(taxonomy.get(sup, ())) - set(sups)
            if missing:
                problems.append(f"{atom} < {sup} but not transitive")
    for sub, sups in told_edges(text).items():
        for sup in sups:
            if sup not in taxonomy.get(sub, ()):
                problems.append(f"told {sub} < {sup} missing")
    return problems


def check_university_taxonomy(taxonomy):
    """Rows of a university taxonomy that differ from the hand-derived one."""
    return check_taxonomy(taxonomy, university_taxonomy())


def check_university_evidence(individual, atom, evidence, text):
    """Mismatch of positive evidence for ``individual : atom``, or ``None``.

    It must agree with a hand-derived value, and hold wherever a told
    positive type of the individual has ``atom`` among its subsumers.
    """
    for name, concept, value in UNIVERSITY_VALUES:
        if (name, concept) == (individual, atom):
            if evidence != (value in ("TRUE", "BOTH")):
                return f"evidence {individual} : {atom} is {evidence}, not {value}"
    taxonomy = university_taxonomy()
    for name, concept, positive in told_facts(text):
        if name == individual and positive and atom in taxonomy.get(concept, ()):
            if not evidence:
                return f"no evidence {individual} : {atom}, told {concept}"
    return None


def check_university_value(individual, atom, value, text):
    """Mismatch of one university assertion value, or ``None``."""
    for name, concept, expected in UNIVERSITY_VALUES:
        if (name, concept) == (individual, atom) and value != expected:
            return f"{individual} : {atom} is {value}, should be {expected}"
    for name, concept, positive in told_facts(text):
        if (name, concept) != (individual, atom):
            continue
        allowed = ("TRUE", "BOTH") if positive else ("FALSE", "BOTH")
        if value not in allowed:
            return f"told {individual} : {atom} answered {value}"
    return check_university_evidence(
        individual, atom, value in ("TRUE", "BOTH"), text
    )


#: The knowledge order <=_k on Belnap values: NEITHER below TRUE and
#: FALSE, both below BOTH.
_KNOWLEDGE_RANK = {
    "NEITHER": (0, 0), "TRUE": (1, 0), "FALSE": (0, 1), "BOTH": (1, 1),
}


def knowledge_leq(low, high):
    """Whether ``low <=_k high``."""
    a, b = _KNOWLEDGE_RANK[low], _KNOWLEDGE_RANK[high]
    return a[0] <= b[0] and a[1] <= b[1]


def check_edit_laws(fact, probes, before, during, after):
    """Mismatches of one add-then-retract edit against the laws.

    Adding a fact can only raise a value in ``<=_k``; retracting it must
    restore every value exactly.  ``None`` (UNKNOWN) answers are skipped:
    they are counted as failed operations, not as answers.
    """
    problems = []
    for probe, old, new, back in zip(probes, before, during, after):
        if old is None or new is None or back is None:
            continue
        if not knowledge_leq(old, new):
            problems.append(f"+{fact}: {probe} dropped from {old} to {new}")
        if back != old:
            problems.append(f"-{fact}: {probe} is {back}, was {old}")
    return problems


# ---------------------------------------------------------------------------
# Checks against the generated-KB reference
# ---------------------------------------------------------------------------

def check_answers(kb, answers):
    """Mismatches of ``{probe: answer}`` against :class:`AtomicKB4`."""
    problems = []
    for probe, answer in answers.items():
        expected = kb.answer(probe)
        if answer != expected:
            problems.append(f"{probe} answered {answer}, reference {expected}")
    return problems


def compare_answers(observed, expected):
    """Mismatches between two ``{probe: answer}`` maps on ``observed``."""
    return [
        f"{probe} answered {answer}, reference {expected.get(probe)}"
        for probe, answer in observed.items()
        if expected.get(probe) != answer
    ]


def check_taxonomy(taxonomy, expected):
    """Rows of a taxonomy that differ from the expected one (exact)."""
    problems = []
    for atom in sorted(set(taxonomy) | set(expected)):
        got, want = taxonomy.get(atom), expected.get(atom)
        if got != want:
            problems.append(f"taxonomy row {atom}: {sorted(got or ())[:5]}")
    return problems
