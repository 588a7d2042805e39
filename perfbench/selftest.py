"""Self-tests: every check must reject one corrupted answer.

:func:`reference_checks` runs in every run; each entry feeds a check one
correct input (which must pass) and one corrupted input (which must be
rejected), so a check that has gone blind fails the run instead of
passing it.  :func:`layer_delay` runs in every traced run: it sleeps
inside one wrapped entry point and requires the time to land in that
layer's metric and in no other.
"""

import gen
import reference
from coldstart import load
from inproc import UNIVERSITY_PATH

#: The delay injected per wrapped call in :func:`layer_delay`.
DELAY_S = 0.2
DELAY_LAYER = "tableau"
#: University probes that saturation declines, so each runs the tableau.
DELAY_PROBES = (
    ("subsumption", "Rector", "Doctorate", "internal"),
    ("subsumption", "Student", "Staff", "internal"),
    ("subsumption", "Person", "Staff", "internal"),
    ("assertion_value", "grace", "Doctorate"),
)


def _rejects(name, check, good, bad):
    """Problems if ``check`` flags ``good`` or lets ``bad`` through."""
    problems = []
    if check(good):
        problems.append(f"self-test {name}: flagged a correct answer")
    if not check(bad):
        problems.append(f"self-test {name}: accepted a corrupted answer")
    return problems


def reference_checks():
    problems = []
    kb = reference.AtomicKB4(gen.exception_chain(50))
    # Hand-derived answers of the penguin block (x0 : B0, y0 : A0).
    known = {
        ("instance", "x0", "A0"): True,
        ("instance", "y0", "D0"): False,
        ("assertion_value", "x0", "D0"): "FALSE",
        ("assertion_value", "x0", "A0"): "TRUE",
        ("assertion_value", "y0", "B0"): "NEITHER",
        ("subsumption", "B0", "A0", "internal"): True,
        ("subsumption", "A0", "B0", "internal"): False,
        ("subsumption", "A0", "D0", "material"): True,
        ("subsumption", "A0", "A0", "material"): False,
        ("subsumption", "B0", "A0", "strong"): False,
        ("subsumption", "B0", "B0", "strong"): True,
        ("satisfiable",): True,
    }
    corrupted = dict(known)
    corrupted[("instance", "x0", "A0")] = False
    problems += _rejects(
        "generated answers",
        lambda answers: reference.check_answers(kb, answers),
        known,
        corrupted,
    )
    with open(UNIVERSITY_PATH) as handle:
        text = handle.read()
    taxonomy = reference.university_taxonomy()
    for problem in reference.check_taxonomy_preorder(taxonomy, text):
        problems.append(f"hand-derived university taxonomy: {problem}")
    wrong = dict(taxonomy)
    wrong["Lecturer"] = wrong["Lecturer"] | {"Doctorate"}
    problems += _rejects(
        "university taxonomy",
        reference.check_university_taxonomy,
        taxonomy,
        wrong,
    )
    problems += _rejects(
        "university evidence",
        lambda evidence: reference.check_university_evidence(
            "grace", "Staff", evidence, text
        ),
        True,
        False,
    )
    problems += _rejects(
        "university value",
        lambda value: reference.check_university_value(
            "grace", "Doctorate", value, text
        ),
        "FALSE",
        "BOTH",
    )
    problems += _rejects(
        "university inclusion",
        lambda answer: reference.check_university_inclusion(
            "Professor", "Faculty", "strong", answer
        ),
        False,
        True,
    )
    probes = [("assertion_value", "ada", "Staff")]
    problems += _rejects(
        "edit laws",
        lambda during: reference.check_edit_laws(
            "ada : not Staff", probes, ["TRUE"], [during], ["TRUE"]
        ),
        "BOTH",
        "NEITHER",
    )
    problems += _rejects(
        "serve comparison",
        lambda observed: reference.compare_answers(observed, known),
        {("satisfiable",): True},
        {("satisfiable",): False},
    )
    from collections import Counter

    from layers import cross_check
    from repro.dl.stats import ReasonerStats

    stats = ReasonerStats(tableau_runs=3)
    problems += _rejects(
        "layer cross-check",
        lambda runs: cross_check(Counter({"tableau.runs": runs}), [stats]),
        3,
        4,
    )
    return problems


def layer_delay():
    """Sleep inside one layer; the time must land there and nowhere else."""
    from layers import Layers
    from probes import run_probe

    with open(UNIVERSITY_PATH) as handle:
        text = handle.read()

    def measure(delay):
        layers = Layers()
        if delay:
            layers.delay[DELAY_LAYER] = delay
        layers.install()
        try:
            reasoner = load(text)
            for probe in DELAY_PROBES:
                run_probe(reasoner, probe)
        finally:
            layers.uninstall()
        return layers

    base, slow = measure(0.0), measure(DELAY_S)
    runs = slow.counts["tableau.runs"]
    injected = DELAY_S * runs
    problems = []
    if runs == 0 or runs != base.counts["tableau.runs"]:
        problems.append(f"delay self-test: tableau runs {runs}")
    for layer in set(base.seconds) | set(slow.seconds):
        grown = slow.seconds[layer] - base.seconds[layer]
        if layer == DELAY_LAYER and grown < 0.9 * injected:
            problems.append(
                f"delay self-test: {layer} grew {grown:.3f}s of {injected:.3f}s"
            )
        if layer != DELAY_LAYER and grown > 0.25 * injected:
            problems.append(f"delay self-test: {layer} grew {grown:.3f}s")
    return problems
