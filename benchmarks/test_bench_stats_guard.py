"""Stats-regression guard: university classification must not get slower.

The recorded baseline (``baseline_university_stats.json``) pins the
tableau-run and branch counters of classifying the shipped university
ontology with the default configuration.  CI fails when either counter
regresses by more than 10% — catching silent search-quality regressions
(a broken optimisation, a de-tuned heuristic) that wall-clock timing on
shared runners cannot detect reliably.

To re-record after an *intentional* change, run this workload and copy
the counters into the JSON file alongside an explanation in the PR.
"""

import json
import os
import time

from repro.dl.parser import parse_kb4
from repro.four_dl import Reasoner4
from repro.obs import BenchRecord, Tracer, maybe_write_bench_record, tracing

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baseline_university_stats.json")
ONTOLOGY_PATH = os.path.join(HERE, os.pardir, "ontologies", "university.kb4")

TOLERANCE = 1.10


def _classify_stats(tracer=None):
    with open(ONTOLOGY_PATH) as handle:
        kb4 = parse_kb4(handle.read())
    reasoner = Reasoner4(kb4)
    with tracing(tracer):
        started = time.perf_counter()
        reasoner.classify()
        seconds = time.perf_counter() - started
    return reasoner.stats, seconds


def test_university_classification_counters_within_baseline():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    stats, seconds = _classify_stats()
    maybe_write_bench_record(
        BenchRecord(
            name="university_classify",
            workload="Reasoner4.classify() on ontologies/university.kb4",
            seconds=[seconds],
            counters=stats.as_dict(),
        )
    )
    assert stats.tableau_runs <= baseline["tableau_runs"] * TOLERANCE, (
        f"tableau runs regressed: {stats.tableau_runs} vs recorded "
        f"{baseline['tableau_runs']} (+10% tolerance); if intentional, "
        f"re-record {BASELINE_PATH}"
    )
    assert stats.branches_explored <= baseline["branches_explored"] * TOLERANCE, (
        f"branches regressed: {stats.branches_explored} vs recorded "
        f"{baseline['branches_explored']} (+10% tolerance); if intentional, "
        f"re-record {BASELINE_PATH}"
    )
    assert stats.budget_aborts == 0, (
        f"unbudgeted classification hit {stats.budget_aborts} budget "
        f"abort(s): the default configuration must never impose a budget"
    )
    # Which engine answered: the university KB's induced form carries
    # residue axioms (core-mode saturation), so the fast path proves
    # the subsumptions its entailment closure reaches and declines the
    # rest, which the kept models or the tableau decide.  The
    # dispatcher must still have consulted saturation first each time.
    assert stats.saturation_queries == baseline["saturation_queries"], (
        f"engine split changed: saturation answered "
        f"{stats.saturation_queries} probe(s) vs recorded "
        f"{baseline['saturation_queries']}; if intentional (e.g. the "
        f"fragment widened), re-record {BASELINE_PATH}"
    )
    assert (
        stats.saturation_fallbacks
        == stats.tableau_runs + stats.model_witnesses
    ), (
        f"dispatch accounting broken: {stats.saturation_fallbacks} "
        f"saturation fallbacks but {stats.tableau_runs} tableau runs and "
        f"{stats.model_witnesses} model witnesses — every tableau or "
        f"model decision should follow a saturation decline"
    )
    assert (
        stats.saturation_fallbacks
        <= baseline["saturation_fallbacks"] * TOLERANCE
    ), (
        f"fallbacks regressed: {stats.saturation_fallbacks} vs recorded "
        f"{baseline['saturation_fallbacks']} (+10% tolerance); if "
        f"intentional, re-record {BASELINE_PATH}"
    )


def test_tracing_disabled_causes_zero_counter_drift():
    """The observability instrumentation must be work-neutral.

    The reasoning stack is permanently instrumented with span call
    sites; with no tracer installed they are no-ops, and even with one
    installed they only *observe*.  Either way the reasoner must do
    byte-identical work: every counter equal between a traced and an
    untraced classification of the same ontology.
    """
    plain, _ = _classify_stats(tracer=None)
    traced, _ = _classify_stats(tracer=Tracer())
    assert traced.as_dict() == plain.as_dict(), (
        "observability instrumentation changed the reasoner's work "
        "counters; tracing must be a pure observer"
    )
