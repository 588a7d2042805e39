"""Classification and query-cache benchmarks with counter assertions.

Times model-driven classification against the pairwise sweep (the test
suite's oracle) on the shipped university ontology and on generated
taxonomies, and measures what the cross-query
cache saves on repeated probe batteries.  Each benchmark also asserts
the counter relationship the optimisation promises, so a regression in
*work* fails even on a fast machine.
"""

import os

import pytest

from repro.dl import Reasoner
from repro.dl.parser import parse_kb4
from repro.four_dl import Reasoner4, transform_kb
from repro.obs import BenchRecord, maybe_write_bench_record
from repro.workloads import GeneratorConfig, generate_kb
from tests.oracles import classify_pairwise

ONTOLOGY_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "ontologies")


def _emit_record(name, workload, benchmark, stats):
    """Persist a BENCH_*.json record iff REPRO_BENCH_OUT is set."""
    try:
        samples = list(benchmark.stats.stats.data)
    except AttributeError:  # pytest-benchmark internals moved
        samples = []
    maybe_write_bench_record(
        BenchRecord(
            name=name,
            workload=workload,
            seconds=samples,
            counters=stats.as_dict(),
        )
    )


@pytest.fixture(scope="module")
def university_induced():
    with open(os.path.join(ONTOLOGY_DIR, "university.kb4")) as handle:
        return transform_kb(parse_kb4(handle.read()))


def test_university_model_driven_classification(benchmark, university_induced):
    def run():
        reasoner = Reasoner(university_induced)
        hierarchy = reasoner.classify()
        return reasoner, hierarchy

    reasoner, hierarchy = benchmark(run)
    n = len(university_induced.concepts_in_signature())
    assert len(hierarchy) == n
    assert reasoner.stats.tableau_runs < n * n
    _emit_record(
        "university_model_driven_classification",
        "Reasoner.classify() on the induced university KB",
        benchmark,
        reasoner.stats,
    )


def test_university_pairwise_classification(benchmark, university_induced):
    def run():
        # The n^2 counter is about tableau work, so pin the engine.
        reasoner = Reasoner(university_induced, use_cache=False, engine="tableau")
        hierarchy = classify_pairwise(reasoner)
        return reasoner, hierarchy

    reasoner, hierarchy = benchmark(run)
    n = len(university_induced.concepts_in_signature())
    assert len(hierarchy) == n
    assert reasoner.stats.tableau_runs == n * n
    _emit_record(
        "university_pairwise_classification",
        "the pairwise oracle (tests/oracles.py) on the induced university KB",
        benchmark,
        reasoner.stats,
    )


@pytest.mark.parametrize("n_concepts", [8, 16])
def test_generated_taxonomy_classification(benchmark, n_concepts):
    kb = generate_kb(
        GeneratorConfig(
            n_concepts=n_concepts,
            n_roles=2,
            n_individuals=4,
            n_tbox=n_concepts,
            n_abox=6,
            max_depth=1,
            seed=303,
        )
    )

    def run():
        reasoner = Reasoner(kb)
        return reasoner, reasoner.classify()

    reasoner, hierarchy = benchmark(run)
    oracle = Reasoner(kb, use_cache=False, engine="tableau")
    assert classify_pairwise(oracle) == hierarchy


def test_repeated_query_battery_with_cache(benchmark):
    with open(os.path.join(ONTOLOGY_DIR, "university.kb4")) as handle:
        kb4 = parse_kb4(handle.read())
    atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)[:6]
    individuals = sorted(
        kb4.individuals_in_signature(), key=lambda i: i.name
    )[:4]
    pairs = [(i, a) for i in individuals for a in atoms]

    def run():
        reasoner = Reasoner4(kb4)
        first = reasoner.assertion_values(pairs)
        second = reasoner.assertion_values(pairs)  # fully cache-served
        return reasoner, first, second

    reasoner, first, second = benchmark(run)
    assert first == second
    assert reasoner.stats.cache_hits >= len(pairs)
