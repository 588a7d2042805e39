"""Ablation: the tableau's two search optimisations.

DESIGN.md calls out two implementation decisions:

* **absorption** — inclusions with an atomic left side fire lazily
  instead of adding a universal disjunction to every node;
* **BCP** — immediate-clash screening and fail-first choice on the
  disjunctions that remain.

Measured matrix on the 32-axiom reduction workload (an inconsistent
random ontology), asserted exactly below:

==============  ==========  =======================
configuration   branches    outcome
==============  ==========  =======================
absorption+BCP  1           unsat in microseconds
absorption      1           unsat in microseconds
BCP only        10          unsat in milliseconds
neither         144         unsat
==============  ==========  =======================

Without either optimisation every inclusion becomes a disjunction on
every node; dependency-directed backjumping still refutes the KB, in
144 branches instead of 1.
"""

import pytest

from repro.dl import Tableau
from repro.dl.errors import ReasonerLimitExceeded
from repro.workloads import GeneratorConfig, generate_kb


def workload(size: int):
    return generate_kb(
        GeneratorConfig(
            n_concepts=max(4, size // 2),
            n_roles=2,
            n_individuals=max(4, size // 2),
            n_tbox=size // 2,
            n_abox=size - size // 2,
            max_depth=1,
            seed=size * 13 + 1,
        )
    )


HARD_KB = workload(32)


def run_config(use_absorption: bool, use_bcp: bool, budget: int = 20_000):
    tableau = Tableau(
        HARD_KB,
        use_absorption=use_absorption,
        use_bcp=use_bcp,
        max_branches=budget,
    )
    try:
        result = tableau.is_satisfiable()
    except ReasonerLimitExceeded:
        result = None
    return result, tableau._branches_used


def test_full_optimisations(benchmark):
    result, branches = benchmark(run_config, True, True)
    assert result is False
    assert branches == 1


def test_absorption_only(benchmark):
    result, branches = benchmark(run_config, True, False)
    assert result is False
    assert branches == 1


def test_bcp_only(benchmark):
    result, branches = benchmark(run_config, False, True)
    assert result is False
    assert branches == 10


def test_neither_costs_the_most_branches(benchmark):
    result, branches = benchmark.pedantic(
        lambda: run_config(False, False), rounds=1, iterations=1
    )
    assert result is False
    assert branches == 144


def test_all_configurations_agree():
    reference, _branches = run_config(True, True)
    for use_absorption, use_bcp in ((True, False), (False, True), (False, False)):
        result, _branches = run_config(use_absorption, use_bcp)
        assert result == reference
