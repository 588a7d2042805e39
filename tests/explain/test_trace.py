"""Trace recording: structure, determinism, truncation, and rendering."""

from repro.dl import (
    AtomicConcept,
    ConceptAssertion,
    ConceptInclusion,
    Individual,
    KnowledgeBase,
    Not,
    Or,
)
from repro.dl.tableau import Tableau
from repro.explain import Trace, render_trace, render_trace_summary

A, B, C = (AtomicConcept(n) for n in "ABC")
a = Individual("a")


def contradictory_kb():
    return KnowledgeBase.of(
        [
            ConceptInclusion(A, B),
            ConceptAssertion(a, A),
            ConceptAssertion(a, Not(B)),
        ]
    )


def test_trace_records_init_derive_clash_verdict():
    trace = Trace()
    tableau = Tableau(contradictory_kb())
    assert not tableau.is_satisfiable(trace=trace)
    counts = trace.counts()
    assert counts["init"] == 1
    assert counts["verdict"] == 1
    assert counts["clash"] >= 1
    assert trace.verdict is False
    assert trace.clashes


def test_clash_events_carry_source_axioms():
    trace = Trace()
    tableau = Tableau(contradictory_kb())
    tableau.is_satisfiable(trace=trace)
    reason, axioms = trace.clashes[-1].payload
    assert isinstance(reason, str)
    assert set(axioms) <= set(contradictory_kb().axioms())
    assert ConceptAssertion(a, A) in axioms


def test_branch_points_recorded_on_disjunctions():
    kb = KnowledgeBase.of(
        [
            ConceptAssertion(a, Or.of(A, B)),
            ConceptAssertion(a, Not(A)),
            ConceptAssertion(a, Not(B)),
        ]
    )
    trace = Trace()
    tableau = Tableau(kb)
    assert not tableau.is_satisfiable(trace=trace)
    assert trace.branch_points
    assert trace.verdict is False


def test_trace_is_deterministic_across_runs():
    def run():
        trace = Trace()
        Tableau(contradictory_kb()).is_satisfiable(trace=trace)
        return [(e.kind, e.depth) for e in trace.events]

    assert run() == run()


def test_truncation_caps_event_count():
    trace = Trace(max_events=2)
    Tableau(contradictory_kb()).is_satisfiable(trace=trace)
    assert len(trace) == 2
    assert trace.truncated


def test_satisfiable_run_records_verdict_true():
    kb = KnowledgeBase.of([ConceptAssertion(a, A)])
    trace = Trace()
    tableau = Tableau(kb)
    assert tableau.is_satisfiable(trace=trace)
    assert trace.verdict is True


def test_render_trace_and_summary_are_strings():
    trace = Trace()
    Tableau(contradictory_kb()).is_satisfiable(trace=trace)
    full = render_trace(trace)
    assert "verdict: unsatisfiable" in full
    capped = render_trace(trace, max_lines=1)
    assert "more events" in capped
    summary = render_trace_summary(trace)
    assert summary.startswith("trace:")
    assert summary.endswith("unsatisfiable")


def test_untraced_runs_unaffected():
    tableau = Tableau(contradictory_kb())
    assert not tableau.is_satisfiable()
    core = tableau.last_unsat_core
    assert not tableau.is_satisfiable(trace=Trace())
    assert tableau.last_unsat_core == core
