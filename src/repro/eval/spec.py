"""Declarative eval suites: named probes grouped into runnable specs.

A **probe** is one named, phased measurement — a callable the runner
times (``repeats`` times, fresh state each repeat) whose
:class:`ProbeResult` carries the deterministic payload of the metric
record: a status, work counters, and JSON-able extras.  A **suite** is a
named list of probes built from :class:`EvalSettings` (seed, ``--scale``
opt-in), so the same spec scales from CI-sized to million-axiom runs.

Determinism contract: everything a probe returns must be a pure
function of ``(suite, settings)`` — no wall-clock, no unseeded
randomness.  Reasoning probes that can blow up therefore use *node/
branch* budgets (deterministic abort points), never wall-clock
deadlines; a probe that degrades reports ``status="unknown"`` with its
``budget_aborts`` counters rather than hiding the miss.  The runner
checks the contract by re-running ``metrics.jsonl`` comparisons in the
test suite (same seed, timing fields stripped, byte-identical).

Built-in suites (:data:`ALL_SUITES`):

* ``paper`` — every EXPERIMENTS.md artefact via
  :mod:`repro.harness.experiments`, one probe per experiment;
* ``classification`` — parse/transform/classify/query-battery probes on
  the shipped university ontology (the PR 1/PR 2 optimisation story),
  plus an ``edit_workload`` probe that mutates the KB once and demands
  the warm re-query do strictly less work than the cold start while
  cache entries demonstrably survive (fine-grained invalidation);
* ``scaling_small`` — the generated scaling corpus at CI-friendly sizes
  (10^3), all four inconsistency profiles, plus decided satisfiability
  probes at tableau-feasible size;
* ``scaling_large`` — the 10^4-10^6 end (requires ``--scale``):
  generate/parse/transform sweeps plus work-budgeted satisfiability
  probes at 10^4 axioms and a full classification probe on the
  tbox_heavy profile — both decided in-budget by the saturation fast
  path (:mod:`repro.dl.saturation`), which closed the honest-UNKNOWN
  gap the suite used to record here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "EvalSettings",
    "Probe",
    "ProbeResult",
    "Suite",
    "ALL_SUITES",
    "get_suite",
]

#: Repo root when running from a source checkout (ontologies/ lives here).
_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class EvalSettings:
    """The knobs a suite is built from."""

    seed: int = 0
    scale: bool = False


@dataclass
class ProbeResult:
    """The deterministic payload of one probe execution."""

    status: str = "ok"
    counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    #: Optional human-readable block appended to the run's SUMMARY.md.
    summary: str = ""


@dataclass(frozen=True)
class Probe:
    """One named measurement: the runner times ``run(seed)``."""

    name: str
    phase: str
    run: Callable[[int], ProbeResult]
    repeats: int = 1


@dataclass(frozen=True)
class Suite:
    """A named probe list; ``build`` may consult seed and ``--scale``."""

    name: str
    description: str
    build: Callable[[EvalSettings], List[Probe]]
    #: Suites needing --scale refuse to build without it.
    needs_scale: bool = False


def _university_path() -> Path:
    local = Path("ontologies") / "university.kb4"
    if local.exists():
        return local
    return _REPO_ROOT / "ontologies" / "university.kb4"


# ---------------------------------------------------------------------------
# paper: the EXPERIMENTS.md battery as probes
# ---------------------------------------------------------------------------

def _paper_probes(settings: EvalSettings) -> List[Probe]:
    from ..harness.experiments import ALL_EXPERIMENTS

    def probe_for(name: str, fn) -> Probe:
        def run(seed: int) -> ProbeResult:
            result = fn()
            return ProbeResult(
                status="ok" if result.passed else "fail",
                counters={"rows": len(result.rows)},
                # The experiments pin their own seeds (paper fidelity);
                # the suite seed is recorded but intentionally unused.
                # result.note can embed measured timings, so it goes to
                # the SUMMARY block only, never the deterministic record.
                extra={"passed": result.passed},
                summary=result.render(),
            )

        return Probe(name=name, phase="experiment", run=run)

    return [probe_for(name, fn) for name, fn in ALL_EXPERIMENTS.items()]


# ---------------------------------------------------------------------------
# classification: the shipped university ontology, phase by phase
# ---------------------------------------------------------------------------

def _classification_probes(settings: EvalSettings) -> List[Probe]:
    from ..dl.parser import parse_kb4
    from ..dl.reasoner import Reasoner
    from ..four_dl.axioms4 import InclusionKind, collapse_to_classical
    from ..four_dl.reasoner4 import Reasoner4
    from ..four_dl.transform import transform_kb

    text = _university_path().read_text()
    kb4 = parse_kb4(text)
    induced = transform_kb(kb4)

    def parse_probe(seed: int) -> ProbeResult:
        parsed = parse_kb4(text)
        return ProbeResult(counters={"axioms": len(parsed)})

    def transform_probe(seed: int) -> ProbeResult:
        result = transform_kb(parse_kb4(text))
        return ProbeResult(
            counters={"axioms": len(kb4), "induced_axioms": len(result)}
        )

    def model_driven_probe(seed: int) -> ProbeResult:
        reasoner = Reasoner(induced)
        hierarchy = reasoner.classify()
        return ProbeResult(
            status="ok" if len(hierarchy) else "fail",
            counters=reasoner.stats.as_dict(),
            extra={"concepts": len(hierarchy)},
        )

    def classify4_probe(seed: int) -> ProbeResult:
        reasoner = Reasoner4(parse_kb4(text))
        hierarchy = reasoner.classify(kind=InclusionKind.INTERNAL)
        return ProbeResult(
            status="ok" if len(hierarchy) else "fail",
            counters=reasoner.stats.as_dict(),
            extra={"concepts": len(hierarchy)},
        )

    def query_battery_probe(seed: int) -> ProbeResult:
        reasoner = Reasoner4(parse_kb4(text))
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)[:6]
        individuals = sorted(
            kb4.individuals_in_signature(), key=lambda i: i.name
        )[:4]
        pairs = [(i, a) for i in individuals for a in atoms]
        first = reasoner.assertion_values(pairs)
        second = reasoner.assertion_values(pairs)
        values = {str(v) for v in first.values()}
        return ProbeResult(
            status="ok" if first == second else "fail",
            counters=reasoner.stats.as_dict(),
            extra={"probes": len(pairs), "values_seen": sorted(values)},
        )

    def edit_workload_probe(seed: int) -> ProbeResult:
        # Mutate-then-requery: a long-lived reasoner absorbs a single
        # ABox edit via fine-grained invalidation.  The probe fails
        # unless (a) the warm re-classification does strictly less
        # reasoning work than the cold start, (b) some cache entries
        # actually survived the edit, and (c) the warm hierarchy is
        # byte-identical to a reasoner built cold over the edited KB.
        from ..dl.axioms import ConceptAssertion
        from ..dl.concepts import AtomicConcept
        from ..dl.individuals import Individual

        kb = parse_kb4(text)
        reasoner = Reasoner4(kb)
        reasoner.classify(kind=InclusionKind.INTERNAL)
        cold = reasoner.stats.snapshot()
        edit = ConceptAssertion(Individual("freshStudent42"), AtomicConcept("Course"))
        kb.add_axiom(edit)
        warm_hierarchy = reasoner.classify(kind=InclusionKind.INTERNAL)
        delta = reasoner.stats - cold
        fresh = Reasoner4(parse_kb4(text).add_axiom(edit))
        fresh_hierarchy = fresh.classify(kind=InclusionKind.INTERNAL)
        cold_work = cold.tableau_runs + cold.saturation_queries
        warm_work = delta.tableau_runs + delta.saturation_queries
        survived = delta.cache_entries_survived
        ok = (
            warm_work < cold_work
            and survived > 0
            and warm_hierarchy == fresh_hierarchy
        )
        return ProbeResult(
            status="ok" if ok else "fail",
            counters=reasoner.stats.as_dict(),
            extra={
                "cold_work": cold_work,
                "warm_work": warm_work,
                "cache_entries_survived": survived,
                "fine_invalidations": delta.fine_invalidations,
                "resaturation_cone": delta.resaturation_cone_size,
                "hierarchy_matches_cold_rebuild": (
                    warm_hierarchy == fresh_hierarchy
                ),
            },
        )

    def satisfiability_probe(seed: int) -> ProbeResult:
        reasoner = Reasoner4(parse_kb4(text))
        four = reasoner.is_satisfiable()
        classical = Reasoner(collapse_to_classical(kb4)).is_consistent()
        return ProbeResult(
            status="ok" if four else "fail",
            counters=reasoner.stats.as_dict(),
            extra={"four_valued_sat": four, "classical_consistent": classical},
        )

    return [
        Probe("parse", "parse", parse_probe, repeats=3),
        Probe("transform", "transform", transform_probe, repeats=3),
        Probe(
            "classify_model_driven", "classify", model_driven_probe, repeats=3
        ),
        Probe("classify4_internal", "classify", classify4_probe),
        Probe("query_battery_cached", "query", query_battery_probe, repeats=3),
        Probe("edit_workload", "incremental", edit_workload_probe, repeats=3),
        Probe("satisfiability", "reason", satisfiability_probe, repeats=3),
    ]


# ---------------------------------------------------------------------------
# scaling: the generated corpus, small (CI) and large (--scale) tiers
# ---------------------------------------------------------------------------

#: Budget caps for satisfiability probes on the scaling corpus.  The
#: saturation fast path decides the tractable profiles (tbox_heavy in
#: particular) without touching these caps — they only constrain work
#: on probes the dispatcher routes to the trail tableau, where they are
#: deterministic abort points.  Work budgets, never wall-clock: abort
#: points must not depend on the machine.
_SCALING_MAX_NODES = 10_000
_SCALING_MAX_BRANCHES = 5_000
_SCALING_MAX_TRAIL = 10_000

#: Corpus sizes per tier.  Reasoning probes run at REASON sizes: 10^2
#: for the small (CI) tier where the tableau must also keep up, 10^4 for
#: the large tier, which the saturation engine decides in-budget.
_SMALL_SIZES = (1_000, 3_000)
_SMALL_REASON_SIZE = 100
_LARGE_SIZES = (10_000, 100_000)
_LARGE_XL_SIZE = 1_000_000
_LARGE_REASON_SIZE = 10_000


def _corpus_probes(
    sizes,
    reason_size: int,
    settings: EvalSettings,
    xl_size: Optional[int] = None,
    classify_profiles=(),
) -> List[Probe]:
    from ..dl.budget import Budget
    from ..dl.parser import parse_kb4
    from ..dl.printer import render_kb4
    from ..four_dl.axioms4 import InclusionKind
    from ..four_dl.reasoner4 import Reasoner4
    from ..four_dl.transform import transform_kb
    from ..workloads.scaling import (
        ScalingConfig,
        ScalingProfile,
        generate_scaling_kb4,
        measured_clash_density,
    )

    probes: List[Probe] = []

    def add_phase_probes(profile: ScalingProfile, size: int) -> None:
        config = ScalingConfig(
            n_axioms=size, profile=profile, seed=settings.seed
        )
        prefix = f"{profile.value}-n{size}"

        def generate_probe(seed: int, config=config) -> ProbeResult:
            kb = generate_scaling_kb4(config)
            density = measured_clash_density(kb)
            return ProbeResult(
                counters={"axioms": len(kb)},
                extra={
                    "profile": config.profile.value,
                    "clash_density": round(density, 4),
                },
            )

        def parse_probe(seed: int, config=config) -> ProbeResult:
            parsed = parse_kb4(render_kb4(generate_scaling_kb4(config)))
            status = "ok" if len(parsed) == config.n_axioms else "fail"
            return ProbeResult(status=status, counters={"axioms": len(parsed)})

        def transform_probe(seed: int, config=config) -> ProbeResult:
            induced = transform_kb(generate_scaling_kb4(config))
            return ProbeResult(
                counters={
                    "axioms": config.n_axioms,
                    "induced_axioms": len(induced),
                },
                extra={
                    "size_ratio": round(len(induced) / config.n_axioms, 3)
                },
            )

        probes.append(Probe(f"{prefix}-generate", "generate", generate_probe))
        probes.append(Probe(f"{prefix}-parse", "parse", parse_probe))
        probes.append(Probe(f"{prefix}-transform", "transform", transform_probe))

    def add_reason_probe(profile: ScalingProfile) -> None:
        config = ScalingConfig(
            n_axioms=reason_size, profile=profile, seed=settings.seed
        )

        def reason_probe(seed: int, config=config) -> ProbeResult:
            # Node budget, not a deadline: the abort point (if any) is a
            # deterministic function of the KB, so the record stays
            # byte-stable across machines and runs.
            reasoner = Reasoner4(generate_scaling_kb4(config))
            verdict = reasoner.is_satisfiable_verdict(
                budget=Budget(
                    max_nodes=_SCALING_MAX_NODES,
                    max_branches=_SCALING_MAX_BRANCHES,
                    max_trail=_SCALING_MAX_TRAIL,
                )
            )
            if verdict.is_unknown():
                status = "unknown"
                answer = "unknown"
            else:
                status = "ok"
                answer = str(bool(verdict))
            return ProbeResult(
                status=status,
                counters=reasoner.stats.as_dict(),
                extra={
                    "profile": config.profile.value,
                    "n_axioms": config.n_axioms,
                    "satisfiable": answer,
                    "budget": {
                        "max_nodes": _SCALING_MAX_NODES,
                        "max_branches": _SCALING_MAX_BRANCHES,
                        "max_trail": _SCALING_MAX_TRAIL,
                    },
                },
            )

        probes.append(
            Probe(
                f"{profile.value}-n{reason_size}-reason", "reason", reason_probe
            )
        )

    def add_classify_probe(profile: ScalingProfile) -> None:
        config = ScalingConfig(
            n_axioms=reason_size, profile=profile, seed=settings.seed
        )

        def classify_probe(seed: int, config=config) -> ProbeResult:
            # Full internal classification under work budgets: the
            # saturation fast path must decide every subsumption probe
            # (a partial hierarchy or any UNKNOWN is a failure, not a
            # degradation to tolerate).
            reasoner = Reasoner4(generate_scaling_kb4(config))
            partial = reasoner.classify_bounded(
                kind=InclusionKind.INTERNAL,
                budget=Budget(
                    max_nodes=_SCALING_MAX_NODES,
                    max_branches=_SCALING_MAX_BRANCHES,
                    max_trail=_SCALING_MAX_TRAIL,
                ),
            )
            return ProbeResult(
                status="ok" if partial.complete else "unknown",
                counters=reasoner.stats.as_dict(),
                extra={
                    "profile": config.profile.value,
                    "n_axioms": config.n_axioms,
                    "complete": partial.complete,
                    "concepts": len(partial.hierarchy),
                },
            )

        probes.append(
            Probe(
                f"{profile.value}-n{reason_size}-classify",
                "classify",
                classify_probe,
            )
        )

    for profile in ScalingProfile:
        for size in sizes:
            add_phase_probes(profile, size)
        add_reason_probe(profile)
        if profile in classify_profiles:
            add_classify_probe(profile)
    if xl_size is not None:
        # One profile only at the 10^6 tier: the point is the curve's
        # end, not a full sweep; parse is included (slowest phase).
        add_phase_probes(ScalingProfile.ABOX_HEAVY, xl_size)
    return probes


def _scaling_small_probes(settings: EvalSettings) -> List[Probe]:
    return _corpus_probes(_SMALL_SIZES, _SMALL_REASON_SIZE, settings)


def _scaling_large_probes(settings: EvalSettings) -> List[Probe]:
    from ..workloads.scaling import ScalingProfile

    return _corpus_probes(
        _LARGE_SIZES,
        _LARGE_REASON_SIZE,
        settings,
        xl_size=_LARGE_XL_SIZE,
        classify_profiles=(ScalingProfile.TBOX_HEAVY,),
    )


ALL_SUITES: Dict[str, Suite] = {
    "paper": Suite(
        name="paper",
        description=(
            "every EXPERIMENTS.md artefact (tables, examples, claims) "
            "recomputed via repro.harness.experiments"
        ),
        build=_paper_probes,
    ),
    "classification": Suite(
        name="classification",
        description=(
            "parse/transform/classification/query probes on the shipped "
            "university ontology, plus a mutate-then-requery edit "
            "workload exercising fine-grained invalidation"
        ),
        build=_classification_probes,
    ),
    "scaling_small": Suite(
        name="scaling_small",
        description=(
            "generated scaling corpus at CI sizes (10^3) across all "
            "inconsistency profiles, plus decided satisfiability probes"
        ),
        build=_scaling_small_probes,
    ),
    "scaling_large": Suite(
        name="scaling_large",
        description=(
            "the 10^4-10^6-axiom corpus sweep (generate/parse/transform) "
            "plus work-budgeted satisfiability probes and a tbox_heavy "
            "classification probe at 10^4, decided by saturation"
        ),
        build=_scaling_large_probes,
        needs_scale=True,
    ),
}


def get_suite(name: str) -> Suite:
    """The named suite, raising ``KeyError`` with the catalogue on miss."""
    try:
        return ALL_SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(ALL_SUITES))}"
        ) from None
