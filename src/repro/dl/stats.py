"""Reasoner statistics: call counters shared by tableau, cache, and services.

Wall-clock timings (``harness.timing``) vary with the machine; these
counters do not.  They let benchmarks and tests assert *how much work* a
reasoning service performed — tableau runs issued, branches explored,
query-cache hits — so an optimisation like model-driven classification can be
pinned down as "strictly fewer tableau calls than the pairwise sweep"
rather than "felt faster today".

One :class:`ReasonerStats` instance is threaded through a
:class:`~repro.dl.reasoner.Reasoner` (and, for the four-valued layer,
through :class:`~repro.four_dl.reasoner4.Reasoner4` into the classical
reasoner it reduces to), accumulating monotonically.  ``snapshot()`` and
subtraction give per-operation deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class ReasonerStats:
    """Monotone counters of reasoning work.

    * ``tableau_runs`` — completed :meth:`Tableau.is_satisfiable` calls;
    * ``branches_explored`` — completion-graph branches searched across
      all runs (each run explores at least one);
    * ``cache_hits`` / ``cache_misses`` — query-cache outcomes;
    * ``cache_evictions`` — entries dropped by the query cache's LRU bound;
    * ``cache_conflicts`` — attempted stores that *disagreed* with a live
      cached verdict (a dual-engine soundness tripwire; the store raises
      :class:`~repro.dl.errors.CacheConflictError` after counting);
    * ``saturation_queries`` — satisfiability probes answered by the
      polynomial saturation fast path (no tableau run);
    * ``saturation_fallbacks`` — probes the saturation engine declined
      (outside the fragment, or SAT without a padded-model witness) and
      handed to the kept models and the tableau;
    * ``model_witnesses`` — satisfiability probes answered SAT by a kept
      verified model (no tableau run);
    * ``models_extracted`` — verified models read off SAT tableau runs
      and kept;
    * ``models_survived`` — kept models that outlived a KB mutation (a
      removal keeps every model, an addition those that satisfy it);
    * ``subsumption_tests`` — subsumption questions asked (cache hits
      included; compare with ``tableau_runs`` to see sharing);
    * ``trail_length`` — undo entries recorded by trail-based search
      (the in-place mutations that replace whole-graph copies);
    * ``backjumps`` — clashes whose dependency set let the search jump
      over at least one pending branch point;
    * ``branch_points_skipped`` — branch points discarded unexplored by
      those jumps (each had untried alternatives pruned);
    * ``blocking_checks`` — node blocking signatures (re)computed; with
      incremental maintenance this stays far below nodes x iterations;
    * ``explanations_computed`` — ``explain(...)`` calls that produced an
      :class:`~repro.explain.model.Explanation`;
    * ``shrink_probes`` — entailment re-checks issued by deletion-based
      justification shrinking (each runs on a candidate sub-KB with the
      query cache bypassed);
    * ``trace_events`` — structured trace events recorded while a
      :class:`~repro.explain.model.Trace` was attached to a tableau run;
    * ``fine_invalidations`` — cache entries dropped by fine-grained
      (dependency-indexed) invalidation after a KB mutation;
    * ``cache_entries_survived`` — cache entries that outlived a KB
      mutation because monotonicity or their recorded dependency set
      proved them unaffected;
    * ``resaturation_cone_size`` — saturation inferences re-derived
      incrementally from the dirty frontier after KB additions (the
      affected cone, not a full re-saturation);
    * ``deadline_checks`` — amortised wall-clock reads performed by
      :class:`~repro.dl.budget.BudgetMeter` ticks (far below tick count);
    * ``budget_aborts`` — searches stopped by an exhausted
      :class:`~repro.dl.budget.Budget` (deadline, caps, or cancellation);
    * ``unknown_verdicts`` — structured UNKNOWN answers returned by the
      degrading service APIs instead of raising;
    * ``escalations`` — budget enlargements performed by
      :func:`~repro.dl.budget.retry_with_escalation` retries.
    """

    tableau_runs: int = 0
    branches_explored: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_conflicts: int = 0
    saturation_queries: int = 0
    saturation_fallbacks: int = 0
    model_witnesses: int = 0
    models_extracted: int = 0
    models_survived: int = 0
    subsumption_tests: int = 0
    trail_length: int = 0
    backjumps: int = 0
    branch_points_skipped: int = 0
    blocking_checks: int = 0
    explanations_computed: int = 0
    shrink_probes: int = 0
    trace_events: int = 0
    fine_invalidations: int = 0
    cache_entries_survived: int = 0
    resaturation_cone_size: int = 0
    deadline_checks: int = 0
    budget_aborts: int = 0
    unknown_verdicts: int = 0
    escalations: int = 0

    def snapshot(self) -> "ReasonerStats":
        """An independent copy of the current counter values."""
        return ReasonerStats(**self.as_dict())

    def reset(self) -> None:
        """Zero every counter in place."""
        for item in fields(self):
            setattr(self, item.name, 0)

    def as_dict(self) -> Dict[str, int]:
        """The counters as an ordered name -> value mapping."""
        return {item.name: getattr(self, item.name) for item in fields(self)}

    def __sub__(self, earlier: "ReasonerStats") -> "ReasonerStats":
        """The per-counter difference (``later - snapshot`` = work since)."""
        return ReasonerStats(
            **{
                name: value - getattr(earlier, name)
                for name, value in self.as_dict().items()
            }
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups answered from the cache (0.0 if none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def render(self, verbose: bool = False) -> str:
        """A single-line human-readable summary.

        Every counter is accounted for: it is either printed in its
        group or its group is *named* in a trailing ``zero: ...`` note,
        so a reader can tell "not shown" apart from "not measured".
        ``verbose=True`` prints every group unconditionally (the full
        dump), eliding nothing.

        >>> ReasonerStats(deadline_checks=2).render().split(" | ")[-2]
        'budget: 0 aborts / 0 unknown (escalations: 0, deadline checks: 2)'
        >>> "zero:" in ReasonerStats().render(verbose=True)
        False
        """
        line = (
            f"tableau runs: {self.tableau_runs}"
            f" | branches: {self.branches_explored}"
            f" | cache: {self.cache_hits} hits"
            f" / {self.cache_misses} misses"
            f" ({self.cache_hit_rate:.0%})"
            f" | subsumption tests: {self.subsumption_tests}"
        )
        groups = (
            (
                "saturation",
                self.saturation_queries or self.saturation_fallbacks,
                f"saturation: {self.saturation_queries} answered"
                f" / {self.saturation_fallbacks} fallbacks",
            ),
            (
                "models",
                self.model_witnesses
                or self.models_extracted
                or self.models_survived,
                f"models: {self.model_witnesses} witnesses"
                f" / {self.models_extracted} extracted"
                f" ({self.models_survived} survived edits)",
            ),
            (
                "trail",
                self.trail_length
                or self.backjumps
                or self.branch_points_skipped
                or self.blocking_checks,
                f"trail: {self.trail_length}"
                f" | backjumps: {self.backjumps}"
                f" (skipped {self.branch_points_skipped})"
                f" | blocking checks: {self.blocking_checks}",
            ),
            (
                "evictions",
                self.cache_evictions or self.cache_conflicts,
                f"evictions: {self.cache_evictions}"
                f" (conflicts: {self.cache_conflicts})",
            ),
            (
                "explanations",
                self.explanations_computed or self.shrink_probes,
                f"explanations: {self.explanations_computed}"
                f" (shrink probes: {self.shrink_probes})",
            ),
            (
                "trace events",
                self.trace_events,
                f"trace events: {self.trace_events}",
            ),
            (
                "incremental",
                self.fine_invalidations
                or self.cache_entries_survived
                or self.resaturation_cone_size,
                f"incremental: {self.fine_invalidations} invalidated"
                f" / {self.cache_entries_survived} survived"
                f" (resaturation cone: {self.resaturation_cone_size})",
            ),
            (
                "budget",
                self.budget_aborts
                or self.unknown_verdicts
                or self.escalations
                or self.deadline_checks,
                f"budget: {self.budget_aborts} aborts"
                f" / {self.unknown_verdicts} unknown"
                f" (escalations: {self.escalations},"
                f" deadline checks: {self.deadline_checks})",
            ),
        )
        elided = []
        for label, nonzero, rendered in groups:
            if verbose or nonzero:
                line += f" | {rendered}"
            else:
                elided.append(label)
        if elided:
            line += f" | zero: {', '.join(elided)}"
        return line
