"""High-level classical reasoning services over the tableau.

Implements the standard reduction of reasoning tasks to KB satisfiability
(the paper cites Horrocks & Patel-Schneider for the same reduction from
OWL DL entailment):

* consistency — direct tableau run;
* concept satisfiability — fresh probe individual;
* subsumption ``C [= D`` — unsatisfiability of ``C and not D``;
* instance checking ``a : C`` — unsatisfiability of ``KB + {a : not C}``;
* role-assertion entailment — via nominals: ``R(a, b)`` is entailed iff
  ``KB + {a : all R.not {b}}`` is unsatisfiable;
* classification — told-subsumer seeding plus enhanced top-down /
  bottom-up traversal insertion into a growing taxonomy DAG.

Every service funnels through one cached satisfiability entry point
(:meth:`Reasoner._satisfiable_with`): probes are canonicalised to NNF and
looked up in a :class:`~repro.dl.cache.QueryCache` before the tableau
runs.  The cache is invalidated — and the tableau rebuilt — whenever the
KB's ``version`` counter moves, so mutating the KB after queries never
serves stale answers.  :class:`~repro.dl.stats.ReasonerStats` counters
record how much work each service actually did.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .axioms import (
    ABoxAxiom,
    Axiom,
    ConceptAssertion,
    ConceptEquivalence,
    ConceptInclusion,
    DataAssertion,
    DifferentIndividuals,
    NegativeRoleAssertion,
    RoleAssertion,
    RoleInclusion,
    SameIndividual,
)
from .budget import Budget, BudgetMeter, Verdict, retry_with_escalation
from .cache import CONSISTENCY_KEY, QueryCache, probe_set_key
from .saturation import SaturationEngine
from .errors import (
    BudgetExceeded,
    DegradationReason,
    ParseError,
    UnsupportedAxiomError,
    UnsupportedFeature,
)
from .concepts import (
    And,
    AtomicConcept,
    Concept,
    Exists,
    Forall,
    Not,
    OneOf,
    nominals,
)
from .incremental import affected_atoms, axiom_signature
from .individuals import Individual
from .kb import KnowledgeBase
from .stats import ReasonerStats
from .tableau import DEFAULT_MAX_BRANCHES, DEFAULT_MAX_NODES, Tableau
from ..obs.spans import add_event, set_gauge, span as obs_span

#: The fresh individual used for concept-satisfiability probes.  Fixing
#: the name keeps the cache key of ``is_satisfiable(C)`` canonical.
_PROBE = Individual("__probe__")


class Reasoner:
    """Classical SHOIN(D) reasoner for a fixed knowledge base.

    All services are answered by refutation through one shared
    :class:`~repro.dl.tableau.Tableau` instance.  Verdicts are memoised in
    a :class:`~repro.dl.cache.QueryCache` keyed on NNF-canonical probe
    sets; the cache may be passed in to share answers between reasoner
    views of the *same* KB (never of different KBs — invalidation is
    per-KB-version).  ``use_cache=False`` disables memoisation entirely,
    for differential tests and ablation benchmarks.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_branches: int = DEFAULT_MAX_BRANCHES,
        cache: Optional[QueryCache] = None,
        use_cache: bool = True,
        stats: Optional[ReasonerStats] = None,
        cache_maxsize: Optional[int] = 4096,
        budget: Optional[Budget] = None,
        engine: str = "auto",
    ):
        """Bind a reasoner to ``kb``.

        ``max_nodes`` / ``max_branches`` bound the tableau search
        (:class:`~repro.dl.errors.ReasonerLimitExceeded` on overrun);
        ``cache`` shares an existing :class:`~repro.dl.cache.QueryCache`
        across reasoners, while ``use_cache=False`` / ``cache_maxsize``
        configure a private one; ``stats`` shares a
        :class:`~repro.dl.stats.ReasonerStats`; ``budget`` attaches a
        default :class:`~repro.dl.budget.Budget` governing every service
        call (per-call ``budget=`` arguments override it); ``engine``
        selects dispatch: ``"auto"`` tries the saturation fast path
        before the tableau, ``"tableau"`` disables it.
        """
        if engine not in ("auto", "tableau"):
            raise ValueError(f"unknown engine {engine!r}")
        self.kb = kb
        #: Dispatch policy: ``"auto"`` (saturation fast path in front of
        #: the tableau) or ``"tableau"`` (tableau only).
        self.engine = engine
        self.max_nodes = max_nodes
        self.max_branches = max_branches
        #: The default resource envelope of every service call (None =
        #: only the tableau's own node/branch caps apply).
        self.budget = budget
        self.stats = stats if stats is not None else ReasonerStats()
        self.cache = (
            cache
            if cache is not None
            else QueryCache(enabled=use_cache, maxsize=cache_maxsize)
        )
        if self.cache.stats is None:
            self.cache.stats = self.stats
        self._tableau = self._build_tableau()
        # Built lazily on the first query (saturating a KB nobody
        # queries would be wasted work); dropped on KB mutation.
        self._saturation: Optional[SaturationEngine] = None
        self._kb_version = kb.version
        # Classification memo: (atoms-key, hierarchy, kb-consistent) of
        # the last classify() call, plus the dirty state accumulated by
        # fine-grained _sync since it was stored (signature vertices of
        # every delta axiom, and the removed/added axiom sets needed to
        # reconstruct the old KB for the safety side-conditions).
        self._classify_memo: Optional[
            Tuple[FrozenSet[AtomicConcept], Dict, bool]
        ] = None
        self._classify_dirty: Set[Tuple[str, str]] = set()
        self._classify_removed: Set[Axiom] = set()
        self._classify_added: Set[Axiom] = set()
        # The meter of the currently executing budgeted service call, if
        # any (installed by _metered; spans every probe of the call).
        self._active_meter: Optional[BudgetMeter] = None

    def _build_tableau(self) -> Tableau:
        return Tableau(
            self.kb,
            max_nodes=self.max_nodes,
            max_branches=self.max_branches,
            stats=self.stats,
        )

    def _sync(self) -> None:
        """Absorb KB mutations before answering from tableau or cache.

        The tableau preprocesses the KB once (absorption, role-hierarchy
        closure), so it is as stale as the cache after an ``add()``.
        When the KB's change log can name the net ``(added, removed)``
        delta, invalidation is fine-grained: only cache entries the
        delta can affect are dropped
        (:meth:`QueryCache.invalidate_delta`), the saturation engine
        re-saturates just the affected cone, and classification
        dirtiness is tracked per signature vertex.  Once the edits fall
        outside the change log's window, everything derived from the KB
        is rebuilt wholesale.
        """
        if self._kb_version == self.kb.version:
            return
        delta = self.kb.delta_since(self._kb_version)
        if delta is None:
            self._tableau = self._build_tableau()
            self._saturation = None
            self.cache.clear()
            self._classify_memo = None
            self._classify_dirty.clear()
            self._classify_removed.clear()
            self._classify_added.clear()
            self._kb_version = self.kb.version
            return
        added, removed = delta
        if not added and not removed:
            # The edit netted out (remove-then-re-add): the axiom
            # multiset is unchanged, so every derived structure is
            # still exact.
            self._kb_version = self.kb.version
            return
        with obs_span("incremental_update", stats=self.stats) as span:
            invalidated, survived = self.cache.invalidate_delta(
                added, removed
            )
            self.stats.fine_invalidations += invalidated
            self.stats.cache_entries_survived += survived
            span.set("invalidated", invalidated)
            span.set("survived", survived)
            # The tableau's preprocessed view is rebuilt (it is cheap
            # relative to search); the cache survivors are what make
            # the rebuild pay off.
            self._tableau = self._build_tableau()
            if self._saturation is not None:
                cone = self._saturation.update(added, removed)
                if cone is None:
                    self._saturation = None
                    span.set("resaturation", "full")
                else:
                    self.stats.resaturation_cone_size += cone
                    span.set("resaturation", cone)
            for axiom in added | removed:
                self._classify_dirty |= axiom_signature(axiom)
            self._classify_removed |= removed
            self._classify_added |= added
        self._kb_version = self.kb.version

    def _satisfiable_with(self, probes: Sequence) -> bool:
        """The single cached satisfiability entry point of every service.

        Under ``engine="auto"`` the saturation fast path
        (:mod:`repro.dl.saturation`) is consulted first; it answers
        polynomially for the tractable fragment and returns ``None`` for
        anything it cannot soundly decide, in which case the tableau
        runs.  Both engines write the same cache — a disagreement
        surfaces as a :class:`~repro.dl.errors.CacheConflictError`.

        Cache-soundness invariant: a verdict is stored only *after* an
        engine decided it.  An aborted search (budget exhaustion,
        cancellation, or any other exception) propagates past the
        ``store`` call, so a partial search can never poison the cache —
        post-abort lookups either hit an earlier *decided* entry or
        re-run the tableau from scratch.
        """
        self._sync()
        with obs_span("cache_probe") as probe_span:
            key = probe_set_key(probes) if probes else CONSISTENCY_KEY
            cached = self.cache.lookup(key)
            probe_span.set("hit", cached is not None)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        meter = self._active_meter
        if meter is None and self.budget is not None:
            # Boolean APIs under a constructor-level budget: each probe
            # gets its own metered scope (and raises on exhaustion).
            meter = self.budget.start(self.stats)
        saturation = self._saturation_engine()
        if saturation is not None:
            with obs_span("saturation_run", stats=self.stats) as sat_span:
                sat_span.set("complete", saturation.complete)
                try:
                    answer = saturation.satisfiable_with(probes, meter=meter)
                except BudgetExceeded:
                    self.stats.budget_aborts += 1
                    raise
                sat_span.set("answered", answer is not None)
                sat_span.set("inferences", saturation.inferences)
            if answer is not None:
                self.stats.saturation_queries += 1
                self.cache.store(key, answer)
                set_gauge("repro_query_cache_entries", len(self.cache))
                return answer
            self.stats.saturation_fallbacks += 1
        try:
            result = self._tableau.is_satisfiable(probes, meter=meter)
        except BudgetExceeded:
            self.stats.budget_aborts += 1
            raise
        # The unsat core (a superset of at least one justification) lets
        # fine-grained invalidation keep a refutation across removals
        # that cannot touch its support.
        deps = None if result else self._tableau.last_unsat_core
        self.cache.store(key, result, deps=deps)
        set_gauge("repro_query_cache_entries", len(self.cache))
        return result

    def _saturation_engine(self) -> Optional[SaturationEngine]:
        """The saturation fast path, when dispatch allows and it can help.

        ``None`` under ``engine="tableau"`` or when no axiom of the KB
        compiled into the fragment (a fully-residual KB could only ever
        answer degenerate probes, so dispatching there is pure
        overhead).
        """
        if self.engine != "auto":
            return None
        if self._saturation is None:
            self._saturation = SaturationEngine(self.kb)
        return self._saturation if self._saturation.useful else None

    @contextmanager
    def _metered(self, meter: Optional[BudgetMeter]):
        """Install ``meter`` as the scope of every nested tableau probe."""
        previous = self._active_meter
        self._active_meter = meter
        try:
            yield
        finally:
            self._active_meter = previous

    def _start_meter(self, budget: Optional[Budget]) -> Optional[BudgetMeter]:
        """Begin a metered scope from ``budget`` or the default budget."""
        chosen = budget if budget is not None else self.budget
        return None if chosen is None else chosen.start(self.stats)

    def _run_bounded(self, thunk, budget: Optional[Budget]) -> Verdict:
        """Run a boolean service degradingly: decided answer or UNKNOWN.

        Budget exhaustion (and, defensively, any unexpected mid-search
        error) becomes a structured UNKNOWN verdict; usage errors
        (unsupported axioms, parse errors) still propagate — they are
        the caller's bug, not a resource condition.  UNKNOWN is sound:
        the thunk either returned the unbudgeted answer or nothing.
        """
        meter = self._start_meter(budget)
        try:
            with self._metered(meter):
                return Verdict.of(thunk())
        except BudgetExceeded as exc:
            self.stats.unknown_verdicts += 1
            add_event("unknown_verdict", {"reason": exc.reason.value})
            return Verdict.unknown(exc.reason, str(exc))
        except (ParseError, UnsupportedFeature):
            raise
        except Exception as exc:  # contain faults, degrade to UNKNOWN
            self.stats.unknown_verdicts += 1
            add_event(
                "unknown_verdict",
                {"reason": DegradationReason.ERROR.value},
            )
            return Verdict.unknown(
                DegradationReason.ERROR, f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # Core services
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """Whether the KB has a classical model."""
        return self._satisfiable_with(())

    def is_satisfiable(self, concept: Concept) -> bool:
        """Whether ``concept`` has an instance in some model of the KB."""
        return self._satisfiable_with((ConceptAssertion(_PROBE, concept),))

    def model(self):
        """A verified finite model of the KB, or ``None``.

        ``None`` means either the KB is inconsistent or its canonical
        model is not finitely representable from the completion graph
        (see :meth:`~repro.dl.tableau.Tableau.extract_model`).

        Model extraction needs the completion graph, which the query
        cache never stores, so this always re-runs the tableau.
        """
        if not self.is_consistent():
            return None
        # Re-run without probe assertions so the graph matches the KB.
        self._tableau.is_satisfiable()
        return self._tableau.extract_model()

    def subsumes(self, sup: Concept, sub: Concept) -> bool:
        """Whether ``sub [= sup`` holds in every model of the KB."""
        self.stats.subsumption_tests += 1
        return not self.is_satisfiable(And.of(sub, Not(sup)))

    def is_instance(self, individual: Individual, concept: Concept) -> bool:
        """Whether ``a : C`` holds in every model of the KB."""
        probe = ConceptAssertion(individual, Not(concept))
        return not self._satisfiable_with((probe,))

    def entails(self, axiom: Axiom) -> bool:
        """Whether the KB entails the given axiom."""
        if isinstance(axiom, ConceptInclusion):
            return self.subsumes(axiom.sup, axiom.sub)
        if isinstance(axiom, ConceptAssertion):
            return self.is_instance(axiom.individual, axiom.concept)
        if isinstance(axiom, RoleAssertion):
            # R(a, b) is entailed iff adding "a sees no b through R" clashes.
            probe = ConceptAssertion(
                axiom.source,
                Forall(axiom.role, Not(OneOf(frozenset({axiom.target})))),
            )
            return not self._satisfiable_with((probe,))
        if isinstance(axiom, NegativeRoleAssertion):
            # not R(a, b) is entailed iff asserting R(a, b) is impossible.
            probe = RoleAssertion(axiom.role, axiom.source, axiom.target)
            return not self._satisfiable_with((probe,))
        if isinstance(axiom, SameIndividual):
            pair = OneOf(frozenset({axiom.right}))
            return self.is_instance(axiom.left, pair)
        if isinstance(axiom, ConceptEquivalence):
            return self.entails(
                ConceptInclusion(axiom.left, axiom.right)
            ) and self.entails(ConceptInclusion(axiom.right, axiom.left))
        if isinstance(axiom, DifferentIndividuals):
            # a != b is entailed iff identifying them is impossible.
            probe = SameIndividual(axiom.left, axiom.right)
            return not self._satisfiable_with((probe,))
        if isinstance(axiom, DataAssertion):
            # U(a, v) is entailed iff "all of a's U-values differ from v"
            # is impossible.
            from .datatypes import DataOneOf
            from .concepts import DataForall

            excluded = DataOneOf(frozenset({axiom.value})).negate()
            probe = ConceptAssertion(axiom.source, DataForall(axiom.role, excluded))
            return not self._satisfiable_with((probe,))
        if isinstance(axiom, RoleInclusion):
            # R [= S is entailed iff two fresh individuals connected by R
            # but provably not by S are impossible.
            source = Individual("__sub_probe_a__")
            target = Individual("__sub_probe_b__")
            nominal = OneOf(frozenset({target}))
            probes = (
                ConceptAssertion(source, Exists(axiom.sub, nominal)),
                ConceptAssertion(source, Forall(axiom.sup, Not(nominal))),
            )
            return not self._satisfiable_with(probes)
        raise UnsupportedAxiomError(axiom)

    # ------------------------------------------------------------------
    # Degrading (budgeted) services
    # ------------------------------------------------------------------
    def consistency_verdict(self, budget: Optional[Budget] = None) -> Verdict:
        """Three-way consistency: TRUE, FALSE, or UNKNOWN on exhaustion.

        The degrading counterpart of :meth:`is_consistent`: instead of
        raising :class:`~repro.dl.errors.BudgetExceeded` when the
        ``budget`` (or the constructor-level default budget) runs out,
        the exhaustion is returned as a structured
        :class:`~repro.dl.budget.Verdict` carrying the
        :class:`~repro.dl.errors.DegradationReason`.
        """
        return self._run_bounded(self.is_consistent, budget)

    def satisfiable_verdict(
        self, concept: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """Three-way concept satisfiability (degrading :meth:`is_satisfiable`)."""
        return self._run_bounded(lambda: self.is_satisfiable(concept), budget)

    def instance_verdict(
        self,
        individual: Individual,
        concept: Concept,
        budget: Optional[Budget] = None,
    ) -> Verdict:
        """Three-way instance checking (degrading :meth:`is_instance`)."""
        return self._run_bounded(
            lambda: self.is_instance(individual, concept), budget
        )

    def subsumption_verdict(
        self, sup: Concept, sub: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """Three-way subsumption (degrading :meth:`subsumes`)."""
        return self._run_bounded(lambda: self.subsumes(sup, sub), budget)

    def entails_verdict(
        self, axiom: Axiom, budget: Optional[Budget] = None
    ) -> Verdict:
        """Three-way entailment (degrading :meth:`entails`).

        The whole dispatch of :meth:`entails` — including multi-probe
        axioms like equivalences — runs under one metered scope, so the
        deadline and the cumulative branch/trail caps govern the entire
        question, not each probe separately.  Unsupported axiom kinds
        still raise :class:`~repro.dl.errors.UnsupportedAxiomError`.
        """
        return self._run_bounded(lambda: self.entails(axiom), budget)

    def entails_with_escalation(
        self,
        axiom: Axiom,
        budget: Budget,
        factor: float = 4.0,
        attempts: int = 3,
        ceiling: Optional[Budget] = None,
    ) -> Verdict:
        """Entailment under :func:`~repro.dl.budget.retry_with_escalation`.

        Starts from ``budget`` and geometrically enlarges it (by
        ``factor``, up to ``attempts`` probes, clamped to ``ceiling``)
        while the answer stays UNKNOWN.
        """
        return retry_with_escalation(
            lambda b: self.entails_verdict(axiom, budget=b),
            budget,
            factor=factor,
            attempts=attempts,
            ceiling=ceiling,
            stats=self.stats,
        )

    def classify_bounded(
        self,
        atoms: Optional[Iterable[AtomicConcept]] = None,
        budget: Optional[Budget] = None,
    ) -> "PartialClassification":
        """Classification that degrades to a *partial* hierarchy.

        Probes atomic subsumption pairwise (memoised by the query cache)
        under one metered scope.  When the budget runs out the decided
        rows are returned as-is together with the list of undecided
        ``(sub, sup)`` pairs and the :class:`~repro.dl.errors.DegradationReason`
        — never a wrong or partially-filled row.  With no exhaustion the
        result equals :meth:`classify` exactly.
        """
        if atoms is None:
            atoms = self.kb.concepts_in_signature()
        ordered = sorted(set(atoms), key=lambda a: a.name)
        if not ordered:
            return PartialClassification(
                hierarchy={}, undecided=(), reason=None
            )
        universe = frozenset(ordered)
        meter = self._start_meter(budget)
        reason: Optional[DegradationReason] = None
        message = ""
        hierarchy: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        undecided: List[Tuple[AtomicConcept, AtomicConcept]] = []
        with self._metered(meter):
            try:
                consistent = self.is_consistent()
            except BudgetExceeded as exc:
                return PartialClassification(
                    hierarchy={},
                    undecided=tuple(
                        (sub, sup) for sub in ordered for sup in ordered
                    ),
                    reason=exc.reason,
                    message=str(exc),
                )
            if not consistent:
                # Everything subsumes everything in an inconsistent KB.
                return PartialClassification(
                    hierarchy={atom: universe for atom in ordered},
                    undecided=(),
                    reason=None,
                )
            for row, sub in enumerate(ordered):
                if reason is not None:
                    undecided.extend((sub, sup) for sup in ordered)
                    continue
                subsumers: Set[AtomicConcept] = set()
                for col, sup in enumerate(ordered):
                    try:
                        if self.subsumes(sup, sub):
                            subsumers.add(sup)
                    except BudgetExceeded as exc:
                        # Skip-and-record: the rest of this row and all
                        # later rows become undecided pairs.
                        reason = exc.reason
                        message = str(exc)
                        undecided.extend(
                            (sub, later) for later in ordered[col:]
                        )
                        break
                else:
                    hierarchy[sub] = frozenset(subsumers)
        if reason is not None:
            self.stats.unknown_verdicts += 1
        return PartialClassification(
            hierarchy=hierarchy,
            undecided=tuple(undecided),
            reason=reason,
            message=message,
        )

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def _entailment_probes(self, axiom: Axiom):
        """The refutation probe sets of :meth:`entails`.

        Returns a tuple of probe tuples; the axiom is entailed iff the KB
        is unsatisfiable together with *each* probe set.  Mirrors the
        dispatch of :meth:`entails` exactly (kept separate so the
        explanation path cannot perturb the counters of the query path).
        """
        if isinstance(axiom, ConceptInclusion):
            return (
                (
                    ConceptAssertion(
                        _PROBE, And.of(axiom.sub, Not(axiom.sup))
                    ),
                ),
            )
        if isinstance(axiom, ConceptAssertion):
            return ((ConceptAssertion(axiom.individual, Not(axiom.concept)),),)
        if isinstance(axiom, RoleAssertion):
            probe = ConceptAssertion(
                axiom.source,
                Forall(axiom.role, Not(OneOf(frozenset({axiom.target})))),
            )
            return ((probe,),)
        if isinstance(axiom, NegativeRoleAssertion):
            return ((RoleAssertion(axiom.role, axiom.source, axiom.target),),)
        if isinstance(axiom, SameIndividual):
            pair = OneOf(frozenset({axiom.right}))
            return ((ConceptAssertion(axiom.left, Not(pair)),),)
        if isinstance(axiom, ConceptEquivalence):
            return self._entailment_probes(
                ConceptInclusion(axiom.left, axiom.right)
            ) + self._entailment_probes(
                ConceptInclusion(axiom.right, axiom.left)
            )
        if isinstance(axiom, DifferentIndividuals):
            return ((SameIndividual(axiom.left, axiom.right),),)
        if isinstance(axiom, DataAssertion):
            from .datatypes import DataOneOf
            from .concepts import DataForall

            excluded = DataOneOf(frozenset({axiom.value})).negate()
            probe = ConceptAssertion(
                axiom.source, DataForall(axiom.role, excluded)
            )
            return ((probe,),)
        if isinstance(axiom, RoleInclusion):
            source = Individual("__sub_probe_a__")
            target = Individual("__sub_probe_b__")
            nominal = OneOf(frozenset({target}))
            return (
                (
                    ConceptAssertion(source, Exists(axiom.sub, nominal)),
                    ConceptAssertion(source, Forall(axiom.sup, Not(nominal))),
                ),
            )
        raise UnsupportedAxiomError(axiom, service="explain")

    def _shrink_check(self, axiom: Axiom):
        """The monotone re-check used by justification shrinking.

        Each call builds a fresh sub-KB reasoner with the query cache
        *bypassed*: cached verdicts describe the full KB and must not
        leak into questions about its subsets.
        """

        def check(axioms: Sequence[Axiom]) -> bool:
            self.stats.shrink_probes += 1
            sub = Reasoner(
                KnowledgeBase.of(axioms),
                max_nodes=self.max_nodes,
                max_branches=self.max_branches,
                use_cache=False,
            )
            try:
                return sub.entails(axiom)
            except Exception:
                # A sub-KB that blows a resource limit cannot support
                # the deletion, so the axiom is kept.
                return False

        return check

    def explain(self, axiom: Axiom, trace: bool = False):
        """Why (or that) the KB entails ``axiom``.

        Returns an :class:`repro.explain.model.Explanation`.  When the
        axiom is entailed it carries one subset-minimal
        :class:`~repro.explain.model.Justification` per independent
        evidence direction (equivalences merge both directions into one
        justification, since both must hold together).  The tableau's
        clash provenance seeds the search; deletion-based shrinking with
        the cache bypassed guarantees minimality regardless of the seed.

        With ``trace=True`` the probe runs record structured clash
        traces (see :class:`repro.explain.model.Trace`).
        """
        from ..explain.justify import minimal_justification
        from ..explain.model import Explanation, Trace

        self._sync()
        probe_sets = self._entailment_probes(axiom)
        tableau = self._tableau
        traces = []
        entailed = True
        seed: Set[Axiom] = set()
        seed_known = True
        for probes in probe_sets:
            recorder = Trace() if trace else None
            satisfiable = tableau.is_satisfiable(probes, trace=recorder)
            if recorder is not None:
                traces.append(recorder)
            if satisfiable:
                entailed = False
                break
            core = tableau.last_unsat_core
            if core is None:
                seed_known = False
            else:
                seed |= core
        if not entailed:
            return Explanation(
                query=axiom, entailed=False, traces=tuple(traces)
            )
        check = self._shrink_check(axiom)
        justification = minimal_justification(
            list(self.kb.axioms()),
            check,
            seed=frozenset(seed) if seed_known else None,
        )
        self.stats.explanations_computed += 1
        return Explanation(
            query=axiom,
            entailed=True,
            justifications=(justification,),
            traces=tuple(traces),
        )

    def explain_inconsistency(self, trace: bool = False):
        """A minimal unsatisfiable axiom subset, when the KB has one.

        Returns an :class:`repro.explain.model.InconsistencyExplanation`;
        its justification is a MUPS (minimal classically-unsatisfiable
        sub-KB) found by the same provenance-seeded deletion shrinking.
        """
        from ..explain.justify import minimal_justification
        from ..explain.model import InconsistencyExplanation, Trace

        self._sync()
        tableau = self._tableau
        recorder = Trace() if trace else None
        if tableau.is_satisfiable(trace=recorder):
            return InconsistencyExplanation(
                consistent=True,
                traces=(recorder,) if recorder is not None else (),
            )

        def check(axioms: Sequence[Axiom]) -> bool:
            self.stats.shrink_probes += 1
            sub = Reasoner(
                KnowledgeBase.of(axioms),
                max_nodes=self.max_nodes,
                max_branches=self.max_branches,
                use_cache=False,
            )
            try:
                return not sub.is_consistent()
            except Exception:
                return False

        justification = minimal_justification(
            list(self.kb.axioms()), check, seed=tableau.last_unsat_core
        )
        self.stats.explanations_computed += 1
        return InconsistencyExplanation(
            consistent=False,
            justification=justification,
            traces=(recorder,) if recorder is not None else (),
        )

    def entails_all(self, axioms: Iterable[Axiom]) -> bool:
        """Whether the KB entails every axiom (OWL DL ontology entailment).

        The batch is deduplicated and sorted into a canonical order so
        repeated probes hit the cache and related probes run adjacently;
        order cannot change the verdict (every check is independent).
        """
        unique = sorted(set(axioms), key=repr)
        return all(self.entails(axiom) for axiom in unique)

    def entailments(self, axioms: Iterable[Axiom]) -> Dict[Axiom, bool]:
        """The per-axiom verdicts of a batch, evaluated in cache-friendly
        (deduplicated, canonically sorted) order."""
        unique = sorted(set(axioms), key=repr)
        return {axiom: self.entails(axiom) for axiom in unique}

    # ------------------------------------------------------------------
    # Derived services
    # ------------------------------------------------------------------
    def equivalent(self, left: Concept, right: Concept) -> bool:
        """Whether two concepts are equivalent under the KB."""
        return self.subsumes(left, right) and self.subsumes(right, left)

    def instances_of(self, concept: Concept) -> FrozenSet[Individual]:
        """All named individuals provably in ``concept``."""
        return frozenset(
            individual
            for individual in self.kb.individuals_in_signature()
            if self.is_instance(individual, concept)
        )

    def types_of(self, individual: Individual) -> FrozenSet[AtomicConcept]:
        """All atomic concepts the individual provably belongs to."""
        return frozenset(
            concept
            for concept in self.kb.concepts_in_signature()
            if self.is_instance(individual, concept)
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(
        self, atoms: Optional[Iterable[AtomicConcept]] = None
    ) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """The full atomic subsumption hierarchy.

        Maps each atomic concept to the set of its (not necessarily
        strict) atomic subsumers.  Instead of the naive pairwise sweep
        (kept as :meth:`classify_pairwise`, the reference oracle), each
        concept is inserted into a growing taxonomy DAG:

        * **told subsumers** — inclusions ``A [= B1 and ... and Bk`` with
          atomic left side yield asserted subsumers, closed transitively;
          they answer traversal questions without the tableau and fix a
          parents-before-children insertion order;
        * **enhanced top search** — a node is tested only when *all* its
          parents subsume the new concept (if any parent fails, no
          descendant can subsume, by transitivity);
        * **enhanced bottom search** — dually, a node is tested only when
          all its children are subsumed by the new concept.

        The result is identical to the pairwise sweep; the number of
        tableau runs (see :attr:`stats`) is far below ``n**2`` on any
        hierarchy that is not a flat clique.

        Repeated calls are memoised per atom set.  After KB mutations
        absorbed by fine-grained :meth:`_sync`, the memoised taxonomy is
        reused where the soundness side-conditions of
        ``docs/THEORY.md`` section 12 allow: wholesale for a pure-ABox
        delta on nominal-free consistent KBs, and row-by-row (only
        signature-connected atoms re-probed) when every axiom is
        component-safe.
        """
        self._sync()
        if atoms is None:
            atoms = self.kb.concepts_in_signature()
        ordered = sorted(set(atoms), key=lambda a: a.name)
        universe = frozenset(ordered)
        if not ordered:
            return {}
        with obs_span("classify", stats=self.stats) as span:
            span.set("atoms", len(ordered))
            if not self.is_consistent():
                # Everything subsumes everything in an inconsistent KB.
                hierarchy = {atom: universe for atom in ordered}
                self._store_classification(universe, hierarchy, False)
                return hierarchy
            reused = self._reuse_classification(ordered, universe, span)
            if reused is not None:
                self._store_classification(universe, reused, True)
                return dict(reused)
            hierarchy = self._classify_full(ordered, universe)
            self._store_classification(universe, hierarchy, True)
            return hierarchy

    def _classify_full(
        self,
        ordered: Sequence[AtomicConcept],
        universe: FrozenSet[AtomicConcept],
    ) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """The traversal-insertion classification of a consistent KB."""
        told = self._told_subsumers(universe)
        taxonomy = _Taxonomy()
        unsatisfiable: List[AtomicConcept] = []
        for concept in _told_order(ordered, told):
            if not self.is_satisfiable(concept):
                # Bottom-equivalent: subsumed by every atom, subsumes
                # only other unsatisfiable atoms.
                unsatisfiable.append(concept)
                continue
            self._insert(taxonomy, concept, told)
        hierarchy = taxonomy.hierarchy()
        for atom in unsatisfiable:
            hierarchy[atom] = universe
        return hierarchy

    def _store_classification(
        self,
        key: FrozenSet[AtomicConcept],
        hierarchy: Dict[AtomicConcept, FrozenSet[AtomicConcept]],
        consistent: bool,
    ) -> None:
        """Memoise a just-computed taxonomy and reset dirty tracking.

        Sound because the hierarchy reflects the KB *now* (after
        :meth:`_sync`): any later mutation re-populates the dirty sets
        before the memo can be consulted again.
        """
        self._classify_memo = (key, dict(hierarchy), consistent)
        self._classify_dirty.clear()
        self._classify_removed.clear()
        self._classify_added.clear()

    def _reuse_classification(
        self,
        ordered: Sequence[AtomicConcept],
        universe: FrozenSet[AtomicConcept],
        span,
    ) -> Optional[Dict[AtomicConcept, FrozenSet[AtomicConcept]]]:
        """The memoised taxonomy, updated incrementally — or ``None``.

        ``None`` means no sound reuse applies and the caller must
        reclassify from scratch.  Three reuse tiers (the KB is already
        known consistent here; the memo records whether the *old* KB
        was):

        1. no mutations since the memo — verbatim hit;
        2. pure-ABox delta on nominal-free KBs — subsumption depends
           only on the TBox (disjoint-union argument), so the taxonomy
           is unchanged;
        3. every axiom of old and new KB component-safe — only atoms
           signature-connected to the delta can change rows; merged
           rows re-probe exactly those (cache-assisted).
        """
        memo = self._classify_memo
        if memo is None:
            return None
        key, old_hierarchy, was_consistent = memo
        if key != universe:
            return None
        dirty = (
            self._classify_dirty
            or self._classify_removed
            or self._classify_added
        )
        if not dirty:
            return old_hierarchy
        if not was_consistent:
            return None
        delta_axioms = self._classify_added | self._classify_removed
        old_and_new = list(self.kb.axioms()) + list(self._classify_removed)
        if all(
            isinstance(axiom, ABoxAxiom) for axiom in delta_axioms
        ) and not _kb_has_nominals(old_and_new):
            span.set("taxonomy_reuse", "abox")
            return old_hierarchy
        affected = affected_atoms(old_and_new, self._classify_dirty)
        if affected is None:
            return None
        span.set("taxonomy_reuse", "component")
        span.set("affected_atoms", len(affected))
        merged: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        touched = affected & universe
        for concept in ordered:
            if concept in touched:
                merged[concept] = frozenset(
                    sup for sup in ordered if self.subsumes(sup, concept)
                )
            else:
                # An unaffected atom keeps its old verdicts against
                # every other unaffected atom; only pairs involving an
                # affected atom are re-asked.  (For an unsatisfiable
                # atom the re-probes all answer True, so the row stays
                # the full universe.)
                kept = frozenset(
                    sup
                    for sup in old_hierarchy[concept]
                    if sup not in touched
                )
                merged[concept] = kept | frozenset(
                    sup
                    for sup in touched
                    if self.subsumes(sup, concept)
                )
        return merged

    def classify_pairwise(
        self, atoms: Optional[Iterable[AtomicConcept]] = None
    ) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """The O(n^2) pairwise reference classification.

        Same result as :meth:`classify`; kept for differential testing
        and as the benchmark baseline for the traversal classifier.
        """
        if atoms is None:
            atoms = self.kb.concepts_in_signature()
        ordered = sorted(set(atoms), key=lambda a: a.name)
        hierarchy: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        for sub in ordered:
            hierarchy[sub] = frozenset(
                sup for sup in ordered if self.subsumes(sup, sub)
            )
        return hierarchy

    def _told_subsumers(
        self, atoms: FrozenSet[AtomicConcept]
    ) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """Transitively closed asserted subsumers, restricted to ``atoms``.

        Sound by construction: ``A [= B1 and ... and Bk`` entails
        ``A [= Bi`` for every conjunct, and subsumption is transitive.
        """
        direct: Dict[AtomicConcept, Set[AtomicConcept]] = {}
        for inclusion in self.kb.concept_inclusions:
            sub = inclusion.sub
            if isinstance(sub, AtomicConcept) and sub in atoms:
                direct.setdefault(sub, set()).update(
                    _conjoined_atoms(inclusion.sup, atoms)
                )
        closed: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        for atom in atoms:
            reached: Set[AtomicConcept] = set()
            frontier = list(direct.get(atom, ()))
            while frontier:
                current = frontier.pop()
                if current in reached or current == atom:
                    continue
                reached.add(current)
                frontier.extend(direct.get(current, ()))
            if reached:
                closed[atom] = frozenset(reached)
        return closed

    def _insert(
        self,
        taxonomy: "_Taxonomy",
        concept: AtomicConcept,
        told: Dict[AtomicConcept, FrozenSet[AtomicConcept]],
    ) -> None:
        """Place one satisfiable atom into the taxonomy DAG."""
        subsumers = self._top_search(taxonomy, concept, told)
        parents = {
            node
            for node in subsumers
            if node is not taxonomy.top
            and not any(child in subsumers for child in node.children)
        } or {taxonomy.top}
        subsumees = self._bottom_search(taxonomy, concept, told)
        equivalent = subsumers & subsumees
        if equivalent:
            # C sits exactly on an existing node: merge, no new edges.
            node = next(iter(equivalent))
            node.members.add(concept)
            return
        children = {
            node
            for node in subsumees
            if not any(parent in subsumees for parent in node.parents)
        }
        taxonomy.insert(concept, parents, children)

    def _top_search(
        self,
        taxonomy: "_Taxonomy",
        concept: AtomicConcept,
        told: Dict[AtomicConcept, FrozenSet[AtomicConcept]],
    ) -> Set["_TaxonomyNode"]:
        """All nodes whose representative subsumes ``concept``.

        Enhanced traversal: subsumers are upward-closed in the DAG, so a
        node with a non-subsuming parent is pruned without a tableau call;
        told subsumers short-circuit positively.
        """
        told_subsumers = told.get(concept, frozenset())
        decided: Dict[_TaxonomyNode, bool] = {taxonomy.top: True}

        def subsumes_concept(node: _TaxonomyNode) -> bool:
            known = decided.get(node)
            if known is not None:
                return known
            if not all(subsumes_concept(parent) for parent in node.parents):
                result = False
            elif node.members & told_subsumers:
                self.stats.told_subsumptions += 1
                result = True
            else:
                result = self.subsumes(node.rep, concept)
            decided[node] = result
            return result

        return {node for node in taxonomy.nodes if subsumes_concept(node)}

    def _bottom_search(
        self,
        taxonomy: "_Taxonomy",
        concept: AtomicConcept,
        told: Dict[AtomicConcept, FrozenSet[AtomicConcept]],
    ) -> Set["_TaxonomyNode"]:
        """All nodes whose representative is subsumed by ``concept``.

        Dual pruning: subsumees are downward-closed, so a node with a
        non-subsumed child cannot be subsumed; a node whose own told
        subsumers include ``concept`` is subsumed without a tableau call.
        """
        decided: Dict[_TaxonomyNode, bool] = {}

        def subsumed_by_concept(node: _TaxonomyNode) -> bool:
            known = decided.get(node)
            if known is not None:
                return known
            if not all(subsumed_by_concept(child) for child in node.children):
                result = False
            elif any(
                concept in told.get(member, ()) for member in node.members
            ):
                self.stats.told_subsumptions += 1
                result = True
            else:
                result = self.subsumes(concept, node.rep)
            decided[node] = result
            return result

        return {node for node in taxonomy.nodes if subsumed_by_concept(node)}

    def unsatisfiable_concepts(self) -> FrozenSet[AtomicConcept]:
        """Atomic concepts with no possible instances under the KB."""
        return frozenset(
            concept
            for concept in self.kb.concepts_in_signature()
            if not self.is_satisfiable(concept)
        )


# ---------------------------------------------------------------------------
# Partial classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialClassification:
    """The possibly-degraded result of :meth:`Reasoner.classify_bounded`.

    ``hierarchy`` maps every *fully decided* atom to its complete
    subsumer set (rows are all-or-nothing, so a present row is exactly
    what :meth:`Reasoner.classify` would report); ``undecided`` lists
    the ``(sub, sup)`` pairs the budget did not cover; ``reason`` and
    ``message`` describe the exhaustion (both empty when the
    classification completed).
    """

    hierarchy: Dict["AtomicConcept", FrozenSet["AtomicConcept"]]
    undecided: Tuple[Tuple["AtomicConcept", "AtomicConcept"], ...]
    reason: Optional[DegradationReason] = None
    message: str = ""

    @property
    def complete(self) -> bool:
        """Whether every requested pair was decided."""
        return not self.undecided


# ---------------------------------------------------------------------------
# Taxonomy DAG
# ---------------------------------------------------------------------------

class _TaxonomyNode:
    """One equivalence class of atomic concepts in the taxonomy DAG."""

    __slots__ = ("members", "parents", "children")

    def __init__(self, members: Set[AtomicConcept]):
        self.members = members
        self.parents: Set[_TaxonomyNode] = set()
        self.children: Set[_TaxonomyNode] = set()

    @property
    def rep(self) -> AtomicConcept:
        """The representative used in tableau tests."""
        return next(iter(self.members))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<node {sorted(m.name for m in self.members)}>"


class _Taxonomy:
    """A growing subsumption DAG with a virtual top element.

    Edges are covering links between equivalence classes; the ancestor
    closure over inserted atoms always equals entailed subsumption —
    that invariant is what makes the enhanced searches complete.
    """

    def __init__(self) -> None:
        self.top = _TaxonomyNode(set())
        self.nodes: List[_TaxonomyNode] = []

    def insert(
        self,
        concept: AtomicConcept,
        parents: Set[_TaxonomyNode],
        children: Set[_TaxonomyNode],
    ) -> None:
        node = _TaxonomyNode({concept})
        for parent in parents:
            # Direct parent-child links now route through the new node.
            for child in children & parent.children:
                parent.children.discard(child)
                child.parents.discard(parent)
            parent.children.add(node)
            node.parents.add(parent)
        for child in children:
            child.parents.add(node)
            node.children.add(child)
        self.nodes.append(node)

    def hierarchy(self) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """Reflexive-transitive subsumers of every inserted atom."""
        ancestors: Dict[_TaxonomyNode, FrozenSet[AtomicConcept]] = {
            self.top: frozenset()
        }

        def ancestry(node: _TaxonomyNode) -> FrozenSet[AtomicConcept]:
            known = ancestors.get(node)
            if known is None:
                known = frozenset(node.members).union(
                    *(ancestry(parent) for parent in node.parents)
                )
                ancestors[node] = known
            return known

        result: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        for node in self.nodes:
            subsumers = ancestry(node)
            for member in node.members:
                result[member] = subsumers
        return result


def _kb_has_nominals(axioms: Iterable[Axiom]) -> bool:
    """Whether any concept in ``axioms`` mentions a nominal (``OneOf``).

    Nominal-freedom is what makes models closed under disjoint union,
    the side condition of the pure-ABox taxonomy-reuse rule.
    """
    for axiom in axioms:
        if isinstance(axiom, ConceptInclusion):
            if nominals(axiom.sub) or nominals(axiom.sup):
                return True
        elif isinstance(axiom, ConceptEquivalence):
            if nominals(axiom.left) or nominals(axiom.right):
                return True
        elif isinstance(axiom, ConceptAssertion):
            if nominals(axiom.concept):
                return True
    return False


def _conjoined_atoms(
    concept: Concept, atoms: FrozenSet[AtomicConcept]
) -> Set[AtomicConcept]:
    """The atomic conjuncts of a concept (told-subsumer candidates)."""
    if isinstance(concept, AtomicConcept):
        return {concept} if concept in atoms else set()
    if isinstance(concept, And):
        found: Set[AtomicConcept] = set()
        for operand in concept.operands:
            found |= _conjoined_atoms(operand, atoms)
        return found
    return set()


def _told_order(
    atoms: Sequence[AtomicConcept],
    told: Dict[AtomicConcept, FrozenSet[AtomicConcept]],
) -> List[AtomicConcept]:
    """Atoms in told-subsumer topological order (parents first).

    Inserting a concept after its told subsumers lets the traversal
    searches answer those nodes without tableau calls.  Cycles (mutual
    told subsumption) fall back to the incoming deterministic order.
    """
    ordered: List[AtomicConcept] = []
    visiting: Set[AtomicConcept] = set()
    placed: Set[AtomicConcept] = set()

    def visit(atom: AtomicConcept) -> None:
        if atom in placed or atom in visiting:
            return
        visiting.add(atom)
        for subsumer in sorted(told.get(atom, ()), key=lambda a: a.name):
            visit(subsumer)
        visiting.discard(atom)
        placed.add(atom)
        ordered.append(atom)

    for atom in atoms:
        visit(atom)
    return ordered
