"""Paraconsistent reasoning for SHOIN(D)4 by reduction (Theorem 6, Cor. 7).

A :class:`Reasoner4` transforms its KB4 once into the classical induced KB
(Definition 7) and then answers every four-valued question through the
classical tableau:

* four-valued satisfiability = classical satisfiability of the induced KB
  (Theorem 6);
* evidence queries — the paper's "is there information indicating that
  ``a`` is (not) a ``C``?" — via classical instance checks on the
  positive/negative transformed concepts;
* the three inclusion forms via Corollary 7's unsatisfiability tests;
* :meth:`Reasoner4.assertion_value` combines both evidence directions
  into one of Belnap's four values, the *entailed* truth status of a fact.

Because the reduction never collapses ``A+`` with ``A-``, a contradiction
about ``A`` stays local: the induced KB remains classically satisfiable
and unrelated conclusions survive (the paraconsistency the paper's
Examples 1-3 demonstrate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..dl import axioms as ax
from ..dl.budget import Budget, Verdict
from ..dl.cache import QueryCache
from ..dl.concepts import And, AtomicConcept, Concept, Not
from ..dl.individuals import Individual
from ..dl.kb import KnowledgeBase
from ..dl.reasoner import PartialClassification, Reasoner
from ..dl.stats import ReasonerStats
from ..dl.tableau import DEFAULT_MAX_BRANCHES, DEFAULT_MAX_NODES, Tableau
from ..fourvalued.truth import FourValue, from_evidence
from ..obs.spans import add_event, span as obs_span
from .axioms4 import (
    ConceptInclusion4,
    InclusionKind,
    KnowledgeBase4,
    RoleInclusion4,
)
from ..dl.errors import (
    BudgetExceeded,
    DegradationReason,
    ParseError,
    UnsupportedAxiomError,
    UnsupportedFeature,
)
from .transform import (
    cached_transform_kb,
    neg_transform,
    pos_transform,
    positive_concept,
    positive_data_role,
    positive_role,
    eq_role,
)


@dataclass(frozen=True)
class BoundedFourValue:
    """The possibly-degraded outcome of a budgeted Belnap-status query.

    ``value`` is one of the four truth values when both evidence
    directions were decided within budget, or ``None`` with ``reason``
    (a :class:`~repro.dl.errors.DegradationReason`) when the search was
    stopped.  Degradation is sound: a decided value always equals what
    the unbudgeted :meth:`Reasoner4.assertion_value` would return.
    """

    value: Optional[FourValue]
    reason: Optional[DegradationReason] = None
    message: str = ""

    def is_unknown(self) -> bool:
        """Whether the query degraded instead of deciding."""
        return self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return f"UNKNOWN({self.reason.value})"
        return self.value.name


class Reasoner4:
    """Four-valued reasoner over a SHOIN(D)4 knowledge base.

    The induced classical KB is transformed at most once per KB4 state
    (shared by all reasoner views of the same KB4), and every reduced
    query flows through the classical reasoner's NNF-keyed
    :class:`~repro.dl.cache.QueryCache` — the four-valued layer inherits
    cross-query caching for free because Corollary 7 phrases all its
    services as classical satisfiability.  Mutating the KB4 after queries
    is safe: the reasoner notices the version change, re-transforms, and
    drops every cached verdict.
    """

    def __init__(
        self,
        kb4: KnowledgeBase4,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_branches: int = DEFAULT_MAX_BRANCHES,
        cache: Optional[QueryCache] = None,
        use_cache: bool = True,
        stats: Optional[ReasonerStats] = None,
        cache_maxsize: Optional[int] = 4096,
        budget: Optional[Budget] = None,
        engine: str = "auto",
    ):
        """Bind a four-valued reasoner to ``kb4``.

        All parameters mirror :class:`repro.dl.reasoner.Reasoner` and
        are forwarded to the classical reasoner over the induced KB:
        search-space budgets, a shareable query cache (or
        ``use_cache=False`` / ``cache_maxsize`` for a private one),
        shared statistics, a default :class:`~repro.dl.budget.Budget`
        governing every service call, and the ``engine`` dispatch
        policy (the doubled-signature reduction preserves the tractable
        fragment, so the saturation fast path applies to induced KBs
        too).
        """
        self.kb4 = kb4
        self.max_nodes = max_nodes
        self.max_branches = max_branches
        #: Default resource envelope, forwarded to the classical reasoner.
        self.budget = budget
        #: Engine dispatch policy, forwarded to the classical reasoner:
        #: ``"auto"`` (saturation fast path first) or ``"tableau"``.
        self.engine = engine
        #: Work counters, preserved across mutation-triggered rebuilds.
        self.stats = stats if stats is not None else ReasonerStats()
        self.cache = (
            cache
            if cache is not None
            else QueryCache(enabled=use_cache, maxsize=cache_maxsize)
        )
        self._kb4_version = kb4.version
        self._rebuild()

    def _rebuild(self) -> None:
        #: The classical induced KB of Definition 7 (memoised per version).
        self.classical_kb: KnowledgeBase = cached_transform_kb(self.kb4)
        #: The classical reasoner all queries reduce to.
        self.classical_reasoner = Reasoner(
            self.classical_kb,
            max_nodes=self.max_nodes,
            max_branches=self.max_branches,
            cache=self.cache,
            stats=self.stats,
            budget=self.budget,
            engine=self.engine,
        )

    def _sync(self) -> None:
        """Absorb any KB4 mutation before delegating a query.

        The incremental path: :func:`~repro.four_dl.transform.cached_transform_kb`
        replays the KB4's net axiom delta onto the memoised induced KB
        *in place*, so the induced-KB object survives and the delegated
        classical reasoner — whose own fine-grained ``_sync`` watches
        that object's change log — invalidates only what the edit can
        affect.  When the transform memo could not be updated in place
        (log window exceeded) the induced KB is a fresh object and
        everything is rebuilt wholesale.
        """
        if self._kb4_version == self.kb4.version:
            return
        if cached_transform_kb(self.kb4) is self.classical_kb:
            # Same induced-KB object, mutated in place: the classical
            # reasoner's next query fine-syncs against its change log.
            self._kb4_version = self.kb4.version
            return
        self.cache.clear()
        self._rebuild()
        self._kb4_version = self.kb4.version

    # ------------------------------------------------------------------
    # Satisfiability (Theorem 6)
    # ------------------------------------------------------------------
    def is_satisfiable(self) -> bool:
        """Four-valued satisfiability of the KB4.

        By Theorem 6 this equals classical satisfiability of the induced
        KB.  Plain contradictions (``A(a)`` with ``not A(a)``) never make
        a KB4 four-valued-unsatisfiable; genuine clashes (e.g. an
        individual asserted into ``Bottom``) still can.
        """
        self._sync()
        return self.classical_reasoner.is_consistent()

    def concept_coherent(self, concept: Concept) -> bool:
        """Whether some four-valued model gives the concept positive evidence."""
        self._sync()
        return self.classical_reasoner.is_satisfiable(pos_transform(concept))

    def four_model(self):
        """A verified finite four-valued model of the KB4, or ``None``.

        Definition 9 in action: extract a classical model of the induced
        KB from the tableau's completion graph and map it back through
        the four-valued induced interpretation.  The result is checked
        against the KB4 with the Table 2/3 evaluator before returning.
        """
        from ..semantics.four_interpretation import FourInterpretation
        from .induced import four_induced

        self._sync()
        classical_model = self.classical_reasoner.model()
        if classical_model is None:
            return None
        data_values = {
            value
            for pairs in classical_model.data_role_ext.values()
            for (_element, value) in pairs
        }
        candidate = four_induced(classical_model, self.kb4, data_values)
        if not candidate.is_model(self.kb4):
            return None
        return candidate

    # ------------------------------------------------------------------
    # Evidence queries (Examples 1-2)
    # ------------------------------------------------------------------
    def evidence_for(self, individual: Individual, concept: Concept) -> bool:
        """``K |=4 a : C`` — every four-valued model puts ``a`` in ``proj+(C)``.

        The paper's query "is there any information indicating ``a`` is a
        ``C``?" (Example 1).
        """
        self._sync()
        with obs_span("evidence_probe") as span:
            span.set("direction", "for")
            entailed = self.classical_reasoner.is_instance(
                individual, pos_transform(concept)
            )
            span.set("entailed", entailed)
            return entailed

    def evidence_against(self, individual: Individual, concept: Concept) -> bool:
        """``K |=4 a : not C`` — every model puts ``a`` in ``proj-(C)``."""
        self._sync()
        with obs_span("evidence_probe") as span:
            span.set("direction", "against")
            entailed = self.classical_reasoner.is_instance(
                individual, neg_transform(concept)
            )
            span.set("entailed", entailed)
            return entailed

    def assertion_value(self, individual: Individual, concept: Concept) -> FourValue:
        """The entailed Belnap status of ``C(a)``.

        ``BOTH`` means the KB4 provably carries evidence in both
        directions (a localised contradiction); ``NEITHER`` means neither
        direction is entailed.
        """
        return from_evidence(
            self.evidence_for(individual, concept),
            self.evidence_against(individual, concept),
        )

    def assertion_values(
        self, pairs: Iterable[Tuple[Individual, Concept]]
    ) -> Dict[Tuple[Individual, Concept], FourValue]:
        """The Belnap status of every ``C(a)`` in a batch.

        Probes are deduplicated and sorted concept-first, so the two
        evidence directions of one concept (and repeated concepts across
        individuals) run adjacently and resolve from the query cache
        instead of fresh tableau calls.
        """
        ordered = sorted(
            set(pairs), key=lambda pair: (repr(pair[1]), pair[0])
        )
        return {
            (individual, concept): self.assertion_value(individual, concept)
            for individual, concept in ordered
        }

    def role_evidence_for(
        self, role, source: Individual, target: Individual
    ) -> bool:
        """Whether ``K |=4 R(a, b)`` (positive role evidence entailed)."""
        self._sync()
        return self.classical_reasoner.entails(
            ax.RoleAssertion(positive_role(role), source, target)
        )

    def role_evidence_against(
        self, role, source: Individual, target: Individual
    ) -> bool:
        """Whether ``K |=4 not R(a, b)`` (negative role evidence entailed).

        By Definition 8, ``(a, b) in proj-(R)`` iff the pair lies outside
        the classical ``R=`` half, i.e. the induced KB entails the negative
        assertion on ``R=``.
        """
        self._sync()
        return self.classical_reasoner.entails(
            ax.NegativeRoleAssertion(eq_role(role), source, target)
        )

    def role_value(
        self, role, source: Individual, target: Individual
    ) -> FourValue:
        """The entailed Belnap status of ``R(a, b)``."""
        return from_evidence(
            self.role_evidence_for(role, source, target),
            self.role_evidence_against(role, source, target),
        )

    # ------------------------------------------------------------------
    # Inclusion entailment (Corollary 7)
    # ------------------------------------------------------------------
    def entails_inclusion(self, inclusion: ConceptInclusion4) -> bool:
        """Whether the KB4 four-valuedly entails a concept inclusion.

        Implemented by Corollary 7's reductions to concept
        unsatisfiability in the induced KB.
        """
        self._sync()
        sub, sup = inclusion.sub, inclusion.sup
        if inclusion.kind is InclusionKind.MATERIAL:
            probe = And.of(Not(neg_transform(sub)), Not(pos_transform(sup)))
            return not self.classical_reasoner.is_satisfiable(probe)
        if inclusion.kind is InclusionKind.INTERNAL:
            probe = And.of(pos_transform(sub), Not(pos_transform(sup)))
            return not self.classical_reasoner.is_satisfiable(probe)
        first = And.of(pos_transform(sub), Not(pos_transform(sup)))
        second = And.of(neg_transform(sup), Not(neg_transform(sub)))
        return not self.classical_reasoner.is_satisfiable(
            first
        ) and not self.classical_reasoner.is_satisfiable(second)

    def entails_role_inclusion(self, inclusion: RoleInclusion4) -> bool:
        """Whether the KB4 entails a role inclusion of the given kind.

        The probes mirror how :func:`~repro.four_dl.transform.transform_axiom`
        translates each inclusion strength (paper Table 3): material
        ``R |-> S`` holds when the classical ``R= [= S+`` does (evidence
        not-against ``R`` forces evidence for ``S``); internal ``R < S``
        is ``R+ [= S+`` alone; strong ``R -> S`` adds the contrapositive
        carrier ``R= [= S=`` on top of ``R+ [= S+``.
        """
        self._sync()
        if inclusion.kind is InclusionKind.MATERIAL:
            return self.classical_reasoner.entails(
                ax.RoleInclusion(eq_role(inclusion.sub), positive_role(inclusion.sup))
            )
        if inclusion.kind is InclusionKind.INTERNAL:
            return self.classical_reasoner.entails(
                ax.RoleInclusion(
                    positive_role(inclusion.sub), positive_role(inclusion.sup)
                )
            )
        return self.classical_reasoner.entails(
            ax.RoleInclusion(
                positive_role(inclusion.sub), positive_role(inclusion.sup)
            )
        ) and self.classical_reasoner.entails(
            ax.RoleInclusion(eq_role(inclusion.sub), eq_role(inclusion.sup))
        )

    def entails(self, axiom: object) -> bool:
        """Four-valued entailment of an inclusion or an ABox assertion."""
        if isinstance(axiom, ConceptInclusion4):
            return self.entails_inclusion(axiom)
        if isinstance(axiom, RoleInclusion4):
            return self.entails_role_inclusion(axiom)
        if isinstance(axiom, ax.ConceptAssertion):
            return self.evidence_for(axiom.individual, axiom.concept)
        if isinstance(axiom, ax.RoleAssertion):
            return self.role_evidence_for(axiom.role, axiom.source, axiom.target)
        if isinstance(axiom, ax.NegativeRoleAssertion):
            return self.role_evidence_against(
                axiom.role, axiom.source, axiom.target
            )
        if isinstance(axiom, (ax.SameIndividual, ax.DifferentIndividuals)):
            # Definition 6 leaves individuals untouched by the signature
            # doubling, so (in)equality holds four-valuedly iff it holds
            # in the induced classical KB.
            self._sync()
            return self.classical_reasoner.entails(axiom)
        if isinstance(axiom, ax.DataAssertion):
            # Datatype assertions are two-valued in the paper; only the
            # datatype role is doubled, and positive evidence lives on
            # the U+ half.
            self._sync()
            return self.classical_reasoner.entails(
                ax.DataAssertion(
                    positive_data_role(axiom.role), axiom.source, axiom.value
                )
            )
        raise UnsupportedAxiomError(axiom, service="4-valued entails")

    # ------------------------------------------------------------------
    # Degrading (budgeted) services
    # ------------------------------------------------------------------
    def _run_bounded(self, thunk, budget: Optional[Budget]) -> Verdict:
        """Run a boolean four-valued service degradingly (see
        :meth:`repro.dl.reasoner.Reasoner._run_bounded`)."""
        self._sync()
        return self.classical_reasoner._run_bounded(thunk, budget)

    def is_satisfiable_verdict(self, budget: Optional[Budget] = None) -> Verdict:
        """Three-way four-valued satisfiability (degrading
        :meth:`is_satisfiable`): TRUE, FALSE, or UNKNOWN with a
        :class:`~repro.dl.errors.DegradationReason` on budget exhaustion."""
        return self._run_bounded(self.is_satisfiable, budget)

    def entails_verdict(
        self, axiom: object, budget: Optional[Budget] = None
    ) -> Verdict:
        """Three-way four-valued entailment (degrading :meth:`entails`).

        Multi-probe axioms (strong inclusions, equivalence-like splits)
        run under one metered scope, so the budget governs the whole
        question.  Unsupported axiom kinds still raise
        :class:`~repro.dl.errors.UnsupportedAxiomError`.
        """
        return self._run_bounded(lambda: self.entails(axiom), budget)

    def evidence_for_verdict(
        self,
        individual: Individual,
        concept: Concept,
        budget: Optional[Budget] = None,
    ) -> Verdict:
        """Three-way positive-evidence query (degrading :meth:`evidence_for`)."""
        return self._run_bounded(
            lambda: self.evidence_for(individual, concept), budget
        )

    def evidence_against_verdict(
        self,
        individual: Individual,
        concept: Concept,
        budget: Optional[Budget] = None,
    ) -> Verdict:
        """Three-way negative-evidence query (degrading :meth:`evidence_against`)."""
        return self._run_bounded(
            lambda: self.evidence_against(individual, concept), budget
        )

    def assertion_value_bounded(
        self,
        individual: Individual,
        concept: Concept,
        budget: Optional[Budget] = None,
    ) -> "BoundedFourValue":
        """The Belnap status of ``C(a)``, degrading to UNKNOWN.

        Both evidence directions run under *one* metered scope, so the
        deadline and cumulative caps govern the combined question.  On
        exhaustion the outcome carries ``value=None`` plus the
        :class:`~repro.dl.errors.DegradationReason` — the four truth
        values are never guessed from a half-finished search.
        """
        self._sync()
        classical = self.classical_reasoner
        meter = classical._start_meter(budget)
        try:
            with classical._metered(meter):
                value = from_evidence(
                    self.evidence_for(individual, concept),
                    self.evidence_against(individual, concept),
                )
            return BoundedFourValue(value=value)
        except BudgetExceeded as exc:
            self.stats.unknown_verdicts += 1
            add_event("unknown_verdict", {"reason": exc.reason.value})
            return BoundedFourValue(
                value=None, reason=exc.reason, message=str(exc)
            )
        except (ParseError, UnsupportedFeature):
            raise
        except Exception as exc:  # contain faults, degrade to UNKNOWN
            self.stats.unknown_verdicts += 1
            add_event(
                "unknown_verdict", {"reason": DegradationReason.ERROR.value}
            )
            return BoundedFourValue(
                value=None,
                reason=DegradationReason.ERROR,
                message=f"{type(exc).__name__}: {exc}",
            )

    def classify_bounded(
        self,
        kind: InclusionKind = InclusionKind.INTERNAL,
        budget: Optional[Budget] = None,
    ) -> PartialClassification:
        """Classification that degrades to a partial hierarchy.

        The four-valued counterpart of
        :meth:`repro.dl.reasoner.Reasoner.classify_bounded`: decided rows
        are exactly what :meth:`classify` would report; exhausted pairs
        are listed as undecided with the
        :class:`~repro.dl.errors.DegradationReason`.
        """
        from .transform import positive_concept

        atoms = sorted(self.kb4.concepts_in_signature(), key=lambda a: a.name)
        self._sync()
        if kind is InclusionKind.INTERNAL:
            by_pos = {positive_concept(atom): atom for atom in atoms}
            partial = self.classical_reasoner.classify_bounded(
                atoms=by_pos.keys(), budget=budget
            )
            return PartialClassification(
                hierarchy={
                    by_pos[pos_atom]: frozenset(
                        by_pos[sup] for sup in subsumers
                    )
                    for pos_atom, subsumers in partial.hierarchy.items()
                },
                undecided=tuple(
                    (by_pos[sub], by_pos[sup])
                    for sub, sup in partial.undecided
                ),
                reason=partial.reason,
                message=partial.message,
            )
        classical = self.classical_reasoner
        meter = classical._start_meter(budget)
        hierarchy: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
        undecided = []
        reason: Optional[DegradationReason] = None
        message = ""
        with classical._metered(meter):
            for sub in atoms:
                if reason is not None:
                    undecided.extend((sub, sup) for sup in atoms)
                    continue
                row = set()
                for col, sup in enumerate(atoms):
                    try:
                        if self.entails_inclusion(
                            ConceptInclusion4(sub, sup, kind)
                        ):
                            row.add(sup)
                    except BudgetExceeded as exc:
                        reason = exc.reason
                        message = str(exc)
                        undecided.extend(
                            (sub, later) for later in atoms[col:]
                        )
                        break
                else:
                    hierarchy[sub] = frozenset(row)
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
    def _entailment_probe_sets(self, axiom: object):
        """Classical probe sets deciding a four-valued entailment.

        Mirrors :meth:`entails`: the axiom holds iff the induced KB is
        unsatisfiable with *each* returned probe set (Corollary 7).
        """
        from ..dl.reasoner import _PROBE

        classical = self.classical_reasoner
        if isinstance(axiom, ConceptInclusion4):
            sub, sup = axiom.sub, axiom.sup
            if axiom.kind is InclusionKind.MATERIAL:
                probe = And.of(Not(neg_transform(sub)), Not(pos_transform(sup)))
                return ((ax.ConceptAssertion(_PROBE, probe),),)
            if axiom.kind is InclusionKind.INTERNAL:
                probe = And.of(pos_transform(sub), Not(pos_transform(sup)))
                return ((ax.ConceptAssertion(_PROBE, probe),),)
            first = And.of(pos_transform(sub), Not(pos_transform(sup)))
            second = And.of(neg_transform(sup), Not(neg_transform(sub)))
            return (
                (ax.ConceptAssertion(_PROBE, first),),
                (ax.ConceptAssertion(_PROBE, second),),
            )
        if isinstance(axiom, RoleInclusion4):
            if axiom.kind is InclusionKind.MATERIAL:
                return classical._entailment_probes(
                    ax.RoleInclusion(eq_role(axiom.sub), positive_role(axiom.sup))
                )
            internal = classical._entailment_probes(
                ax.RoleInclusion(
                    positive_role(axiom.sub), positive_role(axiom.sup)
                )
            )
            if axiom.kind is InclusionKind.INTERNAL:
                return internal
            return internal + classical._entailment_probes(
                ax.RoleInclusion(eq_role(axiom.sub), eq_role(axiom.sup))
            )
        if isinstance(axiom, ax.ConceptAssertion):
            return classical._entailment_probes(
                ax.ConceptAssertion(
                    axiom.individual, pos_transform(axiom.concept)
                )
            )
        if isinstance(axiom, ax.RoleAssertion):
            return classical._entailment_probes(
                ax.RoleAssertion(
                    positive_role(axiom.role), axiom.source, axiom.target
                )
            )
        if isinstance(axiom, ax.NegativeRoleAssertion):
            return classical._entailment_probes(
                ax.NegativeRoleAssertion(
                    eq_role(axiom.role), axiom.source, axiom.target
                )
            )
        if isinstance(axiom, (ax.SameIndividual, ax.DifferentIndividuals)):
            return classical._entailment_probes(axiom)
        if isinstance(axiom, ax.DataAssertion):
            return classical._entailment_probes(
                ax.DataAssertion(
                    positive_data_role(axiom.role), axiom.source, axiom.value
                )
            )
        raise UnsupportedAxiomError(axiom, service="4-valued explain")

    def _classical_tableau(self) -> Tableau:
        """The classical reasoner's tableau, synced to the induced KB.

        An in-place KB4 edit reaches the induced KB's change log but not
        the classical reasoner until its next query, so the explanation
        paths (which drive the tableau directly) sync it first.
        """
        self.classical_reasoner._sync()
        return self.classical_reasoner._tableau

    def _shrink_check(self, axiom: object):
        """The sub-KB4 entailment re-check used by justification shrinking.

        Builds a fresh four-valued reasoner per candidate subset with the
        query cache bypassed, so cached full-KB verdicts never leak into
        questions about sub-KBs.
        """

        def check(axioms4) -> bool:
            self.stats.shrink_probes += 1
            sub = Reasoner4(
                KnowledgeBase4.of(axioms4),
                max_nodes=self.max_nodes,
                max_branches=self.max_branches,
                use_cache=False,
                engine=self.engine,
            )
            try:
                return sub.entails(axiom)
            except Exception:
                return False

        return check

    def explain(self, axiom: object, trace: bool = False):
        """Why the KB4 four-valuedly entails ``axiom``.

        Returns an :class:`repro.explain.model.Explanation` whose
        justifications cite the *original* KB4 axioms — material /
        internal / strong inclusions (Table 3) and assertions — never the
        induced ``A__pos``/``A__neg`` artifacts.  The classical unsat
        core of each probe run is mapped back through the
        transformation's provenance map to seed the search; minimality
        comes from deletion-based shrinking over KB4 axioms with the
        cache bypassed.

        With ``trace=True`` each probe run records a structured clash
        trace over the induced KB.
        """
        from ..explain.justify import minimal_justification
        from ..explain.model import Explanation, Trace
        from .transform import cached_transform_provenance

        self._sync()
        probe_sets = self._entailment_probe_sets(axiom)
        tableau = self._classical_tableau()
        provenance = cached_transform_provenance(self.kb4)
        traces = []
        entailed = True
        seed: set = set()
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
                continue
            for classical_axiom in core:
                sources = provenance.get(classical_axiom)
                if sources is None:
                    # An induced axiom we cannot attribute (should not
                    # happen); fall back to shrinking from the full KB4.
                    seed_known = False
                else:
                    seed.update(sources)
        if not entailed:
            return Explanation(
                query=axiom, entailed=False, traces=tuple(traces)
            )
        justification = minimal_justification(
            list(self.kb4.axioms()),
            self._shrink_check(axiom),
            seed=frozenset(seed) if seed_known else None,
        )
        self.stats.explanations_computed += 1
        return Explanation(
            query=axiom,
            entailed=True,
            justifications=(justification,),
            traces=tuple(traces),
        )

    def explain_unsatisfiability(self, trace: bool = False):
        """A minimal four-valued-unsatisfiable sub-KB4, when one exists.

        Returns an :class:`repro.explain.model.InconsistencyExplanation`
        over KB4 axioms (Theorem 6 reduces the check to classical
        consistency of each candidate's induced KB).
        """
        from ..explain.justify import minimal_justification
        from ..explain.model import InconsistencyExplanation, Trace
        from .transform import cached_transform_provenance

        self._sync()
        tableau = self._classical_tableau()
        recorder = Trace() if trace else None
        if tableau.is_satisfiable(trace=recorder):
            return InconsistencyExplanation(
                consistent=True,
                traces=(recorder,) if recorder is not None else (),
            )
        seed = None
        core = tableau.last_unsat_core
        if core is not None:
            provenance = cached_transform_provenance(self.kb4)
            mapped = [provenance.get(classical_axiom) for classical_axiom in core]
            if all(sources is not None for sources in mapped):
                seed = frozenset(
                    source for sources in mapped for source in sources
                )

        def check(axioms4) -> bool:
            self.stats.shrink_probes += 1
            sub = Reasoner4(
                KnowledgeBase4.of(axioms4),
                max_nodes=self.max_nodes,
                max_branches=self.max_branches,
                use_cache=False,
                engine=self.engine,
            )
            try:
                return not sub.is_satisfiable()
            except Exception:
                return False

        justification = minimal_justification(
            list(self.kb4.axioms()), check, seed=seed
        )
        self.stats.explanations_computed += 1
        return InconsistencyExplanation(
            consistent=False,
            justification=justification,
            traces=(recorder,) if recorder is not None else (),
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(
        self, kind: InclusionKind = InclusionKind.INTERNAL
    ) -> Dict[AtomicConcept, FrozenSet[AtomicConcept]]:
        """The atomic concept hierarchy under one inclusion strength.

        Maps each atomic concept to its entailed subsumers under the
        chosen inclusion kind (internal by default: the positive-evidence
        taxonomy).  Unlike classical classification, this stays
        informative on inconsistent ontologies.

        Internal inclusion ``A < B`` holds iff classically
        ``A+ [= B+`` (Corollary 7), so the internal taxonomy is computed
        by the classical model-driven classifier over the positive
        atoms: verified models of the induced KB refute the
        non-subsumptions, and only the candidates no model refutes are
        proved (13 tableau runs on the shipped university ontology, its
        consistency check included, where the pairwise sweep makes 169).
        The material and strong kinds mix both polarities and keep the
        pairwise loop (each probe still flows through the query cache
        and the kept models).
        """
        atoms = sorted(self.kb4.concepts_in_signature(), key=lambda a: a.name)
        if kind is InclusionKind.INTERNAL:
            self._sync()
            by_pos = {positive_concept(atom): atom for atom in atoms}
            positive_hierarchy = self.classical_reasoner.classify(
                atoms=by_pos.keys()
            )
            return {
                by_pos[pos_atom]: frozenset(by_pos[sup] for sup in subsumers)
                for pos_atom, subsumers in positive_hierarchy.items()
            }
        with obs_span("classify", stats=self.stats) as span:
            span.set("atoms", len(atoms))
            span.set("kind", kind.name.lower())
            hierarchy: Dict[AtomicConcept, FrozenSet[AtomicConcept]] = {}
            for sub in atoms:
                hierarchy[sub] = frozenset(
                    sup
                    for sup in atoms
                    if self.entails_inclusion(ConceptInclusion4(sub, sup, kind))
                )
            return hierarchy

    # ------------------------------------------------------------------
    # Survey helpers
    # ------------------------------------------------------------------
    def individual_report(
        self, individual: Individual, concepts: Optional[Iterable[Concept]] = None
    ) -> Dict[Concept, FourValue]:
        """The entailed Belnap status of each concept for one individual."""
        if concepts is None:
            concepts = sorted(self.kb4.concepts_in_signature(), key=lambda c: c.name)
        return {
            concept: self.assertion_value(individual, concept)
            for concept in concepts
        }

    def contradictory_facts(self) -> Dict[Individual, FrozenSet[AtomicConcept]]:
        """The localised contradictions: who is provably BOTH in what.

        This is the diagnostic the paper motivates — instead of the whole
        KB trivialising, the conflict set is pinpointed per individual.
        """
        report: Dict[Individual, FrozenSet[AtomicConcept]] = {}
        for individual in sorted(self.kb4.individuals_in_signature()):
            both = frozenset(
                concept
                for concept in self.kb4.concepts_in_signature()
                if self.assertion_value(individual, concept) is FourValue.BOTH
            )
            if both:
                report[individual] = both
        return report
