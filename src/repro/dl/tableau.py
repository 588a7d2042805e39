"""A tableau satisfiability procedure for SHOIN(D) knowledge bases.

This is the classical reasoning substrate the paper assumes ("mature
reasoning mechanisms of classical description logic"): a completion-graph
tableau in the style of Horrocks & Sattler covering

* Boolean constructors, full existential/value restrictions;
* unqualified number restrictions (the SHOIN ``>= n R`` / ``<= n R``);
* role hierarchies with inverse roles, transitive roles via the
  ``all+``-propagation rule;
* nominals (``OneOf``), individual (in)equality, ABox reasoning;
* datatype roles and ranges with a witness-search concrete domain.

The TBox is *internalised*: each inclusion ``C [= D`` contributes the
universal constraint ``nnf(not C or D)`` added to every node.  Termination
on blockable nodes uses anywhere pairwise (double) blocking, as required in
the presence of inverse roles.  Nondeterminism (disjunction, at-most
merging, nominal choice) is explored by depth-first search over one
completion graph mutated in place: every effect records an undo entry on a
*trail*, and the search rolls back to the last choice point by undoing
entries.  Every derived fact carries the set of branch points its
derivation used, and on a clash the search *backjumps* straight to the
deepest branch point the clash actually depends on, skipping irrelevant
pending alternatives (dependency-directed backtracking in the style of
FaCT/HermiT).  Blocking is maintained incrementally: node signatures are
cached and recomputed only when the node, its parent, or the search state
changed.  KB axioms ride along in the same dependency sets as negative
*axiom tags*, so every refutation names the axioms its final clash used.

Known limitation (documented in README): the corner where nominals,
inverse roles and number restrictions interact (the "NIO" case needing the
NN-rule) is handled by merging alone, which can in exotic KBs miss
satisfiability; the finite-model enumerator cross-checks the tableau on
randomised tests to keep this honest.
"""

from __future__ import annotations

import itertools
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .concepts import (
    And,
    AtLeast,
    AtMost,
    AtomicConcept,
    Bottom,
    Concept,
    DataAtLeast,
    DataAtMost,
    DataExists,
    DataForall,
    Exists,
    Forall,
    Not,
    OneOf,
    Or,
    QualifiedAtLeast,
    QualifiedAtMost,
    Top,
)
from .budget import BudgetMeter
from .datatypes import DataRange, DataTop, find_witnesses
from .errors import BudgetExceeded, DegradationReason
from .individuals import Individual
from .kb import KnowledgeBase
from .nnf import negation_nnf, nnf
from .roles import AtomicRole, DatatypeRole, ObjectRole
from .stats import ReasonerStats
from ..obs.spans import span as obs_span

NodeId = int
DEFAULT_MAX_NODES = 4000
DEFAULT_MAX_BRANCHES = 200_000


@dataclass
class _Graph:
    """A completion graph: nodes, labels, edges, and distinctness facts.

    Object edges are stored in the named-role direction only (an ``R-``
    edge is recorded as an ``R`` edge the other way).  Data nodes live in a
    separate namespace with range labels.
    """

    labels: Dict[NodeId, Set[Concept]] = field(default_factory=dict)
    edges: Dict[Tuple[NodeId, NodeId], Set[AtomicRole]] = field(default_factory=dict)
    parent: Dict[NodeId, Optional[NodeId]] = field(default_factory=dict)
    roots: Dict[Individual, NodeId] = field(default_factory=dict)
    root_nodes: Set[NodeId] = field(default_factory=set)
    distinct: Set[FrozenSet[NodeId]] = field(default_factory=set)
    data_labels: Dict[NodeId, Set[DataRange]] = field(default_factory=dict)
    data_edges: Dict[Tuple[NodeId, NodeId], Set[DatatypeRole]] = field(
        default_factory=dict
    )
    data_distinct: Set[FrozenSet[NodeId]] = field(default_factory=set)
    forbidden: Dict[Tuple[NodeId, NodeId], Set[AtomicRole]] = field(
        default_factory=dict
    )
    next_id: int = 0
    creation_order: Dict[NodeId, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def new_node(self, parent: Optional[NodeId]) -> NodeId:
        node = self.next_id
        self.next_id += 1
        self.labels[node] = set()
        self.parent[node] = parent
        self.creation_order[node] = node
        return node

    def new_data_node(self) -> NodeId:
        node = self.next_id
        self.next_id += 1
        self.data_labels[node] = set()
        return node

    def nodes(self) -> List[NodeId]:
        return sorted(self.labels)

    def is_root(self, node: NodeId) -> bool:
        return node in self.root_nodes

    # ------------------------------------------------------------------
    # Edges and neighbours
    # ------------------------------------------------------------------
    def add_edge(self, source: NodeId, target: NodeId, role: ObjectRole) -> None:
        if role.is_inverse:
            source, target, role = target, source, role.named
        self.edges.setdefault((source, target), set()).add(role)

    def successors(self, node: NodeId) -> Iterator[Tuple[NodeId, Set[AtomicRole]]]:
        for (source, target), roles in self.edges.items():
            if source == node:
                yield target, roles

    def predecessors(self, node: NodeId) -> Iterator[Tuple[NodeId, Set[AtomicRole]]]:
        for (source, target), roles in self.edges.items():
            if target == node:
                yield source, roles

    def neighbours(
        self,
        node: NodeId,
        role: ObjectRole,
        hierarchy: Dict[ObjectRole, FrozenSet[ObjectRole]],
    ) -> Set[NodeId]:
        """All ``role``-neighbours of ``node`` respecting hierarchy and inverses."""
        found: Set[NodeId] = set()
        for target, roles in self.successors(node):
            for edge_role in roles:
                if role in hierarchy.get(edge_role, frozenset({edge_role})):
                    found.add(target)
                    break
        for source, roles in self.predecessors(node):
            for edge_role in roles:
                inverse = edge_role.inverse()
                if role in hierarchy.get(inverse, frozenset({inverse})):
                    found.add(source)
                    break
        return found

    def edge_roles_between(
        self,
        source: NodeId,
        target: NodeId,
    ) -> FrozenSet[ObjectRole]:
        """Role expressions connecting ``source`` to ``target`` (both directions)."""
        roles: Set[ObjectRole] = set(self.edges.get((source, target), ()))
        for role in self.edges.get((target, source), ()):
            roles.add(role.inverse())
        return frozenset(roles)

    def data_neighbours(
        self,
        node: NodeId,
        role: DatatypeRole,
        hierarchy: Dict[DatatypeRole, FrozenSet[DatatypeRole]],
    ) -> Set[NodeId]:
        found: Set[NodeId] = set()
        for (source, target), roles in self.data_edges.items():
            if source != node:
                continue
            for edge_role in roles:
                if role in hierarchy.get(edge_role, frozenset({edge_role})):
                    found.add(target)
                    break
        return found

    def are_distinct(self, left: NodeId, right: NodeId) -> bool:
        return frozenset({left, right}) in self.distinct

    def set_distinct(self, left: NodeId, right: NodeId) -> None:
        if left != right:
            self.distinct.add(frozenset({left, right}))

    # ------------------------------------------------------------------
    # Merging (SameIndividual axioms, before the search starts; the
    # search itself merges through the trail engine's logged _merge)
    # ------------------------------------------------------------------
    def merge(self, victim: NodeId, survivor: NodeId) -> bool:
        """Merge ``victim`` into ``survivor``; False signals an immediate clash."""
        if victim == survivor:
            return True
        if self.are_distinct(victim, survivor):
            return False
        self.labels[survivor] |= self.labels.pop(victim)
        for (source, target) in list(self.edges):
            if victim in (source, target):
                roles = self.edges.pop((source, target))
                new_source = survivor if source == victim else source
                new_target = survivor if target == victim else target
                self.edges.setdefault((new_source, new_target), set()).update(roles)
        for (source, target) in list(self.data_edges):
            if source == victim:
                roles = self.data_edges.pop((source, target))
                self.data_edges.setdefault((survivor, target), set()).update(roles)
        for pair in list(self.distinct):
            if victim in pair:
                self.distinct.discard(pair)
                (other,) = pair - {victim}
                if other == survivor:
                    return False
                self.distinct.add(frozenset({survivor, other}))
        for (source, target) in list(self.forbidden):
            if victim in (source, target):
                roles = self.forbidden.pop((source, target))
                new_source = survivor if source == victim else source
                new_target = survivor if target == victim else target
                self.forbidden.setdefault((new_source, new_target), set()).update(
                    roles
                )
        for individual, node in list(self.roots.items()):
            if node == victim:
                self.roots[individual] = survivor
        if victim in self.root_nodes:
            self.root_nodes.discard(victim)
            self.root_nodes.add(survivor)
        self.parent.pop(victim, None)
        # Children of the victim re-hang under the survivor so blocking
        # ancestry stays acyclic.
        for node, parent in list(self.parent.items()):
            if parent == victim:
                self.parent[node] = survivor
        self.creation_order[survivor] = min(
            self.creation_order.get(survivor, survivor),
            self.creation_order.get(victim, victim),
        )
        self.creation_order.pop(victim, None)
        return True


@dataclass
class _Choice:
    """One nondeterministic choice point found on a stable graph.

    ``alternatives`` are plain-data descriptors (see
    :meth:`_TrailEngine._apply_choice`), one per branch, tried in order:

    * ``("add", node, concept)`` — add ``concept`` to the node label;
    * ``("nominal", node, individual)`` — resolve a multi-nominal to one
      individual (merging with its root node if bound);
    * ``("merge", victim, survivor)`` — identify two object nodes;
    * ``("data_merge", victim, survivor)`` — identify two data nodes.

    ``trigger`` lists the dependency keys of the facts whose presence
    created this choice (used to seed the branch point's dependency
    set); ``None`` means the trigger is not tracked precisely and the
    choice must be assumed to depend on every open branch point.
    An empty ``alternatives`` list is a clash: the triggering disjunction
    has no open operand left.
    """

    alternatives: List[Tuple]
    trigger: Optional[List[Tuple]] = None


class Tableau:
    """Tableau satisfiability checker for one knowledge base.

    The expensive KB preprocessing (NNF of universal constraints, role
    hierarchy closure) happens once in the constructor; each
    :meth:`is_satisfiable` call explores a fresh completion graph, with
    optional extra assertions (used for entailment-by-refutation).

    Every KB axiom is assigned a negative *axiom tag* threaded through
    the trail engine's per-fact dependency sets alongside the
    non-negative branch-point levels.  After an unsatisfiable run,
    :attr:`last_unsat_core` holds the axioms whose tags reached the
    final clash — an unsat-core *seed* for justification search
    (callers re-verify it; see :mod:`repro.explain.justify`).  Axioms
    acting through preprocessed closures (role inclusions,
    transitivity, datatype role inclusions) are not tracked
    individually and are always included in the core.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_branches: int = DEFAULT_MAX_BRANCHES,
        use_bcp: bool = True,
        use_absorption: bool = True,
        stats: Optional["ReasonerStats"] = None,
    ):
        """Compile ``kb`` into a reusable satisfiability engine.

        ``use_bcp`` / ``use_absorption`` toggle the two switchable
        optimisations (ablation studies only).  Every axiom is tagged so
        refutations expose :attr:`last_unsat_core` and clash traces: the
        cores feed both explanation seeding and the dependency sets
        behind fine-grained cache invalidation, and the per-run cost is
        O(probes) since the KB tag table is shared across runs.
        """
        self.kb = kb
        self.max_nodes = max_nodes
        self.max_branches = max_branches
        #: Optional shared counters (runs, branches) updated by every call.
        self.stats = stats
        #: Boolean constraint propagation on disjunctions (fail-first +
        #: immediate-clash screening).  Disable only for ablation studies.
        self.use_bcp = use_bcp
        #: Absorption: inclusions with an atomic left side fire lazily
        #: (``A in label -> add C``) instead of contributing a universal
        #: disjunction to every node.  Sound and complete because the
        #: canonical model interprets atomic concepts by their labels.
        self.use_absorption = use_absorption
        self.hierarchy = kb.role_superroles()
        self.data_hierarchy = self._datatype_hierarchy()
        self.transitive = kb.transitive_roles()
        #: Provenance bookkeeping: axiom <-> negative tag, and the tags
        #: each preprocessed TBox constraint carries into the search.
        self._axiom_tags: Dict[int, object] = {}
        self._tag_of: Dict[object, int] = {}
        self.universal_deps: Dict[Concept, FrozenSet[int]] = {}
        self.absorbed_deps: Dict[Tuple, FrozenSet[int]] = {}
        self.last_unsat_core: Optional[FrozenSet] = None
        for axiom in kb.axioms():
            if axiom not in self._tag_of:
                tag = -(len(self._tag_of) + 1)
                self._tag_of[axiom] = tag
                self._axiom_tags[tag] = axiom
        #: Axioms whose effect flows through preprocessed closures
        #: (hierarchies, transitivity); never tracked per-fact, always
        #: part of any reported core.
        self._background_axioms = frozenset(
            itertools.chain(
                kb.role_inclusions,
                kb.datatype_role_inclusions,
                kb.transitivity_axioms,
            )
        )
        self.universal: List[Concept] = []
        self.absorbed: Dict[AtomicConcept, List[Concept]] = {}
        for inclusion in kb.concept_inclusions:
            tags = frozenset({self._tag_of[inclusion]})
            if use_absorption and isinstance(inclusion.sub, AtomicConcept):
                consequence = nnf(inclusion.sup)
                self.absorbed.setdefault(inclusion.sub, []).append(consequence)
                akey = (inclusion.sub, consequence)
                self.absorbed_deps[akey] = self.absorbed_deps.get(akey, EMPTY) | tags
            else:
                constraint = nnf(
                    Or.of(negation_nnf(inclusion.sub), inclusion.sup)
                )
                self.universal.append(constraint)
                self.universal_deps[constraint] = (
                    self.universal_deps.get(constraint, EMPTY) | tags
                )
        self._branches_used = 0
        #: The active budget meter of the current run (None = unbudgeted).
        self._meter: Optional[BudgetMeter] = None
        self._sort_keys: Dict[Concept, str] = {}
        # Per-run provenance/trace state (populated by is_satisfiable).
        # The KB tag table itself is shared read-only across runs; only
        # the probe-tag overlay is per-run (see _prepare_run_tags).
        self._active_trace = None
        self._run_tag_axioms: Dict[int, object] = self._axiom_tags
        self._run_tags: FrozenSet[int] = frozenset(self._axiom_tags)
        self._pending_init_deps: Dict[Tuple, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def is_satisfiable(
        self,
        extra_assertions: Iterable = (),
        trace=None,
        meter: Optional[BudgetMeter] = None,
    ) -> bool:
        """Whether the KB (plus optional extra ABox axioms) has a model.

        ``trace``, when given, is a :class:`repro.explain.model.Trace`
        that records the run's structured search events.

        ``meter``, when given, is a :class:`~repro.dl.budget.BudgetMeter`
        ticked once per expansion pass, per node the pass visits, and per
        branch; an exhausted budget aborts the run with
        :class:`~repro.dl.errors.BudgetExceeded`.  The same meter may
        span several runs, so cumulative limits (deadline, branches,
        trail) govern a whole service call.

        Each run is wrapped in a ``tableau_run`` observability span
        (probe count, verdict, and the stats counters it incremented);
        with tracing disabled the wrapper is a no-op.
        """
        with obs_span("tableau_run", stats=self.stats) as span:
            result = self._run_satisfiable(extra_assertions, trace, meter, span)
            span.set("satisfiable", result)
            return result

    def _run_satisfiable(
        self,
        extra_assertions: Iterable,
        trace,
        meter: Optional[BudgetMeter],
        span,
    ) -> bool:
        self._meter = meter
        if self.stats is not None:
            self.stats.tableau_runs += 1
        self._complete_graph: Optional[_Graph] = None
        self.last_unsat_core = None
        self._active_trace = trace
        if trace is not None and trace.stats is None:
            trace.stats = self.stats
        extra = list(extra_assertions)
        span.set("probes", len(extra))
        record: List = []
        self._prepare_run_tags(extra)
        graph = self._initial_graph(extra, record)
        if graph is None:
            # Only SameIndividual/DifferentIndividuals conflicts abort
            # graph construction, so they bound the core seed.
            self.last_unsat_core = frozenset(
                itertools.chain(
                    self.kb.same_individuals, self.kb.different_individuals
                )
            )
            if trace is not None:
                trace.emit("verdict", (False,))
            return False
        self._pending_init_deps = self._seed_provenance(graph, extra, record)
        if trace is not None:
            trace.emit(
                "init", (len(graph.labels), len(self._pending_init_deps))
            )
        self._branches_used = 0
        engine = _TrailEngine(self, graph)
        try:
            result = engine.solve()
            if not result:
                self.last_unsat_core = self._resolve_core(engine.final_clash)
            if trace is not None:
                trace.emit("verdict", (result,))
            return result
        finally:
            if self.stats is not None:
                self.stats.trail_length += engine.trail_total

    def _prepare_run_tags(self, extra: List) -> None:
        """Assign fresh (negative) tags to this run's probe assertions.

        Probe tags live in a small per-run overlay chained in front of
        the shared KB tag table, so preparation costs O(|probes|), not
        O(|KB|).  ``_run_tags`` (consumed by the conservative
        depends-on-everything clash paths) deliberately stays the KB
        tag set alone: probe tags never survive into unsat cores, and
        the branch-level arithmetic filters on sign, not membership.
        """
        self._probe_tag_of: Dict[object, int] = {}
        next_tag = -(len(self._axiom_tags) + 1)
        probe_tags: Dict[int, object] = {}
        for axiom in extra:
            if axiom in self._tag_of or axiom in self._probe_tag_of:
                continue
            self._probe_tag_of[axiom] = next_tag
            probe_tags[next_tag] = axiom
            next_tag -= 1
        if probe_tags:
            self._run_tag_axioms = ChainMap(probe_tags, self._axiom_tags)
        else:
            self._run_tag_axioms = self._axiom_tags

    def _seed_provenance(
        self, graph: _Graph, extra: List, record: List
    ) -> Dict[Tuple, FrozenSet[int]]:
        """Initial-fact dependency map: trail fact key -> axiom tags.

        Keys are computed against the *final* root bindings (after the
        SameIndividual merges of graph construction), so they match the
        facts the trail engine actually sees.
        """
        from .axioms import (
            ConceptAssertion,
            DataAssertion,
            DifferentIndividuals,
            NegativeRoleAssertion,
            RoleAssertion,
            SameIndividual,
        )

        out: Dict[Tuple, Set[int]] = {}
        data_nodes = iter(record)

        def note(key: Tuple, tag: int) -> None:
            out.setdefault(key, set()).add(tag)

        for axiom in itertools.chain(self.kb.abox(), extra):
            tag = self._tag_of.get(axiom)
            if tag is None:
                tag = self._probe_tag_of.get(axiom)
            if isinstance(axiom, DataAssertion):
                recorded_axiom, data_node = next(data_nodes)
                assert recorded_axiom is axiom
            if tag is None:
                continue
            if isinstance(axiom, ConceptAssertion):
                node = graph.roots[axiom.individual]
                note(("L", node, nnf(axiom.concept)), tag)
            elif isinstance(axiom, RoleAssertion):
                source, target, role = axiom.source, axiom.target, axiom.role
                if role.is_inverse:
                    source, target, role = target, source, role.named
                note(("E", graph.roots[source], graph.roots[target], role), tag)
            elif isinstance(axiom, NegativeRoleAssertion):
                normalised = axiom.normalised()
                note(
                    (
                        "F",
                        graph.roots[normalised.source],
                        graph.roots[normalised.target],
                        normalised.role,
                    ),
                    tag,
                )
            elif isinstance(axiom, DataAssertion):
                note(("DN", data_node), tag)
                note(
                    (
                        "DL",
                        data_node,
                        _ExactValue(axiom.value.datatype, axiom.value.lexical),
                    ),
                    tag,
                )
                note(
                    ("DE", graph.roots[axiom.source], data_node, axiom.role),
                    tag,
                )
            elif isinstance(axiom, SameIndividual):
                # The merge's effects spread over the surviving node;
                # over-approximate by tagging the node's existence.
                note(("N", graph.roots[axiom.left]), tag)
            elif isinstance(axiom, DifferentIndividuals):
                pair = frozenset(
                    {graph.roots[axiom.left], graph.roots[axiom.right]}
                )
                note(("NEQ", pair), tag)
        return {key: frozenset(tags) for key, tags in out.items()}

    def _resolve_core(self, clash: FrozenSet[int]) -> FrozenSet:
        """Map final-clash tags back to KB axioms (probe tags dropped)."""
        core = {
            self._axiom_tags[tag]
            for tag in clash
            if tag < 0 and tag in self._axiom_tags
        }
        return frozenset(core) | self._background_axioms

    def concept_satisfiable(self, concept: Concept) -> bool:
        """Whether ``concept`` is satisfiable w.r.t. the KB."""
        from .axioms import ConceptAssertion

        probe = Individual("__probe__")
        return self.is_satisfiable([ConceptAssertion(probe, concept)])

    def extract_model(self):
        """A finite model from the last successful satisfiability run.

        Returns an :class:`~repro.semantics.interpretation.Interpretation`
        built from the completion graph, or ``None`` when no finite model
        can be read off: no successful run yet, or the candidate fails
        verification against the KB (extraction is *checked*, never
        trusted — in particular, graphs completed through blocking
        usually describe infinite canonical models and fail the check).

        Construction: alive nodes form the domain; atomic concept labels
        give concept extensions; role extensions start from
        hierarchy-expanded neighbour pairs and are closed under
        transitivity and sub-role propagation to a fixpoint; data values
        come from the witness assignment of the final concrete-domain
        check.
        """
        from ..semantics.interpretation import Interpretation

        graph = getattr(self, "_complete_graph", None)
        if graph is None:
            return None
        nodes = graph.nodes()
        concept_ext = {
            concept: frozenset(
                node
                for node in nodes
                if concept in graph.labels[node]
            )
            for concept in self.kb.concepts_in_signature()
        }
        named_roles = sorted(self.kb.object_roles_in_signature())
        role_ext: Dict[AtomicRole, Set[Tuple[NodeId, NodeId]]] = {
            role: {
                (x, y)
                for x in nodes
                for y in graph.neighbours(x, role, self.hierarchy)
            }
            for role in named_roles
        }
        changed = True
        while changed:
            changed = False
            for role in named_roles:
                if self.kb.is_transitive(role):
                    closed = _transitive_closure(role_ext[role])
                    if closed != role_ext[role]:
                        role_ext[role] = closed
                        changed = True
            for inclusion in self.kb.role_inclusions:
                sub_pairs = _role_expression_pairs(role_ext, inclusion.sub)
                sup_name = inclusion.sup.named
                oriented = (
                    {(y, x) for (x, y) in sub_pairs}
                    if inclusion.sup.is_inverse
                    else sub_pairs
                )
                if not oriented <= role_ext.get(sup_name, set()):
                    role_ext.setdefault(sup_name, set()).update(oriented)
                    changed = True
        data_role_ext: Dict[DatatypeRole, Set] = {}
        assignment = getattr(self, "_data_assignment", {})
        for (node, data_node), roles in graph.data_edges.items():
            value = assignment.get(data_node)
            if value is None:
                continue
            for role in roles:
                for super_role in self.data_hierarchy.get(
                    role, frozenset({role})
                ):
                    data_role_ext.setdefault(super_role, set()).add(
                        (node, value)
                    )
        interpretation = Interpretation(
            domain=frozenset(nodes),
            concept_ext={c: frozenset(e) for c, e in concept_ext.items()},
            role_ext={r: frozenset(e) for r, e in role_ext.items()},
            data_role_ext={
                u: frozenset(e) for u, e in data_role_ext.items()
            },
            individual_map={
                individual: node
                for individual, node in graph.roots.items()
                if node in graph.labels
            },
        )
        if not interpretation.is_model(self.kb):
            return None
        return interpretation

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _datatype_hierarchy(self) -> Dict[DatatypeRole, FrozenSet[DatatypeRole]]:
        edges: Dict[DatatypeRole, Set[DatatypeRole]] = {}
        roles: Set[DatatypeRole] = set(self.kb.datatype_roles_in_signature())
        for inclusion in self.kb.datatype_role_inclusions:
            edges.setdefault(inclusion.sub, set()).add(inclusion.sup)
            roles |= {inclusion.sub, inclusion.sup}
        closure: Dict[DatatypeRole, FrozenSet[DatatypeRole]] = {}
        for role in roles:
            reached = {role}
            frontier = [role]
            while frontier:
                current = frontier.pop()
                for nxt in edges.get(current, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            closure[role] = frozenset(reached)
        return closure

    def _initial_graph(
        self, extra_assertions: Iterable, record: List
    ) -> Optional[_Graph]:
        from .axioms import (
            ConceptAssertion,
            DataAssertion,
            DifferentIndividuals,
            NegativeRoleAssertion,
            RoleAssertion,
            SameIndividual,
        )

        graph = _Graph()
        individuals = set(self.kb.individuals_in_signature())
        extra = list(extra_assertions)
        for axiom in extra:
            if isinstance(axiom, ConceptAssertion):
                individuals.add(axiom.individual)
            elif isinstance(axiom, (RoleAssertion, NegativeRoleAssertion)):
                individuals |= {axiom.source, axiom.target}
            elif isinstance(axiom, (SameIndividual, DifferentIndividuals)):
                individuals |= {axiom.left, axiom.right}
            elif isinstance(axiom, DataAssertion):
                individuals.add(axiom.source)
        if not individuals:
            individuals = {Individual("__root__")}
        for individual in sorted(individuals):
            node = graph.new_node(None)
            graph.roots[individual] = node
            graph.root_nodes.add(node)
            graph.labels[node].add(OneOf(frozenset({individual})))

        def node_of(individual: Individual) -> NodeId:
            return graph.roots[individual]

        for axiom in itertools.chain(self.kb.abox(), extra):
            if isinstance(axiom, ConceptAssertion):
                graph.labels[node_of(axiom.individual)].add(nnf(axiom.concept))
            elif isinstance(axiom, RoleAssertion):
                graph.add_edge(
                    node_of(axiom.source), node_of(axiom.target), axiom.role
                )
            elif isinstance(axiom, NegativeRoleAssertion):
                normalised = axiom.normalised()
                named = normalised.role
                assert isinstance(named, AtomicRole)
                graph.forbidden.setdefault(
                    (node_of(normalised.source), node_of(normalised.target)),
                    set(),
                ).add(named)
            elif isinstance(axiom, DataAssertion):
                data_node = graph.new_data_node()
                # Provenance seeding needs to know which data node each
                # assertion created (see _seed_provenance).
                record.append((axiom, data_node))
                graph.data_labels[data_node].add(
                    _ExactValue(axiom.value.datatype, axiom.value.lexical)
                )
                graph.data_edges.setdefault(
                    (node_of(axiom.source), data_node), set()
                ).add(axiom.role)
            elif isinstance(axiom, SameIndividual):
                if not graph.merge(
                    node_of(axiom.left), node_of(axiom.right)
                ):
                    return None
            elif isinstance(axiom, DifferentIndividuals):
                left, right = node_of(axiom.left), node_of(axiom.right)
                if left == right:
                    return None
                graph.set_distinct(left, right)
        return graph

    # ------------------------------------------------------------------
    # Search driver
    # ------------------------------------------------------------------
    def _use_branch(self) -> None:
        """Count one explored branch against the shared budget."""
        self._branches_used += 1
        if self.stats is not None:
            self.stats.branches_explored += 1
        if self._branches_used > self.max_branches:
            raise BudgetExceeded(
                f"tableau exceeded {self.max_branches} branches",
                DegradationReason.BRANCHES,
            )
        if self._meter is not None:
            self._meter.note_branch()

    def _node_cap(self) -> int:
        """The effective per-run node cap (budget tightens, never loosens)."""
        meter = self._meter
        if meter is not None and meter.max_nodes is not None:
            return min(self.max_nodes, meter.max_nodes)
        return self.max_nodes

    def _check_nodes(self, graph: _Graph) -> None:
        """Abort when the completion graph outgrew the node cap."""
        cap = self._node_cap()
        if len(graph.labels) > cap:
            raise BudgetExceeded(
                f"tableau exceeded {cap} nodes", DegradationReason.NODES
            )

    # ------------------------------------------------------------------
    # Graph queries shared by the trail engine's rules
    # ------------------------------------------------------------------
    def _chain_reachable(
        self, graph: _Graph, source: NodeId, target: NodeId, role: ObjectRole
    ) -> bool:
        """Whether ``target`` is reachable from ``source`` by >= 1 step of
        ``role``-neighbour edges (a transitive role's closure)."""
        frontier = [source]
        seen: Set[NodeId] = set()
        while frontier:
            current = frontier.pop()
            for neighbour in graph.neighbours(current, role, self.hierarchy):
                if neighbour == target:
                    return True
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return False

    def _nominal_holders(self, graph: _Graph) -> Dict[OneOf, List[NodeId]]:
        holders: Dict[OneOf, List[NodeId]] = {}
        for node in graph.nodes():
            for concept in graph.labels[node]:
                if isinstance(concept, OneOf) and len(concept.individuals) == 1:
                    holders.setdefault(concept, []).append(node)
        return holders

    @staticmethod
    def _has_n_pairwise_distinct(
        graph: _Graph, nodes: Set[NodeId], n: int
    ) -> bool:
        """Whether ``nodes`` contains ``n`` provably pairwise-distinct members.

        Exact maximum-clique on the distinctness graph is exponential; for
        the small neighbour sets the tableau produces a greedy clique is
        computed over every start node, which is exact for the cliques of
        size <= 3 that unqualified SHOIN restrictions generate in practice.
        """
        if n <= 0:
            return True
        if len(nodes) < n:
            return False
        ordered = sorted(nodes)
        for start in ordered:
            clique = [start]
            for candidate in ordered:
                if candidate in clique:
                    continue
                if all(graph.are_distinct(candidate, member) for member in clique):
                    clique.append(candidate)
                if len(clique) >= n:
                    return True
        return False

    @staticmethod
    def _max_pairwise_distinct_data(graph: _Graph, nodes: Set[NodeId]) -> int:
        ordered = sorted(nodes)
        best = 1 if ordered else 0
        for start in ordered:
            clique = [start]
            for candidate in ordered:
                if candidate in clique:
                    continue
                if all(
                    frozenset({candidate, member}) in graph.data_distinct
                    for member in clique
                ):
                    clique.append(candidate)
            best = max(best, len(clique))
        return best

    # ------------------------------------------------------------------
    # Nondeterministic choices
    # ------------------------------------------------------------------
    def _find_choice(
        self, graph: _Graph, blocked: Set[NodeId]
    ) -> Optional[_Choice]:
        """The next choice point on a stable graph, or ``None`` (complete).

        Disjunctions are screened by Boolean constraint propagation:
        operands that clash immediately with the node label are dropped,
        and among all open disjunctions the one with the fewest open
        operands is branched first (fail-first).  A disjunction with no
        open operand returns a choice with an empty alternative list,
        failing the branch without further search.
        """
        best_or: Optional[_Choice] = None
        for node in graph.nodes():
            label = graph.labels[node]
            for concept in sorted(label, key=self._sort_key):
                if isinstance(concept, Or) and not any(
                    operand in label for operand in concept.operands
                ):
                    if not self.use_bcp:
                        return _Choice(
                            [("add", node, operand) for operand in concept.operands],
                            [("N", node), ("L", node, concept)],
                        )
                    open_operands = []
                    trigger = [("N", node), ("L", node, concept)]
                    for operand in concept.operands:
                        if not self._immediately_clashes(graph, node, operand):
                            open_operands.append(operand)
                        elif isinstance(operand, AtomicConcept):
                            # Screened by Not(operand) in the label.
                            trigger.append(("L", node, Not(operand)))
                        elif isinstance(operand, Not):
                            # Screened by the un-negated atom in the label.
                            trigger.append(("L", node, operand.operand))
                        # A Bottom operand clashes unconditionally.
                    if not open_operands:
                        return _Choice([], trigger)
                    if best_or is None or len(open_operands) < len(
                        best_or.alternatives
                    ):
                        best_or = _Choice(
                            [("add", node, operand) for operand in open_operands],
                            trigger,
                        )
                        if len(best_or.alternatives) == 1:
                            return best_or
                # Nominal choice: {o1,...,ok} with k > 1, not yet resolved
                # by a singleton nominal already in the label.
                if isinstance(concept, OneOf) and len(concept.individuals) > 1:
                    resolved = any(
                        isinstance(other, OneOf)
                        and len(other.individuals) == 1
                        and other.individuals <= concept.individuals
                        for other in label
                    )
                    if not resolved:
                        return _Choice(
                            [
                                ("nominal", node, individual)
                                for individual in sorted(concept.individuals)
                            ],
                            [("N", node), ("L", node, concept)],
                        )
        if best_or is not None:
            return best_or
        for node in graph.nodes():
            label = graph.labels[node]
            # choose-rule: a qualified at-most needs every neighbour's
            # filler membership decided before counting is meaningful.
            for concept in sorted(label, key=self._sort_key):
                if isinstance(concept, QualifiedAtMost):
                    negated = negation_nnf(concept.filler)
                    for neighbour in sorted(
                        graph.neighbours(node, concept.role, self.hierarchy)
                    ):
                        neighbour_label = graph.labels[neighbour]
                        if (
                            concept.filler not in neighbour_label
                            and negated not in neighbour_label
                        ):
                            return _Choice(
                                [
                                    ("add", neighbour, concept.filler),
                                    ("add", neighbour, negated),
                                ]
                            )
            if node in blocked:
                continue
            # <=-rule: choose two non-distinct neighbours to merge.
            for concept in sorted(label, key=self._sort_key):
                if isinstance(concept, QualifiedAtMost):
                    matching = {
                        y
                        for y in graph.neighbours(
                            node, concept.role, self.hierarchy
                        )
                        if concept.filler in graph.labels[y]
                    }
                    if len(matching) > concept.n:
                        pairs = [
                            (a, b)
                            for a, b in itertools.combinations(sorted(matching), 2)
                            if not graph.are_distinct(a, b)
                        ]
                        if pairs:
                            return _Choice(
                                [self._merge_descriptor(a, b, graph) for a, b in pairs]
                            )
                if isinstance(concept, AtMost):
                    neighbours = graph.neighbours(node, concept.role, self.hierarchy)
                    if len(neighbours) > concept.n:
                        pairs = [
                            (a, b)
                            for a, b in itertools.combinations(sorted(neighbours), 2)
                            if not graph.are_distinct(a, b)
                        ]
                        if pairs:
                            return _Choice(
                                [self._merge_descriptor(a, b, graph) for a, b in pairs]
                            )
                if isinstance(concept, DataAtMost):
                    neighbours = graph.data_neighbours(
                        node, concept.role, self.data_hierarchy
                    )
                    if len(neighbours) > concept.n:
                        pairs = [
                            (a, b)
                            for a, b in itertools.combinations(sorted(neighbours), 2)
                            if frozenset({a, b}) not in graph.data_distinct
                        ]
                        if pairs:
                            return _Choice(
                                [
                                    ("data_merge", max(a, b), min(a, b))
                                    for a, b in pairs
                                ]
                            )
        return None

    def _sort_key(self, concept: Concept) -> str:
        """A cached deterministic ordering key for label iteration."""
        key = self._sort_keys.get(concept)
        if key is None:
            key = repr(concept)
            self._sort_keys[concept] = key
        return key

    @staticmethod
    def _immediately_clashes(graph: _Graph, node: NodeId, concept: Concept) -> bool:
        """Whether adding ``concept`` to the node label clashes on the spot.

        Sound screening only (NNF literals): ``Bottom``, an atom whose
        negation is present, or a negated atom whose atom is present.
        """
        label = graph.labels[node]
        if isinstance(concept, Bottom):
            return True
        if isinstance(concept, AtomicConcept):
            return Not(concept) in label
        if isinstance(concept, Not) and isinstance(concept.operand, AtomicConcept):
            return concept.operand in label
        return False

    @staticmethod
    def _merge_descriptor(left: NodeId, right: NodeId, graph: _Graph) -> Tuple:
        """A ``("merge", victim, survivor)`` descriptor for two nodes.

        Merges the younger (and preferably blockable) node into the older.
        """
        order = graph.creation_order
        survivor, victim = (left, right) if order[left] <= order[right] else (right, left)
        if graph.is_root(victim) and not graph.is_root(survivor):
            survivor, victim = victim, survivor
        return ("merge", victim, survivor)

    # ------------------------------------------------------------------
    # Final (datatype) checks
    # ------------------------------------------------------------------
    def _final_checks(self, graph: _Graph) -> bool:
        """Check the concrete domain: every data node needs a value, and
        pairwise-distinct nodes need distinct values."""
        assigned: Dict[NodeId, object] = {}
        for node in sorted(graph.data_labels):
            ranges = list(graph.data_labels[node])
            taboo = {
                assigned[other]
                for other in assigned
                if frozenset({node, other}) in graph.data_distinct
            }
            witnesses = find_witnesses(ranges, count=len(taboo) + 1)
            if witnesses is None:
                return False
            chosen = next((w for w in witnesses if w not in taboo), None)
            if chosen is None:
                return False
            assigned[node] = chosen
        self._data_assignment = assigned
        self._complete_graph = graph
        return True


#: The empty dependency set (facts present since graph initialisation).
EMPTY: FrozenSet[int] = frozenset()


@dataclass
class _ChoicePoint:
    """One open branch point on the trail engine's search stack.

    ``mark`` is the trail length when the point was pushed (rolling back
    to it restores the exact graph the choice was found on); ``base_deps``
    are the branch-point levels the *existence* of the choice depends on;
    ``failure_deps`` accumulates the dependency sets of failed
    alternatives (minus this point's own level) for backjump propagation.
    """

    level: int
    mark: int
    alternatives: List[Tuple]
    base_deps: FrozenSet[int]
    index: int = 0
    failure_deps: Set[int] = field(default_factory=set)


class _TrailEngine:
    """In-place tableau search with a trail and dependency-directed
    backjumping.

    The engine mutates one :class:`_Graph`; every effect pushes an undo
    entry on ``trail``.  Alongside the graph it keeps ``deps``: for every
    derived fact, the frozenset of branch-point levels its derivation
    used (facts from the initial graph have the empty set and are simply
    absent from the mapping).  On a clash, the union of the participating
    facts' dependency sets tells the search the deepest branch point the
    clash can possibly be fixed at; everything above is rolled back and
    its untried alternatives discarded (``branch_points_skipped``).  An
    empty clash dependency set proves unsatisfiability outright.

    Dependency sets are deliberately over-approximated where precise
    tracking would be costly (transitive-role chains, merge and
    choose-rule choices, concrete-domain failures); an over-approximation
    only reduces how far a jump goes, never its soundness.

    Fact keys in ``deps``:

    * ``("N", node)`` / ``("DN", node)`` — (data) node existence;
    * ``("L", node, concept)`` / ``("DL", node, range)`` — label facts;
    * ``("E", s, t, role)`` / ``("DE", s, t, role)`` — edge facts
      (object edges keyed in stored named-role direction);
    * ``("NEQ", pair)`` / ``("DNEQ", pair)`` — distinctness facts;
    * ``("F", s, t, role)`` — forbidden (negated role) facts;
    * ``("ROOT", individual)`` — a root binding made by a nominal choice.
    """

    def __init__(self, tableau: Tableau, graph: _Graph):
        self.t = tableau
        self.g = graph
        self.trail: List[Tuple] = []
        self.trail_total = 0
        self.deps: Dict[Tuple, FrozenSet[int]] = {}
        # Axiom provenance: negative tags live in the same dependency
        # sets as branch-point levels, and backjump arithmetic skips
        # them; the initial facts are pre-seeded (never undone — the
        # trail never rolls below mark 0).  Probe tags are excluded from
        # _tags (they never reach unsat cores).
        self._tags: FrozenSet[int] = tableau._run_tags
        self.deps.update(tableau._pending_init_deps)
        #: Dependency set of the clash that exhausted the search (only
        #: meaningful after solve() returned False).
        self.final_clash: FrozenSet[int] = EMPTY
        self.trace = tableau._active_trace
        self.stack: List[_ChoicePoint] = []
        self._last_blocked: Set[NodeId] = set()
        # Incremental blocking state: per-node monotone change counters, a
        # global epoch bumped on merges/rollbacks/root changes, and the
        # signature cache keyed on all three.
        self._versions: Dict[NodeId, int] = {n: 0 for n in graph.labels}
        self._sig_cache: Dict[NodeId, Tuple] = {}
        self._epoch = 0

    # ------------------------------------------------------------------
    # Search driver
    # ------------------------------------------------------------------
    def solve(self) -> bool:
        t = self.t
        meter = t._meter
        t._use_branch()
        reported_trail = 0
        while True:
            if meter is not None:
                meter.tick()
                if self.trail_total > reported_trail:
                    meter.note_trail(self.trail_total - reported_trail)
                    reported_trail = self.trail_total
            t._check_nodes(self.g)
            status = self._expand_once()
            if status == "changed":
                continue
            if status != "stable":
                _, clash = status
                self._trace_clash("expansion clash", clash)
                if not self._backjump(clash):
                    return False
                continue
            choice = t._find_choice(self.g, self._last_blocked)
            if choice is None:
                if t._final_checks(self.g):
                    return True
                # Concrete-domain failure: the witness search spans the
                # whole graph, so its dependencies are not tracked.
                self._trace_clash("concrete-domain failure", EMPTY)
                if not self._backjump(self._all_levels()):
                    return False
                continue
            cp = _ChoicePoint(
                level=len(self.stack),
                mark=len(self.trail),
                alternatives=choice.alternatives,
                base_deps=self._choice_base_deps(choice),
            )
            self.stack.append(cp)
            if self.trace is not None:
                self.trace.emit(
                    "choice",
                    (
                        cp.level,
                        self._describe(cp.alternatives[0])
                        if cp.alternatives
                        else "empty disjunction",
                        len(cp.alternatives),
                    ),
                    len(self.stack) - 1,
                )
            if not self._advance(cp):
                clash = frozenset(cp.base_deps | cp.failure_deps)
                self.stack.pop()
                if not self._backjump(clash):
                    return False

    def _advance(self, cp: _ChoicePoint) -> bool:
        """Apply the next untried alternative at ``cp``; False = exhausted."""
        deps = cp.base_deps | frozenset({cp.level})
        while cp.index < len(cp.alternatives):
            descriptor = cp.alternatives[cp.index]
            cp.index += 1
            if self.trace is not None:
                self.trace.emit(
                    "try",
                    (cp.level, self._describe(descriptor)),
                    len(self.stack),
                )
            clash = self._apply_choice(descriptor, deps)
            if clash is None:
                self.t._use_branch()
                return True
            self._trace_clash("alternative failed", clash)
            cp.failure_deps |= clash - {cp.level}
            self._undo_to(cp.mark)
        return False

    def _backjump(self, clash: FrozenSet[int]) -> bool:
        """Resume the search after a clash with dependency set ``clash``.

        Returns True when an alternative was applied at the deepest branch
        point in ``clash`` (search continues), False when the whole search
        space is exhausted (unsatisfiable).  Negative axiom tags ride
        along in ``clash``; only the non-negative branch-point levels
        steer the jump, and the tag part of the final clash survives in
        :attr:`final_clash` as the unsat-core seed.
        """
        stats = self.t.stats
        while True:
            levels = self._levels(clash)
            if not self.stack:
                self.final_clash = clash
                return False
            if not levels:
                # The clash depends on no choice at all: unsatisfiable
                # regardless of every pending alternative.
                if stats is not None:
                    stats.backjumps += 1
                    stats.branch_points_skipped += len(self.stack)
                self.stack.clear()
                self.final_clash = clash
                return False
            target = max(levels)
            skipped = len(self.stack) - 1 - target
            if skipped > 0:
                if stats is not None:
                    stats.backjumps += 1
                    stats.branch_points_skipped += skipped
                if self.trace is not None:
                    self.trace.emit(
                        "backjump",
                        (len(self.stack) - 1, target, skipped),
                        len(self.stack),
                    )
                del self.stack[target + 1:]
            cp = self.stack[-1]
            self._undo_to(cp.mark)
            cp.failure_deps |= clash - {cp.level}
            if self._advance(cp):
                return True
            clash = frozenset(cp.base_deps | cp.failure_deps)
            self.stack.pop()

    def _levels(self, deps: FrozenSet[int]) -> FrozenSet[int]:
        """The branch-point part of a dependency set (axiom tags dropped)."""
        return frozenset(level for level in deps if level >= 0)

    def _all_levels(self) -> FrozenSet[int]:
        return frozenset(range(len(self.stack))) | self._tags

    # ------------------------------------------------------------------
    # Trace emission
    # ------------------------------------------------------------------
    def _trace_clash(self, reason: str, clash: FrozenSet[int]) -> None:
        if self.trace is None:
            return
        axioms = self._resolve_axioms(clash)
        self.trace.emit("clash", (reason, axioms), len(self.stack))

    def _resolve_axioms(self, deps: FrozenSet[int]) -> Tuple:
        """The source axioms named by a dependency set, in KB order."""
        tag_axioms = self.t._run_tag_axioms
        return tuple(
            tag_axioms[tag]
            for tag in sorted((t for t in deps if t < 0), reverse=True)
            if tag in tag_axioms
        )

    @staticmethod
    def _describe(descriptor: Tuple) -> str:
        """A compact human-readable label for a choice descriptor."""
        from .printer import render_concept

        kind = descriptor[0]
        if kind == "add":
            return f"add {render_concept(descriptor[2])} to n{descriptor[1]}"
        if kind == "nominal":
            return f"bind n{descriptor[1]} to {descriptor[2].name}"
        if kind == "merge":
            return f"merge n{descriptor[1]} into n{descriptor[2]}"
        if kind == "data_merge":
            return f"merge data node n{descriptor[1]} into n{descriptor[2]}"
        return repr(descriptor)

    def _choice_base_deps(self, choice: _Choice) -> FrozenSet[int]:
        if choice.trigger is None:
            return self._all_levels()
        out = EMPTY
        for key in choice.trigger:
            out |= self._dep(key)
        return out

    # ------------------------------------------------------------------
    # Choice application
    # ------------------------------------------------------------------
    def _apply_choice(
        self, descriptor: Tuple, deps: FrozenSet[int]
    ) -> Optional[FrozenSet[int]]:
        """Apply one alternative; None on success, clash deps on failure."""
        g = self.g
        kind = descriptor[0]
        if kind == "add":
            _, node, concept = descriptor
            self._add_label(node, concept, deps)
            return None
        if kind == "nominal":
            _, node, individual = descriptor
            self._add_label(node, OneOf(frozenset({individual})), deps)
            existing = g.roots.get(individual)
            if existing is not None:
                if existing == node:
                    return None
                return self._merge(
                    node, existing, deps | self._dep(("ROOT", individual))
                )
            self._log(("dictset", g.roots, individual, False, None))
            g.roots[individual] = node
            self._set_deps(("ROOT", individual), deps | self._dep(("N", node)))
            if node not in g.root_nodes:
                g.root_nodes.add(node)
                self._log(("setadd", g.root_nodes, node))
                self._epoch += 1
            return None
        if kind == "merge":
            _, victim, survivor = descriptor
            return self._merge(victim, survivor, deps)
        if kind == "data_merge":
            _, victim, survivor = descriptor
            return self._merge_data(victim, survivor, deps)
        raise AssertionError(f"unknown choice descriptor {descriptor!r}")

    # ------------------------------------------------------------------
    # Trail bookkeeping
    # ------------------------------------------------------------------
    def _log(self, entry: Tuple) -> None:
        self.trail.append(entry)
        self.trail_total += 1

    def _undo_to(self, mark: int) -> None:
        trail = self.trail
        if len(trail) <= mark:
            return
        g = self.g
        deps = self.deps
        while len(trail) > mark:
            entry = trail.pop()
            op = entry[0]
            if op == "setadd":
                entry[1].discard(entry[2])
            elif op == "deps":
                _, key, old = entry
                if old is None:
                    deps.pop(key, None)
                else:
                    deps[key] = old
            elif op == "dictpop":
                entry[1][entry[2]] = entry[3]
            elif op == "dictnew":
                del entry[1][entry[2]]
            elif op == "setdel":
                entry[1].add(entry[2])
            elif op == "dictset":
                _, mapping, key, had, old = entry
                if had:
                    mapping[key] = old
                else:
                    mapping.pop(key, None)
            elif op == "node":
                node = entry[1]
                g.labels.pop(node, None)
                g.parent.pop(node, None)
                g.creation_order.pop(node, None)
                g.next_id = node
                self._versions.pop(node, None)
                self._sig_cache.pop(node, None)
            elif op == "dnode":
                node = entry[1]
                g.data_labels.pop(node, None)
                g.next_id = node
        self._epoch += 1

    def _dep(self, key: Tuple) -> FrozenSet[int]:
        return self.deps.get(key, EMPTY)

    def _set_deps(self, key: Tuple, new: FrozenSet[int]) -> None:
        old = self.deps.get(key)
        if new == old or (not new and old is None):
            return
        self._log(("deps", key, old))
        if new:
            self.deps[key] = new
        else:
            self.deps.pop(key, None)

    def _bump(self, node: NodeId) -> None:
        self._versions[node] = self._versions.get(node, 0) + 1

    # ------------------------------------------------------------------
    # Logged graph mutations
    # ------------------------------------------------------------------
    def _add_label(
        self, node: NodeId, concept: Concept, deps: FrozenSet[int]
    ) -> bool:
        label = self.g.labels[node]
        if concept in label:
            # Keep the existing (older, still-valid) justification.
            return False
        label.add(concept)
        self._log(("setadd", label, concept))
        self._bump(node)
        full = deps | self._dep(("N", node))
        if full:
            self._set_deps(("L", node, concept), full)
        if self.trace is not None:
            self.trace.emit(
                "derive", (("L", node, concept),), len(self.stack)
            )
        return True

    def _add_edge(
        self, source: NodeId, target: NodeId, role: ObjectRole, deps: FrozenSet[int]
    ) -> bool:
        if role.is_inverse:
            source, target, role = target, source, role.named
        return self._add_edge_raw(source, target, role, deps)

    def _add_edge_raw(
        self, source: NodeId, target: NodeId, role: AtomicRole, deps: FrozenSet[int]
    ) -> bool:
        edges = self.g.edges
        key = (source, target)
        roles = edges.get(key)
        if roles is None:
            roles = set()
            edges[key] = roles
            self._log(("dictnew", edges, key))
        if role in roles:
            return False
        roles.add(role)
        self._log(("setadd", roles, role))
        self._bump(source)
        self._bump(target)
        full = deps | self._dep(("N", source)) | self._dep(("N", target))
        if full:
            self._set_deps(("E", source, target, role), full)
        if self.trace is not None:
            self.trace.emit(
                "derive", (("E", source, target, role),), len(self.stack)
            )
        return True

    def _add_data_label(
        self, node: NodeId, rng: DataRange, deps: FrozenSet[int]
    ) -> bool:
        labels = self.g.data_labels[node]
        if rng in labels:
            return False
        labels.add(rng)
        self._log(("setadd", labels, rng))
        full = deps | self._dep(("DN", node))
        if full:
            self._set_deps(("DL", node, rng), full)
        if self.trace is not None:
            self.trace.emit("derive", (("DL", node, rng),), len(self.stack))
        return True

    def _add_data_edge(
        self, source: NodeId, target: NodeId, role: DatatypeRole, deps: FrozenSet[int]
    ) -> bool:
        edges = self.g.data_edges
        key = (source, target)
        roles = edges.get(key)
        if roles is None:
            roles = set()
            edges[key] = roles
            self._log(("dictnew", edges, key))
        if role in roles:
            return False
        roles.add(role)
        self._log(("setadd", roles, role))
        full = deps | self._dep(("N", source)) | self._dep(("DN", target))
        if full:
            self._set_deps(("DE", source, target, role), full)
        if self.trace is not None:
            self.trace.emit(
                "derive", (("DE", source, target, role),), len(self.stack)
            )
        return True

    def _new_node(self, parent: Optional[NodeId], deps: FrozenSet[int]) -> NodeId:
        node = self.g.new_node(parent)
        self._log(("node", node))
        self._versions[node] = 0
        if deps:
            self._set_deps(("N", node), deps)
        return node

    def _new_data_node(self, deps: FrozenSet[int]) -> NodeId:
        node = self.g.new_data_node()
        self._log(("dnode", node))
        if deps:
            self._set_deps(("DN", node), deps)
        return node

    def _set_distinct(
        self, left: NodeId, right: NodeId, deps: FrozenSet[int]
    ) -> None:
        if left == right:
            return
        pair = frozenset({left, right})
        if pair in self.g.distinct:
            return
        self.g.distinct.add(pair)
        self._log(("setadd", self.g.distinct, pair))
        if deps:
            self._set_deps(("NEQ", pair), deps)

    def _set_data_distinct(
        self, left: NodeId, right: NodeId, deps: FrozenSet[int]
    ) -> None:
        if left == right:
            return
        pair = frozenset({left, right})
        if pair in self.g.data_distinct:
            return
        self.g.data_distinct.add(pair)
        self._log(("setadd", self.g.data_distinct, pair))
        if deps:
            self._set_deps(("DNEQ", pair), deps)

    # ------------------------------------------------------------------
    # Logged merging
    # ------------------------------------------------------------------
    def _merge(
        self, victim: NodeId, survivor: NodeId, rdeps: FrozenSet[int]
    ) -> Optional[FrozenSet[int]]:
        """Merge ``victim`` into ``survivor``; clash deps on failure."""
        g = self.g
        if victim == survivor:
            return None
        pair = frozenset({victim, survivor})
        if pair in g.distinct:
            return (
                rdeps
                | self._dep(("NEQ", pair))
                | self._dep(("N", victim))
                | self._dep(("N", survivor))
            )
        # Every moved fact additionally depends on the merge reason and
        # on the victim having existed.
        base = rdeps | self._dep(("N", victim))
        victim_label = g.labels.pop(victim)
        self._log(("dictpop", g.labels, victim, victim_label))
        for concept in victim_label:
            self._add_label(
                survivor, concept, base | self._dep(("L", victim, concept))
            )
        for key in [k for k in g.edges if victim in k]:
            roles = g.edges.pop(key)
            self._log(("dictpop", g.edges, key, roles))
            source, target = key
            new_source = survivor if source == victim else source
            new_target = survivor if target == victim else target
            for role in roles:
                self._add_edge_raw(
                    new_source,
                    new_target,
                    role,
                    base | self._dep(("E", source, target, role)),
                )
        for key in [k for k in g.data_edges if k[0] == victim]:
            roles = g.data_edges.pop(key)
            self._log(("dictpop", g.data_edges, key, roles))
            for role in roles:
                self._add_data_edge(
                    survivor,
                    key[1],
                    role,
                    base | self._dep(("DE", victim, key[1], role)),
                )
        for dpair in [p for p in g.distinct if victim in p]:
            g.distinct.discard(dpair)
            self._log(("setdel", g.distinct, dpair))
            (other,) = dpair - {victim}
            moved = base | self._dep(("NEQ", dpair))
            if other == survivor:
                return moved | self._dep(("N", survivor))
            npair = frozenset({survivor, other})
            if npair not in g.distinct:
                g.distinct.add(npair)
                self._log(("setadd", g.distinct, npair))
                if moved:
                    self._set_deps(("NEQ", npair), moved)
        for key in [k for k in g.forbidden if victim in k]:
            roles = g.forbidden.pop(key)
            self._log(("dictpop", g.forbidden, key, roles))
            source, target = key
            new_source = survivor if source == victim else source
            new_target = survivor if target == victim else target
            nkey = (new_source, new_target)
            existing = g.forbidden.get(nkey)
            if existing is None:
                existing = set()
                g.forbidden[nkey] = existing
                self._log(("dictnew", g.forbidden, nkey))
            for role in roles:
                if role not in existing:
                    existing.add(role)
                    self._log(("setadd", existing, role))
                    fdeps = base | self._dep(("F", source, target, role))
                    if fdeps:
                        self._set_deps(
                            ("F", new_source, new_target, role), fdeps
                        )
        for individual in [i for i, n in g.roots.items() if n == victim]:
            self._log(("dictset", g.roots, individual, True, victim))
            g.roots[individual] = survivor
            rd = base | self._dep(("ROOT", individual))
            if rd:
                self._set_deps(("ROOT", individual), rd)
        if victim in g.root_nodes:
            g.root_nodes.discard(victim)
            self._log(("setdel", g.root_nodes, victim))
            if survivor not in g.root_nodes:
                g.root_nodes.add(survivor)
                self._log(("setadd", g.root_nodes, survivor))
        if victim in g.parent:
            self._log(("dictset", g.parent, victim, True, g.parent[victim]))
            g.parent.pop(victim)
        # Children of the victim re-hang under the survivor so blocking
        # ancestry stays acyclic.
        for child in [c for c, p in g.parent.items() if p == victim]:
            self._log(("dictset", g.parent, child, True, victim))
            g.parent[child] = survivor
        old_order = g.creation_order.get(survivor, survivor)
        new_order = min(old_order, g.creation_order.get(victim, victim))
        if new_order != old_order:
            self._log(("dictset", g.creation_order, survivor, True, old_order))
            g.creation_order[survivor] = new_order
        if victim in g.creation_order:
            self._log(
                ("dictset", g.creation_order, victim, True, g.creation_order[victim])
            )
            g.creation_order.pop(victim)
        self._bump(survivor)
        self._epoch += 1
        return None

    def _merge_data(
        self, victim: NodeId, survivor: NodeId, rdeps: FrozenSet[int]
    ) -> Optional[FrozenSet[int]]:
        g = self.g
        if victim == survivor:
            return None
        pair = frozenset({victim, survivor})
        if pair in g.data_distinct:
            return (
                rdeps
                | self._dep(("DNEQ", pair))
                | self._dep(("DN", victim))
                | self._dep(("DN", survivor))
            )
        base = rdeps | self._dep(("DN", victim))
        victim_labels = g.data_labels.pop(victim)
        self._log(("dictpop", g.data_labels, victim, victim_labels))
        for rng in victim_labels:
            self._add_data_label(
                survivor, rng, base | self._dep(("DL", victim, rng))
            )
        for key in [k for k in g.data_edges if k[1] == victim]:
            roles = g.data_edges.pop(key)
            self._log(("dictpop", g.data_edges, key, roles))
            for role in roles:
                self._add_data_edge(
                    key[0],
                    survivor,
                    role,
                    base | self._dep(("DE", key[0], victim, role)),
                )
        for dpair in [p for p in g.data_distinct if victim in p]:
            g.data_distinct.discard(dpair)
            self._log(("setdel", g.data_distinct, dpair))
            (other,) = dpair - {victim}
            moved = base | self._dep(("DNEQ", dpair))
            if other == survivor:
                return moved | self._dep(("DN", survivor))
            npair = frozenset({survivor, other})
            if npair not in g.data_distinct:
                g.data_distinct.add(npair)
                self._log(("setadd", g.data_distinct, npair))
                if moved:
                    self._set_deps(("DNEQ", npair), moved)
        return None

    # ------------------------------------------------------------------
    # Deterministic expansion
    # ------------------------------------------------------------------
    def _expand_once(self):
        """One deterministic expansion pass.

        Returns ``"changed"``, ``"stable"``, or ``("clash", deps)``.
        Rules fire node by node in a fixed order: clash check, the
        and-rule with absorbed inclusions and the universal constraints,
        then the all-/all+-rules, then (on unblocked nodes) the
        generating rules; a node that changed ends its turn early.
        Nominal identification runs after the node sweep.

        The budget meter ticks once per node visited: a single pass over
        a large ABox can take longer than a whole deadline.
        """
        t, g = self.t, self.g
        meter = t._meter
        changed = False
        for (source, target), roles in g.forbidden.items():
            if source not in g.labels or target not in g.labels:
                continue
            for role in roles:
                if target in g.neighbours(source, role, t.hierarchy):
                    return (
                        "clash",
                        self._dep(("F", source, target, role))
                        | self._pair_edge_deps(source, target)
                        | self._dep(("N", source))
                        | self._dep(("N", target)),
                    )
                for sub_role, supers in t.hierarchy.items():
                    if role not in supers or not t.kb.is_transitive(sub_role):
                        continue
                    if t._chain_reachable(g, source, target, sub_role):
                        # The chain may thread through many edges; deps
                        # are not tracked along it.
                        return ("clash", self._all_levels())
        blocked = self._blocked_nodes()
        self._last_blocked = blocked
        for node in g.nodes():
            if meter is not None:
                meter.tick()
            label = g.labels[node]
            clash = self._clash_deps(node)
            if clash is not None:
                return ("clash", clash)
            for concept in list(label):
                if isinstance(concept, Top):
                    continue
                if isinstance(concept, And):
                    cdeps = self._dep(("L", node, concept))
                    for operand in concept.operands:
                        if self._add_label(node, operand, cdeps):
                            changed = True
                # Absorbed inclusions: A in label fires its definitions.
                if isinstance(concept, AtomicConcept):
                    consequences = t.absorbed.get(concept, ())
                    if consequences:
                        cdeps = self._dep(("L", node, concept))
                        for consequence in consequences:
                            adeps = cdeps | t.absorbed_deps[(concept, consequence)]
                            if self._add_label(node, consequence, adeps):
                                changed = True
            # Universal (internalised TBox) constraints, each carrying the
            # tags of the inclusions it internalises.
            universal_deps = t.universal_deps
            for constraint in t.universal:
                if self._add_label(node, constraint, universal_deps[constraint]):
                    changed = True
            if changed:
                continue
            # all-rule and all+-rule.
            for concept in list(label):
                if isinstance(concept, Forall):
                    cdeps = self._dep(("L", node, concept)) | self._dep(
                        ("N", node)
                    )
                    for neighbour in g.neighbours(
                        node, concept.role, t.hierarchy
                    ):
                        if self._add_label(
                            neighbour,
                            concept.filler,
                            cdeps | self._pair_edge_deps(node, neighbour),
                        ):
                            changed = True
                    if self._propagate_transitive(node, concept, cdeps):
                        changed = True
                elif isinstance(concept, DataForall):
                    cdeps = self._dep(("L", node, concept)) | self._dep(
                        ("N", node)
                    )
                    for neighbour in g.data_neighbours(
                        node, concept.role, t.data_hierarchy
                    ):
                        if self._add_data_label(
                            neighbour,
                            concept.range,
                            cdeps | self._data_edge_deps(node, neighbour),
                        ):
                            changed = True
            if changed:
                continue
            if node in blocked:
                continue
            # some-rule.
            for concept in list(label):
                if isinstance(concept, Exists):
                    if not any(
                        concept.filler in g.labels[n]
                        for n in g.neighbours(node, concept.role, t.hierarchy)
                    ):
                        cdeps = self._dep(("L", node, concept)) | self._dep(
                            ("N", node)
                        )
                        fresh = self._new_node(node, cdeps)
                        self._add_edge(node, fresh, concept.role, cdeps)
                        self._add_label(fresh, concept.filler, cdeps)
                        changed = True
                elif isinstance(concept, AtLeast):
                    neighbours = g.neighbours(node, concept.role, t.hierarchy)
                    if not t._has_n_pairwise_distinct(g, neighbours, concept.n):
                        cdeps = self._dep(("L", node, concept)) | self._dep(
                            ("N", node)
                        )
                        fresh_nodes = []
                        for _ in range(concept.n):
                            fresh = self._new_node(node, cdeps)
                            self._add_edge(node, fresh, concept.role, cdeps)
                            fresh_nodes.append(fresh)
                        for left, right in itertools.combinations(fresh_nodes, 2):
                            self._set_distinct(left, right, cdeps)
                        if concept.n > 0:
                            changed = True
                elif isinstance(concept, QualifiedAtLeast):
                    matching = {
                        y
                        for y in g.neighbours(node, concept.role, t.hierarchy)
                        if concept.filler in g.labels[y]
                    }
                    if not t._has_n_pairwise_distinct(g, matching, concept.n):
                        cdeps = self._dep(("L", node, concept)) | self._dep(
                            ("N", node)
                        )
                        fresh_nodes = []
                        for _ in range(concept.n):
                            fresh = self._new_node(node, cdeps)
                            self._add_edge(node, fresh, concept.role, cdeps)
                            self._add_label(fresh, concept.filler, cdeps)
                            fresh_nodes.append(fresh)
                        for left, right in itertools.combinations(fresh_nodes, 2):
                            self._set_distinct(left, right, cdeps)
                        if concept.n > 0:
                            changed = True
                elif isinstance(concept, DataExists):
                    if not any(
                        concept.range in g.data_labels[n]
                        for n in g.data_neighbours(
                            node, concept.role, t.data_hierarchy
                        )
                    ):
                        cdeps = self._dep(("L", node, concept)) | self._dep(
                            ("N", node)
                        )
                        fresh = self._new_data_node(cdeps)
                        self._add_data_edge(node, fresh, concept.role, cdeps)
                        self._add_data_label(fresh, concept.range, cdeps)
                        changed = True
                elif isinstance(concept, DataAtLeast):
                    neighbours = g.data_neighbours(
                        node, concept.role, t.data_hierarchy
                    )
                    if t._max_pairwise_distinct_data(g, neighbours) < concept.n:
                        cdeps = self._dep(("L", node, concept)) | self._dep(
                            ("N", node)
                        )
                        fresh_nodes = []
                        for _ in range(concept.n):
                            fresh = self._new_data_node(cdeps)
                            self._add_data_edge(node, fresh, concept.role, cdeps)
                            self._add_data_label(fresh, DataTop(), cdeps)
                            fresh_nodes.append(fresh)
                        for left, right in itertools.combinations(fresh_nodes, 2):
                            self._set_data_distinct(left, right, cdeps)
                        if concept.n > 0:
                            changed = True
            if changed:
                continue
        # Deterministic nominal identification: two alive nodes sharing a
        # singleton nominal must be the same element.
        for concept, holders in t._nominal_holders(g).items():
            if len(holders) > 1:
                ordered = sorted(holders, key=lambda n: g.creation_order[n])
                survivor = ordered[0]
                rdeps = EMPTY
                for holder in ordered:
                    rdeps = (
                        rdeps
                        | self._dep(("L", holder, concept))
                        | self._dep(("N", holder))
                    )
                for victim in ordered[1:]:
                    clash = self._merge(victim, survivor, rdeps)
                    if clash is not None:
                        return ("clash", clash)
                return "changed"
        if changed:
            return "changed"
        return "stable"

    def _propagate_transitive(
        self, node: NodeId, concept: Forall, cdeps: FrozenSet[int]
    ) -> bool:
        """The all+-rule with dependency propagation."""
        t, g = self.t, self.g
        changed = False
        for sub_role, supers in t.hierarchy.items():
            if concept.role not in supers:
                continue
            if not t.kb.is_transitive(sub_role):
                continue
            carried = Forall(sub_role, concept.filler)
            for neighbour in g.neighbours(node, sub_role, t.hierarchy):
                if self._add_label(
                    neighbour,
                    carried,
                    cdeps | self._pair_edge_deps(node, neighbour),
                ):
                    changed = True
        return changed

    # ------------------------------------------------------------------
    # Clash detection with dependency extraction
    # ------------------------------------------------------------------
    def _clash_deps(self, node: NodeId) -> Optional[FrozenSet[int]]:
        """The clash's dependency set, or None when the node is clash-free."""
        t, g = self.t, self.g
        label = g.labels[node]
        ndeps = self._dep(("N", node))
        for concept in label:
            if isinstance(concept, Bottom):
                return ndeps | self._dep(("L", node, concept))
            if isinstance(concept, Not):
                if concept.operand in label:
                    return (
                        ndeps
                        | self._dep(("L", node, concept))
                        | self._dep(("L", node, concept.operand))
                    )
                if isinstance(concept.operand, OneOf):
                    for other in concept.operand.individuals:
                        if g.roots.get(other) == node:
                            return (
                                ndeps
                                | self._dep(("L", node, concept))
                                | self._dep(("ROOT", other))
                            )
            if isinstance(concept, AtMost):
                neighbours = g.neighbours(node, concept.role, t.hierarchy)
                if len(neighbours) > concept.n and all(
                    g.are_distinct(a, b)
                    for a, b in itertools.combinations(sorted(neighbours), 2)
                ):
                    out = ndeps | self._dep(("L", node, concept))
                    for y in neighbours:
                        out |= self._pair_edge_deps(node, y) | self._dep(
                            ("N", y)
                        )
                    for a, b in itertools.combinations(sorted(neighbours), 2):
                        out |= self._dep(("NEQ", frozenset({a, b})))
                    return out
            if isinstance(concept, QualifiedAtMost):
                matching = {
                    y
                    for y in g.neighbours(node, concept.role, t.hierarchy)
                    if concept.filler in g.labels[y]
                }
                if len(matching) > concept.n and all(
                    g.are_distinct(a, b)
                    for a, b in itertools.combinations(sorted(matching), 2)
                ):
                    out = ndeps | self._dep(("L", node, concept))
                    for y in matching:
                        out |= (
                            self._pair_edge_deps(node, y)
                            | self._dep(("N", y))
                            | self._dep(("L", y, concept.filler))
                        )
                    for a, b in itertools.combinations(sorted(matching), 2):
                        out |= self._dep(("NEQ", frozenset({a, b})))
                    return out
            if isinstance(concept, DataAtMost):
                neighbours = g.data_neighbours(
                    node, concept.role, t.data_hierarchy
                )
                if len(neighbours) > concept.n and all(
                    frozenset({a, b}) in g.data_distinct
                    for a, b in itertools.combinations(sorted(neighbours), 2)
                ):
                    out = ndeps | self._dep(("L", node, concept))
                    for y in neighbours:
                        out |= self._data_edge_deps(node, y) | self._dep(
                            ("DN", y)
                        )
                    for a, b in itertools.combinations(sorted(neighbours), 2):
                        out |= self._dep(("DNEQ", frozenset({a, b})))
                    return out
        return None

    def _pair_edge_deps(self, a: NodeId, b: NodeId) -> FrozenSet[int]:
        """Union of the deps of every edge fact between two object nodes."""
        out = EMPTY
        for role in self.g.edges.get((a, b), ()):
            out |= self._dep(("E", a, b, role))
        for role in self.g.edges.get((b, a), ()):
            out |= self._dep(("E", b, a, role))
        return out

    def _data_edge_deps(self, source: NodeId, target: NodeId) -> FrozenSet[int]:
        out = EMPTY
        for role in self.g.data_edges.get((source, target), ()):
            out |= self._dep(("DE", source, target, role))
        return out

    # ------------------------------------------------------------------
    # Incremental blocking
    # ------------------------------------------------------------------
    def _blocked_nodes(self) -> Set[NodeId]:
        """Anywhere pairwise-blocked nodes, via cached blocking signatures.

        A node is directly blocked iff an earlier (by creation order)
        blockable node has the same (label, parent label, connecting
        roles) signature; descendants of a directly blocked node are
        indirectly blocked.  Nodes are hash-grouped by signature instead
        of compared pairwise, and a signature is recomputed only when
        the node or its parent changed since it was cached
        (``blocking_checks`` counts recomputations).
        """
        g = self.g
        order = g.creation_order
        groups: Dict[Tuple, List[NodeId]] = {}
        blockable = [
            n
            for n in g.nodes()
            if not g.is_root(n) and g.parent.get(n) is not None
        ]
        for node in blockable:
            parent = g.parent[node]
            if parent is None or parent not in g.labels:
                continue
            groups.setdefault(self._signature(node, parent), []).append(node)
        directly_blocked: Set[NodeId] = set()
        for members in groups.values():
            if len(members) > 1:
                members.sort(key=lambda n: order[n])
                directly_blocked.update(members[1:])
        blocked: Set[NodeId] = set()
        for node in blockable:
            current: Optional[NodeId] = node
            while current is not None:
                if current in directly_blocked:
                    blocked.add(node)
                    break
                current = g.parent.get(current)
        return blocked

    def _signature(self, node: NodeId, parent: NodeId) -> Tuple:
        own_version = self._versions.get(node, 0)
        parent_version = self._versions.get(parent, 0)
        cached = self._sig_cache.get(node)
        if cached is not None:
            sig, c_parent, c_own, c_pv, c_epoch = cached
            if (
                c_epoch == self._epoch
                and c_parent == parent
                and c_own == own_version
                and c_pv == parent_version
            ):
                return sig
        if self.t.stats is not None:
            self.t.stats.blocking_checks += 1
        g = self.g
        sig = (
            frozenset(g.labels[node]),
            frozenset(g.labels[parent]),
            g.edge_roles_between(parent, node),
        )
        self._sig_cache[node] = (
            sig,
            parent,
            own_version,
            parent_version,
            self._epoch,
        )
        return sig


def _transitive_closure(pairs: Set[Tuple[NodeId, NodeId]]) -> Set[Tuple[NodeId, NodeId]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(closed):
            for (y2, z) in list(closed):
                if y2 == y and (x, z) not in closed:
                    closed.add((x, z))
                    changed = True
    return closed


def _role_expression_pairs(
    role_ext: Dict[AtomicRole, Set[Tuple[NodeId, NodeId]]], role: ObjectRole
) -> Set[Tuple[NodeId, NodeId]]:
    base = role_ext.get(role.named, set())
    if role.is_inverse:
        return {(y, x) for (x, y) in base}
    return set(base)


@dataclass(frozen=True)
class _ExactValue(DataRange):
    """A data range holding exactly one literal (for asserted data edges)."""

    datatype: str
    lexical: str

    def contains(self, value) -> bool:
        return value.datatype == self.datatype and value.lexical == self.lexical

    def mentioned_values(self):
        from .individuals import DataValue

        return (DataValue(self.datatype, self.lexical),)

    def __repr__(self) -> str:
        return f"={self.lexical}"
