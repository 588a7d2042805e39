"""Unit tests for fine-grained invalidation: change logs, mutation API,
dependency-indexed cache survival, locality analysis, incremental
saturation, and incremental classification."""

import pytest

from repro.dl import (
    AtomicConcept,
    AtomicRole,
    ConceptAssertion,
    ConceptEquivalence,
    ConceptInclusion,
    Exists,
    Individual,
    InverseRole,
    KnowledgeBase,
    Not,
    OneOf,
    QueryCache,
    Reasoner,
    RoleAssertion,
    Top,
)
from repro.dl.concepts import TOP
from repro.dl.incremental import (
    ChangeLog,
    LOG_LIMIT,
    affected_atoms,
    axiom_signature,
    is_component_safe,
    net_delta,
)
from repro.dl.saturation import SaturationEngine

A, B, C, D = (AtomicConcept(n) for n in "ABCD")
R = AtomicRole("R")
x, y = Individual("x"), Individual("y")


# ---------------------------------------------------------------------------
# Change log
# ---------------------------------------------------------------------------
class TestChangeLog:
    def test_since_returns_records_after_version(self):
        log = ChangeLog()
        log.record(1, "add", ConceptInclusion(A, B))
        log.record(2, "add", ConceptAssertion(x, A))
        log.record(3, "remove", ConceptInclusion(A, B))
        assert log.since(3) == []
        assert log.since(2) == [("remove", ConceptInclusion(A, B))]
        assert len(log.since(0)) == 3

    def test_window_exceeded_answers_none(self):
        log = ChangeLog()
        for version in range(1, 2 * LOG_LIMIT + 2):
            log.record(version, "add", ConceptAssertion(x, A))
        assert log.since(0) is None
        # Recent versions still answer.
        assert log.since(2 * LOG_LIMIT + 1) == []

    def test_kb_mutation_journal(self):
        kb = KnowledgeBase()
        v0 = kb.version
        kb.add_axiom(ConceptInclusion(A, B))
        kb.add_axiom(ConceptAssertion(x, A))
        kb.remove_axiom(ConceptInclusion(A, B))
        changes = kb.changes_since(v0)
        assert changes == [
            ("add", ConceptInclusion(A, B)),
            ("add", ConceptAssertion(x, A)),
            ("remove", ConceptInclusion(A, B)),
        ]
        added, removed = kb.delta_since(v0)
        assert added == frozenset({ConceptAssertion(x, A)})
        assert removed == frozenset()


# ---------------------------------------------------------------------------
# Mutation API
# ---------------------------------------------------------------------------
class TestMutationAPI:
    def test_remove_axiom_strict(self):
        kb = KnowledgeBase.of([ConceptInclusion(A, B)])
        with pytest.raises(ValueError):
            kb.remove_axiom(ConceptInclusion(B, A))
        kb.remove_axiom(ConceptInclusion(A, B))
        assert len(kb) == 0

    def test_retract_absent_is_noop(self):
        kb = KnowledgeBase.of([ConceptInclusion(A, B)])
        version = kb.version
        assert kb.retract(ConceptInclusion(B, A)) is False
        assert kb.version == version
        assert kb.retract(ConceptInclusion(A, B)) is True
        assert len(kb) == 0

    def test_equivalence_expands_and_removes_atomically(self):
        kb = KnowledgeBase()
        kb.add_axiom(ConceptEquivalence(A, B))
        assert sorted(map(repr, kb.concept_inclusions)) == sorted(
            map(repr, [ConceptInclusion(A, B), ConceptInclusion(B, A)])
        )
        kb.remove_axiom(ConceptEquivalence(A, B))
        assert len(kb) == 0

    def test_role_assertion_removal_matches_normalised_form(self):
        kb = KnowledgeBase()
        kb.add_axiom(RoleAssertion(InverseRole(R), x, y))
        # Stored normalised as R(y, x); removal through either spelling.
        kb.remove_axiom(RoleAssertion(R, y, x))
        assert len(kb) == 0

    def test_duplicate_copies_removed_one_at_a_time(self):
        kb = KnowledgeBase()
        kb.add_axiom(ConceptAssertion(x, A))
        kb.add_axiom(ConceptAssertion(x, A))
        kb.remove_axiom(ConceptAssertion(x, A))
        assert list(kb.concept_assertions) == [ConceptAssertion(x, A)]

    def test_transaction_applies_atomically_on_exit(self):
        kb = KnowledgeBase.of([ConceptInclusion(A, B)])
        with kb.edit() as tx:
            tx.add(ConceptAssertion(x, A))
            tx.remove(ConceptInclusion(A, B))
            assert len(kb) == 1  # nothing applied yet
        assert list(kb.axioms()) == [ConceptAssertion(x, A)]

    def test_transaction_strict_remove_validates_before_applying(self):
        kb = KnowledgeBase.of([ConceptInclusion(A, B)])
        with pytest.raises(ValueError):
            with kb.edit() as tx:
                tx.add(ConceptAssertion(x, A))
                tx.remove(ConceptInclusion(C, D))  # absent: batch fails
        assert list(kb.axioms()) == [ConceptInclusion(A, B)]

    def test_transaction_abandoned_on_exception(self):
        kb = KnowledgeBase()
        with pytest.raises(RuntimeError):
            with kb.edit() as tx:
                tx.add(ConceptAssertion(x, A))
                raise RuntimeError("abort")
        assert len(kb) == 0

    def test_net_delta_cancels_remove_then_re_add(self):
        records = [
            ("remove", ConceptInclusion(A, B)),
            ("add", ConceptAssertion(x, A)),
            ("add", ConceptInclusion(A, B)),
        ]
        added, removed = net_delta(records)
        assert added == frozenset({ConceptAssertion(x, A)})
        assert removed == frozenset()


# ---------------------------------------------------------------------------
# Dependency-indexed cache survival
# ---------------------------------------------------------------------------
class TestInvalidateDelta:
    KEY_SAT = frozenset({("c", x, A)})
    KEY_UNSAT = frozenset({("c", x, B)})

    def test_sat_entries_die_on_addition_survive_removal(self):
        cache = QueryCache()
        cache.store(self.KEY_SAT, True)
        assert cache.invalidate_delta(
            frozenset(), frozenset({ConceptInclusion(A, B)})
        ) == (0, 1)
        assert cache.lookup(self.KEY_SAT) is True
        assert cache.invalidate_delta(
            frozenset({ConceptInclusion(A, B)}), frozenset()
        ) == (1, 0)
        assert cache.lookup(self.KEY_SAT) is None

    def test_unsat_entries_survive_additions(self):
        cache = QueryCache()
        cache.store(self.KEY_UNSAT, False)
        assert cache.invalidate_delta(
            frozenset({ConceptAssertion(y, C)}), frozenset()
        ) == (0, 1)
        assert cache.lookup(self.KEY_UNSAT) is False

    def test_unsat_entries_survive_dep_disjoint_removal(self):
        cache = QueryCache()
        support = frozenset({ConceptInclusion(A, B)})
        cache.store(self.KEY_UNSAT, False, deps=support)
        unrelated = frozenset({ConceptAssertion(y, C)})
        assert cache.invalidate_delta(frozenset(), unrelated) == (0, 1)
        # Removing a supporting axiom kills the entry.
        assert cache.invalidate_delta(frozenset(), support) == (1, 0)

    def test_unsat_without_deps_dies_on_any_removal(self):
        cache = QueryCache()
        cache.store(self.KEY_UNSAT, False)  # deps=None: depends on all
        assert cache.invalidate_delta(
            frozenset(), frozenset({ConceptAssertion(y, C)})
        ) == (1, 0)

    def test_empty_delta_keeps_everything(self):
        cache = QueryCache()
        cache.store(self.KEY_SAT, True)
        cache.store(self.KEY_UNSAT, False)
        assert cache.invalidate_delta(frozenset(), frozenset()) == (0, 2)

    def test_store_upgrades_none_deps(self):
        cache = QueryCache()
        cache.store(self.KEY_UNSAT, False)
        support = frozenset({ConceptInclusion(A, B)})
        cache.store(self.KEY_UNSAT, False, deps=support)
        assert cache.invalidate_delta(
            frozenset(), frozenset({ConceptAssertion(y, C)})
        ) == (0, 1)


# ---------------------------------------------------------------------------
# Locality analysis
# ---------------------------------------------------------------------------
class TestComponentSafety:
    def test_plain_inclusions_and_assertions_are_safe(self):
        assert is_component_safe(ConceptInclusion(A, B))
        assert is_component_safe(ConceptAssertion(x, Not(A)))
        assert is_component_safe(RoleAssertion(R, x, y))
        assert is_component_safe(ConceptInclusion(Exists(R, A), B))
        assert is_component_safe(
            ConceptInclusion(OneOf(frozenset({x})), C)
        )

    def test_global_constraints_are_unsafe(self):
        assert not is_component_safe(ConceptInclusion(TOP, A))
        assert not is_component_safe(
            ConceptInclusion(TOP, OneOf(frozenset({x})))
        )
        # The induced form of a material inclusion is unsafe too.
        assert not is_component_safe(ConceptInclusion(Not(A), B))

    def test_signature_collapses_inverse_roles(self):
        signature = axiom_signature(RoleAssertion(InverseRole(R), x, y))
        assert ("r", "R") in signature

    def test_affected_atoms_follows_components(self):
        axioms = [
            ConceptInclusion(A, B),
            ConceptInclusion(B, C),
            ConceptInclusion(D, D),
        ]
        dirty = axiom_signature(ConceptInclusion(A, B))
        affected = affected_atoms(axioms, dirty)
        assert affected == frozenset({A, B, C})

    def test_affected_atoms_declines_on_unsafe_axiom(self):
        axioms = [ConceptInclusion(TOP, A), ConceptInclusion(B, C)]
        assert affected_atoms(axioms, axiom_signature(axioms[1])) is None


# ---------------------------------------------------------------------------
# Incremental saturation
# ---------------------------------------------------------------------------
class TestSaturationUpdate:
    def _engine(self):
        kb = KnowledgeBase.of(
            [ConceptInclusion(A, B), ConceptAssertion(x, A)]
        )
        engine = SaturationEngine(kb)
        assert engine.satisfiable_with(
            (ConceptAssertion(x, Not(B)),)
        ) is False
        return engine

    def test_abox_addition_absorbed_in_place(self):
        engine = self._engine()
        cone = engine.update(
            frozenset({ConceptAssertion(y, A)}), frozenset()
        )
        assert cone is not None and cone > 0
        assert engine.satisfiable_with(
            (ConceptAssertion(y, Not(B)),)
        ) is False

    def test_removal_declines(self):
        engine = self._engine()
        assert engine.update(
            frozenset(), frozenset({ConceptAssertion(x, A)})
        ) is None

    def test_tbox_addition_declines(self):
        engine = self._engine()
        assert engine.update(
            frozenset({ConceptInclusion(B, C)}), frozenset()
        ) is None

    def test_residue_addition_disables_sat_answers(self):
        engine = self._engine()
        assert engine.complete
        from repro.dl import SameIndividual

        cone = engine.update(
            frozenset({SameIndividual(x, y)}), frozenset()
        )
        assert cone == 0
        assert not engine.complete
        # UNSAT answers still come from the entailment closure.
        assert engine.satisfiable_with(
            (ConceptAssertion(x, Not(B)),)
        ) is False


# ---------------------------------------------------------------------------
# Reasoner fine-grained sync
# ---------------------------------------------------------------------------
class TestReasonerIncremental:
    def _setup(self):
        kb = KnowledgeBase.of(
            [
                ConceptInclusion(A, B),
                ConceptInclusion(C, D),
                ConceptAssertion(x, A),
            ]
        )
        reasoner = Reasoner(kb)
        assert reasoner.entails(ConceptAssertion(x, B))
        assert reasoner.subsumes(B, A)
        assert not reasoner.subsumes(D, A)
        return kb, reasoner

    def test_unrelated_addition_preserves_entailed_entries(self):
        kb, reasoner = self._setup()
        kb.add_axiom(ConceptAssertion(y, C))
        assert reasoner.entails(ConceptAssertion(x, B))
        assert reasoner.stats.cache_entries_survived > 0
        assert reasoner.stats.fine_invalidations > 0

    def test_netted_out_edit_keeps_every_entry(self):
        kb, reasoner = self._setup()
        entries = len(reasoner.cache)
        kb.remove_axiom(ConceptAssertion(x, A))
        kb.add_axiom(ConceptAssertion(x, A))
        assert reasoner.entails(ConceptAssertion(x, B))
        assert len(reasoner.cache) >= entries
        assert reasoner.stats.fine_invalidations == 0

    def test_edits_beyond_the_log_window_clear_wholesale(self):
        kb = KnowledgeBase.of([ConceptInclusion(A, B)])
        reasoner = Reasoner(kb)
        assert reasoner.subsumes(B, A)
        synced = kb.version
        # The log keeps between LOG_LIMIT and 2 * LOG_LIMIT records, so
        # this many edits push the reasoner's version below its window.
        for _ in range(LOG_LIMIT + 1):
            kb.add_axiom(ConceptAssertion(y, C))
            kb.remove_axiom(ConceptAssertion(y, C))
        kb.add_axiom(ConceptAssertion(y, C))
        assert kb.delta_since(synced) is None
        misses = reasoner.stats.cache_misses
        assert reasoner.subsumes(B, A)
        assert reasoner.stats.cache_misses == misses + 1
        assert reasoner.stats.cache_entries_survived == 0
        assert reasoner.stats.fine_invalidations == 0

    def test_parity_with_cold_reasoner_across_edits(self):
        kb, reasoner = self._setup()
        edits = [
            ("add", ConceptAssertion(y, C)),
            ("add", ConceptInclusion(B, C)),
            ("remove", ConceptInclusion(C, D)),
            ("add", ConceptInclusion(D, A)),
            ("remove", ConceptAssertion(y, C)),
        ]
        for op, axiom in edits:
            if op == "add":
                kb.add_axiom(axiom)
            else:
                kb.remove_axiom(axiom)
            cold = Reasoner(
                KnowledgeBase.of(list(kb.axioms())), use_cache=False
            )
            for sup in (A, B, C, D):
                for sub in (A, B, C, D):
                    assert reasoner.subsumes(sup, sub) == cold.subsumes(
                        sup, sub
                    ), (op, axiom, sup, sub)

    def test_classification_memo_hit_and_incremental_merge(self):
        kb, reasoner = self._setup()
        first = reasoner.classify()
        runs = reasoner.stats.tableau_runs
        sat_queries = reasoner.stats.saturation_queries
        # Verbatim memo hit: no new reasoning work at all.
        assert reasoner.classify() == first
        assert reasoner.stats.tableau_runs == runs
        assert reasoner.stats.saturation_queries == sat_queries
        # A component-local TBox edit only re-probes affected atoms.
        kb.add_axiom(ConceptInclusion(D, C))
        merged = reasoner.classify()
        fresh = Reasoner(KnowledgeBase.of(list(kb.axioms()))).classify()
        assert merged == fresh

    def test_pure_abox_edit_reuses_taxonomy(self):
        kb, reasoner = self._setup()
        first = reasoner.classify()
        kb.add_axiom(ConceptAssertion(y, D))
        pre = reasoner.stats.snapshot()
        assert reasoner.classify() == first
        delta = reasoner.stats - pre
        # Consistency is re-checked; no subsumption probes re-run.
        assert delta.subsumption_tests == 0

    def test_classification_parity_after_unsafe_edit(self):
        kb, reasoner = self._setup()
        reasoner.classify()
        # Top [= A is component-unsafe: merge must fall back to a full
        # reclassification, still byte-identical to a cold run.
        kb.add_axiom(ConceptInclusion(Top(), A))
        fresh = Reasoner(KnowledgeBase.of(list(kb.axioms()))).classify()
        assert reasoner.classify() == fresh
