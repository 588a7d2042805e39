"""Differential fuzzing: every reasoning path must agree with its oracle.

Three independent implementations answer overlapping questions, so on
seeded random KBs we cross-check them pairwise:

* **cached vs cold** — a :class:`Reasoner` with the query cache enabled
  must give exactly the answers of one with the cache disabled, on the
  same probe sequence (including deliberately repeated probes, the case
  the cache actually rewrites);
* **Reasoner4 vs transform-then-classical** — every four-valued verdict
  is recomputed by hand through :func:`transform_kb` plus a fresh
  classical reasoner, bypassing ``Reasoner4``'s shared cache and
  memoised transform entirely;
* **tableau vs model enumeration** — on tiny signatures the brute-force
  enumerator is conclusive and arbitrates both of the above;
* **tableau vs verified models** — every SAT answer of a tableau run is
  checked against the finite model read off its completed graph (counted
  as witnessed when :meth:`Interpretation.is_model` accepts it for the KB
  plus the probe), and every UNSAT answer against the enumerator, which
  must find no model over the named individuals;
* **saturation vs trail tableau** — on seeded KBs drawn entirely from
  the tractable fragment, the consequence-driven fast path must agree
  with a tableau-pinned reasoner on satisfiability verdicts, the
  classification taxonomy and four-valued assertion values, while
  actually answering (zero tableau fallbacks on complete-mode KBs);
* **incremental vs cold** — seeded add/remove/re-add edit sequences
  over scaling-corpus KB4s, where a long-lived reasoner using
  fine-grained invalidation must answer byte-identically to a reasoner
  built from scratch after every single mutation, while its survival
  counters prove entries actually outlived the edits;
* **kept models vs cold tableau** — every SAT answer a kept verified
  model gives, over the four scaling profiles and along edit sequences,
  is re-asked of a cold tableau-only reasoner, and after every edit each
  kept model must still be a model of the KB.

The seeds are fixed ranges, not hypothesis draws, so a failure names the
exact KB: rebuild it with ``generate_kb(GeneratorConfig(seed=...))``.
Across the parametrised cases the suite covers well over 200 distinct
seeded KBs with the cache both on and off.
"""

import functools
import random

import pytest

from repro.dl import (
    TOP,
    And,
    AtomicConcept,
    AtomicRole,
    ConceptAssertion,
    ConceptInclusion,
    Exists,
    Forall,
    Individual,
    KnowledgeBase,
    Not,
    RoleAssertion,
    RoleInclusion,
    Tableau,
    fragment_report,
)
from repro.dl.reasoner import Reasoner
from repro.four_dl.axioms4 import ConceptInclusion4, InclusionKind
from repro.four_dl.reasoner4 import Reasoner4
from repro.four_dl.transform import neg_transform, pos_transform, transform_kb
from repro.fourvalued.truth import from_evidence
from repro.semantics import classical_satisfiable_by_enumeration
from repro.workloads import (
    GeneratorConfig,
    ScalingConfig,
    ScalingProfile,
    generate_kb,
    generate_kb4,
    generate_scaling_kb4,
)
from tests.oracles import classify_pairwise

SMALL = dict(
    n_concepts=3, n_roles=1, n_individuals=2, n_tbox=3, n_abox=4, max_depth=1
)
TINY = dict(
    n_concepts=2,
    n_roles=1,
    n_individuals=2,
    n_tbox=2,
    n_abox=3,
    max_depth=1,
    allow_quantifiers=False,
)


def _signature(kb):
    atoms = sorted(kb.concepts_in_signature(), key=lambda a: a.name)
    individuals = sorted(kb.individuals_in_signature(), key=lambda i: i.name)
    return atoms, individuals


def _probe_answers(reasoner, atoms, individuals):
    """A deterministic battery of queries, each asked twice.

    The duplicate pass makes the cached reasoner actually serve hits;
    a cold reasoner recomputes, so any unsoundness in key canonicalisation
    or storage shows up as a verdict flip between the two passes.
    """
    answers = []
    for _ in range(2):
        answers.append(reasoner.is_consistent())
        for sub in atoms:
            for sup in atoms:
                answers.append(reasoner.subsumes(sub, sup))
        for individual in individuals:
            for atom in atoms:
                answers.append(reasoner.is_instance(individual, atom))
        answers.append(
            reasoner.entails_all(
                ConceptInclusion(sub, sup)
                for sub in atoms
                for sup in atoms
            )
        )
    return answers


class TestCachedVsCold:
    @pytest.mark.parametrize("seed", range(100))
    def test_classical_verdicts_agree(self, seed):
        kb = generate_kb(GeneratorConfig(seed=seed, **SMALL))
        atoms, individuals = _signature(kb)
        cached = Reasoner(kb)
        cold = Reasoner(kb, use_cache=False)
        assert _probe_answers(cached, atoms, individuals) == _probe_answers(
            cold, atoms, individuals
        )
        # the duplicate pass must have been served from the cache
        assert cached.stats.cache_hits > 0
        assert cold.stats.cache_hits == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_classification_agrees(self, seed):
        kb = generate_kb(GeneratorConfig(seed=seed, **SMALL))
        cached = Reasoner(kb).classify()
        cold = Reasoner(kb, use_cache=False).classify()
        pairwise = classify_pairwise(
            Reasoner(kb, use_cache=False, engine="tableau")
        )
        assert cached == cold == pairwise


class TestReasoner4VsTransform:
    @pytest.mark.parametrize("seed", range(60))
    def test_assertion_values_match_manual_reduction(self, seed):
        kb4 = generate_kb4(GeneratorConfig(seed=seed, **SMALL))
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)
        individuals = sorted(
            kb4.individuals_in_signature(), key=lambda i: i.name
        )
        reasoner4 = Reasoner4(kb4)
        # independent path: re-transform from scratch, no shared cache
        induced = transform_kb(kb4)
        oracle = Reasoner(induced, use_cache=False)
        for individual in individuals:
            for atom in atoms:
                expected = from_evidence(
                    oracle.entails(
                        ConceptAssertion(individual, pos_transform(atom))
                    ),
                    oracle.entails(
                        ConceptAssertion(individual, neg_transform(atom))
                    ),
                )
                assert (
                    reasoner4.assertion_value(individual, atom) is expected
                ), f"seed={seed} {atom.name}({individual.name})"

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_values_match_singles(self, seed):
        kb4 = generate_kb4(GeneratorConfig(seed=seed, **SMALL))
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)
        individuals = sorted(
            kb4.individuals_in_signature(), key=lambda i: i.name
        )
        pairs = [(i, a) for i in individuals for a in atoms]
        batched = Reasoner4(kb4).assertion_values(pairs)
        cold = Reasoner4(kb4, use_cache=False)
        for individual, atom in pairs:
            assert batched[(individual, atom)] is cold.assertion_value(
                individual, atom
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_internal_classification_matches_pairwise_inclusions(self, seed):
        kb4 = generate_kb4(GeneratorConfig(seed=seed, **SMALL))
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)
        hierarchy = Reasoner4(kb4).classify(kind=InclusionKind.INTERNAL)
        oracle = Reasoner4(kb4, use_cache=False)
        for sub in atoms:
            expected = frozenset(
                sup
                for sup in atoms
                if oracle.entails_inclusion(
                    ConceptInclusion4(sub, sup, InclusionKind.INTERNAL)
                )
            )
            assert hierarchy[sub] == expected, f"seed={seed} {sub.name}"


class TestTableauVsEnumeration:
    """The brute-force enumerator arbitrates on tiny signatures."""

    @pytest.mark.parametrize("seed", range(60))
    def test_cached_reasoner_agrees_with_enumerator(self, seed):
        kb = generate_kb(GeneratorConfig(seed=seed, **TINY))
        reasoner = Reasoner(kb)
        # ask twice: the second answer comes from the cache
        first = reasoner.is_consistent()
        second = reasoner.is_consistent()
        assert first == second
        enum_sat = classical_satisfiable_by_enumeration(
            kb, max_extra_elements=1
        )
        if enum_sat:
            assert first, f"seed={seed}: enumerator found a model"
        if not first:
            assert not enum_sat, f"seed={seed}: tableau unsat, model exists"

    @pytest.mark.parametrize("seed", range(25))
    def test_four_valued_satisfiability_agrees_with_enumerator(self, seed):
        kb4 = generate_kb4(GeneratorConfig(seed=seed, **TINY))
        four_sat = Reasoner4(kb4).is_satisfiable()
        enum_sat = classical_satisfiable_by_enumeration(
            transform_kb(kb4), max_extra_elements=1
        )
        if enum_sat:
            assert four_sat, f"seed={seed}: enumerator found a 4-model"
        if not four_sat:
            assert not enum_sat, f"seed={seed}: unsat but 4-model exists"


def _checked_runs(kb, runs):
    """Check recorded tableau answers against oracles sharing no search code.

    ``runs`` holds ``(probes, satisfiable, model)`` triples, ``model``
    being what :meth:`Tableau.extract_model` read off the completed
    graph of a SAT run.  Returns the ``(sat, witnessed, unsat)`` counts
    and the probe sets of the UNSAT answers the enumerator contradicts.
    """
    sat = witnessed = unsat = 0
    contradicted = []
    for probes, satisfiable, model in runs:
        whole = KnowledgeBase.of(list(kb.axioms()) + list(probes))
        if satisfiable:
            sat += 1
            witnessed += model is not None and model.is_model(whole)
        else:
            unsat += 1
            if classical_satisfiable_by_enumeration(whole, max_extra_elements=0):
                contradicted.append(probes)
    return (sat, witnessed, unsat), contradicted


@functools.lru_cache(maxsize=None)
def _classical_oracle_counts(seed):
    """Consistency plus every ``a : not C`` instance probe, on one tableau."""
    kb = generate_kb(GeneratorConfig(seed=seed, **SMALL))
    atoms, individuals = _signature(kb)
    tableau = Tableau(kb)
    runs = []
    for probes in [()] + [
        (ConceptAssertion(individual, Not(atom)),)
        for individual in individuals
        for atom in atoms
    ]:
        satisfiable = tableau.is_satisfiable(probes)
        model = tableau.extract_model() if satisfiable else None
        runs.append((probes, satisfiable, model))
    return _checked_runs(kb, runs)


@functools.lru_cache(maxsize=None)
def _four_valued_oracle_counts(seed):
    """Every tableau run ``Reasoner4.assertion_value`` makes, recorded.

    Pinned to ``engine="tableau"`` so that every probe reaches the
    tableau: under ``"auto"`` saturation and the kept models answer
    most of them (the model-witness family below checks those).
    """
    kb4 = generate_kb4(GeneratorConfig(seed=seed, **SMALL))
    atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)
    individuals = sorted(kb4.individuals_in_signature(), key=lambda i: i.name)
    reasoner = Reasoner4(kb4, use_cache=False, engine="tableau")
    tableau = reasoner.classical_reasoner._tableau
    run = tableau.is_satisfiable
    runs = []

    def recording(probes=(), **kwargs):
        probes = tuple(probes)
        satisfiable = run(probes, **kwargs)
        model = tableau.extract_model() if satisfiable else None
        runs.append((probes, satisfiable, model))
        return satisfiable

    tableau.is_satisfiable = recording
    for individual in individuals:
        for atom in atoms:
            reasoner.assertion_value(individual, atom)
    return _checked_runs(reasoner.classical_kb, runs)


class TestTableauVsVerifiedModels:
    """Tableau answers vs oracles that share no search code with it.

    A SAT answer is *witnessed* when the model extracted from its
    completed graph is verified against the KB plus the probe; graphs
    completed through blocking describe infinite models and stay
    unwitnessed, so the witnessed totals are pinned rather than required
    to be complete.  An UNSAT answer must leave the enumerator without a
    model over the named individuals.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_classical_answers_hold_up(self, seed):
        _counts, contradicted = _classical_oracle_counts(seed)
        assert contradicted == [], f"seed={seed}"

    @pytest.mark.parametrize("seed", range(20))
    def test_four_valued_answers_hold_up(self, seed):
        _counts, contradicted = _four_valued_oracle_counts(seed)
        assert contradicted == [], f"seed={seed}"

    def test_witnessed_totals_are_pinned(self):
        def totals(oracle, seeds):
            counts = [oracle(seed)[0] for seed in seeds]
            return [sum(column) for column in zip(*counts)]

        # [SAT answers, witnessed SAT answers, UNSAT answers confirmed]
        assert totals(_classical_oracle_counts, range(40)) == [160, 149, 102]
        assert totals(_four_valued_oracle_counts, range(20)) == [178, 162, 56]


def tractable_kb(seed):
    """A seeded random KB drawn entirely from the saturation fragment.

    The stock generator has no tractable-only mode (it mixes in ``Or``
    at any depth above zero), so this local generator draws from the
    fragment's own grammar: atomic/conjunctive/existential concepts,
    disjointness via ``Not`` on the right, role hierarchies, global
    ranges, and plain ABox assertions including negated atoms.
    """
    rng = random.Random(seed)
    atoms = [AtomicConcept(f"C{i}") for i in range(4)]
    roles = [AtomicRole(f"r{i}") for i in range(2)]
    individuals = [Individual(f"i{i}") for i in range(3)]
    kb = KnowledgeBase()

    def concept(depth=1):
        draw = rng.random()
        if depth == 0 or draw < 0.5:
            return rng.choice(atoms)
        if draw < 0.75:
            return And.of(rng.choice(atoms), concept(depth - 1))
        return Exists(rng.choice(roles), concept(depth - 1))

    for _ in range(rng.randint(3, 6)):
        rhs = (
            Not(rng.choice(atoms)) if rng.random() < 0.2 else concept()
        )
        kb.add(ConceptInclusion(concept(), rhs))
    if rng.random() < 0.5:
        kb.add(RoleInclusion(roles[0], roles[1]))
    if rng.random() < 0.4:
        kb.add(
            ConceptInclusion(
                TOP, Forall(rng.choice(roles), rng.choice(atoms))
            )
        )
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.6:
            kb.add(ConceptAssertion(rng.choice(individuals), concept()))
        else:
            kb.add(
                RoleAssertion(
                    rng.choice(roles),
                    rng.choice(individuals),
                    rng.choice(individuals),
                )
            )
    if rng.random() < 0.3:
        kb.add(
            ConceptAssertion(rng.choice(individuals), Not(rng.choice(atoms)))
        )
    return kb


class TestSaturationVsTableau:
    """The saturation fast path vs a tableau-pinned reasoner, seed for seed.

    Both reasoners share nothing; any disagreement shows up directly in
    the answer comparison (and, wherever a cache is shared elsewhere in
    the suite, as a :class:`~repro.dl.errors.CacheConflictError`).
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_kbs_are_in_fragment(self, seed):
        report = fragment_report(tractable_kb(seed))
        assert report.complete, f"seed={seed}: {report.render()}"

    @pytest.mark.parametrize("seed", range(40))
    def test_sat_verdicts_agree_without_tableau_fallbacks(self, seed):
        kb = tractable_kb(seed)
        atoms, individuals = _signature(kb)
        auto = Reasoner(kb, use_cache=False)
        pinned = Reasoner(kb, use_cache=False, engine="tableau")
        assert _probe_answers(auto, atoms, individuals) == _probe_answers(
            pinned, atoms, individuals
        ), f"seed={seed}"
        # Complete-mode Horn KBs must be answered by saturation alone.
        assert auto.stats.saturation_queries > 0, f"seed={seed}"
        assert auto.stats.tableau_runs == 0, f"seed={seed}"
        assert pinned.stats.saturation_queries == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_classification_taxonomy_agrees(self, seed):
        kb = tractable_kb(seed)
        fast = Reasoner(kb).classify()
        slow = Reasoner(kb, engine="tableau").classify()
        assert fast == slow, f"seed={seed}"

    @pytest.mark.parametrize("seed", range(25))
    def test_four_valued_assertion_values_agree(self, seed):
        # Depth-0 KB4s transform into the fragment via the padded
        # N1/N2 shapes of the doubled-signature reduction.
        kb4 = generate_kb4(
            GeneratorConfig(
                seed=seed,
                n_concepts=3,
                n_roles=1,
                n_individuals=2,
                n_tbox=4,
                n_abox=5,
                max_depth=0,
            )
        )
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)
        individuals = sorted(
            kb4.individuals_in_signature(), key=lambda i: i.name
        )
        auto = Reasoner4(kb4)
        pinned = Reasoner4(kb4, use_cache=False, engine="tableau")
        for individual in individuals:
            for atom in atoms:
                assert auto.assertion_value(
                    individual, atom
                ) is pinned.assertion_value(
                    individual, atom
                ), f"seed={seed} {atom.name}({individual.name})"
        assert auto.stats.saturation_queries > 0, f"seed={seed}"


def _four_battery(reasoner, atoms, individuals):
    """A deterministic four-valued probe battery, each question twice.

    The duplicate pass forces the incremental reasoner to serve cache
    hits, so a stale entry that survived an edit it should not have
    survived flips an answer against the cold oracle.
    """
    answers = []
    for _ in range(2):
        answers.append(reasoner.is_satisfiable())
        for individual in individuals:
            for atom in atoms:
                answers.append(reasoner.assertion_value(individual, atom))
    return answers


class TestEditSequenceFuzz:
    """Seeded edit sequences: incremental answers == cold, after every step.

    Each case draws a scaling-corpus KB4, warms an incremental
    :class:`Reasoner4`, then drives a scripted add / add / remove /
    re-add sequence (the removed axiom chosen by the seed).  After every
    single mutation the incremental reasoner's full probe battery must
    be byte-identical to a reasoner built cold over a copy of the edited
    KB.  The pure-addition step also pins the survival counters: UNSAT
    entries stored by the previous step must outlive an addition.

    4 profiles x 26 seeds = 104 distinct edit sequences.
    """

    @pytest.mark.parametrize("profile", list(ScalingProfile))
    @pytest.mark.parametrize("seed", range(26))
    def test_incremental_matches_cold_after_every_edit(self, profile, seed):
        kb4 = generate_scaling_kb4(
            ScalingConfig(n_axioms=10, profile=profile, seed=seed)
        )
        rng = random.Random(f"edit-fuzz:{profile.value}:{seed}")
        atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)[:2]
        # Probe the to-be-added individual too: once step 1 asserts it,
        # its positive entailment holds, banking an UNSAT cache entry
        # whose survival across step 2's addition the test then demands.
        individuals = sorted(
            kb4.individuals_in_signature(), key=lambda i: i.name
        )[:2] + [Individual("fuzz_new")]
        incremental = Reasoner4(kb4)
        _four_battery(incremental, atoms, individuals)  # warm the cache
        assert incremental.stats.cache_hits > 0

        def check_parity(step):
            warm = _four_battery(incremental, atoms, individuals)
            cold = _four_battery(
                Reasoner4(kb4.copy(), use_cache=False), atoms, individuals
            )
            assert warm == cold, f"profile={profile.value} seed={seed} {step}"

        # Step 1: a pure addition entailed outright, so the battery
        # banks UNSAT (entailment) cache entries for the next step.
        anchor = ConceptAssertion(Individual("fuzz_new"), rng.choice(atoms))
        kb4.add_axiom(anchor)
        check_parity("add-anchor")

        # Step 2: another pure addition.  Monotonicity says every UNSAT
        # entry survives it — the counters must show survivors.
        before = incremental.stats.snapshot()
        kb4.add_axiom(
            ConceptAssertion(Individual("fuzz_new2"), rng.choice(atoms))
        )
        check_parity("add-second")
        survived = (incremental.stats - before).cache_entries_survived
        assert survived > 0, f"profile={profile.value} seed={seed}"

        # Step 3: remove a seed-chosen existing axiom.
        victim = rng.choice(sorted(kb4.axioms(), key=repr))
        kb4.remove_axiom(victim)
        check_parity(f"remove {victim!r}")

        # Step 4: re-add it — answers must return to the pre-removal
        # state, again checked against a cold rebuild.
        kb4.add_axiom(victim)
        check_parity(f"re-add {victim!r}")


def _checked_witnesses(reasoner):
    """Check each SAT answer a kept model gives, when it is given.

    Wraps ``reasoner._model_witness`` so that every witnessed probe set
    is re-asked of a cold ``engine="tableau"`` reasoner over a copy of
    the KB as it stands at that moment.  Returns the list the wrapper
    fills with ``(probes, cold answer)`` pairs.
    """
    checked = []
    witness = reasoner._model_witness

    def recording(probes):
        answer = witness(probes)
        if answer:
            cold = Reasoner(
                KnowledgeBase.of(reasoner.kb.axioms()),
                use_cache=False,
                engine="tableau",
            )
            checked.append((tuple(probes), cold._satisfiable_with(probes)))
        return answer

    reasoner._model_witness = recording
    return checked


def _kept_models_are_models(reasoner):
    """Whether every kept model is a model of the reasoner's KB now."""
    reasoner._sync()
    return all(model.is_model(reasoner.kb) for _, model in reasoner._models)


@functools.lru_cache(maxsize=None)
def _profile_witnesses(profile, seed):
    """Model answers over one scaling-corpus KB4: values, taxonomy and
    the three inclusion kinds."""
    kb4 = generate_scaling_kb4(
        ScalingConfig(n_axioms=12, profile=profile, seed=seed)
    )
    reasoner = Reasoner4(kb4)
    checked = _checked_witnesses(reasoner.classical_reasoner)
    atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)[:4]
    individuals = sorted(
        kb4.individuals_in_signature(), key=lambda i: i.name
    )[:3]
    _four_battery(reasoner, atoms, individuals)
    reasoner.classify()
    for kind in InclusionKind:
        for sub in atoms:
            for sup in atoms:
                reasoner.entails(ConceptInclusion4(sub, sup, kind))
    return checked


@functools.lru_cache(maxsize=None)
def _edit_witnesses(profile, seed):
    """Model answers along an add / add / remove / re-add edit sequence;
    after every step each kept model must still be a model of the KB."""
    kb4 = generate_scaling_kb4(
        ScalingConfig(n_axioms=10, profile=profile, seed=seed)
    )
    rng = random.Random(f"model-fuzz:{profile.value}:{seed}")
    atoms = sorted(kb4.concepts_in_signature(), key=lambda a: a.name)[:3]
    individuals = sorted(
        kb4.individuals_in_signature(), key=lambda i: i.name
    )[:2] + [Individual("fuzz_new")]
    reasoner = Reasoner4(kb4)
    classical = reasoner.classical_reasoner
    checked = _checked_witnesses(classical)
    _four_battery(reasoner, atoms, individuals)
    victim = rng.choice(sorted(kb4.axioms(), key=repr))
    newcomer = ConceptAssertion(Individual("fuzz_new"), rng.choice(atoms))
    denial = ConceptAssertion(individuals[0], Not(rng.choice(atoms)))
    edits = [
        (kb4.add_axiom, newcomer),
        (kb4.add_axiom, denial),
        (kb4.remove_axiom, victim),
        (kb4.add_axiom, victim),
    ]
    broken = []
    for edit, axiom in edits:
        edit(axiom)
        if not _kept_models_are_models(classical):
            broken.append(axiom)
        _four_battery(reasoner, atoms, individuals)
    assert reasoner.classical_reasoner is classical  # no wholesale rebuild
    return checked, broken


class TestModelWitnesses:
    """Every SAT answer a kept model gives agrees with a cold tableau.

    The model path answers a probe SAT without running the tableau when
    a verified model kept from an earlier SAT run satisfies it.  Each
    such answer is re-asked, at the moment it is given, of a cold
    ``engine="tableau"`` reasoner over the KB as it then stands: across
    the four scaling profiles, and along seeded edit sequences where
    additions must drop the models they falsify and removals keep them.

    4 profiles x 8 seeds x 2 families = 64 seeded cases.
    """

    @pytest.mark.parametrize("profile", list(ScalingProfile))
    @pytest.mark.parametrize("seed", range(8))
    def test_scaling_profile_witnesses_hold_up(self, profile, seed):
        checked = _profile_witnesses(profile, seed)
        wrong = [probes for probes, cold in checked if not cold]
        assert wrong == [], f"profile={profile.value} seed={seed}"

    @pytest.mark.parametrize("profile", list(ScalingProfile))
    @pytest.mark.parametrize("seed", range(8))
    def test_edit_sequence_witnesses_hold_up(self, profile, seed):
        checked, broken = _edit_witnesses(profile, seed)
        wrong = [probes for probes, cold in checked if not cold]
        assert wrong == [], f"profile={profile.value} seed={seed}"
        assert broken == [], f"profile={profile.value} seed={seed}"

    def test_model_answer_totals_are_pinned(self):
        profiles = list(ScalingProfile)
        scaling = [
            len(_profile_witnesses(profile, seed))
            for profile in profiles
            for seed in range(8)
        ]
        edits = [
            len(_edit_witnesses(profile, seed)[0])
            for profile in profiles
            for seed in range(8)
        ]
        assert (sum(scaling), sum(edits)) == (89, 95)


class TestMutationUnderFuzz:
    """Invalidation fuzz: answers after a mutation match a fresh reasoner."""

    @pytest.mark.parametrize("seed", range(25))
    def test_mutated_kb_never_serves_stale_answers(self, seed):
        kb = generate_kb(GeneratorConfig(seed=seed, **SMALL))
        atoms, individuals = _signature(kb)
        reasoner = Reasoner(kb)
        _probe_answers(reasoner, atoms, individuals)  # warm the cache
        # mutate: a fresh inclusion between existing atoms
        kb.add(ConceptInclusion(atoms[0], atoms[-1]))
        fresh = Reasoner(kb, use_cache=False)
        assert _probe_answers(reasoner, atoms, individuals) == _probe_answers(
            fresh, atoms, individuals
        )


def test_fuzz_coverage_floor():
    """The suite must keep exercising at least 200 distinct seeded KBs."""
    cases = 100 + 40 + 60 + 30 + 30 + 60 + 25 + 25 + 40 + 20
    cases += 40 + 40 + 25 + 25  # saturation-vs-tableau parity classes
    edit_sequences = 4 * 26  # incremental edit-sequence fuzz
    assert edit_sequences >= 100
    cases += edit_sequences
    cases += 4 * 8 * 2  # model-witness family
    assert cases >= 200
