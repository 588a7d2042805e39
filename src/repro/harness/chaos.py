"""Fault-injection harness: chaos testing for the degradation layer.

Robustness claims are cheap; this module makes them testable.  It
deterministically injects faults into budgeted reasoning runs — budget
exhaustion, deadline expiry (via an injected fake clock), cooperative
cancellation, and arbitrary mid-search exceptions — at *seeded* tableau
steps, then verifies the two invariants the budget layer promises:

1. **No cache poisoning** — an aborted search never commits a verdict,
   so answers asked *after* an abort equal the answers of a cold
   reasoner that never saw the fault (the decided-only-commit invariant
   of :class:`~repro.dl.cache.QueryCache`);
2. **Clean rollback / reusability** — a :class:`~repro.dl.reasoner.Reasoner`
   whose search aborted at an arbitrary step stays fully usable: the
   trail is unwound, counters stay monotone, and every later unbudgeted
   probe decides exactly as a fresh reasoner would.

Additionally every *decided* verdict produced under chaos must equal the
cold verdict (UNKNOWN is the only permitted deviation — degradation is
sound, see THEORY.md §10).

Fault timing is deterministic: the cancel token fires (or raises) at the
N-th meter poll and the fake clock expires the deadline at the N-th
reading, where N comes from the case seed.  A failure therefore names an
exactly reproducible (KB, fault, step) triple.

Typical use::

    from repro.harness.chaos import run_chaos_suite
    report = run_chaos_suite(seeds=range(30))
    assert report.ok, report.render()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..dl.budget import Budget, CancelToken, Verdict
from ..dl.concepts import AtomicConcept
from ..dl.individuals import Individual
from ..dl.kb import KnowledgeBase
from ..dl.reasoner import Reasoner
from ..workloads.generators import GeneratorConfig, generate_kb

#: The injectable fault kinds, one per degradation pathway.
FAULT_KINDS: Tuple[str, ...] = (
    "cancel",
    "error",
    "deadline",
    "nodes",
    "branches",
    "trail",
)

#: Generator shape for chaos KBs: small enough to finish, rich enough to
#: branch (disjunctions force choice points, negations force clashes).
CHAOS_KB = dict(
    n_concepts=4, n_roles=2, n_individuals=3, n_tbox=5, n_abox=8, max_depth=2
)


class ChaosError(RuntimeError):
    """The injected mid-search exception (not a ReproError on purpose:
    it models a genuinely unexpected fault, e.g. a broken callback)."""


class ScriptedCancelToken(CancelToken):
    """A cancel token that fires at the N-th poll instead of on request.

    The budget meter polls the token once per search tick, so ``fire_at``
    addresses a deterministic tableau step.  With ``raise_error`` the
    token raises :class:`ChaosError` instead of cancelling, exercising
    the harness's arbitrary-exception containment path.
    """

    def __init__(self, fire_at: int, raise_error: bool = False):
        super().__init__()
        if fire_at < 1:
            raise ValueError(f"fire_at must be >= 1, got {fire_at!r}")
        self.fire_at = fire_at
        self.raise_error = raise_error
        self.polls = 0

    def is_set(self) -> bool:
        self.polls += 1
        if self.polls >= self.fire_at:
            if self.raise_error:
                raise ChaosError(f"injected fault at poll {self.polls}")
            return True
        return super().is_set()


class SteppedClock:
    """A deterministic monotone clock advancing ``step`` per reading.

    Injected through ``Budget(clock=...)`` it turns wall-clock deadlines
    into exact step counts: with ``step=s`` and ``deadline=k*s`` the
    k-th deadline check after the meter starts is the first to expire,
    independent of the host machine's speed.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self.now = start
        self.step = step
        self.readings = 0

    def __call__(self) -> float:
        self.readings += 1
        value = self.now
        self.now += self.step
        return value


def fault_budget(fault: str, rng: random.Random) -> Budget:
    """A budget rigged to inject ``fault`` at an rng-seeded step."""
    if fault == "cancel":
        return Budget(cancel=ScriptedCancelToken(fire_at=rng.randint(1, 60)))
    if fault == "error":
        return Budget(
            cancel=ScriptedCancelToken(
                fire_at=rng.randint(1, 60), raise_error=True
            )
        )
    if fault == "deadline":
        # check_interval=1 so every tick reads the fake clock; deadline
        # expires at an exact, seeded reading count.
        return Budget(
            deadline=float(rng.randint(1, 40)),
            clock=SteppedClock(step=1.0),
            check_interval=1,
        )
    if fault == "nodes":
        return Budget(max_nodes=rng.randint(1, 4))
    if fault == "branches":
        return Budget(max_branches=rng.randint(1, 3))
    if fault == "trail":
        return Budget(max_trail=rng.randint(1, 24))
    raise ValueError(f"unknown fault kind: {fault!r}")


def probe_plan(
    kb: KnowledgeBase, max_atoms: int = 3, max_individuals: int = 2
) -> List[Tuple[str, tuple]]:
    """A deterministic battery of probes over the KB's signature.

    Mirrors the differential-fuzz battery: consistency first (the
    all-branches worst case), then subsumption pairs, then instance
    checks.  Returned as (kind, args) descriptors so the same plan can
    run through verdict APIs and boolean APIs alike.
    """
    atoms = sorted(kb.concepts_in_signature(), key=lambda a: a.name)
    atoms = atoms[:max_atoms]
    individuals = sorted(kb.individuals_in_signature(), key=lambda i: i.name)
    individuals = individuals[:max_individuals]
    plan: List[Tuple[str, tuple]] = [("consistency", ())]
    for sub in atoms:
        for sup in atoms:
            plan.append(("subsumes", (sup, sub)))
    for individual in individuals:
        for atom in atoms:
            plan.append(("instance", (individual, atom)))
    return plan


def run_probe(
    reasoner: Reasoner, kind: str, args: tuple, budget: Optional[Budget]
) -> Verdict:
    """Run one probe descriptor through the degrading verdict APIs."""
    if kind == "consistency":
        return reasoner.consistency_verdict(budget=budget)
    if kind == "subsumes":
        sup, sub = args
        return reasoner.subsumption_verdict(sup, sub, budget=budget)
    if kind == "instance":
        individual, atom = args
        return reasoner.instance_verdict(individual, atom, budget=budget)
    raise ValueError(f"unknown probe kind: {kind!r}")


@dataclass
class ChaosCaseResult:
    """The outcome of one seeded (KB, fault) chaos case."""

    seed: int
    fault: str
    decided: int = 0
    unknowns: int = 0
    #: Human-readable invariant violations; empty means the case passed.
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this case."""
        return not self.mismatches


@dataclass
class ChaosReport:
    """Aggregate over a chaos suite run."""

    cases: List[ChaosCaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every case passed."""
        return all(case.ok for case in self.cases)

    @property
    def unknowns(self) -> int:
        """Total probes degraded to UNKNOWN across the suite."""
        return sum(case.unknowns for case in self.cases)

    @property
    def decided(self) -> int:
        """Total probes decided despite the injected faults."""
        return sum(case.decided for case in self.cases)

    def failures(self) -> List[ChaosCaseResult]:
        """The cases with at least one invariant violation."""
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        """A one-paragraph summary, listing violations if any."""
        lines = [
            f"chaos: {len(self.cases)} cases, {self.decided} decided, "
            f"{self.unknowns} degraded to UNKNOWN, "
            f"{len(self.failures())} failing"
        ]
        for case in self.failures():
            head = f"  seed={case.seed} fault={case.fault}:"
            lines.append(head)
            lines.extend(f"    {message}" for message in case.mismatches)
        return "\n".join(lines)


def run_chaos_case(seed: int, fault: Optional[str] = None) -> ChaosCaseResult:
    """One chaos case: inject a fault, then verify both invariants.

    Builds the seeded KB, runs the probe battery with a freshly rigged
    fault budget per probe (so the fault strikes at a different seeded
    step of each search), then replays the same battery unbudgeted on
    the *same* reasoner and on a cold one, demanding identical decided
    answers everywhere.
    """
    rng = random.Random(seed * 7919 + 13)
    chosen = fault if fault is not None else rng.choice(FAULT_KINDS)
    kb = generate_kb(GeneratorConfig(seed=seed, **CHAOS_KB))
    plan = probe_plan(kb)
    result = ChaosCaseResult(seed=seed, fault=chosen)

    victim = Reasoner(kb)
    cold = Reasoner(kb)
    chaos_verdicts: List[Verdict] = []
    for kind, args in plan:
        verdict = run_probe(victim, kind, args, fault_budget(chosen, rng))
        chaos_verdicts.append(verdict)
        if verdict.is_unknown():
            result.unknowns += 1
        else:
            result.decided += 1

    for index, (kind, args) in enumerate(plan):
        cold_verdict = run_probe(cold, kind, args, None)
        if cold_verdict.is_unknown():  # pragma: no cover - unbudgeted
            result.mismatches.append(
                f"probe {index} ({kind}): cold run degraded without a budget"
            )
            continue
        # Soundness: a decided chaos verdict never flips the cold answer.
        chaos_verdict = chaos_verdicts[index]
        if not chaos_verdict.is_unknown() and bool(chaos_verdict) != bool(
            cold_verdict
        ):
            result.mismatches.append(
                f"probe {index} ({kind}): chaos decided {chaos_verdict} "
                f"but cold says {cold_verdict}"
            )
        # Reusability + cache integrity: the aborted reasoner, probed
        # again without a budget, matches the cold verdict exactly.
        warm_verdict = run_probe(victim, kind, args, None)
        if warm_verdict.is_unknown() or bool(warm_verdict) != bool(
            cold_verdict
        ):
            result.mismatches.append(
                f"probe {index} ({kind}): post-abort answer {warm_verdict} "
                f"!= cold {cold_verdict} (poisoned cache or broken rollback)"
            )
    return result


def run_chaos_suite(
    seeds: Iterable[int], faults: Sequence[str] = FAULT_KINDS
) -> ChaosReport:
    """One case per seed, each with a seeded fault.

    Every fault kind in ``faults`` is guaranteed coverage: case ``i``
    pins fault ``faults[i % len(faults)]`` so a short seed range still
    exercises all pathways deterministically.
    """
    report = ChaosReport()
    for index, seed in enumerate(seeds):
        fault = faults[index % len(faults)]
        report.cases.append(run_chaos_case(seed, fault=fault))
    return report
