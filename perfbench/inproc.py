"""The in-process workload: ``university``.

One run, in order:

1. **Measured phase** of ``--seconds``: whole cycles, until the time is
   used up, of a taxonomy repetition and a slice of ``SLICE_ROUNDS``
   rounds of the probe stream.  Each repetition loads a fresh reasoner
   untimed and times ``classify(kind=INTERNAL)`` on it; the slice that
   follows runs on that reasoner, as a user who loads a KB, classifies
   it and then asks questions.  Between rounds, ``COLD_SETUPS`` cold
   set-ups are taken at even intervals, each a fresh process running
   :mod:`coldstart` (imports, reading the ontology text, ``parse_kb4``,
   ``Reasoner4``, first consistency check); ``setup_s`` is their mean.
2. **Checks** against :mod:`reference`, after the clock stops.

A round is 18 seeded probes, three of each kind, plus one edit: three
assertion values of one individual are asked, a seeded fact about that
individual is added, the three are asked again, the fact is retracted,
and they are asked a third time.
"""

import os
import random
import resource
import statistics
import subprocess
import sys
import time

from repro.dl import axioms as ax
from repro.dl.concepts import AtomicConcept, Not
from repro.dl.individuals import Individual
from repro.four_dl.axioms4 import InclusionKind

import reference
from coldstart import load
from probes import ProbeSpace, Stream, Unknown, run_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COLDSTART = os.path.join(HERE, "coldstart.py")
#: Cold set-ups per run; ``setup_s`` is their mean (see end_to_end).
COLD_SETUPS = 7
#: Read on import, before ``run.spread_over_cpus`` pins the main thread.
ALLOWED_CPUS = os.sched_getaffinity(0)
UNIVERSITY_PATH = os.path.join(ROOT, "ontologies", "university.kb4")

UNIVERSITY_ATOMS = (
    "Course", "Department", "Doctorate", "Faculty", "FundedStudent",
    "Lecturer", "Organisation", "Person", "Professor", "ProjectLead",
    "Rector", "Staff", "Student",
)
UNIVERSITY_INDIVIDUALS = (
    "ada", "alan", "emmy", "grace", "kurt", "logic101", "mathsDept",
    "scienceFaculty", "university",
)

#: Probes of each kind per round (see :class:`probes.Stream`).
PER_KIND = 3
#: Rounds of the stream after each taxonomy repetition.  A fixed number,
#: not a share of the time, so every slice does the same work on its
#: fresh reasoner: with time-bounded slices a slower run drew fewer
#: probes per slice, hit its cache less and was slower still.
SLICE_ROUNDS = 6
#: Probes asked after the clock stops on top of the stream's, so that
#: every run checks the hand-derived facts and one of each kind.
UNIVERSITY_BATTERY = tuple(
    [("subsumption", sub, sup, "internal")
     for sub in ("Faculty", "Rector") for sup in UNIVERSITY_ATOMS]
    + [("assertion_value", name, atom)
       for name, atom, _value in reference.UNIVERSITY_VALUES]
    + [("subsumption", "Professor", "Faculty", "strong"),
       ("subsumption", "Staff", "Staff", "strong"),
       ("subsumption", "Faculty", "Doctorate", "material"),
       ("subsumption", "Professor", "Doctorate", "material"),
       ("subsumption", "Person", "Person", "material"),
       ("satisfiable",)]
)
EDIT_ATOMS = 3


def taxonomy_names(hierarchy):
    return {
        atom.name: frozenset(sup.name for sup in sups)
        for atom, sups in hierarchy.items()
    }


class Run:
    """One in-process run: measurements, answers and problems."""

    def __init__(self, seed, seconds):
        self.seconds = seconds
        with open(UNIVERSITY_PATH) as handle:
            self.text = handle.read()
        self.space = ProbeSpace(UNIVERSITY_ATOMS, UNIVERSITY_INDIVIDUALS)
        self.stream = Stream(self.space, seed, "university", PER_KIND)
        self.edit_rng = random.Random(f"perfbench:university:edits:{seed}")
        self.latencies = []
        self.failed = 0
        self.attempted = 0
        self.unknown_probes = []
        self.stream_seconds = 0.0
        self.taxonomy_seconds = []
        self.setup_samples = []
        self.cold_seconds = 0.0
        self.taxonomies = []
        self.answers = {}
        self.problems = []

    # -- operations ----------------------------------------------------
    def ask(self, probe, edited=False):
        start = time.perf_counter()
        answer = run_probe(self.reasoner, probe)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if isinstance(answer, Unknown):
            self.failed += 1
            self.unknown_probes.append((probe, answer.reason))
            return None
        self.latencies.append(elapsed)
        if not edited:
            seen = self.answers.setdefault(probe, answer)
            if seen != answer:
                self.problems.append(f"{probe} answered {seen} then {answer}")
        return answer

    def edit_round(self):
        rng = self.edit_rng
        individual = rng.choice(self.space.individuals)
        atoms = rng.sample(self.space.atoms, EDIT_ATOMS)
        concept = AtomicConcept(atoms[0])
        if rng.random() < 0.3:
            concept = Not(concept)
        fact = ax.ConceptAssertion(Individual(individual), concept)
        probes = [("assertion_value", individual, atom) for atom in atoms]
        before = [self.ask(probe) for probe in probes]
        kb4 = self.reasoner.kb4
        kb4.add_axiom(fact)
        during = [self.ask(probe, edited=True) for probe in probes]
        kb4.remove_axiom(fact)
        after = [self.ask(probe) for probe in probes]
        self.problems += reference.check_edit_laws(
            f"{individual} : {concept}", probes, before, during, after
        )

    def round(self):
        for probe in self.stream.round():
            self.ask(probe)
        self.edit_round()

    def taxonomy(self):
        """Time the taxonomy of a fresh reasoner, which the next slice of
        the stream then uses.

        A fresh reasoner per slice keeps the stream's cache from growing
        with the run: the entailed answers survive the edits and pile up,
        so a run that got through more rounds hit the cache more and ran
        faster still.
        """
        fresh = load(self.text)
        start = time.perf_counter()
        hierarchy = fresh.classify(kind=InclusionKind.INTERNAL)
        self.taxonomy_seconds.append(time.perf_counter() - start)
        self.taxonomies.append(taxonomy_names(hierarchy))
        self.reasoner = fresh

    # -- the run -------------------------------------------------------
    def cold_setup(self, path):
        """One cold set-up in a fresh process (see :mod:`coldstart`).

        A fresh process pays the imports; a second load in this one
        would be a warm one.
        """
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, COLDSTART, path], stdout=subprocess.PIPE, text=True
        )
        try:
            # Free of the main thread's current CPU, as a user's process is.
            os.sched_setaffinity(child.pid, ALLOWED_CPUS)
            out, _ = child.communicate(timeout=120)
        except BaseException:
            child.kill()
            child.wait()
            raise
        if child.returncode:
            raise RuntimeError(f"cold set-up exited with {child.returncode}")
        self.setup_samples.append(float(out))
        self.cold_seconds += time.perf_counter() - start

    def execute(self):
        self.began = time.perf_counter()
        self.measure(UNIVERSITY_PATH)
        self.finished = time.perf_counter()
        self.rss_mb = peak_rss_mb()

    def measure(self, path):
        """The measured phase: whole cycles of a taxonomy repetition and
        a slice of ``SLICE_ROUNDS`` rounds, until ``--seconds`` is used
        up, with the cold set-ups spread through it.

        The VM's speed changes over seconds, so set-ups taken back to
        back all see the same moment; spread out, they see the same mix
        of moments as the rest of the run.  One is taken after a round
        once it is due, and their time is kept out of the stream's.
        """
        begin = time.perf_counter()
        interval = self.seconds / COLD_SETUPS
        while time.perf_counter() < begin + self.seconds:
            self.taxonomy()
            slice_start = time.perf_counter()
            cold_before = self.cold_seconds
            for _ in range(SLICE_ROUNDS):
                self.round()
                taken = len(self.setup_samples)
                due = begin + interval * (taken + 0.5)
                if taken < COLD_SETUPS and time.perf_counter() >= due:
                    self.cold_setup(path)
            self.stream_seconds += (
                time.perf_counter() - slice_start
                - (self.cold_seconds - cold_before)
            )
        while len(self.setup_samples) < COLD_SETUPS:
            self.cold_setup(path)

    def check(self):
        """Compare every answer with the references (after the clock)."""
        answers = dict(self.answers)
        for probe in UNIVERSITY_BATTERY:
            answers[probe] = run_probe(self.reasoner, probe)
        return self.problems + check_university(self, answers)


def check_university(run, answers):
    problems = []
    for taxonomy in run.taxonomies:
        problems += reference.check_university_taxonomy(taxonomy)
    for probe, answer in answers.items():
        problem = None
        if probe[0] == "assertion_value":
            problem = reference.check_university_value(
                probe[1], probe[2], answer, run.text
            )
        elif probe[0] == "instance":
            problem = reference.check_university_evidence(
                probe[1], probe[2], answer, run.text
            )
        elif probe[0] == "subsumption":
            problem = reference.check_university_inclusion(*probe[1:], answer)
        elif answer is not True:
            problem = "university is not four-valued satisfiable"
        if problem:
            problems.append(problem)
    if run.unknown_probes:
        problems.append(f"{len(run.unknown_probes)} university probes UNKNOWN")
    return problems


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(setup_samples, taxonomy_seconds, latencies, stream_seconds,
               rss_mb):
    """The six end-to-end metrics, computed alike for every workload.

    ``setup_s`` is the mean of the run's cold set-ups, not their median:
    on a shared VM a short process runs at one of two speeds, about a
    third apart, and a median of a few such samples jumps between the
    two (0.18 of spread over five runs of a generated 10^3-axiom KB,
    against 0.11 for the mean of the same samples).
    """
    return {
        "setup_s": (statistics.mean(setup_samples), "s"),
        "taxonomy_s": (statistics.median(taxonomy_seconds), "s"),
        "queries_per_s": (len(latencies) / stream_seconds, "1/s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
