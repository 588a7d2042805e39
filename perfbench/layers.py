"""Per-layer accounting for the in-process workload.

The traced pass wraps each layer's public entry points from here, so the
program runs unchanged.  Each wrapped call is a frame on one stack; a
layer is credited with its *self* time (the call's duration minus the
wrapped calls nested inside it), so the layer times add up to the time
spent inside the program without double counting.

Layers and the entry points that define them:

* ``parse`` -- ``repro.dl.parser.parse_kb4``;
* ``transform`` -- ``cached_transform_kb`` (every call) and
  ``transform_kb`` / ``transform_kb_with_provenance`` (a full
  re-transform instead of a memo hit);
* ``sync`` -- ``QueryCache.invalidate_delta``, ``SaturationEngine.update``
  and a ``Tableau`` built outside ``Reasoner`` construction (the rebuild
  after an edit);
* ``cache`` -- ``QueryCache.lookup``, ``QueryCache.store`` and
  ``probe_set_key``;
* ``saturation`` -- ``SaturationEngine.satisfiable_with``; its
  construction is ``saturation_build``;
* ``tableau`` -- ``Tableau.is_satisfiable``;
* ``service`` -- the public ``Reasoner4`` calls the benchmark makes,
  less everything above.
"""

import time
from collections import Counter, defaultdict

#: The public Reasoner4 calls the workloads make (the service layer).
SERVICE_METHODS = (
    "__init__",
    "is_satisfiable",
    "is_satisfiable_verdict",
    "evidence_for_verdict",
    "entails_verdict",
    "assertion_value_bounded",
    "classify",
)

#: Per-layer metric names of the in-process workload, in report order.
INPROC_METRICS = (
    ("parse.s", "s"), ("parse.axioms", "count"),
    ("transform.s", "s"), ("transform.calls", "count"),
    ("transform.full", "count"),
    ("sync.s", "s"), ("sync.invalidated", "count"),
    ("sync.survived", "count"), ("sync.saturation_rebuilds", "count"),
    ("sync.tableau_builds", "count"),
    ("cache.s", "s"), ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.evictions", "count"),
    ("saturation.build_s", "s"), ("saturation.s", "s"),
    ("saturation.probes", "count"), ("saturation.answer_ratio", "ratio"),
    ("tableau.s", "s"), ("tableau.runs", "count"),
    ("tableau.branches", "count"), ("tableau.aborts", "count"),
    ("service.s", "s"),
)


class Layers:
    """Installs the wrappers, accumulates self times and counts."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.stats = []
        self.delay = {}
        self._stack = []
        self._constructing = 0
        self._patches = []

    # -- wrapping ------------------------------------------------------
    def _frame(self, layer, call, note=None):
        """Run ``call()`` as one frame of ``layer``; ``note(result, exc)``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        result, error = None, None
        try:
            pause = self.delay.get(layer)
            if pause:
                time.sleep(pause)
            result = call()
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[layer] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if note is not None:
                note(result, error)

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self):
        import repro.dl.parser as parser
        import repro.dl.reasoner as reasoner_mod
        import repro.four_dl.reasoner4 as reasoner4_mod
        import repro.four_dl.transform as transform
        from repro.dl.cache import QueryCache
        from repro.dl.errors import BudgetExceeded
        from repro.dl.reasoner import Reasoner
        from repro.dl.saturation import SaturationEngine
        from repro.dl.tableau import Tableau
        from repro.four_dl.reasoner4 import Reasoner4

        counts = self.counts
        frame = self._frame

        def simple(layer, note=None):
            def make(original):
                def wrapper(*args, **kwargs):
                    return frame(
                        layer, lambda: original(*args, **kwargs), note
                    )
                return wrapper
            return make

        def counted(key, amount=lambda result: 1):
            def note(result, error):
                if error is None:
                    counts[key] += amount(result)
            return note

        self._patch(parser, "parse_kb4", simple(
            "parse", counted("parse.axioms", len)))
        for owner in (transform, reasoner4_mod):
            self._patch(owner, "cached_transform_kb", simple(
                "transform", counted("transform.calls")))
        for name in ("transform_kb", "transform_kb_with_provenance"):
            self._patch(transform, name, simple(
                "transform", counted("transform.full")))

        def invalidated(result, error):
            if error is None:
                counts["sync.invalidated"] += result[0]
                counts["sync.survived"] += result[1]

        self._patch(QueryCache, "invalidate_delta", simple("sync", invalidated))
        self._patch(SaturationEngine, "update", simple("sync", counted(
            "sync.saturation_rebuilds", lambda cone: int(cone is None))))

        def reasoner_init(original):
            def wrapper(*args, **kwargs):
                self._constructing += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    self._constructing -= 1
            return wrapper

        self._patch(Reasoner, "__init__", reasoner_init)

        def tableau_init(original):
            rebuild = simple("sync", counted("sync.tableau_builds"))(original)

            def wrapper(*args, **kwargs):
                if self._constructing:
                    return original(*args, **kwargs)
                return rebuild(*args, **kwargs)
            return wrapper

        self._patch(Tableau, "__init__", tableau_init)

        def lookup_note(result, error):
            if error is None:
                counts["cache.lookups"] += 1
                counts["cache.hits"] += int(result is not None)

        self._patch(QueryCache, "lookup", simple("cache", lookup_note))

        def store(original):
            def wrapper(cache, *args, **kwargs):
                before = cache.evictions

                def note(result, error):
                    counts["cache.evictions"] += cache.evictions - before

                return frame(
                    "cache", lambda: original(cache, *args, **kwargs), note
                )
            return wrapper

        self._patch(QueryCache, "store", store)
        self._patch(reasoner_mod, "probe_set_key", simple("cache"))
        self._patch(SaturationEngine, "__init__", simple("saturation_build"))

        def saturation_note(result, error):
            counts["saturation.probes"] += 1
            if error is not None:
                counts["saturation.raised"] += 1
            elif result is not None:
                counts["saturation.answered"] += 1

        self._patch(SaturationEngine, "satisfiable_with",
                    simple("saturation", saturation_note))

        def is_satisfiable(original):
            def wrapper(tableau, *args, **kwargs):
                stats = tableau.stats
                before = stats.branches_explored if stats is not None else 0

                def note(result, error):
                    counts["tableau.runs"] += 1
                    if stats is not None:
                        counts["tableau.branches"] += (
                            stats.branches_explored - before
                        )
                    if isinstance(error, BudgetExceeded):
                        counts["tableau.aborts"] += 1

                return frame(
                    "tableau", lambda: original(tableau, *args, **kwargs), note
                )
            return wrapper

        self._patch(Tableau, "is_satisfiable", is_satisfiable)

        for name in SERVICE_METHODS:
            self._patch(Reasoner4, name, simple("service"))

        def register(original):
            def wrapper(reasoner, *args, **kwargs):
                original(reasoner, *args, **kwargs)
                self.stats.append(reasoner.stats)
            return wrapper

        self._patch(Reasoner4, "__init__", register)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------
    def total_seconds(self):
        return sum(self.seconds.values())

    def metrics(self):
        counts, seconds = self.counts, self.seconds
        lookups = counts["cache.lookups"]
        probes = counts["saturation.probes"]
        values = {
            "parse.s": seconds["parse"],
            "transform.s": seconds["transform"],
            "sync.s": seconds["sync"],
            "cache.s": seconds["cache"],
            "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
            "saturation.build_s": seconds["saturation_build"],
            "saturation.s": seconds["saturation"],
            "saturation.answer_ratio": (
                counts["saturation.answered"] / probes if probes else 0.0
            ),
            "tableau.s": seconds["tableau"],
            "service.s": seconds["service"],
        }
        for name, unit in INPROC_METRICS:
            if name not in values:
                values[name] = counts[name]
        return {name: (values[name], unit) for name, unit in INPROC_METRICS}

    def cross_check(self):
        """Disagreements between wrapper counts and ``ReasonerStats``."""
        return cross_check(self.counts, self.stats)


def cross_check(counts, stats_list):
    """Disagreements between wrapper counts and the program's counters."""
    total = Counter()
    for stats in stats_list:
        total.update(stats.as_dict())
    expected = {
        "tableau runs": (counts["tableau.runs"], total["tableau_runs"]),
        "saturation probes": (
            counts["saturation.probes"] - counts["saturation.raised"],
            total["saturation_queries"] + total["saturation_fallbacks"],
        ),
        "saturation answers": (
            counts["saturation.answered"], total["saturation_queries"]
        ),
        "cache lookups": (
            counts["cache.lookups"], total["cache_hits"] + total["cache_misses"]
        ),
        "cache hits": (counts["cache.hits"], total["cache_hits"]),
    }
    return [
        f"{name}: wrappers {seen} != program {program}"
        for name, (seen, program) in expected.items()
        if seen != program
    ]
