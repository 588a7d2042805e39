"""Command-line interface: audit, query, and transform ontology files.

The ontology file format is the line-based concrete syntax of
:mod:`repro.dl.parser` (four-valued inclusions ``|->``/``<``/``->``
allowed; plain ``subclassof`` reads as internal inclusion).  Commands:

* ``check FILE``      — four-valued satisfiability (and the classical
  verdict of the collapsed ontology for comparison);
* ``query FILE a C``  — the entailed Belnap status of ``C(a)``;
* ``audit FILE``      — full conflict report: localised contradictions,
  inconsistency/information degrees, per-concept breakdown;
* ``classify FILE``   — the atomic concept hierarchy under a chosen
  inclusion strength (internal by default);
* ``transform FILE``  — print the classical induced KB (Definitions 5-7);
* ``export-owl FILE`` — the induced KB as OWL functional syntax, ready
  for any external OWL DL reasoner;
* ``experiments``     — run the paper-reproduction battery;
* ``eval run``        — execute a declarative eval suite into an
  isolated ``eval/results/<run-id>/`` directory (``manifest.json`` +
  ``metrics.jsonl`` + ``SUMMARY.md`` + a ``BENCH_*.json`` trajectory
  record, all schema-validated; see ``docs/EVAL.md``); ``eval list``
  names the suites;
* ``profile FILE``    — phase report over a ``--profile FILE`` span dump
  (``--folded OUT`` renders flamegraph.pl-compatible folded stacks);
* ``serve ...``       — the long-lived reasoning service (admission
  control, worker pool, tracing + request journal; ``docs/GUIDE.md``
  §10);
* ``trace SOURCE``    — render the cross-process span tree of one
  served request, from a ``--capture-dir`` file or straight off a
  running server's ``/trace/<id>`` URL.

``check``, ``query``, ``audit``, and ``classify`` accept ``--stats`` to
print the reasoning-work counters (tableau runs, cache hits, branches,
trail length, backjumps) after the answer, and ``--engine
{auto,tableau}`` to choose whether the saturation fast path runs
before the tableau.

``check`` and ``query`` additionally accept ``--explain`` — print a
subset-minimal justification citing the original KB4 axioms, annotated
with their Table 3 inclusion strength — and ``--trace`` to dump the
structured tableau search trace of each probe run (``--trace`` implies
``--explain``).  For a ``query`` answering BOTH, both evidence
directions are justified separately.

``check``, ``query``, ``audit``, ``classify``, and ``repair`` accept
observability flags (see ``docs/OBSERVABILITY.md``): ``--profile``
prints the nested span tree of the run (``--profile FILE`` writes it as
JSON lines instead), and ``--metrics-out FILE`` writes Prometheus-style
text metrics — span-duration histograms plus the reasoning-work
counters.  ``repair`` also accepts ``--stats``.

``check``, ``query``, ``classify``, and ``repair`` accept reasoning
budgets: ``--timeout SECONDS`` (wall-clock deadline), ``--max-nodes N``
and ``--max-branches N``.  A command that cannot decide its question
within the budget prints a one-line ``unknown: ...`` message and exits
with status 3 instead of crashing (``classify`` additionally prints the
partial hierarchy it did decide).

Exit status is 0 on success, 1 when a check fails (inconsistent /
unsatisfiable / query not entailed), 2 on usage or parse errors, and 3
when the answer is UNKNOWN because a reasoning budget was exhausted.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .dl import axioms as ax
from .dl.budget import Budget
from .dl.concepts import AtomicConcept, Not
from .dl.errors import ParseError, ReasonerLimitExceeded, ReproError
from .dl.individuals import Individual
from .dl.parser import ConceptParser, parse_kb4
from .dl.printer import render_axiom
from .dl.owl import to_functional
from .dl.reasoner import Reasoner
from .four_dl.axioms4 import InclusionKind, KnowledgeBase4, collapse_to_classical
from .four_dl.metrics import conflict_profile
from .four_dl.reasoner4 import Reasoner4
from .four_dl.transform import transform_kb
from .fourvalued.truth import FourValue
from .harness.tables import print_table
from .obs import (
    Tracer,
    active_tracer,
    phase_breakdown,
    read_spans_jsonl,
    render_prometheus,
    render_span_tree,
    tracing,
    write_spans_jsonl,
)
from .obs.export import folded_stacks
from .obs.spans import span as obs_span

#: Cap on full --trace output per probe run, to keep terminals usable.
TRACE_LINE_LIMIT = 60

#: Exit status for answers degraded to UNKNOWN by budget exhaustion.
EXIT_UNKNOWN = 3


def _load_kb4(path: str) -> KnowledgeBase4:
    with obs_span("parse") as span:
        span.set("path", path)
        with open(path) as handle:
            kb4 = parse_kb4(handle.read())
        span.set("axioms", len(kb4))
        return kb4


def _watch_stats(stats) -> None:
    """Register ``stats`` with the active tracer, if tracing is on."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.watch_stats(stats)


def _make_reasoner(args: argparse.Namespace, kb4: KnowledgeBase4) -> Reasoner4:
    reasoner = Reasoner4(kb4, engine=getattr(args, "engine", "auto"))
    _watch_stats(reasoner.stats)
    return reasoner


def _verdict_word(verdict) -> str:
    """``True`` / ``False`` / ``unknown`` for CLI output."""
    return "unknown" if verdict.is_unknown() else str(bool(verdict))


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    """The :class:`~repro.dl.budget.Budget` the flags describe, if any."""
    timeout = getattr(args, "timeout", None)
    max_nodes = getattr(args, "budget_nodes", None)
    max_branches = getattr(args, "budget_branches", None)
    if timeout is None and max_nodes is None and max_branches is None:
        return None
    return Budget(
        deadline=timeout, max_nodes=max_nodes, max_branches=max_branches
    )


def _print_stats(args: argparse.Namespace, reasoner: Reasoner4) -> None:
    if getattr(args, "stats", False):
        print(f"work: {reasoner.stats.render()}")


def _explain_requested(args: argparse.Namespace) -> bool:
    return getattr(args, "explain", False) or getattr(args, "trace", False)


def _print_traces(args: argparse.Namespace, traces) -> None:
    from .explain import render_trace

    if not getattr(args, "trace", False):
        return
    for trace in traces:
        print(render_trace(trace, max_lines=TRACE_LINE_LIMIT))


def _cmd_check(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    budget = _budget_from(args)
    reasoner = _make_reasoner(args, kb4)
    four = reasoner.is_satisfiable_verdict(budget=budget)
    classical_reasoner = Reasoner(collapse_to_classical(kb4))
    _watch_stats(classical_reasoner.stats)
    classical = classical_reasoner.consistency_verdict(budget=budget)
    print(f"axioms:                  {len(kb4)}")
    print(f"four-valued satisfiable: {_verdict_word(four)}")
    print(f"classically consistent:  {_verdict_word(classical)}")
    if four.is_unknown() or classical.is_unknown():
        degraded = four if four.is_unknown() else classical
        print(
            f"unknown: satisfiability undecided within budget "
            f"({degraded.reason.value}); retry with a larger budget"
        )
        _print_stats(args, reasoner)
        return EXIT_UNKNOWN
    four_ok = bool(four)
    classical_ok = bool(classical)
    if four_ok and not classical_ok:
        print(
            "the ontology contradicts itself classically but stays "
            "meaningful four-valuedly; run 'audit' to localise the conflicts"
        )
    if _explain_requested(args):
        if not four_ok:
            explanation = reasoner.explain_unsatisfiability(
                trace=getattr(args, "trace", False)
            )
            print()
            print(explanation.render(heading="--- why four-valued unsatisfiable ---"))
            _print_traces(args, explanation.traces)
        elif not classical_ok:
            classical = Reasoner(collapse_to_classical(kb4))
            explanation = classical.explain_inconsistency(
                trace=getattr(args, "trace", False)
            )
            print()
            print(
                explanation.render(
                    heading="--- why classically inconsistent (collapsed) ---"
                )
            )
            _print_traces(args, explanation.traces)
        else:
            print("nothing to explain: the ontology is satisfiable both ways")
    _print_stats(args, reasoner)
    return 0 if four_ok else 1


def _cmd_query(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    parser = ConceptParser(
        role.name for role in kb4.datatype_roles_in_signature()
    )
    concept = parser.parse(args.concept)
    individual = Individual(args.individual)
    budget = _budget_from(args)
    reasoner = _make_reasoner(args, kb4)
    bounded = reasoner.assertion_value_bounded(individual, concept, budget=budget)
    if bounded.is_unknown():
        print(
            f"{args.concept}({args.individual}) = unknown  "
            f"(budget exhausted: {bounded.reason.value}; "
            f"retry with a larger budget)"
        )
        _print_stats(args, reasoner)
        return EXIT_UNKNOWN
    value = bounded.value
    explanation = {
        FourValue.TRUE: "evidence for, none against",
        FourValue.FALSE: "evidence against, none for",
        FourValue.BOTH: "contradictory evidence (localised conflict)",
        FourValue.NEITHER: "no entailed evidence either way",
    }[value]
    print(f"{args.concept}({args.individual}) = {value}  ({explanation})")
    if _explain_requested(args):
        directions = []
        if value in (FourValue.TRUE, FourValue.BOTH):
            directions.append(
                ("evidence for", ax.ConceptAssertion(individual, concept))
            )
        if value in (FourValue.FALSE, FourValue.BOTH):
            directions.append(
                ("evidence against", ax.ConceptAssertion(individual, Not(concept)))
            )
        if not directions:
            print("nothing to explain: neither direction is entailed")
        for label, query_axiom in directions:
            result = reasoner.explain(
                query_axiom, trace=getattr(args, "trace", False)
            )
            print()
            print(result.render(heading=f"--- {label} ---"))
            _print_traces(args, result.traces)
    _print_stats(args, reasoner)
    return 0 if value in (FourValue.TRUE, FourValue.BOTH) else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    reasoner = _make_reasoner(args, kb4)
    print(f"axioms: {len(kb4)}")
    print(f"four-valued satisfiable: {reasoner.is_satisfiable()}")
    profile = conflict_profile(reasoner, include_roles=not args.no_roles)
    print(f"inconsistency degree: {profile.inconsistency_degree:.3f}")
    print(f"information degree:   {profile.information_degree:.3f}")
    conflicts = reasoner.contradictory_facts()
    if conflicts:
        rows = [
            (individual.name, ", ".join(sorted(c.name for c in concepts)))
            for individual, concepts in sorted(conflicts.items())
        ]
        print_table(
            ["individual", "contradictory about"], rows, title="\nConflicts:"
        )
    else:
        print("no contradictions entailed")
    if args.full:
        print_table(
            ["fact", "status"], profile.rows(), title="\nFull fact census:"
        )
    _print_stats(args, reasoner)
    return 0 if not conflicts else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    kind = InclusionKind[args.kind.upper()]
    budget = _budget_from(args)
    reasoner = _make_reasoner(args, kb4)
    if budget is None:
        hierarchy = reasoner.classify(kind=kind)
        undecided: tuple = ()
        reason = None
    else:
        partial = reasoner.classify_bounded(kind=kind, budget=budget)
        hierarchy = partial.hierarchy
        undecided = partial.undecided
        reason = partial.reason
    rows = []
    for atom in sorted(hierarchy, key=lambda a: a.name):
        supers = sorted(
            sup.name for sup in hierarchy[atom] if sup != atom
        )
        rows.append((atom.name, ", ".join(supers) if supers else "-"))
    print_table(
        ["concept", f"{args.kind} subsumers"],
        rows,
        title=f"Hierarchy ({args.kind} inclusion):",
    )
    _print_stats(args, reasoner)
    if undecided:
        print(
            f"unknown: {len(undecided)} subsumption pairs undecided within "
            f"budget ({reason.value}); the hierarchy above is partial"
        )
        return EXIT_UNKNOWN
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from .baselines.repair import RepairReasoner
    from .four_dl.axioms4 import collapse_to_classical as collapse

    kb4 = _load_kb4(args.file)
    budget = _budget_from(args)
    repairer = RepairReasoner(
        collapse(kb4), max_subsets=args.max_justifications, budget=budget
    )
    _watch_stats(repairer.stats)

    def finish(status: int) -> int:
        if getattr(args, "stats", False):
            print(f"work: {repairer.stats.render()}")
        return status

    if not repairer.justifications:
        if repairer.degradations:
            print(
                f"unknown: diagnosis undecided within budget "
                f"({repairer.degradations[0].reason.value})"
            )
            return finish(EXIT_UNKNOWN)
        print("the ontology is classically consistent; nothing to repair")
        return finish(0)
    print(f"justifications found: {len(repairer.justifications)}")
    for index, justification in enumerate(repairer.justifications, start=1):
        print(f"  justification {index}:")
        for axiom in sorted(justification, key=repr):
            print(f"    {render_axiom(axiom)}")
    print(f"minimal repairs: {len(repairer.repair_sets)}")
    for index, repair in enumerate(repairer.repair_sets, start=1):
        removed = "; ".join(sorted(render_axiom(axiom) for axiom in repair))
        print(f"  repair {index}: remove {{ {removed} }}")
    if repairer.degradations:
        print(
            f"unknown: {len(repairer.degradations)} diagnosis probes "
            f"undecided within budget; the report above may be incomplete"
        )
        return finish(EXIT_UNKNOWN)
    return finish(1)


def _cmd_transform(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    induced = transform_kb(kb4)
    for axiom in induced.axioms():
        print(render_axiom(axiom))
    return 0


def _cmd_export_owl(args: argparse.Namespace) -> int:
    kb4 = _load_kb4(args.file)
    induced = transform_kb(kb4)
    sys.stdout.write(to_functional(induced, iri=args.iri))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .harness.experiments import ALL_EXPERIMENTS, run_all

    names = args.names or None
    unknown = [n for n in (names or []) if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    results = run_all(names)
    for result in results:
        print(result.render())
        print()
    failures = [r.name for r in results if not r.passed]
    if failures:
        print("FAILED:", ", ".join(failures))
        return 1
    print(f"All {len(results)} experiments reproduce the paper.")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .eval import ALL_SUITES, EvalRunError, run_suite

    if args.eval_command == "list":
        rows = [
            (name, "yes" if suite.needs_scale else "no", suite.description)
            for name, suite in sorted(ALL_SUITES.items())
        ]
        print_table(["suite", "needs --scale", "description"], rows)
        return 0
    print(f"running suite {args.suite!r} (seed {args.seed}) ...")
    try:
        result = run_suite(
            args.suite,
            out_root=args.out,
            seed=args.seed,
            repeats=args.repeats,
            scale=args.scale,
            only=args.only or None,
            echo=print,
        )
    except EvalRunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"run directory: {result.directory}")
    print(
        f"wrote manifest.json, metrics.jsonl ({len(result.metrics)} probes), "
        f"SUMMARY.md, {result.bench_path.name} (all schema-validated)"
    )
    if result.unknown_probes:
        print(
            f"note: {len(result.unknown_probes)} probe(s) degraded to "
            f"unknown within budget: {', '.join(result.unknown_probes)}"
        )
    if result.failed_probes:
        print(
            f"FAILED probes: {', '.join(result.failed_probes)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    with open(args.spanfile) as handle:
        try:
            roots = read_spans_jsonl(handle.read())
        except ValueError as error:
            print(f"error: {args.spanfile}: {error}", file=sys.stderr)
            return 2
    if not roots:
        print("no spans in file", file=sys.stderr)
        return 2
    rows = [
        (
            name,
            count,
            f"{total:.4f}",
            f"{p50:.4f}",
            f"{p95:.4f}",
            f"{peak:.4f}",
            share,
        )
        for name, count, total, p50, p95, peak, share in phase_breakdown(roots)
    ]
    print_table(
        ["span", "count", "total s", "p50 s", "p95 s", "max s", "share"],
        rows,
        title=f"Profile of {args.spanfile}:",
    )
    if args.tree:
        print()
        print(render_span_tree(roots))
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(folded_stacks(roots))
        print(f"wrote folded stacks to {args.folded}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    source = args.source
    if source.startswith(("http://", "https://")):
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(source, timeout=10.0) as raw:
                text = raw.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as error:
            print(f"error: {source}: {error}", file=sys.stderr)
            return 2
    else:
        with open(source) as handle:
            text = handle.read()
    try:
        roots = read_spans_jsonl(text)
    except ValueError as error:
        print(f"error: {source}: {error}", file=sys.stderr)
        return 2
    if not roots:
        print("no spans in trace", file=sys.stderr)
        return 2
    trace_ids = sorted(
        {span.trace_id for root in roots for span in root.walk() if span.trace_id}
    )
    processes = sorted(
        {span.process for root in roots for span in root.walk() if span.process}
    )
    total = sum(1 for root in roots for _ in root.walk())
    print(f"trace: {', '.join(trace_ids) if trace_ids else '(untagged)'}")
    print(
        f"spans: {total} across {len(roots)} root(s); "
        f"processes: {', '.join(processes) if processes else '(untagged)'}"
    )
    print()
    print(render_span_tree(roots), end="")
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(folded_stacks(roots))
        print(f"wrote folded stacks to {args.folded}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve.server import ReproServer

    kb_paths = {}
    for spec in args.kbs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            path = spec
            name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        if not name or not path:
            print(f"error: bad --kb spec {spec!r} (NAME=PATH)", file=sys.stderr)
            return 2
        if name in kb_paths:
            print(f"error: duplicate kb name {name!r}", file=sys.stderr)
            return 2
        kb_paths[name] = path
    for name, path in kb_paths.items():
        try:
            with open(path):
                pass
        except OSError as error:
            print(f"error: kb {name!r}: {error}", file=sys.stderr)
            return 2
    server = ReproServer(
        kb_paths,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout=args.drain_timeout,
        chaos=args.chaos,
        quiet=not args.verbose,
        tracing_enabled=args.serve_tracing,
        trace_capacity=args.trace_capacity,
        journal_capacity=args.journal_capacity,
        journal_path=args.journal,
        capture_dir=args.capture_dir,
        slow_trace_ms=args.slow_ms,
    )

    def drain(signum, frame):  # noqa: ARG001 - signal signature
        # The handler must return immediately (it runs on the main
        # thread, which is inside serve_forever); drain elsewhere.
        threading.Thread(
            target=server.shutdown_gracefully, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    server.start()
    host, port = server.address
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"({len(kb_paths)} kb(s), {args.workers} worker(s), "
        f"queue {args.max_queue})",
        file=sys.stderr,
        flush=True,
    )
    server.serve_forever()
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Paraconsistent OWL DL reasoning with SHOIN(D)4",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats_help = "print reasoning-work counters after the answer"
    engine_help = (
        "reasoning engine dispatch: auto tries the polynomial saturation "
        "fast path before the tableau (default); tableau disables it"
    )

    explain_help = (
        "print a minimal justification citing the original KB4 axioms, "
        "annotated with their Table 3 inclusion strength"
    )
    trace_help = (
        "also dump the structured tableau search trace of each probe run "
        "(implies --explain)"
    )

    def add_reasoning_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--stats", action="store_true", help=stats_help)
        subparser.add_argument(
            "--engine",
            choices=["auto", "tableau"],
            default="auto",
            help=engine_help,
        )

    def add_explain_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--explain", action="store_true", help=explain_help
        )
        subparser.add_argument(
            "--trace", action="store_true", help=trace_help
        )

    def add_obs_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--profile",
            nargs="?",
            const="",
            metavar="FILE",
            help="trace the run as nested spans; bare --profile prints the "
            "span tree, --profile FILE writes machine-readable JSON lines "
            "(one span per line; see docs/OBSERVABILITY.md)",
        )
        subparser.add_argument(
            "--metrics-out",
            dest="metrics_out",
            metavar="FILE",
            help="write Prometheus-style text metrics (span-duration "
            "histograms and reasoner work counters) after the run",
        )

    def add_budget_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--timeout",
            type=float,
            metavar="SECONDS",
            help="wall-clock reasoning deadline; exceeding it answers "
            "unknown (exit status 3) instead of crashing",
        )
        subparser.add_argument(
            "--max-nodes",
            type=int,
            dest="budget_nodes",
            metavar="N",
            help="cap completion-graph nodes per tableau run",
        )
        subparser.add_argument(
            "--max-branches",
            type=int,
            dest="budget_branches",
            metavar="N",
            help="cap total branches explored while answering",
        )

    check = commands.add_parser("check", help="satisfiability check")
    check.add_argument("file", help="ontology file (concrete syntax)")
    add_reasoning_flags(check)
    add_explain_flags(check)
    add_budget_flags(check)
    add_obs_flags(check)
    check.set_defaults(handler=_cmd_check)

    query = commands.add_parser("query", help="Belnap status of C(a)")
    query.add_argument("file")
    query.add_argument("individual", help="individual name")
    query.add_argument("concept", help="concept expression")
    add_reasoning_flags(query)
    add_explain_flags(query)
    add_budget_flags(query)
    add_obs_flags(query)
    query.set_defaults(handler=_cmd_query)

    audit = commands.add_parser("audit", help="conflict report and degrees")
    audit.add_argument("file")
    audit.add_argument(
        "--full", action="store_true", help="print the full fact census"
    )
    audit.add_argument(
        "--no-roles", action="store_true", help="skip role-atom statuses"
    )
    add_reasoning_flags(audit)
    add_obs_flags(audit)
    audit.set_defaults(handler=_cmd_audit)

    classify = commands.add_parser(
        "classify", help="atomic concept hierarchy"
    )
    classify.add_argument("file")
    classify.add_argument(
        "--kind",
        choices=["material", "internal", "strong"],
        default="internal",
        help="inclusion strength (default: internal)",
    )
    add_reasoning_flags(classify)
    add_budget_flags(classify)
    add_obs_flags(classify)
    classify.set_defaults(handler=_cmd_classify)

    repair = commands.add_parser(
        "repair", help="diagnose: justifications + minimal repairs"
    )
    repair.add_argument("file")
    repair.add_argument(
        "--max-justifications", type=int, default=10, dest="max_justifications"
    )
    repair.add_argument("--stats", action="store_true", help=stats_help)
    add_budget_flags(repair)
    add_obs_flags(repair)
    repair.set_defaults(handler=_cmd_repair)

    transform = commands.add_parser(
        "transform", help="print the classical induced KB"
    )
    transform.add_argument("file")
    transform.set_defaults(handler=_cmd_transform)

    export = commands.add_parser(
        "export-owl", help="induced KB as OWL functional syntax"
    )
    export.add_argument("file")
    export.add_argument(
        "--iri", default="http://example.org/onto", help="ontology IRI"
    )
    export.set_defaults(handler=_cmd_export_owl)

    experiments = commands.add_parser(
        "experiments", help="run the paper-reproduction battery"
    )
    experiments.add_argument("names", nargs="*", help="subset to run")
    experiments.set_defaults(handler=_cmd_experiments)

    eval_parser = commands.add_parser(
        "eval", help="scale-proof eval runs (manifests + metrics + summary)"
    )
    eval_commands = eval_parser.add_subparsers(
        dest="eval_command", required=True
    )
    eval_run = eval_commands.add_parser(
        "run", help="execute a suite into an isolated run directory"
    )
    eval_run.add_argument(
        "--suite",
        required=True,
        help="suite name (see 'repro eval list')",
    )
    eval_run.add_argument(
        "--out",
        default="eval/results",
        help="parent directory for run directories (default: eval/results)",
    )
    eval_run.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default: 0)"
    )
    eval_run.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="override every probe's repeat count",
    )
    eval_run.add_argument(
        "--scale",
        action="store_true",
        help="allow 10^4+-axiom suites (scaling_large)",
    )
    eval_run.add_argument(
        "--only",
        nargs="*",
        metavar="PROBE",
        help="restrict the run to the named probes",
    )
    eval_run.set_defaults(handler=_cmd_eval)
    eval_list = eval_commands.add_parser(
        "list", help="list the available suites"
    )
    eval_list.set_defaults(handler=_cmd_eval)

    serve = commands.add_parser(
        "serve",
        help="long-lived reasoning service over HTTP (see docs/GUIDE.md §10)",
    )
    serve.add_argument(
        "kbs",
        nargs="+",
        metavar="NAME=FILE",
        help="ontology to serve, named (plain FILE uses the file stem)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8455, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="reasoning worker processes (0 = inline, no crash isolation)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        dest="max_queue",
        help="admission bound: requests queued or running at once "
        "(beyond it the server sheds load with 429 + Retry-After)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=30_000.0,
        dest="default_deadline_ms",
        help="deadline applied to requests that carry none",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        dest="drain_timeout",
        help="seconds SIGTERM waits for in-flight requests before "
        "cancelling them",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="arm the debug_crash/debug_stall probe kinds "
        "(fault-injection testing only; never in production)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="append the structured request journal (one JSON line per "
        "request) to FILE in addition to the in-memory ring",
    )
    serve.add_argument(
        "--no-trace",
        dest="serve_tracing",
        action="store_false",
        default=True,
        help="disable per-request tracing (no span collection, no "
        "GET /trace/<id>; the journal still records every request)",
    )
    serve.add_argument(
        "--capture-dir",
        dest="capture_dir",
        metavar="DIR",
        default=None,
        help="write the full span forest of slow-or-UNKNOWN requests to "
        "DIR/<trace_id>.jsonl (render with 'repro trace')",
    )
    serve.add_argument(
        "--slow-ms",
        dest="slow_ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="latency threshold for the --capture-dir policy "
        "(default: 1000)",
    )
    serve.add_argument(
        "--trace-capacity",
        dest="trace_capacity",
        type=int,
        default=256,
        metavar="N",
        help="traces kept in memory for GET /trace/<id> (default: 256)",
    )
    serve.add_argument(
        "--journal-capacity",
        dest="journal_capacity",
        type=int,
        default=1024,
        metavar="N",
        help="journal entries kept in the in-memory ring (default: 1024)",
    )
    serve.set_defaults(handler=_cmd_serve)

    trace_cmd = commands.add_parser(
        "trace",
        help="render a served request's span forest (file or /trace URL)",
    )
    trace_cmd.add_argument(
        "source",
        help="span JSONL: a --capture-dir file, a --profile dump, or an "
        "http(s) URL such as http://HOST:PORT/trace/<id>",
    )
    trace_cmd.add_argument(
        "--folded",
        metavar="FILE",
        help="write flamegraph.pl-compatible folded stacks",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    profile = commands.add_parser(
        "profile", help="report on a --profile FILE span dump"
    )
    profile.add_argument("spanfile", help="JSON-lines span dump to analyse")
    profile.add_argument(
        "--tree", action="store_true", help="also print the full span tree"
    )
    profile.add_argument(
        "--folded",
        metavar="FILE",
        help="write flamegraph.pl-compatible folded stacks",
    )
    profile.set_defaults(handler=_cmd_profile)
    return parser


def _export_observability(args: argparse.Namespace, tracer: Tracer) -> None:
    """Emit the requested span / metrics artefacts after a traced run."""
    profile = getattr(args, "profile", None)
    if profile == "":
        print()
        print(render_span_tree(tracer.roots), end="")
        rows = [
            (name, count, f"{total:.4f}", f"{p95:.4f}", share)
            for name, count, total, _, p95, _, share in phase_breakdown(
                tracer.roots
            )
        ]
        print_table(
            ["span", "count", "total s", "p95 s", "share"],
            rows,
            title="\nPhase breakdown:",
        )
    elif profile:
        count = write_spans_jsonl(tracer.roots, profile)
        print(f"wrote {count} spans to {profile}", file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        with open(metrics_out, "w") as handle:
            handle.write(
                render_prometheus(
                    tracer.registry, counters=tracer.counter_totals()
                )
            )
        print(f"wrote metrics to {metrics_out}", file=sys.stderr)


def _run_handler(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand, traced when observability flags ask."""
    wants_tracing = (
        getattr(args, "profile", None) is not None
        or getattr(args, "metrics_out", None) is not None
    )
    if not wants_tracing:
        return args.handler(args)
    tracer = Tracer()
    try:
        with tracing(tracer), obs_span(args.command) as root:
            status = args.handler(args)
            root.set("exit_status", status)
        return status
    finally:
        _export_observability(args, tracer)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except ReasonerLimitExceeded as error:
        print(f"unknown: {error}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
