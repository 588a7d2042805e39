"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload university|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing of the benchmark's wrapped around the program;
``--trace 1`` repeats the workload with the per-layer wrappers
(:mod:`layers`) or, for ``serve``, with the server's trace plane read
back per request, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import itertools
import json
import os
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("university", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metrics_record(values):
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }


def note_traced(workload, values):
    """The traced pass's own end-to-end figures, for the tracing overhead."""
    figures = ", ".join(f"{k}={value:.4g}" for k, (value, _) in values.items())
    print(f"perfbench: {workload} traced pass: {figures}", file=sys.stderr)


def spread_over_cpus(period=0.05):
    """Move the calling thread round the allowed CPUs every ``period`` s.

    On a small shared VM the vCPUs run at different speeds for minutes
    at a time, and a single-threaded process stays on whichever one the
    scheduler picked, so runs split into a fast and a slow group.
    Rotating makes every run time the same mix of all of them: on a
    2-core shared VM it cut the spread of the university taxonomy over
    eight processes from 0.37 to 0.17 of the median.  Only this
    process's own affinity is changed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    thread_id = threading.get_native_id()

    def rotate():
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(thread_id, {cpu})
            time.sleep(period)

    threading.Thread(target=rotate, name="cpu-rotation", daemon=True).start()


def run_inproc(args):
    import inproc
    import selftest

    spread_over_cpus()
    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers()
        layers.install()
    run = inproc.Run(args.seed, args.seconds)
    run.execute()
    problems = []
    if layers is not None:
        layers.uninstall()
        # Before the checks, whose extra probes the wrappers do not see.
        problems += layers.cross_check()
    problems += run.check() + selftest.reference_checks()
    values = inproc.end_to_end(
        run.setup_samples, run.taxonomy_seconds, run.latencies,
        run.stream_seconds, run.rss_mb,
    )
    if layers is not None:
        problems += selftest.layer_delay()
        note_traced(args.workload, values)
        measured = run.finished - run.began - run.cold_seconds
        print(
            f"perfbench: {args.workload} traced, layers cover "
            f"{layers.total_seconds() / measured:.1%} of the"
            " wall time from the run's own load to the end of the measured"
            " phase",
            file=sys.stderr,
        )
        from serve_load import SERVE_METRICS

        values = layers.metrics()
        for name, unit in SERVE_METRICS:
            values[name] = (0, unit)
    return problems, run.attempted, run.failed, values


def run_serve(args):
    import selftest
    import serve_load

    result = serve_load.run(args.seed, args.seconds, traced=bool(args.trace))
    problems = result.problems + selftest.reference_checks()
    if args.trace:
        from layers import INPROC_METRICS

        note_traced(args.workload, result.end_to_end)
        covered = sum(
            result.layers[name]
            for name in ("http.s", "admission.s", "queue.s", "worker.s")
        )
        print(
            f"perfbench: serve traced, layers cover "
            f"{covered / result.traced_rtt:.1%} of the summed round trips",
            file=sys.stderr,
        )
        values = dict(result.layer_metrics)
        for name, unit in INPROC_METRICS:
            values[name] = (0, unit)
    else:
        values = result.end_to_end
    return problems, result.attempted, result.failed, values


def stop_on_sigterm(signum, _frame):
    """Turn SIGTERM into an exit that runs every ``finally``, so a
    terminated run still stops the server and set-up processes it
    started."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    if args.workload == "serve":
        problems, attempted, failed, values = run_serve(args)
    else:
        problems, attempted, failed, values = run_inproc(args)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... {len(problems) - 20} more", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics_record(values),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
