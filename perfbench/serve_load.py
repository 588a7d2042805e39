"""The ``serve`` workload: ``repro serve`` as its own process, driven closed-loop.

The server runs at its default settings (two workers, queue 16, tracing
and journal on) with ``--port 0``.  It serves ``university``, the
generated ABox-heavy ``corpus``, and ``TAXONOMY_COPIES`` more names for
the university file, one per taxonomy sweep, so that every sweep starts
on a freshly loaded reasoner.

1. **Set-up** (timed): from spawning the server until every served KB
   has answered its first ``satisfiable`` probe in its worker.  The
   server of the measured phase is one of ``SERVER_SETUPS`` cold
   set-ups; the others start and stop a fresh server after the
   measured phase.
2. **Measured phase**: one sweep per copy, each followed by a stream
   slice, as in the in-process workload.  A sweep asks every ordered
   pair of the 13 university atoms for internal subsumption, one
   request at a time, because the wire has no classify kind.  A stream
   slice is one closed-loop client on the benchmark's main thread,
   running whole rounds of a seeded stream of corpus probes: each
   request waits for its answer before the next is sent, so one request
   is in flight and the server's threads and workers never compete with
   a second client for the cores.  The stream draws only the kinds
   saturation decides on the corpus (satisfiable, instance, internal
   subsumption), and only over the corpus: cold university probes would
   make the latency depend on how far the run got through warming the
   worker's cache.
3. **Shutdown** by SIGTERM, waiting for the server and its workers.
4. **Checks**: corpus answers against :class:`reference.AtomicKB4`; each
   sweep against the hand-derived university taxonomy, and its answers
   against a cold in-process ``Reasoner4(use_cache=False)``.

With ``traced`` every request's span forest is fetched back from
``GET /trace/<id>`` right after its answer and split into layers.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

from repro.four_dl.reasoner4 import Reasoner4
from repro.serve.client import ReproClient, ServiceUnavailable

import gen
import reference
from coldstart import load
from inproc import UNIVERSITY_ATOMS, UNIVERSITY_PATH, end_to_end
from probes import (
    ProbeSpace,
    Stream,
    Unknown,
    run_probe,
    wire_answer,
    wire_request,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TAXONOMY_COPIES = 3
#: Cold set-ups of the whole server per run; ``setup_s`` is their mean.
SERVER_SETUPS = 3
#: Requests of each kind per stream round (see :class:`probes.Stream`).
PER_KIND = 3
#: The wire's kinds that saturation decides on the corpus (see the
#: module doc).  ``satisfiable`` is one probe, so it recurs and hits the
#: worker's cache; the other two rarely recur.
CORPUS_KINDS = ("satisfiable", "instance", "internal")

SERVE_METRICS = (
    ("http.s", "s"), ("admission.s", "s"), ("admission.rejections", "count"),
    ("queue.s", "s"), ("worker.s", "s"), ("worker.cache_hit_ratio", "ratio"),
    ("worker.saturation_s", "s"), ("worker.tableau_s", "s"),
    ("worker.load_s", "s"), ("client.retries", "count"),
    ("worker.restarts", "count"),
)

_LISTENING = re.compile(r"listening on (http://[^ ]+)")


def corpus_space():
    n_concepts = int(gen.CORPUS_AXIOMS ** 0.5)
    return ProbeSpace(
        [f"C{i}" for i in range(n_concepts)],
        [f"i{i}" for i in range(gen.CORPUS_AXIOMS // 4)],
        kinds=CORPUS_KINDS,
    )


class Result:
    def __init__(self):
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.attempts = 0
        self.latencies = []
        self.stream_seconds = 0.0
        self.sweep_seconds = []
        self.setup_samples = []
        self.sweeps = []
        self.answers = {}
        self.layers = {name: 0.0 for name, _ in SERVE_METRICS}
        self.cache_lookups = 0
        self.cache_hits = 0
        self.traced_rtt = 0.0


class Server:
    """A ``repro serve`` child process, stopped and reaped by ``close``."""

    def __init__(self, kbs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        command = [sys.executable, "-m", "repro", "serve"]
        command += [f"{name}={path}" for name, path in kbs.items()]
        command += ["--port", "0"]
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = None
        self._drain = None
        for line in self.proc.stderr:
            match = _LISTENING.search(line)
            if match:
                self.url = match.group(1)
                break
        if self.url is None:
            self.close()
            raise RuntimeError("repro serve exited before listening")
        self._drain = threading.Thread(
            target=self.proc.stderr.read, daemon=True
        )
        self._drain.start()

    def family(self):
        """The server and its worker processes (pids)."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self):
        """The largest peak resident set among server and workers."""
        peak = 0
        for pid in self.family():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def close(self):
        """SIGTERM, wait for the drain, and make sure nothing is left."""
        workers = [pid for pid in self.family() if pid != self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for pid in workers:
            deadline = time.monotonic() + 10
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.05)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stderr.close()


def span_layers(roots, rtt, result):
    """Split one request's span forest into the serve layers."""
    spans = {}
    saturation = tableau = 0.0
    hit = None
    for root in roots:
        for span in root.walk():
            spans.setdefault(span.name, span)
            if span.name == "saturation_run":
                saturation += span.duration
            elif span.name == "tableau_run":
                tableau += span.duration
            elif span.name == "cache_probe" and hit is None:
                hit = span.attributes.get("hit")

    def duration(name):
        span = spans.get(name)
        return 0.0 if span is None else span.duration

    total = duration("serve_request")
    dispatch = duration("dispatch")
    execute = duration("probe_execute")
    result.traced_rtt += rtt
    layers = result.layers
    layers["http.s"] += rtt - total
    layers["admission.s"] += duration("admission")
    layers["queue.s"] += dispatch - execute
    layers["worker.s"] += execute
    layers["worker.saturation_s"] += saturation
    layers["worker.tableau_s"] += tableau
    if isinstance(hit, bool):
        result.cache_lookups += 1
        result.cache_hits += int(hit)


class Driver:
    """The load generator: one client, counting its wire attempts."""

    def __init__(self, url, result, traced):
        self.result = result
        self.traced = traced
        self.client = ReproClient(url, retries=3, backoff=0.05)
        attempt = self.client._attempt

        def counted(*args, **kwargs):
            result.attempts += 1
            return attempt(*args, **kwargs)

        self.client._attempt = counted

    def ask(self, kb, probe, record=True):
        """One request: ``(answer, round trip, response)``; a failed
        request answers :class:`probes.Unknown`."""
        result = self.result
        client = self.client
        start = time.perf_counter()
        try:
            response = client.probe(wire_request(probe, kb))
        except ServiceUnavailable:
            response = None
        rtt = time.perf_counter() - start
        if response is None:
            answer = Unknown("unavailable")
        else:
            answer = wire_answer(response)
        if self.traced and response is not None:
            span_layers(client.trace(response.trace_id), rtt, result)
        if record:
            result.attempted += 1
            if isinstance(answer, Unknown):
                result.failed += 1
            else:
                result.latencies.append(rtt)
                seen = result.answers.setdefault(probe, answer)
                if seen != answer:
                    result.problems.append(
                        f"{probe} answered {seen} then {answer}"
                    )
        return answer, rtt, response

    def setup(self, kbs):
        """First probe of every KB, one after another."""
        for kb in kbs:
            answer, _rtt, response = self.ask(kb, ("satisfiable",), False)
            if answer is not True:
                self.result.problems.append(f"{kb} did not load: {response}")

    def sweep(self, kb):
        """The atom x atom internal-subsumption sweep; returns seconds."""
        rows = {atom: {atom} for atom in UNIVERSITY_ATOMS}
        start = time.perf_counter()
        for sub in UNIVERSITY_ATOMS:
            for sup in UNIVERSITY_ATOMS:
                if sub == sup:
                    continue
                probe = ("subsumption", sub, sup, "internal")
                answer, _rtt, _response = self.ask(kb, probe, False)
                if isinstance(answer, Unknown):
                    self.result.problems.append(f"sweep {probe}: {answer}")
                elif answer:
                    rows[sub].add(sup)
        elapsed = time.perf_counter() - start
        self.result.sweeps.append({a: frozenset(s) for a, s in rows.items()})
        return elapsed

    def stream_slice(self, stream, stop):
        """Whole rounds of the stream until ``stop`` (at least one)."""
        start = time.perf_counter()
        while True:
            for probe in stream.round():
                self.ask("corpus", probe)
            if time.perf_counter() >= stop:
                return time.perf_counter() - start


def scrape(text, series):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(series) and not line.startswith("#"):
            total += float(line.split()[-1])
    return total


def run(seed, seconds, traced):
    result = Result()
    workdir = os.path.join(HERE, "out", f"serve-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        corpus_path = os.path.join(workdir, "corpus.kb4")
        with open(corpus_path, "w") as handle:
            handle.write(gen.abox_corpus())
        copies = [f"university_{index}" for index in range(TAXONOMY_COPIES)]
        kbs = {"university": UNIVERSITY_PATH, "corpus": corpus_path}
        kbs.update({name: UNIVERSITY_PATH for name in copies})
        _measure(result, kbs, copies, seed, seconds, traced)
        result.problems += check(result, corpus_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def start_server(kbs, result, traced=False):
    """Spawn ``repro serve`` and wait until every KB has answered its
    first probe: one cold set-up.  Returns the server, its driver and
    the seconds it took."""
    started = time.perf_counter()
    server = Server(kbs)
    try:
        driver = Driver(server.url, result, traced)
        driver.setup(list(kbs))
    except BaseException:
        server.close()
        raise
    return server, driver, time.perf_counter() - started


def _measure(result, kbs, copies, seed, seconds, traced):
    before = dict(result.layers)
    server, driver, setup_s = start_server(kbs, result, traced)
    result.setup_samples.append(setup_s)
    try:
        load_s = result.layers["worker.s"] - before["worker.s"]
        stream = Stream(corpus_space(), seed, "serve-corpus", PER_KIND)
        begin = time.perf_counter()
        for index, copy in enumerate(copies, start=1):
            result.sweep_seconds.append(driver.sweep(copy))
            stop = begin + seconds * index / len(copies)
            result.stream_seconds += driver.stream_slice(stream, stop)
        result.peak_rss_mb = server.peak_rss_mb()
        text = driver.client.metrics()
        journal = scrape(text, "repro_serve_journal_lines_total")
        if journal != result.attempts:
            result.problems.append(
                f"journal has {journal:.0f} lines for {result.attempts} "
                "requests sent"
            )
        result.layers["admission.rejections"] = int(
            scrape(text, "repro_serve_admission_rejections_total")
        )
        result.layers["worker.restarts"] = int(
            scrape(text, "repro_serve_worker_restarts_total")
        )
        result.layers["worker.load_s"] = load_s
    finally:
        server.close()
    # The other cold set-ups, each on a fresh server tree, after the
    # measured phase so that they do not share the CPUs with it.
    for _ in range(SERVER_SETUPS - 1):
        spare = Result()
        server, _driver, setup_s = start_server(kbs, spare)
        server.close()
        result.setup_samples.append(setup_s)
        result.problems += spare.problems
    requests = result.attempted + len(result.sweeps) * (
        len(UNIVERSITY_ATOMS) * (len(UNIVERSITY_ATOMS) - 1)
    ) + len(kbs)
    result.layers["client.retries"] = result.attempts - requests
    result.layers["worker.cache_hit_ratio"] = (
        result.cache_hits / result.cache_lookups if result.cache_lookups else 0
    )
    result.end_to_end = end_to_end(
        result.setup_samples, result.sweep_seconds, result.latencies,
        result.stream_seconds, result.peak_rss_mb,
    )
    result.layer_metrics = {
        name: (result.layers[name], unit) for name, unit in SERVE_METRICS
    }


def check(result, corpus_path):
    """Every distinct answer against its reference."""
    with open(corpus_path) as handle:
        corpus = reference.AtomicKB4(handle.read())
    problems = reference.check_answers(corpus, result.answers)
    for rows in result.sweeps:
        problems += reference.check_university_taxonomy(rows)
    with open(UNIVERSITY_PATH) as handle:
        cold = Reasoner4(load(handle.read()).kb4, use_cache=False)
    pairs = [
        (sub, sup) for sub in UNIVERSITY_ATOMS for sup in UNIVERSITY_ATOMS
        if sub != sup
    ]
    expected = {
        pair: run_probe(cold, ("subsumption",) + pair + ("internal",))
        for pair in pairs
    }
    for rows in result.sweeps:
        swept = {(sub, sup): sup in rows[sub] for sub, sup in pairs}
        problems += reference.compare_answers(swept, expected)
    return problems
