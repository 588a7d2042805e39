"""One cold set-up, timed from the start of its own process.

    python3 perfbench/coldstart.py ONTOLOGY.kb4

Imports the program, reads the ontology text, parses it, builds a
``Reasoner4`` and runs the first consistency check, which builds the
saturation closure; then prints the seconds from the first line of this
file to a reasoner ready to answer.  Nothing of the benchmark is
imported first, so the window holds what a user of the program pays,
imports included.  The in-process workload runs this several times per
run, each in a fresh process, and reports the mean as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def load(text):
    """Parse, build and consistency-check a reasoner (the set-up unit).

    The program is imported here, so that a cold process pays its
    imports inside the timed window.
    """
    from repro.dl import parser
    from repro.four_dl.reasoner4 import Reasoner4

    reasoner = Reasoner4(parser.parse_kb4(text))
    if not reasoner.is_satisfiable():
        raise RuntimeError("KB4 is not four-valued satisfiable")
    return reasoner


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    with open(sys.argv[1]) as handle:
        load(handle.read())
    print(time.perf_counter() - STARTED)
