"""The benchmark's own knowledge-base generators and probe spaces.

The generated ontologies are written here, not taken from
``repro.workloads``, so that a change to the program's corpus code
cannot change what the benchmark measures.  Both generators emit the
line syntax of ``ontologies/*.kb4`` and are pure functions of their
arguments: the same arguments give byte-identical text.

* :func:`exception_chain` is the penguin shape of the paper, repeated:
  block ``b`` is ``B_b < A_b``, ``A_b |-> D_b``, ``B_b < not D_b``,
  ``x_b : B_b`` and ``y_b : A_b``.  It uses no randomness.  No workload
  runs it (see ``README.md``); the reference self-test uses a small one,
  and the faults the README records on it are reproduced from it.
* :func:`abox_corpus` is an ABox-heavy corpus: one tenth atomic-left
  inclusions of the three strengths, two percent direct
  ``{a : C, a : not C}`` clash pairs, the rest plain concept and role
  assertions.

Every inclusion either generator emits has an atomic left side and an
atomic, negated-atomic or existential right side, and no axiom can make
a concept empty; :mod:`reference` depends on both properties.

Remake the inputs with::

    python3 perfbench/gen.py exception_chain > exception_chain.kb4
    python3 perfbench/gen.py corpus > corpus.kb4
"""

import math
import random
import sys

#: Axioms in the ``exception_chain`` KB (200 blocks of five).
EXCEPTION_CHAIN_AXIOMS = 1000
#: Axioms in the ``serve`` corpus, and the seed its text is drawn from.
#: The corpus is the same in every run; ``--seed`` drives the probes.
CORPUS_AXIOMS = 10_000
CORPUS_SEED = 0


def exception_chain(n_axioms=EXCEPTION_CHAIN_AXIOMS):
    """The exception-chain KB text: ``n_axioms // 5`` penguin blocks."""
    blocks = n_axioms // 5
    lines = []
    for b in range(blocks):
        lines += [f"B{b} < A{b}", f"A{b} |-> D{b}", f"B{b} < not D{b}"]
    for b in range(blocks):
        lines += [f"x{b} : B{b}", f"y{b} : A{b}"]
    return "\n".join(lines) + "\n"


def abox_corpus(n_axioms=CORPUS_AXIOMS, seed=CORPUS_SEED):
    """The ABox-heavy corpus text of exactly ``n_axioms`` axioms."""
    rng = random.Random(f"perfbench-corpus:{n_axioms}:{seed}")
    n_concepts = max(8, math.isqrt(n_axioms))
    n_roles = max(3, math.isqrt(n_axioms) // 4)
    n_individuals = max(8, n_axioms // 4)

    def concept():
        return f"C{rng.randrange(n_concepts)}"

    def role():
        return f"r{rng.randrange(n_roles)}"

    def individual():
        return f"i{rng.randrange(n_individuals)}"

    lines = []
    tbox = n_axioms // 10
    for _ in range(tbox):
        sub = concept()
        sup = f"{role()} some {concept()}" if rng.random() < 0.15 else concept()
        symbol = rng.choices(("|->", "<", "->"), weights=(0.2, 0.6, 0.2))[0]
        lines.append(f"{sub} {symbol} {sup}")
    pairs = round(n_axioms * 0.02) // 2
    for _ in range(pairs):
        name, atom = individual(), concept()
        lines += [f"{name} : {atom}", f"{name} : not {atom}"]
    while len(lines) < n_axioms:
        if rng.random() < 0.4:
            lines.append(f"{role()}({individual()}, {individual()})")
        else:
            lines.append(f"{individual()} : {concept()}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    kind = sys.argv[1] if len(sys.argv) > 1 else ""
    if kind == "exception_chain":
        sys.stdout.write(exception_chain())
    elif kind == "corpus":
        sys.stdout.write(abox_corpus())
    else:
        sys.exit("usage: gen.py exception_chain|corpus")
