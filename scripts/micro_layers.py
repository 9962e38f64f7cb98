#!/usr/bin/env python3
"""Per-call timing of the layers between the JSON input and the verdicts.

For each row it builds a fixed batch of inputs from a seeded generator and
times every call on its own with ``time.perf_counter_ns``, ``--repeat``
times over the batch.  It prints the median and the interquartile range in
microseconds per call, with the number of calls timed.

* ``matseq_from_json``: one JSON document of ``--n`` terms (the output of
  ``MatSeq.to_json``) parsed, per ring: Z, Q, GF(5), Q(sqrt 2) and Q[t].
* ``profile``: a fresh ``Profile`` of a Q sequence and both of its facts,
  the maximal reduction and the first obstruction (clearing included).
* ``conjugate``: a random invertible g applied to one sequence, per ring:
  Z, Q, GF(5), Q(sqrt 2) and Q[t].
* ``maximal_reduction``, ``first_obstruction``, ``classify``,
  ``canonicalize`` and ``phi_prime`` on Q sequences given as a ``MatSeq``,
  so each call starts from nothing.
* ``psi_prime`` on triangularizable Q sequences in its domain whose first
  term has two eigenvalues, and ``reconstruct_triangular`` on their values.
* ``reconstruct_semisimple`` on admissible Q vectors of ``--n`` terms.
* ``brute_similar`` and ``brute_triangularizable``: the GF(5) oracle on a
  sequence of three terms and a random conjugate, and on a sequence alone.

Half of each Q batch is triangularizable (a conjugate of an upper-triangular
sequence), half random, as in the benchmark's long Q workload.  Seeds are
fixed; inputs come from the test generators in ``tests/genseq.py``;
standard library only.  Run it against a source tree with ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/micro_layers.py [--docs 40] [--repeat 5] [--n 20]
"""

import argparse
import os
import random
import statistics
import sys
import time

from matseq import (GF, Profile, Q, QSqrt, QT, Z, brute_similar, brute_triangularizable,
                    canonicalize, classify, conjugate, first_obstruction, in_psi_domain,
                    matseq_from_json, maximal_reduction, phi_prime, psi_prime,
                    reconstruct_semisimple, reconstruct_triangular)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from genseq import (rand_admissible_phi, rand_group_element, rand_seq,  # noqa: E402
                    rand_triangularizable_seq)

PARSE_RINGS = (("Z", Z), ("Q", Q), ("GF(5)", GF(5)), ("Q(sqrt2)", QSqrt(2)), ("Q[t]", QT))


def sequences(rng, ring, count, n):
    """count sequences of n terms, every other one triangularizable."""
    return [rand_triangularizable_seq(rng, ring, n) if i % 2 else rand_seq(rng, ring, n)
            for i in range(count)]


def profile(s):
    p = Profile(s)
    return p.reduction, p.obstruction


def per_call_us(call, batch, repeat):
    """Median and IQR over every timed call, in microseconds."""
    samples = []
    for _ in range(repeat):
        for args in batch:
            t0 = time.perf_counter_ns()
            call(*args)
            samples.append((time.perf_counter_ns() - t0) / 1000)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return len(samples), med, q3 - q1


def rows(args):
    """(layer, ring, call, batch) for every row, inputs drawn from fixed seeds."""
    for name, ring in PARSE_RINGS:
        rng = random.Random(f"{args.seed}/parse/{name}")
        docs = [(s.to_json(),) for s in sequences(rng, ring, args.docs, args.n)]
        yield "matseq_from_json", name, matseq_from_json, docs
    for name, ring in PARSE_RINGS:
        rng = random.Random(f"{args.seed}/conjugate/{name}")
        conj = [(rand_group_element(rng, ring), s) for s in sequences(rng, ring, args.docs, args.n)]
        yield "conjugate", name, conjugate, conj
    rng = random.Random(f"{args.seed}/Q")
    qs = [(s,) for s in sequences(rng, Q, args.docs, args.n)]
    for layer, call in (("profile", profile), ("maximal_reduction", maximal_reduction),
                        ("first_obstruction", first_obstruction),
                        ("classify", classify), ("canonicalize", canonicalize),
                        ("phi_prime", phi_prime)):
        yield layer, "Q", call, qs
    rng = random.Random(f"{args.seed}/psi")
    tri = []
    while len(tri) < args.docs:
        s = rand_triangularizable_seq(rng, Q, args.n)
        if in_psi_domain(s) and not s[0].disc().is_zero():   # reconstructible
            tri.append((s,))
    yield "psi_prime", "Q", psi_prime, tri
    yield "reconstruct_triangular", "Q", reconstruct_triangular, [(psi_prime(s),) for s, in tri]
    rng = random.Random(f"{args.seed}/phi")
    phis = [(rand_admissible_phi(rng, args.n),) for _ in range(args.docs)]
    yield "reconstruct_semisimple", "Q", reconstruct_semisimple, phis
    rng = random.Random(f"{args.seed}/oracle")
    gf = GF(5)
    pairs = []
    for _ in range(args.docs):
        s = rand_seq(rng, gf, 3)
        pairs.append((s, conjugate(rand_group_element(rng, gf), s)))
    yield "brute_similar", "GF(5)", brute_similar, pairs
    yield "brute_triangularizable", "GF(5)", brute_triangularizable, [(s,) for s, _ in pairs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, default=40, help="inputs per row")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per input")
    ap.add_argument("--n", type=int, default=20, help="sequence length")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(f"{'layer':<22} {'ring':<9} {'calls':>6} {'median_us':>10} {'iqr_us':>8}")
    for layer, ring, call, batch in rows(args):
        calls, med, iqr = per_call_us(call, batch, args.repeat)
        print(f"{layer:<22} {ring:<9} {calls:>6} {med:>10.1f} {iqr:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
