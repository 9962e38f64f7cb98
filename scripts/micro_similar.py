#!/usr/bin/env python3
"""Per-call timing of ``are_similar``, per ring, on three kinds of pairs.

For each ring it builds a fixed set of sequence pairs (length ``--n``) and
times every ``are_similar`` call on its own with ``time.perf_counter_ns``:

* ``similar``: s and a random conjugate g s g^-1 (the witness is found);
* ``screened``: two random sequences (a trace or determinant differs);
* ``same-tr-det``: the conjugate with one term conjugated again by another
  random g', so every term keeps its trace and determinant but the pair is
  (almost always) not similar.

It prints the median and the interquartile range in microseconds per call,
with the number of calls timed.  Seeds are fixed; inputs come from the
test generators in ``tests/genseq.py``; standard library only.  Run it
against a source tree with ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/micro_similar.py [--pairs 100] [--repeat 5]
"""

import argparse
import os
import random
import statistics
import sys
import time

from matseq import GF, MatSeq, Q, QSqrt, QT, Z, are_similar, conjugate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from genseq import rand_group_element, rand_seq  # noqa: E402

RINGS = (("Z", Z), ("Q", Q), ("GF(2)", GF(2)), ("GF(3)", GF(3)), ("GF(5)", GF(5)),
         ("GF(7)", GF(7)), ("Q(sqrt2)", QSqrt(2)), ("Q(sqrt-3)", QSqrt(-3)), ("Q[t]", QT))


def pairs(rng, ring, kind, count, n):
    out = []
    for _ in range(count):
        s = rand_seq(rng, ring, n)
        if kind == "screened":
            out.append((s, rand_seq(rng, ring, n)))
            continue
        t = conjugate(rand_group_element(rng, ring), s)
        if kind == "same-tr-det":
            terms = list(t.terms)
            k = rng.randrange(n)
            terms[k] = conjugate(rand_group_element(rng, ring), MatSeq([terms[k]])).terms[0]
            t = MatSeq(terms)
        out.append((s, t))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=100, help="pairs per ring and kind")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per pair")
    ap.add_argument("--n", type=int, default=5, help="sequence length")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(f"{'ring':<10} {'kind':<12} {'calls':>6} {'similar':>8} {'median_us':>10} {'iqr_us':>8}")
    for name, ring in RINGS:
        for kind in ("similar", "screened", "same-tr-det"):
            rng = random.Random(f"{args.seed}/{name}/{kind}")
            batch = pairs(rng, ring, kind, args.pairs, args.n)
            found = sum(are_similar(s, t) is not None for s, t in batch)
            samples = []
            for _ in range(args.repeat):
                for s, t in batch:
                    t0 = time.perf_counter_ns()
                    are_similar(s, t)
                    samples.append((time.perf_counter_ns() - t0) / 1000)
            q1, med, q3 = statistics.quantiles(samples, n=4)
            print(f"{name:<10} {kind:<12} {len(samples):>6} {found:>8} {med:>10.1f} {q3 - q1:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
