#!/usr/bin/env python3
"""Per-operation timing of the ring layer: add, mul, inv and Mat2 operations.

For each ring it draws a fixed batch of operands from a seeded generator and
times ``--samples`` passes over the batch with ``time.perf_counter_ns``.  One
pass gives one sample: the mean time of one operation in that pass, so the
timer's own cost is spread over ``--batch`` calls.  It prints the median and
the interquartile range of the samples in nanoseconds per operation.

* ``add``, ``mul`` and ``inv`` are the descriptor's raw operations
  (``ring.mul(a, b)`` on raw values, no :class:`Scalar` boxing).  ``inv`` is
  timed on units: over Z only 1 and -1 have inverses, over Q[t] only the
  nonzero constants.
* ``mat2_mul`` is the library product ``m1 * m2`` of two :class:`Mat2`
  matrices of boxed scalars, ``mat2_det`` is ``m.det()``.
* ``conjugate`` is ``conjugate(g, s)`` for one :class:`GroupElement` g,
  [[1, x], [0, 1]] [[1, 0], [y, 1]] diag(u, 1) with u a unit, and a
  one-term sequence s.  The inverse of g is computed in the first pass and
  cached by g, so the samples time the two products per term.

Rings: Z, Q, GF(5), Q(sqrt 2), Q(sqrt -3) and Q[t] with operands of degree 2.
Seeds are fixed; standard library only.  Run it against a source tree with
``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/micro_ring.py [--batch 200] [--samples 30]
"""

import argparse
import random
import statistics
import time
from fractions import Fraction

from matseq import GF, GroupElement, Mat2, MatSeq, Q, QSqrt, QT, Scalar, Z, conjugate

RINGS = (("Z", Z), ("Q", Q), ("GF(5)", GF(5)), ("Q(sqrt2)", QSqrt(2)),
         ("Q(sqrt-3)", QSqrt(-3)), ("Q[t]", QT))


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def element(rng, ring, unit=False):
    """A nonzero raw value of ring; a unit when unit is set."""
    while True:
        if ring is Z:
            a = rng.choice((1, -1)) if unit else rng.randint(-99, 99)
        elif ring is QT:
            # degree 2, or a nonzero constant for a unit
            a = ring.coerce([rational(rng) for _ in range(1 if unit else 3)])
            if len(a) != (1 if unit else 3):
                continue
        elif ring.kind == "GF":
            a = rng.randrange(ring.p)
        elif ring.kind == "Qsqrt":
            a = (rational(rng), rational(rng))
        else:
            a = rational(rng)
        if not ring.is_zero(a):
            return a


def matrix(rng, ring):
    return Mat2(*(Scalar(ring, element(rng, ring)) for _ in range(4)))


def group_element(rng, ring):
    one, zero = ring.one(), ring.zero()
    x, y = (Scalar(ring, element(rng, ring)) for _ in range(2))
    u = Scalar(ring, element(rng, ring, unit=True))
    return GroupElement(Mat2(one, x, zero, one) * Mat2(one, zero, y, one)
                        * Mat2(u, zero, zero, one))


def per_op_ns(call, batch, samples):
    """Median and IQR over samples of the mean ns per call of one pass."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        for args in batch:
            call(*args)
        out.append((time.perf_counter_ns() - t0) / len(batch))
    q1, med, q3 = statistics.quantiles(out, n=4)
    return med, q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", type=int, default=200, help="operations per pass")
    ap.add_argument("--samples", type=int, default=30, help="timed passes per operation")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(f"{'ring':<10} {'op':<9} {'median_ns':>10} {'iqr_ns':>8}")
    for name, ring in RINGS:
        rng = random.Random(f"{args.seed}/{name}")
        pairs = [(element(rng, ring), element(rng, ring)) for _ in range(args.batch)]
        units = [(element(rng, ring, unit=True),) for _ in range(args.batch)]
        mats = [(matrix(rng, ring), matrix(rng, ring)) for _ in range(args.batch)]
        conj = [(group_element(rng, ring), MatSeq([matrix(rng, ring)]))
                for _ in range(args.batch)]
        for op, call, batch in (("add", ring.add, pairs), ("mul", ring.mul, pairs),
                                ("inv", ring.inv, units), ("mat2_mul", Mat2.__mul__, mats),
                                ("mat2_det", Mat2.det, [m[:1] for m in mats]),
                                ("conjugate", conjugate, conj)):
            med, iqr = per_op_ns(call, batch, args.samples)
            print(f"{name:<10} {op:<9} {med:>10.0f} {iqr:>8.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
