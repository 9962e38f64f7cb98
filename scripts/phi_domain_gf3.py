#!/usr/bin/env python3
"""Exhaustive check that phi_prime separates on its domain over GF(3).

Sweeps all 3^12 = 531,441 triples of 2x2 matrices over GF(3), keeps those
with ``in_phi_domain`` (sigma(A1, A2) != 0), groups them by ``phi_prime``
and tests every member of each fiber against the first member of its fiber
with ``are_similar``.  It prints the number of triples in the domain, the
number of fibers, and the number of members not similar to the first of
their fiber, which is 0 when phi_prime separates.  It exits 1 otherwise.
It takes about 30 s on a 2-vCPU VM; tier-1 runs a seeded sample of the
same check (``tests/test_similarity.py``).

Usage:
    PYTHONPATH=src python3 scripts/phi_domain_gf3.py
"""

import itertools
import sys
import time

from matseq import GF, MatSeq, are_similar, in_phi_domain, mat2, phi_prime


def main() -> int:
    start = time.monotonic()
    ring = GF(3)
    mats = [mat2(ring, [[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(3), repeat=4)]
    fibers: dict[tuple, MatSeq] = {}
    in_domain = not_similar = 0
    for x, y in itertools.product(mats, repeat=2):
        if not in_phi_domain(MatSeq([x, y])):
            continue
        for z in mats:
            s = MatSeq([x, y, z])
            in_domain += 1
            key = phi_prime(s).values
            first = fibers.setdefault(key, s)
            if first is not s and are_similar(first, s) is None:
                not_similar += 1
    print(f"GF(3) triples in the phi domain: {in_domain}")
    print(f"phi fibers: {len(fibers)}")
    print(f"members not similar to the first of their fiber: {not_similar}")
    print(f"{time.monotonic() - start:.1f} s")
    return 1 if not_similar else 0


if __name__ == "__main__":
    sys.exit(main())
