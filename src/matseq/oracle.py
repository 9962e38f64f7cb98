"""Brute-force ground truth over small prime fields.

The oracle enumerates all of GL2(GF(p)) in a fixed row-major order and
decides triangularizability and simultaneous similarity directly from the
definitions, independently of the criteria modules.  The group has
(p^2 - 1)(p^2 - p) elements; enumeration is guarded to p <= 13, and the
``MATSEQ_MAX_P`` environment variable can lower (never raise) that bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import TooLarge, UnsupportedRing
from .matcore import GroupElement, Mat2, MatSeq
from .rings import Scalar

_HARD_CAP = 13


def max_oracle_p() -> int:
    """The current size guard for oracle enumeration."""
    raw = os.environ.get("MATSEQ_MAX_P")
    if raw is None:
        return _HARD_CAP
    try:
        return min(int(raw), _HARD_CAP)
    except ValueError:
        return _HARD_CAP


@dataclass(frozen=True)
class GroupTable:
    """All invertible 2x2 matrices over GF(p), in enumeration order."""

    p: int
    raw: tuple[tuple[int, int, int, int], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.raw)

    def group_elements(self) -> tuple[GroupElement, ...]:
        from .rings import GF
        ring = GF(self.p)
        return tuple(
            GroupElement(Mat2(Scalar(ring, a), Scalar(ring, b),
                              Scalar(ring, c), Scalar(ring, d)))
            for a, b, c, d in self.raw)


_TABLE_CACHE: dict[int, GroupTable] = {}


def enumerate_gl2(p: int) -> GroupTable:
    """GL2(GF(p)) in row-major order of the entries (a, b, c, d)."""
    guard = max_oracle_p()
    if p > guard:
        raise TooLarge(f"p = {p} exceeds the oracle size guard {guard}")
    table = _TABLE_CACHE.get(p)
    if table is not None:
        return table
    elems = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p:
                        elems.append((a, b, c, d))
    table = GroupTable(p, tuple(elems))
    _TABLE_CACHE[p] = table
    return table


def _raw_terms(s: MatSeq) -> list[tuple[int, int, int, int]]:
    ring = s.ring
    if not ring.is_finite:
        raise UnsupportedRing(f"the oracle works over GF(p), got {ring!r}")
    return [(t.a.value, t.b.value, t.c.value, t.d.value) for t in s.terms]


def _conj_lower_left_zero(g, terms, p) -> bool:
    """Whether g A g^-1 is upper triangular for every term A."""
    x, y, z, w = g
    # row-2 of g is (z, w); adj(g) column 1 is (w, -z); the det factor is a
    # unit, so the lower-left entry of the conjugate vanishes iff this does
    for a, b, c, d in terms:
        if ((z * a + w * c) * w - (z * b + w * d) * z) % p:
            return False
    return True


def brute_triangularizable(s: MatSeq) -> GroupElement | None:
    """First g in enumeration order with conjugate(g, s) upper triangular."""
    terms = _raw_terms(s)
    table = enumerate_gl2(s.ring.p)
    p = table.p
    from .rings import GF
    ring = GF(p)
    for g in table.raw:
        if _conj_lower_left_zero(g, terms, p):
            return GroupElement(Mat2(Scalar(ring, g[0]), Scalar(ring, g[1]),
                                     Scalar(ring, g[2]), Scalar(ring, g[3])))
    return None


def brute_similar(s1: MatSeq, s2: MatSeq) -> GroupElement | None:
    """First g in enumeration order with conjugate(g, s1) = s2."""
    if s1.ring != s2.ring or s1.n != s2.n:
        return None
    t1, t2 = _raw_terms(s1), _raw_terms(s2)
    table = enumerate_gl2(s1.ring.p)
    p = table.p
    from .rings import GF
    ring = GF(p)
    for g in table.raw:
        x, y, z, w = g
        det = (x * w - y * z) % p
        ok = True
        for (a, b, c, d), (a2, b2, c2, d2) in zip(t1, t2):
            # g A adj(g) == det(g) B  avoids modular inversion
            ra, rb = x * a + y * c, x * b + y * d
            rc, rd = z * a + w * c, z * b + w * d
            if ((ra * w - rb * z) % p != det * a2 % p
                    or (rb * x - ra * y) % p != det * b2 % p
                    or (rc * w - rd * z) % p != det * c2 % p
                    or (rd * x - rc * y) % p != det * d2 % p):
                ok = False
                break
        if ok:
            return GroupElement(Mat2(Scalar(ring, x), Scalar(ring, y),
                                     Scalar(ring, z), Scalar(ring, w)))
    return None
