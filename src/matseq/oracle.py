"""Brute-force ground truth over small prime fields.

The oracle decides triangularizability and simultaneous similarity
directly from the definitions, independently of the criteria modules: each
scan returns the first conjugator of GL2(GF(p)) in row-major order of the
entries (a, b, c, d), and every g it returns passes the full definitional
test.  The scans visit only candidates the definitions leave possible: the
triangularization test reads only row 2 of g, so it runs over p + 1 rows,
and the equations of g A = B g reject a first row or pin the second to a
point or a line (every row only when both sequences are the same scalars),
so the similarity test runs over pinned candidates.
``enumerate_gl2`` still lists the whole group, which has (p^2 - 1)(p^2 - p)
elements.  Everything is guarded to p <= 13, and the ``MATSEQ_MAX_P``
environment variable can lower (never raise) that bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product

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
        return tuple(_element(ring, g) for g in self.raw)


_TABLE_CACHE: dict[int, GroupTable] = {}


def _check_p(p: int) -> None:
    """Raise ``TooLarge`` when GF(p) is beyond the oracle size guard."""
    guard = max_oracle_p()
    if p > guard:
        raise TooLarge(f"p = {p} exceeds the oracle size guard {guard}")


def enumerate_gl2(p: int) -> GroupTable:
    """GL2(GF(p)) in row-major order of the entries (a, b, c, d)."""
    _check_p(p)
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


def _element(ring, g: tuple[int, int, int, int]) -> GroupElement:
    return GroupElement(Mat2(*(Scalar(ring, x) for x in g)))


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
    """First g in enumeration order with conjugate(g, s) upper triangular.

    The test reads only row 2 of g and is homogeneous of degree 2 in it, so
    it holds on whole projective lines.  The first g of a passing row (z, w)
    is (0, 1, z, w) when z != 0 and (1, 0, 0, w) otherwise, and the first
    passing row with z != 0 is (1, w) for the least passing w; hence only
    the p + 1 rows (1, 0), ..., (1, p - 1), (0, 1) are tested.
    """
    terms = _raw_terms(s)
    p = s.ring.p
    _check_p(p)
    for g in [(0, 1, 1, w) for w in range(p)] + [(1, 0, 0, 1)]:
        if _conj_lower_left_zero(g, terms, p):
            return _element(s.ring, g)
    return None


def _conjugates(g, t1, t2, p) -> bool:
    """det(g) != 0 and g A adj(g) = det(g) B for every pair of terms."""
    x, y, z, w = g
    det = (x * w - y * z) % p
    if not det:
        return False
    for (a, b, c, d), (a2, b2, c2, d2) in zip(t1, t2):
        # g A adj(g) == det(g) B  avoids modular inversion
        ra, rb = x * a + y * c, x * b + y * d
        rc, rd = z * a + w * c, z * b + w * d
        if ((ra * w - rb * z) % p != det * a2 % p
                or (rb * x - ra * y) % p != det * b2 % p
                or (rc * w - rd * z) % p != det * c2 % p
                or (rd * x - rc * y) % p != det * d2 % p):
            return False
    return True


def _second_rows(x: int, y: int, t1, t2, p):
    """The rows (z, w) that row 1 (x, y) leaves possible, in order.

    Row 1 of g A = B g reads (x, y) A - b11 (x, y) = b12 (z, w): a term with
    b12 = 0 must make the left side vanish, and one with b12 != 0 fixes
    (z, w).  With no fixing term, row 2, (z, w) (A - b22 I) = b21 (x, y),
    gives two linear equations in (z, w) per term, and only the rows that
    satisfy them all remain.
    """
    pinned = None
    for (a, b, c, d), (b11, b12, _, _) in zip(t1, t2):
        u = ((x * a + y * c - b11 * x) % p, (x * b + y * d - b11 * y) % p)
        if b12 == 0:
            if u != (0, 0):
                return ()
            continue
        inv = pow(b12, -1, p)
        r2 = (u[0] * inv % p, u[1] * inv % p)
        if pinned is None:
            pinned = r2
        elif r2 != pinned:
            return ()
    if pinned is not None:
        return (pinned,)
    eqs = []
    for (a, b, c, d), (_, _, b21, b22) in zip(t1, t2):
        eqs.append(((a - b22) % p, c, b21 * x % p))
        eqs.append((b, (d - b22) % p, b21 * y % p))
    return ((z, w) for z, w in product(range(p), repeat=2)
            if all((al * z + be * w - ga) % p == 0 for al, be, ga in eqs))


def brute_similar(s1: MatSeq, s2: MatSeq) -> GroupElement | None:
    """First g in enumeration order with conjugate(g, s1) = s2.

    First rows of g are visited in order, except the zero row, which no
    invertible g has.  The equations of g A = B g reject a first row or
    confine the second to the solutions of linear equations, so only those
    candidates get the full test.
    """
    if s1.ring != s2.ring or s1.n != s2.n:
        return None
    t1, t2 = _raw_terms(s1), _raw_terms(s2)
    p = s1.ring.p
    _check_p(p)
    for x in range(p):
        for y in range(p):
            if not (x or y):
                continue
            for z, w in _second_rows(x, y, t1, t2, p):
                if _conjugates((x, y, z, w), t1, t2, p):
                    return _element(s1.ring, (x, y, z, w))
    return None
