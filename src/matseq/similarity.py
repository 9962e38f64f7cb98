"""Simultaneous similarity, stability, and the separating invariants.

``are_similar`` decides whether two equal-length sequences are conjugate.
The anchor terms (one non-scalar term in the commutative case, one
non-commuting pair otherwise) determine the conjugator up to the structure
of their commutant, so the procedure solves the linear intertwiner system
g A = B g for the anchors, picks an invertible solution if one exists, and
verifies the remaining terms by cross-multiplication.  Over Z and Q[t] the
decision is taken in the fraction field; the returned witness then is a
matrix with nonzero (possibly non-unit) determinant whose projective action
realizes the similarity.

``phi_prime`` and ``psi_prime`` compute the separating invariant vectors for
semisimple and triangularizable sequences respectively (characteristic
different from 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    Char2Unsupported,
    CommutativeInput,
    LengthMismatch,
    LengthTooShort,
    NotTriangularizable,
    RingMismatch,
    UnsupportedRing,
)
from .invariants import drensky_s, trace_word
from .matcore import GroupElement, Mat2, MatSeq, subsequence
from .rings import RingDescriptor, Scalar, ring_from_json, ring_to_json, scalar_from_json
from .triangular import Profile, commutes, is_commutative, maximal_reduction, triangularize


@dataclass(frozen=True)
class SimilarityWitness:
    """A matrix with nonzero determinant whose conjugation maps s1 to s2.

    Over a field the determinant is automatically a unit and
    :meth:`group_element` returns the genuine conjugator.  Over Z and Q[t]
    the witness may have a non-unit determinant; conjugation is then meant
    projectively (scalar factors act trivially), and :meth:`apply` performs
    the exact division.
    """

    m: Mat2

    def det_is_unit(self) -> bool:
        return self.m.det().is_unit()

    def group_element(self) -> GroupElement:
        return GroupElement(self.m)

    def apply(self, s: MatSeq) -> MatSeq:
        det = self.m.det()
        adj = self.m.adjugate()
        out = []
        for t in s.terms:
            u = self.m * t * adj
            out.append(Mat2(u.a / det, u.b / det, u.c / det, u.d / det))
        return MatSeq(out)


# ---------------------------------------------------------------------------
# exact linear algebra on 4-column systems over any of the five rings


def _nullspace4(rows: list[list], ring: RingDescriptor) -> list[tuple]:
    """Basis of the nullspace of a matrix with 4 columns of raw values,
    fraction-free, each row and basis vector kept primitive."""
    is_zero, mul, sub, primitive = ring.is_zero, ring.mul, ring.sub, ring.primitive
    m = [primitive(r) for r in rows if not all(map(is_zero, r))]
    pivots: list[int] = []
    r = 0
    for col in range(4):
        piv = None
        for i in range(r, len(m)):
            if not is_zero(m[i][col]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][col]):
                f1, f2 = m[r][col], m[i][col]
                m[i] = primitive([sub(mul(f1, m[i][j]), mul(f2, m[r][j])) for j in range(4)])
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    basis = []
    prod = ring.raw_one()
    for i, col in enumerate(pivots):
        prod = mul(prod, m[i][col])
    for f in range(4):
        if f in pivots:
            continue
        vec = [ring.raw_zero()] * 4
        vec[f] = prod
        for i, col in enumerate(pivots):
            vec[col] = ring.neg(mul(m[i][f], ring.div(prod, m[i][col])))
        basis.append(primitive(vec))
    return basis


def _intertwiner_nullspace(pairs: list[tuple[Mat2, Mat2]], ring: RingDescriptor) -> list[Mat2]:
    """Basis of {g : g A = B g for every anchor pair (A, B)}."""
    rows: list[list] = []
    z = ring.zero()
    for a, b in pairs:
        # unknowns (g11, g12, g21, g22); gA - Bg = 0 entrywise
        for row in ([a.a - b.a, a.c, -b.b, z],
                    [a.b, a.d - b.a, z, -b.b],
                    [-b.c, z, a.a - b.d, a.c],
                    [z, -b.c, a.b, a.d - b.d]):
            rows.append([x.value for x in row])
    return [Mat2(*(Scalar(ring, x) for x in v)) for v in _nullspace4(rows, ring)]


def _invertible_in_span(basis: list[Mat2]) -> Mat2 | None:
    """An invertible element of the span, or None when every element is singular.

    det is a quadratic form on the span; its coefficients are recovered from
    the values on basis vectors and pairwise sums, so if all those vanish the
    form is identically zero and no invertible combination exists.
    """
    for m in basis:
        if not m.det().is_zero():
            return m
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            m = basis[i] + basis[j]
            if not m.det().is_zero():
                return m
    return None


# ---------------------------------------------------------------------------
# similarity


def _first_noncommuting_pair(s: MatSeq) -> tuple[int, int] | None:
    """The lexicographically first 0-based pair of terms that do not commute.

    Scalar terms commute with everything, and the centralizer of a
    non-scalar 2x2 matrix is commutative, so if every term commutes with the
    first non-scalar term j, all pairs commute; one pass finds the pair.
    """
    j = next((i for i, t in enumerate(s.terms) if not t.is_scalar()), None)
    if j is None:
        return None
    for k in range(j + 1, s.n):
        if not commutes(s[j], s[k]):
            return (j, k)
    return None


def are_similar(s1: MatSeq, s2: MatSeq) -> SimilarityWitness | None:
    """A conjugator mapping s1 to s2, or None.

    Over Z and Q[t] similarity is decided in the fraction field; the witness
    may then have a non-unit determinant (see :class:`SimilarityWitness`).
    """
    if s1.ring != s2.ring:
        raise RingMismatch(f"{s1.ring!r} vs {s2.ring!r}")
    if s1.n != s2.n:
        raise LengthMismatch(f"lengths {s1.n} and {s2.n}")
    ring = s1.ring

    pair = _first_noncommuting_pair(s1)
    if pair is None:
        kept = maximal_reduction(s1).kept_indices
        if not kept:
            # scalar sequences are similar exactly when equal
            if s1 == s2:
                return SimilarityWitness(Mat2.identity(ring))
            return None
        anchors = [(s1.term(kept[0]), s2.term(kept[0]))]
    else:
        j, k = pair
        anchors = [(s1[j], s2[j]), (s1[k], s2[k])]

    basis = _intertwiner_nullspace(anchors, ring)
    m = _invertible_in_span(basis)
    if m is None:
        return None
    det = m.det()
    adj = m.adjugate()
    for a, b in zip(s1.terms, s2.terms):
        if (m * a) * adj != b.scale(det):
            return None
    return SimilarityWitness(m)


def triple_reduction_check(s1: MatSeq, s2: MatSeq) -> bool:
    """All corresponding subsequences of length at most 3 are similar."""
    if s1.n != s2.n:
        raise LengthMismatch(f"lengths {s1.n} and {s2.n}")
    n = s1.n
    for size in (1, 2, 3):
        if size > n:
            break
        for J in combinations(range(1, n + 1), size):
            if are_similar(subsequence(s1, J), subsequence(s2, J)) is None:
                return False
    return True


# ---------------------------------------------------------------------------
# stability and semisimplicity (closure-level notions)


def is_stable(s: MatSeq | Profile) -> bool:
    """Stable for the conjugation action: not triangularizable over the closure.

    Over the algebraic closure the singlet tests always pass, and one
    quadratic extension suffices to realize a common eigenvector, so the
    sequence is stable exactly when some sigma or Delta obstruction is nonzero.
    """
    p = Profile.of(s)
    if not p.seq.ring.is_field:
        raise UnsupportedRing("stability is a field notion; lift to the fraction field")
    return p.obstruction is not None


def is_semisimple(s: MatSeq | Profile) -> bool:
    """Stable, or commutative and simultaneously diagonalizable over the closure.

    A commutative sequence is diagonalizable exactly when it is all scalar or
    some (equivalently any) non-scalar term has nonzero discriminant.
    """
    p = Profile.of(s)
    if not p.seq.ring.is_field:
        raise UnsupportedRing("semisimplicity is a field notion; lift to the fraction field")
    if is_stable(p):
        return True
    if not is_commutative(p):
        return False
    kept = p.reduction.kept_indices
    return not kept or not p.seq.term(kept[0]).disc().is_zero()


# ---------------------------------------------------------------------------
# separating invariants


@dataclass(frozen=True)
class PhiVector:
    """The semisimple separating vector (t1, t11, t2, t22, t12, then
    (tk, t1k, t2k, s_12k) for k = 3..n); length 4n - 3."""

    ring: RingDescriptor
    n: int
    values: tuple[Scalar, ...]

    def to_json(self):
        return {"ring": ring_to_json(self.ring), "n": self.n,
                "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "PhiVector":
        ring = ring_from_json(obj["ring"])
        n = int(obj["n"])
        values = tuple(scalar_from_json(ring, v) for v in obj["values"])
        if len(values) != 4 * n - 3:
            raise ValueError(f"expected {4 * n - 3} values for n = {n}, got {len(values)}")
        return cls(ring, n, values)


@dataclass(frozen=True)
class PsiValue:
    """The triangularizable separating value: 2n traces (t1, t11, then
    (tk, t1k) for k = 2..n) plus a normalized projective point.

    ``proj`` lists (delta_12 : ... : delta_1n) scaled so the first nonzero
    coordinate is 1.  When every delta_1k vanishes the full pairwise vector
    (delta_jk for j < k) is used instead and ``plucker_full`` is set.
    """

    ring: RingDescriptor
    n: int
    traces: tuple[Scalar, ...]
    proj: tuple[Scalar, ...]
    plucker_full: bool = False

    def to_json(self):
        return {"ring": ring_to_json(self.ring), "n": self.n,
                "values": [v.to_json() for v in self.traces],
                "proj": [v.to_json() for v in self.proj],
                "plucker_full": self.plucker_full}

    @classmethod
    def from_json(cls, obj) -> "PsiValue":
        ring = ring_from_json(obj["ring"])
        n = int(obj["n"])
        traces = tuple(scalar_from_json(ring, v) for v in obj["values"])
        proj = tuple(scalar_from_json(ring, v) for v in obj["proj"])
        if len(traces) != 2 * n:
            raise ValueError(f"expected {2 * n} trace values for n = {n}")
        return cls(ring, n, traces, proj, bool(obj.get("plucker_full", False)))


def _require_phi_input(s: MatSeq, what: str) -> None:
    if s.ring.characteristic() == 2:
        raise Char2Unsupported(f"{what} requires characteristic != 2")
    if s.n < 2:
        raise LengthTooShort(f"{what} needs at least two terms")


def phi_prime(s: MatSeq) -> PhiVector:
    """The 4n - 3 separating traces for semisimple sequences."""
    _require_phi_input(s, "phi_prime")
    t = lambda *J: trace_word(s, J)
    vals = [t(1), t(1, 1), t(2), t(2, 2), t(1, 2)]
    for k in range(3, s.n + 1):
        vals.extend([t(k), t(1, k), t(2, k), drensky_s(s, 1, 2, k)])
    return PhiVector(s.ring, s.n, tuple(vals))


def in_phi_domain(s: MatSeq) -> bool:
    """Whether phi_prime separates here: semisimple, first term diagonalizable
    over the closure, first pair non-commuting."""
    if s.n < 2 or s.ring.characteristic() == 2:
        return False
    return (is_semisimple(s)
            and not s[0].disc().is_zero()
            and not commutes(s[0], s[1]))


def psi_prime(s: MatSeq) -> PsiValue:
    """The separating value for triangularizable non-commutative sequences."""
    _require_phi_input(s, "psi_prime")
    p = Profile(s)
    if is_commutative(p):
        raise CommutativeInput("psi_prime needs a non-commutative sequence")
    w = triangularize(p)
    if w is None:
        raise NotTriangularizable("psi_prime needs a triangularizable sequence")
    tri = w.triangular
    t = lambda *J: trace_word(tri, J)
    traces = [t(1), t(1, 1)]
    for k in range(2, s.n + 1):
        traces.extend([t(k), t(1, k)])
    b, e = tri.b, tri.e
    deltas = [b[0] * e[k] - e[0] * b[k] for k in range(1, s.n)]
    full = False
    if all(x.is_zero() for x in deltas):
        deltas = [b[j] * e[k] - e[j] * b[k]
                  for j in range(s.n) for k in range(j + 1, s.n)]
        full = True
    lead = next((x for x in deltas if not x.is_zero()), None)
    if lead is None:
        raise CommutativeInput("all pairwise deltas vanish on the triangular form")
    inv = lead.inverse()
    proj = tuple(x * inv for x in deltas)
    return PsiValue(s.ring, s.n, tuple(traces), proj, full)


def in_psi_domain(s: MatSeq) -> bool:
    """Whether psi_prime separates here: triangularizable over the ring,
    non-commutative, first pair non-commuting."""
    if s.n < 2 or s.ring.characteristic() == 2:
        return False
    p = Profile(s)
    if is_commutative(p) or commutes(s[0], s[1]):
        return False
    return triangularize(p) is not None
